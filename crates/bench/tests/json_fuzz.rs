//! Seeded fuzzing of the bench-report JSON parser over random bytes,
//! truncations and byte mutations of a real `BENCH_throughput.json`.
//!
//! The contract: `parse` returns `Ok` or `Err` on every input and never
//! panics or overflows the stack, and every value it accepts survives
//! a round trip through a plain re-emitter.

use proptest::prelude::*;
use std::fmt::Write as _;
use uhd_bench::json::{parse, Json, MAX_DEPTH};
use uhd_lowdisc::rng::SplitMix64;

/// The committed perf-trajectory reports, as the emitters write them.
const THROUGHPUT: &str = include_str!("../../../BENCH_throughput.json");
const ONLINE: &str = include_str!("../../../BENCH_online.json");

/// Bytes that steer a mutation toward the parser's branches.
const SPICE: &[u8] = b"[]{}\",:\\u0aeE+-.tfn \n";

/// Re-emit a parsed value as JSON. Infinite numbers (from exponents
/// past `f64`'s range) are written as out-of-range exponents, which
/// parse back to the same infinity.
fn emit(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_infinite() => out.push_str(if *n > 0.0 { "1e999" } else { "-1e999" }),
        Json::Num(n) => out.push_str(&n.to_string()),
        Json::Str(s) => emit_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_str(key, out);
                out.push(':');
                emit(item, out);
            }
            out.push('}');
        }
    }
}

fn emit_str(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse `text`; when it is accepted, its re-emission must parse back
/// to the same value.
fn parse_and_round_trip(text: &str) -> Result<Json, String> {
    let parsed = parse(text);
    if let Ok(value) = &parsed {
        let mut emitted = String::new();
        emit(value, &mut emitted);
        assert_eq!(parse(&emitted).as_ref(), Ok(value), "re-emitted: {emitted}");
    }
    parsed
}

fn random_byte(rng: &mut SplitMix64) -> u8 {
    (rng.next_u64() >> 56) as u8
}

/// A handful of byte flips, deletions, insertions (random or
/// structural) and duplicated spans applied to `doc`.
fn mutate(doc: &str, rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..=rng.next_u64() % 8 {
        let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
        match rng.next_u64() % 5 {
            0 if at < bytes.len() => bytes[at] ^= random_byte(rng) | 1,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, random_byte(rng)),
            3 => bytes.insert(at, SPICE[(rng.next_u64() % SPICE.len() as u64) as usize]),
            _ => {
                let len = (rng.next_u64() % 64) as usize;
                let end = (at + len).min(bytes.len());
                bytes.extend_from_within(at..end);
            }
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_parse_or_fail_cleanly(seed in any::<u64>(), len in 0usize..512) {
        let mut rng = SplitMix64::new(seed);
        let bytes: Vec<u8> = (0..len).map(|_| random_byte(&mut rng)).collect();
        let _ = parse_and_round_trip(&String::from_utf8_lossy(&bytes));
        // Random text drawn from the structural alphabet reaches deeper.
        let spiced: Vec<u8> = (0..len)
            .map(|_| SPICE[(rng.next_u64() % SPICE.len() as u64) as usize])
            .collect();
        let _ = parse_and_round_trip(&String::from_utf8_lossy(&spiced));
    }

    #[test]
    fn truncated_reports_parse_or_fail_cleanly(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let cut = (rng.next_u64() % (THROUGHPUT.len() as u64 + 1)) as usize;
        let text = String::from_utf8_lossy(&THROUGHPUT.as_bytes()[..cut]);
        let parsed = parse_and_round_trip(&text);
        if text.trim_end().len() < THROUGHPUT.trim_end().len() {
            prop_assert!(parsed.is_err(), "accepted a report cut at byte {}", cut);
        }
    }

    #[test]
    fn mutated_reports_parse_or_fail_cleanly(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let bytes = mutate(THROUGHPUT, &mut rng);
        let _ = parse_and_round_trip(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn committed_reports_round_trip() {
    for report in [THROUGHPUT, ONLINE] {
        let value = parse_and_round_trip(report).expect("committed report parses");
        assert!(value.get("bench").and_then(Json::as_str).is_some());
    }
}

#[test]
fn emitted_report_fragments_round_trip() {
    let mut latencies = uhd_bench::Latencies::default();
    for us in [3, 5, 8, 13, 21] {
        latencies.record(std::time::Duration::from_micros(us));
    }
    for text in [uhd_bench::machine_json(), latencies.json()] {
        parse_and_round_trip(&text).expect("emitter output parses");
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let deep = "[".repeat(100_000);
    let err = parse(&deep).unwrap_err();
    assert!(err.contains("nesting"), "{err}");
    let deep_objects = "{\"a\":".repeat(100_000);
    assert!(parse(&deep_objects).unwrap_err().contains("nesting"));
    // The bound itself: MAX_DEPTH levels parse, one more does not.
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse(&nested(MAX_DEPTH)).is_ok());
    assert!(parse(&nested(MAX_DEPTH + 1))
        .unwrap_err()
        .contains("nesting"));
}

#[test]
fn long_strings_parse_in_one_pass() {
    // Mixed one- to four-byte characters and escapes, 4 MiB of them:
    // a parser that revalidates the rest of the input per character
    // takes hours here.
    let run = "aé€𝄞".repeat(1 << 18);
    let text = format!("[\"{run}\\n{run}\"]");
    let value = parse(&text).unwrap();
    assert_eq!(
        value.as_arr().unwrap()[0],
        Json::Str(format!("{run}\n{run}"))
    );
}

#[test]
fn numbers_outside_the_rfc_grammar_are_rejected() {
    for bad in [
        ".5",
        "1.",
        "01",
        "-.5",
        "-01",
        "1e",
        "1e+",
        "-",
        "+1",
        "[1.]",
        "{\"a\":01}",
    ] {
        assert!(parse(bad).is_err(), "should reject {bad:?}");
    }
    for good in [
        "0", "-0", "0.5", "-0.5", "10", "1e5", "1E-5", "2.5e+3", "[0,1]",
    ] {
        assert!(parse(good).is_ok(), "should accept {good:?}");
    }
}

#[test]
fn unescaped_control_bytes_in_strings_are_rejected() {
    for bad in ["\"a\tb\"", "\"\u{1}\"", "[\"\n\"]", "{\"k\u{1f}\":1}"] {
        assert!(parse(bad).is_err(), "should reject {bad:?}");
    }
    assert_eq!(
        parse("\"a\\tb\\u0001\"").unwrap(),
        Json::Str("a\tb\u{1}".into())
    );
}

//! Robustness of the model snapshot format at its trust boundary:
//! seeded property fuzzing of `HdcModel::from_bytes` over random,
//! truncated and mutated-valid inputs, and recovery from a snapshot
//! writer that was killed mid-write.

use std::sync::Arc;

use proptest::prelude::*;
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::{HdcModel, LabelledSamples};
use uhd::core::online::OnlineLearner;
use uhd::core::snapshot;
use uhd::core::{Encoder, HdcError};
use uhd::lowdisc::rng::Xoshiro256StarStar;
use uhd::serve::registry::ModelRegistry;
use uhd::serve::ServeConfig;

/// Hypervector dimension of the fixtures: not a multiple of 64, so
/// every class hypervector's last word carries padding bits.
const DIM: u32 = 100;
const PIXELS: usize = 6;

fn encoder() -> UhdEncoder {
    UhdEncoder::new(UhdConfig::new(DIM, PIXELS)).unwrap()
}

/// A small three-class model; `shade` varies the training data so two
/// generations are distinguishable.
fn model(shade: u8) -> HdcModel {
    let images = vec![
        vec![10 + shade; PIXELS],
        vec![240 - shade; PIXELS],
        vec![128; PIXELS],
        vec![20 + shade; PIXELS],
        vec![250 - shade; PIXELS],
        vec![120 + shade; PIXELS],
    ];
    let labels = vec![0, 1, 2, 0, 1, 2];
    HdcModel::train(
        &encoder(),
        LabelledSamples::new(&images, &labels).unwrap(),
        3,
    )
    .unwrap()
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Xoshiro256StarStar::seeded(seed);
    (0..len).map(|_| (rng.next_u64() >> 56) as u8).collect()
}

/// The decoder contract on arbitrary input: a typed
/// [`HdcError::InvalidConfig`], or a model whose encoding is exactly
/// the input. Returns whether the input decoded.
fn check_decode(bytes: &[u8]) -> bool {
    match HdcModel::from_bytes(bytes) {
        Ok(model) => {
            assert_eq!(model.to_bytes(), bytes, "decode is not byte-exact");
            true
        }
        Err(e) => {
            assert!(
                matches!(e, HdcError::InvalidConfig { .. }),
                "untyped rejection: {e:?}"
            );
            false
        }
    }
}

/// `payload` behind the 16-byte header `UHDM | version | dim | classes`.
fn with_header(version: u32, dim: u32, classes: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"UHDM".to_vec();
    for field in [version, dim, classes] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn every_truncation_of_a_valid_encoding_is_rejected() {
    let good = model(0).to_bytes();
    assert!(check_decode(&good));
    for len in 0..good.len() {
        assert!(!check_decode(&good[..len]), "prefix of {len} bytes decoded");
    }
    let mut longer = good;
    longer.push(0);
    assert!(!check_decode(&longer));
}

#[test]
fn set_padding_bits_are_rejected() {
    let mut bytes = model(0).to_bytes();
    // The last word of class 0's hypervector: bits 36..64 are padding.
    let last_word = 16 + 8;
    bytes[last_word + 7] |= 0x80;
    assert!(!check_decode(&bytes));
}

/// Every class bit is the sign of its class sum. A snapshot with one
/// bit flipped and its sum kept is rejected: accepted, it served one
/// set of class bits until a learner warm-started from it re-derived
/// the other at its first snapshot.
#[test]
fn flipped_class_bits_are_rejected() {
    let good = model(0).to_bytes();
    let wc = DIM.div_ceil(64) as usize;
    for class in 0..3 {
        for bit in 0..DIM as usize {
            let mut bytes = good.clone();
            bytes[16 + class * wc * 8 + bit / 8] ^= 1 << (bit % 8);
            assert!(
                !check_decode(&bytes),
                "class {class} bit {bit} flipped and decoded"
            );
        }
    }
    // An honest snapshot survives a warm-started learner unchanged.
    let decoded = HdcModel::from_bytes(&good).unwrap();
    let relearned = OnlineLearner::from_model(&decoded).snapshot().unwrap();
    assert_eq!(relearned.to_bytes(), good);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Unstructured garbage of any length.
    #[test]
    fn random_bytes_never_panic(seed in any::<u64>(), len in 0usize..4096) {
        check_decode(&random_bytes(seed, len));
    }

    /// Random payloads behind a well-formed header, with the length
    /// exact or a few bytes off: exercises the sizing and decode paths
    /// that garbage never reaches. An exact-length payload decodes iff
    /// every class's words are the signs of its sums (ties positive,
    /// padding clear); with `signed_words` they are rewritten so.
    #[test]
    fn random_payload_behind_valid_header(
        seed in any::<u64>(),
        dim in 1u32..=200,
        classes in 1u32..=4,
        slack in 0usize..=16,
        signed_words in any::<bool>(),
    ) {
        let wc = dim.div_ceil(64) as usize;
        let exact = classes as usize * (wc * 8 + dim as usize * 8);
        // slack 8 is the exact length; the rest are 1..=8 bytes short
        // or long.
        let len = (exact + slack).saturating_sub(8);
        let mut payload = random_bytes(seed, len);
        let mut signs_match = len == exact;
        if len == exact {
            let (words, sums) = payload.split_at_mut(classes as usize * wc * 8);
            for (class_words, class_sums) in words
                .chunks_exact_mut(wc * 8)
                .zip(sums.chunks_exact(dim as usize * 8))
            {
                // Little-endian words: bit i lives in byte i / 8.
                let mut signs = vec![0u8; wc * 8];
                for (i, sum) in class_sums.chunks_exact(8).enumerate() {
                    if i64::from_le_bytes(sum.try_into().unwrap()) >= 0 {
                        signs[i / 8] |= 1 << (i % 8);
                    }
                }
                if signed_words {
                    class_words.copy_from_slice(&signs);
                }
                signs_match &= class_words == signs.as_slice();
            }
        }
        let decoded = check_decode(&with_header(1, dim, classes, &payload));
        prop_assert_eq!(decoded, signs_match);
    }

    /// Single-byte mutations of a valid encoding, anywhere in it.
    #[test]
    fn single_byte_mutations_decode_exactly_or_fail(pos in any::<u64>(), flip in 1u8..=255) {
        let mut bytes = model(0).to_bytes();
        let at = (pos % bytes.len() as u64) as usize;
        bytes[at] ^= flip;
        let decoded = check_decode(&bytes);
        if at < 16 {
            prop_assert!(!decoded, "a corrupted header byte at {} decoded", at);
        }
    }

    /// Header-field rewrites: each of version, dim and classes set to a
    /// near-miss of its true value or to an arbitrary one (including
    /// size-overflowing counts) over the honest payload.
    #[test]
    fn header_field_mutations_decode_exactly_or_fail(
        field in 1usize..4,
        near in any::<bool>(),
        delta in 1u32..=3,
        raw in any::<u32>(),
    ) {
        let good = model(0).to_bytes();
        let mut bytes = good.clone();
        let at = field * 4;
        let original = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let value = if near { original.wrapping_add(delta) } else { raw };
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let decoded = check_decode(&bytes);
        prop_assert_eq!(decoded, value == original);
    }
}

/// A writer killed mid-write leaves a truncated `<name>.tmp-<pid>-<n>`
/// beside the snapshot. The snapshot itself is untouched: it loads
/// byte-identically, a registry boots from it, and later saves still
/// succeed — also when the stray occupies the very temp name the next
/// save picks.
#[test]
fn stray_partial_write_leaves_the_snapshot_loadable() {
    let dir = std::env::temp_dir().join(format!("uhd-snap-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("digits.uhdm");
    let old = model(0);
    snapshot::save_atomic(&old, &path).unwrap();

    let newer = model(30);
    let partial = newer.to_bytes();
    let partial = &partial[..partial.len() / 2];
    // One stray from another (dead) process, and strays on the temp
    // names this process's next saves will use.
    let foreign = dir.join("digits.uhdm.tmp-4294967295-0");
    std::fs::write(&foreign, partial).unwrap();
    for seq in 0..4 {
        let own = dir.join(format!("digits.uhdm.tmp-{}-{seq}", std::process::id()));
        std::fs::write(own, partial).unwrap();
    }

    let loaded = snapshot::load(&path).unwrap();
    assert_eq!(loaded.to_bytes(), old.to_bytes());

    let encoder: Arc<dyn Encoder> = Arc::new(encoder());
    let registry = ModelRegistry::start(ServeConfig::new(1, 4)).unwrap();
    registry
        .register_from_snapshot("booted", Arc::clone(&encoder), &path)
        .unwrap();
    registry
        .register("direct", Arc::clone(&encoder), old.clone())
        .unwrap();
    for shade in [0u8, 60, 130, 200, 255] {
        let sample = vec![shade; PIXELS];
        let booted = registry.classify("booted", &sample).unwrap();
        let direct = registry.classify("direct", &sample).unwrap();
        assert_eq!((booted.class, booted.score), (direct.class, direct.score));
    }

    snapshot::save_atomic(&newer, &path).unwrap();
    assert_eq!(snapshot::load(&path).unwrap().to_bytes(), newer.to_bytes());
    // The dead writer's stray is left alone, and still never decodes.
    assert_eq!(std::fs::read(&foreign).unwrap(), partial);
    assert!(snapshot::load(&foreign).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

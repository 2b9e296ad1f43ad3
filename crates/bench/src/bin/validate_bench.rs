//! CI gate for the perf trajectory: parse `BENCH_throughput.json` and
//! `BENCH_online.json` from [`uhd_bench::bench_dir`] and fail (non-zero
//! exit) unless both are well-formed and carry every required key.
//!
//! Run: `cargo run --release -p uhd-bench --bin validate_bench` checks
//! the committed files in the repository root, which must come from
//! full runs (`"quick": false`); under `UHD_BENCH_QUICK` it checks the
//! quick-run copies in `target/bench-quick/`.
//!
//! `ci.sh` checks the committed files on every run, so a quick run's
//! output cannot be committed unnoticed. `ci.sh --smoke` also runs the
//! two emitting binaries under `UHD_BENCH_QUICK=1` and then this
//! validator, so a bench that panics under the SIMD path or emits a
//! malformed document breaks the build instead of silently rotting the
//! trajectory.

use uhd_bench::json::{parse, Json};
use uhd_core::kernels::Kernel;

/// Keys every trajectory file must carry at the top level.
const COMMON_KEYS: &[&str] = &["bench", "quick", "machine", "workload", "request_latency"];

const THROUGHPUT_KEYS: &[&str] = &[
    "serial_classify_images_per_sec",
    "serial_classify_images_per_sec_iqr",
    "serial_binarized_images_per_sec",
    "serial_binarized_images_per_sec_iqr",
    "sweep",
    "best",
    "registry_latency",
    "obs_overhead",
    "workloads",
    "rematerialization",
    "encode_layers",
    "am_kernel",
];

/// Dimensions the per-layer `encode_layers` section must cover.
const LAYER_DIMS: [f64; 3] = [1024.0, 2048.0, 8192.0];

/// Feature-stream families the per-workload section must cover.
const WORKLOAD_FAMILIES: &[&str] = &["image", "text", "tabular"];

const ONLINE_KEYS: &[&str] = &[
    "classify_only_images_per_sec",
    "learn_only_samples_per_sec",
    "mixed_classify_images_per_sec",
    "mixed_learn_samples_per_sec",
    "registry_latency",
    "classify_throughput_ratio_under_learning",
];

fn check_file(file_name: &str, extra_keys: &[&str], quick: bool, errors: &mut Vec<String>) {
    let path = uhd_bench::bench_dir().join(file_name);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            errors.push(format!("{file_name}: cannot read {}: {e}", path.display()));
            return;
        }
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            errors.push(format!("{file_name}: malformed JSON: {e}"));
            return;
        }
    };
    for &key in COMMON_KEYS.iter().chain(extra_keys) {
        if doc.get(key).is_none() {
            errors.push(format!("{file_name}: missing required key \"{key}\""));
        }
    }
    // The committed trajectory holds full runs only.
    if !quick && doc.get("quick") != Some(&Json::Bool(false)) {
        errors.push(format!(
            "{file_name}: committed trajectory files must come from a full run (\"quick\": false)"
        ));
    }
    // The machine block must attribute the numbers to a kernel this
    // build knows about, whether or not this machine can run it.
    let kernel = doc
        .get("machine")
        .and_then(|m| m.get("kernel"))
        .and_then(Json::as_str);
    match kernel {
        Some(name) if Kernel::NAMES.contains(&name) => {}
        Some(name) => errors.push(format!(
            "{file_name}: machine.kernel {name:?} is not a known kernel"
        )),
        None => errors.push(format!(
            "{file_name}: machine.kernel missing or not a string"
        )),
    }
    // Latency percentiles must be present, numeric, and ordered —
    // both the client-side samples and the registry's histogram view.
    for section in ["request_latency", "registry_latency"] {
        let lat = doc.get(section);
        let p50 = lat.and_then(|l| l.get("p50_us")).and_then(Json::as_f64);
        let p99 = lat.and_then(|l| l.get("p99_us")).and_then(Json::as_f64);
        match (p50, p99) {
            (Some(p50), Some(p99)) if p50 > 0.0 && p99 >= p50 => {}
            _ => errors.push(format!(
                "{file_name}: {section} must carry numeric p50_us/p99_us with 0 < p50 <= p99 \
                 (got p50={p50:?}, p99={p99:?})"
            )),
        }
    }
    // The per-workload section must cover every feature-stream family
    // with a positive throughput — the workload-agnostic serving gate.
    if let Some(workloads) = doc.get("workloads") {
        let rows = workloads.as_arr().unwrap_or(&[]);
        for &family in WORKLOAD_FAMILIES {
            let row = rows
                .iter()
                .find(|r| r.get("workload").and_then(Json::as_str) == Some(family));
            let rate = row
                .and_then(|r| r.get("samples_per_sec"))
                .and_then(Json::as_f64);
            match rate {
                Some(rate) if rate > 0.0 => {}
                _ => errors.push(format!(
                    "{file_name}: workloads must carry a \"{family}\" row with \
                     positive samples_per_sec"
                )),
            }
        }
    }

    if let Some(remat) = doc.get("rematerialization") {
        check_rematerialization(file_name, remat, errors);
    }
    if let Some(layers) = doc.get("encode_layers") {
        check_encode_layers(file_name, layers, errors);
    }

    // The instrumentation-overhead block must carry both throughput
    // figures and a numeric overhead percentage.
    if let Some(obs) = doc.get("obs_overhead") {
        let instrumented = obs
            .get("instrumented_images_per_sec")
            .and_then(Json::as_f64);
        let noop = obs.get("noop_images_per_sec").and_then(Json::as_f64);
        let pct = obs.get("overhead_pct").and_then(Json::as_f64);
        match (instrumented, noop, pct) {
            (Some(i), Some(n), Some(_)) if i > 0.0 && n > 0.0 => {}
            _ => errors.push(format!(
                "{file_name}: obs_overhead must carry positive instrumented/noop \
                 images_per_sec and a numeric overhead_pct"
            )),
        }
    }
}

/// The rematerialization block is the footprint acceptance gate: both
/// heap figures, a heap ratio holding the paper-config >= 50x floor,
/// and a recorded (positive) throughput trade.
fn check_rematerialization(file_name: &str, remat: &Json, errors: &mut Vec<String>) {
    for key in [
        "pixels",
        "levels",
        "dim",
        "resident_heap_bytes",
        "rematerialized_heap_bytes",
        "heap_ratio",
        "resident_images_per_sec",
        "rematerialized_images_per_sec",
        "throughput_ratio",
    ] {
        if remat.get(key).and_then(Json::as_f64).is_none() {
            errors.push(format!(
                "{file_name}: rematerialization must carry numeric \"{key}\""
            ));
        }
    }
    let resident = remat.get("resident_heap_bytes").and_then(Json::as_f64);
    let remat_heap = remat
        .get("rematerialized_heap_bytes")
        .and_then(Json::as_f64);
    if let (Some(resident), Some(remat_heap)) = (resident, remat_heap) {
        if !(remat_heap > 0.0 && remat_heap <= resident / 50.0) {
            errors.push(format!(
                "{file_name}: rematerialized heap ({remat_heap} B) must be at most 1/50 of \
                 resident heap ({resident} B)"
            ));
        }
    }
    match remat.get("throughput_ratio").and_then(Json::as_f64) {
        Some(ratio) if ratio > 0.0 => {}
        other => errors.push(format!(
            "{file_name}: rematerialization.throughput_ratio must be positive (got {other:?})"
        )),
    }
}

/// The per-layer gate: one row per paper dimension, each carrying a
/// positive isolated cost for bundling, binarization and bipolar sums.
fn check_encode_layers(file_name: &str, layers: &Json, errors: &mut Vec<String>) {
    let rows = layers.as_arr().unwrap_or(&[]);
    for dim in LAYER_DIMS {
        let row = rows
            .iter()
            .find(|r| r.get("dim").and_then(Json::as_f64) == Some(dim));
        for key in ["accumulate_ns", "binarize_ns", "bipolar_sums_ns"] {
            match row.and_then(|r| r.get(key)).and_then(Json::as_f64) {
                Some(ns) if ns > 0.0 => {}
                other => errors.push(format!(
                    "{file_name}: encode_layers needs a dim {dim} row with positive \"{key}\" \
                     (got {other:?})"
                )),
            }
        }
    }
}

fn main() {
    let quick = uhd_bench::env_flag("UHD_BENCH_QUICK");
    let mut errors = Vec::new();
    check_file("BENCH_throughput.json", THROUGHPUT_KEYS, quick, &mut errors);
    check_file("BENCH_online.json", ONLINE_KEYS, quick, &mut errors);
    if errors.is_empty() {
        println!("BENCH_throughput.json and BENCH_online.json are well-formed");
    } else {
        for error in &errors {
            eprintln!("validate_bench: {error}");
        }
        std::process::exit(1);
    }
}

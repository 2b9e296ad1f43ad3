//! Key–value bundling capacity stress: how many bound pairs fit in one
//! hypervector before unbind-and-nearest retrieval degrades.
//!
//! Run: `cargo run --release -p uhd-bench --bin capacity`
//!
//! The classic HDC "kv store": draw `N` random key hypervectors and
//! assign each a value symbol from a fixed codebook, bundle the bound
//! pairs `keyᵢ ⊗ valueᵢ` with majority voting, then recover each value
//! by unbinding (`S ⊗ keyᵢ`, an involution of XNOR binding) and taking
//! the nearest codebook entry through the served associative-memory
//! sweep (`Kernel::hamming_to_all` over all 32 symbols at once,
//! highest index on a tie). Crosstalk from the other `N − 1` pairs is
//! the noise floor; accuracy vs `N` traces the memory capacity of a
//! `D`-dimensional vector — the same superposition head-room the
//! serving registry's class memories live off.
//!
//! The sweep runs at several dimensions so the capacity-vs-D scaling is
//! visible in one report. Each point's retrieval rate is the median of
//! repeated timed passes over all of its retrievals (at least 7 passes
//! and 200 ms in a full run, the rule the `throughput` serial
//! baselines use), reported with its IQR. Results go to stdout *and*
//! `BENCH_capacity.json` in the repository root (machine-attributed,
//! like every bench bin; quick runs write `target/bench-quick/`).
//! Honours `UHD_BENCH_QUICK` for a reduced sweep and `UHD_SEED` for the
//! master seed.

use std::fmt::Write as _;
use std::time::Instant;
use uhd_bench::{env_flag, machine_json, repeat_passes, write_bench_json, Repeated};
use uhd_core::assoc::AssociativeMemory;
use uhd_core::hypervector::Hypervector;
use uhd_core::DenseAccumulator;
use uhd_lowdisc::rng::Xoshiro256StarStar;

/// Value-symbol codebook size. Chance accuracy is 1/32.
const CODEBOOK: usize = 32;

struct CapacityPoint {
    dim: u32,
    pairs: usize,
    accuracy: f64,
    /// Median pass rate over the timed passes.
    retrievals_per_sec: f64,
    /// Interquartile range of the pass rates.
    retrievals_per_sec_iqr: f64,
}

/// One trial's key–value store: the bundled bindings, the keys to
/// retrieve with and the codebook symbol each key was bound to.
struct Store {
    memory: AssociativeMemory,
    bundle: Hypervector,
    keys: Vec<Hypervector>,
    assignment: Vec<usize>,
}

/// Bundle `pairs` random key⊗value bindings into one store.
fn build_store(dim: u32, pairs: usize, rng: &mut Xoshiro256StarStar) -> Store {
    let codebook: Vec<Hypervector> = (0..CODEBOOK)
        .map(|_| Hypervector::random(dim, rng))
        .collect();
    let keys: Vec<Hypervector> = (0..pairs).map(|_| Hypervector::random(dim, rng)).collect();
    let assignment: Vec<usize> = (0..pairs)
        .map(|i| {
            // Spread assignments over the codebook deterministically
            // but not uniformly-trivially (distinct keys may share a
            // value, as in a real store).
            (i * 7 + dim as usize % 13) % CODEBOOK
        })
        .collect();
    let mut acc = DenseAccumulator::new(dim);
    for (key, &value) in keys.iter().zip(&assignment) {
        let bound = key.bind(&codebook[value]).expect("dims match");
        acc.add_hypervector(&bound).expect("dims match");
    }
    Store {
        memory: AssociativeMemory::new(&codebook).expect("non-empty codebook"),
        bundle: acc.binarize(),
        keys,
        assignment,
    }
}

/// Retrieve every key's value from `store`; returns how many come back
/// right.
fn retrieve(store: &Store, dists: &mut Vec<u32>) -> usize {
    let mut correct = 0;
    for (key, &value) in store.keys.iter().zip(&store.assignment) {
        // Unbind: XNOR binding is an involution, so S ⊗ key peels
        // the key off and leaves value + crosstalk.
        let noisy = store.bundle.bind(key).expect("dims match");
        store
            .memory
            .hamming_to_all(&noisy, dists)
            .expect("dims match");
        // Nearest symbol (largest dot = smallest distance); ties go
        // to the highest index.
        let best = (0..CODEBOOK)
            .rev()
            .min_by_key(|&idx| dists[idx])
            .expect("non-empty codebook");
        correct += usize::from(best == value);
    }
    correct
}

/// Measure retrieval accuracy over `trials` independent stores of
/// `pairs` bindings, then time passes over every retrieval under the
/// repeated-pass rule ([`repeat_passes`]). The untimed first pass,
/// which scores accuracy, is also the warm-up.
fn measure(
    dim: u32,
    pairs: usize,
    trials: usize,
    quick: bool,
    rng: &mut Xoshiro256StarStar,
) -> CapacityPoint {
    let stores: Vec<Store> = (0..trials).map(|_| build_store(dim, pairs, rng)).collect();
    let mut dists = Vec::with_capacity(CODEBOOK);
    let mut pass = || -> usize { stores.iter().map(|s| retrieve(s, &mut dists)).sum() };
    let correct = pass();
    let total = pairs * trials;
    let rates = repeat_passes(quick, || {
        let t0 = Instant::now();
        let again = pass();
        let elapsed = t0.elapsed();
        assert_eq!(again, correct, "retrieval is deterministic");
        (elapsed, total as f64 / elapsed.as_secs_f64().max(1e-9))
    });
    let rate = Repeated::of(&rates);
    CapacityPoint {
        dim,
        pairs,
        accuracy: correct as f64 / total as f64,
        retrievals_per_sec: rate.median,
        retrievals_per_sec_iqr: rate.iqr,
    }
}

fn main() {
    let quick = env_flag("UHD_BENCH_QUICK");
    let seed: u64 = std::env::var("UHD_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xCAFE);
    let dims: &[u32] = if quick {
        &[1024, 4096]
    } else {
        &[1024, 4096, 16384]
    };
    let sweep: &[usize] = if quick {
        &[2, 8, 32, 128]
    } else {
        &[2, 4, 8, 16, 32, 64, 128, 256, 512]
    };
    let trials = if quick { 2 } else { 5 };

    let mut rng = Xoshiro256StarStar::seeded(seed);
    let mut points = Vec::new();
    println!("key-value capacity stress (codebook {CODEBOOK}, {trials} trials/point)");
    println!(
        "{:>7} {:>6} {:>9} {:>14} {:>12}",
        "dim", "pairs", "accuracy", "retrievals/s", "iqr"
    );
    for &dim in dims {
        for &pairs in sweep {
            let point = measure(dim, pairs, trials, quick, &mut rng);
            println!(
                "{:>7} {:>6} {:>8.1}% {:>14.0} {:>12.0}",
                point.dim,
                point.pairs,
                point.accuracy * 100.0,
                point.retrievals_per_sec,
                point.retrievals_per_sec_iqr
            );
            points.push(point);
        }
    }

    // Sanity: at tiny loads the store is far above the noise floor —
    // a handful of pairs in ≥1024 dimensions must retrieve cleanly.
    for point in &points {
        if point.pairs <= 8 {
            assert!(
                point.accuracy >= 0.99,
                "D={} N={} retrieved only {:.1}% — capacity model broken",
                point.dim,
                point.pairs,
                point.accuracy * 100.0
            );
        }
    }
    // And capacity must grow with dimension: the largest D holds the
    // biggest load of the sweep at least as well as the smallest D.
    let largest_load = *sweep.last().expect("non-empty sweep");
    let at = |dim: u32| {
        points
            .iter()
            .find(|p| p.dim == dim && p.pairs == largest_load)
            .expect("sweep covers all (dim, pairs)")
            .accuracy
    };
    assert!(
        at(*dims.last().expect("non-empty dims")) >= at(dims[0]) - 0.05,
        "accuracy should not degrade with dimension"
    );

    let mut rows = String::new();
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        let _ = write!(
            rows,
            "\n    {{\"dim\": {}, \"pairs\": {}, \"accuracy\": {:.4}, \"retrievals_per_sec\": {:.0}, \
             \"retrievals_per_sec_iqr\": {:.0}}}{sep}",
            p.dim, p.pairs, p.accuracy, p.retrievals_per_sec, p.retrievals_per_sec_iqr
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"capacity\",\n  \"machine\": {},\n  \"quick\": {},\n  \"codebook\": {},\n  \"trials\": {},\n  \"points\": [{}\n  ]\n}}\n",
        machine_json(),
        quick,
        CODEBOOK,
        trials,
        rows
    );
    write_bench_json("BENCH_capacity.json", &json);
}

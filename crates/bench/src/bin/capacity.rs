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
//! visible in one report. Results go to stdout *and*
//! `BENCH_capacity.json` in the repository root (machine-attributed,
//! like every bench bin; quick runs write `target/bench-quick/`).
//! Honours `UHD_BENCH_QUICK` for a reduced sweep and `UHD_SEED` for the
//! master seed.

use std::fmt::Write as _;
use std::time::Instant;
use uhd_bench::{env_flag, machine_json, write_bench_json};
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
    retrievals_per_sec: f64,
}

/// Bundle `pairs` random key⊗value bindings and measure retrieval
/// accuracy over `trials` independent stores.
fn measure(dim: u32, pairs: usize, trials: usize, rng: &mut Xoshiro256StarStar) -> CapacityPoint {
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut retrieval_time = std::time::Duration::ZERO;
    for _ in 0..trials {
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
        let store = acc.binarize();
        let memory = AssociativeMemory::new(&codebook).expect("non-empty codebook");
        let mut dists = Vec::with_capacity(CODEBOOK);
        let t0 = Instant::now();
        for (key, &value) in keys.iter().zip(&assignment) {
            // Unbind: XNOR binding is an involution, so S ⊗ key peels
            // the key off and leaves value + crosstalk.
            let noisy = store.bind(key).expect("dims match");
            memory
                .hamming_to_all(&noisy, &mut dists)
                .expect("dims match");
            // Nearest symbol (largest dot = smallest distance); ties go
            // to the highest index.
            let best = (0..CODEBOOK)
                .rev()
                .min_by_key(|&idx| dists[idx])
                .expect("non-empty codebook");
            correct += usize::from(best == value);
            total += 1;
        }
        retrieval_time += t0.elapsed();
    }
    #[allow(clippy::cast_precision_loss)]
    CapacityPoint {
        dim,
        pairs,
        accuracy: correct as f64 / total as f64,
        retrievals_per_sec: total as f64 / retrieval_time.as_secs_f64().max(1e-9),
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
        "{:>7} {:>6} {:>9} {:>14}",
        "dim", "pairs", "accuracy", "retrievals/s"
    );
    for &dim in dims {
        for &pairs in sweep {
            let point = measure(dim, pairs, trials, &mut rng);
            println!(
                "{:>7} {:>6} {:>8.1}% {:>14.0}",
                point.dim,
                point.pairs,
                point.accuracy * 100.0,
                point.retrievals_per_sec
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
            "\n    {{\"dim\": {}, \"pairs\": {}, \"accuracy\": {:.4}, \"retrievals_per_sec\": {:.0}}}{sep}",
            p.dim, p.pairs, p.accuracy, p.retrievals_per_sec
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

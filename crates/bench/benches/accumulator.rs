//! Criterion micro-benchmarks for the bundling and binarization layers
//! at the paper geometry (H = 784 masks per image, D ∈ {1k, 2k, 8k}):
//! the bit-sliced accumulator fed a block at a time (`add_masks`, the
//! encoders' path) and one mask at a time (`bit_slice`), against the
//! naive dense accumulator; then its binarization and bipolar-sum
//! readouts, and the online learner's per-sample step: one request's
//! counts merged into a class counter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uhd_core::accumulator::{BitSliceAccumulator, DenseAccumulator};
use uhd_core::hypervector::words_for_dim;
use uhd_lowdisc::rng::Xoshiro256StarStar;

/// Masks bundled per image: the 28×28 pixels of the paper's MNIST.
const H: usize = 784;

/// The hypervector dimensions ROADMAP aim 1 asks per-layer numbers at.
const DIMS: [u32; 3] = [1024, 2048, 8192];

fn masks(dim: u32, count: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = Xoshiro256StarStar::seeded(seed);
    let wc = words_for_dim(dim);
    (0..count)
        .map(|_| {
            let mut m: Vec<u64> = (0..wc).map(|_| rng.next_u64()).collect();
            let rem = dim % 64;
            if rem != 0 {
                *m.last_mut().unwrap() &= (1u64 << rem) - 1;
            }
            m
        })
        .collect()
}

/// An accumulator holding one image's worth of random masks.
fn filled(dim: u32, seed: u64) -> BitSliceAccumulator {
    let ms = masks(dim, H, seed);
    let rows: Vec<&[u64]> = ms.iter().map(Vec::as_slice).collect();
    let mut acc = BitSliceAccumulator::new(dim);
    acc.add_masks(&rows);
    acc
}

fn bench_accumulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("bundle_784_masks");
    group.sample_size(20);
    for d in DIMS {
        let ms = masks(d, H, 3);
        let rows: Vec<&[u64]> = ms.iter().map(Vec::as_slice).collect();
        let mut acc = BitSliceAccumulator::new(d);
        group.bench_with_input(BenchmarkId::new("add_masks", d), &d, |b, _| {
            b.iter(|| {
                acc.clear();
                acc.add_masks(black_box(&rows));
                black_box(acc.total())
            });
        });
        group.bench_with_input(BenchmarkId::new("bit_slice", d), &d, |b, _| {
            b.iter(|| {
                acc.clear();
                for m in &ms {
                    acc.add_mask(black_box(m));
                }
                black_box(acc.total())
            });
        });
        group.bench_with_input(BenchmarkId::new("dense", d), &d, |b, &d| {
            b.iter(|| {
                let mut acc = DenseAccumulator::new(d);
                for m in &ms {
                    acc.add_mask(black_box(m));
                }
                black_box(acc.total())
            });
        });
    }
    group.finish();
}

fn bench_readouts(c: &mut Criterion) {
    let mut binarize = c.benchmark_group("binarize");
    for d in DIMS {
        let acc = filled(d, 4);
        binarize.bench_with_input(BenchmarkId::new("bit_slice", d), &d, |b, _| {
            b.iter(|| black_box(acc.binarize()));
        });
    }
    binarize.finish();
    let mut sums = c.benchmark_group("bipolar_sums");
    for d in DIMS {
        let acc = filled(d, 5);
        sums.bench_with_input(BenchmarkId::new("bit_slice", d), &d, |b, _| {
            b.iter(|| black_box(acc.bipolar_sums()));
        });
    }
    sums.finish();
    // The online learner merges each request's counts into its class's
    // pending counter and reads the sums out once per snapshot. The
    // counter holds 2^15 to 2^16 − 1 masks, so it stays at 16 planes;
    // it is reset before it would widen.
    let mut merge = c.benchmark_group("merge_request");
    for d in DIMS {
        let request = filled(d, 6);
        let mut base = BitSliceAccumulator::new(d);
        while base.total() < 1 << 15 {
            base.merge(&request).unwrap();
        }
        assert_eq!(base.planes(), 16);
        let mut class = base.clone();
        merge.bench_with_input(BenchmarkId::new("into_16_planes", d), &d, |b, _| {
            b.iter(|| {
                if class.total() + request.total() >= 1 << 16 {
                    class.clone_from(&base);
                }
                class.merge(black_box(&request)).unwrap();
                black_box(class.total())
            });
        });
    }
    merge.finish();
}

criterion_group!(benches, bench_accumulators, bench_readouts);
criterion_main!(benches);

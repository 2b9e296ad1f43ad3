//! Criterion micro-benchmarks: image→hypervector encoding throughput of
//! the uHD and baseline pipelines (the software counterpart of the
//! paper's runtime comparison in Table I).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uhd_core::accumulator::BitSliceAccumulator;
use uhd_core::encoder::baseline::{BaselineConfig, BaselineEncoder};
use uhd_core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd_core::Encoder;
use uhd_datasets::synth::generate;
use uhd_datasets::{SynthSpec, SyntheticKind};
use uhd_lowdisc::rng::Xoshiro256StarStar;

/// The all-lit worst case: `(i·37) mod 256` leaves about 3 % of the
/// pixels at level 0, so uHD bundles nearly every delta row.
fn test_image(pixels: usize) -> Vec<u8> {
    (0..pixels).map(|i| ((i * 37) % 256) as u8).collect()
}

/// The served case: a synthetic-MNIST digit, about 80 % dark, so uHD
/// bundles about one delta row in five on top of the dark bundle.
fn mnist_image() -> Vec<u8> {
    let (_, test) = generate(SynthSpec::new(SyntheticKind::Mnist, 10, 10, 1)).unwrap();
    test.images()[0].clone()
}

fn bench_encoding(c: &mut Criterion) {
    let pixels = 28 * 28;
    let image = test_image(pixels);
    let mnist = mnist_image();
    assert_eq!(mnist.len(), pixels);
    let mut group = c.benchmark_group("encode_image");
    group.sample_size(20);
    for d in [1024u32, 8192] {
        let uhd = UhdEncoder::new(UhdConfig::new(d, pixels)).unwrap();
        for (name, input) in [("uhd_mnist", &mnist), ("uhd", &image)] {
            group.bench_with_input(BenchmarkId::new(name, d), &d, |b, _| {
                b.iter(|| {
                    let mut acc = BitSliceAccumulator::new(d);
                    uhd.accumulate(black_box(input), &mut acc).unwrap();
                    black_box(acc.total())
                });
            });
        }
        let mut rng = Xoshiro256StarStar::seeded(1);
        let base = BaselineEncoder::new(BaselineConfig::paper(d, pixels), &mut rng).unwrap();
        group.bench_with_input(BenchmarkId::new("baseline", d), &d, |b, _| {
            b.iter(|| {
                let mut acc = BitSliceAccumulator::new(d);
                base.accumulate(black_box(&image), &mut acc).unwrap();
                black_box(acc.total())
            });
        });
    }
    group.finish();
}

fn bench_encoder_construction(c: &mut Criterion) {
    let pixels = 28 * 28;
    let mut group = c.benchmark_group("build_encoder");
    group.sample_size(10);
    group.bench_function("uhd_d1024", |b| {
        b.iter(|| black_box(UhdEncoder::new(UhdConfig::new(1024, pixels)).unwrap()));
    });
    group.bench_function("baseline_d1024", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seeded(1);
            black_box(BaselineEncoder::new(BaselineConfig::paper(1024, pixels), &mut rng).unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_encoding, bench_encoder_construction);
criterion_main!(benches);

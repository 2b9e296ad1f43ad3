//! Shared experiment harness for the uHD benchmark binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it; this library carries the pieces they
//! share: environment-tunable experiment sizing, dataset/encoder
//! construction, accuracy measurement, and the literature constants the
//! paper itself quotes (Table III rows, Fig. 6(b) points).

#![warn(missing_docs)]

pub mod json;
pub mod report;

pub use report::{
    bench_dir, env_flag, machine_json, median, repeat_passes, repo_root, write_bench_json,
    Latencies, Repeated, MIN_PASSES, PASS_SPAN,
};

use uhd_core::encoder::baseline::{BaselineConfig, BaselineEncoder};
use uhd_core::encoder::tabular::{TabularConfig, TabularEncoder};
use uhd_core::encoder::text::{NgramTextConfig, NgramTextEncoder};
use uhd_core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd_core::model::{HdcModel, InferenceMode, LabelledSamples};
use uhd_core::Encoder;
use uhd_datasets::image::Dataset;
use uhd_datasets::synth::{generate, SynthSpec, SyntheticKind};
use uhd_lowdisc::rng::Xoshiro256StarStar;

/// Experiment sizing, overridable from the environment
/// (`UHD_TRAIN_N`, `UHD_TEST_N`, `UHD_ITERS`, `UHD_SEED`).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Training images per dataset.
    pub train_n: usize,
    /// Test images per dataset.
    pub test_n: usize,
    /// Baseline regeneration iterations for Table IV / Fig. 6(a).
    pub iterations: usize,
    /// Master dataset seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl ExperimentConfig {
    /// Defaults sized for a laptop-scale run; the paper's full protocol
    /// (60 k MNIST, i = 100) is reproduced by raising the environment
    /// variables.
    #[must_use]
    pub fn from_env() -> Self {
        let get = |name: &str, default: usize| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        ExperimentConfig {
            train_n: get("UHD_TRAIN_N", 3000),
            test_n: get("UHD_TEST_N", 1000),
            iterations: get("UHD_ITERS", 12),
            seed: get("UHD_SEED", 42) as u64,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
    }
}

/// A dataset pair plus its geometry, ready for encoding.
#[derive(Debug, Clone)]
pub struct Workbench {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
}

impl Workbench {
    /// Generate the synthetic analogue of `kind` at the configured size.
    ///
    /// # Panics
    ///
    /// Panics when the configuration cannot cover all classes (the
    /// binaries treat that as a fatal usage error).
    #[must_use]
    pub fn new(kind: SyntheticKind, cfg: &ExperimentConfig) -> Self {
        let (train, test) = generate(SynthSpec::new(kind, cfg.train_n, cfg.test_n, cfg.seed))
            .expect("dataset generation failed");
        Workbench { train, test }
    }

    /// Labelled view of the training split.
    #[must_use]
    pub fn train_data(&self) -> LabelledSamples<'_> {
        LabelledSamples::new(self.train.images(), self.train.labels())
            .expect("train split is valid by construction")
    }

    /// Labelled view of the test split.
    #[must_use]
    pub fn test_data(&self) -> LabelledSamples<'_> {
        LabelledSamples::new(self.test.images(), self.test.labels())
            .expect("test split is valid by construction")
    }
}

/// Train and evaluate an encoder; returns test accuracy in [0, 1].
///
/// # Panics
///
/// Panics on encoder/model errors (fatal in a bench binary).
#[must_use]
pub fn accuracy<E: Encoder + ?Sized>(
    encoder: &E,
    bench: &Workbench,
    cfg: &ExperimentConfig,
) -> f64 {
    accuracy_on(
        encoder,
        bench.train_data(),
        bench.test_data(),
        bench.train.classes(),
        cfg.threads,
    )
}

/// Train on one labelled split and evaluate on another — the
/// workload-agnostic core [`accuracy`] wraps for image benches, usable
/// directly for text/tabular feature streams.
///
/// # Panics
///
/// Panics on encoder/model errors (fatal in a bench binary).
#[must_use]
pub fn accuracy_on<E: Encoder + ?Sized>(
    encoder: &E,
    train: LabelledSamples<'_>,
    test: LabelledSamples<'_>,
    classes: usize,
    threads: usize,
) -> f64 {
    let model =
        HdcModel::train_parallel(encoder, train, classes, threads).expect("training failed");
    model
        .evaluate_parallel_with(encoder, test, threads, InferenceMode::IntegerBoth)
        .expect("evaluation failed")
}

/// Build the paper-default uHD encoder for a dataset geometry.
///
/// Set `UHD_REMAT=1` to host the threshold planes on the rematerialized
/// item-memory backend (bit-identical answers, O(seed) resident state)
/// instead of the materialized default.
///
/// # Panics
///
/// Panics if the encoder cannot be constructed (fatal in a bench).
#[must_use]
pub fn uhd_encoder(d: u32, pixels: usize) -> UhdEncoder {
    let mut config = UhdConfig::new(d, pixels);
    if env_flag("UHD_REMAT") {
        config = config.rematerialized();
    }
    UhdEncoder::new(config).expect("uhd encoder construction failed")
}

/// Build the paper-literal baseline encoder from an iteration seed.
///
/// # Panics
///
/// Panics if the encoder cannot be constructed (fatal in a bench).
#[must_use]
pub fn baseline_encoder(d: u32, pixels: usize, seed: u64) -> BaselineEncoder {
    let mut rng = Xoshiro256StarStar::seeded(seed);
    BaselineEncoder::new(BaselineConfig::paper(d, pixels), &mut rng)
        .expect("baseline encoder construction failed")
}

/// Build the default tri-gram text encoder for the language-ID bench.
///
/// # Panics
///
/// Panics if the encoder cannot be constructed (fatal in a bench).
#[must_use]
pub fn text_encoder(d: u32, max_len: usize) -> NgramTextEncoder {
    let mut cfg = NgramTextConfig::new(d);
    cfg.max_len = max_len;
    NgramTextEncoder::new(cfg).expect("text encoder construction failed")
}

/// Build the default record encoder for the sensor-row bench.
///
/// # Panics
///
/// Panics if the encoder cannot be constructed (fatal in a bench).
#[must_use]
pub fn tabular_encoder(d: u32, columns: usize) -> TabularEncoder {
    TabularEncoder::new(TabularConfig::new(d, columns))
        .expect("tabular encoder construction failed")
}

/// Literature rows of Table III: `(framework, platform, efficiency ×)`.
///
/// These are published survey numbers the paper itself reproduces as
/// constants; only the "This work" row is computed by our models.
pub const SOTA_EFFICIENCY: [(&str, &str, f64); 7] = [
    ("Semi-HD", "Raspberry Pi", 12.60),
    ("Voice-HD", "Central Processing Unit", 11.90),
    ("tiny-HD", "Microprocessor", 11.20),
    ("PULP-HD", "ARM Microprocessor", 9.9),
    ("Hierarchical-MHD", "Central Processing Unit", 6.60),
    ("AdaptHD", "Raspberry Pi", 6.30),
    ("Laelaps", "Central Processing Unit", 1.40),
];

/// Prior-art MNIST accuracy points of Fig. 6(b):
/// `(reference, accuracy %, D, retrained?)`.
pub const FIG6B_PRIOR_ART: [(&str, f64, u32, bool); 4] = [
    ("Datta et al. [4]", 75.40, 2048, false),
    ("Hassan et al. [19]", 86.00, 10_240, false),
    ("FL-HDC [28]", 87.38, 10_240, true),
    ("QuantHD/LDC [9,29]", 88.00, 10_240, true),
];

/// Paper Table IV reference values: `(D, baseline i=1 %, uHD %)`.
pub const PAPER_TABLE4: [(u32, f64, f64); 3] = [
    (1024, 82.93, 84.44),
    (2048, 86.24, 87.04),
    (8192, 88.30, 88.41),
];

/// Paper Table V reference values:
/// `(dataset, [ours/baseline % at D = 1K, 2K, 8K])`.
pub const PAPER_TABLE5: [(&str, [(f64, f64); 3]); 5] = [
    ("CIFAR-10", [(39.29, 38.21), (40.28, 40.26), (41.97, 41.71)]),
    (
        "BloodMNIST",
        [(53.05, 48.52), (55.86, 51.20), (57.88, 51.82)],
    ),
    (
        "BreastMNIST",
        [(68.59, 68.47), (69.23, 69.11), (71.15, 70.93)],
    ),
    (
        "FashionMNIST",
        [(68.60, 54.19), (70.06, 69.97), (71.37, 70.87)],
    ),
    ("SVHN", [(60.29, 60.06), (61.73, 61.24), (62.87, 62.82)]),
];

/// The D values every hardware and accuracy table sweeps.
pub const TABLE_DIMENSIONS: [u32; 3] = [1024, 2048, 8192];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_reads_defaults() {
        let cfg = ExperimentConfig::from_env();
        assert!(cfg.train_n >= cfg.test_n.min(1));
        assert!(cfg.threads >= 1);
    }

    #[test]
    fn tiny_experiment_runs_end_to_end() {
        let cfg = ExperimentConfig {
            train_n: 60,
            test_n: 30,
            iterations: 1,
            seed: 1,
            threads: 2,
        };
        let bench = Workbench::new(SyntheticKind::Mnist, &cfg);
        let enc = uhd_encoder(256, bench.train.pixels());
        let acc = accuracy(&enc, &bench, &cfg);
        assert!((0.0..=1.0).contains(&acc));
        let base = baseline_encoder(256, bench.train.pixels(), 3);
        let acc_b = accuracy(&base, &bench, &cfg);
        assert!((0.0..=1.0).contains(&acc_b));
    }

    #[test]
    fn feature_stream_benches_run_end_to_end() {
        let (train, test) =
            uhd_datasets::generate_language_id(uhd_datasets::TextSpec::new(18, 6, 7)).unwrap();
        let tr = LabelledSamples::new(train.samples(), train.labels()).unwrap();
        let te = LabelledSamples::new(test.samples(), test.labels()).unwrap();
        let enc = text_encoder(1024, train.max_sample_len());
        let acc = accuracy_on(&enc, tr, te, train.classes(), 2);
        assert!((0.0..=1.0).contains(&acc));

        let (rows_tr, rows_te) =
            uhd_datasets::generate_sensor_rows(uhd_datasets::SensorSpec::new(18, 6, 7)).unwrap();
        let tr = LabelledSamples::new(rows_tr.samples(), rows_tr.labels()).unwrap();
        let te = LabelledSamples::new(rows_te.samples(), rows_te.labels()).unwrap();
        let enc = tabular_encoder(1024, rows_tr.max_sample_len());
        let acc = accuracy_on(&enc, tr, te, rows_tr.classes(), 2);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn reference_tables_have_expected_shapes() {
        for (d, base, ours) in PAPER_TABLE4 {
            assert!(d >= 1024);
            assert!(ours >= base, "paper's uHD wins at D={d}");
        }
        assert_eq!(SOTA_EFFICIENCY.len(), 7);
        assert!(SOTA_EFFICIENCY.iter().all(|&(_, _, e)| e > 1.0));
    }
}

//! Integration suite for the workload-agnostic encoder layer: text and
//! tabular feature streams through the *same* `ModelRegistry` +
//! `OnlineLearner` stack as images — including trait-object encoders,
//! hot model swap, eager length validation, and counter reconciliation.

use std::sync::Arc;
use uhd::core::encoder::tabular::{TabularConfig, TabularEncoder};
use uhd::core::encoder::text::{NgramTextConfig, NgramTextEncoder};
use uhd::core::model::{HdcModel, InferenceMode, LabelledSamples};
use uhd::core::{Encoder, HdcError};
use uhd::datasets::{generate_language_id, generate_sensor_rows, SensorSpec, TextSpec};
use uhd::serve::{ModelRegistry, ServeConfig, ServeError};
use uhd_testutil::tiny_labelled_features;

fn text_fixture(dim: u32) -> (NgramTextEncoder, HdcModel, uhd::datasets::FeatureSet) {
    let spec = TextSpec::new(180, 60, 42);
    let (train, test) = generate_language_id(spec).expect("generate");
    let mut cfg = NgramTextConfig::new(dim);
    cfg.max_len = spec.max_len;
    let encoder = NgramTextEncoder::new(cfg).unwrap();
    let model = HdcModel::train(&encoder, tiny_labelled_features(&train), train.classes()).unwrap();
    (encoder, model, test)
}

fn tabular_fixture(dim: u32) -> (TabularEncoder, HdcModel, uhd::datasets::FeatureSet) {
    let (train, test) = generate_sensor_rows(SensorSpec::new(180, 60, 42)).expect("generate");
    let encoder = TabularEncoder::new(TabularConfig::new(dim, train.max_sample_len())).unwrap();
    let model = HdcModel::train(&encoder, tiny_labelled_features(&train), train.classes()).unwrap();
    (encoder, model, test)
}

/// A registry serving `model` through `encoder` as its only tenant, `t`.
fn one_tenant(config: ServeConfig, encoder: Arc<dyn Encoder>, model: HdcModel) -> ModelRegistry {
    let registry = ModelRegistry::start(config).unwrap();
    registry.register("t", encoder, model).unwrap();
    registry
}

fn served_accuracy(
    registry: &ModelRegistry,
    tenant: &str,
    samples: &[Vec<u8>],
    labels: &[usize],
) -> f64 {
    let responses = registry.classify_many(tenant, samples).unwrap();
    let hits = responses
        .iter()
        .zip(labels)
        .filter(|(r, &label)| r.class == label)
        .count();
    hits as f64 / labels.len() as f64
}

/// Acceptance: both non-image workloads serve end-to-end through a
/// one-tenant registry — batched answers bit-identical to the serial
/// binarized path, counters reconciling — with zero workload-specific
/// serving code (the same `ModelRegistry` serves all three families).
#[test]
fn text_and_tabular_streams_serve_bit_identically_to_the_serial_path() {
    let (text_enc, text_model, sentences) = text_fixture(1024);
    let (tab_enc, tab_model, rows) = tabular_fixture(1024);

    // Text through the registry vs the serial loop.
    let serial: Vec<(usize, f64)> = sentences
        .samples()
        .iter()
        .map(|s| {
            text_model
                .classify_with(&text_enc, s, InferenceMode::BinarizedQuery)
                .unwrap()
        })
        .collect();
    let registry = one_tenant(ServeConfig::new(2, 8), Arc::new(text_enc), text_model);
    let responses = registry.classify_many("t", sentences.samples()).unwrap();
    let stats = registry.stats();
    for (response, expected) in responses.iter().zip(&serial) {
        assert_eq!(response.class, expected.0);
        assert_eq!(response.score.to_bits(), expected.1.to_bits());
    }
    assert_eq!(stats.submitted, sentences.len() as u64);
    assert_eq!(stats.completed, sentences.len() as u64);

    // Tabular through the registry vs the serial loop.
    let serial: Vec<(usize, f64)> = rows
        .samples()
        .iter()
        .map(|r| {
            tab_model
                .classify_with(&tab_enc, r, InferenceMode::BinarizedQuery)
                .unwrap()
        })
        .collect();
    let registry = one_tenant(ServeConfig::new(3, 4), Arc::new(tab_enc), tab_model);
    let responses = registry.classify_many("t", rows.samples()).unwrap();
    let stats = registry.stats();
    for (response, expected) in responses.iter().zip(&serial) {
        assert_eq!(response.class, expected.0);
        assert_eq!(response.score.to_bits(), expected.1.to_bits());
    }
    assert_eq!(stats.completed, rows.len() as u64);
}

/// Trait-object encoders (`Arc<dyn Encoder>`) of *different concrete
/// types* drive one registry's shared pool through one code path — the
/// registry is not specialized to any workload.
#[test]
fn dyn_encoder_trait_objects_serve_every_workload() {
    let (text_enc, text_model, sentences) = text_fixture(512);
    let (tab_enc, tab_model, rows) = tabular_fixture(512);

    type Case<'a> = (
        &'a str,
        Arc<dyn Encoder>,
        HdcModel,
        &'a [Vec<u8>],
        &'a [usize],
    );
    let cases: Vec<Case> = vec![
        (
            "text",
            Arc::new(text_enc),
            text_model,
            sentences.samples(),
            sentences.labels(),
        ),
        (
            "tabular",
            Arc::new(tab_enc),
            tab_model,
            rows.samples(),
            rows.labels(),
        ),
    ];
    let registry = ModelRegistry::start(ServeConfig::new(2, 8)).unwrap();
    for (name, encoder, model, samples, labels) in cases {
        registry.register(name, encoder, model).unwrap();
        let acc = served_accuracy(&registry, name, samples, labels);
        assert!(
            acc > 1.5 / 6.0,
            "dyn-encoder serving must beat chance, got {acc}"
        );
    }
}

/// Submit-time validation is eager and encoder-driven: the registry asks
/// the encoder (`check_features`), so a variable-length text encoder
/// rejects out-of-range sentences with `FeatureCountOutOfRange` while
/// the fixed-shape tabular encoder rejects with the exact-length error
/// — no length policy lives in `uhd-serve`.
#[test]
fn submit_validation_is_delegated_to_the_encoder() {
    let (text_enc, text_model, _) = text_fixture(512);
    let max_len = text_enc.config().max_len;
    let registry = one_tenant(ServeConfig::new(1, 4), Arc::new(text_enc), text_model);
    // In-range lengths are accepted even though they differ.
    assert!(registry.classify("t", &[b'a'; 10]).is_ok());
    assert!(registry.classify("t", &vec![b'b'; max_len]).is_ok());
    // Too short and too long are rejected before queueing.
    match registry.submit("t", vec![b'a'; 2]) {
        Err(ServeError::Core(HdcError::FeatureCountOutOfRange { got: 2, .. })) => {}
        other => panic!("expected FeatureCountOutOfRange, got {other:?}"),
    }
    match registry.submit("t", vec![b'a'; max_len + 1]) {
        Err(ServeError::Core(HdcError::FeatureCountOutOfRange { .. })) => {}
        other => panic!("expected FeatureCountOutOfRange, got {other:?}"),
    }

    let (tab_enc, tab_model, rows) = tabular_fixture(512);
    let columns = rows.max_sample_len();
    let registry = one_tenant(ServeConfig::new(1, 4), Arc::new(tab_enc), tab_model);
    assert!(registry.classify("t", &vec![128u8; columns]).is_ok());
    match registry.submit("t", vec![128u8; columns - 1]) {
        Err(ServeError::Core(HdcError::ImageSizeMismatch { expected, got })) => {
            assert_eq!((expected, got), (columns, columns - 1));
        }
        other => panic!("expected exact-length mismatch, got {other:?}"),
    }
}

/// Hot model swap under a non-image workload: a weak tabular model is
/// replaced mid-flight by a strong one through the generation-tagged
/// swap, and served accuracy does not regress.
#[test]
fn hot_swap_improves_a_served_tabular_model() {
    let (train, test) = generate_sensor_rows(SensorSpec::new(240, 60, 7)).expect("generate");
    let encoder = TabularEncoder::new(TabularConfig::new(1024, train.max_sample_len())).unwrap();
    // Weak model: exactly two rows per class (the shuffled prefix may
    // miss a class entirely, which training rightly rejects).
    let picks: Vec<usize> = (0..train.classes())
        .flat_map(|class| {
            train
                .labels()
                .iter()
                .enumerate()
                .filter(move |&(_, &l)| l == class)
                .take(2)
                .map(|(i, _)| i)
        })
        .collect();
    let weak_samples: Vec<Vec<u8>> = picks.iter().map(|&i| train.samples()[i].clone()).collect();
    let weak_labels: Vec<usize> = picks.iter().map(|&i| train.labels()[i]).collect();
    let weak_view = LabelledSamples::new(&weak_samples, &weak_labels).unwrap();
    let weak = HdcModel::train(&encoder, weak_view, train.classes()).unwrap();
    let strong =
        HdcModel::train(&encoder, tiny_labelled_features(&train), train.classes()).unwrap();

    let registry = one_tenant(ServeConfig::new(2, 8), Arc::new(encoder), weak);
    assert_eq!(registry.generation("t").unwrap(), 0);
    let before = served_accuracy(&registry, "t", test.samples(), test.labels());
    let generation = registry.update_model("t", strong).unwrap();
    assert_eq!(generation, 1);
    let after = served_accuracy(&registry, "t", test.samples(), test.labels());
    assert!(
        after >= before,
        "hot-swapped strong model must not serve worse ({before} -> {after})"
    );
    let stats = registry.stats();
    assert_eq!(stats.completed, 2 * test.len() as u64);
    assert_eq!(stats.submitted, stats.completed);
}

/// Online learning converges a cold *tabular* model while it serves —
/// the mirror of the text case in `online_learning.rs`, proving the
/// serve-while-learn loop is workload-agnostic too.
#[test]
fn serve_while_learn_improves_a_tabular_model() {
    use uhd::core::OnlineLearner;

    let dim = 1024u32;
    let (train, test) = generate_sensor_rows(SensorSpec::new(240, 60, 42)).expect("generate");
    let encoder = TabularEncoder::new(TabularConfig::new(dim, train.max_sample_len())).unwrap();

    // Cold start: one row per class.
    let mut boot = OnlineLearner::new(dim).unwrap();
    let mut scratch = uhd::core::BitSliceAccumulator::new(dim);
    for (row, &label) in train.samples()[..6].iter().zip(&train.labels()[..6]) {
        scratch.clear();
        encoder.accumulate(row, &mut scratch).unwrap();
        boot.observe_sums(&scratch.bipolar_sums(), label).unwrap();
    }

    let config = ServeConfig::new(2, 8)
        .with_mode(InferenceMode::IntegerBoth)
        .with_snapshot_every(32);
    let registry = one_tenant(config, Arc::new(encoder), boot.snapshot().unwrap());
    let acc_cold = served_accuracy(&registry, "t", test.samples(), test.labels());
    for (row, &label) in train.samples().iter().zip(train.labels()) {
        registry.learn("t", row, label).unwrap();
    }
    registry.publish("t").unwrap();

    let stats = registry.stats();
    assert_eq!(stats.learn_submitted, train.len() as u64);
    assert_eq!(stats.learn_updates, stats.learn_submitted);
    assert_eq!(stats.learn_rejected, 0);
    assert!(stats.snapshots_published >= 1);

    let acc_warm = served_accuracy(&registry, "t", test.samples(), test.labels());
    assert!(
        acc_warm >= acc_cold,
        "tabular serve-while-learn must not regress ({acc_cold} -> {acc_warm})"
    );
    assert!(
        acc_warm >= 0.85,
        "warm tabular accuracy {acc_warm} below threshold"
    );
}

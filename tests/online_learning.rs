//! Integration suite for the online-learning subsystem: a cold-start
//! model converging while a one-tenant registry serves traffic,
//! runtime class admission mid-stream, and learner state surviving
//! byte round-trips.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::{HdcModel, InferenceMode};
use uhd::core::{Encoder, OnlineLearner};
use uhd::datasets::synth::{generate, SynthSpec, SyntheticKind};
use uhd::serve::{ModelRegistry, ServeConfig};
use uhd_testutil::SumsLearner;

/// Acceptance: a cold model (bootstrapped from a handful of stream
/// samples) is served by the registry while labelled feedback pours
/// in; after snapshot hot-swaps its accuracy strictly improves and
/// crosses a fixed threshold, with the learn counters reconciling and
/// every concurrently served response well-formed.
#[test]
fn serve_while_learn_strictly_improves_accuracy() {
    let dim = 1024u32;
    let (train, test) =
        generate(SynthSpec::new(SyntheticKind::Mnist, 500, 150, 42)).expect("generate");
    let encoder = UhdEncoder::new(UhdConfig::new(dim, train.pixels())).unwrap();

    // Cold start: the learner has only seen the first 20 samples of
    // the stream — most classes are missing or undertrained.
    let mut boot = OnlineLearner::new(dim).unwrap();
    let mut scratch = uhd::core::BitSliceAccumulator::new(dim);
    for (image, &label) in train.images()[..20].iter().zip(&train.labels()[..20]) {
        scratch.clear();
        encoder.accumulate(image, &mut scratch).unwrap();
        boot.observe_sums(&scratch.bipolar_sums(), label).unwrap();
    }
    let cold = boot.snapshot().unwrap();
    assert!(cold.classes() <= train.classes());

    let config = ServeConfig::new(2, 8)
        .with_mode(InferenceMode::IntegerBoth)
        .with_snapshot_every(64);
    let accuracy_threshold = 0.55;

    let registry = ModelRegistry::start(config).unwrap();
    registry.register("t", Arc::new(encoder), cold).unwrap();
    let accuracy = || {
        let responses = registry.classify_many("t", test.images()).unwrap();
        let hits = responses
            .iter()
            .zip(test.labels())
            .filter(|(r, &label)| r.class == label)
            .count();
        hits as f64 / test.len() as f64
    };
    let acc_cold = accuracy();

    // Classify traffic hammers the registry for the whole learning
    // phase; every answer must be well-formed no matter how many
    // snapshots land mid-flight.
    let stop = AtomicBool::new(false);
    let classes = train.classes();
    std::thread::scope(|scope| {
        let (stop, test, registry) = (&stop, &test, &registry);
        let prober = scope.spawn(move || {
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for image in test.images().iter().take(16) {
                    let response = registry
                        .classify("t", image)
                        .expect("serving must not fail");
                    assert!(response.class < classes);
                    served += 1;
                }
            }
            served
        });

        // Phase 1: bundle the full labelled stream.
        for (image, &label) in train.images().iter().zip(train.labels()) {
            registry.learn("t", image, label).unwrap();
        }
        // Phase 2: a feedback pass driven by the registry's own
        // (possibly stale-generation) predictions.
        for (image, &label) in train.images().iter().zip(train.labels()) {
            let response = registry.classify("t", image).unwrap();
            registry
                .feedback("t", image, response.class, label)
                .unwrap();
        }
        // Serve everything learned since the last cadence publish.
        registry.publish("t").unwrap();
        stop.store(true, Ordering::Relaxed);
        let served = prober.join().expect("prober panicked");
        assert!(served > 0, "the concurrent classify load must have run");
    });

    let stats = registry.stats();
    assert_eq!(stats.learn_submitted, 2 * train.len() as u64);
    assert!(
        stats.learn_updates >= train.len() as u64,
        "every observation must be applied"
    );
    assert_eq!(stats.learn_rejected, 0);
    assert!(
        stats.snapshots_published >= 1,
        "learning must have hot-published at least one snapshot"
    );
    assert!(registry.generation("t").unwrap() >= 1);

    let acc_warm = accuracy();
    assert!(
        acc_warm > acc_cold,
        "serve-while-learn must strictly improve accuracy ({acc_cold} -> {acc_warm})"
    );
    assert!(
        acc_warm >= accuracy_threshold,
        "warm accuracy {acc_warm} below threshold {accuracy_threshold}"
    );
}

/// The same serve-while-learn acceptance on a *text* stream: the n-gram
/// encoder drives the identical registry code path, a cold language-ID
/// model converges from labelled sentence feedback, accuracy strictly
/// improves past a fixed threshold, and the learn counters reconcile.
#[test]
fn serve_while_learn_improves_language_id_accuracy() {
    use uhd::core::encoder::text::{NgramTextConfig, NgramTextEncoder};
    use uhd::datasets::{generate_language_id, TextSpec};

    let dim = 1024u32;
    let spec = TextSpec::new(240, 60, 42);
    let (train, test) = generate_language_id(spec).expect("generate");
    let mut text_cfg = NgramTextConfig::new(dim);
    text_cfg.max_len = spec.max_len;
    let encoder = NgramTextEncoder::new(text_cfg).unwrap();

    // Cold start: one sentence per language.
    let mut boot = OnlineLearner::new(dim).unwrap();
    let mut scratch = uhd::core::BitSliceAccumulator::new(dim);
    for (sentence, &label) in train.samples()[..6].iter().zip(&train.labels()[..6]) {
        scratch.clear();
        encoder.accumulate(sentence, &mut scratch).unwrap();
        boot.observe_sums(&scratch.bipolar_sums(), label).unwrap();
    }

    let config = ServeConfig::new(2, 8)
        .with_mode(InferenceMode::IntegerBoth)
        .with_snapshot_every(32);
    let accuracy_threshold = 0.85;

    let registry = ModelRegistry::start(config).unwrap();
    registry
        .register("t", Arc::new(encoder), boot.snapshot().unwrap())
        .unwrap();
    let accuracy = || {
        let responses = registry.classify_many("t", test.samples()).unwrap();
        let hits = responses
            .iter()
            .zip(test.labels())
            .filter(|(r, &label)| r.class == label)
            .count();
        hits as f64 / test.len() as f64
    };
    let acc_cold = accuracy();

    // Phase 1: bundle the full labelled sentence stream.
    for (sentence, &label) in train.samples().iter().zip(train.labels()) {
        registry.learn("t", sentence, label).unwrap();
    }
    // Phase 2: feedback driven by the registry's own predictions.
    for (sentence, &label) in train.samples().iter().zip(train.labels()) {
        let response = registry.classify("t", sentence).unwrap();
        registry
            .feedback("t", sentence, response.class, label)
            .unwrap();
    }
    registry.publish("t").unwrap();

    let stats = registry.stats();
    assert_eq!(stats.learn_submitted, 2 * train.len() as u64);
    assert!(
        stats.learn_updates >= train.len() as u64,
        "every observed sentence must be applied"
    );
    assert_eq!(stats.learn_rejected, 0);
    assert!(stats.snapshots_published >= 1);
    assert!(registry.generation("t").unwrap() >= 1);

    let acc_warm = accuracy();
    assert!(
        acc_warm > acc_cold,
        "text serve-while-learn must strictly improve accuracy ({acc_cold} -> {acc_warm})"
    );
    assert!(
        acc_warm >= accuracy_threshold,
        "warm language-ID accuracy {acc_warm} below threshold {accuracy_threshold}"
    );
}

/// A label the initial model never saw admits a new class mid-stream:
/// once the learner's snapshot is published, the registry answers with
/// the new class index.
#[test]
fn new_classes_are_admitted_mid_stream() {
    const PIXELS: usize = 16;
    let dim = 512u32;
    let encoder = UhdEncoder::new(UhdConfig::new(dim, PIXELS)).unwrap();
    let flat = |v: u8| vec![v; PIXELS];

    // Two-class model: dark vs bright, bundled in the same integer
    // domain the registry's learner uses.
    let mut boot = OnlineLearner::new(dim).unwrap();
    let mut scratch = uhd::core::BitSliceAccumulator::new(dim);
    let mut observe = |learner: &mut OnlineLearner, image: &[u8], label: usize| {
        scratch.clear();
        encoder.accumulate(image, &mut scratch).unwrap();
        learner
            .observe_sums(&scratch.bipolar_sums(), label)
            .unwrap();
    };
    for i in 0..10u8 {
        observe(&mut boot, &flat(15 + i), 0);
        observe(&mut boot, &flat(230 + (i % 10)), 1);
    }
    let model = boot.snapshot().unwrap();
    assert_eq!(model.classes(), 2);

    let config = ServeConfig::new(2, 4).with_mode(InferenceMode::IntegerBoth);
    let registry = ModelRegistry::start(config).unwrap();
    registry.register("t", Arc::new(encoder), model).unwrap();
    // Before learning, a mid-gray image can only land on 0 or 1.
    let before = registry.classify("t", &flat(120)).unwrap();
    assert!(before.class < 2);

    // Stream a third class of mid-gray samples.
    for i in 0..12u8 {
        registry.learn("t", &flat(114 + i), 2).unwrap();
    }
    registry.publish("t").unwrap();

    let stats = registry.stats();
    assert_eq!(stats.learn_updates, 12);
    assert!(stats.snapshots_published >= 1);
    let after = registry.classify("t", &flat(120)).unwrap();
    assert_eq!(after.class, 2, "the admitted class must win its own region");
    assert!(after.generation >= 1);
    // The old classes still answer correctly.
    assert_eq!(registry.classify("t", &flat(18)).unwrap().class, 0);
    assert_eq!(registry.classify("t", &flat(233)).unwrap().class, 1);
}

/// Learner state survives checkpointing: snapshot → `to_bytes` →
/// `from_bytes` → warm-started learner, then identical update streams
/// applied to the original and the restored learner land on
/// byte-identical models.
#[test]
fn learner_state_round_trips_through_bytes() {
    let dim = 512u32;
    let (train, _) = generate(SynthSpec::new(SyntheticKind::Mnist, 120, 10, 7)).expect("generate");
    let encoder = UhdEncoder::new(UhdConfig::new(dim, train.pixels())).unwrap();
    let samples: Vec<_> = train
        .images()
        .iter()
        .map(|img| {
            let mut acc = uhd::core::BitSliceAccumulator::new(dim);
            encoder.accumulate(img, &mut acc).unwrap();
            acc
        })
        .collect();

    // Build up some online state.
    let mut original = OnlineLearner::new(dim).unwrap();
    for (sample, &label) in samples[..60].iter().zip(&train.labels()[..60]) {
        original.observe_accumulator(sample, label).unwrap();
    }

    // Checkpoint through the serialized model form.
    let checkpoint = original.snapshot().unwrap();
    let bytes = checkpoint.to_bytes();
    let restored_model = HdcModel::from_bytes(&bytes).unwrap();
    assert_eq!(restored_model.class_sums(), checkpoint.class_sums());
    assert_eq!(
        restored_model.class_hypervectors(),
        checkpoint.class_hypervectors()
    );
    assert_eq!(bytes, restored_model.to_bytes(), "byte-stable round trip");

    // Resume learning on both sides with the identical stream.
    let mut restored = OnlineLearner::from_model(&restored_model);
    for (sample, &label) in samples[60..].iter().zip(&train.labels()[60..]) {
        original.observe_accumulator(sample, label).unwrap();
        restored.observe_accumulator(sample, label).unwrap();
        let predicted = restored_model
            .classify_encoded(&sample.binarize())
            .unwrap()
            .0;
        original
            .feedback_accumulator(sample, predicted, label)
            .unwrap();
        restored
            .feedback_accumulator(sample, predicted, label)
            .unwrap();
    }
    let a = original.snapshot().unwrap();
    let b = restored.snapshot().unwrap();
    assert_eq!(a.class_sums(), b.class_sums());
    assert_eq!(a.class_hypervectors(), b.class_hypervectors());
    assert_eq!(a.to_bytes(), b.to_bytes());
}

/// Learn and feedback through the registry are bit-identical to a
/// serial learner: two threads on two permits mix observations,
/// mispredicted and correct feedback, and new-class labels (with a gap)
/// across many `snapshot_every` publishes. After a final publish the
/// served snapshot file holds exactly the bytes of a serial replay
/// through the sums-only oracle (`uhd_testutil::SumsLearner`), warm-
/// started from the model's sums. Every prediction names a class of the registered
/// model, so the order in which the two threads' samples apply does
/// not change the final sums.
#[test]
fn concurrent_learn_and_feedback_match_a_serial_replay() {
    let dim = 512u32;
    let (train, _) = generate(SynthSpec::new(SyntheticKind::Mnist, 260, 10, 3)).expect("generate");
    let encoder = UhdEncoder::new(UhdConfig::new(dim, train.pixels())).unwrap();
    let classes = train.classes();
    let data =
        uhd::core::model::LabelledSamples::new(&train.images()[..100], &train.labels()[..100])
            .unwrap();
    let model = HdcModel::train(&encoder, data, classes).unwrap();

    /// One request: `predicted: None` is a learn, `Some(p)` feedback.
    #[derive(Clone, Copy)]
    struct Sample {
        input: usize,
        predicted: Option<usize>,
        label: usize,
    }
    let stream: Vec<Sample> = (100..train.len())
        .map(|input| {
            let label = train.labels()[input];
            let (predicted, label) = match input % 5 {
                0 => (None, label),
                1 => (Some((label + 1) % classes), label), // mispredicted
                2 => (Some(label), label),                 // correct: no-op
                // New classes past the trained ones, 12 before 10 and 11
                // on some interleavings.
                3 => (None, classes + input % 3),
                _ => (Some(label), classes + 2 - input % 3),
            };
            Sample {
                input,
                predicted,
                label,
            }
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("uhd-online-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.uhdm");
    let registry = ModelRegistry::start(ServeConfig::new(2, 4).with_snapshot_every(5)).unwrap();
    registry
        .register("t", Arc::new(encoder.clone()), model.clone())
        .unwrap();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for half in stream.chunks(stream.len().div_ceil(2)) {
            let (registry, train, start) = (&registry, &train, &start);
            scope.spawn(move || {
                start.wait();
                for s in half {
                    let image = &train.images()[s.input];
                    match s.predicted {
                        None => registry.learn("t", image, s.label),
                        Some(p) => registry.feedback("t", image, p, s.label),
                    }
                    .unwrap();
                }
            });
        }
    });
    registry.publish("t").unwrap();
    registry.save_snapshot("t", &path).unwrap();
    let served = std::fs::read(&path).unwrap();

    let mut replay = SumsLearner::from_sums(
        model.class_sums().to_vec(),
        dim as usize,
        uhd::core::online::DEFAULT_MAX_CLASSES,
    );
    let mut scratch = uhd::core::BitSliceAccumulator::new(dim);
    let mut applied = 0u64;
    for s in &stream {
        scratch.clear();
        encoder
            .accumulate(&train.images()[s.input], &mut scratch)
            .unwrap();
        let sums = scratch.bipolar_sums();
        let changed = match s.predicted {
            None => replay.observe(&sums, s.label).map(|()| true),
            Some(p) => replay.feedback(&sums, p, s.label),
        };
        applied += u64::from(changed.unwrap());
    }
    let expected = HdcModel::from_class_sums(replay.class_sums().to_vec(), dim).unwrap();
    assert_eq!(expected.classes(), classes + 3, "three classes admitted");
    assert_eq!(
        served,
        expected.to_bytes(),
        "served snapshot differs from the serial replay"
    );
    let stats = registry.stats();
    assert_eq!(stats.learn_updates, applied);
    assert_eq!(stats.learn_rejected, 0);
    assert!(stats.snapshots_published >= applied / 5);
    std::fs::remove_dir_all(&dir).ok();
}

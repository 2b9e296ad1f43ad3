//! Cross-crate integration: full train→infer pipelines over synthetic
//! data for both encoders, exercising every crate together.

use uhd::core::encoder::baseline::{BaselineConfig, BaselineEncoder};
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::{HdcModel, InferenceMode};
use uhd::lowdisc::rng::Xoshiro256StarStar;
use uhd_testutil::{tiny_labelled as labelled, tiny_mnist as mnist};

#[test]
fn uhd_pipeline_learns_synthetic_mnist() {
    let (train, test) = mnist(600, 200);
    let enc = UhdEncoder::new(UhdConfig::new(1024, train.pixels())).unwrap();
    let model = HdcModel::train(&enc, labelled(&train), train.classes()).unwrap();
    let acc = model.evaluate(&enc, labelled(&test)).unwrap();
    assert!(acc > 0.5, "uHD accuracy {acc} too low for a learnable task");
}

#[test]
fn baseline_pipeline_learns_synthetic_mnist() {
    let (train, test) = mnist(600, 200);
    let mut rng = uhd_testutil::fixture_rng("baseline_pipeline");
    let enc = BaselineEncoder::new(BaselineConfig::paper(1024, train.pixels()), &mut rng).unwrap();
    let model = HdcModel::train(&enc, labelled(&train), train.classes()).unwrap();
    let acc = model.evaluate(&enc, labelled(&test)).unwrap();
    assert!(
        acc > 0.5,
        "baseline accuracy {acc} too low for a learnable task"
    );
}

#[test]
fn uhd_is_deterministic_end_to_end() {
    let (train, test) = mnist(200, 50);
    let tr = labelled(&train);
    let run = || {
        let enc = UhdEncoder::new(UhdConfig::new(512, train.pixels())).unwrap();
        let model = HdcModel::train(&enc, tr, train.classes()).unwrap();
        let preds: Vec<usize> = test
            .images()
            .iter()
            .map(|img| model.classify(&enc, img).unwrap().0)
            .collect();
        (model.to_bytes(), preds)
    };
    let (bytes_a, preds_a) = run();
    let (bytes_b, preds_b) = run();
    assert_eq!(bytes_a, bytes_b, "uHD training must be bit-deterministic");
    assert_eq!(preds_a, preds_b);
}

#[test]
fn baseline_fluctuates_across_iterations_uhd_does_not() {
    // The core claim behind Table IV / Fig. 6(a): the baseline's accuracy
    // depends on the random hypervector draw; uHD has no draw to vary.
    let (train, test) = mnist(400, 200);
    let tr = labelled(&train);
    let te = labelled(&test);
    let mut accs = Vec::new();
    for seed in 0..4 {
        let mut rng = Xoshiro256StarStar::seeded(seed);
        let enc =
            BaselineEncoder::new(BaselineConfig::paper(512, train.pixels()), &mut rng).unwrap();
        let model = HdcModel::train(&enc, tr, train.classes()).unwrap();
        accs.push(model.evaluate(&enc, te).unwrap());
    }
    let min = accs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = accs.iter().copied().fold(0.0f64, f64::max);
    assert!(
        max - min > 1e-9,
        "different draws should give different accuracies: {accs:?}"
    );
}

#[test]
fn model_round_trips_through_bytes_and_still_classifies() {
    let (train, test) = mnist(200, 50);
    let enc = UhdEncoder::new(UhdConfig::new(512, train.pixels())).unwrap();
    let model = HdcModel::train(&enc, labelled(&train), train.classes()).unwrap();
    let restored = HdcModel::from_bytes(&model.to_bytes()).unwrap();
    for img in test.images().iter().take(10) {
        assert_eq!(
            model.classify(&enc, img).unwrap().0,
            restored.classify(&enc, img).unwrap().0
        );
    }
}

#[test]
fn inference_modes_all_run() {
    let (train, test) = mnist(200, 60);
    let enc = UhdEncoder::new(UhdConfig::new(512, train.pixels())).unwrap();
    let te = labelled(&test);
    let model = HdcModel::train(&enc, labelled(&train), train.classes()).unwrap();
    for mode in [InferenceMode::IntegerBoth, InferenceMode::BinarizedQuery] {
        let acc = model.evaluate_with(&enc, te, mode).unwrap();
        assert!((0.0..=1.0).contains(&acc), "{mode:?}");
    }
}

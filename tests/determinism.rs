//! Deterministic reproducibility across the full stack: identical seeds
//! must give bit-identical datasets, encoders, and class hypervectors.

use uhd::core::encoder::baseline::{BaselineConfig, BaselineEncoder};
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::HdcModel;
use uhd::datasets::synth::{generate, SynthSpec, SyntheticKind};
use uhd::lowdisc::rng::Xoshiro256StarStar;
use uhd_testutil::tiny_labelled as labelled;

/// One full uHD training run on freshly generated synthetic MNIST.
fn uhd_run(seed: u64) -> HdcModel {
    let (train, _) =
        generate(SynthSpec::new(SyntheticKind::Mnist, 300, 50, seed)).expect("generate");
    let enc = UhdEncoder::new(UhdConfig::new(1024, train.pixels())).unwrap();
    HdcModel::train(&enc, labelled(&train), train.classes()).unwrap()
}

/// One full baseline training run where every random draw flows from a
/// single `Xoshiro256StarStar::seeded` stream.
fn baseline_run(seed: u64) -> HdcModel {
    let (train, _) =
        generate(SynthSpec::new(SyntheticKind::Mnist, 300, 50, seed)).expect("generate");
    let mut rng = Xoshiro256StarStar::seeded(seed);
    let enc = BaselineEncoder::new(BaselineConfig::paper(1024, train.pixels()), &mut rng).unwrap();
    HdcModel::train(&enc, labelled(&train), train.classes()).unwrap()
}

#[test]
fn uhd_class_hypervectors_are_bit_identical_across_runs() {
    let (a, b) = (uhd_run(42), uhd_run(42));
    assert_eq!(
        a.class_hypervectors(),
        b.class_hypervectors(),
        "two seeded uHD runs must produce bit-identical class hypervectors"
    );
    assert_eq!(a.class_sums(), b.class_sums());
    assert_eq!(a.to_bytes(), b.to_bytes());
}

#[test]
fn baseline_class_hypervectors_are_bit_identical_across_runs() {
    let (a, b) = (baseline_run(42), baseline_run(42));
    assert_eq!(
        a.class_hypervectors(),
        b.class_hypervectors(),
        "two Xoshiro256** seeded baseline runs must be bit-identical"
    );
    assert_eq!(a.to_bytes(), b.to_bytes());
}

#[test]
fn different_seeds_change_the_baseline_model() {
    let (a, b) = (baseline_run(42), baseline_run(43));
    assert_ne!(
        a.to_bytes(),
        b.to_bytes(),
        "distinct seeds must give distinct baseline models"
    );
}

#[test]
fn classify_into_on_reused_scratch_matches_classify_with() {
    use uhd::core::model::InferenceMode;
    use uhd::core::{BitSliceAccumulator, Encoder};

    let (train, test) =
        generate(SynthSpec::new(SyntheticKind::Mnist, 200, 60, 5)).expect("generate");
    let enc = UhdEncoder::new(UhdConfig::new(512, train.pixels())).unwrap();
    let model = HdcModel::train(&enc, labelled(&train), train.classes()).unwrap();

    // One scratch and one distance buffer carried across every image
    // and every mode: nothing a previous query left behind may leak
    // into the next answer.
    let mut scratch = BitSliceAccumulator::new(enc.dim());
    let mut dists = Vec::new();
    for mode in [InferenceMode::BinarizedQuery, InferenceMode::IntegerBoth] {
        for img in test.images() {
            let reused = model
                .classify_into(&enc, img, mode, &mut scratch, &mut dists)
                .unwrap();
            let fresh = model.classify_with(&enc, img, mode).unwrap();
            assert_eq!(
                (reused.0, reused.1.to_bits()),
                (fresh.0, fresh.1.to_bits()),
                "mode {mode:?} diverged"
            );
        }
    }
}

#[test]
fn text_workload_is_bit_identical_across_runs() {
    use uhd::core::encoder::text::{NgramTextConfig, NgramTextEncoder};
    use uhd::datasets::{generate_language_id, TextSpec};
    use uhd_testutil::tiny_labelled_features;

    let run = |seed: u64| -> HdcModel {
        let (train, _) = generate_language_id(TextSpec::new(60, 12, seed)).expect("generate");
        let enc = NgramTextEncoder::new(NgramTextConfig::new(1024)).unwrap();
        HdcModel::train(&enc, tiny_labelled_features(&train), train.classes()).unwrap()
    };
    let (a, b) = (run(42), run(42));
    assert_eq!(
        a.class_hypervectors(),
        b.class_hypervectors(),
        "two seeded text runs must produce bit-identical class hypervectors"
    );
    assert_eq!(a.class_sums(), b.class_sums());
    assert_eq!(a.to_bytes(), b.to_bytes());
    assert_ne!(
        a.to_bytes(),
        run(43).to_bytes(),
        "distinct corpus seeds must give distinct text models"
    );
}

#[test]
fn rng_streams_are_reproducible_and_seed_sensitive() {
    let take = |seed: u64| -> Vec<u64> {
        let mut r = Xoshiro256StarStar::seeded(seed);
        (0..16).map(|_| r.next_u64()).collect()
    };
    assert_eq!(take(7), take(7));
    assert_ne!(take(7), take(8));
}

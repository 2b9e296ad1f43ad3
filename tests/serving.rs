//! Integration suite for the serving layer: the bit-sliced associative
//! memory against the per-class scan, a one-tenant registry's batched
//! answers against the serial path, and hot model swap under
//! concurrent traffic.

use std::sync::Arc;
use uhd::core::assoc::AssociativeMemory;
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::{HdcModel, InferenceMode, LabelledSamples};
use uhd::core::similarity::classify;
use uhd::core::Encoder;
use uhd::datasets::image::Dataset;
use uhd::datasets::synth::{generate, SynthSpec, SyntheticKind};
use uhd::serve::{ModelRegistry, Response, ServeConfig};

fn fixture(train_n: usize, test_n: usize, dim: u32, seed: u64) -> (UhdEncoder, HdcModel, Dataset) {
    let (train, test) =
        generate(SynthSpec::new(SyntheticKind::Mnist, train_n, test_n, seed)).expect("generate");
    let encoder = UhdEncoder::new(UhdConfig::new(dim, train.pixels())).unwrap();
    let data = LabelledSamples::new(train.images(), train.labels()).unwrap();
    let model = HdcModel::train(&encoder, data, train.classes()).unwrap();
    (encoder, model, test)
}

/// Acceptance: the bit-sliced associative memory produces identical
/// argmax decisions (and scores) to the per-class hypervector scan —
/// and therefore to `HdcModel::classify_encoded`, which routes through
/// it — on every test query.
#[test]
fn associative_memory_matches_per_class_scan_on_every_test_query() {
    let (encoder, model, test) = fixture(300, 120, 1024, 42);
    let external = AssociativeMemory::from_model(&model);
    for image in test.images() {
        let query = encoder.encode(image).unwrap();
        let scan = classify(&query, model.class_hypervectors()).unwrap();
        assert_eq!(model.classify_encoded(&query).unwrap(), scan);
        assert_eq!(external.nearest(&query).unwrap(), scan);
    }
}

/// A one-tenant registry's batched, sharded answers are bit-identical
/// to the serial binarized path, in input order, all on generation 0.
#[test]
fn engine_matches_the_serial_binarized_path() {
    let (encoder, model, test) = fixture(200, 80, 512, 7);
    let serial: Vec<(usize, f64)> = test
        .images()
        .iter()
        .map(|img| {
            model
                .classify_with(&encoder, img, InferenceMode::BinarizedQuery)
                .unwrap()
        })
        .collect();
    let registry = ModelRegistry::start(ServeConfig::new(3, 8)).unwrap();
    registry.register("t", Arc::new(encoder), model).unwrap();
    let responses = registry.classify_many("t", test.images()).unwrap();
    assert_eq!(responses.len(), serial.len());
    for (response, expected) in responses.iter().zip(&serial) {
        assert_eq!(response.class, expected.0);
        assert_eq!(response.score.to_bits(), expected.1.to_bits());
        assert_eq!(response.generation, 0);
    }
}

/// Hot-swap safety: N client threads hammer the registry while the model
/// is swapped mid-flight. No response may observe a torn model — every
/// `(class, score)` pair must exactly match what one of the two
/// generations produces for that query, as named by the response's
/// generation tag — and both generations must actually serve traffic.
#[test]
fn hot_swap_under_concurrent_traffic_never_tears_the_model() {
    let (encoder, model_a, test) = fixture(200, 60, 512, 11);
    // Generation 1 is trained on different data: different class
    // hypervectors, hence different answers/scores for most queries.
    // (The uHD encoder is deterministic, so the fixture's second
    // encoder is identical to the first and can be discarded.)
    let (_, model_b, _) = fixture(260, 10, 512, 99);

    let expected = |model: &HdcModel| -> Vec<(usize, f64)> {
        test.images()
            .iter()
            .map(|img| {
                model
                    .classify_with(&encoder, img, InferenceMode::BinarizedQuery)
                    .unwrap()
            })
            .collect()
    };
    let expected_a = expected(&model_a);
    let expected_b = expected(&model_b);

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    let total = (CLIENTS * ROUNDS * test.len()) as u64;

    let registry = ModelRegistry::start(ServeConfig::new(3, 4)).unwrap();
    registry
        .register("t", Arc::new(encoder), model_a.clone())
        .unwrap();
    let all_responses = std::thread::scope(|scope| {
        let (registry, test) = (&registry, &test);
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut seen: Vec<(usize, Response)> = Vec::new();
                    for _ in 0..ROUNDS {
                        for (i, image) in test.images().iter().enumerate() {
                            seen.push((i, registry.classify("t", image).unwrap()));
                        }
                    }
                    seen
                })
            })
            .collect();
        // Swap once roughly halfway through the traffic.
        while registry.stats().completed < total / 2 {
            std::thread::yield_now();
        }
        assert_eq!(registry.update_model("t", model_b.clone()).unwrap(), 1);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });

    assert_eq!(all_responses.len() as u64, total);
    let mut seen_generations = [false, false];
    for (query, response) in &all_responses {
        let expected = match response.generation {
            0 => &expected_a,
            1 => &expected_b,
            g => panic!("response from unknown generation {g}"),
        };
        seen_generations[response.generation as usize] = true;
        assert_eq!(
            (response.class, response.score),
            expected[*query],
            "query {query} answered with a result matching neither generation \
             (tagged generation {})",
            response.generation
        );
    }
    assert!(
        seen_generations[0] && seen_generations[1],
        "both model generations must have served traffic (saw {seen_generations:?})"
    );
}

/// Tie-breaking parity: when two classes are exactly equally similar
/// to the query, `similarity::classify`, `HdcModel::classify_encoded`
/// and a standalone `AssociativeMemory` must all resolve to the same
/// (lowest) class index with the same score — otherwise the bit-sliced
/// fast path could silently diverge from the per-class scan on a tie.
#[test]
fn all_classify_paths_break_ties_toward_the_lowest_index() {
    use uhd::core::Hypervector;
    let dim = 128u32;
    let sums_for = |hv: &Hypervector| -> Vec<i64> {
        (0..dim).map(|i| if hv.bit(i) { 1 } else { -1 }).collect()
    };
    let check = |class_hvs: Vec<Hypervector>, query: &Hypervector| {
        let model = HdcModel::from_class_sums(class_hvs.iter().map(&sums_for).collect(), dim)
            .expect("±1 sums binarize back to the same hypervectors");
        assert_eq!(model.class_hypervectors(), class_hvs.as_slice());
        let scan = classify(query, model.class_hypervectors()).unwrap();
        let encoded = model.classify_encoded(query).unwrap();
        let external = AssociativeMemory::new(&class_hvs)
            .unwrap()
            .nearest(query)
            .unwrap();
        assert_eq!(scan, encoded, "scan vs classify_encoded diverged on a tie");
        assert_eq!(
            scan, external,
            "scan vs AssociativeMemory diverged on a tie"
        );
        assert_eq!(scan.0, 0, "ties must resolve to the lowest class index");
    };

    // Exact duplicates: every class is at distance 0 from the query.
    let ones = Hypervector::ones(dim);
    check(vec![ones.clone(), ones.clone(), ones.clone()], &ones);

    // A constructed tie between distinct classes: class 0 differs from
    // the query in bit 0 only, class 1 in bit 1 only — both at Hamming
    // distance 1 — plus a far-away decoy that must not matter.
    let mut near_a = ones.clone();
    near_a.set_bit(0, false);
    let mut near_b = ones.clone();
    near_b.set_bit(1, false);
    check(vec![near_a, near_b, ones.negate()], &ones);
}

/// Every request is answered, and the registry's counters reconcile.
#[test]
fn stats_reconcile_after_a_serving_session() {
    let (encoder, model, test) = fixture(120, 40, 256, 3);
    let registry = ModelRegistry::start(ServeConfig::new(2, 8)).unwrap();
    registry.register("t", Arc::new(encoder), model).unwrap();
    let responses = registry.classify_many("t", test.images()).unwrap();
    assert_eq!(responses.len(), test.len());
    let stats = registry.stats();
    assert_eq!(stats.submitted, test.len() as u64);
    assert_eq!(stats.completed, test.len() as u64);
    assert!(stats.batches >= 1 && stats.batches <= stats.completed);
    assert!(stats.largest_batch >= 1 && stats.largest_batch <= 8);
    assert_eq!(stats.model_swaps, 0);
}

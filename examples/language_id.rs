//! Language identification with the n-gram text encoder: a non-image
//! workload through the exact same train / serve / online-learn stack
//! as the paper's image experiments.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example language_id
//! ```
//!
//! Three acts:
//!
//! 1. batch-train a model on a synthetic language-ID corpus and compare
//!    the binary (binarized query) and bipolar (integer cosine) read-out
//!    paths on accuracy *and* speed — the classic trade-off of the
//!    n-gram HDC literature;
//! 2. serve the test stream through a one-tenant `ModelRegistry` (same
//!    micro-batching, sharding and counters as image serving — no
//!    text-specific code in the registry);
//! 3. cold-start a learner on a handful of sentences and let labelled
//!    feedback converge it while it serves.

use std::sync::Arc;
use std::time::Instant;
use uhd::core::encoder::text::{NgramTextConfig, NgramTextEncoder};
use uhd::core::model::{HdcModel, InferenceMode, LabelledSamples};
use uhd::core::{BitSliceAccumulator, Encoder, OnlineLearner};
use uhd::datasets::{generate_language_id, TextSpec};
use uhd::serve::{ModelRegistry, ServeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dim = 2048u32;
    let spec = TextSpec::new(600, 200, 42);
    let (train, test) = generate_language_id(spec)?;
    let mut cfg = NgramTextConfig::new(dim);
    cfg.max_len = spec.max_len;
    let encoder = Arc::new(NgramTextEncoder::new(cfg)?);
    println!(
        "corpus: {} languages, {} train / {} test sentences of {}-{} bytes",
        train.classes(),
        train.len(),
        test.len(),
        train.min_sample_len(),
        train.max_sample_len()
    );
    println!("encoder: {} (D = {dim})", encoder.profile().name);

    // --- Act 1: batch training, binary vs bipolar read-out. ---
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let tr = LabelledSamples::new(train.samples(), train.labels())?;
    let te = LabelledSamples::new(test.samples(), test.labels())?;
    let model = HdcModel::train_parallel(encoder.as_ref(), tr, train.classes(), threads)?;

    println!("\nread-out        accuracy     sentences/s");
    let mut accuracies = Vec::new();
    for (name, mode) in [
        ("binary  (binarized query)", InferenceMode::BinarizedQuery),
        ("bipolar (integer cosine) ", InferenceMode::IntegerBoth),
    ] {
        let t0 = Instant::now();
        let acc = model.evaluate_with(encoder.as_ref(), te, mode)?;
        let rate = test.len() as f64 / t0.elapsed().as_secs_f64();
        println!("{name}  {:6.2}%   {rate:>10.0}", acc * 100.0);
        accuracies.push(acc);
    }
    // Both read-outs must beat chance by a wide margin on 6 classes.
    assert!(accuracies.iter().all(|&a| a > 0.5));

    // --- Act 2: the test stream through a one-tenant registry. ---
    let accuracy = |registry: &ModelRegistry| {
        let responses = registry.classify_many("lang", test.samples())?;
        let hits = responses
            .iter()
            .zip(test.labels())
            .filter(|(r, &label)| r.class == label)
            .count();
        Ok::<_, uhd::serve::ServeError>(hits as f64 / test.len() as f64)
    };
    let registry = ModelRegistry::start(ServeConfig::new(2, 16))?;
    registry.register("lang", encoder.clone(), model.clone())?;
    let acc_served = accuracy(&registry)?;
    let stats = registry.stats();
    println!(
        "\nserved: {:.2}% over {} requests in {} micro-batches (mean {:.1})",
        100.0 * acc_served,
        stats.completed,
        stats.batches,
        stats.mean_batch()
    );
    assert_eq!(stats.completed, test.len() as u64);

    // --- Act 3: serve-while-learn from a cold start. ---
    let mut boot = OnlineLearner::new(dim)?;
    let mut scratch = BitSliceAccumulator::new(dim);
    for (sentence, &label) in train.samples()[..6].iter().zip(&train.labels()[..6]) {
        scratch.clear();
        encoder.accumulate(sentence, &mut scratch)?;
        boot.observe_accumulator(&scratch, label)?;
    }
    let config = ServeConfig::new(2, 16)
        .with_mode(InferenceMode::IntegerBoth)
        .with_snapshot_every(64);
    let registry = ModelRegistry::start(config)?;
    registry.register("lang", encoder, boot.snapshot()?)?;
    let acc_cold = accuracy(&registry)?;
    for (sentence, &label) in train.samples().iter().zip(train.labels()) {
        registry.learn("lang", sentence, label)?;
    }
    registry.publish("lang")?;
    let (acc_online, generation) = (accuracy(&registry)?, registry.generation("lang")?);
    println!(
        "online: cold {:.2}% -> after labelled stream {:.2}% (serving generation {generation})",
        100.0 * acc_cold,
        100.0 * acc_online
    );
    assert!(
        acc_online > acc_cold,
        "online learning must improve the cold text model"
    );
    Ok(())
}

//! Dynamic learning: a cold-start model converging *while it serves*.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example dynamic_learning
//! ```
//!
//! The full dynamic-HDC loop the paper motivates: a model bootstrapped
//! from a handful of stream samples goes live as the only tenant of a
//! `ModelRegistry`, clients submit labelled feedback through
//! `learn`/`feedback`, the registry merges each sample's bit-sliced
//! counts synchronously into running class accumulators
//! (`uhd_core::OnlineLearner`) and hot-publishes
//! rebinarized snapshots through the generation-tagged model swap — so
//! accuracy climbs with zero downtime, and a class the initial model
//! never saw is admitted mid-stream.

use std::sync::Arc;
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::InferenceMode;
use uhd::core::{BitSliceAccumulator, Encoder, OnlineLearner};
use uhd::datasets::synth::{generate, SynthSpec, SyntheticKind};
use uhd::serve::{ModelRegistry, ServeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dim = 1024u32;
    let (train, test) = generate(SynthSpec::new(SyntheticKind::Mnist, 600, 200, 42))?;
    let encoder = UhdEncoder::new(UhdConfig::new(dim, train.pixels()))?;

    // Cold start: the learner has seen only the first 20 samples of
    // the label stream (bundled from their bit-sliced counts, as the
    // registry does — bit-identical to single-pass training on those
    // 20).
    let mut boot = OnlineLearner::new(dim)?;
    let mut scratch = BitSliceAccumulator::new(dim);
    for (image, &label) in train.images()[..20].iter().zip(&train.labels()[..20]) {
        scratch.clear();
        encoder.accumulate(image, &mut scratch)?;
        boot.observe_accumulator(&scratch, label)?;
    }
    let cold = boot.snapshot()?;
    println!(
        "cold start: {} of {} classes seen after 20 samples",
        cold.classes(),
        train.classes()
    );

    let config = ServeConfig::new(2, 16)
        .with_mode(InferenceMode::IntegerBoth)
        .with_snapshot_every(64);
    let registry = ModelRegistry::start(config)?;
    registry.register("digits", Arc::new(encoder), cold)?;
    let accuracy = || {
        let responses = registry.classify_many("digits", test.images())?;
        let hits = responses
            .iter()
            .zip(test.labels())
            .filter(|(r, &label)| r.class == label)
            .count();
        Ok::<_, uhd::serve::ServeError>(hits as f64 / test.len() as f64)
    };

    let acc_cold = accuracy()?;

    // Stream the labelled data through the online-learning API while
    // the registry keeps serving: bundle every sample, then run a
    // served-prediction feedback pass. `publish` serves whatever the
    // `snapshot_every` cadence has not published yet.
    for (image, &label) in train.images().iter().zip(train.labels()) {
        registry.learn("digits", image, label)?;
    }
    registry.publish("digits")?;
    let acc_bundled = accuracy()?;

    for (image, &label) in train.images().iter().zip(train.labels()) {
        let response = registry.classify("digits", image)?;
        registry.feedback("digits", image, response.class, label)?;
    }
    registry.publish("digits")?;
    let acc_final = accuracy()?;

    let generation = registry.generation("digits")?;
    let stats = registry.stats();

    println!(
        "accuracy: cold {:.2} % -> bundled stream {:.2} % -> after feedback {:.2} %",
        100.0 * acc_cold,
        100.0 * acc_bundled,
        100.0 * acc_final
    );
    println!(
        "learning: {} samples applied ({} updates, {} rejected), \
         {} snapshots hot-published (serving generation {generation})",
        stats.learn_submitted, stats.learn_updates, stats.learn_rejected, stats.snapshots_published,
    );
    println!(
        "serving:  {} requests in {} micro-batches (mean {:.1}, largest {})",
        stats.completed,
        stats.batches,
        stats.mean_batch(),
        stats.largest_batch,
    );
    println!(
        "latency:  classify p50 {} us / p99 {} us",
        stats.p50_us, stats.p99_us,
    );
    // The same counters `render_metrics` exposes as
    // `uhd_model_swaps_total`, `uhd_snapshots_published_total` and
    // `uhd_learn_rejected_total`.
    println!(
        "lifecycle: kernel {}, {} model swaps, {} snapshot publishes, {} rejected samples",
        stats.kernel, stats.model_swaps, stats.snapshots_published, stats.learn_rejected,
    );

    assert_eq!(stats.learn_rejected, 0);
    assert!(stats.snapshots_published >= 1);
    assert!(
        acc_final > acc_cold,
        "online learning must improve on the cold model"
    );
    Ok(())
}

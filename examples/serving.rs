//! Serving: run a trained uHD model as the only tenant of a
//! `ModelRegistry` and hot-swap in a better-trained model without
//! stopping.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! Demonstrates the dynamic-HDC serving loop: start a registry over a
//! model trained on the first slice of the stream, keep answering
//! queries through the micro-batching worker pool, then `update_model`
//! a generation trained on the full stream into the live registry —
//! single-pass HDC training makes such refreshes cheap enough to do
//! continuously.
//!
//! Also demonstrates the observability layer: per-shard p50/p99
//! queue-wait and batch-compute latencies land in the Prometheus text
//! exposition (`render_metrics`). Set `UHD_METRICS_SNAPSHOT=<base>` to
//! write `<base>.mid.prom` / `<base>.end.prom` / `<base>.json`
//! snapshots — `ci.sh --smoke` validates them with `validate_metrics`.
//! `UHD_LOG=1` additionally fills the trace-event ring.

use std::sync::Arc;
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::{HdcModel, InferenceMode, LabelledSamples};
use uhd::datasets::synth::{generate, SynthSpec, SyntheticKind};
use uhd::serve::{ModelRegistry, ServeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dim = 1024u32;
    let (train, test) = generate(SynthSpec::new(SyntheticKind::Mnist, 900, 200, 42))?;
    let encoder = Arc::new(UhdEncoder::new(UhdConfig::new(dim, train.pixels()))?);

    // Generation 0: only the first 300 samples of the stream have been
    // seen. Generation 1: the full 900 (single-pass training, so the
    // refresh costs one scan).
    let early = LabelledSamples::new(&train.images()[..300], &train.labels()[..300])?;
    let full = LabelledSamples::new(train.images(), train.labels())?;
    let model_early = HdcModel::train(encoder.as_ref(), early, train.classes())?;
    let model_full = HdcModel::train(encoder.as_ref(), full, train.classes())?;

    // Serve in the integer-similarity mode the accuracy tables use; the
    // binarized fast path through the bit-sliced associative memory is
    // what the `throughput` bench sweeps.
    // `UHD_METRICS_SNAPSHOT=<base>` writes exposition snapshots for the
    // smoke gate: one mid-run, one at end-of-run, plus the JSON export.
    let snapshot_base = std::env::var("UHD_METRICS_SNAPSHOT")
        .ok()
        .filter(|base| !base.is_empty());

    let config = ServeConfig::new(2, 16).with_mode(InferenceMode::IntegerBoth);
    let registry = ModelRegistry::start(config)?;
    registry.register("digits", encoder.clone(), model_early)?;

    // First wave of traffic, answered by generation 0.
    let wave0 = registry.classify_many("digits", test.images())?;

    if let Some(base) = &snapshot_base {
        std::fs::write(format!("{base}.mid.prom"), registry.render_metrics())?;
    }

    // Hot swap while the registry stays up; the next wave is answered
    // by generation 1.
    let generation = registry.update_model("digits", model_full.clone())?;
    let wave1 = registry.classify_many("digits", test.images())?;
    assert!(wave1.iter().all(|r| r.generation == generation));

    let hits = |wave: &[uhd::serve::Response]| {
        wave.iter()
            .zip(test.labels())
            .filter(|(r, &label)| r.class == label)
            .count()
    };
    let (correct_before, correct_after) = (hits(&wave0), hits(&wave1));
    registry.shutdown();
    let (stats, metrics_text, metrics_json) = (
        registry.stats(),
        registry.render_metrics(),
        registry.metrics_json(),
    );

    if let Some(base) = &snapshot_base {
        std::fs::write(format!("{base}.end.prom"), &metrics_text)?;
        std::fs::write(format!("{base}.json"), &metrics_json)?;
        eprintln!("wrote {base}.mid.prom, {base}.end.prom, {base}.json");
    }

    let n = test.len();
    println!(
        "registry: {} shards, max batch {} | served {} requests in {} micro-batches \
         (mean {:.1}, largest {}), {} model swap(s)",
        config.shards,
        config.max_batch,
        stats.completed,
        stats.batches,
        stats.mean_batch(),
        stats.largest_batch,
        stats.model_swaps,
    );
    println!(
        "latency:  p50 {} us, p99 {} us submit->completion | queue high-water {}",
        stats.p50_us, stats.p99_us, stats.queue_depth_hw
    );
    println!(
        "accuracy: generation 0 (300 samples) {:.2} % -> generation 1 (900 samples) {:.2} %",
        100.0 * correct_before as f64 / n as f64,
        100.0 * correct_after as f64 / n as f64,
    );

    // The per-shard staged-latency summaries from the Prometheus text
    // exposition (the full document also carries every counter, the
    // queue gauges, and — under `--features telemetry` — kernel op
    // counts).
    println!("telemetry excerpt (render_metrics):");
    for line in metrics_text.lines().filter(|line| {
        (line.starts_with("uhd_request_queue_wait_ns") || line.starts_with("uhd_batch_compute_ns"))
            && (line.contains("quantile=\"0.5\"") || line.contains("quantile=\"0.99\""))
    }) {
        println!("  {line}");
    }

    // Sanity: the registry's answers match the serial evaluation path.
    let serial = model_full.evaluate(
        encoder.as_ref(),
        LabelledSamples::new(test.images(), test.labels())?,
    )?;
    assert_eq!(correct_after as f64 / n as f64, serial);
    println!("serial evaluation agrees: {:.2} %", 100.0 * serial);
    Ok(())
}

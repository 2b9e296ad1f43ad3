//! Integration suite for the observability layer: staged request
//! timing flowing from the registry's monotonic clocks into the
//! lock-free histograms, the Prometheus text / JSON expositions, the
//! queue high-water gauge, the lifecycle counters, and the no-op
//! recorder's zero-surface guarantee.

use std::sync::Arc;
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::{HdcModel, LabelledSamples};
use uhd::core::Encoder;
use uhd::core::Kernel;
use uhd::datasets::image::Dataset;
use uhd::datasets::synth::{generate, SynthSpec, SyntheticKind};
use uhd::serve::{ModelRegistry, ServeConfig, ServeError};
use uhd_bench::json::{parse, Json};
use uhd_testutil::GateEncoder;

fn fixture(train_n: usize, test_n: usize, dim: u32, seed: u64) -> (UhdEncoder, HdcModel, Dataset) {
    let (train, test) =
        generate(SynthSpec::new(SyntheticKind::Mnist, train_n, test_n, seed)).expect("generate");
    let encoder = UhdEncoder::new(UhdConfig::new(dim, train.pixels())).unwrap();
    let data = LabelledSamples::new(train.images(), train.labels()).unwrap();
    let model = HdcModel::train(&encoder, data, train.classes()).unwrap();
    (encoder, model, test)
}

/// A registry serving `model` through `encoder` as its only tenant, `t`.
fn one_tenant(
    config: ServeConfig,
    encoder: impl Encoder + 'static,
    model: HdcModel,
) -> ModelRegistry {
    let registry = ModelRegistry::start(config).unwrap();
    registry.register("t", Arc::new(encoder), model).unwrap();
    registry
}

/// One wave of traffic through a single permit: every request's
/// staged timing must land in the histograms (count reconciles with the
/// completion counter), the per-shard series must render with shard
/// labels, and the line's high-water mark must have seen the wave.
#[test]
fn staged_timing_lands_in_the_exposition_with_per_shard_labels() {
    let (encoder, model, test) = fixture(200, 100, 512, 42);
    let config = ServeConfig::new(1, 8);
    let (gated, latch) = GateEncoder::new(encoder);
    let registry = one_tenant(config, gated, model);
    // Two halves of the wave share the one permit: the first to take it
    // parks until the other waits in line.
    let (first, second) = test.images().split_at(test.len() / 2);
    let answered = std::thread::scope(|scope| {
        let halves = [first, second].map(|half| scope.spawn(|| registry.classify_many("t", half)));
        while registry.queue_depth() != 1 {
            std::thread::yield_now();
        }
        latch.open();
        halves.map(|h| h.join().unwrap().unwrap().len())
    });
    assert_eq!(answered.iter().sum::<usize>(), test.len());
    let (stats, text) = (registry.stats(), registry.render_metrics());

    assert_eq!(stats.completed, 100);
    // How deep the line got past the first waiter depends on
    // scheduling.
    assert!(
        (1..=100).contains(&stats.queue_depth_hw),
        "the high-water mark must have seen the wave (got {})",
        stats.queue_depth_hw
    );
    assert!(
        stats.p99_us > 0,
        "submit->completion latency must be recorded"
    );
    assert!(stats.p99_us >= stats.p50_us);

    // Per-shard staged series with shard labels, and the registry-wide
    // total whose count reconciles with the completion counter.
    assert!(text.contains("uhd_request_queue_wait_ns{shard=\"0\",quantile=\"0.5\"}"));
    assert!(text.contains("uhd_batch_compute_ns{shard=\"0\",quantile=\"0.99\"}"));
    assert!(text.contains("uhd_request_total_ns_count 100\n"));
    assert!(text.contains("uhd_requests_completed_total 100\n"));
    assert!(text.contains("uhd_queue_depth_hw"));
    assert!(text.contains("uhd_kernel_info{kernel=\""));
}

/// The JSON export parses with the same parser the bench validators
/// use, and its histogram counts agree with the counters.
#[test]
fn metrics_json_round_trips_through_the_bench_parser() {
    let (encoder, model, test) = fixture(150, 60, 512, 7);
    let registry = one_tenant(ServeConfig::new(2, 16), encoder, model);
    registry.classify_many("t", test.images()).unwrap();
    let json = registry.metrics_json();

    let doc = parse(&json).expect("metrics JSON export must parse");
    let completed = doc
        .get("counters")
        .and_then(|c| c.get("uhd_requests_completed_total"))
        .and_then(Json::as_f64)
        .expect("completed counter present");
    assert_eq!(completed, 60.0);
    let total = doc
        .get("histograms")
        .and_then(|h| h.get("uhd_request_total_ns"))
        .expect("total-latency histogram present");
    assert_eq!(total.get("count").and_then(Json::as_f64), Some(60.0));
    let p50 = total.get("p50").and_then(Json::as_f64).unwrap();
    let p99 = total.get("p99").and_then(Json::as_f64).unwrap();
    assert!(
        p50 > 0.0 && p99 >= p50,
        "p50 {p50} / p99 {p99} out of order"
    );
}

/// A feedback prediction past the learner's admitted classes is
/// rejected by the learner: the rejection counter moves and the error
/// returned to the caller names the offending prediction. (The name
/// is kept from the trace ring this counter and error replaced.)
#[test]
fn learner_rejections_trace_the_offending_label() {
    let (encoder, model, test) = fixture(150, 10, 512, 11);
    let config = ServeConfig::new(1, 8).with_max_classes(32);
    let registry = one_tenant(config, encoder, model);
    // predicted=20 passes eager validation (< max_classes) but is past
    // the learner's 10 admitted classes, so the learner rejects it.
    let error = registry
        .feedback("t", &test.images()[0], 20, 0)
        .expect_err("the learner must reject the prediction");
    assert!(matches!(error, ServeError::Core(_)));
    assert_eq!(registry.stats().learn_rejected, 1);
    let message = error.to_string();
    assert!(
        message.contains("predicted class 20 "),
        "the error must name the prediction: {message}"
    );
    // Nothing was classified: the prefix names no operation.
    assert!(
        message.starts_with("request failed: "),
        "neutral prefix: {message}"
    );
}

/// Every learn or feedback sample that reaches its tenant's learner is
/// timed once in `uhd_learn_apply_ns` (learner lock requested →
/// released, publishes included), on `/metrics` and in
/// `metrics_json()`. Its count reconciles with the applied and
/// rejected learn counters plus correct feedback, which changes
/// nothing; a label refused before encoding never reaches the lock.
#[test]
fn learn_apply_histogram_reconciles_with_the_learn_counters() {
    let (encoder, model, test) = fixture(150, 20, 512, 17);
    let config = ServeConfig::new(2, 8)
        .with_snapshot_every(4)
        .with_max_classes(32);
    let registry = one_tenant(config, encoder, model);
    for (i, image) in test.images().iter().enumerate() {
        registry.learn("t", image, i % 10).unwrap();
    }
    let image = &test.images()[0];
    registry.feedback("t", image, 1, 2).unwrap(); // applied
    registry.feedback("t", image, 3, 3).unwrap(); // correct: no-op
    let correct = 1;
    // Past the learner's 10 classes: rejected under the lock.
    assert!(matches!(
        registry.feedback("t", image, 20, 0),
        Err(ServeError::Core(_))
    ));
    // Past `max_classes`: refused before the permit and the lock.
    assert!(matches!(
        registry.learn("t", image, 40),
        Err(ServeError::InvalidLabel { .. })
    ));
    let stats = registry.stats();
    assert_eq!((stats.learn_updates, stats.learn_rejected), (21, 1));
    let timed = stats.learn_updates + stats.learn_rejected + correct;

    let text = registry.render_metrics();
    assert!(
        text.contains(&format!("uhd_learn_apply_ns_count {timed}\n")),
        "learn-apply count must be {timed}:\n{text}"
    );
    assert!(text.contains("uhd_learn_apply_ns{quantile=\"0.99\"}"));
    let doc = parse(&registry.metrics_json()).expect("metrics JSON export must parse");
    let apply = doc
        .get("histograms")
        .and_then(|h| h.get("uhd_learn_apply_ns"))
        .expect("learn-apply histogram present");
    assert_eq!(
        apply.get("count").and_then(Json::as_f64),
        Some(timed as f64)
    );
    assert!(apply.get("p50").and_then(Json::as_f64).unwrap() > 0.0);
}

/// The counters record the registry's lifecycle: the dispatched
/// kernel, batch formation, the hot model swap (with its generation),
/// and the learner's snapshot publish, in `stats()` and on `/metrics`.
/// (The name is kept from the trace ring these counters replaced.)
#[test]
fn trace_ring_records_the_engine_lifecycle() {
    let (encoder, model, test) = fixture(150, 40, 512, 13);
    let (_, model_b, _) = fixture(180, 10, 512, 99);
    let registry = one_tenant(ServeConfig::new(2, 8), encoder, model);
    registry.classify_many("t", test.images()).unwrap();
    let generation = registry.update_model("t", model_b.clone()).unwrap();
    assert_eq!(generation, 1);
    registry.learn("t", &test.images()[0], 0).unwrap();
    registry.publish("t").unwrap();
    let (stats, text) = (registry.stats(), registry.render_metrics());

    assert_eq!(stats.kernel, Kernel::active().name());
    assert!(stats.batches >= 1, "batch formation must be counted");
    assert_eq!(stats.model_swaps, 1);
    assert_eq!(stats.snapshots_published, 1);
    // The swap made generation 1, the publish generation 2.
    assert!(
        text.contains("uhd_tenant_generation{tenant=\"t\"} 2\n"),
        "{text}"
    );
    assert!(text.contains(&format!(
        "uhd_kernel_info{{kernel=\"{}\"}} 1\n",
        Kernel::active().name()
    )));
}

/// `with_telemetry(false)` swaps in the no-op recorder: the registry
/// serves identically but exposes nothing — empty text exposition,
/// empty JSON object.
#[test]
fn telemetry_off_serves_identically_but_exposes_nothing() {
    let (encoder, model, test) = fixture(150, 30, 512, 5);
    let config = ServeConfig::new(2, 8).with_telemetry(false);
    let registry = one_tenant(config, encoder, model);
    let responses = registry.classify_many("t", test.images()).unwrap();
    let (stats, text, json) = (
        registry.stats(),
        registry.render_metrics(),
        registry.metrics_json(),
    );

    assert_eq!(responses.len(), 30);
    // The counter surface still works (stats are cheap atomics); only
    // the exposition goes dark.
    assert_eq!(stats.completed, 30);
    assert_eq!(text, "");
    assert_eq!(json, "{}");
}

/// Regression for the queue-gauge shutdown freeze: a post-shutdown
/// scrape must read the terminal depth of the line for permits — 0 —
/// while the high-water mark keeps its historical value. The gauge is
/// written under the gate's lock, so no stale write can land last.
#[test]
fn queue_depth_gauge_reads_zero_after_shutdown() {
    let (encoder, model, test) = fixture(150, 50, 512, 9);
    let (gated, latch) = GateEncoder::new(encoder);
    let registry = one_tenant(ServeConfig::new(2, 8), gated, model);
    // One wave deep enough to move both gauges: two callers park on
    // the permits, the rest wait in line when shutdown starts…
    std::thread::scope(|scope| {
        let callers: Vec<_> = test
            .images()
            .iter()
            .map(|img| scope.spawn(|| registry.classify("t", img)))
            .collect();
        while registry.queue_depth() != test.len() - 2 {
            std::thread::yield_now();
        }
        let shutdown = scope.spawn(|| registry.shutdown());
        latch.open();
        shutdown.join().unwrap();
        for caller in callers {
            caller.join().unwrap().unwrap();
        }
    });
    // …then the terminal depth must be what the scrape reads.
    let text = registry.render_metrics();
    assert!(
        text.contains("uhd_queue_depth 0\n"),
        "terminal queue depth must read 0 after shutdown:\n{text}"
    );
    let hw = text
        .lines()
        .find_map(|l| l.strip_prefix("uhd_queue_depth_hw "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("high-water gauge renders");
    assert!(hw >= 1, "the wave must have registered a high-water mark");
}

//! Online-learning interference: learn throughput vs classify latency
//! when both streams hit a one-tenant registry at once.
//!
//! Run: `cargo run --release -p uhd-bench --bin online`
//!
//! Three phases on the same trained model and workload:
//!
//! * `classify_only` — the serving baseline: the query stream alone,
//!   with per-request p50/p99 latency;
//! * `learn_only` — the labelled stream alone (synchronous `learn`
//!   calls plus a final `publish`), i.e. the learner's peak ingest rate
//!   including snapshot publishes;
//! * `mixed` — both streams concurrently: one client thread drives
//!   queries while the main thread pours labelled samples in,
//!   publishing the learner before stopping the clock.
//!
//! The interesting number is the classify-throughput ratio
//! `mixed / classify_only`: how much serving capacity continuous
//! learning costs.
//!
//! The report goes to stdout *and* to `BENCH_online.json` in the
//! repository root — the machine-attributed perf trajectory CI
//! validates and developers refresh (see README). Honours
//! `UHD_BENCH_QUICK` (`"0"`/empty/unset ⇒ full run) plus the usual
//! `UHD_TRAIN_N` / `UHD_TEST_N` / `UHD_SEED` sizing and the
//! `UHD_KERNEL` kernel override.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use uhd_bench::{env_flag, machine_json, uhd_encoder, ExperimentConfig, Latencies, Workbench};
use uhd_core::encoder::uhd::UhdEncoder;
use uhd_core::model::HdcModel;
use uhd_datasets::synth::SyntheticKind;
use uhd_serve::{ModelRegistry, ServeConfig, StatsSnapshot};

/// The tenant name every registry in this bench serves its model under.
const TENANT: &str = "bench";

/// Start a registry serving `model` through `encoder` as its only
/// tenant.
fn one_tenant(config: ServeConfig, encoder: &Arc<UhdEncoder>, model: &HdcModel) -> ModelRegistry {
    let registry = ModelRegistry::start(config).expect("registry start");
    registry
        .register(TENANT, encoder.clone(), model.clone())
        .expect("register");
    registry
}

/// Apply the labelled stream, then publish what the `snapshot_every`
/// cadence left unpublished.
fn learn_stream_through(registry: &ModelRegistry, learn_stream: &[(Vec<u8>, usize)]) {
    for (image, label) in learn_stream {
        registry.learn(TENANT, image, *label).expect("learn");
    }
    registry.publish(TENANT).expect("publish");
}

/// Phase 1: the query stream alone — (images per second, per-request
/// latency percentiles).
fn classify_only(
    config: ServeConfig,
    encoder: &Arc<UhdEncoder>,
    model: &HdcModel,
    query_stream: &[Vec<u8>],
    latency_n: usize,
) -> (f64, Latencies) {
    let registry = one_tenant(config, encoder, model);
    let t0 = Instant::now();
    let responses = registry.classify_many(TENANT, query_stream).expect("serve");
    assert_eq!(responses.len(), query_stream.len());
    let ips = query_stream.len() as f64 / t0.elapsed().as_secs_f64();
    // A second, request-at-a-time pass for the latency distribution
    // (classify_many hides per-request wait behind batch pipelining).
    let mut lat = Latencies::with_capacity(latency_n);
    for image in query_stream.iter().take(latency_n) {
        let t0 = Instant::now();
        let _ = registry.classify(TENANT, image).expect("classify");
        lat.record(t0.elapsed());
    }
    (ips, lat)
}

/// Phase 2: the labelled stream alone — samples per second through
/// `learn`, snapshot publishes included.
fn learn_only(
    config: ServeConfig,
    encoder: &Arc<UhdEncoder>,
    model: &HdcModel,
    learn_stream: &[(Vec<u8>, usize)],
) -> (f64, StatsSnapshot) {
    let registry = one_tenant(config, encoder, model);
    let t0 = Instant::now();
    learn_stream_through(&registry, learn_stream);
    let sps = learn_stream.len() as f64 / t0.elapsed().as_secs_f64();
    let stats = registry.stats();
    assert_eq!(
        stats.learn_updates,
        learn_stream.len() as u64,
        "every labelled sample must be applied"
    );
    (sps, stats)
}

/// Phase 3: both streams concurrently — (classify images/s, learn
/// samples/s, final stats).
fn mixed(
    config: ServeConfig,
    encoder: &Arc<UhdEncoder>,
    model: &HdcModel,
    query_stream: &[Vec<u8>],
    learn_stream: &[(Vec<u8>, usize)],
) -> (f64, f64, StatsSnapshot) {
    let registry = one_tenant(config, encoder, model);
    let stop = AtomicBool::new(false);
    let (classify_ips, learn_sps) = std::thread::scope(|scope| {
        let (stop, registry) = (&stop, &registry);
        let prober = scope.spawn(move || {
            // Keep classifying until the learn stream is applied, then
            // report the observed query throughput.
            let t0 = Instant::now();
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let responses = registry.classify_many(TENANT, query_stream).expect("serve");
                served += responses.len() as u64;
            }
            served as f64 / t0.elapsed().as_secs_f64()
        });
        let t0 = Instant::now();
        learn_stream_through(registry, learn_stream);
        let learn_sps = learn_stream.len() as f64 / t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let classify_ips = prober.join().expect("prober panicked");
        (classify_ips, learn_sps)
    });
    let stats = registry.stats();
    assert_eq!(stats.learn_submitted, stats.learn_updates);
    assert!(
        stats.snapshots_published >= 1,
        "the mixed phase must have hot-published snapshots"
    );
    (classify_ips, learn_sps, stats)
}

/// Everything the JSON report needs from the three phases.
struct Report {
    quick: bool,
    d: u32,
    queries: usize,
    learn_samples: usize,
    shards: usize,
    snapshot_every: usize,
    classify_only_ips: f64,
    latencies: Latencies,
    learn_only_sps: f64,
    learn_only_stats: StatsSnapshot,
    mixed_classify_ips: f64,
    mixed_learn_sps: f64,
    mixed_stats: StatsSnapshot,
}

/// Assemble the full `BENCH_online.json` document.
fn render_report(r: &Report) -> String {
    let interference = r.mixed_classify_ips / r.classify_only_ips;
    let mut doc = String::new();
    let out = &mut doc;
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"bench\": \"online\",").unwrap();
    writeln!(out, "  \"quick\": {},", r.quick).unwrap();
    writeln!(out, "  \"machine\": {},", machine_json()).unwrap();
    writeln!(
        out,
        "  \"workload\": {{\"dataset\": \"synthetic-mnist\", \"dim\": {}, \"queries\": {}, \
         \"learn_samples\": {}, \"shards\": {}, \"snapshot_every\": {}}},",
        r.d, r.queries, r.learn_samples, r.shards, r.snapshot_every
    )
    .unwrap();
    writeln!(
        out,
        "  \"classify_only_images_per_sec\": {:.1},",
        r.classify_only_ips
    )
    .unwrap();
    writeln!(out, "  \"request_latency\": {},", r.latencies.json()).unwrap();
    writeln!(
        out,
        "  \"learn_only_samples_per_sec\": {:.1},",
        r.learn_only_sps
    )
    .unwrap();
    writeln!(
        out,
        "  \"learn_only_snapshots_published\": {},",
        r.learn_only_stats.snapshots_published
    )
    .unwrap();
    writeln!(
        out,
        "  \"mixed_classify_images_per_sec\": {:.1},",
        r.mixed_classify_ips
    )
    .unwrap();
    writeln!(
        out,
        "  \"mixed_learn_samples_per_sec\": {:.1},",
        r.mixed_learn_sps
    )
    .unwrap();
    writeln!(
        out,
        "  \"mixed_snapshots_published\": {},",
        r.mixed_stats.snapshots_published
    )
    .unwrap();
    // The registry's own histogram view of the mixed phase: classify
    // submit→completion.
    writeln!(
        out,
        "  \"engine_latency\": {{\"p50_us\": {}, \"p99_us\": {}, \"queue_depth_hw\": {}}},",
        r.mixed_stats.p50_us, r.mixed_stats.p99_us, r.mixed_stats.queue_depth_hw
    )
    .unwrap();
    writeln!(
        out,
        "  \"classify_throughput_ratio_under_learning\": {interference:.3}"
    )
    .unwrap();
    writeln!(out, "}}").unwrap();
    doc
}

fn main() {
    let cfg = ExperimentConfig::from_env();
    let quick = env_flag("UHD_BENCH_QUICK");
    let d = if quick { 512 } else { 2048 };
    let queries = if quick { 300 } else { 2000 };
    let learn_samples = if quick { 300 } else { 2000 };

    let bench = Workbench::new(SyntheticKind::Mnist, &cfg);
    let encoder = Arc::new(uhd_encoder(d, bench.train.pixels()));
    let model = HdcModel::train_parallel(
        encoder.as_ref(),
        bench.train_data(),
        bench.train.classes(),
        cfg.threads,
    )
    .expect("training failed");

    let query_stream: Vec<Vec<u8>> = bench
        .test
        .images()
        .iter()
        .cycle()
        .take(queries)
        .cloned()
        .collect();
    let learn_stream: Vec<(Vec<u8>, usize)> = bench
        .train
        .images()
        .iter()
        .zip(bench.train.labels())
        .cycle()
        .take(learn_samples)
        .map(|(img, &label)| (img.clone(), label))
        .collect();

    let shards = cfg.threads.clamp(1, 4);
    let config = ServeConfig::new(shards, 32).with_snapshot_every(64);
    let latency_n = queries.min(if quick { 150 } else { 1000 });

    let (classify_only_ips, latencies) =
        classify_only(config, &encoder, &model, &query_stream, latency_n);
    let (learn_only_sps, learn_only_stats) = learn_only(config, &encoder, &model, &learn_stream);
    let (mixed_classify_ips, mixed_learn_sps, mixed_stats) =
        mixed(config, &encoder, &model, &query_stream, &learn_stream);

    // --- JSON report: stdout + BENCH_online.json in the repo root. ---
    let doc = render_report(&Report {
        quick,
        d,
        queries,
        learn_samples,
        shards,
        snapshot_every: config.snapshot_every,
        classify_only_ips,
        latencies,
        learn_only_sps,
        learn_only_stats,
        mixed_classify_ips,
        mixed_learn_sps,
        mixed_stats,
    });
    print!("{doc}");
    uhd_bench::write_bench_json("BENCH_online.json", &doc);
}

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
//! `learn_only` and `mixed` each run one untimed warm-up pass, then
//! passes on a fresh registry under the repeated-pass rule of
//! `uhd_bench`, and report the median rate with its IQR (`*_iqr`).
//!
//! The interesting number is the classify-throughput ratio
//! `mixed / classify_only`: how much serving capacity continuous
//! learning costs. The publish layer gets its own figure, `publish_us`:
//! the median and IQR of one `ModelRegistry::publish` carrying
//! [`PUBLISH_PENDING`] learned samples (fold the pending counters into
//! the class sums, copy and rebinarize them, swap the model), over
//! [`PUBLISH_REPEATS`] publishes.
//!
//! The report goes to stdout *and* to `BENCH_online.json` in the
//! repository root — the machine-attributed perf trajectory developers
//! refresh (see README); quick runs write `target/bench-quick/`
//! instead, which is what CI validates. Honours
//! `UHD_BENCH_QUICK` (`"0"`/empty/unset ⇒ full run) plus the usual
//! `UHD_TRAIN_N` / `UHD_TEST_N` / `UHD_SEED` sizing and the
//! `UHD_KERNEL` kernel override.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uhd_bench::{
    env_flag, machine_json, repeat_passes, uhd_encoder, ExperimentConfig, Latencies, Repeated,
    Workbench,
};
use uhd_core::encoder::uhd::UhdEncoder;
use uhd_core::model::HdcModel;
use uhd_datasets::synth::SyntheticKind;
use uhd_serve::{ModelRegistry, ServeConfig, StatsSnapshot};

/// The tenant name every registry in this bench serves its model under.
const TENANT: &str = "bench";

/// Learned samples pending at each timed publish: one `snapshot_every`
/// cadence of the served configuration.
const PUBLISH_PENDING: usize = 64;

/// Timed publishes behind `publish_us`.
const PUBLISH_REPEATS: usize = 31;

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
/// cadence left unpublished; returns the time taken.
fn learn_stream_through(registry: &ModelRegistry, learn_stream: &[(Vec<u8>, usize)]) -> Duration {
    let t0 = Instant::now();
    for (image, label) in learn_stream {
        registry.learn(TENANT, image, *label).expect("learn");
    }
    registry.publish(TENANT).expect("publish");
    t0.elapsed()
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
/// `learn`, snapshot publishes included, each pass on a fresh
/// registry; the stats are the last pass's.
fn learn_only(
    quick: bool,
    config: ServeConfig,
    encoder: &Arc<UhdEncoder>,
    model: &HdcModel,
    learn_stream: &[(Vec<u8>, usize)],
) -> (Repeated, StatsSnapshot) {
    let pass = || {
        let registry = one_tenant(config, encoder, model);
        let took = learn_stream_through(&registry, learn_stream);
        let stats = registry.stats();
        assert_eq!(
            stats.learn_updates,
            learn_stream.len() as u64,
            "every labelled sample must be applied"
        );
        (
            took,
            (learn_stream.len() as f64 / took.as_secs_f64(), stats),
        )
    };
    pass();
    let passes = repeat_passes(quick, pass);
    let rates: Vec<f64> = passes.iter().map(|(rate, _)| *rate).collect();
    let stats = passes.into_iter().last().expect("at least one pass").1;
    (Repeated::of(&rates), stats)
}

/// One pass of phase 3 on a fresh registry: (time, classify images/s,
/// learn samples/s, final stats).
fn mixed_pass(
    config: ServeConfig,
    encoder: &Arc<UhdEncoder>,
    model: &HdcModel,
    query_stream: &[Vec<u8>],
    learn_stream: &[(Vec<u8>, usize)],
) -> (Duration, f64, f64, StatsSnapshot) {
    let registry = one_tenant(config, encoder, model);
    let stop = AtomicBool::new(false);
    let (took, classify_ips) = std::thread::scope(|scope| {
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
        let took = learn_stream_through(registry, learn_stream);
        stop.store(true, Ordering::Relaxed);
        (took, prober.join().expect("prober panicked"))
    });
    let stats = registry.stats();
    assert_eq!(stats.learn_submitted, stats.learn_updates);
    assert!(
        stats.snapshots_published >= 1,
        "the mixed phase must have hot-published snapshots"
    );
    let learn_sps = learn_stream.len() as f64 / took.as_secs_f64();
    (took, classify_ips, learn_sps, stats)
}

/// Phase 3: both streams concurrently, under the repeated-pass rule —
/// (classify images/s, learn samples/s, the last pass's stats).
fn mixed(
    quick: bool,
    config: ServeConfig,
    encoder: &Arc<UhdEncoder>,
    model: &HdcModel,
    query_stream: &[Vec<u8>],
    learn_stream: &[(Vec<u8>, usize)],
) -> (Repeated, Repeated, StatsSnapshot) {
    let pass = || {
        let (took, classify_ips, learn_sps, stats) =
            mixed_pass(config, encoder, model, query_stream, learn_stream);
        (took, (classify_ips, learn_sps, stats))
    };
    pass();
    let passes = repeat_passes(quick, pass);
    let classify: Vec<f64> = passes.iter().map(|p| p.0).collect();
    let learn: Vec<f64> = passes.iter().map(|p| p.1).collect();
    let stats = passes.into_iter().last().expect("at least one pass").2;
    (Repeated::of(&classify), Repeated::of(&learn), stats)
}

/// The publish layer alone: learn [`PUBLISH_PENDING`] samples (untimed,
/// on a registry whose cadence never publishes by itself), then time
/// one `publish`; one warm-up, then [`PUBLISH_REPEATS`] timed
/// publishes. Microseconds per publish.
fn publish_cost(
    encoder: &Arc<UhdEncoder>,
    model: &HdcModel,
    learn_stream: &[(Vec<u8>, usize)],
) -> Repeated {
    let config = ServeConfig::new(1, 32).with_snapshot_every(usize::MAX);
    let registry = one_tenant(config, encoder, model);
    let mut stream = learn_stream.iter().cycle();
    let mut publish = || {
        for (image, label) in stream.by_ref().take(PUBLISH_PENDING) {
            registry.learn(TENANT, image, *label).expect("learn");
        }
        let t0 = Instant::now();
        registry.publish(TENANT).expect("publish");
        t0.elapsed().as_secs_f64() * 1e6
    };
    publish();
    let us: Vec<f64> = (0..PUBLISH_REPEATS).map(|_| publish()).collect();
    Repeated::of(&us)
}

/// Everything the JSON report needs from the three phases and the
/// publish probe.
struct Report {
    quick: bool,
    d: u32,
    queries: usize,
    learn_samples: usize,
    shards: usize,
    snapshot_every: usize,
    classify_only_ips: f64,
    latencies: Latencies,
    learn_only_sps: Repeated,
    learn_only_stats: StatsSnapshot,
    mixed_classify_ips: Repeated,
    mixed_learn_sps: Repeated,
    mixed_stats: StatsSnapshot,
    publish_us: Repeated,
}

/// Assemble the full `BENCH_online.json` document.
fn render_report(r: &Report) -> String {
    let interference = r.mixed_classify_ips.median / r.classify_only_ips;
    let mut doc = String::new();
    let out = &mut doc;
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"bench\": \"online\",").unwrap();
    writeln!(out, "  \"quick\": {},", r.quick).unwrap();
    writeln!(out, "  \"machine\": {},", machine_json()).unwrap();
    writeln!(
        out,
        "  \"workload\": {{\"dataset\": \"synthetic-mnist\", \"dim\": {}, \"queries\": {}, \
         \"learn_samples\": {}, \"shards\": {}, \"snapshot_every\": {}, \
         \"publish_pending\": {PUBLISH_PENDING}, \"publish_repeats\": {PUBLISH_REPEATS}}},",
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
    for (name, figure, digits) in [
        ("learn_only_samples_per_sec", r.learn_only_sps, 1),
        ("mixed_classify_images_per_sec", r.mixed_classify_ips, 1),
        ("mixed_learn_samples_per_sec", r.mixed_learn_sps, 1),
        ("publish_us", r.publish_us, 2),
    ] {
        writeln!(
            out,
            "  \"{name}\": {:.digits$},\n  \"{name}_iqr\": {:.digits$},",
            figure.median, figure.iqr
        )
        .unwrap();
    }
    writeln!(
        out,
        "  \"learn_only_snapshots_published\": {},",
        r.learn_only_stats.snapshots_published
    )
    .unwrap();
    writeln!(
        out,
        "  \"mixed_snapshots_published\": {},",
        r.mixed_stats.snapshots_published
    )
    .unwrap();
    // The registry's own histogram view of the last mixed pass:
    // classify arrival→answer.
    writeln!(
        out,
        "  \"registry_latency\": {{\"p50_us\": {}, \"p99_us\": {}, \"queue_depth_hw\": {}}},",
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
    let config = ServeConfig::new(shards, 32).with_snapshot_every(PUBLISH_PENDING);
    let latency_n = queries.min(if quick { 150 } else { 1000 });

    let (classify_only_ips, latencies) =
        classify_only(config, &encoder, &model, &query_stream, latency_n);
    let (learn_only_sps, learn_only_stats) =
        learn_only(quick, config, &encoder, &model, &learn_stream);
    let (mixed_classify_ips, mixed_learn_sps, mixed_stats) = mixed(
        quick,
        config,
        &encoder,
        &model,
        &query_stream,
        &learn_stream,
    );
    let publish_us = publish_cost(&encoder, &model, &learn_stream);

    // --- JSON report: stdout + BENCH_online.json (see `bench_dir`). ---
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
        publish_us,
    });
    print!("{doc}");
    uhd_bench::write_bench_json("BENCH_online.json", &doc);
}

//! Serving throughput: a batched + sharded one-tenant `uhd-serve`
//! registry vs the serial per-image loop, swept over batch size × shard
//! count, plus a
//! kernel microbench pitting the dispatched SIMD popcount path against
//! the scalar fallback on the associative-memory sweep.
//!
//! Run: `cargo run --release -p uhd-bench --bin throughput`
//!
//! Two serial baselines are measured on the same synthetic workload:
//!
//! * `serial_classify` — the status-quo path the registry replaces: one
//!   image at a time through `HdcModel::classify` (default integer
//!   cosine over the class sums);
//! * `serial_binarized` — one image at a time through the binarized
//!   query path, i.e. the same decisions the registry produces, but
//!   without batching, sharding, or the transposed class store.
//!
//! A full run times each baseline over alternated repeated passes and
//! reports the median pass rate with its IQR (`*_iqr`).
//!
//! The sweep then serves the identical image stream through a
//! `ModelRegistry` for every (shards, max_batch) combination, and the
//! best configuration is re-run request-by-request for p50/p99 latency.
//!
//! The report goes to stdout *and* to `BENCH_throughput.json` in the
//! repository root — the machine-attributed perf trajectory developers
//! refresh (see README); quick runs write `target/bench-quick/`
//! instead, which is what CI validates. Honours
//! `UHD_BENCH_QUICK` (`"0"`/empty/unset ⇒ full run) plus the usual
//! `UHD_TRAIN_N` / `UHD_TEST_N` / `UHD_SEED` sizing and the
//! `UHD_KERNEL` kernel override.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uhd_bench::{
    env_flag, iqr, machine_json, median, tabular_encoder, text_encoder, uhd_encoder,
    ExperimentConfig, Latencies, Workbench, MIN_PASSES, PASS_SPAN,
};
use uhd_core::accumulator::BitSliceAccumulator;
use uhd_core::assoc::AssociativeMemory;
use uhd_core::encoder::uhd::UhdEncoder;
use uhd_core::hypervector::{words_for_dim, Hypervector};
use uhd_core::kernels::Kernel;
use uhd_core::model::{HdcModel, InferenceMode, LabelledSamples};
use uhd_core::Encoder;
use uhd_datasets::synth::SyntheticKind;
use uhd_datasets::{generate_language_id, generate_sensor_rows, SensorSpec, TextSpec};
use uhd_lowdisc::rng::Xoshiro256StarStar;
use uhd_serve::{ModelRegistry, ServeConfig};

/// The tenant name every registry in this bench serves its model under.
const TENANT: &str = "bench";

/// Minimum time each telemetry mode is timed for in the full-run
/// instrumentation-overhead bench.
const OVERHEAD_SPAN: Duration = Duration::from_secs(1);

/// Minimum wave pairs in the full-run instrumentation-overhead bench,
/// so its median has pairs to choose from however fast a wave runs.
const OVERHEAD_PAIRS: usize = 15;

/// Start a registry serving `model` through `encoder` as its only
/// tenant.
fn one_tenant(config: ServeConfig, encoder: Arc<dyn Encoder>, model: &HdcModel) -> ModelRegistry {
    let registry = ModelRegistry::start(config).expect("registry start");
    registry
        .register(TENANT, encoder, model.clone())
        .expect("register");
    registry
}

/// Classify `samples` through `registry` as one wave and return
/// samples per second.
fn wave_rate(registry: &ModelRegistry, samples: &[Vec<u8>]) -> f64 {
    let t0 = Instant::now();
    let responses = registry.classify_many(TENANT, samples).expect("serve");
    assert_eq!(responses.len(), samples.len());
    samples.len() as f64 / t0.elapsed().as_secs_f64()
}

struct SweepPoint {
    shards: usize,
    max_batch: usize,
    images_per_sec: f64,
    mean_batch: f64,
    largest_batch: u64,
}

struct ObsOverhead {
    instrumented_images_per_sec: f64,
    noop_images_per_sec: f64,
    overhead_pct: f64,
}

/// Resident vs rematerialized item memory at the paper's encoder
/// geometry: identical answers, heap measured from the encoders' own
/// profiles, encode throughput for both backends.
struct RematResult {
    pixels: usize,
    levels: u32,
    dim: u32,
    resident_heap_bytes: u64,
    rematerialized_heap_bytes: u64,
    heap_ratio: f64,
    resident_images_per_sec: f64,
    rematerialized_images_per_sec: f64,
    throughput_ratio: f64,
}

/// Time the serial encode loop for one backend, images per second.
fn time_encodes(encoder: &UhdEncoder, images: &[Vec<u8>], reps: usize) -> f64 {
    let t0 = Instant::now();
    let mut sink = 0u64;
    for image in images.iter().cycle().take(reps) {
        let hv = encoder.encode(image).expect("encode");
        sink = sink.wrapping_add(hv.words()[0]);
    }
    std::hint::black_box(sink);
    reps as f64 / t0.elapsed().as_secs_f64()
}

/// The rematerialization bench: the paper-config uHD encoder with
/// materialized threshold planes against the seed-resident backend.
/// Equality of answers is the property suite's job; here we record the
/// footprint and the compute cost of regenerating rows on the fly.
fn remat_bench(quick: bool, d: u32, pixels: usize, images: &[Vec<u8>]) -> RematResult {
    let resident = uhd_core::encoder::uhd::UhdConfig::new(d, pixels);
    let levels = resident.levels;
    let rem = UhdEncoder::new(resident.clone().rematerialized()).expect("remat encoder");
    let res = UhdEncoder::new(resident).expect("resident encoder");
    let resident_heap_bytes = res.profile().resident_bytes;
    let rematerialized_heap_bytes = rem.profile().resident_bytes;
    let reps = if quick { 50 } else { 300 };
    // Warm both (fault in the planes / fill the hot-row cache).
    time_encodes(&res, images, reps / 10 + 1);
    time_encodes(&rem, images, reps / 10 + 1);
    let resident_images_per_sec = time_encodes(&res, images, reps);
    let rematerialized_images_per_sec = time_encodes(&rem, images, reps);
    RematResult {
        pixels,
        levels,
        dim: d,
        resident_heap_bytes,
        rematerialized_heap_bytes,
        heap_ratio: resident_heap_bytes as f64 / rematerialized_heap_bytes.max(1) as f64,
        resident_images_per_sec,
        rematerialized_images_per_sec,
        throughput_ratio: rematerialized_images_per_sec / resident_images_per_sec,
    }
}

struct AmKernelResult {
    classes: usize,
    dim: u32,
    reps: usize,
    scalar_sweeps_per_sec: f64,
    dispatched_sweeps_per_sec: f64,
    speedup: f64,
}

/// Time `reps` full associative-memory sweeps under `kernel`.
fn time_sweeps(
    memory: &AssociativeMemory,
    kernel: Kernel,
    queries: &[Hypervector],
    reps: usize,
) -> f64 {
    let mut dists = Vec::new();
    let mut sink = 0u64;
    let t0 = Instant::now();
    for r in 0..reps {
        let query = &queries[r % queries.len()];
        memory
            .hamming_to_all_with(kernel, query, &mut dists)
            .expect("sweep");
        sink = sink.wrapping_add(u64::from(dists[r % dists.len()]));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    // Keep the optimizer honest about the distance results.
    std::hint::black_box(sink);
    reps as f64 / elapsed
}

/// The kernel microbench: the same word-major sweep, scalar fallback vs
/// the runtime-dispatched kernel, on a class store big enough that the
/// cache-blocked inner loops dominate.
fn am_kernel_bench(quick: bool) -> AmKernelResult {
    let (classes, dim, reps) = if quick {
        (256usize, 2048u32, 200usize)
    } else {
        (1024usize, 8192u32, 600usize)
    };
    let mut rng = Xoshiro256StarStar::seeded(0xbe_ec);
    let class_hvs: Vec<Hypervector> = (0..classes)
        .map(|_| Hypervector::random(dim, &mut rng))
        .collect();
    let memory = AssociativeMemory::new(&class_hvs).expect("memory");
    let queries: Vec<Hypervector> = (0..16)
        .map(|_| Hypervector::random(dim, &mut rng))
        .collect();

    // Warm both paths (page in the planes) before timing.
    time_sweeps(&memory, Kernel::scalar(), &queries, reps / 10 + 1);
    time_sweeps(&memory, Kernel::active(), &queries, reps / 10 + 1);

    let scalar_sweeps_per_sec = time_sweeps(&memory, Kernel::scalar(), &queries, reps);
    let dispatched_sweeps_per_sec = time_sweeps(&memory, Kernel::active(), &queries, reps);
    AmKernelResult {
        classes,
        dim,
        reps,
        scalar_sweeps_per_sec,
        dispatched_sweeps_per_sec,
        speedup: dispatched_sweeps_per_sec / scalar_sweeps_per_sec,
    }
}

/// Isolated per-layer cost of one encode at the paper geometry
/// (H = 784 masks) for one dimension, in nanoseconds per image.
struct EncodeLayers {
    dim: u32,
    accumulate_ns: f64,
    binarize_ns: f64,
    bipolar_sums_ns: f64,
}

/// Masks bundled per image in the per-layer bench: MNIST's 28×28.
const LAYER_MASKS: usize = 784;

/// The per-layer bench: bundling 784 random masks through
/// `add_masks` (the encoders' block path), binarizing, and reading the
/// bipolar sums, each timed alone at D ∈ {1k, 2k, 8k}.
fn encode_layers_bench(quick: bool) -> Vec<EncodeLayers> {
    let reps: u32 = if quick { 20 } else { 500 };
    let mut rng = Xoshiro256StarStar::seeded(0x1a7e_25);
    [1024u32, 2048, 8192]
        .into_iter()
        .map(|dim| {
            let wc = words_for_dim(dim);
            let words: Vec<u64> = (0..LAYER_MASKS * wc).map(|_| rng.next_u64()).collect();
            let masks: Vec<&[u64]> = words.chunks_exact(wc).collect();
            let mut acc = BitSliceAccumulator::new(dim);
            let mut time = |layer: &mut dyn FnMut(&mut BitSliceAccumulator)| {
                layer(&mut acc); // warm
                let t0 = Instant::now();
                for _ in 0..reps {
                    layer(&mut acc);
                }
                t0.elapsed().as_nanos() as f64 / f64::from(reps)
            };
            let accumulate_ns = time(&mut |acc| {
                acc.clear();
                acc.add_masks(std::hint::black_box(&masks));
            });
            let binarize_ns = time(&mut |acc| {
                std::hint::black_box(acc.binarize());
            });
            let bipolar_sums_ns = time(&mut |acc| {
                std::hint::black_box(acc.bipolar_sums());
            });
            EncodeLayers {
                dim,
                accumulate_ns,
                binarize_ns,
                bipolar_sums_ns,
            }
        })
        .collect()
}

/// Run `measure(&state, side)` for sides 0 and 1 in pairs, the order
/// flipped every pair, until each side has run for `span` over at least
/// `min_pairs` pairs, and return each side's results in run order.
/// Each pair first builds its `state` with `setup(order)`, given the
/// pair's two sides in run order, and drops it when the pair ends.
fn alternate<S>(
    span: Duration,
    min_pairs: usize,
    mut setup: impl FnMut([usize; 2]) -> S,
    mut measure: impl FnMut(&S, usize) -> f64,
) -> [Vec<f64>; 2] {
    let mut results: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut spent = [Duration::ZERO; 2];
    while results[0].len() < min_pairs || spent.iter().any(|&s| s < span) {
        let pair = results[0].len();
        let order = [pair % 2, (pair + 1) % 2];
        let state = setup(order);
        for side in order {
            let t0 = Instant::now();
            results[side].push(measure(&state, side));
            spent[side] += t0.elapsed();
        }
    }
    results
}

/// The instrumentation-overhead bench: the full image stream through
/// the best sweep configuration with live telemetry (histograms,
/// gauges, staged timing) vs a no-op recorder. Waves run in pairs, one
/// per mode, with the order flipped every pair, until each mode has run
/// for [`OVERHEAD_SPAN`] over at least [`OVERHEAD_PAIRS`] pairs (one
/// pair in quick mode). Each pair builds both registries afresh, in
/// its run order, so neither mode keeps the first-built registry (or
/// its warm-up) for the whole run. The overhead is the median of the
/// per-pair ratios: each pair's two waves share the host's state at
/// that moment, and a wave that scheduler noise slows moves one pair,
/// not the estimate. The reported rates are each mode's median wave.
fn obs_overhead_bench(
    quick: bool,
    best: &SweepPoint,
    encoder: &Arc<UhdEncoder>,
    model: &HdcModel,
    images: &[Vec<u8>],
) -> ObsOverhead {
    let (span, min_pairs) = if quick {
        (Duration::ZERO, 1)
    } else {
        (OVERHEAD_SPAN, OVERHEAD_PAIRS)
    };
    // Index 0: no-op recorder; index 1: live telemetry.
    let build = |mode: usize| {
        let config = ServeConfig::new(best.shards, best.max_batch).with_telemetry(mode == 1);
        one_tenant(config, encoder.clone(), model)
    };
    let rates = alternate(
        span,
        min_pairs,
        |[first, second]| {
            let (a, b) = (build(first), build(second));
            if first == 0 {
                [a, b]
            } else {
                [b, a]
            }
        },
        |registries, mode| wave_rate(&registries[mode], images),
    );
    let [noop, instrumented] = &rates;
    let overheads: Vec<f64> = noop
        .iter()
        .zip(instrumented)
        .map(|(n, i)| (n - i) / n * 100.0)
        .collect();
    ObsOverhead {
        instrumented_images_per_sec: median(instrumented),
        noop_images_per_sec: median(noop),
        overhead_pct: median(&overheads),
    }
}

/// One row of the per-workload comparison: the same registry, same best
/// sweep configuration, serving a different feature-stream family.
struct WorkloadThroughput {
    workload: &'static str,
    encoder: String,
    queries: usize,
    classes: usize,
    samples_per_sec: f64,
}

/// Serve a sample stream through a one-tenant registry at the best
/// configuration and return samples per second.
fn serve_rate(
    best: &SweepPoint,
    encoder: Arc<dyn Encoder>,
    model: &HdcModel,
    samples: &[Vec<u8>],
) -> f64 {
    let config = ServeConfig::new(best.shards, best.max_batch);
    wave_rate(&one_tenant(config, encoder, model), samples)
}

/// The per-workload section: image, text and tabular streams through
/// the *same* registry code path at the best sweep configuration. The
/// image row reuses the already-trained MNIST model; the other two
/// train their own small models on synthetic corpora.
fn per_workload_bench(
    quick: bool,
    d: u32,
    best: &SweepPoint,
    cfg: &ExperimentConfig,
    image_encoder: &Arc<UhdEncoder>,
    image_model: &HdcModel,
    images: &[Vec<u8>],
) -> Vec<WorkloadThroughput> {
    let (train_n, test_n, queries) = if quick {
        (120, 60, 400)
    } else {
        (600, 120, 2000)
    };
    let mut rows = Vec::new();

    rows.push(WorkloadThroughput {
        workload: "image",
        encoder: image_encoder.profile().name.into_owned(),
        queries: images.len(),
        classes: image_model.classes(),
        samples_per_sec: serve_rate(best, image_encoder.clone(), image_model, images),
    });

    let text_spec = TextSpec::new(train_n, test_n, cfg.seed);
    let (train, test) = generate_language_id(text_spec).expect("language-id generation");
    let encoder = Arc::new(text_encoder(d, text_spec.max_len));
    let model = HdcModel::train_parallel(
        encoder.as_ref(),
        LabelledSamples::new(train.samples(), train.labels()).expect("train split"),
        train.classes(),
        cfg.threads,
    )
    .expect("text training failed");
    let sentences: Vec<Vec<u8>> = test
        .samples()
        .iter()
        .cycle()
        .take(queries)
        .cloned()
        .collect();
    rows.push(WorkloadThroughput {
        workload: "text",
        encoder: encoder.profile().name.into_owned(),
        queries: sentences.len(),
        classes: train.classes(),
        samples_per_sec: serve_rate(best, encoder, &model, &sentences),
    });

    let (train, test) =
        generate_sensor_rows(SensorSpec::new(train_n, test_n, cfg.seed)).expect("sensor rows");
    let encoder = Arc::new(tabular_encoder(d, train.max_sample_len()));
    let model = HdcModel::train_parallel(
        encoder.as_ref(),
        LabelledSamples::new(train.samples(), train.labels()).expect("train split"),
        train.classes(),
        cfg.threads,
    )
    .expect("tabular training failed");
    let sensor_rows: Vec<Vec<u8>> = test
        .samples()
        .iter()
        .cycle()
        .take(queries)
        .cloned()
        .collect();
    rows.push(WorkloadThroughput {
        workload: "tabular",
        encoder: encoder.profile().name.into_owned(),
        queries: sensor_rows.len(),
        classes: train.classes(),
        samples_per_sec: serve_rate(best, encoder, &model, &sensor_rows),
    });

    rows
}

/// A serial baseline's rate over repeated passes, in images per second.
struct SerialRate {
    median: f64,
    iqr: f64,
}

/// The two serial per-image baselines the registry is judged against:
/// the default integer-cosine classify and the binarized-query classify
/// (the same decisions the registry produces, but without batching,
/// sharding, or the transposed class store). One pass over `images`
/// takes a few milliseconds, so a full run alternates passes, the
/// order flipped every pass pair, until each baseline has run for
/// [`PASS_SPAN`] over at least [`MIN_PASSES`] passes, and reports
/// each one's median pass rate with its IQR. Quick mode times one pass
/// each.
fn serial_baselines(
    quick: bool,
    model: &HdcModel,
    encoder: &UhdEncoder,
    images: &[Vec<u8>],
) -> [SerialRate; 2] {
    let (span, min_passes) = if quick {
        (Duration::ZERO, 1)
    } else {
        (PASS_SPAN, MIN_PASSES)
    };
    let modes = [InferenceMode::default(), InferenceMode::BinarizedQuery];
    let rates = alternate(
        span,
        min_passes,
        |_| (),
        |(), side| {
            let t0 = Instant::now();
            for image in images {
                let _ = model
                    .classify_with(encoder, image, modes[side])
                    .expect("classify");
            }
            images.len() as f64 / t0.elapsed().as_secs_f64()
        },
    );
    rates.map(|r| SerialRate {
        median: median(&r),
        iqr: iqr(&r),
    })
}

/// Serve the image stream through a one-tenant registry at every
/// (shards × max_batch) point.
fn run_sweep(
    quick: bool,
    hw_threads: usize,
    encoder: &Arc<UhdEncoder>,
    model: &HdcModel,
    images: &[Vec<u8>],
) -> Vec<SweepPoint> {
    let mut shard_opts = vec![1usize, 2];
    if hw_threads > 2 {
        shard_opts.push(hw_threads);
    }
    let batch_opts: &[usize] = if quick { &[8, 64] } else { &[1, 8, 64] };

    let mut points = Vec::new();
    for &shards in &shard_opts {
        for &max_batch in batch_opts {
            let registry = one_tenant(ServeConfig::new(shards, max_batch), encoder.clone(), model);
            let images_per_sec = wave_rate(&registry, images);
            let stats = registry.stats();
            points.push(SweepPoint {
                shards,
                max_batch,
                images_per_sec,
                mean_batch: stats.mean_batch(),
                largest_batch: stats.largest_batch,
            });
        }
    }
    points
}

/// Sizing and serial-baseline context threaded into the report.
struct Workload {
    quick: bool,
    d: u32,
    pixels: usize,
    queries: usize,
    classes: usize,
    hw_threads: usize,
    serial_classify: SerialRate,
    serial_binarized: SerialRate,
}

/// The measured sections rendered after the sweep: latency, overhead,
/// per-workload throughput, and the kernel microbench.
struct Measurements<'a> {
    latencies: &'a Latencies,
    registry_stats: &'a uhd_serve::StatsSnapshot,
    obs: &'a ObsOverhead,
    workloads: &'a [WorkloadThroughput],
    remat: &'a RematResult,
    layers: &'a [EncodeLayers],
    am: &'a AmKernelResult,
}

/// Render the `rematerialization` JSON section: the footprint and
/// throughput trade of regenerating the threshold planes from the seed
/// instead of keeping them resident.
fn render_remat(out: &mut String, remat: &RematResult) {
    writeln!(
        out,
        "  \"rematerialization\": {{\"pixels\": {}, \"levels\": {}, \"dim\": {}, \
         \"resident_heap_bytes\": {}, \"rematerialized_heap_bytes\": {}, \"heap_ratio\": {:.1}, \
         \"resident_images_per_sec\": {:.1}, \"rematerialized_images_per_sec\": {:.1}, \
         \"throughput_ratio\": {:.3}}},",
        remat.pixels,
        remat.levels,
        remat.dim,
        remat.resident_heap_bytes,
        remat.rematerialized_heap_bytes,
        remat.heap_ratio,
        remat.resident_images_per_sec,
        remat.rematerialized_images_per_sec,
        remat.throughput_ratio
    )
    .unwrap();
}

/// Render the `encode_layers` JSON section: isolated bundling /
/// binarization / bipolar-sum cost per image at H = 784, the per-layer
/// numbers the end-to-end figures decompose into.
fn render_layers(out: &mut String, layers: &[EncodeLayers]) {
    writeln!(out, "  \"encode_layers\": [").unwrap();
    for (i, l) in layers.iter().enumerate() {
        let comma = if i + 1 == layers.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"dim\": {}, \"masks\": {LAYER_MASKS}, \"accumulate_ns\": {:.1}, \"binarize_ns\": {:.1}, \"bipolar_sums_ns\": {:.1}}}{comma}",
            l.dim, l.accumulate_ns, l.binarize_ns, l.bipolar_sums_ns
        )
        .unwrap();
    }
    writeln!(out, "  ],").unwrap();
}

/// Assemble the full `BENCH_throughput.json` document.
fn render_report(
    w: &Workload,
    points: &[SweepPoint],
    best: &SweepPoint,
    m: &Measurements,
) -> String {
    let Measurements {
        latencies,
        registry_stats,
        obs,
        workloads,
        remat,
        layers,
        am,
    } = m;
    let mut doc = String::new();
    let out = &mut doc;
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"bench\": \"throughput\",").unwrap();
    writeln!(out, "  \"quick\": {},", w.quick).unwrap();
    writeln!(out, "  \"machine\": {},", machine_json()).unwrap();
    writeln!(
        out,
        "  \"workload\": {{\"dataset\": \"synthetic-mnist\", \"dim\": {}, \"pixels\": {}, \"queries\": {}, \"classes\": {}, \"hw_threads\": {}}},",
        w.d, w.pixels, w.queries, w.classes, w.hw_threads
    )
    .unwrap();
    for (name, rate) in [
        ("serial_classify", &w.serial_classify),
        ("serial_binarized", &w.serial_binarized),
    ] {
        writeln!(
            out,
            "  \"{name}_images_per_sec\": {:.1},\n  \"{name}_images_per_sec_iqr\": {:.1},",
            rate.median, rate.iqr
        )
        .unwrap();
    }
    writeln!(out, "  \"sweep\": [").unwrap();
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"shards\": {}, \"max_batch\": {}, \"images_per_sec\": {:.1}, \"mean_batch\": {:.2}, \"largest_batch\": {}}}{comma}",
            p.shards, p.max_batch, p.images_per_sec, p.mean_batch, p.largest_batch
        )
        .unwrap();
    }
    writeln!(out, "  ],").unwrap();
    writeln!(
        out,
        "  \"best\": {{\"shards\": {}, \"max_batch\": {}, \"images_per_sec\": {:.1}, \"speedup_vs_serial_loop\": {:.2}}},",
        best.shards,
        best.max_batch,
        best.images_per_sec,
        best.images_per_sec / w.serial_classify.median
    )
    .unwrap();
    writeln!(out, "  \"request_latency\": {},", latencies.json()).unwrap();
    // The registry's own view of the same run, from its lock-free
    // histograms (arrival→answer, so the wait for a permit is included).
    writeln!(
        out,
        "  \"registry_latency\": {{\"p50_us\": {}, \"p99_us\": {}, \"queue_depth_hw\": {}}},",
        registry_stats.p50_us, registry_stats.p99_us, registry_stats.queue_depth_hw
    )
    .unwrap();
    writeln!(
        out,
        "  \"obs_overhead\": {{\"instrumented_images_per_sec\": {:.1}, \
         \"noop_images_per_sec\": {:.1}, \"overhead_pct\": {:.2}}},",
        obs.instrumented_images_per_sec, obs.noop_images_per_sec, obs.overhead_pct
    )
    .unwrap();
    // The same registry, same best configuration, across the three
    // feature-stream families — the workload-agnostic serving claim.
    writeln!(out, "  \"workloads\": [").unwrap();
    for (i, w) in workloads.iter().enumerate() {
        let comma = if i + 1 == workloads.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"workload\": \"{}\", \"encoder\": \"{}\", \"queries\": {}, \"classes\": {}, \"samples_per_sec\": {:.1}}}{comma}",
            w.workload, w.encoder, w.queries, w.classes, w.samples_per_sec
        )
        .unwrap();
    }
    writeln!(out, "  ],").unwrap();
    render_remat(out, remat);
    render_layers(out, layers);
    writeln!(
        out,
        "  \"am_kernel\": {{\"classes\": {}, \"dim\": {}, \"reps\": {}, \"scalar_kernel\": \"{}\", \
         \"scalar_sweeps_per_sec\": {:.1}, \"dispatched_kernel\": \"{}\", \
         \"dispatched_sweeps_per_sec\": {:.1}, \"speedup_vs_scalar\": {:.2}}}",
        am.classes,
        am.dim,
        am.reps,
        Kernel::scalar().name(),
        am.scalar_sweeps_per_sec,
        Kernel::active().name(),
        am.dispatched_sweeps_per_sec,
        am.speedup
    )
    .unwrap();
    writeln!(out, "}}").unwrap();
    doc
}

fn main() {
    let cfg = ExperimentConfig::from_env();
    let quick = env_flag("UHD_BENCH_QUICK");
    let d = if quick { 512 } else { 2048 };
    let queries = if quick { 400 } else { 2000 };

    let bench = Workbench::new(SyntheticKind::Mnist, &cfg);
    let encoder = Arc::new(uhd_encoder(d, bench.train.pixels()));
    let model = HdcModel::train_parallel(
        encoder.as_ref(),
        bench.train_data(),
        bench.train.classes(),
        cfg.threads,
    )
    .expect("training failed");

    // The served workload: the test split cycled up to `queries` images.
    let images: Vec<Vec<u8>> = bench
        .test
        .images()
        .iter()
        .cycle()
        .take(queries)
        .cloned()
        .collect();

    let [serial_classify, serial_binarized] = serial_baselines(quick, &model, &encoder, &images);
    let serial_classify_ips = serial_classify.median;

    // --- The sweep: batch size × shard count through the registry. ---
    let hw_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let points = run_sweep(quick, hw_threads, &encoder, &model, &images);

    let best = points
        .iter()
        .max_by(|a, b| a.images_per_sec.total_cmp(&b.images_per_sec))
        .expect("sweep is nonempty");

    // --- Per-request latency at the best configuration, with the
    // registry's own histogram-derived figures alongside. ---
    let latency_n = images.len().min(if quick { 200 } else { 1000 });
    let registry = one_tenant(
        ServeConfig::new(best.shards, best.max_batch),
        encoder.clone(),
        &model,
    );
    let mut latencies = Latencies::with_capacity(latency_n);
    for image in images.iter().take(latency_n) {
        let t0 = Instant::now();
        let _ = registry.classify(TENANT, image).expect("classify");
        latencies.record(t0.elapsed());
    }
    let registry_stats = registry.stats();
    drop(registry);

    // --- Instrumentation overhead: telemetry on vs no-op recorder. ---
    let obs = obs_overhead_bench(quick, best, &encoder, &model, &images);

    // --- Per-workload throughput: image / text / tabular streams
    // through the same registry at the best configuration. ---
    let workloads = per_workload_bench(quick, d, best, &cfg, &encoder, &model, &images);

    // --- Rematerialized vs resident item memory at paper geometry. ---
    let remat = remat_bench(quick, d, bench.train.pixels(), &images);

    // --- Per-layer encode cost at the paper geometry. ---
    let layers = encode_layers_bench(quick);

    // --- Kernel microbench: scalar fallback vs dispatched SIMD. ---
    let am = am_kernel_bench(quick);

    // --- JSON report: stdout + BENCH_throughput.json (see `bench_dir`). ---
    let workload = Workload {
        quick,
        d,
        pixels: bench.train.pixels(),
        queries: images.len(),
        classes: bench.train.classes(),
        hw_threads,
        serial_classify,
        serial_binarized,
    };
    let doc = render_report(
        &workload,
        &points,
        best,
        &Measurements {
            latencies: &latencies,
            registry_stats: &registry_stats,
            obs: &obs,
            workloads: &workloads,
            remat: &remat,
            layers: &layers,
            am: &am,
        },
    );
    print!("{doc}");
    uhd_bench::write_bench_json("BENCH_throughput.json", &doc);

    // Telemetry must be effectively free: ≤3% throughput cost vs a
    // no-op recorder. Quick/CI runs on loaded shared machines are too
    // noisy for a tight bound, so the bar applies to full runs only —
    // mirroring the kernel speedup bar below.
    if !quick {
        assert!(
            obs.overhead_pct <= 3.0,
            "instrumentation overhead {:.2}% exceeds the 3% budget \
             ({:.1} img/s instrumented vs {:.1} img/s no-op)",
            obs.overhead_pct,
            obs.instrumented_images_per_sec,
            obs.noop_images_per_sec
        );
    }

    assert!(
        best.images_per_sec > serial_classify_ips,
        "batched+sharded serving ({:.1} img/s) must beat the serial per-image \
         classify loop ({serial_classify_ips:.1} img/s)",
        best.images_per_sec
    );
    // The acceptance bar for the SIMD kernels: a full run on hardware
    // with a SIMD path must show the dispatched sweep ≥1.5× scalar.
    // Quick/CI runs on loaded shared machines only sanity-check > 1×.
    if Kernel::active().kind() != Kernel::scalar().kind() {
        let bar = if quick { 1.0 } else { 1.5 };
        assert!(
            am.speedup >= bar,
            "dispatched kernel {} achieved only {:.2}x over scalar (bar {bar}x)",
            Kernel::active().name(),
            am.speedup
        );
    }
}

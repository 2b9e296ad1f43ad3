//! Wire-level benchmark of the uHD serving path.
//!
//! One process starts a `ModelRegistry` behind an `HttpServer` on
//! loopback and drives it over HTTP/1.1 keep-alive connections: closed
//! loops of classifies and of learns, alternating in slices.
//! Every answer is checked against the serial reference. With
//! `--trace 1` the run adds an open loop at a fixed arrival rate, wraps
//! the tenants' encoders, replays the layers the wire cannot see, and
//! reports per-layer metrics instead of end-to-end ones.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload mnist-classify --seed 1 --seconds 10 --trace 0 [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod fleet;
mod probe;
mod trace;
mod verify;
mod wire;

use fleet::{Served, Server, Spec, Tenant};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Replay, Tracer};
use wire::{Op, Record, Requests, Stream};

/// Error type of the whole benchmark: any failure ends the run.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// A run sets up at least `SETUP_REPS` times and until
/// `SETUP_SPAN` has passed (at most `SETUP_MAX` times); `setup_s` is the
/// median.
const SETUP_REPS: usize = 3;
const SETUP_SPAN: Duration = Duration::from_secs(1);
const SETUP_MAX: usize = 50;
/// Classify-only warm-up at the start of every phase, not measured.
const WARMUP: Duration = Duration::from_millis(100);
/// Client connections of every loop, each with its own client thread.
const CONNECTIONS: usize = 2;
/// Slices per phase of an untraced run (see [`schedule`]).
const SLICES: usize = 15;
/// The probe time end-to-end timings are scaled to: about its median on
/// the 2-vCPU virtual machine this benchmark was built on (see
/// [`end_to_end`] and the `probe` module).
const PROBE_REF_MS: f64 = 9.0;
/// Busy time on every CPU before the first set-up (see [`warm_cpus`]).
const CPU_WARMUP: Duration = Duration::from_millis(2500);

const USAGE: &str = "usage: wirebench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

impl Args {
    fn parse() -> Result<Args> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut out = PathBuf::from("wirebench/out");
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse()?),
                "--seconds" => seconds = Some(value.parse::<f64>()?),
                "--trace" => trace = Some(value == "1"),
                "--out" => out = PathBuf::from(value),
                _ => return Err(format!("unknown argument {flag}").into()),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            out,
        })
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wirebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("wirebench: {e}");
        std::process::exit(1);
    }
}

/// How a phase loads the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Load {
    /// Two connections, each sending when its last request answered.
    Closed,
    /// The workload's arrival rate, pipelined on two connections.
    Open,
    /// Two connections of learns, closed loop.
    Learn,
}

/// One phase of a run: its load, its share of `--seconds`, and whether
/// the tenants' encoders are traced.
#[derive(Debug, Clone, Copy)]
struct Phase {
    load: Load,
    share: f64,
    traced: bool,
}

fn plan(traced: bool) -> Vec<Phase> {
    let p = |load, share, traced| Phase {
        load,
        share,
        traced,
    };
    if traced {
        // An untraced closed loop first, as the base of
        // `trace.overhead_pct`.
        vec![
            p(Load::Closed, 0.25, false),
            p(Load::Closed, 0.25, true),
            p(Load::Open, 0.3, true),
            p(Load::Learn, 0.2, true),
        ]
    } else {
        // Untraced runs measure only closed loops: on a 2-vCPU virtual
        // machine the open loop's latency swung by more than 100 % between
        // runs, so it is reported per layer, from the traced run.
        vec![p(Load::Closed, 0.5, false), p(Load::Learn, 0.5, false)]
    }
}

/// The order the phases run in, as `(phase, share of --seconds)`
/// slices. Traced phases run one after another, so that each one's
/// encode spans are its own. Untraced phases alternate in `SLICES`
/// slices each, so that every end-to-end figure spans the whole run:
/// the host's speed drifts over seconds.
fn schedule(phases: &[Phase], traced: bool) -> Vec<(usize, f64)> {
    let slices = if traced { 1 } else { SLICES };
    let round = phases.iter().map(|p| p.share / slices as f64).enumerate();
    std::iter::repeat_n(round, slices).flatten().collect()
}

/// A phase under way: its server, its connections' request streams,
/// and what they have recorded so far.
struct Running {
    phase: Phase,
    seed: u64,
    server: Server,
    streams: Vec<Stream>,
    per_conn: Vec<Vec<Record>>,
    encodes: Vec<trace::EncodeSpan>,
}

/// What one phase left behind.
struct Ran {
    phase: Phase,
    records: Vec<Record>,
    /// Its planned length, seconds.
    duration: f64,
    /// The registry's `metrics_json()` at the end of the phase.
    metrics: String,
    /// Snapshot the server saved per tenant that learned.
    snapshots: Vec<Option<PathBuf>>,
    encodes: Vec<trace::EncodeSpan>,
}

impl Ran {
    /// Answers (200) per second over the phase.
    fn rate(&self, op: Op) -> f64 {
        let answered = self.records.iter().filter(|r| r.op == op && r.ok());
        answered.count() as f64 / self.duration
    }

    /// The `q` quantile of the wire latency of the phase's classify
    /// answers, in microseconds.
    fn latency_us(&self, q: f64) -> f64 {
        let answered = self
            .records
            .iter()
            .filter(|r| r.op == Op::Classify && r.ok());
        quantile_us(&sorted(answered.map(Record::latency).collect()), q)
    }
}

fn run(args: &Args) -> Result<()> {
    let spec = fleet::spec(&args.workload).ok_or_else(|| {
        let names: Vec<_> = fleet::WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {:?}; one of {names:?}", args.workload)
    })?;
    std::fs::create_dir_all(&args.out)?;
    warm_cpus();

    // Set-up: data, encoders, training, registry and server. Repeated,
    // with only the last instance kept.
    let mut setup = Vec::new();
    let mut ready: Option<(Vec<Tenant>, Server)> = None;
    let began = Instant::now();
    while setup.len() < SETUP_REPS || (began.elapsed() < SETUP_SPAN && setup.len() < SETUP_MAX) {
        if let Some((_, server)) = ready.take() {
            server.stop();
        }
        let start = Instant::now();
        let fleet = fleet::build(spec, args.seed)?;
        let server = Server::start(&fleet, None)?;
        setup.push(start.elapsed().as_secs_f64());
        ready = Some((fleet, server));
    }
    let (fleet, server) = ready.expect("at least one set-up");
    let requests = Requests::new(&fleet);
    // From here the high-water mark covers the traffic, not the set-ups.
    std::fs::write("/proc/self/clear_refs", "5")?;
    let tracer = Arc::new(Tracer::default());

    let phases = plan(args.trace);
    let mut running = Vec::with_capacity(phases.len());
    let mut server = Some(server);
    for (index, &phase) in phases.iter().enumerate() {
        // Every phase gets a registry of its own (the first reuses the
        // one set up), so learns and histograms are scoped to the phase.
        let server = match server.take() {
            Some(s) => s,
            None => Server::start(&fleet, phase.traced.then_some(&tracer))?,
        };
        let seed = args.seed ^ (index as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
        running.push(start_phase(server, &fleet, &requests, phase, args, seed)?);
    }
    tracer.drain();
    let probe = probe::Probe::new();
    let mut probed = Vec::new();
    for (index, share) in schedule(&phases, args.trace) {
        probed.push(probe.time()?.as_secs_f64() * 1e3);
        let r = &mut running[index];
        let addr = r.server.addr();
        let duration = Duration::from_secs_f64(args.seconds * share);
        let (streams, records) = (&mut r.streams, &mut r.per_conn);
        match r.phase.load {
            Load::Open => {
                wire::open_loop(addr, &requests, streams, records, spec.rate_rps, duration)?;
            }
            Load::Closed | Load::Learn => {
                wire::closed_loop(addr, &requests, streams, records, duration)?;
            }
        }
        r.encodes.extend(tracer.drain());
    }
    // The high-water mark over the load, less the client's own records:
    // they grow with throughput and would swamp the server's footprint.
    let client: usize = running
        .iter()
        .flat_map(|r| &r.per_conn)
        .map(|c| c.len() * std::mem::size_of::<Record>())
        .sum();
    let peak_rss = peak_rss_bytes()?.saturating_sub(client as u64);
    let probe_ms = probed.iter().sum::<f64>() / probed.len() as f64;
    let ran = running
        .into_iter()
        .map(|r| finish_phase(r, &fleet, args))
        .collect::<Result<Vec<_>>>()?;

    let mut replay = Replay::default();
    let mut check = verify::Check::default();
    for r in &ran {
        let c = verify::phase(&fleet, &r.records, &r.snapshots, &args.out, &mut replay)?;
        check.wrong += c.wrong;
        check.classified += c.classified;
        check.labelled_right += c.labelled_right;
    }
    let attempted: usize = ran.iter().map(|r| r.records.len()).sum();
    let refused = ran
        .iter()
        .map(|r| r.records.iter().filter(|x| !x.ok()).count())
        .sum::<usize>();
    let failed = refused + check.wrong;

    let mut out = Metrics::default();
    if args.trace {
        per_layer(&mut out, spec, &fleet, &ran, replay, args, &requests)?;
        out.put("host.probe_ms", probe_ms, "ms");
    } else {
        let error_ratio = failed as f64 / attempted.max(1) as f64;
        end_to_end(
            &mut out,
            &ran,
            &setup,
            &check,
            error_ratio,
            peak_rss,
            probe_ms,
        );
    }
    println!(
        "{} seed {} over {} s: {attempted} requests, {refused} not 200, {} answers differing from the serial reference",
        spec.name, args.seed, args.seconds, check.wrong
    );
    out.print_table();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        check.wrong == 0,
        out.json()
    );
    Ok(())
}

/// Warm `server` up with unmeasured classifies and set up the phase's
/// request streams and record buffers.
fn start_phase(
    server: Server,
    fleet: &[Tenant],
    requests: &Requests,
    phase: Phase,
    args: &Args,
    seed: u64,
) -> Result<Running> {
    let streams = |op, seed| -> Vec<Stream> {
        (0..CONNECTIONS)
            .map(|conn| Stream::new(op, fleet.len(), requests.inputs(op), conn, seed))
            .collect()
    };
    let mut warm = vec![Vec::new(); CONNECTIONS];
    let mut warm_streams = streams(Op::Classify, !seed);
    wire::closed_loop(
        server.addr(),
        requests,
        &mut warm_streams,
        &mut warm,
        WARMUP,
    )?;
    if warm.iter().flatten().any(|r| !r.ok()) {
        return Err("a warm-up request was not answered 200".into());
    }
    let op = match phase.load {
        Load::Learn => Op::Learn,
        Load::Closed | Load::Open => Op::Classify,
    };
    let capacity = wire::capacity(Duration::from_secs_f64(args.seconds * phase.share));
    Ok(Running {
        phase,
        seed,
        server,
        streams: streams(op, seed),
        per_conn: (0..CONNECTIONS)
            .map(|_| Vec::with_capacity(capacity))
            .collect(),
        encodes: Vec::new(),
    })
}

/// Publish what each tenant learned, save the served models, read the
/// registry's metrics and stop the phase's server.
fn finish_phase(running: Running, fleet: &[Tenant], args: &Args) -> Result<Ran> {
    let Running {
        phase,
        seed,
        server,
        per_conn,
        encodes,
        ..
    } = running;
    let records = per_conn.concat();
    let mut snapshots = Vec::with_capacity(fleet.len());
    for (t, tenant) in fleet.iter().enumerate() {
        let learned = records
            .iter()
            .any(|r| r.op == Op::Learn && r.tenant as usize == t);
        snapshots.push(if learned {
            let path = args
                .out
                .join(format!("served-{}-{seed:x}.snapshot", tenant.name));
            server.registry.publish(&tenant.name)?;
            server.registry.save_snapshot(&tenant.name, &path)?;
            Some(path)
        } else {
            None
        });
    }
    let metrics = server.registry.metrics_json();
    server.stop();
    Ok(Ran {
        phase,
        records,
        duration: args.seconds * phase.share,
        metrics,
        snapshots,
        encodes,
    })
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<28} {value:>14.3} {unit}");
        }
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// Nearest-rank quantile of sorted nanoseconds, in microseconds.
fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The end-to-end metrics. Timings are scaled to a host on which the
/// probe takes `PROBE_REF_MS`: a host twice as slow takes twice as long
/// for the probe, and its throughput is doubled and its times halved.
fn end_to_end(
    out: &mut Metrics,
    ran: &[Ran],
    setup: &[f64],
    check: &verify::Check,
    error_ratio: f64,
    peak_rss: u64,
    probe_ms: f64,
) {
    let find = |load| ran.iter().find(|r| r.phase.load == load);
    let closed = find(Load::Closed).expect("every plan has a closed loop");
    let learning = find(Load::Learn).expect("every plan has a learn loop");
    let answered = closed
        .records
        .iter()
        .filter(|r| r.op == Op::Classify && r.ok());
    let slowdown = probe_ms / PROBE_REF_MS;
    let (rps, learns) = (closed.rate(Op::Classify), learning.rate(Op::Learn));
    let (p50, p90) = (closed.latency_us(0.5), closed.latency_us(0.9));
    let set_up = median(setup);
    println!(
        "closed loop: {} classify answers over {} s; measured {rps:.0} rps, {learns:.0} learns/s, p50 {p50:.1} us, p90 {p90:.1} us, set-up {set_up:.4} s; probe {probe_ms:.3} ms, so timings are scaled by {slowdown:.3}",
        answered.count(),
        closed.duration,
    );
    out.put("throughput_rps", rps * slowdown, "1/s");
    out.put("learn_rps", learns * slowdown, "1/s");
    out.put("latency_p50_us", p50 / slowdown, "us");
    out.put("latency_p90_us", p90 / slowdown, "us");
    out.put("ok_ratio", 1.0 - error_ratio, "ratio");
    out.put(
        "accuracy",
        check.labelled_right as f64 / check.classified.max(1) as f64,
        "ratio",
    );
    out.put("setup_s", set_up / slowdown, "s");
    out.put("peak_rss_mb", peak_rss as f64 / MIB, "MB");
}

fn per_layer(
    out: &mut Metrics,
    spec: &Spec,
    fleet: &[Tenant],
    ran: &[Ran],
    mut replay: Replay,
    args: &Args,
    requests: &Requests,
) -> Result<()> {
    let untraced = &ran[0];
    let traced = ran
        .iter()
        .find(|r| r.phase.traced && r.phase.load == Load::Closed)
        .expect("traced plans have a traced closed loop");
    let open = ran
        .iter()
        .find(|r| r.phase.load == Load::Open)
        .expect("every plan has an open loop");

    let spans = &traced.encodes;
    let accumulate = sorted(spans.iter().map(|s| s.mid - s.start).collect());
    let binarize = sorted(spans.iter().map(|s| s.end - s.mid).collect());
    let encode = sorted(spans.iter().map(|s| s.end - s.start).collect());
    let masks = spans.iter().map(|s| s.masks).sum::<u64>() as f64 / spans.len().max(1) as f64;
    out.put("encoder.accumulate_us", quantile_us(&accumulate, 0.5), "us");
    out.put("encoder.accumulate_count", spans.len() as f64, "count");
    out.put("encoder.masks_per_request", masks, "count");
    out.put("encoder.encode_us", quantile_us(&encode, 0.5), "us");
    out.put("accumulator.binarize_us", quantile_us(&binarize, 0.5), "us");

    let registry = uhd_bench::json::parse(&traced.metrics)?;
    let total = registry
        .get("histograms")
        .and_then(|h| h.get("uhd_request_total_ns"))
        .ok_or("registry metrics lack uhd_request_total_ns")?;
    let field = |name| total.get(name).and_then(uhd_bench::json::Json::as_f64);
    let total_us = field("p50").unwrap_or(0.0) / 1e3;
    out.put("registry.total_us", total_us, "us");
    out.put(
        "registry.total_p99_us",
        field("p99").unwrap_or(0.0) / 1e3,
        "us",
    );
    out.put(
        "registry.total_count",
        field("count").unwrap_or(0.0),
        "count",
    );
    out.put(
        "registry.wait_us",
        total_us - quantile_us(&encode, 0.5),
        "us",
    );
    let wire_p50 = traced.latency_us(0.5);
    out.put("http.wire_p50_us", wire_p50, "us");
    out.put("http.overhead_us", wire_p50 - total_us, "us");

    let open_metrics = uhd_bench::json::parse(&open.metrics)?;
    let lookup = |group: &str, name: &str| {
        open_metrics
            .get(group)
            .and_then(|g| g.get(name))
            .and_then(uhd_bench::json::Json::as_f64)
            .unwrap_or(0.0)
    };
    out.put(
        "registry.queue_depth_hw",
        lookup("gauges", "uhd_queue_depth_hw"),
        "count",
    );
    out.put(
        "registry.shed_total",
        lookup("counters", "uhd_requests_shed_total"),
        "count",
    );
    let late = sorted(open.records.iter().map(|r| r.sent - r.due).collect());
    out.put("loadgen.late_p99_us", quantile_us(&late, 0.99), "us");
    out.put("loadgen.open_requests", open.records.len() as f64, "count");
    let answered: Vec<&Record> = open.records.iter().filter(|r| r.ok()).collect();
    let within = answered
        .iter()
        .filter(|r| r.latency() <= spec.slo_us * 1000)
        .count();
    let latency = sorted(answered.iter().map(|r| r.latency()).collect());
    out.put("open.latency_p50_us", quantile_us(&latency, 0.5), "us");
    out.put("open.latency_p90_us", quantile_us(&latency, 0.9), "us");
    out.put("open.latency_p99_us", quantile_us(&latency, 0.99), "us");
    out.put(
        "open.slo_ratio",
        within as f64 / open.records.len().max(1) as f64,
        "ratio",
    );

    let served: Vec<_> = fleet.iter().map(|t| t.served.clone()).collect();
    let (row_ns, rows) = replay.item_memory_rows(&served, "item_memory.rows_pass")?;
    // The same encoders with their rows derived on demand: the layer the
    // item-memory rework targets, which no served workload runs on.
    let remat = served
        .iter()
        .map(Served::rematerialized)
        .collect::<Result<Vec<_>>>()?;
    let (remat_ns, remat_rows) = replay.item_memory_rows(&remat, "item_memory.remat_rows_pass")?;
    replay.nearest(fleet)?;
    for (name, layer) in [
        ("accumulator.bipolar_sums_us", "accumulator.bipolar_sums"),
        ("online.observe_us", "online.observe_sums"),
        ("online.snapshot_us", "online.snapshot"),
        ("assoc.nearest_us", "assoc.nearest"),
    ] {
        out.put(
            name,
            quantile_us(&sorted(replay.durations(layer)), 0.5),
            "us",
        );
    }
    out.put(
        "online.observe_count",
        replay.durations("online.observe_sums").len() as f64,
        "count",
    );
    out.put("item_memory.row_ns", row_ns, "ns");
    out.put("item_memory.rows_fetched", rows as f64, "count");
    out.put("item_memory.remat_row_ns", remat_ns, "ns");
    out.put("item_memory.remat_rows_fetched", remat_rows as f64, "count");
    let resident: u64 = fleet
        .iter()
        .map(|t| t.served.encoder().profile().resident_bytes)
        .sum();
    out.put("item_memory.resident_bytes", resident as f64, "B");

    let base = untraced.rate(Op::Classify);
    let with = traced.rate(Op::Classify);
    out.put("trace.untraced_rps", base, "1/s");
    out.put("trace.traced_rps", with, "1/s");
    out.put("trace.overhead_pct", (base - with) / base * 100.0, "%");

    let path = args
        .out
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    trace::write_spans(&path, fleet, requests, &traced.records, spans, &replay)?;
    println!("spans written to {}", path.display());
    Ok(())
}

/// Keep every CPU the run uses busy for `CPU_WARMUP` before anything is
/// timed: on an idle virtual machine the first second or two of work runs
/// up to a quarter slower, which would land on the set-up timing.
fn warm_cpus() {
    let end = Instant::now() + CPU_WARMUP;
    std::thread::scope(|scope| {
        for _ in 0..fleet::SHARDS {
            scope.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < end {
                    std::hint::black_box(wire::splitmix64(&mut x));
                }
            });
        }
    });
}

const MIB: f64 = 1024.0 * 1024.0;

/// The process's peak resident set (`VmHWM`) since start or since the
/// last write of `5` to `/proc/self/clear_refs`, in bytes.
fn peak_rss_bytes() -> Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024)
}

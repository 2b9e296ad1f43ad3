//! The [`Recorder`] facade: a named registry of counters, gauges, and
//! histograms, with Prometheus-style text and JSON exposition.
//!
//! Handles ([`Counter`], [`Gauge`], `Arc<Histogram>`) are cheap clones
//! of shared atomics: registration takes a short mutex on the registry
//! vector once, after which the hot path touches no locks at all. A
//! disabled recorder ([`Recorder::noop`]) hands out the same handle
//! types backed by dead cells, so instrumented code needs no branches —
//! the cost of "telemetry off" is the same relaxed `fetch_add`s landing
//! in unobserved memory.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSnapshot};

/// Quantiles every histogram exposes in both exposition formats.
pub const EXPOSED_QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// A monotonically increasing named metric.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A named metric that can move in both directions, with a helper for
/// high-water tracking.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is currently lower (lock-free
    /// high-water mark).
    pub fn set_max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Label set attached to a metric, e.g. `[("shard", "0")]`.
type Labels = Vec<(String, String)>;

#[derive(Debug)]
enum MetricCell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct MetricEntry {
    name: String,
    labels: Labels,
    cell: MetricCell,
}

#[derive(Debug)]
struct Inner {
    enabled: bool,
    metrics: Mutex<Vec<MetricEntry>>,
}

/// The observability facade: get-or-register named metrics, render
/// them all. Cloning shares the same registry.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An active recorder (the same as [`Recorder::default`]).
    #[must_use]
    pub fn new() -> Self {
        Recorder::build(true)
    }

    /// A disabled recorder: hands out working handles whose values are
    /// never rendered. Lets instrumented code run branch-free whether
    /// telemetry is on or off.
    #[must_use]
    pub fn noop() -> Self {
        Recorder::build(false)
    }

    fn build(enabled: bool) -> Self {
        Recorder {
            inner: Arc::new(Inner {
                enabled,
                metrics: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Whether this recorder renders anything.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    fn lookup(&self, name: &str, labels: &[(&str, &str)]) -> Option<MetricCell> {
        let metrics = self
            .inner
            .metrics
            .lock()
            .expect("metrics registry poisoned");
        metrics
            .iter()
            .find(|e| {
                e.name == name
                    && e.labels.len() == labels.len()
                    && e.labels
                        .iter()
                        .zip(labels)
                        .all(|(have, want)| have.0 == want.0 && have.1 == want.1)
            })
            .map(|e| match &e.cell {
                MetricCell::Counter(c) => MetricCell::Counter(c.clone()),
                MetricCell::Gauge(g) => MetricCell::Gauge(g.clone()),
                MetricCell::Histogram(h) => MetricCell::Histogram(Arc::clone(h)),
            })
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], cell: MetricCell) {
        let mut metrics = self
            .inner
            .metrics
            .lock()
            .expect("metrics registry poisoned");
        metrics.push(MetricEntry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
            cell,
        });
    }

    /// Get or register the counter `name` with no labels.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Get or register the counter `name{labels}`. Re-registering the
    /// same name+labels returns a handle to the same cell.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        if let Some(MetricCell::Counter(c)) = self.lookup(name, labels) {
            return c;
        }
        let c = Counter::new();
        self.register(name, labels, MetricCell::Counter(c.clone()));
        c
    }

    /// Get or register the gauge `name` with no labels.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Get or register the gauge `name{labels}`.
    #[must_use]
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        if let Some(MetricCell::Gauge(g)) = self.lookup(name, labels) {
            return g;
        }
        let g = Gauge::new();
        self.register(name, labels, MetricCell::Gauge(g.clone()));
        g
    }

    /// Get or register the histogram `name` with no labels.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Get or register the histogram `name{labels}`.
    #[must_use]
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        if let Some(MetricCell::Histogram(h)) = self.lookup(name, labels) {
            return h;
        }
        let h = Arc::new(Histogram::new());
        self.register(name, labels, MetricCell::Histogram(Arc::clone(&h)));
        h
    }

    /// Render every registered metric in the Prometheus text
    /// exposition format (counters, gauges, and histograms as
    /// summaries with `quantile` labels plus `_sum`/`_count` series).
    /// A disabled recorder renders the empty string.
    #[must_use]
    pub fn render_text(&self) -> String {
        if !self.inner.enabled {
            return String::new();
        }
        let mut out = String::new();
        for (name, group) in self.grouped() {
            let type_name = match group[0].1 {
                RenderCell::Counter(_) => "counter",
                RenderCell::Gauge(_) => "gauge",
                RenderCell::Histogram(_) => "summary",
            };
            let _ = writeln!(out, "# TYPE {name} {type_name}");
            for (labels, cell) in &group {
                match cell {
                    RenderCell::Counter(v) | RenderCell::Gauge(v) => {
                        let _ = writeln!(out, "{name}{} {v}", text_labels(labels, None));
                    }
                    RenderCell::Histogram(snap) => {
                        for q in EXPOSED_QUANTILES {
                            let _ = writeln!(
                                out,
                                "{name}{} {}",
                                text_labels(labels, Some(q)),
                                snap.quantile(q)
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            text_labels(labels, None),
                            snap.sum()
                        );
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            text_labels(labels, None),
                            snap.count()
                        );
                    }
                }
            }
        }
        out
    }

    /// Render every registered metric as a JSON object with
    /// `"counters"`, `"gauges"`, and `"histograms"` maps, keyed by
    /// `name` or `name{k=v,...}`. Parseable by the workspace's minimal
    /// RFC-8259 parser (`uhd_bench::json`). A disabled recorder
    /// renders `{}`.
    #[must_use]
    pub fn render_json(&self) -> String {
        if !self.inner.enabled {
            return "{}".to_string();
        }
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, group) in self.grouped() {
            for (labels, cell) in group {
                let key = json_key(&name, &labels);
                match cell {
                    RenderCell::Counter(v) => counters.push(format!("\"{key}\": {v}")),
                    RenderCell::Gauge(v) => gauges.push(format!("\"{key}\": {v}")),
                    RenderCell::Histogram(snap) => {
                        let quantiles: Vec<String> = EXPOSED_QUANTILES
                            .iter()
                            .map(|&q| {
                                let tag = format!("p{}", (q * 1000.0).round() / 10.0);
                                let tag = tag.replace('.', "_");
                                format!("\"{tag}\": {}", snap.quantile(q))
                            })
                            .collect();
                        histograms.push(format!(
                            "\"{key}\": {{{}, \"count\": {}, \"sum\": {}, \"max\": {}}}",
                            quantiles.join(", "),
                            snap.count(),
                            snap.sum(),
                            snap.max()
                        ));
                    }
                }
            }
        }
        format!(
            "{{\n  \"counters\": {{{}}},\n  \"gauges\": {{{}}},\n  \"histograms\": {{{}}}\n}}\n",
            counters.join(", "),
            gauges.join(", "),
            histograms.join(", ")
        )
    }

    /// Snapshot the registry grouped by metric name (registration
    /// order preserved within and across groups).
    fn grouped(&self) -> Vec<(String, Vec<(Labels, RenderCell)>)> {
        let metrics = self
            .inner
            .metrics
            .lock()
            .expect("metrics registry poisoned");
        let mut groups: Vec<(String, Vec<(Labels, RenderCell)>)> = Vec::new();
        for entry in metrics.iter() {
            let rendered = match &entry.cell {
                MetricCell::Counter(c) => RenderCell::Counter(c.get()),
                MetricCell::Gauge(g) => RenderCell::Gauge(g.get()),
                MetricCell::Histogram(h) => RenderCell::Histogram(h.snapshot()),
            };
            if let Some(group) = groups.iter_mut().find(|(name, _)| *name == entry.name) {
                group.1.push((entry.labels.clone(), rendered));
            } else {
                groups.push((entry.name.clone(), vec![(entry.labels.clone(), rendered)]));
            }
        }
        groups
    }
}

enum RenderCell {
    Counter(u64),
    Gauge(u64),
    Histogram(HistogramSnapshot),
}

/// `{k="v",quantile="0.99"}` or the empty string for no labels.
fn text_labels(labels: &Labels, quantile: Option<f64>) -> String {
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(q) = quantile {
        parts.push(format!("quantile=\"{q}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// `name` or `name{k=v,...}` — no inner quotes so it embeds directly
/// in a JSON string key.
fn json_key(name: &str, labels: &Labels) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{name}{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_by_name_and_labels() {
        let rec = Recorder::new();
        let a = rec.counter("uhd_test_total");
        let b = rec.counter("uhd_test_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same name ⇒ same cell");

        let s0 = rec.counter_with("uhd_sharded_total", &[("shard", "0")]);
        let s1 = rec.counter_with("uhd_sharded_total", &[("shard", "1")]);
        s0.add(5);
        assert_eq!(s1.get(), 0, "different labels ⇒ different cells");

        let g = rec.gauge("uhd_depth");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7, "set_max never lowers");
        g.set_max(11);
        assert_eq!(g.get(), 11);

        let h1 = rec.histogram("uhd_lat_ns");
        let h2 = rec.histogram("uhd_lat_ns");
        h1.record(42);
        assert_eq!(h2.snapshot().count(), 1);
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let rec = Recorder::new();
        rec.counter("uhd_requests_total").add(10);
        rec.gauge_with("uhd_queue_depth", &[("shard", "0")]).set(4);
        let h = rec.histogram_with("uhd_wait_ns", &[("shard", "0")]);
        for v in 1..=100 {
            h.record(v);
        }
        let text = rec.render_text();
        assert!(text.contains("# TYPE uhd_requests_total counter\n"));
        assert!(text.contains("uhd_requests_total 10\n"));
        assert!(text.contains("# TYPE uhd_queue_depth gauge\n"));
        assert!(text.contains("uhd_queue_depth{shard=\"0\"} 4\n"));
        assert!(text.contains("# TYPE uhd_wait_ns summary\n"));
        assert!(text.contains("uhd_wait_ns{shard=\"0\",quantile=\"0.5\"} 50\n"));
        assert!(text.contains("uhd_wait_ns_sum{shard=\"0\"} 5050\n"));
        assert!(text.contains("uhd_wait_ns_count{shard=\"0\"} 100\n"));
        // Every non-comment line is `series value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut split = line.rsplitn(2, ' ');
            let value = split.next().expect("value field");
            assert!(
                value.parse::<u64>().is_ok(),
                "unparseable value in {line:?}"
            );
            assert!(split.next().is_some(), "missing series name in {line:?}");
        }
    }

    #[test]
    fn render_json_round_trips_through_a_parser() {
        // Hand-rolled sanity: balanced braces, key quoting, and the
        // three top-level maps. (The bench crate's parser round-trip
        // is covered by tests/observability.rs to avoid a dev-dep
        // cycle: uhd-bench already depends on uhd-obs.)
        let rec = Recorder::new();
        rec.counter("uhd_requests_total").add(3);
        rec.gauge("uhd_depth").set(2);
        rec.histogram_with("uhd_wait_ns", &[("shard", "1")])
            .record(64);
        let json = rec.render_json();
        for key in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert!(json.contains("\"uhd_requests_total\": 3"));
        assert!(json.contains("\"uhd_wait_ns{shard=1}\""));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p99_9\":"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
    }

    #[test]
    fn noop_recorder_renders_nothing_but_handles_work() {
        let rec = Recorder::noop();
        assert!(!rec.enabled());
        let c = rec.counter("uhd_ghost_total");
        c.add(9);
        assert_eq!(c.get(), 9, "handles still count");
        assert_eq!(rec.render_text(), "");
        assert_eq!(rec.render_json(), "{}");
    }
}

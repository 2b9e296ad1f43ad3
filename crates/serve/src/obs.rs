//! The registry's observability bundle: one [`Recorder`] carrying the
//! counter set ([`EngineStats`]), the staged latency histograms, the
//! gauges of the line for permits, and the trace-event ring.
//!
//! ## Staged timing
//!
//! Every request is stamped with a monotonic clock when it arrives at
//! the admission gate. The thread answering it then attributes its
//! life to stages, labelled by the permit (`shard`) it held:
//!
//! * **queue wait** (`uhd_request_queue_wait_ns{shard=…}`) — arrival →
//!   permit taken, recorded per request;
//! * **batch compute** (`uhd_batch_compute_ns{shard=…}`) — one sample
//!   per micro-batch covering encode+search for the whole batch (a
//!   single classify is a batch of one);
//! * **total** (`uhd_request_total_ns`) — arrival → answer,
//!   registry-wide (this is the histogram behind
//!   [`crate::StatsSnapshot::p50_us`]/[`crate::StatsSnapshot::p99_us`]).
//!
//! A learn or feedback sample that reaches its tenant's learner adds
//! one more stage, **learn apply** (`uhd_learn_apply_ns`): learner lock
//! requested → released, registry-wide. It covers the wait for the
//! lock, the update and any snapshot publish the update triggers.

use crate::stats::{EngineStats, LatencyFigures};
use crate::StatsSnapshot;
use std::sync::Arc;
use std::time::Duration;
use uhd_obs::{Gauge, Histogram, Recorder, TraceKind};

/// All telemetry state the registry records into from its callers'
/// threads.
#[derive(Debug)]
pub(crate) struct ServeObs {
    pub(crate) recorder: Recorder,
    pub(crate) stats: EngineStats,
    /// Per-permit arrival→permit wait.
    queue_wait: Vec<Arc<Histogram>>,
    /// Per-shard whole-batch compute time.
    compute: Vec<Arc<Histogram>>,
    /// Registry-wide arrival→answer latency.
    total: Arc<Histogram>,
    /// Registry-wide learner lock requested→released, per sample.
    learn_apply: Arc<Histogram>,
    pub(crate) queue_depth: Gauge,
    pub(crate) queue_depth_hw: Gauge,
}

/// Render `recorder`'s full metric set in the Prometheus text format,
/// appending the process-global kernel identity (`uhd_kernel_info`) and
/// the kernel op counters (`uhd_kernel_ops_total{op=…}`). Empty when
/// telemetry is disabled.
pub(crate) fn render_prometheus(recorder: &Recorder) -> String {
    if !recorder.enabled() {
        return String::new();
    }
    use std::fmt::Write as _;
    let mut out = recorder.render_text();
    out.push_str("# TYPE uhd_kernel_info gauge\n");
    let _ = writeln!(
        out,
        "uhd_kernel_info{{kernel=\"{}\"}} 1",
        uhd_core::Kernel::active().name()
    );
    if uhd_core::telemetry::enabled() {
        out.push_str("# TYPE uhd_kernel_ops_total counter\n");
        for (op, count) in uhd_core::telemetry::op_counts().entries() {
            let _ = writeln!(out, "uhd_kernel_ops_total{{op=\"{op}\"}} {count}");
        }
    }
    out
}

impl ServeObs {
    /// Register the full metric set for `shards` permits on
    /// `recorder`.
    pub(crate) fn new(recorder: Recorder, shards: usize) -> Self {
        let stats = EngineStats::new(&recorder);
        let mut queue_wait = Vec::with_capacity(shards);
        let mut compute = Vec::with_capacity(shards);
        for shard in 0..shards {
            let shard = shard.to_string();
            let labels: [(&str, &str); 1] = [("shard", shard.as_str())];
            queue_wait.push(recorder.histogram_with("uhd_request_queue_wait_ns", &labels));
            compute.push(recorder.histogram_with("uhd_batch_compute_ns", &labels));
        }
        ServeObs {
            stats,
            queue_wait,
            compute,
            total: recorder.histogram("uhd_request_total_ns"),
            learn_apply: recorder.histogram("uhd_learn_apply_ns"),
            queue_depth: recorder.gauge("uhd_queue_depth"),
            queue_depth_hw: recorder.gauge("uhd_queue_depth_hw"),
            recorder,
        }
    }

    pub(crate) fn record_queue_wait(&self, shard: usize, waited: Duration) {
        self.queue_wait[shard].record_duration(waited);
    }

    pub(crate) fn record_compute(&self, shard: usize, elapsed: Duration) {
        self.compute[shard].record_duration(elapsed);
    }

    pub(crate) fn record_total(&self, elapsed: Duration) {
        self.total.record_duration(elapsed);
    }

    pub(crate) fn record_learn_apply(&self, elapsed: Duration) {
        self.learn_apply.record_duration(elapsed);
    }

    /// Forward a trace event to the recorder's ring.
    pub(crate) fn event(&self, kind: TraceKind, a: u64, b: u64) {
        self.recorder.event(kind, a, b);
    }

    /// Assemble the public stats view: counters plus the
    /// histogram-derived latency figures (nanoseconds → microseconds).
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let total = self.total.snapshot();
        self.stats.snapshot(LatencyFigures {
            queue_depth_hw: self.queue_depth_hw.get(),
            p50_us: total.quantile(0.5) / 1_000,
            p99_us: total.quantile(0.99) / 1_000,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhd_obs::TraceLevel;

    #[test]
    fn snapshot_derives_latency_figures_from_the_histograms() {
        let obs = ServeObs::new(Recorder::new(TraceLevel::Off), 2);
        obs.record_total(Duration::from_micros(100));
        obs.record_total(Duration::from_micros(200));
        obs.queue_depth_hw.set_max(7);
        obs.stats.record_batch(3);
        let snap = obs.snapshot();
        assert_eq!(snap.queue_depth_hw, 7);
        // 3.125% bucket error on 100/200 µs is ~±7 µs.
        assert!((95..=105).contains(&snap.p50_us), "p50 {} off", snap.p50_us);
        assert!(
            (190..=210).contains(&snap.p99_us),
            "p99 {} off",
            snap.p99_us
        );
        assert_eq!(snap.completed, 3);
    }

    #[test]
    fn per_shard_series_render_with_shard_labels() {
        let obs = ServeObs::new(Recorder::new(TraceLevel::Off), 2);
        obs.record_queue_wait(0, Duration::from_micros(10));
        obs.record_queue_wait(1, Duration::from_micros(20));
        obs.record_compute(1, Duration::from_micros(30));
        let text = obs.recorder.render_text();
        assert!(text.contains("uhd_request_queue_wait_ns{shard=\"0\",quantile=\"0.5\"}"));
        assert!(text.contains("uhd_request_queue_wait_ns{shard=\"1\",quantile=\"0.99\"}"));
        assert!(text.contains("uhd_batch_compute_ns{shard=\"1\",quantile=\"0.999\"}"));
        assert!(text.contains("uhd_request_queue_wait_ns_count{shard=\"0\"} 1\n"));
    }
}

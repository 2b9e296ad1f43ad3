//! Registry counters: cheap relaxed atomics updated on the hot path,
//! snapshotted on demand.
//!
//! The counters are [`uhd_obs::Counter`] / [`uhd_obs::Gauge`] handles
//! registered on the registry's [`uhd_obs::Recorder`], so the same
//! cells that back [`StatsSnapshot`] also appear in
//! `ModelRegistry::render_metrics` — one set of numbers, two views.

use uhd_obs::{Counter, Gauge, Recorder};

/// Internal counters owned by the registry, registered on its recorder
/// under the `uhd_*` metric names shown in the exposition.
#[derive(Debug)]
pub(crate) struct EngineStats {
    submitted: Counter,
    shed: Counter,
    completed: Counter,
    batches: Counter,
    largest_batch: Gauge,
    model_swaps: Counter,
    learn_submitted: Counter,
    learn_updates: Counter,
    learn_rejected: Counter,
    snapshots_published: Counter,
    worker_panics: Counter,
}

impl EngineStats {
    /// Register the counter set on `recorder`.
    pub(crate) fn new(recorder: &Recorder) -> Self {
        EngineStats {
            submitted: recorder.counter("uhd_requests_submitted_total"),
            shed: recorder.counter("uhd_requests_shed_total"),
            completed: recorder.counter("uhd_requests_completed_total"),
            batches: recorder.counter("uhd_batches_total"),
            largest_batch: recorder.gauge("uhd_largest_batch"),
            model_swaps: recorder.counter("uhd_model_swaps_total"),
            learn_submitted: recorder.counter("uhd_learn_submitted_total"),
            learn_updates: recorder.counter("uhd_learn_updates_total"),
            learn_rejected: recorder.counter("uhd_learn_rejected_total"),
            snapshots_published: recorder.counter("uhd_snapshots_published_total"),
            worker_panics: recorder.counter("uhd_worker_panics_total"),
        }
    }

    pub(crate) fn record_submit(&self, requests: usize) {
        self.submitted.add(requests as u64);
    }

    pub(crate) fn record_shed(&self, requests: usize) {
        self.shed.add(requests as u64);
    }

    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.inc();
        self.completed.add(size as u64);
        self.largest_batch.set_max(size as u64);
    }

    pub(crate) fn record_swap(&self) {
        self.model_swaps.inc();
    }

    pub(crate) fn record_learn_submit(&self) {
        self.learn_submitted.inc();
    }

    pub(crate) fn record_learn_update(&self) {
        self.learn_updates.inc();
    }

    pub(crate) fn record_learn_rejected(&self) {
        self.learn_rejected.inc();
    }

    pub(crate) fn record_snapshot(&self) {
        self.snapshots_published.inc();
    }

    pub(crate) fn record_worker_panic(&self) {
        self.worker_panics.inc();
    }

    /// Assemble a [`StatsSnapshot`] from the counters plus the
    /// latency/queue figures the caller reads off its histograms
    /// (see `ServeObs::snapshot`, which owns those).
    pub(crate) fn snapshot(&self, latency: LatencyFigures) -> StatsSnapshot {
        StatsSnapshot {
            kernel: uhd_core::kernels::Kernel::active().name(),
            submitted: self.submitted.get(),
            requests_shed: self.shed.get(),
            completed: self.completed.get(),
            batches: self.batches.get(),
            largest_batch: self.largest_batch.get(),
            model_swaps: self.model_swaps.get(),
            learn_submitted: self.learn_submitted.get(),
            learn_updates: self.learn_updates.get(),
            learn_rejected: self.learn_rejected.get(),
            snapshots_published: self.snapshots_published.get(),
            queue_depth_hw: latency.queue_depth_hw,
            p50_us: latency.p50_us,
            p99_us: latency.p99_us,
        }
    }
}

/// The histogram-derived half of a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LatencyFigures {
    pub(crate) queue_depth_hw: u64,
    pub(crate) p50_us: u64,
    pub(crate) p99_us: u64,
}

/// A point-in-time view of the registry counters, summed over all
/// tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Name of the kernel the served sweep and bundling dispatch to
    /// (`"scalar"`, `"avx2"` or `"avx512"` — see `uhd_core::kernels`).
    /// Process-wide, recorded here so serving telemetry and
    /// `BENCH_*.json` trajectories are attributable to the instruction
    /// set actually used.
    pub kernel: &'static str,
    /// Classify requests admitted by [`crate::ModelRegistry::classify`]
    /// / [`crate::ModelRegistry::classify_many`] (holding a permit or
    /// waiting in line for one).
    pub submitted: u64,
    /// Classify and learn requests rejected by load-shedding admission
    /// control (the line for permits at or above the configured
    /// `shed_above` threshold); each returned
    /// [`crate::ServeError::Overloaded`] to its caller.
    pub requests_shed: u64,
    /// Classify requests that took a permit (counted per micro-batch,
    /// when the batch starts).
    pub completed: u64,
    /// Micro-batches executed across all permits (a single classify is
    /// a batch of one).
    pub batches: u64,
    /// Largest micro-batch observed.
    pub largest_batch: u64,
    /// Models hot-swapped in via [`crate::ModelRegistry::update_model`].
    pub model_swaps: u64,
    /// Labelled samples that passed eager validation in
    /// [`crate::ModelRegistry::learn`] /
    /// [`crate::ModelRegistry::feedback`].
    pub learn_submitted: u64,
    /// Samples that actually modified the learner's class accumulators
    /// (every observation, plus mispredicted feedback).
    pub learn_updates: u64,
    /// Samples the learner rejected (e.g. a label past the admission
    /// cap, or feedback naming a class the learner never admitted).
    /// The caller gets the rejection as a typed error naming the
    /// offending class (over HTTP, a 400 with that message).
    pub learn_rejected: u64,
    /// Rebinarized learner snapshots published through the hot-swap
    /// path, on the `snapshot_every` cadence or by
    /// [`crate::ModelRegistry::publish`] (not counted in
    /// `model_swaps`).
    pub snapshots_published: u64,
    /// High-water mark of the line for permits.
    pub queue_depth_hw: u64,
    /// Median end-to-end request latency (arrival → response) in
    /// microseconds, from the registry's lock-free histogram. 0 until a
    /// request completes; bounded relative error
    /// [`uhd_obs::RELATIVE_ERROR`].
    pub p50_us: u64,
    /// 99th-percentile end-to-end request latency in microseconds.
    pub p99_us: u64,
}

impl StatsSnapshot {
    /// Mean requests per executed micro-batch (0 when no batches ran).
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let recorder = Recorder::new();
        let stats = EngineStats::new(&recorder);
        stats.record_submit(1);
        stats.record_submit(1);
        stats.record_shed(1);
        stats.record_batch(2);
        stats.record_swap();
        stats.record_learn_submit();
        stats.record_learn_submit();
        stats.record_learn_update();
        stats.record_learn_rejected();
        stats.record_snapshot();
        let snap = stats.snapshot(LatencyFigures {
            queue_depth_hw: 3,
            p50_us: 100,
            p99_us: 900,
        });
        assert_eq!(snap.kernel, uhd_core::kernels::Kernel::active().name());
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.requests_shed, 1);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.largest_batch, 2);
        assert_eq!(snap.model_swaps, 1);
        assert_eq!(snap.learn_submitted, 2);
        assert_eq!(snap.learn_updates, 1);
        assert_eq!(snap.learn_rejected, 1);
        assert_eq!(snap.snapshots_published, 1);
        assert_eq!(snap.queue_depth_hw, 3);
        assert_eq!((snap.p50_us, snap.p99_us), (100, 900));
        assert!((snap.mean_batch() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn counters_surface_in_the_recorder_exposition() {
        let recorder = Recorder::new();
        let stats = EngineStats::new(&recorder);
        stats.record_submit(1);
        stats.record_batch(1);
        stats.record_worker_panic();
        let text = recorder.render_text();
        assert!(text.contains("uhd_requests_submitted_total 1\n"));
        assert!(text.contains("uhd_requests_completed_total 1\n"));
        assert!(text.contains("uhd_largest_batch 1\n"));
        assert!(text.contains("uhd_worker_panics_total 1\n"));
    }

    #[test]
    fn empty_snapshot_has_zero_mean() {
        let recorder = Recorder::noop();
        let stats = EngineStats::new(&recorder);
        let snap = stats.snapshot(LatencyFigures::default());
        assert_eq!(snap.mean_batch(), 0.0);
        assert_eq!((snap.p50_us, snap.p99_us), (0, 0));
    }
}

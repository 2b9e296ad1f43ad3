//! # uhd-obs — observability for the uHD serving stack
//!
//! A dependency-free telemetry layer sized for the paper's
//! "lightweight" claim: if instrumentation isn't near-free, the
//! latency numbers it reports are fiction. Two pieces:
//!
//! * [`Histogram`] — a lock-free log-linear (HDR-style) histogram.
//!   Recording is two relaxed atomic adds; quantiles read back from
//!   mergeable snapshots carry a bounded relative error of
//!   [`RELATIVE_ERROR`] (≈ 3.1 %).
//! * [`Recorder`] — a facade of named counters/gauges/histograms,
//!   rendered as Prometheus-style text ([`Recorder::render_text`]) or
//!   JSON ([`Recorder::render_json`]). Every lifecycle fact the
//!   serving stack records (batches formed, models swapped, snapshots
//!   published, samples rejected) is a counter or gauge here, so
//!   `/metrics`, the registry's stats and the bench read one
//!   instrument.
//!
//! The same [`Histogram`] backs the serving registry's live p50/p99, the
//! `BENCH_*.json` trajectory numbers, and the bench bins' latency
//! sections, so there is exactly one quantile implementation to trust.
//!
//! ```
//! use uhd_obs::Recorder;
//! use std::time::Duration;
//!
//! let rec = Recorder::new();
//! let wait = rec.histogram_with("uhd_request_queue_wait_ns", &[("shard", "0")]);
//! wait.record_duration(Duration::from_micros(120));
//! let text = rec.render_text();
//! assert!(text.contains("# TYPE uhd_request_queue_wait_ns summary"));
//! assert!(text.contains("quantile=\"0.99\""));
//! ```

pub mod histogram;
pub mod recorder;

pub use histogram::{Histogram, HistogramSnapshot, RELATIVE_ERROR, SUB_BUCKET_BITS};
pub use recorder::{Counter, Gauge, Recorder, EXPOSED_QUANTILES};

//! Batched, sharded inference serving for the uHD reproduction.
//!
//! The core crates answer one sample at a time; this crate turns
//! trained [`uhd_core::HdcModel`]s into a **serving pool** shaped for
//! heavy traffic. [`ModelRegistry`] is the one serving core: it serves
//! any number of named models (tenants) through one shared admission
//! gate, and a single-model server is simply a registry with one
//! tenant. It is generic over [`uhd_core::Encoder`] feature streams —
//! image, n-gram text and tabular workloads all flow through the same
//! gate, learner and stats, with no workload-specific branches:
//!
//! * **Caller-thread answering** — [`ModelRegistry::classify`] takes
//!   one of `shards` permits and answers on the calling thread; each
//!   permit owns the bundling accumulator and distance buffer its
//!   requests reuse, so a request allocates only its encoded query
//!   (the bipolar sums in the integer mode) and any encoder staging,
//!   and crosses no thread boundary. A caller finding every permit out
//!   waits in line, and the line is capped by exact load shedding.
//! * **Micro-batching** — [`ModelRegistry::classify_many`] answers
//!   chunks of up to `max_batch` samples under one permit and one
//!   model snapshot each, fanned out over at most `shards` scoped
//!   threads.
//! * **Bit-sliced associative memory** — every binarized query is
//!   answered through [`uhd_core::AssociativeMemory`]: class hypervectors
//!   transposed into contiguous per-plane `u64` words so one streaming
//!   XOR+popcount pass yields the distance to *all* classes, instead
//!   of per-class scans.
//! * **Hot model swap** — the "dynamic" in dynamic HDC: a per-tenant
//!   generation-tagged `Arc<HdcModel>` that
//!   [`ModelRegistry::update_model`] replaces atomically while queries
//!   are in flight. Each request (or micro-batch) snapshots one
//!   generation, so no request ever observes a torn model, and every
//!   [`Response::generation`] names the model that produced it.
//! * **Online learning** — [`ModelRegistry::learn`] and
//!   [`ModelRegistry::feedback`] fold labelled samples synchronously
//!   into the tenant's [`uhd_core::OnlineLearner`] (bundling new
//!   observations, perceptron-correcting served mispredictions,
//!   admitting new classes at runtime) and hot-publish a rebinarized
//!   snapshot every `snapshot_every` updates, so accuracy climbs
//!   *while traffic is being served*; [`ModelRegistry::publish`]
//!   publishes on demand.
//! * **Persistence and HTTP** — tenants snapshot to disk crash-safely
//!   and boot from such files; [`HttpServer`] puts a registry behind a
//!   dependency-free HTTP/1.1 front end.
//! * **Observability** — every request is staged-timed (queue-wait vs
//!   batch-compute vs total, per permit; learn apply under the learner
//!   lock) into lock-free [`uhd_obs::Histogram`]s;
//!   [`StatsSnapshot`] reports p50/p99 plus
//!   the high-water mark of the line for permits, and [`ModelRegistry::render_metrics`]
//!   exposes the whole metric set (counters, gauges, latency
//!   summaries, per-tenant series, kernel op counters) in the
//!   Prometheus text format. Each lifecycle fact (batch formed, model
//!   swapped, snapshot published, sample rejected) is a counter or
//!   gauge there and in [`StatsSnapshot`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use uhd_core::encoder::uhd::{UhdConfig, UhdEncoder};
//! use uhd_core::model::{HdcModel, LabelledSamples};
//! use uhd_serve::{ModelRegistry, ServeConfig};
//!
//! let encoder = UhdEncoder::new(UhdConfig::new(256, 4))?;
//! let images = vec![vec![0u8; 4], vec![255u8; 4], vec![10u8; 4], vec![245u8; 4]];
//! let labels = vec![0, 1, 0, 1];
//! let model = HdcModel::train(&encoder, LabelledSamples::new(&images, &labels)?, 2)?;
//!
//! let registry = ModelRegistry::start(ServeConfig::new(2, 8))?;
//! registry.register("digits", Arc::new(encoder), model)?;
//! let responses = registry.classify_many("digits", &images)?;
//! assert_eq!(responses[1].class, 1);
//! assert_eq!(responses[1].generation, 0);
//! registry.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub(crate) mod gate;
pub mod http;
pub(crate) mod obs;
pub mod registry;
pub mod request;
pub mod stats;

pub use error::ServeError;
pub use http::{HttpServer, HttpServerConfig};
pub use registry::{ModelRegistry, ServeConfig};
pub use request::Response;
pub use stats::StatsSnapshot;

//! # uHD — Unary Processing for Lightweight and Dynamic Hyperdimensional Computing
//!
//! Facade crate re-exporting every subsystem of the uHD reproduction
//! (DATE 2024, Aygun, Moghadam & Najafi). See the workspace `README.md`
//! and `DESIGN.md` for the architecture and the per-experiment index.
//!
//! * [`lowdisc`] — Sobol / Halton / R2 low-discrepancy sequences, LFSRs,
//!   quantization, deterministic RNG.
//! * [`bitstream`] — unary (thermometer) bit-stream computing substrate.
//! * [`core`] — hypervectors, the workload-agnostic [`core::Encoder`]
//!   layer (baseline, uHD, n-gram text and tabular record encoders),
//!   training and inference.
//! * [`hw`] — gate-level energy/area/delay model and the embedded ARM
//!   cost model.
//! * [`datasets`] — IDX loading and procedural synthetic datasets
//!   (images, language-ID text, sensor rows).
//! * [`serve`] — the multi-tenant model registry: a shared admission
//!   gate answering on callers' threads, micro-batching, a bit-sliced
//!   associative memory, hot model swap,
//!   online learning and an HTTP front end.
//! * [`obs`] — lock-free latency histograms, the counter/gauge
//!   recorder, and the Prometheus-text/JSON metrics exposition behind
//!   the registry's telemetry.

#![warn(missing_docs)]

pub use uhd_bitstream as bitstream;
pub use uhd_core as core;
pub use uhd_datasets as datasets;
pub use uhd_hw as hw;
pub use uhd_lowdisc as lowdisc;
pub use uhd_obs as obs;
pub use uhd_serve as serve;

//! Shared test fixtures for the uHD workspace.
//!
//! Unit, property and integration tests across the workspace need the
//! same three ingredients over and over: seeded deterministic
//! randomness, small synthetic datasets, and tolerance-aware numeric
//! comparison. This crate centralizes them so individual test modules
//! stop re-deriving fixtures (and stop drifting apart in the seeds and
//! sizes they pick).
//!
//! * [`rng`] — canonical seeded RNG constructors and mask/image
//!   generators;
//! * [`data`] — synthetic-dataset builders sized for tests;
//! * [`approx`] — absolute/relative tolerance comparison helpers;
//! * [`gate`] — an encoder that parks until released, for serving
//!   tests that need a permit held;
//! * [`oracle`] — a sums-only reference learner over plain `i64` rows,
//!   the independent oracle for the streaming and retraining learners.

#![warn(missing_docs)]

pub mod approx;
pub mod data;
pub mod gate;
pub mod oracle;
pub mod rng;

pub use approx::{assert_close, close, rel_close};
pub use data::{
    tiny_labelled, tiny_labelled_features, tiny_language_id, tiny_mnist, tiny_sensor_rows,
    TINY_SEED,
};
pub use gate::{GateEncoder, Latch};
pub use oracle::{bipolar_bits, Refused, SumsLearner};
pub use rng::{fixture_rng, random_image, random_masks};

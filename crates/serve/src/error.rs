//! Error types for the `uhd-serve` crate.

use std::error::Error;
use std::fmt;
use uhd_core::HdcError;

/// Errors produced by the model registry and its HTTP front end.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// An encoding or classification error bubbled up from `uhd-core`.
    Core(HdcError),
    /// The registry has shut down; no further requests are accepted.
    Closed,
    /// Answering this request panicked (e.g. a buggy custom encoder).
    /// The registry caught the panic, failed only this request, and
    /// kept serving. Under `panic = "abort"` (the release profile) the
    /// process aborts instead and this error never surfaces.
    WorkerPanicked,
    /// Configuration rejected (e.g. zero shards or batch size).
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A model's dimension disagrees with its tenant's encoder.
    ModelShapeMismatch {
        /// Dimension the tenant's encoder produces.
        expected_dim: u32,
        /// Dimension of the offending model.
        got_dim: u32,
    },
    /// A labelled sample named a class index at or beyond the
    /// admission cap ([`crate::ServeConfig::max_classes`]); rejected
    /// eagerly, before it reaches the learner.
    InvalidLabel {
        /// The offending class index.
        label: usize,
        /// The class admission cap.
        limit: usize,
    },
    /// Load shedding: every permit was out and the line for one already
    /// held the admission threshold ([`crate::ServeConfig::shed_above`])
    /// when this request arrived, so it was rejected immediately
    /// instead of queueing unboundedly. Back off and retry.
    Overloaded {
        /// Callers waiting in line at rejection time.
        depth: usize,
        /// The configured admission threshold.
        shed_above: usize,
    },
    /// A registry operation named a tenant that is not registered.
    UnknownTenant {
        /// The tenant name the caller asked for.
        name: String,
    },
    /// A tenant with this name is already registered.
    DuplicateTenant {
        /// The contested tenant name.
        name: String,
    },
    /// Persisting or loading a tenant snapshot failed (filesystem
    /// error or a file that does not decode as a model). The reason is
    /// carried as text so the error stays `Clone`/`PartialEq` like the
    /// rest of the enum.
    Persist {
        /// Human-readable failure description.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "classification failed: {e}"),
            ServeError::Closed => write!(f, "model registry is shut down"),
            ServeError::WorkerPanicked => {
                write!(f, "answering this request panicked")
            }
            ServeError::InvalidConfig { reason } => {
                write!(f, "invalid registry configuration: {reason}")
            }
            ServeError::ModelShapeMismatch {
                expected_dim,
                got_dim,
            } => write!(
                f,
                "model dimension {got_dim} does not match encoder dimension {expected_dim}"
            ),
            ServeError::InvalidLabel { label, limit } => write!(
                f,
                "label {label} at or beyond the registry's class admission cap {limit}"
            ),
            ServeError::Overloaded { depth, shed_above } => write!(
                f,
                "overloaded: queue depth {depth} at or above admission threshold {shed_above}"
            ),
            ServeError::UnknownTenant { name } => write!(f, "unknown tenant {name:?}"),
            ServeError::DuplicateTenant { name } => {
                write!(f, "tenant {name:?} is already registered")
            }
            ServeError::Persist { reason } => write!(f, "snapshot persistence failed: {reason}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HdcError> for ServeError {
    fn from(e: HdcError) -> Self {
        ServeError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::from(HdcError::ModelUntrained);
        assert!(e.to_string().contains("classification failed"));
        assert!(e.source().is_some());
        assert!(ServeError::Closed.source().is_none());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}

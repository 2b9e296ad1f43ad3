//! The answer to one classification request.

/// One answered classification request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Response {
    /// Winning class index.
    pub class: usize,
    /// Cosine similarity of the winning class (`1 − 2h/D`).
    pub score: f64,
    /// Generation of the model that answered this request. A classify
    /// (or one `classify_many` micro-batch) snapshots the model once,
    /// so a response can always be attributed to exactly one
    /// hot-swapped model.
    pub generation: u64,
}

//! Bit-sliced associative memory for high-throughput nearest-class
//! search.
//!
//! The straightforward inference loop walks the class hypervectors one
//! by one, recomputing the distance to each from scratch. Hardware HDC
//! work (Schmuck et al., "Hardware Optimizations of Dense Binary
//! Hyperdimensional Computing"; the in-memory associative search of
//! Karunaratne et al.) instead treats the class store as a
//! *combinational associative memory*: the query is broadcast to every
//! class row at once and all Hamming distances fall out of one pass
//! over the memory.
//!
//! [`AssociativeMemory`] is the software transliteration of that idea:
//! the class hypervectors are transposed into **word-major planes** —
//! plane `w` holds packed word `w` of *every* class, contiguous in
//! memory — so a query's distance to all classes is computed
//! plane-by-plane with XOR + popcount while the query word sits in a
//! register and the class words stream sequentially through the cache.
//! For a model with `q` classes the per-query cost is exactly
//! `q × ⌈D/64⌉` XOR+popcount word operations with a perfectly linear
//! access pattern, instead of `q` separate strided scans.
//!
//! Argmax decisions are *identical* to the per-class
//! [`crate::similarity::classify`] scan (asserted by the integration
//! suite): cosine similarity of bipolar vectors is `1 − 2h/D`, a
//! strictly decreasing function of the Hamming distance `h`, and both
//! paths break ties toward the lowest class index.

use crate::error::HdcError;
use crate::hypervector::{words_for_dim, Hypervector};
use crate::kernels::Kernel;
use crate::model::HdcModel;

/// A plane-transposed (bit-sliced) store of class hypervectors
/// answering nearest-class queries in one streaming pass.
///
/// # Example
///
/// ```
/// use uhd_core::assoc::AssociativeMemory;
/// use uhd_core::hypervector::Hypervector;
/// use uhd_lowdisc::rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::seeded(9);
/// let classes: Vec<Hypervector> =
///     (0..4).map(|_| Hypervector::random(512, &mut rng)).collect();
/// let memory = AssociativeMemory::new(&classes)?;
/// // A class vector is at distance 0 from itself.
/// let (idx, score) = memory.nearest(&classes[2])?;
/// assert_eq!((idx, score), (2, 1.0));
/// # Ok::<(), uhd_core::HdcError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssociativeMemory {
    /// Word-major storage: `slices[w * classes + c]` is packed word `w`
    /// of class `c`'s hypervector.
    slices: Vec<u64>,
    classes: usize,
    words: usize,
    dim: u32,
}

impl AssociativeMemory {
    /// Transpose a set of class hypervectors into plane-major storage.
    ///
    /// # Errors
    ///
    /// * [`HdcError::ModelUntrained`] if `class_hvs` is empty.
    /// * [`HdcError::DimensionMismatch`] if the classes disagree in
    ///   dimension.
    pub fn new(class_hvs: &[Hypervector]) -> Result<Self, HdcError> {
        let first = class_hvs.first().ok_or(HdcError::ModelUntrained)?;
        let dim = first.dim();
        let words = words_for_dim(dim);
        let classes = class_hvs.len();
        let mut slices = vec![0u64; words * classes];
        for (c, hv) in class_hvs.iter().enumerate() {
            if hv.dim() != dim {
                return Err(HdcError::DimensionMismatch {
                    left: dim,
                    right: hv.dim(),
                });
            }
            for (w, &word) in hv.words().iter().enumerate() {
                slices[w * classes + c] = word;
            }
        }
        Ok(AssociativeMemory {
            slices,
            classes,
            words,
            dim,
        })
    }

    /// Build from a trained model's binarized class hypervectors.
    ///
    /// (A trained [`HdcModel`] already carries its own memory — see
    /// [`HdcModel::associative_memory`] — this constructor exists for
    /// external candidate sets.)
    #[must_use]
    pub fn from_model(model: &HdcModel) -> Self {
        Self::new(model.class_hypervectors()).expect("a trained model has ≥1 class, uniform dim")
    }

    /// Number of stored classes `q`.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Hypervector dimension D.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Hamming distance from `query` to every class, written into `out`
    /// (resized to `classes`). Allocation-free after the first call
    /// when `out` is reused. Runs through the process-wide dispatched
    /// [`Kernel`] (see [`crate::kernels`]): one cache-blocked
    /// XOR+popcount sweep over the word-major planes.
    ///
    /// # Errors
    ///
    /// [`HdcError::DimensionMismatch`] if the query dimension differs.
    pub fn hamming_to_all(&self, query: &Hypervector, out: &mut Vec<u32>) -> Result<(), HdcError> {
        self.hamming_to_all_with(Kernel::active(), query, out)
    }

    /// [`AssociativeMemory::hamming_to_all`] under an explicit kernel —
    /// lets benches and equivalence tests pin the scalar fallback (or
    /// any available SIMD path) instead of the auto-detected one.
    ///
    /// # Errors
    ///
    /// [`HdcError::DimensionMismatch`] if the query dimension differs.
    pub fn hamming_to_all_with(
        &self,
        kernel: Kernel,
        query: &Hypervector,
        out: &mut Vec<u32>,
    ) -> Result<(), HdcError> {
        if query.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: query.dim(),
            });
        }
        debug_assert!(query.tail_is_clear(), "tail-mask invariant violated");
        out.clear();
        out.resize(self.classes, 0);
        kernel.hamming_to_all(&self.slices, self.classes, query.words(), out);
        Ok(())
    }

    /// Nearest class by Hamming distance, reported as
    /// `(class, cosine)` — bit-identical to the per-class
    /// [`crate::similarity::classify`] scan, including tie-breaking
    /// toward the lowest index.
    ///
    /// # Errors
    ///
    /// [`HdcError::DimensionMismatch`] if the query dimension differs.
    pub fn nearest(&self, query: &Hypervector) -> Result<(usize, f64), HdcError> {
        let mut dists = Vec::with_capacity(self.classes);
        self.nearest_with(query, &mut dists)
    }

    /// [`AssociativeMemory::nearest`] with a caller-reused distance
    /// buffer, so batch/serving hot loops stay allocation-free.
    ///
    /// # Errors
    ///
    /// [`HdcError::DimensionMismatch`] if the query dimension differs.
    pub fn nearest_with(
        &self,
        query: &Hypervector,
        dists: &mut Vec<u32>,
    ) -> Result<(usize, f64), HdcError> {
        self.hamming_to_all(query, dists)?;
        let mut best = (0usize, dists[0]);
        for (c, &h) in dists.iter().enumerate().skip(1) {
            if h < best.1 {
                best = (c, h);
            }
        }
        // cos = dot/D and dot = D − 2h for bipolar vectors; computing it
        // this way reproduces `similarity::cosine` to the last bit.
        let dot = i64::from(self.dim) - 2 * i64::from(best.1);
        Ok((best.0, dot as f64 / f64::from(self.dim)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::classify;
    use proptest::prelude::*;
    use uhd_lowdisc::rng::Xoshiro256StarStar;

    fn random_classes(q: usize, dim: u32, seed: u64) -> Vec<Hypervector> {
        let mut rng = Xoshiro256StarStar::seeded(seed);
        (0..q).map(|_| Hypervector::random(dim, &mut rng)).collect()
    }

    #[test]
    fn distances_match_pairwise_hamming() {
        let classes = random_classes(7, 300, 21);
        let memory = AssociativeMemory::new(&classes).unwrap();
        let mut rng = Xoshiro256StarStar::seeded(22);
        let query = Hypervector::random(300, &mut rng);
        let mut dists = Vec::new();
        memory.hamming_to_all(&query, &mut dists).unwrap();
        for (c, hv) in classes.iter().enumerate() {
            assert_eq!(dists[c], query.hamming_distance(hv).unwrap());
        }
    }

    #[test]
    fn nearest_matches_per_class_classify_scan() {
        let classes = random_classes(9, 777, 23);
        let memory = AssociativeMemory::new(&classes).unwrap();
        let mut rng = Xoshiro256StarStar::seeded(24);
        for _ in 0..50 {
            let query = Hypervector::random(777, &mut rng);
            let fast = memory.nearest(&query).unwrap();
            let slow = classify(&query, &classes).unwrap();
            assert_eq!(fast, slow, "argmax and score must be bit-identical");
        }
    }

    #[test]
    fn every_available_kernel_agrees_on_the_sweep() {
        // Dimensions straddling the SIMD chunk widths (D % 256 ≠ 0)
        // exercise every masked-tail remainder path.
        for dim in [1u32, 63, 64, 65, 255, 256, 257, 777] {
            let classes = random_classes(11, dim, u64::from(dim) ^ 0x5eed);
            let memory = AssociativeMemory::new(&classes).unwrap();
            let mut rng = Xoshiro256StarStar::seeded(u64::from(dim));
            let query = Hypervector::random(dim, &mut rng);
            let mut reference = Vec::new();
            memory
                .hamming_to_all_with(Kernel::scalar(), &query, &mut reference)
                .unwrap();
            for kernel in Kernel::available() {
                let mut out = Vec::new();
                memory
                    .hamming_to_all_with(kernel, &query, &mut out)
                    .unwrap();
                assert_eq!(out, reference, "kernel {} at dim {dim}", kernel.name());
            }
        }
    }

    #[test]
    fn ties_break_toward_lowest_index() {
        // Two identical classes: both the scan and the memory must pick
        // index 0.
        let hv = Hypervector::ones(128);
        let memory = AssociativeMemory::new(&[hv.clone(), hv.clone()]).unwrap();
        assert_eq!(memory.nearest(&hv).unwrap().0, 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            AssociativeMemory::new(&[]),
            Err(HdcError::ModelUntrained)
        ));
        let ragged = vec![Hypervector::ones(64), Hypervector::ones(65)];
        assert!(matches!(
            AssociativeMemory::new(&ragged),
            Err(HdcError::DimensionMismatch { .. })
        ));
        let memory = AssociativeMemory::new(&[Hypervector::ones(64)]).unwrap();
        assert!(memory.nearest(&Hypervector::ones(65)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// For any class count, dimension and seed, the plane-transposed
        /// search agrees with the per-class scan on index and score.
        #[test]
        fn prop_nearest_equals_scan(
            q in 1usize..12,
            dim in 1u32..400,
            seed in any::<u64>(),
        ) {
            let classes = random_classes(q, dim, seed);
            let memory = AssociativeMemory::new(&classes).unwrap();
            let mut rng = Xoshiro256StarStar::seeded(seed ^ 0xdead_beef);
            let query = Hypervector::random(dim, &mut rng);
            prop_assert_eq!(
                memory.nearest(&query).unwrap(),
                classify(&query, &classes).unwrap()
            );
        }
    }
}

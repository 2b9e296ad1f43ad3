//! Packed bipolar hypervectors.
//!
//! HDC operates on D-dimensional vectors of +1/−1 (paper §II). This type
//! packs one dimension per bit (`1 ⇔ +1`, `0 ⇔ −1`), so *binding*
//! (element-wise multiplication) is a word-wise XNOR and dot products
//! reduce to popcounts — the same identities the paper's hardware uses.

use crate::error::HdcError;
use uhd_lowdisc::rng::UniformSource;

/// A packed bipolar hypervector of dimension D.
///
/// # Example
///
/// ```
/// use uhd_core::hypervector::Hypervector;
/// use uhd_lowdisc::rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::seeded(1);
/// let p = Hypervector::random(1024, &mut rng);
/// let l = Hypervector::random(1024, &mut rng);
/// let bound = p.bind(&l)?;
/// // Binding is an involution: binding again with the same key recovers l.
/// assert_eq!(bound.bind(&p)?, l);
/// # Ok::<(), uhd_core::HdcError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Hypervector {
    words: Vec<u64>,
    dim: u32,
}

/// Number of 64-bit words needed for `dim` dimensions.
#[inline]
#[must_use]
pub fn words_for_dim(dim: u32) -> usize {
    (dim as usize).div_ceil(64)
}

/// OR `dim` random bits into the zeroed row `out` under the draw rule of
/// [`Hypervector::random`] (`next_unit() ≤ 0.5 ⇔ +1`, one draw per
/// dimension in order), the `i`-th draw landing at bit
/// `(i + shift) mod dim`: with `shift = 0` it is `Hypervector::random`,
/// otherwise that vector rotated by `shift`, built without a copy.
pub(crate) fn fill_random_words<S: UniformSource + ?Sized>(
    dim: u32,
    shift: u32,
    source: &mut S,
    out: &mut [u64],
) {
    let mut at = shift % dim;
    for start in (0..dim).step_by(64) {
        let len = (dim - start).min(64);
        // Shift each draw in from the top. LLVM vectorizes the plainer
        // `bits |= b << i` reduction, and on the baseline x86-64 target
        // (SSE2, 64-bit multiplies emulated) that loop drew about 40 %
        // slower than this scalar recurrence.
        let mut bits = 0u64;
        for _ in 0..len {
            bits = bits >> 1 | u64::from(source.next_unit() <= 0.5) << 63;
        }
        bits >>= 64 - len;
        // The draws that pass bit `dim − 1` wrap to bit 0.
        let head = len.min(dim - at);
        if head == len {
            or_bits(out, at, bits, len);
        } else {
            or_bits(out, at, bits & ((1u64 << head) - 1), head);
            or_bits(out, 0, bits >> head, len - head);
        }
        at = (at + len) % dim;
    }
}

/// OR the `dim`-bit vector `x` rotated by `k` (bit `i` to bit
/// `(i + k) mod dim`) into `out`, word at a time. Bits of `x` past
/// `dim` must be clear; those of `out` stay clear.
pub(crate) fn rotate_or_into(out: &mut [u64], x: &[u64], dim: u32, k: u32) {
    let k = k % dim;
    if k == 0 {
        for (o, &w) in out.iter_mut().zip(x) {
            *o |= w;
        }
        return;
    }
    // out |= ((x << k) | (x >> (dim − k))) mod 2^dim.
    Hypervector::shl_or_into(out, x, k);
    Hypervector::shr_or_into(out, x, dim - k);
    if !dim.is_multiple_of(64) {
        if let Some(last) = out.last_mut() {
            *last &= (1u64 << (dim % 64)) - 1;
        }
    }
}

/// OR the `len` low bits of `bits` (the rest zero) into `out` at bit `at`.
fn or_bits(out: &mut [u64], at: u32, bits: u64, len: u32) {
    let (w, b) = ((at / 64) as usize, at % 64);
    out[w] |= bits << b;
    if b + len > 64 {
        out[w + 1] |= bits >> (64 - b);
    }
}

impl Hypervector {
    /// The all-(−1) vector (every bit 0).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn neg_ones(dim: u32) -> Self {
        assert!(dim > 0, "hypervector dimension must be nonzero");
        Hypervector {
            words: vec![0u64; words_for_dim(dim)],
            dim,
        }
    }

    /// The all-(+1) vector (every bit 1).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn ones(dim: u32) -> Self {
        let mut hv = Self::neg_ones(dim);
        for w in &mut hv.words {
            *w = u64::MAX;
        }
        hv.mask_tail();
        hv
    }

    /// Draw a random hypervector: each dimension is +1 when the source
    /// sample satisfies `r ≤ t = 0.5` and −1 otherwise — the comparison
    /// rule used for position hypervectors in the baseline design
    /// (paper §II: "If R > t, the corresponding position is set to −1").
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn random<S: UniformSource + ?Sized>(dim: u32, source: &mut S) -> Self {
        assert!(dim > 0, "hypervector dimension must be nonzero");
        let mut words = vec![0u64; words_for_dim(dim)];
        fill_random_words(dim, 0, source, &mut words);
        Hypervector { words, dim }
    }

    /// Build from packed words (little-endian bit order).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionZero`] for `dim == 0`, or
    /// [`HdcError::WordCountMismatch`] when the slice length does not
    /// match `dim` (stray bits beyond `dim` are cleared, matching the
    /// behaviour of every internal producer).
    pub fn from_words(words: Vec<u64>, dim: u32) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::DimensionZero);
        }
        if words.len() != words_for_dim(dim) {
            return Err(HdcError::WordCountMismatch {
                expected: words_for_dim(dim),
                got: words.len(),
            });
        }
        let mut hv = Hypervector { words, dim };
        hv.mask_tail();
        Ok(hv)
    }

    fn mask_tail(&mut self) {
        let rem = self.dim % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Invariant check: bits at positions ≥ `dim` in the last word are
    /// all zero. Every constructor and mutator maintains this, so the
    /// packed kernels ([`Self::hamming_distance`], [`Self::dot`],
    /// [`crate::assoc::AssociativeMemory`]) can count raw words without
    /// re-masking. Exposed (hidden) so integration property tests can
    /// assert no public API ever produces set tail bits.
    #[doc(hidden)]
    #[must_use]
    pub fn tail_is_clear(&self) -> bool {
        let rem = self.dim % 64;
        rem == 0 || self.words.last().is_none_or(|w| w >> rem == 0)
    }

    /// Dimension D.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Packed words (bit `i % 64` of word `i / 64` is dimension `i`).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The bipolar element at dimension `i`: `true ⇔ +1`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn bit(&self, i: u32) -> bool {
        assert!(
            i < self.dim,
            "dimension {i} out of range for D={}",
            self.dim
        );
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Set dimension `i` to +1 (`true`) or −1 (`false`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn set_bit(&mut self, i: u32, plus_one: bool) {
        assert!(
            i < self.dim,
            "dimension {i} out of range for D={}",
            self.dim
        );
        let w = &mut self.words[(i / 64) as usize];
        if plus_one {
            *w |= 1u64 << (i % 64);
        } else {
            *w &= !(1u64 << (i % 64));
        }
    }

    /// Number of +1 dimensions.
    #[must_use]
    pub fn count_plus_ones(&self) -> u32 {
        debug_assert!(self.tail_is_clear(), "tail-mask invariant violated");
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Bind (element-wise multiply) with another hypervector.
    ///
    /// In the bit domain this is XNOR: `(+1)(+1) = (−1)(−1) = +1`.
    /// Binding is how the baseline design combines position and level
    /// hypervectors; uHD eliminates this step entirely.
    ///
    /// # Errors
    ///
    /// [`HdcError::DimensionMismatch`] if dimensions differ.
    pub fn bind(&self, other: &Self) -> Result<Self, HdcError> {
        self.check_dim(other)?;
        let words: Vec<u64> = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| !(a ^ b))
            .collect();
        let mut hv = Hypervector {
            words,
            dim: self.dim,
        };
        hv.mask_tail();
        Ok(hv)
    }

    /// Element-wise negation (flip every dimension).
    #[must_use]
    pub fn negate(&self) -> Self {
        let words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        let mut hv = Hypervector {
            words,
            dim: self.dim,
        };
        hv.mask_tail();
        hv
    }

    /// Dot product of two bipolar vectors:
    /// `Σ xᵢyᵢ = 2·agreements − D`.
    ///
    /// # Errors
    ///
    /// [`HdcError::DimensionMismatch`] if dimensions differ.
    pub fn dot(&self, other: &Self) -> Result<i64, HdcError> {
        // `dot = 2·agreements − D = D − 2·hamming`: one XOR+popcount
        // pass. The tail-mask invariant (enforced by every
        // constructor/mutator, see [`Self::tail_is_clear`]) makes
        // per-call re-masking redundant.
        let h = self.hamming_distance(other)?;
        Ok(i64::from(self.dim) - 2 * i64::from(h))
    }

    /// Hamming distance (number of differing dimensions): XOR +
    /// `count_ones` over the packed `u64` words. This is the pairwise
    /// distance behind [`Self::dot`] and
    /// [`crate::similarity::hamming_similarity`]; the served
    /// all-classes search runs [`crate::kernels::Kernel::hamming_to_all`]
    /// instead.
    ///
    /// # Errors
    ///
    /// [`HdcError::DimensionMismatch`] if dimensions differ.
    pub fn hamming_distance(&self, other: &Self) -> Result<u32, HdcError> {
        self.check_dim(other)?;
        debug_assert!(
            self.tail_is_clear() && other.tail_is_clear(),
            "tail-mask invariant violated"
        );
        Ok(self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum())
    }

    /// Circular shift of dimensions by `k` positions (the *permutation*
    /// operation of HDC algebra, useful for sequence encoding).
    ///
    /// Runs word-at-a-time — two word-aligned shifts with bit carry,
    /// `O(D/64)` — instead of the per-bit get/set loop (which re-ran a
    /// bounds assert for every dimension).
    #[must_use]
    pub fn rotate(&self, k: u32) -> Self {
        let mut words = vec![0u64; self.words.len()];
        rotate_or_into(&mut words, &self.words, self.dim, k);
        Hypervector {
            words,
            dim: self.dim,
        }
    }

    /// OR `x << s` (as one big little-endian integer) into `out`.
    fn shl_or_into(out: &mut [u64], x: &[u64], s: u32) {
        let ws = (s / 64) as usize;
        let bs = s % 64;
        for w in ws..out.len() {
            let mut v = x[w - ws] << bs;
            if bs != 0 && w > ws {
                v |= x[w - ws - 1] >> (64 - bs);
            }
            out[w] |= v;
        }
    }

    /// OR `x >> s` into `out`. Relies on the tail-mask invariant: bits
    /// past `dim` in the last word of `x` are zero, so nothing bogus
    /// shifts down into range.
    fn shr_or_into(out: &mut [u64], x: &[u64], s: u32) {
        let ws = (s / 64) as usize;
        let bs = s % 64;
        for w in 0..out.len().saturating_sub(ws) {
            let mut v = x[w + ws] >> bs;
            if bs != 0 && w + ws + 1 < x.len() {
                v |= x[w + ws + 1] << (64 - bs);
            }
            out[w] |= v;
        }
    }

    fn check_dim(&self, other: &Self) -> Result<(), HdcError> {
        if self.dim != other.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uhd_lowdisc::rng::Xoshiro256StarStar;

    #[test]
    fn construction_basics() {
        let z = Hypervector::neg_ones(100);
        assert_eq!(z.dim(), 100);
        assert_eq!(z.count_plus_ones(), 0);
        let o = Hypervector::ones(100);
        assert_eq!(o.count_plus_ones(), 100);
        // Tail bits beyond dim 100 are masked.
        assert_eq!(o.words()[1] >> (100 - 64), 0);
    }

    #[test]
    #[should_panic(expected = "dimension must be nonzero")]
    fn zero_dim_panics() {
        let _ = Hypervector::neg_ones(0);
    }

    #[test]
    fn random_is_roughly_balanced() {
        let mut rng = Xoshiro256StarStar::seeded(11);
        let hv = Hypervector::random(10_000, &mut rng);
        let ones = hv.count_plus_ones();
        assert!((4700..5300).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn bind_is_xnor_and_involution() {
        let mut rng = Xoshiro256StarStar::seeded(2);
        let a = Hypervector::random(333, &mut rng);
        let b = Hypervector::random(333, &mut rng);
        let bound = a.bind(&b).unwrap();
        assert_eq!(bound.bind(&a).unwrap(), b);
        assert_eq!(bound.bind(&b).unwrap(), a);
        // Self-binding gives the identity (+1 everywhere).
        assert_eq!(a.bind(&a).unwrap(), Hypervector::ones(333));
    }

    #[test]
    fn bind_dimension_mismatch() {
        let a = Hypervector::ones(64);
        let b = Hypervector::ones(65);
        assert!(matches!(
            a.bind(&b),
            Err(HdcError::DimensionMismatch {
                left: 64,
                right: 65
            })
        ));
    }

    #[test]
    fn dot_identities() {
        let o = Hypervector::ones(129);
        let z = Hypervector::neg_ones(129);
        assert_eq!(o.dot(&o).unwrap(), 129);
        assert_eq!(o.dot(&z).unwrap(), -129);
        assert_eq!(z.dot(&z).unwrap(), 129);
    }

    #[test]
    fn dot_matches_naive() {
        let mut rng = Xoshiro256StarStar::seeded(3);
        let a = Hypervector::random(257, &mut rng);
        let b = Hypervector::random(257, &mut rng);
        let naive: i64 = (0..257)
            .map(|i| {
                let xa = if a.bit(i) { 1i64 } else { -1 };
                let xb = if b.bit(i) { 1i64 } else { -1 };
                xa * xb
            })
            .sum();
        assert_eq!(a.dot(&b).unwrap(), naive);
    }

    #[test]
    fn hamming_and_dot_are_consistent() {
        let mut rng = Xoshiro256StarStar::seeded(4);
        let a = Hypervector::random(500, &mut rng);
        let b = Hypervector::random(500, &mut rng);
        let h = i64::from(a.hamming_distance(&b).unwrap());
        assert_eq!(a.dot(&b).unwrap(), 500 - 2 * h);
    }

    #[test]
    fn negate_flips_everything() {
        let mut rng = Xoshiro256StarStar::seeded(5);
        let a = Hypervector::random(100, &mut rng);
        let n = a.negate();
        assert_eq!(a.dot(&n).unwrap(), -100);
        assert_eq!(n.negate(), a);
    }

    /// The pre-kernel O(D) reference rotation: per-bit get/set.
    fn rotate_naive(hv: &Hypervector, k: u32) -> Hypervector {
        let d = hv.dim();
        let k = k % d;
        let mut out = Hypervector::neg_ones(d);
        for i in 0..d {
            if hv.bit(i) {
                out.set_bit((i + k) % d, true);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Word-level rotation equals the per-bit reference for every
        /// dimension (including d % 64 ≠ 0 tails) and shift.
        #[test]
        fn prop_rotate_equals_naive(
            dim in 1u32..400,
            k in 0u32..1000,
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            let hv = Hypervector::random(dim, &mut rng);
            let fast = hv.rotate(k);
            prop_assert_eq!(&fast, &rotate_naive(&hv, k));
            prop_assert!(fast.tail_is_clear());
        }

        /// No public constructor or operator ever produces set tail
        /// bits — the invariant the packed kernels rely on instead of
        /// per-call re-masking.
        #[test]
        fn prop_public_api_upholds_tail_invariant(
            dim in 1u32..300,
            k in 0u32..512,
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            let a = Hypervector::random(dim, &mut rng);
            let b = Hypervector::random(dim, &mut rng);
            prop_assert!(a.tail_is_clear() && b.tail_is_clear());
            prop_assert!(Hypervector::ones(dim).tail_is_clear());
            prop_assert!(Hypervector::neg_ones(dim).tail_is_clear());
            prop_assert!(a.bind(&b).unwrap().tail_is_clear());
            prop_assert!(a.negate().tail_is_clear());
            prop_assert!(a.rotate(k).tail_is_clear());
            let from = Hypervector::from_words(vec![u64::MAX; words_for_dim(dim)], dim).unwrap();
            prop_assert!(from.tail_is_clear());
            let mut c = a.clone();
            c.set_bit(dim - 1, true);
            c.set_bit(dim / 2, false);
            prop_assert!(c.tail_is_clear());
        }
    }

    #[test]
    fn rotate_matches_naive_at_word_boundaries() {
        let mut rng = Xoshiro256StarStar::seeded(12);
        for dim in [64u32, 65, 127, 128, 129, 192, 256] {
            let hv = Hypervector::random(dim, &mut rng);
            for k in [0, 1, 63, 64, 65, dim - 1, dim, dim + 7] {
                assert_eq!(hv.rotate(k), rotate_naive(&hv, k), "dim {dim} k {k}");
            }
        }
    }

    #[test]
    fn rotate_preserves_population_and_round_trips() {
        let mut rng = Xoshiro256StarStar::seeded(6);
        let a = Hypervector::random(130, &mut rng);
        let r = a.rotate(37);
        assert_eq!(r.count_plus_ones(), a.count_plus_ones());
        assert_eq!(r.rotate(130 - 37), a);
        assert_eq!(a.rotate(0), a);
        assert_eq!(a.rotate(130), a);
    }

    #[test]
    fn from_words_validates() {
        assert!(matches!(
            Hypervector::from_words(vec![], 0),
            Err(HdcError::DimensionZero)
        ));
        assert!(matches!(
            Hypervector::from_words(vec![0, 0], 64),
            Err(HdcError::WordCountMismatch {
                expected: 1,
                got: 2
            })
        ));
        let hv = Hypervector::from_words(vec![u64::MAX], 10).unwrap();
        assert_eq!(hv.count_plus_ones(), 10, "tail bits must be cleared");
    }

    #[test]
    fn hamming_distance_matches_bitwise_definition() {
        let mut rng = Xoshiro256StarStar::seeded(8);
        // 257 dims: four full words and a one-bit tail.
        let a = Hypervector::random(257, &mut rng);
        let b = Hypervector::random(257, &mut rng);
        let bitwise: u32 = (0..257).map(|i| u32::from(a.bit(i) != b.bit(i))).sum();
        assert_eq!(a.hamming_distance(&b).unwrap(), bitwise);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The packed XOR+popcount fast path equals the per-dimension
        /// bitwise definition for arbitrary dimensions and seeds.
        #[test]
        fn prop_hamming_distance_equals_bitwise(
            dim in 1u32..600,
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            let a = Hypervector::random(dim, &mut rng);
            let b = Hypervector::random(dim, &mut rng);
            let bitwise: u32 = (0..dim).map(|i| u32::from(a.bit(i) != b.bit(i))).sum();
            prop_assert_eq!(a.hamming_distance(&b).unwrap(), bitwise);
        }
    }

    #[test]
    fn random_hypervectors_are_nearly_orthogonal() {
        let mut rng = Xoshiro256StarStar::seeded(7);
        let d = 8192;
        let a = Hypervector::random(d, &mut rng);
        let b = Hypervector::random(d, &mut rng);
        let cos = a.dot(&b).unwrap() as f64 / f64::from(d);
        assert!(cos.abs() < 0.06, "|cos| = {cos} too large for random HVs");
    }
}

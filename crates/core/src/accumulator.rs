//! Bundling accumulators: the software mirror of the paper's popcount
//! stage (Fig. 5).
//!
//! Bundling in HDC sums bipolar hypervectors element-wise. The hardware
//! does this with a per-dimension popcounter built from D flip-flops; the
//! software equivalents here are:
//!
//! * [`DenseAccumulator`] — a plain `i64`-per-dimension reference
//!   implementation;
//! * [`BitSliceAccumulator`] — a bit-sliced counter array that bundles
//!   masks through a Harley–Seal carry-save tree and binarizes with an
//!   MSB-first bit-sliced compare against TOB, 64 dimensions per word
//!   operation. This is the fast path for encoding and training.
//!
//! Bundling is one [`Kernel::bundle`] call per batch of masks: per
//! group of eight word columns the kernel loads the count planes into
//! registers once, runs every mask through the tree 16 at a time, and
//! stores the planes once. Binarization walks the same eight-word lane
//! groups with the plane loop inside, so it vectorizes as well.
//!
//! Both accumulate *counts of logic-1* per dimension; the bipolar sum is
//! recovered as `2·count − total`, and binarization (`sign`) outputs +1
//! exactly when `count ≥ ⌈total/2⌉` — the paper's threshold-of-
//! binarization TOB = H/2.

use crate::error::HdcError;
use crate::hypervector::{words_for_dim, Hypervector};
use crate::kernels::Kernel;

/// Reference accumulator: one saturating-free `i64` counter per dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseAccumulator {
    counts: Vec<i64>,
    dim: u32,
    total: u64,
}

impl DenseAccumulator {
    /// Create a zeroed accumulator of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: u32) -> Self {
        assert!(dim > 0, "accumulator dimension must be nonzero");
        DenseAccumulator {
            counts: vec![0; dim as usize],
            dim,
            total: 0,
        }
    }

    /// Dimension D.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of masks added so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Add one packed mask (bit = 1 increments that dimension's counter).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != words_for_dim(dim)`.
    pub fn add_mask(&mut self, words: &[u64]) {
        assert_eq!(
            words.len(),
            words_for_dim(self.dim),
            "mask word count mismatch"
        );
        // Walk set bits word-at-a-time instead of testing all D bits.
        // Stray bits past `dim` in the last word are ignored, matching
        // the old per-dimension loop.
        let rem = self.dim % 64;
        let last = words.len() - 1;
        for (wi, &word) in words.iter().enumerate() {
            let mut m = if wi == last && rem != 0 {
                word & ((1u64 << rem) - 1)
            } else {
                word
            };
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                self.counts[wi * 64 + bit] += 1;
                m &= m - 1;
            }
        }
        self.total += 1;
    }

    /// Add a hypervector's +1 pattern.
    ///
    /// # Errors
    ///
    /// [`HdcError::DimensionMismatch`] if dimensions differ.
    pub fn add_hypervector(&mut self, hv: &Hypervector) -> Result<(), HdcError> {
        if hv.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: hv.dim(),
            });
        }
        self.add_mask(hv.words());
        Ok(())
    }

    /// Per-dimension counts of 1s.
    #[must_use]
    pub fn counts(&self) -> &[i64] {
        &self.counts
    }

    /// Per-dimension bipolar sums `2·count − total`.
    #[must_use]
    pub fn bipolar_sums(&self) -> Vec<i64> {
        self.counts
            .iter()
            .map(|&c| 2 * c - self.total as i64)
            .collect()
    }

    /// Binarize: +1 where the bipolar sum is ≥ 0 (count ≥ total/2).
    #[must_use]
    pub fn binarize(&self) -> Hypervector {
        pack_threshold(&self.counts, self.dim, |&c| 2 * c >= self.total as i64)
    }
}

/// Pack `predicate(count)` per dimension into a hypervector, building
/// whole words instead of `set_bit` (and its per-dimension bounds
/// assert) — the shared binarization tail of the dense accumulator and
/// of [`crate::model::HdcModel::from_class_sums`].
pub(crate) fn pack_threshold<T>(
    counts: &[T],
    dim: u32,
    predicate: impl Fn(&T) -> bool,
) -> Hypervector {
    let mut words = vec![0u64; words_for_dim(dim)];
    for (i, c) in counts.iter().enumerate() {
        if predicate(c) {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
    Hypervector::from_words(words, dim).expect("counts length matches dim by construction")
}

/// The width of the Harley–Seal tree inside [`Kernel::bundle`]: a
/// depth-4 carry-save tree takes 16 = 2⁴ masks to one carry at weight
/// 16. It is not a call size: the kernel takes any number of masks,
/// and encoders that stage derived rows stage this many at a time.
pub const BUNDLE_BLOCK: usize = 16;

/// Word lanes per step of the bundling and binarization loops: eight
/// `u64`s, one 512-bit register (two AVX2, four SSE2). The fixed-size
/// lane arrays are what lets LLVM vectorize the word-inner loops.
const LANES: usize = 8;

/// Bit-sliced accumulator: the software popcounter array of Fig. 5.
///
/// Maintains K bit planes over the D/64 word columns; plane `k` holds
/// bit `k` of every dimension's count, so one word operation updates
/// 64 counters at once. The planes are grown to the bit length of the
/// largest count a call can reach before its adders run, so no adder
/// ever overflows and no inner loop allocates.
///
/// * **Bundling** ([`BitSliceAccumulator::add_masks`]) hands all its
///   masks to one [`Kernel::bundle`] call. Per lane group the kernel
///   holds the planes in registers; planes 0–3 double as the
///   Harley–Seal tree's ones/twos/fours/eights, so per block of
///   [`BUNDLE_BLOCK`] masks only the weight-16 carry ripples into
///   planes 4…K: about `(15·5 + (K − 4)·3) / 16` word operations per
///   mask and word column (two per carry-save adder with AVX-512
///   `vpternlogq`), against `~3·log₂(count)` for a per-mask ripple.
/// * **Binarization** ([`BitSliceAccumulator::binarize_with_total`])
///   compares each word's planes MSB-first against TOB with gt/eq
///   masks — the masking logic of Fig. 5, 64 comparators per word and
///   eight words per step.
///
/// # Example
///
/// ```
/// use uhd_core::accumulator::BitSliceAccumulator;
///
/// let mut acc = BitSliceAccumulator::new(128);
/// acc.add_mask(&[u64::MAX, 0]);      // dims 0..64 see a 1
/// acc.add_mask(&[u64::MAX, 0]);
/// acc.add_mask(&[0, u64::MAX]);      // dims 64..128 see a 1
/// let counts = acc.counts();
/// assert_eq!(counts[0], 2);
/// assert_eq!(counts[64], 1);
/// ```
#[derive(Debug, Clone)]
pub struct BitSliceAccumulator {
    /// The K bit planes, plane-major: plane `k` is
    /// `planes[k·words .. (k+1)·words]`.
    planes: Vec<u64>,
    /// Word columns per plane, `⌈D/64⌉`.
    words: usize,
    dim: u32,
    total: u64,
}

impl BitSliceAccumulator {
    /// Create a zeroed accumulator of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: u32) -> Self {
        assert!(dim > 0, "accumulator dimension must be nonzero");
        let words = words_for_dim(dim);
        BitSliceAccumulator {
            planes: vec![0u64; words],
            words,
            dim,
            total: 0,
        }
    }

    /// Dimension D.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of masks added so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Current counter width in planes (grows on demand).
    #[must_use]
    pub fn planes(&self) -> usize {
        self.planes.len() / self.words
    }

    /// Grow the planes so every count up to `max_count` fits.
    fn grow_to(&mut self, max_count: u64) {
        let needed = (u64::BITS - max_count.leading_zeros()).max(1) as usize;
        if needed > self.planes() {
            self.planes.resize(needed * self.words, 0);
        }
    }

    /// Add one packed mask: every dimension whose mask bit is 1 is
    /// incremented. Equivalent to `add_masks(&[words])`: a lone mask
    /// ripples through all K planes, so bundling loops should hand
    /// their masks to [`BitSliceAccumulator::add_masks`] in blocks.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != words_for_dim(dim)`.
    pub fn add_mask(&mut self, words: &[u64]) {
        self.add_masks(&[words]);
    }

    /// Add packed masks: every dimension is incremented once per mask
    /// whose bit is 1 there.
    ///
    /// The planes are grown to hold `total + masks.len()`, then every
    /// mask goes through one dispatched [`Kernel::bundle`] call. The
    /// result is independent of how the masks are split across calls.
    ///
    /// # Panics
    ///
    /// Panics if any mask's length is not `words_for_dim(dim)`.
    pub fn add_masks(&mut self, masks: &[&[u64]]) {
        for mask in masks {
            assert_eq!(mask.len(), self.words, "mask word count mismatch");
        }
        let added = masks.len() as u64;
        self.grow_to(self.total.saturating_add(added));
        Kernel::active().bundle(&mut self.planes, self.words, masks);
        self.total += added;
    }

    /// Add masks whose contributions `total` already counts: every
    /// dimension is incremented once per mask whose bit is 1 there,
    /// and `total` stays put. Each mask must refine a contribution
    /// counted earlier (a lit pixel's delta row on top of the all-dark
    /// bundle it was counted in), so no count ever passes `total` and
    /// the counter never widens past its bit length.
    ///
    /// This is [`BitSliceAccumulator::add_masks`] with the masks
    /// already counted: it grows the planes to `total` and restores it.
    ///
    /// # Panics
    ///
    /// Panics if more masks are passed than `total` counts, or on a
    /// mask of the wrong length.
    pub(crate) fn add_uncounted_masks(&mut self, masks: &[&[u64]]) {
        let total = self.total;
        self.total = total
            .checked_sub(masks.len() as u64)
            .expect("uncounted masks refine contributions already in total");
        self.add_masks(masks);
        debug_assert_eq!(self.total, total);
    }

    /// Merge another accumulator's counts into this one.
    ///
    /// One ripple-carry pass: each word column adds `other`'s planes to
    /// this one's plane by plane, eight words per step, with one
    /// carry per bit. The planes are grown first to hold the merged
    /// total, so the carry out of the top plane is zero.
    ///
    /// # Errors
    ///
    /// [`HdcError::DimensionMismatch`] if dimensions differ.
    pub fn merge(&mut self, other: &BitSliceAccumulator) -> Result<(), HdcError> {
        if other.dim != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
            });
        }
        if self.total == 0 {
            // Nothing counted yet, so every plane is zero: the merge is
            // a copy of `other`'s planes.
            if self.planes.len() < other.planes.len() {
                self.planes.resize(other.planes.len(), 0);
            }
            self.planes[..other.planes.len()].copy_from_slice(&other.planes);
            self.total = other.total;
            return Ok(());
        }
        self.grow_to(self.total.saturating_add(other.total));
        // Planes of `other` past our width are all-zero: its counts fit
        // in the grown planes.
        let width = self.planes.len().min(other.planes.len());
        let addend = &other.planes[..width];
        let words = self.words;
        let mut w = 0;
        while w + LANES <= words {
            add_planes::<LANES>(&mut self.planes, addend, words, w);
            w += LANES;
        }
        for w in w..words {
            add_planes::<1>(&mut self.planes, addend, words, w);
        }
        self.total += other.total;
        Ok(())
    }

    /// Run `emit` on every word column, with the index of the column's
    /// first dimension and its count bytes: `bytes[g][i]` holds bits
    /// `8g..8g+8` of the count of the column's dimension `i`, one slice
    /// entry per group of eight planes. Each column's K plane words are
    /// read once and transposed eight planes × eight dimensions at a
    /// time through [`SPREAD`]. Entries past `dim` in the last column
    /// are stray and must be ignored.
    fn for_each_column(&self, mut emit: impl FnMut(usize, &[[u8; 64]])) {
        let words = self.words;
        let groups = self.planes().div_ceil(8);
        let mut bytes = [[0u8; 64]; 8];
        for w in 0..words {
            for (g, group) in bytes[..groups].iter_mut().enumerate() {
                let mut column = [0u64; 8];
                let mut depth = 0;
                for plane in self.planes.chunks_exact(words).skip(8 * g).take(8) {
                    column[depth] = plane[w];
                    depth += 1;
                }
                for (byte, chunk) in group.chunks_exact_mut(8).enumerate() {
                    let mut bits = 0u64;
                    for (k, &plane) in column[..depth].iter().enumerate() {
                        bits |= SPREAD[((plane >> (8 * byte)) & 0xff) as usize] << k;
                    }
                    chunk.copy_from_slice(&bits.to_le_bytes());
                }
            }
            emit(64 * w, &bytes[..groups]);
        }
    }

    /// Extract the per-dimension counts.
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        let dim = self.dim as usize;
        let mut counts = vec![0u64; dim];
        self.for_each_column(|first, bytes| {
            let column = &mut counts[first..(first + 64).min(dim)];
            for (g, group) in bytes.iter().enumerate() {
                for (count, &byte) in column.iter_mut().zip(group) {
                    *count |= u64::from(byte) << (8 * g);
                }
            }
        });
        counts
    }

    /// Binarize against an explicit total: +1 where `2·count ≥ total`.
    ///
    /// This is the paper's masking-logic decision (Fig. 5) with TOB =
    /// total/2, since `2·count ≥ total ⇔ count ≥ T = ⌈total/2⌉`: each
    /// word's planes are compared MSB-first against `T`, keeping a
    /// "greater" and an "equal so far" mask per 64 dimensions. An
    /// explicit argument lets callers binarize a class accumulator
    /// against `H × images` while reusing the same machinery per image
    /// with `H`.
    #[must_use]
    pub fn binarize_with_total(&self, total: u64) -> Hypervector {
        let threshold = total / 2 + total % 2;
        let words = self.words;
        let depth = self.planes();
        let mut out = vec![0u64; words];
        // Every count is below 2^depth, so a threshold with a bit at or
        // above `depth` is never reached: all -1.
        if depth >= 64 || threshold >> depth == 0 {
            let mut w = 0;
            while w + LANES <= words {
                out[w..w + LANES].copy_from_slice(&self.reaches::<LANES>(threshold, w));
                w += LANES;
            }
            for (w, slot) in out.iter_mut().enumerate().skip(w) {
                *slot = self.reaches::<1>(threshold, w)[0];
            }
        }
        // Stray count bits past `dim` are masked off here.
        Hypervector::from_words(out, self.dim).expect("word count matches dim by construction")
    }

    /// Word lanes `w..w+N` of the mask `count ≥ threshold`, for a
    /// threshold below `2^depth`: the planes compared MSB-first, with a
    /// "greater" and an "equal so far" mask per word.
    #[inline(always)]
    #[allow(clippy::inline_always)]
    fn reaches<const N: usize>(&self, threshold: u64, w: usize) -> [u64; N] {
        let mut gt = [0u64; N];
        let mut eq = [u64::MAX; N];
        for k in (0..self.planes()).rev() {
            let plane = lanes::<N>(&self.planes, k * self.words + w);
            let bit = (threshold >> k) & 1 == 1;
            for i in 0..N {
                if bit {
                    eq[i] &= plane[i];
                } else {
                    gt[i] |= eq[i] & plane[i];
                    eq[i] &= !plane[i];
                }
            }
        }
        std::array::from_fn(|i| gt[i] | eq[i])
    }

    /// Binarize against the number of masks actually added.
    #[must_use]
    pub fn binarize(&self) -> Hypervector {
        self.binarize_with_total(self.total)
    }

    /// Per-dimension bipolar sums `2·count − total`.
    #[must_use]
    pub fn bipolar_sums(&self) -> Vec<i64> {
        let mut sums = vec![0i64; self.dim as usize];
        self.fold_bipolar_sums_into(&mut sums, false);
        sums
    }

    /// Add the bipolar sums `2·count − total` into `sums` (`negate`:
    /// subtract them) without allocating them first. Each column's
    /// count bytes are added group by group in one pass over its 64
    /// sums, so the per-dimension loops are plain shifted vector adds.
    ///
    /// # Panics
    ///
    /// Panics if `sums.len() != dim`.
    pub(crate) fn fold_bipolar_sums_into(&self, sums: &mut [i64], negate: bool) {
        let dim = self.dim as usize;
        assert_eq!(sums.len(), dim, "sum row length mismatch");
        let total = if negate { -1 } else { 1 } * self.total as i64;
        self.for_each_column(|first, bytes| {
            let column = &mut sums[first..(first + 64).min(dim)];
            for sum in column.iter_mut() {
                *sum -= total;
            }
            for (g, group) in bytes.iter().enumerate() {
                // Twice the count bits 8g..8g+8.
                let shift = 8 * g + 1;
                let pairs = column.iter_mut().zip(group);
                if negate {
                    pairs.for_each(|(sum, &byte)| *sum -= i64::from(byte) << shift);
                } else {
                    pairs.for_each(|(sum, &byte)| *sum += i64::from(byte) << shift);
                }
            }
        });
    }

    /// Reset to the zero state, keeping the allocated planes.
    pub fn clear(&mut self) {
        self.planes.fill(0);
        self.total = 0;
    }
}

/// `SPREAD[b]` moves bit `i` of byte `b` to bit `8·i`: the byte-wise
/// bit transpose behind the word-major count extraction.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            if (b >> i) & 1 == 1 {
                table[b] |= 1 << (8 * i);
            }
            i += 1;
        }
        b += 1;
    }
    table
};

// The adders below are `#[inline(always)]` so that each
// `#[target_feature]` variant of `Kernel::bundle` that compiles the
// portable body builds it with its own register width; an out-of-line
// helper would be built for the baseline target instead.

/// Carry-save adder over `N` word lanes: returns `(carry, sum)` of
/// `a + b + c` per bit.
#[inline(always)]
#[allow(clippy::inline_always)]
fn csa<const N: usize>(a: [u64; N], b: [u64; N], c: [u64; N]) -> ([u64; N], [u64; N]) {
    let mut hi = [0u64; N];
    let mut lo = [0u64; N];
    for i in 0..N {
        let u = a[i] ^ b[i];
        hi[i] = (a[i] & b[i]) | (u & c[i]);
        lo[i] = u ^ c[i];
    }
    (hi, lo)
}

/// Lanes `w..w+N` of `words`.
#[inline(always)]
#[allow(clippy::inline_always)]
fn lanes<const N: usize>(words: &[u64], w: usize) -> [u64; N] {
    words[w..w + N].try_into().expect("N lanes")
}

/// The per-word adder: ripple `carry` into word lanes `w..w+N` of the
/// planes from plane `weight` up. The planes were grown to hold every
/// reachable count, so the carry out of the top plane is zero.
#[inline(always)]
#[allow(clippy::inline_always)]
fn ripple<const N: usize>(
    planes: &mut [u64],
    words: usize,
    w: usize,
    weight: usize,
    mut carry: [u64; N],
) {
    for plane in planes.chunks_exact_mut(words).skip(weight) {
        let lane = &mut plane[w..w + N];
        for i in 0..N {
            let t = lane[i] & carry[i];
            lane[i] ^= carry[i];
            carry[i] = t;
        }
    }
    debug_assert!(carry.iter().all(|&c| c == 0), "bit-plane counter overflow");
}

/// Ripple-carry add word lanes `w..w+N` of the `addend` planes into
/// the same lanes of `planes`, plane by plane from plane 0 up. The
/// planes were grown to hold the sum, so the carry out of the top plane
/// is zero.
#[inline(always)]
#[allow(clippy::inline_always)]
fn add_planes<const N: usize>(planes: &mut [u64], addend: &[u64], words: usize, w: usize) {
    let mut carry = [0u64; N];
    let mut addend = addend.chunks_exact(words);
    for plane in planes.chunks_exact_mut(words) {
        let b = addend.next().map_or([0u64; N], |row| lanes(row, w));
        let (next, sum) = csa(lanes(plane, w), b, carry);
        plane[w..w + N].copy_from_slice(&sum);
        carry = next;
    }
    debug_assert!(carry.iter().all(|&c| c == 0), "bit-plane counter overflow");
}

/// Planes a lane group of [`Kernel::bundle`] loads once for a whole
/// call: at AVX-512 width, sixteen 512-bit registers, half the register
/// file, leaving the rest to the tree. A shallower counter loads,
/// ripples and stores only its own planes. A deeper counter keeps its
/// low planes loaded and ripples the carry out of them through its
/// upper planes in memory.
pub(crate) const REGISTER_PLANES: usize = 16;

/// Fewer leftover rows than this ripple in one at a time; more go
/// through one Harley–Seal tree padded with zero rows, which costs
/// about as much as three ripples through ten planes.
pub(crate) const RIPPLE_ROWS: usize = 3;

/// Ripple `carry` into the held planes `acc[weight..depth]`, then the
/// carry out of the last register plane into the memory planes above
/// them (lanes `w..w+N`, from plane [`REGISTER_PLANES`] up).
#[inline(always)]
#[allow(clippy::inline_always)]
fn carry_into<const N: usize>(
    acc: &mut [[u64; N]; REGISTER_PLANES],
    weight: usize,
    mut carry: [u64; N],
    planes: &mut [u64],
    words: usize,
    w: usize,
) {
    let depth = planes.len() / words;
    for plane in acc.iter_mut().take(depth).skip(weight) {
        for i in 0..N {
            let t = plane[i] & carry[i];
            plane[i] ^= carry[i];
            carry[i] = t;
        }
    }
    ripple(planes, words, w, REGISTER_PLANES, carry);
}

/// One Harley–Seal tree over [`BUNDLE_BLOCK`] masks: `acc[0..4]` are
/// its ones/twos/fours/eights accumulators, so afterwards
/// `ones + 2·twos + 4·fours + 8·eights + 16·sixteens` equals the old
/// low count plus the block's column count. Returns `sixteens`.
#[inline(always)]
#[allow(clippy::inline_always)]
fn harley_seal<const N: usize>(
    acc: &mut [[u64; N]; REGISTER_PLANES],
    m: impl Fn(usize) -> [u64; N],
) -> [u64; N] {
    let (twos_a, ones) = csa(acc[0], m(0), m(1));
    let (twos_b, ones) = csa(ones, m(2), m(3));
    let (fours_a, twos) = csa(acc[1], twos_a, twos_b);
    let (twos_a, ones) = csa(ones, m(4), m(5));
    let (twos_b, ones) = csa(ones, m(6), m(7));
    let (fours_b, twos) = csa(twos, twos_a, twos_b);
    let (eights_a, fours) = csa(acc[2], fours_a, fours_b);
    let (twos_a, ones) = csa(ones, m(8), m(9));
    let (twos_b, ones) = csa(ones, m(10), m(11));
    let (fours_a, twos) = csa(twos, twos_a, twos_b);
    let (twos_a, ones) = csa(ones, m(12), m(13));
    let (twos_b, ones) = csa(ones, m(14), m(15));
    let (fours_b, twos) = csa(twos, twos_a, twos_b);
    let (eights_b, fours) = csa(fours, fours_a, fours_b);
    let (sixteens, eights) = csa(acc[3], eights_a, eights_b);
    acc[0] = ones;
    acc[1] = twos;
    acc[2] = fours;
    acc[3] = eights;
    sixteens
}

/// Every row into word lanes `w..w+N` of the counter: its low
/// [`REGISTER_PLANES`] planes are loaded once, every 16-row block runs
/// the Harley–Seal tree on them and its weight-16 carry ripples on from
/// plane 4, then they are stored once. The planes above the counter's
/// depth start zero and stay zero, since no count passes the top plane
/// ([`Kernel::bundle`] checks the row count; the caller grows the
/// planes).
#[inline(always)]
#[allow(clippy::inline_always)]
fn bundle_lanes<const N: usize>(planes: &mut [u64], words: usize, rows: &[&[u64]], w: usize) {
    let depth = planes.len() / words;
    let mut acc = [[0u64; N]; REGISTER_PLANES];
    for (k, plane) in acc.iter_mut().enumerate().take(depth) {
        *plane = lanes(planes, k * words + w);
    }
    let mut blocks = rows.chunks_exact(BUNDLE_BLOCK);
    for block in &mut blocks {
        let sixteens = harley_seal(&mut acc, |i| lanes(block[i], w));
        carry_into(&mut acc, 4, sixteens, planes, words, w);
    }
    let rest = blocks.remainder();
    if rest.len() >= RIPPLE_ROWS {
        let pad = |i: usize| rest.get(i).map_or([0u64; N], |row| lanes(row, w));
        let sixteens = harley_seal(&mut acc, pad);
        carry_into(&mut acc, 4, sixteens, planes, words, w);
    } else {
        for row in rest {
            carry_into(&mut acc, 0, lanes(row, w), planes, words, w);
        }
    }
    for (k, plane) in acc.iter().enumerate().take(depth) {
        planes[k * words + w..k * words + w + N].copy_from_slice(plane);
    }
}

/// The portable body of [`Kernel::bundle`] that the scalar and AVX2
/// variants compile: every row into the plane-major counter,
/// eight words at a time, then the ragged words one at a time.
#[inline(always)]
#[allow(clippy::inline_always)]
pub(crate) fn bundle_portable(planes: &mut [u64], words: usize, rows: &[&[u64]]) {
    let mut w = 0;
    while w + LANES <= words {
        bundle_lanes::<LANES>(planes, words, rows, w);
        w += LANES;
    }
    for w in w..words {
        bundle_lanes::<1>(planes, words, rows, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uhd_testutil::{fixture_rng, random_masks};

    #[test]
    fn bit_slice_matches_dense_on_random_masks() {
        let dim = 200u32;
        let mut rng = fixture_rng("accumulator_vs_dense");
        let mut dense = DenseAccumulator::new(dim);
        let mut sliced = BitSliceAccumulator::new(dim);
        for m in random_masks(500, dim, &mut rng) {
            dense.add_mask(&m);
            sliced.add_mask(&m);
        }
        let dc: Vec<u64> = dense.counts().iter().map(|&c| c as u64).collect();
        assert_eq!(sliced.counts(), dc);
        assert_eq!(sliced.binarize(), dense.binarize());
        assert_eq!(sliced.bipolar_sums(), dense.bipolar_sums());
    }

    #[test]
    fn plane_growth_is_logarithmic() {
        let mut acc = BitSliceAccumulator::new(64);
        let m = vec![u64::MAX];
        for _ in 0..1000 {
            acc.add_mask(&m);
        }
        assert_eq!(acc.counts(), vec![1000u64; 64]);
        assert!(acc.planes() <= 11, "planes = {}", acc.planes());
    }

    #[test]
    fn binarize_ties_go_positive() {
        // With total = 2 and count = 1 (2*1 >= 2), the sign is +1 —
        // exactly the TOB = H/2 "threshold reached" rule of Fig. 5.
        let mut acc = BitSliceAccumulator::new(64);
        acc.add_mask(&[u64::MAX]);
        acc.add_mask(&[0]);
        let hv = acc.binarize();
        assert_eq!(hv.count_plus_ones(), 64);
    }

    #[test]
    fn merge_equals_sequential_addition() {
        let dim = 130u32;
        let mut rng = fixture_rng("accumulator_merge");
        let masks = random_masks(60, dim, &mut rng);
        let mut whole = BitSliceAccumulator::new(dim);
        for m in &masks {
            whole.add_mask(m);
        }
        let mut left = BitSliceAccumulator::new(dim);
        let mut right = BitSliceAccumulator::new(dim);
        for (i, m) in masks.iter().enumerate() {
            if i % 2 == 0 {
                left.add_mask(m);
            } else {
                right.add_mask(m);
            }
        }
        left.merge(&right).unwrap();
        assert_eq!(left.counts(), whole.counts());
        assert_eq!(left.total(), whole.total());
    }

    #[test]
    fn merge_into_shallower_accumulator() {
        // Regression: merging an accumulator with more planes than the
        // receiver used to index out of bounds.
        let mut shallow = BitSliceAccumulator::new(64);
        let mut deep = BitSliceAccumulator::new(64);
        let m = vec![u64::MAX];
        shallow.add_mask(&m); // 1 plane
        for _ in 0..5000 {
            deep.add_mask(&m); // 13 planes
        }
        shallow.merge(&deep).unwrap();
        assert_eq!(shallow.counts(), vec![5001u64; 64]);
        // And the symmetric direction.
        let mut deep2 = BitSliceAccumulator::new(64);
        for _ in 0..5000 {
            deep2.add_mask(&m);
        }
        let mut one = BitSliceAccumulator::new(64);
        one.add_mask(&m);
        deep2.merge(&one).unwrap();
        assert_eq!(deep2.counts(), vec![5001u64; 64]);
    }

    #[test]
    fn merge_into_an_empty_accumulator_copies_the_planes() {
        let dim = 130u32;
        let mut rng = fixture_rng("accumulator_merge_empty");
        let masks = random_masks(40, dim, &mut rng);
        let rows: Vec<&[u64]> = masks.iter().map(Vec::as_slice).collect();
        let mut src = BitSliceAccumulator::new(dim);
        src.add_masks(&rows);
        // A fresh receiver, and a cleared one wider than `src`.
        let mut wide = BitSliceAccumulator::new(dim);
        for _ in 0..5000 {
            wide.add_mask(&[u64::MAX, u64::MAX, 0b11]);
        }
        wide.clear();
        for mut dst in [BitSliceAccumulator::new(dim), wide] {
            dst.merge(&src).unwrap();
            assert_eq!(dst.total(), src.total());
            assert_eq!(dst.counts(), src.counts());
            assert_eq!(dst.binarize(), src.binarize());
            assert!(dst.planes() >= src.planes());
            // The copy leaves a working accumulator behind.
            dst.merge(&src).unwrap();
            let doubled: Vec<u64> = src.counts().iter().map(|c| 2 * c).collect();
            assert_eq!(dst.counts(), doubled);
        }
    }

    #[test]
    fn uncounted_masks_refine_without_widening() {
        // Split each mask into a counted half and an uncounted rest:
        // the sum matches the dense reference of the whole masks,
        // `total` counts each mask once and the counter stays at
        // bits(total) planes.
        let dim = 130u32;
        let mut rng = fixture_rng("accumulator_uncounted");
        for n in [1usize, 15, 16, 17, 784] {
            let masks = random_masks(n, dim, &mut rng);
            let splits = random_masks(n, dim, &mut rng);
            let mut dense = DenseAccumulator::new(dim);
            let mut sliced = BitSliceAccumulator::new(dim);
            let counted: Vec<Vec<u64>> = masks
                .iter()
                .zip(&splits)
                .map(|(m, r)| m.iter().zip(r).map(|(a, b)| a & b).collect())
                .collect();
            let rest: Vec<Vec<u64>> = masks
                .iter()
                .zip(&splits)
                .map(|(m, r)| m.iter().zip(r).map(|(a, b)| a & !b).collect())
                .collect();
            for m in &masks {
                dense.add_mask(m);
            }
            sliced.add_masks(&counted.iter().map(Vec::as_slice).collect::<Vec<_>>());
            sliced.add_uncounted_masks(&rest.iter().map(Vec::as_slice).collect::<Vec<_>>());
            let dc: Vec<u64> = dense.counts().iter().map(|&c| c as u64).collect();
            assert_eq!(sliced.total(), n as u64);
            assert_eq!(sliced.counts(), dc, "n {n}");
            assert_eq!(sliced.bipolar_sums(), dense.bipolar_sums());
            assert_eq!(sliced.binarize(), dense.binarize());
            assert_eq!(
                sliced.planes(),
                (u64::BITS - (n as u64).leading_zeros()) as usize
            );
        }
    }

    #[test]
    #[should_panic(expected = "already in total")]
    fn uncounted_masks_past_total_panic() {
        let mut acc = BitSliceAccumulator::new(64);
        acc.add_uncounted_masks(&[&[1]]);
    }

    #[test]
    fn merge_dimension_mismatch_errors() {
        let mut a = BitSliceAccumulator::new(64);
        let b = BitSliceAccumulator::new(65);
        assert!(matches!(
            a.merge(&b),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn clear_resets_counts() {
        let mut acc = BitSliceAccumulator::new(64);
        acc.add_mask(&[u64::MAX]);
        acc.clear();
        assert_eq!(acc.total(), 0);
        assert_eq!(acc.counts(), vec![0u64; 64]);
    }

    #[test]
    #[should_panic(expected = "mask word count mismatch")]
    fn wrong_mask_width_panics() {
        let mut acc = BitSliceAccumulator::new(64);
        acc.add_mask(&[0, 0]);
    }

    #[test]
    fn dense_add_hypervector_counts_plus_ones() {
        let mut rng = fixture_rng("dense_add_hypervector");
        let hv = Hypervector::random(100, &mut rng);
        let mut acc = DenseAccumulator::new(100);
        acc.add_hypervector(&hv).unwrap();
        let ones: i64 = acc.counts().iter().sum();
        assert_eq!(ones, i64::from(hv.count_plus_ones()));
    }

    #[test]
    fn stray_bits_past_dim_are_ignored() {
        // Masks with garbage past `dim`: the dense reference skips
        // those bits, so counts, sums and every binarization must too.
        let mut rng = fixture_rng("accumulator_stray_bits");
        for dim in [1u32, 63, 65, 130, 200] {
            let mut masks = random_masks(40, dim, &mut rng);
            for m in &mut masks {
                *m.last_mut().unwrap() |= u64::MAX << (dim % 64);
            }
            let rows: Vec<&[u64]> = masks.iter().map(Vec::as_slice).collect();
            let mut dense = DenseAccumulator::new(dim);
            for m in &masks {
                dense.add_mask(m);
            }
            let mut sliced = BitSliceAccumulator::new(dim);
            sliced.add_masks(&rows);
            let dc: Vec<u64> = dense.counts().iter().map(|&c| c as u64).collect();
            assert_eq!(sliced.counts(), dc, "dim {dim}");
            assert_eq!(sliced.bipolar_sums(), dense.bipolar_sums(), "dim {dim}");
            assert_eq!(sliced.binarize(), dense.binarize(), "dim {dim}");
            // total 0 sets every live bit, and only live bits.
            assert_eq!(sliced.binarize_with_total(0).count_plus_ones(), dim);
        }
    }

    /// Mask counts around the 16-mask block edges and the paper's
    /// H = 784.
    const BLOCK_EDGES: [usize; 8] = [0, 1, 15, 16, 17, 783, 784, 785];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_bit_slice_equals_dense(
            dim in 1u32..300,
            seed in any::<u64>(),
            edge in 0usize..BLOCK_EDGES.len(),
            cut in any::<u64>(),
            odd in 0u64..1000,
        ) {
            let n_masks = BLOCK_EDGES[edge];
            let mut rng = uhd_lowdisc::rng::Xoshiro256StarStar::seeded(seed);
            let masks = random_masks(n_masks, dim, &mut rng);
            let rows: Vec<&[u64]> = masks.iter().map(Vec::as_slice).collect();
            let mut dense = DenseAccumulator::new(dim);
            for m in &masks {
                dense.add_mask(m);
            }
            // One block call, one mask at a time, and two block calls
            // into separate accumulators merged.
            let mut blocked = BitSliceAccumulator::new(dim);
            blocked.add_masks(&rows);
            let mut single = BitSliceAccumulator::new(dim);
            for m in &masks {
                single.add_mask(m);
            }
            let cut = (cut % (n_masks as u64 + 1)) as usize;
            let mut merged = BitSliceAccumulator::new(dim);
            merged.add_masks(&rows[..cut]);
            let mut rest = BitSliceAccumulator::new(dim);
            rest.add_masks(&rows[cut..]);
            merged.merge(&rest).unwrap();

            let dc: Vec<u64> = dense.counts().iter().map(|&c| c as u64).collect();
            for sliced in [&blocked, &single, &merged] {
                prop_assert_eq!(sliced.total(), dense.total());
                prop_assert_eq!(&sliced.counts(), &dc);
                prop_assert_eq!(sliced.bipolar_sums(), dense.bipolar_sums());
                prop_assert_eq!(sliced.binarize(), dense.binarize());
            }
            // Explicit totals: empty, one, odd, the real one, and past
            // the counter width (never reached: all -1).
            let planes = blocked.planes();
            for total in [0, 1, 2 * odd + 1, blocked.total(), (1 << planes) + 1, 2 << planes, u64::MAX] {
                let expect = pack_threshold(&dc, dim, |&c| 2 * c >= total);
                prop_assert_eq!(blocked.binarize_with_total(total), expect, "total {}", total);
            }
        }

        /// `merge` into every receiver state — empty (fresh, or cleared
        /// but wide), one plane, narrower and wider than the addend —
        /// from an addend that is either tight or a cleared wide
        /// accumulator refilled (the serving lanes' reused scratch).
        /// Counts, sums, binarization and the sum fold all match the
        /// dense reference of both mask sets.
        #[test]
        fn prop_merge_matches_dense_across_receiver_states(
            dim in 1u32..300,
            seed in any::<u64>(),
            receiver in 0usize..5,
            edge in 0usize..BLOCK_EDGES.len(),
            wide_addend in any::<bool>(),
        ) {
            let mut rng = uhd_lowdisc::rng::Xoshiro256StarStar::seeded(seed);
            let widened = |n: usize, rng: &mut uhd_lowdisc::rng::Xoshiro256StarStar| {
                let mut acc = BitSliceAccumulator::new(dim);
                let masks = random_masks(n, dim, rng);
                acc.add_masks(&masks.iter().map(Vec::as_slice).collect::<Vec<_>>());
                acc.clear();
                acc
            };
            // (receiver, its masks): 0 fresh, 1 cleared with 12 planes,
            // 2 one plane, 3 two planes, 4 twelve planes.
            let (mut dst, dst_n) = match receiver {
                0 => (BitSliceAccumulator::new(dim), 0),
                1 => (widened(3000, &mut rng), 0),
                2 => (BitSliceAccumulator::new(dim), 1),
                3 => (BitSliceAccumulator::new(dim), 3),
                _ => (BitSliceAccumulator::new(dim), 2100),
            };
            let dst_masks = random_masks(dst_n, dim, &mut rng);
            dst.add_masks(&dst_masks.iter().map(Vec::as_slice).collect::<Vec<_>>());
            let src_masks = random_masks(BLOCK_EDGES[edge], dim, &mut rng);
            let mut src = if wide_addend {
                widened(5000, &mut rng)
            } else {
                BitSliceAccumulator::new(dim)
            };
            src.add_masks(&src_masks.iter().map(Vec::as_slice).collect::<Vec<_>>());

            let mut dense = DenseAccumulator::new(dim);
            for m in dst_masks.iter().chain(&src_masks) {
                dense.add_mask(m);
            }
            dst.merge(&src).unwrap();
            let dc: Vec<u64> = dense.counts().iter().map(|&c| c as u64).collect();
            prop_assert_eq!(dst.total(), dense.total());
            prop_assert_eq!(&dst.counts(), &dc);
            prop_assert_eq!(dst.bipolar_sums(), dense.bipolar_sums());
            prop_assert_eq!(dst.binarize(), dense.binarize());
            // The fold adds or subtracts the same sums onto a running row.
            let base: Vec<i64> = (0..dim).map(|_| rng.next_u64() as i64 >> 20).collect();
            for negate in [false, true] {
                let mut folded = base.clone();
                dst.fold_bipolar_sums_into(&mut folded, negate);
                let sign = if negate { -1 } else { 1 };
                let expect: Vec<i64> = base
                    .iter()
                    .zip(dense.bipolar_sums())
                    .map(|(b, s)| b + sign * s)
                    .collect();
                prop_assert_eq!(folded, expect, "negate {}", negate);
            }
        }
    }
}

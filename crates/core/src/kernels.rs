//! Runtime-dispatched SIMD kernels for the two popcount stages of the
//! served datapath.
//!
//! The paper's datapath bundles and binarizes (Fig. 5), then searches
//! the class memory. Served traffic runs only those two kernels, and
//! this module holds exactly them behind a [`Kernel`] dispatch struct:
//! [`Kernel::bundle`], the per-dimension popcounter, and
//! [`Kernel::hamming_to_all`], the XOR + popcount of one query against
//! every class of the bit-sliced [`crate::assoc::AssociativeMemory`].
//! Three kinds implement them:
//!
//! * **scalar** — the always-correct portable fallback;
//! * **avx2** — 256-bit lanes using the Mula nibble-lookup popcount
//!   (`vpshufb` + `vpsadbw`), four classes per step;
//! * **avx512** — 512-bit lanes using the native `vpopcntq`
//!   instruction, eight classes per step (requires `AVX512F` +
//!   `AVX512VPOPCNTDQ`).
//!
//! The kernel is selected **once** per process via
//! `is_x86_feature_detected!` (memoized in a `OnceLock`) and can be
//! overridden with the `UHD_KERNEL` environment variable
//! (`scalar` / `avx2` / `avx512`; empty, unknown or locally
//! unsupported values fall back to auto-detection). Every SIMD path is
//! proven bit-identical to the scalar kernel by property tests across
//! dimensions that exercise the masked-tail remainder (`D % 256 ≠ 0`).
//! The pairwise distance of two hypervectors
//! ([`crate::hypervector::Hypervector::hamming_distance`]) serves no
//! request, so it is a plain `count_ones` loop outside this dispatch.
//!
//! The associative sweep ([`Kernel::hamming_to_all`]) is additionally
//! **cache-blocked**: classes are processed in blocks whose distance
//! accumulators stay resident in L1, and word-planes in blocks so one
//! class-chunk's column walk stays within L1/L2 — the software analogue
//! of the combinational associative memory of Schmuck et al., where
//! every class row sees the broadcast query in one pass.
//!
//! Bundling ([`Kernel::bundle`]) takes any number of masks in one
//! call. Per group of eight words it loads the low 16 count planes
//! once, runs the masks through a 16-wide Harley–Seal carry-save tree
//! and stores the planes once. The AVX-512 variant keeps the planes in
//! registers: it builds each carry-save adder from two `vpternlogq` and
//! fixes its register plane count at compile time per counter depth.
//! Scalar and AVX2 compile one portable body. Two crate-private
//! baseline helpers serve the uHD encoder's lit-pixel scan: `at_least`
//! compares 64 intensity bytes against a threshold into a bit mask, and
//! `prefetch` hints a table row into cache as the scan finds it.

// The SIMD intrinsics are the one place in the workspace that needs
// `unsafe`. Soundness rests on a single invariant, enforced by
// construction: a `Kernel` with an AVX2/AVX-512 kind can only be
// obtained through `Kernel::active()` / `Kernel::from_name()`, both of
// which verify the CPU feature at runtime before handing it out. The
// free helpers `at_least` and `prefetch` use only SSE2 and SSE, which
// every x86-64 CPU has.
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::accumulator::bundle_portable;

/// Class-block width of the associative sweep: 4096 distance
/// accumulators (16 KiB of `u32`) stay L1-resident while the class
/// words stream through.
const CLASS_BLOCK: usize = 4096;

/// Word-plane block of the SIMD associative sweep: one class-chunk's
/// column walk touches `WORD_BLOCK` cache lines (8 KiB) before its
/// accumulator spills, keeping the working set in L1/L2 even for
/// 64k-dimensional memories.
const WORD_BLOCK: usize = 128;

/// The instruction-set family a [`Kernel`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KernelKind {
    /// Portable `count_ones` sweep and bundling tree (always
    /// available).
    Scalar,
    /// 256-bit AVX2 nibble-lookup popcount (x86-64 only).
    Avx2,
    /// 512-bit AVX-512 `vpopcntq` (x86-64 with `AVX512VPOPCNTDQ` only).
    Avx512,
}

/// A dispatched sweep/bundling kernel.
///
/// Obtain the process-wide selection with [`Kernel::active`], or a
/// specific implementation with [`Kernel::scalar`] /
/// [`Kernel::from_name`]. All kernels compute bit-identical results;
/// they differ only in throughput.
///
/// # Example
///
/// ```
/// use uhd_core::kernels::Kernel;
///
/// // Two classes of two words, stored word-major.
/// let slices = [0b1010, u64::MAX, 0, 1];
/// let mut out = [0u32; 2];
/// Kernel::active().hamming_to_all(&slices, 2, &[0b0110, 0], &mut out);
/// assert_eq!(out, [2, 63]);
/// // The scalar fallback agrees on every input.
/// let mut reference = [0u32; 2];
/// Kernel::scalar().hamming_to_all(&slices, 2, &[0b0110, 0], &mut reference);
/// assert_eq!(out, reference);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kernel {
    kind: KernelKind,
}

impl Kernel {
    /// Every kernel name this build knows, runnable here or not.
    pub const NAMES: [&'static str; 3] = ["scalar", "avx2", "avx512"];

    /// The process-wide kernel: auto-detected once from CPU features
    /// (honouring a non-empty `UHD_KERNEL` override) and memoized.
    #[must_use]
    pub fn active() -> Kernel {
        static ACTIVE: OnceLock<KernelKind> = OnceLock::new();
        Kernel {
            kind: *ACTIVE.get_or_init(detect),
        }
    }

    /// The portable scalar fallback (useful to force on SIMD machines,
    /// e.g. for equivalence tests and baseline benchmarks).
    #[must_use]
    pub fn scalar() -> Kernel {
        Kernel {
            kind: KernelKind::Scalar,
        }
    }

    /// Look up a kernel by name (`"scalar"`, `"avx2"`, `"avx512"`).
    /// Returns `None` for unknown names **and** for kernels
    /// whose CPU feature is not available at runtime — so a `Some`
    /// result is always safe to run.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kernel> {
        let kind = match name {
            "scalar" => Some(KernelKind::Scalar),
            #[cfg(target_arch = "x86_64")]
            "avx2" if std::arch::is_x86_feature_detected!("avx2") => Some(KernelKind::Avx2),
            #[cfg(target_arch = "x86_64")]
            "avx512"
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq") =>
            {
                Some(KernelKind::Avx512)
            }
            _ => None,
        }?;
        Some(Kernel { kind })
    }

    /// Every kernel runnable on this machine (always includes
    /// `scalar`).
    #[must_use]
    pub fn available() -> Vec<Kernel> {
        Kernel::NAMES
            .iter()
            .filter_map(|name| Kernel::from_name(name))
            .collect()
    }

    /// The dispatch family.
    #[must_use]
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Stable lowercase name (`"scalar"`, `"avx2"`, `"avx512"`),
    /// round-trippable through [`Kernel::from_name`].
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.kind {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
        }
    }

    /// The associative-memory sweep: Hamming distance from one query to
    /// every class of a plane-transposed store.
    ///
    /// `slices` is word-major — `slices[w * classes + c]` is packed
    /// word `w` of class `c` — exactly the layout built by
    /// [`crate::assoc::AssociativeMemory`]. Distances accumulate into
    /// `out` (zeroed here first), cache-blocked over classes and
    /// word-planes.
    ///
    /// # Panics
    ///
    /// Panics if `slices.len() != classes * query.len()` or
    /// `out.len() != classes`.
    pub fn hamming_to_all(&self, slices: &[u64], classes: usize, query: &[u64], out: &mut [u32]) {
        assert_eq!(
            slices.len(),
            classes * query.len(),
            "plane store size mismatch"
        );
        assert_eq!(out.len(), classes, "distance buffer size mismatch");
        crate::telemetry::record_op(crate::telemetry::KernelOp::HammingSweep);
        out.fill(0);
        if classes == 0 {
            return;
        }
        match self.kind {
            // SAFETY: construction verified the CPU feature.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => unsafe { avx2::hamming_to_all(slices, classes, query, out) },
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => unsafe { avx512::hamming_to_all(slices, classes, query, out) },
            _ => hamming_to_all_scalar(slices, classes, query, out),
        }
    }

    /// Add every row into a bit-sliced counter array: `planes` holds
    /// K whole planes of `words` words each, plane-major (plane `k` is
    /// bit `k` of every dimension's count), and each dimension's count
    /// grows by the number of rows whose bit is 1 there.
    ///
    /// This is the inner step of
    /// [`crate::accumulator::BitSliceAccumulator::add_masks`] — the
    /// software mirror of the paper's per-dimension popcounter — so
    /// every encoder's bundling runs through the dispatched kernel.
    /// Per group of eight words the low 16 planes are loaded once,
    /// every row runs through a 16-wide Harley–Seal tree on them, and
    /// they are stored once; a deeper counter ripples the carry out of
    /// them through its upper planes in memory. The AVX-512 variant
    /// holds the planes in registers and builds each carry-save adder
    /// from two `vpternlogq`; the others compile one portable body.
    ///
    /// The caller must have grown the planes to hold every count the
    /// rows can reach; a carry out of the top plane is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is not a whole number (≥ 1) of planes, if a
    /// row is not `words` long, or if the row count alone does not fit
    /// in K bits.
    pub fn bundle(&self, planes: &mut [u64], words: usize, rows: &[&[u64]]) {
        assert!(
            words > 0 && !planes.is_empty() && planes.len().is_multiple_of(words),
            "bundle needs whole planes"
        );
        let depth = planes.len() / words;
        assert!(
            u64::BITS - (rows.len() as u64).leading_zeros() <= depth as u32,
            "bundle: {} rows overflow {depth} planes",
            rows.len()
        );
        for row in rows {
            assert_eq!(row.len(), words, "kernel operand length mismatch");
        }
        if rows.is_empty() {
            return;
        }
        crate::telemetry::record_op(crate::telemetry::KernelOp::Bundle);
        match self.kind {
            KernelKind::Scalar => bundle_portable(planes, words, rows),
            // SAFETY: construction verified the CPU feature.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => unsafe { avx2::bundle(planes, words, rows) },
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => unsafe { avx512::bundle(planes, words, rows) },
            #[allow(unreachable_patterns)]
            _ => bundle_portable(planes, words, rows),
        }
    }
}

/// Bit `i` set where `bytes[i] ≥ threshold`, for up to 64 bytes. On
/// x86-64 each 16 bytes are one SSE2 unsigned max, compare and
/// `pmovmskb` (SSE2 is part of the x86-64 baseline, so no dispatch is
/// needed); elsewhere, and for a ragged tail, a portable loop.
///
/// # Panics
///
/// Panics if `bytes` is longer than 64.
#[must_use]
pub(crate) fn at_least(bytes: &[u8], threshold: u8) -> u64 {
    assert!(bytes.len() <= 64, "at_least takes at most 64 bytes");
    let portable = |tail: &[u8]| {
        tail.iter()
            .enumerate()
            .fold(0u64, |bits, (i, &v)| bits | u64::from(v >= threshold) << i)
    };
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{
            _mm_cmpeq_epi8, _mm_loadu_si128, _mm_max_epu8, _mm_movemask_epi8, _mm_set1_epi8,
        };
        let mut chunks = bytes.chunks_exact(16);
        let mut bits = 0u64;
        // SAFETY: SSE2 is part of the x86-64 baseline, and each load
        // reads one whole 16-byte chunk of the slice.
        unsafe {
            let t = _mm_set1_epi8(threshold as i8);
            for (j, chunk) in (&mut chunks).enumerate() {
                let v = _mm_loadu_si128(chunk.as_ptr().cast());
                // max(v, t) = v exactly where v ≥ t, unsigned.
                let ge = _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_max_epu8(v, t), v));
                bits |= u64::from(ge as u16) << (16 * j);
            }
        }
        let tail = chunks.remainder();
        if tail.is_empty() {
            bits
        } else {
            bits | portable(tail) << (bytes.len() - tail.len())
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    portable(bytes)
}

/// Ask the CPU to pull every cache line of `row` toward L1 ahead of
/// use. A hint only: it reads nothing into the program, never faults,
/// and compiles to nothing off x86-64.
#[inline]
pub(crate) fn prefetch(row: &[u64]) {
    #[cfg(target_arch = "x86_64")]
    for line in row.chunks(8) {
        // SAFETY: `prefetcht0` on an address inside a live slice; a
        // prefetch has no architectural effect.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                line.as_ptr().cast(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Auto-detect the best kernel, honouring a non-empty `UHD_KERNEL`
/// override. Unknown or unsupported override values fall back to
/// detection (and `""` means "unset", per the repo-wide env-knob rule).
fn detect() -> KernelKind {
    if let Ok(name) = std::env::var("UHD_KERNEL") {
        if !name.is_empty() {
            if let Some(kernel) = Kernel::from_name(&name) {
                return kernel.kind;
            }
        }
    }
    detect_auto()
}

fn detect_auto() -> KernelKind {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            return KernelKind::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelKind::Avx2;
        }
    }
    KernelKind::Scalar
}

// --------------------------------------------------------------------
// Scalar fallback (the reference all SIMD paths are proven against).
// --------------------------------------------------------------------

fn hamming_to_all_scalar(slices: &[u64], classes: usize, query: &[u64], out: &mut [u32]) {
    // Blocked over classes so the distance accumulators being updated
    // stay L1-resident while the plane rows stream linearly.
    for block_start in (0..classes).step_by(CLASS_BLOCK) {
        let block_end = (block_start + CLASS_BLOCK).min(classes);
        let (head, tail) = out.split_at_mut(block_start);
        let _ = head;
        let block = &mut tail[..block_end - block_start];
        for (w, &qw) in query.iter().enumerate() {
            let row = &slices[w * classes + block_start..w * classes + block_end];
            for (dist, &cw) in block.iter_mut().zip(row) {
                *dist += (cw ^ qw).count_ones();
            }
        }
    }
}

// --------------------------------------------------------------------
// AVX2: Mula nibble-lookup popcount (vpshufb + vpsadbw).
// --------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{bundle_portable, WORD_BLOCK};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_castsi256_si128,
        _mm256_loadu_si256, _mm256_permutevar8x32_epi32, _mm256_sad_epu8, _mm256_set1_epi64x,
        _mm256_set1_epi8, _mm256_setr_epi32, _mm256_setr_epi8, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_srli_epi32, _mm256_xor_si256, _mm_add_epi32, _mm_loadu_si128,
        _mm_storeu_si128,
    };

    /// Per-64-bit-lane popcounts of `x`: nibble lookup through
    /// `vpshufb`, horizontally summed per 8 bytes by `vpsadbw`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn popcnt_epi64(x: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(x, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(x), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn hamming_to_all(slices: &[u64], classes: usize, query: &[u64], out: &mut [u32]) {
        let full = classes - classes % 4;
        // Lane order of vpsadbw sums within a 256-bit accumulator:
        // u64 lanes 0..4 hold classes c..c+4 — narrow by taking the low
        // u32 of each lane (counts are ≤ WORD_BLOCK·64 < 2³²).
        let narrow_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        for wb_start in (0..query.len()).step_by(WORD_BLOCK) {
            let wb_end = (wb_start + WORD_BLOCK).min(query.len());
            let mut c = 0;
            while c < full {
                let mut acc = _mm256_setzero_si256();
                for (i, &qw) in query[wb_start..wb_end].iter().enumerate() {
                    let w = wb_start + i;
                    let qv = _mm256_set1_epi64x(qw as i64);
                    let cv = _mm256_loadu_si256(slices.as_ptr().add(w * classes + c).cast());
                    acc = _mm256_add_epi64(acc, popcnt_epi64(_mm256_xor_si256(cv, qv)));
                }
                let narrowed = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(acc, narrow_idx));
                let cur = _mm_loadu_si128(out.as_ptr().add(c).cast());
                _mm_storeu_si128(out.as_mut_ptr().add(c).cast(), _mm_add_epi32(cur, narrowed));
                c += 4;
            }
            // Ragged classes past the last full chunk: scalar, same
            // word block so the access pattern stays blocked.
            for w in wb_start..wb_end {
                let qw = query[w];
                for (cc, dist) in out.iter_mut().enumerate().skip(full) {
                    *dist += (slices[w * classes + cc] ^ qw).count_ones();
                }
            }
        }
    }

    /// [`super::Kernel::bundle`], after its checks.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn bundle(planes: &mut [u64], words: usize, rows: &[&[u64]]) {
        bundle_portable(planes, words, rows);
    }
}

// --------------------------------------------------------------------
// AVX-512: native vpopcntq (AVX512F + AVX512VPOPCNTDQ).
// --------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::WORD_BLOCK;
    use crate::accumulator::{BUNDLE_BLOCK, REGISTER_PLANES, RIPPLE_ROWS};
    use std::arch::x86_64::{
        __m512i, __mmask8, _mm256_add_epi32, _mm256_loadu_si256, _mm256_storeu_si256,
        _mm512_add_epi64, _mm512_and_si512, _mm512_cvtepi64_epi32, _mm512_loadu_si512,
        _mm512_mask_storeu_epi64, _mm512_maskz_loadu_epi64, _mm512_popcnt_epi64, _mm512_set1_epi64,
        _mm512_setzero_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
    };

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn hamming_to_all(slices: &[u64], classes: usize, query: &[u64], out: &mut [u32]) {
        let full = classes - classes % 8;
        for wb_start in (0..query.len()).step_by(WORD_BLOCK) {
            let wb_end = (wb_start + WORD_BLOCK).min(query.len());
            let mut c = 0;
            while c < full {
                let mut acc = _mm512_setzero_si512();
                for (i, &qw) in query[wb_start..wb_end].iter().enumerate() {
                    let w = wb_start + i;
                    let qv = _mm512_set1_epi64(qw as i64);
                    let cv = _mm512_loadu_si512(slices.as_ptr().add(w * classes + c).cast());
                    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(cv, qv)));
                }
                // Counts fit u32 (≤ WORD_BLOCK·64 per block): narrow the
                // eight u64 lanes and accumulate into out[c..c+8].
                let narrowed = _mm512_cvtepi64_epi32(acc);
                let cur = _mm256_loadu_si256(out.as_ptr().add(c).cast());
                _mm256_storeu_si256(
                    out.as_mut_ptr().add(c).cast(),
                    _mm256_add_epi32(cur, narrowed),
                );
                c += 8;
            }
            for w in wb_start..wb_end {
                let qw = query[w];
                for (cc, dist) in out.iter_mut().enumerate().skip(full) {
                    *dist += (slices[w * classes + cc] ^ qw).count_ones();
                }
            }
        }
    }

    // The bundling tree of `accumulator::bundle_portable`, written on
    // `__m512i`: on `[u64; 8]` lanes the compiler keeps the count
    // planes on the stack and reloads them through split stores, which
    // doubles the kernel's time. The register plane count is a
    // compile-time instantiation per counter depth: a fixed 16 holds
    // the planes above the depth in registers too, and 16 planes plus
    // the tree's 16 inputs spill out of the 32 registers (CHANGES.md
    // has the paired runs behind both choices).

    /// `(carry, sum)` of `a + b + c` per bit: majority (`0xE8`) and
    /// parity (`0x96`), one `vpternlogq` each.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn csa(a: __m512i, b: __m512i, c: __m512i) -> (__m512i, __m512i) {
        (
            _mm512_ternarylogic_epi64::<0xE8>(a, b, c),
            _mm512_ternarylogic_epi64::<0x96>(a, b, c),
        )
    }

    /// The Harley–Seal tree over 16 masks on `acc[0..4]` (ones, twos,
    /// fours, eights); returns the weight-16 carry.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn harley_seal(acc: &mut [__m512i], m: &[__m512i; BUNDLE_BLOCK]) -> __m512i {
        let (twos_a, ones) = csa(acc[0], m[0], m[1]);
        let (twos_b, ones) = csa(ones, m[2], m[3]);
        let (fours_a, twos) = csa(acc[1], twos_a, twos_b);
        let (twos_a, ones) = csa(ones, m[4], m[5]);
        let (twos_b, ones) = csa(ones, m[6], m[7]);
        let (fours_b, twos) = csa(twos, twos_a, twos_b);
        let (eights_a, fours) = csa(acc[2], fours_a, fours_b);
        let (twos_a, ones) = csa(ones, m[8], m[9]);
        let (twos_b, ones) = csa(ones, m[10], m[11]);
        let (fours_a, twos) = csa(twos, twos_a, twos_b);
        let (twos_a, ones) = csa(ones, m[12], m[13]);
        let (twos_b, ones) = csa(ones, m[14], m[15]);
        let (fours_b, twos) = csa(twos, twos_a, twos_b);
        let (eights_b, fours) = csa(fours, fours_a, fours_b);
        let (sixteens, eights) = csa(acc[3], eights_a, eights_b);
        acc[..4].copy_from_slice(&[ones, twos, fours, eights]);
        sixteens
    }

    /// Ripple `carry` into the register planes `acc[weight..]`, then
    /// the carry out of them through the memory planes `P..depth` (the
    /// `lanes` of word `w`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, `planes` must be whole planes of
    /// `words` words, and `lanes` may only select words `w..words`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn carry_into<const P: usize>(
        acc: &mut [__m512i; P],
        weight: usize,
        mut carry: __m512i,
        planes: &mut [u64],
        (words, w, lanes): (usize, usize, __mmask8),
    ) {
        for plane in &mut acc[weight..] {
            let t = _mm512_and_si512(*plane, carry);
            *plane = _mm512_xor_si512(*plane, carry);
            carry = t;
        }
        for k in P..planes.len() / words {
            let at = planes.as_mut_ptr().add(k * words + w);
            let plane = _mm512_maskz_loadu_epi64(lanes, at.cast());
            _mm512_mask_storeu_epi64(at.cast(), lanes, _mm512_xor_si512(plane, carry));
            carry = _mm512_and_si512(plane, carry);
        }
    }

    /// Up to 16 rows' lanes of word `w` into a tree input block, the
    /// missing rows zero.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, and `lanes` may only select
    /// words `w..row.len()` of every row.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load_block(rows: &[&[u64]], w: usize, lanes: __mmask8) -> [__m512i; BUNDLE_BLOCK] {
        let mut m = [_mm512_setzero_si512(); BUNDLE_BLOCK];
        for (slot, row) in m.iter_mut().zip(rows) {
            *slot = _mm512_maskz_loadu_epi64(lanes, row.as_ptr().add(w).cast());
        }
        m
    }

    /// [`super::Kernel::bundle`] with `P` register planes: one masked
    /// 8-word lane group at a time, ragged tail included. A counter of
    /// at most four planes holds fewer than 16 rows, so its rows all
    /// ripple.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, `planes` must hold at least `P`
    /// whole planes of `words` words, and every row must be `words`
    /// long.
    #[target_feature(enable = "avx512f")]
    unsafe fn bundle_depth<const P: usize>(planes: &mut [u64], words: usize, rows: &[&[u64]]) {
        for w in (0..words).step_by(8) {
            let lanes: __mmask8 = if words - w >= 8 {
                0xff
            } else {
                (1u8 << (words - w)) - 1
            };
            let at = (words, w, lanes);
            let mut acc = [_mm512_setzero_si512(); P];
            for (k, plane) in acc.iter_mut().enumerate() {
                *plane = _mm512_maskz_loadu_epi64(lanes, planes.as_ptr().add(k * words + w).cast());
            }
            let mut blocks = rows.chunks_exact(BUNDLE_BLOCK);
            let mut rest = rows;
            if P > 4 {
                for block in &mut blocks {
                    let sixteens = harley_seal(&mut acc, &load_block(block, w, lanes));
                    carry_into(&mut acc, 4, sixteens, planes, at);
                }
                rest = blocks.remainder();
            }
            if P > 4 && rest.len() >= RIPPLE_ROWS {
                let sixteens = harley_seal(&mut acc, &load_block(rest, w, lanes));
                carry_into(&mut acc, 4, sixteens, planes, at);
            } else {
                for row in rest {
                    let mask = _mm512_maskz_loadu_epi64(lanes, row.as_ptr().add(w).cast());
                    carry_into(&mut acc, 0, mask, planes, at);
                }
            }
            for (k, plane) in acc.iter().enumerate() {
                _mm512_mask_storeu_epi64(
                    planes.as_mut_ptr().add(k * words + w).cast(),
                    lanes,
                    *plane,
                );
            }
        }
    }

    /// [`super::Kernel::bundle`], after its checks: `P = min(depth,
    /// REGISTER_PLANES)`, fixed at compile time.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, `planes` must be whole planes of
    /// `words` words, and every row must be `words` long.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn bundle(planes: &mut [u64], words: usize, rows: &[&[u64]]) {
        const _: () = assert!(REGISTER_PLANES == 16);
        let f = match planes.len() / words {
            1 => bundle_depth::<1>,
            2 => bundle_depth::<2>,
            3 => bundle_depth::<3>,
            4 => bundle_depth::<4>,
            5 => bundle_depth::<5>,
            6 => bundle_depth::<6>,
            7 => bundle_depth::<7>,
            8 => bundle_depth::<8>,
            9 => bundle_depth::<9>,
            10 => bundle_depth::<10>,
            11 => bundle_depth::<11>,
            12 => bundle_depth::<12>,
            13 => bundle_depth::<13>,
            14 => bundle_depth::<14>,
            15 => bundle_depth::<15>,
            _ => bundle_depth::<16>,
        };
        // SAFETY: the caller's CPU and length guarantees carry over,
        // and `P ≤ depth` since `Kernel::bundle` rejects zero planes.
        f(planes, words, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uhd_lowdisc::rng::{UniformSource, Xoshiro256StarStar};

    fn random_words(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let hi = (rng.next_unit() * (u32::MAX as f64 + 1.0)) as u64;
                let lo = (rng.next_unit() * (u32::MAX as f64 + 1.0)) as u64;
                (hi << 32) | lo
            })
            .collect()
    }

    #[test]
    fn active_kernel_is_available_and_named() {
        let active = Kernel::active();
        let names: Vec<&str> = Kernel::available().iter().map(Kernel::name).collect();
        assert!(names.contains(&active.name()), "active = {}", active.name());
        assert!(names.contains(&"scalar"));
        assert_eq!(Kernel::from_name(active.name()), Some(active));
    }

    #[test]
    fn from_name_rejects_unknown() {
        assert_eq!(Kernel::from_name(""), None);
        assert_eq!(Kernel::from_name("0"), None);
        assert_eq!(Kernel::from_name("sse9"), None);
    }

    #[test]
    fn scalar_kernel_basics() {
        let k = Kernel::scalar();
        let mut out = [7u32; 2];
        k.hamming_to_all(&[], 2, &[], &mut out);
        assert_eq!(out, [0, 0]);
        k.hamming_to_all(&[u64::MAX, 0, u64::MAX, 1], 2, &[0, u64::MAX], &mut out);
        assert_eq!(out, [64, 63]);
        let mut planes = [0u64; 2];
        k.bundle(&mut planes, 1, &[&[u64::MAX], &[1], &[1]]);
        assert_eq!(planes, [u64::MAX, 1]);
    }

    #[test]
    #[should_panic(expected = "kernel operand length mismatch")]
    fn mismatched_lengths_panic() {
        Kernel::scalar().bundle(&mut [0u64; 2], 1, &[&[0, 0]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Every runnable kernel's one-class sweep is the pairwise
        /// XOR+popcount (and, against all-zero words, the popcount),
        /// bit-identical to scalar, including remainder lengths
        /// (n % 8 ≠ 0) and the empty vector.
        #[test]
        fn prop_pairwise_kernels_match_scalar(
            n in 0usize..70,
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            let a = random_words(n, &mut rng);
            let b = random_words(n, &mut rng);
            let zeros = vec![0u64; n];
            let expect: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
            let pop_expect: u32 = a.iter().map(|x| x.count_ones()).sum();
            let mut reference = [0u32; 1];
            let mut pop_reference = [0u32; 1];
            Kernel::scalar().hamming_to_all(&a, 1, &b, &mut reference);
            Kernel::scalar().hamming_to_all(&a, 1, &zeros, &mut pop_reference);
            prop_assert_eq!(reference, [expect]);
            prop_assert_eq!(pop_reference, [pop_expect]);
            for k in Kernel::available() {
                let mut out = [u32::MAX; 1];
                k.hamming_to_all(&a, 1, &b, &mut out);
                prop_assert_eq!(out, reference, "kernel {}", k.name());
                k.hamming_to_all(&a, 1, &zeros, &mut out);
                prop_assert_eq!(out, pop_reference, "kernel {}", k.name());
            }
        }

        /// The blocked associative sweep equals per-class XOR+popcount
        /// for every kernel.
        #[test]
        fn prop_hamming_to_all_matches_per_class(
            classes in 1usize..21,
            words in 1usize..40,
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            let class_words: Vec<Vec<u64>> =
                (0..classes).map(|_| random_words(words, &mut rng)).collect();
            let query = random_words(words, &mut rng);
            let mut slices = vec![0u64; classes * words];
            for (c, cw) in class_words.iter().enumerate() {
                for (w, &word) in cw.iter().enumerate() {
                    slices[w * classes + c] = word;
                }
            }
            let expect: Vec<u32> = class_words
                .iter()
                .map(|cw| cw.iter().zip(&query).map(|(a, b)| (a ^ b).count_ones()).sum())
                .collect();
            let mut out = vec![0u32; classes];
            for k in Kernel::available() {
                k.hamming_to_all(&slices, classes, &query, &mut out);
                prop_assert_eq!(&out, &expect, "kernel {}", k.name());
            }
        }

        /// `bundle` adds every row's bits to a dense count on every
        /// kernel: any row count (ragged last tree, several trees),
        /// word counts around the 8-word lane group, nonzero starting
        /// counts, some just below a power of two so carries cross
        /// planes, and counters deeper than the register planes.
        #[test]
        fn prop_bundle_matches_a_dense_count(
            rows in 0usize..=300,
            words_at in 0usize..8,
            extra_planes in 0u32..24,
            seed in any::<u64>(),
        ) {
            let words = [1usize, 3, 7, 8, 9, 32, 33, 128][words_at];
            let rows_bits = u64::BITS - (rows as u64).leading_zeros();
            let depth = (rows_bits.max(1) + extra_planes).min(24);
            let mut rng = Xoshiro256StarStar::seeded(seed);
            let room = (1u64 << depth) - 1 - rows as u64;
            let start: Vec<u64> = (0..64 * words)
                .map(|_| {
                    if rng.next_u64() & 1 == 0 {
                        rng.next_u64() % (room + 1)
                    } else {
                        let b = 1 + rng.next_u64() % u64::from(depth);
                        ((1u64 << b) - 1).saturating_sub(rng.next_u64() % 8).min(room)
                    }
                })
                .collect();
            let masks: Vec<Vec<u64>> = (0..rows).map(|_| random_words(words, &mut rng)).collect();
            let row_refs: Vec<&[u64]> = masks.iter().map(Vec::as_slice).collect();
            let mut expect = start.clone();
            for mask in &masks {
                for (d, count) in expect.iter_mut().enumerate() {
                    *count += (mask[d / 64] >> (d % 64)) & 1;
                }
            }
            let mut planes = vec![0u64; depth as usize * words];
            for (d, &count) in start.iter().enumerate() {
                for k in 0..depth as usize {
                    planes[k * words + d / 64] |= ((count >> k) & 1) << (d % 64);
                }
            }
            for k in Kernel::available() {
                let mut got = planes.clone();
                k.bundle(&mut got, words, &row_refs);
                let counts: Vec<u64> = (0..64 * words)
                    .map(|d| {
                        (0..depth as usize)
                            .map(|p| ((got[p * words + d / 64] >> (d % 64)) & 1) << p)
                            .sum()
                    })
                    .collect();
                prop_assert_eq!(&counts, &expect, "kernel {}, depth {}", k.name(), depth);
            }
        }

        /// `at_least` equals a byte-by-byte compare at every length up
        /// to 64, including thresholds 0 and 255.
        #[test]
        fn prop_at_least_matches_bytewise_compare(
            len in 0usize..=64,
            threshold in any::<u8>(),
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let expect = bytes
                .iter()
                .enumerate()
                .fold(0u64, |bits, (i, &v)| bits | u64::from(v >= threshold) << i);
            prop_assert_eq!(at_least(&bytes, threshold), expect);
            let all = if len == 0 { 0 } else { u64::MAX >> (64 - len) };
            prop_assert_eq!(at_least(&bytes, 0), all);
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn bundle_rejects_more_rows_than_the_planes_count() {
        let row = [u64::MAX];
        Kernel::scalar().bundle(&mut [0u64; 4], 1, &[&row[..]; 16]);
    }

    #[test]
    fn hamming_to_all_blocks_large_class_counts() {
        // More classes than CLASS_BLOCK and enough words to span
        // several word blocks: exercises both blocking dimensions.
        let classes = CLASS_BLOCK + 37;
        let words = WORD_BLOCK + 3;
        let mut rng = Xoshiro256StarStar::seeded(99);
        let slices = random_words(classes * words, &mut rng);
        let query = random_words(words, &mut rng);
        let mut expect = vec![0u32; classes];
        for c in 0..classes {
            let mut h = 0u32;
            for (w, &qw) in query.iter().enumerate() {
                h += (slices[w * classes + c] ^ qw).count_ones();
            }
            expect[c] = h;
        }
        for k in Kernel::available() {
            let mut out = vec![0u32; classes];
            k.hamming_to_all(&slices, classes, &query, &mut out);
            assert_eq!(out, expect, "kernel {}", k.name());
        }
    }
}

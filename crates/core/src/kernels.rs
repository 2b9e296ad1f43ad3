//! Runtime-dispatched SIMD kernels for the XOR+popcount hot path.
//!
//! Every similarity query in binary HDC reduces to XOR + population
//! count over packed `u64` words (Ge & Parhi's review calls this *the*
//! dominant inference operation), and the bit-sliced
//! [`crate::assoc::AssociativeMemory`] sweep is nothing but that kernel
//! streamed over all classes at once. This module concentrates those
//! inner loops behind a [`Kernel`] dispatch struct:
//!
//! * **scalar** — the always-correct portable fallback: a 4-wide
//!   unrolled XOR + `count_ones` loop (hardware `POPCNT` on x86);
//! * **avx2** — 256-bit lanes using the Mula nibble-lookup popcount
//!   (`vpshufb` + `vpsadbw`), four words per step;
//! * **avx512** — 512-bit lanes using the native `vpopcntq`
//!   instruction, eight words per step (requires `AVX512F` +
//!   `AVX512VPOPCNTDQ`);
//! * **neon** — 128-bit lanes via `cnt` on AArch64.
//!
//! The kernel is selected **once** per process via
//! `is_x86_feature_detected!` (memoized in a `OnceLock`) and can be
//! overridden with the `UHD_KERNEL` environment variable
//! (`scalar` / `avx2` / `avx512` / `neon`; empty or unknown values fall
//! back to auto-detection). Every SIMD path is proven bit-identical to
//! the scalar kernel by property tests across dimensions that exercise
//! the masked-tail remainder (`D % 256 ≠ 0`).
//!
//! The associative sweep ([`Kernel::hamming_to_all`]) is additionally
//! **cache-blocked**: classes are processed in blocks whose distance
//! accumulators stay resident in L1, and word-planes in blocks so one
//! class-chunk's column walk stays within L1/L2 — the software analogue
//! of the combinational associative memory of Schmuck et al., where
//! every class row sees the broadcast query in one pass.

// The SIMD intrinsics are the one place in the workspace that needs
// `unsafe`. Soundness rests on a single invariant, enforced by
// construction: a `Kernel` with an AVX2/AVX-512/NEON kind can only be
// obtained through `Kernel::active()` / `Kernel::from_name()`, both of
// which verify the CPU feature at runtime before handing it out.
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::accumulator::{bundle_block_portable, BUNDLE_BLOCK};

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
    /// Portable 4-wide unrolled XOR + `count_ones` (always available).
    Scalar,
    /// 256-bit AVX2 nibble-lookup popcount (x86-64 only).
    Avx2,
    /// 512-bit AVX-512 `vpopcntq` (x86-64 with `AVX512VPOPCNTDQ` only).
    Avx512,
    /// 128-bit NEON `cnt` (AArch64 only).
    Neon,
}

/// A dispatched popcount/distance kernel.
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
/// let k = Kernel::active();
/// assert_eq!(k.xor_popcount(&[0b1010], &[0b0110]), 2);
/// assert_eq!(k.popcount(&[u64::MAX, 1]), 65);
/// // The scalar fallback agrees on every input.
/// assert_eq!(
///     Kernel::scalar().xor_popcount(&[0xdead, 0xbeef], &[0xfeed, 0xface]),
///     k.xor_popcount(&[0xdead, 0xbeef], &[0xfeed, 0xface]),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kernel {
    kind: KernelKind,
}

impl Kernel {
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

    /// Look up a kernel by name (`"scalar"`, `"avx2"`, `"avx512"`,
    /// `"neon"`). Returns `None` for unknown names **and** for kernels
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
            #[cfg(target_arch = "aarch64")]
            "neon" if std::arch::is_aarch64_feature_detected!("neon") => Some(KernelKind::Neon),
            _ => None,
        }?;
        Some(Kernel { kind })
    }

    /// Every kernel runnable on this machine (always includes
    /// `scalar`).
    #[must_use]
    pub fn available() -> Vec<Kernel> {
        ["scalar", "avx2", "avx512", "neon"]
            .iter()
            .filter_map(|name| Kernel::from_name(name))
            .collect()
    }

    /// The dispatch family.
    #[must_use]
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Stable lowercase name (`"scalar"`, `"avx2"`, `"avx512"`,
    /// `"neon"`), round-trippable through [`Kernel::from_name`].
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.kind {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
            KernelKind::Neon => "neon",
        }
    }

    /// Sum of `(a[i] ^ b[i]).count_ones()` — the Hamming distance of
    /// two packed bit vectors whose tail bits agree (in particular,
    /// when both are clear, as [`crate::hypervector::Hypervector`]
    /// guarantees).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn xor_popcount(&self, a: &[u64], b: &[u64]) -> u64 {
        assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
        crate::telemetry::record_op(crate::telemetry::KernelOp::XorPopcount);
        match self.kind {
            KernelKind::Scalar => xor_popcount_scalar(a, b),
            // SAFETY: construction verified the CPU feature (see the
            // module-level soundness note).
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => unsafe { avx2::xor_popcount(a, b) },
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => unsafe { avx512::xor_popcount(a, b) },
            #[cfg(target_arch = "aarch64")]
            KernelKind::Neon => unsafe { neon::xor_popcount(a, b) },
            #[allow(unreachable_patterns)]
            _ => xor_popcount_scalar(a, b),
        }
    }

    /// Sum of `a[i].count_ones()` over the slice.
    #[must_use]
    pub fn popcount(&self, a: &[u64]) -> u64 {
        crate::telemetry::record_op(crate::telemetry::KernelOp::Popcount);
        match self.kind {
            KernelKind::Scalar => popcount_scalar(a),
            // SAFETY: construction verified the CPU feature.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => unsafe { avx2::popcount(a) },
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => unsafe { avx512::popcount(a) },
            #[cfg(target_arch = "aarch64")]
            KernelKind::Neon => unsafe { neon::popcount(a) },
            #[allow(unreachable_patterns)]
            _ => popcount_scalar(a),
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
            // NEON keeps the pairwise kernels vectorized but the sweep
            // scalar: 128-bit lanes only fit two classes, which the
            // blocked scalar loop already saturates.
            _ => hamming_to_all_scalar(slices, classes, query, out),
        }
    }

    /// Add one block of [`BUNDLE_BLOCK`] masks into a bit-sliced counter
    /// array (`planes`: at least five planes of `words` words each,
    /// plane-major) through a Harley–Seal carry-save tree.
    ///
    /// This is the inner step of
    /// [`crate::accumulator::BitSliceAccumulator::add_masks`] — the
    /// software mirror of the paper's per-dimension popcounter — so
    /// every encoder's bundling runs through the dispatched kernel.
    /// The caller must have grown the planes to hold the block's
    /// counts. Every variant compiles the same portable body, with the
    /// wider registers the CPU feature allows.
    ///
    /// # Panics
    ///
    /// Panics if a mask is not `words` long or `planes` is not at least
    /// five whole planes.
    pub fn bundle_block(&self, planes: &mut [u64], words: usize, block: &[&[u64]; BUNDLE_BLOCK]) {
        assert!(
            words > 0 && planes.len().is_multiple_of(words) && planes.len() / words >= 5,
            "bundle_block needs at least five whole planes"
        );
        for mask in block {
            assert_eq!(mask.len(), words, "kernel operand length mismatch");
        }
        crate::telemetry::record_op(crate::telemetry::KernelOp::BundleBlock);
        match self.kind {
            KernelKind::Scalar => bundle_block_portable(planes, words, block),
            // SAFETY: construction verified the CPU feature.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => unsafe { avx2::bundle_block(planes, words, block) },
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => unsafe { avx512::bundle_block(planes, words, block) },
            #[allow(unreachable_patterns)]
            _ => bundle_block_portable(planes, words, block),
        }
    }
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
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return KernelKind::Neon;
        }
    }
    KernelKind::Scalar
}

// --------------------------------------------------------------------
// Scalar fallback (the reference all SIMD paths are proven against).
// --------------------------------------------------------------------

fn xor_popcount_scalar(a: &[u64], b: &[u64]) -> u64 {
    let mut a4 = a.chunks_exact(4);
    let mut b4 = b.chunks_exact(4);
    let mut total = 0u64;
    for (x, y) in (&mut a4).zip(&mut b4) {
        total += u64::from(
            (x[0] ^ y[0]).count_ones()
                + (x[1] ^ y[1]).count_ones()
                + (x[2] ^ y[2]).count_ones()
                + (x[3] ^ y[3]).count_ones(),
        );
    }
    for (x, y) in a4.remainder().iter().zip(b4.remainder()) {
        total += u64::from((x ^ y).count_ones());
    }
    total
}

fn popcount_scalar(a: &[u64]) -> u64 {
    let mut a4 = a.chunks_exact(4);
    let mut total = 0u64;
    for x in &mut a4 {
        total += u64::from(
            x[0].count_ones() + x[1].count_ones() + x[2].count_ones() + x[3].count_ones(),
        );
    }
    for x in a4.remainder() {
        total += u64::from(x.count_ones());
    }
    total
}

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
    use super::{bundle_block_portable, BUNDLE_BLOCK, WORD_BLOCK};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_castsi256_si128,
        _mm256_loadu_si256, _mm256_permutevar8x32_epi32, _mm256_sad_epu8, _mm256_set1_epi64x,
        _mm256_set1_epi8, _mm256_setr_epi32, _mm256_setr_epi8, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_srli_epi32, _mm256_storeu_si256, _mm256_xor_si256,
        _mm_add_epi32, _mm_loadu_si128, _mm_storeu_si128,
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
    #[inline]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let mut buf = [0u64; 4];
        _mm256_storeu_si256(buf.as_mut_ptr().cast(), v);
        buf.iter().sum()
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            acc = _mm256_add_epi64(acc, popcnt_epi64(_mm256_xor_si256(va, vb)));
            i += 4;
        }
        let mut total = hsum_epi64(acc);
        while i < n {
            total += u64::from((a[i] ^ b[i]).count_ones());
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn popcount(a: &[u64]) -> u64 {
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            acc = _mm256_add_epi64(acc, popcnt_epi64(va));
            i += 4;
        }
        let mut total = hsum_epi64(acc);
        while i < n {
            total += u64::from(a[i].count_ones());
            i += 1;
        }
        total
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

    #[target_feature(enable = "avx2")]
    pub unsafe fn bundle_block(planes: &mut [u64], words: usize, block: &[&[u64]; BUNDLE_BLOCK]) {
        bundle_block_portable(planes, words, block);
    }
}

// --------------------------------------------------------------------
// AVX-512: native vpopcntq (AVX512F + AVX512VPOPCNTDQ).
// --------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{bundle_block_portable, BUNDLE_BLOCK, WORD_BLOCK};
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_loadu_si256, _mm256_storeu_si256, _mm512_add_epi64,
        _mm512_cvtepi64_epi32, _mm512_loadu_si512, _mm512_popcnt_epi64, _mm512_reduce_add_epi64,
        _mm512_set1_epi64, _mm512_setzero_si512, _mm512_xor_si512,
    };

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len();
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= n {
            let va = _mm512_loadu_si512(a.as_ptr().add(i).cast());
            let vb = _mm512_loadu_si512(b.as_ptr().add(i).cast());
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
            i += 8;
        }
        let mut total = _mm512_reduce_add_epi64(acc) as u64;
        while i < n {
            total += u64::from((a[i] ^ b[i]).count_ones());
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn popcount(a: &[u64]) -> u64 {
        let n = a.len();
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= n {
            let va = _mm512_loadu_si512(a.as_ptr().add(i).cast());
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(va));
            i += 8;
        }
        let mut total = _mm512_reduce_add_epi64(acc) as u64;
        while i < n {
            total += u64::from(a[i].count_ones());
            i += 1;
        }
        total
    }

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

    #[target_feature(enable = "avx512f")]
    pub unsafe fn bundle_block(planes: &mut [u64], words: usize, block: &[&[u64]; BUNDLE_BLOCK]) {
        bundle_block_portable(planes, words, block);
    }
}

// --------------------------------------------------------------------
// NEON (AArch64): cnt over 128-bit lanes for the pairwise kernels.
// --------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::{vaddlvq_u8, vcntq_u8, veorq_u64, vld1q_u64, vreinterpretq_u8_u64};

    #[target_feature(enable = "neon")]
    pub unsafe fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len();
        let mut total = 0u64;
        let mut i = 0;
        while i + 2 <= n {
            let va = vld1q_u64(a.as_ptr().add(i));
            let vb = vld1q_u64(b.as_ptr().add(i));
            let x = veorq_u64(va, vb);
            total += u64::from(vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(x))));
            i += 2;
        }
        while i < n {
            total += u64::from((a[i] ^ b[i]).count_ones());
            i += 1;
        }
        total
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn popcount(a: &[u64]) -> u64 {
        let n = a.len();
        let mut total = 0u64;
        let mut i = 0;
        while i + 2 <= n {
            let va = vld1q_u64(a.as_ptr().add(i));
            total += u64::from(vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(va))));
            i += 2;
        }
        while i < n {
            total += u64::from(a[i].count_ones());
            i += 1;
        }
        total
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
        assert_eq!(k.xor_popcount(&[], &[]), 0);
        assert_eq!(k.xor_popcount(&[u64::MAX], &[0]), 64);
        assert_eq!(k.popcount(&[u64::MAX, u64::MAX, 1]), 129);
    }

    #[test]
    #[should_panic(expected = "kernel operand length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Kernel::scalar().xor_popcount(&[0], &[0, 0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Every runnable kernel is bit-identical to scalar on the
        /// pairwise ops, including remainder lengths (n % 8 ≠ 0).
        #[test]
        fn prop_pairwise_kernels_match_scalar(
            n in 0usize..70,
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            let a = random_words(n, &mut rng);
            let b = random_words(n, &mut rng);
            let reference = Kernel::scalar().xor_popcount(&a, &b);
            let pop_reference = Kernel::scalar().popcount(&a);
            for k in Kernel::available() {
                prop_assert_eq!(k.xor_popcount(&a, &b), reference, "kernel {}", k.name());
                prop_assert_eq!(k.popcount(&a), pop_reference, "kernel {}", k.name());
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
                .map(|cw| Kernel::scalar().xor_popcount(cw, &query) as u32)
                .collect();
            let mut out = vec![0u32; classes];
            for k in Kernel::available() {
                k.hamming_to_all(&slices, classes, &query, &mut out);
                prop_assert_eq!(&out, &expect, "kernel {}", k.name());
            }
        }

        /// bundle_block is bit-identical across kernels, over word
        /// counts that straddle the 8-lane step and plane depths from
        /// the minimum five up.
        #[test]
        fn prop_bundle_block_matches_scalar(
            words in 1usize..40,
            depth in 5usize..12,
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            // Counts below 2^(depth-1) leave room for the block's 16.
            let mut planes = random_words(depth * words, &mut rng);
            planes[(depth - 1) * words..].fill(0);
            let masks: Vec<Vec<u64>> = (0..BUNDLE_BLOCK).map(|_| random_words(words, &mut rng)).collect();
            let block: [&[u64]; BUNDLE_BLOCK] = std::array::from_fn(|i| masks[i].as_slice());
            let mut expect = planes.clone();
            Kernel::scalar().bundle_block(&mut expect, words, &block);
            for k in Kernel::available() {
                let mut got = planes.clone();
                k.bundle_block(&mut got, words, &block);
                prop_assert_eq!(&got, &expect, "kernel {}", k.name());
            }
        }
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

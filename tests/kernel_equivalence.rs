//! Cross-kernel equivalence: every runtime-dispatched SIMD kernel
//! must be bit-identical to the scalar fallback on both served entry
//! points (the associative sweep and bundling), across dimensions
//! chosen to hit the masked-tail remainder loops (`D % 256 ≠ 0`,
//! `D % 64 ≠ 0`) and paper-scale sizes; the pairwise
//! [`Hypervector`] ops are pinned to a bit-by-bit count at the same
//! dimensions, and to every kernel's one-class sweep.
//!
//! These suites are the safety net for `uhd_core::kernels`: a SIMD
//! kernel that mis-handles a remainder word would corrupt *distances*,
//! which the accuracy experiments would only ever see as a mysterious
//! drop — so the equivalence is pinned here, exhaustively, instead.

use proptest::prelude::*;
use uhd::core::assoc::AssociativeMemory;
use uhd::core::hypervector::Hypervector;
use uhd::core::kernels::Kernel;
use uhd::lowdisc::rng::Xoshiro256StarStar;

/// Dimensions straddling every SIMD chunk width: the 4-word scalar
/// unroll, the 4-lane AVX2 step (256 bits), the 8-lane AVX-512 step
/// (512 bits), and the word size itself — plus paper-scale 64k ± 1.
fn edge_dims() -> Vec<u32> {
    let mut dims: Vec<u32> = (1..=16).collect();
    dims.extend([
        31, 33, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 319, 447, 511, 512, 513,
        1023, 1024, 1025, 65_535, 65_536, 65_537,
    ]);
    dims
}

/// `hamming_distance`, `dot` and `count_plus_ones` equal a count over
/// every dimension, one bit at a time.
#[test]
fn pairwise_ops_match_a_bit_by_bit_count_at_edge_dims() {
    for dim in edge_dims() {
        let mut rng = Xoshiro256StarStar::seeded(u64::from(dim).wrapping_mul(0x9e37_79b9));
        let a = Hypervector::random(dim, &mut rng);
        let b = Hypervector::random(dim, &mut rng);
        let differing: u32 = (0..dim).map(|i| u32::from(a.bit(i) != b.bit(i))).sum();
        let plus_ones: u32 = (0..dim).map(|i| u32::from(a.bit(i))).sum();
        assert_eq!(a.hamming_distance(&b).unwrap(), differing, "dim {dim}");
        assert_eq!(
            a.dot(&b).unwrap(),
            i64::from(dim) - 2 * i64::from(differing),
            "dim {dim}"
        );
        assert_eq!(a.count_plus_ones(), plus_ones, "dim {dim}");
    }
}

/// The distance `kernel`'s sweep gives between `a` and `b`: a
/// one-class associative memory holding `a`, queried with `b`.
fn one_class_sweep(kernel: Kernel, a: &Hypervector, b: &Hypervector) -> u32 {
    let memory = AssociativeMemory::new(std::slice::from_ref(a)).unwrap();
    let mut out = Vec::new();
    memory.hamming_to_all_with(kernel, b, &mut out).unwrap();
    assert_eq!(out.len(), 1);
    out[0]
}

/// Every available kernel's one-class sweep gives the pairwise
/// `hamming_distance`, and a sweep against the all-zero words gives
/// `count_plus_ones`.
#[test]
fn pairwise_distance_agrees_across_kernels_at_edge_dims() {
    for dim in edge_dims() {
        let mut rng = Xoshiro256StarStar::seeded(u64::from(dim).wrapping_mul(0x9e37_79b9));
        let a = Hypervector::random(dim, &mut rng);
        let b = Hypervector::random(dim, &mut rng);
        let zeros = Hypervector::neg_ones(dim);
        assert_eq!(zeros.count_plus_ones(), 0);
        let expected_h = a.hamming_distance(&b).unwrap();
        let expected_p = a.count_plus_ones();
        for kernel in Kernel::available() {
            assert_eq!(
                one_class_sweep(kernel, &a, &b),
                expected_h,
                "hamming: kernel {} at dim {dim}",
                kernel.name()
            );
            assert_eq!(
                one_class_sweep(kernel, &a, &zeros),
                expected_p,
                "popcount: kernel {} at dim {dim}",
                kernel.name()
            );
        }
    }
}

#[test]
fn am_sweep_agrees_across_kernels_at_edge_dims() {
    for dim in edge_dims() {
        // Keep the 64k dims cheap: few classes, one query.
        let classes = if dim > 4096 { 3 } else { 9 };
        let mut rng = Xoshiro256StarStar::seeded(u64::from(dim) ^ 0xda7e);
        let class_hvs: Vec<Hypervector> = (0..classes)
            .map(|_| Hypervector::random(dim, &mut rng))
            .collect();
        let memory = AssociativeMemory::new(&class_hvs).unwrap();
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

/// The forced-fallback guarantee: `Kernel::scalar()` is always
/// constructible and always agrees with the auto-detected kernel on
/// both served ops, so the scalar path stays exercised (and correct)
/// even on machines where detection picks a SIMD path.
#[test]
fn forced_scalar_fallback_matches_the_dispatched_kernel() {
    let scalar = Kernel::scalar();
    let active = Kernel::active();
    assert_eq!(scalar.name(), "scalar");
    assert!(
        Kernel::available()
            .iter()
            .any(|k| k.name() == active.name()),
        "the dispatched kernel must report itself as available"
    );
    let mut rng = Xoshiro256StarStar::seeded(0xfa11_bacc);
    for dim in [257u32, 8192, 65_537] {
        // Nine classes: one full AVX-512 chunk of eight plus a ragged one.
        let classes = 9;
        let class_hvs: Vec<Hypervector> = (0..classes)
            .map(|_| Hypervector::random(dim, &mut rng))
            .collect();
        let words = class_hvs[0].words().len();
        let mut slices = vec![0u64; classes * words];
        for (c, hv) in class_hvs.iter().enumerate() {
            for (w, &word) in hv.words().iter().enumerate() {
                slices[w * classes + c] = word;
            }
        }
        let query = Hypervector::random(dim, &mut rng);
        let mut expect = vec![0u32; classes];
        let mut got = vec![0u32; classes];
        scalar.hamming_to_all(&slices, classes, query.words(), &mut expect);
        active.hamming_to_all(&slices, classes, query.words(), &mut got);
        assert_eq!(got, expect, "hamming_to_all at dim {dim}");

        // 40 rows into seven planes, twice: the second call starts
        // from nonzero counts, so carries cross planes.
        let rows: Vec<&[u64]> = class_hvs
            .iter()
            .chain([&query])
            .cycle()
            .take(40)
            .map(Hypervector::words)
            .collect();
        let mut expect = vec![0u64; 7 * words];
        let mut got = expect.clone();
        for _ in 0..2 {
            scalar.bundle(&mut expect, words, &rows);
            active.bundle(&mut got, words, &rows);
        }
        assert_eq!(got, expect, "bundle at dim {dim}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary small dimensions (all tail-remainder classes mod
    /// 64 and mod 256) every available kernel's one-class sweep gives
    /// the same Hamming distance as `hamming_distance`.
    #[test]
    fn prop_kernels_agree_on_arbitrary_small_dims(
        dim in 1u32..257,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256StarStar::seeded(seed);
        let a = Hypervector::random(dim, &mut rng);
        let b = Hypervector::random(dim, &mut rng);
        let expected = a.hamming_distance(&b).unwrap();
        for kernel in Kernel::available() {
            prop_assert_eq!(
                one_class_sweep(kernel, &a, &b),
                expected,
                "kernel {} at dim {}", kernel.name(), dim
            );
        }
    }

    /// Same at word-multiple boundaries around paper-scale dims, where
    /// the main SIMD loops (not the remainders) carry the work; the
    /// scalar sweep is the reference.
    #[test]
    fn prop_kernels_agree_near_simd_boundaries(
        words in 1u32..40,
        offset in 0u32..3,
        seed in any::<u64>(),
    ) {
        // dims of the form 64·w − 1, 64·w, 64·w + 1 (clamped ≥ 1)
        let dim = (words * 64 + offset).saturating_sub(1).max(1);
        let mut rng = Xoshiro256StarStar::seeded(seed);
        let a = Hypervector::random(dim, &mut rng);
        let b = Hypervector::random(dim, &mut rng);
        let reference = one_class_sweep(Kernel::scalar(), &a, &b);
        prop_assert_eq!(a.hamming_distance(&b).unwrap(), reference);
        for kernel in Kernel::available() {
            prop_assert_eq!(
                one_class_sweep(kernel, &a, &b),
                reference,
                "kernel {} at dim {}", kernel.name(), dim
            );
        }
    }
}

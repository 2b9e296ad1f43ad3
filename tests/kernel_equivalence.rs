//! Cross-kernel equivalence: every runtime-dispatched SIMD popcount
//! path must be bit-identical to the scalar fallback on every public
//! entry point, across dimensions chosen to hit the masked-tail
//! remainder loops (`D % 256 ≠ 0`, `D % 64 ≠ 0`) and paper-scale sizes.
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

#[test]
fn pairwise_distance_agrees_across_kernels_at_edge_dims() {
    for dim in edge_dims() {
        let mut rng = Xoshiro256StarStar::seeded(u64::from(dim).wrapping_mul(0x9e37_79b9));
        let a = Hypervector::random(dim, &mut rng);
        let b = Hypervector::random(dim, &mut rng);
        let scalar = Kernel::scalar();
        let expected_h = scalar.xor_popcount(a.words(), b.words());
        let expected_p = scalar.popcount(a.words());
        for kernel in Kernel::available() {
            assert_eq!(
                kernel.xor_popcount(a.words(), b.words()),
                expected_h,
                "xor_popcount: kernel {} at dim {dim}",
                kernel.name()
            );
            assert_eq!(
                kernel.popcount(a.words()),
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
/// constructible and always agrees with the auto-detected kernel, so
/// the scalar path stays exercised (and correct) even on machines
/// where detection picks a SIMD path.
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
        let a = Hypervector::random(dim, &mut rng);
        let b = Hypervector::random(dim, &mut rng);
        assert_eq!(
            scalar.xor_popcount(a.words(), b.words()),
            active.xor_popcount(a.words(), b.words()),
            "dim {dim}"
        );
        assert_eq!(
            a.hamming_distance(&b).unwrap(),
            u32::try_from(scalar.xor_popcount(a.words(), b.words())).unwrap(),
            "Hypervector::hamming_distance must equal the scalar kernel at dim {dim}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary small dimensions (all tail-remainder classes mod
    /// 64 and mod 256) every available kernel computes the same
    /// Hamming distance as the scalar fallback.
    #[test]
    fn prop_kernels_agree_on_arbitrary_small_dims(
        dim in 1u32..257,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256StarStar::seeded(seed);
        let a = Hypervector::random(dim, &mut rng);
        let b = Hypervector::random(dim, &mut rng);
        let expected = Kernel::scalar().xor_popcount(a.words(), b.words());
        for kernel in Kernel::available() {
            prop_assert_eq!(
                kernel.xor_popcount(a.words(), b.words()),
                expected,
                "kernel {} at dim {}", kernel.name(), dim
            );
        }
    }

    /// Same at word-multiple boundaries around paper-scale dims, where
    /// the main SIMD loops (not the remainders) carry the work.
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
        prop_assert_eq!(
            i64::from(a.hamming_distance(&b).unwrap()),
            i64::try_from(Kernel::scalar().xor_popcount(a.words(), b.words())).unwrap()
        );
    }
}

//! Lit-pixel bundling exactness: the uHD encoder seeds each
//! accumulation from the all-dark bundle and adds only the lit pixels'
//! delta rows. Its counts must equal those of the plain bundle of all H
//! full comparator masks, fed one by one into the dense reference
//! accumulator.
//!
//! The reference shares nothing with the encoder's bundling path: it
//! reads each pixel's full mask through `pixel_mask_into` and counts
//! bits in a `DenseAccumulator`. So a defect in the dark bundle, the
//! delta rows, the uncounted add or the merge shows up here, on both
//! item-memory backends.

use std::sync::OnceLock;

use proptest::prelude::*;
use uhd::core::accumulator::{BitSliceAccumulator, DenseAccumulator};
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::Encoder;
use uhd::lowdisc::rng::{UniformSource, Xoshiro256StarStar};

/// The paper's MNIST geometry.
const PIXELS: usize = 784;

/// The encoders under test: H = 784 at the served D = 2048 and at a
/// small odd D, each on both backends.
fn encoders() -> &'static [(&'static str, UhdEncoder)] {
    static ENCODERS: OnceLock<Vec<(&'static str, UhdEncoder)>> = OnceLock::new();
    ENCODERS.get_or_init(|| {
        let build = |config: UhdConfig| UhdEncoder::new(config).unwrap();
        vec![
            ("resident D=2048", build(UhdConfig::new(2048, PIXELS))),
            (
                "rematerialized D=2048",
                build(UhdConfig::new(2048, PIXELS).rematerialized()),
            ),
            ("resident D=130", build(UhdConfig::new(130, PIXELS))),
            (
                "rematerialized D=130",
                build(UhdConfig::new(130, PIXELS).rematerialized()),
            ),
        ]
    })
}

/// Dark fractions: every pixel lit, the synthetic-MNIST share of about
/// 0.8, and the all-dark image.
const DARK_FRACTIONS: [f64; 3] = [0.0, 0.8, 1.0];

/// An image whose pixels are dark with probability `dark`. Dark pixels
/// take any intensity that quantizes to level 0, not only 0.
fn image(encoder: &UhdEncoder, dark: f64, rng: &mut Xoshiro256StarStar) -> Vec<u8> {
    let darkest_lit = (0..=255u8).find(|&v| encoder.level_of(v) > 0).unwrap();
    (0..PIXELS)
        .map(|_| {
            let draw = rng.next_u64();
            if rng.next_unit() < dark {
                (draw % u64::from(darkest_lit)) as u8
            } else {
                darkest_lit + (draw % u64::from(256 - u32::from(darkest_lit))) as u8
            }
        })
        .collect()
}

/// Encoders whose pixel count is not a multiple of the scan's 64-byte
/// step (and the paper's H = 784 again), on both backends.
fn shaped_encoders() -> &'static [(String, UhdEncoder)] {
    static ENCODERS: OnceLock<Vec<(String, UhdEncoder)>> = OnceLock::new();
    ENCODERS.get_or_init(|| {
        let mut out = Vec::new();
        for pixels in [1usize, 100, 784] {
            for dim in [130u32, 2048] {
                let config = UhdConfig::new(dim, pixels);
                let remat = UhdEncoder::new(config.clone().rematerialized()).unwrap();
                out.push((
                    format!("resident H={pixels} D={dim}"),
                    UhdEncoder::new(config).unwrap(),
                ));
                out.push((format!("rematerialized H={pixels} D={dim}"), remat));
            }
        }
        out
    })
}

/// The image shapes the lit scan must get right: all dark (intensity
/// 0), all at the top intensity, every pixel just below or at the
/// first lit intensity, and a random mix of dark and lit intensities.
const SHAPES: [&str; 4] = ["all dark", "all lit", "first-lit boundary", "mixed"];

fn shaped_image(encoder: &UhdEncoder, shape: usize, rng: &mut Xoshiro256StarStar) -> Vec<u8> {
    let first_lit = (0..=255u8).find(|&v| encoder.level_of(v) > 0).unwrap();
    (0..encoder.features())
        .map(|_| {
            let draw = rng.next_u64();
            match shape {
                0 => 0,
                1 => 255,
                2 => first_lit - (draw & 1) as u8,
                _ => draw as u8,
            }
        })
        .collect()
}

/// Add every pixel's full comparator mask to `dense`.
fn reference_add(encoder: &UhdEncoder, image: &[u8], dense: &mut DenseAccumulator) {
    let mut scratch = Vec::new();
    for (pixel, &v) in image.iter().enumerate() {
        let mask = encoder
            .pixel_mask_into(pixel, encoder.level_of(v), &mut scratch)
            .unwrap();
        dense.add_mask(mask);
    }
}

fn assert_matches(acc: &BitSliceAccumulator, dense: &DenseAccumulator, what: &str) {
    let counts: Vec<u64> = dense.counts().iter().map(|&c| c as u64).collect();
    assert_eq!(acc.total(), dense.total(), "{what}: total");
    assert_eq!(acc.counts(), counts, "{what}: counts");
    assert_eq!(acc.bipolar_sums(), dense.bipolar_sums(), "{what}: sums");
    assert_eq!(acc.binarize(), dense.binarize(), "{what}: binarize");
}

/// Bits needed to hold `n`.
fn bits(n: u64) -> usize {
    (u64::BITS - n.leading_zeros()) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One image into an empty accumulator: the served encode.
    #[test]
    fn prop_one_image_equals_the_full_mask_bundle(
        which in 0usize..4,
        fraction in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (name, encoder) = &encoders()[which];
        let dark = DARK_FRACTIONS[fraction];
        let mut rng = Xoshiro256StarStar::seeded(seed);
        let img = image(encoder, dark, &mut rng);
        let mut dense = DenseAccumulator::new(encoder.dim());
        reference_add(encoder, &img, &mut dense);
        let mut acc = BitSliceAccumulator::new(encoder.dim());
        encoder.accumulate(&img, &mut acc).unwrap();
        let what = format!("{name}, dark {dark}");
        assert_matches(&acc, &dense, &what);
        prop_assert_eq!(acc.total(), PIXELS as u64);
        // Counts never pass H, so the counter stays at bits(H) planes.
        prop_assert_eq!(acc.planes(), bits(PIXELS as u64), "{}", what);
        prop_assert_eq!(encoder.encode(&img).unwrap(), dense.binarize(), "{}", what);
    }

    /// Several images folded into one class accumulator, as training
    /// does, optionally starting from a cleared, already-wide one.
    #[test]
    fn prop_class_accumulator_equals_the_full_mask_bundle(
        which in 0usize..4,
        seed in any::<u64>(),
        images in 2usize..5,
        reuse in any::<bool>(),
    ) {
        let (name, encoder) = &encoders()[which];
        let mut rng = Xoshiro256StarStar::seeded(seed);
        let mut dense = DenseAccumulator::new(encoder.dim());
        let mut acc = BitSliceAccumulator::new(encoder.dim());
        if reuse {
            for _ in 0..3 {
                let img = image(encoder, 0.0, &mut rng);
                encoder.accumulate(&img, &mut acc).unwrap();
            }
            acc.clear();
        }
        for i in 0..images {
            let dark = DARK_FRACTIONS[i % DARK_FRACTIONS.len()];
            let img = image(encoder, dark, &mut rng);
            reference_add(encoder, &img, &mut dense);
            encoder.accumulate(&img, &mut acc).unwrap();
            assert_matches(&acc, &dense, &format!("{name}, image {i}, dark {dark}"));
        }
        prop_assert_eq!(acc.total(), (images * PIXELS) as u64);
    }
}

/// Pixel counts that leave a ragged last 64-byte scan step, images at
/// both ends of the intensity range and right at the first lit
/// intensity, on both backends: the lit-pixel scan must pick exactly
/// the pixels at level ≥ 1, so the bundle equals the full-mask one.
#[test]
fn lit_scan_shapes_equal_the_full_mask_bundle() {
    let mut rng = Xoshiro256StarStar::seeded(24);
    for (name, encoder) in shaped_encoders() {
        for (shape, shape_name) in SHAPES.iter().enumerate() {
            let img = shaped_image(encoder, shape, &mut rng);
            let mut dense = DenseAccumulator::new(encoder.dim());
            reference_add(encoder, &img, &mut dense);
            let mut acc = BitSliceAccumulator::new(encoder.dim());
            encoder.accumulate(&img, &mut acc).unwrap();
            let what = format!("{name}, {shape_name}");
            assert_matches(&acc, &dense, &what);
            assert_eq!(acc.total(), encoder.features() as u64, "{what}");
            assert_eq!(encoder.encode(&img).unwrap(), dense.binarize(), "{what}");
        }
    }
}

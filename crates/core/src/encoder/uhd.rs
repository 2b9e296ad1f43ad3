//! The uHD encoder: Sobol-index embedding with multiplier-less encoding
//! (paper Fig. 2, §III).
//!
//! One low-discrepancy sequence is assigned to each pixel position — the
//! *index* of the sequence carries the position information, so there are
//! no position hypervectors and no binding multiplications. A pixel's
//! level hypervector element `j` is +1 iff the normalized intensity is
//! **not smaller** than the j-th Sobol value of that pixel's sequence:
//! `L_p[j] = +1 ⇔ x_p ≥ S_p[j]`.
//!
//! Both the intensity and the Sobol scalars are ξ-level quantized and the
//! comparison runs in the unary domain (paper Fig. 3–4). Three encoding
//! paths are provided, all proven equivalent where they overlap:
//!
//! * the **plane-table path** ([`UhdEncoder`]) — pre-computed per-pixel
//!   threshold bit-planes, the fast path used for training and benches.
//!   Every pixel at level 0 adds the same mask whatever the image, so
//!   the encoder bundles those dark masks once at construction and per
//!   image adds only the lit pixels' delta rows on top. The lit pixels
//!   are found 64 at a time, and their rows go to the bundling kernel
//!   in one call;
//! * the **unary gate path** ([`UhdEncoder::encode_via_unary`]) — every
//!   comparison walks the Fig. 4 comparator on UST-fetched streams;
//! * the **exact path** ([`UhdExactEncoder`]) — unquantized fixed-point
//!   comparison, used to measure what quantization costs (the paper
//!   claims: nothing measurable).

use std::borrow::Cow;

use super::{check_acc, check_feature_len, Encoder, EncoderProfile, MaskBlock};
use crate::accumulator::BitSliceAccumulator;
use crate::error::HdcError;
use crate::hypervector::{words_for_dim, Hypervector};
use crate::item_memory::{ItemMemory, MemoryBackend, RowRecipe};
use crate::kernels;
use uhd_bitstream::comparator::unary_geq;
use uhd_bitstream::ust::UnaryStreamTable;
use uhd_lowdisc::halton::HaltonDimension;
use uhd_lowdisc::quantize::Quantizer;
use uhd_lowdisc::r2::R2Dimension;
use uhd_lowdisc::rng::{UniformSource, Xoshiro256StarStar};
use uhd_lowdisc::sobol::SobolDimension;

/// Which low-discrepancy family supplies the per-pixel sequences.
///
/// The paper uses Sobol; the alternatives exist for the ablation study
/// (how much of the win is *Sobol* vs generic quasi-randomness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdFamily {
    /// Sobol sequences, one dimension per pixel, de-phased per pixel
    /// (the paper's choice — see [`LdFamily::sobol`]).
    Sobol {
        /// Initial points skipped in every dimension (MATLAB's
        /// `sobolset` examples use `Skip = 1000`; skipping also removes
        /// the degenerate all-zero first point).
        skip_base: u64,
        /// Additional per-pixel skip stride: pixel `p` starts at
        /// `skip_base + p · skip_stride`. A nonzero stride de-phases the
        /// per-pixel sequences — the "recurrence property" the paper
        /// invokes — so hypervector dimensions decorrelate across pixels.
        skip_stride: u64,
    },
    /// Halton sequences, one prime base per pixel.
    Halton,
    /// R2/Kronecker additive recurrences, one offset per pixel.
    R2,
    /// Pseudo-random control: defeats the quasi-randomness while keeping
    /// the rest of the uHD pipeline (ablation baseline).
    Pseudo {
        /// Seed for the pseudo-random stream.
        seed: u64,
    },
}

impl LdFamily {
    /// The paper-default Sobol family: `Skip = 1000` (the MATLAB
    /// `sobolset` convention) and a per-pixel de-phasing stride.
    #[must_use]
    pub fn sobol() -> Self {
        LdFamily::Sobol {
            skip_base: 1000,
            skip_stride: 63,
        }
    }

    /// Sobol with index-aligned dimensions (no skip, no stride) — the
    /// naive construction; kept for the ablation bench, which shows the
    /// alignment correlations it suffers from.
    #[must_use]
    pub fn sobol_aligned() -> Self {
        LdFamily::Sobol {
            skip_base: 0,
            skip_stride: 0,
        }
    }

    /// Materialize the first `len` sequence values for `pixel`.
    pub(crate) fn values(&self, pixel: usize, len: usize) -> Result<Vec<f64>, HdcError> {
        match *self {
            LdFamily::Sobol {
                skip_base,
                skip_stride,
            } => {
                let mut d = SobolDimension::new(pixel)?;
                d.seek(skip_base + pixel as u64 * skip_stride);
                Ok(d.take_values(len))
            }
            LdFamily::Halton => {
                let d = HaltonDimension::new(pixel)?;
                Ok(d.take(len).collect())
            }
            LdFamily::R2 => Ok(R2Dimension::new(pixel).take(len).collect()),
            LdFamily::Pseudo { seed } => {
                let mut rng = Xoshiro256StarStar::seeded(
                    seed ^ (pixel as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                Ok((0..len).map(|_| rng.next_unit()).collect())
            }
        }
    }

    /// Fill `out` with the quantized scalars `Q(S_pixel[0..len])` — the
    /// M-bit values the hardware keeps in BRAM (Fig. 3(a)). Every
    /// quantized column (plane rows, plane tables, the unary gate path)
    /// comes from here. Callers validate `ξ ≤ 256`, so each level fits
    /// a byte.
    pub(crate) fn quantized_column(
        &self,
        pixel: usize,
        len: usize,
        quantizer: Quantizer,
        out: &mut Vec<u8>,
    ) -> Result<(), HdcError> {
        debug_assert!(quantizer.levels() <= 256);
        let values = self.values(pixel, len)?;
        out.clear();
        out.extend(values.iter().map(|&s| quantizer.quantize_unit(s) as u8));
        Ok(())
    }
}

/// Configuration for the uHD encoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UhdConfig {
    /// Hypervector dimension D.
    pub dim: u32,
    /// Pixels (features) per image, H.
    pub pixels: usize,
    /// Quantization levels ξ (paper default 16, i.e. M = 4 bits).
    pub levels: u32,
    /// Low-discrepancy family (paper: Sobol).
    pub family: LdFamily,
    /// Memory backend for the threshold-plane item memory.
    pub backend: MemoryBackend,
}

impl UhdConfig {
    /// Paper-default configuration: Sobol sequences, ξ = 16, resident
    /// plane tables.
    #[must_use]
    pub fn new(dim: u32, pixels: usize) -> Self {
        UhdConfig {
            dim,
            pixels,
            levels: 16,
            family: LdFamily::sobol(),
            backend: MemoryBackend::Resident,
        }
    }

    /// The same configuration on the rematerialized backend: planes
    /// regenerate from the LD family on demand, so a fleet of encoders
    /// costs O(cache) heap each instead of O(H·ξ·D) bits.
    #[must_use]
    pub fn rematerialized(mut self) -> Self {
        self.backend = MemoryBackend::rematerialized();
        self
    }

    fn validate(&self) -> Result<(), HdcError> {
        if self.dim == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "dimension must be nonzero".into(),
            });
        }
        if self.pixels == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "pixel count must be nonzero".into(),
            });
        }
        if self.levels < 2 {
            return Err(HdcError::InvalidConfig {
                reason: "need at least 2 levels".into(),
            });
        }
        Ok(())
    }
}

/// The quantized uHD encoder (plane-table fast path).
#[derive(Debug, Clone)]
pub struct UhdEncoder {
    config: UhdConfig,
    quantizer: Quantizer,
    /// Threshold bit-planes as an item memory of disjoint rows,
    /// `p·ξ + q`: row `(p, 0)` is the dark mask `[Q(S_p[j]) = 0]`, row
    /// `(p, L ≥ 1)` the delta `[1 ≤ Q(S_p[j]) ≤ L]`, and the level-`L`
    /// comparator mask is their OR. Stored and derived rows alike come
    /// from one scatter + prefix-OR over a pixel's quantized column;
    /// rematerialized tables derive the unstored rows on demand.
    planes: ItemMemory,
    /// The all-dark bundle `B = Σ_p row(p, 0)` with total H. An image's
    /// counts are `B + Σ_{p lit} row(p, L_p)`: the dark rows of the lit
    /// pixels are in `B` already, and their deltas add the rest.
    dark: BitSliceAccumulator,
    /// `quantize_u8` of every intensity, so the level lookup on the
    /// request path is a table read, not a float round. Nondecreasing,
    /// because the quantizer is monotone.
    intensity_levels: [u32; 256],
    /// The smallest intensity at level ≥ 1. Since `intensity_levels`
    /// is nondecreasing, a pixel is lit exactly when its intensity is
    /// at least this, so the lit pixels are one byte compare away.
    first_lit: u8,
    words: usize,
}

/// Delta rows per [`BitSliceAccumulator::add_uncounted_masks`] call on
/// the resident path: 4 KiB of row references on the stack. A served
/// MNIST digit has about 150 lit pixels, so it takes one call.
const LIT_CHUNK: usize = 256;

/// The pixels whose intensity is at least `first_lit`, ascending. The
/// image is compared 64 bytes at a time into a bit mask
/// ([`kernels::at_least`]), and each mask's set bits are walked, so no
/// pixel costs a branch.
fn lit_pixels(image: &[u8], first_lit: u8) -> impl Iterator<Item = usize> + '_ {
    image.chunks(64).enumerate().flat_map(move |(c, chunk)| {
        let mut bits = kernels::at_least(chunk, first_lit);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                64 * c + i
            })
        })
    })
}

impl UhdEncoder {
    /// Build the encoder (generates and quantizes all per-pixel
    /// sequences, then compiles the threshold planes — or, on the
    /// rematerialized backend, validates the recipe and stores only it).
    ///
    /// # Errors
    ///
    /// * [`HdcError::InvalidConfig`] for degenerate configurations.
    /// * [`HdcError::LowDisc`] if the LD family cannot supply enough
    ///   dimensions (e.g. > 4096 pixels for Sobol).
    pub fn new(config: UhdConfig) -> Result<Self, HdcError> {
        config.validate()?;
        let quantizer = Quantizer::new(config.levels)?;
        let wc = words_for_dim(config.dim);
        let rows = u32::try_from(config.pixels)
            .ok()
            .and_then(|p| p.checked_mul(config.levels))
            .ok_or_else(|| HdcError::InvalidConfig {
                reason: "pixels × levels exceeds the item-memory row limit".into(),
            })?;
        let planes = ItemMemory::new(
            "plane",
            config.dim,
            rows,
            RowRecipe::ThresholdPlanes {
                family: config.family,
                levels: config.levels,
            },
            config.backend,
        )?;
        let dark = dark_bundle(&planes, config.pixels, config.levels)?;
        let intensity_levels: [u32; 256] = std::array::from_fn(|v| quantizer.quantize_u8(v as u8));
        // Level ξ − 1 ≥ 1 at intensity 255, so some intensity is lit.
        let first_lit = (0..=255u8)
            .find(|&v| intensity_levels[usize::from(v)] > 0)
            .expect("intensity 255 is at the top level");
        Ok(UhdEncoder {
            config,
            quantizer,
            planes,
            dark,
            intensity_levels,
            first_lit,
            words: wc,
        })
    }

    /// The encoder configuration.
    #[must_use]
    pub fn config(&self) -> &UhdConfig {
        &self.config
    }

    /// The threshold-plane item memory (row `pixel·ξ + level`: the dark
    /// row at level 0, disjoint delta rows above it).
    #[must_use]
    pub fn plane_memory(&self) -> &ItemMemory {
        &self.planes
    }

    /// Quantize an 8-bit intensity to its ξ-level index.
    #[must_use]
    pub fn level_of(&self, intensity: u8) -> u32 {
        self.intensity_levels[usize::from(intensity)]
    }

    /// Fill `out` with the quantized scalars `Q(S_pixel[0..D])` of one
    /// pixel, regenerated from the LD family on either backend (O(D)
    /// work per call; the request path never needs it).
    ///
    /// # Errors
    ///
    /// [`HdcError::IndexOutOfRange`] for a bad pixel.
    pub fn quantized_pixel_levels(&self, pixel: usize, out: &mut Vec<u8>) -> Result<(), HdcError> {
        if pixel >= self.config.pixels {
            return Err(HdcError::IndexOutOfRange {
                what: "pixel",
                index: pixel,
                len: self.config.pixels,
            });
        }
        self.config
            .family
            .quantized_column(pixel, self.config.dim as usize, self.quantizer, out)
    }

    /// The packed level-hypervector mask for (`pixel`, quantized
    /// level), written into `scratch` on either backend: the dark row
    /// OR the level's delta row. Bit `j` is 1 iff the hypervector
    /// element is +1.
    ///
    /// # Errors
    ///
    /// [`HdcError::IndexOutOfRange`] for a bad pixel or level.
    pub fn pixel_mask_into<'a>(
        &self,
        pixel: usize,
        level: u32,
        scratch: &'a mut Vec<u64>,
    ) -> Result<&'a [u64], HdcError> {
        self.check_mask_args(pixel, level)?;
        let base = pixel as u32 * self.config.levels;
        let mut row = Vec::new();
        scratch.clear();
        scratch.extend_from_slice(self.planes.row(base, &mut row)?);
        if level > 0 {
            let delta = self.planes.row(base + level, &mut row)?;
            for (word, &d) in scratch.iter_mut().zip(delta) {
                *word |= d;
            }
        }
        Ok(scratch)
    }

    fn check_mask_args(&self, pixel: usize, level: u32) -> Result<(), HdcError> {
        if pixel >= self.config.pixels {
            return Err(HdcError::IndexOutOfRange {
                what: "pixel",
                index: pixel,
                len: self.config.pixels,
            });
        }
        if level >= self.config.levels {
            return Err(HdcError::IndexOutOfRange {
                what: "level",
                index: level as usize,
                len: self.config.levels as usize,
            });
        }
        Ok(())
    }

    /// Gate-faithful encoding: every hypervector bit is produced by the
    /// Fig. 4 unary comparator on streams fetched from `ust`.
    ///
    /// Slow by design — used to prove the fast path equals the hardware
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// * [`HdcError::ImageSizeMismatch`] for wrong image sizes.
    /// * [`HdcError::Bitstream`] if `ust` cannot hold ξ levels.
    pub fn encode_via_unary(
        &self,
        image: &[u8],
        ust: &UnaryStreamTable,
    ) -> Result<Hypervector, HdcError> {
        check_feature_len(self.config.pixels, image)?;
        let mut acc = BitSliceAccumulator::new(self.config.dim);
        let wc = self.words;
        let mut mask = vec![0u64; wc];
        let mut column = Vec::new();
        for (pixel, &v) in image.iter().enumerate() {
            let data = ust.fetch(self.level_of(v))?;
            self.quantized_pixel_levels(pixel, &mut column)?;
            mask.fill(0);
            for (j, &q) in column.iter().enumerate() {
                let sobol = ust.fetch(u32::from(q))?;
                if unary_geq(data, sobol)? {
                    mask[j / 64] |= 1u64 << (j % 64);
                }
            }
            acc.add_mask(&mask);
        }
        Ok(acc.binarize_with_total(self.config.pixels as u64))
    }
}

impl Encoder for UhdEncoder {
    fn dim(&self) -> u32 {
        self.config.dim
    }

    fn features(&self) -> usize {
        self.config.pixels
    }

    fn accumulate(&self, image: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError> {
        check_feature_len(self.config.pixels, image)?;
        check_acc(self.config.dim, acc)?;
        // Every pixel's dark row, counted toward `total`; the lit
        // pixels' delta rows then refine counts `total` already holds.
        acc.merge(&self.dark)?;
        let levels = self.config.levels as usize;
        let wc = self.words;
        let lit = lit_pixels(image, self.first_lit).map(|pixel| {
            // In range by the checks above plus the quantizer's
            // contract.
            pixel * levels + self.level_of(image[pixel]) as usize
        });
        if let Some(table) = self.planes.table() {
            // Every row is stored: borrowed table rows, prefetched as
            // the scan finds them and bundled up to `LIT_CHUNK` per
            // kernel call from the stack, so this path allocates
            // nothing.
            let mut rows: [&[u64]; LIT_CHUNK] = [&[]; LIT_CHUNK];
            let mut len = 0;
            for row in lit {
                let row = &table[row * wc..(row + 1) * wc];
                kernels::prefetch(row);
                rows[len] = row;
                len += 1;
                if len == LIT_CHUNK {
                    acc.add_uncounted_masks(&rows);
                    len = 0;
                }
            }
            acc.add_uncounted_masks(&rows[..len]);
        } else {
            let mut staged = MaskBlock::uncounted(wc);
            let mut scratch = Vec::with_capacity(wc);
            for row in lit {
                let mask = self.planes.row(row as u32, &mut scratch)?;
                staged.next_row(acc).copy_from_slice(mask);
            }
            staged.flush(acc);
        }
        Ok(())
    }

    fn profile(&self) -> EncoderProfile {
        let h = self.config.pixels as u64;
        let d = u64::from(self.config.dim);
        let m_bits = u64::from(self.quantizer.bits());
        EncoderProfile {
            name: Cow::Borrowed("uhd"),
            features: self.config.pixels,
            dim: self.config.dim,
            comparisons_per_sample: h * d,
            bind_bitops_per_sample: 0,
            accumulate_ops_per_sample: h * d,
            rng_draws_per_iteration: 0,
            // M-bit quantized Sobol scalars in BRAM (Fig. 3(a)).
            table_bytes: h * d * m_bits / 8,
            working_bytes: d * 4,
            backend: self.config.backend,
            resident_bytes: self.planes.resident_bytes()
                + (self.dark.planes() * self.words) as u64 * 8,
        }
    }
}

/// The all-dark bundle: every pixel's level-0 row of `planes`, on
/// either backend.
fn dark_bundle(
    planes: &ItemMemory,
    pixels: usize,
    levels: u32,
) -> Result<BitSliceAccumulator, HdcError> {
    let mut dark = BitSliceAccumulator::new(planes.dim());
    let mut staged = MaskBlock::new(planes.words());
    let mut scratch = Vec::new();
    for pixel in 0..pixels {
        let row = planes.row(pixel as u32 * levels, &mut scratch)?;
        staged.next_row(&mut dark).copy_from_slice(row);
    }
    staged.flush(&mut dark);
    Ok(dark)
}

/// The exact (unquantized) uHD encoder.
///
/// Keeps each Sobol value as a 32-bit binary fraction and compares
/// `v/255 ≥ S` with exact integer arithmetic. Used to quantify the
/// accuracy impact of ξ-level quantization (paper: "this data
/// quantization does not affect the accuracy of the system").
#[derive(Debug, Clone)]
pub struct UhdExactEncoder {
    dim: u32,
    pixels: usize,
    /// 32-bit fractions `S_p[j] · 2^32`, flattened `[pixel][dim]`.
    fractions: Vec<u32>,
}

impl UhdExactEncoder {
    /// Build the exact encoder for the given LD family.
    ///
    /// # Errors
    ///
    /// Same conditions as [`UhdEncoder::new`].
    pub fn new(dim: u32, pixels: usize, family: LdFamily) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "dimension must be nonzero".into(),
            });
        }
        if pixels == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "pixel count must be nonzero".into(),
            });
        }
        let mut fractions = vec![0u32; pixels * dim as usize];
        for pixel in 0..pixels {
            let values = family.values(pixel, dim as usize)?;
            for (j, &s) in values.iter().enumerate() {
                fractions[pixel * dim as usize + j] =
                    (s * 4_294_967_296.0).min(4_294_967_295.0) as u32;
            }
        }
        Ok(UhdExactEncoder {
            dim,
            pixels,
            fractions,
        })
    }
}

impl Encoder for UhdExactEncoder {
    fn dim(&self) -> u32 {
        self.dim
    }

    fn features(&self) -> usize {
        self.pixels
    }

    fn accumulate(&self, image: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError> {
        check_feature_len(self.pixels, image)?;
        check_acc(self.dim, acc)?;
        let wc = words_for_dim(self.dim);
        let mut mask = vec![0u64; wc];
        for (pixel, &v) in image.iter().enumerate() {
            // x >= s  <=>  v/255 >= fr/2^32  <=>  v·2^32 >= fr·255.
            let lhs = u64::from(v) << 32;
            mask.fill(0);
            let base = pixel * self.dim as usize;
            for j in 0..self.dim as usize {
                if lhs >= u64::from(self.fractions[base + j]) * 255 {
                    mask[j / 64] |= 1u64 << (j % 64);
                }
            }
            acc.add_mask(&mask);
        }
        Ok(())
    }

    fn profile(&self) -> EncoderProfile {
        let h = self.pixels as u64;
        let d = u64::from(self.dim);
        EncoderProfile {
            name: Cow::Borrowed("uhd-exact"),
            features: self.pixels,
            dim: self.dim,
            comparisons_per_sample: h * d,
            bind_bitops_per_sample: 0,
            accumulate_ops_per_sample: h * d,
            rng_draws_per_iteration: 0,
            table_bytes: h * d * 4,
            working_bytes: d * 4,
            backend: MemoryBackend::Resident,
            resident_bytes: self.fractions.len() as u64 * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> UhdConfig {
        UhdConfig {
            dim: 128,
            pixels: 9,
            levels: 16,
            family: LdFamily::sobol(),
            backend: MemoryBackend::Resident,
        }
    }

    #[test]
    fn level_table_matches_the_quantizer() {
        for levels in [2u32, 7, 16, 256] {
            let enc = UhdEncoder::new(UhdConfig {
                levels,
                ..tiny_config()
            })
            .unwrap();
            let q = Quantizer::new(levels).unwrap();
            for v in 0..=255u8 {
                assert_eq!(enc.level_of(v), q.quantize_u8(v), "levels {levels}, v {v}");
            }
        }
    }

    /// The lit-pixel scan compares intensities against `first_lit`, so
    /// it needs the level table nondecreasing with its first lit entry
    /// at `first_lit`, for every level count an encoder accepts.
    #[test]
    fn intensity_levels_are_nondecreasing_from_first_lit() {
        for levels in 2u32..=256 {
            let enc = UhdEncoder::new(UhdConfig {
                dim: 64,
                pixels: 1,
                levels,
                ..tiny_config()
            })
            .unwrap();
            let table = &enc.intensity_levels;
            assert!(
                table.windows(2).all(|pair| pair[0] <= pair[1]),
                "levels {levels}"
            );
            let first = usize::from(enc.first_lit);
            assert!(table[first] > 0, "levels {levels}");
            assert!(table[..first].iter().all(|&l| l == 0), "levels {levels}");
        }
    }

    #[test]
    fn lit_pixels_are_the_pixels_at_or_above_first_lit() {
        let mut rng = Xoshiro256StarStar::seeded(5);
        for len in [0usize, 1, 63, 64, 65, 100, 784] {
            for first_lit in [1u8, 9, 128, 255] {
                let image: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let expect: Vec<usize> = (0..len).filter(|&p| image[p] >= first_lit).collect();
                let got: Vec<usize> = lit_pixels(&image, first_lit).collect();
                assert_eq!(got, expect, "len {len}, first lit {first_lit}");
            }
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(UhdEncoder::new(UhdConfig {
            dim: 0,
            ..tiny_config()
        })
        .is_err());
        assert!(UhdEncoder::new(UhdConfig {
            pixels: 0,
            ..tiny_config()
        })
        .is_err());
        assert!(UhdEncoder::new(UhdConfig {
            levels: 1,
            ..tiny_config()
        })
        .is_err());
        // Quantized columns are bytes: ξ = 257 would truncate them.
        for config in [tiny_config(), tiny_config().rematerialized()] {
            assert!(matches!(
                UhdEncoder::new(UhdConfig {
                    levels: 257,
                    ..config
                }),
                Err(HdcError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn plane_table_matches_direct_quantized_comparison() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let quantizer = Quantizer::new(16).unwrap();
        let mut scratch = Vec::new();
        for pixel in 0..9 {
            let mut sobol = SobolDimension::new(pixel).unwrap();
            sobol.seek(1000 + pixel as u64 * 63); // the LdFamily::sobol() phase
            let values = sobol.take_values(128);
            for level in 0..16u32 {
                let mask = enc.pixel_mask_into(pixel, level, &mut scratch).unwrap();
                for (j, &s) in values.iter().enumerate() {
                    let expect = level >= quantizer.quantize_unit(s);
                    let got = (mask[j / 64] >> (j % 64)) & 1 == 1;
                    assert_eq!(got, expect, "pixel {pixel} level {level} dim {j}");
                }
            }
        }
    }

    #[test]
    fn masks_grow_monotonically_with_level() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let (mut lo_buf, mut hi_buf) = (Vec::new(), Vec::new());
        for pixel in 0..9 {
            for level in 1..16u32 {
                let lo = enc.pixel_mask_into(pixel, level - 1, &mut lo_buf).unwrap();
                let hi = enc.pixel_mask_into(pixel, level, &mut hi_buf).unwrap();
                for (a, b) in lo.iter().zip(hi.iter()) {
                    assert_eq!(a & !b, 0, "mask must be monotone in level");
                }
            }
        }
    }

    #[test]
    fn delta_rows_are_disjoint_from_the_dark_row() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let planes = enc.plane_memory();
        for pixel in 0..9 {
            let dark = planes.row_hypervector(pixel * 16).unwrap();
            for level in 1..16 {
                let delta = planes.row_hypervector(pixel * 16 + level).unwrap();
                for (d, z) in delta.words().iter().zip(dark.words()) {
                    assert_eq!(d & z, 0, "pixel {pixel} level {level}");
                }
            }
        }
    }

    #[test]
    fn top_level_mask_is_all_ones() {
        // Intensity 255 quantizes to xi-1 which is >= every quantized
        // Sobol value, so the mask is full.
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let mut scratch = Vec::new();
        let mask = enc.pixel_mask_into(0, 15, &mut scratch).unwrap();
        let ones: u32 = mask.iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones, 128);
    }

    #[test]
    fn pixel_mask_misuse_errors_instead_of_panicking() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let remat = UhdEncoder::new(tiny_config().rematerialized()).unwrap();
        let mut scratch = Vec::new();
        for e in [&enc, &remat] {
            assert!(matches!(
                e.pixel_mask_into(9, 0, &mut scratch),
                Err(HdcError::IndexOutOfRange {
                    what: "pixel",
                    index: 9,
                    len: 9
                })
            ));
            assert!(matches!(
                e.pixel_mask_into(0, 16, &mut scratch),
                Err(HdcError::IndexOutOfRange {
                    what: "level",
                    index: 16,
                    len: 16
                })
            ));
        }
        let mut other = Vec::new();
        for pixel in 0..9 {
            for level in 0..16 {
                assert_eq!(
                    remat.pixel_mask_into(pixel, level, &mut scratch).unwrap(),
                    enc.pixel_mask_into(pixel, level, &mut other).unwrap(),
                    "pixel {pixel} level {level}"
                );
            }
        }
    }

    #[test]
    fn rematerialized_encoder_is_bit_identical() {
        let res = UhdEncoder::new(tiny_config()).unwrap();
        let rem = UhdEncoder::new(tiny_config().rematerialized()).unwrap();
        for seed in 0u8..8 {
            let image: Vec<u8> = (0..9u8)
                .map(|i| i.wrapping_mul(13).wrapping_add(seed.wrapping_mul(31)))
                .collect();
            assert_eq!(res.encode(&image).unwrap(), rem.encode(&image).unwrap());
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for pixel in 0..9 {
            res.quantized_pixel_levels(pixel, &mut a).unwrap();
            rem.quantized_pixel_levels(pixel, &mut b).unwrap();
            assert_eq!(a.len(), 128);
            assert_eq!(a, b, "pixel {pixel}");
        }
        // The rematerialized instance pins far less heap while quoting
        // the same nominal hardware table size; the resident one holds
        // exactly the plane table (pixels · ξ · D bits) and the
        // all-dark bundle (bits(9) = 4 planes of D bits), nothing more.
        let (pr, pm) = (res.profile(), rem.profile());
        assert_eq!(pr.table_bytes, pm.table_bytes);
        assert_eq!(pr.resident_bytes, 9 * 16 * 128 / 8 + 4 * 128 / 8);
        assert!(pm.resident_bytes < pr.resident_bytes);
        assert_eq!(pm.backend, MemoryBackend::rematerialized());
    }

    #[test]
    fn rematerialized_unary_gate_path_still_agrees() {
        let enc = UhdEncoder::new(tiny_config().rematerialized()).unwrap();
        let ust = UnaryStreamTable::new(16, 16).unwrap();
        let image: Vec<u8> = (0..9).map(|i| (i * 28) as u8).collect();
        assert_eq!(
            enc.encode(&image).unwrap(),
            enc.encode_via_unary(&image, &ust).unwrap()
        );
    }

    #[test]
    fn unary_gate_path_equals_plane_path() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let ust = UnaryStreamTable::new(16, 16).unwrap();
        let image: Vec<u8> = (0..9).map(|i| (i * 28) as u8).collect();
        let fast = enc.encode(&image).unwrap();
        let gate = enc.encode_via_unary(&image, &ust).unwrap();
        assert_eq!(fast, gate);
    }

    #[test]
    fn wrong_image_size_errors() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        assert!(matches!(
            enc.encode(&[0u8; 8]),
            Err(HdcError::ImageSizeMismatch {
                expected: 9,
                got: 8
            })
        ));
    }

    #[test]
    fn deterministic_across_reconstruction() {
        let a = UhdEncoder::new(tiny_config()).unwrap();
        let b = UhdEncoder::new(tiny_config()).unwrap();
        let image: Vec<u8> = (0..9).map(|i| (255 - i * 20) as u8).collect();
        assert_eq!(a.encode(&image).unwrap(), b.encode(&image).unwrap());
    }

    #[test]
    fn families_produce_different_encoders() {
        let sobol = UhdEncoder::new(tiny_config()).unwrap();
        let halton = UhdEncoder::new(UhdConfig {
            family: LdFamily::Halton,
            ..tiny_config()
        })
        .unwrap();
        let image = vec![100u8; 9];
        assert_ne!(
            sobol.encode(&image).unwrap(),
            halton.encode(&image).unwrap()
        );
    }

    #[test]
    fn exact_encoder_close_to_quantized_encoder() {
        // Per-bit decisions may differ near quantization thresholds, and
        // with few pixels the binarization margin is thin, so compare the
        // two paths where the *exact* bundle has a comfortable margin:
        // there the quantized encoder must agree almost always (the
        // paper's "quantization does not affect accuracy" claim).
        let dim = 2048u32;
        let pixels = 25usize;
        let q = UhdEncoder::new(UhdConfig {
            dim,
            pixels,
            levels: 16,
            family: LdFamily::sobol(),
            backend: MemoryBackend::Resident,
        })
        .unwrap();
        let e = UhdExactEncoder::new(dim, pixels, LdFamily::sobol()).unwrap();
        let image: Vec<u8> = (0..pixels).map(|i| (i * 10 % 256) as u8).collect();
        let hq = q.encode(&image).unwrap();
        let mut acc = BitSliceAccumulator::new(dim);
        e.accumulate(&image, &mut acc).unwrap();
        let sums = acc.bipolar_sums();
        let margin = (pixels as i64) / 4;
        let mut confident = 0usize;
        let mut agree = 0usize;
        for (i, &s) in sums.iter().enumerate() {
            if s.abs() >= margin {
                confident += 1;
                if hq.bit(i as u32) == (s >= 0) {
                    agree += 1;
                }
            }
        }
        assert!(
            confident > 300,
            "test needs confident dimensions, got {confident}"
        );
        let frac = agree as f64 / confident as f64;
        assert!(frac > 0.9, "agreement on confident dims {frac}");
    }

    #[test]
    fn profile_is_multiplier_free() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let p = enc.profile();
        assert_eq!(p.bind_bitops_per_sample, 0);
        assert_eq!(p.rng_draws_per_iteration, 0);
        assert_eq!(p.comparisons_per_sample, 9 * 128);
    }

    #[test]
    fn pseudo_family_is_seed_deterministic() {
        let cfg = |seed| UhdConfig {
            family: LdFamily::Pseudo { seed },
            ..tiny_config()
        };
        let a = UhdEncoder::new(cfg(5)).unwrap();
        let b = UhdEncoder::new(cfg(5)).unwrap();
        let c = UhdEncoder::new(cfg(6)).unwrap();
        let image = vec![77u8; 9];
        assert_eq!(a.encode(&image).unwrap(), b.encode(&image).unwrap());
        assert_ne!(a.encode(&image).unwrap(), c.encode(&image).unwrap());
    }
}

//! The baseline HDC encoder: pseudo-random position and level
//! hypervectors with XOR binding (paper Fig. 1).
//!
//! Every pixel contributes `P_pixel ⊗ L_level(intensity)`; the bound
//! vectors are bundled by popcount and binarized by sign. Generating a
//! *good* pseudo-random P/L assignment is a lottery — the paper's
//! Table IV re-rolls the tables up to i = 100 times and reports the
//! accuracy spread — and each iteration of that loop builds a fresh
//! encoder from its own seed or stream.
//!
//! Both tables live in [`ItemMemory`]: [`BaselineEncoder::new`] keeps
//! the historical behaviour (tables drawn from a caller stream, always
//! resident, bit-identical to every previous release — the tables the
//! paper-table benches report), while
//! [`BaselineEncoder::from_seed`] derives them from one `u64` seed and
//! can therefore run on the rematerialized backend with O(seed)
//! persistent state.

use std::borrow::Cow;

use super::level::{generate_level_hypervectors, LevelScheme};
use super::{check_acc, check_feature_len, Encoder, EncoderProfile, MaskBlock};
use crate::accumulator::BitSliceAccumulator;
use crate::error::HdcError;
use crate::hypervector::{words_for_dim, Hypervector};
use crate::item_memory::{derive_seed, ItemMemory, MemoryBackend, RowRecipe};
use uhd_lowdisc::quantize::Quantizer;
use uhd_lowdisc::rng::UniformSource;

/// Role tag of the position table under a master seed.
const POSITION_TAG: u64 = 1;
/// Role tag of the level table under a master seed.
const LEVEL_TAG: u64 = 2;

/// Configuration for [`BaselineEncoder`].
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Hypervector dimension D.
    pub dim: u32,
    /// Pixels (features) per image, H.
    pub pixels: usize,
    /// Number of intensity levels (level hypervector count).
    pub levels: u32,
    /// Level-hypervector construction scheme.
    pub scheme: LevelScheme,
}

impl BaselineConfig {
    /// Convenience constructor with the default level scheme.
    #[must_use]
    pub fn new(dim: u32, pixels: usize, levels: u32) -> Self {
        BaselineConfig {
            dim,
            pixels,
            levels,
            scheme: LevelScheme::default(),
        }
    }

    /// The paper-literal baseline: level hypervectors built by the
    /// threshold-comparison rule of §II (`t = k·D/2^n` against a random
    /// draw) at n = 8-bit precision (256 levels), position hypervectors
    /// pseudo-random at `t = 0.5`. This is the reference design of
    /// Tables IV and V.
    #[must_use]
    pub fn paper(dim: u32, pixels: usize) -> Self {
        BaselineConfig {
            dim,
            pixels,
            levels: 256,
            scheme: LevelScheme::ThresholdDraw,
        }
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

/// The baseline encoder over P and L item memories.
#[derive(Debug, Clone)]
pub struct BaselineEncoder {
    config: BaselineConfig,
    positions: ItemMemory,
    levels: ItemMemory,
    quantizer: Quantizer,
}

impl BaselineEncoder {
    /// Generate P and L tables from the given randomness source
    /// (always resident; bit-identical to all previous releases).
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidConfig`] for degenerate configurations.
    pub fn new<S: UniformSource + ?Sized>(
        config: BaselineConfig,
        source: &mut S,
    ) -> Result<Self, HdcError> {
        config.validate()?;
        let positions: Vec<Hypervector> = (0..config.pixels)
            .map(|_| Hypervector::random(config.dim, source))
            .collect();
        let levels = generate_level_hypervectors(config.dim, config.levels, config.scheme, source);
        let quantizer = Quantizer::new(config.levels)?;
        Ok(BaselineEncoder {
            config,
            positions: ItemMemory::from_rows("position", &positions)?,
            levels: ItemMemory::from_rows("level", &levels)?,
            quantizer,
        })
    }

    /// Build the encoder from one master seed, on the chosen backend.
    /// The position table derives as i.i.d. rows and the level table as
    /// a level chain, each under its own sub-seed — so the same
    /// `(config, seed)` pair produces bit-identical encoders on either
    /// backend.
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidConfig`] for degenerate configurations.
    pub fn from_seed(
        config: BaselineConfig,
        seed: u64,
        backend: MemoryBackend,
    ) -> Result<Self, HdcError> {
        config.validate()?;
        let pixels = u32::try_from(config.pixels).map_err(|_| HdcError::InvalidConfig {
            reason: "pixel count exceeds the item-memory row limit".into(),
        })?;
        let positions = ItemMemory::new(
            "position",
            config.dim,
            pixels,
            RowRecipe::Iid {
                seed: derive_seed(seed, POSITION_TAG),
            },
            backend,
        )?;
        let levels = ItemMemory::new(
            "level",
            config.dim,
            config.levels,
            RowRecipe::LevelChain {
                seed: derive_seed(seed, LEVEL_TAG),
                scheme: config.scheme,
            },
            backend,
        )?;
        let quantizer = Quantizer::new(config.levels)?;
        Ok(BaselineEncoder {
            config,
            positions,
            levels,
            quantizer,
        })
    }

    /// The position item memory (any backend).
    #[must_use]
    pub fn position_memory(&self) -> &ItemMemory {
        &self.positions
    }

    /// The level item memory (any backend).
    #[must_use]
    pub fn level_memory(&self) -> &ItemMemory {
        &self.levels
    }

    /// The encoder configuration.
    #[must_use]
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// Quantize an 8-bit intensity to its level index.
    #[must_use]
    pub fn level_of(&self, intensity: u8) -> u32 {
        self.quantizer.quantize_u8(intensity)
    }
}

impl Encoder for BaselineEncoder {
    fn dim(&self) -> u32 {
        self.config.dim
    }

    fn features(&self) -> usize {
        self.config.pixels
    }

    fn accumulate(&self, image: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError> {
        check_feature_len(self.config.pixels, image)?;
        check_acc(self.config.dim, acc)?;
        let wc = words_for_dim(self.config.dim);
        // The bound masks, staged a block at a time.
        let mut staged = MaskBlock::new(wc);
        let tail_mask = {
            let rem = self.config.dim % 64;
            if rem == 0 {
                u64::MAX
            } else {
                (1u64 << rem) - 1
            }
        };
        let mut p_buf = Vec::new();
        let mut l_buf = Vec::new();
        for (pixel, &intensity) in image.iter().enumerate() {
            let level = self.level_of(intensity);
            let p = self.positions.row(pixel as u32, &mut p_buf)?;
            let l = self.levels.row(level, &mut l_buf)?;
            // Binding: element-wise multiply = XNOR in the bit domain.
            let mask = staged.next_row(acc);
            for ((slot, &pw), &lw) in mask.iter_mut().zip(p).zip(l) {
                *slot = !(pw ^ lw);
            }
            mask[wc - 1] &= tail_mask;
        }
        staged.flush(acc);
        Ok(())
    }

    fn profile(&self) -> EncoderProfile {
        let h = self.config.pixels as u64;
        let d = u64::from(self.config.dim);
        let levels = u64::from(self.config.levels);
        EncoderProfile {
            name: Cow::Borrowed("baseline"),
            features: self.config.pixels,
            dim: self.config.dim,
            // Hypervector generation compares a random number against a
            // threshold per dimension (P) plus the level construction.
            comparisons_per_sample: 0,
            bind_bitops_per_sample: h * d,
            accumulate_ops_per_sample: h * d,
            rng_draws_per_iteration: (h + levels) * d,
            // The C baseline stores P and L as int arrays (4 bytes per
            // element), the convention used for Table I's footprints.
            table_bytes: (h + levels) * d * 4,
            working_bytes: d * 4,
            backend: self.positions.backend(),
            resident_bytes: self.positions.resident_bytes() + self.levels.resident_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::DenseAccumulator;
    use uhd_lowdisc::rng::Xoshiro256StarStar;

    fn small_encoder(seed: u64) -> BaselineEncoder {
        let mut rng = Xoshiro256StarStar::seeded(seed);
        BaselineEncoder::new(BaselineConfig::new(256, 16, 4), &mut rng).unwrap()
    }

    #[test]
    fn rejects_degenerate_configs() {
        let mut rng = Xoshiro256StarStar::seeded(0);
        assert!(BaselineEncoder::new(BaselineConfig::new(0, 4, 4), &mut rng).is_err());
        assert!(BaselineEncoder::new(BaselineConfig::new(64, 0, 4), &mut rng).is_err());
        assert!(BaselineEncoder::new(BaselineConfig::new(64, 4, 1), &mut rng).is_err());
    }

    #[test]
    fn tables_have_expected_shapes() {
        let enc = small_encoder(1);
        assert_eq!(enc.position_memory().rows(), 16);
        assert_eq!(enc.level_memory().rows(), 4);
        assert_eq!(enc.dim(), 256);
    }

    #[test]
    fn accumulate_matches_manual_bind_and_bundle() {
        let enc = small_encoder(2);
        let image: Vec<u8> = (0..16).map(|i| (i * 16) as u8).collect();
        let mut acc = BitSliceAccumulator::new(256);
        enc.accumulate(&image, &mut acc).unwrap();

        let mut reference = DenseAccumulator::new(256);
        for (pixel, &v) in image.iter().enumerate() {
            let p = enc.position_memory().row_hypervector(pixel as u32);
            let l = enc.level_memory().row_hypervector(enc.level_of(v));
            let bound = p.unwrap().bind(&l.unwrap()).unwrap();
            reference.add_hypervector(&bound).unwrap();
        }
        let rc: Vec<u64> = reference.counts().iter().map(|&c| c as u64).collect();
        assert_eq!(acc.counts(), rc);
    }

    #[test]
    fn encode_binarizes_at_half_pixels() {
        let enc = small_encoder(3);
        let image = vec![128u8; 16];
        let hv = enc.encode(&image).unwrap();
        assert_eq!(hv.dim(), 256);
    }

    #[test]
    fn wrong_image_size_errors() {
        let enc = small_encoder(4);
        let image = vec![0u8; 15];
        assert!(matches!(
            enc.encode(&image),
            Err(HdcError::ImageSizeMismatch {
                expected: 16,
                got: 15
            })
        ));
    }

    #[test]
    fn wrong_accumulator_dim_errors() {
        let enc = small_encoder(5);
        let mut acc = BitSliceAccumulator::new(128);
        assert!(matches!(
            enc.accumulate(&[0u8; 16], &mut acc),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn encoding_is_deterministic_for_fixed_tables() {
        let enc = small_encoder(7);
        let image: Vec<u8> = (0..16).map(|i| (255 - i * 3) as u8).collect();
        assert_eq!(enc.encode(&image).unwrap(), enc.encode(&image).unwrap());
    }

    #[test]
    fn profile_reports_structural_counts() {
        let enc = small_encoder(8);
        let p = enc.profile();
        assert_eq!(p.name, "baseline");
        assert_eq!(p.bind_bitops_per_sample, 16 * 256);
        assert_eq!(p.rng_draws_per_iteration, (16 + 4) * 256);
        assert_eq!(p.backend, MemoryBackend::Resident);
        assert_eq!(p.resident_bytes, (16 + 4) * (256 / 64) * 8);
    }

    #[test]
    fn from_seed_is_bit_identical_across_backends() {
        let config = BaselineConfig::new(300, 12, 8);
        let res = BaselineEncoder::from_seed(config.clone(), 99, MemoryBackend::Resident).unwrap();
        let rem = BaselineEncoder::from_seed(
            config,
            99,
            MemoryBackend::Rematerialized { cached_rows: 4 },
        )
        .unwrap();
        let image: Vec<u8> = (0..12).map(|i| (i * 21) as u8).collect();
        assert_eq!(res.encode(&image).unwrap(), rem.encode(&image).unwrap());
        assert!(res.profile().resident_bytes > rem.profile().resident_bytes);
    }

    #[test]
    fn rematerialized_accessors_error_not_panic() {
        let enc = BaselineEncoder::from_seed(
            BaselineConfig::new(128, 4, 4),
            1,
            MemoryBackend::Rematerialized { cached_rows: 0 },
        )
        .unwrap();
        // Every row derives; an index past the table is an error.
        assert_eq!(enc.position_memory().rows(), 4);
        assert!(enc.position_memory().row_hypervector(3).is_ok());
        assert!(matches!(
            enc.position_memory().row_hypervector(4),
            Err(HdcError::IndexOutOfRange {
                what: "position",
                index: 4,
                len: 4
            })
        ));
        assert!(matches!(
            enc.level_memory().row_hypervector(4),
            Err(HdcError::IndexOutOfRange { what: "level", .. })
        ));
    }
}

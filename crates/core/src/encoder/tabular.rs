//! Tabular/sensor row encoder: per-column keys bound with a correlated
//! level chain.
//!
//! The standard HDC record encoding for feature vectors (HAR, ISOLET,
//! wine-style datasets in Ge & Parhi's review): each column gets a
//! random *key hypervector* `K_c` identifying the field, each quantized
//! magnitude gets a *level hypervector* `L_b` from a bit-flip chain so
//! adjacent bins stay similar, and a row bundles the XOR bindings
//! `K_c ⊕ L_{bin(v_c)}` over its columns — the same
//! contribution-per-feature shape the image and text pipelines feed the
//! popcount accumulator.
//!
//! Like the text encoder (and per Schmuck et al.'s rematerialization
//! argument), both tables regenerate deterministically from one `u64`
//! seed: the encoder's persistent state is O(seed). Each table is an
//! [`ItemMemory`] — keys i.i.d., levels a flip chain, under distinct
//! sub-seeds of the published master — resident by default or derived
//! row-by-row on the rematerialized backend.
//!
//! Rows are fixed-shape — the trait's default exact-length
//! [`Encoder::check_features`] applies as-is.

use std::borrow::Cow;

use super::level::LevelScheme;
use super::{check_acc, check_feature_len, Encoder, EncoderProfile, MaskBlock};
use crate::accumulator::BitSliceAccumulator;
use crate::error::HdcError;
use crate::hypervector::words_for_dim;
use crate::item_memory::{derive_seed, ItemMemory, MemoryBackend, RowRecipe};
use uhd_lowdisc::quantize::Quantizer;

/// Role tag of the key table under the master seed.
const KEY_TAG: u64 = 1;
/// Role tag of the level table under the master seed.
const LEVEL_TAG: u64 = 2;

/// Configuration for [`TabularEncoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabularConfig {
    /// Hypervector dimension D.
    pub dim: u32,
    /// Columns (features) per row.
    pub columns: usize,
    /// Quantization bins for the 8-bit column values.
    pub bins: u32,
    /// Seed the key/level tables rematerialize from.
    pub seed: u64,
    /// Memory backend for the key and level tables.
    pub backend: MemoryBackend,
}

impl TabularConfig {
    /// Convenience constructor: 16 bins (matching the uHD image
    /// pipeline's ξ), a fixed published seed, resident tables.
    #[must_use]
    pub fn new(dim: u32, columns: usize) -> Self {
        TabularConfig {
            dim,
            columns,
            bins: 16,
            seed: 0x7AB_1E_u64,
            backend: MemoryBackend::Resident,
        }
    }

    /// The same configuration on the rematerialized backend.
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
        if self.columns == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "column count must be nonzero".into(),
            });
        }
        if self.bins < 2 {
            return Err(HdcError::InvalidConfig {
                reason: "need at least 2 bins".into(),
            });
        }
        Ok(())
    }
}

/// Key-level record encoder for fixed-width byte rows.
#[derive(Debug, Clone)]
pub struct TabularEncoder {
    config: TabularConfig,
    keys: ItemMemory,
    levels: ItemMemory,
    quantizer: Quantizer,
    words: usize,
}

impl TabularEncoder {
    /// Build the key and level tables from the configured seed, on the
    /// configured backend.
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidConfig`] for degenerate configurations.
    pub fn new(config: TabularConfig) -> Result<Self, HdcError> {
        config.validate()?;
        let columns = u32::try_from(config.columns).map_err(|_| HdcError::InvalidConfig {
            reason: "column count exceeds the item-memory row limit".into(),
        })?;
        let keys = ItemMemory::new(
            "key",
            config.dim,
            columns,
            RowRecipe::Iid {
                seed: derive_seed(config.seed, KEY_TAG),
            },
            config.backend,
        )?;
        let levels = ItemMemory::new(
            "level",
            config.dim,
            config.bins,
            RowRecipe::LevelChain {
                seed: derive_seed(config.seed, LEVEL_TAG),
                scheme: LevelScheme::CumulativeFlip,
            },
            config.backend,
        )?;
        let quantizer = Quantizer::new(config.bins)?;
        Ok(TabularEncoder {
            words: words_for_dim(config.dim),
            config,
            keys,
            levels,
            quantizer,
        })
    }

    /// The encoder configuration.
    #[must_use]
    pub fn config(&self) -> &TabularConfig {
        &self.config
    }

    /// Quantize an 8-bit column value to its bin index.
    #[must_use]
    pub fn bin_of(&self, value: u8) -> u32 {
        self.quantizer.quantize_u8(value)
    }

    /// The key item memory (any backend).
    #[must_use]
    pub fn key_memory(&self) -> &ItemMemory {
        &self.keys
    }

    /// The level item memory (any backend).
    #[must_use]
    pub fn level_memory(&self) -> &ItemMemory {
        &self.levels
    }
}

impl Encoder for TabularEncoder {
    fn dim(&self) -> u32 {
        self.config.dim
    }

    fn features(&self) -> usize {
        self.config.columns
    }

    fn accumulate(&self, input: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError> {
        check_feature_len(self.config.columns, input)?;
        check_acc(self.config.dim, acc)?;
        // The bound masks, staged a block at a time (16 columns make
        // exactly one block).
        let mut staged = MaskBlock::new(self.words);
        let mut k_buf = Vec::new();
        let mut l_buf = Vec::new();
        for (column, &value) in input.iter().enumerate() {
            let bin = self.bin_of(value);
            let k = self.keys.row(column as u32, &mut k_buf)?;
            let l = self.levels.row(bin, &mut l_buf)?;
            // XOR of tail-clear operands stays tail-clear.
            for ((slot, &kw), &lw) in staged.next_row(acc).iter_mut().zip(k).zip(l) {
                *slot = kw ^ lw;
            }
        }
        staged.flush(acc);
        Ok(())
    }

    fn profile(&self) -> EncoderProfile {
        let c = self.config.columns as u64;
        let d = u64::from(self.config.dim);
        let bins = u64::from(self.config.bins);
        EncoderProfile {
            name: Cow::Owned(format!(
                "tabular(cols={},bins={})",
                self.config.columns, self.config.bins
            )),
            features: self.config.columns,
            dim: self.config.dim,
            comparisons_per_sample: 0,
            bind_bitops_per_sample: c * d,
            accumulate_ops_per_sample: c * d,
            // Tables rematerialize from the seed.
            rng_draws_per_iteration: 0,
            // Resident key + level view, packed bits.
            table_bytes: (c + bins) * d / 8,
            working_bytes: d * 4,
            backend: self.keys.backend(),
            resident_bytes: self.keys.resident_bytes() + self.levels.resident_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine;

    fn tiny() -> TabularEncoder {
        TabularEncoder::new(TabularConfig {
            bins: 8,
            seed: 11,
            ..TabularConfig::new(1024, 8)
        })
        .unwrap()
    }

    #[test]
    fn rematerialized_backend_is_bit_identical() {
        let res = tiny();
        let rem = TabularEncoder::new(res.config().clone().rematerialized()).unwrap();
        let row = [10u8, 40, 90, 160, 250, 0, 128, 200];
        assert_eq!(res.encode(&row).unwrap(), rem.encode(&row).unwrap());
        assert_eq!(rem.key_memory().rows(), 8);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(TabularEncoder::new(TabularConfig {
            dim: 0,
            ..TabularConfig::new(64, 4)
        })
        .is_err());
        assert!(TabularEncoder::new(TabularConfig {
            columns: 0,
            ..TabularConfig::new(64, 4)
        })
        .is_err());
        assert!(TabularEncoder::new(TabularConfig {
            bins: 1,
            ..TabularConfig::new(64, 4)
        })
        .is_err());
    }

    #[test]
    fn tables_have_expected_shapes() {
        let enc = tiny();
        assert_eq!(enc.key_memory().rows(), 8);
        assert_eq!(enc.level_memory().rows(), 8);
        assert_eq!(enc.features(), 8);
    }

    #[test]
    fn wrong_row_width_errors() {
        let enc = tiny();
        assert!(matches!(
            enc.encode(&[0u8; 7]),
            Err(HdcError::ImageSizeMismatch {
                expected: 8,
                got: 7
            })
        ));
    }

    #[test]
    fn rematerializes_bit_identically_from_seed() {
        let a = tiny();
        let b = tiny();
        let row = [10u8, 40, 90, 160, 250, 0, 128, 200];
        assert_eq!(a.encode(&row).unwrap(), b.encode(&row).unwrap());
        let c = TabularEncoder::new(TabularConfig {
            seed: 12,
            ..a.config().clone()
        })
        .unwrap();
        assert_ne!(a.encode(&row).unwrap(), c.encode(&row).unwrap());
    }

    #[test]
    fn nearby_rows_are_more_similar_than_distant_rows() {
        let enc = TabularEncoder::new(TabularConfig::new(4096, 8)).unwrap();
        let base = [100u8; 8];
        let near = [110u8; 8]; // shifts at most one bin per column
        let far = [250u8; 8];
        let hb = enc.encode(&base).unwrap();
        let hn = enc.encode(&near).unwrap();
        let hf = enc.encode(&far).unwrap();
        let sim_near = cosine(&hb, &hn).unwrap();
        let sim_far = cosine(&hb, &hf).unwrap();
        assert!(
            sim_near > sim_far,
            "level chain must keep nearby rows similar: near={sim_near} far={sim_far}"
        );
    }

    #[test]
    fn accumulate_matches_manual_bind_and_bundle() {
        let enc = tiny();
        let row = [5u8, 55, 105, 155, 205, 255, 25, 75];
        let mut acc = BitSliceAccumulator::new(1024);
        enc.accumulate(&row, &mut acc).unwrap();

        let mut reference = BitSliceAccumulator::new(1024);
        for (c, &v) in row.iter().enumerate() {
            let k = enc.key_memory().row_hypervector(c as u32).unwrap();
            let l = enc.level_memory().row_hypervector(enc.bin_of(v)).unwrap();
            let mask: Vec<u64> = k
                .words()
                .iter()
                .zip(l.words())
                .map(|(x, y)| x ^ y)
                .collect();
            reference.add_mask(&mask);
        }
        assert_eq!(acc.counts(), reference.counts());
    }

    #[test]
    fn profile_reports_dynamic_name() {
        let enc = tiny();
        let p = enc.profile();
        assert_eq!(p.name, "tabular(cols=8,bins=8)");
        assert_eq!(p.features, 8);
        assert_eq!(p.bind_bitops_per_sample, 8 * 1024);
    }
}

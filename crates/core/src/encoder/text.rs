//! n-gram text encoder for language identification.
//!
//! The classic HDC text pipeline (Joshi et al., and the
//! binary-vs-bipolar language-ID tables reproduced in SNIPPETS.md):
//! each character maps to a random *symbol hypervector*; an n-gram is
//! the XOR binding of its characters' hypervectors, each rotated by its
//! position in the gram (`ρ^{n-1-k}`); a text's hypervector bundles all
//! of its n-grams through the popcount accumulator, exactly like pixels
//! bundle in the image pipeline. Classification and online learning are
//! unchanged — this encoder is the proof that nothing downstream of
//! [`Encoder`] is image-specific.
//!
//! Following Schmuck et al.'s rematerialization result, the symbol item
//! memory is *derived*, not stored: the 27 symbol hypervectors (a–z
//! plus a catch-all space) regenerate deterministically from one `u64`
//! seed, so the persistent state of a text model is O(seed). The
//! rotated per-position table is an [`ItemMemory`] over the
//! [`RowRecipe::RotatedIid`] recipe — resident by default (a
//! materialized view over the seed, rebuilt bit-identically by any
//! constructor call with the same configuration), or rematerialized
//! row-by-row when the config selects that backend.
//!
//! Unlike images, texts vary in length: [`NgramTextEncoder`] overrides
//! [`Encoder::check_features`] to accept any sample from `order` to
//! `max_len` bytes, and the trait's running-total binarization
//! (TOB = n-gram count / 2) gives every length the correct threshold.

use std::borrow::Cow;

use super::{check_acc, Encoder, EncoderProfile, MaskBlock};
use crate::accumulator::BitSliceAccumulator;
use crate::error::HdcError;
use crate::hypervector::words_for_dim;
use crate::item_memory::{ItemMemory, MemoryBackend, RowRecipe};

/// Symbols in the item memory: `a`–`z` case-folded, plus one catch-all
/// index for space/digits/punctuation.
pub const TEXT_ALPHABET: usize = 27;

/// Map a byte to its symbol index (ASCII case-folded letters, catch-all
/// otherwise).
#[must_use]
pub fn symbol_index(byte: u8) -> usize {
    match byte {
        b'a'..=b'z' => (byte - b'a') as usize,
        b'A'..=b'Z' => (byte - b'A') as usize,
        _ => TEXT_ALPHABET - 1,
    }
}

/// Configuration for [`NgramTextEncoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NgramTextConfig {
    /// Hypervector dimension D.
    pub dim: u32,
    /// n-gram order (3 reproduces the SNIPPETS.md reference tables).
    pub order: usize,
    /// Maximum accepted text length in bytes; also the nominal
    /// [`Encoder::features`] count used by the cost profile.
    pub max_len: usize,
    /// Seed the symbol item memory rematerializes from.
    pub seed: u64,
    /// Memory backend for the rotated symbol table.
    pub backend: MemoryBackend,
}

impl NgramTextConfig {
    /// Reference configuration: the given dimension, 3-grams, texts up
    /// to 256 bytes, a fixed published seed, resident tables.
    #[must_use]
    pub fn new(dim: u32) -> Self {
        NgramTextConfig {
            dim,
            order: 3,
            max_len: 256,
            seed: 0x7E_C5_1D_u64,
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
        if self.order == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "n-gram order must be nonzero".into(),
            });
        }
        if self.max_len < self.order {
            return Err(HdcError::InvalidConfig {
                reason: "max_len must be at least the n-gram order".into(),
            });
        }
        Ok(())
    }
}

/// Rotate-and-bind n-gram encoder over the 27-symbol alphabet.
#[derive(Debug, Clone)]
pub struct NgramTextEncoder {
    config: NgramTextConfig,
    /// Rotated symbol table, row `k·27 + s = ρ^{order-1-k}(S_s)`, so an
    /// n-gram is the XOR of `order` rows. An [`ItemMemory`] over
    /// [`RowRecipe::RotatedIid`] on the configured backend.
    rotated: ItemMemory,
    words: usize,
}

impl NgramTextEncoder {
    /// Build the per-position rotated symbol table from the configured
    /// seed, on the configured backend.
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidConfig`] for degenerate configurations.
    pub fn new(config: NgramTextConfig) -> Result<Self, HdcError> {
        config.validate()?;
        let rows =
            u32::try_from(config.order * TEXT_ALPHABET).map_err(|_| HdcError::InvalidConfig {
                reason: "n-gram order exceeds the item-memory row limit".into(),
            })?;
        let rotated = ItemMemory::new(
            "rotated-symbol",
            config.dim,
            rows,
            RowRecipe::RotatedIid {
                seed: config.seed,
                symbols: TEXT_ALPHABET as u32,
            },
            config.backend,
        )?;
        Ok(NgramTextEncoder {
            words: words_for_dim(config.dim),
            config,
            rotated,
        })
    }

    /// The encoder configuration.
    #[must_use]
    pub fn config(&self) -> &NgramTextConfig {
        &self.config
    }

    /// The rotated symbol item memory (row `position·27 + symbol`).
    #[must_use]
    pub fn symbol_memory(&self) -> &ItemMemory {
        &self.rotated
    }

    /// The n-gram order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.config.order
    }

    /// How many n-grams a text of `len` bytes contributes.
    #[must_use]
    pub fn ngrams_in(&self, len: usize) -> usize {
        len.saturating_sub(self.config.order - 1)
    }
}

impl Encoder for NgramTextEncoder {
    fn dim(&self) -> u32 {
        self.config.dim
    }

    fn features(&self) -> usize {
        self.config.max_len
    }

    fn check_features(&self, input: &[u8]) -> Result<(), HdcError> {
        if input.len() < self.config.order || input.len() > self.config.max_len {
            return Err(HdcError::FeatureCountOutOfRange {
                min: self.config.order,
                max: self.config.max_len,
                got: input.len(),
            });
        }
        Ok(())
    }

    fn accumulate(&self, input: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError> {
        self.check_features(input)?;
        check_acc(self.config.dim, acc)?;
        let n = self.config.order;
        // The bound n-gram masks, staged a block at a time.
        let mut staged = MaskBlock::new(self.words);
        let mut row_buf = Vec::new();
        let symbols: Vec<usize> = input.iter().map(|&b| symbol_index(b)).collect();
        for gram in symbols.windows(n) {
            // XOR of tail-clear operands stays tail-clear.
            let mask = staged.next_row(acc);
            mask.fill(0);
            for (k, &s) in gram.iter().enumerate() {
                let row = self
                    .rotated
                    .row((k * TEXT_ALPHABET + s) as u32, &mut row_buf)?;
                for (slot, &rw) in mask.iter_mut().zip(row) {
                    *slot ^= rw;
                }
            }
        }
        staged.flush(acc);
        Ok(())
    }

    fn profile(&self) -> EncoderProfile {
        let d = u64::from(self.config.dim);
        let grams = self.ngrams_in(self.config.max_len) as u64;
        let order = self.config.order as u64;
        EncoderProfile {
            name: Cow::Owned(format!(
                "ngram-text(n={},max={})",
                self.config.order, self.config.max_len
            )),
            features: self.config.max_len,
            dim: self.config.dim,
            comparisons_per_sample: 0,
            // Each n-gram XORs `order` rotated rows into the scratch mask.
            bind_bitops_per_sample: grams * order * d,
            accumulate_ops_per_sample: grams * d,
            // Symbol memory rematerializes from the seed; nothing is
            // redrawn per iteration.
            rng_draws_per_iteration: 0,
            // The resident rotated view (the seed alone is the
            // persistent state).
            table_bytes: order * TEXT_ALPHABET as u64 * d / 8,
            working_bytes: d * 4,
            backend: self.rotated.backend(),
            resident_bytes: self.rotated.resident_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NgramTextEncoder {
        NgramTextEncoder::new(NgramTextConfig {
            order: 3,
            max_len: 64,
            seed: 42,
            ..NgramTextConfig::new(512)
        })
        .unwrap()
    }

    #[test]
    fn rematerialized_backend_is_bit_identical() {
        let res = tiny();
        let rem = NgramTextEncoder::new(res.config().clone().rematerialized()).unwrap();
        for text in [&b"hello world"[..], b"the quick brown fox", b"abc"] {
            assert_eq!(res.encode(text).unwrap(), rem.encode(text).unwrap());
        }
        assert!(rem.profile().resident_bytes < res.profile().resident_bytes);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(NgramTextEncoder::new(NgramTextConfig {
            dim: 0,
            ..NgramTextConfig::new(64)
        })
        .is_err());
        assert!(NgramTextEncoder::new(NgramTextConfig {
            order: 0,
            ..NgramTextConfig::new(64)
        })
        .is_err());
        assert!(NgramTextEncoder::new(NgramTextConfig {
            order: 5,
            max_len: 4,
            ..NgramTextConfig::new(64)
        })
        .is_err());
    }

    #[test]
    fn symbol_index_case_folds_and_catches_all() {
        assert_eq!(symbol_index(b'a'), 0);
        assert_eq!(symbol_index(b'A'), 0);
        assert_eq!(symbol_index(b'z'), 25);
        assert_eq!(symbol_index(b' '), 26);
        assert_eq!(symbol_index(b'7'), 26);
        assert_eq!(symbol_index(0xC3), 26);
    }

    #[test]
    fn variable_lengths_within_range_are_accepted() {
        let enc = tiny();
        assert!(enc.check_features(b"abc").is_ok());
        assert!(enc.check_features(&[b'x'; 64]).is_ok());
        assert!(matches!(
            enc.check_features(b"ab"),
            Err(HdcError::FeatureCountOutOfRange {
                min: 3,
                max: 64,
                got: 2
            })
        ));
        assert!(enc.check_features(&[b'x'; 65]).is_err());
    }

    #[test]
    fn total_equals_ngram_count() {
        let enc = tiny();
        let mut acc = BitSliceAccumulator::new(512);
        enc.accumulate(b"hello world", &mut acc).unwrap();
        assert_eq!(acc.total(), 9); // 11 - 3 + 1
        assert_eq!(enc.ngrams_in(11), 9);
    }

    #[test]
    fn rematerializes_bit_identically_from_seed() {
        let a = tiny();
        let b = tiny();
        let text = b"the quick brown fox";
        assert_eq!(a.encode(text).unwrap(), b.encode(text).unwrap());
        // A different seed yields a different item memory.
        let c = NgramTextEncoder::new(NgramTextConfig {
            seed: 43,
            ..a.config().clone()
        })
        .unwrap();
        assert_ne!(a.encode(text).unwrap(), c.encode(text).unwrap());
    }

    #[test]
    fn case_folding_makes_encodings_equal() {
        let enc = tiny();
        assert_eq!(
            enc.encode(b"Hello World").unwrap(),
            enc.encode(b"hello world").unwrap()
        );
    }

    #[test]
    fn ngram_is_order_sensitive() {
        let enc = tiny();
        // Same multiset of characters, different order: the rotation
        // binding must distinguish them.
        assert_ne!(enc.encode(b"abcd").unwrap(), enc.encode(b"dcba").unwrap());
    }

    #[test]
    fn accumulate_matches_manual_rotate_bind_bundle() {
        use crate::hypervector::Hypervector;
        use uhd_lowdisc::rng::SplitMix64;

        let enc = NgramTextEncoder::new(NgramTextConfig {
            order: 2,
            max_len: 16,
            seed: 7,
            ..NgramTextConfig::new(128)
        })
        .unwrap();
        let text = b"abca";
        let mut acc = BitSliceAccumulator::new(128);
        enc.accumulate(text, &mut acc).unwrap();

        // Rebuild the symbol memory independently — the i.i.d. recipe
        // draws symbols sequentially from one SplitMix64 stream — and
        // bundle by hand.
        let mut rng = SplitMix64::new(7);
        let symbols: Vec<Hypervector> = (0..TEXT_ALPHABET)
            .map(|_| Hypervector::random(128, &mut rng))
            .collect();
        let mut reference = BitSliceAccumulator::new(128);
        for pair in text.windows(2) {
            let a = symbols[symbol_index(pair[0])].rotate(1);
            let b = &symbols[symbol_index(pair[1])];
            let mask: Vec<u64> = a
                .words()
                .iter()
                .zip(b.words())
                .map(|(x, y)| x ^ y)
                .collect();
            reference.add_mask(&mask);
        }
        assert_eq!(acc.counts(), reference.counts());
    }

    #[test]
    fn profile_reports_dynamic_name_and_counts() {
        let enc = tiny();
        let p = enc.profile();
        assert_eq!(p.name, "ngram-text(n=3,max=64)");
        assert_eq!(p.features, 64);
        assert_eq!(p.accumulate_ops_per_sample, 62 * 512);
        assert_eq!(p.rng_draws_per_iteration, 0);
    }

    #[test]
    fn distinct_texts_decorrelate() {
        let enc = NgramTextEncoder::new(NgramTextConfig::new(4096)).unwrap();
        let a = enc.encode(b"aaaaaaaaaaaaaaaaaaaa").unwrap();
        let b = enc.encode(b"zzzzzzzzzzzzzzzzzzzz").unwrap();
        let sim = crate::similarity::cosine(&a, &b).unwrap();
        assert!(sim.abs() < 0.2, "unrelated texts should decorrelate: {sim}");
    }
}

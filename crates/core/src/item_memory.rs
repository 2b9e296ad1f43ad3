//! Item memory: the tables of hypervectors every encoder looks rows up in.
//!
//! Classic HDC implementations keep their position/level/symbol
//! hypervectors *resident* — materialized row by row at construction and
//! held on the heap for the encoder's lifetime. Following Schmuck,
//! Benini & Rahimi's rematerialization result, none of that state is
//! fundamental: every table this codebase uses is a pure function of a
//! small recipe (a `u64` seed or a low-discrepancy family), so any row
//! can be regenerated on demand, bit-identically, in O(D) work and O(1)
//! persistent bytes.
//!
//! [`ItemMemory`] makes that choice explicit. A table is a `(dim, rows,
//! recipe)` triple plus a [`MemoryBackend`]:
//!
//! * [`MemoryBackend::Resident`] — materialize all rows up front into
//!   one contiguous table (fastest lookups);
//! * [`MemoryBackend::Rematerialized`] — keep the recipe and store only
//!   a small prefix of rows; derive every other row into caller scratch
//!   on demand.
//!
//! The backends are interchangeable because every row, stored or
//! derived, comes from one generator per [`RowRecipe`]: it writes any
//! consecutive range of rows, drawing the recipe's shared state (a
//! stream position, a level plan, a pixel's quantized column) once per
//! call. The resident table is the range of all rows, the stored prefix
//! the first `cached_rows`, and a rematerialized lookup a range of one.
//! The contract, enforced by tests here and property tests in the
//! workspace: any range equals those rows of the full table. For
//! seed-driven recipes this leans on the seekable SplitMix64 stream
//! ([`uhd_lowdisc::rng::SeekableSource`]): row `r` owns draws
//! `[r·D, (r+1)·D)`, which a range reaches by an O(1) seek.

use crate::encoder::level::{level_rows, LevelScheme};
use crate::encoder::uhd::LdFamily;
use crate::error::HdcError;
use crate::hypervector::{fill_random_words, rotate_or_into, words_for_dim, Hypervector};
use uhd_lowdisc::quantize::Quantizer;
use uhd_lowdisc::rng::{SeekableSource, SplitMix64};

/// Derive a sub-table seed from a master seed and a role tag, using the
/// same golden-ratio keyed mixing the per-pixel pseudo streams use.
/// Encoders with one published seed but several tables (e.g. tabular
/// keys + levels) give each table a distinct tag so the streams
/// decorrelate.
#[must_use]
pub fn derive_seed(master: u64, tag: u64) -> u64 {
    master ^ tag.wrapping_mul(SplitMix64::GAMMA)
}

/// How an [`ItemMemory`] stores (or does not store) its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryBackend {
    /// All rows materialized at construction and held resident — the
    /// classic table, O(rows · D) heap, O(1) lookups.
    #[default]
    Resident,
    /// Rows regenerated on demand from the recipe — O(seed) persistent
    /// heap plus a bounded stored prefix, O(D) work per other lookup.
    Rematerialized {
        /// Rows `0..cached_rows` are materialized at construction and
        /// served stored; all other rows derive into caller scratch on
        /// every lookup. `0` stores no row.
        cached_rows: u32,
    },
}

impl MemoryBackend {
    /// Default number of rows the rematerialized backend stores.
    pub const DEFAULT_CACHED_ROWS: u32 = 64;

    /// The rematerialized backend with the default stored prefix.
    #[must_use]
    pub fn rematerialized() -> Self {
        MemoryBackend::Rematerialized {
            cached_rows: Self::DEFAULT_CACHED_ROWS,
        }
    }
}

/// The pure function a table's rows are derived from.
///
/// Every variant satisfies the rematerialization contract: any range of
/// consecutive rows, a single row included, equals those rows of the
/// full table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowRecipe {
    /// Independent random rows. Row `r` consumes SplitMix64 draws
    /// `[r·D, (r+1)·D)` of the stream seeded with `seed`, under the
    /// [`Hypervector::random`] comparison rule.
    Iid {
        /// Master seed of the per-table stream.
        seed: u64,
    },
    /// Rotated views over `symbols` i.i.d. base rows — the n-gram text
    /// layout. With `order = rows / symbols`, row `k·symbols + s` is
    /// `ρ^{order−1−k}(S_s)` where `S_s` is i.i.d. row `s` under `seed`.
    RotatedIid {
        /// Master seed of the symbol stream.
        seed: u64,
        /// Base symbols per rotation block (e.g. 27 for text).
        symbols: u32,
    },
    /// Correlated level hypervectors: row `k` is level `k` of a
    /// `rows`-level chain (see [`crate::encoder::level`]). The chain's
    /// shared randomness (base + flip order, or the threshold draw)
    /// comes from the SplitMix64 stream seeded with `seed`.
    LevelChain {
        /// Master seed of the chain's stream.
        seed: u64,
        /// Which level construction the chain uses.
        scheme: LevelScheme,
    },
    /// uHD threshold bit-planes as disjoint rows over the quantized
    /// scalars `q_j = Q(S_p[j])` of the family's pixel-`p` sequence:
    /// row `p·levels` is the dark mask `[q_j = 0]`, and row
    /// `p·levels + L` for `L ≥ 1` is the delta `[1 ≤ q_j ≤ L]`. The
    /// level-`L` comparator mask `[q_j ≤ L]` is the OR of the dark row
    /// and the delta row, so an encoder bundles the dark rows once and
    /// each lit pixel's delta row on top.
    ThresholdPlanes {
        /// Low-discrepancy family supplying the per-pixel sequences.
        family: LdFamily,
        /// Quantization levels ξ (rows per pixel).
        levels: u32,
    },
}

impl RowRecipe {
    /// Structural validation against a table shape (cheap; does not
    /// touch the LD substrate).
    fn validate(&self, dim: u32, rows: u32) -> Result<(), HdcError> {
        if dim == 0 {
            return Err(HdcError::DimensionZero);
        }
        if rows == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "item memory needs at least one row".into(),
            });
        }
        match *self {
            RowRecipe::Iid { .. } => Ok(()),
            RowRecipe::RotatedIid { symbols, .. } => {
                if symbols == 0 || !rows.is_multiple_of(symbols) {
                    return Err(HdcError::InvalidConfig {
                        reason: format!(
                            "rotated table rows ({rows}) must be a nonzero multiple of \
                             the symbol count ({symbols})"
                        ),
                    });
                }
                Ok(())
            }
            RowRecipe::LevelChain { .. } => {
                if rows < 2 {
                    return Err(HdcError::InvalidConfig {
                        reason: "need at least 2 levels".into(),
                    });
                }
                Ok(())
            }
            RowRecipe::ThresholdPlanes { levels, .. } => {
                if levels < 2 {
                    return Err(HdcError::InvalidConfig {
                        reason: "need at least 2 levels".into(),
                    });
                }
                // Quantized columns are bytes: M ≤ 8 bits.
                if levels > 256 {
                    return Err(HdcError::InvalidConfig {
                        reason: format!("plane tables hold at most 256 levels, got {levels}"),
                    });
                }
                if !rows.is_multiple_of(levels) {
                    return Err(HdcError::InvalidConfig {
                        reason: format!(
                            "plane table rows ({rows}) must be a multiple of levels ({levels})"
                        ),
                    });
                }
                Ok(())
            }
        }
    }

    /// Write rows `first..first + n` of a `(dim, rows)` table into `out`,
    /// row-major with `words_for_dim(dim)` words per row
    /// (`n = out.len() / words_for_dim(dim)`). Every recipe writes only
    /// bits below `dim`.
    fn rows_into(&self, dim: u32, rows: u32, first: u32, out: &mut [u64]) -> Result<(), HdcError> {
        let words = words_for_dim(dim);
        let n = (out.len() / words) as u32;
        debug_assert_eq!(out.len(), n as usize * words);
        debug_assert!(first + n <= rows);
        out.fill(0);
        if n == 0 {
            return Ok(());
        }
        match *self {
            RowRecipe::Iid { seed } => {
                let mut src = SplitMix64::new(seed);
                src.seek_to(u64::from(first) * u64::from(dim));
                for row in out.chunks_exact_mut(words) {
                    fill_random_words(dim, 0, &mut src, row);
                }
            }
            RowRecipe::RotatedIid { seed, symbols } => {
                let order = rows / symbols;
                let mut src = SplitMix64::new(seed);
                // The range's first row of each symbol is drawn, its
                // draws landing straight at their rotated positions.
                let drawn = symbols.min(n) as usize;
                for (r, row) in (first..).zip(out.chunks_exact_mut(words)).take(drawn) {
                    src.seek_to(u64::from(r % symbols) * u64::from(dim));
                    fill_random_words(dim, (order - 1 - r / symbols) % dim, &mut src, row);
                }
                // Row r + symbols is row r rotated back by one.
                let symbols = symbols as usize;
                for i in symbols..n as usize {
                    let (done, rest) = out.split_at_mut(i * words);
                    let earlier = &done[(i - symbols) * words..][..words];
                    rotate_or_into(&mut rest[..words], earlier, dim, dim - 1);
                }
            }
            RowRecipe::LevelChain { seed, scheme } => {
                level_rows(dim, rows, scheme, &mut SplitMix64::new(seed), first, out);
            }
            RowRecipe::ThresholdPlanes { family, levels } => {
                let quantizer = Quantizer::new(levels)?;
                let mut column = Vec::new();
                let end = first + n;
                let mut row = first;
                while row < end {
                    // Levels a..=b of this pixel fall in the range.
                    let pixel = row / levels;
                    let (a, b) = (row % levels, (end - pixel * levels).min(levels) - 1);
                    let planes =
                        &mut out[(row - first) as usize * words..][..(b - a + 1) as usize * words];
                    family.quantized_column(
                        pixel as usize,
                        dim as usize,
                        quantizer,
                        &mut column,
                    )?;
                    // Scatter: a lit dimension goes to the first row of
                    // the range that holds it (its own level, or the
                    // range's first delta row), a dark one to the dark
                    // row when that is in range. Then prefix-OR upward
                    // from the first delta row, so row L ≥ 1 covers
                    // levels 1..=L and the dark row stays alone.
                    let lit_from = a.max(1);
                    for (j, &q) in column.iter().enumerate() {
                        let level = if q == 0 { 0 } else { lit_from.max(q.into()) };
                        if (a..=b).contains(&level) {
                            planes[(level - a) as usize * words + j / 64] |= 1u64 << (j % 64);
                        }
                    }
                    for w in (lit_from + 1 - a) as usize * words..planes.len() {
                        planes[w] |= planes[w - words];
                    }
                    row = pixel * levels + b + 1;
                }
            }
        }
        Ok(())
    }
}

/// A table of `rows` hypervectors of dimension `dim`, resident or
/// rematerialized.
///
/// Stored rows live in one row-major table of `words` packed words per
/// row: every row on the resident backend, the first `cached_rows` on
/// the rematerialized one. Lookups go through [`ItemMemory::row`], which
/// borrows a stored row from the table or derives any other row into
/// caller-provided scratch — the hot path never copies stored data.
#[derive(Debug, Clone)]
pub struct ItemMemory {
    /// What this table holds, for error messages ("position", "level", …).
    what: &'static str,
    dim: u32,
    rows: u32,
    words: usize,
    backend: MemoryBackend,
    /// `None` only for tables built from external rows, which store
    /// every row.
    recipe: Option<RowRecipe>,
    /// Rows `0..table.len() / words`, row-major.
    table: Vec<u64>,
}

impl ItemMemory {
    /// Build a table from a recipe on the chosen backend.
    ///
    /// Both backends validate eagerly: the rematerialized path probes
    /// the last row once so substrate errors (e.g. an LD family out of
    /// dimensions) surface at construction, exactly like the resident
    /// path. Stored rows are materialized here, never on lookup.
    ///
    /// # Errors
    ///
    /// * [`HdcError::DimensionZero`] / [`HdcError::InvalidConfig`] for
    ///   degenerate shapes.
    /// * [`HdcError::LowDisc`] if the recipe's LD family cannot supply
    ///   enough dimensions.
    pub fn new(
        what: &'static str,
        dim: u32,
        rows: u32,
        recipe: RowRecipe,
        backend: MemoryBackend,
    ) -> Result<Self, HdcError> {
        recipe.validate(dim, rows)?;
        let words = words_for_dim(dim);
        let stored = match backend {
            MemoryBackend::Resident => rows,
            MemoryBackend::Rematerialized { cached_rows } => {
                recipe.rows_into(dim, rows, rows - 1, &mut vec![0u64; words])?;
                cached_rows.min(rows)
            }
        };
        let mut table = vec![0u64; stored as usize * words];
        recipe.rows_into(dim, rows, 0, &mut table)?;
        Ok(ItemMemory {
            what,
            dim,
            rows,
            words,
            backend,
            recipe: Some(recipe),
            table,
        })
    }

    /// Pack externally materialized rows (e.g. drawn from a caller's
    /// RNG stream) into a resident table. Such a table has no recipe and
    /// cannot be rematerialized.
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidConfig`] for an empty table,
    /// [`HdcError::DimensionMismatch`] if rows disagree on dimension.
    pub fn from_rows(what: &'static str, rows: &[Hypervector]) -> Result<Self, HdcError> {
        let Some(first) = rows.first() else {
            return Err(HdcError::InvalidConfig {
                reason: "item memory needs at least one row".into(),
            });
        };
        let dim = first.dim();
        let words = words_for_dim(dim);
        let mut table = Vec::with_capacity(rows.len() * words);
        for r in rows {
            if r.dim() != dim {
                return Err(HdcError::DimensionMismatch {
                    left: dim,
                    right: r.dim(),
                });
            }
            table.extend_from_slice(r.words());
        }
        Ok(ItemMemory {
            what,
            dim,
            rows: rows.len() as u32,
            words,
            backend: MemoryBackend::Resident,
            recipe: None,
            table,
        })
    }

    /// Hypervector dimension D.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of rows in the table.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Packed words per row.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The backend this table runs on.
    #[must_use]
    pub fn backend(&self) -> MemoryBackend {
        self.backend
    }

    /// Every row's packed words, row-major (row `r` is
    /// `[r·words(), (r+1)·words())`), when every row is stored: always
    /// on the resident backend, and on the rematerialized one only when
    /// `cached_rows ≥ rows()`.
    #[must_use]
    pub fn table(&self) -> Option<&[u64]> {
        (self.table.len() == self.rows as usize * self.words).then_some(&self.table)
    }

    /// Heap bytes this table pins for its lifetime: its stored rows.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.table.len() as u64 * 8
    }

    /// The packed words of row `row`.
    ///
    /// A stored row borrows from the table; any other row is derived
    /// into `scratch` (resized as needed) and borrowed from there.
    /// Callers that loop should reuse one scratch buffer.
    ///
    /// # Errors
    ///
    /// * [`HdcError::IndexOutOfRange`] if `row >= rows()`.
    pub fn row<'a>(&'a self, row: u32, scratch: &'a mut Vec<u64>) -> Result<&'a [u64], HdcError> {
        if row >= self.rows {
            return Err(HdcError::IndexOutOfRange {
                what: self.what,
                index: row as usize,
                len: self.rows as usize,
            });
        }
        let start = row as usize * self.words;
        match self.table.get(start..start + self.words) {
            Some(stored) => Ok(stored),
            None => self.derive_into_scratch(row, scratch),
        }
    }

    /// Derive row `row` (past the stored prefix) into `scratch`. Kept
    /// out of line so a stored-row lookup stays a few instructions.
    #[inline(never)]
    fn derive_into_scratch<'a>(
        &self,
        row: u32,
        scratch: &'a mut Vec<u64>,
    ) -> Result<&'a [u64], HdcError> {
        scratch.resize(self.words, 0);
        let recipe = self
            .recipe
            .expect("tables without a recipe store every row");
        recipe.rows_into(self.dim, self.rows, row, scratch)?;
        Ok(&scratch[..])
    }

    /// Row `row` as an owned [`Hypervector`] (always allocates;
    /// convenience for tests and tools).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ItemMemory::row`].
    pub fn row_hypervector(&self, row: u32) -> Result<Hypervector, HdcError> {
        let mut scratch = Vec::new();
        let words = self.row(row, &mut scratch)?.to_vec();
        Hypervector::from_words(words, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::level::generate_level_hypervectors;
    use proptest::prelude::*;
    use uhd_lowdisc::rng::Xoshiro256StarStar;

    fn recipes() -> Vec<(RowRecipe, u32)> {
        vec![
            (RowRecipe::Iid { seed: 11 }, 9),
            (
                RowRecipe::RotatedIid {
                    seed: 12,
                    symbols: 5,
                },
                15,
            ),
            (
                RowRecipe::LevelChain {
                    seed: 13,
                    scheme: LevelScheme::CumulativeFlip,
                },
                8,
            ),
            (
                RowRecipe::LevelChain {
                    seed: 13,
                    scheme: LevelScheme::ThresholdDraw,
                },
                8,
            ),
            (
                RowRecipe::ThresholdPlanes {
                    family: LdFamily::sobol(),
                    levels: 4,
                },
                3 * 4,
            ),
        ]
    }

    /// FNV-1a over packed words: a 64-bit fingerprint of a table.
    fn digest(words: &[u64]) -> u64 {
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    const GOLDEN_DIMS: [u32; 4] = [1, 65, 130, 2048];

    /// The seeded recipes of `recipes()`, then 16-level planes over
    /// three pixels for every LD family.
    fn golden_recipes() -> Vec<(RowRecipe, u32)> {
        let families = [
            LdFamily::sobol(),
            LdFamily::sobol_aligned(),
            LdFamily::Halton,
            LdFamily::R2,
            LdFamily::Pseudo { seed: 5 },
        ];
        let planes =
            families.map(|family| (RowRecipe::ThresholdPlanes { family, levels: 16 }, 3 * 16));
        recipes().into_iter().take(4).chain(planes).collect()
    }

    /// Full-table digests at `GOLDEN_DIMS`, in `golden_recipes` order,
    /// recorded from the per-recipe row builders this generator replaced.
    const GOLDEN_TABLES: [[u64; 4]; 9] = [
        [
            0x6d8f8abb227d1062,
            0xab8bb0bc55be7cc3,
            0x9db6bef77f8a9b4d,
            0xe12d73e3f7e9f6f4,
        ],
        [
            0xb5108e737dcefc3a,
            0xe72becddbf37b4ac,
            0xd40bb90f79b3ec73,
            0x43e92630ad59dc7c,
        ],
        [
            0xa8c7f832281a39c5,
            0x732f66879424f402,
            0x1469f4b5624c74ed,
            0x1c855e1a06d25b38,
        ],
        [
            0xa8c493322817584f,
            0x3d0dbee9283f90dd,
            0xed52a221d43a257f,
            0x16aa75b3c6d2ac50,
        ],
        [
            0xf9520f0bf531d1e4,
            0xca0cd54c460fc161,
            0x379ee8e4a2682285,
            0x5898ba584a7c928e,
        ],
        [
            0x0dfe86dd58928664,
            0x8bbcd99f6dce2a23,
            0xc05fd04c4f15a9d9,
            0x55c8016003e20b8a,
        ],
        [
            0x0dfe86dd58928664,
            0xc1bff411c53d7584,
            0x1a3892ef4076f121,
            0x0c7475897274d44a,
        ],
        [
            0xd279ef3c46c4745a,
            0x5049e563edbdeb94,
            0x22b373b041639442,
            0x35e11f03465c901a,
        ],
        [
            0x86cbb726c5dc53d1,
            0x0b2b1fc091dd14a5,
            0xc97bb4262030aac7,
            0x533348e6bac29f00,
        ],
    ];

    /// `generate_level_hypervectors(dim, 8, scheme, Xoshiro256StarStar::seeded(21))`
    /// digests for `CumulativeFlip` and `ThresholdDraw`, recorded likewise.
    const GOLDEN_CHAINS: [[u64; 4]; 2] = [
        [
            0xe7e395a2ad0bc74d,
            0xedc60f471ca5cce1,
            0xf3a16997adf7e90b,
            0xe9faae1fef306a69,
        ],
        [
            0xe7e395a2ad0bc74d,
            0xc32dab9c32e2c2b9,
            0x9f567a65002298a1,
            0xd78f451c03b6ac99,
        ],
    ];

    #[test]
    fn golden_table_digests() {
        for ((recipe, rows), golden) in golden_recipes().into_iter().zip(GOLDEN_TABLES) {
            for (dim, want) in GOLDEN_DIMS.into_iter().zip(golden) {
                let im = ItemMemory::new("t", dim, rows, recipe, MemoryBackend::Resident).unwrap();
                let got = digest(im.table().unwrap());
                assert_eq!(got, want, "{recipe:?} dim {dim}: {got:#018x}");
            }
        }
        let schemes = [LevelScheme::CumulativeFlip, LevelScheme::ThresholdDraw];
        for (scheme, golden) in schemes.into_iter().zip(GOLDEN_CHAINS) {
            for (dim, want) in GOLDEN_DIMS.into_iter().zip(golden) {
                let mut rng = Xoshiro256StarStar::seeded(21);
                let chain = generate_level_hypervectors(dim, 8, scheme, &mut rng);
                let words: Vec<u64> = chain
                    .iter()
                    .flat_map(|hv| hv.words().iter().copied())
                    .collect();
                let got = digest(&words);
                assert_eq!(got, want, "{scheme:?} chain dim {dim}: {got:#018x}");
            }
        }
    }

    #[test]
    fn fill_matches_hypervector_random() {
        for dim in [1u32, 63, 64, 65, 127, 128, 300] {
            let mut a = Xoshiro256StarStar::seeded(99);
            let mut b = Xoshiro256StarStar::seeded(99);
            let hv = Hypervector::random(dim, &mut a);
            let mut words = vec![0u64; words_for_dim(dim)];
            fill_random_words(dim, 0, &mut b, &mut words);
            assert_eq!(hv.words(), &words[..], "dim {dim}");
            // A shifted fill is the same draws rotated.
            for shift in [1, 63, 64, dim - 1, dim, dim + 5] {
                let mut b = Xoshiro256StarStar::seeded(99);
                words.fill(0);
                fill_random_words(dim, shift, &mut b, &mut words);
                assert_eq!(
                    hv.rotate(shift).words(),
                    &words[..],
                    "dim {dim} shift {shift}"
                );
            }
        }
    }

    #[test]
    fn rematerialized_rows_equal_resident_rows() {
        for (recipe, rows) in recipes() {
            for dim in [1u32, 65, 130] {
                let res = ItemMemory::new("t", dim, rows, recipe, MemoryBackend::Resident).unwrap();
                let words = res.words();
                assert_eq!(res.resident_bytes(), u64::from(rows) * words as u64 * 8);
                assert_eq!(res.table().map(<[u64]>::len), Some(rows as usize * words));
                for cached_rows in [0, 2, rows] {
                    let rem = ItemMemory::new(
                        "t",
                        dim,
                        rows,
                        recipe,
                        MemoryBackend::Rematerialized { cached_rows },
                    )
                    .unwrap();
                    let stored = cached_rows.min(rows);
                    let ctx = format!("{recipe:?} dim {dim} cached_rows {cached_rows}");
                    assert_eq!(
                        rem.resident_bytes(),
                        u64::from(stored) * words as u64 * 8,
                        "{ctx}"
                    );
                    assert_eq!(rem.table().is_some(), stored == rows, "{ctx}");
                    let mut res_scratch = Vec::new();
                    for r in 0..rows {
                        let mut scratch = Vec::new();
                        let got = rem.row(r, &mut scratch).unwrap().to_vec();
                        // Stored rows borrow from the table; the rest
                        // derive into scratch.
                        assert_eq!(scratch.is_empty(), r < stored, "{ctx} row {r}");
                        assert_eq!(got, res.row(r, &mut res_scratch).unwrap(), "{ctx} row {r}");
                    }
                    assert!(res_scratch.is_empty(), "resident rows never derive");
                }
            }
        }
    }

    #[test]
    fn cached_and_scratch_paths_agree() {
        let recipe = RowRecipe::Iid { seed: 7 };
        let all_cached = ItemMemory::new(
            "t",
            256,
            8,
            recipe,
            MemoryBackend::Rematerialized { cached_rows: 8 },
        )
        .unwrap();
        let none_cached = ItemMemory::new(
            "t",
            256,
            8,
            recipe,
            MemoryBackend::Rematerialized { cached_rows: 0 },
        )
        .unwrap();
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        for r in 0..8 {
            assert_eq!(
                all_cached.row(r, &mut s1).unwrap(),
                none_cached.row(r, &mut s2).unwrap()
            );
        }
        assert!(s1.is_empty(), "cached rows must not touch scratch");
        assert_eq!(s2.len(), all_cached.words());
    }

    #[test]
    fn out_of_range_row_errors() {
        let im = ItemMemory::new(
            "level",
            64,
            4,
            RowRecipe::Iid { seed: 1 },
            MemoryBackend::Resident,
        )
        .unwrap();
        let mut scratch = Vec::new();
        assert!(matches!(
            im.row(4, &mut scratch),
            Err(HdcError::IndexOutOfRange {
                what: "level",
                index: 4,
                len: 4
            })
        ));
    }

    #[test]
    fn rejects_degenerate_shapes() {
        let iid = RowRecipe::Iid { seed: 0 };
        assert!(ItemMemory::new("t", 0, 4, iid, MemoryBackend::Resident).is_err());
        assert!(ItemMemory::new("t", 64, 0, iid, MemoryBackend::Resident).is_err());
        let rot = RowRecipe::RotatedIid {
            seed: 0,
            symbols: 5,
        };
        assert!(ItemMemory::new("t", 64, 7, rot, MemoryBackend::Resident).is_err());
        let chain = RowRecipe::LevelChain {
            seed: 0,
            scheme: LevelScheme::CumulativeFlip,
        };
        assert!(ItemMemory::new("t", 64, 1, chain, MemoryBackend::Resident).is_err());
        let planes = RowRecipe::ThresholdPlanes {
            family: LdFamily::sobol(),
            levels: 4,
        };
        assert!(ItemMemory::new("t", 64, 5, planes, MemoryBackend::Resident).is_err());
    }

    #[test]
    fn rematerialized_probes_substrate_errors_at_construction() {
        // Sobol runs out of dimensions past 4096 pixels; the probe of
        // the last row must surface that eagerly.
        let planes = RowRecipe::ThresholdPlanes {
            family: LdFamily::sobol(),
            levels: 2,
        };
        let err = ItemMemory::new(
            "plane",
            32,
            5000 * 2,
            planes,
            MemoryBackend::rematerialized(),
        );
        assert!(matches!(err, Err(HdcError::LowDisc(_))));
    }

    #[test]
    fn resident_bytes_reflect_backend() {
        let recipe = RowRecipe::Iid { seed: 3 };
        let res = ItemMemory::new("t", 1024, 256, recipe, MemoryBackend::Resident).unwrap();
        let rem = ItemMemory::new(
            "t",
            1024,
            256,
            recipe,
            MemoryBackend::Rematerialized { cached_rows: 4 },
        )
        .unwrap();
        assert_eq!(res.resident_bytes(), 256 * (1024 / 64) * 8);
        assert_eq!(rem.resident_bytes(), 4 * (1024 / 64) * 8);
        assert!(res.resident_bytes() >= 50 * rem.resident_bytes());
    }

    #[test]
    fn from_rows_wraps_external_tables() {
        let mut rng = Xoshiro256StarStar::seeded(5);
        let rows: Vec<Hypervector> = (0..3).map(|_| Hypervector::random(100, &mut rng)).collect();
        let im = ItemMemory::from_rows("pos", &rows).unwrap();
        assert_eq!(im.table().map(<[u64]>::len), Some(3 * 2));
        assert_eq!(im.rows(), 3);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(&im.row_hypervector(i as u32).unwrap(), r);
        }
        // Mismatched dimensions are rejected.
        let mut bad = rows;
        bad.push(Hypervector::random(101, &mut rng));
        assert!(matches!(
            ItemMemory::from_rows("pos", &bad),
            Err(HdcError::DimensionMismatch { .. })
        ));
        assert!(ItemMemory::from_rows("pos", &[]).is_err());
    }

    #[test]
    fn threshold_planes_match_uhd_scatter_prefix_or() {
        // The per-row derivation must equal the scatter + prefix-OR
        // construction (monotone masks, top level all ones).
        let im = ItemMemory::new(
            "plane",
            128,
            9 * 16,
            RowRecipe::ThresholdPlanes {
                family: LdFamily::sobol(),
                levels: 16,
            },
            MemoryBackend::rematerialized(),
        )
        .unwrap();
        // The full level-L mask is the dark row OR the delta row.
        let full = |pixel: u32, level: u32| {
            let dark = im.row_hypervector(pixel * 16).unwrap();
            if level == 0 {
                return dark;
            }
            let delta = im.row_hypervector(pixel * 16 + level).unwrap();
            let words = dark.words().iter().zip(delta.words()).map(|(a, b)| a | b);
            Hypervector::from_words(words.collect(), 128).unwrap()
        };
        for pixel in 0..9u32 {
            let dark = im.row_hypervector(pixel * 16).unwrap();
            for level in 1..16u32 {
                let lo = full(pixel, level - 1);
                let hi = full(pixel, level);
                for (a, b) in lo.words().iter().zip(hi.words()) {
                    assert_eq!(a & !b, 0, "mask must be monotone in level");
                }
                let delta = im.row_hypervector(pixel * 16 + level).unwrap();
                for (d, z) in delta.words().iter().zip(dark.words()) {
                    assert_eq!(d & z, 0, "delta rows must be disjoint from the dark row");
                }
            }
            let top = full(pixel, 15);
            assert_eq!(top.count_plus_ones(), 128);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Any range of rows, written into a dirty buffer, equals the
        /// same rows of the full table. Tables are `blocks` blocks of
        /// `levels` rows (symbol blocks, chain segments or pixels); the
        /// range starts at a block's row 0, its row 1, a row ≥ 2 or
        /// anywhere, so plane ranges start mid-pixel at `a = 0`, `a = 1`
        /// and `a ≥ 2`, chains start mid-chain, and long ranges cross
        /// pixel boundaries.
        #[test]
        fn prop_any_range_equals_those_rows_of_the_full_table(
            kind in 0u32..9,
            seed in any::<u64>(),
            dim in 1u32..300,
            levels in 2u32..20,
            blocks in 1u32..5,
            start in 0u32..4,
            pick in any::<u32>(),
            len in any::<u32>(),
        ) {
            let planes = |family| RowRecipe::ThresholdPlanes { family, levels };
            let recipe = match kind {
                0 => RowRecipe::Iid { seed },
                1 => RowRecipe::RotatedIid { seed, symbols: levels },
                2 => RowRecipe::LevelChain { seed, scheme: LevelScheme::CumulativeFlip },
                3 => RowRecipe::LevelChain { seed, scheme: LevelScheme::ThresholdDraw },
                4 => planes(LdFamily::sobol()),
                5 => planes(LdFamily::sobol_aligned()),
                6 => planes(LdFamily::Halton),
                7 => planes(LdFamily::R2),
                _ => planes(LdFamily::Pseudo { seed }),
            };
            let rows = levels * blocks;
            let block = pick % blocks;
            let within = match start {
                0 => 0,
                1 => 1,
                2 => 2 + pick % (levels - 1),
                _ => pick % levels,
            }
            .min(levels - 1);
            let first = block * levels + within;
            let n = 1 + len % (rows - first);
            let words = words_for_dim(dim);
            let mut full = vec![0u64; rows as usize * words];
            recipe.rows_into(dim, rows, 0, &mut full).unwrap();
            let mut range = vec![u64::MAX; n as usize * words];
            recipe.rows_into(dim, rows, first, &mut range).unwrap();
            prop_assert_eq!(&range[..], &full[first as usize * words..][..n as usize * words]);
        }
    }
}

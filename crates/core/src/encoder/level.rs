//! Level-hypervector generation schemes for the baseline design.
//!
//! Level hypervectors map quantized scalars (pixel intensities) to
//! hypervectors such that *closer scalars have similar hypervectors, while
//! different scalars are more uncorrelated* (paper §II). Two equivalent
//! constructions circulate in the literature and both are implemented:
//!
//! * [`LevelScheme::CumulativeFlip`] — start from a random balanced L₀ and
//!   flip `D/2 / (levels−1)` fresh random positions per step, so the last
//!   level is ~orthogonal to the first. This is the classic "bit
//!   flipping" scheme the paper cites ("Ls are typically generated by bit
//!   flipping").
//! * [`LevelScheme::ThresholdDraw`] — draw one random vector `R ∈ [0,1]^D`
//!   and set `L_k[j] = +1 iff R_j ≤ (k+1)/levels`, the comparison-with-
//!   moving-threshold formulation spelled out in the paper
//!   (`t = k·D/2^n` compared against `0 ≤ R ≤ D`).
//!
//! Either chain is one *plan* (the base and flip order, or `R`) drawn
//! from the source, plus a walk over the levels. A single generator
//! draws the plan once and walks any consecutive range of levels, so the
//! whole chain here, a resident level table and one rematerialized row
//! of [`crate::item_memory::ItemMemory`] all come from the same code.

use crate::hypervector::{fill_random_words, words_for_dim, Hypervector};
use uhd_lowdisc::rng::UniformSource;

/// Which level-hypervector construction the baseline encoder uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LevelScheme {
    /// Random base vector with cumulative random bit flips (balanced,
    /// the common choice in HDC implementations).
    #[default]
    CumulativeFlip,
    /// Single random draw compared against a per-level threshold — the
    /// formulation in the paper's §II.
    ThresholdDraw,
}

/// Generate `levels` correlated level hypervectors of dimension `dim`.
///
/// # Panics
///
/// Panics if `dim == 0` or `levels < 2`.
pub fn generate_level_hypervectors<S: UniformSource + ?Sized>(
    dim: u32,
    levels: u32,
    scheme: LevelScheme,
    source: &mut S,
) -> Vec<Hypervector> {
    assert!(dim > 0, "dimension must be nonzero");
    assert!(levels >= 2, "need at least 2 levels");
    let words = words_for_dim(dim);
    let mut table = vec![0u64; levels as usize * words];
    level_rows(dim, levels, scheme, source, 0, &mut table);
    table
        .chunks_exact(words)
        .map(|row| Hypervector::from_words(row.to_vec(), dim).expect("row is `words` long"))
        .collect()
}

/// Write levels `first..first + n` of a `levels`-level chain into the
/// zeroed row-major `out` (`n = out.len() / words_for_dim(dim)`, at
/// least 1). The plan is drawn from `source` in full whatever the range,
/// so a range equals the same rows of the whole chain.
pub(crate) fn level_rows<S: UniformSource + ?Sized>(
    dim: u32,
    levels: u32,
    scheme: LevelScheme,
    source: &mut S,
    first: u32,
    out: &mut [u64],
) {
    let words = words_for_dim(dim);
    match scheme {
        LevelScheme::CumulativeFlip => {
            fill_random_words(dim, 0, source, &mut out[..words]);
            // Fisher-Yates flip order with the provided source.
            let mut order: Vec<u32> = (0..dim).collect();
            for i in (1..order.len()).rev() {
                let j = (source.next_unit() * (i as f64 + 1.0)) as usize;
                order.swap(i, j.min(i));
            }
            // Level k carries the first D/2 · k/(levels−1) flips (spread
            // as evenly as integers allow), each position flipped at most
            // once, so level 0 and the last level are ~orthogonal.
            let flips = |k: u32| (dim / 2) as usize * k as usize / (levels - 1) as usize;
            let mut done = 0;
            for (k, row) in (first..).zip(0..out.len() / words) {
                if row > 0 {
                    out.copy_within((row - 1) * words..row * words, row * words);
                }
                for &pos in &order[done..flips(k)] {
                    out[row * words + pos as usize / 64] ^= 1u64 << (pos % 64);
                }
                done = flips(k);
            }
        }
        LevelScheme::ThresholdDraw => {
            let r: Vec<f64> = (0..dim).map(|_| source.next_unit()).collect();
            for (k, row) in (first..).zip(out.chunks_exact_mut(words)) {
                let t = f64::from(k + 1) / f64::from(levels);
                for (j, &rj) in r.iter().enumerate() {
                    if rj <= t {
                        row[j / 64] |= 1u64 << (j % 64);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine;
    use uhd_lowdisc::rng::Xoshiro256StarStar;

    #[test]
    fn cumulative_flip_level_geometry() {
        let mut rng = Xoshiro256StarStar::seeded(1);
        let dim = 4096;
        let levels = 16;
        let ls = generate_level_hypervectors(dim, levels, LevelScheme::CumulativeFlip, &mut rng);
        assert_eq!(ls.len(), 16);
        // Adjacent levels are highly similar.
        let adj = cosine(&ls[0], &ls[1]).unwrap();
        assert!(adj > 0.8, "adjacent cosine {adj}");
        // Extreme levels are ~orthogonal (D/2 flips -> cos ~ 0).
        let far = cosine(&ls[0], &ls[15]).unwrap();
        assert!(far.abs() < 0.1, "extreme cosine {far}");
        // Similarity decreases monotonically with level distance (up to
        // small noise): check a coarse ordering.
        let mid = cosine(&ls[0], &ls[8]).unwrap();
        assert!(
            adj > mid && mid > far - 0.05,
            "adj={adj} mid={mid} far={far}"
        );
    }

    #[test]
    fn threshold_draw_matches_paper_construction() {
        let mut rng = Xoshiro256StarStar::seeded(2);
        let dim = 2048;
        let levels = 8;
        let ls = generate_level_hypervectors(dim, levels, LevelScheme::ThresholdDraw, &mut rng);
        // Level k has ~ (k+1)/levels of its dimensions at +1.
        for (k, l) in ls.iter().enumerate() {
            let frac = f64::from(l.count_plus_ones()) / f64::from(dim);
            let expect = (k as f64 + 1.0) / f64::from(levels);
            assert!(
                (frac - expect).abs() < 0.06,
                "level {k}: frac {frac} vs {expect}"
            );
        }
        // Monotone: +1 sets are nested, so counts increase.
        for k in 1..ls.len() {
            assert!(ls[k].count_plus_ones() >= ls[k - 1].count_plus_ones());
        }
        // The top level is all +1 (threshold = 1.0 >= every draw).
        assert_eq!(ls[levels as usize - 1].count_plus_ones(), dim);
    }

    #[test]
    fn levels_are_deterministic_given_source() {
        let mut a = Xoshiro256StarStar::seeded(3);
        let mut b = Xoshiro256StarStar::seeded(3);
        let la = generate_level_hypervectors(512, 4, LevelScheme::CumulativeFlip, &mut a);
        let lb = generate_level_hypervectors(512, 4, LevelScheme::CumulativeFlip, &mut b);
        assert_eq!(la, lb);
    }

    #[test]
    #[should_panic(expected = "at least 2 levels")]
    fn one_level_panics() {
        let mut rng = Xoshiro256StarStar::seeded(4);
        let _ = generate_level_hypervectors(64, 1, LevelScheme::CumulativeFlip, &mut rng);
    }

    #[test]
    fn flip_counts_are_exact() {
        let mut rng = Xoshiro256StarStar::seeded(5);
        let dim = 1000;
        let levels = 11;
        let ls = generate_level_hypervectors(dim, levels, LevelScheme::CumulativeFlip, &mut rng);
        // Total Hamming distance from first to last equals D/2 exactly.
        let h = ls[0].hamming_distance(&ls[10]).unwrap();
        assert_eq!(h, dim / 2);
    }
}

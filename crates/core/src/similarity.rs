//! Similarity measures between hypervectors.
//!
//! Classification in both the baseline and uHD pipelines is a similarity
//! check between the query hypervector and each trained class hypervector;
//! the paper uses cosine similarity (§II: "In this work, we use cosine
//! similarity").

use crate::error::HdcError;
use crate::hypervector::Hypervector;

/// Cosine similarity between two bipolar hypervectors.
///
/// For ±1 vectors both norms are √D, so `cos = dot / D ∈ [−1, 1]`.
///
/// # Errors
///
/// [`HdcError::DimensionMismatch`] if dimensions differ.
///
/// # Example
///
/// ```
/// use uhd_core::hypervector::Hypervector;
/// use uhd_core::similarity::cosine;
/// let a = Hypervector::ones(256);
/// assert_eq!(cosine(&a, &a)?, 1.0);
/// assert_eq!(cosine(&a, &a.negate())?, -1.0);
/// # Ok::<(), uhd_core::HdcError>(())
/// ```
pub fn cosine(a: &Hypervector, b: &Hypervector) -> Result<f64, HdcError> {
    let dot = a.dot(b)?;
    Ok(dot as f64 / f64::from(a.dim()))
}

/// Cosine similarity between arbitrary integer vectors (used for
/// non-binarized class hypervectors).
///
/// Returns 0 when either vector is all-zero.
///
/// # Errors
///
/// [`HdcError::DimensionMismatch`] if lengths differ.
pub fn cosine_int(a: &[i64], b: &[i64]) -> Result<f64, HdcError> {
    if a.len() != b.len() {
        return Err(HdcError::DimensionMismatch {
            left: a.len() as u32,
            right: b.len() as u32,
        });
    }
    let mut dot = 0f64;
    let mut na = 0f64;
    let mut nb = 0f64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        // Square in f64: `x * x` in i64 wraps (or panics under
        // overflow-checks) once entries exceed ~3·10⁹, which unbounded
        // online accumulation reaches.
        let xf = x as f64;
        let yf = y as f64;
        dot += xf * yf;
        na += xf * xf;
        nb += yf * yf;
    }
    if na == 0.0 || nb == 0.0 {
        return Ok(0.0);
    }
    Ok(dot / (na.sqrt() * nb.sqrt()))
}

/// Normalized Hamming similarity: fraction of agreeing dimensions.
///
/// Uses the packed [`Hypervector::hamming_distance`] fast path
/// (word-wise XOR + popcount).
///
/// # Errors
///
/// [`HdcError::DimensionMismatch`] if dimensions differ.
pub fn hamming_similarity(a: &Hypervector, b: &Hypervector) -> Result<f64, HdcError> {
    let h = a.hamming_distance(b)?;
    Ok(1.0 - f64::from(h) / f64::from(a.dim()))
}

/// Index of the most cosine-similar candidate, with the winning score.
///
/// # Errors
///
/// * [`HdcError::ModelUntrained`] if `candidates` is empty.
/// * [`HdcError::DimensionMismatch`] if any candidate disagrees in
///   dimension.
pub fn classify(query: &Hypervector, candidates: &[Hypervector]) -> Result<(usize, f64), HdcError> {
    if candidates.is_empty() {
        return Err(HdcError::ModelUntrained);
    }
    let mut best = (0usize, f64::NEG_INFINITY);
    for (i, c) in candidates.iter().enumerate() {
        let s = cosine(query, c)?;
        if s > best.1 {
            best = (i, s);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhd_lowdisc::rng::Xoshiro256StarStar;

    #[test]
    fn cosine_bounds_and_symmetry() {
        let mut rng = Xoshiro256StarStar::seeded(1);
        let a = Hypervector::random(777, &mut rng);
        let b = Hypervector::random(777, &mut rng);
        let ab = cosine(&a, &b).unwrap();
        let ba = cosine(&b, &a).unwrap();
        assert_eq!(ab, ba);
        assert!((-1.0..=1.0).contains(&ab));
    }

    #[test]
    fn hamming_and_cosine_relation() {
        // cos = 1 - 2 * hamming_fraction for bipolar vectors.
        let mut rng = Xoshiro256StarStar::seeded(2);
        let a = Hypervector::random(512, &mut rng);
        let b = Hypervector::random(512, &mut rng);
        let cos = cosine(&a, &b).unwrap();
        let ham = hamming_similarity(&a, &b).unwrap();
        assert!((cos - (2.0 * ham - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn cosine_int_matches_bipolar_cosine() {
        let mut rng = Xoshiro256StarStar::seeded(3);
        let a = Hypervector::random(300, &mut rng);
        let b = Hypervector::random(300, &mut rng);
        let ai: Vec<i64> = (0..300).map(|i| if a.bit(i) { 1 } else { -1 }).collect();
        let bi: Vec<i64> = (0..300).map(|i| if b.bit(i) { 1 } else { -1 }).collect();
        let c1 = cosine(&a, &b).unwrap();
        let c2 = cosine_int(&ai, &bi).unwrap();
        assert!((c1 - c2).abs() < 1e-12);
    }

    #[test]
    fn cosine_int_zero_vector_is_zero() {
        assert_eq!(cosine_int(&[0, 0], &[1, 2]).unwrap(), 0.0);
    }

    #[test]
    fn cosine_int_survives_huge_class_sums() {
        // Regression: squaring in i64 overflowed for entries past
        // ~3·10⁹ — exactly what unbounded online accumulation produces.
        // Entries near i64::MAX >> 1 must still yield exact ±1 for
        // (anti)parallel vectors, with no wrap or overflow panic.
        let big = i64::MAX >> 1;
        let a = vec![big, -big, big - 1, -big + 1];
        let parallel = cosine_int(&a, &a).unwrap();
        assert!((parallel - 1.0).abs() < 1e-12, "got {parallel}");
        let neg: Vec<i64> = a.iter().map(|&x| -x).collect();
        let anti = cosine_int(&a, &neg).unwrap();
        assert!((anti + 1.0).abs() < 1e-12, "got {anti}");
        // Mixed magnitudes stay within the cosine bounds.
        let b = vec![big, big, -3, 7];
        let mixed = cosine_int(&a, &b).unwrap();
        assert!((-1.0..=1.0).contains(&mixed));
    }

    #[test]
    fn cosine_int_length_mismatch() {
        assert!(matches!(
            cosine_int(&[1], &[1, 2]),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn classify_picks_most_similar() {
        let mut rng = Xoshiro256StarStar::seeded(4);
        let classes: Vec<Hypervector> = (0..5)
            .map(|_| Hypervector::random(2048, &mut rng))
            .collect();
        // A query near class 3: flip a small fraction of its bits.
        let mut query = classes[3].clone();
        for i in 0..100 {
            let pos = i * 17 % 2048;
            query.set_bit(pos, !query.bit(pos));
        }
        let (idx, score) = classify(&query, &classes).unwrap();
        assert_eq!(idx, 3);
        assert!(score > 0.8);
    }

    #[test]
    fn classify_empty_candidates_errors() {
        let q = Hypervector::ones(16);
        assert!(matches!(classify(&q, &[]), Err(HdcError::ModelUntrained)));
    }
}

//! Optional perceptron-style retraining (AdaptHD-flavoured extension).
//!
//! The paper's headline results are deliberately *without* retraining
//! ("no retraining, no NN assistance, no prior optimization", Fig. 6),
//! but its related-work comparison includes "w/ retrain" systems. This
//! module implements the standard HDC retraining loop so the repository
//! can reproduce that comparison axis: for each misclassified training
//! sample, add its encoding to the true class accumulator and subtract it
//! from the predicted one, then re-binarize.

use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::model::HdcModel;
use crate::online::apply_correction_with;

/// Outcome of one retraining epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrainEpoch {
    /// Samples that were misclassified (and therefore caused updates).
    pub mistakes: usize,
    /// Samples seen.
    pub samples: usize,
}

/// The ±1 contribution stream of a binarized encoding.
fn bipolar_deltas(encoding: &Hypervector) -> impl Iterator<Item = i64> + '_ {
    (0..encoding.dim()).map(|i| if encoding.bit(i) { 1 } else { -1 })
}

/// Run `epochs` retraining passes over pre-encoded training hypervectors.
///
/// `encodings[i]` must be the binarized encoding of training sample `i`
/// with label `labels[i]`. Returns the refined model and the per-epoch
/// mistake counts.
///
/// # Errors
///
/// * [`HdcError::InvalidTrainingData`] for empty/ragged inputs or labels
///   out of range.
/// * [`HdcError::DimensionMismatch`] if any encoding disagrees with the
///   model dimension.
pub fn retrain(
    model: &HdcModel,
    encodings: &[Hypervector],
    labels: &[usize],
    epochs: usize,
) -> Result<(HdcModel, Vec<RetrainEpoch>), HdcError> {
    if encodings.is_empty() {
        return Err(HdcError::InvalidTrainingData {
            reason: "no encodings".into(),
        });
    }
    if encodings.len() != labels.len() {
        return Err(HdcError::InvalidTrainingData {
            reason: format!("{} encodings but {} labels", encodings.len(), labels.len()),
        });
    }
    let classes = model.classes();
    for &l in labels {
        if l >= classes {
            return Err(HdcError::InvalidTrainingData {
                reason: format!("label {l} out of range for {classes} classes"),
            });
        }
    }
    let dim = model.dim();
    for e in encodings {
        if e.dim() != dim {
            return Err(HdcError::DimensionMismatch {
                left: dim,
                right: e.dim(),
            });
        }
    }

    let mut sums: Vec<Vec<i64>> = model.class_sums().to_vec();
    let mut history = Vec::with_capacity(epochs);
    let mut current = HdcModel::from_class_sums(sums.clone(), dim)?;
    for _ in 0..epochs {
        let mut mistakes = 0usize;
        for (enc, &label) in encodings.iter().zip(labels.iter()) {
            let (pred, _) = current.classify_encoded(enc)?;
            if pred != label {
                mistakes += 1;
                // The same perceptron-correction kernel the streaming
                // `OnlineLearner::feedback_sums` path uses, so the
                // batched and online update rules cannot drift apart.
                apply_correction_with(&mut sums, bipolar_deltas(enc), label, pred);
                // Re-binarize lazily: rebuild the model once per epoch for
                // determinism (batch update), matching AdaptHD's batched
                // variant.
            }
        }
        current = HdcModel::from_class_sums(sums.clone(), dim)?;
        history.push(RetrainEpoch {
            mistakes,
            samples: encodings.len(),
        });
        if mistakes == 0 {
            break;
        }
    }
    Ok((current, history))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::uhd::{UhdConfig, UhdEncoder};
    use crate::encoder::Encoder;
    use crate::model::LabelledSamples;
    use uhd_lowdisc::rng::Xoshiro256StarStar;

    /// Three overlapping intensity classes: hard enough that single-pass
    /// training leaves mistakes for retraining to fix.
    fn overlapping_data(
        n_per_class: usize,
        pixels: usize,
        seed: u64,
    ) -> (Vec<Vec<u8>>, Vec<usize>) {
        let mut rng = Xoshiro256StarStar::seeded(seed);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for _ in 0..n_per_class {
                let base = 60.0 + 60.0 * c as f64;
                let img: Vec<u8> = (0..pixels)
                    .map(|_| (base + rng.next_range(-55.0, 55.0)).clamp(0.0, 255.0) as u8)
                    .collect();
                images.push(img);
                labels.push(c);
            }
        }
        (images, labels)
    }

    #[test]
    fn retraining_does_not_hurt_training_accuracy() {
        let pixels = 16usize;
        let enc = UhdEncoder::new(UhdConfig::new(1024, pixels)).unwrap();
        let (images, labels) = overlapping_data(60, pixels, 11);
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let model = HdcModel::train(&enc, data, 3).unwrap();
        let before = model.evaluate(&enc, data).unwrap();

        let encodings: Vec<_> = images.iter().map(|img| enc.encode(img).unwrap()).collect();
        let (refined, history) = retrain(&model, &encodings, &labels, 10).unwrap();
        let after = refined.evaluate(&enc, data).unwrap();
        assert!(!history.is_empty());
        assert!(
            after >= before - 0.02,
            "retraining regressed accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn perfect_model_stops_immediately() {
        let pixels = 16usize;
        let enc = UhdEncoder::new(UhdConfig::new(512, pixels)).unwrap();
        // Fully separable data.
        let images: Vec<Vec<u8>> = (0..20)
            .map(|i| vec![if i < 10 { 10u8 } else { 240 }; pixels])
            .collect();
        let labels: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let model = HdcModel::train(&enc, data, 2).unwrap();
        let encodings: Vec<_> = images.iter().map(|img| enc.encode(img).unwrap()).collect();
        let (_, history) = retrain(&model, &encodings, &labels, 5).unwrap();
        assert_eq!(history.len(), 1, "should stop after one clean epoch");
        assert_eq!(history[0].mistakes, 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let pixels = 16usize;
        let enc = UhdEncoder::new(UhdConfig::new(256, pixels)).unwrap();
        let images: Vec<Vec<u8>> = (0..4).map(|_| vec![100u8; pixels]).collect();
        let labels = vec![0usize, 0, 1, 1];
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let model = HdcModel::train(&enc, data, 2).unwrap();
        let encodings: Vec<_> = images.iter().map(|img| enc.encode(img).unwrap()).collect();

        assert!(retrain(&model, &[], &[], 1).is_err());
        assert!(retrain(&model, &encodings, &labels[..2], 1).is_err());
        let bad_labels = vec![7usize; 4];
        assert!(retrain(&model, &encodings, &bad_labels, 1).is_err());
        let bad_dim = vec![Hypervector::ones(64); 4];
        assert!(retrain(&model, &bad_dim, &labels, 1).is_err());
    }
}

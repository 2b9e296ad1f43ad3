//! A sums-only reference learner: the oracle the streaming learner and
//! the retraining loop are checked against.
//!
//! [`SumsLearner`] keeps per-class bipolar sums as plain `Vec<Vec<i64>>`
//! and applies each update straight to them: an observation adds the
//! sample's sums to its class, and a misprediction adds them to the
//! true class and subtracts them from the predicted one (the AdaptHD
//! perceptron rule). It mirrors `uhd_core::online::OnlineLearner`'s
//! admission, validation order and counters, but shares none of its
//! code and names no `uhd-core` type, so `uhd-core`'s own unit tests can
//! link it as an independent reference.

/// Why the oracle refused an update. A refused update changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The sample's length is not the learner's dimension.
    Dimension,
    /// The label is at or beyond the class admission cap.
    Label,
    /// The predicted class was never admitted.
    Predicted,
}

/// The per-class bipolar-sum learner, updated one sample at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumsLearner {
    sums: Vec<Vec<i64>>,
    dim: usize,
    max_classes: usize,
    observed: u64,
    corrections: u64,
}

impl SumsLearner {
    /// A learner with no classes yet, admitting labels below
    /// `max_classes`.
    #[must_use]
    pub fn new(dim: usize, max_classes: usize) -> Self {
        Self::from_sums(Vec::new(), dim, max_classes)
    }

    /// A learner warm-started from existing class sums (each row of
    /// length `dim`).
    #[must_use]
    pub fn from_sums(sums: Vec<Vec<i64>>, dim: usize, max_classes: usize) -> Self {
        assert!(sums.iter().all(|row| row.len() == dim), "ragged class sums");
        SumsLearner {
            sums,
            dim,
            max_classes,
            observed: 0,
            corrections: 0,
        }
    }

    /// Classes admitted so far.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.sums.len()
    }

    /// The running class sums.
    #[must_use]
    pub fn class_sums(&self) -> &[Vec<i64>] {
        &self.sums
    }

    /// Observations plus applied corrections.
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Applied corrections (mispredicted feedback samples).
    #[must_use]
    pub fn corrections(&self) -> u64 {
        self.corrections
    }

    fn admit(&mut self, label: usize) -> Result<(), Refused> {
        if label >= self.max_classes {
            return Err(Refused::Label);
        }
        if self.sums.len() <= label {
            self.sums.resize(label + 1, vec![0; self.dim]);
        }
        Ok(())
    }

    /// Add `sample` to class `label`, admitting it if new.
    pub fn observe(&mut self, sample: &[i64], label: usize) -> Result<(), Refused> {
        if sample.len() != self.dim {
            return Err(Refused::Dimension);
        }
        self.admit(label)?;
        for (s, &d) in self.sums[label].iter_mut().zip(sample) {
            *s += d;
        }
        self.observed += 1;
        Ok(())
    }

    /// The perceptron rule: when `predicted != label`, add `sample` to
    /// `label` (admitting it if new) and subtract it from `predicted`.
    /// Returns whether a correction was applied. `predicted` is checked
    /// before `label` is admitted.
    pub fn feedback(
        &mut self,
        sample: &[i64],
        predicted: usize,
        label: usize,
    ) -> Result<bool, Refused> {
        if sample.len() != self.dim {
            return Err(Refused::Dimension);
        }
        if predicted >= self.sums.len() {
            return Err(Refused::Predicted);
        }
        if predicted == label {
            return Ok(false);
        }
        self.admit(label)?;
        for (i, &d) in sample.iter().enumerate() {
            self.sums[label][i] += d;
            self.sums[predicted][i] -= d;
        }
        self.observed += 1;
        self.corrections += 1;
        Ok(true)
    }
}

/// The ±1 view of `dim` packed bits (LSB-first words): +1 for a set
/// bit, −1 for a clear one.
#[must_use]
pub fn bipolar_bits(words: &[u64], dim: usize) -> Vec<i64> {
    (0..dim)
        .map(|i| {
            if (words[i / 64] >> (i % 64)) & 1 == 1 {
                1
            } else {
                -1
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_moves_the_sample_between_classes() {
        let mut learner = SumsLearner::from_sums(vec![vec![0; 3]; 2], 3, 4);
        let sample = bipolar_bits(&[0b101], 3);
        assert_eq!(sample, [1, -1, 1]);
        assert_eq!(learner.feedback(&sample, 1, 1), Ok(false));
        assert_eq!(learner.feedback(&sample, 1, 0), Ok(true));
        assert_eq!(learner.class_sums(), [vec![1, -1, 1], vec![-1, 1, -1]]);
        assert_eq!((learner.observed(), learner.corrections()), (1, 1));
    }

    #[test]
    fn refusals_change_nothing() {
        let mut learner = SumsLearner::new(2, 2);
        assert_eq!(learner.observe(&[1, 1, 1], 0), Err(Refused::Dimension));
        assert_eq!(learner.observe(&[1, 1], 2), Err(Refused::Label));
        assert_eq!(learner.feedback(&[1, 1], 0, 1), Err(Refused::Predicted));
        assert_eq!(learner, SumsLearner::new(2, 2));
        // A label gap admits the classes in between with zero sums.
        learner.observe(&[1, -1], 1).unwrap();
        assert_eq!(learner.class_sums(), [vec![0, 0], vec![1, -1]]);
    }
}

//! Streaming online learning: the "dynamic" in dynamic HDC.
//!
//! The paper positions unary HDC as lightweight enough to *adapt on
//! device*; the standard realization of that claim in the HDC
//! literature (Ge & Parhi's review; AdaptHD; the binarized-bundling
//! hardware work of Schmuck et al.) is to keep the integer class
//! accumulators alive after training and keep folding labelled samples
//! into them, rebinarizing on demand. [`OnlineLearner`] is that loop:
//!
//! * [`OnlineLearner::observe_accumulator`] bundles one sample's
//!   bit-sliced encoding (the per-image [`BitSliceAccumulator`] counts)
//!   into its class. The counts are merged into a per-class pending
//!   counter in the bit-sliced domain, and every pending counter is
//!   folded into the `i64` class sums once, on the next read
//!   ([`OnlineLearner::class_sums`], [`OnlineLearner::snapshot`]).
//!   The fold is exact by linearity, `Σ(2c − H) = 2·Σc − n·H`, so the
//!   count-to-sum transpose runs once per touched counter and read,
//!   not once per sample;
//! * [`OnlineLearner::observe_sums`] bundles the same sample given as
//!   its *integer* encoding (the bipolar sums `2c − H`), the entry a
//!   replay of precomputed sums uses. Bundling is linear, so both
//!   entries are **bit-identical to single-pass batch training**
//!   continued forever: a learner that streams the training set lands
//!   on exactly the class sums [`HdcModel::train`] produces;
//! * [`OnlineLearner::feedback_accumulator`] applies the AdaptHD
//!   perceptron rule — on a misprediction, add the encoding to the true
//!   class and subtract it from the predicted one, which keeps a second
//!   pending counter of subtracted samples;
//! * labels the learner has never seen **admit new classes at
//!   runtime** (up to a configurable cap), so a deployed model can
//!   grow its label space without retraining from scratch;
//! * [`OnlineLearner::snapshot`] folds every touched pending counter
//!   into the class sums (one dispatched [`crate::kernels::Kernel::fold_sums`]
//!   pass each), copies the sums into a fresh [`HdcModel`] and
//!   rebinarizes them there (a sign-bit pack a word at a time, plus
//!   the bit-sliced associative-memory transpose) — cheap enough to
//!   run continuously, which is what `uhd-serve` does behind its hot
//!   model swap.
//!
//! `feedback_accumulator` is the only implementation of the correction
//! rule: the batched [`crate::retrain`] loop feeds it each mispredicted
//! encoding as a one-mask counter, whose bipolar sums are the ±1 view.

use crate::accumulator::BitSliceAccumulator;
use crate::error::HdcError;
use crate::model::HdcModel;

/// Default cap on runtime class admission (see
/// [`OnlineLearner::with_max_classes`]).
pub const DEFAULT_MAX_CLASSES: usize = 4096;

/// One class's samples not yet folded into its `i64` sums: the
/// bit-sliced counts of the samples added to it and of those
/// subtracted from it (feedback naming it as the wrong prediction).
#[derive(Debug, Clone)]
struct Pending {
    added: BitSliceAccumulator,
    subtracted: BitSliceAccumulator,
}

impl Pending {
    fn new(dim: u32) -> Self {
        Pending {
            added: BitSliceAccumulator::new(dim),
            subtracted: BitSliceAccumulator::new(dim),
        }
    }

    /// Fold both counters into `sums` as bipolar sums and clear them.
    /// An untouched counter (total 0) holds all-zero counts and is
    /// skipped.
    fn fold_into(&mut self, sums: &mut [i64]) {
        for (counter, negate) in [(&mut self.added, false), (&mut self.subtracted, true)] {
            if counter.total() > 0 {
                counter.fold_bipolar_sums_into(sums, negate);
                counter.clear();
            }
        }
    }
}

/// A streaming learner over running integer class accumulators.
///
/// Wraps per-class bipolar sums (the same state [`HdcModel`] carries
/// for retraining), updates them one sample at a time, and emits
/// rebinarized [`HdcModel`] snapshots on demand. Samples given as
/// bit-sliced counts wait in per-class pending counters until a read
/// folds them in, which is why the readers take `&mut self`.
///
/// # Example
///
/// ```
/// use uhd_core::encoder::uhd::{UhdConfig, UhdEncoder};
/// use uhd_core::online::OnlineLearner;
/// use uhd_core::{BitSliceAccumulator, Encoder};
///
/// let encoder = UhdEncoder::new(UhdConfig::new(256, 4))?;
/// let mut learner = OnlineLearner::new(256)?;
/// let mut scratch = BitSliceAccumulator::new(256);
/// for (image, label) in [([10u8, 20, 30, 40], 0), ([250, 240, 230, 220], 1)] {
///     scratch.clear();
///     encoder.accumulate(&image, &mut scratch)?;
///     learner.observe_accumulator(&scratch, label)?; // admits the class
/// }
/// let model = learner.snapshot()?;
/// assert_eq!(model.classes(), 2);
/// assert_eq!(model.classify(&encoder, &[250, 240, 230, 220])?.0, 1);
/// # Ok::<(), uhd_core::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OnlineLearner {
    class_sums: Vec<Vec<i64>>,
    /// One entry per class, parallel to `class_sums`.
    pending: Vec<Pending>,
    dim: u32,
    observed: u64,
    corrections: u64,
    max_classes: usize,
}

impl OnlineLearner {
    /// A cold-start learner with no classes yet; the first
    /// observation admits the first class.
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidConfig`] when `dim == 0`.
    pub fn new(dim: u32) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "online learner dimension must be nonzero".into(),
            });
        }
        Ok(OnlineLearner {
            class_sums: Vec::new(),
            pending: Vec::new(),
            dim,
            observed: 0,
            corrections: 0,
            max_classes: DEFAULT_MAX_CLASSES,
        })
    }

    /// A learner warm-started from a trained model's integer class
    /// accumulators — the deployed-model-keeps-learning path.
    #[must_use]
    pub fn from_model(model: &HdcModel) -> Self {
        OnlineLearner {
            class_sums: model.class_sums().to_vec(),
            pending: (0..model.classes())
                .map(|_| Pending::new(model.dim()))
                .collect(),
            dim: model.dim(),
            observed: 0,
            corrections: 0,
            max_classes: DEFAULT_MAX_CLASSES,
        }
    }

    /// Cap runtime class admission at `max_classes` (default
    /// [`DEFAULT_MAX_CLASSES`]). A label at or beyond the cap is
    /// rejected instead of allocating accumulator rows for it, so a
    /// corrupt label stream cannot balloon memory.
    #[must_use]
    pub fn with_max_classes(mut self, max_classes: usize) -> Self {
        self.max_classes = max_classes;
        self
    }

    /// Hypervector dimension D.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Classes admitted so far.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.class_sums.len()
    }

    /// Samples folded in since this learner was created (both
    /// observations and *applied* feedback corrections).
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Perceptron corrections applied (mispredicted feedback samples).
    #[must_use]
    pub fn corrections(&self) -> u64 {
        self.corrections
    }

    /// The running integer class accumulators, with every pending
    /// sample folded in.
    pub fn class_sums(&mut self) -> &[Vec<i64>] {
        self.fold_pending();
        &self.class_sums
    }

    /// Fold every class's pending counters into its `i64` sums.
    fn fold_pending(&mut self) {
        for (sums, pending) in self.class_sums.iter_mut().zip(&mut self.pending) {
            pending.fold_into(sums);
        }
    }

    /// Reject an encoding whose dimension is not the learner's.
    fn check_dim(&self, dim: usize) -> Result<(), HdcError> {
        if dim != self.dim as usize {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: dim as u32,
            });
        }
        Ok(())
    }

    /// Reject a `predicted` index naming a class the learner has never
    /// admitted (a genuine served prediction always names one).
    fn check_predicted(&self, predicted: usize) -> Result<(), HdcError> {
        if predicted >= self.class_sums.len() {
            return Err(HdcError::InvalidTrainingData {
                reason: format!(
                    "predicted class {predicted} out of range for {} admitted classes",
                    self.class_sums.len()
                ),
            });
        }
        Ok(())
    }

    /// Grow the accumulator store so `label` is addressable, rejecting
    /// labels at or past the admission cap. Classes between the old
    /// count and `label` are admitted empty (all-zero sums).
    fn admit(&mut self, label: usize) -> Result<(), HdcError> {
        if label >= self.max_classes {
            return Err(HdcError::InvalidTrainingData {
                reason: format!(
                    "label {label} at or beyond the class admission cap {}",
                    self.max_classes
                ),
            });
        }
        while self.class_sums.len() <= label {
            self.class_sums.push(vec![0i64; self.dim as usize]);
            self.pending.push(Pending::new(self.dim));
        }
        Ok(())
    }

    /// Bundle one sample's *integer* encoding — its per-image bipolar
    /// accumulator sums, the same vector the integer inference mode
    /// uses as a query — into its class accumulator, admitting the
    /// class if it is new.
    ///
    /// Bundling is linear in these sums, so streaming a training set
    /// through this method reproduces [`HdcModel::train`]'s class sums
    /// exactly. [`OnlineLearner::observe_accumulator`] is the same
    /// update taken straight from the encoder's bit-sliced counts,
    /// without the count-to-sum transpose per sample; it is the path a
    /// serving registry feeds.
    ///
    /// # Errors
    ///
    /// * [`HdcError::DimensionMismatch`] for a wrong-length vector.
    /// * [`HdcError::InvalidTrainingData`] for a label at or beyond the
    ///   admission cap.
    pub fn observe_sums(&mut self, encoding_sums: &[i64], label: usize) -> Result<(), HdcError> {
        self.check_dim(encoding_sums.len())?;
        self.admit(label)?;
        for (s, &d) in self.class_sums[label].iter_mut().zip(encoding_sums) {
            *s += d;
        }
        self.observed += 1;
        Ok(())
    }

    /// Bundle one sample's bit-sliced encoding — the
    /// [`BitSliceAccumulator`] an [`crate::encoder::Encoder::accumulate`]
    /// call filled — into its class, admitting the class if it is new.
    ///
    /// The sample's planes are merged into the class's pending counter;
    /// the next [`OnlineLearner::class_sums`] or
    /// [`OnlineLearner::snapshot`] folds them into the sums. The
    /// result is bit-identical to
    /// `observe_sums(&sample.bipolar_sums(), label)`.
    ///
    /// # Errors
    ///
    /// * [`HdcError::DimensionMismatch`] for a wrong-dimension sample.
    /// * [`HdcError::InvalidTrainingData`] for a label at or beyond the
    ///   admission cap.
    pub fn observe_accumulator(
        &mut self,
        sample: &BitSliceAccumulator,
        label: usize,
    ) -> Result<(), HdcError> {
        self.check_dim(sample.dim() as usize)?;
        self.admit(label)?;
        self.pending[label].added.merge(sample)?;
        self.observed += 1;
        Ok(())
    }

    /// Apply the AdaptHD perceptron rule for one served prediction:
    /// when `predicted != label`, merge the sample's planes into the
    /// true class's pending counter and into the predicted class's
    /// counter of subtracted samples. Returns whether an update was
    /// applied (correct predictions leave the accumulators untouched).
    ///
    /// The true `label` may admit a new class; `predicted` must name a
    /// class the learner already knows (it came from a model snapshot).
    ///
    /// # Errors
    ///
    /// * [`HdcError::DimensionMismatch`] for a wrong-dimension sample.
    /// * [`HdcError::InvalidTrainingData`] for a label at or beyond the
    ///   admission cap, or a `predicted` index the learner has never
    ///   admitted.
    pub fn feedback_accumulator(
        &mut self,
        sample: &BitSliceAccumulator,
        predicted: usize,
        label: usize,
    ) -> Result<bool, HdcError> {
        self.check_dim(sample.dim() as usize)?;
        // Check `predicted` before admitting `label`, so a rejected
        // sample admits no phantom (all-ones) class.
        self.check_predicted(predicted)?;
        if predicted == label {
            return Ok(false);
        }
        self.admit(label)?;
        self.pending[label].added.merge(sample)?;
        self.pending[predicted].subtracted.merge(sample)?;
        self.observed += 1;
        self.corrections += 1;
        Ok(true)
    }

    /// Fold the pending counters and rebinarize the running
    /// accumulators into a fresh [`HdcModel`] (sign at zero, ties
    /// positive — the same TOB rule as single-pass training), ready to
    /// hot-swap into a serving engine.
    ///
    /// Classes that were admitted but never observed binarize to the
    /// all-ones hypervector (every sum is zero, and zero rounds to +1).
    ///
    /// # Errors
    ///
    /// [`HdcError::ModelUntrained`] when no class has been admitted yet.
    pub fn snapshot(&mut self) -> Result<HdcModel, HdcError> {
        if self.class_sums.is_empty() {
            return Err(HdcError::ModelUntrained);
        }
        HdcModel::from_class_sums(self.class_sums().to_vec(), self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::uhd::{UhdConfig, UhdEncoder};
    use crate::encoder::Encoder;
    use crate::model::LabelledSamples;
    use crate::retrain::retrain;
    use proptest::prelude::*;
    use uhd_lowdisc::rng::Xoshiro256StarStar;
    use uhd_testutil::{bipolar_bits, SumsLearner};

    /// A bit-sliced sample of `n` random masks.
    fn sample_of(n: usize, dim: u32, rng: &mut Xoshiro256StarStar) -> BitSliceAccumulator {
        let masks = uhd_testutil::random_masks(n, dim, rng);
        let mut acc = BitSliceAccumulator::new(dim);
        acc.add_masks(&masks.iter().map(Vec::as_slice).collect::<Vec<_>>());
        acc
    }

    /// `n` samples of 17 random masks each (odd, so no sum is zero).
    fn random_samples(n: usize, dim: u32, seed: u64) -> Vec<BitSliceAccumulator> {
        let mut rng = Xoshiro256StarStar::seeded(seed);
        (0..n).map(|_| sample_of(17, dim, &mut rng)).collect()
    }

    /// The snapshot bytes a learner holding the oracle's sums serves
    /// (`None` before the first class is admitted).
    fn oracle_snapshot(oracle: &SumsLearner, dim: u32) -> Option<Vec<u8>> {
        (oracle.classes() > 0).then(|| {
            HdcModel::from_class_sums(oracle.class_sums().to_vec(), dim)
                .unwrap()
                .to_bytes()
        })
    }

    #[test]
    fn cold_start_observe_matches_manual_bundling() {
        let dim = 200u32;
        let samples = random_samples(30, dim, 1);
        let mut learner = OnlineLearner::new(dim).unwrap();
        let mut expected = vec![vec![0i64; dim as usize]; 3];
        for (i, sample) in samples.iter().enumerate() {
            let label = i % 3;
            learner.observe_accumulator(sample, label).unwrap();
            for (slot, d) in expected[label].iter_mut().zip(sample.bipolar_sums()) {
                *slot += d;
            }
        }
        assert_eq!(learner.classes(), 3);
        assert_eq!(learner.observed(), 30);
        assert_eq!(learner.class_sums(), expected.as_slice());
        // The snapshot binarizes by sign with ties positive.
        let model = learner.snapshot().unwrap();
        for (c, sums) in expected.iter().enumerate() {
            for (i, &s) in sums.iter().enumerate() {
                assert_eq!(model.class_hypervectors()[c].bit(i as u32), s >= 0);
            }
        }
    }

    #[test]
    fn feedback_stream_matches_one_retrain_epoch() {
        // The batched retrain loop corrects through the learner's
        // bit-sliced feedback; the sums-only oracle applying the *same*
        // (prediction, label) pairs to the ±1 view of each encoding
        // must land on the same model.
        let pixels = 16usize;
        let dim = 1024u32;
        let enc = UhdEncoder::new(UhdConfig::new(dim, pixels)).unwrap();
        let mut rng = Xoshiro256StarStar::seeded(77);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for _ in 0..40 {
                let base = 60.0 + 60.0 * c as f64;
                let img: Vec<u8> = (0..pixels)
                    .map(|_| (base + rng.next_range(-55.0, 55.0)).clamp(0.0, 255.0) as u8)
                    .collect();
                images.push(img);
                labels.push(c);
            }
        }
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let model = HdcModel::train(&enc, data, 3).unwrap();
        let encodings: Vec<_> = images.iter().map(|img| enc.encode(img).unwrap()).collect();

        // Batched: one retrain epoch (predictions all come from the
        // epoch-start model).
        let (refined, history) = retrain(&model, &encodings, &labels, 1).unwrap();
        assert!(history[0].mistakes > 0, "fixture must leave mistakes");

        // Streaming: the same predictions, fed to the oracle as the ±1
        // view of each encoding.
        let mut oracle = SumsLearner::from_sums(model.class_sums().to_vec(), dim as usize, 3);
        for (e, &label) in encodings.iter().zip(&labels) {
            let (pred, _) = model.classify_encoded(e).unwrap();
            oracle
                .feedback(&bipolar_bits(e.words(), dim as usize), pred, label)
                .unwrap();
        }
        assert_eq!(oracle.corrections(), history[0].mistakes as u64);
        let snap = HdcModel::from_class_sums(oracle.class_sums().to_vec(), dim).unwrap();
        assert_eq!(snap.class_hypervectors(), refined.class_hypervectors());
        assert_eq!(snap.class_sums(), refined.class_sums());
    }

    #[test]
    fn streaming_integer_observation_is_bit_identical_to_batch_training() {
        // Bundling is linear in the per-image bipolar sums, so a
        // learner streaming the training set one sample at a time must
        // land on *exactly* the class sums (and hypervectors) of
        // single-pass batch training.
        let pixels = 16usize;
        let dim = 512u32;
        let enc = UhdEncoder::new(UhdConfig::new(dim, pixels)).unwrap();
        let mut rng = Xoshiro256StarStar::seeded(31);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for _ in 0..25 {
                let base = 50.0 + 70.0 * c as f64;
                let img: Vec<u8> = (0..pixels)
                    .map(|_| (base + rng.next_range(-40.0, 40.0)).clamp(0.0, 255.0) as u8)
                    .collect();
                images.push(img);
                labels.push(c);
            }
        }
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let batch = HdcModel::train(&enc, data, 3).unwrap();

        // Both integer-domain entries: the bipolar sums, and the
        // bit-sliced counts they are read from.
        let mut by_sums = OnlineLearner::new(dim).unwrap();
        let mut by_counts = OnlineLearner::new(dim).unwrap();
        let mut scratch = BitSliceAccumulator::new(dim);
        for (image, &label) in images.iter().zip(&labels) {
            scratch.clear();
            enc.accumulate(image, &mut scratch).unwrap();
            by_sums
                .observe_sums(&scratch.bipolar_sums(), label)
                .unwrap();
            by_counts.observe_accumulator(&scratch, label).unwrap();
        }
        for learner in [&mut by_sums, &mut by_counts] {
            let streamed = learner.snapshot().unwrap();
            assert_eq!(streamed.class_sums(), batch.class_sums());
            assert_eq!(streamed.class_hypervectors(), batch.class_hypervectors());
            assert_eq!(streamed.to_bytes(), batch.to_bytes());
        }
    }

    #[test]
    fn correct_feedback_is_a_no_op() {
        let dim = 128u32;
        let samples = random_samples(4, dim, 9);
        let mut learner = OnlineLearner::new(dim).unwrap();
        learner.observe_accumulator(&samples[0], 0).unwrap();
        learner.observe_accumulator(&samples[1], 1).unwrap();
        let before = learner.class_sums().to_vec();
        assert!(!learner.feedback_accumulator(&samples[2], 1, 1).unwrap());
        assert_eq!(learner.class_sums(), before.as_slice());
        assert_eq!(learner.corrections(), 0);
    }

    #[test]
    fn admits_new_classes_at_runtime() {
        let dim = 128u32;
        let samples = random_samples(3, dim, 11);
        let mut learner = OnlineLearner::new(dim).unwrap();
        learner.observe_accumulator(&samples[0], 0).unwrap();
        assert_eq!(learner.classes(), 1);
        // A label with a gap admits the intermediate classes empty.
        learner.observe_accumulator(&samples[1], 3).unwrap();
        assert_eq!(learner.classes(), 4);
        let model = learner.snapshot().unwrap();
        assert_eq!(model.classes(), 4);
        // Never-observed classes binarize to all ones (zero sums).
        assert_eq!(model.class_hypervectors()[1].count_plus_ones(), dim);
        // Its own encoding is recovered.
        assert_eq!(model.classify_encoded(&samples[1].binarize()).unwrap().0, 3);
    }

    #[test]
    fn admission_cap_and_bad_inputs_are_rejected() {
        let dim = 64u32;
        let samples = random_samples(2, dim, 13);
        assert!(OnlineLearner::new(0).is_err());
        let mut learner = OnlineLearner::new(dim).unwrap().with_max_classes(2);
        learner.observe_accumulator(&samples[0], 0).unwrap();
        assert!(matches!(
            learner.observe_accumulator(&samples[0], 2),
            Err(HdcError::InvalidTrainingData { .. })
        ));
        // Wrong-dimension encoding.
        let wrong = BitSliceAccumulator::new(32);
        assert!(matches!(
            learner.observe_accumulator(&wrong, 0),
            Err(HdcError::DimensionMismatch { .. })
        ));
        // Predicted class never admitted.
        assert!(matches!(
            learner.feedback_accumulator(&samples[1], 1, 0),
            Err(HdcError::InvalidTrainingData { .. })
        ));
        // No classes yet: snapshot is untrained.
        let mut empty = OnlineLearner::new(dim).unwrap();
        assert!(matches!(empty.snapshot(), Err(HdcError::ModelUntrained)));
    }

    #[test]
    fn rejected_feedback_leaves_the_learner_untouched() {
        // Regression: feedback once admitted the true label *before*
        // validating `predicted`, so a rejected sample still grew the
        // class store and later snapshots served phantom all-ones
        // classes.
        let dim = 128u32;
        let samples = random_samples(3, dim, 19);
        let mut learner = OnlineLearner::new(dim).unwrap();
        learner.observe_accumulator(&samples[0], 0).unwrap();
        learner.observe_accumulator(&samples[1], 1).unwrap();
        let before = learner.class_sums().to_vec();
        // predicted = 7 was never admitted; label = 5 would be new.
        assert!(matches!(
            learner.feedback_accumulator(&samples[2], 7, 5),
            Err(HdcError::InvalidTrainingData { .. })
        ));
        assert_eq!(learner.classes(), 2, "no phantom classes admitted");
        assert_eq!(learner.class_sums(), before.as_slice());
        assert_eq!(learner.observed(), 2);
        // A valid new-label feedback against a known prediction still
        // admits the new class.
        assert!(learner.feedback_accumulator(&samples[2], 0, 5).unwrap());
        assert_eq!(learner.classes(), 6);
    }

    /// Masks per sample: around the 16-mask block edges and the
    /// paper's H = 784.
    const SAMPLE_TOTALS: [usize; 8] = [0, 1, 15, 16, 17, 783, 784, 785];

    fn random_sample(dim: u32, rng: &mut Xoshiro256StarStar) -> BitSliceAccumulator {
        let n = SAMPLE_TOTALS[rng.next_below(SAMPLE_TOTALS.len() as u64) as usize];
        sample_of(n, dim, rng)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Random interleavings of the learner's entries — label gaps
        /// and labels past the cap, predictions past the admitted
        /// classes, cold or warm start, and reads in the middle of the
        /// stream — against the sums-only oracle fed every sample as
        /// its bipolar sums: every outcome, class sum and snapshot byte
        /// agrees.
        #[test]
        fn prop_accumulator_entries_match_a_sums_only_learner(
            dim in 1u32..300,
            seed in any::<u64>(),
            warm in any::<bool>(),
            steps in 1usize..40,
        ) {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            let width = dim as usize;
            let (subject, mut reference) = if warm {
                let mut boot = OnlineLearner::new(dim).unwrap();
                for label in 0..3 {
                    boot.observe_sums(&random_sample(dim, &mut rng).bipolar_sums(), label)
                        .unwrap();
                }
                let model = boot.snapshot().unwrap();
                let sums = model.class_sums().to_vec();
                (OnlineLearner::from_model(&model), SumsLearner::from_sums(sums, width, 7))
            } else {
                (OnlineLearner::new(dim).unwrap(), SumsLearner::new(width, 7))
            };
            let mut subject = subject.with_max_classes(7);
            for _ in 0..steps {
                let label = rng.next_below(9) as usize;
                let predicted = rng.next_below(9) as usize;
                let sample = random_sample(dim, &mut rng);
                let sums = sample.bipolar_sums();
                match rng.next_below(5) {
                    0 => prop_assert_eq!(
                        subject.observe_accumulator(&sample, label).ok(),
                        reference.observe(&sums, label).ok()
                    ),
                    1 => prop_assert_eq!(
                        subject.observe_sums(&sums, label).ok(),
                        reference.observe(&sums, label).ok()
                    ),
                    2 => prop_assert_eq!(
                        subject.feedback_accumulator(&sample, predicted, label).ok(),
                        reference.feedback(&sums, predicted, label).ok()
                    ),
                    3 => prop_assert_eq!(subject.class_sums(), reference.class_sums()),
                    _ => prop_assert_eq!(
                        subject.snapshot().ok().map(|m| m.to_bytes()),
                        oracle_snapshot(&reference, dim)
                    ),
                }
                prop_assert_eq!(subject.classes(), reference.classes());
                prop_assert_eq!(subject.observed(), reference.observed());
                prop_assert_eq!(subject.corrections(), reference.corrections());
            }
            prop_assert_eq!(subject.class_sums(), reference.class_sums());
            prop_assert_eq!(
                subject.snapshot().ok().map(|m| m.to_bytes()),
                oracle_snapshot(&reference, dim)
            );
        }
    }

    #[test]
    fn warm_start_continues_from_model_sums() {
        let dim = 256u32;
        let samples = random_samples(8, dim, 17);
        let mut cold = OnlineLearner::new(dim).unwrap();
        for (i, sample) in samples.iter().enumerate() {
            cold.observe_accumulator(sample, i % 2).unwrap();
        }
        let model = cold.snapshot().unwrap();
        let mut warm = OnlineLearner::from_model(&model);
        assert_eq!(warm.class_sums(), model.class_sums());
        assert_eq!(warm.dim(), dim);
        // A warm learner's snapshot round-trips the model exactly.
        let snap = warm.snapshot().unwrap();
        assert_eq!(snap.class_hypervectors(), model.class_hypervectors());
        assert_eq!(snap.class_sums(), model.class_sums());
    }
}

//! Class-hypervector training and inference.
//!
//! Training in HDC is a single pass: every labelled sample's hypervector
//! contributions are bundled into its class accumulator, and once all
//! samples are seen each class accumulator is binarized by sign into a
//! class hypervector (paper §II: "This operation is performed only once,
//! different from the conventional learning systems having iterative
//! forward passes"). Inference encodes the query the same way and picks
//! the class with the highest cosine similarity. Everything here is
//! generic over [`Encoder`], so the same model code trains and serves
//! image, text and tabular workloads.

use crate::accumulator::{pack_threshold, BitSliceAccumulator};
use crate::assoc::AssociativeMemory;
use crate::encoder::Encoder;
use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::similarity::cosine_int;

/// How a query is compared against the trained classes.
///
/// The paper's *hardware* produces sign-binarized vectors (the masking-
/// logic binarizer of Fig. 5), but it also notes the accumulated class
/// values are "large scalars (non-quantized class hypervector)" and its
/// reference software pipeline (Moghadam et al., ESL 2023) measures
/// cosine similarity on the accumulated (integer) vectors. Dark, sparse
/// images make the difference material: majority-binarizing a query at
/// TOB = H/2 collapses most dimensions to −1, so the accuracy studies use
/// the integer mode while the hardware benches exercise the binarized
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InferenceMode {
    /// Query binarized at TOB = H/2 and compared against binarized class
    /// hypervectors — the paper's Fig. 5 hardware datapath.
    BinarizedQuery,
    /// Integer query against integer class sums — the classic HDC
    /// similarity used for the accuracy tables.
    #[default]
    IntegerBoth,
}

/// A trained HDC classifier: one binarized class hypervector per class,
/// plus the integer accumulator sums needed for retraining and a
/// bit-sliced [`AssociativeMemory`] over the class hypervectors that
/// answers binarized-query searches in one streaming pass.
#[derive(Debug, Clone)]
pub struct HdcModel {
    class_hvs: Vec<Hypervector>,
    /// Per-class bipolar accumulator sums (kept for retraining).
    class_sums: Vec<Vec<i64>>,
    /// Plane-transposed class store backing [`HdcModel::classify_encoded`].
    assoc: AssociativeMemory,
    dim: u32,
}

/// A labelled dataset view: feature-stream samples plus class labels.
#[derive(Debug, Clone, Copy)]
pub struct LabelledSamples<'a> {
    /// Feature-stream buffers (pixels, text bytes, tabular rows), one
    /// `&[u8]` per sample.
    pub samples: &'a [Vec<u8>],
    /// Class label per sample, in `0..classes`.
    pub labels: &'a [usize],
}

impl<'a> LabelledSamples<'a> {
    /// Bundle samples and labels, checking the obvious invariants.
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidTrainingData`] when the two slices disagree in
    /// length or are empty.
    pub fn new(samples: &'a [Vec<u8>], labels: &'a [usize]) -> Result<Self, HdcError> {
        if samples.is_empty() {
            return Err(HdcError::InvalidTrainingData {
                reason: "no samples".into(),
            });
        }
        if samples.len() != labels.len() {
            return Err(HdcError::InvalidTrainingData {
                reason: format!("{} samples but {} labels", samples.len(), labels.len()),
            });
        }
        Ok(LabelledSamples { samples, labels })
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the set is empty (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl HdcModel {
    /// Single-pass training.
    ///
    /// All hypervector contributions of all samples of a class are
    /// bundled into one accumulator which is then binarized with
    /// TOB = (contributions-in-class) / 2.
    ///
    /// # Errors
    ///
    /// * [`HdcError::InvalidTrainingData`] for empty data, label ≥
    ///   `classes`, or classes with no samples.
    /// * Encoder errors for malformed samples.
    pub fn train<E: Encoder + ?Sized>(
        encoder: &E,
        data: LabelledSamples<'_>,
        classes: usize,
    ) -> Result<Self, HdcError> {
        Self::train_parallel(encoder, data, classes, 1)
    }

    /// Multi-threaded single-pass training (bit-identical to
    /// [`HdcModel::train`] because bundling is commutative): each chunk
    /// bundles into its own per-class accumulators, merged afterwards.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HdcModel::train`].
    pub fn train_parallel<E: Encoder + ?Sized>(
        encoder: &E,
        data: LabelledSamples<'_>,
        classes: usize,
        threads: usize,
    ) -> Result<Self, HdcError> {
        if classes == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "need at least one class".into(),
            });
        }
        let chunks = map_chunks(data, threads, |samples, labels| {
            let mut accs: Vec<BitSliceAccumulator> = (0..classes)
                .map(|_| BitSliceAccumulator::new(encoder.dim()))
                .collect();
            for (sample, &label) in samples.iter().zip(labels) {
                let acc = accs
                    .get_mut(label)
                    .ok_or_else(|| HdcError::InvalidTrainingData {
                        reason: format!("label {label} out of range for {classes} classes"),
                    })?;
                encoder.accumulate(sample, acc)?;
            }
            Ok(accs)
        })?;
        let mut chunks = chunks.into_iter();
        let mut merged = chunks.next().expect("map_chunks yields at least one chunk");
        for accs in chunks {
            for (m, a) in merged.iter_mut().zip(&accs) {
                m.merge(a)?;
            }
        }
        Self::from_accumulators(&merged, encoder.dim())
    }

    /// Build from per-class counters through [`HdcModel::from_class_sums`],
    /// whose sign rule `2c − T ≥ 0` is the counters' own `c ≥ ⌈T/2⌉`.
    fn from_accumulators(accs: &[BitSliceAccumulator], dim: u32) -> Result<Self, HdcError> {
        if let Some(c) = accs.iter().position(|acc| acc.total() == 0) {
            return Err(HdcError::InvalidTrainingData {
                reason: format!("class {c} has no training samples"),
            });
        }
        Self::from_class_sums(
            accs.iter().map(BitSliceAccumulator::bipolar_sums).collect(),
            dim,
        )
    }

    /// Assemble a model and its derived associative memory; every
    /// constructor funnels through here so the memory can never go
    /// stale relative to the class hypervectors.
    fn from_parts(
        class_hvs: Vec<Hypervector>,
        class_sums: Vec<Vec<i64>>,
        dim: u32,
    ) -> Result<Self, HdcError> {
        let assoc = AssociativeMemory::new(&class_hvs)?;
        Ok(HdcModel {
            class_hvs,
            class_sums,
            assoc,
            dim,
        })
    }

    /// Build a model directly from per-class bipolar sums (used by the
    /// retraining extension).
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidTrainingData`] for empty input or ragged sums.
    pub fn from_class_sums(class_sums: Vec<Vec<i64>>, dim: u32) -> Result<Self, HdcError> {
        if class_sums.is_empty() {
            return Err(HdcError::InvalidTrainingData {
                reason: "no classes".into(),
            });
        }
        let mut class_hvs = Vec::with_capacity(class_sums.len());
        for sums in &class_sums {
            if sums.len() != dim as usize {
                return Err(HdcError::InvalidTrainingData {
                    reason: format!("class sum length {} != dim {dim}", sums.len()),
                });
            }
            class_hvs.push(pack_threshold(sums, dim, |&s| s >= 0));
        }
        Self::from_parts(class_hvs, class_sums, dim)
    }

    /// Hypervector dimension D.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of classes q.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.class_hvs.len()
    }

    /// The binarized class hypervectors `C_1..C_q`.
    #[must_use]
    pub fn class_hypervectors(&self) -> &[Hypervector] {
        &self.class_hvs
    }

    /// The integer (non-binarized) class accumulator sums.
    #[must_use]
    pub fn class_sums(&self) -> &[Vec<i64>] {
        &self.class_sums
    }

    /// The bit-sliced associative memory over the class hypervectors.
    #[must_use]
    pub fn associative_memory(&self) -> &AssociativeMemory {
        &self.assoc
    }

    /// Classify one sample with the default
    /// [`InferenceMode::IntegerBoth`]: encode, then cosine-similarity
    /// argmax.
    ///
    /// # Errors
    ///
    /// Encoder errors for malformed samples.
    pub fn classify<E: Encoder + ?Sized>(
        &self,
        encoder: &E,
        sample: &[u8],
    ) -> Result<(usize, f64), HdcError> {
        self.classify_with(encoder, sample, InferenceMode::default())
    }

    /// Classify one sample under an explicit [`InferenceMode`]: one
    /// [`HdcModel::classify_into`] call on fresh buffers.
    ///
    /// # Errors
    ///
    /// Encoder errors for malformed samples.
    pub fn classify_with<E: Encoder + ?Sized>(
        &self,
        encoder: &E,
        sample: &[u8],
        mode: InferenceMode,
    ) -> Result<(usize, f64), HdcError> {
        let mut scratch = BitSliceAccumulator::new(encoder.dim());
        self.classify_into(encoder, sample, mode, &mut scratch, &mut Vec::new())
    }

    /// Classify one sample under `mode` on caller-reused buffers, so
    /// batch and serving loops do not reallocate them per sample:
    /// `scratch` (of the encoder's dimension) is the bundling
    /// accumulator, `dists` the per-class Hamming distances. Each call
    /// still allocates its query: the binarized hypervector, or the D
    /// bipolar sums in the integer mode. Every
    /// classify path — [`HdcModel::classify_with`], evaluation, the
    /// serving registry — goes through here; reused buffers answer
    /// bit-identically to fresh ones.
    ///
    /// * Binarized query: [`Encoder::encode_into`], then one pass
    ///   over the bit-sliced [`AssociativeMemory`].
    /// * Integer mode: bundle into `scratch`, then the cosine argmax
    ///   of the query's bipolar sums against each class's integer
    ///   sums.
    ///
    /// # Errors
    ///
    /// Encoder errors for malformed samples;
    /// [`HdcError::DimensionMismatch`] for a `scratch` of another
    /// dimension.
    pub fn classify_into<E: Encoder + ?Sized>(
        &self,
        encoder: &E,
        sample: &[u8],
        mode: InferenceMode,
        scratch: &mut BitSliceAccumulator,
        dists: &mut Vec<u32>,
    ) -> Result<(usize, f64), HdcError> {
        if mode == InferenceMode::BinarizedQuery {
            let query = encoder.encode_into(sample, scratch)?;
            return self.assoc.nearest_with(&query, dists);
        }
        scratch.clear();
        encoder.accumulate(sample, scratch)?;
        let query = scratch.bipolar_sums();
        let mut best = (0usize, f64::NEG_INFINITY);
        for (c, sums) in self.class_sums.iter().enumerate() {
            let score = cosine_int(&query, sums)?;
            if score > best.1 {
                best = (c, score);
            }
        }
        Ok(best)
    }

    /// Classify an already encoded hypervector through the bit-sliced
    /// [`AssociativeMemory`] — one plane-by-plane XOR+popcount pass over
    /// all classes, bit-identical in decision and score to the per-class
    /// [`crate::similarity::classify`] scan.
    ///
    /// # Errors
    ///
    /// [`HdcError::DimensionMismatch`] for wrong query dimension.
    pub fn classify_encoded(&self, query: &Hypervector) -> Result<(usize, f64), HdcError> {
        self.assoc.nearest(query)
    }

    /// Accuracy over a labelled test set (single thread, default mode).
    ///
    /// # Errors
    ///
    /// Encoder errors for malformed samples.
    pub fn evaluate<E: Encoder + ?Sized>(
        &self,
        encoder: &E,
        data: LabelledSamples<'_>,
    ) -> Result<f64, HdcError> {
        self.evaluate_with(encoder, data, InferenceMode::default())
    }

    /// Accuracy over a labelled test set under an explicit mode.
    ///
    /// # Errors
    ///
    /// Encoder errors for malformed samples.
    pub fn evaluate_with<E: Encoder + ?Sized>(
        &self,
        encoder: &E,
        data: LabelledSamples<'_>,
        mode: InferenceMode,
    ) -> Result<f64, HdcError> {
        self.evaluate_parallel_with(encoder, data, 1, mode)
    }

    /// Accuracy over a labelled test set using `threads` workers
    /// (default mode).
    ///
    /// # Errors
    ///
    /// Encoder errors for malformed samples.
    pub fn evaluate_parallel<E: Encoder + ?Sized>(
        &self,
        encoder: &E,
        data: LabelledSamples<'_>,
        threads: usize,
    ) -> Result<f64, HdcError> {
        self.evaluate_parallel_with(encoder, data, threads, InferenceMode::default())
    }

    /// Accuracy over a labelled test set using `threads` workers under an
    /// explicit mode; each chunk classifies on one reused scratch.
    ///
    /// # Errors
    ///
    /// Encoder errors for malformed samples.
    pub fn evaluate_parallel_with<E: Encoder + ?Sized>(
        &self,
        encoder: &E,
        data: LabelledSamples<'_>,
        threads: usize,
        mode: InferenceMode,
    ) -> Result<f64, HdcError> {
        let counts = map_chunks(data, threads, |samples, labels| {
            let mut scratch = BitSliceAccumulator::new(encoder.dim());
            let mut dists = Vec::with_capacity(self.classes());
            let mut correct = 0usize;
            for (sample, &label) in samples.iter().zip(labels) {
                let (class, _) =
                    self.classify_into(encoder, sample, mode, &mut scratch, &mut dists)?;
                correct += usize::from(class == label);
            }
            Ok(correct)
        })?;
        Ok(counts.iter().sum::<usize>() as f64 / data.len() as f64)
    }

    /// Serialize the model to a deterministic, platform-independent byte
    /// stream (dimension, class count, packed class hypervectors and
    /// integer sums, all little-endian).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"UHDM");
        out.extend_from_slice(&1u32.to_le_bytes()); // format version
        out.extend_from_slice(&self.dim.to_le_bytes());
        out.extend_from_slice(&(self.class_hvs.len() as u32).to_le_bytes());
        for hv in &self.class_hvs {
            for w in hv.words() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        for sums in &self.class_sums {
            for s in sums {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        out
    }

    /// Deserialize a model produced by [`HdcModel::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidConfig`] for malformed or truncated input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, HdcError> {
        let bad = |reason: &str| HdcError::InvalidConfig {
            reason: reason.into(),
        };
        if bytes.len() < 16 || &bytes[0..4] != b"UHDM" {
            return Err(bad("missing UHDM header"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("sliced"));
        if version != 1 {
            return Err(bad("unsupported model version"));
        }
        let dim = u32::from_le_bytes(bytes[8..12].try_into().expect("sliced"));
        let classes = u32::from_le_bytes(bytes[12..16].try_into().expect("sliced")) as usize;
        if dim == 0 || classes == 0 {
            return Err(bad("degenerate model header"));
        }
        let wc = crate::hypervector::words_for_dim(dim);
        // Checked sizing: adversarial (or 32-bit-implausible) headers
        // would overflow the `wc * 8 * classes` products and let a
        // short payload masquerade as well-formed.
        let expected = wc
            .checked_mul(8)
            .and_then(|b| b.checked_mul(classes))
            .and_then(|hv_bytes| {
                (dim as usize)
                    .checked_mul(8)
                    .and_then(|b| b.checked_mul(classes))
                    .and_then(|sum_bytes| hv_bytes.checked_add(sum_bytes))
            })
            .and_then(|payload| payload.checked_add(16))
            .ok_or_else(|| bad("model header sizes overflow"))?;
        if bytes.len() != expected {
            return Err(bad("truncated model payload"));
        }
        // Bulk decode: the payload is a homogeneous stream of 8-byte
        // little-endian values, so each class's sums decode as one
        // `chunks_exact` pass (vectorized to a copy on little-endian
        // targets). `from_le_bytes` reads each chunk by value, so the
        // buffer's address alignment never matters.
        let (stored_words, sum_bytes) = bytes[16..].split_at(wc * 8 * classes);
        let class_sums = sum_bytes
            .chunks_exact(dim as usize * 8)
            .map(|class| {
                class
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().expect("chunked")))
                    .collect()
            })
            .collect();
        // Every class bit is the sign of its sum, so rebuild the bits
        // from the sums and require the stored words to equal them: a
        // disagreeing bit, or a set padding bit, would otherwise serve
        // one model until a learner's snapshot re-derived another.
        let model = Self::from_class_sums(class_sums, dim)?;
        let rebuilt = model
            .class_hvs
            .iter()
            .flat_map(|hv| hv.words().iter().copied());
        let stored = stored_words
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunked")));
        if !stored.eq(rebuilt) {
            return Err(bad("class bits disagree with the signs of their sums"));
        }
        Ok(model)
    }
}

/// Run `work` over `data` split into at most `threads` contiguous
/// chunks, one scoped thread per chunk, and return the per-chunk
/// results in chunk order (the first error, in sample order, wins).
/// A single chunk runs on the caller's thread, so `threads == 1` is
/// the serial path, not a copy of it.
fn map_chunks<T: Send>(
    data: LabelledSamples<'_>,
    threads: usize,
    work: impl Fn(&[Vec<u8>], &[usize]) -> Result<T, HdcError> + Sync,
) -> Result<Vec<T>, HdcError> {
    let chunk = data.len().div_ceil(threads.clamp(1, data.len().max(1)));
    if chunk >= data.len() {
        return Ok(vec![work(data.samples, data.labels)?]);
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = data
            .samples
            .chunks(chunk)
            .zip(data.labels.chunks(chunk))
            .map(|(samples, labels)| scope.spawn(move || work(samples, labels)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::uhd::{UhdConfig, UhdEncoder};

    /// A toy dataset: class 0 = dark images, class 1 = bright images,
    /// separable by any sane intensity encoder.
    fn toy_data(n_per_class: usize, pixels: usize, seed: u64) -> (Vec<Vec<u8>>, Vec<usize>) {
        use uhd_lowdisc::rng::Xoshiro256StarStar;
        let mut rng = Xoshiro256StarStar::seeded(seed);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2usize {
            for _ in 0..n_per_class {
                let base = if c == 0 { 40.0 } else { 200.0 };
                let img: Vec<u8> = (0..pixels)
                    .map(|_| (base + rng.next_range(-35.0, 35.0)).clamp(0.0, 255.0) as u8)
                    .collect();
                images.push(img);
                labels.push(c);
            }
        }
        (images, labels)
    }

    fn toy_encoder(pixels: usize) -> UhdEncoder {
        UhdEncoder::new(UhdConfig::new(512, pixels)).unwrap()
    }

    #[test]
    fn trains_and_separates_toy_classes() {
        let (images, labels) = toy_data(40, 16, 1);
        let enc = toy_encoder(16);
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let model = HdcModel::train(&enc, data, 2).unwrap();
        let acc = model.evaluate(&enc, data).unwrap();
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn parallel_training_is_bit_identical() {
        let (images, labels) = toy_data(30, 16, 2);
        let enc = toy_encoder(16);
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let serial = HdcModel::train(&enc, data, 2).unwrap();
        let parallel = HdcModel::train_parallel(&enc, data, 2, 4).unwrap();
        assert_eq!(serial.class_hypervectors(), parallel.class_hypervectors());
        assert_eq!(serial.class_sums(), parallel.class_sums());
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let (images, labels) = toy_data(25, 16, 3);
        let enc = toy_encoder(16);
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let model = HdcModel::train(&enc, data, 2).unwrap();
        let a = model.evaluate(&enc, data).unwrap();
        let b = model.evaluate_parallel(&enc, data, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_training_inputs() {
        let enc = toy_encoder(16);
        let (images, labels) = toy_data(5, 16, 4);
        assert!(LabelledSamples::new(&[], &[]).is_err());
        assert!(LabelledSamples::new(&images, &labels[..5]).is_err());
        let data = LabelledSamples::new(&images, &labels).unwrap();
        // Zero classes.
        assert!(HdcModel::train(&enc, data, 0).is_err());
        // Label out of range.
        let bad_labels = vec![9usize; images.len()];
        let bad = LabelledSamples::new(&images, &bad_labels).unwrap();
        assert!(matches!(
            HdcModel::train(&enc, bad, 2),
            Err(HdcError::InvalidTrainingData { .. })
        ));
        assert!(matches!(
            HdcModel::train_parallel(&enc, bad, 2, 3),
            Err(HdcError::InvalidTrainingData { .. })
        ));
        // A class with no samples.
        assert!(matches!(
            HdcModel::train(&enc, data, 5),
            Err(HdcError::InvalidTrainingData { .. })
        ));
    }

    #[test]
    fn serialization_round_trips() {
        let (images, labels) = toy_data(10, 16, 5);
        let enc = toy_encoder(16);
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let model = HdcModel::train(&enc, data, 2).unwrap();
        let bytes = model.to_bytes();
        let back = HdcModel::from_bytes(&bytes).unwrap();
        assert_eq!(model.class_hypervectors(), back.class_hypervectors());
        assert_eq!(model.class_sums(), back.class_sums());
        assert_eq!(bytes, back.to_bytes(), "round-trip must be byte-stable");
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(HdcModel::from_bytes(b"").is_err());
        assert!(HdcModel::from_bytes(b"NOPE").is_err());
        let (images, labels) = toy_data(5, 16, 6);
        let enc = toy_encoder(16);
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let model = HdcModel::train(&enc, data, 2).unwrap();
        let mut bytes = model.to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(HdcModel::from_bytes(&bytes).is_err());
    }

    #[test]
    fn deserialization_rejects_adversarial_headers() {
        // A header claiming absurd shapes must come back as
        // InvalidConfig — never an arithmetic overflow (wrap or panic)
        // in the payload-size computation, and never an allocation
        // sized from unvalidated fields.
        let header = |dim: u32, classes: u32| -> Vec<u8> {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(b"UHDM");
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&dim.to_le_bytes());
            bytes.extend_from_slice(&classes.to_le_bytes());
            bytes
        };
        // dim · 8 · classes overflows usize even on 64-bit targets.
        assert!(matches!(
            HdcModel::from_bytes(&header(u32::MAX, u32::MAX)),
            Err(HdcError::InvalidConfig { .. })
        ));
        // Huge class count with a plausible dimension: the product
        // stays representable but the payload is absent.
        assert!(matches!(
            HdcModel::from_bytes(&header(64, u32::MAX)),
            Err(HdcError::InvalidConfig { .. })
        ));
        // Huge dimension, one class.
        assert!(matches!(
            HdcModel::from_bytes(&header(u32::MAX, 1)),
            Err(HdcError::InvalidConfig { .. })
        ));
        // Degenerate shapes.
        assert!(HdcModel::from_bytes(&header(0, 3)).is_err());
        assert!(HdcModel::from_bytes(&header(64, 0)).is_err());
        // A truncated tail on an otherwise honest header.
        let mut honest = header(64, 2);
        honest.extend_from_slice(&[0u8; 8]);
        assert!(HdcModel::from_bytes(&honest).is_err());
    }

    #[test]
    fn classify_encoded_checks_dimension() {
        let (images, labels) = toy_data(5, 16, 7);
        let enc = toy_encoder(16);
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let model = HdcModel::train(&enc, data, 2).unwrap();
        let bad = Hypervector::ones(64);
        assert!(model.classify_encoded(&bad).is_err());
    }
}

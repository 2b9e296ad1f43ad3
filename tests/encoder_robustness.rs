//! Robustness of every encoder at its trust boundary: seeded property
//! fuzzing of `check_features` + `accumulate` over random-length,
//! random-byte and mutated-valid inputs.
//!
//! The contract, for each encoder family and backend: `accumulate`
//! accepts exactly the inputs `check_features` accepts, every rejection
//! is a typed size error that leaves the accumulator untouched, an
//! accumulator of the wrong dimension is a `DimensionMismatch`, and
//! nothing panics.

use std::sync::OnceLock;

use proptest::prelude::*;
use uhd::core::{
    BaselineConfig, BaselineEncoder, BitSliceAccumulator, Encoder, HdcError, LdFamily,
    MemoryBackend, NgramTextConfig, NgramTextEncoder, TabularConfig, TabularEncoder, UhdConfig,
    UhdEncoder, UhdExactEncoder,
};
use uhd::lowdisc::rng::SplitMix64;

/// Not a multiple of 64, so every mask carries padding bits.
const DIM: u32 = 130;
const PIXELS: usize = 12;

/// A small cache so the rematerialized backends derive rows into
/// scratch instead of answering everything from the stored prefix.
const TINY_CACHE: MemoryBackend = MemoryBackend::Rematerialized { cached_rows: 2 };

/// Every encoder family, on both item-memory backends where it has
/// one, built once for all cases.
fn encoders() -> &'static [(&'static str, Box<dyn Encoder>)] {
    static ENCODERS: OnceLock<Vec<(&'static str, Box<dyn Encoder>)>> = OnceLock::new();
    ENCODERS.get_or_init(|| {
        let uhd = UhdConfig::new(DIM, PIXELS);
        let baseline = BaselineConfig::new(DIM, PIXELS, 8);
        let text = NgramTextConfig {
            max_len: 24,
            ..NgramTextConfig::new(DIM)
        };
        let tabular = TabularConfig::new(DIM, 9);
        vec![
            (
                "uhd resident",
                Box::new(UhdEncoder::new(uhd.clone()).unwrap()),
            ),
            (
                "uhd rematerialized",
                Box::new(
                    UhdEncoder::new(UhdConfig {
                        backend: TINY_CACHE,
                        ..uhd
                    })
                    .unwrap(),
                ),
            ),
            (
                "uhd exact",
                Box::new(UhdExactEncoder::new(DIM, PIXELS, LdFamily::sobol()).unwrap()),
            ),
            (
                "baseline resident",
                Box::new(
                    BaselineEncoder::from_seed(baseline.clone(), 7, MemoryBackend::Resident)
                        .unwrap(),
                ),
            ),
            (
                "baseline rematerialized",
                Box::new(BaselineEncoder::from_seed(baseline, 7, TINY_CACHE).unwrap()),
            ),
            (
                "ngram text resident",
                Box::new(NgramTextEncoder::new(text.clone()).unwrap()),
            ),
            (
                "ngram text rematerialized",
                Box::new(
                    NgramTextEncoder::new(NgramTextConfig {
                        backend: TINY_CACHE,
                        ..text
                    })
                    .unwrap(),
                ),
            ),
            (
                "tabular resident",
                Box::new(TabularEncoder::new(tabular.clone()).unwrap()),
            ),
            (
                "tabular rematerialized",
                Box::new(
                    TabularEncoder::new(TabularConfig {
                        backend: TINY_CACHE,
                        ..tabular
                    })
                    .unwrap(),
                ),
            ),
        ]
    })
}

fn random_byte(rng: &mut SplitMix64) -> u8 {
    (rng.next_u64() >> 56) as u8
}

/// An input for `encoder`: random bytes of a random length in
/// `0..=2·features`, or a sample of exactly `features` bytes put
/// through a few byte flips, truncations, extensions and duplications.
fn input(encoder: &dyn Encoder, mutated: bool, rng: &mut SplitMix64) -> Vec<u8> {
    let features = encoder.features();
    if !mutated {
        let len = (rng.next_u64() % (2 * features as u64 + 1)) as usize;
        return (0..len).map(|_| random_byte(rng)).collect();
    }
    let mut bytes: Vec<u8> = (0..features).map(|_| random_byte(rng)).collect();
    for _ in 0..rng.next_u64() % 4 {
        let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
        match rng.next_u64() % 4 {
            0 if at < bytes.len() => bytes[at] ^= random_byte(rng) | 1,
            1 => bytes.truncate(at),
            2 => bytes.insert(at, random_byte(rng)),
            _ => bytes.extend_from_within(..at),
        }
    }
    bytes
}

/// A typed rejection of the input's size.
fn is_size_error(e: &HdcError) -> bool {
    matches!(
        e,
        HdcError::ImageSizeMismatch { .. } | HdcError::FeatureCountOutOfRange { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn accumulate_accepts_exactly_what_check_features_accepts(
        seed in any::<u64>(),
        mutated in any::<bool>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        for (name, encoder) in encoders() {
            let encoder = encoder.as_ref();
            let bytes = input(encoder, mutated, &mut rng);
            let checked = encoder.check_features(&bytes);
            let mut acc = BitSliceAccumulator::new(DIM);
            let accumulated = encoder.accumulate(&bytes, &mut acc);
            prop_assert_eq!(checked.is_ok(), accumulated.is_ok(), "{} at {} bytes", name, bytes.len());
            if let Err(e) = &checked {
                prop_assert!(is_size_error(e), "{}: untyped check rejection {:?}", name, e);
            }
            if let Err(e) = &accumulated {
                prop_assert!(is_size_error(e), "{}: untyped accumulate rejection {:?}", name, e);
                prop_assert_eq!(acc.total(), 0, "{}: a rejected sample was bundled", name);
            }

            // The same input into an accumulator of another dimension.
            let mut wrong = BitSliceAccumulator::new(DIM + 1);
            match encoder.accumulate(&bytes, &mut wrong) {
                Ok(()) => prop_assert!(false, "{}: accepted a D+1 accumulator", name),
                Err(HdcError::DimensionMismatch { .. }) => {}
                Err(e) => prop_assert!(
                    checked.is_err() && is_size_error(&e),
                    "{}: wrong-dimension accumulator gave {:?}",
                    name,
                    e
                ),
            }
            prop_assert_eq!(wrong.total(), 0, "{}: bundled into a D+1 accumulator", name);
        }
    }
}

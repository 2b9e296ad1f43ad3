//! A gated encoder: every `accumulate` parks until the test opens the
//! gate. A serving test uses it to hold a registry permit inside an
//! encode and fill the line behind it deterministically.

use std::sync::{Arc, Condvar, Mutex};
use uhd_core::{BitSliceAccumulator, Encoder, EncoderProfile, HdcError};

/// The shared open/closed switch of a [`GateEncoder`].
#[derive(Debug, Default)]
pub struct Latch {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Latch {
    /// Open the gate for good, releasing every parked encode.
    pub fn open(&self) {
        *self.open.lock().expect("latch lock") = true;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let open = self.open.lock().expect("latch lock");
        drop(
            self.opened
                .wait_while(open, |open| !*open)
                .expect("latch lock"),
        );
    }
}

/// Delegates to `inner`, but parks `accumulate` until its [`Latch`]
/// opens.
#[derive(Debug)]
pub struct GateEncoder<E> {
    inner: E,
    latch: Arc<Latch>,
}

impl<E: Encoder> GateEncoder<E> {
    /// A closed gate around `inner`, and the latch that opens it.
    pub fn new(inner: E) -> (Self, Arc<Latch>) {
        let latch = Arc::new(Latch::default());
        let gated = GateEncoder {
            inner,
            latch: Arc::clone(&latch),
        };
        (gated, latch)
    }
}

impl<E: Encoder> Encoder for GateEncoder<E> {
    fn dim(&self) -> u32 {
        self.inner.dim()
    }
    fn features(&self) -> usize {
        self.inner.features()
    }
    fn check_features(&self, input: &[u8]) -> Result<(), HdcError> {
        self.inner.check_features(input)
    }
    fn accumulate(&self, input: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError> {
        self.latch.wait();
        self.inner.accumulate(input, acc)
    }
    fn profile(&self) -> EncoderProfile {
        self.inner.profile()
    }
}

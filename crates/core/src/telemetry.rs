//! Opt-in kernel op counters behind the `telemetry` cargo feature.
//!
//! The SIMD kernels in [`crate::kernels`] are the hot path of the
//! whole stack; this module lets the serving layer attribute work to
//! them (how many XOR+popcount passes, how many AM sweeps) without
//! `uhd-core` depending on the observability crate. With the feature
//! **off** (the default for standalone `uhd-core` builds) every hook
//! compiles to an empty inline function and the counters read as
//! zero. With the feature **on** (enabled by `uhd-serve`) each kernel
//! entry point does one relaxed `fetch_add` — into a *thread-striped*,
//! cache-line-padded counter bank, not a single shared cell. The fine
//! op [`crate::Kernel::xor_popcount`] fires dozens to thousands of
//! times per query from every worker shard at once, and
//! [`crate::Kernel::bundle`] about once per encoded image; a lone
//! process-global atomic turns that into cross-core cache-line
//! ping-pong that measurably slows the sharded engine, while
//! per-thread stripes keep the increment uncontended. [`op_counts`]
//! sums the stripes.

#[cfg(feature = "telemetry")]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The kernel entry points that are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOp {
    /// [`crate::Kernel::xor_popcount`] — one Hamming distance.
    XorPopcount,
    /// [`crate::Kernel::popcount`] — one set-bit count.
    Popcount,
    /// [`crate::Kernel::hamming_to_all`] — one all-classes AM sweep.
    HammingSweep,
    /// [`crate::Kernel::bundle`] — one batch of masks bundled.
    Bundle,
}

/// A point-in-time copy of the process-global kernel op counters.
/// All-zero when the `telemetry` feature is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelOpCounts {
    /// Calls to [`crate::Kernel::xor_popcount`].
    pub xor_popcount: u64,
    /// Calls to [`crate::Kernel::popcount`].
    pub popcount: u64,
    /// Calls to [`crate::Kernel::hamming_to_all`].
    pub hamming_sweeps: u64,
    /// Calls to [`crate::Kernel::bundle`].
    pub bundles: u64,
}

impl KernelOpCounts {
    /// The counts as `(op_name, count)` pairs, for generic exposition.
    #[must_use]
    pub fn entries(&self) -> [(&'static str, u64); 4] {
        [
            ("xor_popcount", self.xor_popcount),
            ("popcount", self.popcount),
            ("hamming_sweep", self.hamming_sweeps),
            ("bundle", self.bundles),
        ]
    }

    /// Total counted kernel invocations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.xor_popcount + self.popcount + self.hamming_sweeps + self.bundles
    }
}

/// Whether kernel op counting is compiled in.
#[must_use]
pub fn enabled() -> bool {
    cfg!(feature = "telemetry")
}

/// How many independent counter banks threads are spread over. Eight
/// covers the permit counts the serving registry runs (power of two so the
/// round-robin assignment is a mask).
#[cfg(feature = "telemetry")]
const STRIPES: usize = 8;

/// One bank of op counters, padded to its own pair of cache lines so
/// neighbouring stripes never share (128 covers adjacent-line
/// prefetching on x86).
#[cfg(feature = "telemetry")]
#[repr(align(128))]
struct Stripe {
    xor_popcount: AtomicU64,
    popcount: AtomicU64,
    hamming_sweeps: AtomicU64,
    bundles: AtomicU64,
}

#[cfg(feature = "telemetry")]
static COUNTS: [Stripe; STRIPES] = [const {
    Stripe {
        xor_popcount: AtomicU64::new(0),
        popcount: AtomicU64::new(0),
        hamming_sweeps: AtomicU64::new(0),
        bundles: AtomicU64::new(0),
    }
}; STRIPES];

#[cfg(feature = "telemetry")]
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

#[cfg(feature = "telemetry")]
thread_local! {
    /// The stripe this thread increments, assigned round-robin at
    /// first use so concurrently spawned shards land on distinct
    /// cache lines.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
}

/// Count one kernel invocation (compiled out without `telemetry`).
#[cfg(feature = "telemetry")]
pub(crate) fn record_op(op: KernelOp) {
    STRIPE.with(|&slot| {
        let stripe = &COUNTS[slot];
        let cell = match op {
            KernelOp::XorPopcount => &stripe.xor_popcount,
            KernelOp::Popcount => &stripe.popcount,
            KernelOp::HammingSweep => &stripe.hamming_sweeps,
            KernelOp::Bundle => &stripe.bundles,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    });
}

/// Count one kernel invocation (compiled out without `telemetry`).
#[cfg(not(feature = "telemetry"))]
#[inline(always)]
#[allow(clippy::missing_const_for_fn)]
pub(crate) fn record_op(_op: KernelOp) {}

/// Read the current process-global counts (zeros when the feature is
/// off). The counters are cumulative for the process lifetime; take
/// two readings and subtract to attribute work to an interval.
#[must_use]
pub fn op_counts() -> KernelOpCounts {
    #[cfg(feature = "telemetry")]
    {
        COUNTS
            .iter()
            .fold(KernelOpCounts::default(), |acc, s| KernelOpCounts {
                xor_popcount: acc.xor_popcount + s.xor_popcount.load(Ordering::Relaxed),
                popcount: acc.popcount + s.popcount.load(Ordering::Relaxed),
                hamming_sweeps: acc.hamming_sweeps + s.hamming_sweeps.load(Ordering::Relaxed),
                bundles: acc.bundles + s.bundles.load(Ordering::Relaxed),
            })
    }
    #[cfg(not(feature = "telemetry"))]
    {
        KernelOpCounts::default()
    }
}

#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;
    use crate::Kernel;

    #[test]
    fn kernel_calls_are_counted() {
        // Counters are process-global and other tests run in parallel,
        // so assert deltas from direct calls, not absolute values.
        let before = op_counts();
        let k = Kernel::scalar();
        let a = [0xAAu64; 8];
        let b = [0x55u64; 8];
        let _ = k.xor_popcount(&a, &b);
        let _ = k.popcount(&a);
        let mut out = [0u32; 2];
        k.hamming_to_all(&[0u64; 16], 2, &a, &mut out);
        let mut planes = [0u64; 5];
        k.bundle(&mut planes, 1, &[&a[..1]; crate::accumulator::BUNDLE_BLOCK]);
        let after = op_counts();
        assert!(after.xor_popcount > before.xor_popcount);
        assert!(after.popcount > before.popcount);
        assert!(after.hamming_sweeps > before.hamming_sweeps);
        assert!(after.bundles > before.bundles);
        assert!(after.total() >= before.total() + 4);
        assert!(enabled());
        let names: Vec<&str> = after.entries().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["xor_popcount", "popcount", "hamming_sweep", "bundle"]
        );
    }
}

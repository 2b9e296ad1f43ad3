//! Kernel op counters for the two served kernels.
//!
//! The serving layer attributes work to [`crate::Kernel::hamming_to_all`]
//! (one all-classes sweep per classify) and [`crate::Kernel::bundle`]
//! (about one per encoded sample) without `uhd-core` depending on the
//! observability crate. Each kernel entry point does one relaxed
//! `fetch_add` — into a *thread-striped*, cache-line-padded counter
//! bank, not a single shared cell. Every permit of the registry bundles
//! and sweeps at once; a lone process-global atomic turns that into
//! cross-core cache-line ping-pong, while per-thread stripes keep the
//! increment uncontended. [`op_counts`] sums the stripes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The kernel entry points that are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOp {
    /// [`crate::Kernel::hamming_to_all`] — one all-classes AM sweep.
    HammingSweep,
    /// [`crate::Kernel::bundle`] — one batch of masks bundled.
    Bundle,
}

/// A point-in-time copy of the process-global kernel op counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelOpCounts {
    /// Calls to [`crate::Kernel::hamming_to_all`].
    pub hamming_sweeps: u64,
    /// Calls to [`crate::Kernel::bundle`].
    pub bundles: u64,
}

impl KernelOpCounts {
    /// The counts as `(op_name, count)` pairs, for generic exposition.
    #[must_use]
    pub fn entries(&self) -> [(&'static str, u64); 2] {
        [
            ("hamming_sweep", self.hamming_sweeps),
            ("bundle", self.bundles),
        ]
    }

    /// Total counted kernel invocations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hamming_sweeps + self.bundles
    }
}

/// How many independent counter banks threads are spread over. Eight
/// covers the permit counts the serving registry runs (power of two so the
/// round-robin assignment is a mask).
const STRIPES: usize = 8;

/// One bank of op counters, padded to its own pair of cache lines so
/// neighbouring stripes never share (128 covers adjacent-line
/// prefetching on x86).
#[repr(align(128))]
struct Stripe {
    hamming_sweeps: AtomicU64,
    bundles: AtomicU64,
}

static COUNTS: [Stripe; STRIPES] = [const {
    Stripe {
        hamming_sweeps: AtomicU64::new(0),
        bundles: AtomicU64::new(0),
    }
}; STRIPES];

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The stripe this thread increments, assigned round-robin at
    /// first use so concurrently spawned shards land on distinct
    /// cache lines.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
}

/// Count one kernel invocation.
pub(crate) fn record_op(op: KernelOp) {
    STRIPE.with(|&slot| {
        let stripe = &COUNTS[slot];
        let cell = match op {
            KernelOp::HammingSweep => &stripe.hamming_sweeps,
            KernelOp::Bundle => &stripe.bundles,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    });
}

/// Read the current process-global counts. The counters are cumulative
/// for the process lifetime; take two readings and subtract to
/// attribute work to an interval.
#[must_use]
pub fn op_counts() -> KernelOpCounts {
    COUNTS
        .iter()
        .fold(KernelOpCounts::default(), |acc, s| KernelOpCounts {
            hamming_sweeps: acc.hamming_sweeps + s.hamming_sweeps.load(Ordering::Relaxed),
            bundles: acc.bundles + s.bundles.load(Ordering::Relaxed),
        })
}

#[cfg(test)]
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
        let mut out = [0u32; 2];
        k.hamming_to_all(&[0u64; 16], 2, &a, &mut out);
        let mut planes = [0u64; 5];
        k.bundle(&mut planes, 1, &[&a[..1]; crate::accumulator::BUNDLE_BLOCK]);
        let after = op_counts();
        assert!(after.hamming_sweeps > before.hamming_sweeps);
        assert!(after.bundles > before.bundles);
        assert!(after.total() >= before.total() + 2);
        let names: Vec<&str> = after.entries().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["hamming_sweep", "bundle"]);
    }
}

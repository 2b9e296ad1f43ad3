//! The registry's admission gate: a fixed set of permits behind one
//! lock.
//!
//! A caller takes a permit and does its work on its own thread; a
//! caller finding every permit out waits in line until one comes back.
//! The line is capped at the admission threshold under the same lock,
//! so shedding is exact: concurrent arrivals cannot race past the cap
//! together. Each permit owns a value (the registry's per-lane scratch
//! buffers), so holding a permit is all the synchronization a request
//! needs, and the permit's drop guard hands it back even on unwind.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use uhd_obs::Gauge;

/// Why [`Gate::acquire`] turned a caller away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rejected {
    /// The gate is closed; no further work is accepted.
    Closed,
    /// Every permit was out and the line already held the admission
    /// threshold.
    Shed {
        /// Line length observed under the lock.
        depth: usize,
    },
}

#[derive(Debug)]
struct GateState<P> {
    free: Vec<P>,
    permits: usize,
    waiting: usize,
    closed: bool,
}

/// `permits.len()` permits, a capped line, and a close that drains.
#[derive(Debug)]
pub(crate) struct Gate<P> {
    state: Mutex<GateState<P>>,
    /// Signalled when a permit comes back to a gate with waiters.
    returned: Condvar,
    /// Line length and its high-water mark, written under the lock so
    /// the last write is always the current depth.
    depth: Gauge,
    high_water: Gauge,
}

impl<P> Gate<P> {
    /// An open gate over `permits`, mirroring the line length into
    /// `depth` and its high-water mark into `high_water`.
    pub(crate) fn new(permits: Vec<P>, depth: Gauge, high_water: Gauge) -> Self {
        Gate {
            state: Mutex::new(GateState {
                permits: permits.len(),
                free: permits,
                waiting: 0,
                closed: false,
            }),
            returned: Condvar::new(),
            depth,
            high_water,
        }
    }

    // The state is only changed by this module's short, non-panicking
    // critical sections, so a poisoned lock still guards coherent state.
    fn lock(&self) -> MutexGuard<'_, GateState<P>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a permit, waiting in line while every permit is out.
    /// `admitted` runs under the lock once the caller is admitted
    /// (holding a permit or in line), before any wait.
    pub(crate) fn acquire(
        &self,
        shed_above: usize,
        admitted: impl FnOnce(),
    ) -> Result<Permit<'_, P>, Rejected> {
        let mut state = self.lock();
        if state.closed {
            return Err(Rejected::Closed);
        }
        if state.free.is_empty() {
            if state.waiting >= shed_above {
                return Err(Rejected::Shed {
                    depth: state.waiting,
                });
            }
            admitted();
            state.waiting += 1;
            self.depth.set(state.waiting as u64);
            self.high_water.set_max(state.waiting as u64);
            state = self
                .returned
                .wait_while(state, |s| s.free.is_empty())
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
            self.depth.set(state.waiting as u64);
        } else {
            admitted();
        }
        let value = state.free.pop().expect("a permit is free");
        Ok(Permit {
            gate: self,
            value: Some(value),
        })
    }

    /// Close the gate: later arrivals get [`Rejected::Closed`]. Returns
    /// once every caller already in line has been served and every
    /// permit is back. Idempotent.
    pub(crate) fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(
            self.returned
                .wait_while(state, |s| s.waiting > 0 || s.free.len() < s.permits)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// Callers currently waiting in line.
    pub(crate) fn depth(&self) -> usize {
        self.lock().waiting
    }
}

/// A held permit; dropping it returns the permit to its gate.
#[derive(Debug)]
pub(crate) struct Permit<'g, P> {
    gate: &'g Gate<P>,
    value: Option<P>,
}

impl<P> Deref for Permit<'_, P> {
    type Target = P;
    fn deref(&self) -> &P {
        self.value.as_ref().expect("held until drop")
    }
}

impl<P> DerefMut for Permit<'_, P> {
    fn deref_mut(&mut self) -> &mut P {
        self.value.as_mut().expect("held until drop")
    }
}

impl<P> Drop for Permit<'_, P> {
    fn drop(&mut self) {
        let mut state = self.gate.lock();
        state.free.extend(self.value.take());
        let (waiting, closed) = (state.waiting, state.closed);
        drop(state);
        // A closing gate has a second kind of waiter (`close` itself),
        // so wake everyone; otherwise one line waiter, and nobody (no
        // wake-up syscall) on the uncontended path.
        if closed {
            self.gate.returned.notify_all();
        } else if waiting > 0 {
            self.gate.returned.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhd_obs::Recorder;

    fn gate(permits: usize) -> (Gate<usize>, Gauge, Gauge) {
        let rec = Recorder::new();
        let (depth, hw) = (rec.gauge("uhd_test_depth"), rec.gauge("uhd_test_depth_hw"));
        let gate = Gate::new((0..permits).collect(), depth.clone(), hw.clone());
        (gate, depth, hw)
    }

    /// Spin until `n` callers wait in line.
    fn until_waiting(gate: &Gate<usize>, n: usize) {
        while gate.depth() != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn acquire_blocks_until_a_permit_is_returned() {
        let (gate, _, _) = gate(1);
        let held = gate.acquire(usize::MAX, || {}).unwrap();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| *gate.acquire(usize::MAX, || {}).unwrap());
            until_waiting(&gate, 1);
            assert!(!waiter.is_finished(), "no permit is free yet");
            drop(held);
            assert_eq!(waiter.join().unwrap(), 0, "the returned permit");
        });
        assert_eq!(gate.depth(), 0);
    }

    #[test]
    fn acquire_sheds_past_the_threshold() {
        let (gate, _, _) = gate(1);
        let mut admitted = 0;
        let held = gate.acquire(1, || admitted += 1).unwrap();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.acquire(1, || {}).map(|p| *p));
            until_waiting(&gate, 1);
            // The line is full: shed without waiting, and uncounted.
            assert_eq!(
                gate.acquire(1, || admitted += 1).err(),
                Some(Rejected::Shed { depth: 1 })
            );
            drop(held);
            assert_eq!(waiter.join().unwrap(), Ok(0));
        });
        assert_eq!(admitted, 1);
        // An emptied line reopens admission.
        assert!(gate.acquire(1, || {}).is_ok());
    }

    #[test]
    fn close_rejects_new_arrivals_but_serves_the_line() {
        let (gate, _, _) = gate(1);
        let held = gate.acquire(usize::MAX, || {}).unwrap();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.acquire(usize::MAX, || {}).map(|p| *p));
            until_waiting(&gate, 1);
            let closer = scope.spawn(|| gate.close());
            // Shed (the line is full) until the close lands.
            while gate.acquire(1, || {}).err() != Some(Rejected::Closed) {
                std::thread::yield_now();
            }
            assert!(!closer.is_finished(), "a permit is still out");
            drop(held);
            assert_eq!(waiter.join().unwrap(), Ok(0), "the line is served");
            closer.join().unwrap();
        });
        assert_eq!(gate.depth(), 0);
        gate.close();
    }

    #[test]
    fn gauges_track_line_depth_and_high_water() {
        let (gate, depth, hw) = gate(1);
        let held = gate.acquire(usize::MAX, || {}).unwrap();
        assert_eq!(hw.get(), 0, "a free permit means no line");
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| drop(gate.acquire(usize::MAX, || {}).unwrap())))
                .collect();
            until_waiting(&gate, 2);
            assert_eq!((depth.get(), hw.get()), (2, 2));
            drop(held);
            for waiter in waiters {
                waiter.join().unwrap();
            }
        });
        assert_eq!(depth.get(), 0, "the last waiter out publishes 0");
        assert_eq!(hw.get(), 2, "high-water never recedes");
    }
}

//! The micro-batching request queue shared by the registry's worker
//! shards.
//!
//! A `Mutex<VecDeque>` + `Condvar` batch queue. Producers push single
//! items, consumers pop *batches* — draining everything available (up
//! to the consumer's batch cap) under one lock acquisition is what
//! turns a stream of independent items into micro-batches: while a
//! consumer is busy, new arrivals pile up and the next pop takes them
//! together, amortizing the model-snapshot and wake-up costs over the
//! whole batch.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use uhd_obs::Gauge;

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Why [`BatchQueue::push_admitted`] rejected an item. Rejection is
/// terminal for the item (it is dropped, before any ticket for it has
/// been handed out), so the variants carry diagnostics, not the item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rejected {
    /// The queue is closed; no further work is accepted.
    Closed,
    /// The queue already held at least the admission threshold; the
    /// item was shed without blocking. `depth` is the depth observed
    /// under the lock (for the caller's error report).
    Shed {
        /// Queue depth at the moment of rejection.
        depth: usize,
    },
}

/// Lock-protected, condvar-signalled multi-producer multi-consumer
/// queue with batch pops and load-shedding admission.
#[derive(Debug)]
pub(crate) struct BatchQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Signals consumers: items are available (or the queue closed).
    available: Condvar,
    /// Optional telemetry: current depth and its high-water mark,
    /// refreshed on every push/pop (see [`BatchQueue::with_gauges`]).
    gauges: Option<(Gauge, Gauge)>,
}

impl<T> BatchQueue<T> {
    /// An empty, open queue.
    pub(crate) fn new() -> Self {
        BatchQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            gauges: None,
        }
    }

    /// Mirror the queue depth into `depth` and its high-water mark
    /// into `high_water` on every push and pop.
    pub(crate) fn with_gauges(mut self, depth: Gauge, high_water: Gauge) -> Self {
        self.gauges = Some((depth, high_water));
        self
    }

    /// Publish `len` to the gauges (called right after a push or pop,
    /// outside the queue lock — a stale write loses only freshness,
    /// never the monotone high-water).
    fn update_gauges(&self, len: usize) {
        if let Some((depth, high_water)) = &self.gauges {
            depth.set(len as u64);
            high_water.set_max(len as u64);
        }
    }

    /// Enqueue one item **without blocking**, shedding it when the
    /// queue already holds `shed_above` or more items — the admission
    /// control half of load shedding: past the threshold a producer
    /// gets an immediate rejection instead of growing the queue
    /// unboundedly. The depth check and the insert happen under one
    /// lock acquisition, so concurrent producers cannot race past the
    /// threshold together.
    pub(crate) fn push_admitted(&self, item: T, shed_above: usize) -> Result<(), Rejected> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err(Rejected::Closed);
        }
        let depth = state.items.len();
        if depth >= shed_above {
            return Err(Rejected::Shed { depth });
        }
        state.items.push_back(item);
        let len = state.items.len();
        drop(state);
        self.update_gauges(len);
        self.available.notify_one();
        Ok(())
    }

    /// Block until items are available, then drain up to `max` of them
    /// into `out`. Returns `false` once the queue is closed *and*
    /// empty — the consumer-shutdown signal; pending items are always
    /// drained first.
    pub(crate) fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        let mut state = self.state.lock().expect("queue lock poisoned");
        while state.items.is_empty() {
            if state.closed {
                // Publish the terminal depth before the consumer exits.
                // Gauge writes race outside the lock on the hot path (a
                // stale depth is refreshed by the next push/pop), but
                // there *is* no next update after shutdown — without
                // this, a final scrape could freeze the depth gauge at
                // whatever stale value lost the last race.
                drop(state);
                self.update_gauges(0);
                return false;
            }
            state = self.available.wait(state).expect("queue lock poisoned");
        }
        let take = state.items.len().min(max);
        out.extend(state.items.drain(..take));
        // More work left: wake another consumer to run concurrently.
        if !state.items.is_empty() {
            self.available.notify_one();
        }
        let len = state.items.len();
        drop(state);
        self.update_gauges(len);
        true
    }

    /// Close the queue and wake every consumer: producers see the
    /// rejection, consumers drain the remaining items and exit.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("queue lock poisoned");
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// Items currently waiting (diagnostics only).
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enqueue `n` items with admission disabled.
    fn push_n(q: &BatchQueue<u32>, n: u32) {
        for item in 0..n {
            q.push_admitted(item, usize::MAX).unwrap();
        }
    }

    #[test]
    fn pops_are_batched_up_to_max() {
        let q = BatchQueue::new();
        push_n(&q, 5);
        let mut batch = Vec::new();
        assert!(q.pop_batch(3, &mut batch));
        assert_eq!(batch, [0, 1, 2]);
        batch.clear();
        assert!(q.pop_batch(3, &mut batch));
        assert_eq!(batch, [3, 4]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_rejects_new_pushes_but_drains_pending() {
        let q = BatchQueue::new();
        push_n(&q, 1);
        q.close();
        assert_eq!(q.push_admitted(1, usize::MAX), Err(Rejected::Closed));
        let mut batch = Vec::new();
        assert!(q.pop_batch(8, &mut batch), "pending work is drained");
        assert_eq!(batch.len(), 1);
        batch.clear();
        assert!(!q.pop_batch(8, &mut batch), "then the queue reports closed");
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q = BatchQueue::<u32>::new();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let mut batch = Vec::new();
                q.pop_batch(4, &mut batch)
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            assert!(!handle.join().unwrap());
        });
    }

    #[test]
    fn gauges_track_depth_and_high_water() {
        let rec = uhd_obs::Recorder::new(uhd_obs::TraceLevel::Off);
        let depth = rec.gauge("uhd_test_depth");
        let hw = rec.gauge("uhd_test_depth_hw");
        let q = BatchQueue::new().with_gauges(depth.clone(), hw.clone());
        push_n(&q, 5);
        assert_eq!(depth.get(), 5);
        assert_eq!(hw.get(), 5);
        let mut batch = Vec::new();
        assert!(q.pop_batch(3, &mut batch));
        assert_eq!(depth.get(), 2, "pop publishes the remaining depth");
        assert_eq!(hw.get(), 5, "high-water never recedes");
        batch.clear();
        assert!(q.pop_batch(3, &mut batch));
        assert_eq!(depth.get(), 0);
        assert_eq!(hw.get(), 5);
    }

    #[test]
    fn push_admitted_sheds_past_the_threshold() {
        let q = BatchQueue::new();
        push_n(&q, 2);
        assert!(q.push_admitted(2, 3).is_ok(), "below the threshold");
        assert_eq!(q.push_admitted(3, 3), Err(Rejected::Shed { depth: 3 }));
        // Draining reopens admission.
        let mut batch = Vec::new();
        assert!(q.pop_batch(2, &mut batch));
        assert!(q.push_admitted(4, 3).is_ok());
        q.close();
        assert_eq!(q.push_admitted(5, 3), Err(Rejected::Closed));
    }

    #[test]
    fn terminal_pop_republishes_the_depth_gauge() {
        // Regression: the closed-and-empty early return used to skip
        // update_gauges, so a stale racing write (gauge updates happen
        // outside the queue lock) could freeze the depth gauge at a
        // nonzero value forever — exactly what a final post-shutdown
        // metric scrape reads.
        let rec = uhd_obs::Recorder::new(uhd_obs::TraceLevel::Off);
        let depth = rec.gauge("uhd_test_depth");
        let hw = rec.gauge("uhd_test_depth_hw");
        let q = BatchQueue::new().with_gauges(depth.clone(), hw.clone());
        push_n(&q, 1);
        let mut batch = Vec::new();
        assert!(q.pop_batch(8, &mut batch));
        // Simulate the lost race: a delayed stale write lands last.
        depth.set(7);
        q.close();
        assert!(!q.pop_batch(8, &mut batch), "queue is closed and empty");
        assert_eq!(
            depth.get(),
            0,
            "consumer exit must publish the terminal depth"
        );
        assert_eq!(
            hw.get(),
            1,
            "high-water is untouched by the terminal publish"
        );
    }
}

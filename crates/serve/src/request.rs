//! Request/response plumbing: completion slots and tickets.

use crate::error::ServeError;
use std::sync::{Arc, Condvar, Mutex};

/// One answered classification request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Response {
    /// Winning class index.
    pub class: usize,
    /// Cosine similarity of the winning class (`1 − 2h/D`).
    pub score: f64,
    /// Generation of the model that answered this request. Every
    /// request in a micro-batch is answered by a single generation, so
    /// a response can always be attributed to exactly one hot-swapped
    /// model.
    pub generation: u64,
}

/// Single-assignment completion slot shared between a worker and the
/// ticket holder.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    result: Mutex<Option<Result<Response, ServeError>>>,
    ready: Condvar,
}

impl Slot {
    /// Fill the slot and wake the waiter. Later calls are ignored
    /// (single assignment).
    pub(crate) fn complete(&self, outcome: Result<Response, ServeError>) {
        let mut guard = self.result.lock().expect("slot lock poisoned");
        if guard.is_none() {
            *guard = Some(outcome);
            self.ready.notify_all();
        }
    }

    fn wait(&self) -> Result<Response, ServeError> {
        let mut guard = self.result.lock().expect("slot lock poisoned");
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self.ready.wait(guard).expect("slot lock poisoned");
        }
    }
}

/// A pending classification: redeem with [`Ticket::wait`].
///
/// Submitting decouples enqueueing from waiting, so a client can push a
/// whole batch into the registry (letting workers micro-batch it)
/// before blocking on the first answer.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) slot: Arc<Slot>,
}

impl Ticket {
    /// Block until the request is answered.
    ///
    /// # Errors
    ///
    /// [`ServeError::Core`] when encoding or classification failed for
    /// this request.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.slot.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_round_trips_and_is_single_assignment() {
        let slot = Arc::new(Slot::default());
        let ticket = Ticket { slot: slot.clone() };
        slot.complete(Ok(Response {
            class: 3,
            score: 0.5,
            generation: 7,
        }));
        slot.complete(Err(ServeError::Closed)); // ignored: already filled
        let r = ticket.wait().unwrap();
        assert_eq!((r.class, r.generation), (3, 7));
    }

    #[test]
    fn wait_blocks_until_completion() {
        let slot = Arc::new(Slot::default());
        let ticket = Ticket { slot: slot.clone() };
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                slot.complete(Ok(Response {
                    class: 1,
                    score: 1.0,
                    generation: 0,
                }));
            });
            assert_eq!(ticket.wait().unwrap().class, 1);
        });
    }
}

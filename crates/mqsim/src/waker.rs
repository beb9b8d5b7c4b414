//! Ready-waker: a broker-wide callback fired whenever a queue *gains*
//! deliverable work.
//!
//! The event-driven net tier (`crates/net`) dispatches deliveries from its
//! reactor loops instead of per-subscription pump threads, so it needs to
//! hear about readiness transitions that happen outside its own request
//! path — an in-process publisher calling
//! [`MessageBroker::publish_to_queue`](crate::MessageBroker) directly, a
//! dropped delivery being requeued, a consumer unregistering and orphaning
//! its unacked messages back onto the ready list. A [`ReadyWaker`]
//! installed with
//! [`MessageBroker::set_ready_waker`](crate::MessageBroker::set_ready_waker)
//! is invoked with the queue name at each such transition.
//!
//! Contract: the callback runs on the thread that caused the transition,
//! *after* the queue's state lock is released, and may itself call back
//! into the broker. It must be cheap and non-blocking — the intended
//! implementation sets a flag and wakes an event loop. Like the delivery
//! interceptor, the cell costs one `RwLock` read on the hot path when
//! nothing is installed.

use std::sync::Arc;

/// Callback invoked with the queue name after the queue gains ready
/// messages. See the module docs for the exact contract.
pub type ReadyWaker = Arc<dyn Fn(&str) + Send + Sync>;

/// Shared, swappable waker slot. One cell per broker node, cloned into
/// every `QueueCore` so installing a waker after queues were declared
/// still reaches them.
#[derive(Clone, Default)]
pub(crate) struct WakerCell {
    slot: Arc<parking_lot::RwLock<Option<ReadyWaker>>>,
}

impl WakerCell {
    pub(crate) fn set(&self, waker: Option<ReadyWaker>) {
        *self.slot.write() = waker;
    }

    pub(crate) fn wake(&self, queue: &str) {
        let waker = self.slot.read().clone();
        if let Some(waker) = waker {
            waker(queue);
        }
    }
}

impl std::fmt::Debug for WakerCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WakerCell {{ installed: {} }}",
            self.slot.read().is_some()
        )
    }
}

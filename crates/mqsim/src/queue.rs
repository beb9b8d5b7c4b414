//! The queue core: ready list, unacked set, blocking consumers.

use crate::error::{MqError, MqResult};
use crate::interceptor::InterceptorCell;
use crate::interceptor::{DeliverFault, PublishFault};
use crate::journal::Journal;
use crate::message::{DeliveryTag, Message};
use crate::stats::{QueueStats, RateEstimator};
use crate::waker::WakerCell;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-global observability handles, resolved once per queue so the hot
/// path never touches the metric registry. All queues feed the same `mq.*`
/// metric family.
#[derive(Debug)]
struct QueueObs {
    published: Arc<obs::Counter>,
    delivered: Arc<obs::Counter>,
    acked: Arc<obs::Counter>,
    redelivered: Arc<obs::Counter>,
    queue_wait: Arc<obs::Histogram>,
}

impl QueueObs {
    fn new() -> Self {
        QueueObs {
            published: obs::counter("mq.messages_published_total"),
            delivered: obs::counter("mq.messages_delivered_total"),
            acked: obs::counter("mq.messages_acked_total"),
            redelivered: obs::counter("mq.messages_redelivered_total"),
            queue_wait: obs::histogram("mq.queue_wait_seconds"),
        }
    }

    /// Records how long a message sat in the ready list before delivery.
    fn record_wait(&self, message: &Message) {
        if let Some(enqueued) = message.enqueued_at() {
            self.queue_wait.record(enqueued.elapsed());
        }
    }
}

/// Identifier of a consumer subscribed to a queue.
pub(crate) type ConsumerId = u64;

/// One delivered entry as handed to [`Consumer`](crate::Consumer):
/// `(tag, message, redelivered)`.
pub(crate) type Delivered = (DeliveryTag, Message, bool);

/// A ready-to-deliver entry.
#[derive(Debug)]
struct ReadyEntry {
    message: Message,
    redelivered: bool,
    /// Journal id of the publish record on a durable queue; carried so the
    /// eventual ack can cancel the record.
    jid: Option<u64>,
}

/// An unacked (in-flight) entry, owned by a consumer.
#[derive(Debug)]
struct InFlight {
    message: Message,
    consumer: ConsumerId,
    jid: Option<u64>,
}

#[derive(Debug, Default)]
struct QueueState {
    ready: VecDeque<(DeliveryTag, ReadyEntry)>,
    unacked: HashMap<u64, InFlight>,
    consumers: Vec<ConsumerId>,
    waiting: usize,
    closed: bool,
    published: u64,
    delivered: u64,
    acked: u64,
    redelivered: u64,
}

/// Shared queue internals. `Consumer` handles hold an `Arc<QueueCore>`.
#[derive(Debug)]
pub(crate) struct QueueCore {
    name: String,
    state: Mutex<QueueState>,
    available: Condvar,
    next_tag: AtomicU64,
    next_consumer: AtomicU64,
    pub(crate) arrivals: RateEstimator,
    pub(crate) auto_delete: bool,
    /// The `durable` flag the queue was declared with (for redeclaration
    /// compatibility checks). The journal may still be `None` when the
    /// broker itself has no journal.
    pub(crate) durable: bool,
    /// Broker journal, set only for durable queues on a durable broker:
    /// publishes append (and wait) here, acks append fire-and-forget.
    journal: Option<Arc<Journal>>,
    interceptor: InterceptorCell,
    /// Broker-wide ready-waker, fired outside the state lock whenever the
    /// ready list gains entries (see `crate::waker`).
    waker: WakerCell,
    obs: QueueObs,
}

impl QueueCore {
    pub(crate) fn new(
        name: &str,
        auto_delete: bool,
        rate_window: Duration,
        durable: bool,
        journal: Option<Arc<Journal>>,
        interceptor: InterceptorCell,
        waker: WakerCell,
    ) -> Self {
        QueueCore {
            name: name.to_string(),
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            next_tag: AtomicU64::new(1),
            next_consumer: AtomicU64::new(1),
            arrivals: RateEstimator::new(rate_window),
            auto_delete,
            durable,
            journal,
            interceptor,
            waker,
            obs: QueueObs::new(),
        }
    }

    fn fresh_tag(&self) -> DeliveryTag {
        DeliveryTag(self.next_tag.fetch_add(1, Ordering::Relaxed))
    }

    /// Publishes a message at the back of the ready list.
    ///
    /// If a [`crate::DeliveryInterceptor`] is installed, it may divert the
    /// message: drop it, enqueue a duplicate, or cut to the front.
    pub(crate) fn push(&self, mut message: Message) -> MqResult<()> {
        message.mark_enqueued();
        let fault = match self.interceptor.get() {
            Some(hook) => hook.on_publish(&self.name, message.payload()),
            None => PublishFault::Deliver,
        };
        let mut state = self.state.lock();
        if state.closed {
            return Err(MqError::Closed);
        }
        // Durable queues journal the publish under the queue lock (record
        // order = enqueue order) and make it durable after releasing it, so
        // the first publisher to flush covers the others that journaled.
        let (jid, ticket) = match &self.journal {
            Some(journal) => {
                let (jid, ticket) = journal.record_publish(&self.name, &message)?;
                (Some(jid), Some(ticket))
            }
            None => (None, None),
        };
        let enqueued = self.apply_publish(&mut state, message, fault, jid);
        drop(state);
        self.obs.published.inc();
        self.arrivals.record();
        for _ in 0..enqueued {
            self.available.notify_one();
        }
        // Wake before the durability wait: the entry is already visible to
        // consumers (fsync gates the publisher's ack, not deliverability).
        if enqueued > 0 {
            self.waker.wake(&self.name);
        }
        match ticket {
            Some(ticket) => ticket
                .wait()
                .map_err(|e| MqError::Durability(e.to_string())),
            None => Ok(()),
        }
    }

    /// Re-enqueues a message recovered from the journal, keeping its
    /// original journal id (so a later ack cancels the original record)
    /// and *not* journaling again. Conservatively flagged redelivered: the
    /// journal does not record deliveries, so the message may have been
    /// seen before the crash.
    pub(crate) fn push_recovered(&self, mut message: Message, jid: u64) {
        message.mark_enqueued();
        let mut state = self.state.lock();
        state.published += 1;
        let tag = self.fresh_tag();
        state.ready.push_back((
            tag,
            ReadyEntry {
                message,
                redelivered: true,
                jid: Some(jid),
            },
        ));
        drop(state);
        self.obs.published.inc();
        self.available.notify_one();
        self.waker.wake(&self.name);
    }

    /// Applies one publish decision to the ready list; returns how many
    /// entries were enqueued (0 for a dropped message, 2 for a duplicate).
    /// Caller holds the state lock and handles notification.
    fn apply_publish(
        &self,
        state: &mut QueueState,
        message: Message,
        fault: PublishFault,
        jid: Option<u64>,
    ) -> usize {
        state.published += 1;
        let entry = |message| ReadyEntry {
            message,
            redelivered: false,
            jid,
        };
        match fault {
            PublishFault::Deliver => {
                let tag = self.fresh_tag();
                state.ready.push_back((tag, entry(message)));
                1
            }
            PublishFault::Drop => 0,
            PublishFault::Duplicate => {
                let first = self.fresh_tag();
                let second = self.fresh_tag();
                state.ready.push_back((first, entry(message.clone())));
                state.ready.push_back((second, entry(message)));
                2
            }
            PublishFault::Front => {
                let tag = self.fresh_tag();
                state.ready.push_front((tag, entry(message)));
                1
            }
        }
    }

    /// Pops the next deliverable ready entry, letting an installed
    /// interceptor defer entries to the back of the list. Each entry is
    /// deferred at most once per call, so this terminates even if the
    /// interceptor answers `Defer` for everything.
    fn take_ready(&self, state: &mut QueueState) -> Option<(DeliveryTag, ReadyEntry)> {
        let hook = match self.interceptor.get() {
            Some(hook) => hook,
            None => return state.ready.pop_front(),
        };
        let mut budget = state.ready.len();
        while budget > 0 {
            let (tag, entry) = state.ready.pop_front()?;
            match hook.on_deliver(&self.name, entry.message.payload()) {
                DeliverFault::Deliver => return Some((tag, entry)),
                DeliverFault::Defer => {
                    state.ready.push_back((tag, entry));
                    budget -= 1;
                }
            }
        }
        None
    }

    /// Registers a new consumer and returns its id.
    pub(crate) fn register_consumer(&self) -> MqResult<ConsumerId> {
        let id = self.next_consumer.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock();
        if state.closed {
            return Err(MqError::Closed);
        }
        state.consumers.push(id);
        Ok(id)
    }

    /// Removes a consumer; its unacked deliveries are requeued at the front.
    /// Returns `true` if the queue became consumer-less (for auto-delete).
    pub(crate) fn unregister_consumer(&self, id: ConsumerId) -> bool {
        let mut state = self.state.lock();
        state.consumers.retain(|c| *c != id);
        let orphaned: Vec<u64> = state
            .unacked
            .iter()
            .filter(|(_, f)| f.consumer == id)
            .map(|(t, _)| *t)
            .collect();
        for tag in orphaned {
            let inflight = state.unacked.remove(&tag).expect("tag just listed");
            state.redelivered += 1;
            self.obs.redelivered.inc();
            state.ready.push_front((
                DeliveryTag(tag),
                ReadyEntry {
                    message: inflight.message,
                    redelivered: true,
                    jid: inflight.jid,
                },
            ));
        }
        let empty = state.consumers.is_empty();
        let requeued = state.ready.len();
        drop(state);
        self.available.notify_all();
        if requeued > 0 {
            self.waker.wake(&self.name);
        }
        empty
    }

    /// Marks a just-popped ready entry as in flight for `consumer` and
    /// shapes it into the delivery tuple. Caller holds the state lock.
    fn deliver_entry(
        &self,
        state: &mut QueueState,
        consumer: ConsumerId,
        tag: DeliveryTag,
        entry: ReadyEntry,
    ) -> Delivered {
        state.delivered += 1;
        state.unacked.insert(
            tag.0,
            InFlight {
                message: entry.message.clone(),
                consumer,
                jid: entry.jid,
            },
        );
        self.obs.delivered.inc();
        self.obs.record_wait(&entry.message);
        (tag, entry.message, entry.redelivered)
    }

    /// Blocking receive with timeout. Returns the message, its tag and the
    /// redelivered flag.
    pub(crate) fn recv(&self, consumer: ConsumerId, timeout: Duration) -> MqResult<Delivered> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Err(MqError::Closed);
            }
            if let Some((tag, entry)) = self.take_ready(&mut state) {
                return Ok(self.deliver_entry(&mut state, consumer, tag, entry));
            }
            if Instant::now() >= deadline {
                return Err(MqError::RecvTimeout);
            }
            state.waiting += 1;
            let _ = self.available.wait_until(&mut state, deadline);
            state.waiting -= 1;
        }
    }

    /// Non-blocking receive.
    pub(crate) fn try_recv(&self, consumer: ConsumerId) -> Option<Delivered> {
        let mut state = self.state.lock();
        if state.closed {
            return None;
        }
        let (tag, entry) = self.take_ready(&mut state)?;
        Some(self.deliver_entry(&mut state, consumer, tag, entry))
    }

    /// Non-blocking batch receive: drains up to `max_n` ready entries under
    /// one lock acquisition. Returns an empty vec when nothing is ready.
    pub(crate) fn try_recv_batch(&self, consumer: ConsumerId, max_n: usize) -> Vec<Delivered> {
        let mut state = self.state.lock();
        if state.closed {
            return Vec::new();
        }
        let mut out = Vec::new();
        while out.len() < max_n {
            match self.take_ready(&mut state) {
                Some((tag, entry)) => {
                    out.push(self.deliver_entry(&mut state, consumer, tag, entry));
                }
                None => break,
            }
        }
        out
    }

    /// Acknowledges a delivery, removing it from the broker.
    pub(crate) fn ack(&self, tag: DeliveryTag) -> MqResult<()> {
        let mut state = self.state.lock();
        match state.unacked.remove(&tag.0) {
            Some(f) => {
                state.acked += 1;
                drop(state);
                self.obs.acked.inc();
                if let (Some(journal), Some(jid)) = (&self.journal, f.jid) {
                    journal.record_ack(jid);
                }
                Ok(())
            }
            None => Err(MqError::UnknownDeliveryTag(tag.0)),
        }
    }

    /// Acknowledges a batch of deliveries under one lock acquisition.
    /// Unknown tags are skipped; returns how many were actually acked.
    pub(crate) fn ack_many(&self, tags: &[DeliveryTag]) -> usize {
        if tags.is_empty() {
            return 0;
        }
        let mut state = self.state.lock();
        let mut acked = 0u64;
        let mut jids = Vec::new();
        for tag in tags {
            if let Some(f) = state.unacked.remove(&tag.0) {
                acked += 1;
                if let Some(jid) = f.jid {
                    jids.push(jid);
                }
            }
        }
        state.acked += acked;
        drop(state);
        self.obs.acked.add(acked);
        if let Some(journal) = &self.journal {
            for jid in jids {
                journal.record_ack(jid);
            }
        }
        acked as usize
    }

    /// Returns a delivery to the front of the queue (basic.reject requeue).
    pub(crate) fn requeue(&self, tag: DeliveryTag) -> MqResult<()> {
        let mut state = self.state.lock();
        match state.unacked.remove(&tag.0) {
            Some(f) => {
                state.redelivered += 1;
                self.obs.redelivered.inc();
                state.ready.push_front((
                    tag,
                    ReadyEntry {
                        message: f.message,
                        redelivered: true,
                        jid: f.jid,
                    },
                ));
                drop(state);
                self.available.notify_one();
                self.waker.wake(&self.name);
                Ok(())
            }
            None => Err(MqError::UnknownDeliveryTag(tag.0)),
        }
    }

    /// Closes the queue, waking all blocked consumers with `Closed`.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> QueueStats {
        let state = self.state.lock();
        QueueStats {
            depth: state.ready.len(),
            unacked: state.unacked.len(),
            published: state.published,
            delivered: state.delivered,
            acked: state.acked,
            redelivered: state.redelivered,
            consumers: state.consumers.len(),
            idle_consumers: state.waiting,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> QueueCore {
        QueueCore::new(
            "q",
            false,
            Duration::from_secs(10),
            false,
            None,
            Default::default(),
            Default::default(),
        )
    }

    #[test]
    fn fifo_order() {
        let queue = q();
        let c = queue.register_consumer().unwrap();
        for i in 0..5u8 {
            queue.push(Message::from_bytes(vec![i])).unwrap();
        }
        for i in 0..5u8 {
            let (tag, m, redelivered) = queue.recv(c, Duration::from_millis(10)).unwrap();
            assert_eq!(m.payload(), &[i]);
            assert!(!redelivered);
            queue.ack(tag).unwrap();
        }
        assert_eq!(queue.stats().depth, 0);
    }

    #[test]
    fn recv_times_out_when_empty() {
        let queue = q();
        let c = queue.register_consumer().unwrap();
        let err = queue.recv(c, Duration::from_millis(5)).unwrap_err();
        assert_eq!(err, MqError::RecvTimeout);
    }

    #[test]
    fn unacked_requeued_on_consumer_unregister() {
        let queue = q();
        let c = queue.register_consumer().unwrap();
        queue.push(Message::from_static(b"a")).unwrap();
        let (_tag, _m, _) = queue.recv(c, Duration::from_millis(10)).unwrap();
        assert_eq!(queue.stats().depth, 0);
        queue.unregister_consumer(c);
        assert_eq!(queue.stats().depth, 1);
        let c2 = queue.register_consumer().unwrap();
        let (_, m, redelivered) = queue.recv(c2, Duration::from_millis(10)).unwrap();
        assert_eq!(m.payload(), b"a");
        assert!(redelivered, "requeued message must be flagged redelivered");
    }

    #[test]
    fn double_ack_is_an_error() {
        let queue = q();
        let c = queue.register_consumer().unwrap();
        queue.push(Message::from_static(b"a")).unwrap();
        let (tag, ..) = queue.recv(c, Duration::from_millis(10)).unwrap();
        queue.ack(tag).unwrap();
        assert!(matches!(
            queue.ack(tag),
            Err(MqError::UnknownDeliveryTag(_))
        ));
    }

    #[test]
    fn requeue_puts_message_at_front() {
        let queue = q();
        let c = queue.register_consumer().unwrap();
        queue.push(Message::from_static(b"first")).unwrap();
        queue.push(Message::from_static(b"second")).unwrap();
        let (tag, m, ..) = queue.recv(c, Duration::from_millis(10)).unwrap();
        assert_eq!(m.payload(), b"first");
        queue.requeue(tag).unwrap();
        let (_, m2, redelivered) = queue.recv(c, Duration::from_millis(10)).unwrap();
        assert_eq!(m2.payload(), b"first", "requeued message redelivered first");
        assert!(redelivered);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let queue = std::sync::Arc::new(q());
        let c = queue.register_consumer().unwrap();
        let q2 = queue.clone();
        let h = std::thread::spawn(move || q2.recv(c, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert_eq!(h.join().unwrap().unwrap_err(), MqError::Closed);
    }

    #[test]
    fn stats_track_counts() {
        let queue = q();
        let c = queue.register_consumer().unwrap();
        queue.push(Message::from_static(b"a")).unwrap();
        queue.push(Message::from_static(b"b")).unwrap();
        let (tag, ..) = queue.recv(c, Duration::from_millis(10)).unwrap();
        queue.ack(tag).unwrap();
        let s = queue.stats();
        assert_eq!(s.published, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.acked, 1);
        assert_eq!(s.depth, 1);
        assert_eq!(s.unacked, 0);
        assert_eq!(s.consumers, 1);
    }

    #[test]
    fn recv_batch_respects_max_n() {
        let queue = q();
        let c = queue.register_consumer().unwrap();
        for i in 0..6u8 {
            queue.push(Message::from_bytes(vec![i])).unwrap();
        }
        let first = queue.try_recv_batch(c, 4);
        assert_eq!(first.len(), 4);
        for (i, (_, m, redelivered)) in first.iter().enumerate() {
            assert_eq!(m.payload(), &[i as u8]);
            assert!(!redelivered);
        }
        let rest = queue.try_recv_batch(c, 4);
        assert_eq!(rest.len(), 2);
        assert!(queue.try_recv_batch(c, 4).is_empty());
    }

    #[test]
    fn ack_many_skips_unknown_tags() {
        let queue = q();
        let c = queue.register_consumer().unwrap();
        for i in 0..3u8 {
            queue.push(Message::from_bytes(vec![i])).unwrap();
        }
        let got = queue.try_recv_batch(c, 8);
        let mut tags: Vec<DeliveryTag> = got.iter().map(|(t, ..)| *t).collect();
        tags.push(DeliveryTag(9999));
        assert_eq!(queue.ack_many(&tags), 3);
        assert_eq!(queue.stats().acked, 3);
        assert_eq!(queue.stats().unacked, 0);
        assert_eq!(queue.ack_many(&tags), 0, "second ack finds nothing");
    }
}

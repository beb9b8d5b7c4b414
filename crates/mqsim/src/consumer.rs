//! Consumer handles and deliveries.

use crate::error::MqResult;
use crate::message::{DeliveryTag, Message};
use crate::queue::{ConsumerId, QueueCore};
use std::sync::Arc;
use std::time::Duration;

/// A subscription to a queue.
///
/// Many consumers can subscribe to the same queue; each message is delivered
/// to exactly one of them (competing consumers). Dropping a `Consumer`
/// requeues all of its unacknowledged deliveries, which is how a crashed
/// server object's in-flight invocations get redispatched (paper §3.4).
#[derive(Debug)]
pub struct Consumer {
    queue: Arc<QueueCore>,
    id: ConsumerId,
}

impl Consumer {
    pub(crate) fn new(queue: Arc<QueueCore>, id: ConsumerId) -> Self {
        Consumer { queue, id }
    }

    /// Blocks until a message is available or the timeout elapses.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MqError::RecvTimeout`] on timeout and
    /// [`crate::MqError::Closed`] if the queue was deleted.
    pub fn recv_timeout(&self, timeout: Duration) -> MqResult<Delivery> {
        let (tag, message, redelivered) = self.queue.recv(self.id, timeout)?;
        Ok(Delivery {
            message,
            tag,
            redelivered,
            queue: self.queue.clone(),
            acked: false,
        })
    }

    /// Returns a message immediately if one is ready.
    pub fn try_recv(&self) -> Option<Delivery> {
        let (tag, message, redelivered) = self.queue.try_recv(self.id)?;
        Some(Delivery {
            message,
            tag,
            redelivered,
            queue: self.queue.clone(),
            acked: false,
        })
    }

    /// Drains up to `max_n` ready deliveries under one queue-lock
    /// acquisition, without blocking. Returns an empty vec when nothing is
    /// ready. Acknowledge the whole batch in one lock round trip with
    /// [`Delivery::ack_all`].
    pub fn try_recv_batch(&self, max_n: usize) -> Vec<Delivery> {
        self.queue
            .try_recv_batch(self.id, max_n)
            .into_iter()
            .map(|(tag, message, redelivered)| Delivery {
                message,
                tag,
                redelivered,
                queue: self.queue.clone(),
                acked: false,
            })
            .collect()
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        self.queue.unregister_consumer(self.id);
    }
}

/// A message handed to a consumer, pending acknowledgement.
///
/// If a `Delivery` is dropped without [`Delivery::ack`], the message is
/// returned to the *front* of its queue flagged as redelivered — modelling a
/// worker that crashed mid-operation.
#[derive(Debug)]
pub struct Delivery {
    /// The message content.
    pub message: Message,
    /// Broker tag for this delivery attempt.
    pub tag: DeliveryTag,
    /// Whether this message was delivered before and requeued.
    pub redelivered: bool,
    queue: Arc<QueueCore>,
    acked: bool,
}

impl Delivery {
    /// Acknowledges the delivery, removing the message from the broker.
    pub fn ack(mut self) {
        // The tag is guaranteed in-flight for an un-acked Delivery.
        let _ = self.queue.ack(self.tag);
        self.acked = true;
    }

    /// Explicitly rejects the delivery, requeueing it at the front.
    pub fn requeue(mut self) {
        let _ = self.queue.requeue(self.tag);
        self.acked = true; // consumed: Drop must not requeue again
    }

    /// Acknowledges a whole batch of deliveries, grouping consecutive
    /// same-queue runs so each run costs one lock acquisition instead of
    /// one per message.
    pub fn ack_all(deliveries: Vec<Delivery>) {
        let mut tags: Vec<DeliveryTag> = Vec::with_capacity(deliveries.len());
        let mut run_queue: Option<Arc<QueueCore>> = None;
        for mut d in deliveries {
            d.acked = true; // Drop must not requeue
            let same_run = run_queue.as_ref().is_some_and(|q| Arc::ptr_eq(q, &d.queue));
            if !same_run {
                if let Some(q) = run_queue.take() {
                    q.ack_many(&tags);
                    tags.clear();
                }
                run_queue = Some(d.queue.clone());
            }
            tags.push(d.tag);
        }
        if let Some(q) = run_queue {
            q.ack_many(&tags);
        }
    }
}

impl Drop for Delivery {
    fn drop(&mut self) {
        if !self.acked {
            let _ = self.queue.requeue(self.tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Message, MessageBroker, QueueOptions};
    use std::time::Duration;

    const T: Duration = Duration::from_millis(200);

    #[test]
    fn dropped_delivery_is_redelivered() {
        let broker = MessageBroker::new();
        broker.declare_queue("q", QueueOptions::default()).unwrap();
        let c = broker.subscribe("q").unwrap();
        broker
            .publish_to_queue("q", Message::from_static(b"m"))
            .unwrap();
        {
            let d = c.recv_timeout(T).unwrap();
            assert!(!d.redelivered);
            // dropped without ack
            drop(d);
        }
        let d2 = c.recv_timeout(T).unwrap();
        assert!(d2.redelivered);
        d2.ack();
        assert!(c.try_recv().is_none());
    }

    #[test]
    fn recv_timeout_holds_deadline_under_spurious_wakeups() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let broker = MessageBroker::new();
        broker.declare_queue("q", QueueOptions::default()).unwrap();
        let c = broker.subscribe("q").unwrap();

        // Noise: dropping a consumer hits the queue condvar with
        // notify_all, so the blocked receiver keeps waking spuriously. A
        // receive loop that re-armed with the *full* timeout after every
        // wakeup would never time out while this runs.
        let stop = Arc::new(AtomicBool::new(false));
        let noise_stop = stop.clone();
        let noise_broker = broker.clone();
        let noise = std::thread::spawn(move || {
            while !noise_stop.load(Ordering::Acquire) {
                drop(noise_broker.subscribe("q").unwrap());
                std::thread::sleep(Duration::from_millis(2));
            }
        });

        let timeout = Duration::from_millis(300);
        let started = std::time::Instant::now();
        let err = c.recv_timeout(timeout).unwrap_err();
        let elapsed = started.elapsed();
        stop.store(true, Ordering::Release);
        noise.join().unwrap();

        assert_eq!(err, crate::MqError::RecvTimeout);
        assert!(elapsed >= timeout, "woke early after {elapsed:?}");
        assert!(
            elapsed < timeout * 3,
            "recv_timeout drifted past its deadline: {elapsed:?}"
        );
    }

    #[test]
    fn competing_consumers_each_message_once() {
        let broker = MessageBroker::new();
        broker.declare_queue("q", QueueOptions::default()).unwrap();
        let c1 = broker.subscribe("q").unwrap();
        let c2 = broker.subscribe("q").unwrap();
        for i in 0..10u8 {
            broker
                .publish_to_queue("q", Message::from_bytes(vec![i]))
                .unwrap();
        }
        let mut seen = Vec::new();
        loop {
            let got1 = c1.try_recv();
            let got2 = c2.try_recv();
            if got1.is_none() && got2.is_none() {
                break;
            }
            for d in [got1, got2].into_iter().flatten() {
                seen.push(d.message.payload()[0]);
                d.ack();
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10u8).collect::<Vec<_>>());
    }

    #[test]
    fn consumer_cancel_requeues_inflight() {
        let broker = MessageBroker::new();
        broker.declare_queue("q", QueueOptions::default()).unwrap();
        let c1 = broker.subscribe("q").unwrap();
        broker
            .publish_to_queue("q", Message::from_static(b"x"))
            .unwrap();
        let d = c1.recv_timeout(T).unwrap();
        // Simulate a crash: the delivery is dropped unacked and the consumer
        // goes with it. The message must go back to the queue.
        drop(d);
        drop(c1);
        let c2 = broker.subscribe("q").unwrap();
        let d2 = c2.recv_timeout(T).unwrap();
        assert_eq!(d2.message.payload(), b"x");
        d2.ack();
    }

    #[test]
    fn batch_recv_and_ack_all_round_trip() {
        let broker = MessageBroker::new();
        broker.declare_queue("q", QueueOptions::default()).unwrap();
        let c = broker.subscribe("q").unwrap();
        for i in 0..8u8 {
            broker
                .publish_to_queue("q", Message::from_bytes(vec![i]))
                .unwrap();
        }
        let got = c.try_recv_batch(16);
        assert_eq!(got.len(), 8);
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d.message.payload(), &[i as u8]);
        }
        crate::Delivery::ack_all(got);
        let stats = broker.queue_stats("q").unwrap();
        assert_eq!(stats.acked, 8);
        assert_eq!(stats.unacked, 0);
        assert!(c.try_recv_batch(4).is_empty());
    }

    #[test]
    fn ack_all_of_unacked_batch_does_not_requeue() {
        let broker = MessageBroker::new();
        broker.declare_queue("q", QueueOptions::default()).unwrap();
        let c = broker.subscribe("q").unwrap();
        for m in [b"a", b"b"] {
            broker
                .publish_to_queue("q", Message::from_static(m))
                .unwrap();
        }
        let got = c.try_recv_batch(8);
        assert_eq!(got.len(), 2);
        crate::Delivery::ack_all(got);
        assert_eq!(broker.queue_stats("q").unwrap().depth, 0);
    }

    #[test]
    fn blocking_recv_wakes_on_publish() {
        let broker = MessageBroker::new();
        broker.declare_queue("q", QueueOptions::default()).unwrap();
        let c = broker.subscribe("q").unwrap();
        let b2 = broker.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            b2.publish_to_queue("q", Message::from_static(b"late"))
                .unwrap();
        });
        let d = c.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(d.message.payload(), b"late");
        d.ack();
        h.join().unwrap();
    }
}

//! The client-facing broker surface, extracted as object-safe traits.
//!
//! ObjectMQ (and everything above it) consumes the messaging layer through
//! [`Messaging`] + [`MessageConsumer`] instead of the concrete
//! [`MessageBroker`] type. Two implementations exist:
//!
//! * [`MessageBroker`] — the in-process broker (this crate), where the
//!   trait methods are thin delegations to the inherent ones.
//! * `net::NetBroker` — a TCP client that forwards every operation to a
//!   `net::BrokerServer` in another OS process, with reconnect/resubscribe
//!   supervision.
//!
//! Because the surface is a trait, `Broker::bind`/`lookup`, proxies, the
//! Supervisor and the SyncService run unchanged over either transport.
//!
//! [`Messaging`] holds the ten operations something above calls, each
//! offered once. AMQP has more (direct and topic exchanges with routing
//! keys, purging a queue, removing one binding, listing queues, probing for
//! an exchange); nothing here used them, so neither trait, broker nor wire
//! protocol carries them.

use crate::broker::{MessageBroker, QueueOptions};
use crate::error::MqResult;
use crate::message::Message;
use crate::stats::QueueStats;
use std::fmt;
use std::time::Duration;

/// Everything ObjectMQ needs from a messaging provider.
///
/// Semantics are those of the in-process broker (see [`MessageBroker`]):
/// named durable queues, fanout exchanges, competing consumers,
/// ack/requeue redelivery. Implementations over a network must preserve
/// at-least-once delivery: an unacked delivery whose consumer (or
/// connection) dies is redelivered.
pub trait Messaging: Send + Sync + fmt::Debug {
    /// Declares a queue; redeclaring with the same options is a no-op.
    fn declare_queue(&self, name: &str, options: QueueOptions) -> MqResult<()>;
    /// Deletes a queue, waking blocked consumers with `Closed`.
    fn delete_queue(&self, name: &str) -> MqResult<()>;
    /// Declares a fanout exchange; redeclaring it is a no-op.
    fn declare_exchange(&self, name: &str) -> MqResult<()>;
    /// Binds a queue to a fanout exchange.
    fn bind_queue(&self, exchange: &str, queue: &str) -> MqResult<()>;
    /// Whether the queue exists.
    fn queue_exists(&self, name: &str) -> bool;
    /// Publishes directly to a named queue (default-exchange path).
    fn publish_to_queue(&self, queue: &str, message: Message) -> MqResult<()>;
    /// Publishes one copy to every queue bound to a fanout exchange, in
    /// queue-name order; returns how many queues got a copy.
    fn publish(&self, exchange: &str, message: Message) -> MqResult<usize>;
    /// Subscribes a new competing consumer to the queue.
    fn subscribe(&self, queue: &str) -> MqResult<Box<dyn MessageConsumer>>;
    /// Counter snapshot of a queue; its `depth` is the ready-message count.
    fn queue_stats(&self, name: &str) -> MqResult<QueueStats>;
    /// Windowed arrival rate (messages/sec) observed on a queue.
    fn queue_arrival_rate(&self, name: &str) -> MqResult<f64>;
}

/// A subscription handle obtained through [`Messaging::subscribe`].
///
/// Dropping a consumer cancels the subscription and requeues its unacked
/// deliveries, like dropping a concrete [`crate::Consumer`].
pub trait MessageConsumer: Send + Sync + fmt::Debug {
    /// Blocks until a message is available or the timeout elapses.
    ///
    /// # Errors
    ///
    /// [`crate::MqError::RecvTimeout`] on timeout, [`crate::MqError::Closed`]
    /// if the queue was deleted or the subscription cancelled.
    fn recv_timeout(&self, timeout: Duration) -> MqResult<AnyDelivery>;
}

/// A delivery handed over the [`MessageConsumer`] trait, with a type-erased
/// acknowledgement path.
///
/// Mirrors [`crate::Delivery`]: dropping it without [`AnyDelivery::ack`]
/// requeues the message at the front of its queue flagged as redelivered.
pub struct AnyDelivery {
    /// The message content.
    pub message: Message,
    /// Whether this message was delivered before and requeued.
    pub redelivered: bool,
    /// Called exactly once with `true` (ack) or `false` (requeue).
    acker: Option<Box<dyn FnOnce(bool) + Send>>,
}

impl AnyDelivery {
    /// Wraps a message with its acknowledgement callback.
    pub fn new(
        message: Message,
        redelivered: bool,
        acker: impl FnOnce(bool) + Send + 'static,
    ) -> Self {
        AnyDelivery {
            message,
            redelivered,
            acker: Some(Box::new(acker)),
        }
    }

    /// Acknowledges the delivery, removing the message from the broker.
    pub fn ack(mut self) {
        if let Some(f) = self.acker.take() {
            f(true);
        }
    }

    /// Explicitly rejects the delivery, requeueing it at the front.
    pub fn requeue(mut self) {
        if let Some(f) = self.acker.take() {
            f(false);
        }
    }
}

impl Drop for AnyDelivery {
    fn drop(&mut self) {
        if let Some(f) = self.acker.take() {
            f(false);
        }
    }
}

impl fmt::Debug for AnyDelivery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnyDelivery")
            .field("len", &self.message.len())
            .field("redelivered", &self.redelivered)
            .finish()
    }
}

impl MessageConsumer for crate::Consumer {
    fn recv_timeout(&self, timeout: Duration) -> MqResult<AnyDelivery> {
        let d = crate::Consumer::recv_timeout(self, timeout)?;
        let message = d.message.clone();
        let redelivered = d.redelivered;
        Ok(AnyDelivery::new(message, redelivered, move |ok| {
            if ok {
                d.ack();
            } else {
                d.requeue();
            }
        }))
    }
}

impl Messaging for MessageBroker {
    fn declare_queue(&self, name: &str, options: QueueOptions) -> MqResult<()> {
        MessageBroker::declare_queue(self, name, options)
    }
    fn delete_queue(&self, name: &str) -> MqResult<()> {
        MessageBroker::delete_queue(self, name)
    }
    fn declare_exchange(&self, name: &str) -> MqResult<()> {
        MessageBroker::declare_exchange(self, name)
    }
    fn bind_queue(&self, exchange: &str, queue: &str) -> MqResult<()> {
        MessageBroker::bind_queue(self, exchange, queue)
    }
    fn queue_exists(&self, name: &str) -> bool {
        MessageBroker::queue_exists(self, name)
    }
    fn publish_to_queue(&self, queue: &str, message: Message) -> MqResult<()> {
        MessageBroker::publish_to_queue(self, queue, message)
    }
    fn publish(&self, exchange: &str, message: Message) -> MqResult<usize> {
        MessageBroker::publish(self, exchange, message)
    }
    fn subscribe(&self, queue: &str) -> MqResult<Box<dyn MessageConsumer>> {
        MessageBroker::subscribe(self, queue).map(|c| Box::new(c) as Box<dyn MessageConsumer>)
    }
    fn queue_stats(&self, name: &str) -> MqResult<QueueStats> {
        MessageBroker::queue_stats(self, name)
    }
    fn queue_arrival_rate(&self, name: &str) -> MqResult<f64> {
        MessageBroker::queue_arrival_rate(self, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const T: Duration = Duration::from_millis(200);

    fn as_messaging(b: &MessageBroker) -> &dyn Messaging {
        b
    }

    #[test]
    fn trait_surface_roundtrip() {
        let broker = MessageBroker::new();
        let mq = as_messaging(&broker);
        mq.declare_queue("q", QueueOptions::default()).unwrap();
        let consumer = mq.subscribe("q").unwrap();
        mq.publish_to_queue("q", Message::from_static(b"m"))
            .unwrap();
        let d = consumer.recv_timeout(T).unwrap();
        assert_eq!(d.message.payload(), b"m");
        assert!(!d.redelivered);
        d.ack();
        assert_eq!(mq.queue_stats("q").unwrap().depth, 0);
        assert_eq!(mq.queue_stats("q").unwrap().acked, 1);
    }

    #[test]
    fn dropped_any_delivery_requeues() {
        let broker = MessageBroker::new();
        let mq = as_messaging(&broker);
        mq.declare_queue("q", QueueOptions::default()).unwrap();
        let consumer = mq.subscribe("q").unwrap();
        mq.publish_to_queue("q", Message::from_static(b"x"))
            .unwrap();
        drop(consumer.recv_timeout(T).unwrap());
        let d = consumer.recv_timeout(T).unwrap();
        assert!(d.redelivered, "dropped delivery must be redelivered");
        d.requeue();
        let d = consumer.recv_timeout(T).unwrap();
        assert!(d.redelivered);
        d.ack();
    }

    #[test]
    fn fanout_through_trait() {
        let broker = MessageBroker::new();
        let mq = as_messaging(&broker);
        mq.declare_exchange("ex").unwrap();
        for q in ["a", "b"] {
            mq.declare_queue(q, QueueOptions::default()).unwrap();
            mq.bind_queue("ex", q).unwrap();
        }
        assert_eq!(mq.publish("ex", Message::from_static(b"n")).unwrap(), 2);
        assert_eq!(mq.queue_stats("a").unwrap().depth, 1);
        assert_eq!(mq.queue_stats("b").unwrap().depth, 1);
        mq.delete_queue("a").unwrap();
        assert!(!mq.queue_exists("a"));
        assert_eq!(mq.publish("ex", Message::from_static(b"n")).unwrap(), 1);
    }
}

//! The broker: queue/exchange registry and publish paths. Broker high
//! availability is left to the broker product, as the paper does (§3.4:
//! "high availability can be achieved by using clusters of messaging
//! brokers"). Queues live in memory: a message survives the death of the
//! consumer it was delivered to (it is requeued and redelivered to another),
//! not the death of the broker.

use crate::consumer::Consumer;
use crate::error::{MqError, MqResult};
use crate::exchange::Exchange;
use crate::interceptor::{DeliveryInterceptor, InterceptorCell};
use crate::message::Message;
use crate::queue::QueueCore;
use crate::stats::QueueStats;
use crate::waker::{ReadyWaker, WakerCell};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Options for queue declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueOptions {
    /// Delete the queue automatically when its last consumer unsubscribes.
    /// Used for per-client response queues.
    pub auto_delete: bool,
    /// Window of the per-queue arrival-rate estimator.
    pub rate_window: Duration,
}

impl Default for QueueOptions {
    fn default() -> Self {
        QueueOptions {
            auto_delete: false,
            rate_window: Duration::from_secs(60),
        }
    }
}

#[derive(Debug, Default)]
struct BrokerInner {
    queues: RwLock<HashMap<String, Arc<QueueCore>>>,
    exchanges: RwLock<HashMap<String, Exchange>>,
    down: AtomicBool,
    /// Fault-injection hook shared with every queue of this node.
    interceptor: InterceptorCell,
    /// Ready-waker shared with every queue of this node (see
    /// [`MessageBroker::set_ready_waker`]).
    waker: WakerCell,
    /// Keeps the `mqsim.broker` health check registered for the node's
    /// lifetime. Only populated by [`MessageBroker::new`] — the check needs
    /// a `Weak` to this struct, which `derive(Default)` cannot produce.
    health: std::sync::OnceLock<obs::HealthGuard>,
}

/// An in-process message broker node.
///
/// Cheap to clone: clones share the same underlying broker state, like
/// multiple AMQP connections to one RabbitMQ node.
#[derive(Debug, Clone, Default)]
pub struct MessageBroker {
    inner: Arc<BrokerInner>,
}

impl MessageBroker {
    /// Creates an empty broker and registers its `mqsim.broker` health
    /// check (reporting killed nodes as unhealthy). `Default::default()`
    /// builds the same broker without the check.
    pub fn new() -> Self {
        let broker = Self::default();
        // Weak capture: the health registry's strong reference to the
        // closure must not keep the broker alive past its last clone.
        let weak = Arc::downgrade(&broker.inner);
        let guard = obs::register_health("mqsim.broker", move || match weak.upgrade() {
            Some(inner) if inner.down.load(Ordering::Acquire) => Err("node killed".into()),
            Some(_) => Ok(()),
            None => Err("broker dropped".into()),
        });
        let _ = broker.inner.health.set(guard);
        broker
    }

    fn check_up(&self) -> MqResult<()> {
        if self.inner.down.load(Ordering::Acquire) {
            Err(MqError::BrokerDown)
        } else {
            Ok(())
        }
    }

    /// Declares a queue. Redeclaring an existing queue with the same options
    /// is a no-op; differing options are an error.
    ///
    /// # Errors
    ///
    /// [`MqError::IncompatibleDeclaration`] if the queue exists with other
    /// options, [`MqError::BrokerDown`] if the node was killed.
    pub fn declare_queue(&self, name: &str, options: QueueOptions) -> MqResult<()> {
        self.check_up()?;
        let mut queues = self.inner.queues.write();
        if let Some(existing) = queues.get(name) {
            if existing.auto_delete != options.auto_delete {
                return Err(MqError::IncompatibleDeclaration(name.to_string()));
            }
            return Ok(());
        }
        queues.insert(
            name.to_string(),
            Arc::new(QueueCore::new(
                name,
                options.auto_delete,
                options.rate_window,
                self.inner.interceptor.clone(),
                self.inner.waker.clone(),
            )),
        );
        Ok(())
    }

    /// Installs a fault-injection interceptor on this node. It applies to
    /// every queue, including queues declared before the call; `None`
    /// restores the un-hooked fast path.
    pub fn set_interceptor(&self, interceptor: Option<Arc<dyn DeliveryInterceptor>>) {
        self.inner.interceptor.set(interceptor);
    }

    /// Installs a ready-waker on this node: a cheap, non-blocking callback
    /// invoked with the queue name whenever any queue gains deliverable
    /// messages (publish, requeue, orphaned redelivery). It
    /// applies to every queue, including queues declared before the call;
    /// `None` restores the un-hooked fast path. One slot per node —
    /// installing replaces the previous waker (the event-driven
    /// `net::BrokerServer` owns it while it serves this node).
    pub fn set_ready_waker(&self, waker: Option<ReadyWaker>) {
        self.inner.waker.set(waker);
    }

    /// Whether the queue exists.
    pub fn queue_exists(&self, name: &str) -> bool {
        self.inner.queues.read().contains_key(name)
    }

    /// Deletes a queue, waking blocked consumers with `Closed`, and removes
    /// its bindings from every exchange.
    pub fn delete_queue(&self, name: &str) -> MqResult<()> {
        self.check_up()?;
        let queue = self
            .inner
            .queues
            .write()
            .remove(name)
            .ok_or_else(|| MqError::QueueNotFound(name.to_string()))?;
        queue.close();
        let mut exchanges = self.inner.exchanges.write();
        for exchange in exchanges.values_mut() {
            exchange.unbind(name);
        }
        Ok(())
    }

    /// Subscribes a new consumer to the queue.
    pub fn subscribe(&self, queue: &str) -> MqResult<Consumer> {
        self.check_up()?;
        let core = self.queue(queue)?;
        let id = core.register_consumer()?;
        Ok(Consumer::new(core, id))
    }

    /// Publishes a message directly to a named queue (the AMQP *default
    /// exchange* path).
    pub fn publish_to_queue(&self, queue: &str, message: Message) -> MqResult<()> {
        self.check_up()?;
        self.queue(queue)?.push(message)
    }

    /// Declares a fanout exchange. Redeclaration is a no-op.
    pub fn declare_exchange(&self, name: &str) -> MqResult<()> {
        self.check_up()?;
        self.inner
            .exchanges
            .write()
            .entry(name.to_string())
            .or_default();
        Ok(())
    }

    /// Binds a queue to a fanout exchange; binding it again is a no-op.
    pub fn bind_queue(&self, exchange: &str, queue: &str) -> MqResult<()> {
        self.check_up()?;
        if !self.queue_exists(queue) {
            return Err(MqError::QueueNotFound(queue.to_string()));
        }
        let mut exchanges = self.inner.exchanges.write();
        let ex = exchanges
            .get_mut(exchange)
            .ok_or_else(|| MqError::ExchangeNotFound(exchange.to_string()))?;
        ex.bind(queue);
        Ok(())
    }

    /// Publishes through a fanout exchange: one copy to every bound queue,
    /// in queue-name order. Returns the number of queues that received a
    /// copy (0 if none is bound, like an unroutable AMQP message).
    pub fn publish(&self, exchange: &str, message: Message) -> MqResult<usize> {
        self.check_up()?;
        let targets = {
            let exchanges = self.inner.exchanges.read();
            let ex = exchanges
                .get(exchange)
                .ok_or_else(|| MqError::ExchangeNotFound(exchange.to_string()))?;
            ex.route()
        };
        let mut delivered = 0;
        let last = targets.len().saturating_sub(1);
        let mut message = Some(message);
        for (i, queue) in targets.iter().enumerate() {
            // A queue may have been deleted concurrently; skip it then.
            if let Ok(core) = self.queue(queue) {
                // Fanout copies share the payload and properties (both
                // refcounted); the last target takes the original.
                let copy = if i == last {
                    message.take().expect("last target takes the message")
                } else {
                    message.as_ref().expect("taken only at last").clone()
                };
                core.push(copy)?;
                delivered += 1;
            }
        }
        Ok(delivered)
    }

    /// Counter snapshot of a queue.
    pub fn queue_stats(&self, name: &str) -> MqResult<QueueStats> {
        Ok(self.queue(name)?.stats())
    }

    /// Windowed arrival rate (messages/sec) observed on a queue.
    pub fn queue_arrival_rate(&self, name: &str) -> MqResult<f64> {
        Ok(self.queue(name)?.arrivals.rate_per_sec())
    }

    /// Simulates a node outage: all operations fail until [`Self::restart`].
    /// Queue contents are preserved, as on a node that stops serving and
    /// comes back; the queues do not survive the broker process itself.
    pub fn kill(&self) {
        self.inner.down.store(true, Ordering::Release);
    }

    /// Brings a killed node back up.
    pub fn restart(&self) {
        self.inner.down.store(false, Ordering::Release);
    }

    fn queue(&self, name: &str) -> MqResult<Arc<QueueCore>> {
        self.inner
            .queues
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MqError::QueueNotFound(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_is_idempotent_with_same_options() {
        let b = MessageBroker::new();
        b.declare_queue("q", QueueOptions::default()).unwrap();
        b.declare_queue("q", QueueOptions::default()).unwrap();
        assert!(b.queue_exists("q"));
    }

    #[test]
    fn incompatible_redeclaration_rejected() {
        let b = MessageBroker::new();
        b.declare_queue("q", QueueOptions::default()).unwrap();
        let opts = QueueOptions {
            auto_delete: true,
            ..QueueOptions::default()
        };
        assert!(matches!(
            b.declare_queue("q", opts),
            Err(MqError::IncompatibleDeclaration(_))
        ));
    }

    #[test]
    fn publish_to_missing_queue_fails() {
        let b = MessageBroker::new();
        assert!(matches!(
            b.publish_to_queue("nope", Message::from_static(b"x")),
            Err(MqError::QueueNotFound(_))
        ));
    }

    #[test]
    fn fanout_exchange_broadcasts() {
        let b = MessageBroker::new();
        b.declare_exchange("ws").unwrap();
        for q in ["c1", "c2", "c3"] {
            b.declare_queue(q, QueueOptions::default()).unwrap();
            b.bind_queue("ws", q).unwrap();
        }
        let n = b.publish("ws", Message::from_static(b"notify")).unwrap();
        assert_eq!(n, 3);
        for q in ["c1", "c2", "c3"] {
            assert_eq!(b.queue_stats(q).unwrap().depth, 1);
        }
    }

    /// Records the queue of every message pushed onto a ready list, in push
    /// order: the order a fanout publish routes in.
    #[derive(Default)]
    struct PushLog(parking_lot::Mutex<Vec<String>>);

    impl crate::DeliveryInterceptor for PushLog {
        fn on_publish(&self, queue: &str, _payload: &[u8]) -> crate::PublishFault {
            self.0.lock().push(queue.to_string());
            crate::PublishFault::Deliver
        }
    }

    #[test]
    fn fanout_reaches_each_bound_queue_once_in_name_order() {
        let b = MessageBroker::new();
        let log = Arc::new(PushLog::default());
        b.set_interceptor(Some(log.clone()));
        b.declare_exchange("ex").unwrap();
        // Declared and bound out of name order; "b" is bound twice.
        for q in ["c", "a", "b", "d"] {
            b.declare_queue(q, QueueOptions::default()).unwrap();
            b.bind_queue("ex", q).unwrap();
        }
        b.bind_queue("ex", "b").unwrap();
        let publish = || {
            log.0.lock().clear();
            let n = b.publish("ex", Message::from_static(b"m")).unwrap();
            let routed = log.0.lock().clone();
            assert_eq!(n, routed.len());
            routed
        };
        assert_eq!(publish(), ["a", "b", "c", "d"]);
        // A deleted queue leaves the exchange; re-declared, it is unbound
        // until bound again, and then it is back in its place.
        b.delete_queue("a").unwrap();
        assert_eq!(publish(), ["b", "c", "d"]);
        b.declare_queue("a", QueueOptions::default()).unwrap();
        assert_eq!(publish(), ["b", "c", "d"]);
        b.bind_queue("ex", "a").unwrap();
        assert_eq!(publish(), ["a", "b", "c", "d"]);
        for (q, depth) in [("a", 1), ("b", 4), ("c", 4), ("d", 4)] {
            assert_eq!(b.queue_stats(q).unwrap().depth, depth, "queue {q}");
        }
    }

    #[test]
    fn unroutable_message_is_dropped() {
        let b = MessageBroker::new();
        b.declare_exchange("ex").unwrap();
        let n = b.publish("ex", Message::from_static(b"m")).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn delete_queue_wakes_consumers_and_unbinds() {
        let b = MessageBroker::new();
        b.declare_exchange("ex").unwrap();
        b.declare_queue("q", QueueOptions::default()).unwrap();
        b.bind_queue("ex", "q").unwrap();
        let c = b.subscribe("q").unwrap();
        let b2 = b.clone();
        let h = std::thread::spawn(move || c.recv_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        b2.delete_queue("q").unwrap();
        assert!(matches!(h.join().unwrap(), Err(MqError::Closed)));
        // The binding went with the queue: the fanout now reaches nobody.
        assert_eq!(b.publish("ex", Message::from_static(b"m")).unwrap(), 0);
    }

    #[test]
    fn killed_broker_refuses_operations() {
        let b = MessageBroker::new();
        b.declare_queue("q", QueueOptions::default()).unwrap();
        b.kill();
        assert!(matches!(
            b.publish_to_queue("q", Message::from_static(b"x")),
            Err(MqError::BrokerDown)
        ));
        b.restart();
        b.publish_to_queue("q", Message::from_static(b"x")).unwrap();
        assert_eq!(
            b.queue_stats("q").unwrap().depth,
            1,
            "state preserved over crash"
        );
    }
}

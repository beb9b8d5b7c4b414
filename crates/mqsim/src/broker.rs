//! The broker: queue/exchange registry and publish paths. Broker high
//! availability is left to the broker product, as the paper does (§3.4:
//! "high availability can be achieved by using clusters of messaging
//! brokers"); what this broker guarantees across its own death is that
//! published, unacked messages of durable queues come back
//! ([`MessageBroker::open_durable`]).

use crate::consumer::Consumer;
use crate::error::{MqError, MqResult};
use crate::exchange::Exchange;
use crate::interceptor::{DeliveryInterceptor, InterceptorCell};
use crate::journal::{Journal, RecoveredState};
use crate::message::Message;
use crate::queue::QueueCore;
use crate::stats::QueueStats;
use crate::waker::{ReadyWaker, WakerCell};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::Path;
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
    /// Journal publishes to this queue in the broker WAL so unacked
    /// messages survive a process crash. Only effective on a broker opened
    /// with [`MessageBroker::open_durable`]; ignored (plain in-memory
    /// behaviour) elsewhere.
    pub durable: bool,
}

impl Default for QueueOptions {
    fn default() -> Self {
        QueueOptions {
            auto_delete: false,
            rate_window: Duration::from_secs(60),
            durable: false,
        }
    }
}

impl QueueOptions {
    /// Default options with the `durable` flag set.
    pub fn durable() -> Self {
        QueueOptions {
            durable: true,
            ..QueueOptions::default()
        }
    }
}

/// What [`MessageBroker::open_durable`] reconstructed from the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerRecovery {
    /// Journal records replayed.
    pub replayed: u64,
    /// Durable queues re-declared.
    pub queues: usize,
    /// Unacked messages re-enqueued (flagged redelivered).
    pub requeued: usize,
    /// Whether the journal tail was torn (partial final write dropped).
    pub torn: bool,
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
    /// The durable-queue journal; only set by [`MessageBroker::open_durable`].
    journal: std::sync::OnceLock<Arc<Journal>>,
    /// Keeps the `mqsim.journal` health check registered on durable brokers.
    journal_health: std::sync::OnceLock<obs::HealthGuard>,
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

    /// Opens (or creates) a durable broker whose journal lives at `dir`.
    /// Queues declared with [`QueueOptions::durable`] journal every publish
    /// before acknowledging it; recovery re-declares those queues and
    /// re-enqueues every journaled publish without a journaled ack (flagged
    /// redelivered — at-least-once across process death).
    ///
    /// `config` supplies the journal's name, sync policy and segment size.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or `InvalidData` when a journal record fails to
    /// decode.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        config: wal::LogConfig,
    ) -> std::io::Result<(MessageBroker, BrokerRecovery)> {
        let (log, rec) = wal::Log::open(dir.as_ref(), config)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let replayed = rec.records.len() as u64;
        let torn = rec.torn.is_some();
        let state: RecoveredState = crate::journal::replay(&rec.records)?;

        let broker = MessageBroker::new();
        let journal = Arc::new(Journal::new(log, state.next_jid));
        let weak = Arc::downgrade(&journal);
        let guard = obs::register_health("mqsim.journal", move || match weak.upgrade() {
            Some(journal) => journal.status(),
            None => Err("journal dropped".to_string()),
        });
        let _ = broker.inner.journal.set(journal);
        let _ = broker.inner.journal_health.set(guard);

        let queues = state.queues.len();
        for (name, options) in &state.queues {
            broker
                .declare_queue_inner(name, options.clone(), false)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        let requeued = state.pending.len();
        for (jid, queue, message) in state.pending {
            // The declaration record always precedes the publish in the
            // single FIFO journal, so the queue exists by construction.
            if let Ok(core) = broker.queue(&queue) {
                core.push_recovered(message, jid);
            }
        }
        obs::flight_event!(
            "mqsim",
            "durable broker opened: {replayed} record(s) replayed, {requeued} message(s) requeued"
        );
        Ok((
            broker,
            BrokerRecovery {
                replayed,
                queues,
                requeued,
                torn,
            },
        ))
    }

    /// Whether this broker journals durable queues.
    pub fn is_durable(&self) -> bool {
        self.inner.journal.get().is_some()
    }

    /// Forces buffered journal records (acks are journaled fire-and-forget)
    /// to disk. No-op on a non-durable broker.
    pub fn journal_flush(&self) -> MqResult<()> {
        match self.inner.journal.get() {
            Some(journal) => journal.flush(),
            None => Ok(()),
        }
    }

    /// Fault-simulator hook: crashes the journal as if the process died,
    /// keeping `surviving_pending_bytes` of the un-flushed buffer as a torn
    /// tail. Durable publishes fail afterwards until the broker is reopened.
    /// No-op on a non-durable broker.
    pub fn journal_simulate_crash(&self, surviving_pending_bytes: usize) {
        if let Some(journal) = self.inner.journal.get() {
            journal.simulate_crash(surviving_pending_bytes);
        }
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
        self.declare_queue_inner(name, options, true)
    }

    /// Shared declaration body; `journal_write` is false on the recovery
    /// path, where the declaration record already exists in the journal.
    fn declare_queue_inner(
        &self,
        name: &str,
        options: QueueOptions,
        journal_write: bool,
    ) -> MqResult<()> {
        let mut queues = self.inner.queues.write();
        if let Some(existing) = queues.get(name) {
            if existing.auto_delete != options.auto_delete || existing.durable != options.durable {
                return Err(MqError::IncompatibleDeclaration(name.to_string()));
            }
            return Ok(());
        }
        let journal = if options.durable {
            self.inner.journal.get().cloned()
        } else {
            None
        };
        if journal_write {
            if let Some(journal) = &journal {
                journal.record_decl(name, &options)?;
            }
        }
        queues.insert(
            name.to_string(),
            Arc::new(QueueCore::new(
                name,
                options.auto_delete,
                options.rate_window,
                options.durable,
                journal,
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
        drop(exchanges);
        if queue.durable {
            if let Some(journal) = self.inner.journal.get() {
                journal.record_delete(name)?;
            }
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

    /// Simulates a node crash: all operations fail until [`Self::restart`].
    /// Queue contents are preserved (RabbitMQ with durable messages).
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

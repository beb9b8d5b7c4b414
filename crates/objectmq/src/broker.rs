//! The ObjectMQ `Broker`: naming by queues, `bind` and `lookup`.

use crate::error::OmqResult;
use crate::info::{ObjectInfo, PoolInfo};
use crate::oid::Oid;
use crate::proxy::{unknown_object, Proxy};
use crate::server::{
    fresh_instance_name, spawn_instance, RemoteObject, ServerHandle, SkeletonConfig,
};
use mqsim::{MessageBroker, Messaging, QueueOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wire::{BinaryCodec, Codec};

/// Configuration of a [`Broker`] (the "environment" argument of the paper's
/// `new Broker(environment)`).
#[derive(Clone)]
pub struct BrokerConfig {
    /// Transport encoding for requests and responses.
    pub codec: Arc<dyn Codec>,
    /// Averaging window of queue arrival-rate estimators.
    pub rate_window: Duration,
}

impl std::fmt::Debug for BrokerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerConfig")
            .field("codec", &self.codec.name())
            .field("rate_window", &self.rate_window)
            .finish()
    }
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            codec: Arc::new(BinaryCodec),
            rate_window: Duration::from_secs(60),
        }
    }
}

/// The ObjectMQ broker: binds server objects to names and creates client
/// stubs. Mirrors the paper's `omq.Broker` (§3.1).
///
/// Naming is implemented *by the queues themselves*: `bind("sync", obj)`
/// creates (or joins) the queue named `sync`; `lookup("sync")` just needs
/// the queue name — there is no central registry.
///
/// The messaging layer is consumed through the [`Messaging`] trait, so the
/// same broker code runs over the in-process [`MessageBroker`] or over a
/// remote TCP transport (`net::NetBroker`).
#[derive(Debug, Clone)]
pub struct Broker {
    mq: Arc<dyn Messaging>,
    config: BrokerConfig,
}

static NEXT_PROXY: AtomicU64 = AtomicU64::new(1);

impl Broker {
    /// Creates a broker backed by a fresh in-process message broker.
    pub fn in_process() -> Self {
        Broker::new(MessageBroker::new(), BrokerConfig::default())
    }

    /// Creates a broker over an existing in-process messaging layer —
    /// several ObjectMQ brokers (e.g. one per host) can share one
    /// messaging service.
    pub fn new(mq: MessageBroker, config: BrokerConfig) -> Self {
        Broker::over(Arc::new(mq), config)
    }

    /// Creates a broker over any [`Messaging`] implementation (in-process
    /// or a network transport).
    pub fn over(mq: Arc<dyn Messaging>, config: BrokerConfig) -> Self {
        Broker { mq, config }
    }

    /// The underlying messaging layer.
    pub fn messaging(&self) -> &Arc<dyn Messaging> {
        &self.mq
    }

    /// The broker configuration.
    pub fn config(&self) -> &BrokerConfig {
        &self.config
    }

    fn multi_exchange_name(oid: &Oid) -> String {
        format!("omq.multi.{oid}")
    }

    /// Binds a remote object instance to `oid` (paper:
    /// `Broker.bind(oid, remoteObject)`).
    ///
    /// If the `oid` queue already exists the instance simply joins the pool
    /// and the messaging layer balances load over all instances. Each
    /// instance additionally gets a private queue bound to the `oid` fanout
    /// exchange for `@MultiMethod` deliveries.
    ///
    /// # Errors
    ///
    /// Propagates messaging-layer failures.
    pub fn bind<O: RemoteObject>(&self, oid: impl Into<Oid>, object: O) -> OmqResult<ServerHandle> {
        self.bind_arc(oid, Arc::new(object))
    }

    /// Like [`Broker::bind`] but shares an existing object instance.
    ///
    /// # Errors
    ///
    /// Propagates messaging-layer failures.
    pub fn bind_arc(
        &self,
        oid: impl Into<Oid>,
        object: Arc<dyn RemoteObject>,
    ) -> OmqResult<ServerHandle> {
        let oid = oid.into();
        let queue_opts = QueueOptions {
            auto_delete: false,
            rate_window: self.config.rate_window,
        };
        self.mq.declare_queue(oid.as_str(), queue_opts.clone())?;
        let exchange = Self::multi_exchange_name(&oid);
        self.mq.declare_exchange(&exchange)?;

        let instance = fresh_instance_name(oid.as_str());
        self.mq.declare_queue(&instance, queue_opts)?;
        self.mq.bind_queue(&exchange, &instance)?;

        let unicast = self.mq.subscribe(oid.as_str())?;
        let multicast = self.mq.subscribe(&instance)?;

        spawn_instance(
            SkeletonConfig {
                mq: self.mq.clone(),
                codec: self.config.codec.clone(),
                oid: oid.as_str().to_string(),
                instance,
            },
            unicast,
            multicast,
            object,
        )
    }

    /// Creates a dynamic stub for the object bound to `oid` (paper:
    /// `Broker.lookup(oid)`).
    ///
    /// # Errors
    ///
    /// [`crate::OmqError::UnknownObject`] if nothing was ever bound to
    /// `oid`.
    pub fn lookup(&self, oid: impl Into<Oid>) -> OmqResult<Proxy> {
        let oid = oid.into();
        if !self.mq.queue_exists(oid.as_str()) {
            return Err(unknown_object(oid.as_str()));
        }
        let n = NEXT_PROXY.fetch_add(1, Ordering::Relaxed);
        let response_queue = format!("omq.resp.{n}");
        self.mq.declare_queue(
            &response_queue,
            QueueOptions {
                auto_delete: true,
                rate_window: self.config.rate_window,
            },
        )?;
        let consumer = self.mq.subscribe(&response_queue)?;
        let multi_exchange = Self::multi_exchange_name(&oid);
        Ok(Proxy::new(
            self.mq.clone(),
            self.config.codec.clone(),
            oid.as_str().to_string(),
            multi_exchange,
            response_queue,
            consumer,
        ))
    }

    /// Whether any object was ever bound under `oid`.
    pub fn object_exists(&self, oid: impl Into<Oid>) -> bool {
        self.mq.queue_exists(oid.into().as_str())
    }

    /// Aggregates queue-side observations with per-instance stats into the
    /// snapshot provisioners consume.
    ///
    /// # Errors
    ///
    /// Fails if `oid` was never bound.
    pub fn pool_info(
        &self,
        oid: impl Into<Oid>,
        instance_infos: &[ObjectInfo],
    ) -> OmqResult<PoolInfo> {
        let oid = oid.into();
        let stats = self.mq.queue_stats(oid.as_str())?;
        let rate = self.mq.queue_arrival_rate(oid.as_str())?;
        Ok(PoolInfo::aggregate(
            oid.as_str(),
            instance_infos,
            stats.depth,
            rate,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OmqError;
    use mqsim::Message;
    use wire::{JsonCodec, Value};

    #[test]
    fn lookup_unbound_oid_fails() {
        let broker = Broker::in_process();
        assert!(matches!(
            broker.lookup("nothing"),
            Err(OmqError::UnknownObject(_))
        ));
    }

    #[test]
    fn bind_creates_queue_and_exchange() {
        let broker = Broker::in_process();
        let server = broker
            .bind("svc", |_: &str, _: &[Value]| Ok(Value::Null))
            .unwrap();
        assert!(broker.object_exists("svc"));
        let multi = broker
            .messaging()
            .publish("omq.multi.svc", Message::from_static(b"x"));
        assert_eq!(multi, Ok(1), "the multi exchange reaches the instance");
        assert_eq!(instances(&broker, "svc"), 1);
        server.shutdown();
    }

    /// Consumers competing on the `oid` queue: the live instances.
    fn instances(broker: &Broker, oid: &str) -> usize {
        broker.messaging().queue_stats(oid).unwrap().consumers
    }

    #[test]
    fn instance_count_tracks_pool_size() {
        let broker = Broker::in_process();
        let s1 = broker
            .bind("pool", |_: &str, _: &[Value]| Ok(Value::Null))
            .unwrap();
        let s2 = broker
            .bind("pool", |_: &str, _: &[Value]| Ok(Value::Null))
            .unwrap();
        assert_eq!(instances(&broker, "pool"), 2);
        s1.shutdown();
        // Shutdown unsubscribes from the shared queue.
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while instances(&broker, "pool") > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(instances(&broker, "pool"), 1);
        s2.shutdown();
    }

    #[test]
    fn works_with_json_transport() {
        let config = BrokerConfig {
            codec: Arc::new(JsonCodec),
            ..BrokerConfig::default()
        };
        let broker = Broker::new(MessageBroker::new(), config);
        let _server = broker
            .bind("j", |_: &str, args: &[Value]| {
                Ok(args.first().cloned().unwrap_or(Value::Null))
            })
            .unwrap();
        let proxy = broker.lookup("j").unwrap();
        let v = proxy
            .call_sync(
                "echo",
                vec![Value::from("überjson")],
                Duration::from_secs(1),
                0,
            )
            .unwrap();
        assert_eq!(v, Value::from("überjson"));
    }

    #[test]
    fn pool_info_combines_queue_and_instances() {
        let broker = Broker::in_process();
        let server = broker
            .bind("pi", |_: &str, _: &[Value]| Ok(Value::Null))
            .unwrap();
        let proxy = broker.lookup("pi").unwrap();
        proxy
            .call_sync("x", vec![], Duration::from_secs(1), 0)
            .unwrap();
        let info = broker
            .pool_info("pi", &[server.stats().snapshot()])
            .unwrap();
        assert_eq!(info.instances, 1);
        assert_eq!(info.oid, "pi");
        server.shutdown();
    }
}

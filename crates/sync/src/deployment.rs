//! One deployment of the stack (paper §3–4, Fig. 4): the message broker,
//! the SyncService pool over the metadata store and the chunk store, with
//! an optional TCP front end for devices that dial in.
//!
//! Every input of [`DeploymentBuilder`] is one that two callers of the
//! stack set differently; a value nobody varies is a constant here.

use crate::client::{ClientConfig, DesktopClient};
use crate::error::{SyncError, SyncResult};
use crate::service::SyncService;
use metadata::{ShardedStore, WorkspaceId};
use mqsim::MessageBroker;
use net::{BrokerServer, NetBroker};
use objectmq::{Broker, BrokerConfig, OmqError, ServerHandle};
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use storage::{LatencyModel, SwiftStore};

/// Chooses what a [`Deployment`] is made of; [`build`] starts it. The
/// defaults are the smallest stack: in-process only, metadata in memory
/// with one shard per core, one service instance, a chunk store with no
/// modelled latency.
///
/// [`build`]: DeploymentBuilder::build
#[derive(Debug)]
pub struct DeploymentBuilder {
    tcp: bool,
    durable: Option<PathBuf>,
    shards: Option<usize>,
    instances: usize,
    latency: LatencyModel,
}

impl DeploymentBuilder {
    /// Serves the broker on a TCP listener at `127.0.0.1:0` as well, so
    /// devices can [`Deployment::dial`] in.
    #[must_use]
    pub fn tcp(mut self) -> Self {
        self.tcp = true;
        self
    }

    /// Keeps the metadata in a write-ahead-logged store under `dir`,
    /// recovering whatever an earlier deployment left there.
    #[must_use]
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable = Some(dir.into());
        self
    }

    /// Partitions the metadata store into `shards` (default: one per core,
    /// at least two).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Binds `instances` SyncService instances to the commit queue
    /// (default 1). With 0 the pool is the caller's: it binds
    /// [`Deployment::service`] itself.
    #[must_use]
    pub fn instances(mut self, instances: usize) -> Self {
        self.instances = instances;
        self
    }

    /// Models the chunk store's request latency (default
    /// [`LatencyModel::instant`]).
    #[must_use]
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Opens the stores, binds the service instances and, if asked, the
    /// TCP listener.
    ///
    /// # Errors
    ///
    /// Fails when a durable store cannot be opened, the listener cannot be
    /// bound, or an instance cannot be bound.
    pub fn build(self) -> SyncResult<Deployment> {
        let shards = self.shards.unwrap_or_else(ShardedStore::host_shards);
        let meta = Arc::new(match self.durable {
            Some(dir) => {
                let config = wal::LogConfig::named("metadata");
                ShardedStore::open_durable(dir, shards, Duration::ZERO, config)?.0
            }
            None => ShardedStore::with_shards(shards),
        });
        let mq = MessageBroker::new();
        let server = self
            .tcp
            .then(|| BrokerServer::bind("127.0.0.1:0", mq.clone()))
            .transpose()?;
        let broker = Broker::new(mq.clone(), BrokerConfig::default());
        let service = SyncService::builder(&broker).store(meta.clone()).build();
        let instances = (0..self.instances)
            .map(|_| service.bind(&broker))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Deployment {
            mq,
            broker,
            server,
            meta,
            service,
            instances,
            objects: SwiftStore::new(self.latency),
        })
    }
}

/// A running deployment: broker, TCP front end (if built with
/// [`DeploymentBuilder::tcp`]), service pool, metadata store and chunk
/// store, all in this process. Devices join with [`Deployment::connect`]
/// in process or through a [`Link`] over TCP.
pub struct Deployment {
    mq: MessageBroker,
    broker: Broker,
    server: Option<BrokerServer>,
    meta: Arc<ShardedStore>,
    service: SyncService,
    instances: Vec<ServerHandle>,
    objects: SwiftStore,
}

impl Deployment {
    /// Starts choosing the parts; see [`DeploymentBuilder`].
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder {
            tcp: false,
            durable: None,
            shards: None,
            instances: 1,
            latency: LatencyModel::instant(),
        }
    }

    /// Creates `user` with one workspace named `workspace`.
    ///
    /// # Errors
    ///
    /// Propagates metadata errors (e.g. a duplicate user).
    pub fn provision(&self, user: &str, workspace: &str) -> SyncResult<WorkspaceId> {
        crate::provision_user(self.meta.as_ref(), user, workspace)
    }

    /// Connects a device to `workspace` through the in-process broker.
    ///
    /// # Errors
    ///
    /// See [`DesktopClient::connect`].
    pub fn connect(
        &self,
        config: ClientConfig,
        workspace: &WorkspaceId,
    ) -> SyncResult<DesktopClient> {
        DesktopClient::connect(&self.broker, &self.objects, config, workspace)
    }

    /// Dials the TCP front end: one connection that every device connected
    /// through the returned [`Link`] shares.
    ///
    /// # Errors
    ///
    /// Fails when the deployment was built without [`DeploymentBuilder::tcp`]
    /// or the dial fails.
    pub fn dial(&self) -> SyncResult<Link> {
        match &self.server {
            Some(server) => Link::dial(server.local_addr()),
            None => Err(SyncError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "the deployment has no TCP front end",
            ))),
        }
    }

    /// The in-process broker the service pool is bound on.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The message broker under [`Deployment::broker`], where a test
    /// installs a [`mqsim::DeliveryInterceptor`] to lose or delay messages.
    pub fn message_broker(&self) -> &MessageBroker {
        &self.mq
    }

    /// The TCP front end, if the deployment has one: its address, its
    /// live connections.
    pub fn server(&self) -> Option<&BrokerServer> {
        self.server.as_ref()
    }

    /// The metadata store behind the service.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.meta
    }

    /// The service every instance runs: its commit and conflict counters,
    /// and the object to bind for more instances.
    pub fn service(&self) -> &SyncService {
        &self.service
    }

    /// The chunk store devices connected with [`Deployment::connect`] use.
    pub fn objects(&self) -> &SwiftStore {
        &self.objects
    }

    /// Stops the service instances and the TCP front end.
    pub fn shutdown(self) {
        for instance in self.instances {
            instance.shutdown();
        }
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// A client-side TCP connection to a deployment's front end, shared by
/// every device connected through it.
#[derive(Debug)]
pub struct Link {
    net: NetBroker,
    broker: Broker,
}

impl Link {
    /// Dials the front end at `addr` with the default transport settings.
    ///
    /// # Errors
    ///
    /// Fails when no connection is established within the transport's
    /// operation timeout.
    pub fn dial(addr: impl ToSocketAddrs) -> SyncResult<Link> {
        let net = NetBroker::connect(addr).map_err(OmqError::from)?;
        Ok(Link::over(net))
    }

    /// Wraps a connection dialled with settings of the caller's.
    pub fn over(net: NetBroker) -> Link {
        let broker = Broker::over(Arc::new(net.clone()), BrokerConfig::default());
        Link { net, broker }
    }

    /// The broker on the far side of this connection.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// Connects a device to `workspace` over this link, with chunks in
    /// `objects`.
    ///
    /// # Errors
    ///
    /// See [`DesktopClient::connect`].
    pub fn connect(
        &self,
        objects: &SwiftStore,
        config: ClientConfig,
        workspace: &WorkspaceId,
    ) -> SyncResult<DesktopClient> {
        DesktopClient::connect(&self.broker, objects, config, workspace)
    }

    /// Closes the connection.
    pub fn close(self) {
        self.net.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SYNC_SERVICE_OID;
    use metadata::MetadataStore;
    use std::path::Path;

    const T: Duration = Duration::from_secs(5);

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("stacksync-deploy-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Writes one file on `a` and waits for it on `b`.
    fn syncs_one_file(a: &DesktopClient, b: &DesktopClient) {
        a.write_file("notes.txt", b"from a".to_vec()).unwrap();
        assert!(b.wait_for_content("notes.txt", b"from a", T));
    }

    fn commit_consumers(cloud: &Deployment) -> usize {
        let mq = cloud.broker().messaging();
        mq.queue_stats(SYNC_SERVICE_OID.as_str()).unwrap().consumers
    }

    #[test]
    fn the_default_deployment_syncs_in_process_with_one_instance() {
        let cloud = Deployment::builder().build().unwrap();
        let ws = cloud.provision("alice", "Docs").unwrap();
        let a = cloud
            .connect(ClientConfig::new("alice", "laptop"), &ws)
            .unwrap();
        let b = cloud
            .connect(ClientConfig::new("alice", "phone"), &ws)
            .unwrap();
        syncs_one_file(&a, &b);

        assert_eq!(commit_consumers(&cloud), 1);
        assert_eq!(cloud.objects().latency(), &LatencyModel::instant());
        assert!(cloud.server().is_none());
        assert!(cloud.dial().is_err(), "no front end to dial");
        cloud.shutdown();
    }

    #[test]
    fn devices_sharing_one_tcp_link_sync() {
        let cloud = Deployment::builder().tcp().build().unwrap();
        let ws = cloud.provision("alice", "Docs").unwrap();
        let link = cloud.dial().unwrap();
        let a = link
            .connect(cloud.objects(), ClientConfig::new("alice", "laptop"), &ws)
            .unwrap();
        let b = link
            .connect(cloud.objects(), ClientConfig::new("alice", "phone"), &ws)
            .unwrap();
        syncs_one_file(&a, &b);

        assert_eq!(cloud.server().unwrap().live_connections(), 1);
        drop((a, b));
        link.close();
        cloud.shutdown();
    }

    #[test]
    fn two_instances_both_consume_from_the_commit_queue() {
        let cloud = Deployment::builder().instances(2).build().unwrap();
        assert_eq!(commit_consumers(&cloud), 2);
        let ws = cloud.provision("alice", "Docs").unwrap();
        let a = cloud
            .connect(ClientConfig::new("alice", "laptop"), &ws)
            .unwrap();
        let b = cloud
            .connect(ClientConfig::new("alice", "phone"), &ws)
            .unwrap();
        for i in 0..20u8 {
            a.write_file(&format!("f{i}.txt"), vec![i; 64]).unwrap();
        }
        assert!(b.wait(T, || b.list_files().len() == 20));
        assert_eq!(cloud.service().changes_processed(), 20);
        cloud.shutdown();
    }

    fn shard_logs(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with("shard-")
            })
            .count()
    }

    #[test]
    fn a_durable_deployment_keeps_a_synced_file_across_reopen() {
        let meta_root = temp_dir("meta");
        let cloud = Deployment::builder()
            .durable(&meta_root)
            .shards(8)
            .build()
            .unwrap();
        let ws = cloud.provision("alice", "Docs").unwrap();
        let a = cloud
            .connect(ClientConfig::new("alice", "laptop"), &ws)
            .unwrap();
        let b = cloud
            .connect(ClientConfig::new("alice", "phone"), &ws)
            .unwrap();
        syncs_one_file(&a, &b);
        let committed = cloud.store().current_items(&ws).unwrap();
        drop((a, b));
        cloud.shutdown();

        assert_eq!(shard_logs(&meta_root), 8, "one log per shard");
        let config = wal::LogConfig::named("metadata");
        let (store, _) = ShardedStore::open_durable(&meta_root, 8, Duration::ZERO, config).unwrap();
        let items = store.current_items(&ws).unwrap();
        assert_eq!(items, committed);
        assert_eq!((items[0].path.as_str(), items[0].version), ("notes.txt", 1));
        drop(store);
        std::fs::remove_dir_all(&meta_root).ok();
    }

    #[test]
    fn the_chunk_store_takes_the_latency_model() {
        let cloud = Deployment::builder()
            .latency(LatencyModel::lan_cluster())
            .build()
            .unwrap();
        assert_eq!(cloud.objects().latency(), &LatencyModel::lan_cluster());
        let ws = cloud.provision("alice", "Docs").unwrap();
        let a = cloud
            .connect(ClientConfig::new("alice", "laptop"), &ws)
            .unwrap();
        let started = std::time::Instant::now();
        a.write_file("f.bin", vec![1; 4096]).unwrap();
        // At least one chunk upload: one modelled round trip.
        assert!(started.elapsed() >= LatencyModel::lan_cluster().rtt);
    }
}

//! The one place the benchmark touches the product. Workloads and probes
//! call the types below and nothing else, so a change to a product API breaks
//! this file (and the `--smoke` self-test) and not a later performance claim.
//!
//! Only the surface the roadmap keeps is used: `Broker::over`/`Broker::new`,
//! `NetBroker::connect`, `BrokerServer::bind`, `SyncService::builder`/`bind`/
//! `dispatch`, `ShardedStore::{with_shards, open_durable, checkpoint,
//! wal_simulate_crash, snapshot}` behind `MetadataStore`, `DesktopClient`,
//! `IngestPipeline`, `SwiftStore`, `wal::Log` and the two `wire` codecs.

use bytes::Bytes;
use content::chunker::{Chunker, FixedChunker};
use content::compress::Algorithm;
use content::pipeline::{IngestPipeline, PipelineConfig};
use content::{ChunkId, Fingerprint};
use metadata::{ItemMetadata, MetadataStore, ShardedStore, WorkspaceId};
use mqsim::{Message, MessageBroker, MessageConsumer, Messaging, QueueOptions};
use net::{BrokerServer, NetBroker};
use objectmq::{Broker, BrokerConfig, Proxy, RemoteObject, ServerHandle};
use stacksync::protocol::item_to_value;
use stacksync::{
    ClientConfig, CommitNotification, DesktopClient, NotifiedChange, SyncService, SYNC_SERVICE_OID,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{DedupChunk, LatencyModel, SwiftStore, Token};
use wire::{BinaryCodec, Codec, JsonCodec};

pub use wire::Value;

/// Metadata shards of every store the benchmark opens.
pub const SHARDS: usize = 8;
/// `SyncService` instances competing on the commit queue.
pub const SERVICE_INSTANCES: usize = 2;
/// Fixed chunk size of the shipped client configuration.
pub const CHUNK_SIZE: usize = content::DEFAULT_CHUNK_SIZE;

/// `Result` with the product's error flattened to text: the benchmark only
/// counts and reports failures.
pub type Res<T> = Result<T, String>;

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Metadata store
// ---------------------------------------------------------------------------

/// One version of one file as the metadata plane sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Stable item identifier.
    pub id: u64,
    /// Path inside the workspace.
    pub path: String,
    /// Version proposed or stored.
    pub version: u64,
    /// Chunk fingerprints, in file order.
    pub chunks: Vec<[u8; 20]>,
    /// File size in bytes.
    pub size: u64,
}

impl Item {
    fn lower(&self, ws: &str, device: &str) -> ItemMetadata {
        ItemMetadata {
            item_id: self.id,
            workspace: WorkspaceId(ws.to_string()),
            path: self.path.clone(),
            version: self.version,
            chunks: self
                .chunks
                .iter()
                .map(|c| ChunkId::from_bytes(*c))
                .collect(),
            size: self.size,
            is_deleted: false,
            modified_by: device.to_string(),
        }
    }

    fn lift(meta: &ItemMetadata) -> Item {
        Item {
            id: meta.item_id,
            path: meta.path.clone(),
            version: meta.version,
            chunks: meta.chunks.iter().map(|c| *c.as_bytes()).collect(),
            size: meta.size,
        }
    }
}

/// What reopening a durable store found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovered {
    /// Whether a snapshot was the replay base.
    pub snapshot_loaded: bool,
    /// WAL records replayed over it.
    pub replayed: u64,
}

/// The sharded metadata store, durable or not.
#[derive(Clone)]
pub struct Meta {
    store: Arc<ShardedStore>,
}

impl Meta {
    /// Non-durable store: the commit path without the WAL.
    pub fn volatile() -> Meta {
        Meta {
            store: Arc::new(ShardedStore::with_shards(SHARDS)),
        }
    }

    /// Opens (or recovers) a durable store under `dir` with the shipped WAL
    /// configuration: group commit, every commit fsynced before its ack.
    pub fn open(dir: &Path) -> Res<(Meta, Recovered)> {
        Meta::open_with(dir, wal::LogConfig::named("stackbench"))
    }

    /// Like [`Meta::open`] but never fsyncs. The bytes written are the
    /// same; set-up uses it to build large stores quickly.
    pub fn open_unsynced(dir: &Path) -> Res<(Meta, Recovered)> {
        let mut config = wal::LogConfig::named("stackbench");
        config.sync = wal::SyncPolicy::Never;
        Meta::open_with(dir, config)
    }

    fn open_with(dir: &Path, config: wal::LogConfig) -> Res<(Meta, Recovered)> {
        let (store, rec) =
            ShardedStore::open_durable(dir, SHARDS, Duration::ZERO, config).map_err(text)?;
        Ok((
            Meta {
                store: Arc::new(store),
            },
            Recovered {
                snapshot_loaded: rec.snapshot_loaded,
                replayed: rec.replayed,
            },
        ))
    }

    fn as_dyn(&self) -> Arc<dyn MetadataStore> {
        self.store.clone()
    }

    /// Registers a user.
    pub fn add_user(&self, user: &str) -> Res<()> {
        self.store.create_user(user).map_err(text)
    }

    /// Creates a workspace owned by `user`; returns its id.
    pub fn add_workspace(&self, user: &str, name: &str) -> Res<String> {
        self.store
            .create_workspace(user, name)
            .map(|ws| ws.0)
            .map_err(text)
    }

    /// Commits one item version. `Ok(true)` when it was accepted,
    /// `Ok(false)` on a version conflict.
    pub fn commit(&self, ws: &str, device: &str, item: &Item) -> Res<bool> {
        let outcomes = self
            .store
            .commit(&WorkspaceId(ws.to_string()), vec![item.lower(ws, device)])
            .map_err(text)?;
        Ok(outcomes.iter().all(|o| o.is_committed()))
    }

    /// Latest version of every item of a workspace.
    pub fn current(&self, ws: &str) -> Res<Vec<Item>> {
        self.store
            .current_items(&WorkspaceId(ws.to_string()))
            .map(|items| items.iter().map(Item::lift).collect())
            .map_err(text)
    }

    /// Writes a snapshot and truncates the logs below it.
    pub fn checkpoint(&self) -> Res<()> {
        self.store.checkpoint().map_err(text)
    }

    /// Models process death: every byte not yet fsynced is lost, and the
    /// store refuses further writes.
    pub fn crash(&self) {
        self.store.wal_simulate_crash(0);
    }

    /// The full store state, for equality checks across a restart.
    pub fn dump(&self) -> Value {
        self.store.snapshot()
    }
}

// ---------------------------------------------------------------------------
// The running stack
// ---------------------------------------------------------------------------

/// Broker, TCP front end, service pool, durable metadata store and object
/// store: the server side of one deployment, in this process.
pub struct Stack {
    server: BrokerServer,
    local: Broker,
    service: SyncService,
    instances: Vec<ServerHandle>,
    /// The durable metadata store behind the service pool.
    pub meta: Meta,
    /// The chunk store, with no modelled latency.
    pub objects: SwiftStore,
}

impl Stack {
    /// Starts the stack with its WAL under `dir` (created fresh).
    pub fn start(dir: &Path) -> Res<Stack> {
        let (meta, _) = Meta::open(dir)?;
        let mq = MessageBroker::new();
        let server = BrokerServer::bind("127.0.0.1:0", mq.clone()).map_err(text)?;
        let local = Broker::new(mq, BrokerConfig::default());
        let service = SyncService::builder(&local).store(meta.as_dyn()).build();
        let instances = (0..SERVICE_INSTANCES)
            .map(|_| service.bind(&local).map_err(text))
            .collect::<Res<Vec<_>>>()?;
        Ok(Stack {
            server,
            local,
            service,
            instances,
            meta,
            objects: SwiftStore::new(LatencyModel::instant()),
        })
    }

    /// Dials the TCP front end: one connection, shared by every device
    /// connected through the returned link.
    pub fn dial(&self) -> Res<Link> {
        let net = NetBroker::connect(self.server.local_addr()).map_err(text)?;
        let broker = Broker::over(Arc::new(net.clone()), BrokerConfig::default());
        Ok(Link {
            net: Some(net),
            broker,
        })
    }

    /// A link that skips TCP and talks to the broker in process. Set-up
    /// populates through it; nothing timed does.
    pub fn local_link(&self) -> Link {
        Link {
            net: None,
            broker: self.local.clone(),
        }
    }

    /// Version conflicts the service pool has detected.
    pub fn conflicts(&self) -> u64 {
        self.service.conflicts_detected()
    }

    /// Commit requests the service pool has processed.
    pub fn commits(&self) -> u64 {
        self.service.commits_processed()
    }

    /// Bytes uploaded to the chunk store so far.
    pub fn uploaded_bytes(&self) -> u64 {
        self.objects.traffic().uploaded_bytes()
    }

    /// (puts, gets) the chunk store has served so far.
    pub fn object_ops(&self) -> (u64, u64) {
        let t = self.objects.traffic();
        (t.put_count(), t.get_count())
    }

    /// Stops the service pool and the TCP front end, and closes the store.
    pub fn shutdown(self) {
        for instance in self.instances {
            instance.shutdown();
        }
        self.server.shutdown();
    }
}

/// A client-side connection to the broker.
pub struct Link {
    net: Option<NetBroker>,
    broker: Broker,
}

impl Link {
    /// Connects a device of `user` to workspace `ws` over this link, with
    /// the shipped client defaults. Runs the start-up protocol:
    /// `get_changes`, then materialise every file.
    pub fn device(&self, objects: &SwiftStore, user: &str, device: &str, ws: &str) -> Res<Device> {
        DesktopClient::connect(
            &self.broker,
            objects,
            ClientConfig::new(user, device),
            &WorkspaceId(ws.to_string()),
        )
        .map(|client| Device { client })
        .map_err(text)
    }

    /// The start-up protocol's `get_changes` call on its own, with the
    /// client's shipped timeout and retry budget. Returns when the call
    /// started and ended (the proxy is made before the clock starts) and
    /// how many items the reply listed.
    pub fn get_changes(&self, ws: &str) -> Res<(Instant, Instant, usize)> {
        let defaults = ClientConfig::new("probe", "probe");
        let proxy = self.broker.lookup(SYNC_SERVICE_OID).map_err(text)?;
        let started = Instant::now();
        let reply = proxy
            .call_sync(
                "get_changes",
                vec![Value::from(ws)],
                defaults.call_timeout,
                defaults.call_retries,
            )
            .map_err(text)?;
        let ended = Instant::now();
        Ok((started, ended, reply.as_list().map_err(text)?.len()))
    }

    /// Closes the connection.
    pub fn close(self) {
        if let Some(net) = self.net {
            net.close();
        }
    }
}

/// One desktop client bound to one workspace.
pub struct Device {
    client: DesktopClient,
}

impl Device {
    /// Writes a file and commits it asynchronously: returns once the chunks
    /// are stored and the commit request is published.
    pub fn write(&self, path: &str, contents: Vec<u8>) -> Res<()> {
        self.client.write_file(path, contents).map_err(text)
    }

    /// Deletes a file and commits the tombstone asynchronously.
    pub fn delete(&self, path: &str) -> Res<()> {
        self.client.delete_file(path).map_err(text)
    }

    /// Version of a path this device currently holds.
    pub fn version(&self, path: &str) -> Option<u64> {
        self.client.file_version(path)
    }

    /// Bytes of a path this device currently holds.
    pub fn read(&self, path: &str) -> Option<Vec<u8>> {
        self.client.read_file(path)
    }

    /// Paths this device currently holds.
    pub fn paths(&self) -> Vec<String> {
        self.client.list_files()
    }

    /// Control-plane bytes this device has sent and received.
    pub fn control_bytes(&self) -> u64 {
        self.client.stats().control_bytes()
    }

    /// Chunks this device uploaded, and chunks it skipped because the store
    /// already held them (both from the store's put receipts).
    pub fn chunk_counts(&self) -> (u64, u64) {
        let stats = self.client.stats();
        (stats.chunks_uploaded(), stats.chunks_deduplicated())
    }

    /// Commit notifications this device has received.
    pub fn notifications(&self) -> u64 {
        self.client.stats().notifications()
    }

    /// Commits this device lost to a conflict.
    pub fn conflicts(&self) -> u64 {
        self.client.stats().conflicts()
    }

    /// Unregisters the notification listener.
    pub fn disconnect(self) {
        self.client.disconnect();
    }
}

/// `len` bytes of file content with the product's default mix of
/// compressible and incompressible regions.
pub fn content_file(len: usize, seed: u64) -> Vec<u8> {
    workload::content_gen::generate_default(len, seed)
}

/// Reclaims chunks no file references any more, so memory stays bounded by
/// the live file set and not by the number of ops a run manages.
pub fn collect_garbage(objects: &SwiftStore, user: &str) -> Res<u64> {
    let token = objects.register_account(user, &format!("pw-{user}"));
    objects
        .gc_chunks(&token, user, &format!("{user}-chunks"))
        .map(|report| report.collected)
        .map_err(text)
}

// ---------------------------------------------------------------------------
// Layer handles for the probes
// ---------------------------------------------------------------------------

/// `content`: the client's ingest pipeline and its stages, one at a time.
pub struct ContentLayer {
    pipeline: IngestPipeline,
    chunker: FixedChunker,
    fingerprint: Fingerprint,
    compression: Algorithm,
}

/// What one ingest produced.
pub struct Ingested {
    /// Chunks ready for `StorageLayer::put`.
    pub chunks: Vec<StoredChunk>,
    /// Bytes after compression.
    pub payload_bytes: u64,
}

/// A chunk as the object store takes it.
#[derive(Clone)]
pub struct StoredChunk {
    inner: DedupChunk,
}

impl StoredChunk {
    /// The same bytes under another object name, so the store sees a chunk
    /// it does not hold yet.
    pub fn renamed(&self, name: String) -> StoredChunk {
        StoredChunk {
            inner: DedupChunk {
                name,
                ..self.inner.clone()
            },
        }
    }
}

impl ContentLayer {
    /// The pipeline `ClientConfig::new` builds: 512 KiB fixed chunks,
    /// SHA-1, LZSS, one worker.
    pub fn shipped() -> ContentLayer {
        let defaults = ClientConfig::new("probe", "probe");
        let chunker = FixedChunker::new(CHUNK_SIZE);
        ContentLayer {
            pipeline: IngestPipeline::new(
                Arc::new(chunker),
                PipelineConfig {
                    workers: defaults.ingest_workers,
                    fingerprint: defaults.fingerprint,
                    compression: Some(defaults.compression),
                },
            ),
            chunker,
            fingerprint: defaults.fingerprint,
            compression: defaults.compression,
        }
    }

    /// Chunk, hash and compress one file.
    pub fn ingest(&self, data: Bytes) -> Ingested {
        let report = self.pipeline.ingest(data);
        Ingested {
            payload_bytes: report.payload_bytes,
            chunks: report
                .chunks
                .iter()
                .map(|c| StoredChunk {
                    inner: DedupChunk {
                        name: c.id.to_string(),
                        payload: c.payload.clone(),
                        logical_len: c.len as u64,
                    },
                })
                .collect(),
        }
    }

    /// Chunk boundaries only; returns the chunk count.
    pub fn chunk(&self, data: &[u8]) -> usize {
        self.chunker.chunk(data).len()
    }

    /// Fingerprint of one chunk.
    pub fn hash(&self, chunk: &[u8]) -> [u8; 20] {
        *self.fingerprint.of(chunk).as_bytes()
    }

    /// Compresses one chunk.
    pub fn compress(&self, chunk: &[u8]) -> Bytes {
        self.compression.compress(chunk)
    }

    /// Decompresses one stored chunk.
    pub fn decompress(&self, stored: &[u8]) -> Res<Bytes> {
        Algorithm::decompress(stored).map_err(text)
    }
}

/// `storage`: an object store with one account and its chunk container.
pub struct StorageLayer {
    store: SwiftStore,
    token: Token,
    user: String,
    container: String,
}

impl StorageLayer {
    /// A fresh store with no modelled latency.
    pub fn instant() -> Res<StorageLayer> {
        let store = SwiftStore::new(LatencyModel::instant());
        let user = "probe".to_string();
        let token = store.register_account(&user, "pw-probe");
        let container = format!("{user}-chunks");
        store.ensure_container(&token, &container).map_err(text)?;
        Ok(StorageLayer {
            store,
            token,
            user,
            container,
        })
    }

    /// Records `chunks` as the content of `file_key`, writing the ones the
    /// store does not hold yet; returns how many it wrote.
    pub fn put(&self, file_key: &str, chunks: &[StoredChunk]) -> Res<u64> {
        let chunks: Vec<DedupChunk> = chunks.iter().map(|c| c.inner.clone()).collect();
        self.store
            .put_chunks(&self.token, &self.user, &self.container, file_key, &chunks)
            .map(|receipt| receipt.uploaded)
            .map_err(text)
    }

    /// Fetches one chunk by name.
    pub fn get(&self, name: &str) -> Res<Bytes> {
        self.store
            .get_in(&self.token, &self.user, &self.container, name)
            .map_err(text)
    }
}

/// `wire`: the messages one commit and one start-up put on the wire.
pub struct WireLayer;

impl WireLayer {
    /// Argument list of a `commit_request` for one item.
    pub fn commit_request(ws: &str, device: &str, item: &Item) -> Value {
        Value::List(vec![
            Value::from(ws),
            Value::from(device),
            Value::List(vec![item_to_value(&item.lower(ws, device))]),
        ])
    }

    /// The `CommitNotification` the service fans out for that commit.
    pub fn notification(ws: &str, device: &str, item: &Item) -> Value {
        CommitNotification {
            workspace: WorkspaceId(ws.to_string()),
            committer: device.to_string(),
            changes: vec![NotifiedChange {
                metadata: item.lower(ws, device),
                confirmed: true,
                current: None,
            }],
        }
        .to_value()
    }

    /// The `get_changes` reply listing `items`.
    pub fn changes_reply(ws: &str, items: &[Item]) -> Value {
        Value::List(
            items
                .iter()
                .map(|i| item_to_value(&i.lower(ws, "probe")))
                .collect(),
        )
    }

    /// Binary encoding, appended to `out`.
    pub fn encode(value: &Value, out: &mut Vec<u8>) {
        BinaryCodec.encode_into(value, out);
    }

    /// Binary decoding.
    pub fn decode(bytes: &[u8]) -> Res<Value> {
        BinaryCodec.decode(bytes).map_err(text)
    }
}

/// Compact JSON text of a value: every JSON byte the benchmark writes.
pub fn to_json(value: &Value) -> String {
    String::from_utf8(JsonCodec.encode(value)).expect("the JSON codec emits UTF-8")
}

/// Parses JSON text.
pub fn from_json(text_in: &str) -> Res<Value> {
    JsonCodec.decode(text_in.as_bytes()).map_err(text)
}

/// `mqsim` alone, or `mqsim` behind `net`: one queue, one consumer.
pub struct QueueLayer {
    mq: Arc<dyn Messaging>,
    consumer: Box<dyn MessageConsumer>,
    // Keeps the TCP front end and the connection alive for the TCP variant.
    _tcp: Option<(BrokerServer, NetBroker)>,
}

const PROBE_QUEUE: &str = "stackbench.probe";

impl QueueLayer {
    /// Queue on an in-process broker.
    pub fn in_process() -> Res<QueueLayer> {
        QueueLayer::over(Arc::new(MessageBroker::new()), None)
    }

    /// The same queue reached through `NetBroker` and `BrokerServer`.
    pub fn over_tcp() -> Res<QueueLayer> {
        let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).map_err(text)?;
        let net = NetBroker::connect(server.local_addr()).map_err(text)?;
        QueueLayer::over(Arc::new(net.clone()), Some((server, net)))
    }

    fn over(mq: Arc<dyn Messaging>, tcp: Option<(BrokerServer, NetBroker)>) -> Res<QueueLayer> {
        mq.declare_queue(PROBE_QUEUE, QueueOptions::default())
            .map_err(text)?;
        let consumer = mq.subscribe(PROBE_QUEUE).map_err(text)?;
        Ok(QueueLayer {
            mq,
            consumer,
            _tcp: tcp,
        })
    }

    /// Publish, receive and acknowledge one message.
    pub fn round_trip(&self, payload: Bytes) -> Res<usize> {
        self.mq
            .publish_to_queue(PROBE_QUEUE, Message::from_bytes(payload))
            .map_err(text)?;
        let delivery = self
            .consumer
            .recv_timeout(Duration::from_secs(10))
            .map_err(text)?;
        let len = delivery.message.len();
        delivery.ack();
        Ok(len)
    }

    /// Stops the TCP front end, if there is one.
    pub fn close(self) {
        drop(self.consumer);
        if let Some((server, net)) = self._tcp {
            net.close();
            server.shutdown();
        }
    }
}

/// A TCP front end with nothing behind it, for timing the dial alone.
pub struct DialTarget {
    server: BrokerServer,
}

impl DialTarget {
    /// Binds the front end.
    pub fn bind() -> Res<DialTarget> {
        BrokerServer::bind("127.0.0.1:0", MessageBroker::new())
            .map(|server| DialTarget { server })
            .map_err(text)
    }

    /// Connects, completes the hello handshake, and closes.
    pub fn dial(&self) -> Res<()> {
        let net = NetBroker::connect(self.server.local_addr()).map_err(text)?;
        net.close();
        Ok(())
    }

    /// Stops the front end.
    pub fn close(self) {
        self.server.shutdown();
    }
}

struct NullObject;

impl RemoteObject for NullObject {
    fn dispatch(&self, _method: &str, _args: &[Value]) -> Result<Value, String> {
        Ok(Value::Null)
    }
}

/// `objectmq`: a synchronous call to an object that does nothing.
pub struct RpcLayer {
    proxy: Proxy,
    handle: ServerHandle,
    tcp: Option<(BrokerServer, NetBroker)>,
}

impl RpcLayer {
    /// Caller and object share an in-process broker.
    pub fn in_process() -> Res<RpcLayer> {
        let broker = Broker::new(MessageBroker::new(), BrokerConfig::default());
        RpcLayer::bind(&broker, &broker, None)
    }

    /// The object sits behind the TCP front end; the caller dials it.
    pub fn over_tcp() -> Res<RpcLayer> {
        let mq = MessageBroker::new();
        let server = BrokerServer::bind("127.0.0.1:0", mq.clone()).map_err(text)?;
        let local = Broker::new(mq, BrokerConfig::default());
        let net = NetBroker::connect(server.local_addr()).map_err(text)?;
        let remote = Broker::over(Arc::new(net.clone()), BrokerConfig::default());
        RpcLayer::bind(&local, &remote, Some((server, net)))
    }

    fn bind(
        server_side: &Broker,
        caller_side: &Broker,
        tcp: Option<(BrokerServer, NetBroker)>,
    ) -> Res<RpcLayer> {
        let handle = server_side
            .bind("stackbench.null", NullObject)
            .map_err(text)?;
        let proxy = caller_side.lookup("stackbench.null").map_err(text)?;
        Ok(RpcLayer { proxy, handle, tcp })
    }

    /// One call with the client's shipped timeout and retry budget.
    pub fn call(&self) -> Res<()> {
        let defaults = ClientConfig::new("probe", "probe");
        self.proxy
            .call_sync("null", vec![], defaults.call_timeout, defaults.call_retries)
            .map(|_| ())
            .map_err(text)
    }

    /// Unbinds the object and stops the TCP front end, if there is one.
    pub fn close(self) {
        drop(self.proxy);
        self.handle.shutdown();
        if let Some((server, net)) = self.tcp {
            net.close();
            server.shutdown();
        }
    }
}

/// `sync`: a `SyncService` called directly, over a non-durable store and
/// with no listener bound, so no notification leaves it.
pub struct ServiceLayer {
    service: SyncService,
    /// The store behind the service.
    pub meta: Meta,
}

impl ServiceLayer {
    /// Builds the service.
    pub fn volatile() -> ServiceLayer {
        let meta = Meta::volatile();
        let broker = Broker::new(MessageBroker::new(), BrokerConfig::default());
        ServiceLayer {
            service: SyncService::builder(&broker).store(meta.as_dyn()).build(),
            meta,
        }
    }

    /// `dispatch("commit_request")` with prepared arguments.
    pub fn commit(&self, request: &Value) -> Res<()> {
        let Value::List(args) = request else {
            return Err("commit request must be an argument list".into());
        };
        self.service.dispatch("commit_request", args).map(|_| ())
    }
}

/// `wal`: one log with the shipped configuration.
pub struct WalLayer {
    log: wal::Log,
}

impl WalLayer {
    /// Opens a fresh log under `dir`.
    pub fn open(dir: &Path) -> Res<WalLayer> {
        wal::Log::open(dir, wal::LogConfig::named("stackbench.probe"))
            .map(|(log, _)| WalLayer { log })
            .map_err(text)
    }

    /// Appends one record and waits until it is durable.
    pub fn append_sync(&self, record: &[u8]) -> Res<()> {
        self.log
            .append(record)
            .and_then(|ticket| ticket.wait())
            .map_err(text)
    }
}

// ---------------------------------------------------------------------------
// Counters the program already exports
// ---------------------------------------------------------------------------

/// Stops the product's own metrics and spans (measured pass).
pub fn obs_off() {
    obs::disable();
}

/// Lets the product's own metrics and spans record (traced pass).
pub fn obs_on() {
    obs::enable();
}

/// Every counter, gauge and histogram count/sum the program exports, by its
/// exposition name (dots become underscores). A name the program no longer
/// exports is simply absent, which the caller reports as `null`.
pub fn registry() -> BTreeMap<String, f64> {
    obs::render_text()
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

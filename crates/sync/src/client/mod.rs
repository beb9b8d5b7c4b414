//! The StackSync desktop client (paper §4.1): virtual workspace folder,
//! watcher/indexer pipeline, chunk upload with per-user dedup, asynchronous
//! commit requests and push-notification handling.

mod localdb;
mod vfs;

pub use localdb::{ChunkLocation, FileEntry, LocalDb};
pub use vfs::{Stamped, VirtualFs};

use crate::conflict::conflict_copy_path;
use crate::error::{SyncError, SyncResult};
use crate::protocol::{item_to_value, workspace_from_value, CommitNotification};
use crate::service::SYNC_SERVICE_OID;
use crate::workspace_notification_oid;
use bytes::Bytes;
use content::chunker::{Chunker, ContentDefinedChunker, FixedChunker};
use content::compress::Algorithm;
use content::pipeline::{FileIndex, IngestPipeline, PipelineConfig};
use content::{sha1, ChunkId, Fingerprint};
use metadata::{items_from_reader, ItemMetadata, Workspace, WorkspaceId};
use objectmq::{Broker, Proxy, RemoteObject, ServerHandle};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{ChunkOffer, OfferOutcome, SwiftStore, Token};
use wire::{Codec, Value};

/// Chunking strategy — one of the extension hooks the paper calls out
/// ("the chunking and deduplication strategies" are replaceable, §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkingStrategy {
    /// Static chunking with a fixed size (the paper's default: 512 KB).
    Fixed {
        /// Chunk size in bytes.
        size: usize,
    },
    /// Content-defined chunking: boundaries follow the content, so
    /// beginning-of-file inserts do not re-ship the whole file.
    ContentDefined {
        /// Minimum chunk size.
        min: usize,
        /// Maximum chunk size.
        max: usize,
        /// Expected chunk size is `2^mask_bits`.
        mask_bits: u32,
        /// Rolling-hash window.
        window: usize,
    },
}

impl ChunkingStrategy {
    fn build(&self) -> Arc<dyn Chunker + Send + Sync> {
        match self {
            ChunkingStrategy::Fixed { size } => Arc::new(FixedChunker::new(*size)),
            ChunkingStrategy::ContentDefined {
                min,
                max,
                mask_bits,
                window,
            } => Arc::new(ContentDefinedChunker::new(*min, *max, *mask_bits, *window)),
        }
    }
}

/// Client configuration (chunking, compression, RPC policy).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Account the device belongs to.
    pub user: String,
    /// Device name (also the conflict-copy label).
    pub device: String,
    /// How files are split into chunks (default: fixed 512 KB, §4.1).
    pub chunking: ChunkingStrategy,
    /// Compression applied to chunks before upload.
    pub compression: Algorithm,
    /// Fingerprint algorithm deriving chunk ids: the paper's SHA-1, the
    /// only one. Chunk objects are addressed by fingerprint hex.
    pub fingerprint: Fingerprint,
    /// Threads one file's chunks may occupy, both ways: fingerprinting
    /// and compressing on the way up, fetching, decompressing and
    /// verifying on the way down. Default: one per core of the host
    /// ([`content::pipeline::host_workers`]); every client of the process
    /// borrows them from one shared pool. `with_ingest_workers(1)` is the
    /// paper's arrangement, a single-threaded client.
    pub ingest_workers: usize,
    /// `@SyncMethod` timeout (paper Fig. 6: 1500 ms).
    pub call_timeout: Duration,
    /// `@SyncMethod` retries (paper Fig. 6: 5).
    pub call_retries: u32,
}

impl ClientConfig {
    /// Creates a config with the paper's defaults.
    pub fn new(user: &str, device: &str) -> Self {
        ClientConfig {
            user: user.to_string(),
            device: device.to_string(),
            chunking: ChunkingStrategy::Fixed {
                size: content::DEFAULT_CHUNK_SIZE,
            },
            compression: Algorithm::Lzss,
            fingerprint: Fingerprint::Sha1,
            ingest_workers: content::pipeline::host_workers(),
            call_timeout: Duration::from_millis(1500),
            call_retries: 5,
        }
    }

    /// Uses fixed chunking with the given size (small chunks keep tests
    /// fast).
    pub fn with_chunk_size(mut self, size: usize) -> Self {
        self.chunking = ChunkingStrategy::Fixed { size };
        self
    }

    /// Uses content-defined chunking (immune to the boundary-shifting
    /// problem; costs more CPU per index pass).
    pub fn with_cdc(mut self, min: usize, max: usize, mask_bits: u32, window: usize) -> Self {
        self.chunking = ChunkingStrategy::ContentDefined {
            min,
            max,
            mask_bits,
            window,
        };
        self
    }

    /// Overrides the compression algorithm.
    pub fn with_compression(mut self, algorithm: Algorithm) -> Self {
        self.compression = algorithm;
        self
    }

    /// Lets one file's chunks occupy at most `workers` threads (clamped
    /// to at least 1, which keeps everything on the calling thread).
    pub fn with_ingest_workers(mut self, workers: usize) -> Self {
        self.ingest_workers = workers.max(1);
        self
    }
}

/// Client-side counters: the measurement hook behind the Fig. 7 control
/// traffic numbers. Cheap to clone; clones share counters.
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    inner: Arc<StatsInner>,
}

#[derive(Debug, Default)]
struct StatsInner {
    control_sent: AtomicU64,
    control_received: AtomicU64,
    chunks_uploaded: AtomicU64,
    chunk_bytes_uploaded: AtomicU64,
    chunks_deduplicated: AtomicU64,
    chunks_downloaded: AtomicU64,
    chunks_reused: AtomicU64,
    fingerprints: AtomicU64,
    conflicts: AtomicU64,
    notifications: AtomicU64,
}

impl ClientStats {
    /// Bytes of control-plane messages sent (commit requests, state
    /// queries).
    pub fn control_sent_bytes(&self) -> u64 {
        self.inner.control_sent.load(Ordering::Relaxed)
    }

    /// Bytes of control-plane messages received (notifications, state).
    pub fn control_received_bytes(&self) -> u64 {
        self.inner.control_received.load(Ordering::Relaxed)
    }

    /// Total control traffic both ways.
    pub fn control_bytes(&self) -> u64 {
        self.control_sent_bytes() + self.control_received_bytes()
    }

    /// Chunks actually uploaded.
    pub fn chunks_uploaded(&self) -> u64 {
        self.inner.chunks_uploaded.load(Ordering::Relaxed)
    }

    /// Compressed bytes shipped to the store.
    pub fn chunk_bytes_uploaded(&self) -> u64 {
        self.inner.chunk_bytes_uploaded.load(Ordering::Relaxed)
    }

    /// Uploads skipped thanks to per-user dedup.
    pub fn chunks_deduplicated(&self) -> u64 {
        self.inner.chunks_deduplicated.load(Ordering::Relaxed)
    }

    /// Chunks downloaded while applying remote changes.
    pub fn chunks_downloaded(&self) -> u64 {
        self.inner.chunks_downloaded.load(Ordering::Relaxed)
    }

    /// Chunks taken from the local folder instead of downloaded while
    /// applying remote changes.
    pub fn chunks_reused(&self) -> u64 {
        self.inner.chunks_reused.load(Ordering::Relaxed)
    }

    /// Chunk fingerprints computed, both ways: indexing a written file,
    /// checking a folder copy whose version the index did not record, and
    /// verifying a download. A chunk of a folder version whose ids are
    /// known is not hashed again, on either side.
    pub fn fingerprints(&self) -> u64 {
        self.inner.fingerprints.load(Ordering::Relaxed)
    }

    /// Conflicts this device lost (conflict copies created).
    pub fn conflicts(&self) -> u64 {
        self.inner.conflicts.load(Ordering::Relaxed)
    }

    /// Commit notifications received.
    pub fn notifications(&self) -> u64 {
        self.inner.notifications.load(Ordering::Relaxed)
    }
}

struct ClientShared {
    config: ClientConfig,
    workspace: WorkspaceId,
    store: SwiftStore,
    token: Token,
    /// Account owning the chunk container (the workspace owner; differs
    /// from the client's user for shared workspaces).
    container_owner: String,
    container: String,
    fs: Mutex<VirtualFs>,
    db: Mutex<LocalDb>,
    /// How many times `fs` or `db` changed; `wait_for_*` sleep on
    /// `changed` until it moves.
    generation: Mutex<u64>,
    changed: Condvar,
    stats: ClientStats,
    proxy: Proxy,
    /// Chunk→hash→compress ingest pipeline (the Indexer of §4.1); its
    /// scheduler also runs the download window, both capped at
    /// `ClientConfig::ingest_workers` threads.
    pipeline: IngestPipeline,
    /// `sync.client.chunks_reused_total`, summed over every client of
    /// the process.
    reused_total: Arc<obs::Counter>,
    /// `sync.client.fingerprints_total`, likewise.
    fingerprints_total: Arc<obs::Counter>,
    /// `sync.client.fetch_seconds`: fetching and verifying one window of
    /// items (on the notification path, one item).
    fetch_seconds: Arc<obs::Histogram>,
    /// `Some` while the start-up state is being materialized: what the
    /// listener received meanwhile, sized, in arrival order. `connect` applies
    /// it once the snapshot is in place, so nothing runs beside the window.
    parked: Mutex<Option<Vec<(CommitNotification, usize)>>>,
}

impl ClientShared {
    /// Wakes the `wait_for_*` callers; called after every change to `fs`
    /// or `db`, with neither lock held.
    fn note_change(&self) {
        *self.generation.lock() += 1;
        self.changed.notify_all();
    }

    /// Counts chunk fingerprints computed.
    fn note_fingerprints(&self, n: u64) {
        self.stats
            .inner
            .fingerprints
            .fetch_add(n, Ordering::Relaxed);
        self.fingerprints_total.add(n);
    }
}

/// A StackSync desktop client bound to one workspace.
///
/// Construction performs the paper's startup protocol: registration for
/// push notifications, then a synchronous `get_changes` to fetch the
/// workspace state (a commit made in between is parked and applied after
/// it). Afterwards every local mutation is indexed, deduplicated,
/// uploaded and committed asynchronously, and remote commits arrive as push
/// notifications applied to the local folder.
pub struct DesktopClient {
    shared: Arc<ClientShared>,
    listener: Option<ServerHandle>,
}

impl std::fmt::Debug for DesktopClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesktopClient")
            .field("user", &self.shared.config.user)
            .field("device", &self.shared.config.device)
            .field("workspace", &self.shared.workspace.0)
            .finish()
    }
}

/// Derives the stable item id of a path within a workspace: the first 8
/// bytes of `SHA1(workspace ‖ path)`. Devices independently creating the
/// same path thus propose the same item, which is what makes concurrent
/// creation a detectable version conflict.
pub fn stable_item_id(workspace: &WorkspaceId, path: &str) -> u64 {
    let mut data = workspace.0.as_bytes().to_vec();
    data.push(0);
    data.extend_from_slice(path.as_bytes());
    let digest = sha1::sha1(&data);
    u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"))
}

struct NotificationListener {
    shared: Arc<ClientShared>,
}

impl RemoteObject for NotificationListener {
    fn dispatch(&self, method: &str, args: &[Value]) -> Result<Value, String> {
        match method {
            "notify_commit" => {
                let value = args.first().ok_or("notify_commit needs a notification")?;
                let notification =
                    CommitNotification::from_value(value).map_err(|e| e.to_string())?;
                // Sized under the binary codec as received, with no second tree.
                let size = wire::BinaryCodec.encoded_len(value);
                if let Some(parked) = self.shared.parked.lock().as_mut() {
                    parked.push((notification, size));
                    return Ok(Value::Null);
                }
                apply_notification(&self.shared, &notification, size).map_err(|e| e.to_string())?;
                Ok(Value::Null)
            }
            other => Err(format!("workspace listener has no method `{other}`")),
        }
    }
}

impl DesktopClient {
    /// Lists the workspaces `user` can access — the `getWorkspaces` RPC a
    /// client performs on startup before choosing which workspace(s) to
    /// connect (paper Fig. 6).
    ///
    /// # Errors
    ///
    /// Middleware failures, or a remote error for an unknown user.
    pub fn workspaces(broker: &Broker, config: &ClientConfig) -> SyncResult<Vec<Workspace>> {
        let proxy = broker.lookup(SYNC_SERVICE_OID)?;
        let value = proxy.call_sync(
            "get_workspaces",
            vec![Value::from(config.user.as_str())],
            config.call_timeout,
            config.call_retries,
        )?;
        Ok(value
            .as_list()?
            .iter()
            .map(workspace_from_value)
            .collect::<Result<Vec<Workspace>, _>>()?)
    }

    /// Connects a device to a workspace: authenticates against the storage
    /// back-end, registers for push notifications, fetches the current
    /// workspace state with a synchronous `get_changes` and materializes it
    /// locally, then applies what was notified meanwhile.
    ///
    /// # Errors
    ///
    /// Fails when the SyncService is unreachable or the initial state
    /// cannot be materialized.
    pub fn connect(
        broker: &Broker,
        store: &SwiftStore,
        config: ClientConfig,
        workspace: &WorkspaceId,
    ) -> SyncResult<Self> {
        let token = store.register_account(&config.user, &format!("pw-{}", config.user));
        let proxy = broker.lookup(SYNC_SERVICE_OID)?;

        // Resolve the workspace owner: chunks of a shared workspace live
        // in the *owner's* container (access via a storage-layer grant).
        let info = proxy.call_sync(
            "get_workspace_info",
            vec![Value::from(workspace.0.as_str())],
            config.call_timeout,
            config.call_retries,
        )?;
        let container_owner = info.field("owner")?.as_str()?.to_string();
        let container = format!("{container_owner}-chunks");
        if container_owner == config.user {
            store.ensure_container(&token, &container)?;
        }

        let pipeline = IngestPipeline::new(
            config.chunking.build(),
            PipelineConfig {
                workers: config.ingest_workers,
                fingerprint: config.fingerprint,
                compression: Some(config.compression),
            },
        );

        let shared = Arc::new(ClientShared {
            workspace: workspace.clone(),
            store: store.clone(),
            token,
            container_owner,
            container,
            fs: Mutex::new(VirtualFs::new()),
            db: Mutex::new(LocalDb::new()),
            generation: Mutex::new(0),
            changed: Condvar::new(),
            stats: ClientStats::default(),
            proxy,
            pipeline,
            reused_total: obs::counter("sync.client.chunks_reused_total"),
            fingerprints_total: obs::counter("sync.client.fingerprints_total"),
            fetch_seconds: obs::histogram("sync.client.fetch_seconds"),
            parked: Mutex::new(Some(Vec::new())),
            config,
        });

        // Subscribe, then snapshot: a commit that lands after the listener
        // is bound is either in the `get_changes` reply or parked behind
        // it, so the joining device cannot miss it. Bound the other way
        // round, a commit between the reply and the bind was lost until
        // that file changed again.
        let listener = broker.bind(
            workspace_notification_oid(workspace),
            NotificationListener {
                shared: shared.clone(),
            },
        )?;
        if let Err(error) = join(&shared) {
            listener.shutdown();
            return Err(error);
        }

        Ok(DesktopClient {
            shared,
            listener: Some(listener),
        })
    }

    /// The device name.
    pub fn device(&self) -> &str {
        &self.shared.config.device
    }

    /// The workspace this client syncs.
    pub fn workspace(&self) -> &WorkspaceId {
        &self.shared.workspace
    }

    /// Client-side traffic/dedup counters.
    pub fn stats(&self) -> &ClientStats {
        &self.shared.stats
    }

    /// Writes a file into the workspace and synchronizes it (watcher +
    /// indexer pipeline: chunk, dedup, upload, async commit).
    ///
    /// # Errors
    ///
    /// Storage or middleware failures; the commit itself is asynchronous
    /// and reported later via notification.
    pub fn write_file(&self, path: &str, contents: Vec<u8>) -> SyncResult<()> {
        write_and_commit(&self.shared, path, Bytes::from(contents))
    }

    /// Deletes a file from the workspace and synchronizes the deletion.
    ///
    /// # Errors
    ///
    /// [`SyncError::NoSuchFile`] if the path is not in the workspace.
    pub fn delete_file(&self, path: &str) -> SyncResult<()> {
        if self.shared.fs.lock().remove(path).is_none() {
            return Err(SyncError::NoSuchFile(path.to_string()));
        }
        self.shared.note_change();
        let proposal = {
            let mut db = self.shared.db.lock();
            let entry = db
                .get(path)
                .cloned()
                .ok_or_else(|| SyncError::NoSuchFile(path.to_string()))?;
            let tombstone = FileEntry {
                version: entry.version + 1,
                chunks: vec![],
                size: 0,
                deleted: true,
                ..entry
            };
            db.upsert(path, tombstone.clone());
            ItemMetadata {
                item_id: tombstone.item_id,
                workspace: self.shared.workspace.clone(),
                path: path.to_string(),
                version: tombstone.version,
                chunks: vec![],
                size: 0,
                is_deleted: true,
                modified_by: self.shared.config.device.clone(),
            }
        };
        self.shared.note_change();
        // Release the item's chunk references: chunks no other file
        // holds become orphans, reclaimed by the store's next GC sweep.
        self.shared.store.release_file(
            &self.shared.token,
            &self.shared.container_owner,
            &self.shared.container,
            &dedup_file_key(&self.shared.workspace, path),
        )?;
        send_commit(&self.shared, vec![proposal])
    }

    /// Renames (moves) a file within the workspace.
    ///
    /// Item identity derives from the path, so a rename is a new item plus
    /// a tombstone for the old one — but per-user dedup means no chunk is
    /// re-uploaded: only metadata flows (the Dropbox behaviour).
    ///
    /// Renaming a file onto itself changes nothing and sends nothing.
    ///
    /// # Errors
    ///
    /// [`SyncError::NoSuchFile`] if `from` is not in the workspace.
    pub fn rename_file(&self, from: &str, to: &str) -> SyncResult<()> {
        let contents = self.shared.fs.lock().read(from).cloned();
        let contents = contents.ok_or_else(|| SyncError::NoSuchFile(from.to_string()))?;
        if from == to {
            return Ok(());
        }
        write_and_commit(&self.shared, to, contents)?;
        self.delete_file(from)
    }

    /// Reads a file from the local workspace copy.
    pub fn read_file(&self, path: &str) -> Option<Vec<u8>> {
        self.shared.fs.lock().read(path).map(|b| b.to_vec())
    }

    /// Paths currently in the local workspace copy, sorted.
    pub fn list_files(&self) -> Vec<String> {
        self.shared.fs.lock().paths()
    }

    /// Version of a path as known locally.
    pub fn file_version(&self, path: &str) -> Option<u64> {
        self.shared
            .db
            .lock()
            .get(path)
            .filter(|e| !e.deleted)
            .map(|e| e.version)
    }

    /// Blocks until the path holds exactly `expected` bytes (test/benchmark
    /// helper). Returns whether the condition was met before the timeout.
    pub fn wait_for_content(&self, path: &str, expected: &[u8], timeout: Duration) -> bool {
        self.wait_for_change(timeout, || {
            self.shared
                .fs
                .lock()
                .read(path)
                .is_some_and(|b| b[..] == *expected)
        })
    }

    /// Blocks until the path reaches at least `version`.
    pub fn wait_for_version(&self, path: &str, version: u64, timeout: Duration) -> bool {
        self.wait_for_change(timeout, || {
            self.shared
                .db
                .lock()
                .get(path)
                .is_some_and(|e| e.version >= version && !e.deleted)
        })
    }

    /// Blocks until the path disappears from the workspace.
    pub fn wait_for_absent(&self, path: &str, timeout: Duration) -> bool {
        self.wait_for_change(timeout, || !self.shared.fs.lock().contains(path))
    }

    /// Looks at the folder or the local database once per change to either
    /// (`ClientShared::note_change`), so the caller returns when the change
    /// it waits for lands and not at the next tick of a poll.
    fn wait_for_change(&self, timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut seen = *self.shared.generation.lock();
        loop {
            if pred() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            // A change that landed after `seen` was read has moved the
            // generation, so this does not sleep through it; waking for
            // any other reason only costs one more look.
            let mut generation = self.shared.generation.lock();
            if *generation == seen {
                self.shared.changed.wait_until(&mut generation, deadline);
            }
            seen = *generation;
        }
    }

    /// Polls an arbitrary predicate every 5 ms. A poll, because the
    /// predicate may read state whose changes the client cannot see (the
    /// service's commit counter, another device's folder), so there is
    /// nothing here to wake it.
    pub fn wait(&self, timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if pred() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Disconnects the client, unregistering the notification listener.
    pub fn disconnect(mut self) {
        if let Some(l) = self.listener.take() {
            l.shutdown();
        }
    }
}

/// The start-up protocol behind a bound listener: `get_changes` (the one
/// synchronous, costly call, paper: "StackSync clients perform only on
/// startup"), the state it lists, then the notifications parked meanwhile,
/// in arrival order; the ones the snapshot already covered fail
/// `apply_notification`'s "only if newer" check.
fn join(shared: &Arc<ClientShared>) -> SyncResult<()> {
    // The reply is read straight into items: no tree of it is built.
    let (items, received) = shared.proxy.call_sync_with(
        "get_changes",
        vec![Value::from(shared.workspace.0.as_str())],
        shared.config.call_timeout,
        shared.config.call_retries,
        |r| {
            let start = r.position();
            let items = items_from_reader(r, 1)?;
            Ok((items, r.position() - start))
        },
    )?;
    shared
        .stats
        .inner
        .control_received
        .fetch_add(received as u64, Ordering::Relaxed);
    materialize_all(shared, &items)?;
    loop {
        let arrived = match &mut *shared.parked.lock() {
            Some(parked) if !parked.is_empty() => std::mem::take(parked),
            // From here on the listener applies what it receives.
            parked => {
                *parked = None;
                return Ok(());
            }
        };
        for (notification, size) in &arrived {
            apply_notification(shared, notification, *size)?;
        }
    }
}

fn chunk_hex(id: &ChunkId) -> String {
    id.to_string()
}

/// The refcount key of a path in the chunk store: the item identity (the
/// same 8-byte digest that names the item in commits), so every device
/// of a workspace releases/overwrites the same reference.
fn dedup_file_key(workspace: &WorkspaceId, path: &str) -> String {
    format!("item-{:016x}", stable_item_id(workspace, path))
}

/// Puts one buffer into the folder and synchronizes it; the folder and
/// the indexer share the buffer.
fn write_and_commit(shared: &Arc<ClientShared>, path: &str, contents: Bytes) -> SyncResult<()> {
    let (stamp, replaced) = shared.fs.lock().write(path, contents.clone());
    shared.note_change();
    let written = Stamped {
        bytes: contents,
        stamp,
    };
    index_and_commit(shared, path, written, replaced)
}

/// The version `replaced` as an index, if the local database recorded its
/// chunk ids from exactly those bytes: same stamp, same buffer.
fn known_index(shared: &ClientShared, path: &str, replaced: Stamped) -> Option<FileIndex> {
    let db = shared.db.lock();
    let entry = db.get(path)?;
    (entry.stamp == Some(replaced.stamp)).then(|| FileIndex::known(replaced.bytes, &entry.chunks))
}

/// Chunks, hashes, dedups, compresses what is new, uploads and commits
/// one path (the Indexer of §4.1, run through the staged ingest
/// pipeline). `replaced` is the folder version `written` overwrote: the
/// chunks the two share byte for byte keep their ids unhashed.
fn index_and_commit(
    shared: &Arc<ClientShared>,
    path: &str,
    written: Stamped,
    replaced: Option<Stamped>,
) -> SyncResult<()> {
    let size = written.bytes.len() as u64;
    let index = match replaced.and_then(|replaced| known_index(shared, path, replaced)) {
        Some(previous) => shared.pipeline.reindex(written.bytes, previous),
        None => shared.pipeline.index(written.bytes),
    };
    shared.note_fingerprints(index.hashed() as u64);
    let names: Vec<String> = index.chunks().iter().map(|c| chunk_hex(&c.id)).collect();

    // Offer the chunk list to the refcount store by name first: it
    // answers with the chunks it lacks, and only those are compressed
    // and offered again. Already-live chunks are skipped server-side
    // (per-user dedup), and overwriting this item releases its previous
    // version's references. The store records the file only once it
    // holds every chunk, so the commit below never names a missing one;
    // a sweep that collects a chunk between two offers just makes the
    // next answer ask for it.
    let file_key = dedup_file_key(&shared.workspace, path);
    let mut payloads: Vec<Option<Bytes>> = vec![None; names.len()];
    let receipt = loop {
        let offer: Vec<ChunkOffer<'_>> = index
            .chunks()
            .iter()
            .zip(&names)
            .zip(&payloads)
            .map(|((chunk, name), payload)| ChunkOffer {
                name,
                logical_len: chunk.len as u64,
                payload: payload.as_ref(),
            })
            .collect();
        let answer = shared.store.offer_chunks(
            &shared.token,
            &shared.container_owner,
            &shared.container,
            &file_key,
            &offer,
        )?;
        match answer {
            OfferOutcome::Stored(receipt) => break receipt,
            OfferOutcome::Missing(missing) => {
                let packed = shared.pipeline.pack(&index, &missing);
                for (i, payload) in missing.into_iter().zip(packed) {
                    payloads[i] = Some(payload);
                }
            }
        }
    };
    shared
        .stats
        .inner
        .chunks_uploaded
        .fetch_add(receipt.uploaded, Ordering::Relaxed);
    shared
        .stats
        .inner
        .chunk_bytes_uploaded
        .fetch_add(receipt.bytes_written, Ordering::Relaxed);
    shared
        .stats
        .inner
        .chunks_deduplicated
        .fetch_add(receipt.dedup_hits + receipt.revived, Ordering::Relaxed);

    // Build the version proposal and update the local db optimistically so
    // consecutive local edits chain version numbers.
    let ids: Vec<ChunkId> = index.chunks().iter().map(|c| c.id).collect();
    let proposal = {
        let mut db = shared.db.lock();
        let (item_id, version) = match db.get(path) {
            Some(entry) => (entry.item_id, entry.version + 1),
            None => (stable_item_id(&shared.workspace, path), 1),
        };
        db.upsert(
            path,
            FileEntry {
                item_id,
                version,
                chunks: index.chunks().iter().map(|c| (c.id, c.len)).collect(),
                size,
                deleted: false,
                stamp: Some(written.stamp),
            },
        );
        ItemMetadata {
            item_id,
            workspace: shared.workspace.clone(),
            path: path.to_string(),
            version,
            chunks: ids,
            size,
            is_deleted: false,
            modified_by: shared.config.device.clone(),
        }
    };
    shared.note_change();
    send_commit(shared, vec![proposal])
}

/// Publishes an asynchronous commit request (paper: `@AsyncMethod
/// commitRequest`).
fn send_commit(shared: &Arc<ClientShared>, proposals: Vec<ItemMetadata>) -> SyncResult<()> {
    let args = Value::List(vec![
        Value::from(shared.workspace.0.as_str()),
        Value::from(shared.config.device.as_str()),
        Value::List(proposals.iter().map(item_to_value).collect()),
    ]);
    let encoded = wire::BinaryCodec.encoded_len(&args) as u64;
    shared
        .stats
        .inner
        .control_sent
        .fetch_add(encoded, Ordering::Relaxed);
    shared
        .proxy
        .call_async("commit_request", args.into_list()?)?;
    Ok(())
}

/// Where the local database places the chunk, read out of the folder, and
/// whether the folder still holds the version that place was recorded
/// from (then the window is the chunk; otherwise it must be hashed).
fn local_window(shared: &ClientShared, id: &ChunkId) -> Option<(Bytes, bool)> {
    let location = shared.db.lock().locate(id)?.clone();
    let file = shared.fs.lock().read_stamped(&location.path)?.clone();
    let end = location.offset.checked_add(location.len)?;
    if end > file.bytes.len() {
        return None;
    }
    let recorded = location.stamp == Some(file.stamp);
    Some((file.bytes.slice(location.offset..end), recorded))
}

/// Downloads one chunk from the store, decompresses it and checks its
/// fingerprint.
fn download_chunk(shared: &Arc<ClientShared>, id: &ChunkId) -> SyncResult<Bytes> {
    let raw = shared.store.get_in(
        &shared.token,
        &shared.container_owner,
        &shared.container,
        &chunk_hex(id),
    )?;
    let plain =
        Algorithm::decompress(&raw).map_err(|e| SyncError::Corrupt(format!("chunk {id}: {e}")))?;
    if shared.config.fingerprint.of(&plain) != *id {
        return Err(SyncError::Corrupt(format!(
            "chunk {id} failed fingerprint verification"
        )));
    }
    Ok(plain)
}

/// One chunk of an item, as [`fetch_chunk`] got it.
struct Fetched {
    plain: Bytes,
    /// Taken from the local folder rather than the chunk store.
    reused: bool,
    /// Fingerprints computed to get it: none for a folder copy of a
    /// version the index recorded, one for any other folder copy, one
    /// more if it was downloaded after all.
    fingerprints: u64,
}

/// One chunk of an item, verified: from the local folder when the
/// version there is the one the index recorded, or when what is there
/// has the chunk's fingerprint; from the chunk store otherwise. A file
/// rewritten since it was indexed just fails the check.
fn fetch_chunk(shared: &Arc<ClientShared>, id: &ChunkId) -> SyncResult<Fetched> {
    let mut fingerprints = 0;
    if let Some((window, recorded)) = local_window(shared, id) {
        if !recorded {
            fingerprints += 1;
        }
        if recorded || shared.config.fingerprint.of(&window) == *id {
            return Ok(Fetched {
                plain: window,
                reused: true,
                fingerprints,
            });
        }
    }
    Ok(Fetched {
        plain: download_chunk(shared, id)?,
        reused: false,
        fingerprints: fingerprints + 1,
    })
}

/// Plain bytes of the files materialized together (an item larger than
/// this is a window of its own). What a window costs is its chunks in
/// memory beside the files assembled from them; what it buys is every core
/// busy on one-chunk files. One unbounded window over the benchmark's
/// 18 MiB in 3 012 files read 2 ms of 43 lower than three of 8 MiB and
/// peaked 5 MiB higher (DESIGN.md §13): the barriers cost little, and
/// without them the memory grows with the workspace.
const WINDOW_BYTES: u64 = 8 << 20;

/// Materializes server-side items locally, in order: the start-up state
/// and, as a one-item slice, every notified change. Items are taken a
/// window of at most [`WINDOW_BYTES`] at a time; where the windows fall
/// depends on the sizes the items declare and on nothing else.
fn materialize_all(shared: &Arc<ClientShared>, items: &[ItemMetadata]) -> SyncResult<()> {
    let mut rest = items;
    while !rest.is_empty() {
        let (window, later) = rest.split_at(window_len(rest));
        materialize_window(shared, window)?;
        rest = later;
    }
    Ok(())
}

/// How many of `items`, from the front, make the next window: as many as
/// declare at most [`WINDOW_BYTES`] together, and at least one.
fn window_len(items: &[ItemMetadata]) -> usize {
    let mut bytes = 0u64;
    let mut taken = 0;
    for item in items {
        let size = if item.is_deleted { 0 } else { item.size };
        bytes = bytes.saturating_add(size);
        if taken > 0 && bytes > WINDOW_BYTES {
            break;
        }
        taken += 1;
    }
    taken
}

/// One window: every chunk of every file in it goes through the
/// pipeline's scheduler as one task (from the local folder when a verified
/// copy is there, from the chunk store otherwise; either way its
/// fingerprint has been compared to the committed id), then the files go
/// into the folder and the local database in item order, under one hold of
/// each lock. The first failing chunk in item-then-file order is the
/// error, and a window that fails changes neither folder nor database nor
/// counters. No file of the window is in the database while its chunks are
/// fetched, so a chunk two of its files share is fetched for both.
fn materialize_window(shared: &Arc<ClientShared>, window: &[ItemMetadata]) -> SyncResult<()> {
    let started = Instant::now();
    let ids: Vec<ChunkId> = window
        .iter()
        .filter(|item| !item.is_deleted)
        .flat_map(|item| item.chunks.iter().copied())
        .collect();
    let tasks = ids.len();
    let client = Arc::clone(shared);
    let mut fetched = shared
        .pipeline
        .map_tasks(tasks, move |k| fetch_chunk(&client, &ids[k]))
        .into_iter();

    let (mut reused, mut fingerprints) = (0, 0);
    // `None`: a tombstone.
    let mut files: Vec<Option<Bytes>> = Vec::with_capacity(window.len());
    let mut entries: Vec<FileEntry> = Vec::with_capacity(window.len());
    for item in window {
        if item.is_deleted {
            files.push(None);
            entries.push(FileEntry {
                item_id: item.item_id,
                version: item.version,
                chunks: vec![],
                size: 0,
                deleted: true,
                stamp: None,
            });
            continue;
        }
        let mut chunks = Vec::with_capacity(item.chunks.len());
        for _ in &item.chunks {
            let chunk = fetched.next().expect("one result per task")?;
            reused += u64::from(chunk.reused);
            fingerprints += chunk.fingerprints;
            chunks.push(chunk.plain);
        }
        let lens: Vec<usize> = chunks.iter().map(Bytes::len).collect();
        // A one-chunk file is its verified chunk. The capacity of any
        // other comes from the chunks in hand, not from the size the
        // service declared, which is checked against them instead.
        let contents = if chunks.len() == 1 {
            chunks.swap_remove(0)
        } else {
            let mut contents = Vec::with_capacity(lens.iter().sum());
            for chunk in &chunks {
                contents.extend_from_slice(chunk);
            }
            Bytes::from(contents)
        };
        if contents.len() as u64 != item.size {
            return Err(SyncError::Corrupt(format!(
                "`{}` v{} declares {} bytes, its chunks hold {}",
                item.path,
                item.version,
                item.size,
                contents.len()
            )));
        }
        files.push(Some(contents));
        entries.push(FileEntry {
            item_id: item.item_id,
            version: item.version,
            chunks: item.chunks.iter().copied().zip(lens).collect(),
            size: item.size,
            deleted: false,
            // Set once the folder has stamped the file.
            stamp: None,
        });
    }

    let stats = &shared.stats.inner;
    stats
        .chunks_downloaded
        .fetch_add(tasks as u64 - reused, Ordering::Relaxed);
    stats.chunks_reused.fetch_add(reused, Ordering::Relaxed);
    shared.reused_total.add(reused);
    shared.note_fingerprints(fingerprints);
    shared.fetch_seconds.record(started.elapsed());

    {
        let mut fs = shared.fs.lock();
        for ((item, contents), entry) in window.iter().zip(files).zip(&mut entries) {
            match contents {
                Some(contents) => entry.stamp = Some(fs.write(&item.path, contents).0),
                None => {
                    fs.remove(&item.path);
                }
            }
        }
    }
    {
        let mut db = shared.db.lock();
        for (item, entry) in window.iter().zip(entries) {
            db.upsert(&item.path, entry);
        }
    }
    shared.note_change();
    Ok(())
}

/// Applies a push notification of encoded `size` to the local state (paper
/// §4.1: committed changes "will be immediately applied to the affected
/// workspace").
fn apply_notification(
    shared: &Arc<ClientShared>,
    notification: &CommitNotification,
    size: usize,
) -> SyncResult<()> {
    shared
        .stats
        .inner
        .notifications
        .fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .inner
        .control_received
        .fetch_add(size as u64, Ordering::Relaxed);

    let own_device = shared.config.device == notification.committer;
    for change in &notification.changes {
        let item = &change.metadata;
        if change.confirmed {
            if own_device && item.modified_by == shared.config.device {
                // Confirmation of our own optimistic commit: nothing to do,
                // the local db already reflects it.
                continue;
            }
            let newer = {
                let db = shared.db.lock();
                db.get(&item.path).is_none_or(|e| item.version > e.version)
            };
            if newer {
                materialize_all(shared, std::slice::from_ref(item))?;
            }
        } else if own_device && item.modified_by == shared.config.device {
            // We lost a conflict: keep our bytes as a conflict copy, adopt
            // the winning server version under the original path (the
            // Dropbox policy, paper §4.1/§4.2.1).
            shared.stats.inner.conflicts.fetch_add(1, Ordering::Relaxed);
            let current = change
                .current
                .clone()
                .ok_or_else(|| SyncError::Corrupt("conflict without current version".into()))?;
            let losing_bytes = shared.fs.lock().read(&item.path).cloned();
            materialize_all(shared, std::slice::from_ref(&current))?;
            if let Some(bytes) = losing_bytes {
                let copy_path = conflict_copy_path(&item.path, &shared.config.device);
                // The conflict copy is a brand-new file that must itself be
                // synchronized to every device.
                write_and_commit(shared, &copy_path, bytes)?;
            }
        }
        // Conflicts lost by *other* devices need no local action: the
        // winning version is already ours or will arrive as its own
        // confirmed notification.
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn stable_item_ids_are_stable_and_distinct() {
        let ws1 = WorkspaceId::from("ws-1");
        let ws2 = WorkspaceId::from("ws-2");
        assert_eq!(stable_item_id(&ws1, "a.txt"), stable_item_id(&ws1, "a.txt"));
        assert_ne!(stable_item_id(&ws1, "a.txt"), stable_item_id(&ws1, "b.txt"));
        assert_ne!(stable_item_id(&ws1, "a.txt"), stable_item_id(&ws2, "a.txt"));
    }

    #[test]
    fn config_builder() {
        let c = ClientConfig::new("u", "d")
            .with_chunk_size(1024)
            .with_compression(Algorithm::Store);
        assert_eq!(c.chunking, ChunkingStrategy::Fixed { size: 1024 });
        assert_eq!(c.compression, Algorithm::Store);
        assert_eq!(c.call_retries, 5);
        assert_eq!(c.call_timeout, Duration::from_millis(1500));
    }

    /// 4 KiB chunks, each different from every other.
    fn distinct_chunks(n: usize, seed: u8) -> Vec<u8> {
        (0..n * 4096)
            .map(|i| (i / 4096) as u8 ^ (i % 251) as u8 ^ seed)
            .collect()
    }

    /// A deployment with one workspace of alice's.
    fn deployment() -> (crate::Deployment, WorkspaceId) {
        let stack = crate::Deployment::builder().build().unwrap();
        let ws = stack.provision("alice", "Docs").unwrap();
        (stack, ws)
    }

    const TIMEOUT: Duration = Duration::from_secs(5);

    #[test]
    fn folder_bytes_that_no_longer_match_the_index_are_fetched_not_reused() {
        // A local write racing a notification for the same path, stopped
        // where it matters: the new bytes are in the folder, the local
        // database still describes the old ones.
        let (stack, ws) = deployment();
        let config = |device: &str| ClientConfig::new("alice", device).with_chunk_size(4096);
        let a = stack.connect(config("laptop"), &ws).unwrap();
        let b = stack.connect(config("phone"), &ws).unwrap();
        let timeout = TIMEOUT;

        let v1 = distinct_chunks(3, 0);
        a.write_file("f.bin", v1.clone()).unwrap();
        assert!(b.wait_for_content("f.bin", &v1, timeout));
        assert_eq!(b.stats().chunks_downloaded(), 3);

        // The first chunk is rewritten under the index's feet.
        let mut local = v1.clone();
        local[..4096].fill(0xEE);
        b.shared.fs.lock().write("f.bin", Bytes::from(local));

        let mut v2 = v1.clone();
        v2.extend_from_slice(&distinct_chunks(1, 0x55));
        a.write_file("f.bin", v2.clone()).unwrap();
        assert!(b.wait_for_version("f.bin", 2, timeout));
        assert_eq!(
            b.read_file("f.bin").unwrap(),
            v2,
            "the notified version, byte for byte"
        );
        // Chunk 0 failed the fingerprint check and was fetched like the
        // appended one; chunks 1 and 2 still matched and were reused.
        assert_eq!(b.stats().chunks_downloaded(), 3 + 2);
        assert_eq!(b.stats().chunks_reused(), 2);

        // A file that shrank under the index: the location is out of
        // range, which is a miss and not a panic.
        b.shared
            .fs
            .lock()
            .write("f.bin", Bytes::from(vec![1u8; 10]));
        let v3 = distinct_chunks(4, 0);
        a.write_file("f.bin", v3.clone()).unwrap();
        assert!(b.wait_for_version("f.bin", 3, timeout));
        assert_eq!(b.read_file("f.bin").unwrap(), v3);
        assert_eq!(b.stats().chunks_reused(), 2);
    }

    /// Everything a schedule leaves behind that the thread count could
    /// conceivably have touched.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        devices: Vec<Device>,
        /// Store-side puts, gets, deletes, bytes up, bytes down.
        traffic: [u64; 5],
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Device {
        /// Path and bytes of every file in the folder.
        folder: Vec<(String, Vec<u8>)>,
        /// Database entry of every path the schedule used.
        entries: Vec<Option<FileEntry>>,
        /// Chunks uploaded, bytes uploaded, chunks deduplicated,
        /// fingerprints computed, chunks downloaded, reused.
        counters: [u64; 6],
    }

    fn observe(device: &DesktopClient, paths: &[&str]) -> Device {
        let folder = device
            .list_files()
            .into_iter()
            .map(|path| {
                let bytes = device.read_file(&path).unwrap();
                (path, bytes)
            })
            .collect();
        let db = device.shared.db.lock();
        let entries = paths.iter().map(|path| db.get(path).cloned()).collect();
        let stats = device.stats();
        let counters = [
            stats.chunks_uploaded(),
            stats.chunk_bytes_uploaded(),
            stats.chunks_deduplicated(),
            stats.fingerprints(),
            stats.chunks_downloaded(),
            stats.chunks_reused(),
        ];
        Device {
            folder,
            entries,
            counters,
        }
    }

    /// Multi-chunk ADD, append UPDATE (the watcher reuses its local
    /// chunks), rename (metadata only), then a device that joins late.
    fn run_schedule(configure: impl Fn(ClientConfig) -> ClientConfig) -> Outcome {
        let (stack, ws) = deployment();
        let config = |device: &str| configure(ClientConfig::new("alice", device));
        let a = stack.connect(config("laptop"), &ws).unwrap();
        let b = stack.connect(config("phone"), &ws).unwrap();

        let v1 = distinct_chunks(10, 3);
        a.write_file("f.bin", v1.clone()).unwrap();
        assert!(b.wait_for_content("f.bin", &v1, TIMEOUT));
        let mut v2 = v1;
        v2.extend_from_slice(&distinct_chunks(3, 0x77)[..9_000]);
        a.write_file("f.bin", v2.clone()).unwrap();
        assert!(b.wait_for_content("f.bin", &v2, TIMEOUT));
        a.rename_file("f.bin", "g.bin").unwrap();
        assert!(b.wait_for_content("g.bin", &v2, TIMEOUT));
        assert!(b.wait_for_absent("f.bin", TIMEOUT));
        let c = stack.connect(config("tablet"), &ws).unwrap();
        assert_eq!(c.read_file("g.bin").unwrap(), v2);

        let devices = [&a, &b, &c]
            .map(|device| observe(device, &["f.bin", "g.bin"]))
            .to_vec();
        let traffic = stack.objects().traffic();
        Outcome {
            devices,
            traffic: [
                traffic.put_count(),
                traffic.get_count(),
                traffic.delete_count(),
                traffic.uploaded_bytes(),
                traffic.downloaded_bytes(),
            ],
        }
    }

    #[test]
    fn the_thread_count_decides_nothing() {
        let chunkings: [fn(ClientConfig) -> ClientConfig; 2] = [
            |c| c.with_chunk_size(4096),
            |c| c.with_cdc(1024, 8192, 11, 48),
        ];
        for chunking in chunkings {
            let inline = run_schedule(|c| chunking(c).with_ingest_workers(1));
            let [.., downloaded, reused] = inline.devices[1].counters;
            assert!(downloaded >= 10 && reused >= 10, "{downloaded} {reused}");
            // The default (one thread per core), and a window wider than
            // this host has cores.
            assert_eq!(run_schedule(chunking), inline);
            assert_eq!(run_schedule(|c| chunking(c).with_ingest_workers(4)), inline);
        }
    }

    /// Re-hashes every span `client` would take from its folder without
    /// hashing it, through the functions that decide so: each chunk of a
    /// file whose previous version the writer would reindex against, and
    /// each located chunk the watcher would reuse unhashed. Returns how
    /// many spans it checked.
    fn check_trusted_spans(client: &DesktopClient, step: &str) -> usize {
        let shared = &client.shared;
        let fingerprint = shared.config.fingerprint;
        let mut checked = 0;
        for path in client.list_files() {
            let Some(version) = shared.fs.lock().read_stamped(&path).cloned() else {
                continue;
            };
            let bytes = version.bytes.clone();
            if let Some(index) = known_index(shared, &path, version) {
                let mut end = 0;
                for chunk in index.chunks() {
                    let span = bytes.get(chunk.offset..chunk.offset + chunk.len);
                    assert_eq!(
                        span.map(|span| fingerprint.of(span)),
                        Some(chunk.id),
                        "{step}: {path}"
                    );
                    end = chunk.offset + chunk.len;
                }
                assert_eq!(end, bytes.len(), "{step}: {path}");
                checked += index.chunks().len();
            }
        }
        let ids: Vec<ChunkId> = {
            let db = shared.db.lock();
            db.live_paths()
                .iter()
                .flat_map(|path| db.get(path).unwrap().chunks.iter().map(|(id, _)| *id))
                .collect()
        };
        for id in ids {
            if let Some((window, true)) = local_window(shared, &id) {
                assert_eq!(fingerprint.of(&window), id, "{step}: chunk {id}");
                checked += 1;
            }
        }
        checked
    }

    /// xorshift64*, for schedules a seed replays.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n.max(1)
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.below(256) as u8).collect()
        }
    }

    /// Waits until `other` holds the version of `path` that `me` committed
    /// last, and says whether it holds `contents` there. A wait for the
    /// bytes alone would return at once when the new version repeats the
    /// old one, and the next step would then conflict.
    fn caught_up(other: &DesktopClient, me: &DesktopClient, path: &str, contents: &[u8]) -> bool {
        let version = me.file_version(path).unwrap();
        other.wait_for_version(path, version, TIMEOUT)
            && other.read_file(path).as_deref() == Some(contents)
    }

    /// One seeded schedule over two devices: local writes, appends,
    /// same-length edits in place, renames (onto another file and onto
    /// itself), deletes, and folder writes the index never hears of, each
    /// followed by the other device catching up on its notification. After
    /// every step, every span either device would trust unhashed must hash
    /// to its id, and both folders must hold what was committed.
    fn run_seeded_schedule(seed: u64, configure: fn(ClientConfig) -> ClientConfig) -> usize {
        const PATHS: [&str; 4] = ["a.bin", "b.bin", "c.bin", "d.bin"];
        let (stack, ws) = deployment();
        let config = |device: &str| configure(ClientConfig::new("alice", device));
        let devices = [
            stack.connect(config("laptop"), &ws).unwrap(),
            stack.connect(config("phone"), &ws).unwrap(),
        ];
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        // What was last committed under each path.
        let mut committed: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut checked = 0;
        for step in 0..48 {
            let (me, other) = match rng.below(2) {
                0 => (&devices[0], &devices[1]),
                _ => (&devices[1], &devices[0]),
            };
            let live: Vec<String> = committed.keys().cloned().collect();
            let existing = (!live.is_empty()).then(|| live[rng.below(live.len())].clone());
            let target = PATHS[rng.below(PATHS.len())].to_string();
            let op = rng.below(7);
            let label = format!("seed {seed} step {step} op {op} on {}", me.device());
            let mut wrote = |path: &str, contents: Vec<u8>| {
                me.write_file(path, contents.clone()).unwrap();
                assert!(caught_up(other, me, path, &contents), "{label}");
                committed.insert(path.to_string(), contents);
            };
            match (op, existing) {
                (1, Some(path)) => {
                    let mut contents = me.read_file(&path).unwrap();
                    let more = 1 + rng.below(9_000);
                    contents.extend_from_slice(&rng.bytes(more));
                    wrote(&path, contents);
                }
                (2, Some(path)) => {
                    let mut contents = me.read_file(&path).unwrap();
                    for _ in 0..1 + rng.below(4) {
                        if !contents.is_empty() {
                            let at = rng.below(contents.len());
                            contents[at] ^= 1 + rng.below(255) as u8;
                        }
                    }
                    wrote(&path, contents);
                }
                (3, Some(path)) => {
                    // Behind the index's back: the same bytes again, some
                    // of them changed, or fewer of them.
                    let mut contents = me.read_file(&path).unwrap();
                    match rng.below(3) {
                        0 => {}
                        1 if !contents.is_empty() => {
                            let at = rng.below(contents.len());
                            contents[at] ^= 0xff;
                        }
                        _ => contents.truncate(rng.below(contents.len() + 1)),
                    }
                    me.shared.fs.lock().write(&path, Bytes::from(contents));
                }
                (4, Some(path)) => {
                    let contents = me.read_file(&path).unwrap();
                    let version = me.file_version(&path);
                    me.rename_file(&path, &target).unwrap();
                    if target == path {
                        assert_eq!(me.file_version(&path), version, "{label}");
                    } else {
                        assert!(caught_up(other, me, &target, &contents), "{label}");
                        assert!(other.wait_for_absent(&path, TIMEOUT), "{label}");
                        committed.remove(&path);
                        committed.insert(target, contents);
                    }
                }
                (5, Some(path)) => {
                    me.delete_file(&path).unwrap();
                    assert!(other.wait_for_absent(&path, TIMEOUT), "{label}");
                    committed.remove(&path);
                }
                (6, Some(path)) => {
                    // Another file's chunks, under another name.
                    let contents = me.read_file(&path).unwrap();
                    wrote(&target, contents);
                }
                _ => {
                    let len = rng.below(6 * 4096);
                    let contents = rng.bytes(len);
                    wrote(&target, contents);
                }
            }
            for device in &devices {
                checked += check_trusted_spans(device, &label);
            }
        }
        // Folder writes the index never heard of are the only difference
        // left; committing what each folder holds settles them.
        for (path, contents) in &committed {
            for device in &devices {
                if device.read_file(path).as_ref() != Some(contents) {
                    let held = device.read_file(path).unwrap();
                    device.write_file(path, held.clone()).unwrap();
                    let other = devices
                        .iter()
                        .find(|d| d.device() != device.device())
                        .unwrap();
                    assert!(caught_up(other, device, path, &held));
                }
            }
        }
        for device in &devices {
            checked += check_trusted_spans(device, "settled");
        }
        let [a, b] = devices.map(|device| observe(&device, &PATHS).folder);
        assert_eq!(a, b, "seed {seed}: the two folders agree");
        checked
    }

    #[test]
    fn every_span_trusted_without_hashing_hashes_to_its_id() {
        let chunkings: [fn(ClientConfig) -> ClientConfig; 2] = [
            |c| c.with_chunk_size(4096),
            |c| c.with_cdc(1024, 8192, 11, 48),
        ];
        let mut checked = 0;
        for seed in 1..=6 {
            checked += run_seeded_schedule(seed, chunkings[seed as usize % 2]);
        }
        assert!(
            checked > 1_000,
            "only {checked} trusted spans: the check proves little"
        );
    }

    #[test]
    fn a_corrupt_chunk_mid_file_is_named_in_file_order_and_changes_nothing() {
        let (stack, ws) = deployment();
        let config = |device: &str| {
            ClientConfig::new("alice", device)
                .with_chunk_size(4096)
                .with_ingest_workers(8)
        };
        let a = stack.connect(config("laptop"), &ws).unwrap();
        let b = stack.connect(config("phone"), &ws).unwrap();
        let v1 = distinct_chunks(6, 0);
        a.write_file("f.bin", v1.clone()).unwrap();
        assert!(b.wait_for_content("f.bin", &v1, TIMEOUT));
        let entry_before = b.shared.db.lock().get("f.bin").cloned().unwrap();
        let downloaded_before = b.stats().chunks_downloaded();

        // Version 2 as the store would hold it after an honest upload,
        // six new chunks in one window — except that chunk 2 holds some
        // other chunk's bytes (found out last: decompress, then hash) and
        // chunk 4 is not an LZSS stream at all (found out first).
        let v2 = distinct_chunks(6, 0x99);
        let ids: Vec<ChunkId> = v2.chunks(4096).map(|c| Fingerprint::Sha1.of(c)).collect();
        for (i, (id, plain)) in ids.iter().zip(v2.chunks(4096)).enumerate() {
            let stored = match i {
                2 => Algorithm::Lzss.compress(&v1[..4096]),
                4 => Bytes::from_static(b"\xffnot a chunk"),
                _ => Algorithm::Lzss.compress(plain),
            };
            let (owner, container) = (&b.shared.container_owner, &b.shared.container);
            stack
                .objects()
                .put_in(&b.shared.token, owner, container, &chunk_hex(id), stored)
                .unwrap();
        }
        let item = ItemMetadata {
            item_id: entry_before.item_id,
            workspace: ws.clone(),
            path: "f.bin".to_string(),
            version: 2,
            chunks: ids.clone(),
            size: v2.len() as u64,
            is_deleted: false,
            modified_by: "laptop".to_string(),
        };
        for _ in 0..20 {
            let error = materialize_all(&b.shared, std::slice::from_ref(&item)).unwrap_err();
            assert_eq!(
                error.to_string(),
                SyncError::Corrupt(format!("chunk {} failed fingerprint verification", ids[2]))
                    .to_string(),
                "the first bad chunk in file order, whichever task finished first"
            );
        }
        assert_eq!(b.read_file("f.bin").unwrap(), v1, "the folder keeps v1");
        assert_eq!(b.shared.db.lock().get("f.bin"), Some(&entry_before));
        assert_eq!(b.stats().chunks_downloaded(), downloaded_before);
    }

    /// An item as the service would list it, its chunks not looked at.
    fn declared(path: &str, size: u64, is_deleted: bool) -> ItemMetadata {
        ItemMetadata {
            item_id: 1,
            workspace: WorkspaceId::from("ws"),
            path: path.to_string(),
            version: 1,
            chunks: vec![],
            size,
            is_deleted,
            modified_by: "laptop".to_string(),
        }
    }

    #[test]
    fn a_window_is_the_items_that_declare_at_most_its_bytes_and_at_least_one() {
        let w = WINDOW_BYTES;
        let lens = |sizes: &[u64]| {
            let items: Vec<ItemMetadata> = sizes
                .iter()
                .map(|&size| declared("f", size, false))
                .collect();
            let (mut rest, mut lens) = (&items[..], vec![]);
            while !rest.is_empty() {
                lens.push(window_len(rest));
                rest = &rest[lens[lens.len() - 1]..];
            }
            lens
        };
        assert_eq!(lens(&[1, 2, 3]), [3]);
        assert_eq!(
            lens(&[w - 1, 1, 1]),
            [2, 1],
            "filled to the byte, then the next"
        );
        assert_eq!(lens(&[w, 0, 0, 1]), [3, 1], "empty files ride along");
        assert_eq!(lens(&[1, w]), [1, 1]);
        assert_eq!(lens(&[w + 1, 0, 1]), [1, 2], "too large for any: its own");
        assert_eq!(lens(&[u64::MAX, u64::MAX, 5]), [1, 1, 1], "no overflow");
        // A tombstone's declared size is not read.
        let items = [declared("a", w, false), declared("b", w, true)];
        assert_eq!(window_len(&items), 2);
    }

    #[test]
    fn a_join_is_the_same_state_whatever_the_thread_count() {
        // Files below, at and above the window, one of exactly its size,
        // an empty one and a tombstone, in the order the store lists them.
        let (stack, ws) = deployment();
        let config = |device: &str| {
            ClientConfig::new("alice", device)
                .with_chunk_size(256 * 1024)
                .with_compression(Algorithm::Store)
        };
        let window = WINDOW_BYTES as usize;
        let body = |len: usize, seed: u8| -> Vec<u8> {
            (0..len)
                .map(|i| (i / 4096) as u8 ^ (i % 251) as u8 ^ seed)
                .collect()
        };
        let files = [
            ("small-a.bin", body(5_000, 1)),
            ("exact.bin", body(window, 2)),
            ("empty.bin", vec![]),
            ("small-b.bin", body(300_000, 3)),
            ("above.bin", body(window + 70_000, 4)),
            ("gone.bin", body(9_000, 5)),
            ("small-c.bin", body(1, 6)),
        ];
        let writer = stack.connect(config("laptop"), &ws).unwrap();
        for (path, contents) in &files {
            writer.write_file(path, contents.clone()).unwrap();
        }
        writer.delete_file("gone.bin").unwrap();
        let commits = files.len() as u64 + 1;
        assert!(writer.wait(TIMEOUT, || stack.service().commits_processed() == commits));
        let paths: Vec<&str> = files.iter().map(|(path, _)| *path).collect();

        let join = |device: &str, configure: fn(ClientConfig) -> ClientConfig| {
            let joiner = stack.connect(configure(config(device)), &ws).unwrap();
            observe(&joiner, &paths)
        };
        let inline = join("one", |c| c.with_ingest_workers(1));
        assert_eq!(inline.folder.len(), files.len() - 1);
        for (path, contents) in &files {
            let held = inline.folder.iter().find(|(held, _)| held == path);
            match *path {
                "gone.bin" => assert_eq!(held, None),
                _ => assert!(held.is_some_and(|(_, bytes)| bytes == contents), "{path}"),
            }
        }
        let tombstone = inline.entries[5].as_ref().unwrap();
        assert!(tombstone.deleted && tombstone.version == 2);
        let [.., downloaded, reused] = inline.counters;
        let chunks: u64 = files
            .iter()
            .filter(|(path, _)| *path != "gone.bin")
            .map(|(_, contents)| contents.len().div_ceil(256 * 1024) as u64)
            .sum();
        assert_eq!(downloaded + reused, chunks);
        assert_eq!(join("host", |c| c), inline);
        assert_eq!(join("four", |c| c.with_ingest_workers(4)), inline);
    }

    #[test]
    fn a_corrupt_chunk_mid_window_is_named_in_item_then_file_order_and_changes_nothing() {
        let (stack, ws) = deployment();
        let config = |device: &str| {
            ClientConfig::new("alice", device)
                .with_chunk_size(4096)
                .with_ingest_workers(8)
        };
        let a = stack.connect(config("laptop"), &ws).unwrap();
        let b = stack.connect(config("phone"), &ws).unwrap();
        let paths: Vec<String> = (0..6).map(|i| format!("f{i}.bin")).collect();
        let v1: Vec<Vec<u8>> = (0..6).map(|i| distinct_chunks(2, i)).collect();
        for (path, contents) in paths.iter().zip(&v1) {
            a.write_file(path, contents.clone()).unwrap();
        }
        for (path, contents) in paths.iter().zip(&v1) {
            assert!(b.wait_for_content(path, contents, TIMEOUT));
        }
        let path_refs: Vec<&str> = paths.iter().map(String::as_str).collect();
        let before = observe(&b, &path_refs);

        // Version 2 of all six as one window of twelve tasks, stored
        // honestly except that the second chunk of f3 holds some other
        // chunk's bytes (found out last: decompress, then hash) and the
        // first chunk of f4 is not an LZSS stream at all (found out first).
        let mut items = Vec::new();
        let mut first_bad = None;
        for (i, path) in paths.iter().enumerate() {
            let v2 = distinct_chunks(2, 0x90 + i as u8);
            let ids: Vec<ChunkId> = v2.chunks(4096).map(|c| Fingerprint::Sha1.of(c)).collect();
            for (k, (id, plain)) in ids.iter().zip(v2.chunks(4096)).enumerate() {
                let stored = match (i, k) {
                    (3, 1) => {
                        first_bad = Some(*id);
                        Algorithm::Lzss.compress(&v1[0][..4096])
                    }
                    (4, 0) => Bytes::from_static(b"\xffnot a chunk"),
                    _ => Algorithm::Lzss.compress(plain),
                };
                let (owner, container) = (&b.shared.container_owner, &b.shared.container);
                stack
                    .objects()
                    .put_in(&b.shared.token, owner, container, &chunk_hex(id), stored)
                    .unwrap();
            }
            items.push(ItemMetadata {
                item_id: stable_item_id(&ws, path),
                workspace: ws.clone(),
                path: path.clone(),
                version: 2,
                chunks: ids,
                size: v2.len() as u64,
                is_deleted: false,
                modified_by: "laptop".to_string(),
            });
        }
        assert_eq!(window_len(&items), items.len(), "one window");
        for _ in 0..20 {
            let error = materialize_all(&b.shared, &items).unwrap_err();
            assert_eq!(
                error.to_string(),
                SyncError::Corrupt(format!(
                    "chunk {} failed fingerprint verification",
                    first_bad.unwrap()
                ))
                .to_string(),
                "the first bad chunk in item-then-file order, whichever task finished first"
            );
        }
        assert_eq!(
            observe(&b, &path_refs),
            before,
            "not even f0, which was whole"
        );
    }

    #[test]
    fn a_declared_size_is_checked_and_never_reserved() {
        let (stack, ws) = deployment();
        let config = |device: &str| ClientConfig::new("alice", device).with_chunk_size(4096);
        let a = stack.connect(config("laptop"), &ws).unwrap();
        let b = stack.connect(config("phone"), &ws).unwrap();
        let v1 = distinct_chunks(3, 7);
        a.write_file("f.bin", v1.clone()).unwrap();
        assert!(b.wait_for_content("f.bin", &v1, TIMEOUT));
        let entry = b.shared.db.lock().get("f.bin").cloned().unwrap();

        // The same three chunks under a size only the service vouches for:
        // reserving it would abort the process (`u64::MAX`) or take 4 GiB.
        for size in [u64::MAX, 4 << 30, v1.len() as u64 + 1, 0] {
            let item = ItemMetadata {
                item_id: entry.item_id,
                workspace: ws.clone(),
                path: "f.bin".to_string(),
                version: 2,
                chunks: entry.chunks.iter().map(|(id, _)| *id).collect(),
                size,
                is_deleted: false,
                modified_by: "laptop".to_string(),
            };
            let error = materialize_all(&b.shared, std::slice::from_ref(&item)).unwrap_err();
            assert_eq!(
                error.to_string(),
                SyncError::Corrupt(format!(
                    "`f.bin` v2 declares {size} bytes, its chunks hold {}",
                    v1.len()
                ))
                .to_string()
            );
        }
        assert_eq!(b.shared.db.lock().get("f.bin"), Some(&entry));
        assert_eq!(b.read_file("f.bin").unwrap(), v1);
    }

    #[test]
    fn a_waiter_wakes_with_the_apply_not_at_the_next_poll() {
        let (stack, ws) = deployment();
        let watcher = stack
            .connect(ClientConfig::new("alice", "phone"), &ws)
            .unwrap();
        let version_of = |version| ItemMetadata {
            item_id: stable_item_id(&ws, "f.txt"),
            workspace: ws.clone(),
            path: "f.txt".to_string(),
            version,
            chunks: vec![],
            size: 0,
            is_deleted: false,
            modified_by: "laptop".to_string(),
        };
        let (woke_tx, woke_rx) = std::sync::mpsc::channel();
        let mut lateness: Vec<Duration> = std::thread::scope(|scope| {
            scope.spawn(|| {
                for version in 1..=100 {
                    assert!(watcher.wait_for_version("f.txt", version, TIMEOUT));
                    woke_tx.send(Instant::now()).unwrap();
                }
            });
            (1..=100)
                .map(|version| {
                    // Lets the watcher get to sleep, which is the case being
                    // measured; one that has not just sees the version on
                    // its first look.
                    std::thread::sleep(Duration::from_millis(2));
                    materialize_all(&watcher.shared, &[version_of(version)]).unwrap();
                    let applied = Instant::now();
                    woke_rx.recv().unwrap().saturating_duration_since(applied)
                })
                .collect()
        });
        lateness.sort();
        // A 5 ms poll is late by 2.5 ms in the median; a median, so that one
        // descheduled wake-up on a busy box fails nothing.
        assert!(lateness[50] < Duration::from_millis(1), "{lateness:?}");
    }

    #[test]
    fn notification_bytes_are_counted_from_what_the_listener_received() {
        let (stack, ws) = deployment();
        let client = stack
            .connect(ClientConfig::new("alice", "laptop"), &ws)
            .unwrap();
        let item = ItemMetadata {
            item_id: stable_item_id(&ws, "notes.txt"),
            workspace: ws.clone(),
            path: "notes.txt".into(),
            version: 1,
            chunks: vec![],
            size: 0,
            is_deleted: false,
            modified_by: "phone".into(),
        };
        let confirmed = CommitNotification {
            workspace: ws.clone(),
            committer: "phone".into(),
            changes: vec![crate::protocol::NotifiedChange {
                metadata: item.clone(),
                confirmed: true,
                current: None,
            }],
        };
        // Lost by another device: counted, nothing to apply here.
        let conflicting = CommitNotification {
            workspace: ws.clone(),
            committer: "tablet".into(),
            changes: vec![crate::protocol::NotifiedChange {
                metadata: item.next_version(vec![ChunkId::of(b"t")], 1, "tablet"),
                confirmed: false,
                current: Some(item.clone()),
            }],
        };
        let listener = NotificationListener {
            shared: client.shared.clone(),
        };
        for n in [&confirmed, &conflicting] {
            listener.dispatch("notify_commit", &[n.to_value()]).unwrap();
        }
        assert_eq!(client.stats().notifications(), 2);
        // The empty join's reply plus both notifications' binary encodings.
        assert_eq!(client.stats().control_received_bytes(), 422);
    }

    #[test]
    fn stats_clone_shares() {
        let s = ClientStats::default();
        let s2 = s.clone();
        s.inner.control_sent.fetch_add(5, Ordering::Relaxed);
        assert_eq!(s2.control_sent_bytes(), 5);
        assert_eq!(s2.control_bytes(), 5);
    }
}

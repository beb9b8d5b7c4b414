//! The durable commit plane: per-shard write-ahead logs under
//! [`ShardedStore`].
//!
//! A durable store ([`ShardedStore::open_durable`]) owns one [`wal::Log`]
//! per data shard plus one for the directory shard, laid out as
//!
//! ```text
//! <root>/snapshot.bin       latest checkpoint (atomic temp-file + rename)
//! <root>/dir/wal-*.log      directory ops: users, workspaces, shares
//! <root>/shard-<i>/wal-*.log   commit records of partition i
//! ```
//!
//! **One format.** Every file holds `wal` frames
//! (`[len u32][seq u64][crc u64][payload]`) whose payloads are binary
//! ([`wire::BinaryCodec`]) maps `{"lsn", "op", ...}` of four kinds: `user`,
//! `ws`, `share`, `commit`. They are written through
//! [`wire::BinaryWriter`] and read through [`wire::BinaryReader`], never as
//! a `Value` tree ([`crate::record`]). The snapshot is a compacted log in that format: frame
//! 0 is a header `{"format": "stacksync-metadata-v2", "records": N}`, frames
//! 1..=N are the `user` records, then the `ws` records, then one `share` per
//! member, then one `commit` per item chain carrying every version, oldest
//! first. A frame's `seq` and its record's `lsn` are its position in the
//! file. A chain whose record would exceed [`wal::MAX_RECORD_LEN`] fails the
//! checkpoint with `InvalidInput` before anything on disk changes.
//!
//! **Write path.** Every mutating operation appends one record *inside* the
//! same critical section that mutates the in-memory state — so each log's
//! record order equals its shard's commit order — and waits for durability
//! *after* releasing the lock, so the fsync (made by the waiting thread
//! itself, for everything its log has buffered — [`wal::Log`]) never
//! serializes other workspaces. Records carry a store-wide LSN drawn
//! from one atomic counter; because an operation's LSN is assigned before
//! its caller observes completion, any causally-later operation gets a
//! larger LSN, and sorting all logs' records by LSN yields a valid
//! serialization for replay.
//!
//! **Recovery.** Loading a snapshot is replaying a compacted log: open
//! feeds the snapshot's records, in file order, and then every log's records
//! (torn-tail tolerant, merged by LSN) through one `parse_record` →
//! `apply_op`. The appliers are idempotent: a record already reflected in
//! the snapshot confirms against the stored chain instead of
//! double-applying. It confirms under the live at-least-once rule of
//! `ItemTables::apply_proposal` (same chunks, device and tombstone flag),
//! because a confirmed redelivery logs the proposal as it came, and its
//! path or size may differ from the stored version's. A crash can only
//! lose a *suffix* of un-fsynced records per log — and those were never
//! acknowledged — so recovery always lands on
//! exactly the state every acknowledged operation saw: no lost acked commit,
//! no double-commit, gap-free version chains.
//!
//! A snapshot gets no torn-tail tolerance, because it was renamed into place
//! whole and the logs were truncated against it: a frame that fails its
//! checksum, a sequence number out of place, a record count that disagrees
//! with the header, a record that does not decode or a chain with a gap each
//! fail the whole open with `InvalidData`, never a partly loaded store. So
//! does a root that holds only a `snapshot.json` of the earlier JSON format,
//! which this version cannot load and must not ignore. A root holding the
//! log of a shard past the count it is opened with (`shard-<i>`,
//! `i >= shards`) is refused with `InvalidInput` before any log is opened:
//! replay would leave out that log's commits.
//!
//! **Checkpoint.** [`ShardedStore::checkpoint`] copies each shard and its
//! log's watermark under the shard lock and the directory, with its
//! watermark, *last*: a workspace is in the directory before its shard takes
//! a commit for it, so the copied directory holds every workspace a copied
//! chain belongs to, whatever ran in between. It streams the snapshot into a
//! temp file, fsyncs and renames it, then truncates sealed segments below
//! the watermarks. Records landing between the captures replay idempotently
//! over the snapshot.

use crate::error::{MetadataError, MetadataResult};
use crate::model::{CommitOutcome, CommitResult, ItemMetadata, Workspace, WorkspaceId};
use crate::record::{parse_record, parse_snapshot_header, Op};
use crate::record::{write_commit, write_item, write_share, write_snapshot_header};
use crate::record::{write_user, write_ws};
use crate::shard::{route_workspace, Directory, Shard, ShardedStore};
use crate::snapshot::{parts_to_value, write_atomic, StoreParts};
use crate::store::ItemTables;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wire::{BinaryWriter, BufPool, Value};

const SNAPSHOT_FILE: &str = "snapshot.bin";
/// What `write_atomic` writes before renaming; one left by a crash is junk.
const SNAPSHOT_TEMP_FILE: &str = "snapshot.tmp";
/// The snapshot of the earlier JSON format, refused at open.
const LEGACY_SNAPSHOT_FILE: &str = "snapshot.json";

/// The WAL side of a durable [`ShardedStore`]: one log per shard, one for
/// the directory, and the store-wide LSN counter.
pub(crate) struct WalPlane {
    pub(crate) root: PathBuf,
    pub(crate) dir_log: wal::Log,
    pub(crate) shard_logs: Vec<wal::Log>,
    lsn: AtomicU64,
}

impl WalPlane {
    fn next_lsn(&self) -> u64 {
        self.lsn.fetch_add(1, Ordering::SeqCst)
    }

    pub(crate) fn status(&self) -> Result<(), String> {
        self.dir_log.status().map_err(|e| format!("dir log: {e}"))?;
        for (i, log) in self.shard_logs.iter().enumerate() {
            log.status().map_err(|e| format!("shard {i} log: {e}"))?;
        }
        Ok(())
    }
}

/// What [`ShardedStore::open_durable`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableRecovery {
    /// Whether a snapshot file was loaded as the replay base.
    pub snapshot_loaded: bool,
    /// WAL records replayed over the base (all logs combined).
    pub replayed: u64,
    /// Logs whose tail was torn (partial final write truncated away).
    pub torn_logs: u64,
}

fn wal_err(e: wal::WalError) -> MetadataError {
    MetadataError::Durability(e.to_string())
}

fn wal_io(e: wal::WalError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

fn invalid(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

// ---------------------------------------------------------------------------
// Write-path hooks (called from the MetadataStore impl in shard.rs)
// ---------------------------------------------------------------------------

/// Appends a directory-log record if the store is durable. Call while
/// holding the directory lock; [`wait`] on the ticket after releasing it.
pub(crate) fn append_dir(
    store: &ShardedStore,
    write: impl FnOnce(&mut BinaryWriter<'_>, u64),
) -> MetadataResult<Option<wal::Ticket>> {
    let Some(plane) = &store.wal else {
        return Ok(None);
    };
    BufPool::with(|buf| {
        write(&mut BinaryWriter::new(buf), plane.next_lsn());
        plane.dir_log.append(buf)
    })
    .map(Some)
    .map_err(wal_err)
}

/// Directory record writers, paired with [`append_dir`].
pub(crate) fn dir_user(user: &str) -> impl FnOnce(&mut BinaryWriter<'_>, u64) + '_ {
    move |w, lsn| write_user(w, lsn, user)
}

pub(crate) fn dir_workspace<'a>(
    id: &'a WorkspaceId,
    owner: &'a str,
    name: &'a str,
) -> impl FnOnce(&mut BinaryWriter<'_>, u64) + 'a {
    move |w, lsn| write_ws(w, lsn, &id.0, owner, name)
}

pub(crate) fn dir_share<'a>(
    ws: &'a WorkspaceId,
    user: &'a str,
) -> impl FnOnce(&mut BinaryWriter<'_>, u64) + 'a {
    move |w, lsn| write_share(w, lsn, &ws.0, user)
}

/// Appends the commit record for the *stored* (winning) items of a commit.
/// Call while holding the shard lock so the log order matches the apply
/// order; [`wait`] after releasing it. Conflict-only commits log nothing.
pub(crate) fn append_commit(
    store: &ShardedStore,
    shard_index: usize,
    workspace: &WorkspaceId,
    outcomes: &[CommitOutcome],
) -> MetadataResult<Option<wal::Ticket>> {
    let Some(plane) = &store.wal else {
        return Ok(None);
    };
    let stored = || {
        outcomes.iter().filter_map(|outcome| match outcome.result {
            CommitResult::Committed { version } => Some((&outcome.proposed, version)),
            CommitResult::Conflict { .. } => None,
        })
    };
    let count = stored().count();
    if count == 0 {
        return Ok(None);
    }
    BufPool::with(|buf| {
        let mut w = BinaryWriter::new(buf);
        write_commit(&mut w, plane.next_lsn(), workspace, count);
        for (proposed, version) in stored() {
            write_item(&mut w, proposed, workspace, version);
        }
        plane.shard_logs[shard_index].append(buf)
    })
    .map(Some)
    .map_err(wal_err)
}

/// Blocks until a ticket from [`append_dir`]/[`append_commit`] is durable.
pub(crate) fn wait(ticket: Option<wal::Ticket>) -> MetadataResult<()> {
    match ticket {
        None => Ok(()),
        Some(t) => t.wait().map_err(wal_err),
    }
}

// ---------------------------------------------------------------------------
// Snapshot file: the same records, compacted
// ---------------------------------------------------------------------------

/// Streams `parts` as a snapshot file; the module docs give the layout.
fn write_snapshot(out: &mut impl Write, parts: &StoreParts) -> std::io::Result<()> {
    let shares: usize = parts.workspaces.iter().map(|w| w.members.len()).sum();
    let records = parts.users.len() + parts.workspaces.len() + shares + parts.histories.len();
    let mut seq = 0u64;
    let mut payload = Vec::new();
    let mut frame = Vec::new();
    // Frames one record, numbered by its position in the file.
    let mut put = |record: &dyn Fn(&mut BinaryWriter<'_>, u64)| -> std::io::Result<()> {
        payload.clear();
        record(&mut BinaryWriter::new(&mut payload), seq);
        if payload.len() > wal::MAX_RECORD_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "snapshot record {seq} is {} bytes, more than a frame holds",
                    payload.len()
                ),
            ));
        }
        frame.clear();
        wal::frame_into(&mut frame, seq, &payload);
        seq += 1;
        out.write_all(&frame)
    };
    put(&|w, _| write_snapshot_header(w, records as u64))?;
    for user in &parts.users {
        put(&|w, lsn| write_user(w, lsn, user))?;
    }
    for ws in &parts.workspaces {
        put(&|w, lsn| write_ws(w, lsn, &ws.id.0, &ws.owner, &ws.name))?;
    }
    for ws in &parts.workspaces {
        for member in &ws.members {
            put(&|w, lsn| write_share(w, lsn, &ws.id.0, member))?;
        }
    }
    for chain in &parts.histories {
        put(&|w, lsn| {
            let ws = &chain[0].workspace;
            write_commit(w, lsn, ws, chain.len());
            for item in chain {
                write_item(w, item, &item.workspace, item.version);
            }
        })?;
    }
    Ok(())
}

/// Replays the snapshot at `path`, if there is one, into the empty state
/// `open_durable` starts from; `Ok(false)` when there is none.
fn load_snapshot(
    path: &Path,
    directory: &mut Directory,
    tables: &mut [ItemTables],
    item_home: &mut HashMap<u64, WorkspaceId>,
) -> std::io::Result<bool> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    let bad = |what: String| invalid(format!("{}: {what}", path.display()));
    let mut announced = None;
    let mut frames = 0u64;
    let mut at = 0usize;
    loop {
        match wal::next_frame(&bytes, at) {
            wal::Frame::End => break,
            wal::Frame::Torn { reason } => return Err(bad(format!("byte {at}: {reason}"))),
            wal::Frame::Record { seq, payload, next } => {
                if seq != frames {
                    return Err(bad(format!("frame {frames} carries sequence {seq}")));
                }
                let payload = &bytes[payload];
                if frames == 0 {
                    let records =
                        parse_snapshot_header(payload).map_err(|e| bad(format!("header: {e}")))?;
                    announced = Some(records);
                } else {
                    let (_, op) =
                        parse_record(payload).map_err(|e| bad(format!("frame {frames}: {e}")))?;
                    apply_op(directory, tables, item_home, op)
                        .map_err(|e| bad(format!("frame {frames}: {e}")))?;
                }
                frames += 1;
                at = next;
            }
        }
    }
    match announced {
        Some(records) if records == frames - 1 => Ok(true),
        Some(records) => Err(bad(format!(
            "holds {} of the {records} records its header announces",
            frames - 1
        ))),
        None => Err(bad("no header frame".to_string())),
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Applies one stored (post-Algorithm-1) item during replay. Idempotent:
/// versions at or below the chain head must match the chain where a live
/// redelivery must (chunks, device, tombstone flag; the record was already
/// covered by the snapshot or an earlier log); version head+1 extends the
/// chain; anything else is a recovery invariant violation.
fn replay_item(
    tables: &mut ItemTables,
    ws: &WorkspaceId,
    item: ItemMetadata,
) -> Result<(), String> {
    match tables.items.get_mut(&item.item_id) {
        None => {
            if item.version != 1 {
                return Err(format!(
                    "replay: first record of item {} has version {}",
                    item.item_id, item.version
                ));
            }
            tables
                .by_workspace
                .entry(ws.0.clone())
                .or_default()
                .insert(item.item_id);
            tables.items.insert(item.item_id, vec![item]);
        }
        Some(chain) => {
            let head = chain.last().expect("chains are never empty").version;
            if item.version == head + 1 {
                chain.push(item);
            } else if item.version >= 1 && item.version <= head {
                let existing = &chain[(item.version - 1) as usize];
                if existing.modified_by != item.modified_by
                    || existing.chunks != item.chunks
                    || existing.is_deleted != item.is_deleted
                {
                    return Err(format!(
                        "replay: item {} version {} diverges from stored chain",
                        item.item_id, item.version
                    ));
                }
            } else {
                return Err(format!(
                    "replay: item {} jumps from version {head} to {}",
                    item.item_id, item.version
                ));
            }
        }
    }
    Ok(())
}

fn apply_op(
    directory: &mut Directory,
    tables: &mut [ItemTables],
    item_home: &mut HashMap<u64, WorkspaceId>,
    op: Op,
) -> Result<(), String> {
    let shards = tables.len();
    match op {
        Op::User(user) => {
            directory.users.insert(user);
        }
        Op::Ws { id, owner, name } => {
            if let Some(n) = id.strip_prefix("ws-").and_then(|n| n.parse::<u64>().ok()) {
                directory.next_workspace = directory.next_workspace.max(n);
            }
            tables[route_workspace(&id, shards)]
                .by_workspace
                .entry(id.clone())
                .or_default();
            directory.workspaces.entry(id.clone()).or_insert(Workspace {
                id: WorkspaceId(id),
                owner,
                name,
                members: Vec::new(),
            });
        }
        Op::Share { ws, user } => {
            let w = directory
                .workspaces
                .get_mut(&ws)
                .ok_or_else(|| format!("replay: share targets unknown workspace {ws}"))?;
            if w.owner != user && !w.members.iter().any(|m| m == &user) {
                w.members.push(user);
            }
        }
        Op::Commit { ws, items } => {
            let t = &mut tables[route_workspace(&ws.0, shards)];
            if !t.by_workspace.contains_key(&ws.0) {
                return Err(format!("replay: commit to unknown workspace {}", ws.0));
            }
            for item in items {
                item_home.entry(item.item_id).or_insert_with(|| ws.clone());
                replay_item(t, &ws, item)?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Open / checkpoint / crash hooks
// ---------------------------------------------------------------------------

/// Refuses a root holding the log of a shard `shards` does not include:
/// opening without it would leave out every commit that log holds, and
/// the items it holds would start again at version 1.
fn refuse_dropped_shards(root: &Path, shards: usize) -> std::io::Result<()> {
    let mut dropped: Option<(usize, PathBuf)> = None;
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let shard = entry.file_name().to_str().and_then(|name| {
            name.strip_prefix("shard-")
                .and_then(|i| i.parse::<usize>().ok())
        });
        if let Some(i) = shard.filter(|&i| i >= shards) {
            if entry.file_type()?.is_dir() {
                dropped = dropped.max(Some((i, entry.path())));
            }
        }
    }
    match dropped {
        None => Ok(()),
        Some((i, dir)) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "{} is the log of shard {i}, but the store is opened with {shards} \
                 shard(s); open it with at least {}",
                dir.display(),
                i + 1
            ),
        )),
    }
}

impl ShardedStore {
    /// Opens (or creates) a durable sharded store rooted at `root`:
    /// `shards` partitions, each commit WAL-logged before acknowledgement.
    /// Recovery replays the logs over the latest snapshot; see the module
    /// docs for the invariants.
    ///
    /// `template` supplies the sync policy and segment size; each log
    /// derives its name from it.
    ///
    /// # Errors
    ///
    /// Filesystem errors; `InvalidInput`, before any log is opened, when
    /// `root` holds the log directory of a shard at or past `shards`
    /// (`shard-<i>` with `i >= shards`); or `InvalidData` when the snapshot
    /// is damaged in any way, is of the earlier JSON format
    /// (`snapshot.json`), or a log record fails to decode or violates a
    /// replay invariant.
    pub fn open_durable(
        root: impl AsRef<Path>,
        shards: usize,
        latency: Duration,
        template: wal::LogConfig,
    ) -> std::io::Result<(ShardedStore, DurableRecovery)> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let n = shards.max(1);
        refuse_dropped_shards(&root, n)?;

        // A checkpoint that died between creating its temp file and the
        // rename left one behind; nothing reads it.
        match std::fs::remove_file(root.join(SNAPSHOT_TEMP_FILE)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }

        // Base state: the latest snapshot, if one exists.
        let mut directory = Directory::default();
        let mut tables: Vec<ItemTables> = (0..n).map(|_| ItemTables::default()).collect();
        let mut item_home: HashMap<u64, WorkspaceId> = HashMap::new();
        let snapshot_loaded = load_snapshot(
            &root.join(SNAPSHOT_FILE),
            &mut directory,
            &mut tables,
            &mut item_home,
        )?;
        let legacy = root.join(LEGACY_SNAPSHOT_FILE);
        if !snapshot_loaded && legacy.exists() {
            // The logs were truncated against it, so opening without it
            // would silently lose everything it covers.
            return Err(invalid(format!(
                "{} is a snapshot in the JSON format of an earlier version, which this \
                 version cannot load; the logs beside it no longer hold what it covers",
                legacy.display()
            )));
        }

        // Open every log, collecting the replayed records.
        let cfg = |suffix: String| {
            let mut c = template.clone();
            c.name = format!("{}.{suffix}", template.name);
            c
        };
        let (dir_log, dir_rec) =
            wal::Log::open(&root.join("dir"), cfg("dir".to_string())).map_err(wal_io)?;
        let mut shard_logs = Vec::with_capacity(n);
        let mut recoveries = vec![dir_rec];
        for i in 0..n {
            let (log, rec) =
                wal::Log::open(&root.join(format!("shard-{i}")), cfg(format!("shard{i}")))
                    .map_err(wal_io)?;
            shard_logs.push(log);
            recoveries.push(rec);
        }

        // Merge by LSN and apply through the idempotent repliers.
        let mut ops: Vec<(u64, Op)> = Vec::new();
        let mut torn_logs = 0u64;
        for rec in &recoveries {
            if rec.torn.is_some() {
                torn_logs += 1;
            }
            for (_, payload) in &rec.records {
                ops.push(parse_record(payload).map_err(invalid)?);
            }
        }
        ops.sort_by_key(|(lsn, _)| *lsn);
        let replayed = ops.len() as u64;
        let max_lsn = ops.last().map(|(lsn, _)| *lsn);
        for (_, op) in ops {
            apply_op(&mut directory, &mut tables, &mut item_home, op).map_err(invalid)?;
        }

        let plane = Arc::new(WalPlane {
            root,
            dir_log,
            shard_logs,
            lsn: AtomicU64::new(max_lsn.map(|l| l + 1).unwrap_or(0)),
        });
        let weak = Arc::downgrade(&plane);
        let wal_health = obs::register_health("metadata.wal", move || match weak.upgrade() {
            Some(plane) => plane.status(),
            None => Err("wal plane dropped".to_string()),
        });

        obs::flight_event!(
            "metadata",
            "durable store opened: {replayed} record(s) replayed over {} ({torn_logs} torn log(s))",
            if snapshot_loaded {
                "snapshot"
            } else {
                "empty base"
            }
        );

        let store = ShardedStore::assemble(
            directory,
            item_home,
            tables
                .into_iter()
                .enumerate()
                .map(|(i, t)| Shard::with_tables(i, t))
                .collect(),
            latency,
            Some(plane),
            Some(wal_health),
        );
        Ok((
            store,
            DurableRecovery {
                snapshot_loaded,
                replayed,
                torn_logs,
            },
        ))
    }

    /// Whether this store persists through a WAL plane.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Dumps the full store state (users, workspaces, every item's version
    /// chain) into the wire data model, in an order that does not depend on
    /// the shard count: two stores hold the same state exactly when their
    /// dumps are equal.
    pub fn snapshot(&self) -> Value {
        parts_to_value(self.capture().0)
    }

    /// Copies the whole state and, on a durable store, each log's watermark
    /// (the directory's, then one per shard) under the lock that orders its
    /// appends.
    ///
    /// The directory is copied *after* the shards. `create_workspace` puts a
    /// workspace in the directory before its shard accepts a commit for it,
    /// and nothing removes one, so the copied directory holds the workspace
    /// of every copied chain even when workspaces are created and committed
    /// to between the copies. The other order can capture a chain whose
    /// workspace is missing, a snapshot no replay accepts.
    fn capture(&self) -> (StoreParts, u64, Vec<u64>) {
        let plane = self.wal.as_deref();
        let mut histories: Vec<Vec<ItemMetadata>> = Vec::new();
        let mut marks = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let t = shard.tables.lock();
            histories.extend(t.items.values().cloned());
            marks.extend(plane.map(|p| p.shard_logs[i].mark()));
        }
        histories.sort_by_key(|v| v[0].item_id);
        let dir = self.directory.lock();
        let parts = StoreParts {
            users: dir.users.iter().cloned().collect(),
            workspaces: dir.workspaces.values().cloned().collect(),
            histories,
        };
        (parts, plane.map_or(0, |p| p.dir_log.mark()), marks)
    }

    /// Writes a snapshot (atomic temp-file + rename) and truncates every
    /// log's sealed segments below the watermark `capture` took under its
    /// lock. Records appended between the captures replay idempotently over
    /// the snapshot, so the checkpoint is safe under concurrent commits and
    /// directory operations.
    ///
    /// # Errors
    ///
    /// `Unsupported` on a non-durable store; `InvalidInput` when one item's
    /// chain encodes to more than [`wal::MAX_RECORD_LEN`] (nothing on disk
    /// has changed then); filesystem or WAL errors.
    pub fn checkpoint(&self) -> std::io::Result<()> {
        let plane = self.wal.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "checkpoint requires a store opened with open_durable",
            )
        })?;
        let (parts, dir_mark, marks) = self.capture();
        write_atomic(&plane.root.join(SNAPSHOT_FILE), |out| {
            write_snapshot(out, &parts)
        })?;
        plane.dir_log.truncate_through(dir_mark).map_err(wal_io)?;
        for (log, mark) in plane.shard_logs.iter().zip(marks) {
            log.truncate_through(mark).map_err(wal_io)?;
        }
        obs::flight_event!(
            "metadata",
            "checkpoint written to {} (dir mark {dir_mark})",
            plane.root.display()
        );
        Ok(())
    }

    /// Fault-simulator hook: models process death by crashing every WAL
    /// (each keeps `surviving_pending_bytes` of its pending buffer as a
    /// torn tail). No-op on a non-durable store. After this, every write
    /// fails with [`MetadataError::Durability`]; reopen with
    /// [`ShardedStore::open_durable`] to recover.
    pub fn wal_simulate_crash(&self, surviving_pending_bytes: usize) {
        if let Some(plane) = &self.wal {
            plane.dir_log.simulate_crash(surviving_pending_bytes);
            for log in &plane.shard_logs {
                log.simulate_crash(surviving_pending_bytes);
            }
        }
    }
}

impl std::fmt::Debug for WalPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalPlane")
            .field("root", &self.root)
            .field("shards", &self.shard_logs.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SNAPSHOT_FORMAT;
    use crate::store::MetadataStore;
    use wire::{BinaryCodec, Codec};

    fn ws1() -> Workspace {
        Workspace {
            id: WorkspaceId("ws-1".into()),
            owner: "u".into(),
            name: "W".into(),
            members: vec!["v".into()],
        }
    }

    fn chain(ws: &str, versions: &[u64]) -> Vec<ItemMetadata> {
        let first = ItemMetadata::new_file(9, &WorkspaceId(ws.into()), "f", vec![], 1, "d");
        versions
            .iter()
            .map(|&version| ItemMetadata {
                version,
                ..first.clone()
            })
            .collect()
    }

    /// Writes `parts` as the snapshot of an otherwise empty root, a commit
    /// of `logged` to `ws-1` in its shard's log, and opens it.
    fn open_with(
        tag: &str,
        parts: &StoreParts,
        logged: &[ItemMetadata],
    ) -> std::io::Result<ShardedStore> {
        let root = std::env::temp_dir().join(format!("meta-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        write_atomic(&root.join(SNAPSHOT_FILE), |out| write_snapshot(out, parts))?;
        let cfg = wal::LogConfig::named("snap-test");
        if !logged.is_empty() {
            let ws = ws1().id;
            let dir = root.join(format!("shard-{}", route_workspace(&ws.0, 2)));
            let (log, _) = wal::Log::open(&dir, cfg.clone()).map_err(wal_io)?;
            let mut record = Vec::new();
            let mut w = BinaryWriter::new(&mut record);
            write_commit(&mut w, 100, &ws, logged.len());
            for item in logged {
                write_item(&mut w, item, &ws, item.version);
            }
            log.append_durable(&record).map_err(wal_io)?;
            log.close();
        }
        let opened = ShardedStore::open_durable(&root, 2, Duration::ZERO, cfg);
        let _ = std::fs::remove_dir_all(&root);
        opened.map(|(store, _)| store)
    }

    fn parts(workspaces: Vec<Workspace>, histories: Vec<Vec<ItemMetadata>>) -> StoreParts {
        StoreParts {
            users: vec!["u".into(), "v".into()],
            workspaces,
            histories,
        }
    }

    #[test]
    fn snapshot_chains_go_through_the_replay_checks() {
        let store = open_with(
            "ok",
            &parts(vec![ws1()], vec![chain("ws-1", &[1, 2, 3])]),
            &[],
        )
        .unwrap();
        assert_eq!(store.history(9).unwrap().len(), 3);
        assert_eq!(
            store.get_workspace(&ws1().id).unwrap().members,
            vec!["v".to_string()]
        );

        for (tag, doctored) in [
            ("gap", parts(vec![ws1()], vec![chain("ws-1", &[1, 3])])),
            ("headless", parts(vec![ws1()], vec![chain("ws-1", &[2, 3])])),
            // `capture` cannot produce this one (directory copied last).
            ("homeless", parts(vec![], vec![chain("ws-1", &[1])])),
        ] {
            let err = open_with(tag, &doctored, &[]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}: {err}");
            assert!(err.to_string().contains(SNAPSHOT_FILE), "{tag}: {err}");
        }
    }

    /// A covered version confirms when it matches the stored one where
    /// `ItemTables::apply_proposal` confirms a redelivered proposal: its
    /// chunks, its device and its tombstone flag. Path and size may differ,
    /// because a confirmed commit logs the proposal as it came.
    #[test]
    fn a_covered_version_confirms_under_the_live_rule() {
        let stored = || parts(vec![ws1()], vec![chain("ws-1", &[1, 2, 3])]);
        type Edit = fn(&mut ItemMetadata);
        let covered = |edit: Edit| {
            let mut item = chain("ws-1", &[2]).remove(0);
            edit(&mut item);
            item
        };
        for (what, edit) in [
            ("path", (|i| i.path = "elsewhere".into()) as Edit),
            ("size", |i| i.size = 77),
        ] {
            let store = open_with(what, &stored(), &[covered(edit)]).unwrap();
            let history = store.history(9).unwrap();
            assert_eq!(history, chain("ws-1", &[1, 2, 3]), "{what}");
        }
        for (what, edit) in [
            (
                "chunks",
                (|i| i.chunks = vec![content::ChunkId::of(b"x")]) as Edit,
            ),
            ("device", |i| i.modified_by = "other".into()),
            ("deleted", |i| i.is_deleted = true),
        ] {
            let err = open_with(what, &stored(), &[covered(edit)]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains("diverges"), "{what}: {err}");
        }
    }

    #[test]
    fn snapshot_header_must_carry_this_format() {
        let header = |format: &str| {
            BinaryCodec.encode(&Value::Map(vec![
                ("format".into(), Value::from(format)),
                ("records".into(), Value::U64(3)),
            ]))
        };
        assert_eq!(parse_snapshot_header(&header(SNAPSHOT_FORMAT)), Ok(3));
        assert!(parse_snapshot_header(&header("stacksync-metadata-v1")).is_err());
        // A record is not a header.
        let mut user = Vec::new();
        write_user(&mut BinaryWriter::new(&mut user), 0, "u");
        assert!(parse_snapshot_header(&user).is_err());
    }
}

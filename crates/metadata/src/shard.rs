//! The partitioned metadata store: per-workspace shards end the
//! global-mutex commit path.
//!
//! Algorithm 1 commits never cross workspaces — a commit transaction reads
//! and writes only the version chains of one workspace — so `workspace_id`
//! is a natural shard key. [`ShardedStore`] routes every commit to one of N
//! independent partitions by `hash(workspace_id)`; each partition has its
//! own lock and its own item tables, so commits to workspaces on different
//! shards proceed fully in parallel. The paper's elasticity argument
//! (§4.2.1) needs exactly this: the SyncService is stateless so that
//! "multiple instances can listen from the global request queue", but that
//! only buys throughput if the metadata tier behind the instances scales
//! too.
//!
//! Cross-shard state — the user registry and the workspace records that
//! `get_workspaces` / `share_workspace` touch — lives in a small,
//! separately-locked *directory* shard. Item → workspace pinning across
//! shards (the [`MetadataError::WrongWorkspace`] rule) is enforced through
//! a separately-locked `item_home` registry consulted only when a proposal
//! names an item its own shard has never seen.
//!
//! Lock order (each lock held briefly, never two shard locks at once):
//! `directory → shard → item_home`. Readers that start from an item id
//! (`get_current`/`history`) copy the home workspace out of `item_home`
//! and release it *before* taking the shard lock, so the order is acyclic.

use crate::error::{MetadataError, MetadataResult};
use crate::model::{CommitOutcome, ItemMetadata, Workspace, WorkspaceId};
use crate::store::{ItemTables, MetadataStore};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The partition index a workspace id routes to, as a free function so the
/// durable-recovery path can route before any [`ShardedStore`] exists.
/// FNV-1a over the id bytes: stable across runs (routing must be
/// deterministic for the faultsim replay guarantees) and cheap.
pub(crate) fn route_workspace(workspace: &str, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in workspace.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards.max(1) as u64) as usize
}

/// The directory shard: users, workspace records, id allocation. Every
/// operation on it is a point read/write; it is never held across a commit
/// transaction.
#[derive(Debug, Default)]
pub(crate) struct Directory {
    pub(crate) users: BTreeSet<String>,
    pub(crate) workspaces: BTreeMap<String, Workspace>,
    pub(crate) next_workspace: u64,
}

/// One data partition: its own lock, its own item-id tables, its own
/// `metadata.shard.*` instruments.
pub(crate) struct Shard {
    pub(crate) tables: Mutex<ItemTables>,
    commits: Arc<obs::Counter>,
    conflicts: Arc<obs::Counter>,
    lock_wait: Arc<obs::Histogram>,
}

impl Shard {
    fn new(index: usize) -> Self {
        Self::with_tables(index, ItemTables::default())
    }

    /// Builds a partition pre-seeded with recovered tables (the durable
    /// open path).
    pub(crate) fn with_tables(index: usize, tables: ItemTables) -> Self {
        Shard {
            tables: Mutex::new(tables),
            commits: obs::counter(&format!("metadata.shard.{index}.commits_total")),
            conflicts: obs::counter(&format!("metadata.shard.{index}.conflicts_total")),
            lock_wait: obs::histogram(&format!("metadata.shard.{index}.lock_wait_seconds")),
        }
    }

    /// Locks the partition, recording how long the commit path waited for
    /// it — the saturation signal of this shard.
    fn lock_timed(&self) -> parking_lot::MutexGuard<'_, ItemTables> {
        let start = Instant::now();
        let guard = self.tables.lock();
        self.lock_wait.record(start.elapsed());
        guard
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard").finish_non_exhaustive()
    }
}

/// Partitioned metadata store: N independent per-workspace partitions
/// behind the [`MetadataStore`] DAO.
///
/// For any per-workspace history the outcomes are the same at every shard
/// count (the per-item transaction body is one piece of code,
/// `ItemTables::apply_proposal`); what the count changes is which
/// transactions serialize against each other. With one shard every commit
/// does — the moral equivalent of `SERIALIZABLE` isolation on a single
/// database.
///
/// An optional commit latency models the transaction time of the ACID
/// back-end this store stands in for (the paper's PostgreSQL). It is spent
/// **while holding the partition lock**, exactly as a relational back-end
/// holds its row locks across the transaction round trip — so it
/// serializes commits within a workspace's shard but overlaps across
/// shards.
#[derive(Debug)]
pub struct ShardedStore {
    pub(crate) directory: Mutex<Directory>,
    /// item id -> owning workspace, for cross-shard pin checks and
    /// item-routed reads. Innermost lock.
    pub(crate) item_home: Mutex<HashMap<u64, WorkspaceId>>,
    pub(crate) shards: Vec<Shard>,
    commit_latency: Duration,
    /// Keeps the `metadata.sharded` health check registered while the
    /// store is alive; dropping the store deregisters it.
    _health: obs::HealthGuard,
    /// The durable commit plane ([`crate::durable`]); `None` for a purely
    /// in-memory store.
    pub(crate) wal: Option<Arc<crate::durable::WalPlane>>,
    /// Keeps the `metadata.wal` health check registered for durable stores.
    _wal_health: Option<obs::HealthGuard>,
}

impl Default for ShardedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedStore {
    /// Creates an in-memory store with [`ShardedStore::host_shards`]
    /// partitions.
    pub fn new() -> Self {
        Self::with_shards(Self::host_shards())
    }

    /// The default partition count: one per available CPU, at least 2, so
    /// the default always exercises cross-shard routing.
    pub fn host_shards() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(2)
    }

    /// Creates a store with exactly `shards` partitions (min 1).
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_latency(shards, Duration::ZERO)
    }

    /// Creates a store with `shards` partitions whose commit transactions
    /// each take `latency` under their partition lock (see the type docs).
    pub fn with_shards_and_latency(shards: usize, latency: Duration) -> Self {
        let n = shards.max(1);
        Self::assemble(
            Directory::default(),
            HashMap::new(),
            (0..n).map(Shard::new).collect(),
            latency,
            None,
            None,
        )
    }

    /// Assembles a store from pre-built state — the shared tail of the
    /// in-memory and durable ([`ShardedStore::open_durable`]) constructors.
    pub(crate) fn assemble(
        directory: Directory,
        item_home: HashMap<u64, WorkspaceId>,
        shards: Vec<Shard>,
        commit_latency: Duration,
        wal: Option<Arc<crate::durable::WalPlane>>,
        wal_health: Option<obs::HealthGuard>,
    ) -> Self {
        ShardedStore {
            directory: Mutex::new(directory),
            item_home: Mutex::new(item_home),
            shards,
            commit_latency,
            _health: obs::register_health("metadata.sharded", move || Ok(())),
            wal,
            _wal_health: wal_health,
        }
    }

    /// The partition index a workspace routes to.
    pub fn shard_of(&self, workspace: &WorkspaceId) -> usize {
        route_workspace(&workspace.0, self.shards.len())
    }

    fn shard(&self, workspace: &WorkspaceId) -> &Shard {
        &self.shards[self.shard_of(workspace)]
    }

    /// Enforces the cross-shard half of the item-pinning rule for a
    /// proposal whose item the local shard has never seen: either the item
    /// is globally new (and gets registered to `workspace`), or it already
    /// belongs elsewhere and the commit is rejected. Called with the shard
    /// lock held; `item_home` is the innermost lock.
    fn claim_item(&self, item_id: u64, workspace: &WorkspaceId) -> MetadataResult<()> {
        let mut home = self.item_home.lock();
        match home.get(&item_id) {
            Some(owner) if owner != workspace => Err(MetadataError::WrongWorkspace {
                item: item_id,
                belongs_to: owner.0.clone(),
            }),
            Some(_) => Ok(()),
            None => {
                home.insert(item_id, workspace.clone());
                Ok(())
            }
        }
    }
}

impl MetadataStore for ShardedStore {
    fn create_user(&self, user: &str) -> MetadataResult<()> {
        // WAL records are appended while the directory lock is held (so
        // the log order equals the apply order) but waited on after it is
        // released (so the fsync never serializes unrelated operations).
        let ticket = {
            let mut dir = self.directory.lock();
            if !dir.users.insert(user.to_string()) {
                return Err(MetadataError::UserExists(user.to_string()));
            }
            crate::durable::append_dir(self, crate::durable::dir_user(user))?
        };
        crate::durable::wait(ticket)
    }

    fn create_workspace(&self, user: &str, name: &str) -> MetadataResult<WorkspaceId> {
        let (id, ticket) = {
            let mut dir = self.directory.lock();
            if !dir.users.contains(user) {
                return Err(MetadataError::UnknownUser(user.to_string()));
            }
            dir.next_workspace += 1;
            let id = WorkspaceId(format!("ws-{}", dir.next_workspace));
            dir.workspaces.insert(
                id.0.clone(),
                Workspace {
                    id: id.clone(),
                    owner: user.to_string(),
                    name: name.to_string(),
                    members: Vec::new(),
                },
            );
            // Register the workspace in its home shard while still holding
            // the directory lock (order directory → shard), so a concurrent
            // `workspaces_of` can never see a workspace its shard rejects.
            self.shard(&id)
                .tables
                .lock()
                .by_workspace
                .insert(id.0.clone(), BTreeSet::new());
            let ticket =
                crate::durable::append_dir(self, crate::durable::dir_workspace(&id, user, name))?;
            (id, ticket)
        };
        crate::durable::wait(ticket)?;
        Ok(id)
    }

    fn workspaces_of(&self, user: &str) -> MetadataResult<Vec<Workspace>> {
        let dir = self.directory.lock();
        if !dir.users.contains(user) {
            return Err(MetadataError::UnknownUser(user.to_string()));
        }
        Ok(dir
            .workspaces
            .values()
            .filter(|w| w.owner == user || w.members.iter().any(|m| m == user))
            .cloned()
            .collect())
    }

    fn share_workspace(&self, workspace: &WorkspaceId, user: &str) -> MetadataResult<()> {
        let ticket = {
            let mut dir = self.directory.lock();
            if !dir.users.contains(user) {
                return Err(MetadataError::UnknownUser(user.to_string()));
            }
            let ws = dir
                .workspaces
                .get_mut(&workspace.0)
                .ok_or_else(|| MetadataError::UnknownWorkspace(workspace.0.clone()))?;
            if ws.owner != user && !ws.members.iter().any(|m| m == user) {
                ws.members.push(user.to_string());
            }
            crate::durable::append_dir(self, crate::durable::dir_share(workspace, user))?
        };
        crate::durable::wait(ticket)
    }

    fn get_workspace(&self, workspace: &WorkspaceId) -> MetadataResult<Workspace> {
        self.directory
            .lock()
            .workspaces
            .get(&workspace.0)
            .cloned()
            .ok_or_else(|| MetadataError::UnknownWorkspace(workspace.0.clone()))
    }

    fn commit(
        &self,
        workspace: &WorkspaceId,
        proposals: Vec<ItemMetadata>,
    ) -> MetadataResult<Vec<CommitOutcome>> {
        let shard_index = self.shard_of(workspace);
        let shard = &self.shards[shard_index];
        let lock_start = obs::now_ns();
        let mut tables = shard.lock_timed();
        let lock_end = obs::now_ns();
        if !tables.by_workspace.contains_key(&workspace.0) {
            return Err(MetadataError::UnknownWorkspace(workspace.0.clone()));
        }
        if !self.commit_latency.is_zero() {
            std::thread::sleep(self.commit_latency);
        }
        let mut outcomes = Vec::with_capacity(proposals.len());
        let mut conflicts = 0u64;
        let mut failure = None;
        for proposed in proposals {
            if !tables.items.contains_key(&proposed.item_id) {
                // Not on this shard: globally new, or pinned elsewhere.
                if let Err(e) = self.claim_item(proposed.item_id, workspace) {
                    failure = Some(e);
                    break;
                }
            }
            match tables.apply_proposal(workspace, proposed) {
                Ok(outcome) => {
                    if !outcome.is_committed() {
                        conflicts += 1;
                    }
                    outcomes.push(outcome);
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        // Log whatever was applied — even when a later proposal failed the
        // pin check — so the WAL always reflects the in-memory tables. The
        // record is appended under the shard lock (log order = apply order)
        // and waited on after release (fsync off the critical section).
        let ticket = crate::durable::append_commit(self, shard_index, workspace, &outcomes)?;
        if failure.is_none() {
            shard.commits.inc();
        }
        if conflicts > 0 {
            shard.conflicts.add(conflicts);
        }
        // Critical-path instrumentation: shard-lock wait vs. transaction
        // time, parented under the enclosing handler span when one exists.
        if let Some(parent) = obs::current() {
            let txn_end = obs::now_ns();
            obs::record_manual("meta.lock_wait", &parent, lock_start, lock_end);
            obs::record_manual("meta.txn", &parent, lock_end, txn_end);
        }
        drop(tables);
        crate::durable::wait(ticket)?;
        match failure {
            Some(e) => Err(e),
            None => Ok(outcomes),
        }
    }

    fn current_items(&self, workspace: &WorkspaceId) -> MetadataResult<Vec<ItemMetadata>> {
        self.shard(workspace)
            .tables
            .lock()
            .current_of(workspace)
            .ok_or_else(|| MetadataError::UnknownWorkspace(workspace.0.clone()))
    }

    fn get_current(&self, item_id: u64) -> MetadataResult<ItemMetadata> {
        // Copy the home out and release item_home before locking the
        // shard (commit holds shard → item_home; overlapping here would
        // invert that order).
        let home = self
            .item_home
            .lock()
            .get(&item_id)
            .cloned()
            .ok_or(MetadataError::UnknownItem(item_id))?;
        self.shard(&home)
            .tables
            .lock()
            .items
            .get(&item_id)
            .and_then(|v| v.last())
            .cloned()
            .ok_or(MetadataError::UnknownItem(item_id))
    }

    fn history(&self, item_id: u64) -> MetadataResult<Vec<ItemMetadata>> {
        let home = self
            .item_home
            .lock()
            .get(&item_id)
            .cloned()
            .ok_or(MetadataError::UnknownItem(item_id))?;
        self.shard(&home)
            .tables
            .lock()
            .items
            .get(&item_id)
            .cloned()
            .ok_or(MetadataError::UnknownItem(item_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CommitResult;
    use content::ChunkId;

    fn file(id: u64, ws: &WorkspaceId, version: u64) -> ItemMetadata {
        ItemMetadata {
            version,
            ..ItemMetadata::new_file(id, ws, &format!("f{id}.txt"), vec![], 1, "dev")
        }
    }

    fn setup(shards: usize) -> (ShardedStore, WorkspaceId) {
        let s = ShardedStore::with_shards(shards);
        s.create_user("alice").unwrap();
        let ws = s.create_workspace("alice", "Documents").unwrap();
        (s, ws)
    }

    #[test]
    fn basic_commit_flow_matches_global_store() {
        let (s, ws) = setup(4);
        let out = s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
        assert!(matches!(
            out[0].result,
            CommitResult::Committed { version: 1 }
        ));
        let out = s.commit(&ws, vec![file(1, &ws, 2)]).unwrap();
        assert!(out[0].is_committed());
        // Identical replay: idempotent confirm, not a conflict.
        let out = s.commit(&ws, vec![file(1, &ws, 2)]).unwrap();
        assert!(out[0].is_committed(), "identical replay confirms");
        // Same version from a different device: a real conflict.
        let rival = ItemMetadata {
            version: 2,
            ..ItemMetadata::new_file(1, &ws, "f1.txt", vec![ChunkId::of(b"z")], 1, "dev2")
        };
        let out = s.commit(&ws, vec![rival]).unwrap();
        assert!(
            !out[0].is_committed(),
            "independent same-version proposal conflicts"
        );
        assert_eq!(s.get_current(1).unwrap().version, 2);
        assert_eq!(s.history(1).unwrap().len(), 2);
        assert_eq!(s.current_items(&ws).unwrap().len(), 1);
    }

    #[test]
    fn many_workspaces_route_to_distinct_shards() {
        let s = ShardedStore::with_shards(8);
        s.create_user("u").unwrap();
        let mut used = BTreeSet::new();
        for i in 0..32 {
            let ws = s.create_workspace("u", &format!("w{i}")).unwrap();
            used.insert(s.shard_of(&ws));
        }
        assert!(
            used.len() >= 4,
            "32 workspaces over 8 shards must spread (got {} shards)",
            used.len()
        );
    }

    #[test]
    fn routing_is_deterministic() {
        let a = ShardedStore::with_shards(8);
        let b = ShardedStore::with_shards(8);
        for i in 0..50 {
            let ws = WorkspaceId(format!("ws-{i}"));
            assert_eq!(a.shard_of(&ws), b.shard_of(&ws));
        }
    }

    #[test]
    fn items_pinned_across_shards() {
        // The WrongWorkspace rule must hold even when the two workspaces
        // live on different shards — the cross-shard item_home check.
        let s = ShardedStore::with_shards(8);
        s.create_user("alice").unwrap();
        // Find two workspaces on different shards.
        let mut ws_by_shard: BTreeMap<usize, WorkspaceId> = BTreeMap::new();
        for i in 0..32 {
            let ws = s.create_workspace("alice", &format!("w{i}")).unwrap();
            ws_by_shard.entry(s.shard_of(&ws)).or_insert(ws);
            if ws_by_shard.len() >= 2 {
                break;
            }
        }
        let mut it = ws_by_shard.into_values();
        let (ws1, ws2) = (it.next().unwrap(), it.next().unwrap());
        s.commit(&ws1, vec![file(1, &ws1, 1)]).unwrap();
        assert!(matches!(
            s.commit(&ws2, vec![file(1, &ws2, 2)]),
            Err(MetadataError::WrongWorkspace { item: 1, .. })
        ));
        // The original chain is untouched and readable by item id.
        assert_eq!(s.get_current(1).unwrap().workspace, ws1);
    }

    #[test]
    fn directory_serves_users_and_sharing() {
        let s = ShardedStore::with_shards(4);
        s.create_user("a").unwrap();
        s.create_user("b").unwrap();
        assert!(matches!(
            s.create_user("a"),
            Err(MetadataError::UserExists(_))
        ));
        let ws = s.create_workspace("a", "A").unwrap();
        s.share_workspace(&ws, "b").unwrap();
        s.share_workspace(&ws, "b").unwrap(); // idempotent
        let list = s.workspaces_of("b").unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].members, vec!["b".to_string()]);
        assert_eq!(s.get_workspace(&ws).unwrap().owner, "a");
        assert!(matches!(
            s.workspaces_of("ghost"),
            Err(MetadataError::UnknownUser(_))
        ));
    }

    #[test]
    fn unknown_lookups_are_typed_errors() {
        let (s, _ws) = setup(4);
        let bogus = WorkspaceId::from("nope");
        assert!(matches!(
            s.commit(&bogus, vec![]),
            Err(MetadataError::UnknownWorkspace(_))
        ));
        assert!(matches!(
            s.current_items(&bogus),
            Err(MetadataError::UnknownWorkspace(_))
        ));
        assert!(matches!(
            s.get_workspace(&bogus),
            Err(MetadataError::UnknownWorkspace(_))
        ));
        assert!(matches!(
            s.get_current(404),
            Err(MetadataError::UnknownItem(404))
        ));
        assert!(matches!(
            s.history(404),
            Err(MetadataError::UnknownItem(404))
        ));
    }

    #[test]
    fn single_shard_degenerates_to_global_behavior() {
        let (s, ws) = setup(1);
        s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
        let cur = s.get_current(1).unwrap();
        let out = s.commit(&ws, vec![cur.tombstone("dev")]).unwrap();
        assert!(out[0].is_committed());
        assert!(s.current_items(&ws).unwrap()[0].is_deleted);
    }

    #[test]
    fn chunks_survive_routing() {
        let (s, ws) = setup(8);
        let c = ChunkId::of(b"payload");
        let mut f = file(1, &ws, 1);
        f.chunks = vec![c];
        s.commit(&ws, vec![f]).unwrap();
        assert_eq!(s.get_current(1).unwrap().chunks, vec![c]);
    }

    #[test]
    fn shard_metrics_are_recorded() {
        let (s, ws) = setup(2);
        s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
        // A genuinely conflicting proposal (different committer, same
        // version) on the same shard.
        let mut stale = file(1, &ws, 1);
        stale.modified_by = "other".to_string();
        s.commit(&ws, vec![stale]).unwrap();
        let idx = s.shard_of(&ws);
        assert!(obs::counter(&format!("metadata.shard.{idx}.commits_total")).value() >= 2);
        assert!(obs::counter(&format!("metadata.shard.{idx}.conflicts_total")).value() >= 1);
        assert!(
            obs::histogram(&format!("metadata.shard.{idx}.lock_wait_seconds")).count() >= 2,
            "lock-wait histogram must record each commit's acquisition"
        );
    }
}

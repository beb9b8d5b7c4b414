//! The DAO trait and the item tables Algorithm 1 runs on.

use crate::error::{MetadataError, MetadataResult};
use crate::model::{CommitOutcome, CommitResult, ItemMetadata, Workspace, WorkspaceId};
use std::collections::{BTreeSet, HashMap};
use wire::TokenWriter;

/// The Data Access Object the SyncService talks through (paper §4.2.1:
/// "The SyncService interacts with the Metadata back-end using an
/// extensible Data Access Object").
///
/// Every read that can miss returns a [`MetadataResult`] with a typed
/// not-found error ([`MetadataError::UnknownWorkspace`] /
/// [`MetadataError::UnknownItem`]) rather than a bare `Option`, so a store
/// with internal routing ([`crate::ShardedStore`]) has a place to surface
/// *why* a lookup failed.
pub trait MetadataStore: Send + Sync {
    /// Registers a user.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UserExists`] when the name is taken.
    fn create_user(&self, user: &str) -> MetadataResult<()>;

    /// Creates a workspace owned by `user` and returns its id.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownUser`] when the owner does not exist.
    fn create_workspace(&self, user: &str, name: &str) -> MetadataResult<WorkspaceId>;

    /// Workspaces accessible to `user` — owned or shared with them (the
    /// `getWorkspaces` RPC).
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownUser`] when the user does not exist.
    fn workspaces_of(&self, user: &str) -> MetadataResult<Vec<Workspace>>;

    /// Shares a workspace with another user, who then sees it in
    /// [`MetadataStore::workspaces_of`] and may commit to it. Idempotent.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownWorkspace`] / [`MetadataError::UnknownUser`].
    fn share_workspace(&self, workspace: &WorkspaceId, user: &str) -> MetadataResult<()>;

    /// Looks up one workspace record.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownWorkspace`].
    fn get_workspace(&self, workspace: &WorkspaceId) -> MetadataResult<Workspace>;

    /// Atomically applies a list of proposed changes (Algorithm 1). For
    /// each proposal: first version of a new item → committed; version ==
    /// current + 1 → committed; anything else → conflict carrying the
    /// current metadata. There is never a rollback: winners are decided by
    /// processing order.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownWorkspace`] or
    /// [`MetadataError::WrongWorkspace`]; per-item conflicts are *not*
    /// errors, they are [`CommitResult::Conflict`] outcomes.
    fn commit(
        &self,
        workspace: &WorkspaceId,
        proposals: Vec<ItemMetadata>,
    ) -> MetadataResult<Vec<CommitOutcome>>;

    /// Latest version of every item in a workspace (the `getChanges` RPC),
    /// tombstones included.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownWorkspace`].
    fn current_items(&self, workspace: &WorkspaceId) -> MetadataResult<Vec<ItemMetadata>>;

    /// Writes what [`MetadataStore::current_items`] returns into `w`, as
    /// one list of [`crate::write_item`] maps, without copying an item;
    /// [`crate::items_from_reader`] reads it back.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownWorkspace`], with nothing written.
    fn write_current_items(
        &self,
        workspace: &WorkspaceId,
        w: &mut dyn TokenWriter,
    ) -> MetadataResult<()>;

    /// Latest version of one item.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownItem`] when the item was never committed.
    fn get_current(&self, item_id: u64) -> MetadataResult<ItemMetadata>;

    /// Full version history of one item, oldest first.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownItem`] when the item was never committed.
    fn history(&self, item_id: u64) -> MetadataResult<Vec<ItemMetadata>>;
}

/// The item tables every partition of [`crate::ShardedStore`] maintains:
/// version chains plus the per-workspace index. Algorithm 1 is written
/// here, once.
#[derive(Debug, Default)]
pub(crate) struct ItemTables {
    /// item id -> all versions, oldest first.
    pub(crate) items: HashMap<u64, Vec<ItemMetadata>>,
    /// workspace -> item ids.
    pub(crate) by_workspace: HashMap<String, BTreeSet<u64>>,
}

impl ItemTables {
    /// Applies one proposal of a commit transaction — the per-item body of
    /// Algorithm 1. The caller has already verified the workspace exists
    /// (and, for a partitioned store, that the item is not pinned to a
    /// workspace living elsewhere).
    ///
    /// # Errors
    ///
    /// [`MetadataError::WrongWorkspace`] when the item's first version
    /// lives in a different workspace of this partition.
    pub(crate) fn apply_proposal(
        &mut self,
        workspace: &WorkspaceId,
        proposed: ItemMetadata,
    ) -> MetadataResult<CommitOutcome> {
        // An item is pinned to the workspace of its first version.
        if let Some(versions) = self.items.get(&proposed.item_id) {
            let owner_ws = &versions[0].workspace;
            if owner_ws != workspace {
                return Err(MetadataError::WrongWorkspace {
                    item: proposed.item_id,
                    belongs_to: owner_ws.0.clone(),
                });
            }
        }
        let current = self
            .items
            .get(&proposed.item_id)
            .and_then(|v| v.last())
            .cloned();
        let result = match current {
            None => {
                // First version of a new object.
                let mut stored = proposed.clone();
                stored.version = 1;
                stored.workspace = workspace.clone();
                self.items.insert(proposed.item_id, vec![stored]);
                self.by_workspace
                    .get_mut(&workspace.0)
                    .expect("workspace checked by caller")
                    .insert(proposed.item_id);
                CommitResult::Committed { version: 1 }
            }
            Some(cur)
                if proposed.version == cur.version
                    && proposed.chunks == cur.chunks
                    && proposed.modified_by == cur.modified_by
                    && proposed.is_deleted == cur.is_deleted =>
            {
                // At-least-once delivery: an instance that crashes after
                // applying a commit but before acking the queue message
                // leaves the request to be redelivered. The replay must
                // be confirmed, not reported as a conflict the committer
                // would wrongly "lose" to its own earlier commit.
                CommitResult::Committed {
                    version: cur.version,
                }
            }
            Some(cur) if proposed.version == cur.version + 1 => {
                let mut stored = proposed.clone();
                stored.workspace = workspace.clone();
                self.items
                    .get_mut(&proposed.item_id)
                    .expect("item present")
                    .push(stored);
                CommitResult::Committed {
                    version: proposed.version,
                }
            }
            Some(cur) => CommitResult::Conflict { current: cur },
        };
        Ok(CommitOutcome {
            item_id: proposed.item_id,
            result,
            proposed,
        })
    }

    /// Latest versions of every item of a workspace, by item id.
    fn latest_of<'a>(
        &'a self,
        workspace: &WorkspaceId,
    ) -> Option<impl Iterator<Item = &'a ItemMetadata> + 'a> {
        let ids = self.by_workspace.get(&workspace.0)?;
        Some(
            ids.iter()
                .filter_map(|id| self.items.get(id).and_then(|v| v.last())),
        )
    }

    /// Latest versions of every item of a workspace.
    pub(crate) fn current_of(&self, workspace: &WorkspaceId) -> Option<Vec<ItemMetadata>> {
        Some(self.latest_of(workspace)?.cloned().collect())
    }

    /// Writes the latest versions of every item of a workspace as one list;
    /// `false`, with nothing written, for a workspace it does not hold.
    pub(crate) fn write_current(&self, workspace: &WorkspaceId, w: &mut dyn TokenWriter) -> bool {
        let Some(latest) = self.latest_of(workspace) else {
            return false;
        };
        // The list's length comes first: an id without versions (there is
        // none in a consistent table) is not counted.
        let latest: Vec<&ItemMetadata> = latest.collect();
        w.list(latest.len());
        for item in latest {
            crate::record::write_item(w, item, &item.workspace, item.version);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedStore;
    use content::ChunkId;
    use std::sync::Arc;
    use std::time::Duration;

    /// Runs `test` against a fresh store at 1 shard — the single-database
    /// serialization point — and at 8: the DAO contract does not depend on
    /// the partitioning.
    fn at_1_and_8_shards(test: impl Fn(ShardedStore)) {
        for shards in [1, 8] {
            test(ShardedStore::with_shards(shards));
        }
    }

    /// As [`at_1_and_8_shards`], with alice's "Documents" workspace provisioned.
    fn with_workspace(test: impl Fn(ShardedStore, WorkspaceId)) {
        at_1_and_8_shards(|s| {
            s.create_user("alice").unwrap();
            let ws = s.create_workspace("alice", "Documents").unwrap();
            test(s, ws);
        });
    }

    fn file(id: u64, ws: &WorkspaceId, version: u64) -> ItemMetadata {
        ItemMetadata {
            version,
            ..ItemMetadata::new_file(id, ws, &format!("f{id}.txt"), vec![], 1, "dev")
        }
    }

    #[test]
    fn duplicate_user_rejected() {
        at_1_and_8_shards(|s| {
            s.create_user("u").unwrap();
            assert!(matches!(
                s.create_user("u"),
                Err(MetadataError::UserExists(_))
            ));
        });
    }

    #[test]
    fn workspace_requires_user() {
        at_1_and_8_shards(|s| {
            assert!(matches!(
                s.create_workspace("ghost", "x"),
                Err(MetadataError::UnknownUser(_))
            ));
        });
    }

    #[test]
    fn workspaces_of_lists_only_own() {
        at_1_and_8_shards(|s| {
            s.create_user("a").unwrap();
            s.create_user("b").unwrap();
            let wa = s.create_workspace("a", "A").unwrap();
            let _wb = s.create_workspace("b", "B").unwrap();
            let list = s.workspaces_of("a").unwrap();
            assert_eq!(list.len(), 1);
            assert_eq!(list[0].id, wa);
        });
    }

    #[test]
    fn first_commit_creates_version_one() {
        with_workspace(|s, ws| {
            let outcomes = s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
            assert!(matches!(
                outcomes[0].result,
                CommitResult::Committed { version: 1 }
            ));
            assert_eq!(s.get_current(1).unwrap().version, 1);
        });
    }

    #[test]
    fn sequential_versions_commit() {
        with_workspace(|s, ws| {
            s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
            let out = s.commit(&ws, vec![file(1, &ws, 2)]).unwrap();
            assert!(out[0].is_committed());
            assert_eq!(s.get_current(1).unwrap().version, 2);
            assert_eq!(s.history(1).unwrap().len(), 2);
        });
    }

    #[test]
    fn stale_version_conflicts_and_carries_current() {
        with_workspace(|s, ws| {
            s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
            s.commit(&ws, vec![file(1, &ws, 2)]).unwrap();
            // A second client still at version 1 proposes its own version 2.
            let mut stale = file(1, &ws, 2);
            stale.modified_by = "other-dev".to_string();
            let out = s.commit(&ws, vec![stale]).unwrap();
            match &out[0].result {
                CommitResult::Conflict { current } => assert_eq!(current.version, 2),
                other => panic!("expected conflict, got {other:?}"),
            }
            // No rollback: current stays at version 2.
            assert_eq!(s.get_current(1).unwrap().version, 2);
        });
    }

    #[test]
    fn replayed_commit_confirms_idempotently() {
        // At-least-once delivery (crash before ack, transport redelivery)
        // replays the exact same proposal; it must confirm, not conflict.
        with_workspace(|s, ws| {
            s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
            let out = s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
            assert!(matches!(
                out[0].result,
                CommitResult::Committed { version: 1 }
            ));
            // The replay is recognized, not stored as a second version.
            assert_eq!(s.history(1).unwrap().len(), 1);
        });
    }

    /// Pins today's behaviour: a replay is recognised only at the head
    /// version. A device that resends its v2 after its own v3 has landed
    /// gets a conflict carrying v3, so a client that resends every commit
    /// its notification has not acknowledged (ROADMAP item 20, fix (a))
    /// would turn such a resend into a spurious conflict copy. Item 20(a)
    /// flips this test: a resend of a stored version confirms at it.
    #[test]
    fn a_resent_proposal_below_the_head_conflicts() {
        with_workspace(|s, ws| {
            let at = |version: u64| ItemMetadata {
                chunks: vec![ChunkId::of(&version.to_le_bytes())],
                ..file(1, &ws, version)
            };
            for version in 1..=3 {
                assert!(s.commit(&ws, vec![at(version)]).unwrap()[0].is_committed());
            }
            let out = s.commit(&ws, vec![at(2)]).unwrap();
            match &out[0].result {
                CommitResult::Conflict { current } => assert_eq!(current.version, 3),
                other => panic!("expected conflict, got {other:?}"),
            }
            assert_eq!(s.history(1).unwrap().len(), 3);
        });
    }

    #[test]
    fn skipping_versions_conflicts() {
        with_workspace(|s, ws| {
            s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
            let out = s.commit(&ws, vec![file(1, &ws, 5)]).unwrap();
            assert!(!out[0].is_committed());
        });
    }

    #[test]
    fn mixed_batch_gets_per_item_outcomes() {
        with_workspace(|s, ws| {
            s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
            let out = s
                .commit(&ws, vec![file(1, &ws, 2), file(2, &ws, 1), file(1, &ws, 9)])
                .unwrap();
            assert!(out[0].is_committed());
            assert!(out[1].is_committed());
            assert!(
                !out[2].is_committed(),
                "stale proposal in same batch conflicts"
            );
        });
    }

    #[test]
    fn tombstone_flow() {
        with_workspace(|s, ws| {
            s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
            let cur = s.get_current(1).unwrap();
            let out = s.commit(&ws, vec![cur.tombstone("dev")]).unwrap();
            assert!(out[0].is_committed());
            let current = s.get_current(1).unwrap();
            assert!(current.is_deleted);
            // Tombstones still appear in the workspace listing (clients need
            // them to delete local copies).
            let items = s.current_items(&ws).unwrap();
            assert_eq!(items.len(), 1);
            assert!(items[0].is_deleted);
        });
    }

    #[test]
    fn unknown_workspace_errors() {
        with_workspace(|s, _| {
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
        });
    }

    #[test]
    fn unknown_item_errors() {
        with_workspace(|s, _| {
            assert!(matches!(
                s.get_current(404),
                Err(MetadataError::UnknownItem(404))
            ));
            assert!(matches!(
                s.history(404),
                Err(MetadataError::UnknownItem(404))
            ));
        });
    }

    #[test]
    fn items_are_pinned_to_their_workspace() {
        at_1_and_8_shards(|s| {
            s.create_user("alice").unwrap();
            let ws1 = s.create_workspace("alice", "A").unwrap();
            let ws2 = s.create_workspace("alice", "B").unwrap();
            s.commit(&ws1, vec![file(1, &ws1, 1)]).unwrap();
            assert!(matches!(
                s.commit(&ws2, vec![file(1, &ws2, 2)]),
                Err(MetadataError::WrongWorkspace { item: 1, .. })
            ));
        });
    }

    #[test]
    fn concurrent_commits_have_exactly_one_winner() {
        with_workspace(|s, ws| {
            s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
            let s = Arc::new(s);
            // 8 devices race to commit version 2 of the same item — the paper's
            // conflict scenario. Exactly one must win.
            let mut handles = Vec::new();
            for d in 0..8 {
                let s = s.clone();
                let ws = ws.clone();
                handles.push(std::thread::spawn(move || {
                    let proposal = ItemMetadata {
                        modified_by: format!("device-{d}"),
                        ..ItemMetadata {
                            version: 2,
                            ..ItemMetadata::new_file(1, &ws, "f1.txt", vec![], 1, "x")
                        }
                    };
                    s.commit(&ws, vec![proposal]).unwrap()[0].is_committed()
                }));
            }
            let wins: usize = handles
                .into_iter()
                .map(|h| h.join().unwrap() as usize)
                .sum();
            assert_eq!(wins, 1, "exactly one concurrent committer wins");
            assert_eq!(s.get_current(1).unwrap().version, 2);
        });
    }

    #[test]
    fn chunks_are_stored_with_versions() {
        with_workspace(|s, ws| {
            let c1 = ChunkId::of(b"one");
            let c2 = ChunkId::of(b"two");
            let mut f = file(1, &ws, 1);
            f.chunks = vec![c1, c2];
            s.commit(&ws, vec![f]).unwrap();
            assert_eq!(s.get_current(1).unwrap().chunks, vec![c1, c2]);
        });
    }

    #[test]
    fn commit_latency_is_spent_inside_the_transaction() {
        for shards in [1, 8] {
            let s = ShardedStore::with_shards_and_latency(shards, Duration::from_millis(5));
            s.create_user("u").unwrap();
            let ws = s.create_workspace("u", "W").unwrap();
            let start = std::time::Instant::now();
            s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
            assert!(start.elapsed() >= Duration::from_millis(5));
            // Reads stay instant — only the write transaction pays.
            assert_eq!(s.get_current(1).unwrap().version, 1);
        }
    }

    #[test]
    fn version_monotonicity_property() {
        // Drive a pseudo-random schedule of valid/stale commits and check
        // the history is strictly monotonically versioned.
        with_workspace(|s, ws| {
            s.commit(&ws, vec![file(1, &ws, 1)]).unwrap();
            let mut state = 0x2545F4914F6CDD1Du64;
            for _ in 0..200 {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let cur = s.get_current(1).unwrap().version;
                let proposed = if state.is_multiple_of(3) {
                    cur + 1
                } else {
                    state % 7
                };
                let _ = s.commit(&ws, vec![file(1, &ws, proposed)]);
            }
            let history = s.history(1).unwrap();
            for (i, v) in history.iter().enumerate() {
                assert_eq!(v.version, i as u64 + 1, "history must be gapless");
            }
        });
    }
}

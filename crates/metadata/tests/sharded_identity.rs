//! The sharding identity property: for any multi-workspace commit
//! interleaving, [`ShardedStore`] produces exactly the same
//! [`CommitOutcome`] sequence per workspace at N shards as at one — the
//! single-database serialization point, where one lock orders every commit.
//!
//! This is what licenses partitioning the store under a live SyncService
//! pool: it changes *which commits can overlap in time*, never *what any
//! single commit decides*. The property replays one randomly generated
//! interleaved history — proposals hopping between several workspaces,
//! valid versions, stale versions, replays, tombstones, and
//! wrong-workspace pokes — through both stores in the same order and
//! demands identical outcomes, identical errors, identical final state.
//! The two arms reach the wrong-workspace verdict through different code:
//! with one shard the foreign item is in the only table and the pin check
//! of Algorithm 1's body rejects it; with N it is on another shard and the
//! cross-shard item registry does.

use metadata::{
    CommitOutcome, CommitResult, ItemMetadata, MetadataError, MetadataStore, ShardedStore,
    WorkspaceId,
};
use proptest::prelude::*;

const WORKSPACES: u64 = 6;
const ITEMS_PER_WS: u64 = 4;

#[derive(Debug, Clone)]
struct Step {
    /// Which workspace the commit targets.
    ws: usize,
    /// Which of the workspace's item slots the proposal names. One slot in
    /// `WORKSPACES` deliberately aliases an item of another workspace to
    /// exercise the cross-shard WrongWorkspace path.
    slot: u64,
    version: u64,
    deleted: bool,
    device: u8,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0usize..WORKSPACES as usize,
        0u64..=ITEMS_PER_WS,
        1u64..6,
        any::<bool>(),
        0u8..3,
    )
        .prop_map(|(ws, slot, version, deleted, device)| Step {
            ws,
            slot,
            version,
            deleted,
            device,
        })
}

fn item_id(ws: usize, slot: u64) -> u64 {
    if slot == ITEMS_PER_WS {
        // Alias: point at the *next* workspace's slot 0 — a proposal for
        // an item pinned (or about to be pinned) to a different workspace.
        ((ws as u64 + 1) % WORKSPACES) * 100
    } else {
        ws as u64 * 100 + slot
    }
}

fn proposal(step: &Step, ws: &WorkspaceId) -> ItemMetadata {
    ItemMetadata {
        version: step.version,
        is_deleted: step.deleted,
        ..ItemMetadata::new_file(
            item_id(step.ws, step.slot),
            ws,
            &format!("f{}.txt", item_id(step.ws, step.slot)),
            vec![],
            1,
            &format!("dev-{}", step.device),
        )
    }
}

/// Outcome comparison key: everything a client can observe of a commit.
fn observed(result: Result<Vec<CommitOutcome>, MetadataError>) -> String {
    match result {
        Ok(outcomes) => outcomes
            .iter()
            .map(|o| match &o.result {
                CommitResult::Committed { version } => {
                    format!("item {} committed v{version};", o.item_id)
                }
                CommitResult::Conflict { current } => format!(
                    "item {} conflict cur v{} del {} by {};",
                    o.item_id, current.version, current.is_deleted, current.modified_by
                ),
            })
            .collect(),
        Err(e) => format!("error: {e}"),
    }
}

fn provision(store: &dyn MetadataStore) -> Vec<WorkspaceId> {
    store.create_user("u").unwrap();
    (0..WORKSPACES)
        .map(|i| store.create_workspace("u", &format!("w{i}")).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Replaying the same interleaved multi-workspace history through both
    /// stores yields identical per-commit outcomes and identical final
    /// per-workspace state.
    #[test]
    fn sharded_matches_global_outcome_for_outcome(
        steps in proptest::collection::vec(arb_step(), 1..120),
        shards in 2usize..9,
    ) {
        let global = ShardedStore::with_shards(1);
        let sharded = ShardedStore::with_shards(shards);
        let ws_g = provision(&global);
        let ws_s = provision(&sharded);
        // Both stores allocate ws-1..ws-N in order, so ids line up.
        prop_assert_eq!(&ws_g, &ws_s);

        for (i, step) in steps.iter().enumerate() {
            let g = observed(global.commit(&ws_g[step.ws], vec![proposal(step, &ws_g[step.ws])]));
            let s = observed(sharded.commit(&ws_s[step.ws], vec![proposal(step, &ws_s[step.ws])]));
            prop_assert_eq!(g, s, "divergence at step {} ({:?})", i, step);
        }

        // Final state: per-workspace listings and per-item chains agree.
        for ws in &ws_g {
            let mut g = global.current_items(ws).unwrap();
            let mut s = sharded.current_items(ws).unwrap();
            g.sort_by_key(|m| m.item_id);
            s.sort_by_key(|m| m.item_id);
            prop_assert_eq!(g, s, "workspace {} listing diverged", ws);
        }
        for ws in 0..WORKSPACES as usize {
            for slot in 0..ITEMS_PER_WS {
                let id = item_id(ws, slot);
                prop_assert_eq!(global.history(id).ok(), sharded.history(id).ok());
                prop_assert_eq!(global.get_current(id).ok(), sharded.get_current(id).ok());
            }
        }
    }

    /// Batches behave identically too: the same steps grouped into one
    /// commit per workspace-run keep the stores in lockstep.
    #[test]
    fn sharded_matches_global_on_batches(
        steps in proptest::collection::vec(arb_step(), 1..60),
        shards in 2usize..9,
    ) {
        let global = ShardedStore::with_shards(1);
        let sharded = ShardedStore::with_shards(shards);
        let ws_g = provision(&global);
        let ws_s = provision(&sharded);

        // Group consecutive steps targeting the same workspace into one
        // batch — the shape a SyncService commit_request produces.
        let mut batches: Vec<(usize, Vec<Step>)> = Vec::new();
        for step in steps {
            match batches.last_mut() {
                Some((ws, group)) if *ws == step.ws => group.push(step),
                _ => batches.push((step.ws, vec![step])),
            }
        }

        for (ws, group) in &batches {
            let g = observed(global.commit(
                &ws_g[*ws],
                group.iter().map(|p| proposal(p, &ws_g[*ws])).collect(),
            ));
            let s = observed(sharded.commit(
                &ws_s[*ws],
                group.iter().map(|p| proposal(p, &ws_s[*ws])).collect(),
            ));
            prop_assert_eq!(g, s, "batch for workspace {} diverged", ws);
        }
    }
}

//! Property tests of the metadata store against a simple oracle model:
//! commits are exactly "accept iff version == current + 1 (or first
//! version, or an identical replay of the current version)", histories
//! stay gapless, and the store agrees with the oracle under arbitrary
//! schedules. The oracle is the independent reference: it shares no code
//! with the store, and the store must agree with it at 1 shard and at 8.

use metadata::{CommitResult, ItemMetadata, MetadataStore, ShardedStore, WorkspaceId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use wal::LogConfig;

#[derive(Debug, Clone)]
struct Proposal {
    item: u64,
    version: u64,
    deleted: bool,
}

/// The shard counts every property is checked at: the single serialization
/// point and a partitioned store.
fn arb_shards() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(8usize)]
}

fn arb_proposal() -> impl Strategy<Value = Proposal> {
    (0u64..6, 1u64..8, any::<bool>()).prop_map(|(item, version, deleted)| Proposal {
        item,
        version,
        deleted,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_agrees_with_version_oracle(
        proposals in proptest::collection::vec(arb_proposal(), 1..80),
        shards in arb_shards(),
    ) {
        let store = ShardedStore::with_shards(shards);
        store.create_user("u").unwrap();
        let ws = store.create_workspace("u", "w").unwrap();
        // Oracle: item -> (current version, deleted flag of that version).
        // All proposals here share chunks and device, so a same-version
        // proposal is an identical replay (accepted idempotently) exactly
        // when its deleted flag matches the stored one.
        let mut oracle: HashMap<u64, (u64, bool)> = HashMap::new();

        for p in &proposals {
            let meta = ItemMetadata {
                version: p.version,
                is_deleted: p.deleted,
                ..ItemMetadata::new_file(p.item, &ws, &format!("f{}", p.item), vec![], 1, "d")
            };
            let out = store.commit(&ws, vec![meta]).unwrap();
            let expected_accept = match oracle.get(&p.item) {
                None => true, // first version always accepted (stored as 1)
                Some((cur, cur_deleted)) => {
                    p.version == cur + 1 || (p.version == *cur && p.deleted == *cur_deleted)
                }
            };
            prop_assert_eq!(
                out[0].is_committed(),
                expected_accept,
                "item {} v{} against oracle {:?}",
                p.item,
                p.version,
                oracle.get(&p.item)
            );
            if expected_accept {
                let stored = match oracle.get(&p.item) {
                    None => (1, p.deleted),
                    // A replay leaves the store untouched.
                    Some(&(cur, cur_deleted)) if p.version == cur => (cur, cur_deleted),
                    Some(_) => (p.version, p.deleted),
                };
                oracle.insert(p.item, stored);
            } else if let CommitResult::Conflict { current } = &out[0].result {
                prop_assert_eq!(current.version, oracle.get(&p.item).unwrap().0);
            }
        }

        // Final agreement + gapless histories.
        for (item, (version, _)) in &oracle {
            let current = store.get_current(*item).unwrap();
            prop_assert_eq!(current.version, *version);
            let history = store.history(*item).unwrap();
            for (i, v) in history.iter().enumerate() {
                prop_assert_eq!(v.version, i as u64 + 1, "gapless history");
            }
        }
        // Everything the oracle knows is listed in the workspace.
        let listed = store.current_items(&ws).unwrap();
        prop_assert_eq!(listed.len(), oracle.len());
    }

    #[test]
    fn batch_commit_equals_sequential_commits(
        proposals in proptest::collection::vec(arb_proposal(), 1..40),
        shards in arb_shards(),
    ) {
        // Committing a batch must produce exactly the same outcomes as
        // committing its elements one by one (Algorithm 1 processes the
        // list in order with no rollback).
        let mk = |p: &Proposal, ws: &WorkspaceId| ItemMetadata {
            version: p.version,
            is_deleted: p.deleted,
            ..ItemMetadata::new_file(p.item, ws, &format!("f{}", p.item), vec![], 1, "d")
        };

        let batched = ShardedStore::with_shards(shards);
        batched.create_user("u").unwrap();
        let ws_b = batched.create_workspace("u", "w").unwrap();
        let outcomes_batched = batched
            .commit(&ws_b, proposals.iter().map(|p| mk(p, &ws_b)).collect())
            .unwrap();

        let sequential = ShardedStore::with_shards(shards);
        sequential.create_user("u").unwrap();
        let ws_s = sequential.create_workspace("u", "w").unwrap();
        let mut outcomes_sequential = Vec::new();
        for p in &proposals {
            outcomes_sequential.extend(sequential.commit(&ws_s, vec![mk(p, &ws_s)]).unwrap());
        }

        let accepts_a: Vec<bool> = outcomes_batched.iter().map(|o| o.is_committed()).collect();
        let accepts_b: Vec<bool> = outcomes_sequential.iter().map(|o| o.is_committed()).collect();
        prop_assert_eq!(accepts_a, accepts_b);
    }

    #[test]
    fn snapshot_restore_is_lossless(
        proposals in proptest::collection::vec(arb_proposal(), 1..40),
        shards in arb_shards(),
    ) {
        // Whatever a random schedule leaves in a durable store, a
        // checkpoint followed by a reopen gives back, from the snapshot.
        static RUN: AtomicU64 = AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "meta-lossless-{}-{}",
            std::process::id(),
            RUN.fetch_add(1, Ordering::Relaxed)
        ));
        let open = || {
            let cfg = LogConfig::named("meta-lossless");
            ShardedStore::open_durable(&root, shards, std::time::Duration::ZERO, cfg).unwrap()
        };
        let (store, _) = open();
        store.create_user("u").unwrap();
        let ws = store.create_workspace("u", "w").unwrap();
        for p in &proposals {
            let meta = ItemMetadata {
                version: p.version,
                is_deleted: p.deleted,
                ..ItemMetadata::new_file(p.item, &ws, &format!("f{}", p.item), vec![], 1, "d")
            };
            let _ = store.commit(&ws, vec![meta]);
        }
        store.checkpoint().unwrap();
        let before = store.snapshot();
        drop(store);
        let (restored, recovery) = open();
        let after = restored.snapshot();
        drop(restored);
        let _ = std::fs::remove_dir_all(&root);
        prop_assert!(recovery.snapshot_loaded);
        prop_assert_eq!(after, before);
    }
}

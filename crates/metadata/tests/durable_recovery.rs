//! Crash-replay proof for the durable metadata plane: every acknowledged
//! operation survives process death (drop + reopen), un-fsynced tails are
//! lost *cleanly* (never a half-applied or double-applied commit), and
//! checkpoints compose with log replay idempotently.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use metadata::{ItemMetadata, MetadataError, MetadataStore, ShardedStore};
use wal::{LogConfig, SyncPolicy};
use wire::{BinaryCodec, Codec, JsonCodec, Value};

fn temp_root(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("meta-durable-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> LogConfig {
    LogConfig::named("meta-test")
}

fn open(root: &PathBuf, shards: usize) -> (ShardedStore, metadata::DurableRecovery) {
    ShardedStore::open_durable(root, shards, std::time::Duration::ZERO, cfg()).unwrap()
}

fn snap_bytes(store: &ShardedStore) -> Vec<u8> {
    JsonCodec.encode(&store.snapshot())
}

#[test]
fn clean_restart_recovers_exact_state() {
    let root = temp_root("restart");
    let before = {
        let (store, rec) = open(&root, 4);
        assert!(!rec.snapshot_loaded);
        assert_eq!(rec.replayed, 0);
        assert!(store.is_durable());

        store.create_user("alice").unwrap();
        store.create_user("bob").unwrap();
        let ws1 = store.create_workspace("alice", "Documents").unwrap();
        let ws2 = store.create_workspace("bob", "Photos").unwrap();
        store.share_workspace(&ws1, "bob").unwrap();

        let f = ItemMetadata::new_file(1, &ws1, "report.txt", vec![], 10, "dev-a");
        store.commit(&ws1, vec![f]).unwrap();
        let cur = store.get_current(1).unwrap();
        store
            .commit(&ws1, vec![cur.next_version(vec![], 20, "dev-a")])
            .unwrap();
        // A genuine conflict: committed nothing, must not disturb replay.
        let mut rival = store.get_current(1).unwrap();
        rival.modified_by = "dev-b".into();
        let out = store.commit(&ws1, vec![rival]).unwrap();
        assert!(!out[0].is_committed());
        store
            .commit(
                &ws2,
                vec![ItemMetadata::new_file(2, &ws2, "p.jpg", vec![], 5, "dev-b")],
            )
            .unwrap();

        snap_bytes(&store)
    };

    let (store, rec) = open(&root, 4);
    assert!(!rec.snapshot_loaded, "no checkpoint was written");
    assert!(rec.replayed >= 8, "users+workspaces+share+commits replayed");
    assert_eq!(rec.torn_logs, 0);
    assert_eq!(
        snap_bytes(&store),
        before,
        "recovered state is bit-identical"
    );
    // Version chains are exact: no lost acked commit, no double-commit.
    assert_eq!(store.get_current(1).unwrap().version, 2);
    assert_eq!(store.history(1).unwrap().len(), 2);
    assert_eq!(store.get_current(2).unwrap().version, 1);
    // The id allocator resumed past recovered workspaces.
    let ws3 = store.create_workspace("alice", "Music").unwrap();
    assert_eq!(ws3.0, "ws-3");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn checkpoint_composes_with_log_replay() {
    let root = temp_root("checkpoint");
    let before = {
        let (store, _) = open(&root, 2);
        store.create_user("alice").unwrap();
        let ws = store.create_workspace("alice", "Docs").unwrap();
        store
            .commit(
                &ws,
                vec![ItemMetadata::new_file(1, &ws, "a.txt", vec![], 1, "d")],
            )
            .unwrap();
        // Snapshot covers everything so far; the records still sitting in
        // the active segments must replay idempotently over it.
        store.checkpoint().unwrap();
        let cur = store.get_current(1).unwrap();
        store
            .commit(&ws, vec![cur.next_version(vec![], 2, "d")])
            .unwrap();
        snap_bytes(&store)
    };

    let (store, rec) = open(&root, 2);
    assert!(rec.snapshot_loaded);
    assert_eq!(snap_bytes(&store), before);
    assert_eq!(store.get_current(1).unwrap().version, 2);
    assert_eq!(
        store.history(1).unwrap().len(),
        2,
        "snapshot + replay never double-applies a commit"
    );

    // A second checkpoint replaces the first through the temp file and the
    // rename: the temp file is gone, the snapshot is the whole new state (no
    // record is left to replay), and the reopen cycle stays stable.
    store.checkpoint().unwrap();
    assert!(!root.join("snapshot.tmp").exists());
    drop(store);
    let (store, rec) = open(&root, 2);
    assert!(rec.snapshot_loaded);
    assert_eq!(rec.replayed, 0);
    assert_eq!(snap_bytes(&store), before);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_log_tail_loses_only_the_last_record() {
    let root = temp_root("torn");
    {
        let (store, _) = open(&root, 1);
        store.create_user("u").unwrap();
        let ws = store.create_workspace("u", "W").unwrap();
        store
            .commit(
                &ws,
                vec![ItemMetadata::new_file(1, &ws, "f", vec![], 1, "d")],
            )
            .unwrap();
        for _ in 0..4 {
            let cur = store.get_current(1).unwrap();
            store
                .commit(&ws, vec![cur.next_version(vec![], 1, "d")])
                .unwrap();
        }
        assert_eq!(store.get_current(1).unwrap().version, 5);
    }

    // Tear the tail of the shard log: the v5 commit record becomes a
    // partial write, as if the process died between write and fsync.
    let shard_dir = root.join("shard-0");
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&shard_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    segs.sort();
    let seg = segs.first().expect("shard log segment");
    let len = std::fs::metadata(seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(seg).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let (store, rec) = open(&root, 1);
    assert!(rec.torn_logs >= 1, "damage must be reported");
    assert_eq!(
        store.get_current(1).unwrap().version,
        4,
        "exactly the torn record is lost, nothing before it"
    );
    // The store keeps working and re-lands the lost version.
    let cur = store.get_current(1).unwrap();
    store
        .commit(
            &metadata::WorkspaceId::from("ws-1"),
            vec![cur.next_version(vec![], 1, "d")],
        )
        .unwrap();
    assert_eq!(store.get_current(1).unwrap().version, 5);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crashed_store_refuses_writes_until_reopened() {
    let root = temp_root("crashed");
    let (store, _) = open(&root, 2);
    store.create_user("u").unwrap();
    let ws = store.create_workspace("u", "W").unwrap();
    store
        .commit(
            &ws,
            vec![ItemMetadata::new_file(1, &ws, "f", vec![], 1, "d")],
        )
        .unwrap();

    store.wal_simulate_crash(usize::MAX);
    let cur = store.get_current(1).unwrap();
    let err = store
        .commit(&ws, vec![cur.next_version(vec![], 1, "d")])
        .unwrap_err();
    assert!(matches!(err, MetadataError::Durability(_)), "got {err:?}");
    assert!(matches!(
        store.create_user("v").unwrap_err(),
        MetadataError::Durability(_)
    ));
    drop(store);

    // Reopen recovers every acked operation and accepts writes again.
    let (store, _) = open(&root, 2);
    assert_eq!(store.get_current(1).unwrap().version, 1);
    let cur = store.get_current(1).unwrap();
    store
        .commit(&ws, vec![cur.next_version(vec![], 1, "d")])
        .unwrap();
    assert_eq!(store.get_current(1).unwrap().version, 2);

    let _ = std::fs::remove_dir_all(&root);
}

/// A small store with every kind of state in it (users, a shared
/// workspace, chunked versions, a tombstone), checkpointed and closed.
/// Returns the pre-restart dump.
fn checkpointed_store(root: &PathBuf) -> Vec<u8> {
    let (store, _) = open(root, 2);
    store.create_user("alice").unwrap();
    store.create_user("bob").unwrap();
    let ws1 = store.create_workspace("alice", "Documents").unwrap();
    let ws2 = store.create_workspace("bob", "Photos").unwrap();
    store.share_workspace(&ws1, "bob").unwrap();
    let chunk = |tag: &[u8]| content::ChunkId::of(tag);
    let f = ItemMetadata::new_file(1, &ws1, "report.txt", vec![chunk(b"a")], 10, "dev-a");
    store.commit(&ws1, vec![f]).unwrap();
    let cur = store.get_current(1).unwrap();
    let v2 = cur.next_version(vec![chunk(b"a"), chunk(b"b")], 20, "dev-b");
    store.commit(&ws1, vec![v2]).unwrap();
    let g = ItemMetadata::new_file(2, &ws2, "p.jpg", vec![chunk(b"c")], 5, "dev-b");
    store.commit(&ws2, vec![g.clone()]).unwrap();
    store.commit(&ws2, vec![g.tombstone("dev-b")]).unwrap();
    store.checkpoint().unwrap();
    snap_bytes(&store)
}

fn open_error(root: &PathBuf) -> std::io::Error {
    match ShardedStore::open_durable(root, 2, std::time::Duration::ZERO, cfg()) {
        Ok(_) => panic!("a damaged root opened as a store"),
        Err(e) => e,
    }
}

#[test]
fn intact_snapshot_is_the_whole_recovery() {
    let root = temp_root("intact");
    let before = checkpointed_store(&root);
    assert!(root.join("snapshot.bin").exists());
    assert!(!root.join("snapshot.json").exists());
    let (store, rec) = open(&root, 2);
    assert!(rec.snapshot_loaded);
    assert_eq!(rec.replayed, 0, "the checkpoint truncated every log");
    assert_eq!(rec.torn_logs, 0);
    assert_eq!(snap_bytes(&store), before);
    // The allocator resumed past the snapshot's workspaces.
    assert_eq!(store.create_workspace("alice", "Music").unwrap().0, "ws-3");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn any_flipped_byte_of_the_snapshot_fails_the_open() {
    let root = temp_root("flip");
    checkpointed_store(&root);
    let path = root.join("snapshot.bin");
    let intact = std::fs::read(&path).unwrap();
    for at in 0..intact.len() {
        for mask in [0x01u8, 0xff] {
            let mut damaged = intact.clone();
            damaged[at] ^= mask;
            std::fs::write(&path, &damaged).unwrap();
            let err = open_error(&root);
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "byte {at} ^ {mask:#04x}: {err}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn any_truncation_of_the_snapshot_fails_the_open() {
    let root = temp_root("cut");
    checkpointed_store(&root);
    let path = root.join("snapshot.bin");
    let intact = std::fs::read(&path).unwrap();

    // Every frame boundary (a cut there leaves only verifiable frames, so
    // the header's record count has to catch it), the empty file included.
    let mut cuts = vec![0usize];
    while let wal::Frame::Record { next, .. } = wal::next_frame(&intact, *cuts.last().unwrap()) {
        cuts.push(next);
    }
    assert_eq!(
        cuts.pop(),
        Some(intact.len()),
        "the intact file scans clean"
    );
    let frames = cuts.len() as u64;
    assert_eq!(
        frames, 8,
        "header, 2 users, 2 workspaces, 1 share, 2 chains"
    );
    // And three cuts inside a frame: its header, its payload, its last byte.
    cuts.extend([cuts[2] + 7, cuts[3] + 25, intact.len() - 1]);

    for cut in cuts {
        std::fs::write(&path, &intact[..cut]).unwrap();
        let err = open_error(&root);
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "cut at {cut}: {err}"
        );
    }
    // A well-formed record past the announced count is refused as well.
    let extra = Value::Map(vec![
        ("lsn".into(), Value::U64(frames)),
        ("op".into(), Value::from("user")),
        ("user".into(), Value::from("eve")),
    ]);
    let mut longer = intact.clone();
    wal::frame_into(&mut longer, frames, &BinaryCodec.encode(&extra));
    std::fs::write(&path, &longer).unwrap();
    assert_eq!(open_error(&root).kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn legacy_json_snapshot_is_refused_by_name() {
    let root = temp_root("legacy");
    checkpointed_store(&root);
    // What a root written by the JSON-snapshot version looks like.
    std::fs::rename(root.join("snapshot.bin"), root.join("snapshot.json")).unwrap();
    let err = open_error(&root);
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("snapshot.json"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stale_snapshot_temp_file_is_removed_at_open() {
    let root = temp_root("stale-tmp");
    let before = checkpointed_store(&root);
    // A checkpoint that died between creating its temp file and the rename.
    std::fs::write(root.join("snapshot.tmp"), b"half a snapsh").unwrap();
    let (store, rec) = open(&root, 2);
    assert!(!root.join("snapshot.tmp").exists());
    assert!(rec.snapshot_loaded);
    assert_eq!(rec.replayed, 0);
    assert_eq!(snap_bytes(&store), before);
    let _ = std::fs::remove_dir_all(&root);
}

/// Unsynced logs: these tests are about the snapshot, not about fsync.
fn open_unsynced(root: &PathBuf, shards: usize) -> (ShardedStore, metadata::DurableRecovery) {
    let mut cfg = cfg();
    cfg.sync = SyncPolicy::Never;
    ShardedStore::open_durable(root, shards, std::time::Duration::ZERO, cfg).unwrap()
}

#[test]
fn large_store_checkpoints_and_reopens_from_the_snapshot() {
    // 6 400 commits over 8 workspaces: the size at which loading the JSON
    // snapshot took 12.4 s, which is why the benchmark runs a quarter of it.
    let root = temp_root("large");
    let before = {
        let (store, _) = open_unsynced(&root, 8);
        store.create_user("dave").unwrap();
        let workspaces: Vec<_> = (0..8)
            .map(|i| store.create_workspace("dave", &format!("ws{i}")).unwrap())
            .collect();
        for version in 1..=4u64 {
            for i in 0..1600u64 {
                let ws = &workspaces[(i % 8) as usize];
                let chunks = vec![content::ChunkId::of(&(i * 4 + version).to_le_bytes())];
                let item = match version {
                    1 => ItemMetadata::new_file(
                        i + 1,
                        ws,
                        &format!("dir{:02}/file{i:05}.dat", i % 16),
                        chunks,
                        4096,
                        "seeder",
                    ),
                    _ => store
                        .get_current(i + 1)
                        .unwrap()
                        .next_version(chunks, 4096, "seeder"),
                };
                let out = store.commit(ws, vec![item]).unwrap();
                assert!(out[0].is_committed());
            }
        }
        store.checkpoint().unwrap();
        store.snapshot()
    };
    let (store, rec) = open_unsynced(&root, 8);
    assert!(rec.snapshot_loaded);
    assert_eq!(rec.replayed, 0);
    assert!(store.snapshot() == before, "dump differs after reopen");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn long_chain_survives_a_checkpoint() {
    let root = temp_root("long-chain");
    let before = {
        let (store, _) = open_unsynced(&root, 1);
        store.create_user("u").unwrap();
        let ws = store.create_workspace("u", "W").unwrap();
        let first = ItemMetadata::new_file(7, &ws, "busy.txt", vec![], 0, "d");
        store.commit(&ws, vec![first]).unwrap();
        for size in 1..2100u64 {
            let cur = store.get_current(7).unwrap();
            store
                .commit(&ws, vec![cur.next_version(vec![], size, "d")])
                .unwrap();
        }
        store.checkpoint().unwrap();
        store.snapshot()
    };
    let (store, rec) = open_unsynced(&root, 1);
    assert!(rec.snapshot_loaded);
    assert_eq!(rec.replayed, 0);
    assert_eq!(store.history(7).unwrap().len(), 2100);
    assert!(store.snapshot() == before, "dump differs after reopen");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn every_checkpoint_racing_new_workspaces_reopens() {
    // One thread creates a workspace and at once commits to it, over and
    // over; the other checkpoints without pause and opens a copy of every
    // snapshot it wrote. A checkpoint that copied the directory before the
    // shards could capture a chain whose workspace it had not seen, and no
    // open accepts that snapshot.
    const WORKSPACES: u64 = 3000;
    let root = temp_root("race");
    let probe = temp_root("race-probe");
    let before = {
        let (store, _) = open_unsynced(&root, 4);
        store.create_user("u").unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let checkpoints = std::thread::scope(|scope| {
            let checkpointer = scope.spawn(|| {
                let mut n = 0u64;
                while !done.load(Ordering::Acquire) {
                    store.checkpoint().unwrap();
                    let _ = std::fs::remove_dir_all(&probe);
                    std::fs::create_dir_all(&probe).unwrap();
                    std::fs::copy(root.join("snapshot.bin"), probe.join("snapshot.bin")).unwrap();
                    let (_, rec) = open_unsynced(&probe, 4);
                    assert!(rec.snapshot_loaded);
                    n += 1;
                }
                n
            });
            for i in 0..WORKSPACES {
                let ws = store.create_workspace("u", &format!("w{i}")).unwrap();
                let item = ItemMetadata::new_file(i + 1, &ws, "f", vec![], 1, "d");
                assert!(store.commit(&ws, vec![item]).unwrap()[0].is_committed());
            }
            done.store(true, Ordering::Release);
            checkpointer.join().unwrap()
        });
        assert!(checkpoints > 0);
        store.snapshot()
    };
    // The last snapshot plus the log tails is everything.
    let (store, rec) = open_unsynced(&root, 4);
    assert!(rec.snapshot_loaded);
    assert!(store.snapshot() == before, "dump differs after reopen");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&probe);
}

#[test]
fn non_durable_store_rejects_durable_only_calls() {
    let store = ShardedStore::with_shards(2);
    assert!(!store.is_durable());
    let err = store.checkpoint().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    // And the crash hook is a harmless no-op.
    store.wal_simulate_crash(0);
    store.create_user("still-works").unwrap();
}

/// Commits to a store of `shards` shards one single-item workspace per item
/// id in `ids`, and closes it.
fn spread_store(root: &PathBuf, shards: usize, ids: std::ops::Range<u64>) {
    let (store, _) = open(root, shards);
    let _ = store.create_user("u");
    for id in ids {
        let ws = store.create_workspace("u", &format!("w{id}")).unwrap();
        let item = ItemMetadata::new_file(id, &ws, "f", vec![], id, "d");
        assert!(store.commit(&ws, vec![item]).unwrap()[0].is_committed());
    }
}

fn root_entries(root: &PathBuf) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    entries
}

fn items_present(store: &ShardedStore, ids: std::ops::Range<u64>) -> usize {
    ids.filter(|&id| store.get_current(id).is_ok()).count()
}

#[test]
fn reopening_with_fewer_shards_is_refused_before_any_log_opens() {
    let root = temp_root("fewer-shards");
    spread_store(&root, 8, 1..17);
    let entries = root_entries(&root);

    let err = ShardedStore::open_durable(&root, 2, std::time::Duration::ZERO, cfg())
        .expect_err("a root of 8 shards opened with 2");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("shard-7"), "{err}");
    assert!(err.to_string().contains("at least 8"), "{err}");
    assert_eq!(
        root_entries(&root),
        entries,
        "the refused open touched the root"
    );

    // With its own shard count every acknowledged commit is there.
    let (store, _) = open(&root, 8);
    assert_eq!(items_present(&store, 1..17), 16);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reopening_with_more_shards_keeps_every_commit() {
    let root = temp_root("more-shards");
    spread_store(&root, 2, 1..17);
    // Eight shards route the same workspaces elsewhere; replay re-homes
    // them, and commits continue from the replayed versions.
    spread_store(&root, 8, 17..25);
    let (store, _) = open(&root, 8);
    assert_eq!(items_present(&store, 1..25), 24);
    let ws = store.get_current(3).unwrap();
    let next = ws.next_version(vec![], 9, "d");
    assert!(store.commit(&ws.workspace, vec![next]).unwrap()[0].is_committed());
    store.checkpoint().unwrap();
    let before = snap_bytes(&store);
    drop(store);
    let (store, _) = open(&root, 8);
    assert_eq!(snap_bytes(&store), before);
    assert_eq!(store.get_current(3).unwrap().version, 2);
    let _ = std::fs::remove_dir_all(&root);
}

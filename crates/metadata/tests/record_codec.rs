//! The bytes of the durable metadata plane on disk: WAL records and the
//! snapshot, as a fixed store writes them.
//!
//! `golden/store/` holds the root of [`build_fixed_store`] (its
//! `snapshot.bin`, its directory log and its four shard logs) and
//! `golden/dump.json` the store's dump, all written by the tree-based
//! record code that preceded `wire::Writer` and `wire::Reader`. They pin the
//! format: never regenerate them from the code under test.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use content::ChunkId;
use metadata::{ItemMetadata, MetadataStore, ShardedStore};
use wal::{LogConfig, SyncPolicy};
use wire::{Codec, JsonCodec, Value};

const SHARDS: usize = 4;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn temp_root(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("meta-codec-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(root: &Path, shards: usize) -> std::io::Result<ShardedStore> {
    ShardedStore::open_durable(root, shards, Duration::ZERO, LogConfig::named("golden"))
        .map(|(store, _)| store)
}

fn chunks(tag: u64, n: u64) -> Vec<ChunkId> {
    (0..n)
        .map(|i| ChunkId::of(format!("chunk {tag}.{i}").as_bytes()))
        .collect()
}

/// Builds the same store in `root` every time, checkpointing half way, and
/// returns its dump. Every record kind is in both the snapshot and the logs:
/// users (one not ASCII), workspaces (a name that needs JSON escapes),
/// shares, one-item and multi-item commits, chains of several versions,
/// tombstones, empty and many-chunk items, and a conflict that logs nothing.
fn build_fixed_store(root: &Path) -> Value {
    let store = open(root, SHARDS).unwrap();
    for user in ["alice", "bob", "carol", "dörte"] {
        store.create_user(user).unwrap();
    }
    let docs = store.create_workspace("alice", "Documents").unwrap();
    let photos = store.create_workspace("bob", "Photos \"raw\"\n").unwrap();
    let shared = store.create_workspace("carol", "Shared").unwrap();
    store.share_workspace(&docs, "bob").unwrap();
    store.share_workspace(&shared, "alice").unwrap();
    store.share_workspace(&shared, "dörte").unwrap();
    let spaces = [&docs, &photos, &shared];
    let home = |id: u64| spaces[id as usize % spaces.len()];

    for id in 1..=9u64 {
        let ws = home(id);
        let item = ItemMetadata::new_file(
            id,
            ws,
            &format!("dir {id}/file-{id}.txt"),
            chunks(id, id % 4),
            id * 1000 + 7,
            "dev-a",
        );
        store.commit(ws, vec![item]).unwrap();
    }
    let pair = vec![
        ItemMetadata::new_file(10, &docs, "a/ä.md", chunks(10, 2), 10, "dev-b"),
        ItemMetadata::new_file(11, &docs, "", vec![], 0, "dev-b"),
    ];
    store.commit(&docs, pair).unwrap();
    update(&store, 1, 3, "dev-b");
    update(&store, 2, 1, "dev-a");
    update(&store, 1, 0, "dev-c");
    delete(&store, 3, "dev-a");
    let mut rival = store.get_current(2).unwrap();
    rival.modified_by = "dev-z".into();
    assert!(!store.commit(home(2), vec![rival]).unwrap()[0].is_committed());

    store.checkpoint().unwrap();

    store.create_user("erin").unwrap();
    let late = store.create_workspace("erin", "Late").unwrap();
    store.share_workspace(&late, "alice").unwrap();
    update(&store, 1, 2, "dev-a");
    update(&store, 4, 40, "dev-c");
    delete(&store, 10, "dev-b");
    store
        .commit(
            &late,
            vec![ItemMetadata::new_file(
                12,
                &late,
                "late.bin",
                chunks(12, 1),
                u64::MAX,
                "dev-e",
            )],
        )
        .unwrap();
    store.snapshot()
}

fn update(store: &ShardedStore, id: u64, n: u64, device: &str) {
    let cur = store.get_current(id).unwrap();
    let next = cur.next_version(chunks(id * 100 + cur.version, n), n * 11, device);
    let out = store.commit(&cur.workspace, vec![next]).unwrap();
    assert!(out[0].is_committed());
}

fn delete(store: &ShardedStore, id: u64, device: &str) {
    let cur = store.get_current(id).unwrap();
    let out = store
        .commit(&cur.workspace, vec![cur.tombstone(device)])
        .unwrap();
    assert!(out[0].is_committed());
}

/// Every file under `root`, by path relative to it, with its bytes.
fn files(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, root, out);
            } else {
                let name = path.strip_prefix(root).unwrap().to_string_lossy();
                out.push((name.into_owned(), std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

fn golden_dump() -> Vec<u8> {
    std::fs::read(golden_dir().join("dump.json")).unwrap()
}

fn copy_dir(from: &Path, to: &Path) {
    for (name, bytes) in files(from) {
        let path = to.join(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
    }
}

#[test]
fn a_fixed_store_writes_the_pinned_bytes() {
    let root = temp_root("write");
    let dump = build_fixed_store(&root);
    let written = files(&root);
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(JsonCodec.encode(&dump), golden_dump(), "the store's state");
    let pinned = files(&golden_dir().join("store"));
    let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&written), names(&pinned), "the files of the root");
    for ((name, bytes), (_, pinned)) in written.iter().zip(&pinned) {
        assert!(bytes == pinned, "{name} differs from its golden copy");
    }
}

#[test]
fn the_pinned_root_opens_to_the_pinned_dump() {
    let root = temp_root("open");
    copy_dir(&golden_dir().join("store"), &root);
    let store = open(&root, SHARDS).unwrap();
    assert_eq!(JsonCodec.encode(&store.snapshot()), golden_dump());
    assert_eq!(store.history(1).unwrap().len(), 4);
    assert_eq!(store.get_current(12).unwrap().size, u64::MAX);

    // Checkpointed again, it opens from the new snapshot alone to the same.
    store.checkpoint().unwrap();
    drop(store);
    let store = open(&root, SHARDS).unwrap();
    assert_eq!(JsonCodec.encode(&store.snapshot()), golden_dump());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_chain_past_the_frame_limit_fails_the_checkpoint_and_changes_nothing() {
    let root = temp_root("oversize");
    let cfg = LogConfig {
        sync: SyncPolicy::Never,
        ..LogConfig::named("oversize")
    };
    let open = || ShardedStore::open_durable(&root, 1, Duration::ZERO, cfg.clone()).unwrap();
    let (store, _) = open();
    store.create_user("u").unwrap();
    let ws = store.create_workspace("u", "w").unwrap();
    // One chain of versions with a 1 MiB path each, 1 MiB past the limit
    // in all: every commit record fits a frame, the chain's record does not.
    let path = "p".repeat(1 << 20);
    let versions = (wal::MAX_RECORD_LEN / path.len() + 1) as u64;
    let mut item = ItemMetadata::new_file(1, &ws, &path, vec![], 1, "d");
    store.commit(&ws, vec![item.clone()]).unwrap();
    store.checkpoint().unwrap();
    let snapshot = std::fs::read(root.join("snapshot.bin")).unwrap();

    for version in 2..=versions {
        item = item.next_version(vec![], version, "d");
        assert!(store.commit(&ws, vec![item.clone()]).unwrap()[0].is_committed());
    }
    let err = store.checkpoint().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("more than a frame holds"), "{err}");
    assert!(
        std::fs::read(root.join("snapshot.bin")).unwrap() == snapshot,
        "the failed checkpoint changed snapshot.bin"
    );
    drop(store);

    // No log was truncated: the snapshot and the logs give back every
    // version.
    let (store, rec) = open();
    assert!(rec.snapshot_loaded);
    let current = store.get_current(1).unwrap();
    assert_eq!((current.version, current.size), (versions, versions));
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}

//! What durability costs in threads, measured on the process: nothing. One
//! test and a binary of its own, for the reason `crates/sync/tests/threads.rs`
//! gives — `Threads:` in `/proc/self/status` counts a neighbouring test's
//! threads too.
#![cfg(target_os = "linux")]

use metadata::{MetadataStore, ShardedStore};
use std::time::Duration;

fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn a_durable_store_starts_no_thread() {
    let root = std::env::temp_dir().join(format!("wal-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let before = process_threads();

    // Nine logs: eight shards and the directory.
    let (store, _) = ShardedStore::open_durable(
        root.join("meta"),
        8,
        Duration::ZERO,
        wal::LogConfig::named("threads-meta"),
    )
    .unwrap();
    assert_eq!(process_threads(), before, "opening started a thread");

    // And none appears with the first durable write: the caller flushes.
    store.create_user("alice").unwrap();
    store.create_workspace("alice", "Docs").unwrap();
    assert_eq!(
        process_threads(),
        before,
        "a durable write started a thread"
    );

    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}

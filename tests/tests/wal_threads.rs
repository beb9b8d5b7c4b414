//! What durability costs in threads, measured on the process: nothing. One
//! test and a binary of its own, for the reason `crates/sync/tests/threads.rs`
//! gives — `Threads:` in `/proc/self/status` counts a neighbouring test's
//! threads too.
#![cfg(target_os = "linux")]

use metadata::{MetadataStore, ShardedStore};
use mqsim::{Message, MessageBroker, QueueOptions};
use std::time::Duration;

fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn durable_store_and_broker_start_no_thread() {
    let root = std::env::temp_dir().join(format!("wal-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let before = process_threads();

    // Nine logs (eight shards and the directory) and the broker's journal.
    let (store, _) = ShardedStore::open_durable(
        root.join("meta"),
        8,
        Duration::ZERO,
        wal::LogConfig::named("threads-meta"),
    )
    .unwrap();
    let (broker, _) =
        MessageBroker::open_durable(root.join("mq"), wal::LogConfig::named("threads-mq")).unwrap();
    assert_eq!(process_threads(), before, "opening started a thread");

    // And none appears with the first durable write: the caller flushes.
    store.create_user("alice").unwrap();
    store.create_workspace("alice", "Docs").unwrap();
    broker.declare_queue("q", QueueOptions::durable()).unwrap();
    broker
        .publish_to_queue("q", Message::from_static(b"m"))
        .unwrap();
    assert_eq!(
        process_threads(),
        before,
        "a durable write started a thread"
    );

    drop((store, broker));
    let _ = std::fs::remove_dir_all(&root);
}

//! The bytes of the durable broker's journal on disk.
//!
//! Both goldens hold the journal of one fixed sequence: two durable queues
//! declared, four publishes (a call with `reply_to` and `trace`, a plain
//! message, a traced cast, a message to the second queue), one ack, one
//! queue deleted. Two publishes stay pending.
//!
//! * `golden/retired_layout/` was written by the broker whose publish
//!   record (kind 2) also stored `correlation_id`, `content_type` and
//!   `persistent`. Opening it must fail with `InvalidData` naming the
//!   retired kind, not misread it.
//! * `golden/journal/` is the same sequence in the current layout
//!   (publish kind 5). It pins the format: never regenerate it from the
//!   code under test.

use mqsim::{Message, MessageBroker, MessageProperties, QueueOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use wal::LogConfig;

const T: Duration = Duration::from_secs(1);
const CALL_TRACE: &str = "00000000000000aa-00000000000000bb";
const CAST_TRACE: &str = "00000000000000cc-00000000000000dd";

fn golden_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mq-journal-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> std::io::Result<(MessageBroker, mqsim::BrokerRecovery)> {
    MessageBroker::open_durable(dir, LogConfig::named("golden"))
}

/// The files of a directory, by name, with their bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for (name, bytes) in files(from) {
        std::fs::write(to.join(name), bytes).unwrap();
    }
}

/// Runs the fixed sequence against a fresh journal in `dir`.
fn build_fixed_journal(dir: &Path) {
    let (broker, _) = open(dir).unwrap();
    broker
        .declare_queue("jobs", QueueOptions::durable())
        .unwrap();
    let scratch = QueueOptions {
        auto_delete: true,
        rate_window: Duration::from_millis(1500),
        durable: true,
    };
    broker.declare_queue("scratch", scratch).unwrap();
    let call = MessageProperties {
        reply_to: Some("omq.reply.7".into()),
        trace: Some(CALL_TRACE.into()),
    };
    broker
        .publish_to_queue("jobs", Message::with_properties(b"call".as_slice(), call))
        .unwrap();
    broker
        .publish_to_queue("jobs", Message::from_static(b"ack-me"))
        .unwrap();
    let cast = MessageProperties {
        reply_to: None,
        trace: Some(CAST_TRACE.into()),
    };
    broker
        .publish_to_queue("jobs", Message::with_properties(b"cast".as_slice(), cast))
        .unwrap();
    broker
        .publish_to_queue("scratch", Message::from_static(b"dropped with its queue"))
        .unwrap();
    let consumer = broker.subscribe("jobs").unwrap();
    let first = consumer.recv_timeout(T).unwrap();
    let second = consumer.recv_timeout(T).unwrap();
    assert_eq!(second.message.payload(), b"ack-me");
    second.ack();
    drop(first);
    broker.delete_queue("scratch").unwrap();
    broker.journal_flush().unwrap();
}

#[test]
fn a_fixed_journal_writes_the_pinned_bytes() {
    let dir = temp_dir("write");
    build_fixed_journal(&dir);
    let written = files(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    let pinned = files(&golden_dir("journal"));
    let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&written), names(&pinned), "the files of the journal");
    for ((name, bytes), (_, pinned)) in written.iter().zip(&pinned) {
        assert!(bytes == pinned, "{name} differs from its golden copy");
    }
}

#[test]
fn the_pinned_journal_reopens_to_its_pending_set() {
    let dir = temp_dir("open");
    copy_dir(&golden_dir("journal"), &dir);
    let (broker, rec) = open(&dir).unwrap();
    assert_eq!(
        rec.replayed, 8,
        "2 declarations, 4 publishes, 1 ack, 1 deletion"
    );
    assert_eq!(rec.queues, 1, "`scratch` was deleted");
    assert_eq!(rec.requeued, 2);
    assert!(!rec.torn);
    assert!(!broker.queue_exists("scratch"));

    let consumer = broker.subscribe("jobs").unwrap();
    let call = consumer.recv_timeout(T).unwrap();
    assert_eq!(call.message.payload(), b"call");
    assert_eq!(
        call.message.properties(),
        &MessageProperties {
            reply_to: Some("omq.reply.7".into()),
            trace: Some(CALL_TRACE.into()),
        }
    );
    assert!(call.redelivered);
    let cast = consumer.recv_timeout(T).unwrap();
    assert_eq!(cast.message.payload(), b"cast");
    assert_eq!(cast.message.properties().reply_to, None);
    assert_eq!(cast.message.properties().trace.as_deref(), Some(CAST_TRACE));
    assert!(cast.redelivered);
    assert!(consumer.try_recv().is_none());
    drop((call, cast, consumer, broker));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journal_of_the_retired_layout_is_refused() {
    let dir = temp_dir("retired");
    let golden = golden_dir("retired_layout");
    copy_dir(&golden, &dir);
    let err = open(&dir).expect_err("a kind-2 journal must not open");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let message = err.to_string();
    assert!(message.contains("kind 2"), "{message}");
    assert!(message.contains("retired"), "{message}");
    // Opening the log made its next (empty) active segment; the records
    // themselves are left as they were.
    let mut left = files(&dir);
    left.retain(|(_, bytes)| !bytes.is_empty());
    assert_eq!(
        left,
        files(&golden),
        "the refused journal is left as it was"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

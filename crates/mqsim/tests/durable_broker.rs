//! Crash-replay tests for the durable broker: publishes to durable queues
//! survive a restart, acked messages stay gone, and non-durable queues are
//! unaffected.

use mqsim::{Message, MessageBroker, MessageProperties, MqError, QueueOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("mqsim-durable-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg() -> wal::LogConfig {
    wal::LogConfig::named("broker-test")
}

#[test]
fn unacked_durable_messages_survive_restart() {
    let dir = temp_dir("restart");

    {
        let (broker, rec) = MessageBroker::open_durable(&dir, cfg()).unwrap();
        assert_eq!(rec.replayed, 0);
        assert!(broker.is_durable());

        broker
            .declare_queue("jobs", QueueOptions::durable())
            .unwrap();
        let props = MessageProperties {
            reply_to: Some("jobs.reply".into()),
            trace: None,
        };
        broker
            .publish_to_queue(
                "jobs",
                Message::with_properties(b"keep-1".as_slice(), props),
            )
            .unwrap();
        broker
            .publish_to_queue("jobs", Message::from_static(b"ack-me"))
            .unwrap();
        broker
            .publish_to_queue("jobs", Message::from_static(b"keep-2"))
            .unwrap();

        // Consume and ack only the middle message.
        let consumer = broker.subscribe("jobs").unwrap();
        let d1 = consumer.recv_timeout(Duration::from_secs(1)).unwrap();
        let d2 = consumer.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(d2.message.payload(), b"ack-me");
        d2.ack();
        drop(d1); // never acked: must come back after the crash
        broker.journal_flush().unwrap();
    }

    let (broker, rec) = MessageBroker::open_durable(&dir, cfg()).unwrap();
    assert_eq!(rec.queues, 1);
    assert_eq!(rec.requeued, 2);
    assert!(!rec.torn);

    let consumer = broker.subscribe("jobs").unwrap();
    let d1 = consumer.recv_timeout(Duration::from_secs(1)).unwrap();
    let d2 = consumer.recv_timeout(Duration::from_secs(1)).unwrap();
    // FIFO order by journal id, both flagged redelivered.
    assert_eq!(d1.message.payload(), b"keep-1");
    assert_eq!(
        d1.message.properties().reply_to.as_deref(),
        Some("jobs.reply")
    );
    assert!(d1.redelivered);
    assert_eq!(d2.message.payload(), b"keep-2");
    assert!(d2.redelivered);
    assert!(consumer.try_recv().is_none());

    // Acks after recovery cancel the original publish records.
    d1.ack();
    d2.ack();
    broker.journal_flush().unwrap();
    drop(consumer);
    drop(broker);

    let (_broker, rec) = MessageBroker::open_durable(&dir, cfg()).unwrap();
    assert_eq!(rec.requeued, 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lost_acks_cause_redelivery_not_loss() {
    let dir = temp_dir("lost-acks");

    {
        let (broker, _) = MessageBroker::open_durable(&dir, cfg()).unwrap();
        broker.declare_queue("q", QueueOptions::durable()).unwrap();
        broker
            .publish_to_queue("q", Message::from_static(b"m"))
            .unwrap();
        let consumer = broker.subscribe("q").unwrap();
        consumer.recv_timeout(Duration::from_secs(1)).unwrap().ack();
        // Crash before the buffered ack record reaches disk.
        broker.journal_simulate_crash(0);
    }

    let (broker, rec) = MessageBroker::open_durable(&dir, cfg()).unwrap();
    assert_eq!(rec.requeued, 1, "a lost ack redelivers, never loses");
    let consumer = broker.subscribe("q").unwrap();
    let d = consumer.recv_timeout(Duration::from_secs(1)).unwrap();
    assert_eq!(d.message.payload(), b"m");
    assert!(d.redelivered);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crashed_journal_rejects_durable_publishes() {
    let dir = temp_dir("crashed");

    let (broker, _) = MessageBroker::open_durable(&dir, cfg()).unwrap();
    broker.declare_queue("q", QueueOptions::durable()).unwrap();
    broker
        .declare_queue("scratch", QueueOptions::default())
        .unwrap();
    broker.journal_simulate_crash(usize::MAX);

    let err = broker
        .publish_to_queue("q", Message::from_static(b"x"))
        .unwrap_err();
    assert!(matches!(err, MqError::Durability(_)), "got {err:?}");

    // Non-durable queues keep working on the same broker.
    broker
        .publish_to_queue("scratch", Message::from_static(b"y"))
        .unwrap();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deleted_durable_queue_stays_deleted_after_restart() {
    let dir = temp_dir("delete");

    {
        let (broker, _) = MessageBroker::open_durable(&dir, cfg()).unwrap();
        broker
            .declare_queue("gone", QueueOptions::durable())
            .unwrap();
        broker
            .declare_queue("kept", QueueOptions::durable())
            .unwrap();
        broker
            .publish_to_queue("gone", Message::from_static(b"dead"))
            .unwrap();
        broker
            .publish_to_queue("kept", Message::from_static(b"alive"))
            .unwrap();
        broker.delete_queue("gone").unwrap();
    }

    let (broker, rec) = MessageBroker::open_durable(&dir, cfg()).unwrap();
    assert_eq!(rec.queues, 1);
    assert_eq!(rec.requeued, 1);
    assert!(broker.queue_stats("gone").is_err());
    let consumer = broker.subscribe("kept").unwrap();
    assert_eq!(
        consumer
            .recv_timeout(Duration::from_secs(1))
            .unwrap()
            .message
            .payload(),
        b"alive"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_durable_queues_are_not_journaled() {
    let dir = temp_dir("mixed");

    {
        let (broker, _) = MessageBroker::open_durable(&dir, cfg()).unwrap();
        broker
            .declare_queue("mem", QueueOptions::default())
            .unwrap();
        broker
            .publish_to_queue("mem", Message::from_static(b"ephemeral"))
            .unwrap();
    }

    let (broker, rec) = MessageBroker::open_durable(&dir, cfg()).unwrap();
    assert_eq!(rec.replayed, 0);
    assert_eq!(rec.queues, 0);
    assert!(broker.queue_stats("mem").is_err());

    std::fs::remove_dir_all(&dir).ok();
}

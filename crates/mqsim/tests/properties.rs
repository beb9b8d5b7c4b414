//! Property tests over the broker: conservation and ordering invariants
//! under randomized operation sequences.

use mqsim::{Message, MessageBroker, MqError, QueueOptions};
use proptest::prelude::*;
use std::time::Duration;

#[derive(Debug, Clone)]
enum Op {
    Publish(u8),
    ConsumeAck,
    ConsumeDrop,
    ConsumeRequeue,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<u8>().prop_map(Op::Publish),
        3 => Just(Op::ConsumeAck),
        1 => Just(Op::ConsumeDrop),
        1 => Just(Op::ConsumeRequeue),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: published = acked + still-queued. No message
    /// is ever lost or duplicated by ack/requeue/drop cycles.
    #[test]
    fn messages_are_conserved(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let broker = MessageBroker::new();
        broker.declare_queue("q", QueueOptions::default()).unwrap();
        let consumer = broker.subscribe("q").unwrap();
        let mut published: u64 = 0;
        let mut acked: u64 = 0;
        for op in &ops {
            match op {
                Op::Publish(b) => {
                    broker.publish_to_queue("q", Message::from_bytes(vec![*b])).unwrap();
                    published += 1;
                }
                Op::ConsumeAck => {
                    if let Some(d) = consumer.try_recv() {
                        d.ack();
                        acked += 1;
                    }
                }
                Op::ConsumeDrop => {
                    // Dropping without ack requeues at the front.
                    if let Some(d) = consumer.try_recv() {
                        drop(d);
                    }
                }
                Op::ConsumeRequeue => {
                    if let Some(d) = consumer.try_recv() {
                        d.requeue();
                    }
                }
            }
        }
        let stats = broker.queue_stats("q").unwrap();
        prop_assert_eq!(stats.unacked, 0, "everything handed out was resolved");
        prop_assert_eq!(
            acked + stats.depth as u64,
            published,
            "conservation: published == acked + queued"
        );
        prop_assert_eq!(stats.published, published);
        prop_assert_eq!(stats.acked, acked);
    }

    /// FIFO: without requeues, payloads come out in publish order.
    #[test]
    fn fifo_without_redelivery(payloads in proptest::collection::vec(any::<u8>(), 1..60)) {
        let broker = MessageBroker::new();
        broker.declare_queue("q", QueueOptions::default()).unwrap();
        let consumer = broker.subscribe("q").unwrap();
        for &b in &payloads {
            broker.publish_to_queue("q", Message::from_bytes(vec![b])).unwrap();
        }
        let mut out = Vec::new();
        while let Some(d) = consumer.try_recv() {
            out.push(d.message.payload()[0]);
            d.ack();
        }
        prop_assert_eq!(out, payloads);
    }

    /// Fanout: every bound queue receives every message exactly once.
    #[test]
    fn fanout_delivers_to_all(
        n_queues in 1usize..6,
        payloads in proptest::collection::vec(any::<u8>(), 0..30),
    ) {
        let broker = MessageBroker::new();
        broker.declare_exchange("x").unwrap();
        for i in 0..n_queues {
            let q = format!("q{i}");
            broker.declare_queue(&q, QueueOptions::default()).unwrap();
            broker.bind_queue("x", &q).unwrap();
        }
        for &b in &payloads {
            let delivered = broker.publish("x", Message::from_bytes(vec![b])).unwrap();
            prop_assert_eq!(delivered, n_queues);
        }
        for i in 0..n_queues {
            prop_assert_eq!(broker.queue_stats(&format!("q{i}")).unwrap().depth, payloads.len());
        }
    }
}

#[test]
fn concurrent_competing_consumers_conserve_messages() {
    // 4 consumer threads race over 400 messages with occasional requeues;
    // every message must be acked exactly once in the end.
    let broker = MessageBroker::new();
    broker.declare_queue("q", QueueOptions::default()).unwrap();
    const N: u64 = 400;
    for i in 0..N {
        broker
            .publish_to_queue("q", Message::from_bytes(vec![(i % 251) as u8]))
            .unwrap();
    }
    let mut handles = Vec::new();
    for t in 0..4 {
        let b = broker.clone();
        handles.push(std::thread::spawn(move || {
            let consumer = b.subscribe("q").unwrap();
            let mut acked = 0u64;
            let mut requeue_budget = 20;
            loop {
                match consumer.recv_timeout(Duration::from_millis(100)) {
                    Ok(d) => {
                        if requeue_budget > 0
                            && (d.message.payload()[0] as usize + t).is_multiple_of(13)
                        {
                            requeue_budget -= 1;
                            d.requeue();
                        } else {
                            d.ack();
                            acked += 1;
                        }
                    }
                    Err(MqError::RecvTimeout) => return acked,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, N, "each message acked exactly once across threads");
    let stats = broker.queue_stats("q").unwrap();
    assert_eq!(stats.depth, 0);
    assert_eq!(stats.unacked, 0);
    assert_eq!(stats.acked, N);
}

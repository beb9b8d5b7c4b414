//! The identity property: a broker with [`faultsim::FaultPlan::identity`]
//! installed is observationally *bit-identical* to an un-hooked broker.
//!
//! This is what makes the interceptor hook safe to keep in the production
//! `mqsim` hot path: the hook must be pure overhead-free observation
//! unless a plan actively decides otherwise. Randomized op sequences run
//! against a hooked and an un-hooked broker in lockstep; every delivered
//! payload, every redelivery flag, every queue statistic must match.

use faultsim::FaultPlan;
use mqsim::{Message, MessageBroker, QueueOptions};
use proptest::prelude::*;
use std::sync::Arc;

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

#[derive(Debug, Clone)]
enum BatchOp {
    /// Publish the payloads one by one on both sides.
    PublishGroup(Vec<u8>),
    /// Drain up to `max_n` ready deliveries and ack them all.
    ConsumeBatch(usize),
    /// Take one delivery and put it back.
    ConsumeRequeue,
}

fn arb_batch_op() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        4 => proptest::collection::vec(any::<u8>(), 1..12).prop_map(BatchOp::PublishGroup),
        3 => (1usize..8).prop_map(BatchOp::ConsumeBatch),
        1 => Just(BatchOp::ConsumeRequeue),
    ]
}

/// Applies one op to a broker, returning what a client could observe of
/// it: the payload and redelivery flag of any delivery.
fn observe(broker: &MessageBroker, consumer: &mqsim::Consumer, op: &Op) -> Vec<(Vec<u8>, bool)> {
    match op {
        Op::Publish(b) => {
            broker
                .publish_to_queue("q", Message::from_bytes(vec![*b]))
                .unwrap();
            Vec::new()
        }
        Op::ConsumeAck => match consumer.try_recv() {
            Some(d) => {
                let seen = vec![(d.message.payload().to_vec(), d.redelivered)];
                d.ack();
                seen
            }
            None => Vec::new(),
        },
        Op::ConsumeDrop => match consumer.try_recv() {
            Some(d) => vec![(d.message.payload().to_vec(), d.redelivered)],
            None => Vec::new(),
        },
        Op::ConsumeRequeue => match consumer.try_recv() {
            Some(d) => {
                let seen = vec![(d.message.payload().to_vec(), d.redelivered)];
                d.requeue();
                seen
            }
            None => Vec::new(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every observable — delivery order, payloads, redelivery flags,
    /// final stats — matches between a hooked and an
    /// un-hooked broker across arbitrary op sequences.
    #[test]
    fn identity_plan_is_observationally_invisible(
        ops in proptest::collection::vec(arb_op(), 1..150)
    ) {
        let hooked = MessageBroker::new();
        hooked.set_interceptor(Some(Arc::new(FaultPlan::identity())));
        let bare = MessageBroker::new();
        for broker in [&hooked, &bare] {
            broker.declare_queue("q", QueueOptions::default()).unwrap();
        }
        let hooked_consumer = hooked.subscribe("q").unwrap();
        let bare_consumer = bare.subscribe("q").unwrap();

        for (i, op) in ops.iter().enumerate() {
            let h = observe(&hooked, &hooked_consumer, op);
            let b = observe(&bare, &bare_consumer, op);
            prop_assert_eq!(h, b, "divergence at op {} ({:?})", i, op);
        }

        let hs = hooked.queue_stats("q").unwrap();
        let bs = bare.queue_stats("q").unwrap();
        prop_assert_eq!(hs.depth, bs.depth);
        prop_assert_eq!(hs.unacked, bs.unacked);
        prop_assert_eq!(hs.published, bs.published);
        prop_assert_eq!(hs.delivered, bs.delivered);
        prop_assert_eq!(hs.acked, bs.acked);
        prop_assert_eq!(hs.redelivered, bs.redelivered);
    }

    /// The batched receive path the broker server dispatches with
    /// (`try_recv_batch`, `ack_all`) is observationally identical to the
    /// one-at-a-time protocol — including under an installed identity
    /// [`FaultPlan`], whose `on_deliver` runs once per entry a batch takes.
    #[test]
    fn batched_path_matches_singles_under_identity_plan(
        ops in proptest::collection::vec(arb_batch_op(), 1..60)
    ) {
        let batched = MessageBroker::new();
        batched.set_interceptor(Some(Arc::new(FaultPlan::identity())));
        let singles = MessageBroker::new();
        for broker in [&batched, &singles] {
            broker.declare_queue("q", QueueOptions::default()).unwrap();
        }
        let batched_consumer = batched.subscribe("q").unwrap();
        let singles_consumer = singles.subscribe("q").unwrap();

        for (i, op) in ops.iter().enumerate() {
            let observed_batched: Vec<(Vec<u8>, bool)> = match op {
                BatchOp::PublishGroup(group) => {
                    for b in group {
                        batched
                            .publish_to_queue("q", Message::from_bytes(vec![*b]))
                            .unwrap();
                    }
                    Vec::new()
                }
                BatchOp::ConsumeBatch(max_n) => {
                    let deliveries = batched_consumer.try_recv_batch(*max_n);
                    let seen = deliveries
                        .iter()
                        .map(|d| (d.message.payload().to_vec(), d.redelivered))
                        .collect();
                    mqsim::Delivery::ack_all(deliveries);
                    seen
                }
                BatchOp::ConsumeRequeue => match batched_consumer.try_recv() {
                    Some(d) => {
                        let seen = vec![(d.message.payload().to_vec(), d.redelivered)];
                        d.requeue();
                        seen
                    }
                    None => Vec::new(),
                },
            };
            let observed_singles: Vec<(Vec<u8>, bool)> = match op {
                BatchOp::PublishGroup(group) => {
                    for b in group {
                        singles
                            .publish_to_queue("q", Message::from_bytes(vec![*b]))
                            .unwrap();
                    }
                    Vec::new()
                }
                BatchOp::ConsumeBatch(max_n) => {
                    let mut seen = Vec::new();
                    for _ in 0..*max_n {
                        match singles_consumer.try_recv() {
                            Some(d) => {
                                seen.push((d.message.payload().to_vec(), d.redelivered));
                                d.ack();
                            }
                            None => break,
                        }
                    }
                    seen
                }
                BatchOp::ConsumeRequeue => match singles_consumer.try_recv() {
                    Some(d) => {
                        let seen = vec![(d.message.payload().to_vec(), d.redelivered)];
                        d.requeue();
                        seen
                    }
                    None => Vec::new(),
                },
            };
            prop_assert_eq!(
                observed_batched, observed_singles,
                "divergence at op {} ({:?})", i, op
            );
        }

        let bs = batched.queue_stats("q").unwrap();
        let ss = singles.queue_stats("q").unwrap();
        prop_assert_eq!(bs.depth, ss.depth);
        prop_assert_eq!(bs.unacked, ss.unacked);
        prop_assert_eq!(bs.published, ss.published);
        prop_assert_eq!(bs.delivered, ss.delivered);
        prop_assert_eq!(bs.acked, ss.acked);
        prop_assert_eq!(bs.redelivered, ss.redelivered);
    }

    /// Installing and then removing an interceptor leaves no residue: the
    /// broker behaves like one that never had a hook.
    #[test]
    fn removed_interceptor_leaves_no_residue(
        ops in proptest::collection::vec(arb_op(), 1..80)
    ) {
        let scrubbed = MessageBroker::new();
        scrubbed.set_interceptor(Some(Arc::new(FaultPlan::identity())));
        scrubbed.set_interceptor(None);
        let bare = MessageBroker::new();
        for broker in [&scrubbed, &bare] {
            broker.declare_queue("q", QueueOptions::default()).unwrap();
        }
        let scrubbed_consumer = scrubbed.subscribe("q").unwrap();
        let bare_consumer = bare.subscribe("q").unwrap();
        for op in &ops {
            let s = observe(&scrubbed, &scrubbed_consumer, op);
            let b = observe(&bare, &bare_consumer, op);
            prop_assert_eq!(s, b);
        }
    }
}

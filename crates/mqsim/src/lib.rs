//! # mqsim — an in-process AMQP-style message broker
//!
//! This crate is the messaging substrate of the StackSync reproduction. It
//! stands in for RabbitMQ 2.8.7 in the original paper and implements the
//! subset of AMQP 0-9-1 semantics that ObjectMQ relies on:
//!
//! * **Named in-memory queues** with FIFO delivery and requeue-at-front on
//!   redelivery. A queue does not outlive the broker process: broker
//!   availability is the broker product's concern (paper §3.4).
//! * **Exchanges**: the *default* (direct-to-queue) exchange, and *fanout*
//!   exchanges that broadcast to every bound queue in queue-name order
//!   (used for ObjectMQ `@MultiMethod` invocations). There are no routing
//!   keys: ObjectMQ routes by queue name or by fanout, nothing else.
//! * **Competing consumers**: many consumers may subscribe to one queue and
//!   each message is delivered to exactly one of them — the first idle one —
//!   which is the transparent load balancing the paper builds elasticity on.
//! * **Acknowledgements**: a message stays owned by the broker until the
//!   consumer acks it. Dropping (or crashing) a consumer requeues all its
//!   unacked deliveries, so no invocation is ever lost (paper §3.4).
//! * **Introspection**: per-queue depth, cumulative counters, and a windowed
//!   arrival-rate estimator — the fine-grained metrics the provisioners use.
//!
//! The broker is deliberately in-process: ObjectMQ's behaviour (and the
//! paper's evaluation) depends on queue *semantics*, not on TCP framing.
//!
//! ## Example
//!
//! ```
//! use mqsim::{MessageBroker, Message, QueueOptions};
//! use std::time::Duration;
//!
//! let broker = MessageBroker::new();
//! broker.declare_queue("work", QueueOptions::default()).unwrap();
//! let consumer = broker.subscribe("work").unwrap();
//! broker.publish_to_queue("work", Message::from_static(b"job-1")).unwrap();
//!
//! let delivery = consumer.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(delivery.message.payload(), b"job-1");
//! delivery.ack();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod broker;
mod clock;
mod consumer;
mod error;
mod exchange;
mod interceptor;
mod message;
mod queue;
mod stats;
mod waker;

pub use api::{AnyDelivery, MessageConsumer, Messaging};
pub use broker::{MessageBroker, QueueOptions};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use consumer::{Consumer, Delivery};
pub use error::{MqError, MqResult};
pub use interceptor::{DeliverFault, DeliveryInterceptor, PublishFault};
pub use message::{DeliveryTag, Message, MessageProperties};
pub use stats::{QueueStats, RateEstimator};
pub use waker::ReadyWaker;

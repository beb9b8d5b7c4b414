//! # net — TCP transport for the messaging layer
//!
//! The paper's architecture assumes the message broker is a real network
//! service (RabbitMQ) that clients, sync servers and provisioned workers
//! reach over TCP. This crate supplies that missing distribution boundary
//! for the reproduction:
//!
//! * [`frame`] — a length-prefixed binary frame protocol over
//!   [`wire::BinaryCodec`], with correlation ids for request/reply and
//!   server-push `deliver` frames.
//! * [`BrokerServer`] — exposes an in-process [`mqsim::MessageBroker`] on a
//!   [`std::net::TcpListener`], with per-subscription credit-based
//!   backpressure and requeue-on-disconnect.
//! * [`NetBroker`] — a client implementing [`mqsim::Messaging`], so
//!   `objectmq::Broker`, proxies, the Supervisor and the SyncService run
//!   unchanged across OS processes. Includes heartbeats, reconnect with
//!   capped exponential backoff + jitter, and resubscribe-on-reconnect.
//!
//! ```no_run
//! use std::sync::Arc;
//!
//! let server = net::BrokerServer::bind("127.0.0.1:0", mqsim::MessageBroker::new()).unwrap();
//! let client = net::NetBroker::connect(server.local_addr()).unwrap();
//! let broker = objectmq::Broker::over(Arc::new(client), objectmq::BrokerConfig::default());
//! // broker.bind(...) / broker.lookup(...) exactly as in-process.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;

mod client;
mod proxy;
mod reactor;
mod server;
mod tx;

pub use client::{client_reactor_registrations, NetBroker, NetConfig};
pub use frame::{
    encode_frame_into, read_frame, stats_from_value, stats_to_value, write_frame, FrameBuffer,
    FrameError, Request, ServerFrame, MAX_FRAME,
};
pub use proxy::FaultProxy;
pub use server::BrokerServer;

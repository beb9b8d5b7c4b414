//! # ObjectMQ — programmatic elasticity for distributed objects
//!
//! This crate is the Rust reproduction of the paper's primary contribution:
//! a lightweight framework that gives distributed objects *programmatic
//! elasticity* by using message queues as the communication middleware
//! (Garcia Lopez et al., *StackSync: Bringing Elasticity to Dropbox-like
//! File Synchronization*, Middleware 2014, §3).
//!
//! The building blocks mirror the paper:
//!
//! * [`Broker::bind`] binds a [`RemoteObject`] instance to a typed name
//!   ([`Oid`], convertible from `&str`/`String`, const-constructible via
//!   [`Oid::from_static`]).
//!   Internally a queue named `oid` is created; binding several instances to
//!   the same `oid` makes them *competing consumers* and the MOM layer
//!   load-balances calls between them — this is what lets the service scale
//!   out without touching client stubs.
//! * [`Broker::lookup`] returns a dynamic client stub ([`Proxy`]) — no stub
//!   compilation or preprocessing.
//! * Invocation primitives: [`Proxy::call_async`] (`@AsyncMethod`),
//!   [`Proxy::call_sync`] (`@SyncMethod` with timeout and retries), and
//!   [`Proxy::call_multi_async`] / [`Proxy::call_multi_sync`]
//!   (`@MultiMethod`) which fan out through a per-`oid` fanout exchange to
//!   every bound instance's private queue.
//! * Fault tolerance (§3.4): a request is acknowledged only after the server
//!   object finished processing it, so a crash mid-call redelivers the
//!   invocation to another instance; the [`Supervisor`] respawns missing
//!   instances every second through [`RemoteBroker`]s. Supervisor failover
//!   is two library steps that the host runs, as the
//!   `failover_elects_new_supervisor_which_keeps_enforcing` test does:
//!   [`supervisor::HeartbeatMonitor`] reports that the heartbeats went
//!   stale, and [`supervisor::run_election`] picks the broker whose host
//!   starts the replacement. Nothing runs them on its own.
//! * Programmatic elasticity (§3.3, §4.3): the [`provision`] module has the
//!   `Provisioner` hook plus the paper's predictive and reactive policies
//!   built on a G/G/1 capacity model.
//!
//! ## Example
//!
//! ```
//! use objectmq::{Broker, RemoteObject, CallError};
//! use wire::Value;
//! use std::time::Duration;
//!
//! struct Hello;
//! impl RemoteObject for Hello {
//!     fn dispatch(&self, method: &str, args: &[Value]) -> Result<Value, String> {
//!         match method {
//!             "hello" => Ok(Value::from(format!("hello {}", args[0].as_str().unwrap()))),
//!             _ => Err(format!("no such method {method}")),
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let broker = Broker::in_process();
//! let _server = broker.bind("hello", Hello)?;
//! let proxy = broker.lookup("hello")?;
//! let reply = proxy.call_sync("hello", vec![Value::from("world")], Duration::from_secs(1), 3)?;
//! assert_eq!(reply.as_str().unwrap(), "hello world");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
pub mod controller;
mod error;
#[macro_use]
mod macros;
mod info;
mod oid;
pub mod provision;
mod proxy;
mod rpc;
mod server;
pub mod supervisor;

pub use broker::{Broker, BrokerConfig};
pub use controller::ElasticController;
pub use error::{CallError, CallResult, OmqError, OmqResult};
pub use info::{ObjectInfo, PoolInfo, ServiceStats};
pub use oid::Oid;
pub use proxy::Proxy;
pub use rpc::{Request, Response};
pub use server::{RemoteObject, ServerHandle};
pub use supervisor::{PoolObservation, RemoteBroker, Supervisor, SupervisorConfig};

// Re-exported for the `remote_interface!` macro expansion.
pub use wire;

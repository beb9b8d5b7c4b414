//! # elastic — the elastic SyncService pool, simulated and live
//!
//! The paper's auto-scaling experiments (§5.3, Fig. 8) replay a full *day*
//! of Ubuntu One commit arrivals against a dynamically-provisioned pool of
//! SyncService instances. This crate replays that day two ways, with one
//! policy: against a G/G/1 pool model under a virtual clock (the paper
//! models each server as a G/G/1 queue), and against real `SyncService`
//! instances over TCP with the day compressed into wall seconds. The
//! simulated day is the live replay at compression 1.0.
//!
//! * [`sim`] — an event-driven simulation of a single FIFO request queue
//!   feeding a pool of servers whose size the provisioning policies adjust
//!   at runtime; supports instance crash/recovery injection.
//! * [`experiment`] — the replay window and the trained auto-scaler both
//!   days share, and drivers reproducing each panel of Fig. 8: combined
//!   predictive+reactive provisioning (8a/8b), misprediction corrected by
//!   the reactive policy (8c–8e), and fault tolerance under a crash loop
//!   (8f).
//! * [`live`] — the *real-time* day: the same window and the same
//!   auto-scaler replayed over TCP against live `SyncService` instances
//!   (see [`live::run_live`]).
//! * [`stats`] — percentile and boxplot summaries used by the bench
//!   binaries.
//!
//! The provisioning policies themselves live in `objectmq::provision` and
//! are *shared* with the live middleware — the simulator exercises the
//! same code the Supervisor runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod live;
pub mod sim;
pub mod stats;

pub use experiment::{run_day8, run_fault_tolerance, Day8Config, MinutePoint, SimSummary};
pub use live::{run_live, LiveConfig, LiveReport, SlotReport};
pub use sim::{PoolSim, PoolSimConfig, ServiceTimeDist};
pub use stats::{percentile, BoxplotStats};

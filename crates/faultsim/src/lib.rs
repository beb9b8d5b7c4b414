//! # faultsim — seeded fault injection and schedule exploration
//!
//! Dropbox-style sync must survive exactly the failures that are hardest
//! to test: crashed SyncService instances holding unacked requests, lossy
//! and reordering message delivery, severed TCP links mid-frame. The
//! repo's original chaos tests provoked these with real threads, real
//! sleeps and real sockets — honest, but slow and unreproducible: a
//! failure seen once in CI was gone forever.
//!
//! This crate makes those failures *deterministic*. Three pieces:
//!
//! * **[`FaultPlan`]** — a seeded [`mqsim::DeliveryInterceptor`] injecting
//!   message drop / duplicate / reorder / defer at the broker choke point,
//!   with every decision drawn from a [`SimRng`] stream. The byte-level
//!   twin for real sockets is `net::FaultProxy`, which severs, stalls
//!   and corrupts TCP mid-frame.
//! * **[`sim`]** — a single-threaded discrete-event scheduler driving the
//!   *real* stack (broker, SyncService dispatch, metadata store) through a
//!   crash-loop workload: no threads, no clocks, same seed ⇒ same run.
//!   Threaded tests that must keep their threads use
//!   [`mqsim::VirtualClock`] instead for stepped time.
//! * **[`History`]** — the recorded client-visible events plus the checker
//!   for the safety invariants: no accepted commit is lost
//!   (at-least-once through crashes), versions linearize into `1..=n`
//!   with no double-commit, notifications tell the truth.
//!
//! The explorer sweeps seed ranges ([`explore`]) and hands back a
//! replayable artifact ([`SimFailure`]) for the first seed that breaks an
//! invariant:
//!
//! ```
//! let report = faultsim::run_seed(1).expect("seed 1 holds every invariant");
//! assert!(report.crashes > 0 || report.faults_injected > 0);
//! // Same seed, same schedule, same history — always:
//! assert_eq!(report.fingerprint(), faultsim::run_seed(1).unwrap().fingerprint());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explorer;
mod history;
pub mod kill;
mod plan;
mod rng;
pub mod sim;

pub use explorer::{explore, run_seed, run_seed_with, ExploreOutcome, SimFailure};
pub use history::{Event, History, SubmitFate};
pub use kill::{explore_kills, run_kill_restart, KillConfig, KillReport};
pub use plan::{FaultPlan, FaultRates};
pub use rng::SimRng;
pub use sim::{SimConfig, SimReport, StoreSelection};

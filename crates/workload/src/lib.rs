//! # workload — trace generators for the StackSync evaluation
//!
//! Reproduces the benchmarking tool of paper §5.2.1 and the Ubuntu One
//! workload of §5.3.1:
//!
//! * [`markov`] — the four-state (N/M/U/D) file-lifecycle Markov model of
//!   Tarasov et al. with transition probabilities in the spirit of the
//!   "Homes" dataset, calibrated so the default configuration reproduces
//!   the paper's trace statistics (≈940 ADDs, ≈72 UPDATEs, ≈228 REMOVEs,
//!   ≈535 MB of added data, ≈583 KB average file size).
//! * [`sizes`] — the file-size distribution of Liu et al. (90% of files
//!   smaller than 4 MB), modeled as a capped lognormal.
//! * [`changes`] — the B/E/M modification patterns with the paper's
//!   "Homes" probabilities (B 38%, E 8%, M 3%, remainder to BE/BM/EM).
//! * [`generator`] — the three-parameter trace generator (initial files,
//!   training iterations, snapshots) emitting ADD/UPDATE/REMOVE operations
//!   with realistic content.
//! * [`ub1`] — a synthesizer of the (unavailable) anonymized Ubuntu One
//!   arrival trace: strong diurnal seasonality, weekly structure,
//!   multiplicative noise and flash-crowd bursts, scaled to the paper's
//!   peak of 8,514 commit requests per minute.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod changes;
pub mod content_gen;
pub mod dedup;
pub mod generator;
pub mod markov;
pub mod sizes;
pub mod trace_io;
pub mod ub1;

pub use changes::ChangePattern;
pub use dedup::{DedupReport, ReplayConfig};
pub use generator::{GeneratorConfig, Trace, TraceOp, TraceStats};
pub use markov::{FileState, MarkovModel};
pub use sizes::FileSizeDist;
pub use ub1::{poisson_arrivals, ArrivalSchedule, ArrivalSlot, Ub1Config, Ub1Trace};

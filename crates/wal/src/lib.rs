//! Segmented write-ahead log whose waiters flush.
//!
//! This is the durability primitive behind the metadata plane's commit path
//! and mqsim's durable queues. One [`Log`] owns a directory of segment files
//! (`wal-<seq>.log`); every record is framed as
//!
//! ```text
//! [len: u32 LE][seq: u64 LE][crc: u64 LE][payload; len bytes]
//! ```
//!
//! where `crc` is FNV-1a over the little-endian `seq` bytes followed by the
//! payload — the same hash family the repo already uses for shard routing and
//! history fingerprints. The framing itself is public ([`frame_into`],
//! [`next_frame`]), so that any other file of records (the metadata
//! snapshot) carries these frames and this checksum, not a second kind.
//!
//! Appends are buffered under the log lock. The thread that needs a record
//! durable makes it so: [`Ticket::wait`] takes the lock and, if no earlier
//! flush covered its record, `write`s and `fdatasync`s everything pending.
//! The lock is the group-commit window — appenders and waiters that arrive
//! during an fsync queue on it, and the first of them to get in flushes for
//! all of them. A log owns no thread and no timer, so what is pending at any
//! moment is a function of the calls made, which is what the fault simulator
//! replays; production and simulation run the same path.
//!
//! Recovery ([`Log::open`]) replays segments in order and tolerates a torn
//! tail: the scan stops at the first record whose length prefix or checksum
//! does not verify, truncates the file back to the last valid frame, and
//! resumes appending after it. Because `fsync` covers a prefix of the log,
//! a crash can only lose a *suffix* of un-acknowledged records — anything a
//! caller observed as durable (its [`Ticket::wait`] returned `Ok`) survives.
//!
//! Snapshot-based truncation is two calls: capture [`Log::mark`] while the
//! caller's own state lock is held, persist the snapshot, then
//! [`Log::truncate_through`] drops sealed segments wholly below the mark.
//!
//! Crash injection for the fault simulator: [`Log::simulate_crash`] models
//! process death by flushing an arbitrary *prefix* of the pending buffer to
//! disk (a torn partial write), discarding the rest, and failing every
//! subsequent operation — exactly the state a `SIGKILL` between `write` and
//! `fsync` leaves behind.

#![warn(missing_docs)]

mod log;
mod record;

pub use crate::log::{Log, Recovery, Ticket};
pub use crate::record::{frame_into, next_frame, Frame, MAX_RECORD_LEN};

use std::fmt;

/// Whether appended records are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Appends buffer; [`Ticket::wait`] (or [`Log::flush`], or an `append`
    /// that finds 256 KiB already buffered) writes and fsyncs everything
    /// pending, and returns `Ok` only for a record an fsync covers. The
    /// default.
    Durable,
    /// Every append writes inline and nothing ever calls `fsync` —
    /// durability is whatever the OS page cache provides. For tests and
    /// throughput ceilings only.
    Never,
}

/// What a [`Log`] is called, whether it syncs, and how big a segment grows.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Short name used in flight-recorder events and error messages.
    pub name: String,
    /// Durability policy (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Active-segment size at which the segment is sealed and a new one
    /// started. Sealed segments are the unit of truncation.
    pub segment_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            name: "wal".to_string(),
            sync: SyncPolicy::Durable,
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

impl LogConfig {
    /// Config with the given flight-recorder name and defaults otherwise.
    pub fn named(name: impl Into<String>) -> Self {
        LogConfig {
            name: name.into(),
            ..LogConfig::default()
        }
    }
}

/// Errors surfaced by log operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WalError {
    /// An I/O error occurred; the log refuses further appends (fail-stop).
    Io(String),
    /// [`Log::simulate_crash`] was invoked — the process is "dead".
    Crashed,
    /// The log was closed while the operation was in flight.
    Closed,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Crashed => write!(f, "wal crashed (simulated process death)"),
            WalError::Closed => write!(f, "wal closed"),
        }
    }
}

impl std::error::Error for WalError {}

/// Result alias for log operations.
pub type WalResult<T> = Result<T, WalError>;

//! # storage — the Storage back-end (OpenStack Swift stand-in)
//!
//! StackSync decouples data flows from metadata flows: clients upload and
//! download chunks *directly* against an object store (the paper deploys
//! OpenStack Swift), while only commit metadata crosses the sync service.
//! This crate reproduces the storage side:
//!
//! * accounts, token authentication, containers, and objects keyed by name
//!   (StackSync stores chunks under their fingerprint hex);
//! * a configurable [`LatencyModel`] (round-trip latency + asymmetric
//!   bandwidth) so experiments reproduce transfer-time effects — this is
//!   the substitution for the paper's physical storage nodes;
//! * [`TrafficStats`] byte/op accounting, which the Fig. 7 overhead
//!   benchmarks read;
//! * chunk-refcount deduplication ([`dedup`]): per-container reference
//!   counts let overwrites and deletes reclaim space safely — see
//!   [`SwiftStore::offer_chunks`] (and its all-payloads form
//!   [`SwiftStore::put_chunks`]), [`SwiftStore::release_file`] and
//!   [`SwiftStore::gc_chunks`].
//!
//! ## Example
//!
//! ```
//! use storage::{SwiftStore, LatencyModel};
//!
//! let store = SwiftStore::new(LatencyModel::instant());
//! let token = store.register_account("alice", "secret");
//! store.create_container(&token, "chunks").unwrap();
//! store.put(&token, "chunks", "abc123", vec![1, 2, 3].into()).unwrap();
//! let data = store.get(&token, "chunks", "abc123").unwrap();
//! assert_eq!(&data[..], &[1, 2, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod dedup;
mod latency;
mod store;
mod traffic;

pub use backend::{DiskBackend, MemoryBackend, ObjectBackend};
pub use dedup::{
    ChunkMeta, ChunkOffer, DedupChunk, DedupStats, GcReport, OfferOutcome, PutChunksReceipt,
    RefcountTracker,
};
pub use latency::LatencyModel;
pub use store::{StorageError, StorageResult, SwiftStore, Token};
pub use traffic::TrafficStats;

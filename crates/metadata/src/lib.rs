//! # metadata — the Metadata back-end (PostgreSQL stand-in)
//!
//! StackSync keeps all file-sync metadata — workspaces, item versions,
//! chunk lists — in an ACID store, deliberately choosing a relational
//! database over an eventually-consistent KV store "to benefit from the
//! ACID semantics, and this way simplify the maintenance of consistency"
//! (paper §4). The SyncService talks to it through an extensible DAO so the
//! back-end can be replaced.
//!
//! This crate reproduces that tier as one serializable store:
//!
//! * [`MetadataStore`] is the DAO trait (the paper's extension hook);
//! * [`ShardedStore`] is its one implementation: N per-workspace
//!   partitions routed by `hash(workspace_id)`, each behind its own
//!   serialization lock. Within a partition every commit is atomic and
//!   totally ordered — the property Algorithm 1 relies on to declare
//!   winners — and commits to workspaces on different partitions proceed
//!   in parallel (Algorithm 1 never crosses workspaces).
//!   [`ShardedStore::with_shards`]`(1)` is the single-database
//!   serialization point; [`ShardedStore::new`] is the in-memory store
//!   sized to the machine; [`ShardedStore::open_durable`] puts a
//!   write-ahead log and a binary snapshot under it;
//! * [`ItemMetadata`]/[`CommitOutcome`] model versioned items and the
//!   commit results piggybacked in `CommitNotification`s.
//!
//! ## Example
//!
//! ```
//! use metadata::{ShardedStore, MetadataStore, ItemMetadata, CommitResult};
//!
//! let store = ShardedStore::new();
//! store.create_user("alice").unwrap();
//! let ws = store.create_workspace("alice", "Documents").unwrap();
//! let item = ItemMetadata::new_file(1, &ws, "report.txt", vec![], 0, "device-1");
//! let outcomes = store.commit(&ws, vec![item]).unwrap();
//! assert!(matches!(outcomes[0].result, CommitResult::Committed { version: 1 }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durable;
mod error;
mod model;
mod record;
mod shard;
mod snapshot;
mod store;

pub use durable::DurableRecovery;
pub use error::{MetadataError, MetadataResult};
pub use model::{CommitOutcome, CommitResult, ItemMetadata, Workspace, WorkspaceId};
pub use record::{item_from_reader, items_from_reader, write_item};
pub use shard::ShardedStore;
pub use snapshot::{item_from_value, item_into_value};
pub use store::MetadataStore;

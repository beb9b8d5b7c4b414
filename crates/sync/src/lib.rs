//! # stacksync — elastic Dropbox-like file synchronization
//!
//! The application tier of the reproduction of *StackSync: Bringing
//! Elasticity to Dropbox-like File Synchronization* (Middleware 2014).
//! StackSync decouples **metadata flows** (through ObjectMQ + the
//! SyncService + the ACID metadata store) from **data flows** (clients talk
//! directly to the chunk store), and makes the SyncService elastic by
//! putting a message queue in front of a dynamically-sized pool of
//! stateless instances.
//!
//! The pieces, mapping to the paper's Fig. 4/5:
//!
//! * [`SyncService`] — the stateless server object (paper §4.2.1) exposing
//!   `get_workspaces` / `get_changes` (sync RPCs) and `commit_request`
//!   (async RPC, Algorithm 1), pushing `CommitNotification`s to all devices
//!   of a workspace with a one-to-many call.
//! * [`DesktopClient`] — the client (paper §4.1): virtual workspace folder,
//!   watcher/indexer pipeline, 512 KB chunking, SHA-1 fingerprints,
//!   per-user dedup, compression before upload, conflict copies on losing
//!   commits.
//! * [`protocol`] — the wire schema of metadata and notifications.
//!
//! ## Example: two devices in sync
//!
//! ```
//! use objectmq::Broker;
//! use storage::{SwiftStore, LatencyModel};
//! use metadata::{ShardedStore, MetadataStore};
//! use stacksync::{SyncService, DesktopClient, ClientConfig};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let broker = Broker::in_process();
//! let store = SwiftStore::new(LatencyModel::instant());
//! let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
//! let service = SyncService::builder(&broker).store(meta.clone()).build();
//! let _server = service.bind(&broker)?;
//!
//! let ws = stacksync::provision_user(meta.as_ref(), "alice", "Documents")?;
//! let a = DesktopClient::connect(&broker, &store, ClientConfig::new("alice", "laptop"), &ws)?;
//! let b = DesktopClient::connect(&broker, &store, ClientConfig::new("alice", "phone"), &ws)?;
//!
//! a.write_file("notes.txt", b"hello from the laptop".to_vec())?;
//! assert!(b.wait_for_content("notes.txt", b"hello from the laptop", Duration::from_secs(5)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conflict;
mod error;
pub mod protocol;
mod service;

pub use client::{ChunkingStrategy, ClientConfig, ClientStats, DesktopClient};
pub use conflict::conflict_copy_path;
pub use error::{SyncError, SyncResult};
pub use protocol::{CommitNotification, NotifiedChange};
pub use service::{SyncService, SyncServiceBuilder, SyncServiceConfig, SYNC_SERVICE_OID};

use metadata::{MetadataStore, WorkspaceId};
use objectmq::Oid;

/// Convenience: creates a user with one workspace in the metadata tier.
///
/// # Errors
///
/// Propagates metadata errors (e.g. duplicate user).
pub fn provision_user(
    meta: &dyn MetadataStore,
    user: &str,
    workspace_name: &str,
) -> SyncResult<WorkspaceId> {
    meta.create_user(user)?;
    Ok(meta.create_workspace(user, workspace_name)?)
}

/// The fanout notification oid of a workspace: every device of the
/// workspace binds a listener object here and the SyncService multi-calls
/// `notify_commit` on it (paper Fig. 5: "a multi fanout for each
/// workspace").
pub fn workspace_notification_oid(workspace: &WorkspaceId) -> Oid {
    Oid::from(format!("ws.notify.{workspace}"))
}

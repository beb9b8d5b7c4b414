//! # baselines — protocol-traffic models of Personal Cloud services
//!
//! The paper benchmarks StackSync against the real desktop clients of
//! Dropbox, Microsoft OneDrive, Amazon Cloud Drive, Google Drive and Box
//! (Table 1) by replaying a generated trace and measuring control and
//! storage traffic (Fig. 7(b)–(d), Table 2). Those clients are proprietary
//! and unavailable here, so this crate models each protocol's *mechanism*
//! — what it re-sends, what it deduplicates, how chatty its control plane
//! is — with constants calibrated to the magnitudes the paper and Drago et
//! al. (IMC'13) report:
//!
//! * **Dropbox** ([`DropboxModel`]): 4 MB blocks, content-hash dedup,
//!   librsync *delta encoding* for updates, very chatty control plane
//!   (~28 KB per commit exchange) that amortizes under *bundling*
//!   (Table 2).
//! * **OneDrive / Google Drive / Box / Cloud Drive**
//!   ([`FullFileModel`]): full-file re-upload on every change, no dedup,
//!   moderate control chatter.
//!
//! StackSync itself is not modelled: the `bench` crate replays the trace
//! through the real stack behind the same [`SyncProvider`] trait.
//!
//! [`run_trace`] replays a `workload` trace against any provider and
//! returns per-action traffic totals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dropbox;
mod fullfile;
mod harness;

pub use dropbox::DropboxModel;
pub use fullfile::FullFileModel;
pub use harness::{run_trace, FileSet, OpKindTraffic, ProviderReport};

/// Traffic charged for one operation, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTraffic {
    /// Control-plane bytes (metadata, notifications, protocol chatter).
    pub control: u64,
    /// Storage-plane bytes (chunk/file payloads to the storage back-end).
    pub storage: u64,
}

impl OpTraffic {
    /// Component-wise sum.
    pub fn add(&mut self, other: OpTraffic) {
        self.control += other.control;
        self.storage += other.storage;
    }

    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.control + self.storage
    }
}

/// A sync service charged per operation on actual file contents.
pub trait SyncProvider {
    /// Service name as it appears in the paper's figures.
    fn name(&self) -> &'static str;

    /// Traffic for creating `path` with `content`.
    fn on_add(&mut self, path: &str, content: &[u8]) -> OpTraffic;

    /// Traffic for changing `path` from `old` to `new`.
    fn on_update(&mut self, path: &str, old: &[u8], new: &[u8]) -> OpTraffic;

    /// Traffic for removing `path`.
    fn on_remove(&mut self, path: &str) -> OpTraffic;

    /// Fixed control cost charged once per commit exchange (batch). This
    /// is what *file bundling* amortizes in Table 2.
    fn batch_fixed_control(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_traffic_arithmetic() {
        let mut t = OpTraffic {
            control: 10,
            storage: 100,
        };
        t.add(OpTraffic {
            control: 5,
            storage: 50,
        });
        assert_eq!(t.control, 15);
        assert_eq!(t.storage, 150);
        assert_eq!(t.total(), 165);
    }
}

//! Full-file-upload providers: OneDrive, Google Drive, Box, Amazon Cloud
//! Drive. Per Drago et al. (IMC'13), these clients ship the whole file on
//! every change — no chunk dedup, no deltas — with per-service differences
//! in control chatter and framing overhead.

use crate::{OpTraffic, SyncProvider};

/// A provider that re-uploads whole files on every ADD/UPDATE.
#[derive(Debug, Clone)]
pub struct FullFileModel {
    name: &'static str,
    /// Multiplicative framing overhead on storage transfers.
    storage_overhead: f64,
    /// Control bytes per operation.
    per_op_control: u64,
    /// Fixed control bytes per commit exchange.
    batch_fixed: u64,
}

impl FullFileModel {
    /// Microsoft OneDrive (SkyDrive at measurement time).
    pub fn onedrive() -> Self {
        FullFileModel {
            name: "OneDrive",
            storage_overhead: 1.10,
            per_op_control: 2_500,
            batch_fixed: 6_000,
        }
    }

    /// Google Drive.
    pub fn google_drive() -> Self {
        FullFileModel {
            name: "Google Drive",
            storage_overhead: 1.12,
            per_op_control: 3_000,
            batch_fixed: 8_000,
        }
    }

    /// Box.
    pub fn box_com() -> Self {
        FullFileModel {
            name: "Box",
            storage_overhead: 1.09,
            per_op_control: 2_200,
            batch_fixed: 5_000,
        }
    }

    /// Amazon Cloud Drive.
    pub fn cloud_drive() -> Self {
        FullFileModel {
            name: "Cloud Drive",
            storage_overhead: 1.11,
            per_op_control: 2_800,
            batch_fixed: 7_000,
        }
    }
}

impl SyncProvider for FullFileModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_add(&mut self, _path: &str, content: &[u8]) -> OpTraffic {
        OpTraffic {
            control: self.per_op_control,
            storage: (content.len() as f64 * self.storage_overhead) as u64,
        }
    }

    fn on_update(&mut self, _path: &str, _old: &[u8], new: &[u8]) -> OpTraffic {
        // Whole file again: the defining inefficiency of these clients.
        OpTraffic {
            control: self.per_op_control,
            storage: (new.len() as f64 * self.storage_overhead) as u64,
        }
    }

    fn on_remove(&mut self, _path: &str) -> OpTraffic {
        OpTraffic {
            control: self.per_op_control,
            storage: 0,
        }
    }

    fn batch_fixed_control(&self) -> u64 {
        self.batch_fixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_providers_have_distinct_names() {
        let names: Vec<&str> = [
            FullFileModel::onedrive(),
            FullFileModel::google_drive(),
            FullFileModel::box_com(),
            FullFileModel::cloud_drive(),
        ]
        .iter()
        .map(|m| m.name)
        .collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), 4);
        assert_eq!(dedup.len(), 4);
    }

    #[test]
    fn update_reuploads_everything() {
        let mut m = FullFileModel::onedrive();
        let old = vec![0u8; 100_000];
        let mut new = old.clone();
        new[0] ^= 1;
        m.on_add("f", &old);
        let t = m.on_update("f", &old, &new);
        assert!(
            t.storage >= 100_000,
            "full-file providers re-send the file on a 1-byte edit"
        );
    }

    #[test]
    fn duplicate_adds_are_not_deduped() {
        let mut m = FullFileModel::box_com();
        let content = vec![7u8; 10_000];
        let a = m.on_add("a", &content);
        let b = m.on_add("b", &content);
        assert_eq!(a.storage, b.storage);
        assert!(b.storage > 0);
    }
}

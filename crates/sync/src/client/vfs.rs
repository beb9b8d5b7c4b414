//! The virtual workspace folder.
//!
//! The paper's client watches a real OS folder; this reproduction keeps the
//! workspace in memory so experiments are deterministic and fast. The
//! watcher role collapses into explicit mutation calls — every change to
//! the virtual folder is observed immediately, like an inotify event.
//!
//! Contents are [`Bytes`]: a reader takes a handle to a version, not a
//! copy of it, and keeps it after the path is rewritten — which is how
//! the indexer and the folder share one buffer, and how the previous
//! version of a file stays readable while the next one is assembled.
//!
//! Every write is stamped with a counter of the folder's own. A stamp
//! names one immutable buffer, so whoever recorded what a version's
//! chunks are (the local database) can tell, by comparing stamps, whether
//! the folder still holds that very version, without reading it.

use bytes::Bytes;
use std::collections::BTreeMap;

/// One version of a file: its bytes and the stamp of the write that put
/// them in the folder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped {
    /// The file's contents.
    pub bytes: Bytes,
    /// Which write of this folder made them: a counter starting at 1,
    /// never handed out twice. [`Bytes`] are immutable, so two reads with
    /// the same stamp saw the same bytes.
    pub stamp: u64,
}

/// An in-memory folder: path → contents.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VirtualFs {
    files: BTreeMap<String, Stamped>,
    /// The stamp of the latest write.
    stamp: u64,
}

impl VirtualFs {
    /// Empty folder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes (creates or replaces) a file. Returns the stamp of this
    /// write and the version it replaced, if any.
    pub fn write(&mut self, path: &str, contents: Bytes) -> (u64, Option<Stamped>) {
        self.stamp += 1;
        let version = Stamped {
            bytes: contents,
            stamp: self.stamp,
        };
        (self.stamp, self.files.insert(path.to_string(), version))
    }

    /// Reads a file: a handle to its current contents, cheap to clone.
    pub fn read(&self, path: &str) -> Option<&Bytes> {
        self.files.get(path).map(|version| &version.bytes)
    }

    /// Reads a file together with the stamp of the write that made it.
    pub fn read_stamped(&self, path: &str) -> Option<&Stamped> {
        self.files.get(path)
    }

    /// Removes a file; returns its contents if it existed.
    pub fn remove(&mut self, path: &str) -> Option<Bytes> {
        self.files.remove(path).map(|version| version.bytes)
    }

    /// Whether the path exists.
    pub fn contains(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Sorted list of paths.
    pub fn paths(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the folder is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_remove() {
        let mut fs = VirtualFs::new();
        assert!(fs.is_empty());
        fs.write("a/b.txt", Bytes::from(vec![1, 2, 3]));
        assert_eq!(fs.read("a/b.txt").unwrap(), &[1u8, 2, 3]);
        assert!(fs.contains("a/b.txt"));
        assert_eq!(fs.len(), 1);
        assert_eq!(fs.remove("a/b.txt").unwrap(), &[1u8, 2, 3]);
        assert!(fs.is_empty());
    }

    #[test]
    fn overwrite_replaces() {
        let mut fs = VirtualFs::new();
        fs.write("x", Bytes::from(vec![1]));
        fs.write("x", Bytes::from(vec![2, 3]));
        assert_eq!(fs.read("x").unwrap(), &[2u8, 3]);
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn a_handle_outlives_the_version_it_read() {
        let mut fs = VirtualFs::new();
        fs.write("x", Bytes::from(vec![1, 2]));
        let old = fs.read("x").unwrap().clone();
        fs.write("x", Bytes::from(vec![3]));
        assert_eq!(old, &[1u8, 2]);
        assert_eq!(fs.read("x").unwrap(), &[3u8]);
    }

    #[test]
    fn every_write_gets_a_new_stamp_and_returns_the_version_it_replaced() {
        let mut fs = VirtualFs::new();
        let (first, replaced) = fs.write("x", Bytes::from(vec![1]));
        assert_eq!(replaced, None);
        let (second, replaced) = fs.write("x", Bytes::from(vec![1]));
        assert!(second > first, "the same bytes, another write");
        assert_eq!(replaced.map(|v| v.stamp), Some(first));
        let (other, _) = fs.write("y", Bytes::new());
        assert!(other > second);
        fs.remove("x");
        let (again, replaced) = fs.write("x", Bytes::from(vec![1]));
        assert!(
            again > other && replaced.is_none(),
            "a stamp is never reused"
        );
        assert_eq!(fs.read_stamped("x").map(|v| v.stamp), Some(again));
    }

    #[test]
    fn paths_sorted() {
        let mut fs = VirtualFs::new();
        fs.write("z", Bytes::new());
        fs.write("a", Bytes::new());
        assert_eq!(fs.paths(), vec!["a", "z"]);
    }
}

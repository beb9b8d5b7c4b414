//! The client's local database: path → versioned entry, plus the
//! fingerprint index the paper describes (§4.1: "The local database maps
//! the fingerprints to the corresponding files") — for every chunk of
//! every live entry, where in the local folder a copy of it sits.
//!
//! The index is a hint, not a promise: the folder can be rewritten
//! between the moment a location is recorded and the moment it is read.
//! So every entry also records the stamp of the folder version its chunk
//! ids were computed from or verified against ([`super::VirtualFs`]
//! stamps each write once). While the folder still holds the version with
//! that stamp, each span of it hashes to its id and is not hashed again;
//! bytes under any other stamp are fingerprinted again before anyone
//! trusts them.

use content::ChunkId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Local record of one synchronized file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Stable item identifier shared with the server.
    pub item_id: u64,
    /// Last version this device knows of.
    pub version: u64,
    /// Chunks of that version in file order: fingerprint and
    /// uncompressed length.
    pub chunks: Vec<(ChunkId, usize)>,
    /// File size in bytes.
    pub size: u64,
    /// Whether the entry is a deletion tombstone.
    pub deleted: bool,
    /// Stamp of the folder version `chunks` were computed from or checked
    /// against; `None` for a tombstone.
    pub stamp: Option<u64>,
}

/// Where a copy of a chunk sits in the local folder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkLocation {
    /// Path of the file holding it.
    pub path: String,
    /// Byte offset within that file.
    pub offset: usize,
    /// Chunk length in bytes.
    pub len: usize,
    /// Stamp of the folder version the chunk was recorded from: while the
    /// file at `path` carries it, the span holds the chunk.
    pub stamp: Option<u64>,
}

/// The local database of a desktop client.
#[derive(Debug, Default)]
pub struct LocalDb {
    /// Path → entry, hashed (only [`LocalDb::live_paths`] wants the paths
    /// in order, and sorts).
    files: HashMap<String, FileEntry>,
    /// Fingerprint → one place that held the chunk when its entry was
    /// recorded. A chunk in several files keeps the latest.
    locations: HashMap<ChunkId, ChunkLocation>,
}

impl LocalDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entry for a path, tombstones included.
    pub fn get(&self, path: &str) -> Option<&FileEntry> {
        self.files.get(path)
    }

    /// Inserts or replaces an entry. The replaced version's chunk
    /// locations are dropped and the new version's recorded.
    pub fn upsert(&mut self, path: &str, entry: FileEntry) {
        let slot = self.files.entry(path.to_string());
        if let Entry::Occupied(old) = &slot {
            drop_locations(&mut self.locations, path, old.get());
        }
        let mut offset = 0;
        for &(id, len) in &entry.chunks {
            let location = ChunkLocation {
                path: path.to_string(),
                offset,
                len,
                stamp: entry.stamp,
            };
            self.locations.insert(id, location);
            offset += len;
        }
        match slot {
            Entry::Occupied(mut old) => {
                old.insert(entry);
            }
            Entry::Vacant(new) => {
                new.insert(entry);
            }
        }
    }

    /// Makes room for `chunks` more locations at once, before a run of
    /// [`LocalDb::upsert`]s that records them.
    pub fn reserve(&mut self, chunks: usize) {
        self.locations.reserve(chunks);
    }

    /// Removes an entry entirely (not a tombstone — forget the path).
    pub fn forget(&mut self, path: &str) -> Option<FileEntry> {
        let old = self.files.remove(path)?;
        drop_locations(&mut self.locations, path, &old);
        Some(old)
    }

    /// Paths of live (non-tombstone) entries, sorted.
    pub fn live_paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = self
            .files
            .iter()
            .filter(|(_, e)| !e.deleted)
            .map(|(p, _)| p.clone())
            .collect();
        paths.sort_unstable();
        paths
    }

    /// Where the local folder held a copy of the chunk when it was last
    /// indexed. What the folder holds there now is the chunk if the file
    /// still carries the location's stamp; otherwise the caller must
    /// fingerprint it.
    pub fn locate(&self, id: &ChunkId) -> Option<&ChunkLocation> {
        self.locations.get(id)
    }
}

/// Forgets the places `old` (the entry `path` used to have) gave its
/// chunks, unless another file has claimed the chunk since.
fn drop_locations(locations: &mut HashMap<ChunkId, ChunkLocation>, path: &str, old: &FileEntry) {
    for (id, _) in &old.chunks {
        if locations.get(id).is_some_and(|l| l.path == path) {
            locations.remove(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(v: u64) -> FileEntry {
        FileEntry {
            item_id: 9,
            version: v,
            chunks: vec![],
            size: 0,
            deleted: false,
            stamp: None,
        }
    }

    #[test]
    fn upsert_and_get() {
        let mut db = LocalDb::new();
        db.upsert("a.txt", entry(1));
        assert_eq!(db.get("a.txt").unwrap().version, 1);
        db.upsert("a.txt", entry(2));
        assert_eq!(db.get("a.txt").unwrap().version, 2);
        assert_eq!(db.get("missing"), None);
    }

    #[test]
    fn live_paths_excludes_tombstones() {
        let mut db = LocalDb::new();
        db.upsert("alive.txt", entry(1));
        db.upsert(
            "dead.txt",
            FileEntry {
                deleted: true,
                ..entry(2)
            },
        );
        assert_eq!(db.live_paths(), vec!["alive.txt"]);
    }

    fn with_chunks(v: u64, chunks: &[(ChunkId, usize)]) -> FileEntry {
        FileEntry {
            chunks: chunks.to_vec(),
            size: chunks.iter().map(|(_, len)| *len as u64).sum(),
            stamp: Some(v),
            ..entry(v)
        }
    }

    fn at(path: &str, offset: usize, len: usize, stamp: u64) -> ChunkLocation {
        ChunkLocation {
            path: path.to_string(),
            offset,
            len,
            stamp: Some(stamp),
        }
    }

    #[test]
    fn locations_follow_the_entries() {
        let mut db = LocalDb::new();
        let (a, b, c) = (ChunkId::of(b"a"), ChunkId::of(b"b"), ChunkId::of(b"c"));
        assert_eq!(db.locate(&a), None);
        db.upsert("f", with_chunks(1, &[(a, 10), (b, 20)]));
        assert_eq!(db.locate(&a), Some(&at("f", 0, 10, 1)));
        assert_eq!(db.locate(&b), Some(&at("f", 10, 20, 1)));

        // The next version keeps `b` (at a new offset), drops `a`.
        db.upsert("f", with_chunks(2, &[(c, 5), (b, 20)]));
        assert_eq!(db.locate(&a), None);
        assert_eq!(db.locate(&c), Some(&at("f", 0, 5, 2)));
        assert_eq!(db.locate(&b), Some(&at("f", 5, 20, 2)));

        // A tombstone has no chunks; forgetting drops them too.
        db.upsert("g", with_chunks(1, &[(a, 10)]));
        db.upsert(
            "f",
            FileEntry {
                deleted: true,
                ..entry(3)
            },
        );
        assert_eq!(db.locate(&b), None);
        assert_eq!(db.locate(&c), None);
        assert!(db.forget("g").is_some());
        assert_eq!(db.locate(&a), None);
    }

    #[test]
    fn a_chunk_claimed_by_a_later_file_survives_the_earlier_one() {
        // A rename as the client sees it: the new path first, then the
        // tombstone of the old one.
        let mut db = LocalDb::new();
        let a = ChunkId::of(b"a");
        db.upsert("old", with_chunks(1, &[(a, 10)]));
        db.upsert("new", with_chunks(1, &[(a, 10)]));
        db.upsert(
            "old",
            FileEntry {
                deleted: true,
                ..entry(2)
            },
        );
        assert_eq!(db.locate(&a), Some(&at("new", 0, 10, 1)));
    }

    #[test]
    fn forget_removes() {
        let mut db = LocalDb::new();
        db.upsert("a", entry(1));
        assert!(db.forget("a").is_some());
        assert!(db.forget("a").is_none());
    }
}

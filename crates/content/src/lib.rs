//! # content — chunking, fingerprinting, compression and deltas
//!
//! The content-handling substrate of the StackSync reproduction (paper
//! §4.1). StackSync does not operate on whole files: every file is split
//! into chunks (512 KB by default), each chunk is identified by the 20-byte
//! SHA-1 of its content, chunks are deduplicated per user, and they are
//! compressed before transmission. The Dropbox baseline additionally uses
//! rsync-style *delta encoding* for updates.
//!
//! Everything is implemented from scratch (only the Rust standard library):
//!
//! * [`sha1`] — FIPS 180-1 SHA-1, verified against the standard vectors.
//! * [`ChunkId`] — the 20-byte fingerprint newtype.
//! * [`chunker`] — [`chunker::FixedChunker`] (the paper's default static
//!   512 KB chunking) and [`chunker::ContentDefinedChunker`] (the
//!   content-based alternative, immune to the boundary-shifting problem).
//! * [`compress`] — an LZSS compressor standing in for Gzip/Bzip2; the
//!   compression stage is pluggable exactly as in the paper.
//! * [`delta`] — the rsync block-matching algorithm (weak rolling hash +
//!   strong hash), used by the Dropbox protocol model.
//!
//! ## Example
//!
//! ```
//! use content::chunker::{Chunker, FixedChunker};
//! use content::ChunkId;
//!
//! let data = vec![7u8; 1_300_000];
//! let chunker = FixedChunker::new(512 * 1024);
//! let spans = chunker.chunk(&data);
//! assert_eq!(spans.len(), 3); // 512K + 512K + remainder
//! let ids: Vec<ChunkId> = spans.iter().map(|s| ChunkId::of(&data[s.range()])).collect();
//! assert_eq!(ids[0], ids[1]); // identical content deduplicates
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunker;
pub mod compress;
pub mod delta;
pub mod fasthash;
pub mod pipeline;
pub mod rolling;
pub mod sha1;

use std::fmt;

/// Default chunk size used by StackSync: 512 KB (paper §4.1).
pub const DEFAULT_CHUNK_SIZE: usize = 512 * 1024;

/// A 20-byte SHA-1 content fingerprint identifying a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId([u8; 20]);

impl ChunkId {
    /// Fingerprints a byte string.
    pub fn of(data: &[u8]) -> Self {
        ChunkId(sha1::sha1(data))
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Builds a fingerprint from raw digest bytes.
    pub fn from_bytes(bytes: [u8; 20]) -> Self {
        ChunkId(bytes)
    }

    /// Parses the 40-char lowercase hex form.
    ///
    /// # Errors
    ///
    /// Returns `None` when the string is not exactly 40 hex characters.
    pub fn parse_hex(s: &str) -> Option<Self> {
        if s.len() != 40 {
            return None;
        }
        let mut out = [0u8; 20];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hex = std::str::from_utf8(chunk).ok()?;
            out[i] = u8::from_str_radix(hex, 16).ok()?;
        }
        Some(ChunkId(out))
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<[u8; 20]> for ChunkId {
    fn from(bytes: [u8; 20]) -> Self {
        ChunkId(bytes)
    }
}

/// An incremental content hasher, object-safe so both fingerprint
/// algorithms sit behind one interface.
///
/// `finish` takes `&mut self` (rather than consuming) for object
/// safety; it resets the hasher to its initial state, so one boxed
/// hasher can fingerprint a stream of chunks without reallocation.
pub trait Hasher {
    /// Absorbs input bytes.
    fn update(&mut self, data: &[u8]);

    /// Produces the fingerprint of everything absorbed since creation
    /// (or the previous `finish`) and resets to the initial state.
    fn finish(&mut self) -> ChunkId;

    /// Algorithm name for diagnostics.
    fn algorithm(&self) -> Fingerprint;
}

impl Hasher for sha1::Sha1 {
    fn update(&mut self, data: &[u8]) {
        sha1::Sha1::update(self, data);
    }

    fn finish(&mut self) -> ChunkId {
        let digest = std::mem::take(self).finalize();
        ChunkId::from_bytes(digest)
    }

    fn algorithm(&self) -> Fingerprint {
        Fingerprint::Sha1
    }
}

impl Hasher for fasthash::FastHasher {
    fn update(&mut self, data: &[u8]) {
        fasthash::FastHasher::update(self, data);
    }

    fn finish(&mut self) -> ChunkId {
        let digest = std::mem::take(self).finalize();
        let mut id = [0u8; 20];
        id.copy_from_slice(&digest[..20]);
        ChunkId::from_bytes(id)
    }

    fn algorithm(&self) -> Fingerprint {
        Fingerprint::FastHash
    }
}

/// The fingerprint algorithm used to derive [`ChunkId`]s.
///
/// SHA-1 is the paper's choice (§4.1) and stays the default everywhere
/// for fidelity — existing faultsim fingerprint histories and on-disk
/// chunk names are SHA-1-addressed. [`Fingerprint::FastHash`] is the
/// tree hash from [`fasthash`]: same 20-byte `ChunkId` space, several
/// times faster per core, and parallelizable within one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fingerprint {
    /// FIPS 180-1 SHA-1 (the paper's algorithm; default).
    #[default]
    Sha1,
    /// The BLAKE3-shaped tree hash from [`fasthash`].
    FastHash,
}

impl Fingerprint {
    /// Fingerprints a byte string with this algorithm.
    pub fn of(&self, data: &[u8]) -> ChunkId {
        match self {
            Fingerprint::Sha1 => ChunkId(sha1::sha1(data)),
            Fingerprint::FastHash => fasthash::fingerprint(data),
        }
    }

    /// Fingerprints using up to `workers` threads (FastHash hashes
    /// large buffers as a tree across cores; SHA-1 is inherently
    /// serial and ignores the hint).
    pub fn of_parallel(&self, data: &[u8], workers: usize) -> ChunkId {
        match self {
            Fingerprint::Sha1 => ChunkId(sha1::sha1(data)),
            Fingerprint::FastHash => {
                let digest = fasthash::hash_parallel(data, workers);
                let mut id = [0u8; 20];
                id.copy_from_slice(&digest[..20]);
                ChunkId(id)
            }
        }
    }

    /// Creates a fresh streaming hasher for this algorithm.
    pub fn hasher(&self) -> Box<dyn Hasher + Send> {
        match self {
            Fingerprint::Sha1 => Box::new(sha1::Sha1::new()),
            Fingerprint::FastHash => Box::new(fasthash::FastHasher::new()),
        }
    }

    /// Algorithm name for reports and config parsing.
    pub fn name(&self) -> &'static str {
        match self {
            Fingerprint::Sha1 => "sha1",
            Fingerprint::FastHash => "fasthash",
        }
    }

    /// Parses a name produced by [`Fingerprint::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sha1" => Some(Fingerprint::Sha1),
            "fasthash" => Some(Fingerprint::FastHash),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_id_hex_roundtrip() {
        let id = ChunkId::of(b"hello");
        let hex = id.to_string();
        assert_eq!(hex.len(), 40);
        assert_eq!(ChunkId::parse_hex(&hex), Some(id));
    }

    #[test]
    fn parse_hex_rejects_bad_input() {
        assert_eq!(ChunkId::parse_hex("zz"), None);
        assert_eq!(ChunkId::parse_hex(&"g".repeat(40)), None);
        assert_eq!(ChunkId::parse_hex(&"a".repeat(39)), None);
    }

    #[test]
    fn identical_content_same_id() {
        assert_eq!(ChunkId::of(b"same"), ChunkId::of(b"same"));
        assert_ne!(ChunkId::of(b"same"), ChunkId::of(b"diff"));
    }

    #[test]
    fn default_chunk_size_is_512k() {
        assert_eq!(DEFAULT_CHUNK_SIZE, 524_288);
    }

    #[test]
    fn fingerprint_default_is_paper_sha1() {
        assert_eq!(Fingerprint::default(), Fingerprint::Sha1);
        assert_eq!(Fingerprint::Sha1.of(b"x"), ChunkId::of(b"x"));
    }

    #[test]
    fn fingerprint_algorithms_disagree() {
        // Same ChunkId space, different functions: ids must not collide
        // across algorithms for the same content.
        assert_ne!(
            Fingerprint::Sha1.of(b"data"),
            Fingerprint::FastHash.of(b"data")
        );
    }

    #[test]
    fn fingerprint_name_roundtrip() {
        for algo in [Fingerprint::Sha1, Fingerprint::FastHash] {
            assert_eq!(Fingerprint::parse(algo.name()), Some(algo));
        }
        assert_eq!(Fingerprint::parse("md5"), None);
    }

    #[test]
    fn boxed_hasher_matches_one_shot_and_resets() {
        let data: Vec<u8> = (0..=255u8).cycle().take(9_001).collect();
        for algo in [Fingerprint::Sha1, Fingerprint::FastHash] {
            let mut h = algo.hasher();
            assert_eq!(h.algorithm(), algo);
            for part in data.chunks(777) {
                h.update(part);
            }
            assert_eq!(h.finish(), algo.of(&data), "{} streaming", algo.name());
            // finish() reset the state: the same hasher fingerprints the
            // next chunk from scratch.
            h.update(b"second");
            assert_eq!(h.finish(), algo.of(b"second"), "{} reset", algo.name());
        }
    }

    #[test]
    fn of_parallel_matches_of() {
        // Both sides of fasthash's 128 KiB spawn threshold.
        for len in [
            8 * 1024,
            128 * 1024 - 1,
            128 * 1024,
            128 * 1024 + 1,
            300_000,
        ] {
            let data = vec![0x5Au8; len];
            for algo in [Fingerprint::Sha1, Fingerprint::FastHash] {
                for workers in [1, 2, 4] {
                    assert_eq!(
                        algo.of_parallel(&data, workers),
                        algo.of(&data),
                        "{} len {len} workers {workers}",
                        algo.name()
                    );
                }
            }
        }
    }
}

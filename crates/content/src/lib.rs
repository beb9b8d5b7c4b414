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
//! * [`sha1`] — FIPS 180-1 SHA-1, verified against the standard vectors,
//!   on the CPU's SHA extensions where it has them.
//! * [`ChunkId`] — the 20-byte fingerprint newtype, and [`ChunkName`], its
//!   hex text on the stack: the name a chunk is stored under.
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

// One `#[allow(unsafe_code)]` is the exception: the call into SHA-1's
// SHA-NI block function, made only after the CPU reported the features.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chunker;
pub mod compress;
pub mod delta;
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

    /// The chunk's object name in the store: its digest in lowercase hex,
    /// built on the stack.
    pub fn name(&self) -> ChunkName {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut name = [0u8; 40];
        for (pair, byte) in name.chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX[usize::from(byte >> 4)];
            pair[1] = HEX[usize::from(byte & 0xf)];
        }
        ChunkName(name)
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name().as_str())
    }
}

/// A [`ChunkId`] in lowercase hex: the name its chunk is stored under.
/// Forty bytes held by value, so naming a chunk allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ChunkName([u8; 40]);

impl ChunkName {
    /// The name as text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }
}

impl fmt::Debug for ChunkName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<[u8; 20]> for ChunkId {
    fn from(bytes: [u8; 20]) -> Self {
        ChunkId(bytes)
    }
}

/// The fingerprint algorithm used to derive [`ChunkId`]s: SHA-1, the
/// paper's choice (§4.1), and the only one. The type stays because
/// `ClientConfig` and `PipelineConfig` carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fingerprint {
    /// FIPS 180-1 SHA-1 (the paper's algorithm).
    #[default]
    Sha1,
}

impl Fingerprint {
    /// Fingerprints a byte string with this algorithm.
    pub fn of(&self, data: &[u8]) -> ChunkId {
        ChunkId::of(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_id_hex_roundtrip() {
        let id = ChunkId::of(b"hello");
        assert_eq!(id.to_string(), "aaf4c61ddcc5e8a2dabede0f3b482cd9aea9434d");
        assert_eq!(ChunkId::from_bytes(*id.as_bytes()), id);
    }

    #[test]
    fn a_name_is_the_display_text() {
        let id = ChunkId::of(b"hello");
        assert_eq!(id.name().as_str(), id.to_string());
        assert_eq!(
            format!("{:?}", id.name()),
            "\"aaf4c61ddcc5e8a2dabede0f3b482cd9aea9434d\""
        );
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
}

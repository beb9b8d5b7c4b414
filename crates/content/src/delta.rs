//! rsync-style delta encoding (weak rolling hash + strong hash block
//! matching, Tridgell's algorithm).
//!
//! Dropbox uses librsync deltas so an UPDATE only ships the changed bytes
//! (paper §2, §5.2.2) — that is why Dropbox beats StackSync on UPDATE
//! traffic in Fig. 7(d). The `baselines` crate uses this module to model
//! that behaviour faithfully.

use crate::rolling::Adler;
use crate::ChunkId;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Per-block signature: weak (rolling) and strong (SHA-1) hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSig {
    /// Weak rolling checksum for cheap candidate matching.
    pub weak: u32,
    /// Strong hash confirming a match.
    pub strong: ChunkId,
}

/// Signature of a base file: what the receiver sends to the sender.
#[derive(Debug, Clone)]
pub struct Signature {
    block_size: usize,
    base_len: usize,
    blocks: Vec<BlockSig>,
    index: HashMap<u32, Vec<usize>>,
}

impl Signature {
    /// Computes the signature of `base` with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn of(base: &[u8], block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let mut blocks = Vec::with_capacity(base.len() / block_size + 1);
        let mut index: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, block) in base.chunks(block_size).enumerate() {
            let weak = Adler::new(block).digest();
            blocks.push(BlockSig {
                weak,
                strong: ChunkId::of(block),
            });
            index.entry(weak).or_default().push(i);
        }
        Signature {
            block_size,
            base_len: base.len(),
            blocks,
            index,
        }
    }

    /// The block size the signature was computed with.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Wire size of this signature (weak 4 B + strong 20 B per block).
    pub fn encoded_size(&self) -> usize {
        8 + self.blocks.len() * 24
    }
}

/// One delta instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy block `index` of the base file.
    Copy {
        /// Index of the base block to copy.
        index: usize,
    },
    /// Emit literal bytes not present in the base.
    Literal(Vec<u8>),
}

/// A delta transforming the base file into the target file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    block_size: usize,
    base_len: usize,
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// The instructions.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Literal bytes carried by the delta.
    pub fn literal_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Literal(b) => b.len(),
                DeltaOp::Copy { .. } => 0,
            })
            .sum()
    }

    /// Approximate wire size: 9 bytes per copy op, literal length + 5 per
    /// literal run. This is what the Dropbox traffic model charges.
    pub fn encoded_size(&self) -> usize {
        12 + self
            .ops
            .iter()
            .map(|op| match op {
                DeltaOp::Copy { .. } => 9,
                DeltaOp::Literal(b) => b.len() + 5,
            })
            .sum::<usize>()
    }
}

/// Errors from applying a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeltaError {
    /// A copy op referenced a block beyond the base file.
    BlockOutOfRange {
        /// The offending block index.
        index: usize,
    },
    /// The delta's recorded base length disagrees with the provided base.
    BaseLengthMismatch {
        /// Length recorded in the delta.
        expected: usize,
        /// Length of the provided base.
        found: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::BlockOutOfRange { index } => {
                write!(f, "copy references block {index} beyond base")
            }
            DeltaError::BaseLengthMismatch { expected, found } => {
                write!(
                    f,
                    "delta was built against a {expected}-byte base, got {found}"
                )
            }
        }
    }
}

impl Error for DeltaError {}

/// Computes the delta turning the file described by `signature` into
/// `target` (run by the data holder in rsync; by the client in Dropbox).
pub fn diff(signature: &Signature, target: &[u8]) -> Delta {
    let block_size = signature.block_size;
    let mut ops: Vec<DeltaOp> = Vec::new();
    let mut literal: Vec<u8> = Vec::new();
    let mut pos = 0;

    let flush_literal = |ops: &mut Vec<DeltaOp>, literal: &mut Vec<u8>| {
        if !literal.is_empty() {
            ops.push(DeltaOp::Literal(std::mem::take(literal)));
        }
    };

    if target.len() >= block_size {
        let mut weak = Adler::new(&target[..block_size]);
        loop {
            let window = &target[pos..pos + block_size];
            let matched = signature.index.get(&weak.digest()).and_then(|candidates| {
                let strong = ChunkId::of(window);
                candidates
                    .iter()
                    .copied()
                    .find(|&i| signature.blocks[i].strong == strong)
            });
            if let Some(index) = matched {
                flush_literal(&mut ops, &mut literal);
                ops.push(DeltaOp::Copy { index });
                pos += block_size;
                if pos + block_size > target.len() {
                    break;
                }
                weak = Adler::new(&target[pos..pos + block_size]);
            } else {
                literal.push(target[pos]);
                if pos + block_size >= target.len() {
                    pos += 1;
                    break;
                }
                weak.roll(target[pos], target[pos + block_size]);
                pos += 1;
            }
        }
    }
    // The base's final block may be shorter than the window, so the main
    // loop cannot match it. If the remaining tail is exactly that partial
    // block, copy it instead of shipping literals.
    let tail = &target[pos..];
    let partial_len = signature.base_len % block_size;
    if !tail.is_empty()
        && partial_len != 0
        && tail.len() == partial_len
        && signature
            .blocks
            .last()
            .is_some_and(|b| b.strong == ChunkId::of(tail))
    {
        flush_literal(&mut ops, &mut literal);
        ops.push(DeltaOp::Copy {
            index: signature.blocks.len() - 1,
        });
    } else {
        literal.extend_from_slice(tail);
        flush_literal(&mut ops, &mut literal);
    }

    Delta {
        block_size,
        base_len: signature.base_len,
        ops,
    }
}

/// Reconstructs the target from the base and a delta.
///
/// # Errors
///
/// [`DeltaError::BlockOutOfRange`] when a copy op points past the base.
pub fn apply(base: &[u8], delta: &Delta) -> Result<Vec<u8>, DeltaError> {
    let mut out = Vec::new();
    for op in &delta.ops {
        match op {
            DeltaOp::Copy { index } => {
                let start = index * delta.block_size;
                if start >= base.len() {
                    return Err(DeltaError::BlockOutOfRange { index: *index });
                }
                let end = (start + delta.block_size).min(base.len());
                out.extend_from_slice(&base[start..end]);
            }
            DeltaOp::Literal(bytes) => out.extend_from_slice(bytes),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn identical_files_are_all_copies() {
        let base = random_bytes(10_000, 1);
        let sig = Signature::of(&base, 1000);
        let delta = diff(&sig, &base);
        assert_eq!(delta.literal_bytes(), 0);
        assert_eq!(delta.ops().len(), 10);
        assert_eq!(apply(&base, &delta).unwrap(), base);
    }

    #[test]
    fn small_middle_edit_ships_little_data() {
        let base = random_bytes(100_000, 2);
        let mut target = base.clone();
        target[50_000] ^= 0xff; // single-byte change
        let sig = Signature::of(&base, 2048);
        let delta = diff(&sig, &target);
        assert_eq!(apply(&base, &delta).unwrap(), target);
        assert!(
            delta.literal_bytes() <= 2048,
            "one changed block at most, got {} literal bytes",
            delta.literal_bytes()
        );
        assert!(delta.encoded_size() < base.len() / 10);
    }

    #[test]
    fn prepend_still_matches_blocks() {
        // This is where delta encoding beats fixed chunking: block matching
        // uses a rolling window, so a prepend costs only the new bytes.
        let base = random_bytes(50_000, 3);
        let mut target = b"inserted-prefix".to_vec();
        target.extend_from_slice(&base);
        let sig = Signature::of(&base, 1024);
        let delta = diff(&sig, &target);
        assert_eq!(apply(&base, &delta).unwrap(), target);
        assert!(
            delta.literal_bytes() < 2 * 1024,
            "prepend must not resend the file ({} literals)",
            delta.literal_bytes()
        );
    }

    #[test]
    fn disjoint_files_are_all_literals() {
        let base = vec![0u8; 10_000];
        let target = random_bytes(8_000, 9);
        let sig = Signature::of(&base, 1000);
        let delta = diff(&sig, &target);
        assert_eq!(apply(&base, &delta).unwrap(), target);
        assert_eq!(delta.literal_bytes(), target.len());
    }

    #[test]
    fn empty_target_yields_empty() {
        let base = random_bytes(5_000, 4);
        let sig = Signature::of(&base, 512);
        let delta = diff(&sig, &[]);
        assert!(delta.ops().is_empty());
        assert_eq!(apply(&base, &delta).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn empty_base_yields_all_literals() {
        let target = random_bytes(3_000, 5);
        let sig = Signature::of(&[], 512);
        let delta = diff(&sig, &target);
        assert_eq!(delta.literal_bytes(), target.len());
        assert_eq!(apply(&[], &delta).unwrap(), target);
    }

    #[test]
    fn apply_rejects_out_of_range_copy() {
        let delta = Delta {
            block_size: 100,
            base_len: 100,
            ops: vec![DeltaOp::Copy { index: 5 }],
        };
        assert_eq!(
            apply(&[0u8; 100], &delta).unwrap_err(),
            DeltaError::BlockOutOfRange { index: 5 }
        );
    }

    #[test]
    fn signature_size_accounting() {
        let base = random_bytes(10_240, 6);
        let sig = Signature::of(&base, 1024);
        assert_eq!(sig.encoded_size(), 8 + 10 * 24);
    }

    proptest! {
        #[test]
        fn prop_diff_apply_identity(
            base in proptest::collection::vec(any::<u8>(), 0..8_000),
            target in proptest::collection::vec(any::<u8>(), 0..8_000),
            block_size in 16usize..512,
        ) {
            let sig = Signature::of(&base, block_size);
            let delta = diff(&sig, &target);
            prop_assert_eq!(apply(&base, &delta).unwrap(), target);
        }

        #[test]
        fn prop_self_delta_has_no_literals_for_aligned_files(
            blocks in 1usize..20,
            block_size in 16usize..128,
            seed in any::<u64>(),
        ) {
            // A base whose length is a multiple of the block size deltas
            // against itself with zero literal bytes.
            let base = random_bytes(blocks * block_size, seed);
            let sig = Signature::of(&base, block_size);
            let delta = diff(&sig, &base);
            prop_assert_eq!(delta.literal_bytes(), 0);
        }
    }
}

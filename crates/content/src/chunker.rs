//! Chunking strategies: fixed-size (the paper's default) and
//! content-defined (the alternative the paper discusses, §4.1).
//!
//! Fixed chunking is cheap but suffers from the *boundary-shifting
//! problem*: inserting one byte at the start of a file shifts every chunk
//! boundary, so every chunk changes and dedup fails — the paper calls this
//! out as the cause of the skewed UPDATE sync times in Fig. 7(e). The
//! content-defined chunker places boundaries where a rolling hash matches a
//! mask, so boundaries move with the content and a prefix insertion only
//! disturbs the first chunk(s).

use crate::rolling::Buzhash;
use std::ops::Range;

/// A chunk boundary decision: `offset..offset+len` of the original buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    /// Byte offset of the chunk within the file.
    pub offset: usize,
    /// Chunk length in bytes.
    pub len: usize,
}

impl ChunkSpan {
    /// The span as a range usable for slicing.
    pub fn range(&self) -> Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// A strategy for splitting a file into chunks.
///
/// Invariant: the returned spans partition `data` exactly (contiguous,
/// in order, covering every byte); empty input yields no chunks.
pub trait Chunker {
    /// Splits `data` into chunk spans.
    fn chunk(&self, data: &[u8]) -> Vec<ChunkSpan>;

    /// Strategy name for diagnostics.
    fn name(&self) -> &'static str;

    /// Splits a [`bytes::Bytes`] buffer into zero-copy chunk windows:
    /// each returned buffer shares the input's allocation (slice in,
    /// `Bytes` out — the pipeline's contract).
    fn chunk_bytes(&self, data: &bytes::Bytes) -> Vec<bytes::Bytes> {
        self.chunk(data)
            .iter()
            .map(|s| data.slice(s.range()))
            .collect()
    }
}

/// Static chunking with a fixed size — StackSync's default (512 KB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedChunker {
    size: usize,
}

impl FixedChunker {
    /// Creates a fixed chunker.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "chunk size must be positive");
        FixedChunker { size }
    }

    /// The configured chunk size.
    pub fn size(&self) -> usize {
        self.size
    }
}

impl Default for FixedChunker {
    fn default() -> Self {
        FixedChunker::new(crate::DEFAULT_CHUNK_SIZE)
    }
}

impl Chunker for FixedChunker {
    fn chunk(&self, data: &[u8]) -> Vec<ChunkSpan> {
        let mut spans = Vec::with_capacity(data.len() / self.size + 1);
        let mut offset = 0;
        while offset < data.len() {
            let len = self.size.min(data.len() - offset);
            spans.push(ChunkSpan { offset, len });
            offset += len;
        }
        spans
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Content-defined chunking driven by a Buzhash rolling hash.
///
/// A boundary is declared when the low `mask_bits` of the rolling hash are
/// all ones, giving an expected chunk size of `2^mask_bits` bytes, clamped
/// to `[min, max]`.
///
/// ## Clamp-edge invariant
///
/// Boundaries are a pure function of content. The implementation
/// re-warms its window after every cut — including a forced max-size
/// clamp cut — but because the Buzhash value depends only on the bytes
/// currently in the window (see `rolling`), the warmed hash at any
/// position is bit-identical to what an uninterrupted scan would hold
/// there. So a forced cut can never shift later boundaries: streams
/// that differ only in prefix realign to the same cut positions once
/// past the clamp region. `cdc_forced_max_cut_does_not_shift_later_boundaries`
/// and the pinned `cdc_known_trace_boundaries_pinned` trace are the
/// regression proof.
#[derive(Debug, Clone)]
pub struct ContentDefinedChunker {
    min: usize,
    max: usize,
    mask: u64,
    window: usize,
}

impl ContentDefinedChunker {
    /// Creates a CDC chunker with expected size `2^mask_bits`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min <= max` and the window is smaller than `min`.
    pub fn new(min: usize, max: usize, mask_bits: u32, window: usize) -> Self {
        assert!(min > 0 && min <= max, "need 0 < min <= max");
        assert!(window > 0 && window <= min, "window must fit in min chunk");
        assert!(mask_bits > 0 && mask_bits < 64, "mask_bits in 1..64");
        ContentDefinedChunker {
            min,
            max,
            mask: (1u64 << mask_bits) - 1,
            window,
        }
    }

    /// A small-scale configuration convenient for tests (avg 4 KB).
    pub fn test_scale() -> Self {
        ContentDefinedChunker::new(1024, 16 * 1024, 12, 48)
    }
}

impl Chunker for ContentDefinedChunker {
    fn chunk(&self, data: &[u8]) -> Vec<ChunkSpan> {
        let mut spans = Vec::new();
        let mut start = 0;
        while start < data.len() {
            let remaining = data.len() - start;
            if remaining <= self.min {
                spans.push(ChunkSpan {
                    offset: start,
                    len: remaining,
                });
                break;
            }
            let limit = remaining.min(self.max);
            let mut hash = Buzhash::new(self.window);
            // Warm the window over the bytes just before the earliest
            // possible boundary so the decision at `min` has full context.
            let warm_from = self.min - self.window;
            for &b in &data[start + warm_from..start + self.min] {
                hash.push(b);
            }
            let mut cut = limit;
            for pos in self.min..limit {
                if hash.value() & self.mask == self.mask {
                    cut = pos;
                    break;
                }
                hash.roll(data[start + pos - self.window], data[start + pos]);
            }
            spans.push(ChunkSpan {
                offset: start,
                len: cut,
            });
            start += cut;
        }
        spans
    }

    fn name(&self) -> &'static str {
        "cdc"
    }
}

/// Checks the partition invariant; useful in tests and debug assertions.
pub fn is_exact_partition(spans: &[ChunkSpan], total_len: usize) -> bool {
    let mut expected = 0;
    for s in spans {
        if s.offset != expected || s.len == 0 {
            return false;
        }
        expected += s.len;
    }
    expected == total_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random content.
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
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
    fn fixed_chunker_exact_sizes() {
        let data = vec![1u8; 1000];
        let spans = FixedChunker::new(300).chunk(&data);
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans[0],
            ChunkSpan {
                offset: 0,
                len: 300
            }
        );
        assert_eq!(
            spans[3],
            ChunkSpan {
                offset: 900,
                len: 100
            }
        );
        assert!(is_exact_partition(&spans, 1000));
    }

    #[test]
    fn fixed_chunker_empty_input() {
        assert!(FixedChunker::new(10).chunk(&[]).is_empty());
    }

    #[test]
    fn fixed_chunker_input_smaller_than_chunk() {
        let spans = FixedChunker::new(1000).chunk(&[1, 2, 3]);
        assert_eq!(spans, vec![ChunkSpan { offset: 0, len: 3 }]);
    }

    #[test]
    fn default_fixed_chunker_uses_512k() {
        assert_eq!(FixedChunker::default().size(), crate::DEFAULT_CHUNK_SIZE);
    }

    #[test]
    fn cdc_respects_min_max() {
        let chunker = ContentDefinedChunker::test_scale();
        let data = random_bytes(200_000, 7);
        let spans = chunker.chunk(&data);
        assert!(is_exact_partition(&spans, data.len()));
        for (i, s) in spans.iter().enumerate() {
            assert!(s.len <= 16 * 1024, "chunk {i} too large: {}", s.len);
            if i + 1 != spans.len() {
                assert!(s.len >= 1024, "chunk {i} too small: {}", s.len);
            }
        }
    }

    #[test]
    fn cdc_average_is_near_expected() {
        let chunker = ContentDefinedChunker::test_scale();
        let data = random_bytes(2_000_000, 99);
        let spans = chunker.chunk(&data);
        let avg = data.len() / spans.len();
        // Expected 2^12 = 4096 plus the min offset; allow generous slack.
        assert!(
            (2_000..14_000).contains(&avg),
            "average chunk size {avg} out of expected band"
        );
    }

    #[test]
    fn fixed_chunking_suffers_boundary_shift() {
        // The motivating defect: prepend one byte and every fixed chunk
        // changes.
        let chunker = FixedChunker::new(4096);
        let data = random_bytes(100_000, 3);
        let mut shifted = vec![0xaa];
        shifted.extend_from_slice(&data);
        let ids_a: Vec<crate::ChunkId> = chunker
            .chunk(&data)
            .iter()
            .map(|s| crate::ChunkId::of(&data[s.range()]))
            .collect();
        let ids_b: Vec<crate::ChunkId> = chunker
            .chunk(&shifted)
            .iter()
            .map(|s| crate::ChunkId::of(&shifted[s.range()]))
            .collect();
        let shared = ids_a.iter().filter(|id| ids_b.contains(id)).count();
        assert_eq!(
            shared, 0,
            "fixed chunking must share nothing after a prepend"
        );
    }

    #[test]
    fn cdc_survives_boundary_shift() {
        // CDC boundaries are content-derived: after the insertion point the
        // same cut points reappear, so most chunks dedup.
        let chunker = ContentDefinedChunker::test_scale();
        let data = random_bytes(200_000, 3);
        let mut shifted = vec![0xaa];
        shifted.extend_from_slice(&data);
        let ids_a: Vec<crate::ChunkId> = chunker
            .chunk(&data)
            .iter()
            .map(|s| crate::ChunkId::of(&data[s.range()]))
            .collect();
        let ids_b: Vec<crate::ChunkId> = chunker
            .chunk(&shifted)
            .iter()
            .map(|s| crate::ChunkId::of(&shifted[s.range()]))
            .collect();
        let shared = ids_a.iter().filter(|id| ids_b.contains(id)).count();
        assert!(
            shared * 2 > ids_a.len(),
            "CDC must preserve most chunks after a prepend ({shared}/{})",
            ids_a.len()
        );
    }

    /// Finds a filler byte whose constant-run Buzhash value never
    /// matches the chunker's mask, so a long run of it admits no
    /// content-defined boundary and forces max-size clamp cuts.
    fn mask_avoiding_byte(c: &ContentDefinedChunker) -> u8 {
        (0u8..=255)
            .find(|&b| {
                let mut h = Buzhash::new(c.window);
                for _ in 0..c.window {
                    h.push(b);
                }
                h.value() & c.mask != c.mask
            })
            .expect("some byte must avoid the mask")
    }

    /// Boundary offsets (chunk end positions) strictly inside the tail,
    /// expressed relative to the tail start.
    fn tail_boundaries(spans: &[ChunkSpan], tail_start: usize) -> Vec<usize> {
        spans
            .iter()
            .map(|s| s.offset + s.len)
            .filter(|&end| end > tail_start)
            .map(|end| end - tail_start)
            .collect()
    }

    #[test]
    fn cdc_forced_max_cut_does_not_shift_later_boundaries() {
        // Regression for the min/max clamp edge: a run with no mask
        // match forces max-size clamp cuts, and the chunker re-warms its
        // rolling window after every cut. If that reset perturbed the
        // hash sequence, boundaries after the run would depend on where
        // the forced cuts happened to land — i.e. on the prefix length —
        // and dedup of a shared suffix would fail. Boundaries must be a
        // function of content alone: streams differing only in prefix
        // length must realign to identical tail cut positions.
        let chunker = ContentDefinedChunker::test_scale();
        let filler = mask_avoiding_byte(&chunker);
        let run_len = 3 * chunker.max + 123; // > max: forces clamp cuts
        let tail = random_bytes(100_000, 0xF00D);

        let mut reference: Option<Vec<usize>> = None;
        for prefix_len in [0usize, 1, chunker.min, chunker.max - 1, 7777] {
            let mut data = random_bytes(prefix_len, prefix_len as u64);
            data.extend(std::iter::repeat_n(filler, run_len));
            let run_end = data.len();
            data.extend_from_slice(&tail);

            let spans = chunker.chunk(&data);
            assert!(is_exact_partition(&spans, data.len()));
            // The run really does force clamp cuts: every span fully
            // inside it must be max-sized.
            let forced: Vec<&ChunkSpan> = spans
                .iter()
                .filter(|s| s.offset >= prefix_len && s.offset + s.len <= run_end)
                .collect();
            assert!(
                forced.iter().filter(|s| s.len == chunker.max).count() >= 2,
                "prefix {prefix_len}: expected forced max-size cuts in the run"
            );

            // Skip the resynchronization region (one max+min of tail):
            // boundaries beyond it must be identical across all prefixes.
            let resync = chunker.max + chunker.min;
            let stable: Vec<usize> = tail_boundaries(&spans, run_end)
                .into_iter()
                .filter(|&b| b > resync)
                .collect();
            assert!(
                stable.len() > 5,
                "prefix {prefix_len}: too few stable tail boundaries"
            );
            match &reference {
                None => reference = Some(stable),
                Some(expect) => assert_eq!(
                    &stable, expect,
                    "prefix {prefix_len}: tail boundaries shifted after forced cuts"
                ),
            }
        }
    }

    #[test]
    fn cdc_known_trace_boundaries_pinned() {
        // A known input trace with its exact boundary sequence pinned,
        // covering every clamp class: content-defined cuts, a forced
        // max-size cut (mask-avoiding run), and the final short chunk.
        // Any change to warm-up or clamp handling shows up here as an
        // exact diff, not a statistical drift.
        let chunker = ContentDefinedChunker::test_scale();
        let filler = mask_avoiding_byte(&chunker);
        let mut data = random_bytes(40_000, 0xC0FFEE);
        data.extend(std::iter::repeat_n(filler, 20_000));
        data.extend_from_slice(&random_bytes(30_000, 0xBEEF));

        let lens: Vec<usize> = chunker.chunk(&data).iter().map(|s| s.len).collect();
        assert!(is_exact_partition(&chunker.chunk(&data), data.len()));
        assert_eq!(
            lens, PINNED_TRACE_LENS,
            "pinned CDC trace diverged (filler byte {filler})"
        );
    }

    /// The exact chunk lengths of `cdc_known_trace_boundaries_pinned`'s
    /// input under `ContentDefinedChunker::test_scale()`. The `16384`
    /// entry is the forced max-size clamp cut inside the filler run.
    const PINNED_TRACE_LENS: &[usize] = &[
        5055, 1178, 5602, 2714, 3244, 6535, 5198, 8448, 16384, 8109, 2791, 13561, 3689, 7492,
    ];

    proptest! {
        #[test]
        fn prop_fixed_partitions_exactly(
            len in 0usize..50_000,
            size in 1usize..10_000,
            seed in any::<u64>(),
        ) {
            let data = random_bytes(len, seed);
            let spans = FixedChunker::new(size).chunk(&data);
            prop_assert!(is_exact_partition(&spans, len));
        }

        #[test]
        fn prop_cdc_partitions_exactly(len in 0usize..100_000, seed in any::<u64>()) {
            let data = random_bytes(len, seed);
            let spans = ContentDefinedChunker::test_scale().chunk(&data);
            prop_assert!(is_exact_partition(&spans, len));
        }

        #[test]
        fn prop_reassembly_is_identity(len in 0usize..60_000, seed in any::<u64>()) {
            let data = random_bytes(len, seed);
            for chunker in [&FixedChunker::new(4096) as &dyn Chunker,
                            &ContentDefinedChunker::test_scale()] {
                let mut rebuilt = Vec::with_capacity(len);
                for s in chunker.chunk(&data) {
                    rebuilt.extend_from_slice(&data[s.range()]);
                }
                prop_assert_eq!(&rebuilt, &data, "chunker {}", chunker.name());
            }
        }

        #[test]
        fn prop_cdc_deterministic(len in 0usize..30_000, seed in any::<u64>()) {
            let data = random_bytes(len, seed);
            let c = ContentDefinedChunker::test_scale();
            prop_assert_eq!(c.chunk(&data), c.chunk(&data));
        }
    }
}

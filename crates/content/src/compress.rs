//! LZSS compression — the pluggable pre-transmission compression stage.
//!
//! The paper compresses chunks with Gzip or Bzip2 and notes that "other
//! compression algorithms can be easily plugged into the system". Full
//! DEFLATE is out of scope here, so the stand-in is an LZSS coder (sliding
//! window + hash-chain matching); what matters for the reproduction is the
//! pipeline stage and a realistic ratio on compressible content.

use bytes::Bytes;
use std::cell::RefCell;
use std::error::Error;
use std::fmt;

/// Maximum back-reference distance (32 KB window, like DEFLATE).
const WINDOW: usize = 32 * 1024;
/// Minimum/maximum match lengths.
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 258;
/// Bound on hash-chain traversal per position (compression effort knob).
const MAX_CHAIN: usize = 64;

const MAGIC: &[u8; 4] = b"LZS1";

/// Compression algorithm selector — the pluggable hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// No compression (store).
    Store,
    /// LZSS (the Gzip stand-in).
    #[default]
    Lzss,
}

impl Algorithm {
    /// Compresses `data` with this algorithm (self-identifying framing).
    /// Slice in, [`Bytes`] out: the result is cheap to clone and hand
    /// to the pipeline/store without further copies.
    ///
    /// The result is never more than one byte longer than `data`: an
    /// LZSS stream that is not smaller than its input (incompressible
    /// content pays a flag bit per literal) is dropped for the `Store`
    /// framing, which every reader already understands.
    pub fn compress(&self, data: &[u8]) -> Bytes {
        if *self == Algorithm::Lzss {
            let mut out = Vec::with_capacity(data.len() / 2 + 16);
            out.push(1u8);
            compress_into(data, &mut out);
            if out.len() - 1 < data.len() {
                return Bytes::from(out);
            }
        }
        let mut out = Vec::with_capacity(data.len() + 1);
        out.push(0u8);
        out.extend_from_slice(data);
        Bytes::from(out)
    }

    /// Decompresses a buffer produced by [`Algorithm::compress`] (any
    /// algorithm: the framing is self-identifying).
    ///
    /// # Errors
    ///
    /// [`CompressError`] if the framing or stream is malformed.
    pub fn decompress(data: &[u8]) -> Result<Bytes, CompressError> {
        match data.first() {
            Some(0) => Ok(Bytes::copy_from_slice(&data[1..])),
            Some(1) => decompress(&data[1..]).map(Bytes::from),
            _ => Err(CompressError::BadHeader),
        }
    }
}

/// Errors from decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompressError {
    /// Missing or wrong magic/framing bytes.
    BadHeader,
    /// The stream ended mid-token.
    Truncated,
    /// A back-reference pointed before the start of the output.
    BadReference,
    /// Decoded length disagrees with the header.
    LengthMismatch,
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::BadHeader => write!(f, "bad compression header"),
            CompressError::Truncated => write!(f, "compressed stream truncated"),
            CompressError::BadReference => write!(f, "back-reference out of range"),
            CompressError::LengthMismatch => write!(f, "decoded length mismatch"),
        }
    }
}

impl Error for CompressError {}

/// "No position": the empty value of both match tables.
const NONE: u32 = u32::MAX;

/// The hash-chain match tables, kept per thread so a call costs a reset
/// of `head` and not two fresh allocations: at 4 KiB per chunk the
/// allocator, not the coder, used to set the speed.
struct MatchTables {
    /// Hash bucket -> most recent position with that hash.
    head: Vec<u32>,
    /// Position (mod `WINDOW`) -> previous position with the same hash.
    /// Never reset: a slot is written when its position is inserted, and
    /// only inserted positions are ever followed.
    prev: Vec<u32>,
}

thread_local! {
    static TABLES: RefCell<MatchTables> = RefCell::new(MatchTables {
        head: vec![NONE; 1 << 15],
        prev: vec![NONE; WINDOW],
    });
}

fn hash3(data: &[u8], pos: usize) -> usize {
    let v = u32::from(data[pos])
        | (u32::from(data[pos + 1]) << 8)
        | (u32::from(data[pos + 2]) << 16)
        | (u32::from(data[pos + 3]) << 24);
    (v.wrapping_mul(2654435761) >> 17) as usize & 0x7fff
}

/// Compresses with raw LZSS framing (`LZS1` + length + token stream).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    compress_into(data, &mut out);
    out
}

/// Compresses with raw LZSS framing, appending to an existing buffer
/// (no intermediate allocation for framed callers).
///
/// # Panics
///
/// If `data` is 4 GiB or longer: the framing's length field and the match
/// tables hold positions as `u32`.
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    assert!(
        data.len() < NONE as usize,
        "LZSS input must be shorter than 4 GiB"
    );
    TABLES.with(|tables| {
        let tables = &mut *tables.borrow_mut();
        tables.head.fill(NONE);
        compress_with(data, out, &mut tables.head, &mut tables.prev);
    });
}

fn compress_with(data: &[u8], out: &mut Vec<u8>, head: &mut [u32], prev: &mut [u32]) {
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());

    let mut flags_at = usize::MAX;
    let mut flag_bit = 8;
    let mut pos = 0;

    let mut push_token = |out: &mut Vec<u8>, is_match: bool| {
        if flag_bit == 8 {
            flags_at = out.len();
            out.push(0);
            flag_bit = 0;
        }
        if is_match {
            out[flags_at] |= 1 << flag_bit;
        }
        flag_bit += 1;
    };

    while pos < data.len() {
        let mut best_len = 0;
        let mut best_dist = 0;
        if pos + MIN_MATCH <= data.len() {
            let h = hash3(data, pos);
            let mut next = head[h];
            let mut steps = 0;
            while next != NONE && steps < MAX_CHAIN {
                let candidate = next as usize;
                if candidate + WINDOW <= pos || candidate >= pos {
                    break;
                }
                let limit = (data.len() - pos).min(MAX_MATCH);
                let mut len = 0;
                while len < limit && data[candidate + len] == data[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = pos - candidate;
                    if len == limit {
                        break;
                    }
                }
                next = prev[candidate % WINDOW];
                steps += 1;
            }
        }

        if best_len >= MIN_MATCH {
            push_token(out, true);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Insert hash entries for every covered position.
            let end = pos + best_len;
            while pos < end {
                if pos + MIN_MATCH <= data.len() {
                    let h = hash3(data, pos);
                    prev[pos % WINDOW] = head[h];
                    head[h] = pos as u32;
                }
                pos += 1;
            }
        } else {
            push_token(out, false);
            out.push(data[pos]);
            if pos + MIN_MATCH <= data.len() {
                let h = hash3(data, pos);
                prev[pos % WINDOW] = head[h];
                head[h] = pos as u32;
            }
            pos += 1;
        }
    }
}

/// Decompresses raw LZSS framing.
///
/// # Errors
///
/// [`CompressError`] on malformed input.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    if data.len() < 8 || &data[..4] != MAGIC {
        return Err(CompressError::BadHeader);
    }
    let expected = u32::from_le_bytes([data[4], data[5], data[6], data[7]]) as usize;
    let mut out = Vec::with_capacity(expected);
    let mut pos = 8;
    let mut flags = 0u8;
    let mut flag_bit = 8;
    while out.len() < expected {
        if flag_bit == 8 {
            flags = *data.get(pos).ok_or(CompressError::Truncated)?;
            pos += 1;
            flag_bit = 0;
        }
        let is_match = flags & (1 << flag_bit) != 0;
        flag_bit += 1;
        if is_match {
            if pos + 3 > data.len() {
                return Err(CompressError::Truncated);
            }
            let dist = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
            let len = data[pos + 2] as usize + MIN_MATCH;
            pos += 3;
            if dist == 0 || dist > out.len() {
                return Err(CompressError::BadReference);
            }
            let start = out.len() - dist;
            for i in 0..len {
                let b = out[start + i];
                out.push(b);
            }
        } else {
            let b = *data.get(pos).ok_or(CompressError::Truncated)?;
            pos += 1;
            out.push(b);
        }
    }
    if out.len() != expected {
        return Err(CompressError::LengthMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_roundtrip() {
        assert_eq!(decompress(&compress(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn simple_roundtrip() {
        let data = b"the quick brown fox jumps over the lazy dog, the quick brown fox";
        assert_eq!(decompress(&compress(data)).unwrap(), data);
    }

    #[test]
    fn repetitive_content_compresses_well() {
        let data: Vec<u8> = b"abcdefgh".repeat(10_000);
        let packed = compress(&data);
        assert!(
            packed.len() * 10 < data.len(),
            "repetitive data must compress >10x, got {} -> {}",
            data.len(),
            packed.len()
        );
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn incompressible_content_overhead_bounded() {
        // Pseudo-random bytes: worst case, ~1/8 flag overhead.
        let mut state = 0x12345u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let packed = compress(&data);
        assert!(packed.len() < data.len() + data.len() / 7 + 16);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn long_runs_use_max_match() {
        let data = vec![0u8; 100_000];
        let packed = compress(&data);
        assert!(packed.len() < 2_000);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn matches_across_large_distance_within_window() {
        let mut data = vec![];
        data.extend_from_slice(b"unique-prefix-content-goes-here!");
        data.extend(std::iter::repeat_n(0xEEu8, WINDOW - 64));
        data.extend_from_slice(b"unique-prefix-content-goes-here!");
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert_eq!(decompress(b"xx").unwrap_err(), CompressError::BadHeader);
        assert_eq!(
            decompress(b"NOPE0000").unwrap_err(),
            CompressError::BadHeader
        );
        // Claimed length but empty stream.
        let mut bad = MAGIC.to_vec();
        bad.extend_from_slice(&100u32.to_le_bytes());
        assert_eq!(decompress(&bad).unwrap_err(), CompressError::Truncated);
    }

    #[test]
    fn decompress_rejects_bad_backreference() {
        let mut bad = MAGIC.to_vec();
        bad.extend_from_slice(&10u32.to_le_bytes());
        bad.push(0b0000_0001); // first token: match
        bad.extend_from_slice(&5u16.to_le_bytes()); // distance 5 into empty output
        bad.push(0);
        assert_eq!(decompress(&bad).unwrap_err(), CompressError::BadReference);
    }

    #[test]
    fn algorithm_framing_roundtrips_and_is_self_identifying() {
        let data = b"hello hello hello hello".to_vec();
        let stored = Algorithm::Store.compress(&data);
        let packed = Algorithm::Lzss.compress(&data);
        assert_eq!(Algorithm::decompress(&stored).unwrap(), data);
        assert_eq!(Algorithm::decompress(&packed).unwrap(), data);
        assert!(Algorithm::decompress(&[9, 9, 9]).is_err());
        assert!(Algorithm::decompress(&[]).is_err());
    }

    #[test]
    fn incompressible_chunk_is_stored_raw() {
        // What a 4 KiB random file used to cost: 12.7 % more than raw.
        let mut state = 0xfeed_u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        assert!(compress(&data).len() > data.len());
        let packed = Algorithm::Lzss.compress(&data);
        assert_eq!(packed, Algorithm::Store.compress(&data));
        assert_eq!(Algorithm::decompress(&packed).unwrap(), data);
        // Compressible content still takes the LZSS framing.
        assert_eq!(Algorithm::Lzss.compress(&[7u8; 4096])[0], 1);
    }

    #[test]
    fn adversarial_edge_inputs_roundtrip() {
        // The clamp cases a token coder gets wrong: empty, one byte, a
        // byte on each side of the flag-group boundary, and exact
        // window/match-length edges.
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0x00],
            vec![0xFF],
            vec![7u8; 2],
            vec![7u8; MIN_MATCH - 1],
            vec![7u8; MIN_MATCH],
            vec![7u8; MAX_MATCH],
            vec![7u8; MAX_MATCH + 1],
            vec![9u8; WINDOW],
            vec![9u8; WINDOW + 1],
            (0..=255u8).collect(),
        ];
        for (i, data) in cases.iter().enumerate() {
            for alg in [Algorithm::Store, Algorithm::Lzss] {
                let packed = alg.compress(data);
                assert_eq!(
                    Algorithm::decompress(&packed).unwrap(),
                    data.clone(),
                    "case {i} ({} bytes) via {alg:?}",
                    data.len()
                );
            }
            assert_eq!(&decompress(&compress(data)).unwrap(), data, "raw case {i}");
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        #[test]
        fn prop_algorithm_roundtrip_incompressible(seed in any::<u64>(), len in 0usize..8_192) {
            // Adversarially incompressible: high-entropy bytes from a
            // 64-bit mixer, framed through both algorithms.
            let mut state = seed | 1;
            let data: Vec<u8> = (0..len).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            }).collect();
            for alg in [Algorithm::Store, Algorithm::Lzss] {
                prop_assert_eq!(Algorithm::decompress(&alg.compress(&data)).unwrap(), data.clone());
            }
        }

        #[test]
        fn prop_framed_output_never_exceeds_input_by_more_than_the_tag(
            noise in proptest::collection::vec(any::<u8>(), 0..6_000),
            pattern in proptest::collection::vec(any::<u8>(), 1..32),
            repeats in 0usize..200,
        ) {
            // Incompressible, compressible, and one after the other.
            let run: Vec<u8> = pattern.iter().cycle().take(pattern.len() * repeats).cloned().collect();
            let mixed: Vec<u8> = noise.iter().chain(run.iter()).cloned().collect();
            for data in [&noise, &run, &mixed] {
                for alg in [Algorithm::Store, Algorithm::Lzss] {
                    let packed = alg.compress(data);
                    prop_assert!(packed.len() <= data.len() + 1);
                    prop_assert_eq!(&Algorithm::decompress(&packed).unwrap()[..], &data[..]);
                }
            }
        }

        #[test]
        fn prop_algorithm_roundtrip_repetitive(b in any::<u8>(), reps in 0usize..100_000) {
            // Highly repetitive: a single byte repeated across many
            // max-length matches.
            let data = vec![b; reps];
            for alg in [Algorithm::Store, Algorithm::Lzss] {
                prop_assert_eq!(Algorithm::decompress(&alg.compress(&data)).unwrap(), data.clone());
            }
        }

        #[test]
        fn prop_roundtrip_compressible(
            pattern in proptest::collection::vec(any::<u8>(), 1..64),
            repeats in 1usize..500,
        ) {
            let data: Vec<u8> = pattern.iter().cycle().take(pattern.len() * repeats).cloned().collect();
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        #[test]
        fn prop_decompress_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decompress(&data);
            let _ = Algorithm::decompress(&data);
        }
    }
}

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
            // Tag, header, and the longest an LZSS stream gets (a flag bit
            // per literal): sized once, `compress_into` never grows it.
            let mut out = Vec::with_capacity(data.len() + data.len() / 8 + 10);
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

/// Buckets of the `head` table (15 hash bits).
const HASH_SIZE: usize = 1 << 15;
/// Longest input one stream frames: a stamp (below) is a `u32`, starts at
/// `WINDOW` or later and must not wrap within a call.
const MAX_INPUT: usize = u32::MAX as usize - WINDOW;

/// The hash-chain match tables, kept per thread and not cleared between
/// calls (refilling `head` was 3 µs a call: nothing to a chunk, a third of
/// what a 2 KiB file takes).
///
/// Entries are *stamps*, `base + position`, and each call's `base` lies a
/// window past the last stamp the call before it could have stored. What
/// an earlier call left in `head` — like the zero of a bucket never
/// written — is therefore a window or more behind the position being
/// searched: the test that ends a chain anyway.
struct MatchTables {
    /// Hash bucket -> stamp of the most recent position with that hash.
    head: Box<[u32; HASH_SIZE]>,
    /// Stamp (mod `WINDOW`) -> stamp of the previous position with the same
    /// hash. A slot is written when its position is inserted and only
    /// in-window stamps, which this call inserted, are ever followed.
    prev: Box<[u32; WINDOW]>,
    /// Stamp the next call gives its first byte.
    next_base: u64,
}

impl MatchTables {
    fn new() -> Self {
        let zeroed = |len| vec![0u32; len].into_boxed_slice();
        MatchTables {
            head: zeroed(HASH_SIZE).try_into().expect("length is HASH_SIZE"),
            prev: zeroed(WINDOW).try_into().expect("length is WINDOW"),
            next_base: WINDOW as u64,
        }
    }

    /// The base for an input of `len` bytes. Once per 4 GiB compressed on
    /// the thread the stamps would wrap, and the tables start over empty.
    fn claim(&mut self, len: usize) -> u32 {
        if self.next_base + len as u64 > u64::from(u32::MAX) {
            self.head.fill(0);
            self.next_base = WINDOW as u64;
        }
        let base = self.next_base as u32;
        self.next_base += (len + WINDOW) as u64;
        base
    }
}

/// Puts `stamp` at the head of the chain of positions that start with
/// `word`; returns the head it replaces.
#[inline(always)]
fn insert(head: &mut [u32; HASH_SIZE], prev: &mut [u32; WINDOW], word: u32, stamp: u32) -> u32 {
    let first = std::mem::replace(&mut head[hash4(word)], stamp);
    prev[stamp as usize % WINDOW] = first;
    first
}

thread_local! {
    static TABLES: RefCell<MatchTables> = RefCell::new(MatchTables::new());
}

fn read32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("four bytes"))
}

fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> 17) as usize & (HASH_SIZE - 1)
}

/// Length of the common prefix of two equally long slices, eight bytes at
/// a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut matched = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("eight bytes"))
            ^ u64::from_le_bytes(y.try_into().expect("eight bytes"));
        if diff != 0 {
            return matched + (diff.trailing_zeros() / 8) as usize;
        }
        matched += 8;
    }
    matched
        + a[matched..]
            .iter()
            .zip(&b[matched..])
            .take_while(|(x, y)| x == y)
            .count()
}

/// Compresses with raw LZSS framing (`LZS1` + length + token stream).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(data, &mut out);
    out
}

/// Compresses with raw LZSS framing, appending to an existing buffer
/// (no intermediate allocation for framed callers).
///
/// # Panics
///
/// If `data` is longer than 4 GiB − 32 KiB: the framing's length field and
/// the match tables hold positions as `u32`.
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    assert!(
        data.len() <= MAX_INPUT,
        "LZSS input must not exceed 4 GiB - 32 KiB"
    );
    TABLES.with(|tables| {
        let tables = &mut *tables.borrow_mut();
        let base = tables.claim(data.len());
        compress_with(data, out, base, &mut tables.head, &mut tables.prev);
    });
}

/// One flag byte and the up to eight tokens it describes, assembled here
/// and appended to the stream in one piece.
struct Group {
    /// `bytes[0]` is the flag byte; a token is at most three bytes.
    bytes: [u8; Group::MAX_BYTES],
    len: usize,
    tokens: u32,
}

impl Group {
    const MAX_BYTES: usize = 1 + 8 * 3;

    fn new() -> Self {
        Group {
            bytes: [0; Group::MAX_BYTES],
            len: 1,
            tokens: 0,
        }
    }

    #[inline(always)]
    fn literal(&mut self, byte: u8, out: &mut Vec<u8>) {
        self.bytes[self.len] = byte;
        self.len += 1;
        self.token_done(out);
    }

    #[inline(always)]
    fn reference(&mut self, dist: u32, len: usize, out: &mut Vec<u8>) {
        self.bytes[0] |= 1 << self.tokens;
        let [lo, hi] = (dist as u16).to_le_bytes();
        self.bytes[self.len..self.len + 3].copy_from_slice(&[lo, hi, (len - MIN_MATCH) as u8]);
        self.len += 3;
        self.token_done(out);
    }

    #[inline(always)]
    fn token_done(&mut self, out: &mut Vec<u8>) {
        self.tokens += 1;
        if self.tokens == 8 {
            self.flush(out);
        }
    }

    /// Appends the group if it holds a token: a stream never ends in a
    /// flag byte that describes nothing.
    fn flush(&mut self, out: &mut Vec<u8>) {
        if self.tokens > 0 {
            out.extend_from_slice(&self.bytes[..self.len]);
            *self = Group::new();
        }
    }
}

/// The encoder: greedy, longest match among the first [`MAX_CHAIN`]
/// in-window positions of the hash chain, nearest first, the nearer one
/// winning a tie. What it emits is pinned byte for byte by
/// `tests/lzss_golden.rs` and `tests/kernel_oracle.rs`; what makes it fast
/// is that it looks only at candidates that could still change the answer:
///
/// * a match shorter than [`MIN_MATCH`] is never emitted, so a candidate
///   is measured only if its first four bytes are the four bytes here;
/// * a candidate replaces the match held only if it is strictly longer, so
///   it must agree at offset `best_len` before it is measured;
/// * most positions of incompressible input have no candidate worth
///   either, and that is decided without a data-dependent branch per
///   chain step (see the loop).
fn compress_with(
    data: &[u8],
    out: &mut Vec<u8>,
    base: u32,
    head: &mut [u32; HASH_SIZE],
    prev: &mut [u32; WINDOW],
) {
    const IN_WINDOW: u32 = WINDOW as u32;
    let n = data.len();
    // All literals is the longest a stream gets: one flag bit a byte.
    out.reserve(8 + n + n.div_ceil(8));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(n as u32).to_le_bytes());

    let mut group = Group::new();
    // Positions with four bytes to hash; the last three are only literals.
    let hashable = n.saturating_sub(MIN_MATCH - 1);

    let mut pos = 0;
    while pos < hashable {
        // Inserting before searching changes nothing the search sees: it
        // starts from the bucket's previous head and never reads this
        // position's own `prev` slot (every candidate is nearer than a
        // window).
        let (word, stamp) = (read32(data, pos), base + pos as u32);
        let first = insert(head, prev, word, stamp);

        // The first three chain entries, loaded whether or not the chain
        // gets that far (an index is always in range; what a slot off the
        // chain holds is ignored through `in_window`). On random bytes a
        // bucket holds about one in-window position, rarely one with these
        // four bytes, so this one branch is nearly always taken and the
        // position costs no misprediction.
        let second = prev[first as usize % WINDOW];
        let third = prev[second as usize % WINDOW];
        let dist = [first, second, third].map(|s| stamp.wrapping_sub(s));
        let near = dist.map(|d| d < IN_WINDOW);
        let in_window = [near[0], near[0] && near[1], near[0] && near[1] && near[2]];
        let same_word = |i: usize| {
            // In the window means inserted by this call, so `dist <= pos`;
            // otherwise any readable offset will do.
            in_window[i] & (read32(data, pos.saturating_sub(dist[i] as usize)) == word)
        };
        if !(same_word(0) | same_word(1) | in_window[2]) {
            group.literal(data[pos], out);
            pos += 1;
            continue;
        }

        let limit = (n - pos).min(MAX_MATCH);
        let (mut best_len, mut best_dist) = (MIN_MATCH - 1, 0);
        // The four bytes ending at offset `best_len`, where a longer match
        // must agree; at first, the four bytes here.
        let mut beat = word;
        let mut candidate = first;
        for _ in 0..MAX_CHAIN {
            let dist = stamp.wrapping_sub(candidate);
            if dist >= IN_WINDOW {
                break;
            }
            let at = pos - dist as usize;
            // `best_len < limit`, so the read ends inside `data`.
            if read32(data, at + best_len - 3) == beat && read32(data, at) == word {
                let len = MIN_MATCH
                    + common_prefix(
                        &data[at + MIN_MATCH..at + limit],
                        &data[pos + MIN_MATCH..pos + limit],
                    );
                if len > best_len {
                    (best_len, best_dist) = (len, dist);
                    if len == limit {
                        break;
                    }
                    beat = read32(data, pos + best_len - 3);
                }
            }
            candidate = prev[candidate as usize % WINDOW];
        }

        if best_len >= MIN_MATCH {
            group.reference(best_dist, best_len, out);
            let end = pos + best_len;
            for covered in pos + 1..end.min(hashable) {
                insert(head, prev, read32(data, covered), base + covered as u32);
            }
            pos = end;
        } else {
            group.literal(data[pos], out);
            pos += 1;
        }
    }
    for &byte in &data[pos..] {
        group.literal(byte, out);
    }
    group.flush(out);
}

/// What `stream_len` bytes of tokens can expand to at most: a full group is
/// 25 bytes (a flag byte and eight references) for 8 × [`MAX_MATCH`] out.
fn max_expansion(stream_len: usize) -> usize {
    (stream_len / 25 + 1).saturating_mul(8 * MAX_MATCH)
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
    // The header is the sender's claim: reserve no more than the bytes that
    // came with it can deliver. A claim they cannot meet is found out where
    // they run out (`Truncated`), not by an allocation of 4 GiB.
    let mut out = Vec::with_capacity(expected.min(max_expansion(data.len() - 8)));
    let mut pos = 8;
    while out.len() < expected {
        let flags = *data.get(pos).ok_or(CompressError::Truncated)?;
        pos += 1;
        // Eight literals, all present and all owed: one copy.
        if flags == 0 && expected - out.len() >= 8 {
            if let Some(literals) = data.get(pos..pos + 8) {
                out.extend_from_slice(literals);
                pos += 8;
                continue;
            }
        }
        for bit in 0..8 {
            if out.len() >= expected {
                break;
            }
            if flags & (1 << bit) == 0 {
                out.push(*data.get(pos).ok_or(CompressError::Truncated)?);
                pos += 1;
                continue;
            }
            let token = data.get(pos..pos + 3).ok_or(CompressError::Truncated)?;
            let dist = u16::from_le_bytes([token[0], token[1]]) as usize;
            let len = token[2] as usize + MIN_MATCH;
            pos += 3;
            if dist == 0 || dist > out.len() {
                return Err(CompressError::BadReference);
            }
            let start = out.len() - dist;
            if dist >= len {
                out.extend_from_within(start..start + len);
            } else {
                // The match runs into its own output.
                for i in start..start + len {
                    out.push(out[i]);
                }
            }
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
    fn reservation_follows_the_stream_not_the_header() {
        assert_eq!(max_expansion(0), 8 * MAX_MATCH);
        assert_eq!(max_expansion(usize::MAX), usize::MAX);
        // The densest stream there is: nothing valid claims more than the
        // bound, so a valid stream is still reserved in one piece.
        let zeros = vec![0u8; 1 << 20];
        let packed = compress(&zeros);
        assert!(zeros.len() <= max_expansion(packed.len() - 8));
        assert!(max_expansion(packed.len() - 8) < zeros.len() + 8 * MAX_MATCH);
    }

    #[test]
    fn stamps_start_over_before_they_wrap() {
        // 4 GiB through one thread without compressing 4 GiB: put the
        // thread's base just short of the wrap and compare against what a
        // thread that never compressed anything produces.
        let data: Vec<u8> = b"wrap around, wrap around, wrap again. "
            .iter()
            .cycle()
            .take(3 * WINDOW)
            .cloned()
            .collect();
        let fresh = compress_on_new_thread(&data);
        for short_of_wrap in [0, 1, data.len() as u64 - 1, data.len() as u64] {
            TABLES.with(|tables| {
                tables.borrow_mut().next_base = u64::from(u32::MAX) - short_of_wrap;
            });
            assert_eq!(compress(&data), fresh, "{short_of_wrap} short of the wrap");
            assert_eq!(compress(&data[..100]), compress_on_new_thread(&data[..100]));
        }
    }

    fn compress_on_new_thread(data: &[u8]) -> Vec<u8> {
        let data = data.to_vec();
        std::thread::spawn(move || compress(&data)).join().unwrap()
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

//! The kernels `crates/content/src/{compress,sha1}.rs` replaced, kept as the
//! reference the replacements are compared against: the LZSS encoder and
//! decoder and the SHA-1 block function exactly as they stood before PR 17
//! (one branch per chain step, one pushed byte per token, `[u32; 80]`
//! schedule). The stream format and the digests are contracts — stored
//! chunks, dedup decisions and every Fig. 7 byte count depend on them — so
//! the fast kernels must agree with these on every input, byte for byte and
//! error for error.

use content::compress::{compress, decompress, Algorithm, CompressError};
use content::sha1::{sha1, Sha1};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod oracle {
    use content::compress::CompressError;

    pub const WINDOW: usize = 32 * 1024;
    pub const MIN_MATCH: usize = 4;
    pub const MAX_MATCH: usize = 258;
    const MAX_CHAIN: usize = 64;
    const MAGIC: &[u8; 4] = b"LZS1";
    const NONE: u32 = u32::MAX;

    fn hash3(data: &[u8], pos: usize) -> usize {
        let v = u32::from(data[pos])
            | (u32::from(data[pos + 1]) << 8)
            | (u32::from(data[pos + 2]) << 16)
            | (u32::from(data[pos + 3]) << 24);
        (v.wrapping_mul(2654435761) >> 17) as usize & 0x7fff
    }

    /// Fresh tables per call: the state the old per-thread tables were in
    /// after `head.fill(NONE)` (`prev` is only read where this call wrote).
    pub fn compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut head = vec![NONE; 1 << 15];
        let mut prev = vec![NONE; WINDOW];
        compress_with(data, &mut out, &mut head, &mut prev);
        out
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

    pub struct Sha1 {
        state: [u32; 5],
        length: u64,
        buffer: [u8; 64],
        buffered: usize,
    }

    impl Sha1 {
        pub fn new() -> Self {
            Sha1 {
                state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
                length: 0,
                buffer: [0; 64],
                buffered: 0,
            }
        }

        pub fn update(&mut self, mut data: &[u8]) {
            self.length = self.length.wrapping_add(data.len() as u64);
            if self.buffered > 0 {
                let need = 64 - self.buffered;
                let take = need.min(data.len());
                self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
                self.buffered += take;
                data = &data[take..];
                if self.buffered == 64 {
                    let block = self.buffer;
                    self.compress(&block);
                    self.buffered = 0;
                }
            }
            while data.len() >= 64 {
                let mut block = [0u8; 64];
                block.copy_from_slice(&data[..64]);
                self.compress(&block);
                data = &data[64..];
            }
            if !data.is_empty() {
                self.buffer[..data.len()].copy_from_slice(data);
                self.buffered = data.len();
            }
        }

        pub fn finalize(mut self) -> [u8; 20] {
            let bit_length = self.length.wrapping_mul(8);
            self.update(&[0x80]);
            while self.buffered != 56 {
                self.update(&[0x00]);
            }
            self.buffer[56..64].copy_from_slice(&bit_length.to_be_bytes());
            let block = self.buffer;
            self.compress(&block);
            let mut out = [0u8; 20];
            for (i, word) in self.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
            }
            out
        }

        fn compress(&mut self, block: &[u8; 64]) {
            let mut w = [0u32; 80];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            for i in 16..80 {
                w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            }
            let [mut a, mut b, mut c, mut d, mut e] = self.state;
            for (i, &wi) in w.iter().enumerate() {
                let (f, k) = match i {
                    0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                    20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                    40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                    _ => (b ^ c ^ d, 0xCA62C1D6),
                };
                let temp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = temp;
            }
            self.state[0] = self.state[0].wrapping_add(a);
            self.state[1] = self.state[1].wrapping_add(b);
            self.state[2] = self.state[2].wrapping_add(c);
            self.state[3] = self.state[3].wrapping_add(d);
            self.state[4] = self.state[4].wrapping_add(e);
        }
    }

    pub fn sha1(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }
}

use oracle::{MAX_MATCH, MIN_MATCH, WINDOW};

/// The system allocator, noting the largest single request each thread
/// makes, so a test can see what a decoder reserved.
struct NotingAllocator;

thread_local! {
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is passed to `System` unchanged; the only addition
// reads and writes a `Cell<usize>` that needs no allocation and no drop.
unsafe impl GlobalAlloc for NotingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.with(|largest| largest.set(largest.get().max(layout.size())));
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: NotingAllocator = NotingAllocator;

fn xorshift_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 56) as u8
        })
        .collect()
}

/// Where two streams first differ, so a failure names a byte and not two
/// half-megabyte vectors.
fn assert_same_stream(data: &[u8], what: &str) {
    let (new, old) = (compress(data), oracle::compress(data));
    if new != old {
        let at = new.iter().zip(&old).position(|(a, b)| a != b);
        panic!(
            "{what} ({} bytes): stream differs from the oracle's at byte {at:?} \
             (lengths {} vs {})",
            data.len(),
            new.len(),
            old.len()
        );
    }
}

/// Both decoders on one input: equal output or the same error variant.
fn assert_same_decode(stream: &[u8], what: &str) {
    assert_eq!(decompress(stream), oracle::decompress(stream), "{what}");
}

#[test]
fn encoder_agrees_around_every_length_edge() {
    // Each edge length as a one-byte run, a short period, random bytes,
    // and a random block that recurs at exactly that distance.
    let edges = [
        0,
        1,
        MIN_MATCH - 1,
        MIN_MATCH,
        MIN_MATCH + 1,
        2 * MIN_MATCH,
        MAX_MATCH - 1,
        MAX_MATCH,
        MAX_MATCH + 1,
        MAX_MATCH + MIN_MATCH - 1,
        MAX_MATCH + MIN_MATCH,
        2 * MAX_MATCH + 1,
        WINDOW - 1,
        WINDOW,
        WINDOW + 1,
        WINDOW + MAX_MATCH + 1,
        2 * WINDOW + 3,
    ];
    let block = xorshift_bytes(MAX_MATCH + 7, 0xb10c);
    for &n in &edges {
        assert_same_stream(&vec![0xa5; n], "run");
        let period: Vec<u8> = b"abcde".iter().cycle().take(n).cloned().collect();
        assert_same_stream(&period, "period 5");
        assert_same_stream(&xorshift_bytes(n, n as u64), "random");
        // block, n - |block| bytes of noise, block again: the second copy
        // sits exactly `n` behind, inside the window or just outside it.
        if n > block.len() {
            let mut data = block.clone();
            data.extend(xorshift_bytes(n - block.len(), 0x9e37));
            data.extend_from_slice(&block);
            data.extend_from_slice(b"tail");
            assert_same_stream(&data, "block recurring at distance n");
        }
    }
}

#[test]
fn encoder_agrees_on_the_benchmark_corpora_chunk_by_chunk() {
    // What `stackbench` uploads: `bulk_upload`'s 8 MiB base file and
    // `cold_join`'s twelve 1 MiB media files (ops 3000..3012 of its set-up),
    // cut at the client's 512 KiB chunk size.
    let mut files = vec![workload::content_gen::generate_default(8 << 20, 0x8_0000)];
    files.extend(
        (3000..3012u64).map(|op| workload::content_gen::generate_default(1 << 20, 0x10_0000 + op)),
    );
    for (f, file) in files.iter().enumerate() {
        for (c, chunk) in file.chunks(content::DEFAULT_CHUNK_SIZE).enumerate() {
            assert_same_stream(chunk, &format!("file {f} chunk {c}"));
        }
    }
}

#[test]
fn earlier_inputs_on_the_thread_leave_nothing_behind() {
    // The match tables outlive a call. Large before small, compressible
    // before random, and the same input twice in a row: every stream must be
    // the one a thread that never compressed anything produces.
    let large = workload::content_gen::generate(3 * WINDOW + 17, 11, 0.5);
    let text = workload::content_gen::generate(5000, 12, 1.0);
    let inputs: [&[u8]; 9] = [
        &large,
        &large[..64],
        &large[..WINDOW + 1],
        &text,
        &large[..2048],
        &text,
        &[],
        &large[7..MAX_MATCH + 7],
        &large,
    ];
    let fresh: Vec<Vec<u8>> = inputs
        .iter()
        .map(|data| {
            let data = data.to_vec();
            std::thread::spawn(move || compress(&data)).join().unwrap()
        })
        .collect();
    for round in 0..3 {
        for (i, data) in inputs.iter().enumerate() {
            assert_eq!(compress(data), fresh[i], "round {round} input {i}");
            assert_eq!(fresh[i], oracle::compress(data), "input {i} vs oracle");
        }
    }
}

#[test]
fn decoder_agrees_on_every_truncation_of_a_mixed_stream() {
    let data = workload::content_gen::generate(6000, 21, 0.5);
    let stream = compress(&data);
    assert_eq!(decompress(&stream).unwrap(), data);
    for cut in 0..=stream.len() {
        assert_same_decode(&stream[..cut], &format!("cut at {cut}"));
    }
}

#[test]
fn decoder_does_not_reserve_what_the_header_claims() {
    // Nine bytes from the store claiming 4 GiB: the reservation is bounded by
    // what nine bytes can expand to, and the stream simply runs out.
    let mut claim = b"LZS1".to_vec();
    claim.extend_from_slice(&u32::MAX.to_le_bytes());
    claim.push(0);
    let mut framed = vec![1u8];
    framed.extend_from_slice(&claim);
    // The same claim over 25 bytes that do expand, to 8 × 258: all of it is
    // decoded before the end is found.
    let mut expanding = claim[..8].to_vec();
    expanding.extend_from_slice(&[0b1111_1110, 7]);
    expanding.extend_from_slice(&[1, 0, 254].repeat(7));

    LARGEST_REQUEST.with(|largest| largest.set(0));
    assert_eq!(decompress(&claim), Err(CompressError::Truncated));
    assert_eq!(
        Algorithm::decompress(&framed),
        Err(CompressError::Truncated)
    );
    assert_eq!(decompress(&expanding), Err(CompressError::Truncated));
    let largest = LARGEST_REQUEST.with(Cell::get);
    assert!(
        largest <= 2 * 8 * MAX_MATCH,
        "a 4 GiB claim made the decoder ask for {largest} bytes"
    );
}

proptest! {
    #[test]
    fn prop_encoder_agrees_on_random_bytes(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        assert_same_stream(&data, "random");
    }

    #[test]
    fn prop_encoder_agrees_on_text_and_mixed_content(
        len in 0usize..80_000,
        seed in any::<u64>(),
        compressibility in 0.0f64..1.0,
    ) {
        assert_same_stream(&workload::content_gen::generate(len, seed, 1.0), "text");
        assert_same_stream(&workload::content_gen::generate(len, seed, compressibility), "mixed");
    }

    #[test]
    fn prop_encoder_agrees_on_a_small_alphabet(
        data in proptest::collection::vec(0u8..3, 0..6_000),
    ) {
        // Long chains, many candidates sharing four bytes, matches that
        // overlap their own source.
        assert_same_stream(&data, "alphabet of 3");
    }

    #[test]
    fn prop_encoder_agrees_on_single_byte_runs(b in any::<u8>(), reps in 0usize..100_000) {
        assert_same_stream(&vec![b; reps], "run");
    }

    #[test]
    fn prop_encoder_agrees_on_noise_then_pattern(
        noise in proptest::collection::vec(any::<u8>(), 0..6_000),
        pattern in proptest::collection::vec(any::<u8>(), 1..300),
        repeats in 0usize..200,
    ) {
        let mut data = noise;
        for _ in 0..repeats {
            data.extend_from_slice(&pattern);
        }
        assert_same_stream(&data, "noise then pattern");
    }

    #[test]
    fn prop_decoder_agrees_on_valid_and_damaged_streams(
        len in 0usize..12_000,
        seed in any::<u64>(),
        compressibility in 0.0f64..1.0,
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        let data = workload::content_gen::generate(len, seed, compressibility);
        let stream = compress(&data);
        prop_assert_eq!(decompress(&stream).as_deref(), Ok(&data[..]));
        assert_same_decode(&stream, "valid");
        assert_same_decode(&stream[..cut % (stream.len() + 1)], "truncated");
        let mut damaged = stream.clone();
        for (at, bit) in flips {
            // Not the length's top byte: the oracle reserves what it claims.
            let at = at % damaged.len();
            if at != 7 {
                damaged[at] ^= 1 << bit;
            }
        }
        assert_same_decode(&damaged, "bit-flipped");
        assert_same_decode(&damaged[..cut % (damaged.len() + 1)], "bit-flipped and truncated");
    }

    #[test]
    fn prop_decoder_agrees_on_arbitrary_token_streams(
        claimed in 0u32..4_000,
        tokens in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        // Not an encoder's output: any flag pattern, any distance, matches
        // that overlap themselves or overshoot the claimed length.
        let mut stream = b"LZS1".to_vec();
        stream.extend_from_slice(&claimed.to_le_bytes());
        stream.extend_from_slice(&tokens);
        assert_same_decode(&stream, "arbitrary tokens");
    }

    #[test]
    fn prop_sha1_agrees_on_random_lengths_and_update_splits(
        len in 0usize..(1 << 20),
        seed in any::<u64>(),
        splits in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let data = xorshift_bytes(len, seed);
        let expected = oracle::sha1(&data);
        prop_assert_eq!(sha1(&data), expected);
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (len + 1)).collect();
        cuts.sort_unstable();
        let (mut streamed, mut from) = (Sha1::new(), 0);
        for cut in cuts.into_iter().chain([len]) {
            streamed.update(&data[from..cut]);
            from = cut;
        }
        prop_assert_eq!(streamed.finalize(), expected);
    }
}

#[test]
fn sha1_agrees_on_every_length_to_300() {
    let data = xorshift_bytes(300, 0x5a1);
    for len in 0..=300 {
        assert_eq!(
            sha1(&data[..len]),
            oracle::sha1(&data[..len]),
            "length {len}"
        );
    }
}

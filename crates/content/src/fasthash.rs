//! `fasthash` — a from-scratch BLAKE3-shaped tree hash for chunk
//! fingerprinting.
//!
//! SHA-1 processes one 64-byte block at a time through an 80-step
//! serial dependency chain, which caps fingerprinting at a few hundred
//! MB/s per core and cannot use more than one core per chunk. This
//! module replaces it (behind [`crate::Fingerprint`]; SHA-1 stays the
//! default for paper fidelity) with a tree hash in the shape of BLAKE3:
//!
//! * a **keyed compression function** over fixed 128-byte blocks: an ARX
//!   (add/rotate/xor) permutation of a 16×u64 state, 4 rounds of 8
//!   quarter-round G applications (columns then diagonals), with the
//!   message schedule permuted between rounds;
//! * input split into fixed **4 KiB leaf chunks**, each hashed as a
//!   chain of block compressions carrying a chunk counter and
//!   `CHUNK_START`/`CHUNK_END` domain flags;
//! * leaf chaining values combined pairwise up a **binary tree** whose
//!   left subtree always holds the largest power-of-two number of leaf
//!   chunks strictly smaller than the total — so the tree shape is a
//!   pure function of input length, any subtree can be hashed
//!   independently (on another core), and streaming needs only a
//!   logarithmic stack of pending subtree values;
//! * the final compression — and only it — carries the `ROOT` flag, so
//!   a chunk/subtree value can never be confused with a whole-input
//!   digest.
//!
//! The one-shot [`hash`], the streaming [`FastHasher`], and the
//! multi-core [`hash_parallel`] all produce bit-identical digests
//! (property-tested over random split points).
//!
//! **Not cryptographic.** The round count is reduced (4 rather than
//! BLAKE2b's 12) and the design is unanalyzed; this is a corruption- and
//! dedup-grade content fingerprint, not a security primitive —
//! exactly the role SHA-1 plays in the paper (§4.1), where the threat
//! model is accidental collision, not an adversary.

use crate::ChunkId;

/// Bytes per compression-function block (16 × u64).
pub const BLOCK_LEN: usize = 128;
/// Bytes per leaf chunk (32 blocks).
pub const CHUNK_LEN: usize = 4096;
/// Digest length in bytes (4 × u64).
pub const OUT_LEN: usize = 32;

/// Initialization vector: the first eight words of the BLAKE2b IV
/// (fractional parts of √2, √3, √5, √7, √11, √13, √17, √19).
const IV: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

/// Domain-separation flags mixed into every compression.
const CHUNK_START: u64 = 1 << 0;
const CHUNK_END: u64 = 1 << 1;
const PARENT: u64 = 1 << 2;
const ROOT: u64 = 1 << 3;

/// The message-word permutation applied between rounds (BLAKE3's
/// schedule: round r uses `PERM` applied r times to the block words).
const PERM: [usize; 16] = [2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8];

/// One ARX quarter-round on four state words and two message words.
/// Rotation constants are BLAKE2b's (32, 24, 16, 63), chosen there for
/// full diffusion on 64-bit words.
#[inline(always)]
fn g(v: &mut [u64; 16], a: usize, b: usize, c: usize, d: usize, mx: u64, my: u64) {
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(mx);
    v[d] = (v[d] ^ v[a]).rotate_right(32);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(24);
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(my);
    v[d] = (v[d] ^ v[a]).rotate_right(16);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(63);
}

#[inline(always)]
fn round(v: &mut [u64; 16], m: &[u64; 16]) {
    // Columns.
    g(v, 0, 4, 8, 12, m[0], m[1]);
    g(v, 1, 5, 9, 13, m[2], m[3]);
    g(v, 2, 6, 10, 14, m[4], m[5]);
    g(v, 3, 7, 11, 15, m[6], m[7]);
    // Diagonals.
    g(v, 0, 5, 10, 15, m[8], m[9]);
    g(v, 1, 6, 11, 12, m[10], m[11]);
    g(v, 2, 7, 8, 13, m[12], m[13]);
    g(v, 3, 4, 9, 14, m[14], m[15]);
}

#[inline(always)]
fn permute(m: &mut [u64; 16]) {
    let mut out = [0u64; 16];
    for i in 0..16 {
        out[i] = m[PERM[i]];
    }
    *m = out;
}

/// A chaining value: the full 8-word compression output. Parents consume
/// two of these (2 × 64 bytes = exactly one block).
type Cv = [u64; 8];

/// The keyed compression function. `counter` is the leaf-chunk index (0
/// for parents), `block_len` the number of real payload bytes in the
/// block, `flags` the domain separation.
#[inline]
fn compress(cv: &Cv, block: &[u64; 16], counter: u64, block_len: u64, flags: u64) -> Cv {
    let mut v = [
        cv[0],
        cv[1],
        cv[2],
        cv[3],
        cv[4],
        cv[5],
        cv[6],
        cv[7],
        IV[0],
        IV[1],
        IV[2],
        IV[3],
        IV[4] ^ counter,
        IV[5] ^ block_len,
        IV[6] ^ flags,
        IV[7],
    ];
    let mut m = *block;
    round(&mut v, &m);
    permute(&mut m);
    round(&mut v, &m);
    permute(&mut m);
    round(&mut v, &m);
    permute(&mut m);
    round(&mut v, &m);
    [
        v[0] ^ v[8],
        v[1] ^ v[9],
        v[2] ^ v[10],
        v[3] ^ v[11],
        v[4] ^ v[12],
        v[5] ^ v[13],
        v[6] ^ v[14],
        v[7] ^ v[15],
    ]
}

/// Loads a (possibly short) byte block into 16 little-endian words,
/// zero-padded.
#[inline]
fn load_block(bytes: &[u8]) -> [u64; 16] {
    debug_assert!(bytes.len() <= BLOCK_LEN);
    let mut m = [0u64; 16];
    let mut chunks = bytes.chunks_exact(8);
    for (i, c) in chunks.by_ref().enumerate() {
        m[i] = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        m[bytes.len() / 8] = u64::from_le_bytes(last);
    }
    m
}

/// Hashes one leaf chunk (≤ [`CHUNK_LEN`] bytes) to its chaining value.
/// `extra_flags` is `ROOT` when the chunk is the entire input.
fn chunk_cv(key: &Cv, chunk: &[u8], counter: u64, extra_flags: u64) -> Cv {
    debug_assert!(chunk.len() <= CHUNK_LEN);
    let mut cv = *key;
    if chunk.is_empty() {
        // Zero-length input: a single empty block carries all the flags.
        return compress(
            &cv,
            &[0u64; 16],
            counter,
            0,
            CHUNK_START | CHUNK_END | extra_flags,
        );
    }
    let blocks = chunk.len().div_ceil(BLOCK_LEN);
    for (i, block) in chunk.chunks(BLOCK_LEN).enumerate() {
        let mut flags = 0;
        if i == 0 {
            flags |= CHUNK_START;
        }
        if i + 1 == blocks {
            flags |= CHUNK_END | extra_flags;
        }
        cv = compress(&cv, &load_block(block), counter, block.len() as u64, flags);
    }
    cv
}

/// Combines two child chaining values into a parent value.
fn parent_cv(key: &Cv, left: &Cv, right: &Cv, extra_flags: u64) -> Cv {
    let mut block = [0u64; 16];
    block[..8].copy_from_slice(left);
    block[8..].copy_from_slice(right);
    compress(key, &block, 0, BLOCK_LEN as u64, PARENT | extra_flags)
}

/// Number of leaf chunks in the left subtree: the largest power of two
/// strictly smaller than the total chunk count (BLAKE3's tree rule).
fn left_chunks(total_chunks: usize) -> usize {
    debug_assert!(total_chunks > 1);
    let mut p = 1usize;
    while p * 2 < total_chunks {
        p *= 2;
    }
    p
}

/// Hashes a subtree spanning whole leaf chunks, sequentially.
fn subtree_cv(key: &Cv, data: &[u8], chunk_counter: u64) -> Cv {
    if data.len() <= CHUNK_LEN {
        return chunk_cv(key, data, chunk_counter, 0);
    }
    let total = data.len().div_ceil(CHUNK_LEN);
    let split = left_chunks(total) * CHUNK_LEN;
    let left = subtree_cv(key, &data[..split], chunk_counter);
    let right = subtree_cv(
        key,
        &data[split..],
        chunk_counter + (split / CHUNK_LEN) as u64,
    );
    parent_cv(key, &left, &right, 0)
}

/// Below this many bytes a subtree is hashed where it is: a thread spawn
/// costs more than the hash work it would take over.
const PARALLEL_MIN: usize = 128 * 1024;

#[cfg(test)]
thread_local! {
    /// Threads the parallel hash spawned from this thread, so a test can
    /// see that small inputs start none (per thread: tests run in
    /// parallel).
    static SPAWNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Chaining values of the two subtrees under the node covering `data`
/// (more than one leaf chunk), the right one on a second thread when the
/// budget and [`PARALLEL_MIN`] allow. The root and every inner node split
/// here, so one threshold governs both.
fn children_cv_parallel(key: &Cv, data: &[u8], chunk_counter: u64, budget: usize) -> (Cv, Cv) {
    let total = data.len().div_ceil(CHUNK_LEN);
    let split = left_chunks(total) * CHUNK_LEN;
    let (ldata, rdata) = data.split_at(split);
    let rcounter = chunk_counter + (split / CHUNK_LEN) as u64;
    if budget <= 1 || data.len() < PARALLEL_MIN {
        return (
            subtree_cv(key, ldata, chunk_counter),
            subtree_cv(key, rdata, rcounter),
        );
    }
    let (lbudget, rbudget) = (budget / 2 + budget % 2, budget / 2);
    #[cfg(test)]
    SPAWNS.with(|spawns| spawns.set(spawns.get() + 1));
    std::thread::scope(|scope| {
        let r = scope.spawn(move || subtree_cv_parallel(key, rdata, rcounter, rbudget));
        let left = subtree_cv_parallel(key, ldata, chunk_counter, lbudget);
        (left, r.join().expect("fasthash worker panicked"))
    })
}

/// Hashes a subtree, splitting work across up to `budget` threads.
fn subtree_cv_parallel(key: &Cv, data: &[u8], chunk_counter: u64, budget: usize) -> Cv {
    if data.len() <= CHUNK_LEN {
        return chunk_cv(key, data, chunk_counter, 0);
    }
    let (left, right) = children_cv_parallel(key, data, chunk_counter, budget);
    parent_cv(key, &left, &right, 0)
}

fn root_digest(cv: &Cv) -> [u8; OUT_LEN] {
    let mut out = [0u8; OUT_LEN];
    for (i, w) in cv.iter().take(OUT_LEN / 8).enumerate() {
        out[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// The default key: hashing is "keyed" in structure (the chunk chain
/// starts from a key, not a constant), with a fixed well-known key for
/// the plain fingerprint use.
const DEFAULT_KEY: Cv = IV;

/// One-shot hash of a byte string (single-threaded).
pub fn hash(data: &[u8]) -> [u8; OUT_LEN] {
    hash_keyed(&DEFAULT_KEY, data)
}

/// One-shot hash under an explicit key.
pub fn hash_keyed(key: &Cv, data: &[u8]) -> [u8; OUT_LEN] {
    if data.len() <= CHUNK_LEN {
        return root_digest(&chunk_cv(key, data, 0, ROOT));
    }
    let total = data.len().div_ceil(CHUNK_LEN);
    let split = left_chunks(total) * CHUNK_LEN;
    let left = subtree_cv(key, &data[..split], 0);
    let right = subtree_cv(key, &data[split..], (split / CHUNK_LEN) as u64);
    root_digest(&parent_cv(key, &left, &right, ROOT))
}

/// One-shot hash using up to `workers` threads for the subtree work.
/// `workers <= 1`, or input below the 128 KiB parallel threshold, runs
/// inline.
pub fn hash_parallel(data: &[u8], workers: usize) -> [u8; OUT_LEN] {
    let key = &DEFAULT_KEY;
    if data.len() <= CHUNK_LEN {
        return root_digest(&chunk_cv(key, data, 0, ROOT));
    }
    let (left, right) = children_cv_parallel(key, data, 0, workers);
    root_digest(&parent_cv(key, &left, &right, ROOT))
}

/// Fingerprints a byte string: the first 20 bytes of the 32-byte digest,
/// as a [`ChunkId`].
pub fn fingerprint(data: &[u8]) -> ChunkId {
    let digest = hash(data);
    let mut id = [0u8; 20];
    id.copy_from_slice(&digest[..20]);
    ChunkId::from_bytes(id)
}

/// Streaming hasher producing digests identical to [`hash`].
///
/// Internally a binary-counter stack: after `n` leaf chunks are
/// complete, the stack holds one pending chaining value per set bit of
/// `n` — the roots of the maximal complete subtrees so far — so memory
/// is O(log n) regardless of input length. The final (possibly partial)
/// chunk is buffered rather than eagerly compressed because only
/// `finalize` knows whether it must carry the `ROOT` flag.
#[derive(Debug, Clone)]
pub struct FastHasher {
    key: Cv,
    /// Pending subtree chaining values, leftmost (largest) first.
    stack: Vec<Cv>,
    /// Completed leaf chunks.
    chunks_done: u64,
    /// The current, not-yet-complete leaf chunk.
    buf: Vec<u8>,
}

impl Default for FastHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FastHasher {
    /// Creates a hasher in the initial state (default key).
    pub fn new() -> Self {
        FastHasher {
            key: DEFAULT_KEY,
            stack: Vec::new(),
            chunks_done: 0,
            buf: Vec::with_capacity(CHUNK_LEN),
        }
    }

    /// Absorbs input bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            if self.buf.len() == CHUNK_LEN {
                // More input follows, so the buffered chunk is not the
                // root; fold it into the subtree stack.
                let cv = chunk_cv(&self.key, &self.buf, self.chunks_done, 0);
                self.buf.clear();
                self.chunks_done += 1;
                self.push_chunk_cv(cv);
            }
            let take = (CHUNK_LEN - self.buf.len()).min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            data = &data[take..];
        }
    }

    /// Merges complete sibling subtrees: after chunk `n` (1-based count),
    /// one merge per trailing zero bit of the count.
    fn push_chunk_cv(&mut self, cv: Cv) {
        let mut cv = cv;
        let mut count = self.chunks_done;
        while count & 1 == 0 {
            let left = self.stack.pop().expect("subtree stack underflow");
            cv = parent_cv(&self.key, &left, &cv, 0);
            count >>= 1;
        }
        self.stack.push(cv);
    }

    /// Finishes and returns the 32-byte digest. The hasher is consumed;
    /// clone first to continue absorbing.
    pub fn finalize(self) -> [u8; OUT_LEN] {
        if self.chunks_done == 0 {
            // Entire input fits in one chunk (possibly empty).
            return root_digest(&chunk_cv(&self.key, &self.buf, 0, ROOT));
        }
        let mut cv = chunk_cv(&self.key, &self.buf, self.chunks_done, 0);
        let mut stack = self.stack;
        // Fold pending subtrees right-to-left; the last merge is the root.
        while stack.len() > 1 {
            let left = stack.pop().expect("stack underflow");
            cv = parent_cv(&self.key, &left, &cv, 0);
        }
        let left = stack.pop().expect("stack underflow");
        root_digest(&parent_cv(&self.key, &left, &cv, ROOT))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3);
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
    fn distinct_inputs_distinct_digests() {
        assert_ne!(hash(b""), hash(b"\0"));
        assert_ne!(hash(b"a"), hash(b"b"));
        assert_ne!(hash(&[0u8; CHUNK_LEN]), hash(&[0u8; CHUNK_LEN + 1]));
        // Length extension of the block padding must not collide.
        assert_ne!(hash(&[7u8; 100]), hash(&[7u8; 101]));
    }

    #[test]
    fn deterministic() {
        let data = random_bytes(100_000, 1);
        assert_eq!(hash(&data), hash(&data));
    }

    #[test]
    fn keyed_differs_from_unkeyed() {
        let key = [42u64; 8];
        assert_ne!(hash_keyed(&key, b"data"), hash(b"data"));
    }

    #[test]
    fn chunk_value_is_not_root_value() {
        // A exactly-one-chunk input's digest must differ from the same
        // bytes hashed as a chunk inside a larger tree (ROOT separation):
        // prefix property violations would break dedup integrity.
        let chunk = random_bytes(CHUNK_LEN, 9);
        let mut two = chunk.clone();
        two.extend_from_slice(&random_bytes(CHUNK_LEN, 10));
        assert_ne!(hash(&chunk), hash(&two));
        assert_ne!(hash(&chunk)[..], two[..OUT_LEN]);
    }

    #[test]
    fn tree_boundaries_exact() {
        // Lengths around chunk/block boundaries all hash and all differ.
        let lens = [
            0,
            1,
            BLOCK_LEN - 1,
            BLOCK_LEN,
            BLOCK_LEN + 1,
            CHUNK_LEN - 1,
            CHUNK_LEN,
            CHUNK_LEN + 1,
            2 * CHUNK_LEN,
            3 * CHUNK_LEN + 17,
            8 * CHUNK_LEN,
        ];
        let mut seen = std::collections::HashSet::new();
        for len in lens {
            let d = hash(&vec![0xCDu8; len]);
            assert!(seen.insert(d), "digest collision at length {len}");
        }
    }

    #[test]
    fn streaming_equals_one_shot_fixed_splits() {
        let data = random_bytes(3 * CHUNK_LEN + 511, 4);
        let oneshot = hash(&data);
        for split in [0, 1, 127, 128, CHUNK_LEN - 1, CHUNK_LEN, CHUNK_LEN + 1] {
            let mut h = FastHasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn parallel_spawns_nothing_below_the_threshold() {
        let spawned_by = |len: usize, workers: usize| {
            let data = random_bytes(len, len as u64);
            let before = SPAWNS.with(|spawns| spawns.get());
            assert_eq!(hash_parallel(&data, workers), hash(&data), "len {len}");
            SPAWNS.with(|spawns| spawns.get()) - before
        };
        for workers in [1, 2, 4] {
            for len in [2 * CHUNK_LEN, 64 * 1024, PARALLEL_MIN - 1] {
                assert_eq!(spawned_by(len, workers), 0, "len {len} workers {workers}");
            }
            for len in [PARALLEL_MIN, PARALLEL_MIN + 1, 4 * PARALLEL_MIN] {
                assert_eq!(
                    spawned_by(len, workers) > 0,
                    workers > 1,
                    "len {len} workers {workers}: the root splits on this thread"
                );
            }
        }
    }

    #[test]
    fn parallel_equals_one_shot() {
        for len in [0, 1, CHUNK_LEN, 5 * CHUNK_LEN, 300_000, 1 << 20] {
            let data = random_bytes(len, len as u64);
            let expect = hash(&data);
            for workers in [1, 2, 3, 4, 8] {
                assert_eq!(
                    hash_parallel(&data, workers),
                    expect,
                    "len {len} workers {workers}"
                );
            }
        }
    }

    #[test]
    fn fingerprint_is_digest_prefix() {
        let data = b"fingerprint me";
        let digest = hash(data);
        assert_eq!(fingerprint(data).as_bytes()[..], digest[..20]);
    }

    #[test]
    fn bit_flip_avalanche() {
        // Flipping one input bit should flip roughly half the digest
        // bits; require at least a quarter (64 of 256) to catch gross
        // diffusion failures.
        let data = random_bytes(10_000, 77);
        let base = hash(&data);
        for pos in [0usize, 5_000, 9_999] {
            let mut flipped = data.clone();
            flipped[pos] ^= 0x01;
            let d = hash(&flipped);
            let differing: u32 = base
                .iter()
                .zip(d.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert!(
                differing >= 64,
                "weak diffusion: {differing} bits differ after flipping byte {pos}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_streaming_equals_one_shot(
            len in 0usize..40_000,
            seed in any::<u64>(),
            splits in proptest::collection::vec(0usize..40_000, 0..8),
        ) {
            let data = random_bytes(len, seed);
            let oneshot = hash(&data);
            let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (len + 1)).collect();
            cuts.sort_unstable();
            let mut h = FastHasher::new();
            let mut prev = 0;
            for c in cuts {
                h.update(&data[prev..c]);
                prev = c;
            }
            h.update(&data[prev..]);
            prop_assert_eq!(h.finalize(), oneshot);
        }

        #[test]
        fn prop_parallel_equals_one_shot(len in 0usize..200_000, seed in any::<u64>(), workers in 1usize..6) {
            let data = random_bytes(len, seed);
            prop_assert_eq!(hash_parallel(&data, workers), hash(&data));
        }

        #[test]
        fn prop_no_short_collisions(a in proptest::collection::vec(any::<u8>(), 0..64),
                                    b in proptest::collection::vec(any::<u8>(), 0..64)) {
            if a != b {
                prop_assert_ne!(hash(&a), hash(&b));
            }
        }
    }
}

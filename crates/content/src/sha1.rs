//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! StackSync identifies every 512 KB chunk by the 20 bytes of its SHA-1
//! hash (paper §4.1). SHA-1 is cryptographically broken for collision
//! resistance, but this reproduction keeps it for fidelity to the paper.
//!
//! The block function has two kernels with one result. On an x86_64 CPU
//! that reports the SHA extensions (SHA-NI) with SSSE3 and SSE4.1, whole
//! blocks go through the SHA-NI instructions; everywhere else through the
//! portable rounds. The choice is made once per process, from the CPU
//! alone, and is published as the `content.sha1.hardware` gauge (1 for
//! SHA-NI, 0 for portable) so that a hash figure says which kernel made it.

use std::sync::OnceLock;

/// Streaming SHA-1 hasher.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Bytes processed so far (for the length padding).
    length: u64,
    buffer: [u8; 64],
    buffered: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            length: 0,
            buffer: [0; 64],
            buffered: 0,
        }
    }

    /// Absorbs input bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Whole blocks are read where they lie, in one run.
        let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
        compress_blocks(&mut self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finishes and returns the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        // Padding: 0x80, zeros to 56 mod 64, 8-byte big-endian bit length.
        let bit_length = self.length.wrapping_mul(8);
        let mut padding = [0u8; 72];
        padding[0] = 0x80;
        let zeros = (119 - self.buffered) % 64;
        padding[1 + zeros..9 + zeros].copy_from_slice(&bit_length.to_be_bytes());
        self.update(&padding[..9 + zeros]);
        let mut out = [0u8; 20];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One round: `$e` takes the step's sum and `$b` its rotation, in place.
/// The caller renames the five registers from round to round, which is
/// the specification's `e = d; d = c; …` shuffle at no cost.
macro_rules! round {
    ($f:ident, $k:literal, $w:expr; $a:ident $b:ident $c:ident $d:ident $e:ident) => {
        $e = $e
            .wrapping_add($a.rotate_left(5))
            .wrapping_add($f($b, $c, $d))
            .wrapping_add($k)
            .wrapping_add($w);
        $b = $b.rotate_left(30);
    };
}

/// Five rounds, after which the registers are back in their places.
/// `$w` maps a round number to its schedule word.
macro_rules! rounds5 {
    ($f:ident, $k:literal, $w:ident, $t:expr; $a:ident $b:ident $c:ident $d:ident $e:ident) => {
        round!($f, $k, $w($t); $a $b $c $d $e);
        round!($f, $k, $w($t + 1); $e $a $b $c $d);
        round!($f, $k, $w($t + 2); $d $e $a $b $c);
        round!($f, $k, $w($t + 3); $c $d $e $a $b);
        round!($f, $k, $w($t + 4); $b $c $d $e $a);
    };
}

macro_rules! rounds20 {
    ($f:ident, $k:literal, $w:ident, $t:expr; $($r:ident)+) => {
        rounds5!($f, $k, $w, $t; $($r)+);
        rounds5!($f, $k, $w, $t + 5; $($r)+);
        rounds5!($f, $k, $w, $t + 10; $($r)+);
        rounds5!($f, $k, $w, $t + 15; $($r)+);
    };
}

// The round functions with an operation fewer each than as the standard
// writes them: `choose` in three, `majority` in four.
fn choose(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

fn majority(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

/// The block function, its 80 rounds written out: every schedule index and
/// rotation is a constant and the schedule is the sixteen words a round can
/// still reach, not all eighty.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("four bytes"));
    }
    let mut schedule = |t: usize| {
        if t >= 16 {
            w[t % 16] =
                (w[(t + 13) % 16] ^ w[(t + 8) % 16] ^ w[(t + 2) % 16] ^ w[t % 16]).rotate_left(1);
        }
        w[t % 16]
    };
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    rounds20!(choose, 0x5A827999, schedule, 0; a b c d e);
    rounds20!(parity, 0x6ED9EBA1, schedule, 20; a b c d e);
    rounds20!(majority, 0x8F1BBCDC, schedule, 40; a b c d e);
    rounds20!(parity, 0xCA62C1D6, schedule, 60; a b c d e);
    for (word, add) in state.iter_mut().zip([a, b, c, d, e]) {
        *word = word.wrapping_add(add);
    }
}

/// Runs the block function over whole 64-byte blocks: on SHA-NI where the
/// CPU has it, in the portable rounds elsewhere.
fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    if hardware() {
        // SAFETY: `hardware()`, the check on the line before, is true only
        // where `is_x86_feature_detected!` found every feature
        // `ni::compress_blocks` enables.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        return unsafe { ni::compress_blocks(state, blocks) };
    }
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("64-byte block"));
    }
}

/// Whether whole blocks go through SHA-NI. The CPU is asked once per
/// process, and the answer is published as `content.sha1.hardware`.
fn hardware() -> bool {
    static HARDWARE: OnceLock<bool> = OnceLock::new();
    *HARDWARE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let hardware = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        obs::gauge("content.sha1.hardware").set(f64::from(u8::from(hardware)));
        hardware
    })
}

/// The block function on the SHA extensions. One `sha1rnds4` runs four
/// rounds on a, b, c, d (lanes 3 to 0 of one register); `sha1nexte`
/// derives the next four rounds' e from a four rounds back and adds it to
/// their schedule words; `sha1msg1`/`sha1msg2` extend the schedule four
/// words at a time.
#[cfg(target_arch = "x86_64")]
mod ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_set_epi32, _mm_sha1msg1_epu32,
        _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32, _mm_xor_si128,
    };

    /// Runs whole 64-byte blocks. SSE4.1 is for reading the state back
    /// out; SSSE3 lets the compiler make the sixteen big-endian word reads
    /// one load and a byte shuffle.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
        let mut abcd = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[2] as i32,
            state[3] as i32,
        );
        let mut e = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        for block in blocks.chunks_exact(64) {
            let word = |i: usize| {
                i32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("four bytes"))
            };
            // Schedule words 4g..4g+3 of group g sit in `w[g % 4]`, the
            // earliest in lane 3.
            let mut w: [__m128i; 4] = [0, 4, 8, 12]
                .map(|i| _mm_set_epi32(word(i), word(i + 1), word(i + 2), word(i + 3)));
            let (abcd_in, e_in) = (abcd, e);
            // Group 0 takes e as it is; `before` is a, b, c, d as the group
            // before the current one found them.
            let mut before = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, _mm_add_epi32(e, w[0]));
            macro_rules! group {
                ($f:literal, $g:literal) => {
                    let e_w = _mm_sha1nexte_epu32(before, w[$g % 4]);
                    before = abcd;
                    abcd = _mm_sha1rnds4_epu32::<$f>(abcd, e_w);
                };
            }
            macro_rules! scheduled_groups {
                ($f:literal; $($g:literal)+) => {$(
                    w[$g % 4] = _mm_sha1msg2_epu32(
                        _mm_xor_si128(
                            _mm_sha1msg1_epu32(w[$g % 4], w[($g + 1) % 4]),
                            w[($g + 2) % 4],
                        ),
                        w[($g + 3) % 4],
                    );
                    group!($f, $g);
                )+};
            }
            group!(0, 1);
            group!(0, 2);
            group!(0, 3);
            scheduled_groups!(0; 4);
            scheduled_groups!(1; 5 6 7 8 9);
            scheduled_groups!(2; 10 11 12 13 14);
            scheduled_groups!(3; 15 16 17 18 19);
            abcd = _mm_add_epi32(abcd, abcd_in);
            e = _mm_sha1nexte_epu32(before, e_in);
        }
        state[0] = _mm_extract_epi32::<3>(abcd) as u32;
        state[1] = _mm_extract_epi32::<2>(abcd) as u32;
        state[2] = _mm_extract_epi32::<1>(abcd) as u32;
        state[3] = _mm_extract_epi32::<0>(abcd) as u32;
        state[4] = _mm_extract_epi32::<3>(e) as u32;
    }
}

/// One-shot SHA-1 of a byte string.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8; 20]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let oneshot = sha1(&data);
        // Feed in awkward sizes crossing block boundaries.
        let mut h = Sha1::new();
        let mut rest = &data[..];
        for size in [1usize, 3, 63, 64, 65, 127, 1000].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let take = (*size).min(rest.len());
            h.update(&rest[..take]);
            rest = &rest[take..];
        }
        assert_eq!(h.finalize(), oneshot);
    }

    /// Deterministic filler bytes.
    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// The portable rounds alone, block by block, whatever the CPU has.
    fn portable_blocks(state: &mut [u32; 5], blocks: &[u8]) {
        for block in blocks.chunks_exact(64) {
            compress(state, block.try_into().unwrap());
        }
    }

    /// SHA-1 with the portable rounds and the padding as FIPS 180-1 states
    /// it, apart from `Sha1`'s buffering and dispatch.
    fn portable_sha1(data: &[u8]) -> [u8; 20] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = Sha1::new().state;
        portable_blocks(&mut state, &padded);
        let mut out = [0u8; 20];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn dispatch_takes_sha_ni_exactly_when_the_cpu_reports_it() {
        #[cfg(target_arch = "x86_64")]
        let reported = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let reported = false;
        assert_eq!(hardware(), reported);
        let gauge = obs::gauge("content.sha1.hardware").value();
        assert_eq!(gauge, if reported { 1.0 } else { 0.0 });
    }

    #[test]
    fn block_function_matches_the_portable_rounds_on_1_to_64_blocks() {
        for n in 1..=64 {
            let data = bytes(n * 64, n as u64);
            let (mut dispatched, mut portable) = ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]);
            compress_blocks(&mut dispatched, &data);
            portable_blocks(&mut portable, &data);
            assert_eq!(dispatched, portable, "{n} blocks");
        }
    }

    #[test]
    fn block_function_matches_the_portable_rounds_on_a_4_mib_run() {
        let data = bytes(4 << 20, 64);
        let mut dispatched = Sha1::new().state;
        let mut portable = dispatched;
        compress_blocks(&mut dispatched, &data);
        portable_blocks(&mut portable, &data);
        assert_eq!(dispatched, portable);
        assert_eq!(sha1(&data), portable_sha1(&data));
    }

    #[test]
    fn every_update_tail_matches_the_portable_digest() {
        for tail in 0..64 {
            let data = bytes(5 * 64 + tail, 100 + tail as u64);
            let want = portable_sha1(&data);
            assert_eq!(sha1(&data), want, "one update, tail {tail}");
            // A buffered head, then a whole-block run and the tail.
            let mut h = Sha1::new();
            h.update(&data[..7]);
            h.update(&data[7..]);
            assert_eq!(h.finalize(), want, "split update, tail {tail}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // 55, 56, 63, 64, 65 bytes exercise the padding edge cases.
        for len in [55usize, 56, 63, 64, 65, 119, 120] {
            let data = vec![0xabu8; len];
            let d1 = sha1(&data);
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "length {len}");
        }
    }
}

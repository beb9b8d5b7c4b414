//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! StackSync identifies every 512 KB chunk by the 20 bytes of its SHA-1
//! hash (paper §4.1). SHA-1 is cryptographically broken for collision
//! resistance, but this reproduction keeps it for fidelity to the paper;
//! swapping the fingerprint function is a one-line change in callers.

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
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Whole blocks are read where they lie.
        let mut blocks = data.chunks_exact(64);
        for block in blocks.by_ref() {
            compress(&mut self.state, block.try_into().expect("64-byte block"));
        }
        let rest = blocks.remainder();
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

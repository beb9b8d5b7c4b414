//! Inputs, made from the seed and nothing else: the same seed gives the
//! same bytes, paths and schedule on every run and every host.

use std::time::{Duration, Instant};

/// SplitMix64: small, fast, and good enough to make incompressible bytes.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator for one stream of a seed; streams do not overlap in
    /// practice because the state is mixed before first use.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `len` incompressible bytes for op `op` of a run seeded with `seed`.
pub fn random_bytes(seed: u64, op: u64, len: usize) -> Vec<u8> {
    let mut g = SplitMix64::new(seed, op);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&g.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Makes every `stride`-sized chunk of `data` unique to `op` by overwriting
/// its first 16 bytes, so a file derived from a shared base dedups against
/// nothing written before it.
pub fn stamp_chunks(data: &mut [u8], stride: usize, seed: u64, op: u64) {
    let mut g = SplitMix64::new(seed, op ^ 0x5741_4D50);
    for chunk in data.chunks_mut(stride) {
        for word in chunk.chunks_exact_mut(8).take(2) {
            word.copy_from_slice(&g.next_u64().to_le_bytes());
        }
    }
}

/// 64-bit fingerprint of a byte string, fast enough to check every file of
/// a joined device without dominating the run. Not the product's hash, on
/// purpose: the check must not share code with what it checks.
pub fn fingerprint(data: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (data.len() as u64).wrapping_mul(K);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("8-byte window"));
        h = (h ^ v).wrapping_mul(K).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h ^ (h >> 32)
}

/// Sleeps until `due`, finishing with a short spin: `thread::sleep` alone
/// overshoots by the timer slack (50 µs or more), which an open-loop
/// generator would pass on as lateness.
pub fn sleep_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(random_bytes(7, 3, 4096), random_bytes(7, 3, 4096));
        assert_ne!(random_bytes(7, 3, 4096), random_bytes(8, 3, 4096));
        assert_ne!(random_bytes(7, 3, 4096), random_bytes(7, 4, 4096));
        assert_eq!(random_bytes(7, 3, 13).len(), 13);
    }

    #[test]
    fn stamps_touch_every_chunk_and_depend_on_op() {
        let base = random_bytes(1, 0, 4096);
        let (mut a, mut b) = (base.clone(), base.clone());
        stamp_chunks(&mut a, 1024, 1, 10);
        stamp_chunks(&mut b, 1024, 1, 11);
        for i in 0..4 {
            let r = i * 1024..(i + 1) * 1024;
            assert_ne!(a[r.clone()], base[r.clone()]);
            assert_ne!(a[r.clone()], b[r]);
        }
        let mut again = base.clone();
        stamp_chunks(&mut again, 1024, 1, 10);
        assert_eq!(a, again);
    }

    #[test]
    fn fingerprint_sees_length_order_and_tail_bytes() {
        let a = random_bytes(2, 0, 1001);
        let mut b = a.clone();
        b[1000] ^= 1;
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&a[..1000]));
        assert_ne!(fingerprint(&[0; 8]), fingerprint(&[0; 16]));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn sleep_until_does_not_return_early() {
        let due = Instant::now() + Duration::from_millis(3);
        sleep_until(due);
        assert!(Instant::now() >= due);
    }
}

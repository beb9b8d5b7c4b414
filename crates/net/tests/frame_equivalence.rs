//! Property test: the nonblocking frame reassembler decodes *exactly* what
//! the blocking path decodes.
//!
//! The reactor feeds [`FrameBuffer::read_step`] from readiness events, so
//! frames arrive split at arbitrary byte boundaries with `WouldBlock`
//! between every fragment. Whatever the split schedule, the reassembled
//! frame sequence must be byte-for-byte identical to what the blocking
//! [`read_frame`] loop produces over the same stream, and a corrupted length
//! prefix must be rejected by both paths before any oversized allocation.
//!
//! No property-testing crate is available in this workspace, so the
//! generator is a hand-rolled deterministic xorshift PRNG: every failure
//! reproduces from the printed seed.

use net::{encode_frame_into, read_frame, FrameBuffer, FrameError, MAX_FRAME};
use std::io::Read;
use wire::Value;

/// xorshift64* — deterministic, seedable, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// An arbitrary `Value`, depth-bounded so generation terminates.
fn arb_value(rng: &mut Rng, depth: usize) -> Value {
    let variants = if depth == 0 { 6 } else { 8 };
    match rng.below(variants) {
        0 => Value::Null,
        1 => Value::Bool(rng.next() & 1 == 0),
        2 => Value::I64(rng.next() as i64),
        3 => Value::U64(rng.next()),
        4 => {
            let len = rng.below(40);
            Value::Str(
                (0..len)
                    .map(|_| char::from(b'a' + rng.below(26) as u8))
                    .collect(),
            )
        }
        5 => {
            let len = rng.below(600);
            Value::Bytes((0..len).map(|_| rng.next() as u8).collect())
        }
        6 => {
            let len = rng.below(4);
            Value::List((0..len).map(|_| arb_value(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.below(4);
            Value::Map(
                (0..len)
                    .map(|i| (format!("k{i}"), arb_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Serves a byte stream in PRNG-sized fragments with a `WouldBlock` after
/// every fragment — the worst-case arrival schedule a nonblocking socket
/// can produce.
struct ChoppyReader {
    data: Vec<u8>,
    pos: usize,
    /// Alternates: a fragment, then a `WouldBlock`, then a fragment…
    blocked: bool,
    rng: Rng,
}

impl ChoppyReader {
    fn exhausted(&self) -> bool {
        self.pos >= self.data.len()
    }
}

impl Read for ChoppyReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.exhausted() {
            // A socket with nothing pending: WouldBlock, never EOF — the
            // connection is still up.
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        if self.blocked {
            self.blocked = false;
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        self.blocked = true;
        let remaining = self.data.len() - self.pos;
        // Mostly tiny fragments (1..=7 bytes) to maximize mid-prefix and
        // mid-body splits; occasionally a large gulp to cover read-ahead.
        let want = if self.rng.below(8) == 0 {
            1 + self.rng.below(remaining.max(1))
        } else {
            1 + self.rng.below(7)
        };
        let n = want.min(remaining).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Decodes every frame in `data` through the blocking `read_frame` loop.
fn decode_blocking(data: &[u8]) -> Vec<(Value, usize)> {
    let mut cursor = data;
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut cursor) {
            Ok(frame) => frames.push(frame),
            Err(FrameError::Eof) => return frames,
            Err(e) => panic!("blocking path failed on valid stream: {e}"),
        }
    }
}

/// Decodes every frame in `data` through the nonblocking reassembler fed by
/// a `ChoppyReader` with the given split schedule.
fn decode_nonblocking(data: &[u8], seed: u64, expected: usize) -> Vec<(Value, usize)> {
    let mut reader = ChoppyReader {
        data: data.to_vec(),
        pos: 0,
        blocked: false,
        rng: Rng::new(seed),
    };
    let mut buffer = FrameBuffer::with_readahead();
    let mut frames = Vec::new();
    // The reactor would re-arm on the next readiness event; here the loop
    // just calls again. Bounded so a reassembler bug cannot hang the test.
    let mut steps = 0usize;
    while frames.len() < expected {
        steps += 1;
        assert!(
            steps < data.len() * 4 + 64,
            "reassembler made no progress: {} of {expected} frames after {steps} steps",
            frames.len()
        );
        match buffer.read_step(&mut reader) {
            Ok(Some(frame)) => {
                frames.push(frame);
                // The read-ahead may have buffered complete frames past the
                // one returned; drain them exactly like the reactor does.
                while let Some(buffered) = buffer.take_buffered().expect("buffered frame decodes") {
                    frames.push(buffered);
                }
            }
            // WouldBlock mid-frame: the partial stays buffered; the step
            // bound above catches a reassembler that stops making progress.
            Ok(None) => {}
            Err(e) => panic!("nonblocking path failed on valid stream: {e}"),
        }
    }
    frames
}

#[test]
fn nonblocking_reassembly_equals_blocking_decode() {
    for case in 0..64u64 {
        let seed = 0x5EED_0000 + case;
        let mut rng = Rng::new(seed);
        let frame_count = 1 + rng.below(8);
        let mut stream = Vec::new();
        let mut originals = Vec::new();
        for _ in 0..frame_count {
            let value = arb_value(&mut rng, 3);
            encode_frame_into(&value, &mut stream).expect("arb values fit MAX_FRAME");
            originals.push(value);
        }

        let blocking = decode_blocking(&stream);
        assert_eq!(blocking.len(), frame_count, "seed {seed}");
        for ((value, _), original) in blocking.iter().zip(&originals) {
            assert_eq!(value, original, "blocking decode diverged, seed {seed}");
        }

        let nonblocking = decode_nonblocking(&stream, seed ^ 0xC0FFEE, frame_count);
        assert_eq!(
            nonblocking.len(),
            blocking.len(),
            "frame count diverged (seed {seed})"
        );
        for (i, ((nb_value, nb_n), (b_value, b_n))) in nonblocking.iter().zip(&blocking).enumerate()
        {
            assert_eq!(nb_value, b_value, "frame {i} diverged (seed {seed})");
            assert_eq!(nb_n, b_n, "frame {i} byte count diverged (seed {seed})");
        }
    }
}

#[test]
fn corrupted_length_prefix_rejected_identically() {
    for case in 0..16u64 {
        let seed = 0xBAD_0000 + case;
        let mut rng = Rng::new(seed);

        // A few valid frames, then one whose length prefix is smashed to a
        // ~4 GiB claim (what FaultProxy's 0xFF corruption produces).
        let good = 1 + rng.below(3);
        let mut stream = Vec::new();
        for _ in 0..good {
            encode_frame_into(&arb_value(&mut rng, 2), &mut stream).unwrap();
        }
        let corrupt_at = stream.len();
        encode_frame_into(&arb_value(&mut rng, 2), &mut stream).unwrap();
        stream[corrupt_at..corrupt_at + 4].fill(0xFF);
        assert!(u32::from_be_bytes([0xFF; 4]) as usize > MAX_FRAME);

        // Blocking path: good frames, then a protocol error.
        let mut cursor = &stream[..];
        for _ in 0..good {
            read_frame(&mut cursor).expect("frames before the corruption decode");
        }
        assert!(
            matches!(read_frame(&mut cursor), Err(FrameError::Protocol(_))),
            "blocking path must reject the oversized prefix, seed {seed}"
        );

        // Nonblocking path over the same bytes, arbitrarily fragmented: the
        // same good frames, then the same rejection — *before* buffering
        // anything near the claimed length.
        let mut reader = ChoppyReader {
            data: stream.clone(),
            pos: 0,
            blocked: false,
            rng: Rng::new(seed ^ 0xD1CE),
        };
        let mut buffer = FrameBuffer::with_readahead();
        let mut decoded = 0usize;
        let mut steps = 0usize;
        let rejected = loop {
            steps += 1;
            assert!(steps < stream.len() * 4 + 64, "no progress, seed {seed}");
            match buffer.read_step(&mut reader) {
                Ok(Some(_)) => {
                    decoded += 1;
                    while let Ok(Some(_)) = buffer.take_buffered() {
                        decoded += 1;
                    }
                }
                Ok(None) => {
                    if let Err(e) = buffer.take_buffered() {
                        break e;
                    }
                }
                Err(e) => break e,
            }
        };
        assert_eq!(
            decoded, good,
            "every frame before the corruption decodes (seed {seed})"
        );
        assert!(
            matches!(rejected, FrameError::Protocol(_)),
            "nonblocking path must reject the oversized prefix, got {rejected} \
             (seed {seed})"
        );
    }
}

//! Record framing: `[len: u32 LE][seq: u64 LE][crc: u64 LE][payload]`.
//!
//! `crc` is FNV-1a over the little-endian `seq` bytes followed by the
//! payload, so a frame whose header and body both survived a crash verifies
//! and anything torn — short header, short payload, or flipped bits — does
//! not. The scanner never panics on arbitrary bytes; it classifies the tail
//! and reports where the last valid frame ended.
//!
//! [`frame_into`] and [`next_frame`] are public so that other files of
//! records (the metadata snapshot) use this framing and this checksum
//! instead of growing their own.

use std::ops::Range;

/// Frame header size: length prefix + sequence number + checksum.
pub(crate) const HEADER_LEN: usize = 4 + 8 + 8;

/// Upper bound on a single record payload. A length prefix above this is
/// treated as corruption rather than an allocation request.
pub const MAX_RECORD_LEN: usize = 64 * 1024 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a sequence of byte slices.
pub(crate) fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut hash = FNV_OFFSET;
    for part in parts {
        for &b in *part {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// Appends one framed record to `buf`. The caller checks that `payload` is
/// no longer than [`MAX_RECORD_LEN`]; the scanner refuses a longer frame.
pub fn frame_into(buf: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_RECORD_LEN);
    let seq_le = seq.to_le_bytes();
    let crc = fnv1a(&[&seq_le, payload]);
    buf.reserve(HEADER_LEN + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&seq_le);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Outcome of scanning for one frame at `at`.
#[derive(Debug)]
pub enum Frame {
    /// A verified record.
    Record {
        /// Sequence number stored in the frame.
        seq: u64,
        /// Where the payload lies in the scanned buffer.
        payload: Range<usize>,
        /// Offset of the frame after this one.
        next: usize,
    },
    /// Clean end of buffer: `at` was the buffer length (or beyond it).
    End,
    /// The bytes at `at` do not form a verifiable frame (torn tail or
    /// corruption).
    Torn {
        /// Why the frame did not verify.
        reason: String,
    },
}

/// Scans the frame starting at byte `at` of `buf`. Never panics, whatever
/// the bytes are.
pub fn next_frame(buf: &[u8], at: usize) -> Frame {
    let remaining = buf.len().saturating_sub(at);
    if remaining == 0 {
        return Frame::End;
    }
    if remaining < HEADER_LEN {
        return Frame::Torn {
            reason: format!("truncated header ({remaining} of {HEADER_LEN} bytes)"),
        };
    }
    let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
    if len > MAX_RECORD_LEN {
        return Frame::Torn {
            reason: format!("implausible record length {len}"),
        };
    }
    if remaining - HEADER_LEN < len {
        return Frame::Torn {
            reason: format!(
                "truncated payload ({} of {len} bytes)",
                remaining - HEADER_LEN
            ),
        };
    }
    let seq = u64::from_le_bytes(buf[at + 4..at + 12].try_into().unwrap());
    let stored_crc = u64::from_le_bytes(buf[at + 12..at + 20].try_into().unwrap());
    let body = at + HEADER_LEN..at + HEADER_LEN + len;
    let computed = fnv1a(&[&seq.to_le_bytes(), &buf[body.clone()]]);
    if computed != stored_crc {
        return Frame::Torn {
            reason: format!("checksum mismatch at seq {seq}"),
        };
    }
    Frame::Record {
        seq,
        payload: body,
        next: at + HEADER_LEN + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let mut buf = Vec::new();
        frame_into(&mut buf, 7, b"hello");
        match next_frame(&buf, 0) {
            Frame::Record { seq, payload, next } => {
                assert_eq!(seq, 7);
                assert_eq!(&buf[payload], b"hello");
                assert_eq!(next, buf.len());
            }
            _ => panic!("expected record"),
        }
        assert!(matches!(next_frame(&buf, buf.len()), Frame::End));
        assert!(matches!(next_frame(&buf, buf.len() + 1), Frame::End));
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut buf = Vec::new();
        frame_into(&mut buf, 3, b"payload");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(matches!(next_frame(&buf, 0), Frame::Torn { .. }));
    }

    #[test]
    fn truncated_frames_are_torn_not_panics() {
        let mut buf = Vec::new();
        frame_into(&mut buf, 1, b"0123456789");
        for cut in 0..buf.len() {
            match next_frame(&buf[..cut], 0) {
                Frame::End => assert_eq!(cut, 0),
                Frame::Torn { .. } => {}
                Frame::Record { .. } => panic!("truncated frame verified at cut {cut}"),
            }
        }
    }

    #[test]
    fn implausible_length_is_rejected_without_allocating() {
        let mut buf = vec![0xffu8; HEADER_LEN];
        buf.extend_from_slice(&[0; 16]);
        assert!(matches!(next_frame(&buf, 0), Frame::Torn { .. }));
    }
}

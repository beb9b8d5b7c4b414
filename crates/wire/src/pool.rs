//! Thread-local encode-buffer pool.
//!
//! Every hot-path serialization used to pay a fresh `Vec` allocation (plus
//! its growth reallocations) per message. [`BufPool`] keeps a small stack of
//! warmed-up buffers per thread so repeated encodes reuse capacity; the
//! convenience wrappers [`encode_pooled`] and [`encode_to_bytes`] cover
//! the common shapes.
//!
//! Buffers handed to the closure are always empty (`len == 0`) but carry
//! whatever capacity previous encodes grew them to. Oversized buffers are
//! not returned to the pool, so one pathological payload cannot pin memory
//! forever.

use crate::{Codec, Value};
use bytes::Bytes;
use std::cell::RefCell;

/// Buffers larger than this are dropped instead of pooled, bounding the
/// per-thread memory the pool can retain.
const MAX_RETAINED: usize = 256 * 1024;

/// Buffers kept per thread. Nested `BufPool::with` calls (an encode that
/// encodes sub-values) each get their own buffer up to this depth.
const MAX_POOLED: usize = 4;

thread_local! {
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// The thread-local buffer pool for hot-path encodes.
///
/// ```
/// use wire::{BufPool, Codec, BinaryCodec, Value};
///
/// let fresh = BinaryCodec.encode(&Value::from("hello"));
/// let pooled = BufPool::with(|buf| {
///     BinaryCodec.encode_into(&Value::from("hello"), buf);
///     buf.clone()
/// });
/// assert_eq!(fresh, pooled);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BufPool;

impl BufPool {
    /// Runs `f` with an empty pooled buffer, returning the buffer to the
    /// pool afterwards. Reentrant: nested calls get distinct buffers.
    pub fn with<T>(f: impl FnOnce(&mut Vec<u8>) -> T) -> T {
        let mut buf = POOL
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_else(|| Vec::with_capacity(256));
        buf.clear();
        let out = f(&mut buf);
        if buf.capacity() <= MAX_RETAINED {
            POOL.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < MAX_POOLED {
                    pool.push(buf);
                }
            });
        }
        out
    }
}

/// Encodes `value` into a pooled buffer and hands the bytes to `f`.
///
/// The bytes are valid only for the duration of the closure; copy them out
/// (e.g. with [`encode_to_bytes`]) if they must outlive it.
pub fn encode_pooled<T>(codec: &dyn Codec, value: &Value, f: impl FnOnce(&[u8]) -> T) -> T {
    BufPool::with(|buf| {
        codec.encode_into(value, buf);
        f(buf)
    })
}

/// Encodes `value` through the pool into a shared [`Bytes`] payload.
///
/// One copy total (pooled buffer → `Bytes`), versus a fresh `encode` which
/// pays the buffer's growth reallocations *and* the `Vec → Bytes`
/// conversion.
pub fn encode_to_bytes(codec: &dyn Codec, value: &Value) -> Bytes {
    encode_pooled(codec, value, Bytes::copy_from_slice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryCodec, JsonCodec};

    fn sample() -> Value {
        Value::Map(vec![
            ("k".into(), Value::from("value")),
            ("n".into(), Value::I64(-99)),
            ("b".into(), Value::Bytes(vec![1, 2, 3])),
            (
                "l".into(),
                Value::List(vec![Value::Null, Value::Bool(true), Value::F64(2.5)]),
            ),
        ])
    }

    #[test]
    fn pooled_encode_matches_fresh_encode() {
        for codec in [&BinaryCodec as &dyn Codec, &JsonCodec] {
            let v = sample();
            let fresh = codec.encode(&v);
            let pooled = encode_pooled(codec, &v, <[u8]>::to_vec);
            assert_eq!(fresh, pooled, "codec {}", codec.name());
            assert_eq!(codec.encoded_len(&v), fresh.len());
            assert_eq!(encode_to_bytes(codec, &v).as_ref(), fresh.as_slice());
        }
    }

    #[test]
    fn buffer_capacity_is_reused_across_calls() {
        // Warm the pool with a large encode, then observe that a later call
        // starts with at least that much capacity.
        let big = Value::Bytes(vec![0u8; 64 * 1024]);
        let warmed = BufPool::with(|buf| {
            BinaryCodec.encode_into(&big, buf);
            buf.capacity()
        });
        let reused = BufPool::with(|buf| buf.capacity());
        assert!(
            reused >= warmed,
            "pool did not retain capacity: {reused} < {warmed}"
        );
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let huge = Value::Bytes(vec![0u8; MAX_RETAINED + 1]);
        BufPool::with(|buf| BinaryCodec.encode_into(&huge, buf));
        let cap = BufPool::with(|buf| buf.capacity());
        assert!(cap <= MAX_RETAINED, "oversized buffer was pooled: {cap}");
    }

    #[test]
    fn nested_with_calls_get_distinct_buffers() {
        BufPool::with(|outer| {
            outer.extend_from_slice(b"outer");
            BufPool::with(|inner| {
                assert!(inner.is_empty());
                inner.extend_from_slice(b"inner");
            });
            assert_eq!(outer.as_slice(), b"outer");
        });
    }

    #[test]
    fn dirty_buffer_prior_contents_do_not_leak() {
        // `with` always hands out an empty buffer even right after a call
        // that filled one.
        BufPool::with(|buf| buf.extend_from_slice(&[0xAA; 128]));
        BufPool::with(|buf| assert!(buf.is_empty()));
    }
}

//! Compact binary codec: one tag byte per value, zigzag varints for
//! integers, length-prefixed strings/bytes/containers. This is the Kryo
//! stand-in and the default ObjectMQ transport.

use crate::error::{WireError, WireResult};
use crate::value::Value;
use crate::{Codec, MAX_DEPTH};

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_I64: u8 = 0x03;
const TAG_U64: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_BYTES: u8 = 0x07;
const TAG_LIST: u8 = 0x08;
const TAG_MAP: u8 = 0x09;

/// The compact binary transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinaryCodec;

impl Codec for BinaryCodec {
    fn encode_into(&self, value: &Value, out: &mut Vec<u8>) {
        write_value(out, value);
    }

    fn decode(&self, bytes: &[u8]) -> WireResult<Value> {
        let mut reader = Reader { bytes, pos: 0 };
        let value = read_value(&mut reader, 0)?;
        if reader.pos != bytes.len() {
            return Err(WireError::TrailingBytes(bytes.len() - reader.pos));
        }
        Ok(value)
    }

    /// Counts the bytes the encoding would take, writing none.
    fn encoded_len(&self, value: &Value) -> usize {
        value_len(value)
    }

    fn name(&self) -> &'static str {
        "binary"
    }
}

fn write_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::I64(v) => {
            out.push(TAG_I64);
            write_varint(out, zigzag(*v));
        }
        Value::U64(v) => {
            out.push(TAG_U64);
            write_varint(out, *v);
        }
        Value::F64(v) => {
            out.push(TAG_F64);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            write_varint(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Value::List(items) => {
            out.push(TAG_LIST);
            write_varint(out, items.len() as u64);
            for item in items {
                write_value(out, item);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            write_varint(out, entries.len() as u64);
            for (key, item) in entries {
                write_varint(out, key.len() as u64);
                out.extend_from_slice(key.as_bytes());
                write_value(out, item);
            }
        }
    }
}

/// Bytes [`write_value`] writes for `value`: its tag, then as
/// [`write_value`] lays it out.
fn value_len(value: &Value) -> usize {
    1 + match value {
        Value::Null | Value::Bool(_) => 0,
        Value::I64(v) => varint_len(zigzag(*v)),
        Value::U64(v) => varint_len(*v),
        Value::F64(_) => 8,
        Value::Str(s) => prefixed_len(s.len()),
        Value::Bytes(b) => prefixed_len(b.len()),
        Value::List(items) => {
            varint_len(items.len() as u64) + items.iter().map(value_len).sum::<usize>()
        }
        Value::Map(entries) => {
            varint_len(entries.len() as u64)
                + entries
                    .iter()
                    .map(|(key, item)| prefixed_len(key.len()) + value_len(item))
                    .sum::<usize>()
        }
    }
}

/// Bytes of `len` bytes behind their varint length prefix.
fn prefixed_len(len: usize) -> usize {
    varint_len(len as u64) + len
}

/// Bytes [`write_varint`] writes for `v`: one per started 7 bits.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> WireResult<u8> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        // `pos + n` must not overflow: a hostile length prefix can be up to
        // `usize::MAX` and wrapping would alias an earlier slice.
        let end = self.pos.checked_add(n).ok_or(WireError::UnexpectedEof)?;
        if end > self.bytes.len() {
            return Err(WireError::UnexpectedEof);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
}

/// Reads one value that `depth` lists and maps already enclose.
fn read_value(r: &mut Reader<'_>, depth: usize) -> WireResult<Value> {
    match r.byte()? {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_I64 => Ok(Value::I64(unzigzag(read_varint(r)?))),
        TAG_U64 => Ok(Value::U64(read_varint(r)?)),
        TAG_F64 => {
            let raw = r.take(8)?;
            let mut buf = [0u8; 8];
            buf.copy_from_slice(raw);
            Ok(Value::F64(f64::from_le_bytes(buf)))
        }
        TAG_STR => {
            let len = read_len(r)?;
            let raw = r.take(len)?;
            let s = std::str::from_utf8(raw).map_err(|_| WireError::InvalidUtf8)?;
            Ok(Value::Str(s.to_string()))
        }
        TAG_BYTES => {
            let len = read_len(r)?;
            Ok(Value::Bytes(r.take(len)?.to_vec()))
        }
        TAG_LIST | TAG_MAP if depth == MAX_DEPTH => Err(WireError::TooDeep),
        TAG_LIST => {
            let len = read_len(r)?;
            let mut items = Vec::with_capacity(len.min(r.remaining()));
            for _ in 0..len {
                items.push(read_value(r, depth + 1)?);
            }
            Ok(Value::List(items))
        }
        TAG_MAP => {
            let len = read_len(r)?;
            let mut entries = Vec::with_capacity(len.min(r.remaining()));
            for _ in 0..len {
                let key_len = read_len(r)?;
                let raw = r.take(key_len)?;
                let key = std::str::from_utf8(raw)
                    .map_err(|_| WireError::InvalidUtf8)?
                    .to_string();
                entries.push((key, read_value(r, depth + 1)?));
            }
            Ok(Value::Map(entries))
        }
        tag => Err(WireError::UnknownTag(tag)),
    }
}

fn read_len(r: &mut Reader<'_>) -> WireResult<usize> {
    let len = read_varint(r)?;
    let len = usize::try_from(len).map_err(|_| WireError::VarintOverflow)?;
    // Every counted element (byte, list item, map entry) consumes at least
    // one input byte, so any count beyond the remaining input is corrupt.
    // Rejecting it here keeps `Vec::with_capacity` bounded by the input
    // size — a hostile 4 GiB length prefix never allocates anything.
    if len > r.remaining() {
        return Err(WireError::UnexpectedEof);
    }
    Ok(len)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(r: &mut Reader<'_>) -> WireResult<u64> {
    let mut result: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = r.byte()?;
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            // Reject non-canonical bits beyond 64.
            if shift == 63 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            return Ok(result);
        }
    }
    Err(WireError::VarintOverflow)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_roundtrips() {
        let cases = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(0),
            Value::I64(-1),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::U64(0),
            Value::U64(u64::MAX),
            Value::F64(0.0),
            Value::F64(-3.25),
            Value::Str(String::new()),
            Value::Str("κόσμος".into()),
            Value::Bytes(vec![]),
            Value::Bytes((0..=255).collect()),
        ];
        for v in cases {
            assert_eq!(BinaryCodec.decode(&BinaryCodec.encode(&v)).unwrap(), v);
        }
    }

    #[test]
    fn small_ints_are_two_bytes() {
        assert_eq!(BinaryCodec.encode(&Value::I64(5)).len(), 2);
        assert_eq!(BinaryCodec.encode(&Value::I64(-5)).len(), 2);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = BinaryCodec.encode(&Value::Str("hello".into()));
        for cut in 0..bytes.len() {
            assert!(BinaryCodec.decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = BinaryCodec.encode(&Value::Null);
        bytes.push(0x00);
        assert!(matches!(
            BinaryCodec.decode(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            BinaryCodec.decode(&[0x7f]),
            Err(WireError::UnknownTag(0x7f))
        ));
    }

    #[test]
    fn huge_length_prefixes_fail_without_allocating() {
        // A hostile peer claims a 4 GiB string / byte string / list / map.
        // Decoding must return Err before any proportional allocation.
        for tag in [TAG_STR, TAG_BYTES, TAG_LIST, TAG_MAP] {
            let mut bytes = vec![tag];
            write_varint(&mut bytes, u32::MAX as u64);
            assert!(
                BinaryCodec.decode(&bytes).is_err(),
                "tag {tag:#04x} accepted a 4 GiB length"
            );
        }
    }

    #[test]
    fn usize_max_length_does_not_overflow_position() {
        // `pos + n` with `n == usize::MAX` would wrap without checked_add;
        // wrapping past `pos` would read an aliased slice instead of Err.
        let mut bytes = vec![TAG_BYTES];
        write_varint(&mut bytes, usize::MAX as u64);
        bytes.extend_from_slice(b"payload");
        assert!(BinaryCodec.decode(&bytes).is_err());
    }

    #[test]
    fn nested_truncation_fails_cleanly() {
        let v = Value::Map(vec![(
            "k".into(),
            Value::List(vec![
                Value::Str("inner".into()),
                Value::Bytes(vec![1, 2, 3]),
            ]),
        )]);
        let bytes = BinaryCodec.encode(&v);
        for cut in 0..bytes.len() {
            assert!(BinaryCodec.decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A `null` inside one-element containers, lists and maps as `lists` says.
    fn nested(lists: &[bool]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for &list in lists {
            if list {
                bytes.extend_from_slice(&[TAG_LIST, 1]);
            } else {
                bytes.extend_from_slice(&[TAG_MAP, 1, 1, b'k']);
            }
        }
        bytes.push(TAG_NULL);
        bytes
    }

    #[test]
    fn nesting_is_bounded_not_the_stack() {
        assert!(BinaryCodec.decode(&nested(&[true; MAX_DEPTH])).is_ok());
        assert!(BinaryCodec.decode(&nested(&[false; MAX_DEPTH])).is_ok());
        assert_eq!(
            BinaryCodec.decode(&nested(&[true; MAX_DEPTH + 1])),
            Err(WireError::TooDeep)
        );
        assert_eq!(
            BinaryCodec.decode(&nested(&[false; MAX_DEPTH + 1])),
            Err(WireError::TooDeep)
        );
        // A 64 KB frame that overflowed a 2 MiB stack before the limit.
        assert_eq!(
            BinaryCodec.decode(&nested(&[true; 32_000])),
            Err(WireError::TooDeep)
        );
    }

    #[test]
    fn zigzag_inverts() {
        for v in [0i64, 1, -1, 42, -42, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::I64),
            any::<u64>().prop_map(Value::U64),
            // Finite floats only: NaN breaks PartialEq-based comparison.
            (-1e12f64..1e12).prop_map(Value::F64),
            ".{0,24}".prop_map(Value::Str),
            proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        ];
        leaf.prop_recursive(3, 48, 6, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
                proptest::collection::vec((".{0,8}", inner), 0..6).prop_map(Value::Map),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_binary_roundtrip(v in arb_value()) {
            let bytes = BinaryCodec.encode(&v);
            prop_assert_eq!(BinaryCodec.decode(&bytes).unwrap(), v);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = BinaryCodec.decode(&bytes);
        }

        #[test]
        fn prop_nesting_past_the_limit_is_refused(
            lists in proptest::collection::vec(any::<bool>(), 0..3 * MAX_DEPTH),
            cut in 0usize..4096,
        ) {
            let bytes = nested(&lists);
            match BinaryCodec.decode(&bytes) {
                Ok(_) => prop_assert!(lists.len() <= MAX_DEPTH),
                Err(e) => {
                    prop_assert!(lists.len() > MAX_DEPTH);
                    prop_assert_eq!(e, WireError::TooDeep);
                }
            }
            let _ = BinaryCodec.decode(&bytes[..cut.min(bytes.len())]);
        }

        #[test]
        fn prop_corrupted_encodings_never_panic(
            v in arb_value(),
            flips in proptest::collection::vec((0usize..4096, any::<u8>()), 1..8),
        ) {
            // Take a valid encoding, corrupt some bytes, decode. Any outcome
            // but a panic or runaway allocation is acceptable.
            let mut bytes = BinaryCodec.encode(&v);
            for (pos, xor) in flips {
                let len = bytes.len();
                bytes[pos % len] ^= xor;
            }
            let _ = BinaryCodec.decode(&bytes);
        }

        #[test]
        fn prop_truncations_never_panic(v in arb_value(), cut in 0usize..4096) {
            let bytes = BinaryCodec.encode(&v);
            let _ = BinaryCodec.decode(&bytes[..cut.min(bytes.len())]);
        }

        #[test]
        fn prop_encode_into_pooled_is_byte_identical(
            values in proptest::collection::vec(arb_value(), 1..8),
            prefix in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            // `encode_into` appends exactly the fresh-`Vec` encoding no
            // matter what the buffer already holds, and pooled buffers
            // (dirty from arbitrary earlier encodes) produce identical
            // bytes for a whole sequence of values.
            for v in &values {
                let fresh = BinaryCodec.encode(v);

                let mut buf = prefix.clone();
                BinaryCodec.encode_into(v, &mut buf);
                prop_assert_eq!(&buf[..prefix.len()], prefix.as_slice());
                prop_assert_eq!(&buf[prefix.len()..], fresh.as_slice());

                let pooled = crate::encode_pooled(&BinaryCodec, v, <[u8]>::to_vec);
                prop_assert_eq!(pooled, fresh);
            }
        }

        #[test]
        fn prop_encoded_len_is_the_length_of_the_encoding(v in arb_value()) {
            for codec in [&BinaryCodec as &dyn Codec, &crate::JsonCodec] {
                prop_assert_eq!(codec.encoded_len(&v), codec.encode(&v).len(), "{}", codec.name());
            }
        }

        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            prop_assert_eq!(varint_len(v), out.len());
            let mut r = Reader { bytes: &out, pos: 0 };
            prop_assert_eq!(read_varint(&mut r).unwrap(), v);
            prop_assert_eq!(r.pos, out.len());
        }
    }
}

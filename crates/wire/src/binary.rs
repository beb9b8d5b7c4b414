//! Compact binary codec: one tag byte per value, zigzag varints for
//! integers, length-prefixed strings/bytes/containers. This is the Kryo
//! stand-in and the default ObjectMQ transport.
//!
//! [`BinaryReader`] is the one scanner of this encoding and [`BinaryWriter`]
//! its one emitter. [`BinaryCodec`] builds and walks [`Value`] trees through
//! them; a caller that knows its schema (the metadata WAL and snapshot)
//! reads and writes its records through them without a tree.

use crate::error::{WireError, WireResult};
use crate::token::{Token, TokenReader, TokenWriter};
use crate::value::Value;
use crate::{Codec, MAX_DEPTH};
use std::borrow::Cow;

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
        let mut reader = BinaryReader::new(bytes);
        let value = reader.value(0)?;
        reader.finish()?;
        Ok(value)
    }

    /// Counts the bytes the encoding would take, writing none.
    fn encoded_len(&self, value: &Value) -> usize {
        value_len(value)
    }

    fn writer<'a>(&self, out: &'a mut Vec<u8>) -> Box<dyn TokenWriter + 'a> {
        Box::new(BinaryWriter::new(out))
    }

    fn reader<'a>(&self, bytes: &'a [u8]) -> WireResult<Box<dyn TokenReader<'a> + 'a>> {
        Ok(Box::new(BinaryReader::new(bytes)))
    }

    fn name(&self) -> &'static str {
        "binary"
    }
}

/// Writes `value` and everything it holds. Each level makes its own
/// [`BinaryWriter`] over `out` rather than taking one by reference: the
/// extra indirection made a 3 012-item reply ~10 % slower to encode.
fn write_value(out: &mut Vec<u8>, value: &Value) {
    let mut w = BinaryWriter::new(out);
    match value {
        Value::Null => w.null(),
        Value::Bool(v) => w.bool(*v),
        Value::I64(v) => w.i64(*v),
        Value::U64(v) => w.u64(*v),
        Value::F64(v) => w.f64(*v),
        Value::Str(s) => w.str(s),
        Value::Bytes(b) => w.bytes(b),
        Value::List(items) => {
            w.list(items.len());
            for item in items {
                write_value(w.out, item);
            }
        }
        Value::Map(entries) => {
            w.map(entries.len());
            for (key, item) in entries {
                w.key(key);
                write_value(w.out, item);
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

/// Bytes [`BinaryWriter`] takes for the varint `v`: one per started 7 bits.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The [`TokenReader`] of the binary encoding. Strings and byte strings are
/// borrowed from the input.
///
/// Every check of the encoding is made here: an unknown tag, a varint
/// longer than 64 bits, a length prefix larger than the input left (so
/// nothing a hostile prefix names is allocated), a position that would
/// overflow, a string that is not UTF-8, and a list or map nested deeper
/// than [`MAX_DEPTH`]. The caller counts a container's values and says how
/// deep each one sits, since the encoding has no end marker.
///
/// ```
/// use wire::{BinaryCodec, BinaryReader, Codec, Token, TokenReader, Value};
///
/// let bytes = BinaryCodec.encode(&Value::Map(vec![
///     ("id".into(), Value::U64(7)),
///     ("tags".into(), Value::List(vec![Value::from("a")])),
/// ]));
/// let mut r = BinaryReader::new(&bytes);
/// assert_eq!(r.next(0), Ok(Token::Map(2)));
/// assert_eq!(r.key().as_deref(), Ok("id"));
/// assert_eq!(r.next(1), Ok(Token::U64(7)));
/// assert_eq!(r.key().as_deref(), Ok("tags"));
/// assert_eq!(r.skip(1), Ok(Token::List(1)));
/// r.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct BinaryReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> TokenReader<'a> for BinaryReader<'a> {
    /// Reads the head of the next value.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`], [`WireError::UnknownTag`],
    /// [`WireError::VarintOverflow`] or [`WireError::InvalidUtf8`] on bytes
    /// that are not an encoding; [`WireError::TooDeep`] for a list or map at
    /// depth [`MAX_DEPTH`].
    #[inline]
    fn next(&mut self, depth: usize) -> WireResult<Token<'a>> {
        Ok(match self.byte()? {
            TAG_NULL => Token::Null,
            TAG_FALSE => Token::Bool(false),
            TAG_TRUE => Token::Bool(true),
            TAG_I64 => Token::I64(unzigzag(self.varint()?)),
            TAG_U64 => Token::U64(self.varint()?),
            TAG_F64 => {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(self.take(8)?);
                Token::F64(f64::from_le_bytes(buf))
            }
            TAG_STR => Token::Str(Cow::Borrowed(self.text()?)),
            TAG_BYTES => {
                let len = self.len()?;
                Token::Bytes(Cow::Borrowed(self.take(len)?))
            }
            TAG_LIST | TAG_MAP if depth >= MAX_DEPTH => return Err(WireError::TooDeep),
            TAG_LIST => Token::List(self.len()?),
            TAG_MAP => Token::Map(self.len()?),
            tag => return Err(WireError::UnknownTag(tag)),
        })
    }

    #[inline]
    fn key(&mut self) -> WireResult<Cow<'a, str>> {
        self.text().map(Cow::Borrowed)
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn finish(&mut self) -> WireResult<()> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(WireError::TrailingBytes(left)),
        }
    }
}

impl<'a> BinaryReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BinaryReader { bytes, pos: 0 }
    }

    #[inline]
    fn byte(&mut self) -> WireResult<u8> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline]
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

    /// A length-prefixed UTF-8 string: a string value's body or a key.
    #[inline]
    fn text(&mut self) -> WireResult<&'a str> {
        let len = self.len()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::InvalidUtf8)
    }

    #[inline]
    fn len(&mut self) -> WireResult<usize> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| WireError::VarintOverflow)?;
        // Every counted element (byte, list item, map entry) consumes at
        // least one input byte, so any count beyond the remaining input is
        // corrupt. Rejecting it here keeps a caller's `Vec::with_capacity`
        // bounded by the input size — a hostile 4 GiB length prefix never
        // allocates anything.
        if len > self.remaining() {
            return Err(WireError::UnexpectedEof);
        }
        Ok(len)
    }

    #[inline]
    fn varint(&mut self) -> WireResult<u64> {
        let mut result: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
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
}

/// The [`TokenWriter`] of the binary encoding.
///
/// ```
/// use wire::{BinaryCodec, BinaryWriter, Codec, TokenWriter, Value};
///
/// let mut out = Vec::new();
/// let mut w = BinaryWriter::new(&mut out);
/// w.map(1);
/// w.key("id");
/// w.u64(7);
/// let tree = Value::Map(vec![("id".into(), Value::U64(7))]);
/// assert_eq!(out, BinaryCodec.encode(&tree));
/// ```
#[derive(Debug)]
pub struct BinaryWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> BinaryWriter<'a> {
    /// A writer appending to `out`, whose contents it leaves as they are.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        BinaryWriter { out }
    }

    /// A tag and the varint after it, in one step when the varint is one
    /// byte: the common case of every length and most integers.
    #[inline]
    fn head(&mut self, tag: u8, v: u64) {
        if v < 0x80 {
            self.out.extend_from_slice(&[tag, v as u8]);
        } else {
            self.out.push(tag);
            self.varint(v);
        }
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.out.push(byte);
                return;
            }
            self.out.push(byte | 0x80);
        }
    }
}

impl TokenWriter for BinaryWriter<'_> {
    #[inline]
    fn null(&mut self) {
        self.out.push(TAG_NULL);
    }

    #[inline]
    fn bool(&mut self, v: bool) {
        self.out.push(if v { TAG_TRUE } else { TAG_FALSE });
    }

    #[inline]
    fn i64(&mut self, v: i64) {
        self.out.push(TAG_I64);
        self.varint(zigzag(v));
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        self.head(TAG_U64, v);
    }

    #[inline]
    fn f64(&mut self, v: f64) {
        self.out.push(TAG_F64);
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn str(&mut self, s: &str) {
        self.head(TAG_STR, s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }

    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.head(TAG_BYTES, b.len() as u64);
        self.out.extend_from_slice(b);
    }

    #[inline]
    fn list(&mut self, len: usize) {
        self.head(TAG_LIST, len as u64);
    }

    #[inline]
    fn map(&mut self, len: usize) {
        self.head(TAG_MAP, len as u64);
    }

    #[inline]
    fn key(&mut self, key: &str) {
        self.varint(key.len() as u64);
        self.out.extend_from_slice(key.as_bytes());
    }

    fn value(&mut self, value: &Value) {
        write_value(self.out, value);
    }
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
            BinaryWriter::new(&mut bytes).varint(u32::MAX as u64);
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
        BinaryWriter::new(&mut bytes).varint(usize::MAX as u64);
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
        fn prop_skip_accepts_exactly_what_decode_accepts(
            v in arb_value(),
            flips in proptest::collection::vec((0usize..4096, any::<u8>()), 0..4),
            cut in 0usize..4096,
        ) {
            let mut bytes = BinaryCodec.encode(&v);
            for (pos, xor) in flips {
                let len = bytes.len();
                bytes[pos % len] ^= xor;
            }
            bytes.truncate(cut.max(bytes.len() / 2));
            let mut r = BinaryReader::new(&bytes);
            let skipped = r.skip(0).and_then(|_| r.finish());
            prop_assert_eq!(skipped.is_ok(), BinaryCodec.decode(&bytes).is_ok());
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
            BinaryWriter::new(&mut out).varint(v);
            prop_assert_eq!(varint_len(v), out.len());
            let mut r = BinaryReader::new(&out);
            prop_assert_eq!(r.varint().unwrap(), v);
            prop_assert_eq!(r.position(), out.len());
        }
    }
}

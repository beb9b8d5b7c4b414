//! # wire — self-describing values and pluggable codecs
//!
//! ObjectMQ (the paper's middleware) supports multiple transport encodings —
//! Kryo, Java serialization and JSON — behind one interface. This crate
//! reproduces that design in Rust:
//!
//! * [`Value`] is a self-describing data model (null, bool, integers, floats,
//!   strings, byte strings, lists, maps) that all RPC arguments and results
//!   are lowered into.
//! * [`Codec`] is the transport hook. Two implementations are provided:
//!   [`BinaryCodec`] (compact, varint-based — the Kryo stand-in and the
//!   default) and [`JsonCodec`] (hand-rolled JSON, human-readable).
//! * [`TokenReader`] and [`TokenWriter`] read and write an encoding token
//!   by token, without a [`Value`] tree. Each codec has one of each
//!   ([`BinaryReader`]/[`BinaryWriter`], [`JsonReader`]/[`JsonWriter`]),
//!   its tree `decode` and `encode` are walks over them, and code that
//!   knows its schema is written once for both.
//!
//! ## Example
//!
//! ```
//! use wire::{Value, Codec, BinaryCodec, JsonCodec};
//!
//! let v = Value::Map(vec![
//!     ("op".into(), Value::from("commit")),
//!     ("version".into(), Value::from(3i64)),
//! ]);
//! for codec in [&BinaryCodec as &dyn Codec, &JsonCodec] {
//!     let bytes = codec.encode(&v);
//!     assert_eq!(codec.decode(&bytes).unwrap(), v);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod error;
mod json;
mod pool;
mod token;
mod value;

pub use binary::{BinaryCodec, BinaryReader, BinaryWriter};
pub use error::{WireError, WireResult};
pub use json::{to_json_string, JsonCodec, JsonReader, JsonWriter};
pub use pool::{encode_pooled, encode_to_bytes, BufPool};
pub use token::{Token, TokenReader, TokenWriter};
pub use value::Value;

/// How many lists and maps a decoder lets enclose one value; deeper input is
/// refused with [`WireError::TooDeep`]. Both decoders recurse once per level,
/// so without a limit the nesting of a frame from outside the program would
/// decide how much stack decoding takes (a 64 KB frame of nested one-element
/// lists overflows a 2 MiB thread). Nothing the program emits nests more than
/// a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A transport encoding for [`Value`]s.
///
/// Implementations must guarantee `decode(encode(v)) == v` for every value
/// `v` nested no deeper than [`MAX_DEPTH`] (NaN floats excepted).
pub trait Codec: Send + Sync {
    /// Serializes a value to bytes.
    ///
    /// Thin wrapper over [`Codec::encode_into`] with a fresh buffer. Hot
    /// paths that encode repeatedly should prefer `encode_into` with a
    /// reused buffer (see [`BufPool`]) so the allocation is amortized.
    fn encode(&self, value: &Value) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(value, &mut out);
        out
    }

    /// Serializes a value, appending the bytes to `out`.
    ///
    /// Existing contents of `out` are left untouched; the encoding of
    /// `value` must be byte-identical to what [`Codec::encode`] returns
    /// regardless of the buffer's prior contents or capacity.
    fn encode_into(&self, value: &Value, out: &mut Vec<u8>);

    /// Deserializes a value from bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the input is truncated or malformed.
    fn decode(&self, bytes: &[u8]) -> WireResult<Value>;

    /// Byte length of `value`'s encoding: `encode(value).len()`, always.
    ///
    /// The default encodes into a pooled buffer and measures it; a codec
    /// that can count without writing overrides it.
    fn encoded_len(&self, value: &Value) -> usize {
        BufPool::with(|buf| {
            self.encode_into(value, buf);
            buf.len()
        })
    }

    /// This codec's [`TokenWriter`], appending to `out`.
    fn writer<'a>(&self, out: &'a mut Vec<u8>) -> Box<dyn TokenWriter + 'a>;

    /// This codec's [`TokenReader`] at the start of `bytes`.
    ///
    /// # Errors
    ///
    /// A [`WireError`] when the input cannot hold an encoding at all (JSON
    /// text that is not UTF-8).
    fn reader<'a>(&self, bytes: &'a [u8]) -> WireResult<Box<dyn TokenReader<'a> + 'a>>;

    /// Short name for diagnostics (`"binary"`, `"json"`).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod codec_tests {
    use super::*;

    fn sample() -> Value {
        Value::Map(vec![
            ("null".into(), Value::Null),
            ("yes".into(), Value::Bool(true)),
            ("n".into(), Value::I64(-42)),
            ("u".into(), Value::U64(u64::MAX)),
            ("f".into(), Value::F64(1.5)),
            ("s".into(), Value::from("héllo wörld")),
            ("b".into(), Value::Bytes(vec![0, 1, 2, 255])),
            (
                "list".into(),
                Value::List(vec![Value::I64(1), Value::from("two"), Value::Null]),
            ),
            (
                "nested".into(),
                Value::Map(vec![("k".into(), Value::List(vec![]))]),
            ),
        ])
    }

    #[test]
    fn both_codecs_roundtrip_sample() {
        let v = sample();
        for codec in [&BinaryCodec as &dyn Codec, &JsonCodec] {
            let bytes = codec.encode(&v);
            let back = codec.decode(&bytes).unwrap_or_else(|e| {
                panic!("{} failed to decode its own output: {e}", codec.name())
            });
            assert_eq!(back, v, "codec {}", codec.name());
        }
    }

    #[test]
    fn binary_is_denser_than_json() {
        let v = sample();
        assert!(BinaryCodec.encode(&v).len() < JsonCodec.encode(&v).len());
    }

    #[test]
    fn codec_names() {
        assert_eq!(BinaryCodec.name(), "binary");
        assert_eq!(JsonCodec.name(), "json");
    }
}

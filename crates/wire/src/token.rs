//! The token interface both codecs implement: a pull [`TokenReader`] and a
//! push [`TokenWriter`]. Code that knows its schema (an item, an RPC
//! envelope) reads and writes through them once for both encodings, and
//! each codec's tree encode and decode are walks over its own pair.

use crate::error::{WireError, WireResult};
use crate::value::Value;
use std::borrow::Cow;

/// The head of one value, as [`TokenReader::next`] reads it. A string or
/// byte string is borrowed from the input where the encoding allows it (an
/// escaped JSON string and a JSON byte string are decoded into their own
/// buffer); a container gives its length, and its contents follow.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// A byte string.
    Bytes(Cow<'a, [u8]>),
    /// A list of this many values, which follow it.
    List(usize),
    /// A map of this many entries, each a [`TokenReader::key`] and then a
    /// value.
    Map(usize),
}

impl<'a> Token<'a> {
    fn mismatch(&self, expected: &'static str) -> WireError {
        WireError::TypeMismatch {
            expected,
            found: self.kind(),
        }
    }

    /// The unsigned integer this token is, taking a non-negative `I64` as
    /// [`Value::as_u64`] does (JSON reads every integer that fits `i64` as
    /// one).
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] for any other token.
    pub fn as_u64(&self) -> WireResult<u64> {
        match *self {
            Token::U64(v) => Ok(v),
            Token::I64(v) if v >= 0 => Ok(v as u64),
            _ => Err(self.mismatch("u64")),
        }
    }

    /// The boolean this token is.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] for any other token.
    pub fn as_bool(&self) -> WireResult<bool> {
        match *self {
            Token::Bool(v) => Ok(v),
            _ => Err(self.mismatch("bool")),
        }
    }

    /// The string this token is.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] for any other token.
    pub fn into_str(self) -> WireResult<Cow<'a, str>> {
        match self {
            Token::Str(s) => Ok(s),
            other => Err(other.mismatch("str")),
        }
    }

    /// The byte string this token is.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] for any other token.
    pub fn into_bytes(self) -> WireResult<Cow<'a, [u8]>> {
        match self {
            Token::Bytes(b) => Ok(b),
            other => Err(other.mismatch("bytes")),
        }
    }

    /// The length of the list this token starts.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] for any other token.
    pub fn list_len(&self) -> WireResult<usize> {
        match *self {
            Token::List(len) => Ok(len),
            _ => Err(self.mismatch("list")),
        }
    }

    /// The entry count of the map this token starts.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] for any other token.
    pub fn map_len(&self) -> WireResult<usize> {
        match *self {
            Token::Map(len) => Ok(len),
            _ => Err(self.mismatch("map")),
        }
    }

    /// The [`Value::kind`] of the value this token starts.
    pub fn kind(&self) -> &'static str {
        match self {
            Token::Null => "null",
            Token::Bool(_) => "bool",
            Token::I64(_) => "i64",
            Token::U64(_) => "u64",
            Token::F64(_) => "f64",
            Token::Str(_) => "str",
            Token::Bytes(_) => "bytes",
            Token::List(_) => "list",
            Token::Map(_) => "map",
        }
    }
}

/// A pull scanner over one encoded value: the caller asks for each value's
/// [`Token`] in document order, each map key with [`TokenReader::key`], and
/// passes over what it does not want with [`TokenReader::skip`]. The caller
/// reads exactly as many values as a container announces, and says how
/// deep each one sits (0 for the outermost value).
///
/// Every check of the encoding is made by the reader, and a list or map
/// nested deeper than [`crate::MAX_DEPTH`] is refused with
/// [`crate::WireError::TooDeep`].
pub trait TokenReader<'a> {
    /// Reads the head of the next value, which `depth` lists and maps
    /// enclose.
    ///
    /// # Errors
    ///
    /// A [`crate::WireError`] on input that is not an encoding.
    fn next(&mut self, depth: usize) -> WireResult<Token<'a>>;

    /// Reads the key of the next map entry; its value follows.
    ///
    /// # Errors
    ///
    /// As [`TokenReader::next`] for a string.
    fn key(&mut self) -> WireResult<Cow<'a, str>>;

    /// Reads past the next value and everything it holds, checking all of
    /// it as [`TokenReader::next`] does, and returns its head: for a scalar
    /// that is the value itself.
    ///
    /// # Errors
    ///
    /// As [`TokenReader::next`], for any value inside.
    fn skip(&mut self, depth: usize) -> WireResult<Token<'a>> {
        let head = self.next(depth)?;
        match head {
            Token::List(len) => {
                for _ in 0..len {
                    self.skip(depth + 1)?;
                }
            }
            Token::Map(len) => {
                for _ in 0..len {
                    self.key()?;
                    self.skip(depth + 1)?;
                }
            }
            _ => {}
        }
        Ok(head)
    }

    /// Reads the next value, which `depth` lists and maps enclose, as a
    /// tree.
    ///
    /// # Errors
    ///
    /// As [`TokenReader::next`], for any value inside.
    fn value(&mut self, depth: usize) -> WireResult<Value> {
        Ok(match self.next(depth)? {
            Token::Null => Value::Null,
            Token::Bool(v) => Value::Bool(v),
            Token::I64(v) => Value::I64(v),
            Token::U64(v) => Value::U64(v),
            Token::F64(v) => Value::F64(v),
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::Bytes(b) => Value::Bytes(b.into_owned()),
            Token::List(len) => {
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(self.value(depth + 1)?);
                }
                Value::List(items)
            }
            Token::Map(len) => {
                let mut entries = Vec::with_capacity(len);
                for _ in 0..len {
                    let key = self.key()?.into_owned();
                    entries.push((key, self.value(depth + 1)?));
                }
                Value::Map(entries)
            }
        })
    }

    /// Bytes of the input read so far. After a value, that is the end of
    /// its encoding: nothing that follows it has been read yet.
    fn position(&self) -> usize;

    /// Ends the read: the input must hold nothing after the outermost
    /// value.
    ///
    /// # Errors
    ///
    /// [`crate::WireError::TrailingBytes`] with the count left over, or the
    /// error the rest of the input holds.
    fn finish(&mut self) -> WireResult<()>;
}

/// A push emitter of one encoding, appending to a buffer: the caller writes
/// each value's head in document order, a container's length before its
/// contents and each map key before its value, and writes exactly as many
/// values as it announced. What it writes is what the codec's `encode`
/// makes of the same tree, byte for byte.
pub trait TokenWriter {
    /// Writes `null`.
    fn null(&mut self);
    /// Writes a boolean.
    fn bool(&mut self, v: bool);
    /// Writes a signed integer.
    fn i64(&mut self, v: i64);
    /// Writes an unsigned integer.
    fn u64(&mut self, v: u64);
    /// Writes a float.
    fn f64(&mut self, v: f64);
    /// Writes a string.
    fn str(&mut self, s: &str);
    /// Writes a byte string.
    fn bytes(&mut self, b: &[u8]);
    /// Starts a list of `len` values; write them next.
    fn list(&mut self, len: usize);
    /// Starts a map of `len` entries; write each as a
    /// [`TokenWriter::key`] and a value next.
    fn map(&mut self, len: usize);
    /// Writes the key of the next map entry.
    fn key(&mut self, key: &str);

    /// Writes `value` and everything it holds.
    fn value(&mut self, value: &Value) {
        match value {
            Value::Null => self.null(),
            Value::Bool(v) => self.bool(*v),
            Value::I64(v) => self.i64(*v),
            Value::U64(v) => self.u64(*v),
            Value::F64(v) => self.f64(*v),
            Value::Str(s) => self.str(s),
            Value::Bytes(b) => self.bytes(b),
            Value::List(items) => {
                self.list(items.len());
                for item in items {
                    self.value(item);
                }
            }
            Value::Map(entries) => {
                self.map(entries.len());
                for (key, item) in entries {
                    self.key(key);
                    self.value(item);
                }
            }
        }
    }
}

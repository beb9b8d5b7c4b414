//! Hand-rolled JSON codec — the human-readable ObjectMQ transport.
//!
//! JSON cannot represent every [`Value`] distinction, so the codec applies
//! two documented normalizations:
//!
//! * byte strings are wrapped as `{"$bytes":"<hex>"}`;
//! * integers that fit `i64` decode as [`Value::I64`] regardless of whether
//!   they were encoded from `I64` or `U64` (larger ones decode as `U64`);
//! * non-finite floats encode as `null`.
//!
//! [`JsonReader`] is the one scanner of the text and [`JsonWriter`] its one
//! emitter; [`JsonCodec`] and [`to_json_string`] are walks over them.

use crate::error::{WireError, WireResult};
use crate::token::{Token, TokenReader, TokenWriter};
use crate::value::Value;
use crate::{Codec, MAX_DEPTH};
use std::borrow::Cow;
use std::io::Write as _;

/// The JSON transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonCodec;

impl Codec for JsonCodec {
    fn encode_into(&self, value: &Value, out: &mut Vec<u8>) {
        JsonWriter::new(out).value(value);
    }

    fn decode(&self, bytes: &[u8]) -> WireResult<Value> {
        let mut reader = JsonReader::new(bytes)?;
        let value = reader.value(0)?;
        reader.finish()?;
        Ok(value)
    }

    fn writer<'a>(&self, out: &'a mut Vec<u8>) -> Box<dyn TokenWriter + 'a> {
        Box::new(JsonWriter::new(out))
    }

    fn reader<'a>(&self, bytes: &'a [u8]) -> WireResult<Box<dyn TokenReader<'a> + 'a>> {
        Ok(Box::new(JsonReader::new(bytes)?))
    }

    fn name(&self) -> &'static str {
        "json"
    }
}

/// Serializes a value as compact JSON text: the bytes [`JsonCodec`] encodes,
/// as a `String`.
pub fn to_json_string(value: &Value) -> String {
    let mut out = Vec::with_capacity(64);
    JsonWriter::new(&mut out).value(value);
    String::from_utf8(out).expect("the JSON writer emits UTF-8")
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Value of one hex digit, either case.
fn hex_nibble(digit: u8) -> Option<u8> {
    match digit {
        b'0'..=b'9' => Some(digit - b'0'),
        b'a'..=b'f' => Some(digit - b'a' + 10),
        b'A'..=b'F' => Some(digit - b'A' + 10),
        _ => None,
    }
}

/// The bytes of an even run of hex digits, either case.
fn decode_hex(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    hex.as_bytes()
        .chunks_exact(2)
        .map(|pair| Some(hex_nibble(pair[0])? << 4 | hex_nibble(pair[1])?))
        .collect()
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// The [`TokenWriter`] of JSON text. A list or map is closed as soon as the
/// last of the values it announced is written.
///
/// ```
/// use wire::{JsonWriter, TokenWriter};
///
/// let mut out = Vec::new();
/// let mut w = JsonWriter::new(&mut out);
/// w.map(2);
/// w.key("id");
/// w.u64(7);
/// w.key("tags");
/// w.list(1);
/// w.bytes(&[0xab]);
/// assert_eq!(out, br#"{"id":7,"tags":[{"$bytes":"ab"}]}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Lists and maps begun and not yet full, innermost last.
    open: Vec<Filling>,
}

/// A list or map [`JsonWriter`] has begun.
#[derive(Debug)]
struct Filling {
    close: u8,
    /// Values (list) or entries (map) still to come.
    left: usize,
    first: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`, whose contents it leaves as they are.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        JsonWriter {
            out,
            open: Vec::new(),
        }
    }

    /// Before a value: the comma between two list items.
    fn begin(&mut self) {
        if let Some(top) = self.open.last_mut() {
            if top.close == b']' {
                if !top.first {
                    self.out.push(b',');
                }
                top.first = false;
            }
        }
    }

    /// After a value: closes every list and map it was the last value of.
    fn end(&mut self) {
        while let Some(top) = self.open.last_mut() {
            top.left -= 1;
            if top.left > 0 {
                return;
            }
            self.out.push(top.close);
            self.open.pop();
        }
    }

    fn scalar(&mut self, text: std::fmt::Arguments<'_>) {
        self.begin();
        self.out
            .write_fmt(text)
            .expect("writing to a Vec cannot fail");
        self.end();
    }

    fn container(&mut self, open: u8, close: u8, len: usize) {
        self.begin();
        self.out.push(open);
        if len == 0 {
            self.out.push(close);
            self.end();
        } else {
            self.open.push(Filling {
                close,
                left: len,
                first: true,
            });
        }
    }
}

impl TokenWriter for JsonWriter<'_> {
    fn null(&mut self) {
        self.scalar(format_args!("null"));
    }

    fn bool(&mut self, v: bool) {
        self.scalar(format_args!("{v}"));
    }

    fn i64(&mut self, v: i64) {
        self.scalar(format_args!("{v}"));
    }

    fn u64(&mut self, v: u64) {
        self.scalar(format_args!("{v}"));
    }

    fn f64(&mut self, v: f64) {
        if v.is_finite() {
            // Debug formatting always includes '.' or 'e', so the text
            // re-parses as a float rather than an integer.
            self.scalar(format_args!("{v:?}"));
        } else {
            self.null();
        }
    }

    fn str(&mut self, s: &str) {
        self.begin();
        write_string(self.out, s);
        self.end();
    }

    fn bytes(&mut self, b: &[u8]) {
        self.begin();
        self.out.reserve(b.len() * 2 + 14);
        self.out.extend_from_slice(b"{\"$bytes\":\"");
        for byte in b {
            self.out.push(HEX_DIGITS[usize::from(byte >> 4)]);
            self.out.push(HEX_DIGITS[usize::from(byte & 0x0f)]);
        }
        self.out.extend_from_slice(b"\"}");
        self.end();
    }

    fn list(&mut self, len: usize) {
        self.container(b'[', b']', len);
    }

    fn map(&mut self, len: usize) {
        self.container(b'{', b'}', len);
    }

    fn key(&mut self, key: &str) {
        if let Some(top) = self.open.last_mut() {
            if !top.first {
                self.out.push(b',');
            }
            top.first = false;
        }
        write_string(self.out, key);
        self.out.push(b':');
    }
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    // Runs without an escape are copied whole; every byte of a multi-byte
    // character is >= 0x80 and passes through.
    let mut run = 0;
    let mut unicode = *b"\\u0000";
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                unicode[4] = HEX_DIGITS[usize::from(b >> 4)];
                unicode[5] = HEX_DIGITS[usize::from(b & 0x0f)];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// The [`TokenReader`] of JSON text.
///
/// JSON gives no lengths, so on opening a list or map the reader counts its
/// values ahead: one more than the commas at its own level before its
/// closing bracket (a scan that steps over strings and checks nothing; the
/// values themselves are checked as they are read, and a count that does
/// not match the text fails there). A list or map is closed as soon as its
/// last value is read, so after a value [`TokenReader::position`] is past
/// the brackets it completes; the outermost one is closed by
/// [`TokenReader::finish`]. The depth of a value is the reader's own count
/// of open lists and maps, so the `depth` arguments are not needed.
///
/// A string without escapes is borrowed from the input; an escaped string
/// and a `{"$bytes":"<hex>"}` byte string are decoded into their own
/// buffer.
///
/// ```
/// use wire::{JsonReader, Token, TokenReader};
///
/// let mut r = JsonReader::new(br#"{"id":7,"tags":["a"]}"#).unwrap();
/// assert_eq!(r.next(0), Ok(Token::Map(2)));
/// assert_eq!(r.key().as_deref(), Ok("id"));
/// assert_eq!(r.next(1), Ok(Token::I64(7)));
/// assert_eq!(r.key().as_deref(), Ok("tags"));
/// assert_eq!(r.skip(1), Ok(Token::List(1)));
/// r.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct JsonReader<'a> {
    /// The document, valid UTF-8: string runs are borrowed from it without
    /// a second validation.
    text: &'a str,
    pos: usize,
    /// Lists and maps open around `pos`, innermost last.
    open: Vec<Reading>,
}

/// A list or map [`JsonReader`] is inside.
#[derive(Debug)]
struct Reading {
    close: u8,
    /// Values (list) or entries (map) not yet begun.
    left: usize,
    begun: bool,
    /// A map's key was read and its value is not yet begun.
    value_due: bool,
}

impl<'a> TokenReader<'a> for JsonReader<'a> {
    fn next(&mut self, _depth: usize) -> WireResult<Token<'a>> {
        self.begin_value()?;
        self.skip_ws();
        let token = match self.peek().ok_or(WireError::UnexpectedEof)? {
            b'n' => self.literal("null", Token::Null)?,
            b't' => self.literal("true", Token::Bool(true))?,
            b'f' => self.literal("false", Token::Bool(false))?,
            b'"' => Token::Str(self.string()?),
            b'[' => self.container(b']')?,
            b'{' => self.container(b'}')?,
            b'-' | b'0'..=b'9' => self.number()?,
            c => return Err(self.err(format!("unexpected character '{}'", c as char))),
        };
        if !matches!(token, Token::List(1..) | Token::Map(1..)) {
            self.close_filled()?;
        }
        Ok(token)
    }

    fn key(&mut self) -> WireResult<Cow<'a, str>> {
        let begun = match self.open.last_mut() {
            Some(top) if top.close == b'}' && top.left > 0 && !top.value_due => {
                top.left -= 1;
                top.value_due = true;
                std::mem::replace(&mut top.begun, true)
            }
            _ => return Err(self.err("no map entry is due")),
        };
        self.skip_ws();
        if begun {
            self.expect(b',')?;
            self.skip_ws();
        }
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string key"));
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(key)
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn finish(&mut self) -> WireResult<()> {
        if let [outermost] = &self.open[..] {
            if outermost.left == 0 && !outermost.value_due {
                let close = outermost.close;
                self.skip_ws();
                self.expect(close)?;
                self.open.clear();
            }
        }
        self.skip_ws();
        match (self.open.is_empty(), self.text.len() - self.pos) {
            (true, 0) => Ok(()),
            (_, left) => Err(WireError::TrailingBytes(left)),
        }
    }
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `bytes`.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidUtf8`] when `bytes` is not UTF-8 text.
    pub fn new(bytes: &'a [u8]) -> WireResult<Self> {
        Ok(JsonReader {
            text: std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)?,
            pos: 0,
            open: Vec::new(),
        })
    }

    fn err(&self, message: impl Into<String>) -> WireError {
        WireError::Json {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> WireResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    /// After a value: closes every list and map but the outermost that it
    /// was the last value of.
    fn close_filled(&mut self) -> WireResult<()> {
        while let [_, .., top] = &self.open[..] {
            if top.left > 0 || top.value_due {
                break;
            }
            let close = top.close;
            self.skip_ws();
            self.expect(close)?;
            self.open.pop();
        }
        Ok(())
    }

    /// Accounts for the value about to be read: a map's due value, the next
    /// item of a list (after its comma), or the outermost value.
    fn begin_value(&mut self) -> WireResult<()> {
        let begun = match self.open.last_mut() {
            None => return Ok(()),
            Some(top) if top.value_due => {
                top.value_due = false;
                return Ok(());
            }
            Some(top) if top.close == b']' && top.left > 0 => {
                top.left -= 1;
                std::mem::replace(&mut top.begun, true)
            }
            Some(_) => return Err(self.err("no value is due")),
        };
        if begun {
            self.skip_ws();
            self.expect(b',')?;
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> WireResult<Token<'a>> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// Opens the list or map (`close` says which) at `pos`; a map that is
    /// exactly a `$bytes` wrapper is read whole as a byte string.
    fn container(&mut self, close: u8) -> WireResult<Token<'a>> {
        if self.open.len() >= MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        if close == b'}' {
            let start = self.pos;
            match self.byte_string() {
                Some(bytes) => return Ok(Token::Bytes(Cow::Owned(bytes))),
                None => self.pos = start,
            }
        }
        self.pos += 1;
        self.skip_ws();
        let len = if self.peek() == Some(close) {
            self.pos += 1;
            0
        } else {
            let len = self.count_ahead();
            self.open.push(Reading {
                close,
                left: len,
                begun: false,
                value_due: false,
            });
            len
        };
        Ok(if close == b']' {
            Token::List(len)
        } else {
            Token::Map(len)
        })
    }

    /// The values of the list or map whose first value starts at `pos`:
    /// one more than the commas at its level before its closing bracket or
    /// the end of the text. At most the length of the text.
    fn count_ahead(&self) -> usize {
        let bytes = &self.bytes()[self.pos..];
        let (mut count, mut level, mut i) = (1, 0usize, 0);
        while i < bytes.len() {
            match bytes[i] {
                b'"' => {
                    // To the closing quote, stepping over escaped characters.
                    i += 1;
                    while let Some(&b) = bytes.get(i) {
                        match b {
                            b'"' => break,
                            b'\\' => i += 2,
                            _ => i += 1,
                        }
                    }
                }
                b'[' | b'{' => level += 1,
                b']' | b'}' if level == 0 => break,
                b']' | b'}' => level -= 1,
                b',' if level == 0 => count += 1,
                _ => {}
            }
            i += 1;
        }
        count
    }

    /// Reads `{"$bytes":"<hex>"}` at `pos`, or returns `None` (with `pos`
    /// anywhere) when the map there is anything else.
    fn byte_string(&mut self) -> Option<Vec<u8>> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(b'"') || self.string().ok()? != "$bytes" {
            return None;
        }
        self.skip_ws();
        self.expect(b':').ok()?;
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return None;
        }
        let hex = self.string().ok()?;
        self.skip_ws();
        self.expect(b'}').ok()?;
        decode_hex(&hex)
    }

    /// A string at `pos`, which holds its opening quote.
    fn string(&mut self) -> WireResult<Cow<'a, str>> {
        self.pos += 1;
        let start = self.pos;
        let len = self.bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or(WireError::UnexpectedEof)?;
        // `text` is valid UTF-8 and both delimiters are ASCII, so the run
        // starts and ends on scalar boundaries (`get` checks that) and needs
        // no second validation.
        let run = self
            .text
            .get(start..start + len)
            .ok_or(WireError::InvalidUtf8)?;
        self.pos = start + len;
        if self.bytes()[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = run.to_string();
        loop {
            match self.peek().ok_or(WireError::UnexpectedEof)? {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or(WireError::UnexpectedEof)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            // `unicode_escape` advanced `pos` already.
                            continue;
                        }
                        c => return Err(self.err(format!("bad escape '\\{}'", c as char))),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Copy the run up to the next quote or backslash in one
                    // piece: validating the rest of the document here, once
                    // per character, made parsing quadratic.
                    let start = self.pos;
                    let len = self.bytes()[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or(WireError::UnexpectedEof)?;
                    let run = self
                        .text
                        .get(start..start + len)
                        .ok_or(WireError::InvalidUtf8)?;
                    out.push_str(run);
                    self.pos = start + len;
                }
            }
        }
    }

    /// The character of a `\u` escape whose four digits start at `pos`,
    /// with the low half of a surrogate pair.
    fn unicode_escape(&mut self) -> WireResult<char> {
        let first = self.hex4()?;
        if !(0xd800..0xdc00).contains(&first) {
            return char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"));
        }
        if self.peek() != Some(b'\\') {
            return Err(self.err("unpaired surrogate"));
        }
        self.pos += 1;
        if self.peek() != Some(b'u') {
            return Err(self.err("unpaired surrogate"));
        }
        self.pos += 1;
        let second = self.hex4()?;
        if !(0xdc00..0xe000).contains(&second) {
            return Err(self.err("invalid low surrogate"));
        }
        let combined = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
        char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"))
    }

    /// Four hex digits, no sign (`from_str_radix` would take a `+`).
    fn hex4(&mut self) -> WireResult<u32> {
        let digits = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or(WireError::UnexpectedEof)?;
        let mut v = 0;
        for &digit in digits {
            let nibble = hex_nibble(digit).ok_or_else(|| self.err("bad hex digits"))?;
            v = v << 4 | u32::from(nibble);
        }
        self.pos += 4;
        Ok(v)
    }

    /// Steps over a run of decimal digits; an empty run is an error.
    fn digits(&mut self) -> WireResult<()> {
        let run = self.bytes()[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if run == 0 {
            return Err(self.err("expected a digit"));
        }
        self.pos += run;
        Ok(())
    }

    /// RFC 8259's `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`:
    /// no leading zero before more digits, a digit on both sides of `.`.
    fn number(&mut self) -> WireResult<Token<'a>> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
            is_float = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
            is_float = true;
        }
        // The grammar above admits ASCII only.
        let raw = &self.text[start..self.pos];
        if is_float {
            raw.parse::<f64>()
                .map(Token::F64)
                .map_err(|_| self.err(format!("bad number `{raw}`")))
        } else if let Ok(v) = raw.parse::<i64>() {
            Ok(Token::I64(v))
        } else if let Ok(v) = raw.parse::<u64>() {
            Ok(Token::U64(v))
        } else {
            Err(self.err(format!("bad number `{raw}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(text: &str) -> WireResult<Value> {
        JsonCodec.decode(text.as_bytes())
    }

    fn roundtrip(v: &Value) -> Value {
        JsonCodec.decode(&JsonCodec.encode(v)).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(0),
            Value::I64(-123456),
            Value::I64(i64::MAX),
            Value::U64(u64::MAX),
            Value::F64(1.5),
            Value::F64(-0.25),
            Value::Str("plain".into()),
            Value::Str("esc \" \\ \n \t κόσμος".into()),
            Value::Bytes(vec![0xde, 0xad, 0xbe, 0xef]),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn float_integral_value_stays_float() {
        assert_eq!(roundtrip(&Value::F64(2.0)), Value::F64(2.0));
    }

    #[test]
    fn u64_that_fits_normalizes_to_i64() {
        assert_eq!(roundtrip(&Value::U64(5)), Value::I64(5));
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(roundtrip(&Value::F64(f64::INFINITY)), Value::Null);
        assert_eq!(roundtrip(&Value::F64(f64::NAN)), Value::Null);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse(
            " { \"a\" : [ 1 , 2.5 , \"x\" , 1722180000000000123 , 1.5e3 , -0 , 0.5 ] , \"b\" : { } } ",
        )
        .unwrap();
        assert_eq!(
            v,
            Value::Map(vec![
                (
                    "a".into(),
                    Value::List(vec![
                        Value::I64(1),
                        Value::F64(2.5),
                        Value::from("x"),
                        // Exact past 2^53: span timestamps need every digit.
                        Value::I64(1_722_180_000_000_000_123),
                        Value::F64(1500.0),
                        Value::I64(0),
                        Value::F64(0.5),
                    ])
                ),
                ("b".into(), Value::Map(vec![])),
            ])
        );
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""Aé😀""#).unwrap(), Value::Str("Aé😀".into()));
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\"}",
            "01x",
            "[1 2]",
            "\"\\u12\"",
            "\"\\ud800\"",
            "nulltrailing",
            // RFC 8259 numbers: no leading zero, a digit on both sides of `.`.
            "01",
            "-01",
            "00",
            "[00]",
            "1.",
            "2.",
            "1.e5",
            "-.5",
            "-",
            "1e",
            // A sign is not a hex digit.
            "\"\\u+041\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn after_a_value_the_position_is_past_the_brackets_it_completes() {
        let text = br#"{"id":"a","value":[{"k":"v"}, [ ] ],"n":1}"#;
        let mut r = JsonReader::new(text).unwrap();
        assert_eq!(r.next(0), Ok(Token::Map(3)));
        assert_eq!(r.key().as_deref(), Ok("id"));
        assert_eq!(r.next(1), Ok(Token::Str("a".into())));
        assert_eq!(r.key().as_deref(), Ok("value"));
        let start = r.position();
        assert_eq!(r.next(1), Ok(Token::List(2)));
        assert_eq!(r.next(2), Ok(Token::Map(1)));
        assert_eq!(r.key().as_deref(), Ok("k"));
        assert_eq!(r.next(3), Ok(Token::Str("v".into())));
        assert_eq!(r.next(2), Ok(Token::List(0)));
        let value = &text[start..r.position()];
        assert_eq!(value, br#"[{"k":"v"}, [ ] ]"#);
        // The outermost map stays open until its last entry and `finish`.
        assert_eq!(r.key().as_deref(), Ok("n"));
        assert_eq!(r.skip(1), Ok(Token::I64(1)));
        assert_eq!(r.position(), text.len() - 1);
        r.finish().unwrap();
        assert_eq!(r.position(), text.len());
    }

    #[test]
    fn reading_past_what_a_container_announced_is_refused() {
        let mut r = JsonReader::new(b"[1]").unwrap();
        assert_eq!(r.next(0), Ok(Token::List(1)));
        assert!(r.key().is_err());
        assert_eq!(r.next(1), Ok(Token::I64(1)));
        assert!(r.next(1).is_err());
        let mut r = JsonReader::new(br#"{"a":1}"#).unwrap();
        assert_eq!(r.next(0), Ok(Token::Map(1)));
        assert!(r.next(1).is_err(), "a map entry starts with its key");
        // A reader left inside a container does not finish.
        let mut r = JsonReader::new(b"[1,2]").unwrap();
        assert_eq!(r.next(0), Ok(Token::List(2)));
        assert_eq!(r.next(1), Ok(Token::I64(1)));
        assert!(matches!(r.finish(), Err(WireError::TrailingBytes(_))));
    }

    #[test]
    fn dollar_bytes_requires_exact_shape() {
        // Two keys: stays a map.
        let v = parse(r#"{"$bytes":"00","x":1}"#).unwrap();
        assert!(matches!(v, Value::Map(_)));
        // Odd-length hex: stays a map.
        let v = parse(r#"{"$bytes":"0"}"#).unwrap();
        assert!(matches!(v, Value::Map(_)));
    }

    #[test]
    fn hex_digits_of_either_case_and_nothing_else() {
        assert_eq!(
            parse(r#"{"$bytes":"00fFA9"}"#).unwrap(),
            Value::Bytes(vec![0x00, 0xff, 0xa9])
        );
        // `from_str_radix` would take a sign; a hex pair is two digits.
        for not_hex in [
            r#"{"$bytes":"+f"}"#,
            r#"{"$bytes":"0g"}"#,
            r#"{"$bytes":"é"}"#,
        ] {
            assert!(
                matches!(parse(not_hex).unwrap(), Value::Map(_)),
                "{not_hex}"
            );
        }
    }

    /// Regression guard for the quadratic string scanner: with it, this test
    /// does not finish in minutes; without it, it takes milliseconds.
    #[test]
    fn four_mebibyte_document_roundtrips() {
        let long = "κ-plain ".repeat(2 * 1024 * 1024 / 9);
        let escaped = "fifteen plain b\n".repeat(1024 * 1024 / 16);
        let mut items = vec![Value::Str(long), Value::Str(escaped)];
        items.extend((0..50_000).map(|i| Value::Str(format!("short string {i:05}"))));
        let doc = Value::List(items);
        let text = JsonCodec.encode(&doc);
        assert!(text.len() >= 4 * 1024 * 1024, "{} bytes", text.len());
        assert_eq!(JsonCodec.decode(&text).unwrap(), doc);
    }

    /// `depth` containers around a `1`, lists and maps as `lists` says.
    fn nested(lists: &[bool]) -> String {
        let mut text = String::new();
        for &list in lists {
            text.push_str(if list { "[" } else { "{\"k\":" });
        }
        text.push('1');
        for &list in lists.iter().rev() {
            text.push(if list { ']' } else { '}' });
        }
        text
    }

    #[test]
    fn nesting_is_bounded_not_the_stack() {
        assert!(parse(&nested(&[true; MAX_DEPTH])).is_ok());
        assert!(parse(&nested(&[false; MAX_DEPTH])).is_ok());
        assert_eq!(
            parse(&nested(&[true; MAX_DEPTH + 1])),
            Err(WireError::TooDeep)
        );
        assert_eq!(
            parse(&nested(&[false; MAX_DEPTH + 1])),
            Err(WireError::TooDeep)
        );
        // Siblings do not add up: depth is what encloses, not what was seen.
        let wide = format!("[{}]", vec![nested(&[true; MAX_DEPTH - 1]); 3].join(","));
        assert!(parse(&wide).is_ok());
        // Overflowed a 2 MiB stack before the limit.
        assert_eq!(
            JsonCodec.decode("[".repeat(100_000).as_bytes()),
            Err(WireError::TooDeep)
        );
    }

    /// Normalizes a value the way a JSON round-trip would.
    fn json_normalize(v: &Value) -> Value {
        match v {
            Value::U64(x) if *x <= i64::MAX as u64 => Value::I64(*x as i64),
            Value::F64(x) if !x.is_finite() => Value::Null,
            Value::List(items) => Value::List(items.iter().map(json_normalize).collect()),
            Value::Map(entries) => Value::Map(
                entries
                    .iter()
                    .map(|(k, v)| (k.clone(), json_normalize(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::I64),
            any::<u64>().prop_map(Value::U64),
            (-1e12f64..1e12).prop_map(Value::F64),
            "\\PC{0,16}".prop_map(Value::Str),
            proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        ];
        leaf.prop_recursive(3, 32, 5, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::List),
                proptest::collection::vec(("\\PC{0,6}", inner), 0..5).prop_map(Value::Map),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_json_roundtrip_modulo_normalization(v in arb_value()) {
            let expected = json_normalize(&v);
            prop_assert_eq!(roundtrip(&v), expected);
        }

        #[test]
        fn prop_parser_never_panics(
            s in "\\PC{0,128}",
            lists in proptest::collection::vec(any::<bool>(), 0..3 * MAX_DEPTH),
        ) {
            let _ = parse(&s);
            // The same text under any number of open containers, and a
            // well-formed document of that depth: refused past the limit.
            let well_formed = nested(&lists);
            let open = &well_formed[..well_formed.find('1').unwrap()];
            let _ = parse(&format!("{open}{s}"));
            match parse(&well_formed) {
                Ok(_) => prop_assert!(lists.len() <= MAX_DEPTH),
                Err(e) => {
                    prop_assert!(lists.len() > MAX_DEPTH);
                    prop_assert_eq!(e, WireError::TooDeep);
                }
            }
        }
    }
}

//! Hand-rolled JSON codec — the human-readable ObjectMQ transport.
//!
//! JSON cannot represent every [`Value`] distinction, so the codec applies
//! two documented normalizations:
//!
//! * byte strings are wrapped as `{"$bytes":"<hex>"}`;
//! * integers that fit `i64` decode as [`Value::I64`] regardless of whether
//!   they were encoded from `I64` or `U64` (larger ones decode as `U64`);
//! * non-finite floats encode as `null`.

use crate::error::{WireError, WireResult};
use crate::value::Value;
use crate::{Codec, MAX_DEPTH};
use std::fmt::Write;

/// The JSON transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonCodec;

impl Codec for JsonCodec {
    fn encode_into(&self, value: &Value, out: &mut Vec<u8>) {
        let mut text = String::new();
        write_value(&mut text, value);
        out.extend_from_slice(text.as_bytes());
    }

    fn decode(&self, bytes: &[u8]) -> WireResult<Value> {
        let text = std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)?;
        parse(text)
    }

    fn name(&self) -> &'static str {
        "json"
    }
}

/// Serializes a value as compact JSON text: the bytes [`JsonCodec`] encodes,
/// as a `String`.
pub fn to_json_string(value: &Value) -> String {
    let mut out = String::with_capacity(64);
    write_value(&mut out, value);
    out
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

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        // Writing into a `String` cannot fail.
        Value::I64(v) => write!(out, "{v}").expect("fmt to String"),
        Value::U64(v) => write!(out, "{v}").expect("fmt to String"),
        Value::F64(v) => {
            if v.is_finite() {
                // Debug formatting always includes '.' or 'e', so the text
                // re-parses as a float rather than an integer.
                write!(out, "{v:?}").expect("fmt to String");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Bytes(b) => {
            out.push_str("{\"$bytes\":\"");
            out.reserve(b.len() * 2 + 2);
            for byte in b {
                out.push(char::from(HEX_DIGITS[usize::from(byte >> 4)]));
                out.push(char::from(HEX_DIGITS[usize::from(byte & 0x0f)]));
            }
            out.push_str("\"}");
        }
        Value::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("fmt to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    /// The document. The scanner steps over its bytes; string runs are
    /// copied out of it as `str`, without a second validation.
    text: &'a str,
    pos: usize,
    /// Lists and maps currently open around `pos`.
    depth: usize,
}

/// Parses a complete JSON document.
fn parse(text: &str) -> WireResult<Value> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(WireError::TrailingBytes(p.text.len() - p.pos));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
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

    fn literal(&mut self, word: &str, value: Value) -> WireResult<Value> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> WireResult<Value> {
        match self.peek().ok_or(WireError::UnexpectedEof)? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => self.nested(Self::list),
            b'{' => self.nested(Self::map),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    /// Parses a list or map one level further in. The parser recurses once
    /// per level, so the depth of the input must not decide the depth of
    /// the stack.
    fn nested(&mut self, container: fn(&mut Self) -> WireResult<Value>) -> WireResult<Value> {
        if self.depth == MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn list(&mut self) -> WireResult<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn map(&mut self) -> WireResult<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(finish_map(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> WireResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or(WireError::UnexpectedEof)? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
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
                            let first = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&first) {
                                // Surrogate pair.
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
                                let combined =
                                    0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            // hex4 advanced pos already; skip the +1 below.
                            continue;
                        }
                        c => return Err(self.err(format!("bad escape '\\{}'", c as char))),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Copy the run up to the next quote or backslash in one
                    // piece. `text` is valid UTF-8 and both delimiters are
                    // ASCII, so the run starts and ends on scalar boundaries
                    // (`get` checks that) and needs no second validation:
                    // validating the rest of the document here, once per
                    // character, made parsing quadratic.
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
    fn number(&mut self) -> WireResult<Value> {
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
                .map(Value::F64)
                .map_err(|_| self.err(format!("bad number `{raw}`")))
        } else if let Ok(v) = raw.parse::<i64>() {
            Ok(Value::I64(v))
        } else if let Ok(v) = raw.parse::<u64>() {
            Ok(Value::U64(v))
        } else {
            Err(self.err(format!("bad number `{raw}`")))
        }
    }
}

/// Recognizes the `{"$bytes": "<hex>"}` wrapper, otherwise keeps the map.
fn finish_map(entries: Vec<(String, Value)>) -> Value {
    if entries.len() == 1 && entries[0].0 == "$bytes" {
        if let Value::Str(hex) = &entries[0].1 {
            if hex.len() % 2 == 0 {
                let bytes: Option<Vec<u8>> = hex
                    .as_bytes()
                    .chunks_exact(2)
                    .map(|pair| Some(hex_nibble(pair[0])? << 4 | hex_nibble(pair[1])?))
                    .collect();
                if let Some(bytes) = bytes {
                    return Value::Bytes(bytes);
                }
            }
        }
    }
    Value::Map(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

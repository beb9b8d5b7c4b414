//! The JSON reader and writer against the tree parser and emitter they
//! replaced, kept here as the oracle: on any text both accept or both
//! refuse, accepted text decodes to the same value, a refusal for depth is
//! the same refusal, and the writer's bytes are the old emitter's bytes.

use proptest::prelude::*;
use proptest::TestRng;
use std::fmt::Write;
use wire::{Codec, JsonCodec, Value, WireError, WireResult, MAX_DEPTH};

mod oracle {
    use super::*;

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

    pub(super) fn write_value(out: &mut String, value: &Value) {
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
                c if (c as u32) < 0x20 => {
                    write!(out, "\\u{:04x}", c as u32).expect("fmt to String")
                }
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
    pub(super) fn parse(text: &str) -> WireResult<Value> {
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
}

/// Any value, as deep as `depth` containers, with the strings JSON escapes
/// and the maps that look like byte strings.
fn value(rng: &mut TestRng, depth: usize) -> Value {
    const WORDS: [&str; 8] = [
        "",
        "a",
        "$bytes",
        "q\"\\/\n\t\u{1}",
        "κόσμος 😀",
        "00ff",
        "0g",
        "x,y]}",
    ];
    match rng.below(if depth == 0 { 8 } else { 11 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::I64(rng.next_u64() as i64 >> rng.below(64)),
        3 => Value::U64(rng.next_u64() >> rng.below(64)),
        4 => Value::F64((rng.unit_f64() - 0.5) * 1e6),
        5 | 6 => Value::Str(WORDS[rng.below(WORDS.len())].to_string()),
        7 => Value::Bytes((0..rng.below(24)).map(|_| rng.next_u64() as u8).collect()),
        8 => Value::List((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
        9 => Value::Map(vec![(
            "$bytes".into(),
            Value::Str(WORDS[rng.below(WORDS.len())].to_string()),
        )]),
        _ => Value::Map(
            (0..rng.below(4))
                .map(|_| {
                    (
                        WORDS[rng.below(WORDS.len())].to_string(),
                        value(rng, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// `text` with up to four edits: a byte flipped, a piece of JSON syntax
/// put in, a range taken out, or the end cut off.
fn damage(rng: &mut TestRng, text: &mut Vec<u8>) {
    const PIECES: [&str; 16] = [
        ",",
        "]",
        "}",
        "[",
        "{",
        "\"",
        "\\",
        ":",
        " ",
        "{\"$bytes\":\"",
        "null",
        "-0",
        "1e",
        "\\u",
        "\\ud800",
        "é",
    ];
    for _ in 0..rng.below(5) {
        let at = rng.below(text.len() + 1);
        match rng.below(4) {
            0 if at < text.len() => text[at] ^= 1 << rng.below(8),
            1 => {
                let piece = PIECES[rng.below(PIECES.len())].as_bytes();
                text.splice(at..at, piece.iter().copied());
            }
            2 => {
                let end = (at + rng.below(4)).min(text.len());
                text.drain(at..end);
            }
            _ => text.truncate(at),
        }
    }
}

#[test]
fn the_reader_agrees_with_the_tree_parser_and_the_writer_with_the_emitter() {
    let mut rng = proptest::test_rng("json_oracle::agree");
    let (mut accepted, mut inputs) = (0, 0);
    for _ in 0..40_000 {
        let v = value(&mut rng, 4);
        let mut old = String::new();
        oracle::write_value(&mut old, &v);
        let mut text = JsonCodec.encode(&v);
        assert_eq!(text, old.as_bytes(), "emitters differ on {v:?}");
        if rng.below(4) != 0 {
            damage(&mut rng, &mut text);
        }
        let new = JsonCodec.decode(&text);
        let old = std::str::from_utf8(&text)
            .map_err(|_| WireError::InvalidUtf8)
            .and_then(oracle::parse);
        match (&new, &old) {
            (Ok(a), Ok(b)) => assert_eq!(
                a,
                b,
                "values differ on {:?}",
                String::from_utf8_lossy(&text)
            ),
            (Err(a), Err(b)) => assert_eq!(
                *a == WireError::TooDeep,
                *b == WireError::TooDeep,
                "{a:?} vs {b:?} on {:?}",
                String::from_utf8_lossy(&text)
            ),
            _ => panic!(
                "reader {new:?}, tree parser {old:?} on {:?}",
                String::from_utf8_lossy(&text)
            ),
        }
        accepted += usize::from(new.is_ok());
        inputs += 1;
    }
    // Both outcomes are well represented, or the comparison proves little.
    assert!(
        accepted > inputs / 5 && accepted < inputs * 4 / 5,
        "{accepted}"
    );
}

/// `lists` containers, lists and maps as it says, around `inner`.
fn nested(lists: &[bool], inner: &str) -> String {
    let mut text = String::new();
    for &list in lists {
        text.push_str(if list { "[" } else { "{\"k\":" });
    }
    text.push_str(inner);
    for &list in lists.iter().rev() {
        text.push(if list { ']' } else { '}' });
    }
    text
}

proptest! {
    #[test]
    fn prop_nesting_and_arbitrary_text_agree(
        s in "\\PC{0,64}",
        lists in proptest::collection::vec(any::<bool>(), 0..2 * MAX_DEPTH),
        cut in 0usize..1024,
    ) {
        let mut inputs = vec![s.clone(), nested(&lists, &s), nested(&lists, "1"), nested(&lists, "{\"$bytes\":\"00\"}")];
        let open = nested(&lists, "1");
        inputs.push(open[..cut.min(open.len())].to_string());
        for text in inputs {
            let new = JsonCodec.decode(text.as_bytes());
            let old = oracle::parse(&text);
            match (&new, &old) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(*a == WireError::TooDeep, *b == WireError::TooDeep, "{}", text),
                _ => prop_assert!(false, "reader {:?}, tree parser {:?} on {}", new, old, text),
            }
        }
    }
}

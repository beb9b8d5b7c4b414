//! Wire-format error types.

use std::error::Error;
use std::fmt;

/// Result alias for wire operations.
pub type WireResult<T> = Result<T, WireError>;

/// Errors raised while encoding/decoding or converting values.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The byte stream ended before the value was complete.
    UnexpectedEof,
    /// An unknown type tag was read.
    UnknownTag(u8),
    /// Input bytes were not valid UTF-8 where a string was expected.
    InvalidUtf8,
    /// A varint ran longer than the maximum encodable width.
    VarintOverflow,
    /// JSON text was malformed at the given byte offset.
    Json {
        /// Byte offset of the problem.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// A value had a different type than the caller expected.
    TypeMismatch {
        /// What the caller wanted.
        expected: &'static str,
        /// What the value actually was.
        found: &'static str,
    },
    /// A required map field was absent.
    MissingField(String),
    /// Trailing bytes remained after a complete value.
    TrailingBytes(usize),
    /// Lists and maps were nested deeper than [`crate::MAX_DEPTH`].
    TooDeep,
    /// Catch-all for domain-specific conversion problems.
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::UnknownTag(t) => write!(f, "unknown type tag 0x{t:02x}"),
            WireError::InvalidUtf8 => write!(f, "invalid UTF-8 in string"),
            WireError::VarintOverflow => write!(f, "varint too long"),
            WireError::Json { offset, message } => {
                write!(f, "malformed JSON at byte {offset}: {message}")
            }
            WireError::TypeMismatch { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            WireError::MissingField(k) => write!(f, "missing field `{k}`"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::TooDeep => {
                write!(f, "nested deeper than {} levels", crate::MAX_DEPTH)
            }
            WireError::Invalid(m) => write!(f, "invalid value: {m}"),
        }
    }
}

impl Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errors = [
            WireError::UnexpectedEof,
            WireError::UnknownTag(0xff),
            WireError::InvalidUtf8,
            WireError::VarintOverflow,
            WireError::Json {
                offset: 3,
                message: "bad".into(),
            },
            WireError::TypeMismatch {
                expected: "i64",
                found: "str",
            },
            WireError::MissingField("id".into()),
            WireError::TrailingBytes(2),
            WireError::TooDeep,
            WireError::Invalid("nope".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}

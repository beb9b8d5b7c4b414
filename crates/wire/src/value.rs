//! The self-describing value model.

use crate::error::{WireError, WireResult};
use std::fmt;

/// A self-describing value: the common data model every codec serializes.
///
/// Maps preserve insertion order (they are association lists, not hash maps)
/// so encodings are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed 64-bit integer.
    I64(i64),
    /// An unsigned 64-bit integer.
    U64(u64),
    /// A 64-bit float.
    F64(f64),
    /// A UTF-8 string.
    Str(String),
    /// An opaque byte string (chunk fingerprints, payloads).
    Bytes(Vec<u8>),
    /// An ordered list of values.
    List(Vec<Value>),
    /// An ordered string-keyed map.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a `Map` value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Convenience accessor returning the contained `i64`.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] unless the value is `I64` (or a `U64` that
    /// fits).
    pub fn as_i64(&self) -> WireResult<i64> {
        match self {
            Value::I64(v) => Ok(*v),
            Value::U64(v) if *v <= i64::MAX as u64 => Ok(*v as i64),
            other => Err(WireError::TypeMismatch {
                expected: "i64",
                found: other.kind(),
            }),
        }
    }

    /// Convenience accessor returning the contained `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] unless the value is a non-negative integer.
    pub fn as_u64(&self) -> WireResult<u64> {
        match self {
            Value::U64(v) => Ok(*v),
            Value::I64(v) if *v >= 0 => Ok(*v as u64),
            other => Err(WireError::TypeMismatch {
                expected: "u64",
                found: other.kind(),
            }),
        }
    }

    /// Convenience accessor returning the contained `f64`.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] unless the value is numeric.
    pub fn as_f64(&self) -> WireResult<f64> {
        match self {
            Value::F64(v) => Ok(*v),
            Value::I64(v) => Ok(*v as f64),
            Value::U64(v) => Ok(*v as f64),
            other => Err(WireError::TypeMismatch {
                expected: "f64",
                found: other.kind(),
            }),
        }
    }

    /// Convenience accessor returning the contained string.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] unless the value is `Str`.
    pub fn as_str(&self) -> WireResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(WireError::TypeMismatch {
                expected: "str",
                found: other.kind(),
            }),
        }
    }

    /// Convenience accessor returning the contained bool.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] unless the value is `Bool`.
    pub fn as_bool(&self) -> WireResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(WireError::TypeMismatch {
                expected: "bool",
                found: other.kind(),
            }),
        }
    }

    /// Convenience accessor returning the contained bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] unless the value is `Bytes`.
    pub fn as_bytes(&self) -> WireResult<&[u8]> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(WireError::TypeMismatch {
                expected: "bytes",
                found: other.kind(),
            }),
        }
    }

    /// Convenience accessor returning the contained list.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] unless the value is `List`.
    pub fn as_list(&self) -> WireResult<&[Value]> {
        match self {
            Value::List(l) => Ok(l),
            other => Err(WireError::TypeMismatch {
                expected: "list",
                found: other.kind(),
            }),
        }
    }

    /// Returns the field of a map value, erroring when absent.
    ///
    /// # Errors
    ///
    /// [`WireError::MissingField`] when the key is not present (or the value
    /// is not a map).
    pub fn field(&self, key: &str) -> WireResult<&Value> {
        self.get(key)
            .ok_or_else(|| WireError::MissingField(key.to_string()))
    }

    /// Moves the field of a map value out, leaving `Null` in its place, so
    /// a parser that owns the value takes strings and lists instead of
    /// copying them.
    ///
    /// # Errors
    ///
    /// [`WireError::MissingField`], as [`Value::field`].
    pub fn take_field(&mut self, key: &str) -> WireResult<Value> {
        match self {
            Value::Map(entries) => entries.iter_mut().find(|(k, _)| k == key),
            _ => None,
        }
        .map(|(_, v)| std::mem::replace(v, Value::Null))
        .ok_or_else(|| WireError::MissingField(key.to_string()))
    }

    /// The contained string, by value.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] unless the value is `Str`.
    pub fn into_string(self) -> WireResult<String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(WireError::TypeMismatch {
                expected: "str",
                found: other.kind(),
            }),
        }
    }

    /// The contained list, by value.
    ///
    /// # Errors
    ///
    /// [`WireError::TypeMismatch`] unless the value is `List`.
    pub fn into_list(self) -> WireResult<Vec<Value>> {
        match self {
            Value::List(l) => Ok(l),
            other => Err(WireError::TypeMismatch {
                expected: "list",
                found: other.kind(),
            }),
        }
    }

    /// Short type name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) => "i64",
            Value::U64(_) => "u64",
            Value::F64(_) => "f64",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::List(_) => "list",
            Value::Map(_) => "map",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::json::to_json_string(self))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

impl FromIterator<(String, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Value::Map(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_get_finds_keys() {
        let v = Value::Map(vec![
            ("a".into(), Value::I64(1)),
            ("b".into(), Value::I64(2)),
        ]);
        assert_eq!(v.get("b"), Some(&Value::I64(2)));
        assert_eq!(v.get("z"), None);
        assert!(matches!(v.field("z"), Err(WireError::MissingField(_))));
    }

    #[test]
    fn owned_accessors_move_the_payload_out() {
        let mut v = Value::Map(vec![
            ("s".into(), Value::from("text")),
            ("l".into(), Value::List(vec![Value::I64(1)])),
        ]);
        assert_eq!(v.take_field("s").unwrap().into_string().unwrap(), "text");
        assert_eq!(v.get("s"), Some(&Value::Null), "taken, the key stays");
        assert_eq!(
            v.take_field("l").unwrap().into_list().unwrap(),
            vec![Value::I64(1)]
        );
        assert_eq!(v.take_field("z"), Err(WireError::MissingField("z".into())));
        assert_eq!(
            Value::U64(1).take_field("s"),
            Err(WireError::MissingField("s".into()))
        );
        assert!(Value::U64(1).into_string().is_err());
        assert!(Value::from("x").into_list().is_err());
    }

    #[test]
    fn accessor_type_mismatch() {
        let v = Value::Str("x".into());
        assert!(v.as_i64().is_err());
        assert!(v.as_bool().is_err());
        assert!(v.as_bytes().is_err());
        assert_eq!(v.as_str().unwrap(), "x");
    }

    #[test]
    fn integer_cross_width_coercion() {
        assert_eq!(Value::U64(5).as_i64().unwrap(), 5);
        assert_eq!(Value::I64(5).as_u64().unwrap(), 5);
        assert!(Value::I64(-1).as_u64().is_err());
        assert!(Value::U64(u64::MAX).as_i64().is_err());
    }

    #[test]
    fn display_is_json() {
        let v = Value::List(vec![Value::Bool(true), Value::Null]);
        assert_eq!(v.to_string(), "[true,null]");
    }
}

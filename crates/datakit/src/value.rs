//! Dynamically typed cell values.

use std::fmt;
use std::sync::Arc;

/// The type of a [`Value`], used in [`crate::Schema`] declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Absence of a value; compatible with every other type.
    Null,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Raw bytes (used for model blobs and serialized payloads).
    Bytes,
    /// Homogeneous list of values (element type is not tracked).
    List,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Null => "Null",
            DataType::Bool => "Bool",
            DataType::Int => "Int",
            DataType::Float => "Float",
            DataType::Str => "Str",
            DataType::Bytes => "Bytes",
            DataType::List => "List",
        };
        f.write_str(s)
    }
}

/// A dynamically typed value held in a tuple cell.
///
/// Values carry their own encoded length ([`Value::encoded_len`]) so the
/// cluster simulator can charge serialization and network costs that are a
/// deterministic function of the data, matching how the paper's Texera
/// deployment pays per-tuple serde overhead between operators.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Arc<[u8]>),
    /// List of values.
    List(Vec<Value>),
}

impl Value {
    /// The [`DataType`] of this value.
    pub fn dtype(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Bytes(_) => DataType::Bytes,
            Value::List(_) => DataType::List,
        }
    }

    /// Whether this value may be stored in a column declared as `dtype`.
    ///
    /// `Null` is compatible with every column type.
    pub fn conforms_to(&self, dtype: DataType) -> bool {
        matches!(self, Value::Null) || self.dtype() == dtype
    }

    /// Deterministic wire size of this value in bytes.
    ///
    /// This is the size charged by the serde/network cost model: a small
    /// fixed header per value plus the payload. The exact encoding does not
    /// matter for the experiments, only that it is stable and roughly
    /// proportional to real encodings.
    pub fn encoded_len(&self) -> usize {
        const HEADER: usize = 1;
        HEADER
            + match self {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 8,
                Value::Float(_) => 8,
                Value::Str(s) => 4 + s.len(),
                Value::Bytes(b) => 4 + b.len(),
                Value::List(vs) => 4 + vs.iter().map(Value::encoded_len).sum::<usize>(),
            }
    }

    /// Borrow as `&str`, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract an `i64`, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract an `f64`, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extract a `bool`, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow the element slice, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(vs) => Some(vs),
            _ => None,
        }
    }

    /// Borrow the payload, if this is a bytes value.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// `Display` writes a human-readable rendering used by the GUI dump and by
/// error messages; it is *not* the wire encoding.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(vs) => {
                f.write_str("[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Arc<[u8]>> for Value {
    fn from(b: Arc<[u8]>) -> Self {
        Value::Bytes(b)
    }
}
impl From<Vec<Value>> for Value {
    fn from(vs: Vec<Value>) -> Self {
        Value::List(vs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_roundtrip() {
        assert_eq!(Value::Int(3).dtype(), DataType::Int);
        assert_eq!(Value::Str("x".into()).dtype(), DataType::Str);
        assert_eq!(Value::Null.dtype(), DataType::Null);
        assert_eq!(Value::List(vec![]).dtype(), DataType::List);
    }

    #[test]
    fn null_conforms_everywhere() {
        for dt in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bytes,
            DataType::List,
        ] {
            assert!(Value::Null.conforms_to(dt));
        }
        assert!(!Value::Int(1).conforms_to(DataType::Str));
        assert!(Value::Int(1).conforms_to(DataType::Int));
    }

    #[test]
    fn encoded_len_is_stable_and_monotone() {
        assert_eq!(Value::Null.encoded_len(), 1);
        assert_eq!(Value::Int(0).encoded_len(), 9);
        assert_eq!(Value::Int(i64::MAX).encoded_len(), 9);
        let short = Value::Str("ab".into()).encoded_len();
        let long = Value::Str("abcdef".into()).encoded_len();
        assert!(long > short);
        let list = Value::List(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(list.encoded_len(), 1 + 4 + 9 + 9);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Str("hi".into()).as_str(), Some("hi"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Str("hi".into()).as_int().is_none());
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display_rendering() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Str("a".into())]).to_string(),
            "[1, a]"
        );
        assert_eq!(
            Value::Bytes(b"abc".as_slice().into()).to_string(),
            "<3 bytes>"
        );
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3usize), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
    }
}

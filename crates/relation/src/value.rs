//! Attribute values.
//!
//! FD discovery only ever compares values for *equality within one column*,
//! so relations store dictionary codes internally (see
//! [`Relation`](crate::relation::Relation)) and keep the original [`Value`]s
//! in a per-column dictionary. The dictionary is what makes *real-world*
//! Armstrong relations possible: their tuples are materialized back from the
//! original domain values (§4, Definition 1, condition 3).

use std::fmt;

/// A single attribute value.
///
/// Integers and text cover the paper's workloads (synthetic integer data and
/// the employee example). `Null` models SQL `NULL` with the usual
/// "null ≠ null" convention *disabled*: for FD discovery we follow the
/// standard practice of treating `NULL` as a regular (equal-to-itself)
/// domain value, which is what partition-based miners do implicitly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Absent value; compares equal to itself.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// Parses a CSV field: empty ⇒ `Null`, integral ⇒ `Int`, else `Text`.
    pub fn parse(field: &str) -> Value {
        match ValueRef::parse(field) {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Text(s) => Value::Text(s.to_string()),
        }
    }

    /// `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as a [`ValueRef`], borrowing its text.
    pub(crate) fn borrowed(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Text(s) => ValueRef::Text(s),
        }
    }
}

/// A [`Value`] whose text is borrowed: what the column builder interns,
/// from a CSV field or from a [`Value`], without a `String` per cell.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueRef<'a> {
    Null,
    Int(i64),
    Text(&'a str),
}

impl<'a> ValueRef<'a> {
    /// Classifies a CSV field: empty ⇒ `Null`, anything `i64`'s `FromStr`
    /// accepts (`7`, `07`, `+7`, `-0`) ⇒ `Int`, else `Text`, overflowing
    /// digits included.
    pub(crate) fn parse(field: &'a str) -> Self {
        if field.is_empty() {
            ValueRef::Null
        } else if let Ok(i) = field.parse::<i64>() {
            ValueRef::Int(i)
        } else {
            ValueRef::Text(field)
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_classifies_fields() {
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("-7"), Value::Int(-7));
        assert_eq!(Value::parse("+7"), Value::Int(7));
        assert_eq!(Value::parse("07"), Value::Int(7));
        assert_eq!(Value::parse("-0"), Value::Int(0));
        assert_eq!(
            Value::parse("9223372036854775808"),
            Value::Text("9223372036854775808".into())
        );
        assert_eq!(Value::parse("-"), Value::Text("-".into()));
        assert_eq!(Value::parse("4.2"), Value::Text("4.2".into()));
        assert_eq!(
            Value::parse("Biochemistry"),
            Value::Text("Biochemistry".into())
        );
    }

    #[test]
    fn null_equals_itself() {
        assert_eq!(Value::Null, Value::Null);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Text("x".into()).to_string(), "x");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("s"), Value::Text("s".into()));
        assert_eq!(Value::from(String::from("s")), Value::Text("s".into()));
    }
}

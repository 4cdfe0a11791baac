//! Offline stand-in for a JSON crate.
//!
//! This workspace must build with no network access and no registry cache,
//! so — like the in-tree `rand` — the JSON layer lives
//! here: a small document model ([`Value`]), a strict recursive-descent
//! parser ([`parse`]), deterministic emitters
//! ([`Value::to_string_compact`], [`Value::to_string_pretty`], and
//! [`Stream`] for a document too long to hold as one tree) and the one
//! strict object reader every schema layer uses ([`read::Fields`]).
//!
//! Design points, in the order they matter to this workspace:
//!
//! * **Determinism.** Objects preserve insertion order (a `Vec` of pairs,
//!   never a hash map), so emitting the same document twice is
//!   byte-identical — the property batch harnesses diff across PRs.
//! * **Numbers keep their kind.** Integers that fit `u64`/`i64` stay
//!   integers ([`Value::UInt`] / [`Value::Int`]); everything else is an
//!   [`Value::Float`]. `u64` quantities like seeds and byte counts
//!   round-trip exactly, beyond `f64`'s 2⁵³ integer range.
//! * **Exponent literals parse.** Rust's shortest `f64` formatting emits
//!   `1e21`-style exponents for large/small magnitudes; the parser accepts
//!   the full JSON number grammar, so emitted documents always read back.
//! * **Strictness over leniency.** Duplicate object keys, trailing input,
//!   unpaired surrogates and non-finite results are errors with line/column
//!   positions, because scenario files are written by hand.
//!
//! Non-finite floats cannot be represented in JSON; the emitters write
//! `null` for them ([`read::finite`] rejects that with an explanation).
//!
//! # Examples
//!
//! ```
//! use json::{parse, Value};
//!
//! let doc = parse(r#"{"name": "ar-headset", "freq_mhz": 1866, "loads": [1e21, 2.5e-7]}"#)?;
//! assert_eq!(doc.get("name").and_then(Value::as_str), Some("ar-headset"));
//! assert_eq!(doc.get("freq_mhz").and_then(Value::as_u64), Some(1866));
//! let loads = doc.get("loads").and_then(Value::as_array).unwrap();
//! assert_eq!(loads[0].as_f64(), Some(1e21));
//! // Emitting is deterministic and re-parseable.
//! assert_eq!(parse(&doc.to_string_compact())?, doc);
//! # Ok::<(), json::ParseError>(())
//! ```

#![warn(missing_docs)]

mod emit;
mod parse;
pub mod read;

pub use emit::Stream;
pub use parse::{parse, ParseError};

/// A borrowed string or unsigned integer: what a record's small members
/// are, written by [`Stream::scalar`] without the owned [`Value`] it
/// converts into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scalar<'a> {
    /// A string, escaped as [`Value::Str`] is.
    Str(&'a str),
    /// A non-negative integer, as [`Value::UInt`].
    UInt(u64),
}

impl From<Scalar<'_>> for Value {
    fn from(value: Scalar<'_>) -> Value {
        match value {
            Scalar::Str(s) => Value::Str(s.to_string()),
            Scalar::UInt(u) => Value::UInt(u),
        }
    }
}

/// A parsed or constructed JSON document node.
///
/// Object members keep insertion order, which is what makes emission
/// deterministic; see the crate docs for the number-kind rules.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (fits `u64`).
    UInt(u64),
    /// A negative integer literal (fits `i64`).
    Int(i64),
    /// Any other number (fraction, exponent, or out of integer range).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: ordered key → value pairs, keys unique.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Any number as an `f64` (integers convert; may round beyond 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Any number exactly representable as a `u64`.
    ///
    /// Covers non-negative integer literals and floats with an exact
    /// integral value (so a hand-written `1e3` reads as `1000`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f < u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Looks a member up by key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// One-word description of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(u: u64) -> Self {
        Value::UInt(u)
    }
}

impl From<u32> for Value {
    fn from(u: u32) -> Self {
        Value::UInt(u64::from(u))
    }
}

impl From<usize> for Value {
    fn from(u: usize) -> Self {
        Value::UInt(u as u64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_the_variants() {
        let doc = parse(r#"{"a": 1, "b": -2, "c": 1.5, "d": "x", "e": [true, null], "f": {}}"#)
            .expect("valid document");
        assert_eq!(doc.get("a"), Some(&Value::UInt(1)));
        assert_eq!(doc.get("b"), Some(&Value::Int(-2)));
        assert_eq!(doc.get("b").unwrap().as_f64(), Some(-2.0));
        assert_eq!(doc.get("b").unwrap().as_u64(), None);
        assert_eq!(doc.get("c"), Some(&Value::Float(1.5)));
        assert_eq!(doc.get("d").unwrap().as_str(), Some("x"));
        let e = doc.get("e").unwrap().as_array().unwrap();
        assert_eq!(e[0].as_bool(), Some(true));
        assert!(e[1].is_null());
        assert_eq!(doc.get("f").unwrap().as_object(), Some(&[][..]));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.type_name(), "object");
    }

    #[test]
    fn integral_floats_read_as_u64() {
        assert_eq!(Value::Float(1000.0).as_u64(), Some(1000));
        assert_eq!(Value::Float(1000.5).as_u64(), None);
        assert_eq!(Value::Float(-1.0).as_u64(), None);
        // Exact u64 round-trip beyond f64's integer range.
        let big = u64::MAX - 1;
        assert_eq!(Value::UInt(big).as_u64(), Some(big));
    }
}

//! Strict reading of JSON objects: the scenario format, the serve `submit`
//! parser and `sara report` all read through [`Fields`], so each kind of
//! value is checked in one place and every complaint has one wording.
//!
//! A message is the caller's path, then either `"key" <rule>` (a value
//! broke a rule: `scenario: "duration_ms" must be > 0, got -1`) or a
//! sentence about the object (`scenario: unknown key "sede" (expected one
//! of: …)`). The rule functions return only the rule text, so a front door
//! that is not JSON (a CLI flag) puts its own subject before the same words.

use std::fmt::Display;

use crate::Value;

/// A string; else `must be a string, got <type>`.
#[inline]
pub fn string(v: &Value) -> Result<&str, String> {
    v.as_str()
        .ok_or_else(|| format!("must be a string, got {}", v.type_name()))
}

/// An integer in `u64`; else `must be a non-negative integer, got <type>`.
#[inline]
pub fn uint(v: &Value) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("must be a non-negative integer, got {}", v.type_name()))
}

/// A finite number. `null` (how the emitters write NaN and infinity) gets
/// its own explanation; anything else `must be a finite number, got <type>`.
#[inline]
pub fn finite(v: &Value) -> Result<f64, String> {
    match v.as_f64() {
        Some(f) if f.is_finite() => Ok(f),
        _ if v.is_null() => Err("is null — non-finite numbers (NaN/infinity) cannot \
                                 round-trip through JSON and are not valid here"
            .to_string()),
        _ => Err(format!("must be a finite number, got {}", v.type_name())),
    }
}

/// A boolean; else `must be a boolean, got <type>`.
#[inline]
pub fn boolean(v: &Value) -> Result<bool, String> {
    v.as_bool()
        .ok_or_else(|| format!("must be a boolean, got {}", v.type_name()))
}

/// An array; else `must be an array, got <type>`.
#[inline]
pub fn array(v: &Value) -> Result<&[Value], String> {
    v.as_array()
        .ok_or_else(|| format!("must be an array, got {}", v.type_name()))
}

/// A count of at least one; else `must be ≥ 1`.
#[inline]
pub fn at_least_one(n: u64) -> Result<u64, String> {
    match n {
        0 => Err("must be ≥ 1".to_string()),
        n => Ok(n),
    }
}

/// An integer within `u32`; else `<n> exceeds 4294967295`.
#[inline]
pub fn fits_u32(n: u64) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| format!("{n} exceeds {}", u32::MAX))
}

/// A DRAM frequency in MHz: [`at_least_one`], then [`fits_u32`].
#[inline]
pub fn mhz(n: u64) -> Result<u32, String> {
    fits_u32(at_least_one(n)?)
}

/// A finite quantity above zero (a duration, a rate, a threshold); else
/// `must be > 0, got <x>`.
#[inline]
pub fn positive(x: f64) -> Result<f64, String> {
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(format!("must be > 0, got {x}"))
    }
}

/// The members of one JSON object, read under a path such as
/// `scenario.cores[0].dmas[1]` or `submit`.
///
/// Strict readers name the allowed keys with [`Fields::only`] before they
/// read a field, so a typo is reported as the unknown key it is rather than
/// as the required key it displaced. Lenient readers (`sara report`, which
/// must read newer dumps) skip it.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    members: &'a [(String, Value)],
    path: &'a str,
}

impl<'a> Fields<'a> {
    /// `value` as an object; else `<path>: expected an object, got <type>`.
    #[inline]
    pub fn new(value: &'a Value, path: &'a str) -> Result<Self, String> {
        match value.as_object() {
            Some(members) => Ok(Fields { members, path }),
            None => Err(format!(
                "{path}: expected an object, got {}",
                value.type_name()
            )),
        }
    }

    /// Rejects a member outside `allowed`:
    /// `<path>: unknown key "<k>" (expected one of: <allowed>)`.
    #[inline]
    pub fn only<'k>(
        self,
        allowed: impl IntoIterator<Item = &'k &'k str> + Clone,
    ) -> Result<Self, String> {
        let known = |key: &str| allowed.clone().into_iter().any(|a| *a == key);
        match self.members.iter().find(|(k, _)| !known(k)) {
            None => Ok(self),
            Some((key, _)) => {
                let allowed: Vec<&str> = allowed.into_iter().copied().collect();
                Err(self.error(format!(
                    "unknown key \"{key}\" (expected one of: {})",
                    allowed.join(", ")
                )))
            }
        }
    }

    /// A sentence about this object: `<path>: <message>`.
    pub fn error(&self, message: impl Display) -> String {
        format!("{}: {message}", self.path)
    }

    /// A rule `key`'s value broke: `<path>: "<key>" <rule>`.
    pub fn key_error(&self, key: &str, rule: impl Display) -> String {
        format!("{}: \"{key}\" {rule}", self.path)
    }

    /// The value under `key`, if present.
    #[inline]
    pub fn opt(&self, key: &str) -> Option<&'a Value> {
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value under `key`; else `<path>: missing required key "<key>"`.
    #[inline]
    pub fn get(&self, key: &str) -> Result<&'a Value, String> {
        self.opt(key)
            .ok_or_else(|| self.error(format!("missing required key \"{key}\"")))
    }

    /// The value under `key` read through `rule`, whose text follows the
    /// path and the key.
    pub fn read<T>(
        &self,
        key: &str,
        rule: impl FnOnce(&'a Value) -> Result<T, String>,
    ) -> Result<T, String> {
        rule(self.get(key)?).map_err(|r| self.key_error(key, r))
    }

    /// An optional `key` read with one of the accessors below: `None` when
    /// absent, the accessor's complaint when present and wrong.
    pub fn optional<T>(
        &self,
        key: &str,
        accessor: impl FnOnce(&Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.opt(key).map(|_| accessor(self, key)).transpose()
    }

    /// A [`string`].
    #[inline]
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.read(key, string)
    }

    /// A [`string`] that is not empty; else `"<key>" must be non-empty`.
    #[inline]
    pub fn non_empty(&self, key: &str) -> Result<&'a str, String> {
        match self.str(key)? {
            "" => Err(self.key_error(key, "must be non-empty")),
            s => Ok(s),
        }
    }

    /// A [`uint`].
    #[inline]
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.read(key, uint)
    }

    /// A [`uint`] that is [`at_least_one`].
    #[inline]
    pub fn nonzero(&self, key: &str) -> Result<u64, String> {
        self.read(key, |v| at_least_one(uint(v)?))
    }

    /// A [`uint`] that is a [`mhz`] frequency.
    #[inline]
    pub fn mhz(&self, key: &str) -> Result<u32, String> {
        self.read(key, |v| mhz(uint(v)?))
    }

    /// A [`finite`] number.
    #[inline]
    pub fn finite(&self, key: &str) -> Result<f64, String> {
        self.read(key, finite)
    }

    /// A [`finite`] number that is [`positive`].
    #[inline]
    pub fn positive(&self, key: &str) -> Result<f64, String> {
        self.read(key, |v| positive(finite(v)?))
    }

    /// A [`boolean`].
    #[inline]
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.read(key, boolean)
    }

    /// An [`array()`].
    #[inline]
    pub fn array(&self, key: &str) -> Result<&'a [Value], String> {
        self.read(key, array)
    }

    /// An [`array()`] whose every element is read through `rule`; an
    /// element's complaint names it `"<key>[<i>]"`.
    pub fn list<T>(
        &self,
        key: &str,
        rule: impl Fn(&'a Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.array(key)?
            .iter()
            .enumerate()
            .map(|(i, v)| rule(v).map_err(|r| self.key_error(&format!("{key}[{i}]"), r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn every_complaint_names_the_path_and_the_key() {
        let doc =
            parse(r#"{"s": 1, "n": null, "z": 0, "big": 5000000000, "neg": -1, "xs": [1, "a"]}"#)
                .unwrap();
        let f = Fields::new(&doc, "doc").unwrap();
        assert_eq!(
            f.str("s").unwrap_err(),
            "doc: \"s\" must be a string, got number"
        );
        assert_eq!(f.get("t").unwrap_err(), "doc: missing required key \"t\"");
        assert!(f
            .finite("n")
            .unwrap_err()
            .starts_with("doc: \"n\" is null — non-finite"));
        assert_eq!(f.nonzero("z").unwrap_err(), "doc: \"z\" must be ≥ 1");
        assert_eq!(
            f.mhz("big").unwrap_err(),
            "doc: \"big\" 5000000000 exceeds 4294967295"
        );
        assert_eq!(
            f.positive("neg").unwrap_err(),
            "doc: \"neg\" must be > 0, got -1"
        );
        assert_eq!(
            f.list("xs", uint).unwrap_err(),
            "doc: \"xs[1]\" must be a non-negative integer, got string"
        );
        assert_eq!(f.optional("absent", Fields::bool), Ok(None));
        assert_eq!(
            f.only(&["s"]).unwrap_err(),
            "doc: unknown key \"n\" (expected one of: s)"
        );
        assert_eq!(
            Fields::new(&Value::Null, "doc").unwrap_err(),
            "doc: expected an object, got null"
        );
    }
}

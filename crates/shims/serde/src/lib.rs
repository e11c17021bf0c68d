//! Offline stand-in for [`serde`](https://crates.io/crates/serde).
//!
//! The build environment has no network access, so the workspace vendors
//! a minimal serde: serialization goes through an owned [`Value`] tree
//! (the data model), and `#[derive(Serialize, Deserialize)]` is provided
//! by the sibling `serde_derive` proc-macro crate for the shapes this
//! workspace uses (named structs, tuple structs, unit-variant enums,
//! `#[serde(skip)]` fields). `serde_json` renders [`Value`] as JSON.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

/// The serialization data model: an owned JSON-like tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` / `Option::None`.
    Null,
    /// Booleans.
    Bool(bool),
    /// Unsigned integers.
    U64(u64),
    /// Signed integers (negative values only; non-negatives use `U64`).
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Strings (also unit enum variants).
    Str(String),
    /// Sequences (slices, vectors, tuples, multi-field tuple structs).
    Seq(Vec<Value>),
    /// Maps with string keys (named-field structs), insertion-ordered.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Borrow the entries of a `Map`, if this is one.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow the elements of a `Seq`, if this is one.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow the string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a key in a `Map`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Construct from any message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

/// Types that can render themselves into the [`Value`] data model.
pub trait Serialize {
    /// Produce the value-tree representation.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuild from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::new(concat!("out of range for ", stringify!($t)))),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::new(concat!("out of range for ", stringify!($t)))),
                    _ => Err(Error::new(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self >= 0 {
                    Value::U64(*self as u64)
                } else {
                    Value::I64(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::new(concat!("out of range for ", stringify!($t)))),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::new(concat!("out of range for ", stringify!($t)))),
                    _ => Err(Error::new(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            _ => Err(Error::new("expected f64")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::new("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::new("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_seq()
            .ok_or_else(|| Error::new("expected sequence"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Box<[T]> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Box<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(Vec::into_boxed_slice)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let s = v.as_seq().ok_or_else(|| Error::new("expected tuple sequence"))?;
                let expected = [$($n),+].len();
                if s.len() != expected {
                    return Err(Error::new("tuple arity mismatch"));
                }
                Ok(($($t::from_value(&s[$n])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<K, V> Serialize for HashMap<K, V>
where
    K: Serialize + Ord,
    V: Serialize,
{
    fn to_value(&self) -> Value {
        // Deterministic order so serialized output is stable.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Value::Seq(
            entries
                .into_iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K, V> Deserialize for HashMap<K, V>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_seq()
            .ok_or_else(|| Error::new("expected map entry sequence"))?
            .iter()
            .map(<(K, V)>::from_value)
            .collect()
    }
}

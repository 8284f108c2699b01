//! The one state codec: where the snapshot format of a shared object is
//! decided. The paper's platform serializes a shared object for a joiner
//! and copies it with `Copy`, so no application writes an encoding; here
//! [`Canonical`] encodes the types state structs hold, and
//! [`canonical!`](crate::canonical) writes a struct's encoding — and a
//! shared object's whole [`GState`](crate::GState) impl — from its field
//! list. A record is a map by field name, every field required and unknown
//! keys ignored; a set is an ascending list (decoded from any order); an
//! `Option` is `Unit` or the value; a pair is a two-element list; an
//! integer is an `Int`, range-checked on the way back (`try_from`, never
//! `as`). A `GState` restore decodes a whole new value before it assigns,
//! so a failed restore leaves the object as it was.
//!
//! It is also where an operation's *arguments* are decoded: [`Args`] reads
//! a typed tuple from an argument list by position (borrowing strings,
//! range-checking integers), and [`methods!`](crate::methods) declares each
//! shared operation as one row — name, typed parameters, the state's
//! method and its footprint fn — from which come the typed constructor,
//! the registered apply function and the declared
//! [`EffectSpec`](crate::EffectSpec).

use std::collections::{BTreeMap, BTreeSet};

use crate::error::RestoreError;
use crate::value::Value;

/// A type with one canonical [`Value`] encoding: equal values encode
/// equally, and `from_value(&x.to_value())` reproduces `x`.
pub trait Canonical: Sized {
    /// The canonical encoding.
    fn to_value(&self) -> Value;

    /// Decodes the shape [`Canonical::to_value`] produces.
    ///
    /// # Errors
    ///
    /// Any other kind of node, a missing record field, or an integer
    /// outside the target type's range.
    fn from_value(v: &Value) -> Result<Self, RestoreError>;
}

impl Canonical for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn from_value(v: &Value) -> Result<Self, RestoreError> {
        v.as_bool().ok_or_else(|| RestoreError::shape("bool"))
    }
}

impl Canonical for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn from_value(v: &Value) -> Result<Self, RestoreError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| RestoreError::shape("string"))
    }
}

macro_rules! integer {
    ($($t:ty),+) => {$(
        impl Canonical for $t {
            /// Only a `u64` past `i64::MAX` does not fit: it encodes as
            /// `-1`, which its decoder refuses, so it fails closed.
            fn to_value(&self) -> Value {
                Value::Int(i64::try_from(*self).unwrap_or(-1))
            }
            fn from_value(v: &Value) -> Result<Self, RestoreError> {
                let n = v.as_i64().ok_or_else(|| RestoreError::shape("int"))?;
                <$t>::try_from(n)
                    .map_err(|_| RestoreError::shape(concat!("int in ", stringify!($t))))
            }
        }
    )+};
}
integer!(i64, u32, u64);

impl<T: Canonical> Canonical for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Unit, T::to_value)
    }
    fn from_value(v: &Value) -> Result<Self, RestoreError> {
        match v {
            Value::Unit => Ok(None),
            v => T::from_value(v).map(Some),
        }
    }
}

impl<A: Canonical, B: Canonical> Canonical for (A, B) {
    fn to_value(&self) -> Value {
        Value::List(vec![self.0.to_value(), self.1.to_value()])
    }
    fn from_value(v: &Value) -> Result<Self, RestoreError> {
        let Some([a, b]) = v.as_list() else {
            return Err(RestoreError::shape("two-element list"));
        };
        Ok((A::from_value(a)?, B::from_value(b)?))
    }
}

impl<T: Canonical> Canonical for Vec<T> {
    fn to_value(&self) -> Value {
        Value::List(self.iter().map(T::to_value).collect())
    }
    fn from_value(v: &Value) -> Result<Self, RestoreError> {
        list(v)?.iter().map(T::from_value).collect()
    }
}

impl<T: Canonical + Ord> Canonical for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::List(self.iter().map(T::to_value).collect())
    }
    fn from_value(v: &Value) -> Result<Self, RestoreError> {
        list(v)?.iter().map(T::from_value).collect()
    }
}

fn list(v: &Value) -> Result<&[Value], RestoreError> {
    v.as_list().ok_or_else(|| RestoreError::shape("list"))
}

impl<T: Canonical> Canonical for BTreeMap<String, T> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, x)| (k.clone(), x.to_value()))
                .collect(),
        )
    }
    fn from_value(v: &Value) -> Result<Self, RestoreError> {
        let map = v.as_map().ok_or_else(|| RestoreError::shape("map"))?;
        map.iter()
            .map(|(k, x)| Ok((k.clone(), T::from_value(x)?)))
            .collect()
    }
}

/// Decodes record field `name` of `v`, naming the field in the error
/// (what [`canonical!`](crate::canonical) expands to).
///
/// # Errors
///
/// `v` is not a map, lacks `name`, or its `name` does not decode as `T`.
pub fn field<T: Canonical>(v: &Value, name: &str) -> Result<T, RestoreError> {
    let x = v
        .field(name)
        .ok_or_else(|| RestoreError::shape(format!("field `{name}`")))?;
    T::from_value(x).map_err(|e| RestoreError::shape(format!("`{name}`: {}", e.expected())))
}

/// Writes a struct's [`Canonical`] encoding from its field list:
/// `canonical!(struct T { a, b })` is a record (a map by field name; list
/// every field), `canonical!(struct T(a))` the one field's own encoding.
/// Written `canonical!(impl GState for T as "Name" { a, b })` (or `(a)`),
/// it also writes `T`'s [`GState`](crate::GState) impl: `snapshot` is the
/// encoding, and `restore` decodes in full before it assigns.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeSet;
/// use guesstimate_core::{canonical, GState, Value};
///
/// #[derive(Clone, Default, Debug, PartialEq)]
/// struct Room {
///     seats: u32,
///     guests: BTreeSet<String>,
/// }
/// canonical!(impl GState for Room as "Room" { seats, guests });
///
/// let mut room = Room { seats: 2, guests: ["ann".to_owned()].into() };
/// let v = room.snapshot();
/// assert_eq!(v.field("guests"), Some(&Value::from(vec![Value::from("ann")])));
/// // An out-of-range count fails, and leaves `room` as it was.
/// let bad = Value::map([("seats", Value::from(-1)), ("guests", Value::List(vec![]))]);
/// assert!(room.restore(&bad).is_err());
/// assert_eq!(room.snapshot(), v);
/// ```
#[macro_export]
macro_rules! canonical {
    (impl GState for $ty:ident as $name:literal $($shape:tt)+) => {
        $crate::canonical!(struct $ty $($shape)+);
        impl $crate::GState for $ty {
            const TYPE_NAME: &'static str = $name;
            fn snapshot(&self) -> $crate::Value {
                $crate::Canonical::to_value(self)
            }
            fn restore(&mut self, v: &$crate::Value) -> ::std::result::Result<(), $crate::RestoreError> {
                *self = $crate::Canonical::from_value(v)?;
                ::std::result::Result::Ok(())
            }
        }
    };
    (struct $ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Canonical for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::Value::map([$(
                    (::std::stringify!($field), $crate::Canonical::to_value(&self.$field)),
                )+])
            }
            fn from_value(v: &$crate::Value) -> ::std::result::Result<Self, $crate::RestoreError> {
                ::std::result::Result::Ok($ty {
                    $($field: $crate::codec::field(v, ::std::stringify!($field))?,)+
                })
            }
        }
    };
    (struct $ty:ident ( $field:tt )) => {
        impl $crate::Canonical for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::Canonical::to_value(&self.$field)
            }
            fn from_value(v: &$crate::Value) -> ::std::result::Result<Self, $crate::RestoreError> {
                ::std::result::Result::Ok($ty { $field: $crate::Canonical::from_value(v)? })
            }
        }
    };
}

/// One operation argument type: `&str` (borrowed from the argument list,
/// never allocated), `bool`, `i64`, and `u8` / `u32` / `u64`, whose
/// decoders range-check (`try_from`, never `as`).
pub trait Arg<'a>: Sized {
    /// Decodes one argument: `None` for another kind of value or an
    /// integer outside the type's range.
    fn from_arg(v: &'a Value) -> Option<Self>;

    /// The argument's encoding.
    fn to_arg(self) -> Value;
}

impl<'a> Arg<'a> for &'a str {
    fn from_arg(v: &'a Value) -> Option<Self> {
        v.as_str()
    }
    fn to_arg(self) -> Value {
        Value::from(self)
    }
}

impl Arg<'_> for bool {
    fn from_arg(v: &Value) -> Option<Self> {
        v.as_bool()
    }
    fn to_arg(self) -> Value {
        Value::Bool(self)
    }
}

/// A `u64` past `i64::MAX` encodes as `-1`, which its decoder refuses, so
/// it fails closed (as [`Canonical`] does).
macro_rules! int {
    ($($t:ty),+) => {$(
        impl Arg<'_> for $t {
            fn from_arg(v: &Value) -> Option<Self> {
                <$t>::try_from(v.as_i64()?).ok()
            }
            fn to_arg(self) -> Value {
                Value::Int(i64::try_from(self).unwrap_or(-1))
            }
        }
    )+};
}
int!(i64, u8, u32, u64);

/// The one argument decoder: a typed argument list — one [`Arg`], or a
/// tuple of up to four — read by position from an operation's arguments.
/// Trailing extra arguments are ignored; a missing argument, another kind
/// of value or an out-of-range integer makes the whole list `None`.
///
/// # Examples
///
/// ```
/// use guesstimate_core::codec::Args;
/// use guesstimate_core::args;
///
/// let a = args!["v1", 4, "party"];
/// assert_eq!(<(&str, u32, &str)>::decode(&a), Some(("v1", 4, "party")));
/// assert_eq!(<&str>::decode(&a), Some("v1"));
/// assert_eq!(<(&str, bool)>::decode(&a), None);
/// assert_eq!(<(&str, u32)>::decode(&args!["v1", 1i64 << 32]), None);
/// ```
pub trait Args<'a>: Sized {
    /// Decodes the list.
    fn decode(args: &'a [Value]) -> Option<Self>;
}

impl<'a, T: Arg<'a>> Args<'a> for T {
    fn decode(args: &'a [Value]) -> Option<Self> {
        T::from_arg(args.first()?)
    }
}

impl Args<'_> for () {
    fn decode(_: &[Value]) -> Option<Self> {
        Some(())
    }
}

macro_rules! tuple {
    ($($t:ident $v:ident),+) => {
        impl<'a, $($t: Arg<'a>),+> Args<'a> for ($($t,)+) {
            fn decode(args: &'a [Value]) -> Option<Self> {
                let [$($v,)+ ..] = args else {
                    return None;
                };
                Some(($($t::from_arg($v)?,)+))
            }
        }
    };
}
tuple!(A a);
tuple!(A a, B b);
tuple!(A a, B b, C c);
tuple!(A a, B b, C c, D d);

/// Declares a state type's shared operations, one row each: `fn` name and
/// typed parameters ([`Arg`] types), and after `=>` the footprint fn
/// applied to the parameters it needs, with `, self_commuting` where the
/// method declares it
/// ([`EffectSpec::self_commuting`](crate::EffectSpec::self_commuting)).
/// The state's method of the same name (`&mut self`, the same parameters,
/// returning `bool`) is the operation; the footprint fn returns a
/// [`Footprint`](crate::Footprint).
///
/// Each row writes a typed constructor `name(obj, params..) -> SharedOp`,
/// and `register_methods(&mut OpRegistry)` registers the type once and
/// every row's method through
/// [`OpRegistry::register_with_effects`](crate::OpRegistry::register_with_effects).
/// Both the apply function and the footprint decode the argument list
/// through [`Args`]; a list that does not decode fails the operation and
/// has an empty footprint.
///
/// See the [crate-level example](crate).
#[macro_export]
macro_rules! methods {
    ($ty:ident; $(
        $(#[$doc:meta])*
        fn $name:ident($($p:ident: $t:ty),* $(,)?) => $fp:ident($($fa:ident),*) $(, $sc:ident)?;
    )+) => {
        $(
            $(#[$doc])*
            pub fn $name(obj: $crate::ObjectId, $($p: $t),*) -> $crate::SharedOp {
                $crate::SharedOp::primitive(
                    obj,
                    ::std::stringify!($name),
                    ::std::vec![$($crate::codec::Arg::to_arg($p)),*],
                )
            }
        )+

        /// Registers the state type and every shared operation of its rows.
        pub fn register_methods(registry: &mut $crate::OpRegistry) {
            registry.register_type::<$ty>();
            $(
                registry.register_with_effects::<$ty>(
                    ::std::stringify!($name),
                    $crate::EffectSpec::new(|a| match a.decode::<($($t,)*)>() {
                        #[allow(unused_variables)]
                        ::std::option::Option::Some(($($p,)*)) => $fp($($fa),*),
                        ::std::option::Option::None => $crate::Footprint::new(),
                    })$(.$sc())?,
                    |s, a| a.decode::<($($t,)*)>().is_some_and(|($($p,)*)| s.$name($($p),*)),
                );
            )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Canonical + PartialEq + std::fmt::Debug>(x: T, v: Value) {
        assert_eq!(x.to_value(), v);
        assert_eq!(T::from_value(&v).unwrap(), x);
    }

    #[test]
    fn every_rule_encodes_as_documented() {
        roundtrip(true, Value::Bool(true));
        roundtrip("x".to_owned(), Value::from("x"));
        roundtrip(-3i64, Value::Int(-3));
        roundtrip(7u32, Value::Int(7));
        roundtrip(7u64, Value::Int(7));
        roundtrip(None::<i64>, Value::Unit);
        roundtrip(Some(4i64), Value::Int(4));
        roundtrip(
            ("a".to_owned(), 1i64),
            Value::List(vec![Value::from("a"), Value::from(1)]),
        );
        roundtrip(
            vec![2i64, 1],
            Value::List(vec![Value::from(2), Value::from(1)]),
        );
        roundtrip(
            BTreeSet::from([2i64, 1]),
            Value::List(vec![Value::from(1), Value::from(2)]),
        );
        roundtrip(
            BTreeMap::from([("k".to_owned(), true)]),
            Value::map([("k", Value::from(true))]),
        );
    }

    #[test]
    fn integers_are_range_checked() {
        assert!(u32::from_value(&Value::from(-1)).is_err());
        assert!(u32::from_value(&Value::from(1i64 << 32)).is_err());
        assert_eq!(
            u32::from_value(&Value::from(i64::from(u32::MAX))),
            Ok(u32::MAX)
        );
        assert!(u64::from_value(&Value::from(-1)).is_err());
        assert!(
            u64::from_value(&u64::MAX.to_value()).is_err(),
            "fails closed"
        );
        assert!(i64::from_value(&Value::from(1.0)).is_err());
    }

    #[test]
    fn kinds_are_strict_and_sets_lenient() {
        assert!(bool::from_value(&Value::from(1)).is_err());
        assert!(String::from_value(&Value::Unit).is_err());
        assert!(<(i64, i64)>::from_value(&Value::List(vec![Value::from(1)])).is_err());
        assert!(Vec::<i64>::from_value(&Value::map([("a", Value::from(1))])).is_err());
        assert!(BTreeMap::<String, i64>::from_value(&Value::List(vec![])).is_err());
        let unsorted = Value::List(vec![Value::from(2), Value::from(1), Value::from(2)]);
        assert_eq!(
            BTreeSet::<i64>::from_value(&unsorted),
            Ok(BTreeSet::from([1, 2]))
        );
    }

    #[derive(Debug, PartialEq)]
    struct Rec {
        a: i64,
        b: Option<String>,
    }
    canonical!(struct Rec { a, b });

    #[derive(Debug, PartialEq)]
    struct Named {
        m: BTreeMap<String, i64>,
    }
    canonical!(struct Named(m));

    #[test]
    fn records_need_every_field_and_ignore_unknown_keys() {
        let v = Value::map([("a", Value::from(1)), ("b", Value::Unit)]);
        roundtrip(Rec { a: 1, b: None }, v.clone());
        let mut extra = v.as_map().unwrap().clone();
        extra.insert("~".to_owned(), Value::from(0));
        assert_eq!(
            Rec::from_value(&Value::Map(extra)),
            Ok(Rec { a: 1, b: None })
        );
        let err = Rec::from_value(&Value::map([("a", Value::from(1))])).unwrap_err();
        assert!(err.expected().contains("`b`"), "{err}");
        let err =
            Rec::from_value(&Value::map([("a", Value::Unit), ("b", Value::Unit)])).unwrap_err();
        assert_eq!(err.expected(), "`a`: int");
        assert!(Rec::from_value(&Value::from(1)).is_err());
    }

    #[test]
    fn arguments_decode_by_position_and_fail_closed() {
        let a = [
            Value::from("k"),
            Value::from(true),
            Value::from(255),
            Value::Unit,
        ];
        assert_eq!(<()>::decode(&[]), Some(()));
        assert_eq!(<(&str, bool, u8)>::decode(&a), Some(("k", true, 255)));
        assert_eq!(<(&str, bool, i64, u64)>::decode(&a[..3]), None, "too short");
        assert_eq!(<(&str, i64)>::decode(&a), None, "a bool is not an int");
        assert_eq!(
            <(&str, bool, u8)>::decode(&[a[0].clone(), a[1].clone(), 256.into()]),
            None
        );
        assert_eq!(<u32>::decode(&[Value::from(-1)]), None);
        assert_eq!(<u64>::decode(&[u64::MAX.to_arg()]), None, "fails closed");
        let encoded = ["s".to_arg(), true.to_arg(), 7u32.to_arg(), (-7i64).to_arg()];
        assert_eq!(
            <(&str, bool, u32, i64)>::decode(&encoded),
            Some(("s", true, 7, -7))
        );
    }

    #[test]
    fn a_wrapper_is_its_field() {
        let v = Value::map([("x", Value::from(3))]);
        roundtrip(
            Named {
                m: BTreeMap::from([("x".to_owned(), 3)]),
            },
            v,
        );
    }
}

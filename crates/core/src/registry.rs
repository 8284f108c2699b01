//! The operation registry: reflection replacement for replayable operations.
//!
//! The C# API creates operations by name — `Guesstimate.CreateOperation(obj,
//! "Update", r, c, v)` — and the runtime re-invokes the named method on every
//! machine's committed replica at commit time. Rust has no runtime
//! reflection, so applications *register* each shared-operation method once,
//! as a typed closure, and the [`OpRegistry`] routes `(type name, method
//! name)` pairs to the registered apply function on every machine.
//!
//! The registry also holds a constructor per type, used to materialize an
//! object on machines that join it (`JoinInstance`) after creation.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use crate::effect::EffectSpec;
use crate::error::ExecError;
use crate::object::{GState, SharedObject};
use crate::value::Value;

/// Type-erased apply function for one shared-operation method.
///
/// Per the model (§3), the function returns `Ok(true)` iff the operation
/// succeeded; on `Ok(false)` it must leave the object unchanged. An `Err`
/// means the registry routed the call to an object of the wrong concrete
/// type ([`ExecError::TypeMismatch`]) — a programming error, not a failed
/// precondition.
pub type ApplyFn =
    Arc<dyn Fn(&mut dyn SharedObject, ArgView<'_>) -> Result<bool, ExecError> + Send + Sync>;

type CtorFn = Arc<dyn Fn() -> Box<dyn SharedObject> + Send + Sync>;

/// A read-only view of an operation's argument vector with typed accessors.
///
/// Accessors return `None` both when the index is out of range and when the
/// value has a different type; apply functions typically treat that as a
/// failed precondition and return `false`.
///
/// # Examples
///
/// ```
/// use guesstimate_core::{args, ArgView};
/// let a = args![1, "x", true];
/// let view = ArgView::new(&a);
/// assert_eq!(view.i64(0), Some(1));
/// assert_eq!(view.str(1), Some("x"));
/// assert_eq!(view.bool(2), Some(true));
/// assert_eq!(view.i64(3), None);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ArgView<'a>(&'a [Value]);

impl<'a> ArgView<'a> {
    /// Wraps an argument slice.
    pub fn new(values: &'a [Value]) -> Self {
        ArgView(values)
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if there are no arguments.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw value at `idx`.
    pub fn value(&self, idx: usize) -> Option<&'a Value> {
        self.0.get(idx)
    }

    /// The integer argument at `idx`.
    pub fn i64(&self, idx: usize) -> Option<i64> {
        self.value(idx)?.as_i64()
    }

    /// The float argument at `idx` (integers widen).
    pub fn f64(&self, idx: usize) -> Option<f64> {
        self.value(idx)?.as_f64()
    }

    /// The boolean argument at `idx`.
    pub fn bool(&self, idx: usize) -> Option<bool> {
        self.value(idx)?.as_bool()
    }

    /// The string argument at `idx`.
    pub fn str(&self, idx: usize) -> Option<&'a str> {
        self.value(idx)?.as_str()
    }

    /// The list argument at `idx`.
    pub fn list(&self, idx: usize) -> Option<&'a [Value]> {
        self.value(idx)?.as_list()
    }

    /// The full argument slice.
    pub fn as_slice(&self) -> &'a [Value] {
        self.0
    }
}

/// Routes `(type name, method name)` pairs to registered apply functions,
/// and type names to constructors.
///
/// One registry is shared (typically via [`Arc`]) by every machine of an
/// application; because all machines register the same methods, an operation
/// recorded as `(object, "update", args)` executes identically wherever it is
/// replayed — the property the commit protocol depends on.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Clone, Default)]
pub struct OpRegistry {
    ctors: NameMap<CtorFn>,
    methods: NameMap<NameMap<ApplyFn>>,
    effects: NameMap<NameMap<EffectSpec>>,
}

/// A map keyed by registered type or method names, hashed with FNV-1a:
/// every execution -- at issue, on each replay and at every replica's
/// commit -- looks a name up twice. Only the application inserts keys, so
/// the maps never grow past its registrations and a looked-up name, even
/// one a peer sent, probes among those alone: the flooding resistance
/// SipHash pays for buys nothing here.
type NameMap<V> = HashMap<&'static str, V, FnvBuild>;

/// Builds [`Fnv`] hashers for [`NameMap`].
#[derive(Clone, Copy, Default)]
struct FnvBuild;

impl BuildHasher for FnvBuild {
    type Hasher = Fnv;
    fn build_hasher(&self) -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

/// The 64-bit FNV-1a hash.
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl OpRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        OpRegistry::default()
    }

    /// Registers the constructor for `T` (its `Default`), enabling machines
    /// to materialize instances of `T` when joining objects created elsewhere.
    pub fn register_type<T: GState>(&mut self) {
        self.ctors
            .insert(T::TYPE_NAME, Arc::new(|| Box::new(T::default())));
    }

    /// True if a constructor for `type_name` is registered.
    pub fn has_type(&self, type_name: &str) -> bool {
        self.ctors.contains_key(type_name)
    }

    /// Constructs a default instance of the named type.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownType`] when the type was never registered.
    pub fn construct(&self, type_name: &str) -> Result<Box<dyn SharedObject>, ExecError> {
        self.ctors
            .get(type_name)
            .map(|c| c())
            .ok_or_else(|| ExecError::UnknownType(type_name.to_owned()))
    }

    /// Registers a shared-operation method for `T`.
    ///
    /// The closure receives the concrete object and the argument view, and
    /// must follow the model's contract: return `true` iff it succeeded, and
    /// leave the object unchanged when returning `false`. (The
    /// `guesstimate-spec` crate provides machinery to *check* that contract.)
    ///
    /// Registering the same `(T, method)` pair twice replaces the earlier
    /// registration.
    pub fn register_method<T: GState>(
        &mut self,
        method: &'static str,
        f: impl Fn(&mut T, ArgView<'_>) -> bool + Send + Sync + 'static,
    ) {
        let apply: ApplyFn = Arc::new(move |obj, argv| {
            let actual = obj.type_name();
            let obj =
                obj.as_any_mut()
                    .downcast_mut::<T>()
                    .ok_or_else(|| ExecError::TypeMismatch {
                        expected: T::TYPE_NAME.to_owned(),
                        actual: actual.to_owned(),
                    })?;
            Ok(f(obj, argv))
        });
        self.methods
            .entry(T::TYPE_NAME)
            .or_default()
            .insert(method, apply);
    }

    /// Registers a shared-operation method for `T` together with its
    /// declared [`EffectSpec`] (read/write footprint, parameterized on the
    /// argument vector).
    ///
    /// Semantics of the apply function are exactly those of
    /// [`OpRegistry::register_method`]. The effect declaration is optional
    /// metadata from the runtime's point of view, but the
    /// `guesstimate-analysis` lint treats a method without one as a
    /// violation, and only declared (and sanitizer-validated) footprints let
    /// the runtime skip guesstimate rebuilds for commuting operations.
    pub fn register_with_effects<T: GState>(
        &mut self,
        method: &'static str,
        effect: EffectSpec,
        f: impl Fn(&mut T, ArgView<'_>) -> bool + Send + Sync + 'static,
    ) {
        self.register_method::<T>(method, f);
        self.effects
            .entry(T::TYPE_NAME)
            .or_default()
            .insert(method, effect);
    }

    /// Replaces the apply function of the registered `(type_name, method)`
    /// with `wrap(current)`, in place: the constructor and the declared
    /// effect stay as they are. This is how `guesstimate-spec` puts runtime
    /// contract checks around methods an application already registered.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownMethod`] when no such method is registered.
    pub fn wrap_method(
        &mut self,
        type_name: &str,
        method: &str,
        wrap: impl FnOnce(ApplyFn) -> ApplyFn,
    ) -> Result<(), ExecError> {
        let slot = self
            .methods
            .get_mut(type_name)
            .and_then(|m| m.get_mut(method))
            .ok_or_else(|| ExecError::UnknownMethod {
                type_name: type_name.to_owned(),
                method: method.to_owned(),
            })?;
        *slot = wrap(slot.clone());
        Ok(())
    }

    /// The declared effect of `(type_name, method)`, if any.
    pub fn effect_of(&self, type_name: &str, method: &str) -> Option<&EffectSpec> {
        self.effects.get(type_name)?.get(method)
    }

    /// Names of the registered methods of a type that have **no** declared
    /// effect, sorted — the analysis crate's "undeclared effect" lint.
    pub fn methods_without_effects(&self, type_name: &str) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self
            .methods
            .get(type_name)
            .map(|m| {
                m.keys()
                    .filter(|k| self.effect_of(type_name, k).is_none())
                    .copied()
                    .collect()
            })
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// True if `(type_name, method)` has a registered apply function.
    pub fn has_method(&self, type_name: &str, method: &str) -> bool {
        self.methods
            .get(type_name)
            .is_some_and(|m| m.contains_key(method))
    }

    /// Looks up the apply function for `(type_name, method)`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownMethod`] when no such method is registered.
    pub(crate) fn lookup(&self, type_name: &str, method: &str) -> Result<&ApplyFn, ExecError> {
        self.methods
            .get(type_name)
            .and_then(|m| m.get(method))
            .ok_or_else(|| ExecError::UnknownMethod {
                type_name: type_name.to_owned(),
                method: method.to_owned(),
            })
    }

    /// Names of all registered methods for a type, sorted.
    pub fn methods_of(&self, type_name: &str) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self
            .methods
            .get(type_name)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Names of all registered types, sorted.
    pub fn types(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.ctors.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

impl fmt::Debug for OpRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpRegistry")
            .field("types", &self.types())
            .field("methods", &self.methods.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;
    use crate::error::RestoreError;

    #[derive(Clone, Default, Debug, PartialEq)]
    struct Cell(i64);
    impl GState for Cell {
        const TYPE_NAME: &'static str = "Cell";
        fn snapshot(&self) -> Value {
            Value::from(self.0)
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            self.0 = v.as_i64().ok_or_else(|| RestoreError::shape("i64"))?;
            Ok(())
        }
    }

    fn registry() -> OpRegistry {
        let mut r = OpRegistry::new();
        r.register_type::<Cell>();
        r.register_method::<Cell>("set", |c, a| {
            let Some(v) = a.i64(0) else { return false };
            c.0 = v;
            true
        });
        r
    }

    #[test]
    fn construct_known_and_unknown_types() {
        let r = registry();
        assert!(r.has_type("Cell"));
        let obj = r.construct("Cell").unwrap();
        assert_eq!(obj.type_name(), "Cell");
        assert_eq!(
            r.construct("Nope").unwrap_err(),
            ExecError::UnknownType("Nope".into())
        );
    }

    #[test]
    fn lookup_and_invoke_method() {
        let r = registry();
        assert!(r.has_method("Cell", "set"));
        assert!(!r.has_method("Cell", "get"));
        let mut obj: Box<dyn SharedObject> = Box::new(Cell(0));
        let f = r.lookup("Cell", "set").unwrap().clone();
        let a = args![7];
        assert!(f(&mut *obj, ArgView::new(&a)).unwrap());
        assert_eq!(obj.as_any().downcast_ref::<Cell>().unwrap().0, 7);
    }

    #[test]
    fn apply_fn_reports_misrouted_type() {
        #[derive(Clone, Default, Debug)]
        struct NotCell;
        impl GState for NotCell {
            const TYPE_NAME: &'static str = "NotCell";
            fn snapshot(&self) -> Value {
                Value::Unit
            }
            fn restore(&mut self, _: &Value) -> Result<(), RestoreError> {
                Ok(())
            }
        }
        let r = registry();
        let mut obj: Box<dyn SharedObject> = Box::new(NotCell);
        let f = r.lookup("Cell", "set").unwrap().clone();
        let a = args![7];
        assert_eq!(
            f(&mut *obj, ArgView::new(&a)).unwrap_err(),
            ExecError::TypeMismatch {
                expected: "Cell".into(),
                actual: "NotCell".into(),
            }
        );
    }

    #[test]
    fn lookup_unknown_method_errs() {
        let r = registry();
        assert!(matches!(
            r.lookup("Cell", "bogus"),
            Err(ExecError::UnknownMethod { .. })
        ));
    }

    #[test]
    fn apply_fn_returns_false_on_bad_args() {
        let r = registry();
        let mut obj: Box<dyn SharedObject> = Box::new(Cell(3));
        let f = r.lookup("Cell", "set").unwrap().clone();
        let a = args!["not an int"];
        assert!(!f(&mut *obj, ArgView::new(&a)).unwrap());
        assert_eq!(obj.as_any().downcast_ref::<Cell>().unwrap().0, 3);
    }

    #[test]
    fn methods_of_and_types_sorted() {
        let mut r = registry();
        r.register_method::<Cell>("clear", |c, _| {
            c.0 = 0;
            true
        });
        assert_eq!(r.methods_of("Cell"), vec!["clear", "set"]);
        assert_eq!(r.types(), vec!["Cell"]);
        assert!(r.methods_of("Nope").is_empty());
    }

    #[test]
    fn arg_view_accessors() {
        let a = args![1, 2.5, true, "s"];
        let v = ArgView::new(&a);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v.f64(0), Some(1.0));
        assert_eq!(v.f64(1), Some(2.5));
        assert_eq!(v.bool(2), Some(true));
        assert_eq!(v.str(3), Some("s"));
        assert_eq!(v.list(0), None);
        assert_eq!(v.value(9), None);
        assert_eq!(v.as_slice().len(), 4);
        let empty: Vec<Value> = args![];
        assert!(ArgView::new(&empty).is_empty());
    }

    #[test]
    fn reregistration_replaces() {
        let mut r = registry();
        r.register_method::<Cell>("set", |_c, _a| false);
        let mut obj: Box<dyn SharedObject> = Box::new(Cell(1));
        let f = r.lookup("Cell", "set").unwrap().clone();
        let a = args![9];
        assert!(!f(&mut *obj, ArgView::new(&a)).unwrap());
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(format!("{:?}", registry()).contains("OpRegistry"));
    }

    #[test]
    fn register_with_effects_registers_method_and_effect() {
        use crate::effect::{EffectSpec, Footprint};
        let mut r = OpRegistry::new();
        r.register_type::<Cell>();
        r.register_with_effects::<Cell>(
            "set",
            EffectSpec::new(|_| Footprint::new().writes(["value"])),
            |c, a| {
                let Some(v) = a.i64(0) else { return false };
                c.0 = v;
                true
            },
        );
        assert!(r.has_method("Cell", "set"));
        let a = args![3];
        let fp = r
            .effect_of("Cell", "set")
            .expect("effect declared")
            .footprint(ArgView::new(&a));
        assert!(fp.writes.contains("value"));
        assert!(r.effect_of("Cell", "bogus").is_none());
        assert!(r.effect_of("Nope", "set").is_none());
    }

    #[test]
    fn wrap_method_replaces_the_apply_and_keeps_the_effect() {
        use crate::effect::{EffectSpec, Footprint};
        let mut r = OpRegistry::new();
        r.register_type::<Cell>();
        r.register_with_effects::<Cell>(
            "set",
            EffectSpec::new(|_| Footprint::new().writes(["value"])),
            |c, a| {
                let Some(v) = a.i64(0) else { return false };
                c.0 = v;
                true
            },
        );
        // The wrapper runs the old apply and then negates its result.
        r.wrap_method("Cell", "set", |inner| {
            Arc::new(move |obj, argv| inner(obj, argv).map(|ok| !ok))
        })
        .unwrap();
        let mut obj: Box<dyn SharedObject> = Box::new(Cell(0));
        let f = r.lookup("Cell", "set").unwrap().clone();
        let a = args![7];
        assert!(!f(&mut *obj, ArgView::new(&a)).unwrap());
        assert_eq!(obj.as_any().downcast_ref::<Cell>().unwrap().0, 7);
        assert!(r.effect_of("Cell", "set").is_some());
        assert!(r.methods_without_effects("Cell").is_empty());
        assert!(matches!(
            r.wrap_method("Cell", "bogus", |inner| inner),
            Err(ExecError::UnknownMethod { .. })
        ));
    }

    #[test]
    fn methods_without_effects_lists_only_undeclared() {
        use crate::effect::{EffectSpec, Footprint};
        let mut r = registry(); // "set" registered without an effect
        r.register_method::<Cell>("clear", |c, _| {
            c.0 = 0;
            true
        });
        assert_eq!(r.methods_without_effects("Cell"), vec!["clear", "set"]);
        r.register_with_effects::<Cell>(
            "set",
            EffectSpec::new(|_| Footprint::new().writes(["value"])),
            |c, a| {
                let Some(v) = a.i64(0) else { return false };
                c.0 = v;
                true
            },
        );
        assert_eq!(r.methods_without_effects("Cell"), vec!["clear"]);
        assert!(r.methods_without_effects("Nope").is_empty());
    }
}

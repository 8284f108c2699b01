//! Shared objects: the Rust analog of the paper's `GSharedObject` base class.
//!
//! In the C# API, application state classes derive from `GSharedObject` and
//! implement a single `Copy` method; the runtime uses `Copy` to overwrite a
//! replica's state with another replica's state (most importantly for the
//! `sc → sg` copy at the end of every synchronization, §4).
//!
//! In Rust the same contract is split in two:
//!
//! * [`GState`] — what the *application* implements: a plain `Clone +
//!   Default` state type plus a canonical [`GState::snapshot`] /
//!   [`GState::restore`] pair (used to replicate initial state to joining
//!   machines and to feed the spec checker). An application does not write
//!   that pair: [`canonical!`](crate::canonical) derives it from the
//!   struct's field list through the one state codec ([`crate::codec`]).
//! * [`SharedObject`] — the object-safe trait the *runtime* consumes; it is
//!   implemented automatically for every `GState` via a blanket impl, so
//!   applications never write `dyn`-plumbing by hand.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use crate::error::{ExecError, RestoreError};
use crate::value::Value;

/// Application-visible trait for shared (replicated) state.
///
/// Implement this for each class of shared object. The runtime will keep one
/// *committed* and one *guesstimated* instance per machine and copy between
/// them; [`GState::assign_from`] (by default `Clone::clone_from`) is the
/// paper's `Copy` method, `Default` provides the factory used when a remote
/// machine first materializes the object.
///
/// [`GState::snapshot`] must be a *canonical* encoding: two instances with
/// equal logical state must produce equal [`Value`]s, because snapshots are
/// digested to check cross-machine convergence and are consumed by the spec
/// framework (`guesstimate-spec`) as the pre/post states of operations.
///
/// Write the impl with [`canonical!`](crate::canonical): it takes the
/// struct's field list and encodes through [`crate::Canonical`], the one
/// place the snapshot format is decided, so the encoding is canonical and
/// `restore` is all-or-nothing by construction. Hand-write the pair only
/// when the snapshot is not the shape of the fields (Sudoku's flattened,
/// domain-checked grid).
///
/// A state type is `Send + Sync`: a store shares one object between its
/// committed and guesstimated copies and every clone of either, behind an
/// [`Arc`], and a machine moves between threads with its stores. Plain
/// data (numbers, strings, collections of them) is both.
///
/// # Examples
///
/// ```
/// use guesstimate_core::{canonical, GState, Value};
///
/// #[derive(Clone, Default)]
/// struct Score {
///     points: i64,
/// }
/// canonical!(impl GState for Score as "Score" { points });
///
/// let v = Score { points: 3 }.snapshot();
/// assert_eq!(v, Value::map([("points", Value::from(3))]));
/// ```
pub trait GState: Clone + Default + Send + Sync + 'static {
    /// Stable type name used by the operation registry to route method calls.
    ///
    /// Must be unique across all registered types in an application.
    const TYPE_NAME: &'static str;

    /// Canonical encoding of the full logical state.
    fn snapshot(&self) -> Value;

    /// Overwrites the state from a canonical snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] when `v` does not have the shape produced by
    /// [`GState::snapshot`]; the state is then left as it was.
    fn restore(&mut self, v: &Value) -> Result<(), RestoreError>;

    /// Overwrites `self` with `src`'s state: the paper's `Copy`, which the
    /// `sc → sg` resync runs on every object a round touched. The default
    /// is [`Clone::clone_from`]; [`canonical!`](crate::canonical) writes an
    /// in-place copy that keeps `self`'s allocations where the two agree in
    /// shape ([`crate::Canonical::assign`]).
    fn assign_from(&mut self, src: &Self) {
        self.clone_from(src);
    }
}

/// Object-safe shared-object interface used by stores and the runtime.
///
/// Implemented automatically for every [`GState`]; you should not need to
/// implement it by hand. The methods mirror what the GUESSTIMATE runtime
/// needs: state copying (`copy_from`, the paper's `Copy`), replication
/// (`clone_boxed`, `clone_shared`), canonical snapshots, and downcasting.
pub trait SharedObject: Send + Sync {
    /// The registered type name (matches [`GState::TYPE_NAME`]).
    fn type_name(&self) -> &'static str;

    /// Overwrites this object's state with `src`'s state.
    ///
    /// This is the paper's `Copy(GSharedObject src)` method, used for the
    /// committed-to-guesstimated copy during synchronization.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::TypeMismatch`] if `src` is not the same concrete
    /// type; the state is left unmodified. The runtime only ever copies
    /// between replicas of the same object, so callers treat this as
    /// evidence of registries that disagree across machines.
    fn copy_from(&mut self, src: &dyn SharedObject) -> Result<(), ExecError>;

    /// Clones the object into a new box (replication to a joining machine).
    fn clone_boxed(&self) -> Box<dyn SharedObject>;

    /// Clones the object into a new [`Arc`]: a store's copy-on-write, when
    /// it writes an object it shares ([`crate::ObjectStore::get_mut`]).
    fn clone_shared(&self) -> Arc<dyn SharedObject>;

    /// Canonical state snapshot (see [`GState::snapshot`]).
    fn snapshot(&self) -> Value;

    /// Overwrites state from a canonical snapshot (see [`GState::restore`]).
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] when the snapshot shape does not match.
    fn restore(&mut self, v: &Value) -> Result<(), RestoreError>;

    /// Upcast for concrete-type access.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for concrete-type access.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl Clone for Box<dyn SharedObject> {
    fn clone(&self) -> Self {
        self.clone_boxed()
    }
}

impl<T: GState> SharedObject for T {
    fn type_name(&self) -> &'static str {
        T::TYPE_NAME
    }

    fn copy_from(&mut self, src: &dyn SharedObject) -> Result<(), ExecError> {
        let src = src
            .as_any()
            .downcast_ref::<T>()
            .ok_or_else(|| ExecError::TypeMismatch {
                expected: T::TYPE_NAME.to_owned(),
                actual: src.type_name().to_owned(),
            })?;
        self.assign_from(src);
        Ok(())
    }

    fn clone_boxed(&self) -> Box<dyn SharedObject> {
        Box::new(self.clone())
    }

    fn clone_shared(&self) -> Arc<dyn SharedObject> {
        Arc::new(self.clone())
    }

    fn snapshot(&self) -> Value {
        GState::snapshot(self)
    }

    fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
        GState::restore(self, v)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl fmt::Debug for dyn SharedObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedObject<{}>({})", self.type_name(), self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RestoreError;

    #[derive(Clone, Default, Debug, PartialEq)]
    struct Pair {
        a: i64,
        b: i64,
    }

    impl GState for Pair {
        const TYPE_NAME: &'static str = "Pair";
        fn snapshot(&self) -> Value {
            Value::map([("a", Value::from(self.a)), ("b", Value::from(self.b))])
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            self.a = v
                .field("a")
                .and_then(Value::as_i64)
                .ok_or_else(|| RestoreError::shape("map with int field a"))?;
            self.b = v
                .field("b")
                .and_then(Value::as_i64)
                .ok_or_else(|| RestoreError::shape("map with int field b"))?;
            Ok(())
        }
    }

    #[derive(Clone, Default)]
    struct Other;
    impl GState for Other {
        const TYPE_NAME: &'static str = "Other";
        fn snapshot(&self) -> Value {
            Value::Unit
        }
        fn restore(&mut self, _: &Value) -> Result<(), RestoreError> {
            Ok(())
        }
    }

    #[test]
    fn copy_from_overwrites_state() {
        let src = Pair { a: 1, b: 2 };
        let mut dst = Pair::default();
        SharedObject::copy_from(&mut dst, &src).unwrap();
        assert_eq!(dst, src);
    }

    #[test]
    fn copy_from_reports_type_mismatch_and_leaves_state_intact() {
        let mut dst = Pair { a: 3, b: 4 };
        let err = SharedObject::copy_from(&mut dst, &Other).unwrap_err();
        assert_eq!(
            err,
            ExecError::TypeMismatch {
                expected: "Pair".into(),
                actual: "Other".into(),
            }
        );
        assert_eq!(dst, Pair { a: 3, b: 4 }, "failed copy must not mutate");
    }

    #[test]
    fn clone_boxed_preserves_state_and_type() {
        let src = Pair { a: 7, b: -1 };
        let cloned = SharedObject::clone_boxed(&src);
        assert_eq!(cloned.type_name(), "Pair");
        assert_eq!(cloned.as_any().downcast_ref::<Pair>(), Some(&src));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let src = Pair { a: 10, b: 20 };
        let mut dst = Pair::default();
        GState::restore(&mut dst, &GState::snapshot(&src)).unwrap();
        assert_eq!(dst, src);
    }

    #[test]
    fn restore_rejects_bad_shape() {
        let mut p = Pair::default();
        assert!(GState::restore(&mut p, &Value::from(3)).is_err());
    }

    #[test]
    fn debug_for_dyn_object_is_nonempty() {
        let p = Pair { a: 1, b: 2 };
        let d: &dyn SharedObject = &p;
        let s = format!("{d:?}");
        assert!(s.contains("Pair"));
    }
}

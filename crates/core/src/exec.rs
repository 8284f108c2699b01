//! The operation execution engine.
//!
//! Executes a [`SharedOp`] tree against an object store, implementing the
//! semantics of §2/§4 of the paper:
//!
//! * A **primitive** operation invokes its registered apply function and
//!   yields that function's boolean result.
//! * An **`Atomic`** block is all-or-nothing: children execute against a
//!   per-object **copy-on-write overlay** ("the first time an object is
//!   updated within an atomic operation a temporary copy of its state is
//!   made and from then on all updates within the atomic operation are made
//!   to this copy", §4). Only if every child succeeds is the overlay copied
//!   back into the underlying store.
//! * An **`OrElse`** tries its first child and, only if that fails, its
//!   second; at most one of the two succeeds.
//!
//! The same engine runs at issue time (against the guesstimated store), at
//! replay time (re-establishing `sg = [P](sc)`) and at commit time (against
//! the committed store) — which is what makes the issue/commit results
//! comparable, and their occasional disagreement a *conflict*.

use std::collections::BTreeMap;

use crate::error::ExecError;
use crate::ids::ObjectId;
use crate::object::SharedObject;
use crate::op::SharedOp;
use crate::registry::{ApplyFn, ArgView, OpRegistry};
use crate::store::ObjectStore;

/// Result of executing a shared operation: the model's boolean, made a type.
///
/// `Failure` is *not* an error — it is the defined outcome of an operation
/// whose precondition does not hold, and by contract leaves the state
/// unchanged. Programming errors (unknown objects/methods) surface as
/// [`ExecError`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecOutcome {
    /// The operation succeeded and may have updated the shared state.
    Success,
    /// The operation failed and left the shared state unchanged.
    Failure,
}

impl ExecOutcome {
    /// True for [`ExecOutcome::Success`].
    pub fn is_success(self) -> bool {
        matches!(self, ExecOutcome::Success)
    }

    /// The model's boolean: `true` for success.
    pub fn as_bool(self) -> bool {
        self.is_success()
    }
}

impl From<bool> for ExecOutcome {
    fn from(b: bool) -> Self {
        if b {
            ExecOutcome::Success
        } else {
            ExecOutcome::Failure
        }
    }
}

/// Mutable access to a set of shared objects.
///
/// Implemented by [`ObjectStore`] (direct access) and [`CowOverlay`]
/// (copy-on-write access inside `Atomic` blocks), letting the execution
/// engine recurse uniformly through nested atomics.
pub trait ObjectAccess {
    /// True if `id` resolves to an object.
    fn exists(&self, id: ObjectId) -> bool;

    /// Clones the object under `id` (used to populate overlays).
    fn clone_object(&self, id: ObjectId) -> Option<Box<dyn SharedObject>>;

    /// Runs `f` against the object under `id`, returning its boolean, or
    /// `None` if the object does not exist.
    fn apply(
        &mut self,
        id: ObjectId,
        f: &mut dyn FnMut(&mut (dyn SharedObject + 'static)) -> bool,
    ) -> Option<bool>;
}

/// Per-object copy-on-write overlay used for `Atomic` execution.
///
/// Objects are copied from the base on first touch; all subsequent access
/// inside the atomic block goes to the copy. [`CowOverlay::commit`] writes
/// the copies back; dropping the overlay discards them.
///
/// Overlays nest: an inner `Atomic` builds a `CowOverlay` whose base is the
/// outer overlay, so an inner rollback never disturbs outer tentative state.
pub struct CowOverlay<'a, B: ObjectAccess + ?Sized> {
    base: &'a mut B,
    copies: BTreeMap<ObjectId, Box<dyn SharedObject>>,
}

impl<'a, B: ObjectAccess + ?Sized> CowOverlay<'a, B> {
    /// Creates an empty overlay over `base`.
    pub fn new(base: &'a mut B) -> Self {
        CowOverlay {
            base,
            copies: BTreeMap::new(),
        }
    }

    /// Number of objects copied so far (diagnostics / benchmarks).
    pub fn touched(&self) -> usize {
        self.copies.len()
    }

    /// Writes every touched copy back into the base store.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::VanishedObject`] if a touched object no longer
    /// exists in the base (it existed when it was copied, so something
    /// removed it mid-operation), or [`ExecError::TypeMismatch`] if the
    /// object under that id changed concrete type. Both indicate the store
    /// was mutated behind the overlay's back; copies written before the
    /// failing one remain applied, so callers must treat the store as
    /// corrupted and surface the error rather than continue.
    pub fn commit(self) -> Result<(), ExecError> {
        let CowOverlay { base, copies } = self;
        for (id, copy) in copies {
            let mut copy_err = None;
            let applied = base.apply(id, &mut |obj| {
                copy_err = obj.copy_from(&*copy).err();
                true
            });
            if applied.is_none() {
                return Err(ExecError::VanishedObject(id));
            }
            if let Some(e) = copy_err {
                return Err(e);
            }
        }
        Ok(())
    }
}

impl<B: ObjectAccess + ?Sized> std::fmt::Debug for CowOverlay<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CowOverlay")
            .field("touched", &self.copies.len())
            .finish()
    }
}

impl<B: ObjectAccess + ?Sized> ObjectAccess for CowOverlay<'_, B> {
    fn exists(&self, id: ObjectId) -> bool {
        self.copies.contains_key(&id) || self.base.exists(id)
    }

    fn clone_object(&self, id: ObjectId) -> Option<Box<dyn SharedObject>> {
        match self.copies.get(&id) {
            Some(c) => Some(c.clone_boxed()),
            None => self.base.clone_object(id),
        }
    }

    fn apply(
        &mut self,
        id: ObjectId,
        f: &mut dyn FnMut(&mut (dyn SharedObject + 'static)) -> bool,
    ) -> Option<bool> {
        if !self.copies.contains_key(&id) {
            let copy = self.base.clone_object(id)?;
            self.copies.insert(id, copy);
        }
        self.copies.get_mut(&id).map(|obj| f(&mut **obj))
    }
}

/// Executes `op` against an arbitrary [`ObjectAccess`] (store or overlay).
///
/// # Errors
///
/// Returns [`ExecError`] for unknown objects, unregistered methods, type
/// mismatches between an object and its apply function, or objects that
/// vanish between an `Atomic`'s execution and its commit. An error inside an
/// `Atomic` discards the overlay; an error inside either arm of an `OrElse`
/// aborts the whole operation (a programming error is never "handled" by
/// falling through to the alternative).
pub fn execute_against(
    op: &SharedOp,
    access: &mut dyn ObjectAccess,
    registry: &OpRegistry,
) -> Result<bool, ExecError> {
    match op {
        SharedOp::Primitive {
            object,
            method,
            args,
        } => {
            let mut routing_err: Option<ExecError> = None;
            let outcome = access.apply(*object, &mut |obj| match registry
                .lookup(obj.type_name(), method)
                .and_then(|f| f(obj, ArgView::new(args)))
            {
                Ok(b) => b,
                Err(e) => {
                    routing_err = Some(e);
                    false
                }
            });
            match outcome {
                None => Err(ExecError::UnknownObject(*object)),
                Some(b) => match routing_err {
                    Some(e) => Err(e),
                    None => Ok(b),
                },
            }
        }
        SharedOp::Atomic(ops) => {
            let mut overlay = CowOverlay::new(access);
            for child in ops {
                if !execute_against(child, &mut overlay, registry)? {
                    return Ok(false); // overlay dropped: nothing visible
                }
            }
            overlay.commit()?;
            Ok(true)
        }
        SharedOp::OrElse(first, second) => {
            if execute_against(first, access, registry)? {
                Ok(true)
            } else {
                execute_against(second, access, registry)
            }
        }
    }
}

/// Executes a sequence of operations against one store, each exactly as
/// [`execute_against`] would: the loops that run a round's operations back
/// to back (the commit on `sc`, the replay of `P` on `sg`). A run of
/// consecutive primitives of one `(type, method)` finds its apply function
/// in the registry once; each operation of a run then only borrows its
/// object (which marks it, and copies it first if the store shares it)
/// and calls.
///
/// # Examples
///
/// ```
/// use guesstimate_core::{ExecOutcome, ExecPass, MachineId, ObjectId, ObjectStore, OpRegistry};
/// # use guesstimate_core::canonical;
/// # #[derive(Clone, Default)]
/// # struct Counter { n: i64 }
/// # canonical!(impl GState for Counter as "Counter" { n });
/// # impl Counter {
/// #     fn add(&mut self, d: i64) -> bool { self.n += d; true }
/// # }
/// # fn fp() -> guesstimate_core::Footprint { guesstimate_core::Footprint::new() }
/// # guesstimate_core::methods! { Counter; fn add(d: i64 = [1]) => fp(); }
/// let mut registry = OpRegistry::new();
/// register_methods(&mut registry);
/// let id = ObjectId::new(MachineId::new(0), 0);
/// let mut store = ObjectStore::new();
/// store.insert(id, Box::new(Counter::default()));
/// let mut pass = ExecPass::new(&mut store, &registry);
/// for d in 1..=3 {
///     assert_eq!(pass.execute(&add(id, d)).unwrap(), ExecOutcome::Success);
/// }
/// assert_eq!(store.get_as::<Counter>(id).unwrap().n, 6);
/// ```
pub struct ExecPass<'a> {
    store: &'a mut ObjectStore,
    registry: &'a OpRegistry,
    /// The last primitive's type and method, and the method's apply
    /// function.
    method: Option<(&'static str, &'static str, &'a ApplyFn)>,
}

impl<'a> ExecPass<'a> {
    /// A pass over `store`.
    pub fn new(store: &'a mut ObjectStore, registry: &'a OpRegistry) -> Self {
        ExecPass {
            store,
            registry,
            method: None,
        }
    }

    /// The registry the pass resolves methods in.
    pub fn registry(&self) -> &'a OpRegistry {
        self.registry
    }

    /// The store, for a write outside the pass (an object created or
    /// removed).
    pub fn store(&mut self) -> &mut ObjectStore {
        self.store
    }

    /// Executes `op`: a primitive through the runs' resolutions, a
    /// composite through [`execute_against`].
    ///
    /// # Errors
    ///
    /// See [`execute_against`].
    pub fn execute(&mut self, op: &SharedOp) -> Result<ExecOutcome, ExecError> {
        let SharedOp::Primitive {
            object,
            method,
            args,
        } = op
        else {
            // Composites copy through their overlay: no object comes or goes.
            return execute_against(op, self.store, self.registry).map(ExecOutcome::from);
        };
        let obj = self
            .store
            .get_mut(*object)
            .ok_or(ExecError::UnknownObject(*object))?;
        let ty = obj.type_name();
        let apply = match self.method {
            Some((t, m, f)) if t == ty && m == method => f,
            _ => {
                let (m, f) = self.registry.lookup_keyed(ty, method)?;
                self.method = Some((ty, m, f));
                f
            }
        };
        apply(obj, ArgView::new(args)).map(ExecOutcome::from)
    }
}

impl std::fmt::Debug for ExecPass<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPass")
            .field("method", &self.method.map(|(t, m, _)| (t, m)))
            .finish_non_exhaustive()
    }
}

/// Executes `op` against a store, yielding the model's boolean as an
/// [`ExecOutcome`]: a one-operation [`ExecPass`].
///
/// This is the entry point the runtime uses at issue time; the commit and
/// replay loops hold one [`ExecPass`] across a round's operations.
///
/// # Errors
///
/// See [`execute_against`].
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn execute(
    op: &SharedOp,
    store: &mut ObjectStore,
    registry: &OpRegistry,
) -> Result<ExecOutcome, ExecError> {
    ExecPass::new(store, registry).execute(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;
    use crate::error::RestoreError;
    use crate::ids::MachineId;
    use crate::object::GState;
    use crate::value::Value;

    /// A bank-account-like object: `deposit(n)` always succeeds,
    /// `withdraw(n)` fails if the balance would go negative.
    #[derive(Clone, Default, Debug, PartialEq)]
    struct Account {
        balance: i64,
    }

    impl GState for Account {
        const TYPE_NAME: &'static str = "Account";
        fn snapshot(&self) -> Value {
            Value::from(self.balance)
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            self.balance = v.as_i64().ok_or_else(|| RestoreError::shape("i64"))?;
            Ok(())
        }
    }

    fn registry() -> OpRegistry {
        let mut r = OpRegistry::new();
        r.register_type::<Account>();
        r.register_method::<Account>("deposit", |acc, a| {
            let Some(n) = a.i64(0) else { return false };
            acc.balance += n;
            true
        });
        r.register_method::<Account>("withdraw", |acc, a| {
            let Some(n) = a.i64(0) else { return false };
            if acc.balance < n {
                return false;
            }
            acc.balance -= n;
            true
        });
        r
    }

    fn oid(s: u64) -> ObjectId {
        ObjectId::new(MachineId::new(0), s)
    }

    fn store_with(balances: &[i64]) -> ObjectStore {
        let mut s = ObjectStore::new();
        for (i, &b) in balances.iter().enumerate() {
            s.insert(oid(i as u64), Box::new(Account { balance: b }));
        }
        s
    }

    fn balance(s: &ObjectStore, i: u64) -> i64 {
        s.get_as::<Account>(oid(i)).unwrap().balance
    }

    #[test]
    fn primitive_success_and_failure() {
        let r = registry();
        let mut s = store_with(&[10]);
        let dep = SharedOp::primitive(oid(0), "deposit", args![5]);
        assert_eq!(execute(&dep, &mut s, &r).unwrap(), ExecOutcome::Success);
        assert_eq!(balance(&s, 0), 15);

        let wd = SharedOp::primitive(oid(0), "withdraw", args![100]);
        assert_eq!(execute(&wd, &mut s, &r).unwrap(), ExecOutcome::Failure);
        assert_eq!(balance(&s, 0), 15, "failed op leaves state unchanged");
    }

    #[test]
    fn unknown_object_and_method_are_errors() {
        let r = registry();
        let mut s = store_with(&[0]);
        let op = SharedOp::primitive(oid(9), "deposit", args![1]);
        assert_eq!(
            execute(&op, &mut s, &r).unwrap_err(),
            ExecError::UnknownObject(oid(9))
        );
        let op = SharedOp::primitive(oid(0), "bogus", args![]);
        assert!(matches!(
            execute(&op, &mut s, &r).unwrap_err(),
            ExecError::UnknownMethod { .. }
        ));
    }

    #[test]
    fn atomic_commits_all_effects_on_success() {
        let r = registry();
        let mut s = store_with(&[10, 0]);
        // Transfer 10 from account 0 to account 1.
        let transfer = SharedOp::atomic(vec![
            SharedOp::primitive(oid(0), "withdraw", args![10]),
            SharedOp::primitive(oid(1), "deposit", args![10]),
        ]);
        assert_eq!(
            execute(&transfer, &mut s, &r).unwrap(),
            ExecOutcome::Success
        );
        assert_eq!(balance(&s, 0), 0);
        assert_eq!(balance(&s, 1), 10);
    }

    #[test]
    fn atomic_rolls_back_partial_effects_on_failure() {
        let r = registry();
        let mut s = store_with(&[10, 0]);
        // Deposit succeeds first, then withdraw fails: nothing is visible.
        let op = SharedOp::atomic(vec![
            SharedOp::primitive(oid(1), "deposit", args![10]),
            SharedOp::primitive(oid(0), "withdraw", args![100]),
        ]);
        assert_eq!(execute(&op, &mut s, &r).unwrap(), ExecOutcome::Failure);
        assert_eq!(balance(&s, 0), 10);
        assert_eq!(balance(&s, 1), 0, "atomic discarded the deposit");
    }

    #[test]
    fn empty_atomic_succeeds_vacuously() {
        let r = registry();
        let mut s = store_with(&[1]);
        assert_eq!(
            execute(&SharedOp::atomic(vec![]), &mut s, &r).unwrap(),
            ExecOutcome::Success
        );
        assert_eq!(balance(&s, 0), 1);
    }

    #[test]
    fn atomic_error_discards_overlay() {
        let r = registry();
        let mut s = store_with(&[10]);
        let op = SharedOp::atomic(vec![
            SharedOp::primitive(oid(0), "deposit", args![5]),
            SharedOp::primitive(oid(0), "bogus", args![]),
        ]);
        assert!(execute(&op, &mut s, &r).is_err());
        assert_eq!(balance(&s, 0), 10, "error rolled back tentative deposit");
    }

    #[test]
    fn or_else_prefers_first_alternative() {
        let r = registry();
        let mut s = store_with(&[10]);
        let op = SharedOp::primitive(oid(0), "withdraw", args![5]).or_else(SharedOp::primitive(
            oid(0),
            "withdraw",
            args![1],
        ));
        assert_eq!(execute(&op, &mut s, &r).unwrap(), ExecOutcome::Success);
        assert_eq!(balance(&s, 0), 5, "only the first arm ran");
    }

    #[test]
    fn or_else_falls_through_on_failure() {
        let r = registry();
        let mut s = store_with(&[10]);
        let op = SharedOp::primitive(oid(0), "withdraw", args![100]).or_else(SharedOp::primitive(
            oid(0),
            "withdraw",
            args![1],
        ));
        assert_eq!(execute(&op, &mut s, &r).unwrap(), ExecOutcome::Success);
        assert_eq!(balance(&s, 0), 9, "second arm ran after first failed");
    }

    #[test]
    fn or_else_fails_when_both_fail() {
        let r = registry();
        let mut s = store_with(&[0]);
        let op = SharedOp::primitive(oid(0), "withdraw", args![1]).or_else(SharedOp::primitive(
            oid(0),
            "withdraw",
            args![2],
        ));
        assert_eq!(execute(&op, &mut s, &r).unwrap(), ExecOutcome::Failure);
        assert_eq!(balance(&s, 0), 0);
    }

    #[test]
    fn nested_atomic_inner_rollback_preserves_outer_tentative_state() {
        let r = registry();
        let mut s = store_with(&[10, 0]);
        // Outer atomic: deposit to 1, then an inner atomic that fails,
        // wrapped in an OrElse so the outer can still succeed.
        let inner_failing = SharedOp::atomic(vec![
            SharedOp::primitive(oid(1), "deposit", args![100]),
            SharedOp::primitive(oid(0), "withdraw", args![999]),
        ]);
        let op = SharedOp::atomic(vec![
            SharedOp::primitive(oid(1), "deposit", args![1]),
            inner_failing.or_else(SharedOp::primitive(oid(0), "withdraw", args![1])),
        ]);
        assert_eq!(execute(&op, &mut s, &r).unwrap(), ExecOutcome::Success);
        assert_eq!(balance(&s, 1), 1, "outer deposit survived inner rollback");
        assert_eq!(balance(&s, 0), 9, "fallback arm applied");
    }

    #[test]
    fn nested_atomic_failure_propagates_to_outer() {
        let r = registry();
        let mut s = store_with(&[10, 0]);
        let op = SharedOp::atomic(vec![
            SharedOp::primitive(oid(1), "deposit", args![1]),
            SharedOp::atomic(vec![SharedOp::primitive(oid(0), "withdraw", args![999])]),
        ]);
        assert_eq!(execute(&op, &mut s, &r).unwrap(), ExecOutcome::Failure);
        assert_eq!(balance(&s, 0), 10);
        assert_eq!(balance(&s, 1), 0);
    }

    #[test]
    fn cow_overlay_touches_only_written_objects() {
        let r = registry();
        let mut s = store_with(&[1, 2, 3]);
        let mut overlay = CowOverlay::new(&mut s);
        let op = SharedOp::primitive(oid(1), "deposit", args![1]);
        assert!(execute_against(&op, &mut overlay, &r).unwrap());
        assert_eq!(overlay.touched(), 1);
    }

    #[test]
    fn cow_overlay_discard_leaves_base_untouched() {
        let r = registry();
        let mut s = store_with(&[1]);
        {
            let mut overlay = CowOverlay::new(&mut s);
            let op = SharedOp::primitive(oid(0), "deposit", args![100]);
            assert!(execute_against(&op, &mut overlay, &r).unwrap());
            // drop without commit
        }
        assert_eq!(balance(&s, 0), 1);
    }

    #[test]
    fn cow_overlay_exists_and_clone_see_through() {
        let s0 = store_with(&[5]);
        let mut s = s0;
        let overlay = CowOverlay::new(&mut s);
        assert!(overlay.exists(oid(0)));
        assert!(!overlay.exists(oid(7)));
        let cloned = overlay.clone_object(oid(0)).unwrap();
        assert_eq!(
            cloned.as_any().downcast_ref::<Account>().unwrap().balance,
            5
        );
        assert!(overlay.clone_object(oid(7)).is_none());
    }

    #[test]
    fn or_else_arms_with_atomic_do_not_leak_state() {
        // An OrElse whose first arm is an Atomic that partially succeeds:
        // the atomic's CoW must hide the partial effects before the second
        // arm runs.
        let r = registry();
        let mut s = store_with(&[10, 0]);
        let op = SharedOp::atomic(vec![
            SharedOp::primitive(oid(1), "deposit", args![7]),
            SharedOp::primitive(oid(0), "withdraw", args![999]),
        ])
        .or_else(SharedOp::primitive(oid(1), "deposit", args![1]));
        assert_eq!(execute(&op, &mut s, &r).unwrap(), ExecOutcome::Success);
        assert_eq!(balance(&s, 1), 1, "only the fallback deposit is visible");
    }

    #[test]
    fn or_else_inside_atomic_hides_failed_arm_from_the_fallback() {
        // Inside an `Atomic`, an `OrElse` whose first arm mutates two
        // objects under its CoW overlay before failing. The fallback arm
        // must observe pristine state: its withdraw can only succeed if the
        // discarded tentative deposit leaked, so a `Failure` outcome (and
        // rollback of the outer atomic's own tentative write) proves the
        // overlay hid it.
        let r = registry();
        let mut s = store_with(&[10, 0]);
        let first_arm = SharedOp::atomic(vec![
            SharedOp::primitive(oid(1), "deposit", args![100]),
            SharedOp::primitive(oid(0), "withdraw", args![999]),
        ]);
        let op = SharedOp::atomic(vec![
            SharedOp::primitive(oid(0), "deposit", args![1]),
            first_arm.or_else(SharedOp::primitive(oid(1), "withdraw", args![50])),
        ]);
        assert_eq!(execute(&op, &mut s, &r).unwrap(), ExecOutcome::Failure);
        assert_eq!(balance(&s, 0), 10, "outer tentative deposit rolled back");
        assert_eq!(balance(&s, 1), 0, "inner tentative deposit never visible");
    }

    #[test]
    fn atomic_inside_or_else_falls_through_without_visible_state_change() {
        // The failing first arm deposits into both accounts under its
        // overlay before failing; the fallback transfer must run from the
        // pristine balances. The final [0, 10] split is unreachable if any
        // tentative deposit stayed visible ([3, 14] would result instead).
        let r = registry();
        let mut s = store_with(&[10, 0]);
        let op = SharedOp::atomic(vec![
            SharedOp::primitive(oid(0), "deposit", args![3]),
            SharedOp::primitive(oid(1), "deposit", args![4]),
            SharedOp::primitive(oid(0), "withdraw", args![999]),
        ])
        .or_else(SharedOp::atomic(vec![
            SharedOp::primitive(oid(0), "withdraw", args![10]),
            SharedOp::primitive(oid(1), "deposit", args![10]),
        ]));
        assert_eq!(execute(&op, &mut s, &r).unwrap(), ExecOutcome::Success);
        assert_eq!(balance(&s, 0), 0, "fallback withdrew from the pristine 10");
        assert_eq!(balance(&s, 1), 10, "only the fallback deposit is visible");
    }

    /// An [`ObjectAccess`] in which one object can be cloned (so overlays
    /// can copy it) but never applied against — simulating an object removed
    /// from the store between an atomic's execution and its commit.
    struct VanishingStore {
        inner: ObjectStore,
        vanished: ObjectId,
    }

    impl ObjectAccess for VanishingStore {
        fn exists(&self, id: ObjectId) -> bool {
            self.inner.exists(id)
        }
        fn clone_object(&self, id: ObjectId) -> Option<Box<dyn SharedObject>> {
            self.inner.clone_object(id)
        }
        fn apply(
            &mut self,
            id: ObjectId,
            f: &mut dyn FnMut(&mut (dyn SharedObject + 'static)) -> bool,
        ) -> Option<bool> {
            if id == self.vanished {
                return None;
            }
            self.inner.apply(id, f)
        }
    }

    #[test]
    fn commit_surfaces_vanished_object() {
        let r = registry();
        let mut s = VanishingStore {
            inner: store_with(&[10]),
            vanished: oid(0),
        };
        // The deposit executes on the overlay's copy (cloning from the base
        // still works); at commit time the base refuses to resolve the
        // object, as if it had been removed mid-operation.
        let op = SharedOp::atomic(vec![SharedOp::primitive(oid(0), "deposit", args![5])]);
        assert_eq!(
            execute_against(&op, &mut s, &r).unwrap_err(),
            ExecError::VanishedObject(oid(0))
        );
    }

    /// A base that clones objects as `Account` but hands `apply` a
    /// different concrete type, simulating an id whose object changed type
    /// behind the overlay's back.
    struct TypeSwappingStore {
        account: Account,
        swapped: Blob,
    }

    #[derive(Clone, Default, Debug)]
    struct Blob;
    impl GState for Blob {
        const TYPE_NAME: &'static str = "Blob";
        fn snapshot(&self) -> Value {
            Value::Unit
        }
        fn restore(&mut self, _: &Value) -> Result<(), RestoreError> {
            Ok(())
        }
    }

    impl ObjectAccess for TypeSwappingStore {
        fn exists(&self, id: ObjectId) -> bool {
            id == oid(0)
        }
        fn clone_object(&self, id: ObjectId) -> Option<Box<dyn SharedObject>> {
            (id == oid(0)).then(|| {
                let b: Box<dyn SharedObject> = Box::new(self.account.clone());
                b
            })
        }
        fn apply(
            &mut self,
            id: ObjectId,
            f: &mut dyn FnMut(&mut (dyn SharedObject + 'static)) -> bool,
        ) -> Option<bool> {
            (id == oid(0)).then(|| f(&mut self.swapped))
        }
    }

    #[test]
    fn commit_surfaces_type_mismatch() {
        let r = registry();
        let mut s = TypeSwappingStore {
            account: Account { balance: 10 },
            swapped: Blob,
        };
        let op = SharedOp::atomic(vec![SharedOp::primitive(oid(0), "deposit", args![5])]);
        assert_eq!(
            execute_against(&op, &mut s, &r).unwrap_err(),
            ExecError::TypeMismatch {
                expected: "Blob".into(),
                actual: "Account".into(),
            }
        );
    }

    #[test]
    fn a_pass_executes_each_op_as_the_access_path_does() {
        let r = registry();
        let ops = [
            SharedOp::primitive(oid(0), "deposit", args![5]),
            SharedOp::primitive(oid(0), "deposit", args![1]),
            SharedOp::primitive(oid(0), "withdraw", args![100]),
            SharedOp::primitive(oid(0), "withdraw", args![3]),
            SharedOp::primitive(oid(1), "withdraw", args![3]),
            SharedOp::primitive(oid(1), "bogus", args![]),
            SharedOp::primitive(oid(9), "deposit", args![1]),
            SharedOp::primitive(oid(1), "deposit", args!["not an int"]),
            SharedOp::atomic(vec![
                SharedOp::primitive(oid(0), "withdraw", args![2]),
                SharedOp::primitive(oid(1), "deposit", args![2]),
            ]),
            SharedOp::primitive(oid(1), "deposit", args![4]),
            SharedOp::primitive(oid(0), "deposit", args![4]),
        ];
        // The reference: each op alone, through the `ObjectAccess` path.
        let mut one_by_one = store_with(&[10, 0]);
        let want: Vec<_> = ops
            .iter()
            .map(|op| execute_against(op, &mut one_by_one, &r).map(ExecOutcome::from))
            .collect();
        let mut store = store_with(&[10, 0]);
        let mut pass = ExecPass::new(&mut store, &r);
        let got: Vec<_> = ops.iter().map(|op| pass.execute(op)).collect();
        assert_eq!(got, want);
        assert_eq!(store.digest(), one_by_one.digest());
        // A write outside the pass: the replaced object's method resolves
        // afresh.
        let mut pass = ExecPass::new(&mut store, &r);
        let deposit = SharedOp::primitive(oid(0), "deposit", args![1]);
        assert_eq!(pass.execute(&deposit), Ok(ExecOutcome::Success));
        pass.store().insert(oid(0), Box::new(Blob));
        assert!(matches!(
            pass.execute(&deposit),
            Err(ExecError::UnknownMethod { .. })
        ));
    }

    #[test]
    fn exec_outcome_conversions() {
        assert!(ExecOutcome::Success.is_success());
        assert!(!ExecOutcome::Failure.is_success());
        assert_eq!(ExecOutcome::from(true), ExecOutcome::Success);
        assert!(ExecOutcome::from(true).as_bool());
        assert!(!ExecOutcome::from(false).as_bool());
    }
}

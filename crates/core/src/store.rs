//! Object stores: one keyed store per replica (committed `sc`, guesstimated `sg`).
//!
//! The GUESSTIMATE runtime keeps, on every machine, *two copies* of each
//! shared object the machine has joined — one backing the committed state and
//! one backing the guesstimated state (§4). An [`ObjectStore`] is one such
//! replica set. Stores support canonical digests, used to check
//! cross-machine convergence, and two ways of making one store equal
//! another:
//!
//! * [`ObjectStore::sync_from`] — the **delta resync**, the `sc → sg` copy
//!   at the end of each synchronization. A store records the ids it has
//!   been mutated on since it last took part in a resync (its *dirty set*),
//!   and the resync visits only `sc.dirty ∪ sg.dirty`: a round costs what
//!   it touched, not what the store holds (the paper's §9 names the
//!   whole-store copy as its scaling limitation).
//! * [`ObjectStore::copy_from`] — the whole-store copy, for a store that
//!   has no resync history with its source: a freshly installed `sc` at
//!   join, and the invariant oracle that must not trust the dirty sets.
//!
//! Dirty marking is by construction, not by declaration: the object map is
//! private, and every way in that can change one entry — `insert`, `remove`,
//! `get_mut` / `get_as_mut`, [`ObjectAccess::apply`] — marks the id (a
//! whole `copy_from` leaves the pair identical everywhere, so it has
//! nothing to mark). It is conservative (a mutable borrow that changes
//! nothing still marks) and trusts no operation footprint. A failed
//! `Atomic` never reaches the store (its overlay clones through `&self`),
//! and a committed overlay marks what it writes back, through `apply`.

use std::collections::{BTreeMap, BTreeSet};

use crate::exec::ObjectAccess;
use crate::ids::ObjectId;
use crate::object::{GState, SharedObject};
use crate::value::{value_digest, Value};

/// A keyed collection of boxed shared objects.
///
/// Iteration order is the total order on [`ObjectId`], so that digests and
/// copies are deterministic across machines.
///
/// # Examples
///
/// ```
/// use guesstimate_core::{GState, MachineId, ObjectId, ObjectStore, RestoreError, Value};
///
/// #[derive(Clone, Default)]
/// struct Flag(bool);
/// impl GState for Flag {
///     const TYPE_NAME: &'static str = "Flag";
///     fn snapshot(&self) -> Value { Value::from(self.0) }
///     fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
///         self.0 = v.as_bool().ok_or_else(|| RestoreError::shape("bool"))?;
///         Ok(())
///     }
/// }
///
/// let mut store = ObjectStore::new();
/// let id = ObjectId::new(MachineId::new(0), 1);
/// store.insert(id, Box::new(Flag(true)));
/// assert!(store.get_as::<Flag>(id).unwrap().0);
/// ```
///
/// A clone deep-copies every object and the dirty set with it, so clones
/// of both stores of an `sc`/`sg` pair resync exactly as the pair would.
#[derive(Default, Clone)]
pub struct ObjectStore {
    objects: BTreeMap<ObjectId, Box<dyn SharedObject>>,
    /// Ids whose entry may have changed since this store last took part in
    /// a [`ObjectStore::sync_from`]. Invariant for the `sc`/`sg` pair: an id
    /// in neither store's set holds logically identical entries in both.
    dirty: BTreeSet<ObjectId>,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Number of objects in the store.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// True if `id` is present.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.objects.contains_key(&id)
    }

    /// Inserts (or replaces) an object under `id`, returning the previous one.
    pub fn insert(
        &mut self,
        id: ObjectId,
        object: Box<dyn SharedObject>,
    ) -> Option<Box<dyn SharedObject>> {
        self.dirty.insert(id);
        self.objects.insert(id, object)
    }

    /// Removes the object under `id`.
    pub fn remove(&mut self, id: ObjectId) -> Option<Box<dyn SharedObject>> {
        let removed = self.objects.remove(&id);
        if removed.is_some() {
            self.dirty.insert(id);
        }
        removed
    }

    /// Borrows the object under `id`.
    pub fn get(&self, id: ObjectId) -> Option<&dyn SharedObject> {
        self.objects.get(&id).map(|b| &**b)
    }

    /// Mutably borrows the object under `id`, marking it dirty: the store
    /// cannot see what the borrower does, so it assumes a write.
    pub fn get_mut(&mut self, id: ObjectId) -> Option<&mut (dyn SharedObject + 'static)> {
        let obj = self.objects.get_mut(&id)?;
        self.dirty.insert(id);
        Some(&mut **obj)
    }

    /// Borrows the object under `id` downcast to its concrete type.
    ///
    /// Returns `None` if the id is absent **or** the type does not match.
    pub fn get_as<T: GState>(&self, id: ObjectId) -> Option<&T> {
        self.get(id)?.as_any().downcast_ref::<T>()
    }

    /// Mutably borrows the object under `id` downcast to its concrete type.
    pub fn get_as_mut<T: GState>(&mut self, id: ObjectId) -> Option<&mut T> {
        self.get_mut(id)?.as_any_mut().downcast_mut::<T>()
    }

    /// Iterates over `(id, object)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &dyn SharedObject)> {
        self.objects.iter().map(|(id, b)| (*id, &**b))
    }

    /// The ids present in the store, in order.
    pub fn ids(&self) -> Vec<ObjectId> {
        self.objects.keys().copied().collect()
    }

    /// Overwrites this store's contents with `src`'s contents.
    ///
    /// Objects present in both are copied in place via
    /// [`SharedObject::copy_from`]; objects only in `src` are cloned in;
    /// objects only in `self` are removed. After the call the two stores hold
    /// logically identical state. This is the whole-store analog of the
    /// paper's `Copy`. It neither reads nor changes a dirty set: the stores
    /// end up identical everywhere, so whatever marks either carries stay a
    /// superset of what a later [`ObjectStore::sync_from`] between the two
    /// must visit.
    ///
    /// If an id is occupied by a *different concrete type* in the two stores
    /// (possible only when an application reuses ids across types), the
    /// in-place copy is impossible and the object is replaced wholesale with
    /// a clone of `src`'s — the post-condition (stores logically identical)
    /// holds either way, so this method is infallible.
    pub fn copy_from(&mut self, src: &ObjectStore) {
        self.objects.retain(|id, _| src.objects.contains_key(id));
        for (id, obj) in &src.objects {
            copy_entry(&mut self.objects, *id, Some(&**obj));
        }
    }

    /// The delta resync: makes this store logically identical to `src` by
    /// visiting only the ids either store has been mutated on since the
    /// two were last identical — copied in place, cloned in, or removed,
    /// exactly as [`ObjectStore::copy_from`] treats every id — and then
    /// clears both dirty sets. Returns the number of ids visited.
    ///
    /// This is the `sc → sg` copy of §4 (`sg.sync_from(&mut sc)`). A dirty
    /// set is relative to the one partner a store resyncs with: the two
    /// must have been identical once (both empty, or one a whole
    /// [`ObjectStore::copy_from`] / [`Clone`] of the other), and neither
    /// may have been resynced with a third store since. Cloning both
    /// stores of a pair gives a pair that meets this too: a clone carries
    /// its original's marks. Extra marks are always safe — a marked id
    /// that did not change is copied onto an equal entry.
    pub fn sync_from(&mut self, src: &mut ObjectStore) -> usize {
        let mut ids = std::mem::take(&mut self.dirty);
        ids.append(&mut src.dirty);
        for id in &ids {
            copy_entry(&mut self.objects, *id, src.objects.get(id).map(|b| &**b));
        }
        ids.len()
    }

    /// Canonical snapshot of the entire store: a map from object id strings
    /// to object snapshots.
    pub fn snapshot(&self) -> Value {
        Value::map(
            self.objects
                .iter()
                .map(|(id, obj)| (id.to_string(), obj.snapshot())),
        )
    }

    /// Deterministic digest of the whole store, for convergence checks.
    pub fn digest(&self) -> u64 {
        value_digest(&self.snapshot())
    }
}

/// The per-object step of both copies: makes `objects[id]` logically
/// identical to `src` (the source store's entry under `id`, if any).
fn copy_entry(
    objects: &mut BTreeMap<ObjectId, Box<dyn SharedObject>>,
    id: ObjectId,
    src: Option<&dyn SharedObject>,
) {
    let Some(src) = src else {
        objects.remove(&id);
        return;
    };
    let in_place = match objects.get_mut(&id) {
        Some(mine) => mine.copy_from(src).is_ok(),
        None => false,
    };
    if !in_place {
        objects.insert(id, src.clone_boxed());
    }
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("len", &self.objects.len())
            .field("ids", &self.ids())
            .finish()
    }
}

impl ObjectAccess for ObjectStore {
    fn exists(&self, id: ObjectId) -> bool {
        self.contains(id)
    }

    fn clone_object(&self, id: ObjectId) -> Option<Box<dyn SharedObject>> {
        self.get(id).map(|o| o.clone_boxed())
    }

    fn apply(
        &mut self,
        id: ObjectId,
        f: &mut dyn FnMut(&mut (dyn SharedObject + 'static)) -> bool,
    ) -> Option<bool> {
        self.get_mut(id).map(f)
    }
}

#[cfg(test)]
#[path = "store_sync_tests.rs"]
mod sync_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RestoreError;
    use crate::ids::MachineId;

    #[derive(Clone, Default, Debug, PartialEq)]
    pub(super) struct Num(pub(super) i64);
    impl GState for Num {
        const TYPE_NAME: &'static str = "Num";
        fn snapshot(&self) -> Value {
            Value::from(self.0)
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            self.0 = v.as_i64().ok_or_else(|| RestoreError::shape("i64"))?;
            Ok(())
        }
    }

    #[derive(Clone, Default, Debug, PartialEq)]
    pub(super) struct Txt(pub(super) String);
    impl GState for Txt {
        const TYPE_NAME: &'static str = "Txt";
        fn snapshot(&self) -> Value {
            Value::from(self.0.clone())
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            self.0 = v.as_str().ok_or_else(|| RestoreError::shape("str"))?.into();
            Ok(())
        }
    }

    pub(super) fn oid(m: u32, s: u64) -> ObjectId {
        ObjectId::new(MachineId::new(m), s)
    }

    #[test]
    fn insert_get_remove() {
        let mut s = ObjectStore::new();
        assert!(s.is_empty());
        s.insert(oid(0, 0), Box::new(Num(5)));
        assert_eq!(s.len(), 1);
        assert!(s.contains(oid(0, 0)));
        assert_eq!(s.get_as::<Num>(oid(0, 0)), Some(&Num(5)));
        assert_eq!(s.get_as::<Txt>(oid(0, 0)), None, "wrong type downcast");
        s.get_as_mut::<Num>(oid(0, 0)).unwrap().0 = 9;
        assert_eq!(s.get_as::<Num>(oid(0, 0)).unwrap().0, 9);
        assert!(s.remove(oid(0, 0)).is_some());
        assert!(s.is_empty());
        assert!(s.get(oid(0, 0)).is_none());
    }

    #[test]
    fn copy_from_makes_stores_identical() {
        let mut a = ObjectStore::new();
        a.insert(oid(0, 0), Box::new(Num(1)));
        a.insert(oid(0, 1), Box::new(Txt("x".into())));

        let mut b = ObjectStore::new();
        b.insert(oid(0, 0), Box::new(Num(99))); // will be overwritten in place
        b.insert(oid(9, 9), Box::new(Num(7))); // will be removed

        b.copy_from(&a);
        assert_eq!(b.digest(), a.digest());
        assert_eq!(b.get_as::<Num>(oid(0, 0)).unwrap().0, 1);
        assert_eq!(b.get_as::<Txt>(oid(0, 1)).unwrap().0, "x");
        assert!(!b.contains(oid(9, 9)));
    }

    #[test]
    fn copy_from_then_mutate_does_not_alias() {
        let mut a = ObjectStore::new();
        a.insert(oid(0, 0), Box::new(Num(1)));
        let mut b = ObjectStore::new();
        b.copy_from(&a);
        b.get_as_mut::<Num>(oid(0, 0)).unwrap().0 = 2;
        assert_eq!(a.get_as::<Num>(oid(0, 0)).unwrap().0, 1);
    }

    #[test]
    fn digest_reflects_state_not_insert_order() {
        let mut a = ObjectStore::new();
        a.insert(oid(0, 1), Box::new(Num(2)));
        a.insert(oid(0, 0), Box::new(Num(1)));
        let mut b = ObjectStore::new();
        b.insert(oid(0, 0), Box::new(Num(1)));
        b.insert(oid(0, 1), Box::new(Num(2)));
        assert_eq!(a.digest(), b.digest());
        b.get_as_mut::<Num>(oid(0, 1)).unwrap().0 = 3;
        assert_ne!(a.digest(), b.digest());
    }

    /// The digest is part of the cross-machine convergence protocol (and
    /// of checked-in schedule/bench baselines), so its value for a fixed
    /// store is pinned: an accidental change to the hash or to snapshot
    /// canonicalization shows up here before it desynchronizes replicas
    /// built from different versions.
    #[test]
    fn digest_of_fixed_store_is_pinned() {
        let mut s = ObjectStore::new();
        s.insert(oid(0, 0), Box::new(Num(42)));
        s.insert(oid(1, 3), Box::new(Txt("guess".into())));
        assert_eq!(s.digest(), 0x0D0B_E349_8FF8_4A78);
        assert_eq!(ObjectStore::new().digest(), 0x2BC5_8221_66BF_4786);
    }

    /// Map-valued snapshots canonicalize by key, so logically equal maps
    /// populated in different orders digest identically.
    #[test]
    fn map_snapshot_digest_ignores_population_order() {
        #[derive(Clone, Default, Debug)]
        struct Bag(std::collections::BTreeMap<String, i64>);
        impl GState for Bag {
            const TYPE_NAME: &'static str = "Bag";
            fn snapshot(&self) -> Value {
                Value::map(self.0.iter().map(|(k, v)| (k.clone(), Value::from(*v))))
            }
            fn restore(&mut self, _: &Value) -> Result<(), RestoreError> {
                Ok(())
            }
        }
        let mut x = Bag::default();
        x.0.insert("b".into(), 2);
        x.0.insert("a".into(), 1);
        let mut y = Bag::default();
        y.0.insert("a".into(), 1);
        y.0.insert("b".into(), 2);
        let mut sx = ObjectStore::new();
        sx.insert(oid(0, 0), Box::new(x));
        let mut sy = ObjectStore::new();
        sy.insert(oid(0, 0), Box::new(y));
        assert_eq!(sx.digest(), sy.digest());
    }

    #[test]
    fn ids_are_sorted() {
        let mut s = ObjectStore::new();
        s.insert(oid(1, 0), Box::new(Num(0)));
        s.insert(oid(0, 5), Box::new(Num(0)));
        assert_eq!(s.ids(), vec![oid(0, 5), oid(1, 0)]);
    }

    #[test]
    fn snapshot_maps_ids_to_object_snapshots() {
        let mut s = ObjectStore::new();
        s.insert(oid(0, 0), Box::new(Num(42)));
        let snap = s.snapshot();
        assert_eq!(snap.field("obj-m0-0").and_then(Value::as_i64), Some(42));
    }

    #[test]
    fn debug_is_nonempty() {
        let s = ObjectStore::new();
        assert!(format!("{s:?}").contains("ObjectStore"));
    }
}

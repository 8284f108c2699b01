//! The delta resync ([`ObjectStore::sync_from`]) against its oracle, the
//! whole-store [`ObjectStore::copy_from`]: unit cases for each kind of
//! entry change, and a property test over random interleavings of every
//! way into a store. Then shared entries against a deep-copy model: a
//! property test that no write through one store reaches another.

use std::collections::BTreeMap;

use proptest::prelude::*;

use super::tests::{oid, Num, Txt};
use super::ObjectStore;
use crate::args;
use crate::exec::{execute, execute_against, CowOverlay, ObjectAccess};
use crate::ids::ObjectId;
use crate::object::SharedObject;
use crate::op::SharedOp;
use crate::registry::OpRegistry;
use crate::value::Value;

/// The ids a store has marked, sorted and without repeats, after checking
/// that every entry whose flag is set is on the list.
fn marks(s: &ObjectStore) -> Vec<ObjectId> {
    for (id, e) in &s.objects {
        assert!(
            !e.marked || s.marked.contains(id),
            "{id} flagged, not listed"
        );
    }
    let mut ids = s.marked.clone();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// `Num::add(n)` always succeeds, `Num::take(n)` fails below zero,
/// `Txt::push(s)` always succeeds.
fn registry() -> OpRegistry {
    let mut r = OpRegistry::new();
    r.register_type::<Num>();
    r.register_type::<Txt>();
    r.register_method::<Num>("add", |n, a| {
        n.0 += a.i64(0).unwrap_or(1);
        true
    });
    r.register_method::<Num>("take", |n, a| {
        let k = a.i64(0).unwrap_or(1);
        if n.0 < k {
            return false;
        }
        n.0 -= k;
        true
    });
    r.register_method::<Txt>("push", |t, a| {
        t.0.push_str(a.str(0).unwrap_or("x"));
        true
    });
    r
}

/// A resynced pair holding `Num(i)` under `oid(0, i)` for `i < n`.
fn synced_pair(n: u64) -> (ObjectStore, ObjectStore) {
    let (mut sc, mut sg) = (ObjectStore::new(), ObjectStore::new());
    for i in 0..n {
        sc.insert(oid(0, i), Box::new(Num(i as i64)));
    }
    assert_eq!(sg.sync_from(&mut sc), n as usize);
    (sc, sg)
}

/// `sg` equals a fresh whole-store copy of `sc`, object by object (type
/// and snapshot) and by digest, and the resync left both stores clean.
fn assert_resynced(sc: &ObjectStore, sg: &ObjectStore) {
    let mut fresh = ObjectStore::new();
    fresh.copy_from(sc);
    assert_eq!(sg.ids(), fresh.ids());
    for (id, want) in fresh.iter() {
        let got = sg.get(id).expect("ids equal");
        assert_eq!(got.type_name(), want.type_name(), "{id}");
        assert_eq!(got.snapshot(), want.snapshot(), "{id}");
    }
    assert_eq!(sg.digest(), sc.digest());
    assert!(marks(sc).is_empty() && marks(sg).is_empty());
}

#[test]
fn resync_visits_only_what_either_store_touched() {
    let (mut sc, mut sg) = synced_pair(8);
    assert_eq!(sg.sync_from(&mut sc), 0, "clean pair: nothing to visit");
    sc.get_as_mut::<Num>(oid(0, 1)).unwrap().0 = 100; // a commit
    sg.get_as_mut::<Num>(oid(0, 1)).unwrap().0 = 100; // ...issued here first
    sg.get_as_mut::<Num>(oid(0, 2)).unwrap().0 = -5; // a pending guess
    assert_eq!(sg.sync_from(&mut sc), 2, "the union, each id once");
    assert_eq!(sg.get_as::<Num>(oid(0, 2)).unwrap().0, 2, "guess undone");
    assert_resynced(&sc, &sg);
}

#[test]
fn object_only_in_guess_is_removed() {
    let (mut sc, mut sg) = synced_pair(2);
    sg.insert(oid(1, 0), Box::new(Num(7))); // a pending Create
    assert_eq!(sg.sync_from(&mut sc), 1);
    assert!(!sg.contains(oid(1, 0)));
    assert_resynced(&sc, &sg);
}

#[test]
fn object_removed_from_committed_is_removed() {
    let (mut sc, mut sg) = synced_pair(2);
    assert!(sc.remove(oid(0, 0)).is_some());
    assert!(sc.remove(oid(5, 5)).is_none(), "absent: nothing changed");
    assert_eq!(sg.sync_from(&mut sc), 1);
    assert!(!sg.contains(oid(0, 0)));
    assert_resynced(&sc, &sg);
}

#[test]
fn object_retyped_under_its_id_is_replaced() {
    let (mut sc, mut sg) = synced_pair(1);
    sc.insert(oid(0, 0), Box::new(Txt("now text".into())));
    assert_eq!(sg.sync_from(&mut sc), 1);
    assert_eq!(sg.get_as::<Txt>(oid(0, 0)).unwrap().0, "now text");
    assert_resynced(&sc, &sg);
}

#[test]
fn failing_atomic_and_reads_leave_the_store_clean() {
    let r = registry();
    let (mut sc, _sg) = synced_pair(2);
    let failing = SharedOp::atomic(vec![
        SharedOp::primitive(oid(0, 0), "add", args![5]),
        SharedOp::primitive(oid(0, 1), "take", args![99]),
    ]);
    assert!(!execute(&failing, &mut sc, &r).unwrap().as_bool());
    let _ = (sc.get(oid(0, 0)), sc.get_as::<Num>(oid(0, 1)), sc.digest());
    let _ = (sc.snapshot(), sc.ids(), sc.iter().count(), sc.clone());
    assert!(sc.get_mut(oid(9, 9)).is_none(), "absent: nothing to mark");
    assert!(marks(&sc).is_empty());
    // The same block succeeding marks exactly what its overlay wrote back.
    let ok = SharedOp::atomic(vec![SharedOp::primitive(oid(0, 1), "add", args![1])]);
    assert!(execute(&ok, &mut sc, &r).unwrap().as_bool());
    assert_eq!(marks(&sc), [oid(0, 1)]);
}

/// The async-apply shape: the runtime patches both stores
/// in place and resyncs nothing, so nothing may be cleared either — the
/// marks must survive until the next real resync.
#[test]
fn patching_both_stores_without_a_resync_keeps_both_marked() {
    let r = registry();
    let (mut sc, mut sg) = synced_pair(4);
    let op = SharedOp::primitive(oid(0, 3), "add", args![10]);
    execute(&op, &mut sc, &r).unwrap();
    execute(&op, &mut sg, &r).unwrap();
    assert_eq!(marks(&sc).len(), 1);
    assert_eq!(marks(&sg).len(), 1);
    sg.get_as_mut::<Num>(oid(0, 0)).unwrap().0 = -1; // later guess
    assert_eq!(sg.sync_from(&mut sc), 2);
    assert_resynced(&sc, &sg);
}

/// A whole copy equalizes the pair without touching either store's marks:
/// stale marks are a superset, and a clone of a clean store is clean.
#[test]
fn whole_copy_leaves_the_marks_alone() {
    let (mut sc, mut sg) = synced_pair(3);
    sg.get_as_mut::<Num>(oid(0, 0)).unwrap().0 = 9;
    sg.copy_from(&sc);
    assert_eq!(marks(&sg).len(), 1);
    assert!(marks(&sc.clone()).is_empty());
    assert_eq!(sg.sync_from(&mut sc), 1);
    assert_resynced(&sc, &sg);
}

/// A pair cloned while `sg` holds an issue-time write resyncs like the
/// original: the clones carry the marks, so the write is undone on both.
#[test]
fn a_cloned_pair_resyncs_like_the_original() {
    let (mut sc, mut sg) = synced_pair(3);
    sg.get_as_mut::<Num>(oid(0, 1)).unwrap().0 = 42; // a pending guess
    let (mut sc2, mut sg2) = (sc.clone(), sg.clone());
    assert_eq!(sg2.digest(), sg.digest());
    assert_eq!(sg2.sync_from(&mut sc2), 1);
    assert_eq!(sg.sync_from(&mut sc), 1);
    assert_eq!(sg2.digest(), sc2.digest());
    assert_eq!(sg2.digest(), sg.digest());
    assert_resynced(&sc2, &sg2);
}

/// One random step against the pair: `(kind, on_sc, a, b, n)`.
type Step = (u8, bool, u64, u64, i64);

fn slot(i: u64) -> ObjectId {
    oid(0, i)
}

/// Runs one step; true if it was a resync.
fn run_step(step: Step, sc: &mut ObjectStore, sg: &mut ObjectStore, r: &OpRegistry) -> bool {
    let (kind, on_sc, a, b, n) = step;
    match kind {
        9 if on_sc => {
            sc.copy_from(sg);
            return false;
        }
        9 => {
            sg.copy_from(sc);
            return false;
        }
        10.. => {
            sg.sync_from(sc);
            return true;
        }
        _ => {}
    }
    let store = if on_sc { sc } else { sg };
    let add = |i: u64| SharedOp::primitive(slot(i), "add", args![n]);
    let take = |i: u64| SharedOp::primitive(slot(i), "take", args![1_000]);
    let op = match kind {
        0 => add(a),
        1 => SharedOp::atomic(vec![add(a), add(b)]),
        2 => SharedOp::atomic(vec![add(a), take(b)]), // always fails (or errors)
        3 => take(a).or_else(add(b)),
        4 => SharedOp::primitive(slot(a), "push", args!["p"]),
        5 => {
            store.insert(slot(a), Box::new(Num(n)));
            return false;
        }
        6 => {
            store.insert(slot(a), Box::new(Txt(format!("t{n}")))); // maybe retypes the slot
            return false;
        }
        7 => {
            store.remove(slot(a));
            return false;
        }
        _ => {
            let _ = store.get(slot(a)).map(|o| o.snapshot());
            return false;
        }
    };
    // A missing slot or a method of the other type is an `ExecError`;
    // either way the store has marked whatever it let the engine reach.
    let _ = execute(&op, store, r);
    false
}

proptest! {
    #[test]
    fn delta_resync_equals_whole_copy(
        steps in proptest::collection::vec((0u8..12, any::<bool>(), 0u64..4, 0u64..4, -3i64..4), 0..48)
    ) {
        let r = registry();
        let (mut sc, mut sg) = (ObjectStore::new(), ObjectStore::new());
        for step in steps {
            if run_step(step, &mut sc, &mut sg, &r) {
                assert_resynced(&sc, &sg);
            }
        }
        sg.sync_from(&mut sc);
        assert_resynced(&sc, &sg);
    }
}

/// A resync into a store that lacks an object shares it, and the first
/// write on either side copies it into that side alone.
#[test]
fn a_resync_shares_what_it_brings_in_and_a_write_unshares_it() {
    let (mut sc, mut sg) = synced_pair(3);
    let ids = sc.ids();
    assert!(ids.iter().all(|&id| sg.shares_with(&sc, id)));
    sg.get_as_mut::<Num>(oid(0, 1)).unwrap().0 = 40; // a guess
    sc.get_as_mut::<Num>(oid(0, 2)).unwrap().0 = 50; // a commit
    assert!(sg.shares_with(&sc, oid(0, 0)));
    assert!(!sg.shares_with(&sc, oid(0, 1)) && !sg.shares_with(&sc, oid(0, 2)));
    assert_eq!(sc.get_as::<Num>(oid(0, 1)).unwrap().0, 1);
    assert_eq!(sg.get_as::<Num>(oid(0, 2)).unwrap().0, 2);
    // Both now own 1 and 2: the resync copies them in place.
    assert_eq!(sg.sync_from(&mut sc), 2);
    assert!(!sg.shares_with(&sc, oid(0, 1)) && !sg.shares_with(&sc, oid(0, 2)));
    assert_resynced(&sc, &sg);
}

/// The reference the shared stores are checked against: a map of
/// privately owned objects, which every copy deep-copies.
#[derive(Default)]
struct Model(BTreeMap<ObjectId, Box<dyn SharedObject>>);

impl Model {
    fn copy_of(&self) -> Model {
        Model(
            self.0
                .iter()
                .map(|(id, o)| (*id, o.clone_boxed()))
                .collect(),
        )
    }

    fn snapshot(&self) -> Value {
        Value::map(self.0.iter().map(|(id, o)| (id.to_string(), o.snapshot())))
    }
}

impl ObjectAccess for Model {
    fn exists(&self, id: ObjectId) -> bool {
        self.0.contains_key(&id)
    }

    fn clone_object(&self, id: ObjectId) -> Option<Box<dyn SharedObject>> {
        self.0.get(&id).map(|o| o.clone_boxed())
    }

    fn apply(
        &mut self,
        id: ObjectId,
        f: &mut dyn FnMut(&mut (dyn SharedObject + 'static)) -> bool,
    ) -> Option<bool> {
        self.0.get_mut(&id).map(|o| f(&mut **o))
    }
}

/// One random step against the pool: `(kind, store, a, b, n)`.
type PoolStep = (u8, usize, u64, u64, i64);

/// Pairs of stores, `stores[2p]` the `sc` and `stores[2p + 1]` the `sg` of
/// pair `p`, each beside its model. Resyncs and in-pair copies stay within
/// a pair, which keeps every pair's marks valid; a clone adds a pair, and
/// an adopting pair copies a whole store of any pair into both of its
/// stores, so objects end up shared across pairs too.
struct Pool {
    stores: Vec<ObjectStore>,
    models: Vec<Model>,
}

const POOL_PAIRS: usize = 3;

impl Pool {
    fn run(&mut self, step: PoolStep, r: &OpRegistry) {
        let (kind, k, a, b, n) = step;
        let k = k % self.stores.len();
        let (sc, sg) = (k & !1, k | 1);
        let add = |i: u64| SharedOp::primitive(slot(i), "add", args![n]);
        let take = |i: u64| SharedOp::primitive(slot(i), "take", args![1_000]);
        let op = match kind {
            0 => add(a),
            1 => SharedOp::atomic(vec![add(a), add(b)]),
            2 => SharedOp::atomic(vec![add(a), take(b)]),
            3 => SharedOp::primitive(slot(a), "push", args!["p"]),
            4 => {
                self.stores[k].insert(slot(a), Box::new(Num(n)));
                self.models[k].0.insert(slot(a), Box::new(Num(n)));
                return;
            }
            5 => {
                self.stores[k].insert(slot(a), Box::new(Txt(format!("t{n}"))));
                self.models[k]
                    .0
                    .insert(slot(a), Box::new(Txt(format!("t{n}"))));
                return;
            }
            6 => {
                self.stores[k].remove(slot(a));
                self.models[k].0.remove(&slot(a));
                return;
            }
            7 => {
                // A write through a borrow, not through the engine.
                if let Some(x) = self.stores[k].get_as_mut::<Num>(slot(a)) {
                    x.0 += n;
                }
                let model = self.models[k].0.get_mut(&slot(a));
                if let Some(x) = model.and_then(|o| o.as_any_mut().downcast_mut::<Num>()) {
                    x.0 += n;
                }
                return;
            }
            8 => {
                let (left, right) = self.stores.split_at_mut(sg);
                right[0].sync_from(&mut left[sc]);
                self.models[sg] = self.models[sc].copy_of();
                return;
            }
            9 => {
                let (left, right) = self.stores.split_at_mut(sg);
                let (to, from) = if a % 2 == 0 {
                    right[0].copy_from(&left[sc]);
                    (sg, sc)
                } else {
                    left[sc].copy_from(&right[0]);
                    (sc, sg)
                };
                self.models[to] = self.models[from].copy_of();
                return;
            }
            10 => {
                let pair = [self.stores[sc].clone(), self.stores[sg].clone()];
                let models = [self.models[sc].copy_of(), self.models[sg].copy_of()];
                if self.stores.len() < 2 * POOL_PAIRS {
                    self.stores.extend(pair);
                    self.models.extend(models);
                } else {
                    let at = (sc + 2) % self.stores.len();
                    self.stores.splice(at..at + 2, pair);
                    self.models.splice(at..at + 2, models);
                }
                return;
            }
            _ => {
                let from = b as usize % self.stores.len();
                let src = self.stores[from].clone();
                self.stores[sc].copy_from(&src);
                let copied = self.stores[sc].clone();
                self.stores[sg].copy_from(&copied);
                self.models[sc] = self.models[from].copy_of();
                self.models[sg] = self.models[from].copy_of();
                return;
            }
        };
        // An `Atomic` commits through its overlay, which writes back
        // through `apply`; an error leaves both sides as the engine did.
        let _ = execute(&op, &mut self.stores[k], r);
        let _ = execute_against(&op, &mut self.models[k], r);
    }

    /// Every store holds what its model holds, and resyncing each pair's
    /// clone makes its `sg` equal its `sc`.
    fn check(&self) {
        for (k, (store, model)) in self.stores.iter().zip(&self.models).enumerate() {
            assert_eq!(store.snapshot(), model.snapshot(), "store {k}");
            for (id, obj) in store.iter() {
                assert_eq!(obj.type_name(), model.0[&id].type_name(), "store {k}, {id}");
            }
        }
        for p in self.stores.chunks(2) {
            let (mut sc, mut sg) = (p[0].clone(), p[1].clone());
            sg.sync_from(&mut sc);
            assert_resynced(&sc, &sg);
        }
    }
}

proptest! {
    #[test]
    fn shared_entries_stay_isolated(
        steps in proptest::collection::vec((0u8..12, 0usize..6, 0u64..4, 0u64..4, -3i64..4), 0..64)
    ) {
        let r = registry();
        let mut pool = Pool { stores: vec![ObjectStore::new(), ObjectStore::new()], models: vec![Model::default(), Model::default()] };
        for step in steps {
            pool.run(step, &r);
            pool.check();
        }
        // An overlay over a shared store copies what it touches from it,
        // and its commit writes back through the store's copy-on-write.
        let (sc, sg) = pool.stores.split_at_mut(1);
        sg[0].copy_from(&sc[0]);
        let before = sc[0].snapshot();
        let mut overlay = CowOverlay::new(&mut sg[0]);
        for id in (0..4).map(slot) {
            let _ = execute_against(&SharedOp::primitive(id, "add", args![1]), &mut overlay, &r);
        }
        overlay.commit().unwrap();
        prop_assert_eq!(sc[0].snapshot(), before);
    }
}

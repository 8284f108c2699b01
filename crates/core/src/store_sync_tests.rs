//! The delta resync ([`ObjectStore::sync_from`]) against its oracle, the
//! whole-store [`ObjectStore::copy_from`]: unit cases for each kind of
//! entry change, and a property test over random interleavings of every
//! way into a store.

use proptest::prelude::*;

use super::tests::{oid, Num, Txt};
use super::ObjectStore;
use crate::args;
use crate::exec::execute;
use crate::ids::ObjectId;
use crate::op::SharedOp;
use crate::registry::OpRegistry;

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
    assert!(sc.dirty.is_empty() && sg.dirty.is_empty());
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
    assert!(sc.dirty.is_empty());
    // The same block succeeding marks exactly what its overlay wrote back.
    let ok = SharedOp::atomic(vec![SharedOp::primitive(oid(0, 1), "add", args![1])]);
    assert!(execute(&ok, &mut sc, &r).unwrap().as_bool());
    assert_eq!(sc.dirty.iter().copied().collect::<Vec<_>>(), [oid(0, 1)]);
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
    assert_eq!(sc.dirty.len(), 1);
    assert_eq!(sg.dirty.len(), 1);
    sg.get_as_mut::<Num>(oid(0, 0)).unwrap().0 = -1; // later guess
    assert_eq!(sg.sync_from(&mut sc), 2);
    assert_resynced(&sc, &sg);
}

/// A whole copy equalizes the pair without touching either dirty set:
/// stale marks are a superset, and [`Clone`] yields a clean store.
#[test]
fn whole_copy_leaves_the_marks_alone() {
    let (mut sc, mut sg) = synced_pair(3);
    sg.get_as_mut::<Num>(oid(0, 0)).unwrap().0 = 9;
    sg.copy_from(&sc);
    assert_eq!(sg.dirty.len(), 1);
    assert!(sc.clone().dirty.is_empty());
    assert_eq!(sg.sync_from(&mut sc), 1);
    assert_resynced(&sc, &sg);
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

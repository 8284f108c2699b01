//! Commit-order replay: the refinement bridge between runtime and semantics.
//!
//! The committed state of any machine is, by the semantics, exactly the
//! result of executing the completed sequence `C` from the initial state
//! (§3: "The committed state sc is obtained by executing the sequence of
//! completed operations C from the initial state"). [`replay_in_commit_order`]
//! computes that state. Integration tests extract the committed history from
//! a *runtime* run (kept under `MachineConfig::checks`) and check that the
//! runtime's committed stores equal this replay — i.e. that the
//! implementation refines the semantics.

use guesstimate_core::{execute, ObjectStore, OpRegistry, SharedOp};

/// Replays a committed sequence of shared operations from `initial`,
/// returning the resulting committed state.
///
/// Failed operations (returning `false`) leave the state unchanged, exactly
/// as at commit time; execution errors (unknown objects/methods) are treated
/// as failures, mirroring the runtime's behavior for operations whose target
/// object was concurrently never created.
pub fn replay_in_commit_order(
    initial: &ObjectStore,
    ops: &[SharedOp],
    registry: &OpRegistry,
) -> ObjectStore {
    let mut state = ObjectStore::new();
    state.copy_from(initial);
    for op in ops {
        let _ = execute(op, &mut state, registry);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmodel::{counter_object, counter_registry, Counter};
    use guesstimate_core::args;

    #[test]
    fn replay_matches_incremental_execution() {
        let registry = counter_registry();
        let obj = counter_object();
        let mut initial = ObjectStore::new();
        initial.insert(obj, Box::new(Counter { n: 0 }));
        let ops = vec![
            SharedOp::primitive(obj, "add", args![3]),
            SharedOp::primitive(obj, "add_capped", args![5, 7]),
            SharedOp::primitive(obj, "add", args![-1]),
        ];
        let replayed = replay_in_commit_order(&initial, &ops, &registry);
        // add(3) = 3; add_capped(5,7) fails (3+5 > 7); add(-1) = 2.
        assert_eq!(replayed.get_as::<Counter>(obj).unwrap().n, 2);
    }

    #[test]
    fn failed_ops_do_not_change_state() {
        let registry = counter_registry();
        let obj = counter_object();
        let mut initial = ObjectStore::new();
        initial.insert(obj, Box::new(Counter { n: 0 }));
        let ops = vec![SharedOp::primitive(obj, "add", args![-5])];
        let replayed = replay_in_commit_order(&initial, &ops, &registry);
        assert_eq!(replayed.digest(), initial.digest());
    }

    #[test]
    fn unknown_objects_are_skipped() {
        let registry = counter_registry();
        let initial = ObjectStore::new();
        let bogus = counter_object();
        let ops = vec![SharedOp::primitive(bogus, "add", args![1])];
        let replayed = replay_in_commit_order(&initial, &ops, &registry);
        assert_eq!(replayed.digest(), initial.digest());
    }
}

//! Property-based tests (proptest) over the core data structures and the
//! formal semantics:
//!
//! * `Value` — total order laws, digest stability, snapshot determinism;
//! * `ObjectStore` — `copy_from` is idempotent and digest-faithful;
//! * `SharedOp` — over every application's operations, drawn from its
//!   rows' argument spaces: structural metrics behave under arbitrary
//!   nesting, and a failed operation never changes the state;
//! * semantics — the §3 invariants survive *arbitrary* R1/R2/R3 schedules,
//!   and quiescence always equalizes guesstimated and committed state;
//! * runtime — random multi-machine schedules converge and respect the
//!   bounded-re-execution guarantee.

use guesstimate::apps::{all, App};
use guesstimate::core::{execute, value_digest, ObjectId, ObjectStore, SharedOp, Value};
use guesstimate::semantics::{check_invariants, testmodel};
use guesstimate::{args, MachineId};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::from),
        any::<i64>().prop_map(Value::from),
        any::<f64>().prop_map(Value::from),
        "[a-z]{0,8}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..8).prop_map(Value::from),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::from),
            proptest::collection::btree_map("[a-z]{1,4}", inner, 0..4).prop_map(Value::Map),
        ]
    })
}

proptest! {
    #[test]
    fn value_order_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering::*;
        match a.cmp(&b) {
            Less => prop_assert_eq!(b.cmp(&a), Greater),
            Greater => prop_assert_eq!(b.cmp(&a), Less),
            Equal => {
                prop_assert_eq!(b.cmp(&a), Equal);
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(value_digest(&a), value_digest(&b));
            }
        }
    }

    #[test]
    fn value_order_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        let mut v = [a, b, c];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
    }

    #[test]
    fn value_clone_preserves_digest(a in arb_value()) {
        prop_assert_eq!(value_digest(&a), value_digest(&a.clone()));
    }
}

// ---------------------------------------------------------------------
// ObjectStore
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn store_copy_from_is_idempotent_and_digest_faithful(vals in proptest::collection::vec(any::<i64>(), 0..6)) {
        let mut src = ObjectStore::new();
        for (i, v) in vals.iter().enumerate() {
            src.insert(
                ObjectId::new(MachineId::new(0), i as u64),
                Box::new(testmodel::Counter { n: *v }),
            );
        }
        let mut dst = ObjectStore::new();
        dst.insert(ObjectId::new(MachineId::new(9), 9), Box::new(testmodel::Counter { n: -1 }));
        dst.copy_from(&src);
        prop_assert_eq!(dst.digest(), src.digest());
        prop_assert_eq!(dst.len(), src.len());
        dst.copy_from(&src);
        prop_assert_eq!(dst.digest(), src.digest());
        let cloned = src.clone();
        prop_assert_eq!(cloned.digest(), src.digest());
    }
}

// ---------------------------------------------------------------------
// SharedOp structure and the frame condition, over every application
// ---------------------------------------------------------------------

/// The object every session below runs on.
const OBJ: ObjectId = ObjectId::new(MachineId::new(0), 0);

/// One application's operations: a method drawn uniformly, then a list
/// from its row's argument space (the declared domains with their edge
/// values and an ill-typed argument), nested in `Atomic` / `OrElse`.
fn arb_op(app: App) -> impl Strategy<Value = SharedOp> {
    let registry = app.registry();
    let spaces: Vec<(&'static str, Vec<Vec<Value>>)> = registry
        .methods_of(app.type_name)
        .into_iter()
        .map(|m| {
            let space = registry.arg_space(app.type_name, m);
            (m, space.expect("a row declares its domains").cases)
        })
        .collect();
    let leaf = (0..spaces.len(), any::<usize>()).prop_map(move |(m, k)| {
        let (method, cases) = &spaces[m];
        SharedOp::primitive(OBJ, *method, cases[k % cases.len()].clone())
    });
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..3).prop_map(SharedOp::atomic),
            (inner.clone(), inner).prop_map(|(a, b)| a.or_else(b)),
        ]
    })
}

/// A short session: an application, one of its representative states,
/// and up to eight operations to run from it in order.
fn arb_session() -> impl Strategy<Value = (App, Value, Vec<SharedOp>)> {
    proptest::Union::new(
        all()
            .into_iter()
            .map(|app| {
                let states = (app.states)();
                (
                    0..states.len(),
                    proptest::collection::vec(arb_op(app), 1..9),
                )
                    .prop_map(move |(s, ops)| (app, states[s].clone(), ops))
                    .boxed()
            })
            .collect(),
    )
}

proptest! {
    #[test]
    fn op_metrics_are_consistent((app, _state, ops) in arb_session()) {
        let methods = app.registry().methods_of(app.type_name);
        for op in ops {
            prop_assert!(op.depth() >= 1);
            let touched = op.objects_touched();
            let s = op.to_string();
            if op.primitive_count() > 0 {
                prop_assert_eq!(touched.len(), 1, "single-object universe");
                // Display never panics and names a method.
                prop_assert!(methods.iter().any(|m| s.contains(m)), "{}", s);
            } else {
                prop_assert!(touched.is_empty());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn failed_ops_never_change_state((app, state, ops) in arb_session()) {
        // Whatever the outcome, a `false` result must leave the state
        // unchanged (the §3 frame condition, which Atomic/OrElse
        // composition must preserve), and no operation may panic.
        let registry = app.registry();
        let mut store = ObjectStore::new();
        let mut object = registry.construct(app.type_name).unwrap();
        object.restore(&state).unwrap();
        store.insert(OBJ, object);
        for op in ops {
            let before = store.get(OBJ).unwrap().snapshot();
            let ok = execute(&op, &mut store, &registry).unwrap().is_success();
            if !ok {
                prop_assert_eq!(&before, &store.get(OBJ).unwrap().snapshot(), "{}: {}", app.type_name, op);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Semantics: invariants under arbitrary schedules
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Step {
    Local(u32),
    Issue(u32, i64, i64), // machine, delta, cap
    Commit(u32),
}

fn arb_steps(machines: u32) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0..machines).prop_map(Step::Local),
            (0..machines, -2i64..5, 1i64..15).prop_map(|(m, d, cap)| Step::Issue(m, d, cap)),
            (0..machines).prop_map(Step::Commit),
        ],
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn semantics_invariants_hold_under_arbitrary_schedules(steps in arb_steps(3)) {
        let obj = testmodel::counter_object();
        let mut sys = testmodel::counter_system(3, 2);
        for step in steps {
            match step {
                Step::Local(m) => sys.local(MachineId::new(m)).unwrap(),
                Step::Issue(m, d, cap) => {
                    let _ = sys
                        .issue(MachineId::new(m), SharedOp::primitive(obj, "add_capped", args![d, cap]))
                        .unwrap();
                }
                Step::Commit(m) => {
                    let _ = sys.commit(MachineId::new(m)).unwrap();
                }
            }
            check_invariants(&sys).unwrap();
        }
        // Quiescence: drain all queues; guesstimates equal committed state.
        while sys.commit_any().unwrap() {
            check_invariants(&sys).unwrap();
        }
        prop_assert!(sys.quiescent());
        for id in sys.machine_ids() {
            let m = sys.machine(id).unwrap();
            prop_assert_eq!(m.guess.digest(), m.committed.digest());
        }
    }
}

// ---------------------------------------------------------------------
// Runtime: random schedules converge with the ≤3-executions bound
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn runtime_random_schedules_converge(seed in 0u64..5000, users in 2u32..5) {
        use guesstimate::apps::sudoku;
        use guesstimate::net::{LatencyModel, NetConfig, SimTime};
        use guesstimate::runtime::{run_until_cohort, sim_cluster, Checks, Machine, MachineConfig};
        use guesstimate::OpRegistry;

        let mut registry = OpRegistry::new();
        sudoku::register(&mut registry);
        let mut net = sim_cluster(
            users,
            registry,
            MachineConfig::default()
                .with_sync_period(SimTime::from_millis(120))
                .with_stall_timeout(SimTime::from_secs(2))
                .with_checks(Checks::Assert),
            NetConfig::lan(seed).with_latency(LatencyModel::lan_ms(20)),
        );
        prop_assert!(run_until_cohort(&mut net, SimTime::from_secs(15)));
        let board = net
            .actor_mut(MachineId::new(0))
            .unwrap()
            .create_instance(sudoku::example_puzzle());
        net.run_until(net.now() + SimTime::from_secs(1));
        for i in 0..users {
            for k in 0..12u64 {
                let jitter = (seed.wrapping_mul(6364136223846793005).wrapping_add(k * 31 + u64::from(i))) % 211;
                net.schedule_call(
                    net.now() + SimTime::from_millis(130 * k + jitter),
                    MachineId::new(i),
                    move |m: &mut Machine, _| {
                        if let Some(moves) = m.read::<sudoku::Sudoku, _>(board, |s| s.candidate_moves()) {
                            if let Some(&(r, c, v)) = moves.get((k % 4) as usize) {
                                let _ = m.issue(sudoku::ops::update(board, r, c, v));
                            }
                        }
                    },
                );
            }
        }
        net.run_until(net.now() + SimTime::from_secs(10));
        let digests: Vec<u64> = (0..users)
            .map(|i| net.actor(MachineId::new(i)).unwrap().committed_digest())
            .collect();
        prop_assert!(digests.windows(2).all(|w| w[0] == w[1]));
        for i in 0..users {
            let m = net.actor(MachineId::new(i)).unwrap();
            prop_assert_eq!(m.pending_len(), 0);
            prop_assert!(m.stats().max_exec_count <= 3);
            prop_assert!(m.check_guess_invariant());
        }
    }
}

// ---------------------------------------------------------------------
// Semantics: commits of operations on disjoint objects commute
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn commits_on_disjoint_objects_commute(da in 1i64..5, db in 1i64..5) {
        use guesstimate::semantics::SemSystem;
        use guesstimate::core::OpRegistry;
        use std::sync::Arc;

        // Two counters; machine 0 updates object A, machine 1 updates B.
        let obj_a = ObjectId::new(MachineId::new(0), 0);
        let obj_b = ObjectId::new(MachineId::new(0), 1);
        let registry: Arc<OpRegistry> = Arc::new(testmodel::counter_registry());
        let mut initial = ObjectStore::new();
        initial.insert(obj_a, Box::new(testmodel::Counter { n: 0 }));
        initial.insert(obj_b, Box::new(testmodel::Counter { n: 0 }));
        let mk = || {
            let mut sys = SemSystem::new(2, registry.clone(), &initial);
            sys.issue(MachineId::new(0), SharedOp::primitive(obj_a, "add", args![da])).unwrap();
            sys.issue(MachineId::new(1), SharedOp::primitive(obj_b, "add", args![db])).unwrap();
            sys
        };
        // Order 1: commit machine 0 first; order 2: machine 1 first.
        let mut s1 = mk();
        s1.commit(MachineId::new(0)).unwrap();
        s1.commit(MachineId::new(1)).unwrap();
        let mut s2 = mk();
        s2.commit(MachineId::new(1)).unwrap();
        s2.commit(MachineId::new(0)).unwrap();
        prop_assert_eq!(
            s1.machine(MachineId::new(0)).unwrap().committed.digest(),
            s2.machine(MachineId::new(0)).unwrap().committed.digest(),
            "disjoint-object commits commute"
        );
        check_invariants(&s1).unwrap();
        check_invariants(&s2).unwrap();
    }
}

// ---------------------------------------------------------------------
// §5 "Specifications": conformance composes through OrElse and Atomic
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// The paper's §5 lemma: "If operations s and t both conform to a
    /// specification φ, it can be established that the operation
    /// s OrElse t also conforms to φ." Here φ = "the counter does not
    /// decrease", to which every `add_capped(d, cap)` with d ≥ 0 conforms;
    /// the lemma must hold for arbitrary OrElse chains over arbitrary
    /// states.
    #[test]
    fn or_else_chains_preserve_conformance(
        arms in proptest::collection::vec((0i64..6, 0i64..12), 1..5),
        init in 0i64..12,
    ) {
        let registry = testmodel::counter_registry();
        let obj = testmodel::counter_object();
        let chain = SharedOp::first_of(
            arms.iter()
                .map(|&(d, cap)| SharedOp::primitive(obj, "add_capped", args![d, cap]))
                .collect(),
        )
        .expect("non-empty");
        let mut store = ObjectStore::new();
        store.insert(obj, Box::new(testmodel::Counter { n: init }));
        let pre = store.get_as::<testmodel::Counter>(obj).unwrap().n;
        let ok = execute(&chain, &mut store, &registry).unwrap().is_success();
        let post = store.get_as::<testmodel::Counter>(obj).unwrap().n;
        if ok {
            prop_assert!(post >= pre, "φ holds on success");
        } else {
            prop_assert_eq!(post, pre, "frame condition on failure");
        }
    }

    /// The Atomic analog: an all-or-nothing group of conforming operations
    /// either applies all of them (φ holds transitively) or none.
    #[test]
    fn atomic_groups_preserve_conformance(
        parts in proptest::collection::vec((0i64..6, 0i64..12), 1..5),
        init in 0i64..12,
    ) {
        let registry = testmodel::counter_registry();
        let obj = testmodel::counter_object();
        let group = SharedOp::atomic(
            parts
                .iter()
                .map(|&(d, cap)| SharedOp::primitive(obj, "add_capped", args![d, cap]))
                .collect(),
        );
        let mut store = ObjectStore::new();
        store.insert(obj, Box::new(testmodel::Counter { n: init }));
        let pre = store.get_as::<testmodel::Counter>(obj).unwrap().n;
        let ok = execute(&group, &mut store, &registry).unwrap().is_success();
        let post = store.get_as::<testmodel::Counter>(obj).unwrap().n;
        if ok {
            let total: i64 = parts.iter().map(|&(d, _)| d).sum();
            prop_assert_eq!(post, pre + total, "all parts applied");
        } else {
            prop_assert_eq!(post, pre, "no part applied");
        }
    }
}

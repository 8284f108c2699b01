//! # guesstimate-apps
//!
//! The six collaborative applications the GUESSTIMATE paper builds (§6),
//! reimplemented on the Rust runtime:
//!
//! 1. [`sudoku`] — a multi-player collaborative Sudoku puzzle (the paper's
//!    running example and the §7 measurement workload).
//! 2. [`event_planner`] — event planning with capacities, per-user quotas,
//!    blocking sign-in/registration, `Atomic` and `OrElse` patterns.
//! 3. [`message_board`] — a topic/post message board.
//! 4. [`carpool`] — a car-pool system with `GetRide` built as an `OrElse`
//!    chain over vehicles (the §5 specification example: φ_GetRide = "the
//!    user has *some* ride", whichever vehicle ends up providing it).
//! 5. [`auction`] — an auction with reserve prices and bid increments.
//! 6. [`microblog`] — a small twitter-like application.
//!
//! Each module provides the shared-object type (a [`guesstimate_core::GState`]),
//! its operations as one [`guesstimate_core::methods!`] row each (in the
//! `ops` submodule, beside the composite constructors: the rows write the
//! typed constructors, and `register` installs them into an
//! [`guesstimate_core::OpRegistry`]), and — following the paper's §5
//! discipline — *one* specification: a [`guesstimate_spec::SpecSuite`]
//! with a contract for every registered method. The Boogie-analog verifier
//! classifies that suite's assertions, and [`register_all_checked`] runs
//! the same assertions as runtime checks; no contract is written anywhere
//! else.
//!
//! Each module exports those as one [`App`] row, and [`all`] is the one list
//! of applications: `register_all`, the checked registry, the effect
//! analysis and the specification table are loops over it.

#![warn(missing_docs)]

pub mod auction;
pub mod carpool;
pub mod event_planner;
pub mod message_board;
pub mod microblog;
pub mod sudoku;

use guesstimate_core::{execute, MachineId, ObjectId, ObjectStore, OpRegistry, SharedOp, Value};
use guesstimate_spec::{check_suite, ConformanceLog, SpecSuite};

/// One application, as the tools that enumerate the applications see it.
#[derive(Debug, Clone, Copy)]
pub struct App {
    /// The registered type name ([`guesstimate_core::GState::TYPE_NAME`]).
    pub type_name: &'static str,
    /// Installs the type and its operations.
    pub register: fn(&mut OpRegistry),
    /// The specification: a contract per method. The arguments it is
    /// checked over are each method's row's ([`OpRegistry::arg_space`]).
    pub spec_suite: fn() -> SpecSuite,
    /// Representative states (canonical snapshots) — the sampled state space
    /// over which the effect analysis and the verifier enumerate the rows'
    /// argument spaces.
    pub states: fn() -> Vec<Value>,
}

impl App {
    /// A fresh registry holding just this application.
    pub fn registry(&self) -> OpRegistry {
        let mut registry = OpRegistry::new();
        (self.register)(&mut registry);
        registry
    }
}

/// Every application, in the canonical order.
pub fn all() -> [App; 6] {
    [
        sudoku::APP,
        event_planner::APP,
        message_board::APP,
        carpool::APP,
        auction::APP,
        microblog::APP,
    ]
}

/// Registers every application's types and operations.
pub fn register_all(registry: &mut OpRegistry) {
    for app in all() {
        (app.register)(registry);
    }
}

/// Registers every application with its whole specification suite as
/// runtime conformance checks recording into `log`.
pub fn register_all_checked(registry: &mut OpRegistry, log: &ConformanceLog) {
    for app in all() {
        (app.register)(registry);
        check_suite(registry, &(app.spec_suite)(), log);
    }
}

/// The object the representative sessions below run on.
const SCRATCH: ObjectId = ObjectId::new(MachineId::new(0), 0);

/// The states `app` passes through while `seq` executes on a default
/// instance: the initial one, then one after every operation.
fn states_by_ops(app: &App, seq: &[SharedOp]) -> Vec<Value> {
    let registry = app.registry();
    let mut store = ObjectStore::new();
    let object = registry.construct(app.type_name).expect("registered");
    store.insert(SCRATCH, object);
    let snapshot = |store: &ObjectStore| store.get(SCRATCH).expect("present").snapshot();
    let mut out = vec![snapshot(&store)];
    for op in seq {
        let _ = execute(op, &mut store, &registry);
        out.push(snapshot(&store));
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use guesstimate_core::ApplyFn;
    use guesstimate_spec::ViolationKind;

    #[test]
    fn register_all_installs_every_type() {
        let mut r = OpRegistry::new();
        register_all(&mut r);
        assert_eq!(r.types().len(), all().len());
        for app in all() {
            assert!(r.has_type(app.type_name), "{} missing", app.type_name);
        }
    }

    #[test]
    fn every_registered_method_has_a_spec() {
        for app in all() {
            let mut specified: Vec<String> = (app.spec_suite)()
                .methods
                .into_iter()
                .map(|m| m.method)
                .collect();
            specified.sort_unstable();
            assert_eq!(
                app.registry().methods_of(app.type_name),
                specified,
                "{}",
                app.type_name
            );
        }
    }

    #[test]
    fn a_checked_registry_declares_the_same_effects() {
        let (mut plain, mut checked) = (OpRegistry::new(), OpRegistry::new());
        register_all(&mut plain);
        register_all_checked(&mut checked, &ConformanceLog::new());
        assert_eq!(plain.types(), checked.types());
        for app in all() {
            let ty = app.type_name;
            assert_eq!(plain.methods_of(ty), checked.methods_of(ty));
            assert!(checked.methods_without_effects(ty).is_empty(), "{ty}");
            for m in plain.methods_of(ty) {
                let (p, c) = (
                    plain.effect_of(ty, m).expect("declared"),
                    checked.effect_of(ty, m).expect("kept"),
                );
                let space = p.arg_space().expect("a row declares its domains");
                assert_eq!(c.arg_space(), Some(space.clone()), "{ty}::{m}");
                for argv in &space.cases {
                    let argv = guesstimate_core::ArgView::new(argv);
                    assert_eq!(p.footprint(argv), c.footprint(argv), "{ty}::{m}");
                }
            }
        }
    }

    /// Runs `op` through `registry` on an `app` object restored to `state`.
    fn run_on(app: &App, registry: &OpRegistry, state: &Value, op: &SharedOp) {
        let mut object = registry.construct(app.type_name).expect("registered");
        object.restore(state).expect("a representative state");
        let mut store = ObjectStore::new();
        store.insert(SCRATCH, object);
        execute(op, &mut store, registry).expect("registered method");
    }

    /// What the verifier finds no counterexample to, the runtime checks do
    /// not trip over: the rows' argument spaces through the checked
    /// registry, on every representative state. At most 64 argument
    /// vectors a method, evenly spaced.
    #[test]
    fn representative_cases_leave_the_conformance_log_empty() {
        for app in all() {
            let log = ConformanceLog::new();
            let mut registry = app.registry();
            check_suite(&mut registry, &(app.spec_suite)(), &log);
            for state in (app.states)() {
                for m in registry.methods_of(app.type_name) {
                    let cases = registry
                        .arg_space(app.type_name, m)
                        .expect("declared")
                        .cases;
                    for argv in cases.iter().step_by(cases.len().div_ceil(64)) {
                        let op = SharedOp::primitive(SCRATCH, m, argv.clone());
                        run_on(&app, &registry, &state, &op);
                    }
                }
            }
            assert!(log.is_empty(), "{}: {:?}", app.type_name, log.violations());
        }
    }

    /// A seeded bug, as a wrapper around the shipped apply function.
    type Bug = fn(ApplyFn) -> ApplyFn;

    /// Seeded bug: reports success and changes nothing.
    fn claims_success(_inner: ApplyFn) -> ApplyFn {
        Arc::new(|_obj, _argv| Ok(true))
    }

    /// Seeded bug: posts, and rewrites the text of the oldest post.
    fn rewrites_history(inner: ApplyFn) -> ApplyFn {
        Arc::new(move |obj, argv| {
            let ok = inner(obj, argv)?;
            let mut snapshot = obj.snapshot();
            if let Value::Map(blog) = &mut snapshot {
                if let Some(Value::List(posts)) = blog.get_mut("posts") {
                    if let Some(Value::Map(oldest)) = posts.first_mut() {
                        oldest.insert("text".to_owned(), Value::from("edited"));
                    }
                }
            }
            obj.restore(&snapshot).expect("same shape");
            Ok(ok)
        })
    }

    /// The post-conditions that only the deleted per-app `register_checked`
    /// functions carried now run from the suites: a buggy apply that breaks
    /// one, on the app's last representative state, is recorded.
    #[test]
    fn a_seeded_bug_breaks_each_moved_postcondition() {
        let o = SCRATCH;
        let cases: [(App, SharedOp, Bug); 5] = [
            (
                event_planner::APP,
                event_planner::ops::join(o, "ann", "party"),
                claims_success,
            ),
            (
                message_board::APP,
                message_board::ops::create_topic(o, "fresh"),
                claims_success,
            ),
            (
                carpool::APP,
                carpool::ops::board(o, "cid", "v2"),
                claims_success,
            ),
            (
                auction::APP,
                auction::ops::bid(o, "lamp", "bob", 15),
                claims_success,
            ),
            (
                microblog::APP,
                microblog::ops::post(o, "ann", "y"),
                rewrites_history,
            ),
        ];
        for (app, op, bug) in cases {
            let SharedOp::Primitive { method, .. } = &op else {
                unreachable!("primitive ops only")
            };
            let log = ConformanceLog::new();
            let mut registry = app.registry();
            registry
                .wrap_method(app.type_name, method, bug)
                .expect("registered");
            check_suite(&mut registry, &(app.spec_suite)(), &log);
            let state = (app.states)().pop().expect("at least the initial state");
            run_on(&app, &registry, &state, &op);
            assert!(
                log.violations().iter().any(|v| v.type_name == app.type_name
                    && v.method == *method
                    && v.kind == ViolationKind::Postcondition),
                "{}::{method}: {:?}",
                app.type_name,
                log.violations()
            );
        }
    }
}

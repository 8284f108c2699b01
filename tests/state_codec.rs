//! Every shared-object type's snapshot decoder, in one table: the six
//! applications' (Sudoku's own decoder among them) and the model checker's
//! three fixtures. Over each type's representative states, and for the
//! applications every state one operation of their specification suites
//! away:
//!
//! * a round trip is the identity;
//! * removing a record field is an `Err` (removing a collection entry may
//!   decode, to exactly the snapshot given);
//! * a node swapped to another scalar kind is an `Err`, or decodes to a
//!   state whose re-snapshot restores to itself;
//! * an unsigned count out of range is an `Err`;
//! * nothing panics.

use std::collections::BTreeSet;

use guesstimate_apps::{all, carpool, event_planner, message_board, microblog, App};
use guesstimate_core::{
    execute, GState, MachineId, ObjectId, ObjectStore, RestoreError, SharedObject, SharedOp, Value,
};
use guesstimate_mc::multigroup::XPair;
use guesstimate_mc::scenario::{miskeyed, sneaky};

const OBJ: ObjectId = ObjectId::new(MachineId::new(0), 0);

/// One type under test: how to make a fresh instance, and its states.
struct Subject {
    name: &'static str,
    fresh: Box<dyn Fn() -> Box<dyn SharedObject>>,
    states: Vec<Value>,
}

impl Subject {
    fn restore(&self, v: &Value) -> Result<Box<dyn SharedObject>, RestoreError> {
        let mut obj = (self.fresh)();
        obj.restore(v)?;
        Ok(obj)
    }
}

fn app_subject(app: App) -> Subject {
    let registry = app.registry();
    let fresh = move || registry.construct(app.type_name).expect("registered");
    let representative = (app.states)();
    // One step further: every method of the suite, on at most four
    // argument vectors each, from every representative state.
    let mut states: BTreeSet<Value> = representative.iter().cloned().collect();
    let registry = app.registry();
    for s in &representative {
        for m in &(app.spec_suite)().methods {
            let stride = m.arg_space.len().div_ceil(4);
            for argv in m.arg_space.iter().step_by(stride) {
                let mut store = ObjectStore::new();
                let mut obj = registry.construct(app.type_name).expect("registered");
                obj.restore(s).expect("a representative state");
                store.insert(OBJ, obj);
                let op = SharedOp::primitive(OBJ, m.method.clone(), argv.clone());
                execute(&op, &mut store, &registry).expect("registered method");
                states.insert(store.get(OBJ).expect("present").snapshot());
            }
        }
    }
    Subject {
        name: app.type_name,
        fresh: Box::new(fresh),
        states: states.into_iter().collect(),
    }
}

fn fixture<T: GState>(states: Vec<T>) -> Subject {
    Subject {
        name: T::TYPE_NAME,
        fresh: Box::new(|| Box::new(T::default())),
        states: states.iter().map(GState::snapshot).collect(),
    }
}

fn subjects() -> Vec<Subject> {
    let mut out: Vec<Subject> = all().into_iter().map(app_subject).collect();
    out.push(fixture(vec![
        sneaky::Mirror::default(),
        sneaky::Mirror {
            m: [("src".to_owned(), 1), ("dst".to_owned(), -4)].into(),
        },
    ]));
    out.push(fixture(vec![miskeyed::Board {
        topics: [("news".to_owned(), 2)].into(),
    }]));
    out.push(fixture(vec![XPair { a: 1, b: -2 }]));
    out
}

/// Every node with its path, the root (`[]`) included.
fn nodes(v: &Value) -> Vec<(Vec<String>, &Value)> {
    fn go<'v>(v: &'v Value, at: &mut Vec<String>, out: &mut Vec<(Vec<String>, &'v Value)>) {
        out.push((at.clone(), v));
        let children: Vec<(String, &Value)> = match v {
            Value::Map(m) => m.iter().map(|(k, x)| (k.clone(), x)).collect(),
            Value::List(xs) => xs
                .iter()
                .enumerate()
                .map(|(i, x)| (i.to_string(), x))
                .collect(),
            _ => Vec::new(),
        };
        for (k, x) in children {
            at.push(k);
            go(x, at, out);
            at.pop();
        }
    }
    let mut out = Vec::new();
    go(v, &mut Vec::new(), &mut out);
    out
}

fn node_mut<'v>(v: &'v mut Value, path: &[String]) -> &'v mut Value {
    path.iter().fold(v, |cur, seg| match cur {
        Value::Map(m) => m.get_mut(seg).expect("path from `nodes`"),
        Value::List(xs) => &mut xs[seg.parse::<usize>().expect("list index")],
        _ => unreachable!("a scalar has no children"),
    })
}

/// `v` with the node at `path` replaced by `new`.
fn replaced(v: &Value, path: &[String], new: Value) -> Value {
    let mut out = v.clone();
    *node_mut(&mut out, path) = new;
    out
}

/// `v` with the map entry at `path` removed, if it is one.
fn removed(v: &Value, path: &[String]) -> Option<Value> {
    let (key, parent) = path.split_last()?;
    let mut out = v.clone();
    match node_mut(&mut out, parent) {
        Value::Map(m) => m.remove(key).map(|_| out),
        _ => None,
    }
}

fn scalars() -> [Value; 5] {
    [
        Value::Unit,
        Value::Bool(true),
        Value::Int(-1),
        Value::Float(0.5),
        Value::from("~"),
    ]
}

#[test]
fn every_decoder_round_trips_and_fails_closed() {
    for subject in subjects() {
        let name = subject.name;
        assert!(!subject.states.is_empty(), "{name}: no states");
        for state in &subject.states {
            let obj = subject.restore(state).expect("a state restores");
            assert_eq!(&obj.snapshot(), state, "{name}: round trip");
            for (path, node) in nodes(state) {
                if let Some(v) = removed(state, &path) {
                    if let Ok(obj) = subject.restore(&v) {
                        assert_eq!(
                            obj.snapshot(),
                            v,
                            "{name}: without {path:?}, a field was defaulted"
                        );
                    }
                }
                for kind in scalars() {
                    if std::mem::discriminant(&kind) == std::mem::discriminant(node) {
                        continue;
                    }
                    let Ok(obj) = subject.restore(&replaced(state, &path, kind.clone())) else {
                        continue;
                    };
                    let again = obj.snapshot();
                    let obj = subject.restore(&again).unwrap_or_else(|e| {
                        panic!("{name}: {path:?} as {kind} decoded, but its re-snapshot not: {e}")
                    });
                    assert_eq!(obj.snapshot(), again, "{name}: {path:?} as {kind}");
                }
            }
        }
    }
}

fn session(app: App, ops: &[SharedOp]) -> Value {
    let registry = app.registry();
    let mut store = ObjectStore::new();
    store.insert(OBJ, registry.construct(app.type_name).expect("registered"));
    for op in ops {
        assert_eq!(
            execute(op, &mut store, &registry).map(|o| o.as_bool()),
            Ok(true)
        );
    }
    store.get(OBJ).expect("present").snapshot()
}

#[test]
fn out_of_range_counts_fail_closed() {
    let o = OBJ;
    let cases = [
        (
            carpool::APP,
            vec![carpool::ops::add_vehicle(o, "van", 2, "gig")],
            vec!["van", "seats"],
        ),
        (
            event_planner::APP,
            vec![event_planner::ops::create_event(o, "party", 2)],
            vec!["quota"],
        ),
        (
            event_planner::APP,
            vec![event_planner::ops::create_event(o, "party", 2)],
            vec!["events", "party", "capacity"],
        ),
        (
            message_board::APP,
            vec![message_board::ops::like(o, "general")],
            vec!["likes", "general"],
        ),
        (
            microblog::APP,
            vec![
                microblog::ops::register(o, "ann"),
                microblog::ops::post(o, "ann", "hi"),
            ],
            vec!["posts", "0", "seq"],
        ),
        (
            microblog::APP,
            vec![microblog::ops::heart(o, "ann")],
            vec!["hearts", "ann"],
        ),
    ];
    for (app, ops, path) in cases {
        let state = session(app, &ops);
        let path: Vec<String> = path.into_iter().map(str::to_owned).collect();
        let subject = app_subject(app);
        let at = |n: i64| subject.restore(&replaced(&state, &path, Value::from(n)));
        assert!(at(7).is_ok(), "{}: {path:?} is a count", app.type_name);
        assert!(at(-1).is_err(), "{}: {path:?} at -1", app.type_name);
        if path.last().map(String::as_str) == Some("capacity") {
            assert!(at(1 << 32).is_err(), "{}: {path:?} at 2^32", app.type_name);
        }
    }
}

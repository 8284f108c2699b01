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
//!
//! The in-place copy of every application's states is exact (its
//! snapshot, its independence from the source, the store resync built on
//! it).
//!
//! The operations' argument decoders, likewise in one table: every
//! registered method is listed by its typed constructor, whose arguments
//! decode back to its inputs, and every list its parameter types refuse
//! (from its argument space, or that space cut short, with kinds swapped
//! or with integers at -1, 2^32 and `i64::MAX`) fails the operation,
//! leaves the state as it was and has an empty footprint.

use std::collections::BTreeSet;

use guesstimate_apps::carpool::CarPool;
use guesstimate_apps::event_planner::EventPlanner;
use guesstimate_apps::{all, carpool, event_planner, message_board, microblog, App};
use guesstimate_core::codec::{Arg, Args};
use guesstimate_core::{
    args, execute, ArgView, Footprint, GState, MachineId, ObjectId, ObjectStore, OpRegistry,
    RestoreError, SharedObject, SharedOp, Value,
};
use guesstimate_mc::multigroup::{self, XPair};
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
    // One step further: every method, on at most four argument vectors of
    // its row's space each, from every representative state.
    let mut states: BTreeSet<Value> = representative.iter().cloned().collect();
    let registry = app.registry();
    for s in &representative {
        for (method, cases) in arg_spaces(&registry, app.type_name) {
            for argv in cases.iter().step_by(cases.len().div_ceil(4)) {
                let mut store = ObjectStore::new();
                let mut obj = registry.construct(app.type_name).expect("registered");
                obj.restore(s).expect("a representative state");
                store.insert(OBJ, obj);
                let op = SharedOp::primitive(OBJ, method, argv.clone());
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

/// The in-place copy each round's `sc → sg` resync runs
/// (`GState::assign_from`, through `SharedObject::copy_from`), over pairs
/// of every application's states — key sets equal, grown, shrunk and
/// disjoint among them: the copy snapshots as its source, stays as it is
/// when the source then runs every method of the suite, and the store's
/// delta resync digests as a whole-store copy from scratch.
#[test]
fn the_in_place_copy_is_exact() {
    for app in all() {
        let subject = app_subject(app);
        let name = subject.name;
        let registry = app.registry();
        let mutations: Vec<SharedOp> = arg_spaces(&registry, app.type_name)
            .into_iter()
            .filter_map(|(method, cases)| {
                let argv = cases.into_iter().next()?;
                Some(SharedOp::primitive(OBJ, method, argv))
            })
            .collect();
        let stride = subject.states.len().div_ceil(24);
        let states: Vec<&Value> = subject.states.iter().step_by(stride).collect();
        for (a, b) in states
            .iter()
            .flat_map(|a| states.iter().map(move |b| (a, b)))
        {
            let mut copy = subject.restore(a).expect("a state restores");
            let src = subject.restore(b).expect("a state restores");
            copy.copy_from(&*src).expect("same type");
            assert_eq!(&copy.snapshot(), *b, "{name}: copy");

            let mut source = ObjectStore::new();
            source.insert(OBJ, src);
            for op in &mutations {
                execute(op, &mut source, &registry).expect("registered method");
            }
            assert_eq!(&copy.snapshot(), *b, "{name}: the source's writes leaked");

            let mut sg = ObjectStore::new();
            sg.insert(OBJ, subject.restore(a).expect("a state restores"));
            let mut sc = ObjectStore::new();
            sc.insert(OBJ, subject.restore(b).expect("a state restores"));
            sg.sync_from(&mut sc);
            let mut fresh = ObjectStore::new();
            fresh.copy_from(&sc);
            assert_eq!(sg.digest(), fresh.digest(), "{name}: resync");
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

/// The state with the node at `path` set to `n`, restored as `T`.
fn restored_with<T: GState>(state: &Value, path: &[&str], n: i64) -> T {
    let path: Vec<String> = path.iter().map(|s| (*s).to_owned()).collect();
    let mut t = T::default();
    t.restore(&replaced(state, &path, Value::from(n)))
        .expect("an over-full record decodes");
    t
}

#[test]
fn over_full_records_read_no_vacancy() {
    let o = OBJ;
    let pool = session(
        carpool::APP,
        &[
            carpool::ops::add_vehicle(o, "van", 2, "gig"),
            carpool::ops::board(o, "ann", "van"),
            carpool::ops::board(o, "bob", "van"),
        ],
    );
    let pool: CarPool = restored_with(&pool, &["van", "seats"], 1);
    assert_eq!(pool.free_seats("van"), Some(0));

    let planner = session(
        event_planner::APP,
        &[
            event_planner::ops::register_user(o, "ann", "pw"),
            event_planner::ops::register_user(o, "bob", "pw"),
            event_planner::ops::create_event(o, "party", 2),
            event_planner::ops::join(o, "ann", "party"),
            event_planner::ops::join(o, "bob", "party"),
        ],
    );
    let planner: EventPlanner = restored_with(&planner, &["events", "party", "capacity"], 1);
    assert_eq!(planner.vacancies("party"), Some(0));
}

/// Runs `args` as `method` on `type_name` restored to `state`, and
/// asserts that it fails closed: the operation fails, the state is
/// unchanged and the declared footprint is empty.
fn assert_fails_closed(
    registry: &OpRegistry,
    type_name: &str,
    state: &Value,
    method: &str,
    args: &[Value],
) {
    let mut obj = registry.construct(type_name).expect("registered");
    obj.restore(state).expect("a representative state");
    let mut store = ObjectStore::new();
    store.insert(OBJ, obj);
    let op = SharedOp::primitive(OBJ, method, args.to_vec());
    let outcome = execute(&op, &mut store, registry).expect("registered method");
    assert!(
        !outcome.is_success(),
        "{type_name}::{method}{args:?} succeeded"
    );
    assert_eq!(
        &store.get(OBJ).expect("present").snapshot(),
        state,
        "{type_name}::{method}{args:?} changed the state"
    );
    let effect = registry.effect_of(type_name, method).expect("declared");
    assert_eq!(
        effect.footprint(ArgView::new(args)),
        Footprint::new(),
        "{type_name}::{method}{args:?} has a footprint"
    );
}

#[test]
fn out_of_range_seats_and_capacity_fail_closed() {
    let o = OBJ;
    let cases = [
        (carpool::APP, "add_vehicle", args!["van", 1i64 << 32, "gig"]),
        (
            event_planner::APP,
            "create_event",
            args!["party", 1i64 << 32],
        ),
    ];
    for (app, method, args) in cases {
        let state = session(app, &[]);
        assert_fails_closed(&app.registry(), app.type_name, &state, method, &args);
    }
    // In range, the same lists succeed.
    session(
        carpool::APP,
        &[carpool::ops::add_vehicle(o, "van", u32::MAX, "gig")],
    );
    session(
        event_planner::APP,
        &[event_planner::ops::create_event(o, "party", u32::MAX)],
    );
}

/// An argument type as this table sees it: which values it admits,
/// decided from the value's kind and the type's range, independently of
/// the decoder under test.
trait Param {
    fn admits(v: &Value) -> bool;
}

impl Param for &str {
    fn admits(v: &Value) -> bool {
        matches!(v, Value::Str(_))
    }
}

impl Param for i64 {
    fn admits(v: &Value) -> bool {
        matches!(v, Value::Int(_))
    }
}

impl Param for u8 {
    fn admits(v: &Value) -> bool {
        matches!(v, Value::Int(n) if (0..=i64::from(u8::MAX)).contains(n))
    }
}

impl Param for u32 {
    fn admits(v: &Value) -> bool {
        matches!(v, Value::Int(n) if (0..=i64::from(u32::MAX)).contains(n))
    }
}

/// One method as the table declares it: its name, its arity, and which
/// argument lists its parameter types admit.
struct Row {
    method: String,
    arity: usize,
    admits: fn(&[Value]) -> bool,
}

/// `rowN(constructor, inputs..)`: the row of the method the typed
/// constructor builds, after checking that the constructor's arguments
/// are admitted and decode back to `inputs`.
macro_rules! row_fns {
    ($($row:ident($($t:ident $v:ident),*);)+) => {$(
        fn $row<$($t),*>(f: fn(ObjectId $(, $t)*) -> SharedOp $(, $v: $t)*) -> Row
        where
            $($t: Arg<'static> + Param + PartialEq + std::fmt::Debug + Copy,)*
        {
            fn admits<$($t: Param),*>(args: &[Value]) -> bool {
                #[allow(unused_mut, unused_variables)]
                let mut it = args.iter();
                $(it.next().is_some_and($t::admits) &&)* true
            }
            let SharedOp::Primitive { method, args, .. } = f(OBJ $(, $v)*) else {
                panic!("a row builds a primitive");
            };
            let args: &'static [Value] = args.leak();
            assert!(admits::<$($t),*>(args), "{method}{args:?}: admitted");
            assert_eq!(<($($t,)*)>::decode(args), Some(($($v,)*)), "{method}: decodes back");
            Row {
                method,
                arity: args.len(),
                admits: admits::<$($t),*>,
            }
        }
    )+};
}
row_fns! {
    row0();
    row1(A a);
    row2(A a, B b);
    row3(A a, B b, C c);
    row4(A a, B b, C c, D d);
}

/// Every row of `type_name`, by its constructor on sample inputs.
fn rows(type_name: &str) -> Vec<Row> {
    use guesstimate_apps::{auction::ops as au, carpool::ops as cp, event_planner::ops as ep};
    use guesstimate_apps::{message_board::ops as mb, microblog::ops as mi, sudoku::ops as su};
    match type_name {
        "Sudoku" => vec![row3(su::update, 1, 9, 4), row2(su::clear, 9, 1)],
        "EventPlanner" => vec![
            row2(ep::register_user, "ann", "pw"),
            row2(ep::sign_in, "ann", "pw"),
            row1(ep::sign_out, "ann"),
            row2(ep::create_event, "party", u32::MAX),
            row2(ep::join, "ann", "party"),
            row2(ep::leave, "ann", "party"),
        ],
        "MessageBoard" => vec![
            row1(mb::create_topic, "news"),
            row3(mb::post, "news", "ann", "hi"),
            row1(mb::like, "k"),
        ],
        "CarPool" => vec![
            row3(cp::add_vehicle, "van", u32::MAX, "gig"),
            row2(cp::board, "ann", "van"),
            row2(cp::disembark, "ann", "van"),
        ],
        "Auction" => vec![
            row4(au::list_item, "lamp", "ann", -1, i64::MAX),
            row3(au::bid, "lamp", "bob", i64::MIN),
            row2(au::close, "lamp", "ann"),
        ],
        "MicroBlog" => vec![
            row1(mi::register, "ann"),
            row2(mi::post, "ann", "hi"),
            row2(mi::follow, "ann", "bob"),
            row2(mi::unfollow, "ann", "bob"),
            row1(mi::heart, "ann"),
        ],
        "Mirror" => vec![row2(sneaky::bump, "src", -4), row0(sneaky::mirror)],
        "KeyedBoard" => vec![row2(miskeyed::post, "news", "ann")],
        "XPair" => vec![
            row1(multigroup::bump_a, 2),
            row1(multigroup::bump_b, -3),
            row1(multigroup::mix, 1),
        ],
        other => panic!("no rows for {other}"),
    }
}

/// The ill-typed neighbours of `args`: cut short by one, each argument
/// swapped for another kind of value, and each integer at -1, 2^32 and
/// `i64::MAX` (those its parameter type cannot hold).
fn bad_lists(row: &Row, args: &[Value]) -> Vec<Vec<Value>> {
    let args = &args[..row.arity.min(args.len())];
    let mut out = Vec::new();
    if let Some((_, short)) = args.split_last() {
        out.push(short.to_vec());
    }
    let swap = |i: usize, v: Value| {
        let mut a = args.to_vec();
        a[i] = v;
        a
    };
    for (i, arg) in args.iter().enumerate() {
        for kind in scalars() {
            if std::mem::discriminant(&kind) != std::mem::discriminant(arg) {
                out.push(swap(i, kind));
            }
        }
        if let Value::Int(_) = arg {
            for n in [-1, 1 << 32, i64::MAX] {
                out.push(swap(i, Value::Int(n)));
            }
        }
    }
    out.retain(|b| !(row.admits)(b));
    out
}

/// Every method of `type_name` with its row's argument lists.
fn arg_spaces(registry: &OpRegistry, type_name: &str) -> Vec<(&'static str, Vec<Vec<Value>>)> {
    registry
        .methods_of(type_name)
        .into_iter()
        .map(|m| {
            let space = registry.arg_space(type_name, m);
            (m, space.expect("a row declares its domains").cases)
        })
        .collect()
}

/// One type's methods: its registry and the state the lists run on.
struct Methods {
    registry: OpRegistry,
    type_name: &'static str,
    state: Value,
}

fn method_tables() -> Vec<Methods> {
    let mut out: Vec<Methods> = all()
        .into_iter()
        .map(|app| Methods {
            registry: app.registry(),
            type_name: app.type_name,
            state: (app.states)().pop().expect("at least the initial state"),
        })
        .collect();
    let mut fixture = |register: fn(&mut OpRegistry), type_name, state: Value| {
        let mut registry = OpRegistry::new();
        register(&mut registry);
        out.push(Methods {
            registry,
            type_name,
            state,
        });
    };
    fixture(
        sneaky::register_methods,
        sneaky::Mirror::TYPE_NAME,
        GState::snapshot(&sneaky::Mirror {
            m: [("src".to_owned(), 1), ("dst".to_owned(), -4)].into(),
        }),
    );
    fixture(
        miskeyed::register_methods,
        miskeyed::Board::TYPE_NAME,
        GState::snapshot(&miskeyed::Board {
            topics: [("news".to_owned(), 2)].into(),
        }),
    );
    fixture(
        multigroup::register_methods,
        XPair::TYPE_NAME,
        GState::snapshot(&XPair { a: 1, b: -2 }),
    );
    out
}

#[test]
fn every_method_decodes_its_constructor_and_fails_closed() {
    for t in method_tables() {
        let name = t.type_name;
        let rows = rows(name);
        let mut declared: Vec<&str> = rows.iter().map(|r| r.method.as_str()).collect();
        declared.sort_unstable();
        assert_eq!(t.registry.methods_of(name), declared, "{name}: rows");
        for (method, space) in &arg_spaces(&t.registry, name) {
            let row = rows.iter().find(|r| r.method == *method).expect("a row");
            assert!(!space.is_empty(), "{name}::{method}: no arguments");
            let mut bad = BTreeSet::new();
            for args in space {
                if !(row.admits)(args) {
                    bad.insert(args.clone());
                }
                bad.extend(bad_lists(row, args));
            }
            for args in &bad {
                assert_fails_closed(&t.registry, name, &t.state, method, args);
            }
        }
    }
}

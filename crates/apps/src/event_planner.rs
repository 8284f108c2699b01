//! The event-planning application (§5/§6 of the paper).
//!
//! Users register and sign in (both implemented as *blocking* operations in
//! the paper, Figure 4 — see `guesstimate_runtime::issue_blocking`), create
//! events with capacities, and join/leave events subject to two
//! preconditions: the event must have a vacancy, and the user must be under
//! the per-user quota. The paper uses this app to motivate:
//!
//! * **OrElse** — "Users can choose to join one among many events";
//! * **Atomic** — "a user chooses to go to a party only if she also gets a
//!   ride", and the swap pattern "she might want to leave some other event
//!   (eventb) and join eventa ... she wants to retain eventb unless she can
//!   join eventa for sure" ([`ops::swap_events`]).

use std::collections::{BTreeMap, BTreeSet};

use guesstimate_core::codec::Args;
use guesstimate_core::{
    args, canonical, Canonical, Footprint, GState, ObjectId, OpRegistry, SharedOp, Value,
};
use guesstimate_spec::{MethodContract, MethodSpec, SpecSuite};

/// A registered user.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct UserRec {
    password: String,
    signed_in: bool,
}

/// An event with bounded capacity.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct EventRec {
    capacity: u32,
    attendees: BTreeSet<String>,
}

/// The shared event-planner state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventPlanner {
    users: BTreeMap<String, UserRec>,
    events: BTreeMap<String, EventRec>,
    quota: u32,
}

impl Default for EventPlanner {
    fn default() -> Self {
        EventPlanner {
            users: BTreeMap::new(),
            events: BTreeMap::new(),
            quota: 3,
        }
    }
}

impl EventPlanner {
    /// A fresh planner with the given per-user event quota.
    pub fn with_quota(quota: u32) -> Self {
        EventPlanner {
            quota,
            ..EventPlanner::default()
        }
    }

    /// The per-user quota.
    pub fn quota(&self) -> u32 {
        self.quota
    }

    /// True if `user` is registered.
    pub fn has_user(&self, user: &str) -> bool {
        self.users.contains_key(user)
    }

    /// True if `user` is currently signed in.
    pub fn is_signed_in(&self, user: &str) -> bool {
        self.users.get(user).is_some_and(|u| u.signed_in)
    }

    /// The capacity of `event`, if it exists.
    pub fn capacity(&self, event: &str) -> Option<u32> {
        self.events.get(event).map(|e| e.capacity)
    }

    /// Remaining vacancies of `event`, if it exists (0 on an over-full
    /// record).
    pub fn vacancies(&self, event: &str) -> Option<u32> {
        self.events.get(event).map(|e| {
            let attendees = u32::try_from(e.attendees.len()).unwrap_or(u32::MAX);
            e.capacity.saturating_sub(attendees)
        })
    }

    /// True if `user` attends `event`.
    pub fn is_attending(&self, user: &str, event: &str) -> bool {
        self.events
            .get(event)
            .is_some_and(|e| e.attendees.contains(user))
    }

    /// Events `user` has joined, in order.
    pub fn joined_events(&self, user: &str) -> Vec<String> {
        self.events
            .iter()
            .filter(|(_, e)| e.attendees.contains(user))
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// All event names.
    pub fn event_names(&self) -> Vec<String> {
        self.events.keys().cloned().collect()
    }

    fn joined_count(&self, user: &str) -> u32 {
        self.events
            .values()
            .filter(|e| e.attendees.contains(user))
            .count() as u32
    }

    // --- shared operations (plain Rust methods) ---

    fn register_user(&mut self, name: &str, password: &str) -> bool {
        if name.is_empty() || self.users.contains_key(name) {
            return false;
        }
        self.users.insert(
            name.to_owned(),
            UserRec {
                password: password.to_owned(),
                signed_in: false,
            },
        );
        true
    }

    fn sign_in(&mut self, name: &str, password: &str) -> bool {
        match self.users.get_mut(name) {
            Some(u) if u.password == password && !u.signed_in => {
                u.signed_in = true;
                true
            }
            _ => false,
        }
    }

    fn sign_out(&mut self, name: &str) -> bool {
        match self.users.get_mut(name) {
            Some(u) if u.signed_in => {
                u.signed_in = false;
                true
            }
            _ => false,
        }
    }

    fn create_event(&mut self, name: &str, capacity: u32) -> bool {
        if name.is_empty() || capacity == 0 || self.events.contains_key(name) {
            return false;
        }
        self.events.insert(
            name.to_owned(),
            EventRec {
                capacity,
                attendees: BTreeSet::new(),
            },
        );
        true
    }

    fn join(&mut self, user: &str, event: &str) -> bool {
        if !self.users.contains_key(user) {
            return false;
        }
        if self.joined_count(user) >= self.quota {
            return false;
        }
        match self.events.get_mut(event) {
            Some(e) if (e.attendees.len() as u32) < e.capacity => {
                e.attendees.insert(user.to_owned())
            }
            _ => false,
        }
    }

    fn leave(&mut self, user: &str, event: &str) -> bool {
        self.events
            .get_mut(event)
            .is_some_and(|e| e.attendees.remove(user))
    }
}

canonical!(struct UserRec { password, signed_in });
canonical!(struct EventRec { capacity, attendees });
canonical!(impl GState for EventPlanner as "EventPlanner" { quota, users, events });

/// Typed constructors for the shared operations and the paper's composite
/// design patterns.
pub mod ops {
    use super::*;

    guesstimate_core::methods! {
        EventPlanner;
        /// Register a new user (used with blocking issue, Figure 4).
        fn register_user(name: &str, password: &str) => user_footprint(name);
        /// Sign a user in (blocking in the paper: a user may be signed in on
        /// only one machine at a time).
        fn sign_in(name: &str, password: &str) => user_footprint(name);
        /// Sign a user out.
        fn sign_out(name: &str) => user_footprint(name);
        /// Create an event with a capacity.
        fn create_event(name: &str, capacity: u32) => create_event_footprint(name, capacity);
        /// Join an event.
        fn join(user: &str, event: &str) => join_footprint(user, event);
        /// Leave an event.
        fn leave(user: &str, event: &str) => leave_footprint(event);
    }

    /// §5 OrElse pattern: join the first joinable event of `events`.
    ///
    /// Returns `None` for an empty list.
    pub fn join_one_of(obj: ObjectId, user: &str, events: &[&str]) -> Option<SharedOp> {
        SharedOp::first_of(events.iter().map(|e| join(obj, user, e)).collect())
    }

    /// §5 Atomic pattern: sign up for both events or neither.
    pub fn join_both(obj: ObjectId, user: &str, a: &str, b: &str) -> SharedOp {
        SharedOp::atomic(vec![join(obj, user, a), join(obj, user, b)])
    }

    /// §6 Atomic value-dependency pattern: leave `give_up` and join
    /// `important`, keeping `give_up` unless the join is sure to succeed.
    pub fn swap_events(obj: ObjectId, user: &str, give_up: &str, important: &str) -> SharedOp {
        SharedOp::atomic(vec![leave(obj, user, give_up), join(obj, user, important)])
    }
}

/// The footprint of a method that touches one user record.
fn user_footprint(name: &str) -> Footprint {
    if name.is_empty() {
        return Footprint::new();
    }
    let key = format!("users/{name}");
    Footprint::new().reads([key.clone()]).writes([key])
}

fn create_event_footprint(name: &str, capacity: u32) -> Footprint {
    if name.is_empty() || capacity == 0 {
        return Footprint::new();
    }
    let key = format!("events/{name}");
    Footprint::new().reads([key.clone()]).writes([key])
}

fn join_footprint(user: &str, event: &str) -> Footprint {
    // The quota check scans the attendee sets of *every* event, so the
    // read set covers the whole `events` subtree.
    Footprint::new()
        .reads([format!("users/{user}"), "events".to_owned()])
        .writes([format!("events/{event}/attendees")])
}

fn leave_footprint(event: &str) -> Footprint {
    Footprint::new()
        .reads([format!("events/{event}")])
        .writes([format!("events/{event}/attendees")])
}

/// Registers the event-planner type and operations.
pub fn register(registry: &mut OpRegistry) {
    ops::register_methods(registry);
}

fn invariant(v: &Value) -> bool {
    let Ok(p) = EventPlanner::from_value(v) else {
        return false;
    };
    // No event over capacity; every attendee registered, none over quota.
    let mut per_user: BTreeMap<&str, u32> = BTreeMap::new();
    p.events.values().all(|e| {
        u32::try_from(e.attendees.len()).is_ok_and(|n| n <= e.capacity)
            && e.attendees.iter().all(|a| {
                *per_user.entry(a).or_insert(0) += 1;
                p.users.contains_key(a)
            })
    }) && per_user.values().all(|&n| n <= p.quota)
}

/// The specification suite for the verifier's table.
///
/// Beyond the universal frame/invariant assertions, the suite carries
/// domain assertions in the §5 style: membership effects, per-event
/// framing, and state-independent argument guards (small-scope abstracted:
/// one representative non-empty string stands for all).
pub fn spec_suite() -> SpecSuite {
    use guesstimate_spec::ExecCase;

    let users = ["ann", "bob", "ghost", ""];
    let events = ["party", "dinner", "nothing", ""];
    let mut two_arg = Vec::new();
    for u in users {
        for e in events {
            two_arg.push(args![u, e]);
        }
    }

    // Shared helpers over snapshots.
    fn event_of<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
        v.field("events")
            .and_then(Value::as_map)
            .and_then(|m| m.get(name))
    }
    fn attends(v: &Value, user: &str, event: &str) -> bool {
        event_of(v, event)
            .and_then(|e| e.field("attendees"))
            .and_then(Value::as_list)
            .is_some_and(|l| l.iter().any(|a| a.as_str() == Some(user)))
    }
    fn signed_in(v: &Value, user: &str) -> Option<bool> {
        v.field("users")
            .and_then(Value::as_map)
            .and_then(|m| m.get(user))
            .and_then(|r| r.field("signed_in"))
            .and_then(Value::as_bool)
    }
    fn other_events_unchanged(c: &ExecCase) -> bool {
        let Some((_, target)) = <(&str, &str)>::decode(&c.args) else {
            return false;
        };
        let (Some(ep), Some(eq)) = (
            c.pre.field("events").and_then(Value::as_map),
            c.post.field("events").and_then(Value::as_map),
        ) else {
            return false;
        };
        ep.len() == eq.len() && ep.iter().all(|(k, v)| k == target || eq.get(k) == Some(v))
    }

    let join = MethodSpec::new(
        "join",
        MethodContract::new()
            .with_post(|_pre, post, a| {
                <(&str, &str)>::decode(a).is_some_and(|(u, e)| attends(post, u, e))
            })
            .with_assertion("join-frames-other-events", other_events_unchanged)
            .with_assertion("join-never-touches-users", |c| {
                c.pre.field("users") == c.post.field("users")
            })
            .with_assertion("join-adds-at-most-one", |c| {
                let count = |v: &Value| -> usize {
                    v.field("events")
                        .and_then(Value::as_map)
                        .map(|m| {
                            m.values()
                                .filter_map(|e| e.field("attendees").and_then(Value::as_list))
                                .map(<[Value]>::len)
                                .sum()
                        })
                        .unwrap_or(0)
                };
                count(&c.post) <= count(&c.pre) + 1
            }),
    )
    .with_args(two_arg.clone(), false);

    let leave = MethodSpec::new(
        "leave",
        MethodContract::new()
            .with_post(|_pre, post, a| {
                <(&str, &str)>::decode(a).is_some_and(|(u, e)| !attends(post, u, e))
            })
            .with_assertion("leave-frames-other-events", other_events_unchanged)
            .with_assertion("leave-never-touches-users", |c| {
                c.pre.field("users") == c.post.field("users")
            }),
    )
    .with_args(two_arg.clone(), false);

    let sign_in = MethodSpec::new(
        "sign_in",
        MethodContract::new()
            .with_post(|_pre, post, a| {
                <&str>::decode(a).is_some_and(|u| signed_in(post, u) == Some(true))
            })
            .with_assertion("sign-in-never-changes-passwords", |c| {
                let pw = |v: &Value| -> Vec<Value> {
                    v.field("users")
                        .and_then(Value::as_map)
                        .map(|m| {
                            m.values()
                                .filter_map(|u| u.field("password").cloned())
                                .collect()
                        })
                        .unwrap_or_default()
                };
                pw(&c.pre) == pw(&c.post)
            })
            .with_assertion("sign-in-never-touches-events", |c| {
                c.pre.field("events") == c.post.field("events")
            }),
    )
    .with_args(
        vec![
            args!["ann", "pw"],
            args!["ann", "wrong"],
            args!["ghost", "pw"],
        ],
        false,
    );

    let sign_out = MethodSpec::new(
        "sign_out",
        MethodContract::new()
            .with_post(|_pre, post, a| {
                <&str>::decode(a).is_some_and(|u| signed_in(post, u) == Some(false))
            })
            .with_assertion("sign-out-never-touches-events", |c| {
                c.pre.field("events") == c.post.field("events")
            }),
    )
    .with_args(users.iter().map(|u| args![*u]).collect(), false);

    let register = MethodSpec::new(
        "register_user",
        MethodContract::new()
            .with_post(|pre, post, a| {
                let Some(u) = <&str>::decode(a) else {
                    return false;
                };
                let had = pre
                    .field("users")
                    .and_then(Value::as_map)
                    .is_some_and(|m| m.contains_key(u));
                let has = post
                    .field("users")
                    .and_then(Value::as_map)
                    .is_some_and(|m| m.contains_key(u));
                !had && has
            })
            .with_guard("empty-username-fails", |a| {
                <(&str, &str)>::decode(a).is_some_and(|(name, _)| !name.is_empty())
            }),
    )
    // Small-scope abstraction: "" and one representative name cover the
    // guard's argument space.
    .with_args(
        vec![args!["", "pw"], args!["newbie", "pw"], args!["ann", "pw"]],
        true,
    );

    let create_event = MethodSpec::new(
        "create_event",
        MethodContract::new()
            .with_guard("nonpositive-capacity-fails", |a| {
                <(&str, u32)>::decode(a).is_some_and(|(_, n)| n > 0)
            })
            .with_guard("empty-event-name-fails", |a| {
                <(&str, u32)>::decode(a).is_some_and(|(name, _)| !name.is_empty())
            }),
    )
    .with_args(
        vec![
            args!["x", 2],
            args!["x", 0],
            args!["x", -1],
            args!["", 1],
            args!["party", 3],
        ],
        true,
    );

    SpecSuite::new("EventPlanner")
        .with_invariant("capacity-and-quota", invariant)
        .with_method(join)
        .with_method(leave)
        .with_method(sign_in)
        .with_method(register)
        .with_method(create_event)
        .with_method(sign_out)
}

fn states() -> Vec<Value> {
    let o = crate::SCRATCH;
    crate::states_by_ops(
        &APP,
        &[
            ops::register_user(o, "ann", "pw"),
            ops::register_user(o, "bob", "pw"),
            ops::create_event(o, "party", 1),
            ops::create_event(o, "dinner", 2),
            ops::sign_in(o, "ann", "pw"),
            ops::join(o, "ann", "party"),
            ops::join(o, "bob", "dinner"),
            ops::leave(o, "ann", "party"),
        ],
    )
}

/// This application's row of [`crate::all`].
pub const APP: crate::App = crate::App {
    type_name: EventPlanner::TYPE_NAME,
    register,
    spec_suite,
    states,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> EventPlanner {
        let mut p = EventPlanner::with_quota(2);
        assert!(p.register_user("ann", "pw"));
        assert!(p.register_user("bob", "pw"));
        assert!(p.create_event("party", 1));
        assert!(p.create_event("dinner", 2));
        assert!(p.create_event("hike", 2));
        p
    }

    #[test]
    fn registration_rejects_duplicates_and_empty() {
        let mut p = EventPlanner::default();
        assert!(p.register_user("ann", "pw"));
        assert!(!p.register_user("ann", "other"), "duplicate username");
        assert!(!p.register_user("", "pw"));
        assert!(p.has_user("ann"));
        assert!(!p.has_user("bob"));
    }

    #[test]
    fn sign_in_checks_password_and_single_session() {
        let mut p = planner();
        assert!(!p.sign_in("ann", "wrong"));
        assert!(p.sign_in("ann", "pw"));
        assert!(p.is_signed_in("ann"));
        assert!(!p.sign_in("ann", "pw"), "already signed in elsewhere");
        assert!(p.sign_out("ann"));
        assert!(!p.sign_out("ann"), "not signed in");
        assert!(p.sign_in("ann", "pw"));
    }

    #[test]
    fn join_respects_capacity() {
        let mut p = planner();
        assert!(p.join("ann", "party"));
        assert!(!p.join("bob", "party"), "capacity 1");
        assert_eq!(p.vacancies("party"), Some(0));
        assert!(p.is_attending("ann", "party"));
        assert!(!p.is_attending("bob", "party"));
        assert_eq!(p.capacity("party"), Some(1));
    }

    #[test]
    fn join_respects_quota() {
        let mut p = planner();
        assert!(p.join("ann", "party"));
        assert!(p.join("ann", "dinner"));
        assert!(!p.join("ann", "hike"), "quota 2 reached");
        assert!(p.leave("ann", "party"));
        assert!(p.join("ann", "hike"), "leaving frees quota");
        assert_eq!(p.joined_events("ann"), vec!["dinner", "hike"]);
        assert_eq!(p.quota(), 2);
    }

    #[test]
    fn join_requires_registered_user_and_existing_event() {
        let mut p = planner();
        assert!(!p.join("ghost", "party"));
        assert!(!p.join("ann", "nothing"));
        assert!(p.join("ann", "party"));
        assert!(!p.join("ann", "party"), "double join fails");
    }

    #[test]
    fn leave_semantics() {
        let mut p = planner();
        assert!(!p.leave("ann", "party"), "not attending");
        p.join("ann", "party");
        assert!(p.leave("ann", "party"));
        assert!(!p.is_attending("ann", "party"));
        assert_eq!(p.event_names().len(), 3);
    }

    #[test]
    fn invariant_holds_on_valid_states() {
        let mut p = planner();
        p.join("ann", "party");
        assert!(invariant(&GState::snapshot(&p)));
        assert!(!invariant(&Value::Unit));
    }

    #[test]
    fn or_else_join_one_of_prefers_first_available() {
        use guesstimate_core::{execute, MachineId, ObjectStore};
        let obj = ObjectId::new(MachineId::new(0), 0);
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut store = ObjectStore::new();
        store.insert(obj, Box::new(planner()));
        // Fill the party so the OrElse falls through to dinner.
        execute(&ops::join(obj, "bob", "party"), &mut store, &reg).unwrap();
        let op = ops::join_one_of(obj, "ann", &["party", "dinner"]).unwrap();
        assert!(execute(&op, &mut store, &reg).unwrap().is_success());
        let p = store.get_as::<EventPlanner>(obj).unwrap();
        assert!(!p.is_attending("ann", "party"));
        assert!(p.is_attending("ann", "dinner"));
        assert!(ops::join_one_of(obj, "ann", &[]).is_none());
    }

    #[test]
    fn atomic_swap_retains_old_event_on_failure() {
        use guesstimate_core::{execute, MachineId, ObjectStore};
        let obj = ObjectId::new(MachineId::new(0), 0);
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut store = ObjectStore::new();
        store.insert(obj, Box::new(planner()));
        execute(&ops::join(obj, "ann", "dinner"), &mut store, &reg).unwrap();
        execute(&ops::join(obj, "bob", "party"), &mut store, &reg).unwrap();
        // party is now full: the swap must fail atomically, retaining dinner.
        let swap = ops::swap_events(obj, "ann", "dinner", "party");
        assert!(!execute(&swap, &mut store, &reg).unwrap().is_success());
        let p = store.get_as::<EventPlanner>(obj).unwrap();
        assert!(p.is_attending("ann", "dinner"), "dinner retained");
        assert!(!p.is_attending("ann", "party"));
    }

    #[test]
    fn join_both_is_all_or_nothing() {
        use guesstimate_core::{execute, MachineId, ObjectStore};
        let obj = ObjectId::new(MachineId::new(0), 0);
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut store = ObjectStore::new();
        store.insert(obj, Box::new(planner()));
        execute(&ops::join(obj, "bob", "party"), &mut store, &reg).unwrap();
        let both = ops::join_both(obj, "ann", "dinner", "party");
        assert!(!execute(&both, &mut store, &reg).unwrap().is_success());
        let p = store.get_as::<EventPlanner>(obj).unwrap();
        assert!(!p.is_attending("ann", "dinner"), "dinner join rolled back");
    }

    #[test]
    fn spec_suite_builds_and_verifies_cleanly() {
        use guesstimate_spec::{verify_suite, CaseSpace};
        let suite = spec_suite();
        assert_eq!(suite.type_name, "EventPlanner");
        assert!(suite.assertion_count() >= 18);
        // Verify against a few reachable states: no refutations, and the
        // state-independent guards (exhaustive arg spaces) verify.
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut p = planner();
        p.join("ann", "party");
        p.sign_in("bob", "pw");
        let states = vec![
            GState::snapshot(&EventPlanner::default()),
            GState::snapshot(&planner()),
            GState::snapshot(&p),
        ];
        let report = verify_suite(&reg, &suite, &CaseSpace::sampled(states, 100_000));
        assert_eq!(
            report.refuted(),
            0,
            "{:?}",
            report
                .assertions
                .iter()
                .filter(|a| a.verdict == guesstimate_spec::Verdict::Refuted)
                .map(|a| (&a.method, &a.name))
                .collect::<Vec<_>>()
        );
        assert!(
            report.verified() >= 3,
            "SI guards verified: {}",
            report.verified()
        );
    }
}

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

use guesstimate_core::{
    args, EffectSpec, Footprint, GState, ObjectId, OpRegistry, RestoreError, SharedOp, Value,
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

    /// Remaining vacancies of `event`, if it exists.
    pub fn vacancies(&self, event: &str) -> Option<u32> {
        self.events
            .get(event)
            .map(|e| e.capacity - e.attendees.len() as u32)
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

    fn create_event(&mut self, name: &str, capacity: i64) -> bool {
        if name.is_empty() || capacity <= 0 || self.events.contains_key(name) {
            return false;
        }
        self.events.insert(
            name.to_owned(),
            EventRec {
                capacity: capacity as u32,
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

impl GState for EventPlanner {
    const TYPE_NAME: &'static str = "EventPlanner";

    fn snapshot(&self) -> Value {
        let users = Value::map(self.users.iter().map(|(n, u)| {
            (
                n.clone(),
                Value::map([
                    ("password", Value::from(u.password.clone())),
                    ("signed_in", Value::from(u.signed_in)),
                ]),
            )
        }));
        let events = Value::map(self.events.iter().map(|(n, e)| {
            (
                n.clone(),
                Value::map([
                    ("capacity", Value::from(i64::from(e.capacity))),
                    (
                        "attendees",
                        e.attendees.iter().map(|a| Value::from(a.clone())).collect(),
                    ),
                ]),
            )
        }));
        Value::map([
            ("quota", Value::from(i64::from(self.quota))),
            ("users", users),
            ("events", events),
        ])
    }

    fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
        let shape = || RestoreError::shape("event-planner snapshot");
        self.quota = v.field("quota").and_then(Value::as_i64).ok_or_else(shape)? as u32;
        self.users.clear();
        for (name, u) in v.field("users").and_then(Value::as_map).ok_or_else(shape)? {
            self.users.insert(
                name.clone(),
                UserRec {
                    password: u
                        .field("password")
                        .and_then(Value::as_str)
                        .ok_or_else(shape)?
                        .to_owned(),
                    signed_in: u
                        .field("signed_in")
                        .and_then(Value::as_bool)
                        .ok_or_else(shape)?,
                },
            );
        }
        self.events.clear();
        for (name, e) in v
            .field("events")
            .and_then(Value::as_map)
            .ok_or_else(shape)?
        {
            let attendees = e
                .field("attendees")
                .and_then(Value::as_list)
                .ok_or_else(shape)?
                .iter()
                .map(|a| a.as_str().map(str::to_owned).ok_or_else(shape))
                .collect::<Result<BTreeSet<_>, _>>()?;
            self.events.insert(
                name.clone(),
                EventRec {
                    capacity: e
                        .field("capacity")
                        .and_then(Value::as_i64)
                        .ok_or_else(shape)? as u32,
                    attendees,
                },
            );
        }
        Ok(())
    }
}

/// Typed constructors for the shared operations and the paper's composite
/// design patterns.
pub mod ops {
    use super::*;

    /// Register a new user (used with blocking issue, Figure 4).
    pub fn register_user(obj: ObjectId, name: &str, password: &str) -> SharedOp {
        SharedOp::primitive(obj, "register_user", args![name, password])
    }

    /// Sign a user in (blocking in the paper: a user may be signed in on
    /// only one machine at a time).
    pub fn sign_in(obj: ObjectId, name: &str, password: &str) -> SharedOp {
        SharedOp::primitive(obj, "sign_in", args![name, password])
    }

    /// Sign a user out.
    pub fn sign_out(obj: ObjectId, name: &str) -> SharedOp {
        SharedOp::primitive(obj, "sign_out", args![name])
    }

    /// Create an event with a capacity.
    pub fn create_event(obj: ObjectId, name: &str, capacity: u32) -> SharedOp {
        SharedOp::primitive(obj, "create_event", args![name, i64::from(capacity)])
    }

    /// Join an event.
    pub fn join(obj: ObjectId, user: &str, event: &str) -> SharedOp {
        SharedOp::primitive(obj, "join", args![user, event])
    }

    /// Leave an event.
    pub fn leave(obj: ObjectId, user: &str, event: &str) -> SharedOp {
        SharedOp::primitive(obj, "leave", args![user, event])
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

macro_rules! apply2 {
    ($m:ident) => {
        |s: &mut EventPlanner, a: guesstimate_core::ArgView<'_>| {
            let (Some(x), Some(y)) = (a.str(0), a.str(1)) else {
                return false;
            };
            s.$m(x, y)
        }
    };
}

/// Effect of a method whose footprint is one user record.
fn user_effect() -> EffectSpec {
    EffectSpec::new(|a| {
        let Some(n) = a.str(0) else {
            return Footprint::new();
        };
        if n.is_empty() {
            return Footprint::new();
        }
        let key = format!("users/{n}");
        Footprint::new().reads([key.clone()]).writes([key])
    })
}

fn create_event_effect() -> EffectSpec {
    EffectSpec::new(|a| {
        let (Some(n), Some(c)) = (a.str(0), a.i64(1)) else {
            return Footprint::new();
        };
        if n.is_empty() || c <= 0 {
            return Footprint::new();
        }
        let key = format!("events/{n}");
        Footprint::new().reads([key.clone()]).writes([key])
    })
}

fn join_effect() -> EffectSpec {
    EffectSpec::new(|a| {
        let (Some(u), Some(e)) = (a.str(0), a.str(1)) else {
            return Footprint::new();
        };
        // The quota check scans the attendee sets of *every* event, so the
        // read set covers the whole `events` subtree.
        Footprint::new()
            .reads([format!("users/{u}"), "events".to_owned()])
            .writes([format!("events/{e}/attendees")])
    })
}

fn leave_effect() -> EffectSpec {
    EffectSpec::new(|a| {
        let (Some(_), Some(e)) = (a.str(0), a.str(1)) else {
            return Footprint::new();
        };
        Footprint::new()
            .reads([format!("events/{e}")])
            .writes([format!("events/{e}/attendees")])
    })
}

/// Registers the event-planner type and operations.
pub fn register(registry: &mut OpRegistry) {
    registry.register_type::<EventPlanner>();
    registry.register_with_effects::<EventPlanner>(
        "register_user",
        user_effect(),
        apply2!(register_user),
    );
    registry.register_with_effects::<EventPlanner>("sign_in", user_effect(), apply2!(sign_in));
    registry.register_with_effects::<EventPlanner>("sign_out", user_effect(), |s, a| {
        let Some(n) = a.str(0) else { return false };
        s.sign_out(n)
    });
    registry.register_with_effects::<EventPlanner>(
        "create_event",
        create_event_effect(),
        |s, a| {
            let (Some(n), Some(c)) = (a.str(0), a.i64(1)) else {
                return false;
            };
            s.create_event(n, c)
        },
    );
    registry.register_with_effects::<EventPlanner>("join", join_effect(), apply2!(join));
    registry.register_with_effects::<EventPlanner>("leave", leave_effect(), apply2!(leave));
}

fn invariant(v: &Value) -> bool {
    let Some(events) = v.field("events").and_then(Value::as_map) else {
        return false;
    };
    let Some(users) = v.field("users").and_then(Value::as_map) else {
        return false;
    };
    let Some(quota) = v.field("quota").and_then(Value::as_i64) else {
        return false;
    };
    let mut per_user: BTreeMap<&str, i64> = BTreeMap::new();
    for e in events.values() {
        let (Some(cap), Some(att)) = (
            e.field("capacity").and_then(Value::as_i64),
            e.field("attendees").and_then(Value::as_list),
        ) else {
            return false;
        };
        if att.len() as i64 > cap {
            return false; // over capacity
        }
        for a in att {
            let Some(name) = a.as_str() else { return false };
            if !users.contains_key(name) {
                return false; // attendee is not a registered user
            }
            *per_user.entry(name).or_insert(0) += 1;
        }
    }
    per_user.values().all(|&n| n <= quota)
}

/// The specification suite for the verifier's table.
///
/// Beyond the universal frame/invariant assertions, the suite carries
/// domain assertions in the §5 style: membership effects, per-event
/// framing, and state-independent argument guards (small-scope abstracted:
/// one representative non-empty string stands for all).
pub fn spec_suite() -> SpecSuite {
    use guesstimate_spec::{Assertion, ExecCase};

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
        let Some(target) = c.args.get(1).and_then(Value::as_str) else {
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
                let (Some(u), Some(e)) = (
                    a.first().and_then(Value::as_str),
                    a.get(1).and_then(Value::as_str),
                ) else {
                    return false;
                };
                attends(post, u, e)
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
                let (Some(u), Some(e)) = (
                    a.first().and_then(Value::as_str),
                    a.get(1).and_then(Value::as_str),
                ) else {
                    return false;
                };
                !attends(post, u, e)
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
                let Some(u) = a.first().and_then(Value::as_str) else {
                    return false;
                };
                signed_in(post, u) == Some(true)
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
                let Some(u) = a.first().and_then(Value::as_str) else {
                    return false;
                };
                signed_in(post, u) == Some(false)
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
                let Some(u) = a.first().and_then(Value::as_str) else {
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
            .with_assertion_obj(
                Assertion::new("empty-username-fails", |c| {
                    c.args.first().and_then(Value::as_str) != Some("")
                        || (!c.result && c.pre == c.post)
                })
                .assume_state_independent(),
            ),
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
            .with_assertion_obj(
                Assertion::new("nonpositive-capacity-fails", |c| {
                    c.args.get(1).and_then(Value::as_i64).is_none_or(|n| n > 0)
                        || (!c.result && c.pre == c.post)
                })
                .assume_state_independent(),
            )
            .with_assertion_obj(
                Assertion::new("empty-event-name-fails", |c| {
                    c.args.first().and_then(Value::as_str) != Some("")
                        || (!c.result && c.pre == c.post)
                })
                .assume_state_independent(),
            ),
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
    fn snapshot_roundtrip() {
        let mut p = planner();
        p.join("ann", "party");
        p.sign_in("bob", "pw");
        let mut q = EventPlanner::default();
        GState::restore(&mut q, &GState::snapshot(&p)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn restore_rejects_malformed() {
        let mut p = EventPlanner::default();
        assert!(GState::restore(&mut p, &Value::from(1)).is_err());
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

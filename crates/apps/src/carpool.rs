//! The car-pool application (§5 "Specifications" of the paper).
//!
//! Vehicles drive to events and have a bounded number of seats. The paper's
//! example operation is `GetRide(Event e)`, which "searches through various
//! ride sharing options to get a ride for the user"; its specification
//! φ_GetRide "is satisfied if the user gets a ride on *some* vehicle".
//! That flexibility matters under GUESSTIMATE: the ride obtained on the
//! guesstimated state (say vehicle v3) may be full by commit time, and the
//! operation still conforms as long as *some* vehicle carried the user.
//!
//! Here `GetRide` is built exactly as §5 suggests: an **OrElse** chain over
//! the per-vehicle `board` operation ([`ops::get_ride`]), whose composite
//! specification is checked by [`MethodContract`]-level tests and the
//! integration suite.

use std::collections::{BTreeMap, BTreeSet};

use guesstimate_core::{
    args, EffectSpec, Footprint, GState, ObjectId, OpRegistry, RestoreError, SharedOp, Value, ROOT,
};
use guesstimate_spec::{MethodContract, MethodSpec, SpecSuite};

/// A vehicle driving to one event.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct Vehicle {
    seats: u32,
    event: String,
    riders: BTreeSet<String>,
}

/// The shared car-pool state.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CarPool {
    vehicles: BTreeMap<String, Vehicle>,
}

impl CarPool {
    /// A fresh, empty pool.
    pub fn new() -> Self {
        CarPool::default()
    }

    /// Vehicle names, in order.
    pub fn vehicle_names(&self) -> Vec<String> {
        self.vehicles.keys().cloned().collect()
    }

    /// Names of vehicles driving to `event`, in order.
    pub fn vehicles_to(&self, event: &str) -> Vec<String> {
        self.vehicles
            .iter()
            .filter(|(_, v)| v.event == event)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Free seats on `vehicle`, if it exists.
    pub fn free_seats(&self, vehicle: &str) -> Option<u32> {
        self.vehicles
            .get(vehicle)
            .map(|v| v.seats - v.riders.len() as u32)
    }

    /// True if `user` has a ride to `event` on some vehicle — the paper's
    /// φ_GetRide predicate.
    pub fn has_ride(&self, user: &str, event: &str) -> bool {
        self.vehicles
            .values()
            .any(|v| v.event == event && v.riders.contains(user))
    }

    /// The vehicle currently carrying `user` to `event`, if any.
    pub fn ride_of(&self, user: &str, event: &str) -> Option<String> {
        self.vehicles
            .iter()
            .find(|(_, v)| v.event == event && v.riders.contains(user))
            .map(|(n, _)| n.clone())
    }

    fn add_vehicle(&mut self, name: &str, seats: i64, event: &str) -> bool {
        if name.is_empty() || event.is_empty() || seats <= 0 || self.vehicles.contains_key(name) {
            return false;
        }
        self.vehicles.insert(
            name.to_owned(),
            Vehicle {
                seats: seats as u32,
                event: event.to_owned(),
                riders: BTreeSet::new(),
            },
        );
        true
    }

    /// Board a specific vehicle: fails if the vehicle is unknown or full,
    /// or if the user already has a ride to the same event.
    fn board(&mut self, user: &str, vehicle: &str) -> bool {
        if user.is_empty() {
            return false;
        }
        let Some(event) = self.vehicles.get(vehicle).map(|v| v.event.clone()) else {
            return false;
        };
        if self.has_ride(user, &event) {
            return false;
        }
        let v = self.vehicles.get_mut(vehicle).expect("checked above");
        if v.riders.len() as u32 >= v.seats {
            return false;
        }
        v.riders.insert(user.to_owned())
    }

    fn disembark(&mut self, user: &str, vehicle: &str) -> bool {
        self.vehicles
            .get_mut(vehicle)
            .is_some_and(|v| v.riders.remove(user))
    }
}

impl GState for CarPool {
    const TYPE_NAME: &'static str = "CarPool";

    fn snapshot(&self) -> Value {
        Value::map(self.vehicles.iter().map(|(n, v)| {
            (
                n.clone(),
                Value::map([
                    ("seats", Value::from(i64::from(v.seats))),
                    ("event", Value::from(v.event.clone())),
                    (
                        "riders",
                        v.riders.iter().map(|r| Value::from(r.clone())).collect(),
                    ),
                ]),
            )
        }))
    }

    fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
        let shape = || RestoreError::shape("car-pool snapshot");
        self.vehicles.clear();
        for (name, veh) in v.as_map().ok_or_else(shape)? {
            let riders = veh
                .field("riders")
                .and_then(Value::as_list)
                .ok_or_else(shape)?
                .iter()
                .map(|r| r.as_str().map(str::to_owned).ok_or_else(shape))
                .collect::<Result<BTreeSet<_>, _>>()?;
            self.vehicles.insert(
                name.clone(),
                Vehicle {
                    seats: veh
                        .field("seats")
                        .and_then(Value::as_i64)
                        .ok_or_else(shape)? as u32,
                    event: veh
                        .field("event")
                        .and_then(Value::as_str)
                        .ok_or_else(shape)?
                        .to_owned(),
                    riders,
                },
            );
        }
        Ok(())
    }
}

/// Typed operation constructors, including the §5 `GetRide` pattern.
pub mod ops {
    use super::*;

    /// Add a vehicle driving to an event.
    pub fn add_vehicle(obj: ObjectId, name: &str, seats: u32, event: &str) -> SharedOp {
        SharedOp::primitive(obj, "add_vehicle", args![name, i64::from(seats), event])
    }

    /// Board a specific vehicle.
    pub fn board(obj: ObjectId, user: &str, vehicle: &str) -> SharedOp {
        SharedOp::primitive(obj, "board", args![user, vehicle])
    }

    /// Leave a vehicle.
    pub fn disembark(obj: ObjectId, user: &str, vehicle: &str) -> SharedOp {
        SharedOp::primitive(obj, "disembark", args![user, vehicle])
    }

    /// The paper's `GetRide(e)`: try every vehicle driving to `event` (as
    /// listed in the given guesstimated snapshot of the pool), in order,
    /// via OrElse. Conforms to φ_GetRide = "user has some ride to event".
    ///
    /// Returns `None` when no vehicle drives to `event` (the operation
    /// would be guaranteed to fail).
    pub fn get_ride(pool: &CarPool, obj: ObjectId, user: &str, event: &str) -> Option<SharedOp> {
        SharedOp::first_of(
            pool.vehicles_to(event)
                .iter()
                .map(|v| board(obj, user, v))
                .collect(),
        )
    }
}

fn apply_add(s: &mut CarPool, a: guesstimate_core::ArgView<'_>) -> bool {
    let (Some(n), Some(seats), Some(e)) = (a.str(0), a.i64(1), a.str(2)) else {
        return false;
    };
    s.add_vehicle(n, seats, e)
}

fn apply_board(s: &mut CarPool, a: guesstimate_core::ArgView<'_>) -> bool {
    let (Some(u), Some(v)) = (a.str(0), a.str(1)) else {
        return false;
    };
    s.board(u, v)
}

fn apply_disembark(s: &mut CarPool, a: guesstimate_core::ArgView<'_>) -> bool {
    let (Some(u), Some(v)) = (a.str(0), a.str(1)) else {
        return false;
    };
    s.disembark(u, v)
}

fn add_vehicle_effect() -> EffectSpec {
    EffectSpec::new(|a| {
        let (Some(n), Some(seats), Some(e)) = (a.str(0), a.i64(1), a.str(2)) else {
            return Footprint::new();
        };
        if n.is_empty() || e.is_empty() || seats <= 0 {
            return Footprint::new();
        }
        // The snapshot is a map keyed directly by vehicle name.
        Footprint::new().reads([n]).writes([n])
    })
}

fn board_effect() -> EffectSpec {
    EffectSpec::new(|a| {
        let (Some(u), Some(v)) = (a.str(0), a.str(1)) else {
            return Footprint::new();
        };
        if u.is_empty() {
            return Footprint::new();
        }
        // `has_ride` scans every vehicle for an existing ride to the same
        // event, so the read set is the whole snapshot.
        Footprint::new()
            .reads([ROOT])
            .writes([format!("{v}/riders")])
    })
}

fn disembark_effect() -> EffectSpec {
    EffectSpec::new(|a| {
        let (Some(_), Some(v)) = (a.str(0), a.str(1)) else {
            return Footprint::new();
        };
        // The vehicle lookup observably depends on `v` *existing* (the
        // access witness refutes a riders-only read set via its map-entry
        // removal probe), and reading `v` covers `v/riders` too.
        Footprint::new()
            .reads([v.to_owned()])
            .writes([format!("{v}/riders")])
    })
}

/// Registers the car-pool type and operations.
pub fn register(registry: &mut OpRegistry) {
    registry.register_type::<CarPool>();
    registry.register_with_effects::<CarPool>("add_vehicle", add_vehicle_effect(), apply_add);
    registry.register_with_effects::<CarPool>("board", board_effect(), apply_board);
    registry.register_with_effects::<CarPool>("disembark", disembark_effect(), apply_disembark);
}

fn invariant(v: &Value) -> bool {
    let Some(vehicles) = v.as_map() else {
        return false;
    };
    // No vehicle over capacity; no user riding two vehicles to one event.
    let mut rides: BTreeSet<(String, String)> = BTreeSet::new();
    for veh in vehicles.values() {
        let (Some(seats), Some(event), Some(riders)) = (
            veh.field("seats").and_then(Value::as_i64),
            veh.field("event").and_then(Value::as_str),
            veh.field("riders").and_then(Value::as_list),
        ) else {
            return false;
        };
        if riders.len() as i64 > seats {
            return false;
        }
        for r in riders {
            let Some(user) = r.as_str() else { return false };
            if !rides.insert((user.to_owned(), event.to_owned())) {
                return false; // two rides to the same event
            }
        }
    }
    true
}

/// Specification suite for the verifier table.
pub fn spec_suite() -> SpecSuite {
    use guesstimate_spec::{Assertion, ExecCase};

    let users = ["ann", "bob", ""];
    let vehicles = ["v1", "v2", "ghost"];
    let mut board_args = Vec::new();
    for u in users {
        for v in vehicles {
            board_args.push(args![u, v]);
        }
    }
    /// Whether user `args[0]` rides vehicle `args[1]` (a vehicle that does
    /// not exist has no riders); `None` on ill-typed arguments.
    fn rides(v: &Value, args: &[Value]) -> Option<bool> {
        let (user, vehicle) = (args.first()?.as_str()?, args.get(1)?.as_str()?);
        let riders = v.as_map()?.get(vehicle).and_then(|veh| veh.field("riders"));
        Some(
            riders
                .and_then(Value::as_list)
                .is_some_and(|rs| rs.iter().any(|r| r.as_str() == Some(user))),
        )
    }
    fn frames_other_vehicles(c: &ExecCase) -> bool {
        let Some(target) = c.args.get(1).and_then(Value::as_str) else {
            return false;
        };
        let (Some(mp), Some(mq)) = (c.pre.as_map(), c.post.as_map()) else {
            return false;
        };
        mp.len() == mq.len() && mp.iter().all(|(k, v)| k == target || mq.get(k) == Some(v))
    }
    let board = MethodSpec::new(
        "board",
        MethodContract::new()
            .with_post(|_pre, post, a| rides(post, a) == Some(true))
            .with_assertion("board-frames-other-vehicles", frames_other_vehicles)
            .with_assertion("board-never-changes-seats-or-event", |c| {
                let meta = |v: &Value| -> Vec<Value> {
                    v.as_map()
                        .map(|m| {
                            m.values()
                                .flat_map(|veh| {
                                    [veh.field("seats").cloned(), veh.field("event").cloned()]
                                })
                                .flatten()
                                .collect()
                        })
                        .unwrap_or_default()
                };
                meta(&c.pre) == meta(&c.post)
            }),
    )
    .with_args(board_args.clone(), false);

    let disembark = MethodSpec::new(
        "disembark",
        MethodContract::new()
            .with_post(|_pre, post, a| rides(post, a) == Some(false))
            .with_assertion("disembark-frames-other-vehicles", frames_other_vehicles),
    )
    .with_args(board_args, false);

    let add_vehicle = MethodSpec::new(
        "add_vehicle",
        MethodContract::new()
            .with_assertion_obj(
                Assertion::new("nonpositive-seats-fail", |c| {
                    c.args.get(1).and_then(Value::as_i64).is_none_or(|n| n > 0)
                        || (!c.result && c.pre == c.post)
                })
                .assume_state_independent(),
            )
            .with_assertion_obj(
                Assertion::new("empty-names-fail", |c| {
                    (c.args.first().and_then(Value::as_str) != Some("")
                        && c.args.get(2).and_then(Value::as_str) != Some(""))
                        || (!c.result && c.pre == c.post)
                })
                .assume_state_independent(),
            )
            .with_post(|_pre, post, a| {
                let Some(name) = a.first().and_then(Value::as_str) else {
                    return false;
                };
                post.as_map().is_some_and(|m| m.contains_key(name))
            }),
    )
    .with_args(
        vec![
            args!["v9", 2, "party"],
            args!["v9", 0, "party"],
            args!["v9", -1, "party"],
            args!["", 2, "party"],
            args!["v9", 2, ""],
            args!["v1", 2, "party"],
        ],
        true,
    );

    SpecSuite::new("CarPool")
        .with_invariant("seats-and-single-ride", invariant)
        .with_method(board)
        .with_method(disembark)
        .with_method(add_vehicle)
}

fn states() -> Vec<Value> {
    let o = crate::SCRATCH;
    crate::states_by_ops(
        &APP,
        &[
            ops::add_vehicle(o, "v1", 1, "party"),
            ops::add_vehicle(o, "v2", 2, "party"),
            ops::board(o, "ann", "v1"),
            ops::board(o, "bob", "v2"),
            ops::disembark(o, "ann", "v1"),
        ],
    )
}

/// This application's row of [`crate::all`].
pub const APP: crate::App = crate::App {
    type_name: CarPool::TYPE_NAME,
    register,
    spec_suite,
    states,
};

#[cfg(test)]
mod tests {
    use super::*;
    use guesstimate_core::{execute, MachineId, ObjectStore};

    fn pool() -> CarPool {
        let mut p = CarPool::new();
        assert!(p.add_vehicle("v1", 1, "party"));
        assert!(p.add_vehicle("v2", 2, "party"));
        assert!(p.add_vehicle("v3", 1, "dinner"));
        p
    }

    #[test]
    fn add_vehicle_validates() {
        let mut p = pool();
        assert!(!p.add_vehicle("v1", 3, "x"), "duplicate");
        assert!(!p.add_vehicle("", 3, "x"));
        assert!(!p.add_vehicle("v9", 0, "x"), "no seats");
        assert!(!p.add_vehicle("v9", 2, ""), "no event");
        assert_eq!(p.vehicle_names().len(), 3);
        assert_eq!(p.vehicles_to("party"), vec!["v1", "v2"]);
    }

    #[test]
    fn board_respects_capacity_and_single_ride() {
        let mut p = pool();
        assert!(p.board("ann", "v1"));
        assert!(!p.board("bob", "v1"), "v1 full");
        assert!(!p.board("ann", "v2"), "ann already rides to party");
        assert!(p.board("ann", "v3"), "different event is fine");
        assert_eq!(p.free_seats("v1"), Some(0));
        assert_eq!(p.ride_of("ann", "party"), Some("v1".into()));
        assert!(p.has_ride("ann", "dinner"));
        assert!(!p.board("", "v2"));
        assert!(!p.board("x", "ghost"));
    }

    #[test]
    fn disembark_semantics() {
        let mut p = pool();
        p.board("ann", "v1");
        assert!(!p.disembark("bob", "v1"));
        assert!(p.disembark("ann", "v1"));
        assert!(!p.has_ride("ann", "party"));
        assert!(p.board("bob", "v1"), "seat freed");
    }

    #[test]
    fn get_ride_falls_through_to_any_vehicle() {
        let obj = ObjectId::new(MachineId::new(0), 0);
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut store = ObjectStore::new();
        store.insert(obj, Box::new(pool()));
        // Fill v1 so ann's ride comes from v2.
        execute(&ops::board(obj, "bob", "v1"), &mut store, &reg).unwrap();
        let ride = {
            let p = store.get_as::<CarPool>(obj).unwrap();
            ops::get_ride(p, obj, "ann", "party").unwrap()
        };
        assert!(execute(&ride, &mut store, &reg).unwrap().is_success());
        let p = store.get_as::<CarPool>(obj).unwrap();
        // φ_GetRide: ann has SOME ride to the party.
        assert!(p.has_ride("ann", "party"));
        assert_eq!(p.ride_of("ann", "party"), Some("v2".into()));
    }

    #[test]
    fn get_ride_fails_when_everything_is_full() {
        let obj = ObjectId::new(MachineId::new(0), 0);
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut store = ObjectStore::new();
        store.insert(obj, Box::new(pool()));
        for (u, v) in [("a", "v1"), ("b", "v2"), ("c", "v2")] {
            assert!(execute(&ops::board(obj, u, v), &mut store, &reg)
                .unwrap()
                .is_success());
        }
        let ride = {
            let p = store.get_as::<CarPool>(obj).unwrap();
            ops::get_ride(p, obj, "ann", "party").unwrap()
        };
        assert!(!execute(&ride, &mut store, &reg).unwrap().is_success());
        assert!(!store
            .get_as::<CarPool>(obj)
            .unwrap()
            .has_ride("ann", "party"));
    }

    #[test]
    fn get_ride_returns_none_without_vehicles() {
        let obj = ObjectId::new(MachineId::new(0), 0);
        let p = CarPool::new();
        assert!(ops::get_ride(&p, obj, "ann", "party").is_none());
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut p = pool();
        p.board("ann", "v1");
        let mut q = CarPool::new();
        GState::restore(&mut q, &GState::snapshot(&p)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn invariant_on_valid_and_invalid() {
        let mut p = pool();
        p.board("ann", "v1");
        assert!(invariant(&GState::snapshot(&p)));
        assert!(!invariant(&Value::Unit));
    }

    #[test]
    fn spec_suite_verifies_cleanly() {
        use guesstimate_spec::{verify_suite, CaseSpace};
        let suite = spec_suite();
        assert!(suite.assertion_count() >= 13);
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut p = pool();
        p.board("ann", "v1");
        let states = vec![
            GState::snapshot(&CarPool::new()),
            GState::snapshot(&pool()),
            GState::snapshot(&p),
        ];
        let report = verify_suite(&reg, &suite, &CaseSpace::sampled(states, 100_000));
        assert_eq!(report.refuted(), 0);
        assert!(report.verified() >= 2);
    }
}

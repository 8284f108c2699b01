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

use guesstimate_core::codec::Args;
use guesstimate_core::{
    canonical, Canonical, Footprint, GState, ObjectId, OpRegistry, SharedOp, Value, ROOT,
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

    /// Free seats on `vehicle`, if it exists (0 on an over-full record).
    pub fn free_seats(&self, vehicle: &str) -> Option<u32> {
        self.vehicles.get(vehicle).map(|v| {
            let riders = u32::try_from(v.riders.len()).unwrap_or(u32::MAX);
            v.seats.saturating_sub(riders)
        })
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

    fn add_vehicle(&mut self, name: &str, seats: u32, event: &str) -> bool {
        if name.is_empty() || event.is_empty() || seats == 0 || self.vehicles.contains_key(name) {
            return false;
        }
        self.vehicles.insert(
            name.to_owned(),
            Vehicle {
                seats,
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

canonical!(struct Vehicle { seats, event, riders });
canonical!(impl GState for CarPool as "CarPool" (vehicles));

/// Typed operation constructors, including the §5 `GetRide` pattern.
pub mod ops {
    use super::*;

    guesstimate_core::methods! {
        CarPool;
        /// Add a vehicle driving to an event.
        fn add_vehicle(name: &str = ["v9", "v1"], seats: u32 = [2], event: &str = ["party"])
            => add_vehicle_footprint(name, seats, event);
        /// Board a specific vehicle.
        fn board(user: &str = ["ann", "bob"], vehicle: &str = ["v1", "v2", "ghost"])
            => board_footprint(user, vehicle), sampled;
        /// Leave a vehicle.
        fn disembark(user: &str = ["ann", "bob"], vehicle: &str = ["v1", "v2", "ghost"])
            => disembark_footprint(vehicle), sampled;
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

fn add_vehicle_footprint(name: &str, seats: u32, event: &str) -> Footprint {
    if name.is_empty() || event.is_empty() || seats == 0 {
        return Footprint::new();
    }
    // The snapshot is a map keyed directly by vehicle name.
    Footprint::new().reads([name]).writes([name])
}

fn board_footprint(user: &str, vehicle: &str) -> Footprint {
    if user.is_empty() {
        return Footprint::new();
    }
    // `has_ride` scans every vehicle for an existing ride to the same
    // event, so the read set is the whole snapshot.
    Footprint::new()
        .reads([ROOT])
        .writes([format!("{vehicle}/riders")])
}

fn disembark_footprint(vehicle: &str) -> Footprint {
    // No vehicle has an empty name (`add_vehicle` refuses one), so leaving
    // `""` fails without touching state — and its key would render as the
    // root path.
    if vehicle.is_empty() {
        return Footprint::new();
    }
    // The vehicle lookup observably depends on `vehicle` *existing* (the
    // access witness refutes a riders-only read set via its map-entry
    // removal probe), and reading `vehicle` covers its riders too.
    Footprint::new()
        .reads([vehicle])
        .writes([format!("{vehicle}/riders")])
}

/// Registers the car-pool type and operations.
pub fn register(registry: &mut OpRegistry) {
    ops::register_methods(registry);
}

fn invariant(v: &Value) -> bool {
    let Ok(pool) = CarPool::from_value(v) else {
        return false;
    };
    // No vehicle over capacity; no user riding two vehicles to one event.
    let mut rides = BTreeSet::new();
    pool.vehicles.values().all(|veh| {
        u32::try_from(veh.riders.len()).is_ok_and(|n| n <= veh.seats)
            && veh.riders.iter().all(|r| rides.insert((r, &veh.event)))
    })
}

/// Specification suite for the verifier table.
pub fn spec_suite() -> SpecSuite {
    use guesstimate_spec::ExecCase;

    /// Whether user `args[0]` rides vehicle `args[1]` (a vehicle that does
    /// not exist has no riders); `None` on ill-typed arguments.
    fn rides(v: &Value, args: &[Value]) -> Option<bool> {
        let (user, vehicle) = <(&str, &str)>::decode(args)?;
        let riders = v.as_map()?.get(vehicle).and_then(|veh| veh.field("riders"));
        Some(
            riders
                .and_then(Value::as_list)
                .is_some_and(|rs| rs.iter().any(|r| r.as_str() == Some(user))),
        )
    }
    /// Every vehicle but the target is unchanged (all of them, when the
    /// arguments do not decode and so name no target).
    fn frames_other_vehicles(c: &ExecCase) -> bool {
        let target = <(&str, &str)>::decode(&c.args).map(|(_, vehicle)| vehicle);
        let (Some(mp), Some(mq)) = (c.pre.as_map(), c.post.as_map()) else {
            return false;
        };
        mp.len() == mq.len()
            && mp
                .iter()
                .all(|(k, v)| Some(k.as_str()) == target || mq.get(k) == Some(v))
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
    );

    let disembark = MethodSpec::new(
        "disembark",
        MethodContract::new()
            .with_post(|_pre, post, a| rides(post, a) == Some(false))
            .with_assertion("disembark-frames-other-vehicles", frames_other_vehicles),
    );

    let add_vehicle = MethodSpec::new(
        "add_vehicle",
        MethodContract::new()
            .with_guard("nonpositive-seats-fail", |a| {
                <(&str, u32, &str)>::decode(a).is_some_and(|(_, n, _)| n > 0)
            })
            .with_guard("empty-names-fail", |a| {
                <(&str, u32, &str)>::decode(a)
                    .is_some_and(|(name, _, event)| !name.is_empty() && !event.is_empty())
            })
            .with_post(|_pre, post, a| {
                <&str>::decode(a)
                    .is_some_and(|name| post.as_map().is_some_and(|m| m.contains_key(name)))
            }),
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

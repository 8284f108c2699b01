//! A minimal shared-object universe for semantics tests and doc examples.
//!
//! Public (not test-gated) because doc tests and downstream integration
//! tests use it to instantiate small systems.

use std::sync::Arc;

use guesstimate_core::{canonical, Footprint, MachineId, ObjectId, ObjectStore, OpRegistry, ROOT};

use crate::model::SemSystem;

/// A counter with a non-negativity precondition.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Counter {
    /// The counter's value.
    pub n: i64,
}

canonical!(impl GState for Counter as "SemCounter" (n));

impl Counter {
    fn add(&mut self, d: i64) -> bool {
        if self.n + d < 0 {
            return false;
        }
        self.n += d;
        true
    }

    fn add_capped(&mut self, d: i64, cap: i64) -> bool {
        self.n + d <= cap && self.add(d)
    }
}

/// Both operations read and write the one value.
fn add_footprint() -> Footprint {
    Footprint::new().reads([ROOT]).writes([ROOT])
}

guesstimate_core::methods! {
    Counter;
    /// `add(d)`: fails when the result would be negative.
    fn add(d: i64) => add_footprint();
    /// `add_capped(d, cap)`: additionally fails above `cap` — an easy
    /// source of commit-time conflicts.
    fn add_capped(d: i64, cap: i64) => add_footprint();
}

/// The registry used by the test universe: `Counter` and its two operations.
pub fn counter_registry() -> OpRegistry {
    let mut r = OpRegistry::new();
    register_methods(&mut r);
    r
}

/// The single shared object's id in the test universe.
pub fn counter_object() -> ObjectId {
    ObjectId::new(MachineId::new(0), 0)
}

/// A fresh system of `n` machines sharing one counter starting at `init`.
pub fn counter_system(n: u32, init: i64) -> SemSystem {
    let mut store = ObjectStore::new();
    store.insert(counter_object(), Box::new(Counter { n: init }));
    SemSystem::new(n, Arc::new(counter_registry()), &store)
}

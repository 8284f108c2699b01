//! A minimal shared-object universe for semantics tests and doc examples.
//!
//! Public (not test-gated) because doc tests and downstream integration
//! tests use it to instantiate small systems.

use std::sync::Arc;

use guesstimate_core::{canonical, MachineId, ObjectId, ObjectStore, OpRegistry};

use crate::model::SemSystem;

/// A counter with a non-negativity precondition.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Counter {
    /// The counter's value.
    pub n: i64,
}

canonical!(impl GState for Counter as "SemCounter" (n));

/// The registry used by the test universe: `add(d)` (fails when the result
/// would be negative) and `add_capped(d, cap)` (additionally fails above
/// `cap` — an easy source of commit-time conflicts).
pub fn counter_registry() -> OpRegistry {
    let mut r = OpRegistry::new();
    r.register_type::<Counter>();
    r.register_method::<Counter>("add", |c, a| {
        let Some(d) = a.i64(0) else { return false };
        if c.n + d < 0 {
            return false;
        }
        c.n += d;
        true
    });
    r.register_method::<Counter>("add_capped", |c, a| {
        let (Some(d), Some(cap)) = (a.i64(0), a.i64(1)) else {
            return false;
        };
        if c.n + d < 0 || c.n + d > cap {
            return false;
        }
        c.n += d;
        true
    });
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

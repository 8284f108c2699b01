//! Shared test fixtures for the runtime crate's unit tests.

use std::collections::BTreeMap;

use guesstimate_core::{EffectSpec, Footprint, GState, OpRegistry, RestoreError, Value};

/// A counter with a non-negativity precondition — the minimal shared object.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Counter {
    /// Current value.
    pub n: i64,
}

impl GState for Counter {
    const TYPE_NAME: &'static str = "Counter";
    fn snapshot(&self) -> Value {
        Value::from(self.n)
    }
    fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
        self.n = v.as_i64().ok_or_else(|| RestoreError::shape("i64"))?;
        Ok(())
    }
}

/// Registry with `Counter` and three methods:
/// * `add(d)` — fails if the counter would go negative;
/// * `add_capped(d, cap)` — additionally fails if the counter would exceed
///   `cap` (an easy way to manufacture commit-time conflicts);
/// * `set(v)` — unconditional.
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
    r.register_method::<Counter>("set", |c, a| {
        let Some(v) = a.i64(0) else { return false };
        c.n = v;
        true
    });
    r
}

/// A string-keyed map of integer slots — the minimal object with a
/// non-trivial footprint structure (each slot is its own state key).
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Slots {
    /// Slot contents, keyed by slot name.
    pub m: BTreeMap<String, i64>,
}

impl GState for Slots {
    const TYPE_NAME: &'static str = "Slots";
    fn snapshot(&self) -> Value {
        Value::Map(
            self.m
                .iter()
                .map(|(k, v)| (k.clone(), Value::from(*v)))
                .collect(),
        )
    }
    fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
        let Value::Map(m) = v else {
            return Err(RestoreError::shape("map"));
        };
        self.m = m
            .iter()
            .map(|(k, v)| {
                v.as_i64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| RestoreError::shape("i64 slot"))
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

/// Registry with `Slots` and two methods:
/// * `put(key, v)` — writes one slot, with a declared per-key footprint;
/// * `raw_put(key, v)` — same behavior but **no** declared effect, so no
///   commutation judgment can reason about it.
pub fn slots_registry() -> OpRegistry {
    let mut r = OpRegistry::new();
    r.register_type::<Slots>();
    r.register_with_effects::<Slots>(
        "put",
        EffectSpec::new(|a| {
            let Some(k) = a.str(0) else {
                return Footprint::new();
            };
            Footprint::new().reads([k]).writes([k])
        }),
        put_slot,
    );
    r.register_method::<Slots>("raw_put", put_slot);
    r
}

fn put_slot(s: &mut Slots, a: guesstimate_core::ArgView<'_>) -> bool {
    let (Some(k), Some(v)) = (a.str(0), a.i64(1)) else {
        return false;
    };
    s.m.insert(k.to_owned(), v);
    true
}

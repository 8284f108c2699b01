//! Pairwise commutation judgments over wire operations.
//!
//! Commutativity is settled at design time, and this module answers the
//! design-time consumers: the schedule model checker (`guesstimate-mc`)
//! asks [`wire_ops_commute`] *do two wire operations provably commute?* for
//! its independence relation, and the hybrid path asks
//! [`universal_commuters`] which methods may skip the round. The proof
//! cascade, strongest-first, mirrors `docs/ANALYSIS.md`:
//!
//! 1. **Object disjointness** — per-object state means operations on
//!    disjoint object sets always commute.
//! 2. **Validated matrix** — the offline analysis proved the method pair
//!    always-commuting (any argument, any state).
//! 3. **Argument-precise footprints** — the methods' declared
//!    [`guesstimate_core::EffectSpec`]s, instantiated at the operations' actual arguments,
//!    have disjoint read/write sets on every shared object.
//!
//! Any pair left unproven — including any operation whose method lacks a
//! declared effect — is conservatively treated as conflicting.
//!
//! Object types are resolved through a caller-supplied function, because
//! the catalog to consult differs per caller: the model checker uses the
//! scenario's object table plus the creations inside the two batches under
//! comparison, and shard routing ([`crate::shard`]) its machine's catalog.

use std::collections::{BTreeMap, BTreeSet};

use guesstimate_core::{ArgView, CommuteMatrix, Footprint, ObjectId, OpRegistry, SharedOp, ROOT};

use crate::message::WireOp;

/// Resolves an object id to its registered type name.
pub type TypeOf<'a> = &'a dyn Fn(ObjectId) -> Option<String>;

/// The set of objects a wire operation may touch.
pub fn wire_objects(op: &WireOp) -> BTreeSet<ObjectId> {
    match op {
        WireOp::Create { object, .. } => BTreeSet::from([*object]),
        WireOp::Shared(op) => op.objects_touched(),
        // A marker is a store no-op within its group; the payload executes
        // at the wrapper layer, outside this group's commit order.
        WireOp::CrossMarker { .. } => BTreeSet::new(),
    }
}

/// Matrix fast path: both operations are single primitives on the same
/// object whose method pair the offline analysis validated as
/// always-commuting (any argument, any state).
fn matrix_commutes(matrix: &CommuteMatrix, type_of: TypeOf<'_>, a: &WireOp, b: &WireOp) -> bool {
    let (
        WireOp::Shared(SharedOp::Primitive {
            object: oa,
            method: ma,
            ..
        }),
        WireOp::Shared(SharedOp::Primitive {
            object: ob,
            method: mb,
            ..
        }),
    ) = (a, b)
    else {
        return false;
    };
    if oa != ob {
        return false; // disjoint-object pairs are handled by the caller
    }
    let Some(ty) = type_of(*oa) else {
        return false;
    };
    matrix.commutes(&ty, ma, mb)
}

/// Per-object read/write footprints of one wire operation, or `None` when
/// any constituent method lacks a declared effect (the commutation
/// judgment is then impossible). `Create` writes its object's whole
/// snapshot, which the root footprint path expresses exactly.
pub fn wire_footprints(
    registry: &OpRegistry,
    type_of: TypeOf<'_>,
    op: &WireOp,
) -> Option<BTreeMap<ObjectId, Footprint>> {
    match op {
        WireOp::Create { object, .. } => {
            let mut m = BTreeMap::new();
            m.insert(*object, Footprint::new().writes([ROOT]));
            Some(m)
        }
        WireOp::Shared(op) => shared_footprints(registry, type_of, op),
        WireOp::CrossMarker { .. } => Some(BTreeMap::new()),
    }
}

/// Recursive footprint union over a [`SharedOp`] tree. `Atomic` unions its
/// components; `OrElse` unions both alternatives (either may run, so the
/// union over-approximates soundly).
fn shared_footprints(
    registry: &OpRegistry,
    type_of: TypeOf<'_>,
    op: &SharedOp,
) -> Option<BTreeMap<ObjectId, Footprint>> {
    fn merge(acc: &mut BTreeMap<ObjectId, Footprint>, id: ObjectId, fp: Footprint) {
        match acc.remove(&id) {
            Some(prev) => {
                acc.insert(id, prev.union(&fp));
            }
            None => {
                acc.insert(id, fp);
            }
        }
    }
    match op {
        SharedOp::Primitive {
            object,
            method,
            args,
        } => {
            let ty = type_of(*object)?;
            let eff = registry.effect_of(&ty, method)?;
            let mut m = BTreeMap::new();
            m.insert(*object, eff.footprint(ArgView::new(args)));
            Some(m)
        }
        SharedOp::Atomic(ops) => {
            let mut acc = BTreeMap::new();
            for op in ops {
                for (id, fp) in shared_footprints(registry, type_of, op)? {
                    merge(&mut acc, id, fp);
                }
            }
            Some(acc)
        }
        SharedOp::OrElse(a, b) => {
            let mut acc = shared_footprints(registry, type_of, a)?;
            for (id, fp) in shared_footprints(registry, type_of, b)? {
                merge(&mut acc, id, fp);
            }
            Some(acc)
        }
    }
}

/// The *universal commuters* of one type: methods the validated matrix
/// proves always-commuting with **every** registered method of the type,
/// including themselves (the diagonal pair). These are the methods
/// eligible for the hybrid async commit path
/// ([`crate::MachineConfig::async_commit`]): because they commute — in
/// both final state and results — with anything that may ever interleave,
/// applying them in arrival order instead of the round's total order is
/// observationally safe.
///
/// A method additionally needs a declared [`guesstimate_core::EffectSpec`]
/// (so footprint reasoning about it stays possible); methods without one
/// are excluded. Types absent from the matrix yield the empty set.
pub fn universal_commuters(
    registry: &OpRegistry,
    matrix: &CommuteMatrix,
    type_name: &str,
) -> BTreeSet<String> {
    let methods = registry.methods_of(type_name);
    methods
        .iter()
        .filter(|m| registry.effect_of(type_name, m).is_some())
        .filter(|m| {
            methods
                .iter()
                .all(|other| matrix.commutes(type_name, m, other))
        })
        .map(|m| (*m).to_owned())
        .collect()
}

/// Full cascade for one pair: do `a` and `b` provably commute?
///
/// Runs the three proofs in order — disjoint touched-object sets, the
/// analysis-validated matrix, argument-precise footprint disjointness on
/// every shared object. Returns `false` whenever no proof applies.
pub fn wire_ops_commute(
    registry: &OpRegistry,
    matrix: &CommuteMatrix,
    type_of: TypeOf<'_>,
    a: &WireOp,
    b: &WireOp,
) -> bool {
    let a_objs = wire_objects(a);
    let b_objs = wire_objects(b);
    if a_objs.is_disjoint(&b_objs) {
        return true;
    }
    if matrix_commutes(matrix, type_of, a, b) {
        return true;
    }
    let (Some(afp), Some(bfp)) = (
        wire_footprints(registry, type_of, a),
        wire_footprints(registry, type_of, b),
    ) else {
        return false;
    };
    a_objs
        .intersection(&b_objs)
        .all(|id| match (afp.get(id), bfp.get(id)) {
            (Some(x), Some(y)) => x.disjoint(y),
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::slots_registry;
    use guesstimate_core::{args, MachineId};

    fn obj(n: u64) -> ObjectId {
        ObjectId::new(MachineId::new(0), n)
    }

    fn put(o: ObjectId, k: &str) -> WireOp {
        WireOp::Shared(SharedOp::primitive(o, "put", args![k, 1]))
    }

    #[test]
    fn disjoint_objects_commute_without_effects() {
        let reg = slots_registry();
        let resolve = |_: ObjectId| Some("Slots".to_owned());
        let a = WireOp::Shared(SharedOp::primitive(obj(0), "raw_put", args!["a", 1]));
        let b = WireOp::Shared(SharedOp::primitive(obj(1), "raw_put", args!["a", 1]));
        assert!(wire_ops_commute(
            &reg,
            &CommuteMatrix::new(),
            &resolve,
            &a,
            &b
        ));
    }

    #[test]
    fn footprints_decide_same_object_pairs() {
        let reg = slots_registry();
        let resolve = |_: ObjectId| Some("Slots".to_owned());
        let m = CommuteMatrix::new();
        assert!(wire_ops_commute(
            &reg,
            &m,
            &resolve,
            &put(obj(0), "a"),
            &put(obj(0), "b")
        ));
        assert!(!wire_ops_commute(
            &reg,
            &m,
            &resolve,
            &put(obj(0), "a"),
            &put(obj(0), "a")
        ));
    }

    #[test]
    fn matrix_vouches_for_undeclared_methods() {
        let reg = slots_registry();
        let resolve = |_: ObjectId| Some("Slots".to_owned());
        let a = WireOp::Shared(SharedOp::primitive(obj(0), "raw_put", args!["a", 1]));
        let b = WireOp::Shared(SharedOp::primitive(obj(0), "raw_put", args!["b", 2]));
        assert!(!wire_ops_commute(
            &reg,
            &CommuteMatrix::new(),
            &resolve,
            &a,
            &b
        ));
        let mut m = CommuteMatrix::new();
        m.insert("Slots", "raw_put", "raw_put");
        assert!(wire_ops_commute(&reg, &m, &resolve, &a, &b));
    }

    #[test]
    fn create_footprint_is_the_whole_object() {
        let reg = slots_registry();
        let resolve = |_: ObjectId| Some("Slots".to_owned());
        let create = WireOp::Create {
            object: obj(0),
            type_name: "Slots".to_owned(),
            init: guesstimate_core::Value::Map(Default::default()),
        };
        assert!(!wire_ops_commute(
            &reg,
            &CommuteMatrix::new(),
            &resolve,
            &create,
            &put(obj(0), "a")
        ));
    }

    #[test]
    fn universal_commuters_need_full_matrix_rows_and_effects() {
        let reg = slots_registry();
        // Partial row: `put` commutes with itself but its pair with
        // `raw_put` is unproven, so nothing is universal.
        let mut m = CommuteMatrix::new();
        m.insert("Slots", "put", "put");
        assert!(universal_commuters(&reg, &m, "Slots").is_empty());
        // Full rows: `put` qualifies; `raw_put` still does not because it
        // has no declared effect.
        m.insert("Slots", "put", "raw_put");
        m.insert("Slots", "raw_put", "raw_put");
        let u = universal_commuters(&reg, &m, "Slots");
        assert_eq!(u.into_iter().collect::<Vec<_>>(), vec!["put".to_owned()]);
        // Unknown types yield the empty set.
        assert!(universal_commuters(&reg, &m, "NoSuchType").is_empty());
    }

    #[test]
    fn unresolvable_type_is_conservative() {
        let reg = slots_registry();
        let resolve = |_: ObjectId| None;
        assert!(!wire_ops_commute(
            &reg,
            &CommuteMatrix::new(),
            &resolve,
            &put(obj(0), "a"),
            &put(obj(0), "b")
        ));
    }
}

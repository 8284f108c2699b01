//! Runtime shard routing: mapping wire operations to the shards of an
//! analysis-derived [`ShardPlan`], and checking at commit sites that an
//! operation's effects stay inside its routed shard.
//!
//! The plan is produced offline by `analyze --shard-plan` (see
//! `docs/ANALYSIS.md` "Shard plans") and installed through
//! [`crate::MachineConfig::with_shard_plan`]. With a plan installed the machine
//! labels every commit with its [`ShardId`] — feeding the per-shard
//! telemetry counter `guesstimate_shard_ops_total` — and, with
//! [`crate::MachineConfig::checks`] on, asserts *containment*: the declared
//! footprints of the committed operation, instantiated at its actual
//! arguments, must fall inside the shard the plan routed it to. A
//! violation means the plan and the effect declarations disagree — either
//! the plan was derived for different specs or it was mis-keyed — and is
//! recorded on the machine ([`Machine::shard_violations`]) exactly like a
//! witness escape, so the model checker's `ShardEscape` oracle can report
//! and ddmin-shrink it.

use std::sync::Arc;

use guesstimate_core::{ShardId, ShardPlan, SharedOp};

use crate::commute::TypeOf;
use crate::machine::Machine;
use crate::message::WireOp;

/// Routes wire operations to shards under one [`ShardPlan`].
///
/// Cloning is cheap (the plan is shared behind an `Arc`).
#[derive(Debug, Clone)]
pub struct ShardRouter {
    pub(crate) plan: Arc<ShardPlan>,
}

impl ShardRouter {
    /// Wraps a plan.
    pub fn new(plan: Arc<ShardPlan>) -> Self {
        ShardRouter { plan }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The shard one wire operation routes to.
    ///
    /// `Create` writes its object's whole snapshot, so it is always
    /// cross-shard. Composite operations route to the common shard of
    /// their constituents when all agree, and cross-shard otherwise.
    /// Objects whose type cannot be resolved route cross-shard (the
    /// conservative direction: cross-shard operations are never
    /// containment-checked).
    pub fn shard_of(&self, op: &WireOp, type_of: TypeOf<'_>) -> ShardId {
        match op {
            WireOp::Create { .. } => ShardId::Cross,
            WireOp::Shared(op) => self.shard_of_shared(op, type_of),
            // Markers are the multi-group commit vehicle *of* a cross-routed
            // payload; the payload itself already routed `Cross`.
            WireOp::CrossMarker { .. } => ShardId::Cross,
        }
    }

    pub(crate) fn shard_of_shared(&self, op: &SharedOp, type_of: TypeOf<'_>) -> ShardId {
        match op {
            SharedOp::Primitive {
                object,
                method,
                args,
            } => match type_of(*object) {
                Some(ty) => self.plan.route_primitive(&ty, method, args),
                None => ShardId::Cross,
            },
            SharedOp::Atomic(ops) => {
                let mut acc: Option<ShardId> = None;
                for op in ops {
                    let s = self.shard_of_shared(op, type_of);
                    match &acc {
                        None => acc = Some(s),
                        Some(prev) if *prev == s => {}
                        Some(_) => return ShardId::Cross,
                    }
                }
                acc.unwrap_or(ShardId::Cross)
            }
            SharedOp::OrElse(a, b) => {
                let sa = self.shard_of_shared(a, type_of);
                let sb = self.shard_of_shared(b, type_of);
                if sa == sb {
                    sa
                } else {
                    ShardId::Cross
                }
            }
        }
    }
}

/// One shard-containment escape observed at a runtime commit site: a
/// committed operation's declared footprint (instantiated at its actual
/// arguments) reached outside the shard the installed
/// [`crate::MachineConfig::shard_plan`] routed it to.
///
/// Recorded on the machine ([`Machine::shard_violations`]); under
/// [`crate::Checks::Assert`] it also `debug_assert!`s. The model checker's
/// negative preset runs [`crate::Checks::Record`] instead so its `ShardEscape` oracle can report — and ddmin-shrink —
/// the escape instead of aborting mid-delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardViolation {
    /// The commit site that observed the escape ("commit",
    /// "async-commit", "async-apply").
    pub site: &'static str,
    /// The routed shard, rendered ([`ShardId`]'s `Display`).
    pub shard: String,
    /// Human-readable escape description from [`ShardPlan::escape`].
    pub detail: String,
}

impl std::fmt::Display for ShardViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}", self.detail, self.site)
    }
}

/// Bound on recorded shard violations per machine, mirroring the witness
/// log's cap: one mis-keyed route at a hot commit site would otherwise
/// grow the log with every delivery.
const SHARD_LOG_CAP: usize = 64;

impl Machine {
    /// Labels one committed wire operation with its routed shard (per-shard
    /// telemetry counter) and, with [`crate::MachineConfig::checks`] on,
    /// checks that the operation's declared footprints stay inside that
    /// shard. No-op unless a [`crate::MachineConfig::shard_plan`] is installed
    /// and somebody is listening: with a no-op telemetry handle and checks
    /// off, the route would be computed only to be dropped.
    pub(crate) fn note_shard_commit(&mut self, op: &WireOp, site: &'static str) {
        if !(self.telemetry.enabled() || self.cfg.checks.on()) {
            return;
        }
        let Some(plan) = self.cfg.shard_plan.clone() else {
            return;
        };
        if let WireOp::CrossMarker { .. } = op {
            // Count markers under their own label: the cross *payload* is
            // already counted once (below) per involved group's marker, and
            // markers never carry a footprint to contain.
            self.telemetry.shard_op("cross-marker");
            return;
        }
        let catalog = &self.catalog;
        let type_of = |id| catalog.get(&id).cloned();
        let shard = ShardRouter::new(Arc::clone(&plan)).shard_of(op, &type_of);
        let label = shard.to_string();
        self.telemetry.shard_op(&label);
        if shard == ShardId::Cross {
            self.telemetry.cross_route();
        }
        if !self.cfg.checks.on() || shard == ShardId::Cross {
            return;
        }
        // Containment: every path of the declared footprints, instantiated
        // at the operation's actual arguments, must fall inside the routed
        // shard. A missing effect declaration leaves nothing to contain
        // (the witness layer already flags undeclared methods).
        let Some(fps) = crate::commute::wire_footprints(&self.registry, &type_of, op) else {
            return;
        };
        let mut escapes = Vec::new();
        for (obj, fp) in &fps {
            let Some(ty) = type_of(*obj) else { continue };
            for path in fp.reads.iter().chain(fp.writes.iter()) {
                if let Some(detail) = plan.escape(&shard, &ty, path) {
                    escapes.push(detail);
                }
            }
        }
        for detail in escapes {
            if self.cfg.checks == crate::Checks::Assert {
                debug_assert!(
                    false,
                    "shard escape on {:?} at {site}: {detail} (op {op:?})",
                    self.id
                );
            }
            if self.shard_log.len() < SHARD_LOG_CAP {
                self.shard_log.push(ShardViolation {
                    site,
                    shard: label.clone(),
                    detail,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guesstimate_core::{
        args, ComponentPlan, MachineId, ObjectId, PathPattern, Routing, TypePlan,
    };
    use std::collections::BTreeMap;

    fn board_plan(key_arg: usize) -> Arc<ShardPlan> {
        let mut tp = TypePlan {
            components: vec![ComponentPlan {
                prefixes: vec![PathPattern::parse("topics/{0}").unwrap()],
                keyed: true,
            }],
            routes: BTreeMap::new(),
        };
        tp.routes.insert(
            "post".to_owned(),
            Routing::Local {
                component: 0,
                key_arg: Some(key_arg),
            },
        );
        let mut plan = ShardPlan::new();
        plan.types.insert("Board".to_owned(), tp);
        Arc::new(plan)
    }

    fn obj(n: u64) -> ObjectId {
        ObjectId::new(MachineId::new(0), n)
    }

    #[test]
    fn creates_and_unknown_types_route_cross() {
        let router = ShardRouter::new(board_plan(0));
        let resolve = |_: ObjectId| Some("Board".to_owned());
        let unresolved = |_: ObjectId| None;
        let create = WireOp::Create {
            object: obj(0),
            type_name: "Board".into(),
            init: guesstimate_core::Value::Map(Default::default()),
        };
        assert_eq!(router.shard_of(&create, &resolve), ShardId::Cross);
        let post = WireOp::Shared(SharedOp::primitive(obj(0), "post", args!["news", "ann"]));
        assert_eq!(router.shard_of(&post, &unresolved), ShardId::Cross);
        assert_eq!(router.shard_of(&post, &resolve).to_string(), "Board:0/news");
    }

    #[test]
    fn composites_route_to_the_common_shard_or_cross() {
        let router = ShardRouter::new(board_plan(0));
        let resolve = |_: ObjectId| Some("Board".to_owned());
        let p = |topic: &str| SharedOp::primitive(obj(0), "post", args![topic, "ann"]);
        let same = WireOp::Shared(SharedOp::atomic(vec![p("news"), p("news")]));
        assert_eq!(router.shard_of(&same, &resolve).to_string(), "Board:0/news");
        let split = WireOp::Shared(SharedOp::atomic(vec![p("news"), p("random")]));
        assert_eq!(router.shard_of(&split, &resolve), ShardId::Cross);
        let or = WireOp::Shared(SharedOp::or_else(p("news"), p("news")));
        assert_eq!(router.shard_of(&or, &resolve).to_string(), "Board:0/news");
        let empty = WireOp::Shared(SharedOp::atomic(vec![]));
        assert_eq!(router.shard_of(&empty, &resolve), ShardId::Cross);
    }
}

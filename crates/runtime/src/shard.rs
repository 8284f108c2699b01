//! Runtime shard labelling: every committed wire operation is labelled
//! with the shard [`guesstimate_core::ShardPlan::route_op`] routes it to,
//! and commit sites check that its effects stay inside that shard.
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

use guesstimate_core::ShardId;

use crate::machine::Machine;
use crate::message::WireOp;

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
    /// Human-readable escape description from
    /// [`guesstimate_core::ShardPlan::escape`].
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
        let Some(plan) = &self.cfg.shard_plan else {
            return;
        };
        let catalog = &self.catalog;
        let type_of = |id| catalog.get(&id).cloned();
        let shard = match op {
            WireOp::Shared(op) => plan.route_op(op, &type_of),
            // `Create` writes its object's whole snapshot, so it is always
            // cross-shard.
            WireOp::Create { .. } => ShardId::Cross,
            WireOp::CrossMarker { .. } => {
                // Count markers under their own label: the cross *payload*
                // is already counted once (below) per involved group's
                // marker, and markers never carry a footprint to contain.
                self.telemetry.shard_op("cross-marker");
                return;
            }
        };
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

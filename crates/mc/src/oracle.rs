//! The checker's correctness oracles.
//!
//! Two layers, mirroring the paper's §3 semantics:
//!
//! * **Step oracles** (`Cluster::check_step`) run after *every* explored choice:
//!   the per-machine guess invariant `sg = [P](sc)`
//!   ([`Machine::check_guess_invariant`]), the ≤3-executions bound on any
//!   single operation, an empty per-machine witness-containment log (no
//!   operation's observed accesses escaped its declared footprint at any
//!   apply site — see [`guesstimate_runtime::WitnessViolation`]; the
//!   `sneaky` negative preset runs with recording instead of asserting
//!   precisely so this oracle is what reports it), an empty per-machine
//!   shard-containment log when a shard plan is installed (no committed
//!   operation's declared footprint escaped its routed shard — see
//!   [`guesstimate_runtime::ShardViolation`]; the `miskeyed` negative
//!   preset is caught here), pairwise agreement of
//!   completed histories (every
//!   pair of machines' completion sequences must be prefix-ordered), and
//!   committed-state digest equality whenever two machines have completed
//!   the same number of operations. Under the **hybrid commit path**
//!   (`hybrid = true`) async completions are unordered across machines,
//!   so the prefix check applies to the *serialized* completion
//!   subsequence ([`Machine::completed_serialized`]) and the digest
//!   comparison is gated on the full completed *sets* being equal —
//!   classification is per-method at issue time, so equal sets imply the
//!   same serialized subsequence plus async ops that all commute, and the
//!   committed states must agree.
//! * **Terminal oracles** ([`check_terminal`]) run once per fully explored
//!   schedule: the master's recorded commit history is replayed through
//!   the executable semantic model ([`SemSystem`]) — `Create` envelopes
//!   via `materialize`, shared ops via `issue_forced` + `commit` — with
//!   the model's R1/R2/R3 invariants checked at every step, and the final
//!   model state compared against the implementation (same completion
//!   sequence, same committed digest). A schedule that passes is a
//!   witness that this interleaving of the implementation refines a run
//!   of the abstract machine.

use std::fmt;
use std::hash::{Hash, Hasher};

use guesstimate_core::{MachineId, ObjectStore, OpRegistry};
use guesstimate_net::SchedNet;
use guesstimate_runtime::{Machine, WireOp};
use guesstimate_semantics::{check_invariants, SemSystem};

/// An oracle failure, with enough context to read the repro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `sg != [P](sc)` on a machine.
    GuessInvariant {
        /// The machine whose guess diverged.
        machine: MachineId,
    },
    /// Some operation executed more than three times on a machine.
    ExecBound {
        /// The offending machine.
        machine: MachineId,
        /// Its observed maximum execution count.
        count: u32,
    },
    /// Two machines' completion sequences are not prefix-ordered.
    CompletedPrefix {
        /// First machine of the disagreeing pair.
        a: MachineId,
        /// Second machine of the disagreeing pair.
        b: MachineId,
    },
    /// Equal completed lengths but different committed states.
    CommittedDigest {
        /// First machine of the disagreeing pair.
        a: MachineId,
        /// Second machine of the disagreeing pair.
        b: MachineId,
    },
    /// The schedule does not refine any run of the semantic model.
    Refinement {
        /// What diverged.
        detail: String,
    },
    /// An operation's observed access footprint escaped its declared
    /// effect at an apply site (recorded by the runtime's witness
    /// containment check; see `guesstimate_runtime::WitnessViolation`).
    WitnessEscape {
        /// The machine that recorded the escape.
        machine: MachineId,
        /// The recorded violation, rendered.
        detail: String,
    },
    /// A committed operation's declared footprint escaped the shard the
    /// installed shard plan routed it to (recorded by the runtime's
    /// shard containment check; see
    /// `guesstimate_runtime::ShardViolation`). Fires when the plan and
    /// the effect declarations disagree — e.g. the `miskeyed` negative
    /// preset's deliberately wrong routing key.
    ShardEscape {
        /// The machine that recorded the escape.
        machine: MachineId,
        /// The recorded violation, rendered.
        detail: String,
    },
    /// The multi-group coordinated cross round misbehaved: a node
    /// resolved a cross operation more or fewer times than it was
    /// submitted, nodes at the same resolution count disagree on the
    /// `(xid, result)` digest, a fence survived quiescence, or the
    /// merged committed states diverge at a terminal state (see the
    /// `multigroup` module).
    CrossRound {
        /// What went wrong, rendered.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::GuessInvariant { machine } => {
                write!(
                    f,
                    "guess invariant sg = [P](sc) broken on machine {machine}"
                )
            }
            Violation::ExecBound { machine, count } => {
                write!(
                    f,
                    "machine {machine} executed an operation {count} times (max 3)"
                )
            }
            Violation::CompletedPrefix { a, b } => {
                write!(
                    f,
                    "completed histories of machines {a} and {b} are not prefix-ordered"
                )
            }
            Violation::CommittedDigest { a, b } => write!(
                f,
                "machines {a} and {b} completed equally many ops with different committed state"
            ),
            Violation::Refinement { detail } => {
                write!(f, "schedule does not refine the semantic model: {detail}")
            }
            Violation::WitnessEscape { machine, detail } => {
                write!(f, "witness escape on machine {machine}: {detail}")
            }
            Violation::ShardEscape { machine, detail } => {
                write!(f, "shard escape on machine {machine}: {detail}")
            }
            Violation::CrossRound { detail } => {
                write!(f, "cross-group coordinated round violation: {detail}")
            }
        }
    }
}

/// The per-machine step oracles every scenario shares: guess invariant,
/// ≤3 executions, empty witness- and shard-containment logs. The report
/// names the machine by its id (its virtual id behind a `MultiMachine`).
pub(crate) fn check_machine(m: &Machine) -> Option<Violation> {
    let id = m.id();
    if !m.check_guess_invariant() {
        return Some(Violation::GuessInvariant { machine: id });
    }
    let count = m.stats().max_exec_count;
    if count > 3 {
        return Some(Violation::ExecBound { machine: id, count });
    }
    if let Some(w) = m.witness_violations().first() {
        return Some(Violation::WitnessEscape {
            machine: id,
            detail: w.to_string(),
        });
    }
    if let Some(v) = m.shard_violations().first() {
        return Some(Violation::ShardEscape {
            machine: id,
            detail: v.to_string(),
        });
    }
    None
}

/// The pairwise agreement oracles for two instances of one sync group:
/// prefix-ordered completions always, and equal committed digests once
/// both completed the same operations — if `comparable`, the caller's
/// own precondition (`true` where only rounds touch committed state).
///
/// `hybrid` selects the agreement discipline (see the module docs): the
/// paper's total order over all completions, or — when the scenario runs
/// the hybrid commit path — a total order over serialized completions
/// only, with digests compared once the completed sets coincide.
pub(crate) fn check_pair(
    ma: &Machine,
    mb: &Machine,
    hybrid: bool,
    comparable: bool,
) -> Option<Violation> {
    let (a, b) = (ma.id(), mb.id());
    let (ca, cb) = if hybrid {
        (ma.completed_serialized(), mb.completed_serialized())
    } else {
        (ma.completed_ops(), mb.completed_ops())
    };
    let n = ca.len().min(cb.len());
    if ca[..n] != cb[..n] {
        return Some(Violation::CompletedPrefix { a, b });
    }
    let same_ops = if hybrid {
        same_completed_set(ma, mb)
    } else {
        ca.len() == cb.len()
    };
    if comparable && same_ops && ma.committed_digest() != mb.committed_digest() {
        return Some(Violation::CommittedDigest { a, b });
    }
    None
}

/// True when two machines have completed the same *set* of operations
/// (in any order) — the hybrid path's precondition for demanding equal
/// committed states.
fn same_completed_set(a: &Machine, b: &Machine) -> bool {
    let (ca, cb) = (a.completed_ops(), b.completed_ops());
    if ca.len() != cb.len() {
        return false;
    }
    let mut sa = ca.to_vec();
    let mut sb = cb.to_vec();
    sa.sort_unstable();
    sb.sort_unstable();
    sa == sb
}

/// Replays the master's commit history through the semantic model and
/// checks that the schedule's outcome refines it.
///
/// `n_machines` is the scenario's total machine count (the abstract run
/// has every machine present from the start; late join is an
/// implementation detail the refinement mapping erases).
///
/// The check applies unchanged to hybrid scenarios: the master's history
/// records every commit — serialized and async alike — in its own apply
/// order, and that order is one admissible run of the abstract machine
/// (async commits are just issue-and-commit steps whose placement the
/// commutativity proof makes irrelevant to the final state).
pub fn check_terminal(
    net: &SchedNet<Machine>,
    registry: &std::sync::Arc<OpRegistry>,
    n_machines: u32,
) -> Option<Violation> {
    let master = net.actor(MachineId::new(0)).expect("master exists");
    let mut model = SemSystem::new(n_machines, registry.clone(), &ObjectStore::new());
    for env in master.history() {
        let r = match &env.op {
            WireOp::Create {
                object,
                type_name,
                init,
            } => model.materialize(env.id, *object, type_name, init),
            WireOp::Shared(op) => model
                .issue_forced(env.id.machine(), env.id, op.clone())
                .and_then(|()| model.commit(env.id.machine()).map(|_| ())),
            // Multi-group coordination markers are store no-ops; the
            // single-group presets this oracle serves never produce them.
            WireOp::CrossMarker { .. } => Ok(()),
        };
        if let Err(e) = r {
            return Some(Violation::Refinement {
                detail: format!("replaying {}: {e:?}", env.id),
            });
        }
        if let Err(v) = check_invariants(&model) {
            return Some(Violation::Refinement {
                detail: format!("model invariant after {}: {v}", env.id),
            });
        }
    }
    let m0 = model
        .machine(MachineId::new(0))
        .expect("model machine 0 exists");
    if m0.completed != master.completed_ops() {
        return Some(Violation::Refinement {
            detail: format!(
                "completion sequences differ: model {:?} vs implementation {:?}",
                m0.completed,
                master.completed_ops()
            ),
        });
    }
    if m0.committed.digest() != master.committed_digest() {
        return Some(Violation::Refinement {
            detail: "committed digests differ after identical completion sequence".to_owned(),
        });
    }
    None
}

/// A deterministic digest of the cluster's observable state — its
/// protocol instances plus whatever `extra` state the node kind observes —
/// used to prove the partial-order reduction sound on small scenarios:
/// exploring with and without reduction must visit the same *set* of
/// terminal digests.
///
/// The serialized completion sequence is hashed in order (it is the
/// paper's total order); the full completed set is hashed *sorted*,
/// because on the hybrid path the arrival order of commuting async ops
/// is exactly what the reduction prunes — two interleavings it declares
/// equivalent differ only in that order, and by construction reach the
/// same committed state. On non-hybrid scenarios the two sequences
/// coincide, so nothing is lost.
pub(crate) fn digest_of<'a>(machines: impl Iterator<Item = &'a Machine>, extra: impl Hash) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for m in machines {
        m.id().hash(&mut h);
        m.committed_digest().hash(&mut h);
        m.guess_digest().hash(&mut h);
        m.completed_serialized().hash(&mut h);
        let mut completed = m.completed_ops().to_vec();
        completed.sort_unstable();
        completed.hash(&mut h);
        m.in_cohort().hash(&mut h);
    }
    extra.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Cluster, Preset};
    use guesstimate_core::CommuteMatrix;

    #[test]
    fn state_digest_is_stable_and_discriminating() {
        let p = Preset::by_name("sudoku").unwrap();
        let a = p.build_machines(&CommuteMatrix::new(), None);
        let b = p.build_machines(&CommuteMatrix::new(), None);
        assert_eq!(a.state_digest(), b.state_digest());

        // Committing the injected ops must change the digest.
        let mut c = p.build_machines(&CommuteMatrix::new(), None);
        let mut guard = 0;
        while c.net.actor(MachineId::new(0)).unwrap().pending_len() > 0 {
            guard += 1;
            assert!(guard < 10_000);
            if let Some(&seq) = c.net.pending_msgs().first() {
                c.net.deliver(seq);
            } else {
                assert!(c.net.fire_next_timer());
            }
        }
        assert_ne!(a.state_digest(), c.state_digest());
    }
}

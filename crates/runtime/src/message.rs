//! Wire messages of the GUESSTIMATE synchronizer.
//!
//! §4 of the paper: synchronization proceeds in three stages over two meshes.
//! *AddUpdatesToMesh* flushes each machine's pending operations as
//! `(machineID, operationnumber, operation)` triples on the **Operations**
//! channel, each confirmed on the **Signals** channel (to the master, or —
//! under the paper's serial turn-taking — to everyone, passing the turn);
//! *ApplyUpdatesFromMesh* applies the consolidated list and acknowledges;
//! *FlagCompletion* closes the round. Membership (enter/leave) and fault
//! recovery (resend/restart) also ride the Signals channel.

use std::sync::Arc;

use guesstimate_core::{MachineId, ObjectId, OpId, SharedOp, Value};

// Structural wire-size model used for byte accounting in
// [`guesstimate_net::NetMetrics`]: ids are fixed-width, every enum
// discriminant costs one tag byte, every variable-length sequence costs
// a length prefix. There is no real serializer (messages travel as Rust
// values in-process), so these sizes are a deterministic estimate of
// what a compact binary encoding would ship, not a measured payload.
const TAG: u64 = 1;
const LEN: u64 = 4;
const MACHINE_ID: u64 = 4;
const OP_ID: u64 = 12; // MachineId + u64 sequence number
const OBJECT_ID: u64 = 12; // creator MachineId + u64 sequence number
const ROUND: u64 = 8;

fn value_size(v: &Value) -> u64 {
    TAG + match v {
        Value::Unit => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => LEN + s.len() as u64,
        Value::Bytes(b) => LEN + b.len() as u64,
        Value::List(l) => LEN + l.iter().map(value_size).sum::<u64>(),
        Value::Map(m) => {
            LEN + m
                .iter()
                .map(|(k, v)| LEN + k.len() as u64 + value_size(v))
                .sum::<u64>()
        }
    }
}

/// Modelled size of a [`SharedOp`] on its own, without the [`WireOp`] tag
/// byte that wraps it in a message.
pub(crate) fn shared_op_size(op: &SharedOp) -> u64 {
    TAG + match op {
        SharedOp::Primitive { method, args, .. } => {
            OBJECT_ID + LEN + method.len() as u64 + LEN + args.iter().map(value_size).sum::<u64>()
        }
        SharedOp::Atomic(ops) => LEN + ops.iter().map(shared_op_size).sum::<u64>(),
        SharedOp::OrElse(a, b) => shared_op_size(a) + shared_op_size(b),
    }
}

/// An operation as it travels between machines.
///
/// Besides application-level [`SharedOp`]s, the op stream carries object
/// *creation*: `Guesstimate.CreateInstance` registers a new shared object
/// with the runtime, and every machine must materialize it in committed
/// order (creation is itself an operation with an issue identity, so all
/// later operations on the object sort after it).
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Materialize a new shared object with the given initial state.
    Create {
        /// The new object's id.
        object: ObjectId,
        /// Registered type name (must be known to every machine's registry).
        type_name: String,
        /// Canonical snapshot of the initial state.
        init: Value,
    },
    /// An application-level shared operation.
    Shared(SharedOp),
    /// A cross-group coordination marker (multi-group mode only; see
    /// [`crate::multigroup`]).
    ///
    /// A `Cross`-routed operation cannot be serialized by any single sync
    /// group, so the coordinator issues one marker carrying the payload into
    /// *every* involved group's round. Committing a marker is a no-op on the
    /// group's store; it only fixes the deterministic interleaving point at
    /// which the wrapper later executes the payload against the merged
    /// per-group state (and it fences the group: the wrapper buffers the
    /// group's events from marker commit until the coordinated round
    /// resolves).
    CrossMarker {
        /// Coordinator-assigned global sequence number: markers commit in
        /// `xid` order within every involved group.
        xid: u64,
        /// The *node* (outer machine id) that submitted the operation; its
        /// wrapper runs the completion when the marker resolves.
        origin: MachineId,
        /// The submitter's local cross-submission sequence number (keys the
        /// completion callback on the origin node).
        oseq: u64,
        /// The involved sync groups: the coordinator issues one identical
        /// marker into each, and a node resolves the round once every
        /// hosted involved group has committed its copy.
        groups: Vec<u32>,
        /// The cross-routed payload, executed once per involved group
        /// against the merged state at resolution.
        op: SharedOp,
    },
}

impl WireOp {
    /// The creation fields `(object, type_name, init)`, or `None` if this is
    /// not a [`WireOp::Create`].
    pub fn as_create(&self) -> Option<(ObjectId, &str, &Value)> {
        match self {
            WireOp::Create {
                object,
                type_name,
                init,
            } => Some((*object, type_name, init)),
            WireOp::Shared(_) | WireOp::CrossMarker { .. } => None,
        }
    }

    /// The shared operation, or `None` if this is not a [`WireOp::Shared`].
    pub fn as_shared(&self) -> Option<&SharedOp> {
        match self {
            WireOp::Shared(op) => Some(op),
            WireOp::Create { .. } | WireOp::CrossMarker { .. } => None,
        }
    }

    /// Estimated encoded size in bytes (see the module's wire-size model).
    pub fn wire_size(&self) -> u64 {
        TAG + match self {
            WireOp::Create {
                type_name, init, ..
            } => OBJECT_ID + LEN + type_name.len() as u64 + value_size(init),
            WireOp::Shared(op) => shared_op_size(op),
            WireOp::CrossMarker { op, groups, .. } => {
                8 + MACHINE_ID + 8 + LEN + 4 * groups.len() as u64 + shared_op_size(op)
            }
        }
    }
}

/// An operation tagged with its issue identity — one element of a machine's
/// pending list `P`, and the unit flushed during *AddUpdatesToMesh*.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEnvelope {
    /// `(machineID, operationnumber)`.
    pub id: OpId,
    /// The operation.
    pub op: WireOp,
}

impl WireEnvelope {
    /// Estimated encoded size in bytes (see the module's wire-size model).
    pub fn wire_size(&self) -> u64 {
        OP_ID + self.op.wire_size()
    }
}

/// One object's identity, type and state, as shipped to a joining machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectInit {
    /// The object's id.
    pub id: ObjectId,
    /// Registered type name.
    pub type_name: String,
    /// Canonical snapshot of the committed state.
    pub state: Value,
}

impl ObjectInit {
    /// Estimated encoded size in bytes (see the module's wire-size model).
    pub fn wire_size(&self) -> u64 {
        OBJECT_ID + LEN + self.type_name.len() as u64 + value_size(&self.state)
    }
}

/// A synchronizer message.
///
/// Broadcast messages are seen by every mesh member; the runtime also uses
/// unicast for recovery nudges and join handshakes. All handlers are
/// idempotent, so duplicated deliveries (a fault mode of the mesh) are
/// harmless.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ---- Stage 1: AddUpdatesToMesh ----
    /// Master → all: a synchronization round begins; `order` names the
    /// participants, master first (and, under serial turn-taking, the
    /// flush turns).
    BeginSync {
        /// Round number (monotonically increasing).
        round: u64,
        /// Flush order; also the round's participant set.
        order: Vec<MachineId>,
    },
    /// Flushing machine → all: its pending-list batch for this round.
    Ops {
        /// Round number.
        round: u64,
        /// The flushing machine.
        machine: MachineId,
        /// Its pending operations, in issue order. Shared behind an
        /// [`Arc`] so the broadcast fan-out and recovery resends reuse one
        /// allocation instead of deep-copying envelopes per recipient.
        ops: Arc<Vec<WireEnvelope>>,
        /// Async-committed operations this machine issued since its
        /// previous flush, as `(async sequence, envelope)` pairs (the
        /// round-boundary fence of the hybrid commit path: the flush
        /// piggybacks them so round reliability — counts, `OpsRequest`
        /// resends — repairs any lost [`Msg::AsyncOp`] broadcast before
        /// the round applies). Empty when
        /// [`crate::MachineConfig::async_commit`] is off. Each envelope is
        /// the one the issuer's fence window holds, shared.
        asyncs: Arc<Vec<(u64, Arc<WireEnvelope>)>>,
    },
    /// Flushing machine → the round's master: confirmation that its flush
    /// is complete (`count` operations). Under serial turn-taking
    /// ([`crate::Flush::passes_turn`]) it goes to all, and may open the
    /// turn of the next machine in order ([`crate::Flush::turn_open`]).
    FlushDone {
        /// Round number.
        round: u64,
        /// The machine that finished flushing.
        machine: MachineId,
        /// Number of operations it flushed.
        count: u64,
    },

    // ---- Stage 2: ApplyUpdatesFromMesh ----
    /// Master → all: every participant flushed; apply the consolidated
    /// pending list. `counts` is the authoritative per-machine op count
    /// (machines removed by recovery are absent). Under the parallel flush
    /// the master's turn comes last ([`crate::Flush::master_cuts`]): it
    /// flushes as stage 1 closes, and its batch travels here instead of in a
    /// [`Msg::Ops`] of its own: counts and batch arrive together, one link
    /// after the cut. Under serial turn-taking the master flushed first and
    /// both are empty.
    BeginApply {
        /// Round number.
        round: u64,
        /// Authoritative `(machine, op count)` pairs for the round.
        counts: Vec<(MachineId, u64)>,
        /// The master's own batch, as [`Msg::Ops::ops`] would carry it.
        ops: Arc<Vec<WireEnvelope>>,
        /// The master's async fence window, as [`Msg::Ops::asyncs`] would.
        asyncs: Arc<Vec<(u64, Arc<WireEnvelope>)>>,
    },
    /// Participant → source machine: some of your round-`round` operations
    /// never arrived here; please resend your batch.
    OpsRequest {
        /// Round number.
        round: u64,
    },
    /// Participant → master: applied everything, committed state updated.
    Ack {
        /// Round number.
        round: u64,
        /// The acknowledging machine.
        machine: MachineId,
    },

    // ---- Stage 3: FlagCompletion ----
    /// Master → all: the round is complete.
    SyncComplete {
        /// Round number.
        round: u64,
    },

    // ---- Hybrid commit path (commute-first async commits) ----
    /// Issuer → all: a universally-commuting operation, already committed
    /// on the issuer, to be applied at each receiver in arrival order
    /// (per-sender FIFO by `aseq`). Not part of any round; see
    /// `docs/PROTOCOL.md` "Commute-first async commits".
    AsyncOp {
        /// Per-sender async sequence number (contiguous from 0); receivers
        /// use it for per-sender FIFO ordering and duplicate suppression.
        aseq: u64,
        /// The committed operation with its issue identity.
        env: WireEnvelope,
    },

    // ---- Recovery ----
    /// Master → all: these machines were removed from the current round
    /// (stalled); do not wait for their flush and discard their ops.
    RoundUpdate {
        /// Round number.
        round: u64,
        /// Machines removed from the round.
        removed: Vec<MachineId>,
    },
    /// Master → machine: you are out of sync; shut down and re-enter.
    Restart,
    /// Member → all: the master has been silent past the failover
    /// threshold; I stand for election with this much committed progress.
    MasterCandidate {
        /// The candidate.
        machine: MachineId,
        /// The candidate's last applied round (election rank, ties broken
        /// by smaller machine id).
        last_round: u64,
    },
    /// Master → all: I am alive (quells in-progress elections; also sent
    /// by a freshly promoted master to announce itself).
    MasterHeartbeat,

    // ---- Membership ----
    /// New machine → all (master handles): request to enter the system.
    JoinRequest {
        /// The joining machine.
        machine: MachineId,
    },
    /// Master → joining machine: the list of available objects (with
    /// committed state) and the completed-operation history.
    JoinInfo {
        /// Every shared object's identity, type and committed state.
        catalog: Vec<ObjectInit>,
        /// Ids of all committed operations (the sequence `C`).
        completed: Vec<OpId>,
        /// The serialized-only subsequence of `completed`, in round order
        /// (equal to `completed` unless the hybrid commit path is on).
        /// The joiner anchors its own serialized sequence here so the
        /// prefix-agreement oracle holds across joins.
        completed_serialized: Vec<OpId>,
        /// Per-sender async watermarks on the master (`next expected
        /// aseq`); the joiner starts its receive state here so async ops
        /// already folded into the shipped catalog are not applied twice.
        async_watermarks: Vec<(MachineId, u64)>,
    },
    /// Joining machine → master: initialized; include me from the next
    /// synchronization onward.
    JoinReady {
        /// The now-initialized machine.
        machine: MachineId,
    },
    /// Departing machine → all: remove me from future synchronizations.
    Leave {
        /// The departing machine.
        machine: MachineId,
    },
}

/// Modelled size of a flushed batch and the async window beside it,
/// wherever they travel: two length prefixes and every envelope.
fn batch_size(ops: &[WireEnvelope], asyncs: &[(u64, Arc<WireEnvelope>)]) -> u64 {
    LEN + ops.iter().map(WireEnvelope::wire_size).sum::<u64>()
        + LEN
        + asyncs.iter().map(|(_, e)| 8 + e.wire_size()).sum::<u64>()
}

impl Msg {
    /// Estimated encoded size in bytes (see the module's wire-size model).
    ///
    /// This feeds [`guesstimate_net::Actor::msg_size`] so the drivers can
    /// account `bytes_sent`/`bytes_delivered` structurally: an `Ops`
    /// batch is charged for every envelope it carries, a `JoinInfo` for
    /// the whole catalog and history it ships.
    pub fn wire_size(&self) -> u64 {
        TAG + match self {
            Msg::BeginSync { order, .. } => ROUND + LEN + order.len() as u64 * MACHINE_ID,
            Msg::Ops { ops, asyncs, .. } => ROUND + MACHINE_ID + batch_size(ops, asyncs),
            Msg::FlushDone { .. } => ROUND + MACHINE_ID + 8,
            Msg::BeginApply {
                counts,
                ops,
                asyncs,
                ..
            } => ROUND + LEN + counts.len() as u64 * (MACHINE_ID + 8) + batch_size(ops, asyncs),
            Msg::OpsRequest { .. } | Msg::SyncComplete { .. } => ROUND,
            Msg::AsyncOp { env, .. } => 8 + env.wire_size(),
            Msg::Ack { .. } => ROUND + MACHINE_ID,
            Msg::RoundUpdate { removed, .. } => ROUND + LEN + removed.len() as u64 * MACHINE_ID,
            Msg::Restart | Msg::MasterHeartbeat => 0,
            Msg::MasterCandidate { .. } => MACHINE_ID + ROUND,
            Msg::JoinRequest { machine: _ } | Msg::JoinReady { machine: _ } => MACHINE_ID,
            Msg::JoinInfo {
                catalog,
                completed,
                completed_serialized,
                async_watermarks,
            } => {
                LEN + catalog.iter().map(ObjectInit::wire_size).sum::<u64>()
                    + LEN
                    + completed.len() as u64 * OP_ID
                    + LEN
                    + completed_serialized.len() as u64 * OP_ID
                    + LEN
                    + async_watermarks.len() as u64 * (MACHINE_ID + 8)
            }
            Msg::Leave { machine: _ } => MACHINE_ID,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guesstimate_core::args;

    #[test]
    fn messages_are_cloneable_and_comparable() {
        let m = Msg::BeginSync {
            round: 3,
            order: vec![MachineId::new(0), MachineId::new(1)],
        };
        assert_eq!(m, m.clone());
        let o = Msg::Ops {
            round: 3,
            machine: MachineId::new(1),
            ops: Arc::new(vec![WireEnvelope {
                id: OpId::new(MachineId::new(1), 0),
                op: WireOp::Shared(SharedOp::primitive(
                    ObjectId::new(MachineId::new(0), 0),
                    "f",
                    args![1],
                )),
            }]),
            asyncs: Arc::new(vec![]),
        };
        assert_eq!(o, o.clone());
        assert_ne!(m, o);
    }

    #[test]
    fn wire_create_roundtrips_fields() {
        let w = WireOp::Create {
            object: ObjectId::new(MachineId::new(2), 5),
            type_name: "Sudoku".into(),
            init: Value::from(1),
        };
        let (object, type_name, init) = w.as_create().expect("is a Create");
        assert_eq!(object.creator(), MachineId::new(2));
        assert_eq!(type_name, "Sudoku");
        assert_eq!(init, &Value::from(1));
        assert!(w.as_shared().is_none());
    }

    #[test]
    fn wire_size_scales_with_batch_contents() {
        let env = |seq| WireEnvelope {
            id: OpId::new(MachineId::new(1), seq),
            op: WireOp::Shared(SharedOp::primitive(
                ObjectId::new(MachineId::new(0), 0),
                "add",
                args![1],
            )),
        };
        let empty = Msg::Ops {
            round: 1,
            machine: MachineId::new(1),
            ops: Arc::new(vec![]),
            asyncs: Arc::new(vec![]),
        };
        let one = Msg::Ops {
            round: 1,
            machine: MachineId::new(1),
            ops: Arc::new(vec![env(0)]),
            asyncs: Arc::new(vec![]),
        };
        let two = Msg::Ops {
            round: 1,
            machine: MachineId::new(1),
            ops: Arc::new(vec![env(0), env(1)]),
            asyncs: Arc::new(vec![]),
        };
        assert!(empty.wire_size() < one.wire_size());
        assert_eq!(
            two.wire_size() - one.wire_size(),
            one.wire_size() - empty.wire_size(),
            "each identical envelope adds the same number of bytes"
        );
        // The master's batch inside `BeginApply` is sized as it would be
        // inside `Ops`: an envelope in the batch, or in the window with its
        // sequence number, costs the same on either carrier.
        let riding = |ops: Vec<WireEnvelope>, asyncs: Vec<(u64, WireEnvelope)>| {
            let asyncs = asyncs.into_iter().map(|(a, e)| (a, Arc::new(e))).collect();
            let (ops, asyncs) = (Arc::new(ops), Arc::new(asyncs));
            let begin_apply = Msg::BeginApply {
                round: 1,
                counts: vec![(MachineId::new(0), 1), (MachineId::new(1), 0)],
                ops: Arc::clone(&ops),
                asyncs: Arc::clone(&asyncs),
            };
            let ops = Msg::Ops {
                round: 1,
                machine: MachineId::new(0),
                ops,
                asyncs,
            };
            (begin_apply.wire_size(), ops.wire_size())
        };
        let (bare, header) = riding(vec![], vec![]);
        for (ops, asyncs) in [
            (vec![env(0)], vec![]),
            (vec![env(0), env(1)], vec![(4, env(2))]),
            (vec![], vec![(4, env(2)), (5, env(3))]),
        ] {
            let (carried, sent_alone) = riding(ops, asyncs);
            assert!(carried > bare);
            assert_eq!(carried - bare, sent_alone - header);
        }
        // A longer method name costs exactly its extra UTF-8 bytes.
        let short = WireOp::Shared(SharedOp::primitive(
            ObjectId::new(MachineId::new(0), 0),
            "f",
            args![],
        ));
        let long = WireOp::Shared(SharedOp::primitive(
            ObjectId::new(MachineId::new(0), 0),
            "frobnicate",
            args![],
        ));
        assert_eq!(
            long.wire_size() - short.wire_size(),
            "frobnicate".len() as u64 - 1
        );
    }

    #[test]
    fn wire_size_covers_every_message_variant() {
        let machine = MachineId::new(3);
        let window = Arc::new(vec![(
            0,
            Arc::new(WireEnvelope {
                id: OpId::new(machine, 0),
                op: WireOp::Shared(SharedOp::primitive(ObjectId::new(machine, 0), "f", args![])),
            }),
        )]);
        let msgs = vec![
            Msg::BeginSync {
                round: 1,
                order: vec![machine],
            },
            Msg::Ops {
                round: 1,
                machine,
                ops: Arc::new(vec![]),
                asyncs: Arc::clone(&window),
            },
            Msg::AsyncOp {
                aseq: 0,
                env: WireEnvelope {
                    id: OpId::new(machine, 1),
                    op: WireOp::Shared(SharedOp::primitive(
                        ObjectId::new(machine, 0),
                        "g",
                        args![1],
                    )),
                },
            },
            Msg::FlushDone {
                round: 1,
                machine,
                count: 0,
            },
            Msg::BeginApply {
                round: 1,
                counts: vec![(machine, 2)],
                ops: Arc::new(vec![]),
                asyncs: window,
            },
            Msg::OpsRequest { round: 1 },
            Msg::Ack { round: 1, machine },
            Msg::SyncComplete { round: 1 },
            Msg::RoundUpdate {
                round: 1,
                removed: vec![machine],
            },
            Msg::Restart,
            Msg::MasterCandidate {
                machine,
                last_round: 0,
            },
            Msg::MasterHeartbeat,
            Msg::JoinRequest { machine },
            Msg::JoinInfo {
                catalog: vec![ObjectInit {
                    id: ObjectId::new(machine, 0),
                    type_name: "Counter".into(),
                    state: Value::from(0),
                }],
                completed: vec![OpId::new(machine, 0)],
                completed_serialized: vec![OpId::new(machine, 0)],
                async_watermarks: vec![(machine, 3)],
            },
            Msg::JoinReady { machine },
            Msg::Leave { machine },
        ];
        for m in msgs {
            assert!(m.wire_size() >= 1, "{m:?} has at least its tag byte");
        }
    }

    #[test]
    fn wire_shared_accessor_mirrors_create_accessor() {
        let op = SharedOp::primitive(ObjectId::new(MachineId::new(0), 0), "f", args![1]);
        let w = WireOp::Shared(op.clone());
        assert_eq!(w.as_shared(), Some(&op));
        assert!(w.as_create().is_none());
    }
}

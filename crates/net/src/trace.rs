//! Structured, allocation-light protocol tracing.
//!
//! The GUESSTIMATE synchronizer is a three-stage master/slave protocol whose
//! behaviour under latency and faults is hard to reconstruct from aggregate
//! counters alone. This module defines a small, fixed vocabulary of
//! [`TraceEvent`]s — one per protocol transition worth observing — and a
//! pluggable [`Tracer`] sink that protocol participants call at each
//! transition.
//!
//! Design constraints:
//!
//! * **Allocation-light.** Every event variant carries only `Copy` scalars
//!   (round numbers, machine ids, op counts). Emitting an event never
//!   allocates; a disabled tracer ([`NoopTracer`], the default) costs one
//!   dynamic call per event.
//! * **Driver-agnostic.** Events are stamped with the [`SimTime`] of the
//!   emitting callback, so the same instrumentation works under the
//!   deterministic virtual-time driver ([`crate::SimNet`]) and the
//!   wall-clock threaded driver ([`crate::ThreadedNet`]).
//! * **Thread-safe.** [`Tracer`] is `Send + Sync`; one sink may be shared by
//!   every machine in a cluster (the threaded driver invokes actors from
//!   multiple threads).
//!
//! Consumers either collect events in memory with [`RecordingTracer`] (the
//! figures write its records out as JSON lines) or stream them elsewhere
//! with a custom [`Tracer`] impl (`guesstimate-obs`'s flight recorder).

use std::fmt;

use guesstimate_core::MachineId;

use crate::time::SimTime;

/// Why a machine re-executed guesstimated work: the cause tag carried by
/// every [`TraceEvent::Reexecuted`] record, so a merged cluster timeline
/// can attribute each `sg` replay (or in-place patch) to what forced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayCause {
    /// The round committed foreign operations, so `sg` was rebuilt from
    /// `sc` and every pending op re-executed after them.
    ForeignConflict,
    /// Ordinary round bookkeeping: the round carried only this machine's
    /// own commits (or nothing replay-relevant) but still-pending ops had
    /// to re-execute onto the rebuilt guesstimate.
    RoundReplay,
    /// The hybrid commit path patched a foreign async commit into `sc`
    /// and `sg` in place (per-sender reorder-buffer drain).
    AsyncPatch,
    /// Pending ops issued before (or while) joining re-executed onto a
    /// fresh join snapshot.
    JoinReplay,
}

impl ReplayCause {
    /// Stable snake_case name for this cause, suitable for log keys.
    pub fn name(&self) -> &'static str {
        match self {
            ReplayCause::ForeignConflict => "foreign_conflict",
            ReplayCause::RoundReplay => "round_replay",
            ReplayCause::AsyncPatch => "async_patch",
            ReplayCause::JoinReplay => "join_replay",
        }
    }
}

/// One observable transition of the sync protocol.
///
/// Variants map one-to-one onto the protocol described in
/// `docs/PROTOCOL.md`: stage 1 (*AddUpdatesToMesh*) opens and closes one
/// flush window per participant; stage 2 (*ApplyUpdatesFromMesh*) starts
/// with the master's authoritative [`TraceEvent::BeginApply`] and ends when
/// every participant has acked; stage 3 (*FlagCompletion*) is the
/// [`TraceEvent::SyncComplete`] broadcast. Recovery shows up as
/// [`TraceEvent::Resend`] / [`TraceEvent::OpsResendRequested`] /
/// [`TraceEvent::Removed`] / [`TraceEvent::Restarted`]; failover as the
/// election events.
///
/// Every variant carries only `Copy` scalars so that emitting an event never
/// allocates. The emitting machine and timestamp live on the enclosing
/// [`TraceRecord`], so e.g. [`TraceEvent::Restarted`] needs no fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The master opened sync round `round` with a `BeginSync` broadcast.
    RoundStarted {
        /// Round number (master's committed-prefix length at round start).
        round: u64,
        /// Number of machines participating (master included).
        participants: u32,
    },
    /// The master granted `machine` the (serial) flush turn for `round`.
    FlushWindowOpened {
        /// Round number.
        round: u64,
        /// Machine whose turn it now is to flush.
        machine: MachineId,
    },
    /// The master recorded `machine`'s `FlushDone` for `round`.
    FlushWindowClosed {
        /// Round number.
        round: u64,
        /// Machine that finished flushing.
        machine: MachineId,
        /// Number of operations that machine contributed.
        ops: u64,
    },
    /// The emitting machine broadcast its pending-operation batch.
    OpsBatchSent {
        /// Round number.
        round: u64,
        /// Number of operations in the batch.
        ops: u64,
    },
    /// The emitting machine received a peer's operation batch.
    OpsBatchReceived {
        /// Round number.
        round: u64,
        /// Machine whose batch arrived.
        from: MachineId,
        /// Number of operations in the batch.
        ops: u64,
    },
    /// The master broadcast `BeginApply`, fixing the round's contents.
    BeginApply {
        /// Round number.
        round: u64,
        /// Total operations across all flushed batches.
        ops_total: u64,
    },
    /// The master recorded `machine`'s apply `Ack` for `round`.
    AckReceived {
        /// Round number.
        round: u64,
        /// Machine that acked (the master acks itself).
        machine: MachineId,
    },
    /// The master broadcast `SyncComplete`, ending `round`.
    SyncComplete {
        /// Round number.
        round: u64,
        /// Operations committed by the round.
        ops_committed: u64,
    },
    /// The emitting (non-master) machine observed `SyncComplete` for `round`.
    SyncCompleteReceived {
        /// Round number.
        round: u64,
    },
    /// The master re-sent a stage's kickoff to a straggler.
    ///
    /// `stage` is `1` for a `BeginSync` re-send (flush never observed) or
    /// `2` for a `BeginApply` re-send (ack never observed).
    Resend {
        /// Round number.
        round: u64,
        /// Straggling machine being nudged.
        machine: MachineId,
        /// Protocol stage the nudge belongs to (1 or 2).
        stage: u8,
    },
    /// The emitting machine asked `source` to re-send its batch for `round`.
    OpsResendRequested {
        /// Round number.
        round: u64,
        /// Machine whose batch is missing.
        source: MachineId,
    },
    /// The master removed an unresponsive `machine` from `round`.
    Removed {
        /// Round number.
        round: u64,
        /// Machine dropped from the round (told to restart).
        machine: MachineId,
    },
    /// The emitting machine reset itself and is rejoining the mesh.
    Restarted,
    /// The emitting machine refused a `JoinInfo` it could not install (a
    /// type it has not registered, or a snapshot that does not restore)
    /// and stays as it was, to ask again on its next join retry.
    JoinRefused,
    /// The emitting machine handed one send action to the mesh driver.
    ///
    /// `(source, stamp)` is the message's **causal stamp**: drivers assign
    /// one monotone stamp per send *action*, so a broadcast's fan-out legs
    /// all share it — one `MsgSent` pairs with up to N
    /// [`TraceEvent::MsgReceived`] records, and each such pair is a
    /// send→receive happens-before edge of the cluster timeline. A dropped
    /// leg simply has no matching receive.
    MsgSent {
        /// The driver's per-send-action causal stamp (monotone per driver).
        stamp: u64,
        /// Static message kind (see `Actor::msg_kind`).
        kind: &'static str,
        /// Structural wire size of the message in bytes.
        bytes: u64,
    },
    /// The emitting machine received (and processed) one message.
    ///
    /// `(origin, stamp)` names the matching [`TraceEvent::MsgSent`]; a
    /// duplicated delivery repeats the receive with the same stamp.
    MsgReceived {
        /// The machine that sent the message.
        origin: MachineId,
        /// The sender's causal stamp for the carrying send action.
        stamp: u64,
        /// Static message kind (see `Actor::msg_kind`).
        kind: &'static str,
    },
    /// The emitting machine re-executed guesstimated work, tagged with why.
    ///
    /// Machine-scoped (like [`TraceEvent::Restarted`]): the `round` field
    /// is informational — `0` for causes that are not round-driven
    /// ([`ReplayCause::AsyncPatch`], [`ReplayCause::JoinReplay`]).
    Reexecuted {
        /// Round that drove the re-execution (0 when not round-driven).
        round: u64,
        /// Number of operations re-executed (or patched in place).
        pending: u64,
        /// What forced the re-execution.
        cause: ReplayCause,
    },
    /// The emitting machine started a master election.
    ElectionStarted {
        /// Last round the candidate saw complete.
        last_round: u64,
    },
    /// The emitting machine won an election and promoted itself to master.
    ElectionWon {
        /// Round number the new master will run next.
        round: u64,
    },
}

impl TraceEvent {
    /// Stable snake_case name for this event, suitable for log keys.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::RoundStarted { .. } => "round_started",
            TraceEvent::FlushWindowOpened { .. } => "flush_window_opened",
            TraceEvent::FlushWindowClosed { .. } => "flush_window_closed",
            TraceEvent::OpsBatchSent { .. } => "ops_batch_sent",
            TraceEvent::OpsBatchReceived { .. } => "ops_batch_received",
            TraceEvent::BeginApply { .. } => "begin_apply",
            TraceEvent::AckReceived { .. } => "ack_received",
            TraceEvent::SyncComplete { .. } => "sync_complete",
            TraceEvent::SyncCompleteReceived { .. } => "sync_complete_received",
            TraceEvent::Resend { .. } => "resend",
            TraceEvent::OpsResendRequested { .. } => "ops_resend_requested",
            TraceEvent::Removed { .. } => "removed",
            TraceEvent::Restarted => "restarted",
            TraceEvent::JoinRefused => "join_refused",
            TraceEvent::MsgSent { .. } => "msg_sent",
            TraceEvent::MsgReceived { .. } => "msg_received",
            TraceEvent::Reexecuted { .. } => "reexecuted",
            TraceEvent::ElectionStarted { .. } => "election_started",
            TraceEvent::ElectionWon { .. } => "election_won",
        }
    }

    /// The sync round this event belongs to, if it is round-scoped.
    ///
    /// [`TraceEvent::Restarted`], [`TraceEvent::JoinRefused`], the
    /// election events, the causal-stamp
    /// events ([`TraceEvent::MsgSent`]/[`TraceEvent::MsgReceived`]) and
    /// [`TraceEvent::Reexecuted`] are machine-scoped and return `None`
    /// (`Reexecuted` keeps its informational `round` field out of the
    /// round timelines because async patches and join replays are not
    /// driven by any round).
    pub fn round(&self) -> Option<u64> {
        match *self {
            TraceEvent::RoundStarted { round, .. }
            | TraceEvent::FlushWindowOpened { round, .. }
            | TraceEvent::FlushWindowClosed { round, .. }
            | TraceEvent::OpsBatchSent { round, .. }
            | TraceEvent::OpsBatchReceived { round, .. }
            | TraceEvent::BeginApply { round, .. }
            | TraceEvent::AckReceived { round, .. }
            | TraceEvent::SyncComplete { round, .. }
            | TraceEvent::SyncCompleteReceived { round }
            | TraceEvent::Resend { round, .. }
            | TraceEvent::OpsResendRequested { round, .. }
            | TraceEvent::Removed { round, .. } => Some(round),
            TraceEvent::Restarted
            | TraceEvent::JoinRefused
            | TraceEvent::MsgSent { .. }
            | TraceEvent::MsgReceived { .. }
            | TraceEvent::Reexecuted { .. }
            | TraceEvent::ElectionStarted { .. }
            | TraceEvent::ElectionWon { .. } => None,
        }
    }
}

/// A timestamped, attributed [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the event was emitted (virtual time under [`crate::SimNet`],
    /// wall-derived time under [`crate::ThreadedNet`]).
    pub at: SimTime,
    /// The machine that emitted the event.
    pub source: MachineId,
    /// What happened.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}] {:?}", self.at, self.source, self.event)
    }
}

/// A sink for protocol trace events.
///
/// Implementations must be cheap and non-blocking where possible: `record`
/// is called from inside actor callbacks, i.e. on the critical path of the
/// protocol. One tracer instance may be shared by every machine in a
/// cluster.
pub trait Tracer: Send + Sync {
    /// Accepts one event. Must not panic.
    fn record(&self, record: TraceRecord);
}

/// The default tracer: discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn record(&self, _record: TraceRecord) {}
}

/// A tracer that buffers every event in memory, in arrival order.
///
/// Under the deterministic virtual-time driver, arrival order is the
/// (deterministic) event execution order, so recorded traces are stable
/// across runs with the same seed.
#[derive(Debug, Default)]
pub struct RecordingTracer {
    records: parking_lot::Mutex<Vec<TraceRecord>>,
}

impl RecordingTracer {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.lock().clone()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.records.lock())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }
}

impl Tracer for RecordingTracer {
    fn record(&self, record: TraceRecord) {
        self.records.lock().push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ms: u64, source: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_millis(at_ms),
            source: MachineId::new(source),
            event,
        }
    }

    #[test]
    fn recording_tracer_preserves_order() {
        let t = RecordingTracer::new();
        assert!(t.is_empty());
        t.record(rec(
            1,
            0,
            TraceEvent::RoundStarted {
                round: 7,
                participants: 3,
            },
        ));
        t.record(rec(2, 1, TraceEvent::OpsBatchSent { round: 7, ops: 4 }));
        assert_eq!(t.len(), 2);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].event.round(), Some(7));
        assert_eq!(snap[0].source, MachineId::new(0));
        assert!(snap[0].at < snap[1].at);
        // take drains
        assert_eq!(t.take().len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn event_names_are_stable_and_distinct() {
        let m = MachineId::new(1);
        let events = [
            TraceEvent::RoundStarted {
                round: 0,
                participants: 1,
            },
            TraceEvent::FlushWindowOpened {
                round: 0,
                machine: m,
            },
            TraceEvent::FlushWindowClosed {
                round: 0,
                machine: m,
                ops: 0,
            },
            TraceEvent::OpsBatchSent { round: 0, ops: 0 },
            TraceEvent::OpsBatchReceived {
                round: 0,
                from: m,
                ops: 0,
            },
            TraceEvent::BeginApply {
                round: 0,
                ops_total: 0,
            },
            TraceEvent::AckReceived {
                round: 0,
                machine: m,
            },
            TraceEvent::SyncComplete {
                round: 0,
                ops_committed: 0,
            },
            TraceEvent::SyncCompleteReceived { round: 0 },
            TraceEvent::Resend {
                round: 0,
                machine: m,
                stage: 1,
            },
            TraceEvent::OpsResendRequested {
                round: 0,
                source: m,
            },
            TraceEvent::Removed {
                round: 0,
                machine: m,
            },
            TraceEvent::Restarted,
            TraceEvent::JoinRefused,
            TraceEvent::MsgSent {
                stamp: 0,
                kind: "msg",
                bytes: 0,
            },
            TraceEvent::MsgReceived {
                origin: m,
                stamp: 0,
                kind: "msg",
            },
            TraceEvent::Reexecuted {
                round: 0,
                pending: 0,
                cause: ReplayCause::RoundReplay,
            },
            TraceEvent::ElectionStarted { last_round: 0 },
            TraceEvent::ElectionWon { round: 0 },
        ];
        let names: std::collections::BTreeSet<_> = events.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), events.len(), "names must be distinct");
        // Round-scoped vs machine-scoped split.
        assert_eq!(
            events.iter().filter(|e| e.round().is_none()).count(),
            7,
            "restarted + join_refused + elections + causal-stamp events + reexecuted are machine-scoped"
        );
    }

    #[test]
    fn replay_cause_names_are_stable_and_distinct() {
        let causes = [
            ReplayCause::ForeignConflict,
            ReplayCause::RoundReplay,
            ReplayCause::AsyncPatch,
            ReplayCause::JoinReplay,
        ];
        let names: std::collections::BTreeSet<_> = causes.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), causes.len());
        assert_eq!(ReplayCause::ForeignConflict.name(), "foreign_conflict");
    }

    #[test]
    fn noop_tracer_discards() {
        // Compiles and runs; nothing observable to assert beyond not panicking.
        NoopTracer.record(rec(0, 0, TraceEvent::Restarted));
    }
}

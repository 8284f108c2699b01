//! Role-scoped protocol state machines (the §4 synchronizer, decomposed).
//!
//! The synchronizer is four distinct protocols, and each lives here as its
//! own **sans-IO state machine**: [`master`] drives rounds, [`participant`]
//! flushes and applies them, [`membership`] handles entering/leaving, and
//! [`election`] runs the §9 master-failover extension. A role owns its
//! state and exposes a pure `step(event, now, cfg) -> Vec<Effect>`
//! transition function; it never touches the network, the clock, or the
//! replicated stores directly.
//!
//! [`Effect`]s are lowered **in emission order** by the composer in
//! `crate::protocol`: externally observable effects become
//! `guesstimate_net` actions (send / broadcast / set-timer) or trace
//! records, while internal effects (commit a batch, flush the pending
//! list, promote, restart) are commands back into the composer, which may
//! recursively feed further events to other roles. Depth-first lowering
//! reproduces the exact action sequence of the pre-split monolith, so the
//! decomposition is observationally invisible: byte-identical message
//! streams, timer arms, and committed histories.

#![deny(missing_docs)]

pub mod election;
pub mod master;
pub mod membership;
pub mod participant;

use guesstimate_core::MachineId;
use guesstimate_net::{Channel, SimTime, TraceEvent};
use std::sync::Arc;

use crate::message::{Msg, WireEnvelope};
use crate::stats::SyncSample;

/// Namespaced timer tags.
///
/// Every timer a role arms carries a `u64` tag encoding `(kind, round)`:
/// the low 8 bits name the timer kind (scoped to the role that owns it),
/// the high 56 bits carry the round (or election generation) so a stale
/// timer for a finished round can be recognized and dropped. Tags are
/// opaque to the drivers — neither `SimNet` nor `SchedNet` ordering ever
/// depends on a tag's value.
pub mod tag {
    /// Master: a round is wanted. Armed for `sync_period` after a round
    /// *started*: when it starts under the parallel flush -- the next round
    /// may begin while this one applies, so a round starts every
    /// `sync_period`, or as soon as stage 1 is free -- and when it completes
    /// under serial turns (at once if it ran longer), which run one round at
    /// a time.
    pub const MASTER_TICK: u64 = 0;
    /// Master: stage-1 (flush) stall check for the encoded round.
    pub const MASTER_STAGE1: u64 = 1;
    /// Master: stage-2 (apply) stall check for the encoded round.
    pub const MASTER_STAGE2: u64 = 2;
    /// Membership: re-send `JoinRequest` until admitted.
    pub const MEMBERSHIP_JOIN_RETRY: u64 = 3;
    /// Election: periodic master-silence check.
    pub const ELECTION_WATCHDOG: u64 = 4;
    /// Election: candidacy window closes (round field = generation).
    pub const ELECTION_END: u64 = 5;
    /// Membership: a tick held for join handshakes in flight has waited
    /// `stall_timeout` (round field = hold generation).
    pub const MEMBERSHIP_JOIN_HOLD: u64 = 6;

    /// Bits available for the round/generation field.
    pub const ROUND_BITS: u32 = 56;

    /// Encodes a `(kind, round)` pair into one tag.
    ///
    /// The round must fit the 56-bit field; a round that overflowed into
    /// the kind byte would silently alias another timer kind, so this is
    /// a `debug_assert!`ed hard precondition.
    pub fn encode(kind: u64, round: u64) -> u64 {
        debug_assert!(kind <= 0xFF, "timer kind {kind} exceeds the 8-bit field");
        debug_assert!(
            round < (1u64 << ROUND_BITS),
            "round {round} exceeds the 56-bit tag field; tags would alias across kinds"
        );
        kind | (round << 8)
    }

    /// The kind byte of an encoded tag.
    pub fn kind(tag: u64) -> u64 {
        tag & 0xFF
    }

    /// The round (or generation) field of an encoded tag.
    pub fn round(tag: u64) -> u64 {
        tag >> 8
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn round_trips() {
            let t = encode(MASTER_STAGE2, 7);
            assert_eq!(kind(t), MASTER_STAGE2);
            assert_eq!(round(t), 7);
        }

        // The precondition is debug-only, so a release build has nothing
        // to test.
        #[cfg(debug_assertions)]
        #[test]
        #[should_panic(expected = "56-bit")]
        fn oversized_round_is_rejected() {
            let _ = encode(MASTER_TICK, 1u64 << ROUND_BITS);
        }
    }
}

/// One consequence of a role transition, produced by a role's `step` and
/// lowered in order by the composer in `crate::protocol`.
///
/// The first four variants are externally observable (network actions and
/// trace records). The rest are internal commands: the composer lowers
/// them by touching exec-facing state (pending list, stores, stats,
/// telemetry) or by feeding a follow-up event into another role and
/// recursively lowering its effects, depth-first.
#[derive(Debug)]
pub enum Effect {
    /// Unicast `msg` to `to` on `channel`.
    Send {
        /// Destination machine.
        to: MachineId,
        /// Mesh channel to use.
        channel: Channel,
        /// The message.
        msg: Msg,
    },
    /// Broadcast `msg` to every other machine on `channel`.
    Broadcast {
        /// Mesh channel to use.
        channel: Channel,
        /// The message.
        msg: Msg,
    },
    /// Arm a timer `after` from now, carrying a [`tag`]-encoded tag.
    SetTimer {
        /// Delay from now.
        after: SimTime,
        /// Namespaced timer tag.
        tag: u64,
    },
    /// Record a trace event attributed to this machine.
    Trace(TraceEvent),

    /// Install the local participant round (master's own participation).
    StartLocalRound {
        /// Round number.
        round: u64,
        /// Flush order (also the participant set).
        order: Vec<MachineId>,
    },
    /// Flush the pending list into the active round (stage 1), once: this
    /// machine's turn is open ([`crate::Flush::turn_open`]) or a nudge asks.
    /// The master's under the parallel flush is the *cut*.
    Flush,
    /// Re-announce the flush already performed for `round` (recovery nudge).
    RebroadcastFlush {
        /// Round number.
        round: u64,
    },
    /// Apply the round if every expected operation has arrived.
    TryApply,
    /// Clear per-source resend bookkeeping, then [`Effect::TryApply`]
    /// (stage-2 stall: earlier resend requests were probably lost).
    RetryApply,
    /// Re-dispatch round messages that arrived before their `BeginSync`.
    ReplayBuffered(Vec<(MachineId, Msg)>),
    /// Mark this machine as having participated in a round.
    JoinCohort,
    /// Count one completed synchronization in the machine stats.
    CountSync,
    /// Reset all replicated state and re-enter via the join path.
    SelfRestart,
    /// Between rounds: (re)start join handshakes that need servicing.
    ServiceJoins,
    /// Ship the object catalog + completed history to a joining machine.
    SendJoinInfo {
        /// The joining machine.
        to: MachineId,
    },
    /// Send `BeginApply` for `round`, which this machine drives: the counts,
    /// and attached by the lowering the batch and async window this machine
    /// cut for the round when they ride it (the parallel flush; under serial
    /// turns they went out as the master's `Ops` and an empty batch is sent).
    /// The broadcast is also where a riding flush is accounted for
    /// (telemetry, `OpsBatchSent`): behind the send the round waits for.
    BeginApply {
        /// One machine (a stage-2 resend), or `None` for every other one.
        to: Option<MachineId>,
        /// Round number.
        round: u64,
        /// Authoritative per-machine op counts.
        counts: Vec<(MachineId, u64)>,
    },
    /// Deliver `BeginApply` to the local participant (master's own copy).
    BeginApplyLocal {
        /// Round number.
        round: u64,
        /// Authoritative per-machine op counts.
        counts: Vec<(MachineId, u64)>,
    },
    /// Remove a machine the master role dropped from the member set.
    RemoveFromRound {
        /// The machine being removed.
        machine: MachineId,
    },
    /// Drop the local participant's closing round (the master finished it).
    ClearRound,
    /// Record a finished round: telemetry, trace, stats sample.
    RoundFinished {
        /// The completed round's health sample.
        sample: SyncSample,
    },
    /// The master's pipeline has room for the round a tick asked for:
    /// serve joiners if it is empty, then start the round (or hold it for a
    /// handshake).
    RoundDue,
    /// A round this machine's flush rode has completed everywhere: async
    /// fence-window entries up to `through` need no further fencing.
    FenceAsyncs {
        /// The highest async sequence number the flush carried.
        through: u64,
    },
    /// This machine won the election: become master.
    Promote,
    /// This machine lost the election: rejoin under the winner.
    DeferToWinner,
}

/// Read-only view of the round-relevant message payloads shared between
/// roles (the flush batch travels behind an [`Arc`] so broadcast fan-out
/// and recovery resends never deep-copy envelopes).
pub type OpsBatch = Arc<Vec<WireEnvelope>>;

/// The async-committed `(aseq, envelope)` window a flush piggybacks (the
/// hybrid commit path's round-boundary fence), shared behind an [`Arc`]
/// for the same no-copy reason as [`OpsBatch`].
pub type AsyncBatch = Arc<Vec<(u64, WireEnvelope)>>;

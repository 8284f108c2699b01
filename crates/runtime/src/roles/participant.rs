//! The participant side of the §4 synchronizer: flushing into rounds,
//! collecting the consolidated list, applying and acknowledging.
//!
//! Every machine — the master included — participates in rounds through
//! this role. It owns the per-round [`RoundState`], the buffer for round
//! messages that arrive before their `BeginSync` (the Signals and
//! Operations channels are independently delayed, so reordering is
//! normal), and the machine's committed progress (`next_round_expected`).
//! Flushing and applying touch the replicated stores, so those are
//! [`Effect`]s lowered by the composer; everything decided *about* the
//! round — when to flush, when a duplicate signal needs re-answering,
//! when a gap forces a restart — is decided here, purely.
//!
//! A machine holds at most two rounds, one per slot.
//! `ParticipantRole::round` is the round it has not applied yet; applying
//! moves it to `ParticipantRole::closing`, where it waits for the
//! master's `SyncComplete` and meanwhile still answers for what it shipped:
//! a slow peer's `OpsRequest`, a resent `BeginApply` (the `Ack` was lost),
//! a resent `BeginSync`.
//!
//! A member acknowledges a round as it becomes ready to apply
//! (`ParticipantRole::acknowledge`): the `Ack` is the first action of its
//! apply, and the apply itself is the deferred half of the same callback.
//! In between the round is parked in `ParticipantRole::owed`, and the
//! machine pays that apply before it takes any other event, so no event
//! ever finds a round acknowledged and not applied. Under the parallel flush the master may begin
//! round r + 1 while round r is closing, so both slots can be full at once;
//! a machine flushes r + 1 only after it has applied r, which is what keeps
//! an operation's executions at three (issue, one replay, commit).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use guesstimate_core::{MachineId, OpId};
use guesstimate_net::{Channel, SimTime, TraceEvent};

use crate::config::{Flush, MachineConfig};
use crate::message::{Msg, WireEnvelope};
use crate::roles::{AsyncBatch, Effect, OpsBatch};

/// Participant-side state of one round (the master keeps these too — it
/// participates like everyone else).
#[derive(Debug, Clone)]
pub struct RoundState {
    /// Round number.
    pub(crate) round: u64,
    /// Flush order announced in `BeginSync` (master first).
    pub(crate) order: Vec<MachineId>,
    /// The machines whose flush this one no longer waits for: removed by
    /// the master, or heard flushing under serial turns, where `FlushDone`
    /// is a broadcast -- the `done` of the turn rule ([`Flush::turn_open`]).
    pub(crate) done: BTreeSet<MachineId>,
    /// Whether this machine has flushed its pending list.
    pub(crate) flushed: bool,
    /// The batch this machine flushed, kept for recovery resends. Shared
    /// behind an [`Arc`]: the broadcast fan-out and any `OpsRequest` reply
    /// reuse it without copying envelopes.
    pub(crate) my_flush: OpsBatch,
    /// The async-committed window this machine piggybacked on its flush
    /// (hybrid commit path), kept for the same recovery resends.
    pub(crate) my_asyncs: AsyncBatch,
    /// This machine's flush travels inside the round's `BeginApply` rather
    /// than as an `Ops` message of its own: it is the master and cut its
    /// batch as stage 1 closed (the parallel flush). Set by the flush.
    pub(crate) rides_begin_apply: bool,
    /// The run received from each source machine so far: its flushed
    /// batch, strictly ascending by id (see [`sorted_run`]). A repeated
    /// delivery of the same flush replaces the entry.
    pub(crate) received: BTreeMap<MachineId, OpsBatch>,
    /// Authoritative per-machine counts from `BeginApply`, once known.
    pub(crate) counts: Option<BTreeMap<MachineId, u64>>,
    /// Sources already asked for a resend (one request per source per
    /// `BeginApply`).
    pub(crate) resend_requested: BTreeSet<MachineId>,
}

impl RoundState {
    fn new(round: u64, order: Vec<MachineId>) -> Self {
        RoundState {
            round,
            order,
            done: BTreeSet::new(),
            flushed: false,
            my_flush: Arc::new(Vec::new()),
            my_asyncs: Arc::new(Vec::new()),
            rides_begin_apply: false,
            received: BTreeMap::new(),
            counts: None,
            resend_requested: BTreeSet::new(),
        }
    }

    /// The machines `BeginApply` counted whose run has not fully arrived;
    /// `None` until `BeginApply` has named the counts.
    pub(crate) fn missing(&self) -> Option<impl Iterator<Item = MachineId> + '_> {
        let short = |(m, c): (&MachineId, &u64)| {
            let got = self.received.get(m).map_or(0, |ops| ops.len() as u64);
            (got < *c).then_some(*m)
        };
        Some(self.counts.as_ref()?.iter().filter_map(short))
    }

    /// Whether stage 2 can run: the counts are known and every counted run
    /// is here.
    pub(crate) fn ready_to_apply(&self) -> bool {
        self.missing()
            .is_some_and(|mut missing| missing.next().is_none())
    }

    /// Takes the consolidated list stage 2 applies: the received runs of
    /// the machines `BeginApply` counted, in machine order — which, every
    /// run being sorted, is the paper's lexicographic `(machineId,
    /// opNumber)` order. Anything received from an uncounted machine is
    /// discarded with the rest of `received`.
    pub(crate) fn take_runs(&mut self) -> Vec<OpsBatch> {
        let counted = self.counts.iter().flat_map(BTreeMap::keys);
        let runs: Vec<OpsBatch> = counted.filter_map(|m| self.received.remove(m)).collect();
        self.received.clear();
        debug_assert!(runs
            .iter()
            .flat_map(|run| run.iter())
            .is_sorted_by(|a, b| a.id < b.id));
        runs
    }

    /// The highest async sequence number this round's flush carried under
    /// count protection, if any: async-window entries that rode alongside a
    /// **non-empty** serialized batch reach every machine that applies the
    /// round (the batch's `FlushDone` count makes the `Ops` message
    /// resend-protected). A zero-op flush carries the window best-effort
    /// only, so it protects nothing -- unless it rides `BeginApply`, which
    /// no machine applies the round without, whatever the batch holds.
    pub(crate) fn fenced_asyncs(&self) -> Option<u64> {
        let protected = self.flushed && (self.rides_begin_apply || !self.my_flush.is_empty());
        let last = self.my_asyncs.last().filter(|_| protected);
        last.map(|(aseq, _)| *aseq)
    }
}

/// A received batch as the run stage 2 applies. A flush ships `P` in issue
/// order, so an honest batch is already strictly ascending by id and is
/// kept as the sender's own allocation. Anything else was corrupted in
/// flight and is put in the order an id-keyed map would give it: sorted by
/// id, the last of any duplicates winning.
fn sorted_run(ops: OpsBatch) -> OpsBatch {
    if ops.is_sorted_by(|a, b| a.id < b.id) {
        return ops;
    }
    let by_id: BTreeMap<OpId, &WireEnvelope> = ops.iter().map(|e| (e.id, e)).collect();
    Arc::new(by_id.into_values().cloned().collect())
}

/// Inputs to the participant role. `Ops`, which carries no round number, is
/// only fed for the round not yet applied (the composer routes and buffers
/// by round number).
#[derive(Debug)]
pub enum ParticipantEvent {
    /// The master started (or re-announced) a round.
    BeginSync {
        /// Round number.
        round: u64,
        /// Flush order (also the participant set).
        order: Vec<MachineId>,
        /// Whether this machine currently counts itself in the cohort.
        in_cohort: bool,
    },
    /// Another machine announced its flush (serial turn-taking: its
    /// `FlushDone` is a broadcast, and may open this machine's turn).
    FlushDone {
        /// The flushing machine.
        machine: MachineId,
    },
    /// A batch of operations arrived on the Operations channel.
    Ops {
        /// The flushing machine.
        machine: MachineId,
        /// Its batch (shared, not copied).
        ops: OpsBatch,
    },
    /// The master announced the authoritative per-machine counts.
    BeginApply {
        /// Round number.
        round: u64,
        /// The counts.
        counts: Vec<(MachineId, u64)>,
    },
    /// A machine asked us to resend our flushed batch.
    OpsRequest {
        /// Round number.
        round: u64,
        /// Who is asking.
        requester: MachineId,
    },
    /// The master flagged a round complete.
    SyncComplete {
        /// Round number.
        round: u64,
    },
    /// The master removed machines from a round this machine holds.
    RoundUpdate {
        /// Round number.
        round: u64,
        /// The removed machines.
        removed: Vec<MachineId>,
    },
}

/// The participant state machine: one per machine, master included.
#[derive(Debug, Clone)]
pub struct ParticipantRole {
    me: MachineId,
    /// The round this machine has not applied yet, if any.
    pub(crate) round: Option<RoundState>,
    /// The round this machine has applied and the master has not yet
    /// flagged complete, if any: the predecessor of `round`, or of the
    /// round to come.
    pub(crate) closing: Option<RoundState>,
    /// The round this member has acknowledged and owes the apply of: it
    /// left `round` ready and waits here for the deferred half of the
    /// callback that acknowledged it, which every event to the machine pays
    /// first (`Machine::pay_owed`). Never the master's, which applies at once.
    pub(crate) owed: Option<RoundState>,
    /// Round messages that arrived before their `BeginSync` — and a
    /// `BeginSync` that overtook its predecessor's `BeginApply` — keyed by
    /// round number.
    pub(crate) buffered: BTreeMap<u64, Vec<(MachineId, Msg)>>,
    /// The next round this machine expects to take part in. `None` means
    /// freshly (re)joined — any first round is acceptable, because the
    /// join snapshot already covers all earlier history. `Some(n)` means
    /// the numbering is anchored: a `BeginSync` for a round greater than
    /// `n` proves at least one whole round was missed (committed-state
    /// gap).
    ///
    /// This replaces the former `last_round_applied: Option<u64>`
    /// watermark, whose `Some(round - 1)` seeding conflated "applied
    /// round 0" with "never applied anything" at round 0 and let the gap
    /// check wave a missed round 0 through.
    pub(crate) next_round_expected: Option<u64>,
}

impl ParticipantRole {
    /// A fresh role for machine `me`.
    pub fn new(me: MachineId) -> Self {
        ParticipantRole {
            me,
            round: None,
            closing: None,
            owed: None,
            buffered: BTreeMap::new(),
            next_round_expected: None,
        }
    }

    /// The newest round this machine is in: the one it has yet to apply,
    /// else the one it has applied and not yet seen completed.
    pub fn active_round(&self) -> Option<u64> {
        let newest = self.round.as_ref().or(self.closing.as_ref());
        newest.map(|rs| rs.round)
    }

    /// The newest round this machine holds that it has flushed.
    pub fn flushed_round(&self) -> Option<u64> {
        let slots = [self.round.as_ref(), self.closing.as_ref()];
        let flushed = slots.into_iter().flatten().find(|rs| rs.flushed);
        flushed.map(|rs| rs.round)
    }

    /// The next round this machine expects (`None` until a first round is
    /// seen after a fresh (re)join).
    pub fn next_round_expected(&self) -> Option<u64> {
        self.next_round_expected
    }

    /// The committed-progress rank used by the §9 failover election: the
    /// last round known applied (0 when fresh). Derived from
    /// [`ParticipantRole::next_round_expected`] so the election ranks
    /// match the pre-`next_round_expected` encoding exactly.
    pub(crate) fn election_round_hint(&self) -> u64 {
        self.next_round_expected
            .map_or(0, |next| next.saturating_sub(1))
    }

    /// How many early rounds are currently buffered.
    pub fn buffered_rounds(&self) -> usize {
        self.buffered.len()
    }

    /// Buffers a round message that arrived before its `BeginSync`.
    /// Rounds below the expected-round watermark are dropped; the buffer
    /// is bounded to the 8 highest rounds.
    pub(crate) fn buffer_early(&mut self, round: u64, from: MachineId, msg: Msg) {
        if round >= self.next_round_expected.unwrap_or(0) {
            self.buffered.entry(round).or_default().push((from, msg));
            while self.buffered.len() > 8 {
                self.buffered.pop_first();
            }
        }
    }

    /// Forgets both rounds and everything buffered: this machine is out of
    /// the rounds it was in (leave, restart, join, a change of master).
    pub(crate) fn drop_rounds(&mut self) {
        debug_assert!(self.owed.is_none(), "an acknowledged round left unapplied");
        self.round = None;
        self.closing = None;
        self.buffered.clear();
    }

    /// The state of round number `round`, whichever slot holds it.
    pub(crate) fn holding(&self, round: u64) -> Option<&RoundState> {
        let slots = [self.round.as_ref(), self.closing.as_ref()];
        slots.into_iter().flatten().find(|rs| rs.round == round)
    }

    /// Pure transition: consumes one event, returns the effects to lower.
    pub fn step(
        &mut self,
        ev: ParticipantEvent,
        _now: SimTime,
        cfg: &MachineConfig,
    ) -> Vec<Effect> {
        match ev {
            ParticipantEvent::BeginSync {
                round,
                order,
                in_cohort,
            } => self.on_begin_sync(round, order, in_cohort, cfg),
            ParticipantEvent::FlushDone { machine } => {
                let Some(rs) = self.round.as_mut() else {
                    return Vec::new();
                };
                rs.done.insert(machine);
                self.take_turn(cfg.flush).into_iter().collect()
            }
            ParticipantEvent::Ops { machine, ops } => {
                let Some(rs) = self.round.as_mut() else {
                    return Vec::new();
                };
                let n = ops.len() as u64;
                rs.received.insert(machine, sorted_run(ops));
                vec![
                    Effect::Trace(TraceEvent::OpsBatchReceived {
                        round: rs.round,
                        from: machine,
                        ops: n,
                    }),
                    Effect::TryApply,
                ]
            }
            ParticipantEvent::BeginApply { round, counts } => {
                if let Some(rs) = self.closing.as_ref().filter(|rs| rs.round == round) {
                    // Duplicate BeginApply (recovery): our Ack probably got
                    // lost.
                    return self.acknowledge(rs);
                }
                let Some(rs) = self.round.as_mut().filter(|rs| rs.round == round) else {
                    return Vec::new();
                };
                if rs.counts.is_some() {
                    // Duplicate BeginApply while we are still waiting for
                    // operation batches: the earlier OpsRequest (or its
                    // reply) was probably lost — allow a fresh resend
                    // request per source.
                    rs.resend_requested.clear();
                }
                rs.counts = Some(counts.into_iter().collect());
                vec![Effect::TryApply]
            }
            ParticipantEvent::OpsRequest { round, requester } => {
                let Some(rs) = self.holding(round).filter(|rs| rs.flushed) else {
                    return Vec::new();
                };
                vec![Effect::Send {
                    to: requester,
                    channel: Channel::Operations,
                    msg: Msg::Ops {
                        round,
                        machine: self.me,
                        ops: Arc::clone(&rs.my_flush),
                        asyncs: Arc::clone(&rs.my_asyncs),
                    },
                }]
            }
            ParticipantEvent::SyncComplete { round } => {
                if let Some(rs) = self.closing.take_if(|rs| rs.round == round) {
                    let mut fx = Self::closed(&rs);
                    fx.push(Effect::Trace(TraceEvent::SyncCompleteReceived { round }));
                    fx
                } else if self.round.as_ref().is_some_and(|rs| rs.round == round) {
                    // The round completed globally but we never applied it:
                    // we have a committed-state gap and must resync.
                    vec![Effect::SelfRestart]
                } else {
                    Vec::new()
                }
            }
            ParticipantEvent::RoundUpdate { round, removed } => {
                if removed.contains(&self.me) {
                    // The master gave up on us this round -- applied here or
                    // not; resync immediately rather than waiting for the
                    // (possibly lost) Restart signal.
                    return vec![Effect::SelfRestart];
                }
                let Some(rs) = self.round.as_mut().filter(|rs| rs.round == round) else {
                    return Vec::new();
                };
                rs.done.extend(removed.iter().copied());
                let turn = self.take_turn(cfg.flush);
                turn.into_iter().chain([Effect::TryApply]).collect()
            }
        }
    }

    /// [`Effect::Flush`] if this machine has not flushed the round it has
    /// yet to apply and its turn is open: every machine ahead of it in the
    /// round's flush order has been heard flushing or was removed.
    fn take_turn(&self, flush: Flush) -> Option<Effect> {
        let rs = self.round.as_ref().filter(|rs| !rs.flushed)?;
        let open = flush.turn_open(&rs.order, self.me, |m| rs.done.contains(m));
        open.then_some(Effect::Flush)
    }

    /// The `Ack` of `rs` to its master, unless this machine is the master.
    /// A member sends it as the round becomes ready to apply, ahead of the
    /// apply (the composer's `try_apply`), and again for every duplicate
    /// `BeginApply` of a round it has applied.
    pub(crate) fn acknowledge(&self, rs: &RoundState) -> Vec<Effect> {
        let master = rs.order[0];
        if master == self.me {
            return Vec::new();
        }
        vec![Effect::Send {
            to: master,
            channel: Channel::Signals,
            msg: Msg::Ack {
                round: rs.round,
                machine: self.me,
            },
        }]
    }

    /// What a round leaving the closing slot leaves behind: it completed
    /// everywhere, so what its flush fenced needs no more fencing, and it
    /// counts as a synchronization seen.
    fn closed(rs: &RoundState) -> Vec<Effect> {
        let fence = rs.fenced_asyncs();
        let fence = fence.map(|through| Effect::FenceAsyncs { through });
        fence.into_iter().chain([Effect::CountSync]).collect()
    }

    /// This machine has applied `rs` (the composer took it out of
    /// `ParticipantRole::round` and acknowledged it): it moves to the closing
    /// slot — over a predecessor whose `SyncComplete` never came, and which
    /// the master must have completed to let this round into stage 2. A
    /// `BeginSync` for the next round that overtook this round's
    /// `BeginApply` is taken now.
    pub(crate) fn applied(&mut self, rs: RoundState) -> Vec<Effect> {
        let round = rs.round;
        self.next_round_expected = Some(round + 1);
        let before = self.closing.replace(rs);
        let mut fx = before.as_ref().map_or_else(Vec::new, Self::closed);
        let early = self.buffered.get_mut(&(round + 1));
        let overtook = early.and_then(|msgs| {
            let is_begin_sync = |(_, m): &(MachineId, Msg)| matches!(m, Msg::BeginSync { .. });
            Some(msgs.remove(msgs.iter().position(is_begin_sync)?))
        });
        fx.extend(overtook.map(|msg| Effect::ReplayBuffered(vec![msg])));
        fx
    }

    fn on_begin_sync(
        &mut self,
        round: u64,
        order: Vec<MachineId>,
        in_cohort: bool,
        cfg: &MachineConfig,
    ) -> Vec<Effect> {
        let me_in = order.contains(&self.me);
        if let Some(rs) = &self.round {
            if rs.round == round {
                // Duplicate or recovery nudge: make our flush visible again.
                return match (me_in, rs.flushed) {
                    (true, true) => vec![Effect::RebroadcastFlush { round }],
                    (true, false) => vec![Effect::Flush],
                    (false, _) => Vec::new(),
                };
            }
            if rs.round > round {
                return Vec::new();
            }
            if cfg.flush.overlaps() && round == rs.round + 1 {
                // The next round, begun while ours is in stage 2, overtook
                // our `BeginApply`: it waits until we have applied, so that
                // its flush carries only what we issued since ours.
                let master = order.first().copied().unwrap_or(self.me);
                self.buffer_early(round, master, Msg::BeginSync { round, order });
                return Vec::new();
            }
            // A later round is starting while this one never finished for
            // us: we have a committed-state gap.
            return vec![Effect::SelfRestart];
        }
        if let Some(rs) = self.closing.as_ref().filter(|rs| rs.round >= round) {
            // Late duplicate for a round we have applied already.
            let again = me_in && rs.round == round && rs.flushed;
            let again = again.then_some(Effect::RebroadcastFlush { round });
            return again.into_iter().collect();
        }
        let mut fx = Vec::new();
        if !me_in {
            if in_cohort {
                // Evicted (our Restart signal was probably lost): resync.
                fx.push(Effect::SelfRestart);
            }
            return fx;
        }
        if let Some(next) = self.next_round_expected {
            if round > next {
                // We missed at least one whole round: committed-state gap.
                fx.push(Effect::SelfRestart);
                return fx;
            }
        } else {
            // First round since (re)joining anchors the numbering; the
            // join snapshot covers everything before it, so any starting
            // round — including round 0 — is consistent.
            self.next_round_expected = Some(round);
        }
        fx.push(Effect::JoinCohort);
        self.round = Some(RoundState::new(round, order));
        let buffered = self.buffered.remove(&round).unwrap_or_default();
        self.buffered.retain(|&r, _| r > round);
        fx.extend(self.take_turn(cfg.flush));
        fx.push(Effect::ReplayBuffered(buffered));
        fx
    }

    /// Installs the local round for a round this machine itself initiates
    /// (the master's own participation), mirroring the `BeginSync` path
    /// without the membership checks.
    pub(crate) fn start_local_round(&mut self, round: u64, order: Vec<MachineId>) {
        self.round = Some(RoundState::new(round, order));
        if self.next_round_expected.is_none() {
            self.next_round_expected = Some(round);
        }
    }
}

#[cfg(test)]
mod tests {
    //! Pure step-level tests: no net driver — events in, effects out.

    use super::*;
    use crate::message::WireOp;
    use crate::roles::master::{MasterEvent, MasterRole};
    use guesstimate_core::{ObjectId, SharedOp};

    fn id(n: u32) -> MachineId {
        MachineId::new(n)
    }

    fn cfg() -> MachineConfig {
        MachineConfig::default()
    }

    fn order2() -> Vec<MachineId> {
        vec![id(0), id(1)]
    }

    fn begin_sync(round: u64) -> ParticipantEvent {
        ParticipantEvent::BeginSync {
            round,
            order: order2(),
            in_cohort: true,
        }
    }

    fn batch(machine: u32, n: u64) -> OpsBatch {
        Arc::new(
            (0..n)
                .map(|i| WireEnvelope {
                    id: OpId::new(MachineId::new(machine), i),
                    op: WireOp::Shared(SharedOp::primitive(
                        ObjectId::new(MachineId::new(machine), 0),
                        "noop",
                        vec![],
                    )),
                })
                .collect(),
        )
    }

    /// What the composer does with a round ready for stage 2: it leaves its
    /// slot by value and is acknowledged, and then -- the deferred half --
    /// it is handed back as applied. The acknowledgement, then what the
    /// apply emitted.
    fn apply(p: &mut ParticipantRole) -> (Vec<Effect>, Vec<Effect>) {
        let rs = p.round.take().expect("a round to apply");
        let ack = p.acknowledge(&rs);
        (ack, p.applied(rs))
    }

    /// Where another machine of the round stands as the table test's
    /// turn is decided.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Peer {
        Pending,
        Flushed,
        Removed,
    }

    fn flushes(fx: &[Effect]) -> bool {
        fx.iter().any(|e| matches!(e, Effect::Flush))
    }

    /// Whether member `me` of a fresh round over `order` asks for its flush
    /// as it takes `BeginSync` and then hears of every peer that flushed or
    /// was removed.
    fn member_flushes(
        c: &MachineConfig,
        order: &[MachineId],
        me: MachineId,
        peers: &[(MachineId, Peer)],
    ) -> bool {
        let mut p = ParticipantRole::new(me);
        let (round, order) = (1, order.to_vec());
        let begin = ParticipantEvent::BeginSync {
            round,
            order,
            in_cohort: true,
        };
        let mut fx = p.step(begin, SimTime::ZERO, c);
        assert!(matches!(
            fx[..],
            [Effect::JoinCohort, .., Effect::ReplayBuffered(_)]
        ));
        assert_eq!(p.next_round_expected(), Some(1), "numbering anchored");
        for &(machine, peer) in peers {
            let ev = match peer {
                Peer::Pending => continue,
                Peer::Flushed => ParticipantEvent::FlushDone { machine },
                Peer::Removed => ParticipantEvent::RoundUpdate {
                    round,
                    removed: vec![machine],
                },
            };
            fx.extend(p.step(ev, SimTime::ZERO, c));
        }
        flushes(&fx)
    }

    /// The same for the master, whose role asks for its own flush.
    fn master_flushes(c: &MachineConfig, order: &[MachineId], peers: &[(MachineId, Peer)]) -> bool {
        let mut m = MasterRole::new(order[0]);
        let begin = MasterEvent::BeginRound {
            order: order.to_vec(),
        };
        let mut fx = m.step(begin, SimTime::ZERO, c);
        for &(machine, peer) in peers {
            let ev = match peer {
                Peer::Pending => continue,
                Peer::Flushed => MasterEvent::FlushDone { machine, count: 1 },
                Peer::Removed => MasterEvent::Left { machine },
            };
            fx.extend(m.step(ev, SimTime::ZERO, c));
        }
        flushes(&fx)
    }

    #[test]
    fn the_turn_rule_opens_every_turn_in_both_modes() {
        // Every machine of every order of 1-4 machines, every other machine
        // pending, flushed or removed: a turn is open once every machine
        // ahead is done. Serial: ahead are the machines before it in the
        // order. Parallel: nobody is ahead of a member, every member of the
        // master.
        let states = [Peer::Pending, Peer::Flushed, Peer::Removed];
        for flush in [Flush::Serial, Flush::Parallel] {
            let c = cfg().with_flush(flush);
            for n in 1..=4u32 {
                let order: Vec<MachineId> = (0..n).map(id).collect();
                for (pos, &me) in order.iter().enumerate() {
                    for code in 0..3usize.pow(n - 1) {
                        let others = order.iter().filter(|&&m| m != me);
                        let peers: Vec<(MachineId, Peer)> = others
                            .enumerate()
                            .map(|(k, &m)| (m, states[code / 3usize.pow(k as u32) % 3]))
                            .collect();
                        let done = |m: &MachineId| {
                            peers.contains(&(*m, Peer::Flushed))
                                || peers.contains(&(*m, Peer::Removed))
                        };
                        let want = match flush {
                            Flush::Serial => order[..pos].iter().all(done),
                            Flush::Parallel => pos > 0 || order[1..].iter().all(done),
                        };
                        let got = if pos == 0 {
                            master_flushes(&c, &order, &peers)
                        } else {
                            member_flushes(&c, &order, me, &peers)
                        };
                        assert_eq!(got, want, "{flush:?}, {me:?} of {n}, peers {peers:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn join_at_round_zero_gap_is_detected() {
        // Regression: a fresh machine whose first round is round 0 must
        // not be treated as having *applied* round 0. The old
        // `last_round_applied = Some(round.saturating_sub(1))` seeding
        // mapped round 0 to Some(0) — indistinguishable from a genuine
        // apply — so a subsequent BeginSync(1) passed the gap check even
        // though round 0's commits never landed here.
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(0), SimTime::ZERO, &c);
        assert_eq!(p.active_round(), Some(0));
        // Round 0 is torn down without ever being applied (e.g. the
        // BeginSync was a stale re-announcement of a finished round).
        p.round = None;
        let fx = p.step(begin_sync(1), SimTime::ZERO, &c);
        assert!(
            matches!(fx[..], [Effect::SelfRestart]),
            "unapplied round 0 is a committed-state gap, got {fx:?}"
        );
    }

    #[test]
    fn gap_at_round_one_is_detected() {
        // Regression: same conflation one round later. A fresh machine
        // saw BeginSync(1), never applied it, and the round was torn
        // down; BeginSync(2) must restart it. The old seeding set
        // last_round_applied = Some(0), and 2 > 0 + 1 is false, so the
        // gap sailed through.
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        p.round = None;
        let fx = p.step(begin_sync(2), SimTime::ZERO, &c);
        assert!(
            matches!(fx[..], [Effect::SelfRestart]),
            "unapplied round 1 is a committed-state gap, got {fx:?}"
        );
        // Control: after actually applying round 1 the successor round
        // is accepted.
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        p.round = None;
        p.next_round_expected = Some(2); // the composer's post-apply update
        let fx = p.step(begin_sync(2), SimTime::ZERO, &c);
        assert!(!fx.iter().any(|e| matches!(e, Effect::SelfRestart)));
        assert_eq!(p.active_round(), Some(2));
    }

    #[test]
    fn duplicate_begin_sync_reflushes_or_rebroadcasts() {
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        // Not yet flushed: the nudge re-runs the flush.
        let fx = p.step(begin_sync(1), SimTime::ZERO, &c);
        assert!(matches!(fx[..], [Effect::Flush]));
        // Flushed: the nudge only re-announces it.
        p.round.as_mut().unwrap().flushed = true;
        let fx = p.step(begin_sync(1), SimTime::ZERO, &c);
        assert!(matches!(fx[..], [Effect::RebroadcastFlush { round: 1 }]));
    }

    #[test]
    fn round_gap_forces_a_restart() {
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        apply(&mut p);
        assert_eq!(p.next_round_expected(), Some(2));
        // Round 3 announced but round 2 never reached us.
        let fx = p.step(begin_sync(3), SimTime::ZERO, &c);
        assert!(matches!(fx[..], [Effect::SelfRestart]));
    }

    #[test]
    fn ops_accumulate_until_counts_allow_apply() {
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        let fx = p.step(
            ParticipantEvent::Ops {
                machine: id(0),
                ops: batch(0, 2),
            },
            SimTime::ZERO,
            &c,
        );
        assert!(matches!(
            fx[..],
            [
                Effect::Trace(TraceEvent::OpsBatchReceived { ops: 2, .. }),
                Effect::TryApply
            ]
        ));
        let fx = p.step(
            ParticipantEvent::BeginApply {
                round: 1,
                counts: vec![(id(0), 2), (id(1), 0)],
            },
            SimTime::ZERO,
            &c,
        );
        assert!(matches!(fx[..], [Effect::TryApply]));
        assert_eq!(
            p.round.as_ref().unwrap().received[&id(0)].len(),
            2,
            "batch retained for the apply"
        );
    }

    #[test]
    fn the_masters_batch_then_the_counts_are_ready_at_once() {
        // What the composer feeds for a `BeginApply` carrying the master's
        // batch: the batch as `Ops`, then the counts.
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        let rs = p.round.as_mut().unwrap();
        rs.flushed = true;
        rs.received.insert(id(1), batch(1, 1));
        let ops = batch(0, 2);
        let fx = p.step(
            ParticipantEvent::Ops {
                machine: id(0),
                ops,
            },
            SimTime::ZERO,
            &c,
        );
        assert!(matches!(
            fx[..],
            [
                Effect::Trace(TraceEvent::OpsBatchReceived { ops: 2, .. }),
                Effect::TryApply
            ]
        ));
        // That `TryApply` finds no counts: nothing to apply, nobody to ask.
        let rs = p.round.as_ref().unwrap();
        assert!(!rs.ready_to_apply() && rs.missing().is_none());
        let counts = vec![(id(0), 2), (id(1), 1)];
        let fx = p.step(
            ParticipantEvent::BeginApply { round: 1, counts },
            SimTime::ZERO,
            &c,
        );
        assert!(matches!(fx[..], [Effect::TryApply]));
        let rs = p.round.as_mut().unwrap();
        assert!(rs.ready_to_apply(), "the master's run came with the counts");
        assert_eq!(rs.take_runs().iter().map(|r| r.len()).sum::<usize>(), 3);
        // Applied and closing, a resent `BeginApply` is only acknowledged:
        // the composer feeds its batch to a round not yet applied, never to
        // this one.
        apply(&mut p);
        let counts = vec![(id(0), 2), (id(1), 1)];
        let fx = p.step(
            ParticipantEvent::BeginApply { round: 1, counts },
            SimTime::ZERO,
            &c,
        );
        assert!(matches!(
            fx[..],
            [Effect::Send {
                msg: Msg::Ack { round: 1, .. },
                ..
            }]
        ));
        assert!(p.closing.as_ref().unwrap().received.is_empty());
    }

    fn env(machine: u32, seq: u64, payload: i64) -> WireEnvelope {
        WireEnvelope {
            id: OpId::new(id(machine), seq),
            op: WireOp::Shared(SharedOp::primitive(
                ObjectId::new(id(machine), 0),
                "noop",
                guesstimate_core::args![payload],
            )),
        }
    }

    #[test]
    fn in_order_batch_is_kept_by_reference_and_a_swapped_one_is_sorted() {
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        let honest = batch(0, 3);
        let ops = Arc::clone(&honest);
        p.step(
            ParticipantEvent::Ops {
                machine: id(0),
                ops,
            },
            SimTime::ZERO,
            &c,
        );
        assert!(
            Arc::ptr_eq(&p.round.as_ref().unwrap().received[&id(0)], &honest),
            "an ascending batch is stored as the sender's allocation"
        );
        // The corruption `sudoku-tamper-swap.json` injects: two ids traded.
        let swapped = Arc::new(vec![env(0, 1, 10), env(0, 0, 11), env(0, 2, 12)]);
        p.step(
            ParticipantEvent::Ops {
                machine: id(0),
                ops: swapped,
            },
            SimTime::ZERO,
            &c,
        );
        assert_eq!(
            *p.round.as_ref().unwrap().received[&id(0)],
            vec![env(0, 0, 11), env(0, 1, 10), env(0, 2, 12)],
            "the later delivery replaces the run, sorted by id"
        );
    }

    proptest::proptest! {
        /// Whatever arrives — unsorted ids, duplicate ids, a batch delivered
        /// twice, a batch from a machine the master then leaves out of the
        /// counts — stage 2 is handed the list the id-keyed maps used to
        /// yield: per counted machine, its ops by ascending id, the last
        /// duplicate winning.
        #[test]
        fn consolidated_runs_equal_the_id_keyed_reference(
            batches in proptest::collection::vec(
                (
                    proptest::collection::vec((0u64..6, 0i64..1000), 0..8),
                    proptest::any::<bool>(),
                    proptest::any::<bool>(),
                ),
                0..5,
            )
        ) {
            let c = cfg();
            let mut p = ParticipantRole::new(id(1));
            p.step(begin_sync(1), SimTime::ZERO, &c);
            let mut reference: BTreeMap<MachineId, BTreeMap<OpId, WireOp>> = BTreeMap::new();
            let mut counts = Vec::new();
            for (m, (ops, twice, counted)) in batches.into_iter().enumerate() {
                let m = m as u32;
                let ops: OpsBatch =
                    Arc::new(ops.into_iter().map(|(seq, v)| env(m, seq, v)).collect());
                for _ in 0..=usize::from(twice) {
                    let entry = reference.entry(id(m)).or_default();
                    for e in ops.iter() {
                        entry.insert(e.id, e.op.clone());
                    }
                    let ops = Arc::clone(&ops);
                    p.step(ParticipantEvent::Ops { machine: id(m), ops }, SimTime::ZERO, &c);
                }
                if counted {
                    counts.push((id(m), reference[&id(m)].len() as u64));
                }
            }
            let expected: Vec<WireEnvelope> = counts
                .iter()
                .flat_map(|(m, _)| &reference[m])
                .map(|(id, op)| WireEnvelope { id: *id, op: op.clone() })
                .collect();
            p.step(ParticipantEvent::BeginApply { round: 1, counts }, SimTime::ZERO, &c);
            let runs = p.round.as_mut().unwrap().take_runs();
            let applied: Vec<WireEnvelope> =
                runs.iter().flat_map(|run| run.iter().cloned()).collect();
            proptest::prop_assert_eq!(applied, expected);
        }
    }

    #[test]
    fn duplicate_begin_apply_after_apply_reacks() {
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        let (ack, applied) = apply(&mut p);
        assert!(matches!(
            ack[..],
            [Effect::Send { to, msg: Msg::Ack { round: 1, .. }, .. }] if to == id(0)
        ));
        assert!(
            applied.is_empty(),
            "the Ack is sent once, ahead of the apply"
        );
        let fx = p.step(
            ParticipantEvent::BeginApply {
                round: 1,
                counts: vec![(id(0), 0), (id(1), 0)],
            },
            SimTime::ZERO,
            &c,
        );
        assert!(matches!(
            fx[..],
            [Effect::Send { to, msg: Msg::Ack { round: 1, .. }, .. }] if to == id(0)
        ));
    }

    #[test]
    fn ops_request_reshares_the_flush_without_copying() {
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        {
            let rs = p.round.as_mut().unwrap();
            rs.flushed = true;
            rs.my_flush = batch(1, 3);
        }
        let fx = p.step(
            ParticipantEvent::OpsRequest {
                round: 1,
                requester: id(0),
            },
            SimTime::ZERO,
            &c,
        );
        let Effect::Send {
            msg: Msg::Ops { ops, .. },
            ..
        } = &fx[0]
        else {
            panic!("Ops resend expected, got {:?}", fx[0]);
        };
        assert!(
            Arc::ptr_eq(ops, &p.round.as_ref().unwrap().my_flush),
            "resend shares the stored batch"
        );
    }

    #[test]
    fn premature_sync_complete_restarts() {
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        let complete = || ParticipantEvent::SyncComplete { round: 1 };
        let fx = p.step(complete(), SimTime::ZERO, &c);
        assert!(matches!(fx[..], [Effect::SelfRestart]));
        // After applying, the same signal ends the round cleanly.
        apply(&mut p);
        let fx = p.step(complete(), SimTime::ZERO, &c);
        assert!(matches!(
            fx[..],
            [
                Effect::CountSync,
                Effect::Trace(TraceEvent::SyncCompleteReceived { round: 1 })
            ]
        ));
        assert_eq!(p.active_round(), None);
        // A duplicate finds nothing to end.
        assert!(p.step(complete(), SimTime::ZERO, &c).is_empty());
    }

    /// Round 1 flushed (a batch of `ops` operations and one async entry),
    /// applied and closing; round 2 begun under it and installed.
    fn closing_1_under_2(c: &MachineConfig, ops: u64) -> ParticipantRole {
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, c);
        let rs = p.round.as_mut().unwrap();
        rs.flushed = true;
        rs.my_flush = batch(1, ops);
        rs.my_asyncs = Arc::new(vec![(4, Arc::new(env(1, 9, 0)))]);
        apply(&mut p);
        let fx = p.step(begin_sync(2), SimTime::ZERO, c);
        assert!(matches!(
            fx[..],
            [Effect::JoinCohort, Effect::Flush, Effect::ReplayBuffered(_)]
        ));
        let held = [&p.round, &p.closing].map(|rs| rs.as_ref().unwrap().round);
        assert_eq!(held, [2, 1]);
        p
    }

    #[test]
    fn the_closing_slot_answers_ops_request_and_duplicate_begin_apply() {
        let c = cfg();
        let mut p = closing_1_under_2(&c, 3);
        assert_eq!(p.active_round(), Some(2));
        // A slow peer still assembling round 1 asks for our batch.
        let (round, requester) = (1, id(0));
        let ask = ParticipantEvent::OpsRequest { round, requester };
        let fx = p.step(ask, SimTime::ZERO, &c);
        let [Effect::Send {
            msg: Msg::Ops { round: 1, ops, .. },
            ..
        }] = &fx[..]
        else {
            panic!("round 1's batch expected, got {fx:?}");
        };
        assert!(Arc::ptr_eq(ops, &p.closing.as_ref().unwrap().my_flush));
        // The master never heard our Ack and sends `BeginApply{1}` again.
        let counts = vec![(id(0), 0), (id(1), 3)];
        let again = ParticipantEvent::BeginApply { round: 1, counts };
        let fx = p.step(again, SimTime::ZERO, &c);
        assert!(matches!(
            fx[..],
            [Effect::Send { to, msg: Msg::Ack { round: 1, .. }, .. }] if to == id(0)
        ));
        assert!(
            p.round.as_ref().unwrap().counts.is_none(),
            "round 2 untouched"
        );
        // A resent `BeginSync{1}` is behind us; one for round 2 is a nudge.
        assert!(p.step(begin_sync(1), SimTime::ZERO, &c).is_empty());
        let fx = p.step(begin_sync(2), SimTime::ZERO, &c);
        assert!(matches!(fx[..], [Effect::Flush]));
        // So is a removal of a peer from round 1; our own removal from it is
        // the master giving up on us, applied or not.
        let update = |removed| ParticipantEvent::RoundUpdate { round: 1, removed };
        assert!(p.step(update(vec![id(0)]), SimTime::ZERO, &c).is_empty());
        let fx = p.step(update(vec![id(1)]), SimTime::ZERO, &c);
        assert!(matches!(fx[..], [Effect::SelfRestart]));
        // `SyncComplete{1}` empties the slot and keeps what the flush fenced.
        let fx = p.step(
            ParticipantEvent::SyncComplete { round: 1 },
            SimTime::ZERO,
            &c,
        );
        assert!(matches!(
            fx[..],
            [
                Effect::FenceAsyncs { through: 4 },
                Effect::CountSync,
                Effect::Trace(TraceEvent::SyncCompleteReceived { round: 1 })
            ]
        ));
        assert!(p.closing.is_none() && p.round.is_some());
    }

    #[test]
    fn a_round_applied_over_an_unfinished_predecessor_closes_it() {
        let c = cfg();
        // `SyncComplete{1}` is lost. The master let round 2 into stage 2, so
        // round 1 completed: applying round 2 closes it, as the signal would.
        let mut p = closing_1_under_2(&c, 3);
        let (ack, applied) = apply(&mut p);
        assert!(matches!(
            ack[..],
            [Effect::Send {
                msg: Msg::Ack { round: 2, .. },
                ..
            }]
        ));
        assert!(matches!(
            applied[..],
            [Effect::FenceAsyncs { through: 4 }, Effect::CountSync]
        ));
        assert_eq!(p.closing.as_ref().unwrap().round, 2);
        // A flush that carried no operation is no guarantee for its asyncs.
        let mut p = closing_1_under_2(&c, 0);
        assert!(matches!(apply(&mut p).1[..], [Effect::CountSync]));
    }

    #[test]
    fn a_begin_sync_that_overtakes_begin_apply_waits_for_the_apply() {
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        // Round 2 began while round 1 is in stage 2, and its `BeginSync`
        // got here first. Flushing now would put an operation issued since
        // the first flush through two replays; it waits.
        assert!(p.step(begin_sync(2), SimTime::ZERO, &c).is_empty());
        assert_eq!(p.round.as_ref().unwrap().round, 1);
        assert_eq!(p.buffered_rounds(), 1);
        let (ack, applied) = apply(&mut p);
        assert!(matches!(
            ack[..],
            [Effect::Send {
                msg: Msg::Ack { round: 1, .. },
                ..
            }]
        ));
        let [Effect::ReplayBuffered(early)] = &applied[..] else {
            panic!("the buffered BeginSync behind the apply, got {applied:?}");
        };
        assert!(matches!(
            early[..],
            [(from, Msg::BeginSync { round: 2, .. })] if from == id(0)
        ));
        // Under serial turns a round starts only when the one before has
        // completed: there the same signal proves we missed that.
        let serial = cfg().with_flush(Flush::Serial);
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &serial);
        let fx = p.step(begin_sync(2), SimTime::ZERO, &serial);
        assert!(matches!(fx[..], [Effect::SelfRestart]));
    }

    #[test]
    fn begin_sync_two_rounds_ahead_of_an_unapplied_round_restarts() {
        let c = cfg();
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        // Round 3 cannot begin before round 1 has completed everywhere.
        let fx = p.step(begin_sync(3), SimTime::ZERO, &c);
        assert!(matches!(fx[..], [Effect::SelfRestart]));
        assert_eq!(p.buffered_rounds(), 0);
    }

    #[test]
    fn removal_of_self_restarts_removal_of_peer_passes_the_turn() {
        let c = cfg().with_flush(Flush::Serial);
        let mut p = ParticipantRole::new(id(1));
        p.step(begin_sync(1), SimTime::ZERO, &c);
        let fx = p.step(
            ParticipantEvent::RoundUpdate {
                round: 1,
                removed: vec![id(0)],
            },
            SimTime::ZERO,
            &c,
        );
        assert!(
            matches!(fx[..], [Effect::Flush, Effect::TryApply]),
            "peer removal passes the turn"
        );
        let fx = p.step(
            ParticipantEvent::RoundUpdate {
                round: 1,
                removed: vec![id(1)],
            },
            SimTime::ZERO,
            &c,
        );
        assert!(matches!(fx[..], [Effect::SelfRestart]));
    }

    #[test]
    fn early_round_buffer_is_bounded_to_eight_rounds() {
        let mut p = ParticipantRole::new(id(1));
        for r in 1..=12 {
            p.buffer_early(r, id(0), Msg::SyncComplete { round: r });
        }
        assert_eq!(p.buffered_rounds(), 8);
        assert!(p.buffered.keys().min() == Some(&5), "oldest rounds evicted");
        // Rounds below the expected-round watermark are dropped outright.
        p.next_round_expected = Some(21);
        p.buffer_early(20, id(0), Msg::SyncComplete { round: 20 });
        assert_eq!(p.buffered_rounds(), 8);
    }
}

//! The composer: wires the role state machines of [`crate::roles`] to the
//! mesh (§4 of the paper).
//!
//! The synchronizer protocol itself — 3-stage master–slave rounds,
//! membership, stall recovery, and the §9 failover election — is decided
//! entirely inside the four sans-IO roles ([`crate::roles::master`],
//! [`crate::roles::participant`], [`crate::roles::membership`],
//! [`crate::roles::election`]). This module owns none of that logic; it
//!
//! 1. implements [`Actor`] for [`Machine`], routing each incoming message
//!    or timer to the right role's `step` (buffering round messages that
//!    arrive before their `BeginSync`, demoting a split-brain master), and
//! 2. **lowers** the returned [`Effect`]s depth-first, in emission order,
//!    onto the context: sends, broadcasts and timers go to the mesh;
//!    store-touching effects (`Flush`, `TryApply`, `SelfRestart`, …) call
//!    into the commit-side machinery of [`crate::exec`]; cross-role
//!    effects (`JoinCohort`, `ServiceJoins`, `BeginApplyLocal`, …) feed
//!    another role and lower its effects recursively.
//!
//! Round overview (the roles' module docs have the details):
//!
//! 1. **AddUpdatesToMesh** — every member flushes its pending list on
//!    `BeginSync`: the batch broadcast on the Operations channel, then a
//!    `FlushDone` on the Signals channel to the master. The master flushes
//!    last, at the moment the last of those is in and stage 2 is free, and
//!    sends no `Ops`: its batch rides the `BeginApply` it sends next, in
//!    the same handler. (Under `Flush::Serial` — the paper's §4 —
//!    machines flush in a fixed serial order, master first, and
//!    `FlushDone` is a broadcast that passes the turn.) Both are one turn
//!    rule, [`crate::Flush::turn_open`].
//! 2. **ApplyUpdatesFromMesh** — when every participant has flushed, the
//!    master broadcasts `BeginApply` with the authoritative per-machine op
//!    counts (and its own batch); each machine waits for all expected
//!    operations, applies them
//!    to its committed state in lexicographic `(machineID, opnumber)` order,
//!    copies committed onto guesstimated state, runs its pending completion
//!    routines, replays its still-pending operations, and then acknowledges
//!    (`try_apply`: the `Ack` is the last action of the callback).
//! 3. **FlagCompletion** — when all acknowledgments are in, the master
//!    broadcasts `SyncComplete`.
//!
//! Rounds are paced start to start, one every `sync_period`. Under the
//! parallel flush two may be in flight, one per stage: the master may begin
//! round r + 1 once it has applied round r itself, a member takes r + 1
//! only after it has applied r (until then its `BeginSync` is buffered like
//! any other early round message), and r + 1 leaves stage 1 only after r
//! has completed. Messages are routed by round number to the slot that
//! holds the round: [`crate::roles::participant::ParticipantRole::round`]
//! (not yet applied here) or `closing` (applied, still answering resend
//! requests until `SyncComplete`). Serial turns run one round at a time.

use std::sync::Arc;

use guesstimate_core::MachineId;
use guesstimate_net::{Actor, Channel, Ctx, SimTime, TraceEvent};

use crate::machine::Machine;
use crate::message::Msg;
use crate::roles::election::ElectionEvent;
use crate::roles::master::MasterEvent;
use crate::roles::membership::MembershipEvent;
use crate::roles::participant::{ParticipantEvent, RoundState};
use crate::roles::{tag, Effect};

fn msg_round(msg: &Msg) -> Option<u64> {
    match msg {
        Msg::BeginSync { round, .. }
        | Msg::Ops { round, .. }
        | Msg::FlushDone { round, .. }
        | Msg::BeginApply { round, .. }
        | Msg::OpsRequest { round }
        | Msg::Ack { round, .. }
        | Msg::SyncComplete { round }
        | Msg::RoundUpdate { round, .. } => Some(*round),
        _ => None,
    }
}

impl Actor for Machine {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.is_master {
            ctx.set_timer(self.cfg.sync_period, tag::encode(tag::MASTER_TICK, 0));
        } else {
            ctx.broadcast(Channel::Signals, Msg::JoinRequest { machine: self.id });
            ctx.set_timer(
                self.cfg.join_retry,
                tag::encode(tag::MEMBERSHIP_JOIN_RETRY, 0),
            );
            self.election.last_master_activity = ctx.now();
            if let Some(timeout) = self.cfg.master_failover {
                ctx.set_timer(timeout, tag::encode(tag::ELECTION_WATCHDOG, 0));
            }
        }
        self.check_step("on_start");
    }

    fn on_message(&mut self, from: MachineId, _channel: Channel, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        // Master-originated traffic feeds the failover watchdog; a master
        // hearing round traffic from a *lower-id* master yields (split-brain
        // healing after a failover race).
        match &msg {
            Msg::BeginSync { .. }
            | Msg::BeginApply { .. }
            | Msg::SyncComplete { .. }
            | Msg::RoundUpdate { .. }
            | Msg::JoinInfo { .. }
            | Msg::MasterHeartbeat => {
                if self.is_master {
                    if from < self.id {
                        self.demote_and_rejoin(ctx);
                    }
                } else {
                    let fx =
                        self.election
                            .step(ElectionEvent::MasterActivity, ctx.now(), &self.cfg);
                    debug_assert!(fx.is_empty());
                }
            }
            _ => {}
        }
        match msg {
            Msg::JoinRequest { machine } => self.handle_join_request(machine, ctx),
            Msg::JoinInfo {
                catalog,
                completed,
                completed_serialized,
                async_watermarks,
            } => self.handle_join_info(
                from,
                catalog,
                completed,
                completed_serialized,
                async_watermarks,
                ctx,
            ),
            Msg::AsyncOp { aseq, env } => self.handle_async_op(from, aseq, env, ctx.now()),
            Msg::JoinReady { machine } => self.handle_join_ready(machine, ctx),
            Msg::Leave { machine } => self.handle_leave(machine, ctx),
            // A machine that left on purpose keeps its pending operations
            // for its return: a `Restart` can only be the master having
            // missed its `Leave`.
            Msg::Restart if self.membership.offline => {}
            Msg::Restart => self.self_restart(ctx),
            Msg::BeginSync { round, order } => self.handle_begin_sync(round, order, ctx),
            Msg::MasterCandidate {
                machine,
                last_round,
            } => self.handle_master_candidate(machine, last_round, ctx),
            Msg::MasterHeartbeat => {}
            other => self.route_round_msg(from, other, ctx),
        }
        self.check_step("on_message");
    }

    fn on_timer(&mut self, timer_tag: u64, ctx: &mut Ctx<'_, Msg>) {
        match tag::kind(timer_tag) {
            tag::MASTER_TICK => self.handle_tick(ctx),
            tag::MASTER_STAGE1 => self.step_master(
                MasterEvent::Stage1Timeout {
                    round: tag::round(timer_tag),
                },
                ctx,
            ),
            tag::MASTER_STAGE2 => self.step_master(
                MasterEvent::Stage2Timeout {
                    round: tag::round(timer_tag),
                },
                ctx,
            ),
            tag::MEMBERSHIP_JOIN_RETRY => self.handle_join_retry(ctx),
            tag::MEMBERSHIP_JOIN_HOLD => self.handle_join_hold_timeout(tag::round(timer_tag), ctx),
            tag::ELECTION_WATCHDOG => self.handle_watchdog(ctx),
            tag::ELECTION_END => self.step_election(
                ElectionEvent::WindowClosed {
                    gen: tag::round(timer_tag),
                },
                ctx,
            ),
            _ => {}
        }
        self.check_step("on_timer");
    }

    fn msg_size(msg: &Msg) -> u64 {
        msg.wire_size()
    }

    fn msg_kind(msg: &Msg) -> &'static str {
        match msg {
            Msg::BeginSync { .. } => "begin_sync",
            Msg::Ops { .. } => "ops",
            Msg::FlushDone { .. } => "flush_done",
            Msg::BeginApply { .. } => "begin_apply",
            Msg::OpsRequest { .. } => "ops_request",
            Msg::Ack { .. } => "ack",
            Msg::SyncComplete { .. } => "sync_complete",
            Msg::RoundUpdate { .. } => "round_update",
            Msg::AsyncOp { .. } => "async_op",
            Msg::Restart => "restart",
            Msg::MasterCandidate { .. } => "master_candidate",
            Msg::MasterHeartbeat => "master_heartbeat",
            Msg::JoinRequest { .. } => "join_request",
            Msg::JoinInfo { .. } => "join_info",
            Msg::JoinReady { .. } => "join_ready",
            Msg::Leave { .. } => "leave",
        }
    }
}

impl Machine {
    // ------------------------------------------------------------------
    // Role stepping + effect lowering
    // ------------------------------------------------------------------

    fn step_master(&mut self, ev: MasterEvent, ctx: &mut Ctx<'_, Msg>) {
        let fx = self.master.step(ev, ctx.now(), &self.cfg);
        self.lower(fx, ctx);
    }

    fn step_participant(&mut self, ev: ParticipantEvent, ctx: &mut Ctx<'_, Msg>) {
        let fx = self.participant.step(ev, ctx.now(), &self.cfg);
        self.lower(fx, ctx);
    }

    fn step_membership(&mut self, ev: MembershipEvent, ctx: &mut Ctx<'_, Msg>) {
        let fx = self.membership.step(ev, ctx.now(), &self.cfg);
        self.lower(fx, ctx);
    }

    fn step_election(&mut self, ev: ElectionEvent, ctx: &mut Ctx<'_, Msg>) {
        let fx = self.election.step(ev, ctx.now(), &self.cfg);
        self.lower(fx, ctx);
    }

    /// Lowers role effects depth-first, in emission order. The order is
    /// observable (message sends, timer arms, trace records), so it must
    /// not be re-arranged.
    fn lower(&mut self, effects: Vec<Effect>, ctx: &mut Ctx<'_, Msg>) {
        for fx in effects {
            match fx {
                Effect::Send { to, channel, msg } => ctx.send(to, channel, msg),
                Effect::Broadcast { channel, msg } => ctx.broadcast(channel, msg),
                Effect::SetTimer { after, tag } => ctx.set_timer(after, tag),
                Effect::Trace(event) => self.trace(ctx.now(), event),
                Effect::StartLocalRound { round, order } => {
                    self.participant.start_local_round(round, order)
                }
                Effect::Flush => self.do_flush(ctx),
                Effect::RebroadcastFlush { round } => {
                    if let Some(rs) = self.participant.holding(round) {
                        self.announce_flush(rs, ctx);
                    }
                }
                Effect::TryApply => self.try_apply(ctx),
                Effect::RetryApply => {
                    if let Some(rs) = self.participant.round.as_mut() {
                        rs.resend_requested.clear();
                    }
                    self.try_apply(ctx);
                }
                Effect::ReplayBuffered(msgs) => {
                    for (from, msg) in msgs {
                        self.dispatch_round_msg(from, msg, ctx);
                    }
                }
                Effect::JoinCohort => self.membership.in_cohort = true,
                Effect::CountSync => self.stats.syncs_seen += 1,
                Effect::SelfRestart => self.self_restart(ctx),
                Effect::ServiceJoins => self.service_joins(ctx),
                Effect::SendJoinInfo { to } => {
                    let (catalog, completed, completed_serialized, async_watermarks) =
                        self.build_join_info();
                    ctx.send(
                        to,
                        Channel::Signals,
                        Msg::JoinInfo {
                            catalog,
                            completed,
                            completed_serialized,
                            async_watermarks,
                        },
                    );
                }
                Effect::BeginApply { to, round, counts } => {
                    let msg = self.begin_apply_msg(round, counts);
                    match to {
                        Some(to) => ctx.send(to, Channel::Signals, msg),
                        None => {
                            ctx.broadcast(Channel::Signals, msg);
                            self.account_cut(round, ctx.now());
                        }
                    }
                }
                Effect::BeginApplyLocal { round, counts } => {
                    self.step_participant(ParticipantEvent::BeginApply { round, counts }, ctx)
                }
                Effect::RemoveFromRound { machine } => {
                    self.membership.members.remove(&machine);
                }
                Effect::ClearRound => {
                    // The master finished the round it applied: what its
                    // own flush fenced is delivered everywhere.
                    let fenced = self.participant.closing.take();
                    if let Some(through) = fenced.and_then(|rs| rs.fenced_asyncs()) {
                        self.trim_async_window(through);
                    }
                }
                Effect::FenceAsyncs { through } => self.trim_async_window(through),
                Effect::RoundDue => self.round_due(ctx),
                Effect::RoundFinished { sample } => {
                    self.telemetry.round_finished(
                        sample.duration,
                        sample.flush_duration,
                        sample.apply_duration,
                        sample.completion_duration,
                        sample.resends,
                        sample.removals,
                    );
                    self.trace(
                        ctx.now(),
                        TraceEvent::SyncComplete {
                            round: sample.round,
                            ops_committed: sample.ops_committed,
                        },
                    );
                    self.stats.syncs_seen += 1;
                    self.stats.sync_samples.push(sample);
                }
                Effect::Promote => self.promote(ctx),
                Effect::DeferToWinner => self.defer_to_winner(ctx),
            }
        }
    }

    // ------------------------------------------------------------------
    // Round-message routing (with buffering for out-of-order arrival)
    // ------------------------------------------------------------------

    fn route_round_msg(&mut self, from: MachineId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        // The flush-piggybacked async window (the round-boundary fence)
        // applies *before* round gating: it repairs lost `AsyncOp`
        // broadcasts whether the carrying message -- a member's `Ops`, the
        // master's `BeginApply` -- is current, buffered early, stale, or a
        // resend — the per-sender watermark absorbs any duplicate.
        let window = match &msg {
            Msg::Ops {
                machine, asyncs, ..
            } => Some((*machine, asyncs)),
            Msg::BeginApply { asyncs, .. } => Some((from, asyncs)),
            _ => None,
        };
        if let Some((machine, asyncs)) = window.filter(|(_, asyncs)| !asyncs.is_empty()) {
            let asyncs = Arc::clone(asyncs);
            self.apply_async_batch(machine, &asyncs, ctx.now());
        }
        if self.membership.offline {
            return; // left on purpose: no round is meant for this machine
        }
        let Some(round) = msg_round(&msg) else { return };
        if self.participant.holding(round).is_some() {
            self.dispatch_round_msg(from, msg, ctx);
        } else if self.participant.active_round().is_none_or(|r| r < round) {
            // No round here yet, or a future round: buffer until BeginSync
            // arrives (the Signals and Operations channels are
            // independently delayed, so reordering is normal).
            self.participant.buffer_early(round, from, msg);
        } // else a stale round: drop
    }

    /// Feeds a message of a round this machine holds, in either slot, to the
    /// role that reacts. `Ops` and `FlushDone` only matter to a round not
    /// yet applied here; the rest carry their round number to the role and
    /// find their slot by it.
    fn dispatch_round_msg(&mut self, from: MachineId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let unapplied = self.participant.round.as_ref().map(|rs| rs.round);
        match msg {
            Msg::BeginSync { round, order } => self.handle_begin_sync(round, order, ctx),
            Msg::Ops { round, .. } | Msg::FlushDone { round, .. } if unapplied != Some(round) => {}
            Msg::Ops { machine, ops, .. } => {
                self.step_participant(ParticipantEvent::Ops { machine, ops }, ctx)
            }
            // Only the master counts flushes; a member hears one only under
            // serial turns, where it may open the member's turn.
            Msg::FlushDone { machine, count, .. } if self.is_master => {
                self.step_master(MasterEvent::FlushDone { machine, count }, ctx)
            }
            Msg::FlushDone { machine, .. } => {
                self.step_participant(ParticipantEvent::FlushDone { machine }, ctx)
            }
            Msg::BeginApply {
                round,
                counts,
                ops,
                asyncs,
            } => {
                // Under the parallel flush the master's batch comes with the
                // counts and is taken with them, batch first: the two are
                // never seen apart, so nobody ever asks the master for it.
                // (A resend, its counts known already, repeats the batch.)
                // A `BeginApply` that carries nothing -- every serial one --
                // is no batch delivery, as the `Ops` it stands for was never
                // sent: the master's count of 0 is all the round needs.
                let first = |rs: &&RoundState| rs.round == round && rs.counts.is_none();
                let rs = self.participant.round.as_ref().filter(first);
                let master = rs.map(|rs| rs.order[0]);
                let carries = !(ops.is_empty() && asyncs.is_empty());
                if let Some(machine) = master.filter(|_| carries) {
                    self.step_participant(ParticipantEvent::Ops { machine, ops }, ctx);
                }
                self.step_participant(ParticipantEvent::BeginApply { round, counts }, ctx)
            }
            Msg::OpsRequest { round } => self.step_participant(
                ParticipantEvent::OpsRequest {
                    round,
                    requester: from,
                },
                ctx,
            ),
            Msg::Ack { machine, .. } if self.is_master => {
                self.step_master(MasterEvent::Ack { machine }, ctx);
            }
            Msg::SyncComplete { round } => {
                self.step_participant(ParticipantEvent::SyncComplete { round }, ctx)
            }
            Msg::RoundUpdate { round, removed } => {
                self.step_participant(ParticipantEvent::RoundUpdate { round, removed }, ctx)
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Stage 1: AddUpdatesToMesh (store-touching flush machinery)
    // ------------------------------------------------------------------

    fn handle_begin_sync(&mut self, round: u64, order: Vec<MachineId>, ctx: &mut Ctx<'_, Msg>) {
        if self.is_master || !self.membership.joined_system {
            return;
        }
        let in_cohort = self.membership.in_cohort;
        self.step_participant(
            ParticipantEvent::BeginSync {
                round,
                order,
                in_cohort,
            },
            ctx,
        );
    }

    /// Flushes the pending list: broadcast the batch on the Operations
    /// channel, then confirm (and pass the turn) on the Signals channel.
    ///
    /// The batch is cut from `P` by moving its envelopes rather than
    /// copying them ([`Machine::cut_flush`]) and is shared behind an
    /// [`Arc`]: the broadcast fan-out, the stored `my_flush`, the pending
    /// records, the commit and any later `OpsRequest` reply all reuse the
    /// same allocation.
    fn do_flush(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // The round-boundary fence: piggyback the not-yet-fenced async
        // window on this flush (empty unless async_commit is on).
        let asyncs = self.take_async_window();
        let Some(mut rs) = self.participant.round.take_if(|rs| !rs.flushed) else {
            return;
        };
        rs.flushed = true;
        rs.rides_begin_apply = self.is_master && self.cfg.flush.master_cuts();
        let batch = self.cut_flush();
        rs.my_flush = Arc::clone(&batch);
        rs.my_asyncs = asyncs;
        let count = batch.len() as u64;
        // Our own ops participate in the consolidated list directly.
        rs.received.insert(self.id, Arc::clone(&batch));
        // A flush that rides `BeginApply` -- the master's cut -- ships
        // nothing here, and the round waits on this handler: the
        // `FlushDone` fed back below closes stage 1 and sends the signal,
        // and the flush is accounted for behind that send (`account_cut`).
        if !rs.rides_begin_apply {
            self.account_flush(&rs, ctx.now());
            self.announce_flush(&rs, ctx);
        }
        self.participant.round = Some(rs);
        if self.is_master {
            self.step_master(
                MasterEvent::FlushDone {
                    machine: self.id,
                    count,
                },
                ctx,
            );
        }
    }

    /// Ships the flush stored in `rs`: the batch (with its async fence) on
    /// the Operations channel when either is non-empty, then `FlushDone` on
    /// the Signals channel — to the round's master alone, the only machine
    /// that counts flushes, or under serial turn-taking to everyone, because
    /// there it also passes the turn. Runs once per flush, and again for
    /// every recovery nudge that asks to see the flush again. Never for a
    /// flush that rides `BeginApply` -- the master's, who tells itself and
    /// is never nudged: [`Machine::begin_apply_msg`] carries that one.
    fn announce_flush(&self, rs: &RoundState, ctx: &mut Ctx<'_, Msg>) {
        let (round, master) = (rs.round, rs.order[0]);
        let count = rs.my_flush.len() as u64;
        if count > 0 || !rs.my_asyncs.is_empty() {
            let ops = Arc::clone(&rs.my_flush);
            let asyncs = Arc::clone(&rs.my_asyncs);
            ctx.broadcast(
                Channel::Operations,
                Msg::Ops {
                    round,
                    machine: self.id,
                    ops,
                    asyncs,
                },
            );
            self.trace(ctx.now(), TraceEvent::OpsBatchSent { round, ops: count });
        }
        let done = Msg::FlushDone {
            round,
            machine: self.id,
            count,
        };
        if self.cfg.flush.passes_turn() {
            ctx.broadcast(Channel::Signals, done);
        } else if master != self.id {
            ctx.send(master, Channel::Signals, done);
        }
    }

    /// The flush telemetry: the pending list's depth at the flush and each
    /// flushed operation's instant.
    fn account_flush(&self, rs: &RoundState, now: SimTime) {
        self.telemetry.pending_depth(rs.my_flush.len() as u64);
        for e in rs.my_flush.iter() {
            self.telemetry.op_flushed(e.id, now);
        }
    }

    /// Accounts for the batch cut for the `BeginApply` of `round` that has
    /// just been broadcast: what `do_flush` records and `announce_flush`
    /// traces for a flush shipped as `Ops`, moved behind the send the round
    /// was waiting for -- still in the handler, and at the instant, of the
    /// cut, and ahead of this machine's own apply.
    fn account_cut(&self, round: u64, now: SimTime) {
        let riding = self.participant.holding(round);
        let Some(rs) = riding.filter(|rs| rs.rides_begin_apply) else {
            return;
        };
        self.account_flush(rs, now);
        let ops = rs.my_flush.len() as u64;
        if ops > 0 || !rs.my_asyncs.is_empty() {
            self.trace(now, TraceEvent::OpsBatchSent { round, ops });
        }
    }

    /// The `BeginApply` of `round`, which this machine drives: the counts,
    /// and the batch and async window it cut for the round if they ride it.
    fn begin_apply_msg(&self, round: u64, counts: Vec<(MachineId, u64)>) -> Msg {
        let riding = self.participant.holding(round);
        let riding = riding.filter(|rs| rs.rides_begin_apply);
        let (ops, asyncs) = riding.map_or_else(Default::default, |rs| {
            (Arc::clone(&rs.my_flush), Arc::clone(&rs.my_asyncs))
        });
        Msg::BeginApply {
            round,
            counts,
            ops,
            asyncs,
        }
    }

    // ------------------------------------------------------------------
    // Stage 2: ApplyUpdatesFromMesh (store-touching apply machinery)
    // ------------------------------------------------------------------

    /// Applies the round as soon as every expected operation has arrived;
    /// requests per-source resends for anything missing.
    fn try_apply(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let ready = |rs: &mut RoundState| rs.ready_to_apply();
        let Some(mut rs) = self.participant.round.take_if(ready) else {
            return self.request_missing(ctx);
        };
        let runs = rs.take_runs();
        let n = self.apply_committed_round(&runs, rs.round, ctx.now());
        // After the replay the pending list is exactly the set of ops on
        // `sg` but not yet in `sc` — the guesstimate-health divergence.
        self.telemetry.divergence(self.pending.len() as u64);
        // The round moves to the closing slot; a member's `Ack` is the last
        // send of its apply.
        let fx = self.participant.applied(rs);
        self.lower(fx, ctx);
        if self.is_master {
            self.step_master(MasterEvent::RoundApplied { ops_committed: n }, ctx);
        }
    }

    /// Asks each source whose counted run has not fully arrived to send it
    /// again, once per source per `BeginApply`.
    fn request_missing(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some(rs) = self.participant.round.as_mut() else {
            return;
        };
        let round = rs.round;
        let mut missing: Vec<MachineId> = rs.missing().into_iter().flatten().collect();
        missing.retain(|&m| m != self.id && rs.resend_requested.insert(m));
        for m in missing {
            ctx.send(m, Channel::Operations, Msg::OpsRequest { round });
            self.trace(
                ctx.now(),
                TraceEvent::OpsResendRequested { round, source: m },
            );
        }
    }

    // ------------------------------------------------------------------
    // Master: round initiation
    // ------------------------------------------------------------------

    /// The tick: a round is wanted. The master role says when the pipeline
    /// has room for it ([`Effect::RoundDue`], lowered by
    /// [`Machine::round_due`]): at once, or -- counted in
    /// `ticks_deferred` -- when stage 1 is free and this machine has applied
    /// the round before, or, with a joiner waiting (joiners are admitted
    /// between rounds), when the rounds in flight have drained.
    fn handle_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.is_master || self.membership.hold.is_some() {
            return; // the release path starts a held round
        }
        let drain_first = !self.membership.pending_joins.is_empty();
        self.step_master(MasterEvent::Tick { drain_first }, ctx);
        self.stats.ticks_deferred += u64::from(self.master.tick_waiting.is_some());
    }

    /// Starts the round a tick asked for. Beside a round still in stage 2
    /// it simply starts. With no round in flight it first ships `JoinInfo`
    /// to whoever waits for one, and if a handshake stamped with the current
    /// epoch is then unanswered the round is *held*: its `JoinReady` would
    /// arrive mid-round and be thrown away (with a period at or below the
    /// link round trip, every time), so the round starts from
    /// [`Machine::release_join_hold`] when the last such handshake is
    /// answered, or when the hold's `stall_timeout` timer fires. One hold
    /// per tick -- the release path starts the round without servicing
    /// joins again -- so a handshake that keeps going stale delays each
    /// round by a round trip but cannot stop rounds.
    fn round_due(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.master.round_active() {
            self.stats.rounds_overlapped += 1;
            return self.begin_round(ctx);
        }
        self.service_joins(ctx);
        if self.membership.handshake_in_flight(self.join_epoch()) {
            let generation = self.membership.begin_hold(ctx.now());
            self.stats.join_holds += 1;
            ctx.set_timer(
                self.cfg.stall_timeout,
                tag::encode(tag::MEMBERSHIP_JOIN_HOLD, generation),
            );
            return;
        }
        self.begin_round(ctx);
    }

    fn begin_round(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let order: Vec<MachineId> = self.membership.members().iter().copied().collect();
        self.step_master(MasterEvent::BeginRound { order }, ctx);
    }

    /// Starts the held round once no handshake is in flight any more.
    fn release_join_hold(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some(hold) = self.membership.hold else {
            return;
        };
        if self.membership.handshake_in_flight(self.join_epoch()) {
            return;
        }
        self.membership.hold = None;
        self.stats.join_hold_time += ctx.now().saturating_since(hold.since);
        self.begin_round(ctx);
    }

    /// The hold outlasted the patience the master shows a silent member:
    /// forget the joiners that never answered -- one that is alive
    /// registers again on its own `join_retry` -- and start the round.
    fn handle_join_hold_timeout(&mut self, generation: u64, ctx: &mut Ctx<'_, Msg>) {
        if self.membership.hold.map(|h| h.generation) != Some(generation) {
            return; // a timer of a hold already released
        }
        self.membership.forget_in_flight();
        self.release_join_hold(ctx);
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    fn handle_join_request(&mut self, machine: MachineId, ctx: &mut Ctx<'_, Msg>) {
        if !self.is_master {
            return;
        }
        self.step_membership(MembershipEvent::JoinRequest { machine }, ctx);
    }

    /// Between rounds, ship `JoinInfo` to every machine whose handshake
    /// needs (re)starting. The epoch (completed-history length) recorded at
    /// send time guarantees a machine is only admitted if no operation
    /// committed since its snapshot was taken.
    fn service_joins(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.is_master || self.master.round_active() {
            return;
        }
        let epoch = self.join_epoch();
        self.step_membership(MembershipEvent::ServiceJoins { epoch }, ctx);
    }

    /// The epoch a join handshake is stamped with: the completed-history
    /// length.
    fn join_epoch(&self) -> u64 {
        self.completed.len() as u64
    }

    fn handle_join_info(
        &mut self,
        from: MachineId,
        catalog: Vec<crate::message::ObjectInit>,
        completed: Vec<guesstimate_core::OpId>,
        completed_serialized: Vec<guesstimate_core::OpId>,
        async_watermarks: Vec<(MachineId, u64)>,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        if self.is_master || self.membership.offline {
            return; // offline: a handshake begun before leaving is not answered
        }
        if !self.membership.in_cohort {
            self.init_from_join_info(
                catalog,
                completed,
                completed_serialized,
                async_watermarks,
                ctx.now(),
            );
        }
        ctx.send(from, Channel::Signals, Msg::JoinReady { machine: self.id });
    }

    fn handle_join_ready(&mut self, machine: MachineId, ctx: &mut Ctx<'_, Msg>) {
        if !self.is_master {
            return;
        }
        let epoch = self.join_epoch();
        let round_active = self.master.round_active();
        self.step_membership(
            MembershipEvent::JoinReady {
                machine,
                epoch,
                round_active,
            },
            ctx,
        );
        self.release_join_hold(ctx);
    }

    /// A machine left on purpose: out of the member set and any handshake,
    /// and out of the round in progress, which stops waiting for it.
    fn handle_leave(&mut self, machine: MachineId, ctx: &mut Ctx<'_, Msg>) {
        if !self.is_master {
            return;
        }
        self.step_membership(MembershipEvent::Leave { machine }, ctx);
        self.step_master(MasterEvent::Left { machine }, ctx);
        self.release_join_hold(ctx);
    }

    /// Gracefully leaves the system (application API): intimates the master
    /// so it is excluded "from the next synchronization onward" (§4) -- and
    /// from the one in progress, which stops waiting for this machine
    /// wherever it stands ([`MasterEvent::Left`]).
    ///
    /// Replicated state, pending operations and completion routines are
    /// retained, so a departed machine can keep working offline and later
    /// [`Machine::come_online`] — the §9 "Off-line updates" extension.
    pub fn leave(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.broadcast(Channel::Signals, Msg::Leave { machine: self.id });
        self.membership.joined_system = false;
        self.membership.in_cohort = false;
        self.membership.offline = true;
        self.participant.drop_rounds();
    }

    /// §9 "Off-line updates": detaches from the system while continuing to
    /// operate. The machine keeps its last known committed and guesstimated
    /// state and may keep issuing operations — they accumulate on the
    /// pending list and execute optimistically against the (now frozen)
    /// guesstimate. Alias of [`Machine::leave`].
    ///
    /// The longer the machine stays offline, the larger "the scope for
    /// discrepancy and conflicts" (§9): operations issued offline are
    /// re-validated at commit time after rejoining, and completion routines
    /// report any that fail.
    pub fn go_offline(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.leave(ctx);
    }

    /// Re-enters the system after [`Machine::go_offline`]. The membership
    /// handshake re-initializes the committed state from the master's
    /// snapshot; operations issued while offline are *preserved*, replayed
    /// onto the fresh guesstimate, and committed in the machine's first
    /// round back.
    pub fn come_online(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.membership.offline = false;
        ctx.broadcast(Channel::Signals, Msg::JoinRequest { machine: self.id });
        ctx.set_timer(
            self.cfg.join_retry,
            tag::encode(tag::MEMBERSHIP_JOIN_RETRY, 0),
        );
    }

    /// Join retries continue until the machine participates in a round
    /// (`in_cohort`), covering lost `JoinRequest`, `JoinInfo` and
    /// `JoinReady` messages alike.
    fn handle_join_retry(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.is_master {
            return;
        }
        self.step_membership(MembershipEvent::JoinRetryTimer, ctx);
    }

    // ------------------------------------------------------------------
    // Master failover (§9 extension; off by default)
    // ------------------------------------------------------------------

    fn handle_watchdog(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.is_master {
            return;
        }
        let in_cohort = self.membership.in_cohort;
        let last_round_applied = self.participant.election_round_hint();
        self.step_election(
            ElectionEvent::Watchdog {
                in_cohort,
                last_round_applied,
            },
            ctx,
        );
    }

    fn handle_master_candidate(
        &mut self,
        machine: MachineId,
        last_round: u64,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        if self.is_master {
            // The master is alive: quell the election.
            ctx.broadcast(Channel::Signals, Msg::MasterHeartbeat);
            return;
        }
        let in_cohort = self.membership.in_cohort;
        let last_round_applied = self.participant.election_round_hint();
        self.step_election(
            ElectionEvent::Candidate {
                machine,
                last_round,
                in_cohort,
                last_round_applied,
            },
            ctx,
        );
    }

    fn promote(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.is_master = true;
        self.membership.joined_system = true;
        self.membership.in_cohort = true;
        self.membership.members.clear();
        self.membership.members.insert(self.id);
        self.membership.pending_joins.clear();
        self.membership.hold = None;
        self.participant.drop_rounds();
        self.master.reset();
        // Skip a round number in case the dead master's last round was
        // partially committed somewhere.
        self.master.next_round = self.participant.election_round_hint() + 2;
        self.stats.promotions += 1;
        self.trace(
            ctx.now(),
            TraceEvent::ElectionWon {
                round: self.master.next_round,
            },
        );
        ctx.broadcast(Channel::Signals, Msg::MasterHeartbeat);
        ctx.set_timer(self.cfg.sync_period, tag::encode(tag::MASTER_TICK, 0));
    }

    /// Defers to the election winner: rejoin through the membership path
    /// (pending operations are preserved, as in go_offline).
    fn defer_to_winner(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.membership.joined_system = false;
        self.membership.in_cohort = false;
        self.participant.drop_rounds();
        self.come_online(ctx);
    }

    /// A master that lost a split-brain race steps down and rejoins.
    fn demote_and_rejoin(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.is_master = false;
        self.master.reset();
        self.membership.members.clear();
        self.membership.pending_joins.clear();
        self.membership.hold = None;
        self.membership.joined_system = false;
        self.membership.in_cohort = false;
        self.participant.drop_rounds();
        self.election.last_master_activity = ctx.now();
        self.come_online(ctx);
        if let Some(timeout) = self.cfg.master_failover {
            ctx.set_timer(timeout, tag::encode(tag::ELECTION_WATCHDOG, 0));
        }
    }

    fn self_restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.is_master {
            return; // master failure/restart is not tolerated (§9)
        }
        self.reset_for_restart();
        self.trace(ctx.now(), TraceEvent::Restarted);
        ctx.broadcast(Channel::Signals, Msg::JoinRequest { machine: self.id });
        ctx.set_timer(
            self.cfg.join_retry,
            tag::encode(tag::MEMBERSHIP_JOIN_RETRY, 0),
        );
    }
}

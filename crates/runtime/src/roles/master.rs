//! The master side of the §4 synchronizer: round initiation, stage
//! tracking, stall recovery, and completion.
//!
//! The master drives each round through three stages — flush
//! (`AddUpdatesToMesh`), apply (`ApplyUpdatesFromMesh`), completion
//! (`FlagCompletion`) — and recovers from stalls by first *resending* the
//! signal a silent machine failed to answer, then removing it from the
//! round. This role owns the [`MasterRound`] bookkeeping -- order,
//! removals, flushes, acks -- so every master decision is a pure function
//! of its own state.
//!
//! Rounds are a **two-slot pipeline**, at most one round in each stage:
//! `MasterRole::flushing` holds the round in stage 1,
//! `MasterRole::applying` the round in stage 2. Under the parallel flush
//! a tick may begin round r + 1 while round r is still in stage 2 — once
//! the master has applied r itself, which frees its participant side for
//! r + 1 — and r + 1 stays in stage 1 until r has completed: `FlushDone`
//! always means the flushing round and `Ack` the applying one. A tick that
//! finds no room is remembered, and its round is reported due by the
//! transition that makes room. Under the paper's serial turns a tick is
//! only armed by a round's completion, so the pipeline never holds two
//! rounds.
//!
//! The master asks for its own flush ([`Effect::Flush`]) when its turn
//! opens ([`Flush::turn_open`]) and stage 2 is free. Under serial turns
//! that is at once: it keeps the first turn, flushing as it sends
//! `BeginSync`. Under the parallel flush it flushes **last**: it *cuts* its
//! batch at the moment stage 1 closes — every other expected machine has
//! flushed or been dropped, and stage 2 is free — and the batch rides the
//! `BeginApply` that the cut's own `FlushDone` then sends
//! ([`Effect::BeginApply`]), so one handler runs *flush → send `BeginApply`
//! → apply*. The master's operations wait for the close of stage 1 instead
//! of its opening and reach the members with the counts, one link later;
//! it applies with an empty pending list.

use std::collections::{BTreeMap, BTreeSet};

use guesstimate_core::MachineId;
use guesstimate_net::{Channel, SimTime, TraceEvent};

use crate::config::{Flush, MachineConfig};
use crate::message::Msg;
use crate::roles::{tag, Effect};
use crate::stats::SyncSample;

/// Master-side bookkeeping for one round in flight.
#[derive(Debug)]
pub struct MasterRound {
    /// Round number.
    pub(crate) round: u64,
    /// When `BeginSync` went out.
    pub(crate) started_at: SimTime,
    /// When the master broadcast `BeginApply`, ending stage 1. `None` while
    /// the round is still flushing; used to decompose the round duration
    /// into per-stage timings in the final [`SyncSample`].
    pub(crate) apply_started_at: Option<SimTime>,
    /// The flush order announced in `BeginSync`.
    pub(crate) order: Vec<MachineId>,
    /// Machines removed from this round.
    pub(crate) removed: BTreeSet<MachineId>,
    /// Per-machine flushed-op counts from `FlushDone` signals.
    pub(crate) flush_counts: BTreeMap<MachineId, u64>,
    /// The authoritative counts broadcast in `BeginApply`.
    pub(crate) counts: Vec<(MachineId, u64)>,
    /// Machines that acknowledged the apply.
    pub(crate) acks: BTreeSet<MachineId>,
    /// Machines already re-sent `BeginSync` (next stall removes them).
    pub(crate) nudged_flush: BTreeSet<MachineId>,
    /// Machines already re-sent `BeginApply` (next stall removes them).
    pub(crate) nudged_acks: BTreeSet<MachineId>,
    /// Recovery resends this round.
    pub(crate) resends: u64,
    /// Removals this round.
    pub(crate) removals: u64,
    /// Operations committed, recorded when the master itself applies.
    pub(crate) ops_committed: u64,
}

impl MasterRound {
    fn new(round: u64, started_at: SimTime, order: Vec<MachineId>) -> Self {
        MasterRound {
            round,
            started_at,
            apply_started_at: None,
            order,
            removed: BTreeSet::new(),
            flush_counts: BTreeMap::new(),
            counts: Vec::new(),
            acks: BTreeSet::new(),
            nudged_flush: BTreeSet::new(),
            nudged_acks: BTreeSet::new(),
            resends: 0,
            removals: 0,
            ops_committed: 0,
        }
    }

    /// Participants still expected to act: in the order, not removed.
    fn expected(&self) -> impl Iterator<Item = &MachineId> {
        self.order.iter().filter(|m| !self.removed.contains(m))
    }

    /// Whether `m`'s flush is no longer awaited: it is in, or `m` was
    /// removed.
    fn done(&self, m: &MachineId) -> bool {
        self.flush_counts.contains_key(m) || self.removed.contains(m)
    }

    /// The machines whose turn is open and whose flush is missing, in round
    /// order: under serial turns one, under the parallel flush the
    /// unflushed members, or once they are done the master.
    fn open_turns(&self, flush: Flush) -> impl Iterator<Item = MachineId> + '_ {
        let open = move |m: &MachineId| flush.turn_open(&self.order, *m, |a| self.done(a));
        self.order
            .iter()
            .copied()
            .filter(move |m| !self.done(m) && open(m))
    }

    /// Expected participants whose `Ack` is missing, in round order.
    fn unacked(&self) -> impl Iterator<Item = &MachineId> {
        self.expected().filter(|m| !self.acks.contains(*m))
    }

    /// Stops expecting `machine`; false if the round was not expecting it.
    fn drop_machine(&mut self, machine: MachineId) -> bool {
        self.expected().any(|m| *m == machine) && self.removed.insert(machine)
    }

    /// Notes a stall of `m`, in `nudged_flush` or `nudged_acks`: true, and a
    /// resend counted, if it is the machine's first in that stage.
    fn first_stall(nudged: &mut BTreeSet<MachineId>, resends: &mut u64, m: MachineId) -> bool {
        let first = nudged.insert(m);
        if first {
            debug_assert!(*resends < u64::MAX, "resend counter saturated");
            *resends = resends.saturating_add(1);
        }
        first
    }
}

/// Inputs to the master role.
#[derive(Debug)]
pub enum MasterEvent {
    /// Start a round now: the composer's answer to [`Effect::RoundDue`],
    /// once no joiner has to be served first.
    BeginRound {
        /// The flush order (current member set, master first).
        order: Vec<MachineId>,
    },
    /// A participant confirmed its flush (of the round in stage 1).
    FlushDone {
        /// The participant.
        machine: MachineId,
        /// How many operations it flushed.
        count: u64,
    },
    /// A participant acknowledged the apply (of the round in stage 2).
    Ack {
        /// The participant.
        machine: MachineId,
    },
    /// The master's own participant side applied the round in stage 2.
    RoundApplied {
        /// Operations committed in the consolidated list.
        ops_committed: u64,
    },
    /// A participant left the system on purpose (`Leave`): no round in
    /// flight waits for it any longer.
    Left {
        /// The departing machine.
        machine: MachineId,
    },
    /// The sync-period tick: a round is wanted. It is reported due
    /// ([`Effect::RoundDue`]) at once if the pipeline has room for it,
    /// otherwise by the transition that makes room.
    Tick {
        /// A joiner is waiting, and joiners are admitted between rounds:
        /// room means an empty pipeline, not just a free stage 1.
        drain_first: bool,
    },
    /// The stage-1 stall timer fired for the encoded round.
    Stage1Timeout {
        /// Round the timer was armed for.
        round: u64,
    },
    /// The stage-2 stall timer fired for the encoded round.
    Stage2Timeout {
        /// Round the timer was armed for.
        round: u64,
    },
}

/// The master state machine: drives rounds, recovers stalls.
#[derive(Debug)]
pub struct MasterRole {
    me: MachineId,
    /// The round in stage 1, if any. With every flush in, it still waits
    /// here until `MasterRole::applying` is empty.
    pub(crate) flushing: Option<MasterRound>,
    /// The round in stage 2, if any.
    pub(crate) applying: Option<MasterRound>,
    /// The next round number to use.
    pub(crate) next_round: u64,
    /// A tick whose round has not begun for want of room, with its
    /// `drain_first`.
    pub(crate) tick_waiting: Option<bool>,
}

impl MasterRole {
    /// A fresh role for machine `me`; rounds start at 1.
    pub fn new(me: MachineId) -> Self {
        MasterRole {
            me,
            flushing: None,
            applying: None,
            next_round: 1,
            tick_waiting: None,
        }
    }

    /// Whether a round is currently being driven.
    pub fn round_active(&self) -> bool {
        self.flushing.is_some() || self.applying.is_some()
    }

    /// Forgets the rounds in flight and any waiting tick: they were another
    /// mastership's (promotion, demotion).
    pub(crate) fn reset(&mut self) {
        self.flushing = None;
        self.applying = None;
        self.tick_waiting = None;
    }

    /// Pure transition: consumes one event, returns the effects to lower.
    pub fn step(&mut self, ev: MasterEvent, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        let mut fx = match ev {
            MasterEvent::BeginRound { order } => self.begin_round(order, now, cfg),
            MasterEvent::FlushDone { machine, count } => {
                self.on_flush_done(machine, count, now, cfg)
            }
            MasterEvent::Ack { machine } => {
                let Some(mr) = self.applying.as_mut() else {
                    return Vec::new();
                };
                let mut fx = Vec::new();
                if mr.acks.insert(machine) {
                    fx.push(Effect::Trace(TraceEvent::AckReceived {
                        round: mr.round,
                        machine,
                    }));
                }
                fx.extend(self.advance(now, cfg));
                fx
            }
            MasterEvent::RoundApplied { ops_committed } => {
                let Some(mr) = self.applying.as_mut() else {
                    return Vec::new();
                };
                mr.ops_committed = ops_committed;
                mr.acks.insert(self.me);
                let mut fx = vec![Effect::Trace(TraceEvent::AckReceived {
                    round: mr.round,
                    machine: self.me,
                })];
                fx.extend(self.advance(now, cfg));
                fx
            }
            MasterEvent::Left { machine } => self.on_left(machine, now, cfg),
            MasterEvent::Tick { drain_first } => {
                self.tick_waiting = Some(drain_first);
                Vec::new()
            }
            MasterEvent::Stage1Timeout { round } => self.on_stage1_timeout(round, now, cfg),
            MasterEvent::Stage2Timeout { round } => self.on_stage2_timeout(round, now, cfg),
        };
        fx.extend(self.round_due(cfg));
        fx
    }

    /// Whether the pipeline has room for another round: always when empty;
    /// under the parallel flush also beside a round in stage 2 that the
    /// master has applied itself, unless the pipeline must `drain_first`.
    fn has_room(&self, drain_first: bool, cfg: &MachineConfig) -> bool {
        match (&self.flushing, &self.applying) {
            (None, None) => true,
            (None, Some(mr)) => cfg.flush.overlaps() && !drain_first && mr.acks.contains(&self.me),
            (Some(_), _) => false,
        }
    }

    /// When the tick armed by the round in stage 2 is due, if firing it now
    /// would begin the next round under that one.
    pub(crate) fn overlap_tick_due(&self, cfg: &MachineConfig) -> Option<SimTime> {
        let under = self.applying.as_ref()?;
        let begins = self.tick_waiting.is_none() && self.has_room(false, cfg);
        begins.then_some(under.started_at + cfg.sync_period)
    }

    /// Reports the waiting tick's round due once the pipeline has room for
    /// it.
    fn round_due(&mut self, cfg: &MachineConfig) -> Vec<Effect> {
        match self.tick_waiting {
            Some(drain_first) if self.has_room(drain_first, cfg) => {
                self.tick_waiting = None;
                vec![Effect::RoundDue]
            }
            _ => Vec::new(),
        }
    }

    fn begin_round(
        &mut self,
        order: Vec<MachineId>,
        now: SimTime,
        cfg: &MachineConfig,
    ) -> Vec<Effect> {
        debug_assert!(self.flushing.is_none(), "stage 1 holds one round");
        let round = self.next_round;
        self.next_round += 1;
        debug_assert_eq!(order.first(), Some(&self.me), "the master heads the order");
        let participants = order.len() as u32;
        let mut fx = Vec::new();
        if cfg.flush.overlaps() {
            // Rounds are paced start to start and the next may begin under
            // this one, so its tick runs from here, not from the completion
            // -- and from the top of the list: on the wall-clock mesh a
            // timer's delay runs from its call, and behind this machine's
            // flush every cycle would be the period plus that flush.
            fx.push(Effect::SetTimer {
                after: cfg.sync_period,
                tag: tag::encode(tag::MASTER_TICK, 0),
            });
        }
        // `BeginSync` goes out before any work: a send leaves at its call,
        // so the members' link delay runs while this machine flushes.
        fx.extend([
            Effect::Broadcast {
                channel: Channel::Signals,
                msg: Msg::BeginSync {
                    round,
                    order: order.clone(),
                },
            },
            Effect::StartLocalRound {
                round,
                order: order.clone(),
            },
            Effect::Trace(TraceEvent::RoundStarted {
                round,
                participants,
            }),
        ]);
        self.flushing = Some(MasterRound::new(round, now, order));
        // The master's own turn: under serial turns it is the first, open
        // now; under the parallel flush the last, open when the stage
        // closes -- at once if the master is alone and stage 2 is free.
        fx.extend(self.trace_open_turns(&[], cfg));
        fx.extend(self.advance(now, cfg));
        fx.push(Effect::SetTimer {
            after: cfg.stall_timeout,
            tag: tag::encode(tag::MASTER_STAGE1, round),
        });
        fx
    }

    fn on_flush_done(
        &mut self,
        machine: MachineId,
        count: u64,
        now: SimTime,
        cfg: &MachineConfig,
    ) -> Vec<Effect> {
        let Some(mr) = self.flushing.as_mut() else {
            return Vec::new();
        };
        let mut fx = Vec::new();
        if mr.flush_counts.insert(machine, count).is_none() {
            fx.push(Effect::Trace(TraceEvent::FlushWindowClosed {
                round: mr.round,
                machine,
                ops: count,
            }));
            fx.extend(self.trace_open_turns(&[], cfg));
        }
        fx.extend(self.advance(now, cfg));
        fx
    }

    /// Under turn passing ([`Flush::passes_turn`]), a `FlushWindowOpened`
    /// for every open turn of the round in stage 1 not in `seen`.
    fn trace_open_turns(&self, seen: &[MachineId], cfg: &MachineConfig) -> Vec<Effect> {
        let passes = |_: &&MasterRound| cfg.flush.passes_turn();
        let Some(mr) = self.flushing.as_ref().filter(passes) else {
            return Vec::new();
        };
        let opened = |machine| {
            let round = mr.round;
            Effect::Trace(TraceEvent::FlushWindowOpened { round, machine })
        };
        let turns = mr.open_turns(cfg.flush).filter(|m| !seen.contains(m));
        turns.map(opened).collect()
    }

    /// Moves the pipeline as far as it goes: completes the round in stage 2
    /// once everyone still expected has acknowledged, then -- stage 2 being
    /// free -- moves the round in stage 1 there once everyone still
    /// expected has flushed, or else asks for the master's own flush if its
    /// turn is open. Under the parallel flush that turn comes last: the
    /// master cuts its batch, and the `FlushDone` the cut feeds back (in
    /// the same handler) is what moves the round.
    fn advance(&mut self, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        let mut fx = Vec::new();
        let acked = |mr: &mut MasterRound| mr.unacked().next().is_none();
        if let Some(mr) = self.applying.take_if(acked) {
            fx.extend(Self::finish_round(mr, now, cfg));
        }
        if self.applying.is_none() {
            let flushed = |mr: &mut MasterRound| mr.order.iter().all(|m| mr.done(m));
            if let Some(mr) = self.flushing.take_if(flushed) {
                fx.extend(self.start_apply_stage(mr, now, cfg));
            } else if let Some(mr) = self.flushing.as_ref() {
                // The master heads the order: its turn is open iff it is
                // the first open one.
                if mr.open_turns(cfg.flush).next() == Some(self.me) {
                    fx.push(Effect::Flush);
                }
            }
        }
        fx
    }

    /// Stage 1 → stage 2: broadcast the authoritative per-machine counts,
    /// and with them the batch the master just cut.
    fn start_apply_stage(
        &mut self,
        mut mr: MasterRound,
        now: SimTime,
        cfg: &MachineConfig,
    ) -> Vec<Effect> {
        mr.apply_started_at = Some(now);
        let counts: Vec<(MachineId, u64)> = mr
            .expected()
            .map(|m| (*m, *mr.flush_counts.get(m).unwrap_or(&0)))
            .collect();
        mr.counts = counts.clone();
        let round = mr.round;
        self.applying = Some(mr);
        // `BeginApply` goes first, the master's own apply last: a send leaves
        // at its call, so the members hear it one link delay from here while
        // this machine applies the round.
        vec![
            Effect::BeginApply {
                to: None,
                round,
                counts: counts.clone(),
            },
            Effect::Trace(TraceEvent::BeginApply {
                round,
                ops_total: counts.iter().map(|(_, c)| *c).sum(),
            }),
            Effect::SetTimer {
                after: cfg.stall_timeout,
                tag: tag::encode(tag::MASTER_STAGE2, round),
            },
            Effect::BeginApplyLocal { round, counts },
        ]
    }

    /// A machine left on purpose and has dropped its round state: no round
    /// in flight waits for it any longer. The round in stage 1 drops it --
    /// whatever it flushed stays on its own pending list, uncounted by
    /// `BeginApply` -- which may be what the stage was waiting for; in the
    /// round in stage 2 its flush is already counted and commits
    /// everywhere, and only its `Ack` is no longer awaited. Unlike a
    /// stalled machine it is not sent `Restart`: it keeps its pending
    /// operations for its return.
    fn on_left(&mut self, machine: MachineId, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        if machine == self.me {
            return Vec::new();
        }
        let seen: Vec<_> = self
            .flushing
            .iter()
            .flat_map(|mr| mr.open_turns(cfg.flush))
            .collect();
        let drop_from = |slot: &mut Option<MasterRound>| {
            let mr = slot.as_mut()?;
            mr.drop_machine(machine).then_some(mr.round)
        };
        let unacked = drop_from(&mut self.applying);
        let unflushed = drop_from(&mut self.flushing);
        if unacked.or(unflushed).is_none() {
            return Vec::new();
        }
        let mut fx = vec![Effect::RemoveFromRound { machine }];
        if let Some(round) = unflushed {
            fx.push(Effect::Broadcast {
                channel: Channel::Signals,
                msg: Msg::RoundUpdate {
                    round,
                    removed: vec![machine],
                },
            });
            fx.extend(self.trace_open_turns(&seen, cfg));
        }
        fx.extend(self.advance(now, cfg));
        fx
    }

    fn finish_round(mr: MasterRound, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        let duration = now.saturating_since(mr.started_at);
        // Per-stage decomposition: stage 1 ran from BeginSync until
        // BeginApply went out, stage 2 from BeginApply until the last ack
        // (i.e. now), and stage 3 — a single broadcast with no round trip —
        // takes the remainder. The three parts sum to `duration` exactly.
        let flush_duration = mr
            .apply_started_at
            .map_or(duration, |t| t.saturating_since(mr.started_at));
        let apply_duration = mr
            .apply_started_at
            .map_or(SimTime::ZERO, |t| now.saturating_since(t));
        // The stage timestamps are monotone by construction (BeginSync ≤
        // BeginApply ≤ last ack), so the two stages can never exceed the
        // round. If they do, a stage boundary was recorded out of order and
        // the silent clamp below would fabricate a zero stage 3 — masking
        // exactly the "stage durations partition the round" invariant that
        // `stage_timings_decompose_round_duration` asserts. Fail loudly in
        // debug builds instead.
        debug_assert!(
            flush_duration + apply_duration <= duration,
            "round {}: stage durations exceed the round duration \
             ({:?} + {:?} > {:?}); a stage timestamp was recorded out of order",
            mr.round,
            flush_duration,
            apply_duration,
            duration,
        );
        let completion_duration = duration.saturating_since(flush_duration + apply_duration);
        let mut fx = vec![
            Effect::ClearRound,
            Effect::Broadcast {
                channel: Channel::Signals,
                msg: Msg::SyncComplete { round: mr.round },
            },
            Effect::RoundFinished {
                sample: SyncSample {
                    round: mr.round,
                    started_at: mr.started_at,
                    duration,
                    flush_duration,
                    apply_duration,
                    completion_duration,
                    participants: mr.order.len(),
                    ops_committed: mr.ops_committed,
                    ops_flushed: mr.flush_counts.values().sum(),
                    resends: mr.resends,
                    removals: mr.removals,
                },
            },
            Effect::ServiceJoins,
        ];
        if !cfg.flush.overlaps() {
            // Serial turns run one round at a time, paced start to start:
            // the next is due `sync_period` after this one began, at once
            // if it ran longer. (A parallel-flush round armed the tick when
            // it began.)
            fx.push(Effect::SetTimer {
                after: cfg.sync_period.saturating_since(duration),
                tag: tag::encode(tag::MASTER_TICK, 0),
            });
        }
        fx
    }

    fn on_stage1_timeout(&mut self, round: u64, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        let Some(mr) = self.flushing.as_ref().filter(|mr| mr.round == round) else {
            return Vec::new();
        };
        // Only a member whose turn is open can be blocking the stage.
        let seen: Vec<MachineId> = mr.open_turns(cfg.flush).collect();
        let laggards: Vec<MachineId> = seen.iter().copied().filter(|m| *m != self.me).collect();
        if laggards.is_empty() {
            return Vec::new(); // every member's flush is in: the round waits for stage 2 to empty
        }
        let order = mr.order.clone();
        let mut fx = Vec::new();
        let mut newly_removed = Vec::new();
        for m in laggards {
            let first_stall = |mr: &mut MasterRound| {
                MasterRound::first_stall(&mut mr.nudged_flush, &mut mr.resends, m)
            };
            if !self.flushing.as_mut().is_some_and(first_stall) {
                fx.extend(self.remove_machine(m, round));
                newly_removed.push(m);
                continue;
            }
            fx.push(Effect::Send {
                to: m,
                channel: Channel::Signals,
                msg: Msg::BeginSync {
                    round,
                    order: order.clone(),
                },
            });
            fx.push(Effect::Trace(TraceEvent::Resend {
                round,
                machine: m,
                stage: 1,
            }));
        }
        if !newly_removed.is_empty() {
            fx.push(Effect::Broadcast {
                channel: Channel::Signals,
                msg: Msg::RoundUpdate {
                    round,
                    removed: newly_removed,
                },
            });
            // The removals pass the turn on, and may have unblocked either
            // stage.
            fx.extend(self.trace_open_turns(&seen, cfg));
            fx.extend(self.advance(now, cfg));
        }
        // Re-armed only while a member's turn is open: a stage closed by
        // these removals moves on when the cut `advance` asked for is
        // lowered.
        let mut turns = self.flushing.iter().flat_map(|mr| mr.open_turns(cfg.flush));
        if turns.any(|m| m != self.me) {
            fx.push(Effect::SetTimer {
                after: cfg.stall_timeout,
                tag: tag::encode(tag::MASTER_STAGE1, round),
            });
        }
        fx
    }

    fn on_stage2_timeout(&mut self, round: u64, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        let Some(mr) = self.applying.as_ref().filter(|mr| mr.round == round) else {
            return Vec::new();
        };
        let missing: Vec<MachineId> = mr.unacked().copied().collect();
        if missing.is_empty() {
            return Vec::new();
        }
        let counts = mr.counts.clone();
        let mut fx = Vec::new();
        // If the master itself is still waiting for operation batches, the
        // earlier resend requests were probably lost: retry them rather
        // than treating ourselves as a stalled participant. (The retry can
        // never complete the apply inline — no new batch arrived since the
        // timer fired — so it only re-emits `OpsRequest`s.)
        if missing.contains(&self.me) {
            fx.push(Effect::RetryApply);
        }
        let me = self.me;
        let mut removed_any = false;
        for m in missing.into_iter().filter(|&m| m != me) {
            let first_stall = |mr: &mut MasterRound| {
                MasterRound::first_stall(&mut mr.nudged_acks, &mut mr.resends, m)
            };
            if !self.applying.as_mut().is_some_and(first_stall) {
                fx.extend(self.remove_machine(m, round));
                removed_any = true;
                continue;
            }
            // The same counts and, attached by the lowering, the same batch.
            fx.push(Effect::BeginApply {
                to: Some(m),
                round,
                counts: counts.clone(),
            });
            fx.push(Effect::Trace(TraceEvent::Resend {
                round,
                machine: m,
                stage: 2,
            }));
        }
        if removed_any {
            fx.extend(self.advance(now, cfg));
        }
        // A round that took this one's place in stage 2 armed its own timer.
        if self.applying.as_ref().is_some_and(|mr| mr.round == round) {
            fx.push(Effect::SetTimer {
                after: cfg.stall_timeout,
                tag: tag::encode(tag::MASTER_STAGE2, round),
            });
        }
        fx
    }

    /// Removes a stalled machine -- `round`'s stall timer gave up on it --
    /// from every round in flight: it is about to restart and will answer
    /// neither. Mirrors are updated here, the participant set and member
    /// list via [`Effect::RemoveFromRound`]; the removal counts against
    /// `round`, and a stage-1 round that loses the machine to the other
    /// round's timer tells its members.
    fn remove_machine(&mut self, m: MachineId, round: u64) -> Vec<Effect> {
        let mut fx = vec![
            Effect::RemoveFromRound { machine: m },
            Effect::Send {
                to: m,
                channel: Channel::Signals,
                msg: Msg::Restart,
            },
            Effect::Trace(TraceEvent::Removed { round, machine: m }),
        ];
        // True if `mr` lost the machine to the other round's timer.
        let drop_from = |mr: &mut MasterRound| {
            let dropped = mr.drop_machine(m);
            if dropped && mr.round == round {
                debug_assert!(mr.removals < u64::MAX, "removal counter saturated");
                mr.removals = mr.removals.saturating_add(1);
            }
            dropped && mr.round != round
        };
        if let Some(mr) = self.applying.as_mut() {
            drop_from(mr);
        }
        if let Some(mr) = self.flushing.as_mut() {
            if drop_from(mr) {
                fx.push(Effect::Broadcast {
                    channel: Channel::Signals,
                    msg: Msg::RoundUpdate {
                        round: mr.round,
                        removed: vec![m],
                    },
                });
            }
        }
        fx
    }
}

#[cfg(test)]
mod tests {
    //! Pure step-level tests: no net driver — events in, effects out.

    use super::*;

    fn id(n: u32) -> MachineId {
        MachineId::new(n)
    }

    fn cfg() -> MachineConfig {
        MachineConfig::default()
    }

    fn order3() -> Vec<MachineId> {
        vec![id(0), id(1), id(2)]
    }

    fn flush_done(m: &mut MasterRole, i: u32, now: SimTime, c: &MachineConfig) -> Vec<Effect> {
        let (machine, count) = (id(i), 1);
        m.step(MasterEvent::FlushDone { machine, count }, now, c)
    }

    /// Whether `fx` ends by asking the master for its own flush: the cut.
    fn cuts(fx: &[Effect]) -> bool {
        matches!(fx.last(), Some(Effect::Flush))
    }

    /// Feeds the flushing round of `order3` one `FlushDone` each, one
    /// operation apiece, in the order the composer does: under serial turns
    /// the master's first; under the parallel flush the members', and then
    /// -- answering the cut the last of them brings if stage 2 is free --
    /// the master's own. Returns the effects of the last step.
    fn flush_all(m: &mut MasterRole, now: SimTime, c: &MachineConfig) -> Vec<Effect> {
        if c.flush == Flush::Serial {
            flush_done(m, 0, now, c);
        }
        flush_done(m, 1, now, c);
        let last = flush_done(m, 2, now, c);
        if c.flush == Flush::Serial {
            return last;
        }
        assert_eq!(cuts(&last), m.applying.is_none(), "cut iff stage 2 is free");
        if cuts(&last) {
            flush_done(m, 0, now, c)
        } else {
            last
        }
    }

    /// Drives a fresh role through BeginSync + all FlushDones into Apply.
    fn into_apply(c: &MachineConfig) -> MasterRole {
        let mut m = MasterRole::new(id(0));
        m.step(
            MasterEvent::BeginRound { order: order3() },
            SimTime::ZERO,
            c,
        );
        flush_all(&mut m, SimTime::from_millis(10), c);
        assert!(m.flushing.is_none() && m.applying.is_some());
        m
    }

    type Counts = Vec<(MachineId, u64)>;

    /// The `BeginApply`s in `fx`: addressee (`None` = everyone), round,
    /// counts.
    fn begin_applies(fx: &[Effect]) -> Vec<(Option<MachineId>, u64, Counts)> {
        let begin_apply = |e: &Effect| match e {
            Effect::BeginApply { to, round, counts } => Some((*to, *round, counts.clone())),
            _ => None,
        };
        fx.iter().filter_map(begin_apply).collect()
    }

    /// The paper's §4 turn-taking, which the default no longer selects.
    fn serial_cfg() -> MachineConfig {
        cfg().with_flush(Flush::Serial)
    }

    /// Starts round 1 over `order3` and checks the part of the script both
    /// flush modes share -- `BeginSync` ahead of all work, the master's own
    /// flush included, so that it is on the wire while the master works --
    /// and returns what follows the `RoundStarted` trace.
    fn begin_round_tail(c: &MachineConfig) -> Vec<Effect> {
        let mut m = MasterRole::new(id(0));
        let mut fx = m.step(
            MasterEvent::BeginRound { order: order3() },
            SimTime::ZERO,
            c,
        );
        if c.flush == Flush::Parallel {
            // The next round's tick runs from the very start of this one.
            assert_eq!(next_tick(&fx.remove(0)), c.sync_period);
        }
        assert!(matches!(
            fx[0],
            Effect::Broadcast {
                msg: Msg::BeginSync { round: 1, .. },
                ..
            }
        ));
        assert!(matches!(fx[1], Effect::StartLocalRound { round: 1, .. }));
        assert!(matches!(
            fx[2],
            Effect::Trace(TraceEvent::RoundStarted {
                participants: 3,
                ..
            })
        ));
        assert_eq!(m.next_round, 2);
        fx.split_off(3)
    }

    fn is_stage1_timer(fx: &Effect) -> bool {
        matches!(fx, Effect::SetTimer { tag: t, .. }
            if tag::kind(*t) == tag::MASTER_STAGE1 && tag::round(*t) == 1)
    }

    #[test]
    fn begin_round_script_is_broadcast_install_trace_flush_timer() {
        // Serial flush: the master's window opens first.
        let tail = begin_round_tail(&serial_cfg());
        assert!(matches!(
            tail[..],
            [
                Effect::Trace(TraceEvent::FlushWindowOpened { .. }),
                Effect::Flush,
                _
            ]
        ));
        assert!(is_stage1_timer(&tail[2]));
    }

    #[test]
    fn parallel_begin_round_neither_opens_a_flush_window_nor_flushes() {
        // Everyone flushes at once: there is no turn to open. And the
        // master flushes last: with members to wait for, not yet.
        let tail = begin_round_tail(&cfg());
        assert!(matches!(tail[..], [_]));
        assert!(is_stage1_timer(&tail[0]));
    }

    #[test]
    fn a_master_alone_cuts_as_it_begins_the_round() {
        let c = cfg();
        let mut m = MasterRole::new(id(0));
        let order = vec![id(0)];
        let fx = m.step(MasterEvent::BeginRound { order }, ms(0), &c);
        // Stage 1 is closed as it opens; the stall timer still trails.
        assert!(cuts(&fx[..fx.len() - 1]), "{fx:?}");
        let fx = flush_done(&mut m, 0, ms(0), &c);
        assert_eq!(begin_applies(&fx), vec![(None, 1, vec![(id(0), 1)])]);
    }

    #[test]
    fn the_last_members_flush_done_cuts_and_the_masters_own_starts_the_apply_stage() {
        let c = cfg();
        let mut m = MasterRole::new(id(0));
        m.step(MasterEvent::BeginRound { order: order3() }, ms(0), &c);
        let fx = flush_done(&mut m, 1, ms(5), &c);
        assert!(matches!(
            fx[..],
            [Effect::Trace(TraceEvent::FlushWindowClosed { .. })]
        ));
        // The last member's: stage 1 is closed but for the master's flush.
        let fx = flush_done(&mut m, 2, ms(5), &c);
        assert!(matches!(
            fx[..],
            [
                Effect::Trace(TraceEvent::FlushWindowClosed { .. }),
                Effect::Flush
            ]
        ));
        assert!(m.flushing.is_some(), "the round moves with the cut's count");
        // A duplicate of it asks for the cut again; the composer flushes a
        // round once.
        assert!(matches!(
            flush_done(&mut m, 2, ms(5), &c)[..],
            [Effect::Flush]
        ));
        // The cut's own `FlushDone`: the counts go out -- the lowering
        // attaches the batch -- ahead of the master's own apply, so the
        // members' link delay covers it (see `start_apply_stage`).
        let fx = flush_done(&mut m, 0, ms(5), &c);
        let everyone = vec![(id(0), 1), (id(1), 1), (id(2), 1)];
        assert_eq!(begin_applies(&fx), vec![(None, 1, everyone)]);
        assert!(matches!(
            fx[..],
            [
                Effect::Trace(TraceEvent::FlushWindowClosed { .. }),
                Effect::BeginApply { .. },
                Effect::Trace(TraceEvent::BeginApply { ops_total: 3, .. }),
                Effect::SetTimer { .. },
                Effect::BeginApplyLocal { .. }
            ]
        ));
    }

    #[test]
    fn a_flush_done_of_its_own_ahead_of_the_members_is_counted_and_nothing_is_cut() {
        // Not an order the composer produces under the parallel flush, but
        // one a driver of the bare role may: the count stands, and the last
        // member's `FlushDone` moves the round itself.
        let c = cfg();
        let mut m = MasterRole::new(id(0));
        m.step(MasterEvent::BeginRound { order: order3() }, ms(0), &c);
        for i in 0..2 {
            let fx = flush_done(&mut m, i, ms(5), &c);
            assert!(!cuts(&fx) && begin_applies(&fx).is_empty());
        }
        let fx = flush_done(&mut m, 2, ms(5), &c);
        assert!(!cuts(&fx));
        assert_eq!(begin_applies(&fx).len(), 1);
    }

    #[test]
    fn stage1_stall_nudges_then_removes() {
        let c = serial_cfg();
        let mut m = MasterRole::new(id(0));
        m.step(
            MasterEvent::BeginRound { order: order3() },
            SimTime::ZERO,
            &c,
        );
        m.step(
            MasterEvent::FlushDone {
                machine: id(0),
                count: 0,
            },
            SimTime::ZERO,
            &c,
        );
        // First stall: resend BeginSync to the laggard (serial: next in turn).
        let fx = m.step(
            MasterEvent::Stage1Timeout { round: 1 },
            SimTime::from_secs(2),
            &c,
        );
        assert!(
            matches!(fx[0], Effect::Send { to, msg: Msg::BeginSync { .. }, .. } if to == id(1))
        );
        assert!(matches!(
            fx[1],
            Effect::Trace(TraceEvent::Resend { stage: 1, .. })
        ));
        assert!(matches!(fx[2], Effect::SetTimer { .. }));
        // Second stall: remove it and tell the round.
        let fx = m.step(
            MasterEvent::Stage1Timeout { round: 1 },
            SimTime::from_secs(4),
            &c,
        );
        assert!(matches!(fx[0], Effect::RemoveFromRound { machine } if machine == id(1)));
        assert!(matches!(
            fx[1],
            Effect::Send {
                msg: Msg::Restart,
                ..
            }
        ));
        assert!(matches!(fx[2], Effect::Trace(TraceEvent::Removed { .. })));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Broadcast {
                msg: Msg::RoundUpdate { .. },
                ..
            }
        )));
        let mr = m.flushing.as_ref().unwrap();
        assert!(mr.removed.contains(&id(1)));
        assert_eq!((mr.resends, mr.removals), (1, 1));
    }

    #[test]
    fn parallel_stage1_stall_nudges_then_removes_every_silent_member() {
        // Parallel flush: both silent members block the stage at once, so
        // one timeout nudges both and the next removes both.
        // The master's own flush is missing as well -- it comes last -- and
        // is never a laggard: nobody nudges or removes the master.
        let c = cfg();
        let mut m = MasterRole::new(id(0));
        m.step(
            MasterEvent::BeginRound { order: order3() },
            SimTime::ZERO,
            &c,
        );
        let fx = m.step(
            MasterEvent::Stage1Timeout { round: 1 },
            SimTime::from_secs(2),
            &c,
        );
        let nudged: Vec<MachineId> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: Msg::BeginSync { round: 1, .. },
                    ..
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(nudged, vec![id(1), id(2)]);
        assert!(is_stage1_timer(fx.last().unwrap()), "stage 1 re-armed");
        assert!(m.flushing.is_some() && m.applying.is_none());

        let fx = m.step(
            MasterEvent::Stage1Timeout { round: 1 },
            SimTime::from_secs(4),
            &c,
        );
        let updates: Vec<&Vec<MachineId>> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Broadcast {
                    msg: Msg::RoundUpdate { removed, .. },
                    ..
                } => Some(removed),
                _ => None,
            })
            .collect();
        assert_eq!(
            updates,
            vec![&vec![id(1), id(2)]],
            "one RoundUpdate names both"
        );
        let restarted = fx.iter().filter(|e| {
            matches!(
                e,
                Effect::Send {
                    msg: Msg::Restart,
                    ..
                }
            )
        });
        assert_eq!(restarted.count(), 2);
        // Nobody is left to wait for: the removal of the last laggard cuts,
        // with no stage-1 timer re-armed, and the stage advances on the
        // master's own flush.
        assert!(cuts(&fx));
        assert!(!fx.iter().any(is_stage1_timer));
        let fx = flush_done(&mut m, 0, SimTime::from_secs(4), &c);
        assert_eq!(begin_applies(&fx), vec![(None, 1, vec![(id(0), 1)])]);
        assert!(m.flushing.is_none(), "the round moved to stage 2");
        let mr = m.applying.as_ref().unwrap();
        assert_eq!((mr.resends, mr.removals), (2, 2));
    }

    #[test]
    fn all_acks_finish_the_round_with_a_sample() {
        let c = serial_cfg();
        let mut m = into_apply(&c);
        m.step(
            MasterEvent::RoundApplied { ops_committed: 3 },
            SimTime::from_millis(20),
            &c,
        );
        m.step(
            MasterEvent::Ack { machine: id(1) },
            SimTime::from_millis(25),
            &c,
        );
        let fx = m.step(
            MasterEvent::Ack { machine: id(2) },
            SimTime::from_millis(30),
            &c,
        );
        assert!(matches!(
            fx[0],
            Effect::Trace(TraceEvent::AckReceived { .. })
        ));
        assert!(matches!(fx[1], Effect::ClearRound));
        assert!(matches!(
            fx[2],
            Effect::Broadcast {
                msg: Msg::SyncComplete { round: 1 },
                ..
            }
        ));
        let Effect::RoundFinished { sample } = &fx[3] else {
            panic!("RoundFinished expected, got {:?}", fx[3]);
        };
        assert_eq!(sample.round, 1);
        assert_eq!(sample.participants, 3);
        assert_eq!(sample.ops_committed, 3);
        assert_eq!(sample.ops_flushed, 3);
        assert!(matches!(fx[4], Effect::ServiceJoins));
        // Serial turns arm the tick here: the round began at 0 and took
        // 30 ms of the 250 ms period.
        assert_eq!(next_tick(&fx[5]), SimTime::from_millis(220));
        assert!(!m.round_active());
    }

    /// The delay of the `MASTER_TICK` a finished round arms.
    fn next_tick(fx: &Effect) -> SimTime {
        match fx {
            Effect::SetTimer { after, tag: t } if tag::kind(*t) == tag::MASTER_TICK => *after,
            other => panic!("MASTER_TICK expected, got {other:?}"),
        }
    }

    #[test]
    fn a_serial_round_that_outlasts_the_period_is_followed_at_once() {
        // Rounds are paced start to start: `into_apply` began one at 0, and
        // the last ack arrives after the whole 250 ms period has gone by.
        let c = serial_cfg();
        let mut m = into_apply(&c);
        for ev in [
            MasterEvent::RoundApplied { ops_committed: 3 },
            MasterEvent::Ack { machine: id(1) },
        ] {
            m.step(ev, SimTime::from_millis(20), &c);
        }
        let fx = m.step(
            MasterEvent::Ack { machine: id(2) },
            SimTime::from_millis(300),
            &c,
        );
        assert_eq!(next_tick(fx.last().unwrap()), SimTime::ZERO);
    }

    fn due(fx: &[Effect]) -> bool {
        fx.iter().any(|e| matches!(e, Effect::RoundDue))
    }

    fn broadcasts(fx: &[Effect]) -> Vec<&Msg> {
        let mut sent = Vec::new();
        for e in fx {
            if let Effect::Broadcast { msg, .. } = e {
                sent.push(msg);
            }
        }
        sent
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// Round 1 in stage 2 and applied by the master, round 2 begun under it
    /// by a tick at 15 ms.
    fn two_in_flight(c: &MachineConfig) -> MasterRole {
        let mut m = into_apply(c);
        m.step(MasterEvent::RoundApplied { ops_committed: 3 }, ms(12), c);
        let fx = m.step(MasterEvent::Tick { drain_first: false }, ms(15), c);
        assert!(matches!(fx[..], [Effect::RoundDue]), "room beside round 1");
        m.step(MasterEvent::BeginRound { order: order3() }, ms(15), c);
        let in_flight = [&m.flushing, &m.applying].map(|mr| mr.as_ref().unwrap().round);
        assert_eq!(in_flight, [2, 1]);
        m
    }

    #[test]
    fn a_tick_during_stage_1_is_remembered_not_dropped() {
        let c = cfg();
        let mut m = MasterRole::new(id(0));
        m.step(MasterEvent::BeginRound { order: order3() }, ms(0), &c);
        assert!(m
            .step(MasterEvent::Tick { drain_first: false }, ms(5), &c)
            .is_empty());
        assert_eq!(m.tick_waiting, Some(false));
        // Stage 1 closing is not room yet: the master's participant side
        // holds one unapplied round, so it has to apply this one first.
        assert!(!due(&flush_all(&mut m, ms(10), &c)));
        assert!(m.flushing.is_none() && m.applying.is_some());
        let fx = m.step(MasterEvent::RoundApplied { ops_committed: 3 }, ms(11), &c);
        assert!(matches!(
            fx[..],
            [
                Effect::Trace(TraceEvent::AckReceived { .. }),
                Effect::RoundDue
            ]
        ));
        assert_eq!(m.tick_waiting, None, "due once");
        assert!(!due(&m.step(
            MasterEvent::Ack { machine: id(1) },
            ms(12),
            &c
        )));
    }

    #[test]
    fn serial_turns_or_a_waiting_joiner_keep_the_tick_until_no_round_is_in_flight() {
        for (c, drain_first) in [(serial_cfg(), false), (cfg(), true)] {
            let mut m = into_apply(&c);
            m.step(MasterEvent::RoundApplied { ops_committed: 3 }, ms(12), &c);
            assert!(m
                .step(MasterEvent::Tick { drain_first }, ms(15), &c)
                .is_empty());
            assert!(!due(&m.step(
                MasterEvent::Ack { machine: id(1) },
                ms(20),
                &c
            )));
            let fx = m.step(MasterEvent::Ack { machine: id(2) }, ms(21), &c);
            assert!(!m.round_active());
            assert!(matches!(fx.last(), Some(Effect::RoundDue)), "{fx:?}");
        }
    }

    #[test]
    fn the_next_round_waits_in_stage_1_until_this_one_completes() {
        let c = cfg();
        let mut m = two_in_flight(&c);
        // Every member's flush of round 2 is in while round 1 applies: it
        // stays in stage 1, and the master does not cut yet.
        let fx = flush_all(&mut m, ms(16), &c);
        assert!(matches!(
            fx[..],
            [Effect::Trace(TraceEvent::FlushWindowClosed { .. })]
        ));
        assert_eq!(m.flushing.as_ref().unwrap().flush_counts.len(), 2);
        // With every member's flush in there is nobody to nudge: the timer
        // lapses.
        assert!(m
            .step(MasterEvent::Stage1Timeout { round: 2 }, ms(17), &c)
            .is_empty());
        // A tick finds stage 1 taken, and waits.
        assert!(m
            .step(MasterEvent::Tick { drain_first: false }, ms(18), &c)
            .is_empty());
        m.step(MasterEvent::Ack { machine: id(1) }, ms(20), &c);
        let fx = m.step(MasterEvent::Ack { machine: id(2) }, ms(21), &c);
        // Round 1 completes, and only then -- what the master issued up to
        // here rides -- is round 2 cut; it enters stage 2 with the cut's
        // count, in the same handler.
        assert!(matches!(
            broadcasts(&fx)[..],
            [Msg::SyncComplete { round: 1 }]
        ));
        assert!(cuts(&fx) && m.flushing.is_some());
        let fx = flush_done(&mut m, 0, ms(21), &c);
        assert!(matches!(begin_applies(&fx)[..], [(None, 2, _)]));
        assert!(matches!(
            fx.last(),
            Some(Effect::BeginApplyLocal { round: 2, .. })
        ));
        assert!(m.flushing.is_none());
        // The waiting tick's turn comes when the master has applied round 2.
        let fx = m.step(MasterEvent::RoundApplied { ops_committed: 3 }, ms(21), &c);
        assert!(due(&fx));
        // Round 2's stage 1 is charged the wait: 15 ms to 21 ms.
        m.step(MasterEvent::Ack { machine: id(1) }, ms(30), &c);
        let fx = m.step(MasterEvent::Ack { machine: id(2) }, ms(31), &c);
        let sample = fx.iter().find_map(|e| match e {
            Effect::RoundFinished { sample } => Some(*sample),
            _ => None,
        });
        let sample = sample.expect("round 2 finished");
        assert_eq!(
            (sample.round, sample.flush_duration, sample.apply_duration),
            (2, ms(6), ms(10))
        );
    }

    #[test]
    fn a_machine_removed_from_the_applying_round_leaves_the_flushing_round_too() {
        let c = cfg();
        let mut m = two_in_flight(&c);
        m.step(MasterEvent::Ack { machine: id(1) }, ms(16), &c);
        flush_done(&mut m, 1, ms(17), &c);
        // m2 neither acknowledges round 1 nor flushes round 2. Round 1's
        // stage-2 timer nudges it, then gives up on it.
        let fx = m.step(
            MasterEvent::Stage2Timeout { round: 1 },
            SimTime::from_secs(2),
            &c,
        );
        assert!(matches!(
            fx[0],
            Effect::BeginApply { to: Some(to), round: 1, .. } if to == id(2)
        ));
        let fx = m.step(
            MasterEvent::Stage2Timeout { round: 1 },
            SimTime::from_secs(4),
            &c,
        );
        assert!(matches!(fx[0], Effect::RemoveFromRound { machine } if machine == id(2)));
        assert_eq!(restarts(&fx), 1);
        // Round 2's members hear that it lost a machine, round 1 completes
        // without the ack, and round 2 closes stage 1 without the flush:
        // the master cuts.
        let sent = broadcasts(&fx);
        assert!(matches!(
            sent[0],
            Msg::RoundUpdate { round: 2, removed } if *removed == vec![id(2)]
        ));
        assert!(matches!(sent[1..], [Msg::SyncComplete { round: 1 }]));
        assert!(cuts(&fx));
        let removals = fx.iter().find_map(|e| match e {
            Effect::RoundFinished { sample } => Some((sample.round, sample.removals)),
            _ => None,
        });
        assert_eq!(removals, Some((1, 1)), "counted once, against round 1");
        let rearmed = |e: &Effect| {
            matches!(e, Effect::SetTimer { tag: t, .. }
                if tag::kind(*t) == tag::MASTER_STAGE2 && tag::round(*t) == 1)
        };
        assert!(!fx.iter().any(rearmed), "round 1 is over");
        let fx = flush_done(&mut m, 0, SimTime::from_secs(4), &c);
        let counts = vec![(id(0), 1), (id(1), 1)];
        assert_eq!(begin_applies(&fx), vec![(None, 2, counts)]);
        assert_eq!(m.applying.as_ref().unwrap().removals, 0);
    }

    #[test]
    fn a_leaver_drops_out_of_both_rounds_in_flight() {
        let c = cfg();
        let mut m = two_in_flight(&c);
        m.step(MasterEvent::Ack { machine: id(1) }, ms(16), &c);
        flush_done(&mut m, 1, ms(17), &c);
        // m2 leaves owing round 1 an ack and round 2 a flush: both stop
        // waiting, nobody is restarted, and round 2 is cut.
        let fx = m.step(MasterEvent::Left { machine: id(2) }, ms(18), &c);
        assert!(matches!(fx[0], Effect::RemoveFromRound { machine } if machine == id(2)));
        assert!(matches!(
            broadcasts(&fx)[..],
            [
                Msg::RoundUpdate { round: 2, .. },
                Msg::SyncComplete { round: 1 }
            ]
        ));
        assert_eq!(restarts(&fx), 0);
        assert!(cuts(&fx));
        let fx = flush_done(&mut m, 0, ms(18), &c);
        assert!(matches!(begin_applies(&fx)[..], [(None, 2, _)]));
        assert!(m.flushing.is_none());
        assert_eq!(m.applying.as_ref().unwrap().round, 2);
    }

    fn restarts(fx: &[Effect]) -> usize {
        let is_restart = |e: &&Effect| {
            matches!(
                e,
                Effect::Send {
                    msg: Msg::Restart,
                    ..
                }
            )
        };
        fx.iter().filter(is_restart).count()
    }

    /// The machines whose flush window `fx` traces open.
    fn opened(fx: &[Effect]) -> Vec<MachineId> {
        let opened = |e: &Effect| match e {
            Effect::Trace(TraceEvent::FlushWindowOpened { machine, .. }) => Some(*machine),
            _ => None,
        };
        fx.iter().filter_map(opened).collect()
    }

    #[test]
    fn a_serial_turn_a_leave_passes_on_is_traced_once() {
        let c = serial_cfg();
        let mut m = MasterRole::new(id(0));
        let order = (0..4).map(id).collect();
        let fx = m.step(MasterEvent::BeginRound { order }, ms(0), &c);
        assert_eq!(opened(&fx), vec![id(0)]);
        assert_eq!(opened(&flush_done(&mut m, 0, ms(0), &c)), vec![id(1)]);
        // m2 leaves while m1 holds the turn: no turn opens.
        let fx = m.step(MasterEvent::Left { machine: id(2) }, ms(1), &c);
        assert!(opened(&fx).is_empty(), "{fx:?}");
        // m1 leaves holding it: the turn passes over m2 to m3.
        let fx = m.step(MasterEvent::Left { machine: id(1) }, ms(2), &c);
        assert_eq!(opened(&fx), vec![id(3)]);
    }

    #[test]
    fn a_leaver_drops_out_of_stage_1_whether_or_not_it_flushed() {
        let c = cfg();
        let mut m = MasterRole::new(id(0));
        m.step(
            MasterEvent::BeginRound { order: order3() },
            SimTime::ZERO,
            &c,
        );
        flush_done(&mut m, 1, SimTime::ZERO, &c);
        // m1 leaves after its flush; m2 has not flushed, so the stage waits.
        let fx = m.step(MasterEvent::Left { machine: id(1) }, SimTime::ZERO, &c);
        assert!(matches!(
            fx[..],
            [
                Effect::RemoveFromRound { machine },
                Effect::Broadcast {
                    msg: Msg::RoundUpdate { round: 1, ref removed },
                    ..
                }
            ] if machine == id(1) && *removed == vec![id(1)]
        ));
        // m2 leaves before its flush: it was the last one awaited, so the
        // master cuts, and neither leaver's operations are counted.
        let fx = m.step(
            MasterEvent::Left { machine: id(2) },
            SimTime::from_millis(5),
            &c,
        );
        assert!(cuts(&fx));
        assert_eq!(restarts(&fx), 0, "a leaver is never restarted");
        let fx = flush_done(&mut m, 0, SimTime::from_millis(5), &c);
        assert_eq!(begin_applies(&fx), vec![(None, 1, vec![(id(0), 1)])]);
        assert!(m.flushing.is_none(), "the round moved to stage 2");
        assert_eq!(m.applying.as_ref().unwrap().removals, 0);
        // Leaving twice, or leaving a round one is not in, changes nothing.
        assert!(m
            .step(MasterEvent::Left { machine: id(2) }, SimTime::ZERO, &c)
            .is_empty());
        assert!(m
            .step(MasterEvent::Left { machine: id(9) }, SimTime::ZERO, &c)
            .is_empty());
    }

    #[test]
    fn a_leavers_ack_is_not_awaited_in_stage_2() {
        let c = cfg();
        let mut m = into_apply(&c);
        m.step(
            MasterEvent::RoundApplied { ops_committed: 3 },
            SimTime::from_millis(20),
            &c,
        );
        m.step(
            MasterEvent::Ack { machine: id(1) },
            SimTime::from_millis(25),
            &c,
        );
        // m2's flush is counted and commits everywhere; only its ack is
        // missing, and it will not come.
        let fx = m.step(
            MasterEvent::Left { machine: id(2) },
            SimTime::from_millis(30),
            &c,
        );
        assert!(matches!(fx[0], Effect::RemoveFromRound { machine } if machine == id(2)));
        assert!(matches!(fx[1], Effect::ClearRound));
        let Effect::RoundFinished { sample } = &fx[3] else {
            panic!("RoundFinished expected, got {:?}", fx[3]);
        };
        assert_eq!((sample.ops_flushed, sample.removals), (3, 0));
        assert_eq!(restarts(&fx), 0);
        assert!(!m.round_active());
        // With no round active there is nothing to leave.
        assert!(m
            .step(MasterEvent::Left { machine: id(1) }, SimTime::ZERO, &c)
            .is_empty());
    }

    // The assertion is debug-only, so a release build has nothing to test.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stage durations exceed the round duration")]
    fn out_of_order_stage_timestamps_are_rejected() {
        // Regression: a round whose final ack is stamped *before* the
        // apply stage began used to clamp the negative stage-3 remainder
        // to zero silently. The debug assertion must fire instead.
        let c = cfg();
        let mut m = MasterRole::new(id(0));
        m.step(
            MasterEvent::BeginRound { order: order3() },
            SimTime::from_millis(10),
            &c,
        );
        for i in 0..3 {
            // Stage 1 ends (BeginApply goes out) at t = 20ms.
            m.step(
                MasterEvent::FlushDone {
                    machine: id(i),
                    count: 1,
                },
                SimTime::from_millis(20),
                &c,
            );
        }
        m.step(
            MasterEvent::RoundApplied { ops_committed: 3 },
            SimTime::from_millis(20),
            &c,
        );
        m.step(
            MasterEvent::Ack { machine: id(1) },
            SimTime::from_millis(20),
            &c,
        );
        // Out-of-order clock: the last ack is stamped at t = 5ms, before
        // the round even began. duration saturates to 0 while stage 1
        // alone measured 10ms.
        m.step(
            MasterEvent::Ack { machine: id(2) },
            SimTime::from_millis(5),
            &c,
        );
    }

    #[test]
    fn duplicate_acks_and_stale_timers_are_ignored() {
        let c = cfg();
        let mut m = into_apply(&c);
        let fx = m.step(
            MasterEvent::Ack { machine: id(1) },
            SimTime::from_millis(20),
            &c,
        );
        assert_eq!(fx.len(), 1, "trace only");
        let fx = m.step(
            MasterEvent::Ack { machine: id(1) },
            SimTime::from_millis(21),
            &c,
        );
        assert!(fx.is_empty(), "duplicate ack");
        // A stage-1 timer for the finished flush stage is a no-op now.
        let fx = m.step(
            MasterEvent::Stage1Timeout { round: 1 },
            SimTime::from_secs(2),
            &c,
        );
        assert!(fx.is_empty());
        // As is any timer for a different round.
        let fx = m.step(
            MasterEvent::Stage2Timeout { round: 7 },
            SimTime::from_secs(2),
            &c,
        );
        assert!(fx.is_empty());
    }
}

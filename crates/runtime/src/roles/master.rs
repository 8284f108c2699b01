//! The master side of the §4 synchronizer: round initiation, stage
//! tracking, stall recovery, and completion.
//!
//! The master drives each round through three stages — flush
//! (`AddUpdatesToMesh`), apply (`ApplyUpdatesFromMesh`), completion
//! (`FlagCompletion`) — and recovers from stalls by first *resending* the
//! signal a silent machine failed to answer, then removing it from the
//! round. This role owns the [`MasterRound`] bookkeeping plus mirrors of
//! the round order and removed set, so every master decision is a pure
//! function of its own state.

use std::collections::{BTreeMap, BTreeSet};

use guesstimate_core::MachineId;
use guesstimate_net::{Channel, SimTime, TraceEvent};

use crate::config::MachineConfig;
use crate::message::Msg;
use crate::roles::{tag, Effect};
use crate::stats::SyncSample;

/// Which stage the master is driving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1: participants flush their pending lists.
    Flush,
    /// Stage 2: participants apply the consolidated list and acknowledge.
    Apply,
}

/// Master-side bookkeeping for the round in progress.
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
    /// Current stage.
    pub(crate) stage: Stage,
    /// The flush order announced in `BeginSync` (mirror of the master's own
    /// participant state; the master is the only writer of both).
    pub(crate) order: Vec<MachineId>,
    /// Machines removed from this round (mirror, same invariant).
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
            stage: Stage::Flush,
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
}

/// Inputs to the master role.
#[derive(Debug)]
pub enum MasterEvent {
    /// The sync-period tick elapsed with no round active: start one.
    BeginRound {
        /// The flush order (current member set, master first).
        order: Vec<MachineId>,
    },
    /// A participant confirmed its flush.
    FlushDone {
        /// The participant.
        machine: MachineId,
        /// How many operations it flushed.
        count: u64,
    },
    /// A participant acknowledged the apply.
    Ack {
        /// The participant.
        machine: MachineId,
    },
    /// The master's own participant side applied the round.
    RoundApplied {
        /// Operations committed in the consolidated list.
        ops_committed: u64,
    },
    /// A participant left the system on purpose (`Leave`): the round stops
    /// waiting for it.
    Left {
        /// The departing machine.
        machine: MachineId,
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
    /// The round in progress, if any.
    pub(crate) active: Option<MasterRound>,
    /// The next round number to use.
    pub(crate) next_round: u64,
}

impl MasterRole {
    /// A fresh role for machine `me`; rounds start at 1.
    pub fn new(me: MachineId) -> Self {
        MasterRole {
            me,
            active: None,
            next_round: 1,
        }
    }

    /// Whether a round is currently being driven.
    pub fn round_active(&self) -> bool {
        self.active.is_some()
    }

    /// The round in progress, for the paths that only exist inside one.
    fn active_mut(&mut self) -> &mut MasterRound {
        self.active
            .as_mut()
            .expect("stage timers and stage transitions only run with a round active")
    }

    /// Pure transition: consumes one event, returns the effects to lower.
    pub fn step(&mut self, ev: MasterEvent, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        match ev {
            MasterEvent::BeginRound { order } => self.begin_round(order, now, cfg),
            MasterEvent::FlushDone { machine, count } => {
                self.on_flush_done(machine, count, now, cfg)
            }
            MasterEvent::Ack { machine } => {
                let Some(mr) = self.active.as_mut() else {
                    return Vec::new();
                };
                let mut fx = Vec::new();
                if mr.acks.insert(machine) {
                    fx.push(Effect::Trace(TraceEvent::AckReceived {
                        round: mr.round,
                        machine,
                    }));
                }
                fx.extend(self.finish_if_complete(now, cfg));
                fx
            }
            MasterEvent::RoundApplied { ops_committed } => {
                let Some(mr) = self.active.as_mut() else {
                    return Vec::new();
                };
                mr.ops_committed = ops_committed;
                mr.acks.insert(self.me);
                let round = mr.round;
                let mut fx = vec![Effect::Trace(TraceEvent::AckReceived {
                    round,
                    machine: self.me,
                })];
                fx.extend(self.finish_if_complete(now, cfg));
                fx
            }
            MasterEvent::Left { machine } => self.on_left(machine, now, cfg),
            MasterEvent::Stage1Timeout { round } => self.on_stage1_timeout(round, now, cfg),
            MasterEvent::Stage2Timeout { round } => self.on_stage2_timeout(round, now, cfg),
        }
    }

    fn begin_round(
        &mut self,
        order: Vec<MachineId>,
        now: SimTime,
        cfg: &MachineConfig,
    ) -> Vec<Effect> {
        let round = self.next_round;
        self.next_round += 1;
        debug_assert_eq!(order.first(), Some(&self.me), "master flushes first");
        let participants = order.len() as u32;
        // `BeginSync` goes first: on the wall-clock mesh a send leaves at its
        // call, so the members' link delay runs while this machine flushes.
        let mut fx = vec![
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
        ];
        self.active = Some(MasterRound::new(round, now, order));
        if !cfg.parallel_flush {
            // Serial turn-taking: the master flushes first.
            fx.push(Effect::Trace(TraceEvent::FlushWindowOpened {
                round,
                machine: self.me,
            }));
        }
        fx.push(Effect::Flush);
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
        let (newly, round, stage_done, next_turn) = {
            let Some(mr) = self.active.as_mut() else {
                return Vec::new();
            };
            if mr.stage != Stage::Flush {
                return Vec::new();
            }
            let newly = mr.flush_counts.insert(machine, count).is_none();
            let pending = || mr.expected().filter(|m| !mr.flush_counts.contains_key(*m));
            let stage_done = pending().next().is_none();
            // Under serial turn-taking the next unflushed machine in the
            // round order now holds the flush window.
            let next_turn = if cfg.parallel_flush {
                None
            } else {
                pending().next().copied()
            };
            (newly, mr.round, stage_done, next_turn)
        };
        let mut fx = Vec::new();
        if newly {
            fx.push(Effect::Trace(TraceEvent::FlushWindowClosed {
                round,
                machine,
                ops: count,
            }));
            if let Some(next) = next_turn {
                fx.push(Effect::Trace(TraceEvent::FlushWindowOpened {
                    round,
                    machine: next,
                }));
            }
        }
        if stage_done {
            fx.extend(self.start_apply_stage(now, cfg));
        }
        fx
    }

    /// Stage 1 → stage 2: broadcast the authoritative per-machine counts.
    fn start_apply_stage(&mut self, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        let mr = self.active_mut();
        mr.stage = Stage::Apply;
        mr.apply_started_at = Some(now);
        let counts: Vec<(MachineId, u64)> = mr
            .order
            .iter()
            .filter(|m| !mr.removed.contains(m))
            .map(|m| (*m, *mr.flush_counts.get(m).unwrap_or(&0)))
            .collect();
        mr.counts = counts.clone();
        let round = mr.round;
        // `BeginApply` goes first, the master's own apply last: a send leaves
        // at its call, so the members hear it one link delay from here while
        // this machine applies the round.
        vec![
            Effect::Broadcast {
                channel: Channel::Signals,
                msg: Msg::BeginApply {
                    round,
                    counts: counts.clone(),
                },
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

    /// Starts stage 2 if every machine still expected has flushed.
    fn start_apply_if_flushed(&mut self, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        let mr = self.active_mut();
        if mr.stage == Stage::Flush && mr.expected().all(|m| mr.flush_counts.contains_key(m)) {
            self.start_apply_stage(now, cfg)
        } else {
            Vec::new()
        }
    }

    /// A machine in the round left on purpose and has dropped its round
    /// state: stop waiting for it. In stage 1 it drops out of the round --
    /// whatever it flushed stays on its own pending list, uncounted by
    /// `BeginApply` -- which may be what the stage was waiting for; in
    /// stage 2 its flush is already counted and commits everywhere, and
    /// only its `Ack` is no longer awaited. Unlike a stalled machine it is
    /// not sent `Restart`: it keeps its pending operations for its return.
    fn on_left(&mut self, machine: MachineId, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        let Some(mr) = self.active.as_mut() else {
            return Vec::new();
        };
        if machine == self.me || !mr.expected().any(|m| *m == machine) {
            return Vec::new();
        }
        mr.removed.insert(machine);
        let mut fx = vec![Effect::RemoveFromRound { machine }];
        match mr.stage {
            Stage::Flush => {
                fx.push(Effect::Broadcast {
                    channel: Channel::Signals,
                    msg: Msg::RoundUpdate {
                        round: mr.round,
                        removed: vec![machine],
                    },
                });
                fx.extend(self.start_apply_if_flushed(now, cfg));
            }
            Stage::Apply => fx.extend(self.finish_if_complete(now, cfg)),
        }
        fx
    }

    /// Finishes the round if everyone still expected has acknowledged.
    fn finish_if_complete(&mut self, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        let done = |mr: &mut MasterRound| {
            mr.stage == Stage::Apply && mr.expected().all(|m| mr.acks.contains(m))
        };
        match self.active.take_if(done) {
            Some(mr) => Self::finish_round(mr, now, cfg),
            None => Vec::new(),
        }
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
        vec![
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
            // Rounds are paced start to start: the next one is due
            // `sync_period` after this one began, at once if it ran longer.
            Effect::SetTimer {
                after: cfg.sync_period.saturating_since(duration),
                tag: tag::encode(tag::MASTER_TICK, 0),
            },
        ]
    }

    fn on_stage1_timeout(&mut self, round: u64, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        let laggards: Vec<MachineId> = {
            let Some(mr) = self.active.as_ref() else {
                return Vec::new();
            };
            if mr.round != round || mr.stage != Stage::Flush {
                return Vec::new();
            }
            let unflushed = mr
                .expected()
                .filter(|m| !mr.flush_counts.contains_key(*m))
                .copied();
            if cfg.parallel_flush {
                unflushed.collect()
            } else {
                // Serial turns: only the machine whose turn it is can be
                // blocking the stage.
                unflushed.take(1).collect()
            }
        };
        if laggards.is_empty() {
            return Vec::new();
        }
        let mut fx = Vec::new();
        let mut newly_removed = Vec::new();
        for m in laggards {
            let nudged = self
                .active
                .as_ref()
                .map(|mr| mr.nudged_flush.contains(&m))
                .unwrap_or(false);
            if nudged {
                fx.extend(self.remove_machine(m));
                newly_removed.push(m);
            } else {
                let mr = self.active_mut();
                mr.nudged_flush.insert(m);
                debug_assert!(mr.resends < u64::MAX, "resend counter saturated");
                mr.resends = mr.resends.saturating_add(1);
                fx.push(Effect::Send {
                    to: m,
                    channel: Channel::Signals,
                    msg: Msg::BeginSync {
                        round,
                        order: mr.order.clone(),
                    },
                });
                fx.push(Effect::Trace(TraceEvent::Resend {
                    round,
                    machine: m,
                    stage: 1,
                }));
            }
        }
        if !newly_removed.is_empty() {
            fx.push(Effect::Broadcast {
                channel: Channel::Signals,
                msg: Msg::RoundUpdate {
                    round,
                    removed: newly_removed,
                },
            });
            // Removal may have unblocked the stage.
            let apply = self.start_apply_if_flushed(now, cfg);
            if !apply.is_empty() {
                fx.extend(apply);
                return fx;
            }
        }
        fx.push(Effect::SetTimer {
            after: cfg.stall_timeout,
            tag: tag::encode(tag::MASTER_STAGE1, round),
        });
        fx
    }

    fn on_stage2_timeout(&mut self, round: u64, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        let missing: Vec<MachineId> = {
            let Some(mr) = self.active.as_ref() else {
                return Vec::new();
            };
            if mr.round != round || mr.stage != Stage::Apply {
                return Vec::new();
            }
            mr.expected()
                .filter(|m| !mr.acks.contains(*m))
                .copied()
                .collect()
        };
        if missing.is_empty() {
            return Vec::new();
        }
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
            let nudged = self
                .active
                .as_ref()
                .map(|mr| mr.nudged_acks.contains(&m))
                .unwrap_or(false);
            if nudged {
                fx.extend(self.remove_machine(m));
                removed_any = true;
            } else {
                let mr = self.active_mut();
                mr.nudged_acks.insert(m);
                debug_assert!(mr.resends < u64::MAX, "resend counter saturated");
                mr.resends = mr.resends.saturating_add(1);
                let counts = mr.counts.clone();
                fx.push(Effect::Send {
                    to: m,
                    channel: Channel::Signals,
                    msg: Msg::BeginApply { round, counts },
                });
                fx.push(Effect::Trace(TraceEvent::Resend {
                    round,
                    machine: m,
                    stage: 2,
                }));
            }
        }
        if removed_any {
            fx.extend(self.finish_if_complete(now, cfg));
        }
        if self.active.is_some() {
            fx.push(Effect::SetTimer {
                after: cfg.stall_timeout,
                tag: tag::encode(tag::MASTER_STAGE2, round),
            });
        }
        fx
    }

    /// Removes a stalled machine from the round: mirrors updated here, the
    /// participant set and member list via [`Effect::RemoveFromRound`].
    fn remove_machine(&mut self, m: MachineId) -> Vec<Effect> {
        let mr = self.active_mut();
        mr.removed.insert(m);
        debug_assert!(mr.removals < u64::MAX, "removal counter saturated");
        mr.removals = mr.removals.saturating_add(1);
        let round = mr.round;
        vec![
            Effect::RemoveFromRound { machine: m },
            Effect::Send {
                to: m,
                channel: Channel::Signals,
                msg: Msg::Restart,
            },
            Effect::Trace(TraceEvent::Removed { round, machine: m }),
        ]
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

    /// Drives a fresh role through BeginSync + all FlushDones into Apply.
    fn into_apply(c: &MachineConfig) -> MasterRole {
        let mut m = MasterRole::new(id(0));
        m.step(
            MasterEvent::BeginRound { order: order3() },
            SimTime::ZERO,
            c,
        );
        for i in 0..3 {
            m.step(
                MasterEvent::FlushDone {
                    machine: id(i),
                    count: 1,
                },
                SimTime::from_millis(10),
                c,
            );
        }
        assert_eq!(m.active.as_ref().unwrap().stage, Stage::Apply);
        m
    }

    /// The paper's §4 turn-taking, which the default no longer selects.
    fn serial_cfg() -> MachineConfig {
        cfg().with_parallel_flush(false)
    }

    /// Starts round 1 over `order3` and checks the part of the script both
    /// flush modes share -- `BeginSync` ahead of everything, the master's
    /// own flush included, so that it is on the wire while the master works
    /// -- and returns what follows the `RoundStarted` trace.
    fn begin_round_tail(c: &MachineConfig) -> Vec<Effect> {
        let mut m = MasterRole::new(id(0));
        let mut fx = m.step(
            MasterEvent::BeginRound { order: order3() },
            SimTime::ZERO,
            c,
        );
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
    fn parallel_begin_round_opens_no_flush_window() {
        // Everyone flushes at once: there is no turn to open.
        let tail = begin_round_tail(&cfg());
        assert!(matches!(tail[..], [Effect::Flush, _]));
        assert!(is_stage1_timer(&tail[1]));
    }

    #[test]
    fn last_flush_done_starts_the_apply_stage() {
        let c = cfg();
        let mut m = MasterRole::new(id(0));
        m.step(
            MasterEvent::BeginRound { order: order3() },
            SimTime::ZERO,
            &c,
        );
        for i in 0..2 {
            let fx = m.step(
                MasterEvent::FlushDone {
                    machine: id(i),
                    count: 2,
                },
                SimTime::from_millis(5),
                &c,
            );
            assert!(!fx.iter().any(|e| matches!(
                e,
                Effect::Broadcast {
                    msg: Msg::BeginApply { .. },
                    ..
                }
            )));
        }
        let fx = m.step(
            MasterEvent::FlushDone {
                machine: id(2),
                count: 2,
            },
            SimTime::from_millis(5),
            &c,
        );
        let begin_apply = fx
            .iter()
            .find_map(|e| match e {
                Effect::Broadcast {
                    msg: Msg::BeginApply { counts, .. },
                    ..
                } => Some(counts.clone()),
                _ => None,
            })
            .expect("BeginApply broadcast");
        assert_eq!(begin_apply, vec![(id(0), 2), (id(1), 2), (id(2), 2)]);
        // The signal leads and the master's own apply comes last, so the
        // members' link delay covers it (see `start_apply_stage`).
        assert!(matches!(
            fx[fx.len() - 4],
            Effect::Broadcast {
                msg: Msg::BeginApply { .. },
                ..
            }
        ));
        assert!(matches!(fx.last(), Some(Effect::BeginApplyLocal { .. })));
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
        let mr = m.active.as_ref().unwrap();
        assert!(mr.removed.contains(&id(1)));
        assert_eq!((mr.resends, mr.removals), (1, 1));
    }

    #[test]
    fn parallel_stage1_stall_nudges_then_removes_every_silent_member() {
        // Parallel flush: both silent members block the stage at once, so
        // one timeout nudges both and the next removes both.
        let c = cfg();
        let mut m = MasterRole::new(id(0));
        m.step(
            MasterEvent::BeginRound { order: order3() },
            SimTime::ZERO,
            &c,
        );
        m.step(
            MasterEvent::FlushDone {
                machine: id(0),
                count: 2,
            },
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
        assert_eq!(m.active.as_ref().unwrap().stage, Stage::Flush);

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
        // Nobody is left to wait for: the stage advances on the master's
        // own flush, with no stage-1 timer re-armed.
        let counts = fx.iter().find_map(|e| match e {
            Effect::Broadcast {
                msg: Msg::BeginApply { counts, .. },
                ..
            } => Some(counts.clone()),
            _ => None,
        });
        assert_eq!(counts, Some(vec![(id(0), 2)]));
        assert!(!fx.iter().any(is_stage1_timer));
        let mr = m.active.as_ref().unwrap();
        assert_eq!(mr.stage, Stage::Apply);
        assert_eq!((mr.resends, mr.removals), (2, 2));
    }

    #[test]
    fn all_acks_finish_the_round_with_a_sample() {
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
        // The round began at 0 and took 30 ms of the 250 ms period.
        assert_eq!(next_tick(&fx[5]), SimTime::from_millis(220));
        assert!(m.active.is_none());
    }

    /// The delay of the `MASTER_TICK` a finished round arms.
    fn next_tick(fx: &Effect) -> SimTime {
        match fx {
            Effect::SetTimer { after, tag: t } if tag::kind(*t) == tag::MASTER_TICK => *after,
            other => panic!("MASTER_TICK expected, got {other:?}"),
        }
    }

    #[test]
    fn a_round_that_outlasts_the_period_is_followed_at_once() {
        // Rounds are paced start to start: `into_apply` began one at 0, and
        // the last ack arrives after the whole 250 ms period has gone by.
        let c = cfg();
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

    #[test]
    fn a_leaver_drops_out_of_stage_1_whether_or_not_it_flushed() {
        let c = cfg();
        let mut m = MasterRole::new(id(0));
        m.step(
            MasterEvent::BeginRound { order: order3() },
            SimTime::ZERO,
            &c,
        );
        for i in 0..2 {
            m.step(
                MasterEvent::FlushDone {
                    machine: id(i),
                    count: 2,
                },
                SimTime::ZERO,
                &c,
            );
        }
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
        // m2 leaves before its flush: it was the last one awaited, and
        // neither leaver's operations are counted.
        let fx = m.step(
            MasterEvent::Left { machine: id(2) },
            SimTime::from_millis(5),
            &c,
        );
        let counts = fx.iter().find_map(|e| match e {
            Effect::Broadcast {
                msg: Msg::BeginApply { counts, .. },
                ..
            } => Some(counts.clone()),
            _ => None,
        });
        assert_eq!(counts, Some(vec![(id(0), 2)]));
        assert_eq!(restarts(&fx), 0, "a leaver is never restarted");
        let mr = m.active.as_ref().unwrap();
        assert_eq!((mr.stage, mr.removals), (Stage::Apply, 0));
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
        assert!(m.active.is_none());
        // With no round active there is nothing to leave.
        assert!(m
            .step(MasterEvent::Left { machine: id(1) }, SimTime::ZERO, &c)
            .is_empty());
    }

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

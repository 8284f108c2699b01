//! Master-failover election (§9 extension; off by default).
//!
//! Members watch for master silence. When the silence exceeds the
//! configured threshold, a member broadcasts its candidacy (ranked by
//! committed progress); hearing a candidacy makes other members join the
//! cascade. When the window closes, the best candidate — most rounds
//! applied, ties to the smallest id — promotes itself; everyone else
//! rejoins under the winner. A live master quells any election with a
//! heartbeat.

use std::collections::BTreeMap;

use guesstimate_core::MachineId;
use guesstimate_net::{Channel, SimTime, TraceEvent};

use crate::config::MachineConfig;
use crate::message::Msg;
use crate::roles::{tag, Effect};

/// Inputs to the election role.
#[derive(Debug)]
pub enum ElectionEvent {
    /// Master-originated traffic arrived: note liveness, quell elections.
    MasterActivity,
    /// The silence watchdog fired.
    Watchdog {
        /// Whether this machine currently participates in rounds.
        in_cohort: bool,
        /// This machine's committed progress (election rank).
        last_round_applied: u64,
    },
    /// Another machine announced its candidacy.
    Candidate {
        /// The candidate.
        machine: MachineId,
        /// Its committed progress.
        last_round: u64,
        /// Whether this machine currently participates in rounds.
        in_cohort: bool,
        /// This machine's committed progress (election rank).
        last_round_applied: u64,
    },
    /// The candidacy window for the given generation closed.
    WindowClosed {
        /// Generation stamped into the window's timer tag.
        gen: u64,
    },
}

/// The election state machine (member side).
#[derive(Debug, Clone)]
pub struct ElectionRole {
    me: MachineId,
    /// Known candidacies (`None` when no election is in progress).
    pub(crate) candidates: Option<BTreeMap<MachineId, u64>>,
    /// Election generation; stamps window timers so stale ones are ignored.
    pub(crate) gen: u64,
    /// Last time master-originated traffic was heard.
    pub(crate) last_master_activity: SimTime,
}

impl ElectionRole {
    /// A fresh role for machine `me`.
    pub fn new(me: MachineId) -> Self {
        ElectionRole {
            me,
            candidates: None,
            gen: 0,
            last_master_activity: SimTime::ZERO,
        }
    }

    /// Pure transition: consumes one event, returns the effects to lower.
    pub fn step(&mut self, ev: ElectionEvent, now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        match ev {
            ElectionEvent::MasterActivity => {
                self.last_master_activity = now;
                // A live master quells any election in progress.
                self.candidates = None;
                Vec::new()
            }
            ElectionEvent::Watchdog {
                in_cohort,
                last_round_applied,
            } => {
                let Some(timeout) = cfg.master_failover else {
                    return Vec::new();
                };
                let silence = now.saturating_since(self.last_master_activity);
                let mut fx = Vec::new();
                if silence >= timeout && in_cohort && self.candidates.is_none() {
                    fx.extend(self.start_election(last_round_applied, cfg));
                }
                fx.push(Effect::SetTimer {
                    after: timeout,
                    tag: tag::encode(tag::ELECTION_WATCHDOG, 0),
                });
                fx
            }
            ElectionEvent::Candidate {
                machine,
                last_round,
                in_cohort,
                last_round_applied,
            } => {
                if cfg.master_failover.is_none() || !in_cohort {
                    return Vec::new();
                }
                let mut fx = Vec::new();
                if self.candidates.is_none() {
                    // Join the cascade with our own candidacy.
                    fx.extend(self.start_election(last_round_applied, cfg));
                }
                if let Some(candidates) = self.candidates.as_mut() {
                    candidates.insert(machine, last_round);
                }
                fx
            }
            ElectionEvent::WindowClosed { gen } => {
                if gen != self.gen {
                    return Vec::new(); // stale window
                }
                let Some(candidates) = self.candidates.take() else {
                    return Vec::new(); // quelled by a heartbeat
                };
                // Winner: most committed progress, ties to the smallest id.
                let winner = candidates
                    .iter()
                    .max_by_key(|(id, lr)| (**lr, std::cmp::Reverse(**id)))
                    .map(|(id, _)| *id)
                    .expect("own candidacy present");
                if winner == self.me {
                    vec![Effect::Promote]
                } else {
                    vec![Effect::DeferToWinner]
                }
            }
        }
    }

    fn start_election(&mut self, last_round: u64, cfg: &MachineConfig) -> Vec<Effect> {
        let mut candidates = BTreeMap::new();
        candidates.insert(self.me, last_round);
        self.candidates = Some(candidates);
        self.gen += 1;
        vec![
            Effect::Trace(TraceEvent::ElectionStarted { last_round }),
            Effect::Broadcast {
                channel: Channel::Signals,
                msg: Msg::MasterCandidate {
                    machine: self.me,
                    last_round,
                },
            },
            // The election window must comfortably cover a candidacy
            // cascade (a couple of one-way latencies); the stall timeout
            // does.
            Effect::SetTimer {
                after: cfg.stall_timeout,
                tag: tag::encode(tag::ELECTION_END, self.gen),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    //! Pure step-level tests: no net driver, no clock — events in,
    //! effects out.

    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::default().with_master_failover(SimTime::from_secs(4))
    }

    fn id(n: u32) -> MachineId {
        MachineId::new(n)
    }

    fn close_window(role: &mut ElectionRole, c: &MachineConfig) -> Vec<Effect> {
        let gen = role.gen;
        role.step(
            ElectionEvent::WindowClosed { gen },
            SimTime::from_secs(9),
            c,
        )
    }

    #[test]
    fn silence_past_threshold_starts_a_candidacy() {
        let c = cfg();
        let mut e = ElectionRole::new(id(2));
        let fx = e.step(
            ElectionEvent::Watchdog {
                in_cohort: true,
                last_round_applied: 5,
            },
            SimTime::from_secs(10),
            &c,
        );
        assert!(matches!(
            fx[0],
            Effect::Trace(TraceEvent::ElectionStarted { last_round: 5 })
        ));
        assert!(matches!(
            fx[1],
            Effect::Broadcast {
                msg: Msg::MasterCandidate { last_round: 5, .. },
                ..
            }
        ));
        // Window timer is generation-stamped; watchdog re-arms last.
        assert!(
            matches!(fx[2], Effect::SetTimer { tag: t, .. } if tag::kind(t) == tag::ELECTION_END && tag::round(t) == 1)
        );
        assert!(
            matches!(fx[3], Effect::SetTimer { tag: t, .. } if tag::kind(t) == tag::ELECTION_WATCHDOG)
        );
        assert_eq!(e.gen, 1);
    }

    #[test]
    fn tie_breaking_ranks_by_round_then_lowest_id() {
        let c = cfg();
        // Machine 3 has the most committed progress: it wins outright.
        let mut e = ElectionRole::new(id(3));
        e.step(
            ElectionEvent::Watchdog {
                in_cohort: true,
                last_round_applied: 9,
            },
            SimTime::from_secs(10),
            &c,
        );
        for (m, lr) in [(1u32, 7u64), (2, 8)] {
            e.step(
                ElectionEvent::Candidate {
                    machine: id(m),
                    last_round: lr,
                    in_cohort: true,
                    last_round_applied: 9,
                },
                SimTime::from_secs(10),
                &c,
            );
        }
        assert!(matches!(close_window(&mut e, &c)[..], [Effect::Promote]));

        // Equal progress: the lowest id wins, everyone else defers.
        let mut e = ElectionRole::new(id(3));
        e.step(
            ElectionEvent::Watchdog {
                in_cohort: true,
                last_round_applied: 9,
            },
            SimTime::from_secs(10),
            &c,
        );
        e.step(
            ElectionEvent::Candidate {
                machine: id(1),
                last_round: 9,
                in_cohort: true,
                last_round_applied: 9,
            },
            SimTime::from_secs(10),
            &c,
        );
        assert!(matches!(
            close_window(&mut e, &c)[..],
            [Effect::DeferToWinner]
        ));
    }

    #[test]
    fn heartbeat_quells_a_pending_candidacy() {
        let c = cfg();
        let mut e = ElectionRole::new(id(1));
        e.step(
            ElectionEvent::Watchdog {
                in_cohort: true,
                last_round_applied: 3,
            },
            SimTime::from_secs(10),
            &c,
        );
        assert!(e.candidates.is_some());
        // Master-originated traffic (e.g. a MasterHeartbeat) lands.
        let fx = e.step(ElectionEvent::MasterActivity, SimTime::from_secs(11), &c);
        assert!(fx.is_empty());
        assert!(e.candidates.is_none(), "candidacy quelled");
        // The already-armed window fires: nothing happens.
        assert!(close_window(&mut e, &c).is_empty());
        // And a fresh watchdog within the silence threshold stays quiet.
        let fx = e.step(
            ElectionEvent::Watchdog {
                in_cohort: true,
                last_round_applied: 3,
            },
            SimTime::from_secs(12),
            &c,
        );
        assert_eq!(fx.len(), 1, "only the watchdog re-arm");
        assert!(
            matches!(fx[0], Effect::SetTimer { tag: t, .. } if tag::kind(t) == tag::ELECTION_WATCHDOG)
        );
    }

    #[test]
    fn out_of_cohort_machines_do_not_stand() {
        let c = cfg();
        let mut e = ElectionRole::new(id(1));
        let fx = e.step(
            ElectionEvent::Watchdog {
                in_cohort: false,
                last_round_applied: 0,
            },
            SimTime::from_secs(10),
            &c,
        );
        assert_eq!(fx.len(), 1, "re-arm only");
        assert!(e.candidates.is_none());
        // Hearing a candidacy while out of the cohort is ignored too.
        let fx = e.step(
            ElectionEvent::Candidate {
                machine: id(2),
                last_round: 4,
                in_cohort: false,
                last_round_applied: 0,
            },
            SimTime::from_secs(10),
            &c,
        );
        assert!(fx.is_empty());
        assert!(e.candidates.is_none());
    }

    #[test]
    fn stale_window_generations_are_ignored() {
        let c = cfg();
        let mut e = ElectionRole::new(id(1));
        e.step(
            ElectionEvent::Watchdog {
                in_cohort: true,
                last_round_applied: 2,
            },
            SimTime::from_secs(10),
            &c,
        );
        assert_eq!(e.gen, 1);
        let fx = e.step(
            ElectionEvent::WindowClosed { gen: 0 },
            SimTime::from_secs(11),
            &c,
        );
        assert!(fx.is_empty());
        assert!(e.candidates.is_some(), "election still pending");
    }
}

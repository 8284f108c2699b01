//! Membership: the §4 enter/leave protocol.
//!
//! Joining is a three-message handshake — `JoinRequest` → `JoinInfo`
//! (catalog + completed-history snapshot) → `JoinReady` — epoch-stamped
//! with the completed-history length so a machine is only admitted if no
//! operation committed since its snapshot was taken. The master side of
//! this role tracks the member set and in-flight handshakes; the member
//! side tracks whether this machine has joined and retries its request
//! until it participates in a round.
//!
//! A `JoinReady` can only be accepted between rounds, so while a handshake
//! stamped with the current epoch is unanswered the master *holds* its tick
//! ([`MembershipRole::handshake_in_flight`], [`JoinHold`]) instead of
//! starting a round the answer would arrive in the middle of: the round
//! starts when the last such handshake is answered, or after
//! `stall_timeout`, when the silent joiners are forgotten
//! ([`MembershipRole::forget_in_flight`]) until their own retry.

use std::collections::{BTreeMap, BTreeSet};

use guesstimate_core::MachineId;
use guesstimate_net::{Channel, SimTime};

use crate::config::MachineConfig;
use crate::message::Msg;
use crate::roles::{tag, Effect};

/// Where a joining machine stands in the master's handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPhase {
    /// `JoinRequest` received; `JoinInfo` not yet sent.
    Requested,
    /// `JoinInfo` sent when the completed history had this length; the
    /// machine is admitted only if the history has not advanced since.
    InfoSent(u64),
}

/// A master tick held back for join handshakes in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinHold {
    /// Distinguishes this hold's timeout timer from an earlier hold's.
    pub(crate) generation: u64,
    /// When the tick was held.
    pub(crate) since: SimTime,
}

/// Inputs to the membership role.
#[derive(Debug)]
pub enum MembershipEvent {
    /// (Master) A machine asked to join, or re-join after a restart.
    JoinRequest {
        /// The joining machine.
        machine: MachineId,
    },
    /// (Master) Between rounds: (re)start every handshake that needs it.
    ServiceJoins {
        /// Current completed-history length, stamped into each handshake.
        epoch: u64,
    },
    /// (Master) A machine finished installing its snapshot.
    JoinReady {
        /// The machine ready to be admitted.
        machine: MachineId,
        /// Current completed-history length, for staleness checks.
        epoch: u64,
        /// Whether a synchronization round is currently active.
        round_active: bool,
    },
    /// (Master) A machine gracefully left the system.
    Leave {
        /// The departing machine.
        machine: MachineId,
    },
    /// (Member) The join-retry timer fired.
    JoinRetryTimer,
}

/// The membership state machine (both master and member sides).
#[derive(Debug)]
pub struct MembershipRole {
    me: MachineId,
    /// (Master) The current member set, this machine included.
    pub(crate) members: BTreeSet<MachineId>,
    /// (Master) In-flight join handshakes.
    pub(crate) pending_joins: BTreeMap<MachineId, JoinPhase>,
    /// (Master) The tick currently held for handshakes in flight.
    pub(crate) hold: Option<JoinHold>,
    /// (Master) Holds begun so far; the next hold's generation.
    holds_begun: u64,
    /// (Member) Whether this machine has completed the join handshake.
    pub(crate) joined_system: bool,
    /// (Member) Whether this machine has participated in a round since
    /// joining; retries stop only once this is set.
    pub(crate) in_cohort: bool,
    /// (Member) Whether this machine left on purpose and has not asked to
    /// come back: round traffic and `Restart` are not meant for it.
    pub(crate) offline: bool,
}

impl MembershipRole {
    /// A fresh role for machine `me`; masters start as their own sole
    /// member and already joined.
    pub fn new(me: MachineId, is_master: bool) -> Self {
        let mut members = BTreeSet::new();
        if is_master {
            members.insert(me);
        }
        MembershipRole {
            me,
            members,
            pending_joins: BTreeMap::new(),
            hold: None,
            holds_begun: 0,
            joined_system: is_master,
            in_cohort: is_master,
            offline: false,
        }
    }

    /// The current member set.
    pub fn members(&self) -> &BTreeSet<MachineId> {
        &self.members
    }

    /// Whether this machine has completed the join handshake.
    pub fn is_joined(&self) -> bool {
        self.joined_system
    }

    /// Whether this machine has participated in a round since joining.
    pub fn in_cohort(&self) -> bool {
        self.in_cohort
    }

    /// (Master) Whether a `JoinInfo` stamped with `epoch` is still
    /// unanswered: a round started now would make its `JoinReady` arrive
    /// mid-round and be thrown away.
    pub fn handshake_in_flight(&self, epoch: u64) -> bool {
        self.pending_joins
            .values()
            .any(|phase| *phase == JoinPhase::InfoSent(epoch))
    }

    /// (Master) Forgets every handshake still waiting for its `JoinReady`,
    /// whatever its epoch; a joiner that is alive registers again with its
    /// next `JoinRequest` retry.
    pub fn forget_in_flight(&mut self) {
        self.pending_joins
            .retain(|_, phase| !matches!(phase, JoinPhase::InfoSent(_)));
    }

    /// (Master) Holds the tick at `now`; returns the generation to stamp
    /// into the hold's timeout timer.
    pub fn begin_hold(&mut self, now: SimTime) -> u64 {
        let generation = self.holds_begun;
        self.holds_begun += 1;
        self.hold = Some(JoinHold {
            generation,
            since: now,
        });
        generation
    }

    /// Pure transition: consumes one event, returns the effects to lower.
    pub fn step(&mut self, ev: MembershipEvent, _now: SimTime, cfg: &MachineConfig) -> Vec<Effect> {
        match ev {
            MembershipEvent::JoinRequest { machine } => {
                if machine == self.me {
                    return Vec::new();
                }
                // A re-join from a current member means it restarted
                // itself; its membership is void until the handshake
                // completes again.
                self.members.remove(&machine);
                self.pending_joins.insert(machine, JoinPhase::Requested);
                vec![Effect::ServiceJoins]
            }
            MembershipEvent::ServiceJoins { epoch } => {
                let needs: Vec<MachineId> = self
                    .pending_joins
                    .iter()
                    .filter(|(_, phase)| match phase {
                        JoinPhase::Requested => true,
                        JoinPhase::InfoSent(e) => *e != epoch,
                    })
                    .map(|(m, _)| *m)
                    .collect();
                let mut fx = Vec::new();
                for m in needs {
                    fx.push(Effect::SendJoinInfo { to: m });
                    self.pending_joins.insert(m, JoinPhase::InfoSent(epoch));
                }
                fx
            }
            MembershipEvent::JoinReady {
                machine,
                epoch,
                round_active,
            } => {
                match self.pending_joins.get(&machine) {
                    Some(JoinPhase::InfoSent(e)) if *e == epoch && !round_active => {
                        self.pending_joins.remove(&machine);
                        self.members.insert(machine);
                    }
                    Some(_) => {
                        // Snapshot went stale (a round committed in
                        // between) or a round is active: redo the
                        // handshake at the next gap.
                        self.pending_joins.insert(machine, JoinPhase::Requested);
                    }
                    None => {}
                }
                Vec::new()
            }
            MembershipEvent::Leave { machine } => {
                self.members.remove(&machine);
                self.pending_joins.remove(&machine);
                Vec::new()
            }
            MembershipEvent::JoinRetryTimer => {
                if self.in_cohort {
                    return Vec::new();
                }
                vec![
                    Effect::Broadcast {
                        channel: Channel::Signals,
                        msg: Msg::JoinRequest { machine: self.me },
                    },
                    Effect::SetTimer {
                        after: cfg.join_retry,
                        tag: tag::encode(tag::MEMBERSHIP_JOIN_RETRY, 0),
                    },
                ]
            }
        }
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

    #[test]
    fn join_handshake_admits_at_matching_epoch() {
        let c = cfg();
        let mut m = MembershipRole::new(id(0), true);
        let fx = m.step(
            MembershipEvent::JoinRequest { machine: id(1) },
            SimTime::ZERO,
            &c,
        );
        assert!(matches!(fx[..], [Effect::ServiceJoins]));

        let fx = m.step(
            MembershipEvent::ServiceJoins { epoch: 3 },
            SimTime::ZERO,
            &c,
        );
        assert!(matches!(fx[..], [Effect::SendJoinInfo { to }] if to == id(1)));
        assert_eq!(m.pending_joins.get(&id(1)), Some(&JoinPhase::InfoSent(3)));

        m.step(
            MembershipEvent::JoinReady {
                machine: id(1),
                epoch: 3,
                round_active: false,
            },
            SimTime::ZERO,
            &c,
        );
        assert!(m.members.contains(&id(1)));
        assert!(m.pending_joins.is_empty());
    }

    #[test]
    fn stale_epoch_redoes_the_handshake() {
        let c = cfg();
        let mut m = MembershipRole::new(id(0), true);
        m.step(
            MembershipEvent::JoinRequest { machine: id(1) },
            SimTime::ZERO,
            &c,
        );
        m.step(
            MembershipEvent::ServiceJoins { epoch: 3 },
            SimTime::ZERO,
            &c,
        );
        // A round committed before the JoinReady arrived.
        m.step(
            MembershipEvent::JoinReady {
                machine: id(1),
                epoch: 5,
                round_active: false,
            },
            SimTime::ZERO,
            &c,
        );
        assert!(!m.members.contains(&id(1)));
        assert_eq!(m.pending_joins.get(&id(1)), Some(&JoinPhase::Requested));
        // The next service pass re-sends at the new epoch.
        let fx = m.step(
            MembershipEvent::ServiceJoins { epoch: 5 },
            SimTime::ZERO,
            &c,
        );
        assert!(matches!(fx[..], [Effect::SendJoinInfo { to }] if to == id(1)));
    }

    #[test]
    fn a_handshake_is_in_flight_only_at_the_epoch_it_was_stamped_with() {
        let c = cfg();
        let mut m = MembershipRole::new(id(0), true);
        m.step(
            MembershipEvent::JoinRequest { machine: id(1) },
            SimTime::ZERO,
            &c,
        );
        assert!(!m.handshake_in_flight(3), "requested, nothing sent yet");
        m.step(
            MembershipEvent::ServiceJoins { epoch: 3 },
            SimTime::ZERO,
            &c,
        );
        assert!(m.handshake_in_flight(3));
        // An async commit moved the epoch: the answer would be refused
        // whenever it comes, so there is nothing to hold a round for.
        assert!(!m.handshake_in_flight(4));
        // The answer ends it, accepted (as here) or not.
        m.step(
            MembershipEvent::JoinReady {
                machine: id(1),
                epoch: 3,
                round_active: false,
            },
            SimTime::ZERO,
            &c,
        );
        assert!(!m.handshake_in_flight(3));
    }

    #[test]
    fn forgetting_drops_the_unanswered_and_keeps_the_unserved() {
        let mut m = MembershipRole::new(id(0), true);
        m.pending_joins.insert(id(1), JoinPhase::InfoSent(3));
        m.pending_joins.insert(id(2), JoinPhase::InfoSent(2));
        m.pending_joins.insert(id(3), JoinPhase::Requested);
        m.forget_in_flight();
        // A silent joiner must not be served again at the next gap (and
        // hold the next tick too): whatever the epoch, it is gone until
        // its own retry. One that was never sent anything has not been
        // silent.
        assert_eq!(
            m.pending_joins.into_iter().collect::<Vec<_>>(),
            vec![(id(3), JoinPhase::Requested)]
        );
    }

    #[test]
    fn each_hold_gets_its_own_generation() {
        let mut m = MembershipRole::new(id(0), true);
        let first = m.begin_hold(SimTime::from_millis(5));
        assert_eq!(
            m.hold,
            Some(JoinHold {
                generation: first,
                since: SimTime::from_millis(5)
            })
        );
        m.hold = None;
        // The first hold's timeout timer may still be armed: it must not
        // be taken for the second's.
        assert_ne!(m.begin_hold(SimTime::from_millis(9)), first);
    }

    #[test]
    fn rejoin_from_a_member_voids_its_membership() {
        let c = cfg();
        let mut m = MembershipRole::new(id(0), true);
        m.members.insert(id(2));
        m.step(
            MembershipEvent::JoinRequest { machine: id(2) },
            SimTime::ZERO,
            &c,
        );
        assert!(!m.members.contains(&id(2)));
        assert_eq!(m.pending_joins.get(&id(2)), Some(&JoinPhase::Requested));
    }

    #[test]
    fn join_retry_stops_once_in_cohort() {
        let c = cfg();
        let mut m = MembershipRole::new(id(1), false);
        let fx = m.step(MembershipEvent::JoinRetryTimer, SimTime::ZERO, &c);
        assert!(matches!(
            fx[..],
            [
                Effect::Broadcast {
                    msg: Msg::JoinRequest { .. },
                    ..
                },
                Effect::SetTimer { .. }
            ]
        ));
        m.in_cohort = true;
        assert!(m
            .step(MembershipEvent::JoinRetryTimer, SimTime::ZERO, &c)
            .is_empty());
    }

    #[test]
    fn leave_removes_member_and_pending_handshake() {
        let c = cfg();
        let mut m = MembershipRole::new(id(0), true);
        m.members.insert(id(1));
        m.pending_joins.insert(id(2), JoinPhase::Requested);
        m.step(MembershipEvent::Leave { machine: id(1) }, SimTime::ZERO, &c);
        m.step(MembershipEvent::Leave { machine: id(2) }, SimTime::ZERO, &c);
        assert!(!m.members.contains(&id(1)));
        assert!(m.pending_joins.is_empty());
    }
}

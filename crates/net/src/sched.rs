//! A controlled-scheduler mesh for systematic exploration.
//!
//! [`SimNet`](crate::SimNet) is deterministic: events fire in `(time,
//! scheduling-order)` sequence and a seed fixes everything else. That is
//! perfect for experiments and fatal for model checking, where the point
//! is to *choose* the next event. [`SchedNet`] is the same
//! [`Mesh`](crate::Mesh) running the same [`Actor`]s under another
//! scheduler, [`Choices`], which externalizes every nondeterministic
//! decision:
//!
//! - **Message deliveries** are never performed spontaneously. Each send
//!   or broadcast leg becomes a [`PendingMsg`] with a stable sequence
//!   number; the caller picks which one to [`deliver`](SchedNet::deliver)
//!   or [`drop_msg`](SchedNet::drop_msg) next.
//! - **Joins** are staged with [`stage_join`](SchedNet::stage_join) and
//!   happen only when the caller [`admit`](SchedNet::admit)s them, making
//!   "the late joiner shows up *here*" an explorable choice point.
//! - **Timers** are kept in a `(due, seq)`-ordered queue; the caller fires
//!   the earliest with [`fire_next_timer`](SchedNet::fire_next_timer),
//!   which is the only thing that advances virtual time. Deliveries are
//!   instantaneous (latency is subsumed by delivery *order*), so the
//!   relative spacing of protocol timeouts — sync period < join retry <
//!   stall timeout — is preserved exactly while every delivery
//!   interleaving between two ticks remains reachable.
//!
//! A model checker drives this as a tree walk: the set of pending
//! sequence numbers (plus staged joins and the next timer) is the enabled
//! set at the current node, and replaying a recorded sequence of choices
//! from a fresh `SchedNet` reconstructs any visited state — sequence
//! numbers are deterministic, so recorded schedules replay verbatim.
//!
//! The optional [tamper hook](SchedNet::set_tamper) mutates a message at
//! the moment of delivery. The model checker's seeded-mutation test uses
//! it to corrupt a commit order and prove the oracles catch it; it is a
//! test surface, not a protocol feature. Its counter lives in the
//! scheduler, so a clone of the mesh runs on exactly as the original.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use guesstimate_core::MachineId;

use crate::actor::Actor;
use crate::channel::Channel;
use crate::mesh::{Leg, Mesh, Scheduler};
use crate::time::SimTime;

/// A message leg awaiting a delivery decision.
#[derive(Debug, Clone)]
pub struct PendingMsg<M> {
    /// Stable choice identity (assigned at send time, never reused).
    pub seq: u64,
    /// Sender.
    pub from: MachineId,
    /// Receiver.
    pub to: MachineId,
    /// Channel the message was sent on.
    pub channel: Channel,
    /// The payload.
    pub msg: M,
    /// Causal stamp of the send action this leg belongs to; broadcast
    /// fan-out legs share one stamp (see [`crate::TraceEvent::MsgSent`]).
    pub stamp: u64,
    /// [`Actor::msg_size`] of `msg` as sent.
    pub size: u64,
}

/// Mutates a message as it is delivered; returns `true` if it changed
/// anything. Arguments: the hook's counter, delivery seq, sender,
/// receiver, payload.
pub type TamperHook<M> =
    Arc<dyn Fn(&mut u64, u64, MachineId, MachineId, &mut M) -> bool + Send + Sync>;

/// [`SchedNet`]'s scheduler: what waits for the caller's choice — legs in
/// flight, staged joiners and armed timers, each keyed by its stable seq —
/// plus the tamper hook and its counter.
#[derive(Clone)]
pub struct Choices<A: Actor> {
    pending: BTreeMap<u64, PendingMsg<A::Msg>>,
    joins: BTreeMap<u64, (MachineId, A)>,
    /// Armed timers: `(due, seq) -> (machine, tag)`.
    timers: BTreeMap<(SimTime, u64), (MachineId, u64)>,
    tamper: Option<TamperHook<A::Msg>>,
    tamper_seen: u64,
    tampered: u64,
}

impl<A: Actor> fmt::Debug for Choices<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Choices")
            .field("pending", &self.pending.len())
            .field("joins", &self.joins.len())
            .field("timers", &self.timers.len())
            .finish_non_exhaustive()
    }
}

/// A mesh whose every delivery, join, and timer firing is an external
/// choice: a [`Mesh`] run by its [`Choices`]. See the module docs for the
/// model.
///
/// Its counters count every send leg as `sent`, every
/// [`SchedNet::deliver`] as `delivered` (or `dropped` if the receiver has
/// left) and every [`SchedNet::drop_msg`] as `dropped`; its clock moves
/// only when a timer fires.
pub type SchedNet<A> = Mesh<A, Choices<A>>;

impl<A: Actor> Scheduler<A> for Choices<A> {
    const NAME: &'static str = "SchedNet";

    fn route(net: &mut SchedNet<A>, leg: Leg<A::Msg>) {
        let seq = net.next_seq();
        let pending = PendingMsg {
            seq,
            from: leg.from,
            to: leg.to,
            channel: leg.channel,
            msg: leg.msg,
            stamp: leg.stamp,
            size: leg.size,
        };
        net.sched.pending.insert(seq, pending);
    }

    fn arm(net: &mut SchedNet<A>, due: SimTime, machine: MachineId, tag: u64) {
        let seq = net.next_seq();
        net.sched.timers.insert((due, seq), (machine, tag));
    }
}

impl<A: Actor> Default for SchedNet<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Actor> SchedNet<A> {
    /// Creates an empty controlled mesh at time zero.
    pub fn new() -> Self {
        Mesh::with_scheduler(Choices {
            pending: BTreeMap::new(),
            joins: BTreeMap::new(),
            timers: BTreeMap::new(),
            tamper: None,
            tamper_seen: 0,
            tampered: 0,
        })
    }

    /// Installs the delivery-time tamper hook (see the module docs).
    pub fn set_tamper(&mut self, hook: TamperHook<A::Msg>) {
        self.sched.tamper = Some(hook);
    }

    /// How many deliveries the tamper hook reported mutating.
    pub fn tamper_count(&self) -> u64 {
        self.sched.tampered
    }

    /// Stages `actor` as a joiner and returns the choice seq that
    /// [`SchedNet::admit`] takes.
    pub fn stage_join(&mut self, id: MachineId, actor: A) -> u64 {
        let seq = self.next_seq();
        self.sched.joins.insert(seq, (id, actor));
        seq
    }

    /// The sequence numbers of all messages awaiting a decision, ascending.
    pub fn pending_msgs(&self) -> Vec<u64> {
        self.sched.pending.keys().copied().collect()
    }

    /// Looks at one in-flight message.
    pub fn pending_msg(&self, seq: u64) -> Option<&PendingMsg<A::Msg>> {
        self.sched.pending.get(&seq)
    }

    /// The choice seqs of all staged joiners, ascending.
    pub fn pending_joins(&self) -> Vec<u64> {
        self.sched.joins.keys().copied().collect()
    }

    /// The staged joiner behind a choice seq.
    pub fn pending_join(&self, seq: u64) -> Option<MachineId> {
        self.sched.joins.get(&seq).map(|(id, _)| *id)
    }

    /// True if any timer is armed.
    pub fn has_timers(&self) -> bool {
        !self.sched.timers.is_empty()
    }

    /// The due time of the earliest armed timer.
    pub fn next_timer_due(&self) -> Option<SimTime> {
        self.sched.timers.keys().next().map(|&(due, _)| due)
    }

    /// Delivers message `seq` now. Returns `false` (and discards nothing)
    /// if `seq` is not pending; a delivery to a machine that has left is
    /// consumed silently, like a real network handing bytes to a dead
    /// host.
    pub fn deliver(&mut self, seq: u64) -> bool {
        let Some(mut p) = self.sched.pending.remove(&seq) else {
            return false;
        };
        if let Some(hook) = &self.sched.tamper {
            if hook(&mut self.sched.tamper_seen, p.seq, p.from, p.to, &mut p.msg) {
                self.sched.tampered += 1;
                p.size = A::msg_size(&p.msg);
            }
        }
        self.receive(Leg {
            from: p.from,
            to: p.to,
            channel: p.channel,
            msg: p.msg,
            stamp: p.stamp,
            size: p.size,
        });
        true
    }

    /// Drops message `seq` (the "network loses it" choice). Returns
    /// `false` if `seq` is not pending.
    pub fn drop_msg(&mut self, seq: u64) -> bool {
        let dropped = self.sched.pending.remove(&seq).is_some();
        if dropped {
            self.metrics.dropped += 1;
        }
        dropped
    }

    /// Admits the staged joiner behind choice `seq`: the machine becomes a
    /// member and its `on_start` runs. Returns `false` if `seq` is not a
    /// staged join.
    pub fn admit(&mut self, seq: u64) -> bool {
        let Some((id, actor)) = self.sched.joins.remove(&seq) else {
            return false;
        };
        self.add_machine(id, actor);
        true
    }

    /// Fires the earliest armed timer (by `(due, seq)`), advancing virtual
    /// time to its due instant. Returns `false` if no timer is armed.
    ///
    /// Timers on departed machines are discarded (and the next one tried),
    /// mirroring [`SimNet`](crate::SimNet).
    pub fn fire_next_timer(&mut self) -> bool {
        while let Some(((due, _), (machine, tag))) = self.sched.timers.pop_first() {
            debug_assert!(due >= self.now, "time went backwards");
            self.now = self.now.max(due);
            if self.fire(machine, tag) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Ctx;

    /// Test actor: logs received payloads, replies to "ping", arms a timer
    /// on start.
    struct Probe {
        seen: Vec<&'static str>,
        timers: Vec<u64>,
    }
    impl Probe {
        fn new() -> Self {
            Probe {
                seen: Vec::new(),
                timers: Vec::new(),
            }
        }
    }
    impl Actor for Probe {
        type Msg = &'static str;
        fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
            ctx.set_timer(SimTime::from_millis(10), 1);
        }
        fn on_message(
            &mut self,
            from: MachineId,
            channel: Channel,
            msg: &'static str,
            ctx: &mut Ctx<'_, &'static str>,
        ) {
            self.seen.push(msg);
            if msg == "ping" {
                ctx.send(from, channel, "pong");
            }
        }
        fn on_timer(&mut self, tag: u64, _: &mut Ctx<'_, &'static str>) {
            self.timers.push(tag);
        }
    }

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    #[test]
    fn deliveries_wait_for_the_caller() {
        let mut net: SchedNet<Probe> = SchedNet::new();
        net.add_machine(m(0), Probe::new());
        net.add_machine(m(1), Probe::new());
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "ping"));
        let pend = net.pending_msgs();
        assert_eq!(pend.len(), 1);
        assert!(net.actor(m(1)).unwrap().seen.is_empty());
        assert!(net.deliver(pend[0]));
        assert_eq!(net.actor(m(1)).unwrap().seen, vec!["ping"]);
        // The reply is now itself a pending choice.
        let reply = net.pending_msgs();
        assert_eq!(reply.len(), 1);
        let info = net.pending_msg(reply[0]).unwrap();
        assert_eq!((info.from, info.to), (m(1), m(0)));
        assert!(net.deliver(reply[0]));
        assert_eq!(net.actor(m(0)).unwrap().seen, vec!["pong"]);
        assert!(net.pending_msgs().is_empty());
    }

    #[test]
    fn any_delivery_order_is_expressible() {
        let mut net: SchedNet<Probe> = SchedNet::new();
        for i in 0..3 {
            net.add_machine(m(i), Probe::new());
        }
        net.call(m(0), |_, ctx| ctx.broadcast(Channel::Operations, "a"));
        net.call(m(0), |_, ctx| ctx.broadcast(Channel::Operations, "b"));
        // Four legs pending: a->1, a->2, b->1, b->2. Deliver b before a on
        // machine 1, a before b on machine 2.
        let pend = net.pending_msgs();
        assert_eq!(pend.len(), 4);
        let leg = |net: &SchedNet<Probe>, msg: &str, to: MachineId| {
            net.pending_msgs()
                .into_iter()
                .find(|&s| {
                    let p = net.pending_msg(s).unwrap();
                    p.msg == msg && p.to == to
                })
                .unwrap()
        };
        let b1 = leg(&net, "b", m(1));
        assert!(net.deliver(b1));
        let a1 = leg(&net, "a", m(1));
        assert!(net.deliver(a1));
        let a2 = leg(&net, "a", m(2));
        assert!(net.deliver(a2));
        let b2 = leg(&net, "b", m(2));
        assert!(net.deliver(b2));
        assert_eq!(net.actor(m(1)).unwrap().seen, vec!["b", "a"]);
        assert_eq!(net.actor(m(2)).unwrap().seen, vec!["a", "b"]);
    }

    #[test]
    fn drops_joins_and_duplicate_seqs() {
        let mut net: SchedNet<Probe> = SchedNet::new();
        net.add_machine(m(0), Probe::new());
        net.add_machine(m(1), Probe::new());
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "x"));
        let s = net.pending_msgs()[0];
        assert!(net.drop_msg(s));
        assert!(!net.drop_msg(s), "a choice seq is consumed exactly once");
        assert!(!net.deliver(s));
        assert!(net.actor(m(1)).unwrap().seen.is_empty());

        let j = net.stage_join(m(2), Probe::new());
        assert_eq!(net.pending_join(j), Some(m(2)));
        assert_eq!(net.members().len(), 2);
        assert!(net.admit(j));
        assert!(!net.admit(j));
        assert_eq!(net.members().len(), 3);
    }

    #[test]
    fn timers_fire_in_due_order_and_advance_time() {
        let mut net: SchedNet<Probe> = SchedNet::new();
        net.add_machine(m(0), Probe::new()); // arms t=10ms on start
        net.call(m(0), |_, ctx| {
            ctx.set_timer(SimTime::from_millis(5), 2);
            ctx.set_timer(SimTime::from_millis(20), 3);
        });
        assert!(net.has_timers());
        assert_eq!(net.next_timer_due(), Some(SimTime::from_millis(5)));
        assert!(net.fire_next_timer());
        assert_eq!(net.now(), SimTime::from_millis(5));
        assert!(net.fire_next_timer());
        assert_eq!(net.now(), SimTime::from_millis(10));
        assert!(net.fire_next_timer());
        assert_eq!(net.now(), SimTime::from_millis(20));
        assert_eq!(net.actor(m(0)).unwrap().timers, vec![2, 1, 3]);
        assert!(!net.fire_next_timer());
    }

    #[test]
    fn metrics_track_choices() {
        let sz = std::mem::size_of::<&'static str>() as u64;
        let mut net: SchedNet<Probe> = SchedNet::new();
        net.add_machine(m(0), Probe::new()); // arms one timer on start
        net.add_machine(m(1), Probe::new());
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "a"));
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "b"));
        let pend = net.pending_msgs();
        assert_eq!(net.metrics().sent, 2);
        assert_eq!(net.metrics().bytes_sent, 2 * sz);
        net.deliver(pend[0]);
        net.drop_msg(pend[1]);
        net.fire_next_timer();
        let got = net.metrics();
        assert_eq!(got.delivered, 1);
        assert_eq!(got.bytes_delivered, sz);
        assert_eq!(got.dropped, 1);
        assert_eq!(got.timers_fired, 1);
    }

    #[test]
    fn tamper_hook_mutates_at_delivery() {
        let mut net: SchedNet<Probe> = SchedNet::new();
        net.add_machine(m(0), Probe::new());
        net.add_machine(m(1), Probe::new());
        net.set_tamper(Arc::new(|_, _, _, _, msg: &mut &'static str| {
            if *msg == "x" {
                *msg = "mutated";
                true
            } else {
                false
            }
        }));
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "x"));
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "y"));
        for s in net.pending_msgs() {
            net.deliver(s);
        }
        assert_eq!(net.actor(m(1)).unwrap().seen, vec!["mutated", "y"]);
        assert_eq!(net.tamper_count(), 1);
    }

    /// A clone is a fork: it continues as the original would, on its own
    /// copies of the actors, the choices in flight and the hook's counter.
    #[derive(Clone)]
    struct Tally(Vec<&'static str>);
    impl Actor for Tally {
        type Msg = &'static str;
        fn on_message(
            &mut self,
            _: MachineId,
            _: Channel,
            msg: &'static str,
            _: &mut Ctx<'_, &'static str>,
        ) {
            self.0.push(msg);
        }
    }

    #[test]
    fn a_clone_forks_the_mesh_and_the_hooks_counter() {
        let mut net: SchedNet<Tally> = SchedNet::new();
        net.add_machine(m(0), Tally(Vec::new()));
        net.add_machine(m(1), Tally(Vec::new()));
        // Rewrites the second delivery only.
        net.set_tamper(Arc::new(|seen, _, _, _, msg: &mut &'static str| {
            *seen += 1;
            *seen == 2 && {
                *msg = "second";
                true
            }
        }));
        for msg in ["a", "b", "c"] {
            net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, msg));
        }
        let seqs = net.pending_msgs();
        assert!(net.deliver(seqs[0]));
        let mut fork = net.clone();
        assert!(fork.deliver(seqs[2]));
        assert!(fork.deliver(seqs[1]));
        assert!(net.deliver(seqs[1]));
        assert!(net.deliver(seqs[2]));
        assert_eq!(net.actor(m(1)).unwrap().0, vec!["a", "second", "c"]);
        assert_eq!(fork.actor(m(1)).unwrap().0, vec!["a", "second", "b"]);
        assert_eq!((net.tamper_count(), fork.tamper_count()), (1, 1));
        assert!(net.pending_msgs().is_empty() && fork.pending_msgs().is_empty());
    }
}

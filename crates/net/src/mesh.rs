//! The one virtual-time mesh under both deterministic drivers.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use guesstimate_core::MachineId;

use crate::actor::{run_deferred, Action, Actor, Ctx};
use crate::channel::Channel;
use crate::metrics::NetMetrics;
use crate::time::SimTime;
use crate::trace::{NoopTracer, TraceEvent, TraceRecord, Tracer};

// `Scheduler` and `Leg` are `pub` only because `Mesh`'s public impls name them.

/// How a [`Mesh`] places what its actors emit: one send leg, or one timer.
pub trait Scheduler<A: Actor>: Sized {
    /// The driver's name in `Debug` output.
    const NAME: &'static str;

    /// Takes one leg of a send action, already counted as sent.
    fn route(net: &mut Mesh<A, Self>, leg: Leg<A::Msg>);

    /// Arms `machine`'s timer `tag` for virtual time `due`.
    fn arm(net: &mut Mesh<A, Self>, due: SimTime, machine: MachineId, tag: u64);
}

/// One receiver's copy of a send action.
#[derive(Debug, Clone)]
pub struct Leg<M> {
    /// Sender.
    pub from: MachineId,
    /// Receiver.
    pub to: MachineId,
    /// Channel the action was sent on.
    pub channel: Channel,
    /// The payload.
    pub msg: M,
    /// Causal stamp of the send action; broadcast legs share one stamp
    /// (see [`TraceEvent::MsgSent`]).
    pub stamp: u64,
}

/// A virtual-time mesh of actors whose scheduler `S` chooses the next
/// event. See the [crate-level example](crate) for a minimal program.
///
/// The mesh owns what does not depend on that choice: the actors, virtual
/// time, the one seq counter that names each scheduled event, the causal
/// stamps, the [`NetMetrics`] and the driver-level tracer. It runs every
/// actor callback, with the deferred halves it asks for in the same step
/// ([`crate::run_deferred`]), fans each send action out into one leg per receiver (one
/// [`TraceEvent::MsgSent`] per action, `sent`/`bytes_sent` per leg), hands
/// a leg to its receiver (one [`TraceEvent::MsgReceived`],
/// `delivered`/`bytes_delivered`) and fires timers. The scheduler decides
/// where a leg or a timer goes and which event runs next:
///
/// - [`Timeline`](crate::Timeline), as [`SimNet`](crate::SimNet): a seeded
///   `(at, seq)` event heap that samples latency and faults; the earliest
///   event runs.
/// - [`Choices`](crate::Choices), as [`SchedNet`](crate::SchedNet): pending
///   legs, staged joins and `(due, seq)` timers; the caller picks.
#[derive(Clone)]
pub struct Mesh<A: Actor, S> {
    pub(crate) machines: BTreeMap<MachineId, A>,
    pub(crate) now: SimTime,
    seq: u64,
    stamps: u64,
    pub(crate) metrics: NetMetrics,
    tracer: Arc<dyn Tracer>,
    pub(crate) sched: S,
}

impl<A: Actor, S: Scheduler<A> + fmt::Debug> fmt::Debug for Mesh<A, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(S::NAME)
            .field("now", &self.now)
            .field("machines", &self.machines.keys().collect::<Vec<_>>())
            .field("scheduler", &self.sched)
            .finish()
    }
}

impl<A: Actor, S: Scheduler<A>> Mesh<A, S> {
    pub(crate) fn with_scheduler(sched: S) -> Self {
        Mesh {
            machines: BTreeMap::new(),
            now: SimTime::ZERO,
            seq: 0,
            stamps: 0,
            metrics: NetMetrics::default(),
            tracer: Arc::new(NoopTracer),
            sched,
        }
    }

    /// Installs a tracer for driver-level causal-stamp events
    /// ([`TraceEvent::MsgSent`] / [`TraceEvent::MsgReceived`]).
    ///
    /// Distinct from any tracer the *actors* hold for protocol events; a
    /// cluster typically shares one sink between both so the streams merge.
    /// The model checker's postmortem replay installs one to reconstruct
    /// the causal timeline of a shrunken violating schedule.
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Transport counters so far.
    pub fn metrics(&self) -> NetMetrics {
        self.metrics
    }

    /// Ids of current (non-crashed) members, in order.
    pub fn members(&self) -> Vec<MachineId> {
        self.machines.keys().copied().collect()
    }

    /// Immutable access to an actor.
    pub fn actor(&self, id: MachineId) -> Option<&A> {
        self.machines.get(&id)
    }

    /// Mutable access to an actor, **without** a context.
    ///
    /// Use for assertions and stat extraction; use [`Mesh::call`] when the
    /// mutation needs to send messages or set timers.
    pub fn actor_mut(&mut self, id: MachineId) -> Option<&mut A> {
        self.machines.get_mut(&id)
    }

    /// Adds a machine *now*; its [`Actor::on_start`] runs immediately.
    pub fn add_machine(&mut self, id: MachineId, actor: A) {
        self.machines.insert(id, actor);
        self.invoke(id, |a, ctx| a.on_start(ctx));
    }

    /// Invokes `f` on an actor *now*, with a context (messages/timers work).
    ///
    /// Returns `false` if the machine is not a member.
    pub fn call(&mut self, id: MachineId, f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>)) -> bool {
        if !self.machines.contains_key(&id) {
            return false;
        }
        self.invoke(id, f);
        true
    }

    /// Takes the next seq: every scheduled event gets one, in order.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Hands one leg to its receiver, or counts it dropped if the receiver
    /// is no longer a member (a real network handing bytes to a dead host).
    pub(crate) fn receive(&mut self, leg: Leg<A::Msg>) {
        if !self.machines.contains_key(&leg.to) {
            self.metrics.dropped += 1;
            return;
        }
        self.metrics.delivered += 1;
        self.metrics.bytes_delivered += A::msg_size(&leg.msg);
        self.trace(
            leg.to,
            TraceEvent::MsgReceived {
                origin: leg.from,
                stamp: leg.stamp,
                kind: A::msg_kind(&leg.msg),
            },
        );
        self.invoke(leg.to, |a, ctx| {
            a.on_message(leg.from, leg.channel, leg.msg, ctx)
        });
    }

    /// Fires `machine`'s timer `tag`; `false` (and nothing counted) if the
    /// machine has left.
    pub(crate) fn fire(&mut self, machine: MachineId, tag: u64) -> bool {
        if !self.machines.contains_key(&machine) {
            return false;
        }
        self.metrics.timers_fired += 1;
        self.invoke(machine, |a, ctx| a.on_timer(tag, ctx));
        true
    }

    /// Runs `f` on member `id` and then, in the same step, the deferred
    /// halves it asked for ([`run_deferred`]); then hands what they emitted,
    /// in emission order, to the scheduler.
    fn invoke(&mut self, id: MachineId, f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>)) {
        let mut actions = Vec::new();
        let Some(actor) = self.machines.get_mut(&id) else {
            return;
        };
        f(actor, &mut Ctx::new(self.now, id, &mut actions));
        run_deferred(actor, self.now, id, &mut actions);
        for action in actions {
            match action {
                Action::Broadcast(channel, msg) => {
                    let stamp = self.next_stamp(id, &msg);
                    let targets: Vec<MachineId> =
                        self.machines.keys().copied().filter(|&m| m != id).collect();
                    for to in targets {
                        self.send(id, to, channel, msg.clone(), stamp);
                    }
                }
                Action::Send(to, channel, msg) => {
                    let stamp = self.next_stamp(id, &msg);
                    self.send(id, to, channel, msg, stamp);
                }
                Action::SetTimer { delay, tag } => {
                    let due = self.now + delay;
                    S::arm(self, due, id, tag);
                }
                Action::Defer { .. } => unreachable!("run before routing"),
            }
        }
    }

    /// Allocates one causal stamp for a send action and records its
    /// [`TraceEvent::MsgSent`] (broadcast fan-out legs share the stamp).
    fn next_stamp(&mut self, src: MachineId, msg: &A::Msg) -> u64 {
        let stamp = self.stamps;
        self.stamps += 1;
        self.trace(
            src,
            TraceEvent::MsgSent {
                stamp,
                kind: A::msg_kind(msg),
                bytes: A::msg_size(msg),
            },
        );
        stamp
    }

    fn send(&mut self, from: MachineId, to: MachineId, channel: Channel, msg: A::Msg, stamp: u64) {
        self.metrics.sent += 1;
        self.metrics.bytes_sent += A::msg_size(&msg);
        let leg = Leg {
            from,
            to,
            channel,
            msg,
            stamp,
        };
        S::route(self, leg);
    }

    fn trace(&self, source: MachineId, event: TraceEvent) {
        self.tracer.record(TraceRecord {
            at: self.now,
            source,
            event,
        });
    }
}

//! The event-driven participant interface.
//!
//! Protocol logic (the GUESSTIMATE synchronizer, the one-copy baseline) is
//! written once against [`Actor`] and runs unchanged under all three
//! drivers: [`crate::SimNet`], [`crate::SchedNet`] and [`crate::ThreadedNet`].
//! Actors never touch sockets or clocks directly — they receive events and
//! emit [`Action`]s through a [`Ctx`].

use guesstimate_core::MachineId;

use crate::channel::Channel;
use crate::time::SimTime;

/// An effect requested by an actor: a message send, a timer, or the
/// deferred half of the callback that makes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Broadcast `msg` on `channel` to every *other* member of the mesh.
    Broadcast(Channel, M),
    /// Send `msg` on `channel` to one machine.
    Send(MachineId, Channel, M),
    /// Request an `on_timer(tag)` callback after `delay`.
    SetTimer {
        /// How long from now the timer fires.
        delay: SimTime,
        /// Opaque tag handed back to `on_timer`.
        tag: u64,
    },
    /// Request an `on_timer(tag)` callback as the deferred half of the
    /// callback that makes it: before anything else reaches the actor
    /// under virtual time, and behind what is already due on the wall clock
    /// (see [`Ctx::defer`]). Not a timer: it counts in no `timers_fired`.
    Defer {
        /// Opaque tag handed back to `on_timer`.
        tag: u64,
    },
}

/// Where a [`Ctx`] puts each action, at the call that makes it. A driver
/// decides here what "now" means for a send:
///
/// * [`crate::SimNet`] and [`crate::SchedNet`] collect into a
///   `Vec<Action<M>>` and route it when the callback returns, in emission
///   order. Virtual time stands still inside a callback, so "at the call"
///   and "at the return" are the same instant.
/// * [`crate::ThreadedNet`] stamps the action with the wall clock at the
///   call and hands it to the delivery thread there and then: a link delay
///   or a timer runs from the call, not from the end of whatever the actor
///   goes on to do in the same callback.
/// * [`Ctx::hosted`] translates a hosted actor's action and forwards it to
///   the host's outbox, still inside the hosted call.
///
/// The same choice sets when a deferred half ([`Ctx::defer`]) runs: the
/// virtual-time drivers run it in the same step, right after the callback
/// and before routing ([`run_deferred`]); [`crate::ThreadedNet`] queues it
/// as due at the instant the dispatched item was due (at the call, for an
/// application thread's [`crate::ThreadedHandle::with`]), so it runs after
/// everything that fell due with that item and ahead of what is due later.
pub trait Outbox<M> {
    /// Takes one action; called once per [`Ctx::send`], [`Ctx::broadcast`],
    /// [`Ctx::set_timer`] and [`Ctx::defer`], in call order.
    fn push(&mut self, action: Action<M>);
}

impl<M> Outbox<M> for Vec<Action<M>> {
    fn push(&mut self, action: Action<M>) {
        Vec::push(self, action);
    }
}

/// The context handed to actor callbacks: the time the callback started
/// plus the driver's [`Outbox`].
///
/// An action takes effect where the driver says it does (see [`Outbox`]):
/// under virtual time when the callback returns, on the wall-clock mesh at
/// the call. An actor that signals first and works afterwards therefore
/// has its signal on the wire while it works.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: MachineId,
    out: &'a mut dyn Outbox<M>,
}

impl<M> std::fmt::Debug for Ctx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("self_id", &self.self_id)
            .finish_non_exhaustive()
    }
}

impl<'a, M> Ctx<'a, M> {
    /// Creates a context over a driver's outbox (driver-internal).
    pub fn new(now: SimTime, self_id: MachineId, out: &'a mut dyn Outbox<M>) -> Self {
        Ctx { now, self_id, out }
    }

    /// The (virtual or wall-derived) time at which this callback started.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's machine id.
    pub fn self_id(&self) -> MachineId {
        self.self_id
    }

    /// Broadcasts `msg` on `channel` to every other mesh member.
    pub fn broadcast(&mut self, channel: Channel, msg: M) {
        self.out.push(Action::Broadcast(channel, msg));
    }

    /// Sends `msg` on `channel` to `to`.
    pub fn send(&mut self, to: MachineId, channel: Channel, msg: M) {
        self.out.push(Action::Send(to, channel, msg));
    }

    /// Schedules an [`Actor::on_timer`] callback `delay` after this call
    /// takes effect (see [`Outbox`]).
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.out.push(Action::SetTimer { delay, tag });
    }

    /// Splits this callback: `on_timer(tag)` runs as its deferred half. An
    /// actor that answers first and works afterwards defers the work, so
    /// that the answers of actors handed the same instant's events leave
    /// before any of them works.
    ///
    /// Under virtual time ([`crate::SimNet`], [`crate::SchedNet`]) the half
    /// runs in the same step, right after the callback and before what
    /// either emitted is routed: no event, no timer, no choice point, so a
    /// schedule does not change. On [`crate::ThreadedNet`] it is due at the
    /// instant the event being handled was due, so it runs behind the other
    /// events due then and ahead of any due later; an application thread's
    /// half is due at its call. Neither counts it in `timers_fired`.
    ///
    /// It comes back through [`Actor::on_timer`], the one callback besides
    /// `on_start` and `on_message` that every wrapper of an actor forwards.
    /// Nothing runs it before the actor's next event on the wall clock, so
    /// an actor that defers owes the work: it should pay what it owes first
    /// in every callback, and may find the tag already paid.
    pub fn defer(&mut self, tag: u64) {
        self.out.push(Action::Defer { tag });
    }

    /// Runs `f` with the context of an actor `id` hosted inside this one (a
    /// `runtime::MultiMachine` group): each action the hosted actor makes
    /// goes through `translate` and into this context's outbox at that call,
    /// so its sends leave when it makes them under every driver. Both tagged
    /// actions, [`Action::SetTimer`] and [`Action::Defer`], come back to the
    /// host's `on_timer`, so `translate` scopes their tags alike.
    pub fn hosted<N, R>(
        &mut self,
        id: MachineId,
        translate: impl FnMut(Action<N>) -> Action<M>,
        f: impl FnOnce(&mut Ctx<'_, N>) -> R,
    ) -> R {
        let mut relay = Relay {
            host: &mut *self.out,
            translate,
        };
        f(&mut Ctx::new(self.now, id, &mut relay))
    }
}

/// Runs the deferred halves ([`Ctx::defer`]) that a callback of `actor`
/// left in `actions`, the way the virtual-time drivers do: each
/// [`Action::Defer`] is taken out of the list and its `on_timer(tag)` runs at
/// once with the same `now`, adding its actions at the end of the list,
/// until none is left. What the callback emitted keeps its place, and each
/// half's actions follow it in emission order.
pub fn run_deferred<A: Actor>(
    actor: &mut A,
    now: SimTime,
    id: MachineId,
    actions: &mut Vec<Action<A::Msg>>,
) {
    let deferred = |a: &Action<A::Msg>| matches!(a, Action::Defer { .. });
    while let Some(i) = actions.iter().position(deferred) {
        let Action::Defer { tag } = actions.remove(i) else {
            unreachable!("found by position");
        };
        actor.on_timer(tag, &mut Ctx::new(now, id, actions));
    }
}

/// The [`Outbox`] of a hosted actor; see [`Ctx::hosted`].
struct Relay<'h, M, F> {
    host: &'h mut dyn Outbox<M>,
    translate: F,
}

impl<N, M, F: FnMut(Action<N>) -> Action<M>> Outbox<N> for Relay<'_, M, F> {
    fn push(&mut self, action: Action<N>) {
        self.host.push((self.translate)(action));
    }
}

/// A mesh participant.
///
/// All callbacks run with exclusive access to the actor (the threaded driver
/// serializes them behind a lock), so implementations need no internal
/// synchronization for their own state.
pub trait Actor: Send + 'static {
    /// The message type carried on both channels.
    type Msg: Clone + Send + 'static;

    /// Called once when the actor joins the mesh.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called for every delivered message.
    fn on_message(
        &mut self,
        from: MachineId,
        channel: Channel,
        msg: Self::Msg,
        ctx: &mut Ctx<'_, Self::Msg>,
    );

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    ///
    /// Timers cannot be cancelled; actors that re-arm timers should carry a
    /// generation counter in the tag and ignore stale ones.
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = (tag, ctx);
    }

    /// Estimated wire size of `msg` in bytes, used by the drivers to
    /// account `bytes_sent`/`bytes_delivered` in
    /// [`crate::NetMetrics`].
    ///
    /// The default charges every message one size-of-the-value unit —
    /// enough for relative comparisons. Protocol actors override this
    /// with a structural estimate of their message payloads.
    fn msg_size(msg: &Self::Msg) -> u64 {
        let _ = msg;
        std::mem::size_of::<Self::Msg>() as u64
    }

    /// A short, stable label for `msg`, recorded on the causal
    /// [`crate::TraceEvent::MsgSent`]/[`crate::TraceEvent::MsgReceived`]
    /// events so merged cluster timelines can be filtered by message kind.
    ///
    /// The default labels every message `"msg"`; protocol actors override
    /// this with one snake_case name per variant.
    fn msg_kind(msg: &Self::Msg) -> &'static str {
        let _ = msg;
        "msg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_records_actions_in_order() {
        let mut actions = Vec::new();
        let mut ctx: Ctx<'_, &'static str> =
            Ctx::new(SimTime::from_millis(5), MachineId::new(1), &mut actions);
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        assert_eq!(ctx.self_id(), MachineId::new(1));
        ctx.broadcast(Channel::Signals, "a");
        ctx.send(MachineId::new(2), Channel::Operations, "b");
        ctx.set_timer(SimTime::from_millis(10), 42);
        ctx.defer(43);
        assert_eq!(
            actions,
            vec![
                Action::Broadcast(Channel::Signals, "a"),
                Action::Send(MachineId::new(2), Channel::Operations, "b"),
                Action::SetTimer {
                    delay: SimTime::from_millis(10),
                    tag: 42
                },
                Action::Defer { tag: 43 },
            ]
        );
    }

    #[test]
    fn a_hosted_context_translates_each_action_into_the_host_outbox_in_call_order() {
        let mut actions = Vec::new();
        let mut host: Ctx<'_, (u8, &'static str)> =
            Ctx::new(SimTime::from_millis(5), MachineId::new(1), &mut actions);
        host.send(MachineId::new(9), Channel::Signals, (0, "host"));
        let translate = |a: Action<&'static str>| match a {
            Action::Broadcast(ch, m) => Action::Broadcast(ch, (7, m)),
            Action::Send(to, ch, m) => Action::Send(MachineId::new(to.index() + 100), ch, (7, m)),
            Action::SetTimer { delay, tag } => Action::SetTimer {
                delay,
                tag: tag | 0x700,
            },
            Action::Defer { tag } => Action::Defer { tag: tag | 0x700 },
        };
        host.hosted(MachineId::new(42), translate, |hosted| {
            assert_eq!(hosted.self_id(), MachineId::new(42));
            assert_eq!(hosted.now(), SimTime::from_millis(5));
            hosted.broadcast(Channel::Signals, "a");
            hosted.send(MachineId::new(2), Channel::Operations, "b");
            hosted.set_timer(SimTime::from_millis(10), 1);
            hosted.defer(3);
        });
        host.set_timer(SimTime::from_millis(1), 2);
        assert_eq!(
            actions,
            vec![
                Action::Send(MachineId::new(9), Channel::Signals, (0, "host")),
                Action::Broadcast(Channel::Signals, (7, "a")),
                Action::Send(MachineId::new(102), Channel::Operations, (7, "b")),
                Action::SetTimer {
                    delay: SimTime::from_millis(10),
                    tag: 0x701
                },
                Action::Defer { tag: 0x703 },
                Action::SetTimer {
                    delay: SimTime::from_millis(1),
                    tag: 2
                },
            ]
        );
    }

    #[test]
    fn default_hooks_are_noops() {
        struct Null;
        impl Actor for Null {
            type Msg = ();
            fn on_message(&mut self, _: MachineId, _: Channel, _: (), _: &mut Ctx<'_, ()>) {}
        }
        let mut n = Null;
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(SimTime::ZERO, MachineId::new(0), &mut actions);
        n.on_start(&mut ctx);
        n.on_timer(0, &mut ctx);
        assert!(actions.is_empty());
    }
}

//! Deterministic virtual-time driver (discrete-event simulation).
//!
//! [`SimNet`] is the [`Mesh`] whose scheduler, [`Timeline`], keeps an event
//! queue keyed by virtual time, a seeded RNG (latency samples, fault
//! coin-flips) and the fault plan. Every run with the same seed, same
//! actors and same scheduled calls produces the same history — which is
//! what lets the benchmark harness regenerate the paper's figures
//! repeatably.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use guesstimate_core::MachineId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::{Actor, Ctx};
use crate::channel::Channel;
use crate::fault::{FaultEvent, FaultPlan};
use crate::latency::LatencyModel;
use crate::mesh::{Leg, Mesh, Scheduler};
use crate::time::SimTime;

/// Static configuration of a simulated mesh.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Latency model for the Operations channel (and default for Signals).
    pub latency: LatencyModel,
    /// Optional distinct latency model for the Signals channel.
    pub signals_latency: Option<LatencyModel>,
    /// RNG seed: same seed ⇒ same run.
    pub seed: u64,
    /// Fault schedule.
    pub faults: FaultPlan,
}

impl NetConfig {
    /// A fault-free LAN-like mesh (~30 ms one-way latency), as in §7.
    pub fn lan(seed: u64) -> Self {
        NetConfig {
            latency: LatencyModel::lan_ms(30),
            signals_latency: None,
            seed,
            faults: FaultPlan::new(),
        }
    }

    /// Replaces the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets a distinct Signals-channel latency model.
    pub fn with_signals_latency(mut self, latency: LatencyModel) -> Self {
        self.signals_latency = Some(latency);
        self
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    fn model_for(&self, channel: Channel) -> &LatencyModel {
        match channel {
            Channel::Signals => self.signals_latency.as_ref().unwrap_or(&self.latency),
            Channel::Operations => &self.latency,
        }
    }
}

/// Anything else the mesh does at a scheduled instant: a call, a join, a
/// crash.
type Deferred<A> = Box<dyn FnOnce(&mut SimNet<A>) + Send>;

enum EventKind<A: Actor> {
    Deliver(Leg<A::Msg>),
    Timer { machine: MachineId, tag: u64 },
    Run(Deferred<A>),
}

/// A queue entry, ordered by `(at, seq)`.
///
/// `seq` is the mesh's scheduling counter, so events that share a virtual
/// timestamp fire in **exactly the order they were scheduled** — a total,
/// deterministic tie-break. This matters: protocol stages routinely
/// schedule several same-instant deliveries (a broadcast under constant
/// latency lands everywhere at once), and without the counter the heap's
/// ordering among equal keys would be arbitrary. Exploring *different*
/// same-timestamp orders deliberately is the job of the model checker's
/// `SchedNet`, not of `SimNet`.
struct Scheduled<A: Actor> {
    at: SimTime,
    seq: u64,
    kind: EventKind<A>,
}

impl<A: Actor> PartialEq for Scheduled<A> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<A: Actor> Eq for Scheduled<A> {}
impl<A: Actor> PartialOrd for Scheduled<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<A: Actor> Ord for Scheduled<A> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// [`SimNet`]'s scheduler: the configuration, the seeded RNG and the
/// `(at, seq)` event queue. The earliest event runs next.
pub struct Timeline<A: Actor> {
    cfg: NetConfig,
    rng: StdRng,
    queue: BinaryHeap<Scheduled<A>>,
}

impl<A: Actor> fmt::Debug for Timeline<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Timeline")
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}

/// A deterministic, virtual-time mesh of actors: a [`Mesh`] run by its
/// [`Timeline`].
///
/// See the [crate-level example](crate) for a minimal program.
pub type SimNet<A> = Mesh<A, Timeline<A>>;

impl<A: Actor> Scheduler<A> for Timeline<A> {
    const NAME: &'static str = "SimNet";

    /// Drops a leg whose sender is stalled or cut off, then draws, in this
    /// order: drop, duplicate, latency, and the duplicate's latency.
    fn route(net: &mut SimNet<A>, leg: Leg<A::Msg>) {
        let (Timeline { cfg, rng, .. }, now) = (&mut net.sched, net.now);
        if cfg.faults.is_stalled(leg.from, now) || cfg.faults.is_cut(leg.from, leg.to, now) {
            net.metrics.dropped += 1;
            return;
        }
        let drop_p = cfg.faults.drop_prob();
        if drop_p > 0.0 && rng.gen_bool(drop_p) {
            net.metrics.dropped += 1;
            return;
        }
        let dup_p = cfg.faults.dup_prob();
        let duplicate = dup_p > 0.0 && rng.gen_bool(dup_p);
        let model = cfg.model_for(leg.channel);
        let at = now + model.sample(rng);
        // Only the rare duplicated leg pays for a copy of the message.
        let copy = duplicate.then(|| (now + model.sample(rng), leg.clone()));
        net.push(at, EventKind::Deliver(leg));
        if let Some((at, copy)) = copy {
            net.metrics.duplicated += 1;
            net.push(at, EventKind::Deliver(copy));
        }
    }

    fn arm(net: &mut SimNet<A>, due: SimTime, machine: MachineId, tag: u64) {
        net.push(due, EventKind::Timer { machine, tag });
    }
}

impl<A: Actor> SimNet<A> {
    /// Creates an empty mesh; scheduled crash faults are armed immediately.
    pub fn new(cfg: NetConfig) -> Self {
        let crashes = cfg.faults.events().to_vec();
        let mut net = Mesh::with_scheduler(Timeline {
            rng: StdRng::seed_from_u64(cfg.seed),
            queue: BinaryHeap::new(),
            cfg,
        });
        for FaultEvent::Crash { machine, at } in crashes {
            net.run_at(at, move |net| {
                net.remove_machine(machine);
            });
        }
        net
    }

    fn push(&mut self, at: SimTime, kind: EventKind<A>) {
        let seq = self.next_seq();
        self.sched.queue.push(Scheduled { at, seq, kind });
    }

    fn run_at(&mut self, at: SimTime, f: impl FnOnce(&mut SimNet<A>) + Send + 'static) {
        self.push(at, EventKind::Run(Box::new(f)));
    }

    /// Schedules a machine to join at virtual time `at`.
    pub fn schedule_join(&mut self, at: SimTime, id: MachineId, actor: A) {
        self.run_at(at, move |net| net.add_machine(id, actor));
    }

    /// Removes a machine immediately (graceful leave), returning its actor.
    pub fn remove_machine(&mut self, id: MachineId) -> Option<A> {
        self.machines.remove(&id)
    }

    /// Schedules `f` to run on machine `id` at virtual time `at`.
    ///
    /// This is how workloads inject user activity ("at t=3.2s, user 2
    /// updates cell (4,5)"). Calls on machines that have crashed or left by
    /// `at` are silently skipped.
    pub fn schedule_call(
        &mut self,
        at: SimTime,
        id: MachineId,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>) + Send + 'static,
    ) {
        self.run_at(at, move |net| {
            net.call(id, f);
        });
    }

    /// Processes the next event, if any, returning its time.
    ///
    /// Events are consumed in `(at, seq)` order: earliest virtual time
    /// first, and among events sharing a timestamp, **scheduling order**
    /// (see `Scheduled`). Two runs with the same seed and the same
    /// sequence of external calls therefore process identical event
    /// sequences.
    pub fn step(&mut self) -> Option<SimTime> {
        let ev = self.sched.queue.pop()?;
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        match ev.kind {
            EventKind::Deliver(leg) => {
                let (faults, now) = (&self.sched.cfg.faults, self.now);
                if faults.is_stalled(leg.to, now) || faults.is_cut(leg.from, leg.to, now) {
                    self.metrics.dropped += 1;
                } else {
                    self.receive(leg);
                }
            }
            EventKind::Timer { machine, tag } => {
                self.fire(machine, tag);
            }
            EventKind::Run(f) => f(self),
        }
        Some(self.now)
    }

    /// Runs every event scheduled at or before `t`; afterwards `now() == t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.run_until_quiescent(t);
        self.now = self.now.max(t);
    }

    /// Runs until the event queue drains or virtual time exceeds `limit`.
    ///
    /// Returns `true` if the queue drained (quiescence) within the limit.
    /// Note that periodic protocols (a master that re-arms a sync timer)
    /// never quiesce; use [`SimNet::run_until`] for those.
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> bool {
        while self.sched.queue.peek().is_some_and(|next| next.at <= limit) {
            self.step();
        }
        self.sched.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StallWindow;

    /// Echo actor: replies "pong" to every "ping"; counts pongs received.
    struct Echo {
        pongs: usize,
        timer_fired_at: Option<SimTime>,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                pongs: 0,
                timer_fired_at: None,
            }
        }
    }

    impl Actor for Echo {
        type Msg = &'static str;
        fn on_message(
            &mut self,
            from: MachineId,
            channel: Channel,
            msg: &'static str,
            ctx: &mut Ctx<'_, &'static str>,
        ) {
            match msg {
                "ping" => ctx.send(from, channel, "pong"),
                "pong" => self.pongs += 1,
                _ => {}
            }
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_, &'static str>) {
            self.timer_fired_at = Some(ctx.now());
        }
    }

    fn mesh(n: u32, cfg: NetConfig) -> SimNet<Echo> {
        let mut net = SimNet::new(cfg);
        for i in 0..n {
            net.add_machine(MachineId::new(i), Echo::new());
        }
        net
    }

    #[test]
    fn ping_pong_roundtrip_with_constant_latency() {
        let cfg = NetConfig::lan(1).with_latency(LatencyModel::constant_ms(10));
        let mut net = mesh(2, cfg);
        net.call(MachineId::new(0), |_, ctx| {
            ctx.send(MachineId::new(1), Channel::Operations, "ping")
        });
        net.run_until(SimTime::from_millis(9));
        assert_eq!(net.actor(MachineId::new(0)).unwrap().pongs, 0);
        net.run_until(SimTime::from_millis(20));
        assert_eq!(net.actor(MachineId::new(0)).unwrap().pongs, 1);
        assert_eq!(net.metrics().delivered, 2);
    }

    #[test]
    fn broadcast_excludes_sender() {
        let cfg = NetConfig::lan(1).with_latency(LatencyModel::constant_ms(1));
        let mut net = mesh(4, cfg);
        net.call(MachineId::new(0), |_, ctx| {
            ctx.broadcast(Channel::Operations, "ping")
        });
        net.run_until(SimTime::from_millis(10));
        // 3 pings out, 3 pongs back to machine 0 only.
        assert_eq!(net.actor(MachineId::new(0)).unwrap().pongs, 3);
        for i in 1..4 {
            assert_eq!(net.actor(MachineId::new(i)).unwrap().pongs, 0);
        }
    }

    #[test]
    fn timers_fire_at_the_right_virtual_time() {
        let mut net = mesh(1, NetConfig::lan(1));
        net.call(MachineId::new(0), |_, ctx| {
            ctx.set_timer(SimTime::from_millis(250), 7)
        });
        net.run_until(SimTime::from_secs(1));
        assert_eq!(
            net.actor(MachineId::new(0)).unwrap().timer_fired_at,
            Some(SimTime::from_millis(250))
        );
        assert_eq!(net.metrics().timers_fired, 1);
    }

    #[test]
    fn identical_seeds_produce_identical_histories() {
        let run = |seed: u64| -> (u64, u64, usize) {
            let cfg = NetConfig::lan(seed);
            let mut net = mesh(5, cfg);
            for i in 0..5u32 {
                net.schedule_call(
                    SimTime::from_millis(i as u64 * 13),
                    MachineId::new(i),
                    |_, ctx| ctx.broadcast(Channel::Operations, "ping"),
                );
            }
            net.run_until(SimTime::from_secs(2));
            let m = net.metrics();
            (
                m.sent,
                m.delivered,
                net.actor(MachineId::new(3)).unwrap().pongs,
            )
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn drop_faults_lose_messages() {
        let cfg = NetConfig::lan(5)
            .with_latency(LatencyModel::constant_ms(1))
            .with_faults(FaultPlan::new().with_drop_prob(1.0));
        let mut net = mesh(2, cfg);
        net.call(MachineId::new(0), |_, ctx| {
            ctx.send(MachineId::new(1), Channel::Operations, "ping")
        });
        net.run_until(SimTime::from_millis(100));
        assert_eq!(net.metrics().delivered, 0);
        assert_eq!(net.metrics().dropped, 1);
        assert_eq!(net.actor(MachineId::new(0)).unwrap().pongs, 0);
    }

    #[test]
    fn stalled_machine_neither_sends_nor_receives() {
        let stall = StallWindow::new(MachineId::new(1), SimTime::ZERO, SimTime::from_millis(50));
        let cfg = NetConfig::lan(5)
            .with_latency(LatencyModel::constant_ms(1))
            .with_faults(FaultPlan::new().with_stall(stall));
        let mut net = mesh(2, cfg);
        // During the stall: ping to m1 is dropped at delivery.
        net.call(MachineId::new(0), |_, ctx| {
            ctx.send(MachineId::new(1), Channel::Operations, "ping")
        });
        // m1 tries to send during its stall: dropped at send.
        net.call(MachineId::new(1), |_, ctx| {
            ctx.send(MachineId::new(0), Channel::Operations, "ping")
        });
        net.run_until(SimTime::from_millis(40));
        assert_eq!(net.metrics().delivered, 0);
        assert_eq!(net.metrics().dropped, 2);
        // After the stall ends, traffic flows again.
        net.run_until(SimTime::from_millis(60));
        net.call(MachineId::new(0), |_, ctx| {
            ctx.send(MachineId::new(1), Channel::Operations, "ping")
        });
        net.run_until(SimTime::from_millis(100));
        assert_eq!(net.actor(MachineId::new(0)).unwrap().pongs, 1);
    }

    #[test]
    fn crash_removes_machine_permanently() {
        let cfg = NetConfig::lan(5)
            .with_latency(LatencyModel::constant_ms(1))
            .with_faults(FaultPlan::new().with_crash(MachineId::new(1), SimTime::from_millis(10)));
        let mut net = mesh(2, cfg);
        net.run_until(SimTime::from_millis(20));
        assert_eq!(net.members(), vec![MachineId::new(0)]);
        net.call(MachineId::new(0), |_, ctx| {
            ctx.send(MachineId::new(1), Channel::Operations, "ping")
        });
        net.run_until(SimTime::from_millis(40));
        assert_eq!(net.metrics().dropped, 1);
    }

    #[test]
    fn join_at_time_runs_on_start() {
        struct Greeter {
            started_at: Option<SimTime>,
        }
        impl Actor for Greeter {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                self.started_at = Some(ctx.now());
            }
            fn on_message(&mut self, _: MachineId, _: Channel, _: (), _: &mut Ctx<'_, ()>) {}
        }
        let mut net: SimNet<Greeter> = SimNet::new(NetConfig::lan(0));
        net.schedule_join(
            SimTime::from_millis(500),
            MachineId::new(0),
            Greeter { started_at: None },
        );
        assert!(net.members().is_empty());
        net.run_until(SimTime::from_secs(1));
        assert_eq!(
            net.actor(MachineId::new(0)).unwrap().started_at,
            Some(SimTime::from_millis(500))
        );
    }

    #[test]
    fn duplication_faults_duplicate() {
        let cfg = NetConfig::lan(5)
            .with_latency(LatencyModel::constant_ms(1))
            .with_faults(FaultPlan::new().with_dup_prob(1.0));
        let mut net = mesh(2, cfg);
        net.call(MachineId::new(1), |_, ctx| {
            ctx.send(MachineId::new(0), Channel::Operations, "pong")
        });
        net.run_until(SimTime::from_millis(100));
        assert_eq!(net.actor(MachineId::new(0)).unwrap().pongs, 2);
        assert_eq!(net.metrics().duplicated, 1);
    }

    #[test]
    fn run_until_quiescent_detects_drain() {
        let cfg = NetConfig::lan(1).with_latency(LatencyModel::constant_ms(1));
        let mut net = mesh(2, cfg);
        net.call(MachineId::new(0), |_, ctx| {
            ctx.send(MachineId::new(1), Channel::Operations, "ping")
        });
        assert!(net.run_until_quiescent(SimTime::from_secs(10)));
        assert_eq!(net.actor(MachineId::new(0)).unwrap().pongs, 1);
    }

    #[test]
    fn scheduled_call_on_departed_machine_is_skipped() {
        let mut net = mesh(2, NetConfig::lan(1));
        net.schedule_call(SimTime::from_millis(10), MachineId::new(1), |_, ctx| {
            ctx.broadcast(Channel::Operations, "ping")
        });
        let removed = net.remove_machine(MachineId::new(1));
        assert!(removed.is_some());
        net.run_until(SimTime::from_millis(100));
        assert_eq!(net.metrics().sent, 0);
    }

    #[test]
    fn byte_accounting_follows_msg_size() {
        // Echo does not override msg_size, so the default (size of the
        // message type) applies uniformly.
        let sz = std::mem::size_of::<&'static str>() as u64;
        let cfg = NetConfig::lan(1).with_latency(LatencyModel::constant_ms(1));
        let mut net = mesh(2, cfg);
        net.call(MachineId::new(0), |_, ctx| {
            ctx.send(MachineId::new(1), Channel::Operations, "ping")
        });
        net.run_until(SimTime::from_millis(10));
        let m = net.metrics();
        assert_eq!(m.sent, 2); // ping + pong
        assert_eq!(m.bytes_sent, m.sent * sz);
        assert_eq!(m.bytes_delivered, m.delivered * sz);
    }

    #[test]
    fn debug_is_nonempty() {
        let net = mesh(1, NetConfig::lan(1));
        assert!(format!("{net:?}").contains("SimNet"));
    }

    /// Sequence-recording actor for the tie-break test.
    struct Log {
        seen: Vec<u64>,
    }
    impl Actor for Log {
        type Msg = u64;
        fn on_message(&mut self, _: MachineId, _: Channel, msg: u64, _: &mut Ctx<'_, u64>) {
            self.seen.push(msg);
        }
    }

    #[test]
    fn same_timestamp_events_fire_in_scheduling_order() {
        // Every event below lands at exactly t=5ms (constant latency, one
        // shared target). The (at, seq) ordering must break the tie by
        // scheduling order — 0, 1, 2, ... — not by heap whim.
        let cfg = NetConfig::lan(1).with_latency(LatencyModel::constant_ms(5));
        let mut net: SimNet<Log> = SimNet::new(cfg);
        let target = MachineId::new(0);
        let sender = MachineId::new(1);
        net.add_machine(target, Log { seen: Vec::new() });
        net.add_machine(sender, Log { seen: Vec::new() });
        for k in 0..8 {
            net.call(sender, |_, ctx| ctx.send(target, Channel::Operations, k));
        }
        net.run_until(SimTime::from_millis(5));
        assert_eq!(net.actor(target).unwrap().seen, (0..8).collect::<Vec<_>>());

        // And the order is a function of scheduling order alone: a second
        // run scheduling the same messages in reverse delivers in reverse.
        let cfg = NetConfig::lan(1).with_latency(LatencyModel::constant_ms(5));
        let mut net: SimNet<Log> = SimNet::new(cfg);
        net.add_machine(target, Log { seen: Vec::new() });
        net.add_machine(sender, Log { seen: Vec::new() });
        for k in (0..8).rev() {
            net.call(sender, |_, ctx| ctx.send(target, Channel::Operations, k));
        }
        net.run_until(SimTime::from_millis(5));
        assert_eq!(
            net.actor(target).unwrap().seen,
            (0..8).rev().collect::<Vec<_>>()
        );
    }
}

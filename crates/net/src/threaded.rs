//! Real-thread wall-clock driver.
//!
//! [`ThreadedNet`] runs the same [`Actor`] protocol logic as [`crate::SimNet`],
//! but with real threads and real delays: application threads (a UI, a
//! workload generator, a test) interact with their machine through a
//! [`ThreadedHandle`] while a background *delivery service* thread plays the
//! network, applying the configured latency model to every message. Every
//! wall-clock measurement of the protocol (the `perf` benchmark's six
//! workloads) runs on this mesh, so how punctually it delivers is part of
//! every number they report.
//!
//! # Delivery contract
//!
//! **A delay runs from the call that made it.** `Ctx::send`, `broadcast`
//! and `set_timer` read the clock and submit to the delivery thread inside
//! the call: a message is due one sampled link delay after its `send`, a
//! timer `delay` after its `set_timer`, whatever the actor goes on to do in
//! the same callback. An actor that signals first and works afterwards has
//! its signal in flight while it works, and two sends of one callback are
//! due as far apart as they were made.
//!
//! A delivery or timer with due time `t` is dispatched
//!
//! * **never early**: the handler starts at a clock reading `>= t`;
//! * **in due order**: among items the thread has been sent, the earliest
//!   `(t, submission order)` goes first, also when it was submitted while
//!   the thread was already waiting for a later one, and also when `t` had
//!   passed before the callback that made it returned (the thread was busy
//!   in that callback, or the recipient was);
//! * **late by the poll granularity**: once `t` is less than the guard away
//!   the thread stops blocking and polls (clock, `try_recv`,
//!   `spin_loop`), so it notices `t` within one poll, well under a
//!   microsecond, where blocking until `t` returned one timer-slack-plus-
//!   scheduler wake-up (p50 75 to 130 us on Linux) after it. Handlers run on
//!   this one thread, so an item due while another's handler runs waits for
//!   it, and a wake-up later than the guard is late by the excess;
//! * **to the incarnation it was meant for**: every `add_machine` is a new
//!   incarnation of its id. A timer fires only on the incarnation that set
//!   it and a message reaches only the incarnation that held the id when it
//!   was sent; otherwise the item is counted `dropped`. (A message sent to
//!   an id nobody holds goes to whoever holds it when it is due.)
//!
//! A **deferred half** ([`Ctx::defer`]) is queued as due at the instant the
//! item being dispatched was due, behind every item already queued for that
//! instant (an application thread's, made in [`ThreadedHandle::with`], at its
//! call). So the events that fall due together are all handled before any of
//! their deferred halves runs, and a half runs ahead of anything due later,
//! also when that is already past by the time the handler returns. A half
//! is run only for the incarnation that deferred it and is no timer: it is
//! counted in neither `timers_fired` nor `dropped`.
//!
//! The thread **polls only within the guard** of the heap head's due time.
//! Further away it blocks in `recv_timeout` until the guard begins (a
//! submission wakes it sooner), and with nothing in the heap it blocks in
//! `recv` and costs nothing. Its busy time is therefore bounded by the
//! guard times the number of wake-ups, which is what
//! `bench.cpu_us_per_commit` shows rising with this design.
//!
//! Fault injection is a simulation-mode feature; the threaded driver is
//! fault-free by design.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use guesstimate_core::MachineId;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Action, Actor, Ctx, Outbox};
use crate::channel::Channel;
use crate::latency::LatencyModel;
use crate::metrics::NetMetrics;
use crate::time::SimTime;
use crate::trace::{NoopTracer, TraceEvent, TraceRecord, Tracer};

/// How long before the heap head is due the delivery thread stops blocking
/// and polls for it. A blocking wait on Linux ends late by much the same
/// amount whatever its length: timer slack plus a scheduler wake-up, here
/// p50 75-130 us and p90 100-200 us between a quiet and a noisy hour (the
/// table in `docs/ARCHITECTURE.md`, reprinted by the `lateness_table` test
/// below). So the thread asks to be woken this much early and polls away
/// what the wake-up left of it; a wake-up later than the guard delivers late
/// by the excess, as every wake-up did before. Each wake-up polls for at most
/// the guard.
const POLL_GUARD: Duration = Duration::from_micros(150);

enum Submission<M> {
    Due { at: SimTime, item: DueItem<M> },
    Shutdown,
}

struct Due<M> {
    at: SimTime,
    seq: u64,
    item: DueItem<M>,
}

enum DueItem<M> {
    Deliver {
        from: MachineId,
        to: MachineId,
        /// The incarnation `to` had when this was sent: only that one is
        /// handed the message. `None` when nobody held the id: such a
        /// message was addressed to no incarnation, and whoever holds the
        /// id at the due time is handed it, as always.
        incarnation: Option<u64>,
        channel: Channel,
        msg: M,
        stamp: u64,
        /// `Actor::msg_size` of `msg`, computed once by the sender.
        size: u64,
    },
    Timer {
        machine: MachineId,
        /// The incarnation that set the timer; it fires on no other.
        incarnation: u64,
        tag: u64,
    },
    /// A deferred half ([`Ctx::defer`]): `on_timer(tag)` on the incarnation
    /// that deferred it.
    Defer {
        machine: MachineId,
        incarnation: u64,
        tag: u64,
    },
}

impl<M> PartialEq for Due<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<M> Eq for Due<M> {}
impl<M> PartialOrd for Due<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Due<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq)) // min-heap
    }
}

/// One `add_machine`: the actor and the number that tells it from an earlier
/// or later holder of the same id.
struct Slot<A> {
    incarnation: u64,
    actor: Mutex<A>,
}

struct Shared<A: Actor> {
    machines: RwLock<std::collections::BTreeMap<MachineId, Arc<Slot<A>>>>,
    incarnations: AtomicU64,
    tx: Sender<Submission<A::Msg>>,
    start: Instant,
    latency: LatencyModel,
    rng: Mutex<StdRng>,
    metrics: Mutex<NetMetrics>,
    stamps: AtomicU64,
    tracer: RwLock<Arc<dyn Tracer>>,
}

impl<A: Actor> Shared<A> {
    fn now(&self) -> SimTime {
        SimTime::from(self.start.elapsed())
    }

    fn trace(&self, at: SimTime, source: MachineId, event: TraceEvent) {
        self.tracer.read().record(TraceRecord { at, source, event });
    }

    /// Runs `f` on the actor holding `id` (on that `incarnation` of it, if
    /// one is named) with a live context: what the actor sends or arms
    /// inside `f` is submitted at that call, and what it defers is due at
    /// `due` -- the due time of the item being dispatched -- or, for a call
    /// from outside the delivery thread (`None`), at the call.
    fn invoke(
        &self,
        id: MachineId,
        incarnation: Option<u64>,
        due: Option<SimTime>,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>),
    ) -> bool {
        let Some(slot) = self.machines.read().get(&id).cloned() else {
            return false;
        };
        if incarnation.is_some_and(|i| i != slot.incarnation) {
            return false;
        }
        let mut guard = slot.actor.lock();
        let now = self.now();
        let mut out = Live {
            shared: self,
            src: id,
            incarnation: slot.incarnation,
            due: due.unwrap_or(now),
        };
        f(&mut guard, &mut Ctx::new(now, id, &mut out));
        true
    }

    /// Submits one send action made at `now`: one causal stamp and
    /// [`TraceEvent::MsgSent`] (broadcast fan-out legs share the stamp), one
    /// sizing of `msg`, one turn at the metrics and RNG locks, one latency
    /// draw per recipient in `targets` order.
    fn send(
        &self,
        now: SimTime,
        from: MachineId,
        targets: &[(MachineId, Option<u64>)],
        channel: Channel,
        msg: A::Msg,
    ) {
        let size = A::msg_size(&msg);
        let stamp = self.stamps.fetch_add(1, AtomicOrdering::Relaxed);
        self.trace(
            now,
            from,
            TraceEvent::MsgSent {
                stamp,
                kind: A::msg_kind(&msg),
                bytes: size,
            },
        );
        let Some((&last, rest)) = targets.split_last() else {
            return;
        };
        {
            let mut m = self.metrics.lock();
            m.sent += targets.len() as u64;
            m.bytes_sent += size * targets.len() as u64;
        }
        let mut rng = self.rng.lock();
        let mut submit = |(to, incarnation), msg| {
            let _ = self.tx.send(Submission::Due {
                at: now + self.latency.sample(&mut *rng),
                item: DueItem::Deliver {
                    from,
                    to,
                    incarnation,
                    channel,
                    msg,
                    stamp,
                    size,
                },
            });
        };
        for &to in rest {
            submit(to, msg.clone());
        }
        submit(last, msg);
    }
}

/// The outbox of a running callback: each action is stamped with the clock
/// at the call that made it and submitted to the delivery thread from inside
/// that call, so its delay is already running while the actor works on. A
/// deferred half is stamped `due` instead.
struct Live<'s, A: Actor> {
    shared: &'s Shared<A>,
    src: MachineId,
    incarnation: u64,
    due: SimTime,
}

impl<A: Actor> Outbox<A::Msg> for Live<'_, A> {
    fn push(&mut self, action: Action<A::Msg>) {
        let (shared, src) = (self.shared, self.src);
        let now = shared.now();
        match action {
            Action::Broadcast(channel, msg) => {
                let targets: Vec<_> = shared
                    .machines
                    .read()
                    .iter()
                    .filter(|(&m, _)| m != src)
                    .map(|(&m, slot)| (m, Some(slot.incarnation)))
                    .collect();
                shared.send(now, src, &targets, channel, msg);
            }
            Action::Send(to, channel, msg) => {
                let incarnation = shared.machines.read().get(&to).map(|s| s.incarnation);
                shared.send(now, src, &[(to, incarnation)], channel, msg);
            }
            Action::SetTimer { delay, tag } => {
                let _ = shared.tx.send(Submission::Due {
                    at: now + delay,
                    item: DueItem::Timer {
                        machine: src,
                        incarnation: self.incarnation,
                        tag,
                    },
                });
            }
            Action::Defer { tag } => {
                let _ = shared.tx.send(Submission::Due {
                    at: self.due,
                    item: DueItem::Defer {
                        machine: src,
                        incarnation: self.incarnation,
                        tag,
                    },
                });
            }
        }
    }
}

/// A handle through which application threads drive one machine.
pub struct ThreadedHandle<A: Actor> {
    id: MachineId,
    shared: Arc<Shared<A>>,
}

impl<A: Actor> Clone for ThreadedHandle<A> {
    fn clone(&self) -> Self {
        ThreadedHandle {
            id: self.id,
            shared: self.shared.clone(),
        }
    }
}

impl<A: Actor> std::fmt::Debug for ThreadedHandle<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedHandle")
            .field("id", &self.id)
            .finish()
    }
}

impl<A: Actor> ThreadedHandle<A> {
    /// The machine this handle drives.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Runs `f` with exclusive access to the actor and a live context;
    /// messages and timers the actor emits are routed through the mesh.
    ///
    /// Returns `None` if the machine has left the mesh.
    pub fn with<R>(&self, f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>) -> R) -> Option<R> {
        let mut out = None;
        self.shared
            .invoke(self.id, None, None, |a, ctx| out = Some(f(a, ctx)));
        out
    }

    /// Runs `f` with shared read access to the actor (no context).
    pub fn read<R>(&self, f: impl FnOnce(&A) -> R) -> Option<R> {
        let slot = self.shared.machines.read().get(&self.id).cloned()?;
        let guard = slot.actor.lock();
        Some(f(&guard))
    }
}

/// A wall-clock mesh of actors, one delivery-service thread behind it.
///
/// # Examples
///
/// ```
/// use guesstimate_core::MachineId;
/// use guesstimate_net::{Actor, Channel, Ctx, LatencyModel, ThreadedNet};
///
/// struct Count(usize);
/// impl Actor for Count {
///     type Msg = u8;
///     fn on_message(&mut self, _: MachineId, _: Channel, _: u8, _: &mut Ctx<'_, u8>) {
///         self.0 += 1;
///     }
/// }
///
/// let net = ThreadedNet::new(LatencyModel::constant_ms(1), 7);
/// let a = net.add_machine(MachineId::new(0), Count(0));
/// let b = net.add_machine(MachineId::new(1), Count(0));
/// a.with(|_, ctx| ctx.broadcast(Channel::Signals, 9u8));
/// std::thread::sleep(std::time::Duration::from_millis(50));
/// assert_eq!(b.read(|c| c.0), Some(1));
/// ```
pub struct ThreadedNet<A: Actor> {
    shared: Arc<Shared<A>>,
    service: Option<JoinHandle<()>>,
}

impl<A: Actor> std::fmt::Debug for ThreadedNet<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedNet")
            .field("machines", &self.shared.machines.read().len())
            .finish()
    }
}

impl<A: Actor> ThreadedNet<A> {
    /// Starts an empty mesh with the given latency model and RNG seed.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        let (tx, rx) = unbounded();
        let shared = Arc::new(Shared {
            machines: RwLock::new(std::collections::BTreeMap::new()),
            incarnations: AtomicU64::new(0),
            tx,
            start: Instant::now(),
            latency,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            metrics: Mutex::new(NetMetrics::default()),
            stamps: AtomicU64::new(0),
            tracer: RwLock::new(Arc::new(NoopTracer)),
        });
        let service = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("guesstimate-net-delivery".into())
                .spawn(move || delivery_service(shared, rx))
                .expect("spawn delivery service")
        };
        ThreadedNet {
            shared,
            service: Some(service),
        }
    }

    /// Adds a machine; its [`Actor::on_start`] runs before this returns.
    ///
    /// Each call is a new *incarnation* of `id`: timers set by, and messages
    /// sent to, an earlier holder of the id never reach this one.
    pub fn add_machine(&self, id: MachineId, actor: A) -> ThreadedHandle<A> {
        let slot = Slot {
            incarnation: self
                .shared
                .incarnations
                .fetch_add(1, AtomicOrdering::Relaxed),
            actor: Mutex::new(actor),
        };
        self.shared.machines.write().insert(id, Arc::new(slot));
        self.shared.invoke(id, None, None, |a, ctx| a.on_start(ctx));
        ThreadedHandle {
            id,
            shared: self.shared.clone(),
        }
    }

    /// Removes a machine from the mesh; in-flight messages to it are dropped
    /// and its pending timers never fire, also if the id is added again.
    pub fn remove_machine(&self, id: MachineId) {
        self.shared.machines.write().remove(&id);
    }

    /// Installs a tracer for driver-level causal-stamp events
    /// ([`TraceEvent::MsgSent`] / [`TraceEvent::MsgReceived`]).
    ///
    /// Receive events are recorded from the delivery-service thread; sends
    /// from whichever application thread drove the actor — the sink must
    /// tolerate concurrent `record` calls (all shipped tracers do).
    pub fn set_tracer(&self, tracer: Arc<dyn Tracer>) {
        *self.shared.tracer.write() = tracer;
    }

    /// Wall-clock time since mesh start.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Transport counters so far.
    pub fn metrics(&self) -> NetMetrics {
        *self.shared.metrics.lock()
    }

    /// A handle to an existing machine.
    pub fn handle(&self, id: MachineId) -> Option<ThreadedHandle<A>> {
        if self.shared.machines.read().contains_key(&id) {
            Some(ThreadedHandle {
                id,
                shared: self.shared.clone(),
            })
        } else {
            None
        }
    }
}

impl<A: Actor> Drop for ThreadedNet<A> {
    fn drop(&mut self) {
        let _ = self.shared.tx.send(Submission::Shutdown);
        if let Some(h) = self.service.take() {
            // A handler that panicked took the delivery thread with it and
            // the mesh went quiet: surface that where the mesh is dropped
            // (unless this drop is itself part of an unwind, where a second
            // panic would abort).
            if let Err(panic) = h.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

fn delivery_service<A: Actor>(shared: Arc<Shared<A>>, rx: Receiver<Submission<A::Msg>>) {
    let mut heap: BinaryHeap<Due<A::Msg>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut push = |heap: &mut BinaryHeap<_>, at, item| {
        seq += 1;
        heap.push(Due { at, seq, item });
    };
    loop {
        // Read the clock, then drain: whatever was submitted before this
        // reading is in the heap before anything is judged due against it,
        // so a later-due item never overtakes an earlier-due one that had
        // already been sent, and nothing is dispatched early.
        let now = shared.now();
        loop {
            match rx.try_recv() {
                Ok(Submission::Due { at, item }) => push(&mut heap, at, item),
                Ok(Submission::Shutdown) | Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => break,
            }
        }
        // Dispatch the head if it is due. Otherwise block while it is
        // further away than the guard (forever on an empty heap; a
        // submission ends either wait), and inside the guard poll: back to
        // the top for the clock and the channel. The poll does not
        // `yield_now`: sharing a core with a busy thread, a yield per poll
        // gives up this thread's slice each time and its later wake-ups
        // stop preempting that neighbour (Linux 6.18: a 200 us link round
        // trip measured 8 ms so, 0.4 ms spinning).
        let woken_by = match heap.peek().map(|head| head.at) {
            Some(at) if at <= now => {
                let head = heap.pop().expect("peeked");
                dispatch(&shared, head.at, head.item);
                continue;
            }
            Some(at) => {
                let wait = Duration::from(at.saturating_since(now));
                if wait <= POLL_GUARD {
                    std::hint::spin_loop();
                    continue;
                }
                rx.recv_timeout(wait - POLL_GUARD)
            }
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match woken_by {
            Ok(Submission::Due { at, item }) => push(&mut heap, at, item),
            Ok(Submission::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

/// Runs one item that fell due at `at`; what its handler defers is due then
/// too.
fn dispatch<A: Actor>(shared: &Shared<A>, at: SimTime, item: DueItem<A::Msg>) {
    match item {
        DueItem::Deliver {
            from,
            to,
            incarnation,
            channel,
            msg,
            stamp,
            size,
        } => {
            let kind = A::msg_kind(&msg);
            let delivered = shared.invoke(to, incarnation, Some(at), |a, ctx| {
                // Record the receive *before* on_message so any reply's
                // MsgSent timestamp is never earlier than this receive.
                shared.trace(
                    ctx.now(),
                    to,
                    TraceEvent::MsgReceived {
                        origin: from,
                        stamp,
                        kind,
                    },
                );
                a.on_message(from, channel, msg, ctx)
            });
            let mut m = shared.metrics.lock();
            if delivered {
                m.delivered += 1;
                m.bytes_delivered += size;
            } else {
                m.dropped += 1;
            }
        }
        DueItem::Timer {
            machine,
            incarnation,
            tag,
        } => {
            let fired = shared.invoke(machine, Some(incarnation), Some(at), |a, ctx| {
                a.on_timer(tag, ctx)
            });
            let mut m = shared.metrics.lock();
            if fired {
                m.timers_fired += 1;
            } else {
                m.dropped += 1;
            }
        }
        DueItem::Defer {
            machine,
            incarnation,
            tag,
        } => {
            shared.invoke(machine, Some(incarnation), Some(at), |a, ctx| {
                a.on_timer(tag, ctx)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Pinger {
        pings_seen: usize,
        pongs_seen: Arc<AtomicUsize>,
        timer_hits: usize,
    }

    impl Actor for Pinger {
        type Msg = &'static str;
        fn on_message(
            &mut self,
            from: MachineId,
            channel: Channel,
            msg: &'static str,
            ctx: &mut Ctx<'_, &'static str>,
        ) {
            match msg {
                "ping" => {
                    self.pings_seen += 1;
                    ctx.send(from, channel, "pong");
                }
                "pong" => {
                    self.pongs_seen.fetch_add(1, Ordering::SeqCst);
                }
                _ => {}
            }
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_, &'static str>) {
            self.timer_hits += 1;
        }
    }

    fn pinger(pongs: &Arc<AtomicUsize>) -> Pinger {
        Pinger {
            pings_seen: 0,
            pongs_seen: pongs.clone(),
            timer_hits: 0,
        }
    }

    fn wait_for(pred: impl Fn() -> bool, ms: u64) -> bool {
        let deadline = Instant::now() + Duration::from_millis(ms);
        while Instant::now() < deadline {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        pred()
    }

    #[test]
    fn ping_pong_over_threads() {
        let pongs = Arc::new(AtomicUsize::new(0));
        let net = ThreadedNet::new(LatencyModel::constant_ms(1), 3);
        let a = net.add_machine(MachineId::new(0), pinger(&pongs));
        let _b = net.add_machine(MachineId::new(1), pinger(&pongs));
        a.with(|_, ctx| ctx.send(MachineId::new(1), Channel::Operations, "ping"));
        assert!(wait_for(|| pongs.load(Ordering::SeqCst) == 1, 2_000));
        assert_eq!(net.metrics().delivered, 2);
    }

    #[test]
    fn broadcast_reaches_all_other_machines() {
        let pongs = Arc::new(AtomicUsize::new(0));
        let net = ThreadedNet::new(LatencyModel::constant_ms(1), 3);
        let handles: Vec<_> = (0..4)
            .map(|i| net.add_machine(MachineId::new(i), pinger(&pongs)))
            .collect();
        handles[0].with(|_, ctx| ctx.broadcast(Channel::Operations, "ping"));
        assert!(wait_for(|| pongs.load(Ordering::SeqCst) == 3, 2_000));
        for h in &handles[1..] {
            assert_eq!(h.read(|p| p.pings_seen), Some(1));
        }
    }

    #[test]
    fn timers_fire() {
        let pongs = Arc::new(AtomicUsize::new(0));
        let net = ThreadedNet::new(LatencyModel::constant_ms(1), 3);
        let a = net.add_machine(MachineId::new(0), pinger(&pongs));
        a.with(|_, ctx| ctx.set_timer(SimTime::from_millis(5), 1));
        assert!(wait_for(|| a.read(|p| p.timer_hits).unwrap() == 1, 2_000));
    }

    #[test]
    fn removed_machine_drops_messages() {
        let pongs = Arc::new(AtomicUsize::new(0));
        let net = ThreadedNet::new(LatencyModel::constant_ms(5), 3);
        let a = net.add_machine(MachineId::new(0), pinger(&pongs));
        let _b = net.add_machine(MachineId::new(1), pinger(&pongs));
        a.with(|_, ctx| ctx.send(MachineId::new(1), Channel::Operations, "ping"));
        net.remove_machine(MachineId::new(1));
        assert!(wait_for(|| net.metrics().dropped == 1, 2_000));
        assert_eq!(pongs.load(Ordering::SeqCst), 0);
        assert!(net.handle(MachineId::new(1)).is_none());
        assert!(net.handle(MachineId::new(0)).is_some());
    }

    #[test]
    fn handle_read_and_with_return_values() {
        let pongs = Arc::new(AtomicUsize::new(0));
        let net = ThreadedNet::new(LatencyModel::constant_ms(1), 3);
        let a = net.add_machine(MachineId::new(0), pinger(&pongs));
        assert_eq!(a.with(|p, _| p.pings_seen), Some(0));
        assert_eq!(a.read(|p| p.timer_hits), Some(0));
        net.remove_machine(MachineId::new(0));
        assert_eq!(a.with(|p, _| p.pings_seen), None);
        assert_eq!(a.read(|p| p.timer_hits), None);
    }

    /// Ping-pongs its receipt time over the link: every message carries the
    /// sender's clock reading, every receipt records how long it flew.
    struct Echo {
        flights: Arc<Mutex<Vec<SimTime>>>,
    }

    impl Actor for Echo {
        type Msg = SimTime;
        fn on_message(
            &mut self,
            from: MachineId,
            channel: Channel,
            sent: SimTime,
            ctx: &mut Ctx<'_, SimTime>,
        ) {
            self.flights.lock().push(ctx.now().saturating_since(sent));
            ctx.send(from, channel, ctx.now());
        }
    }

    /// Starts a two-actor ping-pong over a constant `link` and calls
    /// `meanwhile` until `n` flights are recorded; returns the flights.
    fn echo_flights(link: SimTime, n: usize, mut meanwhile: impl FnMut()) -> Vec<SimTime> {
        let flights = Arc::new(Mutex::new(Vec::new()));
        let net = ThreadedNet::new(LatencyModel::Constant(link), 3);
        let echo = || Echo {
            flights: flights.clone(),
        };
        let a = net.add_machine(MachineId::new(0), echo());
        let _b = net.add_machine(MachineId::new(1), echo());
        a.with(|_, ctx| ctx.send(MachineId::new(1), Channel::Operations, ctx.now()));
        let deadline = Instant::now() + Duration::from_secs(30);
        while flights.lock().len() < n {
            assert!(Instant::now() < deadline, "ping-pong stalled");
            meanwhile();
        }
        drop(net);
        let mut flights = flights.lock().clone();
        flights.truncate(n);
        flights
    }

    /// `[p10, p50, p90, p99]` of `samples`, in microseconds.
    fn percentiles_us(mut samples: Vec<u64>) -> [u64; 4] {
        samples.sort_unstable();
        [10, 50, 90, 99].map(|p| samples[(samples.len() - 1) * p / 100])
    }

    /// How late a blocking `wait` returns, `n` times over, in microseconds.
    fn overshoots_us(wait: Duration, n: usize, block: impl Fn(Duration)) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let t = Instant::now();
                block(wait);
                t.elapsed().saturating_sub(wait).as_micros() as u64
            })
            .collect()
    }

    /// (a) never early, (b) on time. The yardstick for (b) is taken by this
    /// thread while the mesh runs, so both see the same box: a delivery is
    /// late by a poll, a `thread::sleep` of the link delay by a whole
    /// wake-up, and blocking until the due time (the wait this replaced)
    /// made the two equal.
    #[test]
    fn a_constant_link_delivers_never_early_and_on_time() {
        let link = SimTime::from_micros(200);
        let mut sleeps = Vec::new();
        let flights = echo_flights(link, 600, || {
            sleeps.extend(overshoots_us(link.into(), 1, std::thread::sleep));
        });
        assert!(flights.iter().all(|&f| f >= link), "a delivery was early");
        let late = flights.iter().map(|f| f.as_micros() - link.as_micros());
        let [_, late_p50, ..] = percentiles_us(late.collect());
        let [_, sleep_p50, ..] = percentiles_us(sleeps);
        assert!(
            2 * late_p50 < sleep_p50,
            "median delivery {late_p50} us late; a sleep of the same length {sleep_p50} us"
        );
    }

    struct TimerLog(Vec<(u64, SimTime)>);

    impl Actor for TimerLog {
        type Msg = ();
        fn on_message(&mut self, _: MachineId, _: Channel, _: (), _: &mut Ctx<'_, ()>) {}
        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, ()>) {
            self.0.push((tag, ctx.now()));
        }
    }

    /// (c) A timer due in 140 us puts the delivery thread inside its guard;
    /// 70 us later, while it polls, a second one due in 10 us is submitted.
    /// The second must fire first -- polling still listens to the channel --
    /// and neither before it was due. Both are judged against clock readings
    /// taken around the two `set_timer` calls, which bound the due times
    /// whatever else the box is running; how *late* a dispatch is belongs to
    /// the `threaded_link_round_trip/*` microbench and `lateness_table`.
    #[test]
    fn a_submission_while_polling_is_dispatched_in_due_order_and_never_early() {
        let net = ThreadedNet::new(LatencyModel::constant_ms(1), 3);
        let a = net.add_machine(MachineId::new(0), TimerLog(Vec::new()));
        let (head, second) = (SimTime::from_micros(140), SimTime::from_micros(10));
        let mut judged = 0;
        for round in 1..=200 {
            let start = net.now();
            a.with(|_, ctx| ctx.set_timer(head, 1));
            while net.now() < start + SimTime::from_micros(70) {
                std::hint::spin_loop();
            }
            let resumed = net.now();
            a.with(|_, ctx| ctx.set_timer(second, 2));
            let submitted = net.now();
            assert!(wait_for(
                || a.read(|log| log.0.len()) == Some(2 * round),
                2_000
            ));
            let fired: Vec<(u64, SimTime)> = a.read(|log| log.0[2 * round - 2..].to_vec()).unwrap();
            for (tag, at) in &fired {
                // Due no earlier than the reading before its call, plus its delay.
                let due = if *tag == 1 {
                    start + head
                } else {
                    resumed + second
                };
                assert!(*at >= due, "timer {tag} fired at {at:?}, due {due:?}");
            }
            // The head was due no earlier than `start + head`, the second
            // no later than `submitted + second`: the order is decided in
            // the rounds in which this thread was not held up between the
            // two for longer than that.
            if submitted + second < start + head {
                judged += 1;
                assert_eq!(fired[0].0, 2, "the later-due head overtook");
            }
        }
        assert!(
            judged > 0,
            "no round of 200 submitted the second timer in time"
        );
    }

    /// One thing a [`Scripted`] actor does inside a callback.
    #[derive(Clone, Copy)]
    enum Step {
        /// Send `Some(label)` to the peer.
        Send(u64),
        /// Arm a timer: delay in microseconds, tag.
        Timer(u64, u64),
        /// Busy-work for this many microseconds.
        Work(u64),
    }

    /// What a [`Scripted`] pair saw, each with a reading of the mesh clock:
    /// `Called` just before the `send`/`set_timer` call of that label or
    /// tag, `Got`/`Fired` when its handler started, `Returned` at the end of
    /// the script.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Seen {
        Called(u64),
        Got(u64),
        Fired(u64),
        Returned,
    }

    type Log = Arc<Mutex<Vec<(Seen, SimTime)>>>;

    /// Plays scripts of sends, timers and work, and logs when each call was
    /// made and when it took effect. With `hosted` the script runs the way a
    /// `MultiMachine` group does: in a context hosted inside the mesh's.
    struct Scripted {
        peer: MachineId,
        /// Played when `None` ("go") arrives, i.e. on the delivery thread.
        on_go: Vec<Step>,
        hosted: bool,
        clock: Instant,
        log: Log,
    }

    impl Scripted {
        fn note(&self, seen: Seen, at: SimTime) {
            self.log.lock().push((seen, at));
        }

        fn clock(&self) -> SimTime {
            SimTime::from(self.clock.elapsed())
        }

        fn run(&self, steps: &[Step], ctx: &mut Ctx<'_, Option<u64>>) {
            if self.hosted {
                ctx.hosted(
                    ctx.self_id(),
                    |action| action,
                    |inner| self.play(steps, inner),
                );
            } else {
                self.play(steps, ctx);
            }
            self.note(Seen::Returned, self.clock());
        }

        fn play(&self, steps: &[Step], ctx: &mut Ctx<'_, Option<u64>>) {
            for &step in steps {
                match step {
                    Step::Send(label) => {
                        self.note(Seen::Called(label), self.clock());
                        ctx.send(self.peer, Channel::Signals, Some(label));
                    }
                    Step::Timer(us, tag) => {
                        self.note(Seen::Called(tag), self.clock());
                        ctx.set_timer(SimTime::from_micros(us), tag);
                    }
                    Step::Work(us) => {
                        let t = Instant::now();
                        while t.elapsed() < Duration::from_micros(us) {
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        }
    }

    impl Actor for Scripted {
        type Msg = Option<u64>;
        fn on_message(
            &mut self,
            _: MachineId,
            _: Channel,
            msg: Option<u64>,
            ctx: &mut Ctx<'_, Option<u64>>,
        ) {
            match msg {
                None => self.run(&self.on_go.clone(), ctx),
                Some(label) => self.note(Seen::Got(label), ctx.now()),
            }
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Option<u64>>) {
            self.note(Seen::Fired(tag), ctx.now());
        }
    }

    const LINK_US: u64 = 200;

    /// Machines 0 and 1 over a constant [`LINK_US`] link, each the other's
    /// peer; runs `round` 60 times and hands `judge` each round's log once
    /// every event in `expect` is in it.
    fn scripted_rounds(
        hosted: bool,
        on_go: &[Step],
        expect: &[Seen],
        round: impl Fn(&ThreadedHandle<Scripted>),
        mut judge: impl FnMut(&dyn Fn(Seen) -> SimTime, &[(Seen, SimTime)]),
    ) {
        let log: Log = Arc::default();
        let net = ThreadedNet::new(LatencyModel::Constant(SimTime::from_micros(LINK_US)), 3);
        let [a, _b] = [0, 1].map(|i| {
            let actor = Scripted {
                peer: MachineId::new(1 - i),
                on_go: on_go.to_vec(),
                hosted,
                clock: net.shared.start,
                log: log.clone(),
            };
            net.add_machine(MachineId::new(i), actor)
        });
        for _ in 0..60 {
            round(&a);
            let seen_all = || {
                let log = log.lock();
                expect.iter().all(|e| log.iter().any(|(s, _)| s == e))
            };
            assert!(wait_for(seen_all, 2_000), "hosted={hosted}: round stalled");
            let events = std::mem::take(&mut *log.lock());
            let at = |seen| {
                let found = events.iter().find(|(s, _)| *s == seen);
                found.unwrap_or_else(|| panic!("no {seen:?}")).1
            };
            judge(&at, &events);
        }
    }

    /// The delay of a send runs from the `send` call: an actor that sends
    /// and then works 300 us in the same callback is heard one link delay
    /// after the call, not one link delay after it finished.
    #[test]
    fn a_send_followed_by_work_is_received_one_link_after_the_call() {
        for hosted in [false, true] {
            let mut flights = Vec::new();
            scripted_rounds(
                hosted,
                &[],
                &[Seen::Got(1)],
                |a| {
                    a.with(|s, ctx| s.run(&[Step::Send(1), Step::Work(300)], ctx));
                },
                |at, _| {
                    let flight = at(Seen::Got(1)).saturating_since(at(Seen::Called(1)));
                    assert!(flight.as_micros() >= LINK_US, "early: {flight:?}");
                    flights.push(flight.as_micros());
                },
            );
            let [_, p50, ..] = percentiles_us(flights);
            assert!(
                p50 < LINK_US + 150,
                "hosted={hosted}: median flight {p50} us; the work after the send is on the path"
            );
        }
    }

    /// Two sends 150 us of work apart arrive in that order and that far
    /// apart: each carries its own call's clock reading.
    #[test]
    fn sends_separated_by_work_arrive_in_order_and_as_far_apart() {
        for hosted in [false, true] {
            let mut gaps = Vec::new();
            scripted_rounds(
                hosted,
                &[],
                &[Seen::Got(1), Seen::Got(2)],
                |a| {
                    let script = [Step::Send(1), Step::Work(150), Step::Send(2)];
                    a.with(|s, ctx| s.run(&script, ctx));
                },
                |at, _| {
                    for label in [1, 2] {
                        let flight = at(Seen::Got(label)).saturating_since(at(Seen::Called(label)));
                        assert!(flight.as_micros() >= LINK_US, "early: {flight:?}");
                    }
                    assert!(at(Seen::Got(1)) <= at(Seen::Got(2)), "overtaken");
                    gaps.push(
                        at(Seen::Got(2))
                            .saturating_since(at(Seen::Got(1)))
                            .as_micros(),
                    );
                },
            );
            let [_, p50, ..] = percentiles_us(gaps);
            assert!(
                (100..=250).contains(&p50),
                "hosted={hosted}: median gap {p50} us between sends made 150 us apart"
            );
        }
    }

    /// A timer runs from the `set_timer` call, not from the callback's end:
    /// 500 us armed ahead of 300 us of work fire 500 us after the call. (The
    /// timer outlasts the work because its handler needs the actor, which
    /// the working callback holds.)
    #[test]
    fn a_timer_set_before_work_fires_its_delay_after_the_call() {
        for hosted in [false, true] {
            let mut waits = Vec::new();
            scripted_rounds(
                hosted,
                &[],
                &[Seen::Fired(9)],
                |a| {
                    a.with(|s, ctx| s.run(&[Step::Timer(500, 9), Step::Work(300)], ctx));
                },
                |at, _| {
                    let wait = at(Seen::Fired(9)).saturating_since(at(Seen::Called(9)));
                    assert!(wait.as_micros() >= 500, "early: {wait:?}");
                    waits.push(wait.as_micros());
                },
            );
            let [_, p50, ..] = percentiles_us(waits);
            assert!(
                p50 < 500 + 150,
                "hosted={hosted}: median wait {p50} us for a 500 us timer"
            );
        }
    }

    /// A handler on the delivery thread sends, arms a shorter timer, and
    /// then works past both due times. Both are dispatched once the thread
    /// comes free: after the handler returned, neither before it was due,
    /// and in due order. The order is judged where the recorded readings
    /// decide it: the timer was armed at least the 300 us of work before
    /// `Returned`, so it was due by `Returned` - 200 us, and the message no
    /// earlier than `Called(1)` + 200 us -- the timer first, then, whenever
    /// the handler was not held up for 100 us between the two calls. (That
    /// the wait ends *when* the thread comes free, not a link delay later,
    /// is a lateness: the microbench row `threaded_send_then_work/200us`
    /// reads it.)
    #[test]
    fn work_that_outlasts_the_link_holds_dispatch_back_in_due_order_and_never_early() {
        for hosted in [false, true] {
            let mut judged = 0;
            scripted_rounds(
                hosted,
                &[Step::Send(1), Step::Timer(100, 7), Step::Work(300)],
                &[Seen::Got(1), Seen::Fired(7)],
                |a| {
                    a.with(|_, ctx| ctx.send(MachineId::new(1), Channel::Signals, None));
                },
                |at, events| {
                    let flight = at(Seen::Got(1)).saturating_since(at(Seen::Called(1)));
                    assert!(flight.as_micros() >= LINK_US, "early: {flight:?}");
                    let wait = at(Seen::Fired(7)).saturating_since(at(Seen::Called(7)));
                    assert!(wait.as_micros() >= 100, "early: {wait:?}");
                    let nth = |seen| events.iter().position(|(s, _)| *s == seen);
                    let (returned, fired, got) =
                        (nth(Seen::Returned), nth(Seen::Fired(7)), nth(Seen::Got(1)));
                    assert!(
                        returned < fired && returned < got,
                        "hosted={hosted}: dispatched under the handler: {events:?}"
                    );
                    let timer_due_by =
                        at(Seen::Returned).saturating_since(SimTime::from_micros(200));
                    if timer_due_by < at(Seen::Called(1)) + SimTime::from_micros(LINK_US) {
                        judged += 1;
                        assert!(fired < got, "hosted={hosted}: the timer was due first");
                    }
                },
            );
            assert!(
                judged > 0,
                "hosted={hosted}: no round of 60 ran undisturbed"
            );
        }
    }

    /// A machine id that is removed and added again is a new incarnation:
    /// the old one's timer does not fire on it, and a message sent to the
    /// old one does not reach it. Both are counted dropped.
    #[test]
    fn a_re_added_id_inherits_neither_timers_nor_messages_in_flight() {
        let pongs = Arc::new(AtomicUsize::new(0));
        let net = ThreadedNet::new(LatencyModel::constant_ms(5), 3);
        let a = net.add_machine(MachineId::new(0), pinger(&pongs));
        let old = net.add_machine(MachineId::new(1), pinger(&pongs));
        old.with(|_, ctx| ctx.set_timer(SimTime::from_millis(5), 1));
        a.with(|_, ctx| ctx.send(MachineId::new(1), Channel::Operations, "ping"));
        std::thread::sleep(Duration::from_millis(1));
        net.remove_machine(MachineId::new(1));
        let new = net.add_machine(MachineId::new(1), pinger(&pongs));
        assert!(wait_for(|| net.metrics().dropped == 2, 2_000));
        assert_eq!(new.read(|p| (p.timer_hits, p.pings_seen)), Some((0, 0)));
        assert_eq!(net.metrics().timers_fired, 0);
        // The new holder of the id is reachable and keeps its own timers.
        new.with(|_, ctx| ctx.set_timer(SimTime::from_millis(1), 2));
        a.with(|_, ctx| ctx.send(MachineId::new(1), Channel::Operations, "ping"));
        assert!(wait_for(|| pongs.load(Ordering::SeqCst) == 1, 2_000));
        assert!(wait_for(|| new.read(|p| p.timer_hits) == Some(1), 2_000));
    }

    /// Nobody holds the id when the message is sent, so it is addressed to
    /// no incarnation: whoever holds the id when it is due gets it.
    #[test]
    fn a_message_to_an_id_nobody_holds_yet_reaches_who_holds_it_when_due() {
        let pongs = Arc::new(AtomicUsize::new(0));
        let net = ThreadedNet::new(LatencyModel::constant_ms(5), 3);
        let a = net.add_machine(MachineId::new(0), pinger(&pongs));
        a.with(|_, ctx| ctx.send(MachineId::new(1), Channel::Operations, "ping"));
        let _b = net.add_machine(MachineId::new(1), pinger(&pongs));
        assert!(wait_for(|| pongs.load(Ordering::SeqCst) == 1, 2_000));
    }

    struct Bomb;

    impl Actor for Bomb {
        type Msg = ();
        fn on_message(&mut self, _: MachineId, _: Channel, _: (), _: &mut Ctx<'_, ()>) {
            panic!("handler bug");
        }
    }

    #[test]
    #[should_panic(expected = "handler bug")]
    fn a_handler_panic_on_the_delivery_thread_resurfaces_when_the_mesh_drops() {
        let net = ThreadedNet::new(LatencyModel::constant_ms(1), 3);
        let a = net.add_machine(MachineId::new(0), Bomb);
        let _b = net.add_machine(MachineId::new(1), Bomb);
        a.with(|_, ctx| ctx.send(MachineId::new(1), Channel::Operations, ()));
        let service = net.service.as_ref().expect("joined only in drop");
        assert!(wait_for(|| service.is_finished(), 2_000));
    }

    /// What [`Split`] logs: a message handled, or a deferred half run, by
    /// machine `.1`, at `.2`.
    type SplitLog = Arc<Mutex<Vec<(&'static str, MachineId, SimTime)>>>;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// Machine 0 logs each reply it hears. Any other machine logs the
    /// message it is handed; given "go" it replies to the sender and then
    /// works `work`, inline or as its deferred half; given "late" it first
    /// works `work` and only then defers.
    struct Split {
        log: SplitLog,
        work: Duration,
        deferred: bool,
    }

    impl Actor for Split {
        type Msg = &'static str;
        fn on_message(
            &mut self,
            from: MachineId,
            channel: Channel,
            msg: &'static str,
            ctx: &mut Ctx<'_, &'static str>,
        ) {
            self.log.lock().push((msg, ctx.self_id(), ctx.now()));
            match msg {
                "go" => {
                    ctx.send(from, channel, "reply");
                    if self.deferred {
                        ctx.defer(0);
                    } else {
                        spin(self.work);
                    }
                }
                "late" => {
                    spin(self.work);
                    ctx.defer(0);
                }
                _ => {}
            }
        }
        fn on_timer(&mut self, _: u64, ctx: &mut Ctx<'_, &'static str>) {
            self.log.lock().push(("half", ctx.self_id(), ctx.now()));
            spin(self.work);
        }
    }

    /// Four [`Split`]s over a constant 1 ms link.
    fn split_mesh(work_us: u64, deferred: bool) -> (ThreadedNet<Split>, SplitLog) {
        let log: SplitLog = Arc::default();
        let net = ThreadedNet::new(LatencyModel::constant_ms(1), 3);
        for i in 0..4 {
            let actor = Split {
                log: log.clone(),
                work: Duration::from_micros(work_us),
                deferred,
            };
            net.add_machine(MachineId::new(i), actor);
        }
        (net, log)
    }

    /// The spread between the first and the last reply machine 0 heard to
    /// one broadcast of "go", and the log's kinds in order.
    fn replies_to_one_broadcast(deferred: bool) -> (Duration, Vec<&'static str>) {
        let (net, log) = split_mesh(300, deferred);
        let a = net.handle(MachineId::new(0)).unwrap();
        a.with(|_, ctx| ctx.broadcast(Channel::Signals, "go"));
        let replies = || log.lock().iter().filter(|e| e.0 == "reply").count();
        assert!(wait_for(|| replies() == 3, 2_000));
        let halves = || log.lock().iter().filter(|e| e.0 == "half").count();
        assert!(wait_for(|| halves() == 3 * usize::from(deferred), 2_000));
        let log = log.lock();
        let heard: Vec<SimTime> = log.iter().filter(|e| e.0 == "reply").map(|e| e.2).collect();
        let spread = heard[2].saturating_since(heard[0]);
        (Duration::from(spread), log.iter().map(|e| e.0).collect())
    }

    #[test]
    fn answers_leave_before_any_deferred_half_of_the_same_instant_runs() {
        // One broadcast reaches three machines at one instant. Deferring
        // the work, each replies before any of them works: the replies are
        // heard within the guard of each other, and the three halves run
        // after the three deliveries.
        let (spread, kinds) = replies_to_one_broadcast(true);
        assert!(spread < POLL_GUARD, "replies {spread:?} apart");
        assert_eq!(kinds[..6], ["go", "go", "go", "half", "half", "half"]);
        // Working inline, each reply waits for the work of the machines
        // handed the broadcast before it: 600 us between the first and the
        // last, less what the first reply's delivery may be late by.
        let (spread, _) = replies_to_one_broadcast(false);
        let floor = Duration::from_micros(600) - POLL_GUARD;
        assert!(spread >= floor, "replies {spread:?} apart");
    }

    #[test]
    fn a_deferred_half_runs_ahead_of_what_fell_due_after_its_trigger() {
        // "late" is due 50 us before "go"; its handler works 200 us and only
        // then defers, so by the time it returns "go" is overdue. The half
        // is due when "late" was and still goes first.
        let (net, log) = split_mesh(200, true);
        let a = net.handle(MachineId::new(0)).unwrap();
        a.with(|_, ctx| {
            ctx.send(MachineId::new(1), Channel::Signals, "late");
            spin(Duration::from_micros(50));
            ctx.send(MachineId::new(2), Channel::Signals, "go");
        });
        assert!(wait_for(|| log.lock().len() == 5, 2_000));
        let order: Vec<_> = log.lock().iter().map(|e| (e.0, e.1.index())).collect();
        let want = [
            ("late", 1),
            ("half", 1),
            ("go", 2),
            ("half", 2),
            ("reply", 0),
        ];
        assert_eq!(order, want);
        assert_eq!(net.metrics().timers_fired, 0, "a deferred half is no timer");
    }

    /// Sets the calling thread's timer slack to 1 ns by writing
    /// `/proc/<tid>/timerslack_ns`, the tid read from `/proc/thread-self`
    /// (a link to `<pid>/task/<tid>`). False where that cannot be done.
    fn tighten_timer_slack() -> bool {
        let Ok(link) = std::fs::read_link("/proc/thread-self") else {
            return false;
        };
        let Some(tid) = link.file_name().and_then(|t| t.to_str()) else {
            return false;
        };
        std::fs::write(format!("/proc/{tid}/timerslack_ns"), "1").is_ok()
    }

    /// Prints the table that sizes [`POLL_GUARD`]: how late a wait of 200 us,
    /// 1 ms and 3 ms ends as `thread::sleep`, as `recv_timeout` on an idle
    /// channel (the delivery thread's wait before it polled) at the default
    /// timer slack and, on a thread whose slack is 1 ns, again ("n/a" where
    /// it cannot be set), and as a delivery over a constant link of that
    /// length. Run it with
    /// `cargo test --release -p guesstimate-net lateness_table -- --ignored --nocapture`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn lateness_table() {
        let recv_timeouts = |wait| {
            let (_tx, rx) = unbounded::<()>();
            overshoots_us(wait, 400, |d| {
                let _ = rx.recv_timeout(d);
            })
        };
        let cell = |samples| percentiles_us(samples).map(|p| p.to_string()).join(" / ");
        println!("lateness in us, 400 samples a cell: p10 / p50 / p90 / p99");
        for us in [200, 1_000, 3_000] {
            let wait = Duration::from_micros(us);
            let tight =
                std::thread::spawn(move || tighten_timer_slack().then(|| recv_timeouts(wait)))
                    .join()
                    .expect("the measuring thread");
            let row = [
                cell(overshoots_us(wait, 400, std::thread::sleep)),
                cell(recv_timeouts(wait)),
                tight.map_or_else(|| "n/a".to_owned(), cell),
                cell(
                    echo_flights(SimTime::from_micros(us), 400, || {
                        std::thread::sleep(Duration::from_millis(2))
                    })
                    .iter()
                    .map(|f| f.as_micros() - us)
                    .collect(),
                ),
            ];
            println!(
                "{us:>5} us wait | sleep {} | recv_timeout {} | recv_timeout, 1 ns slack {} | delivery {}",
                row[0], row[1], row[2], row[3]
            );
        }
    }
}

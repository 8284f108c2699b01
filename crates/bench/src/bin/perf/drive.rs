//! Builds a cluster through the public constructors, drives it from one
//! generator thread, waits (with a deadline) for everything to commit
//! everywhere, and checks the outputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use guesstimate_core::MachineId;
use guesstimate_net::{
    LatencyModel, NetMetrics, RecordingTracer, SimTime, ThreadedHandle, ThreadedNet,
};
use guesstimate_runtime::SyncSample;
use guesstimate_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::observe::{ns_since, Observed, Probe, Stamps};
use crate::stats::{lateness_ns, percentile, Span};
use crate::workloads::{Churn, Planned, Spec, Stream, Workload};

/// Every wait polls at this period; nothing spins.
const POLL: Duration = Duration::from_micros(100);
/// A cluster that has not assembled and preloaded by then is wedged.
const SETUP_DEADLINE: Duration = Duration::from_secs(20);
/// Operations not committed everywhere this long after the last issue
/// count as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Closed-loop operations issued per look at the clock.
const BATCH: usize = 64;
/// A run whose open-loop operations left later than this at the 99th
/// percentile is unresolved. The worst single operation is reported but
/// decides nothing: on a shared box one wake-up in a few thousand comes
/// 20-60 ms late (a quarter of all 3 s windows had one), which moves no
/// median; a hundredth of the operations leaving that late does.
const LATE_LIMIT_MS: f64 = 20.0;

/// What to install besides the commit stamps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Instruments {
    /// Record a span per callback and per issue call.
    pub spans: bool,
    /// Install a live [`Telemetry`] handle on every machine.
    pub telemetry: bool,
    /// Install a [`RecordingTracer`] on every machine and on the mesh.
    pub tracer: bool,
}

/// One issue call, split at timestamps taken outside and inside
/// [`ThreadedHandle::with`].
#[derive(Debug, Clone, Copy)]
pub struct IssueCall {
    /// Issuing replica.
    pub replica: u32,
    /// Call start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// Start → closure entered (handle lookup + actor lock).
    pub lock_ns: u32,
    /// Inside the closure (the program's issue path).
    pub inside_ns: u32,
    /// Closure left → call returned (action routing into the mesh).
    pub route_ns: u32,
}

/// Counter deltas over the window, summed over the replicas that stayed
/// in the mesh (and over their sync groups).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Pending operations re-executed.
    pub replays: u64,
    /// Re-executions avoided by commute-aware skipping.
    pub replays_skipped: u64,
    /// Own operations committed.
    pub committed_own: u64,
    /// ... of which through the async path.
    pub committed_async_own: u64,
    /// Highest pending-list depth seen on any replica.
    pub max_pending_depth: u64,
    /// Highest execution count of any single operation.
    pub max_exec_count: u32,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations the generator tried to issue.
    pub attempted: u64,
    /// Issue errors + refusals + commit-time failures + operations not
    /// committed everywhere by the drain deadline.
    pub failed: u64,
    /// How `failed` came about: refused or errored at issue, failed at
    /// commit, never committed everywhere (cross-group ones included).
    pub failed_by: [u64; 3],
    /// Output-check failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Set when the generator ran too late for the latencies to be
    /// trusted; the run is neither failed nor a valid sample.
    pub unresolved: Option<String>,
    /// Cluster start → joined and preloaded everywhere.
    pub setup_s: f64,
    /// First issue → last tracked operation committed everywhere.
    pub window_s: f64,
    /// Tracked operations committed on every stable replica.
    pub commits: u64,
    /// Per operation: start (open loop: due time) → present in `C` on the
    /// last stable replica. Ascending.
    pub lag_ms: Vec<f64>,
    /// Start → present in `C` on the issuer. Ascending.
    pub issuer_lag_ms: Vec<f64>,
    /// Last − first stable replica. Ascending.
    pub skew_ms: Vec<f64>,
    /// Master-observed rounds completed inside the window (pooled over
    /// the group masters).
    pub sync: Vec<SyncSample>,
    /// How late each open-loop operation left. Ascending.
    pub late_ms: Vec<f64>,
    /// Due → completion routine on the origin, cross-group operations.
    pub cross_lag_ms: Vec<f64>,
    /// Cross-group operations resolved on node 0.
    pub cross_resolved: u64,
    /// Fresh machine added → takes part in rounds.
    pub rejoin_ms: Vec<f64>,
    /// Modelled size of the largest join snapshot shipped.
    pub join_info_bytes: u64,
    /// Mesh counters over the window.
    pub net: NetMetrics,
    /// Machine counters over the window.
    pub counters: Counters,
    /// Process CPU time over the window.
    pub cpu_s: f64,
    /// Issue calls (spans on only).
    pub issue_calls: Vec<IssueCall>,
    /// Handler spans that started inside the window (spans on only).
    pub handler_spans: Vec<Span>,
    /// Commit logs per node (sync groups).
    pub logs: usize,
}

/// Polls `done` every [`POLL`] until it holds or `limit` has passed.
fn wait_until(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(POLL);
    }
}

/// Process CPU time (user + system, all threads) in seconds.
fn process_cpu_s() -> f64 {
    // Per-thread scheduler accounting has nanosecond resolution; the
    // process-wide `stat` fields only count 10 ms ticks.
    let mut ns = 0u64;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let text = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            let on_cpu = text
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok());
            ns += on_cpu.unwrap_or(0);
        }
    }
    ns as f64 / 1e9
}

struct Cluster<W: Workload> {
    net: ThreadedNet<Observed<W::Node>>,
    handles: Vec<ThreadedHandle<Observed<W::Node>>>,
    committed: Vec<Arc<AtomicU64>>,
    epoch: Instant,
    instruments: Instruments,
    telemetry: Telemetry,
    tracer: Arc<RecordingTracer>,
}

impl<W: Workload> Cluster<W> {
    fn now_ns(&self) -> u64 {
        ns_since(self.epoch)
    }

    /// Adds fresh node `i` to the mesh, replacing its handle.
    fn add(&mut self, w: &W, i: usize) {
        let mut node = w.node(i as u32);
        if self.instruments.telemetry {
            node.install_telemetry(self.telemetry.clone());
        }
        if self.instruments.tracer {
            node.install_tracer(self.tracer.clone());
        }
        let committed = Arc::new(AtomicU64::new(0));
        let observed = Observed::new(
            node,
            i as u32,
            self.epoch,
            Arc::clone(&committed),
            self.instruments.spans,
        );
        let handle = self.net.add_machine(MachineId::new(i as u32), observed);
        if i < self.handles.len() {
            self.handles[i] = handle;
            self.committed[i] = committed;
        } else {
            self.handles.push(handle);
            self.committed.push(committed);
        }
    }

    fn in_cohort(&self, i: usize) -> bool {
        self.handles[i].read(|o| o.inner().in_cohort()) == Some(true)
    }
}

/// Builds the cluster, waits for every replica to take part in rounds,
/// preloads, and waits for the preload to commit everywhere.
fn set_up<W: Workload>(
    w: &mut W,
    seed: u64,
    instruments: Instruments,
) -> Result<(Cluster<W>, f64), String> {
    let started = Instant::now();
    let spec = w.spec().clone();
    let link = LatencyModel::Constant(SimTime::from(spec.link));
    let mut cluster: Cluster<W> = Cluster {
        net: ThreadedNet::new(link, seed),
        handles: Vec::new(),
        committed: Vec::new(),
        epoch: started,
        instruments,
        telemetry: Telemetry::new(),
        tracer: Arc::new(RecordingTracer::new()),
    };
    if instruments.tracer {
        cluster.net.set_tracer(cluster.tracer.clone());
    }
    for i in 0..spec.replicas as usize {
        cluster.add(w, i);
    }
    let all = 0..spec.replicas as usize;
    if !wait_until(SETUP_DEADLINE, || all.clone().all(|i| cluster.in_cohort(i))) {
        return Err("set-up: the cluster did not assemble".to_owned());
    }
    let preloaded = cluster.handles[0]
        .with(|o, ctx| {
            w.preload(o.inner_mut(), ctx);
            o.note();
            let node = o.inner();
            (0..node.logs())
                .map(|l| node.machine(l).stats().issued)
                .sum::<u64>()
        })
        .ok_or("set-up: the master left the mesh")?;
    let everywhere = || {
        cluster
            .committed
            .iter()
            .all(|c| c.load(Ordering::Acquire) >= preloaded)
    };
    if !wait_until(SETUP_DEADLINE, everywhere) {
        return Err("set-up: the preload did not commit everywhere".to_owned());
    }
    Ok((cluster, started.elapsed().as_secs_f64()))
}

/// Scalar machine counters of one replica (summed over its sync groups)
/// and how many rounds each of its group masters has driven.
fn read_counters<A: Probe>(node: &A) -> (Counters, Vec<usize>) {
    let mut c = Counters::default();
    let mut rounds = Vec::new();
    for l in 0..node.logs() {
        let s = node.machine(l).stats();
        c.replays += s.replays;
        c.replays_skipped += s.replays_skipped;
        c.committed_own += s.committed_own;
        c.committed_async_own += s.committed_async_own;
        c.max_pending_depth = c.max_pending_depth.max(s.max_pending_depth);
        c.max_exec_count = c.max_exec_count.max(s.max_exec_count);
        rounds.push(s.sync_samples.len());
    }
    (c, rounds)
}

/// Everything the generator shares with completion routines.
#[derive(Default)]
struct Shared {
    closed_done: AtomicU64,
    conflicts: AtomicU64,
    cross_lag_ms: Mutex<Vec<f64>>,
}

impl Shared {
    fn cross_done(&self) -> u64 {
        self.cross_lag_ms.lock().expect("no panics under it").len() as u64
    }
}

/// What the generator did during the window.
struct Offered {
    window_start_ns: u64,
    shared: Arc<Shared>,
    /// `issued[log][replica]` = `(seq, start_ns)` of every accepted
    /// operation, in issue order.
    issued: Vec<Vec<Vec<(u64, u64)>>>,
    attempted: u64,
    rejected: u64,
    closed_accepted: u64,
    cross_accepted: u64,
    late_ms: Vec<f64>,
    issue_calls: Vec<IssueCall>,
    rejoin_ms: Vec<f64>,
}

struct Generator<'a, W: Workload> {
    w: &'a mut W,
    cluster: &'a mut Cluster<W>,
    rng: StdRng,
    offered: Offered,
}

impl<W: Workload> Generator<'_, W> {
    /// Issues the next operation of `stream`. Open-loop operations pass
    /// the instant they were due; latency is timed from there.
    fn issue(&mut self, stream: Stream, due_ns: Option<u64>) {
        let Planned { replica, op, log } = self.w.next(stream, &mut self.rng);
        let spans = self.cluster.instruments.spans;
        let epoch = self.cluster.epoch;
        let start_ns = self.cluster.now_ns();
        let timed_from = due_ns.unwrap_or(start_ns);
        if let Some(due) = due_ns {
            let late = lateness_ns(due, start_ns) as f64 / 1e6;
            self.offered.late_ms.push(late);
        }
        let shared = Arc::clone(&self.offered.shared);
        let done: guesstimate_core::CompletionFn = Box::new(move |ok| {
            if !ok {
                shared.conflicts.fetch_add(1, Ordering::Relaxed);
            }
            match stream {
                Stream::Closed => {
                    shared.closed_done.fetch_add(1, Ordering::Release);
                }
                Stream::Open => {}
                Stream::Cross => {
                    let lag = ns_since(epoch).saturating_sub(timed_from) as f64 / 1e6;
                    let mut lags = shared.cross_lag_ms.lock().expect("no panics under it");
                    lags.push(lag);
                }
            }
        });
        self.offered.attempted += 1;
        let outcome = self.cluster.handles[replica].with(|o, ctx| {
            let entered_ns = if spans { ns_since(epoch) } else { 0 };
            // The id the machine is about to hand out: `issued` counts
            // exactly the operation numbers it has used.
            let seq = log.map(|l| o.inner().machine(l).stats().issued);
            let accepted = W::issue(o.inner_mut(), op, done, ctx);
            // An async commit lands in `C` inside the issue call.
            o.note();
            let left_ns = if spans { ns_since(epoch) } else { 0 };
            (seq, accepted, entered_ns, left_ns)
        });
        let Some((seq, Ok(true), entered_ns, left_ns)) = outcome else {
            self.offered.rejected += 1;
            return;
        };
        if spans {
            let returned_ns = self.cluster.now_ns();
            self.offered.issue_calls.push(IssueCall {
                replica: replica as u32,
                start_ns,
                lock_ns: (entered_ns - start_ns) as u32,
                inside_ns: (left_ns - entered_ns) as u32,
                route_ns: (returned_ns - left_ns) as u32,
            });
        }
        match (log, seq) {
            (Some(l), Some(seq)) => {
                self.offered.issued[l][replica].push((seq, timed_from));
                if stream == Stream::Closed {
                    self.offered.closed_accepted += 1;
                }
            }
            _ => self.offered.cross_accepted += 1,
        }
    }
}

/// The open-loop schedule of one stream: operation `k` is due at a
/// uniformly random instant of the `k`-th slot of `1 / rate` seconds. The
/// count per window is exact; the jitter keeps arrivals from locking onto
/// a phase of the round cycle (100 ops/s per replica against a 10 ms
/// cycle did, and the commit lag then depended on the phase a run drew).
struct Schedule {
    slot_ns: f64,
    next: u64,
    jitter: f64,
    rng: StdRng,
}

impl Schedule {
    fn new(rate: Option<f64>, seed: u64) -> Option<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        rate.map(|r| Schedule {
            slot_ns: 1e9 / r,
            next: 0,
            jitter: rng.gen_range(0.0..1.0),
            rng,
        })
    }
    /// Nanoseconds into the window at which the next operation is due.
    fn due_ns(&self) -> u64 {
        ((self.next as f64 + self.jitter) * self.slot_ns) as u64
    }
    fn advance(&mut self) {
        self.next += 1;
        self.jitter = self.rng.gen_range(0.0..1.0);
    }
}

/// Victim bookkeeping for [`Churn`].
struct ChurnState {
    plan: Churn,
    victim: usize,
    up: bool,
    next_removal: Duration,
    back_at: Instant,
    rejoining_since: Option<Instant>,
}

/// Offers `seconds` of the workload's load from this thread: open-loop
/// streams on their schedules, the closed loop topped up to its window,
/// the victim removed and re-added on its plan. Leaves every machine in
/// the mesh.
fn offer_load<W: Workload>(
    w: &mut W,
    cluster: &mut Cluster<W>,
    (stable, logs): (usize, usize),
    seed: u64,
    seconds: f64,
) -> Offered {
    let spec: Spec = w.spec().clone();
    let mut gen = Generator {
        w,
        rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        offered: Offered {
            window_start_ns: cluster.now_ns(),
            shared: Arc::new(Shared::default()),
            issued: vec![vec![Vec::new(); spec.issuers as usize]; logs],
            attempted: 0,
            rejected: 0,
            closed_accepted: 0,
            cross_accepted: 0,
            late_ms: Vec::new(),
            issue_calls: Vec::new(),
            rejoin_ms: Vec::new(),
        },
        cluster,
    };
    let window_start = Instant::now();
    let window_start_ns = gen.offered.window_start_ns;
    let window = Duration::from_secs_f64(seconds);
    let end = window_start + window;
    let mut open = Schedule::new(spec.open_rate, seed ^ 0x6f70_656e);
    let mut cross = Schedule::new(spec.cross_rate, seed ^ 0x6372_6f73);
    let mut churn = spec.churn.map(|plan| ChurnState {
        plan,
        victim: stable,
        up: true,
        next_removal: plan.first,
        back_at: window_start,
        rejoining_since: None,
    });

    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let mut wake = end;

        if let Some(st) = churn.as_mut() {
            if st.up && st.rejoining_since.is_none() && st.plan.fits(st.next_removal, window) {
                let at = window_start + st.next_removal;
                if now >= at {
                    let id = MachineId::new(st.victim as u32);
                    gen.cluster.net.remove_machine(id);
                    st.up = false;
                    st.back_at = now + st.plan.down_for;
                    st.next_removal += st.plan.every;
                } else {
                    wake = wake.min(at);
                }
            }
            if !st.up {
                if now >= st.back_at {
                    gen.cluster.add(gen.w, st.victim);
                    st.up = true;
                    st.rejoining_since = Some(now);
                } else {
                    wake = wake.min(st.back_at);
                }
            }
            if let Some(since) = st.rejoining_since {
                if gen.cluster.in_cohort(st.victim) {
                    let took = since.elapsed().as_secs_f64() * 1e3;
                    gen.offered.rejoin_ms.push(took);
                    st.rejoining_since = None;
                } else {
                    wake = wake.min(now + POLL);
                }
            }
        }

        for (stream, schedule) in [(Stream::Open, &mut open), (Stream::Cross, &mut cross)] {
            let Some(s) = schedule else { continue };
            let elapsed_ns = (now - window_start).as_nanos() as u64;
            while s.due_ns() <= elapsed_ns {
                gen.issue(stream, Some(window_start_ns + s.due_ns()));
                s.advance();
            }
            wake = wake.min(window_start + Duration::from_nanos(s.due_ns()));
        }

        if let Some(limit) = spec.closed_window {
            let done = gen.offered.shared.closed_done.load(Ordering::Acquire);
            let outstanding = (gen.offered.closed_accepted - done) as usize;
            let room = limit.saturating_sub(outstanding).min(BATCH);
            for _ in 0..room {
                gen.issue(Stream::Closed, None);
            }
            // A full window waits for completions; otherwise go round
            // again at once.
            wake = wake.min(now + if room == 0 { POLL } else { Duration::ZERO });
        }

        if let Some(nap) = wake.checked_duration_since(Instant::now()) {
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    }

    if churn.is_some_and(|st| !st.up) {
        gen.cluster.add(gen.w, stable);
    }
    gen.offered
}

/// Waits until every accepted operation is in `C` on every stable replica
/// and every cross-group operation has resolved everywhere.
///
/// Async and serialized operations of one issuer commit out of issue
/// order, so every operation is confirmed, not just each issuer's last:
/// `confirmed[replica][log][issuer]` counts the leading operations of
/// `issued[log][issuer]` already seen on that replica.
fn drain<W: Workload>(cluster: &Cluster<W>, offered: &Offered, stable: usize) -> bool {
    let logs = offered.issued.len();
    let issuers = offered.issued.first().map_or(0, Vec::len);
    let mut confirmed = vec![vec![vec![0usize; issuers]; logs]; stable];
    wait_until(DRAIN_DEADLINE, || {
        let mut all = offered.shared.cross_done() >= offered.cross_accepted;
        for (h, cursors) in cluster.handles[..stable].iter().zip(confirmed.iter_mut()) {
            let caught_up = h.read(|o| {
                let mut caught_up = o.inner().cross_resolved() >= offered.cross_accepted;
                for (l, per_issuer) in offered.issued.iter().enumerate() {
                    for (issuer, ops) in per_issuer.iter().enumerate() {
                        let cursor = &mut cursors[l][issuer];
                        while ops
                            .get(*cursor)
                            .is_some_and(|&(seq, _)| o.is_stamped(l, issuer, seq))
                        {
                            *cursor += 1;
                        }
                        caught_up &= *cursor == ops.len();
                    }
                }
                caught_up
            });
            all &= caught_up == Some(true);
        }
        all
    })
}

/// The output checks: every live replica against replica 0 and against
/// what the generator issued.
fn check_outputs<W: Workload>(w: &W, cluster: &Cluster<W>, errors: &mut Vec<String>) {
    let serialized = w.spec().serialized;
    let mut summaries = Vec::new();
    for (i, h) in cluster.handles.iter().enumerate() {
        let summary = h.read(|o| {
            let node = o.inner();
            w.verify(node)?;
            let sequences: Vec<(usize, u64)> = (0..node.logs())
                .map(|l| {
                    let machine = node.machine(l);
                    // Async commits land in arrival order, so only the
                    // round-ordered subsequence must agree under them.
                    let sequence = if serialized {
                        machine.completed_ops()
                    } else {
                        machine.completed_serialized()
                    };
                    let mut digest = 0xcbf2_9ce4_8422_2325u64;
                    for id in sequence {
                        for part in [u64::from(id.machine().index()), id.seq()] {
                            digest = (digest ^ part).wrapping_mul(0x100_0000_01b3);
                        }
                    }
                    (machine.completed_len(), digest)
                })
                .collect();
            let executions = read_counters(node).0.max_exec_count;
            Ok((node.state_digest(), sequences, executions))
        });
        match summary.unwrap_or_else(|| Err("not in the mesh".to_owned())) {
            Ok(s) => summaries.push((i, s)),
            Err(e) => errors.push(format!("replica {i}: {e}")),
        }
    }
    let Some((_, reference)) = summaries.first() else {
        return;
    };
    for (i, (digest, sequences, executions)) in &summaries {
        if digest != &reference.0 {
            errors.push(format!(
                "replica {i}: committed digest differs from the first replica's"
            ));
        }
        if sequences != &reference.1 {
            errors.push(format!(
                "replica {i}: completed sequence differs from the first replica's"
            ));
        }
        if *executions > 3 {
            errors.push(format!(
                "replica {i}: an operation executed {executions} times (> 3)"
            ));
        }
    }
}

/// Runs the workload once: set-up, `seconds` of load, drain, checks.
pub fn run<W: Workload>(
    w: &mut W,
    seed: u64,
    seconds: f64,
    instruments: Instruments,
) -> Result<Measured, String> {
    let (mut cluster, setup_s) = set_up(w, seed, instruments)?;
    let spec: Spec = w.spec().clone();
    let live = spec.replicas as usize;
    let stable = if spec.churn.is_some() { live - 1 } else { live };

    // Baselines: everything reported is a delta over the window.
    let mut base = Vec::new();
    for h in &cluster.handles[..stable] {
        base.push(h.read(|o| read_counters(o.inner())).ok_or("replica left")?);
    }
    let net_before = cluster.net.metrics();
    let cpu_before = process_cpu_s();

    let logs = cluster.handles[0].read(|o| o.inner().logs());
    let logs = logs.ok_or("the master left the mesh")?;
    let offered = offer_load(w, &mut cluster, (stable, logs), seed, seconds);
    let drained = drain(&cluster, &offered, stable);
    let cpu_s = process_cpu_s() - cpu_before;
    let net_after = cluster.net.metrics();

    let mut m = Measured {
        attempted: offered.attempted,
        setup_s,
        cpu_s,
        logs,
        ..Measured::default()
    };
    if !drained {
        let e = "drain: operations still uncommitted somewhere at the deadline";
        m.errors.push(e.to_owned());
    }
    // A victim still joining must catch up before replicas are compared.
    if stable < live {
        let reference = cluster.committed[0].load(Ordering::Acquire);
        let caught_up = wait_until(DRAIN_DEADLINE, || {
            cluster.in_cohort(stable)
                && cluster.committed[stable].load(Ordering::Acquire) >= reference
        });
        if !caught_up {
            let e = "churn: the victim did not rejoin and catch up";
            m.errors.push(e.to_owned());
        }
    }
    check_outputs(w, &cluster, &mut m.errors);

    // Counters and rounds over the window.
    for (i, h) in cluster.handles[..stable].iter().enumerate() {
        let (before, rounds_before) = &base[i];
        let Some((after, sync)) = h.read(|o| {
            let node = o.inner();
            let sync: Vec<SyncSample> = (0..node.logs())
                .flat_map(|l| {
                    let samples = &node.machine(l).stats().sync_samples;
                    samples[rounds_before[l].min(samples.len())..].to_vec()
                })
                .collect();
            (read_counters(node).0, sync)
        }) else {
            continue;
        };
        let c = &mut m.counters;
        c.replays += after.replays - before.replays;
        c.replays_skipped += after.replays_skipped - before.replays_skipped;
        c.committed_own += after.committed_own - before.committed_own;
        c.committed_async_own += after.committed_async_own - before.committed_async_own;
        // Replica 0's high-water mark is the preload it issued in one go.
        if i > 0 || stable == 1 {
            c.max_pending_depth = c.max_pending_depth.max(after.max_pending_depth);
        }
        c.max_exec_count = c.max_exec_count.max(after.max_exec_count);
        m.sync.extend(sync);
    }
    let removals: u64 = m.sync.iter().map(|s| s.removals).sum();
    if spec.churn.is_some() && (removals == 0 || offered.rejoin_ms.is_empty()) {
        // Without a removal the workload is `steady` under another name.
        m.errors.push(format!(
            "churn: {removals} removals and {} rejoins in a {seconds} s window (one of each needs {} s)",
            offered.rejoin_ms.len(),
            spec.shortest_window().as_secs_f64()
        ));
    }
    for h in &cluster.handles {
        let shipped = h.read(|o| o.join_info_bytes()).unwrap_or(0);
        m.join_info_bytes = m.join_info_bytes.max(shipped);
    }
    m.cross_resolved = cluster.handles[0]
        .read(|o| o.inner().cross_resolved())
        .unwrap_or(0);
    m.net = NetMetrics {
        sent: net_after.sent - net_before.sent,
        delivered: net_after.delivered - net_before.delivered,
        dropped: net_after.dropped - net_before.dropped,
        duplicated: net_after.duplicated - net_before.duplicated,
        timers_fired: net_after.timers_fired - net_before.timers_fired,
        bytes_sent: net_after.bytes_sent - net_before.bytes_sent,
        bytes_delivered: net_after.bytes_delivered - net_before.bytes_delivered,
    };

    // Commit instants: per operation, over the stable replicas.
    let window_start_ns = offered.window_start_ns;
    let mut stamps: Vec<Stamps> = Vec::new();
    for h in &cluster.handles[..stable] {
        let taken = h.with(|o, _| (o.take_stamps(), o.take_spans()));
        let (s, spans) = taken.ok_or("replica left before its stamps were read")?;
        stamps.push(s);
        let in_window = spans.into_iter().filter(|s| s.start_ns >= window_start_ns);
        m.handler_spans.extend(in_window);
    }
    let at = |r: usize, l: usize, issuer: usize, seq: u64| -> u64 {
        let slot = stamps[r].get(l).and_then(|s| s.get(issuer));
        slot.and_then(|s| s.get(seq as usize)).copied().unwrap_or(0)
    };
    let mut uncommitted = 0u64;
    let mut last_commit_ns = window_start_ns;
    for (l, per_replica) in offered.issued.iter().enumerate() {
        for (issuer, ops) in per_replica.iter().enumerate() {
            for &(seq, from_ns) in ops {
                let seen = (0..stable).map(|r| at(r, l, issuer, seq));
                let (first, last) = seen.fold((u64::MAX, 0), |(lo, hi), t| (lo.min(t), hi.max(t)));
                if first == 0 {
                    uncommitted += 1;
                    continue;
                }
                m.commits += 1;
                last_commit_ns = last_commit_ns.max(last);
                m.lag_ms.push(last.saturating_sub(from_ns) as f64 / 1e6);
                m.skew_ms.push((last - first) as f64 / 1e6);
                let own = at(issuer, l, issuer, seq);
                m.issuer_lag_ms
                    .push(own.saturating_sub(from_ns) as f64 / 1e6);
            }
        }
    }
    m.window_s = (last_commit_ns - window_start_ns) as f64 / 1e9;
    m.cross_lag_ms = std::mem::take(
        &mut *offered
            .shared
            .cross_lag_ms
            .lock()
            .expect("no panics under it"),
    );
    m.late_ms = offered.late_ms;
    m.rejoin_ms = offered.rejoin_ms;
    m.issue_calls = offered.issue_calls;
    for v in [
        &mut m.lag_ms,
        &mut m.skew_ms,
        &mut m.issuer_lag_ms,
        &mut m.late_ms,
    ] {
        v.sort_by(f64::total_cmp);
    }

    let cross_unresolved = offered
        .cross_accepted
        .saturating_sub(m.cross_lag_ms.len() as u64);
    let conflicts = offered.shared.conflicts.load(Ordering::Relaxed);
    m.failed_by = [offered.rejected, conflicts, uncommitted + cross_unresolved];
    m.failed = m.failed_by.iter().sum();
    if !m.errors.is_empty() {
        // A convergence or tally mismatch voids every operation.
        m.failed = m.attempted;
    }
    if let Some(p99) = percentile(&m.late_ms, 0.99).filter(|&p99| p99 > LATE_LIMIT_MS) {
        let why = format!(
            "the generator ran {p99:.1} ms late at the 99th percentile (limit {LATE_LIMIT_MS} ms)"
        );
        m.unresolved = Some(why);
    }
    Ok(m)
}

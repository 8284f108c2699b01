//! Experiment drivers regenerating the paper's §7 evaluation.
//!
//! Every experiment runs under virtual time on the deterministic simulated
//! mesh, so identical seeds regenerate identical figures. The latency model
//! defaults to a LAN-like heavy-tailed distribution (the §7 testbed was a
//! LAN and "the dominant component of the time for synchronization is
//! network delay").

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use guesstimate_apps::sudoku::{self, ops::update, Sudoku};
use guesstimate_core::{execute, MachineId, ObjectId, ObjectStore, OpRegistry, ShardPlan};
use guesstimate_net::{
    FaultEvent, FaultPlan, LatencyModel, NetConfig, NetMetrics, PartitionWindow, SimNet, SimTime,
    StallWindow, Tracer,
};
use guesstimate_runtime::{
    run_until_cohort, sim_cluster_instrumented, Flush, Machine, MachineConfig, MachineStats,
    SyncSample,
};
use guesstimate_spec::{verify_suite, CaseSpace, VerificationReport};
use guesstimate_telemetry::Telemetry;
use rand::{Rng, SeedableRng};

use crate::one_copy::{one_copy_cluster, OneCopyMachine};
use crate::workload::{issue_random_move_at, schedule_user, Activity, Boards};

/// Whether simulated users are active during the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityLevel {
    /// No user activity ("absence of user activity", Figure 6).
    Idle,
    /// Users issue Sudoku moves with the given mean think time.
    Active {
        /// Mean think time between moves, per user.
        mean_think: SimTime,
    },
}

/// Configuration of one measured Sudoku session on two shared grids, as in
/// §7.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Number of machines (machine 0 is the master and also a player).
    pub users: u32,
    /// Length of the measured window.
    pub duration: SimTime,
    /// Master's stall timeout (recovery trigger).
    pub stall_timeout: SimTime,
    /// Fault schedule (drops, duplicates, stalls, partitions, crashes), in
    /// *measured-window* coordinates: windows and crash times are shifted
    /// by the session's warm-up offset.
    pub faults: FaultPlan,
    /// User activity.
    pub activity: ActivityLevel,
    /// RNG seed.
    pub seed: u64,
    /// Stage-1 flush mode: the paper's serial turn-taking in
    /// [`SessionConfig::paper_default`]; ablation A1 and `scalability` turn
    /// on the parallel flush the runtime itself defaults to.
    pub flush: Flush,
}

impl SessionConfig {
    /// The paper-like default: active users with a 2 s mean think time, on
    /// the paper's machine configuration and mesh (250 ms sync period, LAN
    /// latency).
    pub fn paper_default(users: u32, seed: u64) -> Self {
        SessionConfig {
            users,
            duration: SimTime::from_secs(120),
            stall_timeout: SimTime::from_secs(3),
            faults: FaultPlan::new(),
            activity: ActivityLevel::Active {
                mean_think: SimTime::from_secs(2),
            },
            seed,
            flush: Flush::Serial,
        }
    }
}

/// The paper's deployment as a machine configuration: the 250 ms sync
/// period of §7 and the serial stage 1 of §4. Every experiment builds on
/// this rather than on `MachineConfig::default()`, whose parallel flush
/// postdates the paper — so the checked-in numbers (the keys of
/// `tests/fingerprint.txt`) describe the paper's protocol and do not move
/// when the runtime's default does.
fn paper_machine_config() -> MachineConfig {
    MachineConfig::default()
        .with_sync_period(SimTime::from_millis(250))
        .with_stall_timeout(SimTime::from_secs(3))
        .with_flush(Flush::Serial)
}

/// The paper's mesh: LAN latency around 30 ms a hop.
fn paper_net(seed: u64) -> NetConfig {
    NetConfig::lan(seed).with_latency(LatencyModel::lan_ms(30))
}

fn sudoku_registry() -> OpRegistry {
    let mut registry = OpRegistry::new();
    sudoku::register(&mut registry);
    registry
}

/// Brings up `users` machines (machine 0 the master) on `netcfg`, every
/// machine reporting to `tracer` and `telemetry`; waits for the cohort, has
/// the master `create` the shared objects and settles 2 s.
fn cluster<T>(
    users: u32,
    registry: OpRegistry,
    mcfg: MachineConfig,
    netcfg: NetConfig,
    tracer: Option<Arc<dyn Tracer>>,
    telemetry: Telemetry,
    create: impl FnOnce(&mut Machine) -> T,
) -> (SimNet<Machine>, T) {
    let mut net = sim_cluster_instrumented(users, registry, mcfg, netcfg, tracer, telemetry);
    assert!(
        run_until_cohort(&mut net, SimTime::from_secs(30)),
        "cohort must assemble before the measured window"
    );
    let objects = create(net.actor_mut(MachineId::new(0)).expect("master"));
    net.run_until(net.now() + SimTime::from_secs(2));
    (net, objects)
}

/// The mean of `samples`; zero when there are none.
fn mean(samples: &[SimTime]) -> SimTime {
    if samples.is_empty() {
        return SimTime::ZERO;
    }
    SimTime::from_micros(samples.iter().map(|t| t.as_micros()).sum::<u64>() / samples.len() as u64)
}

/// True when the listed machines hold one committed state and nothing is
/// pending on any of them.
fn agreed(net: &SimNet<Machine>, ids: &[MachineId]) -> bool {
    let machine = |i: MachineId| net.actor(i).expect("listed");
    let digests: Vec<u64> = ids.iter().map(|&i| machine(i).committed_digest()).collect();
    digests.windows(2).all(|w| w[0] == w[1]) && ids.iter().all(|&i| machine(i).pending_len() == 0)
}

/// What a session produced.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Sync samples whose round started inside the measured window.
    pub sync_samples: Vec<SyncSample>,
    /// Per-machine stats at the end of the run.
    pub per_machine: Vec<MachineStats>,
    /// Total conflicts across machines.
    pub conflicts: u64,
    /// Total operations issued.
    pub issued: u64,
    /// Total own-operation commits.
    pub committed: u64,
    /// Machines restarted by recovery at least once.
    pub machines_restarted: usize,
    /// True if all in-cohort machines ended with identical committed state.
    pub converged: bool,
    /// The per-user event counts scheduled.
    pub events_scheduled: usize,
    /// Total pending replays executed while rebuilding `sg = [P](sc)`.
    pub replays: u64,
    /// Transport counters for the whole run, including the structural
    /// byte accounting (`bytes_sent`/`bytes_delivered`).
    pub net: NetMetrics,
}

impl SessionResult {
    /// Where the master's ticks did not simply start a round, for the
    /// figure summaries: how many it held for a join handshake in flight
    /// ([`MachineStats::join_holds`]) and how long they waited in all; how
    /// many rounds it began while the round before was still in stage 2
    /// ([`MachineStats::rounds_overlapped`]) and how many ticks had to wait
    /// for room ([`MachineStats::ticks_deferred`]). Serial-flush sessions
    /// run one round at a time and read zero for the last two.
    pub fn join_holds_summary(&self) -> String {
        let total = |f: fn(&MachineStats) -> u64| self.per_machine.iter().map(f).sum::<u64>();
        let holds = total(|s| s.join_holds);
        let waited = total(|s| s.join_hold_time.as_micros());
        let (overlapped, deferred) = (total(|s| s.rounds_overlapped), total(|s| s.ticks_deferred));
        format!(
            "{holds} ({:.1} ms waited in all); {overlapped} rounds begun under another, \
             {deferred} ticks deferred",
            waited as f64 / 1e3
        )
    }

    /// Mean sync duration, excluding recovery outliers above `cutoff`
    /// (Figure 6 "ignores the outliers (time > 12 seconds), as including
    /// them would skew the average away from the median").
    pub fn mean_sync_excluding(&self, cutoff: SimTime) -> Option<SimTime> {
        let kept: Vec<SimTime> = self
            .sync_samples
            .iter()
            .map(|s| s.duration)
            .filter(|&d| d <= cutoff)
            .collect();
        (!kept.is_empty()).then(|| mean(&kept))
    }
}

/// The Sudoku app's analysis-derived shard plan, computed once: installed
/// on every session machine so the shard-labeled commit counters — the
/// dedicated Cross-route counter included — are live during figure runs.
fn sudoku_shard_plan() -> Arc<ShardPlan> {
    static PLAN: std::sync::OnceLock<Arc<ShardPlan>> = std::sync::OnceLock::new();
    Arc::clone(PLAN.get_or_init(|| {
        let a = guesstimate_analysis::harness::analyze_sudoku();
        let mut plan = ShardPlan::new();
        plan.types
            .insert(a.report.type_name.clone(), a.derive_shard_plan());
        Arc::new(plan)
    }))
}

/// Runs one measured Sudoku session, every machine reporting to `tracer`
/// and `telemetry`; the telemetry is also fed the driver's transport
/// counters at the end.
///
/// Timeline: cohort assembly (up to 30 s) → board creation, settled until
/// t = 32 s → `duration` of measured activity → 10 s settle (so pending
/// operations commit and the convergence check is meaningful).
///
/// `None` and [`Telemetry::noop`] run the session uninstrumented. Pass a
/// [`guesstimate_net::RecordingTracer`] to post-process the event stream
/// (see [`crate::trace`]), and an enabled handle to snapshot afterwards
/// ([`Telemetry::render_prometheus`] / [`Telemetry::render_json`] /
/// [`Telemetry::render_chrome_trace`]) for the run's metrics and per-op
/// spans; [`crate::artifacts::record_figure`] does both for a figure.
pub fn run_session(
    cfg: &SessionConfig,
    tracer: Option<Arc<dyn Tracer>>,
    telemetry: Telemetry,
) -> SessionResult {
    let mcfg = paper_machine_config()
        .with_stall_timeout(cfg.stall_timeout)
        .with_join_retry(SimTime::from_millis(700))
        .with_flush(cfg.flush)
        // Sudoku's analysis-derived shard plan rides along so the
        // per-shard and Cross-route commit counters are live (the fig5 /
        // fig6 footer rows); routing is note-and-count only, so the
        // committed history is untouched (the telemetry-invisibility
        // invariant pins this).
        .with_shard_plan(sudoku_shard_plan());

    // Session-long fault plan: shift every window and crash into absolute
    // time after the warm-up (measured window starts around t=32 s below).
    let warmup = SimTime::from_secs(32);
    let mut faults = FaultPlan::new()
        .with_drop_prob(cfg.faults.drop_prob())
        .with_dup_prob(cfg.faults.dup_prob());
    for w in cfg.faults.stalls() {
        faults = faults.with_stall(StallWindow::new(
            w.machine,
            w.from + warmup,
            w.until + warmup,
        ));
    }
    for w in cfg.faults.partitions() {
        faults = faults.with_partition(PartitionWindow::new(
            w.group.clone(),
            w.from + warmup,
            w.until + warmup,
        ));
    }
    for &FaultEvent::Crash { machine, at } in cfg.faults.events() {
        faults = faults.with_crash(machine, at + warmup);
    }

    let (mut net, boards) = cluster(
        cfg.users,
        sudoku_registry(),
        mcfg,
        paper_net(cfg.seed).with_faults(faults),
        tracer,
        telemetry.clone(),
        |master| {
            (0..2)
                .map(|_| master.create_instance(sudoku::example_puzzle()))
                .collect()
        },
    );
    net.run_until(warmup);

    let t0 = net.now();
    let t_end = t0 + cfg.duration;
    let mut events_scheduled = 0;
    if let ActivityLevel::Active { mean_think } = cfg.activity {
        let boards = Boards::Fixed(boards);
        for i in 0..cfg.users {
            events_scheduled += schedule_user(
                &mut net,
                MachineId::new(i),
                &boards,
                Activity {
                    mean_think,
                    seed: cfg.seed,
                },
                t0,
                t_end,
            );
        }
    }
    net.run_until(t_end + SimTime::from_secs(10));

    telemetry.record_net(&net.metrics());

    let ids = net.members();
    let per_machine: Vec<MachineStats> = ids
        .iter()
        .filter_map(|&i| net.actor(i).map(|m| m.stats().clone()))
        .collect();
    let sync_samples: Vec<SyncSample> = net
        .actor(MachineId::new(0))
        .expect("master alive")
        .stats()
        .sync_samples
        .iter()
        .filter(|s| s.started_at >= t0 && s.started_at < t_end)
        .copied()
        .collect();
    let in_cohort: Vec<MachineId> = ids
        .iter()
        .copied()
        .filter(|&i| net.actor(i).map(Machine::in_cohort).unwrap_or(false))
        .collect();
    SessionResult {
        conflicts: per_machine.iter().map(|s| s.conflicts).sum(),
        issued: per_machine.iter().map(|s| s.issued).sum(),
        committed: per_machine.iter().map(|s| s.committed_own).sum(),
        machines_restarted: per_machine.iter().filter(|s| s.restarts > 0).count(),
        replays: per_machine.iter().map(|s| s.replays).sum(),
        per_machine,
        sync_samples,
        converged: agreed(&net, &in_cohort),
        events_scheduled,
        net: net.metrics(),
    }
}

// ---------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------

/// One bucket of the Figure 5 histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramBucket {
    /// Inclusive lower bound.
    pub lo: SimTime,
    /// Exclusive upper bound (`SimTime::from_secs(u64::MAX)` for the tail).
    pub hi: SimTime,
    /// Number of synchronizations in the bucket.
    pub count: usize,
}

/// Buckets sync durations with the paper's resolution (100 ms bins up to
/// 1 s, then 1 s bins up to 12 s, then a `>12 s` outlier bucket).
pub fn histogram(samples: &[SyncSample]) -> Vec<HistogramBucket> {
    let mut edges: Vec<u64> = (0..10).map(|i| i * 100_000).collect(); // 0..1s by 100ms
    edges.extend((1..=12).map(|s| s * 1_000_000)); // 1s..12s by 1s
    let mut buckets: Vec<HistogramBucket> = edges
        .windows(2)
        .map(|w| HistogramBucket {
            lo: SimTime::from_micros(w[0]),
            hi: SimTime::from_micros(w[1]),
            count: 0,
        })
        .collect();
    buckets.push(HistogramBucket {
        lo: SimTime::from_secs(12),
        hi: SimTime::from_secs(u64::MAX / 2_000_000),
        count: 0,
    });
    for s in samples {
        let us = s.duration.as_micros();
        let idx = buckets
            .iter()
            .position(|b| us >= b.lo.as_micros() && us < b.hi.as_micros())
            .unwrap_or(buckets.len() - 1);
        buckets[idx].count += 1;
    }
    buckets
}

/// Figure 5: the sync-duration distribution of a long 8-user, 2-grid
/// session with two injected stalls (the paper's two >12 s outliers were
/// "the times when synchronization stalled and the master had to perform a
/// fault recovery"), observed through `tracer` and `telemetry` (see
/// [`run_session`]).
pub fn run_fig5(
    seed: u64,
    duration: SimTime,
    tracer: Option<Arc<dyn Tracer>>,
    telemetry: Telemetry,
) -> SessionResult {
    run_session(&fig5_session(seed, duration), tracer, telemetry)
}

/// The session [`run_fig5`] runs: 8 users on the paper's configuration,
/// with two long stalls a third of `duration` apart.
pub fn fig5_session(seed: u64, duration: SimTime) -> SessionConfig {
    let mut cfg = SessionConfig::paper_default(8, seed);
    cfg.duration = duration;
    // Long stalls on two different machines, far apart; each blocks a round
    // until the master's two-step recovery (resend, then remove + restart)
    // clears it, producing the outlier and the removal.
    cfg.stall_timeout = SimTime::from_secs(6);
    let third = SimTime::from_micros(duration.as_micros() / 3);
    cfg.faults = FaultPlan::new()
        .with_stall(StallWindow::new(
            MachineId::new(3),
            third,
            third + SimTime::from_secs(30),
        ))
        .with_stall(StallWindow::new(
            MachineId::new(6),
            third + third,
            third + third + SimTime::from_secs(30),
        ));
    cfg
}

// ---------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------

/// One row of Figure 6.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Number of users.
    pub users: u32,
    /// Average sync time with user activity (outliers excluded).
    pub active: SimTime,
    /// Average sync time without user activity.
    pub idle: SimTime,
    /// Rounds measured (active run).
    pub rounds: usize,
    /// Pending replays executed in the active run.
    pub replays: u64,
    /// Payload bytes sent in the active run (structural wire-size model).
    pub bytes_sent: u64,
    /// Payload bytes delivered in the active run.
    pub bytes_delivered: u64,
}

/// Figure 6: average synchronization time vs number of users (2–8), with
/// and without user activity. Expect a linear trend (serial stage 1) and
/// little difference between active and idle (network-delay dominated).
///
/// `tracer` and `telemetry` observe the **8-user active** session only —
/// the series' most contended point, and the one whose per-stage breakdown
/// explains the linear trend (serial stage 1 grows with users); see
/// [`run_session`].
pub fn run_fig6(
    seed: u64,
    duration: SimTime,
    tracer: Option<Arc<dyn Tracer>>,
    telemetry: Telemetry,
) -> Vec<Fig6Row> {
    let cutoff = SimTime::from_secs(12);
    (2..=8)
        .map(|users| {
            let mut active_cfg = SessionConfig::paper_default(users, seed + u64::from(users));
            active_cfg.duration = duration;
            let (session_tracer, session_telemetry) = if users == 8 {
                (tracer.clone(), telemetry.clone())
            } else {
                (None, Telemetry::noop())
            };
            let active = run_session(&active_cfg, session_tracer, session_telemetry);
            let mut idle_cfg = active_cfg.clone();
            idle_cfg.activity = ActivityLevel::Idle;
            let idle = run_session(&idle_cfg, None, Telemetry::noop());
            Fig6Row {
                users,
                active: active
                    .mean_sync_excluding(cutoff)
                    .expect("active rounds measured"),
                idle: idle
                    .mean_sync_excluding(cutoff)
                    .expect("idle rounds measured"),
                rounds: active.sync_samples.len(),
                replays: active.replays,
                bytes_sent: active.net.bytes_sent,
                bytes_delivered: active.net.bytes_delivered,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablation A1 and scalability: serial vs parallel stage 1
// ---------------------------------------------------------------------

/// One cohort size of [`run_flush_sweep`].
#[derive(Debug, Clone, Copy)]
pub struct FlushSweepRow {
    /// Number of users.
    pub users: u32,
    /// Mean sync time under the paper's serial stage 1.
    pub serial: SimTime,
    /// Mean sync time under the parallel stage 1.
    pub parallel: SimTime,
    /// Rounds measured under the serial stage 1.
    pub serial_rounds: usize,
}

/// The sweep behind ablation A1 and `scalability`: for each cohort size in
/// `users`, an idle session of `duration` (seed `seed + users`, master stall
/// timeout `stall_timeout`) under the serial flush and again under the
/// parallel one, each mean excluding rounds longer than `cutoff`.
pub fn run_flush_sweep(
    users: &[u32],
    duration: SimTime,
    seed: u64,
    stall_timeout: SimTime,
    cutoff: SimTime,
) -> Vec<FlushSweepRow> {
    users
        .iter()
        .map(|&users| {
            let mut cfg = SessionConfig::paper_default(users, seed + u64::from(users));
            cfg.duration = duration;
            cfg.activity = ActivityLevel::Idle;
            cfg.stall_timeout = stall_timeout;
            let serial = run_session(&cfg, None, Telemetry::noop());
            cfg.flush = Flush::Parallel;
            let parallel = run_session(&cfg, None, Telemetry::noop());
            let mean_sync =
                |r: &SessionResult| r.mean_sync_excluding(cutoff).expect("rounds measured");
            FlushSweepRow {
                users,
                serial: mean_sync(&serial),
                parallel: mean_sync(&parallel),
                serial_rounds: serial.sync_samples.len(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------

/// One row of Figure 7.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Number of active users during the segment.
    pub users: u32,
    /// Synchronizations in the segment (~100, as in the paper).
    pub syncs: u64,
    /// Operations committed during the segment.
    pub ops: u64,
    /// Conflicts observed during the segment.
    pub conflicts: u64,
}

/// Figure 7: conflicts vs number of users. "These measurements were made by
/// adding a new user for every 100 synchronizations performed by the
/// runtime" — we start with 2 users and admit one more after each 100
/// rounds, recording the conflict delta per segment.
///
/// # Panics
///
/// Panics, naming the segment and the syncs it reached, if a segment has
/// not completed its 100 syncs by the hour-long horizon.
pub fn run_fig7(seed: u64, mean_think: SimTime) -> Vec<Fig7Row> {
    let mcfg = paper_machine_config().with_join_retry(SimTime::from_millis(700));
    fig7_on(mcfg, paper_net(seed), seed, mean_think)
}

/// [`run_fig7`] with machines configured by `mcfg` on the mesh `netcfg`.
fn fig7_on(mcfg: MachineConfig, netcfg: NetConfig, seed: u64, mean_think: SimTime) -> Vec<Fig7Row> {
    // Initial grids; fresh ones are added every segment so legal moves
    // never run dry (the paper's volunteers likewise moved on to new grids).
    let (mut net, ()) = cluster(
        2,
        sudoku_registry(),
        mcfg.clone(),
        netcfg,
        None,
        Telemetry::noop(),
        |master| {
            for _ in 0..8 {
                master.create_instance(sudoku::example_puzzle());
            }
        },
    );
    let registry = Arc::new(sudoku_registry());

    let activity = Activity { mean_think, seed };
    // The measured horizon is generous; each segment ends at +100 syncs.
    let horizon = net.now() + SimTime::from_secs(3_600);
    let start = net.now();
    for i in 0..2u32 {
        schedule_user(
            &mut net,
            MachineId::new(i),
            &Boards::Catalog,
            activity,
            start,
            horizon,
        );
    }

    // The master's rounds seen, and own-op commits and conflicts summed over
    // the cluster.
    let counts = |net: &SimNet<Machine>| {
        let syncs = net
            .actor(MachineId::new(0))
            .expect("master")
            .stats()
            .syncs_seen;
        let members = net.members().into_iter().filter_map(|i| net.actor(i));
        members.fold((syncs, 0, 0), |(s, ops, conflicts), m| {
            (
                s,
                ops + m.stats().committed_own,
                conflicts + m.stats().conflicts,
            )
        })
    };

    let mut rows = Vec::new();
    for users in 2..=8 {
        let base = counts(&net);
        // Run until 100 more syncs completed.
        while counts(&net).0 < base.0 + 100 {
            assert!(
                net.now() < horizon,
                "fig7: the {users}-user segment reached {} of its 100 syncs by the horizon",
                counts(&net).0 - base.0
            );
            let t = net.now() + SimTime::from_secs(1);
            net.run_until(t);
        }
        let end = counts(&net);
        rows.push(Fig7Row {
            users,
            syncs: end.0 - base.0,
            ops: end.1 - base.1,
            conflicts: end.2 - base.2,
        });
        if users == 8 {
            break;
        }
        // Fresh grids for the next segment, then admit the next user and
        // give it a workload.
        let master = net.actor_mut(MachineId::new(0)).expect("master");
        for _ in 0..6 {
            master.create_instance(sudoku::example_puzzle());
        }
        let next = MachineId::new(users);
        net.add_machine(
            next,
            Machine::new_member(next, registry.clone(), mcfg.clone()),
        );
        let start = net.now() + SimTime::from_secs(3);
        schedule_user(&mut net, next, &Boards::Catalog, activity, start, horizon);
    }
    rows
}

// ---------------------------------------------------------------------
// Spec table (§6)
// ---------------------------------------------------------------------

/// One row of the specification table: an application and its suite's
/// classified assertions.
#[derive(Debug, Clone)]
pub struct SpecTableRow {
    /// Application (its registered type name).
    pub app: &'static str,
    /// Every assertion generated from the contracts, with its verdict.
    pub report: VerificationReport,
}

impl SpecTableRow {
    /// The row's columns: total, verified, left as runtime checks, refuted.
    pub fn counts(&self) -> [usize; 4] {
        let r = &self.report;
        [r.total(), r.verified(), r.runtime_checks(), r.refuted()]
    }
}

/// The table's TOTAL row: the rows' [`SpecTableRow::counts`], summed.
pub fn spec_table_total(rows: &[SpecTableRow]) -> [usize; 4] {
    rows.iter().fold([0; 4], |sum, r| {
        let c = r.counts();
        [sum[0] + c[0], sum[1] + c[1], sum[2] + c[2], sum[3] + c[3]]
    })
}

/// The Spec#/Boogie table: classify every application's assertion
/// population — each row of `guesstimate_apps::all()`, its suite's argument
/// spaces enumerated over its representative states. The paper reports, for
/// Sudoku alone: "Spec# generated 323 assertions out of which boogie was
/// able to verify 271 as correct while the remaining 52 were translated
/// into runtime checks."
pub fn run_spec_table() -> Vec<SpecTableRow> {
    guesstimate_apps::all()
        .iter()
        .map(|app| {
            let space = CaseSpace::sampled((app.states)(), 100_000);
            SpecTableRow {
                app: app.type_name,
                report: verify_suite(&app.registry(), &(app.spec_suite)(), &space),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablation A2: responsiveness vs one-copy serializability
// ---------------------------------------------------------------------

/// One row of the responsiveness comparison.
#[derive(Debug, Clone, Copy)]
pub struct ResponsivenessRow {
    /// Number of users.
    pub users: u32,
    /// GUESSTIMATE: local visibility latency (always zero — effects are
    /// applied to the guesstimated state within the issuing call).
    pub guess_visibility: SimTime,
    /// GUESSTIMATE: mean issue-to-commit latency.
    pub guess_commit: SimTime,
    /// One-copy: mean submit-to-visibility latency (nothing is visible
    /// before commit).
    pub one_copy_visibility: SimTime,
}

/// Ablation A2: GUESSTIMATE's non-blocking issue vs one-copy
/// serializability, under the same mesh latency and an identical workload
/// of Sudoku moves: every user tries 20 random moves, 200 ms apart.
pub fn run_responsiveness(seed: u64, users_range: &[u32]) -> Vec<ResponsivenessRow> {
    users_range
        .iter()
        .map(|&users| {
            // User `i`'s move `k`: when, after the settle, and its seed.
            let events: Vec<(u32, SimTime, u64)> = (0..users)
                .flat_map(|i| {
                    (0..20u64).map(move |k| {
                        let at = SimTime::from_millis(200 * k + 7 * u64::from(i));
                        (i, at, seed ^ (u64::from(i) << 32) ^ k)
                    })
                })
                .collect();
            let random_move = |seed_k| {
                move |moves: &[Move]| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed_k);
                    (!moves.is_empty()).then(|| moves[rng.gen_range(0..moves.len())])
                }
            };
            let one_copy = one_copy_moves(
                users,
                seed,
                events.iter().map(|&(i, at, s)| (i, at, random_move(s))),
                SimTime::from_secs(30),
            );
            ResponsivenessRow {
                users,
                guess_visibility: SimTime::ZERO,
                guess_commit: guesstimate_latency(users, seed, &events),
                one_copy_visibility: one_copy.visibility,
            }
        })
        .collect()
}

/// GUESSTIMATE's mean issue-to-commit latency over A2's move events.
fn guesstimate_latency(users: u32, seed: u64, events: &[(u32, SimTime, u64)]) -> SimTime {
    let telemetry = Telemetry::new();
    let (mut net, board) = cluster(
        users,
        sudoku_registry(),
        paper_machine_config(),
        paper_net(seed),
        None,
        telemetry.clone(),
        |master| master.create_instance(sudoku::example_puzzle()),
    );
    let t0 = net.now();
    for &(i, at, seed_k) in events {
        net.schedule_call(t0 + at, MachineId::new(i), move |m: &mut Machine, ctx| {
            let _ = issue_random_move_at(m, &[board], seed_k, ctx.now());
        });
    }
    net.run_until(t0 + SimTime::from_secs(30));
    // Only the stamped moves have a lag: the board's creation is untimed.
    let lags: Vec<SimTime> = telemetry
        .spans()
        .iter()
        .filter_map(|s| s.commit_lag())
        .collect();
    mean(&lags)
}

/// A Sudoku move: row, column, value.
type Move = (u8, u8, u8);

/// What a one-copy run left behind.
struct OneCopyRun {
    /// Distinct final replica states.
    distinct_states: usize,
    /// Mean submit-to-visibility latency.
    visibility: SimTime,
    /// Moves whose commit succeeded.
    accepted: u64,
}

/// One-copy serializability on the paper's mesh, the baseline of A2 and
/// A3: `users` machines (machine 0 the sequencer) share one Sudoku board,
/// created and settled 2 s. Each `(user, at, pick)` event submits, `at`
/// after the settle, the move `pick` takes from the user's candidate
/// moves, if any; the mesh then runs `run_for` more.
fn one_copy_moves<P>(
    users: u32,
    seed: u64,
    events: impl IntoIterator<Item = (u32, SimTime, P)>,
    run_for: SimTime,
) -> OneCopyRun
where
    P: FnOnce(&[Move]) -> Option<Move> + Send + 'static,
{
    let mut net = one_copy_cluster(users, sudoku_registry(), paper_net(seed));
    let mut board = None;
    net.call(MachineId::new(0), |m, ctx| {
        board = Some(m.create_instance(sudoku::example_puzzle(), ctx))
    });
    let board = board.expect("created");
    net.run_until(SimTime::from_secs(2));
    let accepted = Arc::new(AtomicU64::new(0));
    let t0 = net.now();
    for (i, at, pick) in events {
        let accepted = Arc::clone(&accepted);
        net.schedule_call(
            t0 + at,
            MachineId::new(i),
            move |m: &mut OneCopyMachine, ctx| {
                let moves = m
                    .read::<Sudoku, _>(board, |s| s.candidate_moves())
                    .unwrap_or_default();
                if let Some((r, c, v)) = pick(&moves) {
                    let count = move |ok| {
                        accepted.fetch_add(u64::from(ok), Ordering::Relaxed);
                    };
                    m.issue(update(board, r, c, v), Some(Box::new(count)), ctx);
                }
            },
        );
    }
    net.run_until(t0 + run_for);
    let machines: Vec<&OneCopyMachine> = (0..users)
        .map(|i| net.actor(MachineId::new(i)).expect("machine"))
        .collect();
    let lats: Vec<SimTime> = machines
        .iter()
        .flat_map(|m| m.stats().latencies.clone())
        .collect();
    OneCopyRun {
        distinct_states: machines
            .iter()
            .map(|m| m.digest())
            .collect::<BTreeSet<_>>()
            .len(),
        visibility: mean(&lats),
        accepted: accepted.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// Consistency spectrum (§1): replicated execution vs GUESSTIMATE vs one-copy
// ---------------------------------------------------------------------

/// One row of the consistency-spectrum comparison.
#[derive(Debug, Clone)]
pub struct SpectrumRow {
    /// Model name.
    pub model: &'static str,
    /// Distinct committed replica states at the end (1 = consistent).
    pub distinct_states: usize,
    /// Time until an issued operation is visible to its own issuer.
    pub visibility: SimTime,
    /// Workload moves accepted across the cluster: at issue in the first
    /// two models, at commit under one-copy serializability (which has no
    /// issue-time check).
    pub ops_accepted: u64,
}

/// §1's three points on the consistency–performance spectrum, under one
/// identical Sudoku workload: unsynchronized replicated execution (fast,
/// divergent), GUESSTIMATE (fast *and* eventually agreed), and one-copy
/// serializability (agreed, but blocking).
pub fn run_consistency_spectrum(seed: u64, users: u32) -> Vec<SpectrumRow> {
    let mut rows = Vec::new();

    // A fixed move schedule: user `i`'s event `k` fires `100k + 11i` ms
    // after the settle and takes candidate move `(k + 3i) mod 7` of the
    // issuer's own replica, in every model.
    let events: Vec<(u32, SimTime, usize)> = (0..users)
        .flat_map(|i| {
            (0..15u64).map(move |k| {
                let at = SimTime::from_millis(100 * k + 11 * u64::from(i));
                (i, at, ((k + 3 * u64::from(i)) % 7) as usize)
            })
        })
        .collect();

    // 1. Replicated execution: one store per user, starting from a common
    // board, each applying its own user's moves at once and never hearing
    // of anyone else's.
    {
        let registry = sudoku_registry();
        let shared = ObjectId::new(MachineId::new(9), 0);
        let mut stores: Vec<ObjectStore> = (0..users)
            .map(|_| {
                let mut store = ObjectStore::new();
                store.insert(shared, Box::new(sudoku::example_puzzle()));
                store
            })
            .collect();
        let mut accepted = 0u64;
        for &(i, _, idx) in &events {
            let store = &mut stores[i as usize];
            let moves = store
                .get_as::<Sudoku>(shared)
                .map(Sudoku::candidate_moves)
                .unwrap_or_default();
            if let Some(&(r, c, v)) = moves.get(idx) {
                let outcome = execute(&update(shared, r, c, v), store, &registry);
                accepted += u64::from(outcome.is_ok_and(|o| o.is_success()));
            }
        }
        rows.push(SpectrumRow {
            model: "replicated-execution",
            distinct_states: stores
                .iter()
                .map(ObjectStore::digest)
                .collect::<BTreeSet<_>>()
                .len(),
            visibility: SimTime::ZERO,
            ops_accepted: accepted,
        });
    }

    // 2. GUESSTIMATE.
    {
        let (mut net, board) = cluster(
            users,
            sudoku_registry(),
            paper_machine_config(),
            paper_net(seed),
            None,
            Telemetry::noop(),
            |master| master.create_instance(sudoku::example_puzzle()),
        );
        let accepted = Arc::new(AtomicU64::new(0));
        let t0 = net.now();
        for &(i, at, idx) in &events {
            let accepted = Arc::clone(&accepted);
            net.schedule_call(t0 + at, MachineId::new(i), move |m: &mut Machine, _| {
                if let Some(moves) = m.read::<Sudoku, _>(board, |s| s.candidate_moves()) {
                    if let Some(&(r, c, v)) = moves.get(idx) {
                        let ok = m.issue(update(board, r, c, v)) == Ok(true);
                        accepted.fetch_add(u64::from(ok), Ordering::Relaxed);
                    }
                }
            });
        }
        net.run_until(t0 + SimTime::from_secs(15));
        let machines: Vec<&Machine> = (0..users)
            .map(|i| net.actor(MachineId::new(i)).expect("machine"))
            .collect();
        rows.push(SpectrumRow {
            model: "guesstimate",
            distinct_states: machines
                .iter()
                .map(|m| m.committed_digest())
                .collect::<BTreeSet<_>>()
                .len(),
            visibility: SimTime::ZERO,
            ops_accepted: accepted.load(Ordering::Relaxed),
        });
    }

    // 3. One-copy serializability.
    let one_copy = one_copy_moves(
        users,
        seed,
        events
            .iter()
            .map(|&(i, at, idx)| (i, at, move |moves: &[Move]| moves.get(idx).copied())),
        SimTime::from_secs(15),
    );
    rows.push(SpectrumRow {
        model: "one-copy",
        distinct_states: one_copy.distinct_states,
        visibility: one_copy.visibility,
        ops_accepted: one_copy.accepted,
    });
    rows
}

// ---------------------------------------------------------------------
// Hybrid commit path: commit lag, serialized rounds vs async one-hop
// ---------------------------------------------------------------------

/// One row of the hybrid commit-lag comparison.
#[derive(Debug, Clone)]
pub struct HybridLagRow {
    /// Application under load (`message_board` or `microblog`).
    pub app: &'static str,
    /// Commit path: `serialized` (rounds only) or `hybrid` (`async_commit`).
    pub mode: &'static str,
    /// Workload operations committed inside the measured window.
    pub ops_committed: u64,
    /// Of those, commits through the async path (0 in serialized mode).
    pub ops_async: u64,
    /// Mean issue-to-commit lag over the measured window.
    pub mean_commit_lag: SimTime,
    /// All machines ended on the same committed state with nothing pending.
    pub converged: bool,
}

/// The commute matrix a deployment would load from the `analyze --json`
/// archive, hand-mirrored for the two blind-counter apps (the bench crate
/// does not run the validator; drift fails loudly because a missing pair
/// de-classifies the method and the lag collapse disappears).
fn blind_counter_matrix(app: &'static str) -> guesstimate_core::CommuteMatrix {
    let mut m = guesstimate_core::CommuteMatrix::new();
    match app {
        "message_board" => {
            for other in ["like", "post", "create_topic"] {
                m.insert("MessageBoard", "like", other);
            }
        }
        "microblog" => {
            for other in ["heart", "register", "post", "follow", "unfollow"] {
                m.insert("MicroBlog", "heart", other);
            }
        }
        other => unreachable!("unknown app {other}"),
    }
    m
}

/// Runs one all-commuting blind-counter session and measures commit lag.
///
/// Every user spams the app's universal-commuter op (`like` / `heart`)
/// through [`Machine::issue_hybrid`]; with `async_commit` off that is the
/// paper's serialized round path (lag ≈ sync period), with it on the op
/// commits at issue and broadcasts in one hop (lag ≈ 0). Every machine
/// reports to `tracer` and `telemetry`; the lag is read from the
/// telemetry's op spans, so pass an enabled handle ([`Telemetry::new`]).
pub fn run_hybrid_session(
    app: &'static str,
    async_on: bool,
    seed: u64,
    users: u32,
    duration: SimTime,
    tracer: Option<Arc<dyn Tracer>>,
    telemetry: Telemetry,
) -> HybridLagRow {
    use guesstimate_apps::{message_board, microblog};

    let mut registry = OpRegistry::new();
    match app {
        "message_board" => message_board::register(&mut registry),
        "microblog" => microblog::register(&mut registry),
        other => unreachable!("unknown app {other}"),
    }
    let mcfg = paper_machine_config()
        .with_commute_matrix(blind_counter_matrix(app))
        .with_async_commit(async_on);
    // The shared object must *commit* everywhere before its blind counter
    // is async-eligible (guess-only objects always serialize).
    let (mut net, board) = cluster(
        users,
        registry,
        mcfg,
        paper_net(seed),
        tracer,
        telemetry.clone(),
        |master| match app {
            "message_board" => {
                let obj = master.create_instance(message_board::MessageBoard::new());
                assert!(master
                    .issue(message_board::ops::create_topic(obj, "general"))
                    .expect("known object"));
                obj
            }
            "microblog" => master.create_instance(microblog::MicroBlog::new()),
            other => unreachable!("unknown app {other}"),
        },
    );

    let t0 = net.now();
    let t_end = t0 + duration;
    let step = SimTime::from_millis(400);
    for i in 0..users {
        let mut at = t0 + SimTime::from_millis(37 * u64::from(i));
        while at < t_end {
            net.schedule_call(at, MachineId::new(i), move |m: &mut Machine, ctx| {
                let op = match app {
                    "message_board" => message_board::ops::like(board, "general"),
                    _ => microblog::ops::heart(board, "ann"),
                };
                let _ = m.issue_hybrid(op, None, ctx);
            });
            at += step;
        }
    }
    net.run_until(t_end + SimTime::from_secs(10));

    // Lag over the workload window only: the prelude's create/topic ops
    // are round-committed in both modes and would dilute the comparison.
    let lags: Vec<SimTime> = telemetry
        .spans()
        .iter()
        .filter(|s| s.issued_at.is_some_and(|t| t >= t0))
        .filter_map(|s| s.commit_lag())
        .collect();
    HybridLagRow {
        app,
        mode: if async_on { "hybrid" } else { "serialized" },
        ops_committed: lags.len() as u64,
        ops_async: telemetry.ops_committed_async(),
        mean_commit_lag: mean(&lags),
        converged: agreed(&net, &net.members()),
    }
}

/// The hybrid-path headline: for an all-commuting workload, commit lag
/// collapses from round-period scale to ~one hop. Four rows — each
/// blind-counter app under the serialized baseline and the hybrid path,
/// same seed and schedule.
pub fn run_hybrid_lag(seed: u64, users: u32, duration: SimTime) -> Vec<HybridLagRow> {
    let mut rows = Vec::new();
    for app in ["message_board", "microblog"] {
        for async_on in [false, true] {
            rows.push(run_hybrid_session(
                app,
                async_on,
                seed,
                users,
                duration,
                None,
                Telemetry::new(),
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_session_runs_and_converges() {
        let mut cfg = SessionConfig::paper_default(3, 5);
        cfg.duration = SimTime::from_secs(20);
        cfg.activity = ActivityLevel::Active {
            mean_think: SimTime::from_millis(800),
        };
        let r = run_session(&cfg, None, Telemetry::noop());
        assert!(r.converged, "session converged");
        assert!(r.issued > 10);
        assert!(r.committed > 10);
        assert!(!r.sync_samples.is_empty());
        assert!(r.events_scheduled > 0);
    }

    #[test]
    fn idle_session_has_rounds_but_no_ops() {
        let mut cfg = SessionConfig::paper_default(2, 5);
        cfg.duration = SimTime::from_secs(15);
        cfg.activity = ActivityLevel::Idle;
        let r = run_session(&cfg, None, Telemetry::noop());
        assert!(r.sync_samples.len() > 20);
        assert_eq!(r.events_scheduled, 0);
        // Only the board creations were committed.
        assert_eq!(r.committed, 2);
    }

    #[test]
    fn session_keeps_configured_partitions_and_crashes() {
        let session = |faults: FaultPlan| {
            let mut cfg = SessionConfig::paper_default(3, 5);
            cfg.duration = SimTime::from_secs(20);
            cfg.activity = ActivityLevel::Idle;
            cfg.faults = faults;
            run_session(&cfg, None, Telemetry::noop())
        };
        let cut_off = vec![MachineId::new(2)];
        let (from, until) = (SimTime::from_secs(5), SimTime::from_secs(15));
        let r =
            session(FaultPlan::new().with_partition(PartitionWindow::new(cut_off, from, until)));
        assert!(r.net.dropped > 0, "the partition drops messages");
        assert!(
            r.sync_samples.iter().any(SyncSample::recovered),
            "the master resends to or removes the partitioned machine"
        );
        let r = session(FaultPlan::new().with_crash(MachineId::new(2), from));
        assert_eq!(r.per_machine.len(), 2, "machine 2 crashed");
    }

    #[test]
    #[should_panic(expected = "the 2-user segment reached")]
    fn fig7_fails_at_the_horizon_when_rounds_stop() {
        // The master stalls from t = 4 s, just after the cohort forms, to
        // past the horizon; a stall timeout longer than that keeps it from
        // removing the member and carrying on alone, so no round completes.
        let stall = StallWindow::new(
            MachineId::new(0),
            SimTime::from_secs(4),
            SimTime::from_secs(10_000),
        );
        fig7_on(
            paper_machine_config().with_stall_timeout(SimTime::from_secs(10_000)),
            paper_net(11).with_faults(FaultPlan::new().with_stall(stall)),
            11,
            SimTime::from_secs(60),
        );
    }

    #[test]
    fn histogram_buckets_cover_everything() {
        let mk = |ms: u64| SyncSample {
            round: 0,
            started_at: SimTime::ZERO,
            duration: SimTime::from_millis(ms),
            flush_duration: SimTime::from_millis(ms),
            apply_duration: SimTime::ZERO,
            completion_duration: SimTime::ZERO,
            participants: 2,
            ops_committed: 0,
            ops_flushed: 0,
            resends: 0,
            removals: 0,
        };
        let samples = vec![mk(50), mk(150), mk(950), mk(1500), mk(13_000)];
        let h = histogram(&samples);
        let total: usize = h.iter().map(|b| b.count).sum();
        assert_eq!(total, samples.len());
        assert_eq!(h.last().unwrap().count, 1, ">12s outlier counted");
        assert_eq!(h[0].count, 1, "50ms in first bucket");
    }

    #[test]
    fn mean_excluding_filters_outliers() {
        let mk = |ms: u64| SyncSample {
            round: 0,
            started_at: SimTime::ZERO,
            duration: SimTime::from_millis(ms),
            flush_duration: SimTime::from_millis(ms),
            apply_duration: SimTime::ZERO,
            completion_duration: SimTime::ZERO,
            participants: 2,
            ops_committed: 0,
            ops_flushed: 0,
            resends: 0,
            removals: 0,
        };
        let r = SessionResult {
            sync_samples: vec![mk(100), mk(300), mk(20_000)],
            per_machine: vec![],
            conflicts: 0,
            issued: 0,
            committed: 0,
            machines_restarted: 0,
            converged: true,
            events_scheduled: 0,
            replays: 0,
            net: NetMetrics::default(),
        };
        assert_eq!(
            r.mean_sync_excluding(SimTime::from_secs(12)),
            Some(SimTime::from_millis(200))
        );
    }

    #[test]
    fn hybrid_lag_collapses_for_blind_counters() {
        let rows = run_hybrid_lag(7, 3, SimTime::from_secs(10));
        assert_eq!(rows.len(), 4);
        for pair in rows.chunks(2) {
            let (ser, hy) = (&pair[0], &pair[1]);
            assert_eq!(ser.mode, "serialized");
            assert_eq!(hy.mode, "hybrid");
            assert!(ser.converged, "{}: serialized converged", ser.app);
            assert!(hy.converged, "{}: hybrid converged", hy.app);
            assert!(ser.ops_committed > 0 && hy.ops_committed > 0);
            assert_eq!(ser.ops_async, 0, "{}: no async path off", ser.app);
            assert!(hy.ops_async > 0, "{}: async path must engage", hy.app);
            let ratio = ser.mean_commit_lag.as_micros() as f64
                / hy.mean_commit_lag.as_micros().max(1) as f64;
            assert!(
                ratio >= 5.0,
                "{}: serialized/hybrid lag ratio {ratio:.1} < 5",
                ser.app
            );
        }
    }
}

//! Criterion microbenchmarks for the mechanisms the paper's design leans on:
//!
//! * `issue` — executing an operation against the guesstimated store (the
//!   cost of the non-blocking fast path).
//! * `atomic_overhead` — the per-object copy-on-write that gives `Atomic`
//!   its all-or-nothing semantics (§4), vs the same ops un-grouped.
//! * `store_copy` — the committed → guesstimated whole-store copy performed
//!   at the end of every synchronization (§9 lists large shared state as a
//!   limitation precisely because of this copy).
//! * `snapshot_digest` — canonical snapshot + digest of a Sudoku board
//!   (convergence checking).
//! * `sim_round` — one full synchronization round of a simulated 4-machine
//!   cluster (protocol + virtual network bookkeeping): nearly idle — on the
//!   plain registry and on the checked one — and with 256 pending ops to
//!   consolidate.
//! * `flush` — one member's stage-1 flush of 256 pending ops: the handler
//!   that takes `BeginSync`, alone.
//! * `threaded_link_round_trip` — a ping and its echo over the real-thread
//!   mesh with a constant link delay: twice the link when the delivery
//!   thread wakes on time, and its wake-up lateness twice over when not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use guesstimate_apps::message_board::{self, MessageBoard};
use guesstimate_apps::sudoku::{self, Sudoku};
use guesstimate_core::{
    args, execute, GState, MachineId, ObjectId, ObjectStore, OpRegistry, SharedOp,
};
use guesstimate_net::{Actor, Channel, Ctx, LatencyModel, NetConfig, SimNet, SimTime, ThreadedNet};
use guesstimate_runtime::{run_until_cohort, sim_cluster, Machine, MachineConfig, Msg};
use guesstimate_spec::{check_suite, ConformanceLog};

fn board_id(i: u64) -> ObjectId {
    ObjectId::new(MachineId::new(0), i)
}

fn sudoku_registry() -> OpRegistry {
    let mut r = OpRegistry::new();
    sudoku::register(&mut r);
    r
}

fn bench_issue(c: &mut Criterion) {
    let registry = sudoku_registry();
    c.bench_function("issue/sudoku_update_on_guess", |b| {
        b.iter_batched(
            || {
                let mut store = ObjectStore::new();
                store.insert(board_id(0), Box::new(sudoku::example_puzzle()));
                store
            },
            |mut store| {
                execute(
                    &sudoku::ops::update(board_id(0), 1, 3, 4),
                    &mut store,
                    &registry,
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_atomic_overhead(c: &mut Criterion) {
    let registry = sudoku_registry();
    let plain: Vec<SharedOp> = [(1u8, 3u8, 4u8), (1, 4, 6), (3, 1, 1), (2, 2, 2)]
        .iter()
        .map(|&(r, cc, v)| sudoku::ops::update(board_id(0), r, cc, v))
        .collect();
    let atomic = SharedOp::atomic(plain.clone());
    let mk_store = || {
        let mut store = ObjectStore::new();
        store.insert(board_id(0), Box::new(sudoku::example_puzzle()));
        store
    };
    let mut g = c.benchmark_group("atomic_overhead");
    g.bench_function("plain_4_updates", |b| {
        b.iter_batched(
            mk_store,
            |mut store| {
                for op in &plain {
                    execute(op, &mut store, &registry).unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("atomic_4_updates_cow", |b| {
        b.iter_batched(
            mk_store,
            |mut store| execute(&atomic, &mut store, &registry).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_store_copy(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_copy");
    for n in [1usize, 8, 64] {
        let mut src = ObjectStore::new();
        for i in 0..n {
            src.insert(board_id(i as u64), Box::new(sudoku::example_puzzle()));
        }
        let mut dst = ObjectStore::new();
        dst.copy_from(&src);
        g.bench_function(format!("sc_to_sg_{n}_boards"), |b| {
            b.iter(|| dst.copy_from(&src))
        });
    }
    // What a round pays on a big store: 256 boards held, one touched by a
    // commit and one by a pending guess, then the delta resync.
    let mut sc = ObjectStore::new();
    for i in 0..256 {
        sc.insert(board_id(i), Box::new(sudoku::example_puzzle()));
    }
    let mut sg = ObjectStore::new();
    sg.sync_from(&mut sc);
    g.bench_function("sync_256_boards_2_dirty", |b| {
        b.iter(|| {
            sc.get_mut(board_id(0));
            sg.get_mut(board_id(1));
            sg.sync_from(&mut sc)
        })
    });
    g.finish();
}

fn bench_snapshot_digest(c: &mut Criterion) {
    let board = sudoku::example_puzzle();
    c.bench_function("snapshot_digest/sudoku", |b| {
        b.iter(|| guesstimate_core::value_digest(&GState::snapshot(&board)))
    });
    c.bench_function("candidate_moves/sudoku", |b| {
        b.iter(|| board.candidate_moves().len())
    });
}

fn sim_round_row(c: &mut Criterion, name: &str, registry: fn() -> OpRegistry) {
    c.bench_function(name, |b| {
        b.iter_batched(
            || {
                let cfg = MachineConfig::default()
                    .with_sync_period(SimTime::from_millis(50))
                    .with_stall_timeout(SimTime::from_secs(2));
                let netcfg = NetConfig::lan(7).with_latency(LatencyModel::constant_ms(5));
                let mut net = sim_cluster(4, registry(), cfg, netcfg);
                assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));
                let board = net
                    .actor_mut(MachineId::new(0))
                    .unwrap()
                    .create_instance(sudoku::example_puzzle());
                let settle = net.now() + SimTime::from_secs(2);
                net.run_until(settle);
                for i in 0..4u32 {
                    let m = net.actor_mut(MachineId::new(i)).unwrap();
                    let mv = m
                        .read::<Sudoku, _>(board, |s| s.candidate_moves()[i as usize * 7])
                        .unwrap();
                    let _ = m.issue(SharedOp::primitive(
                        board,
                        "update",
                        args![i64::from(mv.0), i64::from(mv.1), i64::from(mv.2)],
                    ));
                }
                net
            },
            |mut net| {
                let t = net.now() + SimTime::from_millis(200);
                net.run_until(t);
                net.actor(MachineId::new(0)).unwrap().completed_len()
            },
            BatchSize::SmallInput,
        )
    });
}

/// The nearly idle round, on the plain registry and on the checked one:
/// the second row is what running Sudoku's whole suite (114 assertions an
/// `update`) at issue, replay and commit costs.
fn bench_sim_round(c: &mut Criterion) {
    sim_round_row(c, "sim_round/4_machines_one_sync", sudoku_registry);
    sim_round_row(c, "sim_round/4_machines_checked_registry", || {
        let mut r = sudoku_registry();
        check_suite(&mut r, &sudoku::spec_suite(), &ConformanceLog::new());
        r
    });
}

/// A settled 4-machine cluster on constant 5 ms links, with one message
/// board the master created committed everywhere.
fn board_cluster() -> (SimNet<Machine>, ObjectId) {
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(50))
        .with_stall_timeout(SimTime::from_secs(2));
    let netcfg = NetConfig::lan(7).with_latency(LatencyModel::constant_ms(5));
    let mut registry = OpRegistry::new();
    message_board::register(&mut registry);
    let mut net = sim_cluster(4, registry, cfg, netcfg);
    assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(MessageBoard::new());
    let settle = net.now() + SimTime::from_secs(2);
    net.run_until(settle);
    (net, board)
}

/// A round that carries real load: 64 `like` ops pending on each of 4
/// machines (own key per machine), all flushed, consolidated and committed
/// by the next synchronization, each machine then rebuilding `sg` (copy +
/// replay).
fn bench_sim_round_loaded(c: &mut Criterion) {
    c.bench_function("sim_round/4_machines_256_pending_ops", |b| {
        b.iter_batched(
            || {
                let (mut net, board) = board_cluster();
                for i in 0..4u32 {
                    let m = net.actor_mut(MachineId::new(i)).unwrap();
                    for _ in 0..64 {
                        let like = message_board::ops::like(board, &format!("post-{i}"));
                        assert!(m.issue(like).unwrap());
                    }
                }
                net
            },
            |mut net| {
                let t = net.now() + SimTime::from_millis(200);
                net.run_until(t);
                let committed = net.actor(MachineId::new(0)).unwrap().completed_len();
                assert_eq!(committed, 1 + 256);
                committed
            },
            BatchSize::SmallInput,
        )
    });
}

/// One member taking `BeginSync` with 256 `like` ops pending: the flush
/// handler alone -- cutting the batch from `P`, broadcasting it and
/// sending `FlushDone`, the sends routed by the `SimNet` -- delivered
/// between two rounds of a settled 4-machine cluster.
fn bench_flush(c: &mut Criterion) {
    let (master, member) = (MachineId::new(0), MachineId::new(1));
    c.bench_function("flush/member_256_pending", |b| {
        // The clusters outlive the timed call: dropping one is no part of
        // a flush.
        let mut kept = Vec::new();
        b.iter_batched(
            || {
                let (mut net, board) = board_cluster();
                // Stop as the member takes a round's `BeginSync`, and let
                // that round finish well before the next tick's arrives.
                let held = net.actor(member).unwrap().active_round();
                let round = loop {
                    net.step();
                    let now = net.actor(member).unwrap().active_round();
                    if let Some(r) = now.filter(|_| now != held) {
                        break r;
                    }
                };
                let quiet = net.now() + SimTime::from_millis(25);
                net.run_until(quiet);
                let m = net.actor_mut(member).unwrap();
                for _ in 0..256 {
                    assert!(m.issue(message_board::ops::like(board, "post-1")).unwrap());
                }
                let order = net.actor(master).unwrap().members();
                let round = round + 1;
                (net, round, Msg::BeginSync { round, order })
            },
            |(mut net, round, begin_sync)| {
                net.call(member, |m, ctx| {
                    m.on_message(master, Channel::Signals, begin_sync, ctx)
                });
                assert_eq!(net.actor(member).unwrap().flushed_round(), Some(round));
                kept.push(net);
            },
            BatchSize::SmallInput,
        )
    });
}

/// Machine 1 echoes, then busy-works for `work`; machine 0 counts the echoes
/// that came back.
struct Relay {
    echoes: Arc<AtomicU64>,
    work: Duration,
}

impl Actor for Relay {
    type Msg = ();
    fn on_message(&mut self, from: MachineId, channel: Channel, _: (), ctx: &mut Ctx<'_, ()>) {
        if ctx.self_id() == MachineId::new(0) {
            self.echoes.fetch_add(1, Ordering::Release);
        } else {
            ctx.send(from, channel, ());
            let t = Instant::now();
            while t.elapsed() < self.work {
                std::hint::spin_loop();
            }
        }
    }
}

/// One ping-pong over a constant link per iteration. `link_round_trip`
/// reads 2 x link when deliveries are on time; `send_then_work`, whose
/// replier spins 100 us *after* its send, reads the same 2 x link when a
/// send leaves at the call and 2 x link + 100 us when it leaves at the
/// handler's return.
fn bench_threaded_link_round_trip(c: &mut Criterion) {
    for (group, work_us, links) in [
        (
            "threaded_link_round_trip",
            0,
            &[("200us", 200), ("1ms", 1_000)][..],
        ),
        ("threaded_send_then_work", 100, &[("200us", 200)][..]),
    ] {
        let mut g = c.benchmark_group(group);
        for &(name, link) in links {
            let echoes = Arc::new(AtomicU64::new(0));
            let relay = || Relay {
                echoes: echoes.clone(),
                work: Duration::from_micros(work_us),
            };
            let net = ThreadedNet::new(LatencyModel::Constant(SimTime::from_micros(link)), 7);
            let a = net.add_machine(MachineId::new(0), relay());
            let _b = net.add_machine(MachineId::new(1), relay());
            g.bench_function(name, |b| {
                b.iter(|| {
                    let before = echoes.load(Ordering::Acquire);
                    a.with(|_, ctx| ctx.send(MachineId::new(1), Channel::Signals, ()));
                    // Spin, not sleep: this thread's own wake-up is not the
                    // mesh's lateness.
                    while echoes.load(Ordering::Acquire) == before {
                        std::hint::spin_loop();
                    }
                })
            });
        }
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_issue,
    bench_atomic_overhead,
    bench_store_copy,
    bench_snapshot_digest,
    bench_sim_round,
    bench_sim_round_loaded,
    bench_flush,
    bench_threaded_link_round_trip
);
criterion_main!(benches);

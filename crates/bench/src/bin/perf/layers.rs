//! Source-B per-layer rows: public functions of each layer timed in a
//! loop, on the inputs the workloads feed them.
//!
//! These compare two versions of one function and leave waiting out; a
//! row only matters through the end-to-end metric the README pairs it
//! with.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use guesstimate_apps::message_board::{self, MessageBoard};
use guesstimate_apps::sudoku::{self, Sudoku};
use guesstimate_core::{
    execute, execute_witnessed, value_digest, CommuteMatrix, GState, MachineId, ObjectId,
    ObjectStore, OpId, OpRegistry, ProbeReads, SharedOp,
};
use guesstimate_net::{Actor, Channel, Ctx, LatencyModel, NetConfig, SimNet, SimTime, ThreadedNet};
use guesstimate_runtime::commute::wire_ops_commute;
use guesstimate_runtime::roles::master::{MasterEvent, MasterRole};
use guesstimate_runtime::roles::participant::{ParticipantEvent, ParticipantRole};
use guesstimate_runtime::{
    run_until_cohort, sim_cluster, MachineConfig, Msg, WireEnvelope, WireOp,
};
use guesstimate_telemetry::Telemetry;

use crate::stats::{percentile_of, Metric};

/// Timed batches per row; the row reports their median.
const BATCHES: usize = 9;
/// Target length of one batch.
const BATCH_TIME: Duration = Duration::from_millis(2);

/// Median nanoseconds per call of `f`, over [`BATCHES`] batches sized to
/// about [`BATCH_TIME`] each.
fn ns_per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut calls = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        if t.elapsed() >= BATCH_TIME / 4 || calls >= 1 << 24 {
            let scale = BATCH_TIME.as_secs_f64() / t.elapsed().as_secs_f64().max(1e-9);
            calls = ((calls as f64 * scale) as u64).max(1);
            break;
        }
        calls *= 4;
    }
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        batches.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    percentile_of(&mut batches, 0.5)
}

/// Median nanoseconds of `routine` over fresh inputs from `setup`.
fn ns_per_fresh_input<I, R>(
    runs: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> R,
) -> f64 {
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let input = setup();
        let t = Instant::now();
        black_box(routine(input));
        times.push(t.elapsed().as_nanos() as f64);
    }
    percentile_of(&mut times, 0.5)
}

fn object(i: u64) -> ObjectId {
    ObjectId::new(MachineId::new(0), i)
}

/// A store of `n` message boards: the first two carry like tallies (the
/// `saturate` store), the rest four topics of eight posts (`bigstore`).
fn board_store(n: u64, registry: &OpRegistry) -> ObjectStore {
    let mut store = ObjectStore::new();
    for i in 0..n {
        store.insert(object(i), Box::new(MessageBoard::new()));
        if i < 2 {
            for k in 0..16 {
                let like = message_board::ops::like(object(i), &format!("k{k}"));
                execute(&like, &mut store, registry).expect("like");
            }
            continue;
        }
        for t in 0..4 {
            let topic = format!("topic{t}");
            execute(
                &message_board::ops::create_topic(object(i), &topic),
                &mut store,
                registry,
            )
            .expect("create_topic");
            for p in 0..8 {
                let post =
                    message_board::ops::post(object(i), &topic, "author", &format!("post {p}"));
                execute(&post, &mut store, registry).expect("post");
            }
        }
    }
    store
}

fn like_envelopes(n: u64) -> Arc<Vec<WireEnvelope>> {
    let ops = (0..n).map(|seq| WireEnvelope {
        id: OpId::new(MachineId::new(1), seq),
        op: WireOp::Shared(message_board::ops::like(object(0), "k3")),
    });
    Arc::new(ops.collect())
}

/// A null actor: bounces every message straight back.
struct Echo {
    seen: Arc<AtomicU64>,
}

impl Actor for Echo {
    type Msg = u8;
    fn on_message(&mut self, from: MachineId, channel: Channel, msg: u8, ctx: &mut Ctx<'_, u8>) {
        self.seen.fetch_add(1, Ordering::Release);
        ctx.send(from, channel, msg);
    }
}

/// One hop over the threaded mesh with no injected delay: channel, heap,
/// locks and the delivery thread's wake-up.
fn threaded_hop_us() -> f64 {
    const HOPS: u64 = 4_000;
    let seen = Arc::new(AtomicU64::new(0));
    let net = ThreadedNet::new(LatencyModel::Constant(SimTime::ZERO), 1);
    let a = net.add_machine(
        MachineId::new(0),
        Echo {
            seen: Arc::clone(&seen),
        },
    );
    let _b = net.add_machine(
        MachineId::new(1),
        Echo {
            seen: Arc::clone(&seen),
        },
    );
    let t = Instant::now();
    a.with(|_, ctx| ctx.send(MachineId::new(1), Channel::Signals, 0));
    let deadline = t + Duration::from_secs(5);
    while seen.load(Ordering::Acquire) < HOPS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
    }
    let hops = seen.load(Ordering::Acquire).max(1);
    t.elapsed().as_secs_f64() * 1e6 / hops as f64
}

/// One event of the simulated mesh (null actors, constant delay).
fn sim_event_ns() -> f64 {
    const EVENTS: u64 = 20_000;
    ns_per_fresh_input(
        5,
        || {
            let seen = Arc::new(AtomicU64::new(0));
            let cfg = NetConfig::lan(1).with_latency(LatencyModel::constant_ms(1));
            let mut net = SimNet::new(cfg);
            net.add_machine(
                MachineId::new(0),
                Echo {
                    seen: Arc::clone(&seen),
                },
            );
            net.add_machine(MachineId::new(1), Echo { seen });
            net.call(MachineId::new(0), |_, ctx| {
                ctx.send(MachineId::new(1), Channel::Signals, 0)
            });
            net
        },
        |mut net| {
            net.run_until(SimTime::from_millis(EVENTS));
            net.metrics().delivered
        },
    ) / EVENTS as f64
}

/// One synchronization round of a simulated four-machine cluster, every
/// machine committing one Sudoku move (`benches/microbench.rs`'s
/// `sim_round` row).
fn sim_round_4m_us() -> f64 {
    let cells = [(1u8, 3u8, 4u8), (2, 2, 2), (3, 1, 1), (5, 5, 7)];
    ns_per_fresh_input(
        9,
        || {
            let cfg = MachineConfig::default()
                .with_sync_period(SimTime::from_millis(50))
                .with_stall_timeout(SimTime::from_secs(2));
            let netcfg = NetConfig::lan(7).with_latency(LatencyModel::constant_ms(5));
            let mut registry = OpRegistry::new();
            sudoku::register(&mut registry);
            let mut net = sim_cluster(4, registry, cfg, netcfg);
            assert!(
                run_until_cohort(&mut net, SimTime::from_secs(10)),
                "sim cohort"
            );
            let master = net.actor_mut(MachineId::new(0)).expect("master");
            let board = master.create_instance(sudoku::example_puzzle());
            let settled = net.now() + SimTime::from_secs(2);
            net.run_until(settled);
            for (i, &(r, c, v)) in cells.iter().enumerate() {
                let m = net.actor_mut(MachineId::new(i as u32)).expect("member");
                let _ = m.issue(sudoku::ops::update(board, r, c, v));
            }
            net
        },
        |mut net| {
            let until = net.now() + SimTime::from_millis(200);
            net.run_until(until);
            net.actor(MachineId::new(0)).map(|m| m.completed_len())
        },
    ) / 1e3
}

/// Every source-B row.
pub fn isolated_calls() -> Vec<Metric> {
    let mut registry = OpRegistry::new();
    message_board::register(&mut registry);
    sudoku::register(&mut registry);
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };

    // core: execution.
    let mut boards = board_store(2, &registry);
    let like = message_board::ops::like(object(0), "k3");
    push(
        "core.execute_like_ns",
        ns_per_call(|| execute(&like, &mut boards, &registry)),
        "ns",
    );
    let puzzle_store = || {
        let mut store = ObjectStore::new();
        store.insert(object(0), Box::new(sudoku::example_puzzle()));
        store
    };
    let mut puzzle = puzzle_store();
    let update = sudoku::ops::update(object(0), 1, 3, 4);
    push(
        "core.execute_sudoku_update_ns",
        ns_per_call(|| execute(&update, &mut puzzle, &registry)),
        "ns",
    );
    let four: Vec<SharedOp> = [(1u8, 3u8, 4u8), (1, 4, 6), (3, 1, 1), (2, 2, 2)]
        .iter()
        .map(|&(r, c, v)| sudoku::ops::update(object(0), r, c, v))
        .collect();
    let plain4 = ns_per_call(|| {
        for op in &four {
            let _ = black_box(execute(op, &mut puzzle, &registry));
        }
    });
    push("core.plain4_updates_ns", plain4, "ns");
    let atomic = SharedOp::atomic(four.clone());
    push(
        "core.atomic4_cow_ns",
        ns_per_call(|| execute(&atomic, &mut puzzle, &registry)),
        "ns",
    );
    let witnessed =
        ns_per_call(|| execute_witnessed(&like, &mut boards, &registry, ProbeReads::Off));
    push("core.execute_witnessed_ns", witnessed, "ns");

    // core: store, value, digest.
    let mut guess = ObjectStore::new();
    guess.copy_from(&boards);
    push(
        "core.store_copy_2boards_ns",
        ns_per_call(|| guess.copy_from(&boards)),
        "ns",
    );
    let big = board_store(256, &registry);
    let mut big_guess = ObjectStore::new();
    big_guess.copy_from(&big);
    push(
        "core.store_copy_256boards_us",
        ns_per_call(|| big_guess.copy_from(&big)) / 1e3,
        "us",
    );
    push(
        "core.store_digest_256boards_us",
        ns_per_call(|| big.digest()) / 1e3,
        "us",
    );
    let board: Sudoku = sudoku::example_puzzle();
    push(
        "core.snapshot_board_ns",
        ns_per_call(|| value_digest(&GState::snapshot(&board))),
        "ns",
    );

    // runtime: messages, commutation, roles, routing.
    let batch = like_envelopes(256);
    let ops_msg = Msg::Ops {
        round: 7,
        machine: MachineId::new(1),
        ops: Arc::clone(&batch),
        asyncs: Arc::new(Vec::new()),
    };
    push(
        "runtime.msg_ops256_clone_ns",
        ns_per_call(|| ops_msg.clone()),
        "ns",
    );
    push(
        "runtime.msg_ops256_wire_size_ns",
        ns_per_call(|| ops_msg.wire_size()),
        "ns",
    );
    let matrix = CommuteMatrix::new();
    let type_of = |_: ObjectId| Some("MessageBoard".to_owned());
    let (a, b) = (
        &batch[0].op,
        WireOp::Shared(message_board::ops::like(object(0), "k4")),
    );
    let commute = ns_per_call(|| wire_ops_commute(&registry, &matrix, &type_of, a, &b));
    push("runtime.commute.wire_ops_commute_ns", commute, "ns");

    let cfg = MachineConfig::default();
    let order: Vec<MachineId> = (0..4).map(MachineId::new).collect();
    let now = SimTime::from_millis(1);
    let master_round = ns_per_call(|| {
        let mut role = MasterRole::new(order[0]);
        let mut effects = role
            .step(
                MasterEvent::BeginRound {
                    order: order.clone(),
                },
                now,
                &cfg,
            )
            .len();
        for &machine in &order {
            effects += role
                .step(
                    MasterEvent::FlushDone {
                        machine,
                        count: 256,
                    },
                    now,
                    &cfg,
                )
                .len();
        }
        effects += role
            .step(
                MasterEvent::RoundApplied {
                    ops_committed: 1024,
                },
                now,
                &cfg,
            )
            .len();
        for &machine in &order[1..] {
            effects += role.step(MasterEvent::Ack { machine }, now, &cfg).len();
        }
        effects
    });
    push("runtime.roles.master_step_ns", master_round / 9.0, "ns");
    let participant_round = ns_per_call(|| {
        let mut role = ParticipantRole::new(order[1]);
        let begin = ParticipantEvent::BeginSync {
            round: 1,
            order: order.clone(),
            in_cohort: true,
        };
        let mut effects = role.step(begin, now, &cfg).len();
        for &machine in &order {
            let ops = ParticipantEvent::Ops {
                machine,
                ops: Arc::clone(&batch),
            };
            effects += role.step(ops, now, &cfg).len();
        }
        let counts = order.iter().map(|&m| (m, 256)).collect();
        effects += role
            .step(ParticipantEvent::BeginApply { round: 1, counts }, now, &cfg)
            .len();
        effects
    });
    push(
        "runtime.roles.participant_step_ns",
        participant_round / 6.0,
        "ns",
    );

    let (table, bump) = crate::workloads::routing_sample();
    let cells_type = |_: ObjectId| Some("Cells".to_owned());
    push(
        "runtime.multigroup.route_ns",
        ns_per_call(|| table.route(&bump, &cells_type)),
        "ns",
    );

    // net.
    push("net.threaded_hop_us", threaded_hop_us(), "us");
    push("net.sim_event_ns", sim_event_ns(), "ns");
    push("net.sim_round_4m_us", sim_round_4m_us(), "us");

    // telemetry: one op's issued + committed + completed hooks, live
    // handle over the no-op one.
    let op_hooks = |telemetry: &Telemetry| {
        let mut seq = 0u64;
        ns_per_call(|| {
            let id = OpId::new(MachineId::new(0), seq);
            seq += 1;
            telemetry.op_issued(id, Some(now));
            telemetry.op_committed(id, 1, 2, now);
            telemetry.op_completed(id, now);
        })
    };
    let live = op_hooks(&Telemetry::new());
    push(
        "telemetry.op_span_ns",
        live - op_hooks(&Telemetry::noop()),
        "ns",
    );
    out
}

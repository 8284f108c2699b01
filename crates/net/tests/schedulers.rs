//! Pins both virtual-time schedulers and the accounting they share.
//!
//! - `SimNet` under every fault at once: drops, duplicates, a stall, a
//!   partition, a crash, a late join and two latency models. The whole
//!   causal-stamp trace and the counters are compared with the checked-in
//!   `sim_all_faults.txt`, so the order of the RNG draws (drop, dup,
//!   latency, the duplicate's latency) and of the `(at, seq)` tie-break is
//!   fixed. On drift the run is written to `target/sim_all_faults.actual.txt`.
//! - `SchedNet` under a fixed choice script: the seqs every choice gets,
//!   the stamps it traces and the counters it keeps.
//! - The two agreeing: one fault-free, timer-free program yields the same
//!   `MsgSent`/`MsgReceived` sequence and the same `NetMetrics` on
//!   `SimNet` (constant latency) and on `SchedNet` (lowest seq first),
//!   which is what `obs::check_happens_before` assumes of either trace.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use guesstimate_core::MachineId;
use guesstimate_net::{
    Actor, Channel, Ctx, FaultPlan, LatencyModel, NetConfig, NetMetrics, PartitionWindow,
    RecordingTracer, SchedNet, SimNet, SimTime, StallWindow, TraceEvent, TraceRecord,
};

/// Broadcasts a ping on Signals at each timer (re-arming until `LAST_TICK`)
/// and answers every ping with a pong on Operations.
#[derive(Default)]
struct Echo {
    pongs: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Msg {
    Ping(u64),
    Pong(u64),
}

const PERIOD: SimTime = SimTime::from_millis(8);
const LAST_TICK: u64 = 7;

impl Actor for Echo {
    type Msg = Msg;

    fn on_message(&mut self, from: MachineId, _: Channel, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Ping(n) => ctx.send(from, Channel::Operations, Msg::Pong(n)),
            Msg::Pong(_) => self.pongs += 1,
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Msg>) {
        ctx.broadcast(Channel::Signals, Msg::Ping(tag));
        if tag < LAST_TICK {
            ctx.set_timer(PERIOD, tag + 1);
        }
    }

    fn msg_size(msg: &Msg) -> u64 {
        match msg {
            Msg::Ping(_) => 16,
            Msg::Pong(_) => 24,
        }
    }

    fn msg_kind(msg: &Msg) -> &'static str {
        match msg {
            Msg::Ping(_) => "ping",
            Msg::Pong(_) => "pong",
        }
    }
}

fn m(i: u32) -> MachineId {
    MachineId::new(i)
}

fn line(r: &TraceRecord) -> String {
    format!("{} {} {:?}", r.at.as_micros(), r.source, r.event)
}

fn render(records: &[TraceRecord], metrics: NetMetrics) -> Vec<String> {
    let mut out: Vec<String> = records.iter().map(line).collect();
    out.push(format!("{metrics:?}"));
    out
}

fn sim_all_faults() -> String {
    let faults = FaultPlan::new()
        .with_drop_prob(0.05)
        .with_dup_prob(0.05)
        .with_stall(StallWindow::new(
            m(1),
            SimTime::from_millis(12),
            SimTime::from_millis(24),
        ))
        .with_partition(PartitionWindow::new(
            vec![m(2)],
            SimTime::from_millis(28),
            SimTime::from_millis(40),
        ))
        .with_crash(m(3), SimTime::from_millis(44));
    let cfg = NetConfig::lan(7)
        .with_latency(LatencyModel::uniform_ms(2, 8))
        .with_signals_latency(LatencyModel::uniform_ms(1, 3))
        .with_faults(faults);
    let tracer = Arc::new(RecordingTracer::new());
    let mut net: SimNet<Echo> = SimNet::new(cfg);
    net.set_tracer(tracer.clone());
    for i in 0..4 {
        net.add_machine(m(i), Echo::default());
        net.call(m(i), |_, ctx| {
            ctx.set_timer(SimTime::from_millis(i as u64), 0)
        });
    }
    net.schedule_join(SimTime::from_millis(20), m(4), Echo::default());
    net.schedule_call(SimTime::from_millis(21), m(4), |_, ctx| {
        ctx.set_timer(SimTime::ZERO, 3)
    });
    assert!(net.run_until_quiescent(SimTime::from_secs(1)));

    let mut out = render(&tracer.take(), net.metrics()).join("\n");
    for id in net.members() {
        write!(out, "\n{id} pongs {}", net.actor(id).unwrap().pongs).unwrap();
    }
    writeln!(out, "\nnow {}", net.now().as_micros()).unwrap();
    out
}

#[test]
fn sim_net_under_every_fault_at_once_replays_its_golden_trace() {
    let expected = include_str!("sim_all_faults.txt");
    let actual = sim_all_faults();
    assert_eq!(actual, sim_all_faults(), "one seed, one history");
    let (want, got): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), actual.lines().collect());
    if let Some(i) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
        let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"))
            .join("sim_all_faults.actual.txt");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "SimNet drift at line {}:\n  expected: {}\n  actual:   {}\nfull run in {}",
            i + 1,
            want.get(i).unwrap_or(&"<end>"),
            got.get(i).unwrap_or(&"<end>"),
            path.display()
        );
    }
    // The run reaches every fault it is meant to exercise.
    let metrics = got.iter().find(|l| l.starts_with("NetMetrics")).unwrap();
    for field in ["dropped", "duplicated", "timers_fired"] {
        assert!(
            !metrics.contains(&format!("{field}: 0,")),
            "{field} in {metrics}"
        );
    }
}

#[test]
fn sched_net_choice_script_pins_seqs_stamps_and_counters() {
    let tracer = Arc::new(RecordingTracer::new());
    let mut net: SchedNet<Echo> = SchedNet::new();
    net.set_tracer(tracer.clone());
    net.set_tamper(Box::new(|_, _, _, msg: &mut Msg| match msg {
        Msg::Pong(n) if *n == 1 => {
            *n = 99;
            true
        }
        _ => false,
    }));
    for i in 0..3 {
        net.add_machine(m(i), Echo::default());
    }
    // m0's broadcast takes seqs 0 and 1, its timer 2; m1's send takes 3.
    net.call(m(0), |_, ctx| {
        ctx.broadcast(Channel::Signals, Msg::Ping(0));
        ctx.set_timer(SimTime::from_millis(5), LAST_TICK - 1);
    });
    net.call(m(1), |_, ctx| {
        ctx.send(m(2), Channel::Signals, Msg::Ping(1))
    });
    assert_eq!(net.pending_msgs(), vec![0, 1, 3]);
    assert_eq!(net.next_timer_due(), Some(SimTime::from_millis(5)));

    assert!(net.deliver(0)); // m1 answers: seq 4
    assert!(net.drop_msg(1));
    let join = net.stage_join(m(3), Echo::default());
    assert_eq!(join, 5);
    assert_eq!(net.pending_joins(), vec![5]);
    assert!(net.deliver(3)); // m2 answers Pong(1): seq 6
    assert!(net.admit(join));
    assert_eq!(net.members(), vec![m(0), m(1), m(2), m(3)]);
    assert!(net.fire_next_timer()); // m0 pings m1..m3 (7, 8, 9), re-arms (10)
    assert_eq!(net.now(), SimTime::from_millis(5));
    assert_eq!(net.pending_msgs(), vec![4, 6, 7, 8, 9]);
    let p = net.pending_msg(6).unwrap();
    assert_eq!((p.seq, p.from, p.to, p.stamp), (6, m(2), m(1), 3));
    assert!(net.deliver(6)); // tampered to Pong(99)
    assert!(net.deliver(8)); // m2 answers: seq 11
    assert!(net.drop_msg(9));
    assert!(net.fire_next_timer()); // m0 pings m1..m3 again (12, 13, 14)
    assert!(!net.fire_next_timer());
    assert_eq!(net.now(), SimTime::from_millis(13));
    while let Some(&seq) = net.pending_msgs().first() {
        assert!(net.deliver(seq));
    }
    assert!(!net.deliver(4), "a choice seq is consumed exactly once");
    assert_eq!(net.tamper_count(), 1);
    let pongs: Vec<u64> = (0..4).map(|i| net.actor(m(i)).unwrap().pongs).collect();
    assert_eq!(pongs, vec![6, 1, 0, 0]);

    let got = render(&tracer.take(), net.metrics());
    let want = [
        "0 m0 MsgSent { stamp: 0, kind: \"ping\", bytes: 16 }",
        "0 m1 MsgSent { stamp: 1, kind: \"ping\", bytes: 16 }",
        "0 m1 MsgReceived { origin: MachineId(0), stamp: 0, kind: \"ping\" }",
        "0 m1 MsgSent { stamp: 2, kind: \"pong\", bytes: 24 }",
        "0 m2 MsgReceived { origin: MachineId(1), stamp: 1, kind: \"ping\" }",
        "0 m2 MsgSent { stamp: 3, kind: \"pong\", bytes: 24 }",
        "5000 m0 MsgSent { stamp: 4, kind: \"ping\", bytes: 16 }",
        "5000 m1 MsgReceived { origin: MachineId(2), stamp: 3, kind: \"pong\" }",
        "5000 m2 MsgReceived { origin: MachineId(0), stamp: 4, kind: \"ping\" }",
        "5000 m2 MsgSent { stamp: 5, kind: \"pong\", bytes: 24 }",
        "13000 m0 MsgSent { stamp: 6, kind: \"ping\", bytes: 16 }",
        "13000 m0 MsgReceived { origin: MachineId(1), stamp: 2, kind: \"pong\" }",
        "13000 m1 MsgReceived { origin: MachineId(0), stamp: 4, kind: \"ping\" }",
        "13000 m1 MsgSent { stamp: 7, kind: \"pong\", bytes: 24 }",
        "13000 m0 MsgReceived { origin: MachineId(2), stamp: 5, kind: \"pong\" }",
        "13000 m1 MsgReceived { origin: MachineId(0), stamp: 6, kind: \"ping\" }",
        "13000 m1 MsgSent { stamp: 8, kind: \"pong\", bytes: 24 }",
        "13000 m2 MsgReceived { origin: MachineId(0), stamp: 6, kind: \"ping\" }",
        "13000 m2 MsgSent { stamp: 9, kind: \"pong\", bytes: 24 }",
        "13000 m3 MsgReceived { origin: MachineId(0), stamp: 6, kind: \"ping\" }",
        "13000 m3 MsgSent { stamp: 10, kind: \"pong\", bytes: 24 }",
        "13000 m0 MsgReceived { origin: MachineId(1), stamp: 7, kind: \"pong\" }",
        "13000 m0 MsgReceived { origin: MachineId(1), stamp: 8, kind: \"pong\" }",
        "13000 m0 MsgReceived { origin: MachineId(2), stamp: 9, kind: \"pong\" }",
        "13000 m0 MsgReceived { origin: MachineId(3), stamp: 10, kind: \"pong\" }",
        "NetMetrics { sent: 16, delivered: 14, dropped: 2, duplicated: 0, timers_fired: 2, \
         bytes_sent: 312, bytes_delivered: 280 }",
    ];
    assert_eq!(got, want);
}

/// The `(source, event)` of every causal-stamp record, in trace order.
fn causal(records: &[TraceRecord]) -> Vec<(MachineId, TraceEvent)> {
    records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::MsgSent { .. } | TraceEvent::MsgReceived { .. }
            )
        })
        .map(|r| (r.source, r.event))
        .collect()
}

/// A timer-free program: three machines ping, every ping is answered.
fn kick_off<S: FnMut(MachineId, Msg, Option<MachineId>)>(mut act: S) {
    act(m(0), Msg::Ping(0), None);
    act(m(2), Msg::Ping(2), Some(m(1)));
    act(m(3), Msg::Ping(3), None);
}

#[test]
fn both_schedulers_account_alike_on_a_fault_free_program() {
    let sim_tracer = Arc::new(RecordingTracer::new());
    let cfg = NetConfig::lan(1).with_latency(LatencyModel::constant_ms(1));
    let mut sim: SimNet<Echo> = SimNet::new(cfg);
    sim.set_tracer(sim_tracer.clone());

    let sched_tracer = Arc::new(RecordingTracer::new());
    let mut sched: SchedNet<Echo> = SchedNet::new();
    sched.set_tracer(sched_tracer.clone());

    for i in 0..4 {
        sim.add_machine(m(i), Echo::default());
        sched.add_machine(m(i), Echo::default());
    }
    kick_off(|from, msg, to| {
        let act = move |_: &mut Echo, ctx: &mut Ctx<'_, Msg>| match to {
            Some(to) => ctx.send(to, Channel::Signals, msg),
            None => ctx.broadcast(Channel::Signals, msg),
        };
        assert!(sim.call(from, act));
        assert!(sched.call(from, act));
    });
    assert!(sim.run_until_quiescent(SimTime::from_secs(1)));
    while let Some(&seq) = sched.pending_msgs().first() {
        assert!(sched.deliver(seq));
    }

    let (sim_trace, sched_trace) = (causal(&sim_tracer.take()), causal(&sched_tracer.take()));
    // Per ping leg: its receive, the pong's send and receive; plus one
    // send per ping action.
    assert_eq!(sim_trace.len(), 3 * (3 + 1 + 3) + 3);
    assert_eq!(sim_trace, sched_trace);
    assert_eq!(sim.metrics(), sched.metrics());
    assert_eq!(sim.metrics().delivered, 14);
}

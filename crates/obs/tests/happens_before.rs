//! Happens-before correctness of merged causal timelines across all three
//! network drivers.
//!
//! Every driver allocates one origin `(machine, stamp)` per send *action*
//! and records the receive edge before the handler runs, so a merged
//! timeline must satisfy: every receive matches a strictly-earlier send,
//! no origin reuses a stamp, and dropped envelopes surface as unreceived
//! sends — never as violations. These tests pin that contract under:
//!
//! 1. the deterministic sim driver running the real protocol over a lossy
//!    network (dropped envelopes force recovery re-flushes, which must get
//!    fresh stamps);
//! 2. the real-thread driver (wall-clock latencies, cross-thread delivery);
//! 3. the controlled scheduler, where we explicitly drop and re-send
//!    envelopes and check the dropped/re-sent accounting.

use std::sync::Arc;

use guesstimate_core::{args, GState, MachineId, OpRegistry, RestoreError, SharedOp, Value};
use guesstimate_net::{
    Actor, Channel, Ctx, FaultPlan, LatencyModel, NetConfig, RecordingTracer, SchedNet, SimTime,
    StallWindow, ThreadedNet, TraceRecord,
};
use guesstimate_obs::{check_happens_before, merge, record_to_json, TraceLine};
use guesstimate_runtime::{
    run_until_cohort, sim_cluster_instrumented, Checks, Machine, MachineConfig,
};
use guesstimate_telemetry::Telemetry;

/// Renders driver records to JSONL and back, exactly as the report binary
/// consumes them, then merges into one cluster timeline.
fn timeline(records: &[TraceRecord]) -> Vec<TraceLine> {
    let lines = records
        .iter()
        .map(|r| TraceLine::parse(&record_to_json(r)).expect("driver emits parseable lines"))
        .collect();
    merge(lines)
}

/// Minimal counter app (the runtime's `testutil` is test-gated and
/// invisible here).
#[derive(Clone, Default, Debug, PartialEq)]
struct Counter {
    n: i64,
}

impl GState for Counter {
    const TYPE_NAME: &'static str = "Counter";
    fn snapshot(&self) -> Value {
        Value::from(self.n)
    }
    fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
        self.n = v.as_i64().ok_or_else(|| RestoreError::shape("i64"))?;
        Ok(())
    }
}

fn counter_registry() -> OpRegistry {
    let mut r = OpRegistry::new();
    r.register_type::<Counter>();
    r.register_method::<Counter>("add", |c, a| {
        let Some(d) = a.i64(0) else { return false };
        c.n += d;
        true
    });
    r
}

/// Real protocol, lossy sim network: 2% message loss plus a stalled
/// machine force both kinds of re-flush (recovery resends and restart
/// rejoin), and the merged timeline must stay causally consistent with
/// the drops showing up as unreceived sends.
#[test]
fn sim_protocol_timeline_is_causally_consistent_under_loss() {
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(100))
        .with_stall_timeout(SimTime::from_millis(800));
    let faults = FaultPlan::new()
        .with_drop_prob(0.02)
        .with_stall(StallWindow::new(
            MachineId::new(2),
            SimTime::from_secs(6),
            SimTime::from_secs(12),
        ));
    let netcfg = NetConfig::lan(29)
        .with_latency(LatencyModel::constant_ms(10))
        .with_faults(faults);
    let tracer = Arc::new(RecordingTracer::new());
    let mut net = sim_cluster_instrumented(
        4,
        counter_registry(),
        cfg,
        netcfg,
        Some(tracer.clone()),
        Telemetry::noop(),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));

    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(Counter::default());
    for k in 0..24u64 {
        let t = net.now() + SimTime::from_millis(200 + 150 * k);
        let user = MachineId::new((k % 4) as u32);
        net.schedule_call(t, user, move |m: &mut Machine, _ctx| {
            let _ = m.issue(SharedOp::primitive(board, "add", args![1]));
        });
    }
    net.run_until(net.now() + SimTime::from_secs(20));

    let records = tracer.take();
    let lines = timeline(&records);
    let hb = check_happens_before(&lines, true);
    assert!(hb.ok(), "strict happens-before must hold: {hb:?}");
    assert!(hb.matched > 100, "a real session delivers plenty: {hb:?}");
    assert!(
        hb.unreceived > 0,
        "2% loss over 20s must drop at least one envelope: {hb:?}"
    );
    // The stall forces recovery; the re-flushed envelopes got fresh stamps
    // (stamp reuse would have been flagged as a violation above), and the
    // round eventually commits on every surviving machine.
    assert!(
        records
            .iter()
            .any(|r| r.event.name() == "resend" || r.event.name() == "restarted"),
        "the stall exercises the recovery/re-flush path"
    );
}

/// Real protocol on the real-thread driver: cross-thread wall-clock
/// delivery must preserve the same discipline (receives strictly after
/// sends even though each thread timestamps independently).
#[test]
fn threaded_protocol_timeline_is_causally_consistent() {
    let tracer = Arc::new(RecordingTracer::new());
    let registry = Arc::new(counter_registry());
    let net: ThreadedNet<Machine> = ThreadedNet::new(LatencyModel::constant_ms(1), 17);
    net.set_tracer(tracer.clone());
    let mut handles = Vec::new();
    for i in 0..3u32 {
        let id = MachineId::new(i);
        let m = if i == 0 {
            Machine::new_master(id, registry.clone(), MachineConfig::default())
        } else {
            Machine::new_member(id, registry.clone(), MachineConfig::default())
        };
        handles.push(net.add_machine(id, m));
    }
    // Wait for the cohort, then issue a few ops from two machines.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        let all_in = handles
            .iter()
            .all(|h| h.read(Machine::in_cohort).unwrap_or(false));
        if all_in {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let board = handles[0]
        .with(|m, _| m.create_instance(Counter::default()))
        .unwrap();
    for k in 0..6 {
        let h = &handles[k % handles.len()];
        h.with(|m, _| {
            let _ = m.issue(SharedOp::primitive(board, "add", args![1]));
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
    }
    std::thread::sleep(std::time::Duration::from_millis(300));

    let lines = timeline(&tracer.take());
    let hb = check_happens_before(&lines, true);
    assert!(hb.ok(), "strict happens-before must hold: {hb:?}");
    assert!(hb.matched > 0, "messages flowed: {hb:?}");
}

/// Toy ping-pong actor for the controlled-scheduler test: broadcast on
/// start, reply to anything below a bound.
struct Ping;

impl Actor for Ping {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.broadcast(Channel::Operations, 0);
    }

    fn on_message(&mut self, from: MachineId, _ch: Channel, msg: u32, ctx: &mut Ctx<'_, u32>) {
        if msg < 2 {
            ctx.send(from, Channel::Operations, msg + 1);
        }
    }
}

/// Controlled scheduler: explicitly dropped envelopes count as
/// unreceived (never as violations), an explicit re-send after a drop
/// gets a fresh stamp, and the merged timeline stays strictly
/// consistent throughout.
#[test]
fn sched_drops_and_resends_keep_timeline_consistent() {
    let tracer = Arc::new(RecordingTracer::new());
    let mut net: SchedNet<Ping> = SchedNet::new();
    net.set_tracer(tracer.clone());
    for i in 0..3u32 {
        net.add_machine(MachineId::new(i), Ping);
    }

    // Deliver one leg of machine 0's startup broadcast, drop another, and
    // let the rest play out; every pending envelope is either delivered
    // or dropped explicitly.
    let mut dropped = 0u64;
    let mut toggle = false;
    loop {
        let pending = net.pending_msgs();
        let Some(&seq) = pending.first() else { break };
        if toggle {
            assert!(net.drop_msg(seq));
            dropped += 1;
        } else {
            assert!(net.deliver(seq));
        }
        toggle = !toggle;
    }
    // "Re-flush": the sender re-broadcasts after its envelopes were
    // dropped; the new send action must allocate a fresh stamp.
    assert!(net.call(MachineId::new(0), |_a, ctx| {
        ctx.broadcast(Channel::Operations, 0);
    }));
    // Drain to quiescence: deliveries trigger replies, which must be
    // delivered too or they would read as in-flight (unreceived) sends.
    while let Some(&seq) = net.pending_msgs().first() {
        assert!(net.deliver(seq));
    }

    let lines = timeline(&tracer.take());
    let hb = check_happens_before(&lines, true);
    assert!(hb.ok(), "strict happens-before must hold: {hb:?}");
    assert!(hb.matched > 0, "delivered legs match their sends");
    // A broadcast's legs share one stamp, so a stamp only counts as
    // unreceived when *every* leg was dropped; with alternating
    // deliver/drop at least one broadcast leg always lands, so the bound
    // is per dropped point-to-point reply.
    assert!(dropped > 0, "the schedule dropped envelopes");
    assert!(
        hb.unreceived <= dropped,
        "drops can only produce unreceived sends: {hb:?}"
    );
}

/// Two rounds in flight: 10 ms links make a round 40 ms and the master asks
/// for one every 30 ms, so each round begins while the members are still
/// applying the one before. An operation's waterfall is charged to the round
/// whose flush carried it -- the one its span names as committing -- and the
/// stage boundaries are looked up by that number, so a second round on the
/// wire moves nothing: the stages sum exactly, and they read what the links
/// say. A member's flush reaches the master one link later (`wire`), with
/// the last `FlushDone` (`gather` 0), and `BeginApply` commits it one link
/// after that (`apply`); the master flushes at that last `FlushDone`, two
/// links into the round (`flush_wait`), and commits at once (`gather`,
/// `apply` 0) while its batch rides `BeginApply` to the members (`wire`).
#[test]
fn waterfalls_under_overlapping_rounds_sum_exactly_and_charge_the_flushing_round() {
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(30))
        .with_checks(Checks::Assert);
    let netcfg = NetConfig::lan(31).with_latency(LatencyModel::constant_ms(10));
    let tracer = Arc::new(RecordingTracer::new());
    let telemetry = Telemetry::new();
    let mut net = sim_cluster_instrumented(
        4,
        counter_registry(),
        cfg,
        netcfg,
        Some(tracer.clone()),
        telemetry.clone(),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(Counter::default());
    for k in 0..60u64 {
        let t = net.now() + SimTime::from_millis(200 + 7 * k);
        let user = MachineId::new((k % 4) as u32);
        net.schedule_call(t, user, move |m: &mut Machine, ctx| {
            let op = SharedOp::primitive(board, "add", args![1]);
            assert!(m.issue_at(op, None, ctx.now()).expect("known object"));
        });
    }
    net.run_until(net.now() + SimTime::from_secs(1));
    let master = net.actor(MachineId::new(0)).unwrap().stats();
    assert!(
        master.rounds_overlapped > 20,
        "{}",
        master.rounds_overlapped
    );

    let trace: String = tracer
        .take()
        .iter()
        .map(|r| record_to_json(r) + "\n")
        .collect();
    let spans: String = telemetry
        .spans()
        .iter()
        .map(|s| s.to_json_line() + "\n")
        .collect();
    let report = guesstimate_obs::report::run(&trace, &spans).expect("obs report");
    assert!(report.hb.ok(), "{:?}", report.hb);
    assert!(report.waterfall.verify_exact_sum());
    // (The board's creation carries no issue time and is left out.)
    assert_eq!(report.waterfall.ops.len(), 60);
    for op in &report.waterfall.ops {
        let stage = |name| op.stages.iter().find(|(n, _)| *n == name).expect(name).1;
        let (wire, gather, apply) = (stage("wire"), stage("gather"), stage("apply"));
        let expected = if op.machine == 0 {
            (10_000, 0, 0)
        } else {
            (10_000, 0, 10_000)
        };
        assert_eq!((wire, gather, apply), expected, "{op:?}");
        // It waited for its machine's next flush, never a whole period more.
        assert!(stage("round_wait") + stage("flush_wait") < 30_000, "{op:?}");
    }
}

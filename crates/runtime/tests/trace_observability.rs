//! End-to-end observability tests under the deterministic sim driver.
//!
//! These pin down the contract between the protocol, the per-stage
//! [`SyncSample`] decomposition, and the [`TraceEvent`] stream:
//!
//! 1. the three stage durations sum *exactly* to the whole-round duration;
//! 2. the master's trace events for a round appear in three-stage protocol
//!    order, with timestamps consistent with the round's sample;
//! 3. a stalled machine produces the recovery events (`resend`, `removed`)
//!    and, once the stall lifts, a member-side `restarted` event;
//! 4. under serial turns every member's flush window opens before it
//!    closes, the turn a removal passes on included.

use std::sync::Arc;

use guesstimate_core::{args, GState, MachineId, OpRegistry, RestoreError, SharedOp, Value};
use guesstimate_net::{
    FaultPlan, LatencyModel, NetConfig, RecordingTracer, SimTime, StallWindow, TraceEvent,
    TraceRecord,
};
use guesstimate_runtime::{
    run_until_cohort, sim_cluster_instrumented, Flush, Machine, MachineConfig, SyncSample,
};
use guesstimate_telemetry::Telemetry;

/// The runtime crate's unit-test counter, reproduced here because the crate's
/// `testutil` module is `#[cfg(test)]`-gated and invisible to integration
/// tests.
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

/// Runs a traced 4-machine session with activity on every machine and
/// returns the master's sync samples plus the recorded trace.
fn traced_session() -> (Vec<SyncSample>, Vec<TraceRecord>) {
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(100))
        .with_stall_timeout(SimTime::from_secs(2));
    let netcfg = NetConfig::lan(11).with_latency(LatencyModel::constant_ms(10));
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
    // Ops from every machine, spread over a few rounds.
    for k in 0..12u64 {
        let t = net.now() + SimTime::from_millis(300 + 130 * k);
        let user = MachineId::new((k % 4) as u32);
        net.schedule_call(t, user, move |m: &mut Machine, _ctx| {
            let _ = m.issue(SharedOp::primitive(board, "add", args![1]));
        });
    }
    net.run_until(net.now() + SimTime::from_secs(8));

    let samples = net
        .actor(MachineId::new(0))
        .unwrap()
        .stats()
        .sync_samples
        .clone();
    (samples, tracer.take())
}

#[test]
fn stage_timings_decompose_round_duration() {
    let (samples, _) = traced_session();
    assert!(samples.len() > 10, "rounds completed: {}", samples.len());
    for s in &samples {
        assert_eq!(
            s.stage_sum(),
            s.duration,
            "round {}: stages {:?}+{:?}+{:?} must sum to {:?}",
            s.round,
            s.flush_duration,
            s.apply_duration,
            s.completion_duration,
            s.duration
        );
        assert!(
            s.flush_duration > SimTime::ZERO && s.apply_duration > SimTime::ZERO,
            "round {}: both round-trip stages take time under 10ms links",
            s.round
        );
    }
    assert!(
        samples.iter().any(|s| s.ops_committed > 0),
        "the scheduled ops commit"
    );
    assert!(
        samples.iter().all(|s| s.ops_flushed >= s.ops_committed),
        "without removals, everything flushed gets committed"
    );
}

#[test]
fn trace_ordering_matches_three_stage_protocol() {
    let (samples, records) = traced_session();
    let master = MachineId::new(0);
    assert!(!records.is_empty());

    for s in &samples {
        let round_events: Vec<&TraceRecord> = records
            .iter()
            .filter(|r| r.source == master && r.event.round() == Some(s.round))
            .collect();
        let pos = |name: &str| round_events.iter().position(|r| r.event.name() == name);
        let started = pos("round_started").expect("round_started traced");
        let begin_apply = pos("begin_apply").expect("begin_apply traced");
        let complete = pos("sync_complete").expect("sync_complete traced");
        assert!(
            started < begin_apply && begin_apply < complete,
            "round {}",
            s.round
        );
        for (i, r) in round_events.iter().enumerate() {
            match r.event {
                TraceEvent::FlushWindowClosed { .. } => {
                    assert!(started < i && i < begin_apply, "flush inside stage 1")
                }
                TraceEvent::AckReceived { .. } => {
                    assert!(begin_apply < i && i <= complete, "acks inside stage 2")
                }
                _ => {}
            }
        }

        // Timestamps agree with the sample's decomposition.
        assert_eq!(round_events[started].at, s.started_at);
        assert_eq!(
            round_events[begin_apply].at.saturating_since(s.started_at),
            s.flush_duration,
            "round {}: begin_apply marks the stage 1/2 boundary",
            s.round
        );
        assert_eq!(
            round_events[complete].at.saturating_since(s.started_at),
            s.duration,
            "round {}: sync_complete marks round end",
            s.round
        );

        // Stage 3 propagation: member receipts happen at or after the
        // master's broadcast.
        for r in records.iter().filter(|r| {
            r.source != master && r.event == TraceEvent::SyncCompleteReceived { round: s.round }
        }) {
            assert!(r.at >= round_events[complete].at, "round {}", s.round);
        }
    }
}

#[test]
fn recovery_round_emits_resend_and_removal_events() {
    let stalled = MachineId::new(2);
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(100))
        .with_stall_timeout(SimTime::from_millis(800));
    let faults = FaultPlan::new().with_stall(StallWindow::new(
        stalled,
        SimTime::from_secs(6),
        SimTime::from_secs(14),
    ));
    let netcfg = NetConfig::lan(23)
        .with_latency(LatencyModel::constant_ms(10))
        .with_faults(faults);
    let tracer = Arc::new(RecordingTracer::new());
    let mut net = sim_cluster_instrumented(
        3,
        counter_registry(),
        cfg,
        netcfg,
        Some(tracer.clone()),
        Telemetry::noop(),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(5)));
    net.run_until(SimTime::from_secs(30));

    let samples = net
        .actor(MachineId::new(0))
        .unwrap()
        .stats()
        .sync_samples
        .clone();
    let recovered: Vec<&SyncSample> = samples.iter().filter(|s| s.recovered()).collect();
    assert!(!recovered.is_empty(), "the stall forces recovery rounds");

    let records = tracer.take();
    let master = MachineId::new(0);
    let resend = records.iter().find(|r| {
        r.source == master
            && matches!(r.event, TraceEvent::Resend { machine, .. } if machine == stalled)
    });
    let removed = records.iter().find(|r| {
        r.source == master
            && matches!(r.event, TraceEvent::Removed { machine, .. } if machine == stalled)
    });
    let resend = resend.expect("master nudges the stalled machine first");
    let removed = removed.expect("then removes it from the round");
    assert!(resend.at < removed.at, "resend precedes removal");

    // The removal is visible in the matching sample too.
    let removal_round = removed.event.round().unwrap();
    let sample = samples.iter().find(|s| s.round == removal_round);
    assert!(
        sample.is_none_or(|s| s.removals > 0),
        "the removal round's sample records it"
    );

    // Once the stall lifts, the restarted member announces itself.
    let restarted = records
        .iter()
        .find(|r| r.source == stalled && r.event == TraceEvent::Restarted)
        .expect("stalled machine restarts after the window");
    assert!(restarted.at > removed.at);
    assert_eq!(
        net.actor(stalled).unwrap().stats().restarts,
        1,
        "stats agree with the trace"
    );
}

#[test]
fn a_turn_a_removal_passes_on_is_traced_before_it_closes() {
    // Serial turns over three machines: member 1 stalls through two
    // stage-1 timeouts, so the master nudges it, then removes it, and the
    // `RoundUpdate` opens member 2's turn.
    let (master, stalled, next) = (MachineId::new(0), MachineId::new(1), MachineId::new(2));
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(100))
        .with_stall_timeout(SimTime::from_millis(800))
        .with_flush(Flush::Serial);
    let faults = FaultPlan::new().with_stall(StallWindow::new(
        stalled,
        SimTime::from_secs(6),
        SimTime::from_secs(14),
    ));
    let netcfg = NetConfig::lan(23)
        .with_latency(LatencyModel::constant_ms(10))
        .with_faults(faults);
    let tracer = Arc::new(RecordingTracer::new());
    let mut net = sim_cluster_instrumented(
        3,
        counter_registry(),
        cfg,
        netcfg,
        Some(tracer.clone()),
        Telemetry::noop(),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(5)));
    net.run_until(SimTime::from_secs(20));

    let records: Vec<TraceRecord> = tracer
        .take()
        .into_iter()
        .filter(|r| r.source == master)
        .collect();
    let removed = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::Removed { machine, .. } if machine == stalled));
    let round = removed
        .expect("the stalled member is removed")
        .event
        .round();
    let find = |opened: bool| {
        records.iter().position(|r| match r.event {
            TraceEvent::FlushWindowOpened { round: n, machine } => {
                opened && Some(n) == round && machine == next
            }
            TraceEvent::FlushWindowClosed {
                round: n, machine, ..
            } => !opened && Some(n) == round && machine == next,
            _ => false,
        })
    };
    let closed = find(false).expect("member 2 flushes the removal round");
    let opened = find(true).expect("the removal opens member 2's window");
    assert!(opened < closed, "its window opens first");
    // And so does every machine's window of the run.
    for (i, r) in records.iter().enumerate() {
        if let TraceEvent::FlushWindowClosed { round, machine, .. } = r.event {
            let opening = TraceEvent::FlushWindowOpened { round, machine };
            let opened = records[..i].iter().any(|o| o.event == opening);
            assert!(opened, "round {round}: {machine:?}'s window never opened");
        }
    }
}

//! §7 "Failure and recovery": the narrative experiment.
//!
//! Paper: "During the one hour period ... GUESSTIMATE encountered three
//! failures, once when one of the machines was restarted while the
//! application was running, and twice when the synchronization was stalled
//! possibly because a message was lost in transmission. GUESSTIMATE
//! recovered in all three cases automatically ... and none of the other
//! users were even aware of the failure."
//!
//! We inject two machine stalls plus background message loss, and report
//! what recovery did — and that the survivors' states stayed consistent and
//! the system kept committing throughout.
//!
//! Usage: `failure_recovery [duration_secs] [seed]` (defaults: 600, 13).
//!
//! A full per-event protocol trace is written as JSON lines to
//! `target/failure_recovery_trace.jsonl` (override with
//! `GUESSTIMATE_TRACE=<path>`); the recovery rounds' timelines are printed
//! so each resend/removal can be followed through the three stages.
//! Metrics snapshots (Prometheus text, JSON, Chrome trace) land under the
//! `target/failure_recovery_metrics` stem (override with
//! `GUESSTIMATE_METRICS=<stem>`); see docs/OBSERVABILITY.md.

use guesstimate_bench::experiments::{run_session, ActivityLevel, SessionConfig};
use guesstimate_bench::{record_figure, render_timelines, summarize_rounds};
use guesstimate_core::MachineId;
use guesstimate_net::{FaultPlan, SimTime, StallWindow};

fn main() {
    let mut args = std::env::args().skip(1);
    let duration: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(600);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(13);

    let mut cfg = SessionConfig::paper_default(6, seed);
    cfg.duration = SimTime::from_secs(duration);
    cfg.stall_timeout = SimTime::from_secs(4);
    cfg.activity = ActivityLevel::Active {
        mean_think: SimTime::from_secs(1),
    };
    let third = SimTime::from_secs(duration / 3);
    cfg.faults = FaultPlan::new()
        .with_drop_prob(0.002)
        .with_stall(StallWindow::new(
            MachineId::new(2),
            third,
            third + SimTime::from_secs(20),
        ))
        .with_stall(StallWindow::new(
            MachineId::new(4),
            third + third,
            third + third + SimTime::from_secs(20),
        ));

    eprintln!("running failure/recovery session: 6 users, {duration}s, 2 stalls + 0.2% loss ...");
    let run = record_figure("failure_recovery", |tracer, telemetry| {
        run_session(&cfg, tracer, telemetry)
    });
    let r = &run.output;

    let resends: u64 = r.sync_samples.iter().map(|s| s.resends).sum();
    let removals: u64 = r.sync_samples.iter().map(|s| s.removals).sum();
    let recovered_rounds = r.sync_samples.iter().filter(|s| s.recovered()).count();
    let restarts: u64 = r.per_machine.iter().map(|s| s.restarts).sum();
    let lost: u64 = r.per_machine.iter().map(|s| s.ops_lost_to_restart).sum();

    println!("# Failure and recovery (cf. §7 narrative)");
    println!("injected faults          : 2 machine stalls (20s each), 0.2% message loss");
    println!("synchronizations         : {}", r.sync_samples.len());
    println!("rounds needing recovery  : {recovered_rounds}");
    println!("recovery resends         : {resends}");
    println!("machines removed/restarted: {removals} removals, {restarts} restarts");
    println!("ticks held for a joiner  : {}", r.join_holds_summary());
    println!("pending ops lost to restart: {lost}");
    println!("ops issued/committed     : {}/{}", r.issued, r.committed);
    println!(
        "bytes sent/delivered     : {}/{}",
        r.net.bytes_sent, r.net.bytes_delivered
    );
    println!(
        "max executions per op    : {}  [paper bound: 3]",
        run.telemetry.max_exec_count()
    );
    println!("survivors converged      : {}", r.converged);
    println!();
    println!("# expected shape: a handful of recovery rounds, every stalled machine");
    println!("# automatically restarted and re-admitted, and the remaining users'");
    println!("# committed states identical at the end — they never noticed.");

    // Stage-level timelines of exactly the rounds recovery touched.
    let recovery: Vec<_> = summarize_rounds(&run.records)
        .into_iter()
        .filter(|t| t.resends > 0 || t.removals > 0)
        .collect();
    println!();
    println!(
        "# recovery-round timelines ({} rounds; full trace: {}):",
        recovery.len(),
        run.trace_path.display()
    );
    print!("{}", render_timelines(&recovery));
    assert!(r.converged, "survivors must converge");
}

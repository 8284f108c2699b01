//! Cluster-level telemetry integration: per-op span lifecycle under
//! message loss, and observational invisibility of the instrumented run
//! (docs/OBSERVABILITY.md) and of the witness-checked run
//! (docs/ANALYSIS.md "Soundness").

use guesstimate::apps::sudoku::{self, Sudoku};
use guesstimate::net::{FaultPlan, LatencyModel, NetConfig, SimTime};
use guesstimate::runtime::{
    run_until_cohort, sim_cluster_instrumented, Checks, Machine, MachineConfig,
};
use guesstimate::telemetry::Telemetry;
use guesstimate::{MachineId, OpRegistry};

/// A short seeded session with background message loss: 4 users issue
/// `moves_each` Sudoku moves while a share of the messages is dropped,
/// forcing stall recovery (resends, re-flushes) to carry rounds to
/// completion. `witnessed` turns on the per-step invariant replays and the
/// access-witness containment check (read probing included) at every apply
/// site — a witnessed apply re-executes once per uncovered path, so keep
/// `moves_each` small with it.
fn lossy_session(
    seed: u64,
    drop_prob: f64,
    moves_each: u64,
    telemetry: Telemetry,
    witnessed: bool,
) -> Vec<Machine> {
    let users = 4u32;
    let mut registry = OpRegistry::new();
    sudoku::register(&mut registry);
    let mut net = sim_cluster_instrumented(
        users,
        registry,
        MachineConfig::default()
            .with_sync_period(SimTime::from_millis(150))
            .with_stall_timeout(SimTime::from_secs(2))
            .with_checks(if witnessed {
                Checks::Assert
            } else {
                Checks::Off
            })
            .with_witness_reads(witnessed),
        NetConfig::lan(seed)
            .with_latency(LatencyModel::lan_ms(20))
            .with_faults(FaultPlan::new().with_drop_prob(drop_prob)),
        None,
        telemetry,
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(15)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(sudoku::example_puzzle());
    net.run_until(net.now() + SimTime::from_secs(1));
    for i in 0..users {
        for k in 0..moves_each {
            net.schedule_call(
                net.now() + SimTime::from_millis(120 * k + u64::from(i) * 31),
                MachineId::new(i),
                move |m: &mut Machine, _| {
                    if let Some(moves) = m.read::<Sudoku, _>(board, |s| s.candidate_moves()) {
                        if let Some(&(r, c, v)) = moves.get((k % 5) as usize) {
                            let _ = m.issue(sudoku::ops::update(board, r, c, v));
                        }
                    }
                },
            );
        }
    }
    net.run_until(net.now() + SimTime::from_secs(40));
    (0..users)
        .map(|i| net.remove_machine(MachineId::new(i)).unwrap())
        .collect()
}

/// Counts a named counter in the Prometheus rendering.
fn prom_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from Prometheus output"))
}

/// Message loss makes flushes disappear mid-round; recovery re-flushes
/// them. A re-flush must bump the flush counter but never duplicate the
/// operation's span, and the paper's ≤3 execution bound must survive.
#[test]
fn spans_stay_unique_under_message_loss() {
    let telemetry = Telemetry::new();
    let machines = lossy_session(11, 0.05, 40, telemetry.clone(), false);

    let spans = telemetry.spans();
    assert!(!spans.is_empty(), "lossy session still commits ops");
    let mut ids: Vec<_> = spans.iter().map(|s| s.op).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len(), "exactly one span per operation");

    for s in &spans {
        assert!(
            s.exec_count <= 3,
            "{:?} executed {} times",
            s.op,
            s.exec_count
        );
        if let (Some(issued), Some(flushed)) = (s.issued_at, s.flushed_at) {
            assert!(issued <= flushed, "{:?}: flushed before issued", s.op);
        }
        if let (Some(flushed), Some(committed)) = (s.flushed_at, s.committed_at) {
            assert!(flushed <= committed, "{:?}: committed before flushed", s.op);
        }
    }

    // Re-flushes are visible in the counter, not as extra spans: the
    // flush broadcasts must be at least as numerous as the distinct
    // flushed operations, strictly more once recovery re-flushed any.
    let prom = telemetry.render_prometheus();
    let flush_broadcasts = prom_counter(&prom, "guesstimate_ops_flushed_total");
    let flushed_spans = spans.iter().filter(|s| s.flushed_at.is_some()).count() as u64;
    assert!(
        flush_broadcasts >= flushed_spans,
        "flush broadcasts {flush_broadcasts} < distinct flushed ops {flushed_spans}"
    );

    let committed: u64 = machines.iter().map(|m| m.stats().committed_own).sum();
    assert!(committed > 0);
    assert_eq!(telemetry.ops_committed(), committed);
    assert_eq!(telemetry.commit_lag_count(), committed);
}

/// Observational invisibility: running the identical seeded session with
/// a live telemetry handle and with the no-op handle must commit
/// byte-identical histories on every machine.
#[test]
fn telemetry_is_observationally_invisible() {
    let instrumented = lossy_session(7, 0.02, 40, Telemetry::new(), false);
    let noop = lossy_session(7, 0.02, 40, Telemetry::noop(), false);
    assert_same_outcome(&instrumented, &noop, "telemetry");
}

/// The witness layer observes, never perturbs: the identical seeded
/// session with paranoid checks and witness read probing on ends with the
/// same committed digest, issue count and commit count on every machine.
#[test]
fn witness_checks_are_observationally_invisible() {
    let witnessed = lossy_session(7, 0.02, 10, Telemetry::noop(), true);
    let plain = lossy_session(7, 0.02, 10, Telemetry::noop(), false);
    assert!(
        witnessed.iter().all(|m| m.witness_violations().is_empty()),
        "Sudoku's declared footprints are honest"
    );
    assert_same_outcome(&witnessed, &plain, "witness checking");
}

/// Both runs of one seeded session committed byte-identical histories from
/// the same issues, and the comparison covers real commits.
fn assert_same_outcome(observed: &[Machine], plain: &[Machine], what: &str) {
    assert_eq!(observed.len(), plain.len());
    for (a, b) in observed.iter().zip(plain) {
        assert_eq!(
            a.committed_digest(),
            b.committed_digest(),
            "{}: {what} perturbed the committed history",
            a.id()
        );
        assert_eq!(a.stats().committed_own, b.stats().committed_own);
        assert_eq!(a.stats().issued, b.stats().issued);
    }
    let committed: u64 = observed.iter().map(|m| m.stats().committed_own).sum();
    assert!(committed > 0, "the comparison must cover real commits");
}

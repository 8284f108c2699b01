//! §4 "Bounded re-executions": each operation executes at most three times
//! (issue, at most one replay while re-establishing `sg = [P](sc)`, commit)
//! — checked under dense schedules, many seeds, and varying cluster sizes.

use guesstimate::apps::sudoku::{self, Sudoku};
use guesstimate::net::{LatencyModel, NetConfig, SimTime};
use guesstimate::runtime::{
    run_until_cohort, sim_cluster_instrumented, Checks, Machine, MachineConfig,
};
use guesstimate::telemetry::Telemetry;
use guesstimate::{MachineId, OpRegistry};

fn run_dense_session(users: u32, seed: u64, latency_ms: u64) -> Vec<Machine> {
    run_dense_session_with(users, seed, latency_ms, Telemetry::noop())
}

fn run_dense_session_with(
    users: u32,
    seed: u64,
    latency_ms: u64,
    telemetry: Telemetry,
) -> Vec<Machine> {
    let cfg = MachineConfig::default().with_sync_period(SimTime::from_millis(120));
    let links = LatencyModel::lan_ms(latency_ms);
    run_dense_session_under(cfg, users, seed, links, telemetry)
}

fn run_dense_session_under(
    cfg: MachineConfig,
    users: u32,
    seed: u64,
    links: LatencyModel,
    telemetry: Telemetry,
) -> Vec<Machine> {
    let mut registry = OpRegistry::new();
    sudoku::register(&mut registry);
    let mut net = sim_cluster_instrumented(
        users,
        registry,
        cfg.with_stall_timeout(SimTime::from_secs(2)),
        NetConfig::lan(seed).with_latency(links),
        None,
        telemetry,
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(15)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(sudoku::example_puzzle());
    net.run_until(net.now() + SimTime::from_secs(1));
    // Dense, jittered issue schedule: many ops land mid-round, earning the
    // third (replay) execution.
    for i in 0..users {
        for k in 0..50u64 {
            let jitter = (seed
                .wrapping_mul(2654435761)
                .wrapping_add(k * 97 + u64::from(i) * 13))
                % 53;
            net.schedule_call(
                net.now() + SimTime::from_millis(40 * k + jitter),
                MachineId::new(i),
                move |m: &mut Machine, _| {
                    if let Some(moves) = m.read::<Sudoku, _>(board, |s| s.candidate_moves()) {
                        if let Some(&(r, c, v)) = moves.get((k % 7) as usize) {
                            let _ = m.issue(sudoku::ops::update(board, r, c, v));
                        }
                    }
                },
            );
        }
    }
    net.run_until(net.now() + SimTime::from_secs(20));
    (0..users)
        .map(|i| net.remove_machine(MachineId::new(i)).unwrap())
        .collect()
}

#[test]
fn ops_execute_at_most_three_times_across_seeds() {
    for seed in [1u64, 17, 23, 99] {
        let machines = run_dense_session(4, seed, 25);
        let mut twos = 0u64;
        let mut threes = 0u64;
        for m in &machines {
            let st = m.stats();
            assert!(
                st.max_exec_count <= 3,
                "seed {seed}, {}: executed {} times",
                m.id(),
                st.max_exec_count
            );
            assert_eq!(
                st.exec_histogram[0], 0,
                "no op commits with zero executions"
            );
            assert_eq!(
                st.exec_histogram[1], 0,
                "every op at least issues + commits"
            );
            twos += st.exec_histogram[2];
            threes += st.exec_histogram[3];
        }
        assert!(twos > 0, "seed {seed}: common case is two executions");
        assert!(
            threes > 0,
            "seed {seed}: dense schedule produces replayed (3x) ops"
        );
    }
}

/// Two rounds in flight: a round is four ~10 ms links and the master asks
/// for one every 5 ms, so each round begins while the one before is still
/// being applied. The bound is tight there -- a machine that flushed round
/// r + 1 before it had applied round r would replay an operation issued in
/// between twice -- and `Checks::Assert` re-validates `sg = [P](sc)` after
/// every step of every machine.
///
/// The master flushes last, as stage 1 closes, and applies in the same step
/// with nothing pending: on links that keep a sender's order (`jitter` off,
/// every batch in ahead of its `FlushDone`) each of its operations executes
/// exactly twice, issue and commit. A batch that trails its `FlushDone`
/// makes the master wait between its cut and its apply, and what it issues
/// meanwhile is replayed once, as a member's would be.
#[test]
fn bound_holds_with_a_round_beginning_under_every_round() {
    let runs = [1u64, 17, 23, 99].map(|seed| (seed, true));
    for (seed, jitter) in runs.into_iter().chain([(1, false), (17, false)]) {
        let cfg = MachineConfig::default()
            .with_sync_period(SimTime::from_millis(5))
            .with_checks(Checks::Assert);
        let links = match jitter {
            true => LatencyModel::lan_ms(10),
            false => LatencyModel::constant_ms(10),
        };
        let machines = run_dense_session_under(cfg, 4, seed, links, Telemetry::noop());
        let master = machines[0].stats();
        let rounds = master.sync_samples.len() as u64;
        assert!(
            master.rounds_overlapped * 10 >= rounds * 9,
            "seed {seed}: {} of {rounds} rounds began under another",
            master.rounds_overlapped
        );
        assert_eq!(
            master.sync_samples.iter().map(|s| s.removals).sum::<u64>(),
            0
        );
        let mut histogram = [0u64; 8];
        for m in &machines {
            assert!(m.check_guess_invariant(), "seed {seed}, {}", m.id());
            assert_eq!(m.stats().restarts, 0, "seed {seed}, {}", m.id());
            for (total, n) in histogram.iter_mut().zip(m.stats().exec_histogram) {
                *total += n;
            }
        }
        assert_eq!(histogram[0] + histogram[1], 0, "seed {seed}");
        assert!(
            histogram[2] > 0 && histogram[3] > 0,
            "seed {seed}: {histogram:?}"
        );
        let [.., twice, thrice, _, _, _, _] = master.exec_histogram;
        assert!(
            twice > 0 && (jitter || thrice == 0),
            "seed {seed}: the master's own {:?}",
            master.exec_histogram
        );
        assert_eq!(
            histogram[4..].iter().sum::<u64>(),
            0,
            "seed {seed}: {histogram:?}"
        );
    }
}

#[test]
fn bound_holds_for_larger_clusters_and_slower_links() {
    let machines = run_dense_session(8, 5, 60);
    for m in &machines {
        assert!(m.stats().max_exec_count <= 3, "{}", m.id());
    }
    // And the aggregate histogram only has mass at 2 and 3.
    let mut total = [0u64; 8];
    for m in &machines {
        for (i, v) in m.stats().exec_histogram.iter().enumerate() {
            total[i] += v;
        }
    }
    assert_eq!(total[0] + total[1], 0);
    assert!(
        total[2] + total[3] > 100,
        "plenty of committed ops measured"
    );
    assert_eq!(total[4..].iter().sum::<u64>(), 0, "nothing beyond three");
}

/// The same bound, re-asserted through the telemetry layer: the
/// exec-count histogram a shared [`Telemetry`] handle accumulates across
/// the whole cluster must have zero mass above bucket 3, and its span
/// tally must agree with the runtime's own commit statistics.
#[test]
fn bound_reasserted_through_telemetry_histograms() {
    let telemetry = Telemetry::new();
    let machines = run_dense_session_with(4, 17, 25, telemetry.clone());

    assert!(
        telemetry.max_exec_count() <= 3,
        "telemetry saw an op execute {} times",
        telemetry.max_exec_count()
    );
    assert_eq!(
        telemetry.exec_count_above(3),
        0,
        "exec-count histogram must have zero mass above bucket 3"
    );

    let committed: u64 = machines.iter().map(|m| m.stats().committed_own).sum();
    assert!(committed > 0, "dense schedule commits ops");
    assert_eq!(
        telemetry.ops_committed(),
        committed,
        "one span commit per runtime commit"
    );
    assert_eq!(
        telemetry.commit_lag_count(),
        committed,
        "one commit-lag sample per commit"
    );
}

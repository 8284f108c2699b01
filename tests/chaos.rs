//! Chaos soak: every fault mode at once — background loss and duplication,
//! stalls, a partition, a permanent crash of a non-master, membership churn
//! and a master failover — under continuous load. The survivors must end
//! identical, drained, and invariant-clean.

use guesstimate::apps::sudoku::{self, Sudoku};
use guesstimate::net::{FaultPlan, LatencyModel, NetConfig, PartitionWindow, SimTime, StallWindow};
use guesstimate::runtime::{run_until_cohort, sim_cluster, Checks, Machine, MachineConfig};
use guesstimate::{MachineId, OpRegistry};

#[test]
fn everything_at_once_soak() {
    let n = 6u32;
    let faults = FaultPlan::new()
        .with_drop_prob(0.01)
        .with_dup_prob(0.01)
        // m2 stalls mid-run.
        .with_stall(StallWindow::new(
            MachineId::new(2),
            SimTime::from_secs(20),
            SimTime::from_secs(26),
        ))
        // m4+m5 get partitioned away for a while.
        .with_partition(PartitionWindow::new(
            vec![MachineId::new(4), MachineId::new(5)],
            SimTime::from_secs(35),
            SimTime::from_secs(45),
        ))
        // m3 dies for good.
        .with_crash(MachineId::new(3), SimTime::from_secs(55));
    let mut registry = OpRegistry::new();
    sudoku::register(&mut registry);
    let mut net = sim_cluster(
        n,
        registry.clone(),
        MachineConfig::default()
            .with_sync_period(SimTime::from_millis(150))
            .with_stall_timeout(SimTime::from_millis(900))
            .with_join_retry(SimTime::from_millis(500))
            .with_checks(Checks::Assert),
        NetConfig::lan(4242)
            .with_latency(LatencyModel::lan_ms(20))
            .with_faults(faults),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));
    // Several boards so activity never dries up.
    let boards: Vec<_> = {
        let master = net.actor_mut(MachineId::new(0)).unwrap();
        (0..4)
            .map(|_| master.create_instance(sudoku::example_puzzle()))
            .collect()
    };
    net.run_until(SimTime::from_secs(12));

    // Continuous activity on every machine for 70 seconds.
    for i in 0..n {
        for k in 0..230u64 {
            let b = boards[((k + u64::from(i)) % 4) as usize];
            net.schedule_call(
                SimTime::from_secs(12) + SimTime::from_millis(300 * k + 29 * u64::from(i)),
                MachineId::new(i),
                move |m: &mut Machine, _| {
                    if let Some(moves) = m.read::<Sudoku, _>(b, |s| s.candidate_moves()) {
                        if let Some(&(r, c, v)) = moves.get(((k * 7 + 3) % 11) as usize) {
                            let _ = m.issue(sudoku::ops::update(b, r, c, v));
                        }
                    }
                },
            );
        }
    }
    // A late joiner arrives mid-chaos.
    net.schedule_join(
        SimTime::from_secs(30),
        MachineId::new(6),
        Machine::new_member(
            MachineId::new(6),
            std::sync::Arc::new(registry),
            MachineConfig::default()
                .with_sync_period(SimTime::from_millis(150))
                .with_stall_timeout(SimTime::from_millis(900))
                .with_join_retry(SimTime::from_millis(500))
                .with_checks(Checks::Assert),
        ),
    );

    // Long quiet tail so every recovery path finishes.
    net.run_until(SimTime::from_secs(120));

    // m3 crashed; everyone else should be alive and in the cohort.
    assert!(net.actor(MachineId::new(3)).is_none());
    let alive: Vec<u32> = [0u32, 1, 2, 4, 5, 6]
        .into_iter()
        .filter(|&i| {
            net.actor(MachineId::new(i))
                .map(Machine::in_cohort)
                .unwrap_or(false)
        })
        .collect();
    assert!(
        alive.len() >= 5,
        "almost everyone recovered into the cohort: {alive:?}"
    );
    let digests: Vec<u64> = alive
        .iter()
        .map(|&i| net.actor(MachineId::new(i)).unwrap().committed_digest())
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "survivors agree: {digests:?}"
    );
    for &i in &alive {
        let m = net.actor(MachineId::new(i)).unwrap();
        assert_eq!(m.pending_len(), 0, "m{i} drained");
        assert!(m.check_guess_invariant(), "m{i}: [P](sc) = sg");
        assert!(m.stats().max_exec_count <= 3, "m{i}: bounded re-execution");
    }
    // The chaos actually happened.
    let master_stats = net.actor(MachineId::new(0)).unwrap().stats();
    let removals: u64 = master_stats.sync_samples.iter().map(|s| s.removals).sum();
    let resends: u64 = master_stats.sync_samples.iter().map(|s| s.resends).sum();
    assert!(removals >= 2, "stall + partition evictions: {removals}");
    assert!(resends >= 2, "loss-driven resends: {resends}");
    assert!(net.metrics().dropped > 50);
    assert!(net.metrics().duplicated > 10);
    // And real work committed throughout.
    let committed: u64 = alive
        .iter()
        .map(|&i| net.actor(MachineId::new(i)).unwrap().stats().committed_own)
        .sum();
    assert!(
        committed > 150,
        "substantial committed workload: {committed}"
    );
}

//! Fault-tolerance integration tests (§4 "Failures and fault tolerance",
//! §7 "Failure and recovery"): stalls, permanent crashes, message loss and
//! duplication — the survivors must stay consistent and live.

use guesstimate::apps::sudoku::{self, Sudoku};
use guesstimate::net::{FaultPlan, LatencyModel, NetConfig, SimTime, StallWindow};
use guesstimate::runtime::{run_until_cohort, sim_cluster, Checks, Machine, MachineConfig};
use guesstimate::{MachineId, OpRegistry};

fn registry() -> OpRegistry {
    let mut r = OpRegistry::new();
    sudoku::register(&mut r);
    r
}

fn mcfg() -> MachineConfig {
    MachineConfig::default()
        .with_sync_period(SimTime::from_millis(150))
        .with_stall_timeout(SimTime::from_millis(700))
        .with_join_retry(SimTime::from_millis(400))
        .with_checks(Checks::Assert)
}

fn schedule_activity(
    net: &mut guesstimate::net::SimNet<Machine>,
    board: guesstimate::ObjectId,
    users: &[u32],
    events: u64,
    gap_ms: u64,
) {
    let start = net.now();
    for (slot, &i) in users.iter().enumerate() {
        for k in 0..events {
            net.schedule_call(
                start + SimTime::from_millis(gap_ms * k + 17 * slot as u64),
                MachineId::new(i),
                move |m: &mut Machine, _| {
                    if let Some(moves) = m.read::<Sudoku, _>(board, |s| s.candidate_moves()) {
                        if let Some(&(r, c, v)) = moves.get((k % 9) as usize) {
                            let _ = m.issue(sudoku::ops::update(board, r, c, v));
                        }
                    }
                },
            );
        }
    }
}

fn assert_agree(net: &guesstimate::net::SimNet<Machine>, ids: &[u32]) {
    let digests: Vec<u64> = ids
        .iter()
        .map(|&i| net.actor(MachineId::new(i)).unwrap().committed_digest())
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged: {digests:?}"
    );
}

#[test]
fn permanent_crash_of_a_member_does_not_block_the_rest() {
    let faults = FaultPlan::new().with_crash(MachineId::new(2), SimTime::from_secs(8));
    let mut net = sim_cluster(
        4,
        registry(),
        mcfg(),
        NetConfig::lan(3)
            .with_latency(LatencyModel::constant_ms(15))
            .with_faults(faults),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(6)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(sudoku::example_puzzle());
    net.run_until(SimTime::from_secs(7));
    schedule_activity(&mut net, board, &[0, 1, 3], 40, 300);
    net.run_until(SimTime::from_secs(30));

    // The dead machine is gone; the master removed it from membership.
    assert!(net.actor(MachineId::new(2)).is_none());
    let master = net.actor(MachineId::new(0)).unwrap();
    assert_eq!(master.members().len(), 3, "crashed machine evicted");
    // Rounds continued after the crash.
    let post_crash_rounds = master
        .stats()
        .sync_samples
        .iter()
        .filter(|s| s.started_at > SimTime::from_secs(10))
        .count();
    assert!(
        post_crash_rounds > 20,
        "rounds kept completing: {post_crash_rounds}"
    );
    assert_agree(&net, &[0, 1, 3]);
    for i in [0u32, 1, 3] {
        assert_eq!(net.actor(MachineId::new(i)).unwrap().pending_len(), 0);
    }
}

#[test]
fn overlapping_stalls_on_two_machines_recover() {
    let faults = FaultPlan::new()
        .with_stall(StallWindow::new(
            MachineId::new(1),
            SimTime::from_secs(8),
            SimTime::from_secs(12),
        ))
        .with_stall(StallWindow::new(
            MachineId::new(3),
            SimTime::from_secs(10),
            SimTime::from_secs(14),
        ));
    let mut net = sim_cluster(
        4,
        registry(),
        mcfg(),
        NetConfig::lan(5)
            .with_latency(LatencyModel::constant_ms(15))
            .with_faults(faults),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(6)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(sudoku::example_puzzle());
    net.run_until(SimTime::from_secs(7));
    schedule_activity(&mut net, board, &[0, 2], 60, 200);
    net.run_until(SimTime::from_secs(40));

    // Both stalled machines were restarted and rejoined.
    for i in [1u32, 3] {
        let m = net.actor(MachineId::new(i)).unwrap();
        assert!(m.stats().restarts >= 1, "m{i} restarted");
        assert!(m.in_cohort(), "m{i} rejoined");
    }
    assert_agree(&net, &[0, 1, 2, 3]);
    let master = net.actor(MachineId::new(0)).unwrap();
    let removals: u64 = master.stats().sync_samples.iter().map(|s| s.removals).sum();
    assert!(
        removals >= 2,
        "both stalled machines were removed at least once"
    );
}

#[test]
fn loss_and_duplication_together_still_converge() {
    let faults = FaultPlan::new().with_drop_prob(0.02).with_dup_prob(0.05);
    let mut net = sim_cluster(
        3,
        registry(),
        mcfg(),
        NetConfig::lan(11)
            .with_latency(LatencyModel::lan_ms(15))
            .with_faults(faults),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(20)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(sudoku::example_puzzle());
    net.run_until(net.now() + SimTime::from_secs(1));
    schedule_activity(&mut net, board, &[0, 1, 2], 30, 400);
    net.run_until(net.now() + SimTime::from_secs(60));

    let in_cohort: Vec<u32> = (0..3)
        .filter(|&i| net.actor(MachineId::new(i)).unwrap().in_cohort())
        .collect();
    assert!(in_cohort.len() >= 2);
    assert_agree(&net, &in_cohort);
    for &i in &in_cohort {
        let m = net.actor(MachineId::new(i)).unwrap();
        assert_eq!(m.pending_len(), 0, "m{i} drained");
        assert!(m.check_guess_invariant());
    }
    // Duplication really happened and was tolerated.
    assert!(net.metrics().duplicated > 0);
    assert!(net.metrics().dropped > 0);
}

#[test]
fn stall_during_flush_vs_stall_during_ack_both_recover() {
    // Two separate short stalls positioned to hit different stages: the
    // exact stage is timing-dependent, but both paths (missing FlushDone →
    // nudge → remove; missing Ack → resend BeginApply → remove) must end
    // with a consistent cluster.
    for (from_s, seed) in [(8u64, 41), (8u64, 43)] {
        let faults = FaultPlan::new().with_stall(StallWindow::new(
            MachineId::new(1),
            SimTime::from_secs(from_s),
            SimTime::from_secs(from_s + 3),
        ));
        let mut net = sim_cluster(
            3,
            registry(),
            mcfg(),
            NetConfig::lan(seed)
                .with_latency(LatencyModel::lan_ms(20))
                .with_faults(faults),
        );
        assert!(run_until_cohort(&mut net, SimTime::from_secs(6)));
        let board = net
            .actor_mut(MachineId::new(0))
            .unwrap()
            .create_instance(sudoku::example_puzzle());
        net.run_until(SimTime::from_secs(7));
        schedule_activity(&mut net, board, &[0, 1, 2], 30, 250);
        net.run_until(SimTime::from_secs(30));
        assert_agree(&net, &[0, 1, 2]);
        assert!(
            net.actor(MachineId::new(1)).unwrap().in_cohort(),
            "seed {seed}: stalled machine back in the cohort"
        );
    }
}

#[test]
fn partition_isolates_minority_then_heals() {
    // Machines 3 and 4 are cut off from the master's side for 8 seconds.
    // The master removes them from rounds (they look stalled); on heal they
    // rejoin through the membership path and converge.
    use guesstimate::net::PartitionWindow;
    let faults = FaultPlan::new().with_partition(PartitionWindow::new(
        vec![MachineId::new(3), MachineId::new(4)],
        SimTime::from_secs(8),
        SimTime::from_secs(16),
    ));
    let mut net = sim_cluster(
        5,
        registry(),
        mcfg(),
        NetConfig::lan(21)
            .with_latency(LatencyModel::constant_ms(15))
            .with_faults(faults),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(6)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(sudoku::example_puzzle());
    net.run_until(SimTime::from_secs(7));
    schedule_activity(&mut net, board, &[0, 1, 2], 50, 300);
    // During the partition the majority side keeps committing.
    net.run_until(SimTime::from_secs(15));
    assert!(
        net.actor(MachineId::new(0)).unwrap().members().len() <= 3,
        "minority evicted during the partition"
    );
    let majority_commits = net.actor(MachineId::new(0)).unwrap().completed_len();
    assert!(majority_commits > 10, "majority made progress");
    // After the heal, everyone is back and identical.
    net.run_until(SimTime::from_secs(40));
    for i in [3u32, 4] {
        let m = net.actor(MachineId::new(i)).unwrap();
        assert!(m.in_cohort(), "m{i} rejoined after the heal");
    }
    assert_agree(&net, &[0, 1, 2, 3, 4]);
    assert_eq!(net.actor(MachineId::new(0)).unwrap().members().len(), 5);
}

//! Refinement: the runtime implements the operational semantics.
//!
//! §3: "The committed state sc is obtained by executing the sequence of
//! completed operations C from the initial state", and all machines agree
//! on `C`. We record the full committed history of a live runtime session
//! (kept whenever `MachineConfig::checks` are on) and check:
//!
//! 1. every machine recorded the *same* history (agreement on `C`);
//! 2. replaying that history from the empty store — through the exact
//!    `Create`/`Shared` execution semantics — reproduces the runtime's
//!    committed state bit-for-bit (simulation of R3*);
//! 3. replaying the shared-op suffix through the *semantics crate*'s
//!    commit-order replay yields the same state again.

use guesstimate::apps::sudoku::{self, Sudoku};
use guesstimate::core::{execute, ObjectStore, SharedOp};
use guesstimate::net::{LatencyModel, NetConfig, SimTime};
use guesstimate::runtime::{run_until_cohort, sim_cluster, Checks, Machine, MachineConfig, WireOp};
use guesstimate::semantics::replay_in_commit_order;
use guesstimate::{MachineId, OpRegistry};

fn registry() -> OpRegistry {
    let mut r = OpRegistry::new();
    sudoku::register(&mut r);
    r
}

/// Replays a recorded wire history (creation + shared ops) from scratch.
fn replay_history(history: &[guesstimate::runtime::WireEnvelope], reg: &OpRegistry) -> ObjectStore {
    let mut store = ObjectStore::new();
    for env in history {
        match &env.op {
            WireOp::Create {
                object,
                type_name,
                init,
            } => {
                let mut obj = reg.construct(type_name).expect("registered");
                obj.restore(init).expect("snapshot matches");
                store.insert(*object, obj);
            }
            WireOp::Shared(op) => {
                let _ = execute(op, &mut store, reg);
            }
            // Cross markers are multi-group placeholders; this workload is
            // single-group, so none can appear in its history.
            WireOp::CrossMarker { .. } => panic!("single-group history has no cross markers"),
        }
    }
    store
}

#[test]
fn runtime_committed_state_equals_history_replay() {
    let n = 4u32;
    let mut net = sim_cluster(
        n,
        registry(),
        MachineConfig::default()
            .with_sync_period(SimTime::from_millis(100))
            .with_stall_timeout(SimTime::from_secs(1))
            .with_checks(Checks::Assert),
        NetConfig::lan(13).with_latency(LatencyModel::lan_ms(20)),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(sudoku::example_puzzle());
    net.run_until(net.now() + SimTime::from_secs(1));
    for i in 0..n {
        for k in 0..30u64 {
            net.schedule_call(
                net.now() + SimTime::from_millis(70 * k + 11 * u64::from(i)),
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
    net.run_until(net.now() + SimTime::from_secs(10));

    // (1) Agreement on C: every machine recorded the identical history.
    let histories: Vec<Vec<guesstimate::runtime::WireEnvelope>> = (0..n)
        .map(|i| net.actor(MachineId::new(i)).unwrap().history().to_vec())
        .collect();
    for (i, h) in histories.iter().enumerate() {
        assert_eq!(
            h.len(),
            histories[0].len(),
            "m{i} recorded a different history length"
        );
        assert_eq!(h, &histories[0], "m{i} recorded a different history");
    }
    assert!(histories[0].len() > 50, "substantial history recorded");

    // (2) Replaying C from the empty store reproduces sc exactly.
    let reg = registry();
    let replayed = replay_history(&histories[0], &reg);
    for i in 0..n {
        let m = net.actor(MachineId::new(i)).unwrap();
        assert_eq!(
            replayed.digest(),
            m.committed_digest(),
            "m{i}: sc is not the fold of C over the initial state"
        );
    }

    // (3) The shared-op suffix (everything after the creation prefix)
    // replayed through the semantics crate agrees too.
    let create_prefix: usize = histories[0]
        .iter()
        .take_while(|e| matches!(e.op, WireOp::Create { .. }))
        .count();
    let initial = replay_history(&histories[0][..create_prefix], &reg);
    let shared_ops: Vec<SharedOp> = histories[0][create_prefix..]
        .iter()
        .map(|e| match &e.op {
            WireOp::Shared(op) => op.clone(),
            WireOp::Create { .. } => panic!("creations must form a prefix in this workload"),
            WireOp::CrossMarker { .. } => panic!("single-group history has no cross markers"),
        })
        .collect();
    let semantic = replay_in_commit_order(&initial, &shared_ops, &reg);
    assert_eq!(semantic.digest(), replayed.digest());
}

#[test]
fn histories_agree_even_with_message_loss() {
    let n = 3u32;
    let faults = guesstimate::net::FaultPlan::new().with_drop_prob(0.01);
    let mut net = sim_cluster(
        n,
        registry(),
        MachineConfig::default()
            .with_sync_period(SimTime::from_millis(100))
            .with_stall_timeout(SimTime::from_millis(600))
            .with_checks(Checks::Assert),
        NetConfig::lan(31)
            .with_latency(LatencyModel::constant_ms(10))
            .with_faults(faults),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(20)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(sudoku::example_puzzle());
    net.run_until(net.now() + SimTime::from_secs(1));
    for i in 0..n {
        for k in 0..20u64 {
            net.schedule_call(
                net.now() + SimTime::from_millis(150 * k + 31 * u64::from(i)),
                MachineId::new(i),
                move |m: &mut Machine, _| {
                    if let Some(moves) = m.read::<Sudoku, _>(board, |s| s.candidate_moves()) {
                        if let Some(&(r, c, v)) = moves.first() {
                            let _ = m.issue(sudoku::ops::update(board, r, c, v));
                        }
                    }
                },
            );
        }
    }
    net.run_until(net.now() + SimTime::from_secs(30));

    // Restarted machines rebuild their committed state from a snapshot, so
    // their recorded histories are suffixes; compare only machines that
    // never restarted, and require at least two of them.
    let stable: Vec<u32> = (0..n)
        .filter(|&i| {
            let m = net.actor(MachineId::new(i)).unwrap();
            m.in_cohort() && m.stats().restarts == 0
        })
        .collect();
    assert!(stable.len() >= 2, "need at least two stable machines");
    let reference = net
        .actor(MachineId::new(stable[0]))
        .unwrap()
        .history()
        .to_vec();
    for &i in &stable[1..] {
        assert_eq!(
            net.actor(MachineId::new(i)).unwrap().history(),
            &reference[..],
            "m{i} diverged from m{}",
            stable[0]
        );
    }
    // And the fold-of-C property still holds for stable machines.
    let reg = registry();
    let replayed = replay_history(&reference, &reg);
    assert_eq!(
        replayed.digest(),
        net.actor(MachineId::new(stable[0]))
            .unwrap()
            .committed_digest()
    );
}

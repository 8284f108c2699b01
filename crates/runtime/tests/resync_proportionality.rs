//! The `sc → sg` resync costs what a round touched, not what the store
//! holds: two hot boards plus N populated bystanders, the same seed and
//! operation stream for every N, and the per-round count of objects the
//! resync visited ([`MachineStats::objects_resynced`]) must not depend on N
//! and must stay within the objects the round's committed operations and
//! the machine's own pending list touch.
//!
//! `Checks::Assert` is on throughout, so the whole-store oracle
//! ([`Machine::check_guess_invariant`]) is asserted after every handler
//! step: a resync that missed an object fails there, not here.
//!
//! The boards are the crate's `Slots` fixture (one map of named slots per
//! object); the application crates sit above this one.

use std::collections::{BTreeSet, VecDeque};

use guesstimate_core::{args, MachineId, ObjectId, SharedOp};
use guesstimate_net::{LatencyModel, NetConfig, SimNet, SimTime};
use guesstimate_runtime::testutil::{slots_registry, Slots};
use guesstimate_runtime::{run_until_cohort, sim_cluster, Checks, Machine, MachineConfig, WireOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MACHINES: u32 = 3;
const HOT: u64 = 2;

/// What one machine's resync visited in one applied round.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RoundCost {
    machine: MachineId,
    resynced: u64,
}

struct Outcome {
    rounds: Vec<RoundCost>,
    hot_boards: Vec<Slots>,
}

fn populated(tag: u64) -> Slots {
    Slots {
        m: (0..8)
            .map(|k| (format!("slot-{k}"), (tag + k) as i64))
            .collect(),
    }
}

/// Per-machine bookkeeping for the bound: what the machine's resync may
/// legitimately visit next.
#[derive(Default)]
struct Watch {
    rounds_applied: u64,
    resynced: u64,
    history: usize,
    /// Objects of own operations issued and not yet committed, oldest first
    /// (own operations commit in issue order).
    outstanding: VecDeque<ObjectId>,
    /// Objects touched since the last resync that visited anything.
    dirty_bound: BTreeSet<ObjectId>,
}

/// Samples one machine; if it applied a round since the last look, checks
/// the round's resync against the bound and records it.
fn observe(m: &Machine, w: &mut Watch, rounds: &mut Vec<RoundCost>) {
    let stats = m.stats();
    if stats.rounds_applied == w.rounds_applied {
        return;
    }
    assert_eq!(
        stats.rounds_applied,
        w.rounds_applied + 1,
        "one look, at most one round"
    );
    w.dirty_bound.extend(w.outstanding.iter().copied());
    for env in &m.history()[w.history..] {
        if let WireOp::Shared(op) = &env.op {
            w.dirty_bound.extend(op.objects_touched());
        }
        if env.id.machine() == m.id() {
            w.outstanding.pop_front();
        }
    }
    let resynced = stats.objects_resynced - w.resynced;
    // A resync that visited nothing leaves the bound as it was.
    if resynced > 0 {
        assert!(
            resynced <= w.dirty_bound.len() as u64,
            "{}: resynced {resynced} objects, but the rounds and the pending list touched \
             only {:?}",
            m.id(),
            w.dirty_bound
        );
        w.dirty_bound.clear();
    }
    rounds.push(RoundCost {
        machine: m.id(),
        resynced,
    });
    w.rounds_applied = stats.rounds_applied;
    w.resynced = stats.objects_resynced;
    w.history = m.history().len();
}

fn run(bystanders: u64) -> Outcome {
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(100))
        .with_join_retry(SimTime::from_millis(300))
        .with_checks(Checks::Assert);
    let netcfg = NetConfig::lan(23).with_latency(LatencyModel::constant_ms(10));
    let mut net: SimNet<Machine> = sim_cluster(MACHINES, slots_registry(), cfg, netcfg);
    assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));

    // Set-up: the hot boards first (so their ids do not depend on N), then
    // the bystanders, all populated; settle until every replica holds them.
    let master = net.actor_mut(MachineId::new(0)).unwrap();
    let boards: Vec<ObjectId> = (0..HOT + bystanders)
        .map(|i| master.create_instance(populated(i)))
        .collect();
    let settled = net.now() + SimTime::from_secs(2);
    net.run_until(settled);
    let ids = || (0..MACHINES).map(MachineId::new);
    for id in ids() {
        let m = net.actor(id).unwrap();
        assert_eq!(m.pending_len(), 0);
        assert_eq!(m.available_objects().len() as u64, HOT + bystanders);
    }

    // The stream: a seeded schedule of puts on the hot boards from every
    // machine, a few per sync period.
    let mut watches: Vec<Watch> = ids()
        .map(|id| {
            let m = net.actor(id).unwrap();
            Watch {
                rounds_applied: m.stats().rounds_applied,
                resynced: m.stats().objects_resynced,
                history: m.history().len(),
                ..Watch::default()
            }
        })
        .collect();
    let mut rounds = Vec::new();
    let mut rng = StdRng::seed_from_u64(7);
    let start = net.now();
    for k in 0..120u64 {
        let issuer = rng.gen_range(0..MACHINES);
        let board = boards[rng.gen_range(0..HOT) as usize];
        let slot = format!("slot-{}", rng.gen_range(0..4u64));
        let at = start + SimTime::from_millis(17 * k);
        run_observed(&mut net, at, &mut watches, &mut rounds);
        let m = net.actor_mut(MachineId::new(issuer)).unwrap();
        assert!(m
            .issue(SharedOp::primitive(board, "put", args![slot, k as i64]))
            .unwrap());
        watches[issuer as usize].outstanding.push_back(board);
    }
    let end = net.now() + SimTime::from_secs(1);
    run_observed(&mut net, end, &mut watches, &mut rounds);

    let digests: Vec<u64> = ids()
        .map(|id| net.actor(id).unwrap().committed_digest())
        .collect();
    assert!(digests.windows(2).all(|d| d[0] == d[1]), "{digests:?}");
    for id in ids() {
        let m = net.actor(id).unwrap();
        assert_eq!(m.pending_len(), 0);
        assert_eq!(m.guess_digest(), m.committed_digest());
    }
    let master = net.actor(MachineId::new(0)).unwrap();
    Outcome {
        rounds,
        hot_boards: boards[..HOT as usize]
            .iter()
            .map(|&b| master.read_committed(b, Slots::clone).unwrap())
            .collect(),
    }
}

/// Advances virtual time to `until` a millisecond at a time — far finer
/// than a round, so no machine applies two between looks — observing
/// every machine after each tick.
fn run_observed(
    net: &mut SimNet<Machine>,
    until: SimTime,
    watches: &mut [Watch],
    rounds: &mut Vec<RoundCost>,
) {
    while net.now() < until {
        let tick = net.now() + SimTime::from_millis(1);
        net.run_until(tick.min(until));
        for (i, w) in watches.iter_mut().enumerate() {
            let m = net.actor(MachineId::new(i as u32)).unwrap();
            observe(m, w, rounds);
        }
    }
}

#[test]
fn resync_cost_is_independent_of_bystanders() {
    let base = run(0);
    assert!(
        base.rounds.iter().any(|r| r.resynced > 0),
        "the stream must exercise the resync"
    );
    assert!(base.rounds.iter().all(|r| r.resynced <= HOT));
    for n in [64, 1024] {
        let big = run(n);
        assert_eq!(big.rounds, base.rounds, "{n} bystanders changed a round");
        assert_eq!(big.hot_boards, base.hot_boards);
    }
}

//! Multi-group runtime integration: per-group protocol independence.
//!
//! Each sync group runs its own complete round protocol (master, round
//! counter, election watchdog), so a master failure in one group must
//! leave every other group's round loop untouched. The fixture is the
//! minimal two-component type split into groups `Pair:0` and `Pair:1`
//! with *different* master nodes: node 1 masters `Pair:1` only, so
//! killing node 1 decapitates exactly one group. The same independence
//! shows in each group's stats: its round and stage sums are its own.

use std::collections::BTreeMap;
use std::sync::Arc;

use guesstimate::core::{args, ComponentPlan, PathPattern, Routing, ShardPlan, SharedOp, TypePlan};
use guesstimate::net::{LatencyModel, NetConfig, SimNet, SimTime};
use guesstimate::runtime::multigroup::{
    multi_sim_cluster, run_multi_until_joined, GroupTable, MultiClusterSpec, MultiMachine,
};
use guesstimate::runtime::{MachineConfig, SyncSample};
use guesstimate::telemetry::Telemetry;
use guesstimate::{GState, MachineId, ObjectId, OpRegistry, RestoreError, Value};

/// Two independent fields; the shard plan splits them into two groups.
#[derive(Clone, Default, Debug, PartialEq)]
struct Pair {
    a: i64,
    b: i64,
}

impl GState for Pair {
    const TYPE_NAME: &'static str = "Pair";
    fn snapshot(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("a".to_owned(), Value::from(self.a));
        m.insert("b".to_owned(), Value::from(self.b));
        Value::Map(m)
    }
    fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
        let Value::Map(m) = v else {
            return Err(RestoreError::shape("map"));
        };
        self.a = m.get("a").and_then(Value::as_i64).unwrap_or(0);
        self.b = m.get("b").and_then(Value::as_i64).unwrap_or(0);
        Ok(())
    }
}

fn registry() -> OpRegistry {
    let mut r = OpRegistry::new();
    r.register_type::<Pair>();
    r.register_method::<Pair>("bump_a", |p: &mut Pair, a| {
        let Some(d) = a.i64(0) else { return false };
        p.a += d;
        true
    });
    r.register_method::<Pair>("bump_b", |p: &mut Pair, a| {
        let Some(d) = a.i64(0) else { return false };
        p.b += d;
        true
    });
    r
}

fn plan() -> Arc<ShardPlan> {
    let mut tp = TypePlan {
        components: vec![
            ComponentPlan {
                prefixes: vec![PathPattern::parse("a").unwrap()],
                keyed: false,
            },
            ComponentPlan {
                prefixes: vec![PathPattern::parse("b").unwrap()],
                keyed: false,
            },
        ],
        routes: BTreeMap::new(),
    };
    tp.routes.insert(
        "bump_a".to_owned(),
        Routing::Local {
            component: 0,
            key_arg: None,
        },
    );
    tp.routes.insert(
        "bump_b".to_owned(),
        Routing::Local {
            component: 1,
            key_arg: None,
        },
    );
    let mut p = ShardPlan::new();
    p.types.insert("Pair".to_owned(), tp);
    Arc::new(p)
}

/// 4 nodes with asymmetric hosting so the two groups have *different*
/// master nodes (the round protocol requires each group's master to be
/// its lowest member): node 0 hosts only `Pair:0` and masters it; nodes
/// 1–3 host both groups, and node 1 — the lowest `Pair:1` member —
/// masters `Pair:1`.
fn cluster(telemetry: Telemetry) -> SimNet<MultiMachine> {
    let table = Arc::new(GroupTable::from_plan(plan()));
    let spec = MultiClusterSpec {
        table,
        hosting: vec![vec![0], vec![0, 1], vec![0, 1], vec![0, 1]],
        masters: [(0, MachineId::new(0)), (1, MachineId::new(1))]
            .into_iter()
            .collect(),
        coordinator: MachineId::new(0),
    };
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(100))
        .with_stall_timeout(SimTime::from_millis(500))
        .with_join_retry(SimTime::from_millis(300))
        .with_master_failover(SimTime::from_secs(2))
        .with_shard_plan(plan());
    multi_sim_cluster(
        &spec,
        Arc::new(registry()),
        cfg,
        NetConfig::lan(21).with_latency(LatencyModel::constant_ms(10)),
        telemetry,
    )
}

/// Creates the shared `Pair` on node 1 — it hosts both groups, so the create
/// fans out to both — and lets it commit everywhere.
fn create_pair(net: &mut SimNet<MultiMachine>) -> ObjectId {
    let mut obj = None;
    net.call(MachineId::new(1), |mm, ctx| {
        obj = Some(mm.create_instance(Pair::default(), ctx));
    });
    net.run_until(net.now() + SimTime::from_secs(2));
    obj.expect("node 1 is in the cluster")
}

#[test]
fn killing_one_groups_master_leaves_the_other_group_committing() {
    let mut net = cluster(Telemetry::noop());
    run_multi_until_joined(&mut net, SimTime::from_secs(10));

    let obj = create_pair(&mut net);

    net.call(MachineId::new(2), |mm, ctx| {
        mm.issue(SharedOp::primitive(obj, "bump_a", args![1]), None, ctx)
            .unwrap();
    });
    net.call(MachineId::new(3), |mm, ctx| {
        mm.issue(SharedOp::primitive(obj, "bump_b", args![2]), None, ctx)
            .unwrap();
    });
    net.run_until(net.now() + SimTime::from_secs(2));
    for i in 2..4 {
        assert_eq!(
            net.actor(MachineId::new(i))
                .unwrap()
                .read_committed::<Pair, _>(obj, |p| (p.a, p.b)),
            Some((1, 2)),
            "node {i} before the crash"
        );
    }

    // Kill node 1 — the master of `Pair:1` and an ordinary member of
    // `Pair:0` — mid-run.
    let crash_time = net.now();
    assert!(net.remove_machine(MachineId::new(1)).is_some());

    // `Pair:0`'s master (node 0) is alive: the group keeps committing
    // well before `Pair:1`'s failover threshold (2s) can even fire.
    net.call(MachineId::new(2), |mm, ctx| {
        mm.issue(SharedOp::primitive(obj, "bump_a", args![10]), None, ctx)
            .unwrap();
    });
    // Give `Pair:0`'s master time to stall-out the dead node-1 member
    // (stall_timeout 500ms) and re-run the round, but stay under the 2s
    // failover threshold so `Pair:1` is provably still masterless below.
    net.run_until(crash_time + SimTime::from_millis(1800));
    assert_eq!(
        net.actor(MachineId::new(2))
            .unwrap()
            .group(1)
            .unwrap()
            .stats()
            .promotions,
        0,
        "Pair:1 has not elected yet"
    );
    for i in [0u32, 2, 3] {
        // Read the group-0 machine directly: node 0 hosts only `Pair:0`,
        // whose copy of `b` is intentionally stale, so the merged view
        // is not the right lens here.
        assert_eq!(
            net.actor(MachineId::new(i))
                .unwrap()
                .group(0)
                .unwrap()
                .read_committed::<Pair, _>(obj, |p| p.a),
            Some(11),
            "node {i}: Pair:0 committed while Pair:1 was masterless"
        );
    }

    // `Pair:1` recovers on its own: nodes 2 and 3 elect node 2 (the
    // lowest surviving member of the group) and resume committing.
    net.run_until(crash_time + SimTime::from_secs(12));
    let m2 = net.actor(MachineId::new(2)).unwrap();
    assert!(
        m2.group(1).unwrap().is_master(),
        "node 2 promoted to Pair:1 master"
    );
    assert_eq!(m2.group(1).unwrap().stats().promotions, 1);
    assert!(!net
        .actor(MachineId::new(3))
        .unwrap()
        .group(1)
        .unwrap()
        .is_master());
    // Node 0 never hosts Pair:1, so nothing there could have promoted;
    // its Pair:0 machine is still the original master, not an electee.
    let m0 = net.actor(MachineId::new(0)).unwrap();
    assert!(m0.group(1).is_none());
    assert_eq!(m0.group(0).unwrap().stats().promotions, 0);

    net.call(MachineId::new(3), |mm, ctx| {
        mm.issue(SharedOp::primitive(obj, "bump_b", args![20]), None, ctx)
            .unwrap();
    });
    net.run_until(net.now() + SimTime::from_secs(3));
    for i in 2..4 {
        let mm = net.actor(MachineId::new(i)).unwrap();
        assert_eq!(
            mm.read_committed::<Pair, _>(obj, |p| (p.a, p.b)),
            Some((11, 22)),
            "node {i} after the election"
        );
    }
    // Per-group committed digests agree among each group's survivors.
    let d0: Vec<u64> = [0u32, 2, 3]
        .iter()
        .map(|&i| {
            net.actor(MachineId::new(i))
                .unwrap()
                .group(0)
                .unwrap()
                .committed_digest()
        })
        .collect();
    assert!(d0.windows(2).all(|w| w[0] == w[1]), "Pair:0 digests agree");
    let d1: Vec<u64> = [2u32, 3]
        .iter()
        .map(|&i| {
            net.actor(MachineId::new(i))
                .unwrap()
                .group(1)
                .unwrap()
                .committed_digest()
        })
        .collect();
    assert!(d1.windows(2).all(|w| w[0] == w[1]), "Pair:1 digests agree");
}

/// Issues twelve operations over a few rounds: the even ones `bump_a`
/// (`Pair:0`) from nodes 0, 2, 0, 2, ..., the odd ones `bump_b` (`Pair:1`)
/// from nodes 1–3 (every node hosts `Pair:0`; nodes 1–3 host `Pair:1`).
fn bump_both_groups(net: &mut SimNet<MultiMachine>, obj: ObjectId) {
    for k in 0..12u32 {
        let (node, method) = if k % 2 == 0 {
            (k % 4, "bump_a")
        } else {
            (1 + k % 3, "bump_b")
        };
        let at = net.now() + SimTime::from_millis(70 * u64::from(k));
        net.schedule_call(
            at,
            MachineId::new(node),
            move |mm: &mut MultiMachine, ctx| {
                mm.issue(SharedOp::primitive(obj, method, args![1]), None, ctx)
                    .unwrap();
            },
        );
    }
    net.run_until(net.now() + SimTime::from_secs(3));
}

/// Own operations group `g` committed, summed over every node hosting it.
fn committed_in_group(net: &SimNet<MultiMachine>, g: u32) -> u64 {
    (0..4)
        .filter_map(|i| net.actor(MachineId::new(i))?.group(g))
        .map(|m| m.stats().committed_own)
        .sum()
}

/// Per-group round stats: in every sync group the three stage-duration
/// sums of its master's samples partition the summed round durations
/// exactly (virtual time truncates nothing).
#[test]
fn every_groups_stage_sums_partition_its_rounds() {
    let mut net = cluster(Telemetry::noop());
    run_multi_until_joined(&mut net, SimTime::from_secs(10));
    let obj = create_pair(&mut net);
    bump_both_groups(&mut net, obj);

    for (g, master, label) in [(0, 0, "Pair:0"), (1, 1, "Pair:1")] {
        let samples = &net
            .actor(MachineId::new(master))
            .unwrap()
            .group(g)
            .unwrap()
            .stats()
            .sync_samples;
        assert!(!samples.is_empty(), "{label}: no rounds completed");
        let committed = committed_in_group(&net, g);
        assert!(committed >= 6, "{label}: {committed} committed");
        let sum = |f: fn(&SyncSample) -> SimTime| -> u64 {
            samples.iter().map(|s| f(s).as_micros()).sum()
        };
        assert_eq!(
            sum(SyncSample::stage_sum),
            sum(|s| s.duration),
            "{label}: stage sums must partition the round sum: {samples:?}"
        );
    }
}

/// One handle installed with `MultiMachine::set_telemetry` reaches every
/// hosted group's machine and sees each commit once: its committed-op
/// count and commit-lag samples both equal the groups' own commit counts
/// summed over every node.
#[test]
fn a_shared_handle_counts_each_groups_commits_once() {
    let telemetry = Telemetry::new();
    let mut net = cluster(telemetry.clone());
    run_multi_until_joined(&mut net, SimTime::from_secs(10));
    let obj = create_pair(&mut net);
    bump_both_groups(&mut net, obj);

    let committed = committed_in_group(&net, 0) + committed_in_group(&net, 1);
    assert!(committed >= 12, "{committed}");
    assert_eq!(telemetry.ops_committed(), committed);
    assert_eq!(telemetry.commit_lag_count(), committed);
}

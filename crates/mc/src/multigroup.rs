//! Model checking the multi-group synchronizer: the `cross-group` preset.
//!
//! The single-group presets drive bare [`guesstimate_runtime::Machine`]s;
//! this module drives [`MultiMachine`] wrappers — one full round-protocol
//! instance per sync group behind every node — through the same
//! controlled scheduler, exploring the interleavings that only exist in
//! multi-group mode: two groups' rounds racing each other, a
//! cross-routed operation's `CrossSubmit` hop, the coordinator's marker
//! issue, per-group marker commits landing in either order, and the
//! fence-buffered replay after the coordinated round resolves.
//!
//! The fixture is the minimal two-component type: `XPair` holds fields
//! `a` and `b` whose hand-built [`ShardPlan`] splits them into sync
//! groups `XPair:0` and `XPair:1`; `bump_a`/`bump_b` route locally while
//! `mix` spans both components and must take the coordinated round.
//! Three fully-overlapping nodes issue one conflicting local op per
//! group plus one `mix`, and exploration starts with the `CrossSubmit`
//! still in flight.
//!
//! ## Oracles
//!
//! Per step, on every node and hosted group: the §3 guess invariant, the
//! ≤3-executions bound, empty witness/shard containment logs, **per-group
//! prefix agreement** (any two nodes' completion sequences for the *same
//! group* must be prefix-ordered — the paper's total order, instantiated
//! per group), and per-group committed-digest equality — gated on both
//! nodes having resolved equally many coordinated rounds with the group
//! unfenced, because resolution rewrites committed component copies
//! outside the group's own round. The **cross-round oracle** checks that
//! no node resolves a coordinated round more than once per submission
//! and that any two nodes that have resolved equally many agree on the
//! rolling `(xid, result)` digest. At terminal states every node must
//! have resolved every submitted cross operation, hold no fenced group,
//! and agree on the merged committed digest.
//!
//! Everything else — the DFS, the sleep sets, replay, ddmin, the report
//! and the gates — is the shared harness: [`CrossBuilt`] implements
//! [`Cluster`], and the preset sits in the scenario table under the name
//! [`CROSS_GROUP`]. Its delivery reduction is the conservative one
//! (deliveries to distinct nodes are independent — a delivery only
//! mutates its target wrapper; same-node deliveries are dependent).

use std::collections::BTreeMap;
use std::sync::Arc;

use guesstimate_core::{
    args, ComponentPlan, EffectSpec, Footprint, GState, MachineId, OpRegistry, PathPattern,
    RestoreError, Routing, ShardPlan, SharedOp, TypePlan, Value,
};
use guesstimate_net::{SchedNet, SimTime, Tracer};
use guesstimate_runtime::multigroup::{vid, GroupId, GroupTable, MultiClusterSpec, MultiMachine};
use guesstimate_runtime::{Machine, MachineConfig, StateSummary};

use crate::oracle::{check_machine, check_pair, digest_of, Violation};
use crate::scenario::{exec_step, run_prelude, Cluster, Preset};
use crate::schedule::{Step, TamperSpec};

/// The multi-group preset's name in schedule files and `mc --preset`.
pub const CROSS_GROUP: &str = "cross-group";

/// Cross operations the workload submits (the cross oracle's target).
const CROSS_OPS: u64 = 1;

/// The two-component fixture type: independent fields `a` and `b`.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct XPair {
    /// Component 0 (sync group `XPair:0`).
    pub a: i64,
    /// Component 1 (sync group `XPair:1`).
    pub b: i64,
}

impl GState for XPair {
    const TYPE_NAME: &'static str = "XPair";
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
    r.register_type::<XPair>();
    r.register_with_effects::<XPair>(
        "bump_a",
        EffectSpec::new(|_| Footprint::new().reads(["a"]).writes(["a"])),
        |p: &mut XPair, a| {
            let Some(d) = a.i64(0) else { return false };
            p.a += d;
            true
        },
    );
    r.register_with_effects::<XPair>(
        "bump_b",
        EffectSpec::new(|_| Footprint::new().reads(["b"]).writes(["b"])),
        |p: &mut XPair, a| {
            let Some(d) = a.i64(0) else { return false };
            p.b += d;
            true
        },
    );
    r.register_with_effects::<XPair>(
        "mix",
        EffectSpec::new(|_| Footprint::new().reads(["a", "b"]).writes(["a", "b"])),
        |p: &mut XPair, a| {
            let Some(d) = a.i64(0) else { return false };
            p.a += d;
            p.b += p.a;
            true
        },
    );
    r
}

/// The hand-built two-component plan (what the shard-partition analysis
/// would derive for `XPair`'s honest effect declarations).
pub fn plan() -> Arc<ShardPlan> {
    let mut tp = TypePlan {
        components: vec![
            ComponentPlan {
                prefixes: vec![PathPattern::parse("a").expect("valid pattern")],
                keyed: false,
            },
            ComponentPlan {
                prefixes: vec![PathPattern::parse("b").expect("valid pattern")],
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
    tp.routes.insert("mix".to_owned(), Routing::CrossShard);
    let mut plan = ShardPlan::new();
    plan.types.insert(XPair::TYPE_NAME.to_owned(), tp);
    Arc::new(plan)
}

/// The built cross-group scenario, ready for exploration or replay.
#[derive(Debug)]
pub struct CrossBuilt {
    /// The multi-group cluster under the controlled scheduler.
    pub net: SchedNet<MultiMachine>,
    /// Each group master's sync count at which the explored window ends
    /// (its count at the end of the prelude plus the preset's `rounds`).
    pub target_rounds: BTreeMap<GroupId, u64>,
    /// Rounds a schedule may begin under another, in each group
    /// ([`Preset::tick_budget`]); the groups' ticks fall due together, so a
    /// group whose tick fires on the other's allowance can run one over.
    tick_budget: u32,
    /// The `-overlap` rows' second wave, not yet issued: `(node, group,
    /// op)`, issued the moment the node has flushed the group's first
    /// explored round.
    wave: Vec<(u32, GroupId, SharedOp)>,
}

/// Builds the cross-group cluster — `preset.eager` fully-overlapping
/// nodes, each hosting both groups — runs the deterministic prelude
/// (joins of both groups plus the fixture object's per-group creates),
/// and injects the workload: one conflicting local op per group and one
/// cross-routed `mix` whose `CrossSubmit` is in flight when exploration
/// starts.
///
/// # Errors
///
/// Fails closed on a `tamper` spec: the hook rewrites single-group
/// `Msg::Ops` batches, which the multi-group envelopes do not expose.
///
/// # Panics
///
/// Panics if the prelude fails to converge — a harness or protocol bug,
/// not an explorable behavior.
pub fn build(preset: &Preset, tamper: Option<TamperSpec>) -> Result<CrossBuilt, String> {
    if tamper.is_some() {
        return Err(format!(
            "scenario `{CROSS_GROUP}` cannot install a tamper hook"
        ));
    }
    let nodes = preset.eager;
    let table = Arc::new(GroupTable::from_plan(plan()));
    let spec = MultiClusterSpec::full_overlap(nodes, Arc::clone(&table));
    let registry = Arc::new(registry());
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(100))
        .with_join_retry(SimTime::from_millis(300))
        .with_stall_timeout(SimTime::from_millis(500))
        .with_paranoid_checks(true)
        .with_parallel_flush(preset.parallel_flush)
        .with_shard_plan(plan());

    let mut net: SchedNet<MultiMachine> = SchedNet::new();
    for i in 0..nodes {
        net.add_machine(MachineId::new(i), spec.build_node(i, &registry, &cfg));
    }

    let mut obj = None;
    net.call(MachineId::new(0), |mm, ctx| {
        obj = Some(mm.create_instance(XPair::default(), ctx));
    });
    let obj = obj.expect("node 0 exists");

    // Every node has joined both groups and committed both per-group
    // creates.
    let num_groups = u64::from(table.num_groups());
    run_prelude(&mut net, |net| {
        net.members().iter().all(|&id| {
            let mm = net.actor(id).expect("node added");
            mm.all_joined() && mm.committed_total() == num_groups
        })
    });

    // The workload: one local conflict seed per group, plus the cross op.
    net.call(MachineId::new(1), |mm, ctx| {
        mm.issue(SharedOp::primitive(obj, "bump_a", args![2]), None, ctx)
            .expect("bump_a routes to a hosted group");
    });
    net.call(MachineId::new(2), |mm, ctx| {
        mm.issue(SharedOp::primitive(obj, "bump_b", args![3]), None, ctx)
            .expect("bump_b routes to a hosted group");
    });
    net.call(MachineId::new(1), |mm, ctx| {
        mm.issue(SharedOp::primitive(obj, "mix", args![1]), None, ctx)
            .expect("mix cross-submits");
    });

    let node0 = net.actor(MachineId::new(0)).expect("node 0");
    let target_rounds = node0
        .group_ids()
        .into_iter()
        .map(|g| {
            let base = node0.group(g).expect("hosted").stats().syncs_seen;
            (g, base + preset.rounds)
        })
        .collect();
    // One more local operation per group, from the node that did not issue
    // the first, for the round begun under the first.
    let groups = node0.group_ids();
    let mut wave = vec![
        (2, groups[0], SharedOp::primitive(obj, "bump_a", args![5])),
        (1, groups[1], SharedOp::primitive(obj, "bump_b", args![7])),
    ];
    wave.retain(|_| preset.tick_budget > 0);
    Ok(CrossBuilt {
        net,
        target_rounds,
        tick_budget: preset.tick_budget,
        wave,
    })
}

/// Every protocol instance of the cluster under its virtual id, ordered
/// by node then group.
fn instances(net: &SchedNet<MultiMachine>) -> impl Iterator<Item = (MachineId, &Machine)> {
    net.members().into_iter().flat_map(move |id| {
        let mm = net.actor(id).expect("member");
        let of = move |g| (vid(id, g), mm.group(g).expect("hosted"));
        mm.group_ids().into_iter().map(of)
    })
}

impl CrossBuilt {
    /// Issues the second-wave operations whose node has just flushed its
    /// group's first explored round (see `Built::inject_wave`; nothing is
    /// lost here, so the first round a node is in is the first explored).
    fn inject_wave(&mut self) {
        let flushed = |net: &SchedNet<MultiMachine>, node: u32, g: GroupId| {
            let mm = net.actor(MachineId::new(node)).expect("node");
            mm.group(g).is_some_and(|m| m.flushed_round().is_some())
        };
        let (now, later) = std::mem::take(&mut self.wave)
            .into_iter()
            .partition(|(node, g, _)| flushed(&self.net, *node, *g));
        self.wave = later;
        for (node, _, op) in now {
            self.net.call(MachineId::new(node), |mm, ctx| {
                mm.issue(op, None, ctx).expect("routes to a hosted group");
            });
        }
    }
}

impl Cluster for CrossBuilt {
    fn exec(&mut self, s: Step) -> bool {
        let applied = exec_step(&mut self.net, s);
        self.inject_wave();
        applied
    }
    fn pending_msgs(&self) -> Vec<u64> {
        self.net.pending_msgs()
    }
    fn pending_joins(&self) -> Vec<u64> {
        self.net.pending_joins()
    }
    fn has_timers(&self) -> bool {
        self.net.has_timers()
    }

    fn overlap_tick_ready(&self) -> bool {
        let due = self.net.next_timer_due();
        let ready = |(_, m): (_, &Machine)| {
            m.stats().rounds_overlapped < u64::from(self.tick_budget)
                && m.overlap_tick_due().is_some_and(|t| Some(t) == due)
        };
        instances(&self.net).any(ready)
    }

    /// Every group's master has run its target rounds, every node has
    /// resolved every submitted cross operation, and no fences remain.
    fn window_done(&self) -> bool {
        let node0 = self.net.actor(MachineId::new(0)).expect("node 0");
        let rounds_ok = self.target_rounds.iter().all(|(&g, &target)| {
            node0
                .group(g)
                .is_some_and(|m| m.stats().syncs_seen >= target)
        });
        rounds_ok
            && self.net.members().iter().all(|&id| {
                let mm = self.net.actor(id).expect("member");
                mm.cross_resolved() == CROSS_OPS && mm.frozen_groups().is_empty()
            })
    }

    /// Deliveries to different nodes are independent: a delivery mutates
    /// only its target wrapper (and mints new messages, whose seq
    /// numbering the stable per-node choice identity absorbs — same
    /// argument as for single-group clusters).
    fn deliveries_independent(&self, x: u64, y: u64) -> bool {
        match (self.net.pending_msg(x), self.net.pending_msg(y)) {
            (Some(px), Some(py)) => px.to != py.to,
            _ => false,
        }
    }

    /// The per-step oracles described in the module docs.
    fn check_step(&self) -> Option<Violation> {
        let net = &self.net;
        if let Some(v) = instances(net).find_map(|(id, m)| check_machine(id, m)) {
            return Some(v);
        }
        let ids = net.members();
        for &id in &ids {
            let mm = net.actor(id).expect("member");
            if mm.cross_resolved() > CROSS_OPS {
                return Some(Violation::CrossRound {
                    detail: format!(
                        "node {id} resolved {} coordinated rounds for {CROSS_OPS} submissions",
                        mm.cross_resolved()
                    ),
                });
            }
        }
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                let na = net.actor(a).expect("member");
                let nb = net.actor(b).expect("member");
                for g in na.group_ids() {
                    let (Some(ma), Some(mb)) = (na.group(g), nb.group(g)) else {
                        continue;
                    };
                    // A resolution rewrites committed component copies
                    // outside the group's round, so digests are comparable
                    // only between nodes at the same resolution count with
                    // the group unfenced on both.
                    let comparable = na.cross_resolved() == nb.cross_resolved()
                        && !na.frozen_groups().contains(&g)
                        && !nb.frozen_groups().contains(&g);
                    let v = check_pair(vid(a, g), ma, vid(b, g), mb, false, comparable);
                    if v.is_some() {
                        return v;
                    }
                }
                if na.cross_resolved() == nb.cross_resolved()
                    && na.cross_digest() != nb.cross_digest()
                {
                    return Some(Violation::CrossRound {
                        detail: format!(
                            "nodes {a} and {b} resolved {} coordinated rounds with different \
                             (xid, result) digests",
                            na.cross_resolved()
                        ),
                    });
                }
            }
        }
        None
    }

    /// The terminal oracles: every cross operation resolved exactly once on
    /// every node, no fences left, and merged committed state agreeing
    /// cluster-wide.
    fn check_terminal(&self) -> Option<Violation> {
        let net = &self.net;
        let ids = net.members();
        for &id in &ids {
            let mm = net.actor(id).expect("member");
            if mm.cross_resolved() != CROSS_OPS {
                return Some(Violation::CrossRound {
                    detail: format!(
                        "terminal state: node {id} resolved {} of {CROSS_OPS} coordinated rounds",
                        mm.cross_resolved()
                    ),
                });
            }
            if !mm.frozen_groups().is_empty() {
                return Some(Violation::CrossRound {
                    detail: format!(
                        "terminal state: node {id} still fences {:?}",
                        mm.frozen_groups()
                    ),
                });
            }
        }
        let d0 = net.actor(ids[0]).expect("member").merged_committed_digest();
        for &id in &ids[1..] {
            if net.actor(id).expect("member").merged_committed_digest() != d0 {
                return Some(Violation::CrossRound {
                    detail: format!(
                        "terminal state: node {id} disagrees on the merged committed digest"
                    ),
                });
            }
        }
        None
    }

    fn state_digest(&self) -> u64 {
        let node = |id| self.net.actor(id).expect("member");
        let cross = |id| (node(id).cross_resolved(), node(id).cross_digest());
        let cross: Vec<_> = self.net.members().into_iter().map(cross).collect();
        digest_of(instances(&self.net), cross)
    }

    fn summaries(&self) -> Vec<StateSummary> {
        let summary = |(_, m): (_, &Machine)| m.state_summary();
        instances(&self.net).map(summary).collect()
    }

    fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.net.set_tracer(tracer.clone());
        for id in self.net.members() {
            if let Some(mm) = self.net.actor_mut(id) {
                mm.set_tracer(tracer.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use guesstimate_core::CommuteMatrix;
    use guesstimate_net::TraceEvent;
    use guesstimate_obs::{validate_postmortem, FlightRecorder};

    use super::*;
    use crate::explore::{explore, replay_traced, ExploreConfig};
    use crate::schedule::Schedule;

    /// The `-overlap` row's first path -- the tick as soon as it begins a
    /// round under another, else the lowest-seq delivery -- has two rounds
    /// of each group in flight, and both second-wave operations are issued
    /// and committed inside the explored window.
    #[test]
    fn overlap_row_begins_a_group_round_under_another() {
        let preset = Preset::by_name("cross-group-overlap").expect("in the table");
        let mut built = build(preset, None).expect("no tamper to refuse");
        assert_eq!(built.wave.len(), 2);
        crate::scenario::walk_overlap_path(&mut built);
        assert!(built.wave.is_empty(), "the wave was issued");
        let overlapped = |(_, m): (_, &Machine)| m.stats().rounds_overlapped;
        let masters = instances(&built.net).filter(|(_, m)| m.is_master());
        assert!(masters.map(overlapped).all(|n| n >= 1), "in each group");
        let pending = |(_, m): (_, &Machine)| m.pending_len();
        assert_eq!(instances(&built.net).map(pending).sum::<usize>(), 0);
    }

    /// A traced replay reaches the inner machines: the postmortem bundle
    /// carries their protocol events (not just the driver's message
    /// stamps) and one state summary per (node, group), and validates.
    #[test]
    fn traced_replay_records_protocol_events() {
        let preset = Preset::by_name(CROSS_GROUP).expect("in the table");
        let matrix = CommuteMatrix::new();
        let cfg = ExploreConfig {
            max_schedules: 1,
            ..ExploreConfig::default()
        };
        let sched = Schedule {
            preset: CROSS_GROUP.to_owned(),
            tamper: None,
            steps: explore(preset, &matrix, None, &cfg)
                .sample
                .expect("one schedule"),
        };
        let recorder = Arc::new(FlightRecorder::new(4096));
        let (report, states) = replay_traced(&sched, &matrix, recorder.clone()).expect("replays");
        assert_eq!(report.violation, None);
        assert_eq!(states.len(), 6, "3 nodes x 2 groups");
        assert!(
            recorder.snapshot().iter().any(|r| !matches!(
                r.event,
                TraceEvent::MsgSent { .. } | TraceEvent::MsgReceived { .. }
            )),
            "no protocol event from any inner machine"
        );
        let pm = validate_postmortem(&recorder.dump_json("test", &states)).expect("validates");
        assert!(pm.hb_ok);
        assert_eq!(pm.states, 6);
    }
}

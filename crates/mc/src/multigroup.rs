//! Model checking the multi-group synchronizer: what the `cross-group`
//! rows have that no single-group row does.
//!
//! The single-group rows drive bare [`guesstimate_runtime::Machine`]s;
//! these drive [`MultiMachine`] wrappers — one full round-protocol
//! instance per sync group behind every node — through the same
//! controlled scheduler and the same harness, exploring the interleavings
//! that only exist in multi-group mode: two groups' rounds racing each
//! other, a cross-routed operation's `CrossSubmit` hop, the coordinator's
//! marker issue, per-group marker commits landing in either order, and the
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
//! The harness ([`Built`]) and the rows are shared; this module is the
//! fixture and `MultiMachine`'s [`Node`] impl. Its delivery reduction is
//! the conservative one (deliveries to distinct nodes are independent — a
//! delivery only mutates its target wrapper; same-node deliveries are
//! dependent).

use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::Arc;

use guesstimate_core::{
    ComponentPlan, EffectSpec, Footprint, GState, OpRegistry, PathPattern, RestoreError, Routing,
    ShardPlan, SharedOp, TypePlan, Value,
};
use guesstimate_net::{Ctx, TamperHook, Tracer};
use guesstimate_runtime::multigroup::{
    GMsg, GroupId, GroupRoute, GroupTable, IssueOutcome, MultiClusterSpec, MultiMachine,
};
use guesstimate_runtime::{Machine, MachineConfig};

use crate::oracle::Violation;
use crate::scenario::{Built, Node};
use crate::schedule::TamperSpec;

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

/// Installs `XPair` and its three operations.
pub fn register(r: &mut OpRegistry) {
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

/// A `CrossRound` violation.
fn cross_round(detail: String) -> Option<Violation> {
    Some(Violation::CrossRound { detail })
}

/// The multi-group node: one protocol instance per hosted sync group, the
/// coordinated cross round on top.
impl Node for MultiMachine {
    /// Every node hosts every group of the row's plan; node 0 masters each
    /// and coordinates cross operations.
    fn boot(i: u32, registry: &Arc<OpRegistry>, cfg: &MachineConfig) -> Self {
        let plan = cfg
            .shard_plan
            .clone()
            .expect("a multi-group row installs a plan");
        let table = Arc::new(GroupTable::from_plan(plan));
        MultiClusterSpec::full_overlap(i + 1, table).build_node(i, registry, cfg)
    }

    fn instances(&self) -> impl Iterator<Item = (GroupId, &Machine)> {
        let groups = self.group_ids().into_iter();
        groups.map(|g| (g, self.group(g).expect("hosted")))
    }

    /// Every group instance takes the hybrid path its configuration says.
    fn inject(&mut self, op: SharedOp, _: bool, ctx: &mut Ctx<'_, GMsg>) -> bool {
        match self.issue(op, None, ctx).expect("routes to a hosted group") {
            IssueOutcome::Local(took) => took,
            IssueOutcome::CrossPending => true,
        }
    }

    fn flushed_for(&self, op: &SharedOp) -> bool {
        let type_of = |id| {
            let mut hosted = self.instances();
            hosted.find_map(|(_, m)| m.object_type(id).map(str::to_owned))
        };
        let groups = match self.table().route(op, &type_of) {
            GroupRoute::Local(g) => vec![g],
            GroupRoute::Cross(groups) => groups,
        };
        let flushed = |g| self.group(g).is_some_and(|m| m.flushed_round().is_some());
        groups.into_iter().all(flushed)
    }

    fn trace_to(&mut self, tracer: Arc<dyn Tracer>) {
        self.set_tracer(tracer);
    }

    /// Fails closed: the hook rewrites single-group `Msg::Ops` batches,
    /// which the multi-group envelopes do not expose.
    fn tamper(_: TamperSpec) -> Option<TamperHook<GMsg>> {
        None
    }

    /// Deliveries to different nodes are independent: a delivery mutates
    /// only its target wrapper (and mints new messages, whose seq
    /// numbering the stable per-node choice identity absorbs — same
    /// argument as for single-group clusters).
    fn deliveries_independent(built: &Built<Self>, x: u64, y: u64) -> bool {
        match (built.net.pending_msg(x), built.net.pending_msg(y)) {
            (Some(px), Some(py)) => px.to != py.to,
            _ => false,
        }
    }

    /// Every cross operation resolved exactly once on every node, no fences
    /// left, and merged committed state agreeing cluster-wide.
    fn check_terminal(built: &Built<Self>) -> Option<Violation> {
        let nodes: Vec<&Self> = built.nodes().collect();
        for mm in &nodes {
            let (id, resolved, fenced) = (mm.node(), mm.cross_resolved(), mm.frozen_groups());
            if resolved != CROSS_OPS {
                return cross_round(format!(
                    "terminal state: node {id} resolved {resolved} of {CROSS_OPS} coordinated rounds"
                ));
            }
            if !fenced.is_empty() {
                return cross_round(format!("terminal state: node {id} still fences {fenced:?}"));
            }
        }
        let d0 = nodes[0].merged_committed_digest();
        let mm = nodes[1..]
            .iter()
            .find(|mm| mm.merged_committed_digest() != d0)?;
        cross_round(format!(
            "terminal state: node {} disagrees on the merged committed digest",
            mm.node()
        ))
    }

    /// Every submitted cross operation resolved here and no fence left.
    fn settled(&self) -> bool {
        self.cross_resolved() == CROSS_OPS && self.frozen_groups().is_empty()
    }

    /// A resolution rewrites committed component copies outside the
    /// group's round, so digests are comparable only between nodes at the
    /// same resolution count with the group unfenced on both.
    fn comparable(&self, other: &Self, g: GroupId) -> bool {
        self.cross_resolved() == other.cross_resolved()
            && !self.frozen_groups().contains(&g)
            && !other.frozen_groups().contains(&g)
    }

    /// The cross-round oracle described in the module docs.
    fn check_nodes(nodes: &[&Self]) -> Option<Violation> {
        if let Some(mm) = nodes.iter().find(|mm| mm.cross_resolved() > CROSS_OPS) {
            let (id, resolved) = (mm.node(), mm.cross_resolved());
            return cross_round(format!(
                "node {id} resolved {resolved} coordinated rounds for {CROSS_OPS} submissions"
            ));
        }
        for (i, na) in nodes.iter().enumerate() {
            let (resolved, digest) = (na.cross_resolved(), na.cross_digest());
            let differs =
                |nb: &&&Self| nb.cross_resolved() == resolved && nb.cross_digest() != digest;
            if let Some(nb) = nodes[i + 1..].iter().find(differs) {
                return cross_round(format!(
                    "nodes {} and {} resolved {resolved} coordinated rounds with different \
                     (xid, result) digests",
                    na.node(),
                    nb.node()
                ));
            }
        }
        None
    }

    fn digest_extra(nodes: &[&Self]) -> impl Hash {
        let cross = |mm: &&Self| (mm.cross_resolved(), mm.cross_digest());
        nodes.iter().map(cross).collect::<Vec<_>>()
    }
}

#[cfg(test)]
mod tests {
    use guesstimate_core::CommuteMatrix;
    use guesstimate_net::TraceEvent;
    use guesstimate_obs::{validate_postmortem, FlightRecorder};

    use super::*;
    use crate::explore::{explore, replay_traced, ExploreConfig};
    use crate::scenario::Preset;
    use crate::schedule::Schedule;

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

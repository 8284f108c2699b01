//! Multi-group synchronization: the §4 round protocol instantiated **once
//! per sync group** instead of once per cluster.
//!
//! PR 8's validated [`ShardPlan`]s prove which object components never
//! interfere; each `(type, component)` pair becomes a **sync group** with
//! its own complete protocol instance — per-group master, round counter,
//! flush batches, election watchdog and membership epoch. A node hosts one
//! full [`Machine`] per group it participates in, wrapped in a
//! [`MultiMachine`] actor that:
//!
//! * routes every issued operation through the [`ShardRouter`] to its
//!   group's round (the hybrid async-commit path included);
//! * namespaces wire messages with a [`GroupId`] tag ([`GMsg::Inner`]) and
//!   re-encodes timer tags so per-group timers never alias;
//! * translates between *node* ids (the outer mesh) and per-group
//!   *virtual* machine ids (`vid = ((group + 1) << 16) | node`), so the
//!   inner role machines run unmodified;
//! * serializes the rare `Cross`-routed operations through a
//!   **coordinated round** (below).
//!
//! # The coordinated cross-group round
//!
//! A `Cross`-routed operation has no single group that can serialize it.
//! The coordinator node sequences such operations one at a time: it
//! assigns a global `xid` and issues one identical
//! [`WireOp::CrossMarker`] carrying the payload into *every* involved
//! group's round. Markers are store no-ops; a marker's position in its
//! group's commit order is the **deterministic interleaving point** both
//! masters implicitly agreed on by serializing it. From the moment a
//! group commits its marker until the whole coordinated round resolves
//! locally, the wrapper *fences* that group — every inbound message and
//! timer is buffered, so no operation can slip past the agreed point on
//! one node but not another. Once every involved hosted group has
//! committed its marker, the wrapper merges the involved groups'
//! committed copies of the touched objects (each group contributes the
//! top-level fields its component owns), executes the payload once per
//! involved group on the identical merged pre-state, writes the result
//! back, rebuilds each group's guess, releases the fences and replays
//! the buffered events in arrival order.
//!
//! A group's member acknowledges a round before it applies it: the apply
//! is the deferred half of the callback (`Machine::pay_owed`), and its
//! markers commit there. On every event the wrapper pays every hosted
//! group's owed apply before any logic of its own -- the fences, resolution
//! and the cross queue read what the groups committed -- and again before
//! it replays a buffered event, since the apply may fence that event's
//! group. The deferred half's tag is never buffered behind a fence: it is
//! paid, not delivered. An issue pays nothing, as on a lone machine: until
//! a group pays, its markers are not committed, and nothing the wrapper
//! does reads a round in flight.
//!
//! Two freedoms keep this deadlock-free: the coordinator keeps at most
//! one cross operation in flight (markers therefore commit in `xid`
//! order within every group), and it only issues markers after the
//! payload's objects have committed in every involved group locally (so
//! a marker can never be serialized ahead of its object's `Create`).
//!
//! # Soundness envelope
//!
//! Group state is replicated per group: group `g`'s copy of a foreign
//! component is stale-but-deterministic, and merged reads/writes always
//! attribute a component's fields to the group that owns it. Cross
//! operations require the involved types' hosting to be *cross-closed*:
//! every node hosting one involved group hosts them all (full-overlap
//! clusters trivially qualify).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use guesstimate_core::{
    paths::Seg, value_digest, Callback, Closures, CompletionFn, ExecError, GState, MachineId,
    ObjectId, OpId, OpRegistry, ShardId, ShardPlan, SharedOp, Value,
};
use guesstimate_net::{Action, Actor, Channel, Ctx, NetConfig, SimNet, Tracer};
use guesstimate_telemetry::Telemetry;

use crate::config::MachineConfig;
use crate::machine::Machine;
use crate::message::{shared_op_size, Msg, WireOp};
use crate::roles::tag;
use crate::shard::ShardRouter;

/// Index of a sync group: one per `(type, component)` pair of the
/// installed [`ShardPlan`], in deterministic plan order.
pub type GroupId = u32;

/// Bits of the virtual machine id that carry the node index.
const NODE_BITS: u32 = 16;
/// Bits of an outer timer tag reserved for the group field (top bits).
const TAG_GROUP_SHIFT: u32 = 59;

/// The virtual machine id of `node`'s protocol instance in `group`.
///
/// Group `g` occupies id slot `g + 1`, so virtual ids never collide with
/// raw node ids (slot 0) and each group's id space preserves the nodes'
/// relative order — the master-election and commit-order tie-breaks
/// inside a group behave exactly as in a single-group cluster.
pub fn vid(node: MachineId, group: GroupId) -> MachineId {
    debug_assert!(node.index() < (1 << NODE_BITS));
    MachineId::new(((group + 1) << NODE_BITS) | node.index())
}

/// The node index of a virtual machine id (inverse of [`vid`]).
pub fn node_of(v: MachineId) -> MachineId {
    MachineId::new(v.index() & ((1 << NODE_BITS) - 1))
}

/// Encodes a group-scoped timer tag: the inner `(kind, round)` tag keeps
/// its low 59 bits, the group lands in the top bits (group 0 encodes as
/// 1, so un-grouped tags are distinguishable).
fn outer_tag(group: GroupId, inner: u64) -> u64 {
    debug_assert!(inner < (1u64 << TAG_GROUP_SHIFT), "inner tag overflows");
    debug_assert!(u64::from(group) + 1 < (1 << (64 - TAG_GROUP_SHIFT)));
    inner | ((u64::from(group) + 1) << TAG_GROUP_SHIFT)
}

/// Decodes an outer timer tag into `(group, inner tag)`.
fn split_tag(tag: u64) -> Option<(GroupId, u64)> {
    let slot = tag >> TAG_GROUP_SHIFT;
    if slot == 0 {
        return None;
    }
    Some(((slot - 1) as GroupId, tag & ((1u64 << TAG_GROUP_SHIFT) - 1)))
}

/// Translates one action of group `g`'s machine onto the outer mesh: the
/// message group-tagged, the recipient's node, the timer tag group-scoped.
fn outer_action(g: GroupId, action: Action<Msg>) -> Action<GMsg> {
    match action {
        Action::Broadcast(channel, msg) => {
            Action::Broadcast(channel, GMsg::Inner { group: g, msg })
        }
        Action::Send(to, channel, msg) => {
            Action::Send(node_of(to), channel, GMsg::Inner { group: g, msg })
        }
        Action::SetTimer { delay, tag } => Action::SetTimer {
            delay,
            tag: outer_tag(g, tag),
        },
        Action::Defer { tag } => Action::Defer {
            tag: outer_tag(g, tag),
        },
    }
}

/// Runs `f` on group `g`'s machine with an inner context that forwards each
/// action, translated, into `ctx` at the call that makes it: on the
/// wall-clock mesh a hosted group's send leaves when the group sends it, as
/// a lone [`Machine`]'s does, not when the wrapper gets control back.
fn in_group<R>(
    g: GroupId,
    m: &mut Machine,
    ctx: &mut Ctx<'_, GMsg>,
    f: impl FnOnce(&mut Machine, &mut Ctx<'_, Msg>) -> R,
) -> R {
    ctx.hosted(m.id(), |a| outer_action(g, a), |ictx| f(m, ictx))
}

/// One sync group: a component of a type, with its display label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// The owning type.
    pub type_name: String,
    /// Component index within the type's [`ShardPlan`] entry.
    pub component: u32,
    /// Render: `"Type:component"` — the telemetry group label.
    pub label: String,
}

/// The dense [`GroupId`] space derived from a [`ShardPlan`]: every
/// `(type, component)` pair of the plan, in plan (BTreeMap) order.
#[derive(Debug, Clone)]
pub struct GroupTable {
    router: ShardRouter,
    groups: Vec<GroupSpec>,
    by_key: BTreeMap<(String, u32), GroupId>,
}

impl GroupTable {
    /// Enumerates the plan's components into dense group ids.
    pub fn from_plan(plan: Arc<ShardPlan>) -> Self {
        let mut groups = Vec::new();
        let mut by_key = BTreeMap::new();
        for (type_name, tp) in &plan.types {
            for component in 0..tp.components.len() as u32 {
                let g = groups.len() as GroupId;
                groups.push(GroupSpec {
                    type_name: type_name.clone(),
                    component,
                    label: format!("{type_name}:{component}"),
                });
                by_key.insert((type_name.clone(), component), g);
            }
        }
        assert!(!groups.is_empty(), "shard plan has no components");
        GroupTable {
            router: ShardRouter::new(plan),
            groups,
            by_key,
        }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &Arc<ShardPlan> {
        &self.router.plan
    }

    /// Number of sync groups.
    pub fn num_groups(&self) -> u32 {
        self.groups.len() as u32
    }

    /// The group's spec (panics on out-of-range ids).
    pub fn group(&self, g: GroupId) -> &GroupSpec {
        &self.groups[g as usize]
    }

    /// The group's telemetry label.
    pub fn label(&self, g: GroupId) -> &str {
        &self.groups[g as usize].label
    }

    /// All groups owned by one type, ascending.
    pub fn groups_of_type(&self, type_name: &str) -> Vec<GroupId> {
        self.by_key
            .range((type_name.to_owned(), 0)..=(type_name.to_owned(), u32::MAX))
            .map(|(_, g)| *g)
            .collect()
    }

    /// Routes a shared operation: its group, or the involved group set of
    /// a cross-routed operation (the union of the touched types' groups;
    /// every group if no type resolves).
    pub fn route(&self, op: &SharedOp, type_of: &dyn Fn(ObjectId) -> Option<String>) -> GroupRoute {
        match self.router.shard_of_shared(op, &type_of) {
            ShardId::Local {
                type_name,
                component,
                ..
            } => match self.by_key.get(&(type_name, component)) {
                Some(g) => GroupRoute::Local(*g),
                None => GroupRoute::Cross(self.involved_groups(op, type_of)),
            },
            ShardId::Cross => GroupRoute::Cross(self.involved_groups(op, type_of)),
        }
    }

    /// The involved group set of a cross-routed operation.
    fn involved_groups(
        &self,
        op: &SharedOp,
        type_of: &dyn Fn(ObjectId) -> Option<String>,
    ) -> Vec<GroupId> {
        let mut involved = BTreeSet::new();
        for obj in op.objects_touched() {
            if let Some(ty) = type_of(obj) {
                involved.extend(self.groups_of_type(&ty));
            }
        }
        if involved.is_empty() {
            (0..self.num_groups()).collect()
        } else {
            involved.into_iter().collect()
        }
    }

    /// The group owning a top-level snapshot field of `type_name`, used
    /// by merged reads and coordinated-round write-backs: the first
    /// component whose prefixes cover the field (a literal first segment
    /// equal to the field, or a key/wildcard first segment).
    fn owner_of_field(&self, type_name: &str, field: &str) -> Option<GroupId> {
        let tp = self.router.plan.types.get(type_name)?;
        for (c, comp) in tp.components.iter().enumerate() {
            for prefix in &comp.prefixes {
                let covers = match prefix.segs().first() {
                    None => true, // root prefix owns everything
                    Some(Seg::Lit(s)) => s == field,
                    Some(Seg::Key(_)) | Some(Seg::Any) => true,
                };
                if covers {
                    return self.by_key.get(&(type_name.to_owned(), c as u32)).copied();
                }
            }
        }
        None
    }
}

/// Where an issued operation goes in multi-group mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupRoute {
    /// Serialized by one group's round.
    Local(GroupId),
    /// Needs a coordinated round across the listed groups.
    Cross(Vec<GroupId>),
}

/// Outcome of [`MultiMachine::issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueOutcome {
    /// Routed to one group; the rule-R2 issue-time boolean.
    Local(bool),
    /// Cross-routed: submitted to the coordinator. The result arrives via
    /// the completion callback when the coordinated round resolves here.
    CrossPending,
}

/// The outer wire message: a group-tagged inner protocol message, or a
/// cross-routed submission traveling to the coordinator.
#[derive(Debug, Clone)]
pub enum GMsg {
    /// A §4 protocol message of one sync group.
    Inner {
        /// The group whose protocol instance this message belongs to.
        group: GroupId,
        /// The unmodified inner message.
        msg: Msg,
    },
    /// A cross-routed operation on its way to the coordinator node.
    CrossSubmit {
        /// Submitting node.
        origin: MachineId,
        /// Origin-local submission sequence number.
        oseq: u64,
        /// Involved groups, computed at the origin (it knows the types).
        groups: Vec<GroupId>,
        /// The payload.
        op: SharedOp,
    },
}

/// A buffered event of a fenced group, replayed in arrival order at
/// resolution.
#[derive(Debug, Clone)]
enum Buffered {
    Message {
        from: MachineId,
        channel: Channel,
        msg: Msg,
    },
    Timer {
        inner_tag: u64,
    },
}

/// One committed-but-unresolved cross marker.
#[derive(Debug, Clone)]
struct CrossCommit {
    xid: u64,
    origin: MachineId,
    oseq: u64,
    groups: Vec<GroupId>,
    op: SharedOp,
}

/// Coordinator-only sequencing state (lives on the coordinator node).
#[derive(Debug, Default, Clone)]
struct Coordinator {
    queue: VecDeque<(MachineId, u64, Vec<GroupId>, SharedOp)>,
    in_flight: Option<u64>,
    next_xid: u64,
}

/// One node of a multi-group cluster: a full [`Machine`] per hosted sync
/// group behind a single mesh [`Actor`]. See the module docs.
#[derive(Debug, Clone)]
pub struct MultiMachine {
    node: MachineId,
    table: Arc<GroupTable>,
    machines: BTreeMap<GroupId, Machine>,
    /// Fenced groups' buffered events (presence in `cross_q` = fenced).
    buffered: BTreeMap<GroupId, VecDeque<Buffered>>,
    /// Per-group committed, unresolved markers in commit (= `xid`) order.
    cross_q: BTreeMap<GroupId, VecDeque<CrossCommit>>,
    coordinator_node: MachineId,
    coordinator: Option<Coordinator>,
    /// This node's cross operations' completions, under `(node, oseq)`.
    closures: Closures,
    oseq_next: u64,
    obj_seq: u64,
    telemetry: Telemetry,
    /// Cross operations resolved here (each exactly once).
    cross_resolved: u64,
    /// Rolling digest over `(xid, result)` of resolved cross operations —
    /// the model checker's cross-round oracle surface.
    cross_digest: u64,
}

impl MultiMachine {
    /// Builds one node hosting `hosted` groups. `masters` names each
    /// group's master *node*; `coordinator_node` sequences cross
    /// operations cluster-wide (conventionally the lowest node).
    pub fn new(
        node: MachineId,
        table: Arc<GroupTable>,
        hosted: &[GroupId],
        masters: &BTreeMap<GroupId, MachineId>,
        coordinator_node: MachineId,
        registry: Arc<OpRegistry>,
        cfg: MachineConfig,
    ) -> Self {
        let mut machines = BTreeMap::new();
        for &g in hosted {
            assert!(g < table.num_groups(), "group {g} out of range");
            let id = vid(node, g);
            let master_node = *masters
                .get(&g)
                .unwrap_or_else(|| panic!("group {g} has no master"));
            let m = if master_node == node {
                Machine::new_master(id, Arc::clone(&registry), cfg.clone())
            } else {
                Machine::new_member(id, Arc::clone(&registry), cfg.clone())
            };
            machines.insert(g, m);
        }
        let coordinator = (node == coordinator_node).then(Coordinator::default);
        MultiMachine {
            node,
            table,
            machines,
            buffered: BTreeMap::new(),
            cross_q: BTreeMap::new(),
            coordinator_node,
            coordinator,
            closures: Closures::default(),
            oseq_next: 0,
            obj_seq: 0,
            telemetry: Telemetry::noop(),
            cross_resolved: 0,
            cross_digest: 0,
        }
    }

    /// Installs a telemetry handle; each hosted group's machine records
    /// through a group-labeled derivation of it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for (g, m) in &mut self.machines {
            m.set_telemetry(telemetry.for_group(self.table.label(*g)));
        }
        self.telemetry = telemetry;
    }

    /// Installs a shared trace sink on every hosted group's machine (the
    /// wrapper itself emits no events).
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        for m in self.machines.values_mut() {
            m.set_tracer(Arc::clone(&tracer));
        }
    }

    /// This node's outer mesh id.
    pub fn node(&self) -> MachineId {
        self.node
    }

    /// The group table this node was built from.
    pub fn table(&self) -> &Arc<GroupTable> {
        &self.table
    }

    /// Hosted group ids, ascending.
    pub fn group_ids(&self) -> Vec<GroupId> {
        self.machines.keys().copied().collect()
    }

    /// One hosted group's protocol instance.
    pub fn group(&self, g: GroupId) -> Option<&Machine> {
        self.machines.get(&g)
    }

    /// Mutable access to one hosted group's protocol instance (tests,
    /// fault injection). Does **not** run the post-dispatch pipeline; use
    /// [`MultiMachine::with_group`] for anything that emits actions.
    pub fn group_mut(&mut self, g: GroupId) -> Option<&mut Machine> {
        self.machines.get_mut(&g)
    }

    /// Groups currently fenced by an unresolved coordinated round.
    pub fn frozen_groups(&self) -> Vec<GroupId> {
        self.cross_q
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(g, _)| *g)
            .collect()
    }

    /// Cross operations resolved on this node.
    pub fn cross_resolved(&self) -> u64 {
        self.cross_resolved
    }

    /// Rolling `(xid, result)` digest of resolved cross operations; equal
    /// on every node that hosts the involved groups.
    pub fn cross_digest(&self) -> u64 {
        self.cross_digest
    }

    /// True once every hosted group's machine is admitted.
    pub fn all_joined(&self) -> bool {
        self.machines.values().all(|m| m.is_joined())
    }

    fn fenced(&self, g: GroupId) -> bool {
        self.cross_q.get(&g).is_some_and(|q| !q.is_empty())
    }

    /// Resolves an object's type from any hosted group's catalog.
    fn type_of(&self, id: ObjectId) -> Option<String> {
        self.machines
            .values()
            .find_map(|m| m.object_type(id).map(str::to_owned))
    }

    /// Runs `f` against one hosted group's machine with a translating inner
    /// context (its actions reach the outer mesh as it makes them), then
    /// runs the post-dispatch pipeline (cross-commit draining, fencing,
    /// resolution, buffered replay).
    pub fn with_group<R>(
        &mut self,
        g: GroupId,
        ctx: &mut Ctx<'_, GMsg>,
        f: impl FnOnce(&mut Machine, &mut Ctx<'_, Msg>) -> R,
    ) -> Option<R> {
        let m = self.machines.get_mut(&g)?;
        let r = in_group(g, m, ctx, f);
        let commits = m.take_cross_commits();
        self.enqueue_cross_commits(g, commits);
        self.pump(ctx);
        Some(r)
    }

    // ------------------------------------------------------------------
    // The paper's API, lifted to multi-group
    // ------------------------------------------------------------------

    /// Creates a shared object under one logical id, fanned out to every
    /// hosted group (each group's copy commits through that group's own
    /// round; merged reads stitch the components back together).
    pub fn create_instance<T: GState>(&mut self, init: T, ctx: &mut Ctx<'_, GMsg>) -> ObjectId {
        let object = ObjectId::new(vid(self.node, self.table.num_groups()), self.obj_seq);
        self.obj_seq += 1;
        let groups = self.group_ids();
        for g in groups {
            self.with_group(g, ctx, |m, _| m.create_instance_as(object, init.clone()));
        }
        object
    }

    /// Issues a shared operation, routing it through the shard plan to
    /// its group's round — or to the coordinator for a cross-group
    /// coordinated round. The hybrid async-commit path applies within the
    /// target group exactly as in single-group mode.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unknown objects or unregistered methods.
    ///
    /// # Panics
    ///
    /// Panics if the operation routes to a group this node does not host
    /// (workloads must be partitioned along the hosting topology).
    pub fn issue(
        &mut self,
        op: SharedOp,
        completion: Option<CompletionFn>,
        ctx: &mut Ctx<'_, GMsg>,
    ) -> Result<IssueOutcome, ExecError> {
        let type_of = |id: ObjectId| self.type_of(id);
        match self.table.route(&op, &type_of) {
            GroupRoute::Local(g) => {
                assert!(
                    self.machines.contains_key(&g),
                    "op routed to group {g} ({}) not hosted on node {}",
                    self.table.label(g),
                    self.node
                );
                let r = self
                    .with_group(g, ctx, |m, ictx| m.issue_hybrid(op, completion, ictx))
                    .expect("hosted group");
                r.map(IssueOutcome::Local)
            }
            GroupRoute::Cross(groups) => {
                let oseq = self.oseq_next;
                self.oseq_next += 1;
                if let Some(c) = completion {
                    self.closures.insert(OpId::new(self.node, oseq), c);
                }
                let submit = GMsg::CrossSubmit {
                    origin: self.node,
                    oseq,
                    groups,
                    op,
                };
                if self.node == self.coordinator_node {
                    self.accept_cross(submit);
                    self.pump(ctx);
                } else {
                    ctx.send(self.coordinator_node, Channel::Signals, submit);
                }
                Ok(IssueOutcome::CrossPending)
            }
        }
    }

    /// Merged read of a shared object's guesstimated state: each of the
    /// type's hosted groups contributes the top-level fields its
    /// component owns. Objects of single-group types read directly.
    pub fn read<T: GState, R>(&self, id: ObjectId, f: impl FnOnce(&T) -> R) -> Option<R> {
        let merged = self.merged_value(id, |m, id| m.guess_object_snapshot(id))?;
        let mut state = T::default();
        state.restore(&merged).ok()?;
        Some(f(&state))
    }

    /// Merged read of the committed state (diagnostics).
    pub fn read_committed<T: GState, R>(&self, id: ObjectId, f: impl FnOnce(&T) -> R) -> Option<R> {
        let merged = self.merged_value(id, |m, id| m.committed_object_snapshot(id))?;
        let mut state = T::default();
        state.restore(&merged).ok()?;
        Some(f(&state))
    }

    /// Digest over the merged committed state of every known object — the
    /// cross-node convergence oracle surface (agrees across nodes hosting
    /// the same groups once quiescent).
    pub fn merged_committed_digest(&self) -> u64 {
        let mut objects = BTreeSet::new();
        for m in self.machines.values() {
            objects.extend(m.available_objects().into_iter().map(|(id, _)| id));
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for id in objects {
            if let Some(v) = self.merged_value(id, |m, id| m.committed_object_snapshot(id)) {
                h = h
                    .rotate_left(13)
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(value_digest(&v));
            }
        }
        h
    }

    /// Merges one object's per-group snapshots by component-field
    /// attribution: field `f` comes from the group whose component owns
    /// `f`, falling back to the lowest hosted group's copy.
    fn merged_value(
        &self,
        id: ObjectId,
        snap: impl Fn(&Machine, ObjectId) -> Option<Value>,
    ) -> Option<Value> {
        let type_name = self.type_of(id)?;
        let groups: Vec<GroupId> = self
            .table
            .groups_of_type(&type_name)
            .into_iter()
            .filter(|g| self.machines.contains_key(g))
            .collect();
        let snaps: Vec<(GroupId, Value)> = groups
            .iter()
            .filter_map(|g| snap(&self.machines[g], id).map(|v| (*g, v)))
            .collect();
        let (_, primary) = snaps.first()?;
        if snaps.len() == 1 {
            return Some(primary.clone());
        }
        let Value::Map(primary_map) = primary else {
            // Non-map snapshots only arise for single-component types.
            return Some(primary.clone());
        };
        let mut fields: BTreeSet<String> = primary_map.keys().cloned().collect();
        for (_, v) in &snaps {
            if let Value::Map(m) = v {
                fields.extend(m.keys().cloned());
            }
        }
        let mut merged = BTreeMap::new();
        for field in fields {
            let owner = self.table.owner_of_field(&type_name, &field);
            let source = owner
                .and_then(|g| snaps.iter().find(|(sg, _)| *sg == g))
                .map(|(_, v)| v)
                .unwrap_or(primary);
            if let Some(v) = source.field(&field) {
                merged.insert(field, v.clone());
            }
        }
        Some(Value::Map(merged))
    }

    // ------------------------------------------------------------------
    // Cross-group coordinated rounds
    // ------------------------------------------------------------------

    /// Queues a cross submission on the coordinator. A submission that
    /// reached any other node is wire input this node cannot sequence: it
    /// is dropped (resending it is the submitter's job).
    fn accept_cross(&mut self, submit: GMsg) {
        let GMsg::CrossSubmit {
            origin,
            oseq,
            groups,
            op,
        } = submit
        else {
            unreachable!("accept_cross takes CrossSubmit");
        };
        let Some(coord) = self.coordinator.as_mut() else {
            return;
        };
        coord.queue.push_back((origin, oseq, groups, op));
    }

    /// Coordinator: launch the next queued cross operation if none is in
    /// flight and its objects have committed in every involved group here
    /// (which orders every marker after its objects' `Create`s in every
    /// group's total order).
    fn service_cross_queue(&mut self) {
        let Some(coord) = self.coordinator.as_mut() else {
            return;
        };
        if coord.in_flight.is_some() {
            return;
        }
        let Some((_, _, groups, op)) = coord.queue.front() else {
            return;
        };
        let groups = groups.clone();
        let objects = op.objects_touched();
        for &g in &groups {
            let Some(m) = self.machines.get(&g) else {
                panic!(
                    "coordinator node {} does not host involved group {g}; \
                     cross operations require cross-closed hosting",
                    self.node
                );
            };
            if objects
                .iter()
                .any(|o| m.committed_object_snapshot(*o).is_none())
            {
                return; // objects not committed everywhere yet; retry later
            }
        }
        let coord = self.coordinator.as_mut().expect("checked above");
        let (origin, oseq, groups, op) = coord.queue.pop_front().expect("checked above");
        let xid = coord.next_xid;
        coord.next_xid += 1;
        coord.in_flight = Some(xid);
        for &g in &groups {
            let m = self.machines.get_mut(&g).expect("checked above");
            m.issue_cross_marker(xid, origin, oseq, groups.clone(), op.clone());
        }
    }

    fn enqueue_cross_commits(&mut self, g: GroupId, commits: Vec<crate::message::WireEnvelope>) {
        for env in commits {
            let WireOp::CrossMarker {
                xid,
                origin,
                oseq,
                groups,
                op,
            } = env.op
            else {
                debug_assert!(false, "non-marker in cross commits");
                continue;
            };
            self.cross_q.entry(g).or_default().push_back(CrossCommit {
                xid,
                origin,
                oseq,
                groups,
                op,
            });
        }
    }

    /// Resolves every currently-resolvable coordinated round; returns
    /// true if any resolved.
    fn try_resolve(&mut self) -> bool {
        let mut resolved_any = false;
        loop {
            // The minimum xid among queue fronts is the only candidate:
            // markers commit in xid order within every group.
            let candidate = self
                .cross_q
                .values()
                .filter_map(|q| q.front())
                .min_by_key(|c| c.xid)
                .cloned();
            let Some(c) = candidate else { break };
            let involved_hosted: Vec<GroupId> = c
                .groups
                .iter()
                .copied()
                .filter(|g| self.machines.contains_key(g))
                .collect();
            debug_assert!(
                involved_hosted.len() == c.groups.len() || involved_hosted.is_empty(),
                "cross operation {} spans groups with non-cross-closed hosting on node {}",
                c.xid,
                self.node
            );
            let ready = involved_hosted.iter().all(|g| {
                self.cross_q
                    .get(g)
                    .and_then(|q| q.front())
                    .is_some_and(|front| front.xid == c.xid)
            });
            if !ready {
                break;
            }
            for g in &involved_hosted {
                let q = self.cross_q.get_mut(g).expect("front checked");
                let popped = q.pop_front().expect("front checked");
                debug_assert_eq!(popped.xid, c.xid);
            }
            self.resolve(&c, &involved_hosted);
            resolved_any = true;
        }
        resolved_any
    }

    /// Executes one coordinated round at its agreed interleaving point:
    /// merge, execute per involved group, write back, rebuild guesses.
    fn resolve(&mut self, c: &CrossCommit, involved_hosted: &[GroupId]) {
        // Merge each touched object's committed copies and install the
        // merged pre-state into every involved group.
        for obj in c.op.objects_touched() {
            let Some(merged) = self.merged_value(obj, |m, id| m.committed_object_snapshot(id))
            else {
                continue;
            };
            for g in involved_hosted {
                let m = self.machines.get_mut(g).expect("hosted");
                m.overwrite_committed_object(obj, &merged);
            }
        }
        // Execute the payload once per involved group on the identical
        // merged pre-state: deterministic ops give identical post-states
        // and an identical boolean on every group and every node.
        let mut result = false;
        for g in involved_hosted {
            let m = self.machines.get_mut(g).expect("hosted");
            result = m.execute_cross_payload(&c.op);
            m.rebuild_guess_from_committed();
        }
        self.cross_resolved += 1;
        self.cross_digest = self
            .cross_digest
            .rotate_left(7)
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(c.xid.wrapping_mul(2) + u64::from(result));
        // The resolution is the cross payload's actual commit on this
        // node: account it exactly like a single-group Cross commit site.
        self.telemetry.shard_op("cross");
        self.telemetry.cross_route();
        if c.origin == self.node {
            let op = OpId::new(self.node, c.oseq);
            self.closures.run(Callback::Completed(op, result));
        }
        if let Some(coord) = self.coordinator.as_mut() {
            if coord.in_flight == Some(c.xid) {
                coord.in_flight = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Event plumbing
    // ------------------------------------------------------------------

    /// Dispatches one event into a group's machine (no fence check).
    fn raw_dispatch(&mut self, g: GroupId, ev: Buffered, ctx: &mut Ctx<'_, GMsg>) {
        let Some(m) = self.machines.get_mut(&g) else {
            return;
        };
        in_group(g, m, ctx, |m, ictx| match ev {
            Buffered::Message { from, channel, msg } => {
                m.on_message(vid(from, g), channel, msg, ictx);
            }
            Buffered::Timer { inner_tag } => m.on_timer(inner_tag, ictx),
        });
        let commits = m.take_cross_commits();
        self.enqueue_cross_commits(g, commits);
    }

    /// Pays every hosted group's owed apply (`Machine::pay_owed`), runs what
    /// it completed and queues the cross markers it commits; returns whether
    /// any group owed one.
    fn settle(&mut self, ctx: &mut Ctx<'_, GMsg>) -> bool {
        let owing = self
            .machines
            .iter()
            .filter(|(_, m)| m.participant.owed.is_some());
        let owing: Vec<GroupId> = owing.map(|(&g, _)| g).collect();
        for &g in &owing {
            let m = self.machines.get_mut(&g).expect("hosted");
            in_group(g, m, ctx, Machine::pay_owed);
            m.run_callbacks(ctx.now());
            let commits = m.take_cross_commits();
            self.enqueue_cross_commits(g, commits);
        }
        !owing.is_empty()
    }

    /// [`MultiMachine::settle`], then what the groups' commits allow.
    fn pay_owed(&mut self, ctx: &mut Ctx<'_, GMsg>) {
        if self.settle(ctx) {
            self.pump(ctx);
        }
    }

    /// Delivers one external event, respecting the fence.
    fn deliver(&mut self, g: GroupId, ev: Buffered, ctx: &mut Ctx<'_, GMsg>) {
        if self.fenced(g) {
            self.buffered.entry(g).or_default().push_back(ev);
        } else {
            self.raw_dispatch(g, ev, ctx);
        }
        self.pump(ctx);
    }

    /// Fixpoint: resolve coordinated rounds, replay buffered events of
    /// released groups, and service the coordinator queue, until nothing
    /// changes.
    fn pump(&mut self, ctx: &mut Ctx<'_, GMsg>) {
        loop {
            if self.try_resolve() {
                continue;
            }
            self.service_cross_queue();
            // Replay one buffered event of any released group, oldest
            // first per group (ascending group order for determinism).
            let next = self
                .buffered
                .iter()
                .filter(|(g, q)| !q.is_empty() && !self.fenced(**g))
                .map(|(g, _)| *g)
                .next();
            match next {
                // An apply a replayed event left owed may fence a group or
                // resolve a round: pay it before the next replay.
                Some(_) if self.settle(ctx) => {}
                Some(g) => {
                    let ev = self
                        .buffered
                        .get_mut(&g)
                        .and_then(|q| q.pop_front())
                        .expect("non-empty checked");
                    self.raw_dispatch(g, ev, ctx);
                }
                None => break,
            }
        }
    }
}

impl Actor for MultiMachine {
    type Msg = GMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, GMsg>) {
        for (&g, m) in &mut self.machines {
            in_group(g, m, ctx, |m, ictx| m.on_start(ictx));
        }
    }

    fn on_message(
        &mut self,
        from: MachineId,
        channel: Channel,
        msg: GMsg,
        ctx: &mut Ctx<'_, GMsg>,
    ) {
        self.pay_owed(ctx);
        match msg {
            GMsg::Inner { group, msg } => {
                if !self.machines.contains_key(&group) {
                    return; // not hosted here: cheap drop of mesh fan-out
                }
                self.deliver(group, Buffered::Message { from, channel, msg }, ctx);
            }
            submit @ GMsg::CrossSubmit { .. } => {
                self.accept_cross(submit);
                self.pump(ctx);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, GMsg>) {
        self.pay_owed(ctx);
        let Some((group, inner_tag)) = split_tag(tag) else {
            return;
        };
        if !self.machines.contains_key(&group) || tag::kind(inner_tag) == tag::APPLY_OWED {
            return; // a deferred apply is paid above, never fenced
        }
        self.deliver(group, Buffered::Timer { inner_tag }, ctx);
    }

    fn msg_size(msg: &GMsg) -> u64 {
        match msg {
            GMsg::Inner { msg, .. } => 4 + msg.wire_size(),
            // The payload counts as a `WireOp::Shared`: one tag byte on top
            // of the operation, sized by reference (this runs on every send).
            GMsg::CrossSubmit { groups, op, .. } => {
                4 + 8 + 4 + 4 * groups.len() as u64 + 1 + shared_op_size(op)
            }
        }
    }

    fn msg_kind(msg: &GMsg) -> &'static str {
        match msg {
            GMsg::Inner { msg, .. } => <Machine as Actor>::msg_kind(msg),
            GMsg::CrossSubmit { .. } => "cross_submit",
        }
    }
}

// ----------------------------------------------------------------------
// Cluster topology + constructors
// ----------------------------------------------------------------------

/// A multi-group cluster's static topology: who hosts what, who masters
/// each group, who coordinates cross operations.
#[derive(Debug, Clone)]
pub struct MultiClusterSpec {
    /// The group space.
    pub table: Arc<GroupTable>,
    /// `hosting[node]` = groups that node hosts.
    pub hosting: Vec<Vec<GroupId>>,
    /// Per-group master node.
    pub masters: BTreeMap<GroupId, MachineId>,
    /// The cross-operation sequencing node.
    pub coordinator: MachineId,
}

impl MultiClusterSpec {
    /// Every node hosts every group; every group's master is node 0 (the
    /// round protocol requires the master to be the lowest member of its
    /// group) and node 0 coordinates cross operations.
    pub fn full_overlap(n: u32, table: Arc<GroupTable>) -> Self {
        assert!(n > 0);
        let all: Vec<GroupId> = (0..table.num_groups()).collect();
        let masters = (0..table.num_groups())
            .map(|g| (g, MachineId::new(0)))
            .collect();
        MultiClusterSpec {
            table,
            hosting: (0..n).map(|_| all.clone()).collect(),
            masters,
            coordinator: MachineId::new(0),
        }
    }

    /// Builds the node `i` wrapper.
    pub fn build_node(
        &self,
        i: u32,
        registry: &Arc<OpRegistry>,
        cfg: &MachineConfig,
    ) -> MultiMachine {
        MultiMachine::new(
            MachineId::new(i),
            Arc::clone(&self.table),
            &self.hosting[i as usize],
            &self.masters,
            self.coordinator,
            Arc::clone(registry),
            cfg.clone(),
        )
    }
}

/// A deterministic multi-group simulation cluster (instrumented).
pub fn multi_sim_cluster(
    spec: &MultiClusterSpec,
    registry: Arc<OpRegistry>,
    cfg: MachineConfig,
    netcfg: NetConfig,
    telemetry: Telemetry,
) -> SimNet<MultiMachine> {
    let mut net = SimNet::new(netcfg);
    for i in 0..spec.hosting.len() as u32 {
        let mut mm = spec.build_node(i, &registry, &cfg);
        mm.set_telemetry(telemetry.clone());
        net.add_machine(MachineId::new(i), mm);
    }
    net
}

/// Runs a simulated multi-group cluster until every hosted machine of
/// every node has joined its group, or panics at `deadline`.
pub fn run_multi_until_joined(net: &mut SimNet<MultiMachine>, deadline: guesstimate_net::SimTime) {
    while net.now() < deadline {
        let all = net
            .members()
            .iter()
            .all(|id| net.actor(*id).is_some_and(MultiMachine::all_joined));
        if all {
            return;
        }
        if net.step().is_none() {
            break;
        }
    }
    let all = net
        .members()
        .iter()
        .all(|id| net.actor(*id).is_some_and(MultiMachine::all_joined));
    assert!(all, "multi-group cluster failed to join by {deadline:?}");
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicI64, Ordering};

    use guesstimate_core::{
        args, ComponentPlan, GState, PathPattern, RestoreError, Routing, TypePlan,
    };
    use guesstimate_net::SimTime;

    use super::*;

    /// Two independent fields plus one method spanning both: the minimal
    /// two-component type.
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

    fn pair_registry() -> OpRegistry {
        let mut r = OpRegistry::new();
        r.register_type::<Pair>();
        r.register_method::<Pair>("bump_a", |p, a| {
            let Some(d) = a.i64(0) else { return false };
            p.a += d;
            true
        });
        r.register_method::<Pair>("bump_b", |p, a| {
            let Some(d) = a.i64(0) else { return false };
            p.b += d;
            true
        });
        r.register_method::<Pair>("mix", |p, a| {
            let Some(d) = a.i64(0) else { return false };
            p.a += d;
            p.b += p.a;
            true
        });
        r
    }

    fn pair_plan() -> Arc<ShardPlan> {
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
        tp.routes.insert("mix".to_owned(), Routing::CrossShard);
        let mut plan = ShardPlan::new();
        plan.types.insert("Pair".to_owned(), tp);
        Arc::new(plan)
    }

    fn cfg() -> MachineConfig {
        MachineConfig::default()
            .with_sync_period(SimTime::from_millis(50))
            .with_shard_plan(pair_plan())
    }

    fn cluster(n: u32) -> (SimNet<MultiMachine>, MultiClusterSpec) {
        let table = Arc::new(GroupTable::from_plan(pair_plan()));
        let spec = MultiClusterSpec::full_overlap(n, table);
        let net = multi_sim_cluster(
            &spec,
            Arc::new(pair_registry()),
            cfg(),
            NetConfig::lan(u64::from(n)),
            Telemetry::noop(),
        );
        (net, spec)
    }

    #[test]
    fn vid_and_tag_round_trip() {
        let n = MachineId::new(7);
        assert_eq!(node_of(vid(n, 0)), n);
        assert_eq!(node_of(vid(n, 5)), n);
        assert_ne!(vid(n, 0), vid(n, 1));
        let inner = crate::roles::tag::encode(crate::roles::tag::MASTER_TICK, 42);
        let outer = outer_tag(3, inner);
        assert_eq!(split_tag(outer), Some((3, inner)));
        assert_eq!(split_tag(inner), None);
    }

    /// A `CrossSubmit` is sized as its header plus the payload as a
    /// `WireOp::Shared`; `msg_size` reaches that figure without building one.
    #[test]
    fn cross_submit_is_sized_as_its_payload_wire_op() {
        let obj = ObjectId::new(MachineId::new(0), 0);
        let mix = SharedOp::primitive(obj, "mix", args![3]);
        let bump = SharedOp::primitive(obj, "bump_a", args![-1]);
        for op in [
            mix.clone(),
            SharedOp::Atomic(vec![mix.clone(), bump.clone()]),
            SharedOp::OrElse(Box::new(mix), Box::new(bump)),
        ] {
            let groups = vec![0, 1];
            let want = 4 + 8 + 4 + 4 * 2 + WireOp::Shared(op.clone()).wire_size();
            let submit = GMsg::CrossSubmit {
                origin: MachineId::new(1),
                oseq: 0,
                groups,
                op,
            };
            assert_eq!(MultiMachine::msg_size(&submit), want, "{submit:?}");
        }
    }

    /// A hosted group's action is in the outer context, translated, before
    /// the inner call that made it returns: on the wall-clock mesh that is
    /// what starts its link delay ahead of the rest of the group's callback.
    #[test]
    fn a_hosted_groups_action_reaches_the_outer_context_inside_the_inner_call() {
        use std::{cell::RefCell, rc::Rc};

        struct Seen(Rc<RefCell<Vec<Action<GMsg>>>>);
        impl guesstimate_net::Outbox<GMsg> for Seen {
            fn push(&mut self, action: Action<GMsg>) {
                self.0.borrow_mut().push(action);
            }
        }

        let table = Arc::new(GroupTable::from_plan(pair_plan()));
        let spec = MultiClusterSpec::full_overlap(2, table);
        let mut mm = spec.build_node(0, &Arc::new(pair_registry()), &cfg());
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut out = Seen(Rc::clone(&seen));
        let mut ctx = Ctx::new(SimTime::ZERO, mm.node(), &mut out);
        mm.with_group(1, &mut ctx, |m, ictx| {
            assert_eq!(ictx.self_id(), m.id());
            ictx.send(vid(MachineId::new(1), 1), Channel::Signals, Msg::Restart);
            assert!(matches!(
                seen.borrow()[..],
                [Action::Send(to, Channel::Signals, GMsg::Inner { group: 1, msg: Msg::Restart })]
                    if to == MachineId::new(1)
            ));
            ictx.set_timer(SimTime::from_millis(3), 5);
            assert!(matches!(
                seen.borrow()[1],
                Action::SetTimer { tag, .. } if split_tag(tag) == Some((1, 5))
            ));
        })
        .expect("hosted");
    }

    #[test]
    fn table_enumerates_components_and_routes() {
        let table = GroupTable::from_plan(pair_plan());
        assert_eq!(table.num_groups(), 2);
        assert_eq!(table.label(0), "Pair:0");
        assert_eq!(table.label(1), "Pair:1");
        assert_eq!(table.groups_of_type("Pair"), vec![0, 1]);
        let obj = ObjectId::new(MachineId::new(99), 0);
        let type_of = |_: ObjectId| Some("Pair".to_owned());
        assert_eq!(
            table.route(&SharedOp::primitive(obj, "bump_a", args![1]), &type_of),
            GroupRoute::Local(0)
        );
        assert_eq!(
            table.route(&SharedOp::primitive(obj, "bump_b", args![1]), &type_of),
            GroupRoute::Local(1)
        );
        assert_eq!(
            table.route(&SharedOp::primitive(obj, "mix", args![1]), &type_of),
            GroupRoute::Cross(vec![0, 1])
        );
    }

    #[test]
    fn local_ops_commit_through_their_own_groups() {
        let (mut net, _) = cluster(3);
        run_multi_until_joined(&mut net, SimTime::from_secs(10));
        let n0 = MachineId::new(0);
        let mut obj = None;
        net.call(n0, |mm, ctx| {
            obj = Some(mm.create_instance(Pair::default(), ctx));
        });
        let obj = obj.unwrap();
        net.run_until(net.now() + SimTime::from_secs(2));

        net.call(MachineId::new(1), |mm, ctx| {
            let r = mm
                .issue(SharedOp::primitive(obj, "bump_a", args![1]), None, ctx)
                .unwrap();
            assert_eq!(r, IssueOutcome::Local(true));
        });
        net.call(MachineId::new(2), |mm, ctx| {
            let r = mm
                .issue(SharedOp::primitive(obj, "bump_b", args![2]), None, ctx)
                .unwrap();
            assert_eq!(r, IssueOutcome::Local(true));
        });
        net.run_until(net.now() + SimTime::from_secs(2));

        for i in 0..3 {
            let mm = net.actor(MachineId::new(i)).unwrap();
            assert_eq!(
                mm.read_committed::<Pair, _>(obj, |p| (p.a, p.b)),
                Some((1, 2)),
                "node {i}"
            );
            assert_eq!(mm.frozen_groups(), Vec::<GroupId>::new());
        }
        let d0 = net.actor(n0).unwrap().merged_committed_digest();
        for i in 1..3 {
            assert_eq!(
                net.actor(MachineId::new(i))
                    .unwrap()
                    .merged_committed_digest(),
                d0
            );
        }
    }

    #[test]
    fn cross_op_resolves_exactly_once_everywhere() {
        let (mut net, _) = cluster(3);
        run_multi_until_joined(&mut net, SimTime::from_secs(10));
        let n0 = MachineId::new(0);
        let mut obj = None;
        net.call(n0, |mm, ctx| {
            obj = Some(mm.create_instance(Pair::default(), ctx));
        });
        let obj = obj.unwrap();
        net.run_until(net.now() + SimTime::from_secs(2));

        // Seed the components through their own groups first.
        net.call(MachineId::new(1), |mm, ctx| {
            mm.issue(SharedOp::primitive(obj, "bump_a", args![10]), None, ctx)
                .unwrap();
            mm.issue(SharedOp::primitive(obj, "bump_b", args![100]), None, ctx)
                .unwrap();
        });
        net.run_until(net.now() + SimTime::from_secs(2));

        static MIX_RESULT: AtomicI64 = AtomicI64::new(-1);
        MIX_RESULT.store(-1, Ordering::SeqCst);
        net.call(MachineId::new(2), |mm, ctx| {
            let r = mm
                .issue(
                    SharedOp::primitive(obj, "mix", args![1]),
                    Some(Box::new(|ok| {
                        MIX_RESULT.store(i64::from(ok), Ordering::SeqCst);
                    })),
                    ctx,
                )
                .unwrap();
            assert_eq!(r, IssueOutcome::CrossPending);
        });
        net.run_until(net.now() + SimTime::from_secs(4));

        // mix(1) on merged (a=10, b=100): a=11, b=111.
        assert_eq!(MIX_RESULT.load(Ordering::SeqCst), 1, "completion ran");
        for i in 0..3 {
            let mm = net.actor(MachineId::new(i)).unwrap();
            assert_eq!(mm.cross_resolved(), 1, "node {i} resolved exactly once");
            assert_eq!(
                mm.read_committed::<Pair, _>(obj, |p| (p.a, p.b)),
                Some((11, 111)),
                "node {i}"
            );
            assert_eq!(mm.frozen_groups(), Vec::<GroupId>::new(), "node {i}");
        }
        let d0 = net.actor(n0).unwrap().cross_digest();
        for i in 1..3 {
            assert_eq!(net.actor(MachineId::new(i)).unwrap().cross_digest(), d0);
        }

        // The fence released: local traffic keeps committing afterwards.
        net.call(MachineId::new(1), |mm, ctx| {
            mm.issue(SharedOp::primitive(obj, "bump_a", args![1]), None, ctx)
                .unwrap();
        });
        net.run_until(net.now() + SimTime::from_secs(2));
        assert_eq!(
            net.actor(n0)
                .unwrap()
                .read_committed::<Pair, _>(obj, |p| p.a),
            Some(12)
        );
    }

    /// A `CrossSubmit` that reaches a node which does not coordinate fails
    /// closed: the node drops it, resolves nothing, and keeps committing
    /// local operations in both groups.
    #[test]
    fn a_cross_submit_at_a_non_coordinator_is_dropped() {
        let (mut net, _) = cluster(2);
        run_multi_until_joined(&mut net, SimTime::from_secs(10));
        let (n0, n1) = (MachineId::new(0), MachineId::new(1));
        let mut obj = None;
        net.call(n0, |mm, ctx| {
            obj = Some(mm.create_instance(Pair::default(), ctx));
        });
        let obj = obj.unwrap();
        net.run_until(net.now() + SimTime::from_secs(2));

        let submit = GMsg::CrossSubmit {
            origin: n0,
            oseq: 0,
            groups: vec![0, 1],
            op: SharedOp::primitive(obj, "mix", args![1]),
        };
        net.call(n0, |_, ctx| ctx.send(n1, Channel::Signals, submit));
        net.run_until(net.now() + SimTime::from_secs(2));
        net.call(n1, |mm, ctx| {
            for method in ["bump_a", "bump_b"] {
                mm.issue(SharedOp::primitive(obj, method, args![1]), None, ctx)
                    .unwrap();
            }
        });
        net.run_until(net.now() + SimTime::from_secs(2));

        for i in 0..2 {
            let mm = net.actor(MachineId::new(i)).unwrap();
            assert_eq!(mm.cross_resolved(), 0, "node {i}");
            assert_eq!(
                mm.read_committed::<Pair, _>(obj, |p| (p.a, p.b)),
                Some((1, 1)),
                "node {i}"
            );
        }
    }

    /// A member group that acknowledged the round carrying its cross marker
    /// owes its apply, and the coordinated round cannot resolve without it.
    /// The node pays that apply before it takes its next event -- here one
    /// for the other, fenced group -- so the merge reads the owing group's
    /// whole round, what the apply completed runs, and the event is not
    /// buffered behind a round that resolves as it arrives. The deferred
    /// half then finds nothing owed.
    #[test]
    fn a_cross_round_waits_for_and_reads_a_group_that_owes_its_apply() {
        use crate::roles::tag;
        let (mut net, _) = cluster(2);
        run_multi_until_joined(&mut net, SimTime::from_secs(10));
        let (n0, n1) = (MachineId::new(0), MachineId::new(1));
        let mut obj = None;
        net.call(n0, |mm, ctx| {
            obj = Some(mm.create_instance(Pair::default(), ctx));
        });
        let obj = obj.unwrap();
        net.run_until(net.now() + SimTime::from_secs(2));
        let between = |net: &SimNet<MultiMachine>| {
            let groups = &net.actor(n1).unwrap().machines;
            groups.values().all(|m| m.participant.round.is_none())
        };
        while !between(&net) {
            net.step();
        }
        // Node 1 bumps `b`, which its flush of group 1 carries. Node 0, both
        // groups' master and the coordinator, issues the markers of `mix` at
        // once: its flush of either group is [marker]. From here node 1 is
        // driven by hand.
        let bumped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let done = Arc::clone(&bumped);
        net.call(n1, |mm, ctx| {
            let bump = SharedOp::primitive(obj, "bump_b", args![5]);
            let completion: CompletionFn = Box::new(move |ok| done.store(ok, Ordering::SeqCst));
            let issued = mm.issue(bump, Some(completion), ctx).unwrap();
            assert_eq!(issued, IssueOutcome::Local(true));
        });
        net.call(n0, |mm, ctx| {
            let mix = SharedOp::primitive(obj, "mix", args![1]);
            assert_eq!(
                mm.issue(mix, None, ctx).unwrap(),
                IssueOutcome::CrossPending
            );
        });
        let batch = |g: GroupId| -> crate::roles::OpsBatch {
            let pending = &net.actor(n0).unwrap().machines[&g].pending;
            Arc::new(pending.envs().cloned().collect())
        };
        let batches = [batch(0), batch(1)];
        assert_eq!(batches.each_ref().map(|b| b.len()), [1, 1]);
        let now = net.now();
        let mm = net.actor_mut(n1).unwrap();
        let rounds = [0, 1].map(|g| mm.machines[&g].participant.next_round_expected.unwrap());
        let deliver = |mm: &mut MultiMachine, group: GroupId, msg: Msg| {
            let mut actions = Vec::new();
            let msg = GMsg::Inner { group, msg };
            mm.on_message(
                n0,
                Channel::Signals,
                msg,
                &mut Ctx::new(now, n1, &mut actions),
            );
            actions
        };
        let begin_apply = |g: GroupId| Msg::BeginApply {
            round: rounds[g as usize],
            counts: vec![
                (vid(n0, g), batches[g as usize].len() as u64),
                (vid(n1, g), u64::from(g)),
            ],
            ops: Arc::clone(&batches[g as usize]),
            asyncs: Default::default(),
        };
        for g in [0, 1] {
            let order = vec![vid(n0, g), vid(n1, g)];
            let round = rounds[g as usize];
            deliver(mm, g, Msg::BeginSync { round, order });
        }
        // Group 0 applies and commits its marker: fenced.
        let mut applied = deliver(mm, 0, begin_apply(0));
        guesstimate_net::run_deferred(mm, now, n1, &mut applied);
        assert_eq!(mm.frozen_groups(), vec![0]);
        // Group 1 acknowledges and owes the apply that commits its own.
        let acked = deliver(mm, 1, begin_apply(1));
        let [Action::Send(
            to,
            Channel::Signals,
            GMsg::Inner {
                group: 1,
                msg: Msg::Ack { .. },
            },
        ), Action::Defer { tag: deferred }] = acked[..]
        else {
            panic!("group 1's Ack, then its deferred apply, got {acked:?}");
        };
        assert_eq!(to, n0);
        let owed = tag::encode(tag::APPLY_OWED, rounds[1]);
        assert_eq!(split_tag(deferred), Some((1, owed)));
        assert_eq!((mm.cross_resolved(), mm.frozen_groups()), (0, vec![0]));
        // Group 0's next event pays group 1 first: the round resolves on
        // the merge of a = 0 and b = 5, and the event is taken, not fenced.
        assert!(!bumped.load(Ordering::SeqCst));
        deliver(mm, 0, Msg::SyncComplete { round: rounds[0] });
        assert!(
            bumped.load(Ordering::SeqCst),
            "the paid apply's completion ran"
        );
        assert_eq!(mm.cross_resolved(), 1);
        assert_eq!(
            mm.read_committed::<Pair, _>(obj, |p| (p.a, p.b)),
            Some((1, 6))
        );
        assert!(mm.frozen_groups().is_empty() && mm.buffered.values().all(VecDeque::is_empty));
        assert_eq!(
            mm.group(0).unwrap().active_round(),
            None,
            "SyncComplete taken"
        );
        let mut actions = Vec::new();
        mm.on_timer(deferred, &mut Ctx::new(now, n1, &mut actions));
        assert!(actions.is_empty() && mm.buffered.values().all(VecDeque::is_empty));
        assert_eq!(mm.cross_resolved(), 1);
    }

    #[test]
    fn merged_guess_read_is_immediate_per_group() {
        let (mut net, _) = cluster(2);
        run_multi_until_joined(&mut net, SimTime::from_secs(10));
        let n0 = MachineId::new(0);
        let mut obj = None;
        net.call(n0, |mm, ctx| {
            obj = Some(mm.create_instance(Pair::default(), ctx));
        });
        let obj = obj.unwrap();
        net.run_until(net.now() + SimTime::from_secs(2));
        net.call(n0, |mm, ctx| {
            mm.issue(SharedOp::primitive(obj, "bump_a", args![5]), None, ctx)
                .unwrap();
            // Guesstimated effect is visible before the round commits.
            assert_eq!(mm.read::<Pair, _>(obj, |p| p.a), Some(5));
        });
    }
}

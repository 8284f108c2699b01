//! Per-machine state and the paper's API surface.
//!
//! A [`Machine`] holds the 5-tuple of §3 — local state (owned by the
//! application through completion closures), the completed sequence `C`, the
//! committed store `sc`, the pending list `P` and the guesstimated store
//! `sg` — plus one instance of each protocol role from [`crate::roles`].
//! The *protocol* (how machines talk) lives in [`crate::protocol`], which
//! composes the role state machines; the commit-side machinery (applying a
//! consolidated round, rebuilding `sg = [P](sc)`, restarts, join
//! initialization) lives in [`crate::exec`]. This module implements the
//! local API: issuing (rule R2), reads, and the object catalog.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use guesstimate_core::{
    CompletionFn, ExecError, GState, MachineId, ObjectId, ObjectStore, OpId, OpRegistry, SharedOp,
    Value,
};
use guesstimate_net::{NoopTracer, SimTime, TraceEvent, TraceRecord, Tracer};
use guesstimate_telemetry::Telemetry;

use crate::config::MachineConfig;
use crate::exec::execute_wire;
use crate::hybrid::AsyncIn;
use crate::message::{WireEnvelope, WireOp};
use crate::roles::election::ElectionRole;
use crate::roles::master::MasterRole;
use crate::roles::membership::MembershipRole;
use crate::roles::participant::ParticipantRole;
use crate::roles::OpsBatch;
use crate::stats::MachineStats;

/// A GUESSTIMATE machine: replicated state plus synchronizer.
///
/// `Machine` implements [`guesstimate_net::Actor`], so it runs under both
/// the deterministic simulated mesh and the threaded mesh. Application code
/// interacts with it through the methods below, which mirror the paper's
/// API:
///
/// | Paper (C#)                   | Here                                  |
/// |------------------------------|---------------------------------------|
/// | `CreateInstance(type)`       | [`Machine::create_instance`]          |
/// | `AvailableObjects()`         | [`Machine::available_objects`]        |
/// | `GetType(uniqueID)`          | [`Machine::object_type`]              |
/// | `JoinInstance(uniqueID)`     | [`Machine::join_instance`]            |
/// | `CreateOperation(obj, m, a)` | [`SharedOp::primitive`]               |
/// | `CreateAtomic(ops)`          | [`SharedOp::atomic`]                  |
/// | `CreateOrElse(a, b)`         | [`SharedOp::or_else`]                 |
/// | `IssueOperation(op, c)`      | [`Machine::issue_with_completion`]    |
/// | `BeginRead`/`EndRead`        | [`Machine::read`] (closure-scoped)    |
///
/// # Examples
///
/// See the `guesstimate-runtime` crate-level example.
pub struct Machine {
    pub(crate) id: MachineId,
    pub(crate) registry: Arc<OpRegistry>,
    pub(crate) cfg: MachineConfig,

    // --- The §3 machine state ---
    pub(crate) committed: ObjectStore,       // sc
    pub(crate) guess: ObjectStore,           // sg
    pub(crate) pending: VecDeque<PendingOp>, // P
    pub(crate) completed: Vec<OpId>,         // C (identities)

    // --- Object catalog (AvailableObjects) ---
    pub(crate) catalog: BTreeMap<ObjectId, String>,

    // --- Issue bookkeeping ---
    pub(crate) op_seq: u64,
    pub(crate) obj_seq: u64,

    // --- Hybrid commit path (MachineConfig::async_commit) ---
    /// Next async sequence number to stamp on an async-committed op.
    /// Monotone across restarts — never reset, so receivers' watermarks
    /// stay valid when this machine rejoins.
    pub(crate) aseq_next: u64,
    /// Async ops committed here since the last flush; piggybacked on the
    /// next `Msg::Ops` as the round-boundary fence, then cleared.
    pub(crate) async_window: Vec<(u64, WireEnvelope)>,
    /// Per-sender inbound async state: watermark + reorder buffer.
    pub(crate) async_in: BTreeMap<MachineId, AsyncIn>,
    /// Memoized [`crate::commute::universal_commuters`] per type name.
    pub(crate) universal_cache: HashMap<String, BTreeSet<String>>,
    /// The serialized-only subsequence of `completed`, in round order.
    /// Under the hybrid path the full `completed` list interleaves async
    /// commits in per-machine arrival order, so round-total-order oracle
    /// checks (prefix agreement) consult this list instead.
    pub(crate) completed_serialized: Vec<OpId>,
    /// Committed-but-unresolved [`crate::message::WireOp::CrossMarker`]
    /// envelopes, in this group's commit order. Only populated in
    /// multi-group mode; drained by the [`crate::multigroup::MultiMachine`]
    /// wrapper after every dispatched event.
    pub(crate) cross_commits: Vec<WireEnvelope>,

    // --- Protocol roles (sans-IO state machines; see crate::roles) ---
    pub(crate) is_master: bool,
    pub(crate) master: MasterRole,
    pub(crate) participant: ParticipantRole,
    pub(crate) membership: MembershipRole,
    pub(crate) election: ElectionRole,

    pub(crate) history: Vec<WireEnvelope>,
    pub(crate) remote_hooks: Vec<RemoteUpdateHook>,
    /// Witness-containment escapes recorded at apply sites under
    /// [`MachineConfig::checks`]; see
    /// [`crate::exec::WitnessViolation`].
    pub(crate) witness_log: Vec<crate::exec::WitnessViolation>,
    /// Shard-containment escapes recorded at commit sites when a
    /// [`MachineConfig::shard_plan`] is installed under
    /// [`MachineConfig::checks`]; see
    /// [`crate::shard::ShardViolation`].
    pub(crate) shard_log: Vec<crate::shard::ShardViolation>,
    pub(crate) stats: MachineStats,
    pub(crate) tracer: Arc<dyn Tracer>,
    pub(crate) telemetry: Telemetry,
}

/// One entry of the pending list `P`: the paper's `(operation, completion)`
/// pair plus what the commit needs to account for it. Built only by
/// [`Machine::enqueue`]; the round commit pops it off the front of `P`.
pub(crate) struct PendingOp {
    /// Where the `(machineId, opNumber, op)` triple a flush ships lives;
    /// read it through [`PendingOp::env`].
    pub(crate) slot: EnvSlot,
    /// Executions so far: the issue-time run plus every counted replay.
    pub(crate) execs: u32,
    /// The completion routine, run with the commit-time result.
    pub(crate) completion: Option<CompletionFn>,
    /// Issue time, when the caller stamped one (commit-latency stats).
    pub(crate) issued_at: Option<SimTime>,
}

/// Where a pending operation's envelope lives. It is built once, at issue,
/// and the record owns it until its first flush, which moves it into the
/// batch it ships ([`Machine::cut_flush`]); from then on the record points
/// at its slot there, so the broadcast, the stored flush, the machine's own
/// received run, the master's `BeginApply` and the commit all share one
/// allocation.
pub(crate) enum EnvSlot {
    /// Never flushed: the record holds the envelope itself.
    Own(WireEnvelope),
    /// Flushed: slot `.1` of the batch `.0`.
    Flushed(OpsBatch, usize),
}

impl PendingOp {
    /// The operation's `(machineId, opNumber, op)` triple.
    pub(crate) fn env(&self) -> &WireEnvelope {
        match &self.slot {
            EnvSlot::Own(env) => env,
            EnvSlot::Flushed(batch, i) => &batch[*i],
        }
    }
}

/// Callback invoked after a synchronization commits *foreign* operations
/// touching an object (see [`Machine::on_remote_update`]).
pub type RemoteUpdateHook = Box<dyn FnMut(ObjectId) + Send>;

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("id", &self.id)
            .field("master", &self.is_master)
            .field("objects", &self.catalog.len())
            .field("pending", &self.pending.len())
            .field("completed", &self.completed.len())
            .finish()
    }
}

impl Machine {
    /// Creates the master machine.
    ///
    /// The master participates like any other machine and additionally
    /// drives synchronization, membership and recovery. The paper's runtime
    /// designates exactly one master; master failure is not tolerated (§9).
    pub fn new_master(id: MachineId, registry: Arc<OpRegistry>, cfg: MachineConfig) -> Self {
        Machine::new_inner(id, registry, cfg, true)
    }

    /// Creates a non-master member; it will request to join on start.
    pub fn new_member(id: MachineId, registry: Arc<OpRegistry>, cfg: MachineConfig) -> Self {
        Machine::new_inner(id, registry, cfg, false)
    }

    fn new_inner(
        id: MachineId,
        registry: Arc<OpRegistry>,
        cfg: MachineConfig,
        is_master: bool,
    ) -> Self {
        Machine {
            id,
            registry,
            cfg,
            committed: ObjectStore::new(),
            guess: ObjectStore::new(),
            pending: VecDeque::new(),
            completed: Vec::new(),
            catalog: BTreeMap::new(),
            op_seq: 0,
            obj_seq: 0,
            aseq_next: 0,
            async_window: Vec::new(),
            async_in: BTreeMap::new(),
            universal_cache: HashMap::new(),
            completed_serialized: Vec::new(),
            cross_commits: Vec::new(),
            is_master,
            master: MasterRole::new(id),
            participant: ParticipantRole::new(id),
            membership: MembershipRole::new(id, is_master),
            election: ElectionRole::new(id),
            history: Vec::new(),
            remote_hooks: Vec::new(),
            witness_log: Vec::new(),
            shard_log: Vec::new(),
            stats: MachineStats::default(),
            tracer: Arc::new(NoopTracer),
            telemetry: Telemetry::noop(),
        }
    }

    /// Installs a trace sink; subsequent protocol transitions emit
    /// [`TraceEvent`]s to it. The default sink discards everything.
    ///
    /// One sink (behind an `Arc`) may be shared by every machine in a
    /// cluster; see [`crate::cluster::sim_cluster_instrumented`].
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// Installs a telemetry handle; subsequent op-lifecycle transitions
    /// (issue, flush, commit, completion, restart loss) and round-health
    /// samples are recorded through it. The default handle is the no-op,
    /// which costs one branch per hook.
    ///
    /// One handle (clones share instruments) is typically installed into
    /// every machine of a cluster; see
    /// [`crate::cluster::sim_cluster_instrumented`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The machine's telemetry handle (no-op unless installed).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Emits one trace event attributed to this machine at `at`.
    #[inline]
    pub(crate) fn trace(&self, at: SimTime, event: TraceEvent) {
        self.tracer.record(TraceRecord {
            at,
            source: self.id,
            event,
        });
    }

    /// This machine's id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// True if this machine is the designated master.
    pub fn is_master(&self) -> bool {
        self.is_master
    }

    /// The machine's counters.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Number of operations currently pending (the length of `P`).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of committed operations (the length of `C`).
    pub fn completed_len(&self) -> usize {
        self.completed.len()
    }

    /// The completed-operation identities `C`, in commit order.
    ///
    /// Oracle surface for the schedule model checker (`guesstimate-mc`):
    /// the paper's agreement invariant says any two machines' completed
    /// sequences are prefix-ordered, and equal sequences imply equal
    /// committed states.
    pub fn completed_ops(&self) -> &[OpId] {
        &self.completed
    }

    /// The serialized-only subsequence of the completed operations, in the
    /// master's round-total order.
    ///
    /// Identical to [`Machine::completed_ops`] unless the hybrid commit
    /// path ([`crate::MachineConfig::async_commit`]) is enabled, in which
    /// case async commits — which land in per-machine arrival order — are
    /// excluded. The model checker's prefix-agreement oracle compares this
    /// sequence across machines.
    pub fn completed_serialized(&self) -> &[OpId] {
        &self.completed_serialized
    }

    /// Deterministic digest of the committed state `sc`.
    pub fn committed_digest(&self) -> u64 {
        self.committed.digest()
    }

    /// Deterministic digest of the guesstimated state `sg`.
    pub fn guess_digest(&self) -> u64 {
        self.guess.digest()
    }

    /// True once the machine has been admitted to the system (masters start
    /// admitted; members are admitted after the join handshake).
    pub fn is_joined(&self) -> bool {
        self.membership.is_joined()
    }

    /// True once the machine has participated in a synchronization round.
    pub fn in_cohort(&self) -> bool {
        self.membership.in_cohort()
    }

    /// Current members, as known by the master (empty on non-masters).
    pub fn members(&self) -> Vec<MachineId> {
        self.membership.members().iter().copied().collect()
    }

    /// The newest round this machine is in, if any: installed by `BeginSync`
    /// (or, on the master, by its own tick) and held until `SyncComplete`.
    pub fn active_round(&self) -> Option<u64> {
        self.participant.active_round()
    }

    /// For schedule exploration: the newest round this machine holds and
    /// has flushed -- a member on taking its `BeginSync`, the master under
    /// the parallel flush only as stage 1 closes, in the step it applies.
    pub fn flushed_round(&self) -> Option<u64> {
        self.participant.flushed_round()
    }

    /// For schedule exploration: when this master's sync tick is due, if
    /// firing it now would begin a round *under* the one in flight -- that
    /// round is in stage 2 and applied here, stage 1 is free, and no joiner
    /// or held tick is in the way. `None` otherwise, on a member, and under
    /// serial turns.
    pub fn overlap_tick_due(&self) -> Option<SimTime> {
        let clear = self.is_master
            && self.membership.hold.is_none()
            && self.membership.pending_joins.is_empty();
        self.master.overlap_tick_due(&self.cfg).filter(|_| clear)
    }

    /// How many early rounds the participant role is currently buffering
    /// (round messages that arrived before their `BeginSync`).
    pub fn buffered_rounds(&self) -> usize {
        self.participant.buffered_rounds()
    }

    /// The recorded committed-operation history (empty unless
    /// [`crate::MachineConfig::checks`] are on).
    pub fn history(&self) -> &[WireEnvelope] {
        &self.history
    }

    /// Registers a callback that fires after each synchronization, once per
    /// shared object that a *foreign* (remote) committed operation touched.
    ///
    /// §9 of the paper lists exactly this as a missing facility:
    /// "Completion operations provide one way to update local state but
    /// these do not handle updates from remote operations. A mechanism to
    /// register a callback function for remote updates could prove useful."
    /// The Sudoku application's grid-refresh problem (§6) is the motivating
    /// use: repaint a square whenever another player's move lands.
    ///
    /// Callbacks run after the committed→guesstimated copy and the
    /// completion routines, so reads performed from them (via
    /// [`Machine::read`] on a captured handle) observe post-commit state.
    /// Hooks survive recovery restarts (they are UI wiring, not replicated
    /// state).
    pub fn on_remote_update(&mut self, hook: RemoteUpdateHook) {
        self.remote_hooks.push(hook);
    }

    /// Checks the §3 invariant `[P](sc) = sg`: replays the pending list
    /// over a copy of the committed store and compares digests with the
    /// guesstimated store. Integration tests call this at arbitrary points
    /// of a run to check that the implementation maintains the formal
    /// model's invariant.
    pub fn check_guess_invariant(&self) -> bool {
        let mut replay = self.committed.clone();
        for p in &self.pending {
            let _ = execute_wire(&p.env().op, &mut replay, &self.registry);
        }
        replay.digest() == self.guess.digest()
    }

    /// Debug-asserts [`Machine::check_guess_invariant`] when
    /// [`MachineConfig::checks`] are on.
    ///
    /// The protocol driver calls this after every `on_start` / `on_message`
    /// / `on_timer` step, so an enabled machine validates the §3 invariant
    /// at every point a scheduler could observe it. Compiled out of release
    /// builds (`debug_assert!`).
    #[inline]
    pub(crate) fn check_step(&self, site: &str) {
        if self.cfg.checks.on() {
            debug_assert!(
                self.check_guess_invariant(),
                "checks: [P](sc) != sg on {:?} after {site}",
                self.id
            );
        }
    }

    /// Witness-containment escapes recorded at this machine's apply sites
    /// (issue, commit, replay, async paths) under
    /// [`MachineConfig::checks`].
    ///
    /// Empty unless a method accessed state outside its declared
    /// [`guesstimate_core::EffectSpec`] footprint. Under
    /// [`crate::Checks::Record`] escapes accumulate here
    /// (bounded) instead of `debug_assert!`ing — the model checker's
    /// witness oracle reads this log after every step.
    pub fn witness_violations(&self) -> &[crate::exec::WitnessViolation] {
        &self.witness_log
    }

    /// The shard-containment escapes recorded on this machine.
    ///
    /// Empty unless a [`MachineConfig::shard_plan`] is installed, checks
    /// are on, and a committed operation's declared footprint escaped its
    /// routed shard. Under [`crate::Checks::Record`] escapes accumulate here (bounded) instead of
    /// `debug_assert!`ing — the model checker's shard oracle reads this
    /// log after every step.
    pub fn shard_violations(&self) -> &[crate::shard::ShardViolation] {
        &self.shard_log
    }

    pub(crate) fn next_op_id(&mut self) -> OpId {
        let id = OpId::new(self.id, self.op_seq);
        self.op_seq += 1;
        id
    }

    // ------------------------------------------------------------------
    // The paper's API
    // ------------------------------------------------------------------

    /// Creates a new shared object with the given initial state
    /// (`Guesstimate.CreateInstance`).
    ///
    /// The object is visible immediately in this machine's guesstimated
    /// state; other machines materialize it when the creation commits.
    ///
    /// # Panics
    ///
    /// Panics if `T` was not registered with the shared [`OpRegistry`] —
    /// every machine must be able to construct every shared type.
    pub fn create_instance<T: GState>(&mut self, init: T) -> ObjectId {
        let object = ObjectId::new(self.id, self.obj_seq);
        self.obj_seq += 1;
        self.create_instance_as(object, init);
        object
    }

    /// Like [`Machine::create_instance`] but with a caller-chosen
    /// [`ObjectId`] — multi-group mode fans one logical creation out to
    /// every hosted group's machine under a *shared* id, so the copies
    /// stay mergeable (see [`crate::multigroup::MultiMachine`]).
    ///
    /// # Panics
    ///
    /// Panics if `T` is unregistered or the id is already cataloged here.
    pub(crate) fn create_instance_as<T: GState>(&mut self, object: ObjectId, init: T) {
        assert!(
            self.registry.has_type(T::TYPE_NAME),
            "create_instance: type {:?} is not registered",
            T::TYPE_NAME
        );
        assert!(
            !self.catalog.contains_key(&object),
            "create_instance: object {object:?} already exists"
        );
        let create = WireOp::Create {
            object,
            type_name: T::TYPE_NAME.to_owned(),
            init: GState::snapshot(&init),
        };
        self.catalog.insert(object, T::TYPE_NAME.to_owned());
        self.guess.insert(object, Box::new(init));
        self.enqueue(create, None, None);
    }

    /// Appends a [`WireOp::CrossMarker`] to the pending list (multi-group
    /// coordinator only). Markers are store no-ops, so there is no R2
    /// issue-time execution; they flow through flush and commit like any
    /// pending operation and surface in
    /// [`Machine::take_cross_commits`] once committed.
    pub(crate) fn issue_cross_marker(
        &mut self,
        xid: u64,
        origin: MachineId,
        oseq: u64,
        groups: Vec<u32>,
        op: SharedOp,
    ) -> OpId {
        let marker = WireOp::CrossMarker {
            xid,
            origin,
            oseq,
            groups,
            op,
        };
        self.enqueue(marker, None, None)
    }

    /// Appends one operation to the pending list `P` — the only way in.
    /// The caller has already run it on `sg` (rule R2), which is the one
    /// execution the record starts with.
    pub(crate) fn enqueue(
        &mut self,
        op: WireOp,
        completion: Option<CompletionFn>,
        issued_at: Option<SimTime>,
    ) -> OpId {
        let id = self.next_op_id();
        self.pending.push_back(PendingOp {
            slot: EnvSlot::Own(WireEnvelope { id, op }),
            execs: 1,
            completion,
            issued_at,
        });
        self.stats.issued += 1;
        self.telemetry.op_issued(id, issued_at);
        let depth = self.pending.len() as u64;
        self.stats.max_pending_depth = self.stats.max_pending_depth.max(depth);
        id
    }

    /// Cuts the batch a flush ships: `P`'s envelopes in issue order. Every
    /// never-flushed envelope is moved into the batch, one flushed before
    /// (its flush was removed from its round, or the round was abandoned
    /// before it committed) is copied out of its old batch, and every
    /// record is left pointing at its slot in the new one.
    pub(crate) fn cut_flush(&mut self) -> OpsBatch {
        // Records sit on this empty batch while the new one fills.
        let parked = OpsBatch::default();
        let mut ops = Vec::with_capacity(self.pending.len());
        for p in &mut self.pending {
            match std::mem::replace(&mut p.slot, EnvSlot::Flushed(Arc::clone(&parked), 0)) {
                EnvSlot::Own(env) => ops.push(env),
                EnvSlot::Flushed(batch, i) => ops.push(batch[i].clone()),
            }
        }
        let batch = Arc::new(ops);
        for (i, p) in self.pending.iter_mut().enumerate() {
            p.slot = EnvSlot::Flushed(Arc::clone(&batch), i);
        }
        batch
    }

    /// Drains the committed-but-unresolved cross markers (commit order).
    pub(crate) fn take_cross_commits(&mut self) -> Vec<WireEnvelope> {
        std::mem::take(&mut self.cross_commits)
    }

    /// Canonical snapshot of one object's **committed** state, or `None`
    /// if the object has not materialized here (multi-group merge input).
    pub(crate) fn committed_object_snapshot(&self, id: ObjectId) -> Option<Value> {
        self.committed.get(id).map(|o| o.snapshot())
    }

    /// Canonical snapshot of one object's **guesstimated** state, or
    /// `None` if absent (multi-group merged-read input).
    pub(crate) fn guess_object_snapshot(&self, id: ObjectId) -> Option<Value> {
        self.guess.get(id).map(|o| o.snapshot())
    }

    /// Executes a cross-routed payload against this group's committed
    /// store at its marker's interleaving point (multi-group coordinated
    /// round). Every involved group runs the identical deterministic
    /// payload on the identical merged pre-state, so the boolean result
    /// agrees across groups and across nodes.
    pub(crate) fn execute_cross_payload(&mut self, op: &SharedOp) -> bool {
        crate::exec::execute_shared_checked(
            op,
            &mut self.committed,
            &self.registry,
            &self.cfg,
            self.id,
            "cross-resolve",
            &mut self.witness_log,
        )
        .map(|o| o.as_bool())
        .unwrap_or(false)
    }

    /// Overwrites one committed object's state from a canonical snapshot
    /// (multi-group coordinated-round write-back). The caller must follow
    /// up with [`Machine::rebuild_guess_from_committed`] to restore the
    /// `sg = [P](sc)` invariant.
    pub(crate) fn overwrite_committed_object(&mut self, id: ObjectId, v: &Value) {
        if let Some(obj) = self.committed.get_mut(id) {
            obj.restore(v)
                .expect("cross write-back: merged snapshot must match the object's type");
        }
    }

    /// Re-establishes `sg = [P](sc)` after an out-of-band committed-store
    /// write (the cross coordinated-round write-back, which marks what it
    /// overwrites like any other store write): resync `sc → sg`, then
    /// replay the pending list in order.
    ///
    /// Replays here are extension-level re-executions attributable to the
    /// cross round, *outside* the paper's ≤3-executions-per-op budget; they
    /// are counted in [`crate::MachineStats::replays`] but deliberately do
    /// not bump the per-op `exec_counts` consumed by that bound.
    pub(crate) fn rebuild_guess_from_committed(&mut self) {
        self.resync_guess();
        self.replay_pending("cross-rebuild", None, false);
    }

    /// All objects this machine knows about: `(id, type name)` pairs
    /// (`Guesstimate.AvailableObjects`).
    pub fn available_objects(&self) -> Vec<(ObjectId, String)> {
        self.catalog
            .iter()
            .map(|(id, t)| (*id, t.clone()))
            .collect()
    }

    /// The registered type name of an object (`Guesstimate.GetType`).
    pub fn object_type(&self, id: ObjectId) -> Option<&str> {
        self.catalog.get(&id).map(String::as_str)
    }

    /// Registers interest in an object created elsewhere
    /// (`Guesstimate.JoinInstance`), returning its type name.
    ///
    /// The runtime replicates every object's committed state on every
    /// machine (see DESIGN.md), so joining is a catalog lookup; it returns
    /// `None` when the object has not (yet) been announced here.
    pub fn join_instance(&self, id: ObjectId) -> Option<&str> {
        self.object_type(id)
    }

    /// Issues a shared operation without a completion routine.
    ///
    /// See [`Machine::issue_with_completion`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unknown objects or unregistered methods.
    pub fn issue(&mut self, op: SharedOp) -> Result<bool, ExecError> {
        self.issue_inner(op, None, None)
    }

    /// Issues a shared operation with a completion routine
    /// (`Guesstimate.IssueOperation`).
    ///
    /// This is rule **R2** of the operational semantics: the operation runs
    /// immediately on the guesstimated state; if it succeeds it is appended
    /// to the pending list (to be committed on all machines by a later
    /// synchronization) and `Ok(true)` is returned. If it fails on the
    /// guesstimated state it is dropped — the completion routine is *not*
    /// retained — and `Ok(false)` is returned, giving the user instant
    /// feedback to alter and resubmit.
    ///
    /// The completion routine runs at commit time on this machine with the
    /// commit-time boolean (which may differ from the issue-time result — a
    /// *conflict*).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unknown objects or unregistered methods.
    pub fn issue_with_completion(
        &mut self,
        op: SharedOp,
        completion: CompletionFn,
    ) -> Result<bool, ExecError> {
        self.issue_inner(op, Some(completion), None)
    }

    /// Like [`Machine::issue`], additionally stamping the operation with
    /// its issue time so the runtime can record its issue-to-commit latency
    /// in [`crate::MachineStats::commit_latencies`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unknown objects or unregistered methods.
    pub fn issue_at(
        &mut self,
        op: SharedOp,
        completion: Option<CompletionFn>,
        now: SimTime,
    ) -> Result<bool, ExecError> {
        self.issue_inner(op, completion, Some(now))
    }

    pub(crate) fn issue_inner(
        &mut self,
        op: SharedOp,
        completion: Option<CompletionFn>,
        issued_at: Option<SimTime>,
    ) -> Result<bool, ExecError> {
        if !self.try_on_guess(&op, "issue")? {
            return Ok(false);
        }
        self.enqueue(WireOp::Shared(op), completion, issued_at);
        Ok(true)
    }

    /// The first half of rule R2, shared by the serialized and the async
    /// issue paths: run `op` on `sg`. A failure there is counted and the
    /// operation goes no further.
    pub(crate) fn try_on_guess(
        &mut self,
        op: &SharedOp,
        site: &'static str,
    ) -> Result<bool, ExecError> {
        let outcome = crate::exec::execute_shared_checked(
            op,
            &mut self.guess,
            &self.registry,
            &self.cfg,
            self.id,
            site,
            &mut self.witness_log,
        )?;
        if !outcome.is_success() {
            self.stats.issue_failures += 1;
        }
        Ok(outcome.is_success())
    }

    /// Reads a shared object's guesstimated state, isolated from concurrent
    /// synchronizer writes (`BeginRead`/`EndRead`).
    ///
    /// The closure runs while the machine is exclusively held (every driver
    /// serializes access to the actor), which is exactly the isolation the
    /// paper's read window provides. Returns `None` if the object is absent
    /// or of a different type.
    pub fn read<T: GState, R>(&self, id: ObjectId, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.guess.get_as::<T>(id).map(f)
    }

    /// Reads a shared object's **committed** state (diagnostics; not part of
    /// the paper's API — applications see only the guesstimated state).
    pub fn read_committed<T: GState, R>(&self, id: ObjectId, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.committed.get_as::<T>(id).map(f)
    }

    /// A compact snapshot of this machine's role/protocol state, captured
    /// for flight-recorder postmortem bundles (see `guesstimate-obs`).
    pub fn state_summary(&self) -> StateSummary {
        StateSummary {
            id: self.id,
            is_master: self.is_master,
            joined: self.membership.is_joined(),
            in_cohort: self.membership.in_cohort(),
            active_round: self.active_round(),
            pending: self.pending.len() as u64,
            completed: self.completed.len() as u64,
            completed_serialized: self.completed_serialized.len() as u64,
            committed_digest: self.committed.digest(),
            guess_digest: self.guess.digest(),
            guess_invariant_holds: self.check_guess_invariant(),
            witness_violations: self.witness_log.len() as u64,
            shard_violations: self.shard_log.len() as u64,
            restarts: self.stats.restarts,
        }
    }
}

/// A compact, allocation-free snapshot of one machine's protocol state,
/// produced by [`Machine::state_summary`] for postmortem bundles: enough
/// to see each machine's role, progress, and store digests at the moment
/// a violation fired, without serializing the stores themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateSummary {
    /// The machine.
    pub id: MachineId,
    /// Whether it currently acts as master.
    pub is_master: bool,
    /// Whether it has been admitted to the system.
    pub joined: bool,
    /// Whether it has participated in a synchronization round.
    pub in_cohort: bool,
    /// The round the participant role is currently in, if any.
    pub active_round: Option<u64>,
    /// Length of the pending list `P`.
    pub pending: u64,
    /// Length of the completed sequence `C`.
    pub completed: u64,
    /// Length of the serialized-only completed subsequence.
    pub completed_serialized: u64,
    /// Digest of the committed store `sc`.
    pub committed_digest: u64,
    /// Digest of the guesstimated store `sg`.
    pub guess_digest: u64,
    /// Whether `[P](sc) = sg` held at capture time.
    pub guess_invariant_holds: bool,
    /// Witness-containment escapes recorded so far.
    pub witness_violations: u64,
    /// Shard-containment escapes recorded so far.
    pub shard_violations: u64,
    /// Restarts this machine has performed.
    pub restarts: u64,
}

#[cfg(test)]
#[path = "machine_tests.rs"]
mod tests;

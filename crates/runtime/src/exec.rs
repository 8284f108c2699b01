//! Commit-side machinery: applying a consolidated round (and rebuilding
//! `sg = [P](sc)` after it), join initialization, and restarts.
//!
//! These are the [`Machine`] operations that touch the replicated stores
//! (`sc`, `sg`) and the pending list in bulk. They are invoked by the
//! composer in [`crate::protocol`] when it lowers role effects —
//! [`Machine::apply_committed_round`] behind `Effect::TryApply`,
//! [`Machine::init_from_join_info`] on `JoinInfo`, and
//! [`Machine::reset_for_restart`] behind `Effect::SelfRestart`.

use std::collections::{BTreeMap, BTreeSet};

use guesstimate_core::{
    containment_escapes, declared_footprints, execute, execute_witnessed, Callback, ExecError,
    ExecOutcome, ExecPass, MachineId, ObjectId, ObjectStore, OpId, OpRegistry, ProbeReads,
    SharedOp,
};
use guesstimate_net::{ReplayCause, SimTime, TraceEvent};

use crate::commute;
use crate::config::{Checks, MachineConfig};
use crate::machine::Machine;
use crate::message::{ObjectInit, WireEnvelope, WireOp};
use crate::roles::OpsBatch;

impl Machine {
    /// Applies one round's consolidated operation list — the received
    /// `runs`, one sorted batch per machine, end to end in machine order —
    /// to the committed state, recording own results and (while a hook is
    /// registered) the objects foreign operations touched for the step's
    /// end, then re-establishes `sg = [P](sc)`: copy `sc → sg`, replay
    /// remaining pending operations. The rebuild runs every round.
    ///
    /// Returns the number of operations committed.
    pub(crate) fn apply_committed_round(
        &mut self,
        runs: &[OpsBatch],
        round: u64,
        now: SimTime,
    ) -> u64 {
        // The round's operations run on `sc` in one pass; the bookkeeping
        // below reads none of `sc`, so it follows in a second loop.
        let mut pass = ExecPass::new(&mut self.committed, &self.registry);
        let results: Vec<bool> = round_ops(runs)
            .map(|env| {
                let log = &mut self.witness_log;
                commit_execute(&mut pass, &env.op, &self.cfg, self.id, "commit", log)
            })
            .collect();
        let mut remote_touched: BTreeSet<ObjectId> = BTreeSet::new();
        // This machine's operations in the round: `P`'s prefix they commit.
        let mut own = 0;
        for (env, result) in round_ops(runs).zip(results) {
            if env.id.machine() != self.id && self.closures.has_hooks() {
                // A marker touches nothing here: the wrapper fires hooks for
                // its payload's objects when the coordinated round resolves.
                remote_touched.extend(commute::wire_objects(&env.op));
            }
            if let WireOp::Create {
                object, type_name, ..
            } = &env.op
            {
                self.catalog.insert(*object, type_name.clone());
            }
            self.record_commit(env, "commit", true, true);
            if matches!(env.op, WireOp::CrossMarker { .. }) {
                // Hand the committed marker to the multi-group wrapper: its
                // position in this group's commit order *is* the agreed
                // interleaving point of the coordinated round.
                self.cross_commits.push(env.clone());
            }
            if env.id.machine() != self.id {
                self.stats.committed_foreign += 1;
                continue;
            }
            // Own ops commit in issue order, so this one is next in `P`.
            let record = self.pending.get(own).filter(|(e, _)| e.id == env.id);
            let record = record.map(|(_, record)| record);
            debug_assert!(record.is_some(), "own op committed out of pending order");
            own += usize::from(record.is_some());
            let count = record.map_or(0, |p| p.execs) + 1;
            self.stats.record_exec_count(count);
            self.stats.committed_own += 1;
            self.telemetry.op_committed(env.id, round, count, now);
            if !result {
                // Succeeded at issue (only successful ops are enqueued),
                // failed at commit: a conflict (Figure 7).
                self.stats.conflicts += 1;
            }
            if record.is_some_and(|r| r.completion) {
                self.callbacks.push(Callback::Completed(env.id, result));
            }
        }
        self.pending.retire(own);
        // §4 steps (i) and (iii): copy committed onto guesstimated, replay
        // the still-pending operations. Step (ii), the pending completion
        // routines, runs when the step ends (`Machine::run_callbacks`).
        self.resync_guess();
        let cause = if round_ops(runs).any(|e| e.id.machine() != self.id) {
            ReplayCause::ForeignConflict
        } else {
            ReplayCause::RoundReplay
        };
        self.replay_pending("replay", Some((round, cause, now)), true);
        self.stats.rounds_applied += 1;
        self.callbacks
            .extend(remote_touched.into_iter().map(Callback::Touched));
        // Async operations held back because their object's Create had not
        // committed here yet may have just become applicable.
        if self.cfg.async_commit {
            self.drain_async(now);
        }
        runs.iter().map(|run| run.len() as u64).sum()
    }

    /// The one commit step of the three async commit sites: execute `env`
    /// on `sc` (witness-checked under `site`), then
    /// [`Machine::record_commit`] it as not serialized. Returns the
    /// commit-time result. Stats, telemetry and completions differ per site
    /// and stay with the caller.
    pub(crate) fn commit_async(
        &mut self,
        env: &WireEnvelope,
        site: &'static str,
        count_shard: bool,
    ) -> bool {
        let mut pass = ExecPass::new(&mut self.committed, &self.registry);
        let log = &mut self.witness_log;
        let result = commit_execute(&mut pass, &env.op, &self.cfg, self.id, site, log);
        self.record_commit(env, site, false, count_shard);
        result
    }

    /// What every commit records, the round's and the async sites', after
    /// executing `env` on `sc`: label its shard when `count_shard`, append
    /// it to `C` — and, with async commits on, to the serialized
    /// subsequence when `serialized` (with them off that subsequence *is*
    /// `C`; see [`Machine::completed_serialized`]) — and record history.
    pub(crate) fn record_commit(
        &mut self,
        env: &WireEnvelope,
        site: &'static str,
        serialized: bool,
        count_shard: bool,
    ) {
        if count_shard {
            self.note_shard_commit(&env.op, site);
        }
        self.completed.push(env.id);
        if serialized && self.cfg.async_commit {
            self.completed_serialized.push(env.id);
        }
        if self.cfg.checks.on() {
            self.history.push(env.clone());
        }
    }

    /// The `sc → sg` copy of §4 as a delta: only the objects either store
    /// was mutated on since the last resync are copied, cloned in or
    /// removed (see [`ObjectStore::sync_from`]).
    pub(crate) fn resync_guess(&mut self) {
        self.stats.objects_resynced += self.guess.sync_from(&mut self.committed) as u64;
    }

    /// Replays the pending list `P` onto `sg`, in order — the second half
    /// of every rebuild of `sg = [P](sc)`; the caller has just copied
    /// `sc → sg`. `site` labels the apply site for witness checks; `traced`
    /// is the `(round, cause, now)` of the [`TraceEvent::Reexecuted`] to
    /// emit when anything replayed; `count_execs` says whether the replays
    /// count against the paper's ≤ 3-executions-per-op budget.
    pub(crate) fn replay_pending(
        &mut self,
        site: &'static str,
        traced: Option<(u64, ReplayCause, SimTime)>,
        count_execs: bool,
    ) {
        let mut pass = ExecPass::new(&mut self.guess, &self.registry);
        for (env, p) in self.pending.iter_mut() {
            let _ = execute_wire_checked(
                &env.op,
                &mut pass,
                &self.cfg,
                self.id,
                site,
                &mut self.witness_log,
            );
            self.stats.replays += 1;
            if count_execs {
                p.execs += 1;
            }
        }
        let pending = self.pending.len() as u64;
        match traced {
            Some((round, cause, now)) if pending > 0 => self.trace(
                now,
                TraceEvent::Reexecuted {
                    round,
                    pending,
                    cause,
                },
            ),
            _ => {}
        }
    }

    /// Builds the catalog snapshot + completed history shipped to a joining
    /// machine (the master's side of "sends the new device both the list of
    /// available objects and the list of completed operations"), plus the
    /// hybrid path's serialized-only subsequence and per-sender async
    /// watermarks (both trivial when `async_commit` is off).
    #[allow(clippy::type_complexity)]
    pub(crate) fn build_join_info(
        &self,
    ) -> (Vec<ObjectInit>, Vec<OpId>, Vec<OpId>, Vec<(MachineId, u64)>) {
        let catalog = self
            .committed
            .iter()
            .map(|(id, obj)| ObjectInit {
                id,
                type_name: obj.type_name().to_owned(),
                state: obj.snapshot(),
            })
            .collect();
        (
            catalog,
            self.completed.clone(),
            self.completed_serialized().to_vec(),
            self.async_watermarks(),
        )
    }

    /// Initializes committed and guesstimated state from a `JoinInfo`, and
    /// returns whether it did.
    ///
    /// The catalog is built into a fresh store first. One that names a
    /// type this machine has not registered, or holds a snapshot that does
    /// not restore, is refused: the machine is left as it was (unjoined,
    /// `P` kept), the refusal is counted in
    /// [`crate::MachineStats::join_infos_refused`] and traced, and the
    /// join retry asks again.
    ///
    /// Pending operations issued before admission are preserved and
    /// replayed onto the fresh guesstimated state; they commit in this
    /// machine's first round.
    pub(crate) fn init_from_join_info(
        &mut self,
        catalog: Vec<ObjectInit>,
        completed: Vec<OpId>,
        completed_serialized: Vec<OpId>,
        async_watermarks: Vec<(MachineId, u64)>,
        now: SimTime,
    ) -> bool {
        let mut committed = ObjectStore::new();
        let mut types = BTreeMap::new();
        for oi in catalog {
            let restored = self.registry.construct(&oi.type_name).ok();
            let restored = restored.and_then(|mut obj| obj.restore(&oi.state).ok().map(|()| obj));
            let Some(obj) = restored else {
                self.stats.join_infos_refused += 1;
                self.trace(now, TraceEvent::JoinRefused);
                return false;
            };
            committed.insert(oi.id, obj);
            types.insert(oi.id, oi.type_name);
        }
        self.committed = committed;
        self.catalog = types;
        self.completed = completed;
        if self.cfg.async_commit {
            self.completed_serialized = completed_serialized;
        }
        self.retire_ops_committed_while_away();
        let own_watermark = self.install_async_watermarks(async_watermarks);
        if self.cfg.async_commit {
            // Own async commits the master never saw are absent from the
            // snapshot; re-apply them from the (restart-surviving) window.
            self.restore_unseen_asyncs(own_watermark, now);
        }
        // A freshly installed `sc` shares no resync history with `sg`, so
        // this one copy is whole-store.
        self.guess.copy_from(&self.committed);
        for env in self.pending.envs() {
            if let WireOp::Create {
                object, type_name, ..
            } = &env.op
            {
                self.catalog.insert(*object, type_name.clone());
            }
        }
        self.replay_pending("join-replay", Some((0, ReplayCause::JoinReplay, now)), true);
        self.membership.joined_system = true;
        // Round bookkeeping restarts with the new membership epoch: the
        // first BeginSync after (re-)admission re-anchors the numbering.
        self.participant.next_round_expected = None;
        self.participant.drop_rounds();
        // Async ops buffered while unjoined (or held on a missing object
        // that the snapshot just materialized) may now be applicable.
        if self.cfg.async_commit {
            self.drain_async(now);
        }
        true
    }

    /// Retires the pending operations that are already in the `C` a join
    /// just installed: this machine left after `BeginApply` had counted its
    /// flush, so the round committed them everywhere else, and replaying
    /// and flushing them again would commit them twice. `P` commits from
    /// its front, so they are a prefix of it. Their commit-time results
    /// never reached this machine: the completion routines are dropped at
    /// the step's end, and counted as such (no commit stamp reaches
    /// telemetry either).
    fn retire_ops_committed_while_away(&mut self) {
        let Some(first) = self.pending.envs().next().map(|e| e.id.seq()) else {
            return;
        };
        let me = self.id;
        // Not "up to the highest own id in `C`": an async commit takes a
        // later id than the serialized operations still pending behind it.
        let committed: BTreeSet<u64> = self
            .completed
            .iter()
            .filter(|id| id.machine() == me && id.seq() >= first)
            .map(|id| id.seq())
            .collect();
        let mut retired = 0;
        while let Some((env, p)) = self.pending.get(retired) {
            if !committed.contains(&env.id.seq()) {
                break;
            }
            self.stats.record_exec_count(p.execs);
            self.stats.committed_own += 1;
            self.callbacks.push(Callback::Dropped(env.id));
            retired += 1;
        }
        self.pending.retire(retired);
    }

    /// Resets all replicated state, as the paper's restart signal does:
    /// "the machine shuts down the current instance of the application and
    /// restarts the application. Upon restart the machine re-enters the
    /// system in a consistent state." Pending operations are lost (and
    /// counted); their completion routines are dropped at the step's end.
    pub(crate) fn reset_for_restart(&mut self) {
        self.stats.restarts += 1;
        self.telemetry
            .machine_restarted(self.id, self.pending.len() as u64);
        self.stats.ops_lost_to_restart += self.pending.len() as u64;
        let lost = self.pending.clear().into_iter().map(Callback::Dropped);
        self.callbacks.extend(lost);
        self.committed = ObjectStore::new();
        self.guess = ObjectStore::new();
        self.catalog.clear();
        self.completed.clear();
        self.completed_serialized.clear();
        self.cross_commits.clear();
        // Hybrid path: inbound async state is rebuilt from the rejoin's
        // watermarks. The *outbound* fence window and the monotone
        // `aseq_next` deliberately survive the restart — they are what lets
        // a restarted issuer re-fence (and locally restore) async commits
        // the master never observed; see `Machine::restore_unseen_asyncs`.
        self.async_in.clear();
        self.membership.joined_system = false;
        self.membership.in_cohort = false;
        self.participant.next_round_expected = None;
        self.participant.drop_rounds();
    }
}

/// A round's consolidated list: its runs laid end to end, by reference.
fn round_ops(runs: &[OpsBatch]) -> impl Iterator<Item = &WireEnvelope> {
    runs.iter().flat_map(|run| run.iter())
}

/// Executes a wire operation against a store.
///
/// `Create` materializes the object (idempotently overwriting any stale
/// instance) and always succeeds; `Shared` defers to the core engine.
pub(crate) fn execute_wire(
    op: &WireOp,
    store: &mut ObjectStore,
    registry: &OpRegistry,
) -> Result<bool, ExecError> {
    match op {
        WireOp::Create {
            object,
            type_name,
            init,
        } => {
            let mut obj = registry.construct(type_name)?;
            obj.restore(init)
                .expect("create: snapshot must match registered type");
            store.insert(*object, obj);
            Ok(true)
        }
        WireOp::Shared(op) => Ok(execute(op, store, registry)?.as_bool()),
        // Markers are store no-ops: the payload runs against the merged
        // multi-group state at resolution, not here.
        WireOp::CrossMarker { .. } => Ok(true),
    }
}

/// One witness-containment escape observed at a runtime apply site: the
/// operation accessed state outside its methods' declared
/// [`guesstimate_core::EffectSpec`] footprints.
///
/// Recorded on the machine ([`Machine::witness_violations`]); under
/// [`crate::Checks::Assert`] it also `debug_assert!`s, making every checked test
/// cluster and the model checker a live race detector for footprint
/// declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessViolation {
    /// The apply site that observed the escape ("issue", "commit",
    /// "replay", "join-replay", "async-issue",
    /// "async-commit", "async-apply", "async-restore").
    pub site: &'static str,
    /// The rendered [`guesstimate_core::WitnessEscape`].
    pub detail: String,
}

impl std::fmt::Display for WitnessViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}", self.detail, self.site)
    }
}

/// Bound on recorded violations per machine: one escaping method at a hot
/// apply site would otherwise grow the log with every delivery.
const WITNESS_LOG_CAP: usize = 64;

/// [`execute`] with witness-containment checking under
/// [`MachineConfig::checks`].
///
/// When checks are off, or any constituent method lacks a declared
/// effect (nothing to contain against), this is exactly [`execute`].
/// Otherwise the op runs witnessed — write containment always, read
/// probing when [`MachineConfig::witness_reads`] — and any escape is
/// recorded in `log` and (under [`crate::Checks::Assert`]) `debug_assert!`ed.
pub(crate) fn execute_shared_checked(
    op: &SharedOp,
    store: &mut ObjectStore,
    registry: &OpRegistry,
    cfg: &MachineConfig,
    machine: MachineId,
    site: &'static str,
    log: &mut Vec<WitnessViolation>,
) -> Result<ExecOutcome, ExecError> {
    if !cfg.checks.on() {
        return execute(op, store, registry);
    }
    let type_of = |id| store.get(id).map(|o| o.type_name().to_owned());
    let Some(declared) = declared_footprints(op, &type_of, registry) else {
        return execute(op, store, registry);
    };
    let probe = if cfg.witness_reads {
        ProbeReads::Uncovered
    } else {
        ProbeReads::Off
    };
    let (outcome, witness) = execute_witnessed(op, store, registry, probe)?;
    for escape in containment_escapes(&witness, &declared) {
        if cfg.checks == Checks::Assert {
            debug_assert!(
                false,
                "witness escape on {machine:?} at {site}: {escape} (op {op:?})"
            );
        }
        if log.len() < WITNESS_LOG_CAP {
            log.push(WitnessViolation {
                site,
                detail: escape.to_string(),
            });
        }
    }
    Ok(outcome)
}

/// [`execute_wire`] within a pass, with witness-containment checking; see
/// [`execute_shared_checked`], whose per-operation path runs while checks
/// are on. `Create` has nothing to check (it writes its object's whole
/// snapshot by definition).
pub(crate) fn execute_wire_checked(
    op: &WireOp,
    pass: &mut ExecPass<'_>,
    cfg: &MachineConfig,
    machine: MachineId,
    site: &'static str,
    log: &mut Vec<WitnessViolation>,
) -> Result<bool, ExecError> {
    let registry = pass.registry();
    match op {
        WireOp::Create { .. } | WireOp::CrossMarker { .. } => {
            execute_wire(op, pass.store(), registry)
        }
        WireOp::Shared(op) if cfg.checks.on() => {
            let store = pass.store();
            Ok(execute_shared_checked(op, store, registry, cfg, machine, site, log)?.as_bool())
        }
        WireOp::Shared(op) => Ok(pass.execute(op)?.as_bool()),
    }
}

/// [`execute_wire_checked`] at a commit site, where an error means the
/// machines disagree on their registries or catalogs.
fn commit_execute(
    pass: &mut ExecPass<'_>,
    op: &WireOp,
    cfg: &MachineConfig,
    machine: MachineId,
    site: &'static str,
    log: &mut Vec<WitnessViolation>,
) -> bool {
    execute_wire_checked(op, pass, cfg, machine, site, log).unwrap_or_else(|e| {
        panic!("{site}: registries and catalogs must agree on every machine: {e:?}")
    })
}

//! The hybrid commit path: commute-first asynchronous commits.
//!
//! The paper's synchronizer totally orders *every* operation through the
//! master's serial-turn rounds, so even an operation that provably
//! commutes with everything pays a full round of latency before it
//! commits. This module adds a second, CRDT-style commit path for the
//! *universal commuters* of a type — methods the validated
//! [`guesstimate_core::CommuteMatrix`] proves always-commuting with every
//! registered method of their type, themselves included (see
//! [`crate::commute::universal_commuters`]):
//!
//! - **Issue** ([`Machine::issue_hybrid`]): an eligible operation executes
//!   on the guesstimated state, commits immediately to the local committed
//!   state, runs its completion routine, and is broadcast as
//!   [`Msg::AsyncOp`] — all in one step, no round involved. Its
//!   issue-to-commit latency is one local step instead of a sync period.
//! - **Receive** ([`Machine::handle_async_op`]): receivers apply foreign
//!   async operations in per-sender FIFO order (an `aseq` watermark plus a
//!   reorder buffer), patching both `sc` and `sg` in place. Because the
//!   operation commutes — in final state *and* results — with every
//!   operation that can ever interleave with it, arrival-order application
//!   yields the same state on every machine, and `sg = [P](sc)` is
//!   preserved by patching both stores.
//! - **Fence** ([`Machine::take_async_window`] /
//!   [`Machine::apply_async_batch`]): every flush piggybacks the sender's
//!   not-yet-fenced async window on its `Msg::Ops` batch, which rides the
//!   round's reliability machinery (`FlushDone` counts, `OpsRequest`
//!   resends). A serialized round therefore observes every async commit
//!   that causally preceded the flush, and a receiver that lost the
//!   original `AsyncOp` broadcast is repaired at the next round boundary.
//!   The window is trimmed only once a round in which it rode a non-empty
//!   (and therefore resend-guaranteed) flush completes -- or any flush of
//!   the master's under the parallel flush, which rides the `BeginApply` no
//!   machine applies the round without; until then it is
//!   re-piggybacked -- except by the flush of the next round while that
//!   round is still closing, which would only repeat what the closing
//!   round's flush guarantees -- and the watermark makes duplicates
//!   harmless.
//!
//! Serialized operations (composites, non-universal methods, operations
//! on objects whose creation has not committed here yet) keep the paper's
//! total order untouched. The model checker's hybrid oracle checks the
//! split directly: serialized commits stay prefix-ordered across machines
//! ([`Machine::completed_serialized`]), and machines whose full committed
//! *sets* agree must agree on the committed digest.
//!
//! **Durability caveat** (documented in `docs/PROTOCOL.md`): an issuer's
//! async commits are locally durable only up to a restart. The fence
//! window survives [`Machine::reset_for_restart`] precisely so that a
//! restarted issuer can re-fence (and, via the master's join-time
//! watermarks, locally re-apply) async operations the master had not yet
//! observed; see [`Machine::restore_unseen_asyncs`].

use std::collections::BTreeMap;

use guesstimate_core::{CompletionFn, ExecError, MachineId, SharedOp};
use guesstimate_net::{Channel, Ctx, ReplayCause, SimTime, TraceEvent};

use crate::commute::universal_commuters;
#[cfg(test)]
use crate::exec::execute_wire;
use crate::exec::execute_wire_checked;
use crate::machine::Machine;
use crate::message::{Msg, WireEnvelope, WireOp};
use crate::roles::AsyncBatch;

/// Per-sender inbound async state: the next expected sequence number and
/// a reorder buffer for out-of-order (or held-back) arrivals.
///
/// Async operations from one sender apply here in that sender's issue
/// order — not because commutation requires it (it does not), but because
/// a dense per-sender sequence makes duplicate suppression and loss
/// repair a single integer comparison.
#[derive(Debug, Default)]
pub(crate) struct AsyncIn {
    /// The next `aseq` expected from this sender; everything below has
    /// been applied (or was folded into a join snapshot).
    pub(crate) next: u64,
    /// Arrived-but-not-yet-applied operations, keyed by `aseq`.
    pub(crate) buffer: BTreeMap<u64, WireEnvelope>,
}

impl Machine {
    /// Issues a shared operation through the hybrid commit path
    /// (`async_commit`): a *universal commuter* commits asynchronously —
    /// locally now, remotely on arrival — while anything else falls back
    /// to [`Machine::issue_at`] and the serialized round path.
    ///
    /// Returns `Ok(true)` if the operation succeeded on the guesstimated
    /// state (and, on the async path, committed), `Ok(false)` if it failed
    /// at issue and was dropped — exactly the rule-R2 contract of
    /// [`Machine::issue`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unknown objects or unregistered methods.
    pub fn issue_hybrid(
        &mut self,
        op: SharedOp,
        completion: Option<CompletionFn>,
        ctx: &mut Ctx<'_, Msg>,
    ) -> Result<bool, ExecError> {
        if self.async_eligible(&op) {
            self.commit_async_own(op, completion, ctx)
        } else {
            self.issue_inner(op, completion, Some(ctx.now()))
        }
    }

    /// Issue-time classification: may `op` take the async path?
    ///
    /// Requires, in order: the hybrid path enabled and this machine
    /// admitted; a *primitive* operation (composites always serialize —
    /// their branch structure is not covered by the per-method matrix
    /// rows); an object whose creation has **committed** here (an object
    /// still guess-only could reach receivers before its `Create`, and the
    /// issuer's own `Create` must keep its round-ordered slot); and a
    /// method in the type's universal-commuter set, which also implies a
    /// declared argument footprint.
    fn async_eligible(&mut self, op: &SharedOp) -> bool {
        if !self.cfg.async_commit || !self.membership.joined_system {
            return false;
        }
        let SharedOp::Primitive { object, method, .. } = op else {
            return false;
        };
        if !self.committed.contains(*object) {
            return false;
        }
        let Some(ty) = self.catalog.get(object).cloned() else {
            return false;
        };
        self.universal_set(&ty).contains(method.as_str())
    }

    /// The memoized universal-commuter set of one type (the matrix and
    /// registry are fixed for the machine's lifetime, so each type is
    /// classified once).
    fn universal_set(&mut self, ty: &str) -> &std::collections::BTreeSet<String> {
        if !self.universal_cache.contains_key(ty) {
            let set = universal_commuters(&self.registry, &self.cfg.commute_matrix, ty);
            self.universal_cache.insert(ty.to_owned(), set);
        }
        &self.universal_cache[ty]
    }

    /// The async fast path for an own operation: execute on `sg` (rule
    /// R2), commit to `sc`, complete, broadcast. Two executions total —
    /// the issue-time run and the commit-time run happen back to back —
    /// and an issue-to-commit latency of zero.
    fn commit_async_own(
        &mut self,
        op: SharedOp,
        completion: Option<CompletionFn>,
        ctx: &mut Ctx<'_, Msg>,
    ) -> Result<bool, ExecError> {
        let now = ctx.now();
        if !self.try_on_guess(&op, "async-issue")? {
            return Ok(false);
        }
        let op_id = self.next_op_id();
        let env = WireEnvelope {
            id: op_id,
            op: WireOp::Shared(op),
        };
        let result = self.commit_op(&env, "async-commit", false, true);
        self.stats.issued += 1;
        self.stats.record_exec_count(2);
        self.stats.committed_own += 1;
        self.stats.committed_async_own += 1;
        if !result {
            // Succeeded on sg an instant ago but failed on sc: a conflict,
            // same accounting as the round path (Figure 7). For a true
            // universal commuter results agree everywhere, so this only
            // fires for methods mis-declared in a hand-built matrix.
            self.stats.conflicts += 1;
        }
        self.telemetry.op_issued(op_id, Some(now));
        self.telemetry.op_committed_async(op_id, 2, now);
        if let Some(c) = completion {
            c(result);
            self.stats.completions_run += 1;
            self.telemetry.op_completed(op_id, now);
        }
        let aseq = self.aseq_next;
        self.aseq_next += 1;
        self.async_window.push((aseq, env.clone()));
        ctx.broadcast(Channel::Operations, Msg::AsyncOp { aseq, env });
        Ok(true)
    }

    /// Receives one [`Msg::AsyncOp`]: buffer by `(sender, aseq)`, then
    /// drain everything that became applicable.
    pub(crate) fn handle_async_op(
        &mut self,
        from: MachineId,
        aseq: u64,
        env: WireEnvelope,
        now: SimTime,
    ) {
        if !self.cfg.async_commit || !self.membership.joined_system || from == self.id {
            return;
        }
        let slot = self.async_in.entry(from).or_default();
        if aseq < slot.next {
            return; // duplicate: already applied or folded into a join snapshot
        }
        slot.buffer.insert(aseq, env);
        self.drain_async(now);
    }

    /// Applies a flush-piggybacked async window (the round-boundary
    /// fence). Runs *before* round gating, so the fence repairs lost
    /// `AsyncOp` broadcasts even when the carrying `Ops` message is
    /// buffered early, stale, or resent — the watermark absorbs every
    /// duplicate.
    pub(crate) fn apply_async_batch(&mut self, from: MachineId, asyncs: &AsyncBatch, now: SimTime) {
        if !self.cfg.async_commit
            || !self.membership.joined_system
            || from == self.id
            || asyncs.is_empty()
        {
            return;
        }
        for (aseq, env) in asyncs.iter() {
            let slot = self.async_in.entry(from).or_default();
            if *aseq < slot.next {
                continue;
            }
            slot.buffer.insert(*aseq, env.clone());
        }
        self.drain_async(now);
    }

    /// Drains every buffered async operation that is ready: in-sequence
    /// for its sender, and touching only objects whose creation has
    /// committed here. An operation racing ahead of its object's `Create`
    /// (which travels the serialized path) simply waits; the drain re-runs
    /// after every round apply and join initialization.
    pub(crate) fn drain_async(&mut self, now: SimTime) {
        let mut applied: u64 = 0;
        let senders: Vec<MachineId> = self.async_in.keys().copied().collect();
        for sender in senders {
            loop {
                let ready = {
                    let slot = self.async_in.get_mut(&sender).expect("sender listed");
                    match slot.buffer.get(&slot.next) {
                        Some(env) => {
                            let applicable = crate::commute::wire_objects(&env.op)
                                .iter()
                                .all(|o| self.committed.contains(*o));
                            if applicable {
                                let env = slot.buffer.remove(&slot.next).expect("just seen");
                                slot.next += 1;
                                Some(env)
                            } else {
                                None // hold: FIFO per sender, retry after the next commit
                            }
                        }
                        None => None,
                    }
                };
                match ready {
                    Some(env) => {
                        self.apply_async_foreign(env);
                        applied += 1;
                    }
                    None => break,
                }
            }
        }
        if applied > 0 {
            self.trace(
                now,
                TraceEvent::Reexecuted {
                    round: 0,
                    pending: applied,
                    cause: ReplayCause::AsyncPatch,
                },
            );
        }
    }

    /// Commits one foreign async operation: patch `sc`, patch `sg` (the
    /// operation commutes past the whole pending list, so `sg = [P](sc)`
    /// survives appending it to both sides), record it, fire remote-update
    /// hooks.
    fn apply_async_foreign(&mut self, env: WireEnvelope) {
        self.commit_op(&env, "async-apply", false, true);
        let _ = execute_wire_checked(
            &env.op,
            &mut self.guess,
            &self.registry,
            &self.cfg,
            self.id,
            "async-apply",
            &mut self.witness_log,
        )
        .expect("async apply: sg holds every object sc holds");
        self.stats.committed_foreign += 1;
        self.stats.committed_async_foreign += 1;
        if !self.remote_hooks.is_empty() {
            if let WireOp::Shared(op) = &env.op {
                for object in op.objects_touched() {
                    for hook in &mut self.remote_hooks {
                        hook(object);
                    }
                }
            }
        }
    }

    /// The not-yet-fenced async window, to piggyback on a flush: everything
    /// in the window except what the round still closing already carries
    /// under count protection ([`RoundState::fenced_asyncs`]) -- every
    /// machine that applies that round has those entries, and one that does
    /// not is restarted onto a snapshot of a machine that did. The window
    /// is *not* consumed -- see [`Machine::trim_async_window`] for when
    /// entries actually leave it.
    ///
    /// [`RoundState::fenced_asyncs`]: crate::roles::participant::RoundState
    pub(crate) fn take_async_window(&self) -> AsyncBatch {
        let closing = self.participant.closing.as_ref();
        let fenced = closing.and_then(|rs| rs.fenced_asyncs());
        let unfenced = |(aseq, _): &&(u64, WireEnvelope)| fenced.is_none_or(|f| *aseq > f);
        std::sync::Arc::new(self.async_window.iter().filter(unfenced).cloned().collect())
    }

    /// Trims the fence window once a round has completed everywhere:
    /// entries up to `through` rode that round's flush alongside a
    /// **non-empty** serialized batch, so they are delivered (the batch's
    /// `FlushDone` count makes the `Ops` message resend-protected) and need
    /// no further fencing. A zero-op flush carries the window best-effort
    /// only and fences nothing, so its entries stay and ride the next flush
    /// too -- unless it rode `BeginApply` (`RoundState::rides_begin_apply`).
    pub(crate) fn trim_async_window(&mut self, through: u64) {
        self.async_window.retain(|(aseq, _)| *aseq > through);
    }

    /// The master's per-sender async watermarks, shipped in `JoinInfo`:
    /// the joiner must not re-apply async operations whose effects are
    /// already folded into the shipped catalog. The master's own ops are
    /// covered by its `aseq_next` (they commit locally at issue).
    pub(crate) fn async_watermarks(&self) -> Vec<(MachineId, u64)> {
        let mut wm: Vec<(MachineId, u64)> = self
            .async_in
            .iter()
            .map(|(m, slot)| (*m, slot.next))
            .collect();
        wm.push((self.id, self.aseq_next));
        wm.sort_unstable();
        wm
    }

    /// Installs join-time watermarks: inbound async state restarts at the
    /// master's view (the catalog already reflects everything below it).
    /// The entry for this machine itself is not installed as receive
    /// state — a machine never receives its own broadcasts — but is
    /// returned so the caller can re-apply locally-unseen window entries.
    pub(crate) fn install_async_watermarks(&mut self, watermarks: Vec<(MachineId, u64)>) -> u64 {
        self.async_in.clear();
        let mut own = 0;
        for (m, next) in watermarks {
            if m == self.id {
                own = next;
                continue;
            }
            self.async_in.insert(
                m,
                AsyncIn {
                    next,
                    buffer: BTreeMap::new(),
                },
            );
        }
        own
    }

    /// Restores, after a restart + rejoin, own async commits the master
    /// never observed: their effects are absent from the join snapshot,
    /// but their envelopes survive in the fence window (which
    /// [`Machine::reset_for_restart`] deliberately keeps, along with the
    /// monotone `aseq_next`). Re-applying them here keeps the issuer
    /// consistent with receivers that *did* get the original broadcasts,
    /// and the still-windowed entries re-fence to everyone else. Only `sc`
    /// is patched: after a restart `sg` holds no objects to patch, and the
    /// join's whole-store copy that follows rebuilds it from `sc` anyway.
    ///
    /// Completion routines for these operations were already run in the
    /// previous incarnation and are not re-run.
    pub(crate) fn restore_unseen_asyncs(&mut self, master_watermark: u64, now: SimTime) {
        let mut restored: u64 = 0;
        let window = std::mem::take(&mut self.async_window);
        for (aseq, env) in &window {
            if *aseq < master_watermark {
                continue; // folded into the join snapshot we just installed
            }
            restored += 1;
            // No shard count and no telemetry here: the op's span was
            // already committed (and counted) in the previous incarnation,
            // and the shared handle kept it.
            self.commit_op(env, "async-restore", false, false);
            self.stats.record_exec_count(1);
            self.stats.committed_own += 1;
            self.stats.committed_async_own += 1;
        }
        self.async_window = window;
        if restored > 0 {
            self.trace(
                now,
                TraceEvent::Reexecuted {
                    round: 0,
                    pending: restored,
                    cause: ReplayCause::AsyncPatch,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::testutil::slots_registry;
    use guesstimate_core::{args, CommuteMatrix, MachineId, ObjectId, OpId};
    use std::sync::Arc;

    fn slots_matrix() -> CommuteMatrix {
        // `put` commutes with every Slots method (universal); `raw_put`
        // has no declared effect and so can never qualify.
        let mut m = CommuteMatrix::new();
        m.insert("Slots", "put", "put");
        m.insert("Slots", "put", "raw_put");
        m.insert("Slots", "raw_put", "raw_put");
        m
    }

    fn hybrid_machine(id: u32) -> Machine {
        let cfg = MachineConfig::default()
            .with_commute_matrix(slots_matrix())
            .with_async_commit(true);
        let mut m = Machine::new_master(MachineId::new(id), Arc::new(slots_registry()), cfg);
        m.membership.joined_system = true;
        m
    }

    fn put_env(machine: u32, seq: u64, object: ObjectId, k: &str) -> WireEnvelope {
        WireEnvelope {
            id: OpId::new(MachineId::new(machine), seq),
            op: WireOp::Shared(SharedOp::primitive(object, "put", args![k, 1])),
        }
    }

    #[test]
    fn eligibility_requires_committed_object_and_universal_method() {
        let mut m = hybrid_machine(0);
        let obj = ObjectId::new(m.id(), 0);
        let op = SharedOp::primitive(obj, "put", args!["a", 1]);
        // Object not committed yet (not even created): ineligible.
        assert!(!m.async_eligible(&op));
        // Commit the object directly into sc.
        let create = WireOp::Create {
            object: obj,
            type_name: "Slots".into(),
            init: guesstimate_core::Value::Map(Default::default()),
        };
        execute_wire(&create, &mut m.committed, &m.registry).unwrap();
        execute_wire(&create, &mut m.guess, &m.registry).unwrap();
        m.catalog.insert(obj, "Slots".into());
        assert!(m.async_eligible(&op));
        // Non-universal method (no declared effect): ineligible.
        assert!(!m.async_eligible(&SharedOp::primitive(obj, "raw_put", args!["a", 1])));
        // Composites always serialize.
        assert!(!m.async_eligible(&SharedOp::atomic(vec![op.clone()])));
        // Path disabled: ineligible.
        m.cfg.async_commit = false;
        assert!(!m.async_eligible(&op));
    }

    #[test]
    fn foreign_asyncs_apply_in_per_sender_fifo_order() {
        let mut m = hybrid_machine(0);
        let obj = ObjectId::new(MachineId::new(1), 0);
        let create = WireOp::Create {
            object: obj,
            type_name: "Slots".into(),
            init: guesstimate_core::Value::Map(Default::default()),
        };
        execute_wire(&create, &mut m.committed, &m.registry).unwrap();
        execute_wire(&create, &mut m.guess, &m.registry).unwrap();
        m.catalog.insert(obj, "Slots".into());
        let sender = MachineId::new(1);
        // aseq 1 arrives first: buffered, not applied.
        m.handle_async_op(sender, 1, put_env(1, 1, obj, "b"), SimTime::ZERO);
        assert_eq!(m.stats.committed_async_foreign, 0);
        // aseq 0 arrives: both drain, in order.
        m.handle_async_op(sender, 0, put_env(1, 0, obj, "a"), SimTime::ZERO);
        assert_eq!(m.stats.committed_async_foreign, 2);
        assert_eq!(m.completed_ops().len(), 2);
        assert!(m.completed_serialized().is_empty());
        // A duplicate is absorbed by the watermark.
        m.handle_async_op(sender, 0, put_env(1, 0, obj, "a"), SimTime::ZERO);
        assert_eq!(m.stats.committed_async_foreign, 2);
        assert!(m.check_guess_invariant());
    }

    #[test]
    fn async_gap_buffers_until_the_missing_aseq_arrives() {
        let mut m = hybrid_machine(0);
        let obj = ObjectId::new(MachineId::new(1), 0);
        let create = WireOp::Create {
            object: obj,
            type_name: "Slots".into(),
            init: guesstimate_core::Value::Map(Default::default()),
        };
        execute_wire(&create, &mut m.committed, &m.registry).unwrap();
        execute_wire(&create, &mut m.guess, &m.registry).unwrap();
        m.catalog.insert(obj, "Slots".into());
        let sender = MachineId::new(1);
        let put = |seq: u64, v: i64| WireEnvelope {
            id: OpId::new(sender, seq),
            op: WireOp::Shared(SharedOp::primitive(obj, "put", args!["x", v])),
        };
        // aseq 0 is in order: applies immediately.
        m.handle_async_op(sender, 0, put(0, 10), SimTime::ZERO);
        assert_eq!(m.stats.committed_async_foreign, 1);
        // aseq 2 arrives with aseq 1 still in flight: a gap, so it must
        // buffer — applying it now would reorder the sender's stream.
        m.handle_async_op(sender, 2, put(2, 30), SimTime::ZERO);
        assert_eq!(m.stats.committed_async_foreign, 1, "n+2 before n+1: held");
        // aseq 1 fills the gap: both drain, in sender FIFO order.
        m.handle_async_op(sender, 1, put(1, 20), SimTime::ZERO);
        assert_eq!(m.stats.committed_async_foreign, 3);
        assert_eq!(
            m.completed_ops(),
            &[
                OpId::new(sender, 0),
                OpId::new(sender, 1),
                OpId::new(sender, 2)
            ]
        );
        // All three wrote the same slot: FIFO means aseq 2's value lands
        // last (2-before-1 would have left 20).
        assert_eq!(
            m.read::<crate::testutil::Slots, _>(obj, |s| s.m["x"]),
            Some(30)
        );
        assert!(m.check_guess_invariant());
    }

    #[test]
    fn asyncs_hold_until_their_object_commits() {
        let mut m = hybrid_machine(0);
        let obj = ObjectId::new(MachineId::new(1), 0);
        let sender = MachineId::new(1);
        m.handle_async_op(sender, 0, put_env(1, 0, obj, "a"), SimTime::ZERO);
        assert_eq!(m.stats.committed_async_foreign, 0, "object unknown: held");
        // The object's Create commits (as it would in a round)...
        let create = WireOp::Create {
            object: obj,
            type_name: "Slots".into(),
            init: guesstimate_core::Value::Map(Default::default()),
        };
        execute_wire(&create, &mut m.committed, &m.registry).unwrap();
        execute_wire(&create, &mut m.guess, &m.registry).unwrap();
        m.catalog.insert(obj, "Slots".into());
        // ...and the post-apply drain releases the held op.
        m.drain_async(SimTime::ZERO);
        assert_eq!(m.stats.committed_async_foreign, 1);
    }

    #[test]
    fn watermarks_round_trip_through_join() {
        let mut master = hybrid_machine(0);
        let obj = ObjectId::new(MachineId::new(1), 0);
        let create = WireOp::Create {
            object: obj,
            type_name: "Slots".into(),
            init: guesstimate_core::Value::Map(Default::default()),
        };
        execute_wire(&create, &mut master.committed, &master.registry).unwrap();
        execute_wire(&create, &mut master.guess, &master.registry).unwrap();
        master.catalog.insert(obj, "Slots".into());
        master.handle_async_op(MachineId::new(1), 0, put_env(1, 0, obj, "a"), SimTime::ZERO);
        master.aseq_next = 5;
        let wm = master.async_watermarks();
        assert_eq!(wm, vec![(MachineId::new(0), 5), (MachineId::new(1), 1)]);

        let mut joiner = hybrid_machine(2);
        let own = joiner.install_async_watermarks(wm);
        assert_eq!(own, 0, "no entry for machine 2 in the master's map");
        // A replayed duplicate of sender 1's aseq 0 is now absorbed.
        joiner.handle_async_op(MachineId::new(1), 0, put_env(1, 0, obj, "a"), SimTime::ZERO);
        assert_eq!(joiner.stats.committed_async_foreign, 0);
    }

    /// A restarted issuer rejoins with an own async commit the master never
    /// saw still in its fence window. `sg` is empty at that point, so the
    /// restore must patch `sc` alone and leave `sg` to the join's copy.
    #[test]
    fn rejoin_after_restart_restores_unseen_own_asyncs() {
        let mut m = hybrid_machine(1);
        let obj = ObjectId::new(MachineId::new(0), 0);
        // aseq 0 reached the master before the restart, aseq 1 did not.
        m.async_window = vec![(0, put_env(1, 0, obj, "a")), (1, put_env(1, 1, obj, "b"))];
        m.aseq_next = 2;
        m.reset_for_restart();
        assert_eq!(m.async_window.len(), 2, "the fence window survives");
        let seen = crate::testutil::Slots {
            m: [("a".to_owned(), 1)].into(),
        };
        m.init_from_join_info(
            vec![crate::message::ObjectInit {
                id: obj,
                type_name: "Slots".into(),
                state: guesstimate_core::GState::snapshot(&seen),
            }],
            vec![OpId::new(m.id(), 0)],
            Vec::new(),
            vec![(MachineId::new(0), 0), (m.id(), 1)],
            SimTime::ZERO,
        );
        assert_eq!(
            m.completed_ops(),
            &[OpId::new(m.id(), 0), OpId::new(m.id(), 1)],
            "the unseen op is in C exactly once"
        );
        let slots = |s: &crate::testutil::Slots| s.m.keys().cloned().collect::<Vec<_>>();
        assert_eq!(
            m.read_committed(obj, slots),
            Some(vec!["a".into(), "b".into()])
        );
        assert_eq!(m.read(obj, slots), Some(vec!["a".into(), "b".into()]));
        assert!(m.check_guess_invariant());
    }

    #[test]
    fn window_trim_requires_a_resend_protected_flush() {
        let mut m = hybrid_machine(0);
        let obj = ObjectId::new(m.id(), 0);
        m.async_window = vec![(0, put_env(0, 0, obj, "a"))];
        // A flushed round whose serialized batch was empty: the piggyback
        // was best-effort, so it fences nothing and the window survives.
        m.participant.start_local_round(1, vec![m.id()]);
        let window = m.take_async_window();
        {
            let rs = m.participant.round.as_mut().unwrap();
            rs.flushed = true;
            rs.my_asyncs = window;
            assert_eq!(rs.fenced_asyncs(), None, "zero-op flush");
            // A flush that carried real ops is resend-protected.
            rs.my_flush = Arc::new(vec![put_env(0, 9, obj, "z")]);
            assert_eq!(rs.fenced_asyncs(), Some(0));
        }
        // Applied and closing, the round's flush still vouches for the
        // entry: the next round's flush does not repeat it, and carries
        // only what was committed since.
        let rs = m.participant.round.take().unwrap();
        m.participant.applied(rs);
        m.async_window.push((1, put_env(0, 1, obj, "b")));
        let next = m.take_async_window();
        assert_eq!(next.iter().map(|(a, _)| *a).collect::<Vec<_>>(), vec![1]);
        assert_eq!(m.async_window.len(), 2, "nothing leaves before completion");
        // The round completes everywhere: its entries leave the window.
        m.trim_async_window(0);
        assert_eq!(m.async_window.len(), 1);
    }

    #[test]
    fn the_masters_window_is_protected_by_begin_apply_whatever_its_batch_holds() {
        use guesstimate_net::Action;
        // A master alone, under the parallel flush, with one async commit in
        // its window and nothing to serialize: the tick begins a round, the
        // round cuts at once, and the window rides the `BeginApply`.
        let mut m = hybrid_machine(0);
        let obj = ObjectId::new(m.id(), 0);
        m.async_window = vec![(0, put_env(0, 0, obj, "a"))];
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(SimTime::ZERO, m.id(), &mut actions);
        let tick = crate::roles::tag::encode(crate::roles::tag::MASTER_TICK, 0);
        guesstimate_net::Actor::on_timer(&mut m, tick, &mut ctx);
        let begin_apply = actions.iter().find_map(|a| match a {
            Action::Broadcast(_, Msg::BeginApply { ops, asyncs, .. }) => Some((ops, asyncs)),
            _ => None,
        });
        let (ops, asyncs) = begin_apply.expect("the round cut and entered stage 2");
        assert!(ops.is_empty());
        assert_eq!(asyncs.iter().map(|(a, _)| *a).collect::<Vec<_>>(), vec![0]);
        let sent_ops = |a: &Action<Msg>| matches!(a, Action::Broadcast(_, Msg::Ops { .. }));
        assert!(!actions.iter().any(sent_ops), "no `Ops` of its own");
        // No machine applies the round without that `BeginApply`, so the
        // zero-op flush fenced the entry all the same: alone, the master
        // completed the round in the same step, and the window is trimmed.
        assert!(m.async_window.is_empty());
        assert!(m.check_guess_invariant());
    }
}

//! Unit tests for the local [`Machine`] API and the commit-side machinery
//! in [`crate::exec`] (applied rounds, the `sg` rebuild, join info,
//! restarts). Declared by `machine.rs` via `#[path]` so `super::*` still
//! refers to that module.

use super::*;
use crate::testutil::{counter_registry, slots_registry, Counter, Slots};
use crate::Checks;
use guesstimate_core::args;

/// The still-pending envelopes, in issue order (what a flush would ship).
fn pending_envs(m: &Machine) -> Vec<WireEnvelope> {
    m.pending.envs().cloned().collect()
}

/// Applies `ops` as a one-run round at time zero, and ends the step: the
/// recorded completions and hooks run.
fn apply(m: &mut Machine, ops: Vec<WireEnvelope>, round: u64) -> u64 {
    let n = m.apply_committed_round(&[Arc::new(ops)], round, SimTime::ZERO);
    m.run_callbacks(SimTime::ZERO);
    n
}

fn machine() -> Machine {
    Machine::new_master(
        MachineId::new(0),
        Arc::new(counter_registry()),
        MachineConfig::default(),
    )
}

#[test]
fn create_instance_is_visible_in_guess_not_committed() {
    let mut m = machine();
    let id = m.create_instance(Counter { n: 5 });
    assert_eq!(m.read::<Counter, _>(id, |c| c.n), Some(5));
    assert_eq!(m.read_committed::<Counter, _>(id, |c| c.n), None);
    assert_eq!(m.pending_len(), 1);
    assert_eq!(m.object_type(id), Some("Counter"));
    assert_eq!(m.join_instance(id), Some("Counter"));
    assert_eq!(m.available_objects().len(), 1);
}

#[test]
#[should_panic(expected = "not registered")]
fn create_instance_of_unregistered_type_panics() {
    #[derive(Clone, Default)]
    struct Ghost;
    impl GState for Ghost {
        const TYPE_NAME: &'static str = "Ghost";
        fn snapshot(&self) -> guesstimate_core::Value {
            guesstimate_core::Value::Unit
        }
        fn restore(
            &mut self,
            _: &guesstimate_core::Value,
        ) -> Result<(), guesstimate_core::RestoreError> {
            Ok(())
        }
    }
    machine().create_instance(Ghost);
}

#[test]
fn issue_succeeds_on_guess_and_queues() {
    let mut m = machine();
    let id = m.create_instance(Counter { n: 0 });
    let ok = m.issue(SharedOp::primitive(id, "add", args![3])).unwrap();
    assert!(ok);
    assert_eq!(m.read::<Counter, _>(id, |c| c.n), Some(3));
    assert_eq!(m.pending_len(), 2);
    assert_eq!(m.stats().issued, 2);
}

#[test]
fn issue_failure_drops_op_and_counts() {
    let mut m = machine();
    let id = m.create_instance(Counter { n: 0 });
    // Precondition: counter never negative.
    let ok = m.issue(SharedOp::primitive(id, "add", args![-5])).unwrap();
    assert!(!ok);
    assert_eq!(m.pending_len(), 1, "failed op not enqueued");
    assert_eq!(m.stats().issue_failures, 1);
    assert_eq!(m.read::<Counter, _>(id, |c| c.n), Some(0));
}

#[test]
fn issue_on_unknown_object_is_error() {
    let mut m = machine();
    let bogus = ObjectId::new(MachineId::new(9), 9);
    assert!(m
        .issue(SharedOp::primitive(bogus, "add", args![1]))
        .is_err());
}

#[test]
fn apply_committed_round_commits_own_ops_and_pops_pending() {
    let mut m = machine();
    let id = m.create_instance(Counter { n: 0 });
    m.issue(SharedOp::primitive(id, "add", args![3])).unwrap();
    let batch = pending_envs(&m);
    let n = apply(&mut m, batch, 0);
    assert_eq!(n, 2);
    assert_eq!(m.pending_len(), 0);
    assert_eq!(m.completed_len(), 2);
    assert_eq!(m.read_committed::<Counter, _>(id, |c| c.n), Some(3));
    assert_eq!(m.guess_digest(), m.committed_digest());
    assert_eq!(m.stats().committed_own, 2);
    assert_eq!(m.stats().conflicts, 0);
    // Each op executed twice: issue + commit.
    assert_eq!(m.stats().exec_histogram[2], 2);
    assert_eq!(m.stats().max_exec_count, 2);
}

#[test]
fn completion_runs_with_commit_result() {
    use std::sync::atomic::{AtomicI32, Ordering};
    let seen = Arc::new(AtomicI32::new(-1));
    let mut m = machine();
    let id = m.create_instance(Counter { n: 0 });
    let s = seen.clone();
    m.issue_with_completion(
        SharedOp::primitive(id, "add", args![1]),
        Box::new(move |b| s.store(b as i32, Ordering::SeqCst)),
    )
    .unwrap();
    let batch = pending_envs(&m);
    apply(&mut m, batch, 0);
    assert_eq!(seen.load(Ordering::SeqCst), 1);
    assert_eq!(m.stats().completions_run, 1);
}

#[test]
fn conflict_detected_when_foreign_op_invalidates_own() {
    // Machine 0 issues add(5) with precondition n+delta <= 10; a foreign
    // op that commits first pushes n to 8, so the own op fails at commit.
    let mut m = machine();
    let id = m.create_instance(Counter { n: 0 });
    // Commit creation first so the foreign op can execute.
    let create = pending_envs(&m);
    apply(&mut m, create, 0);

    m.issue(SharedOp::primitive(id, "add_capped", args![5, 10]))
        .unwrap();
    assert_eq!(m.read::<Counter, _>(id, |c| c.n), Some(5));

    let foreign = WireEnvelope {
        id: OpId::new(MachineId::new(1), 0),
        op: WireOp::Shared(SharedOp::primitive(id, "add", args![8])),
    };
    let own = m.pending.envs().next().unwrap().clone();
    // Foreign machine id 1 > 0? No: lexicographic order puts m0's op
    // first... we want the foreign op to commit BEFORE ours, so give it
    // machine id... m0 < m1, so our op sorts first and would succeed.
    // Apply in explicit order instead: the protocol sorts; here we hand
    // an already-ordered list with the foreign op first, modelling a
    // foreign machine with a smaller id.
    let n = apply(&mut m, vec![foreign, own], 0);
    assert_eq!(n, 2);
    assert_eq!(m.stats().conflicts, 1);
    // Committed state has only the foreign add.
    assert_eq!(m.read_committed::<Counter, _>(id, |c| c.n), Some(8));
    assert_eq!(m.read::<Counter, _>(id, |c| c.n), Some(8));
}

#[test]
fn replay_of_still_pending_ops_rebuilds_guess() {
    let tracer = Arc::new(guesstimate_net::RecordingTracer::new());
    let mut m = machine();
    m.set_tracer(tracer.clone());
    let id = m.create_instance(Counter { n: 0 });
    m.issue(SharedOp::primitive(id, "add", args![1])).unwrap();
    // Simulate a round that commits only the creation (as if add was
    // issued after our flush): commit the first pending op only.
    let create = vec![m.pending.envs().next().unwrap().clone()];
    apply(&mut m, create, 7);
    // A round of only this machine's own ops still rebuilds `sg`: add(1)
    // is still pending and was replayed onto the fresh guess.
    assert_eq!(m.pending_len(), 1);
    assert_eq!(m.read::<Counter, _>(id, |c| c.n), Some(1));
    assert_eq!(m.read_committed::<Counter, _>(id, |c| c.n), Some(0));
    assert_eq!(m.stats().replays, 1);
    let replays: Vec<_> = tracer
        .snapshot()
        .into_iter()
        .map(|r| r.event)
        .filter(|e| matches!(e, TraceEvent::Reexecuted { .. }))
        .collect();
    assert_eq!(
        replays,
        [TraceEvent::Reexecuted {
            round: 7,
            pending: 1,
            cause: guesstimate_net::ReplayCause::RoundReplay,
        }]
    );
    // Now commit it: 3 executions total (issue, replay, commit).
    let rest = pending_envs(&m);
    apply(&mut m, rest, 0);
    assert_eq!(m.stats().exec_histogram[3], 1);
    assert!(m.stats().max_exec_count <= 3);
}

#[test]
fn join_info_roundtrip_replicates_state() {
    let mut master = machine();
    let id = master.create_instance(Counter { n: 7 });
    let batch = pending_envs(&master);
    apply(&mut master, batch, 0);

    let (catalog, completed, completed_serialized, watermarks) = master.build_join_info();
    let mut member = Machine::new_member(
        MachineId::new(1),
        Arc::new(counter_registry()),
        MachineConfig::default(),
    );
    member.init_from_join_info(
        catalog,
        completed,
        completed_serialized,
        watermarks,
        SimTime::ZERO,
    );
    assert!(member.is_joined());
    assert_eq!(member.committed_digest(), master.committed_digest());
    assert_eq!(member.read::<Counter, _>(id, |c| c.n), Some(7));
    assert_eq!(member.completed_len(), 1);
}

/// A `JoinInfo` whose catalog names an unregistered type, or holds a
/// snapshot its type does not restore, is refused without a panic: the
/// member stays unjoined with `P` and its stores as they were, answers
/// nothing, counts and traces the refusal once, and its join retry asks
/// again. A valid `JoinInfo` delivered afterwards admits it.
#[test]
fn a_malformed_join_info_is_refused_and_the_retry_gets_in() {
    use crate::message::{Msg, ObjectInit};
    use guesstimate_net::{Action, Actor, Channel, Ctx};
    let mut master = machine();
    master.create_instance(Counter { n: 7 });
    let batch = pending_envs(&master);
    apply(&mut master, batch, 0);
    let (catalog, completed, completed_serialized, async_watermarks) = master.build_join_info();
    let info = |catalog: Vec<ObjectInit>| Msg::JoinInfo {
        catalog,
        completed: completed.clone(),
        completed_serialized: completed_serialized.clone(),
        async_watermarks: async_watermarks.clone(),
    };
    let extra = |type_name: &str, state: Value| ObjectInit {
        id: ObjectId::new(MachineId::new(0), 9),
        type_name: type_name.into(),
        state,
    };
    let unknown_type = [catalog.clone(), vec![extra("Nope", Value::from(1))]].concat();
    let bad_snapshot = [catalog.clone(), vec![extra("Counter", Value::from("x"))]].concat();

    let tracer = Arc::new(guesstimate_net::RecordingTracer::new());
    let reg = Arc::new(counter_registry());
    let mut m = Machine::new_member(MachineId::new(1), reg, MachineConfig::default());
    m.set_tracer(tracer.clone());
    let own = m.create_instance(Counter { n: 1 });
    let (sc, sg) = (m.committed_digest(), m.guess_digest());
    for (refused, catalog) in [unknown_type, bad_snapshot].into_iter().enumerate() {
        let sent = deliver(&mut m, info(catalog));
        assert!(sent.is_empty(), "a refusal sends no JoinReady: {sent:?}");
        assert!(!m.is_joined());
        assert_eq!(m.stats().join_infos_refused, refused as u64 + 1);
        assert_eq!((m.committed_digest(), m.guess_digest()), (sc, sg));
        assert!(m.available_objects().iter().all(|(id, _)| *id == own));
        assert_eq!(m.pending_len(), 1, "P is kept");
    }
    let refusals = tracer.snapshot();
    let refusals = refusals
        .iter()
        .filter(|r| r.event == TraceEvent::JoinRefused);
    assert_eq!(refusals.count(), 2);

    let mut retry = Vec::new();
    let mut ctx = Ctx::new(SimTime::ZERO, m.id(), &mut retry);
    let tag = crate::roles::tag::encode(crate::roles::tag::MEMBERSHIP_JOIN_RETRY, 0);
    m.on_timer(tag, &mut ctx);
    assert!(matches!(
        retry[0],
        Action::Broadcast(Channel::Signals, Msg::JoinRequest { .. })
    ));

    let sent = deliver(&mut m, info(catalog));
    assert!(matches!(
        sent[..],
        [Action::Send(_, Channel::Signals, Msg::JoinReady { .. })]
    ));
    assert!(m.is_joined());
    assert_eq!(m.committed_digest(), master.committed_digest());
    assert_eq!(m.pending_len(), 1);
    assert!(m.check_guess_invariant());
}

/// Straight after a join the guesstimated store shares every object of
/// the committed one; an issue copies what it writes into `sg` alone.
#[test]
fn a_joiner_whose_guess_shares_its_committed_store_issues_on_its_own_copy() {
    let mut master = machine();
    let id = master.create_instance(Counter { n: 7 });
    let batch = pending_envs(&master);
    apply(&mut master, batch, 0);
    let (catalog, completed, serialized, watermarks) = master.build_join_info();
    let reg = Arc::new(counter_registry());
    let mut m = Machine::new_member(MachineId::new(1), reg, MachineConfig::default());
    assert!(m.init_from_join_info(catalog, completed, serialized, watermarks, SimTime::ZERO));
    assert!(m.guess.shares_with(&m.committed, id));
    let committed = m.committed_digest();
    assert!(m.issue(SharedOp::primitive(id, "add", args![1])).unwrap());
    assert!(!m.guess.shares_with(&m.committed, id));
    assert_eq!(m.committed_digest(), committed);
    assert_eq!(m.read_committed::<Counter, _>(id, |c| c.n), Some(7));
    assert_eq!(m.read::<Counter, _>(id, |c| c.n), Some(8));
    assert!(m.check_guess_invariant());
}

/// A clone (the model checker's fork) shares every object with its
/// original; issuing and committing a round on the clone leaves the
/// original's stores as they were.
#[test]
fn a_fork_that_issues_and_commits_leaves_the_original_alone() {
    let mut m = machine();
    let id = m.create_instance(Counter { n: 0 });
    let batch = pending_envs(&m);
    apply(&mut m, batch, 0);
    m.issue(SharedOp::primitive(id, "add", args![2])).unwrap();
    let (sc, sg) = (m.committed_digest(), m.guess_digest());
    let mut fork = m.clone();
    assert!(fork.committed.shares_with(&m.committed, id));
    fork.issue(SharedOp::primitive(id, "add", args![3]))
        .unwrap();
    let round = pending_envs(&fork);
    apply(&mut fork, round, 1);
    assert_eq!(fork.read_committed::<Counter, _>(id, |c| c.n), Some(5));
    assert_eq!((m.committed_digest(), m.guess_digest()), (sc, sg));
    assert_eq!(m.read::<Counter, _>(id, |c| c.n), Some(2));
    assert!(m.check_guess_invariant() && fork.check_guess_invariant());
}

/// Once a commit has written an object, each store holds its own copy and
/// a resync copies into `sg`'s in place: round after round of issues on
/// every machine leaves no machine's `sc` and `sg` sharing it.
#[test]
fn an_object_every_round_writes_stays_owned_by_both_stores() {
    use crate::cluster::{run_until_cohort, sim_cluster};
    use guesstimate_net::NetConfig;
    let mut net = sim_cluster(
        3,
        counter_registry(),
        MachineConfig::default(),
        NetConfig::lan(1),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(5)));
    let id = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(Counter { n: 0 });
    let created = net.now() + SimTime::from_secs(1);
    net.run_until(created);
    for _ in 0..6 {
        for i in 0..3 {
            let m = net.actor_mut(MachineId::new(i)).unwrap();
            for _ in 0..4 {
                assert!(m.issue(SharedOp::primitive(id, "add", args![1])).unwrap());
            }
        }
        let t = net.now() + SimTime::from_secs(2);
        net.run_until(t);
    }
    for i in 0..3 {
        let m = net.actor(MachineId::new(i)).unwrap();
        assert_eq!(m.pending_len(), 0);
        assert_eq!(m.read_committed::<Counter, _>(id, |c| c.n), Some(72));
        assert!(!m.guess.shares_with(&m.committed, id), "machine {i}");
    }
}

#[test]
fn join_preserves_pre_join_pending_ops() {
    let mut member = Machine::new_member(
        MachineId::new(1),
        Arc::new(counter_registry()),
        MachineConfig::default(),
    );
    let own = member.create_instance(Counter { n: 1 });
    member.init_from_join_info(vec![], vec![], vec![], vec![], SimTime::ZERO);
    assert_eq!(member.pending_len(), 1, "pre-join create still pending");
    // The object survives on the guesstimated state via replay.
    assert_eq!(member.read::<Counter, _>(own, |c| c.n), Some(1));
    assert_eq!(member.read_committed::<Counter, _>(own, |c| c.n), None);
}

#[test]
fn restart_drops_pending_and_counts() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let ran = Arc::new(AtomicU32::new(0));
    let mut m = machine();
    let id = m.create_instance(Counter { n: 0 });
    for _ in 0..2 {
        let ran = ran.clone();
        m.issue_with_completion(
            SharedOp::primitive(id, "add", args![1]),
            Box::new(move |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
    }
    m.reset_for_restart();
    m.run_callbacks(SimTime::ZERO);
    assert_eq!(m.pending_len(), 0);
    assert_eq!(m.completed_len(), 0);
    assert_eq!(m.stats().restarts, 1);
    assert_eq!(m.stats().ops_lost_to_restart, 3);
    assert_eq!(m.stats().completions_dropped, 2, "records holding one");
    assert!(!m.is_joined());
    assert!(m.available_objects().is_empty());
    // The dropped routines are gone for good: a rejoin and a later round
    // find nothing of the lost ops to complete.
    m.init_from_join_info(vec![], vec![], vec![], vec![], SimTime::ZERO);
    apply(&mut m, vec![], 1);
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    assert_eq!(m.stats().completions_run, 0);
}

/// A clone is the protocol state without the closures: committing the
/// same round on the original and on a clone taken after an
/// `issue_with_completion` and an `on_remote_update` reaches equal stores,
/// while the completion and the hook run once, on the original, which alone
/// counts the completion run. A restart of the clone drops nothing it holds.
#[test]
fn a_clone_commits_like_the_original_and_runs_no_closure() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let completions = Arc::new(AtomicU32::new(0));
    let hooks = Arc::new(AtomicU32::new(0));
    let mut m = machine();
    let id = m.create_instance(Counter { n: 0 });
    let create = pending_envs(&m);
    apply(&mut m, create, 0);
    let c = completions.clone();
    m.issue_with_completion(
        SharedOp::primitive(id, "add", args![1]),
        Box::new(move |ok| {
            assert!(ok);
            c.fetch_add(1, Ordering::SeqCst);
        }),
    )
    .unwrap();
    let h = hooks.clone();
    m.on_remote_update(Box::new(move |_| {
        h.fetch_add(1, Ordering::SeqCst);
    }));
    let mut copy = m.clone();
    let foreign = WireEnvelope {
        id: OpId::new(MachineId::new(1), 0),
        op: WireOp::Shared(SharedOp::primitive(id, "add", args![2])),
    };
    let mut round = pending_envs(&m);
    round.push(foreign);
    apply(&mut m, round.clone(), 1);
    apply(&mut copy, round, 1);
    assert_eq!(m.committed_digest(), copy.committed_digest());
    assert_eq!(m.guess_digest(), copy.guess_digest());
    assert_eq!(copy.read_committed::<Counter, _>(id, |c| c.n), Some(3));
    assert_eq!(
        completions.load(Ordering::SeqCst),
        1,
        "once, on the original"
    );
    assert_eq!(hooks.load(Ordering::SeqCst), 1, "once, on the original");
    assert_eq!(m.stats().completions_run, 1);
    assert_eq!(copy.stats().completions_run, 0, "the clone ran none");
    // A pending op with a completion on both, then a restart of each: only
    // the original had a routine to drop.
    let c = completions.clone();
    m.issue_with_completion(
        SharedOp::primitive(id, "add", args![1]),
        Box::new(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        }),
    )
    .unwrap();
    let mut copy = m.clone();
    for machine in [&mut m, &mut copy] {
        machine.reset_for_restart();
        machine.run_callbacks(SimTime::ZERO);
    }
    assert_eq!(m.stats().completions_dropped, 1);
    assert_eq!(copy.stats().completions_dropped, 0);
    assert_eq!(
        m.stats().ops_lost_to_restart,
        copy.stats().ops_lost_to_restart
    );
    assert_eq!(
        completions.load(Ordering::SeqCst),
        1,
        "a dropped routine never runs"
    );
}

/// Every way into `P` goes through `Machine::enqueue`, so all four callers
/// must leave the same bookkeeping behind: one more issued op, the depth
/// high-water mark at the new length, an `op_issued` span carrying the
/// caller's timestamp, and a record that starts at one execution.
#[test]
fn every_enqueue_caller_keeps_the_same_books() {
    const AT: SimTime = SimTime::from_millis(7);
    type Enqueue = fn(&mut Machine, ObjectId);
    let callers: [(&str, Option<SimTime>, Enqueue); 4] = [
        ("create_instance", None, |m, _| {
            m.create_instance(Counter { n: 1 });
        }),
        ("create_instance_as", None, |m, _| {
            m.create_instance_as(ObjectId::new(MachineId::new(9), 0), Counter { n: 1 });
        }),
        ("issue_cross_marker", None, |m, obj| {
            let payload = SharedOp::primitive(obj, "add", args![1]);
            m.issue_cross_marker(0, MachineId::new(0), 0, vec![0], payload);
        }),
        ("issue_inner", Some(AT), |m, obj| {
            let op = SharedOp::primitive(obj, "add", args![1]);
            assert!(m.issue_inner(op, None, Some(AT)).unwrap());
        }),
    ];
    for (name, issued_at, enqueue) in callers {
        let mut m = machine();
        m.set_telemetry(Telemetry::new());
        let obj = m.create_instance(Counter { n: 0 });
        enqueue(&mut m, obj);
        let (env, p) = m.pending.get(1).unwrap();
        assert_eq!(env.id, OpId::new(m.id(), 1), "{name}: next op number");
        assert_eq!(p.execs, 1, "{name}");
        assert_eq!(p.issued_at, issued_at, "{name}");
        assert_eq!(m.stats().issued, 2, "{name}");
        assert_eq!(m.stats().max_pending_depth, 2, "{name}");
        let spans = m.telemetry().spans();
        let span = spans.iter().find(|s| s.op == env.id);
        assert_eq!(
            span.map(|s| s.issued_at),
            Some(issued_at),
            "{name}: span opened with the record's issue time"
        );
    }
}

/// A member (m1, one creation pending) and the `BeginApply{1}` its master
/// (m0) sends it under the parallel flush: a creation of the master's own
/// riding it, both machines counted for one operation.
fn member_and_its_begin_apply() -> (Machine, crate::message::Msg) {
    let (master, me) = (MachineId::new(0), MachineId::new(1));
    let mut m = Machine::new_member(me, Arc::new(counter_registry()), MachineConfig::default());
    m.membership.joined_system = true;
    m.membership.in_cohort = true;
    m.create_instance(Counter { n: 0 });
    let (_, type_name, init) = m
        .pending
        .envs()
        .next()
        .unwrap()
        .op
        .as_create()
        .expect("a creation");
    let ops = Arc::new(vec![WireEnvelope {
        id: OpId::new(master, 0),
        op: WireOp::Create {
            object: ObjectId::new(master, 0),
            type_name: type_name.to_owned(),
            init: init.clone(),
        },
    }]);
    let begin_apply = crate::message::Msg::BeginApply {
        round: 1,
        counts: vec![(master, 1), (me, 1)],
        ops,
        asyncs: Default::default(),
    };
    (m, begin_apply)
}

/// Delivers `msg` from m0 on the Signals channel; what the machine sent,
/// with what the callback deferred still in it: the window between a
/// member's `Ack` and its apply, which no driver shows.
fn deliver_raw(
    m: &mut Machine,
    msg: crate::message::Msg,
) -> Vec<guesstimate_net::Action<crate::message::Msg>> {
    use guesstimate_net::{Actor, Channel, Ctx};
    let mut actions = Vec::new();
    let mut ctx = Ctx::new(SimTime::ZERO, m.id(), &mut actions);
    m.on_message(MachineId::new(0), Channel::Signals, msg, &mut ctx);
    actions
}

/// [`deliver_raw`], then what the callback deferred, run as a virtual-time
/// driver runs it: in the same step (`net::run_deferred`).
fn deliver(
    m: &mut Machine,
    msg: crate::message::Msg,
) -> Vec<guesstimate_net::Action<crate::message::Msg>> {
    let mut actions = deliver_raw(m, msg);
    let id = m.id();
    guesstimate_net::run_deferred(m, SimTime::ZERO, id, &mut actions);
    actions
}

/// On the wall-clock mesh a send leaves at its call (`net::Outbox`), so
/// where a participant's replies sit in their callbacks is load-bearing.
/// `FlushDone` tells the master this machine's batch is on the wire, so it
/// follows the batch: the last action of the flush. `Ack` tells it the
/// round is all here and will be applied before anything else, so it
/// leaves first, and the apply -- with whatever the apply sends, here the
/// flush of a next round that overtook it -- follows as the deferred half.
#[test]
fn a_participants_flush_done_is_the_last_action_of_its_flush_and_its_ack_the_first_of_its_apply() {
    use crate::message::Msg;
    use guesstimate_net::{Action, Channel};
    let (mut m, begin_apply) = member_and_its_begin_apply();
    let (master, me) = (MachineId::new(0), m.id());
    let order = vec![master, me];
    let flush = deliver(
        &mut m,
        Msg::BeginSync {
            round: 1,
            order: order.clone(),
        },
    );
    assert!(matches!(
        flush[..],
        [
            Action::Broadcast(Channel::Operations, Msg::Ops { round: 1, .. }),
            Action::Send(to, Channel::Signals, Msg::FlushDone { round: 1, count: 1, .. }),
        ] if to == master
    ));
    // Issued since, and flushed in the next round, whose `BeginSync` waits
    // for the apply.
    let own = ObjectId::new(me, 0);
    assert!(m.issue(SharedOp::primitive(own, "add", args![1])).unwrap());
    assert!(deliver(&mut m, Msg::BeginSync { round: 2, order }).is_empty());

    // The master's batch comes with the counts: nothing is asked of anyone.
    let apply = deliver(&mut m, begin_apply.clone());
    assert!(matches!(
        apply[..],
        [
            Action::Send(to, Channel::Signals, Msg::Ack { round: 1, .. }),
            Action::Broadcast(Channel::Operations, Msg::Ops { round: 2, .. }),
            Action::Send(_, Channel::Signals, Msg::FlushDone { round: 2, count: 1, .. }),
        ] if to == master
    ));
    assert_eq!(m.completed_len(), 2, "the deferred half applied the round");
    assert!(m.check_guess_invariant());
    // A resend finds the round closing: acknowledged again, applied once.
    assert!(matches!(
        deliver(&mut m, begin_apply)[..],
        [Action::Send(to, Channel::Signals, Msg::Ack { round: 1, .. })] if to == master
    ));
    assert_eq!(m.completed_len(), 2);
}

/// The window a wall-clock driver may open between a member's `Ack` and
/// its apply, driven by hand: the `BeginApply` yields the `Ack` and the
/// deferral, and nothing is applied yet.
fn member_owing_round_1() -> (Machine, crate::message::Msg, u64) {
    use crate::message::Msg;
    use guesstimate_net::{Action, Channel};
    let (mut m, begin_apply) = member_and_its_begin_apply();
    let (master, me) = (MachineId::new(0), m.id());
    deliver(
        &mut m,
        Msg::BeginSync {
            round: 1,
            order: vec![master, me],
        },
    );
    let sent = deliver_raw(&mut m, begin_apply.clone());
    let [Action::Send(to, Channel::Signals, Msg::Ack { round: 1, .. }), Action::Defer { tag }] =
        sent[..]
    else {
        panic!("the Ack, then the deferred apply, got {sent:?}");
    };
    assert_eq!(to, master);
    assert_eq!(m.completed_len(), 0, "acknowledged, not applied");
    assert!(m.check_guess_invariant());
    (m, begin_apply, tag)
}

/// Runs the deferred half `tag`; what it sent.
fn run_half(m: &mut Machine, tag: u64) -> Vec<guesstimate_net::Action<crate::message::Msg>> {
    use guesstimate_net::{Actor, Ctx};
    let mut actions = Vec::new();
    m.on_timer(tag, &mut Ctx::new(SimTime::ZERO, m.id(), &mut actions));
    actions
}

/// An application thread may issue between the `Ack` and the apply (a
/// `ThreadedHandle::with` needs no context). The operation runs on the
/// guess of before the round -- as one issued just before the `BeginApply`
/// arrived would -- is replayed by the apply and commits in the next round,
/// within the three executions.
#[test]
fn an_issue_between_a_members_ack_and_its_apply_commits_within_three_executions() {
    use crate::message::Msg;
    let (mut m, _, tag) = member_owing_round_1();
    let (master, me) = (MachineId::new(0), m.id());
    let own = ObjectId::new(me, 0);
    assert!(m.issue(SharedOp::primitive(own, "add", args![2])).unwrap());
    assert!(m.check_guess_invariant());
    assert!(run_half(&mut m, tag).is_empty());
    assert_eq!((m.completed_len(), m.pending_len()), (2, 1));
    assert!(m.check_guess_invariant());
    // Round 2 commits it.
    deliver(
        &mut m,
        Msg::BeginSync {
            round: 2,
            order: vec![master, me],
        },
    );
    let begin_apply = Msg::BeginApply {
        round: 2,
        counts: vec![(master, 0), (me, 1)],
        ops: Default::default(),
        asyncs: Default::default(),
    };
    deliver(&mut m, begin_apply);
    assert_eq!((m.completed_len(), m.pending_len()), (3, 0));
    assert_eq!(m.read_committed::<Counter, _>(own, |c| c.n), Some(2));
    assert_eq!(m.stats().max_exec_count, 3);
    assert!(m.check_guess_invariant());
}

/// Whatever reaches a member next -- the master resending `BeginApply`, its
/// `SyncComplete`, the next round's `BeginSync` -- finds the round it
/// acknowledged applied: the machine pays the apply first. The deferred
/// half then finds nothing left to do.
#[test]
fn an_event_after_a_members_ack_finds_its_round_applied() {
    use crate::message::Msg;
    use guesstimate_net::{Action, Channel};
    let (master, me) = (MachineId::new(0), MachineId::new(1));
    let complete = Msg::SyncComplete { round: 1 };
    let next = Msg::BeginSync {
        round: 2,
        order: vec![master, me],
    };
    for case in 0..3 {
        let (mut m, begin_apply, tag) = member_owing_round_1();
        let msg = [begin_apply, complete.clone(), next.clone()][case].clone();
        let sent = deliver_raw(&mut m, msg);
        assert_eq!(m.completed_len(), 2, "case {case}: applied first");
        match case {
            0 => assert!(matches!(
                sent[..],
                [Action::Send(to, Channel::Signals, Msg::Ack { round: 1, .. })] if to == master
            )),
            1 => {
                assert!(sent.is_empty());
                assert_eq!((m.active_round(), m.stats().syncs_seen), (None, 1));
            }
            _ => {
                assert!(matches!(
                    sent[..],
                    [Action::Send(
                        _,
                        Channel::Signals,
                        Msg::FlushDone {
                            round: 2,
                            count: 0,
                            ..
                        }
                    )]
                ));
                assert_eq!(m.active_round(), Some(2));
            }
        }
        assert!(run_half(&mut m, tag).is_empty());
        assert_eq!(m.completed_len(), 2, "case {case}: applied once");
        assert!(m.check_guess_invariant());
    }
}

/// No honest master sends `BeginApply{r}` to a machine it counts before that
/// machine's `FlushDone{r}`, and so before it has taken a `BeginSync{r}` --
/// which is why no driven schedule can order them the other way round, and
/// this test forces it: the message is parked whole, the master's batch with
/// it, and when `BeginSync{r}` comes the machine flushes, replays it and
/// applies, asking nobody for anything. A resend parked behind it is
/// replayed as it would be taken arriving later: the round is applied by
/// then, and the resend is only acknowledged.
#[test]
fn a_begin_apply_ahead_of_its_begin_sync_is_buffered_with_its_batch() {
    use crate::message::Msg;
    use guesstimate_net::{Action, Channel};
    let (mut m, begin_apply) = member_and_its_begin_apply();
    let (master, me) = (MachineId::new(0), m.id());
    assert!(deliver(&mut m, begin_apply.clone()).is_empty());
    assert!(deliver(&mut m, begin_apply).is_empty());
    assert_eq!((m.buffered_rounds(), m.completed_len()), (1, 0));
    let order = vec![master, me];
    let sent = deliver(&mut m, Msg::BeginSync { round: 1, order });
    assert!(matches!(
        sent[..],
        [
            Action::Broadcast(Channel::Operations, Msg::Ops { round: 1, .. }),
            Action::Send(
                _,
                Channel::Signals,
                Msg::FlushDone {
                    round: 1,
                    count: 1,
                    ..
                }
            ),
            Action::Send(_, Channel::Signals, Msg::Ack { round: 1, .. }),
            Action::Send(_, Channel::Signals, Msg::Ack { round: 1, .. }),
        ]
    ));
    assert_eq!((m.buffered_rounds(), m.completed_len()), (0, 2));
    assert!(m.check_guess_invariant());
}

/// A `BeginApply` that carries nothing -- the master flushed no operation
/// and no async window, as under serial turns it never does -- is no batch
/// delivery: the master traced no `OpsBatchSent` for it, so the member
/// traces no `OpsBatchReceived`, and the master's count of 0 is all the
/// round needs to apply.
#[test]
fn an_empty_begin_apply_is_no_batch_delivery() {
    use crate::message::Msg;
    let (mut m, _) = member_and_its_begin_apply();
    let tracer = Arc::new(guesstimate_net::RecordingTracer::new());
    m.set_tracer(tracer.clone());
    let (master, me) = (MachineId::new(0), m.id());
    let order = vec![master, me];
    deliver(&mut m, Msg::BeginSync { round: 1, order });
    let empty = Msg::BeginApply {
        round: 1,
        counts: vec![(master, 0), (me, 1)],
        ops: Default::default(),
        asyncs: Default::default(),
    };
    deliver(&mut m, empty);
    assert_eq!(m.completed_len(), 1, "applied on the counts alone");
    assert!(m.check_guess_invariant());
    let received = |e: &TraceEvent| matches!(e, TraceEvent::OpsBatchReceived { .. });
    assert!(!tracer.snapshot().iter().any(|r| received(&r.event)));
}

/// A machine that left on purpose keeps its pending operations for its
/// return. What can still reach it is meant for the member it was: a
/// `Restart` or a `RoundUpdate` naming it (the master missed its `Leave`
/// and gave up on it), and the `JoinInfo` of a handshake begun before it
/// left. None may reset it or answer; `come_online` ends the deafness.
#[test]
fn an_offline_machine_ignores_restart_round_traffic_and_join_info() {
    use crate::message::Msg;
    use guesstimate_net::{Action, Actor, Channel, Ctx};
    let (master, me) = (MachineId::new(0), MachineId::new(1));
    let mut m = Machine::new_member(me, Arc::new(counter_registry()), MachineConfig::default());
    m.membership.joined_system = true;
    m.membership.in_cohort = true;
    m.create_instance(Counter { n: 0 });
    let with_ctx = |m: &mut Machine, f: &mut dyn FnMut(&mut Machine, &mut Ctx<'_, Msg>)| {
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(SimTime::ZERO, me, &mut actions);
        f(m, &mut ctx);
        actions
    };
    let deliver = |m: &mut Machine, msg: Msg| {
        let mut msg = Some(msg);
        with_ctx(m, &mut |m, ctx| {
            m.on_message(master, Channel::Signals, msg.take().unwrap(), ctx)
        })
    };

    with_ctx(&mut m, &mut |m, ctx| m.go_offline(ctx));
    let removed = vec![me];
    for msg in [
        Msg::Restart,
        Msg::RoundUpdate { round: 3, removed },
        Msg::JoinInfo {
            catalog: Vec::new(),
            completed: Vec::new(),
            completed_serialized: Vec::new(),
            async_watermarks: Vec::new(),
        },
    ] {
        let sent = deliver(&mut m, msg);
        assert!(sent.is_empty(), "an offline machine answers nothing");
    }
    assert_eq!((m.pending_len(), m.stats().restarts), (1, 0));
    assert_eq!(m.buffered_rounds(), 0, "nothing is kept for later either");
    assert!(!m.is_joined());

    let back = with_ctx(&mut m, &mut |m, ctx| m.come_online(ctx));
    assert!(matches!(
        back[0],
        Action::Broadcast(Channel::Signals, Msg::JoinRequest { .. })
    ));
    deliver(&mut m, Msg::Restart);
    assert_eq!(m.stats().restarts, 1, "back online, a Restart is obeyed");
}

#[test]
fn op_seq_survives_restart() {
    // OpIds must never be reused across a restart, or the completed
    // history would contain duplicate identities.
    let mut m = machine();
    let id = m.create_instance(Counter { n: 0 });
    m.issue(SharedOp::primitive(id, "add", args![1])).unwrap();
    let seq_before = m.op_seq;
    m.reset_for_restart();
    assert_eq!(m.op_seq, seq_before);
}

#[test]
fn debug_impl_is_nonempty() {
    assert!(format!("{:?}", machine()).contains("Machine"));
}

// ---- witness containment at apply sites ------------------------------------

/// `slots_registry` plus a `copy(src, dst)` method whose declared footprint
/// under-declares: it reads `src` but only admits to touching `dst`. The
/// live witness check must catch this at issue time.
fn leaky_slots_registry() -> OpRegistry {
    use guesstimate_core::{EffectSpec, Footprint};
    let mut r = slots_registry();
    r.register_with_effects::<Slots>(
        "copy",
        EffectSpec::new(|a| {
            let Some(dst) = a.str(1) else {
                return Footprint::new();
            };
            Footprint::new().reads([dst]).writes([dst])
        }),
        |s: &mut Slots, a| {
            let (Some(src), Some(dst)) = (a.str(0), a.str(1)) else {
                return false;
            };
            let Some(v) = s.m.get(src).copied() else {
                return false;
            };
            s.m.insert(dst.to_owned(), v);
            true
        },
    );
    r
}

fn witness_machine(checks: Checks) -> (Machine, ObjectId) {
    let cfg = MachineConfig::default()
        .with_checks(checks)
        .with_witness_reads(true);
    let mut m = Machine::new_master(MachineId::new(0), Arc::new(leaky_slots_registry()), cfg);
    let id = m.create_instance(Slots {
        m: [("src".to_owned(), 7), ("dst".to_owned(), 0)].into(),
    });
    (m, id)
}

#[test]
fn undeclared_read_is_recorded_under_record_checks() {
    let (mut m, id) = witness_machine(Checks::Record);
    assert!(m.witness_violations().is_empty());
    let ok = m
        .issue(SharedOp::primitive(id, "copy", args!["src", "dst"]))
        .unwrap();
    assert!(ok, "the op itself succeeds; only its declaration is wrong");
    let v = m
        .witness_violations()
        .first()
        .expect("escape recorded, not asserted");
    assert_eq!(v.site, "issue");
    assert!(
        v.detail.contains("src"),
        "detail names the leaked path: {}",
        v.detail
    );
    // An honestly-declared method adds nothing.
    m.issue(SharedOp::primitive(id, "put", args!["dst", 3]))
        .unwrap();
    assert_eq!(m.witness_violations().len(), 1);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "witness escape")]
fn undeclared_read_asserts_under_assert_checks() {
    let (mut m, id) = witness_machine(Checks::Assert);
    let _ = m.issue(SharedOp::primitive(id, "copy", args!["src", "dst"]));
}

// ---- the pending list's envelopes: sealed by a flush, shared after --------

/// The heap buffer of a primitive operation's method name: the same after
/// a move, a fresh one after a copy.
fn method_buffer(env: &WireEnvelope) -> Option<*const u8> {
    match &env.op {
        WireOp::Shared(SharedOp::Primitive { method, .. }) => Some(method.as_ptr()),
        _ => None,
    }
}

/// A member's flush seals its pending list's open batch as the batch it
/// ships: the `Ops` it broadcasts, its stored flush, its own received run
/// and `P` share that one allocation, whose envelopes are where the issues
/// built them.
#[test]
fn a_flush_seals_the_pending_list_as_one_shared_batch() {
    use crate::message::Msg;
    use guesstimate_net::{Action, Channel};
    let (mut m, _) = member_and_its_begin_apply();
    let (master, me) = (MachineId::new(0), m.id());
    let (obj, ..) = pending_envs(&m)[0].op.as_create().expect("a creation");
    for d in 1..=3 {
        m.issue(SharedOp::primitive(obj, "add", args![d])).unwrap();
    }
    let before = pending_envs(&m);
    let buffers: Vec<_> = m.pending.envs().map(method_buffer).collect();
    let open = m.pending.open.as_ptr();
    let sent = deliver(
        &mut m,
        Msg::BeginSync {
            round: 1,
            order: vec![master, me],
        },
    );
    let Some(Action::Broadcast(Channel::Operations, Msg::Ops { ops, .. })) = sent.first() else {
        panic!("the flush ships its batch first: {sent:?}");
    };
    let rs = m.participant.round.as_ref().expect("round 1 is held");
    assert_eq!(rs.my_flush[..], before[..], "the batch is P in issue order");
    assert!(
        Arc::ptr_eq(ops, &rs.my_flush),
        "the broadcast is the stored flush"
    );
    assert!(
        Arc::ptr_eq(&rs.received[&me], &rs.my_flush),
        "so is the own run"
    );
    assert!(
        Arc::ptr_eq(m.pending.sealed.as_ref().unwrap(), &rs.my_flush),
        "and P"
    );
    assert_eq!(rs.my_flush.as_ptr(), open, "the open batch was sealed");
    let after: Vec<_> = m.pending.envs().map(method_buffer).collect();
    assert_eq!(after, buffers, "no envelope was copied");
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(64))]
    /// Whatever happens to `P` -- issues, flushes, commits of part of the
    /// last flush, flushes repeated after a removal, restarts, rejoins --
    /// every batch cut is the list of envelopes as issued and still
    /// pending, `P` is left reading it, and
    /// `sg = [P](sc)` holds after every step under `Checks::Assert`.
    #[test]
    fn flushes_ship_the_envelopes_as_issued(
        steps in proptest::collection::vec((0u8..6, 0u64..8), 1..40)
    ) {
        let cfg = MachineConfig::default().with_checks(Checks::Assert);
        let mut m = Machine::new_master(MachineId::new(0), Arc::new(counter_registry()), cfg);
        let foreign = MachineId::new(9);
        // What a flush must ship: the envelopes as built at issue.
        let mut issued: std::collections::VecDeque<WireEnvelope> = Default::default();
        let mut last: Option<OpsBatch> = None;
        let mut counter: Option<ObjectId> = None;
        let mut round = 0;
        for (kind, arg) in steps {
            match kind {
                0 | 1 => {
                    match counter.filter(|&id| m.read::<Counter, _>(id, |_| ()).is_some()) {
                        Some(id) => {
                            let op = SharedOp::primitive(id, "add", args![arg as i64 + 1]);
                            proptest::prop_assert!(m.issue(op).unwrap());
                        }
                        None => counter = Some(m.create_instance(Counter { n: 0 })),
                    }
                    issued.push_back(pending_envs(&m).pop().unwrap());
                }
                2 => {
                    let batch = m.pending.cut();
                    proptest::prop_assert!(batch.iter().eq(issued.iter()));
                    let p = &m.pending;
                    proptest::prop_assert!(p.sealed.as_ref().is_some_and(|s| Arc::ptr_eq(s, &batch)) && p.head == 0);
                    proptest::prop_assert!(p.open.is_empty() && p.records.len() == batch.len());
                    last = Some(batch);
                }
                3 => {
                    let Some(batch) = last.take() else { continue };
                    // A prefix of the flush commits; the whole of it is the
                    // run this machine received from itself.
                    let n = arg as usize % (batch.len() + 1);
                    let own = if n == batch.len() {
                        batch
                    } else {
                        Arc::new(batch[..n].to_vec())
                    };
                    let mut runs = vec![own];
                    if arg % 2 == 1 {
                        let op = WireOp::Create {
                            object: ObjectId::new(foreign, round),
                            type_name: "Counter".to_owned(),
                            init: guesstimate_core::Value::from(0),
                        };
                        let id = OpId::new(foreign, round);
                        runs.push(Arc::new(vec![WireEnvelope { id, op }]));
                    }
                    m.apply_committed_round(&runs, round, SimTime::ZERO);
                    issued.drain(..n);
                    round += 1;
                }
                4 => {
                    // Restart, then rejoin on the snapshot taken before it.
                    let (catalog, completed, serialized, marks) = m.build_join_info();
                    m.reset_for_restart();
                    issued.clear();
                    m.init_from_join_info(catalog, completed, serialized, marks, SimTime::ZERO);
                    last = None;
                }
                _ => {
                    // Rejoin keeping `P`: its records stay where they were.
                    let (catalog, completed, serialized, marks) = m.build_join_info();
                    m.init_from_join_info(catalog, completed, serialized, marks, SimTime::ZERO);
                    last = None;
                }
            }
            proptest::prop_assert!(pending_envs(&m).iter().eq(issued.iter()));
            proptest::prop_assert!(m.check_guess_invariant());
        }
    }
}

//! End-to-end synchronization-round tests, driven through the public API
//! over the deterministic virtual-time mesh: convergence, conflicts,
//! bounded re-execution, membership churn, recovery, and cross-channel
//! reordering.

mod rounds {
    use guesstimate_core::{args, MachineId, ObjectId, OpRegistry, SharedOp};
    use guesstimate_net::{FaultPlan, LatencyModel, NetConfig, SimNet, SimTime, StallWindow};
    use guesstimate_runtime::testutil::{counter_registry, Counter};
    use guesstimate_runtime::{Checks, Flush, Machine, MachineConfig};
    use std::sync::Arc;

    pub(super) fn cluster(
        n: u32,
        seed: u64,
        latency: LatencyModel,
        faults: FaultPlan,
        cfg: MachineConfig,
    ) -> SimNet<Machine> {
        let registry = Arc::new(counter_registry());
        let netcfg = NetConfig::lan(seed)
            .with_latency(latency)
            .with_faults(faults);
        let mut net = SimNet::new(netcfg);
        net.add_machine(
            MachineId::new(0),
            Machine::new_master(MachineId::new(0), registry.clone(), cfg.clone()),
        );
        for i in 1..n {
            net.add_machine(
                MachineId::new(i),
                Machine::new_member(MachineId::new(i), registry.clone(), cfg.clone()),
            );
        }
        net
    }

    pub(super) fn default_cfg() -> MachineConfig {
        // Checks::Assert: every protocol step re-validates `sg = [P](sc)`,
        // so these tests no longer need ad-hoc mid-run invariant calls.
        MachineConfig::default()
            .with_sync_period(SimTime::from_millis(100))
            .with_stall_timeout(SimTime::from_millis(500))
            .with_join_retry(SimTime::from_millis(300))
            .with_checks(Checks::Assert)
    }

    fn fast_cluster(n: u32, seed: u64) -> SimNet<Machine> {
        cluster(
            n,
            seed,
            LatencyModel::constant_ms(10),
            FaultPlan::new(),
            default_cfg(),
        )
    }

    /// Steps the mesh to the next instant at which none of `ids` is in a
    /// round: whatever they issue there is flushed by one and the same
    /// round, the next, wherever in the master's cycle the caller's clock
    /// happened to stand.
    fn run_to_round_gap(net: &mut SimNet<Machine>, ids: &[u32]) {
        let in_round = |net: &SimNet<Machine>| {
            ids.iter().any(|&i| {
                let m = net.actor(MachineId::new(i)).expect("machine is registered");
                m.state_summary().active_round.is_some()
            })
        };
        while in_round(net) {
            net.step()
                .expect("a periodic protocol never runs out of events");
        }
    }

    pub(super) fn assert_converged(net: &SimNet<Machine>, ids: &[u32]) {
        let digests: Vec<u64> = ids
            .iter()
            .map(|&i| {
                net.actor(MachineId::new(i))
                    .expect("machine is registered on the mesh")
                    .committed_digest()
            })
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "committed states diverged: {digests:?}"
        );
        for &i in ids {
            let m = net
                .actor(MachineId::new(i))
                .expect("machine is registered on the mesh");
            assert_eq!(m.pending_len(), 0, "machine {i} still has pending ops");
            assert_eq!(
                m.guess_digest(),
                m.committed_digest(),
                "machine {i}: sg != sc at quiescence"
            );
        }
    }

    #[test]
    fn two_machines_converge_on_counter() {
        let mut net = fast_cluster(2, 1);
        // Let membership settle and create the object on the master.
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(2));
        // Both machines see the object now; both add.
        for i in 0..2 {
            let m = net
                .actor_mut(MachineId::new(i))
                .expect("machine is registered on the mesh");
            assert_eq!(m.object_type(obj), Some("Counter"));
            assert!(m
                .issue(SharedOp::primitive(obj, "add", args![1]))
                .expect("issue: the target object is known to this machine"));
        }
        net.run_until(SimTime::from_secs(4));
        assert_converged(&net, &[0, 1]);
        for i in 0..2 {
            let m = net
                .actor(MachineId::new(i))
                .expect("machine is registered on the mesh");
            assert_eq!(m.read::<Counter, _>(obj, |c| c.n), Some(2));
        }
    }

    #[test]
    fn eight_machines_converge_under_load() {
        let mut net = fast_cluster(8, 7);
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(2));
        // Every machine issues 5 increments at staggered times.
        for i in 0..8u32 {
            for k in 0..5u64 {
                net.schedule_call(
                    SimTime::from_millis(2_000 + 97 * k + 13 * i as u64),
                    MachineId::new(i),
                    move |m: &mut Machine, _| {
                        let _ = m.issue(SharedOp::primitive(obj, "add", args![1]));
                    },
                );
            }
        }
        net.run_until(SimTime::from_secs(8));
        assert_converged(&net, &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(
            net.actor(MachineId::new(3))
                .expect("machine is registered on the mesh")
                .read::<Counter, _>(obj, |c| c.n),
            Some(40)
        );
    }

    #[test]
    fn conflicting_ops_commit_consistently_and_count_conflicts() {
        let mut net = fast_cluster(4, 3);
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(2));
        // All four try to claim the last 2 units of a capacity-3 resource
        // in the same round: at most 3 add_capped(1, 3) can succeed.
        for i in 0..4 {
            net.schedule_call(
                SimTime::from_millis(2_010 + i as u64),
                MachineId::new(i),
                move |m: &mut Machine, _| {
                    let ok = m
                        .issue(SharedOp::primitive(obj, "add_capped", args![1, 3]))
                        .expect("issue: the target object is known to this machine");
                    assert!(ok, "succeeds optimistically on the guesstimate");
                },
            );
        }
        net.run_until(SimTime::from_secs(5));
        assert_converged(&net, &[0, 1, 2, 3]);
        let n = net
            .actor(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .read::<Counter, _>(obj, |c| c.n)
            .expect("the object is replicated on this machine");
        assert_eq!(n, 3, "cap respected in committed state");
        let conflicts: u64 = (0..4)
            .map(|i| {
                net.actor(MachineId::new(i))
                    .expect("machine is registered on the mesh")
                    .stats()
                    .conflicts
            })
            .sum();
        assert_eq!(conflicts, 1, "exactly one issuer lost the race");
    }

    #[test]
    fn completion_reports_commit_failure_on_conflict() {
        use std::sync::atomic::{AtomicI32, Ordering};
        let mut net = fast_cluster(2, 11);
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(2));
        run_to_round_gap(&mut net, &[0, 1]);
        let seen = Arc::new(AtomicI32::new(-1));
        // Both are flushed by the next round, where m0's op sorts first
        // (smaller machine id) and wins; m1's loses.
        let s = seen.clone();
        net.call(MachineId::new(0), |m, _| {
            assert!(m
                .issue(SharedOp::primitive(obj, "add_capped", args![3, 3]))
                .expect("issue: the target object is known to this machine"));
        });
        net.call(MachineId::new(1), |m, _| {
            assert!(m
                .issue_with_completion(
                    SharedOp::primitive(obj, "add_capped", args![3, 3]),
                    Box::new(move |b| s.store(b as i32, Ordering::SeqCst)),
                )
                .expect("issue: the target object is known to this machine"));
        });
        net.run_until(SimTime::from_secs(4));
        assert_eq!(seen.load(Ordering::SeqCst), 0, "completion saw failure");
        assert_eq!(
            net.actor(MachineId::new(1))
                .expect("machine is registered on the mesh")
                .stats()
                .conflicts,
            1
        );
        assert_converged(&net, &[0, 1]);
    }

    #[test]
    fn own_ops_execute_at_most_three_times() {
        let mut net = fast_cluster(5, 13);
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(2));
        // Dense issue schedule so some ops land inside sync rounds (and get
        // the extra replay execution).
        for i in 0..5u32 {
            for k in 0..40u64 {
                net.schedule_call(
                    SimTime::from_millis(2_000 + 11 * k + 3 * i as u64),
                    MachineId::new(i),
                    move |m: &mut Machine, _| {
                        let _ = m.issue(SharedOp::primitive(obj, "add", args![1]));
                    },
                );
            }
        }
        net.run_until(SimTime::from_secs(10));
        assert_converged(&net, &[0, 1, 2, 3, 4]);
        for i in 0..5 {
            let st = net
                .actor(MachineId::new(i))
                .expect("machine is registered on the mesh")
                .stats();
            assert!(
                st.max_exec_count <= 3,
                "machine {i}: op executed {} times",
                st.max_exec_count
            );
            assert!(st.exec_histogram[2] > 0, "some ops executed twice");
        }
        // With a dense schedule, at least someone's op got the 3rd execution.
        let threes: u64 = (0..5)
            .map(|i| {
                net.actor(MachineId::new(i))
                    .expect("machine is registered on the mesh")
                    .stats()
                    .exec_histogram[3]
            })
            .sum();
        assert!(threes > 0, "expected some triple executions");
    }

    #[test]
    fn late_joiner_receives_full_state() {
        let mut net = fast_cluster(2, 17);
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.call(MachineId::new(0), |m, _| {
            assert!(m
                .issue(SharedOp::primitive(obj, "add", args![5]))
                .expect("issue: the target object is known to this machine"));
        });
        net.run_until(SimTime::from_secs(3));
        // Machine 2 joins late.
        let registry = Arc::new(counter_registry());
        net.schedule_join(
            SimTime::from_secs(3),
            MachineId::new(2),
            Machine::new_member(MachineId::new(2), registry, default_cfg()),
        );
        net.run_until(SimTime::from_secs(6));
        let late = net
            .actor(MachineId::new(2))
            .expect("machine is registered on the mesh");
        assert!(late.in_cohort(), "late joiner participates in rounds");
        assert_eq!(late.read::<Counter, _>(obj, |c| c.n), Some(5));
        assert_converged(&net, &[0, 1, 2]);
        // And it can issue ops that commit everywhere.
        net.call(MachineId::new(2), |m, _| {
            assert!(m
                .issue(SharedOp::primitive(obj, "add", args![2]))
                .expect("issue: the target object is known to this machine"));
        });
        net.run_until(SimTime::from_secs(8));
        assert_eq!(
            net.actor(MachineId::new(0))
                .expect("machine is registered on the mesh")
                .read::<Counter, _>(obj, |c| c.n),
            Some(7)
        );
    }

    #[test]
    fn a_joiner_is_admitted_with_the_period_below_the_link_round_trip() {
        // 30 ms links (jittered), a round asked for every 50 ms: a
        // `JoinReady` is about 60 ms behind its `JoinInfo`, so a master that
        // starts a round at every tick has nearly always started one when
        // the answer arrives, and refuses it -- the joiner gets in when the
        // jitter happens to shrink a round trip, after seconds or never.
        // The first member assembles against a master alone; the second
        // arrives once two-member rounds are running, and is admitted in
        // the time its handshake takes, whatever the seed: request, info,
        // ready, and the `BeginSync` of the round the master held for it.
        let cfg = default_cfg().with_sync_period(SimTime::from_millis(50));
        let (master, late) = (MachineId::new(0), MachineId::new(2));
        for seed in 50..62 {
            let mut net = cluster(
                2,
                seed,
                LatencyModel::lan_ms(30),
                FaultPlan::new(),
                cfg.clone(),
            );
            net.run_until(SimTime::from_secs(1));
            let stats = net.actor(master).expect("machine is registered").stats();
            let two_member_rounds = stats.sync_samples.iter();
            assert!(
                two_member_rounds.filter(|s| s.participants == 2).count() > 1,
                "seed {seed}: the joiner must meet multi-member rounds"
            );
            let (holds, held) = (stats.join_holds, stats.join_hold_time);
            let joiner = Machine::new_member(late, Arc::new(counter_registry()), cfg.clone());
            net.schedule_join(SimTime::from_secs(1), late, joiner);
            net.run_until(SimTime::from_millis(1_300));
            assert!(
                net.actor(late).is_some_and(Machine::in_cohort),
                "seed {seed}: not admitted within 300 ms"
            );
            // One held tick did it, for what was left of the round trip:
            // the cost is visible, and nowhere near the `stall_timeout` a
            // dead joiner would cost.
            let stats = net.actor(master).expect("machine is registered").stats();
            assert_eq!(stats.join_holds, holds + 1, "seed {seed}");
            let waited = stats.join_hold_time.saturating_since(held);
            assert!(
                waited < SimTime::from_millis(150),
                "seed {seed}: {waited:?}"
            );
            net.run_until(SimTime::from_secs(2));
            assert_converged(&net, &[0, 1, 2]);
        }
    }

    #[test]
    fn stalled_machine_is_removed_restarted_and_rejoins() {
        // Machine 2 goes silent from t=4s to t=8s. The master should remove
        // it from a round, restart it, and re-admit it afterwards — while
        // the others keep committing (the §7 failure/recovery story).
        let faults = FaultPlan::new().with_stall(StallWindow::new(
            MachineId::new(2),
            SimTime::from_secs(4),
            SimTime::from_secs(8),
        ));
        let mut net = cluster(3, 23, LatencyModel::constant_ms(10), faults, default_cfg());
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(2));
        // Continuous activity on machines 0 and 1 throughout.
        for k in 0..80u64 {
            net.schedule_call(
                SimTime::from_millis(2_000 + k * 100),
                MachineId::new((k % 2) as u32),
                move |m: &mut Machine, _| {
                    let _ = m.issue(SharedOp::primitive(obj, "add", args![1]));
                },
            );
        }
        net.run_until(SimTime::from_secs(14));
        let master_stats = net
            .actor(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .stats()
            .clone();
        let removals: u64 = master_stats.sync_samples.iter().map(|s| s.removals).sum();
        assert!(removals >= 1, "master removed the stalled machine");
        let m2 = net
            .actor(MachineId::new(2))
            .expect("machine is registered on the mesh");
        assert!(m2.stats().restarts >= 1, "machine 2 restarted");
        assert!(m2.in_cohort(), "machine 2 rejoined");
        assert_converged(&net, &[0, 1, 2]);
        assert_eq!(
            m2.read::<Counter, _>(obj, |c| c.n),
            Some(80),
            "no committed updates were lost"
        );
    }

    #[test]
    fn survives_random_message_loss() {
        let faults = FaultPlan::new().with_drop_prob(0.02);
        let mut net = cluster(4, 29, LatencyModel::constant_ms(10), faults, default_cfg());
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(3));
        for i in 0..4u32 {
            for k in 0..10u64 {
                net.schedule_call(
                    SimTime::from_millis(3_000 + 151 * k + 17 * i as u64),
                    MachineId::new(i),
                    move |m: &mut Machine, _| {
                        let _ = m.issue(SharedOp::primitive(obj, "add", args![1]));
                    },
                );
            }
        }
        // Long quiet tail so recovery can finish.
        net.run_until(SimTime::from_secs(30));
        // All currently-in-cohort machines agree.
        let in_cohort: Vec<u32> = (0..4)
            .filter(|&i| {
                net.actor(MachineId::new(i))
                    .expect("machine is registered on the mesh")
                    .in_cohort()
            })
            .collect();
        assert!(in_cohort.len() >= 2, "most machines still participating");
        assert_converged(&net, &in_cohort);
        // Committed value = 40 minus ops lost to restarts.
        let lost: u64 = (0..4)
            .map(|i| {
                net.actor(MachineId::new(i))
                    .expect("machine is registered on the mesh")
                    .stats()
                    .ops_lost_to_restart
            })
            .sum();
        let n = net
            .actor(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .read_committed::<Counter, _>(obj, |c| c.n)
            .expect("the object is replicated on this machine");
        assert_eq!(
            n as u64 + lost,
            40,
            "every issued op committed or was lost to a restart"
        );
    }

    #[test]
    fn graceful_leave_shrinks_rounds() {
        let mut net = fast_cluster(3, 31);
        net.run_until(SimTime::from_secs(2));
        assert_eq!(
            net.actor(MachineId::new(0))
                .expect("machine is registered on the mesh")
                .members()
                .len(),
            3
        );
        net.call(MachineId::new(2), |m, ctx| m.leave(ctx));
        net.run_until(SimTime::from_secs(4));
        assert_eq!(
            net.actor(MachineId::new(0))
                .expect("machine is registered on the mesh")
                .members()
                .len(),
            2
        );
        // Rounds keep completing with 2 participants.
        let samples = &net
            .actor(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .stats()
            .sync_samples;
        let last = samples
            .last()
            .expect("the master completed at least one round");
        assert_eq!(last.participants, 2);
    }

    /// One machine goes offline `offset_ms` after a round's `BeginSync`
    /// left the master (10 ms links: members flush at +10, the master
    /// starts stage 2 when the last `FlushDone` is in, they apply one link
    /// later), works offline, and comes back. Wherever in the round the
    /// `Leave` lands, the round must neither wait for the leaver nor cost
    /// it its pending operations, and every operation commits exactly once.
    fn leave_mid_round_and_return(cfg: MachineConfig, leaver: u32, offset_ms: u64) {
        let mut net = cluster(3, 43, LatencyModel::constant_ms(10), FaultPlan::new(), cfg);
        let (master, away) = (MachineId::new(0), MachineId::new(leaver));
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(master)
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(2));
        // One operation each, issued in a gap: the next round flushes all three.
        run_to_round_gap(&mut net, &[0, 1, 2]);
        for i in 0..3 {
            net.call(MachineId::new(i), |m, _| {
                assert!(m
                    .issue(SharedOp::primitive(obj, "add", args![1]))
                    .expect("issue: the target object is known to this machine"));
            });
        }
        let in_round = |net: &SimNet<Machine>| {
            let m = net.actor(master).expect("machine is registered");
            m.state_summary().active_round.is_some()
        };
        while !in_round(&net) {
            net.step().expect("the master ticks");
        }
        let begun = net.now();
        let rounds_before = net.actor(master).unwrap().stats().sync_samples.len();
        net.schedule_call(
            begun + SimTime::from_millis(offset_ms),
            away,
            move |m: &mut Machine, ctx| {
                m.go_offline(ctx);
                // Offline work: it must survive the absence.
                assert!(m
                    .issue(SharedOp::primitive(obj, "add", args![10]))
                    .expect("issue: the target object is known to this machine"));
            },
        );
        net.run_until(begun + SimTime::from_millis(95));
        {
            let m = net.actor(master).expect("machine is registered");
            let samples = &m.stats().sync_samples;
            assert_eq!(samples.len(), rounds_before + 1, "the round completed");
            let round = samples.last().unwrap();
            assert!(
                round.duration <= SimTime::from_millis(50),
                "the round waited for the leaver: {round:?}"
            );
            assert_eq!((round.resends, round.removals), (0, 0), "{round:?}");
            assert_eq!(m.members().len(), 2);
        }
        net.call(away, |m, ctx| m.come_online(ctx));
        net.run_until(begun + SimTime::from_secs(2));
        assert_converged(&net, &[0, 1, 2]);
        let m = net.actor(away).expect("machine is registered");
        assert!(m.in_cohort(), "the leaver is back");
        assert_eq!(
            (m.stats().restarts, m.stats().ops_lost_to_restart),
            (0, 0),
            "a machine that left on purpose is not restarted"
        );
        assert_eq!(m.stats().committed_own, 2);
        assert_eq!(
            m.read::<Counter, _>(obj, |c| c.n),
            Some(13),
            "three adds of 1 and the offline 10, each exactly once"
        );
    }

    #[test]
    fn leaving_in_the_gap_shrinks_the_next_round() {
        // The round is over everywhere at +50; the `Leave` lands at +70.
        leave_mid_round_and_return(default_cfg(), 2, 60);
    }

    #[test]
    fn leaving_before_the_flush_drops_out_of_stage_1() {
        // `BeginSync` reaches an offline machine at +10; the `Leave`
        // reaches the master at +15, ahead of the other `FlushDone`.
        leave_mid_round_and_return(default_cfg(), 2, 5);
    }

    #[test]
    fn leaving_after_the_flush_leaves_the_batch_uncounted() {
        // Serial turns, so that stage 1 outlives the leaver's flush: m1
        // flushes at +10, m2 at +20 on hearing it, and the `Leave` reaches
        // the master at +22, between their two `FlushDone`s. m1's batch is
        // on every replica and in no `BeginApply`.
        leave_mid_round_and_return(default_cfg().with_flush(Flush::Serial), 1, 12);
    }

    #[test]
    fn leaving_after_begin_apply_commits_the_counted_flush_once() {
        // `BeginApply` (sent at +20) counts the leaver's flush; it is gone
        // at +25, before the signal arrives. Everyone else commits its
        // operation, so on its return the operation is already in `C` and
        // must leave `P` without a second commit.
        leave_mid_round_and_return(default_cfg(), 2, 25);
    }

    #[test]
    fn serial_flush_converges_too() {
        // The paper's §4 turn-taking, which the default no longer selects.
        let cfg = default_cfg().with_flush(Flush::Serial);
        let mut net = cluster(6, 37, LatencyModel::constant_ms(10), FaultPlan::new(), cfg);
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(2));
        for i in 0..6 {
            net.call(MachineId::new(i), |m, _| {
                let _ = m.issue(SharedOp::primitive(obj, "add", args![1]));
            });
        }
        net.run_until(SimTime::from_secs(5));
        assert_converged(&net, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(
            net.actor(MachineId::new(5))
                .expect("machine is registered on the mesh")
                .read::<Counter, _>(obj, |c| c.n),
            Some(6)
        );
    }

    #[test]
    fn sync_samples_are_recorded_with_plausible_durations() {
        let mut net = fast_cluster(4, 41);
        net.run_until(SimTime::from_secs(5));
        let stats = net
            .actor(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .stats();
        assert!(stats.sync_samples.len() >= 10);
        for s in &stats.sync_samples {
            // With 10ms constant latency a round takes a few dozen ms —
            // never longer than the stall timeout in this test.
            assert!(s.duration >= SimTime::from_millis(20), "{:?}", s);
            assert!(s.duration < SimTime::from_millis(500), "{:?}", s);
            assert!(!s.recovered());
        }
        // A lone master's round crosses no link; a cohort's crosses four.
        let early: Vec<_> = stats
            .sync_samples
            .iter()
            .filter(|s| s.participants == 1)
            .collect();
        let late: Vec<_> = stats
            .sync_samples
            .iter()
            .filter(|s| s.participants == 4)
            .collect();
        if let (Some(e), Some(l)) = (early.first(), late.first()) {
            assert!(l.duration > e.duration);
        }
    }

    #[test]
    fn or_else_and_atomic_ops_flow_through_the_protocol() {
        let mut net = fast_cluster(2, 43);
        net.run_until(SimTime::from_secs(1));
        let (a, b) = {
            let m = net
                .actor_mut(MachineId::new(0))
                .expect("machine is registered on the mesh");
            (
                m.create_instance(Counter { n: 0 }),
                m.create_instance(Counter { n: 0 }),
            )
        };
        net.run_until(SimTime::from_secs(2));
        net.call(MachineId::new(1), |m, _| {
            // Atomic transfer-ish op plus an OrElse fallback.
            let op = SharedOp::atomic(vec![
                SharedOp::primitive(a, "add", args![-1]), // fails: would go negative
                SharedOp::primitive(b, "add", args![1]),
            ])
            .or_else(SharedOp::primitive(b, "add", args![10]));
            assert!(m
                .issue(op)
                .expect("issue: the target object is known to this machine"));
        });
        net.run_until(SimTime::from_secs(4));
        assert_converged(&net, &[0, 1]);
        let m0 = net
            .actor(MachineId::new(0))
            .expect("machine is registered on the mesh");
        assert_eq!(m0.read::<Counter, _>(a, |c| c.n), Some(0));
        assert_eq!(m0.read::<Counter, _>(b, |c| c.n), Some(10));
    }

    #[test]
    fn registry_must_match_for_foreign_types() {
        // A machine whose registry lacks a type cannot materialize foreign
        // objects; creating locally panics upfront (checked in machine.rs).
        // Here we verify the catalog propagates type names correctly.
        let mut net = fast_cluster(2, 47);
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 3 });
        net.run_until(SimTime::from_secs(3));
        let m1 = net
            .actor(MachineId::new(1))
            .expect("machine is registered on the mesh");
        assert_eq!(m1.object_type(obj), Some("Counter"));
        assert_eq!(m1.available_objects().len(), 1);
        assert_eq!(m1.read::<Counter, _>(obj, |c| c.n), Some(3));
    }

    #[test]
    fn guess_state_reflects_local_ops_before_commit() {
        // The heart of the model: reads see local effects immediately, even
        // though the committed state lags until the next synchronization.
        let mut net = fast_cluster(2, 53);
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(2));
        let m0 = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh");
        m0.issue(SharedOp::primitive(obj, "add", args![9]))
            .expect("issue: the target object is known to this machine");
        assert_eq!(m0.read::<Counter, _>(obj, |c| c.n), Some(9), "sg updated");
        assert_eq!(
            m0.read_committed::<Counter, _>(obj, |c| c.n),
            Some(0),
            "sc unchanged until commit"
        );
        assert_eq!(m0.pending_len(), 1);
    }

    /// Dedicated OpRegistry sharing test: two registries with the same
    /// registrations behave identically (they need not be the same Arc).
    #[test]
    fn distinct_but_equal_registries_interoperate() {
        let netcfg = NetConfig::lan(59).with_latency(LatencyModel::constant_ms(10));
        let mut net = SimNet::new(netcfg);
        net.add_machine(
            MachineId::new(0),
            Machine::new_master(
                MachineId::new(0),
                Arc::new(counter_registry()),
                default_cfg(),
            ),
        );
        net.add_machine(
            MachineId::new(1),
            Machine::new_member(
                MachineId::new(1),
                Arc::new(counter_registry()),
                default_cfg(),
            ),
        );
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(2));
        net.call(MachineId::new(1), |m, _| {
            assert!(m
                .issue(SharedOp::primitive(obj, "add", args![4]))
                .expect("issue: the target object is known to this machine"));
        });
        net.run_until(SimTime::from_secs(4));
        assert_eq!(
            net.actor(MachineId::new(0))
                .expect("machine is registered on the mesh")
                .read::<Counter, _>(obj, |c| c.n),
            Some(4)
        );
    }

    #[test]
    fn unknown_object_issue_does_not_poison_protocol() {
        let mut net = fast_cluster(2, 61);
        net.run_until(SimTime::from_secs(1));
        let bogus = ObjectId::new(MachineId::new(9), 0);
        net.call(MachineId::new(1), |m, _| {
            assert!(m
                .issue(SharedOp::primitive(bogus, "add", args![1]))
                .is_err());
        });
        net.run_until(SimTime::from_secs(3));
        // Rounds still complete.
        assert!(
            net.actor(MachineId::new(0))
                .expect("machine is registered on the mesh")
                .stats()
                .syncs_seen
                > 5
        );
    }

    #[test]
    fn empty_registry_types_are_queryable() {
        let r: Arc<OpRegistry> = Arc::new(counter_registry());
        assert!(r.has_type("Counter"));
        assert!(r.has_method("Counter", "add_capped"));
    }
}

mod reorder {
    //! White-box schedules that force cross-channel reordering: the
    //! Operations channel outruns the Signals channel, so `Ops` batches
    //! (and even `BeginApply`) arrive before their round's `BeginSync` and
    //! must be buffered.

    use guesstimate_core::{args, MachineId, SharedOp};
    use guesstimate_net::{LatencyModel, NetConfig, SimNet, SimTime};
    use guesstimate_runtime::testutil::{counter_registry, Counter};
    use guesstimate_runtime::{Machine, MachineConfig};
    use std::sync::Arc;

    fn skewed_cluster(n: u32, ops_ms: u64, signals_ms: u64, seed: u64) -> SimNet<Machine> {
        let registry = Arc::new(counter_registry());
        let netcfg = NetConfig::lan(seed)
            .with_latency(LatencyModel::constant_ms(ops_ms))
            .with_signals_latency(LatencyModel::constant_ms(signals_ms));
        let cfg = MachineConfig::default()
            .with_sync_period(SimTime::from_millis(100))
            .with_stall_timeout(SimTime::from_secs(2))
            .with_join_retry(SimTime::from_millis(300));
        let mut net = SimNet::new(netcfg);
        net.add_machine(
            MachineId::new(0),
            Machine::new_master(MachineId::new(0), registry.clone(), cfg.clone()),
        );
        for i in 1..n {
            net.add_machine(
                MachineId::new(i),
                Machine::new_member(MachineId::new(i), registry.clone(), cfg.clone()),
            );
        }
        net
    }

    fn converged(net: &SimNet<Machine>, n: u32) -> bool {
        let d0 = net
            .actor(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .committed_digest();
        (1..n).all(|i| {
            net.actor(MachineId::new(i))
                .expect("machine is registered on the mesh")
                .committed_digest()
                == d0
        }) && (0..n).all(|i| {
            net.actor(MachineId::new(i))
                .expect("machine is registered on the mesh")
                .pending_len()
                == 0
        })
    }

    #[test]
    fn fast_ops_channel_forces_buffering_and_still_converges() {
        // Ops arrive in 1 ms; signals take 40 ms. Every round's Ops batch
        // lands long before its BeginSync.
        let mut net = skewed_cluster(3, 1, 40, 71);
        net.run_until(SimTime::from_secs(3));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(5));
        for i in 0..3u32 {
            for k in 0..8u64 {
                net.schedule_call(
                    SimTime::from_secs(5) + SimTime::from_millis(60 * k + 7 * u64::from(i)),
                    MachineId::new(i),
                    move |m: &mut Machine, _| {
                        let _ = m.issue(SharedOp::primitive(obj, "add", args![1]));
                    },
                );
            }
        }
        net.run_until(SimTime::from_secs(12));
        assert!(converged(&net, 3));
        assert_eq!(
            net.actor(MachineId::new(1))
                .expect("machine is registered on the mesh")
                .read::<Counter, _>(obj, |c| c.n),
            Some(24)
        );
        for i in 0..3 {
            let m = net
                .actor(MachineId::new(i))
                .expect("machine is registered on the mesh");
            assert!(m.check_guess_invariant());
            assert!(m.stats().max_exec_count <= 3);
        }
    }

    #[test]
    fn slow_ops_channel_delays_apply_until_batches_arrive() {
        // The opposite skew: signals race ahead (1 ms) while op batches
        // crawl (50 ms), so BeginApply regularly precedes the data it
        // authorizes and machines must wait (or request resends).
        let mut net = skewed_cluster(3, 50, 1, 73);
        net.run_until(SimTime::from_secs(3));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("machine is registered on the mesh")
            .create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(5));
        for i in 0..3u32 {
            net.call(MachineId::new(i), |m, _| {
                let _ = m.issue(SharedOp::primitive(obj, "add", args![2]));
            });
        }
        net.run_until(SimTime::from_secs(12));
        assert!(converged(&net, 3));
        assert_eq!(
            net.actor(MachineId::new(2))
                .expect("machine is registered on the mesh")
                .read::<Counter, _>(obj, |c| c.n),
            Some(6)
        );
    }

    #[test]
    fn buffered_rounds_are_bounded() {
        // The future-round buffer must not grow without bound even when a
        // machine is starved of BeginSyncs (signals crawl at 300 ms while
        // the master keeps producing rounds).
        let mut net = skewed_cluster(2, 1, 300, 79);
        net.run_until(SimTime::from_secs(20));
        for i in 0..2 {
            let m = net
                .actor(MachineId::new(i))
                .expect("machine is registered on the mesh");
            assert!(
                m.buffered_rounds() <= 8,
                "m{i}: buffer bounded, got {}",
                m.buffered_rounds()
            );
        }
    }
}

mod flush_modes {
    //! What stage 1 puts on the wire in each flush mode, and how the
    //! parallel mode recovers when one of its messages is lost. Operations
    //! travel in 1 ms and Signals in 10 ms, so a partition window one
    //! millisecond wide — partitions are judged at delivery too — removes
    //! exactly the deliveries due inside it.

    use guesstimate_core::{args, MachineId, ObjectId, SharedOp};
    use guesstimate_net::{
        FaultPlan, LatencyModel, NetConfig, PartitionWindow, RecordingTracer, SimNet, SimTime,
        TraceEvent, TraceRecord,
    };
    use guesstimate_runtime::testutil::{counter_registry, Counter};
    use guesstimate_runtime::{Flush, Machine, MachineConfig, SyncSample};
    use std::sync::Arc;

    use super::rounds::default_cfg as cfg;

    const OPS_MS: u64 = 1;
    const SIGNALS_MS: u64 = 10;
    /// Membership and the object's creation have committed everywhere.
    const SETTLED: SimTime = SimTime::from_secs(3);

    /// What one run of the scenario leaves behind.
    struct Run {
        net: SimNet<Machine>,
        obj: ObjectId,
        /// The round that committed the issued ops.
        round: SyncSample,
        /// Everything traced while that round ran.
        trace: Vec<TraceRecord>,
        /// Point-to-point sends while it ran (a broadcast counts per peer).
        msgs: u64,
    }

    impl Run {
        fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
            self.trace.iter().filter(|r| pred(&r.event)).count()
        }

        fn sent(&self, kind: &str) -> usize {
            self.count(|e| matches!(e, TraceEvent::MsgSent { kind: k, .. } if *k == kind))
        }

        fn assert_committed_everywhere(&self, n: u32) {
            for i in 0..n {
                let m = self.net.actor(MachineId::new(i)).expect("member");
                assert!(m.in_cohort(), "m{i} still in the cohort");
                assert_eq!(m.stats().restarts, 0, "m{i} never restarted");
                assert_eq!(m.pending_len(), 0, "m{i} flushed everything");
                assert_eq!(
                    m.read_committed::<Counter, _>(self.obj, |c| c.n),
                    Some(i64::from(n)),
                    "m{i} committed every machine's op"
                );
            }
        }
    }

    /// `n` machines settle, each issues one `add(1)` between two rounds, and
    /// the round that follows is observed under `faults`.
    fn run(n: u32, cfg: MachineConfig, faults: FaultPlan) -> Run {
        let registry = Arc::new(counter_registry());
        let netcfg = NetConfig::lan(5)
            .with_latency(LatencyModel::constant_ms(OPS_MS))
            .with_signals_latency(LatencyModel::constant_ms(SIGNALS_MS))
            .with_faults(faults);
        let mut net = SimNet::new(netcfg);
        let tracer = Arc::new(RecordingTracer::new());
        for i in 0..n {
            let id = MachineId::new(i);
            let mut m = if i == 0 {
                Machine::new_master(id, registry.clone(), cfg.clone())
            } else {
                Machine::new_member(id, registry.clone(), cfg.clone())
            };
            m.set_tracer(tracer.clone());
            net.add_machine(id, m);
        }
        net.set_tracer(tracer.clone());
        net.run_until(SimTime::from_secs(1));
        let obj = net
            .actor_mut(MachineId::new(0))
            .expect("master")
            .create_instance(Counter { n: 0 });
        net.run_until(SETTLED);
        // Issue between rounds, so exactly one round carries the ops: step
        // to the end of the round in progress and let its SyncComplete land.
        let rounds_done = |net: &SimNet<Machine>| {
            let master = net.actor(MachineId::new(0)).expect("master");
            master.stats().sync_samples.len()
        };
        let step_past = |net: &mut SimNet<Machine>, done: usize| {
            while rounds_done(net) <= done {
                assert!(net.now() < SimTime::from_secs(10), "round never finished");
                net.step();
            }
        };
        let done = rounds_done(&net);
        step_past(&mut net, done);
        net.run_until(net.now() + SimTime::from_millis(2 * SIGNALS_MS));
        for i in 0..n {
            net.call(MachineId::new(i), |m, _| {
                assert!(m
                    .issue(SharedOp::primitive(obj, "add", args![1]))
                    .expect("the object is replicated everywhere by now"));
            });
        }
        tracer.take();
        let sent_before = net.metrics().sent;
        step_past(&mut net, done + 1);
        let master = net.actor(MachineId::new(0)).expect("master");
        let round = master.stats().sync_samples[done + 1];
        let trace = tracer.take();
        let msgs = net.metrics().sent - sent_before;
        // Let the last SyncComplete land before anyone inspects members.
        net.run_until(net.now() + SimTime::from_millis(2 * SIGNALS_MS));
        Run {
            net,
            obj,
            round,
            trace,
            msgs,
        }
    }

    /// When the round observed by [`run`] starts: found on a fault-free
    /// twin, whose timeline is the faulty run's up to the first fault.
    fn round_start(n: u32) -> SimTime {
        run(n, cfg(), FaultPlan::new()).round.started_at
    }

    /// Cuts `group` off from the rest for the millisecond around `at`.
    fn cut_around(group: &[u32], at: SimTime) -> FaultPlan {
        let half = SimTime::from_micros(500);
        FaultPlan::new().with_partition(PartitionWindow::new(
            group.iter().map(|&i| MachineId::new(i)).collect(),
            at.saturating_since(half),
            at + half,
        ))
    }

    #[test]
    fn a_four_replica_round_is_24_messages_parallel_and_36_serial() {
        // BeginSync 3 + BeginApply 3 + Ack 3 + SyncComplete 3 = 12 either
        // way. Serial turns: Ops 4x3 and a FlushDone broadcast from every
        // machine (12). Parallel: the three members' Ops (3x3) and one
        // FlushDone each to the master (3); the master's batch is inside
        // `BeginApply`.
        let parallel = run(4, cfg(), FaultPlan::new());
        assert_eq!(parallel.sent("flush_done"), 3);
        assert_eq!(parallel.sent("ops"), 3, "the master broadcasts none");
        assert_eq!(parallel.msgs, 24);
        assert_eq!(
            parallel.round.duration,
            SimTime::from_millis(4 * SIGNALS_MS),
            "BeginSync, FlushDone, BeginApply, Ack"
        );
        parallel.assert_committed_everywhere(4);

        let serial = run(4, cfg().with_flush(Flush::Serial), FaultPlan::new());
        assert_eq!(serial.sent("flush_done"), 4);
        assert_eq!(serial.sent("ops"), 4);
        assert_eq!(serial.msgs, 36);
        assert_eq!(
            serial.round.duration,
            SimTime::from_millis(6 * SIGNALS_MS),
            "one more delay per member's turn"
        );
        serial.assert_committed_everywhere(4);
    }

    #[test]
    fn lost_ops_with_flush_done_delivered_recovers_by_ops_request() {
        // Members flush when BeginSync lands; their batches are due 1 ms
        // later. Cutting machine 2 off for that millisecond loses its batch
        // at machines 0 and 1 and machine 1's batch at machine 2 — while
        // every FlushDone, 9 ms behind on the Signals channel, arrives.
        let flushed_at = round_start(3) + SimTime::from_millis(SIGNALS_MS);
        let r = run(
            3,
            cfg(),
            cut_around(&[2], flushed_at + SimTime::from_millis(OPS_MS)),
        );
        // The master's counts expose the gaps: each machine asks the source
        // it is missing, and the round needs no stall timeout.
        let requested = |by: u32, from: u32| {
            r.trace.iter().any(|t| {
                t.source == MachineId::new(by)
                    && matches!(t.event, TraceEvent::OpsResendRequested { source, .. }
                        if source == MachineId::new(from))
            })
        };
        assert!(requested(0, 2) && requested(1, 2) && requested(2, 1));
        assert_eq!(r.sent("ops_request"), 3);
        assert_eq!((r.round.resends, r.round.removals), (0, 0));
        assert!(r.round.duration < cfg().stall_timeout, "{:?}", r.round);
        r.assert_committed_everywhere(3);
    }

    #[test]
    fn lost_master_only_flush_done_is_resent_on_the_nudge() {
        // Machine 1's FlushDone — sent to the master alone — is due one
        // Signals delay after it flushed. Nobody else can vouch for the
        // flush, so the master's stage-1 timeout re-sends BeginSync and the
        // duplicate makes machine 1 announce its flush again, to the master.
        let flushed_at = round_start(3) + SimTime::from_millis(SIGNALS_MS);
        let r = run(
            3,
            cfg(),
            cut_around(&[1], flushed_at + SimTime::from_millis(SIGNALS_MS)),
        );
        assert_eq!(
            r.count(|e| matches!(e, TraceEvent::Resend { stage: 1, machine, .. }
                if *machine == MachineId::new(1))),
            1,
            "one nudge, to the silent machine only"
        );
        let flush_dones_from = |m: u32| {
            r.trace
                .iter()
                .filter(|t| {
                    t.source == MachineId::new(m)
                        && matches!(
                            t.event,
                            TraceEvent::MsgSent {
                                kind: "flush_done",
                                ..
                            }
                        )
                })
                .count()
        };
        // One announcement more than machine 2 -- beside the one each sent
        // for the next round: this one outlasted the period, so the next
        // began as soon as the master had applied it.
        assert_eq!((flush_dones_from(1), flush_dones_from(2)), (3, 2));
        assert_eq!((r.round.resends, r.round.removals), (1, 0));
        assert!(r.round.duration >= cfg().stall_timeout, "{:?}", r.round);
        r.assert_committed_everywhere(3);
    }
}

mod pipeline {
    //! Two rounds in flight, one per stage: 10 ms links make a round 40 ms
    //! (`BeginSync`, `FlushDone`, `BeginApply`, `Ack`) and the master asks
    //! for one every 30 ms, so round r + 1 begins while the members are
    //! still applying round r. `Checks::Assert` re-validates `sg = [P](sc)`
    //! after every protocol step of every machine.

    use guesstimate_core::{args, MachineId, ObjectId, SharedOp};
    use guesstimate_net::{FaultPlan, LatencyModel, SimNet, SimTime};
    use guesstimate_runtime::testutil::Counter;
    use guesstimate_runtime::{Machine, MachineConfig, MachineStats};

    use super::rounds::{assert_converged, cluster, default_cfg};

    const LINK_MS: u64 = 10;
    const PERIOD: SimTime = SimTime::from_millis(30);
    const ROUND: SimTime = SimTime::from_millis(4 * LINK_MS);

    fn cfg() -> MachineConfig {
        default_cfg().with_sync_period(PERIOD)
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn master_stats(net: &SimNet<Machine>) -> &MachineStats {
        net.actor(MachineId::new(0)).expect("master").stats()
    }

    /// `n` machines in the cohort and a counter committed everywhere.
    fn settled(n: u32, cfg: MachineConfig, faults: FaultPlan) -> (SimNet<Machine>, ObjectId) {
        let mut net = cluster(n, 47, LatencyModel::constant_ms(LINK_MS), faults, cfg);
        net.run_until(SimTime::from_secs(1));
        let master = net.actor_mut(MachineId::new(0)).expect("master");
        let obj = master.create_instance(Counter { n: 0 });
        net.run_until(SimTime::from_secs(2));
        (net, obj)
    }

    #[test]
    fn a_period_below_the_round_starts_a_round_every_period() {
        let (mut net, obj) = settled(4, cfg(), FaultPlan::new());
        let first = master_stats(&net).sync_samples.len();
        // One operation a machine every 7 ms, wherever the rounds stand.
        for k in 0..120u64 {
            let at = SimTime::from_secs(2) + ms(7 * k + 3);
            let issuer = MachineId::new((k % 4) as u32);
            net.schedule_call(at, issuer, move |m: &mut Machine, ctx| {
                let op = SharedOp::primitive(obj, "add", args![1]);
                assert!(m.issue_at(op, None, ctx.now()).expect("known object"));
            });
        }
        net.run_until(SimTime::from_secs(3));
        let stats = master_stats(&net);
        let rounds = &stats.sync_samples[first..];
        assert!(rounds.len() >= 30, "a round every 30 ms: {}", rounds.len());
        for pair in rounds.windows(2) {
            let gap = pair[1].started_at.saturating_since(pair[0].started_at);
            assert_eq!(gap, PERIOD, "{pair:?}");
        }
        // There are more rounds, not faster ones: each is still four links,
        // and the next one's stage 1 never has to wait for it.
        for r in rounds {
            assert_eq!((r.duration, r.flush_duration), (ROUND, ms(20)), "{r:?}");
            assert_eq!((r.resends, r.removals), (0, 0), "{r:?}");
        }
        assert!(stats.rounds_overlapped as usize >= rounds.len() - 1);
        // The master applied each round 10 ms before the next tick: no tick
        // found stage 1 open.
        assert_eq!(stats.ticks_deferred, 0);
        net.run_until(SimTime::from_millis(3_200));
        assert_converged(&net, &[0, 1, 2, 3]);
        for i in 0..4 {
            let m = net.actor(MachineId::new(i)).expect("member");
            assert_eq!(m.read::<Counter, _>(obj, |c| c.n), Some(120));
            let s = m.stats();
            // An operation waits for its machine's next flush (under a
            // period). A member's commits here two links later, after one
            // replay by the round it missed; the master cuts its batch as
            // stage 1 closes and applies it in the same step, its pending
            // list empty: issue and commit, nothing between.
            let (links, execs) = if i == 0 { (0, 2) } else { (2, 3) };
            assert_eq!((s.restarts, s.max_exec_count), (0, execs), "m{i}");
            let worst = s.commit_latencies.iter().max().expect("it issued 30");
            assert!(*worst <= PERIOD + ms(links * LINK_MS), "m{i}: {worst:?}");
        }
    }

    #[test]
    fn a_joiner_arriving_mid_pipeline_is_admitted_after_a_drain_behind_one_hold() {
        use guesstimate_runtime::testutil::counter_registry;
        let (mut net, _) = settled(3, cfg(), FaultPlan::new());
        let before = master_stats(&net).clone();
        let late = MachineId::new(3);
        let joiner = Machine::new_member(late, std::sync::Arc::new(counter_registry()), cfg());
        net.schedule_join(SimTime::from_millis(2_004), late, joiner);
        net.run_until(SimTime::from_millis(2_300));
        assert!(net.actor(late).is_some_and(Machine::in_cohort));
        let stats = master_stats(&net);
        // The tick after its `JoinRequest` waits for the rounds in flight to
        // finish instead of starting a third; the empty pipeline serves the
        // handshake, and the round held for its answer is the joiner's first.
        assert_eq!(stats.ticks_deferred, before.ticks_deferred + 1);
        assert_eq!(stats.join_holds, before.join_holds + 1);
        let waited = stats.join_hold_time.saturating_since(before.join_hold_time);
        assert_eq!(waited, ms(2 * LINK_MS), "`JoinInfo` out, `JoinReady` back");
        let rounds = &stats.sync_samples[before.sync_samples.len() - 1..];
        let starts = rounds.windows(2).map(|w| {
            let gap = w[1].started_at.saturating_since(w[0].started_at);
            (gap, w[0].participants, w[1].participants)
        });
        let slow: Vec<_> = starts.filter(|(gap, ..)| *gap != PERIOD).collect();
        // Drained at +40 (the round the tick found in stage 2), held to +60.
        assert_eq!(slow, vec![(ms(60), 3, 4)], "one gap, at the admission");
        assert!(rounds.iter().all(|r| r.duration == ROUND && !r.recovered()));
        net.run_until(SimTime::from_millis(2_500));
        assert_converged(&net, &[0, 1, 2, 3]);
    }

    /// When the master sends the `BeginSync` the leave scenarios are timed
    /// from: one period after the next round it begins under another.
    fn observed_begin(net: &mut SimNet<Machine>) -> SimTime {
        let begun = master_stats(net).rounds_overlapped;
        while master_stats(net).rounds_overlapped == begun {
            net.step().expect("the master ticks");
        }
        net.now() + PERIOD
    }

    /// Machine 2 goes offline `offset_ms` around the moment round r + 1's
    /// `BeginSync` leaves the master (round r's `BeginApply` went out 10 ms
    /// earlier, the members apply r as r + 1 begins and flush r + 1 10 ms
    /// later), works offline, and comes back. With `cut`, machine 1 is cut
    /// off for the millisecond in which its `Ack{r}` and its `BeginSync{r+1}`
    /// are due, so r stays in stage 2 and r + 1 in stage 1 until the stall
    /// timers resend both. Every machine issues one operation 20 ms before
    /// the leave; `counted` says whether a `BeginApply` counts the leaver's
    /// before it is gone, so that it commits in its absence. Wherever the
    /// `Leave` lands, neither round may wait for the leaver or cost it its
    /// pending operations, and every operation commits exactly once.
    fn leave_with_two_rounds_in_flight(offset_ms: i64, cut: bool, counted: bool) {
        use guesstimate_net::PartitionWindow;
        let mut faults = FaultPlan::new();
        if cut {
            let (mut twin, _) = settled(3, cfg(), FaultPlan::new());
            let due = observed_begin(&mut twin) + ms(LINK_MS);
            let half = SimTime::from_micros(500);
            let window = PartitionWindow::new(vec![MachineId::new(1)], due - half, due + half);
            faults = faults.with_partition(window);
        }
        let (mut net, obj) = settled(3, cfg(), faults);
        let away = MachineId::new(2);
        let begin = observed_begin(&mut net);
        let rounds_before = master_stats(&net).sync_samples.len();
        let at = SimTime::from_micros((begin.as_micros() as i64 + 1_000 * offset_ms) as u64);
        for i in 0..3 {
            net.schedule_call(at - ms(20), MachineId::new(i), move |m: &mut Machine, _| {
                let op = SharedOp::primitive(obj, "add", args![1]);
                assert!(m.issue(op).expect("known object"));
            });
        }
        net.schedule_call(at, away, move |m: &mut Machine, ctx| {
            m.go_offline(ctx);
            // Offline work: it must survive the absence.
            let op = SharedOp::primitive(obj, "add", args![10]);
            assert!(m.issue(op).expect("known object"));
        });
        net.run_until(begin + SimTime::from_secs(1));
        {
            let master = net.actor(MachineId::new(0)).expect("master");
            assert_eq!(master.members().len(), 2);
            let rounds = &master.stats().sync_samples[rounds_before..];
            assert!(rounds.iter().all(|r| r.removals == 0), "nobody is removed");
            let slow = rounds.iter().filter(|r| r.duration > ROUND);
            let nudges: Vec<u64> = slow.map(|r| r.resends).collect();
            // No round waits for the leaver; the cut costs r and r + 1 one
            // resend each.
            assert_eq!(nudges, vec![1; if cut { 2 } else { 0 }]);
            let committed = master.read_committed::<Counter, _>(obj, |c| c.n);
            assert_eq!(committed, Some(2 + i64::from(counted)), "while it is away");
        }
        net.call(away, |m, ctx| m.come_online(ctx));
        net.run_until(begin + SimTime::from_secs(2));
        assert_converged(&net, &[0, 1, 2]);
        for i in 0..3 {
            let m = net.actor(MachineId::new(i)).expect("member");
            assert!(m.in_cohort(), "m{i} is in the cohort");
            let s = m.stats();
            assert_eq!((s.restarts, s.ops_lost_to_restart), (0, 0), "m{i}");
            // Beside its add: the master's `Create`, the leaver's offline add.
            assert_eq!(s.committed_own, [2, 1, 2][i as usize], "m{i}");
            assert_eq!(
                m.read::<Counter, _>(obj, |c| c.n),
                Some(13),
                "three adds of 1 and the offline 10, each exactly once"
            );
        }
    }

    #[test]
    fn leaving_between_begin_apply_and_the_next_flush_leaves_both_rounds() {
        // The `Leave` lands at +5: the leaver owes r an `Ack` (its counted
        // flush commits everywhere else) and r + 1, begun with it in the
        // order, a flush.
        leave_with_two_rounds_in_flight(-5, false, true);
    }

    #[test]
    fn leaving_after_the_apply_drops_out_of_the_next_stage_1() {
        // It applied r as r + 1 began; its `Ack` is in at +10, the `Leave`
        // at +15, ahead of the others' `FlushDone{r+1}`.
        leave_with_two_rounds_in_flight(5, false, false);
    }

    #[test]
    fn leaving_after_the_next_flush_commits_the_counted_flush_once() {
        // It flushed r + 1 at +10; `BeginApply{r+1}` (+20) counts the flush,
        // and the `Leave` lands at +22.
        leave_with_two_rounds_in_flight(12, false, true);
    }

    #[test]
    fn leaving_a_round_held_in_stage_1_leaves_the_flushed_batch_uncounted() {
        // Machine 1's lost `Ack{r}` keeps r + 1 in stage 1 with the leaver's
        // `FlushDone` in; the `Leave` lands at +35, long before the resends.
        // Machine 1 answers the resent `BeginApply{r}` from its closing slot.
        leave_with_two_rounds_in_flight(25, true, false);
    }
}

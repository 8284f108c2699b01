//! End-to-end convergence: all six applications running together on one
//! GUESSTIMATE cluster, with the §3 invariants checked mid-flight.

use guesstimate::apps;
use guesstimate::apps::{auction, carpool, event_planner, message_board, microblog, sudoku};
use guesstimate::net::{LatencyModel, NetConfig, SimTime};
use guesstimate::runtime::{run_until_cohort, sim_cluster, Checks, Flush, Machine, MachineConfig};
use guesstimate::{MachineId, ObjectId, OpRegistry};

fn cluster(n: u32, seed: u64) -> guesstimate::net::SimNet<Machine> {
    cluster_with(n, seed, MachineConfig::default())
}

fn cluster_with(n: u32, seed: u64, cfg: MachineConfig) -> guesstimate::net::SimNet<Machine> {
    let mut registry = OpRegistry::new();
    apps::register_all(&mut registry);
    sim_cluster(
        n,
        registry,
        cfg.with_sync_period(SimTime::from_millis(100))
            .with_stall_timeout(SimTime::from_millis(800))
            // Debug-assert sg = [P](sc) after every protocol callback on
            // every machine, replacing ad-hoc mid-run polling.
            .with_checks(Checks::Assert),
        NetConfig::lan(seed).with_latency(LatencyModel::constant_ms(10)),
    )
}

fn assert_all_converged(net: &guesstimate::net::SimNet<Machine>, n: u32) {
    let digests: Vec<u64> = (0..n)
        .map(|i| net.actor(MachineId::new(i)).unwrap().committed_digest())
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "committed replicas diverged: {digests:?}"
    );
    for i in 0..n {
        let m = net.actor(MachineId::new(i)).unwrap();
        assert_eq!(m.pending_len(), 0, "m{i} has pending ops at quiescence");
        assert_eq!(m.guess_digest(), m.committed_digest(), "m{i}: sg != sc");
        assert!(m.check_guess_invariant(), "m{i}: [P](sc) != sg");
    }
}

#[test]
fn all_six_apps_converge_on_one_cluster() {
    let n = 5;
    let mut net = cluster(n, 1);
    assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));

    // Machine 0 creates one object per application.
    let (board, planner, mboard, pool, house, blog) = {
        let m = net.actor_mut(MachineId::new(0)).unwrap();
        (
            m.create_instance(sudoku::example_puzzle()),
            m.create_instance(event_planner::EventPlanner::with_quota(2)),
            m.create_instance(message_board::MessageBoard::new()),
            m.create_instance(carpool::CarPool::new()),
            m.create_instance(auction::Auction::new()),
            m.create_instance(microblog::MicroBlog::new()),
        )
    };
    net.run_until(net.now() + SimTime::from_secs(2));

    // Every machine sees all six objects with the right types.
    for i in 0..n {
        let m = net.actor(MachineId::new(i)).unwrap();
        assert_eq!(m.available_objects().len(), 6, "m{i} catalog");
        assert_eq!(m.object_type(board), Some("Sudoku"));
        assert_eq!(m.object_type(blog), Some("MicroBlog"));
    }

    // Interleave activity on all apps from different machines.
    let users = ["ann", "bob", "cid", "dee", "eve"];
    for (i, user) in users.iter().enumerate() {
        let uid = MachineId::new(i as u32);
        let user = user.to_string();
        net.schedule_call(
            net.now() + SimTime::from_millis(100 * i as u64),
            uid,
            move |m: &mut Machine, _| {
                m.issue(event_planner::ops::register_user(planner, &user, "pw"))
                    .unwrap();
                m.issue(microblog::ops::register(blog, &user)).unwrap();
            },
        );
    }
    net.run_until(net.now() + SimTime::from_secs(2));
    net.call(MachineId::new(0), |m, _| {
        m.issue(event_planner::ops::create_event(planner, "party", 3))
            .unwrap();
        m.issue(message_board::ops::create_topic(mboard, "general"))
            .unwrap();
        m.issue(carpool::ops::add_vehicle(pool, "van", 3, "party"))
            .unwrap();
        m.issue(auction::ops::list_item(house, "lamp", "ann", 10, 5))
            .unwrap();
    });
    net.run_until(net.now() + SimTime::from_secs(2));

    for (i, user) in users.iter().enumerate() {
        let uid = MachineId::new(i as u32);
        let user = user.to_string();
        net.schedule_call(
            net.now() + SimTime::from_millis(50 * i as u64),
            uid,
            move |m: &mut Machine, _| {
                let _ = m.issue(event_planner::ops::join(planner, &user, "party"));
                let _ = m.issue(message_board::ops::post(mboard, "general", &user, "hello"));
                let _ = m.issue(carpool::ops::board(pool, &user, "van"));
                if user != "ann" {
                    let _ = m.issue(auction::ops::bid(house, "lamp", &user, 10 + 5 * i as i64));
                }
                let _ = m.issue(microblog::ops::post(blog, &user, "posted!"));
            },
        );
    }
    net.run_until(net.now() + SimTime::from_secs(5));
    assert_all_converged(&net, n);

    // Cross-app assertions on the converged state.
    let m0 = net.actor(MachineId::new(0)).unwrap();
    m0.read::<event_planner::EventPlanner, _>(planner, |p| {
        assert_eq!(
            3 - p.vacancies("party").unwrap(),
            3,
            "exactly capacity-many party joins committed"
        );
    })
    .unwrap();
    m0.read::<message_board::MessageBoard, _>(mboard, |b| {
        assert_eq!(b.posts("general").unwrap().len(), 5, "all posts kept");
    })
    .unwrap();
    m0.read::<carpool::CarPool, _>(pool, |p| {
        assert_eq!(p.free_seats("van"), Some(0), "van filled to capacity");
    })
    .unwrap();
    m0.read::<auction::Auction, _>(house, |a| {
        let best = a.best_bid("lamp").unwrap();
        assert_eq!(best.1, 30, "highest valid bid stands");
    })
    .unwrap();
    m0.read::<microblog::MicroBlog, _>(blog, |b| {
        assert_eq!(b.posts().len(), 5);
        assert_eq!(b.user_count(), 5);
    })
    .unwrap();
}

#[test]
fn guess_invariant_holds_throughout_a_run() {
    let n = 4;
    let mut net = cluster(n, 3);
    assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(sudoku::example_puzzle());
    net.run_until(net.now() + SimTime::from_secs(1));

    // Issue moves and check the invariant at many interleaved points.
    for k in 0..120u64 {
        let who = MachineId::new((k % n as u64) as u32);
        net.schedule_call(
            net.now() + SimTime::from_millis(37 * k),
            who,
            move |m: &mut Machine, _| {
                if let Some(moves) = m.read::<sudoku::Sudoku, _>(board, |s| s.candidate_moves()) {
                    if let Some(&(r, c, v)) = moves.get((k % 11) as usize) {
                        let _ = m.issue(sudoku::ops::update(board, r, c, v));
                    }
                }
                assert!(m.check_guess_invariant(), "[P](sc) != sg mid-run");
            },
        );
    }
    // Per-step invariant checking is handled by `Checks::Assert` in the
    // cluster config: every protocol callback on every machine
    // debug-asserts sg = [P](sc), which subsumes the old 250ms polling
    // loop this test used to run.
    net.run_until(net.now() + SimTime::from_secs(10));
    assert_all_converged(&net, n);
}

#[test]
fn late_joiners_and_leavers_interleave_safely() {
    let mut net = cluster(2, 7);
    assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));
    let blog = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(microblog::MicroBlog::new());
    net.call(MachineId::new(0), |m, _| {
        m.issue(microblog::ops::register(blog, "ann")).unwrap();
        m.issue(microblog::ops::post(blog, "ann", "first")).unwrap();
    });
    net.run_until(net.now() + SimTime::from_secs(2));

    // Machines 2 and 3 join late, with their own registries.
    for i in 2..4u32 {
        let mut registry = OpRegistry::new();
        apps::register_all(&mut registry);
        net.schedule_join(
            net.now() + SimTime::from_millis(500 * u64::from(i)),
            MachineId::new(i),
            Machine::new_member(
                MachineId::new(i),
                std::sync::Arc::new(registry),
                MachineConfig::default()
                    .with_sync_period(SimTime::from_millis(100))
                    .with_stall_timeout(SimTime::from_millis(800)),
            ),
        );
    }
    net.run_until(net.now() + SimTime::from_secs(5));
    // Late joiners see the pre-join post and can extend the state.
    for i in 2..4u32 {
        let m = net.actor(MachineId::new(i)).unwrap();
        assert!(m.in_cohort(), "m{i} joined");
        assert_eq!(
            m.read::<microblog::MicroBlog, _>(blog, |b| b.posts().len()),
            Some(1)
        );
    }
    net.call(MachineId::new(3), |m, _| {
        m.issue(microblog::ops::register(blog, "dee")).unwrap();
        m.issue(microblog::ops::post(blog, "dee", "late but here"))
            .unwrap();
    });
    net.run_until(net.now() + SimTime::from_secs(2));

    // Machine 1 leaves gracefully; the rest keep converging.
    net.call(MachineId::new(1), |m, ctx| m.leave(ctx));
    net.call(MachineId::new(2), |m, _| {
        m.issue(microblog::ops::register(blog, "cid")).unwrap();
    });
    net.run_until(net.now() + SimTime::from_secs(3));

    let remaining = [0u32, 2, 3];
    let digests: Vec<u64> = remaining
        .iter()
        .map(|&i| net.actor(MachineId::new(i)).unwrap().committed_digest())
        .collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    let m0 = net.actor(MachineId::new(0)).unwrap();
    m0.read::<microblog::MicroBlog, _>(blog, |b| {
        assert_eq!(b.user_count(), 3);
        assert_eq!(b.posts().len(), 2);
    })
    .unwrap();
}

#[test]
fn object_ids_resolve_by_string_form() {
    // AvailableObjects/GetUniqueID round trip through the display form.
    let mut net = cluster(2, 9);
    assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(sudoku::example_puzzle());
    net.run_until(net.now() + SimTime::from_secs(2));
    let unique_id = board.to_string();
    let parsed = ObjectId::parse(&unique_id).expect("canonical form");
    assert_eq!(parsed, board);
    let m1 = net.actor(MachineId::new(1)).unwrap();
    assert_eq!(m1.join_instance(parsed), Some("Sudoku"));
}

/// Scale check beyond the paper's 8 users: 16 machines issuing Sudoku moves
/// converge; returns the durations of the full-cohort rounds.
fn sixteen_machines_under_load(cfg: MachineConfig) -> Vec<SimTime> {
    let n = 16;
    let mut net = cluster_with(n, 77, cfg);
    assert!(run_until_cohort(&mut net, SimTime::from_secs(20)));
    let board = net
        .actor_mut(MachineId::new(0))
        .unwrap()
        .create_instance(sudoku::example_puzzle());
    net.run_until(net.now() + SimTime::from_secs(2));
    for i in 0..n {
        for k in 0..6u64 {
            net.schedule_call(
                net.now() + SimTime::from_millis(450 * k + 20 * u64::from(i)),
                MachineId::new(i),
                move |m: &mut Machine, _| {
                    if let Some(moves) = m.read::<sudoku::Sudoku, _>(board, |s| s.candidate_moves())
                    {
                        if let Some(&(r, c, v)) = moves.get((k % 5) as usize) {
                            let _ = m.issue(sudoku::ops::update(board, r, c, v));
                        }
                    }
                },
            );
        }
    }
    net.run_until(net.now() + SimTime::from_secs(15));
    assert_all_converged(&net, n);
    let st = net.actor(MachineId::new(5)).unwrap().stats();
    assert!(st.max_exec_count <= 3);
    let samples = &net.actor(MachineId::new(0)).unwrap().stats().sync_samples;
    let full_rounds: Vec<SimTime> = samples
        .iter()
        .filter(|s| s.participants == 16)
        .map(|s| s.duration)
        .collect();
    assert!(!full_rounds.is_empty(), "full-cohort rounds happened");
    full_rounds
}

#[test]
fn sixteen_machine_cluster_converges_under_load() {
    // The paper's serial protocol still converges, just with longer rounds
    // (the Figure 6 trend): round duration reflects 16 flush turns.
    for d in sixteen_machines_under_load(MachineConfig::default().with_flush(Flush::Serial)) {
        assert!(
            d >= SimTime::from_millis(150),
            "16 serial turns at 10ms latency each: {d:?}"
        );
    }
}

#[test]
fn sixteen_machine_round_takes_four_link_delays() {
    // The default parallel flush: BeginSync, FlushDone, BeginApply, Ack —
    // four one-way delays of 10 ms however large the cohort.
    for d in sixteen_machines_under_load(MachineConfig::default()) {
        assert!(
            d >= SimTime::from_millis(40) && d <= SimTime::from_millis(45),
            "a 16-machine round is 4 link delays, not 18: {d:?}"
        );
    }
}

//! Model-checker regression schedules.
//!
//! `tests/schedules/` holds minimized, replayable schedule files produced
//! by the `mc` binary (see `docs/MODELCHECK.md`). Schedules *without* a
//! tamper block are interesting interleavings (message loss, late join,
//! cross-machine reorderings) that once exercised tricky protocol paths:
//! replaying them must stay oracle-clean. Schedules *with* a tamper block
//! — or recorded against a hidden negative preset (one absent from
//! [`guesstimate_mc::PRESETS`], such as `miskeyed`) — are repros:
//! replaying them must still produce a deterministic oracle violation,
//! proving the checker's detection power has not regressed.

use guesstimate_core::CommuteMatrix;
use guesstimate_mc::{
    explore, minimize, replay, Built, ExploreConfig, Preset, Schedule, Step, TamperSpec, Violation,
};
use guesstimate_net::PendingMsg;
use guesstimate_runtime::{Flush, Msg};

fn schedule_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/schedules");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/schedules exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no schedules checked in under {dir:?}");
    files
}

#[test]
fn checked_in_schedules_replay_as_recorded() {
    let matrix = CommuteMatrix::new();
    for path in schedule_files() {
        let text = std::fs::read_to_string(&path).expect("schedule file readable");
        let sched = Schedule::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let report = replay(&sched, &matrix).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let negative_preset = guesstimate_mc::PRESETS
            .iter()
            .all(|p| p.name != sched.preset);
        if sched.tamper.is_some() || negative_preset {
            assert!(
                report.violation.is_some(),
                "{path:?}: repro schedule no longer reproduces a violation"
            );
        } else {
            assert!(
                report.violation.is_none(),
                "{path:?}: clean schedule now violates: {:?}",
                report.violation
            );
        }
        // Replay must be deterministic: a second run reaches the same verdict.
        let again = replay(&sched, &matrix).unwrap();
        assert_eq!(report.violation, again.violation, "{path:?}");
    }
}

/// End-to-end seeded-mutation check: corrupt the first batch machine 1
/// receives by swapping the operation ids of the conflicting sudoku pair
/// (a deliberately reordered commit), and require the checker to detect
/// it, shrink it, and reproduce it deterministically from the shrunken
/// schedule. The pair is the master's: under serial turns it arrives in the
/// master's `Ops`, under the parallel flush inside `BeginApply` (machine 2's
/// one-operation batch has nothing to swap), so both carriers face the
/// mutation.
#[test]
fn seeded_commit_reorder_is_detected_and_shrunk() {
    for name in ["sudoku", "sudoku-parallel"] {
        // The built-in preset must be used as-is: replay resolves the
        // schedule's preset *name*, so a locally shrunk variant would not
        // round-trip through the file format.
        let preset = *Preset::by_name(name).expect("built-in preset");
        let tamper = Some(TamperSpec {
            victim: 1,
            nth: 1,
            swap: (0, 1),
        });
        let matrix = CommuteMatrix::new();
        let out = explore(&preset, &matrix, tamper, &ExploreConfig::default());
        let (violation, steps) = out
            .violation
            .unwrap_or_else(|| panic!("{name}: a reordered commit must trip the oracles"));
        let raw = Schedule {
            preset: preset.name.to_owned(),
            tamper,
            steps,
        };
        let min = minimize(&raw, &matrix);
        assert!(
            min.steps.len() <= raw.steps.len(),
            "{name}: minimization must never grow the schedule"
        );
        // The minimized schedule round-trips through its file format and
        // still fails, twice in a row.
        let reparsed = Schedule::from_json(&min.to_json()).expect("well-formed file");
        let first = replay(&reparsed, &matrix).expect("known preset");
        let second = replay(&reparsed, &matrix).expect("known preset");
        assert!(
            first.violation.is_some(),
            "{name}: minimized repro lost the violation (original: {violation})"
        );
        assert_eq!(
            first.violation, second.violation,
            "{name}: repro must be deterministic"
        );
    }
}

/// Three-layer soundness demo, model-checker layer (the other two are the
/// analysis witness sanitizer and the runtime's paranoid apply-site
/// assert): the hidden `sneaky` preset injects a `mirror` operation whose
/// declared footprint omits its read of `src`. The witness-containment
/// oracle must report it, ddmin must shrink the repro, and the shrunken
/// schedule must replay deterministically.
#[test]
fn under_declared_read_is_caught_shrunk_and_replayable() {
    let preset = *Preset::by_name("sneaky").expect("hidden negative preset");
    assert!(
        guesstimate_mc::PRESETS.iter().all(|p| p.name != "sneaky"),
        "the negative preset must stay out of the positive suites"
    );
    let matrix = CommuteMatrix::new();
    let out = explore(&preset, &matrix, None, &ExploreConfig::default());
    let (violation, steps) = out
        .violation
        .expect("an undeclared read must trip the witness oracle");
    assert!(
        matches!(violation, Violation::WitnessEscape { .. }),
        "wrong oracle fired: {violation}"
    );
    assert!(
        violation.to_string().contains("src"),
        "the report names the leaked path: {violation}"
    );
    let raw = Schedule {
        preset: preset.name.to_owned(),
        tamper: None,
        steps,
    };
    let min = minimize(&raw, &matrix);
    assert!(min.steps.len() <= raw.steps.len());
    let reparsed = Schedule::from_json(&min.to_json()).expect("well-formed file");
    let first = replay(&reparsed, &matrix).expect("known preset");
    let second = replay(&reparsed, &matrix).expect("known preset");
    assert!(
        matches!(first.violation, Some(Violation::WitnessEscape { .. })),
        "minimized repro lost the violation: {:?}",
        first.violation
    );
    assert_eq!(
        first.violation, second.violation,
        "repro must be deterministic"
    );
}

/// Three-layer soundness demo for shard plans, model-checker layer (the
/// other two are the analysis sanitizer and the witness-backed escape
/// check in `analyze --shard-plan`): the hidden `miskeyed` preset installs
/// a shard plan whose `post` route keys by the *author* argument instead
/// of the topic, so the first committed post's `topics/news` write lands
/// outside its routed `KeyedBoard:0/ann` shard. The runtime containment
/// check records the escape, the `ShardEscape` oracle must report it,
/// ddmin must shrink the repro, and the shrunken schedule must replay
/// deterministically.
#[test]
fn mis_keyed_shard_plan_is_caught_shrunk_and_replayable() {
    let preset = *Preset::by_name("miskeyed").expect("hidden negative preset");
    assert!(
        guesstimate_mc::PRESETS.iter().all(|p| p.name != "miskeyed"),
        "the negative preset must stay out of the positive suites"
    );
    let matrix = CommuteMatrix::new();
    let out = explore(&preset, &matrix, None, &ExploreConfig::default());
    let (violation, steps) = out
        .violation
        .expect("a mis-keyed shard plan must trip the shard-escape oracle");
    assert!(
        matches!(violation, Violation::ShardEscape { .. }),
        "wrong oracle fired: {violation}"
    );
    let report = violation.to_string();
    assert!(
        report.contains("topics/") && report.contains("KeyedBoard:0/"),
        "the report names the escaping path and the routed shard: {violation}"
    );
    let raw = Schedule {
        preset: preset.name.to_owned(),
        tamper: None,
        steps,
    };
    let min = minimize(&raw, &matrix);
    assert!(min.steps.len() <= raw.steps.len());
    let reparsed = Schedule::from_json(&min.to_json()).expect("well-formed file");
    let first = replay(&reparsed, &matrix).expect("known preset");
    let second = replay(&reparsed, &matrix).expect("known preset");
    assert!(
        matches!(first.violation, Some(Violation::ShardEscape { .. })),
        "minimized repro lost the violation: {:?}",
        first.violation
    );
    assert_eq!(
        first.violation, second.violation,
        "repro must be deterministic"
    );
}

/// Regenerates `tests/schedules/miskeyed-shard-escape.json`: the minimized
/// shard-escape repro for the hidden `miskeyed` preset, checked in so the
/// replay suite proves the `ShardEscape` oracle's detection power has not
/// regressed. Run with `--ignored --nocapture` and paste the output into
/// the schedule file.
#[test]
#[ignore = "generator for the checked-in shard-escape schedule"]
fn generate_miskeyed_shard_escape_schedule() {
    let preset = *Preset::by_name("miskeyed").expect("hidden negative preset");
    let matrix = CommuteMatrix::new();
    let out = explore(&preset, &matrix, None, &ExploreConfig::default());
    let (violation, steps) = out.violation.expect("mis-keyed plan must violate");
    assert!(matches!(violation, Violation::ShardEscape { .. }));
    let raw = Schedule {
        preset: preset.name.to_owned(),
        tamper: None,
        steps,
    };
    let min = minimize(&raw, &matrix);
    let report = replay(&min, &matrix).expect("known preset");
    assert!(
        matches!(report.violation, Some(Violation::ShardEscape { .. })),
        "{:?}",
        report.violation
    );
    println!("{}", min.to_json());
}

/// Regenerates `tests/schedules/message-board-async-gap.json`: machine 1's
/// second async `like` (aseq 1) is delivered to machine 0 *before* its
/// first (aseq 0), forcing the per-sender reorder buffer to hold the gap
/// and release FIFO — then the run drains deterministically to a clean
/// quiescent state. Run with `--ignored --nocapture` and paste the output
/// into the schedule file.
#[test]
#[ignore = "generator for the checked-in async-gap schedule"]
fn generate_message_board_async_gap_schedule() {
    use guesstimate_core::MachineId;
    use guesstimate_runtime::Msg;

    let preset = *Preset::by_name("message_board").expect("built-in preset");
    let matrix = CommuteMatrix::new();
    let mut built = preset.build_machines(&matrix, None);
    let mut steps = Vec::new();

    let mut gap: Vec<(u64, u64)> = built
        .net
        .pending_msgs()
        .iter()
        .filter_map(|&s| {
            let p = built.net.pending_msg(s)?;
            match &p.msg {
                Msg::AsyncOp { aseq, .. }
                    if p.from == MachineId::new(1) && p.to == MachineId::new(0) =>
                {
                    Some((*aseq, s))
                }
                _ => None,
            }
        })
        .collect();
    gap.sort_unstable();
    gap.reverse(); // highest aseq first: a same-sender gap at machine 0
    assert_eq!(gap.len(), 2, "machine 1 broadcast two likes to machine 0");
    for &(_, seq) in &gap {
        assert!(built.net.deliver(seq));
        steps.push(Step::Deliver(seq));
    }

    let rounds_target = built.base_rounds + preset.rounds;
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 100_000, "drain failed to converge");
        if let Some(&seq) = built.net.pending_msgs().first() {
            assert!(built.net.deliver(seq));
            steps.push(Step::Deliver(seq));
            continue;
        }
        let master = built.net.actor(MachineId::new(0)).expect("master");
        if master.stats().syncs_seen >= rounds_target {
            break;
        }
        assert!(built.net.fire_next_timer(), "drain stalled");
        steps.push(Step::Timer);
    }

    let sched = Schedule {
        preset: preset.name.to_owned(),
        tamper: None,
        steps,
    };
    let report = replay(&sched, &matrix).expect("known preset");
    assert!(report.violation.is_none(), "{:?}", report.violation);
    println!("{}", sched.to_json());
}

/// Regenerates `tests/schedules/cross-group-coordinated-round.json`: the
/// multi-group cluster's coordinated cross round under an adversarial
/// delivery order — every post-prelude wave is delivered in *reverse*
/// seq order, so the `CrossSubmit`, the per-group markers and the local
/// round traffic interleave maximally — then drained to quiescence.
/// Replaying it must stay clean through the per-group prefix, committed
/// digest and cross-round oracles. Run with `--ignored --nocapture` and
/// paste the output into the schedule file.
#[test]
#[ignore = "generator for the checked-in cross-group schedule"]
fn generate_cross_group_coordinated_round_schedule() {
    let matrix = CommuteMatrix::new();
    let preset = Preset::by_name(guesstimate_mc::CROSS_GROUP).expect("in the table");
    let mut built = preset.build(&matrix, None).expect("no tamper to refuse");
    let mut steps = Vec::new();
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 100_000, "drain failed to converge");
        assert_eq!(built.check_step(), None);
        let next = match built.pending_msgs().last() {
            Some(&seq) => Step::Deliver(seq),
            None if built.window_done() => break,
            None => Step::Timer,
        };
        assert!(built.exec(next), "drain stalled at {next}");
        steps.push(next);
    }
    assert_eq!(built.check_terminal(), None);

    let sched = Schedule {
        preset: preset.name.to_owned(),
        tamper: None,
        steps,
    };
    let report = replay(&sched, &matrix).expect("known preset");
    assert!(report.violation.is_none(), "{:?}", report.violation);
    println!("{}", sched.to_json());
}

/// The loss cases only the parallel flush has, driven under every oracle
/// and pinned as `tests/schedules/event-planner-parallel-flush-lost.json`.
/// In the first explored round machine 1's batch to the master is dropped
/// while its `FlushDone` arrives, so the master's own `BeginApply` counts
/// must send it asking (`OpsRequest`). In the second, machine 1's
/// `FlushDone` — sent to the master alone, so nobody else can vouch for
/// the flush — is dropped, and the master's stage-1 nudge must make
/// machine 1 announce it again. Everything else is delivered lowest seq
/// first. If the protocol's wire changes, regenerate the file from the
/// schedule this test prints.
#[test]
fn parallel_flush_losses_recover_as_the_checked_in_schedule_records() {
    use guesstimate_core::MachineId;
    use guesstimate_mc::Cluster;
    use guesstimate_runtime::Msg;

    let preset = *Preset::by_name("event_planner-parallel").expect("built-in preset");
    assert!(preset.flush == Flush::Parallel && preset.drop_budget >= 2);
    let matrix = CommuteMatrix::new();
    let mut built = preset.build_machines(&matrix, None);
    let (master, member) = (MachineId::new(0), MachineId::new(1));
    let rounds_done = |built: &guesstimate_mc::Built| {
        let stats = built.net.actor(master).expect("master").stats();
        stats.sync_samples.len()
    };
    let first_round = rounds_done(&built);

    let mut steps = Vec::new();
    let (mut lost_flush_done, mut lost_batch) = (false, false);
    while !(built.window_done() && built.pending_msgs().is_empty()) {
        assert!(steps.len() < 10_000, "drain failed to converge");
        let next = match built.pending_msgs().first() {
            None => Step::Timer,
            Some(&seq) => {
                let p = built.net.pending_msg(seq).expect("pending");
                let from_member = p.from == member && p.to == master;
                let round = rounds_done(&built) - first_round;
                match p.msg {
                    Msg::Ops { .. } if from_member && round == 0 && !lost_batch => {
                        lost_batch = true;
                        Step::Drop(seq)
                    }
                    Msg::FlushDone { .. } if from_member && round == 1 && !lost_flush_done => {
                        lost_flush_done = true;
                        Step::Drop(seq)
                    }
                    _ => Step::Deliver(seq),
                }
            }
        };
        assert!(built.exec(next), "stalled at {next}");
        assert_eq!(built.check_step(), None, "after {next}");
        steps.push(next);
    }
    assert_eq!(built.check_terminal(), None);
    assert!(lost_flush_done && lost_batch, "both losses were injected");

    let samples = &built
        .net
        .actor(master)
        .expect("master")
        .stats()
        .sync_samples;
    let explored = &samples[first_round..];
    assert_eq!(
        explored
            .iter()
            .map(|s| (s.resends, s.removals, s.ops_committed))
            .collect::<Vec<_>>(),
        vec![(0, 0, 3), (1, 0, 0), (0, 0, 0)],
        "all 3 ops commit in round 1 with no nudge; round 2 needs one; nobody is removed"
    );

    let sched = Schedule {
        preset: preset.name.to_owned(),
        tamper: None,
        steps,
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/schedules/event-planner-parallel-flush-lost.json");
    let recorded = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(
        recorded,
        sched.to_json(),
        "{path:?} is stale; it should read:\n{}",
        sched.to_json()
    );
}

/// The adversary of the join-liveness regressions, on the `auction`
/// late-join preset: the joiner is admitted to the net at once, every
/// message is delivered lowest seq first — except a `JoinReady`, which
/// waits until the master has taken a tick, so that every tick is chosen
/// ahead of it (the explorer fires timers only in quiet phases and never
/// makes this choice). A master that starts a round at every tick has then
/// always started one when the answer arrives, refuses it, and under this
/// fair schedule never admits the joiner; one that holds the tick for the
/// handshake admits it with the first. With `lose_ready`, every `JoinReady`
/// is dropped for as long as that first hold lasts.
///
/// Returns the cluster once the joiner is in the cohort and the explored
/// window has drained, the schedule that got it there, and how many steps
/// the admission took. Panics if it takes more than `MAX_STEPS`.
fn drive_late_join(lose_ready: bool) -> (guesstimate_mc::Built, Schedule, usize) {
    use guesstimate_core::MachineId;
    use guesstimate_mc::Cluster;
    use guesstimate_runtime::Msg;
    const MAX_STEPS: usize = 200;

    let preset = *Preset::by_name("auction").expect("built-in preset");
    assert!(preset.late_join);
    let matrix = CommuteMatrix::new();
    let mut built = preset.build_machines(&matrix, None);
    let (master, joiner) = (MachineId::new(0), MachineId::new(preset.eager));
    // What a tick leaves behind on the master: a round, or a held tick.
    let ticks = |built: &guesstimate_mc::Built| {
        let m = built.net.actor(master).expect("master");
        (m.state_summary().active_round, m.stats().join_holds)
    };
    let holding = |built: &guesstimate_mc::Built| {
        let stats = built.net.actor(master).expect("master").stats();
        stats.join_holds == 1 && stats.join_hold_time == guesstimate_net::SimTime::ZERO
    };
    let in_cohort = |built: &guesstimate_mc::Built| {
        let m = built.net.actor(joiner);
        m.is_some_and(|m| m.in_cohort())
    };

    // The lowest-seq message in flight that is (`ready`) or is not a `JoinReady`.
    let first_msg = |built: &guesstimate_mc::Built, ready: bool| {
        let is_ready = |seq: &u64| {
            let p = built.net.pending_msg(*seq).expect("pending");
            matches!(p.msg, Msg::JoinReady { .. })
        };
        let mut pending = built.pending_msgs().into_iter();
        pending.find(|s| is_ready(s) == ready)
    };

    let mut steps = vec![Step::Admit(built.pending_joins()[0])];
    assert!(built.exec(steps[0]));
    let mut ticked = false;
    let mut admitted_after = None;
    while !(built.window_done() && built.pending_msgs().is_empty()) {
        assert!(steps.len() < MAX_STEPS, "the joiner was never admitted");
        if admitted_after.is_none() && in_cohort(&built) {
            admitted_after = Some(steps.len());
        }
        let (ready, other) = (first_msg(&built, true), first_msg(&built, false));
        let next = match (ready, other) {
            // The tick it waited for has been taken: now it arrives, ahead
            // of whatever that tick sent.
            (Some(seq), _) if ticked && lose_ready && holding(&built) => Step::Drop(seq),
            (Some(seq), _) if ticked => Step::Deliver(seq),
            (_, Some(seq)) => Step::Deliver(seq),
            (Some(seq), None) if in_cohort(&built) => Step::Deliver(seq),
            _ => Step::Timer,
        };
        let before = ticks(&built);
        assert!(built.exec(next), "stalled at {next}");
        assert_eq!(built.check_step(), None, "after {next}");
        steps.push(next);
        ticked = match next {
            Step::Timer => ready.is_some() && before.0.is_none() && ticks(&built) != before,
            _ => ticked && first_msg(&built, true).is_some(),
        };
    }
    assert_eq!(built.check_terminal(), None);
    let sched = Schedule {
        preset: preset.name.to_owned(),
        tamper: None,
        steps,
    };
    (
        built,
        sched,
        admitted_after.expect("in the cohort by the end"),
    )
}

/// Compares a driven schedule with its checked-in recording.
fn assert_recorded(name: &str, sched: &Schedule) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/schedules")
        .join(name);
    let recorded = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(
        recorded,
        sched.to_json(),
        "{path:?} is stale; it should read:\n{}",
        sched.to_json()
    );
}

/// Liveness of the join with every tick chosen ahead of the `JoinReady`
/// (`tests/schedules/auction-join-tick-first.json`): the first tick is
/// held, the answer admits the joiner, and the held round is its first.
#[test]
fn a_joiner_is_admitted_though_every_tick_beats_its_join_ready() {
    use guesstimate_core::MachineId;
    let (built, sched, admitted_after) = drive_late_join(false);
    assert!(admitted_after <= 12, "{admitted_after} steps to admission");
    let stats = built.net.actor(MachineId::new(0)).expect("master").stats();
    assert_eq!(stats.join_holds, 1);
    let explored = &stats.sync_samples[built.base_rounds as usize..];
    let cohorts: Vec<usize> = explored.iter().map(|s| s.participants).collect();
    assert_eq!(cohorts, vec![3, 3], "no round ran without the joiner");
    assert_recorded("auction-join-tick-first.json", &sched);
}

/// The same adversary against a joiner whose answers are lost
/// (`tests/schedules/auction-join-ready-lost.json`): the held round starts
/// without it after `stall_timeout` — the cluster's whole cost — the silent
/// handshake is forgotten, and the joiner gets in on its own retry.
#[test]
fn a_lost_join_ready_costs_one_stall_timeout_and_the_retry_gets_in() {
    use guesstimate_core::MachineId;
    use guesstimate_net::SimTime;
    let (built, sched, _) = drive_late_join(true);
    assert!(sched.steps.iter().any(|s| matches!(s, Step::Drop(_))));
    let stats = built.net.actor(MachineId::new(0)).expect("master").stats();
    // The scenarios run a 500 ms stall timeout; the second hold is the
    // retry's, released by its answer in no (virtual) time.
    assert_eq!(stats.join_holds, 2);
    assert_eq!(stats.join_hold_time, SimTime::from_millis(500));
    let explored = &stats.sync_samples[built.base_rounds as usize..];
    let cohorts: Vec<usize> = explored.iter().map(|s| s.participants).collect();
    assert_eq!(cohorts, vec![2, 3]);
    assert_recorded("auction-join-ready-lost.json", &sched);
}

/// What a [`drive_overlap`] rule decides about one in-flight message.
enum Fate {
    Deliver,
    Drop,
    /// Not yet: something else moves first.
    Hold,
}

/// Drives one of the `-overlap` presets by `rule`: the master's tick fires
/// the moment it begins a round under another (the choice the explorer
/// makes first too); otherwise the lowest-seq message in flight that the
/// rule does not hold back is delivered or dropped as it says; otherwise a
/// timer fires -- until the explored window is over, nothing is in flight
/// and `settled`. The step oracles run after every step and the terminal
/// ones at the end. Returns the cluster and the schedule that drove it.
fn drive_overlap(
    preset: &str,
    mut rule: impl FnMut(&Built, &PendingMsg<Msg>) -> Fate,
    settled: impl Fn(&Built) -> bool,
) -> (Built, Schedule) {
    use guesstimate_mc::Cluster;
    let preset = *Preset::by_name(preset).expect("built-in preset");
    assert!(preset.tick_budget() > 0, "{}", preset.name);
    let mut built = preset.build_machines(&CommuteMatrix::new(), None);
    let mut steps = Vec::new();
    while !(built.window_done() && built.pending_msgs().is_empty() && settled(&built)) {
        assert!(steps.len() < 400, "the drive failed to converge");
        // The rule is asked only when its answer is the step taken: what
        // it notes down about a message it lets through has then happened.
        let mut decide = |seq| {
            let msg = built.net.pending_msg(seq).expect("pending");
            match rule(&built, msg) {
                Fate::Deliver => Some(Step::Deliver(seq)),
                Fate::Drop => Some(Step::Drop(seq)),
                Fate::Hold => None,
            }
        };
        let next = if built.overlap_tick_ready() {
            None
        } else {
            built.pending_msgs().into_iter().find_map(&mut decide)
        };
        let next = next.unwrap_or(Step::Timer);
        assert!(built.exec(next), "stalled at {next}");
        assert_eq!(built.check_step(), None, "after {next}");
        steps.push(next);
    }
    assert_eq!(built.check_terminal(), None);
    let sched = Schedule {
        preset: preset.name.to_owned(),
        tamper: None,
        steps,
    };
    (built, sched)
}

/// `(resends, removals, ops committed)` of the rounds a drive explored.
fn explored_rounds(built: &Built) -> Vec<(u64, u64, u64)> {
    let master = built.net.actor(guesstimate_core::MachineId::new(0));
    let samples = &master.expect("master").stats().sync_samples;
    let explored = &samples[built.base_rounds as usize..];
    let row = |s: &guesstimate_runtime::SyncSample| (s.resends, s.removals, s.ops_committed);
    explored.iter().map(row).collect()
}

/// `tests/schedules/sudoku-overlap-begin-sync-first.json`: round r + 1
/// begins while round r is in stage 2, and its `BeginSync` reaches machine 1
/// *ahead of* round r's `BeginApply`. The machine must hold it back --
/// flushing r + 1 before applying r would put what it issued since its
/// first flush through two replays -- and take it the moment it has
/// applied r: nobody restarts, and both rounds commit everywhere. (Before
/// two rounds could be in flight, a `BeginSync` finding the round before it
/// unapplied meant a missed round, and the machine restarted.)
#[test]
fn a_begin_sync_that_overtakes_begin_apply_is_buffered_not_a_restart() {
    use guesstimate_core::MachineId;
    let victim = MachineId::new(1);
    let mut overtaken = false;
    let mut found_waiting = false;
    let rule = |built: &Built, p: &PendingMsg<Msg>| {
        let r = built.base_rounds + 1;
        match &p.msg {
            Msg::BeginApply { round, .. } if p.to == victim && *round == r && !overtaken => {
                return Fate::Hold;
            }
            Msg::BeginApply { round, .. } if p.to == victim && *round == r => {
                let m = built.net.actor(victim).expect("victim");
                found_waiting = m.buffered_rounds() == 1 && m.stats().rounds_applied == r - 1;
            }
            Msg::BeginSync { round, .. } if p.to == victim && *round == r + 1 => overtaken = true,
            _ => {}
        }
        Fate::Deliver
    };
    let (built, sched) = drive_overlap("sudoku-overlap", rule, |_| true);
    assert!(
        found_waiting,
        "round r + 1 waited, buffered, for round r's apply"
    );
    // Five first-wave operations in round r, three second-wave in r + 1.
    assert_eq!(explored_rounds(&built), vec![(0, 0, 5), (0, 0, 3)]);
    for i in 0..3 {
        let m = built.net.actor(MachineId::new(i)).expect("machine");
        assert_eq!((m.stats().restarts, m.pending_len()), (0, 0), "machine {i}");
    }
    let master = built.net.actor(MachineId::new(0)).expect("master").stats();
    assert_eq!(master.rounds_overlapped, 1);
    assert_recorded("sudoku-overlap-begin-sync-first.json", &sched);
}

/// `tests/schedules/message-board-overlap-closing-resends.json`: machine 2
/// has applied round r and moved on to r + 1 when (i) machine 1, whose copy
/// of machine 2's batch was lost, asks for it (`OpsRequest{r}`), and (ii)
/// the master, which never heard machine 2's lost `Ack{r}`, resends
/// `BeginApply{r}`. Both are answered from the closing slot; r completes
/// with one resend and nobody removed, and r + 1 -- held in stage 1 all the
/// while -- follows.
#[test]
fn a_machine_that_moved_on_still_answers_for_the_round_it_is_closing() {
    use guesstimate_core::MachineId;
    let (master, slow, fast) = (MachineId::new(0), MachineId::new(1), MachineId::new(2));
    let (mut lost_batch, mut lost_ack) = (false, false);
    let (mut asked_closing, mut nudged_closing) = (false, false);
    let rule = |built: &Built, p: &PendingMsg<Msg>| {
        let r = built.base_rounds + 1;
        let moved_on = built.net.actor(fast).expect("fast").active_round() == Some(r + 1);
        match &p.msg {
            Msg::Ops { round, machine, .. }
                if *round == r && *machine == fast && p.to == slow && !lost_batch =>
            {
                lost_batch = true;
                return Fate::Drop;
            }
            Msg::Ack { round, machine } if *round == r && *machine == fast && !lost_ack => {
                lost_ack = true;
                return Fate::Drop;
            }
            Msg::BeginApply { round, .. } if *round == r && p.to == slow && !moved_on => {
                return Fate::Hold;
            }
            Msg::OpsRequest { round } if *round == r && p.to == fast => asked_closing |= moved_on,
            Msg::BeginApply { round, .. } if *round == r && p.to == fast && p.from == master => {
                nudged_closing |= moved_on;
            }
            _ => {}
        }
        Fate::Deliver
    };
    let (built, sched) = drive_overlap("message_board-overlap", rule, |_| true);
    assert!(lost_batch && lost_ack, "both losses were injected");
    assert!(
        asked_closing,
        "machine 1 asked a machine already in round r + 1"
    );
    assert!(
        nudged_closing,
        "the master nudged a machine already in round r + 1"
    );
    // Two posts in round r, the third in r + 1; the likes commit by themselves.
    assert_eq!(explored_rounds(&built)[..2], [(1, 0, 2), (0, 0, 1)]);
    for i in 0..3 {
        let m = built.net.actor(MachineId::new(i)).expect("machine");
        assert_eq!((m.stats().restarts, m.pending_len()), (0, 0), "machine {i}");
    }
    assert_recorded("message-board-overlap-closing-resends.json", &sched);
}

/// `tests/schedules/event-planner-overlap-removed-from-both.json`: machine
/// 1's `Ack{r}` is lost, and so is the one it sends again when nudged, so
/// the master removes it from round r in stage 2 -- while it is also in the
/// order of round r + 1, begun under r and waiting in stage 1 with the
/// machine's flush in. It leaves both rounds: r completes without its ack,
/// r + 1 closes without its batch (those operations are lost to the
/// restart, as a removed machine's always are), and it rejoins.
#[test]
fn a_machine_removed_in_stage_2_leaves_the_round_begun_under_it_too() {
    use guesstimate_core::MachineId;
    let member = MachineId::new(1);
    let mut lost_acks = 0;
    let rule = |built: &Built, p: &PendingMsg<Msg>| match &p.msg {
        Msg::Ack { round, .. } if *round == built.base_rounds + 1 => {
            lost_acks += 1;
            Fate::Drop
        }
        _ => Fate::Deliver,
    };
    let back = |built: &Built| built.net.actor(member).is_some_and(|m| m.in_cohort());
    let (built, sched) = drive_overlap("event_planner-overlap", rule, back);
    assert_eq!(lost_acks, 2, "the Ack, and the one the nudge asked for");
    let rounds = explored_rounds(&built);
    // Round r commits both machines' first wave; r + 1 only the master's
    // second-wave join -- the member's went down with it.
    assert_eq!(rounds[..2], [(1, 1, 3), (0, 0, 1)]);
    let m = built.net.actor(member).expect("member");
    assert_eq!((m.stats().restarts, m.stats().ops_lost_to_restart), (1, 1));
    assert!(m.in_cohort(), "it is back in the cohort");
    assert_recorded("event-planner-overlap-removed-from-both.json", &sched);
}

/// `tests/schedules/event-planner-overlap-begin-apply-lost.json`: under the
/// parallel flush the master's batch travels inside `BeginApply`, and the
/// `BeginApply{r}` for machine 1 is lost. Nothing else can bring machine 1
/// the master's two operations -- nobody may ask the master for them -- so
/// the stage-2 nudge must resend the signal *with the batch*: machine 1
/// applies, r completes with one resend and nobody removed, the master's
/// operations are in every `C` exactly once, and r + 1, begun under r and
/// held in stage 1 all the while, follows.
#[test]
fn a_lost_begin_apply_is_resent_with_the_masters_batch() {
    use guesstimate_core::MachineId;
    let (master, member) = (MachineId::new(0), MachineId::new(1));
    let mut carried = Vec::new();
    let mut asked_master = false;
    let rule = |built: &Built, p: &PendingMsg<Msg>| {
        match &p.msg {
            Msg::BeginApply { round, ops, .. }
                if *round == built.base_rounds + 1 && p.to == member =>
            {
                carried.push(ops.len());
                if carried.len() == 1 {
                    return Fate::Drop;
                }
            }
            Msg::OpsRequest { .. } if p.to == master => asked_master = true,
            _ => {}
        }
        Fate::Deliver
    };
    let (built, sched) = drive_overlap("event_planner-overlap", rule, |_| true);
    assert_eq!(carried, vec![2, 2], "sent and resent, the batch both times");
    assert!(!asked_master, "the master is never asked for its batch");
    // The master's two first-wave operations and the member's one in round
    // r; both second-wave joins in r + 1.
    assert_eq!(explored_rounds(&built)[..2], [(1, 0, 3), (0, 0, 2)]);
    let history = |i| {
        let m = built.net.actor(MachineId::new(i)).expect("machine");
        assert_eq!((m.stats().restarts, m.pending_len()), (0, 0), "machine {i}");
        m.completed_ops().to_vec()
    };
    let c = history(0);
    assert_eq!(c, history(1));
    let once: std::collections::BTreeSet<_> = c.iter().collect();
    assert_eq!(once.len(), c.len(), "no operation committed twice");
    assert_recorded("event-planner-overlap-begin-apply-lost.json", &sched);
}

/// `tests/schedules/message-board-overlap-window-rides-begin-apply.json`:
/// the master's second-wave `like` commits at issue, right after the cut of
/// round r took its only serialized operation, and its `AsyncOp` is lost to
/// machine 1. Round r + 1 finds the master with nothing to serialize -- as
/// an `Ops` message, a flush like that would vouch for nothing -- but its
/// window rides the `BeginApply` no machine applies r + 1 without: machine 1
/// is repaired by it, and when r + 1 has completed the entry is fenced and
/// leaves the window, so the `BeginApply` of the round after carries none.
#[test]
fn the_masters_window_rides_begin_apply_and_is_trimmed_when_the_round_completes() {
    use guesstimate_core::MachineId;
    let (master, victim) = (MachineId::new(0), MachineId::new(1));
    let has = |built: &Built, op| {
        let m = built.net.actor(victim).expect("victim");
        m.completed_ops().contains(&op)
    };
    let mut lost = None;
    let (mut repaired, mut trimmed) = (false, false);
    let rule = |built: &Built, p: &PendingMsg<Msg>| {
        let r = built.base_rounds + 1;
        match &p.msg {
            // The master's first like (aseq 0) was issued with the workload.
            Msg::AsyncOp { aseq: 1, env } if p.from == master && p.to == victim => {
                lost = Some(env.id);
                return Fate::Drop;
            }
            Msg::BeginApply {
                round, ops, asyncs, ..
            } if p.to == victim && *round == r + 1 => {
                let lost = lost.expect("lost before the round it is repaired in");
                let riding: Vec<_> = asyncs.iter().map(|(_, env)| env.id).collect();
                repaired = ops.is_empty() && riding == [lost] && !has(built, lost);
            }
            Msg::SyncComplete { round } if p.to == victim && *round == r + 1 => {
                repaired &= has(built, lost.expect("lost"));
            }
            Msg::BeginApply { round, asyncs, .. } if *round == r + 2 => {
                trimmed = asyncs.is_empty();
            }
            _ => {}
        }
        Fate::Deliver
    };
    let third_round = |built: &Built| explored_rounds(built).len() >= 3;
    let (built, sched) = drive_overlap("message_board-overlap", rule, third_round);
    assert!(
        repaired,
        "the window inside BeginApply{{r + 1}} brought the like"
    );
    assert!(trimmed, "fenced by r + 1, it rides no later round");
    // Two posts in round r, the third in r + 1; nothing left for the next.
    assert_eq!(explored_rounds(&built), [(0, 0, 2), (0, 0, 1), (0, 0, 0)]);
    for i in 0..3 {
        let m = built.net.actor(MachineId::new(i)).expect("machine");
        assert_eq!((m.stats().restarts, m.pending_len()), (0, 0), "machine {i}");
    }
    assert_recorded(
        "message-board-overlap-window-rides-begin-apply.json",
        &sched,
    );
}

//! Stateless depth-first exploration with sleep-set partial-order
//! reduction.
//!
//! The explorer enumerates schedules of a [`Preset`]'s post-prelude
//! cluster through the [`Cluster`] interface — one harness for every
//! node type. Each tree node is a scheduler state; its outgoing edges are
//! the **enabled choices**: deliver any in-flight message, drop one
//! (while the preset's loss budget lasts), and — in quiet phases — admit
//! the staged joiner or fire the earliest timer. One timer is also a
//! choice while messages are in flight: a master's sync tick, whenever
//! firing it begins the next round under the one still being applied
//! (while the preset's [`Preset::tick_budget`] lasts) — the only way two
//! rounds come to be in flight. Machines are not
//! clonable (completions are closures), so backtracking is *stateless*:
//! the cluster is rebuilt from the preset and the current path prefix is
//! replayed. The prelude and every step are deterministic, so replay
//! reproduces the node exactly.
//!
//! ## Sleep sets
//!
//! The reduction is the classic sleep-set algorithm (Godefroid): when a
//! node's child via choice `c` is entered, the child's sleep set is the
//! parent's sleep set plus the parent's already-explored choices,
//! restricted to choices **independent** of `c`. A choice found in its
//! node's sleep set is skipped (counted as pruned): every behavior
//! reachable through it has already been covered through a sibling,
//! because executing independent choices in either order reaches the
//! same state.
//!
//! ## The independence relation
//!
//! The harness judges every pair except two deliveries, which it leaves
//! to [`Cluster::deliveries_independent`]. For single-group clusters that
//! judgement is grounded in the validated effect analysis
//! (`guesstimate_runtime::commute`, fed by `guesstimate-analysis`):
//!
//! * `Deliver(x)` / `Deliver(y)` to **different machines** are
//!   independent: delivery only mutates the target. (The multi-group
//!   scenario stops here: same-node deliveries are dependent.)
//! * `Deliver(x)` / `Deliver(y)` to the **same machine** are independent
//!   iff both are `Msg::Ops` batches of the *same round* from *different
//!   senders* and every cross-pair of envelopes — serialized batches and
//!   piggybacked async windows alike — commutes per `wire_ops_commute`
//!   (object-disjointness → validated [`CommuteMatrix`] →
//!   argument-precise footprints). This is strictly conservative: the
//!   receiver buffers a round's batches by operation id and applies them
//!   in id order, so same-round batches commute at the state level
//!   regardless — the commute gate only ever keeps *more* interleavings
//!   than necessary, never fewer.
//! * `Deliver` of two `Msg::AsyncOp`s to the same machine are
//!   independent iff they come from different senders (same-sender
//!   asyncs share a FIFO arrival slot) and their envelopes commute;
//!   an `AsyncOp` and an `Ops` batch likewise, provided the flusher is
//!   not the async op's own sender and the async envelope commutes with
//!   everything the batch carries.
//! * `Drop(x)` is independent of anything except a choice about the same
//!   message.
//! * `Admit` and `Timer` are dependent on everything (they change
//!   membership/time, which feeds back into all future choices).
//!
//! One caveat the digest-set soundness test (`mc` crate tests) confirms
//! empirically: reordering independent deliveries can renumber messages
//! *created afterwards*, so sleep-set hits are matched on the choice
//! identity at this node, which the deterministic seq assignment makes
//! stable across replays of the same prefix.

use std::collections::BTreeSet;
use std::sync::Arc;

use guesstimate_core::CommuteMatrix;
use guesstimate_net::Tracer;
use guesstimate_runtime::StateSummary;
use guesstimate_telemetry::Telemetry;

use crate::oracle::Violation;
use crate::scenario::{Cluster, Preset};
use crate::schedule::{Schedule, Step, TamperSpec};

/// Exploration limits and switches.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Stop after this many complete schedules.
    pub max_schedules: u64,
    /// Cut any single schedule at this depth (counted as truncated).
    pub max_steps: usize,
    /// Enable the sleep-set partial-order reduction.
    pub reduction: bool,
    /// Record a digest of every terminal state (for soundness tests).
    pub collect_digests: bool,
    /// Exploration counters (schedules, prunes, oracle checks) are
    /// recorded here; the default no-op handle records nothing.
    pub telemetry: Telemetry,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 10_000,
            max_steps: 96,
            reduction: true,
            collect_digests: false,
            telemetry: Telemetry::noop(),
        }
    }
}

/// What an exploration found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Complete schedules executed to a terminal (or cut) state.
    pub schedules: u64,
    /// Choices skipped because they were in their node's sleep set.
    pub pruned: u64,
    /// Schedules cut by `max_steps` before quiescing.
    pub truncated: u64,
    /// Deepest schedule seen.
    pub max_depth: usize,
    /// Total scheduler steps executed (including backtrack replays).
    pub steps_executed: u64,
    /// Digests of terminal states (when `collect_digests`).
    pub terminal_digests: BTreeSet<u64>,
    /// True when the whole (reduced) tree was exhausted within budget.
    pub complete: bool,
    /// The last complete schedule explored — a representative
    /// non-trivial interleaving (DFS visits the deterministic drain
    /// first, so later schedules carry the interesting reorderings).
    pub sample: Option<Vec<Step>>,
    /// The first oracle violation and the schedule that reached it.
    pub violation: Option<(Violation, Vec<Step>)>,
}

struct Frame {
    choices: Vec<Step>,
    idx: usize,
    sleep: Vec<Step>,
    explored: Vec<Step>,
}

fn enabled(built: &dyn Cluster, may_drop: bool) -> Vec<Step> {
    let mut v = Vec::new();
    let msgs = built.pending_msgs();
    if !msgs.is_empty() {
        // The one timer that may fire mid-round: a master's tick, when it
        // begins the next round under the one in flight. It goes first: a
        // depth-first walk under a schedule budget only ever varies the tail
        // of its first path, so that path must be the one with the overlap.
        if built.overlap_tick_ready() {
            v.push(Step::Timer);
        }
        v.extend(msgs.iter().map(|&s| Step::Deliver(s)));
        if may_drop {
            v.extend(msgs.iter().map(|&s| Step::Drop(s)));
        }
        return v;
    }
    // Quiet phase: the round is over (or has not started). Admission and
    // the next timer are the only moves; the joiner's handshake messages
    // then become ordinary delivery choices.
    if built.window_done() {
        return v; // terminal: explored rounds exhausted, nothing in flight
    }
    v.extend(built.pending_joins().iter().map(|&j| Step::Admit(j)));
    if built.has_timers() {
        v.push(Step::Timer);
    }
    v
}

/// The independence relation described in the module docs.
fn independent(built: &dyn Cluster, a: Step, b: Step) -> bool {
    use Step::{Admit, Deliver, Drop, Timer};
    match (a, b) {
        (Admit(_) | Timer, _) | (_, Admit(_) | Timer) => false,
        (Deliver(x) | Drop(x), Deliver(y) | Drop(y)) if x == y => false,
        (Drop(_), Deliver(_) | Drop(_)) | (Deliver(_), Drop(_)) => true,
        (Deliver(x), Deliver(y)) => built.deliveries_independent(x, y),
    }
}

/// Explores the preset's schedule tree depth-first.
///
/// Stops at the first oracle violation (recorded in
/// [`Outcome::violation`] together with the offending schedule), when
/// `max_schedules` is reached, or when the tree is exhausted
/// (`complete = true`).
///
/// # Panics
///
/// Panics if the preset cannot install `tamper` ([`Preset::build`]
/// tells beforehand).
pub fn explore(
    preset: &Preset,
    matrix: &CommuteMatrix,
    tamper: Option<TamperSpec>,
    cfg: &ExploreConfig,
) -> Outcome {
    let build = || {
        preset
            .build(matrix, tamper)
            .unwrap_or_else(|e| panic!("explore: {e}"))
    };
    let mut out = Outcome::default();
    let mut built = build();
    let mut path: Vec<Step> = Vec::new();
    let mut drops_used = 0u32;
    let mut frames = vec![Frame {
        choices: enabled(&*built, drops_used < preset.drop_budget),
        idx: 0,
        sleep: Vec::new(),
        explored: Vec::new(),
    }];
    // Set when the cluster state has moved past the node the top frame
    // describes (after any backtrack): rebuild + replay before executing.
    let mut dirty = false;

    while out.schedules < cfg.max_schedules {
        let Some(frame) = frames.last_mut() else {
            out.complete = true;
            break;
        };
        if frame.idx >= frame.choices.len() {
            frames.pop();
            match path.pop() {
                Some(c) => {
                    if matches!(c, Step::Drop(_)) {
                        drops_used -= 1;
                    }
                    let parent = frames.last_mut().expect("frames outnumber path by one");
                    parent.explored.push(c);
                    parent.idx += 1;
                    dirty = true;
                    continue;
                }
                None => {
                    out.complete = true;
                    break;
                }
            }
        }
        let c = frame.choices[frame.idx];
        if cfg.reduction && frame.sleep.contains(&c) {
            frame.idx += 1;
            out.pruned += 1;
            cfg.telemetry.mc_pruned();
            continue;
        }
        if dirty {
            built = build();
            for &s in &path {
                assert!(built.exec(s), "replaying {s} of a known prefix");
                out.steps_executed += 1;
            }
            dirty = false;
        }
        // The child's sleep set must be computed *before* executing `c`:
        // independence inspects the messages still pending here.
        let frame = frames.last().expect("just checked");
        let child_sleep: Vec<Step> = frame
            .sleep
            .iter()
            .chain(frame.explored.iter())
            .copied()
            .filter(|&x| x != c && independent(&*built, x, c))
            .collect();

        assert!(built.exec(c), "enabled choice {c} must apply");
        out.steps_executed += 1;
        path.push(c);
        if matches!(c, Step::Drop(_)) {
            drops_used += 1;
        }
        out.max_depth = out.max_depth.max(path.len());
        cfg.telemetry.mc_oracle_check();
        if let Some(v) = built.check_step() {
            out.violation = Some((v, path.clone()));
            return out;
        }

        let next = enabled(&*built, drops_used < preset.drop_budget);
        let terminal = next.is_empty();
        let cut = !terminal && path.len() >= cfg.max_steps;
        if terminal || cut {
            out.schedules += 1;
            cfg.telemetry.mc_schedule();
            if cut {
                out.truncated += 1;
            }
            if terminal {
                cfg.telemetry.mc_oracle_check();
                if let Some(v) = built.check_terminal() {
                    out.violation = Some((v, path.clone()));
                    return out;
                }
            }
            if cfg.collect_digests {
                out.terminal_digests.insert(built.state_digest());
            }
            out.sample = Some(path.clone());
            path.pop();
            if matches!(c, Step::Drop(_)) {
                drops_used -= 1;
            }
            let frame = frames.last_mut().expect("frame for the popped step");
            frame.explored.push(c);
            frame.idx += 1;
            dirty = true;
        } else {
            frames.push(Frame {
                choices: next,
                idx: 0,
                sleep: child_sleep,
                explored: Vec::new(),
            });
        }
    }
    out
}

/// The result of replaying a schedule file.
#[derive(Debug)]
pub struct ReplayReport {
    /// Steps that applied cleanly.
    pub applied: usize,
    /// Steps skipped because their seq was no longer pending (expected
    /// after minimization; see `schedule` module docs).
    pub skipped: usize,
    /// The first oracle violation, if the schedule reproduces one.
    pub violation: Option<Violation>,
}

/// Replays a schedule against a freshly built cluster, running the step
/// oracles after every applied choice and the terminal oracles if the
/// run quiesces.
///
/// # Errors
///
/// Returns `Err` when the schedule names an unknown preset, or carries a
/// tamper block its preset cannot install.
pub fn replay(sched: &Schedule, matrix: &CommuteMatrix) -> Result<ReplayReport, String> {
    replay_inner(sched, matrix, None).map(|(report, _)| report)
}

/// [`replay`] with a shared trace sink installed on the scheduler driver
/// and every initial protocol instance *before* any step executes, plus a
/// [`StateSummary`] snapshot of each instance at the end.
///
/// Message-stamp allocation is part of the deterministic driver state,
/// so replaying the same schedule reproduces the exact same stamped
/// causal timeline — which is what makes a flight-recorder postmortem
/// bundle replayable and its happens-before check meaningful.
///
/// # Errors
///
/// As [`replay`].
pub fn replay_traced(
    sched: &Schedule,
    matrix: &CommuteMatrix,
    tracer: Arc<dyn Tracer>,
) -> Result<(ReplayReport, Vec<StateSummary>), String> {
    replay_inner(sched, matrix, Some(tracer)).map(|(report, built)| (report, built.summaries()))
}

fn replay_inner(
    sched: &Schedule,
    matrix: &CommuteMatrix,
    tracer: Option<Arc<dyn Tracer>>,
) -> Result<(ReplayReport, Box<dyn Cluster>), String> {
    let preset =
        Preset::by_name(&sched.preset).ok_or_else(|| format!("unknown preset {}", sched.preset))?;
    let mut built = preset.build(matrix, sched.tamper)?;
    if let Some(t) = tracer {
        built.set_tracer(t);
    }
    let mut report = ReplayReport {
        applied: 0,
        skipped: 0,
        violation: None,
    };
    for &s in &sched.steps {
        if !built.exec(s) {
            report.skipped += 1;
            continue;
        }
        report.applied += 1;
        report.violation = built.check_step();
        if report.violation.is_some() {
            return Ok((report, built));
        }
    }
    if built.pending_msgs().is_empty() && built.window_done() {
        report.violation = built.check_terminal();
    }
    Ok((report, built))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigroup::CROSS_GROUP;
    use crate::scenario::PRESETS;

    fn small_cfg(reduction: bool) -> ExploreConfig {
        ExploreConfig {
            max_schedules: 1_000_000,
            max_steps: 64,
            reduction,
            collect_digests: true,
            ..ExploreConfig::default()
        }
    }

    /// The reduction must not lose behaviors: on a scenario small enough
    /// to exhaust, the terminal-state digest sets with and without
    /// reduction are identical, while the reduced run visits strictly
    /// fewer schedules. The built-in sudoku preset is shrunk to two
    /// machines so the unreduced tree stays exhaustible.
    #[test]
    fn reduction_preserves_terminal_states_on_sudoku() {
        let p = Preset {
            eager: 2,
            ..*Preset::by_name("sudoku").unwrap()
        };
        let matrix = CommuteMatrix::new();
        let full = explore(&p, &matrix, None, &small_cfg(false));
        let reduced = explore(&p, &matrix, None, &small_cfg(true));
        assert!(full.complete, "unreduced exploration must exhaust");
        assert!(reduced.complete, "reduced exploration must exhaust");
        assert!(full.violation.is_none(), "{:?}", full.violation);
        assert!(reduced.violation.is_none(), "{:?}", reduced.violation);
        assert_eq!(full.terminal_digests, reduced.terminal_digests);
        assert!(
            reduced.schedules < full.schedules,
            "reduction explored {} of {} schedules — no pruning happened",
            reduced.schedules,
            full.schedules
        );
        assert!(reduced.pruned > 0);
    }

    /// The same soundness property on the hybrid preset: async `like`
    /// deliveries are where the new AsyncOp independence arms prune, and
    /// the pruned orders must reach the same terminal digests. Shrunk to
    /// two machines and a lossless network so both trees exhaust.
    #[test]
    fn reduction_preserves_terminal_states_on_hybrid_message_board() {
        let p = Preset {
            eager: 2,
            drop_budget: 0,
            ..*Preset::by_name("message_board").unwrap()
        };
        let matrix = CommuteMatrix::new();
        let full = explore(&p, &matrix, None, &small_cfg(false));
        let reduced = explore(&p, &matrix, None, &small_cfg(true));
        assert!(full.complete, "unreduced exploration must exhaust");
        assert!(reduced.complete, "reduced exploration must exhaust");
        assert!(full.violation.is_none(), "{:?}", full.violation);
        assert!(reduced.violation.is_none(), "{:?}", reduced.violation);
        assert_eq!(full.terminal_digests, reduced.terminal_digests);
        assert!(
            reduced.schedules < full.schedules,
            "reduction explored {} of {} schedules — no pruning happened",
            reduced.schedules,
            full.schedules
        );
        assert!(reduced.pruned > 0);
    }

    fn build(p: &Preset) -> Box<dyn Cluster> {
        p.build(&CommuteMatrix::new(), None)
            .expect("no tamper to refuse")
    }

    /// Drives a built scenario down the deterministic road — lowest-seq
    /// delivery first, then admission, a timer only when quiet — checking
    /// the oracles as the harness does. Returns the path and the first
    /// violation.
    fn drain(built: &mut dyn Cluster) -> (Vec<Step>, Option<Violation>) {
        let mut path = Vec::new();
        while path.len() < 100_000 {
            let next = if let Some(&seq) = built.pending_msgs().first() {
                Step::Deliver(seq)
            } else if let Some(&j) = built.pending_joins().first() {
                Step::Admit(j)
            } else if built.window_done() {
                return (path, built.check_terminal());
            } else {
                Step::Timer
            };
            assert!(built.exec(next), "drain stalled at {next}");
            path.push(next);
            if let Some(v) = built.check_step() {
                return (path, Some(v));
            }
        }
        panic!("drain failed to converge");
    }

    #[test]
    fn every_scenario_builds_deterministically() {
        for p in Preset::all() {
            let (a, b) = (build(p), build(p));
            assert_eq!(a.state_digest(), b.state_digest(), "{}", p.name);
            assert_eq!(a.pending_msgs(), b.pending_msgs(), "{}", p.name);
            assert_eq!(a.pending_joins(), b.pending_joins(), "{}", p.name);
            assert_eq!(
                a.pending_joins().len(),
                usize::from(p.late_join),
                "{}",
                p.name
            );
            assert!(a.has_timers(), "{}: tick must be armed", p.name);
            assert!(!a.window_done(), "{}: nothing to explore", p.name);
            if PRESETS.iter().any(|q| q.name == p.name) {
                assert_eq!(a.check_step(), None, "{}", p.name);
            }
        }
    }

    /// The deterministic drain is oracle-clean on every public preset and
    /// trips an oracle on every hidden one; replaying its path — by hand
    /// and through [`replay`] — reaches the same state and verdict.
    #[test]
    fn deterministic_drain_is_oracle_clean_and_replays() {
        for p in Preset::all() {
            let mut a = build(p);
            let (steps, verdict) = drain(&mut *a);
            let negative = PRESETS.iter().all(|q| q.name != p.name);
            assert_eq!(verdict.is_some(), negative, "{}: {verdict:?}", p.name);

            let mut b = build(p);
            for &s in &steps {
                assert!(b.exec(s), "{}: replaying {s}", p.name);
            }
            assert_eq!(a.state_digest(), b.state_digest(), "{}", p.name);
            assert_eq!(a.window_done(), b.window_done(), "{}", p.name);

            let sched = Schedule {
                preset: p.name.to_owned(),
                tamper: None,
                steps,
            };
            let report = replay(&sched, &CommuteMatrix::new()).expect("known preset");
            assert_eq!(report.violation, verdict, "{}", p.name);
            assert_eq!(report.skipped, 0, "{}", p.name);
        }
    }

    /// A small bounded exploration of every public preset stays
    /// oracle-clean, the reduction actually prunes, and the sample
    /// schedule round-trips through the file format and replays clean.
    #[test]
    fn bounded_exploration_is_clean_and_its_sample_replays() {
        let matrix = CommuteMatrix::new();
        let cfg = ExploreConfig {
            max_schedules: 200,
            ..ExploreConfig::default()
        };
        for p in PRESETS {
            let out = explore(p, &matrix, None, &cfg);
            assert!(out.violation.is_none(), "{}: {:?}", p.name, out.violation);
            assert_eq!(out.schedules, cfg.max_schedules, "{}", p.name);
            assert!(out.pruned > 0, "{}: the reduction must prune", p.name);

            let sched = Schedule {
                preset: p.name.to_owned(),
                tamper: None,
                steps: out.sample.expect("explored schedules"),
            };
            let reparsed = Schedule::from_json(&sched.to_json()).expect("well-formed");
            assert_eq!(reparsed, sched, "{}", p.name);
            let report = replay(&reparsed, &matrix).expect("known preset");
            assert!(
                report.violation.is_none(),
                "{}: {:?}",
                p.name,
                report.violation
            );
            assert!(report.applied > 0 && report.skipped == 0, "{}", p.name);
        }
    }

    /// A schedule whose preset cannot honour its tamper block must not
    /// replay "clean" with the mutation silently left out.
    #[test]
    fn rejects_tamper_the_scenario_cannot_install() {
        let mut sched = Schedule {
            preset: CROSS_GROUP.to_owned(),
            tamper: Some(TamperSpec {
                victim: 1,
                nth: 1,
                swap: (0, 1),
            }),
            steps: vec![Step::Timer],
        };
        let err = replay(&sched, &CommuteMatrix::new()).unwrap_err();
        assert!(err.contains(CROSS_GROUP) && err.contains("tamper"), "{err}");
        sched.tamper = None;
        assert!(replay(&sched, &CommuteMatrix::new()).is_ok());
        sched.preset = "nope".to_owned();
        assert!(replay(&sched, &CommuteMatrix::new()).is_err());
    }
}

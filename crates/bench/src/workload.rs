//! The §7 measurement workload: users collaboratively solving Sudoku.
//!
//! "All measurements were made while running the Sudoku application with 2
//! to 8 users within a local area network over a one hour time period." We
//! simulate each user as a stream of *move events*: at seeded think-time
//! intervals the user looks at their machine's **guesstimated** board,
//! picks a random still-legal move and issues `update(r, c, v)`. Because
//! moves are chosen against the local guesstimate, two users can pick
//! conflicting moves between synchronizations — the source of the Figure 7
//! conflicts.

use guesstimate_apps::sudoku::{self, Sudoku};
use guesstimate_core::{MachineId, ObjectId};
use guesstimate_net::{SimNet, SimTime};
use guesstimate_runtime::Machine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One user's activity profile.
#[derive(Debug, Clone, Copy)]
pub struct Activity {
    /// Mean think time between move attempts.
    pub mean_think: SimTime,
    /// Base RNG seed (combined with user and event indices).
    pub seed: u64,
}

/// Deterministic per-event seed derivation.
fn event_seed(base: u64, user: u32, event: u64) -> u64 {
    // SplitMix64-style mixing keeps streams independent across users.
    let mut z = base
        .wrapping_add(u64::from(user).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(event.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a user's move events look for boards.
#[derive(Debug, Clone)]
pub enum Boards {
    /// These boards, fixed when the events are scheduled.
    Fixed(Vec<ObjectId>),
    /// Every Sudoku in the machine's catalog at event time, so boards
    /// created mid-run (e.g. fresh grids added as old ones fill up) are
    /// used automatically.
    Catalog,
}

impl Boards {
    fn on(&self, m: &Machine) -> Vec<ObjectId> {
        match self {
            Boards::Fixed(boards) => boards.clone(),
            Boards::Catalog => m
                .available_objects()
                .into_iter()
                .filter(|(_, t)| t == "Sudoku")
                .map(|(id, _)| id)
                .collect(),
        }
    }
}

/// Schedules `user`'s move events on `net` between `from` and `until`.
///
/// Think times are exponential with the given mean (sampled up front, so
/// the schedule is fixed by the seed); each event, *at its virtual time*,
/// reads the machine's guesstimated boards, picks a uniformly random legal
/// move on a uniformly random board, and issues it. Events on machines that
/// have been removed or restarted are skipped by the driver.
pub fn schedule_user(
    net: &mut SimNet<Machine>,
    user: MachineId,
    boards: &Boards,
    activity: Activity,
    from: SimTime,
    until: SimTime,
) -> usize {
    let mut rng = StdRng::seed_from_u64(event_seed(activity.seed, user.index(), u64::MAX));
    let mut t = from;
    let mut events = 0usize;
    loop {
        // Exponential inter-arrival with the configured mean.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let gap = (-u.ln() * activity.mean_think.as_micros() as f64) as u64;
        t += SimTime::from_micros(gap.max(1_000));
        if t >= until {
            break;
        }
        let seed = event_seed(activity.seed, user.index(), events as u64);
        let boards = boards.clone();
        net.schedule_call(t, user, move |m: &mut Machine, ctx| {
            issue_random_move_at(m, &boards.on(m), seed, ctx.now());
        });
        events += 1;
    }
    events
}

/// Picks a random legal move on a random board (as seen on the machine's
/// guesstimated state) and issues it stamped `now`, so the runtime records
/// its issue-to-commit latency. Returns the issue result, or `None` when
/// no move is available.
pub fn issue_random_move_at(
    m: &mut Machine,
    boards: &[ObjectId],
    seed: u64,
    now: SimTime,
) -> Option<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    if boards.is_empty() {
        return None;
    }
    let board = boards[rng.gen_range(0..boards.len())];
    let moves = m.read::<Sudoku, _>(board, |s| s.candidate_moves())?;
    if moves.is_empty() {
        return None;
    }
    let (r, c, v) = moves[rng.gen_range(0..moves.len())];
    m.issue_at(sudoku::ops::update(board, r, c, v), None, now)
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use guesstimate_core::OpRegistry;
    use guesstimate_net::{LatencyModel, NetConfig};
    use guesstimate_runtime::{run_until_cohort, sim_cluster, MachineConfig};

    fn cluster(n: u32) -> SimNet<Machine> {
        let mut reg = OpRegistry::new();
        guesstimate_apps::sudoku::register(&mut reg);
        let cfg = MachineConfig::default()
            .with_sync_period(SimTime::from_millis(100))
            .with_stall_timeout(SimTime::from_millis(800));
        sim_cluster(
            n,
            reg,
            cfg,
            NetConfig::lan(11).with_latency(LatencyModel::constant_ms(10)),
        )
    }

    #[test]
    fn scheduled_users_make_progress_and_converge() {
        let mut net = cluster(3);
        assert!(run_until_cohort(&mut net, SimTime::from_secs(5)));
        let board = net
            .actor_mut(MachineId::new(0))
            .unwrap()
            .create_instance(sudoku::example_puzzle());
        let t0 = net.now() + SimTime::from_secs(1);
        net.run_until(t0);
        let activity = Activity {
            mean_think: SimTime::from_millis(400),
            seed: 9,
        };
        let until = t0 + SimTime::from_secs(20);
        for i in 0..3 {
            let boards = Boards::Fixed(vec![board]);
            let n = schedule_user(&mut net, MachineId::new(i), &boards, activity, t0, until);
            assert!(n > 10, "user {i} scheduled {n} events");
        }
        net.run_until(until + SimTime::from_secs(5));
        let filled: Vec<usize> = (0..3)
            .map(|i| {
                81 - net
                    .actor(MachineId::new(i))
                    .unwrap()
                    .read::<Sudoku, _>(board, |s| s.empty_count())
                    .unwrap()
            })
            .collect();
        assert!(filled[0] > 30, "board is being solved: {filled:?}");
        assert!(
            filled.windows(2).all(|w| w[0] == w[1]),
            "all machines agree: {filled:?}"
        );
    }

    #[test]
    fn event_seeds_are_deterministic_and_distinct() {
        assert_eq!(event_seed(1, 2, 3), event_seed(1, 2, 3));
        assert_ne!(event_seed(1, 2, 3), event_seed(1, 2, 4));
        assert_ne!(event_seed(1, 2, 3), event_seed(1, 3, 3));
        assert_ne!(event_seed(1, 2, 3), event_seed(2, 2, 3));
    }

    #[test]
    fn issue_random_move_handles_empty_inputs() {
        let mut net = cluster(1);
        net.run_until(SimTime::from_secs(1));
        let m = net.actor_mut(MachineId::new(0)).unwrap();
        let now = SimTime::from_secs(1);
        assert_eq!(issue_random_move_at(m, &[], 1, now), None, "no boards");
        let ghost = ObjectId::new(MachineId::new(7), 7);
        assert_eq!(
            issue_random_move_at(m, &[ghost], 1, now),
            None,
            "unknown board"
        );
    }
}

//! Checking scenarios: one row of data each, and the one harness that
//! builds and drives any row.
//!
//! A row ([`Preset`]) is all a scenario is: budgets, a [`Flush`] mode,
//! whether its rounds overlap, and a [`Workload`] (node kind, application,
//! operations, config deviations).
//! [`Built`] builds it under the controlled scheduler ([`SchedNet`]), runs
//! a **deterministic prelude** (membership handshakes and the
//! synchronizations that commit the app object everywhere — identical on
//! every branch, so it adds no choice points), injects the workload and
//! drives the result as a [`Cluster`]. What differs between one sync group
//! and several is a [`Node`] impl, once per node kind, never per scenario.
//! Exploration starts from there: the first choice is typically the
//! master's sync tick.
//!
//! The workloads are chosen so each preset has both **conflicting**
//! operation pairs (the interesting interleavings the checker must keep)
//! and **commuting** pairs (what the partial-order reduction may prune):
//!
//! | preset | machines | conflict | commute |
//! |---|---|---|---|
//! | `sudoku` | 3 | `update(1,1,1)`;`clear(1,1)` same cell | moves in disjoint rows/cols/boxes |
//! | `auction` | 2 + late join | two first-bids on `lamp` | bids on different items |
//! | `event_planner` | 2, lossy | two joins for the last `party` seat | user registration vs joins |
//! | `message_board` | 3, lossy, hybrid | two posts to `general` (serialized) | async `like`s on all machines |
//! | `cross-group` | 3 nodes × 2 sync groups | one local op per group vs a cross-routed `mix` | the two groups' rounds |
//!
//! Every row above runs the paper's serial stage 1 (machines flush in
//! turn); a `<name>-parallel` twin of each runs the same scenario under
//! the parallel flush the runtime ships by default — `FlushDone` to the
//! master only, every member's batch in flight at once — so both modes
//! face the same oracles (`auction-parallel` over three rounds, not two:
//! see [`PRESETS`]). A `<name>-overlap` twin runs the parallel flush
//! with **two rounds in flight**: the explorer may fire the master's tick
//! while messages are in flight whenever that begins the next round under
//! the one being applied (every explored round after the first may:
//! [`Preset::tick_budget`]),
//! and each machine issues a second wave of operations the moment it has
//! flushed the first explored round — so the overlapped round carries
//! operations issued between a machine's flush and its apply, the ones a
//! double replay would push past three executions. The flush mode is the
//! runtime's own [`Flush`]; the `-overlap` twins add the `overlap` column.
//!
//! The `auction` preset stages a third machine whose admission is itself
//! a choice point (late join at any explored moment); `event_planner`
//! grants the explorer a message-loss budget, driving the protocol's
//! resend/recovery paths. The `message_board` preset turns on the
//! **hybrid commit path** (`async_commit`): its `like` injections are
//! universal commuters that broadcast as `Msg::AsyncOp` and commit
//! without rounds, while its conflicting posts keep the serialized round
//! path — so the explorer interleaves async arrivals against round
//! flushes, with a loss budget that forces the round-boundary fence's
//! re-piggyback repair. The `cross-group` preset's nodes are
//! `MultiMachine`s instead of bare machines (see [`crate::multigroup`]).

use std::hash::Hash;
use std::sync::Arc;

use guesstimate_apps::{auction, event_planner, message_board, sudoku};
use guesstimate_core::{CommuteMatrix, MachineId, ObjectId, OpRegistry, SharedOp};
use guesstimate_net::{Actor, Ctx, PendingMsg, SchedNet, SimTime, TamperHook, Tracer};
use guesstimate_runtime::commute::wire_ops_commute;
use guesstimate_runtime::multigroup::{GMsg, GroupId, MultiMachine};
use guesstimate_runtime::{Checks, Flush, Machine, MachineConfig, Msg, StateSummary, WireEnvelope};

use crate::multigroup::{self, XPair, CROSS_GROUP};
use crate::oracle::{self, check_machine, check_pair, digest_of, Violation};
use crate::schedule::{Step, TamperSpec};

/// A built scenario as the explorer, the replayer and the minimizer see
/// it: the scheduler's surface (the first four methods), then the
/// judgements the harness makes of the cluster.
pub trait Cluster {
    /// Executes one choice; false if it no longer applies (stale seq).
    fn exec(&mut self, s: Step) -> bool;
    /// Seqs of the in-flight messages, ascending.
    fn pending_msgs(&self) -> Vec<u64>;
    /// Choice seqs of the staged joiners.
    fn pending_joins(&self) -> Vec<u64>;
    /// True when a timer is armed.
    fn has_timers(&self) -> bool;
    /// True when the next timer is a master's sync tick, firing it now
    /// would begin a round under the one in flight, and the scenario's
    /// [`Preset::tick_budget`] allows another such round: the one timer the
    /// explorer may fire while messages are in flight.
    fn overlap_tick_ready(&self) -> bool;
    /// True when the explored window is over (terminal once nothing is
    /// in flight).
    fn window_done(&self) -> bool;
    /// Whether delivering in-flight messages `x != y` in either order
    /// reaches the same state ([`mod@crate::explore`] judges all other pairs).
    fn deliveries_independent(&self, x: u64, y: u64) -> bool;
    /// The oracles run after every applied choice.
    fn check_step(&self) -> Option<Violation>;
    /// The oracles run once a schedule quiesces.
    fn check_terminal(&self) -> Option<Violation>;
    /// A deterministic digest of the observable state.
    fn state_digest(&self) -> u64;
    /// One summary per protocol instance, for postmortem bundles.
    fn summaries(&self) -> Vec<StateSummary>;
    /// Installs a trace sink on the driver and every protocol instance.
    fn set_tracer(&mut self, tracer: Arc<dyn Tracer>);
    /// An independent copy of the cluster at this point: executing the
    /// same choices on it reaches the same states as on the original.
    fn fork(&self) -> Box<dyn Cluster>;
}

/// Fixture for the `sneaky` negative preset: a two-slot map whose
/// `mirror` method deliberately **under-declares** its footprint — it
/// copies `src` into `dst` while admitting only to touching `dst`. The
/// commute matrix and independence judgments built on that declaration
/// are unsound for it, which is exactly what the witness-containment
/// oracle must report.
pub mod sneaky {
    use std::collections::BTreeMap;

    use guesstimate_core::{canonical, Footprint};

    /// Two integer slots, `src` and `dst`.
    #[derive(Clone, Default, Debug)]
    pub struct Mirror {
        /// Slot name to value.
        pub m: BTreeMap<String, i64>,
    }

    canonical!(impl GState for Mirror as "Mirror" (m));

    impl Mirror {
        fn bump(&mut self, k: &str, d: i64) -> bool {
            *self.m.entry(k.to_owned()).or_insert(0) += d;
            true
        }

        fn mirror(&mut self) -> bool {
            let Some(v) = self.m.get("src").copied() else {
                return false;
            };
            self.m.insert("dst".to_owned(), v);
            true
        }
    }

    /// Honest: `bump(k, d)` reads and writes exactly slot `k`.
    fn bump_footprint(k: &str) -> Footprint {
        Footprint::new().reads([k]).writes([k])
    }

    /// Under-declared: `mirror` actually reads `src`, declares only `dst`.
    fn mirror_footprint() -> Footprint {
        Footprint::new().reads(["dst"]).writes(["dst"])
    }

    guesstimate_core::methods! {
        Mirror;
        /// `bump(k, d)`: adds `d` to slot `k`.
        fn bump(k: &str = ["src", "dst"], d: i64 = [1, -4]) => bump_footprint(k);
        /// `mirror()`: copies `src` into `dst`.
        fn mirror() => mirror_footprint();
    }
}

/// Fixture for the `miskeyed` negative preset: an honestly-declared topic
/// board paired with a deliberately **mis-keyed** shard plan. `post(topic,
/// author)` reads and writes exactly `topics/{topic}`, but the hand-built
/// plan routes `post` by its *author* argument — so every post whose
/// author differs from its topic commits into a shard whose key cannot
/// cover the touched path. The runtime's shard containment check (see
/// `guesstimate_runtime::ShardViolation`) must record the escape at the
/// first round commit, and the checker's `ShardEscape` oracle must report
/// it.
pub mod miskeyed {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use guesstimate_core::{
        canonical, ComponentPlan, Footprint, GState, PathPattern, Routing, ShardPlan, TypePlan,
    };

    /// Per-topic post tallies, snapshotted under a `topics` subtree so
    /// footprint paths have the shape `topics/{topic}`.
    #[derive(Clone, Default, Debug)]
    pub struct Board {
        /// Topic name to post count.
        pub topics: BTreeMap<String, i64>,
    }

    canonical!(impl GState for Board as "KeyedBoard" { topics });

    impl Board {
        fn post(&mut self, topic: &str, _author: &str) -> bool {
            *self.topics.entry(topic.to_owned()).or_insert(0) += 1;
            true
        }
    }

    /// Honest: `post(topic, author)` reads and writes `topics/{topic}`.
    fn post_footprint(topic: &str) -> Footprint {
        let key = format!("topics/{topic}");
        Footprint::new().reads([key.clone()]).writes([key])
    }

    guesstimate_core::methods! {
        Board;
        /// `post(topic, author)`: one more post in `topic`.
        fn post(topic: &str = ["news", "sport"], author: &str = ["ann", "bob"]) => post_footprint(topic);
    }

    /// The deliberately mis-keyed plan: the component is right
    /// (`topics/{0}`, keyed), but `post` is routed by argument **1** —
    /// the author — where the analysis would have derived argument 0.
    pub fn plan() -> Arc<ShardPlan> {
        let mut tp = TypePlan {
            components: vec![ComponentPlan {
                prefixes: vec![PathPattern::parse("topics/{0}").expect("valid pattern")],
                keyed: true,
            }],
            routes: BTreeMap::new(),
        };
        tp.routes.insert(
            "post".to_owned(),
            Routing::Local {
                component: 0,
                key_arg: Some(1),
            },
        );
        let mut plan = ShardPlan::new();
        plan.types.insert(Board::TYPE_NAME.to_owned(), tp);
        Arc::new(plan)
    }
}

/// A row's node kind, with how node 0 creates the application object.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Nodes {
    /// Bare [`Machine`]s: one sync group, mastered by node 0.
    Machine(fn(&mut Machine, &mut Ctx<'_, Msg>) -> ObjectId),
    /// [`MultiMachine`]s hosting every group of the row's shard plan; node 0
    /// masters each group and coordinates cross operations.
    Multi(fn(&mut MultiMachine, &mut Ctx<'_, GMsg>) -> ObjectId),
}

/// What a row runs, whatever its flush mode and budgets.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Installs the application's types and operations.
    pub(crate) register: fn(&mut OpRegistry),
    /// The node kind, and the object node 0 creates.
    pub(crate) nodes: Nodes,
    /// The operations the row issues on that object.
    pub(crate) ops: fn(ObjectId) -> Ops,
    /// The row's deviations from the shared machine configuration,
    /// including the commute pairs it seeds: the machines' classification
    /// and the reduction's independence relation read the same matrix.
    pub(crate) config: fn(MachineConfig) -> MachineConfig,
}

/// The operations a row issues.
#[derive(Debug, Default)]
pub(crate) struct Ops {
    /// What node 0 issues after the creation, for the prelude to commit.
    pub(crate) prelude: Vec<SharedOp>,
    /// The `(node, op)` workload whose interleavings are explored.
    pub(crate) injections: Vec<(u32, SharedOp)>,
    /// What each node issues the moment it has flushed the first explored
    /// round, on rows with a tick budget: the round begun under that one
    /// then carries operations issued between a flush and its apply.
    pub(crate) second_wave: Vec<(u32, SharedOp)>,
}

/// One checking scenario: a row of the table.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    /// Row name: what `mc --preset`, `mc --list` and schedule files say.
    pub name: &'static str,
    /// Nodes present from the start (node 0 is the master).
    pub eager: u32,
    /// Stage one additional node whose admission is a choice point.
    pub late_join: bool,
    /// Synchronization rounds to explore after injection.
    pub rounds: u64,
    /// How many messages the explorer may drop per schedule.
    pub drop_budget: u32,
    /// Stage-1 flush mode. A schedule's `seq` numbers index one mode's
    /// rounds, so each row keeps the mode its checked-in schedules were
    /// recorded under.
    pub flush: Flush,
    /// Two rounds in flight (parallel flush only): every explored round
    /// after the first may begin under the one before it
    /// ([`Preset::tick_budget`]), and the row injects its second wave.
    pub overlap: bool,
    /// One-line description for `mc --list`.
    pub blurb: &'static str,
    /// What the row runs.
    pub workload: Workload,
}

const SUDOKU: Preset = Preset {
    name: "sudoku",
    eager: 3,
    late_join: false,
    rounds: 2,
    drop_budget: 0,
    flush: Flush::Serial,
    overlap: false,
    blurb: "3 machines; same-cell update/clear conflict vs disjoint-unit moves",
    workload: Workload {
        register: sudoku::register,
        nodes: Nodes::Machine(|m, _| m.create_instance(sudoku::Sudoku::new())),
        ops: |obj| Ops {
            injections: vec![
                // Machine 0: a same-cell conflicting pair (also the
                // seeded-mutation target: swapping their commit order is
                // observable).
                (0, sudoku::ops::update(obj, 1, 1, 1)),
                (0, sudoku::ops::clear(obj, 1, 1)),
                // Machine 1: moves in disjoint rows/columns/boxes — their
                // batch commutes with everything machine 0 flushes.
                (1, sudoku::ops::update(obj, 5, 5, 3)),
                (1, sudoku::ops::update(obj, 9, 9, 5)),
                // Machine 2: another disjoint-unit move (row 6, col 2,
                // box 3) — its batch commutes with both of the above.
                (2, sudoku::ops::update(obj, 6, 2, 7)),
            ],
            second_wave: vec![
                // The cell machine 0's first-wave pair fills and clears: two
                // machines race for it in the overlapped round.
                (1, sudoku::ops::update(obj, 1, 1, 9)),
                (2, sudoku::ops::update(obj, 1, 1, 2)),
                // A move in units nobody else touches.
                (0, sudoku::ops::update(obj, 8, 4, 6)),
            ],
            ..Ops::default()
        },
        config: |c| c,
    },
};

const AUCTION: Preset = Preset {
    name: "auction",
    eager: 2,
    late_join: true,
    rounds: 2,
    drop_budget: 0,
    flush: Flush::Serial,
    overlap: false,
    blurb: "2 machines + late joiner; dueling first-bids vs cross-item bids",
    workload: Workload {
        register: auction::register,
        nodes: Nodes::Machine(|m, _| m.create_instance(auction::Auction::new())),
        ops: |obj| Ops {
            prelude: vec![
                auction::ops::list_item(obj, "lamp", "seller", 10, 5),
                auction::ops::list_item(obj, "rug", "seller", 5, 1),
            ],
            injections: vec![
                // Dueling first-bids at the reserve: the commit order
                // decides the winner, the loser's bid fails.
                (0, auction::ops::bid(obj, "lamp", "ann", 10)),
                (1, auction::ops::bid(obj, "lamp", "bob", 10)),
                // A bid on the other item commutes with both.
                (1, auction::ops::bid(obj, "rug", "carol", 5)),
            ],
            second_wave: vec![
                // Raises over whichever first-bid the first round commits.
                (1, auction::ops::bid(obj, "lamp", "erin", 15)),
                (0, auction::ops::bid(obj, "rug", "dave", 6)),
            ],
        },
        config: |c| c,
    },
};

const EVENT_PLANNER: Preset = Preset {
    name: "event_planner",
    eager: 2,
    late_join: false,
    rounds: 3,
    drop_budget: 2,
    flush: Flush::Serial,
    overlap: false,
    blurb: "2 machines, lossy network; last-seat race plus recovery paths",
    workload: Workload {
        register: event_planner::register,
        nodes: Nodes::Machine(|m, _| m.create_instance(event_planner::EventPlanner::with_quota(2))),
        ops: |obj| Ops {
            prelude: vec![
                event_planner::ops::register_user(obj, "ann", "pw"),
                event_planner::ops::register_user(obj, "bob", "pw"),
                event_planner::ops::create_event(obj, "party", 1),
                event_planner::ops::create_event(obj, "dinner", 2),
            ],
            injections: vec![
                // The last-seat race for `party` (capacity 1).
                (0, event_planner::ops::join(obj, "ann", "party")),
                (1, event_planner::ops::join(obj, "bob", "party")),
                // A fresh registration touches only `users/carol`.
                (0, event_planner::ops::register_user(obj, "carol", "pw")),
            ],
            second_wave: vec![
                // `dinner` has two seats: both joins fit, in either order.
                (0, event_planner::ops::join(obj, "ann", "dinner")),
                (1, event_planner::ops::join(obj, "bob", "dinner")),
            ],
        },
        config: |c| c,
    },
};

const MESSAGE_BOARD: Preset = Preset {
    name: "message_board",
    eager: 3,
    late_join: false,
    rounds: 2,
    drop_budget: 2,
    flush: Flush::Serial,
    overlap: false,
    blurb: "3 machines, lossy, hybrid commit; async likes vs serialized same-topic posts",
    workload: Workload {
        register: message_board::register,
        nodes: Nodes::Machine(|m, _| m.create_instance(message_board::MessageBoard::new())),
        ops: |obj| Ops {
            prelude: vec![message_board::ops::create_topic(obj, "general")],
            injections: vec![
                // Two posts to the same topic: serialized, and the commit
                // order decides the thread order — the conflict the round
                // path must keep total.
                (0, message_board::ops::post(obj, "general", "ann", "hi")),
                (2, message_board::ops::post(obj, "general", "bob", "yo")),
                // Blind likes: universal commuters that take the async
                // path. Machine 1 issues two so same-sender FIFO ordering
                // (a shared arrival slot the reduction must not split) is
                // exercised alongside cross-sender reorderings.
                (0, message_board::ops::like(obj, "general")),
                (1, message_board::ops::like(obj, "general")),
                (1, message_board::ops::like(obj, "general")),
            ],
            second_wave: vec![
                // A third post to the contested topic (serialized), and
                // likes that enter the async window after the first flush:
                // the overlapped round's flush must fence them, and only
                // them.
                (1, message_board::ops::post(obj, "general", "cat", "ok")),
                (0, message_board::ops::like(obj, "general")),
                (2, message_board::ops::like(obj, "general")),
            ],
        },
        // The hybrid commit path, and `like`'s matrix rows even when no
        // archive is given: an empty matrix would classify every method as
        // serialized and the async path would never run. These are the
        // pairs `analyze` validates for `MessageBoard`; inserting a pair an
        // archive already holds is a no-op.
        config: |mut c| {
            for other in ["like", "post", "create_topic"] {
                c.commute_matrix.insert("MessageBoard", "like", other);
            }
            c.with_async_commit(true)
        },
    },
};

const CROSS: Preset = Preset {
    name: CROSS_GROUP,
    eager: 3,
    late_join: false,
    rounds: 2,
    drop_budget: 0,
    flush: Flush::Serial,
    overlap: false,
    blurb: "3 nodes x 2 sync groups; per-group rounds + one coordinated cross round",
    workload: Workload {
        register: multigroup::register_methods,
        nodes: Nodes::Multi(|mm, ctx| mm.create_instance(XPair::default(), ctx)),
        ops: |obj| Ops {
            injections: vec![
                // One local conflict seed per group, then the cross op,
                // whose `CrossSubmit` is in flight when exploration starts.
                (1, multigroup::bump_a(obj, 2)),
                (2, multigroup::bump_b(obj, 3)),
                (1, multigroup::mix(obj, 1)),
            ],
            second_wave: vec![
                // One more local operation per group, from the node that did
                // not issue the first.
                (2, multigroup::bump_a(obj, 5)),
                (1, multigroup::bump_b(obj, 7)),
            ],
            ..Ops::default()
        },
        config: |c| c.with_shard_plan(multigroup::plan()),
    },
};

/// All built-in presets: each scenario under the paper's serial flush (the
/// mode the checked-in schedules were recorded under), then again — same
/// machines, workload and budgets — under the parallel flush that
/// `MachineConfig::default()` ships, then with every explored round after
/// the first begun under another and a second wave of operations.
/// `auction-parallel` explores a third round: with the master's batch
/// inside `BeginApply` its two-round tree is 6 823 schedules in all, short
/// of the 10 000 the `--min-schedules` gate of `check.sh mc` asks of every
/// row.
pub const PRESETS: &[Preset] = &[
    SUDOKU,
    AUCTION,
    EVENT_PLANNER,
    MESSAGE_BOARD,
    CROSS,
    SUDOKU.under(Flush::Parallel, "sudoku-parallel"),
    Preset {
        rounds: 3,
        ..AUCTION
    }
    .under(Flush::Parallel, "auction-parallel"),
    EVENT_PLANNER.under(Flush::Parallel, "event_planner-parallel"),
    MESSAGE_BOARD.under(Flush::Parallel, "message_board-parallel"),
    CROSS.under(Flush::Parallel, "cross-group-parallel"),
    SUDOKU.overlapping("sudoku-overlap"),
    AUCTION.overlapping("auction-overlap"),
    EVENT_PLANNER.overlapping("event_planner-overlap"),
    MESSAGE_BOARD.overlapping("message_board-overlap"),
    CROSS.overlapping("cross-group-overlap"),
];

/// Negative-test preset: a deliberately **under-declared** workload the
/// witness-containment oracle must catch (its `mirror` injection reads
/// `src` while declaring only `dst`; see the `sneaky` module). Not listed in
/// [`PRESETS`] — the positive suites iterate those and this one violates
/// by design — but reachable through [`Preset::by_name`], so `mc
/// --preset sneaky` and schedule replays resolve it. Built with
/// `witness_reads` on under [`Checks::Record`]: escapes are *recorded*
/// on the machine for the oracle to report (and ddmin to shrink) instead
/// of aborting mid-delivery.
pub const SNEAKY: Preset = Preset {
    name: "sneaky",
    eager: 2,
    late_join: false,
    rounds: 2,
    drop_budget: 0,
    flush: Flush::Serial,
    overlap: false,
    blurb: "negative test: under-declared read the witness oracle must catch",
    workload: Workload {
        register: sneaky::register_methods,
        nodes: Nodes::Machine(|m, _| {
            m.create_instance(sneaky::Mirror {
                m: [("src".to_owned(), 1), ("dst".to_owned(), 0)].into(),
            })
        }),
        ops: |obj| Ops {
            injections: vec![
                // Honest slot bump on the master.
                (0, sneaky::bump(obj, "src", 1)),
                // The under-declared mirror: its hidden read of `src` is
                // recorded the moment machine 1 issues it, so the witness
                // oracle fires on the very first explored step.
                (1, sneaky::mirror(obj)),
            ],
            ..Ops::default()
        },
        config: |c| c.with_witness_reads(true).with_checks(Checks::Record),
    },
};

/// Negative-test preset: an honestly-declared workload under a
/// deliberately **mis-keyed** shard plan (its `post` route keys by the
/// author argument instead of the topic; see the `miskeyed` module).
/// Hidden from [`PRESETS`] like [`SNEAKY`] — it violates by design — but
/// reachable through [`Preset::by_name`], so `mc --preset miskeyed` and
/// schedule replays resolve it. Built under [`Checks::Record`]: shard
/// escapes are *recorded* on the machine for the `ShardEscape` oracle to
/// report (and ddmin to shrink) instead of aborting mid-delivery.
pub const MISKEYED: Preset = Preset {
    name: "miskeyed",
    eager: 2,
    late_join: false,
    rounds: 2,
    drop_budget: 0,
    flush: Flush::Serial,
    overlap: false,
    blurb: "negative test: mis-keyed shard plan the shard-escape oracle must catch",
    workload: Workload {
        register: miskeyed::register_methods,
        nodes: Nodes::Machine(|m, _| m.create_instance(miskeyed::Board::default())),
        ops: |obj| Ops {
            injections: vec![
                // Honest posts. The mis-keyed plan routes each by its
                // author, so the first round commit lands `topics/news`
                // in shard `KeyedBoard:0/ann` (and `topics/sport` in
                // `KeyedBoard:0/bob`) — escapes the shard containment
                // check records on every machine.
                (0, miskeyed::post(obj, "news", "ann")),
                (1, miskeyed::post(obj, "sport", "bob")),
            ],
            ..Ops::default()
        },
        config: |c| {
            c.with_checks(Checks::Record)
                .with_shard_plan(miskeyed::plan())
        },
    },
};

impl Preset {
    /// The whole table: [`PRESETS`], then the hidden [`SNEAKY`] and
    /// [`MISKEYED`] negative presets.
    pub fn all() -> impl Iterator<Item = &'static Preset> {
        PRESETS.iter().chain([&SNEAKY, &MISKEYED])
    }

    /// Looks up a preset by name in [`Preset::all`].
    pub fn by_name(name: &str) -> Option<&'static Preset> {
        Self::all().find(|p| p.name == name)
    }

    /// This row's scenario under another flush mode, as a row of its own.
    const fn under(self, flush: Flush, name: &'static str) -> Preset {
        Preset {
            name,
            flush,
            ..self
        }
    }

    /// This row's scenario under the parallel flush with its rounds
    /// overlapping, as a row of its own.
    const fn overlapping(self, name: &'static str) -> Preset {
        Preset {
            overlap: true,
            ..self.under(Flush::Parallel, name)
        }
    }

    /// How many rounds per schedule the explorer may begin *under* another
    /// (firing the master's tick with messages in flight, whenever that
    /// starts round r + 1 beside round r in stage 2): on an `-overlap` row
    /// every explored round after the first, so `mc --rounds` moves it too;
    /// none elsewhere. Rows with a positive budget inject their second wave.
    pub fn tick_budget(&self) -> u32 {
        match self.overlap {
            true => self.rounds.saturating_sub(1) as u32,
            false => 0,
        }
    }

    /// Builds the row behind the [`Cluster`] interface, on its node kind,
    /// under `matrix` (typically loaded from an `analyze --json` archive
    /// via `mc --matrix`) plus the pairs the row seeds.
    ///
    /// # Errors
    ///
    /// Names the scenario when it cannot install `tamper`.
    pub fn build(
        &self,
        matrix: &CommuteMatrix,
        tamper: Option<TamperSpec>,
    ) -> Result<Box<dyn Cluster>, String> {
        Ok(match self.workload.nodes {
            Nodes::Machine(create) => Box::new(Built::new(self, create, matrix, tamper)?),
            Nodes::Multi(create) => Box::new(Built::new(self, create, matrix, tamper)?),
        })
    }

    /// Builds a single-group row as the concrete [`Built`], for tests that
    /// inspect its machines.
    ///
    /// # Panics
    ///
    /// Panics on a row whose nodes are not bare machines, or if the
    /// prelude fails to converge.
    pub fn build_machines(&self, matrix: &CommuteMatrix, tamper: Option<TamperSpec>) -> Built {
        let Nodes::Machine(create) = self.workload.nodes else {
            panic!("{} is not a single-group row", self.name);
        };
        Built::new(self, create, matrix, tamper).expect("a machine installs any tamper hook")
    }
}

/// A node kind the harness drives: the protocol instances a node hosts,
/// and the few judgements that differ between one sync group and several.
/// The defaults are the single-group case.
pub trait Node: Actor + Clone + Sized + 'static {
    /// Node `i` of a row's cluster, under the row's configuration; node 0
    /// masters every group it hosts.
    fn boot(i: u32, registry: &Arc<OpRegistry>, cfg: &MachineConfig) -> Self;
    /// This node's protocol instances, one per sync group it hosts, in
    /// group order.
    fn instances(&self) -> impl Iterator<Item = (GroupId, &Machine)>;
    /// Issues one workload operation, through the hybrid path if `hybrid`;
    /// false if it failed at issue.
    fn inject(&mut self, op: SharedOp, hybrid: bool, ctx: &mut Ctx<'_, Self::Msg>) -> bool;
    /// Whether the instance that serializes `op` holds a flushed round.
    fn flushed_for(&self, op: &SharedOp) -> bool;
    /// Installs a trace sink on every instance.
    fn trace_to(&mut self, tracer: Arc<dyn Tracer>);
    /// The hook that corrupts the batch `spec` names, or `None` when this
    /// kind's messages expose no batch to corrupt.
    fn tamper(spec: TamperSpec) -> Option<TamperHook<Self::Msg>>;
    /// [`Cluster::deliveries_independent`] for a cluster of this kind.
    fn deliveries_independent(built: &Built<Self>, x: u64, y: u64) -> bool;
    /// [`Cluster::check_terminal`] for a cluster of this kind.
    fn check_terminal(built: &Built<Self>) -> Option<Violation>;
    /// True when nothing is outstanding here beyond the rounds, so the
    /// explored window may close.
    fn settled(&self) -> bool {
        true
    }
    /// Whether this node's and `other`'s instances of group `g` must hold
    /// equal committed states once they completed the same operations.
    fn comparable(&self, _other: &Self, _g: GroupId) -> bool {
        true
    }
    /// Step oracles over whole nodes, after the per-instance and per-pair
    /// ones.
    fn check_nodes(_nodes: &[&Self]) -> Option<Violation> {
        None
    }
    /// Node state the digest covers beyond the instances'.
    fn digest_extra(nodes: &[&Self]) -> impl Hash;
}

/// A built scenario, ready for exploration or replay: one harness for
/// every node kind; a clone ([`Cluster::fork`]) runs on as the original.
#[derive(Debug, Clone)]
pub struct Built<N: Node = Machine> {
    /// The cluster under the controlled scheduler.
    pub net: SchedNet<N>,
    /// The shared operation registry (also used by oracles).
    pub registry: Arc<OpRegistry>,
    /// The matrix the machines run under: the caller's plus the row's seeds.
    pub matrix: CommuteMatrix,
    /// The preset this was built from.
    pub preset: Preset,
    /// The master's sync count at the end of the prelude, the same in every
    /// group node 0 masters (their ticks fall due together); exploration
    /// targets `base_rounds + preset.rounds`.
    pub base_rounds: u64,
    /// Whether the machines run the hybrid commit path.
    hybrid: bool,
    /// The second-wave operations not yet issued ([`Ops::second_wave`]).
    wave: Vec<(u32, SharedOp)>,
}

impl<N: Node> Built<N> {
    /// Boots the row's nodes under its configuration, has node 0 `create`
    /// the object and issue the prelude operations, runs the deterministic
    /// prelude, injects the workload, stages the late joiner and installs
    /// the tamper hook.
    ///
    /// # Errors
    ///
    /// Names the scenario when its node kind cannot install `tamper`.
    ///
    /// # Panics
    ///
    /// Panics if the prelude fails to converge — a bug in either the
    /// protocol or the harness, not an explorable behavior.
    fn new(
        preset: &Preset,
        create: fn(&mut N, &mut Ctx<'_, N::Msg>) -> ObjectId,
        matrix: &CommuteMatrix,
        tamper: Option<TamperSpec>,
    ) -> Result<Self, String> {
        let hook = tamper.map(|t| N::tamper(t).ok_or(preset.name)).transpose();
        let hook =
            hook.map_err(|name| format!("scenario `{name}` cannot install a tamper hook"))?;
        let work = preset.workload;
        let mut registry = OpRegistry::new();
        (work.register)(&mut registry);
        let registry = Arc::new(registry);
        // Timeout spacing mirrors deployment ratios (tick < join retry <
        // stall) so timer-only phases preserve protocol behavior; absolute
        // values are irrelevant under the controlled clock.
        let cfg = (work.config)(
            MachineConfig::default()
                .with_sync_period(SimTime::from_millis(100))
                .with_join_retry(SimTime::from_millis(300))
                .with_stall_timeout(SimTime::from_millis(500))
                .with_checks(Checks::Assert)
                .with_flush(preset.flush)
                .with_commute_matrix(matrix.clone()),
        );
        let mut built = Built {
            net: SchedNet::new(),
            registry,
            matrix: cfg.commute_matrix.clone(),
            preset: *preset,
            base_rounds: 0,
            hybrid: cfg.async_commit,
            wave: Vec::new(),
        };
        for i in 0..preset.eager {
            let node = N::boot(i, &built.registry, &cfg);
            built.net.add_machine(MachineId::new(i), node);
        }
        let mut obj = None;
        built.net.call(MachineId::new(0), |n, ctx| {
            obj = Some(create(n, ctx));
        });
        let mut ops = (work.ops)(obj.expect("node 0 exists"));
        // Operations of nodes beyond `eager` are dropped so tests can
        // shrink a preset (fewer nodes → exhaustible tree) without
        // re-specifying its workload.
        let eager = |&(n, _): &(u32, SharedOp)| n < preset.eager;
        ops.injections.retain(eager);
        ops.second_wave.retain(eager);
        let prelude_ops = ops.prelude.len();
        for op in ops.prelude {
            built.inject(0, op, false);
        }
        // Every instance in its cohort, with the object's creation committed
        // in each group and each prelude operation in the group it routes to.
        built.run_prelude(|n| {
            let instances = || n.instances().map(|(_, m)| m);
            let completed: usize = instances().map(Machine::completed_len).sum();
            instances().all(Machine::in_cohort) && completed == instances().count() + prelude_ops
        });
        for (node, op) in ops.injections {
            built.inject(node, op, built.hybrid);
        }
        if preset.late_join {
            let joiner = N::boot(preset.eager, &built.registry, &cfg);
            built.net.stage_join(MachineId::new(preset.eager), joiner);
        }
        if let Some(hook) = hook {
            built.net.set_tamper(hook);
        }
        built.base_rounds = built.master_rounds().max().expect("a group");
        if preset.tick_budget() > 0 {
            built.wave = ops.second_wave;
        }
        Ok(built)
    }

    /// The deterministic prelude: always deliver the lowest-seq message,
    /// fire a timer only when quiet, until every node is `ready`. Every
    /// branch of the exploration replays this identically, so it
    /// contributes no choice points; failing to converge is a harness or
    /// protocol bug and panics.
    fn run_prelude(&mut self, ready: impl Fn(&N) -> bool) {
        for _ in 0..100_000 {
            if let Some(&seq) = self.net.pending_msgs().first() {
                self.net.deliver(seq);
            } else if self.nodes().all(&ready) {
                return;
            } else {
                assert!(self.net.fire_next_timer(), "prelude stalled with no timers");
            }
        }
        panic!("prelude failed to converge");
    }

    /// Every node on the net, in id order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = &N> {
        let ids = self.net.members().into_iter();
        ids.map(|id| self.net.actor(id).expect("listed member exists"))
    }

    /// Every protocol instance of the cluster, by node then group.
    fn machines(&self) -> impl Iterator<Item = &Machine> {
        self.nodes().flat_map(|n| n.instances().map(|(_, m)| m))
    }

    /// Node 0's completed rounds, one count per group it masters.
    fn master_rounds(&self) -> impl Iterator<Item = u64> + '_ {
        let node0 = self.nodes().next().expect("node 0");
        node0.instances().map(|(_, m)| m.stats().syncs_seen)
    }

    /// True once node 0 has completed `k` explored rounds in every group.
    fn rounds_done(&self, k: u64) -> bool {
        self.master_rounds().all(|r| r >= self.base_rounds + k)
    }

    /// Issues `op` on `node`, which must take it.
    fn inject(&mut self, node: u32, op: SharedOp, hybrid: bool) {
        let mut took = None;
        let ran = self.net.call(MachineId::new(node), |n, ctx| {
            took = Some(n.inject(op, hybrid, ctx));
        });
        assert!(ran, "node {node} exists");
        assert_eq!(took, Some(true), "injected op failed at issue");
    }

    /// Issues the second-wave operations of every node that has just
    /// flushed the first explored round (under the parallel flush the
    /// `-overlap` rows run, a member as it installs the round, the master as
    /// stage 1 closes) while that round is still in flight; once node 0 has
    /// completed it, what is left is never issued. A function of the
    /// machines' state, so a replayed prefix injects at the same steps.
    fn inject_wave(&mut self) {
        if self.wave.is_empty() || self.rounds_done(1) {
            return;
        }
        let (now, later) = std::mem::take(&mut self.wave)
            .into_iter()
            .partition(|(node, op)| {
                let n = self.net.actor(MachineId::new(*node));
                n.expect("eager node").flushed_for(op)
            });
        self.wave = later;
        for (node, op) in now {
            self.inject(node, op, self.hybrid);
        }
    }
}

impl<N: Node> Cluster for Built<N> {
    fn exec(&mut self, s: Step) -> bool {
        let net = &mut self.net;
        let applied = match s {
            Step::Deliver(q) => net.deliver(q),
            Step::Drop(q) => net.drop_msg(q),
            Step::Admit(q) => net.admit(q),
            Step::Timer => net.fire_next_timer(),
        };
        self.inject_wave();
        applied
    }
    fn pending_msgs(&self) -> Vec<u64> {
        self.net.pending_msgs()
    }
    fn pending_joins(&self) -> Vec<u64> {
        self.net.pending_joins()
    }
    fn has_timers(&self) -> bool {
        self.net.has_timers()
    }

    /// Any group's master whose tick is the next timer and would begin a
    /// round under another, while its budget lasts. (Each group counts its
    /// own overlaps; the groups' ticks fall due together, so a group whose
    /// tick fires on the other's allowance can run one over.)
    fn overlap_tick_ready(&self) -> bool {
        let budget = u64::from(self.preset.tick_budget());
        let due = self.net.next_timer_due();
        self.machines().any(|m| {
            m.stats().rounds_overlapped < budget
                && m.overlap_tick_due().is_some_and(|t| Some(t) == due)
        })
    }

    fn window_done(&self) -> bool {
        self.rounds_done(self.preset.rounds) && self.nodes().all(N::settled)
    }

    fn deliveries_independent(&self, x: u64, y: u64) -> bool {
        N::deliveries_independent(self, x, y)
    }

    /// On every instance the per-machine oracles; for every two nodes'
    /// instances of one sync group the agreement oracles; then the node
    /// kind's own (see the `oracle` and `multigroup` module docs).
    fn check_step(&self) -> Option<Violation> {
        if let Some(v) = self.machines().find_map(check_machine) {
            return Some(v);
        }
        let nodes: Vec<&N> = self.nodes().collect();
        for (i, a) in nodes.iter().enumerate() {
            for b in &nodes[i + 1..] {
                for (g, ma) in a.instances() {
                    let Some((_, mb)) = b.instances().find(|&(h, _)| h == g) else {
                        continue;
                    };
                    let v = check_pair(ma, mb, self.hybrid, a.comparable(b, g));
                    if v.is_some() {
                        return v;
                    }
                }
            }
        }
        N::check_nodes(&nodes)
    }
    fn check_terminal(&self) -> Option<Violation> {
        N::check_terminal(self)
    }
    fn state_digest(&self) -> u64 {
        let nodes: Vec<&N> = self.nodes().collect();
        digest_of(self.machines(), N::digest_extra(&nodes))
    }

    /// Every instance currently admitted to the net, by node then group.
    fn summaries(&self) -> Vec<StateSummary> {
        self.machines().map(Machine::state_summary).collect()
    }

    /// The staged joiner, not yet on the net, stays untraced.
    fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.net.set_tracer(tracer.clone());
        for id in self.net.members() {
            if let Some(n) = self.net.actor_mut(id) {
                n.trace_to(tracer.clone());
            }
        }
    }

    fn fork(&self) -> Box<dyn Cluster> {
        Box::new(self.clone())
    }
}

/// What a message applies (or stages) at its receiver, and whose arrival
/// slot it takes: a round's batch plus its piggybacked async window, the
/// flusher's; or one standalone async envelope, its sender's.
fn applied(p: &PendingMsg<Msg>) -> Option<(Option<u64>, MachineId, Vec<&WireEnvelope>)> {
    match &p.msg {
        Msg::Ops {
            round,
            machine,
            ops,
            asyncs,
        } => {
            let envs = ops.iter().chain(asyncs.iter().map(|(_, e)| &**e));
            Some((Some(*round), *machine, envs.collect()))
        }
        Msg::AsyncOp { env, .. } => Some((None, p.from, vec![&**env])),
        _ => None,
    }
}

/// The single-group node: one bare machine, the one instance of the one
/// group.
impl Node for Machine {
    fn boot(i: u32, registry: &Arc<OpRegistry>, cfg: &MachineConfig) -> Self {
        let (id, registry, cfg) = (MachineId::new(i), registry.clone(), cfg.clone());
        if i == 0 {
            Machine::new_master(id, registry, cfg)
        } else {
            Machine::new_member(id, registry, cfg)
        }
    }

    fn instances(&self) -> impl Iterator<Item = (GroupId, &Machine)> {
        std::iter::once((0, self))
    }

    /// The hybrid issue path may broadcast an `AsyncOp`, so it takes the
    /// network context; the resulting in-flight messages become exploration
    /// choices like any other.
    fn inject(&mut self, op: SharedOp, hybrid: bool, ctx: &mut Ctx<'_, Msg>) -> bool {
        let took = if hybrid {
            self.issue_hybrid(op, None, ctx)
        } else {
            self.issue(op)
        };
        took.expect("injection references known objects")
    }

    fn flushed_for(&self, _: &SharedOp) -> bool {
        self.flushed_round().is_some()
    }

    fn trace_to(&mut self, tracer: Arc<dyn Tracer>) {
        self.set_tracer(tracer);
    }

    fn tamper(t: TamperSpec) -> Option<TamperHook<Msg>> {
        let victim = MachineId::new(t.victim);
        let (i, j) = t.swap;
        Some(Arc::new(move |seen, _seq, _from, to, msg: &mut Msg| {
            if to != victim {
                return false;
            }
            // A flushed batch, on either carrier: a member's `Ops`, or
            // the master's inside `BeginApply` (parallel flush; an empty
            // one, as under serial turns always, is no batch delivery).
            let ops = match msg {
                Msg::Ops { ops, .. } => ops,
                Msg::BeginApply { ops, .. } if !ops.is_empty() => ops,
                _ => return false,
            };
            *seen += 1;
            if *seen != t.nth || i == j || i >= ops.len() || j >= ops.len() {
                return false;
            }
            // Swap the *ids*: a receiver re-sorts a batch that arrives
            // out of id order and applies it in id order, so this
            // inverts the victim's commit order for the two operations.
            // The batch is shared behind an Arc; clone-on-write so only
            // this delivery is corrupted.
            let ops = Arc::make_mut(ops);
            let a = ops[i].id;
            ops[i].id = ops[j].id;
            ops[j].id = a;
            true
        }))
    }

    /// The same-machine rules of the [`mod@crate::explore`] module docs.
    fn deliveries_independent(built: &Built<Self>, x: u64, y: u64) -> bool {
        let net = &built.net;
        let (Some(px), Some(py)) = (net.pending_msg(x), net.pending_msg(y)) else {
            return false;
        };
        if px.to != py.to {
            return true;
        }
        let Some(target) = net.actor(px.to) else {
            return false;
        };
        let (Some((ra, sa, ea)), Some((rb, sb, eb))) = (applied(px), applied(py)) else {
            return false;
        };
        let type_of = |oid| target.object_type(oid).map(str::to_owned);
        let commute = |a: &WireEnvelope, b: &WireEnvelope| {
            wire_ops_commute(&built.registry, &built.matrix, &type_of, &a.op, &b.op)
        };
        // Batches of two different rounds never commute as deliveries, and
        // two messages in one arrival slot do not either. `wire_ops_commute`
        // is symmetric, so which of the two is `x` does not matter.
        sa != sb
            && ra.zip(rb).is_none_or(|(ra, rb)| ra == rb)
            && ea.iter().all(|a| eb.iter().all(|b| commute(a, b)))
    }

    fn check_terminal(built: &Built<Self>) -> Option<Violation> {
        // The abstract run has the staged joiner present from the start.
        let p = built.preset;
        let machines = p.eager + u32::from(p.late_join);
        oracle::check_terminal(&built.net, &built.registry, machines)
    }

    fn digest_extra(_: &[&Self]) -> impl Hash {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks the first path the explorer takes on an `-overlap` row -- the tick
    /// as soon as it begins a round under another, else the lowest-seq delivery,
    /// a timer when nothing is in flight -- under the step oracles, to the end
    /// of the explored window and the terminal oracles.
    fn walk_overlap_path(built: &mut dyn Cluster) {
        while !(built.window_done() && built.pending_msgs().is_empty()) {
            let next = match built.pending_msgs().first() {
                Some(&seq) if !built.overlap_tick_ready() => Step::Deliver(seq),
                _ => Step::Timer,
            };
            assert!(built.exec(next), "stalled at {next}");
            assert_eq!(built.check_step(), None, "after {next}");
        }
        assert_eq!(built.check_terminal(), None);
    }

    /// The single-group rows with two rounds in flight.
    fn single_group_overlap_rows() -> impl Iterator<Item = &'static Preset> {
        let rows = PRESETS.iter().filter(|p| p.overlap);
        rows.filter(|p| matches!(p.workload.nodes, Nodes::Machine(_)))
    }

    /// Serialized injections stay pending until a round; only the hybrid
    /// preset's async broadcasts may already be in flight.
    #[test]
    fn single_group_injections_wait_for_a_round() {
        for p in PRESETS.iter() {
            let Nodes::Machine(_) = p.workload.nodes else {
                continue;
            };
            let built = p.build_machines(&CommuteMatrix::new(), None);
            for &seq in &built.net.pending_msgs() {
                let msg = &built.net.pending_msg(seq).unwrap().msg;
                assert!(
                    built.hybrid && matches!(msg, Msg::AsyncOp { .. }),
                    "{}: unexpected in-flight {msg:?}",
                    p.name
                );
            }
            let master = built.net.actor(MachineId::new(0)).unwrap();
            assert!(master.pending_len() > 0, "{}", p.name);
        }
    }

    /// The first path the explorer walks on an `-overlap` row -- the tick as
    /// soon as it begins a round under another, else the lowest-seq
    /// delivery -- really has two rounds in flight, and its second wave is
    /// issued between a flush and the apply: those operations are replayed
    /// once and commit on their third execution (a fourth would trip the
    /// step oracle), within the explored window.
    #[test]
    fn overlap_rows_begin_a_round_under_another_that_carries_the_second_wave() {
        for p in single_group_overlap_rows() {
            let mut built = p.build_machines(&CommuteMatrix::new(), None);
            assert!(!built.wave.is_empty(), "{}", p.name);
            walk_overlap_path(&mut built);
            assert!(built.wave.is_empty(), "{}: the wave was issued", p.name);
            let machine = |i| built.net.actor(MachineId::new(i)).unwrap();
            let overlapped = machine(0).stats().rounds_overlapped;
            assert_eq!(overlapped, u64::from(p.tick_budget()), "{}", p.name);
            let thrice = |i| machine(i).stats().exec_histogram[3];
            assert!((0..p.eager).map(thrice).sum::<u64>() > 0, "{}", p.name);
            let pending = |i| machine(i).pending_len();
            assert_eq!((0..p.eager).map(pending).sum::<usize>(), 0, "{}", p.name);
        }
    }

    /// The tick budget follows the explored rounds: with a third round
    /// (`mc --rounds 3`), an `-overlap` row's first path begins both rounds
    /// after the first under the one before.
    #[test]
    fn an_overlap_row_begins_every_round_after_the_first_under_another() {
        for p in single_group_overlap_rows() {
            let p = Preset { rounds: 3, ..*p };
            let mut built = p.build_machines(&CommuteMatrix::new(), None);
            walk_overlap_path(&mut built);
            let master = built.net.actor(MachineId::new(0)).unwrap();
            assert_eq!(master.stats().rounds_overlapped, 2, "{}", p.name);
        }
    }

    /// The `-overlap` row's first path -- the tick as soon as it begins a
    /// round under another, else the lowest-seq delivery -- has two rounds
    /// of each group in flight, and both second-wave operations are issued
    /// and committed inside the explored window.
    #[test]
    fn the_cross_group_overlap_row_begins_a_group_round_under_another() {
        let preset = Preset::by_name("cross-group-overlap").expect("in the table");
        let Nodes::Multi(create) = preset.workload.nodes else {
            panic!("a multi-group row");
        };
        let matrix = CommuteMatrix::new();
        let mut built: Built<MultiMachine> =
            Built::new(preset, create, &matrix, None).expect("no tamper to refuse");
        assert_eq!(built.wave.len(), 2);
        walk_overlap_path(&mut built);
        assert!(built.wave.is_empty(), "the wave was issued");
        let mut masters = built.machines().filter(|m| m.is_master());
        assert!(
            masters.all(|m| m.stats().rounds_overlapped >= 1),
            "in each group"
        );
        assert_eq!(built.machines().map(Machine::pending_len).sum::<usize>(), 0);
    }

    /// Drives `built` down the deterministic road -- the lowest-seq
    /// delivery, then admission, a timer only when quiet -- to the end of
    /// the window or the first step that trips an oracle; returns the path.
    fn drain_path(built: &mut dyn Cluster) -> Vec<Step> {
        let mut path = Vec::new();
        loop {
            let next = if let Some(&seq) = built.pending_msgs().first() {
                Step::Deliver(seq)
            } else if let Some(&j) = built.pending_joins().first() {
                Step::Admit(j)
            } else if built.window_done() {
                return path;
            } else {
                Step::Timer
            };
            assert!(built.exec(next), "drain stalled at {next}");
            path.push(next);
            if built.check_step().is_some() {
                return path;
            }
        }
    }

    /// What a run has come to: the step oracles on its state, then, once it
    /// is quiet, the terminal ones.
    fn verdict(built: &dyn Cluster) -> Option<Violation> {
        built.check_step().or_else(|| {
            let quiet = built.pending_msgs().is_empty() && built.window_done();
            quiet.then(|| built.check_terminal()).flatten()
        })
    }

    /// Forks a row's cluster -- [`Cluster::fork`] is [`Built`]'s `clone` --
    /// at every prefix of `path` (by default the row's deterministic drain)
    /// and runs each fork along the rest of it: every fork takes the same
    /// steps as, and ends in the state, verdict and tamper count of, a
    /// cluster rebuilt from the row and replayed along the whole path.
    fn forks_end_where_the_replay_does<N: Node>(
        preset: &Preset,
        create: fn(&mut N, &mut Ctx<'_, N::Msg>) -> ObjectId,
        tamper: Option<TamperSpec>,
        path: Option<&[Step]>,
    ) {
        let matrix = CommuteMatrix::new();
        let rebuild = || Built::new(preset, create, &matrix, tamper).expect("installs");
        let path = path.map_or_else(|| drain_path(&mut rebuild()), <[Step]>::to_vec);
        let end = |b: &Built<N>| (b.state_digest(), verdict(b), b.net.tamper_count());
        let mut replayed = rebuild();
        let applied: Vec<bool> = path.iter().map(|&s| replayed.exec(s)).collect();
        let want = end(&replayed);
        let mut walker = rebuild();
        for k in 0..=path.len() {
            let mut fork = walker.clone();
            for (i, &s) in path.iter().enumerate().skip(k) {
                let name = preset.name;
                assert_eq!(fork.exec(s), applied[i], "{name}: step {i}, forked at {k}");
            }
            assert_eq!(end(&fork), want, "{}: forked at {k}", preset.name);
            if let Some(&s) = path.get(k) {
                walker.exec(s);
            }
        }
    }

    /// [`forks_end_where_the_replay_does`] for a row of either node kind.
    fn fork_row(preset: &Preset, tamper: Option<TamperSpec>, path: Option<&[Step]>) {
        match preset.workload.nodes {
            Nodes::Machine(create) => forks_end_where_the_replay_does(preset, create, tamper, path),
            Nodes::Multi(create) => forks_end_where_the_replay_does(preset, create, tamper, path),
        }
    }

    /// On every public row's deterministic drain, and on the checked-in
    /// schedule whose tamper hook swaps a batch, a fork at any point runs on
    /// exactly as the rebuilt-and-replayed cluster does.
    #[test]
    fn a_fork_at_any_prefix_ends_where_the_replay_does() {
        for p in PRESETS {
            fork_row(p, None, None);
        }
        let text = include_str!("../../../tests/schedules/sudoku-tamper-swap.json");
        let sched = crate::schedule::Schedule::from_json(text).expect("well-formed");
        let preset = Preset::by_name(&sched.preset).expect("known row");
        assert!(sched.tamper.is_some());
        fork_row(preset, sched.tamper, Some(&sched.steps));
    }

    #[test]
    fn hybrid_preset_commits_asyncs_at_issue() {
        let p = Preset::by_name("message_board").unwrap();
        let built = p.build_machines(&CommuteMatrix::new(), None);
        // Machine 0's injections: one serialized post (pending) and one
        // async like (committed at issue, on top of the 2 prelude ops).
        let m0 = built.net.actor(MachineId::new(0)).unwrap();
        assert_eq!(m0.completed_len(), 3);
        assert_eq!(m0.completed_serialized().len(), 2);
        assert_eq!(m0.pending_len(), 1);
        // Machine 1 issued two async likes and nothing serialized.
        let m1 = built.net.actor(MachineId::new(1)).unwrap();
        assert_eq!(m1.completed_len(), 4);
        assert_eq!(m1.pending_len(), 0);
        // Each like broadcast to the two peers: 3 likes * 2 = 6 in flight.
        assert_eq!(built.net.pending_msgs().len(), 6);
    }
}

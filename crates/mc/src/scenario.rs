//! Checking scenarios: small clusters with conflicting workloads.
//!
//! A preset builds a real [`Machine`] cluster under the controlled
//! scheduler ([`SchedNet`]), runs a **deterministic prelude** (membership
//! handshakes and one synchronization that commits the app objects
//! everywhere — uninteresting to explore, identical on every branch),
//! then injects each machine's pending operations. Exploration starts
//! from that state: the first choice is typically the master's sync tick.
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
//! double replay would push past three executions.
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
//! re-piggyback repair. The `cross-group` preset builds `MultiMachine`
//! nodes instead of bare machines (see [`crate::multigroup`]); whatever
//! a scenario builds, the shared harness drives it as a [`Cluster`].

use std::sync::Arc;

use guesstimate_apps::{auction, event_planner, message_board, sudoku};
use guesstimate_core::{CommuteMatrix, MachineId, ObjectId, OpRegistry, SharedOp};
use guesstimate_net::{Actor, SchedNet, SimTime, Tracer};
use guesstimate_runtime::commute::wire_ops_commute;
use guesstimate_runtime::{Machine, MachineConfig, Msg, StateSummary, WireEnvelope};

use crate::multigroup::{self, CROSS_GROUP};
use crate::oracle::{self, Violation};
use crate::schedule::{Step, TamperSpec};

/// A built scenario as the shared harness sees it: the scheduler's
/// surface (the first four methods, the same for every node type), then
/// what a scenario judges for itself.
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
}

/// Executes one choice against a cluster of any node type.
pub(crate) fn exec_step<A: Actor>(net: &mut SchedNet<A>, s: Step) -> bool {
    match s {
        Step::Deliver(q) => net.deliver(q),
        Step::Drop(q) => net.drop_msg(q),
        Step::Admit(q) => net.admit(q),
        Step::Timer => net.fire_next_timer(),
    }
}

/// The deterministic prelude: always deliver the lowest-seq message, fire
/// a timer only when quiet, until `settled`. Every branch of the
/// exploration replays this identically, so it contributes no choice
/// points; failing to converge is a harness or protocol bug and panics.
pub(crate) fn run_prelude<A: Actor>(net: &mut SchedNet<A>, settled: impl Fn(&SchedNet<A>) -> bool) {
    for _ in 0..100_000 {
        if let Some(&seq) = net.pending_msgs().first() {
            net.deliver(seq);
        } else if settled(net) {
            return;
        } else {
            assert!(net.fire_next_timer(), "prelude stalled with no timers");
        }
    }
    panic!("prelude failed to converge");
}

/// Fixture for the `sneaky` negative preset: a two-slot map whose
/// `mirror` method deliberately **under-declares** its footprint — it
/// copies `src` into `dst` while admitting only to touching `dst`. The
/// commute matrix and independence judgments built on that declaration
/// are unsound for it, which is exactly what the witness-containment
/// oracle must report.
mod sneaky {
    use std::collections::BTreeMap;

    use guesstimate_core::{
        args, EffectSpec, Footprint, GState, ObjectId, OpRegistry, RestoreError, SharedOp, Value,
    };

    /// Two integer slots, `src` and `dst`.
    #[derive(Clone, Default, Debug)]
    pub struct Mirror {
        pub m: BTreeMap<String, i64>,
    }

    impl GState for Mirror {
        const TYPE_NAME: &'static str = "Mirror";
        fn snapshot(&self) -> Value {
            Value::Map(
                self.m
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            )
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            let Value::Map(m) = v else {
                return Err(RestoreError::shape("map"));
            };
            self.m = m
                .iter()
                .map(|(k, v)| {
                    v.as_i64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| RestoreError::shape("i64 slot"))
                })
                .collect::<Result<_, _>>()?;
            Ok(())
        }
    }

    pub fn register(reg: &mut OpRegistry) {
        reg.register_type::<Mirror>();
        // Honest: `bump(k, d)` reads and writes exactly slot `k`.
        reg.register_with_effects::<Mirror>(
            "bump",
            EffectSpec::new(|a| {
                let Some(k) = a.str(0) else {
                    return Footprint::new();
                };
                Footprint::new().reads([k]).writes([k])
            }),
            |s: &mut Mirror, a| {
                let (Some(k), Some(d)) = (a.str(0), a.i64(1)) else {
                    return false;
                };
                *s.m.entry(k.to_owned()).or_insert(0) += d;
                true
            },
        );
        // Under-declared: actually reads `src`, declares only `dst`.
        reg.register_with_effects::<Mirror>(
            "mirror",
            EffectSpec::new(|_| Footprint::new().reads(["dst"]).writes(["dst"])),
            |s: &mut Mirror, _| {
                let Some(v) = s.m.get("src").copied() else {
                    return false;
                };
                s.m.insert("dst".to_owned(), v);
                true
            },
        );
    }

    pub fn bump(obj: ObjectId, k: &str, d: i64) -> SharedOp {
        SharedOp::primitive(obj, "bump", args![k, d])
    }

    pub fn mirror(obj: ObjectId) -> SharedOp {
        SharedOp::primitive(obj, "mirror", args![])
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
mod miskeyed {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use guesstimate_core::{
        args, ComponentPlan, EffectSpec, Footprint, GState, ObjectId, OpRegistry, PathPattern,
        RestoreError, Routing, ShardPlan, SharedOp, TypePlan, Value,
    };

    /// Per-topic post tallies, snapshotted under a `topics` subtree so
    /// footprint paths have the shape `topics/{topic}`.
    #[derive(Clone, Default, Debug)]
    pub struct Board {
        pub topics: BTreeMap<String, i64>,
    }

    impl GState for Board {
        const TYPE_NAME: &'static str = "KeyedBoard";
        fn snapshot(&self) -> Value {
            Value::Map(
                [(
                    "topics".to_owned(),
                    Value::Map(
                        self.topics
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::from(*v)))
                            .collect(),
                    ),
                )]
                .into(),
            )
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            let Value::Map(m) = v else {
                return Err(RestoreError::shape("map"));
            };
            let Some(Value::Map(topics)) = m.get("topics") else {
                return Err(RestoreError::shape("topics map"));
            };
            self.topics = topics
                .iter()
                .map(|(k, v)| {
                    v.as_i64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| RestoreError::shape("i64 tally"))
                })
                .collect::<Result<_, _>>()?;
            Ok(())
        }
    }

    pub fn register(reg: &mut OpRegistry) {
        reg.register_type::<Board>();
        // Honest: `post(topic, author)` reads and writes `topics/{topic}`.
        reg.register_with_effects::<Board>(
            "post",
            EffectSpec::new(|a| match a.str(0) {
                Some(t) => Footprint::new()
                    .reads([format!("topics/{t}")])
                    .writes([format!("topics/{t}")]),
                None => Footprint::new(),
            }),
            |s: &mut Board, a| {
                let (Some(t), Some(_author)) = (a.str(0), a.str(1)) else {
                    return false;
                };
                *s.topics.entry(t.to_owned()).or_insert(0) += 1;
                true
            },
        );
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

    pub fn post(obj: ObjectId, topic: &str, author: &str) -> SharedOp {
        SharedOp::primitive(obj, "post", args![topic, author])
    }
}

/// One checking scenario.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    /// Preset name (also selects the application).
    pub name: &'static str,
    /// Machines present from the start (machine 0 is the master).
    pub eager: u32,
    /// Stage one additional machine whose admission is a choice point.
    pub late_join: bool,
    /// Synchronization rounds to explore after injection.
    pub rounds: u64,
    /// How many messages the explorer may drop per schedule.
    pub drop_budget: u32,
    /// Enable the hybrid commit path (`async_commit`): eligible
    /// injections broadcast as `Msg::AsyncOp` and commit without rounds.
    pub hybrid: bool,
    /// Stage-1 flush mode (`MachineConfig::parallel_flush`): `true` is the
    /// runtime's default, `false` the paper's serial turn-taking. A
    /// schedule's `seq` numbers index one mode's rounds, so each row keeps
    /// the mode its checked-in schedules were recorded under.
    pub parallel_flush: bool,
    /// How many rounds per schedule the explorer may begin *under* another:
    /// while one is positive it may fire the master's tick with messages in
    /// flight, whenever that starts round r + 1 beside round r in stage 2
    /// (the other timers stay quiet-phase choices). Positive rows also
    /// inject `Preset::second_wave`.
    pub tick_budget: u32,
    /// One-line description for `mc --list`.
    pub blurb: &'static str,
}

const SUDOKU: Preset = Preset {
    name: "sudoku",
    eager: 3,
    late_join: false,
    rounds: 2,
    drop_budget: 0,
    hybrid: false,
    parallel_flush: false,
    tick_budget: 0,
    blurb: "3 machines; same-cell update/clear conflict vs disjoint-unit moves",
};

const AUCTION: Preset = Preset {
    name: "auction",
    eager: 2,
    late_join: true,
    rounds: 2,
    drop_budget: 0,
    hybrid: false,
    parallel_flush: false,
    tick_budget: 0,
    blurb: "2 machines + late joiner; dueling first-bids vs cross-item bids",
};

const EVENT_PLANNER: Preset = Preset {
    name: "event_planner",
    eager: 2,
    late_join: false,
    rounds: 3,
    drop_budget: 2,
    hybrid: false,
    parallel_flush: false,
    tick_budget: 0,
    blurb: "2 machines, lossy network; last-seat race plus recovery paths",
};

const MESSAGE_BOARD: Preset = Preset {
    name: "message_board",
    eager: 3,
    late_join: false,
    rounds: 2,
    drop_budget: 2,
    hybrid: true,
    parallel_flush: false,
    tick_budget: 0,
    blurb: "3 machines, lossy, hybrid commit; async likes vs serialized same-topic posts",
};

const CROSS: Preset = Preset {
    name: CROSS_GROUP,
    eager: 3,
    late_join: false,
    rounds: 2,
    drop_budget: 0,
    hybrid: false,
    parallel_flush: false,
    tick_budget: 0,
    blurb: "3 nodes x 2 sync groups; per-group rounds + one coordinated cross round",
};

/// All built-in presets: each scenario under the paper's serial flush (the
/// mode the checked-in schedules were recorded under), then again — same
/// machines, workload and budgets — under the parallel flush that
/// `MachineConfig::default()` ships, then with one round per schedule
/// begun under another and a second wave of operations. `auction-parallel`
/// explores a third round: with the master's batch inside `BeginApply` its
/// two-round tree is 6 823 schedules in all, short of the 10 000 the
/// `--min-schedules` gate of `check.sh mc` asks of every row.
pub const PRESETS: &[Preset] = &[
    SUDOKU,
    AUCTION,
    EVENT_PLANNER,
    MESSAGE_BOARD,
    CROSS,
    SUDOKU.parallel("sudoku-parallel"),
    Preset {
        rounds: 3,
        ..AUCTION
    }
    .parallel("auction-parallel"),
    EVENT_PLANNER.parallel("event_planner-parallel"),
    MESSAGE_BOARD.parallel("message_board-parallel"),
    CROSS.parallel("cross-group-parallel"),
    SUDOKU.overlap("sudoku-overlap"),
    AUCTION.overlap("auction-overlap"),
    EVENT_PLANNER.overlap("event_planner-overlap"),
    MESSAGE_BOARD.overlap("message_board-overlap"),
    CROSS.overlap("cross-group-overlap"),
];

/// Negative-test preset: a deliberately **under-declared** workload the
/// witness-containment oracle must catch (its `mirror` injection reads
/// `src` while declaring only `dst`; see the `sneaky` module). Not listed in
/// [`PRESETS`] — the positive suites iterate those and this one violates
/// by design — but reachable through [`Preset::by_name`], so `mc
/// --preset sneaky` and schedule replays resolve it. Built with
/// `witness_reads` on and `witness_assert` off: escapes are *recorded*
/// on the machine for the oracle to report (and ddmin to shrink) instead
/// of aborting mid-delivery.
pub const SNEAKY: Preset = Preset {
    name: "sneaky",
    eager: 2,
    late_join: false,
    rounds: 2,
    drop_budget: 0,
    hybrid: false,
    parallel_flush: false,
    tick_budget: 0,
    blurb: "negative test: under-declared read the witness oracle must catch",
};

/// Negative-test preset: an honestly-declared workload under a
/// deliberately **mis-keyed** shard plan (its `post` route keys by the
/// author argument instead of the topic; see the `miskeyed` module).
/// Hidden from [`PRESETS`] like [`SNEAKY`] — it violates by design — but
/// reachable through [`Preset::by_name`], so `mc --preset miskeyed` and
/// schedule replays resolve it. Built with `witness_assert` off: shard
/// escapes are *recorded* on the machine for the `ShardEscape` oracle to
/// report (and ddmin to shrink) instead of aborting mid-delivery.
pub const MISKEYED: Preset = Preset {
    name: "miskeyed",
    eager: 2,
    late_join: false,
    rounds: 2,
    drop_budget: 0,
    hybrid: false,
    parallel_flush: false,
    tick_budget: 0,
    blurb: "negative test: mis-keyed shard plan the shard-escape oracle must catch",
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

    /// This scenario under the parallel flush, as a row of its own.
    const fn parallel(self, name: &'static str) -> Preset {
        Preset {
            name,
            parallel_flush: true,
            ..self
        }
    }

    /// This scenario with two rounds in flight, as a row of its own: the
    /// parallel flush, every explored round after the first begun under the
    /// one before it, and the second wave of operations.
    const fn overlap(self, name: &'static str) -> Preset {
        Preset {
            name,
            parallel_flush: true,
            tick_budget: self.rounds as u32 - 1,
            ..self
        }
    }

    /// The scenario a row runs — its name without the mode suffix. Selects
    /// the application, workload and cluster shape.
    pub fn app(&self) -> &'static str {
        let name = self.name;
        let bare = name.strip_suffix("-parallel");
        bare.or(name.strip_suffix("-overlap")).unwrap_or(name)
    }

    /// Total machines once the staged joiner (if any) is admitted.
    pub fn total_machines(&self) -> u32 {
        self.eager + u32::from(self.late_join)
    }

    fn registry(&self) -> OpRegistry {
        let mut reg = OpRegistry::new();
        match self.app() {
            "sudoku" => sudoku::register(&mut reg),
            "auction" => auction::register(&mut reg),
            "event_planner" => event_planner::register(&mut reg),
            "message_board" => message_board::register(&mut reg),
            "sneaky" => sneaky::register(&mut reg),
            "miskeyed" => miskeyed::register(&mut reg),
            other => unreachable!("unknown preset {other}"),
        }
        reg
    }

    /// The commute matrix the scenario runs under: the caller's matrix
    /// (typically loaded from an `analyze --json` archive via `mc
    /// --matrix`) extended with the preset's baseline pairs. The hybrid
    /// preset needs `like`'s rows present even when no archive is given —
    /// an empty matrix would silently classify every method as serialized
    /// and the async path would never run. The inserted pairs mirror what
    /// `analyze` validates for `MessageBoard`; inserting an
    /// already-present pair is a no-op, so an archive matrix passes
    /// through unchanged.
    pub fn effective_matrix(&self, given: &CommuteMatrix) -> CommuteMatrix {
        let mut m = given.clone();
        if self.app() == "message_board" {
            for other in ["like", "post", "create_topic"] {
                m.insert("MessageBoard", "like", other);
            }
        }
        m
    }

    /// Creates the app object on the master and issues the ops that the
    /// deterministic prelude must commit before exploration starts.
    /// Returns the object id and the number of ops issued (incl. the
    /// creation).
    fn prelude_ops(&self, master: &mut Machine) -> (ObjectId, u64) {
        match self.app() {
            "sudoku" => (master.create_instance(sudoku::Sudoku::new()), 1),
            "auction" => {
                let obj = master.create_instance(auction::Auction::new());
                for op in [
                    auction::ops::list_item(obj, "lamp", "seller", 10, 5),
                    auction::ops::list_item(obj, "rug", "seller", 5, 1),
                ] {
                    assert!(
                        master.issue(op).expect("prelude issue"),
                        "prelude op failed"
                    );
                }
                (obj, 3)
            }
            "event_planner" => {
                let obj = master.create_instance(event_planner::EventPlanner::with_quota(2));
                for op in [
                    event_planner::ops::register_user(obj, "ann", "pw"),
                    event_planner::ops::register_user(obj, "bob", "pw"),
                    event_planner::ops::create_event(obj, "party", 1),
                    event_planner::ops::create_event(obj, "dinner", 2),
                ] {
                    assert!(
                        master.issue(op).expect("prelude issue"),
                        "prelude op failed"
                    );
                }
                (obj, 5)
            }
            "message_board" => {
                let obj = master.create_instance(message_board::MessageBoard::new());
                assert!(
                    master
                        .issue(message_board::ops::create_topic(obj, "general"))
                        .expect("prelude issue"),
                    "prelude op failed"
                );
                (obj, 2)
            }
            "sneaky" => {
                let obj = master.create_instance(sneaky::Mirror {
                    m: [("src".to_owned(), 1), ("dst".to_owned(), 0)].into(),
                });
                (obj, 1)
            }
            "miskeyed" => (master.create_instance(miskeyed::Board::default()), 1),
            other => unreachable!("unknown preset {other}"),
        }
    }

    /// The per-machine operations injected after the prelude — the
    /// workload whose interleavings are explored.
    fn injections(&self, obj: ObjectId) -> Vec<(u32, SharedOp)> {
        match self.app() {
            "sudoku" => vec![
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
            "auction" => vec![
                // Dueling first-bids at the reserve: the commit order
                // decides the winner, the loser's bid fails.
                (0, auction::ops::bid(obj, "lamp", "ann", 10)),
                (1, auction::ops::bid(obj, "lamp", "bob", 10)),
                // A bid on the other item commutes with both.
                (1, auction::ops::bid(obj, "rug", "carol", 5)),
            ],
            "event_planner" => vec![
                // The last-seat race for `party` (capacity 1).
                (0, event_planner::ops::join(obj, "ann", "party")),
                (1, event_planner::ops::join(obj, "bob", "party")),
                // A fresh registration touches only `users/carol`.
                (0, event_planner::ops::register_user(obj, "carol", "pw")),
            ],
            "message_board" => vec![
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
            "sneaky" => vec![
                // Honest slot bump on the master.
                (0, sneaky::bump(obj, "src", 1)),
                // The under-declared mirror: its hidden read of `src` is
                // recorded the moment machine 1 issues it, so the witness
                // oracle fires on the very first explored step.
                (1, sneaky::mirror(obj)),
            ],
            "miskeyed" => vec![
                // Honest posts. The mis-keyed plan routes each by its
                // author, so the first round commit lands `topics/news`
                // in shard `KeyedBoard:0/ann` (and `topics/sport` in
                // `KeyedBoard:0/bob`) — escapes the shard containment
                // check records on every machine.
                (0, miskeyed::post(obj, "news", "ann")),
                (1, miskeyed::post(obj, "sport", "bob")),
            ],
            other => unreachable!("unknown preset {other}"),
        }
    }

    /// The second wave of the `-overlap` rows: what each machine issues the
    /// moment it has flushed the first explored round, so that the round
    /// begun under that one carries operations issued between a machine's
    /// flush and its apply. Empty for every other row.
    fn second_wave(&self, obj: ObjectId) -> Vec<(u32, SharedOp)> {
        if self.tick_budget == 0 {
            return Vec::new();
        }
        match self.app() {
            "sudoku" => vec![
                // The cell machine 0's first-wave pair fills and clears: two
                // machines race for it in the overlapped round.
                (1, sudoku::ops::update(obj, 1, 1, 9)),
                (2, sudoku::ops::update(obj, 1, 1, 2)),
                // A move in units nobody else touches.
                (0, sudoku::ops::update(obj, 8, 4, 6)),
            ],
            "auction" => vec![
                // Raises over whichever first-bid the first round commits.
                (1, auction::ops::bid(obj, "lamp", "erin", 15)),
                (0, auction::ops::bid(obj, "rug", "dave", 6)),
            ],
            "event_planner" => vec![
                // `dinner` has two seats: both joins fit, in either order.
                (0, event_planner::ops::join(obj, "ann", "dinner")),
                (1, event_planner::ops::join(obj, "bob", "dinner")),
            ],
            "message_board" => vec![
                // A third post to the contested topic (serialized), and
                // likes that enter the async window after the first flush:
                // the overlapped round's flush must fence them, and only
                // them.
                (1, message_board::ops::post(obj, "general", "cat", "ok")),
                (0, message_board::ops::like(obj, "general")),
                (2, message_board::ops::like(obj, "general")),
            ],
            other => unreachable!("no second wave for preset {other}"),
        }
    }

    /// Builds the scenario behind the [`Cluster`] interface — the one
    /// place a name selects a cluster shape rather than an application.
    ///
    /// # Errors
    ///
    /// Names the scenario when it cannot install `tamper`.
    pub fn build(
        &self,
        matrix: &CommuteMatrix,
        tamper: Option<TamperSpec>,
    ) -> Result<Box<dyn Cluster>, String> {
        Ok(if self.app() == CROSS_GROUP {
            Box::new(multigroup::build(self, tamper)?)
        } else {
            Box::new(self.build_machines(matrix, tamper))
        })
    }

    /// Builds the single-group cluster, runs the deterministic prelude,
    /// injects the workload, stages the late joiner, and installs the
    /// tamper hook.
    ///
    /// # Panics
    ///
    /// Panics if the prelude fails to converge — that is a bug in either
    /// the protocol or the harness, not an explorable behavior.
    pub fn build_machines(&self, matrix: &CommuteMatrix, tamper: Option<TamperSpec>) -> Built {
        // Resolve the matrix once: the preset's baseline pairs (which arm
        // the hybrid path) must feed the POR independence relation and the
        // machines' own classification identically.
        let matrix = self.effective_matrix(matrix);
        let registry = Arc::new(self.registry());
        // Timeout spacing mirrors deployment ratios (tick < join retry <
        // stall) so timer-only phases preserve protocol behavior; absolute
        // values are irrelevant under the controlled clock.
        let mut cfg = MachineConfig::default()
            .with_sync_period(SimTime::from_millis(100))
            .with_join_retry(SimTime::from_millis(300))
            .with_stall_timeout(SimTime::from_millis(500))
            .with_record_history(true)
            .with_paranoid_checks(true)
            .with_async_commit(self.hybrid)
            .with_parallel_flush(self.parallel_flush)
            .with_commute_matrix(matrix.clone())
            // The negative presets record escapes instead of asserting, so
            // an oracle (not a mid-delivery debug_assert) is what reports
            // them: `sneaky` additionally probes for undeclared reads.
            .with_witness_reads(self.name == "sneaky")
            .with_witness_assert(!matches!(self.name, "sneaky" | "miskeyed"));
        if self.name == "miskeyed" {
            // The deliberately wrong plan the shard containment check —
            // and the checker's ShardEscape oracle — must catch.
            cfg = cfg.with_shard_plan(miskeyed::plan());
        }

        let mut net: SchedNet<Machine> = SchedNet::new();
        net.add_machine(
            MachineId::new(0),
            Machine::new_master(MachineId::new(0), registry.clone(), cfg.clone()),
        );
        for i in 1..self.eager {
            net.add_machine(
                MachineId::new(i),
                Machine::new_member(MachineId::new(i), registry.clone(), cfg.clone()),
            );
        }
        let (obj, prelude_ops) =
            self.prelude_ops(net.actor_mut(MachineId::new(0)).expect("master added"));

        run_prelude(&mut net, |net| {
            (0..self.eager).all(|i| {
                let m = net.actor(MachineId::new(i)).expect("member");
                m.in_cohort() && m.completed_len() == prelude_ops as usize
            })
        });

        // Injections for machines beyond `eager` are dropped so tests can
        // shrink a preset (fewer machines → exhaustible tree) without
        // re-specifying its workload.
        for (machine, op) in self
            .injections(obj)
            .into_iter()
            .filter(|&(m, _)| m < self.eager)
        {
            inject(&mut net, self.hybrid, machine, op);
        }

        if self.late_join {
            let id = MachineId::new(self.eager);
            net.stage_join(id, Machine::new_member(id, registry.clone(), cfg.clone()));
        }

        if let Some(t) = tamper {
            let victim = MachineId::new(t.victim);
            let (i, j) = t.swap;
            let mut seen = 0u64;
            net.set_tamper(Box::new(move |_seq, _from, to, msg: &mut Msg| {
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
                seen += 1;
                if seen != t.nth || i == j || i >= ops.len() || j >= ops.len() {
                    return false;
                }
                // Swap the *ids*: a receiver re-sorts a batch that arrives
                // out of id order and applies it in id order, so this
                // inverts the victim's commit order for the two operations.
                // The batch is shared behind an Arc; clone-on-write so only
                // this delivery is corrupted.
                let ops = std::sync::Arc::make_mut(ops);
                let a = ops[i].id;
                ops[i].id = ops[j].id;
                ops[j].id = a;
                true
            }));
        }

        let base_rounds = net
            .actor(MachineId::new(0))
            .expect("master")
            .stats()
            .syncs_seen;
        let wave = self.second_wave(obj);
        let wave = wave.into_iter().filter(|&(m, _)| m < self.eager).collect();
        Built {
            net,
            registry,
            matrix,
            preset: *self,
            base_rounds,
            wave,
        }
    }
}

/// Issues `op` on `machine`, which must take it.
fn inject(net: &mut SchedNet<Machine>, hybrid: bool, machine: u32, op: SharedOp) {
    let mut issued = None;
    // The hybrid issue path may broadcast an AsyncOp, so it needs a network
    // context; the resulting in-flight messages become exploration choices
    // like any other.
    let ran = net.call(MachineId::new(machine), |m, ctx| {
        let took = if hybrid {
            m.issue_hybrid(op, None, ctx)
        } else {
            m.issue(op)
        };
        issued = Some(took.expect("injection references known objects"));
    });
    assert!(ran, "machine exists");
    assert_eq!(issued, Some(true), "injected op failed at issue");
}

/// A built single-group scenario, ready for exploration or replay.
#[derive(Debug)]
pub struct Built {
    /// The cluster under the controlled scheduler.
    pub net: SchedNet<Machine>,
    /// The shared operation registry (also used by oracles).
    pub registry: Arc<OpRegistry>,
    /// The matrix the machines run under ([`Preset::effective_matrix`]).
    pub matrix: CommuteMatrix,
    /// The preset this was built from.
    pub preset: Preset,
    /// The master's sync count at the end of the prelude; exploration
    /// targets `base_rounds + preset.rounds`.
    pub base_rounds: u64,
    /// The second-wave operations not yet issued (`Preset::second_wave`).
    wave: Vec<(u32, SharedOp)>,
}

impl Built {
    /// Issues the second-wave operations of every machine that has just
    /// flushed the first explored round (under the parallel flush the
    /// `-overlap` rows run, a member as it installs the round, the master as
    /// stage 1 closes) while that round is still in flight. A function of
    /// the machines' state, so a replayed prefix injects at the same steps.
    fn inject_wave(&mut self) {
        let master = self.net.actor(MachineId::new(0)).expect("master");
        if self.wave.is_empty() || master.stats().syncs_seen > self.base_rounds {
            return;
        }
        let flushed = |net: &SchedNet<Machine>, machine: u32| {
            let m = net.actor(MachineId::new(machine)).expect("eager machine");
            m.flushed_round().is_some()
        };
        let (now, later) = std::mem::take(&mut self.wave)
            .into_iter()
            .partition(|&(m, _)| flushed(&self.net, m));
        self.wave = later;
        for (machine, op) in now {
            inject(&mut self.net, self.preset.hybrid, machine, op);
        }
    }
}

impl Cluster for Built {
    fn exec(&mut self, s: Step) -> bool {
        let applied = exec_step(&mut self.net, s);
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

    fn overlap_tick_ready(&self) -> bool {
        let master = self.net.actor(MachineId::new(0)).expect("master");
        master.stats().rounds_overlapped < u64::from(self.preset.tick_budget)
            && master.overlap_tick_due() == self.net.next_timer_due()
    }

    fn window_done(&self) -> bool {
        let master = self.net.actor(MachineId::new(0)).expect("master");
        master.stats().syncs_seen >= self.base_rounds + self.preset.rounds
    }

    /// The same-machine rules of the [`mod@crate::explore`] module docs.
    fn deliveries_independent(&self, x: u64, y: u64) -> bool {
        let net = &self.net;
        let (Some(px), Some(py)) = (net.pending_msg(x), net.pending_msg(y)) else {
            return false;
        };
        if px.to != py.to {
            return true;
        }
        let Some(target) = net.actor(px.to) else {
            return false;
        };
        let type_of = |oid| target.object_type(oid).map(str::to_owned);
        let commute = |ea: &WireEnvelope, eb: &WireEnvelope| {
            wire_ops_commute(&self.registry, &self.matrix, &type_of, &ea.op, &eb.op)
        };
        // Envelopes a message applies (or stages) at the receiver:
        // serialized batch plus the piggybacked async window for Ops,
        // the single envelope for a standalone AsyncOp.
        match (&px.msg, &py.msg) {
            (
                Msg::Ops {
                    round: ra,
                    machine: sa,
                    ops: oa,
                    asyncs: aa,
                },
                Msg::Ops {
                    round: rb,
                    machine: sb,
                    ops: ob,
                    asyncs: ab,
                },
            ) => {
                if ra != rb || sa == sb {
                    return false;
                }
                let ea = oa.iter().chain(aa.iter().map(|(_, e)| e));
                ea.clone().all(|a| {
                    ob.iter()
                        .chain(ab.iter().map(|(_, e)| e))
                        .all(|b| commute(a, b))
                })
            }
            (Msg::AsyncOp { env: ea, .. }, Msg::AsyncOp { env: eb, .. }) => {
                // Same-sender AsyncOps share an arrival-order slot.
                px.from != py.from && commute(ea, eb)
            }
            (
                Msg::AsyncOp { env, .. },
                Msg::Ops {
                    machine,
                    ops,
                    asyncs,
                    ..
                },
            )
            | (
                Msg::Ops {
                    machine,
                    ops,
                    asyncs,
                    ..
                },
                Msg::AsyncOp { env, .. },
            ) => {
                // The async op must commute with both the ops the
                // round will apply and the piggybacked window; a flush
                // from the async op's own sender shares its slot.
                let sender = if matches!(&px.msg, Msg::AsyncOp { .. }) {
                    px.from
                } else {
                    py.from
                };
                sender != *machine
                    && ops
                        .iter()
                        .chain(asyncs.iter().map(|(_, e)| e))
                        .all(|b| commute(env, b))
            }
            _ => false,
        }
    }

    fn check_step(&self) -> Option<Violation> {
        oracle::check_step(&self.net, self.preset.hybrid)
    }
    fn check_terminal(&self) -> Option<Violation> {
        oracle::check_terminal(&self.net, &self.registry, self.preset.total_machines())
    }
    fn state_digest(&self) -> u64 {
        oracle::state_digest(&self.net)
    }

    /// Every machine currently admitted to the net, in machine-id order.
    fn summaries(&self) -> Vec<StateSummary> {
        let ids = self.net.members();
        let machines = ids.iter().filter_map(|&id| self.net.actor(id));
        machines.map(Machine::state_summary).collect()
    }

    /// The staged joiner, not yet on the net, stays untraced.
    fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.net.set_tracer(tracer.clone());
        for id in self.net.members() {
            if let Some(m) = self.net.actor_mut(id) {
                m.set_tracer(tracer.clone());
            }
        }
    }
}

/// Walks the first path the explorer takes on an `-overlap` row -- the tick
/// as soon as it begins a round under another, else the lowest-seq delivery,
/// a timer when nothing is in flight -- under the step oracles, to the end
/// of the explored window and the terminal oracles.
#[cfg(test)]
pub(crate) fn walk_overlap_path(built: &mut dyn Cluster) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialized injections stay pending until a round; only the hybrid
    /// preset's async broadcasts may already be in flight.
    #[test]
    fn single_group_injections_wait_for_a_round() {
        for p in PRESETS.iter().filter(|p| p.app() != CROSS_GROUP) {
            let built = p.build_machines(&CommuteMatrix::new(), None);
            for &seq in &built.net.pending_msgs() {
                let msg = &built.net.pending_msg(seq).unwrap().msg;
                assert!(
                    p.hybrid && matches!(msg, Msg::AsyncOp { .. }),
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
        let rows = PRESETS.iter().filter(|p| p.tick_budget > 0);
        for p in rows.filter(|p| p.app() != CROSS_GROUP) {
            let mut built = p.build_machines(&CommuteMatrix::new(), None);
            assert!(!built.wave.is_empty(), "{}", p.name);
            walk_overlap_path(&mut built);
            assert!(built.wave.is_empty(), "{}: the wave was issued", p.name);
            let machine = |i| built.net.actor(MachineId::new(i)).unwrap();
            let overlapped = machine(0).stats().rounds_overlapped;
            assert_eq!(overlapped, u64::from(p.tick_budget), "{}", p.name);
            let thrice = |i| machine(i).stats().exec_histogram[3];
            assert!((0..p.eager).map(thrice).sum::<u64>() > 0, "{}", p.name);
            let pending = |i| machine(i).pending_len();
            assert_eq!((0..p.eager).map(pending).sum::<usize>(), 0, "{}", p.name);
        }
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

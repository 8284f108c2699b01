//! The six workloads: cluster shape, offered load, generated operations
//! and the tallies each replica must end up with.
//!
//! Every operation is chosen so that it succeeds at issue *and* at commit
//! whatever the interleaving: a failed operation is a benchmark fault.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use guesstimate_apps::message_board::{self, MessageBoard};
use guesstimate_apps::sudoku::{self, Sudoku};
use guesstimate_core::{
    args, CommuteMatrix, CompletionFn, ComponentPlan, ExecError, GState, MachineId, ObjectId,
    OpRegistry, PathPattern, RestoreError, Routing, ShardPlan, SharedOp, TypePlan, Value,
};
use guesstimate_net::{Actor, Ctx, SimTime};
use guesstimate_runtime::multigroup::{GroupTable, MultiClusterSpec};
use guesstimate_runtime::{GMsg, Machine, MachineConfig, Msg, MultiMachine};
use rand::rngs::StdRng;
use rand::Rng;

use crate::observe::Probe;

/// The workload names, in the order a full run executes them.
pub const NAMES: [&str; 6] = [
    "steady", "saturate", "bigstore", "hybrid", "sharded", "churn",
];

/// Which of a workload's request streams an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Closed loop: a fixed number of operations outstanding.
    Closed,
    /// Open loop: sent on a schedule.
    Open,
    /// Open loop of cross-group operations (multi-group clusters only).
    Cross,
}

/// A machine removed from the mesh and re-added fresh, repeatedly.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// First removal, measured from the start of the window.
    pub first: Duration,
    /// Removal-to-removal period.
    pub every: Duration,
    /// How long the machine stays out of the mesh.
    pub down_for: Duration,
}

impl Churn {
    /// Time a re-added machine is given to rejoin before the window closes.
    const REJOIN_ALLOWANCE: Duration = Duration::from_millis(250);

    /// Whether a removal `at` into a window of `window` leaves room for
    /// the whole outage and a rejoin; one that does not is not started.
    pub fn fits(&self, at: Duration, window: Duration) -> bool {
        at + self.down_for + Self::REJOIN_ALLOWANCE <= window
    }
}

/// Cluster shape and offered load.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Mesh size. With [`Spec::churn`] the last replica is the victim.
    pub replicas: u32,
    /// Replicas `0..issuers` issue operations.
    pub issuers: u32,
    /// Constant injected one-way link delay.
    pub link: Duration,
    /// Operations kept outstanding by the closed-loop stream.
    pub closed_window: Option<usize>,
    /// Total rate of the open-loop stream, operations per second.
    pub open_rate: Option<f64>,
    /// Total rate of the open-loop cross-group stream.
    pub cross_rate: Option<f64>,
    /// Fault schedule.
    pub churn: Option<Churn>,
    /// Whether every operation commits through rounds, so that all
    /// replicas must agree on one `C` sequence.
    pub serialized: bool,
}

impl Spec {
    /// The shortest window in which the load does everything it exists to
    /// do: with [`Spec::churn`], one removal and rejoin.
    pub fn shortest_window(&self) -> Duration {
        self.churn.map_or(Duration::ZERO, |c| {
            c.first + c.down_for + Churn::REJOIN_ALLOWANCE
        })
    }
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Issuing replica.
    pub replica: usize,
    /// The operation.
    pub op: SharedOp,
    /// Commit log it is routed to; `None` for a cross-group operation.
    pub log: Option<usize>,
}

/// A workload: how to build its nodes, what to preload, what to issue and
/// what every replica must hold afterwards.
pub trait Workload {
    /// The actor under test.
    type Node: Probe;
    /// Shape and load.
    fn spec(&self) -> &Spec;
    /// A fresh node `i` (node 0 is the master of every group).
    fn node(&self, i: u32) -> Self::Node;
    /// Creates the shared objects and their initial contents on the master.
    fn preload(&mut self, master: &mut Self::Node, ctx: &mut Ctx<'_, <Self::Node as Actor>::Msg>);
    /// The next operation of `stream`. The issuing replica is drawn at
    /// random: a fixed rotation would tie each replica to one phase of an
    /// open-loop schedule.
    fn next(&mut self, stream: Stream, rng: &mut StdRng) -> Planned;
    /// Issues `op` through the public API the workload exercises.
    fn issue(
        node: &mut Self::Node,
        op: SharedOp,
        done: CompletionFn,
        ctx: &mut Ctx<'_, <Self::Node as Actor>::Msg>,
    ) -> Result<bool, ExecError>;
    /// Checks one replica's committed state against what was issued.
    fn verify(&self, node: &Self::Node) -> Result<(), String>;
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

/// Configuration shared by every workload: a short join retry so set-up
/// time measures the handshake, not a retry timer, and a stall timeout no
/// pause of the process reaches. Every machine lives on the one delivery
/// thread, so when the box takes the CPU away for a second (it does, in
/// spells) a 1 s timeout fires on all of them at once: members get removed
/// or elect, operations are lost, and `hybrid`'s rejoin path panics (see
/// the README's cliffs). Only `churn` wants faults, and sets its own.
fn base_cfg(sync_period: SimTime) -> MachineConfig {
    MachineConfig::default()
        .with_sync_period(sync_period)
        .with_stall_timeout(ms(10_000))
        .with_join_retry(ms(20))
}

fn plain_node(i: u32, registry: &Arc<OpRegistry>, cfg: &MachineConfig) -> Machine {
    let id = MachineId::new(i);
    if i == 0 {
        Machine::new_master(id, Arc::clone(registry), cfg.clone())
    } else {
        Machine::new_member(id, Arc::clone(registry), cfg.clone())
    }
}

// ----------------------------------------------------------------------
// Sudoku cells: `steady`, `churn`, and the serialized eighth of `hybrid`
// ----------------------------------------------------------------------

const BOARDS: usize = 2;

/// Replica `r` owns row `r + 1` of every board and only ever writes the
/// digit `r + 1`, one cell per board at a time: digits differ between
/// replicas and rows are disjoint, so no `update` can violate a Sudoku
/// constraint and no `clear` can hit an empty cell, in any commit order.
#[derive(Debug, Default)]
struct SudokuCells {
    boards: Vec<ObjectId>,
    /// `filled[replica][board]` = column currently holding the digit.
    filled: Vec<[Option<u8>; BOARDS]>,
}

impl SudokuCells {
    fn new(issuers: u32) -> Self {
        SudokuCells {
            boards: Vec::new(),
            filled: vec![[None; BOARDS]; issuers as usize],
        }
    }

    fn preload(&mut self, master: &mut Machine) {
        self.boards = (0..BOARDS)
            .map(|_| master.create_instance(Sudoku::new()))
            .collect();
    }

    fn next(&mut self, replica: usize, rng: &mut StdRng) -> SharedOp {
        let b = rng.gen_range(0..BOARDS);
        let (row, digit) = (replica as u8 + 1, replica as u8 + 1);
        match self.filled[replica][b].take() {
            Some(col) => sudoku::ops::clear(self.boards[b], row, col),
            None => {
                let col = rng.gen_range(1..=9u8);
                self.filled[replica][b] = Some(col);
                sudoku::ops::update(self.boards[b], row, col, digit)
            }
        }
    }

    fn verify(&self, node: &Machine) -> Result<(), String> {
        for (b, &board) in self.boards.iter().enumerate() {
            let mut want = [[0u8; 9]; 9];
            for (r, filled) in self.filled.iter().enumerate() {
                if let Some(col) = filled[b] {
                    want[r][col as usize - 1] = r as u8 + 1;
                }
            }
            let got = node
                .read_committed::<Sudoku, _>(board, |s| {
                    let mut g = [[0u8; 9]; 9];
                    for (r, row) in g.iter_mut().enumerate() {
                        for (c, v) in row.iter_mut().enumerate() {
                            *v = s.cell(r as u8 + 1, c as u8 + 1).unwrap_or(0);
                        }
                    }
                    g
                })
                .ok_or_else(|| format!("board {b} missing"))?;
            if got != want {
                return Err(format!(
                    "board {b} cells {got:?} differ from the issued {want:?}"
                ));
            }
        }
        Ok(())
    }
}

/// `steady` and `churn`.
pub struct SudokuCycle {
    spec: Spec,
    registry: Arc<OpRegistry>,
    cfg: MachineConfig,
    cells: SudokuCells,
}

impl SudokuCycle {
    fn with(spec: Spec, cfg: MachineConfig) -> Self {
        let mut registry = OpRegistry::new();
        sudoku::register(&mut registry);
        SudokuCycle {
            cells: SudokuCells::new(spec.issuers),
            spec,
            registry: Arc::new(registry),
            cfg,
        }
    }

    /// The paper's §7 setting scaled down: delay-bound rounds, light load.
    pub fn steady(solo: bool) -> Self {
        let n = if solo { 1 } else { 4 };
        Self::with(
            Spec {
                replicas: n,
                issuers: n,
                link: Duration::from_millis(1),
                closed_window: None,
                open_rate: Some(100.0 * f64::from(n)),
                cross_rate: None,
                churn: None,
                serialized: true,
            },
            base_cfg(ms(3)),
        )
    }

    /// Five replicas; the fifth never issues and is repeatedly removed
    /// from the mesh and re-added fresh. The sync period stays above the
    /// link round trip: a joiner's epoch-checked handshake must land
    /// between two rounds.
    pub fn churn(solo: bool) -> Self {
        let (replicas, issuers) = if solo { (1, 1) } else { (5, 4) };
        Self::with(
            Spec {
                replicas,
                issuers,
                link: Duration::from_millis(1),
                closed_window: None,
                open_rate: Some(100.0 * f64::from(issuers)),
                cross_rate: None,
                // Each removal stalls commits for two stall timeouts
                // (resend, then removal). Eight of them in ten seconds
                // keep well over 5 % of the operations inside a stall, so
                // the 95th percentile sits inside the stalled population
                // instead of on its edge.
                churn: (!solo).then_some(Churn {
                    first: Duration::from_millis(250),
                    every: Duration::from_millis(1_250),
                    down_for: Duration::from_millis(500),
                }),
                serialized: true,
            },
            base_cfg(ms(10)).with_stall_timeout(ms(100)),
        )
    }
}

impl Workload for SudokuCycle {
    type Node = Machine;
    fn spec(&self) -> &Spec {
        &self.spec
    }
    fn node(&self, i: u32) -> Machine {
        plain_node(i, &self.registry, &self.cfg)
    }
    fn preload(&mut self, master: &mut Machine, _ctx: &mut Ctx<'_, Msg>) {
        self.cells.preload(master);
    }
    fn next(&mut self, _stream: Stream, rng: &mut StdRng) -> Planned {
        let replica = rng.gen_range(0..self.spec.issuers as usize);
        Planned {
            replica,
            op: self.cells.next(replica, rng),
            log: Some(0),
        }
    }
    fn issue(
        node: &mut Machine,
        op: SharedOp,
        done: CompletionFn,
        _ctx: &mut Ctx<'_, Msg>,
    ) -> Result<bool, ExecError> {
        node.issue_with_completion(op, done)
    }
    fn verify(&self, node: &Machine) -> Result<(), String> {
        self.cells.verify(node)
    }
}

// ----------------------------------------------------------------------
// Message-board likes: `saturate`, `bigstore`, and seven eighths of `hybrid`
// ----------------------------------------------------------------------

/// Operations the capacity workloads (`saturate`, `sharded`) keep
/// outstanding. At 256 handler time is roughly 40 % of a round. More is
/// closer to saturation but tracks the machine instead of the program: this
/// box's CPU speed drifts by ±20 % over minutes, and at 512 `sharded`'s
/// medians moved 17–20 % between two sets of ten runs; at 2048 one
/// generator thread cannot keep the window full and a cluster flips
/// between two operating points.
const CAPACITY_WINDOW: usize = 256;
const LIKE_KEYS: usize = 16;
const TOPICS: usize = 4;
const POSTS_PER_TOPIC: usize = 8;

/// `like` on the first two boards; any further boards are preloaded with
/// topics and posts and then never touched.
#[derive(Debug, Default)]
struct Likes {
    boards: Vec<ObjectId>,
    keys: Vec<String>,
    tally: [[u64; LIKE_KEYS]; BOARDS],
    bystanders: usize,
}

impl Likes {
    fn new(bystanders: usize) -> Self {
        Likes {
            keys: (0..LIKE_KEYS).map(|k| format!("k{k}")).collect(),
            bystanders,
            ..Likes::default()
        }
    }

    fn preload(&mut self, master: &mut Machine) {
        self.boards = (0..BOARDS + self.bystanders)
            .map(|_| master.create_instance(MessageBoard::new()))
            .collect();
        for &board in &self.boards[BOARDS..] {
            for t in 0..TOPICS {
                let topic = format!("topic{t}");
                let ok = master.issue(message_board::ops::create_topic(board, &topic));
                assert_eq!(ok, Ok(true), "preload create_topic");
                for p in 0..POSTS_PER_TOPIC {
                    let op =
                        message_board::ops::post(board, &topic, "author", &format!("post {p}"));
                    assert_eq!(master.issue(op), Ok(true), "preload post");
                }
            }
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> SharedOp {
        let b = rng.gen_range(0..BOARDS);
        let k = rng.gen_range(0..LIKE_KEYS);
        self.tally[b][k] += 1;
        message_board::ops::like(self.boards[b], &self.keys[k])
    }

    fn verify(&self, node: &Machine) -> Result<(), String> {
        for (b, &board) in self.boards.iter().enumerate() {
            let (likes, posts) = node
                .read_committed::<MessageBoard, _>(board, |m| {
                    let likes: Vec<u64> = self.keys.iter().map(|k| m.likes(k)).collect();
                    (likes, m.post_count())
                })
                .ok_or_else(|| format!("message board {b} missing"))?;
            let (want_likes, want_posts) = if b < BOARDS {
                (self.tally[b].to_vec(), 0)
            } else {
                (vec![0; LIKE_KEYS], TOPICS * POSTS_PER_TOPIC)
            };
            if likes != want_likes || posts != want_posts {
                return Err(format!(
                    "message board {b}: like or post counts differ from what was issued"
                ));
            }
        }
        Ok(())
    }
}

/// `saturate` and `bigstore`.
pub struct LikeStream {
    spec: Spec,
    registry: Arc<OpRegistry>,
    cfg: MachineConfig,
    likes: Likes,
}

impl LikeStream {
    fn with(solo: bool, window: usize, bystanders: usize) -> Self {
        let n = if solo { 1 } else { 4 };
        let mut registry = OpRegistry::new();
        message_board::register(&mut registry);
        LikeStream {
            spec: Spec {
                replicas: n,
                issuers: n,
                link: Duration::from_micros(200),
                closed_window: Some(window),
                open_rate: None,
                cross_rate: None,
                churn: None,
                serialized: true,
            },
            registry: Arc::new(registry),
            cfg: base_cfg(ms(1)),
            likes: Likes::new(bystanders),
        }
    }

    /// Protocol-bound capacity: a tiny store, rounds back to back.
    pub fn saturate(solo: bool) -> Self {
        Self::with(solo, CAPACITY_WINDOW, 0)
    }

    /// The same protocol over a store of 256 populated boards, so the
    /// per-round whole-store `sc → sg` copy sets the pace.
    pub fn bigstore(solo: bool) -> Self {
        Self::with(solo, 64, 256 - BOARDS)
    }

    /// `bigstore`'s window over `saturate`'s store: the store-bound check
    /// compares the two.
    pub fn smallstore_same_window() -> Self {
        Self::with(false, 64, 0)
    }
}

impl Workload for LikeStream {
    type Node = Machine;
    fn spec(&self) -> &Spec {
        &self.spec
    }
    fn node(&self, i: u32) -> Machine {
        plain_node(i, &self.registry, &self.cfg)
    }
    fn preload(&mut self, master: &mut Machine, _ctx: &mut Ctx<'_, Msg>) {
        self.likes.preload(master);
    }
    fn next(&mut self, _stream: Stream, rng: &mut StdRng) -> Planned {
        Planned {
            replica: rng.gen_range(0..self.spec.issuers as usize),
            op: self.likes.next(rng),
            log: Some(0),
        }
    }
    fn issue(
        node: &mut Machine,
        op: SharedOp,
        done: CompletionFn,
        _ctx: &mut Ctx<'_, Msg>,
    ) -> Result<bool, ExecError> {
        node.issue_with_completion(op, done)
    }
    fn verify(&self, node: &Machine) -> Result<(), String> {
        self.likes.verify(node)
    }
}

// ----------------------------------------------------------------------
// `hybrid`: async one-hop commits beside serialized rounds
// ----------------------------------------------------------------------

/// The commute matrix the effect analysis derives for the message board
/// (`like` is its universal commuter). Sudoku gets no entries, so its
/// operations keep the round path.
pub fn analysis_matrix() -> CommuteMatrix {
    guesstimate_analysis::harness::analyze_message_board()
        .report
        .commute_matrix()
}

/// Seven `like`s (async path) to one Sudoku `update`/`clear` (rounds).
pub struct Hybrid {
    spec: Spec,
    registry: Arc<OpRegistry>,
    cfg: MachineConfig,
    likes: Likes,
    cells: SudokuCells,
}

impl Hybrid {
    /// Builds the workload around an analysis-derived `matrix`.
    pub fn new(solo: bool, matrix: CommuteMatrix) -> Self {
        let n = if solo { 1 } else { 4 };
        let mut registry = OpRegistry::new();
        message_board::register(&mut registry);
        sudoku::register(&mut registry);
        Hybrid {
            spec: Spec {
                replicas: n,
                issuers: n,
                link: Duration::from_millis(1),
                closed_window: None,
                open_rate: Some(500.0 * f64::from(n)),
                cross_rate: None,
                churn: None,
                serialized: false,
            },
            registry: Arc::new(registry),
            cfg: base_cfg(ms(3))
                .with_commute_matrix(matrix)
                .with_async_commit(true),
            likes: Likes::new(0),
            cells: SudokuCells::new(n),
        }
    }
}

impl Workload for Hybrid {
    type Node = Machine;
    fn spec(&self) -> &Spec {
        &self.spec
    }
    fn node(&self, i: u32) -> Machine {
        plain_node(i, &self.registry, &self.cfg)
    }
    fn preload(&mut self, master: &mut Machine, _ctx: &mut Ctx<'_, Msg>) {
        self.likes.preload(master);
        self.cells.preload(master);
    }
    fn next(&mut self, _stream: Stream, rng: &mut StdRng) -> Planned {
        let replica = rng.gen_range(0..self.spec.issuers as usize);
        let op = if rng.gen_range(0..8u32) == 0 {
            self.cells.next(replica, rng)
        } else {
            self.likes.next(rng)
        };
        Planned {
            replica,
            op,
            log: Some(0),
        }
    }
    fn issue(
        node: &mut Machine,
        op: SharedOp,
        done: CompletionFn,
        ctx: &mut Ctx<'_, Msg>,
    ) -> Result<bool, ExecError> {
        node.issue_hybrid(op, Some(done), ctx)
    }
    fn verify(&self, node: &Machine) -> Result<(), String> {
        self.likes.verify(node)?;
        self.cells.verify(node)
    }
}

// ----------------------------------------------------------------------
// `sharded`: one round protocol per sync group
// ----------------------------------------------------------------------

const FIELDS: [&str; 8] = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];
const BUMPS: [&str; 8] = [
    "bump0", "bump1", "bump2", "bump3", "bump4", "bump5", "bump6", "bump7",
];
const BUMP_ALL: &str = "bump_all";

/// Eight independent counters. `bump<i>` adds to field `i` alone;
/// `bump_all` adds to every field and therefore spans every component.
#[derive(Clone, Default, Debug)]
pub struct Cells {
    c: [i64; 8],
}

impl GState for Cells {
    const TYPE_NAME: &'static str = "Cells";
    fn snapshot(&self) -> Value {
        let fields = FIELDS.iter().zip(self.c).map(|(f, v)| (*f, Value::from(v)));
        Value::map(fields)
    }
    fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
        let m = v.as_map().ok_or_else(|| RestoreError::shape("map"))?;
        for (name, c) in FIELDS.iter().zip(self.c.iter_mut()) {
            *c = m.get(*name).and_then(Value::as_i64).unwrap_or(0);
        }
        Ok(())
    }
}

fn cells_registry() -> OpRegistry {
    let mut r = OpRegistry::new();
    r.register_type::<Cells>();
    for (i, name) in BUMPS.iter().enumerate() {
        r.register_method::<Cells>(name, move |p: &mut Cells, a| {
            let Some(d) = a.i64(0) else { return false };
            p.c[i] += d;
            true
        });
    }
    r.register_method::<Cells>(BUMP_ALL, |p: &mut Cells, a| {
        let Some(d) = a.i64(0) else { return false };
        p.c.iter_mut().for_each(|c| *c += d);
        true
    });
    r
}

/// `groups` components over the eight fields: component `j` owns the
/// fields with index ≡ `j` (mod `groups`); `bump<i>` routes to component
/// `i % groups`, `bump_all` is cross-shard.
fn cells_plan(groups: u32) -> Arc<ShardPlan> {
    let components = (0..groups)
        .map(|j| ComponentPlan {
            prefixes: FIELDS
                .iter()
                .enumerate()
                .filter(|(i, _)| *i as u32 % groups == j)
                .map(|(_, f)| PathPattern::parse(f).expect("field pattern"))
                .collect(),
            keyed: false,
        })
        .collect();
    let mut routes = BTreeMap::new();
    for (i, m) in BUMPS.iter().enumerate() {
        let local = Routing::Local {
            component: i as u32 % groups,
            key_arg: None,
        };
        routes.insert((*m).to_owned(), local);
    }
    routes.insert(BUMP_ALL.to_owned(), Routing::CrossShard);
    let mut plan = ShardPlan::new();
    plan.types
        .insert(Cells::TYPE_NAME.to_owned(), TypePlan { components, routes });
    Arc::new(plan)
}

/// `sharded`'s group table and one of its locally routed operations: the
/// inputs of the isolated routing row.
pub fn routing_sample() -> (GroupTable, SharedOp) {
    let object = ObjectId::new(MachineId::new(0), 0);
    (
        GroupTable::from_plan(cells_plan(4)),
        SharedOp::primitive(object, BUMPS[5], args![1]),
    )
}

/// The counter load, shared by the multi-group cluster and the bare
/// machine it is compared with.
#[derive(Debug, Default)]
struct CellsLoad {
    object: Option<ObjectId>,
    tally: [i64; 8],
    groups: usize,
}

impl CellsLoad {
    fn next(&mut self, stream: Stream, issuers: u32, rng: &mut StdRng) -> Planned {
        let replica = rng.gen_range(0..issuers as usize);
        let object = self.object.expect("preloaded");
        if stream == Stream::Cross {
            self.tally.iter_mut().for_each(|t| *t += 1);
            return Planned {
                replica,
                op: SharedOp::primitive(object, BUMP_ALL, args![1]),
                log: None,
            };
        }
        let field = rng.gen_range(0..BUMPS.len());
        self.tally[field] += 1;
        Planned {
            replica,
            op: SharedOp::primitive(object, BUMPS[field], args![1]),
            log: Some(field % self.groups),
        }
    }

    fn check(&self, got: Option<[i64; 8]>) -> Result<(), String> {
        match got {
            Some(c) if c == self.tally => Ok(()),
            Some(c) => Err(format!(
                "counters {c:?} differ from issued {:?}",
                self.tally
            )),
            None => Err("counter object missing".to_owned()),
        }
    }
}

fn cells_spec(solo: bool, cross: bool) -> Spec {
    let n = if solo { 1 } else { 4 };
    Spec {
        replicas: n,
        issuers: n,
        link: Duration::from_micros(200),
        closed_window: Some(CAPACITY_WINDOW),
        open_rate: None,
        cross_rate: cross.then_some(20.0),
        churn: None,
        serialized: true,
    }
}

/// `sharded`: every node hosts every sync group.
pub struct Sharded {
    spec: Spec,
    registry: Arc<OpRegistry>,
    cfg: MachineConfig,
    cluster: MultiClusterSpec,
    load: CellsLoad,
}

impl Sharded {
    /// Four nodes × `groups` sync groups; `cross` adds the open-loop
    /// stream of cross-group operations.
    pub fn new(solo: bool, groups: u32, cross: bool) -> Self {
        let spec = cells_spec(solo, cross);
        let plan = cells_plan(groups);
        let table = Arc::new(GroupTable::from_plan(Arc::clone(&plan)));
        Sharded {
            cluster: MultiClusterSpec::full_overlap(spec.replicas, table),
            spec,
            registry: Arc::new(cells_registry()),
            cfg: base_cfg(ms(1)).with_shard_plan(plan),
            load: CellsLoad {
                groups: groups as usize,
                ..CellsLoad::default()
            },
        }
    }
}

impl Workload for Sharded {
    type Node = MultiMachine;
    fn spec(&self) -> &Spec {
        &self.spec
    }
    fn node(&self, i: u32) -> MultiMachine {
        self.cluster.build_node(i, &self.registry, &self.cfg)
    }
    fn preload(&mut self, master: &mut MultiMachine, ctx: &mut Ctx<'_, GMsg>) {
        self.load.object = Some(master.create_instance(Cells::default(), ctx));
    }
    fn next(&mut self, stream: Stream, rng: &mut StdRng) -> Planned {
        self.load.next(stream, self.spec.issuers, rng)
    }
    fn issue(
        node: &mut MultiMachine,
        op: SharedOp,
        done: CompletionFn,
        ctx: &mut Ctx<'_, GMsg>,
    ) -> Result<bool, ExecError> {
        use guesstimate_runtime::IssueOutcome;
        node.issue(op, Some(done), ctx).map(|o| match o {
            IssueOutcome::Local(ok) => ok,
            IssueOutcome::CrossPending => true,
        })
    }
    fn verify(&self, node: &MultiMachine) -> Result<(), String> {
        let object = self.load.object.expect("preloaded");
        self.load
            .check(node.read_committed::<Cells, _>(object, |c| c.c))
    }
}

/// The counter load on a bare [`Machine`], issued through the same
/// `issue_hybrid` entry point the multi-group wrapper uses internally:
/// the baseline `runtime.multigroup.wrapper_cost_pct` is measured against.
pub struct CellsBare {
    spec: Spec,
    registry: Arc<OpRegistry>,
    cfg: MachineConfig,
    load: CellsLoad,
}

impl CellsBare {
    /// Four bare machines under `sharded`'s closed-loop load.
    pub fn new() -> Self {
        CellsBare {
            spec: cells_spec(false, false),
            registry: Arc::new(cells_registry()),
            cfg: base_cfg(ms(1)),
            load: CellsLoad {
                groups: 1,
                ..CellsLoad::default()
            },
        }
    }
}

impl Workload for CellsBare {
    type Node = Machine;
    fn spec(&self) -> &Spec {
        &self.spec
    }
    fn node(&self, i: u32) -> Machine {
        plain_node(i, &self.registry, &self.cfg)
    }
    fn preload(&mut self, master: &mut Machine, _ctx: &mut Ctx<'_, Msg>) {
        self.load.object = Some(master.create_instance(Cells::default()));
    }
    fn next(&mut self, stream: Stream, rng: &mut StdRng) -> Planned {
        self.load.next(stream, self.spec.issuers, rng)
    }
    fn issue(
        node: &mut Machine,
        op: SharedOp,
        done: CompletionFn,
        ctx: &mut Ctx<'_, Msg>,
    ) -> Result<bool, ExecError> {
        node.issue_hybrid(op, Some(done), ctx)
    }
    fn verify(&self, node: &Machine) -> Result<(), String> {
        let object = self.load.object.expect("preloaded");
        self.load
            .check(node.read_committed::<Cells, _>(object, |c| c.c))
    }
}

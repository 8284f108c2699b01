//! `guesstimate-mc`: a bounded schedule model checker for the
//! GUESSTIMATE runtime.
//!
//! The checker drives *real* [`guesstimate_runtime::Machine`]s — the
//! same protocol code deployed everywhere else in this repository —
//! through a controlled scheduler ([`guesstimate_net::SchedNet`]) in
//! which every message delivery, message loss, late join and timer
//! firing is an explicit choice point. It enumerates delivery
//! interleavings depth-first with sleep-set partial-order reduction
//! whose independence relation is grounded in the validated operation
//! effect analysis (`guesstimate-analysis` → `guesstimate_runtime::commute`),
//! checks the paper's §3 invariants at every explored state, and replays
//! each terminal schedule through the executable semantic model
//! (`guesstimate-semantics`) as a refinement check. Violations are
//! delta-debugged to a minimal, replayable JSON schedule.
//!
//! Layout:
//!
//! * [`scenario`] — the scenario table, one row of data per scenario, and
//!   the one harness ([`Built`]) that builds any row and drives it as a
//!   [`Cluster`], with a [`scenario::Node`] impl per node kind.
//! * [`schedule`] — the choice alphabet ([`Step`]) and the replayable
//!   JSON schedule file format.
//! * [`mod@explore`] — the DFS explorer, the independence relation, and
//!   schedule replay, for every scenario alike.
//! * [`mod@multigroup`] — what only the `cross-group` rows have: the
//!   `XPair` fixture and `MultiMachine`'s `Node` impl, with the
//!   coordinated cross-round oracle.
//! * [`oracle`] — step/terminal oracles and the state digest.
//! * [`shrink`] — ddmin minimization of failing schedules.
//!
//! See `docs/MODELCHECK.md` for the full design and soundness argument.

#![warn(missing_docs)]

pub mod explore;
pub mod multigroup;
pub mod oracle;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use explore::{explore, replay, replay_traced, ExploreConfig, Outcome, ReplayReport};
pub use multigroup::CROSS_GROUP;
pub use oracle::{check_terminal, Violation};
pub use scenario::{Built, Cluster, Preset, MISKEYED, PRESETS, SNEAKY};
pub use schedule::{Schedule, Step, TamperSpec};
pub use shrink::minimize;

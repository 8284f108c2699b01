//! # guesstimate-runtime
//!
//! The GUESSTIMATE runtime (Rajan, Rajamani, Yaduvanshi, PLDI 2010): every
//! machine keeps a **committed** replica `sc` of the shared state —
//! guaranteed identical across machines — and a **guesstimated** replica
//! `sg = [P](sc)` on which operations execute immediately, without blocking.
//! A master-driven, 3-stage synchronization protocol periodically gathers
//! every machine's pending operations, commits them everywhere in a single
//! agreed lexicographic order, runs completion routines on the issuing
//! machines, and re-establishes the guesstimate invariant. Each operation
//! executes **at most three times**: at issue, (possibly) at one replay, and
//! at commit (§4 "Bounded re-executions").
//!
//! The runtime is event-driven: [`Machine`] implements
//! [`guesstimate_net::Actor`] and runs identically under the deterministic
//! virtual-time mesh (`SimNet`, used by every experiment) and the
//! wall-clock threaded mesh (`ThreadedNet`, used by interactive examples).
//!
//! ## Example
//!
//! ```
//! use guesstimate_core::{canonical, Footprint, OpRegistry};
//! use guesstimate_net::{LatencyModel, NetConfig, SimTime};
//! use guesstimate_runtime::{run_until_cohort, sim_cluster, MachineConfig};
//!
//! // The shared type: the state codec writes its snapshot/restore pair.
//! #[derive(Clone, Default)]
//! struct Score {
//!     points: i64,
//! }
//! canonical!(impl GState for Score as "Score" { points });
//!
//! impl Score {
//!     fn bump(&mut self, d: i64) -> bool {
//!         self.points += d;
//!         true
//!     }
//! }
//! fn bump_footprint() -> Footprint {
//!     Footprint::new().reads(["points"]).writes(["points"])
//! }
//! // Its one operation, as a row: constructor, apply function, effect.
//! guesstimate_core::methods! {
//!     Score;
//!     /// Adds `d` points.
//!     fn bump(d: i64 = [1, 3]) => bump_footprint();
//! }
//!
//! let mut registry = OpRegistry::new();
//! register_methods(&mut registry);
//!
//! let mut net = sim_cluster(
//!     3,
//!     registry,
//!     MachineConfig::default().with_sync_period(SimTime::from_millis(100)),
//!     NetConfig::lan(1).with_latency(LatencyModel::constant_ms(5)),
//! );
//! assert!(run_until_cohort(&mut net, SimTime::from_secs(5)));
//!
//! let master = guesstimate_core::MachineId::new(0);
//! let obj = net.actor_mut(master).unwrap().create_instance(Score::default());
//! net.run_until(net.now() + SimTime::from_secs(1));
//!
//! // Machine 2 bumps the score; the effect is visible locally at once and
//! // committed everywhere within a couple of sync rounds.
//! let m2 = guesstimate_core::MachineId::new(2);
//! net.actor_mut(m2)
//!     .unwrap()
//!     .issue(bump(obj, 3))
//!     .unwrap();
//! net.run_until(net.now() + SimTime::from_secs(2));
//! assert_eq!(
//!     net.actor(master).unwrap().read::<Score, _>(obj, |s| s.points),
//!     Some(3)
//! );
//! ```

#![warn(missing_docs)]

mod blocking;
mod cluster;
pub mod commute;
mod config;
mod exec;
mod hybrid;
mod machine;
mod message;
pub mod multigroup;
mod protocol;
pub mod roles;
pub mod shard;
mod stats;
#[doc(hidden)]
pub mod testutil;

pub use blocking::{issue_blocking, BlockingOutcome};
pub use cluster::{run_until_cohort, sim_cluster, sim_cluster_instrumented, threaded_cluster};
pub use config::{Checks, Flush, MachineConfig};
pub use exec::WitnessViolation;
pub use guesstimate_core::RemoteUpdateHook;
pub use machine::{Machine, StateSummary};
pub use message::{Msg, ObjectInit, WireEnvelope, WireOp};
pub use multigroup::{
    multi_sim_cluster, run_multi_until_joined, GMsg, GroupId, GroupRoute, GroupTable, IssueOutcome,
    MultiClusterSpec, MultiMachine,
};
pub use shard::ShardViolation;
pub use stats::{MachineStats, SyncSample};

//! # guesstimate-semantics
//!
//! The formal operational semantics of GUESSTIMATE (§3 of the paper), as an
//! *executable* transition system, together with the paper's invariants and
//! a bounded explorer.
//!
//! A distributed system is a pair `(M, S)`; each machine's state is the
//! 5-tuple `(λ, C, sc, P, sg)` — local state, completed operations,
//! committed state, pending operations, guesstimated state. Three rules
//! drive the system:
//!
//! * **R1** (local): a local operation reads `(sg, λ)` and updates `λ`.
//! * **R2** (issue): a composite operation `(s, c)` issued at machine `i`
//!   with `s(sg(i)) = (s', true)` is appended to `P(i)` and updates `sg(i)`;
//!   if `s` fails on `sg(i)` the operation is dropped.
//! * **R3** (commit): the operation at the front of some machine's pending
//!   queue is removed, executed on *every* machine's committed state,
//!   appended to every machine's completed sequence, runs its completion on
//!   the issuing machine, and rebuilds `sg(j) = [P(j)](sc(j))` for the other
//!   machines.
//!
//! Two invariants hold by induction over the rules and are checked here
//! after every transition ([`check_invariants`]):
//!
//! 1. `[P](sc) = sg` on every machine;
//! 2. `C(i) = C(j)` and `sc(i) = sc(j)` for every pair of machines.
//!
//! The [`explore`] module enumerates rule interleavings to a bound, checking
//! the invariants in every reachable state — a small model checker for the
//! semantics. The [`replay_in_commit_order`] function re-executes a
//! committed history in commit order, which integration tests use to check
//! that the *runtime* (crate `guesstimate-runtime`) refines this semantics.
//!
//! ## Example
//!
//! ```
//! use guesstimate_core::MachineId;
//! use guesstimate_semantics::{check_invariants, testmodel, SemSystem};
//!
//! let mut sys = testmodel::counter_system(2, 0);
//! let obj = testmodel::counter_object();
//! let m0 = MachineId::new(0);
//! let m1 = MachineId::new(1);
//!
//! // R2 at both machines, then commit everything.
//! assert!(sys.issue(m0, testmodel::add(obj, 2)).unwrap());
//! assert!(sys.issue(m1, testmodel::add(obj, 3)).unwrap());
//! check_invariants(&sys).unwrap();
//! while sys.commit_any().unwrap() {
//!     check_invariants(&sys).unwrap();
//! }
//! // Quiescence: guesstimates equal the (agreed) committed state.
//! assert_eq!(sys.machine(m0).unwrap().guess.digest(),
//!            sys.machine(m1).unwrap().guess.digest());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod explore;
mod invariants;
mod model;
mod replay;
pub mod testmodel;

pub use explore::{explore, ExploreConfig, ExploreReport, SemAction};
pub use invariants::{check_invariants, InvariantViolation};
pub use model::{LocalNote, SemLocal, SemMachine, SemOp, SemSystem};
pub use replay::replay_in_commit_order;

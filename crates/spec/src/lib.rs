//! # guesstimate-spec
//!
//! Specifications for GUESSTIMATE shared operations.
//!
//! §3 of the paper associates with every shared operation `s` a
//! specification `φs ⊆ S × S`; `s` *conforms* to `φs` iff
//!
//! 1. whenever `s(s1) = (s2, true)`, the pair `(s1, s2) ∈ φs`, and
//! 2. whenever `s(s1) = (s2, false)`, `s1 = s2` (failed operations do not
//!    modify the shared state).
//!
//! The authors wrote such specifications in **Spec#** and discharged them
//! with the **Boogie** verifier (§5/§6): Spec# translated the Sudoku
//! contracts into 323 assertions of which Boogie proved 271 and turned the
//! remaining 52 into runtime checks. Neither tool exists for Rust, so this
//! crate rebuilds the same workflow:
//!
//! * [`contract`](MethodContract) — executable contracts: a postcondition
//!   relation `φ` over canonical [`Value`] snapshots, plus object
//!   invariants, plus arbitrary named *assertions* over execution cases.
//! * [`conformance`](check_suite) — the runtime-check half of Spec#:
//!   [`check_suite`] wraps every method an application has registered with
//!   the contract its [`SpecSuite`] gives it, so every execution (issue,
//!   replay, commit — on any machine) verifies frame, postcondition,
//!   invariant and assertions, recording violations in a
//!   [`ConformanceLog`]. The suite is the one place a contract is written:
//!   the assertions the verifier classifies are the ones that run.
//!   ([`register_checked`] puts a single hand-written implementation under
//!   a contract through the same wrapper — the seeded-bug tests use it.)
//! * [`verifier`](verify_suite) — the Boogie analog: a bounded-exhaustive
//!   classifier that evaluates every assertion of a [`SpecSuite`] over an
//!   enumerated [`CaseSpace`] and classifies it as **Verified** (holds on
//!   all cases, enumeration complete), **RuntimeCheck** (no counterexample,
//!   but the space was sampled rather than exhausted) or **Refuted**
//!   (counterexample found) — the same three-way split Spec#/Boogie
//!   produce, regenerated as a table by the benchmark harness.
//!
//! ## Example
//!
//! ```
//! use guesstimate_core::{canonical, execute, Footprint, MachineId, ObjectId, ObjectStore, OpRegistry};
//! use guesstimate_spec::{check_suite, ConformanceLog, MethodContract, MethodSpec, SpecSuite};
//!
//! #[derive(Clone, Default)]
//! struct Tank(i64);
//! canonical!(impl GState for Tank as "Tank" (0)); // snapshot: the level
//!
//! impl Tank {
//!     fn fill(&mut self, d: i64) -> bool {
//!         if d <= 0 || self.0 + d > 10 {
//!             return false;
//!         }
//!         self.0 += d;
//!         true
//!     }
//! }
//! fn fill_footprint() -> Footprint {
//!     Footprint::new().reads([""]).writes([""])
//! }
//! guesstimate_core::methods! {
//!     Tank;
//!     /// Adds `d` to the level, up to 10.
//!     fn fill(d: i64) => fill_footprint();
//! }
//!
//! let mut reg = OpRegistry::new();
//! register_methods(&mut reg);
//!
//! // φ_fill: on success the level strictly increases and stays ≤ 10.
//! let contract = MethodContract::new()
//!     .with_post(|pre, post, _args| {
//!         post.as_i64() > pre.as_i64() && post.as_i64().unwrap() <= 10
//!     })
//!     .with_invariant(|s| (0..=10).contains(&s.as_i64().unwrap_or(-1)));
//! let suite = SpecSuite::new("Tank").with_method(MethodSpec::new("fill", contract));
//! let log = ConformanceLog::new();
//! check_suite(&mut reg, &suite, &log);
//!
//! // Execute through the registry as the runtime would.
//! let id = ObjectId::new(MachineId::new(0), 0);
//! let mut store = ObjectStore::new();
//! store.insert(id, Box::new(Tank(0)));
//! execute(&fill(id, 4), &mut store, &reg).unwrap();
//! assert!(log.is_empty(), "no conformance violations");
//! ```

#![warn(missing_docs)]

mod conformance;
mod contract;
mod verifier;

pub use conformance::{check_suite, register_checked, ConformanceLog, Violation, ViolationKind};
pub use contract::{Assertion, ExecCase, InvariantSpec, MethodContract, MethodSpec, SpecSuite};
pub use verifier::{verify_suite, CaseSpace, ClassifiedAssertion, Verdict, VerificationReport};

pub use guesstimate_core::Value;

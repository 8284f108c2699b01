//! # guesstimate-core
//!
//! Core programming model for **GUESSTIMATE** (Rajan, Rajamani, Yaduvanshi,
//! PLDI 2010): a programming model for collaborative distributed systems in
//! which every machine keeps two replicas of each shared object — a
//! *committed state* that is identical on all machines, and a *guesstimated
//! state* on which operations execute immediately and without blocking.
//!
//! This crate contains the machine-independent pieces of the model:
//!
//! * [`Value`] — a dynamic, totally ordered, hashable value type used as the
//!   argument vector (and state snapshot encoding) of replayable operations.
//! * [`SharedObject`] / [`GState`] — the Rust analog of the paper's
//!   `GSharedObject` abstract base class. Application state derives [`GState`]
//!   (a `Clone + Default` type with [`GState::snapshot`]/[`GState::restore`])
//!   and receives the object-safe [`SharedObject`] implementation for free.
//! * [`OpRegistry`] — the replacement for .NET reflection: a registry mapping
//!   `(type name, method name)` to an apply function, so that an operation
//!   created on one machine can be re-executed identically on every replica.
//! * [`SharedOp`] — the operation grammar from §2 of the paper:
//!   `SharedOp := PrimitiveOp | Atomic { SharedOp* } | SharedOp OrElse SharedOp`.
//! * [`ObjectStore`] — a keyed store of boxed shared objects, used for both
//!   the committed and the guesstimated replica, with whole-store copying
//!   (the `sc → sg` copy performed at the end of each synchronization).
//! * [`execute`] — the operation execution engine, including per-object
//!   copy-on-write for `Atomic` (all-or-nothing) and priority semantics for
//!   `OrElse`.
//! * [`execute_witnessed`] — the access-witness instrumentation mode: the
//!   same execution, additionally observing the actual read/write paths
//!   ([`AccessWitness`]) so declared [`EffectSpec`] footprints can be
//!   *checked* instead of trusted (see [`witness`]).
//!
//! The distributed runtime that issues, propagates and commits operations
//! lives in the `guesstimate-runtime` crate; the simulated peer-to-peer mesh
//! substrate lives in `guesstimate-net`.
//!
//! ## Example
//!
//! ```
//! use guesstimate_core::{
//!     args, ExecOutcome, GState, ObjectStore, OpRegistry, SharedOp, Value,
//! };
//!
//! #[derive(Clone, Default, Debug, PartialEq)]
//! struct Counter {
//!     n: i64,
//! }
//!
//! impl GState for Counter {
//!     const TYPE_NAME: &'static str = "Counter";
//!     fn snapshot(&self) -> Value {
//!         Value::from(self.n)
//!     }
//!     fn restore(&mut self, v: &Value) -> Result<(), guesstimate_core::RestoreError> {
//!         self.n = v.as_i64().ok_or_else(|| guesstimate_core::RestoreError::shape("i64"))?;
//!         Ok(())
//!     }
//! }
//!
//! let mut registry = OpRegistry::new();
//! registry.register_type::<Counter>();
//! registry.register_method::<Counter>("add", |c, a| {
//!     let Some(d) = a.i64(0) else { return false };
//!     if c.n + d < 0 {
//!         return false; // precondition: counter never goes negative
//!     }
//!     c.n += d;
//!     true
//! });
//!
//! let mut store = ObjectStore::new();
//! let id = guesstimate_core::ObjectId::new(guesstimate_core::MachineId::new(0), 0);
//! store.insert(id, Box::new(Counter::default()));
//!
//! let op = SharedOp::primitive(id, "add", args![5]);
//! assert_eq!(guesstimate_core::execute(&op, &mut store, &registry).unwrap(), ExecOutcome::Success);
//! assert_eq!(store.get_as::<Counter>(id).unwrap().n, 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod completion;
mod effect;
mod error;
mod exec;
mod ids;
pub mod json;
mod object;
mod op;
pub mod paths;
mod registry;
pub mod shard;
mod store;
mod value;
pub mod witness;

pub use completion::{CompletionFn, CompletionQueue, PendingCompletion};
pub use effect::{CommuteMatrix, EffectSpec, Footprint};
pub use error::{ExecError, RestoreError};
pub use exec::{execute, execute_against, CowOverlay, ExecOutcome, ObjectAccess};
pub use ids::{MachineId, ObjectId, OpId};
pub use object::{GState, SharedObject};
pub use op::{OpEnvelope, SharedOp};
pub use paths::{path_covers, paths_overlap, PathPattern, ROOT};
pub use registry::{ApplyFn, ArgView, OpRegistry};
pub use shard::{key_render, ComponentPlan, Routing, ShardId, ShardPlan, TypePlan};
pub use store::ObjectStore;
pub use value::{value_digest, Value};
pub use witness::{
    containment_escapes, declared_footprints, execute_witnessed, snapshot_diff, AccessKind,
    AccessWitness, ProbeReads, WitnessEscape,
};

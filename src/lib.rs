//! # guesstimate — facade crate
//!
//! A comprehensive Rust reproduction of **GUESSTIMATE: A Programming Model
//! for Collaborative Distributed Systems** (Rajan, Rajamani, Yaduvanshi,
//! PLDI 2010).
//!
//! This crate re-exports the whole workspace behind one dependency:
//!
//! * [`core`] — shared objects, replayable operations, the operation
//!   registry, atomic/or-else execution.
//! * [`net`] — the simulated peer-to-peer mesh substrate (the stand-in for
//!   .NET PeerChannel): latency models, fault injection, virtual-time and
//!   threaded drivers.
//! * [`runtime`] — the GUESSTIMATE runtime: per-machine committed and
//!   guesstimated replicas, the 3-stage master–slave synchronization
//!   protocol, membership, fault recovery, and the paper's API surface.
//! * [`semantics`] — the formal operational semantics (rules R1/R2/R3) as an
//!   executable transition system, with invariant checking and bounded
//!   exploration.
//! * [`spec`] — specifications: pre/post contracts, object invariants,
//!   runtime conformance checking and a bounded-exhaustive assertion
//!   classifier (the Spec#/Boogie analog).
//! * [`apps`] — the paper's six collaborative applications: Sudoku, event
//!   planner, message board, car pool, auction, microblog.
//! * [`telemetry`] — operation-lifecycle observability: the metrics
//!   registry, per-op spans, guesstimate-health gauges, and the
//!   Prometheus/JSON/Chrome-trace exporters (`docs/OBSERVABILITY.md`).
//!
//! See `README.md` for a tour and `examples/` for runnable programs.

pub use guesstimate_apps as apps;
pub use guesstimate_core as core;
pub use guesstimate_net as net;
pub use guesstimate_runtime as runtime;
pub use guesstimate_semantics as semantics;
pub use guesstimate_spec as spec;
pub use guesstimate_telemetry as telemetry;

pub use guesstimate_core::{
    args, ArgView, CompletionFn, ExecOutcome, GState, MachineId, ObjectId, ObjectStore, OpId,
    OpRegistry, RestoreError, SharedOp, Value,
};

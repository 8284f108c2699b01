//! # guesstimate-telemetry
//!
//! Operation-lifecycle telemetry for the GUESSTIMATE runtime.
//!
//! The paper's central contract is **per-operation**: an op is issued
//! against the guesstimated state `sg`, flushed to the mesh in stage 1
//! of the sync protocol, committed in a global order, and executed at
//! most 3 times. PR 1's `TraceEvent` stream and `SyncSample` stage
//! splits observe *rounds*; this crate observes *operations* and the
//! health quantities optimistic replication cares about (commit lag,
//! `sg`/`sc` divergence, pending depth).
//!
//! Three layers:
//!
//! * [`metrics`] — a dependency-free registry of [`Counter`]s,
//!   [`Gauge`]s and log-linear [`Histogram`]s with atomic hot paths,
//!   rendered as Prometheus text or JSON.
//! * [`spans`] — per-op lifecycle spans keyed by `OpId`
//!   (issue → flush → commit → completion, execution count, commit
//!   latency).
//! * [`Telemetry`] — the handle the runtime carries. The default is a
//!   no-op costing one branch per hook; an enabled handle is cloned
//!   into every machine of a cluster and snapshotted once at the end.
//!
//! Exports: [`Telemetry::render_prometheus`],
//! [`Telemetry::render_json`], and
//! [`Telemetry::render_chrome_trace`] (Trace Event Format, loadable in
//! `chrome://tracing` / Perfetto). See `docs/OBSERVABILITY.md` for a
//! worked example.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
mod handle;
pub mod metrics;
pub mod spans;

pub use handle::Telemetry;
pub use metrics::{
    bucket_index, bucket_upper, Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS,
};
pub use spans::{OpSpan, SpanBook};

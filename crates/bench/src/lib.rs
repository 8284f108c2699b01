//! # guesstimate-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! GUESSTIMATE paper's evaluation (§7), plus the ablations called out in
//! DESIGN.md. Each binary prints the same rows/series the paper reports:
//!
//! | Binary | Function | Paper artifact |
//! |---|---|---|
//! | `fig5_sync_distribution` | [`run_fig5`] | Figure 5 — distribution of synchronization time (8 users, 2 grids, 1 h, fault-recovery outliers) |
//! | `fig6_sync_vs_users` | [`run_fig6`] | Figure 6 — average sync time vs number of users, with/without user activity |
//! | `fig7_conflicts_vs_users` | [`run_fig7`] | Figure 7 — conflicts vs number of users, one user added per 100 syncs |
//! | `table_spec_assertions` | [`run_spec_table`] | §6 Spec#/Boogie statistic (323 assertions: 271 verified, 52 runtime checks) |
//! | `failure_recovery` | [`run_session`] | §7 "Failure and recovery" narrative (stalls, resends, restarts) |
//! | `ablation_parallel_flush` | [`run_flush_sweep`] | §9 future work, now the runtime default: parallel stage 1 ⇒ sync time ~independent of user count (gated against the serial sweep) |
//! | `ablation_responsiveness` | [`run_responsiveness`] | §1 claim: non-blocking issue vs one-copy serializability ([`one_copy`]) |
//! | `ablation_consistency` | [`run_consistency_spectrum`] | §1 spectrum: replicated execution vs GUESSTIMATE vs one-copy |
//! | `scalability` | [`run_flush_sweep`] | §7/§9 extrapolation ("100 users within 3 s"), actually run |
//!
//! The workload is the paper's: concurrent users collaboratively solving
//! Sudoku grids, with seeded think times and move choices so every figure
//! is reproducible bit-for-bit.

#![warn(missing_docs)]

pub mod artifacts;
pub mod experiments;
pub mod one_copy;
pub mod shard_balance;
pub mod trace;
pub mod workload;

pub use artifacts::{record_figure, Recorded};
pub use experiments::{
    fig5_session, histogram, run_consistency_spectrum, run_fig5, run_fig6, run_fig7,
    run_flush_sweep, run_hybrid_lag, run_hybrid_session, run_responsiveness, run_session,
    run_spec_table, spec_table_total, ActivityLevel, Fig6Row, Fig7Row, FlushSweepRow,
    HistogramBucket, HybridLagRow, ResponsivenessRow, SessionConfig, SessionResult, SpecTableRow,
    SpectrumRow,
};
pub use shard_balance::{render_shard_balance, shard_balance_rows, ShardBalanceRow};
pub use trace::{render_timelines, summarize_rounds, RoundTimeline};

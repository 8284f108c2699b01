//! Round-timeline summaries for the experiment binaries.
//!
//! The runtime emits [`TraceRecord`]s through the pluggable
//! [`guesstimate_net::Tracer`] interface (the bench binaries record them
//! with [`crate::artifacts::record_figure`]); this module turns a recorded
//! stream into something a person can read:
//!
//! * [`summarize_rounds`] — folds a trace into one [`RoundTimeline`] per
//!   sync round, recovering the per-stage boundaries (flush → apply →
//!   completion) that aggregate [`guesstimate_runtime::SyncSample`] counters
//!   compress away.
//! * [`render_timelines`] — a fixed-width text table of the timelines, used
//!   by the `fig5_sync_distribution` and `failure_recovery` binaries.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use guesstimate_net::{SimTime, TraceEvent, TraceRecord};

/// The reconstructed timeline of one synchronization round.
///
/// Built from the master's round-scoped events plus the members'
/// [`TraceEvent::SyncCompleteReceived`] receipts; any field can be `None`
/// when a trace is truncated (round in flight at either end of the
/// recording window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTimeline {
    /// Round number.
    pub round: u64,
    /// Master broadcast `BeginSync` ([`TraceEvent::RoundStarted`]).
    pub started_at: Option<SimTime>,
    /// Stage 1 → 2 boundary: master broadcast `BeginApply`.
    pub flush_done_at: Option<SimTime>,
    /// Master broadcast `SyncComplete` (last ack observed).
    pub completed_at: Option<SimTime>,
    /// Last member receipt of `SyncComplete` — the stage-3 propagation edge.
    pub last_received_at: Option<SimTime>,
    /// Operations committed by the round.
    pub ops_committed: u64,
    /// Recovery nudges ([`TraceEvent::Resend`]) during the round.
    pub resends: u32,
    /// Machines removed from the round.
    pub removals: u32,
}

impl RoundTimeline {
    /// Stage-1 duration (round start → `BeginApply`), when both edges were
    /// observed.
    pub fn flush_duration(&self) -> Option<SimTime> {
        Some(self.flush_done_at?.saturating_since(self.started_at?))
    }

    /// Stage-2 duration (`BeginApply` → last ack / `SyncComplete`).
    pub fn apply_duration(&self) -> Option<SimTime> {
        Some(self.completed_at?.saturating_since(self.flush_done_at?))
    }

    /// Stage-3 propagation spread (`SyncComplete` sent → last member
    /// receipt). `None` when no member receipt was traced.
    pub fn completion_spread(&self) -> Option<SimTime> {
        Some(self.last_received_at?.saturating_since(self.completed_at?))
    }

    /// Whole-round duration as seen by the master.
    pub fn duration(&self) -> Option<SimTime> {
        Some(self.completed_at?.saturating_since(self.started_at?))
    }
}

/// Folds a trace into one [`RoundTimeline`] per round, in round order.
///
/// Only round-scoped events contribute; machine-scoped events (`restarted`,
/// elections) are ignored here and are best read directly from the JSONL
/// stream.
pub fn summarize_rounds(records: &[TraceRecord]) -> Vec<RoundTimeline> {
    let mut rounds: BTreeMap<u64, RoundTimeline> = BTreeMap::new();
    for r in records {
        let Some(round) = r.event.round() else {
            continue;
        };
        let t = rounds.entry(round).or_insert(RoundTimeline {
            round,
            ..RoundTimeline::default()
        });
        match r.event {
            TraceEvent::RoundStarted { .. } => t.started_at = Some(r.at),
            TraceEvent::BeginApply { .. } => t.flush_done_at = Some(r.at),
            TraceEvent::SyncComplete { ops_committed, .. } => {
                t.completed_at = Some(r.at);
                t.ops_committed = ops_committed;
            }
            TraceEvent::SyncCompleteReceived { .. } => {
                t.last_received_at = Some(t.last_received_at.map_or(r.at, |m| m.max(r.at)));
            }
            TraceEvent::Resend { .. } => t.resends += 1,
            TraceEvent::Removed { .. } => t.removals += 1,
            _ => {}
        }
    }
    rounds.into_values().collect()
}

/// Renders timelines as a fixed-width table (one row per round).
///
/// Columns: round, start time, stage-1/2 durations, stage-3 spread, whole
/// round duration, ops committed, resends, removals. Unobserved edges print
/// as `-`.
pub fn render_timelines(timelines: &[RoundTimeline]) -> String {
    let fmt_ms = |t: Option<SimTime>| match t {
        Some(t) => format!("{:.1}", t.as_millis_f64()),
        None => "-".to_owned(),
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>6} {:>10} {:>9} {:>9} {:>9} {:>9} {:>5} {:>7} {:>8}",
        "round",
        "start_s",
        "flush_ms",
        "apply_ms",
        "flag_ms",
        "total_ms",
        "ops",
        "resends",
        "removed"
    );
    for t in timelines {
        let _ = writeln!(
            s,
            "{:>6} {:>10} {:>9} {:>9} {:>9} {:>9} {:>5} {:>7} {:>8}",
            t.round,
            t.started_at
                .map_or("-".to_owned(), |t| format!("{:.3}", t.as_secs_f64())),
            fmt_ms(t.flush_duration()),
            fmt_ms(t.apply_duration()),
            fmt_ms(t.completion_spread()),
            fmt_ms(t.duration()),
            t.ops_committed,
            t.resends,
            t.removals
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use guesstimate_core::MachineId;

    fn rec(at_ms: u64, source: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_millis(at_ms),
            source: MachineId::new(source),
            event,
        }
    }

    fn sample_round() -> Vec<TraceRecord> {
        vec![
            rec(
                100,
                0,
                TraceEvent::RoundStarted {
                    round: 5,
                    participants: 3,
                },
            ),
            rec(110, 1, TraceEvent::OpsBatchSent { round: 5, ops: 2 }),
            rec(
                150,
                0,
                TraceEvent::BeginApply {
                    round: 5,
                    ops_total: 2,
                },
            ),
            rec(
                160,
                0,
                TraceEvent::Resend {
                    round: 5,
                    machine: MachineId::new(2),
                    stage: 2,
                },
            ),
            rec(
                200,
                0,
                TraceEvent::SyncComplete {
                    round: 5,
                    ops_committed: 2,
                },
            ),
            rec(230, 1, TraceEvent::SyncCompleteReceived { round: 5 }),
            rec(245, 2, TraceEvent::SyncCompleteReceived { round: 5 }),
        ]
    }

    #[test]
    fn summarize_reconstructs_stage_boundaries() {
        let t = summarize_rounds(&sample_round());
        assert_eq!(t.len(), 1);
        let t = &t[0];
        assert_eq!(t.round, 5);
        assert_eq!(t.flush_duration(), Some(SimTime::from_millis(50)));
        assert_eq!(t.apply_duration(), Some(SimTime::from_millis(50)));
        assert_eq!(t.completion_spread(), Some(SimTime::from_millis(45)));
        assert_eq!(t.duration(), Some(SimTime::from_millis(100)));
        assert_eq!(t.ops_committed, 2);
        assert_eq!(t.resends, 1);
        assert_eq!(t.removals, 0);
    }

    #[test]
    fn summarize_tolerates_truncated_rounds() {
        // Only the tail of a round: no RoundStarted.
        let t = summarize_rounds(&[rec(
            10,
            0,
            TraceEvent::SyncComplete {
                round: 1,
                ops_committed: 0,
            },
        )]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].duration(), None);
        assert_eq!(t[0].flush_duration(), None);
        // Machine-scoped events contribute no rounds.
        assert!(summarize_rounds(&[rec(0, 1, TraceEvent::Restarted)]).is_empty());
    }

    #[test]
    fn render_prints_one_row_per_round() {
        let table = render_timelines(&summarize_rounds(&sample_round()));
        assert_eq!(table.lines().count(), 2, "header + one round:\n{table}");
        assert!(table.contains("flush_ms"));
    }
}

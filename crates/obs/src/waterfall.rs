//! Per-operation lag attribution: the waterfall.
//!
//! Joins the merged cluster timeline with the per-op spans and decomposes
//! each committed operation's end-to-end lag into named stages. The
//! decomposition is a **clamped monotone boundary chain**: each stage is
//! the (non-negative) gap between consecutive boundary timestamps, so the
//! stages telescope and **sum exactly** to the total lag, per op, by
//! construction — there is no residual "other" bucket.
//!
//! Serialized path (committed through a sync round):
//!
//! | stage        | boundary gap                                          |
//! |--------------|-------------------------------------------------------|
//! | `round_wait` | issue → the committing round's `round_started`        |
//! | `flush_wait` | … → the op's stage-1 flush broadcast                  |
//! | `wire`       | … → the master's receipt of that ops batch (via the   |
//! |              | send's causal stamp)                                  |
//! | `gather`     | … → the master's `begin_apply` (waiting on peers)     |
//! | `apply`      | … → the commit on the issuing machine                 |
//! | `completion` | … → the completion callback                           |
//!
//! The master's own batch, under the parallel flush, is cut as stage 1
//! closes and rides the `begin_apply` message: its `flush_wait` runs to the
//! cut, its `wire` from there to the last member's receipt of that message,
//! and -- the master having committed at the cut -- nothing is left for
//! `gather`, `apply` or `completion`.
//!
//! Async path (hybrid commute-first commit): `async_commit` (issue →
//! commit, zero when committed at issue) and `completion`.
//!
//! The module also attributes every speculative **re-execution** to its
//! recorded cause and computes per-machine **guess-divergence windows**
//! (total virtual time each machine's `sg` ran ahead of its `sc` on its
//! own pending ops).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use guesstimate_core::json::Json;

use crate::trace_json::TraceLine;

/// One parsed line of the `<stem>_spans.jsonl` artifact (the reader side
/// of `guesstimate_telemetry::OpSpan::to_json_line`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanLine {
    /// Issuing machine index.
    pub machine: u32,
    /// Per-machine issue sequence number.
    pub seq: u64,
    /// Issue timestamp (virtual microseconds), if timed.
    pub issued_us: Option<u64>,
    /// First stage-1 flush broadcast.
    pub flushed_us: Option<u64>,
    /// Commit on the issuing machine.
    pub committed_us: Option<u64>,
    /// Completion callback.
    pub completed_us: Option<u64>,
    /// Committing round (None for the async path).
    pub round: Option<u64>,
    /// Committed through the hybrid async path.
    pub is_async: bool,
    /// Executions on the issuing machine (the paper bounds this by 3).
    pub exec_count: u32,
    /// Dropped with a restarting machine's pending list.
    pub lost: bool,
}

impl SpanLine {
    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a description when the line is not a span object.
    pub fn parse(line: &str) -> Result<SpanLine, String> {
        let v = Json::parse(line)?;
        let u = |k: &str| v.get(k).and_then(Json::as_u64);
        Ok(SpanLine {
            machine: u("machine")
                .and_then(|m| u32::try_from(m).ok())
                .ok_or("missing a u32 machine")?,
            seq: u("seq").ok_or("missing seq")?,
            issued_us: u("issued_us"),
            flushed_us: u("flushed_us"),
            committed_us: u("committed_us"),
            completed_us: u("completed_us"),
            round: u("round"),
            is_async: v.get("async").and_then(Json::as_bool).unwrap_or(false),
            exec_count: u("exec_count")
                .map_or(Ok(0), u32::try_from)
                .map_err(|_| "exec_count past u32")?,
            lost: v.get("lost").and_then(Json::as_bool).unwrap_or(false),
        })
    }

    /// Parses a whole spans JSONL document, skipping blank lines.
    ///
    /// # Errors
    ///
    /// Reports the first malformed line with its 1-based line number.
    pub fn parse_all(text: &str) -> Result<Vec<SpanLine>, String> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            out.push(SpanLine::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(out)
    }
}

/// The stage decomposition of one committed op's lag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpWaterfall {
    /// Issuing machine index.
    pub machine: u32,
    /// Per-machine issue sequence number.
    pub seq: u64,
    /// `"serialized"` or `"async"`.
    pub path: &'static str,
    /// End-to-end lag in microseconds (issue → last observed boundary).
    pub total_us: u64,
    /// `(stage name, microseconds)` in chain order; sums to `total_us`
    /// exactly.
    pub stages: Vec<(&'static str, u64)>,
}

/// Aggregated re-executions for one recorded cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReexecTotals {
    /// `reexecuted` trace events with this cause.
    pub events: u64,
    /// Total pending ops replayed across those events.
    pub ops: u64,
}

/// The full lag-attribution report for one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WaterfallReport {
    /// Per-op decompositions, in `(machine, seq)` order.
    pub ops: Vec<OpWaterfall>,
    /// Committed ops excluded because their issue was untimed (instance
    /// creation before the cluster clock is meaningful): lag from issue
    /// is undefined for them.
    pub excluded_untimed: u64,
    /// Re-executions grouped by recorded cause.
    pub reexec: BTreeMap<String, ReexecTotals>,
    /// Per-machine guess-divergence window: total virtual microseconds
    /// the machine had at least one own op issued-but-uncommitted (its
    /// `sg` speculatively ahead of `sc`).
    pub divergence_us: BTreeMap<u32, u64>,
}

impl WaterfallReport {
    /// Re-verifies the exact-sum invariant independently of how the
    /// report was built: every op's stages must sum to its total.
    pub fn verify_exact_sum(&self) -> bool {
        self.ops
            .iter()
            .all(|op| op.stages.iter().map(|(_, us)| *us).sum::<u64>() == op.total_us)
    }
}

/// Builds the lag-attribution report from a trace and its spans.
pub fn build(lines: &[TraceLine], spans: &[SpanLine]) -> WaterfallReport {
    // Round boundaries (first occurrence wins) and the round's master.
    let mut round_started: HashMap<u64, u64> = HashMap::new();
    let mut begin_apply: HashMap<u64, u64> = HashMap::new();
    let mut round_master: HashMap<u64, u32> = HashMap::new();
    // The sends that carry a flushed batch: (src, send time) → stamp, and
    // whether it is a `begin_apply` -- a machine's own `ops` broadcast, else
    // (the master's cut) the `begin_apply` it sends as it flushes; and
    // receipts of those stamps: (origin, stamp) → per-receiver time.
    let mut ops_sent: HashMap<(u32, u64), (u64, bool)> = HashMap::new();
    let mut ops_received: HashMap<(u32, u64), Vec<(u32, u64)>> = HashMap::new();
    let mut reexec: BTreeMap<String, ReexecTotals> = BTreeMap::new();
    for l in lines {
        match l.event.as_str() {
            "round_started" => {
                if let Some(r) = l.round {
                    round_started.entry(r).or_insert(l.at_us);
                    round_master.entry(r).or_insert(l.src);
                }
            }
            "begin_apply" => {
                if let Some(r) = l.round {
                    begin_apply.entry(r).or_insert(l.at_us);
                }
            }
            "msg_sent" if matches!(l.kind.as_deref(), Some("ops" | "begin_apply")) => {
                // First wins: a machine that broadcasts `ops` as it flushes
                // does so ahead of any signal of the same instant.
                if let Some(stamp) = l.stamp {
                    let rides_begin_apply = l.kind.as_deref() == Some("begin_apply");
                    let carrier = (stamp, rides_begin_apply);
                    ops_sent.entry((l.src, l.at_us)).or_insert(carrier);
                }
            }
            "msg_received" if matches!(l.kind.as_deref(), Some("ops" | "begin_apply")) => {
                if let (Some(origin), Some(stamp)) = (l.origin, l.stamp) {
                    ops_received
                        .entry((origin, stamp))
                        .or_default()
                        .push((l.src, l.at_us));
                }
            }
            "reexecuted" => {
                let cause = l.cause.clone().unwrap_or_else(|| "unknown".to_owned());
                let t = reexec.entry(cause).or_default();
                t.events += 1;
                t.ops += l.pending.unwrap_or(0);
            }
            _ => {}
        }
    }

    let mut report = WaterfallReport {
        reexec,
        ..WaterfallReport::default()
    };
    let mut divergence: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        let Some(committed) = s.committed_us else {
            continue;
        };
        let Some(issued) = s.issued_us else {
            report.excluded_untimed += 1;
            continue;
        };
        divergence
            .entry(s.machine)
            .or_default()
            .push((issued, committed.max(issued)));

        // The clamped monotone boundary chain: each boundary is at least
        // the previous one, so every stage is the non-negative gap to its
        // predecessor and the stages telescope to `last - issued`.
        let mut prev = issued;
        let mut stages: Vec<(&'static str, u64)> = Vec::with_capacity(6);
        let mut stage = |name, boundary: Option<u64>, prev: &mut u64| {
            let b = boundary.unwrap_or(*prev).max(*prev);
            stages.push((name, b - *prev));
            *prev = b;
        };
        if s.is_async {
            stage("async_commit", Some(committed), &mut prev);
            stage("completion", s.completed_us, &mut prev);
        } else {
            let r = s.round;
            stage(
                "round_wait",
                r.and_then(|r| round_started.get(&r)).copied(),
                &mut prev,
            );
            stage("flush_wait", s.flushed_us, &mut prev);
            // The wire boundary: when the committing round's master
            // received the flush broadcast this op rode on (joined via
            // the send's causal stamp) -- or, for the master's own batch
            // inside `begin_apply`, when the last member received that.
            let master = r.and_then(|r| round_master.get(&r)).copied();
            let carrier = s.flushed_us.and_then(|f| ops_sent.get(&(s.machine, f)));
            let arrival = carrier.and_then(|&(stamp, rides_begin_apply)| {
                let receipts = ops_received.get(&(s.machine, stamp))?.iter();
                if rides_begin_apply {
                    return receipts.map(|(_, at)| *at).max();
                }
                let at_master = receipts.filter(|(rx, _)| master.is_none_or(|m| *rx == m));
                at_master.map(|(_, at)| *at).min()
            });
            stage("wire", arrival, &mut prev);
            stage(
                "gather",
                r.and_then(|r| begin_apply.get(&r)).copied(),
                &mut prev,
            );
            stage("apply", Some(committed), &mut prev);
            stage("completion", s.completed_us, &mut prev);
        }
        report.ops.push(OpWaterfall {
            machine: s.machine,
            seq: s.seq,
            path: if s.is_async { "async" } else { "serialized" },
            total_us: prev - issued,
            stages,
        });
    }
    report.ops.sort_by_key(|o| (o.machine, o.seq));
    report.divergence_us = divergence
        .into_iter()
        .map(|(m, intervals)| (m, union_len(intervals)))
        .collect();
    report
}

/// Total length of the union of half-open intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match &mut cur {
            Some((_, e)) if a <= *e => *e = (*e).max(b),
            _ => {
                if let Some((s, e)) = cur.take() {
                    total += e - s;
                }
                cur = Some((a, b));
            }
        }
    }
    if let Some((s, e)) = cur {
        total += e - s;
    }
    total
}

/// Renders the report as a fixed-width text summary: mean/max per stage
/// and path, the re-execution attribution table, and the divergence
/// windows.
pub fn render(report: &WaterfallReport) -> String {
    let mut s = String::new();
    for path in ["serialized", "async"] {
        let ops: Vec<&OpWaterfall> = report.ops.iter().filter(|o| o.path == path).collect();
        let _ = writeln!(s, "lag waterfall — {path} path ({} ops)", ops.len());
        if ops.is_empty() {
            continue;
        }
        let total: u64 = ops.iter().map(|o| o.total_us).sum();
        let mut order: Vec<&'static str> = Vec::new();
        let mut sums: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for o in &ops {
            for (name, us) in &o.stages {
                if !sums.contains_key(name) {
                    order.push(name);
                }
                let e = sums.entry(name).or_insert((0, 0));
                e.0 += us;
                e.1 = e.1.max(*us);
            }
        }
        let _ = writeln!(
            s,
            "{:>12} {:>10} {:>10} {:>7}",
            "stage", "mean_ms", "max_ms", "share"
        );
        for name in order {
            let (sum, max) = sums[name];
            let _ = writeln!(
                s,
                "{:>12} {:>10.3} {:>10.3} {:>6.1}%",
                name,
                sum as f64 / ops.len() as f64 / 1000.0,
                max as f64 / 1000.0,
                if total == 0 {
                    0.0
                } else {
                    100.0 * sum as f64 / total as f64
                },
            );
        }
    }
    let _ = writeln!(s, "re-execution attribution");
    let _ = writeln!(s, "{:>18} {:>7} {:>7}", "cause", "events", "ops");
    for (cause, t) in &report.reexec {
        let _ = writeln!(s, "{:>18} {:>7} {:>7}", cause, t.events, t.ops);
    }
    let _ = writeln!(s, "guess-divergence windows");
    for (m, us) in &report.divergence_us {
        let _ = writeln!(s, "  machine-{m}: {:.3} ms", *us as f64 / 1000.0);
    }
    if report.excluded_untimed > 0 {
        let _ = writeln!(
            s,
            "({} committed ops untimed at issue — excluded from lag attribution)",
            report.excluded_untimed
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl(at_us: u64, src: u32, event: &str) -> TraceLine {
        TraceLine {
            at_us,
            src,
            event: event.to_owned(),
            round: None,
            stamp: None,
            origin: None,
            kind: None,
            pending: None,
            cause: None,
        }
    }

    fn span(machine: u32, seq: u64) -> SpanLine {
        SpanLine {
            machine,
            seq,
            issued_us: None,
            flushed_us: None,
            committed_us: None,
            completed_us: None,
            round: None,
            is_async: false,
            exec_count: 1,
            lost: false,
        }
    }

    #[test]
    fn serialized_chain_sums_exactly_with_full_boundaries() {
        let mut rs = tl(1_000, 0, "round_started");
        rs.round = Some(3);
        let mut ba = tl(5_000, 0, "begin_apply");
        ba.round = Some(3);
        let mut sent = tl(2_000, 1, "msg_sent");
        sent.stamp = Some(9);
        sent.kind = Some("ops".to_owned());
        let mut recv = tl(3_500, 0, "msg_received");
        recv.origin = Some(1);
        recv.stamp = Some(9);
        recv.kind = Some("ops".to_owned());
        let lines = vec![rs, sent, recv, ba];

        let mut s = span(1, 0);
        s.issued_us = Some(500);
        s.flushed_us = Some(2_000);
        s.committed_us = Some(6_000);
        s.completed_us = Some(6_500);
        s.round = Some(3);
        let report = build(&lines, &[s]);
        assert_eq!(report.ops.len(), 1);
        let op = &report.ops[0];
        assert_eq!(op.total_us, 6_000);
        assert_eq!(
            op.stages,
            vec![
                ("round_wait", 500),
                ("flush_wait", 1_000),
                ("wire", 1_500),
                ("gather", 1_500),
                ("apply", 1_000),
                ("completion", 500),
            ]
        );
        assert!(report.verify_exact_sum());
    }

    #[test]
    fn the_masters_cut_batch_takes_its_wire_stage_from_the_begin_apply_that_carried_it() {
        // The master (m0) cuts at 5 ms: flush, `begin_apply` send and commit
        // share the instant; the members receive the message 1 and 1.2 ms
        // later.
        let at = |mut l: TraceLine, round| {
            l.round = Some(round);
            l
        };
        let msg = |mut l: TraceLine, origin, stamp, kind: &str| {
            (l.origin, l.stamp, l.kind) = (origin, Some(stamp), Some(kind.to_owned()));
            l
        };
        let lines = vec![
            at(tl(1_000, 0, "round_started"), 3),
            msg(tl(5_000, 0, "msg_sent"), None, 9, "begin_apply"),
            at(tl(5_000, 0, "begin_apply"), 3),
            msg(tl(6_000, 1, "msg_received"), Some(0), 9, "begin_apply"),
            msg(tl(6_200, 2, "msg_received"), Some(0), 9, "begin_apply"),
        ];
        let mut s = span(0, 0);
        s.issued_us = Some(500);
        s.flushed_us = Some(5_000);
        s.committed_us = Some(5_000);
        s.completed_us = Some(5_000);
        s.round = Some(3);
        let report = build(&lines, &[s]);
        assert_eq!(
            report.ops[0].stages,
            vec![
                ("round_wait", 500),
                ("flush_wait", 4_000),
                ("wire", 1_200),
                ("gather", 0),
                ("apply", 0),
                ("completion", 0),
            ]
        );
        assert!(report.verify_exact_sum());
    }

    #[test]
    fn missing_boundaries_clamp_to_zero_stages_and_still_sum() {
        // No round events, no message join: everything collapses into
        // `apply`, but the partition stays exact.
        let mut s = span(2, 1);
        s.issued_us = Some(100);
        s.committed_us = Some(900);
        s.round = Some(7);
        let report = build(&[], &[s]);
        let op = &report.ops[0];
        assert_eq!(op.total_us, 800);
        assert_eq!(op.stages.iter().map(|(_, u)| u).sum::<u64>(), 800);
        assert_eq!(
            op.stages.iter().find(|(n, _)| *n == "apply").unwrap().1,
            800
        );
        assert!(report.verify_exact_sum());
    }

    #[test]
    fn async_path_attributes_commit_and_completion() {
        let mut s = span(0, 4);
        s.issued_us = Some(100);
        s.committed_us = Some(100);
        s.completed_us = Some(400);
        s.is_async = true;
        let report = build(&[], &[s]);
        let op = &report.ops[0];
        assert_eq!(op.path, "async");
        assert_eq!(op.stages, vec![("async_commit", 0), ("completion", 300)]);
        assert_eq!(op.total_us, 300);
    }

    #[test]
    fn untimed_and_uncommitted_spans_are_excluded() {
        let mut untimed = span(0, 0);
        untimed.committed_us = Some(50);
        let uncommitted = span(0, 1);
        let report = build(&[], &[untimed, uncommitted]);
        assert!(report.ops.is_empty());
        assert_eq!(report.excluded_untimed, 1);
    }

    #[test]
    fn reexec_attribution_groups_by_cause() {
        let mut a = tl(1, 0, "reexecuted");
        a.cause = Some("foreign_conflict".to_owned());
        a.pending = Some(2);
        let mut b = tl(2, 1, "reexecuted");
        b.cause = Some("foreign_conflict".to_owned());
        b.pending = Some(1);
        let mut c = tl(3, 1, "reexecuted");
        c.cause = Some("async_patch".to_owned());
        c.pending = Some(4);
        let report = build(&[a, b, c], &[]);
        assert_eq!(
            report.reexec["foreign_conflict"],
            ReexecTotals { events: 2, ops: 3 }
        );
        assert_eq!(
            report.reexec["async_patch"],
            ReexecTotals { events: 1, ops: 4 }
        );
    }

    #[test]
    fn divergence_merges_overlapping_windows() {
        let mk = |issued, committed| {
            let mut s = span(1, issued);
            s.issued_us = Some(issued);
            s.committed_us = Some(committed);
            s
        };
        // [10,50) ∪ [30,60) ∪ [100,110) = 40 + 10 + 10 = 60.
        let report = build(&[], &[mk(10, 50), mk(30, 60), mk(100, 110)]);
        assert_eq!(report.divergence_us[&1], 60);
    }

    #[test]
    fn render_mentions_every_section() {
        let mut s = span(0, 0);
        s.issued_us = Some(0);
        s.committed_us = Some(10);
        let text = render(&build(&[], &[s]));
        assert!(text.contains("lag waterfall — serialized path (1 ops)"));
        assert!(text.contains("re-execution attribution"));
        assert!(text.contains("guess-divergence windows"));
    }

    #[test]
    fn span_counts_past_u32_are_errors() {
        let line = |machine: u64, exec_count: u64| {
            format!("{{\"machine\":{machine},\"seq\":0,\"exec_count\":{exec_count}}}")
        };
        let ok = SpanLine::parse(&line(1, 2)).unwrap();
        assert_eq!((ok.machine, ok.exec_count), (1, 2));
        assert!(SpanLine::parse(&line(1 << 32, 2)).is_err(), "machine");
        assert!(SpanLine::parse(&line(1, 1 << 32)).is_err(), "exec_count");
    }
}

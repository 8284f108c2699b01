//! Per-operation lifecycle spans.
//!
//! The paper's contract is per-operation: an op is issued against the
//! guesstimated state `sg`, flushed to the mesh during stage 1,
//! committed in the global order, and its completion runs — and along
//! the way it executes **at most 3 times** (issue, at most one replay
//! epoch per rebuild collapsed into the count kept by the machine, and
//! the committed execution). An [`OpSpan`] records that lifecycle for
//! one operation, keyed by [`OpId`], with the timestamps needed to
//! derive commit lag and flush latency.
//!
//! Spans are tracked **on the issuing machine only** (the machine that
//! owns the op's sequence number); remote executions of the same op are
//! part of other machines' replay work and show up in the exec-count
//! histogram, not as separate spans.

use std::collections::BTreeMap;

use guesstimate_core::json;
use guesstimate_core::{MachineId, OpId};
use guesstimate_net::SimTime;

/// The recorded lifecycle of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// The operation.
    pub op: OpId,
    /// When the op was issued on `sg` (None for untimed issue paths).
    pub issued_at: Option<SimTime>,
    /// When the op was first broadcast in a stage-1 flush. Re-flushes
    /// after message loss do not move this.
    pub flushed_at: Option<SimTime>,
    /// When the op was committed into `sc` on the issuing machine.
    pub committed_at: Option<SimTime>,
    /// When the op's completion callback ran (same protocol instant as
    /// commit in this runtime; kept separate for format fidelity).
    pub completed_at: Option<SimTime>,
    /// The sync round that committed the op (`None` for an op committed
    /// through the hybrid async path, which bypasses rounds).
    pub commit_round: Option<u64>,
    /// The op committed through the hybrid async path (commute-first
    /// commit, no round).
    pub committed_async: bool,
    /// Total executions on the issuing machine (issue + replays +
    /// commit). The paper bounds this by 3.
    pub exec_count: u32,
    /// The issuing machine restarted before the op committed; the op
    /// was dropped with the machine's pending list.
    pub lost: bool,
}

impl OpSpan {
    fn new(op: OpId) -> Self {
        OpSpan {
            op,
            issued_at: None,
            flushed_at: None,
            committed_at: None,
            completed_at: None,
            commit_round: None,
            committed_async: false,
            exec_count: 0,
            lost: false,
        }
    }

    /// Commit latency (issue → commit) if both ends were stamped.
    pub fn commit_lag(&self) -> Option<SimTime> {
        match (self.issued_at, self.committed_at) {
            (Some(i), Some(c)) => Some(c.saturating_since(i)),
            _ => None,
        }
    }

    /// Whether the span reached commit.
    pub fn committed(&self) -> bool {
        self.committed_at.is_some()
    }

    /// Renders the span as one JSON object (a JSONL line, no trailing
    /// newline). Timestamps are virtual microseconds; unset edges render
    /// as `null`. This is the `<stem>_spans.jsonl` artifact format the
    /// `obs` report binary joins against the protocol trace.
    pub fn to_json_line(&self) -> String {
        let us = |t: Option<SimTime>| t.map(SimTime::as_micros);
        json::object(|w| {
            w.field("machine", self.op.machine().index())
                .field("seq", self.op.seq())
                .field("issued_us", us(self.issued_at))
                .field("flushed_us", us(self.flushed_at))
                .field("committed_us", us(self.committed_at))
                .field("completed_us", us(self.completed_at))
                .field("round", self.commit_round)
                .field("async", self.committed_async)
                .field("exec_count", self.exec_count)
                .field("lost", self.lost);
        })
    }
}

/// The set of spans for a run, keyed by [`OpId`].
#[derive(Debug, Default)]
pub struct SpanBook {
    spans: BTreeMap<OpId, OpSpan>,
}

impl SpanBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&mut self, op: OpId) -> &mut OpSpan {
        self.spans.entry(op).or_insert_with(|| OpSpan::new(op))
    }

    /// Records an issue. `at` is `None` on untimed paths (e.g. instance
    /// creation before the cluster clock is meaningful).
    pub fn issued(&mut self, op: OpId, at: Option<SimTime>) {
        let s = self.entry(op);
        if s.issued_at.is_none() {
            s.issued_at = at;
        }
        s.exec_count = s.exec_count.max(1);
    }

    /// Records a stage-1 flush. Idempotent: a re-flush after message
    /// loss keeps the original timestamp and the single span.
    pub fn flushed(&mut self, op: OpId, at: SimTime) {
        let s = self.entry(op);
        if s.flushed_at.is_none() {
            s.flushed_at = Some(at);
        }
    }

    /// Records the commit, with the authoritative execution count from
    /// the issuing machine.
    pub fn committed(&mut self, op: OpId, round: u64, exec_count: u32, at: SimTime) {
        let s = self.entry(op);
        s.committed_at = Some(at);
        s.commit_round = Some(round);
        s.exec_count = exec_count;
        s.lost = false;
    }

    /// Records an async-path commit (no round; the hybrid commit path).
    pub fn committed_async(&mut self, op: OpId, exec_count: u32, at: SimTime) {
        let s = self.entry(op);
        s.committed_at = Some(at);
        s.commit_round = None;
        s.committed_async = true;
        s.exec_count = exec_count;
        s.lost = false;
    }

    /// Records the completion callback.
    pub fn completed(&mut self, op: OpId, at: SimTime) {
        let s = self.entry(op);
        if s.completed_at.is_none() {
            s.completed_at = Some(at);
        }
    }

    /// Marks every uncommitted span issued by `machine` as lost (the
    /// machine restarted and dropped its pending list).
    pub fn machine_restarted(&mut self, machine: MachineId) {
        for s in self.spans.values_mut() {
            if s.op.machine() == machine && !s.committed() {
                s.lost = true;
            }
        }
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// A snapshot of every span, in `OpId` order.
    pub fn snapshot(&self) -> Vec<OpSpan> {
        self.spans.values().copied().collect()
    }

    /// The span for one op, if tracked.
    pub fn get(&self, op: OpId) -> Option<OpSpan> {
        self.spans.get(&op).copied()
    }

    /// The largest exec count across all spans (0 when empty).
    pub fn max_exec_count(&self) -> u32 {
        self.spans.values().map(|s| s.exec_count).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(m: u32, seq: u64) -> OpId {
        OpId::new(MachineId::new(m), seq)
    }

    #[test]
    fn lifecycle_orders_and_lag() {
        let mut book = SpanBook::new();
        let id = op(1, 0);
        book.issued(id, Some(SimTime::from_millis(10)));
        book.flushed(id, SimTime::from_millis(40));
        book.committed(id, 3, 2, SimTime::from_millis(200));
        book.completed(id, SimTime::from_millis(200));
        let s = book.snapshot()[0];
        assert_eq!(s.commit_lag(), Some(SimTime::from_millis(190)));
        assert_eq!(s.commit_round, Some(3));
        assert_eq!(s.exec_count, 2);
        assert!(!s.lost);
    }

    #[test]
    fn reflush_keeps_one_span_and_first_timestamp() {
        let mut book = SpanBook::new();
        let id = op(0, 7);
        book.issued(id, Some(SimTime::from_millis(1)));
        book.flushed(id, SimTime::from_millis(5));
        // The flush was lost; the next round re-broadcasts the batch.
        book.flushed(id, SimTime::from_millis(50));
        assert_eq!(book.len(), 1);
        assert_eq!(book.snapshot()[0].flushed_at, Some(SimTime::from_millis(5)));
    }

    #[test]
    fn restart_marks_only_uncommitted_own_spans_lost() {
        let mut book = SpanBook::new();
        book.issued(op(1, 0), Some(SimTime::ZERO));
        book.committed(op(1, 0), 0, 1, SimTime::from_millis(1));
        book.issued(op(1, 1), Some(SimTime::ZERO));
        book.issued(op(2, 0), Some(SimTime::ZERO));
        book.machine_restarted(MachineId::new(1));
        let spans = book.snapshot();
        assert!(!spans.iter().find(|s| s.op == op(1, 0)).unwrap().lost);
        assert!(spans.iter().find(|s| s.op == op(1, 1)).unwrap().lost);
        assert!(!spans.iter().find(|s| s.op == op(2, 0)).unwrap().lost);
    }

    #[test]
    fn json_lines_match_their_golden_bytes() {
        let mut book = SpanBook::new();
        book.issued(op(1, 0), Some(SimTime::from_millis(10)));
        book.flushed(op(1, 0), SimTime::from_millis(40));
        book.committed(op(1, 0), 3, 2, SimTime::from_millis(200));
        book.completed(op(1, 0), SimTime::from_millis(200));
        book.issued(op(2, 4), Some(SimTime::from_millis(7)));
        book.machine_restarted(MachineId::new(2));
        let lines: Vec<String> = book.snapshot().iter().map(OpSpan::to_json_line).collect();
        assert_eq!(
            lines,
            [
                r#"{"machine":1,"seq":0,"issued_us":10000,"flushed_us":40000,"committed_us":200000,"completed_us":200000,"round":3,"async":false,"exec_count":2,"lost":false}"#,
                r#"{"machine":2,"seq":4,"issued_us":7000,"flushed_us":null,"committed_us":null,"completed_us":null,"round":null,"async":false,"exec_count":1,"lost":true}"#,
            ]
        );
    }

    #[test]
    fn max_exec_count_tracks_commits() {
        let mut book = SpanBook::new();
        assert_eq!(book.max_exec_count(), 0);
        book.issued(op(0, 0), None);
        assert_eq!(book.max_exec_count(), 1);
        book.committed(op(0, 0), 0, 3, SimTime::ZERO);
        assert_eq!(book.max_exec_count(), 3);
    }
}

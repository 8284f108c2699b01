//! The JSONL wire format for protocol traces: writer and reader.
//!
//! [`record_to_json`] is the **single** definition of the trace line
//! format (one JSON object per [`TraceRecord`], stable keys, every value
//! a scalar); `guesstimate-bench` re-exports it for its sinks. The
//! matching reader, [`TraceLine`], parses those lines back — including
//! lines produced by older binaries, since unknown keys are ignored and
//! absent keys parse as `None`.

use std::fmt::Write as _;

use guesstimate_core::json::Json;
use guesstimate_net::{TraceEvent, TraceRecord};

/// Renders one trace record as a single-line JSON object.
///
/// Keys: `at_us` (timestamp in virtual microseconds), `src` (emitting
/// machine index), `event` (stable snake_case name), then the variant's
/// scalar fields under their field names (machine ids as indices).
pub fn record_to_json(r: &TraceRecord) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"at_us\":{},\"src\":{},\"event\":\"{}\"",
        r.at.as_micros(),
        r.source.index(),
        r.event.name()
    );
    match r.event {
        TraceEvent::RoundStarted {
            round,
            participants,
        } => {
            let _ = write!(s, ",\"round\":{round},\"participants\":{participants}");
        }
        TraceEvent::FlushWindowOpened { round, machine } => {
            let _ = write!(s, ",\"round\":{round},\"machine\":{}", machine.index());
        }
        TraceEvent::FlushWindowClosed {
            round,
            machine,
            ops,
        } => {
            let _ = write!(
                s,
                ",\"round\":{round},\"machine\":{},\"ops\":{ops}",
                machine.index()
            );
        }
        TraceEvent::OpsBatchSent { round, ops } => {
            let _ = write!(s, ",\"round\":{round},\"ops\":{ops}");
        }
        TraceEvent::OpsBatchReceived { round, from, ops } => {
            let _ = write!(
                s,
                ",\"round\":{round},\"from\":{},\"ops\":{ops}",
                from.index()
            );
        }
        TraceEvent::BeginApply { round, ops_total } => {
            let _ = write!(s, ",\"round\":{round},\"ops_total\":{ops_total}");
        }
        TraceEvent::AckReceived { round, machine } => {
            let _ = write!(s, ",\"round\":{round},\"machine\":{}", machine.index());
        }
        TraceEvent::SyncComplete {
            round,
            ops_committed,
        } => {
            let _ = write!(s, ",\"round\":{round},\"ops_committed\":{ops_committed}");
        }
        TraceEvent::SyncCompleteReceived { round } => {
            let _ = write!(s, ",\"round\":{round}");
        }
        TraceEvent::Resend {
            round,
            machine,
            stage,
        } => {
            let _ = write!(
                s,
                ",\"round\":{round},\"machine\":{},\"stage\":{stage}",
                machine.index()
            );
        }
        TraceEvent::OpsResendRequested { round, source } => {
            let _ = write!(s, ",\"round\":{round},\"source\":{}", source.index());
        }
        TraceEvent::Removed { round, machine } => {
            let _ = write!(s, ",\"round\":{round},\"machine\":{}", machine.index());
        }
        TraceEvent::Restarted => {}
        TraceEvent::MsgSent { stamp, kind, bytes } => {
            let _ = write!(
                s,
                ",\"stamp\":{stamp},\"kind\":\"{kind}\",\"bytes\":{bytes}"
            );
        }
        TraceEvent::MsgReceived {
            origin,
            stamp,
            kind,
        } => {
            let _ = write!(
                s,
                ",\"origin\":{},\"stamp\":{stamp},\"kind\":\"{kind}\"",
                origin.index()
            );
        }
        TraceEvent::Reexecuted {
            round,
            pending,
            cause,
        } => {
            let _ = write!(
                s,
                ",\"round\":{round},\"pending\":{pending},\"cause\":\"{}\"",
                cause.name()
            );
        }
        TraceEvent::ElectionStarted { last_round } => {
            let _ = write!(s, ",\"last_round\":{last_round}");
        }
        TraceEvent::ElectionWon { round } => {
            let _ = write!(s, ",\"round\":{round}");
        }
    }
    s.push('}');
    s
}

/// One parsed trace line — the reader side of [`record_to_json`].
///
/// Only the fields the observability pipeline consumes are typed;
/// everything else in the line is ignored, so the reader tolerates both
/// older traces (fields absent → `None`) and future additions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLine {
    /// Timestamp in virtual microseconds.
    pub at_us: u64,
    /// Emitting machine index.
    pub src: u32,
    /// Stable snake_case event name.
    pub event: String,
    /// Round number, for round-scoped events.
    pub round: Option<u64>,
    /// Message stamp (`msg_sent` / `msg_received`).
    pub stamp: Option<u64>,
    /// Sender index (`msg_received` only).
    pub origin: Option<u32>,
    /// Message-kind label (`msg_sent` / `msg_received`).
    pub kind: Option<String>,
    /// Pending-list length (`reexecuted`).
    pub pending: Option<u64>,
    /// Re-execution cause (`reexecuted` only).
    pub cause: Option<String>,
}

impl TraceLine {
    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a description when the line is not a JSON object or lacks
    /// the `at_us` / `src` / `event` envelope.
    pub fn parse(line: &str) -> Result<TraceLine, String> {
        let v = Json::parse(line)?;
        let at_us = v
            .get("at_us")
            .and_then(Json::as_u64)
            .ok_or("missing at_us")?;
        let src = v.get("src").and_then(Json::as_u64).ok_or("missing src")? as u32;
        let event = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or("missing event")?
            .to_owned();
        Ok(TraceLine {
            at_us,
            src,
            event,
            round: v.get("round").and_then(Json::as_u64),
            stamp: v.get("stamp").and_then(Json::as_u64),
            origin: v.get("origin").and_then(Json::as_u64).map(|o| o as u32),
            kind: v.get("kind").and_then(Json::as_str).map(str::to_owned),
            pending: v.get("pending").and_then(Json::as_u64),
            cause: v.get("cause").and_then(Json::as_str).map(str::to_owned),
        })
    }

    /// Parses a whole JSONL document, skipping blank lines.
    ///
    /// # Errors
    ///
    /// Reports the first malformed line with its 1-based line number.
    pub fn parse_all(text: &str) -> Result<Vec<TraceLine>, String> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            out.push(TraceLine::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use guesstimate_core::MachineId;
    use guesstimate_net::{ReplayCause, SimTime};

    use super::*;

    fn rec(at_ms: u64, source: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_millis(at_ms),
            source: MachineId::new(source),
            event,
        }
    }

    #[test]
    fn message_events_roundtrip_through_the_reader() {
        let sent = record_to_json(&rec(
            2,
            1,
            TraceEvent::MsgSent {
                stamp: 7,
                kind: "ops",
                bytes: 120,
            },
        ));
        let line = TraceLine::parse(&sent).unwrap();
        assert_eq!(line.event, "msg_sent");
        assert_eq!(line.stamp, Some(7));
        assert_eq!(line.kind.as_deref(), Some("ops"));
        assert_eq!(line.at_us, 2000);
        assert_eq!(line.src, 1);

        let recv = record_to_json(&rec(
            5,
            0,
            TraceEvent::MsgReceived {
                origin: MachineId::new(1),
                stamp: 7,
                kind: "ops",
            },
        ));
        let line = TraceLine::parse(&recv).unwrap();
        assert_eq!(line.origin, Some(1));
        assert_eq!(line.stamp, Some(7));

        let reex = record_to_json(&rec(
            9,
            2,
            TraceEvent::Reexecuted {
                round: 4,
                pending: 3,
                cause: ReplayCause::ForeignConflict,
            },
        ));
        let line = TraceLine::parse(&reex).unwrap();
        assert_eq!(line.event, "reexecuted");
        assert_eq!(line.round, Some(4));
        assert_eq!(line.pending, Some(3));
        assert_eq!(line.cause.as_deref(), Some("foreign_conflict"));
    }

    #[test]
    fn reader_tolerates_unknown_and_absent_fields() {
        let line = TraceLine::parse("{\"at_us\":1,\"src\":0,\"event\":\"custom\",\"novel\":true}")
            .unwrap();
        assert_eq!(line.event, "custom");
        assert_eq!(line.round, None);
        // An event this binary no longer emits (deleted in PR 25) still
        // parses, with the fields the reader types.
        let old = TraceLine::parse(
            "{\"at_us\":9000,\"src\":2,\"event\":\"replay_skipped\",\"round\":4,\"pending\":3}",
        )
        .unwrap();
        assert_eq!(old.event, "replay_skipped");
        assert_eq!(
            (old.round, old.pending, old.cause),
            (Some(4), Some(3), None)
        );
        assert!(TraceLine::parse("{\"src\":0,\"event\":\"x\"}").is_err());
    }

    #[test]
    fn parse_all_reports_line_numbers() {
        let doc = "{\"at_us\":1,\"src\":0,\"event\":\"a\"}\n\nnot json\n";
        let err = TraceLine::parse_all(doc).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        let ok = TraceLine::parse_all("{\"at_us\":1,\"src\":0,\"event\":\"a\"}\n").unwrap();
        assert_eq!(ok.len(), 1);
    }
}

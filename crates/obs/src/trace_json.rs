//! The JSONL wire format for protocol traces: writer and reader.
//!
//! [`record_to_json`] is the **single** definition of the trace line
//! format (one JSON object per [`TraceRecord`], stable keys, every value
//! a scalar), written through `guesstimate_core::json`'s writer. The
//! matching reader, [`TraceLine`], parses those lines back — including
//! lines produced by older binaries, since unknown keys are ignored and
//! absent keys parse as `None`.

use guesstimate_core::json::{self, Json, JsonWriter};
use guesstimate_net::{TraceEvent, TraceRecord};

/// Renders one trace record as a single-line JSON object.
///
/// Keys: `at_us` (timestamp in virtual microseconds), `src` (emitting
/// machine index), `event` (stable snake_case name), then the variant's
/// scalar fields under their field names (machine ids as indices).
pub fn record_to_json(r: &TraceRecord) -> String {
    json::object(|w| write_record(w, r))
}

/// The members of [`record_to_json`]'s object.
pub(crate) fn write_record(w: &mut JsonWriter, r: &TraceRecord) {
    w.field("at_us", r.at.as_micros())
        .field("src", r.source.index())
        .field("event", r.event.name());
    match r.event {
        TraceEvent::RoundStarted {
            round,
            participants,
        } => w.field("round", round).field("participants", participants),
        TraceEvent::FlushWindowOpened { round, machine }
        | TraceEvent::AckReceived { round, machine }
        | TraceEvent::Removed { round, machine } => {
            w.field("round", round).field("machine", machine.index())
        }
        TraceEvent::FlushWindowClosed {
            round,
            machine,
            ops,
        } => w
            .field("round", round)
            .field("machine", machine.index())
            .field("ops", ops),
        TraceEvent::OpsBatchSent { round, ops } => w.field("round", round).field("ops", ops),
        TraceEvent::OpsBatchReceived { round, from, ops } => w
            .field("round", round)
            .field("from", from.index())
            .field("ops", ops),
        TraceEvent::BeginApply { round, ops_total } => {
            w.field("round", round).field("ops_total", ops_total)
        }
        TraceEvent::SyncComplete {
            round,
            ops_committed,
        } => w
            .field("round", round)
            .field("ops_committed", ops_committed),
        TraceEvent::SyncCompleteReceived { round } | TraceEvent::ElectionWon { round } => {
            w.field("round", round)
        }
        TraceEvent::Resend {
            round,
            machine,
            stage,
        } => w
            .field("round", round)
            .field("machine", machine.index())
            .field("stage", stage),
        TraceEvent::OpsResendRequested { round, source } => {
            w.field("round", round).field("source", source.index())
        }
        TraceEvent::Restarted | TraceEvent::JoinRefused => w,
        TraceEvent::MsgSent { stamp, kind, bytes } => w
            .field("stamp", stamp)
            .field("kind", kind)
            .field("bytes", bytes),
        TraceEvent::MsgReceived {
            origin,
            stamp,
            kind,
        } => w
            .field("origin", origin.index())
            .field("stamp", stamp)
            .field("kind", kind),
        TraceEvent::Reexecuted {
            round,
            pending,
            cause,
        } => w
            .field("round", round)
            .field("pending", pending)
            .field("cause", cause.name()),
        TraceEvent::ElectionStarted { last_round } => w.field("last_round", last_round),
    };
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
        TraceLine::from_json(&Json::parse(line)?)
    }

    /// Reads one already-parsed trace line (as captured inside a
    /// postmortem bundle).
    ///
    /// # Errors
    ///
    /// As [`TraceLine::parse`], past the JSON syntax.
    pub fn from_json(v: &Json) -> Result<TraceLine, String> {
        let at_us = v
            .get("at_us")
            .and_then(Json::as_u64)
            .ok_or("missing at_us")?;
        let index = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .map(|n| u32::try_from(n).map_err(|_| format!("`{k}` {n} is not a machine index")))
                .transpose()
        };
        let src = index("src")?.ok_or("missing src")?;
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
            origin: index("origin")?,
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
    fn json_lines_have_stable_shape() {
        let line = record_to_json(&rec(
            100,
            0,
            TraceEvent::RoundStarted {
                round: 5,
                participants: 3,
            },
        ));
        assert_eq!(
            line,
            "{\"at_us\":100000,\"src\":0,\"event\":\"round_started\",\"round\":5,\"participants\":3}"
        );
        let bare = record_to_json(&rec(7, 2, TraceEvent::Restarted));
        assert_eq!(bare, "{\"at_us\":7000,\"src\":2,\"event\":\"restarted\"}");
    }

    #[test]
    fn json_carries_machine_ids_as_indices() {
        let line = record_to_json(&rec(
            1,
            0,
            TraceEvent::Removed {
                round: 9,
                machine: MachineId::new(4),
            },
        ));
        assert!(line.contains("\"machine\":4"), "{line}");
        assert!(line.contains("\"round\":9"), "{line}");
    }

    /// The exact bytes of one line per event variant.
    #[test]
    fn every_variant_renders_its_golden_line() {
        let m = MachineId::new(1);
        let cases = [
            (
                TraceEvent::RoundStarted {
                    round: 3,
                    participants: 4,
                },
                r#""round_started","round":3,"participants":4"#,
            ),
            (
                TraceEvent::FlushWindowOpened {
                    round: 3,
                    machine: m,
                },
                r#""flush_window_opened","round":3,"machine":1"#,
            ),
            (
                TraceEvent::FlushWindowClosed {
                    round: 3,
                    machine: m,
                    ops: 5,
                },
                r#""flush_window_closed","round":3,"machine":1,"ops":5"#,
            ),
            (
                TraceEvent::OpsBatchSent { round: 3, ops: 5 },
                r#""ops_batch_sent","round":3,"ops":5"#,
            ),
            (
                TraceEvent::OpsBatchReceived {
                    round: 3,
                    from: m,
                    ops: 5,
                },
                r#""ops_batch_received","round":3,"from":1,"ops":5"#,
            ),
            (
                TraceEvent::BeginApply {
                    round: 3,
                    ops_total: 6,
                },
                r#""begin_apply","round":3,"ops_total":6"#,
            ),
            (
                TraceEvent::AckReceived {
                    round: 3,
                    machine: m,
                },
                r#""ack_received","round":3,"machine":1"#,
            ),
            (
                TraceEvent::SyncComplete {
                    round: 3,
                    ops_committed: 6,
                },
                r#""sync_complete","round":3,"ops_committed":6"#,
            ),
            (
                TraceEvent::SyncCompleteReceived { round: 3 },
                r#""sync_complete_received","round":3"#,
            ),
            (
                TraceEvent::Resend {
                    round: 3,
                    machine: m,
                    stage: 2,
                },
                r#""resend","round":3,"machine":1,"stage":2"#,
            ),
            (
                TraceEvent::OpsResendRequested {
                    round: 3,
                    source: m,
                },
                r#""ops_resend_requested","round":3,"source":1"#,
            ),
            (
                TraceEvent::Removed {
                    round: 3,
                    machine: m,
                },
                r#""removed","round":3,"machine":1"#,
            ),
            (TraceEvent::Restarted, r#""restarted""#),
            (TraceEvent::JoinRefused, r#""join_refused""#),
            (
                TraceEvent::MsgSent {
                    stamp: 7,
                    kind: "ops",
                    bytes: 120,
                },
                r#""msg_sent","stamp":7,"kind":"ops","bytes":120"#,
            ),
            (
                TraceEvent::MsgReceived {
                    origin: m,
                    stamp: 7,
                    kind: "ops",
                },
                r#""msg_received","origin":1,"stamp":7,"kind":"ops""#,
            ),
            (
                TraceEvent::Reexecuted {
                    round: 3,
                    pending: 2,
                    cause: ReplayCause::JoinReplay,
                },
                r#""reexecuted","round":3,"pending":2,"cause":"join_replay""#,
            ),
            (
                TraceEvent::ElectionStarted { last_round: 3 },
                r#""election_started","last_round":3"#,
            ),
            (
                TraceEvent::ElectionWon { round: 4 },
                r#""election_won","round":4"#,
            ),
        ];
        for (event, tail) in cases {
            assert_eq!(
                record_to_json(&rec(1, 2, event)),
                format!(r#"{{"at_us":1000,"src":2,"event":{tail}}}"#)
            );
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

    #[test]
    fn machine_indices_past_u32_are_errors() {
        let line = |src: u64, origin: u64| {
            format!("{{\"at_us\":1,\"src\":{src},\"event\":\"msg_received\",\"origin\":{origin}}}")
        };
        let ok = TraceLine::parse(&line(2, 1)).unwrap();
        assert_eq!((ok.src, ok.origin), (2, Some(1)));
        assert!(TraceLine::parse(&line(1 << 32, 1)).is_err(), "src");
        assert!(TraceLine::parse(&line(2, (1 << 32) + 1)).is_err(), "origin");
    }
}

//! Chrome trace-format (Trace Event Format) export.
//!
//! Converts a protocol [`TraceRecord`] stream plus the per-op spans
//! into the JSON object format understood by `chrome://tracing` and
//! Perfetto: one *track* (tid) per machine carrying instant events for
//! protocol transitions, and one *async span* per operation stretching
//! from issue to completion. Timestamps are microseconds — exactly
//! [`guesstimate_net::SimTime::as_micros`], so virtual time maps 1:1 onto the viewer's
//! timeline.

use std::collections::BTreeSet;

use guesstimate_core::json::{self, JsonWriter};
use guesstimate_net::{SimTime, TraceRecord};

use crate::spans::OpSpan;

/// Renders records + spans as a Chrome trace-format JSON document.
pub fn render(records: &[TraceRecord], spans: &[OpSpan]) -> String {
    // One named track per machine (metadata events).
    let mut machines: BTreeSet<u32> = BTreeSet::new();
    for r in records {
        machines.insert(r.source.index());
    }
    for s in spans {
        machines.insert(s.op.machine().index());
    }
    json::object(|w| {
        w.field("displayTimeUnit", "ms");
        w.key("traceEvents").array(|w| {
            for m in &machines {
                w.object(|w| {
                    w.field("name", "thread_name")
                        .field("ph", "M")
                        .field("pid", 0u32)
                        .field("tid", *m);
                    w.key("args").object(|w| {
                        w.field("name", format!("machine-{m}"));
                    });
                });
            }
            // Protocol transitions as thread-scoped instant events.
            for r in records {
                w.object(|w| {
                    w.field("name", r.event.name())
                        .field("cat", "protocol")
                        .field("ph", "i")
                        .field("s", "t")
                        .field("ts", r.at.as_micros())
                        .field("pid", 0u32)
                        .field("tid", r.source.index());
                    w.key("args").object(|w| {
                        if let Some(round) = r.event.round() {
                            w.field("round", round);
                        }
                    });
                });
            }
            for s in spans {
                write_span(w, s);
            }
        });
    })
}

/// One async span per op: issue (or first observable instant) → the
/// completion callback. Uncommitted spans render as zero-length with a
/// status arg so lost ops are still visible on the timeline. Every begin
/// is paired with an end, so a run cut short at shutdown never leaves a
/// dangling async span.
fn write_span(w: &mut JsonWriter, s: &OpSpan) {
    let Some(begin) = s
        .issued_at
        .or(s.flushed_at)
        .or(s.committed_at)
        .or(s.completed_at)
    else {
        return;
    };
    let end = s
        .completed_at
        .or(s.committed_at)
        .unwrap_or(begin)
        .max(begin);
    let status = if s.committed() {
        "committed"
    } else if s.lost {
        "lost"
    } else {
        "in-flight"
    };
    let name = s.op.to_string();
    let head = |w: &mut JsonWriter, ph: &str, ts: SimTime| {
        w.field("name", &name)
            .field("ph", ph)
            .field("ts", ts.as_micros())
            .field("cat", "op")
            .field("id", &name)
            .field("pid", 0u32)
            .field("tid", s.op.machine().index());
    };
    w.object(|w| {
        head(w, "b", begin);
        w.key("args").object(|w| {
            w.field("exec_count", s.exec_count).field("status", status);
            if let Some(r) = s.commit_round {
                w.field("round", r);
            }
            if let Some(f) = s.flushed_at {
                w.field("flushed_ts", f.as_micros());
            }
        });
    });
    w.object(|w| {
        head(w, "e", end);
        w.key("args").object(|_| {});
    });
}

#[cfg(test)]
mod tests {
    use guesstimate_core::{MachineId, OpId};
    use guesstimate_net::{SimTime, TraceEvent};

    use super::*;
    use crate::spans::SpanBook;

    #[test]
    fn render_produces_tracks_instants_and_async_pairs() {
        let records = vec![TraceRecord {
            at: SimTime::from_millis(3),
            source: MachineId::new(0),
            event: TraceEvent::RoundStarted {
                round: 1,
                participants: 2,
            },
        }];
        let mut book = SpanBook::new();
        let op = OpId::new(MachineId::new(1), 0);
        book.issued(op, Some(SimTime::from_millis(1)));
        book.flushed(op, SimTime::from_millis(2));
        book.committed(op, 1, 2, SimTime::from_millis(5));
        book.completed(op, SimTime::from_millis(5));
        let json = render(&records, &book.snapshot());

        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Tracks for both machines (0 from the record, 1 from the span).
        assert!(json.contains("\"args\":{\"name\":\"machine-0\"}"));
        assert!(json.contains("\"args\":{\"name\":\"machine-1\"}"));
        // The protocol instant at t=3ms on machine 0's track.
        assert!(json.contains("\"name\":\"round_started\""));
        assert!(json.contains("\"ts\":3000"));
        // The async pair: begin at issue, end at completion.
        assert!(json.contains("\"ph\":\"b\",\"ts\":1000"));
        assert!(json.contains("\"ph\":\"e\",\"ts\":5000"));
        assert!(json.contains("\"exec_count\":2"));
        assert!(json.contains("\"status\":\"committed\""));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn render_matches_its_golden_bytes() {
        let records = [
            TraceRecord {
                at: SimTime::from_millis(3),
                source: MachineId::new(0),
                event: TraceEvent::RoundStarted {
                    round: 1,
                    participants: 2,
                },
            },
            TraceRecord {
                at: SimTime::from_millis(4),
                source: MachineId::new(2),
                event: TraceEvent::Restarted,
            },
        ];
        let mut book = SpanBook::new();
        let op = OpId::new(MachineId::new(1), 0);
        book.issued(op, Some(SimTime::from_millis(1)));
        book.flushed(op, SimTime::from_millis(2));
        book.committed(op, 1, 2, SimTime::from_millis(5));
        book.completed(op, SimTime::from_millis(5));
        book.issued(
            OpId::new(MachineId::new(2), 4),
            Some(SimTime::from_millis(7)),
        );
        book.machine_restarted(MachineId::new(2));
        let events = [
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"machine-0"}}"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"machine-1"}}"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"machine-2"}}"#,
            r#"{"name":"round_started","cat":"protocol","ph":"i","s":"t","ts":3000,"pid":0,"tid":0,"args":{"round":1}}"#,
            r#"{"name":"restarted","cat":"protocol","ph":"i","s":"t","ts":4000,"pid":0,"tid":2,"args":{}}"#,
            r#"{"name":"op-m1-0","ph":"b","ts":1000,"cat":"op","id":"op-m1-0","pid":0,"tid":1,"args":{"exec_count":2,"status":"committed","round":1,"flushed_ts":2000}}"#,
            r#"{"name":"op-m1-0","ph":"e","ts":5000,"cat":"op","id":"op-m1-0","pid":0,"tid":1,"args":{}}"#,
            r#"{"name":"op-m2-4","ph":"b","ts":7000,"cat":"op","id":"op-m2-4","pid":0,"tid":2,"args":{"exec_count":1,"status":"lost"}}"#,
            r#"{"name":"op-m2-4","ph":"e","ts":7000,"cat":"op","id":"op-m2-4","pid":0,"tid":2,"args":{}}"#,
        ];
        assert_eq!(
            render(&records, &book.snapshot()),
            format!(
                r#"{{"displayTimeUnit":"ms","traceEvents":[{}]}}"#,
                events.join(",")
            )
        );
    }

    #[test]
    fn lost_span_renders_zero_length_with_status() {
        let mut book = SpanBook::new();
        let op = OpId::new(MachineId::new(2), 4);
        book.issued(op, Some(SimTime::from_millis(7)));
        book.machine_restarted(MachineId::new(2));
        let json = render(&[], &book.snapshot());
        assert!(json.contains("\"status\":\"lost\""));
        assert!(json.contains("\"ph\":\"b\",\"ts\":7000"));
        assert!(json.contains("\"ph\":\"e\",\"ts\":7000"));
    }

    #[test]
    fn empty_inputs_render_a_valid_document() {
        assert_eq!(
            render(&[], &[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn committed_but_never_completed_ends_at_commit() {
        // A run cut short at shutdown: the op committed but its
        // completion callback never ran. The async span must still
        // close (at the commit instant), not dangle.
        let mut book = SpanBook::new();
        let op = OpId::new(MachineId::new(0), 3);
        book.issued(op, Some(SimTime::from_millis(2)));
        book.committed(op, 1, 2, SimTime::from_millis(9));
        let json = render(&[], &book.snapshot());
        assert!(json.contains("\"ph\":\"b\",\"ts\":2000"));
        assert!(json.contains("\"ph\":\"e\",\"ts\":9000"));
        assert_eq!(
            json.matches("\"ph\":\"b\"").count(),
            json.matches("\"ph\":\"e\"").count()
        );
    }

    #[test]
    fn every_begin_has_a_matching_end_across_statuses() {
        let mut book = SpanBook::new();
        // Committed + completed.
        book.issued(
            OpId::new(MachineId::new(0), 0),
            Some(SimTime::from_millis(1)),
        );
        book.committed(
            OpId::new(MachineId::new(0), 0),
            1,
            1,
            SimTime::from_millis(4),
        );
        book.completed(OpId::new(MachineId::new(0), 0), SimTime::from_millis(4));
        // In-flight at shutdown (flushed, never committed).
        book.issued(
            OpId::new(MachineId::new(1), 0),
            Some(SimTime::from_millis(2)),
        );
        book.flushed(OpId::new(MachineId::new(1), 0), SimTime::from_millis(3));
        // Lost to a restart.
        book.issued(
            OpId::new(MachineId::new(2), 0),
            Some(SimTime::from_millis(2)),
        );
        book.machine_restarted(MachineId::new(2));
        // Untimed issue (no observable instant): contributes no span.
        book.issued(OpId::new(MachineId::new(3), 0), None);
        let json = render(&[], &book.snapshot());
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"e\"").count(), 3);
        assert!(json.contains("\"status\":\"in-flight\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}

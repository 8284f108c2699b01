//! The end-to-end observability report: parse → merge → check → attribute.

use std::fmt::Write as _;

use guesstimate_core::json;

use crate::timeline::{check_happens_before, merge, HbReport};
use crate::trace_json::TraceLine;
use crate::waterfall::{self, SpanLine, WaterfallReport};

/// Everything the `obs` binary prints and gates on.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Events in the merged cluster timeline.
    pub events: u64,
    /// The happens-before verdict (strict mode: a full trace has no
    /// excuse for orphan receives).
    pub hb: HbReport,
    /// Per-op lag attribution.
    pub waterfall: WaterfallReport,
}

impl Report {
    /// Whether the run passed both gates: the causal timeline is
    /// happens-before consistent and every attributed op's stages sum
    /// exactly to its total lag.
    pub fn ok(&self) -> bool {
        self.hb.ok() && self.waterfall.verify_exact_sum()
    }
}

/// Builds the report from raw JSONL documents (trace + spans).
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn run(trace_text: &str, spans_text: &str) -> Result<Report, String> {
    let lines = merge(TraceLine::parse_all(trace_text).map_err(|e| format!("trace: {e}"))?);
    let spans = SpanLine::parse_all(spans_text).map_err(|e| format!("spans: {e}"))?;
    let hb = check_happens_before(&lines, true);
    let waterfall = waterfall::build(&lines, &spans);
    Ok(Report {
        events: lines.len() as u64,
        hb,
        waterfall,
    })
}

/// Renders the report for a terminal.
pub fn render_text(report: &Report) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== causal cluster timeline ==");
    let _ = writeln!(
        s,
        "events: {} (sends {}, receives {}, matched {}, dropped-or-in-flight {})",
        report.events, report.hb.sends, report.hb.receives, report.hb.matched, report.hb.unreceived
    );
    let _ = writeln!(
        s,
        "happens-before: {}",
        if report.hb.ok() { "OK" } else { "VIOLATED" }
    );
    for v in report.hb.violations.iter().take(10) {
        let _ = writeln!(s, "  {v}");
    }
    let _ = writeln!(s, "== per-op lag attribution ==");
    s.push_str(&waterfall::render(&report.waterfall));
    let _ = writeln!(
        s,
        "exact-sum partition: {}",
        if report.waterfall.verify_exact_sum() {
            "OK"
        } else {
            "VIOLATED"
        }
    );
    s
}

/// Renders the report as one JSON document (the `obs` binary's `--json` output).
pub fn to_json(report: &Report) -> String {
    let wf = &report.waterfall;
    json::object(|w| {
        w.field("events", report.events);
        report.hb.write_json(w.key("hb"));
        w.field("exact_sum_ok", wf.verify_exact_sum())
            .field("excluded_untimed", wf.excluded_untimed);
        w.key("ops").array(|w| {
            for op in &wf.ops {
                w.object(|w| {
                    w.field("machine", op.machine)
                        .field("seq", op.seq)
                        .field("path", op.path)
                        .field("total_us", op.total_us);
                    w.key("stages").object(|w| {
                        for (name, us) in &op.stages {
                            w.field(name, us);
                        }
                    });
                });
            }
        });
        w.key("reexec").object(|w| {
            for (cause, t) in &wf.reexec {
                w.key(cause).object(|w| {
                    w.field("events", t.events).field("ops", t.ops);
                });
            }
        });
        w.key("divergence_us").object(|w| {
            for (m, us) in &wf.divergence_us {
                w.field(&m.to_string(), us);
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use guesstimate_core::json::Json;

    use super::*;

    const TRACE: &str = "\
{\"at_us\":1000,\"src\":0,\"event\":\"round_started\",\"round\":1,\"participants\":2}\n\
{\"at_us\":2000,\"src\":1,\"event\":\"msg_sent\",\"stamp\":0,\"kind\":\"ops\",\"bytes\":64}\n\
{\"at_us\":3000,\"src\":0,\"event\":\"msg_received\",\"origin\":1,\"stamp\":0,\"kind\":\"ops\"}\n\
{\"at_us\":4000,\"src\":0,\"event\":\"begin_apply\",\"round\":1,\"ops_total\":1}\n";

    const SPANS: &str = "\
{\"machine\":1,\"seq\":0,\"issued_us\":500,\"flushed_us\":2000,\"committed_us\":5000,\
\"completed_us\":5500,\"round\":1,\"async\":false,\"exec_count\":2,\"lost\":false}\n";

    #[test]
    fn end_to_end_report_is_ok_and_exact() {
        let report = run(TRACE, SPANS).unwrap();
        assert!(report.ok(), "{:?}", report.hb.violations);
        assert_eq!(report.waterfall.ops.len(), 1);
        assert_eq!(report.waterfall.ops[0].total_us, 5_000);
        let text = render_text(&report);
        assert!(text.contains("happens-before: OK"));
        assert!(text.contains("exact-sum partition: OK"));
    }

    #[test]
    fn json_output_parses_and_carries_the_partition() {
        let report = run(TRACE, SPANS).unwrap();
        let v = Json::parse(&to_json(&report)).expect("well-formed JSON");
        assert_eq!(v.get("exact_sum_ok").and_then(Json::as_bool), Some(true));
        let ops = v.get("ops").and_then(Json::as_list).unwrap();
        let stages = ops[0].get("stages").and_then(Json::as_map).unwrap();
        let sum: u64 = stages.values().filter_map(Json::as_u64).sum();
        assert_eq!(Some(sum), ops[0].get("total_us").and_then(Json::as_u64));
    }

    #[test]
    fn json_output_matches_its_golden_bytes() {
        let trace = format!(
            "{TRACE}{}\n",
            r#"{"at_us":4500,"src":1,"event":"reexecuted","round":1,"pending":2,"cause":"round_replay"}"#
        );
        let report = run(&trace, SPANS).unwrap();
        assert_eq!(
            to_json(&report),
            concat!(
                r#"{"events":5,"#,
                r#""hb":{"ok":true,"sends":1,"receives":1,"matched":1,"orphans":0,"unreceived":0,"violations":0},"#,
                r#""exact_sum_ok":true,"excluded_untimed":0,"#,
                r#""ops":[{"machine":1,"seq":0,"path":"serialized","total_us":5000,"#,
                r#""stages":{"round_wait":500,"flush_wait":1000,"wire":1000,"gather":1000,"apply":1000,"completion":500}}],"#,
                r#""reexec":{"round_replay":{"events":1,"ops":2}},"divergence_us":{"1":4500}}"#,
            )
        );
    }

    #[test]
    fn hb_violation_fails_the_report() {
        let bad = "{\"at_us\":10,\"src\":0,\"event\":\"msg_received\",\"origin\":1,\"stamp\":9,\"kind\":\"ops\"}\n";
        let report = run(bad, "").unwrap();
        assert!(!report.ok());
        assert!(render_text(&report).contains("happens-before: VIOLATED"));
    }
}

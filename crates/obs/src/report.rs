//! The end-to-end observability report: parse → merge → check → attribute.

use std::fmt::Write as _;

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
    let mut ops = String::new();
    for (i, op) in report.waterfall.ops.iter().enumerate() {
        if i > 0 {
            ops.push(',');
        }
        let stages: Vec<String> = op
            .stages
            .iter()
            .map(|(name, us)| format!("\"{name}\":{us}"))
            .collect();
        let _ = write!(
            ops,
            "{{\"machine\":{},\"seq\":{},\"path\":\"{}\",\"total_us\":{},\"stages\":{{{}}}}}",
            op.machine,
            op.seq,
            op.path,
            op.total_us,
            stages.join(",")
        );
    }
    let mut reexec = String::new();
    for (i, (cause, t)) in report.waterfall.reexec.iter().enumerate() {
        if i > 0 {
            reexec.push(',');
        }
        let _ = write!(
            reexec,
            "\"{cause}\":{{\"events\":{},\"ops\":{}}}",
            t.events, t.ops
        );
    }
    let mut divergence = String::new();
    for (i, (m, us)) in report.waterfall.divergence_us.iter().enumerate() {
        if i > 0 {
            divergence.push(',');
        }
        let _ = write!(divergence, "\"{m}\":{us}");
    }
    format!(
        "{{\"events\":{},\"hb\":{{\"ok\":{},\"sends\":{},\"receives\":{},\
         \"matched\":{},\"orphans\":{},\"unreceived\":{},\"violations\":{}}},\
         \"exact_sum_ok\":{},\"excluded_untimed\":{},\
         \"ops\":[{ops}],\"reexec\":{{{reexec}}},\"divergence_us\":{{{divergence}}}}}",
        report.events,
        report.hb.ok(),
        report.hb.sends,
        report.hb.receives,
        report.hb.matched,
        report.hb.orphans,
        report.hb.unreceived,
        report.hb.violations.len(),
        report.waterfall.verify_exact_sum(),
        report.waterfall.excluded_untimed,
    )
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
    fn hb_violation_fails_the_report() {
        let bad = "{\"at_us\":10,\"src\":0,\"event\":\"msg_received\",\"origin\":1,\"stamp\":9,\"kind\":\"ops\"}\n";
        let report = run(bad, "").unwrap();
        assert!(!report.ok());
        assert!(render_text(&report).contains("happens-before: VIOLATED"));
    }
}

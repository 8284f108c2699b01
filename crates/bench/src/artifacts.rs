//! Metrics and trace artifact writing shared by the bench binaries.
//!
//! Every instrumented run drops four files next to the JSONL protocol
//! trace: a Prometheus text snapshot (`<stem>.prom`), the same metrics
//! rendered as JSON (`<stem>.json`), a Chrome trace-format timeline
//! (`<stem>_chrome.json`) that `chrome://tracing` or Perfetto opens
//! directly, and the per-op span artifact (`<stem>_spans.jsonl`) the
//! `obs` report binary joins against the trace. See
//! `docs/OBSERVABILITY.md` for the worked example.
//!
//! Path resolution (the `GUESSTIMATE_TRACE` / `GUESSTIMATE_METRICS`
//! environment variables and their documented precedence) lives in
//! [`guesstimate_obs::env`]; [`metrics_stem`] and [`trace_path`] are
//! re-exported from there so older call sites keep working.

use std::io;
use std::path::{Path, PathBuf};

pub use guesstimate_obs::env::{metrics_stem, trace_path};

use guesstimate_net::TraceRecord;
use guesstimate_telemetry::Telemetry;

/// Writes the four metrics artifacts for one instrumented run and
/// returns their paths in `[prometheus, json, chrome_trace, spans]`
/// order.
pub fn write_metrics_artifacts(
    telemetry: &Telemetry,
    records: &[TraceRecord],
    stem: &Path,
) -> io::Result<[PathBuf; 4]> {
    if let Some(parent) = stem.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let spans_path = guesstimate_obs::env::spans_path(stem);
    let stem = stem.to_string_lossy();
    let paths = [
        PathBuf::from(format!("{stem}.prom")),
        PathBuf::from(format!("{stem}.json")),
        PathBuf::from(format!("{stem}_chrome.json")),
        spans_path,
    ];
    std::fs::write(&paths[0], telemetry.render_prometheus())?;
    std::fs::write(&paths[1], telemetry.render_json())?;
    std::fs::write(&paths[2], telemetry.render_chrome_trace(records))?;
    let mut spans = String::new();
    for s in telemetry.spans() {
        spans.push_str(&s.to_json_line());
        spans.push('\n');
    }
    std::fs::write(&paths[3], spans)?;
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_all_four_artifacts() {
        let dir =
            std::env::temp_dir().join(format!("guesstimate-artifacts-{}", std::process::id()));
        let telemetry = Telemetry::new();
        telemetry.mc_schedule();
        telemetry.op_issued(
            guesstimate_core::OpId::new(guesstimate_core::MachineId::new(1), 0),
            Some(guesstimate_net::SimTime::from_millis(5)),
        );
        let paths = write_metrics_artifacts(&telemetry, &[], &dir.join("smoke"))
            .expect("artifacts written");
        for p in &paths[..3] {
            let text = std::fs::read_to_string(p).expect("artifact readable");
            assert!(!text.is_empty(), "{} should not be empty", p.display());
        }
        assert!(paths[0].to_string_lossy().ends_with(".prom"));
        assert!(paths[2].to_string_lossy().ends_with("_chrome.json"));
        // The metric families dashboards key on, and the array trace
        // viewers look for.
        let prom = std::fs::read_to_string(&paths[0]).unwrap();
        for line in [
            "# TYPE guesstimate_ops_committed_total counter",
            "# TYPE guesstimate_commit_lag_us histogram",
            "guesstimate_commit_lag_us_count ",
            "# TYPE guesstimate_commit_lag_round_us histogram",
            "# TYPE guesstimate_net_sent_total counter",
        ] {
            assert!(prom.lines().any(|l| l.starts_with(line)), "no `{line}`");
        }
        let chrome = std::fs::read_to_string(&paths[2]).unwrap();
        assert!(chrome.contains("\"traceEvents\""), "{chrome}");
        assert!(paths[3].to_string_lossy().ends_with("_spans.jsonl"));
        let spans = std::fs::read_to_string(&paths[3]).unwrap();
        assert_eq!(spans.lines().count(), 1, "one span line per tracked op");
        assert!(spans.contains("\"machine\":1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stem_defaults_under_target() {
        // Only exercise the default branch: mutating the environment is
        // not safe under the parallel test harness.
        if std::env::var_os("GUESSTIMATE_METRICS").is_none() {
            assert_eq!(metrics_stem("x"), PathBuf::from("target").join("x"));
        }
    }
}

//! Trace and metrics artifacts of the bench binaries.
//!
//! [`record_figure`] runs one instrumented experiment and writes what it
//! observed. For a figure named `<name>` that is the JSON-lines protocol
//! trace `<name>_trace.jsonl`, and four files under the `<name>_metrics`
//! stem: a Prometheus text snapshot (`<stem>.prom`), the same metrics
//! rendered as JSON (`<stem>.json`), a Chrome trace-format timeline
//! (`<stem>_chrome.json`) that `chrome://tracing` or Perfetto opens
//! directly, and the per-op span artifact (`<stem>_spans.jsonl`) the `obs`
//! report binary joins against the trace. A panic mid-run leaves the flight
//! recorder's `<stem>_postmortem.json` instead. See
//! `docs/OBSERVABILITY.md` for the worked example.
//!
//! Both locations default under `target/`; the `GUESSTIMATE_TRACE` /
//! `GUESSTIMATE_METRICS` environment variables override them
//! ([`guesstimate_obs::env`]).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use guesstimate_net::{RecordingTracer, TraceRecord, Tracer};
use guesstimate_obs::env::{metrics_stem, spans_path, trace_path};
use guesstimate_obs::{record_to_json, FlightRecorder, TeeTracer};
use guesstimate_telemetry::Telemetry;

/// What an instrumented figure run left for its printout.
#[derive(Debug)]
pub struct Recorded<T> {
    /// What the experiment returned.
    pub output: T,
    /// The run's protocol trace, driver and machines.
    pub records: Vec<TraceRecord>,
    /// The telemetry handle the run fed.
    pub telemetry: Telemetry,
    /// Where the trace was written (or, on a write error, meant to be).
    pub trace_path: PathBuf,
}

/// Runs `run` with a recording tracer (teed into a flight recorder) and a
/// fresh [`Telemetry`] handle, then writes the figure's artifacts (see the
/// module docs). A write that fails prints a warning on stderr and the run
/// goes on: the figure still prints.
pub fn record_figure<T>(
    name: &str,
    run: impl FnOnce(Option<Arc<dyn Tracer>>, Telemetry) -> T,
) -> Recorded<T> {
    record_at(
        trace_path(&format!("{name}_trace.jsonl")),
        &metrics_stem(&format!("{name}_metrics")),
        run,
    )
}

fn record_at<T>(
    trace_path: PathBuf,
    stem: &Path,
    run: impl FnOnce(Option<Arc<dyn Tracer>>, Telemetry) -> T,
) -> Recorded<T> {
    let tracer = Arc::new(RecordingTracer::new());
    // The flight recorder keeps a bounded ring of recent events; if the run
    // panics, a postmortem bundle lands next to the metrics artifacts
    // instead of losing the whole session.
    let recorder = Arc::new(FlightRecorder::default());
    let postmortem = PathBuf::from(format!("{}_postmortem.json", stem.to_string_lossy()));
    FlightRecorder::install_panic_dump(recorder.clone(), postmortem);
    let telemetry = Telemetry::new();
    let output = run(
        Some(Arc::new(TeeTracer::new(tracer.clone(), recorder))),
        telemetry.clone(),
    );

    let records = tracer.take();
    match write_jsonl(&trace_path, &records) {
        Ok(()) => eprintln!(
            "wrote {} trace events to {}",
            records.len(),
            trace_path.display()
        ),
        Err(e) => eprintln!("could not write trace to {}: {e}", trace_path.display()),
    }
    match write_metrics_artifacts(&telemetry, &records, stem) {
        Ok(paths) => {
            for p in &paths {
                eprintln!("wrote metrics artifact {}", p.display());
            }
        }
        Err(e) => eprintln!("could not write metrics to {}*: {e}", stem.display()),
    }
    Recorded {
        output,
        records,
        telemetry,
        trace_path,
    }
}

/// Writes a recorded trace to `path`, one JSON object per line.
fn write_jsonl(path: &Path, records: &[TraceRecord]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    for r in records {
        out.write_all(record_to_json(r).as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// Writes the four metrics artifacts for one instrumented run and
/// returns their paths in `[prometheus, json, chrome_trace, spans]`
/// order.
fn write_metrics_artifacts(
    telemetry: &Telemetry,
    records: &[TraceRecord],
    stem: &Path,
) -> io::Result<[PathBuf; 4]> {
    if let Some(parent) = stem.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let stem_str = stem.to_string_lossy();
    let paths = [
        PathBuf::from(format!("{stem_str}.prom")),
        PathBuf::from(format!("{stem_str}.json")),
        PathBuf::from(format!("{stem_str}_chrome.json")),
        spans_path(stem),
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
    use guesstimate_core::MachineId;
    use guesstimate_net::{SimTime, TraceEvent};

    #[test]
    fn writes_all_four_artifacts() {
        let dir =
            std::env::temp_dir().join(format!("guesstimate-artifacts-{}", std::process::id()));
        let telemetry = Telemetry::new();
        telemetry.op_issued(
            guesstimate_core::OpId::new(MachineId::new(1), 0),
            Some(SimTime::from_millis(5)),
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

    fn restarted(at_ms: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_millis(at_ms),
            source: MachineId::new(1),
            event: TraceEvent::Restarted,
        }
    }

    #[test]
    fn jsonl_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join(format!("guesstimate-jsonl-{}", std::process::id()));
        let path = dir.join("nested").join("trace.jsonl");
        let records = [restarted(1), restarted(2)];
        write_jsonl(&path, &records).expect("trace written");
        let text = std::fs::read_to_string(&path).unwrap();
        let want: Vec<String> = records.iter().map(record_to_json).collect();
        assert_eq!(text.lines().collect::<Vec<_>>(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An unwritable trace path or metrics stem is a warning, not a
    /// failure: the run's output and records still come back.
    #[test]
    fn unwritable_locations_degrade_to_a_warning() {
        let recorded = record_at(
            PathBuf::from("/dev/null/x_trace.jsonl"),
            Path::new("/dev/null/x"),
            |tracer, _| {
                tracer.expect("a tracer is installed").record(restarted(3));
                7
            },
        );
        assert_eq!(recorded.output, 7);
        assert_eq!(recorded.records, [restarted(3)]);
        assert!(!recorded.trace_path.exists());
    }
}

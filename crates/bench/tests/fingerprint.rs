//! The determinism fingerprint: did behaviour drift?
//!
//! Every session here runs under virtual time from a fixed seed, so each
//! number below is a pure function of the protocol, the apps and the
//! analysis. The test renders them as `key value` lines and compares the
//! rendering with the checked-in `fingerprint.txt`. A PR that changes
//! behaviour on purpose edits that file in the same PR (the failing run
//! leaves the new rendering in `target/fingerprint.actual.txt`); a PR that
//! claims to be behaviour-identical leaves it alone.
//!
//! The invariants these runs used to assert inline live in tests of their
//! own, next to the code they check; this file only compares.

use std::fmt::{Display, Write as _};
use std::path::Path;
use std::sync::Arc;

use guesstimate_bench::{
    fig5_session, run_consistency_spectrum, run_fig5, run_fig7, run_hybrid_lag, run_hybrid_session,
    run_responsiveness, run_session, run_spec_table, shard_balance_rows, spec_table_total,
};
use guesstimate_net::{RecordingTracer, SimTime, TraceEvent, TraceRecord, Tracer};
use guesstimate_obs::{record_to_json, report, validate_postmortem, FlightRecorder, TeeTracer};
use guesstimate_runtime::Flush;
use guesstimate_telemetry::Telemetry;

const SEED: u64 = 42;

/// The rendering under construction: `key value` lines under `#` headings.
#[derive(Default)]
struct Rendering(String);

impl Rendering {
    fn heading(&mut self, text: impl Display) {
        writeln!(self.0, "# {text}").expect("write to a String");
    }

    fn kv(&mut self, key: impl Display, value: impl Display) {
        writeln!(self.0, "{key} {value}").expect("write to a String");
    }
}

/// The `obs` report over an in-memory trace and the run's op spans.
fn obs_report(records: &[TraceRecord], telemetry: &Telemetry) -> report::Report {
    let trace: String = records.iter().map(|r| record_to_json(r) + "\n").collect();
    let spans: String = telemetry
        .spans()
        .iter()
        .map(|s| s.to_json_line() + "\n")
        .collect();
    report::run(&trace, &spans).expect("obs report")
}

/// Figure 5 for 60 s with the whole observability stack on: tracer,
/// telemetry, and a flight recorder teed onto the same stream.
fn render_fig5() -> String {
    let mut out = Rendering::default();
    let tracer = Arc::new(RecordingTracer::new());
    let recorder = Arc::new(FlightRecorder::default());
    let tee: Arc<dyn Tracer> = Arc::new(TeeTracer::new(tracer.clone(), recorder.clone()));
    let telemetry = Telemetry::new();
    let run = run_fig5(SEED, SimTime::from_secs(60), Some(tee), telemetry.clone());
    let records = tracer.take();
    let report = obs_report(&records, &telemetry);
    let postmortem = validate_postmortem(&recorder.dump_json("fingerprint", &[]))
        .expect("postmortem bundle validates");

    let stage_sum_ok = run.sync_samples.iter().all(|s| s.stage_sum() == s.duration);
    let ops = &report.waterfall.ops;
    let serialized = ops.iter().filter(|o| o.path == "serialized").count();
    let reexecuted = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Reexecuted { .. }))
        .count();

    out.heading(format_args!(
        "fig5: 8 users, 2 grids, 60 s, seed {SEED}; tracer + telemetry + flight recorder"
    ));
    out.kv("fig5.synchronizations", run.sync_samples.len());
    out.kv("fig5.ops_issued", run.issued);
    out.kv("fig5.ops_committed", run.committed);
    out.kv("fig5.commit_lag_samples", telemetry.commit_lag_count());
    out.kv("fig5.max_exec_count", telemetry.max_exec_count());
    out.kv("fig5.bytes_sent", run.net.bytes_sent);
    out.kv("fig5.bytes_delivered", run.net.bytes_delivered);
    out.kv("fig5.trace_events", records.len());
    out.kv("fig5.stage_sum_ok", stage_sum_ok);
    out.kv("fig5.converged", run.converged);
    out.kv("fig5.hb_sends", report.hb.sends);
    out.kv("fig5.hb_receives", report.hb.receives);
    out.kv("fig5.hb_matched", report.hb.matched);
    out.kv("fig5.hb_unreceived", report.hb.unreceived);
    out.kv("fig5.hb_ok", report.hb.ok());
    out.kv("fig5.ops_attributed_serialized", serialized);
    out.kv(
        "fig5.ops_excluded_untimed",
        report.waterfall.excluded_untimed,
    );
    out.kv("fig5.exact_sum_ok", report.waterfall.verify_exact_sum());
    out.kv("fig5.reexec_events", reexecuted);
    for (cause, t) in &report.waterfall.reexec {
        out.kv(format_args!("fig5.reexec.{cause}.events"), t.events);
        out.kv(format_args!("fig5.reexec.{cause}.ops"), t.ops);
    }
    out.kv("fig5.postmortem_events", postmortem.events);
    out.kv("fig5.postmortem_ok", postmortem.hb_ok);
    out.0
}

/// The same session under the parallel flush the runtime ships: every
/// other section runs the paper's serial turns.
fn render_fig5_parallel() -> String {
    let mut out = Rendering::default();
    let tracer = Arc::new(RecordingTracer::new());
    let telemetry = Telemetry::new();
    let mut cfg = fig5_session(SEED, SimTime::from_secs(60));
    cfg.flush = Flush::Parallel;
    let run = run_session(&cfg, Some(tracer.clone()), telemetry.clone());
    let records = tracer.take();
    let report = obs_report(&records, &telemetry);

    out.heading(format_args!(
        "fig5_parallel: 8 users, 2 grids, 60 s, seed {SEED}; the fig5 session under the parallel flush"
    ));
    out.kv("fig5_parallel.synchronizations", run.sync_samples.len());
    out.kv("fig5_parallel.ops_committed", run.committed);
    out.kv("fig5_parallel.bytes_sent", run.net.bytes_sent);
    out.kv("fig5_parallel.bytes_delivered", run.net.bytes_delivered);
    out.kv("fig5_parallel.trace_events", records.len());
    out.kv("fig5_parallel.hb_sends", report.hb.sends);
    out.kv("fig5_parallel.hb_receives", report.hb.receives);
    out.kv(
        "fig5_parallel.exact_sum_ok",
        report.waterfall.verify_exact_sum(),
    );
    out.kv("fig5_parallel.max_exec_count", telemetry.max_exec_count());
    out.kv("fig5_parallel.converged", run.converged);
    out.0
}

/// The hybrid commit path: the four lag rows (each blind-counter app,
/// serialized and hybrid), then one traced hybrid session through the
/// same report pipeline, for the async side of the lag attribution.
fn render_hybrid() -> String {
    let mut out = Rendering::default();
    out.heading(format_args!(
        "hybrid: 4 users, 30 s, seed {SEED}; serialized rounds vs async one-hop commits"
    ));
    let rows = run_hybrid_lag(SEED, 4, SimTime::from_secs(30));
    for r in &rows {
        let key = format!("hybrid.{}.{}", r.app, r.mode);
        out.kv(format_args!("{key}.ops_committed"), r.ops_committed);
        out.kv(format_args!("{key}.ops_async"), r.ops_async);
        out.kv(
            format_args!("{key}.mean_commit_lag_us"),
            r.mean_commit_lag.as_micros(),
        );
        out.kv(format_args!("{key}.converged"), r.converged);
    }
    for pair in rows.chunks(2) {
        let ratio = pair[0].mean_commit_lag.as_micros() as f64
            / pair[1].mean_commit_lag.as_micros().max(1) as f64;
        out.kv(
            format_args!("hybrid.{}.lag_ratio", pair[0].app),
            format_args!("{ratio:.1}"),
        );
    }

    out.heading(format_args!(
        "hybrid_traced: message_board, 4 users, 20 s, seed {SEED}; async commits on"
    ));
    let tracer = Arc::new(RecordingTracer::new());
    let telemetry = Telemetry::new();
    let row = run_hybrid_session(
        "message_board",
        true,
        SEED,
        4,
        SimTime::from_secs(20),
        Some(tracer.clone()),
        telemetry.clone(),
    );
    let report = obs_report(&tracer.take(), &telemetry);
    let ops = &report.waterfall.ops;
    out.kv("hybrid_traced.converged", row.converged);
    out.kv(
        "hybrid_traced.ops_attributed_async",
        ops.iter().filter(|o| o.path == "async").count(),
    );
    out.kv("hybrid_traced.hb_ok", report.hb.ok());
    out.kv(
        "hybrid_traced.exact_sum_ok",
        report.waterfall.verify_exact_sum(),
    );
    out.0
}

/// The shard-balance census: every app's analysis-suite op population
/// routed over its derived shard plan.
fn render_shards() -> String {
    let mut out = Rendering::default();
    out.heading("shards: derived plans routed over the analysis arg spaces");
    for r in shard_balance_rows() {
        let key = format!("shards.{}", r.app);
        out.kv(format_args!("{key}.shards"), r.shard_count());
        out.kv(format_args!("{key}.ops_total"), r.total());
        out.kv(
            format_args!("{key}.cross_fraction"),
            format_args!("{:.3}", r.cross_fraction()),
        );
        out.kv(
            format_args!("{key}.max_share"),
            format_args!("{:.3}", r.max_share()),
        );
        for (shard, ops) in &r.per_shard {
            let share = *ops as f64 / r.total().max(1) as f64;
            out.kv(
                format_args!("{key}.shard.{shard}"),
                format_args!("{ops} {share:.3}"),
            );
        }
    }
    out.0
}

/// The specification table: every app's suite classified over its
/// representative states (`total verified runtime-checks refuted`). A row
/// with a non-zero last column is a shipped implementation refuted.
fn render_spec() -> String {
    let mut out = Rendering::default();
    out.heading("spec: assertions per app as total verified runtime refuted");
    let mut row = |name: &str, c: [usize; 4]| {
        out.kv(
            format_args!("spec.{name}"),
            format_args!("{} {} {} {}", c[0], c[1], c[2], c[3]),
        );
    };
    let rows = run_spec_table();
    for r in &rows {
        row(r.app, r.counts());
    }
    row("TOTAL", spec_table_total(&rows));
    out.0
}

/// Figure 7 at the binary's defaults: one row per segment.
fn render_fig7() -> String {
    let mut out = Rendering::default();
    out.heading("fig7: +1 user per 100 syncs, think 1000 ms, seed 11");
    for r in run_fig7(11, SimTime::from_millis(1_000)) {
        let key = format!("fig7.{}", r.users);
        out.kv(format_args!("{key}.syncs"), r.syncs);
        out.kv(format_args!("{key}.ops"), r.ops);
        out.kv(format_args!("{key}.conflicts"), r.conflicts);
    }
    out.0
}

/// Ablation A2 at the binary's defaults: one row per cluster size.
fn render_a2() -> String {
    let mut out = Rendering::default();
    out.heading("a2: guesstimate vs one-copy visibility, users 2/4/8, seed 5");
    for r in run_responsiveness(5, &[2, 4, 8]) {
        let key = format!("a2.{}", r.users);
        out.kv(
            format_args!("{key}.guess_visibility_us"),
            r.guess_visibility.as_micros(),
        );
        out.kv(
            format_args!("{key}.guess_commit_us"),
            r.guess_commit.as_micros(),
        );
        out.kv(
            format_args!("{key}.one_copy_visibility_us"),
            r.one_copy_visibility.as_micros(),
        );
    }
    out.0
}

/// Ablation A3 at the binary's defaults: one row per consistency model.
fn render_a3() -> String {
    let mut out = Rendering::default();
    out.heading("a3: consistency spectrum, 4 users, seed 23");
    for r in run_consistency_spectrum(23, 4) {
        let key = format!("a3.{}", r.model);
        out.kv(format_args!("{key}.distinct_states"), r.distinct_states);
        out.kv(
            format_args!("{key}.visibility_us"),
            r.visibility.as_micros(),
        );
        out.kv(format_args!("{key}.ops_accepted"), r.ops_accepted);
    }
    out.0
}

/// Compares a rendering with the expected text, line by line. On drift the
/// rendering goes to `actual_path` and the error names the first line that
/// differs on each side.
fn compare(expected: &str, actual: &str, actual_path: &Path) -> Result<(), String> {
    let (want, got): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), actual.lines().collect());
    let Some(i) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) else {
        return Ok(());
    };
    std::fs::create_dir_all(actual_path.parent().expect("a file path")).expect("create target dir");
    std::fs::write(actual_path, actual).expect("write the actual rendering");
    let side = |lines: &[&str]| lines.get(i).copied().unwrap_or("<end of file>").to_owned();
    Err(format!(
        "fingerprint drift at line {}:\n  expected: {}\n  actual:   {}\n\
         the full rendering is in {}; if the change is meant, edit \
         crates/bench/tests/fingerprint.txt in the same PR",
        i + 1,
        side(&want),
        side(&got),
        actual_path.display()
    ))
}

fn target_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"))
}

#[test]
fn fixed_seed_sessions_match_the_checked_in_fingerprint() {
    // The sections are independent sessions: run them side by side.
    let sections: [fn() -> String; 8] = [
        render_fig5,
        render_fig5_parallel,
        render_hybrid,
        render_shards,
        render_spec,
        render_fig7,
        render_a2,
        render_a3,
    ];
    let actual: String = std::thread::scope(|s| {
        let running: Vec<_> = sections.iter().map(|f| s.spawn(f)).collect();
        running
            .into_iter()
            .map(|h| h.join().expect("section rendered"))
            .collect()
    });
    let expected = include_str!("fingerprint.txt");
    let actual_path = target_dir().join("fingerprint.actual.txt");
    if let Err(drift) = compare(expected, &actual, &actual_path) {
        panic!("{drift}");
    }
}

/// The comparison's own failure path: a wrong expected value is reported by
/// key, with both sides, and the rendering is left on disk.
#[test]
fn drift_names_the_differing_key_and_leaves_the_actual_file() {
    let actual = "fig5.ops_issued 84\nfig5.ops_committed 83\n";
    let path = target_dir().join("fingerprint.selftest.actual.txt");
    assert_eq!(compare(actual, actual, &path), Ok(()));

    let drift = compare("fig5.ops_issued 84\nfig5.ops_committed 80\n", actual, &path)
        .expect_err("a differing line is drift");
    assert!(drift.contains("line 2"), "{drift}");
    assert!(drift.contains("expected: fig5.ops_committed 80"), "{drift}");
    assert!(drift.contains("actual:   fig5.ops_committed 83"), "{drift}");
    assert_eq!(
        std::fs::read_to_string(&path).expect("actual file written"),
        actual
    );

    // A missing or extra trailing line is drift too.
    let drift = compare("fig5.ops_issued 84\n", actual, &path).expect_err("extra line");
    assert!(drift.contains("expected: <end of file>"), "{drift}");
    std::fs::remove_file(&path).expect("clean up");
}

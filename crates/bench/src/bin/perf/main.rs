//! `perf` — the repository's one benchmark: six workloads on the real-thread
//! mesh, four gated wall-clock end-to-end metrics, and a per-layer table.
//!
//! See `README.md` beside this file for the workloads, the metrics and how
//! they interact. Everything is driven through the program's public API
//! from one generator thread; the program sees only generated operations.

mod drive;
mod layers;
mod observe;
mod report;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::OnceLock;

use guesstimate_core::json::Json;
use guesstimate_core::CommuteMatrix;

use drive::{run, Instruments, Measured};
use report::Companions;
use stats::{percentile_of, quartiles, result_line, spans_json, valid_metric_name, Metric};
use workloads::{CellsBare, Hybrid, LikeStream, Sharded, SudokuCycle, Workload, NAMES};

/// Independent clusters per untraced run; every end-to-end metric is the
/// median over them.
const SEGMENTS: u64 = 5;
/// The smallest share of a traced run's window that a full-size cluster
/// gets (the telemetry and tracer companions).
const SMALLEST_SHARE: f64 = 0.15;
/// The control for `bigstore`: its window over `saturate`'s two-board
/// store. Not part of the gated set.
const BIGSTORE_CONTROL: &str = "bigstore-2boards";

const USAGE: &str = "usage: perf [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
[--repeat K] [--check]
  no --workload runs all six: steady saturate bigstore hybrid sharded churn";

/// The analysis-derived commute matrix `hybrid` runs with. Input
/// preparation, so it is computed once and outside every timed section.
fn matrix() -> CommuteMatrix {
    static MATRIX: OnceLock<CommuteMatrix> = OnceLock::new();
    MATRIX.get_or_init(workloads::analysis_matrix).clone()
}

/// Runs `$body` with `$w` bound to (a `&mut` of) a fresh instance of the
/// named workload (`$solo`: on a one-replica cluster).
macro_rules! with_workload {
    ($name:expr, $solo:expr, |$w:ident| $body:expr) => {
        match $name {
            "steady" => {
                let $w = &mut SudokuCycle::steady($solo);
                $body
            }
            "saturate" => {
                let $w = &mut LikeStream::saturate($solo);
                $body
            }
            "bigstore" => {
                let $w = &mut LikeStream::bigstore($solo);
                $body
            }
            BIGSTORE_CONTROL => {
                let $w = &mut LikeStream::smallstore_same_window();
                $body
            }
            "hybrid" => {
                let $w = &mut Hybrid::new($solo, matrix());
                $body
            }
            "sharded" => {
                let $w = &mut Sharded::new($solo, 4, !$solo);
                $body
            }
            "churn" => {
                let $w = &mut SudokuCycle::churn($solo);
                $body
            }
            other => Err(format!("unknown workload {other:?}")),
        }
    };
}

/// One workload's result: what the final JSON line carries.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    fn new(metrics: Vec<Metric>, notes: Vec<String>) -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics,
            notes,
        }
    }

    fn absorb(&mut self, label: &str, m: &Measured) {
        self.attempted += m.attempted;
        self.failed += m.failed;
        self.correct &= m.errors.is_empty();
        self.notes.extend(
            m.errors
                .iter()
                .map(|e| format!("{label}: FAILED CHECK: {e}")),
        );
        if m.failed > 0 {
            let [issue, commit, lost] = m.failed_by;
            self.notes.push(format!(
                "{label}: {} of {} operations failed ({issue} refused at issue, {commit} failed at commit, {lost} not committed everywhere)",
                m.failed, m.attempted
            ));
        }
        if let Some(why) = &m.unresolved {
            self.notes.push(format!("{label}: unresolved: {why}"));
        }
    }
}

/// The untraced pass: [`SEGMENTS`] independent clusters, each set up and
/// then loaded for its share of `seconds`; every metric is the median over
/// the segments. A cluster settles into an operating point (how the sync
/// groups' rounds interleave, which core each thread sits on) and keeps it,
/// so one long window is one draw; the median of several is steadier.
fn end_to_end_pass(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::new(Vec::new(), Vec::new());
    let mut per_segment: Vec<Vec<Metric>> = Vec::new();
    let (mut commits, mut rounds) = (0, 0);
    for k in 0..SEGMENTS {
        let segment_seed = seed.wrapping_mul(SEGMENTS).wrapping_add(k);
        let window = seconds / SEGMENTS as f64;
        let m = with_workload!(name, false, |w| run(
            w,
            segment_seed,
            window,
            Instruments::default()
        ))?;
        out.absorb(&format!("segment {k}"), &m);
        commits += m.commits;
        rounds += m.sync.len();
        // A segment whose generator ran late still counts its failures,
        // but its timings are no sample.
        if m.unresolved.is_none() {
            per_segment.push(report::end_to_end(&m));
        }
    }
    let valid = per_segment.len();
    if valid == 0 {
        return Err(format!(
            "{name}: the generator ran late in every segment; no result"
        ));
    }
    out.notes.insert(0, format!(
        "{commits} ops committed everywhere over {rounds} rounds in {SEGMENTS} segments of {:.2} s; medians over the {valid} valid segments",
        seconds / SEGMENTS as f64
    ));
    for i in 0..per_segment[0].len() {
        let mut values: Vec<f64> = per_segment.iter().map(|s| s[i].value).collect();
        let first = &per_segment[0][i];
        out.metrics.push(Metric::new(
            first.name.clone(),
            percentile_of(&mut values, 0.5),
            first.unit,
        ));
    }
    Ok(out)
}

/// The traced pass: the run's window is split between the traced run and
/// the companion runs its overhead and baseline rows need.
fn per_layer_pass(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let plain = Instruments::default();
    let go = |solo: bool, share: f64, instruments: Instruments| {
        with_workload!(name, solo, |w| run(w, seed, seconds * share, instruments))
    };
    let untraced = go(false, 0.25, plain)?;
    let traced = go(
        false,
        0.25,
        Instruments {
            spans: true,
            ..plain
        },
    )?;
    let telemetry = go(
        false,
        SMALLEST_SHARE,
        Instruments {
            telemetry: true,
            ..plain
        },
    )?;
    let tracer = go(
        false,
        SMALLEST_SHARE,
        Instruments {
            tracer: true,
            ..plain
        },
    )?;
    let solo = go(true, 0.1, plain)?;
    let pair = if traced.logs > 1 {
        let each = seconds * 0.05;
        let wrapped = run(&mut Sharded::new(false, 1, false), seed, each, plain)?;
        let bare = run(&mut CellsBare::new(), seed, each, plain)?;
        Some((wrapped, bare))
    } else {
        None
    };

    let companions = Companions {
        untraced: &untraced,
        telemetry: &telemetry,
        tracer: &tracer,
        solo: &solo,
        wrapper_pair: pair.as_ref().map(|(w, b)| (w, b)),
    };
    let mut metrics = report::per_layer(&traced, &companions);
    metrics.extend(layers::isolated_calls());

    let path = std::path::Path::new("target").join("perf");
    let file = path.join(format!("trace-{name}.json"));
    let written = std::fs::create_dir_all(&path)
        .and_then(|()| std::fs::write(&file, spans_json(&report::trace_spans(&traced))));
    let note = match written {
        Ok(()) => format!("spans written to {}", file.display()),
        Err(e) => format!("could not write {}: {e}", file.display()),
    };
    let mut out = Outcome::new(metrics, vec![note]);
    out.absorb("untraced", &untraced);
    out.absorb("traced", &traced);
    out.absorb("telemetry", &telemetry);
    out.absorb("tracer", &tracer);
    out.absorb("solo", &solo);
    if let Some((wrapped, bare)) = &pair {
        out.absorb("wrapper", wrapped);
        out.absorb("bare", bare);
    }
    Ok(out)
}

/// Runs one workload, prints its metrics by name and unit, and ends with
/// the one-line result object.
fn report_one(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let out = if trace {
        per_layer_pass(name, seed, seconds)?
    } else {
        end_to_end_pass(name, seed, seconds)?
    };
    println!(
        "# {name} (seed {seed}, {seconds} s, trace {})",
        u8::from(trace)
    );
    for note in &out.notes {
        println!("#   {note}");
    }
    for m in &out.metrics {
        println!("{:<52} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    Ok(out)
}

/// The metric lists of `BENCHMARK.json` in the working directory:
/// `(end_to_end name → bound, per_layer names)`.
fn contract() -> Result<(BTreeMap<String, f64>, Vec<String>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Result<Vec<(String, f64)>, String> {
        let list = json.get(key).and_then(Json::as_list);
        let list = list.ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?;
        list.iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str);
                let name = name.ok_or_else(|| format!("BENCHMARK.json: unnamed {key} metric"))?;
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                Ok((name.to_owned(), bound))
            })
            .collect()
    };
    let per_layer = names("per_layer")?.into_iter().map(|(n, _)| n).collect();
    Ok((names("end_to_end")?.into_iter().collect(), per_layer))
}

/// `--repeat K`: every workload K times in alternating order, then each
/// metric's median, quartiles and extremes against its bound.
fn repeat(names: &[&str], seed: u64, seconds: f64, k: u64) -> Result<bool, String> {
    let (bounds, _) = contract()?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut clean = true;
    for rep in 0..k {
        let mut order = names.to_vec();
        if rep % 2 == 1 {
            order.reverse();
        }
        for name in order {
            let out = report_one(name, seed + rep, seconds, false)?;
            clean &= out.correct && out.failed == 0;
            for m in out.metrics {
                values
                    .entry((name.to_owned(), m.name))
                    .or_default()
                    .push(m.value);
            }
        }
    }
    println!("# spread over {k} runs: (q3 - q1) / median, as statistics.quantiles(n=4) gives them");
    println!(
        "{:<10} {:<20} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "min", "max", "spread", "bound"
    );
    for ((workload, metric), v) in &values {
        let Some([q1, median, q3]) = quartiles(v) else {
            return Err("--repeat needs at least 2 runs".to_owned());
        };
        let (min, max) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let spread = if median == 0.0 {
            f64::INFINITY
        } else {
            (q3 - q1) / median.abs()
        };
        let bound = bounds.get(metric).copied().unwrap_or(0.0);
        let over = spread > bound;
        clean &= !over;
        println!(
            "{workload:<10} {metric:<20} {median:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {:>7.1}% {:>5.0}%{}",
            spread * 100.0,
            bound * 100.0,
            if over { "  EXCEEDS BOUND" } else { "" }
        );
    }
    Ok(clean)
}

/// `--check`: the shortest run of every workload in both modes that still
/// does everything the workload exists to do (one second, except `churn`,
/// whose every cluster must see a removal and a rejoin); the emitted names
/// must be exactly the ones `BENCHMARK.json` lists, every name must fit the
/// contract's alphabet, and every output check must pass.
fn check(names: &[&str], seed: u64) -> Result<bool, String> {
    let (bounds, per_layer) = contract()?;
    let mut wanted_e2e: Vec<&str> = bounds.keys().map(String::as_str).collect();
    let mut wanted_layers: Vec<&str> = per_layer.iter().map(String::as_str).collect();
    wanted_e2e.sort_unstable();
    wanted_layers.sort_unstable();
    let mut clean = true;
    for &name in names {
        let shortest = with_workload!(name, false, |w| Ok::<_, String>(
            w.spec().shortest_window().as_secs_f64()
        ))?;
        for (trace, wanted, smallest_share) in [
            (false, &wanted_e2e, 1.0 / SEGMENTS as f64),
            (true, &wanted_layers, SMALLEST_SHARE),
        ] {
            // A little over the shortest window, in whole tenths.
            let seconds = ((shortest / smallest_share * 10.5).ceil() / 10.0).max(1.0);
            let out = report_one(name, seed, seconds, trace)?;
            let line = result_line(out.correct, out.attempted, out.failed, &out.metrics);
            let parsed = Json::parse(&line).map_err(|e| format!("result line: {e}"))?;
            let mut got: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            got.sort_unstable();
            let mut problems = Vec::new();
            if parsed
                .get("metrics")
                .and_then(Json::as_map)
                .map(BTreeMap::len)
                != Some(got.len())
            {
                problems.push("a metric name is emitted twice".to_owned());
            }
            if &got != wanted {
                problems.push("metric names differ from BENCHMARK.json".to_owned());
            }
            if let Some(bad) = got.iter().find(|n| !valid_metric_name(n)) {
                problems.push(format!(
                    "metric name {bad:?} is outside the contract's alphabet"
                ));
            }
            if !out.correct || out.failed > 0 || out.attempted == 0 {
                problems.push(format!(
                    "{} of {} operations failed",
                    out.failed, out.attempted
                ));
            }
            for p in &problems {
                println!("# CHECK FAILED {name} trace {}: {p}", u8::from(trace));
            }
            clean &= problems.is_empty();
        }
    }
    println!("# check {}", if clean { "passed" } else { "FAILED" });
    Ok(clean)
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u64>,
    check: bool,
}

fn parse_cli(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        repeat: None,
        check: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                cli.seconds = s;
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                let k: u64 = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(2..=100).contains(&k) {
                    return Err("--repeat must be in 2..=100".to_owned());
                }
                cli.repeat = Some(k);
            }
            "--check" => cli.check = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !NAMES.contains(&w.as_str()) && w != BIGSTORE_CONTROL {
            return Err(format!("unknown workload {w:?}\n{USAGE}"));
        }
    }
    Ok(cli)
}

fn real_main() -> Result<bool, String> {
    let cli = parse_cli(std::env::args().skip(1))?;
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    if cli.check {
        return check(&names, cli.seed);
    }
    if let Some(k) = cli.repeat {
        return repeat(&names, cli.seed, cli.seconds, k);
    }
    let mut clean = true;
    for name in names {
        let out = report_one(name, cli.seed, cli.seconds, cli.trace)?;
        clean &= out.correct && out.failed == 0;
    }
    Ok(clean)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_command_line_parses() {
        let c = cli(&[
            "--workload",
            "steady",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (c.workload.as_deref(), c.seed, c.seconds, c.trace),
            (Some("steady"), 7, 3.0, true)
        );
        assert!(!cli(&["--trace", "0"]).unwrap().trace);
        assert!(cli(&["--trace"]).is_err());
        assert!(cli(&["--trace", "--seed", "9"]).is_err());
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--repeat", "1"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
    }

    #[test]
    fn every_workload_passes_its_output_checks() {
        for name in NAMES {
            let m = with_workload!(name, false, |w| {
                let seconds = w.spec().shortest_window().as_secs_f64().max(0.3);
                run(w, 3, seconds, Instruments::default())
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(m.errors.is_empty(), "{name}: {:?}", m.errors);
            assert_eq!(m.failed, 0, "{name}");
            assert!(m.commits > 0 && m.attempted >= m.commits, "{name}");
        }
    }

    #[test]
    fn a_tally_mismatch_fails_every_operation() {
        /// `steady` with one replica's row wiped from the expected tally.
        struct Lying(SudokuCycle);
        impl Workload for Lying {
            type Node = guesstimate_runtime::Machine;
            fn spec(&self) -> &workloads::Spec {
                self.0.spec()
            }
            fn node(&self, i: u32) -> Self::Node {
                self.0.node(i)
            }
            fn preload(
                &mut self,
                m: &mut Self::Node,
                ctx: &mut guesstimate_net::Ctx<'_, guesstimate_runtime::Msg>,
            ) {
                self.0.preload(m, ctx)
            }
            fn next(
                &mut self,
                s: workloads::Stream,
                rng: &mut rand::rngs::StdRng,
            ) -> workloads::Planned {
                self.0.next(s, rng)
            }
            fn issue(
                node: &mut Self::Node,
                op: guesstimate_core::SharedOp,
                done: guesstimate_core::CompletionFn,
                ctx: &mut guesstimate_net::Ctx<'_, guesstimate_runtime::Msg>,
            ) -> Result<bool, guesstimate_core::ExecError> {
                SudokuCycle::issue(node, op, done, ctx)
            }
            fn verify(&self, _: &Self::Node) -> Result<(), String> {
                Err("tally mismatch".to_owned())
            }
        }
        let m = run(
            &mut Lying(SudokuCycle::steady(false)),
            3,
            0.2,
            Instruments::default(),
        )
        .unwrap();
        assert!(!m.errors.is_empty());
        assert_eq!(m.failed, m.attempted);
    }
}

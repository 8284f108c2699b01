//! The `mc` binary: bounded schedule model checking from the command
//! line.
//!
//! ```text
//! mc [--preset NAME|all] [--rounds N] [--max-schedules N] [--max-steps N]
//!    [--no-reduction] [--matrix FILE] [--min-prune R] [--min-schedules N]
//!    [--tamper VICTIM:NTH:I:J] [--out DIR] [--replay FILE] [--emit FILE]
//!    [--list]
//! ```
//!
//! Default mode explores each selected preset within the schedule
//! budget, printing explored/pruned counts and the prune ratio (its wall
//! time and schedules/s go to stderr: stdout compares byte for byte). On an
//! oracle violation the offending schedule is minimized, written as a
//! replayable JSON file (into `--out`, default the working directory)
//! alongside a flight-recorder postmortem bundle
//! (`mc-postmortem-<preset>.json`: the minimized replay's causal
//! timeline, per-machine state summaries, and happens-before verdict;
//! inspect with `obs --postmortem`), and the process exits 1.
//! `--replay FILE` instead replays a schedule file and reports whether
//! it still violates, dumping `FILE.postmortem.json` when it does. `--matrix FILE` loads a
//! validated commute matrix from an `analyze --json` archive, sharpening
//! the partial-order reduction beyond footprint reasoning alone.
//!
//! Exit codes: 0 clean, 1 violation found (or replay reproduced one, or
//! a `--min-*` gate failed), 2 usage/IO error.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use guesstimate_analysis::matrices_from_json;
use guesstimate_core::CommuteMatrix;
use guesstimate_mc::{
    explore, minimize, replay_traced, ExploreConfig, Preset, Schedule, TamperSpec, PRESETS,
};
use guesstimate_obs::FlightRecorder;
use guesstimate_runtime::Flush;

struct Args {
    presets: Vec<Preset>,
    cfg: ExploreConfig,
    matrix: CommuteMatrix,
    min_prune: Option<f64>,
    min_schedules: Option<u64>,
    tamper: Option<TamperSpec>,
    out_dir: String,
    replay_file: Option<String>,
    emit: Option<String>,
}

fn usage() -> &'static str {
    "usage: mc [--preset NAME|all] [--rounds N] [--max-schedules N] [--max-steps N]\n          [--no-reduction] [--matrix FILE] [--min-prune RATIO] [--min-schedules N]\n          [--tamper VICTIM:NTH:I:J] [--out DIR] [--replay FILE] [--emit FILE]\n          [--list]"
}

fn parse_tamper(s: &str) -> Result<TamperSpec, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [victim, nth, i, j] = parts[..] else {
        return Err(format!("--tamper wants VICTIM:NTH:I:J, got `{s}`"));
    };
    let num = |x: &str| x.parse::<u64>().map_err(|e| format!("--tamper `{x}`: {e}"));
    Ok(TamperSpec {
        victim: u32::try_from(num(victim)?).map_err(|e| e.to_string())?,
        nth: num(nth)?,
        swap: (num(i)? as usize, num(j)? as usize),
    })
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        presets: PRESETS.to_vec(),
        cfg: ExploreConfig::default(),
        matrix: CommuteMatrix::new(),
        min_prune: None,
        min_schedules: None,
        tamper: None,
        out_dir: ".".to_owned(),
        replay_file: None,
        emit: None,
    };
    let mut rounds = None;
    let mut argv = std::env::args().skip(1);
    let need = |flag: &str, v: Option<String>| v.ok_or(format!("{flag} needs a value"));
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--list" => {
                for p in PRESETS {
                    let flush = match p.flush {
                        Flush::Parallel => "parallel",
                        Flush::Serial => "serial",
                    };
                    println!("{:<22} {flush:<8} {}", p.name, p.blurb);
                }
                return Ok(None);
            }
            "--preset" => {
                let v = need("--preset", argv.next())?;
                if v != "all" {
                    let p =
                        Preset::by_name(&v).ok_or(format!("unknown preset `{v}` (try --list)"))?;
                    args.presets = vec![*p];
                }
            }
            "--rounds" => {
                rounds = Some(
                    need("--rounds", argv.next())?
                        .parse()
                        .map_err(|e| format!("--rounds: {e}"))?,
                );
            }
            "--max-schedules" => {
                args.cfg.max_schedules = need("--max-schedules", argv.next())?
                    .parse()
                    .map_err(|e| format!("--max-schedules: {e}"))?;
            }
            "--max-steps" => {
                args.cfg.max_steps = need("--max-steps", argv.next())?
                    .parse()
                    .map_err(|e| format!("--max-steps: {e}"))?;
            }
            "--no-reduction" => args.cfg.reduction = false,
            "--matrix" => {
                let path = need("--matrix", argv.next())?;
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                args.matrix = matrices_from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            }
            "--min-prune" => {
                args.min_prune = Some(
                    need("--min-prune", argv.next())?
                        .parse()
                        .map_err(|e| format!("--min-prune: {e}"))?,
                );
            }
            "--min-schedules" => {
                args.min_schedules = Some(
                    need("--min-schedules", argv.next())?
                        .parse()
                        .map_err(|e| format!("--min-schedules: {e}"))?,
                );
            }
            "--tamper" => args.tamper = Some(parse_tamper(&need("--tamper", argv.next())?)?),
            "--out" => args.out_dir = need("--out", argv.next())?,
            "--replay" => args.replay_file = Some(need("--replay", argv.next())?),
            "--emit" => args.emit = Some(need("--emit", argv.next())?),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    for p in &mut args.presets {
        if let Some(r) = rounds {
            p.rounds = r;
        }
        // Fail closed before exploring anything: a scenario that cannot
        // install the tamper hook says so when built.
        if args.tamper.is_some() {
            p.build(&args.matrix, args.tamper)?;
        }
    }
    Ok(Some(args))
}

/// Replays the minimized schedule with a flight recorder attached and
/// writes the postmortem bundle (recent causal timeline, machine state
/// summaries, happens-before verdict) next to the repro file.
///
/// Stamp allocation is deterministic driver state, so the bundle's
/// timeline is itself replayable: `obs --postmortem FILE` re-checks it.
fn write_postmortem(
    sched: &Schedule,
    matrix: &CommuteMatrix,
    file: &str,
    violation: &str,
) -> Result<(), String> {
    // Generous capacity: minimized schedules are short, so the whole
    // replay fits in the ring and nothing is dropped from the window.
    let recorder = Arc::new(FlightRecorder::new(4096));
    let (_, states) = replay_traced(sched, matrix, recorder.clone())?;
    let reason = format!("mc oracle violation ({}): {violation}", sched.preset);
    recorder
        .write_postmortem(file.as_ref(), &reason, &states)
        .map_err(|e| format!("{file}: {e}"))?;
    println!(
        "{}: wrote postmortem bundle to {file} (inspect with: obs --postmortem {file})",
        sched.preset
    );
    Ok(())
}

fn run_replay(path: &str, matrix: &CommuteMatrix) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let sched = Schedule::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let recorder = Arc::new(FlightRecorder::new(4096));
    let (report, states) = replay_traced(&sched, matrix, recorder.clone())?;
    println!(
        "replayed {path}: {} applied, {} skipped",
        report.applied, report.skipped
    );
    match report.violation {
        Some(v) => {
            println!("violation reproduced: {v}");
            let file = format!("{path}.postmortem.json");
            let reason = format!("mc replay violation ({}): {v}", sched.preset);
            recorder
                .write_postmortem(file.as_ref(), &reason, &states)
                .map_err(|e| format!("{file}: {e}"))?;
            println!("wrote postmortem bundle to {file}");
            Ok(ExitCode::from(1))
        }
        None => {
            println!("no violation");
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn run(args: Args) -> Result<ExitCode, String> {
    if let Some(path) = &args.replay_file {
        return run_replay(path, &args.matrix);
    }
    let mut gate_failed = false;
    for preset in &args.presets {
        let started = Instant::now();
        let out = explore(preset, &args.matrix, args.tamper, &args.cfg);
        let wall = started.elapsed().as_secs_f64();
        let ratio = out.pruned as f64 / (out.pruned + out.schedules).max(1) as f64;
        println!(
            "{:<22} schedules {:>7}  pruned {:>7} ({:>5.1}%)  truncated {:>5}  max depth {:>3}  steps {:>9}{}",
            preset.name,
            out.schedules,
            out.pruned,
            100.0 * ratio,
            out.truncated,
            out.max_depth,
            out.steps_executed,
            if out.complete { "  (exhausted)" } else { "" },
        );
        eprintln!(
            "{:<22} wall {wall:>7.2} s  {:>8.0} schedules/s",
            preset.name,
            out.schedules as f64 / wall.max(1e-9),
        );

        if let Some((violation, steps)) = out.violation {
            println!(
                "{}: VIOLATION after {} steps: {violation}",
                preset.name,
                steps.len()
            );
            let raw = Schedule {
                preset: preset.name.to_owned(),
                tamper: args.tamper,
                steps,
            };
            let min = minimize(&raw, &args.matrix);
            println!(
                "{}: minimized {} -> {} steps",
                preset.name,
                raw.steps.len(),
                min.steps.len()
            );
            let file = format!("{}/mc-repro-{}.json", args.out_dir, preset.name);
            std::fs::write(&file, min.to_json()).map_err(|e| format!("{file}: {e}"))?;
            println!(
                "{}: wrote repro to {file} (replay with: mc --replay {file})",
                preset.name
            );
            let pm = format!("{}/mc-postmortem-{}.json", args.out_dir, preset.name);
            write_postmortem(&min, &args.matrix, &pm, &violation.to_string())?;
            return Ok(ExitCode::from(1));
        }

        if let (Some(path), Some(steps)) = (&args.emit, &out.sample) {
            let sched = Schedule {
                preset: preset.name.to_owned(),
                tamper: args.tamper,
                steps: steps.clone(),
            };
            std::fs::write(path, sched.to_json()).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "{}: wrote sample schedule ({} steps) to {path}",
                preset.name,
                steps.len()
            );
        }

        if let Some(min) = args.min_schedules {
            if out.schedules < min {
                eprintln!(
                    "{}: GATE FAILED: explored {} schedules, wanted >= {min}",
                    preset.name, out.schedules
                );
                gate_failed = true;
            }
        }
        if let Some(min) = args.min_prune {
            if args.cfg.reduction && ratio < min {
                eprintln!(
                    "{}: GATE FAILED: prune ratio {ratio:.3}, wanted >= {min}",
                    preset.name
                );
                gate_failed = true;
            }
        }
    }
    Ok(if gate_failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Some(args)) => match run(args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("mc: {e}");
                ExitCode::from(2)
            }
        },
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mc: {e}");
            ExitCode::from(2)
        }
    }
}

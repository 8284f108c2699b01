//! Figure 5: distribution of time taken for synchronization.
//!
//! Paper setup: "a long run of the application involving 8 users solving 2
//! Sudoku grids"; most synchronizations complete within 0.5 s; 2 outliers
//! above 12 s correspond to stalled synchronizations that needed fault
//! recovery.
//!
//! Usage: `fig5_sync_distribution [duration_secs] [seed]`
//! (defaults: 3600 s — the paper's one hour — and seed 42).
//!
//! A full per-event protocol trace is written as JSON lines to
//! `target/fig5_trace.jsonl` (override with `GUESSTIMATE_TRACE=<path>`), and
//! the slowest rounds' per-stage timelines are printed for triage. Metrics
//! snapshots (Prometheus text, JSON, Chrome trace) land next to it under the
//! `target/fig5_metrics` stem (override with `GUESSTIMATE_METRICS=<stem>`);
//! see docs/OBSERVABILITY.md.

use guesstimate_bench::{histogram, record_figure, render_timelines, run_fig5, summarize_rounds};
use guesstimate_net::SimTime;

fn main() {
    let mut args = std::env::args().skip(1);
    let duration: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(3_600);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    eprintln!("running fig5: 8 users, 2 grids, {duration}s virtual, seed {seed} ...");
    let run = record_figure("fig5", |tracer, telemetry| {
        run_fig5(seed, SimTime::from_secs(duration), tracer, telemetry)
    });
    let result = &run.output;

    println!("# Figure 5: distribution of time taken for synchronization");
    println!("# 8 users, 2 Sudoku grids, {duration}s, 2 injected stalls");
    println!("{:<16} {:>8}", "sync_time", "count");
    for b in histogram(&result.sync_samples) {
        let label = if b.lo >= SimTime::from_secs(12) {
            ">12s".to_owned()
        } else if b.hi.as_micros() <= 1_000_000 {
            format!("{}-{}ms", b.lo.as_millis(), b.hi.as_millis())
        } else {
            format!(
                "{}-{}s",
                b.lo.as_micros() / 1_000_000,
                b.hi.as_micros() / 1_000_000
            )
        };
        println!("{label:<16} {:>8}", b.count);
    }

    let total = result.sync_samples.len();
    let mut sorted: Vec<u64> = result
        .sync_samples
        .iter()
        .map(|s| s.duration.as_micros())
        .collect();
    sorted.sort_unstable();
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx] as f64 / 1_000.0
    };
    let sub_500ms = result
        .sync_samples
        .iter()
        .filter(|s| s.duration < SimTime::from_millis(500))
        .count();
    let outliers = result
        .sync_samples
        .iter()
        .filter(|s| s.duration > SimTime::from_secs(12))
        .count();
    println!();
    println!("# total synchronizations : {total}");
    println!(
        "# p50/p90/p99            : {:.1} / {:.1} / {:.1} ms",
        pct(0.50),
        pct(0.90),
        pct(0.99)
    );
    println!(
        "# within 0.5s            : {sub_500ms} ({:.1}%)  [paper: 'within 0.5 seconds most of the time']",
        100.0 * sub_500ms as f64 / total.max(1) as f64
    );
    println!("# outliers > 12s         : {outliers}  [paper: 2, both fault recoveries]");
    println!(
        "# recovery rounds        : {}",
        result.sync_samples.iter().filter(|s| s.recovered()).count()
    );
    println!("# machines restarted     : {}", result.machines_restarted);
    println!("# ticks held for a joiner: {}", result.join_holds_summary());
    println!(
        "# ops issued/committed   : {}/{}",
        result.issued, result.committed
    );
    println!("# replays run            : {}", result.replays);
    println!(
        "# bytes sent/delivered   : {}/{}  [structural wire-size model]",
        result.net.bytes_sent, result.net.bytes_delivered
    );
    println!(
        "# max executions per op  : {}  [paper bound: 3]",
        run.telemetry.max_exec_count()
    );
    println!(
        "# cross-routed commits   : {}  [guesstimate_cross_routes_total: only the board creations, which span every component; moves stay in-shard]",
        run.telemetry.cross_routes()
    );
    println!("# converged              : {}", result.converged);

    // Per-stage breakdown of the slowest rounds: the >12 s outliers should
    // show their time in stage 1 (flush stalled until recovery cleared it).
    let mut timelines = summarize_rounds(&run.records);
    timelines.sort_by_key(|t| std::cmp::Reverse(t.duration().unwrap_or(SimTime::ZERO)));
    timelines.truncate(10);
    timelines.sort_by_key(|t| t.round);
    println!();
    println!(
        "# slowest 10 rounds, per stage (full trace: {}):",
        run.trace_path.display()
    );
    print!("{}", render_timelines(&timelines));

    // How the derived shard plans would spread each app's operation
    // population — the static counterpart of the figure's sync timings.
    println!();
    print!(
        "{}",
        guesstimate_bench::render_shard_balance(&guesstimate_bench::shard_balance_rows())
    );
}

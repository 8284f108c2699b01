//! Figure 6: average time to synchronize vs. number of users.
//!
//! Paper observations: (1) presence or absence of user activity barely
//! changes sync time (network delay dominates); (2) sync time grows
//! linearly with the number of users (serial first stage).
//!
//! Usage: `fig6_sync_vs_users [duration_secs] [seed]` (defaults: 120, 7).
//!
//! The 8-user active session (the series' most contended point) is traced;
//! its JSON-lines trace goes to `target/fig6_trace.jsonl` (override with
//! `GUESSTIMATE_TRACE=<path>`) and its mean per-stage split is printed.
//! Metrics snapshots for the same session (Prometheus text, JSON, Chrome
//! trace) land under the `target/fig6_metrics` stem (override with
//! `GUESSTIMATE_METRICS=<stem>`); see docs/OBSERVABILITY.md.

use guesstimate_bench::{record_figure, run_fig6, summarize_rounds};
use guesstimate_net::SimTime;

fn main() {
    let mut args = std::env::args().skip(1);
    let duration: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(120);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);

    eprintln!("running fig6: users 2..=8 x {{active, idle}}, {duration}s each, seed {seed} ...");
    let run = record_figure("fig6", |tracer, telemetry| {
        run_fig6(seed, SimTime::from_secs(duration), tracer, telemetry)
    });
    let rows = &run.output;

    println!("# Figure 6: average time to synchronize vs number of users");
    println!("# (outliers > 12s excluded, as in the paper)");
    println!(
        "{:>5} {:>14} {:>14} {:>8} {:>12} {:>12} {:>12}",
        "users", "active_ms", "idle_ms", "rounds", "replays", "bytes_sent", "bytes_dlvd"
    );
    for r in rows {
        println!(
            "{:>5} {:>14.1} {:>14.1} {:>8} {:>12} {:>12} {:>12}",
            r.users,
            r.active.as_millis_f64(),
            r.idle.as_millis_f64(),
            r.rounds,
            r.replays,
            r.bytes_sent,
            r.bytes_delivered
        );
    }

    // Shape checks the paper calls out.
    let first = rows.first().expect("rows");
    let last = rows.last().expect("rows");
    println!();
    println!(
        "# linearity: 8-user sync is {:.2}x the 2-user sync (serial stage 1)",
        last.active.as_millis_f64() / first.active.as_millis_f64()
    );
    let max_gap = rows
        .iter()
        .map(|r| (r.active.as_millis_f64() - r.idle.as_millis_f64()).abs())
        .fold(0.0f64, f64::max);
    println!("# activity effect: max |active - idle| = {max_gap:.1} ms (small: network-dominated)");
    // The paper's extrapolation: "even with 100 users the average time to
    // synchronize would be within 3 seconds".
    let per_user = (last.active.as_millis_f64() - first.active.as_millis_f64()) / 6.0;
    let at_100 = first.active.as_millis_f64() + per_user * 98.0;
    println!(
        "# extrapolation: ~{:.2} s at 100 users (paper: within 3 s)",
        at_100 / 1_000.0
    );

    // Mean per-stage split of the traced 8-user session: with a serial
    // stage 1, flush should dominate and be the part that grows with users.
    let timelines = summarize_rounds(&run.records);
    let mean_ms = |f: &dyn Fn(&guesstimate_bench::RoundTimeline) -> Option<SimTime>| {
        let vals: Vec<f64> = timelines
            .iter()
            .filter_map(f)
            .map(SimTime::as_millis_f64)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    println!(
        "# 8-user per-stage means : flush {:.1} ms, apply {:.1} ms, flag-spread {:.1} ms ({} rounds traced)",
        mean_ms(&|t| t.flush_duration()),
        mean_ms(&|t| t.apply_duration()),
        mean_ms(&|t| t.completion_spread()),
        timelines.len()
    );
    println!(
        "# cross-routed commits   : {}  [guesstimate_cross_routes_total, 8-user session: only the board creations, which span every component; moves stay in-shard]",
        run.telemetry.cross_routes()
    );

    // How the derived shard plans would spread each app's operation
    // population — the ceiling a future multi-group synchronizer could
    // exploit to make sync time sublinear in users.
    println!();
    print!(
        "{}",
        guesstimate_bench::render_shard_balance(&guesstimate_bench::shard_balance_rows())
    );
}

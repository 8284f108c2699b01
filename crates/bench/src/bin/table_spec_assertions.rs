//! The §6 specification table (Spec#/Boogie analog).
//!
//! Paper: "For our final version of Sudoku with contracts, Spec# generated
//! 323 assertions out of which boogie was able to verify 271 as correct
//! while the remaining 52 were translated into runtime checks." We generate
//! each application's assertion population from its contracts and classify
//! every assertion with the bounded-exhaustive verifier. The same suites,
//! whole, are what the checked registry runs (`apps::register_all_checked`).
//!
//! Usage: `table_spec_assertions [--detail]` (`--detail` additionally prints
//! each application's per-method breakdown). Exits 1 if any assertion of a
//! shipped application is refuted.

use guesstimate_bench::{run_spec_table, spec_table_total};

fn main() {
    let detail = std::env::args().skip(1).any(|a| a == "--detail");
    eprintln!("classifying assertion populations for all six applications ...");
    let rows = run_spec_table();

    println!("# Specification table: assertions per application");
    println!("# (paper, Sudoku only: 323 assertions = 271 verified + 52 runtime checks)");
    println!(
        "{:<14} {:>6} {:>9} {:>15} {:>8}",
        "app", "total", "verified", "runtime_checks", "refuted"
    );
    let row = |name: &str, c: [usize; 4]| {
        println!(
            "{name:<14} {:>6} {:>9} {:>15} {:>8}",
            c[0], c[1], c[2], c[3]
        );
    };
    for r in &rows {
        row(r.app, r.counts());
    }
    let sum = spec_table_total(&rows);
    row("TOTAL", sum);
    println!();
    println!("# shape vs paper: a large assertion population, the majority discharged");
    println!("# statically (here: complete small-scope enumeration), the remainder kept");
    println!("# as runtime checks; zero refutations on the shipped implementations.");

    if detail {
        for r in &rows {
            println!();
            println!("# {} per-method breakdown:", r.app);
            print!("{}", r.report.format_table());
        }
    }
    if sum[3] > 0 {
        eprintln!(
            "{} assertion(s) refuted on the shipped implementations",
            sum[3]
        );
        std::process::exit(1);
    }
}

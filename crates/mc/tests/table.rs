//! Pins the scenario table: every row of `Preset::all()`, hidden rows
//! included, as its built cluster and its deterministic drain.
//!
//! Per row, one `build` line (the built cluster's `state_digest`, the
//! in-flight message seqs and the staged joiners) and one `drain` line:
//! lowest-seq delivery first, then admission, a timer only when quiet,
//! with the step oracles after every step and the terminal oracles once the
//! explored window is over and nothing is in flight. The line carries the
//! step count, the verdict (`clean`, or the violation's text) and the
//! terminal `state_digest`. The whole rendering is compared with the
//! checked-in `table.txt`; on drift it is written to
//! `target/mc_table.actual.txt`.
//!
//! It reads only through `Preset::all`, `Preset::build` and `Cluster`, so
//! a change to how a row is described or built shows here as drift, not
//! as a compile error.

use std::fmt::Write as _;
use std::path::Path;

use guesstimate_core::CommuteMatrix;
use guesstimate_mc::{Cluster, Preset, Step};

/// Drains `built` down the deterministic road; returns the step count and
/// the verdict.
fn drain(built: &mut dyn Cluster) -> (usize, String) {
    let mut steps = 0;
    loop {
        assert!(steps < 100_000, "drain failed to converge");
        let next = if let Some(&seq) = built.pending_msgs().first() {
            Step::Deliver(seq)
        } else if let Some(&j) = built.pending_joins().first() {
            Step::Admit(j)
        } else if built.window_done() {
            let verdict = built.check_terminal();
            return (steps, verdict.map_or("clean".to_owned(), |v| v.to_string()));
        } else {
            Step::Timer
        };
        assert!(built.exec(next), "drain stalled at {next}");
        steps += 1;
        if let Some(v) = built.check_step() {
            return (steps, v.to_string());
        }
    }
}

fn table() -> String {
    let mut out = String::new();
    for p in Preset::all() {
        let mut built = p
            .build(&CommuteMatrix::new(), None)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        writeln!(
            out,
            "{} build digest {:016x} msgs {:?} joins {:?}",
            p.name,
            built.state_digest(),
            built.pending_msgs(),
            built.pending_joins()
        )
        .unwrap();
        let (steps, verdict) = drain(&mut *built);
        writeln!(
            out,
            "{} drain steps {steps} digest {:016x} verdict {verdict}",
            p.name,
            built.state_digest()
        )
        .unwrap();
    }
    out
}

#[test]
fn every_row_builds_and_drains_as_the_checked_in_table_records() {
    let expected = include_str!("table.txt");
    let actual = table();
    let (want, got): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), actual.lines().collect());
    if let Some(i) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
        let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"))
            .join("mc_table.actual.txt");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "scenario table drift at line {}:\n  expected: {}\n  actual:   {}\nfull table in {}",
            i + 1,
            want.get(i).unwrap_or(&"<end>"),
            got.get(i).unwrap_or(&"<end>"),
            path.display()
        );
    }
}

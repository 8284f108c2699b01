//! Workspace-local stand-in for the `criterion` crate.
//!
//! Provides the subset of the API that `benches/microbench.rs` uses —
//! `Criterion::bench_function`, `benchmark_group`, `Bencher::iter` /
//! `iter_batched`, `BatchSize`, and the `criterion_group!` /
//! `criterion_main!` macros — as a plain wall-clock timing harness.
//! Each benchmark is warmed up briefly, then timed over enough
//! iterations to fill a short measurement window; the mean time per
//! iteration is printed to stdout. No statistics, plots, or baselines.
//!
//! The bench binary's arguments are read as criterion reads them: the
//! first one not starting with `-` keeps only the rows whose name contains
//! it, and `--test` runs each kept row once, without warm-up, so a gate
//! can execute every row's setup and assertions cheaply
//! (`cargo bench --bench microbench -- --test`).

#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// How setup cost relates to routine cost (accepted, not acted on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is small; batch many iterations per setup.
    SmallInput,
    /// Setup output is large; batch few iterations per setup.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Per-benchmark timing driver handed to the benchmark closure.
pub struct Bencher {
    total: Duration,
    iters: u64,
    /// `--test`: one iteration, no warm-up.
    once: bool,
}

const WARMUP_ITERS: u64 = 3;
const MEASURE_WINDOW: Duration = Duration::from_millis(300);
const MAX_ITERS: u64 = 10_000;

impl Bencher {
    fn new(once: bool) -> Self {
        Bencher {
            total: Duration::ZERO,
            iters: 0,
            once,
        }
    }

    /// Whether another timed iteration is due.
    fn more(&self, window: Instant) -> bool {
        if self.once {
            return self.iters == 0;
        }
        window.elapsed() < MEASURE_WINDOW && self.iters < MAX_ITERS
    }

    fn warmups(&self) -> u64 {
        if self.once {
            0
        } else {
            WARMUP_ITERS
        }
    }

    /// Times repeated calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.warmups() {
            black_box(routine());
        }
        let window = Instant::now();
        while self.more(window) {
            let t = Instant::now();
            black_box(routine());
            self.total += t.elapsed();
            self.iters += 1;
        }
    }

    /// Times `routine` over fresh inputs produced by `setup`; only the
    /// routine is on the clock.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.warmups() {
            black_box(routine(setup()));
        }
        let window = Instant::now();
        while self.more(window) {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.total += t.elapsed();
            self.iters += 1;
        }
    }

    fn report(&self, name: &str) {
        if self.iters == 0 {
            println!("{name:<40} (no iterations)");
            return;
        }
        let per = self.total.as_nanos() as f64 / self.iters as f64;
        let (val, unit) = if per >= 1e9 {
            (per / 1e9, "s")
        } else if per >= 1e6 {
            (per / 1e6, "ms")
        } else if per >= 1e3 {
            (per / 1e3, "µs")
        } else {
            (per, "ns")
        };
        println!("{name:<40} {val:>10.2} {unit}/iter  ({} iters)", self.iters);
    }
}

/// Top-level benchmark registry (mirrors `criterion::Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {
    /// Runs only the rows whose name contains this.
    filter: Option<String>,
    /// `--test`: each row once.
    test: bool,
}

impl Criterion {
    /// Creates a harness with default settings: every row, timed.
    pub fn new() -> Self {
        Criterion::default()
    }

    /// Applies a bench binary's arguments (without the program name): a
    /// name filter (the first argument not starting with `-`) and
    /// `--test`. Other flags, such as the `--bench` cargo passes, are
    /// ignored. `criterion_group!` passes the process's own.
    pub fn configure_from(mut self, args: impl IntoIterator<Item = String>) -> Self {
        for arg in args {
            if arg == "--test" {
                self.test = true;
            } else if !arg.starts_with('-') && self.filter.is_none() {
                self.filter = Some(arg);
            }
        }
        self
    }

    /// Runs and reports one named benchmark, if the filter keeps it.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id.to_string(), f);
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&self, name: String, mut f: F) {
        if self.filter.as_ref().is_some_and(|k| !name.contains(k)) {
            return;
        }
        let mut b = Bencher::new(self.test);
        f(&mut b);
        b.report(&name);
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
        }
    }
}

/// A named group of benchmarks (mirrors `criterion::BenchmarkGroup`).
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs and reports one benchmark inside the group, if the filter
    /// keeps `group/id`.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.c.run(format!("{}/{id}", self.name), f);
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Opaque value barrier preventing the optimizer from deleting work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group function, mirroring `criterion_group!`: it
/// runs its targets on a harness configured from the process's arguments
/// (see [`Criterion::configure_from`]). The `@args <expr>;` form takes the
/// arguments from `<expr>` instead.
#[macro_export]
macro_rules! criterion_group {
    (@args $args:expr; $name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::new().configure_from($args);
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(@args ::std::env::args().skip(1); $name, $($target),+);
    };
}

/// Declares the benchmark `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        c.bench_function(format!("fmt-{}", 1), |b| {
            b.iter_batched(|| vec![1, 2], |v| v.len(), BatchSize::SmallInput)
        });
        let mut g = c.benchmark_group("grp");
        g.bench_function("inner", |b| b.iter(|| black_box(2) * 2));
        g.finish();
    }

    criterion_group!(@args Vec::<String>::new(); benches, quick);

    #[test]
    fn harness_runs() {
        benches();
    }

    #[test]
    fn the_filter_keeps_rows_by_substring_and_test_runs_each_once() {
        let args = ["--bench", "grp/", "--test", "ignored"].map(String::from);
        let mut c = Criterion::new().configure_from(args);
        assert_eq!((c.filter.as_deref(), c.test), (Some("grp/"), true));
        let mut runs = Vec::new();
        c.bench_function("other", |b| b.iter(|| runs.push("other")));
        let mut g = c.benchmark_group("grp");
        g.bench_function("kept", |b| {
            b.iter_batched(|| "kept", |k| runs.push(k), BatchSize::SmallInput)
        });
        g.finish();
        assert_eq!(runs, ["kept"]);
    }
}

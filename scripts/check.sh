#!/usr/bin/env sh
# The one list of gates. `check.sh [step...]` runs the named steps in the
# order given; with no arguments it runs everything a change must pass
# (`just check`, CI's first step). Every justfile recipe and every CI step
# calls this script, so a command lives in exactly one place.
set -eu
cd "$(dirname "$0")/.."

CHECK="fmt clippy doc test analyze shards mc-smoke bench-snapshot bench-shards"

analyze() {
    cargo run -q -p guesstimate-analysis --bin analyze -- "$@"
}

# Non-test lines of Rust fed on stdin as concatenated files, each preceded
# by a `==> path` line: a file stops counting at its `#[cfg(test)]` test
# module (inline `mod`, or `#[path]`-declared).
count_nontest() {
    awk '
        /^==> / { skip = 0; held = 0; next }
        skip { next }
        held { held = 0; if ($0 ~ /^(mod |#\[path)/) { skip = 1; next } n++ }
        /^#\[cfg\(test\)\]$/ { held = 1; next }
        { n++ }
        END { print n + 0 }'
}

# Lists a crate's non-test source files (`src/**.rs` minus `*_tests.rs` and
# the `testutil.rs` fixture) at revision $2, or in the work tree if empty.
loc_of() {
    if [ -n "$2" ]; then
        git ls-tree -r --name-only "$2" -- "$1/src"
    else
        git ls-files -- "$1/src"
    fi | grep '\.rs$' | grep -v -e '_tests\.rs$' -e '/testutil\.rs$' |
        while read -r f; do
            echo "==> $f"
            if [ -n "$2" ]; then git show "$2:$f"; else cat "$f"; fi
        done | count_nontest
}

# Prints each crate's non-test line count and its change since revision $1.
loc_table() {
    base=$(git rev-parse --short "$1" 2>/dev/null) || base=
    printf '%-18s %8s %12s\n' crate lines "vs ${base:-?}"
    total=0
    total_delta=0
    for c in crates/* .; do
        [ -d "$c/src" ] || continue
        now=$(loc_of "$c" "")
        delta=0
        [ -z "$base" ] || delta=$((now - $(loc_of "$c" "$base")))
        total=$((total + now))
        total_delta=$((total_delta + delta))
        printf '%-18s %8d %+12d\n' "$c" "$now" "$delta"
    done
    printf '%-18s %8d %+12d\n' total "$total" "$total_delta"
}

step() {
    case "$1" in
    fmt) cargo fmt --all --check ;;
    # The whole workspace, tests and bins included, warnings fatal.
    clippy) cargo clippy --workspace --all-targets -- -D warnings ;;
    # Rustdoc warnings (broken intra-doc links, missing docs on the public
    # protocol surface) are fatal.
    doc) RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q ;;
    # Unit + integration + doctests, every crate.
    test) cargo test --workspace -q ;;
    # Effect-analysis lint: conflict matrices for all six apps; any
    # undeclared effect, footprint under-approximation, nondeterminism or
    # witness-refuted footprint is fatal (docs/ANALYSIS.md).
    analyze) analyze ;;
    # Shard-plan gate: derive + sanitize + witness-check every app's
    # ShardPlan and archive it, then re-derive and require the archive
    # byte-identical (docs/ANALYSIS.md "Shard plans").
    shards)
        analyze --shard-plan --json target/shard_plans.json
        analyze --shard-plan --json target/shard_plans_again.json >/dev/null
        cmp target/shard_plans.json target/shard_plans_again.json
        ;;
    # Model-checker smoke: a quick bounded exploration of every scenario
    # in the table (debug build, small budget) with all oracles armed
    # (docs/MODELCHECK.md).
    mc-smoke)
        cargo run -q -p guesstimate-mc --bin mc -- --preset all --max-schedules 400
        ;;
    # The model-checking gate: release build, full budget, the commute
    # matrix the effect analysis just validated; every scenario must reach
    # 10k schedules with >= 30% of choices pruned by the reduction. Repros
    # and postmortems land in target/.
    mc)
        analyze --shard-plan --json target/analysis.json >/dev/null
        cargo run --release -q -p guesstimate-mc --bin mc -- --preset all \
            --matrix target/analysis.json --max-schedules 12000 \
            --min-schedules 10000 --min-prune 0.30 --out target
        ;;
    # Telemetry smoke: fixed-seed fig5 with metrics + spans + exporters on;
    # validates the observability invariants and artifact well-formedness,
    # and refreshes BENCH_pr4/6/8/9.json (docs/OBSERVABILITY.md).
    bench-snapshot) ./scripts/bench_snapshot.sh ;;
    # Shard-scaling gate: fixed-seed multi-group run over ThreadedNet at
    # 1/2/4/8 sync groups; refreshes BENCH_pr10.json (docs/PROTOCOL.md
    # "Multi-group synchronization").
    bench-shards) ./scripts/bench_shards.sh ;;
    # Benchmark smoke: the BENCHMARK.json command with `--check` -- the
    # shortest run of every workload in both modes (about 25 s); fails
    # unless the emitted metric names are exactly BENCHMARK.json's and every
    # output check passes (crates/bench/src/bin/perf/README.md).
    perf)
        cargo run --release --offline -q \
            --manifest-path crates/bench/src/bin/perf/Cargo.toml -- --check
        ;;
    # Parent-against-change pairs of that benchmark, all six workloads at
    # its own run length (about half an hour): medians, quartiles, pairs
    # won and the beyond-the-parent's-IQR rule per end-to-end metric
    # (scripts/perf_pairs.sh). The parent is HEAD while the tree has
    # uncommitted changes, HEAD~1 otherwise. Reports only; never fails.
    perf-pairs)
        if git diff --quiet HEAD 2>/dev/null; then base=HEAD~1; else base=HEAD; fi
        ./scripts/perf_pairs.sh "$base" 10 || true
        ;;
    # Effect-witness soundness, all three layers (docs/ANALYSIS.md
    # "Soundness"): the analyzer's witness sanitizer, the core witness
    # recorder, the runtime's apply-site containment, and the model
    # checker's sneaky-preset detection + shrink regression -- plus the
    # same three layers for shard plans.
    sanitize)
        step shards
        step analyze
        cargo test -q -p guesstimate-core witness
        cargo test -q -p guesstimate-runtime undeclared_read
        cargo test -q --test mc_regressions under_declared_read
        cargo test -q -p guesstimate-runtime shard
        cargo test -q --test mc_regressions mis_keyed
        ;;
    # Causal cluster report: a short traced fig5, then the obs report over
    # its trace + spans (docs/OBSERVABILITY.md "Lag waterfalls").
    obs)
        cargo run --release -q -p guesstimate-bench --bin fig5_sync_distribution 120 42 >/dev/null
        cargo run --release -q -p guesstimate-obs --bin obs
        ;;
    # Net line count, which the north star asks every PR to report:
    # non-test Rust lines per crate and the change against the merge-base
    # with origin/main (HEAD~1 where there is no such ref) and, when the
    # tree has uncommitted changes, against HEAD. Reports only; never fails.
    loc)
        base=$(git merge-base HEAD origin/main 2>/dev/null) || base=HEAD~1
        loc_table "$base"
        git diff --quiet HEAD 2>/dev/null || loc_table HEAD
        ;;
    # What the release gate runs.
    tier1)
        cargo build --release
        cargo test -q
        ;;
    # The paper's headline figures, traces enabled, then the A1 ablation --
    # the one gate on both flush modes: it fails unless sync time grows
    # >= 2x from 2 to 8 users under the paper's serial stage 1 and <= 1.4x
    # under the parallel one the runtime defaults to.
    figures)
        cargo run --release -p guesstimate-bench --bin fig5_sync_distribution
        cargo run --release -p guesstimate-bench --bin fig6_sync_vs_users
        cargo run --release -p guesstimate-bench --bin failure_recovery
        cargo run --release -p guesstimate-bench --bin ablation_parallel_flush
        ;;
    *)
        echo "check.sh: unknown step \`$1\` (steps: $CHECK mc perf perf-pairs loc sanitize obs tier1 figures)" >&2
        exit 2
        ;;
    esac
}

[ $# -gt 0 ] || set -- $CHECK
for s in "$@"; do
    step "$s"
done

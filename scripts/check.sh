#!/usr/bin/env sh
# The one list of gates. `check.sh [step...]` runs the named steps in the
# order given; with no arguments it runs everything a change must pass
# (`just check`, CI's first step). Every justfile recipe and every CI step
# calls this script, so a command lives in exactly one place.
set -eu
cd "$(dirname "$0")/.."

CHECK="fmt clippy doc test analyze shards mc-smoke"

analyze() {
    cargo run -q -p guesstimate-analysis --bin analyze -- "$@"
}

# `cargo test -q "$@"`, failing unless its name filter selected at least
# one test: a filter that matches nothing prints "running 0 tests" and
# passes, so a renamed test would otherwise empty its gate silently.
filtered_test() {
    out=$(cargo test -q "$@" 2>&1) || {
        printf '%s\n' "$out"
        return 1
    }
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -Eq 'test result: ok\. [1-9][0-9]* passed' || {
        echo "check.sh: \`cargo test $*\` ran no test" >&2
        return 1
    }
}

# Counts Rust lines fed on stdin as concatenated files, each preceded by a
# `==> path` line, and prints `<non-test> <test>`. Test lines are whole
# files under a `tests/` directory, `*_tests.rs` and the `testutil.rs`
# fixture, and the rest of a file from its `#[cfg(test)]` test module
# (inline `mod`, or `#[path]`-declared) on.
count_lines() {
    awk '
        /^==> / { skip = ($2 ~ /(^|\/)tests\// || $2 ~ /(_tests|\/testutil)\.rs$/); held = 0; next }
        skip { t++; next }
        held { held = 0; t++; if ($0 ~ /^(mod |#\[path)/) { skip = 1; t++; next } n++ }
        /^#\[cfg\(test\)\]$/ { held = 1; next }
        { n++ }
        END { print n + 0, t + 0 }'
}

# Prints `<non-test> <test>` line counts of crate $1 (`src/**.rs` and
# `tests/**.rs`) at revision $2, or in the work tree if empty.
loc_of() {
    if [ -n "$2" ]; then
        git ls-tree -r --name-only "$2" -- "$1/src" "$1/tests"
    else
        git ls-files -- "$1/src" "$1/tests"
    fi | grep '\.rs$' |
        while read -r f; do
            echo "==> $f"
            if [ -n "$2" ]; then git show "$2:$f"; else cat "$f"; fi
        done | count_lines
}

# Prints each crate's non-test line count and its change since revision $1,
# and beside it the change in test lines: code that moved into a test shows
# there instead of passing for removed. A crate deleted since $1 is a row of
# zero lines, so its removal counts.
loc_table() {
    base=$(git rev-parse --short "$1" 2>/dev/null) || base=
    printf '%-18s %8s %12s %14s\n' crate lines "vs ${base:-?}" "tests vs ${base:-?}"
    total=0
    total_delta=0
    total_tests_delta=0
    for c in $( (git ls-files crates; [ -z "$base" ] || git ls-tree -r --name-only "$base" crates) |
        cut -d/ -f1-2 | sort -u) .; do
        set -- $(loc_of "$c" "")
        now=$1 tests_now=$2
        delta=0
        tests_delta=0
        if [ -n "$base" ]; then
            set -- $(loc_of "$c" "$base")
            delta=$((now - $1))
            tests_delta=$((tests_now - $2))
        fi
        total=$((total + now))
        total_delta=$((total_delta + delta))
        total_tests_delta=$((total_tests_delta + tests_delta))
        printf '%-18s %8d %+12d %+14d\n' "$c" "$now" "$delta" "$tests_delta"
    done
    printf '%-18s %8d %+12d %+14d\n' total "$total" "$total_delta" "$total_tests_delta"
}

# Writes one side's artifacts: builds tree $1 in release, then runs, inside
# directory $2 and with relative paths (so stdouts do not name the side),
# the three figures that write traces and metrics, the figures that only
# print (fig7, the three ablations, scalability and the specification
# table), the shard-plan archive, the `obs` report over fig5's trace and
# spans, an `mc --replay` of a copy of a violating schedule (which writes
# its postmortem beside the copy), the model checker's exploration of
# every scenario row at 400 schedules (schedules, pruned, ratio, depth and
# steps; no timings), the table's public face (`mc --list`) and its two
# hidden negative rows (`sneaky`, `miskeyed`: each writes a repro and a
# postmortem bundle), so a change to `SchedNet`, the roles or mc shows as a
# differing file. Every stdout, and each mc run's exit status, lands in a
# file there too.
artifacts_side() {
    (cd "$1" && cargo build --release --offline -q -p guesstimate-bench \
        -p guesstimate-analysis -p guesstimate-obs -p guesstimate-mc --bins)
    bin=$(cd "$1" && pwd)/target/release
    rm -rf "$2"
    mkdir -p "$2"
    cp tests/schedules/sudoku-tamper-swap.json "$2/replay.json"
    (
        cd "$2"
        for run in "fig5_sync_distribution 300 42" "fig6_sync_vs_users 30 7" \
            "failure_recovery 120 13"; do
            set -- $run
            GUESSTIMATE_TRACE=$1_trace.jsonl GUESSTIMATE_METRICS=$1_metrics \
                "$bin/$1" "$2" "$3" >"$1.stdout" 2>/dev/null
        done
        for run in "ablation_parallel_flush 10 7" ablation_responsiveness \
            ablation_consistency "scalability 10 7" "fig7_conflicts_vs_users 1000 11" \
            table_spec_assertions; do
            set -- $run
            name=$1
            shift
            "$bin/$name" "$@" >"$name.stdout" 2>/dev/null
        done
        "$bin/analyze" --shard-plan --json analysis.json >analyze.stdout
        "$bin/obs" --trace fig5_sync_distribution_trace.jsonl \
            --spans fig5_sync_distribution_metrics_spans.jsonl --json obs.json >obs.stdout
        status=0
        "$bin/mc" --replay replay.json >mc.stdout || status=$?
        echo "$status" >mc.status
        status=0
        "$bin/mc" --preset all --max-schedules 400 >mc_explore.stdout || status=$?
        echo "$status" >mc_explore.status
        "$bin/mc" --list >mc_list.stdout
        for preset in sneaky miskeyed; do
            status=0
            "$bin/mc" --preset "$preset" --out . >"mc_$preset.stdout" || status=$?
            echo "$status" >"mc_$preset.status"
        done
    )
}

# Compares the artifacts of the work tree with those of revision $1: every
# file either side writes must exist on both and be byte-identical.
artifacts() {
    rev=$(git rev-parse --short "$1^{commit}")
    parent=target/artifacts/$rev
    rm -rf "$parent"
    mkdir -p "$parent"
    git archive "$rev" | tar -x -C "$parent"
    artifacts_side "$parent" target/artifacts/out-parent
    artifacts_side . target/artifacts/out-tree
    a=target/artifacts/out-parent
    b=target/artifacts/out-tree
    for f in $( (ls "$a" && ls "$b") | sort -u); do
        cmp -s "$a/$f" "$b/$f" || {
            echo "check.sh artifacts: $f differs from $rev (or is missing on one side)" >&2
            exit 1
        }
    done
    echo "check.sh artifacts: $(ls "$b" | wc -l) files byte-identical to $rev"
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
    # The same suite in release: overflow wraps instead of panicking and
    # `debug_assert!` is compiled out, so arithmetic and the assertions'
    # side conditions are exercised as they ship (the behaviour-identical
    # rule in ROADMAP.md asks for this run).
    test-release) cargo test --release --workspace --no-fail-fast -q ;;
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
    # Model-checker smoke: a quick bounded exploration of every row of the
    # scenario table -- 15 rows of data: five scenarios, each under the
    # serial flush, the parallel flush, and the parallel flush with two
    # rounds in flight (the `flush` and `overlap` columns), all driven by
    # the one harness
    # -- (debug build, small budget) with all oracles armed
    # (docs/MODELCHECK.md).
    mc-smoke)
        cargo run -q -p guesstimate-mc --bin mc -- --preset all --max-schedules 400
        ;;
    # The model-checking gate: release build, full budget, the commute
    # matrix the effect analysis just validated; each of the 15 rows must
    # reach 10k schedules with >= 30% of choices pruned by the reduction. Repros
    # and postmortems land in target/.
    mc)
        analyze --shard-plan --json target/analysis.json >/dev/null
        cargo run --release -q -p guesstimate-mc --bin mc -- --preset all \
            --matrix target/analysis.json --max-schedules 12000 \
            --min-schedules 10000 --min-prune 0.30 --out target
        ;;
    # Benchmark smoke: the BENCHMARK.json command with `--check` -- the
    # shortest run of every workload in both modes (about 25 s); fails
    # unless the emitted metric names are exactly BENCHMARK.json's and every
    # output check passes (crates/bench/src/bin/perf/README.md).
    perf)
        cargo run --release --offline -q \
            --manifest-path crates/bench/src/bin/perf/Cargo.toml -- --check
        ;;
    # Parent-against-change pairs of that benchmark, all six workloads at
    # its own run length (about 40 minutes): medians, quartiles, pairs
    # won and the beyond-the-parent's-IQR rule per end-to-end metric, then
    # one traced run a side per workload and every per-layer row as `name
    # parent change ratio`, those more than 5 % apart starred
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
        filtered_test -p guesstimate-core witness
        filtered_test -p guesstimate-runtime undeclared_read
        filtered_test --test mc_regressions under_declared_read
        filtered_test -p guesstimate-runtime shard
        filtered_test --test mc_regressions mis_keyed
        ;;
    # Causal cluster report: a short traced fig5, then the obs report over
    # its trace + spans (docs/OBSERVABILITY.md "Lag waterfalls").
    obs)
        cargo run --release -q -p guesstimate-bench --bin fig5_sync_distribution 120 42 >/dev/null
        cargo run --release -q -p guesstimate-obs --bin obs
        ;;
    # Net line count, which the north star asks every PR to report:
    # non-test Rust lines per crate and the change, in them and in test
    # lines, against the merge-base with origin/main (HEAD~1 where there is
    # no such ref) and, when the tree has uncommitted changes, against HEAD.
    # Reports only; never fails.
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
    # Every figure binary EXPERIMENTS.md lists, with its command there
    # (fig5, fig6 and failure_recovery write traces), so a panic or a
    # failed assert in any of them (A3 asserts its distinct_states) fails
    # the step; then the two that gate: the A1 ablation fails unless sync
    # time grows >= 2x from 2 to 8 users under the paper's serial stage 1
    # and <= 1.4x under the parallel one the runtime defaults to, and the
    # specification table fails if any assertion of a shipped app is
    # refuted.
    figures)
        cargo run --release -p guesstimate-bench --bin fig5_sync_distribution
        cargo run --release -p guesstimate-bench --bin fig6_sync_vs_users
        cargo run --release -p guesstimate-bench --bin fig7_conflicts_vs_users -- 1000 11
        cargo run --release -p guesstimate-bench --bin failure_recovery
        cargo run --release -p guesstimate-bench --bin ablation_responsiveness
        cargo run --release -p guesstimate-bench --bin ablation_consistency
        cargo run --release -p guesstimate-bench --bin scalability
        cargo run --release -p guesstimate-bench --bin ablation_parallel_flush
        cargo run --release -p guesstimate-bench --bin table_spec_assertions
        ;;
    *)
        echo "check.sh: unknown step \`$1\` (steps: $CHECK test-release mc perf perf-pairs loc sanitize obs tier1 figures; artifacts <rev>)" >&2
        exit 2
        ;;
    esac
}

[ $# -gt 0 ] || set -- $CHECK
while [ $# -gt 0 ]; do
    s=$1
    shift
    case "$s" in
    # The artifacts a change must leave byte-identical, against a parent
    # revision: fig5 / fig6 / failure_recovery traces, metrics, Chrome
    # traces and spans, the stdout of every figure binary, the shard-plan
    # archive, the `obs --json` report, an `mc --replay` postmortem, the
    # stdout of `mc --preset all --max-schedules 400` and of `mc --list`,
    # and the repros, postmortems, stdouts and exit statuses of the hidden
    # `sneaky` and `miskeyed` rows, all built and run on both sides under
    # target/artifacts/ (a release build of each side). Not in the default
    # list: it takes a revision.
    artifacts)
        [ $# -gt 0 ] || {
            echo "check.sh: artifacts needs a revision to compare with" >&2
            exit 2
        }
        artifacts "$1"
        shift
        ;;
    *) step "$s" ;;
    esac
done

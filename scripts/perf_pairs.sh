#!/usr/bin/env sh
# Parent-against-change pairs of the benchmark, the rule every perf change
# is judged by (ROADMAP "Ground rules"; the choosing-metrics guide, s. 8):
#
#   scripts/perf_pairs.sh <parent-rev> <pairs>[@<first-seed>] [workload...]
#
# Builds the BENCHMARK.json command at <parent-rev> (a `git archive` of it
# under target/perf_pairs/, so neither the work tree nor .git is touched) and
# in the work tree, then runs <pairs> pairs per workload at the benchmark's
# own run length: pair k uses seed <first-seed> + k - 1 (default 1) on both
# sides, and the side that goes first alternates. No workload named: all of
# BENCHMARK.json's.
#
# Prints, per workload and end-to-end metric: both sides' median and
# quartiles, the pairs each side won (ties count for neither), and whether
# the medians differ by more than the parent's inter-quartile range -- a gain
# is claimed only with >= 9/10 of the pairs *and* that. Every run's numbers
# go to target/perf_pairs/runs.tsv, and both sides' `(commit, workload,
# metric, median, q1, q3, pairs, first_seed)` rows are appended as JSON lines to the
# checked-in BENCH_ledger.jsonl, the trajectory across perf PRs (the work
# tree's commit is HEAD, with a `+` while it has uncommitted changes).
#
# Then the traced side of a claim -- the supporting counts an issue names
# beforehand: one `--trace 1` run a side per workload, on the seed after the
# pairs', the side that goes first alternating by workload, and every
# per-layer row of BENCHMARK.json printed as `name parent change ratio`, with
# a `*` where the two differ by more than 5 %. One run a side is a reading,
# not a sample: these rows are reported only (the outputs stay in
# target/perf_pairs/traced-<workload>-<side>.txt) and never reach the ledger.
#
# Reads each metric from the one-line JSON result a run ends with, which
# carries full precision (the `name value unit` lines print 4 decimals, so a
# 1.86 ms `setup_s` would read 0.0019 there). Reports; exits non-zero only
# when it cannot run.
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || {
    sed -n '2,8p' "$0" >&2
    exit 2
}
rev=$(git rev-parse --short "$1^{commit}")
head=$(git rev-parse --short HEAD)
git diff --quiet HEAD 2>/dev/null || head="$head+"
pairs=${2%@*}
seed0=1
case "$2" in *@*) seed0=${2#*@} ;; esac
shift 2

# The pretty-printed BENCHMARK.json, one key a line: pull a top-level block.
block() {
    awk -v key="\"$1\":" '$1 == key { on = 1; next } on && /^  [\]}]/ { exit } on' BENCHMARK.json
}
field() { sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",]*\).*/\1/p"; }
seconds=$(field run_seconds <BENCHMARK.json)
[ $# -gt 0 ] || set -- $(block workloads | field name)
# "name better" per end-to-end metric.
metrics=$(block end_to_end | awk -F'"' '$2 == "name" { n = $4 } $2 == "better" { print n, $4 }')

out=target/perf_pairs
parent=$out/$rev
rm -rf "$parent"
mkdir -p "$parent"
git archive "$rev" | tar -x -C "$parent"
runs=$out/runs.tsv
printf 'workload\tpair\tseed\tside\tfirst\texit\tmetric\tvalue\n' >"$runs"

# Runs the benchmark command in tree $1 for workload $2 with seed $3 and
# `--trace $4`, its output into file $5.
run() {
    (cd "$1" && cargo run --release --offline -q \
        --manifest-path crates/bench/src/bin/perf/Cargo.toml -- \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4") >"$5"
}

# Every metric of the JSON result line that ends run output $1, one
# "name value" line each, in the order the run reports them.
values() {
    tail -n 1 "$1" | awk '{
        s = $0
        while (match(s, /"[^"]+": \{"value": [^,}]+/)) {
            m = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
            name = m; sub(/^"/, "", name); sub(/".*/, "", name)
            v = m; sub(/.*"value": /, "", v)
            print name, v
        }
    }'
}

# An end-to-end run (tree $1, workload $2, seed $3): prints the end-to-end
# metrics as "name value", then the exit code.
bench() {
    status=0
    run "$1" "$2" "$3" 0 "$out/last.txt" || status=$?
    values "$out/last.txt" >"$out/last.values"
    echo "$metrics" | while read -r name _; do
        awk -v n="$name" '$1 == n { print $1, $2 }' "$out/last.values"
    done
    echo "exit $status"
}

echo "building $rev and the work tree ..." >&2
for tree in "$parent" .; do
    (cd "$tree" && cargo build --release --offline -q \
        --manifest-path crates/bench/src/bin/perf/Cargo.toml)
done

for w in "$@"; do
    k=1
    while [ "$k" -le "$pairs" ]; do
        seed=$((seed0 + k - 1))
        if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            if [ "$side" = parent ]; then tree=$parent; else tree=.; fi
            echo "$w pair $k/$pairs seed $seed: $side" >&2
            res=$(bench "$tree" "$w" "$seed")
            code=$(echo "$res" | awk '$1 == "exit" { print $2 }')
            echo "$res" | awk -v w="$w" -v k="$k" -v s="$seed" -v side="$side" \
                -v first="${order%% *}" -v code="$code" -v OFS='\t' \
                '$1 != "exit" { print w, k, s, side, first, code, $1, $2 }' >>"$runs"
        done
        k=$((k + 1))
    done
done

echo
echo "parent $rev vs work tree, $pairs pairs a workload (seeds $seed0..$((seed0 + pairs - 1))), ${seconds} s runs"
echo "$metrics" | awk -v OFS='\t' -v ledger=BENCH_ledger.jsonl -v parent="$rev" -v change="$head" -v seed0="$seed0" '
    # Linear-interpolated quantile of v[1..n], sorted ascending.
    function q(v, n, p,    h, lo) {
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function sorted(src, w, m, side, dst,    n, i, j, t) {
        n = 0
        for (i = 1; i <= npairs[w]; i++)
            if ((w, i, side, m) in src) dst[++n] = src[w, i, side, m]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
        return n
    }
    function ledger_row(commit, w, m, v, n) {
        printf "{\"commit\": \"%s\", \"workload\": \"%s\", \"metric\": \"%s\", \"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g, \"pairs\": %d, \"first_seed\": %d}\n", \
            commit, w, m, q(v, n, .5), q(v, n, .25), q(v, n, .75), n, seed0 >>ledger
    }
    NR == FNR { better[$1] = $2; order[++nm] = $1; next }
    FNR == 1 { next }
    {
        if (!($1 in npairs)) ws[++nw] = $1
        if ($2 > npairs[$1]) npairs[$1] = $2
        val[$1, $2, $4, $7] = $8
        if ($6 != 0) failed[$1, $4]++
    }
    END {
        printf "%-9s %-18s %32s %32s %7s %11s  %s\n", "workload", "metric", \
            "parent p25 / p50 / p75", "change p25 / p50 / p75", "diff", "won c/p/tie", "medians apart by > parent IQR"
        for (a = 1; a <= nw; a++) {
            w = ws[a]
            for (b = 1; b <= nm; b++) {
                m = order[b]
                np = sorted(val, w, m, "parent", P); nc = sorted(val, w, m, "change", C)
                if (!np || !nc) { printf "%-9s %-18s no samples\n", w, m; continue }
                ledger_row(parent, w, m, P, np); ledger_row(change, w, m, C, nc)
                cw = pw = tie = 0
                for (i = 1; i <= npairs[w]; i++) {
                    if (!((w, i, "parent", m) in val) || !((w, i, "change", m) in val)) continue
                    d = val[w, i, "change", m] - val[w, i, "parent", m]
                    if (better[m] == "lower") d = -d
                    if (d > 0) cw++; else if (d < 0) pw++; else tie++
                }
                pm = q(P, np, .5); cm = q(C, nc, .5); iqr = q(P, np, .75) - q(P, np, .25)
                gap = cm - pm; if (better[m] == "lower") gap = -gap
                verdict = gap > iqr ? "yes, change better" : (-gap > iqr ? "yes, CHANGE WORSE" : "no")
                printf "%-9s %-18s %32s %32s %+6.1f%% %11s  %s\n", w, m, \
                    sprintf("%.6g / %.6g / %.6g", q(P, np, .25), pm, q(P, np, .75)), \
                    sprintf("%.6g / %.6g / %.6g", q(C, nc, .25), cm, q(C, nc, .75)), \
                    pm ? 100 * (cm - pm) / pm : 0, cw "/" pw "/" tie, verdict
            }
            if (failed[w, "parent"] + failed[w, "change"])
                printf "%-9s runs that exited non-zero: parent %d, change %d\n", w, failed[w, "parent"], failed[w, "change"]
        }
    }' - "$runs"
echo "every run: $runs; medians and quartiles appended to BENCH_ledger.jsonl"

tseed=$((seed0 + pairs))
n=0
for w in "$@"; do
    n=$((n + 1))
    if [ $((n % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then tree=$parent; else tree=.; fi
        echo "$w traced, seed $tseed: $side" >&2
        run "$tree" "$w" "$tseed" 1 "$out/traced-$w-$side.txt" ||
            echo "$w: the traced run of the $side exited $?"
    done
done

echo
echo "per-layer rows, one traced run a side (seed $tseed); * = more than 5 % apart"
for w in "$@"; do
    values "$out/traced-$w-parent.txt" >"$out/traced-$w-parent.values"
    values "$out/traced-$w-change.txt" >"$out/traced-$w-change.values"
    block per_layer | field name | awk -v w="$w" '
        FILENAME == "-" { order[++n] = $1; next }
        { v[FILENAME == ARGV[2] ? "p" : "c", $1] = $2 }
        END {
            printf "%-9s %-46s %14s %14s %8s\n", w, "per-layer metric", "parent", "change", "ratio"
            for (i = 1; i <= n; i++) {
                m = order[i]
                if (!(("p", m) in v) || !(("c", m) in v)) continue
                p = v["p", m]; c = v["c", m]
                ratio = p != 0 ? sprintf("%.3f", c / p) : (c != 0 ? "inf" : "1.000")
                apart = p != 0 ? (c / p > 1.05 || c / p < 0.95) : c != 0
                printf "%-9s %-46s %14.6g %14.6g %8s%s\n", w, m, p, c, ratio, apart ? " *" : ""
            }
        }' - "$out/traced-$w-parent.values" "$out/traced-$w-change.values"
done

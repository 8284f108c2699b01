# Developer workflow. Run `just check` before sending a change.
#
# Every recipe is a name for one step of scripts/check.sh, where the
# commands (and what each gate enforces) live.

# Everything CI's check step runs, in order.
check:
    ./scripts/check.sh

# Formatting gate (no writes).
fmt:
    ./scripts/check.sh fmt

# Lint gate: warnings fatal.
clippy:
    ./scripts/check.sh clippy

# Doc gate: rustdoc warnings fatal.
doc:
    ./scripts/check.sh doc

# The full test suite.
test:
    ./scripts/check.sh test

# The full test suite in release mode (overflow wraps, debug assertions off).
test-release:
    ./scripts/check.sh test-release

# Effect-analysis lint over all six apps.
analyze:
    ./scripts/check.sh analyze

# Shard-plan gate: derive, sanitize, witness-check, byte-identical re-derive.
shards:
    ./scripts/check.sh shards

# Effect-witness soundness, all three layers (effects and shard plans).
sanitize:
    ./scripts/check.sh sanitize

# Model-checker smoke: small bounded exploration of every scenario.
mc-smoke:
    ./scripts/check.sh mc-smoke

# Causal cluster report over a short traced fig5.
obs:
    ./scripts/check.sh obs

# The CI model-checking gate: full budget, validated matrix, gated.
mc:
    ./scripts/check.sh mc

# Benchmark smoke: the BENCHMARK.json command with --check (about 25 s).
perf-check:
    ./scripts/check.sh perf

# Every microbench row once: its setup and assertions, untimed.
microbench:
    ./scripts/check.sh microbench

# Parent-against-change benchmark pairs, every workload, then one traced run a side for the per-layer rows (about 40 min; reports only).
perf-pairs:
    ./scripts/check.sh perf-pairs

# Figure, analysis, obs, replay, mc-exploration, `mc --list` and hidden-row (sneaky, miskeyed) artifacts byte-identical to revision `rev` (release builds of both sides).
artifacts rev:
    ./scripts/check.sh artifacts {{rev}}

# Non-test Rust lines per crate, and the change in them and in test lines since the base commit.
loc:
    ./scripts/check.sh loc

# Tier-1 smoke: what the release gate runs.
tier1:
    ./scripts/check.sh tier1

# Run every figure binary EXPERIMENTS.md lists (fig5-7, failure recovery, A1-A3, scalability, spec table); gate both flush modes (A1) and the spec table (no refutation).
figures:
    ./scripts/check.sh figures

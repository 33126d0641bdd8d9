#!/bin/sh
# Local CI gate: formatting, lints, and the tier-1 suite — all offline.
#
#   ./ci.sh          # everything
#   SKIP_LINT=1 ./ci.sh   # tier-1 only (e.g. when clippy is not installed)
#
# The workspace has no external dependencies, so every step runs with
# --offline against an empty registry.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

if [ -z "${SKIP_LINT:-}" ]; then
    echo "== cargo clippy (workspace, warnings are errors)"
    cargo clippy --workspace --all-targets --offline -- -D warnings
    echo "== cargo clippy (bridge, unwrap/expect audit — advisory)"
    # The detour must never panic past the router's catch_unwind boundary;
    # keep new unwrap()/expect() in the bridge visible in review. Warnings
    # only: the remaining sites are documented invariants.
    cargo clippy -p taurus-bridge --offline -- -A warnings \
        -W clippy::unwrap_used -W clippy::expect_used
fi

echo "== tier-1: release build"
cargo build --release --offline

echo "== tier-1: test suite"
cargo test -q --workspace --offline

echo "== plan cache: compile-once serve-many gate"
# Fully offline and deterministic (fixed statement mix, fixed catalog).
# Fails if the repeated-statement path re-enters memo exploration, if the
# hit rate drops below 95%, or if serving a cached plan stops being an
# order of magnitude cheaper than compiling.
SCALE=0.05 cargo run --release --offline -p taurus-bench --bin harness plancache

echo "== parallel: morsel-driven speedup gate"
# Machine-independent (critical-path work, not wall-clock): fails if the
# median speedup at dop=4 over serial drops below 2x on the scan/join/agg
# microbench templates, if any template's rows diverge from serial, or if
# an expected exchange was not placed.
SCALE=0.05 cargo run --release --offline -p taurus-bench --bin harness parallel

echo "== vectorized: columnar batch engine gate"
# Wall-clock, but with wide headroom: each template's plan is compiled
# once and executed VECTORIZED_BUDGET times per engine, medians compared.
# Fails if the median serial-batch speedup on the scan/filter/agg
# templates drops below 2x (measured 3x+ at this scale), or if either
# batch variant (dop 1 or dop 4) returns bytes that differ from the
# serial row engine. Raise VECTORIZED_BUDGET for steadier medians.
SCALE=0.1 VECTORIZED_BUDGET="${VECTORIZED_BUDGET:-9}" \
    cargo run --release --offline -p taurus-bench --bin harness vectorized

echo "== observe: EXPLAIN ANALYZE q-error gate"
# Runs every TPC-H and TPC-DS template under EXPLAIN ANALYZE. Fails if
# instrumentation changes any result (serial or dop=4), or if the worst
# per-operator q-error crosses the ceiling — a cardinality-estimation
# regression anywhere in the stack trips this before it ships.
SCALE=0.05 cargo run --release --offline -p taurus-bench --bin harness observe

echo "== orders: interesting-order enforcer-elimination gate"
# Every TPC-H and TPC-DS template, order optimization off vs on. Fails if
# the optimized plans are not byte-identical to the always-enforce plans
# at dop 1/4/8, if any template gains a Sort node, if the memo's ordered
# alternatives push plans_costed past 1.5x the order-blind search, or if
# the optimization fails to eliminate any Sort enforcer at all.
SCALE=0.05 cargo run --release --offline -p taurus-bench --bin harness orders

echo "== feedback: re-optimization convergence gate"
# Compiles every TPC-H and TPC-DS template three times through the plan
# cache. Any template whose observed worst q-error crossed the threshold
# must re-optimize on its second compile and converge (worst q-error at
# or below the ceiling), return identical rows, and serve the third
# compile as a plain hit; templates under the threshold must never
# re-optimize. Fails if a bad actor survives or the loop misfires.
SCALE=0.05 cargo run --release --offline -p taurus-bench --bin harness feedback

echo "== fuzz: differential correctness gate"
# Seeded, fully deterministic random-query sweep over TPC-H, TPC-DS, and
# the adversarial schema, checked by nine oracles (native-vs-orca,
# serial-vs-parallel, fresh-vs-rebound, TLP partitioning, cancel-recover,
# feedback re-optimization, concurrent-sessions, row-vs-batch, orders).
# Any miscompare fails the gate and prints the delta-debugged minimal
# repro SQL. Raise FUZZ_BUDGET (queries per seed) for a deeper local sweep.
SCALE=0.05 FUZZ_BUDGET="${FUZZ_BUDGET:-150}" \
    cargo run --release --offline -p taurus-bench --bin harness fuzz --seed-range 0..4

echo "== governance: query-governor chaos gate"
# Randomized cancel points, wall-clock deadlines, and memory budgets
# injected across every TPC-H and TPC-DS template. Fails on any panic, on
# tracked peak memory exceeding a configured budget, or if the engine
# stops answering correctly right after a governed failure. Raise
# GOVERNANCE_BUDGET (disturbed executions) for a deeper local sweep.
SCALE=0.05 GOVERNANCE_BUDGET="${GOVERNANCE_BUDGET:-200}" \
    cargo run --release --offline -p taurus-bench --bin harness governance

echo "== concurrency: multi-session server scaling gate"
# Closed-loop bench through real sockets: 8 clients vs 1 over a mixed
# TPC-H/TPC-DS statement mix against the taurus-server front end. Fails
# if aggregate QPS at 8 clients is under 2x the single-client rate (a
# global engine lock trips this), or if any response diverges
# byte-for-byte from the single-session reference serves. Raise
# CONCURRENCY_BUDGET (loaded-level statements, split across 8 clients)
# for a longer local soak.
SCALE=0.05 CONCURRENCY_BUDGET="${CONCURRENCY_BUDGET:-320}" \
    cargo run --release --offline -p taurus-bench --bin harness concurrency

echo "== perf: the frozen benchmark still builds and answers correctly"
# perf/ is a package of its own whose per-layer replica compiles against
# product internals (Engine entry points, PlannedBranch, the wire codec).
# Its unit tests and `smoke` (one short pass per workload, correctness
# only, ~3 s) fail here if a product refactor breaks the replica's build
# or changes an answer. Timings are not gated: see perf/README.md.
cargo test --offline --manifest-path perf/Cargo.toml
cargo run --release --offline --manifest-path perf/Cargo.toml -- smoke

echo "CI OK"

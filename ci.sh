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
# perf/ is a workspace of its own, which `--all` does not reach.
cargo fmt --manifest-path perf/Cargo.toml -- --check

if [ -z "${SKIP_LINT:-}" ]; then
    echo "== cargo clippy (workspace, warnings are errors)"
    cargo clippy --workspace --all-targets --offline -- -D warnings
    cargo clippy --offline --manifest-path perf/Cargo.toml --all-targets -- -D warnings
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

echo "== harness gates: every CI gate in the experiment registry"
# One process runs every row of crates/bench/src/registry.rs that carries CI
# settings, each at its registered scale, budget and seeds, prints one
# verdict line per gate and exits 1 if any failed. What each gate fails on
# is documented on its registry row; `harness list` prints the table.
# BUDGET=N multiplies every gate's budget for a deeper local sweep.
cargo run --release --offline -p taurus-bench --bin harness gates

echo "== perf: the frozen benchmark still builds and answers correctly"
# perf/ is a package of its own whose per-layer replica compiles against
# product internals (Engine entry points, PlannedBranch, the wire codec).
# Its unit tests and `smoke` (one short pass per workload, correctness
# only, ~3 s) fail here if a product refactor breaks the replica's build
# or changes an answer. Timings are not gated: see perf/README.md.
cargo test --offline --manifest-path perf/Cargo.toml
cargo run --release --offline --manifest-path perf/Cargo.toml -- smoke

echo "== size: Rust lines per crate (reported, not gated)"
# The measure every "net-negative" claim in CHANGES.md uses: all .rs lines
# under the crate, and of those the non-test ones — src/ files up to their
# first #[cfg(test)] item. A #[cfg(test)] that only declares an out-of-line
# module (`mod tests;`) is product and does not end its file's count; the
# module file it declares, and anything under that module's directory, is
# test. `total` covers crates/; the root tier-1 tests/ and the examples/ get
# a row each, and `all` adds them to it.
test_mod_decls='FNR == 1 { c = 0 }
/#\[cfg\(test\)\]/ { c = FNR }
/(^|[[:space:]])mod [A-Za-z0-9_]+;[[:space:]]*$/ && c && FNR - c <= 1 {
    name = $0; sub(/.*mod /, "", name); sub(/;.*/, "", name)
    dir = FILENAME
    if (dir ~ /\/(mod|lib|main)\.rs$/) sub(/\/[^\/]*$/, "", dir); else sub(/\.rs$/, "", dir)
    print dir "/" name ".rs"; print dir "/" name "/"
}'
TEST_MODS=$(find crates/*/src -name '*.rs' -exec awk "$test_mod_decls" {} +)
export TEST_MODS
non_test='BEGIN { k = split(ENVIRON["TEST_MODS"], mods, "\n") }
FNR == 1 {
    t = 0; held = 0
    for (i = 1; i <= k; i++)
        if (FILENAME == mods[i] || (mods[i] ~ /\/$/ && index(FILENAME, mods[i]) == 1)) t = 1
}
t { next }
held { held = 0; if ($0 ~ /^[[:space:]]*(pub )?mod [A-Za-z0-9_]+;/) { n += 2; next } t = 1; next }
/#\[cfg\(test\)\]/ { if ($0 ~ /mod [A-Za-z0-9_]+;/) n++; else held = 1; next }
{ n++ }
END { print n + 0 }'
printf '%-12s %7s %9s\n' crate lines non-test
for c in crates/*; do
    printf '%-12s %7s %9s\n' "${c#crates/}" \
        "$(find "$c" -name '*.rs' -exec cat {} + | wc -l)" \
        "$(find "$c/src" -name '*.rs' -exec awk "$non_test" {} +)"
done
printf '%-12s %7s %9s\n' total \
    "$(find crates -name '*.rs' -exec cat {} + | wc -l)" \
    "$(find crates/*/src -name '*.rs' -exec awk "$non_test" {} +)"
for d in tests examples; do
    printf '%-12s %7s %9s\n' "$d/" "$(find "$d" -name '*.rs' -exec cat {} + | wc -l)" -
done
printf '%-12s %7s %9s\n' all "$(find crates tests examples -name '*.rs' -exec cat {} + | wc -l)" -

echo "CI OK"

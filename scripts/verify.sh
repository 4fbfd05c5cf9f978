#!/usr/bin/env bash
# The whole gate: tier-1, lints, docs, one bench run, the model-check
# claims, and a build of benchmark/.
#
# Tier-1 (ROADMAP.md): release build + quiet test suite. The root
# manifest's `default-members` make `cargo test -q` run every crate's
# tests, not only the root package's; among them the allocation budgets
# (tests/request_alloc_budget.rs), shard- and batch-invariant client
# histories (tests/batching.rs), the chaos auditor
# (tests/chaos_tests.rs) and the paper's headline shapes: every figure of
# hm_bench::paper at 5 % duration (crates/bench/tests/paper_claims.rs).
# Lints: clippy across all targets with warnings denied.
# Docs: rustdoc across the workspace with warnings denied (hm-sharedlog
# and hm-core additionally deny missing_docs at the crate level).
# Bench: one full-scale bench_sim_core run with --trace-out. The binary
# asserts each component's shape claims, prints the latency waterfall, and
# checks the trace (fingerprint equal to the untraced twin's, spans on
# every node lane). Then:
# - fingerprint drift: each component's fingerprint, polls and
#   peak_timers must match the committed BENCH_sim_core.json exactly
#   (wall times are expected to drift; simulated work is not);
# - core scaling: 4 workers ≥2x faster than one on a host with ≥4 cores,
#   ≥1.3x on one with 2 or 3 (the fan-out uses at most one thread per
#   core); nothing is asserted on a single core.
# Model-check smoke: the explore driver's --assert mode re-checks the
# documented §4.4 claims — fault-tolerant protocols pass every
# interleaving exhaustively, the unsafe baseline yields a replayable
# ww-1s counterexample, and sleep-set pruning removes ≥50% of naive
# interleavings on the hm-read xy-1s headline row.
# Benchmark builds: benchmark/ is a workspace of its own that no step above
# compiles, so a crate change can break it unseen. It is built from a copy
# (with the crates it depends on symlinked beside it) because an in-place
# build rewrites benchmark/Cargo.lock.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== lints: cargo clippy --all-targets -D warnings (+ hot-path clone lints) =="
cargo clippy -q --all-targets -- -D warnings \
    -D clippy::redundant_clone -D clippy::needless_pass_by_value

echo "== docs: cargo doc --no-deps -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps

echo "== bench: bench_sim_core --trace-out (full scale) =="
tmp="$(mktemp -d -t verify.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
HM_BENCH_OUT="$tmp/bench.json" \
    cargo run --release -q -p hm-bench --bin bench_sim_core -- \
    --trace-out "$tmp/trace.json" >/dev/null

echo "== fingerprint drift: bench run vs committed BENCH_sim_core.json =="
# One line per component, wall time dropped. The traced twin is left out:
# the binary already asserted its fingerprint equals the untraced run's.
components() {
    sed -n '/_traced"/d; s/^ *{"name": "\([a-z0-9_]*\)", "wall_ms": [0-9.]*, \("polls": [0-9]*, "peak_timers": [0-9]*, "fingerprint": "[0-9a-f]*"\).*/\1 \2/p' "$1"
}
if ! diff <(components BENCH_sim_core.json) <(components "$tmp/bench.json"); then
    echo "fingerprint DRIFT (simulated work changed; regenerate BENCH_sim_core.json if intended)"
    exit 1
fi
echo "fingerprint drift ok: $(components "$tmp/bench.json" | wc -l) components match the committed file"

echo "== core scaling: parallel_scaling sweep =="
awk '/"parallel_scaling": \{/ { match($0, /"cores": [0-9]+/); c = substr($0, RSTART + 9, RLENGTH - 9) + 0; match($0, /"speedup_4w": [0-9.]+/); s = substr($0, RSTART + 14, RLENGTH - 14) + 0; f = c >= 4 ? 2.0 : c >= 2 ? 1.3 : 0; printf "core scaling (%d cores): %.2fx at 4 workers, floor %.1fx\n", c, s, f; exit !(s >= f) }' "$tmp/bench.json"

echo "== model-check smoke: explore --assert (exhaustive §4.4 claims) =="
cargo run --release -q -p hm-bench --bin explore -- --assert > "$tmp/explore.txt"
grep -q "assertions hold" "$tmp/explore.txt" || {
    echo "model-check smoke FAILED: explore --assert did not confirm the claims"
    cat "$tmp/explore.txt"; exit 1; }
grep -q "VIOLATION" "$tmp/explore.txt" || {
    echo "model-check smoke FAILED: no unsafe-baseline violation surfaced"
    cat "$tmp/explore.txt"; exit 1; }
echo "model-check smoke ok: FT protocols exhaustively pass; unsafe counterexample replays"

echo "== benchmark builds: benchmark/ against these crates, from a copy =="
tar --exclude=benchmark/target --exclude=benchmark/out -cf - benchmark | tar -C "$tmp" -xf -
# The crates inherit package fields from the root manifest, so cargo must
# find it above them.
ln -s "$PWD/Cargo.toml" "$PWD/crates" "$PWD/vendor" "$tmp/"
cargo build --release --offline --quiet --manifest-path "$tmp/benchmark/Cargo.toml"
echo "benchmark builds ok"

echo "== verify OK =="

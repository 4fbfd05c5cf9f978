#!/usr/bin/env bash
# The whole gate: tier-1, lints, docs, one bench run, the model-check
# claims, a build of benchmark/ and three of its rounds with observers on.
#
# Tier-1 (ROADMAP.md): release build + quiet test suite. The root
# manifest's `default-members` make `cargo test -q` run every crate's
# tests, not only the root package's; among them the allocation budgets
# (tests/request_alloc_budget.rs), shard- and batch-invariant client
# histories (tests/batching.rs), the chaos auditor
# (tests/chaos_tests.rs) and the paper's headline shapes: every figure of
# hm_bench::paper at 5 % duration (crates/bench/tests/paper_claims.rs).
# The suite is a debug build, so it also enforces the §4 logging matrix:
# `Env` debug-asserts every op's logged steps against
# `ProtocolKind::logging_row`, in every test that runs a protocol. The
# release builds below (bench_sim_core, explore --assert, the benchmark/
# rounds) compile that assert out; a wrong table entry that changes a
# model-check footprint shows there as `model_check` fingerprint drift.
# Lints: clippy across all targets with warnings denied.
# Docs: rustdoc across the workspace with warnings denied (hm-sharedlog
# and hm-core additionally deny missing_docs at the crate level).
# Bench: one full-scale bench_sim_core run with --trace-out. The binary
# asserts each component's shape claims, prints admission_knee's latency
# waterfall (0.5x, 1x and 1.5x the worker-slot knee), and checks the trace
# (fingerprint equal to the untraced twin's, spans on every node lane).
# Then:
# - fingerprint drift: each component's fingerprint, polls and
#   peak_timers must match the committed BENCH_sim_core.json exactly
#   (wall times are expected to drift; simulated work is not), and every
#   component line of the committed file must have been compared;
# - core scaling: Figure 12 panel (a)'s cells through par_map at 2 workers
#   must be at least 0.65x the parallelism the host delivered during the
#   same run faster than at one (parallel_scaling's `speedup_2w` against
#   its `cores_delivered`, a two-thread CPU probe timed around the sweep:
#   1.3x with two free cores, ~0.65x while a shared host withholds one),
#   and the probe must read at least 1.
# Model-check smoke: the explore driver's --assert mode re-checks the
# documented §4.4 claims — fault-tolerant protocols pass every
# interleaving exhaustively, the unsafe baseline yields a replayable
# ww-1s counterexample, and sleep-set pruning removes ≥50% of naive
# interleavings on the hm-read xy-1s headline row.
# Benchmark builds: benchmark/ is a workspace of its own that no step above
# compiles or tests, so a crate change can break it unseen. It is built
# from a copy (with the crates it depends on symlinked beside it) because
# an in-place build rewrites benchmark/Cargo.lock, and its unit tests
# (round.rs, spans.rs, util.rs) run on that copy. Its end-to-end runs leave every
# observer off, so one short round each of steady_mixed, crash_recovery and
# log_storm then runs with all four observers attached (a tenth of its
# length, a quarter for crash_recovery): a non-zero exit or any failed
# output check (an `X ` line) fails the gate.
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
# A line the sed does not match is dropped on both sides and would pass
# the diff unseen: count what was compared against the committed lines.
want=$(grep '^ *{"name": ' BENCH_sim_core.json | grep -vc '_traced"')
compared=$(components BENCH_sim_core.json | wc -l)
if [ "$compared" -ne "$want" ]; then
    echo "fingerprint drift check compared $compared of the committed file's $want component lines"
    exit 1
fi
echo "fingerprint drift ok: $compared components match the committed file"

echo "== core scaling: parallel_scaling sweep =="
awk '/"parallel_scaling": \{/ { found = 1; match($0, /"cores_delivered": [0-9.]+/); d = substr($0, RSTART + 19, RLENGTH - 19) + 0; match($0, /"speedup_2w": [0-9.]+/); s = substr($0, RSTART + 14, RLENGTH - 14) + 0; f = 0.65 * d; printf "core scaling (%.2f cores delivered): %.2fx at 2 workers, floor %.2fx\n", d, s, f; exit !(d >= 1 && s >= f) } END { if (!found) exit 1 }' "$tmp/bench.json"

echo "== model-check smoke: explore --assert (exhaustive §4.4 claims) =="
cargo run --release -q -p hm-bench --bin explore -- --assert > "$tmp/explore.txt"
grep -q "assertions hold" "$tmp/explore.txt" || {
    echo "model-check smoke FAILED: explore --assert did not confirm the claims"
    cat "$tmp/explore.txt"; exit 1; }
grep -q "VIOLATION" "$tmp/explore.txt" || {
    echo "model-check smoke FAILED: no unsafe-baseline violation surfaced"
    cat "$tmp/explore.txt"; exit 1; }
echo "model-check smoke ok: FT protocols exhaustively pass; unsafe counterexample replays"

echo "== benchmark builds: benchmark/ against these crates, from a copy, and its unit tests =="
tar --exclude=benchmark/target --exclude=benchmark/out -cf - benchmark | tar -C "$tmp" -xf -
# The crates inherit package fields from the root manifest, so cargo must
# find it above them.
ln -s "$PWD/Cargo.toml" "$PWD/crates" "$PWD/vendor" "$tmp/"
cargo build --release --offline --quiet --manifest-path "$tmp/benchmark/Cargo.toml"
cargo test --release --offline -q --manifest-path "$tmp/benchmark/Cargo.toml"
echo "benchmark builds ok, its unit tests pass"

echo "== benchmark observers: one round per workload, every observer attached =="
bench="${CARGO_TARGET_DIR:-$tmp/benchmark/target}/release/hm-benchmark"
# crash_recovery runs at a quarter of its length: at a tenth its fault plan
# ends before any node crash and the round reports it as too quiet.
for run in steady_mixed:0.1 crash_recovery:0.25 log_storm:0.1; do
    w="${run%:*}"
    HM_BENCHMARK_OUT="$tmp" "$bench" round --workload "$w" --seed 20230923 \
        --observers tracer,anatomy,flightrec,metrics_driver --scale "${run#*:}" \
        > "$tmp/round_$w.txt" || { echo "observer round of $w exited non-zero"; exit 1; }
    if grep '^X ' "$tmp/round_$w.txt"; then
        echo "observer round of $w failed its output checks"
        exit 1
    fi
done
echo "benchmark observer rounds ok"

echo "== verify OK =="

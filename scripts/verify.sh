#!/usr/bin/env bash
# The whole gate: tier-1, lints, docs, one bench run, the model-check
# claims, a build of benchmark/ and three of its rounds with observers on.
#
# Tier-1 (ROADMAP.md): release build + quiet test suite. The root
# manifest's `default-members` make `cargo test -q` run every crate's
# tests, not only the root package's; among them the allocation budgets
# (tests/request_alloc_budget.rs), shard- and batch-invariant client
# histories (tests/batching.rs), the chaos campaigns (tests/chaos_tests.rs)
# and the paper's headline shapes: every figure of hm_bench::paper at 5 %
# duration (crates/bench/tests/paper_claims.rs). Every test, example and
# the model checker judge a recorded history through the one exactly-once
# oracle, `halfmoon::audit` (or `Recorder::audit` on a bare history).
# The suite is a debug build, so it also enforces the §4 logging matrix:
# `Env` debug-asserts every op's logged steps against
# `ProtocolKind::logging_row`, in every test that runs a protocol. The
# release builds below (bench_sim_core, explore --assert, the benchmark/
# rounds) compile that assert out; a wrong table entry that changes a
# model-check footprint shows there as `model_check` fingerprint drift.
# Collector soak: the `#[ignore]`d chaos test, in release. The chaos
# campaign (crashes, node crashes, a replica outage, a sequencer stall)
# with a collector every 500 ms and peers on 10 % of invocations, over 64
# seeds for each fault-tolerant protocol and a switching deployment: every
# run passes the exactly-once audit with no failed or unfinished request.
# Format: `cargo fmt --all -- --check` lists no file.
# DESIGN.md: every `DESIGN.md §N` reference in the code, tests, scripts,
# examples and the current-state docs (README, EXPERIMENTS, ROADMAP,
# DESIGN) must name an existing top-level section; CHANGES.md is history
# and keeps the numbers of its day. DESIGN.md may have at most 13
# top-level (`## `) sections: a change that adds a section removes one.
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
# - figure drift: every hm_bench::paper figure printed at 5 % duration
#   (`HM_BENCH_SCALE=0.05 cargo bench -p hm-bench --bench paper`) must
#   match tests/golden/paper_figures.txt byte for byte. Every figure is
#   seeded, so only a change to simulated behavior moves a line; the
#   fingerprints above reach only `recovery` and Figure 12 (a), and
#   paper_claims.rs asserts shapes with slack;
# - perf gate: two more untraced runs, and each component's median share
#   of its run's wall time (over the untraced components) across the
#   three runs must stay below 2x its share in the committed
#   BENCH_sim_core.json. Shares cancel host speed, so the gate holds on
#   any host; a single run or an absolute ns/poll bound would flap. Five
#   runs on a shared 2-core host read 0.49-1.27x the committed ns/poll,
#   and put each component's max/min share at 1.04-1.34x, except
#   `recovery` at 2.08x (it fans out over every core, which a shared host
#   withholds at times): its spread reaches the tolerance, so it is left
#   out by name. A component of share s trips the gate once it runs
#   2(1-s)/(1-2s)x slower: about 2x for the small ones, 6.5x for
#   admission_knee (s = 0.41);
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
# Examples: every examples/*.rs is built in release and run with no
# arguments, as README tells users to run them; a non-zero exit fails the
# gate (`cargo test` only compiles them).
# Benchmark builds: benchmark/ is a workspace of its own that no step above
# compiles or tests, so a crate change can break it unseen. It is built
# from a copy (with the crates it depends on symlinked beside it) because
# an in-place build rewrites benchmark/Cargo.lock; the build is also the
# check that hm_runtime's re-export of the auditor still serves
# benchmark/src/apps.rs. Its unit tests
# (round.rs, spans.rs, util.rs) run on that copy. Its end-to-end runs leave every
# observer off, so one short round each of steady_mixed, crash_recovery and
# log_storm then runs with all four observers attached (a tenth of its
# length, a quarter for crash_recovery): a non-zero exit or any failed
# output check (an `X ` line) fails the gate.
# Memory growth: the collector keeps each object's newest log record, so
# long-lived records land in every slab segment; the log must still hold
# memory for its live records, not for every append. One steady_mixed
# round at its full length and one at twice it (default seed) must give
# peak_rss_mb(2x) <= 1.15 * peak_rss_mb(1x).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== collector soak: cargo test --release -q --test chaos_tests -- --ignored =="
cargo test --release -q --test chaos_tests -- --ignored

echo "== format: cargo fmt --all -- --check =="
cargo fmt --all -- --check

echo "== DESIGN.md: section references and section count =="
sections=$(grep -c '^## ' DESIGN.md)
if [ "$sections" -gt 13 ]; then
    echo "DESIGN.md has $sections top-level sections, more than 13: merge one away"
    exit 1
fi
# A reference may break across a line and its comment leader.
dangling=$(grep -rlZ 'DESIGN\.md' crates tests src examples scripts \
        README.md EXPERIMENTS.md ROADMAP.md DESIGN.md |
    xargs -0 perl -0777 -ne '
        BEGIN { open my $d, "<", "DESIGN.md" or die; my $t = <$d>; $have{$1} = 1 while $t =~ /^## (\d+)\. /mg }
        while (/DESIGN\.md`?(?:\s|\/\/[\/!]?|#)*§\s?(\d+)/g) { print "$ARGV: §$1\n" unless $have{$1} }')
if [ -n "$dangling" ]; then
    echo "DESIGN.md references to sections that do not exist:"
    echo "$dangling"
    exit 1
fi
echo "DESIGN.md ok: $sections sections, every §N reference resolves"

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

echo "== figure drift: paper figures at 5 % duration vs tests/golden/paper_figures.txt =="
HM_BENCH_SCALE=0.05 cargo bench -q -p hm-bench --bench paper > "$tmp/paper_figures.txt"
if ! diff tests/golden/paper_figures.txt "$tmp/paper_figures.txt"; then
    echo "figure DRIFT: regenerate if intended and name the moved figures in CHANGES.md"
    exit 1
fi
echo "figure drift ok: $(wc -l < "$tmp/paper_figures.txt") lines match the golden file"

echo "== perf gate: component wall-time shares vs committed BENCH_sim_core.json =="
for run in 2 3; do
    HM_BENCH_OUT="$tmp/bench_$run.json" \
        cargo run --release -q -p hm-bench --bin bench_sim_core >/dev/null 2>"$tmp/bench_$run.err" ||
        { echo "bench run $run failed"; cat "$tmp/bench_$run.err"; exit 1; }
done
python3 - BENCH_sim_core.json "$tmp/bench.json" "$tmp/bench_2.json" "$tmp/bench_3.json" <<'PY'
import json, statistics, sys

TOLERANCE = 2.0
LEFT_OUT = {"recovery"}

def shares(path):
    walls = {c["name"]: c["wall_ms"] for c in json.load(open(path))["components"]
             if not c["name"].endswith("_traced")}
    total = sum(walls.values())
    return {name: wall / total for name, wall in walls.items()}

committed = shares(sys.argv[1])
runs = [shares(path) for path in sys.argv[2:]]
slow = []
for name, share in committed.items():
    median = statistics.median(run[name] for run in runs)
    verdict = "left out" if name in LEFT_OUT else "ok" if median < TOLERANCE * share else "SLOWER"
    print(f"  {name:26} share {share:.4f} committed, {median:.4f} median ({median / share:.2f}x) {verdict}")
    if verdict == "SLOWER":
        slow.append(name)
if slow:
    sys.exit(f"perf gate FAILED: {', '.join(slow)} took at least {TOLERANCE}x the committed share")
print(f"perf gate ok: every gated component under {TOLERANCE}x its committed share")
PY

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

echo "== examples: each examples/*.rs runs to a zero exit =="
cargo build --release -q --examples
for src in examples/*.rs; do
    name="$(basename "$src" .rs)"
    "${CARGO_TARGET_DIR:-target}/release/examples/$name" > "$tmp/example_$name.txt" 2>&1 || {
        echo "example $name exited non-zero"; cat "$tmp/example_$name.txt"; exit 1; }
done
echo "examples ok: $(ls examples/*.rs | wc -l) ran"

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

echo "== memory growth: steady_mixed peak RSS at twice its length =="
for scale in 1 2; do
    HM_BENCHMARK_OUT="$tmp" "$bench" round --workload steady_mixed --seed 20230923 \
        --scale "$scale" > "$tmp/growth_$scale.txt" || { echo "growth round at ${scale}x exited non-zero"; exit 1; }
    if grep '^X ' "$tmp/growth_$scale.txt"; then
        echo "growth round at ${scale}x failed its output checks"
        exit 1
    fi
done
rss() { awk '$1 == "H" && $2 == "peak_rss_mb" { print $3 }' "$tmp/growth_$1.txt"; }
awk -v one="$(rss 1)" -v two="$(rss 2)" 'BEGIN { printf "memory growth: peak_rss_mb %.2f at 1x, %.2f at 2x (%.2fx, ceiling 1.15x)\n", one, two, two / one; exit !(one > 0 && two <= 1.15 * one) }'

echo "== verify OK =="

#!/usr/bin/env bash
# Tier-1 verification plus a bench smoke run.
#
# Tier-1 (ROADMAP.md): release build + quiet test suite. The root
# manifest's `default-members` make `cargo test -q` run every crate's
# tests, not only the root package's.
# Lints: clippy across all targets with warnings denied.
# Bench smoke: runs bench_sim_core at HM_BENCH_SCALE=0.05 (~1 s budget) and
# asserts it completes and writes parseable JSON with the expected fields.
# Traced smoke: re-runs with --trace-out and validates the exported
# Chrome-trace JSON (parses, spans on every node lane, non-empty).
# Shard smoke: runs the quickstart example at 1 and 4 log shards and
# asserts the client-visible results are identical (only virtual time
# may differ).
# Batch smoke: same idea for group commit — quickstart at --batch 16 must
# produce client-visible output identical to the default (unbatched) run.
# Latency report: renders the per-phase waterfall from the full-scale bench
# output and re-asserts that phase sums reconcile with end-to-end latency.
# Fingerprint drift: the full-scale run's per-component work fingerprints
# must match the committed BENCH_sim_core.json exactly (wall times are
# expected to drift; simulated work is not).
# Docs: rustdoc across the workspace with warnings denied (hm-sharedlog
# and hm-core additionally deny missing_docs at the crate level).
# Core scaling: the full-scale run's parallel_scaling sweep must show 4
# workers ≥2x faster than one on a host with ≥4 cores and ≥1.3x on one
# with 2 or 3 (the fan-out uses at most one thread per core); nothing is
# asserted on a single core.
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

echo "== bench smoke: bench_sim_core @ HM_BENCH_SCALE=0.05 =="
out="$(mktemp -t bench_smoke.XXXXXX.json)"
trap 'rm -f "$out"' EXIT
HM_BENCH_SCALE=0.05 HM_BENCH_OUT="$out" \
    cargo run --release -q -p hm-bench --bin bench_sim_core >/dev/null

python3 - "$out" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["bench"] == "sim_core", d
assert isinstance(d["total_wall_ms"], float) and d["total_wall_ms"] > 0.0, d
assert len(d["work_fingerprint"]) == 16, d
int(d["work_fingerprint"], 16)
assert len(d["components"]) == 14, [c["name"] for c in d["components"]]
assert any(c["name"] == "recovery_cost" for c in d["components"]), d
assert any(c["name"] == "latency_anatomy" for c in d["components"]), d
assert d["schema_version"] == 6, d
assert any(c["name"] == "model_check" for c in d["components"]), d
mc = d["model_check"]["cells"]
assert len(mc) == 5, mc
assert all(cell["runs"] > 0 for cell in mc), mc
unsafe_ww = next(c for c in mc if c["protocol"] == "Unsafe" and c["config"] == "ww-1s")
assert unsafe_ww["counterexamples"] > 0, unsafe_ww
assert len(d["latency_anatomy"]["points"]) >= 3, d["latency_anatomy"]
assert any(c["name"] == "append_batching" for c in d["components"]), d
assert any(c["name"] == "hot_path_alloc" for c in d["components"]), d
assert any(c["name"] == "parallel_scaling" for c in d["components"]), d
ps = d["parallel_scaling"]
assert ps["partitions"] == 8 and ps["tenants"] == 16 and ps["cores"] >= 1, ps
for w in (1, 2, 4, 8):
    assert ps[f"workers_{w}_wall_ms"] > 0.0, ps
for c in d["components"]:
    assert c["wall_ms"] >= 0.0 and len(c["fingerprint"]) == 16, c
    # Reported wherever the component can reach its executors: all but the
    # partitioned fan-out and the model checker.
    assert isinstance(c["peak_timers"], int), c
    assert (c["peak_timers"] > 0) == (c["name"] not in ("parallel_scaling", "model_check")), c
print(f"bench smoke ok: {d['total_wall_ms']:.1f} ms, "
      f"fingerprint {d['work_fingerprint']}")
EOF

echo "== alloc-budget smoke: hot_path_alloc vs scripts/alloc_budget.json =="
# Full scale: allocation rates amortize pool warmup over the real op count,
# so the checked-in budget can sit tight (~20%) over the measured steady
# state instead of leaving smoke-scale slack a regression could hide in.
# The same file's `request_path` entries (allocations per end-to-end
# request under each Halfmoon protocol) are held by
# tests/request_alloc_budget.rs, which tier-1's `cargo test -q` above runs.
aout="$(mktemp -t bench_alloc.XXXXXX.json)"
trap 'rm -f "$out" "$aout"' EXIT
HM_BENCH_OUT="$aout" \
    cargo run --release -q -p hm-bench --bin bench_sim_core >/dev/null

python3 - "$aout" scripts/alloc_budget.json <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
budget = json.load(open(sys.argv[2]))
alloc = next(c for c in d["components"] if c["name"] == "hot_path_alloc")["alloc"]
fail = []
for phase in ("append", "replay"):
    for metric in ("allocs_per_op", "bytes_per_op"):
        got, cap = alloc[phase][metric], budget[phase][metric]
        if got > cap:
            fail.append(f"{phase}.{metric}: {got} exceeds budget {cap}")
if fail:
    sys.exit("alloc budget EXCEEDED (append path regressed?):\n  "
             + "\n  ".join(fail))
print("alloc budget ok: " + ", ".join(
    f"{p} {alloc[p]['allocs_per_op']} allocs/op, {alloc[p]['bytes_per_op']} B/op"
    for p in ("append", "replay")))
EOF

echo "== core scaling: parallel_scaling sweep on the full-scale run =="
python3 - "$aout" <<'EOF'
import json, sys
ps = json.load(open(sys.argv[1]))["parallel_scaling"]
cores = ps["cores"]
speed = ps["speedup_4w"]
walls = {w: ps[f"workers_{w}_wall_ms"] for w in (1, 2, 4, 8)}
line = ", ".join(f"{w}w {ms:.1f} ms" for w, ms in walls.items())
if cores >= 2:
    # The partitions are independent Sims, so with real cores to spread
    # over, 4 workers must cut the 1-worker wall time: in half on 4 cores,
    # by the second core's worth on 2 or 3.
    floor = 2.0 if cores >= 4 else 1.3
    assert speed >= floor, (
        f"core scaling REGRESSION: {speed:.2f}x speedup at 4 workers "
        f"on a {cores}-core host (expected >= {floor}x): {line}")
    print(f"core scaling ok ({cores} cores): {speed:.2f}x at 4 workers; {line}")
else:
    # Single-core host: every row is the sequential run; determinism
    # across worker counts is still asserted by the bench itself and by
    # tests/determinism.rs.
    print(f"core scaling recorded ({cores} core, speedup not asserted): "
          f"{speed:.2f}x at 4 workers; {line}")
EOF

echo "== latency report: scripts/latency_report on the full-scale run =="
scripts/latency_report "$aout"

echo "== fingerprint drift: full-scale run vs committed BENCH_sim_core.json =="
python3 - "$aout" BENCH_sim_core.json <<'EOF2'
import json, sys
got = json.load(open(sys.argv[1]))
want = json.load(open(sys.argv[2]))
got_fp = {c["name"]: c["fingerprint"] for c in got["components"]}
want_fp = {c["name"]: c["fingerprint"] for c in want["components"]}
drift = []
if set(got_fp) != set(want_fp):
    drift.append(f"component set changed: {sorted(set(got_fp) ^ set(want_fp))}")
for name in sorted(set(got_fp) & set(want_fp)):
    if got_fp[name] != want_fp[name]:
        drift.append(f"{name}: {want_fp[name]} -> {got_fp[name]}")
if drift:
    sys.exit("fingerprint DRIFT (simulated work changed; regenerate "
             "BENCH_sim_core.json if intended):\n  " + "\n  ".join(drift))
print(f"fingerprint drift ok: {len(got_fp)} components match the committed file")
EOF2

echo "== traced smoke: bench_sim_core --trace-out @ HM_BENCH_SCALE=0.05 =="
tout="$(mktemp -t bench_traced.XXXXXX.json)"
ttrace="$(mktemp -t trace_smoke.XXXXXX.json)"
trap 'rm -f "$out" "$aout" "$tout" "$ttrace"' EXIT
HM_BENCH_SCALE=0.05 HM_BENCH_OUT="$tout" \
    cargo run --release -q -p hm-bench --bin bench_sim_core -- \
    --trace-out "$ttrace" >/dev/null

python3 - "$tout" "$ttrace" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
names = [c["name"] for c in d["components"]]
assert len(names) == 15 and names[-1] == "synthetic_halfmoon_read_traced", names

t = json.load(open(sys.argv[2]))
ev = t["traceEvents"]
assert ev, "trace is empty"
spans = [e for e in ev if e["ph"] == "X"]
assert spans, "trace has no spans"
node_lanes = {e["tid"] for e in spans if e["tid"] < 1024}
assert node_lanes == set(range(8)), f"missing node lanes: {node_lanes}"
print(f"traced smoke ok: {len(ev)} events, {len(spans)} spans, "
      f"node lanes {sorted(node_lanes)}")
EOF

echo "== shard smoke: quickstart @ --shards 1 vs --shards 4 =="
s1="$(mktemp -t quickstart_s1.XXXXXX.txt)"
s4="$(mktemp -t quickstart_s4.XXXXXX.txt)"
trap 'rm -f "$out" "$aout" "$tout" "$ttrace" "$s1" "$s4"' EXIT
cargo run --release -q --example quickstart -- --shards 1 > "$s1"
cargo run --release -q --example quickstart -- --shards 4 > "$s4"
# Client-visible results must match at any shard count; only the
# latency (virtual time) line may differ.
if ! diff <(grep -v '^virtual time' "$s1") <(grep -v '^virtual time' "$s4"); then
    echo "shard smoke FAILED: quickstart output differs between 1 and 4 shards"
    exit 1
fi
echo "shard smoke ok: client-visible results identical at 1 and 4 shards"

echo "== batch smoke: quickstart @ default vs --batch 16 =="
b16="$(mktemp -t quickstart_b16.XXXXXX.txt)"
trap 'rm -f "$out" "$aout" "$tout" "$ttrace" "$s1" "$s4" "$b16"' EXIT
cargo run --release -q --example quickstart -- --batch 16 > "$b16"
# Group commit must never change results, only timing: the sequential
# quickstart flushes every batch with a single record, so everything but
# the virtual-time line matches the default run exactly.
if ! diff <(grep -v '^virtual time' "$s1") <(grep -v '^virtual time' "$b16"); then
    echo "batch smoke FAILED: quickstart output differs between batch 1 and 16"
    exit 1
fi
echo "batch smoke ok: client-visible results identical at batch 1 and 16"

echo "== chaos smoke: chaos_campaign example =="
chaos_out="$(mktemp -t chaos_smoke.XXXXXX.txt)"
trap 'rm -f "$out" "$aout" "$tout" "$ttrace" "$s1" "$s4" "$b16" "$chaos_out"' EXIT
cargo run --release -q --example chaos_campaign > "$chaos_out"
grep -q "audit PASSED" "$chaos_out" || {
    echo "chaos smoke FAILED: auditor did not pass"; cat "$chaos_out"; exit 1; }
injected="$(sed -n 's/^faults injected: *//p' "$chaos_out")"
if [ -z "$injected" ] || [ "$injected" -eq 0 ]; then
    echo "chaos smoke FAILED: no faults injected"; cat "$chaos_out"; exit 1
fi
echo "chaos smoke ok: $injected faults injected, auditor passed"

echo "== model-check smoke: explore --assert (exhaustive §4.4 claims) =="
mc_out="$(mktemp -t explore_assert.XXXXXX.txt)"
trap 'rm -f "$out" "$aout" "$tout" "$ttrace" "$s1" "$s4" "$b16" "$chaos_out" "$mc_out"' EXIT
cargo run --release -q -p hm-bench --bin explore -- --assert > "$mc_out"
grep -q "assertions hold" "$mc_out" || {
    echo "model-check smoke FAILED: explore --assert did not confirm the claims"
    cat "$mc_out"; exit 1; }
grep -q "VIOLATION" "$mc_out" || {
    echo "model-check smoke FAILED: no unsafe-baseline violation surfaced"
    cat "$mc_out"; exit 1; }
echo "model-check smoke ok: FT protocols exhaustively pass; unsafe counterexample replays"

echo "== benchmark builds: benchmark/ against these crates, from a copy =="
bb="$(mktemp -d -t benchmark_builds.XXXXXX)"
trap 'rm -rf "$out" "$aout" "$tout" "$ttrace" "$s1" "$s4" "$b16" "$chaos_out" "$mc_out" "$bb"' EXIT
tar --exclude=benchmark/target --exclude=benchmark/out -cf - benchmark | tar -C "$bb" -xf -
# The crates inherit package fields from the root manifest, so cargo must
# find it above them.
ln -s "$PWD/Cargo.toml" "$PWD/crates" "$PWD/vendor" "$bb/"
cargo build --release --offline --quiet --manifest-path "$bb/benchmark/Cargo.toml"
echo "benchmark builds ok"

echo "== verify OK =="

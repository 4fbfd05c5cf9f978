#!/usr/bin/env bash
# Parent/change pairs on the repo benchmark: the protocol a host-time claim
# is judged by (ROADMAP item 8, the choosing-metrics guide §8).
#
#   scripts/pairs.sh <parent-ref> <workload> [pairs (default 10)] [seed (default 20230923)]
#
# Builds <parent-ref> from a `git archive` of it and the change from this
# checkout, both in one temporary directory (set TMPDIR to move it), then
# runs `benchmark/run.sh --workload <workload> --seed <seed> --seconds
# <BENCHMARK.json's run_seconds> --trace 0` on the two alternately, the
# order flipped each pair. Prints every pair, and per host metric each
# side's median and quartiles and the change's win count (every host
# metric is lower-better; ties count for neither), flagged UNRESOLVED when
# the parent's own spread (its IQR) exceeds the metric's BENCHMARK.json
# bound times its median, unless every change run beats every parent run:
# such a median delta is neither a gain nor a regression. Then every
# virtual and count metric that is not identical across all runs of both
# sides: one that moved between the sides with its parent and change
# values, one that disagrees among one side's own runs (nondeterminism)
# with that side's values. Exits non-zero if any metric was not identical
# or a run's output check failed.
#
# The change side is a copy of benchmark/ with the crates symlinked beside
# it, so uncommitted edits are measured and benchmark/Cargo.lock, which an
# in-place build rewrites, is left alone.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 2 ] || { sed -n '2,6p' "$0"; exit 2; }
ref="$1" workload="$2" pairs="${3:-10}" seed="${4:-20230923}"

tmp="$(mktemp -d -t pairs.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/change"
git archive "$ref" | tar -C "$tmp/parent" -xf -
tar --exclude=benchmark/target --exclude=benchmark/out -cf - benchmark | tar -C "$tmp/change" -xf -
ln -s "$PWD/Cargo.toml" "$PWD/crates" "$PWD/vendor" "$tmp/change/"
for side in parent change; do
    cargo build --release --offline --quiet --manifest-path "$tmp/$side/benchmark/Cargo.toml"
done

python3 - "$tmp" "$workload" "$pairs" "$seed" "$ref" <<'PY'
import json, statistics, subprocess, sys

tmp, workload, pairs, seed, ref = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]
spec = json.load(open("BENCHMARK.json"))
seconds = str(spec["run_seconds"])
host = ["host_us_per_op", "setup_s", "peak_rss_mb", "allocs_per_op"]
bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
runs = {"parent": [], "change": []}

def run(side):
    out = subprocess.run(
        [f"{tmp}/{side}/benchmark/run.sh", "--workload", workload, "--seed", seed,
         "--seconds", seconds, "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"], out
    runs[side].append({"failed": result["failed"],
                       **{k: m["value"] for k, m in result["metrics"].items()}})
    return runs[side][-1]

print(f"== {workload}: {pairs} pairs, parent {ref} vs this checkout, seed {seed}, {seconds} s each")
wins = {name: 0 for name in host}
losses = {name: 0 for name in host}
for i in range(pairs):
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    got = {side: run(side) for side in order}
    for name in host:
        wins[name] += got["change"][name] < got["parent"][name]
        losses[name] += got["change"][name] > got["parent"][name]
    print(f"  pair {i + 1:2d} ({order[0]} first): host_us_per_op "
          f"parent {got['parent']['host_us_per_op']:.4f}  "
          f"change {got['change']['host_us_per_op']:.4f}", flush=True)

def summary(side, name):
    v = [r[name] for r in runs[side]]
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return statistics.median(v), q[0], q[2]

for name in host:
    (p, p1, p3), (c, c1, c3) = summary("parent", name), summary("change", name)
    apart = max(r[name] for r in runs["change"]) < min(r[name] for r in runs["parent"])
    unresolved = p3 - p1 > bound[name] * p and not apart
    print(f"  {name:16s} parent {p:.4f} [{p1:.4f} {p3:.4f}]  change {c:.4f} [{c1:.4f} {c3:.4f}]  "
          f"{(c - p) / p:+.2%} of parent, parent IQR {p3 - p1:.4f}, "
          f"change ahead in {wins[name]} of {pairs} pairs ({losses[name]} behind)"
          + (f"  UNRESOLVED: parent IQR > {bound[name]:.0%} bound x median" if unresolved else ""))
def seen(side, name):
    return sorted({r[name] for r in runs[side]})

exact = sorted(name for name in runs["parent"][0] if name not in host)
unsteady = [(side, name) for name in exact for side in runs if len(seen(side, name)) > 1]
moved = [name for name in exact if name not in {n for _, n in unsteady}
         and seen("parent", name) != seen("change", name)]
for side, name in unsteady:
    print(f"  NONDETERMINISTIC {name}: the {side}'s runs read {seen(side, name)}")
for name in moved:
    (p,), (c,) = seen("parent", name), seen("change", name)
    change = f" ({(c - p) / p:+.2%})" if p else ""
    print(f"  MOVED {name}: parent {p:.6f} -> change {c:.6f}{change}")
if not unsteady and not moved:
    print("  virtual and count metrics: identical on every run of both sides")
sys.exit(1 if unsteady or moved else 0)
PY

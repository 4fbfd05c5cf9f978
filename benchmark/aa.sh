#!/usr/bin/env bash
# A/A check: two sets of alternating runs of the same build, per workload.
# Prints each end-to-end metric's median and quartiles per set and the
# set-to-set difference of the medians against the metric's bound in
# BENCHMARK.json. Virtual and count metrics must be identical (same seed).
#
#   benchmark/aa.sh [runs-per-set (default 5)] [seed (default 20230923)]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-5}"
seed="${2:-20230923}"
exec python3 - "$here" "$runs" "$seed" <<'PY'
import json, statistics, subprocess, sys

here, runs, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3]
spec = json.load(open(f"{here}/../BENCHMARK.json"))
seconds = str(spec["run_seconds"])
host = {"setup_s", "host_us_per_op", "peak_rss_mb", "allocs_per_op"}
bad = 0
for workload in (w["name"] for w in spec["workloads"]):
    sets = ({}, {})
    for i in range(2 * runs):  # A B A B ...
        out = subprocess.run(
            [f"{here}/run.sh", "--workload", workload, "--seed", seed,
             "--seconds", seconds, "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"], out
        for name, m in result["metrics"].items():
            sets[i % 2].setdefault(name, []).append(m["value"])
    print(f"== {workload}: two sets of {runs} runs, seed {seed}, {seconds} s each")
    for m in spec["end_to_end"]:
        a, b = sets[0][m["name"]], sets[1][m["name"]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        qa = statistics.quantiles(a, n=4) if len(a) > 1 else [med_a] * 3
        qb = statistics.quantiles(b, n=4) if len(b) > 1 else [med_b] * 3
        diff = abs(med_b - med_a) / med_a
        if m["name"] in host:
            ok = diff <= m["bound"]
            note = f"diff {diff:7.2%} of bound {m['bound']:.0%}"
        else:
            ok = len(set(a + b)) == 1
            note = "identical" if ok else f"NOT identical: {sorted(set(a + b))}"
        bad += not ok
        print(f"  {m['name']:20s} A {med_a:12.5f} [{qa[0]:.5f} {qa[2]:.5f}]  "
              f"B {med_b:12.5f} [{qb[0]:.5f} {qb[2]:.5f}]  {note}  {'ok' if ok else 'FAIL'}")
sys.exit(1 if bad else 0)
PY

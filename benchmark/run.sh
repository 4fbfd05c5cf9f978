#!/usr/bin/env bash
# The benchmark's one command: builds the benchmark package (a package of
# its own, outside the root workspace) and hands it the arguments.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh selfcheck
#
# Workloads: steady_mixed overload_backlog crash_recovery log_storm.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export HM_BENCHMARK_OUT="${HM_BENCHMARK_OUT:-$here/out}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/hm-benchmark" "$@"

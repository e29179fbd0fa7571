#!/usr/bin/env bash
# Append the last full benchmark run to BENCH_history.jsonl. Needs bash and cargo.
#
#   bash benchmark/run.sh                          # every workload, untraced then traced
#   scripts/bench_history.sh --label "sort kernel" # print the diff, append one line per workload
#
# Reads benchmark/out/summary.json (override with --input FILE), and the
# traced spill_cache run's per-leg medians from trace_spill_cache.json
# beside it, and writes nothing under benchmark/. Each workload is
# compared with the last landed line recorded for it at the same nproc; a
# value outside that line's quartiles is marked `*`.

set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --quiet --release --offline --locked -p scriptflow-bench --bin bench_history -- "$@"

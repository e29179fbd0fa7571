#!/usr/bin/env bash
# Alternating A/B benchmark of two revisions. Needs bash, git and cargo.
#
#   scripts/ab.sh <parent-rev> <change-rev> [first-seed]
#
# Ten pairs of every workload BENCHMARK.json lists, each run as long as
# its `run_seconds`. Each revision is materialized with `git archive` into
# its own directory under target/ab/ and builds into its own
# CARGO_TARGET_DIR, so no build artifact of one tree is ever reused for
# the other. Pair i runs both sides with seed first-seed + i (first-seed
# defaults to 1; pass 11 for a held-out series on seeds 11-20); the parent
# runs first in even pairs and the change first in odd ones. Each run's
# last stdout line (the benchmark's result object) is kept in
# target/ab/<parent>-<change>-s<first-seed>/results.tsv, and the summary
# (`ab_summary`) is printed at the end and saved beside it as
# summary.txt. To measure uncommitted work, stage it and pass
# `$(git stash create)` as the change revision.

set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$PWD

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: scripts/ab.sh <parent-rev> <change-rev> [first-seed]" >&2
  exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
first_seed=${3:-1}

cargo build --quiet --release --offline --locked -p scriptflow-bench --bin ab_summary
summary=$ROOT/target/release/ab_summary
mapfile -t workloads < <("$summary" --workloads BENCHMARK.json)
seconds=$("$summary" --run-seconds BENCHMARK.json)

# One tree per revision, built before anything is timed.
tree() { echo "$ROOT/target/ab/tree-${1:0:12}"; }
for rev in "$parent" "$change"; do
  dir=$(tree "$rev")
  if [ ! -f "$dir/BENCHMARK.json" ]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$rev" | tar -x -C "$dir"
  fi
  CARGO_TARGET_DIR=$dir/.bench_build cargo build --quiet --release --offline \
    --manifest-path "$dir/benchmark/Cargo.toml"
done

out=$ROOT/target/ab/${parent:0:12}-${change:0:12}-s$first_seed
mkdir -p "$out"
results=$out/results.tsv
: >"$results"

run() { # <side> <rev> <workload> <pair>
  local dir line
  dir=$(tree "$2")
  # The ceiling keeps run.sh's provenance from naming this checkout's HEAD.
  line=$(GIT_CEILING_DIRECTORIES=$ROOT/target/ab CARGO_TARGET_DIR=$dir/.bench_build \
    bash "$dir/benchmark/run.sh" --workload "$3" \
    --seed $((first_seed + $4)) --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
  printf '%s\t%s\t%s\t%s\n' "$3" "$4" "$1" "$line" >>"$results"
  echo "[ab] $3 pair $4 $1: ${line:0:160}" >&2
}

for workload in "${workloads[@]}"; do
  for ((i = 0; i < 10; i++)); do
    if ((i % 2 == 0)); then
      run parent "$parent" "$workload" "$i"
      run change "$change" "$workload" "$i"
    else
      run change "$change" "$workload" "$i"
      run parent "$parent" "$workload" "$i"
    fi
  done
done

"$summary" BENCHMARK.json "$results" | tee "$out/summary.txt"

#!/usr/bin/env bash
# Tier-1 CI gate for the scriptflow workspace. Needs bash and cargo.
#
#   scripts/ci.sh          # build + test (wall time printed) + fault-suite repeats + benchmark API and smoke + fmt + clippy + doc + repro smokes + line counts
#
# Mirrors ROADMAP.md's tier-1 definition (release build + full test suite,
# which is the whole configuration matrix) and adds the hygiene gates.
# It measures nothing: performance numbers come from `benchmark/run.sh`.

set -euo pipefail
cd "$(dirname "$0")/.."

# Every cargo call is offline and locked: the workspace depends on
# nothing but std and itself, so a reintroduced registry dependency
# cannot resolve and a drifted Cargo.lock is an error.
CARGO_FLAGS=(--offline --locked)

echo "==> cargo build --release"
cargo build --release "${CARGO_FLAGS[@]}"

echo "==> cargo test -q (every crate, every configuration: no env-var legs)"
# The step's wall time is printed as information, not a gate: it is where
# "tier-1 wall time before and after" is read.
test_start=$SECONDS
cargo test -q "${CARGO_FLAGS[@]}"
echo "cargo test -q wall time: $((SECONDS - test_start)) s"

# On their own, without the rest of the suite's tests interleaving: the
# configuration in which the isolation study's over-quota probe used to
# race the noisy run it probes (ISSUE 22) and lose every time.
echo "==> cargo test -p scriptflow-study --lib service::tests, three times"
for _ in 1 2 3; do
    cargo test -q "${CARGO_FLAGS[@]}" -p scriptflow-study --lib service::tests
done

# A stall fails its run (`WorkflowError::Stalled`) where a false
# quiescence detection used to truncate the run silently. The fault
# suites' pool-size-2 legs, run on their own, are where such a race in
# the scheduler's detector would show.
echo "==> cargo test --test chaos_faults and --test service_chaos, three times each"
for _ in 1 2 3; do
    cargo test -q "${CARGO_FLAGS[@]}" --test chaos_faults
    cargo test -q "${CARGO_FLAGS[@]}" --test service_chaos
done

echo "==> benchmark crate tests (the API surface the frozen benchmark/ tree compiles against)"
bash benchmark/run.sh test

# Each side of the engine's layout choice against an oracle that shares
# no code with it: `stream_relational` (sealed scans, column kernels)
# checks every pooled leg's row digest against the reference interpreter
# (`LiveExecutor::thread_per_worker`, one thread walking the DAG in
# topological order); `paper_tasks` (UDF chains on row edges) compares
# live rows with the script paradigm and the simulator. `spill_cache`
# does the same for what the result cache records and replays: its cold,
# warm, edited and evicting legs check row digests and the
# published-bytes ledger against the reference interpreter. `service_mix`
# is where a sink is read while other tenants' runs share the pool: the
# interactive and the heavy runs' row digests are checked against the
# same reference. Two seconds are enough for that; the timings are
# ignored.
for workload in stream_relational paper_tasks spill_cache service_mix; do
    echo "==> benchmark smoke ($workload rows against their oracles)"
    smoke="$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    if [[ "$smoke" != *'"correct":true'* || "$smoke" != *'"failed":0,'* ]]; then
        echo "benchmark smoke failed: $smoke" >&2
        exit 1
    fi
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings

echo "==> cargo doc --no-deps -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace "${CARGO_FLAGS[@]}"

# Through cargo, not target/release/, so CARGO_TARGET_DIR is honoured.
REPRO=(cargo run --release "${CARGO_FLAGS[@]}" -p scriptflow-bench --bin repro --)

echo "==> multi-tenant isolation experiment (noisy vs quiet tenant, shared pool)"
"${REPRO[@]}" service

echo "==> bounded-memory experiment (KGE past RAM: unbounded vs tiny budget)"
"${REPRO[@]}" fig13-spill

echo "==> incremental re-execution experiment (KGE cold vs warm vs edited rerun)"
"${REPRO[@]}" edit-rerun

echo "==> cross-session edit loop (persistent cache restarts vs notebook stale-cone reruns)"
"${REPRO[@]}" edit-loop

echo "==> repro on both backends (fig12a + probe-scale task comparison)"
rm -f artifacts/trace_live_*.json
"${REPRO[@]}" fig12a --backend both
# The archive is `TraceJson::to_string_compact`, whose round-trip
# tests/observability_trace.rs pins; here only that each was written.
for task in dice wef gotta kge; do
    trace="artifacts/trace_live_${task}.json"
    if [[ ! -s "$trace" ]]; then
        echo "missing or empty live trace: $trace" >&2
        exit 1
    fi
done

echo "==> non-test lines per crate and the operator trait's size (information, not a gate)"
bash scripts/loc.sh

echo "==> CI gate passed"

#!/usr/bin/env bash
# Tier-1 CI gate for the scriptflow workspace.
#
#   scripts/ci.sh          # build + test + fmt + clippy + engine bench
#   SKIP_BENCH=1 scripts/ci.sh
#
# Mirrors ROADMAP.md's tier-1 definition (release build + full test suite)
# and adds the hygiene gates. The engine bench runs in quick mode and
# leaves BENCH_engine.json (tuples/sec per executor configuration) in the
# repo root for archiving.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark crate tests (the API surface the frozen benchmark/ tree compiles against)"
bash benchmark/run.sh test

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test --doc"
cargo test -q --doc --workspace

echo "==> chaos suite, retries disabled (seeded fingerprints must be unchanged)"
CHAOS_RETRIES=0 cargo test -q --test chaos_faults -- --test-threads=1

echo "==> chaos suite, retries enabled (retryable faults must lose zero rows)"
CHAOS_RETRIES=1 cargo test -q --test chaos_faults -- --test-threads=1

echo "==> service chaos suite, retries disabled (noisy tenant must not corrupt a neighbor)"
CHAOS_RETRIES=0 cargo test -q --test service_chaos -- --test-threads=1

echo "==> service chaos suite, retries enabled (the storm parks on the timer, neighbors drain)"
CHAOS_RETRIES=1 cargo test -q --test service_chaos -- --test-threads=1

echo "==> spill chaos suite, retries disabled (faults mid-spill must drain cleanly)"
CHAOS_RETRIES=0 cargo test -q --test spill_chaos -- --test-threads=1

echo "==> spill chaos suite, retries enabled (replay over spilled partitions is exactly-once)"
CHAOS_RETRIES=1 cargo test -q --test spill_chaos -- --test-threads=1

echo "==> cache chaos suite, retries disabled (faulted runs must never publish)"
CHAOS_RETRIES=0 cargo test -q --test cache_chaos -- --test-threads=1

echo "==> cache chaos suite, retries enabled (recovered runs withhold publication; clean runs publish)"
CHAOS_RETRIES=1 cargo test -q --test cache_chaos -- --test-threads=1

echo "==> fingerprint invalidation (spec edits invalidate; commutative rewires do not)"
cargo test -q --test fingerprint_invalidation

echo "==> backend parity, row batches (paper engine)"
SCRIPTFLOW_BATCH_MODE=row cargo test -q --test backend_parity

echo "==> backend parity, columnar batches (identical rows required)"
SCRIPTFLOW_BATCH_MODE=columnar cargo test -q --test backend_parity

echo "==> backend parity, tiny memory budget (blocking operators spill, rows unchanged)"
SCRIPTFLOW_MEM_BUDGET=1024 cargo test -q --test backend_parity

echo "==> backend parity, result cache armed (fingerprinted memoization, rows unchanged)"
SCRIPTFLOW_RESULT_CACHE=1 cargo test -q --test backend_parity

echo "==> cache eviction suite (byte budget is a hard ceiling; cost-aware victims)"
cargo test -q --test cache_eviction

echo "==> persistent cache: cold publish, process exit, warm from disk in a new process"
CACHE_DIR="$(mktemp -d)"
SCRIPTFLOW_CACHE_DIR="$CACHE_DIR" SCRIPTFLOW_CACHE_EXPECT=cold \
    cargo test -q --test cache_persistence -- --test-threads=1
SCRIPTFLOW_CACHE_DIR="$CACHE_DIR" SCRIPTFLOW_CACHE_EXPECT=warm \
    cargo test -q --test cache_persistence -- --test-threads=1
rm -rf "$CACHE_DIR"

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
    echo "==> engine throughput bench (quick)"
    BENCH_ENGINE_QUICK=1 cargo run --release -p scriptflow-bench --bin bench_engine
    echo "==> columnar smoke: BENCH_engine.json must carry columnar rows with batch skips"
    if command -v python3 >/dev/null 2>&1; then
        python3 - <<'PY'
import json

with open("BENCH_engine.json") as f:
    doc = json.load(f)
rows = doc["configs"]
columnar = [r for r in rows if r.get("batchLayout") == "columnar"]
assert columnar, "no columnar measurement rows in BENCH_engine.json"
skipped = sum(r.get("batchesSkipped", 0) for r in columnar)
assert skipped > 0, "columnar rows report zero skipped batches"
print(f"columnar rows: {len(columnar)}, batches skipped: {skipped}")

budgeted = [r for r in rows if r.get("memoryBudget")]
assert budgeted, "no budgeted spill_join rows in BENCH_engine.json"
spilled = sum(r.get("spilledBlocks", 0) for r in budgeted)
assert spilled > 0, "budgeted rows report zero spilled blocks"
unbounded = [r for r in rows if r["workload"] == "spill_join" and not r.get("memoryBudget")]
assert all(r.get("spilledBlocks", 0) == 0 for r in unbounded), \
    "unbounded spill_join rows must not spill"
print(f"budgeted rows: {len(budgeted)}, blocks spilled: {spilled}")

cold = [r for r in rows if r["workload"] == "edit_rerun" and r.get("leg") == "cold"]
warm = [r for r in rows if r["workload"] == "edit_rerun" and r.get("leg") == "warm"]
assert cold and warm, "no edit_rerun cold/warm legs in BENCH_engine.json"
assert all(r.get("cacheHits", -1) == 0 for r in cold), "cold legs must not hit the cache"
assert all(r.get("cachePublished", 0) > 0 for r in cold), "cold legs must publish segments"
assert all(r.get("cacheHits", 0) > 0 for r in warm), "warm legs must serve from the cache"
assert all(r.get("cachePublished", -1) == 0 for r in warm), "warm legs must republish nothing"
print(f"edit_rerun legs: cold={len(cold)}, warm={len(warm)}, "
      f"warm hits={sum(r['cacheHits'] for r in warm)}")

budg = [r for r in rows if r["workload"] == "edit_rerun" and r.get("leg") == "budgeted"]
assert budg, "no budgeted edit_rerun legs in BENCH_engine.json"
for r in budg:
    assert r.get("cacheEvictions", 0) > 0, f"budgeted leg reports zero evictions: {r}"
    assert r["cacheLiveBytes"] <= r["cacheBudget"], f"budget exceeded: {r}"
    assert r["cacheLiveBytes"] == r["cachePublished"] - r["cacheEvictedBytes"], \
        f"byte ledger does not sum (live != published - evicted): {r}"
print(f"budgeted legs: {len(budg)}, evictions={sum(r['cacheEvictions'] for r in budg)}")
PY
    else
        grep -q '"batchLayout": *"columnar"' BENCH_engine.json || {
            echo "BENCH_engine.json missing columnar rows" >&2
            exit 1
        }
    fi
    echo "==> multi-tenant service bench (quick closed loop)"
    BENCH_SERVICE_QUICK=1 cargo run --release -p scriptflow-bench --bin bench_service
    echo "==> service smoke: BENCH_engine.json must carry the latency-vs-tenant-count curve"
    if command -v python3 >/dev/null 2>&1; then
        python3 - <<'PY'
import json

with open("BENCH_engine.json") as f:
    doc = json.load(f)
assert "configs" in doc, "bench_service merge dropped the engine configs"
svc = doc["service"]
points = svc["points"]
assert len(points) >= 3, f"expected a tenant sweep, got {len(points)} points"
for p in points:
    assert p["p50_ms"] > 0 and p["p99_ms"] >= p["p50_ms"], f"bad percentiles: {p}"
    assert p["tuples_per_sec"] > 0, f"bad throughput: {p}"
    assert p["rows_match_anchor"], f"rows diverged from the solo anchor: {p}"
    assert p["rows_per_run"] == svc["anchor_rows"], f"row count mismatch: {p}"
tenants = [p["tenants"] for p in points]
print(f"service sweep tenants={tenants}, anchor rows per run: {svc['anchor_rows']}")
PY
    else
        grep -q '"service"' BENCH_engine.json || {
            echo "BENCH_engine.json missing service results" >&2
            exit 1
        }
    fi
fi

echo "==> multi-tenant isolation experiment (noisy vs quiet tenant, shared pool)"
cargo run --release -p scriptflow-bench --bin repro -- service

echo "==> bounded-memory experiment (KGE past RAM: unbounded vs tiny budget)"
cargo run --release -p scriptflow-bench --bin repro -- fig13-spill

echo "==> incremental re-execution experiment (KGE cold vs warm vs edited rerun)"
cargo run --release -p scriptflow-bench --bin repro -- edit-rerun

echo "==> cross-session edit loop (persistent cache restarts vs notebook stale-cone reruns)"
cargo run --release -p scriptflow-bench --bin repro -- edit-loop

echo "==> repro on both backends (fig12a + probe-scale task comparison)"
cargo run --release -p scriptflow-bench --bin repro -- fig12a --backend both
for task in dice wef gotta kge; do
    trace="artifacts/trace_live_${task}.json"
    if [[ ! -s "$trace" ]]; then
        echo "missing or empty live trace: $trace" >&2
        exit 1
    fi
    if command -v python3 >/dev/null 2>&1; then
        python3 -m json.tool "$trace" >/dev/null || {
            echo "live trace is not valid JSON: $trace" >&2
            exit 1
        }
    else
        grep -q '"samples"' "$trace" || {
            echo "live trace missing samples array: $trace" >&2
            exit 1
        }
    fi
done

echo "==> CI gate passed"

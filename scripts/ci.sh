#!/usr/bin/env bash
# Tier-1 CI gate for the scriptflow workspace.
#
#   scripts/ci.sh          # build + test + fmt + clippy + engine bench
#   SKIP_BENCH=1 scripts/ci.sh
#
# Mirrors ROADMAP.md's tier-1 definition (release build + full test suite,
# which is the whole configuration matrix) and adds the hygiene gates.
# The engine bench runs in quick mode and leaves BENCH_engine.json
# (tuples/sec per executor configuration) in the repo root for archiving.

set -euo pipefail
cd "$(dirname "$0")/.."

# Every cargo call is offline and locked: the workspace depends on
# nothing but std and itself, so a reintroduced registry dependency
# cannot resolve and a drifted Cargo.lock is an error.
CARGO_FLAGS=(--offline --locked)

echo "==> cargo build --release"
cargo build --release "${CARGO_FLAGS[@]}"

echo "==> cargo test -q (every crate, every configuration: no env-var legs)"
cargo test -q "${CARGO_FLAGS[@]}"

echo "==> benchmark crate tests (the API surface the frozen benchmark/ tree compiles against)"
bash benchmark/run.sh test

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings

echo "==> cargo doc --no-deps -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace "${CARGO_FLAGS[@]}"

run_bin() { cargo run --release "${CARGO_FLAGS[@]}" -p scriptflow-bench --bin "$@"; }

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
    echo "==> engine throughput bench (quick)"
    BENCH_ENGINE_QUICK=1 run_bin bench_engine
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
    BENCH_SERVICE_QUICK=1 run_bin bench_service
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
run_bin repro -- service

echo "==> bounded-memory experiment (KGE past RAM: unbounded vs tiny budget)"
run_bin repro -- fig13-spill

echo "==> incremental re-execution experiment (KGE cold vs warm vs edited rerun)"
run_bin repro -- edit-rerun

echo "==> cross-session edit loop (persistent cache restarts vs notebook stale-cone reruns)"
run_bin repro -- edit-loop

echo "==> repro on both backends (fig12a + probe-scale task comparison)"
run_bin repro -- fig12a --backend both
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

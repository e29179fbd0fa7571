//! Integration suite for the result cache's cost-aware eviction: the
//! byte budget is a hard ceiling after every publish, victim selection
//! is deterministic and prefers big-and-cheap-to-recompute entries, the
//! byte ledger always sums (`bytes == Σ published − Σ evicted`), and —
//! the part users observe — a warm rerun that lands partly on evicted
//! entries recomputes them and still produces rows byte-identical to a
//! cache-free run, on both backends.

use std::sync::Arc;

use scriptflow::core::{BackendKind, OpFingerprint};
use scriptflow::datakit::{Batch, CmpOp, DataType, Schema, SchemaRef, Tuple, Value};
use scriptflow::simcluster::SimDuration;
use scriptflow::workflow::ops::{FilterOp, ScanOp, SinkHandle, SinkOp};
use scriptflow::workflow::{
    EngineConfig, ExecBackend, PartitionStrategy, ResultCache, Workflow, WorkflowBuilder,
};

fn schema() -> SchemaRef {
    Schema::of(&[("id", DataType::Int)])
}

fn rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| Tuple::new(schema(), vec![Value::Int(i)]).unwrap())
        .collect()
}

/// Bytes one `rows(100)` entry seals to (sizes every budget below).
fn entry_bytes() -> u64 {
    let probe = ResultCache::new();
    let bytes = probe.publish(OpFingerprint(0), &schema(), &rows(100));
    assert!(bytes > 0);
    bytes
}

/// scan → keep → trim → sink; three cacheable operators so a tight
/// budget must evict some of what a cold run publishes.
fn pipeline(n: i64) -> (Workflow, SinkHandle) {
    let batch = Batch::from_rows(
        schema(),
        (0..n).map(|i| vec![Value::Int(i * 3 % 97)]).collect(),
    )
    .expect("rows conform");
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
    let keep = b.add(
        Arc::new(FilterOp::cmp("keep", "id", CmpOp::Ge, Value::Int(5))),
        2,
    );
    let trim = b.add(
        Arc::new(FilterOp::cmp("trim", "id", CmpOp::Le, Value::Int(90))),
        1,
    );
    let sink_op = SinkOp::new("sink");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);
    b.connect(scan, keep, 0, PartitionStrategy::RoundRobin);
    b.connect(keep, trim, 0, PartitionStrategy::RoundRobin);
    b.connect(trim, sink, 0, PartitionStrategy::Single);
    (b.build().expect("valid DAG"), handle)
}

fn sorted_rows(h: &SinkHandle) -> Vec<String> {
    let mut rows: Vec<String> = h.results().iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows
}

fn backend_of(kind: BackendKind, cache: &Arc<ResultCache>) -> ExecBackend {
    ExecBackend::of_kind(
        kind,
        EngineConfig::default().with_result_cache(Arc::clone(cache)),
    )
}

/// Acceptance pin: after every publish returns, `bytes()` never exceeds
/// the budget — not just eventually, but at each step of a long mixed
/// publish sequence.
#[test]
fn budget_is_a_hard_ceiling_after_every_publish() {
    let per_entry = entry_bytes();
    let budget = per_entry * 3 + per_entry / 2;
    let cache = ResultCache::new().with_byte_budget(budget);
    assert_eq!(cache.byte_budget(), Some(budget));
    for i in 0..40u64 {
        let cost = SimDuration::from_micros((i % 7) * 950);
        cache.publish_costed(OpFingerprint(u128::from(i)), &schema(), &rows(100), cost);
        assert!(
            cache.bytes() <= budget,
            "publish {i}: {} bytes exceeds budget {budget}",
            cache.bytes()
        );
    }
    assert!(cache.evictions() > 0, "a 40-entry sweep must have evicted");
    assert_eq!(cache.entries(), 3, "three whole entries fit the budget");
}

/// Identical publish sequences on identical budgets leave identical
/// caches: same surviving fingerprints, same byte and eviction ledgers.
#[test]
fn eviction_is_deterministic_across_identical_sequences() {
    let per_entry = entry_bytes();
    let run = || {
        let cache = ResultCache::new().with_byte_budget(per_entry * 4);
        for i in 0..24u64 {
            let cost = SimDuration::from_micros((i % 5) * 1_700);
            cache.publish_costed(
                OpFingerprint(u128::from(i * 31)),
                &schema(),
                &rows(100),
                cost,
            );
        }
        (
            cache.fingerprints(),
            cache.bytes(),
            cache.evictions(),
            cache.evicted_bytes(),
        )
    };
    assert_eq!(run(), run());
}

/// Victim order is cost-aware: the biggest-and-cheapest entry goes
/// first, an expensive same-sized entry survives.
#[test]
fn eviction_prefers_big_and_cheap_to_recompute() {
    let per_small = entry_bytes();
    let cache = ResultCache::new();
    let big_bytes = cache.publish(OpFingerprint(99), &schema(), &rows(400));
    assert!(big_bytes > per_small);

    let budget = big_bytes + 2 * per_small;
    let cache = ResultCache::new().with_byte_budget(budget);
    let cheap = SimDuration::from_micros(10);
    let dear = SimDuration::from_micros(5_000_000);
    // A big cheap entry, a big expensive entry would not fit together
    // with two small ones — the cheap big one is the right victim.
    cache.publish_costed(OpFingerprint(1), &schema(), &rows(400), cheap);
    cache.publish_costed(OpFingerprint(2), &schema(), &rows(100), dear);
    cache.publish_costed(OpFingerprint(3), &schema(), &rows(100), dear);
    assert_eq!(cache.evictions(), 0, "everything fits so far");
    let out = cache.publish_costed(OpFingerprint(4), &schema(), &rows(100), dear);
    assert!(out.admitted);
    assert!(out.evictions >= 1);
    assert!(
        cache.lookup(OpFingerprint(1)).is_none(),
        "big cheap entry is the first victim"
    );
    for kept in [2u128, 3, 4] {
        assert!(
            cache.lookup(OpFingerprint(kept)).is_some(),
            "expensive entry {kept} survives"
        );
    }
}

/// The byte ledger sums across an arbitrary publish/evict history.
#[test]
fn byte_ledger_sums_published_minus_evicted() {
    let per_entry = entry_bytes();
    let cache = ResultCache::new().with_byte_budget(per_entry * 2);
    let mut published = 0u64;
    for i in 0..12u64 {
        let out = cache.publish_costed(
            OpFingerprint(u128::from(i)),
            &schema(),
            &rows(100),
            SimDuration::from_micros(i * 40),
        );
        published += out.added;
    }
    assert_eq!(cache.bytes(), published - cache.evicted_bytes());
    assert!(cache.evictions() > 0);
}

/// An entry bigger than the whole budget is rejected outright rather
/// than admitted-then-evicted (which would churn the resident set).
#[test]
fn oversized_entries_are_rejected_not_admitted() {
    let per_entry = entry_bytes();
    let cache = ResultCache::new().with_byte_budget(per_entry / 2);
    let out = cache.publish_costed(
        OpFingerprint(8),
        &schema(),
        &rows(100),
        SimDuration::from_micros(1),
    );
    assert!(!out.admitted);
    assert_eq!(out.added, 0);
    assert_eq!(cache.entries(), 0);
    assert_eq!(cache.bytes(), 0);
}

/// The user-visible contract: a budget tight enough to evict most of a
/// cold run's publications still leaves warm reruns correct — partially
/// served, partially recomputed, rows byte-identical to a cache-free
/// run. Checked on both backends.
#[test]
fn warm_rerun_after_eviction_matches_cache_free_rows_on_both_backends() {
    const N: i64 = 400;
    for kind in [BackendKind::Sim, BackendKind::Live] {
        // Cache-free baseline.
        let (wf, handle) = pipeline(N);
        ExecBackend::of_kind(kind, EngineConfig::default())
            .run_detached(&wf)
            .expect("baseline runs");
        let baseline = sorted_rows(&handle);

        // Cold run against an unbounded cache sizes the budget.
        let probe = Arc::new(ResultCache::new());
        let (wf, _h) = pipeline(N);
        let cold = backend_of(kind, &probe)
            .run_detached(&wf)
            .expect("cold probe runs");
        assert!(cold.cache_published > 0);

        // A budget below the full publish forces eviction at commit.
        let budget = cold.cache_published - 1;
        let cache = Arc::new(ResultCache::new().with_byte_budget(budget));
        let (wf, _h) = pipeline(N);
        let budgeted = backend_of(kind, &cache)
            .run_detached(&wf)
            .expect("budgeted cold run");
        assert!(
            budgeted.counters().cache_evictions > 0,
            "{kind:?}: the tight budget must evict at commit"
        );
        assert!(cache.bytes() <= budget, "{kind:?}: ceiling holds");
        assert_eq!(
            cache.bytes(),
            budgeted.cache_published - cache.evicted_bytes(),
            "{kind:?}: ledger sums"
        );

        // Warm rerun: some entries survived, some must recompute —
        // and the rows cannot tell the difference.
        let (wf, handle) = pipeline(N);
        let warm = backend_of(kind, &cache)
            .run_detached(&wf)
            .expect("warm rerun");
        assert_eq!(
            sorted_rows(&handle),
            baseline,
            "{kind:?}: warm-after-eviction rows diverged"
        );
        assert!(
            warm.counters().cache_hits > 0 || warm.counters().cache_misses > 0,
            "{kind:?}: the cache was consulted"
        );
        assert!(
            cache.bytes() <= budget,
            "{kind:?}: ceiling holds after rerun"
        );
    }
}

//! Chaos suite for the result-cache publication path: seeded faults
//! landing while cache-missing operators are recording their output must
//! never let a partial segment reach the shared cache. Publication is
//! all-or-nothing — recordings commit only after a run finishes with
//! zero faults and zero retries — so a faulted run (recovered or not)
//! leaves the cache byte-for-byte untouched, and the first clean run
//! afterwards publishes sealed segments that warm reruns replay with
//! rows identical to the cache-free baseline.
//!
//! The seed sweep arms its own budgets; the last two tests pin the two
//! halves of the retry matrix for one kill mid-recording.

use std::sync::Arc;

use scriptflow::datakit::{Batch, CmpOp, DataType, Schema, Value};
use scriptflow::workflow::ops::{FilterOp, ScanOp, SinkHandle, SinkOp};
use scriptflow::workflow::{
    FaultPlan, LiveExecutor, PartitionStrategy, ResultCache, RetryConfig, RetryPolicy, Workflow,
    WorkflowBuilder,
};

const ROWS: i64 = 300;

/// scan → keep (faultable) → trim → sink, with seed-perturbed data and
/// thresholds so the 32-seed sweep exercises different row mixes. Both
/// filters are cacheable (pure, non-sink); the fault always lands on
/// `keep`, mid-recording.
fn pipeline(seed: u64) -> (Workflow, SinkHandle) {
    pipeline_trimmed_at(seed, 190 - (seed % 13) as i64)
}

/// [`pipeline`] with `trim` keeping the ids up to `trim_at`.
fn pipeline_trimmed_at(seed: u64, trim_at: i64) -> (Workflow, SinkHandle) {
    let shift = (seed % 13) as i64;
    let schema = Schema::of(&[("id", DataType::Int)]);
    let batch = Batch::from_rows(
        schema,
        (0..ROWS)
            .map(|i| vec![Value::Int((i * 7 + shift) % 211)])
            .collect(),
    )
    .expect("rows conform");
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
    let keep = b.add(
        Arc::new(FilterOp::cmp(
            "keep",
            "id",
            CmpOp::Ge,
            Value::Int(10 + shift),
        )),
        2,
    );
    let trim = b.add(
        Arc::new(FilterOp::cmp("trim", "id", CmpOp::Le, Value::Int(trim_at))),
        1,
    );
    let sink_op = SinkOp::new("sink");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);
    b.connect(scan, keep, 0, PartitionStrategy::RoundRobin);
    b.connect(keep, trim, 0, PartitionStrategy::RoundRobin);
    b.connect(trim, sink, 0, PartitionStrategy::Single);
    (
        b.build().expect("cache chaos pipeline is a valid DAG"),
        handle,
    )
}

fn sorted_rows(h: &SinkHandle) -> Vec<String> {
    let mut rows: Vec<String> = h.results().iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows
}

fn executor(cache: &Arc<ResultCache>) -> LiveExecutor {
    LiveExecutor::new(16)
        .with_pool_size(1)
        .with_result_cache(cache.clone())
}

/// Cache-free baseline row multiset for one seed.
fn baseline_rows(seed: u64) -> Vec<String> {
    let (wf, h) = pipeline(seed);
    LiveExecutor::new(16)
        .with_pool_size(1)
        .run(&wf)
        .expect("cache-free baseline succeeds");
    sorted_rows(&h)
}

/// The tentpole sweep: 32 seeds × {panic, kill} landing on `keep` while
/// it records for publication. Unrecovered faults fail the run, a
/// retry-armed rerun recovers it — and in *both* cases the cache stays
/// empty, because dirty runs never commit their recordings. Only the
/// clean run that follows publishes, and its segments serve a warm
/// rerun with rows identical to the cache-free baseline.
#[test]
fn faults_mid_recording_never_publish_partial_segments_across_32_seeds() {
    for seed in 0..32u64 {
        let clean = baseline_rows(seed);
        let at = 5 + seed % ((ROWS as u64) / 2);
        let plan = |kind: &str| match kind {
            "panic" => FaultPlan::new(seed).panic_at("keep", at),
            _ => FaultPlan::new(seed).kill_worker("keep", at),
        };
        let kind = if seed % 2 == 0 { "panic" } else { "kill" };
        let cache = Arc::new(ResultCache::new());

        // Unrecovered fault: the run fails; nothing may be published.
        let (wf, _h) = pipeline(seed);
        let (_trace, result) = executor(&cache).with_faults(plan(kind)).run_observed(&wf);
        result.expect_err("no retry budget: the fault fails the run");
        assert_eq!(
            cache.entries(),
            0,
            "seed {seed} {kind}@{at}: failed run published"
        );
        assert_eq!(
            cache.bytes(),
            0,
            "seed {seed} {kind}@{at}: failed run leaked bytes"
        );

        // Recovered fault: the run succeeds, but it was dirty — the
        // replayed quanta could have double-recorded, so publication is
        // withheld.
        let (wf, h) = pipeline(seed);
        let (_trace, result) = executor(&cache)
            .with_faults(plan(kind))
            .with_retry(RetryConfig::uniform(RetryPolicy::default()))
            .run_observed(&wf);
        let res = result.unwrap_or_else(|e| panic!("seed {seed} {kind}@{at}: {e}"));
        let stats = res.pool.expect("pooled mode reports stats");
        assert!(
            stats.faults_injected > 0,
            "seed {seed} {kind}@{at}: the fault must actually fire"
        );
        assert_eq!(
            sorted_rows(&h),
            clean,
            "seed {seed} {kind}@{at}: recovered rows"
        );
        assert_eq!(
            res.cache_published, 0,
            "seed {seed} {kind}@{at}: dirty run published"
        );
        assert_eq!(
            cache.entries(),
            0,
            "seed {seed} {kind}@{at}: dirty run leaked entries"
        );

        // First clean run publishes sealed segments...
        let (wf, h) = pipeline(seed);
        let (_trace, result) = executor(&cache).run_observed(&wf);
        let res = result.unwrap_or_else(|e| panic!("seed {seed}: clean run: {e}"));
        assert_eq!(sorted_rows(&h), clean, "seed {seed}: clean rows");
        assert!(
            res.cache_published > 0,
            "seed {seed}: clean run must publish"
        );
        assert!(cache.entries() > 0, "seed {seed}: cache populated");

        // ...and a warm rerun serves them with identical rows.
        let (wf, h) = pipeline(seed);
        let (_trace, result) = executor(&cache).run_observed(&wf);
        let res = result.unwrap_or_else(|e| panic!("seed {seed}: warm run: {e}"));
        let stats = res.pool.expect("pooled mode reports stats");
        assert!(stats.cache_hits > 0, "seed {seed}: warm rerun must hit");
        assert_eq!(
            sorted_rows(&h),
            clean,
            "seed {seed}: served rows are byte-identical"
        );
    }
}

/// Poison-safety regression: a run whose worker panics *mid-recording*
/// must leave the shared cache usable, not poisoned. Before the cache
/// recovered from [`std::sync::PoisonError`], the panicked run could
/// leave the shared `Mutex` poisoned and every later `.lock().unwrap()`
/// — lookups, publishes, even `bytes()` — cascaded the panic across
/// every run sharing the cache. Now the failed run is the only
/// casualty: the same `Arc` keeps accepting publishes and serving warm
/// reruns, and its accessors answer.
#[test]
fn panicked_recording_run_leaves_the_shared_cache_usable() {
    let seed = 23u64;
    let clean = baseline_rows(seed);
    let cache = Arc::new(ResultCache::new());

    // Several panic runs in a row — each unwinds a worker while `keep`
    // is recording for publication against the shared cache.
    for at in [10u64, 40, 80] {
        let (wf, _h) = pipeline(seed);
        let (_trace, result) = executor(&cache)
            .with_faults(FaultPlan::new(seed).panic_at("keep", at))
            .run_observed(&wf);
        result.expect_err("no retry budget: the panic fails the run");
    }

    // Every accessor still answers on the same shared value.
    assert_eq!(cache.entries(), 0);
    assert_eq!(cache.bytes(), 0);
    assert_eq!(cache.evictions(), 0);
    cache.set_byte_budget(Some(u64::MAX));
    cache.set_byte_budget(None);

    // And the cache still does its job: a clean run publishes, a warm
    // rerun is served with baseline rows.
    let (wf, h) = pipeline(seed);
    let (_trace, result) = executor(&cache).run_observed(&wf);
    let res = result.expect("clean run succeeds on the shared cache");
    assert!(
        res.cache_published > 0,
        "clean run publishes after the panics"
    );
    assert_eq!(sorted_rows(&h), clean);

    let (wf, h) = pipeline(seed);
    let (_trace, result) = executor(&cache).run_observed(&wf);
    let res = result.expect("warm run succeeds on the shared cache");
    let stats = res.pool.expect("pooled mode reports stats");
    assert!(stats.cache_hits > 0, "warm rerun served after the panics");
    assert_eq!(sorted_rows(&h), clean, "served rows are byte-identical");
}

/// An explicit `disabled()` policy behaves like no policy: the kill
/// fails the run and publishes nothing.
#[test]
fn disabled_retries_fail_the_run_and_publish_nothing() {
    let seed = 17u64;
    let cache = Arc::new(ResultCache::new());
    for retry in [Some(RetryConfig::uniform(RetryPolicy::disabled())), None] {
        let (wf, _h) = pipeline(seed);
        let mut exec = executor(&cache).with_faults(FaultPlan::new(seed).kill_worker("keep", 30));
        if let Some(r) = retry {
            exec = exec.with_retry(r);
        }
        let (_trace, result) = exec.run_observed(&wf);
        result.expect_err("no budget: the kill fails the run");
    }
    assert_eq!(cache.entries(), 0, "nothing published");
    assert_eq!(cache.bytes(), 0, "no bytes leaked");
}

/// A recovered kill still publishes nothing; the clean run afterwards
/// does.
#[test]
fn armed_retries_recover_rows_but_withhold_publication() {
    let seed = 17u64;
    let cache = Arc::new(ResultCache::new());
    let clean = baseline_rows(seed);
    let (wf, h) = pipeline(seed);
    let (_trace, result) = executor(&cache)
        .with_faults(FaultPlan::new(seed).kill_worker("keep", 30))
        .with_retry(RetryConfig::uniform(RetryPolicy::default()))
        .run_observed(&wf);
    let res = result.unwrap_or_else(|e| panic!("recovered run: {e}"));
    assert_eq!(sorted_rows(&h), clean, "zero lost rows");
    assert_eq!(res.cache_published, 0, "recovered run must not publish");
    assert_eq!(cache.entries(), 0, "cache untouched by the dirty run");

    let (wf, h) = pipeline(seed);
    let (_trace, result) = executor(&cache).run_observed(&wf);
    let res = result.unwrap_or_else(|e| panic!("clean run: {e}"));
    assert_eq!(sorted_rows(&h), clean, "clean rows");
    assert!(res.cache_published > 0, "clean run publishes");
}

/// A cache-enabled run keeps the faults of every operator it still runs.
/// After a cold run, a rerun with `trim`'s literal edited serves `keep`
/// from the cache, recomputes `trim` and skips `scan`. A fault on `keep`
/// fires on its replay, one on `trim` fires as usual, and one on `scan`
/// has nothing to fire on: it is dropped alone, not with the whole plan.
#[test]
fn an_edited_rerun_drops_only_the_faults_of_skipped_operators() {
    let seed = 17u64;
    let edited_rerun = |plan: FaultPlan| {
        let cache = Arc::new(ResultCache::new());
        executor(&cache)
            .run(&pipeline(seed).0)
            .expect("the cold run");
        let edited = pipeline_trimmed_at(seed, 150).0;
        executor(&cache).with_faults(plan).run(&edited)
    };

    let res = edited_rerun(FaultPlan::new(seed).kill_worker("scan", 5))
        .expect("a fault on a skipped operator never fires");
    let stats = res.pool.expect("pooled mode reports stats");
    assert_eq!((stats.faults_injected, stats.cache_hits), (0, 1));

    for (plan, victim) in [
        (FaultPlan::new(seed).kill_worker("trim", 3), "trim"),
        (FaultPlan::new(seed).kill_worker("keep", 3), "keep"),
        (
            FaultPlan::new(seed)
                .kill_worker("scan", 5)
                .kill_worker("trim", 3),
            "trim",
        ),
    ] {
        let what = plan.describe();
        let err = edited_rerun(plan).expect_err(&what);
        assert!(
            err.to_string().contains(&format!("`{victim}`")),
            "{what}: {err}"
        );
    }
}

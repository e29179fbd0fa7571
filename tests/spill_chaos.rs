//! Chaos suite for the bounded-memory spill path: seeded faults landing
//! while a grace hash join is mid-spill — build partitions sealed to the
//! compressed block store, probe streaming them back — must behave
//! exactly like faults on the in-memory path. Without a retry budget
//! the run fails and drains cleanly; with one, the replayed quanta
//! re-deliver every tuple exactly once, because the spilled partitions
//! live in operator-instance state that survives the replay.
//!
//! The seed-sweep tests arm their own budgets; the last two tests pin
//! the two halves of the retry matrix for one kill mid-spill.

use std::sync::Arc;

use scriptflow::datakit::{Batch, DataType, Schema, Value};
use scriptflow::workflow::ops::{HashJoinOp, ScanOp, SinkHandle, SinkOp};
use scriptflow::workflow::{
    FaultPlan, LiveExecutor, OperatorState, PartitionStrategy, ProgressTrace, RetryConfig,
    RetryPolicy, Workflow, WorkflowBuilder,
};

/// Build-side rows: at ~40+ bytes a tuple, hundreds of rows dwarf
/// [`BUDGET`], so every seed's run spills.
const BUILD_ROWS: i64 = 400;
const PROBE_ROWS: i64 = 300;
/// Per-operator memory budget in bytes — far below the build footprint.
const BUDGET: usize = 512;

/// A hash join whose build side must spill under [`BUDGET`]. The seed
/// perturbs the key distribution so the 32-seed sweep exercises
/// different partition mixes and flush boundaries.
fn spill_join(seed: u64) -> (Workflow, SinkHandle) {
    let shift = (seed % 7) as i64;
    let bsch = Schema::of(&[("k", DataType::Int), ("tag", DataType::Str)]);
    let build = Batch::from_rows(
        bsch,
        (0..BUILD_ROWS)
            .map(|i| vec![Value::Int((i + shift) % 23), Value::Str(format!("b{i}"))])
            .collect(),
    )
    .expect("build rows conform");
    let psch = Schema::of(&[("k", DataType::Int), ("p", DataType::Str)]);
    let probe = Batch::from_rows(
        psch,
        (0..PROBE_ROWS)
            .map(|i| vec![Value::Int((i + shift) % 29), Value::Str(format!("p{i}"))])
            .collect(),
    )
    .expect("probe rows conform");
    let mut b = WorkflowBuilder::new();
    let bs = b.add(Arc::new(ScanOp::new("build", build)), 1);
    let ps = b.add(Arc::new(ScanOp::new("probe", probe)), 1);
    let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), 2);
    let sink_op = SinkOp::new("sink");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);
    let by_k = PartitionStrategy::Hash(vec!["k".into()]);
    b.connect(bs, join, 0, by_k.clone());
    b.connect(ps, join, 1, by_k);
    b.connect(join, sink, 0, PartitionStrategy::Single);
    (b.build().expect("spill join is a valid DAG"), handle)
}

fn sorted_rows(h: &SinkHandle) -> Vec<String> {
    let mut rows: Vec<String> = h.results().iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows
}

fn final_states(trace: &ProgressTrace) -> Vec<(String, OperatorState)> {
    let (_, last) = trace
        .samples
        .last()
        .expect("a faulted run still produces a trace");
    last.iter().map(|s| (s.name.clone(), s.state)).collect()
}

/// Fault-free budgeted reference: proves the workload really spills and
/// returns the exactly-once row multiset.
fn clean_spilling_rows(seed: u64) -> Vec<String> {
    let (wf, h) = spill_join(seed);
    let (_trace, res) = LiveExecutor::new(16)
        .with_pool_size(1)
        .with_memory_budget(Some(BUDGET))
        .run_observed(&wf);
    let run = res.expect("fault-free budgeted run succeeds");
    let stats = run.pool.expect("pooled mode reports stats");
    assert!(
        stats.spilled_blocks > 0,
        "seed {seed}: the chaos workload must actually spill: {stats:?}"
    );
    sorted_rows(&h)
}

#[test]
fn budgeted_rows_match_unbounded_rows() {
    for seed in [0u64, 11, 31] {
        let (wf, h) = spill_join(seed);
        LiveExecutor::new(16)
            .with_pool_size(2)
            .run(&wf)
            .expect("unbounded run succeeds");
        let unbounded = sorted_rows(&h);
        assert_eq!(
            clean_spilling_rows(seed),
            unbounded,
            "seed {seed}: spilling must not change the join result"
        );
    }
}

/// The tentpole chaos sweep: 32 seeds × {panic, kill}, each fault
/// landing on the join while its build side is spilling (early tuple
/// offsets) or while probe streams spilled partitions back (late
/// offsets). Under the default retry budget every run must converge to
/// the exactly-once row multiset with every operator `Completed`.
#[test]
fn faults_mid_spill_recover_exactly_once_across_32_seeds() {
    for seed in 0..32u64 {
        let clean = clean_spilling_rows(seed);
        // Even seeds fault during build ingestion (mid-spill-write);
        // odd seeds fault after the build is sealed, while probe reads
        // spilled partitions back.
        let at = if seed % 2 == 0 {
            5 + seed % (BUILD_ROWS as u64 / 2)
        } else {
            BUILD_ROWS as u64 + 10 + seed % (PROBE_ROWS as u64 / 2)
        };
        for kind in ["panic", "kill"] {
            let plan = match kind {
                "panic" => FaultPlan::new(seed).panic_at("join", at),
                _ => FaultPlan::new(seed).kill_worker("join", at),
            };
            let (wf, h) = spill_join(seed);
            let (trace, result) = LiveExecutor::new(16)
                .with_pool_size(1 + (seed % 2) as usize)
                .with_memory_budget(Some(BUDGET))
                .with_faults(plan)
                .with_retry(RetryConfig::uniform(RetryPolicy::default()))
                .run_observed(&wf);
            result.unwrap_or_else(|e| panic!("seed {seed} {kind}@{at}: {e}"));
            assert_eq!(
                sorted_rows(&h),
                clean,
                "seed {seed} {kind}@{at}: replay over spilled partitions is exactly-once"
            );
            let st = final_states(&trace);
            assert!(
                st.iter().all(|(_, s)| *s == OperatorState::Completed),
                "seed {seed} {kind}@{at}: {st:?}"
            );
        }
    }
}

/// Without a retry budget a fault mid-spill fails the run — but it must
/// still drain: every operator terminal, the join pinned `Failed`, and
/// the same seed reproducing the same final states.
#[test]
fn unbudgeted_faults_mid_spill_drain_cleanly() {
    for seed in [2u64, 9, 21] {
        let mut prints = Vec::new();
        for _ in 0..2 {
            let (wf, _h) = spill_join(seed);
            let plan = FaultPlan::new(seed).panic_at("join", 20 + seed % 100);
            let (trace, result) = LiveExecutor::new(16)
                .with_pool_size(1)
                .with_memory_budget(Some(BUDGET))
                .with_faults(plan)
                .run_observed(&wf);
            let err = result.expect_err("no budget: the panic fails the run");
            let st = final_states(&trace);
            assert!(
                st.iter()
                    .any(|(n, s)| n == "join" && *s == OperatorState::Failed),
                "seed {seed}: {st:?}"
            );
            assert!(
                st.iter().all(|(_, s)| s.is_terminal()),
                "seed {seed}: {st:?}"
            );
            prints.push(format!("{st:?} | {err}"));
        }
        assert_eq!(prints[0], prints[1], "seed {seed}: deterministic drain");
    }
}

/// An explicit `disabled()` policy is identical to no policy for a kill
/// mid-spill.
#[test]
fn disabled_retries_mid_spill_are_identical_to_no_policy() {
    let seed = 13u64;
    let fp = |retry: Option<RetryConfig>| {
        let (wf, _h) = spill_join(seed);
        let mut exec = LiveExecutor::new(16)
            .with_pool_size(1)
            .with_memory_budget(Some(BUDGET))
            .with_faults(FaultPlan::new(seed).kill_worker("join", 30));
        if let Some(r) = retry {
            exec = exec.with_retry(r);
        }
        let (trace, result) = exec.run_observed(&wf);
        let err = result.expect_err("no budget: the kill fails").to_string();
        format!("{:?} | {err}", final_states(&trace))
    };
    assert_eq!(
        fp(Some(RetryConfig::uniform(RetryPolicy::disabled()))),
        fp(None),
        "disabled retries mid-spill are byte-identical to no policy"
    );
}

/// Zero rows are lost once the same kill runs under a budget.
#[test]
fn armed_retries_mid_spill_lose_no_rows() {
    let seed = 13u64;
    let clean = clean_spilling_rows(seed);
    let (wf, h) = spill_join(seed);
    let (_trace, result) = LiveExecutor::new(16)
        .with_pool_size(1)
        .with_memory_budget(Some(BUDGET))
        .with_faults(FaultPlan::new(seed).kill_worker("join", 30))
        .with_retry(RetryConfig::uniform(RetryPolicy::default()))
        .run_observed(&wf);
    result.unwrap_or_else(|e| panic!("armed: {e}"));
    assert_eq!(sorted_rows(&h), clean, "armed: zero lost rows");
}

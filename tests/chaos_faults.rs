//! Chaos suite for the pooled executor's deterministic fault-injection
//! harness: every [`scriptflow::workflow::FaultKind`] must drain the
//! pool cleanly (no leaked threads, no deadlock), pin the failure to one
//! `Failed` operator, keep the partial trace consistent, and — with a
//! single pool thread — reproduce the identical failure trace from the
//! same seed.
//!
//! Every leg runs under plain `cargo test`: the unarmed fingerprints,
//! the retry-armed exactly-once sweeps, and both halves of the retry
//! matrix at the bottom of the file.

mod common;

use std::sync::Arc;

use common::{assert_threads_drained, thread_baseline};
use scriptflow::datakit::{Batch, CmpOp, DataType, Schema, Value};
use scriptflow::workflow::fault::{random_chain, FaultPlan};
use scriptflow::workflow::ops::{FilterOp, ScanOp, SinkHandle, SinkOp};
use scriptflow::workflow::{
    render_timeline, FaultKind, LiveExecutor, OperatorState, PartitionStrategy, ProgressTrace,
    RetryConfig, RetryPolicy, TraceJson, Workflow, WorkflowBuilder, WorkflowError,
};

/// `(name, state, input, output)` per operator in the final snapshot.
fn final_states(trace: &ProgressTrace) -> Vec<(String, OperatorState, u64, u64)> {
    let (_, last) = trace
        .samples
        .last()
        .expect("a faulted run still produces a trace");
    last.iter()
        .map(|s| (s.name.clone(), s.state, s.input_tuples, s.output_tuples))
        .collect()
}

/// Everything that must be reproducible from a seeded single-thread run:
/// the final operator states and counts, the error, and the rendered
/// timeline minus its wall-clock footer (the `(time)` line carries real
/// seconds, which legitimately vary run to run).
fn fingerprint(trace: &ProgressTrace, err: &str) -> String {
    let timeline: String = render_timeline(trace)
        .lines()
        .filter(|l| !l.starts_with("(time)"))
        .collect::<Vec<_>>()
        .join("\n");
    format!("{:?} | {} | {}", final_states(trace), err, timeline)
}

/// Sink rows as a sorted multiset of debug renderings — the
/// order-independent exactly-once comparison the retry tests use.
fn sorted_rows(h: &scriptflow::workflow::ops::SinkHandle) -> Vec<String> {
    let mut rows: Vec<String> = h.results().iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows
}

#[test]
fn same_seed_reproduces_identical_failure_trace() {
    let (_serial, baseline) = thread_baseline();
    let mut prints = Vec::new();
    for _ in 0..10 {
        let (wf, _h, _names) = random_chain(5);
        let plan = FaultPlan::new(5).kill_worker("f0", 10);
        let (trace, result) = LiveExecutor::new(8)
            .with_pool_size(1)
            .with_faults(plan)
            .run_observed(&wf);
        let err = result.expect_err("the kill fails the run").to_string();
        prints.push(fingerprint(&trace, &err));
    }
    for (i, w) in prints.windows(2).enumerate() {
        assert_eq!(
            w[0],
            w[1],
            "runs {i} and {} diverged under the same seed",
            i + 1
        );
    }
    assert_threads_drained(baseline, "same-seed determinism");
}

#[test]
fn panic_capture_surfaces_as_failed_operator() {
    let (_serial, baseline) = thread_baseline();
    let (wf, _h, _names) = random_chain(7);
    let plan = FaultPlan::new(7).panic_at("f0", 21);
    let (trace, result) = LiveExecutor::new(8)
        .with_pool_size(2)
        .with_faults(plan)
        .run_observed(&wf);
    let err = result.expect_err("the panic fails the run").to_string();
    assert!(err.contains("panicked"), "panic text surfaces: {err}");
    assert!(err.contains("f0"), "error names the operator: {err}");
    let st = final_states(&trace);
    assert!(
        st.iter()
            .any(|(n, s, _, _)| n == "f0" && *s == OperatorState::Failed),
        "the panicking operator ends Failed, not aborted: {st:?}"
    );
    assert_threads_drained(baseline, "panic capture");
}

#[test]
fn every_fault_kind_drains_and_joins_threads() {
    let (_serial, baseline) = thread_baseline();
    let plans: Vec<FaultPlan> = vec![
        FaultPlan::new(41).panic_at("f0", 10),
        FaultPlan::new(41).kill_worker("f0", 10),
        FaultPlan::new(41).poison_mailbox("sink", 1),
        FaultPlan::new(41).drop_eos("scan"),
        FaultPlan::new(41).delay_eos("f0", 2),
        FaultPlan::new(41).slow_edge("scan", 50),
    ];
    for plan in plans {
        let desc = plan.describe();
        let (wf, _h, _names) = random_chain(41);
        let (trace, _result) = LiveExecutor::new(8)
            .with_pool_size(2)
            .with_faults(plan)
            .run_observed(&wf);
        assert!(
            !trace.samples.is_empty(),
            "{desc}: the trace survives the fault"
        );
        assert_threads_drained(baseline, &desc);
    }
}

#[test]
fn chaos_random_plans_terminate_with_consistent_traces() {
    let (_serial, baseline) = thread_baseline();
    for seed in 0..32u64 {
        let (wf, _h, names) = random_chain(seed);
        let plan = FaultPlan::random(seed, &names);
        let desc = plan.describe();
        let drops_eos = plan
            .faults()
            .iter()
            .any(|f| f.kind == FaultKind::DropEos && f.op != "sink");
        let (trace, result) = LiveExecutor::new(8)
            .with_pool_size(1 + (seed % 3) as usize)
            .with_faults(plan)
            .run_observed(&wf);
        // A dropped EOS starves its consumer: the run fails as stalled,
        // never `Ok` on the truncated input.
        if drops_eos {
            assert!(
                matches!(result, Err(WorkflowError::Stalled { .. })),
                "seed {seed} ({desc}): {result:?}"
            );
        }
        let st = final_states(&trace);
        // The chain is linear: each operator's input is bounded by its
        // upstream's output, faulted or not.
        for w in st.windows(2) {
            assert!(
                w[1].2 <= w[0].3,
                "seed {seed} ({desc}): {} read {} tuples but {} only wrote {}\n{st:?}",
                w[1].0,
                w[1].2,
                w[0].0,
                w[0].3
            );
        }
        assert!(
            st.iter().all(|(_, s, _, _)| s.is_terminal()),
            "seed {seed} ({desc}): operator left non-terminal: {st:?}"
        );
        assert_threads_drained(baseline, &format!("chaos seed {seed}"));
    }
}

#[test]
fn trace_parity_under_failure_roundtrips_json() {
    let (_serial, baseline) = thread_baseline();
    let (wf, _h, _names) = random_chain(9);
    let plan = FaultPlan::new(9).panic_at("f0", 15);
    let (trace, result) = LiveExecutor::new(8)
        .with_pool_size(1)
        .with_faults(plan)
        .run_observed(&wf);
    assert!(result.is_err());
    let st = final_states(&trace);
    assert!(
        st.iter().any(|(_, s, _, _)| *s == OperatorState::Failed),
        "{st:?}"
    );
    assert!(
        st.iter().any(|(_, s, _, _)| *s == OperatorState::Degraded),
        "downstream of the fault ends Degraded: {st:?}"
    );
    // The failure states survive the JSON wire format losslessly.
    let text = TraceJson::from_trace(&trace).to_string_compact();
    let back = TraceJson::parse(&text).expect("failure trace parses back");
    assert_eq!(back.samples, trace.samples);
    assert_threads_drained(baseline, "trace parity");
}

#[test]
fn drop_eos_recovers_without_deadlock() {
    let (_serial, baseline) = thread_baseline();
    let (wf, _h, _names) = random_chain(11);
    let plan = FaultPlan::new(11).drop_eos("scan");
    let (trace, result) = LiveExecutor::new(8)
        .with_pool_size(2)
        .with_faults(plan)
        .run_observed(&wf);
    let err = result.expect_err("dropping EOS fails the run").to_string();
    assert!(err.contains("end-of-stream"), "{err}");
    let st = final_states(&trace);
    assert!(st.iter().all(|(_, s, _, _)| s.is_terminal()), "{st:?}");
    assert_threads_drained(baseline, "drop EOS");
}

#[test]
fn poisoned_mailbox_fails_the_consumer() {
    let (_serial, baseline) = thread_baseline();
    let (wf, _h, _names) = random_chain(9);
    let plan = FaultPlan::new(9).poison_mailbox("sink", 2);
    let (trace, result) = LiveExecutor::new(8)
        .with_pool_size(1)
        .with_faults(plan)
        .run_observed(&wf);
    let err = result.expect_err("the poison fails the run").to_string();
    assert!(err.contains("poisoned"), "{err}");
    let st = final_states(&trace);
    assert!(
        st.iter()
            .any(|(n, s, _, _)| n == "sink" && *s == OperatorState::Failed),
        "the consumer of the poisoned mailbox fails: {st:?}"
    );
    assert_threads_drained(baseline, "poisoned mailbox");
}

#[test]
fn kill_worker_truncates_but_downstream_still_terminates() {
    let (_serial, baseline) = thread_baseline();
    let (wf, h, _names) = random_chain(5);
    let plan = FaultPlan::new(5).kill_worker("f0", 10);
    let (trace, result) = LiveExecutor::new(8)
        .with_pool_size(1)
        .with_faults(plan)
        .run_observed(&wf);
    assert!(result.is_err());
    let st = final_states(&trace);
    let f0 = st.iter().find(|(n, ..)| n == "f0").unwrap();
    assert_eq!(f0.1, OperatorState::Failed);
    let sink = st.iter().find(|(n, ..)| n == "sink").unwrap();
    assert!(sink.1.is_terminal(), "{st:?}");
    // The sink kept whatever flowed before the kill — no more.
    assert!(
        h.len() as u64 <= f0.3,
        "{} rows vs f0 output {}",
        h.len(),
        f0.3
    );
    assert_threads_drained(baseline, "kill worker");
}

#[test]
fn benign_faults_preserve_every_row() {
    let (_serial, baseline) = thread_baseline();
    let (wf, h, _names) = random_chain(13);
    let (_trace, clean) = LiveExecutor::new(8).with_pool_size(1).run_observed(&wf);
    assert!(clean.is_ok());
    let clean_rows = h.len();

    let (wf, h, _names) = random_chain(13);
    let plan = FaultPlan::new(13).slow_edge("scan", 50).delay_eos("f0", 3);
    let (_trace, result) = LiveExecutor::new(8)
        .with_pool_size(1)
        .with_faults(plan)
        .run_observed(&wf);
    let res = result.expect("benign faults do not fail the run");
    assert_eq!(h.len(), clean_rows, "benign faults lose nothing");
    let stats = res.pool.expect("pooled mode reports stats");
    assert_eq!(stats.faults_injected, 2, "both benign faults counted");
    assert_threads_drained(baseline, "benign faults");
}

#[test]
fn seeded_random_plans_pin_their_fingerprints() {
    // `FaultPlan::random` draws via `SplitMix64::range`, which is
    // exactly `lo + next_u64() % span`. Pinning these descriptions makes
    // any RNG change an explicit, reviewed event.
    let pinned = [
        "seed 0 [scan: kill worker at tuple 5]",
        "seed 1 [f0: kill worker at tuple 43]",
        "seed 2 [f0: drop EOS]",
        "seed 3 [f0: panic at tuple 36]",
        "seed 4 [f0: slow edge (+171us/batch)]",
        "seed 5 [scan: drop EOS]",
    ];
    for (seed, expect) in pinned.iter().enumerate() {
        let (_wf, _h, names) = random_chain(seed as u64);
        let plan = FaultPlan::random(seed as u64, &names);
        assert_eq!(plan.describe(), *expect, "seed {seed}");
    }
}

#[test]
fn combined_kill_and_drop_eos_terminates_and_stays_consistent() {
    // A killed operator drains while its own input starves: the scan's
    // EOS never comes, so only the stall detector can finish it. The
    // kill was recorded first and stays the run's error.
    let (_serial, baseline) = thread_baseline();
    let (wf, _h, _names) = random_chain(5);
    let plan = FaultPlan::new(5).kill_worker("f0", 10).drop_eos("scan");
    let (trace, result) = LiveExecutor::new(8)
        .with_pool_size(2)
        .with_faults(plan)
        .run_observed(&wf);
    assert!(result.is_err(), "the kill still fails the run");
    let st = final_states(&trace);
    assert!(st.iter().all(|(_, s, _, _)| s.is_terminal()), "{st:?}");
    assert_threads_drained(baseline, "kill + drop EOS");
}

#[test]
fn stall_recovered_operators_surface_degraded_not_completed() {
    // An operator that never saw its EOS — the stall detector
    // force-finished it — must report `Degraded`, never a clean
    // `Completed`, and the silent producer is the one `Failed`.
    let (_serial, baseline) = thread_baseline();
    let (wf, _h, _names) = random_chain(11);
    let plan = FaultPlan::new(11).drop_eos("scan");
    let (trace, result) = LiveExecutor::new(8)
        .with_pool_size(2)
        .with_faults(plan)
        .run_observed(&wf);
    assert!(result.is_err(), "the dropped EOS is the recorded failure");
    let st = final_states(&trace);
    let scan = st.iter().find(|(n, ..)| n == "scan").unwrap();
    assert_eq!(scan.1, OperatorState::Failed, "{st:?}");
    let f0 = st.iter().find(|(n, ..)| n == "f0").unwrap();
    assert_eq!(
        f0.1,
        OperatorState::Degraded,
        "the consumer of the dropped EOS was stall-recovered and must not claim Completed: {st:?}"
    );
    assert_threads_drained(baseline, "stall recovery surfacing");
}

/// Fault-free sorted rows for `random_chain(seed)` — the exactly-once
/// reference every retry test compares against.
fn clean_rows(seed: u64) -> Vec<String> {
    let (wf, h, _names) = random_chain(seed);
    let (_trace, res) = LiveExecutor::new(8).with_pool_size(1).run_observed(&wf);
    res.expect("fault-free run succeeds");
    sorted_rows(&h)
}

#[test]
fn default_retry_budget_salvages_every_retryable_fault_kind() {
    let (_serial, baseline) = thread_baseline();
    let clean = clean_rows(17);
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("panic", FaultPlan::new(17).panic_at("f0", 10)),
        ("kill", FaultPlan::new(17).kill_worker("f0", 10)),
        ("poison", FaultPlan::new(17).poison_mailbox("sink", 1)),
    ];
    for (kind, plan) in plans {
        let (wf, h, _names) = random_chain(17);
        let (trace, result) = LiveExecutor::new(8)
            .with_pool_size(2)
            .with_faults(plan)
            .with_retry(RetryConfig::uniform(RetryPolicy::default()))
            .run_observed(&wf);
        let run = result.unwrap_or_else(|e| panic!("{kind}: the budget absorbs the fault: {e}"));
        let st = final_states(&trace);
        assert!(
            st.iter().all(|(_, s, _, _)| *s == OperatorState::Completed),
            "{kind}: every operator ends Completed after the replay: {st:?}"
        );
        assert_eq!(sorted_rows(&h), clean, "{kind}: exactly-once delivery");
        let stats = run.pool.expect("pooled mode reports stats");
        assert!(stats.retries_succeeded >= 1, "{kind}: {stats:?}");
        assert!(
            stats.retries_attempted >= stats.retries_succeeded,
            "{kind}: {stats:?}"
        );
        assert_threads_drained(baseline, kind);
    }
}

#[test]
fn retried_runs_preserve_exactly_once_across_32_seeds() {
    let (_serial, baseline) = thread_baseline();
    for seed in 0..32u64 {
        let clean = clean_rows(seed);
        for kind in ["panic", "kill", "poison"] {
            let plan = match kind {
                "panic" => FaultPlan::new(seed).panic_at("f0", 5 + seed % 40),
                "kill" => FaultPlan::new(seed).kill_worker("f0", 5 + seed % 40),
                _ => FaultPlan::new(seed).poison_mailbox("sink", 1 + seed % 3),
            };
            let (wf, h, _names) = random_chain(seed);
            let (trace, result) = LiveExecutor::new(8)
                .with_pool_size(1)
                .with_faults(plan)
                .with_retry(RetryConfig::uniform(RetryPolicy::default()))
                .run_observed(&wf);
            result.unwrap_or_else(|e| panic!("seed {seed} {kind}: {e}"));
            assert_eq!(sorted_rows(&h), clean, "seed {seed} {kind}: exactly-once");
            let st = final_states(&trace);
            assert!(
                st.iter().all(|(_, s, _, _)| *s == OperatorState::Completed),
                "seed {seed} {kind}: {st:?}"
            );
        }
    }
    assert_threads_drained(baseline, "32-seed exactly-once sweep");
}

#[test]
fn same_seed_retry_run_fingerprint_is_identical_across_10_reps() {
    let mut prints = Vec::new();
    for _ in 0..10 {
        let (wf, h, _names) = random_chain(5);
        let plan = FaultPlan::new(5).kill_worker("f0", 10);
        let (trace, result) = LiveExecutor::new(8)
            .with_pool_size(1)
            .with_faults(plan)
            .with_retry(RetryConfig::uniform(RetryPolicy::default()))
            .run_observed(&wf);
        let run = result.expect("the budget salvages the kill");
        let stats = run.pool.expect("pooled mode reports stats");
        prints.push(format!(
            "{:?} | {}/{} | {}",
            final_states(&trace),
            stats.retries_succeeded,
            stats.retries_attempted,
            sorted_rows(&h).join(",")
        ));
    }
    for (i, w) in prints.windows(2).enumerate() {
        assert_eq!(
            w[0],
            w[1],
            "retried runs {i} and {} diverged under the same seed",
            i + 1
        );
    }
}

/// `random_chain`'s closure filters have no kernel, so its scan serves rows.
/// Here `f0` is a `cmp` filter (`id >= 16`): the scan is sealed, zone maps
/// prune the leading batches, and the closure filter `f1` is fed batches.
fn kernel_chain() -> (Workflow, SinkHandle) {
    let schema = Schema::of(&[("id", DataType::Int)]);
    let batch = Batch::from_rows(schema, (0..400).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 2);
    let f0 = FilterOp::cmp("f0", "id", CmpOp::Ge, Value::Int(16));
    let f0 = b.add(Arc::new(f0), 2);
    let f1 = FilterOp::new("f1", |t| Ok(t.get_int("id")? % 3 != 0));
    let f1 = b.add(Arc::new(f1), 2);
    let sink_op = SinkOp::new("sink");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);
    b.connect(scan, f0, 0, PartitionStrategy::RoundRobin);
    b.connect(f0, f1, 0, PartitionStrategy::Hash(vec!["id".into()]));
    b.connect(f1, sink, 0, PartitionStrategy::Single);
    (b.build().unwrap(), handle)
}

#[test]
fn columnar_batches_under_faults_retry_exactly_once() {
    // Regression for the columnar batch path: a fault landing while
    // sealed batches travel must behave exactly like a fault among rows —
    // the armed batch takes the row path, the replay quantum re-delivers
    // every tuple once, and nothing about the drain changes. Rows must
    // match the reference interpreter's, which only ever moves rows.
    let (_serial, baseline) = thread_baseline();
    let (wf, h) = kernel_chain();
    LiveExecutor::thread_per_worker(8).run(&wf).unwrap();
    let clean = sorted_rows(&h);
    for seed in [5u64, 17, 23] {
        for kind in ["panic", "kill", "poison"] {
            let plan = match kind {
                "panic" => FaultPlan::new(seed).panic_at("f0", 5 + seed % 40),
                "kill" => FaultPlan::new(seed).kill_worker("f0", 5 + seed % 40),
                _ => FaultPlan::new(seed).poison_mailbox("sink", 1 + seed % 3),
            };
            let (wf, h) = kernel_chain();
            let (trace, result) = LiveExecutor::new(8)
                .with_pool_size(1)
                .with_faults(plan)
                .with_retry(RetryConfig::uniform(RetryPolicy::default()))
                .run_observed(&wf);
            let run = result.unwrap_or_else(|e| panic!("seed {seed} {kind} (columnar): {e}"));
            assert!(run.pool.unwrap().batches_skipped > 0, "seed {seed} {kind}");
            assert_eq!(
                sorted_rows(&h),
                clean,
                "seed {seed} {kind}: columnar retry is exactly-once"
            );
            let st = final_states(&trace);
            assert!(
                st.iter().all(|(_, s, _, _)| *s == OperatorState::Completed),
                "seed {seed} {kind}: {st:?}"
            );
        }
    }
    assert_threads_drained(baseline, "columnar chaos sweep");
}

#[test]
fn columnar_mode_without_budget_drains_like_the_row_engine() {
    // An unbudgeted kill mid-columnar-stream must still converge: one
    // Failed operator, terminal states everywhere, threads joined.
    let (_serial, baseline) = thread_baseline();
    let (wf, _h) = kernel_chain();
    let plan = FaultPlan::new(5).kill_worker("f0", 10);
    let (trace, result) = LiveExecutor::new(8)
        .with_pool_size(2)
        .with_faults(plan)
        .run_observed(&wf);
    assert!(result.is_err(), "no budget: the kill fails the run");
    let (_, last) = trace.samples.last().unwrap();
    let f0 = last.iter().find(|s| s.name == "f0").unwrap();
    assert!(
        f0.counters.batches_skipped > 0,
        "the kill met sealed batches"
    );
    let st = final_states(&trace);
    assert!(
        st.iter()
            .any(|(n, s, _, _)| n == "f0" && *s == OperatorState::Failed),
        "{st:?}"
    );
    assert!(st.iter().all(|(_, s, _, _)| s.is_terminal()), "{st:?}");
    assert_threads_drained(baseline, "columnar kill without budget");
}

/// An explicit `disabled()` retry config must behave byte-identically
/// to no retry config at all, leaving the PR 3 seeded fingerprints
/// unchanged.
#[test]
fn disabled_retries_are_identical_to_no_policy() {
    let fp = |retry: Option<RetryConfig>| {
        let (wf, _h, _names) = random_chain(3);
        let mut exec = LiveExecutor::new(8)
            .with_pool_size(1)
            .with_faults(FaultPlan::new(3).kill_worker("f0", 10));
        if let Some(r) = retry {
            exec = exec.with_retry(r);
        }
        let (trace, result) = exec.run_observed(&wf);
        let err = result.expect_err("no budget: the kill fails").to_string();
        fingerprint(&trace, &err)
    };
    let disabled = || Some(RetryConfig::uniform(RetryPolicy::disabled()));
    assert_eq!(
        fp(disabled()),
        fp(disabled()),
        "disabled retries stay deterministic"
    );
    assert_eq!(
        fp(disabled()),
        fp(None),
        "max_attempts = 0 is byte-identical to no policy"
    );
}

/// Zero rows are lost once retryable faults run under a budget.
#[test]
fn armed_retries_lose_no_rows() {
    for seed in [3u64, 19, 29] {
        let clean = clean_rows(seed);
        let (wf, h, _names) = random_chain(seed);
        let plan = FaultPlan::new(seed).kill_worker("f0", 10);
        let (_trace, result) = LiveExecutor::new(8)
            .with_pool_size(1)
            .with_faults(plan)
            .with_retry(RetryConfig::uniform(RetryPolicy::default()))
            .run_observed(&wf);
        result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(sorted_rows(&h), clean, "seed {seed}: zero lost rows");
    }
}

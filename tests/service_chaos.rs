//! Chaos suite for the multi-tenant [`scriptflow::workflow::service`]:
//! a seeded fault + retry storm inside one tenant's run must never
//! stall or corrupt a concurrently running neighbor on the shared
//! pool, admission rejections must be explicit (never silent drops),
//! the PR 4 "sink cleared per run" invariant must hold across
//! concurrent submissions, and — with a single pool thread — the same
//! seed must reproduce the identical failure fingerprint through the
//! service path that it produces through the solo executor path.
//!
//! The isolation sweep runs every seed twice: once with retries
//! disabled, once with a retry budget armed on the noisy tenant so
//! every replayed quantum parks on the service timer instead of
//! sleeping a shared worker.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{assert_threads_drained, thread_baseline};
use scriptflow::datakit::{Batch, DataType, Schema, Value};
use scriptflow::workflow::fault::{random_chain, FaultPlan};
use scriptflow::workflow::ops::{FilterOp, ScanOp, SinkHandle, SinkOp};
use scriptflow::workflow::service::{
    RunOptions, ServiceConfig, SubmitError, TenantQuota, WorkflowService,
};
use scriptflow::workflow::{
    render_timeline, Backoff, LiveExecutor, OperatorState, PartitionStrategy, ProgressTrace,
    RetryConfig, RetryPolicy, Workflow, WorkflowBuilder,
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

/// Reproducible residue of a seeded single-thread run: final operator
/// states and counts, the error, and the rendered timeline minus its
/// wall-clock footer (the `(time)` line carries real seconds).
fn fingerprint(trace: &ProgressTrace, err: &str) -> String {
    let timeline: String = render_timeline(trace)
        .lines()
        .filter(|l| !l.starts_with("(time)"))
        .collect::<Vec<_>>()
        .join("\n");
    format!("{:?} | {} | {}", final_states(trace), err, timeline)
}

/// Sink rows as a sorted multiset of debug renderings — the
/// order-independent exactly-once comparison the isolation tests use.
fn sorted_rows(h: &SinkHandle) -> Vec<String> {
    let mut rows: Vec<String> = h.results().iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows
}

fn int_batch(rows: i64) -> Batch {
    let schema = Schema::of(&[("id", DataType::Int)]);
    Batch::from_rows(schema, (0..rows).map(|i| vec![Value::Int(i)]).collect()).unwrap()
}

/// scan → filter(even) → sink: the quiet tenant's well-behaved DAG.
fn quiet_chain(rows: i64, parallelism: usize) -> (Workflow, SinkHandle) {
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(rows))), 1);
    let filter = b.add(
        Arc::new(FilterOp::new("filter", |t| Ok(t.get_int("id")? % 2 == 0))),
        parallelism,
    );
    let sink_op = Arc::new(SinkOp::new("sink"));
    let handle = sink_op.handle();
    let sink = b.add(sink_op, 1);
    b.connect(scan, filter, 0, PartitionStrategy::RoundRobin);
    b.connect(filter, sink, 0, PartitionStrategy::Single);
    (b.build().unwrap(), handle)
}

/// A retry budget whose backoff is short enough for a test but long
/// enough that a sleeping replay would visibly wedge a 1–2 thread
/// pool if it slept in a worker instead of parking on the timer.
fn storm_retry() -> RetryConfig {
    RetryConfig::uniform(RetryPolicy::attempts(3).with_backoff(Backoff {
        base: Duration::from_millis(2),
        factor: 2,
        cap: Duration::from_millis(8),
    }))
}

/// The acceptance gate: across 32 seeds, a noisy tenant running a
/// seeded random fault plan (without and then with a retry storm)
/// shares a 2-thread pool with a quiet tenant — and the quiet tenant's
/// rows must be byte-identical to its solo-executor anchor every time.
#[test]
fn noisy_tenant_never_stalls_or_corrupts_quiet_neighbor_32_seeds() {
    let (_serial, baseline) = thread_baseline();

    // One solo anchor: the quiet DAG is the same for every seed.
    let (quiet_wf, quiet_sink) = quiet_chain(2_000, 2);
    let _ = LiveExecutor::new(64).with_pool_size(2).run(&quiet_wf);
    let solo = sorted_rows(&quiet_sink);
    assert_eq!(solo.len(), 1_000);

    for seed in 0..32u64 {
        for armed in [false, true] {
            quiet_sink.clear();
            let (noisy_wf, _noisy_sink, ops) = random_chain(seed);
            let plan = FaultPlan::random(seed, &ops);
            let mut noisy_opts = RunOptions::default().with_faults(plan);
            if armed {
                noisy_opts = noisy_opts.with_retry(storm_retry());
            }

            let svc = WorkflowService::new(
                ServiceConfig::default()
                    .with_pool_size(2)
                    .with_max_active_runs(4),
            );
            let noisy = svc.submit("noisy", &noisy_wf, noisy_opts).unwrap();
            let quiet = svc
                .submit("quiet", &quiet_wf, RunOptions::default())
                .unwrap();

            let quiet_report = quiet.wait();
            assert!(
                quiet_report.result.is_ok(),
                "seed {seed} armed {armed}: quiet neighbor failed: {:?}",
                quiet_report.result.err()
            );
            assert_eq!(
                sorted_rows(&quiet_sink),
                solo,
                "seed {seed} armed {armed}: quiet rows corrupted by the noisy tenant"
            );

            // The noisy run must also terminate — fail or succeed, never
            // wedge — or `wait` (and the service `Drop`) would hang.
            let noisy_report = noisy.wait();
            let trace = &noisy_report.trace;
            assert!(
                !trace.samples.is_empty(),
                "seed {seed} armed {armed}: noisy run lost its trace"
            );
            if noisy_report.result.is_err() {
                let st = final_states(trace);
                assert!(
                    st.iter().any(|(_, s, _, _)| *s == OperatorState::Failed),
                    "seed {seed} armed {armed}: failed noisy run pinned no operator: {st:?}"
                );
            }
            drop(svc);
        }
    }
    assert_threads_drained(baseline, "32-seed isolation sweep");
}

/// Same-seed determinism through the service path: on a 1-thread pool
/// the identical kill reproduces the identical failure fingerprint,
/// and that fingerprint matches the solo executor's for the same DAG.
#[test]
fn same_seed_reproduces_identical_fingerprint_through_service() {
    let (_serial, baseline) = thread_baseline();
    let mut prints = Vec::new();
    for _ in 0..6 {
        let (wf, _h, _names) = random_chain(5);
        let plan = FaultPlan::new(5).kill_worker("f0", 10);
        let svc = WorkflowService::new(ServiceConfig::default().with_pool_size(1));
        let report = svc
            .submit("t", &wf, RunOptions::default().with_faults(plan))
            .unwrap()
            .wait();
        let err = report
            .result
            .expect_err("the kill fails the run")
            .to_string();
        prints.push(fingerprint(&report.trace, &err));
    }
    // Solo-executor anchor for the same seed and pool width.
    {
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
            "service runs {i} and {} diverged under the same seed",
            i + 1
        );
    }
    assert_threads_drained(baseline, "service same-seed determinism");
}

/// Regression for the PR 4 invariant under concurrency: two live runs
/// may not share one sink buffer (explicit [`SubmitError::SinkBusy`]),
/// and re-dispatching a workflow clears its sink rather than appending
/// — rows stay byte-identical run over run, never doubled.
#[test]
fn sink_state_cannot_leak_across_concurrent_runs() {
    let (_serial, baseline) = thread_baseline();
    let (wf, handle) = quiet_chain(20_000, 2);
    let svc = WorkflowService::new(
        ServiceConfig::default()
            .with_pool_size(1)
            .with_max_active_runs(4),
    );
    // A benign slow edge keeps the first run deterministically in
    // flight while the clashing submission is attempted.
    let slow = RunOptions::default().with_faults(FaultPlan::new(0).slow_edge("filter", 2_000));
    let first = svc.submit("t", &wf, slow).unwrap();
    match svc.submit("t", &wf, RunOptions::default()) {
        Err(SubmitError::SinkBusy { operator }) => assert_eq!(operator, "sink"),
        other => panic!("expected SinkBusy, got {other:?}"),
    }
    assert!(first.wait().result.is_ok());
    let first_rows = sorted_rows(&handle);
    assert_eq!(first_rows.len(), 10_000);

    // Sequential resubmission is allowed — and must reset, not append.
    let again = svc.submit("t", &wf, RunOptions::default()).unwrap();
    assert!(again.wait().result.is_ok());
    assert_eq!(
        sorted_rows(&handle),
        first_rows,
        "sink appended across runs"
    );
    drop(svc);
    assert_threads_drained(baseline, "sink leak regression");
}

/// Overload is an explicit, attributable rejection: a full admission
/// queue answers [`SubmitError::QueueFull`] and a tenant at its
/// in-flight quota answers [`SubmitError::TenantOverQuota`]; both are
/// charged to the tenant's `rejected` counter.
#[test]
fn overload_rejections_are_explicit_and_attributed() {
    let (_serial, baseline) = thread_baseline();
    let slow = || RunOptions::default().with_faults(FaultPlan::new(0).slow_edge("filter", 2_000));

    let svc = WorkflowService::new(
        ServiceConfig::default()
            .with_pool_size(1)
            .with_max_active_runs(1)
            .with_queue_capacity(1)
            .with_default_quota(TenantQuota::default().with_max_in_flight(2)),
    );
    let (wf0, _h0) = quiet_chain(20_000, 2);
    let a = svc.submit("big", &wf0, slow()).unwrap();
    let (wf1, _h1) = quiet_chain(10, 1);
    let b = svc.submit("small", &wf1, RunOptions::default()).unwrap();
    let (wf2, _h2) = quiet_chain(10, 1);
    match svc.submit("small", &wf2, RunOptions::default()) {
        Err(SubmitError::QueueFull { capacity: 1 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert!(a.wait().result.is_ok());
    assert!(b.wait().result.is_ok());
    assert_eq!(svc.tenant_stats("small").unwrap().rejected, 1);
    drop(svc);

    let svc = WorkflowService::new(
        ServiceConfig::default()
            .with_pool_size(1)
            .with_max_active_runs(1)
            .with_queue_capacity(16)
            .with_default_quota(TenantQuota::default().with_max_in_flight(2)),
    );
    let (wf_a, _ha) = quiet_chain(20_000, 2);
    let (wf_b, _hb) = quiet_chain(20_000, 2);
    let (wf_c, _hc) = quiet_chain(10, 1);
    let r1 = svc.submit("q", &wf_a, slow()).unwrap();
    let r2 = svc.submit("q", &wf_b, slow()).unwrap();
    match svc.submit("q", &wf_c, RunOptions::default()) {
        Err(SubmitError::TenantOverQuota { tenant, in_flight }) => {
            assert_eq!(tenant, "q");
            assert_eq!(in_flight, 2);
        }
        other => panic!("expected TenantOverQuota, got {other:?}"),
    }
    assert!(r1.wait().result.is_ok());
    assert!(r2.wait().result.is_ok());
    assert_eq!(svc.tenant_stats("q").unwrap().rejected, 1);
    drop(svc);
    assert_threads_drained(baseline, "explicit rejection");
}

/// A retry storm parks on the service timer — the
/// replay still recovers every row exactly once, and the per-run stats
/// account the attempts, all while a neighbor drains undisturbed.
#[test]
fn retry_storm_recovers_exactly_once_while_neighbor_drains() {
    let (_serial, baseline) = thread_baseline();
    let (noisy_wf, noisy_sink) = quiet_chain(2_000, 2);
    let plan = FaultPlan::new(5).panic_at("filter", 100);
    let (quiet_wf, quiet_sink) = quiet_chain(2_000, 2);
    let _ = LiveExecutor::new(64).with_pool_size(2).run(&quiet_wf);
    let solo = sorted_rows(&quiet_sink);
    quiet_sink.clear();

    let svc = WorkflowService::new(
        ServiceConfig::default()
            .with_pool_size(2)
            .with_max_active_runs(4),
    );
    let noisy = svc
        .submit(
            "noisy",
            &noisy_wf,
            RunOptions::default()
                .with_faults(plan)
                .with_retry(storm_retry()),
        )
        .unwrap();
    let quiet = svc
        .submit("quiet", &quiet_wf, RunOptions::default())
        .unwrap();

    assert!(quiet.wait().result.is_ok());
    assert_eq!(sorted_rows(&quiet_sink), solo);

    let report = noisy.wait();
    let res = report.result.expect("the budget salvages the storm");
    let stats = res.pool.expect("pooled stats");
    assert!(stats.retries_attempted >= 1);
    assert_eq!(stats.retries_succeeded, 1);
    assert_eq!(noisy_sink.len(), 1_000, "replay lost or duplicated rows");
    drop(svc);
    assert_threads_drained(baseline, "armed retry storm");
}

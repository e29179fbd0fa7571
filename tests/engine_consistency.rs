//! Engine-level consistency: the simulated and live executors must agree
//! on data for arbitrary workflows, and both paradigms must report
//! errors at the right granularity.

use std::sync::Arc;

use scriptflow::datakit::{Batch, DataError, DataType, Schema, Value};
use scriptflow::notebook::{Cell, Kernel, Notebook};
use scriptflow::raysim::RayConfig;
use scriptflow::simcluster::ClusterSpec;
use scriptflow::workflow::ops::{
    AggFn, AggregateOp, DistinctOp, FilterOp, HashJoinOp, ProjectOp, ScanOp, SinkHandle, SinkOp,
};
use scriptflow::workflow::{
    EngineConfig, LiveExecutor, PartitionStrategy, SimExecutor, Workflow, WorkflowBuilder,
};

fn int_batch(n: i64, modulus: i64) -> Batch {
    let schema = Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]);
    Batch::from_rows(
        schema,
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % modulus)])
            .collect(),
    )
    .unwrap()
}

/// A moderately gnarly workflow: scan → filter → join with a dimension
/// table → project → distinct → aggregate → sink.
fn gnarly(n: i64, workers: usize) -> (Workflow, SinkHandle) {
    let dim_schema = Schema::of(&[("k", DataType::Int), ("label", DataType::Str)]);
    let dim = Batch::from_rows(
        dim_schema,
        (0..7i64)
            .map(|k| vec![Value::Int(k), Value::Str(format!("g{k}"))])
            .collect(),
    )
    .unwrap();

    let mut b = WorkflowBuilder::new();
    let facts = b.add(Arc::new(ScanOp::new("facts", int_batch(n, 11))), workers);
    let dims = b.add(Arc::new(ScanOp::new("dims", dim)), 1);
    let filt = b.add(
        Arc::new(FilterOp::new(
            "drop_mod4",
            |t| Ok(t.get_int("id")? % 4 != 0),
        )),
        workers,
    );
    let join = b.add(
        Arc::new(HashJoinOp::new("label_join", &["k"], &["k"])),
        workers,
    );
    let proj = b.add(Arc::new(ProjectOp::new("proj", &["label", "id"])), workers);
    let dedup = b.add(
        Arc::new(DistinctOp::new("dedup", &["label", "id"])),
        workers,
    );
    let agg = b.add(
        Arc::new(AggregateOp::new(
            "per_label",
            &["label"],
            vec![AggFn::Count("n".into()), AggFn::Max("id".into())],
        )),
        workers,
    );
    let sink_op = SinkOp::new("sink");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);

    let by_k = PartitionStrategy::Hash(vec!["k".into()]);
    let by_label = PartitionStrategy::Hash(vec!["label".into()]);
    b.connect(facts, filt, 0, PartitionStrategy::RoundRobin);
    b.connect(dims, join, 0, by_k.clone());
    b.connect(filt, join, 1, by_k);
    b.connect(join, proj, 0, PartitionStrategy::RoundRobin);
    b.connect(proj, dedup, 0, by_label.clone());
    b.connect(dedup, agg, 0, by_label);
    b.connect(agg, sink, 0, PartitionStrategy::Single);
    (b.build().unwrap(), handle)
}

fn fingerprints(handle: &SinkHandle) -> Vec<String> {
    let mut rows: Vec<String> = handle.results().iter().map(|t| t.to_string()).collect();
    rows.sort_unstable();
    rows
}

#[test]
fn sim_and_live_agree_on_gnarly_workflows() {
    for (n, workers) in [(500, 1), (2_000, 2), (5_000, 4)] {
        let (wf_ref, h_ref) = gnarly(n, workers);
        LiveExecutor::thread_per_worker(128).run(&wf_ref).unwrap();
        // Sanity: only ids not divisible by 4 and k < 7 survive the
        // filter+join; 7 labels remain.
        assert_eq!(h_ref.results().len(), 7);

        // Both engines must match the reference interpreter exactly.
        let sim = EngineConfig {
            cluster: ClusterSpec::single_node(4),
            ..EngineConfig::default()
        };
        let (wf_sim, h_sim) = gnarly(n, workers);
        SimExecutor::new(sim).run(&wf_sim).unwrap();
        let (wf_live, h_live) = gnarly(n, workers);
        LiveExecutor::new(128).run(&wf_live).unwrap();
        for (engine, h) in [("sim", h_sim), ("pooled", h_live)] {
            assert_eq!(
                fingerprints(&h_ref),
                fingerprints(&h),
                "n={n} workers={workers} engine={engine}"
            );
        }
    }
}

#[test]
fn pooled_live_agrees_under_tight_backpressure() {
    // Small mailboxes and a pool far smaller than the worker count force
    // heavy task multiplexing and producer stalls; data must not change.
    let (wf_sim, h_sim) = gnarly(2_000, 4);
    SimExecutor::new(EngineConfig {
        cluster: ClusterSpec::single_node(4),
        ..EngineConfig::default()
    })
    .run(&wf_sim)
    .unwrap();

    let (wf_live, h_live) = gnarly(2_000, 4);
    let res = LiveExecutor::new(32)
        .with_pool_size(2)
        .with_channel_capacity(2)
        .run(&wf_live)
        .unwrap();

    assert_eq!(fingerprints(&h_sim), fingerprints(&h_live));
    let stats = res.pool.expect("pooled run reports stats");
    assert_eq!(stats.tasks, wf_live.total_workers());
    assert_eq!(stats.pool_threads, 2);
}

#[test]
fn workflow_error_is_operator_level() {
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(100, 5))), 1);
    let bad = b.add(
        Arc::new(FilterOp::new("fragile operator", |t| {
            if t.get_int("id")? == 57 {
                Err(DataError::Decode {
                    line: 57,
                    message: "corrupt record".into(),
                })
            } else {
                Ok(true)
            }
        })),
        2,
    );
    let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
    b.connect(scan, bad, 0, PartitionStrategy::RoundRobin);
    b.connect(bad, sink, 0, PartitionStrategy::Single);
    let wf = b.build().unwrap();

    for flavour in ["sim", "live"] {
        let err = match flavour {
            "sim" => SimExecutor::new(EngineConfig::default())
                .run(&wf)
                .unwrap_err(),
            _ => LiveExecutor::default().run(&wf).unwrap_err(),
        };
        let msg = err.to_string();
        assert!(
            msg.contains("fragile operator") && msg.contains("corrupt record"),
            "{flavour}: {msg}"
        );
    }
}

#[test]
fn notebook_error_is_cell_level() {
    let mut nb = Notebook::new("err");
    nb.push(Cell::new("good", "x = 1", |k| {
        k.set("x", 1i64);
        Ok(())
    }));
    nb.push(Cell::new("bad cell", "y = undefined_name", |k| {
        k.get::<i64>("undefined_name")?;
        Ok(())
    }));
    let mut kernel = Kernel::new(&ClusterSpec::single_node(2), RayConfig::default());
    let err = nb.run_all(&mut kernel).unwrap_err();
    assert_eq!(err.cell, Some(1));
    assert_eq!(err.cell_name.as_deref(), Some("bad cell"));
    assert!(err.to_string().contains("NameError"), "{err}");
    // The failing run still advanced the execution counter through the
    // good cell.
    assert_eq!(kernel.execution_count(), 2);
}

#[test]
fn pipelining_ablation_never_changes_data() {
    let (wf_a, h_a) = gnarly(1_500, 3);
    SimExecutor::new(EngineConfig::default())
        .run(&wf_a)
        .unwrap();
    let (wf_b, h_b) = gnarly(1_500, 3);
    SimExecutor::new(EngineConfig::default().without_pipelining())
        .run(&wf_b)
        .unwrap();
    assert_eq!(fingerprints(&h_a), fingerprints(&h_b));
}

#[test]
fn sim_executor_is_deterministic_end_to_end() {
    let run = || {
        let (wf, h) = gnarly(3_000, 4);
        let res = SimExecutor::new(EngineConfig::default()).run(&wf).unwrap();
        (res.makespan(), res.metrics.events, fingerprints(&h))
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "makespan must be bit-identical");
    assert_eq!(a.1, b.1, "event count must match");
    assert_eq!(a.2, b.2, "data must match");
}

//! Live-vs-sim observability parity: on the same DAG, the pooled live
//! executor's sampled [`ProgressTrace`] must end in the same per-operator
//! tuple counts and terminal states the simulated executor reports, and a
//! failing operator must surface as `Failed` in the live trace instead of
//! hanging the pool.

use std::sync::Arc;
use std::time::Duration;

use scriptflow::core::{BackendKind, Calibration};
use scriptflow::datakit::{Batch, DataError, DataType, Schema, Value};
use scriptflow::simcluster::{ClusterSpec, SimDuration};
use scriptflow::tasks::dice::{workflow::build_dice_workflow, DiceParams};
use scriptflow::workflow::ops::{FilterOp, ScanOp, SinkOp};
use scriptflow::workflow::{
    render_timeline, EngineConfig, ExecBackend, LiveExecutor, OperatorState, PartitionStrategy,
    ProgressTrace, ResultCache, SimExecutor, TraceJson, Workflow, WorkflowBuilder,
};

/// The last sample, flattened to comparable per-operator facts.
fn final_counts(trace: &ProgressTrace) -> Vec<(String, OperatorState, u64, u64)> {
    let (_, snaps) = trace.samples.last().expect("non-empty trace");
    snaps
        .iter()
        .map(|s| (s.name.clone(), s.state, s.input_tuples, s.output_tuples))
        .collect()
}

#[test]
fn dice_live_trace_matches_sim_executor() {
    let cal = Calibration::paper();
    let params = DiceParams::new(12, 2);

    let (wf, _sink) = build_dice_workflow(&params, &cal).expect("valid DAG");
    let cfg = EngineConfig {
        cluster: ClusterSpec::paper_cluster(),
        batch_size: cal.wf_batch_size,
        serde_per_tuple: cal.wf_serde_per_tuple,
        pipelining: cal.wf_pipelining,
        ..EngineConfig::default()
    };
    let sim = SimExecutor::new(cfg)
        .with_trace(SimDuration::from_millis(100))
        .run(&wf)
        .expect("sim run");

    let (wf, _sink) = build_dice_workflow(&params, &cal).expect("valid DAG");
    let live = LiveExecutor::new(64)
        .with_trace(Duration::from_micros(500))
        .run(&wf)
        .expect("live run");

    assert!(!live.trace.is_empty(), "live trace must carry samples");
    assert!(!sim.trace.is_empty(), "sim trace must carry samples");
    assert_eq!(
        final_counts(&live.trace),
        final_counts(&sim.trace),
        "terminal per-operator states and tuple counts must agree"
    );

    // Sample instants are monotone, so the GUI can replay in order.
    for w in live.trace.samples.windows(2) {
        assert!(w[0].0 <= w[1].0, "live sample times must be ascending");
    }

    // Both traces render through the same timeline code path, unchanged.
    for trace in [&live.trace, &sim.trace] {
        let text = render_timeline(trace);
        assert!(!text.is_empty());
        assert!(text.contains("samples from"), "{text}");
    }

    // The live trace survives the JSON wire format losslessly.
    let text = TraceJson::from_trace(&live.trace).to_string_compact();
    let back = TraceJson::parse(&text).expect("parse back");
    assert_eq!(back.samples, live.trace.samples);
}

#[test]
fn failing_operator_surfaces_failed_state_in_live_trace() {
    let schema = Schema::of(&[("id", DataType::Int)]);
    let batch =
        Batch::from_rows(schema, (0..500i64).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
    let bad = b.add(
        Arc::new(FilterOp::new("fragile", |t| {
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

    // `run_observed` hands back the trace even though the run errors.
    let (trace, result) = LiveExecutor::new(64)
        .with_trace(Duration::from_millis(1))
        .run_observed(&wf);
    let err = result.expect_err("the fragile operator must fail the run");
    assert!(err.to_string().contains("corrupt record"), "{err}");

    let (_, snaps) = trace.samples.last().expect("trace present on failure");
    let fragile = snaps.iter().find(|s| s.name == "fragile").expect("probe");
    assert_eq!(fragile.state, OperatorState::Failed);
}

/// A cache-served operator never executes, so its hit can only reach
/// the trace from the planner's marker. Both backends must show it on
/// every sample of the warm run — in the observed trace, the result's
/// copy and the exported JSON alike.
#[test]
fn served_operator_shows_its_cache_hit_in_the_trace_on_both_backends() {
    fn pipeline() -> Workflow {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let batch =
            Batch::from_rows(schema, (0..200i64).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
        let even = b.add(
            Arc::new(FilterOp::new("even", |t| Ok(t.get_int("id")? % 2 == 0))),
            2,
        );
        let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
        b.connect(scan, even, 0, PartitionStrategy::RoundRobin);
        b.connect(even, sink, 0, PartitionStrategy::Single);
        b.build().unwrap()
    }
    for kind in BackendKind::ALL {
        let cache = Arc::new(ResultCache::new());
        let backend = || {
            ExecBackend::of_kind(
                kind,
                EngineConfig::default().with_result_cache(cache.clone()),
            )
        };
        let (cold_trace, cold) = backend().run_observed(&pipeline());
        cold.expect("cold run");
        let (_, snaps) = cold_trace.samples.last().expect("terminal sample");
        assert!(
            snaps.iter().all(|s| s.counters.cache_hits == 0),
            "{kind}: nothing to serve on a cold cache"
        );

        let (observed, warm) = backend().run_observed(&pipeline());
        let warm = warm.expect("warm run");
        // The frontier `even` is served; its upstream cone is skipped.
        let served = warm.metrics.by_name("even").expect("served operator");
        assert_eq!(served.counters.cache_hits, 1, "{kind}");
        let text = TraceJson::from_trace(&observed).to_string_compact();
        let parsed = TraceJson::parse(&text).expect("parse back");
        for (what, trace) in [
            ("observed", &observed),
            ("result", &warm.trace),
            ("json", &parsed),
        ] {
            let (_, snaps) = trace.samples.last().expect("terminal sample");
            let even = snaps.iter().find(|s| s.name == "even").expect("snapshot");
            assert_eq!(even.counters, served.counters, "{kind}/{what}");
        }
    }
}

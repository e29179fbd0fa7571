//! Quickstart: build a small GUI-style workflow, run it on both the
//! simulated cluster and real OS threads, and render its "GUI" state.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use scriptflow::datakit::{Batch, DataType, Schema, Value};
use scriptflow::simcluster::ClusterSpec;
use scriptflow::workflow::gui;
use scriptflow::workflow::ops::{AggFn, AggregateOp, FilterOp, ScanOp, SinkOp};
use scriptflow::workflow::{
    EngineConfig, LiveExecutor, PartitionStrategy, SimExecutor, WorkflowBuilder,
};

fn main() {
    // 1. Some data: 10k sensor readings.
    let schema = Schema::of(&[("sensor", DataType::Str), ("value", DataType::Float)]);
    let rows = (0..10_000i64)
        .map(|i| {
            vec![
                Value::Str(format!("s{}", i % 7)),
                Value::Float((i % 100) as f64 / 10.0),
            ]
        })
        .collect();
    let batch = Batch::from_rows(schema, rows).expect("rows conform");

    // 2. A workflow: scan → filter hot readings → per-sensor stats → view.
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("Readings Scan", batch)), 2);
    let filter = b.add(
        Arc::new(FilterOp::new("Hot Readings", |t| {
            Ok(t.get_float("value")? > 5.0)
        })),
        4,
    );
    let agg = b.add(
        Arc::new(AggregateOp::new(
            "Per-Sensor Stats",
            &["sensor"],
            vec![
                AggFn::Count("n".into()),
                AggFn::Avg("value".into()),
                AggFn::Max("value".into()),
            ],
        )),
        2,
    );
    let sink_op = SinkOp::new("View Results");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);
    b.connect(scan, filter, 0, PartitionStrategy::RoundRobin);
    b.connect(
        filter,
        agg,
        0,
        PartitionStrategy::Hash(vec!["sensor".into()]),
    );
    b.connect(agg, sink, 0, PartitionStrategy::Single);
    let wf = b.build().expect("valid workflow");

    println!("== workflow structure ==\n{}", gui::render_ascii(&wf));

    // 3. Run on the simulated paper cluster (virtual time).
    let cfg = EngineConfig {
        cluster: ClusterSpec::paper_cluster(),
        ..EngineConfig::default()
    };
    let sim = SimExecutor::new(cfg).run(&wf).expect("sim run");
    println!(
        "== simulated run ==\n{}",
        gui::render_run_ascii(&wf, &sim.metrics)
    );

    let mut sim_rows: Vec<(String, i64, f64, f64)> = handle
        .results()
        .iter()
        .map(|t| {
            (
                t.get_str("sensor").unwrap().to_owned(),
                t.get_int("n").unwrap(),
                t.get_float("avg_value").unwrap(),
                t.get_float("max_value").unwrap(),
            )
        })
        .collect();
    sim_rows.sort_by(|a, b| a.0.cmp(&b.0));
    handle.clear();

    // 4. Run the SAME workflow on real OS threads.
    let live = LiveExecutor::default().run(&wf).expect("live run");
    let mut live_rows: Vec<(String, i64, f64, f64)> = handle
        .results()
        .iter()
        .map(|t| {
            (
                t.get_str("sensor").unwrap().to_owned(),
                t.get_int("n").unwrap(),
                t.get_float("avg_value").unwrap(),
                t.get_float("max_value").unwrap(),
            )
        })
        .collect();
    live_rows.sort_by(|a, b| a.0.cmp(&b.0));

    println!(
        "== live run ==\nwall-clock: {:?} over {} worker threads",
        live.elapsed, live.metrics.total_workers
    );
    // Counts/max are exact; averages agree up to f64 summation order
    // (thread arrival order differs between executors).
    assert_eq!(sim_rows.len(), live_rows.len());
    for (s, l) in sim_rows.iter().zip(&live_rows) {
        assert_eq!((&s.0, s.1, s.3), (&l.0, l.1, l.3));
        assert!((s.2 - l.2).abs() < 1e-9, "avg mismatch: {s:?} vs {l:?}");
    }
    println!("\nper-sensor stats ({} groups):", live_rows.len());
    for (sensor, n, avg, max) in &live_rows {
        println!("  {sensor}: n={n} avg={avg:.3} max={max}");
    }
    println!(
        "\nGUI state as JSON:\n{}",
        gui::metrics_json(&sim.metrics).to_string_compact()
    );
}

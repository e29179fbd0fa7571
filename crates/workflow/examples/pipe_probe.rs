use scriptflow_datakit::{Batch, DataType, Schema, Value};
use scriptflow_simcluster::ClusterSpec;
use scriptflow_workflow::ops::{ScanOp, SinkOp, UdfOp};
use scriptflow_workflow::{
    CostProfile, EngineConfig, PartitionStrategy, SimExecutor, WorkflowBuilder,
};
use std::sync::Arc;

fn main() {
    let schema = Schema::of(&[("id", DataType::Int)]);
    let batch =
        Batch::from_rows(schema, (0..6800i64).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
    let mk = |name: &str| {
        Arc::new(
            UdfOp::with_schema_fn(
                name,
                1,
                |i| Ok((*i[0]).clone()),
                |t, _, o| {
                    o.emit(t);
                    Ok(())
                },
            )
            .with_cost(CostProfile {
                per_tuple: scriptflow_simcluster::SimDuration::from_micros(18_000),
                ..CostProfile::default()
            }),
        )
    };
    let a = b.add(mk("a"), 1);
    let c = b.add(mk("c"), 1);
    let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
    b.connect(scan, a, 0, PartitionStrategy::RoundRobin);
    b.connect(a, c, 0, PartitionStrategy::RoundRobin);
    b.connect(c, sink, 0, PartitionStrategy::Single);
    let wf = b.build().unwrap();
    let cfg = EngineConfig {
        cluster: ClusterSpec::paper_cluster(),
        batch_size: 400,
        ..EngineConfig::default()
    };
    let res = SimExecutor::new(cfg).run(&wf).unwrap();
    println!(
        "two equal 18ms stages over 6800 tuples: {:.2}s (expect ~130 pipelined, ~250 serialized)",
        res.makespan().as_secs_f64()
    );
}

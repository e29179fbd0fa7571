//! Cluster-simulator playground: the substrate the paradigm engines run
//! on — virtual time, CPU pools, the object store, language profiles —
//! plus the engine's observability features (progress trace, pause /
//! resume, Gantt chart).
//!
//! ```text
//! cargo run --release --example cluster_playground
//! ```

use std::sync::Arc;

use scriptflow::datakit::{Batch, DataType, Schema, Value};
use scriptflow::simcluster::{
    ClusterSpec, CpuPool, Language, LanguageTable, ObjectStoreModel, SimDuration, SimTime,
};
use scriptflow::workflow::ops::{FilterOp, ScanOp, SinkOp};
use scriptflow::workflow::{
    gui, trace, CostProfile, EngineConfig, PartitionStrategy, SimExecutor, WorkflowBuilder,
};

fn main() {
    // --- CPU pool: Ray's num_cpus accounting in miniature -------------
    println!("== CPU pool ==");
    let mut pool = CpuPool::new(4);
    for i in 0..6 {
        let r = pool.reserve(SimTime::ZERO, 1, SimDuration::from_secs(10));
        println!("  task {i}: starts {} finishes {}", r.start, r.finish);
    }

    // --- Object store: the GOTTA mechanism -----------------------------
    println!("\n== object store (1.59 GB model) ==");
    let mut store = ObjectStoreModel::default();
    let (model, put_cost) = store.put(1_590_000_000);
    println!("  put: {put_cost}");
    for task in 0..3 {
        let get = store.get(model).expect("model resident");
        println!("  task {task} get: {get}  (every task pays again)");
    }

    // --- Language profiles: the Table I mechanism ----------------------
    println!("\n== language profiles ==");
    let langs = LanguageTable::default();
    let base = SimDuration::from_millis(100);
    for lang in Language::ALL {
        println!(
            "  {lang:<7} compute {}  serde {}",
            langs.compute(lang, base),
            langs.serde(lang, base)
        );
    }

    // --- Engine observability: trace + pause + Gantt -------------------
    println!("\n== traced, paused workflow run ==");
    let schema = Schema::of(&[("id", DataType::Int)]);
    let batch =
        Batch::from_rows(schema, (0..3_000i64).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
    let work = b.add(
        Arc::new(FilterOp::new("work", |_| Ok(true)).with_cost(CostProfile::per_tuple_micros(400))),
        2,
    );
    let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
    b.connect(scan, work, 0, PartitionStrategy::RoundRobin);
    b.connect(work, sink, 0, PartitionStrategy::Single);
    let wf = b.build().unwrap();

    let res = SimExecutor::new(EngineConfig {
        cluster: ClusterSpec::paper_cluster(),
        ..EngineConfig::default()
    })
    .with_trace(SimDuration::from_millis(100))
    .with_pause(SimTime::from_micros(300_000), SimDuration::from_millis(300))
    .with_worker_timeline()
    .run(&wf)
    .expect("run");

    println!("timeline (I=init R=running P=paused C=completed):");
    print!("{}", trace::render_timeline(&res.trace));
    println!("\nGantt (worker busy intervals):");
    print!(
        "{}",
        gui::render_gantt(&wf, &res.worker_timeline, res.makespan(), 60)
    );
    println!(
        "\nutilization: {}",
        res.metrics
            .operators
            .iter()
            .map(|m| format!("{} {:.0}%", m.name, m.utilization(res.makespan()) * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

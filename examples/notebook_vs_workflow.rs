//! The qualitative comparison of §III, executable: implicit notebook
//! state and out-of-order execution (with lineage auditing) vs explicit
//! workflow edges; cell-level vs operator-level error traces.
//!
//! ```text
//! cargo run --release --example notebook_vs_workflow
//! ```

use std::sync::Arc;

use scriptflow::datakit::{Batch, DataType, Schema, Value};
use scriptflow::notebook::{Cell, Kernel, LineageGraph, Notebook};
use scriptflow::raysim::RayConfig;
use scriptflow::simcluster::ClusterSpec;
use scriptflow::workflow::ops::{FilterOp, ScanOp, SinkOp};
use scriptflow::workflow::{EngineConfig, PartitionStrategy, SimExecutor, WorkflowBuilder};

fn main() {
    // ---------- Script paradigm: Fig. 8's notebook --------------------
    let mut nb = Notebook::new("fig8");
    nb.push(
        Cell::new("Load", "data = fetch_20newsgroups()", |k| {
            k.set("data", vec![1i64, 2, 3]);
            Ok(())
        })
        .writes(&["data"]),
    );
    nb.push(
        Cell::new(
            "Sentiment_Analysis",
            "predicted = text_clf.fit(data).predict(data)",
            |k| {
                let data = k.get::<Vec<i64>>("data")?;
                k.set(
                    "predicted",
                    data.iter().map(|x| x % 2).collect::<Vec<i64>>(),
                );
                Ok(())
            },
        )
        .reads(&["data"])
        .writes(&["predicted"]),
    );
    nb.push(
        Cell::new("Write", "write(data)", |k| {
            let _ = k.get::<Vec<i64>>("data")?;
            Ok(())
        })
        .reads(&["data"]),
    );

    let graph = LineageGraph::from_notebook(&nb);
    println!("== notebook lineage (reconstructed from reads/writes) ==");
    for i in 0..nb.len() {
        println!(
            "  cell {} ({}) depends on {:?}",
            i,
            nb.cells()[i].name(),
            graph.deps(i)
        );
    }

    // The paper's point: users may execute Write before Sentiment_Analysis.
    let mut kernel = Kernel::new(&ClusterSpec::single_node(2), RayConfig::default());
    nb.run_in_order(&[0, 2, 1], &mut kernel)
        .expect("reordered run works");
    println!(
        "\nout-of-order run [Load, Write, Sentiment_Analysis] is fine: audit -> {:?}",
        graph.audit(&nb, &[0, 2, 1])
    );
    // But running a dependent cell first is a latent NameError the
    // paradigm only reports at run time, with a cell-level trace:
    let mut fresh = Kernel::new(&ClusterSpec::single_node(2), RayConfig::default());
    let err = nb.run_cell(1, &mut fresh).unwrap_err();
    println!("running cell 1 first -> cell-level trace: {err}");
    println!(
        "lineage audit flags it statically: {:?}",
        graph.audit(&nb, &[1, 0, 2])
    );

    // ---------- Workflow paradigm: the same hazard is unrepresentable --
    println!("\n== workflow paradigm ==");
    let schema = Schema::of(&[("id", DataType::Int)]);
    let batch =
        Batch::from_rows(schema, (0..100i64).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    let mut b = WorkflowBuilder::new();
    let load = b.add(Arc::new(ScanOp::new("Load", batch)), 1);
    let analyze = b.add(
        Arc::new(FilterOp::new("Sentiment_Analysis", |t| {
            Ok(t.get_int("id")? % 2 == 0)
        })),
        2,
    );
    let write = b.add(Arc::new(SinkOp::new("Write")), 1);
    b.connect(load, analyze, 0, PartitionStrategy::RoundRobin);
    b.connect(analyze, write, 0, PartitionStrategy::Single);
    let wf = b.build().expect("explicit edges force a valid order");
    println!(
        "explicit DAG; execution order is the topological order {:?} — no reordering possible",
        wf.topo_order()
    );

    // Operator-level error trace: a failing operator names itself.
    let mut bad = WorkflowBuilder::new();
    let schema2 = Schema::of(&[("id", DataType::Int)]);
    let batch2 =
        Batch::from_rows(schema2, (0..10i64).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    let s = bad.add(Arc::new(ScanOp::new("Load", batch2)), 1);
    let f = bad.add(
        Arc::new(FilterOp::new("Sentiment_Analysis", |t| {
            t.get_int("missing_column")?; // the bug
            Ok(true)
        })),
        1,
    );
    let k = bad.add(Arc::new(SinkOp::new("Write")), 1);
    bad.connect(s, f, 0, PartitionStrategy::RoundRobin);
    bad.connect(f, k, 0, PartitionStrategy::Single);
    let wf_bad = bad.build().unwrap();
    let err = SimExecutor::new(EngineConfig::default())
        .run(&wf_bad)
        .unwrap_err();
    println!("failing operator -> operator-level trace: {err}");
}

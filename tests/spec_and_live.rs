//! Cross-feature integration: JSON workflow specs executed on both
//! executors, compared against the eager DataFrame pipeline computing
//! the same query.

use scriptflow::datakit::{Batch, DataFrame, DataType, MergeHow, Schema, Value};
use scriptflow::workflow::{spec, EngineConfig, LiveExecutor, SimExecutor};

/// One query, three engines: a declarative spec run (a) simulated and
/// (b) on real threads, versus (c) the pandas-style DataFrame — the
/// script paradigm's eager evaluation. All three must agree.
#[test]
fn spec_sim_live_and_dataframe_agree() {
    // Candidates join labels, keep big ones, count per label.
    let spec_text = r#"{
        "operators": [
            {"id": "facts", "type": "InlineScan", "workers": 2,
             "schema": [["k", "Int"], ["x", "Float"]],
             "rows": [[1, 5.0], [2, 0.5], [1, 7.0], [3, 9.0], [2, 8.0],
                      [1, 0.1], [3, 4.0], [2, 6.0]]},
            {"id": "dims", "type": "InlineScan",
             "schema": [["k", "Int"], ["label", "Str"]],
             "rows": [[1, "a"], [2, "b"], [3, "c"]]},
            {"id": "big", "type": "Filter",
             "predicate": {"column": "x", "op": ">", "value": 1.0}},
            {"id": "join", "type": "HashJoin", "probe": ["k"], "build": ["k"]},
            {"id": "agg", "type": "Aggregate", "group_by": ["label"],
             "aggregations": ["count as n", "sum(x)"]},
            {"id": "out", "type": "Sink"}
        ],
        "links": [
            {"from": "facts", "to": "big", "port": 0, "partition": "round-robin"},
            {"from": "dims", "to": "join", "port": 0, "partition": "hash", "keys": ["k"]},
            {"from": "big", "to": "join", "port": 1, "partition": "hash", "keys": ["k"]},
            {"from": "join", "to": "agg", "port": 0, "partition": "hash", "keys": ["label"]},
            {"from": "agg", "to": "out", "port": 0, "partition": "single"}
        ]
    }"#;

    let collect = |rows: Vec<(String, i64, f64)>| {
        let mut rows = rows;
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    };

    // (a) simulated.
    let sim_spec = spec::parse(spec_text).expect("valid spec");
    SimExecutor::new(EngineConfig::default())
        .run(&sim_spec.workflow)
        .expect("sim run");
    let sim_rows = collect(
        sim_spec.sinks["out"]
            .results()
            .iter()
            .map(|t| {
                (
                    t.get_str("label").unwrap().to_owned(),
                    t.get_int("n").unwrap(),
                    t.get_float("sum_x").unwrap(),
                )
            })
            .collect(),
    );

    // (b) live threads (fresh spec: sinks are per-instance).
    let live_spec = spec::parse(spec_text).expect("valid spec");
    LiveExecutor::new(4)
        .run(&live_spec.workflow)
        .expect("live run");
    let live_rows = collect(
        live_spec.sinks["out"]
            .results()
            .iter()
            .map(|t| {
                (
                    t.get_str("label").unwrap().to_owned(),
                    t.get_int("n").unwrap(),
                    t.get_float("sum_x").unwrap(),
                )
            })
            .collect(),
    );

    // (c) eager DataFrame (the script paradigm's pandas style).
    let facts = DataFrame::new(
        Batch::from_rows(
            Schema::of(&[("k", DataType::Int), ("x", DataType::Float)]),
            vec![
                vec![Value::Int(1), Value::Float(5.0)],
                vec![Value::Int(2), Value::Float(0.5)],
                vec![Value::Int(1), Value::Float(7.0)],
                vec![Value::Int(3), Value::Float(9.0)],
                vec![Value::Int(2), Value::Float(8.0)],
                vec![Value::Int(1), Value::Float(0.1)],
                vec![Value::Int(3), Value::Float(4.0)],
                vec![Value::Int(2), Value::Float(6.0)],
            ],
        )
        .unwrap(),
    );
    let dims = DataFrame::new(
        Batch::from_rows(
            Schema::of(&[("k", DataType::Int), ("label", DataType::Str)]),
            vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Int(2), Value::Str("b".into())],
                vec![Value::Int(3), Value::Str("c".into())],
            ],
        )
        .unwrap(),
    );
    let joined = facts
        .filter(|t| Ok(t.get_float("x")? > 1.0))
        .unwrap()
        .merge(&dims, &["k"], &["k"], MergeHow::Inner)
        .unwrap();
    // Group sums via group_count for n, manual fold for sum.
    let mut df_rows: Vec<(String, i64, f64)> = Vec::new();
    for label in ["a", "b", "c"] {
        let group = joined.filter(|t| Ok(t.get_str("label")? == label)).unwrap();
        if group.is_empty() {
            continue;
        }
        let n = group.len() as i64;
        let sum: f64 = group
            .batch()
            .tuples()
            .iter()
            .map(|t| t.get_float("x").unwrap())
            .sum();
        df_rows.push((label.to_owned(), n, sum));
    }
    let df_rows = collect(df_rows);

    assert_eq!(sim_rows, live_rows, "sim vs live");
    assert_eq!(sim_rows.len(), df_rows.len());
    for (s, d) in sim_rows.iter().zip(&df_rows) {
        assert_eq!((s.0.as_str(), s.1), (d.0.as_str(), d.1));
        assert!((s.2 - d.2).abs() < 1e-9, "{s:?} vs {d:?}");
    }
}

/// Specs with UDF-free palettes still exercise pause/trace features.
#[test]
fn spec_run_with_trace_and_pause() {
    let text = r#"{
        "operators": [
            {"id": "src", "type": "InlineScan",
             "schema": [["v", "Int"]],
             "rows": [[1], [2], [3], [4], [5], [6], [7], [8]]},
            {"id": "keep", "type": "Filter",
             "predicate": {"column": "v", "op": "!=", "value": 4}},
            {"id": "out", "type": "Sink"}
        ],
        "links": [
            {"from": "src", "to": "keep", "port": 0},
            {"from": "keep", "to": "out", "port": 0, "partition": "single"}
        ]
    }"#;
    let spec = spec::parse(text).unwrap();
    let res = SimExecutor::new(EngineConfig::default())
        .with_trace(scriptflow::simcluster::SimDuration::from_millis(50))
        .with_worker_timeline()
        .run(&spec.workflow)
        .unwrap();
    assert_eq!(spec.sinks["out"].len(), 7);
    assert!(!res.trace.is_empty());
    assert!(res.trace.completion_sample().is_some());
    assert!(!res.worker_timeline.is_empty());
}

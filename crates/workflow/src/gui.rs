//! "GUI" rendering: the workflow graph and its runtime state as ASCII and
//! JSON documents.
//!
//! There is no browser front-end in this reproduction; instead the engine
//! renders exactly the information Texera's GUI shows — the DAG, each
//! operator's status colour, and its input/output tuple counts (Figs. 2
//! and 9) — as a text diagram for terminals and a JSON document a
//! front-end could consume.
//!
//! Every renderer here is executor-agnostic: [`RunMetrics`] and
//! [`ProgressTrace`] carry the same shape whether they came from the
//! simulated executor's virtual clock or the pooled live executor's
//! wall-clock tracer, so one GUI layer displays both paradigms.

use scriptflow_datakit::codec::Json;

use crate::dag::{OpId, Workflow};
use crate::exec_sim::WorkerInterval;
use crate::metrics::RunMetrics;
use crate::trace::{ProgressTrace, TraceJson};
use scriptflow_simcluster::SimTime;

/// Render the workflow structure as an ASCII diagram: one line per
/// operator in topological order, with edge annotations.
pub fn render_ascii(wf: &Workflow) -> String {
    let mut out = String::new();
    for &op in wf.topo_order() {
        let node = wf.op(op);
        let desc = node.desc();
        out.push_str(&format!(
            "[{}] ({} x{} workers, {})\n",
            desc.name,
            desc.language,
            node.parallelism,
            wf.schema(op)
        ));
        for (_, e) in wf.out_edges(op) {
            out.push_str(&format!(
                "  └─({})─▶ [{}].port{}\n",
                e.partition.label(),
                wf.op(e.to).desc().name,
                e.to_port
            ));
        }
    }
    out
}

/// Render the workflow plus run metrics the way the GUI displays a live
/// execution: status colour and tuple counters per operator.
pub fn render_run_ascii(wf: &Workflow, metrics: &RunMetrics) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "run: makespan {:.3}s, {} workers, {} events\n",
        metrics.makespan.as_secs_f64(),
        metrics.total_workers,
        metrics.events
    ));
    for &op in wf.topo_order() {
        let desc = wf.op(op).desc();
        let m = &metrics.operators[op.0];
        let counts = if desc.input_ports == 0 {
            // Source operators only show the output-tuple count (Fig. 9).
            format!("out={}", m.output_tuples)
        } else if wf.out_edges(op).is_empty() {
            // Sink operators only show the input-tuple count.
            format!("in={}", m.input_tuples)
        } else {
            format!("in={} out={}", m.input_tuples, m.output_tuples)
        };
        out.push_str(&format!(
            "[{}] {:<12} {} ({})\n",
            desc.name,
            format!("<{}>", m.state.color()),
            counts,
            desc.language
        ));
    }
    out
}

/// Export the workflow as a Graphviz DOT document (boxes labelled with
/// name, language, and worker count; edges labelled with the partition
/// strategy).
pub fn to_dot(wf: &Workflow) -> String {
    let mut out = String::from("digraph workflow {\n  rankdir=LR;\n  node [shape=box];\n");
    for (i, node) in wf.ops().iter().enumerate() {
        out.push_str(&format!(
            "  op{i} [label=\"{}\\n{} x{}\"];\n",
            node.desc().name.replace('"', "'"),
            node.desc().language,
            node.parallelism
        ));
    }
    for e in wf.edges() {
        out.push_str(&format!(
            "  op{} -> op{} [label=\"{}\"];\n",
            e.from.0,
            e.to.0,
            e.partition.label()
        ));
    }
    out.push_str("}\n");
    out
}

/// Render a worker timeline as a text Gantt chart: one row per worker,
/// `#` marking busy columns over `width` buckets of the makespan.
pub fn render_gantt(
    wf: &Workflow,
    timeline: &[WorkerInterval],
    makespan: SimTime,
    width: usize,
) -> String {
    assert!(width > 0, "gantt width must be positive");
    let total = makespan.as_micros().max(1);
    let mut rows: Vec<(String, Vec<bool>)> = Vec::new();
    for node in wf.ops() {
        for w in 0..node.parallelism {
            rows.push((format!("{}[{w}]", node.desc().name), vec![false; width]));
        }
    }
    // Map (op, worker) to its row index.
    let row_of = |op: OpId, worker: usize| -> usize {
        let mut idx = 0;
        for (i, node) in wf.ops().iter().enumerate() {
            if i == op.0 {
                return idx + worker;
            }
            idx += node.parallelism;
        }
        unreachable!("interval references a missing operator")
    };
    for iv in timeline {
        let row = row_of(iv.op, iv.worker);
        let lo = (iv.start.as_micros() * width as u64 / total).min(width as u64 - 1) as usize;
        let hi = (iv.end.as_micros() * width as u64 / total).min(width as u64 - 1) as usize;
        for cell in &mut rows[row].1[lo..=hi] {
            *cell = true;
        }
    }
    let label_w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(4);
    let mut out = String::new();
    for (name, cells) in rows {
        out.push_str(&format!("{name:<label_w$} |"));
        for busy in cells {
            out.push(if busy { '#' } else { ' ' });
        }
        out.push_str(
            "|
",
        );
    }
    out.push_str(&format!(
        "{:<label_w$} |{}| 0 .. {:.3}s
",
        "(time)",
        "-".repeat(width),
        makespan.as_secs_f64()
    ));
    out
}

/// The workflow structure as a JSON document (operators + links), the
/// wire format a web front-end would load.
pub fn workflow_json(wf: &Workflow) -> Json {
    let ops: Vec<Json> = (0..wf.ops().len())
        .map(OpId)
        .map(|id| {
            let node = wf.op(id);
            let desc = node.desc();
            Json::Object(vec![
                ("id".into(), Json::Int(id.0 as i64)),
                ("name".into(), Json::Str(desc.name.clone())),
                ("language".into(), Json::Str(desc.language.to_string())),
                ("workers".into(), Json::Int(node.parallelism as i64)),
                ("inputPorts".into(), Json::Int(desc.input_ports as i64)),
                ("schema".into(), Json::Str(wf.schema(id).to_string())),
            ])
        })
        .collect();
    let links: Vec<Json> = wf
        .edges()
        .iter()
        .map(|e| {
            Json::Object(vec![
                ("from".into(), Json::Int(e.from.0 as i64)),
                ("to".into(), Json::Int(e.to.0 as i64)),
                ("toPort".into(), Json::Int(e.to_port as i64)),
                ("partition".into(), Json::Str(e.partition.label())),
            ])
        })
        .collect();
    Json::Object(vec![
        ("operators".into(), Json::Array(ops)),
        ("links".into(), Json::Array(links)),
    ])
}

/// Run metrics as a JSON document (per-operator status + counters).
pub fn metrics_json(metrics: &RunMetrics) -> Json {
    let ops: Vec<Json> = metrics
        .operators
        .iter()
        .map(|m| {
            Json::Object(vec![
                ("name".into(), Json::Str(m.name.clone())),
                ("state".into(), Json::Str(format!("{:?}", m.state))),
                ("color".into(), Json::Str(m.state.color().into())),
                ("inputTuples".into(), Json::Int(m.input_tuples as i64)),
                ("outputTuples".into(), Json::Int(m.output_tuples as i64)),
                ("workers".into(), Json::Int(m.workers as i64)),
                ("busySeconds".into(), Json::Float(m.busy.as_secs_f64())),
            ])
        })
        .collect();
    Json::Object(vec![
        (
            "makespanSeconds".into(),
            Json::Float(metrics.makespan.as_secs_f64()),
        ),
        (
            "totalWorkers".into(),
            Json::Int(metrics.total_workers as i64),
        ),
        ("operators".into(), Json::Array(ops)),
    ])
}

/// The complete observability document for one run: the workflow graph,
/// the final per-operator metrics, and the sampled progress trace, in one
/// JSON object (`{"workflow": …, "metrics": …, "trace": …}`).
///
/// This is what a front-end consumes to replay a run:
/// the graph gives the layout, the metrics give the terminal Fig.-9
/// counters, and the trace gives the animation frames. Works identically
/// for simulated and live runs.
pub fn observability_json(wf: &Workflow, metrics: &RunMetrics, trace: &ProgressTrace) -> Json {
    Json::Object(vec![
        ("workflow".into(), workflow_json(wf)),
        ("metrics".into(), metrics_json(metrics)),
        ("trace".into(), TraceJson::from_trace(trace).into_document()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EngineConfig;
    use crate::dag::WorkflowBuilder;
    use crate::exec_sim::SimExecutor;
    use crate::ops::{FilterOp, ScanOp, SinkOp};
    use crate::partition::PartitionStrategy;
    use scriptflow_datakit::{Batch, DataType, Schema, Value};
    use scriptflow_simcluster::ClusterSpec;
    use std::sync::Arc;

    fn sample() -> Workflow {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let batch =
            Batch::from_rows(schema, (0..10i64).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        let mut b = WorkflowBuilder::new();
        let s = b.add(Arc::new(ScanOp::new("JSONL Processing", batch)), 1);
        let f = b.add(
            Arc::new(FilterOp::new("Filter", |t| Ok(t.get_int("id")? < 5))),
            2,
        );
        let k = b.add(Arc::new(SinkOp::new("View Results")), 1);
        b.connect(s, f, 0, PartitionStrategy::RoundRobin);
        b.connect(f, k, 0, PartitionStrategy::Single);
        b.build().unwrap()
    }

    #[test]
    fn ascii_structure_lists_all_operators_and_edges() {
        let wf = sample();
        let text = render_ascii(&wf);
        assert!(text.contains("[JSONL Processing]"));
        assert!(text.contains("[Filter]"));
        assert!(text.contains("[View Results]"));
        assert!(text.contains("round-robin"));
        assert!(text.contains("x2 workers"));
    }

    #[test]
    fn run_ascii_shows_fig9_counts() {
        let wf = sample();
        let cfg = EngineConfig {
            cluster: ClusterSpec::single_node(2),
            ..EngineConfig::default()
        };
        let res = SimExecutor::new(cfg).run(&wf).unwrap();
        let text = render_run_ascii(&wf, &res.metrics);
        // Source shows only out=, sink only in= (paper Fig. 9).
        let src_line = text
            .lines()
            .find(|l| l.contains("JSONL Processing"))
            .unwrap();
        assert!(
            src_line.contains("out=10") && !src_line.contains("in="),
            "{src_line}"
        );
        assert!(text.contains("in=10 out=5"));
        let sink_line = text.lines().find(|l| l.contains("View Results")).unwrap();
        assert!(
            sink_line.contains("in=5") && !sink_line.contains("out="),
            "{sink_line}"
        );
        assert!(text.contains("<green>"));
    }

    #[test]
    fn json_documents_parse_back() {
        let wf = sample();
        let doc = workflow_json(&wf);
        let text = doc.to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        match parsed {
            Json::Object(kv) => {
                assert_eq!(kv[0].0, "operators");
                match &kv[0].1 {
                    Json::Array(ops) => assert_eq!(ops.len(), 3),
                    other => panic!("expected array, got {other:?}"),
                }
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn dot_export_lists_all_nodes_and_edges() {
        let wf = sample();
        let dot = to_dot(&wf);
        assert!(dot.starts_with("digraph workflow {"));
        assert!(dot.contains("JSONL Processing"));
        assert!(dot.contains("op0 -> op1"));
        assert!(dot.contains("round-robin"));
        assert_eq!(dot.matches(" -> ").count(), wf.edges().len());
    }

    #[test]
    fn gantt_marks_busy_workers() {
        let wf = sample();
        let cfg = EngineConfig {
            cluster: ClusterSpec::single_node(2),
            ..EngineConfig::default()
        };
        let res = SimExecutor::new(cfg)
            .with_worker_timeline()
            .run(&wf)
            .unwrap();
        assert!(!res.worker_timeline.is_empty());
        let text = render_gantt(&wf, &res.worker_timeline, res.makespan(), 40);
        // One row per worker: scan(1) + filter(2) + sink(1) = 4 + axis.
        assert_eq!(text.lines().count(), 5, "{text}");
        assert!(text.contains('#'));
        assert!(text.contains("Filter[1]"));
    }

    #[test]
    fn observability_json_merges_graph_metrics_and_trace() {
        use crate::exec_live::LiveExecutor;
        use scriptflow_simcluster::SimDuration;

        // Simulated run, sampled on the virtual clock.
        let wf = sample();
        let cfg = EngineConfig {
            cluster: ClusterSpec::single_node(2),
            ..EngineConfig::default()
        };
        let sim = SimExecutor::new(cfg)
            .with_trace(SimDuration::from_millis(1))
            .run(&wf)
            .unwrap();
        let doc = observability_json(&wf, &sim.metrics, &sim.trace);
        let text = doc.to_string_compact();
        assert!(text.contains("\"workflow\""));
        assert!(text.contains("\"metrics\""));
        assert!(text.contains("\"samples\""));

        // Live pooled run: same document shape, no special-casing.
        let wf2 = sample();
        let live = LiveExecutor::new(4).run(&wf2).unwrap();
        let live_doc = observability_json(&wf2, &live.metrics, &live.trace);
        let live_text = live_doc.to_string_compact();
        assert!(live_text.contains("\"samples\""));
        assert!(live_text.contains("\"state\":\"Completed\""));
    }

    #[test]
    fn metrics_json_includes_states() {
        let wf = sample();
        let cfg = EngineConfig {
            cluster: ClusterSpec::single_node(2),
            ..EngineConfig::default()
        };
        let res = SimExecutor::new(cfg).run(&wf).unwrap();
        let text = metrics_json(&res.metrics).to_string_compact();
        assert!(text.contains("\"state\":\"Completed\""));
        assert!(text.contains("\"color\":\"green\""));
    }
}

//! Paradigm fault-tolerance comparison (§III-A, accountability under
//! failure).
//!
//! The GUI paradigm's claim is that a failure stays *accountable*: the
//! engine pins it to one operator, every other operator keeps (and
//! shows) its progress, and the rows that already flowed downstream
//! survive in the sink. The script paradigm loses the whole unit: a
//! kernel fault costs the entire cell, a Ray stage abort throws away
//! every task behind the barrier, and the cells after the failure never
//! run at all. This module injects an equivalent mid-pipeline fault into
//! both paradigms — the workflow engine via a seeded
//! [`scriptflow_workflow::FaultPlan`], the script via
//! [`scriptflow_raysim::RayRuntime::arm_stage_abort`] — and counts what
//! each paradigm can say afterwards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scriptflow_core::{Artifact, BackendChoice, BackendKind, Experiment, ExperimentMeta, Table};
use scriptflow_datakit::{Batch, DataError, DataType, Schema, Value};
use scriptflow_notebook::{Cell, Kernel, Notebook};
use scriptflow_raysim::RayTask;
use scriptflow_simcluster::SimDuration;
use scriptflow_workflow::ops::{FilterOp, ScanOp, SinkHandle, SinkOp};
use scriptflow_workflow::{
    EngineConfig, ExecBackend, FaultPlan, LiveExecutor, OperatorState, PartitionStrategy,
    ProgressTrace, RetryConfig, RetryPolicy, Workflow, WorkflowBuilder,
};

use crate::{backend_workflow_label, SCRIPT_LABEL, WORKFLOW_LABEL};

/// Rows the load stage produces (identical for both paradigms).
const ROWS: i64 = 512;
/// 1-based tuple at which the injected fault strikes the parse stage.
const FAULT_AT: u64 = 400;

/// What one paradigm can report after an injected mid-pipeline fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// The paradigm's failure unit ("operator" or "cell").
    pub unit: &'static str,
    /// Where the paradigm pinned the failure.
    pub pinned_to: String,
    /// Units that still finished their work (fully or on partial input).
    pub units_finished: usize,
    /// Units whose work was lost (failed, or never ran).
    pub units_lost: usize,
    /// Rows that survived downstream of the fault.
    pub salvaged_rows: u64,
    /// Rows the same faulted run delivers once a
    /// [`RetryPolicy::default`] budget replays the faulted quantum: the
    /// workflow engine salvages *every* row, while the script paradigm
    /// has no unit smaller than the cell to retry, so it still salvages
    /// nothing.
    pub retry_salvaged: u64,
}

/// Build the load → parse → count → sink fault pipeline around the
/// given parse operator (the stage both backends inject their fault
/// into).
fn fault_pipeline(parse_op: FilterOp) -> (Workflow, SinkHandle) {
    let schema = Schema::of(&[("id", DataType::Int)]);
    let batch = Batch::from_rows(schema, (0..ROWS).map(|i| vec![Value::Int(i)]).collect())
        .expect("schema matches rows");

    let mut b = WorkflowBuilder::new();
    let load = b.add(Arc::new(ScanOp::new("load", batch)), 1);
    let parse = b.add(Arc::new(parse_op), 1);
    // "count" passes everything through; the sink tallies what arrives.
    let count = b.add(Arc::new(FilterOp::new("count", |_| Ok(true))), 1);
    let sink_op = SinkOp::new("sink");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);
    b.connect(load, parse, 0, PartitionStrategy::RoundRobin);
    b.connect(parse, count, 0, PartitionStrategy::RoundRobin);
    b.connect(count, sink, 0, PartitionStrategy::Single);
    (b.build().expect("fault pipeline is a valid DAG"), handle)
}

/// Read a [`FaultReport`] out of the partial trace a failed run left
/// behind.
fn report_from_trace(
    trace: &ProgressTrace,
    salvaged_rows: u64,
    retry_salvaged: u64,
) -> FaultReport {
    let (_, last) = trace
        .samples
        .last()
        .expect("partial trace survives the failure");
    let pinned_to = last
        .iter()
        .find(|s| s.state == OperatorState::Failed)
        .map(|s| format!("operator `{}`", s.name))
        .expect("the fault is pinned to one Failed operator");
    let units_finished = last
        .iter()
        .filter(|s| matches!(s.state, OperatorState::Completed | OperatorState::Degraded))
        .count();
    FaultReport {
        unit: "operator",
        pinned_to,
        units_finished,
        units_lost: last.len() - units_finished,
        salvaged_rows,
        retry_salvaged,
    }
}

/// Run a load → parse → count → sink pipeline on the pooled live
/// executor with a seeded fault plan that panics the parse operator at
/// tuple `FAULT_AT`, then read the partial trace back.
pub fn observe_workflow_fault(seed: u64) -> FaultReport {
    // "parse" drops malformed rows (every 7th id); the fault plan kills
    // it from outside at tuple FAULT_AT.
    let (wf, handle) = fault_pipeline(FilterOp::new("parse", |t| Ok(t.get_int("id")? % 7 != 0)));

    let plan = FaultPlan::new(seed).panic_at("parse", FAULT_AT);
    let (trace, result) = LiveExecutor::new(32)
        .with_pool_size(1)
        .with_faults(plan)
        .run_observed(&wf);
    assert!(result.is_err(), "the injected panic fails the run");

    // Same fault, but with the default retry budget: the faulted
    // quantum replays and the whole pipeline completes — every row is
    // salvaged, exactly once.
    let (wf, retry_handle) =
        fault_pipeline(FilterOp::new("parse", |t| Ok(t.get_int("id")? % 7 != 0)));
    let plan = FaultPlan::new(seed).panic_at("parse", FAULT_AT);
    let (_, retried) = LiveExecutor::new(32)
        .with_pool_size(1)
        .with_faults(plan)
        .with_retry(RetryConfig::uniform(RetryPolicy::default()))
        .run_observed(&wf);
    retried.expect("the default retry budget absorbs the injected panic");

    report_from_trace(&trace, handle.len() as u64, retry_handle.len() as u64)
}

/// [`observe_workflow_fault`] on an explicit backend. The live path
/// injects the fault from outside via the seeded [`FaultPlan`]; the
/// fault plan hooks the live worker pool, so the simulator's equivalent
/// fault is a parse operator whose decode fails at the same tuple
/// index. Both runs end with the failure pinned to `parse` in the
/// terminal trace sample.
pub fn observe_workflow_fault_on(kind: BackendKind, seed: u64) -> FaultReport {
    if kind == BackendKind::Live {
        return observe_workflow_fault(seed);
    }
    // The fault is one-shot (`==`, not `>=`): without a retry budget the
    // first error is sticky-fatal anyway, and with one the replayed
    // quantum (fresh call counts) parses cleanly — the sim analogue of a
    // transient crash.
    let flaky_parse = || {
        let calls = AtomicU64::new(0);
        FilterOp::new("parse", move |t| {
            let n = calls.fetch_add(1, Ordering::Relaxed) + 1;
            if n == FAULT_AT {
                return Err(DataError::Decode {
                    line: n as usize,
                    message: "injected decode fault".into(),
                });
            }
            Ok(t.get_int("id")? % 7 != 0)
        })
    };
    let (wf, handle) = fault_pipeline(flaky_parse());
    let (trace, result) = ExecBackend::sim(EngineConfig::default()).run_observed(&wf);
    assert!(result.is_err(), "the injected decode fault fails the run");

    let (wf, retry_handle) = fault_pipeline(flaky_parse());
    let retry_cfg = EngineConfig {
        retry: RetryConfig::uniform(RetryPolicy::default()),
        ..EngineConfig::default()
    };
    let (_, retried) = ExecBackend::sim(retry_cfg).run_observed(&wf);
    retried.expect("the default retry budget absorbs the decode fault");

    report_from_trace(&trace, handle.len() as u64, retry_handle.len() as u64)
}

/// Run the script-paradigm equivalent: a three-cell notebook (load,
/// parse on Ray, count) whose parse stage is armed to abort at its
/// barrier. The whole cell is lost, the count cell never runs, and no
/// parsed row survives.
pub fn observe_script_fault() -> FaultReport {
    let mut nb = Notebook::new("fault-script");
    nb.push(
        Cell::new("load", "rows = load_rows()", |k| {
            k.advance(SimDuration::from_millis(50));
            k.set("rows", ROWS as usize);
            Ok(())
        })
        .writes(&["rows"]),
    );
    nb.push(
        Cell::new(
            "parse",
            "parsed = ray.get([parse.remote(c) for c in chunks])",
            |k| {
                let rows = *k.get::<usize>("rows")?;
                let parsed = k.ray().parallel_map(
                    (0..4usize)
                        .map(|i| {
                            RayTask::new(
                                format!("parse{i}"),
                                SimDuration::from_millis(20),
                                move |_| Ok(rows / 4),
                            )
                        })
                        .collect::<Vec<_>>(),
                )?;
                k.set("parsed", parsed.iter().sum::<usize>());
                Ok(())
            },
        )
        .reads(&["rows"])
        .writes(&["parsed"]),
    );
    nb.push(
        Cell::new("count", "stats = count(parsed)", |k| {
            let _ = *k.get::<usize>("parsed")?;
            k.set("stats", 1usize);
            Ok(())
        })
        .reads(&["parsed"])
        .writes(&["stats"]),
    );

    let mut kernel = Kernel::paper_default();
    // The parse cell's parallel_map is this run's first Ray stage.
    kernel
        .ray()
        .arm_stage_abort(1, "worker node lost mid-stage");
    let err = nb
        .run_all(&mut kernel)
        .expect_err("the armed stage abort fails the notebook");

    let pinned_to = format!(
        "cell `{}` (In [{}])",
        err.cell_name.as_deref().unwrap_or("?"),
        err.execution_count.unwrap_or(0),
    );
    let units_finished = kernel.cell_spans().iter().filter(|s| s.ok).count();
    FaultReport {
        unit: "cell",
        pinned_to,
        // Lost: the failed cell's whole work, plus every cell after it
        // that never got to run.
        units_finished,
        units_lost: nb.len() - units_finished,
        // Nothing survives the barrier: `parsed` was never bound.
        salvaged_rows: if kernel.contains("parsed") { 1 } else { 0 },
        // The script has no retryable unit below the cell: re-running
        // replays the whole cell from scratch, and the aborted stage
        // left nothing behind to resume from.
        retry_salvaged: 0,
    }
}

/// The fault-tolerance comparison as a study experiment: one row per
/// paradigm, measured by injecting an equivalent mid-pipeline fault into
/// real runs of the reproduction's engines.
pub struct FaultComparison;

const COLUMNS: [&str; 7] = [
    "paradigm",
    "failure unit",
    "pinned to",
    "units finished",
    "units lost",
    "salvaged rows",
    "salvaged w/ retry",
];

impl Experiment for FaultComparison {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "fault",
            paper_artifact: "§III-A",
            description: "Fault tolerance: operator-pinned partial progress vs whole-cell loss",
        }
    }

    fn run(&self) -> Artifact {
        let wf = observe_workflow_fault(7);
        let sc = observe_script_fault();
        let mut t = Table::new("§III-A — fault accountability", &COLUMNS);
        for (label, r) in [(WORKFLOW_LABEL, &wf), (SCRIPT_LABEL, &sc)] {
            t.push_row(vec![
                label.to_owned(),
                r.unit.to_owned(),
                r.pinned_to.clone(),
                r.units_finished.to_string(),
                r.units_lost.to_string(),
                r.salvaged_rows.to_string(),
                r.retry_salvaged.to_string(),
            ]);
        }
        Artifact::Table(t)
    }

    fn run_on(&self, backend: BackendChoice) -> Artifact {
        if backend == BackendChoice::Sim {
            return self.run();
        }
        let mut t = Table::new(
            format!("§III-A — fault accountability [backend: {backend}]"),
            &COLUMNS,
        );
        for kind in backend.kinds() {
            let r = observe_workflow_fault_on(*kind, 7);
            t.push_row(vec![
                backend_workflow_label(*kind),
                r.unit.to_owned(),
                r.pinned_to.clone(),
                r.units_finished.to_string(),
                r.units_lost.to_string(),
                r.salvaged_rows.to_string(),
                r.retry_salvaged.to_string(),
            ]);
        }
        let sc = observe_script_fault();
        t.push_row(vec![
            SCRIPT_LABEL.to_owned(),
            sc.unit.to_owned(),
            sc.pinned_to.clone(),
            sc.units_finished.to_string(),
            sc.units_lost.to_string(),
            sc.salvaged_rows.to_string(),
            sc.retry_salvaged.to_string(),
        ]);
        Artifact::Table(t)
    }

    fn paper_reference(&self) -> Artifact {
        let mut t = Table::new("§III-A — fault accountability (paper)", &COLUMNS);
        t.push_row(vec![
            WORKFLOW_LABEL.to_owned(),
            "operator".to_owned(),
            "failed operator, colored in the GUI".to_owned(),
            "all others keep progress".to_owned(),
            "one".to_owned(),
            "partial results visible".to_owned(),
            "all rows (engine replays the quantum)".to_owned(),
        ]);
        t.push_row(vec![
            SCRIPT_LABEL.to_owned(),
            "cell".to_owned(),
            "cell trace (In [n])".to_owned(),
            "cells before the failure".to_owned(),
            "failed cell + everything after".to_owned(),
            "none past the stage barrier".to_owned(),
            "none (only the whole cell can re-run)".to_owned(),
        ]);
        Artifact::Table(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workflow_fault_pins_and_salvages() {
        let r = observe_workflow_fault(7);
        assert_eq!(r.unit, "operator");
        assert_eq!(r.pinned_to, "operator `parse`");
        // load completed; count and sink finished degraded on partial
        // input; only parse itself is lost.
        assert_eq!(r.units_finished, 3, "{r:?}");
        assert_eq!(r.units_lost, 1, "{r:?}");
        assert!(
            r.salvaged_rows > 0,
            "rows flushed before the fault survive in the sink: {r:?}"
        );
        // 512 rows minus the 74 ids divisible by 7 that parse drops:
        // with the default retry budget nothing else is lost.
        assert_eq!(r.retry_salvaged, 438, "{r:?}");
    }

    #[test]
    fn workflow_fault_report_is_deterministic() {
        assert_eq!(observe_workflow_fault(7), observe_workflow_fault(7));
    }

    #[test]
    fn sim_backend_fault_is_also_pinned_to_parse() {
        let r = observe_workflow_fault_on(BackendKind::Sim, 7);
        assert_eq!(r.unit, "operator");
        assert_eq!(r.pinned_to, "operator `parse`");
        // The simulator's terminal sample covers the whole DAG; at
        // minimum the parse operator itself is lost.
        assert!(r.units_lost >= 1, "{r:?}");
        assert_eq!(
            r.units_finished + r.units_lost,
            4,
            "all four operators accounted for: {r:?}"
        );
        assert_eq!(
            r.retry_salvaged, 438,
            "the sim retry replay salvages every row: {r:?}"
        );
    }

    #[test]
    fn script_fault_loses_the_cell_and_everything_after() {
        let r = observe_script_fault();
        assert_eq!(r.unit, "cell");
        assert_eq!(r.pinned_to, "cell `parse` (In [2])");
        assert_eq!(r.units_finished, 1, "only load survives: {r:?}");
        assert_eq!(r.units_lost, 2, "parse + count lost: {r:?}");
        assert_eq!(r.salvaged_rows, 0, "nothing crosses the barrier: {r:?}");
        assert_eq!(
            r.retry_salvaged, 0,
            "no unit below the cell to retry: {r:?}"
        );
    }

    #[test]
    fn comparison_experiment_contrasts_the_paradigms() {
        let Artifact::Table(t) = FaultComparison.run() else {
            panic!("expected table");
        };
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], WORKFLOW_LABEL);
        assert_eq!(t.rows[1][0], SCRIPT_LABEL);
        let wf_salvaged: u64 = t.rows[0][5].parse().unwrap();
        let sc_salvaged: u64 = t.rows[1][5].parse().unwrap();
        assert!(
            wf_salvaged > sc_salvaged,
            "the workflow paradigm salvages rows the script loses: {wf_salvaged} vs {sc_salvaged}"
        );
        let wf_retry: u64 = t.rows[0][6].parse().unwrap();
        let sc_retry: u64 = t.rows[1][6].parse().unwrap();
        assert_eq!(wf_retry, 438, "retry salvages every surviving row");
        assert_eq!(sc_retry, 0, "the script still salvages nothing");
    }
}

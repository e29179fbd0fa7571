//! Shared result types for task runs.

use std::time::Duration;

use scriptflow_core::{BackendKind, Calibration, ExecutionMetrics, Paradigm, RunReport};
use scriptflow_datakit::Tuple;
use scriptflow_simcluster::{ClusterSpec, SimTime};
use scriptflow_workflow::ops::SinkHandle;
use scriptflow_workflow::{
    EngineConfig, EngineRun, ExecBackend, ResultCache, Workflow, WorkflowResult,
};

/// One task execution: the comparable report plus the real output.
#[derive(Debug, Clone)]
pub struct TaskRun {
    /// The paper-style measurement record.
    pub report: RunReport,
    /// Sorted fingerprint of the task's real output rows. Two paradigm
    /// implementations of the same task on the same input must produce
    /// identical fingerprints.
    pub output: Vec<String>,
}

impl TaskRun {
    /// Assemble a run record.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        task: &str,
        paradigm: Paradigm,
        config: String,
        makespan: SimTime,
        parallel_processes: usize,
        lines_of_code: usize,
        operator_count: usize,
        mut output: Vec<String>,
    ) -> Self {
        output.sort_unstable();
        TaskRun {
            report: RunReport {
                task: task.to_owned(),
                paradigm,
                config,
                metrics: ExecutionMetrics {
                    total_seconds: makespan.as_secs_f64(),
                    parallel_processes,
                    lines_of_code,
                    operator_count,
                },
            },
            output,
        }
    }

    /// Seconds the run took (virtual for simulated runs, wall-clock for
    /// live-backend runs).
    pub fn seconds(&self) -> f64 {
        self.report.metrics.total_seconds
    }
}

/// A workflow-paradigm task executed on an explicitly chosen backend:
/// the paradigm-comparison record beside the [`EngineRun`] that produced
/// it, which the record derefs to — `kind`, `trace`, `pool`,
/// `cache_published`, `counters()` are the engine's own.
///
/// Produced by each task's `run_workflow_on`; the backend-agnostic
/// `run_workflow` entry points stay sim-only and return the inner
/// [`TaskRun`] unchanged, so paper anchors are untouched.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// The paradigm-comparison record; `total_seconds` is on the
    /// backend's own clock ([`BackendKind::time_unit`]).
    pub run: TaskRun,
    /// Measured host time; `None` on the simulator
    /// ([`EngineRun::wall_clock`], kept as a field for callers that read
    /// it as one).
    pub wall_clock: Option<Duration>,
    /// The engine run, its sink rows moved into `run.output`.
    pub engine: EngineRun,
}

impl std::ops::Deref for BackendRun {
    type Target = EngineRun;

    fn deref(&self) -> &EngineRun {
        &self.engine
    }
}

impl BackendRun {
    /// Seconds on the backend's own clock.
    pub fn seconds(&self) -> f64 {
        self.run.seconds()
    }
}

/// The engine configuration the paper's tasks run under (shared by both
/// backends; only `batch_size` has a live analogue). GOTTA and WEF each
/// override one field.
pub fn engine_config(cal: &Calibration) -> EngineConfig {
    EngineConfig {
        cluster: ClusterSpec::paper_cluster(),
        batch_size: cal.wf_batch_size,
        serde_per_tuple: cal.wf_serde_per_tuple,
        pipelining: cal.wf_pipelining,
        columnar: cal.wf_columnar,
        columnar_discount: cal.wf_columnar_discount,
        memory_budget: cal.wf_memory_budget,
        spill_write_per_block: cal.wf_spill_write_per_block,
        spill_read_per_block: cal.wf_spill_read_per_block,
        // A fresh per-run cache: records and publishes, but never hits.
        // Warm reruns come from each task's `run_workflow_cached`, which
        // shares one cache across invocations.
        result_cache: cal
            .wf_result_cache
            .then(|| ResultCache::for_run(cal.wf_cache_byte_budget)),
        cache_read_per_block: cal.wf_cache_read_per_block,
        ..EngineConfig::default()
    }
}

/// The `row` column: the output fingerprint of the tasks whose last
/// operator already formats it.
pub(crate) fn row_text(t: &Tuple) -> String {
    t.get_str("row").expect("schema").to_owned()
}

/// Run a task's built workflow on the `kind` backend under `config` and
/// package the result; `row` turns a sink tuple into its output
/// fingerprint. The workflow driver all four tasks share.
pub(crate) fn run_on(
    task: &str,
    params: String,
    lines_of_code: usize,
    (wf, handle): (Workflow, SinkHandle),
    kind: BackendKind,
    config: EngineConfig,
    row: impl Fn(&Tuple) -> String,
) -> WorkflowResult<BackendRun> {
    let mut engine = ExecBackend::of_kind(kind, config).run(&wf, &handle)?;
    let rows = std::mem::take(&mut engine.rows);
    let run = TaskRun::new(
        task,
        Paradigm::Workflow,
        params,
        engine.makespan(),
        wf.total_workers(),
        lines_of_code,
        wf.operator_count(),
        rows.iter().map(row).collect(),
    );
    Ok(BackendRun {
        run,
        wall_clock: engine.wall_clock(),
        engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_sorted() {
        let run = TaskRun::new(
            "T",
            Paradigm::Script,
            "c".into(),
            SimTime::from_micros(1_000_000),
            1,
            10,
            1,
            vec!["b".into(), "a".into()],
        );
        assert_eq!(run.output, vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(run.seconds(), 1.0);
    }
}

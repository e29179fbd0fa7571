//! Shared result types for task runs.

use std::time::Duration;

use scriptflow_core::{BackendKind, ExecutionMetrics, Paradigm, RunReport};
use scriptflow_simcluster::SimTime;
use scriptflow_workflow::{EngineRun, OpCounters, PoolStats, ProgressTrace};

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
/// the paradigm-comparison record plus the backend's own observability.
///
/// Produced by each task's `run_workflow_on`; the backend-agnostic
/// `run_workflow` entry points stay sim-only and return the inner
/// [`TaskRun`] unchanged, so paper anchors are untouched.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Which backend executed the DAG.
    pub kind: BackendKind,
    /// The paradigm-comparison record; `total_seconds` is on the
    /// backend's own clock ([`BackendKind::time_unit`]).
    pub run: TaskRun,
    /// Measured host time; `None` on the simulator.
    pub wall_clock: Option<Duration>,
    /// Per-operator progress samples; both backends guarantee at least
    /// the terminal sample.
    pub trace: ProgressTrace,
    /// Pool scheduling counters; `Some` only on the pooled live backend.
    pub pool: Option<PoolStats>,
    /// Data counters summed across the DAG (zone-map skips, spill and
    /// result-cache traffic; all 0 on the paper's calibration).
    pub counters: OpCounters,
    /// Compressed bytes sealed into the cache by this run.
    pub cache_published: u64,
}

impl BackendRun {
    /// Pair a task's comparison record with the engine run that
    /// produced it.
    pub fn from_engine(run: TaskRun, engine: EngineRun) -> Self {
        BackendRun {
            kind: engine.kind,
            run,
            wall_clock: engine.wall_clock(),
            counters: engine.counters(),
            trace: engine.trace,
            pool: engine.pool,
            cache_published: engine.cache_published,
        }
    }

    /// Seconds on the backend's own clock.
    pub fn seconds(&self) -> f64 {
        self.run.seconds()
    }
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

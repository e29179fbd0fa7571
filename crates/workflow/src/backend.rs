//! One execution surface, and one result type, over both engines.
//!
//! The crate ships two executors for the same [`Workflow`] DAG: the
//! deterministic virtual-clock [`SimExecutor`] behind the paper figures,
//! and the pooled [`LiveExecutor`] that runs the identical operators on
//! real OS threads. Both — and the multi-tenant
//! [`crate::service::WorkflowService`] — return the same [`EngineRun`]:
//! a [`ProgressTrace`] that always ends with a terminal sample, unified
//! [`RunMetrics`] whose per-operator [`crate::OpCounters`] and
//! [`crate::SchedCounters`] sum to the run totals, and the
//! backend-specific extras (`pool`,
//! `worker_timeline`) left empty where they do not apply.
//!
//! [`ExecBackend`] picks the executor (usually from a [`BackendKind`]
//! threaded down from a `--backend` flag) and collects the sink rows.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use scriptflow_core::BackendKind;
//! use scriptflow_datakit::{Batch, DataType, Schema, Value};
//! use scriptflow_workflow::ops::{ScanOp, SinkOp};
//! use scriptflow_workflow::{EngineConfig, ExecBackend, PartitionStrategy, WorkflowBuilder};
//!
//! let schema = Schema::of(&[("id", DataType::Int)]);
//! let batch = Batch::from_rows(schema, (0..6).map(|i| vec![Value::Int(i)]).collect()).unwrap();
//! let mut b = WorkflowBuilder::new();
//! let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
//! let sink_op = SinkOp::new("sink");
//! let handle = sink_op.handle();
//! let sink = b.add(Arc::new(sink_op), 1);
//! b.connect(scan, sink, 0, PartitionStrategy::Single);
//! let wf = b.build().unwrap();
//!
//! for kind in BackendKind::ALL {
//!     let run = ExecBackend::of_kind(kind, EngineConfig::default())
//!         .run(&wf, &handle)
//!         .unwrap();
//!     assert_eq!(run.kind, kind);
//!     assert_eq!(run.rows.len(), 6);
//!     assert!(run.trace.completion_sample().is_some());
//! }
//! ```

use std::time::Duration;

use scriptflow_core::BackendKind;
use scriptflow_datakit::Tuple;
use scriptflow_simcluster::SimTime;

use crate::cost::EngineConfig;
use crate::dag::Workflow;
use crate::exec_live::{LiveExecutor, PoolStats};
use crate::exec_sim::{SimExecutor, WorkerInterval};
use crate::metrics::{OpCounters, RunMetrics};
use crate::operator::WorkflowResult;
use crate::ops::SinkHandle;
use crate::trace::ProgressTrace;

/// The result of one workflow run, whichever engine produced it:
/// [`SimExecutor::run`], [`LiveExecutor::run`] and the service's
/// [`crate::service::RunReport`] all hand back this type, so callers
/// (task drivers, study experiments, `repro`) handle every backend
/// with the same code path.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Which backend produced the run.
    pub kind: BackendKind,
    /// Rows collected from the sink handle passed to
    /// [`ExecBackend::run`] (empty when an executor is driven directly).
    pub rows: Vec<Tuple>,
    /// Measured host time of a live run. Zero on the simulator, whose
    /// host cost is incidental — its time is [`EngineRun::makespan`].
    pub elapsed: Duration,
    /// Per-operator telemetry, identical in shape across backends. Run
    /// totals are computed from it ([`EngineRun::counters`]).
    pub metrics: RunMetrics,
    /// Per-operator progress samples. Pooled and simulated runs hold at
    /// least the terminal sample (interval samples need `with_trace`),
    /// so `trace.completion_sample()` works on any successful run; the
    /// thread-per-worker baseline leaves it empty.
    pub trace: ProgressTrace,
    /// Pool scheduling counters; `Some` only for pooled live runs.
    pub pool: Option<PoolStats>,
    /// Compressed bytes this run added to the result cache (0 without a
    /// cache, and 0 for runs that faulted or retried — only clean runs
    /// publish their recordings).
    pub cache_published: u64,
    /// Per-worker busy intervals (simulator only, and only with
    /// [`SimExecutor::with_worker_timeline`]).
    pub worker_timeline: Vec<WorkerInterval>,
}

impl EngineRun {
    /// Completion time on the backend's own clock: virtual time for
    /// [`BackendKind::Sim`], measured wall-clock mapped onto the same
    /// axis for [`BackendKind::Live`] (see [`BackendKind::time_unit`]).
    pub fn makespan(&self) -> SimTime {
        self.metrics.makespan
    }

    /// Measured host time; `None` for the simulator.
    pub fn wall_clock(&self) -> Option<Duration> {
        (self.kind == BackendKind::Live).then_some(self.elapsed)
    }

    /// Completion time in the backend's seconds (virtual or wall-clock;
    /// [`BackendKind::time_unit`] names which).
    pub fn seconds(&self) -> f64 {
        match self.wall_clock() {
            Some(elapsed) => elapsed.as_secs_f64(),
            None => self.makespan().as_secs_f64(),
        }
    }

    /// The run's data counters, summed over its operators.
    pub fn counters(&self) -> OpCounters {
        self.metrics.totals()
    }
}

/// A builder-selected execution backend presenting one `run` surface
/// over [`SimExecutor`] and the pooled [`LiveExecutor`].
pub enum ExecBackend {
    /// The deterministic virtual-clock simulator.
    Sim(Box<SimExecutor>),
    /// The pooled live executor (real OS threads, measured wall-clock).
    Live(LiveExecutor),
}

impl ExecBackend {
    /// Simulator backend over `config`.
    pub fn sim(config: EngineConfig) -> Self {
        ExecBackend::from_sim(SimExecutor::new(config))
    }

    /// Pooled live backend reusing `config`'s edge batch size, retry
    /// policy, memory budget, and result cache (the only [`EngineConfig`]
    /// knobs with a live analogue; virtual cost model fields, among them
    /// [`EngineConfig::columnar`] — see [`LiveExecutor::with_columnar`] —
    /// have no wall-clock meaning).
    pub fn live(config: &EngineConfig) -> Self {
        let mut exec = LiveExecutor::new(config.batch_size.max(1))
            .with_retry(config.retry.clone())
            .with_memory_budget(config.memory_budget);
        if let Some(cache) = config.result_cache.clone() {
            exec = exec.with_result_cache(cache);
        }
        ExecBackend::Live(exec)
    }

    /// Backend for a [`BackendKind`], the single selection point
    /// `repro`'s `--backend` flag routes through.
    pub fn of_kind(kind: BackendKind, config: EngineConfig) -> Self {
        match kind {
            BackendKind::Sim => ExecBackend::sim(config),
            BackendKind::Live => ExecBackend::live(&config),
        }
    }

    /// Wrap an already-configured executor (custom pool size, faults,
    /// trace interval, …).
    pub fn from_live(exec: LiveExecutor) -> Self {
        ExecBackend::Live(exec)
    }

    /// Wrap an already-configured simulator (pauses, trace interval, …).
    pub fn from_sim(exec: SimExecutor) -> Self {
        ExecBackend::Sim(Box::new(exec))
    }

    /// Which backend this is.
    pub fn kind(&self) -> BackendKind {
        match self {
            ExecBackend::Sim(_) => BackendKind::Sim,
            ExecBackend::Live(_) => BackendKind::Live,
        }
    }

    /// Execute `wf` and collect the rows that reached `sink`.
    ///
    /// The handle is cleared first, so re-running the same built
    /// workflow (e.g. once per backend) never double-counts rows.
    pub fn run(&self, wf: &Workflow, sink: &SinkHandle) -> WorkflowResult<EngineRun> {
        sink.clear();
        let mut run = self.run_detached(wf)?;
        run.rows = sink.results();
        Ok(run)
    }

    /// Execute `wf` without collecting sink rows (`rows` stays empty).
    /// For callers that only want timing/metrics.
    pub fn run_detached(&self, wf: &Workflow) -> WorkflowResult<EngineRun> {
        self.run_observed(wf).1
    }

    /// Execute `wf`, handing the progress trace back even on failure
    /// (see [`SimExecutor::run_observed`] and
    /// [`LiveExecutor::run_observed`]). `rows` stays empty; snapshot the
    /// sink handle afterwards if needed.
    pub fn run_observed(&self, wf: &Workflow) -> (ProgressTrace, WorkflowResult<EngineRun>) {
        match self {
            ExecBackend::Sim(exec) => exec.run_observed(wf),
            ExecBackend::Live(exec) => exec.run_observed(wf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::WorkflowBuilder;
    use crate::metrics::OperatorState;
    use crate::ops::{FilterOp, ScanOp, SinkOp};
    use crate::partition::PartitionStrategy;
    use scriptflow_datakit::{Batch, DataType, Schema, Value};
    use std::sync::Arc;

    fn build_wf(n: i64) -> (Workflow, SinkHandle) {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let batch =
            Batch::from_rows(schema, (0..n).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 2);
        let filt = b.add(
            Arc::new(FilterOp::new("keep_even", |t| {
                Ok(t.get_int("id").unwrap() % 2 == 0)
            })),
            2,
        );
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(scan, filt, 0, PartitionStrategy::RoundRobin);
        b.connect(filt, sink, 0, PartitionStrategy::Single);
        (b.build().unwrap(), handle)
    }

    #[test]
    fn both_backends_agree_on_rows() {
        let (wf, handle) = build_wf(100);
        let sim = ExecBackend::of_kind(BackendKind::Sim, EngineConfig::default())
            .run(&wf, &handle)
            .unwrap();
        let live = ExecBackend::of_kind(BackendKind::Live, EngineConfig::default())
            .run(&wf, &handle)
            .unwrap();
        assert_eq!(sim.kind, BackendKind::Sim);
        assert_eq!(live.kind, BackendKind::Live);
        assert_eq!(sim.rows.len(), 50);
        assert_eq!(live.rows.len(), 50);
        assert!(sim.wall_clock().is_none() && sim.pool.is_none());
        assert!(live.wall_clock().is_some() && live.pool.is_some());
        assert!(sim.seconds() > 0.0);
        assert!(live.seconds() > 0.0);
    }

    #[test]
    fn run_clears_stale_sink_rows() {
        let (wf, handle) = build_wf(10);
        let backend = ExecBackend::sim(EngineConfig::default());
        backend.run(&wf, &handle).unwrap();
        let again = backend.run(&wf, &handle).unwrap();
        assert_eq!(again.rows.len(), 5, "rerun must not double-count");
    }

    #[test]
    fn traces_end_with_terminal_sample_on_both_backends() {
        let (wf, _) = build_wf(40);
        for kind in BackendKind::ALL {
            let run = ExecBackend::of_kind(kind, EngineConfig::default())
                .run_detached(&wf)
                .unwrap();
            let (_, snaps) = run
                .trace
                .samples
                .last()
                .unwrap_or_else(|| panic!("{kind} trace must not be empty"));
            assert!(
                snaps.iter().all(|s| s.state == OperatorState::Completed),
                "{kind} terminal sample must show every operator Completed"
            );
        }
    }

    #[test]
    fn retry_counts_surface_on_both_backends() {
        use crate::retry::{RetryConfig, RetryPolicy};
        use std::sync::atomic::{AtomicU64, Ordering};
        for kind in BackendKind::ALL {
            let calls = Arc::new(AtomicU64::new(0));
            let seen = calls.clone();
            let schema = Schema::of(&[("id", DataType::Int)]);
            let batch =
                Batch::from_rows(schema, (0..30).map(|i| vec![Value::Int(i)]).collect()).unwrap();
            let mut b = WorkflowBuilder::new();
            let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
            let flaky = b.add(
                Arc::new(FilterOp::new("flaky", move |t| {
                    let _ = t.get_int("id").unwrap();
                    // One transient decode error on the 10th serviced
                    // tuple; replays (fresh counts) pass.
                    if seen.fetch_add(1, Ordering::SeqCst) + 1 == 10 {
                        Err(scriptflow_datakit::DataError::Decode {
                            line: 0,
                            message: "transient".into(),
                        })
                    } else {
                        Ok(true)
                    }
                })),
                1,
            );
            let sink_op = SinkOp::new("sink");
            let handle = sink_op.handle();
            let sink = b.add(Arc::new(sink_op), 1);
            b.connect(scan, flaky, 0, PartitionStrategy::RoundRobin);
            b.connect(flaky, sink, 0, PartitionStrategy::Single);
            let wf = b.build().unwrap();
            let config = EngineConfig {
                retry: RetryConfig::uniform(RetryPolicy::default()),
                ..EngineConfig::default()
            };
            let run = ExecBackend::of_kind(kind, config)
                .run(&wf, &handle)
                .unwrap();
            assert_eq!(
                run.rows.len(),
                30,
                "{kind}: retry must keep delivery exactly-once"
            );
            // The replay is credited to the operator that replayed.
            for m in &run.metrics.operators {
                let (attempted, succeeded) = (m.sched.retries_attempted, m.sched.retries_succeeded);
                if m.name == "flaky" {
                    assert!(attempted >= 1, "{kind} must report the replay");
                    assert!(succeeded >= 1, "{kind} must report the salvage");
                } else {
                    assert_eq!((attempted, succeeded), (0, 0), "{kind}: {}", m.name);
                }
            }
            assert_counters_conserved(&run, &format!("retry/{kind}"));
        }
    }

    fn sorted_rows(run: &EngineRun) -> Vec<String> {
        let mut v: Vec<String> = run.rows.iter().map(|t| t.to_string()).collect();
        v.sort();
        v
    }

    /// However a counter reached the result — the per-operator metrics,
    /// the run totals, the pool stats, the terminal trace sample — it
    /// must be the same number. Both families: the scheduler counters
    /// the pool reports are the sums over the operators too.
    fn assert_counters_conserved(run: &EngineRun, what: &str) {
        let per_op: OpCounters = run.metrics.operators.iter().map(|m| m.counters).sum();
        assert_eq!(per_op, run.metrics.totals(), "{what}: run totals");
        let sched: crate::SchedCounters = run.metrics.operators.iter().map(|m| m.sched).sum();
        assert_eq!(
            sched,
            run.metrics.sched_totals(),
            "{what}: run sched totals"
        );
        if let Some(pool) = &run.pool {
            assert_eq!(per_op, **pool, "{what}: pool stats");
            let reported = (
                pool.task_runs,
                pool.batches_sent,
                pool.backpressure_stalls,
                pool.retries_attempted,
                pool.retries_succeeded,
            );
            let summed = (
                sched.quanta,
                sched.batches_sent,
                sched.backpressure_stalls,
                sched.retries_attempted,
                sched.retries_succeeded,
            );
            assert_eq!(reported, summed, "{what}: pool scheduler stats");
            assert!(sched.quanta >= pool.tasks as u64, "{what}: every task ran");
        } else {
            let sim_only = (sched.quanta, sched.batches_sent, sched.backpressure_stalls);
            assert_eq!(sim_only, (0, 0, 0), "{what}: the sim has no pool");
        }
        let (_, terminal) = run.trace.samples.last().expect("terminal sample");
        let sampled: OpCounters = terminal.iter().map(|s| s.counters).sum();
        assert_eq!(per_op, sampled, "{what}: terminal trace sample");
    }

    /// A sorted-id scan behind a selective comparison filter: every
    /// sealed batch past id=20 is prunable by its zone map.
    fn selective_wf() -> (Workflow, SinkHandle) {
        use scriptflow_datakit::CmpOp;
        let schema = Schema::of(&[("id", DataType::Int)]);
        let batch =
            Batch::from_rows(schema, (0..300).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
        let filt = b.add(
            Arc::new(FilterOp::cmp("sel", "id", CmpOp::Lt, Value::Int(20))),
            1,
        );
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(scan, filt, 0, PartitionStrategy::RoundRobin);
        b.connect(filt, sink, 0, PartitionStrategy::Single);
        (b.build().unwrap(), handle)
    }

    /// A many-to-many hash join whose build side outgrows a 256-byte
    /// budget.
    fn join_wf() -> (Workflow, SinkHandle) {
        use crate::ops::HashJoinOp;
        let build_schema = Schema::of(&[("k", DataType::Int), ("tag", DataType::Str)]);
        let build_rows = Batch::from_rows(
            build_schema,
            (0..70i64)
                .map(|i| vec![Value::Int(i % 11), Value::Str(format!("b{i}"))])
                .collect(),
        )
        .unwrap();
        let probe_schema = Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]);
        let probe_rows = Batch::from_rows(
            probe_schema,
            (0..50i64)
                .map(|i| vec![Value::Int(i), Value::Int(i % 14)])
                .collect(),
        )
        .unwrap();
        let mut b = WorkflowBuilder::new();
        let bs = b.add(Arc::new(ScanOp::new("build", build_rows)), 1);
        let ps = b.add(Arc::new(ScanOp::new("probe", probe_rows)), 1);
        let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), 1);
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(bs, join, 0, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(ps, join, 1, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(join, sink, 0, PartitionStrategy::Single);
        (b.build().unwrap(), handle)
    }

    fn run_with(
        kind: BackendKind,
        config: EngineConfig,
        build: fn() -> (Workflow, SinkHandle),
    ) -> EngineRun {
        let (wf, handle) = build();
        ExecBackend::of_kind(kind, config)
            .run(&wf, &handle)
            .unwrap()
    }

    /// The sim at `columnar = false` only ever moves rows: the oracle for
    /// both backends. Live ignores the flag and seals the scan by itself.
    fn columnar_legs(kind: BackendKind) -> Vec<(&'static str, EngineRun)> {
        let run_mode = |backend: BackendKind, columnar: bool| {
            let config = EngineConfig {
                batch_size: 32,
                columnar,
                ..EngineConfig::default()
            };
            run_with(backend, config, selective_wf)
        };
        let (row, col) = (run_mode(BackendKind::Sim, false), run_mode(kind, true));
        assert_eq!(
            row.counters().batches_skipped,
            0,
            "sim: row mode never skips"
        );
        assert!(
            col.counters().batches_skipped > 0,
            "{kind}: sealed batches past id=20 must be pruned"
        );
        vec![("sim row", row), ("columnar", col)]
    }

    fn budget_legs(kind: BackendKind) -> Vec<(&'static str, EngineRun)> {
        let run_budget = |memory_budget: Option<usize>| {
            let config = EngineConfig {
                batch_size: 16,
                memory_budget,
                ..EngineConfig::default()
            };
            run_with(kind, config, join_wf)
        };
        let (unbounded, bounded) = (run_budget(None), run_budget(Some(256)));
        assert_eq!(
            unbounded.counters().spilled_blocks,
            0,
            "{kind}: no budget, no spill"
        );
        let spilled = bounded.counters();
        assert!(spilled.spilled_blocks > 0, "{kind}: tiny budget must spill");
        assert!(spilled.spilled_bytes > 0, "{kind}");
        assert!(spilled.spill_reads > 0, "{kind}");
        let join = bounded.metrics.by_name("join").unwrap();
        assert_eq!(
            join.counters.spilled_blocks, spilled.spilled_blocks,
            "{kind}"
        );
        vec![("unbounded", unbounded), ("256-byte budget", bounded)]
    }

    fn even_wf() -> (Workflow, SinkHandle) {
        build_wf(100)
    }

    fn cache_legs(kind: BackendKind) -> Vec<(&'static str, EngineRun)> {
        use crate::cache::ResultCache;
        let cache = Arc::new(ResultCache::new());
        let config = || EngineConfig::default().with_result_cache(cache.clone());

        let cold = run_with(kind, config(), even_wf);
        assert_eq!(cold.counters().cache_hits, 0, "{kind}: cold run cannot hit");
        assert!(
            cold.counters().cache_misses > 0,
            "{kind}: cold run must record"
        );
        assert!(cold.cache_published > 0, "{kind}: clean cold run publishes");

        // A separately built but content-identical workflow hits.
        let warm = run_with(kind, config(), even_wf);
        assert!(
            warm.counters().cache_hits > 0,
            "{kind}: warm rerun must hit"
        );
        assert!(
            warm.counters().cache_bytes > 0,
            "{kind}: hits decode real bytes"
        );
        assert_eq!(warm.cache_published, 0, "{kind}: nothing new to publish");

        // Cache off (default config): same rows, no counters.
        let off = run_with(kind, EngineConfig::default(), even_wf);
        assert!(
            off.counters().is_zero() && off.cache_published == 0,
            "{kind}"
        );
        vec![("cold", cold), ("warm", warm), ("cache off", off)]
    }

    /// The cache changes what is recomputed, never how a computed
    /// operator runs: armed, the selective DAG moves the same batches in
    /// the same layout as with the cache off.
    fn cached_columnar_legs(kind: BackendKind) -> Vec<(&'static str, EngineRun)> {
        use crate::cache::ResultCache;
        let config = EngineConfig {
            batch_size: 32,
            columnar: true,
            ..EngineConfig::default()
        };
        let cache = Arc::new(ResultCache::new());
        let armed = || config.clone().with_result_cache(cache.clone());

        let off = run_with(kind, config.clone(), selective_wf);
        let cold = run_with(kind, armed(), selective_wf);
        assert!(
            off.counters().batches_skipped > 0,
            "{kind}: sealed batches past id=20 must be pruned"
        );
        assert_eq!(
            cold.counters().batches_skipped,
            off.counters().batches_skipped,
            "{kind}: a recorded scan is sealed for the same consumers"
        );
        assert_eq!(
            cold.pool.map(|p| p.batches_sent),
            off.pool.map(|p| p.batches_sent),
            "{kind}: same edges, same batches"
        );
        assert!(cold.cache_published > 0, "{kind}: clean cold run publishes");
        let warm = run_with(kind, armed(), selective_wf);
        assert!(
            warm.counters().cache_hits > 0,
            "{kind}: warm rerun must hit"
        );
        vec![("cache off", off), ("cold", cold), ("warm", warm)]
    }

    fn budgeted_cache_legs(kind: BackendKind) -> Vec<(&'static str, EngineRun)> {
        use crate::cache::ResultCache;
        let config =
            |cache: &Arc<ResultCache>| EngineConfig::default().with_result_cache(Arc::clone(cache));
        // A cold run against an unbounded cache sizes a budget one byte
        // short of holding everything, so the commit must evict.
        let sizing = run_with(kind, config(&Arc::new(ResultCache::new())), even_wf);
        let budget = sizing.cache_published - 1;
        let cache = Arc::new(ResultCache::new().with_byte_budget(budget));

        let budgeted = run_with(kind, config(&cache), even_wf);
        assert!(
            budgeted.counters().cache_evictions > 0,
            "{kind}: the tight budget must evict at commit"
        );
        assert!(cache.bytes() <= budget, "{kind}: ceiling holds");

        let rerun = run_with(kind, config(&cache), even_wf);
        let consulted = rerun.counters();
        assert!(
            consulted.cache_hits > 0 || consulted.cache_misses > 0,
            "{kind}: the cache was consulted"
        );
        vec![
            ("unbounded", sizing),
            ("budgeted", budgeted),
            ("rerun", rerun),
        ]
    }

    /// Every counter family on both backends: each scenario's legs agree
    /// on rows (the feature changes telemetry, never results), show the
    /// counters the feature must produce, and conserve them along the
    /// whole path from operator to run result.
    #[test]
    fn counters_surface_and_conserve_on_both_backends() {
        type Legs = fn(BackendKind) -> Vec<(&'static str, EngineRun)>;
        let scenarios: [(&str, Legs); 5] = [
            ("columnar", columnar_legs),
            ("memory budget", budget_legs),
            ("result cache", cache_legs),
            ("cached columnar", cached_columnar_legs),
            ("budgeted cache", budgeted_cache_legs),
        ];
        for (scenario, legs) in scenarios {
            for kind in BackendKind::ALL {
                let runs = legs(kind);
                let (first, reference) = &runs[0];
                for (leg, run) in &runs {
                    let what = format!("{scenario}/{kind}/{leg}");
                    assert_eq!(
                        sorted_rows(run),
                        sorted_rows(reference),
                        "{what}: rows differ from the `{first}` leg"
                    );
                    assert_counters_conserved(run, &what);
                }
            }
        }
    }

    #[test]
    fn run_observed_surfaces_trace_on_sim_failure() {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let batch =
            Batch::from_rows(schema, (0..20).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
        let bad = b.add(
            Arc::new(FilterOp::new("bad", |t| {
                if t.get_int("id").unwrap() >= 10 {
                    Err(scriptflow_datakit::DataError::Decode {
                        line: 10,
                        message: "boom".into(),
                    })
                } else {
                    Ok(true)
                }
            })),
            1,
        );
        let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
        b.connect(scan, bad, 0, PartitionStrategy::RoundRobin);
        b.connect(bad, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();

        let backend = ExecBackend::sim(EngineConfig::default());
        let (trace, result) = backend.run_observed(&wf);
        assert!(result.is_err(), "erroring filter must fail the run");
        let (_, snaps) = trace.samples.last().expect("failed run keeps its trace");
        assert!(
            snaps
                .iter()
                .any(|s| s.name == "bad" && s.state == OperatorState::Failed),
            "terminal sample pins the failure to the erroring operator"
        );
    }
}

//! Live executor: runs a workflow on real OS threads.
//!
//! Where [`crate::exec_sim`] models time, this executor spends it. It
//! exists for two reasons:
//!
//! 1. **Correctness cross-check** — both executors must produce identical
//!    data outputs for any workflow (the integration suite asserts this).
//! 2. **Engine-overhead benchmarking** — the repo benchmark
//!    (`benchmark/`) drives it to measure the real cost of the
//!    pipelined architecture on the host.
//!
//! [`LiveExecutor::new`] is the pooled executor: a fixed-size worker
//! pool time-slices operator-worker *tasks*, in the style of Databend's
//! `PipelineExecutor`. Edges are bounded mailboxes with backpressure, and
//! payloads travel as [`SharedBatch`]es — `Arc`-shared immutable tuple
//! batches, so broadcast and multi-consumer edges share one allocation
//! instead of cloning every tuple per worker. Partitioners are
//! compiled once per edge at DAG-build time
//! ([`crate::dag::Workflow::partitioner`]), and routing *moves* tuples
//! into per-(edge, destination worker) buffers — the hot path performs no
//! per-tuple name lookups and no per-tuple allocation. Rows leave a
//! buffer a full edge batch at a time: a hop that splits its input among
//! `w` workers tops each buffer up until it holds `batch_size` rows
//! instead of forwarding `w`-ths, and whatever a buffer still holds
//! leaves when the task's quantum ends, so no row waits across quanta
//! (`Pool::forward_rows`, `Pool::close_batches`).
//!
//! This module owns what one run is made of — the task set
//! (`build_tasks`), the per-run core (`Pool`: mailboxes, routing,
//! the quantum `Pool::step`, fault and retry hooks, counters) and the
//! result assembly. It owns no threads and no ready queue. There is
//! **one scheduler**, [`crate::service`]'s: a pooled
//! [`LiveExecutor::run`] is a one-run client of it — it starts a private
//! scheduler with its own `pool_size` threads, submits the run, waits on
//! its seat and joins the threads — and a
//! [`crate::service::WorkflowService`] is the same scheduler kept alive
//! across many tenants' runs. Worker loop, ready queue, stall detector,
//! retry-backoff timer, result finalizer and cache plan/commit exist
//! once, there.
//!
//! [`LiveExecutor::thread_per_worker`] is not a second engine but the
//! reference interpreter (`exec_reference.rs`): one thread walks the DAG
//! in topological order, each worker consuming whole inboxes. It shares
//! no routing or scheduling code with the pool, which is why tests and
//! the repo benchmark check pooled rows against it.
//!
//! # Scheduling and deadlock freedom (pooled mode)
//!
//! Pool threads never block on a data channel. A producer whose
//! destination mailbox is full parks the message in its own outbox,
//! registers itself as a waiter on that mailbox, and yields its pool
//! thread; the consumer wakes all registered waiters whenever it frees
//! mailbox space. Messages gated behind a blocking port (e.g. probe-side
//! input while a hash join's build port is still open) are moved to an
//! unbounded hold buffer so mailboxes always drain. With an acyclic DAG,
//! sinks that always accept input, and consumers that always drain, every
//! blocked producer is eventually woken — bounded channels cannot wedge
//! the pool, which the diamond-DAG regression test exercises.
//!
//! # Observability (pooled mode)
//!
//! Pooled runs feed a [`LiveTracer`] from per-task hooks: operator
//! lifecycle transitions, input/output tuple counters, per-worker busy
//! time, mailbox depth, and backpressure stalls — all relaxed atomics,
//! so tracing never takes a lock on the hot path. With
//! [`LiveExecutor::with_trace`] the thread waiting for the run samples
//! those counters into the same
//! [`ProgressTrace`]/[`crate::trace::OperatorSnapshot`] shape the
//! simulated executor emits, so [`crate::gui`] and
//! [`crate::trace::render_timeline`] replay live and simulated runs
//! identically (the paper's Fig. 9 display, on real threads). Even
//! without an interval, every pooled run ends with one terminal sample,
//! and [`LiveExecutor::run_observed`] hands the trace back on failures
//! too.
//!
//! # Failure semantics (pooled mode)
//!
//! Any operator failure — an organic error, an injected
//! [`crate::fault::FaultPlan`] fault, or a captured worker panic — puts
//! the owning task into **drain mode** instead of aborting the pool: the
//! task discards its remaining input, propagates EOS downstream exactly
//! once (marking direct consumers [`OperatorState::Degraded`] — their
//! input is truncated), keeps its mailbox draining so upstream never
//! blocks, and finishes once every input port has closed. The rest of
//! the pipeline runs to completion on whatever data made it through, the
//! run returns `Err` carrying the first failure, every pool thread
//! joins, and the partial trace survives. A worker panic is caught
//! around the quantum (`Pool::run_task`) and surfaces as a `Failed`
//! operator in the same way. If a fault starves the pipeline of EOS
//! entirely (a dropped end-of-stream), the scheduler detects quiescence
//! and has `Pool::recover_stall` synthesize the missing markers so the
//! run still terminates.
//!
//! With a [`crate::retry::RetryPolicy`] ([`LiveExecutor::with_retry`]),
//! every step holds its input while budget is left, and a fault replays
//! what the faulted step held: the task is parked for the backoff — its
//! worker goes on to other tasks — and then re-processes the held input,
//! exactly once per tuple, surfacing [`OperatorState::Retrying`] in the
//! trace. A fault with nothing held (a panic in a port completion, or an
//! exhausted budget) falls through to the drain path above.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use scriptflow_core::BackendKind;
use scriptflow_datakit::{ColumnarBatch, SharedBatch, Tuple};
use scriptflow_simcluster::{SimDuration, SimTime};

use crate::backend::EngineRun;
use crate::cache::CacheRecording;
use crate::dag::{OpId, Workflow};
use crate::fault::{CompiledFaults, FaultPlan, TupleAction, TupleTrigger};
use crate::metrics::{OpCounters, OperatorMetrics, OperatorState, RunMetrics};
use crate::operator::{Emitted, Operator, OutputCollector, WorkflowError, WorkflowResult};
use crate::partition::CompiledPartitioner;
use crate::retry::{RetryBudget, RetryConfig};
use crate::service::{RunOptions, ServiceConfig, Shared, TenantQuota};
use crate::sync::lock;
use crate::trace::{OperatorSnapshot, ProgressTrace};
use crate::trace_live::LiveTracer;

/// Counters from a pooled run (absent from a reference run): the
/// run's sums over [`RunMetrics::operators`] — scheduler counters
/// ([`RunMetrics::sched_totals`]) and data counters
/// ([`RunMetrics::totals`]) — plus what only the pool knows, its width,
/// task count, deepest mailbox, fired faults and stall recoveries.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use scriptflow_datakit::{Batch, DataType, Schema, Value};
/// use scriptflow_workflow::ops::{ScanOp, SinkOp};
/// use scriptflow_workflow::{LiveExecutor, PartitionStrategy, WorkflowBuilder};
///
/// let schema = Schema::of(&[("id", DataType::Int)]);
/// let batch = Batch::from_rows(schema, (0..10).map(|i| vec![Value::Int(i)]).collect()).unwrap();
/// let mut b = WorkflowBuilder::new();
/// let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
/// let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
/// b.connect(scan, sink, 0, PartitionStrategy::Single);
/// let wf = b.build().unwrap();
///
/// let res = LiveExecutor::new(4).with_pool_size(2).run(&wf).unwrap();
/// let stats = res.pool.expect("pooled mode reports stats");
/// assert_eq!(stats.pool_threads, 2);
/// assert_eq!(stats.tasks, wf.total_workers());
/// assert!(stats.batches_sent > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// OS threads in the pool.
    pub pool_threads: usize,
    /// Operator-worker tasks scheduled over the pool.
    pub tasks: usize,
    /// Total task run quanta executed ([`crate::SchedCounters::quanta`]).
    pub task_runs: u64,
    /// Times a producer found a destination mailbox full and yielded.
    pub backpressure_stalls: u64,
    /// Batches successfully delivered into mailboxes.
    pub batches_sent: u64,
    /// High-water mark of messages queued at any single operator's
    /// worker mailboxes.
    pub peak_mailbox_depth: usize,
    /// Injected faults that actually fired ([`crate::fault::FaultPlan`]
    /// triggers; 0 without a plan).
    pub faults_injected: u64,
    /// Times the pool's quiescence detector had to recover a stalled
    /// pipeline by synthesizing missing EOS markers (dropped-EOS faults).
    pub stall_recoveries: u64,
    /// Faulted run quanta replayed under a [`crate::retry::RetryPolicy`]
    /// budget (0 without a policy).
    pub retries_attempted: u64,
    /// Tasks that replayed at least one faulted quantum and still
    /// finished cleanly (their operators end `Completed`, not `Failed`).
    pub retries_succeeded: u64,
    /// The run's data counters, [`RunMetrics::totals`], cache-commit
    /// evictions included. Readable through the stats themselves:
    /// `stats.spilled_blocks`.
    pub counters: OpCounters,
}

impl std::ops::Deref for PoolStats {
    type Target = OpCounters;

    fn deref(&self) -> &OpCounters {
        &self.counters
    }
}

/// Result of a live run: an alias of the engine-wide [`EngineRun`].
/// `kind` is [`BackendKind::Live`], `elapsed` is the measured wall-clock
/// and `metrics.makespan` mirrors it; `pool` is `None` and `trace` empty
/// for the reference interpreter ([`LiveExecutor::thread_per_worker`]).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use scriptflow_datakit::{Batch, DataType, Schema, Value};
/// use scriptflow_workflow::ops::{ScanOp, SinkOp};
/// use scriptflow_workflow::{LiveExecutor, PartitionStrategy, WorkflowBuilder};
///
/// let schema = Schema::of(&[("id", DataType::Int)]);
/// let batch = Batch::from_rows(schema, (0..8).map(|i| vec![Value::Int(i)]).collect()).unwrap();
/// let mut b = WorkflowBuilder::new();
/// let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
/// let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
/// b.connect(scan, sink, 0, PartitionStrategy::Single);
/// let wf = b.build().unwrap();
///
/// let res = LiveExecutor::new(4).run(&wf).unwrap();
/// assert_eq!(res.metrics.by_name("sink").unwrap().input_tuples, 8);
/// assert!(!res.trace.is_empty(), "pooled runs always carry a final sample");
/// ```
pub type LiveRunResult = EngineRun;

/// The real-thread workflow executor.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use scriptflow_datakit::{Batch, DataType, Schema, Value};
/// use scriptflow_workflow::ops::{ScanOp, SinkOp};
/// use scriptflow_workflow::{LiveExecutor, PartitionStrategy, WorkflowBuilder};
///
/// let schema = Schema::of(&[("id", DataType::Int)]);
/// let batch = Batch::from_rows(schema, (0..5).map(|i| vec![Value::Int(i)]).collect()).unwrap();
/// let mut b = WorkflowBuilder::new();
/// let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
/// let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
/// b.connect(scan, sink, 0, PartitionStrategy::Single);
/// let wf = b.build().unwrap();
///
/// let res = LiveExecutor::default().run(&wf).unwrap();
/// assert_eq!(res.metrics.by_name("scan").unwrap().output_tuples, 5);
/// ```
pub struct LiveExecutor {
    batch_size: usize,
    /// `false` only for [`LiveExecutor::thread_per_worker`].
    pooled: bool,
    pool_size: Option<usize>,
    channel_capacity: usize,
    trace_interval: Option<Duration>,
    faults: Option<FaultPlan>,
    retry: RetryConfig,
    memory_budget: Option<usize>,
    result_cache: Option<Arc<crate::cache::ResultCache>>,
}

impl Default for LiveExecutor {
    fn default() -> Self {
        LiveExecutor::new(256)
    }
}

impl LiveExecutor {
    /// Pooled executor with the given edge batch size.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::LiveExecutor;
    /// let exec = LiveExecutor::new(128);
    /// # let _ = exec;
    /// ```
    pub fn new(batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        LiveExecutor {
            batch_size,
            pooled: true,
            pool_size: None,
            channel_capacity: 64,
            trace_interval: None,
            faults: None,
            retry: RetryConfig::default(),
            memory_budget: None,
            result_cache: None,
        }
    }

    /// The reference interpreter: the rows every engine configuration
    /// must reproduce. It runs on the calling thread, walks the DAG in
    /// topological order with each worker consuming whole inboxes, and
    /// shares no routing or scheduling code with the pooled executor. It
    /// honours [`LiveExecutor::with_memory_budget`] and ignores
    /// `batch_size` and every other option — faults, retries, the result
    /// cache, tracing, pool size, channel capacity — none of which may
    /// change a run's rows. Its result has `pool: None` and an empty
    /// trace; a failed run returns the first error in topological order.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::LiveExecutor;
    /// let baseline = LiveExecutor::thread_per_worker(128);
    /// # let _ = baseline;
    /// ```
    pub fn thread_per_worker(batch_size: usize) -> Self {
        LiveExecutor {
            pooled: false,
            ..LiveExecutor::new(batch_size)
        }
    }

    /// Pool thread count (pooled mode; default = host cores).
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::LiveExecutor;
    /// let exec = LiveExecutor::new(64).with_pool_size(2);
    /// # let _ = exec;
    /// ```
    pub fn with_pool_size(mut self, threads: usize) -> Self {
        assert!(threads > 0, "pool size must be positive");
        self.pool_size = Some(threads);
        self
    }

    /// Mailbox capacity in messages per worker (pooled mode). Smaller
    /// values bound memory harder at the cost of more scheduling churn.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::LiveExecutor;
    /// let exec = LiveExecutor::new(64).with_channel_capacity(8);
    /// # let _ = exec;
    /// ```
    pub fn with_channel_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "channel capacity must be positive");
        self.channel_capacity = capacity;
        self
    }

    /// Sample per-operator progress on this wall-clock interval (pooled
    /// mode). The thread waiting for the run snapshots the tracer at the
    /// start of the run and every `interval` thereafter; without this the
    /// trace holds only the terminal sample.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use scriptflow_workflow::LiveExecutor;
    /// let exec = LiveExecutor::new(64).with_trace(Duration::from_millis(5));
    /// # let _ = exec;
    /// ```
    pub fn with_trace(mut self, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "trace interval must be positive");
        self.trace_interval = Some(interval);
        self
    }

    /// Inject a deterministic [`FaultPlan`] into the pooled run (see
    /// [`crate::fault`]). The named operators fail as planned, the pool
    /// drains, and the run returns `Err` with the partial trace intact.
    /// The reference interpreter ([`LiveExecutor::thread_per_worker`])
    /// ignores fault plans: it is what a faulted, retried run must
    /// reproduce. A plan naming an
    /// operator the workflow doesn't have fails the run upfront with
    /// [`crate::WorkflowError::InvalidDag`].
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::fault::{random_chain, FaultPlan};
    /// use scriptflow_workflow::{LiveExecutor, OperatorState};
    ///
    /// let (wf, _handle, _names) = random_chain(5);
    /// let plan = FaultPlan::new(5).kill_worker("f0", 10);
    /// let (trace, result) = LiveExecutor::new(8)
    ///     .with_pool_size(1)
    ///     .with_faults(plan)
    ///     .run_observed(&wf);
    /// assert!(result.is_err());
    /// let (_, last) = trace.samples.last().unwrap();
    /// let f0 = last.iter().find(|s| s.name == "f0").unwrap();
    /// assert_eq!(f0.state, OperatorState::Failed);
    /// ```
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Per-operator retry budgets (pooled mode; see [`crate::retry`]).
    /// While an operator's [`crate::retry::RetryPolicy`] has budget left, each step
    /// holds its input until the operator has processed it — the whole
    /// input, or the tail behind an injected fault position. A fault
    /// with something held (an error or panic in the operator's step, an
    /// injected kill or panic) parks the task for the backoff (its worker
    /// moves on to other tasks) and then replays the held input instead
    /// of flipping the operator to sticky `Failed`; tuples are delivered
    /// exactly once across replays. A fault with nothing held — a panic
    /// in a port completion, or any fault past the budget — fails the
    /// operator and takes the drain path. (A poisoned mailbox payload
    /// carries no data; the budget absorbs it by dropping it.) The
    /// default configuration is disabled, which is byte-identical to the
    /// pre-retry executor.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::fault::{random_chain, FaultPlan};
    /// use scriptflow_workflow::retry::{RetryConfig, RetryPolicy};
    /// use scriptflow_workflow::{LiveExecutor, OperatorState};
    ///
    /// let (wf, _handle, _names) = random_chain(5);
    /// let plan = FaultPlan::new(5).kill_worker("f0", 10);
    /// let res = LiveExecutor::new(8)
    ///     .with_pool_size(1)
    ///     .with_faults(plan)
    ///     .with_retry(RetryConfig::uniform(RetryPolicy::default()))
    ///     .run(&wf)
    ///     .expect("the retry budget absorbs the injected kill");
    /// assert_eq!(res.metrics.by_name("f0").unwrap().state, OperatorState::Completed);
    /// assert!(res.pool.unwrap().retries_succeeded >= 1);
    /// ```
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }

    /// Does nothing: `enabled` is ignored, and the method stays only
    /// because the frozen `benchmark/` compiles against it.
    ///
    /// Batch layout is not a caller's choice, because neither value is
    /// right for a whole DAG: on, every UDF hop seals its output for the
    /// next to unseal (`paper_tasks` +33 %); off, a scan feeding a
    /// comparison filter clones every row up front. An edge carries what
    /// its producer emitted — rows, or a sealed [`ColumnarBatch`] — and
    /// is never converted; a source that can seal
    /// ([`crate::OperatorFactory::source_columnar`]) does so exactly when
    /// every consumer reads columns
    /// ([`crate::OpDescriptor::batch_kernel`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::LiveExecutor;
    /// let exec = LiveExecutor::new(64).with_columnar(true); // same as `new(64)`
    /// # let _ = exec;
    /// ```
    pub fn with_columnar(self, _enabled: bool) -> Self {
        self
    }

    /// Bound every blocking operator's in-memory state to `bytes` (see
    /// [`crate::spill`]). Past the budget an operator hash-partitions
    /// its buffered state into compressed spill blocks and finishes the
    /// work partition-by-partition; results are identical to the
    /// unbounded run, only the `spilled_*` counters and throughput
    /// change. `None` (the default) keeps execution fully in memory.
    /// An operator carrying its own budget override (e.g.
    /// [`crate::ops::HashJoinOp::with_memory_budget`]) ignores this
    /// engine-level value.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::LiveExecutor;
    /// let exec = LiveExecutor::new(64).with_memory_budget(Some(1 << 20));
    /// # let _ = exec;
    /// ```
    pub fn with_memory_budget(mut self, bytes: Option<usize>) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Memoize sealed operator outputs in `cache`, keyed by content
    /// fingerprint (see [`crate::cache`]). Before a pooled run the
    /// executor replans the DAG: fingerprints already in the cache are
    /// served by replay sources and their unedited upstream cone is
    /// skipped; misses run normally and record their output, published
    /// to the cache when the run finishes cleanly (no faults, no
    /// retries). `None` (the default) executes every operator.
    /// The reference interpreter ([`LiveExecutor::thread_per_worker`])
    /// ignores the cache and executes every operator.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use scriptflow_workflow::{LiveExecutor, ResultCache};
    /// let exec = LiveExecutor::new(64).with_result_cache(Arc::new(ResultCache::new()));
    /// # let _ = exec;
    /// ```
    pub fn with_result_cache(mut self, cache: Arc<crate::cache::ResultCache>) -> Self {
        self.result_cache = Some(cache);
        self
    }

    /// Execute `wf`; blocks until completion.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use scriptflow_datakit::{Batch, DataType, Schema, Value};
    /// use scriptflow_workflow::ops::{ScanOp, SinkOp};
    /// use scriptflow_workflow::{LiveExecutor, PartitionStrategy, WorkflowBuilder};
    ///
    /// let schema = Schema::of(&[("id", DataType::Int)]);
    /// let batch =
    ///     Batch::from_rows(schema, (0..6).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    /// let mut b = WorkflowBuilder::new();
    /// let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
    /// let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
    /// b.connect(scan, sink, 0, PartitionStrategy::Single);
    /// let wf = b.build().unwrap();
    ///
    /// let res = LiveExecutor::new(4).run(&wf).unwrap();
    /// assert_eq!(res.metrics.by_name("sink").unwrap().input_tuples, 6);
    /// ```
    pub fn run(&self, wf: &Workflow) -> WorkflowResult<EngineRun> {
        self.run_observed(wf).1
    }

    /// Execute `wf`, returning the progress trace alongside the result.
    ///
    /// Unlike [`LiveExecutor::run`] — whose trace travels inside
    /// [`EngineRun`] and is therefore lost on `Err` — this always
    /// hands the trace back, so a failed run can still be replayed to
    /// see which operator reached [`crate::OperatorState::Failed`]. The
    /// reference interpreter's trace is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use scriptflow_datakit::{Batch, DataType, Schema, Value};
    /// use scriptflow_workflow::ops::{FilterOp, ScanOp, SinkOp};
    /// use scriptflow_workflow::{
    ///     LiveExecutor, OperatorState, PartitionStrategy, WorkflowBuilder,
    /// };
    ///
    /// let schema = Schema::of(&[("id", DataType::Int)]);
    /// let batch =
    ///     Batch::from_rows(schema, (0..6).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    /// let mut b = WorkflowBuilder::new();
    /// let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
    /// let bad = b.add(
    ///     Arc::new(FilterOp::new("bad", |t| {
    ///         t.get_int("missing")?; // no such column: the operator fails
    ///         Ok(true)
    ///     })),
    ///     1,
    /// );
    /// let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
    /// b.connect(scan, bad, 0, PartitionStrategy::RoundRobin);
    /// b.connect(bad, sink, 0, PartitionStrategy::Single);
    /// let wf = b.build().unwrap();
    ///
    /// let (trace, result) = LiveExecutor::new(4).run_observed(&wf);
    /// assert!(result.is_err());
    /// let (_, last) = trace.samples.last().unwrap();
    /// assert!(last.iter().any(|s| s.state == OperatorState::Failed));
    /// ```
    pub fn run_observed(&self, wf: &Workflow) -> (ProgressTrace, WorkflowResult<EngineRun>) {
        if !self.pooled {
            let run = crate::exec_reference::run(wf, self.memory_budget);
            return (ProgressTrace::default(), run);
        }
        let mut config = ServiceConfig::default()
            .with_max_active_runs(1)
            .with_default_quota(TenantQuota::default().with_mailbox_budget(self.channel_capacity));
        if let Some(threads) = self.pool_size {
            config = config.with_pool_size(threads);
        }
        if let Some(cache) = &self.result_cache {
            config = config.with_result_cache(Arc::clone(cache));
        }
        let mut opts = RunOptions::default()
            .with_batch_size(self.batch_size)
            .with_retry(self.retry.clone())
            .with_memory_budget(self.memory_budget)
            .with_result_cache(self.result_cache.is_some());
        if let Some(plan) = &self.faults {
            opts = opts.with_faults(plan.clone());
        }
        crate::service::run_solo(config, wf, opts, self.trace_interval)
    }
}

pub(crate) fn makespan_of(elapsed: Duration) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(elapsed.as_micros().min(u128::from(u64::MAX)) as u64)
}

/// Assemble an [`EngineRun`] from a finished run core's probes. `ops`
/// is the run's initial per-operator telemetry
/// ([`OperatorMetrics::for_workflow`], captured at submission so a run
/// finalized later does not have to hold the DAG); everything counted
/// since is read back from `tracer`. `pool` is left for the finalizer to
/// fill once the cache commit is folded in ([`Pool::stats`]).
pub(crate) fn assemble_live_result(
    ops: &[OperatorMetrics],
    total_workers: usize,
    elapsed: Duration,
    tracer: &LiveTracer,
    trace: ProgressTrace,
) -> EngineRun {
    let operators: Vec<OperatorMetrics> = ops
        .iter()
        .enumerate()
        .map(|(i, initial)| {
            let probe = tracer.probe(i);
            OperatorMetrics {
                input_tuples: probe.input_tuples(),
                output_tuples: probe.output_tuples(),
                counters: probe.counters(),
                sched: probe.sched(),
                busy: probe.busy(),
                state: probe.state(),
                ..initial.clone()
            }
        })
        .collect();
    EngineRun {
        kind: BackendKind::Live,
        rows: Vec::new(),
        elapsed,
        metrics: RunMetrics {
            makespan: makespan_of(elapsed),
            operators,
            total_workers,
            events: 0,
        },
        trace,
        pool: None,
        cache_published: 0,
        worker_timeline: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Pooled executor
// ---------------------------------------------------------------------------

/// Message flowing into a worker task's mailbox.
enum Msg {
    /// Data tuples for an input port, shared rather than copied.
    Batch { port: usize, batch: SharedBatch },
    /// One upstream producer worker is done with this edge.
    Eos { port: usize },
    /// A corrupted payload planted by a fault plan; consuming it fails
    /// the operator (exercises the "garbage in the mailbox" path).
    Poison { port: usize },
}

/// Task state machine (Databend-style): a task is scheduled at most once
/// concurrently; schedule requests arriving mid-run dirty the state so the
/// pool re-queues the task when the run finishes.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;

/// Messages a task may process per run quantum before re-queuing itself,
/// so one busy task cannot monopolize a pool thread.
const QUANTUM: usize = 64;

/// One compiled out-edge of a task: where its output goes and how.
#[derive(Clone)]
struct EdgeOut {
    to_port: usize,
    partitioner: CompiledPartitioner,
    /// Global task ids of the consumer's workers, by local index.
    dests: Vec<usize>,
}

impl EdgeOut {
    /// Row buffers the edge fills: one per destination worker where rows
    /// are scattered, one in all where every row goes the same way (a
    /// single consumer, or a broadcast sharing each batch).
    fn buffers(&self) -> usize {
        if self.partitioner.is_broadcast() {
            1
        } else {
            self.dests.len()
        }
    }

    /// Queue `rows`, the next batch out of buffer `w`, for delivery. A
    /// broadcast edge shares the one allocation among its destinations.
    fn send(&self, w: usize, rows: Vec<Tuple>, outbox: &mut VecDeque<(usize, Msg)>) {
        let batch = SharedBatch::new(rows);
        let dests = if self.partitioner.is_broadcast() {
            &self.dests[..]
        } else {
            &self.dests[w..=w]
        };
        for &dest in dests {
            let (port, batch) = (self.to_port, batch.clone());
            outbox.push_back((dest, Msg::Batch { port, batch }));
        }
    }
}

/// Static (shared, read-only) description of one operator-worker task.
struct TaskStatic {
    /// Operator index (for the metric counters).
    op: usize,
    downstream: Vec<EdgeOut>,
    blocking: Vec<usize>,
    batch_size: usize,
    /// Injected latency per forwarded batch group (slow-edge fault).
    slow_edge: Option<Duration>,
    /// Which of the run's cache recordings the output this task routes
    /// is teed into. `None` for a source too: its partitions are
    /// recorded where they are produced, in [`build_tasks`].
    record: Option<usize>,
}

/// A step's input, held while a fault could still replay it (see
/// [`crate::retry`]).
struct ReplayBatch {
    port: usize,
    /// What a replay re-processes, as it arrived (a sealed batch stays
    /// sealed): the whole input while the operator processes it, or the
    /// tail behind an injected fault position, whose head was processed
    /// and forwarded.
    input: Emitted,
    /// Whether `on_input` already counted these tuples.
    counted: bool,
}

/// A source task's operator: the engine hands it the source's chunks
/// through [`Pool::consume`] like any other input, and it emits them as
/// they came. (The factory's own instance accepts no input.)
struct PassThrough;

impl Operator for PassThrough {
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        out.emit(tuple);
        Ok(())
    }

    fn on_batch(
        &mut self,
        batch: &ColumnarBatch,
        _: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        out.emit_batch(batch.clone());
        Ok(())
    }
}

/// Mutable task state; locked only by the single pool thread running the
/// task (the state machine guarantees no concurrent runs).
struct TaskInner {
    instance: Box<dyn Operator>,
    collector: OutputCollector,
    /// Routing sequence per out-edge.
    seqs: Vec<u64>,
    /// Per-out-edge, per-destination-worker row buffers
    /// ([`EdgeOut::buffers`]). Output is scattered into them and leaves a
    /// full edge batch at a time; a remainder waits here for more output
    /// of the same quantum, never beyond it ([`Pool::close_batches`]).
    scatter: Vec<Vec<Vec<Tuple>>>,
    /// Reusable row-index buffers for scattering a columnar batch.
    scatter_rows: Vec<Vec<Vec<u32>>>,
    /// Routed messages awaiting delivery; kept FIFO so per-destination
    /// ordering (data before EOS) is preserved under backpressure.
    outbox: VecDeque<(usize, Msg)>,
    /// Remaining EOS per input port before the port completes.
    eos_remaining: Vec<usize>,
    port_done: Vec<bool>,
    /// Messages gated behind a blocking port (unbounded by design: holding
    /// them is what keeps mailboxes draining and the pool deadlock-free).
    held: VecDeque<Msg>,
    /// Released held messages, processed ahead of new mailbox arrivals.
    pending: VecDeque<Msg>,
    /// Own data (source workers only).
    source: Option<Source>,
    eos_queued: bool,
    done: bool,
    /// The task failed (organic error, injected fault, or captured
    /// panic): subsequent quanta run the drain path instead of the
    /// normal one.
    failed: bool,
    /// Fault plan: suppress this worker's EOS markers entirely.
    drop_eos: bool,
    /// Fault plan: run quanta left to burn before sending EOS.
    eos_delay: u32,
    /// The input a fault would replay: held by [`Pool::consume`], and
    /// re-processed at the start of the next quantum once a fault spent
    /// budget on it.
    replay: Option<ReplayBatch>,
    /// The operator's retry budget (a retried task that still finishes
    /// cleanly counts in [`crate::SchedCounters::retries_succeeded`]).
    retry: RetryBudget,
    /// Armed retry backoff: the task must not run again before this
    /// instant.
    park_until: Option<Instant>,
}

/// A source worker's own data, handed out one edge batch at a time.
struct Source {
    /// A row source's pre-chunked partition.
    rows: VecDeque<Vec<Tuple>>,
    /// The dataset its factory sealed once
    /// ([`crate::OperatorFactory::source_columnar`]), when every consumer
    /// reads columns: nothing is copied until a quantum gathers a chunk.
    sealed: Option<SealedCursor>,
}

/// Worker `k` of `w` reads rows `k, k + w, …` of the sealed dataset.
struct SealedCursor {
    data: ColumnarBatch,
    next: usize,
    stride: usize,
}

impl Source {
    /// The next chunk of at most `batch_size` rows.
    fn pop(&mut self, batch_size: usize) -> Option<Emitted> {
        if let Some(rows) = self.rows.pop_front() {
            return Some(Emitted::Rows(rows));
        }
        let cursor = self.sealed.as_mut()?;
        let rows: Vec<u32> = (cursor.next..cursor.data.len())
            .step_by(cursor.stride)
            .take(batch_size)
            // `build_tasks` only seals datasets whose length fits.
            .map(|i| i as u32)
            .collect();
        let last = *rows.last()?;
        cursor.next = last as usize + cursor.stride;
        Some(Emitted::Columnar(cursor.data.take(&rows)))
    }
}

impl TaskInner {
    /// Hold `input` for a fault to replay, if the budget could still pay
    /// for a replay.
    fn hold(&mut self, port: usize, input: impl FnOnce() -> Emitted, counted: bool) {
        if self.retry.left() {
            self.replay = Some(ReplayBatch {
                port,
                input: input(),
                counted,
            });
        }
    }

    /// Count one EOS marker on `port`; `true` when it closed the port.
    fn note_eos(&mut self, port: usize) -> bool {
        self.eos_remaining[port] = self.eos_remaining[port].saturating_sub(1);
        let closes = self.eos_remaining[port] == 0 && !self.port_done[port];
        if closes {
            self.port_done[port] = true;
        }
        closes
    }
}

/// Bounded mailbox feeding one task.
struct Inbox {
    queue: Mutex<VecDeque<Msg>>,
    capacity: usize,
}

pub(crate) struct Task {
    meta: TaskStatic,
    inner: Mutex<TaskInner>,
    inbox: Inbox,
    /// Producer tasks to wake when this mailbox frees space.
    waiters: Mutex<Vec<usize>>,
    state: AtomicU8,
}

enum RunOutcome {
    /// The task has more work immediately available: re-queue it.
    More,
    /// The task is waiting on input or on a full destination mailbox.
    Yield,
    /// The task finished and sent its EOS markers.
    Done,
}

/// One run's task set and counters. It owns no worker threads and no
/// ready queue: ready tasks, retry-backoff parks and run completion are
/// reported to the scheduler ([`crate::service`]'s `Shared`), which
/// decides which run's quantum each worker executes next and runs the
/// stall detector.
pub(crate) struct Pool {
    tasks: Vec<Task>,
    error: Mutex<Option<WorkflowError>>,
    /// Tasks that have not reached `Done`; 0 = the run is finished.
    active: AtomicUsize,
    /// Compiled fault plan consulted on the hot path (None = no faults).
    faults: Option<CompiledFaults>,
    /// Worker-thread count of the scheduler's pool, for [`PoolStats`].
    pool_threads: usize,
    /// Times `recover_stall` ran (dropped-EOS recovery).
    stall_recoveries: AtomicU64,
    /// Per-operator observability counters (tuple counts, states, busy
    /// time, mailbox depth, both counter families) — fed inline by the
    /// hooks below.
    tracer: LiveTracer,
    /// Interval samples taken while the run executes ([`Pool::sample`]).
    samples: Mutex<Vec<(SimTime, Vec<OperatorSnapshot>)>>,
    /// The plan's cache-miss recordings, filled as output is routed and
    /// committed by the scheduler if the run ends clean.
    recordings: Vec<CacheRecording>,
    /// Where scheduling events go, under run id `run`. The `Weak` breaks
    /// the scheduler ↔ run reference cycle.
    sched: Weak<Shared>,
    run: u64,
}

impl Pool {
    fn enqueue(&self, tid: usize) {
        if let Some(s) = self.sched.upgrade() {
            s.task_ready(self.run, tid);
        }
    }

    /// Account one task reaching `Done`. The last one tells the
    /// scheduler the run is finished.
    fn task_done(&self) {
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(s) = self.sched.upgrade() {
                s.run_finished();
            }
        }
    }

    /// Build the core of run `run`, executing on `sched`'s workers.
    /// `pool_threads` records that pool's width for [`PoolStats`];
    /// `recordings` are the ones `tasks` were built against.
    pub(crate) fn new(
        tasks: Vec<Task>,
        recordings: Vec<CacheRecording>,
        faults: Option<CompiledFaults>,
        pool_threads: usize,
        tracer: LiveTracer,
        sched: Weak<Shared>,
        run: u64,
    ) -> Self {
        let n_tasks = tasks.len();
        Pool {
            tasks,
            error: Mutex::new(None),
            active: AtomicUsize::new(n_tasks),
            faults,
            pool_threads,
            stall_recoveries: AtomicU64::new(0),
            tracer,
            samples: Mutex::new(Vec::new()),
            recordings,
            sched,
            run,
        }
    }

    /// Mark every task `QUEUED` and return the task ids, in order: every
    /// task gets one initial quantum (sources start emitting, consumers
    /// find empty mailboxes and go idle until woken).
    pub(crate) fn seed_all(&self) -> Vec<usize> {
        for task in &self.tasks {
            task.state.store(QUEUED, Ordering::Release);
        }
        (0..self.tasks.len()).collect()
    }

    /// Every task reached `Done`. An unfinished run with an empty ready
    /// list and no running quanta has stalled (dropped EOS) and needs
    /// [`Pool::recover_stall`].
    pub(crate) fn finished(&self) -> bool {
        self.active.load(Ordering::Acquire) == 0
    }

    /// Take the run's first recorded error, if any.
    pub(crate) fn take_error(&self) -> Option<WorkflowError> {
        lock(&self.error).take()
    }

    /// The run's live observability probes.
    pub(crate) fn tracer(&self) -> &LiveTracer {
        &self.tracer
    }

    /// What the run recorded for the result cache.
    pub(crate) fn recordings(&self) -> &[CacheRecording] {
        &self.recordings
    }

    /// Record one interval sample of the run's progress.
    pub(crate) fn sample(&self) {
        lock(&self.samples).push(self.tracer.snapshot());
    }

    /// Assemble the run's [`ProgressTrace`]: the interval samples taken
    /// so far, then the terminal sample.
    pub(crate) fn finish_trace(&self) -> ProgressTrace {
        self.tracer
            .finish(std::mem::take(&mut *lock(&self.samples)))
    }

    /// Injected faults that fired during the run.
    pub(crate) fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.triggered())
    }

    /// The run's [`PoolStats`]: `metrics`' sums — the finished run's, with
    /// its cache commit folded in — plus the run-level facts only the pool
    /// holds.
    pub(crate) fn stats(&self, metrics: &RunMetrics) -> PoolStats {
        let sched = metrics.sched_totals();
        PoolStats {
            pool_threads: self.pool_threads,
            tasks: self.tasks.len(),
            task_runs: sched.quanta,
            backpressure_stalls: sched.backpressure_stalls,
            batches_sent: sched.batches_sent,
            peak_mailbox_depth: self.tracer.peak_mailbox_depth(),
            faults_injected: self.faults_injected(),
            stall_recoveries: self.stall_recoveries.load(Ordering::Relaxed),
            retries_attempted: sched.retries_attempted,
            retries_succeeded: sched.retries_succeeded,
            counters: metrics.totals(),
        }
    }

    /// Request that `tid` runs (again) soon. Idempotent; safe from any
    /// thread. Duplicate queue entries are filtered by the CAS on pop.
    fn schedule(&self, tid: usize) {
        let state = &self.tasks[tid].state;
        loop {
            match state.load(Ordering::Acquire) {
                IDLE => {
                    if state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.enqueue(tid);
                        return;
                    }
                }
                RUNNING => {
                    if state
                        .compare_exchange(
                            RUNNING,
                            RUNNING_DIRTY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued or already dirtied: nothing to do.
                _ => return,
            }
        }
    }

    /// Record a failure against operator `op`: sticky `Failed` state plus
    /// the run's first error. The pool keeps running — draining (rather
    /// than aborting) is what preserves the partial trace and lets the
    /// untainted part of the pipeline finish.
    fn fail_op(&self, op: usize, e: WorkflowError) {
        self.tracer.on_failed(op);
        let mut g = lock(&self.error);
        if g.is_none() {
            *g = Some(e);
        }
    }

    /// Fail the task currently being run: record the error and flip the
    /// task into drain mode for its next quantum.
    fn fail_task(&self, op: usize, inner: &mut TaskInner, e: WorkflowError) {
        self.fail_op(op, e);
        inner.failed = true;
    }

    /// The error an engine-detected failure of operator `op` reports: a
    /// kill, a poisoned payload, a panic, a dropped EOS, a stall.
    fn failed(&self, op: usize, message: String) -> WorkflowError {
        WorkflowError::OperatorFailed {
            operator: self.tracer.probe(op).name().to_owned(),
            message,
        }
    }

    /// The one fault rule (see [`crate::retry`]): discard the faulted
    /// step's partial output, then replay what the step held — budget
    /// allowing — or, with nothing held, fail the operator with `e`.
    fn fault(&self, op: usize, inner: &mut TaskInner, e: WorkflowError) {
        inner.collector.discard();
        if !(inner.replay.is_some() && self.try_retry(op, inner)) {
            self.fail_task(op, inner, e);
        }
    }

    /// Consume one replay from the task's retry budget: arm the backoff,
    /// surface [`OperatorState::Retrying`], and return `true` — the
    /// caller replays instead of failing. Returns `false` with the budget
    /// untouched once it is exhausted: the fault degrades to the drain
    /// path exactly as it would without a policy.
    ///
    /// The backoff is never slept: the task is *parked* — the quantum
    /// finishes, the scheduler's timer re-queues the task once the
    /// backoff elapses, and the workers stay available to every other
    /// task throughout.
    fn try_retry(&self, op: usize, inner: &mut TaskInner) -> bool {
        let Some(delay) = inner.retry.spend() else {
            return false;
        };
        self.tracer.on_retrying(op);
        if !delay.is_zero() {
            let until = Instant::now() + delay;
            inner.park_until = Some(inner.park_until.map_or(until, |u| u.max(until)));
        }
        true
    }

    fn wake_waiters(&self, tid: usize) {
        let waiters = std::mem::take(&mut *lock(&self.tasks[tid].waiters));
        for w in waiters {
            self.schedule(w);
        }
    }

    /// A finished task that still receives messages (possible only after
    /// a forced finish) throws them away, keeping the mailbox-depth
    /// accounting consistent and its producers unwedged.
    fn discard_inbox(&self, tid: usize) {
        let task = &self.tasks[tid];
        let mut consumed = false;
        while lock(&task.inbox.queue).pop_front().is_some() {
            consumed = true;
            self.tracer.on_mailbox_pop(task.meta.op);
        }
        if consumed {
            self.wake_waiters(tid);
        }
    }

    /// Deliver `msg` to `dest`'s mailbox, or hand it back if the mailbox
    /// is full. On the full path the sender is registered as a waiter
    /// first and the mailbox re-checked, so a concurrent drain cannot
    /// strand the sender without a wakeup.
    fn try_send(&self, from: usize, dest: usize, msg: Msg) -> Result<(), Msg> {
        let inbox = &self.tasks[dest].inbox;
        let batch_port = match &msg {
            Msg::Batch { port, .. } => Some(*port),
            _ => None,
        };
        let push = |msg: Msg| {
            let mut q = lock(&inbox.queue);
            if q.len() >= inbox.capacity {
                return Err(msg);
            }
            q.push_back(msg);
            // Hooked before the lock drops so the matching pop hook
            // (which runs after a later lock acquisition) can never
            // observe the push-count behind the pop-count.
            self.tracer.on_mailbox_push(self.tasks[dest].meta.op);
            self.poison_after_push(dest, batch_port, &mut q);
            drop(q);
            if batch_port.is_some() {
                let op = self.tasks[from].meta.op;
                self.tracer.count(op, |s| &s.batches_sent);
            }
            self.schedule(dest);
            Ok(())
        };
        let msg = match push(msg) {
            Ok(()) => return Ok(()),
            Err(msg) => msg,
        };
        lock(&self.tasks[dest].waiters).push(from);
        push(msg)
    }

    /// Poison-mailbox fault: counted on *successful* batch deliveries
    /// only (a backpressure retry must not advance the count), planting
    /// the poison right behind the armed batch — one slot of capacity
    /// overshoot, same lock hold.
    fn poison_after_push(&self, dest: usize, batch_port: Option<usize>, q: &mut VecDeque<Msg>) {
        let Some(port) = batch_port else { return };
        let dest_op = self.tasks[dest].meta.op;
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.check_poison(dest_op))
        {
            q.push_back(Msg::Poison { port });
            self.tracer.on_mailbox_push(dest_op);
        }
    }

    /// Drain the task's outbox in FIFO order. Returns `false` (and counts
    /// a stall) if the head message's destination is full — the task must
    /// yield and will be re-scheduled by the consumer.
    fn flush_outbox(&self, tid: usize, inner: &mut TaskInner) -> bool {
        while let Some((dest, msg)) = inner.outbox.pop_front() {
            match self.try_send(tid, dest, msg) {
                Ok(()) => {}
                Err(msg) => {
                    // The stall is charged to the operator whose mailbox
                    // is full — the backpressure *source*, not its victim.
                    self.tracer.on_stall(self.tasks[dest].meta.op);
                    inner.outbox.push_front((dest, msg));
                    return false;
                }
            }
        }
        true
    }

    /// Route one run of output along every out-edge — the one way out of
    /// a task, so also where a cache-miss operator's output is recorded.
    /// A faulted step's output is discarded, never routed, and so never
    /// recorded and never in an edge buffer.
    fn forward(
        &self,
        meta: &TaskStatic,
        inner: &mut TaskInner,
        out: Emitted,
    ) -> WorkflowResult<()> {
        if let Some(r) = meta.record {
            self.recordings[r].tee(out.clone());
        }
        match out {
            Emitted::Rows(tuples) => self.forward_rows(meta, inner, tuples),
            Emitted::Columnar(batch) => self.forward_columnar(meta, inner, batch),
        }
    }

    /// Route a sealed columnar batch without building rows: broadcast and
    /// single-consumer edges pass the batch on (a reference-count bump);
    /// scattered edges gather each destination's rows into a batch of its
    /// own, with the row router's `seq` arithmetic and hash buckets, so
    /// every tuple lands on the worker [`Pool::forward_rows`] would send
    /// it to. A sealed batch is never merged with another: it leaves at
    /// once, behind whatever rows the edge buffers still held.
    fn forward_columnar(
        &self,
        meta: &TaskStatic,
        inner: &mut TaskInner,
        batch: ColumnarBatch,
    ) -> WorkflowResult<()> {
        self.tracer.on_output(meta.op, batch.len() as u64);
        if meta.downstream.is_empty() || batch.is_empty() {
            return Ok(());
        }
        self.close_batches(meta, inner);
        let TaskInner {
            seqs,
            scatter_rows,
            outbox,
            ..
        } = inner;
        for (d, edge) in meta.downstream.iter().enumerate() {
            let mut send = |dests: &[usize], chunk: ColumnarBatch| {
                let batch = SharedBatch::from_columnar(chunk);
                for &dest in dests {
                    outbox.push_back((
                        dest,
                        Msg::Batch {
                            port: edge.to_port,
                            batch: batch.clone(),
                        },
                    ));
                }
            };
            if edge.partitioner.is_broadcast() || edge.dests.len() == 1 {
                for part in batch.chunks(meta.batch_size) {
                    send(&edge.dests, part);
                }
            } else {
                edge.partitioner
                    .scatter_indices(&batch, &mut seqs[d], &mut scatter_rows[d])?;
                for (rows, dest) in scatter_rows[d].iter_mut().zip(&edge.dests) {
                    for part in rows.chunks(meta.batch_size) {
                        send(std::slice::from_ref(dest), batch.take(part));
                    }
                    rows.clear();
                }
            }
        }
        Ok(())
    }

    /// Route `tuples` along every out-edge, into the edge's row buffers:
    /// a scattered edge *moves* each tuple into its destination worker's
    /// buffer, a broadcast or single-consumer edge appends the run to its
    /// one buffer, and genuine multi-edge fan-out clones tuples — two
    /// reference counts each, no values copied. A batch leaves for the
    /// outbox the moment a buffer holds the edge's `batch_size` rows; what
    /// is left stays for the task's next output to top up, or for
    /// [`Pool::close_batches`] at the end of the quantum. So a hop that
    /// splits its input `w` ways still sends full batches, not `w`-ths.
    fn forward_rows(
        &self,
        meta: &TaskStatic,
        inner: &mut TaskInner,
        tuples: Vec<Tuple>,
    ) -> WorkflowResult<()> {
        self.tracer.on_output(meta.op, tuples.len() as u64);
        if meta.downstream.is_empty() || tuples.is_empty() {
            return Ok(());
        }
        let TaskInner {
            seqs,
            scatter,
            outbox,
            ..
        } = inner;
        let last = meta.downstream.len() - 1;
        let mut remaining = Some(tuples);
        for (d, edge) in meta.downstream.iter().enumerate() {
            let mut owned = if d == last {
                remaining.take().expect("taken only on the last edge")
            } else {
                remaining
                    .as_ref()
                    .expect("present until the last edge")
                    .clone()
            };
            let bufs = &mut scatter[d];
            if bufs.len() == 1 {
                if bufs[0].is_empty() {
                    bufs[0] = owned;
                } else {
                    bufs[0].append(&mut owned);
                }
            } else {
                edge.partitioner.scatter(owned, &mut seqs[d], bufs)?;
            }
            for (w, buf) in bufs.iter_mut().enumerate() {
                carve_full(buf, meta.batch_size, |rows| edge.send(w, rows, outbox));
            }
        }
        Ok(())
    }

    /// The flush point: every row an edge buffer still holds leaves for
    /// the outbox as one last, short batch. Reached when the task's
    /// quantum ends for any reason — inbox drained, `QUANTUM` reached, a
    /// full mailbox, a fault — and before its EOS is queued, so no row
    /// waits across quanta for a batch to fill and the last remainder
    /// precedes the EOS that closes its edge. The buffers hold only what
    /// successful steps routed: flushing them after a fault delivers the
    /// output of the steps before it exactly once.
    fn close_batches(&self, meta: &TaskStatic, inner: &mut TaskInner) {
        let TaskInner {
            scatter, outbox, ..
        } = inner;
        for (edge, bufs) in meta.downstream.iter().zip(scatter) {
            for (w, buf) in bufs.iter_mut().enumerate() {
                if !buf.is_empty() {
                    edge.send(w, std::mem::take(buf), outbox);
                }
            }
        }
    }

    /// The tail of every successful processing step: drain what the step
    /// counted into the tracer, then route and deliver what it collected.
    /// (A faulted step discards both instead — [`Pool::fault`] — so its
    /// replay regenerates them exactly once.) Returns the outcome that
    /// ends the quantum, if any — `More` after a routing error failed the
    /// task, `Yield` when the head destination is full.
    fn emit_collected(
        &self,
        tid: usize,
        meta: &TaskStatic,
        inner: &mut TaskInner,
    ) -> Option<RunOutcome> {
        self.tracer
            .add_counters(meta.op, &inner.collector.take_counters());
        if inner.collector.is_empty() {
            return None;
        }
        for out in inner.collector.drain_emitted() {
            if let Err(e) = self.forward(meta, inner, out) {
                self.fail_task(meta.op, inner, e);
                return Some(RunOutcome::More);
            }
        }
        (!self.flush_outbox(tid, inner)).then_some(RunOutcome::Yield)
    }

    /// Queue the task's EOS on every out-edge, once, behind whatever the
    /// outbox holds; `degrade` marks each consumer
    /// [`OperatorState::Degraded`] (its input is truncated).
    fn queue_eos(&self, meta: &TaskStatic, inner: &mut TaskInner, degrade: bool) {
        if std::mem::replace(&mut inner.eos_queued, true) {
            return;
        }
        for edge in &meta.downstream {
            for &dest in &edge.dests {
                if degrade {
                    self.tracer.on_degraded(self.tasks[dest].meta.op);
                }
                inner
                    .outbox
                    .push_back((dest, Msg::Eos { port: edge.to_port }));
            }
        }
    }

    /// Fire a tuple-counted fault trigger, the tail behind its position
    /// held: panic (captured by `run_task`'s `catch_unwind`) or kill the
    /// task. Either way [`Pool::fault`] replays the tail while budget
    /// remains and otherwise flips the task into drain mode.
    fn spring_trigger(&self, op: usize, inner: &mut TaskInner, t: TupleTrigger) -> RunOutcome {
        match t.action {
            TupleAction::Panic => panic!(
                "injected fault: operator `{}` panicked at tuple {}",
                self.tracer.probe(op).name(),
                t.at
            ),
            TupleAction::Kill => {
                let message = format!(
                    "worker killed mid-quantum at tuple {} (injected fault)",
                    t.at
                );
                self.fault(op, inner, self.failed(op, message));
                RunOutcome::More
            }
        }
    }

    /// The one way into a task's operator: process `input` arriving on
    /// `port` and emit what it produced. `counted` is whether these
    /// tuples were already counted as input (a source's chunk, counted
    /// only as output; a replay of a step that had counted them);
    /// `trigger` is the injected fault the input armed, if any. Returns
    /// the outcome that ends the quantum, if any.
    ///
    /// A sealed batch goes to the operator's `on_batch` kernel whole, so
    /// zone maps can drop it without touching the rows. While budget is
    /// left the input is held, as it arrived, until the operator is done
    /// with it, so a fault inside the step replays it ([`Pool::fault`]).
    /// A fault-armed input is unrolled instead — truncation and replay
    /// reason about tuple positions: only the tuples before the fault
    /// position are processed and count as input, and the tail behind it
    /// is what is held when the trigger springs.
    fn consume(
        &self,
        tid: usize,
        inner: &mut TaskInner,
        port: usize,
        input: Emitted,
        counted: bool,
        trigger: Option<TupleTrigger>,
    ) -> Option<RunOutcome> {
        let meta = &self.tasks[tid].meta;
        let (input, tail) = match &trigger {
            None => {
                // Counted below if not before: a replay never recounts.
                inner.hold(port, || input.clone(), true);
                (input, None)
            }
            Some(t) => {
                let mut rows = input.into_rows();
                let tail = rows.split_off((t.keep as usize).min(rows.len()));
                (Emitted::Rows(rows), Some(tail))
            }
        };
        if !counted {
            self.tracer.on_input(meta.op, input.len() as u64);
        }
        let step = match input {
            Emitted::Columnar(sealed) => {
                inner.instance.on_batch(&sealed, port, &mut inner.collector)
            }
            Emitted::Rows(tuples) => tuples
                .into_iter()
                .try_for_each(|t| inner.instance.on_tuple(t, port, &mut inner.collector)),
        };
        if let Err(e) = step {
            self.fault(meta.op, inner, e);
            return Some(RunOutcome::More);
        }
        // The operator is done with the input: a fault from here on has
        // nothing of it to replay.
        inner.replay = None;
        match (self.emit_collected(tid, meta, inner), trigger.zip(tail)) {
            // Fire even on a full downstream mailbox: the trigger's
            // counter already advanced, and the outbox keeps what could
            // not be delivered yet.
            (None | Some(RunOutcome::Yield), Some((t, tail))) => {
                inner.hold(port, || Emitted::Rows(tail), counted);
                Some(self.spring_trigger(meta.op, inner, t))
            }
            (Some(outcome), _) => Some(outcome),
            (None, None) => {
                if let Some(d) = meta.slow_edge {
                    std::thread::sleep(d);
                }
                None
            }
        }
    }

    /// One cooperative run quantum of task `tid`, with panic capture, and
    /// the flush point it ends in whatever ended it.
    fn run_task(&self, tid: usize) -> RunOutcome {
        let task = &self.tasks[tid];
        let meta = &task.meta;
        let mut guard = lock(&task.inner);
        let inner = &mut *guard;
        // A panic inside the quantum — organic or injected — costs one
        // operator, not the pool: capture it here and apply the fault
        // rule, which replays the step's held input or marks the owner
        // `Failed` and lets the task drain like any other failure.
        let quantum = std::panic::AssertUnwindSafe(|| self.run_quantum(tid, &mut *inner));
        let outcome = match std::panic::catch_unwind(quantum) {
            Ok(outcome) => outcome,
            Err(payload) => {
                // The unwound quantum may have popped its mailbox empty
                // without reaching the wake-up at the end of its loop.
                self.wake_waiters(tid);
                let message = format!("worker panicked: {}", panic_text(payload));
                self.fault(meta.op, inner, self.failed(meta.op, message));
                RunOutcome::More
            }
        };
        // Nothing waits in an edge buffer across quanta. An outbox that
        // is not empty here is stuck behind a full mailbox — the task is
        // already registered for the wake-up — and takes the remainders
        // at its tail; otherwise they are delivered now.
        let stuck = !inner.outbox.is_empty();
        self.close_batches(meta, inner);
        if !stuck && !inner.outbox.is_empty() {
            self.flush_outbox(tid, inner);
        }
        outcome
    }

    /// The body of one quantum: deliver what is owed, replay a faulted
    /// step, consume input (a source's own chunks first), and complete
    /// once no more can arrive.
    fn run_quantum(&self, tid: usize, inner: &mut TaskInner) -> RunOutcome {
        let task = &self.tasks[tid];
        let meta = &task.meta;

        if inner.done {
            self.discard_inbox(tid);
            return RunOutcome::Yield;
        }
        if inner.failed {
            return self.drain_failed(tid, meta, inner);
        }

        // Deliver whatever a previous quantum could not.
        if !self.flush_outbox(tid, inner) {
            return RunOutcome::Yield;
        }

        // A replayed step (see `crate::retry`): re-process the input the
        // faulted step held ahead of any new input. Injected triggers
        // are not re-consulted — their atomics already fired — so the
        // replay delivers each tuple exactly once.
        if let Some(replay) = inner.replay.take() {
            if let Some(outcome) =
                self.consume(tid, inner, replay.port, replay.input, replay.counted, None)
            {
                return outcome;
            }
        }

        // Consume a source's own chunks, then released-held messages,
        // then the mailbox.
        let mut consumed_inbox = false;
        let mut processed = 0usize;
        let early = 'consume: loop {
            if processed >= QUANTUM {
                break 'consume Some(RunOutcome::More);
            }
            processed += 1;
            // A source chunk enters like a batch on port 0, counted only
            // as the source's output.
            let (port, input, counted) = match inner
                .source
                .as_mut()
                .and_then(|s| s.pop(meta.batch_size))
            {
                Some(chunk) => (0, chunk, true),
                None => {
                    let msg = match inner.pending.pop_front() {
                        Some(m) => m,
                        None => match lock(&task.inbox.queue).pop_front() {
                            Some(m) => {
                                consumed_inbox = true;
                                self.tracer.on_mailbox_pop(meta.op);
                                m
                            }
                            None => break 'consume None,
                        },
                    };
                    if matches!(msg, Msg::Poison { .. }) {
                        // Poison bypasses the blocking gate: corruption in
                        // the mailbox fails the operator wherever it sits.
                        // A retry budget absorbs it — the corrupted payload
                        // carries no data, so discarding it and moving on
                        // loses nothing.
                        if self.try_retry(meta.op, inner) {
                            continue;
                        }
                        let message = "poisoned mailbox payload (injected fault)".to_owned();
                        self.fail_task(meta.op, inner, self.failed(meta.op, message));
                        break 'consume Some(RunOutcome::More);
                    }
                    let port = match &msg {
                        Msg::Batch { port, .. } | Msg::Eos { port } | Msg::Poison { port } => *port,
                    };
                    let gate_open = meta.blocking.iter().all(|&p| inner.port_done[p]);
                    if !gate_open && !meta.blocking.contains(&port) {
                        inner.held.push_back(msg);
                        continue;
                    }
                    match msg {
                        // Sole-owner row batches reclaim their tuples
                        // without copying; shared (broadcast) ones clone
                        // here, once per consumer that actually mutates
                        // them.
                        Msg::Batch { port, batch } => match batch.columnar() {
                            Some(sealed) => (port, Emitted::Columnar(sealed.clone()), false),
                            None => (port, Emitted::Rows(batch.into_tuples()), false),
                        },
                        Msg::Eos { port } => {
                            if inner.note_eos(port) {
                                if let Err(e) =
                                    inner.instance.on_port_complete(port, &mut inner.collector)
                                {
                                    self.fail_task(meta.op, inner, e);
                                    break 'consume Some(RunOutcome::More);
                                }
                                if let Some(outcome) = self.emit_collected(tid, meta, inner) {
                                    break 'consume Some(outcome);
                                }
                                let gate_now = meta.blocking.iter().all(|&p| inner.port_done[p]);
                                if gate_now && !inner.held.is_empty() {
                                    while let Some(m) = inner.held.pop_front() {
                                        inner.pending.push_back(m);
                                    }
                                }
                            }
                            continue;
                        }
                        Msg::Poison { .. } => unreachable!("poison handled before the gate"),
                    }
                }
            };
            let trigger = self
                .faults
                .as_ref()
                .and_then(|f| f.check_tuples(meta.op, input.len() as u64));
            if let Some(outcome) = self.consume(tid, inner, port, input, counted, trigger) {
                break 'consume Some(outcome);
            }
        };
        if consumed_inbox {
            self.wake_waiters(tid);
        }
        if let Some(outcome) = early {
            return outcome;
        }

        // Everything available has been processed — a source's chunks
        // included: complete if no more input can ever arrive
        // (per-channel FIFO means EOS is final).
        let ports_done = inner.port_done.iter().all(|d| *d);
        if ports_done
            && inner.pending.is_empty()
            && inner.held.is_empty()
            && lock(&task.inbox.queue).is_empty()
        {
            if inner.eos_delay > 0 {
                // Delayed-EOS fault: burn a run quantum before closing.
                inner.eos_delay -= 1;
                return RunOutcome::More;
            }
            // The open remainders leave ahead of the EOS that closes
            // their edges, and are delivered before the task is done.
            self.close_batches(meta, inner);
            if !self.flush_outbox(tid, inner) {
                return RunOutcome::Yield;
            }
            if inner.drop_eos {
                // Dropped-EOS fault: finish without telling downstream.
                // The scheduler's stall detector eventually synthesizes the
                // missing markers; the drop itself is the recorded
                // failure.
                if self
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.report_eos_drop(meta.op))
                {
                    let message = "end-of-stream markers dropped (injected fault)".to_owned();
                    self.fail_op(meta.op, self.failed(meta.op, message));
                }
                inner.done = true;
                return RunOutcome::Done;
            }
            // An operator that itself ran on truncated input passes the
            // taint downstream with its EOS.
            let tainted = matches!(
                self.tracer.probe(meta.op).state(),
                OperatorState::Degraded | OperatorState::Failed
            );
            self.queue_eos(meta, inner, tainted);
            if !self.flush_outbox(tid, inner) {
                return RunOutcome::Yield;
            }
            inner.done = true;
            return RunOutcome::Done;
        }
        RunOutcome::Yield
    }

    /// Run quantum for a failed task: produce nothing more, close its
    /// downstream edges exactly once (marking direct consumers
    /// [`OperatorState::Degraded`] — their input is truncated), and keep
    /// consuming input so upstream producers never wedge on a dead
    /// consumer. Done once every input port has closed. What the steps
    /// before the fault produced is not abandoned: the faulting quantum's
    /// flush point queued it, and the EOS goes out behind it.
    fn drain_failed(&self, tid: usize, meta: &TaskStatic, inner: &mut TaskInner) -> RunOutcome {
        let task = &self.tasks[tid];
        inner.source = None;
        inner.replay = None;
        // EOS parked in the hold/pending buffers — including markers the
        // stall detector synthesized — still counts toward closing the
        // ports. Blindly clearing these buffers livelocked combined
        // kill+drop-EOS plans: every recovery pass re-synthesized the
        // markers into `pending`, every drain quantum discarded them,
        // and `eos_remaining` never reached zero.
        while let Some(msg) = inner.pending.pop_front().or_else(|| inner.held.pop_front()) {
            if let Msg::Eos { port } = msg {
                inner.note_eos(port);
            }
        }
        self.queue_eos(meta, inner, true);
        if !self.flush_outbox(tid, inner) {
            return RunOutcome::Yield;
        }
        let mut consumed = false;
        loop {
            let msg = match lock(&task.inbox.queue).pop_front() {
                Some(m) => m,
                None => break,
            };
            consumed = true;
            self.tracer.on_mailbox_pop(meta.op);
            // Data and poison are discarded unprocessed; EOS still
            // counts toward closing the port.
            if let Msg::Eos { port } = msg {
                inner.note_eos(port);
            }
        }
        if consumed {
            self.wake_waiters(tid);
        }
        if inner.port_done.iter().all(|d| *d) {
            inner.done = true;
            return RunOutcome::Done;
        }
        RunOutcome::Yield
    }

    /// Last-resort recovery, run by the scheduler once its whole pool has
    /// gone quiet while tasks are still active: some EOS markers were
    /// dropped (a
    /// [`crate::fault::FaultKind::DropEos`] fault), so starving consumers
    /// are handed synthesized EOS and marked [`OperatorState::Degraded`].
    /// If there is nothing to synthesize, the stragglers are
    /// force-finished so the run still terminates — once the pipeline is
    /// wedged, termination beats completeness.
    pub(crate) fn recover_stall(&self) {
        self.stall_recoveries.fetch_add(1, Ordering::Relaxed);
        let mut progressed = false;
        for (tid, task) in self.tasks.iter().enumerate() {
            let mut guard = lock(&task.inner);
            let inner = &mut *guard;
            if inner.done {
                continue;
            }
            let missing: usize = inner
                .port_done
                .iter()
                .zip(&inner.eos_remaining)
                .filter(|(done, _)| !**done)
                .map(|(_, remaining)| *remaining)
                .sum();
            if missing == 0 {
                continue;
            }
            for p in 0..inner.port_done.len() {
                if inner.port_done[p] {
                    continue;
                }
                for _ in 0..inner.eos_remaining[p] {
                    inner.pending.push_back(Msg::Eos { port: p });
                }
            }
            self.tracer.on_degraded(task.meta.op);
            drop(guard);
            self.schedule(tid);
            progressed = true;
        }
        if progressed {
            return;
        }
        // Nothing to synthesize — the wedge is structural. Force the
        // stragglers over the line so every thread still joins.
        for task in &self.tasks {
            let mut inner = lock(&task.inner);
            if inner.done {
                continue;
            }
            inner.done = true;
            drop(inner);
            // A force-finished task never saw EOS: its input is
            // truncated, so it must surface as `Degraded` — neither a
            // clean `Completed` (which `on_worker_done` below would
            // otherwise promote) nor `Failed` (the fault lies upstream).
            // The stall itself is still recorded as the run's error.
            self.tracer.on_degraded(task.meta.op);
            let message = "pipeline stalled; task force-finished".to_owned();
            lock(&self.error).get_or_insert_with(|| self.failed(task.meta.op, message));
            self.tracer.on_worker_done(task.meta.op);
            self.task_done();
        }
    }

    /// Execute one scheduling round of task `tid`: claim it
    /// (`QUEUED → RUNNING`), run one quantum, and
    /// dispatch the outcome — re-queue, park (retry backoff), idle, or
    /// completion accounting. Stale queue entries (the task was already
    /// claimed or re-queued) are skipped.
    pub(crate) fn step(&self, tid: usize) {
        let task = &self.tasks[tid];
        if task
            .state
            .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let quantum_start = Instant::now();
        let outcome = self.run_task(tid);
        self.tracer.on_busy(task.meta.op, quantum_start.elapsed());
        self.tracer.count(task.meta.op, |s| &s.quanta);
        match outcome {
            RunOutcome::More => {
                task.state.store(QUEUED, Ordering::Release);
                // A retry backoff parks the task until it elapses
                // instead of re-queuing it immediately. The QUEUED state
                // it keeps while parked means later `schedule` calls
                // treat it as already queued.
                let park = lock(&task.inner).park_until.take();
                match park {
                    Some(until) => {
                        if let Some(s) = self.sched.upgrade() {
                            s.task_parked(self.run, tid, until);
                        }
                    }
                    None => self.enqueue(tid),
                }
            }
            RunOutcome::Yield => {
                // A schedule request that arrived mid-run dirtied the
                // state; honor it by re-queuing instead of idling.
                if task
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    task.state.store(QUEUED, Ordering::Release);
                    self.enqueue(tid);
                }
            }
            RunOutcome::Done => {
                task.state.store(IDLE, Ordering::Release);
                {
                    let inner = lock(&task.inner);
                    if inner.retry.retried() && !inner.failed {
                        self.tracer.count(task.meta.op, |s| &s.retries_succeeded);
                    }
                }
                self.tracer.on_worker_done(task.meta.op);
                self.task_done();
            }
        }
    }
}

/// Best-effort text of a panic payload (the `&str`/`String` cases the
/// standard `panic!` macro produces).
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "non-string panic payload".to_owned(),
        },
    }
}

/// Carve every full `size`-row batch off the front of `buf`, in order,
/// and leave the remainder — fewer than `size` rows — in it. Tuples are
/// moved, never cloned, and every batch carved from a longer buffer is
/// allocated at exactly its length — one pass, O(n) moves, O(n) resident
/// capacity. (`Vec::split_off` would not do: the head it leaves behind
/// keeps the whole parent's capacity, and the tail is re-copied per batch.)
fn carve_full(buf: &mut Vec<Tuple>, size: usize, mut emit: impl FnMut(Vec<Tuple>)) {
    debug_assert!(size > 0);
    if buf.len() < size {
        return;
    }
    if buf.len() == size {
        emit(std::mem::take(buf));
        return;
    }
    let mut rest = std::mem::take(buf).into_iter();
    while rest.len() >= size {
        let mut chunk = Vec::with_capacity(size);
        chunk.extend(rest.by_ref().take(size));
        emit(chunk);
    }
    buf.extend(rest);
}

/// Split an owned tuple vector into `size`-bounded chunks, in order: the
/// full batches [`carve_full`] yields, then the remainder. Both engines
/// chunk a source's partition with it.
pub(crate) fn chunk_owned(mut tuples: Vec<Tuple>, size: usize, mut emit: impl FnMut(Vec<Tuple>)) {
    carve_full(&mut tuples, size, &mut emit);
    if !tuples.is_empty() {
        emit(tuples);
    }
}

pub(crate) fn default_pool_size() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Build the per-(operator, worker) task set for `wf`: routing tables,
/// mailboxes, pre-chunked source partitions, and the fault/retry knobs
/// baked into each task's static half. Built at submission, before
/// the run is admitted to the pool. `recordings` are the cache plan's
/// (empty without one): each source's data is recorded here, and every
/// other marked operator's tasks are pointed at their recording.
pub(crate) fn build_tasks(
    wf: &Workflow,
    recordings: &[CacheRecording],
    batch_size: usize,
    channel_capacity: usize,
    faults: Option<&CompiledFaults>,
    retry: &RetryConfig,
    memory_budget: Option<usize>,
) -> Vec<Task> {
    // Global task id per (operator, local worker).
    let mut task_of: Vec<Vec<usize>> = Vec::with_capacity(wf.ops().len());
    let mut next = 0usize;
    for node in wf.ops() {
        task_of.push((next..next + node.parallelism).collect());
        next += node.parallelism;
    }

    let mut tasks: Vec<Task> = Vec::with_capacity(next);
    for (i, node) in wf.ops().iter().enumerate() {
        let op = OpId(i);
        let out_edges = wf.out_edges(op);
        let downstream: Vec<EdgeOut> = out_edges
            .iter()
            .map(|&(eid, e)| EdgeOut {
                to_port: e.to_port,
                partitioner: wf.partitioner(eid).clone(),
                dests: task_of[e.to.0].clone(),
            })
            .collect();
        let desc = node.desc();
        let ports = desc.input_ports;
        let record = recordings.iter().position(|r| r.op == op);
        // A source whose consumers all read columns hands every worker a
        // cursor over the dataset it sealed and copies nothing here; asked
        // of the consumers first, so a source feeding a UDF never seals.
        let reads_columns = ports == 0
            && !out_edges.is_empty()
            && out_edges
                .iter()
                .all(|(_, e)| wf.op(e.to).desc().batch_kernel);
        let sealed = reads_columns
            .then(|| node.factory.source_columnar())
            .flatten()
            .filter(|data| u32::try_from(data.len()).is_ok());
        // Otherwise a source is partitioned once, as rows; each worker
        // takes its own part.
        let parts = (ports == 0 && sealed.is_none()).then(|| {
            node.factory
                .source_partitions(node.parallelism)
                .expect("validated at build time")
        });
        // A source is recorded here: the sealed dataset shared, not
        // copied; rows in partition order.
        if let Some(recording) = record.filter(|_| ports == 0).map(|r| &recordings[r]) {
            match &sealed {
                Some(data) => recording.tee(Emitted::Columnar(data.clone())),
                None => parts
                    .iter()
                    .flatten()
                    .for_each(|part| recording.tee(Emitted::Rows(part.clone()))),
            }
        }
        let mut parts = parts.map(Vec::into_iter);
        for local in 0..node.parallelism {
            let mut rows = VecDeque::new();
            if let Some(parts) = parts.as_mut() {
                chunk_owned(parts.next().unwrap_or_default(), batch_size, |c| {
                    rows.push_back(c)
                });
            }
            let source = (ports == 0).then(|| Source {
                rows,
                sealed: sealed.as_ref().map(|data| SealedCursor {
                    data: data.clone(),
                    next: local,
                    stride: node.parallelism,
                }),
            });
            tasks.push(Task {
                meta: TaskStatic {
                    op: i,
                    downstream: downstream.clone(),
                    blocking: desc.blocking_ports.clone(),
                    batch_size,
                    slow_edge: faults.and_then(|f| f.slow_edge(i)),
                    record: record.filter(|_| ports > 0),
                },
                inner: Mutex::new(TaskInner {
                    instance: if ports == 0 {
                        Box::new(PassThrough)
                    } else {
                        let mut inst = node.factory.create();
                        inst.set_memory_budget(memory_budget);
                        inst
                    },
                    collector: OutputCollector::with_capacity(batch_size),
                    seqs: vec![0; downstream.len()],
                    scatter: downstream
                        .iter()
                        .map(|e| vec![Vec::new(); e.buffers()])
                        .collect(),
                    scatter_rows: downstream
                        .iter()
                        .map(|e| vec![Vec::new(); e.dests.len()])
                        .collect(),
                    outbox: VecDeque::new(),
                    eos_remaining: wf.expected_eos(op).to_vec(),
                    port_done: vec![false; ports],
                    held: VecDeque::new(),
                    pending: VecDeque::new(),
                    source,
                    eos_queued: false,
                    done: false,
                    failed: false,
                    drop_eos: faults.is_some_and(|f| f.drops_eos(i)),
                    eos_delay: faults.map_or(0, |f| f.eos_delay(i)),
                    replay: None,
                    retry: RetryBudget::new(*retry.policy_for(&desc.name)),
                    park_until: None,
                }),
                inbox: Inbox {
                    queue: Mutex::new(VecDeque::new()),
                    capacity: channel_capacity,
                },
                waiters: Mutex::new(Vec::new()),
                state: AtomicU8::new(IDLE),
            });
        }
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EngineConfig;
    use crate::dag::WorkflowBuilder;
    use crate::exec_sim::SimExecutor;
    use crate::ops::{FilterOp, HashJoinOp, ScanOp, SinkOp};
    use crate::partition::PartitionStrategy;
    use crate::retry::RetryPolicy;
    use scriptflow_datakit::{Batch, DataType, Schema, Value};
    use scriptflow_simcluster::ClusterSpec;

    fn int_batch(n: i64) -> Batch {
        let schema = Schema::of(&[("id", DataType::Int)]);
        Batch::from_rows(schema, (0..n).map(|i| vec![Value::Int(i)]).collect()).unwrap()
    }

    /// A scan that counts the calls to its `source_partitions` and makes
    /// each take `delay`, so task construction can be observed.
    struct ProbedScan {
        scan: ScanOp,
        calls: Arc<AtomicUsize>,
        delay: Duration,
    }

    impl crate::operator::OperatorFactory for ProbedScan {
        fn descriptor(&self) -> &crate::operator::OpDescriptor {
            self.scan.descriptor()
        }
        fn output_schema(
            &self,
            inputs: &[scriptflow_datakit::SchemaRef],
        ) -> WorkflowResult<Schema> {
            self.scan.output_schema(inputs)
        }
        fn create(&self) -> Box<dyn Operator> {
            self.scan.create()
        }
        fn source_partitions(&self, workers: usize) -> Option<Vec<Vec<Tuple>>> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(self.delay);
            self.scan.source_partitions(workers)
        }
    }

    fn build_filter_wf(n: i64, sink_handle: &mut Option<crate::ops::SinkHandle>) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(n))), 2);
        let filt = b.add(
            Arc::new(FilterOp::new("mod7", |t| Ok(t.get_int("id")? % 7 == 0))),
            3,
        );
        let sink_op = SinkOp::new("sink");
        *sink_handle = Some(sink_op.handle());
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(scan, filt, 0, PartitionStrategy::RoundRobin);
        b.connect(filt, sink, 0, PartitionStrategy::Single);
        b.build().unwrap()
    }

    #[test]
    fn live_run_produces_correct_results() {
        let mut handle = None;
        let wf = build_filter_wf(700, &mut handle);
        let res = LiveExecutor::default().run(&wf).unwrap();
        let handle = handle.unwrap();
        assert_eq!(handle.len(), 100);
        assert_eq!(res.metrics.by_name("mod7").unwrap().input_tuples, 700);
        assert_eq!(res.metrics.by_name("mod7").unwrap().output_tuples, 100);
    }

    #[test]
    fn live_columnar_matches_row_results_and_counts_skips() {
        use scriptflow_datakit::CmpOp;
        let run = |exec: LiveExecutor| {
            let mut b = WorkflowBuilder::new();
            let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(800))), 1);
            // Ascending ids, single worker, batch size 16: every sealed
            // batch except the last two has max(id) < 770.
            let filt = b.add(
                Arc::new(FilterOp::cmp("sel", "id", CmpOp::Ge, Value::Int(770))),
                1,
            );
            let sink_op = SinkOp::new("sink");
            let handle = sink_op.handle();
            let sink = b.add(Arc::new(sink_op), 1);
            b.connect(scan, filt, 0, PartitionStrategy::RoundRobin);
            b.connect(filt, sink, 0, PartitionStrategy::Single);
            let wf = b.build().unwrap();
            let res = exec.run(&wf).unwrap();
            let mut rows: Vec<String> = handle.results().iter().map(|t| t.to_string()).collect();
            rows.sort();
            (rows, res)
        };
        // The reference interpreter only ever moves rows: the oracle.
        let (rows_row, _) = run(LiveExecutor::thread_per_worker(16));
        let (rows_col, res_col) = run(LiveExecutor::new(16).with_pool_size(2));
        assert_eq!(rows_row.len(), 30);
        assert_eq!(rows_row, rows_col, "sealed batches must not change results");
        let stats = res_col.pool.unwrap();
        assert!(
            stats.batches_skipped > 0,
            "a scan feeding a comparison filter is sealed, and a selective \
             predicate over sorted ids prunes whole batches"
        );
        let m = res_col.metrics.by_name("sel").unwrap();
        assert_eq!(m.counters.batches_skipped, stats.batches_skipped);
        assert_eq!(m.input_tuples, 800, "skipped batches still count as input");
        // The terminal trace sample carries the per-operator counter too.
        let (_, last) = res_col.trace.samples.last().unwrap();
        let sel = last.iter().find(|s| s.name == "sel").unwrap();
        assert_eq!(sel.counters.batches_skipped, stats.batches_skipped);
    }

    #[test]
    fn live_columnar_retry_replays_exactly_once() {
        use scriptflow_datakit::CmpOp;
        use std::sync::atomic::AtomicU64;
        let calls = Arc::new(AtomicU64::new(0));
        let seen = calls.clone();
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(120))), 1);
        // A kernel behind the scan, so `flaky` is fed sealed batches: the
        // first is pruned, the rest pass through whole.
        let all = b.add(
            Arc::new(FilterOp::cmp("all", "id", CmpOp::Ge, Value::Int(16))),
            1,
        );
        let flaky = b.add(
            Arc::new(FilterOp::new("flaky", move |t| {
                let id = t.get_int("id")?;
                if seen.fetch_add(1, Ordering::SeqCst) + 1 == 50 {
                    Err(scriptflow_datakit::DataError::Decode {
                        line: 0,
                        message: "transient".into(),
                    })
                } else {
                    Ok(id % 2 == 0)
                }
            })),
            1,
        );
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(scan, all, 0, PartitionStrategy::RoundRobin);
        b.connect(all, flaky, 0, PartitionStrategy::RoundRobin);
        b.connect(flaky, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        let res = LiveExecutor::new(16)
            .with_pool_size(1)
            .with_retry(RetryConfig::uniform(RetryPolicy::attempts(3)))
            .run(&wf)
            .unwrap();
        // An organic error mid-columnar-batch discards the step's partial
        // output and replays the held batch, still sealed: no loss, no
        // duplication.
        assert_eq!(handle.len(), 52, "columnar retry must deliver exactly once");
        let stats = res.pool.unwrap();
        assert_eq!(stats.batches_skipped, 1, "`flaky` reads sealed batches");
        assert_eq!(stats.retries_attempted, 1);
        assert_eq!(stats.retries_succeeded, 1);
        let m = res.metrics.by_name("flaky").unwrap();
        assert_eq!(m.state, OperatorState::Completed);
        assert_eq!(m.input_tuples, 104, "replayed tuples must not recount");
    }

    #[test]
    fn live_matches_sim_outputs() {
        let mut live_handle = None;
        let wf_live = build_filter_wf(500, &mut live_handle);
        LiveExecutor::default().run(&wf_live).unwrap();

        let mut sim_handle = None;
        let wf_sim = build_filter_wf(500, &mut sim_handle);
        let cfg = EngineConfig {
            cluster: ClusterSpec::single_node(4),
            ..EngineConfig::default()
        };
        SimExecutor::new(cfg).run(&wf_sim).unwrap();

        let mut a: Vec<String> = live_handle
            .unwrap()
            .results()
            .iter()
            .map(|t| t.to_string())
            .collect();
        let mut b: Vec<String> = sim_handle
            .unwrap()
            .results()
            .iter()
            .map(|t| t.to_string())
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn live_join_blocks_probe_until_build_done() {
        let build_schema = Schema::of(&[("k", DataType::Int), ("tag", DataType::Str)]);
        let build = Batch::from_rows(
            build_schema,
            (0..10i64)
                .map(|k| vec![Value::Int(k), Value::Str(format!("t{k}"))])
                .collect(),
        )
        .unwrap();
        let probe_schema = Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]);
        let probe = Batch::from_rows(
            probe_schema,
            (0..200i64)
                .map(|i| vec![Value::Int(i), Value::Int(i % 20)])
                .collect(),
        )
        .unwrap();
        let mut b = WorkflowBuilder::new();
        let bs = b.add(Arc::new(ScanOp::new("build", build)), 1);
        let ps = b.add(Arc::new(ScanOp::new("probe", probe)), 2);
        let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), 2);
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(bs, join, 0, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(ps, join, 1, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(join, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        LiveExecutor::new(16).run(&wf).unwrap();
        // ids with k in 0..10 match: half of 200.
        assert_eq!(handle.len(), 100);
    }

    #[test]
    fn live_error_surfaces_and_terminates() {
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(50))), 1);
        let bad = b.add(
            Arc::new(FilterOp::new("bad", |t| {
                t.get_int("missing")?;
                Ok(true)
            })),
            2,
        );
        let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
        b.connect(scan, bad, 0, PartitionStrategy::RoundRobin);
        b.connect(bad, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        let err = LiveExecutor::default().run(&wf).unwrap_err();
        assert!(err.to_string().contains("bad"));
    }

    #[test]
    fn bounded_channels_complete_under_backpressure() {
        let mut handle = None;
        let wf = build_filter_wf(3_000, &mut handle);
        // One pool thread + 2-message mailboxes: sources must stall and
        // yield so consumers can drain on the same thread.
        let res = LiveExecutor::new(8)
            .with_channel_capacity(2)
            .with_pool_size(1)
            .run(&wf)
            .unwrap();
        let expect = (0..3_000).filter(|i| i % 7 == 0).count();
        assert_eq!(handle.unwrap().len(), expect);
        let stats = res.pool.expect("pooled mode reports stats");
        assert!(
            stats.backpressure_stalls > 0,
            "tiny mailboxes must trigger backpressure: {stats:?}"
        );
    }

    #[test]
    fn pooled_run_reports_stats() {
        let mut handle = None;
        let wf = build_filter_wf(500, &mut handle);
        let res = LiveExecutor::new(32).with_pool_size(3).run(&wf).unwrap();
        let stats = res.pool.expect("pooled mode reports stats");
        assert_eq!(stats.pool_threads, 3);
        assert_eq!(stats.tasks, wf.total_workers());
        assert!(stats.task_runs >= stats.tasks as u64);
        assert!(stats.batches_sent > 0);
    }

    #[test]
    fn operator_counts_agree_across_executors() {
        let counts = |m: &RunMetrics, name: &str| {
            let m = m.by_name(name).unwrap();
            (m.input_tuples, m.output_tuples)
        };

        let mut h1 = None;
        let wf1 = build_filter_wf(300, &mut h1);
        let cfg = EngineConfig {
            cluster: ClusterSpec::single_node(4),
            ..EngineConfig::default()
        };
        let sim = SimExecutor::new(cfg).run(&wf1).unwrap();

        let mut h2 = None;
        let wf2 = build_filter_wf(300, &mut h2);
        let pooled = LiveExecutor::new(64).run(&wf2).unwrap();

        let mut h3 = None;
        let wf3 = build_filter_wf(300, &mut h3);
        let threads = LiveExecutor::thread_per_worker(64).run(&wf3).unwrap();
        assert!(threads.pool.is_none() && threads.trace.is_empty());

        for name in ["scan", "mod7", "sink"] {
            assert_eq!(
                counts(&sim.metrics, name),
                counts(&pooled.metrics, name),
                "sim vs pooled counts diverge at {name}"
            );
            assert_eq!(
                counts(&pooled.metrics, name),
                counts(&threads.metrics, name),
                "pooled vs threads counts diverge at {name}"
            );
        }
    }

    #[test]
    fn pooled_trace_is_sampled_and_terminal() {
        let mut handle = None;
        let wf = build_filter_wf(400, &mut handle);
        // A benign slow edge (1 ms per forwarded batch, 50 batches)
        // keeps the run going for many sampling intervals.
        let res = LiveExecutor::new(8)
            .with_trace(Duration::from_millis(1))
            .with_faults(FaultPlan::new(0).slow_edge("scan", 1_000))
            .run(&wf)
            .unwrap();
        // Start sample, at least one interval sample, terminal sample.
        assert!(res.trace.len() >= 3, "{} samples", res.trace.len());
        let (_, first) = res.trace.samples.first().unwrap();
        assert!(
            first.iter().any(|s| !s.state.is_terminal()),
            "the start sample is taken while the run executes"
        );
        // The terminal sample mirrors the final metrics exactly.
        let (_, last) = res.trace.samples.last().unwrap();
        for snap in last {
            let m = res.metrics.by_name(&snap.name).unwrap();
            assert_eq!(snap.input_tuples, m.input_tuples, "{}", snap.name);
            assert_eq!(snap.output_tuples, m.output_tuples, "{}", snap.name);
            assert_eq!(snap.state, OperatorState::Completed, "{}", snap.name);
        }
        // Sample times never go backwards.
        for pair in res.trace.samples.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        // The same trace renders through the sim executor's timeline.
        let rendered = crate::trace::render_timeline(&res.trace);
        assert!(rendered.contains("mod7"));
    }

    #[test]
    fn untraced_pooled_run_still_carries_terminal_sample() {
        let mut handle = None;
        let wf = build_filter_wf(100, &mut handle);
        let res = LiveExecutor::new(16).run(&wf).unwrap();
        assert_eq!(res.trace.len(), 1);
        let (_, last) = res.trace.samples.last().unwrap();
        assert!(last.iter().all(|s| s.state.is_terminal()));
    }

    #[test]
    fn failed_operator_surfaces_in_live_trace() {
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(50))), 1);
        let bad = b.add(
            Arc::new(FilterOp::new("boom", |t| {
                t.get_int("missing")?;
                Ok(true)
            })),
            2,
        );
        let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
        b.connect(scan, bad, 0, PartitionStrategy::RoundRobin);
        b.connect(bad, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        // Sampled or not, a failed run hands its trace back. Repeated:
        // a run that fails faster than its waiter looks must still carry
        // the start sample (it is taken before the pool's threads exist).
        for _ in 0..200 {
            for exec in [
                LiveExecutor::new(8),
                LiveExecutor::new(8).with_trace(Duration::from_millis(1)),
            ] {
                let sampled = exec.trace_interval.is_some();
                let (trace, result) = exec.run_observed(&wf);
                assert!(result.is_err());
                // The terminal sample, after the start sample if sampling.
                assert!(trace.len() > usize::from(sampled));
                let (_, last) = trace.samples.last().unwrap();
                let boom = last.iter().find(|s| s.name == "boom").unwrap();
                assert_eq!(boom.state, OperatorState::Failed);
            }
        }
    }

    #[test]
    fn pooled_stats_report_peak_mailbox_depth() {
        let mut handle = None;
        let wf = build_filter_wf(2_000, &mut handle);
        let res = LiveExecutor::new(8)
            .with_channel_capacity(2)
            .with_pool_size(1)
            .run(&wf)
            .unwrap();
        let stats = res.pool.expect("pooled mode reports stats");
        // 2 000 tuples in batches of 8 through capacity-2 mailboxes on a
        // single pool thread must queue at least one message somewhere.
        // Only a lower bound is deterministic: the peak counts messages
        // across an operator's worker mailboxes at delivery time, and
        // scheduling jitter can briefly stack more than one capacity's
        // worth (an exact `<= capacity` assertion flaked under load).
        assert!(
            stats.peak_mailbox_depth >= 1,
            "saturated run must report a mailbox high-water mark: {stats:?}"
        );
    }

    #[test]
    fn pooled_metrics_report_busy_time() {
        let mut handle = None;
        let wf = build_filter_wf(1_000, &mut handle);
        let res = LiveExecutor::new(16).run(&wf).unwrap();
        let total_busy: f64 = res
            .metrics
            .operators
            .iter()
            .map(|m| m.busy.as_secs_f64())
            .sum();
        assert!(total_busy > 0.0, "run quanta accumulate busy time");
    }

    #[test]
    fn live_memory_budget_spills_and_matches_unbounded() {
        let run = |budget: Option<usize>| {
            let build_schema = Schema::of(&[("k", DataType::Int), ("tag", DataType::Str)]);
            let build = Batch::from_rows(
                build_schema,
                (0..80i64)
                    .map(|i| vec![Value::Int(i % 13), Value::Str(format!("b{i}"))])
                    .collect(),
            )
            .unwrap();
            let probe_schema = Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]);
            let probe = Batch::from_rows(
                probe_schema,
                (0..60i64)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 17)])
                    .collect(),
            )
            .unwrap();
            let mut b = WorkflowBuilder::new();
            let bs = b.add(Arc::new(ScanOp::new("build", build)), 1);
            let ps = b.add(Arc::new(ScanOp::new("probe", probe)), 1);
            let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), 1);
            let sink_op = SinkOp::new("sink");
            let handle = sink_op.handle();
            let sink = b.add(Arc::new(sink_op), 1);
            b.connect(bs, join, 0, PartitionStrategy::Hash(vec!["k".into()]));
            b.connect(ps, join, 1, PartitionStrategy::Hash(vec!["k".into()]));
            b.connect(join, sink, 0, PartitionStrategy::Single);
            let wf = b.build().unwrap();
            let res = LiveExecutor::new(16)
                .with_pool_size(2)
                .with_memory_budget(budget)
                .run(&wf)
                .unwrap();
            let mut rows: Vec<String> = handle.results().iter().map(|t| t.to_string()).collect();
            rows.sort();
            (rows, res)
        };
        let (rows_mem, res_mem) = run(None);
        let (rows_spill, res_spill) = run(Some(256));
        assert!(!rows_mem.is_empty());
        assert_eq!(rows_mem, rows_spill, "spilling must not change results");
        assert_eq!(res_mem.pool.unwrap().spilled_blocks, 0);
        let stats = res_spill.pool.unwrap();
        assert!(stats.spilled_blocks > 0, "tiny budget must force a spill");
        assert!(stats.spilled_bytes > 0);
        assert!(
            stats.spill_reads > 0,
            "spilled partitions must be read back"
        );
        let m = res_spill.metrics.by_name("join").unwrap();
        assert_eq!(m.counters.spilled_blocks, stats.spilled_blocks);
        assert_eq!(m.counters.spill_reads, stats.spill_reads);
        // The terminal trace sample carries the per-operator counter too.
        let (_, last) = res_spill.trace.samples.last().unwrap();
        let join_snap = last.iter().find(|s| s.name == "join").unwrap();
        assert_eq!(join_snap.counters.spilled_blocks, stats.spilled_blocks);
    }

    #[test]
    fn pooled_error_surfaces_in_both_modes() {
        for (mode, exec) in [
            ("pooled", LiveExecutor::new(8)),
            ("reference", LiveExecutor::thread_per_worker(8)),
        ] {
            let mut b = WorkflowBuilder::new();
            let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(50))), 1);
            let bad = b.add(
                Arc::new(FilterOp::new("exploder", |t| {
                    t.get_int("missing")?;
                    Ok(true)
                })),
                2,
            );
            let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
            b.connect(scan, bad, 0, PartitionStrategy::RoundRobin);
            b.connect(bad, sink, 0, PartitionStrategy::Single);
            let wf = b.build().unwrap();
            let err = exec.run(&wf).unwrap_err();
            assert!(err.to_string().contains("exploder"), "{mode}: {err}");
        }
    }

    #[test]
    fn chunk_owned_carves_exact_chunks_in_order() {
        const SIZE: usize = 1024;
        for n in [0, 1, SIZE, SIZE + 1, 100_000] {
            let input = int_batch(n as i64).into_tuples();
            let expect: Vec<String> = input.iter().map(|t| t.to_string()).collect();
            let mut chunks = Vec::new();
            chunk_owned(input, SIZE, |c| chunks.push(c));
            assert!(chunks.iter().all(|c| !c.is_empty() && c.len() <= SIZE));
            assert_eq!(chunks.len(), n.div_ceil(SIZE));
            let capacity: usize = chunks.iter().map(Vec::capacity).sum();
            assert!(capacity <= n + SIZE, "n={n}: {capacity} slots held");
            let got: Vec<String> = chunks.iter().flatten().map(|t| t.to_string()).collect();
            assert_eq!(got, expect, "n={n}: order preserved");
        }
    }

    #[test]
    fn a_wide_source_is_partitioned_once_per_run() {
        let calls = Arc::new(AtomicUsize::new(0));
        let mut b = WorkflowBuilder::new();
        let scan = b.add(
            Arc::new(ProbedScan {
                scan: ScanOp::new("scan", int_batch(100)),
                calls: calls.clone(),
                delay: Duration::ZERO,
            }),
            4,
        );
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(scan, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            0,
            "DAG validation asks whether it is a source without partitioning it"
        );
        LiveExecutor::new(8).run(&wf).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(handle.len(), 100, "every worker still emits its own part");
    }

    /// `scan` (one worker, ascending ids) through `depth` identity UDFs
    /// of `width` workers on round-robin edges, into one sink.
    fn udf_chain(n: i64, width: usize, depth: usize) -> (Workflow, crate::ops::SinkHandle) {
        use crate::ops::UdfOp;
        let data = int_batch(n);
        let schema = (**data.schema()).clone();
        let mut b = WorkflowBuilder::new();
        let mut prev = b.add(Arc::new(ScanOp::new("scan", data)), 1);
        for i in 1..=depth {
            let map = UdfOp::new(format!("m{i}"), schema.clone(), |t, _, out| {
                out.emit(t);
                Ok(())
            });
            let map = b.add(Arc::new(map), width);
            b.connect(prev, map, 0, PartitionStrategy::RoundRobin);
            prev = map;
        }
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(prev, sink, 0, PartitionStrategy::Single);
        (b.build().unwrap(), handle)
    }

    /// One message as it landed in a mailbox: the ids of a batch, or
    /// `None` for an EOS.
    struct Delivery {
        from: usize,
        to: usize,
        ids: Option<Vec<i64>>,
    }

    /// Run `wf` to completion on the calling thread with no scheduler
    /// behind the pool: every queued task gets one quantum per round, in
    /// task order — what a 1-thread pool does, exactly repeatable. Returns
    /// the pool, every delivery in order (read off the mailboxes after
    /// each quantum: only the task that ran can have pushed), and the
    /// quanta each task ran.
    fn drive(wf: &Workflow, batch_size: usize) -> (Pool, Vec<Delivery>, Vec<usize>) {
        let tasks = build_tasks(wf, &[], batch_size, 64, None, &RetryConfig::default(), None);
        let tracer = LiveTracer::primed(&OperatorMetrics::for_workflow(wf));
        let pool = Pool::new(tasks, Vec::new(), None, 1, tracer, Weak::new(), 0);
        pool.seed_all();
        let mut log = Vec::new();
        let mut quanta = vec![0usize; pool.tasks.len()];
        while !pool.finished() {
            let mut ran = false;
            for (from, runs) in quanta.iter_mut().enumerate() {
                if pool.tasks[from].state.load(Ordering::Acquire) != QUEUED {
                    continue;
                }
                let depth = |t: &Task| lock(&t.inbox.queue).len();
                let before: Vec<usize> = pool.tasks.iter().map(depth).collect();
                pool.step(from);
                (ran, *runs) = (true, *runs + 1);
                for (to, task) in pool.tasks.iter().enumerate().filter(|(to, _)| *to != from) {
                    for msg in lock(&task.inbox.queue).iter().skip(before[to]) {
                        let ids = match msg {
                            Msg::Batch { batch, .. } => Some(
                                (batch.clone().into_tuples().iter())
                                    .map(|t| t.get_int("id").unwrap())
                                    .collect(),
                            ),
                            Msg::Eos { .. } => None,
                            Msg::Poison { .. } => unreachable!("no fault plan"),
                        };
                        log.push(Delivery { from, to, ids });
                    }
                }
            }
            assert!(ran, "no task is queued and the run is not finished");
        }
        (pool, log, quanta)
    }

    /// What [`Pool::stats`] sums, read off a pool [`drive`] ran.
    fn sched_totals(pool: &Pool) -> crate::SchedCounters {
        let probes = 0..pool.tracer.operator_count();
        probes.map(|op| pool.tracer.probe(op).sched()).sum()
    }

    /// The edge rule: a round-robin hop tops its per-destination buffers
    /// up to the edge's batch size instead of forwarding thirds of what
    /// it was handed (64 → 21 → 7 → 2 rows at depth 4). Per edge, only
    /// the batches a flush point closed are short — at most one per open
    /// buffer per quantum of the producing task.
    #[test]
    fn scattered_hops_send_full_batches_not_shrinking_ones() {
        const N: usize = 5_000;
        const BATCH: usize = 64;
        const WIDTH: usize = 3;
        const DEPTH: usize = 4;
        let (wf, handle) = udf_chain(N as i64, WIDTH, DEPTH);
        let (pool, log, quanta) = drive(&wf, BATCH);
        assert_eq!(handle.len(), N);
        let op_of = |tid: usize| pool.tasks[tid].meta.op;
        let mut sent = 0;
        for producer in 0..=DEPTH {
            // Operators were added in chain order; the sink is the last.
            let batches: Vec<&Vec<i64>> = log
                .iter()
                .filter(|d| op_of(d.from) == producer)
                .filter_map(|d| d.ids.as_ref())
                .collect();
            sent += batches.len();
            assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), N);
            assert!(batches.iter().all(|b| b.len() <= BATCH));
            let short = batches.iter().filter(|b| b.len() < BATCH).count();
            let open_buffers_times_quanta: usize = (0..pool.tasks.len())
                .filter(|&tid| op_of(tid) == producer)
                .map(|tid| pool.tasks[tid].meta.downstream[0].buffers() * quanta[tid])
                .sum();
            assert!(
                short <= open_buffers_times_quanta,
                "edge out of operator {producer}: {short} short batches, \
                 {open_buffers_times_quanta} flushes possible"
            );
            assert!(
                batches.len() <= N.div_ceil(BATCH) + open_buffers_times_quanta,
                "edge out of operator {producer}: {} batches",
                batches.len()
            );
        }
        assert_eq!(sched_totals(&pool).batches_sent, sent as u64);
        // Forwarding thirds would have sent more than N / 7 batches on the
        // last scattered edge alone.
        assert!(sent < 6 * N.div_ceil(BATCH), "{sent} batches sent");
    }

    /// Coalescing reorders nothing: each (producer task, consumer task)
    /// stream carries its rows in the order the producer emitted them,
    /// and the remainder a flush point closed arrives before the EOS.
    #[test]
    fn edge_buffers_keep_fifo_order_and_flush_the_remainder_before_eos() {
        let (wf, handle) = udf_chain(1_000, 3, 2);
        let (pool, log, _) = drive(&wf, 64);
        assert_eq!(handle.len(), 1_000);
        let mut remainders = 0;
        for (from, task) in pool.tasks.iter().enumerate() {
            let Some(edge) = task.meta.downstream.first() else {
                continue;
            };
            // What the task was handed, in mailbox order (the scan: its
            // own rows), is what it emitted, dealt round-robin.
            let ids_of = |d: &Delivery| d.ids.clone().unwrap_or_default();
            let mut handed: Vec<i64> = (log.iter().filter(|d| d.to == from))
                .flat_map(ids_of)
                .collect();
            if task.meta.op == 0 {
                handed = (0..1_000).collect();
            }
            for (w, &to) in edge.dests.iter().enumerate() {
                let stream: Vec<&Delivery> = log
                    .iter()
                    .filter(|d| (d.from, d.to) == (from, to))
                    .collect();
                let (eos, batches) = stream.split_last().unwrap();
                assert!(
                    eos.ids.is_none(),
                    "{from} → {to}: the stream ends in its EOS"
                );
                assert!(
                    batches.iter().all(|d| d.ids.is_some()),
                    "{from} → {to}: one EOS"
                );
                let got: Vec<i64> = batches.iter().copied().flat_map(ids_of).collect();
                let dealt: Vec<i64> = (handed.iter().copied())
                    .skip(w)
                    .step_by(edge.dests.len())
                    .collect();
                assert_eq!(got, dealt, "{from} → {to}");
                remainders += usize::from(ids_of(batches.last().unwrap()).len() < 64);
            }
        }
        assert!(remainders > 0, "1 000 rows do not divide into full batches");
        assert_eq!(sched_totals(&pool).backpressure_stalls, 0);
    }

    /// A fault in step *k* of a quantum costs that step, not the ones
    /// before it: their output sits in the edge buffers (or, behind a
    /// full mailbox, the outbox) when the fault lands and is delivered
    /// exactly once — by the faulting quantum's flush point, then ahead
    /// of the drain path's EOS. With a retry budget nothing at all is
    /// lost or repeated: not for an organic panic, which the step's held
    /// input replays, and not where the trigger is on the source, whose
    /// chunks enter through the same `consume`.
    #[test]
    fn a_fault_mid_quantum_delivers_the_earlier_steps_output_exactly_once() {
        use crate::ops::UdfOp;
        use std::sync::atomic::AtomicBool;
        const N: i64 = 400;
        const BATCH: usize = 16;
        const AT: u64 = 41;
        let schema = (**int_batch(1).schema()).clone();
        // `half` keeps even ids, so a 16-row step leaves 8 rows — half a
        // batch — in its buffer; the 41st tuple is the 9th of step 3.
        let run = |fault: &str, retry: bool, capacity: usize| {
            let errored = AtomicBool::new(false);
            let organic = fault.to_owned();
            let half = UdfOp::new("half", schema.clone(), move |t, _, out| {
                let id = t
                    .get_int("id")
                    .map_err(|e| WorkflowError::from_data("half", e))?;
                if id + 1 == AT as i64 && !errored.swap(true, Ordering::SeqCst) {
                    match organic.as_str() {
                        "error" => {
                            return Err(WorkflowError::OperatorFailed {
                                operator: "half".into(),
                                message: "transient".into(),
                            })
                        }
                        "organic-panic" => panic!("transient"),
                        _ => {}
                    }
                }
                if id % 2 == 0 {
                    out.emit(t);
                }
                Ok(())
            });
            let mut b = WorkflowBuilder::new();
            let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(N))), 1);
            let half = b.add(Arc::new(half), 1);
            let sink_op = SinkOp::new("sink");
            let handle = sink_op.handle();
            let sink = b.add(Arc::new(sink_op), 2);
            b.connect(scan, half, 0, PartitionStrategy::RoundRobin);
            b.connect(half, sink, 0, PartitionStrategy::RoundRobin);
            let wf = b.build().unwrap();
            let mut exec = LiveExecutor::new(BATCH)
                .with_pool_size(1)
                .with_channel_capacity(capacity);
            exec = match fault {
                "kill" => exec.with_faults(FaultPlan::new(0).kill_worker("half", AT)),
                "panic" => exec.with_faults(FaultPlan::new(0).panic_at("half", AT)),
                "scan-kill" => exec.with_faults(FaultPlan::new(0).kill_worker("scan", AT)),
                "scan-panic" => exec.with_faults(FaultPlan::new(0).panic_at("scan", AT)),
                _ => exec,
            };
            if retry {
                let policy = RetryPolicy::attempts(2).with_backoff(crate::retry::Backoff::none());
                exec = exec.with_retry(RetryConfig::uniform(policy));
            }
            let result = exec.run(&wf);
            let mut ids: Vec<i64> = (handle.results().iter())
                .map(|t| t.get_int("id").unwrap())
                .collect();
            ids.sort_unstable();
            (result, ids)
        };
        let evens_below = |n: i64| (0..n).step_by(2).collect::<Vec<i64>>();
        for capacity in [64, 1] {
            for fault in [
                "kill",
                "panic",
                "error",
                "organic-panic",
                "scan-kill",
                "scan-panic",
            ] {
                let what = format!("{fault}, mailbox capacity {capacity}");
                let (result, ids) = run(fault, true, capacity);
                let stats = result.expect(&what).pool.unwrap();
                assert_eq!(stats.retries_succeeded, 1, "{what}");
                assert_eq!(ids, evens_below(N), "{what}: retried");

                let (result, ids) = run(fault, false, capacity);
                assert!(result.is_err(), "{what}");
                // An injected fault cuts at the tuple; an organic error
                // or panic discards its own step, the third, whole.
                let organic = ["error", "organic-panic"].contains(&fault);
                let delivered = if organic { 32 } else { AT as i64 - 1 };
                assert_eq!(ids, evens_below(delivered), "{what}: not retried");
            }
        }
    }

    /// A panic with no step input held — here in a port completion — has
    /// nothing a retry could replay: under a budget it fails the operator
    /// like an `Err` from `on_port_complete`, and the run is never `Ok`
    /// with the completion's rows missing.
    #[test]
    fn a_port_completion_panic_fails_the_operator_under_a_retry_budget() {
        use crate::ops::StatefulUdfOp;
        use std::sync::atomic::AtomicBool;
        let panicked = Arc::new(AtomicBool::new(false));
        let once = panicked.clone();
        let schema = int_batch(1).schema().clone();
        let count = StatefulUdfOp::new(
            "count",
            1,
            (*schema).clone(),
            || 0i64,
            |n, _, _, _| {
                *n += 1;
                Ok(())
            },
            move |n, _, out| {
                if !once.swap(true, Ordering::SeqCst) {
                    panic!("transient");
                }
                out.emit(Tuple::new(schema.clone(), vec![Value::Int(*n)]).unwrap());
                Ok(())
            },
        );
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(100))), 1);
        let count = b.add(Arc::new(count), 1);
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(scan, count, 0, PartitionStrategy::RoundRobin);
        b.connect(count, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        let (trace, result) = LiveExecutor::new(16)
            .with_pool_size(1)
            .with_retry(RetryConfig::uniform(RetryPolicy::default()))
            .run_observed(&wf);
        assert!(panicked.load(Ordering::SeqCst));
        let err = result.expect_err("a lost completion is not a clean run");
        assert!(err.to_string().contains("worker panicked"), "{err}");
        let (_, last) = trace.samples.last().unwrap();
        let count = last.iter().find(|s| s.name == "count").unwrap();
        assert_eq!(count.state, OperatorState::Failed);
        assert_eq!(count.input_tuples, 100);
        assert!(handle.is_empty());
    }

    /// A worker whose EOS markers are dropped still hands on every row it
    /// produced: its last remainder leaves at the flush point, EOS or no
    /// EOS, and the stall detector closes the consumer's ports behind it.
    #[test]
    fn a_dropped_eos_still_delivers_the_open_remainder() {
        let (wf, handle) = udf_chain(100, 1, 1);
        let res = LiveExecutor::new(64)
            .with_pool_size(1)
            .with_faults(FaultPlan::new(0).drop_eos("m1"))
            .run_observed(&wf);
        assert!(res.1.is_err(), "the drop is the run's recorded failure");
        assert_eq!(handle.len(), 100);
        let (_, last) = res.0.samples.last().unwrap();
        let sink = last.iter().find(|s| s.name == "sink").unwrap();
        assert_eq!(sink.input_tuples, 100);
        assert_eq!(sink.state, OperatorState::Degraded);
    }

    /// A 1-thread pool must not serve a retry backoff by sleeping its
    /// only worker: the faulted task is parked and the worker runs the
    /// DAG's other branch meanwhile.
    #[test]
    fn one_thread_pool_runs_another_branch_while_a_retry_backs_off() {
        use crate::retry::Backoff;
        const BACKOFF: Duration = Duration::from_millis(50);
        let faulted_at: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
        let during_backoff = Arc::new(AtomicU64::new(0));

        let mut b = WorkflowBuilder::new();
        let scan_a = b.add(Arc::new(ScanOp::new("scan_a", int_batch(40))), 1);
        let mark = faulted_at.clone();
        let flaky = b.add(
            Arc::new(FilterOp::new("flaky", move |_| {
                let mut at = lock(&mark);
                if at.is_none() {
                    *at = Some(Instant::now());
                    return Err(scriptflow_datakit::DataError::Decode {
                        line: 0,
                        message: "transient".into(),
                    });
                }
                Ok(true)
            })),
            1,
        );
        let sink_a_op = SinkOp::new("sink_a");
        let rows_a = sink_a_op.handle();
        let sink_a = b.add(Arc::new(sink_a_op), 1);
        let scan_b = b.add(Arc::new(ScanOp::new("scan_b", int_batch(400))), 1);
        let (mark, seen) = (faulted_at.clone(), during_backoff.clone());
        let other = b.add(
            Arc::new(FilterOp::new("other", move |_| {
                if lock(&mark).is_some_and(|at| at.elapsed() < BACKOFF) {
                    seen.fetch_add(1, Ordering::Relaxed);
                }
                Ok(true)
            })),
            1,
        );
        let sink_b_op = SinkOp::new("sink_b");
        let rows_b = sink_b_op.handle();
        let sink_b = b.add(Arc::new(sink_b_op), 1);
        b.connect(scan_a, flaky, 0, PartitionStrategy::RoundRobin);
        b.connect(flaky, sink_a, 0, PartitionStrategy::Single);
        b.connect(scan_b, other, 0, PartitionStrategy::RoundRobin);
        b.connect(other, sink_b, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();

        let policy = RetryPolicy::attempts(3).with_backoff(Backoff {
            base: BACKOFF,
            factor: 1,
            cap: BACKOFF,
        });
        let res = LiveExecutor::new(8)
            .with_pool_size(1)
            .with_retry(RetryConfig::uniform(policy))
            .run(&wf)
            .unwrap();
        assert_eq!(res.pool.unwrap().retries_succeeded, 1);
        assert_eq!((rows_a.len(), rows_b.len()), (40, 400));
        assert!(res.elapsed >= BACKOFF, "the backoff is still served");
        assert!(
            during_backoff.load(Ordering::Relaxed) > 0,
            "the only worker must run `other` while `flaky` backs off"
        );
    }

    /// The executor's contract where a service tenant's differs (see
    /// `service::Shared::solo`): the sink is the caller's to clear, and
    /// `elapsed` covers task construction.
    #[test]
    fn solo_run_keeps_the_sink_and_times_task_construction() {
        const DELAY: Duration = Duration::from_millis(30);
        let slow = ProbedScan {
            scan: ScanOp::new("scan", int_batch(20)),
            calls: Arc::default(),
            delay: DELAY,
        };
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(slow), 1);
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(scan, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();

        let exec = LiveExecutor::new(8).with_pool_size(1);
        let first = exec.run(&wf).unwrap();
        assert!(first.elapsed >= DELAY, "{:?}", first.elapsed);
        assert_eq!(first.metrics.makespan, makespan_of(first.elapsed));
        exec.run(&wf).unwrap();
        assert_eq!(handle.len(), 40, "a second run appends to the sink");
    }

    /// The non-poisoning behaviour the chaos suites rely on: a panic
    /// while a worker holds a mailbox lock must leave the mailbox usable
    /// for the drain that follows.
    #[test]
    fn mailbox_stays_usable_after_a_panic_under_the_lock() {
        let inbox = Inbox {
            queue: Mutex::new(VecDeque::new()),
            capacity: 1,
        };
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let mut q = lock(&inbox.queue);
                q.push_back(Msg::Eos { port: 0 });
                panic!("injected: panic while holding the mailbox lock");
            })
            .join()
        });
        assert!(panicked.is_err() && inbox.queue.is_poisoned());
        assert!(matches!(
            lock(&inbox.queue).pop_front(),
            Some(Msg::Eos { port: 0 })
        ));
        assert!(lock(&inbox.queue).is_empty());
    }
}

//! The pooled scheduler, and the multi-tenant workflow service on top
//! of it: many concurrent DAGs on one shared worker pool.
//!
//! A production engine serving many interactively-edited pipelines runs
//! hundreds of concurrent workflow instances against **one** fixed pool.
//! [`WorkflowService`] keeps the pool outside the run, in the style of
//! Databend's `initialize_executor(workers)` / `schedule(worker_num)`
//! split: runs are *submitted*, the service admits them, and a fixed set
//! of worker threads time-slices operator quanta across every admitted
//! run.
//!
//! This is the only pooled scheduler in the crate. A pooled
//! [`crate::exec_live::LiveExecutor`] run is the degenerate case: a
//! private instance of this scheduler (its own `pool_size` threads,
//! `max_active_runs = 1`, mailbox bound = the executor's channel
//! capacity, the executor's [`ResultCache`] if it has one) that admits
//! one run, is waited on, and is joined — see `run_solo`, and
//! `Shared::solo` for where its contract differs from a tenant's
//! submission.
//!
//! # Admission
//!
//! [`WorkflowService::submit`] validates the run (fault plans are
//! compiled up front), builds its task set, and either **dispatches** it
//! (fewer than `max_active_runs` runs executing), **queues** it (bounded
//! admission queue), or **rejects** it explicitly ([`SubmitError`]):
//!
//! * [`SubmitError::QueueFull`] — the admission queue is at capacity;
//!   overload is surfaced to the caller instead of buffered unboundedly.
//! * [`SubmitError::TenantOverQuota`] — the tenant already has
//!   `max_in_flight` submissions admitted or queued.
//! * [`SubmitError::SinkBusy`] — the workflow shares result storage
//!   (see [`crate::operator::OpDescriptor::shared_state`]) with a
//!   run that is still admitted; running both would interleave rows
//!   into one buffer. Wait for the earlier handle, then resubmit.
//!
//! Accepted submissions return a [`RunHandle`] that can be polled
//! ([`RunHandle::status`]) or awaited ([`RunHandle::wait`]).
//!
//! # Fair scheduling and isolation
//!
//! Each worker repeatedly picks the active run with the smallest
//! *virtual time* that has a ready task, and executes **one quantum**
//! (at most [`crate::exec_live`]'s per-quantum message budget) of it.
//! The quantum's measured wall-clock is charged to the run's virtual
//! time, so under contention every active run receives an equal share
//! of pool time. Newly dispatched runs start at the minimum active
//! virtual time, so they neither starve nor monopolize.
//!
//! Isolation is load-bearing, not best-effort:
//!
//! * **Retry storms park, never sleep.** A worker sleeping one task's
//!   retry backoff would stall every other task and every neighbor. The
//!   task is parked with a deadline instead, the worker moves on to
//!   another quantum, and a timer re-readies the task when the backoff
//!   elapses.
//! * **Per-run mailbox budgets.** Each run's mailboxes are bounded by
//!   its tenant's [`TenantQuota::mailbox_budget`], so one run's
//!   backpressure holds *its own* producers, not the pool.
//! * **Per-run fault domains.** Faults, drain-mode failures, and stall
//!   detection (dropped EOS) are all scoped to the owning run's task set;
//!   a wedged run is force-finished and failed as stalled by the
//!   quiescence detector while neighbors keep executing.
//!
//! # Observability
//!
//! Every run feeds its own [`LiveTracer`]; the finished [`RunReport`]
//! carries the same [`EngineRun`] (metrics + [`PoolStats`]) a solo
//! pooled run produces, the terminal [`ProgressTrace`], and
//! [`RunReport::trace_json`] exports it tagged with tenant and run id
//! ([`crate::trace::TraceJson::from_trace_labeled`]). Per-tenant
//! counters (submissions, completions, rejections, quanta, busy time)
//! aggregate in [`TenantStats`]; [`ServiceStats`] snapshots the pool.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use scriptflow_datakit::{Batch, DataType, Schema, Value};
//! use scriptflow_workflow::ops::{ScanOp, SinkOp};
//! use scriptflow_workflow::service::{RunOptions, ServiceConfig, WorkflowService};
//! use scriptflow_workflow::{PartitionStrategy, WorkflowBuilder};
//!
//! let schema = Schema::of(&[("id", DataType::Int)]);
//! let batch = Batch::from_rows(schema, (0..32).map(|i| vec![Value::Int(i)]).collect()).unwrap();
//! let mut b = WorkflowBuilder::new();
//! let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
//! let sink_op = Arc::new(SinkOp::new("sink"));
//! let handle = sink_op.handle();
//! let sink = b.add(sink_op, 1);
//! b.connect(scan, sink, 0, PartitionStrategy::Single);
//! let wf = b.build().unwrap();
//!
//! let svc = WorkflowService::new(ServiceConfig::default().with_pool_size(2));
//! let run = svc.submit("tenant-a", &wf, RunOptions::default()).unwrap();
//! let report = run.wait();
//! assert!(report.result.is_ok());
//! assert_eq!(handle.len(), 32);
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use scriptflow_core::fingerprint::OpFingerprint;
use scriptflow_simcluster::SimDuration;

use crate::backend::EngineRun;
use crate::cache::{commit_recordings, prepare, prime_misses, ResultCache};
use crate::dag::Workflow;
use crate::exec_live::{
    assemble_live_result, build_tasks, default_pool_size, Pool, PoolStats, Task,
};
use crate::fault::{CompiledFaults, FaultPlan};
use crate::metrics::{OpCounters, OperatorMetrics};
use crate::operator::{OperatorFactory, WorkflowError, WorkflowResult};
use crate::retry::RetryConfig;
use crate::sync::{lock, wait, wait_for};
use crate::trace::{ProgressTrace, TraceJson};
use crate::trace_live::LiveTracer;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Per-tenant contract, the same for every tenant of a service:
/// concurrency ceiling and mailbox budget.
///
/// # Examples
///
/// ```
/// use scriptflow_workflow::service::TenantQuota;
///
/// let quota = TenantQuota::default()
///     .with_max_in_flight(16)
///     .with_mailbox_budget(128);
/// assert_eq!(quota.max_in_flight(), 16);
/// assert_eq!(TenantQuota::default().mailbox_budget(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    max_in_flight: usize,
    mailbox_budget: usize,
}

impl Default for TenantQuota {
    /// At most 8 in-flight submissions, 64-message mailboxes.
    fn default() -> Self {
        TenantQuota {
            max_in_flight: 8,
            mailbox_budget: 64,
        }
    }
}

impl TenantQuota {
    /// Maximum submissions this tenant may have admitted or queued at
    /// once; the excess is rejected with [`SubmitError::TenantOverQuota`].
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
        self
    }

    /// Mailbox capacity (messages) for every edge of this tenant's
    /// runs — the run-local backpressure bound.
    pub fn with_mailbox_budget(mut self, budget: usize) -> Self {
        self.mailbox_budget = budget.max(1);
        self
    }

    /// The in-flight submission ceiling.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// The per-edge mailbox capacity.
    pub fn mailbox_budget(&self) -> usize {
        self.mailbox_budget
    }
}

/// Service-wide sizing: pool width, concurrent-run ceiling, admission
/// queue depth, and the quota every tenant gets.
///
/// # Examples
///
/// ```
/// use scriptflow_workflow::service::{ServiceConfig, TenantQuota};
///
/// let cfg = ServiceConfig::default()
///     .with_pool_size(4)
///     .with_max_active_runs(8)
///     .with_queue_capacity(32)
///     .with_default_quota(TenantQuota::default().with_max_in_flight(2));
/// # let _ = cfg;
/// ```
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pool_size: Option<usize>,
    max_active_runs: usize,
    queue_capacity: usize,
    default_quota: TenantQuota,
    result_cache: Option<Arc<ResultCache>>,
}

impl Default for ServiceConfig {
    /// Host-parallelism pool, 4 concurrently executing runs, a
    /// 16-submission admission queue, and [`TenantQuota::default`].
    fn default() -> Self {
        ServiceConfig {
            pool_size: None,
            max_active_runs: 4,
            queue_capacity: 16,
            default_quota: TenantQuota::default(),
            result_cache: None,
        }
    }
}

impl ServiceConfig {
    /// Worker threads in the shared pool (default: host parallelism).
    pub fn with_pool_size(mut self, threads: usize) -> Self {
        self.pool_size = Some(threads.max(1));
        self
    }

    /// Runs executing concurrently; later admissions queue.
    pub fn with_max_active_runs(mut self, runs: usize) -> Self {
        self.max_active_runs = runs.max(1);
        self
    }

    /// Admission-queue depth; beyond it submissions are rejected with
    /// [`SubmitError::QueueFull`].
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Quota applied to every tenant.
    pub fn with_default_quota(mut self, quota: TenantQuota) -> Self {
        self.default_quota = quota;
        self
    }

    /// Serve cache-enabled runs from `cache` instead of a fresh
    /// in-memory one — e.g. a budgeted [`ResultCache::with_byte_budget`]
    /// or a [`ResultCache::persistent`] store that outlives the service.
    pub fn with_result_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.result_cache = Some(cache);
        self
    }
}

/// Per-submission knobs, mirroring the solo executor's builder. Batch
/// layout is not among them: the engine picks it per edge
/// ([`crate::OpDescriptor::batch_kernel`]).
///
/// # Examples
///
/// ```
/// use scriptflow_workflow::service::RunOptions;
/// use scriptflow_workflow::RetryConfig;
///
/// let opts = RunOptions::default()
///     .with_batch_size(128)
///     .with_retry(RetryConfig::default());
/// # let _ = opts;
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    batch_size: Option<usize>,
    faults: Option<FaultPlan>,
    retry: RetryConfig,
    memory_budget: Option<usize>,
    result_cache: bool,
}

impl RunOptions {
    /// Tuples per batch on every edge (default 256).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size.max(1));
        self
    }

    /// Inject a seeded fault plan into this run (scoped to this run's
    /// task set; neighbors are unaffected).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Per-operator retry policy. Backoffs park the task on a timer
    /// instead of sleeping a worker.
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }

    /// Bound every blocking operator's in-memory state for this run
    /// (see [`crate::exec_live::LiveExecutor::with_memory_budget`]).
    /// Spilled bytes are summed into the tenant's
    /// [`TenantStats::counters`] when the run drains.
    pub fn with_memory_budget(mut self, bytes: Option<usize>) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Plan this run against the service's shared [`ResultCache`] (see
    /// [`crate::cache`]): operator outputs already published under their
    /// content fingerprints are served without recomputation, misses
    /// record for publication when the run completes cleanly, and the
    /// cache is shared across every tenant that opts in. Planning is
    /// deferred to dispatch, so a submission identical to a run already
    /// executing waits for it and is then served from what it published
    /// (single-flight). Default off: the run executes every operator.
    pub fn with_result_cache(mut self, enabled: bool) -> Self {
        self.result_cache = enabled;
        self
    }

    fn batch_size(&self) -> usize {
        self.batch_size.unwrap_or(256)
    }
}

// ---------------------------------------------------------------------------
// Submission results
// ---------------------------------------------------------------------------

/// Why a submission was refused. Every variant is an *explicit*
/// rejection — the service never buffers beyond its declared bounds.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The admission queue is at capacity.
    QueueFull {
        /// The configured queue depth that was exhausted.
        capacity: usize,
    },
    /// The tenant hit its [`TenantQuota::max_in_flight`] ceiling.
    TenantOverQuota {
        /// The over-quota tenant.
        tenant: String,
        /// Submissions already admitted or queued for it.
        in_flight: usize,
    },
    /// The workflow shares result storage with a run that is still
    /// admitted; running both concurrently would interleave rows.
    SinkBusy {
        /// The operator whose shared state is still owned by an
        /// admitted run.
        operator: String,
    },
    /// The submission itself is invalid (e.g. its fault plan names an
    /// unknown operator).
    Invalid(WorkflowError),
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} submissions queued)")
            }
            SubmitError::TenantOverQuota { tenant, in_flight } => {
                write!(
                    f,
                    "tenant `{tenant}` over quota ({in_flight} runs in flight)"
                )
            }
            SubmitError::SinkBusy { operator } => {
                write!(
                    f,
                    "shared state of operator `{operator}` is owned by an admitted run"
                )
            }
            SubmitError::Invalid(e) => write!(f, "invalid submission: {e}"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Where a submission currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Admitted, waiting in the admission queue for an execution slot.
    Queued,
    /// Executing on the shared pool.
    Running,
    /// Finished; [`RunHandle::wait`] returns immediately.
    Finished,
}

/// Terminal record of one submission.
#[derive(Debug)]
pub struct RunReport {
    /// Tenant that submitted the run.
    pub tenant: String,
    /// Service-assigned run id (unique for the service's lifetime).
    pub run_id: u64,
    /// Time spent in the admission queue before dispatch.
    pub queue_wait: Duration,
    /// The run's outcome: the same result shape a solo pooled
    /// [`crate::exec_live::LiveExecutor`] run produces, or the fault
    /// that failed it (drain semantics — see [`crate::fault`]).
    pub result: WorkflowResult<EngineRun>,
    /// Terminal progress trace (present even when `result` is `Err`,
    /// like [`crate::exec_live::LiveExecutor::run_observed`]).
    pub trace: ProgressTrace,
}

impl RunReport {
    /// Pool counters, when the run got far enough to report them.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.result.as_ref().ok().and_then(|r| r.pool)
    }

    /// Export the trace tagged with this run's tenant and id, so traces
    /// archived from a shared pool stay attributable.
    ///
    /// # Examples
    ///
    /// See [`crate::trace::TraceJson::from_trace_labeled`].
    pub fn trace_json(&self) -> TraceJson {
        TraceJson::from_trace_labeled(&self.trace, &self.tenant, self.run_id)
    }
}

/// One submission's seat: the slot the workers publish progress into
/// and the condvar `wait` blocks on.
struct Seat {
    slot: Mutex<Slot>,
    cv: Condvar,
}

enum Slot {
    Queued,
    /// Executing; the core is what a sampling waiter snapshots.
    Running(Arc<Pool>),
    Finished(Option<Box<RunReport>>),
}

/// Caller's handle to an admitted submission: poll it or await it.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use scriptflow_datakit::{Batch, DataType, Schema, Value};
/// use scriptflow_workflow::ops::{ScanOp, SinkOp};
/// use scriptflow_workflow::service::{RunOptions, ServiceConfig, WorkflowService};
/// use scriptflow_workflow::{PartitionStrategy, WorkflowBuilder};
///
/// let schema = Schema::of(&[("id", DataType::Int)]);
/// let batch = Batch::from_rows(schema, (0..4).map(|i| vec![Value::Int(i)]).collect()).unwrap();
/// let mut b = WorkflowBuilder::new();
/// let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
/// let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
/// b.connect(scan, sink, 0, PartitionStrategy::Single);
/// let wf = b.build().unwrap();
///
/// let svc = WorkflowService::new(ServiceConfig::default().with_pool_size(1));
/// let run = svc.submit("t", &wf, RunOptions::default()).unwrap();
/// assert_eq!(run.tenant(), "t");
/// let report = run.wait(); // blocks until the run drains
/// assert_eq!(report.run_id, 0);
/// assert!(report.result.is_ok());
/// ```
pub struct RunHandle {
    run_id: u64,
    tenant: String,
    seat: Arc<Seat>,
}

impl fmt::Debug for RunHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunHandle")
            .field("run_id", &self.run_id)
            .field("tenant", &self.tenant)
            .field("status", &self.status())
            .finish()
    }
}

impl RunHandle {
    /// The service-assigned run id.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    /// The submitting tenant.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Non-blocking lifecycle probe.
    pub fn status(&self) -> RunStatus {
        match &*lock(&self.seat.slot) {
            Slot::Queued => RunStatus::Queued,
            Slot::Running(_) => RunStatus::Running,
            Slot::Finished(_) => RunStatus::Finished,
        }
    }

    /// True once the run has drained and its report is ready.
    pub fn is_finished(&self) -> bool {
        self.status() == RunStatus::Finished
    }

    /// Block until the run drains, consuming the handle and returning
    /// its [`RunReport`].
    pub fn wait(self) -> RunReport {
        self.wait_sampling(None)
    }

    /// [`RunHandle::wait`], recording a progress sample of the running
    /// core after every `interval` spent waiting
    /// ([`crate::exec_live::LiveExecutor::with_trace`]; [`run_solo`]
    /// takes the start sample). The seat's condvar is notified only when
    /// the run finishes, which cuts the last interval short.
    fn wait_sampling(self, interval: Option<Duration>) -> RunReport {
        let mut slot = lock(&self.seat.slot);
        loop {
            if let Slot::Finished(report) = &mut *slot {
                return *report
                    .take()
                    .expect("report taken once: wait() consumes the handle");
            }
            slot = match interval {
                Some(interval) => wait_for(&self.seat.cv, slot, interval),
                None => wait(&self.seat.cv, slot),
            };
            if let (Slot::Running(core), Some(_)) = (&*slot, interval) {
                core.sample();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Aggregate per-tenant counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Submissions admitted (dispatched or queued).
    pub submitted: u64,
    /// Runs that finished (cleanly or failed).
    pub completed: u64,
    /// Finished runs whose result was an error.
    pub failed: u64,
    /// Submissions rejected (queue full, over quota, or sink busy).
    pub rejected: u64,
    /// Scheduling quanta executed on behalf of this tenant.
    pub quanta: u64,
    /// Wall-clock the pool spent inside this tenant's quanta.
    pub busy: Duration,
    /// Data counters summed over this tenant's finished runs, failed
    /// ones included: `spilled_bytes` counts what their memory budgets
    /// spilled, `cache_hits` / `cache_misses` count operators served
    /// from / recorded into the shared result cache, and
    /// `cache_evictions` counts entries the cache's byte budget evicted
    /// while this tenant's recordings were committed.
    pub counters: OpCounters,
    /// Compressed bytes this tenant's cleanly finished runs added to
    /// the shared result cache.
    pub cache_published: u64,
}

/// Point-in-time service snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Worker threads in the shared pool.
    pub pool_threads: usize,
    /// Runs currently executing.
    pub active_runs: usize,
    /// Runs waiting in the admission queue.
    pub queued_runs: usize,
    /// Runs finished over the service's lifetime.
    pub completed_runs: u64,
    /// Submissions rejected over the service's lifetime.
    pub rejected_runs: u64,
}

// ---------------------------------------------------------------------------
// Internal scheduler state
// ---------------------------------------------------------------------------

/// A submission admitted but waiting for an execution slot. Its task
/// set is already built (operator instances created, sources chunked),
/// so dispatch is cheap and happens under the scheduler lock.
struct PendingRun {
    run_id: u64,
    tenant: String,
    seat: Arc<Seat>,
    /// When `submit` was entered, before any task was built.
    entered: Instant,
    submitted: Instant,
    tasks: Vec<Task>,
    faults: Option<CompiledFaults>,
    ops: Vec<OperatorMetrics>,
    total_workers: usize,
    factories: Vec<Arc<dyn OperatorFactory>>,
    sink_ids: Vec<usize>,
    /// Present for cache-enabled submissions: task construction is
    /// deferred to dispatch, so the plan sees every segment published
    /// before the run starts — and an identical in-flight DAG holds
    /// this submission back until its results are publishable
    /// (single-flight).
    cache: Option<CacheSubmission>,
}

/// Everything a cache-enabled submission needs to build its task set at
/// dispatch time instead of at admission.
struct CacheSubmission {
    wf: Workflow,
    batch_size: usize,
    mailbox_budget: usize,
    faults: Option<FaultPlan>,
    retry: RetryConfig,
    memory_budget: Option<usize>,
    /// Whole-DAG content fingerprint — the single-flight dedup key.
    workflow_fp: OpFingerprint,
}

/// A run executing on the shared pool.
struct ActiveRun {
    run_id: u64,
    tenant: String,
    seat: Arc<Seat>,
    core: Arc<Pool>,
    /// Tasks with a quantum to run, FIFO within the run.
    ready: VecDeque<usize>,
    /// Quanta of this run currently executing on workers.
    running: usize,
    /// Fair-share virtual time: the nanos its quanta took.
    vtime: u64,
    submitted: Instant,
    dispatched: Instant,
    /// What the result's `elapsed` counts from.
    started: Instant,
    ops: Vec<OperatorMetrics>,
    total_workers: usize,
    sink_ids: Vec<usize>,
    /// Cache-enabled runs: the whole-DAG fingerprint that holds
    /// identical submissions in the admission queue while this run is
    /// active.
    cache_fp: Option<OpFingerprint>,
}

#[derive(Default)]
struct Tenant {
    in_flight: usize,
    stats: TenantStats,
}

struct SvcState {
    accepting: bool,
    next_run: u64,
    tenants: HashMap<String, Tenant>,
    active: Vec<ActiveRun>,
    admission: VecDeque<PendingRun>,
    /// Deferred retry backoffs: min-heap of (deadline, run, task).
    parked: BinaryHeap<Reverse<(Instant, u64, usize)>>,
    /// Workers currently blocked on the scheduler condvar.
    idle_workers: usize,
    completed_runs: u64,
    rejected_runs: u64,
}

/// The scheduler every run's [`Pool`] reports to.
pub(crate) struct Shared {
    state: Mutex<SvcState>,
    cv: Condvar,
    pool_threads: usize,
    max_active_runs: usize,
    queue_capacity: usize,
    default_quota: TenantQuota,
    /// One result cache per service, shared by every tenant whose runs
    /// opt in via [`RunOptions::with_result_cache`].
    cache: Arc<ResultCache>,
    /// This scheduler serves one [`crate::exec_live::LiveExecutor`] run
    /// ([`run_solo`]) and keeps that executor's contract where a
    /// tenant's submission differs: sinks are not cleared at dispatch
    /// (the caller owns them — [`crate::backend::ExecBackend::run`]
    /// clears), `elapsed` counts from submission so it covers task
    /// construction. Its workers are also left unnamed, so they keep the calling thread's
    /// name as the executor's pool threads always did.
    solo: bool,
}

impl Shared {
    /// Task `tid` of run `run` is ready to execute a quantum.
    pub(crate) fn task_ready(&self, run: u64, tid: usize) {
        let mut st = lock(&self.state);
        if let Some(r) = st.active.iter_mut().find(|r| r.run_id == run) {
            r.ready.push_back(tid);
            self.cv.notify_one();
        }
    }

    /// Task `tid` of run `run` must not run again before `until` — a
    /// retry backoff served by the timer instead of a sleeping worker.
    pub(crate) fn task_parked(&self, run: u64, tid: usize, until: Instant) {
        let mut st = lock(&self.state);
        st.parked.push(Reverse((until, run, tid)));
        // A waiting worker may need to shorten its sleep to this
        // deadline.
        self.cv.notify_one();
    }

    /// Every task of some run reached `Done`; it can be finalized.
    pub(crate) fn run_finished(&self) {
        // Finalization needs `running == 0`, which only a worker's
        // post-quantum accounting can observe; just wake them all.
        let _st = lock(&self.state);
        self.cv.notify_all();
    }

    /// Move a pending run onto the pool: clear factory-shared state
    /// (the "sink cleared per run" invariant; not on a solo run), wire
    /// its core to this scheduler, and seed every task as ready.
    fn dispatch(this: &Arc<Shared>, st: &mut SvcState, mut p: PendingRun) {
        // Cache-enabled submissions plan now, against everything
        // published so far (including by the identical run that may
        // have just finished and unblocked this one).
        let mut cache_fp = None;
        let mut recordings = Vec::new();
        if let Some(cs) = p.cache.take() {
            let plan = prepare(&cs.wf, &this.cache, SimDuration::ZERO);
            // A served operator's fault fires on its replay; one whose
            // operator the plan skipped has nothing to fire on and is
            // dropped alone. The rest passed `compile` at submit.
            p.faults = cs.faults.as_ref().map(|f| {
                CompiledFaults::compile(&f.on_ops_of(&plan.wf), &plan.wf)
                    .expect("a subset of a plan that compiled compiles")
            });
            p.tasks = build_tasks(
                &plan.wf,
                &plan.recordings,
                cs.batch_size,
                cs.mailbox_budget,
                p.faults.as_ref(),
                &cs.retry,
                cs.memory_budget,
            );
            p.ops = OperatorMetrics::for_workflow(&plan.wf);
            prime_misses(&plan.recordings, &mut p.ops);
            p.total_workers = plan.wf.total_workers();
            cache_fp = Some(cs.workflow_fp);
            recordings = plan.recordings;
        }
        if !this.solo {
            for f in &p.factories {
                f.reset_shared_state();
            }
        }
        let tracer = LiveTracer::primed(&p.ops);
        let core = Arc::new(Pool::new(
            p.tasks,
            recordings,
            p.faults,
            this.pool_threads,
            tracer,
            Arc::downgrade(this),
            p.run_id,
        ));
        let ready: VecDeque<usize> = core.seed_all().into();
        // Start at the minimum active virtual time: the newcomer gets
        // its fair share immediately without erasing history.
        let vtime = st.active.iter().map(|r| r.vtime).min().unwrap_or(0);
        *lock(&p.seat.slot) = Slot::Running(Arc::clone(&core));
        let dispatched = Instant::now();
        st.active.push(ActiveRun {
            run_id: p.run_id,
            tenant: p.tenant,
            seat: p.seat,
            core,
            ready,
            running: 0,
            vtime,
            submitted: p.submitted,
            dispatched,
            started: if this.solo { p.entered } else { dispatched },
            ops: p.ops,
            total_workers: p.total_workers,
            sink_ids: p.sink_ids,
            cache_fp,
        });
    }

    /// True while an active cache-enabled run carries the same
    /// whole-DAG fingerprint as pending `p` — dispatching now would
    /// recompute work the active run is about to publish.
    fn cache_blocked(active: &[ActiveRun], p: &PendingRun) -> bool {
        p.cache
            .as_ref()
            .is_some_and(|cs| active.iter().any(|r| r.cache_fp == Some(cs.workflow_fp)))
    }

    /// Assemble a drained run's report, settle tenant accounting, and
    /// publish it to the seat.
    fn finalize(&self, st: &mut SvcState, run: ActiveRun) {
        let mut trace = run.core.finish_trace();
        let elapsed = run.started.elapsed();
        let result = match run.core.take_error() {
            Some(e) => Err(e),
            None => Ok({
                let mut res = assemble_live_result(
                    &run.ops,
                    run.total_workers,
                    elapsed,
                    run.core.tracer(),
                    trace.clone(),
                );
                // Publish recordings only from clean runs: around a
                // faulted or replayed quantum output is recorded in an
                // order no clean run produces (the same discipline as the
                // simulator).
                let retried = res.metrics.sched_totals().retries_attempted > 0;
                if run.core.faults_injected() == 0 && !retried {
                    commit_recordings(run.core.recordings(), &self.cache)
                        .apply_to(&mut res, &mut trace);
                }
                res.pool = Some(run.core.stats(&res.metrics));
                res
            }),
        };
        // A failed run is charged from the tracer, not the result it
        // does not have: a run that failed after spilling still consumed
        // the disk. (It never commits, so the tracer's view is whole.)
        let counters = match &result {
            Ok(res) => res.counters(),
            Err(_) => run.core.tracer().totals(),
        };
        if let Some(t) = st.tenants.get_mut(&run.tenant) {
            t.in_flight = t.in_flight.saturating_sub(1);
            t.stats.completed += 1;
            t.stats.counters += counters;
            t.stats.cache_published += result.as_ref().map_or(0, |r| r.cache_published);
            if result.is_err() {
                t.stats.failed += 1;
            }
        }
        st.completed_runs += 1;
        let report = RunReport {
            tenant: run.tenant,
            run_id: run.run_id,
            queue_wait: run.dispatched.duration_since(run.submitted),
            result,
            trace,
        };
        *lock(&run.seat.slot) = Slot::Finished(Some(Box::new(report)));
        run.seat.cv.notify_all();
    }

    /// Shared-pool worker: release due parks, finalize drained runs,
    /// admit queued ones, then execute one quantum of the minimum-
    /// virtual-time run with ready work — or sleep until the next park
    /// deadline / scheduling event.
    fn worker(self: Arc<Self>) {
        let mut st = lock(&self.state);
        loop {
            // Phase 1: parked tasks whose backoff elapsed become ready.
            let now = Instant::now();
            while let Some(&Reverse((until, run, tid))) = st.parked.peek() {
                if until > now {
                    break;
                }
                st.parked.pop();
                if let Some(r) = st.active.iter_mut().find(|r| r.run_id == run) {
                    r.ready.push_back(tid);
                }
            }

            // Phase 2: finalize a drained run and backfill its slot from
            // the admission queue.
            if let Some(pos) = st
                .active
                .iter()
                .position(|r| r.core.finished() && r.running == 0)
            {
                let run = st.active.swap_remove(pos);
                self.finalize(&mut st, run);
                while st.active.len() < self.max_active_runs {
                    // Skip (don't pop) submissions held back by an
                    // identical active cache run.
                    let next = {
                        let active = &st.active;
                        st.admission
                            .iter()
                            .position(|p| !Shared::cache_blocked(active, p))
                    };
                    match next {
                        Some(i) => {
                            let p = st.admission.remove(i).expect("position is in range");
                            Shared::dispatch(&self, &mut st, p);
                        }
                        None => break,
                    }
                }
                self.cv.notify_all();
                continue;
            }

            // Phase 3: fair pick — the ready run that has consumed the
            // least pool time goes first.
            let pick = st
                .active
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.ready.is_empty())
                .min_by_key(|(_, r)| r.vtime)
                .map(|(i, _)| i);
            if let Some(idx) = pick {
                let tid = st.active[idx].ready.pop_front().expect("ready checked");
                st.active[idx].running += 1;
                let core = Arc::clone(&st.active[idx].core);
                let run_id = st.active[idx].run_id;
                drop(st);

                let quantum_start = Instant::now();
                core.step(tid);
                let spent = quantum_start.elapsed();

                st = lock(&self.state);
                // The run is still active: `running > 0` kept phase 2
                // from finalizing it while the quantum executed.
                let SvcState {
                    active, tenants, ..
                } = &mut *st;
                if let Some(r) = active.iter_mut().find(|r| r.run_id == run_id) {
                    r.running -= 1;
                    let nanos = u64::try_from(spent.as_nanos()).unwrap_or(u64::MAX);
                    r.vtime = r.vtime.saturating_add(nanos.max(1));
                    if let Some(t) = tenants.get_mut(&r.tenant) {
                        t.stats.quanta += 1;
                        t.stats.busy += spent;
                    }
                }
                continue;
            }

            // Phase 4: shutdown once drained.
            if !st.accepting && st.active.is_empty() && st.admission.is_empty() {
                return;
            }

            // Phase 5: quiescence check. Everyone else idle, nothing
            // parked, yet a run still has active tasks with no ready
            // work and no running quanta — its pipeline wedged (dropped
            // EOS). Fail the run as stalled, outside the lock.
            if st.idle_workers + 1 == self.pool_threads && st.parked.is_empty() {
                let wedged: Vec<Arc<Pool>> = st
                    .active
                    .iter()
                    .filter(|r| r.running == 0 && r.ready.is_empty() && !r.core.finished())
                    .map(|r| Arc::clone(&r.core))
                    .collect();
                if !wedged.is_empty() {
                    drop(st);
                    for core in wedged {
                        core.fail_stalled();
                    }
                    st = lock(&self.state);
                    continue;
                }
            }

            // Phase 6: sleep until the next park deadline or a
            // scheduling event.
            st.idle_workers += 1;
            st = match st.parked.peek().map(|Reverse((until, _, _))| *until) {
                Some(deadline) => {
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    wait_for(&self.cv, st, timeout)
                }
                None => wait(&self.cv, st),
            };
            st.idle_workers -= 1;
        }
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Process-wide workflow service: one fixed worker pool, many
/// concurrent DAG submissions (see the [module docs](crate::service)).
///
/// Dropping the service stops admissions, drains every run already
/// admitted or queued, and joins the pool.
///
/// # Examples
///
/// Two tenants sharing one pool; each gets its rows back:
///
/// ```
/// use std::sync::Arc;
/// use scriptflow_datakit::{Batch, DataType, Schema, Value};
/// use scriptflow_workflow::ops::{ScanOp, SinkOp};
/// use scriptflow_workflow::service::{RunOptions, ServiceConfig, WorkflowService};
/// use scriptflow_workflow::{PartitionStrategy, WorkflowBuilder};
///
/// fn chain(rows: i64) -> (scriptflow_workflow::Workflow, scriptflow_workflow::ops::SinkHandle) {
///     let schema = Schema::of(&[("id", DataType::Int)]);
///     let batch =
///         Batch::from_rows(schema, (0..rows).map(|i| vec![Value::Int(i)]).collect()).unwrap();
///     let mut b = WorkflowBuilder::new();
///     let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
///     let sink_op = Arc::new(SinkOp::new("sink"));
///     let handle = sink_op.handle();
///     let sink = b.add(sink_op, 1);
///     b.connect(scan, sink, 0, PartitionStrategy::Single);
///     (b.build().unwrap(), handle)
/// }
///
/// let svc = WorkflowService::new(ServiceConfig::default().with_pool_size(2));
/// let (wf_a, sink_a) = chain(20);
/// let (wf_b, sink_b) = chain(30);
/// let run_a = svc.submit("alice", &wf_a, RunOptions::default()).unwrap();
/// let run_b = svc.submit("bob", &wf_b, RunOptions::default()).unwrap();
/// assert!(run_a.wait().result.is_ok());
/// assert!(run_b.wait().result.is_ok());
/// assert_eq!(sink_a.len(), 20);
/// assert_eq!(sink_b.len(), 30);
///
/// let stats = svc.service_stats();
/// assert_eq!(stats.completed_runs, 2);
/// ```
pub struct WorkflowService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkflowService {
    /// Start a service per `config`, spawning its worker pool.
    pub fn new(config: ServiceConfig) -> Self {
        Self::unstaffed(config, false).staffed()
    }

    /// A service per `config` whose pool is not spawned yet
    /// ([`WorkflowService::staffed`]): it admits and seats runs, and
    /// nothing steps them.
    fn unstaffed(config: ServiceConfig, solo: bool) -> Self {
        let pool_threads = config.pool_size.unwrap_or_else(default_pool_size).max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(SvcState {
                accepting: true,
                next_run: 0,
                tenants: HashMap::new(),
                active: Vec::new(),
                admission: VecDeque::new(),
                parked: BinaryHeap::new(),
                idle_workers: 0,
                completed_runs: 0,
                rejected_runs: 0,
            }),
            cv: Condvar::new(),
            pool_threads,
            max_active_runs: config.max_active_runs.max(1),
            queue_capacity: config.queue_capacity,
            default_quota: config.default_quota,
            cache: config
                .result_cache
                .unwrap_or_else(|| Arc::new(ResultCache::new())),
            solo,
        });
        WorkflowService {
            shared,
            workers: Vec::new(),
        }
    }

    /// Spawn the pool's threads.
    fn staffed(mut self) -> Self {
        self.workers = (0..self.shared.pool_threads)
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                let mut thread = std::thread::Builder::new();
                if !shared.solo {
                    thread = thread.name(format!("wf-svc-{i}"));
                }
                thread
                    .spawn(move || shared.worker())
                    .expect("spawn service worker")
            })
            .collect();
        self
    }

    /// Submit `wf` on behalf of `tenant`. Returns a [`RunHandle`] if
    /// the run was admitted (dispatched or queued), or the explicit
    /// [`SubmitError`] that refused it.
    pub fn submit(
        &self,
        tenant: &str,
        wf: &Workflow,
        opts: RunOptions,
    ) -> Result<RunHandle, SubmitError> {
        let entered = Instant::now();
        // Validate and size the run before taking the scheduler lock:
        // task construction (operator instances, pre-chunked sources)
        // must not stall the pool.
        let faults = match &opts.faults {
            Some(plan) => Some(CompiledFaults::compile(plan, wf).map_err(SubmitError::Invalid)?),
            None => None,
        };
        let quota = self.shared.default_quota;
        // Cache-enabled runs defer task construction to dispatch (the
        // plan must see everything published before the run starts);
        // everything else builds its tasks now, outside the lock. The
        // fingerprints are asked for before the clone, so the clone
        // dispatch plans from carries them.
        let cache_sub = opts.result_cache.then(|| {
            let workflow_fp = wf.workflow_fingerprint();
            CacheSubmission {
                wf: wf.clone(),
                batch_size: opts.batch_size(),
                mailbox_budget: quota.mailbox_budget,
                faults: opts.faults.clone(),
                retry: opts.retry.clone(),
                memory_budget: opts.memory_budget,
                workflow_fp,
            }
        });
        let tasks = if cache_sub.is_some() {
            Vec::new()
        } else {
            build_tasks(
                wf,
                &[],
                opts.batch_size(),
                quota.mailbox_budget,
                faults.as_ref(),
                &opts.retry,
                opts.memory_budget,
            )
        };
        let ops = OperatorMetrics::for_workflow(wf);
        let total_workers = wf.total_workers();
        let factories: Vec<Arc<dyn OperatorFactory>> =
            wf.ops().iter().map(|n| Arc::clone(&n.factory)).collect();
        let sink_ids: Vec<usize> = wf
            .ops()
            .iter()
            .filter_map(|n| n.desc().shared_state)
            .collect();

        let mut st = lock(&self.shared.state);
        if !st.accepting {
            return Err(SubmitError::ShuttingDown);
        }
        let in_flight = st.tenants.entry(tenant.to_owned()).or_default().in_flight;
        if in_flight >= quota.max_in_flight {
            Self::reject(&mut st, tenant);
            return Err(SubmitError::TenantOverQuota {
                tenant: tenant.to_owned(),
                in_flight,
            });
        }
        // Two concurrent runs appending into one shared buffer would
        // interleave rows; refuse the later submission explicitly.
        if let Some(&id) = sink_ids.iter().find(|id| {
            st.active.iter().any(|r| r.sink_ids.contains(id))
                || st.admission.iter().any(|p| p.sink_ids.contains(id))
        }) {
            let operator = wf
                .ops()
                .iter()
                .map(|n| n.desc())
                .find(|d| d.shared_state == Some(id))
                .map(|d| d.name.clone())
                .unwrap_or_default();
            Self::reject(&mut st, tenant);
            return Err(SubmitError::SinkBusy { operator });
        }
        // Single-flight: an identical cache-enabled DAG already active
        // or queued means this submission waits and is served from what
        // that run publishes, instead of computing the prefix twice.
        let cache_held = cache_sub.as_ref().is_some_and(|cs| {
            st.active.iter().any(|r| r.cache_fp == Some(cs.workflow_fp))
                || st.admission.iter().any(|p| {
                    p.cache
                        .as_ref()
                        .is_some_and(|q| q.workflow_fp == cs.workflow_fp)
                })
        });
        let dispatch_now = !cache_held && st.active.len() < self.shared.max_active_runs;
        if !dispatch_now && st.admission.len() >= self.shared.queue_capacity {
            Self::reject(&mut st, tenant);
            return Err(SubmitError::QueueFull {
                capacity: self.shared.queue_capacity,
            });
        }

        let run_id = st.next_run;
        st.next_run += 1;
        let seat = Arc::new(Seat {
            slot: Mutex::new(Slot::Queued),
            cv: Condvar::new(),
        });
        if let Some(t) = st.tenants.get_mut(tenant) {
            t.in_flight += 1;
            t.stats.submitted += 1;
        }
        let pending = PendingRun {
            run_id,
            tenant: tenant.to_owned(),
            seat: Arc::clone(&seat),
            entered,
            submitted: Instant::now(),
            tasks,
            faults,
            ops,
            total_workers,
            factories,
            sink_ids,
            cache: cache_sub,
        };
        if dispatch_now {
            Shared::dispatch(&self.shared, &mut st, pending);
        } else {
            st.admission.push_back(pending);
        }
        drop(st);
        self.shared.cv.notify_all();
        Ok(RunHandle {
            run_id,
            tenant: tenant.to_owned(),
            seat,
        })
    }

    fn reject(st: &mut SvcState, tenant: &str) {
        st.rejected_runs += 1;
        if let Some(t) = st.tenants.get_mut(tenant) {
            t.stats.rejected += 1;
        }
    }

    /// Aggregate counters for `tenant`, if it ever submitted.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        lock(&self.shared.state)
            .tenants
            .get(tenant)
            .map(|t| t.stats)
    }

    /// The service's shared result cache: one per service, populated by
    /// runs submitted with [`RunOptions::with_result_cache`] and read by
    /// every later cache-enabled submission regardless of tenant.
    pub fn result_cache(&self) -> &Arc<ResultCache> {
        &self.shared.cache
    }

    /// Point-in-time service snapshot.
    pub fn service_stats(&self) -> ServiceStats {
        let st = lock(&self.shared.state);
        ServiceStats {
            pool_threads: self.shared.pool_threads,
            active_runs: st.active.len(),
            queued_runs: st.admission.len(),
            completed_runs: st.completed_runs,
            rejected_runs: st.rejected_runs,
        }
    }

    /// Stop admissions, drain every admitted and queued run, and join
    /// the pool. Equivalent to dropping the service, but explicit.
    pub fn shutdown(self) {}
}

impl Drop for WorkflowService {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.accepting = false;
        }
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The body of a pooled [`crate::exec_live::LiveExecutor::run_observed`]:
/// run `wf` alone on a private scheduler sized by `config`, sampling its
/// progress at the start and every `trace_interval` if one is given, and
/// join the pool.
pub(crate) fn run_solo(
    config: ServiceConfig,
    wf: &Workflow,
    opts: RunOptions,
    trace_interval: Option<Duration>,
) -> (ProgressTrace, WorkflowResult<EngineRun>) {
    let svc = WorkflowService::unstaffed(config, true);
    let submitted = svc.submit("", wf, opts);
    // The start sample is taken where the run is seated, before the
    // pool's threads exist, so no run finishes too fast to have one.
    if let (Ok(run), Some(_)) = (&submitted, trace_interval) {
        if let Slot::Running(core) = &*lock(&run.seat.slot) {
            core.sample();
        }
    }
    let _pool = svc.staffed(); // joined on drop, after the wait
    match submitted {
        Ok(run) => {
            let report = run.wait_sampling(trace_interval);
            (report.trace, report.result)
        }
        // A fresh single-run service refuses nothing but an invalid
        // fault plan.
        Err(refused) => {
            let e = match refused {
                SubmitError::Invalid(e) => e,
                other => WorkflowError::InvalidDag(other.to_string()),
            };
            (ProgressTrace::default(), Err(e))
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::WorkflowBuilder;
    use crate::exec_live::LiveExecutor;
    use crate::fault::random_chain;
    use crate::ops::{FilterOp, ScanOp, SinkHandle, SinkOp};
    use crate::partition::PartitionStrategy;
    use crate::retry::{Backoff, RetryConfig, RetryPolicy};
    use scriptflow_datakit::{Batch, DataType, Schema, Value};

    fn int_batch(rows: i64) -> Batch {
        let schema = Schema::of(&[("id", DataType::Int)]);
        Batch::from_rows(schema, (0..rows).map(|i| vec![Value::Int(i)]).collect()).unwrap()
    }

    fn chain(rows: i64, parallelism: usize) -> (Workflow, SinkHandle) {
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(rows))), 1);
        let filter = b.add(
            Arc::new(FilterOp::new("filter", |t| Ok(t.get_int("id")? % 2 == 0))),
            parallelism,
        );
        let sink_op = Arc::new(SinkOp::new("sink"));
        let handle = sink_op.handle();
        let sink = b.add(sink_op, 1);
        b.connect(scan, filter, 0, PartitionStrategy::RoundRobin);
        b.connect(filter, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        (wf, handle)
    }

    fn sorted_rows(handle: &SinkHandle) -> Vec<String> {
        let mut rows: Vec<String> = handle.results().iter().map(|t| format!("{t:?}")).collect();
        rows.sort();
        rows
    }

    /// Options that keep a run deterministically in flight for a while:
    /// a benign injected slow edge stretches every filter batch, so the
    /// run is still admitted when the test submits against it.
    fn slow_opts() -> RunOptions {
        RunOptions::default().with_faults(FaultPlan::new(0).slow_edge("filter", 2_000))
    }

    #[test]
    fn single_run_matches_solo_executor() {
        let (wf, handle) = chain(200, 2);
        // The anchor shares no scheduling code with the service (a
        // pooled `LiveExecutor` run *is* this scheduler).
        let solo = {
            LiveExecutor::thread_per_worker(32).run(&wf).unwrap();
            let rows = sorted_rows(&handle);
            handle.clear();
            rows
        };

        let svc = WorkflowService::new(ServiceConfig::default().with_pool_size(2));
        let run = svc
            .submit("t", &wf, RunOptions::default().with_batch_size(32))
            .unwrap();
        let report = run.wait();
        assert!(report.queue_wait < Duration::from_secs(5));
        assert_eq!(report.tenant, "t");
        // The labeled trace export carries the tenant tag.
        let text = report.trace_json().to_string_compact();
        assert!(text.contains("\"tenant\":\"t\""));
        let res = report.result.expect("clean run");
        assert_eq!(sorted_rows(&handle), solo);
        assert!(res.pool.is_some());
        assert_eq!(res.metrics.operators.len(), 3);
    }

    /// Submit `wf` under `opts` to a solo scheduler of `pool_size`
    /// threads, wait for the report, and shut the scheduler down. Returns
    /// the report, the run's core (for [`Pool::stats`]) and whether
    /// every worker thread exited within five seconds of the shutdown.
    fn run_solo_keeping_core(
        wf: &Workflow,
        opts: RunOptions,
        pool_size: usize,
    ) -> (RunReport, Arc<Pool>, bool) {
        let config = ServiceConfig::default().with_pool_size(pool_size);
        let svc = WorkflowService::unstaffed(config, true);
        let run = svc.submit("", wf, opts).unwrap();
        let core = match &*lock(&run.seat.slot) {
            Slot::Running(core) => Arc::clone(core),
            _ => panic!("a solo run is dispatched at submission"),
        };
        let mut pool = svc.staffed();
        let report = run.wait();
        lock(&pool.shared.state).accepting = false;
        pool.shared.cv.notify_all();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pool.workers.iter().all(|h| h.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let drained = pool.workers.iter().all(|h| h.is_finished());
        pool.workers.drain(..).for_each(|h| h.join().unwrap());
        (report, core, drained)
    }

    #[test]
    fn solo_dropped_eos_fails_the_run_as_stalled() {
        let (wf, _handle) = chain(200, 2);
        let opts = RunOptions::default().with_faults(FaultPlan::new(3).drop_eos("scan"));
        let (report, core, drained) = run_solo_keeping_core(&wf, opts, 2);
        let err = report.result.expect_err("dropping EOS fails the run");
        assert!(matches!(err, WorkflowError::Stalled { .. }), "{err}");
        assert!(err.to_string().contains("end-of-stream"), "{err}");
        assert_eq!(
            core.stats(&crate::RunMetrics::default()).stall_recoveries,
            1
        );
        let (_, last) = report.trace.samples.last().unwrap();
        assert!(last.iter().all(|s| s.state.is_terminal()), "{last:?}");
        assert!(drained, "every scheduler thread exits");
    }

    /// One input of a fan-in loses its EOS: the join's build side drops
    /// it, the probe side's EOS arrives and waits behind the closed
    /// build port. The detector pins the silent producer, force-finishes
    /// the starving join and its sink, and names exactly the ports left
    /// waiting — the probe port, whose EOS arrived, is not one of them.
    #[test]
    fn a_dropped_eos_on_one_fan_in_input_fails_the_run_as_stalled() {
        use crate::ops::HashJoinOp;
        use crate::{OperatorState, StarvedPort};
        let build_schema = Schema::of(&[("k", DataType::Int)]);
        let build = Batch::from_rows(build_schema, (0..10).map(|k| vec![Value::Int(k)]).collect());
        let mut b = WorkflowBuilder::new();
        let bs = b.add(Arc::new(ScanOp::new("build", build.unwrap())), 2);
        let ps = b.add(Arc::new(ScanOp::new("probe", int_batch(100))), 1);
        let join = b.add(Arc::new(HashJoinOp::new("join", &["id"], &["k"])), 1);
        let sink_op = Arc::new(SinkOp::new("sink"));
        let handle = sink_op.handle();
        let sink = b.add(sink_op, 1);
        b.connect(bs, join, 0, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(ps, join, 1, PartitionStrategy::Hash(vec!["id".into()]));
        b.connect(join, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();

        for pool_size in [1, 2] {
            let opts = RunOptions::default().with_faults(FaultPlan::new(0).drop_eos("build"));
            let (report, core, drained) = run_solo_keeping_core(&wf, opts, pool_size);
            let starved = |operator: &str, missing_eos, upstream: &str| StarvedPort {
                operator: operator.into(),
                worker: 0,
                port: 0,
                missing_eos,
                upstream: upstream.into(),
            };
            let want = WorkflowError::Stalled {
                starving: vec![starved("join", 2, "build"), starved("sink", 1, "join")],
            };
            assert_eq!(report.result.unwrap_err(), want, "pool {pool_size}");
            let (_, last) = report.trace.samples.last().unwrap();
            let state = |name: &str| last.iter().find(|s| s.name == name).unwrap().state;
            assert_eq!(state("build"), OperatorState::Failed);
            assert_eq!(state("probe"), OperatorState::Completed);
            assert_eq!(state("join"), OperatorState::Degraded);
            assert_eq!(state("sink"), OperatorState::Degraded);
            let stats = core.stats(&crate::RunMetrics::default());
            assert_eq!((stats.stall_recoveries, stats.faults_injected), (1, 1));
            assert!(handle.is_empty(), "the join never opened its probe side");
            assert!(drained, "pool {pool_size}: every scheduler thread exits");
        }
    }

    #[test]
    fn concurrent_tenants_each_get_their_rows() {
        let svc = WorkflowService::new(
            ServiceConfig::default()
                .with_pool_size(2)
                .with_max_active_runs(8),
        );
        let runs: Vec<(RunHandle, SinkHandle, usize)> = (0..6)
            .map(|i| {
                let rows = 100 + 40 * i;
                let (wf, handle) = chain(rows as i64, 2);
                let run = svc
                    .submit(&format!("tenant-{}", i % 3), &wf, RunOptions::default())
                    .unwrap();
                (run, handle, rows / 2)
            })
            .collect();
        for (run, handle, expect) in runs {
            let report = run.wait();
            assert!(report.result.is_ok(), "{:?}", report.result.err());
            assert_eq!(handle.len(), expect);
        }
        let stats = svc.service_stats();
        assert_eq!(stats.completed_runs, 6);
        assert_eq!(stats.rejected_runs, 0);
        for i in 0..3 {
            let t = svc.tenant_stats(&format!("tenant-{i}")).unwrap();
            assert_eq!((t.submitted, t.completed), (2, 2));
            assert!(t.quanta > 0 && t.busy > Duration::ZERO);
        }
    }

    #[test]
    fn identical_cache_submissions_compute_shared_prefix_once() {
        // Two tenants submit content-identical pipelines (separately
        // built, each with its own sink buffer). With the shared result
        // cache on, the second run is held until the first finishes
        // (single-flight on the whole-DAG fingerprint), then served
        // entirely from the segments the first run published.
        let svc = WorkflowService::new(
            ServiceConfig::default()
                .with_pool_size(2)
                .with_max_active_runs(4),
        );
        let (wf_a, handle_a) = chain(120, 2);
        let (wf_b, handle_b) = chain(120, 2);
        let opts = || RunOptions::default().with_result_cache(true);
        let run_a = svc.submit("alice", &wf_a, opts()).unwrap();
        let run_b = svc.submit("bob", &wf_b, opts()).unwrap();
        let rep_a = run_a.wait();
        let rep_b = run_b.wait();
        let res_a = rep_a.result.expect("leader run is clean");
        let res_b = rep_b.result.expect("follower run is clean");

        // Both tenants get identical rows in their own sinks.
        assert_eq!(handle_a.len(), 60);
        assert_eq!(sorted_rows(&handle_a), sorted_rows(&handle_b));

        // The leader computed and published; the follower was served.
        let pool_a = res_a.pool.expect("pooled run");
        let pool_b = res_b.pool.expect("pooled run");
        assert!(pool_a.cache_misses > 0, "leader records the prefix");
        assert_eq!(pool_a.cache_hits, 0, "nothing published before the leader");
        assert!(
            res_a.cache_published > 0,
            "leader publishes on clean finish"
        );
        assert!(pool_b.cache_hits > 0, "follower is served from the cache");
        assert_eq!(pool_b.cache_misses, 0, "follower recomputes nothing");
        assert_eq!(res_b.cache_published, 0, "follower has nothing new");

        // Tenant-labeled accounting matches.
        let alice = svc.tenant_stats("alice").unwrap();
        let bob = svc.tenant_stats("bob").unwrap();
        assert!(alice.counters.cache_misses > 0 && alice.cache_published > 0);
        assert_eq!(alice.counters.cache_hits, 0);
        assert!(bob.counters.cache_hits > 0);
        assert_eq!(bob.cache_published, 0);
        assert!(svc.result_cache().entries() > 0);
    }

    #[test]
    fn evicted_entries_stop_counting_against_the_cache_quota() {
        // The shared cache's byte budget is one quota over every
        // tenant's entries. Once the budget evicts an entry its bytes
        // are released: a rerun that republishes them is admitted under
        // a budget of exactly their size without evicting anything.
        let cache = Arc::new(ResultCache::new());
        let svc = WorkflowService::new(
            ServiceConfig::default()
                .with_pool_size(1)
                .with_result_cache(Arc::clone(&cache)),
        );
        let publish = || {
            let (wf, _h) = chain(80, 1);
            let run = svc.submit("t", &wf, RunOptions::default().with_result_cache(true));
            run.unwrap()
                .wait()
                .result
                .expect("clean run")
                .cache_published
        };
        let published = publish();
        assert!(published > 0);
        assert_eq!(cache.bytes(), published);

        // Shrinking the budget evicts the tenant's entries; the freed
        // bytes no longer count.
        cache.set_byte_budget(Some(0));
        assert_eq!(cache.bytes(), 0);
        let evictions = cache.evictions();
        assert!(evictions > 0);
        cache.set_byte_budget(Some(published));
        assert_eq!(publish(), published, "the rerun recomputes and republishes");
        assert_eq!(cache.bytes(), published);
        assert_eq!(cache.evictions(), evictions, "room for all of it");
        // Cumulative history is untouched — only the resident bytes moved.
        assert_eq!(
            svc.tenant_stats("t").unwrap().cache_published,
            2 * published
        );
    }

    #[test]
    fn single_flight_follower_is_not_double_charged() {
        // Two identical cache-enabled submissions from one tenant: the
        // follower's commit re-publishes the same fingerprints, which
        // the cache treats as idempotent no-ops — the cache holds the
        // leader's bytes once, not twice.
        let cache = Arc::new(ResultCache::new());
        let svc = WorkflowService::new(
            ServiceConfig::default()
                .with_pool_size(2)
                .with_max_active_runs(4)
                .with_result_cache(Arc::clone(&cache)),
        );
        let (wf_a, handle_a) = chain(120, 2);
        let (wf_b, handle_b) = chain(120, 2);
        let opts = || RunOptions::default().with_result_cache(true);
        let run_a = svc.submit("t", &wf_a, opts()).unwrap();
        let run_b = svc.submit("t", &wf_b, opts()).unwrap();
        let res_a = run_a.wait().result.expect("leader run is clean");
        let res_b = run_b.wait().result.expect("follower run is clean");
        assert_eq!(sorted_rows(&handle_a), sorted_rows(&handle_b));
        assert!(res_a.cache_published > 0);
        assert_eq!(res_b.cache_published, 0, "follower adds nothing");
        assert_eq!(
            cache.bytes(),
            res_a.cache_published,
            "the cache holds the leader's publish, once"
        );
    }

    #[test]
    fn admission_queue_backfills_in_order() {
        // One active slot: later submissions queue and run one by one.
        let svc = WorkflowService::new(
            ServiceConfig::default()
                .with_pool_size(1)
                .with_max_active_runs(1)
                .with_queue_capacity(8),
        );
        let runs: Vec<(RunHandle, SinkHandle)> = (0..4)
            .map(|i| {
                let (wf, handle) = chain(60 + i, 1);
                (svc.submit("t", &wf, RunOptions::default()).unwrap(), handle)
            })
            .collect();
        for (i, (run, handle)) in runs.into_iter().enumerate() {
            let report = run.wait();
            assert!(report.result.is_ok());
            assert_eq!(handle.len(), (60 + i) / 2 + (60 + i) % 2);
        }
    }

    #[test]
    fn queue_full_and_over_quota_reject_explicitly() {
        let svc = WorkflowService::new(
            ServiceConfig::default()
                .with_pool_size(1)
                .with_max_active_runs(1)
                .with_queue_capacity(1)
                .with_default_quota(TenantQuota::default().with_max_in_flight(2)),
        );
        // A run large enough to still be active while we pile on.
        let (wf0, _h0) = chain(20_000, 2);
        let a = svc.submit("big", &wf0, slow_opts()).unwrap();

        // Different tenant, same service: fills the one queue slot.
        let (wf1, _h1) = chain(10, 1);
        let b = svc.submit("small", &wf1, RunOptions::default()).unwrap();

        // Queue is now full for everyone.
        let (wf2, _h2) = chain(10, 1);
        match svc.submit("small", &wf2, RunOptions::default()) {
            Err(SubmitError::QueueFull { capacity: 1 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }

        // `big` has 1 in flight with a ceiling of 2 — but the queue is
        // still full, so it also bounces.
        let (wf3, _h3) = chain(10, 1);
        assert!(matches!(
            svc.submit("big", &wf3, RunOptions::default()),
            Err(SubmitError::QueueFull { .. })
        ));

        let a_report = a.wait();
        assert!(a_report.result.is_ok());
        let b_report = b.wait();
        assert!(b_report.result.is_ok());

        // Quota ceiling: submit max_in_flight + 1 runs back to back.
        let svc2 = WorkflowService::new(
            ServiceConfig::default()
                .with_pool_size(1)
                .with_max_active_runs(1)
                .with_queue_capacity(16)
                .with_default_quota(TenantQuota::default().with_max_in_flight(2)),
        );
        let (wf_a, _ha) = chain(20_000, 2);
        let (wf_b, _hb) = chain(20_000, 2);
        let (wf_c, _hc) = chain(10, 1);
        let r1 = svc2.submit("q", &wf_a, slow_opts()).unwrap();
        let r2 = svc2.submit("q", &wf_b, slow_opts()).unwrap();
        match svc2.submit("q", &wf_c, RunOptions::default()) {
            Err(SubmitError::TenantOverQuota { tenant, in_flight }) => {
                assert_eq!(tenant, "q");
                assert_eq!(in_flight, 2);
            }
            other => panic!("expected TenantOverQuota, got {other:?}"),
        }
        assert!(r1.wait().result.is_ok());
        assert!(r2.wait().result.is_ok());
        assert_eq!(svc2.tenant_stats("q").unwrap().rejected, 1);
    }

    #[test]
    fn shared_sink_is_busy_until_the_owner_drains() {
        let (wf, handle) = chain(20_000, 2);
        let svc = WorkflowService::new(
            ServiceConfig::default()
                .with_pool_size(1)
                .with_max_active_runs(4),
        );
        let first = svc.submit("t", &wf, slow_opts()).unwrap();
        // Same workflow object ⇒ same sink buffer ⇒ explicit rejection
        // instead of interleaved rows.
        match svc.submit("t", &wf, RunOptions::default()) {
            Err(SubmitError::SinkBusy { operator }) => assert_eq!(operator, "sink"),
            other => panic!("expected SinkBusy, got {other:?}"),
        }
        assert!(first.wait().result.is_ok());
        let first_rows = sorted_rows(&handle);
        assert_eq!(first_rows.len(), 10_000);
        // Once drained, resubmission works and rows match exactly (the
        // dispatch cleared the sink: PR 4's invariant under concurrency).
        let again = svc.submit("t", &wf, RunOptions::default()).unwrap();
        assert!(again.wait().result.is_ok());
        assert_eq!(sorted_rows(&handle), first_rows);
    }

    /// A text sink's buffer is shared state exactly as a `SinkOp`'s is:
    /// cleared per dispatch, and busy while a run appends into it.
    #[test]
    fn text_sink_is_cleared_per_run_and_busy_while_in_flight() {
        use crate::ops::{TextFormat, TextSinkOp};
        let sink_op = TextSinkOp::new("text", TextFormat::Csv);
        let handle = sink_op.handle();
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(2_000))), 1);
        let filter = b.add(
            Arc::new(FilterOp::new("filter", |t| Ok(t.get_int("id")? % 2 == 0))),
            1,
        );
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(scan, filter, 0, PartitionStrategy::RoundRobin);
        b.connect(filter, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        let svc = WorkflowService::new(
            ServiceConfig::default()
                .with_pool_size(1)
                .with_max_active_runs(4),
        );
        let first = svc.submit("t", &wf, slow_opts()).unwrap();
        match svc.submit("t", &wf, RunOptions::default()) {
            Err(SubmitError::SinkBusy { operator }) => assert_eq!(operator, "text"),
            other => panic!("expected SinkBusy, got {other:?}"),
        }
        assert!(first.wait().result.is_ok());
        let text = handle.text();
        assert_eq!(handle.len(), 1_000);
        // A second run of the same workflow leaves one run's rows.
        let again = svc.submit("t", &wf, RunOptions::default()).unwrap();
        assert!(again.wait().result.is_ok());
        assert_eq!((handle.len(), handle.text()), (1_000, text));
    }

    #[test]
    fn faulty_run_fails_alone_while_neighbor_completes() {
        // A fault storm in one tenant's run must not stall or corrupt a
        // neighbor sharing the pool.
        let (noisy_wf, noisy_sink, ops) = random_chain(11);
        let plan = FaultPlan::random(11, &ops);
        let (quiet_wf, quiet_sink) = chain(4_000, 2);

        // Solo anchor for the quiet run.
        let _ = LiveExecutor::new(64).with_pool_size(2).run(&quiet_wf);
        let solo = sorted_rows(&quiet_sink);
        quiet_sink.clear();

        let svc = WorkflowService::new(
            ServiceConfig::default()
                .with_pool_size(2)
                .with_max_active_runs(4),
        );
        let noisy = svc
            .submit("noisy", &noisy_wf, RunOptions::default().with_faults(plan))
            .unwrap();
        let quiet = svc
            .submit("quiet", &quiet_wf, RunOptions::default())
            .unwrap();
        let quiet_report = quiet.wait();
        assert!(
            quiet_report.result.is_ok(),
            "{:?}",
            quiet_report.result.err()
        );
        assert_eq!(sorted_rows(&quiet_sink), solo);
        // The noisy run drains (clean, degraded, or failed — but never
        // wedged) and its sink only ever holds its own rows.
        let noisy_report = noisy.wait();
        let _ = noisy_report.result;
        let _ = noisy_sink.len();
    }

    #[test]
    fn deferred_retry_backoff_parks_instead_of_sleeping() {
        // A retried fault under the service must still recover all rows
        // (exactly-once replay), with the backoff served by the park
        // timer rather than a sleeping worker.
        let (wf, handle) = chain(2_000, 2);
        let plan = FaultPlan::new(5).panic_at("filter", 100);
        let retry = RetryConfig::uniform(RetryPolicy::attempts(3).with_backoff(Backoff {
            base: Duration::from_millis(5),
            factor: 1,
            cap: Duration::from_millis(5),
        }));

        let svc = WorkflowService::new(ServiceConfig::default().with_pool_size(2));
        let run = svc
            .submit(
                "t",
                &wf,
                RunOptions::default().with_faults(plan).with_retry(retry),
            )
            .unwrap();
        let report = run.wait();
        let res = report.result.expect("retry salvages the run");
        let stats = res.pool.expect("pooled stats");
        assert!(stats.retries_attempted >= 1);
        assert_eq!(stats.retries_succeeded, 1);
        assert_eq!(handle.len(), 1_000);
    }

    #[test]
    fn shutdown_drains_admitted_and_queued_runs() {
        let handles: Vec<SinkHandle>;
        let runs: Vec<RunHandle>;
        {
            let svc = WorkflowService::new(
                ServiceConfig::default()
                    .with_pool_size(1)
                    .with_max_active_runs(1)
                    .with_queue_capacity(8),
            );
            let mut hs = Vec::new();
            let mut rs = Vec::new();
            for _ in 0..3 {
                let (wf, handle) = chain(500, 1);
                rs.push(svc.submit("t", &wf, RunOptions::default()).unwrap());
                hs.push(handle);
            }
            handles = hs;
            runs = rs;
            // Dropping the service drains everything admitted.
        }
        for (run, handle) in runs.into_iter().zip(handles) {
            assert!(run.is_finished());
            assert!(run.wait().result.is_ok());
            assert_eq!(handle.len(), 250);
        }
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let svc = WorkflowService::new(ServiceConfig::default().with_pool_size(1));
        let shared = Arc::clone(&svc.shared);
        lock(&shared.state).accepting = false;
        let (wf, _h) = chain(10, 1);
        assert!(matches!(
            svc.submit("t", &wf, RunOptions::default()),
            Err(SubmitError::ShuttingDown)
        ));
        // Re-enable so Drop's drain logic exits normally.
        lock(&shared.state).accepting = true;
    }

    #[test]
    fn invalid_fault_plan_is_rejected_up_front() {
        let svc = WorkflowService::new(ServiceConfig::default().with_pool_size(1));
        let (wf, _h) = chain(10, 1);
        let plan = FaultPlan::new(1).panic_at("no-such-operator", 1);
        assert!(matches!(
            svc.submit("t", &wf, RunOptions::default().with_faults(plan)),
            Err(SubmitError::Invalid(_))
        ));
    }
}

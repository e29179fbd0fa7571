//! # scriptflow-workflow
//!
//! The GUI-based workflow paradigm engine — a from-scratch analogue of
//! Texera (§I, Fig. 2 of the paper).
//!
//! A workflow is a directed acyclic graph of **operators** connected by
//! explicit **edges** that carry tuples. The engine provides what the
//! paper measures:
//!
//! * **Explicit data lineage** — edges declare data flow; the DAG is
//!   validated and schemas are propagated at build time
//!   ([`dag::Workflow`]).
//! * **Pipelined execution** — operators process different tuples at the
//!   same time; batches stream along edges without stage barriers
//!   ([`exec_sim::SimExecutor`] on the virtual clock, and
//!   [`exec_live::LiveExecutor`] on real OS threads: a fixed-size worker
//!   pool schedules operator-worker tasks over bounded, backpressured
//!   mailboxes, routing `Arc`-shared batches through per-edge compiled
//!   partitioners).
//! * **Operator-level parallelism** — each operator runs `parallelism`
//!   worker instances with hash/round-robin/broadcast partitioning
//!   ([`partition::PartitionStrategy`]).
//! * **Multi-language operators** — each operator declares its
//!   implementation [`Language`]; the engine charges cross-language
//!   boundary and per-language compute costs (§III-C, Table I).
//! * **Per-operator progress** — input/output tuple counts and
//!   color-coded operator states, rendered as ASCII and JSON "GUI"
//!   documents (Fig. 9; [`gui`]). Both executors emit the same
//!   [`trace::ProgressTrace`] shape: the simulated executor samples the
//!   virtual clock, while the pooled live executor feeds a lock-light
//!   [`trace_live::LiveTracer`] from per-task hooks and samples it on a
//!   wall-clock interval — so [`trace::render_timeline`] and
//!   [`trace::TraceJson`] replay either run identically.
//! * **Accountability under failure** — a seeded [`fault::FaultPlan`]
//!   injects operator panics, killed workers, poisoned mailboxes,
//!   dropped/delayed EOS, and slow edges into the pooled executor; the
//!   pool drains deterministically, pins the fault to one
//!   [`OperatorState::Failed`] operator, marks downstream operators
//!   [`OperatorState::Degraded`] on their truncated input, and preserves
//!   the partial trace ([`exec_live::LiveExecutor::run_observed`]).
//! * **Recovery under failure** — a per-operator [`retry::RetryPolicy`]
//!   (bounded exponential backoff, carried by [`EngineConfig::retry`])
//!   replays a faulted run quantum with its held input batch instead of
//!   failing the operator: tuples are delivered exactly once across
//!   replays, the operator surfaces [`OperatorState::Retrying`] while a
//!   replay is pending, and only an exhausted budget degrades to the
//!   drain path. Both engines model it — the simulator as replayed
//!   virtual quanta — and report attempt counts.
//! * **Many concurrent pipelines on one shared pool** — a process-wide
//!   [`service::WorkflowService`] owns a single fixed worker pool and
//!   admits many concurrent DAG submissions, time-slicing operator
//!   quanta across runs with weighted-fair queueing, per-tenant quotas
//!   and mailbox budgets, a bounded admission queue with explicit
//!   rejection, and per-run fault/retry isolation (one tenant's retry
//!   storm parks on a timer instead of sleeping a shared worker).
//! * **Incremental re-execution** — every node carries a Merkle-style
//!   content fingerprint (spec ⊕ upstream cone;
//!   [`scriptflow_core::fingerprint`]), and an optional
//!   [`cache::ResultCache`] memoizes sealed operator outputs as
//!   compressed block-store segments keyed by fingerprint. With
//!   [`EngineConfig::result_cache`] set, both executors serve cache
//!   hits from their segments and skip the unedited cone upstream —
//!   the workflow paradigm's answer to re-running a whole notebook
//!   after a one-cell edit.
//! * **One execution surface over both engines** — a
//!   [`backend::ExecBackend`] selected from a
//!   [`scriptflow_core::BackendKind`] runs the same built DAG on either
//!   executor; both return the same [`backend::EngineRun`] (rows,
//!   trace, metrics, wall-clock/pool extras), so task drivers and
//!   benches thread a `--backend` flag instead of duplicating executor
//!   construction.
//! * **One counter set** — the data counters every operator box shows
//!   (batches skipped, spill and cache traffic) are one value type,
//!   [`metrics::OpCounters`], carried unchanged from the operator's
//!   [`OutputCollector`] to the trace, the metrics and the run totals.
//!
//! [`Language`]: scriptflow_simcluster::Language

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod cost;
pub mod dag;
pub mod exec_live;
mod exec_reference;
pub mod exec_sim;
pub mod fault;
pub mod gui;
pub mod metrics;
pub mod operator;
pub mod ops;
pub mod partition;
pub mod retry;
pub mod service;
pub mod spec;
pub mod spill;
mod sync;
pub mod trace;
pub mod trace_live;

pub use backend::{EngineRun, ExecBackend};
pub use cache::{
    commit_recordings_as, CacheEntry, CachePlan, CommitStats, PublishOutcome, ResultCache,
};
pub use cost::{CostProfile, EngineConfig};
pub use dag::{EdgeId, OpId, Workflow, WorkflowBuilder};
pub use exec_live::{LiveExecutor, LiveRunResult, PoolStats};
pub use exec_sim::SimExecutor;
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use metrics::{OpCounters, OperatorMetrics, OperatorState, RunMetrics, SchedCounters};
pub use operator::{
    OpDescriptor, Operator, OperatorFactory, OutputCollector, WorkflowError, WorkflowResult,
};
pub use partition::{CompiledPartitioner, PartitionStrategy};
pub use retry::{Backoff, RetryConfig, RetryPolicy};
pub use service::{
    RunHandle, RunOptions, RunReport, RunStatus, ServiceConfig, ServiceStats, SubmitError,
    TenantQuota, TenantStats, WorkflowService,
};
pub use spec::SpecWorkflow;
pub use trace::{render_timeline, OperatorSnapshot, ProgressTrace, TraceJson};
pub use trace_live::{LiveTracer, OperatorProbe};

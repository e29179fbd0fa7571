//! Deterministic fault injection for the pooled live executor.
//!
//! The paper's §III-A argument for the GUI paradigm is accountability
//! under failure: the engine pins a fault to one operator, keeps the
//! rest of the pipeline's progress visible, and the partial trace
//! survives. This module is the harness that *exercises* that claim on
//! [`crate::exec_live::LiveExecutor`]: a seeded [`FaultPlan`] names an
//! operator and a [`FaultKind`], the pooled scheduler consults the
//! compiled plan at well-defined points on its hot path, and the
//! injected failure flows through the normal drain machinery — the
//! faulted operator turns [`crate::OperatorState::Failed`], downstream
//! operators finish [`crate::OperatorState::Degraded`] on the truncated
//! input, every mailbox is drained, every pool thread joins, and
//! [`crate::exec_live::LiveExecutor::run_observed`] hands back the
//! partial trace next to the `Err`.
//!
//! Determinism: triggers are counted with per-operator atomic tuple and
//! batch counters, so with a single pool thread
//! ([`crate::exec_live::LiveExecutor::with_pool_size`]`(1)`) the same
//! plan against the same workflow reproduces the identical failure
//! trace — same faulted operator, same state sequence, same tuple-count
//! cutoffs. With a multi-thread pool the faulted operator and sticky
//! terminal states are still deterministic, but cutoff counts may vary
//! with scheduling (see DESIGN.md, "Fault injection").

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use scriptflow_datakit::{Batch, DataType, Schema, Value};
pub use scriptflow_simcluster::SplitMix64;

use crate::dag::{Workflow, WorkflowBuilder};
use crate::operator::{WorkflowError, WorkflowResult};
use crate::ops::{FilterOp, ScanOp, SinkHandle, SinkOp};
use crate::partition::PartitionStrategy;

/// One way an injected fault can strike an operator.
///
/// Tuple positions are 1-based and cumulative across the operator's
/// workers: `PanicAt { tuple: 25 }` fires when the operator is about to
/// process its 25th tuple (input tuples for consumers, emitted tuples
/// for sources). Batch positions count batches delivered into the
/// operator's mailboxes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker processing the given (1-based) tuple panics — the
    /// capture path must turn the panic into a `Failed` operator instead
    /// of tearing the pool down.
    PanicAt {
        /// Cumulative 1-based tuple position at which to panic.
        tuple: u64,
    },
    /// The worker task is killed mid-quantum at the given (1-based)
    /// tuple: it stops processing, reports failure, and drains.
    KillWorker {
        /// Cumulative 1-based tuple position at which to kill.
        tuple: u64,
    },
    /// The Nth (1-based) batch delivered into the operator's mailboxes
    /// is followed by a poisoned payload; consuming it fails the
    /// operator.
    PoisonMailbox {
        /// 1-based delivered-batch position after which the poison
        /// message lands.
        batch: u64,
    },
    /// The operator's workers finish but never send their end-of-stream
    /// markers — downstream starves until the pool's stall detector
    /// synthesizes the missing EOS and finishes the run degraded.
    DropEos,
    /// Each worker of the operator defers its end-of-stream by this many
    /// run quanta (benign: delays completion, loses nothing).
    DelayEos {
        /// Run quanta to burn before queueing EOS.
        quanta: u32,
    },
    /// Every outgoing batch of the operator pays this much extra latency
    /// (benign: simulates a slow edge, loses nothing).
    SlowEdge {
        /// Added latency per forwarded batch group, in microseconds
        /// (capped at 10 ms by the executor).
        per_batch_micros: u64,
    },
}

impl FaultKind {
    /// Short human-readable description (used by [`FaultPlan::describe`]).
    pub fn describe(&self) -> String {
        match self {
            FaultKind::PanicAt { tuple } => format!("panic at tuple {tuple}"),
            FaultKind::KillWorker { tuple } => format!("kill worker at tuple {tuple}"),
            FaultKind::PoisonMailbox { batch } => format!("poison mailbox after batch {batch}"),
            FaultKind::DropEos => "drop EOS".to_owned(),
            FaultKind::DelayEos { quanta } => format!("delay EOS by {quanta} quanta"),
            FaultKind::SlowEdge { per_batch_micros } => {
                format!("slow edge (+{per_batch_micros}us/batch)")
            }
        }
    }

    /// True for faults that only slow the run down without losing data
    /// (`DelayEos`, `SlowEdge`).
    pub fn is_benign(&self) -> bool {
        matches!(
            self,
            FaultKind::DelayEos { .. } | FaultKind::SlowEdge { .. }
        )
    }
}

/// A [`FaultKind`] aimed at a named operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Operator display name (must exist in the workflow; unknown names
    /// fail the run upfront with [`WorkflowError::InvalidDag`]).
    pub op: String,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A seeded, deterministic set of faults to inject into one pooled run.
///
/// Build one explicitly with the `panic_at`/`kill_worker`/… builders, or
/// derive one from a seed with [`FaultPlan::random`]. Attach it via
/// [`crate::exec_live::LiveExecutor::with_faults`]; the reference
/// interpreter ([`crate::exec_live::LiveExecutor::thread_per_worker`])
/// ignores fault plans (the harness targets the pooled scheduler).
///
/// # Examples
///
/// ```
/// use scriptflow_workflow::fault::FaultPlan;
///
/// let plan = FaultPlan::new(7).panic_at("parse", 25).slow_edge("scan", 50);
/// assert_eq!(plan.faults().len(), 2);
/// assert!(plan.describe().contains("panic at tuple 25"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan carrying `seed` (the seed only matters for plans
    /// built by [`FaultPlan::random`], but is always recorded so runs
    /// can be labelled).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The faults, in the order they were added.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    fn push(mut self, op: impl Into<String>, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec {
            op: op.into(),
            kind,
        });
        self
    }

    /// Panic the worker of `op` at its `tuple`-th (1-based) tuple.
    ///
    /// # Panics
    ///
    /// Panics if `tuple` is zero (positions are 1-based).
    pub fn panic_at(self, op: impl Into<String>, tuple: u64) -> Self {
        assert!(tuple > 0, "tuple positions are 1-based");
        self.push(op, FaultKind::PanicAt { tuple })
    }

    /// Kill the worker task of `op` mid-quantum at its `tuple`-th tuple.
    ///
    /// # Panics
    ///
    /// Panics if `tuple` is zero (positions are 1-based).
    pub fn kill_worker(self, op: impl Into<String>, tuple: u64) -> Self {
        assert!(tuple > 0, "tuple positions are 1-based");
        self.push(op, FaultKind::KillWorker { tuple })
    }

    /// Poison `op`'s mailbox after its `batch`-th delivered batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero (positions are 1-based).
    pub fn poison_mailbox(self, op: impl Into<String>, batch: u64) -> Self {
        assert!(batch > 0, "batch positions are 1-based");
        self.push(op, FaultKind::PoisonMailbox { batch })
    }

    /// Suppress `op`'s end-of-stream markers.
    pub fn drop_eos(self, op: impl Into<String>) -> Self {
        self.push(op, FaultKind::DropEos)
    }

    /// Delay `op`'s end-of-stream by `quanta` run quanta.
    pub fn delay_eos(self, op: impl Into<String>, quanta: u32) -> Self {
        self.push(op, FaultKind::DelayEos { quanta })
    }

    /// Add `per_batch_micros` of latency to every batch `op` forwards.
    pub fn slow_edge(self, op: impl Into<String>, per_batch_micros: u64) -> Self {
        self.push(op, FaultKind::SlowEdge { per_batch_micros })
    }

    /// One human-readable line per fault.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .faults
            .iter()
            .map(|f| format!("{}: {}", f.op, f.kind.describe()))
            .collect();
        format!("seed {} [{}]", self.seed, parts.join("; "))
    }

    /// A single random fault aimed at a random operator, fully determined
    /// by `seed`. `ops` is the pool of candidate operator names (normally
    /// the workflow's operators).
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::fault::FaultPlan;
    ///
    /// let ops = vec!["scan".to_owned(), "sink".to_owned()];
    /// let a = FaultPlan::random(3, &ops);
    /// let b = FaultPlan::random(3, &ops);
    /// assert_eq!(a, b, "same seed, same plan");
    /// ```
    pub fn random(seed: u64, ops: &[String]) -> Self {
        assert!(!ops.is_empty(), "need at least one candidate operator");
        let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let op = ops[rng.range(0..ops.len())].clone();
        let kind = match rng.range(0..6u64) {
            0 => FaultKind::PanicAt {
                tuple: rng.range(1..121u64),
            },
            1 => FaultKind::KillWorker {
                tuple: rng.range(1..121u64),
            },
            2 => FaultKind::PoisonMailbox {
                batch: rng.range(1..7u64),
            },
            3 => FaultKind::DropEos,
            4 => FaultKind::DelayEos {
                quanta: rng.range(1..5u64) as u32,
            },
            _ => FaultKind::SlowEdge {
                per_batch_micros: rng.range(10..200u64),
            },
        };
        FaultPlan::new(seed).push(op, kind)
    }
}

/// A random linear workflow for chaos testing: scan → 1–3 filters →
/// sink, with seeded row count, parallelism, filter moduli, and
/// partition strategies. Linear chains keep the trace invariants
/// checkable (each operator's input is bounded by its upstream's
/// output).
///
/// Returns the workflow, the sink's result handle, and the operator
/// names in topological order (scan first, sink last) — the candidate
/// pool for [`FaultPlan::random`].
///
/// # Examples
///
/// ```
/// use scriptflow_workflow::fault::random_chain;
///
/// let (wf, _handle, names) = random_chain(11);
/// assert_eq!(names.first().map(String::as_str), Some("scan"));
/// assert_eq!(names.last().map(String::as_str), Some("sink"));
/// assert_eq!(wf.ops().len(), names.len());
/// ```
pub fn random_chain(seed: u64) -> (Workflow, SinkHandle, Vec<String>) {
    let mut rng = SplitMix64::new(seed);
    let rows = rng.range(64..1025i64);
    let stages = rng.range(1..4usize);

    let schema = Schema::of(&[("id", DataType::Int)]);
    let batch = Batch::from_rows(schema, (0..rows).map(|i| vec![Value::Int(i)]).collect())
        .expect("schema matches rows");

    let mut b = WorkflowBuilder::new();
    let mut names = Vec::with_capacity(stages + 2);
    let scan_par = rng.range(1..3usize);
    let mut prev = b.add(Arc::new(ScanOp::new("scan", batch)), scan_par);
    names.push("scan".to_owned());
    for s in 0..stages {
        let name = format!("f{s}");
        // Keep all but every k-th id, k in 2..=5 — output strictly
        // bounded by input, never empty for the row counts above.
        let k = rng.range(2..6i64);
        let par = rng.range(1..4usize);
        let filt = b.add(
            Arc::new(FilterOp::new(&name, move |t| Ok(t.get_int("id")? % k != 0))),
            par,
        );
        let strategy = if rng.range(0..2u64) == 0 {
            PartitionStrategy::RoundRobin
        } else {
            PartitionStrategy::Hash(vec!["id".into()])
        };
        b.connect(prev, filt, 0, strategy);
        names.push(name);
        prev = filt;
    }
    let sink_op = SinkOp::new("sink");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);
    b.connect(prev, sink, 0, PartitionStrategy::Single);
    names.push("sink".to_owned());
    (b.build().expect("chain DAG is valid"), handle, names)
}

// ---------------------------------------------------------------------------
// Compiled plan (executor-facing)
// ---------------------------------------------------------------------------

/// What a tuple-counted trigger does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TupleAction {
    /// Panic the worker (exercises the panic-capture path).
    Panic,
    /// Kill the task without panicking (clean mid-quantum abort).
    Kill,
}

/// A fired tuple trigger: process `keep` tuples of the current span
/// normally, then take `action`; `at` is the absolute 1-based position
/// (for the error message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TupleTrigger {
    pub(crate) keep: u64,
    pub(crate) at: u64,
    pub(crate) action: TupleAction,
}

/// Per-operator compiled fault state. Trigger bookkeeping is atomic so
/// concurrent workers of one operator fire each fault exactly once.
#[derive(Debug, Default)]
struct OpFaults {
    tuple_at: Option<(u64, TupleAction)>,
    tuple_seen: AtomicU64,
    poison_at: Option<u64>,
    batches_delivered: AtomicU64,
    drop_eos: bool,
    eos_drop_reported: AtomicBool,
    delay_eos: u32,
    slow_edge: Option<Duration>,
}

/// A [`FaultPlan`] resolved against one workflow: operator names mapped
/// to indices, triggers armed. Built once per run by the pooled
/// executor.
#[derive(Debug)]
pub(crate) struct CompiledFaults {
    ops: Vec<OpFaults>,
    triggered: AtomicU64,
}

/// Cap on injected per-batch latency, so a hostile plan cannot wedge a
/// run for minutes.
const SLOW_EDGE_CAP: Duration = Duration::from_millis(10);

impl CompiledFaults {
    /// Resolve `plan` against the workflow's operator list. An unknown
    /// operator name is a plan bug and fails the run upfront. Later
    /// specs of the same kind for the same operator overwrite earlier
    /// ones.
    pub(crate) fn compile(plan: &FaultPlan, wf: &Workflow) -> WorkflowResult<CompiledFaults> {
        let mut ops: Vec<OpFaults> = wf.ops().iter().map(|_| OpFaults::default()).collect();
        let mut benign_armed = 0u64;
        for spec in plan.faults() {
            let idx = wf
                .ops()
                .iter()
                .position(|n| n.desc().name == spec.op)
                .ok_or_else(|| {
                    WorkflowError::InvalidDag(format!(
                        "fault plan names unknown operator `{}`",
                        spec.op
                    ))
                })?;
            let slot = &mut ops[idx];
            match spec.kind {
                FaultKind::PanicAt { tuple } => slot.tuple_at = Some((tuple, TupleAction::Panic)),
                FaultKind::KillWorker { tuple } => slot.tuple_at = Some((tuple, TupleAction::Kill)),
                FaultKind::PoisonMailbox { batch } => slot.poison_at = Some(batch),
                FaultKind::DropEos => slot.drop_eos = true,
                FaultKind::DelayEos { quanta } => {
                    slot.delay_eos = quanta;
                    benign_armed += 1;
                }
                FaultKind::SlowEdge { per_batch_micros } => {
                    slot.slow_edge =
                        Some(Duration::from_micros(per_batch_micros).min(SLOW_EDGE_CAP));
                    benign_armed += 1;
                }
            }
        }
        // Benign faults fire unconditionally (every batch / every
        // completion), so they count as injected from the start; the
        // lossy kinds only count when their trigger actually lands.
        Ok(CompiledFaults {
            ops,
            triggered: AtomicU64::new(benign_armed),
        })
    }

    /// Count `n` tuples about to be processed by `op`. If the armed
    /// tuple trigger falls inside this span, returns how many of the `n`
    /// tuples to process first and the action to take. The atomic
    /// `fetch_add` partitions the tuple stream across workers, so
    /// exactly one caller sees the trigger.
    pub(crate) fn check_tuples(&self, op: usize, n: u64) -> Option<TupleTrigger> {
        let f = &self.ops[op];
        let (at, action) = f.tuple_at?;
        if n == 0 {
            return None;
        }
        let prev = f.tuple_seen.fetch_add(n, Ordering::AcqRel);
        if prev < at && at <= prev + n {
            self.triggered.fetch_add(1, Ordering::Relaxed);
            Some(TupleTrigger {
                keep: at - prev - 1,
                at,
                action,
            })
        } else {
            None
        }
    }

    /// Count one batch delivered into `op`'s mailboxes; true exactly
    /// when this is the armed poison position.
    pub(crate) fn check_poison(&self, op: usize) -> bool {
        let f = &self.ops[op];
        match f.poison_at {
            Some(at) => {
                let fired = f.batches_delivered.fetch_add(1, Ordering::AcqRel) + 1 == at;
                if fired {
                    self.triggered.fetch_add(1, Ordering::Relaxed);
                }
                fired
            }
            None => false,
        }
    }

    /// True if `op`'s EOS markers are suppressed by the plan.
    pub(crate) fn drops_eos(&self, op: usize) -> bool {
        self.ops[op].drop_eos
    }

    /// First call per operator returns true (the drop is recorded as a
    /// failure once, however many workers suppress their EOS).
    pub(crate) fn report_eos_drop(&self, op: usize) -> bool {
        let first = !self.ops[op].eos_drop_reported.swap(true, Ordering::AcqRel);
        if first {
            self.triggered.fetch_add(1, Ordering::Relaxed);
        }
        first
    }

    /// Run quanta each worker of `op` must burn before sending EOS.
    pub(crate) fn eos_delay(&self, op: usize) -> u32 {
        self.ops[op].delay_eos
    }

    /// Injected latency per forwarded batch group of `op`, if any.
    pub(crate) fn slow_edge(&self, op: usize) -> Option<Duration> {
        self.ops[op].slow_edge
    }

    /// Faults that actually fired during the run.
    pub(crate) fn triggered(&self) -> u64 {
        self.triggered.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_accumulate_in_order() {
        let plan = FaultPlan::new(9)
            .panic_at("a", 5)
            .drop_eos("b")
            .slow_edge("c", 100);
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.faults().len(), 3);
        assert_eq!(plan.faults()[0].op, "a");
        assert_eq!(plan.faults()[1].kind, FaultKind::DropEos);
        assert!(plan.faults()[2].kind.is_benign());
        assert!(!plan.faults()[0].kind.is_benign());
    }

    #[test]
    fn random_plan_is_seed_deterministic() {
        let ops: Vec<String> = ["scan", "f0", "sink"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for seed in 0..64 {
            assert_eq!(FaultPlan::random(seed, &ops), FaultPlan::random(seed, &ops));
        }
        // Different seeds eventually produce different plans.
        let distinct = (0..64)
            .map(|s| format!("{:?}", FaultPlan::random(s, &ops)))
            .collect::<std::collections::HashSet<_>>();
        assert!(
            distinct.len() > 10,
            "only {} distinct plans",
            distinct.len()
        );
    }

    #[test]
    fn compile_rejects_unknown_operator() {
        let (wf, _h, _names) = random_chain(0);
        let plan = FaultPlan::new(0).panic_at("nonexistent", 1);
        let err = CompiledFaults::compile(&plan, &wf).unwrap_err();
        assert!(err.to_string().contains("nonexistent"), "{err}");
    }

    #[test]
    fn tuple_trigger_fires_exactly_once_with_correct_offset() {
        let (wf, _h, _names) = random_chain(0);
        let plan = FaultPlan::new(0).kill_worker("scan", 10);
        let f = CompiledFaults::compile(&plan, &wf).unwrap();
        // Batches of 4: trigger lands in the third batch, after 1 tuple.
        assert_eq!(f.check_tuples(0, 4), None);
        assert_eq!(f.check_tuples(0, 4), None);
        assert_eq!(
            f.check_tuples(0, 4),
            Some(TupleTrigger {
                keep: 1,
                at: 10,
                action: TupleAction::Kill
            })
        );
        assert_eq!(f.check_tuples(0, 4), None);
        assert_eq!(f.triggered(), 1);
        // Other operators are unaffected.
        assert_eq!(f.check_tuples(1, 100), None);
    }

    #[test]
    fn poison_counts_delivered_batches() {
        let (wf, _h, _names) = random_chain(0);
        let plan = FaultPlan::new(0).poison_mailbox("sink", 2);
        let f = CompiledFaults::compile(&plan, &wf).unwrap();
        let sink = wf.ops().len() - 1;
        assert!(!f.check_poison(sink));
        assert!(f.check_poison(sink));
        assert!(!f.check_poison(sink));
        assert!(!f.check_poison(0), "unarmed operator never poisons");
    }

    #[test]
    fn eos_drop_reports_once() {
        let (wf, _h, _names) = random_chain(0);
        let plan = FaultPlan::new(0).drop_eos("scan");
        let f = CompiledFaults::compile(&plan, &wf).unwrap();
        assert!(f.drops_eos(0));
        assert!(!f.drops_eos(1));
        assert!(f.report_eos_drop(0));
        assert!(!f.report_eos_drop(0));
    }

    #[test]
    fn slow_edge_latency_is_capped() {
        let (wf, _h, _names) = random_chain(0);
        let plan = FaultPlan::new(0).slow_edge("scan", 60_000_000);
        let f = CompiledFaults::compile(&plan, &wf).unwrap();
        assert_eq!(f.slow_edge(0), Some(SLOW_EDGE_CAP));
        assert_eq!(f.slow_edge(1), None);
    }

    #[test]
    fn random_chain_is_seed_deterministic() {
        for seed in [0u64, 1, 17, 999] {
            let (wf_a, _ha, names_a) = random_chain(seed);
            let (wf_b, _hb, names_b) = random_chain(seed);
            assert_eq!(names_a, names_b);
            assert_eq!(wf_a.ops().len(), wf_b.ops().len());
            for (a, b) in wf_a.ops().iter().zip(wf_b.ops()) {
                assert_eq!(a.parallelism, b.parallelism);
            }
        }
    }
}

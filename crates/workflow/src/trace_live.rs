//! Live observability: the lock-light event tracer behind the pooled
//! executor's per-operator progress display.
//!
//! The paper's GUI-paradigm claim (§III-A) is that the workflow engine
//! "utilizes different colors to visually represent the status of each
//! operator … and provides information about the amount of data being
//! processed". [`crate::exec_sim::SimExecutor`] reproduces that display
//! on the virtual clock; this module gives the pooled
//! [`crate::exec_live::LiveExecutor`] the same power on wall-clock time.
//!
//! A [`LiveTracer`] is a vector of per-operator [`OperatorProbe`]s —
//! plain atomics written from the executor's per-task hooks (tuple
//! arrival, tuple emission, run-quantum completion, backpressure stall,
//! mailbox push/pop, worker completion, failure). No hook takes a lock,
//! so tracing adds a handful of relaxed atomic adds to the hot path. A
//! sampler thread calls [`LiveTracer::snapshot`] on a wall-clock
//! interval, producing the exact [`ProgressTrace`]/[`OperatorSnapshot`]
//! shape the simulated executor emits — so [`crate::gui`] and
//! [`crate::trace::render_timeline`] replay live and simulated runs
//! identically.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use scriptflow_simcluster::{SimDuration, SimTime};

use crate::metrics::{
    AtomicOpCounters, AtomicSchedCounters, OpCounters, OperatorMetrics, OperatorState,
    SchedCounters,
};
use crate::trace::{OperatorSnapshot, ProgressTrace};

/// Monotone `u8` encoding of [`OperatorState`] for lock-free state
/// transitions: states only ever move to a higher code, and `fetch_max`
/// makes the failure states sticky even when a concurrent worker reports
/// completion — `Retrying` outranks `Running` (the badge stays visible
/// until a terminal state clears it), `Degraded` outranks `Completed`
/// (a clean finish cannot mask truncated input) and `Failed` outranks
/// everything. (`Paused` is unreachable in live runs — the pooled
/// executor has no pause control — but keeps the codes aligned with the
/// enum for exhaustiveness.)
fn state_code(state: OperatorState) -> u8 {
    match state {
        OperatorState::Initializing => 0,
        OperatorState::Running => 1,
        OperatorState::Paused => 2,
        OperatorState::Retrying => 3,
        OperatorState::Completed => 4,
        OperatorState::Degraded => 5,
        OperatorState::Failed => 6,
    }
}

fn code_state(code: u8) -> OperatorState {
    match code {
        0 => OperatorState::Initializing,
        1 => OperatorState::Running,
        2 => OperatorState::Paused,
        3 => OperatorState::Retrying,
        4 => OperatorState::Completed,
        5 => OperatorState::Degraded,
        _ => OperatorState::Failed,
    }
}

/// Lock-free per-operator counters, written by pool threads through
/// relaxed atomics and read by the sampler thread.
///
/// One probe aggregates every worker of one operator: the lifecycle
/// state, the Fig.-9 tuple counters, the data and scheduler counter
/// families, summed busy time across workers, and the combined depth of
/// the workers' input mailboxes.
///
/// # Examples
///
/// ```
/// use scriptflow_workflow::trace_live::LiveTracer;
/// use scriptflow_workflow::OperatorState;
///
/// let tracer = LiveTracer::new(vec!["scan".to_owned()], &[2]);
/// tracer.on_output(0, 10);
/// let probe = tracer.probe(0);
/// assert_eq!(probe.output_tuples(), 10);
/// assert_eq!(probe.state(), OperatorState::Running);
/// ```
#[derive(Debug)]
pub struct OperatorProbe {
    name: String,
    state: AtomicU8,
    input_tuples: AtomicU64,
    output_tuples: AtomicU64,
    counters: AtomicOpCounters,
    sched: AtomicSchedCounters,
    busy_nanos: AtomicU64,
    mailbox_depth: AtomicUsize,
    peak_mailbox_depth: AtomicUsize,
    workers_remaining: AtomicUsize,
}

impl OperatorProbe {
    fn new(name: String, workers: usize) -> Self {
        OperatorProbe {
            name,
            state: AtomicU8::new(state_code(OperatorState::Initializing)),
            input_tuples: AtomicU64::new(0),
            output_tuples: AtomicU64::new(0),
            counters: AtomicOpCounters::default(),
            sched: AtomicSchedCounters::default(),
            busy_nanos: AtomicU64::new(0),
            mailbox_depth: AtomicUsize::new(0),
            peak_mailbox_depth: AtomicUsize::new(0),
            workers_remaining: AtomicUsize::new(workers),
        }
    }

    /// Operator display name.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["sink".to_owned()], &[1]);
    /// assert_eq!(tracer.probe(0).name(), "sink");
    /// ```
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current lifecycle state.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// use scriptflow_workflow::OperatorState;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// assert_eq!(tracer.probe(0).state(), OperatorState::Initializing);
    /// ```
    pub fn state(&self) -> OperatorState {
        code_state(self.state.load(Ordering::Acquire))
    }

    /// Tuples received across all workers so far.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_input(0, 7);
    /// assert_eq!(tracer.probe(0).input_tuples(), 7);
    /// ```
    pub fn input_tuples(&self) -> u64 {
        self.input_tuples.load(Ordering::Relaxed)
    }

    /// Tuples emitted across all workers so far.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_output(0, 3);
    /// assert_eq!(tracer.probe(0).output_tuples(), 3);
    /// ```
    pub fn output_tuples(&self) -> u64 {
        self.output_tuples.load(Ordering::Relaxed)
    }

    /// The operator's data counters so far: everything the executor
    /// drained from its workers' [`crate::OutputCollector`]s through
    /// [`LiveTracer::add_counters`].
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// use scriptflow_workflow::OpCounters;
    /// let tracer = LiveTracer::new(vec!["join".to_owned()], &[1]);
    /// let spilled = OpCounters { spilled_blocks: 2, spilled_bytes: 512, ..OpCounters::default() };
    /// tracer.add_counters(0, &spilled);
    /// assert_eq!(tracer.probe(0).counters(), spilled);
    /// ```
    pub fn counters(&self) -> OpCounters {
        self.counters.load()
    }

    /// Summed busy (run-quantum) time across this operator's workers.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_busy(0, Duration::from_millis(2));
    /// assert!(tracer.probe(0).busy().as_secs_f64() >= 0.002);
    /// ```
    pub fn busy(&self) -> SimDuration {
        SimDuration::from_micros(self.busy_nanos.load(Ordering::Relaxed) / 1_000)
    }

    /// The operator's scheduler counters so far: quanta, deliveries,
    /// stalls and retries, each counted where the pool does it.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_stall(0);
    /// tracer.on_retrying(0);
    /// let sched = tracer.probe(0).sched();
    /// assert_eq!((sched.backpressure_stalls, sched.retries_attempted), (1, 1));
    /// ```
    pub fn sched(&self) -> SchedCounters {
        self.sched.load()
    }

    /// Messages currently queued across this operator's worker mailboxes.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_mailbox_push(0);
    /// assert_eq!(tracer.probe(0).mailbox_depth(), 1);
    /// tracer.on_mailbox_pop(0);
    /// assert_eq!(tracer.probe(0).mailbox_depth(), 0);
    /// ```
    pub fn mailbox_depth(&self) -> usize {
        self.mailbox_depth.load(Ordering::Relaxed)
    }

    /// High-water mark of [`OperatorProbe::mailbox_depth`] over the run.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_mailbox_push(0);
    /// tracer.on_mailbox_pop(0);
    /// assert_eq!(tracer.probe(0).peak_mailbox_depth(), 1);
    /// ```
    pub fn peak_mailbox_depth(&self) -> usize {
        self.peak_mailbox_depth.load(Ordering::Relaxed)
    }

    /// One point-in-time [`OperatorSnapshot`] of this probe.
    fn snapshot(&self) -> OperatorSnapshot {
        OperatorSnapshot {
            name: self.name.clone(),
            state: self.state(),
            input_tuples: self.input_tuples(),
            output_tuples: self.output_tuples(),
            counters: self.counters(),
        }
    }

    /// Monotone state promotion (see [`state_code`]).
    fn promote(&self, to: OperatorState) {
        self.state.fetch_max(state_code(to), Ordering::AcqRel);
    }
}

/// The live event tracer: one [`OperatorProbe`] per operator plus the
/// wall-clock epoch snapshots are timed against.
///
/// Hooks are safe to call from any pool thread concurrently; sampling
/// never blocks a hook. Timestamps are wall-clock time since
/// [`LiveTracer::new`], expressed as [`SimTime`] micros so live traces
/// drop into every consumer built for simulated traces
/// ([`crate::trace::render_timeline`], [`crate::trace::TraceJson`],
/// [`crate::gui`]).
///
/// # Examples
///
/// ```
/// use scriptflow_workflow::trace_live::LiveTracer;
/// use scriptflow_workflow::OperatorState;
///
/// let tracer = LiveTracer::new(
///     vec!["scan".to_owned(), "sink".to_owned()],
///     &[1, 1],
/// );
/// tracer.on_output(0, 5);
/// tracer.on_input(1, 5);
/// tracer.on_worker_done(0);
/// tracer.on_worker_done(1);
///
/// let (at, snaps) = tracer.snapshot();
/// assert_eq!(snaps.len(), 2);
/// assert_eq!(snaps[0].output_tuples, 5);
/// assert_eq!(snaps[1].state, OperatorState::Completed);
/// assert!(at.as_micros() < 1_000_000, "snapshot is stamped with elapsed time");
/// ```
#[derive(Debug)]
pub struct LiveTracer {
    started: Instant,
    probes: Vec<OperatorProbe>,
}

impl LiveTracer {
    /// A tracer for operators named `names`, where operator `i` runs
    /// `workers[i]` parallel workers. Every operator starts
    /// [`OperatorState::Initializing`].
    ///
    /// # Panics
    ///
    /// Panics if `names` and `workers` disagree in length.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["a".to_owned(), "b".to_owned()], &[2, 1]);
    /// assert_eq!(tracer.operator_count(), 2);
    /// ```
    pub fn new(names: Vec<String>, workers: &[usize]) -> Self {
        assert_eq!(names.len(), workers.len(), "one worker count per operator");
        LiveTracer {
            started: Instant::now(),
            probes: names
                .into_iter()
                .zip(workers)
                .map(|(n, &w)| OperatorProbe::new(n, w))
                .collect(),
        }
    }

    /// A tracer for the operators `ops` describes, each probe starting
    /// from that operator's initial counters — how the cache markers
    /// [`OperatorMetrics::for_workflow`] primes reach live snapshots.
    pub(crate) fn primed(ops: &[OperatorMetrics]) -> Self {
        let workers: Vec<usize> = ops.iter().map(|m| m.workers).collect();
        let tracer = LiveTracer::new(ops.iter().map(|m| m.name.clone()).collect(), &workers);
        for (op, m) in ops.iter().enumerate() {
            tracer.add_counters(op, &m.counters);
        }
        tracer
    }

    /// Number of traced operators.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["only".to_owned()], &[4]);
    /// assert_eq!(tracer.operator_count(), 1);
    /// ```
    pub fn operator_count(&self) -> usize {
        self.probes.len()
    }

    /// The probe of operator `op`.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["x".to_owned()], &[1]);
    /// assert_eq!(tracer.probe(0).input_tuples(), 0);
    /// ```
    pub fn probe(&self, op: usize) -> &OperatorProbe {
        &self.probes[op]
    }

    /// Hook: `n` tuples arrived at a worker of `op`. Promotes the
    /// operator to [`OperatorState::Running`].
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// use scriptflow_workflow::OperatorState;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_input(0, 2);
    /// assert_eq!(tracer.probe(0).state(), OperatorState::Running);
    /// ```
    pub fn on_input(&self, op: usize, n: u64) {
        self.probes[op].input_tuples.fetch_add(n, Ordering::Relaxed);
        self.probes[op].promote(OperatorState::Running);
    }

    /// Hook: a worker of `op` emitted `n` tuples. Promotes the operator
    /// to [`OperatorState::Running`] (sources never receive input, so
    /// this is their only Running transition).
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// use scriptflow_workflow::OperatorState;
    /// let tracer = LiveTracer::new(vec!["source".to_owned()], &[1]);
    /// tracer.on_output(0, 8);
    /// assert_eq!(tracer.probe(0).state(), OperatorState::Running);
    /// ```
    pub fn on_output(&self, op: usize, n: u64) {
        self.probes[op]
            .output_tuples
            .fetch_add(n, Ordering::Relaxed);
        self.probes[op].promote(OperatorState::Running);
    }

    /// Hook: a worker of `op` spent `elapsed` inside a run quantum.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_busy(0, Duration::from_micros(500));
    /// tracer.on_busy(0, Duration::from_micros(500));
    /// assert_eq!(tracer.probe(0).busy().as_micros(), 1_000);
    /// ```
    pub fn on_busy(&self, op: usize, elapsed: Duration) {
        let nanos = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.probes[op]
            .busy_nanos
            .fetch_add(nanos, Ordering::Relaxed);
    }

    /// Hook: a worker of `op` finished a processing step having counted
    /// `counters` (the executor drains its [`crate::OutputCollector`]
    /// here after each successful step; a faulted step's counters are
    /// discarded instead). Most steps count nothing and return early.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// use scriptflow_workflow::OpCounters;
    /// let tracer = LiveTracer::new(vec!["filter".to_owned()], &[1]);
    /// let skipped = OpCounters { batches_skipped: 2, ..OpCounters::default() };
    /// tracer.add_counters(0, &skipped);
    /// tracer.add_counters(0, &skipped);
    /// assert_eq!(tracer.probe(0).counters().batches_skipped, 4);
    /// ```
    pub fn add_counters(&self, op: usize, counters: &OpCounters) {
        if counters.is_zero() {
            return;
        }
        self.probes[op].counters.add(counters);
    }

    /// Hook: a producer found a mailbox of `op` full and yielded.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_stall(0);
    /// tracer.on_stall(0);
    /// assert_eq!(tracer.probe(0).sched().backpressure_stalls, 2);
    /// ```
    pub fn on_stall(&self, op: usize) {
        self.count(op, |s| &s.backpressure_stalls);
    }

    /// Hook: one scheduler event of `op`, counted in the
    /// [`SchedCounters`] field `event` picks.
    pub(crate) fn count(&self, op: usize, event: impl FnOnce(&AtomicSchedCounters) -> &AtomicU64) {
        event(&self.probes[op].sched).fetch_add(1, Ordering::Relaxed);
    }

    /// Hook: a message entered a mailbox of `op`.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_mailbox_push(0);
    /// assert_eq!(tracer.probe(0).mailbox_depth(), 1);
    /// ```
    pub fn on_mailbox_push(&self, op: usize) {
        let probe = &self.probes[op];
        let depth = probe.mailbox_depth.fetch_add(1, Ordering::Relaxed) + 1;
        probe.peak_mailbox_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Hook: a message left a mailbox of `op`.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_mailbox_push(0);
    /// tracer.on_mailbox_pop(0);
    /// assert_eq!(tracer.probe(0).mailbox_depth(), 0);
    /// ```
    pub fn on_mailbox_pop(&self, op: usize) {
        self.probes[op]
            .mailbox_depth
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Hook: one worker of `op` finished. When the last worker finishes
    /// the operator is promoted to [`OperatorState::Completed`] (unless
    /// it already [`OperatorState::Failed`] — failure is sticky).
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// use scriptflow_workflow::OperatorState;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[2]);
    /// tracer.on_worker_done(0);
    /// assert_ne!(tracer.probe(0).state(), OperatorState::Completed);
    /// tracer.on_worker_done(0);
    /// assert_eq!(tracer.probe(0).state(), OperatorState::Completed);
    /// ```
    pub fn on_worker_done(&self, op: usize) {
        let probe = &self.probes[op];
        if probe.workers_remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            probe.promote(OperatorState::Completed);
        }
    }

    /// Hook: a worker of `op` faulted but holds retry budget — its run
    /// quantum is being replayed. Counts the retry and promotes the operator to [`OperatorState::Retrying`], which stays
    /// visible (it outranks `Running`) until a terminal state clears it:
    /// a successful replay ends in `Completed`, an exhausted budget in
    /// `Failed`.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// use scriptflow_workflow::OperatorState;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_retrying(0);
    /// assert_eq!(tracer.probe(0).state(), OperatorState::Retrying);
    /// tracer.on_worker_done(0); // the replay finished the operator
    /// assert_eq!(tracer.probe(0).state(), OperatorState::Completed);
    /// ```
    pub fn on_retrying(&self, op: usize) {
        self.count(op, |s| &s.retries_attempted);
        self.probes[op].promote(OperatorState::Retrying);
    }

    /// Hook: a worker of `op` raised an error. The operator moves to
    /// [`OperatorState::Failed`] and stays there.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// use scriptflow_workflow::OperatorState;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_failed(0);
    /// tracer.on_worker_done(0); // completion after failure cannot mask it
    /// assert_eq!(tracer.probe(0).state(), OperatorState::Failed);
    /// ```
    pub fn on_failed(&self, op: usize) {
        self.probes[op].promote(OperatorState::Failed);
    }

    /// Hook: `op`'s input was truncated by an upstream failure (the
    /// executor's drain path sends EOS on behalf of a failed producer).
    /// The operator finishes [`OperatorState::Degraded`] instead of
    /// `Completed` — partial output, surfaced as such. A direct failure
    /// of the operator itself still outranks this (`Failed` is stickier).
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// use scriptflow_workflow::OperatorState;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_degraded(0);
    /// tracer.on_worker_done(0); // completion cannot mask the truncation
    /// assert_eq!(tracer.probe(0).state(), OperatorState::Degraded);
    /// ```
    pub fn on_degraded(&self, op: usize) {
        self.probes[op].promote(OperatorState::Degraded);
    }

    /// The run's data counters so far: the sum over all operators.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// use scriptflow_workflow::OpCounters;
    /// let tracer = LiveTracer::new(vec!["a".to_owned(), "b".to_owned()], &[1, 1]);
    /// let one = OpCounters { spill_reads: 1, ..OpCounters::default() };
    /// tracer.add_counters(0, &one);
    /// tracer.add_counters(1, &one);
    /// assert_eq!(tracer.totals().spill_reads, 2);
    /// ```
    pub fn totals(&self) -> OpCounters {
        self.probes.iter().map(OperatorProbe::counters).sum()
    }

    /// Peak combined mailbox depth observed at any single operator.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["a".to_owned(), "b".to_owned()], &[1, 1]);
    /// tracer.on_mailbox_push(1);
    /// assert_eq!(tracer.peak_mailbox_depth(), 1);
    /// ```
    pub fn peak_mailbox_depth(&self) -> usize {
        self.probes
            .iter()
            .map(OperatorProbe::peak_mailbox_depth)
            .max()
            .unwrap_or(0)
    }

    /// Wall-clock time since the tracer was created, as [`SimTime`].
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// let t = tracer.elapsed();
    /// assert!(t.as_micros() < 60_000_000, "fresh tracer: {t}");
    /// ```
    pub fn elapsed(&self) -> SimTime {
        let us = self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        SimTime::from_micros(us)
    }

    /// One sample: the current instant plus a snapshot of every
    /// operator, in operator-id order — exactly one row of a
    /// [`ProgressTrace`].
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// let (_, snaps) = tracer.snapshot();
    /// assert_eq!(snaps.len(), 1);
    /// assert_eq!(snaps[0].name, "op");
    /// ```
    pub fn snapshot(&self) -> (SimTime, Vec<OperatorSnapshot>) {
        (
            self.elapsed(),
            self.probes.iter().map(OperatorProbe::snapshot).collect(),
        )
    }

    /// Assemble a [`ProgressTrace`] from collected samples, appending
    /// one final snapshot so the trace always ends with terminal
    /// states and final counts (mirroring the simulated executor, which
    /// samples once more at the makespan).
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace_live::LiveTracer;
    /// let tracer = LiveTracer::new(vec!["op".to_owned()], &[1]);
    /// tracer.on_worker_done(0);
    /// let trace = tracer.finish(vec![]);
    /// assert_eq!(trace.len(), 1); // the appended final sample
    /// ```
    pub fn finish(&self, mut samples: Vec<(SimTime, Vec<OperatorSnapshot>)>) -> ProgressTrace {
        samples.push(self.snapshot());
        ProgressTrace { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> LiveTracer {
        LiveTracer::new(vec!["scan".into(), "sink".into()], &[2, 1])
    }

    #[test]
    fn counters_accumulate_across_hooks() {
        let t = tracer();
        t.on_output(0, 10);
        t.on_output(0, 5);
        t.on_input(1, 15);
        assert_eq!(t.probe(0).output_tuples(), 15);
        assert_eq!(t.probe(1).input_tuples(), 15);
        assert_eq!(t.probe(0).input_tuples(), 0);
    }

    #[test]
    fn lifecycle_is_monotone_and_failure_sticky() {
        let t = tracer();
        assert_eq!(t.probe(0).state(), OperatorState::Initializing);
        t.on_output(0, 1);
        assert_eq!(t.probe(0).state(), OperatorState::Running);
        t.on_failed(0);
        t.on_worker_done(0);
        t.on_worker_done(0);
        assert_eq!(t.probe(0).state(), OperatorState::Failed);
        // The other operator completes normally.
        t.on_worker_done(1);
        assert_eq!(t.probe(1).state(), OperatorState::Completed);
    }

    #[test]
    fn degraded_is_sticky_over_completed_but_yields_to_failed() {
        let t = tracer();
        t.on_degraded(0);
        t.on_worker_done(0);
        t.on_worker_done(0);
        assert_eq!(t.probe(0).state(), OperatorState::Degraded);
        // A direct failure of the same operator outranks degradation.
        t.on_failed(0);
        t.on_degraded(0);
        assert_eq!(t.probe(0).state(), OperatorState::Failed);
    }

    #[test]
    fn retrying_outranks_running_but_yields_to_terminal_states() {
        let t = tracer();
        t.on_input(0, 1);
        t.on_retrying(0);
        assert_eq!(t.probe(0).state(), OperatorState::Retrying);
        // A later Running promotion cannot demote the Retrying badge.
        t.on_input(0, 1);
        assert_eq!(t.probe(0).state(), OperatorState::Retrying);
        // A successful replay completes the operator.
        t.on_worker_done(0);
        t.on_worker_done(0);
        assert_eq!(t.probe(0).state(), OperatorState::Completed);
        // Terminal failure on the other operator outranks Retrying.
        t.on_retrying(1);
        t.on_failed(1);
        assert_eq!(t.probe(1).state(), OperatorState::Failed);
    }

    #[test]
    fn attempt_counters_track_retries() {
        let t = tracer();
        assert!(t.probe(0).sched().is_zero());
        t.on_retrying(0);
        t.on_retrying(0);
        t.on_retrying(1);
        t.on_stall(1);
        t.count(0, |s| &s.quanta);
        let scan = t.probe(0).sched();
        assert_eq!((scan.retries_attempted, scan.quanta), (2, 1));
        assert_eq!(scan.backpressure_stalls, 0, "a stall is the full mailbox's");
        let sink = t.probe(1).sched();
        assert_eq!((sink.retries_attempted, sink.backpressure_stalls), (1, 1));
    }

    #[test]
    fn counters_accumulate_total_and_reach_snapshots() {
        let t = tracer();
        let step = |batches_skipped, spilled_blocks, spilled_bytes, spill_reads| OpCounters {
            batches_skipped,
            spilled_blocks,
            spilled_bytes,
            spill_reads,
            ..OpCounters::default()
        };
        t.add_counters(0, &step(2, 2, 128, 1));
        t.add_counters(0, &step(1, 1, 64, 2));
        t.add_counters(1, &step(4, 0, 0, 0));
        t.add_counters(1, &OpCounters::default()); // no-op fast path
        assert_eq!(t.probe(0).counters(), step(3, 3, 192, 3));
        assert_eq!(t.probe(1).counters(), step(4, 0, 0, 0));
        assert_eq!(t.totals(), step(7, 3, 192, 3));
        let (_, snaps) = t.snapshot();
        assert_eq!(snaps[0].counters, step(3, 3, 192, 3));
        assert_eq!(snaps[1].counters.spilled_blocks, 0);
    }

    #[test]
    fn primed_tracer_starts_from_the_initial_counters() {
        let mut served = OperatorMetrics::new("served", scriptflow_simcluster::Language::Python, 1);
        served.counters.cache_hits = 1;
        served.counters.cache_bytes = 77;
        let t = LiveTracer::primed(&[served.clone()]);
        assert_eq!(t.probe(0).name(), "served");
        let (_, snaps) = t.snapshot();
        assert_eq!(snaps[0].counters, served.counters);
    }

    #[test]
    fn mailbox_depth_tracks_peak() {
        let t = tracer();
        t.on_mailbox_push(1);
        t.on_mailbox_push(1);
        t.on_mailbox_pop(1);
        t.on_mailbox_push(1);
        assert_eq!(t.probe(1).mailbox_depth(), 2);
        assert_eq!(t.probe(1).peak_mailbox_depth(), 2);
        assert_eq!(t.peak_mailbox_depth(), 2);
    }

    #[test]
    fn finish_appends_terminal_sample() {
        let t = tracer();
        t.on_output(0, 4);
        let mid = t.snapshot();
        t.on_worker_done(0);
        t.on_worker_done(0);
        t.on_worker_done(1);
        let trace = t.finish(vec![mid]);
        assert_eq!(trace.len(), 2);
        let (_, last) = trace.samples.last().unwrap();
        assert!(last.iter().all(|s| s.state == OperatorState::Completed));
        assert_eq!(last[0].output_tuples, 4);
    }

    #[test]
    fn snapshot_times_are_monotone() {
        let t = tracer();
        let (a, _) = t.snapshot();
        let (b, _) = t.snapshot();
        assert!(b >= a);
    }
}

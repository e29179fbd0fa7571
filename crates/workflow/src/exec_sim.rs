//! Pipelined discrete-event executor.
//!
//! This is the core of the workflow paradigm reproduction: operators run
//! as parallel workers placed on cluster machines, batches stream along
//! edges the moment they are produced (no stage barriers), and every
//! boundary crossing pays serialization / network / cross-language costs
//! from the calibrated model. The **data transforms really execute** —
//! outputs are bit-identical to the live threaded executor — while time
//! advances on the virtual clock, so experiment results are deterministic
//! and laptop-fast regardless of the modelled cluster size.
//!
//! The data plane is the pooled engine's (`dataplane.rs`): the
//! blocking-port gate and EOS count, the router, source dealing and the
//! operator call. What is this executor's own is *when* they run: the
//! virtual clock and service durations, placement, channel clocks,
//! pauses and sampling, the pipelining-off stage flush, and retry as a
//! re-delivered virtual quantum. Its flush policy is one delivery per
//! filled buffer at the end of each serviced item. It does not step the
//! pool itself: the pool carves output into `batch_size` batches, so a
//! blocking operator's output would leave as many items instead of one,
//! and the per-batch charges — the virtual times — would move.

use std::collections::VecDeque;

use scriptflow_core::BackendKind;
use scriptflow_datakit::{ColumnarBatch, Tuple};
use scriptflow_simcluster::des::{self, Scheduler, SimModel};
use scriptflow_simcluster::{Language, SimDuration, SimTime};

use crate::backend::EngineRun;
use crate::cache::CacheRecording;
use crate::cost::EngineConfig;
use crate::dag::{OpId, Workflow};
use crate::dataplane::{self, call_operator, EdgeOut, InputPorts, Router};
use crate::metrics::{OperatorMetrics, OperatorState, RunMetrics};
use crate::operator::{Emitted, Operator, OutputCollector, WorkflowError, WorkflowResult};
use crate::retry::RetryBudget;
use crate::trace::{OperatorSnapshot, ProgressTrace};

/// Global worker index across all operators.
type WorkerId = usize;

/// Queue/serviced items at a worker.
enum Item {
    /// Data tuples arriving on an input port.
    Batch { port: usize, tuples: Vec<Tuple> },
    /// A faulted quantum's batch, re-delivered under a retry budget
    /// (see [`crate::retry`]): serviced like a fresh batch — the replay
    /// is a real virtual quantum — but its tuples were already counted
    /// as input when the quantum first ran.
    Retry { port: usize, tuples: Vec<Tuple> },
    /// End-of-stream marker from one upstream worker on a port.
    Eos { port: usize },
    /// A chunk of a source operator's own data.
    Source { tuples: Vec<Tuple> },
    /// Source exhausted.
    SourceDone,
}

/// DES events.
enum Ev {
    /// An item arrives at a worker's input queue.
    Deliver { worker: WorkerId, item: Item },
    /// A worker finishes servicing its current item.
    Finish { worker: WorkerId },
    /// A worker finishes the spill I/O its last quantum incurred (block
    /// writes past the memory budget, partition read-backs). The worker
    /// stays busy until released; never scheduled when nothing spills,
    /// so unbounded runs replay the pre-spill event sequence exactly.
    Release { worker: WorkerId },
}

/// One contiguous busy interval of a worker (for Gantt rendering and
/// utilization analysis). Only recorded when
/// [`SimExecutor::with_worker_timeline`] is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerInterval {
    /// The operator.
    pub op: OpId,
    /// Worker index within the operator.
    pub worker: usize,
    /// Service start.
    pub start: SimTime,
    /// Service end.
    pub end: SimTime,
}

/// Per-worker runtime state.
struct WorkerState {
    op: OpId,
    local_idx: usize,
    machine: usize,
    queue: VecDeque<Item>,
    /// EOS counts, closed ports and the items gated behind a blocking
    /// port — the pool's rule ([`InputPorts`]).
    ports: InputPorts<Item>,
    busy: bool,
    current: Option<Item>,
    started: bool,
    /// The worker's EOS went out (or its operator's stage flushed).
    finished: bool,
    busy_time: SimDuration,
    /// Tuples this worker has serviced (drives warm-up accounting).
    processed: u64,
    /// The operator's retry budget, resolved once at placement.
    retry: RetryBudget,
    /// The pool's router: each serviced item's output lands here and is
    /// shipped in full before the next item starts.
    router: Router,
    /// Monotone last-delivery time per (out-edge, consumer worker):
    /// guarantees EOS never overtakes data on a channel.
    channel_clock: Vec<Vec<SimTime>>,
}

struct SimState<'a> {
    wf: &'a Workflow,
    cfg: &'a EngineConfig,
    workers: Vec<WorkerState>,
    instances: Vec<Box<dyn Operator>>,
    /// Worker ids per operator.
    op_workers: Vec<Vec<WorkerId>>,
    /// Per operator, its out-edges: the pool's routing table, whose
    /// destination ids are this executor's worker ids.
    edges: &'a [Vec<EdgeOut>],
    /// Staging when pipelining is off: per operator, out-edge and
    /// consumer worker, the chunks in the order they were produced. They
    /// flush only when the producing operator fully completes.
    stages: Vec<Vec<Vec<Vec<Vec<Tuple>>>>>,
    /// Remaining unfinished workers per op (drives stage flush + state).
    op_remaining: Vec<usize>,
    metrics: Vec<OperatorMetrics>,
    /// Per operator, where the output it routes is teed for the result
    /// cache. `None` for a source too: its partitions are recorded where
    /// they are produced, at seeding.
    recording: Vec<Option<&'a CacheRecording>>,
    /// Malleable workers per machine (for effective-CPU division).
    malleable_per_machine: Vec<usize>,
    error: Option<WorkflowError>,
    sinks_remaining: usize,
    finish_time: SimTime,
    /// User-requested pause windows `(start, end)`, sorted, disjoint.
    pauses: Vec<(SimTime, SimTime)>,
    trace: ProgressTrace,
    next_sample: Option<SimTime>,
    sample_interval: SimDuration,
    record_timeline: bool,
    timeline: Vec<WorkerInterval>,
}

impl<'a> SimState<'a> {
    /// If `now` falls inside a pause window, the time the engine may
    /// start new work again; otherwise `now` itself.
    fn pause_adjusted(&self, now: SimTime) -> SimTime {
        for (start, end) in &self.pauses {
            if now >= *start && now < *end {
                return *end;
            }
        }
        now
    }

    /// Record trace samples for every interval boundary up to `now`.
    fn maybe_sample(&mut self, now: SimTime) {
        let Some(mut next) = self.next_sample else {
            return;
        };
        while now >= next {
            let paused = self.pauses.iter().any(|(s, e)| next >= *s && next < *e);
            let snaps: Vec<OperatorSnapshot> = self
                .metrics
                .iter()
                .map(|m| OperatorSnapshot {
                    name: m.name.clone(),
                    state: if paused && m.state == OperatorState::Running {
                        OperatorState::Paused
                    } else {
                        m.state
                    },
                    input_tuples: m.input_tuples,
                    output_tuples: m.output_tuples,
                    counters: m.counters,
                })
                .collect();
            self.trace.samples.push((next, snaps));
            next += self.sample_interval;
        }
        self.next_sample = Some(next);
    }

    fn service_duration(&self, worker: WorkerId, item: &Item) -> SimDuration {
        let w = &self.workers[worker];
        let desc = self.wf.op(w.op).desc();
        let (cost, lang) = (&desc.cost, desc.language);
        let n = match item {
            Item::Batch { tuples, .. } | Item::Retry { tuples, .. } | Item::Source { tuples } => {
                tuples.len() as u64
            }
            Item::Eos { .. } | Item::SourceDone => 0,
        };
        let per_tuple = match item {
            Item::Batch { port, .. } | Item::Retry { port, .. } => cost.per_tuple_on(*port),
            _ => cost.per_tuple,
        };
        let mut per_tuple_total = per_tuple * n;
        if cost.malleable {
            let machine = &self.cfg.cluster.workers[w.machine];
            let sharers = self.malleable_per_machine[w.machine].max(1);
            let cpus = (machine.vcpus / sharers).max(1);
            let effective = (cpus as f64).powf(cost.malleable_utilization).max(1.0);
            per_tuple_total = per_tuple_total.scale(1.0 / effective);
        }
        if let Item::Batch { port, .. } = item {
            if *port == cost.warmup_port && cost.warmup_tuples > w.processed {
                let warm = (cost.warmup_tuples - w.processed).min(n);
                per_tuple_total += cost.warmup_extra * warm;
            }
        }
        if self.cfg.columnar && matches!(item, Item::Batch { .. }) {
            // Columnar batches run the operators' monomorphic column
            // kernels; the calibrated discount is the fraction of the
            // row-path per-tuple work that survives. Replays are exempt:
            // a faulted quantum is re-serviced on the row path.
            per_tuple_total = per_tuple_total.scale(self.cfg.columnar_discount);
        }
        let mut dur = self
            .cfg
            .languages
            .compute(lang, cost.per_batch + per_tuple_total);
        if matches!(item, Item::Batch { .. } | Item::Retry { .. }) {
            // Deserializing inbound tuples is real per-tuple work on the
            // consumer (§III-D runtime overhead) — it limits throughput,
            // unlike the wire delay charged at delivery time. A retried
            // quantum pays it again: the replay is fully re-serviced.
            dur += self.cfg.languages.serde(lang, self.cfg.serde_per_tuple * n);
        }
        if !w.started {
            dur += self.cfg.languages.compute(lang, cost.setup);
            if lang != Language::Scala {
                // Non-native operators boot their own runtime process;
                // Scala operators run inside the (already warm) engine.
                dur += self.cfg.languages.profile(lang).startup;
            }
        }
        dur
    }

    /// Transfer + serde delay for a chunk of `bytes` crossing from one
    /// worker to another.
    fn edge_delay(&self, from: WorkerId, to: WorkerId, bytes: usize) -> SimDuration {
        let (from, to) = (&self.workers[from], &self.workers[to]);
        let from_lang = self.wf.op(from.op).desc().language;
        let to_lang = self.wf.op(to.op).desc().language;
        let serde = self
            .cfg
            .languages
            .serde(from_lang, self.cfg.serde_cost(bytes));
        let boundary = self.cfg.languages.boundary(from_lang, to_lang, bytes);
        let wire = if from.machine == to.machine {
            self.cfg.cluster.network.local_copy(bytes)
        } else {
            self.cfg.cluster.network.transfer(bytes)
        };
        serde + boundary + wire
    }

    fn try_start(&mut self, worker: WorkerId, sched: &mut Scheduler<Ev>) {
        if self.error.is_some() || self.workers[worker].busy {
            return;
        }
        // Pull the next item the gate admits, released gated items
        // first; the ports keep the ones still gated.
        let w = &mut self.workers[worker];
        let item = loop {
            let Some(item) = w.ports.take_released().or_else(|| w.queue.pop_front()) else {
                return;
            };
            let admitted = match item {
                Item::Batch { port, .. } | Item::Eos { port } => w.ports.admit(port, item),
                other => Some(other),
            };
            if let Some(item) = admitted {
                break item;
            }
        };
        let desc = self.wf.op(self.workers[worker].op).desc();
        let dur = self.service_duration(worker, &item);
        // `processed` tracks warm-up-port tuples only.
        let warmup_port = desc.cost.warmup_port;
        let n_tuples = match &item {
            Item::Batch { port, tuples } if *port == warmup_port => tuples.len() as u64,
            _ => 0,
        };
        // A user-requested pause defers new work to the resume point
        // (in-flight services complete normally).
        let start = self.pause_adjusted(sched.now());
        if self.record_timeline {
            self.timeline.push(WorkerInterval {
                op: self.workers[worker].op,
                worker: self.workers[worker].local_idx,
                start,
                end: start + dur,
            });
        }
        let w = &mut self.workers[worker];
        w.busy = true;
        w.started = true;
        w.busy_time += dur;
        w.processed += n_tuples;
        w.current = Some(item);
        if self.metrics[w.op.0].state == OperatorState::Initializing {
            self.metrics[w.op.0].state = OperatorState::Running;
        }
        sched.schedule_at(start + dur, Ev::Finish { worker });
    }

    /// Schedule `item`'s arrival at worker `to_local` of out-edge `d` of
    /// `from`'s operator, behind everything sent on that channel before.
    fn deliver(
        &mut self,
        now: SimTime,
        from: WorkerId,
        d: usize,
        to_local: usize,
        item: Item,
        sched: &mut Scheduler<Ev>,
    ) {
        let to = self.edges[self.workers[from].op.0][d].dests[to_local];
        let bytes = match &item {
            Item::Batch { tuples, .. } => tuples.iter().map(Tuple::encoded_len).sum(),
            _ => 0,
        };
        let delay = self.edge_delay(from, to, bytes);
        let clock = &mut self.workers[from].channel_clock[d][to_local];
        let at = (now + delay).max(*clock);
        *clock = at;
        sched.schedule_at(at, Ev::Deliver { worker: to, item });
    }

    /// Route `outputs` produced by `from` ([`Router::route`]) and ship
    /// every buffer it filled at once, edge-major, destination-minor: a
    /// broadcast's one buffer to every consumer worker. With pipelining
    /// off the chunks are staged instead.
    fn forward(
        &mut self,
        now: SimTime,
        from: WorkerId,
        outputs: Vec<Tuple>,
        sched: &mut Scheduler<Ev>,
    ) -> WorkflowResult<()> {
        let op = self.workers[from].op.0;
        let edges = &self.edges[op];
        self.workers[from].router.route(edges, outputs)?;
        for (d, edge) in edges.iter().enumerate() {
            for b in 0..edge.buffers() {
                let mut rows = std::mem::take(&mut self.workers[from].router.bufs[d][b]);
                if rows.is_empty() {
                    continue;
                }
                let targets = edge.targets(b);
                for to_local in targets.clone() {
                    let tuples = if to_local + 1 < targets.end {
                        rows.clone()
                    } else {
                        std::mem::take(&mut rows)
                    };
                    if self.cfg.pipelining {
                        let item = Item::Batch {
                            port: edge.to_port,
                            tuples,
                        };
                        self.deliver(now, from, d, to_local, item, sched);
                    } else {
                        self.stages[op][d][to_local].push(tuples);
                    }
                }
            }
        }
        Ok(())
    }

    /// A worker finished all its work: send EOS downstream (or flush the
    /// stage when pipelining is off and this was the op's last worker).
    fn worker_complete(&mut self, now: SimTime, worker: WorkerId, sched: &mut Scheduler<Ev>) {
        if self.workers[worker].finished {
            return;
        }
        self.workers[worker].finished = true;
        let op = self.workers[worker].op;
        if self.workers[worker].retry.retried() {
            // Reaching completion at all means every replay the budget
            // paid for eventually serviced cleanly.
            self.metrics[op.0].sched.retries_succeeded += 1;
        }
        self.op_remaining[op.0] -= 1;
        let op_done = self.op_remaining[op.0] == 0;
        let edges = &self.edges[op.0];
        if op_done {
            if self.metrics[op.0].state != OperatorState::Failed {
                self.metrics[op.0].state = OperatorState::Completed;
            }
            if edges.is_empty() {
                // A sink operator finished.
                self.sinks_remaining -= 1;
                self.finish_time = self.finish_time.max(now);
            }
        }

        if self.cfg.pipelining {
            for (d, edge) in edges.iter().enumerate() {
                for to_local in 0..edge.dests.len() {
                    let eos = Item::Eos { port: edge.to_port };
                    self.deliver(now, worker, d, to_local, eos, sched);
                }
            }
        } else if op_done {
            // Flush everything this op staged, then the EOS markers (one
            // per producing worker, keeping the EOS count uniform).
            let producers = self.op_workers[op.0].clone();
            for (d, edge) in edges.iter().enumerate() {
                for to_local in 0..edge.dests.len() {
                    let chunks = std::mem::take(&mut self.stages[op.0][d][to_local]);
                    for tuples in chunks {
                        let port = edge.to_port;
                        self.deliver(
                            now,
                            worker,
                            d,
                            to_local,
                            Item::Batch { port, tuples },
                            sched,
                        );
                    }
                    for &p in &producers {
                        let eos = Item::Eos { port: edge.to_port };
                        self.deliver(now, p, d, to_local, eos, sched);
                    }
                }
            }
        }
    }

    /// A worker came free: complete it if every port closed and nothing
    /// is queued, otherwise start its next item.
    fn complete_or_start(&mut self, now: SimTime, worker: WorkerId, sched: &mut Scheduler<Ev>) {
        let w = &self.workers[worker];
        if w.ports.drained() && w.queue.is_empty() {
            self.worker_complete(now, worker, sched);
        } else {
            self.try_start(worker, sched);
        }
    }

    fn fail(&mut self, op: OpId, err: WorkflowError) {
        self.metrics[op.0].state = OperatorState::Failed;
        if self.error.is_none() {
            self.error = Some(err);
        }
    }
}

impl<'a> SimModel for SimState<'a> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        self.maybe_sample(now);
        if self.error.is_some() {
            return;
        }
        match event {
            Ev::Deliver { worker, item } => {
                self.workers[worker].queue.push_back(item);
                self.try_start(worker, sched);
            }
            Ev::Finish { worker } => {
                let item = self.workers[worker]
                    .current
                    .take()
                    .expect("finish without a serviced item");
                self.workers[worker].busy = false;
                let op = self.workers[worker].op;
                let mut outputs: Vec<Tuple> = Vec::new();
                let mut collector = OutputCollector::new();
                let is_replay = matches!(item, Item::Retry { .. });
                match item {
                    Item::Source { tuples } => {
                        self.metrics[op.0].output_tuples += tuples.len() as u64;
                        outputs = tuples;
                    }
                    Item::Batch { port, tuples } | Item::Retry { port, tuples } => {
                        if !is_replay {
                            // A replay's tuples were counted when the
                            // quantum first serviced them.
                            self.metrics[op.0].input_tuples += tuples.len() as u64;
                        }
                        // Cloned only while the budget allows a(nother)
                        // replay, so a disabled policy (the default)
                        // leaves the hot path allocation-free.
                        let backup = if self.workers[worker].retry.left() {
                            tuples.clone()
                        } else {
                            Vec::new()
                        };
                        let input = if self.cfg.columnar && !is_replay && !tuples.is_empty() {
                            // Columnar path: seal the delivered rows once
                            // for the operator's column kernel (zone-map
                            // skip, monomorphic loop). On a fault the
                            // partial output is discarded and the replay
                            // below re-services the same rows on the row
                            // path.
                            let schema = tuples[0].schema().clone();
                            Emitted::Columnar(ColumnarBatch::from_tuples(schema, &tuples))
                        } else {
                            Emitted::Rows(tuples)
                        };
                        let inst = &mut *self.instances[worker];
                        if let Err(e) = call_operator(inst, port, input, &mut collector) {
                            if let Some(delay) = self.workers[worker].retry.spend() {
                                // Model the retry as a replayed virtual
                                // quantum: the backoff elapses on the
                                // virtual clock, then the same batch is
                                // re-delivered and re-serviced in full.
                                // Partial output from the faulted run is
                                // discarded (the collector dies here), so
                                // delivery stays exactly-once.
                                self.metrics[op.0].sched.retries_attempted += 1;
                                self.metrics[op.0].state = OperatorState::Retrying;
                                let micros = u64::try_from(delay.as_micros()).unwrap_or(u64::MAX);
                                sched.schedule_at(
                                    now + SimDuration::from_micros(micros),
                                    Ev::Deliver {
                                        worker,
                                        item: Item::Retry {
                                            port,
                                            tuples: backup,
                                        },
                                    },
                                );
                                return;
                            }
                            self.fail(op, e);
                            return;
                        }
                        outputs = collector.take();
                        self.metrics[op.0].output_tuples += outputs.len() as u64;
                    }
                    Item::Eos { port } => {
                        // A close that opens the gate releases the gated
                        // items ahead of anything queued later.
                        if self.workers[worker].ports.eos(port) {
                            let inst = &mut self.instances[worker];
                            if let Err(e) = inst.on_port_complete(port, &mut collector) {
                                self.fail(op, e);
                                return;
                            }
                            outputs = collector.take();
                            self.metrics[op.0].output_tuples += outputs.len() as u64;
                        }
                    }
                    // A source has no ports: this only ends its queue.
                    Item::SourceDone => {}
                }
                // The one place an operator's output leaves it: record it
                // for the cache here, route it below. (A faulted quantum
                // returned above, dropping its collector with it.)
                if let Some(recording) = self.recording[op.0] {
                    recording.tee(Emitted::Rows(outputs.clone()));
                }
                // What the quantum counted (a faulted quantum's counters
                // died with its collector). Spill I/O is then charged as
                // calibrated per-block time: the worker stays busy
                // through the charge and its outputs depart only once
                // the blocks are durable, so spilling shows up as real
                // virtual latency. `delta` is zero whenever no budget is
                // set, keeping unbounded runs event-for-event identical.
                let counted = collector.take_counters();
                let delta = if counted.is_zero() {
                    SimDuration::ZERO
                } else {
                    self.metrics[op.0].counters += counted;
                    self.cfg.spill_write_per_block * counted.spilled_blocks
                        + self.cfg.spill_read_per_block * counted.spill_reads
                };
                if delta > SimDuration::ZERO {
                    let w = &mut self.workers[worker];
                    w.busy = true;
                    w.busy_time += delta;
                    if self.record_timeline {
                        self.timeline.push(WorkerInterval {
                            op,
                            worker: self.workers[worker].local_idx,
                            start: now,
                            end: now + delta,
                        });
                    }
                    if !outputs.is_empty() {
                        if let Err(e) = self.forward(now + delta, worker, outputs, sched) {
                            self.fail(op, e);
                            return;
                        }
                    }
                    sched.schedule_at(now + delta, Ev::Release { worker });
                    return;
                }
                if !outputs.is_empty() {
                    if let Err(e) = self.forward(now, worker, outputs, sched) {
                        self.fail(op, e);
                        return;
                    }
                }
                self.complete_or_start(now, worker, sched);
            }
            Ev::Release { worker } => {
                self.workers[worker].busy = false;
                self.complete_or_start(now, worker, sched);
            }
        }
    }
}

/// The simulated-time workflow executor.
pub struct SimExecutor {
    config: EngineConfig,
    pauses: Vec<(SimTime, SimTime)>,
    trace_interval: Option<SimDuration>,
    record_timeline: bool,
}

impl SimExecutor {
    /// An executor over the given engine configuration.
    pub fn new(config: EngineConfig) -> Self {
        SimExecutor {
            config,
            pauses: Vec::new(),
            trace_interval: None,
            record_timeline: false,
        }
    }

    /// Record every worker's busy intervals into the result's
    /// [`EngineRun::worker_timeline`] (Gantt data).
    pub fn with_worker_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Access the configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Pause the execution at virtual time `at` for `duration` (the GUI's
    /// pause/resume buttons). In-flight work completes; no new work
    /// starts until the resume point. Windows must not overlap.
    pub fn with_pause(mut self, at: SimTime, duration: SimDuration) -> Self {
        self.pauses.push((at, at + duration));
        self.pauses.sort_unstable();
        for w in self.pauses.windows(2) {
            assert!(w[0].1 <= w[1].0, "pause windows must not overlap");
        }
        self
    }

    /// Sample per-operator progress every `interval` of virtual time into
    /// the result's [`ProgressTrace`].
    pub fn with_trace(mut self, interval: SimDuration) -> Self {
        assert!(
            interval > SimDuration::ZERO,
            "trace interval must be positive"
        );
        self.trace_interval = Some(interval);
        self
    }

    /// Execute `wf` to completion; returns the makespan and metrics, or
    /// the first operator-level error.
    pub fn run(&self, wf: &Workflow) -> WorkflowResult<EngineRun> {
        self.run_observed(wf).1
    }

    /// Execute `wf`, returning the progress trace alongside the result.
    ///
    /// Unlike [`SimExecutor::run`] — whose trace travels inside
    /// [`EngineRun`] and is therefore lost on `Err` — this always
    /// hands the trace back, so a failed run can still be replayed to
    /// see which operator reached
    /// [`crate::metrics::OperatorState::Failed`]. The trace always ends
    /// with a terminal sample of every operator's final state, even
    /// without [`SimExecutor::with_trace`]; this mirrors
    /// [`crate::exec_live::LiveExecutor::run_observed`], so the two
    /// executors present one observable surface.
    ///
    /// With [`EngineConfig::result_cache`] set, the workflow is first
    /// re-planned against the cache ([`crate::cache::prepare`]): hits
    /// are served from sealed segments (charged
    /// [`EngineConfig::cache_read_per_block`] per decoded block),
    /// unedited upstream cones are skipped, and on clean completion —
    /// no retries spent — the run's recorded outputs are published back.
    pub fn run_observed(&self, wf: &Workflow) -> (ProgressTrace, WorkflowResult<EngineRun>) {
        let Some(cache) = self.config.result_cache.clone() else {
            return self.run_observed_inner(wf, &[]);
        };
        let plan = crate::cache::prepare(wf, &cache, self.config.cache_read_per_block);
        let (mut trace, mut result) = self.run_observed_inner(&plan.wf, &plan.recordings);
        if let Ok(run) = &mut result {
            // Publish only a clean run, as the live engine does.
            if run.metrics.sched_totals().retries_attempted == 0 {
                crate::cache::commit_recordings(&plan.recordings, &cache).apply_to(run, &mut trace);
            }
        }
        (trace, result)
    }

    /// Run `wf` as it is, teeing the nodes `recordings` marks.
    fn run_observed_inner(
        &self,
        wf: &Workflow,
        recordings: &[CacheRecording],
    ) -> (ProgressTrace, WorkflowResult<EngineRun>) {
        let machine_count = self.config.cluster.worker_count().max(1);
        let edges = dataplane::out_edges(wf);

        // --- Static placement -------------------------------------------
        let mut workers: Vec<WorkerState> = Vec::new();
        let mut op_workers: Vec<Vec<WorkerId>> = Vec::new();
        let mut global = 0usize;
        for (i, node) in wf.ops().iter().enumerate() {
            let mut ids = Vec::with_capacity(node.parallelism);
            let colocate = node.desc().cost.colocate;
            for local in 0..node.parallelism {
                let machine = if colocate {
                    i % machine_count
                } else {
                    global % machine_count
                };
                workers.push(WorkerState {
                    op: OpId(i),
                    local_idx: local,
                    machine,
                    queue: VecDeque::new(),
                    ports: InputPorts::new(wf, OpId(i)),
                    busy: false,
                    current: None,
                    started: false,
                    finished: false,
                    busy_time: SimDuration::ZERO,
                    processed: 0,
                    retry: RetryBudget::new(self.config.retry.policy),
                    router: Router::new(&edges[i]),
                    channel_clock: (edges[i].iter())
                        .map(|e| vec![SimTime::ZERO; e.dests.len()])
                        .collect(),
                });
                ids.push(global);
                global += 1;
            }
            op_workers.push(ids);
        }

        let mut malleable_per_machine = vec![0usize; machine_count];
        for w in &workers {
            if wf.op(w.op).desc().cost.malleable {
                malleable_per_machine[w.machine] += 1;
            }
        }

        let mut instances: Vec<Box<dyn Operator>> = workers
            .iter()
            .map(|w| wf.op(w.op).factory.create())
            .collect();
        for inst in &mut instances {
            // Engine-level budget; operators with a fixed per-op
            // override ignore it.
            inst.set_memory_budget(self.config.memory_budget);
        }

        let stages = (edges.iter())
            .map(|out| {
                out.iter()
                    .map(|e| vec![Vec::new(); e.dests.len()])
                    .collect()
            })
            .collect();

        let mut metrics = OperatorMetrics::for_workflow(wf);
        crate::cache::prime_misses(recordings, &mut metrics);
        let mut recording = vec![None; wf.ops().len()];
        for r in recordings {
            if wf.op(r.op).desc().input_ports > 0 {
                recording[r.op.0] = Some(r);
            }
        }

        let op_remaining: Vec<usize> = wf.ops().iter().map(|n| n.parallelism).collect();

        let mut state = SimState {
            wf,
            cfg: &self.config,
            workers,
            instances,
            op_workers,
            edges: &edges,
            stages,
            op_remaining,
            metrics,
            recording,
            malleable_per_machine,
            error: None,
            sinks_remaining: wf.sinks().len(),
            finish_time: SimTime::ZERO,
            pauses: self.pauses.clone(),
            trace: ProgressTrace::default(),
            next_sample: self.trace_interval.map(|_| SimTime::ZERO),
            sample_interval: self.trace_interval.unwrap_or(SimDuration::from_secs(1)),
            record_timeline: self.record_timeline,
            timeline: Vec::new(),
        };

        // --- Seed sources -------------------------------------------------
        let mut sched: Scheduler<Ev> = Scheduler::new();
        let t0 = SimTime::ZERO + self.config.cluster.submit_overhead;
        for src in wf.sources() {
            // A source is dealt, and recorded, here.
            let recording = recordings.iter().find(|r| r.op == src);
            let dealt = dataplane::seed_rows(wf.op(src), recording, self.config.batch_size.max(1));
            for (&worker, chunks) in state.op_workers[src.0].iter().zip(dealt) {
                for tuples in chunks {
                    let item = Item::Source { tuples };
                    sched.schedule_at(t0, Ev::Deliver { worker, item });
                }
                sched.schedule_at(
                    t0,
                    Ev::Deliver {
                        worker,
                        item: Item::SourceDone,
                    },
                );
            }
        }

        let end = des::run(&mut state, &mut sched);
        // One final sample at the makespan, so traces always end with
        // every operator's terminal state — even without `with_trace`.
        state.next_sample = Some(end);
        state.maybe_sample(end);
        if let Some(err) = state.error {
            return (std::mem::take(&mut state.trace), Err(err));
        }
        debug_assert_eq!(state.sinks_remaining, 0, "sinks never completed");
        let makespan = state.finish_time.max(end);
        let total_workers = state.workers.len();
        let mut operators = state.metrics;
        for (i, m) in operators.iter_mut().enumerate() {
            m.busy = state
                .op_workers
                .get(i)
                .map(|ids| {
                    ids.iter().fold(SimDuration::ZERO, |acc, &w| {
                        acc + state.workers[w].busy_time
                    })
                })
                .unwrap_or(SimDuration::ZERO);
        }
        let trace = state.trace;
        (
            trace.clone(),
            Ok(EngineRun {
                kind: BackendKind::Sim,
                rows: Vec::new(),
                elapsed: std::time::Duration::ZERO,
                metrics: RunMetrics {
                    makespan,
                    operators,
                    total_workers,
                    events: sched.processed(),
                },
                trace,
                pool: None,
                cache_published: 0,
                worker_timeline: state.timeline,
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::WorkflowBuilder;
    use crate::ops::{AggFn, AggregateOp, FilterOp, HashJoinOp, ScanOp, SinkOp};
    use crate::partition::PartitionStrategy;
    use scriptflow_datakit::{Batch, DataType, Schema, Value};
    use scriptflow_simcluster::ClusterSpec;
    use std::sync::Arc;

    fn int_batch(n: i64) -> Batch {
        let schema = Schema::of(&[("id", DataType::Int)]);
        Batch::from_rows(schema, (0..n).map(|i| vec![Value::Int(i)]).collect()).unwrap()
    }

    fn kv_batch(pairs: &[(i64, &str)]) -> Batch {
        let schema = Schema::of(&[("k", DataType::Int), ("tag", DataType::Str)]);
        Batch::from_rows(
            schema,
            pairs
                .iter()
                .map(|(k, t)| vec![Value::Int(*k), Value::Str((*t).into())])
                .collect(),
        )
        .unwrap()
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            cluster: ClusterSpec::single_node(4),
            batch_size: 8,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn linear_pipeline_filters() {
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(100))), 2);
        let filt = b.add(
            Arc::new(FilterOp::new("even", |t| Ok(t.get_int("id")? % 2 == 0))),
            3,
        );
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(scan, filt, 0, PartitionStrategy::RoundRobin);
        b.connect(filt, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();

        let res = SimExecutor::new(cfg()).run(&wf).unwrap();
        assert_eq!(handle.len(), 50);
        assert!(res.makespan() > SimTime::ZERO);
        let m = res.metrics.by_name("even").unwrap();
        assert_eq!(m.input_tuples, 100);
        assert_eq!(m.output_tuples, 50);
        assert_eq!(m.state, OperatorState::Completed);
        assert_eq!(res.metrics.total_workers, 6);
    }

    #[test]
    fn aggregate_over_partitions() {
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(60))), 2);
        // Group by id % 3 — computed via a UDF-free trick: aggregate on the
        // raw id with a hash partition is enough to test group routing; use
        // count of all rows in a single group instead.
        let agg = b.add(
            Arc::new(AggregateOp::new(
                "count",
                &[],
                vec![AggFn::Count("n".into())],
            )),
            1,
        );
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(scan, agg, 0, PartitionStrategy::Single);
        b.connect(agg, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        SimExecutor::new(cfg()).run(&wf).unwrap();
        let rows = handle.results();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get_int("n").unwrap(), 60);
    }

    #[test]
    fn operator_error_is_reported_at_operator_level() {
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(10))), 1);
        let bad = b.add(
            Arc::new(FilterOp::new("exploder", |t| {
                if t.get_int("id")? == 7 {
                    Err(scriptflow_datakit::DataError::Decode {
                        line: 0,
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
        let err = SimExecutor::new(cfg()).run(&wf).unwrap_err();
        assert!(err.to_string().contains("exploder"), "{err}");
    }

    #[test]
    fn retry_replays_transient_fault_and_completes() {
        use crate::retry::{RetryConfig, RetryPolicy};
        use std::sync::atomic::{AtomicU64, Ordering};
        let run = |max_attempts: u32| {
            let calls = Arc::new(AtomicU64::new(0));
            let seen = calls.clone();
            let mut b = WorkflowBuilder::new();
            let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(40))), 1);
            let flaky = b.add(
                Arc::new(FilterOp::new("flaky", move |t| {
                    // Exactly one transient fault: the 20th tuple ever
                    // serviced errors once; the replay (fresh counts)
                    // passes, so a single retry salvages the run.
                    let _ = t.get_int("id")?;
                    if seen.fetch_add(1, Ordering::SeqCst) + 1 == 20 {
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
            let mut config = cfg();
            config.retry = RetryConfig::uniform(RetryPolicy::attempts(max_attempts));
            (SimExecutor::new(config).run(&wf), handle)
        };

        // No budget: the transient decode error is sticky-fatal.
        let (res, _) = run(0);
        let err = res.unwrap_err();
        assert!(err.to_string().contains("flaky"), "{err}");

        // One replay salvages every row exactly once.
        let (res, handle) = run(3);
        let res = res.unwrap();
        assert_eq!(handle.len(), 40, "retry must not lose or duplicate rows");
        let m = res.metrics.by_name("flaky").unwrap();
        assert_eq!(
            (m.sched.retries_attempted, m.sched.retries_succeeded),
            (1, 1)
        );
        assert_eq!(m.state, OperatorState::Completed);
        assert_eq!(m.input_tuples, 40, "replayed tuples must not be recounted");
    }

    #[test]
    fn retry_budget_exhaustion_still_fails() {
        use crate::retry::{RetryConfig, RetryPolicy};
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(10))), 1);
        let bad = b.add(
            Arc::new(FilterOp::new("stuck", |t| {
                if t.get_int("id")? == 7 {
                    Err(scriptflow_datakit::DataError::Decode {
                        line: 0,
                        message: "persistent".into(),
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
        let mut config = cfg();
        config.retry = RetryConfig::uniform(RetryPolicy::attempts(2));
        // A deterministic fault fails every replay: the budget drains and
        // the operator degrades to the ordinary failure path.
        let err = SimExecutor::new(config).run(&wf).unwrap_err();
        assert!(err.to_string().contains("stuck"), "{err}");
    }

    #[test]
    fn columnar_engine_matches_row_engine_and_prunes_batches() {
        use scriptflow_datakit::CmpOp;
        let run = |columnar: bool| {
            let mut b = WorkflowBuilder::new();
            let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(400))), 1);
            // Ascending ids + a top-of-range predicate: almost every
            // batch's zone map excludes the literal.
            let filt = b.add(
                Arc::new(FilterOp::cmp("sel", "id", CmpOp::Ge, Value::Int(390))),
                1,
            );
            let sink_op = SinkOp::new("sink");
            let handle = sink_op.handle();
            let sink = b.add(Arc::new(sink_op), 1);
            b.connect(scan, filt, 0, PartitionStrategy::RoundRobin);
            b.connect(filt, sink, 0, PartitionStrategy::Single);
            let wf = b.build().unwrap();
            let mut config = cfg();
            config.columnar = columnar;
            let res = SimExecutor::new(config).run(&wf).unwrap();
            let mut rows: Vec<String> = handle.results().iter().map(|t| t.to_string()).collect();
            rows.sort();
            (rows, res)
        };
        let (rows_row, res_row) = run(false);
        let (rows_col, res_col) = run(true);
        assert_eq!(rows_row.len(), 10);
        assert_eq!(
            rows_row, rows_col,
            "both batch modes must emit identical rows"
        );
        assert_eq!(
            res_row
                .metrics
                .by_name("sel")
                .unwrap()
                .counters
                .batches_skipped,
            0
        );
        let skipped = res_col
            .metrics
            .by_name("sel")
            .unwrap()
            .counters
            .batches_skipped;
        assert!(skipped > 0, "selective predicate must prune whole batches");
        // The terminal trace sample carries the same counter.
        let (_, last) = res_col.trace.samples.last().unwrap();
        let sel = last.iter().find(|s| s.name == "sel").unwrap();
        assert_eq!(sel.counters.batches_skipped, skipped);
        assert!(
            res_col.makespan() < res_row.makespan(),
            "columnar discount must shrink the makespan: {} vs {}",
            res_col.makespan(),
            res_row.makespan()
        );
    }

    #[test]
    fn columnar_retry_still_delivers_exactly_once() {
        use crate::retry::{RetryConfig, RetryPolicy};
        use std::sync::atomic::{AtomicU64, Ordering};
        let calls = Arc::new(AtomicU64::new(0));
        let seen = calls.clone();
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(40))), 1);
        let flaky = b.add(
            Arc::new(FilterOp::new("flaky", move |t| {
                let _ = t.get_int("id")?;
                if seen.fetch_add(1, Ordering::SeqCst) + 1 == 20 {
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
        let mut config = cfg();
        config.columnar = true;
        config.retry = RetryConfig::uniform(RetryPolicy::attempts(3));
        let res = SimExecutor::new(config).run(&wf).unwrap();
        assert_eq!(
            handle.len(),
            40,
            "columnar retry must not lose or duplicate rows"
        );
        let m = res.metrics.by_name("flaky").unwrap();
        assert_eq!(m.sched.retries_attempted, 1);
        assert_eq!(m.state, OperatorState::Completed);
        assert_eq!(m.input_tuples, 40, "replayed tuples must not be recounted");
    }

    #[test]
    fn memory_budget_spills_and_matches_unbounded() {
        let run = |budget: Option<usize>| {
            let pairs: Vec<(i64, String)> = (0..80).map(|i| (i % 13, format!("b{i}"))).collect();
            let build = kv_batch(
                &pairs
                    .iter()
                    .map(|(k, t)| (*k, t.as_str()))
                    .collect::<Vec<_>>(),
            );
            let probe_schema = Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]);
            let probe = Batch::from_rows(
                probe_schema,
                (0..60)
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
            let mut config = cfg();
            config.memory_budget = budget;
            let res = SimExecutor::new(config).run(&wf).unwrap();
            let mut rows: Vec<String> = handle.results().iter().map(|t| t.to_string()).collect();
            rows.sort();
            (rows, res)
        };
        let (rows_mem, res_mem) = run(None);
        let (rows_spill, res_spill) = run(Some(256));
        assert!(!rows_mem.is_empty());
        assert_eq!(
            rows_mem, rows_spill,
            "spilled join must emit identical rows"
        );
        assert_eq!(
            res_mem
                .metrics
                .by_name("join")
                .unwrap()
                .counters
                .spilled_blocks,
            0,
            "unbounded run must not spill"
        );
        let m = res_spill.metrics.by_name("join").unwrap();
        assert!(
            m.counters.spilled_blocks > 0,
            "tiny budget must spill blocks"
        );
        assert!(m.counters.spilled_bytes > 0);
        assert!(
            m.counters.spill_reads > 0,
            "partition join must read blocks back"
        );
        // Spill I/O is charged on the virtual clock.
        assert!(
            res_spill.makespan() > res_mem.makespan(),
            "spill quanta must extend the makespan: {} vs {}",
            res_spill.makespan(),
            res_mem.makespan()
        );
        // The terminal trace sample carries the spill counter.
        let (_, last) = res_spill.trace.samples.last().unwrap();
        let join_snap = last.iter().find(|s| s.name == "join").unwrap();
        assert_eq!(join_snap.counters.spilled_blocks, m.counters.spilled_blocks);
    }

    #[test]
    fn more_workers_reduce_makespan() {
        let run_with = |workers: usize| {
            let mut b = WorkflowBuilder::new();
            let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(4_000))), workers);
            let filt = b.add(
                Arc::new(
                    FilterOp::new("f", |t| Ok(t.get_int("id")? >= 0))
                        .with_cost(crate::cost::CostProfile::per_tuple_micros(200)),
                ),
                workers,
            );
            let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
            b.connect(scan, filt, 0, PartitionStrategy::RoundRobin);
            b.connect(filt, sink, 0, PartitionStrategy::Single);
            let wf = b.build().unwrap();
            SimExecutor::new(cfg()).run(&wf).unwrap().makespan()
        };
        let one = run_with(1);
        let four = run_with(4);
        // Speedup is sublinear (per-worker startup is fixed cost), but 4
        // workers must still cut the makespan well below 60%.
        assert!(
            four.as_secs_f64() < one.as_secs_f64() * 0.6,
            "4 workers {four} not much faster than 1 worker {one}"
        );
    }

    #[test]
    fn pipelining_beats_stage_barriers() {
        let build = |pipelining: bool| {
            let mut b = WorkflowBuilder::new();
            let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(2_000))), 1);
            let f1 = b.add(
                Arc::new(
                    FilterOp::new("f1", |_| Ok(true))
                        .with_cost(crate::cost::CostProfile::per_tuple_micros(50)),
                ),
                1,
            );
            let f2 = b.add(
                Arc::new(
                    FilterOp::new("f2", |_| Ok(true))
                        .with_cost(crate::cost::CostProfile::per_tuple_micros(50)),
                ),
                1,
            );
            let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
            b.connect(scan, f1, 0, PartitionStrategy::RoundRobin);
            b.connect(f1, f2, 0, PartitionStrategy::RoundRobin);
            b.connect(f2, sink, 0, PartitionStrategy::Single);
            let wf = b.build().unwrap();
            let mut config = cfg();
            config.pipelining = pipelining;
            SimExecutor::new(config).run(&wf).unwrap().makespan()
        };
        let with = build(true);
        let without = build(false);
        assert!(
            with < without,
            "pipelined {with} should beat barrier {without}"
        );
    }

    #[test]
    fn pause_extends_makespan_by_its_duration() {
        let build = || {
            let mut b = WorkflowBuilder::new();
            let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(1_000))), 1);
            let filt = b.add(
                Arc::new(
                    FilterOp::new("f", |_| Ok(true))
                        .with_cost(crate::cost::CostProfile::per_tuple_micros(100)),
                ),
                1,
            );
            let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
            b.connect(scan, filt, 0, PartitionStrategy::RoundRobin);
            b.connect(filt, sink, 0, PartitionStrategy::Single);
            b.build().unwrap()
        };
        let base = SimExecutor::new(cfg()).run(&build()).unwrap().makespan();
        let paused = SimExecutor::new(cfg())
            .with_pause(
                SimTime::from_micros(60_000),
                scriptflow_simcluster::SimDuration::from_secs(2),
            )
            .run(&build())
            .unwrap()
            .makespan();
        let delta = paused.as_secs_f64() - base.as_secs_f64();
        assert!(
            (1.8..2.3).contains(&delta),
            "pause should add ~2s: base {base}, paused {paused}"
        );
    }

    #[test]
    fn trace_samples_progress_and_marks_paused() {
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(2_000))), 1);
        let filt = b.add(
            Arc::new(
                FilterOp::new("f", |_| Ok(true))
                    .with_cost(crate::cost::CostProfile::per_tuple_micros(500)),
            ),
            1,
        );
        let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
        b.connect(scan, filt, 0, PartitionStrategy::RoundRobin);
        b.connect(filt, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        let res = SimExecutor::new(cfg())
            .with_trace(scriptflow_simcluster::SimDuration::from_millis(100))
            .with_pause(
                SimTime::from_micros(300_000),
                scriptflow_simcluster::SimDuration::from_millis(400),
            )
            .run(&wf)
            .unwrap();
        let trace = &res.trace;
        assert!(
            trace.len() > 5,
            "expected several samples, got {}",
            trace.len()
        );
        // Samples ascend in time.
        for w in trace.samples.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        // Input counters are monotone for the filter operator.
        let hist = trace.operator_history("f");
        for w in hist.windows(2) {
            assert!(w[0].1.input_tuples <= w[1].1.input_tuples);
        }
        // The pause window shows the paused state for running operators.
        let paused_seen = trace
            .samples
            .iter()
            .filter(|(t, _)| t.as_micros() >= 300_000 && t.as_micros() < 700_000)
            .flat_map(|(_, snaps)| snaps)
            .any(|s| s.state == OperatorState::Paused);
        assert!(paused_seen, "expected a Paused snapshot inside the window");
        // The final sample shows everything completed.
        assert!(trace.completion_sample().is_some());
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut b = WorkflowBuilder::new();
            let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(300))), 3);
            let filt = b.add(Arc::new(FilterOp::new("f", |_| Ok(true))), 2);
            let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
            b.connect(scan, filt, 0, PartitionStrategy::RoundRobin);
            b.connect(filt, sink, 0, PartitionStrategy::Single);
            let wf = b.build().unwrap();
            let r = SimExecutor::new(cfg()).run(&wf).unwrap();
            (r.makespan(), r.metrics.events)
        };
        assert_eq!(run(), run());
    }
}

//! The Ray-like runtime: scheduler + object store + stage barriers.

use scriptflow_simcluster::{ClusterSpec, CpuPool, SimDuration, SimTime};

use crate::actor::{ActorPool, ActorRef};
use crate::error::{RayError, RayResult};
use crate::store::{ObjRef, TypedStore};
use crate::task::{RayTask, TaskData};

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RayConfig {
    /// Total CPUs the scheduler may use. This is the paper's "number of
    /// workers" knob for the script paradigm: "the only way to change the
    /// number of workers in Ray was to configure the number of CPUs that
    /// Ray could use" (§IV-A).
    pub total_cpus: usize,
    /// Per-task scheduling overhead (dispatch, worker lease).
    pub scheduling_overhead: SimDuration,
}

impl Default for RayConfig {
    fn default() -> Self {
        RayConfig {
            total_cpus: 1,
            scheduling_overhead: SimDuration::from_millis(2),
        }
    }
}

impl RayConfig {
    /// Config with `n` schedulable CPUs.
    pub fn with_cpus(n: usize) -> Self {
        RayConfig {
            total_cpus: n,
            ..RayConfig::default()
        }
    }
}

/// One queued actor call: declared work plus the closure to run.
pub type ActorCall<S, R> = (SimDuration, Box<dyn FnOnce(&mut S) -> RayResult<R> + Send>);

/// A batch of calls addressed to one actor.
pub type ActorBatch<S, R> = (ActorRef<S>, Vec<ActorCall<S, R>>);

/// What a recorded runtime [`SpanEvent`] measured.
///
/// The script paradigm's observability story is the driver's timeline:
/// stage barriers and object-store traffic are the only places the
/// paradigm exposes progress (there is no per-operator display to
/// consult, which is the contrast the study crate draws against the
/// workflow engine's trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A [`RayRuntime::parallel_map`] stage, submission to barrier.
    Stage,
    /// An actor call batch ([`RayRuntime::actor_map`] /
    /// [`RayRuntime::actor_map_all`]), submission to slowest completion.
    ActorStage,
    /// A driver-side `ray.put` (bytes carried in the event).
    Put,
    /// A driver-side `ray.get` (bytes carried in the event).
    Get,
}

/// One timed interval of driver-visible runtime activity, in virtual
/// time. Collected by [`RayRuntime`] and read back via
/// [`RayRuntime::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// What this span measured.
    pub kind: SpanKind,
    /// Human-readable label (e.g. `"stage[8 tasks]"`).
    pub label: String,
    /// Virtual time the activity started.
    pub start: SimTime,
    /// Virtual time the activity completed.
    pub end: SimTime,
    /// Object-store bytes moved, for `Put`/`Get` spans (0 otherwise).
    pub bytes: u64,
    /// False if the activity aborted (a failed or injected-abort stage).
    /// This is all the script paradigm can say about a failure: the
    /// *whole stage* is lost at the barrier, with no per-task partial
    /// progress to point at.
    pub ok: bool,
}

/// Instrumentation counters for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RayMetrics {
    /// Tasks executed.
    pub tasks: u64,
    /// Object-store puts.
    pub puts: u64,
    /// Object-store gets (driver + tasks).
    pub gets: u64,
    /// Maximum tasks that actually overlapped in time.
    pub peak_parallel: usize,
}

/// The runtime: owns the CPU pool, the typed object store, and the
/// virtual clock of the driver process.
pub struct RayRuntime {
    pool: CpuPool,
    store: TypedStore,
    actors: ActorPool,
    clock: SimTime,
    config: RayConfig,
    metrics: RayMetrics,
    spans: Vec<SpanEvent>,
    /// Stage barriers submitted so far (successful or aborted).
    stages_started: u64,
    /// Armed fault: (1-based stage number to strike at, error message).
    stage_abort: Option<(u64, String)>,
}

impl RayRuntime {
    /// A runtime on `cluster` with the given config. The cluster caps the
    /// usable CPUs at its total worker vCPUs.
    pub fn new(cluster: &ClusterSpec, config: RayConfig) -> RayResult<Self> {
        if config.total_cpus == 0 {
            return Err(RayError::BadConfig("total_cpus must be positive".into()));
        }
        let cpus = config.total_cpus.min(cluster.total_worker_vcpus().max(1));
        Ok(RayRuntime {
            pool: CpuPool::new(cpus),
            store: TypedStore::new(cluster.object_store()),
            actors: ActorPool::default(),
            clock: SimTime::ZERO + cluster.submit_overhead,
            config,
            metrics: RayMetrics::default(),
            spans: Vec::new(),
            stages_started: 0,
            stage_abort: None,
        })
    }

    /// A single-CPU runtime over the paper's cluster (the baseline the
    /// experiments start from).
    pub fn paper_default() -> Self {
        Self::new(&ClusterSpec::paper_cluster(), RayConfig::default())
            .expect("default config is valid")
    }

    /// Current driver virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Instrumentation counters.
    pub fn metrics(&self) -> RayMetrics {
        let (puts, gets) = self.store.op_counts();
        RayMetrics {
            puts,
            gets,
            ..self.metrics
        }
    }

    /// Schedulable CPUs.
    pub fn total_cpus(&self) -> usize {
        self.pool.capacity()
    }

    /// The recorded runtime spans, in the order the driver issued them:
    /// stage barriers, actor batches, and object-store puts/gets. This is
    /// the script paradigm's entire observable timeline — the counterpart
    /// of the workflow engine's per-operator progress trace.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    fn record_span(&mut self, kind: SpanKind, label: String, start: SimTime, bytes: u64, ok: bool) {
        self.spans.push(SpanEvent {
            kind,
            label,
            start,
            end: self.clock,
            bytes,
            ok,
        });
    }

    /// Arm a deterministic fault: the `nth_stage`-th call (1-based) to
    /// [`RayRuntime::parallel_map`] aborts at its barrier with `message`
    /// before any task runs. This is the script-paradigm counterpart of
    /// the workflow engine's `FaultPlan`: the failure unit is the *whole
    /// stage* — every task's work is lost at the barrier, the granularity
    /// gap the `study::fault_tolerance` comparison measures.
    ///
    /// Only one abort can be armed at a time; arming again replaces the
    /// previous one. The fault disarms once it fires.
    pub fn arm_stage_abort(&mut self, nth_stage: u64, message: impl Into<String>) {
        self.stage_abort = Some((nth_stage, message.into()));
    }

    /// Stage barriers submitted so far (successful or aborted).
    pub fn stages_started(&self) -> u64 {
        self.stages_started
    }

    fn take_stage_abort(&mut self) -> Option<String> {
        if self
            .stage_abort
            .as_ref()
            .is_some_and(|(at, _)| *at == self.stages_started)
        {
            return self.stage_abort.take().map(|(_, msg)| msg);
        }
        None
    }

    /// Advance the driver clock by local (in-driver) computation — the
    /// notebook cell running plain Python between Ray calls.
    pub fn advance(&mut self, work: SimDuration) {
        self.clock += work;
    }

    /// Driver-side `ray.put`: store a value, blocking the driver for the
    /// put cost.
    pub fn put<T: Send + Sync + 'static>(&mut self, value: T, bytes: u64) -> ObjRef<T> {
        let start = self.clock;
        let (r, cost) = self.store.put(value, bytes);
        self.clock += cost;
        self.record_span(SpanKind::Put, "put".into(), start, bytes, true);
        r
    }

    /// Driver-side `ray.get`: fetch a value, blocking the driver for the
    /// get cost.
    pub fn get<T: Send + Sync + 'static>(&mut self, r: ObjRef<T>) -> RayResult<std::sync::Arc<T>> {
        let start = self.clock;
        let bytes = self.store.size_of(r).unwrap_or(0);
        let (v, cost) = self.store.get(r)?;
        self.clock += cost;
        self.record_span(SpanKind::Get, "get".into(), start, bytes, true);
        Ok(v)
    }

    /// Delete an object from the store (no time cost; Ray GC is async).
    pub fn delete<T>(&mut self, r: ObjRef<T>) -> RayResult<()> {
        self.store.delete(r)
    }

    /// Submit a stage of tasks and block until all complete — the
    /// `ray.get([f.remote(x) for x in xs])` idiom. Returns results in
    /// submission order.
    ///
    /// Scheduling: tasks are placed FCFS onto the CPU pool; each task's
    /// duration is `scheduling overhead + declared input gets + work /
    /// num_cpus`. The driver clock jumps to the completion of the slowest
    /// task (the stage barrier — this is exactly what denies the script
    /// paradigm cross-stage pipelining).
    pub fn parallel_map<R>(&mut self, tasks: Vec<RayTask<R>>) -> RayResult<Vec<R>> {
        let submit = self.clock;
        let n_tasks = tasks.len();
        self.stages_started += 1;
        if let Some(message) = self.take_stage_abort() {
            // Injected abort: the stage dies at its barrier. The driver
            // still pays the dispatch overhead, gets nothing back, and
            // the only trace is one not-ok stage span.
            self.clock += self.config.scheduling_overhead;
            self.record_span(
                SpanKind::Stage,
                format!("stage[{n_tasks} tasks] ABORTED"),
                submit,
                0,
                false,
            );
            return Err(RayError::TaskFailed {
                task: format!("stage[{n_tasks} tasks]"),
                message,
            });
        }
        match self.run_stage(tasks, submit) {
            Ok(results) => {
                self.record_span(
                    SpanKind::Stage,
                    format!("stage[{n_tasks} tasks]"),
                    submit,
                    0,
                    true,
                );
                Ok(results)
            }
            Err(e) => {
                // An organic task failure also surfaces at the barrier:
                // the whole stage is lost, and the span says only that.
                self.clock += self.config.scheduling_overhead;
                self.record_span(
                    SpanKind::Stage,
                    format!("stage[{n_tasks} tasks] ABORTED"),
                    submit,
                    0,
                    false,
                );
                Err(e)
            }
        }
    }

    fn run_stage<R>(&mut self, tasks: Vec<RayTask<R>>, submit: SimTime) -> RayResult<Vec<R>> {
        let mut results = Vec::with_capacity(tasks.len());
        let mut finishes: Vec<(SimTime, SimTime)> = Vec::with_capacity(tasks.len());
        let mut barrier = submit;
        for task in tasks {
            self.metrics.tasks += 1;
            // Input gets happen on the worker before the kernel runs.
            let mut input_cost = SimDuration::ZERO;
            for id in &task.inputs {
                let cost = self.store_get_cost(*id, &task.name)?;
                input_cost += cost;
            }
            let kernel = task.work.scale(1.0 / task.num_cpus as f64);
            let duration = self.config.scheduling_overhead + input_cost + kernel;
            let reservation = self.pool.reserve(submit, task.num_cpus, duration);
            finishes.push((reservation.start, reservation.finish));
            barrier = barrier.max(reservation.finish);
            // Execute the real computation now (results are identical
            // regardless of when in virtual time they "ran").
            let mut data = TaskData::new(&mut self.store);
            let out = (task.run)(&mut data)?;
            results.push(out);
        }
        // Peak overlap: how many task intervals intersect.
        let mut peak = 0usize;
        for (s, _) in &finishes {
            let overlapping = finishes.iter().filter(|(s2, f2)| s2 <= s && s < f2).count();
            peak = peak.max(overlapping);
        }
        self.metrics.peak_parallel = self.metrics.peak_parallel.max(peak);
        self.clock = barrier;
        Ok(results)
    }

    /// Create an actor: a pinned worker holding `state` between calls.
    /// Blocks the driver until the actor is ready (state ship + startup).
    pub fn create_actor<S: Send + 'static>(
        &mut self,
        state: S,
        state_bytes: u64,
        startup: SimDuration,
    ) -> ActorRef<S> {
        let (actor, ready) = self.actors.create(self.clock, state, state_bytes, startup);
        self.clock = ready;
        actor
    }

    /// Submit a batch of calls to one actor and block until all finish.
    /// Calls serialize on the actor; results come back in order.
    pub fn actor_map<S: Send + 'static, R>(
        &mut self,
        actor: ActorRef<S>,
        calls: Vec<ActorCall<S, R>>,
    ) -> RayResult<Vec<R>> {
        let submit = self.clock;
        let n_calls = calls.len();
        let mut results = Vec::with_capacity(calls.len());
        let mut finish = submit;
        for (work, f) in calls {
            let (r, done) = self.actors.call(submit, actor, work, f)?;
            finish = finish.max(done);
            results.push(r);
        }
        self.clock = finish;
        self.record_span(
            SpanKind::ActorStage,
            format!("actor[{n_calls} calls]"),
            submit,
            0,
            true,
        );
        Ok(results)
    }

    /// Submit call batches to several actors **concurrently** (the
    /// `ray.get([a.f.remote(x) for a in actors ...])` idiom): every batch
    /// is submitted at the same instant, batches on different actors
    /// overlap, and the driver blocks until the slowest actor finishes.
    pub fn actor_map_all<S: Send + 'static, R>(
        &mut self,
        batches: Vec<ActorBatch<S, R>>,
    ) -> RayResult<Vec<Vec<R>>> {
        let submit = self.clock;
        let n_batches = batches.len();
        let mut all = Vec::with_capacity(batches.len());
        let mut finish = submit;
        for (actor, calls) in batches {
            let mut results = Vec::with_capacity(calls.len());
            for (work, f) in calls {
                let (r, done) = self.actors.call(submit, actor, work, f)?;
                finish = finish.max(done);
                results.push(r);
            }
            all.push(results);
        }
        self.clock = finish;
        self.record_span(
            SpanKind::ActorStage,
            format!("actors[{n_batches} batches]"),
            submit,
            0,
            true,
        );
        Ok(all)
    }

    /// Terminate an actor.
    pub fn kill_actor<S>(&mut self, actor: ActorRef<S>) -> RayResult<()> {
        self.actors.kill(actor)
    }

    /// Like [`RayRuntime::parallel_map`], but transient task failures are
    /// retried: `make_task(index, attempt)` rebuilds the task for each
    /// attempt (closures are consumed per run), up to `max_attempts`.
    /// Failed attempts still cost their scheduling + input time.
    pub fn parallel_map_retry<R>(
        &mut self,
        n_tasks: usize,
        max_attempts: usize,
        make_task: impl Fn(usize, usize) -> RayTask<R>,
    ) -> RayResult<Vec<R>> {
        assert!(max_attempts > 0, "need at least one attempt");
        let mut results = Vec::with_capacity(n_tasks);
        for idx in 0..n_tasks {
            let mut last_err = None;
            let mut done = None;
            for attempt in 0..max_attempts {
                let task = make_task(idx, attempt);
                match self.parallel_map(vec![task]) {
                    Ok(mut r) => {
                        done = Some(r.pop().expect("one task, one result"));
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            match done {
                Some(r) => results.push(r),
                None => return Err(last_err.expect("failed without an error")),
            }
        }
        Ok(results)
    }

    /// Evict least-recently-used objects until the store holds at most
    /// `target_bytes` (no virtual-time cost; eviction is background GC).
    pub fn evict_to(&mut self, target_bytes: u64) -> usize {
        self.store.evict_lru(target_bytes).len()
    }

    fn store_get_cost(
        &mut self,
        id: scriptflow_simcluster::store::ObjectId,
        task: &str,
    ) -> RayResult<SimDuration> {
        self.store
            .get_cost_by_id(id)
            .map_err(|_| RayError::TaskFailed {
                task: task.to_owned(),
                message: format!("declared input object {} missing", id.0),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_simcluster::ClusterSpec;

    fn runtime(cpus: usize) -> RayRuntime {
        RayRuntime::new(&ClusterSpec::paper_cluster(), RayConfig::with_cpus(cpus)).unwrap()
    }

    #[test]
    fn rejects_zero_cpus() {
        assert!(RayRuntime::new(&ClusterSpec::paper_cluster(), RayConfig::with_cpus(0)).is_err());
    }

    #[test]
    fn put_get_roundtrip() {
        let mut rt = runtime(1);
        let before = rt.now();
        let r = rt.put(vec![1i64, 2, 3], 1_000_000);
        assert!(rt.now() > before);
        let v = rt.get(r).unwrap();
        assert_eq!(*v, vec![1, 2, 3]);
    }

    #[test]
    fn stage_barrier_takes_slowest_task() {
        let mut rt = runtime(4);
        let t0 = rt.now();
        let results = rt
            .parallel_map(
                (0..4)
                    .map(|i| {
                        RayTask::new(format!("t{i}"), SimDuration::from_secs(1 + i), move |_| {
                            Ok(i)
                        })
                    })
                    .collect(),
            )
            .unwrap();
        assert_eq!(results, vec![0, 1, 2, 3]);
        let elapsed = rt.now().since(t0).as_secs_f64();
        // Slowest task: 4s (+ small overheads). With 4 CPUs they overlap.
        assert!((4.0..4.5).contains(&elapsed), "elapsed {elapsed}");
    }

    #[test]
    fn fewer_cpus_serialize_tasks() {
        let run = |cpus: usize| {
            let mut rt = runtime(cpus);
            let t0 = rt.now();
            rt.parallel_map(
                (0..4)
                    .map(|i| {
                        RayTask::new(format!("t{i}"), SimDuration::from_secs(1), move |_| Ok(i))
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            rt.now().since(t0).as_secs_f64()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            one > 3.9,
            "1 CPU should serialize 4 seconds of tasks: {one}"
        );
        assert!(four < 1.5, "4 CPUs should overlap: {four}");
    }

    #[test]
    fn declared_inputs_charge_gets_per_task() {
        let mut rt = runtime(4);
        // A "model" of 2 GB: each task pays the get again.
        let model = rt.put(vec![0u8; 16], 2_000_000_000);
        let after_put = rt.now();
        rt.parallel_map(
            (0..4)
                .map(|i| {
                    RayTask::new(format!("t{i}"), SimDuration::from_millis(1), move |d| {
                        let m = d.get(model)?;
                        Ok(m.len() + i)
                    })
                    .with_input(model)
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let elapsed = rt.now().since(after_put).as_secs_f64();
        // 2 GB at 2 GB/s = 1 s per get; parallel tasks each pay it.
        assert!(elapsed > 0.9, "model get cost not charged: {elapsed}");
        assert!(rt.metrics().gets >= 8, "declared + closure gets both count");
    }

    #[test]
    fn num_cpus_divides_kernel_time() {
        let mut rt = runtime(8);
        let t0 = rt.now();
        rt.parallel_map(vec![RayTask::new(
            "wide",
            SimDuration::from_secs(8),
            |_| Ok(()),
        )
        .with_num_cpus(8)])
            .unwrap();
        let elapsed = rt.now().since(t0).as_secs_f64();
        assert!(
            (1.0..1.2).contains(&elapsed),
            "8 CPUs over 8s work: {elapsed}"
        );
    }

    #[test]
    fn task_failure_names_task() {
        let mut rt = runtime(1);
        let err = rt
            .parallel_map(vec![RayTask::new(
                "bad task",
                SimDuration::from_millis(1),
                |_| -> RayResult<()> { Err(RayTask::<()>::failure("bad task", "boom")) },
            )])
            .unwrap_err();
        assert!(err.to_string().contains("bad task"));
    }

    #[test]
    fn config_caps_at_cluster_cpus() {
        let rt = RayRuntime::new(&ClusterSpec::single_node(2), RayConfig::with_cpus(64)).unwrap();
        assert_eq!(rt.total_cpus(), 2);
    }

    #[test]
    fn retries_recover_transient_failures() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let mut rt = runtime(2);
        let failures = Arc::new(AtomicUsize::new(0));
        let f2 = failures.clone();
        let results = rt
            .parallel_map_retry(3, 3, move |idx, attempt| {
                let f = f2.clone();
                RayTask::new(
                    format!("t{idx}a{attempt}"),
                    SimDuration::from_millis(10),
                    move |_| {
                        // Task 1 fails on its first two attempts.
                        if idx == 1 && attempt < 2 {
                            f.fetch_add(1, Ordering::Relaxed);
                            return Err(RayTask::<usize>::failure("t1", "flaky"));
                        }
                        Ok(idx * 10)
                    },
                )
            })
            .unwrap();
        assert_eq!(results, vec![0, 10, 20]);
        assert_eq!(failures.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn retries_exhausted_propagate_error() {
        let mut rt = runtime(1);
        let err = rt
            .parallel_map_retry(1, 2, |_, _| {
                RayTask::new("always bad", SimDuration::from_millis(1), |_| {
                    Err::<(), _>(RayTask::<()>::failure("always bad", "permanent"))
                })
            })
            .unwrap_err();
        assert!(err.to_string().contains("permanent"));
    }

    #[test]
    fn eviction_via_runtime() {
        let mut rt = runtime(1);
        let a = rt.put(vec![0u8; 8], 1_000_000);
        let _b = rt.put(vec![1u8; 8], 1_000_000);
        assert_eq!(rt.evict_to(1_000_000), 1);
        // `a` was least recently used.
        assert!(rt.get(a).is_err());
    }

    #[test]
    fn spans_record_store_traffic_and_stage_barriers() {
        let mut rt = runtime(2);
        let r = rt.put(vec![0u8; 8], 5_000_000);
        rt.get(r).unwrap();
        rt.parallel_map(
            (0..3)
                .map(|i| RayTask::new(format!("t{i}"), SimDuration::from_secs(1), move |_| Ok(i)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let spans = rt.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].kind, SpanKind::Put);
        assert_eq!(spans[0].bytes, 5_000_000);
        assert_eq!(spans[1].kind, SpanKind::Get);
        assert_eq!(spans[1].bytes, 5_000_000);
        assert_eq!(spans[2].kind, SpanKind::Stage);
        assert_eq!(spans[2].label, "stage[3 tasks]");
        // Spans are ordered and non-degenerate intervals.
        for s in spans {
            assert!(s.end >= s.start, "{s:?}");
        }
        assert!(spans[2].end > spans[2].start, "a stage takes time");
    }

    #[test]
    fn actor_batches_record_actor_stage_spans() {
        let mut rt = runtime(2);
        let actor = rt.create_actor(0u64, 1_000, SimDuration::from_millis(5));
        rt.actor_map(
            actor,
            (0..2)
                .map(|i| {
                    (
                        SimDuration::from_millis(10),
                        Box::new(move |s: &mut u64| {
                            *s += i;
                            Ok(*s)
                        })
                            as Box<dyn FnOnce(&mut u64) -> RayResult<u64> + Send>,
                    )
                })
                .collect(),
        )
        .unwrap();
        let span = rt.spans().last().unwrap();
        assert_eq!(span.kind, SpanKind::ActorStage);
        assert_eq!(span.label, "actor[2 calls]");
    }

    #[test]
    fn armed_stage_abort_kills_the_whole_stage() {
        let mut rt = runtime(2);
        rt.arm_stage_abort(2, "node lost");
        rt.parallel_map(vec![RayTask::new(
            "t0",
            SimDuration::from_millis(1),
            |_| Ok(0),
        )])
        .unwrap();
        let err = rt
            .parallel_map(
                (0..3)
                    .map(|i| {
                        RayTask::new(format!("t{i}"), SimDuration::from_millis(1), move |_| Ok(i))
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("node lost"), "{err}");
        assert_eq!(rt.stages_started(), 2);
        let spans = rt.spans();
        assert!(spans[spans.len() - 2].ok);
        let last = spans.last().unwrap();
        assert_eq!(last.kind, SpanKind::Stage);
        assert_eq!(last.label, "stage[3 tasks] ABORTED");
        assert!(!last.ok);
        // The fault disarms after firing: the next stage runs normally.
        rt.parallel_map(vec![RayTask::new(
            "t1",
            SimDuration::from_millis(1),
            |_| Ok(1),
        )])
        .unwrap();
        assert!(rt.spans().last().unwrap().ok);
    }

    #[test]
    fn organic_task_failure_records_aborted_stage_span() {
        let mut rt = runtime(1);
        let err = rt
            .parallel_map(vec![RayTask::new(
                "bad",
                SimDuration::from_millis(1),
                |_| Err::<i64, _>(RayTask::<i64>::failure("bad", "boom")),
            )])
            .unwrap_err();
        assert!(err.to_string().contains("boom"));
        let span = rt.spans().last().unwrap();
        assert!(!span.ok);
        assert!(span.label.contains("ABORTED"), "{span:?}");
        assert!(span.end >= span.start);
    }

    #[test]
    fn metrics_track_peak_parallelism() {
        let mut rt = runtime(2);
        rt.parallel_map(
            (0..4)
                .map(|i| RayTask::new(format!("t{i}"), SimDuration::from_secs(1), move |_| Ok(i)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(rt.metrics().peak_parallel, 2);
    }
}

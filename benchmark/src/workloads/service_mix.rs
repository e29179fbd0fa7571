//! `service_mix`: one `WorkflowService` shared by closed-loop tenants.
//!
//! Generator thread 0 keeps one heavy run (the 200 000-tuple filter
//! chain of `stream_relational`) in flight as tenant `batch`; every
//! generator thread runs a closed loop of small interactive
//! submissions as its own tenant. It is the only workload where
//! weighted-fair slicing, admission and per-run isolation matter, and
//! it uses the pool of `stream_relational` under contention instead of
//! solo.

use std::sync::Arc;
use std::time::{Duration, Instant};

use scriptflow_workflow::ops::SinkHandle;
use scriptflow_workflow::service::{RunHandle, RunOptions, ServiceConfig, WorkflowService};
use scriptflow_workflow::{LiveExecutor, Workflow};

use super::stream_relational::StreamRelational;
use super::{
    attach_busy, digest, edge_tuples, run_dag, Digest, Tally, Timed, Workload, BATCH_SIZE,
};
use crate::{span, sysinfo};

/// The heavy run is `stream_relational`'s filter chain at its size.
pub const HEAVY_TUPLES: usize = super::stream_relational::TUPLES;
pub const SMALL_TUPLES: usize = 5_000;

/// How long every generator thread keeps submitting in one pass. A
/// pass is a duration, not a count, so that no thread idles at the end
/// of a pass waiting for a slower one.
pub const PASS: Duration = Duration::from_secs(1);

pub struct ServiceMix {
    svc: WorkflowService,
    small: StreamRelational,
    big: StreamRelational,
    heavy_wf: Workflow,
    heavy_sink: SinkHandle,
    /// The heavy run in flight, carried from pass to pass.
    heavy: Option<RunHandle>,
    threads: usize,
    /// Runs the last pass attempted: the estimate of what a pass owes.
    last_pass_runs: u64,
    /// Per-submission probes the ladder reads: time inside `submit`,
    /// time queued before dispatch, and heavy runs completed.
    pub submit_us: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub heavy_done: u64,
}

/// Rows of the interactive DAG and of the heavy DAG.
pub struct Expected {
    small: Digest,
    heavy: Digest,
}

/// What one generator thread brings back from a pass.
#[derive(Default)]
struct Loop {
    tally: Tally,
    submit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    heavy_done: u64,
}

/// One interactive job: build the small DAG, submit, wait, read the
/// sink. Its latency is a `job_ms` sample.
fn interactive(
    svc: &WorkflowService,
    small: &StreamRelational,
    tenant: &str,
    width: usize,
    expected: Option<&Expected>,
    out: &mut Loop,
) {
    span::next_job();
    let start = Instant::now();
    let (wf, sink) = {
        let _s = span::enter("workflow.dag.build");
        small.filter_chain(width)
    };
    let submitted = {
        let _s = span::enter("workflow.service.submit");
        let t = Instant::now();
        let handle = svc.submit(tenant, &wf, RunOptions::default());
        out.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        handle
    };
    let outcome = submitted.map_err(|e| e.to_string()).and_then(|handle| {
        let report = {
            let s = span::enter("workflow.service.wait");
            let report = handle.wait();
            if let Ok(r) = &report.result {
                attach_busy(&s, &r.metrics);
            }
            report
        };
        out.queue_wait_ms
            .push(report.queue_wait.as_secs_f64() * 1e3);
        report.result.map_err(|e| e.to_string())?;
        let rows = {
            let _s = span::enter("workflow.sink.read");
            sink.results()
        };
        let elapsed = start.elapsed();
        let _s = span::enter("bench.row_check");
        Ok(Timed {
            elapsed,
            output: digest(&rows),
            tuples: edge_tuples(&report.trace),
        })
    });
    let took = out.tally.run("interactive", outcome, |d| {
        expected.is_none_or(|e| *d == e.small)
    });
    out.tally.job_ms.push(took.as_secs_f64() * 1e3);
}

impl ServiceMix {
    /// Collect the heavy run if it has finished, check its rows, and
    /// put the next one in flight.
    fn turn_heavy(
        svc: &WorkflowService,
        heavy: &mut Option<RunHandle>,
        wf: &Workflow,
        sink: &SinkHandle,
        expected: Option<&Expected>,
        out: &mut Loop,
    ) {
        if heavy.as_ref().is_some_and(|h| !h.is_finished()) {
            return;
        }
        if let Some(handle) = heavy.take() {
            let report = handle.wait();
            let rows = {
                let _s = span::enter("workflow.sink.read");
                sink.results()
            };
            let _s = span::enter("bench.row_check");
            let outcome = report.result.map_err(|e| e.to_string()).map(|r| Timed {
                elapsed: r.elapsed,
                output: digest(&rows),
                tuples: edge_tuples(&report.trace),
            });
            out.tally
                .run("heavy", outcome, |d| expected.is_none_or(|e| *d == e.heavy));
            out.heavy_done += 1;
        }
        let _s = span::enter("workflow.service.submit_heavy");
        let opts = RunOptions::default().with_batch_size(BATCH_SIZE);
        match svc.submit("batch", wf, opts) {
            Ok(handle) => *heavy = Some(handle),
            Err(e) => {
                out.tally.attempted += 1;
                out.tally.fail(format!("heavy: {e}"));
            }
        }
    }

    /// Latency of one interactive DAG alone on a solo executor, the
    /// base of `workflow.service.solo_over_shared`.
    pub fn solo_job(&self) -> Duration {
        let exec = Arc::new(LiveExecutor::default());
        run_dag(&exec, || self.small.filter_chain(self.threads))
            .expect("solo interactive DAG runs")
            .0
            .elapsed
    }

    /// Runs the service refused since it started.
    pub fn rejected(&self) -> u64 {
        self.svc.service_stats().rejected_runs
    }
}

impl Workload for ServiceMix {
    type Expected = Expected;

    fn setup(seed: u64) -> ServiceMix {
        let threads = sysinfo::load_width();
        let big = StreamRelational::sized(seed, HEAVY_TUPLES);
        let (heavy_wf, heavy_sink) = big.filter_chain(threads);
        ServiceMix {
            svc: WorkflowService::new(ServiceConfig::default().with_max_active_runs(threads + 1)),
            small: StreamRelational::sized(seed ^ 0x5, SMALL_TUPLES),
            big,
            heavy_wf,
            heavy_sink,
            heavy: None,
            threads,
            last_pass_runs: 0,
            submit_us: Vec::new(),
            queue_wait_ms: Vec::new(),
            heavy_done: 0,
        }
    }

    /// As many runs as the last pass attempted.
    fn runs_per_pass(&self) -> u64 {
        self.last_pass_runs
    }

    /// The solo anchor: both DAGs alone on the thread-per-worker
    /// executor. The heavy DAG is built afresh: the service's copy may
    /// have a run in flight into its sink.
    fn reference(&self) -> Expected {
        let solo = Arc::new(LiveExecutor::thread_per_worker(BATCH_SIZE));
        let rows = |chain: &StreamRelational| {
            run_dag(&solo, || chain.filter_chain(self.threads))
                .expect("anchor runs")
                .0
                .output
        };
        Expected {
            small: rows(&self.small),
            heavy: rows(&self.big),
        }
    }

    fn pass(&mut self, expected: Option<&Expected>, tally: &mut Tally) {
        let ServiceMix {
            svc,
            small,
            heavy_wf,
            heavy_sink,
            heavy,
            threads,
            ..
        } = self;
        let (svc, small, width) = (&*svc, &*small, *threads);
        let pass_span = span::current();
        let start = Instant::now();
        // Thread 0 also turns the heavy run; the others only submit.
        let mut heavy_turn = Some((heavy, &*heavy_wf, &*heavy_sink));
        let loops: Vec<Loop> = std::thread::scope(|s| {
            let generators: Vec<_> = (0..width)
                .map(|c| {
                    let mut heavy_turn = heavy_turn.take();
                    s.spawn(move || {
                        span::adopt(pass_span);
                        let _g = span::enter("bench.generator");
                        let mut out = Loop::default();
                        let tenant = format!("interactive-{c}");
                        while start.elapsed() < PASS {
                            if let Some((heavy, wf, sink)) = &mut heavy_turn {
                                ServiceMix::turn_heavy(svc, heavy, wf, sink, expected, &mut out);
                            }
                            interactive(svc, small, &tenant, width, expected, &mut out);
                        }
                        out
                    })
                })
                .collect();
            generators
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        self.last_pass_runs = loops.iter().map(|l| l.tally.attempted).sum();
        for l in loops {
            tally.merge(l.tally);
            self.submit_us.extend(l.submit_us);
            self.queue_wait_ms.extend(l.queue_wait_ms);
            self.heavy_done += l.heavy_done;
        }
    }
}

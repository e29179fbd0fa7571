//! The four workloads and what they share: the tally a pass reports
//! into, the synthetic input generators, the row digest used to check
//! outputs, and the helper that times one DAG run.

pub mod paper_tasks;
pub mod service_mix;
pub mod spill_cache;
pub mod stream_relational;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use scriptflow_datakit::{Batch, DataType, Schema, SchemaRef, Tuple, Value};
use scriptflow_workflow::ops::SinkHandle;
use scriptflow_workflow::{LiveExecutor, LiveRunResult, ProgressTrace, RunMetrics, Workflow};

use crate::span;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "paper_tasks",
    "stream_relational",
    "spill_cache",
    "service_mix",
];

/// Edge batch size of every synthetic DAG (what `bench_engine` uses).
pub const BATCH_SIZE: usize = 1024;

/// One workload: inputs made from a seed, expected outputs, and a pass
/// that can be repeated for as long as the run lasts.
pub trait Workload: Sized {
    /// What a pass checks its outputs against.
    type Expected;

    /// Runs one pass attempts; a child that dies is charged this many
    /// failures for every pass it still owed.
    fn runs_per_pass(&self) -> u64;

    /// Generate the inputs and build whatever is built once.
    fn setup(seed: u64) -> Self;

    /// Compute the expected outputs with reference configurations.
    fn reference(&self) -> Self::Expected;

    /// Do one pass, reporting jobs, runs and tuples into `tally`.
    /// Without `expected` (the warm-up pass) outputs are not checked.
    fn pass(&mut self, expected: Option<&Self::Expected>, tally: &mut Tally);
}

/// What the passes of one timed section add up to.
#[derive(Debug, Default)]
pub struct Tally {
    /// Wall-clock of every job, in milliseconds.
    pub job_ms: Vec<f64>,
    /// Runs attempted and runs that failed: errored, rejected, or rows
    /// different from the reference.
    pub attempted: u64,
    pub failed: u64,
    /// Tuples that left sources plus tuples that reached sinks.
    pub tuples: u64,
    /// The first few failure messages, for the operator.
    pub failures: Vec<String>,
}

impl Tally {
    /// Account one run that produced `outcome`, whose output is right
    /// if `matches` says so; returns the time the run took (zero for a
    /// run that errored).
    pub fn run<T>(
        &mut self,
        what: &str,
        outcome: Result<Timed<T>, String>,
        matches: impl FnOnce(&T) -> bool,
    ) -> Duration {
        self.attempted += 1;
        match outcome {
            Ok(timed) => {
                self.tuples += timed.tuples;
                if !matches(&timed.output) {
                    self.fail(format!("{what}: output differs from the reference"));
                }
                timed.elapsed
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                Duration::ZERO
            }
        }
    }

    /// Count one failed run.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Fold another thread's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.job_ms.extend(other.job_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.tuples += other.tuples;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// One completed run: how long the job part took (DAG build, run, sink
/// read — not the row check), what it produced, and its edge tuples.
#[derive(Debug)]
pub struct Timed<T> {
    pub elapsed: Duration,
    pub output: T,
    pub tuples: u64,
}

/// Order-independent digest of a row multiset: row count and the
/// wrapping sum of per-row hashes. Cheap enough to run on every output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: usize,
    pub sum: u64,
}

fn mix(h: u64, x: u64) -> u64 {
    let h = (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

fn mix_str(mut h: u64, s: &str) -> u64 {
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    mix(h, s.len() as u64)
}

/// Digest `rows` (see [`Digest`]). Values are type-tagged, so `Int(1)`
/// and `Float(1.0)` differ.
pub fn digest(rows: &[Tuple]) -> Digest {
    let mut sum = 0u64;
    for t in rows {
        let mut h = 0x243F_6A88_85A3_08D3u64;
        for v in t.values() {
            h = match v {
                Value::Null => mix(h, 1),
                Value::Bool(b) => mix(mix(h, 2), u64::from(*b)),
                Value::Int(x) => mix(mix(h, 3), *x as u64),
                Value::Float(x) => mix(mix(h, 4), x.to_bits()),
                Value::Str(s) => mix_str(mix(h, 5), s),
                other => mix_str(mix(h, 6), &format!("{other:?}")),
            };
        }
        sum = sum.wrapping_add(h);
    }
    Digest {
        rows: rows.len(),
        sum,
    }
}

/// Tuples that left sources plus tuples that reached sinks, from a
/// run's terminal trace sample: an operator that received nothing is a
/// source, one that emitted nothing is a sink.
pub fn edge_tuples(trace: &ProgressTrace) -> u64 {
    let Some((_, last)) = trace.samples.last() else {
        return 0;
    };
    last.iter()
        .map(|s| match (s.input_tuples, s.output_tuples) {
            (0, out) => out,
            (inp, 0) => inp,
            _ => 0,
        })
        .sum()
}

static TRACE_ENGINE: AtomicBool = AtomicBool::new(false);

/// Turn the engine's own progress sampling (`with_trace`) on or off
/// for the executors [`executor`] hands out; on during traced passes.
pub fn trace_engine(on: bool) {
    TRACE_ENGINE.store(on, Ordering::SeqCst);
}

/// The pooled executor every synthetic DAG runs on, `configure`d for
/// the leg: default pool (host cores), and progress sampling at 1 ms
/// during traced passes.
pub fn executor(configure: impl FnOnce(LiveExecutor) -> LiveExecutor) -> Arc<LiveExecutor> {
    let exec = LiveExecutor::new(BATCH_SIZE);
    Arc::new(configure(if TRACE_ENGINE.load(Ordering::SeqCst) {
        exec.with_trace(Duration::from_millis(1))
    } else {
        exec
    }))
}

/// Attach each operator's busy seconds to the run span.
pub fn attach_busy(run: &span::Guard, metrics: &RunMetrics) {
    if span::enabled() {
        for m in &metrics.operators {
            run.attr(&format!("busy_s.{}", m.name), m.busy.as_secs_f64());
        }
    }
}

/// Longest one call into the engine may take before the benchmark
/// gives it up as hung; a run takes well under a second.
pub const RUN_DEADLINE: Duration = Duration::from_secs(10);

/// Times a hung engine call is tried again before the run fails.
const ATTEMPTS: usize = 3;

static HUNG_CALLS: AtomicU64 = AtomicU64::new(0);

/// Engine calls given up as hung so far, and the wall-clock spent
/// waiting for them (taken out of the timed section).
pub fn hung() -> (u64, Duration) {
    let calls = HUNG_CALLS.load(Ordering::SeqCst);
    (calls, RUN_DEADLINE * calls as u32)
}

/// Make `call` on a thread of its own and wait for it for at most
/// [`RUN_DEADLINE`]; `None` if it has not returned by then.
///
/// The pooled `LiveExecutor` of the seed commit can hang at the end of
/// a run: `Pool::task_done` sets `shutdown` and notifies the run-queue
/// condvar without holding the queue's lock, so a worker that has just
/// checked the flag and is about to wait misses the wake-up and sleeps
/// for ever, and `run` never returns (about one run in 2 000 on two
/// cores). The benchmark may not change the engine, and a hang is not a
/// wrong output, so it gives the call up, leaves its threads parked
/// (the one thread this file does not join), reports it, and lets the
/// caller try again.
pub fn guarded<T: Send + 'static>(
    what: &str,
    call: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name("bench-engine-call".into())
        .spawn(move || {
            // The receiver is gone only if the call was given up.
            let _ = tx.send(call());
        })
        .expect("spawn the engine-call thread");
    match rx.recv_timeout(RUN_DEADLINE) {
        Ok(out) => {
            thread
                .join()
                .expect("engine-call thread ends after sending");
            Some(out)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            HUNG_CALLS.fetch_add(1, Ordering::SeqCst);
            eprintln!(
                "benchmark: {what} did not return within {} s; given up as hung, trying again",
                RUN_DEADLINE.as_secs()
            );
            None
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The call panicked; surface the panic here.
            match thread.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the thread sends before it ends"),
            }
        }
    }
}

/// Make `attempt` until it returns, at most [`ATTEMPTS`] times; an
/// attempt that yields `None` had its engine call given up as hung.
pub fn retry_hung<T>(
    what: &str,
    mut attempt: impl FnMut() -> Option<Result<T, String>>,
) -> Result<T, String> {
    (0..ATTEMPTS)
        .find_map(|_| attempt())
        .unwrap_or_else(|| Err(format!("{what} hung {ATTEMPTS} times in a row")))
}

/// One job on `exec`: build the DAG, run it, read the sink; then (off
/// the job clock) digest the rows. A hung run is tried again on a
/// freshly built DAG and only the attempt that returns is timed.
pub fn run_dag(
    exec: &Arc<LiveExecutor>,
    build: impl Fn() -> (Workflow, SinkHandle),
) -> Result<(Timed<Digest>, LiveRunResult), String> {
    retry_hung("LiveExecutor::run", || {
        span::next_job();
        let start = Instant::now();
        let (wf, sink) = {
            let _s = span::enter("workflow.dag.build");
            build()
        };
        let result = {
            let s = span::enter("workflow.exec_live.run");
            let exec = Arc::clone(exec);
            match guarded("LiveExecutor::run", move || exec.run(&wf))? {
                Ok(result) => {
                    attach_busy(&s, &result.metrics);
                    result
                }
                Err(e) => return Some(Err(e.to_string())),
            }
        };
        let rows = {
            let _s = span::enter("workflow.sink.read");
            sink.results()
        };
        let elapsed = start.elapsed();
        let _s = span::enter("bench.row_check");
        let timed = Timed {
            elapsed,
            output: digest(&rows),
            tuples: edge_tuples(&result.trace),
        };
        Some(Ok((timed, result)))
    })
}

/// SplitMix64: the benchmark's only source of randomness, so inputs
/// depend on `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Distinct join keys in the synthetic tables.
pub const KEYS: i64 = 256;

/// Schema of the synthetic fact table.
pub fn fact_schema() -> SchemaRef {
    Schema::of(&[
        ("id", DataType::Int),
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("tag", DataType::Str),
    ])
}

/// `n` fact rows: ascending `id` (so zone maps can prune a range
/// predicate), a random key in `0..KEYS`, a value that is a multiple
/// of 0.25 (sums are exact in any order, so aggregates repeat across
/// thread interleavings), and a short tag.
pub fn facts(seed: u64, n: usize) -> Batch {
    let mut rng = Rng::new(seed);
    let rows = (0..n as i64)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(rng.below(KEYS as u64) as i64),
                Value::Float(rng.below(4096) as f64 * 0.25),
                Value::Str(format!("t{:03}", rng.below(1000))),
            ]
        })
        .collect();
    Batch::from_rows(fact_schema(), rows).expect("generated rows fit the schema")
}

/// The dimension table: one labelled row per key.
pub fn dims(seed: u64) -> Batch {
    let mut rng = Rng::new(seed ^ 0xD1B5_4A32_D192_ED03);
    let schema = Schema::of(&[("k", DataType::Int), ("label", DataType::Str)]);
    let rows = (0..KEYS)
        .map(|k| {
            vec![
                Value::Int(k),
                Value::Str(format!("d{k:03}-{:04x}", rng.below(1 << 16))),
            ]
        })
        .collect();
    Batch::from_rows(schema, rows).expect("generated rows fit the schema")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = facts(1, 50).into_tuples();
        let mut b = a.clone();
        b.reverse();
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&a[1..]));
        assert_ne!(digest(&a), digest(&facts(2, 50).into_tuples()));
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            digest(&facts(9, 100).into_tuples()),
            digest(&facts(9, 100).into_tuples())
        );
        assert_eq!(dims(3).len(), KEYS as usize);
    }

    #[test]
    fn tally_counts_mismatches_and_errors() {
        let mut t = Tally::default();
        let ok = Timed {
            elapsed: Duration::from_millis(2),
            output: 1u8,
            tuples: 10,
        };
        assert_eq!(t.run("a", Ok(ok), |o| *o == 1), Duration::from_millis(2));
        let bad = Timed {
            elapsed: Duration::ZERO,
            output: 2u8,
            tuples: 5,
        };
        t.run("b", Ok(bad), |o| *o == 1);
        t.run::<u8>("c", Err("boom".into()), |_| true);
        assert_eq!((t.attempted, t.failed, t.tuples), (3, 2, 15));
        assert_eq!(t.failures.len(), 2);
    }
}

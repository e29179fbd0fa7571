//! `spill_cache`: one DAG (two scans → hash join → aggregate → sort →
//! sink) run as six legs, so that `datakit::blockstore`/`codec`,
//! `workflow::spill` and `workflow::cache` do most of the work and
//! `exec_live` little. Writes sit beside reads (spill write and
//! read-back, publish and replay), so a trade between them shows.

use std::path::PathBuf;
use std::sync::Arc;

use scriptflow_datakit::{CmpOp, Value};
use scriptflow_workflow::ops::{
    AggFn, AggregateOp, FilterOp, HashJoinOp, ScanOp, SinkHandle, SinkOp, SortOp, SortOrder,
};
use scriptflow_workflow::{
    LiveExecutor, LiveRunResult, PartitionStrategy, PoolStats, ResultCache, Workflow,
    WorkflowBuilder,
};

use super::{executor, facts, run_dag, Digest, Tally, Workload};
use crate::{report, sysinfo};

/// Build-side and probe-side rows. With 256 keys the join emits about
/// `BUILD_ROWS × PROBE_ROWS ÷ 256` ≈ 41 000 rows after the filters: a
/// fifth of ISSUE 11's ceiling, because publishing and replaying the
/// join output dominate the pass and a pass has to take about a second.
pub const BUILD_ROWS: usize = 2_000;
pub const PROBE_ROWS: usize = 6_000;

/// Memory budget of the budgeted leg: far below the build side, the
/// aggregation state and the sort buffer, so all three spill.
pub const MEMORY_BUDGET: usize = 64 << 10;

/// The last filter's literal, and what the edited leg changes it to.
const LAST_FILTER: f64 = 900.0;
const LAST_FILTER_EDITED: f64 = 800.0;

/// The legs of a pass, in order.
pub const LEGS: [&str; 6] = [
    "unbounded",
    "budgeted",
    "cold",
    "warm",
    "edited",
    "evicting",
];

pub struct SpillCache {
    build: Arc<ScanOp>,
    probe: Arc<ScanOp>,
    /// Scratch directory of the persistent caches, emptied every pass.
    dir: PathBuf,
}

/// Rows of the DAG as built, and with the last filter edited.
pub struct Expected {
    base: Digest,
    edited: Digest,
}

/// Counters of one pass the ladder reads.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassCounters {
    pub spilled_blocks: u64,
    pub spilled_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub leg_ms: [f64; 6],
}

impl SpillCache {
    fn dag(&self, last_filter: f64) -> (Workflow, SinkHandle) {
        let width = sysinfo::load_width();
        let by_key = || PartitionStrategy::Hash(vec!["k".into()]);
        let mut b = WorkflowBuilder::new();
        let build = b.add(self.build.clone(), width);
        let probe = b.add(self.probe.clone(), width);
        let keep_build = b.add(
            Arc::new(FilterOp::cmp(
                "build_v_ge",
                "v",
                CmpOp::Ge,
                Value::Float(64.0),
            )),
            width,
        );
        let keep_probe = b.add(
            Arc::new(FilterOp::cmp("probe_k_lt", "k", CmpOp::Lt, Value::Int(240))),
            width,
        );
        let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), width);
        let last = b.add(
            Arc::new(FilterOp::cmp(
                "last_filter",
                "v_r",
                CmpOp::Lt,
                Value::Float(last_filter),
            )),
            width,
        );
        let agg = b.add(
            Arc::new(AggregateOp::new(
                "per_probe_row",
                &["id"],
                vec![AggFn::Count("n".into()), AggFn::Sum("v_r".into())],
            )),
            width,
        );
        let sort = b.add(
            Arc::new(SortOp::new(
                "rank",
                &[
                    ("sum_v_r", SortOrder::Descending),
                    ("id", SortOrder::Ascending),
                ],
            )),
            1,
        );
        let sink_op = Arc::new(SinkOp::new("sink"));
        let handle = sink_op.handle();
        let sink = b.add(sink_op, 1);
        b.connect(build, keep_build, 0, PartitionStrategy::RoundRobin);
        b.connect(probe, keep_probe, 0, PartitionStrategy::RoundRobin);
        b.connect(keep_build, join, 0, by_key());
        b.connect(keep_probe, join, 1, by_key());
        b.connect(join, last, 0, PartitionStrategy::RoundRobin);
        b.connect(last, agg, 0, PartitionStrategy::Hash(vec!["id".into()]));
        b.connect(agg, sort, 0, PartitionStrategy::Single);
        b.connect(sort, sink, 0, PartitionStrategy::Single);
        (b.build().expect("spill_cache DAG is valid"), handle)
    }

    /// A fresh persistent cache in an emptied sub-directory.
    fn fresh_cache(&self, name: &str) -> Result<ResultCache, String> {
        let dir = self.dir.join(name);
        // A missing directory is the expected case on the first pass.
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::persistent(&dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))
    }

    /// One pass; also what the ladder calls for its spill and cache
    /// counters.
    pub fn pass_counted(&mut self, expected: Option<&Expected>, tally: &mut Tally) -> PassCounters {
        let base = expected.map(|e| e.base);
        let require = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_owned()) };
        let mut pass = Pass {
            workload: self,
            tally,
            counters: PassCounters::default(),
        };

        pass.leg(0, &executor(|e| e), LAST_FILTER, base, |_, _| Ok(()));

        let budgeted = executor(|e| e.with_memory_budget(Some(MEMORY_BUDGET)));
        let spilled = pass.leg(1, &budgeted, LAST_FILTER, base, |pool, _| {
            require(pool.spilled_blocks > 0, "budgeted leg spilled nothing")
        });
        if let Some(pool) = spilled.and_then(|r| r.pool) {
            pass.counters.spilled_blocks = pool.spilled_blocks;
            pass.counters.spilled_bytes = pool.spilled_bytes;
        }

        // Cold, warm and edited share one persistent cache.
        let mut cold_published = None;
        match self.fresh_cache("cold") {
            Err(e) => (2..5).for_each(|leg| pass.skip(leg, &e)),
            Ok(cache) => {
                let cached = executor(|e| e.with_result_cache(Arc::new(cache)));
                let cold = pass.leg(2, &cached, LAST_FILTER, base, |_, r| {
                    require(r.cache_published > 0, "cold leg published nothing")
                });
                cold_published = cold.as_ref().map(|r| r.cache_published);
                let warm = pass.leg(3, &cached, LAST_FILTER, base, |pool, _| {
                    require(pool.cache_hits > 0, "warm leg hit nothing")
                });
                let edited = pass.leg(
                    4,
                    &cached,
                    LAST_FILTER_EDITED,
                    expected.map(|e| e.edited),
                    |pool, _| {
                        require(
                            pool.cache_hits > 0 && pool.cache_misses > 0,
                            "edited leg should both replay and recompute",
                        )
                    },
                );
                for pool in [cold, warm, edited]
                    .into_iter()
                    .flatten()
                    .filter_map(|r| r.pool)
                {
                    pass.counters.cache_hits += pool.cache_hits;
                    pass.counters.cache_misses += pool.cache_misses;
                }
            }
        }

        // Cold again under a byte budget below what the cold leg
        // published: committing must evict, and the ledger must balance.
        // ISSUE 11 asks for one byte short, but what a run publishes
        // varies by a few hundred bytes with the order rows arrive in,
        // so one byte short does not always evict; three quarters does.
        match (cold_published, self.fresh_cache("evict")) {
            (None, _) => pass.skip(5, "no cold leg to size the byte budget from"),
            (_, Err(e)) => pass.skip(5, &e),
            (Some(published), Ok(cache)) => {
                let cache = Arc::new(cache.with_byte_budget((published * 3 / 4).max(1)));
                let exec = executor(|e| e.with_result_cache(cache.clone()));
                let evicting = pass.leg(5, &exec, LAST_FILTER, base, |pool, r| {
                    require(pool.cache_evictions > 0, "evicting leg evicted nothing")?;
                    let (live, evicted) = (cache.bytes(), cache.evicted_bytes());
                    require(
                        live + evicted == r.cache_published,
                        &format!(
                            "byte ledger: live {live} + evicted {evicted} != published {}",
                            r.cache_published
                        ),
                    )
                });
                if let Some(pool) = evicting.and_then(|r| r.pool) {
                    pass.counters.cache_evictions = pool.cache_evictions;
                }
            }
        }

        let counters = pass.counters;
        tally.job_ms.push(counters.leg_ms.iter().sum());
        counters
    }
}

/// One pass in progress: where its legs are accounted.
struct Pass<'a> {
    workload: &'a SpillCache,
    tally: &'a mut Tally,
    counters: PassCounters,
}

impl Pass<'_> {
    /// Run leg `leg` on `exec`, require `holds` of its result (the leg
    /// did what it is there to measure), check its rows against
    /// `want`, and account it. Returns the result of a leg that ran.
    fn leg(
        &mut self,
        leg: usize,
        exec: &Arc<LiveExecutor>,
        last_filter: f64,
        want: Option<Digest>,
        holds: impl FnOnce(&PoolStats, &LiveRunResult) -> Result<(), String>,
    ) -> Option<LiveRunResult> {
        let ran = run_dag(exec, || self.workload.dag(last_filter)).and_then(|(timed, result)| {
            let pool = result.pool.expect("pooled runs report pool stats");
            holds(&pool, &result)?;
            Ok((timed, result))
        });
        let (outcome, result) = match ran {
            Ok((timed, result)) => (Ok(timed), Some(result)),
            Err(e) => (Err(e), None),
        };
        let took = self
            .tally
            .run(LEGS[leg], outcome, |d| want.is_none_or(|w| *d == w));
        self.counters.leg_ms[leg] = took.as_secs_f64() * 1e3;
        result
    }

    /// Account a leg that could not be run as failed.
    fn skip(&mut self, leg: usize, why: &str) {
        self.tally.attempted += 1;
        self.tally.fail(format!("{}: {why}", LEGS[leg]));
    }
}

impl Drop for SpillCache {
    fn drop(&mut self) {
        // Scratch only; a leftover directory is emptied by the next run.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for SpillCache {
    type Expected = Expected;

    fn setup(seed: u64) -> SpillCache {
        SpillCache {
            build: Arc::new(ScanOp::new("build", facts(seed ^ 0xB, BUILD_ROWS))),
            probe: Arc::new(ScanOp::new("probe", facts(seed ^ 0xA, PROBE_ROWS))),
            dir: report::out_dir().join(format!("cache-{}", std::process::id())),
        }
    }

    fn runs_per_pass(&self) -> u64 {
        LEGS.len() as u64
    }

    /// The unbounded, cache-free DAG on the thread-per-worker executor.
    fn reference(&self) -> Expected {
        let solo = Arc::new(LiveExecutor::thread_per_worker(super::BATCH_SIZE));
        let rows = |literal: f64| {
            run_dag(&solo, || self.dag(literal))
                .unwrap_or_else(|e| panic!("spill_cache reference: {e}"))
                .0
                .output
        };
        Expected {
            base: rows(LAST_FILTER),
            edited: rows(LAST_FILTER_EDITED),
        }
    }

    fn pass(&mut self, expected: Option<&Expected>, tally: &mut Tally) {
        self.pass_counted(expected, tally);
    }
}

//! Allocation pin (ROADMAP item 2a): heap allocations per source tuple on
//! the `stream_relational` DAG shapes (sealed scans, column kernels), on
//! a `paper_tasks`-shaped UDF chain (row edges), on DICE's own DAG and on
//! a `spill_cache`-shaped join-aggregate run cache-free, under a memory
//! budget, cache-armed cold and edited (per tuple replayed), and on WEF's
//! training (per tweet),
//! counted by this binary's own `#[global_allocator]`; and, per byte of
//! input, what the decoders of outside data allocate: a stored segment,
//! a progress trace, a workflow spec and a result cache's `MANIFEST`. A
//! count is exact where wall-clock on a 2-vCPU sandbox needs ten A/B
//! pairs, so a k-fold clone on the data path fails here first.
//!
//! One job is what the frozen benchmark times: build the DAG over a
//! shared scan, run it at `pool_size = 1`, read the sink.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scriptflow::core::Calibration;
use scriptflow::core::OpFingerprint;
use scriptflow::datagen::wildfire::WildfireDataset;
use scriptflow::datakit::blockstore::decode_blocks;
use scriptflow::datakit::{
    Batch, BlockAppender, CmpOp, ColumnarBatch, DataType, Schema, Segment, Value,
};
use scriptflow::simcluster::SimDuration;
use scriptflow::simcluster::SplitMix64;
use scriptflow::tasks::dice::{workflow::build_dice_workflow, DiceParams};
use scriptflow::tasks::wef;
use scriptflow::workflow::ops::SinkHandle;
use scriptflow::workflow::ops::{AggFn, AggregateOp, FilterOp, HashJoinOp, ScanOp, SinkOp, UdfOp};
use scriptflow::workflow::trace::TraceJson;
use scriptflow::workflow::{
    spec, EngineConfig, LiveExecutor, OperatorFactory, PartitionStrategy, ResultCache, SimExecutor,
    Workflow, WorkflowBuilder,
};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested: each allocation's size, and each reallocation's
/// growth.
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are relaxed statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let grown = new_size.saturating_sub(layout.size());
        BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TUPLES: usize = 100_000;
const KEYS: i64 = 256;
const BATCH_SIZE: usize = 1024;
const WIDTH: usize = 2;

/// The benchmark's fact table shape: ascending `id`, a random key, a
/// value that is a multiple of 0.25, a short tag.
fn facts() -> Batch {
    let mut rng = SplitMix64::new(1);
    let schema = Schema::of(&[
        ("id", DataType::Int),
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("tag", DataType::Str),
    ]);
    let rows = (0..TUPLES as i64)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(rng.range(0..KEYS as usize) as i64),
                Value::Float(rng.range(0..4096usize) as f64 * 0.25),
                Value::Str(format!("t{:03}", rng.range(0..1000usize))),
            ]
        })
        .collect();
    Batch::from_rows(schema, rows).unwrap()
}

fn dims() -> Batch {
    let schema = Schema::of(&[("k", DataType::Int), ("label", DataType::Str)]);
    let rows = (0..KEYS)
        .map(|k| vec![Value::Int(k), Value::Str(format!("d{k:03}"))])
        .collect();
    Batch::from_rows(schema, rows).unwrap()
}

/// A paper task's rows: a document and its token ids, cells a
/// `ColumnarBatch` can only hold by deep copy.
fn docs() -> Batch {
    let schema = Schema::of(&[("text", DataType::Str), ("tokens", DataType::List)]);
    let rows = (0..TUPLES as i64)
        .map(|id| {
            let text = format!("document {id:06} of the corpus, long enough for a heap buffer");
            let tokens = (0..4).map(|j| Value::Int(id + j)).collect();
            vec![Value::Str(text), Value::List(tokens)]
        })
        .collect();
    Batch::from_rows(schema, rows).unwrap()
}

#[derive(Clone, Copy)]
enum Leg {
    FilterChain,
    Selective,
    JoinAggregate,
    UdfChain,
    /// `JoinAggregate` with a comparison filter in front of each join
    /// input: two scans → filters → hash join → grouped aggregate.
    SpillCache,
    /// The same DAG under [`SPILL_CACHE_BUDGET`]: the aggregate spills.
    SpillCacheBudgeted,
    /// The same DAG recording into an empty result cache, commit included.
    SpillCacheCold,
    /// `SpillCache` with a comparison filter between the join and the
    /// aggregate, rerun on the cache its cold run filled with that
    /// filter's literal (carried here) edited: the join is served, its
    /// inputs skipped.
    SpillCacheEdited(i64),
    /// The paper's DICE DAG as `paper_tasks` runs it: 1 000 document
    /// pairs, width 2, the calibrated edge batch of 400.
    Dice,
}

/// Allocations per source tuple of one job (per replayed tuple of the
/// edited leg), and its work counts: `name in>out` per operator, zone-map
/// skips, batches sent.
fn job(leg: Leg, scans: &[Arc<ScanOp>; 3]) -> (f64, String) {
    let mut exec = LiveExecutor::new(BATCH_SIZE).with_pool_size(1);
    match leg {
        Leg::Dice => return dice_job(),
        Leg::SpillCacheEdited(edited) => return edited_job(exec, scans, edited),
        Leg::SpillCacheCold => exec = exec.with_result_cache(Arc::new(ResultCache::new())),
        Leg::SpillCacheBudgeted => exec = exec.with_memory_budget(Some(SPILL_CACHE_BUDGET)),
        _ => {}
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (wf, handle) = dag(leg, scans);
    let (spent, counts) = run_and_read(&exec, &wf, &handle, "sink", before);
    (spent as f64 / TUPLES as f64, counts)
}

/// [`Leg::SpillCacheEdited`]: the cold run fills a fresh cache and is not
/// counted; the rerun with the last filter's literal edited is, per tuple
/// the served join replays.
fn edited_job(exec: LiveExecutor, scans: &[Arc<ScanOp>; 3], edited: i64) -> (f64, String) {
    let exec = exec.with_result_cache(Arc::new(ResultCache::new()));
    exec.run(&dag(Leg::SpillCacheEdited(90_000), scans).0)
        .unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (wf, handle) = dag(Leg::SpillCacheEdited(edited), scans);
    let (spent, counts) = run_and_read(&exec, &wf, &handle, "sink", before);
    (spent as f64 / EDITED_REPLAYED as f64, counts)
}

/// The DAG of `leg` over the shared scans.
fn dag(leg: Leg, [facts, dims, docs]: &[Arc<ScanOp>; 3]) -> (Workflow, SinkHandle) {
    let mut b = WorkflowBuilder::new();
    let source = if matches!(leg, Leg::UdfChain) {
        docs
    } else {
        facts
    };
    let scan = b.add(source.clone(), WIDTH);
    let sink_op = SinkOp::new("sink");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);
    match leg {
        Leg::FilterChain => {
            let f1 = b.add(
                Arc::new(FilterOp::cmp("k_lt", "k", CmpOp::Lt, Value::Int(200))),
                WIDTH,
            );
            let f2 = b.add(
                Arc::new(FilterOp::cmp("v_ge", "v", CmpOp::Ge, Value::Float(256.0))),
                WIDTH,
            );
            b.connect(scan, f1, 0, PartitionStrategy::RoundRobin);
            b.connect(f1, f2, 0, PartitionStrategy::RoundRobin);
            b.connect(f2, sink, 0, PartitionStrategy::Single);
        }
        Leg::Selective => {
            let n = TUPLES as i64;
            let top = b.add(
                Arc::new(FilterOp::cmp(
                    "top",
                    "id",
                    CmpOp::Ge,
                    Value::Int(n - n / 100),
                )),
                WIDTH,
            );
            b.connect(scan, top, 0, PartitionStrategy::RoundRobin);
            b.connect(top, sink, 0, PartitionStrategy::Single);
        }
        Leg::JoinAggregate
        | Leg::SpillCache
        | Leg::SpillCacheBudgeted
        | Leg::SpillCacheCold
        | Leg::SpillCacheEdited(_) => {
            let (mut build, mut probe) = (b.add(dims.clone(), 1), scan);
            if !matches!(leg, Leg::JoinAggregate) {
                let keep_dims = FilterOp::cmp("dims_k_lt", "k", CmpOp::Lt, Value::Int(240));
                let keep_facts = FilterOp::cmp("facts_v_ge", "v", CmpOp::Ge, Value::Float(64.0));
                let (keep_dims, keep_facts) = (
                    b.add(Arc::new(keep_dims), 1),
                    b.add(Arc::new(keep_facts), WIDTH),
                );
                b.connect(build, keep_dims, 0, PartitionStrategy::RoundRobin);
                b.connect(probe, keep_facts, 0, PartitionStrategy::RoundRobin);
                (build, probe) = (keep_dims, keep_facts);
            }
            let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), WIDTH);
            let agg = b.add(
                Arc::new(AggregateOp::new(
                    "per_key",
                    &["k", "label"],
                    vec![AggFn::Count("n".into()), AggFn::Sum("v".into())],
                )),
                WIDTH,
            );
            b.connect(build, join, 0, PartitionStrategy::Broadcast);
            b.connect(probe, join, 1, PartitionStrategy::RoundRobin);
            let mut joined = join;
            if let Leg::SpillCacheEdited(last_filter) = leg {
                let last = FilterOp::cmp("last_id_lt", "id", CmpOp::Lt, Value::Int(last_filter));
                joined = b.add(Arc::new(last), WIDTH);
                b.connect(join, joined, 0, PartitionStrategy::RoundRobin);
            }
            b.connect(joined, agg, 0, PartitionStrategy::Hash(vec!["k".into()]));
            b.connect(agg, sink, 0, PartitionStrategy::Single);
        }
        Leg::Dice => unreachable!("built by `dice_job`"),
        Leg::UdfChain => {
            let schema = source.output_schema(&[]).unwrap();
            let [m1, m2] = ["map1", "map2"].map(|name| {
                let map = UdfOp::new(name, schema.clone(), |t, _, out| {
                    out.emit(t);
                    Ok(())
                });
                b.add(Arc::new(map), WIDTH)
            });
            b.connect(scan, m1, 0, PartitionStrategy::RoundRobin);
            b.connect(m1, m2, 0, PartitionStrategy::RoundRobin);
            b.connect(m2, sink, 0, PartitionStrategy::Single);
        }
    }
    (b.build().unwrap(), handle)
}

/// Run `wf`, read its sink, and return the allocations since `before`
/// beside the run's work counts.
fn run_and_read(
    exec: &LiveExecutor,
    wf: &Workflow,
    handle: &SinkHandle,
    sink: &str,
    before: u64,
) -> (u64, String) {
    let run = exec.run(wf).unwrap();
    let rows = handle.results();
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let pool = run.pool.unwrap();
    let mut counts: String = run
        .metrics
        .operators
        .iter()
        .map(|m| format!("{} {}>{}, ", m.name, m.input_tuples, m.output_tuples))
        .collect();
    counts += &format!(
        "{} skipped, {} sent",
        pool.batches_skipped, pool.batches_sent
    );
    assert_eq!(
        rows.len() as u64,
        run.metrics.by_name(sink).unwrap().input_tuples
    );
    (spent, counts)
}

/// [`Leg::Dice`], counted from the built DAG on (building it generates
/// the dataset): the run and the sink read, per annotation scanned.
fn dice_job() -> (f64, String) {
    let cal = Calibration::paper();
    let (wf, handle) = build_dice_workflow(&DiceParams::new(1_000, WIDTH), &cal).unwrap();
    let exec = LiveExecutor::new(cal.wf_batch_size).with_pool_size(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (spent, counts) = run_and_read(&exec, &wf, &handle, "Results", before);
    (spent as f64 / handle.len() as f64, counts)
}

/// Rows the cold run's join published, and the edited rerun replays.
const EDITED_REPLAYED: usize = 88_068;

/// Budget of [`Leg::SpillCacheBudgeted`], per operator instance: above
/// the join's build side (240 rows of about 42 bytes, broadcast whole to
/// each instance), below either aggregate instance's share of the 240
/// groups (about 130 bytes each).
const SPILL_CACHE_BUDGET: usize = 12 << 10;

/// Armed or not, the cache leaves the computed DAG's work as it is.
const SPILL_CACHE_WORK: &str = "facts 0>100000, sink 240>0, dims 0>256, dims_k_lt 256>240, \
     facts_v_ge 100000>93914, join 94394>88068, per_key 88068>240, 0 skipped, 397 sent";

/// DICE's 13 operators at 1 000 pairs. ISSUE 21's parent sent the same
/// tuples in 23 770 batches.
const DICE_WORK: &str = "Annotations Scan 0>26000, Sentences Scan 0>8000, \
     Parse Annotations 26000>26000, Entities 26000>18000, Triggered Events 26000>6503, \
     Held-out Events 26000>1497, Resolve Triggers 24503>6503, Normalize Entities 18000>18000, \
     Normalize Events 6503>6503, Normalize Held-out 1497>1497, Union 26000>26000, \
     Link Sentences 42000>26000, Results 26000>0, 0 skipped, 659 sent";

/// One test, so nothing else in this binary allocates while a job is
/// being counted.
#[test]
fn allocations_per_source_tuple_stay_inside_their_budgets() {
    let scans = [("facts", facts()), ("dims", dims()), ("docs", docs())]
        .map(|(name, data)| Arc::new(ScanOp::new(name, data)));
    // Ceilings. Before sealed batches travelled whole (ISSUE 18's parent)
    // the first three legs read 11.92, 5.18 and 16.14; at ISSUE 19's
    // parent 2.59, 0.09 and 7.11 (reported, not pinned), and the UDF chain
    // 6.10 on row edges, 16.25 with every hop sealing and unsealing. The
    // work counts are ISSUE 18's parent's, to the batch: the data path may
    // change how a batch travels, not which batches exist. The first job
    // also pays the scan's one-time seal and digest, as the benchmark's
    // warm-up pass does, so each leg is counted on its second job.
    // At ISSUE 20's parent the legs read 2.59, 0.09, 7.14, 6.10 and the
    // two `spill_cache` legs 6.56 and 19.95; with the edge payload holding
    // its `ColumnarBatch` directly 2.58 and 6.55, and recording where
    // output is routed 19.91 cold (sealed runs are recorded as shared
    // batches and turned into rows once, at commit, where the parent
    // cloned every row as it was emitted).
    // At ISSUE 21's parent the six legs read 2.58, 0.09, 7.14, 6.10, 6.55
    // and 19.91, and DICE 53.21. With tuple values behind one shared
    // allocation (a clone copies nothing, a row built in place is one
    // allocation), row edges coalescing to full batches and the sink
    // keeping sealed batches for its reader: 1.41, 0.07, 7.10, 0.04, 6.50,
    // 17.21 and 16.77. Tuple counts and skips are the parent's; `sent`
    // fell on every leg with a scattered row edge (592, 980, 1 377 before)
    // and stayed where only sealed batches travel.
    // At ISSUE 22's parent: 1.41, 0.07, 7.10, 0.04, 6.50, 17.21 and 16.77.
    // With the join probing and the grouped aggregate folding sealed
    // batches on their columns, and commit sealing recorded batches as
    // blocks: `join_aggregate` 0.24, `spill_cache` 0.49, cold 7.21 (what
    // is left of it is the block store encoding through boxed rows), the
    // other four where they were. Tuple counts and skips are the
    // parent's. `sent` moved on the three legs whose join now emits
    // sealed batches, 304 -> 592 and 688 -> 1 377: the join's hash-
    // scattered out-edge carries each sealed batch as `w`-ths
    // (`Pool::forward_columnar` has always scattered a sealed batch that
    // way; ISSUE 21 coalesced row edges only), where it carried the same
    // rows coalesced to full batches. No coalescing of sealed batches
    // here: ROADMAP item 2(c).
    // At ISSUE 24's parent the seven legs read as above. With the block
    // codec writing and reading columns, cold is 0.58 (the 6.6 a tuple it
    // lost were the boxed rows `seal` encoded through); the other six, and
    // every tuple count, skip and `sent`, did not move. The edited leg is
    // new: its join is served as sealed batches, so `last_id_lt` prunes 22
    // of them on their statistics and the rerun costs 0.19 allocations per
    // replayed tuple. Served as rows (the parent) the same rerun reads
    // 8.72 and skips nothing; its 162 `sent` are coalesced row batches
    // where these 480 are sealed batches crossing scattered edges as
    // `w`-ths.
    // At ISSUE 25's parent the eight legs read 1.41, 0.07, 0.24, 0.04,
    // 0.49, 0.58, 0.19 and 16.77. With a source's chunks entering through
    // `Pool::consume` (a pass-through operator re-emits each chunk into
    // the step's collector, which regrows per chunk) `udf_chain` reads
    // 0.05 and DICE 16.79; the other six, and every tuple count, skip and
    // `sent`, did not move.
    // With column-major blocks (segment format v2), a recorded batch
    // sealed range by range instead of gathered per block first: cold
    // reads 0.53 where it read 0.58; the other seven, and every tuple
    // count, skip and `sent`, did not move.
    // The budgeted leg is new: both aggregate instances spill, the join
    // does not. While a budgeted aggregate unrolled every sealed batch into
    // rows and spilled one partial tuple a group, it read 8.39; folding
    // batches on their columns and spilling sealed partial batches, 5.13.
    // With a recording sealing each batch it is teed (one `Vec` of blocks
    // a tee, where it kept the batch until commit), cold reads 0.42 where
    // it read 0.41 and edited 0.15 where it read 0.14 (0.4120 -> 0.4177
    // and 0.1449 -> 0.1466 to four places); the other seven, and every
    // tuple count, skip and `sent`, did not move.
    // With sealed sources dealing contiguous chunks and round-robin edges
    // moving sealed batches whole, instead of splitting each into `w`
    // gathered halves, every leg whose scan is sealed moved, to four
    // places: `filter_chain` 1.3705 -> 1.2365, `selective_filter` 0.0570
    // -> 0.0413, `join_aggregate` 0.1982 -> 0.1193, `spill_cache` 0.4019
    // -> 0.1391, budgeted 5.1338 -> 4.8539, cold 0.4177 -> 0.1490 and
    // edited 0.1466 -> 0.0871; `udf_chain` and DICE (row edges) did not.
    // Every tuple count is the parent's. `sent` fell on each of those
    // legs (980 -> 294, 200 -> 100, 592 -> 298, 1 377 -> 397, 480 -> 241)
    // and the skips with it (192 -> 96, 22 -> 11): a skipped batch is now
    // a whole chunk where it was one of its two halves.
    let legs = [
        (
            "filter_chain",
            Leg::FilterChain,
            1.6,
            "facts 0>100000, sink 58629>0, k_lt 100000>78089, v_ge 78089>58629, \
             0 skipped, 294 sent",
        ),
        (
            "selective_filter",
            Leg::Selective,
            1.0,
            "facts 0>100000, sink 1000>0, top 100000>1000, 96 skipped, 100 sent",
        ),
        (
            "join_aggregate",
            Leg::JoinAggregate,
            1.0,
            "facts 0>100000, sink 256>0, dims 0>256, join 100512>100000, \
             per_key 100000>256, 0 skipped, 298 sent",
        ),
        (
            "udf_chain",
            Leg::UdfChain,
            1.0,
            "docs 0>100000, sink 100000>0, map1 100000>100000, map2 100000>100000, \
             0 skipped, 298 sent",
        ),
        ("spill_cache", Leg::SpillCache, 1.0, SPILL_CACHE_WORK),
        (
            "spill_cache_budgeted",
            Leg::SpillCacheBudgeted,
            6.0,
            SPILL_CACHE_WORK,
        ),
        (
            "spill_cache_cold",
            Leg::SpillCacheCold,
            1.0,
            SPILL_CACHE_WORK,
        ),
        (
            "spill_cache_edited",
            Leg::SpillCacheEdited(80_000),
            0.3,
            "sink 240>0, join 0>88068, per_key 70448>240, last_id_lt 88068>70448, \
             11 skipped, 241 sent",
        ),
        ("dice", Leg::Dice, 18.0, DICE_WORK),
    ];
    for (name, leg, ceiling, work) in legs {
        job(leg, &scans);
        let (per_tuple, counts) = job(leg, &scans);
        println!("{name}: {per_tuple:.2} allocations per source tuple; {counts}");
        assert_eq!(counts, work, "{name}");
        assert!(
            per_tuple <= ceiling,
            "{name}: {per_tuple:.2} allocations per source tuple, ceiling {ceiling}"
        );
    }
    // WEF's training is not a DAG: both paradigms call `train_and_predict`
    // inside one operator or cell. It read 97.10 allocations a tweet while
    // each tweet was tokenized four times (vocabulary, document
    // frequencies, training transform, predict-time transform) into one
    // `String` a token and each transform counted terms in a `HashMap`;
    // tokenized once, 13.21.
    let per_tweet = wef_job();
    println!("wef: {per_tweet:.2} allocations per tweet");
    assert!(
        per_tweet <= 13.5,
        "wef: {per_tweet:.2} allocations per tweet, ceiling 13.5"
    );
    // A stored segment is read from disk, so what decoding one allocates
    // is bounded by its length, whatever its counts claim.
    let (per_byte, served, refused) = segment_decode_bytes();
    println!(
        "segment decode: at most {per_byte:.2} bytes allocated per input byte \
         ({served} served, {refused} refused)"
    );
    assert!(
        per_byte <= DECODE_BYTES_PER_INPUT_BYTE,
        "segment decode: {per_byte:.2} bytes allocated per input byte, \
         ceiling {DECODE_BYTES_PER_INPUT_BYTE}"
    );
    // The text decoders: what each allocates beyond its cost on an empty
    // document, per input byte, at worst over 1 200 mutants of a real one.
    for (name, per_byte, ceiling) in text_decode_bytes() {
        println!(
            "{name}: at most {per_byte:.2} bytes allocated per input byte (ceiling {ceiling})"
        );
        assert!(
            per_byte <= ceiling,
            "{name}: {per_byte:.2} bytes allocated per input byte, ceiling {ceiling}"
        );
    }
}

/// A small declarative workflow: two inline scans, a filter, a join, an
/// aggregate and a sink. Its text is the spec decoder's input, and the
/// simulator's trace of it the trace decoder's.
const SPEC: &str = r#"{
    "operators": [
        {"id": "facts", "type": "InlineScan", "workers": 2,
         "schema": [["k", "Int"], ["x", "Float"], ["tag", "Str"]],
         "rows": [[1, 5.0, "a"], [2, 0.5, "b"], [1, 7.0, "c"], [3, 9.0, "d"],
                  [2, 8.0, "e"], [1, 0.1, "f"], [3, 4.0, "g"], [2, 6.0, "h"]]},
        {"id": "dims", "type": "InlineScan",
         "schema": [["k", "Int"], ["label", "Str"]],
         "rows": [[1, "a"], [2, "b"], [3, "c"]]},
        {"id": "big", "type": "Filter",
         "predicate": {"column": "x", "op": ">", "value": 1.0}},
        {"id": "join", "type": "HashJoin", "probe": ["k"], "build": ["k"]},
        {"id": "agg", "type": "Aggregate", "group_by": ["label"],
         "aggregations": ["count as n", "sum(x)"]},
        {"id": "out", "type": "Sink"}
    ],
    "links": [
        {"from": "facts", "to": "big", "port": 0, "partition": "round-robin"},
        {"from": "dims", "to": "join", "port": 0, "partition": "hash", "keys": ["k"]},
        {"from": "big", "to": "join", "port": 1, "partition": "hash", "keys": ["k"]},
        {"from": "join", "to": "agg", "port": 0, "partition": "hash", "keys": ["label"]},
        {"from": "agg", "to": "out", "port": 0, "partition": "single"}
    ]
}"#;

/// Ceilings, in bytes allocated per input byte beyond the empty
/// document's cost, for the trace, spec and `MANIFEST` decoders. A
/// decoder that sized a buffer by a number it read, not by the bytes
/// it was given, would blow through them on the forged counts
/// [`mutant`] writes. Measured worsts: trace 9.63, spec 13.83,
/// manifest 13.70.
const TEXT_BYTES_PER_INPUT_BYTE: [f64; 3] = [16.0, 24.0, 24.0];

/// Mutants per text decoder.
const TEXT_MUTANTS: usize = 1_200;

/// `doc` after one seeded edit: one to four bytes replaced, a number
/// forged to `u64::MAX`, a span duplicated, or the tail cut.
fn mutant(doc: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    let at = rng.range(0..bytes.len());
    match rng.range(0..4usize) {
        0 => {
            for _ in 0..rng.range(1..5usize) {
                let at = rng.range(0..bytes.len());
                let alphabet = b"[]{}\",:-.0123456789 \n";
                bytes[at] = alphabet[rng.range(0..alphabet.len())];
            }
        }
        1 => {
            let digit = bytes[at..].iter().position(u8::is_ascii_digit);
            if let Some(start) = digit.map(|d| at + d) {
                let len = bytes[start..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
                let forged = u64::MAX.to_string().into_bytes();
                bytes.splice(start..start + len, forged);
            }
        }
        2 => {
            let end = (at + rng.range(1..256usize)).min(bytes.len());
            let span = bytes[at..end].to_vec();
            bytes.splice(at..at, span);
        }
        _ => bytes.truncate(at),
    }
    bytes
}

/// Bytes allocated while `f` runs.
fn bytes_in(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    f();
    BYTES.load(Ordering::Relaxed) - before
}

/// Worst bytes a decoder allocates per input byte over [`TEXT_MUTANTS`]
/// mutants of `doc`, beyond what it allocates for an empty input (its
/// fixed cost: an error message, a path, an empty map). `spent` decodes
/// one input and returns what the decoder allocated ([`bytes_in`]).
fn worst_per_byte(doc: &[u8], seed: u64, spent: impl Fn(&[u8]) -> u64) -> f64 {
    let fixed = spent(b"");
    let mut rng = SplitMix64::new(seed);
    (0..TEXT_MUTANTS)
        .map(|_| mutant(doc, &mut rng))
        .map(|input| spent(&input).saturating_sub(fixed) as f64 / input.len().max(1) as f64)
        .fold(0.0, f64::max)
}

/// `(decoder, worst bytes allocated per input byte, ceiling)` for
/// `TraceJson::parse` over the simulator's trace of [`SPEC`], for
/// `spec::parse` over [`SPEC`] itself, and for `ResultCache::persistent`
/// loading the `MANIFEST` of a store of 24 entries (its segments left in
/// place, so every line the index keeps is one it would serve).
fn text_decode_bytes() -> [(&'static str, f64, f64); 3] {
    let wf = spec::parse(SPEC).expect("the spec is valid").workflow;
    let sim = |exec: SimExecutor| exec.run(&wf).expect("the spec runs");
    let makespan = sim(SimExecutor::new(EngineConfig::default())).makespan();
    let interval = SimDuration::from_micros(makespan.as_micros() / 5);
    let run = sim(SimExecutor::new(EngineConfig::default()).with_trace(interval));
    let trace = TraceJson::from_trace(&run.trace).to_string_compact();
    let text = |input: &[u8]| String::from_utf8_lossy(input).into_owned();
    let trace = worst_per_byte(trace.as_bytes(), 0x7ace, |input| {
        let input = text(input);
        bytes_in(|| drop(TraceJson::parse(&input)))
    });
    let spec = worst_per_byte(SPEC.as_bytes(), 0x5bec, |input| {
        let input = text(input);
        bytes_in(|| drop(spec::parse(&input)))
    });

    let dir =
        std::env::temp_dir().join(format!("scriptflow-alloc-manifest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::persistent(&dir).expect("open store");
    let schema = Schema::of(&[("k", DataType::Int)]);
    for fp in 1..=24u64 {
        let rows = Batch::from_rows(
            schema.clone(),
            vec![vec![Value::Int(fp as i64)]; fp as usize],
        );
        let rows = rows.expect("rows conform").into_tuples();
        let cost = SimDuration::from_micros(10 * fp);
        cache.publish_costed(OpFingerprint(fp.into()), &schema, &rows, cost);
    }
    drop(cache);
    let path = dir.join("MANIFEST");
    let doc = std::fs::read(&path).expect("the index");
    let manifest = worst_per_byte(&doc, 0xca5e, |input| {
        std::fs::write(&path, input).expect("write index");
        bytes_in(|| drop(ResultCache::persistent(&dir).expect("the directory opens")))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let [t, s, m] = TEXT_BYTES_PER_INPUT_BYTE;
    [
        ("trace decode", trace, t),
        ("spec decode", spec, s),
        ("manifest load", manifest, m),
    ]
}

/// Most bytes [`Segment::decode`] plus [`decode_blocks`] may allocate per
/// byte of the image they read: the block store sizes its builders by
/// what the bytes could hold, not by the counts they claim. A decoded int
/// cell is 8 bytes for at least 1 stored, a string's end offset 8 for a
/// 1-byte length; the worst mutation of [`segment_decode_bytes`] reads
/// 17.2.
const DECODE_BYTES_PER_INPUT_BYTE: f64 = 24.0;

/// The trailing checksum of a segment image since version 2: FNV-1a-64 folded
/// over 8-byte little-endian words, then the tail bytes, then the length.
fn checksum(bytes: &[u8]) -> u64 {
    let fold = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        fold(h, u64::from_le_bytes(w.try_into().expect("8 bytes")))
    });
    let h = tail.iter().fold(h, |h, &b| fold(h, b.into()));
    fold(h, bytes.len() as u64)
}

/// 2 400 seeded mutations of a real segment image — bytes flipped, a
/// count or length forged to `u32::MAX`, the image truncated — each
/// under a fresh checksum, so the decoder reads what the mutation left.
/// Returns the most bytes `Segment::decode` plus `decode_blocks`
/// allocated per input byte, and how many images decoded and how many
/// were refused.
fn segment_decode_bytes() -> (f64, usize, usize) {
    let schema = Schema::of(&[
        ("id", DataType::Int),
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("tag", DataType::Str),
        ("hit", DataType::Bool),
        ("l", DataType::List),
    ]);
    let mut rng = SplitMix64::new(0xA110C);
    let rows: Vec<Vec<Value>> = (0..700i64)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(rng.range(0..KEYS as usize) as i64),
                Value::Float(rng.range(0..4096usize) as f64 * 0.25),
                Value::Str(format!("t{:03}", rng.range(0..1000usize))),
                Value::Bool(id % 3 == 0),
                Value::List(vec![Value::Int(id), Value::Null]),
            ]
        })
        .collect();
    let batch = ColumnarBatch::from_rows(schema, rows).expect("rows conform");
    let mut app = BlockAppender::new();
    app.append_range(&batch, 0..512);
    app.append_range(&batch, 512..batch.len());
    let image = app.seal().encode();

    let (mut worst, mut served, mut refused) = (0.0f64, 0, 0);
    for _ in 0..2_400 {
        let mut bytes = image.clone();
        let body = bytes.len() - 8;
        match rng.range(0..3usize) {
            0 => {
                for _ in 0..rng.range(1..5usize) {
                    let at = rng.range(0..body);
                    bytes[at] ^= rng.range(1..256usize) as u8;
                }
            }
            1 => {
                let at = rng.range(0..body - 4);
                bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
            _ => bytes.truncate(rng.range(8..bytes.len())),
        }
        let body = bytes.len() - 8;
        let sum = checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());

        let before = BYTES.load(Ordering::Relaxed);
        let decoded = Segment::decode(&bytes).and_then(|seg| decode_blocks(seg.blocks()));
        let spent = BYTES.load(Ordering::Relaxed) - before;
        match decoded {
            Ok(_) => served += 1,
            Err(_) => refused += 1,
        }
        worst = worst.max(spent as f64 / bytes.len() as f64);
    }
    (worst, served, refused)
}

/// `wef::train_and_predict` at `paper_tasks`' 10 000 tweets (seed 1),
/// counted from the generated dataset on: allocations per tweet.
fn wef_job() -> f64 {
    let tweets = 10_000;
    let ds = WildfireDataset::generate(tweets, 1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let rows = wef::train_and_predict(&ds);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(rows.len(), tweets);
    spent as f64 / tweets as f64
}

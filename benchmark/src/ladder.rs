//! The per-layer ladder: one number per layer (crate.module), measured
//! by timing calls into public functions on batches taken from the
//! workloads. Every measured call sits in a span, so the traced run's
//! self-time table covers the ladder too.
//!
//! `benchmark/README.md` lists, for each metric, the end-to-end metric
//! and workload it should move.

use std::sync::Arc;
use std::time::{Duration, Instant};

use scriptflow_core::{BackendKind, OpFingerprint};
use scriptflow_datakit::blockstore::{BlockAppender, CompressedBlock, Segment};
use scriptflow_datakit::codec::{self, Json};
use scriptflow_datakit::{Batch, CmpOp, ColumnarBatch, HashKey, Tuple, Value};
use scriptflow_mlkit::logreg::TrainConfig;
use scriptflow_mlkit::{EmbeddingTable, KgeScorer, LogisticRegression, TfIdfVectorizer};
use scriptflow_workflow::ops::{
    AggFn, AggregateOp, FilterOp, HashJoinOp, ScanOp, SinkOp, SortOp, SortOrder,
};
use scriptflow_workflow::spill::{self, SPILL_BLOCK_ROWS};
use scriptflow_workflow::{
    LiveExecutor, LiveRunResult, OperatorFactory, OutputCollector, PartitionStrategy, ResultCache,
    WorkflowBuilder,
};

use crate::report::{self, Metric};
use crate::workloads::paper_tasks::{self, PaperTasks, TASKS};
use crate::workloads::service_mix::ServiceMix;
use crate::workloads::spill_cache::SpillCache;
use crate::workloads::stream_relational::{self, StreamRelational};
use crate::workloads::{fact_schema, facts, run_dag, Tally, Workload, BATCH_SIZE};
use crate::{span, stats, sysinfo};

/// Rows the kernel-level rungs work on.
const ROWS: usize = 50_000;

/// Rows of the JSON document the `json_parse` rung parses.
const JSON_ROWS: usize = 4_000;

/// Paper sizes of the four tasks (Fig. 13/14 anchors), for the
/// simulator rungs.
const PAPER_SIZES: [usize; 4] = [200, 200, 16, 6_800];

struct Ladder<'a> {
    metrics: Vec<Metric>,
    tally: &'a mut Tally,
}

impl Ladder<'_> {
    fn put(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push(Metric::single(name, unit, value));
    }

    /// Count one output check of the ladder itself.
    fn check(&mut self, what: &str, ok: bool) {
        self.tally.attempted += 1;
        if !ok {
            self.tally.fail(format!("ladder: {what}"));
        }
    }

    /// Tell the parent the child is alive.
    fn heartbeat(&self) {
        println!("pass {} {} 0", self.tally.attempted, self.tally.failed);
    }
}

/// Time `f` under a span named `name`.
fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
    let _s = span::enter(name);
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Median seconds of `reps` calls of `f` under spans named `name`.
fn median_secs<R>(name: &str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, took) = timed(name, &mut f);
            std::hint::black_box(out);
            took.as_secs_f64()
        })
        .collect();
    stats::median(&stats::sorted(&secs))
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// `datakit.codec`: text encode and decode, which set-up pays.
fn codec_rungs(l: &mut Ladder, batch: &Batch) {
    let schema = batch.schema().clone();
    let csv = codec::to_csv(batch);
    let jsonl = codec::to_jsonl(batch);
    // `Json::parse` is quadratic in the document today (4 000 rows take
    // 57 ms, 16 000 take 840 ms), so its rung parses a fixed 4 000 rows.
    let lines: Vec<&str> = jsonl.lines().take(JSON_ROWS).collect();
    let array = format!("[{}]", lines.join(","));

    let t = median_secs("datakit.codec.to_csv", 5, || codec::to_csv(batch));
    l.put("datakit.codec.csv_encode_mb_s", "MB/s", mb(csv.len()) / t);
    let t = median_secs("datakit.codec.from_csv", 5, || {
        codec::from_csv(schema.clone(), &csv).expect("csv decodes")
    });
    l.put("datakit.codec.csv_decode_mb_s", "MB/s", mb(csv.len()) / t);
    let t = median_secs("datakit.codec.from_jsonl", 5, || {
        codec::from_jsonl(schema.clone(), &jsonl).expect("jsonl decodes")
    });
    l.put(
        "datakit.codec.jsonl_decode_mb_s",
        "MB/s",
        mb(jsonl.len()) / t,
    );
    let t = median_secs("datakit.codec.json_parse", 5, || {
        Json::parse(&array).expect("json parses")
    });
    l.put("datakit.codec.json_parse_mb_s", "MB/s", mb(array.len()) / t);

    let back = codec::from_csv(schema, &csv).expect("csv decodes");
    l.check("csv round trip", back.tuples() == batch.tuples());
}

/// `datakit.blockstore`, `datakit.column`, `datakit.key`.
fn datakit_rungs(l: &mut Ladder, tuples: &[Tuple]) {
    let schema = fact_schema();
    let n = tuples.len() as f64;

    let (batches, t) = timed("datakit.column.from_tuples", || {
        tuples
            .chunks(SPILL_BLOCK_ROWS)
            .map(|c| ColumnarBatch::from_tuples(schema.clone(), c))
            .collect::<Vec<_>>()
    });
    l.put(
        "datakit.column.from_tuples_ns_per_row",
        "ns",
        t.as_secs_f64() * 1e9 / n,
    );
    let (rows, t) = timed("datakit.column.to_tuples", || {
        batches
            .iter()
            .map(ColumnarBatch::to_tuples)
            .collect::<Vec<_>>()
    });
    l.put(
        "datakit.column.to_tuples_ns_per_row",
        "ns",
        t.as_secs_f64() * 1e9 / n,
    );
    l.check("columnar round trip", rows.concat() == tuples);

    let (buckets, t) = timed("datakit.key.hash", || {
        tuples
            .iter()
            .map(|t| {
                HashKey::from_tuple_indexed(t, &[1])
                    .expect("key column exists")
                    .bucket(8)
            })
            .sum::<usize>()
    });
    std::hint::black_box(buckets);
    l.put(
        "datakit.key.hash_ns_per_tuple",
        "ns",
        t.as_secs_f64() * 1e9 / n,
    );

    let (blocks, t) = timed("datakit.blockstore.seal", || {
        batches
            .iter()
            .map(CompressedBlock::seal)
            .collect::<Vec<_>>()
    });
    let count = blocks.len() as f64;
    l.put(
        "datakit.blockstore.seal_us_per_block",
        "us",
        t.as_secs_f64() * 1e6 / count,
    );
    let (decoded, t) = timed("datakit.blockstore.decode", || {
        blocks
            .iter()
            .map(|b| b.decode().expect("sealed block decodes"))
            .collect::<Vec<_>>()
    });
    l.put(
        "datakit.blockstore.decode_us_per_block",
        "us",
        t.as_secs_f64() * 1e6 / count,
    );
    l.check(
        "block round trip",
        decoded.iter().map(ColumnarBatch::len).sum::<usize>() == tuples.len(),
    );
    let raw: usize = blocks.iter().map(CompressedBlock::raw_bytes).sum();
    let packed: usize = blocks.iter().map(CompressedBlock::compressed_bytes).sum();
    l.put(
        "datakit.blockstore.compress_ratio",
        "ratio",
        raw as f64 / packed as f64,
    );

    let mut appender = BlockAppender::new();
    for b in &batches {
        appender.append(b);
    }
    let segment = appender.seal();
    let image = segment.encode();
    let t = median_secs("datakit.blockstore.segment_encode", 5, || segment.encode());
    l.put(
        "datakit.blockstore.segment_encode_mb_s",
        "MB/s",
        mb(image.len()) / t,
    );
    let t = median_secs("datakit.blockstore.segment_decode", 5, || {
        Segment::decode(&image).expect("segment image decodes")
    });
    l.put(
        "datakit.blockstore.segment_decode_mb_s",
        "MB/s",
        mb(image.len()) / t,
    );
}

/// `workflow.partition`: the per-edge scatter.
fn partition_rungs(l: &mut Ladder, tuples: &[Tuple]) {
    let n = tuples.len() as f64;
    for (strategy, name) in [
        (PartitionStrategy::Hash(vec!["k".into()]), "scatter_hash"),
        (PartitionStrategy::RoundRobin, "scatter_rr"),
    ] {
        let compiled = strategy.compile(&fact_schema()).expect("strategy compiles");
        let owned = tuples.to_vec();
        let mut buffers: Vec<Vec<Tuple>> = vec![Vec::new(); 4];
        let mut seq = 0u64;
        let (_, t) = timed(&format!("workflow.partition.{name}"), || {
            compiled
                .scatter(owned, &mut seq, &mut buffers)
                .expect("scatter routes every tuple")
        });
        l.put(
            &format!("workflow.partition.{name}_ns_per_tuple"),
            "ns",
            t.as_secs_f64() * 1e9 / n,
        );
        l.check(
            name,
            buffers.iter().map(Vec::len).sum::<usize>() == tuples.len(),
        );
    }
}

/// Drive one operator instance over `input` on `port`, then complete
/// the port; returns the time per input tuple in nanoseconds.
fn drive_rows(
    name: &str,
    op: &mut dyn scriptflow_workflow::Operator,
    input: Vec<Tuple>,
    port: usize,
    out: &mut OutputCollector,
) -> f64 {
    let n = input.len() as f64;
    let (_, t) = timed(name, || {
        for tuple in input {
            op.on_tuple(tuple, port, out)
                .expect("operator accepts the tuple");
        }
        op.on_port_complete(port, out).expect("port completes");
    });
    t.as_secs_f64() * 1e9 / n
}

/// `workflow.ops`: instances from `OperatorFactory::create`, driven
/// directly.
fn ops_rungs(l: &mut Ladder, tuples: &[Tuple]) {
    let schema = fact_schema();
    let batches: Vec<ColumnarBatch> = tuples
        .chunks(BATCH_SIZE)
        .map(|c| ColumnarBatch::from_tuples(schema.clone(), c))
        .collect();
    let n = tuples.len() as f64;

    let filter = FilterOp::cmp("v_ge", "v", CmpOp::Ge, Value::Float(256.0));
    let mut out = OutputCollector::new();
    let ns = drive_rows(
        "workflow.ops.filter.on_tuple",
        filter.create().as_mut(),
        tuples.to_vec(),
        0,
        &mut out,
    );
    l.put("workflow.ops.filter_row_ns_per_tuple", "ns", ns);
    let by_row = out.take().len();

    let mut inst = filter.create();
    let (_, t) = timed("workflow.ops.filter.on_batch", || {
        for b in &batches {
            inst.on_batch(b, 0, &mut out)
                .expect("filter accepts the batch");
        }
    });
    l.put(
        "workflow.ops.filter_col_ns_per_tuple",
        "ns",
        t.as_secs_f64() * 1e9 / n,
    );
    l.check(
        "columnar filter keeps the rows the row filter keeps",
        out.take().len() == by_row,
    );

    // Top percentile of the ascending id: zone maps prune the rest.
    let top = FilterOp::cmp(
        "top",
        "id",
        CmpOp::Ge,
        Value::Int((tuples.len() - tuples.len() / 100) as i64),
    );
    let mut inst = top.create();
    timed("workflow.ops.filter.on_batch", || {
        for b in &batches {
            inst.on_batch(b, 0, &mut out)
                .expect("filter accepts the batch");
        }
    });
    l.put(
        "workflow.ops.filter_skip_share",
        "share",
        out.batches_skipped() as f64 / batches.len() as f64,
    );
    out.take();

    let join = HashJoinOp::new("join", &["id"], &["id"]);
    let mut inst = join.create();
    let ns = drive_rows(
        "workflow.ops.join.build",
        inst.as_mut(),
        tuples.to_vec(),
        0,
        &mut out,
    );
    l.put("workflow.ops.join_build_ns_per_tuple", "ns", ns);
    let ns = drive_rows(
        "workflow.ops.join.probe",
        inst.as_mut(),
        tuples.to_vec(),
        1,
        &mut out,
    );
    l.put("workflow.ops.join_probe_ns_per_tuple", "ns", ns);
    l.check(
        "unique-key join matches every probe row once",
        out.take().len() == tuples.len(),
    );

    let agg = AggregateOp::new(
        "per_key",
        &["k"],
        vec![AggFn::Count("n".into()), AggFn::Sum("v".into())],
    );
    let ns = drive_rows(
        "workflow.ops.aggregate",
        agg.create().as_mut(),
        tuples.to_vec(),
        0,
        &mut out,
    );
    l.put("workflow.ops.aggregate_ns_per_tuple", "ns", ns);
    out.take();

    let sort = SortOp::new(
        "rank",
        &[("v", SortOrder::Descending), ("id", SortOrder::Ascending)],
    );
    let ns = drive_rows(
        "workflow.ops.sort",
        sort.create().as_mut(),
        tuples.to_vec(),
        0,
        &mut out,
    );
    l.put("workflow.ops.sort_ns_per_tuple", "ns", ns);
    l.check("sort emits every row", out.take().len() == tuples.len());
}

/// `workflow.spill` and `workflow.cache`: the block-level calls, and
/// the counters and leg ratios of one `spill_cache` pass.
fn spill_cache_rungs(l: &mut Ladder, tuples: &[Tuple], seed: u64) {
    let schema = fact_schema();
    let mut out = OutputCollector::new();
    let (segment, t) = timed("workflow.spill.seal_run", || {
        spill::seal_run(&schema, tuples, &mut out)
    });
    let blocks = out.spilled_blocks() as f64;
    l.put(
        "workflow.spill.write_us_per_block",
        "us",
        t.as_secs_f64() * 1e6 / blocks,
    );
    let (rows, t) = timed("workflow.spill.read_segment", || {
        spill::read_segment(&segment, &mut out).expect("spilled segment reads back")
    });
    l.put(
        "workflow.spill.read_us_per_block",
        "us",
        t.as_secs_f64() * 1e6 / blocks,
    );
    l.check("spill round trip", rows == tuples);

    let cache = ResultCache::new();
    let fp = OpFingerprint(u128::from(seed) + 1);
    let (_, t) = timed("workflow.cache.publish", || {
        cache.publish(fp, &schema, tuples)
    });
    let entry = cache.lookup(fp).expect("published entry is found");
    let blocks = entry.blocks() as f64;
    l.put(
        "workflow.cache.publish_us_per_block",
        "us",
        t.as_secs_f64() * 1e6 / blocks,
    );
    let (rows, t) = timed("workflow.cache.replay", || entry.tuples());
    l.put(
        "workflow.cache.replay_us_per_block",
        "us",
        t.as_secs_f64() * 1e6 / blocks,
    );
    l.check("cache round trip", rows == tuples);
    let (_, t) = timed("workflow.cache.lookup", || {
        for _ in 0..1_000 {
            std::hint::black_box(cache.lookup(fp));
        }
    });
    l.put(
        "workflow.cache.lookup_us",
        "us",
        t.as_secs_f64() * 1e6 / 1_000.0,
    );

    let dir = report::out_dir().join(format!("ladder-cache-{}", std::process::id()));
    // A directory left by a killed run would make the publish a no-op.
    let _ = std::fs::remove_dir_all(&dir);
    ResultCache::persistent(&dir)
        .expect("cache directory opens")
        .publish(fp, &schema, tuples);
    let (loaded, t) = timed("workflow.cache.persist_load", || {
        let reopened = ResultCache::persistent(&dir).expect("cache directory reopens");
        reopened.lookup(fp).map(|e| e.rows())
    });
    l.put(
        "workflow.cache.persist_load_ms",
        "ms",
        t.as_secs_f64() * 1e3,
    );
    l.check("persisted entry loads", loaded == Some(tuples.len() as u64));
    let _ = std::fs::remove_dir_all(&dir);

    let mut workload = SpillCache::setup(seed);
    let expected = workload.reference();
    workload.pass(None, &mut Tally::default());
    let c = {
        let _s = span::enter("bench.spill_cache_pass");
        workload.pass_counted(Some(&expected), l.tally)
    };
    l.put(
        "workflow.spill.blocks_per_pass",
        "count",
        c.spilled_blocks as f64,
    );
    l.put(
        "workflow.spill.bytes_per_pass",
        "bytes",
        c.spilled_bytes as f64,
    );
    l.put(
        "workflow.spill.budgeted_over_unbounded",
        "ratio",
        c.leg_ms[1] / c.leg_ms[0],
    );
    l.put(
        "workflow.cache.warm_over_cold",
        "ratio",
        c.leg_ms[3] / c.leg_ms[2],
    );
    l.put(
        "workflow.cache.hit_share",
        "share",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses) as f64,
    );
    l.put(
        "workflow.cache.evictions_per_pass",
        "count",
        c.cache_evictions as f64,
    );
}

fn run_secs(
    result: &(
        crate::workloads::Timed<crate::workloads::Digest>,
        LiveRunResult,
    ),
) -> f64 {
    result.0.elapsed.as_secs_f64()
}

/// `workflow.dag`, `workflow.exec_live`, `workflow.trace_live`.
fn engine_rungs(l: &mut Ladder, seed: u64) {
    let width = sysinfo::load_width();
    let small = StreamRelational::sized(seed, crate::workloads::service_mix::SMALL_TUPLES);
    let t = median_secs("workflow.dag.build", 21, || small.filter_chain(width));
    l.put("workflow.dag.build_ms", "ms", t * 1e3);

    // Pass-through: no operator work at all, so wall-clock is the
    // executor's own cost.
    let tuples = stream_relational::TUPLES;
    let scan = Arc::new(ScanOp::new("facts", facts(seed, tuples)));
    let pass_through = || {
        let mut b = WorkflowBuilder::new();
        let src = b.add(scan.clone(), width);
        let sink_op = Arc::new(SinkOp::new("sink"));
        let handle = sink_op.handle();
        let sink = b.add(sink_op, 1);
        b.connect(src, sink, 0, PartitionStrategy::Single);
        (b.build().expect("pass-through is a valid DAG"), handle)
    };
    let exec = Arc::new(LiveExecutor::new(BATCH_SIZE));
    let mut runs: Vec<_> = (0..5)
        .map(|_| run_dag(&exec, pass_through).expect("pass-through runs"))
        .collect();
    runs.sort_by(|a, b| run_secs(a).total_cmp(&run_secs(b)));
    let (_, median) = &runs[runs.len() / 2];
    let pool = median.pool.expect("pooled runs report pool stats");
    let wall = median.elapsed.as_secs_f64();
    l.put(
        "workflow.exec_live.quantum_us",
        "us",
        wall * 1e6 * pool.pool_threads as f64 / pool.task_runs as f64,
    );
    l.put(
        "workflow.exec_live.batch_overhead_us",
        "us",
        wall * 1e6 / pool.batches_sent as f64,
    );
    l.put(
        "workflow.exec_live.tuple_overhead_ns",
        "ns",
        wall * 1e9 / tuples as f64,
    );
    l.put(
        "workflow.exec_live.stalls_per_kbatch",
        "ratio",
        pool.backpressure_stalls as f64 * 1e3 / pool.batches_sent as f64,
    );
    l.put(
        "workflow.exec_live.peak_mailbox_depth",
        "count",
        pool.peak_mailbox_depth as f64,
    );
    let busy: f64 = median
        .metrics
        .operators
        .iter()
        .map(|m| m.busy.as_secs_f64())
        .sum();
    l.put(
        "workflow.exec_live.busy_share",
        "share",
        busy / (pool.pool_threads as f64 * wall),
    );
    l.heartbeat();

    let chain = StreamRelational::sized(seed, tuples);
    let chain_secs = |chain: &StreamRelational, width: usize, exec: &Arc<LiveExecutor>| {
        let secs: Vec<f64> = (0..3)
            .map(|_| {
                run_secs(&run_dag(exec, || chain.filter_chain(width)).expect("filter chain runs"))
            })
            .collect();
        stats::median(&stats::sorted(&secs))
    };
    let one = chain_secs(&chain, 1, &exec);
    let wide = chain_secs(&chain, width, &exec);
    l.put("workflow.exec_live.p1_over_pn", "ratio", one / wide);

    let traced = Arc::new(LiveExecutor::new(BATCH_SIZE).with_trace(Duration::from_millis(1)));
    let on = chain_secs(&chain, width, &traced);
    l.put(
        "workflow.trace_live.overhead_share",
        "share",
        on / wide - 1.0,
    );
    let samples = run_dag(&traced, || chain.filter_chain(width))
        .expect("traced filter chain runs")
        .1
        .trace
        .len();
    l.put(
        "workflow.trace_live.samples_per_run",
        "count",
        samples as f64,
    );
    l.heartbeat();
}

/// `workflow.exec_live` scaling on one source partition: job time at
/// 400 000 over 100 000 tuples as an exponent (1.0 is linear), and the
/// resident bytes the larger run adds per tuple. Last of the ladder: it
/// raises the process's peak RSS.
fn scale_rungs(l: &mut Ladder, seed: u64) {
    let exec = LiveExecutor::new(BATCH_SIZE);
    // Timed directly: the larger run can outlast the deadline `run_dag`
    // gives an engine call.
    let secs = |tuples: usize| {
        let (wf, _sink) = StreamRelational::sized(seed, tuples).filter_chain(1);
        let (result, t) = timed("workflow.exec_live.run", || exec.run(&wf));
        result.expect("filter chain runs");
        t.as_secs_f64()
    };
    let small = secs(100_000);
    let before = sysinfo::rss_bytes();
    let large = secs(400_000);
    let grown = sysinfo::peak_rss_bytes().saturating_sub(before);
    l.put(
        "workflow.exec_live.scale_exponent",
        "exponent",
        (large / small).ln() / 4f64.ln(),
    );
    l.put(
        "workflow.exec_live.rss_bytes_per_tuple",
        "bytes",
        grown as f64 / 400_000.0,
    );
}

/// `workflow.exec_sim`: the four tasks at paper sizes on the simulator.
/// The virtual clock must repeat exactly.
fn sim_rungs(l: &mut Ladder, seed: u64) {
    let tasks = PaperTasks::sized(seed, PAPER_SIZES);
    let run_all = || -> (f64, f64) {
        let mut wall = 0.0;
        let mut virtual_s = 0.0;
        for i in 0..TASKS.len() {
            let (timed, run) = tasks.run(i, BackendKind::Sim).expect("simulated task runs");
            wall += timed.elapsed.as_secs_f64();
            virtual_s += run.seconds();
        }
        (wall, virtual_s)
    };
    let (wall, first) = run_all();
    let (_, second) = run_all();
    l.put("workflow.exec_sim.wall_ms", "ms", wall * 1e3);
    l.put("workflow.exec_sim.virtual_s", "s", first);
    l.check("simulated virtual time repeats exactly", first == second);
}

/// `workflow.service`: a short `service_mix`.
fn service_rungs(l: &mut Ladder, seed: u64) {
    let mut mix = ServiceMix::setup(seed);
    let expected = mix.reference();
    mix.pass(None, &mut Tally::default());
    mix.submit_us.clear();
    mix.queue_wait_ms.clear();
    mix.heavy_done = 0;
    let mut tally = Tally::default();
    let start = Instant::now();
    {
        let _s = span::enter("bench.service_mix_passes");
        for _ in 0..3 {
            mix.pass(Some(&expected), &mut tally);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let shared = stats::median(&stats::sorted(&tally.job_ms));
    let solo: Vec<f64> = (0..21)
        .map(|_| mix.solo_job().as_secs_f64() * 1e3)
        .collect();
    l.put(
        "workflow.service.submit_us",
        "us",
        stats::median(&stats::sorted(&mix.submit_us)),
    );
    l.put(
        "workflow.service.queue_wait_ms_p50",
        "ms",
        stats::median(&stats::sorted(&mix.queue_wait_ms)),
    );
    l.put("workflow.service.rejected", "count", mix.rejected() as f64);
    l.put(
        "workflow.service.heavy_runs_per_s",
        "1/s",
        mix.heavy_done as f64 / wall,
    );
    l.put(
        "workflow.service.solo_over_shared",
        "ratio",
        stats::median(&stats::sorted(&solo)) / shared,
    );
    l.tally.merge(tally);
}

/// `tasks`, `datagen`, `mlkit`: what `paper_tasks` is made of.
fn task_rungs(l: &mut Ladder, seed: u64) {
    let tasks = PaperTasks::setup(seed);
    let mut job = 0.0;
    let mut engine = 0.0;
    for (i, task) in TASKS.iter().enumerate() {
        let (timed, run) = tasks.run(i, BackendKind::Live).expect("task runs live");
        let ms = timed.elapsed.as_secs_f64() * 1e3;
        l.put(&format!("tasks.{task}.job_ms"), "ms", ms);
        job += ms;
        engine += run.wall_clock.map_or(0.0, |d| d.as_secs_f64() * 1e3);
    }
    l.put("tasks.engine_share", "share", engine / job);
    let script: f64 = (0..TASKS.len())
        .map(|i| tasks.run_script(i).expect("script runs").1.as_secs_f64() * 1e3)
        .sum();
    l.put("tasks.script.wall_ms", "ms", script);
    l.heartbeat();

    let (tweets, t) = timed("datagen.generate", || {
        std::hint::black_box(tasks.dice.dataset());
        std::hint::black_box(tasks.gotta.dataset(&tasks.cal));
        std::hint::black_box(tasks.kge.catalog(&tasks.cal));
        tasks.wef.dataset()
    });
    l.put("datagen.generate_ms", "ms", t.as_secs_f64() * 1e3);

    let docs: Vec<&str> = tweets.tweets.iter().map(|t| t.text.as_str()).collect();
    let tfidf = TfIdfVectorizer::fit(docs.iter().copied());
    let (vectors, t) = timed("mlkit.tfidf.transform", || {
        tfidf.transform_all(docs.iter().copied())
    });
    l.put(
        "mlkit.tfidf.transform_us_per_doc",
        "us",
        t.as_secs_f64() * 1e6 / docs.len() as f64,
    );
    let labels: Vec<bool> = tweets
        .tweets
        .iter()
        .map(|t| {
            t.framings
                .iter()
                .any(|f| f == scriptflow_datagen::FRAMINGS[0])
        })
        .collect();
    let (model, t) = timed("mlkit.logreg.fit", || {
        LogisticRegression::fit(tfidf.dim(), &vectors, &labels, TrainConfig::default())
    });
    std::hint::black_box(model);
    l.put("mlkit.logreg.fit_ms", "ms", t.as_secs_f64() * 1e3);

    let dim = tasks.cal.kge_embedding_dim;
    let products = paper_tasks::KGE_PRODUCTS as i64;
    let table = EmbeddingTable::random(dim, 0..products, seed);
    let scorer = KgeScorer::new(vec![0.25; dim], vec![-0.5; dim]);
    let (best, t) = timed("mlkit.kge.score", || {
        (0..products)
            .map(|id| scorer.score(table.get(id).expect("embedding exists")))
            .fold(f32::NEG_INFINITY, f32::max)
    });
    std::hint::black_box(best);
    l.put(
        "mlkit.kge.score_ns_per_product",
        "ns",
        t.as_secs_f64() * 1e9 / products as f64,
    );
}

/// Every rung, in the order `BENCHMARK.json` lists the metrics.
pub fn run(seed: u64, tally: &mut Tally) -> Vec<Metric> {
    let _s = span::enter("bench.ladder");
    let mut l = Ladder {
        metrics: Vec::new(),
        tally,
    };
    let batch = facts(seed, ROWS);
    codec_rungs(&mut l, &batch);
    let tuples = batch.into_tuples();
    datakit_rungs(&mut l, &tuples);
    partition_rungs(&mut l, &tuples);
    ops_rungs(&mut l, &tuples);
    l.heartbeat();
    spill_cache_rungs(&mut l, &tuples, seed);
    l.heartbeat();
    engine_rungs(&mut l, seed);
    sim_rungs(&mut l, seed);
    l.heartbeat();
    service_rungs(&mut l, seed);
    l.heartbeat();
    task_rungs(&mut l, seed);
    l.heartbeat();
    scale_rungs(&mut l, seed);
    l.metrics
}

//! Engine throughput harness for the pooled live executor.
//!
//! A plain binary, so CI can run it and archive machine-readable numbers:
//!
//! ```text
//! cargo run --release -p scriptflow-bench --bin bench_engine
//! BENCH_ENGINE_QUICK=1 cargo run --release -p scriptflow-bench --bin bench_engine
//! cargo run --release -p scriptflow-bench --bin bench_engine -- --backend both
//! ```
//!
//! Writes `BENCH_engine.json`: tuples/sec for every (workload,
//! parallelism) configuration, including the broadcast-join acceptance
//! workload where `Arc`-shared batches replace per-worker deep clones.
//! Each configuration also carries a per-operator breakdown (tuple
//! counts, busy time, terminal state) plus the sampled progress trace
//! from the live observability layer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use scriptflow_bench::backend;
use scriptflow_core::{BackendChoice, BackendKind};
use scriptflow_datakit::codec::Json;
use scriptflow_datakit::{Batch, CmpOp, DataType, Schema, Value};
use scriptflow_workflow::ops::{FilterOp, HashJoinOp, ScanOp, SinkOp};
use scriptflow_workflow::trace::counter_fields;
use scriptflow_workflow::{
    EngineConfig, PartitionStrategy, ResultCache, RunMetrics, TraceJson, Workflow, WorkflowBuilder,
};

fn int_batch(n: i64) -> Batch {
    let schema = Schema::of(&[("id", DataType::Int)]);
    Batch::from_rows(schema, (0..n).map(|i| vec![Value::Int(i)]).collect()).unwrap()
}

fn filter_pipeline(n: i64, workers: usize) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(n))), workers);
    let f1 = b.add(
        Arc::new(FilterOp::new("mod3", |t| Ok(t.get_int("id")? % 3 != 0))),
        workers,
    );
    let f2 = b.add(
        Arc::new(FilterOp::new("mod5", |t| Ok(t.get_int("id")? % 5 != 0))),
        workers,
    );
    let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
    b.connect(scan, f1, 0, PartitionStrategy::RoundRobin);
    b.connect(f1, f2, 0, PartitionStrategy::RoundRobin);
    b.connect(f2, sink, 0, PartitionStrategy::Single);
    b.build().unwrap()
}

fn broadcast_join(facts: i64, workers: usize) -> Workflow {
    let dim_schema = Schema::of(&[("k", DataType::Int), ("tag", DataType::Str)]);
    let dims = Batch::from_rows(
        dim_schema,
        (0..256i64)
            .map(|k| vec![Value::Int(k), Value::Str(format!("d{k}"))])
            .collect(),
    )
    .unwrap();
    let fact_schema = Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]);
    let fact_batch = Batch::from_rows(
        fact_schema,
        (0..facts)
            .map(|i| vec![Value::Int(i), Value::Int(i % 256)])
            .collect(),
    )
    .unwrap();
    let mut b = WorkflowBuilder::new();
    let ds = b.add(Arc::new(ScanOp::new("dims", dims)), 1);
    let fs = b.add(Arc::new(ScanOp::new("facts", fact_batch)), workers);
    let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), workers);
    let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
    b.connect(ds, join, 0, PartitionStrategy::Broadcast);
    b.connect(fs, join, 1, PartitionStrategy::RoundRobin);
    b.connect(join, sink, 0, PartitionStrategy::Single);
    b.build().unwrap()
}

/// The zone-map acceptance workload: ascending ids with a top-percentile
/// range predicate, so in columnar mode per-batch min/max statistics
/// prove almost every sealed batch empty before a single row is read.
fn selective_filter(n: i64, workers: usize) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", int_batch(n))), workers);
    let sel = b.add(
        Arc::new(FilterOp::cmp(
            "sel",
            "id",
            CmpOp::Ge,
            Value::Int(n - n / 100 - 1),
        )),
        workers,
    );
    let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
    b.connect(scan, sel, 0, PartitionStrategy::RoundRobin);
    b.connect(sel, sink, 0, PartitionStrategy::Single);
    b.build().unwrap()
}

/// The bounded-memory acceptance workload: a hash join whose build side
/// (every fact row) dwarfs any small memory budget, forcing the grace
/// join to seal build partitions into compressed spill blocks.
fn spill_join(rows: i64, workers: usize) -> Workflow {
    let schema = Schema::of(&[("k", DataType::Int), ("tag", DataType::Str)]);
    let build = Batch::from_rows(
        schema.clone(),
        (0..rows)
            .map(|i| vec![Value::Int(i % 97), Value::Str(format!("b{i}"))])
            .collect(),
    )
    .unwrap();
    let probe = Batch::from_rows(
        schema,
        (0..rows)
            .map(|i| vec![Value::Int(i % 113), Value::Str(format!("p{i}"))])
            .collect(),
    )
    .unwrap();
    let mut b = WorkflowBuilder::new();
    let bs = b.add(Arc::new(ScanOp::new("build", build)), workers);
    let ps = b.add(Arc::new(ScanOp::new("probe", probe)), workers);
    let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), workers);
    let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
    b.connect(bs, join, 0, PartitionStrategy::Hash(vec!["k".into()]));
    b.connect(ps, join, 1, PartitionStrategy::Hash(vec!["k".into()]));
    b.connect(join, sink, 0, PartitionStrategy::Single);
    b.build().unwrap()
}

/// Per-operator breakdown of one run, from the executor's metrics.
fn operators_json(metrics: &RunMetrics) -> Json {
    Json::Array(
        metrics
            .operators
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("name".into(), Json::Str(m.name.clone())),
                    ("workers".into(), Json::Int(m.workers as i64)),
                    ("inputTuples".into(), Json::Int(m.input_tuples as i64)),
                    ("outputTuples".into(), Json::Int(m.output_tuples as i64)),
                ];
                fields.extend(counter_fields(&m.counters));
                fields.push(("busySecs".into(), Json::Float(m.busy.as_secs_f64())));
                fields.push(("state".into(), Json::Str(m.state.label().into())));
                Json::Object(fields)
            })
            .collect(),
    )
}

/// Best-of-`reps` tuples/sec for one configuration.
fn measure(
    workload: &str,
    columnar: bool,
    memory_budget: Option<usize>,
    parallelism: usize,
    tuples: i64,
    reps: usize,
    build: impl Fn() -> Workflow,
) -> Json {
    let exec = backend::live_executor(backend::LIVE_BATCH)
        .with_columnar(columnar)
        .with_memory_budget(memory_budget);
    // Warm-up run (thread spawn, allocator churn) not measured.
    exec.run(&build()).expect("bench workflow must run");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let wf = build();
        let start = Instant::now();
        last = Some(exec.run(&wf).expect("bench workflow must run"));
        best = best.min(start.elapsed().as_secs_f64());
    }
    let last = last.expect("at least one rep");
    let layout = if columnar { "columnar" } else { "row" };
    let counters = last.counters();
    let (skipped, spilled) = (counters.batches_skipped, counters.spilled_blocks);
    let tps = tuples as f64 / best.max(1e-9);
    println!(
        "{workload:>16}    pooled  {layout:>8}  p={parallelism}  {tuples:>8} tuples  {:>10.3} ms  {:>12.0} tuples/s  {skipped:>5} skipped  {spilled:>5} spilled",
        best * 1e3,
        tps
    );
    let mut fields = vec![
        ("workload".into(), Json::Str(workload.into())),
        ("mode".into(), Json::Str("pooled".into())),
        ("batchLayout".into(), Json::Str(layout.into())),
        (
            "memoryBudget".into(),
            memory_budget.map_or(Json::Null, |b| Json::Int(b as i64)),
        ),
        ("parallelism".into(), Json::Int(parallelism as i64)),
        ("tuples".into(), Json::Int(tuples)),
        ("elapsed_secs".into(), Json::Float(best)),
        ("tuples_per_sec".into(), Json::Float(tps)),
    ];
    fields.extend(counter_fields(&counters));
    fields.push(("operators".into(), operators_json(&last.metrics)));
    // One extra observed run (untimed) to archive a sampled trace.
    let res = exec
        .with_trace(Duration::from_millis(1))
        .run(&build())
        .expect("bench workflow must run");
    fields.push((
        "trace".into(),
        TraceJson::from_trace(&res.trace).into_document(),
    ));
    Json::Object(fields)
}

/// The incremental re-execution acceptance workload: the same DAG run
/// twice on the pooled executor against one shared result cache. The
/// cold leg computes everything and publishes sealed segments
/// (`cacheHits == 0`, `cachePublished > 0`); the warm leg serves its
/// frontier from the cache (`cacheHits > 0`) and skips the rest. A
/// third, budgeted leg replays the cold run against a cache whose byte
/// budget sits just under what the cold leg published, so committing
/// must evict (`cacheEvictions > 0`) and the byte identity
/// `cacheLiveBytes == cachePublished − cacheEvictedBytes` holds —
/// `scripts/ci.sh`'s bench smoke asserts both.
fn measure_edit_rerun(parallelism: usize, tuples: i64) -> Vec<Json> {
    let cache = Arc::new(ResultCache::new());
    let exec = backend::live_executor(backend::LIVE_BATCH).with_result_cache(cache);
    let mut out = Vec::new();
    let mut cold_published = 0u64;
    for leg in ["cold", "warm"] {
        let wf = filter_pipeline(tuples, parallelism);
        let start = Instant::now();
        let res = exec.run(&wf).expect("bench workflow must run");
        let secs = start.elapsed().as_secs_f64();
        let counters = res.counters();
        if leg == "cold" {
            cold_published = res.cache_published;
        }
        println!(
            "{:>16}  {:>8}  leg={leg:<4}  p={parallelism}  {tuples:>8} tuples  {:>10.3} ms  {:>3} hits  {:>3} misses  {:>9} bytes published",
            "edit_rerun",
            "pooled",
            secs * 1e3,
            counters.cache_hits,
            counters.cache_misses,
            res.cache_published,
        );
        let mut fields = vec![
            ("workload".into(), Json::Str("edit_rerun".into())),
            ("mode".into(), Json::Str("pooled".into())),
            ("leg".into(), Json::Str(leg.into())),
            ("parallelism".into(), Json::Int(parallelism as i64)),
            ("tuples".into(), Json::Int(tuples)),
            ("elapsed_secs".into(), Json::Float(secs)),
        ];
        fields.extend(counter_fields(&counters));
        fields.push((
            "cachePublished".into(),
            Json::Int(res.cache_published as i64),
        ));
        fields.push(("operators".into(), operators_json(&res.metrics)));
        out.push(Json::Object(fields));
    }
    // Budgeted leg: a fresh cache one byte short of holding the whole
    // cold publish, so the commit's cost-aware eviction must fire.
    let budget = cold_published.saturating_sub(1).max(1);
    let cache = Arc::new(ResultCache::new().with_byte_budget(budget));
    let exec = backend::live_executor(backend::LIVE_BATCH).with_result_cache(Arc::clone(&cache));
    let wf = filter_pipeline(tuples, parallelism);
    let start = Instant::now();
    let res = exec.run(&wf).expect("bench workflow must run");
    let secs = start.elapsed().as_secs_f64();
    let counters = res.counters();
    println!(
        "{:>16}  {:>8}  leg=budg  p={parallelism}  {tuples:>8} tuples  {:>10.3} ms  {:>3} evictions  {:>9} live / {:>9} budget bytes",
        "edit_rerun",
        "pooled",
        secs * 1e3,
        counters.cache_evictions,
        cache.bytes(),
        budget,
    );
    let mut fields = vec![
        ("workload".into(), Json::Str("edit_rerun".into())),
        ("mode".into(), Json::Str("pooled".into())),
        ("leg".into(), Json::Str("budgeted".into())),
        ("parallelism".into(), Json::Int(parallelism as i64)),
        ("tuples".into(), Json::Int(tuples)),
        ("elapsed_secs".into(), Json::Float(secs)),
    ];
    fields.extend(counter_fields(&counters));
    fields.extend([
        ("cacheBudget".into(), Json::Int(budget as i64)),
        (
            "cachePublished".into(),
            Json::Int(res.cache_published as i64),
        ),
        ("cacheLiveBytes".into(), Json::Int(cache.bytes() as i64)),
        (
            "cacheEvictedBytes".into(),
            Json::Int(cache.evicted_bytes() as i64),
        ),
        ("operators".into(), operators_json(&res.metrics)),
    ]);
    out.push(Json::Object(fields));
    out
}

/// A virtual-clock reference point for one workload: the same DAG run
/// once on the simulator, reporting virtual seconds instead of measured
/// wall-clock.
fn measure_sim(workload: &str, parallelism: usize, tuples: i64, wf: &Workflow) -> Json {
    let run = backend::engine_of(BackendKind::Sim, EngineConfig::default())
        .run_detached(wf)
        .expect("bench workflow must run");
    let secs = run.seconds();
    println!(
        "{workload:>16}  {:>8}  p={parallelism}  {tuples:>8} tuples  {:>10.3} ms (virtual)",
        "sim",
        secs * 1e3
    );
    Json::Object(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("mode".into(), Json::Str("sim".into())),
        ("parallelism".into(), Json::Int(parallelism as i64)),
        ("tuples".into(), Json::Int(tuples)),
        ("virtual_secs".into(), Json::Float(secs)),
        ("operators".into(), operators_json(&run.metrics)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The engine bench defaults to the live executor (that is what it
    // measures); `--backend both` adds a virtual-clock reference row per
    // workload, `--backend sim` runs only those.
    let choice = match backend::parse_backend_flag(&args) {
        Ok(flag) => flag.unwrap_or(BackendChoice::Live),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let quick = std::env::var("BENCH_ENGINE_QUICK").is_ok();
    let (n, reps) = if quick {
        (5_000i64, 2)
    } else {
        (100_000i64, 5)
    };

    let mut configs = Vec::new();
    if choice.includes(BackendKind::Sim) {
        for &workers in &[1usize, 2, 4, 8] {
            configs.push(measure_sim(
                "filter_pipeline",
                workers,
                n,
                &filter_pipeline(n, workers),
            ));
        }
        configs.push(measure_sim("broadcast_join", 4, n, &broadcast_join(n, 4)));
        configs.push(measure_sim(
            "selective_filter",
            4,
            n,
            &selective_filter(n, 4),
        ));
    }
    if choice.includes(BackendKind::Live) {
        for &workers in &[1usize, 2, 4, 8] {
            configs.push(measure(
                "filter_pipeline",
                false,
                None,
                workers,
                n,
                reps,
                || filter_pipeline(n, workers),
            ));
        }
        configs.push(measure("broadcast_join", false, None, 4, n, reps, || {
            broadcast_join(n, 4)
        }));
        // Row-vs-columnar acceptance pair: same DAG, same pooled
        // executor, only the batch layout differs. The columnar row must
        // show non-zero batchesSkipped (zone maps pruning the sorted
        // scan) and higher throughput.
        for &columnar in &[false, true] {
            configs.push(measure(
                "selective_filter",
                columnar,
                None,
                4,
                n,
                reps,
                || selective_filter(n, 4),
            ));
        }
        // Bounded-memory acceptance pair: same grace hash join, once
        // unbounded and once under a budget far below the build side's
        // footprint. The budgeted row must show non-zero spilledBlocks
        // (build partitions sealed to the compressed block store) while
        // both rows produce the same join output.
        let spill_n = n.min(20_000);
        for &budget in &[None, Some(4usize << 10)] {
            configs.push(measure(
                "spill_join",
                false,
                budget,
                4,
                spill_n,
                reps,
                || spill_join(spill_n, 4),
            ));
        }
        // Incremental re-execution acceptance pair: cold run publishes,
        // warm rerun of the identical DAG serves from sealed segments.
        configs.extend(measure_edit_rerun(4, n));
    }

    // Provenance: cargo is the only build there is; the commit is the
    // checkout's HEAD, or "unknown" outside a git checkout.
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let doc = Json::Object(vec![
        ("bench".into(), Json::Str("engine".into())),
        ("build".into(), Json::Str("cargo".into())),
        ("commit".into(), Json::Str(commit)),
        ("quick".into(), Json::Bool(quick)),
        ("backend".into(), Json::Str(choice.label().into())),
        ("configs".into(), Json::Array(configs)),
    ]);
    let path = "BENCH_engine.json";
    match std::fs::write(path, doc.to_string_compact()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

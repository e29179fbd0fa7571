//! Property tests over the core invariants DESIGN.md lists:
//! partitioning completeness, join correctness vs a nested-loop oracle,
//! top-k vs full sort, codec roundtrips, and schema soundness.
//!
//! Each property is a loop over seeded cases: case `i` draws its inputs
//! from `SplitMix64::new(i)`, and a failure names that seed.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use scriptflow::datakit::blockstore::decode_blocks;
use scriptflow::datakit::codec::{from_csv, from_jsonl, to_csv, to_jsonl, Json};
use scriptflow::datakit::{
    Batch, BlockAppender, CmpOp, ColumnarBatch, CompressedBlock, DataFrame, DataType, HashKey,
    MergeHow, Schema, Tuple, Value,
};
use scriptflow::mlkit::kge::{EmbeddingTable, KgeScorer};
use scriptflow::simcluster::SplitMix64;
use scriptflow::workflow::ops::{AggFn, AggregateOp, FilterOp, HashJoinOp, ScanOp, SinkOp};
use scriptflow::workflow::{
    Backoff, EngineConfig, EngineRun, FaultPlan, LiveExecutor, OperatorFactory, PartitionStrategy,
    ResultCache, RetryConfig, RetryPolicy, SimExecutor, Workflow, WorkflowBuilder, WorkflowError,
};

/// Cases per pure-data property.
const CASES: u64 = 64;
/// Cases per property that runs real OS threads.
const LIVE_CASES: u64 = 16;

/// Check `property` on `cases` seeded input streams. The failing case's
/// own assertion is printed as it unwinds; this names the seed to replay.
fn for_seeds(cases: u64, property: impl Fn(&mut SplitMix64)) {
    for seed in 0..cases {
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut SplitMix64::new(seed))));
        assert!(
            outcome.is_ok(),
            "property failed on SplitMix64::new({seed})"
        );
    }
}

fn any_i64(rng: &mut SplitMix64) -> i64 {
    rng.next_u64() as i64
}

fn vec_of<T>(
    rng: &mut SplitMix64,
    len: Range<usize>,
    mut item: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    (0..rng.range(len)).map(|_| item(rng)).collect()
}

fn maybe<T>(rng: &mut SplitMix64, item: impl FnOnce(&mut SplitMix64) -> T) -> Option<T> {
    rng.bool(0.5).then(|| item(rng))
}

/// Up to `max_len` characters drawn from `alphabet`.
fn string_of(rng: &mut SplitMix64, alphabet: &str, max_len: usize) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    (0..rng.range(0..max_len + 1))
        .map(|_| chars[rng.range(0..chars.len())])
        .collect()
}

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// Hash partitioning is a function: same key → same bucket; and all
/// buckets are within range.
#[test]
fn hash_partitioning_is_stable_and_in_range() {
    for_seeds(CASES, |rng| {
        let keys = vec_of(rng, 1..200, any_i64);
        let buckets = rng.range(1..16usize);
        for k in &keys {
            let hk = HashKey::Int(*k);
            let b1 = hk.bucket(buckets);
            let b2 = hk.bucket(buckets);
            assert_eq!(b1, b2);
            assert!(b1 < buckets);
        }
    });
}

/// Round-robin + hash partitioning together cover every tuple exactly
/// once (no loss, no duplication) through a real workflow.
#[test]
fn partitioned_pipeline_loses_nothing() {
    for_seeds(CASES, |rng| {
        let n = rng.range(1..400i64);
        let workers = rng.range(1..5usize);
        let schema = Schema::of(&[("id", DataType::Int)]);
        let batch =
            Batch::from_rows(schema, (0..n).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        let mut b = WorkflowBuilder::new();
        let scan = b.add(Arc::new(ScanOp::new("scan", batch)), workers);
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), workers);
        b.connect(scan, sink, 0, PartitionStrategy::Hash(vec!["id".into()]));
        let wf = b.build().unwrap();
        SimExecutor::new(EngineConfig::default()).run(&wf).unwrap();
        let mut ids: Vec<i64> = handle
            .results()
            .iter()
            .map(|t| t.get_int("id").unwrap())
            .collect();
        ids.sort_unstable();
        let expected: Vec<i64> = (0..n).collect();
        assert_eq!(ids, expected);
    });
}

/// The engine's hash join equals a nested-loop oracle for arbitrary
/// key multisets on both sides.
#[test]
fn hash_join_matches_nested_loop() {
    for_seeds(CASES, |rng| {
        let build_keys = vec_of(rng, 0..40, |r| r.range(0..20i64));
        let probe_keys = vec_of(rng, 0..60, |r| r.range(0..20i64));
        let workers = rng.range(1..4usize);
        // Oracle count.
        let mut expected = 0usize;
        for p in &probe_keys {
            expected += build_keys.iter().filter(|b| *b == p).count();
        }

        let bs = Schema::of(&[("k", DataType::Int), ("tag", DataType::Int)]);
        let build = Batch::from_rows(
            bs,
            build_keys
                .iter()
                .enumerate()
                .map(|(i, k)| vec![Value::Int(*k), Value::Int(i as i64)])
                .collect(),
        )
        .unwrap();
        let ps = Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]);
        let probe = Batch::from_rows(
            ps,
            probe_keys
                .iter()
                .enumerate()
                .map(|(i, k)| vec![Value::Int(i as i64), Value::Int(*k)])
                .collect(),
        )
        .unwrap();

        let mut b = WorkflowBuilder::new();
        let bsrc = b.add(Arc::new(ScanOp::new("build", build)), 1);
        let psrc = b.add(Arc::new(ScanOp::new("probe", probe)), workers);
        let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), workers);
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(bsrc, join, 0, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(psrc, join, 1, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(join, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        SimExecutor::new(EngineConfig::default()).run(&wf).unwrap();
        assert_eq!(handle.len(), expected);
    });
}

/// Top-k ranking equals the head of the full sort for arbitrary
/// embedding tables.
#[test]
fn top_k_matches_full_sort() {
    for_seeds(CASES, |rng| {
        let n = rng.range(1..150usize);
        let k = rng.range(1..20usize);
        let seed = rng.next_u64();
        let table = EmbeddingTable::random(4, 0..n as i64, seed);
        let scorer = KgeScorer::new(vec![0.3, -0.1, 0.7, 0.2], vec![0.1, 0.1, -0.4, 0.0]);
        let top = scorer.top_k((0..n as i64).map(|i| (i, table.get(i).unwrap())), k);
        let all = scorer.top_k((0..n as i64).map(|i| (i, table.get(i).unwrap())), n);
        assert_eq!(&top[..], &all[..k.min(n)]);
    });
}

/// CSV and JSONL codecs roundtrip arbitrary string/int/float rows.
#[test]
fn codecs_roundtrip() {
    for_seeds(CASES, |rng| {
        let csv_hostile = format!("{LOWER}{}0123456789 ,\"\n\\", LOWER.to_uppercase());
        let rows = vec_of(rng, 0..30, |r| {
            let s = string_of(r, &csv_hostile, 24);
            (s, any_i64(r), r.range(-1.0e6..1.0e6f64))
        });
        let schema = Schema::of(&[
            ("s", DataType::Str),
            ("i", DataType::Int),
            ("x", DataType::Float),
        ]);
        let batch = Batch::from_rows(
            schema.clone(),
            rows.iter()
                .map(|(s, i, x)| vec![Value::Str(s.clone()), Value::Int(*i), Value::Float(*x)])
                .collect(),
        )
        .unwrap();
        let csv_back = from_csv(schema.clone(), &to_csv(&batch)).unwrap();
        assert_eq!(&csv_back, &batch);
        let jsonl_back = from_jsonl(schema, &to_jsonl(&batch)).unwrap();
        assert_eq!(&jsonl_back, &batch);
    });
}

/// JSON documents rendered by the GUI layer parse back identically.
#[test]
fn json_writer_parser_roundtrip() {
    for_seeds(CASES, |rng| {
        let printable: String = (' '..='~').collect();
        let s = string_of(rng, &printable, 40);
        let i = any_i64(rng);
        let doc = Json::Object(vec![
            ("name".into(), Json::Str(s)),
            ("count".into(), Json::Int(i)),
            (
                "nested".into(),
                Json::Array(vec![Json::Null, Json::Bool(true)]),
            ),
        ]);
        let text = doc.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    });
}

/// The eager DataFrame merge (the pandas analogue the script
/// paradigm uses) agrees with the pipelined workflow hash join on
/// arbitrary inputs — the paper's two `merge` implementations really
/// compute the same relation.
#[test]
fn dataframe_merge_matches_workflow_join() {
    for_seeds(CASES, |rng| {
        let build_keys = vec_of(rng, 1..30, |r| r.range(0..12i64));
        let probe_keys = vec_of(rng, 1..50, |r| r.range(0..12i64));
        let bs = Schema::of(&[("k", DataType::Int), ("tag", DataType::Int)]);
        let build = Batch::from_rows(
            bs,
            build_keys
                .iter()
                .enumerate()
                .map(|(i, k)| vec![Value::Int(*k), Value::Int(i as i64)])
                .collect(),
        )
        .unwrap();
        let ps = Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]);
        let probe = Batch::from_rows(
            ps,
            probe_keys
                .iter()
                .enumerate()
                .map(|(i, k)| vec![Value::Int(i as i64), Value::Int(*k)])
                .collect(),
        )
        .unwrap();

        // Eager pandas-style merge.
        let df = DataFrame::new(probe.clone())
            .merge(
                &DataFrame::new(build.clone()),
                &["k"],
                &["k"],
                MergeHow::Inner,
            )
            .unwrap();
        let mut eager: Vec<String> = df.batch().tuples().iter().map(|t| t.to_string()).collect();
        eager.sort_unstable();

        // Pipelined workflow join.
        let mut b = WorkflowBuilder::new();
        let bsrc = b.add(Arc::new(ScanOp::new("build", build)), 1);
        let psrc = b.add(Arc::new(ScanOp::new("probe", probe)), 2);
        let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), 2);
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(bsrc, join, 0, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(psrc, join, 1, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(join, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        SimExecutor::new(EngineConfig::default()).run(&wf).unwrap();
        let mut piped: Vec<String> = handle.results().iter().map(|t| t.to_string()).collect();
        piped.sort_unstable();

        assert_eq!(eager, piped);
    });
}

/// DataFrame group_count matches a manual fold for arbitrary keys.
#[test]
fn dataframe_group_count_matches_fold() {
    for_seeds(CASES, |rng| {
        let keys = vec_of(rng, 0..60, |r| r.range(0..6i64));
        let schema = Schema::of(&[("k", DataType::Int)]);
        let batch =
            Batch::from_rows(schema, keys.iter().map(|k| vec![Value::Int(*k)]).collect()).unwrap();
        let grouped = DataFrame::new(batch).group_count(&["k"]).unwrap();
        let mut expected: std::collections::HashMap<i64, i64> = Default::default();
        for k in &keys {
            *expected.entry(*k).or_insert(0) += 1;
        }
        assert_eq!(grouped.len(), expected.len());
        for t in grouped.batch().tuples() {
            let k = t.get_int("k").unwrap();
            assert_eq!(t.get_int("count").unwrap(), expected[&k]);
        }
    });
}

/// Every partition strategy preserves the tuple multiset: RoundRobin,
/// Hash, and Single scatter each tuple to exactly one worker (disjoint
/// and exhaustive), while Broadcast is k-fold — every worker receives
/// the full input.
#[test]
fn partition_strategies_preserve_multiset() {
    for_seeds(CASES, |rng| {
        let ids = vec_of(rng, 1..200, |r| r.range(0..50i64));
        let workers = rng.range(1..6usize);
        let strat = rng.range(0..4usize);
        let schema = Schema::of(&[("id", DataType::Int)]);
        let tuples: Vec<Tuple> = ids
            .iter()
            .map(|i| Tuple::new(schema.clone(), vec![Value::Int(*i)]).unwrap())
            .collect();
        let strategy = match strat {
            0 => PartitionStrategy::RoundRobin,
            1 => PartitionStrategy::Hash(vec!["id".into()]),
            2 => PartitionStrategy::Single,
            _ => PartitionStrategy::Broadcast,
        };

        if strategy == PartitionStrategy::Broadcast {
            // k-fold: every tuple reaches every worker.
            for (seq, t) in tuples.iter().enumerate() {
                let dests = strategy.route(t, seq as u64, workers).unwrap();
                assert_eq!(dests, (0..workers).collect::<Vec<_>>());
            }
        } else {
            let compiled = strategy.compile(&schema).unwrap();
            let mut bufs: Vec<Vec<Tuple>> = vec![Vec::new(); workers];
            let mut seq = 0u64;
            compiled.scatter(tuples, &mut seq, &mut bufs).unwrap();
            assert_eq!(seq, ids.len() as u64);
            // Disjoint + exhaustive: the scattered union is the input
            // multiset, nothing lost and nothing duplicated.
            let mut got: Vec<i64> = bufs
                .iter()
                .flatten()
                .map(|t| t.get_int("id").unwrap())
                .collect();
            got.sort_unstable();
            let mut want = ids.clone();
            want.sort_unstable();
            assert_eq!(got, want);
            // Seq-independent strategies must agree with the declared
            // per-tuple route (RoundRobin depends on arrival order, which
            // the flattened view no longer has).
            if strategy != PartitionStrategy::RoundRobin {
                for (w, buf) in bufs.iter().enumerate() {
                    for t in buf {
                        assert_eq!(strategy.route(t, 0, workers).unwrap(), vec![w]);
                    }
                }
            }
        }
    });
}

/// The columnar batch representation is lossless: `from_rows` then
/// `to_rows` is the identity for arbitrary int/float/str/bool rows
/// with arbitrary null patterns, and the sealed per-column
/// statistics agree with a direct fold over the same rows.
#[test]
fn columnar_from_rows_to_rows_is_identity() {
    for_seeds(CASES, |rng| {
        let rows = vec_of(rng, 0..60, |r| {
            (
                maybe(r, any_i64),
                maybe(r, |r| r.range(-1.0e9..1.0e9f64)),
                maybe(r, |r| string_of(r, LOWER, 8)),
                maybe(r, |r| r.bool(0.5)),
            )
        });
        let schema = Schema::of(&[
            ("i", DataType::Int),
            ("x", DataType::Float),
            ("s", DataType::Str),
            ("b", DataType::Bool),
        ]);
        let values: Vec<Vec<Value>> = rows
            .iter()
            .map(|(i, x, s, b)| {
                vec![
                    i.map_or(Value::Null, Value::Int),
                    x.map_or(Value::Null, Value::Float),
                    s.clone().map_or(Value::Null, Value::Str),
                    b.map_or(Value::Null, Value::Bool),
                ]
            })
            .collect();
        let cb = ColumnarBatch::from_rows(schema.clone(), values.clone()).unwrap();
        assert_eq!(cb.len(), values.len());
        assert_eq!(cb.to_rows(), values.clone());

        // Column statistics vs a direct fold: null counts per column, and
        // min/max over the non-null ints.
        let int_nulls = values.iter().filter(|r| r[0] == Value::Null).count() as u64;
        let ints: Vec<i64> = rows.iter().filter_map(|(i, ..)| *i).collect();
        let col = cb.column_stats(0);
        assert_eq!(col.null_count, int_nulls);
        match (&col.min, &col.max) {
            (Some(Value::Int(lo)), Some(Value::Int(hi))) => {
                assert_eq!(*lo, *ints.iter().min().unwrap());
                assert_eq!(*hi, *ints.iter().max().unwrap());
            }
            (None, None) => assert!(ints.is_empty()),
            other => panic!("inconsistent int stats: {other:?}"),
        }

        // And through the tuple path too.
        let tuples = cb.to_tuples();
        let back = ColumnarBatch::from_tuples(schema, &tuples);
        assert_eq!(back.to_rows(), values);
    });
}

/// Blockstore: sealing a batch into a block and decoding it back is the
/// identity — every column bit for bit, placeholders, validity and sealed
/// statistics included — over int (`i64` extremes too), string, float
/// (NaN and `-0.0` too), bool and all-null columns; a segment decodes to
/// its rows in append order, and its manifest folds the blocks' totals and
/// statistics.
#[test]
fn blockstore_roundtrip_and_manifest_stats() {
    /// Columns by their `Debug` form, which tells NaN and `-0.0` apart
    /// where `==` cannot.
    fn columns(b: &ColumnarBatch) -> Vec<String> {
        (0..b.schema().arity())
            .map(|j| format!("{:?}", b.column(j)))
            .collect()
    }
    let rows_of = |b: &ColumnarBatch| format!("{:?}", b.to_rows());
    for_seeds(CASES, |rng| {
        let extremes = rng.bool(0.3);
        let all_null = rng.range(0..8usize); // a column index, or none
        let rows = vec_of(rng, 1..80, |r| {
            let int = |r: &mut SplitMix64| match r.range(0..4usize) {
                0 if extremes => i64::MIN,
                1 if extremes => i64::MAX,
                _ => r.range(-1000..1000i64),
            };
            let float = |r: &mut SplitMix64| match r.range(0..6usize) {
                0 => f64::NAN,
                1 => -0.0,
                2 => f64::INFINITY,
                _ => r.range(-4000..4000i64) as f64 * 0.25,
            };
            vec![
                maybe(r, int).map_or(Value::Null, Value::Int),
                maybe(r, |r| string_of(r, LOWER, 6)).map_or(Value::Null, Value::Str),
                maybe(r, float).map_or(Value::Null, Value::Float),
                maybe(r, |r| r.bool(0.5)).map_or(Value::Null, Value::Bool),
            ]
        });
        let values: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|mut row| {
                if let Some(cell) = row.get_mut(all_null) {
                    *cell = Value::Null;
                }
                row
            })
            .collect();
        let chunk = rng.range(1..16usize);
        let schema = Schema::of(&[
            ("i", DataType::Int),
            ("s", DataType::Str),
            ("f", DataType::Float),
            ("b", DataType::Bool),
        ]);

        let mut app = BlockAppender::new();
        for chunk_rows in values.chunks(chunk) {
            let cb = ColumnarBatch::from_rows(schema.clone(), chunk_rows.to_vec()).unwrap();
            // Per-block roundtrip: encode → decode is the identity.
            let block = CompressedBlock::seal(&cb);
            let back = block.decode().unwrap();
            assert_eq!(columns(&back), columns(&cb), "columns and validity");
            assert_eq!(back.stats(), cb.stats(), "column statistics");
            assert_eq!(rows_of(&back), rows_of(&cb));
            app.append(&cb);
        }
        let seg = app.seal();

        // Whole-segment roundtrip preserves rows in append order: block
        // by block, and as the one batch all the blocks decode into.
        let mut decoded: Vec<Vec<Value>> = Vec::new();
        for b in seg.blocks() {
            decoded.extend(b.decode().unwrap().to_rows());
        }
        assert_eq!(format!("{decoded:?}"), format!("{values:?}"));
        let whole = ColumnarBatch::from_rows(schema.clone(), values.clone()).unwrap();
        let back = decode_blocks(seg.blocks()).unwrap();
        assert_eq!(columns(&back), columns(&whole));
        assert_eq!(back.stats(), whole.stats());

        // Manifest totals vs direct folds.
        let m = seg.manifest();
        assert_eq!(m.row_count, values.len() as u64);
        assert_eq!(m.block_count, seg.blocks().len() as u64);
        assert_eq!(
            m.compressed_bytes,
            seg.blocks()
                .iter()
                .map(|b| b.compressed_bytes() as u64)
                .sum::<u64>()
        );

        // Merged column statistics vs a direct fold over the rows.
        let int_nulls = values.iter().filter(|r| r[0] == Value::Null).count() as u64;
        let ints: Vec<i64> = values.iter().filter_map(|r| r[0].as_int()).collect();
        let col = m.column_stats(0).expect("non-empty segment has stats");
        assert_eq!(col.null_count, int_nulls);
        match (&col.min, &col.max) {
            (Some(Value::Int(lo)), Some(Value::Int(hi))) => {
                assert_eq!(*lo, *ints.iter().min().unwrap());
                assert_eq!(*hi, *ints.iter().max().unwrap());
            }
            (None, None) => assert!(ints.is_empty()),
            other => panic!("inconsistent int stats: {other:?}"),
        }
        for (j, stats) in whole.stats().columns.iter().enumerate() {
            let column = m.column_stats(j).unwrap();
            assert_eq!(column.null_count, stats.null_count, "column {j}");
        }
    });
}

/// Schema join + tuple concat always produce conforming tuples.
#[test]
fn schema_join_soundness() {
    for_seeds(CASES, |rng| {
        let a = rng.range(1..6usize);
        let bcols = rng.range(1..6usize);
        let left_fields: Vec<(String, DataType)> =
            (0..a).map(|i| (format!("l{i}"), DataType::Int)).collect();
        let right_fields: Vec<(String, DataType)> = (0..bcols)
            .map(|i| (format!("c{i}"), DataType::Int))
            .collect();
        let lrefs: Vec<(&str, DataType)> =
            left_fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let rrefs: Vec<(&str, DataType)> =
            right_fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let ls = Schema::of(&lrefs);
        let rs = Schema::of(&rrefs);
        let joined = Arc::new(ls.join(&rs, "_r").unwrap());
        let lt = Tuple::new(ls.clone(), vec![Value::Int(1); a]).unwrap();
        let rt = Tuple::new(rs, vec![Value::Int(2); bcols]).unwrap();
        let cat = lt.concat(&rt, joined.clone()).unwrap();
        assert_eq!(cat.values().len(), a + bcols);
        assert_eq!(joined.arity(), a + bcols);
    });
}

// Pooled-executor equivalence runs real OS threads per case, so the
// properties below get the smaller `LIVE_CASES` budget.

/// How a property runs a freshly built DAG.
type RunDag<'a> = &'a dyn Fn(&Workflow);

/// A drawn DAG that holds both edge forms, run by `run` on a fresh build
/// (or on its edited copy); the sorted rows of its three sinks. A sealed
/// scan feeds a zone-map-eligible `cmp` filter whose batches fan out to a
/// second `cmp` filter and to a hop — a closure filter or a UDF (the
/// batch → row adapter), or a third `cmp` filter — whose rows or batches
/// probe a join, whose build side arrives hash-partitioned or broadcast,
/// and which feeds its own sink and a grouped aggregate on a drawn `Int`
/// or `Str` key.
///
/// The edit bumps `narrow`'s bound by one and makes `agg` sum `tag`
/// instead of `id`, so a warm cache serves `filt` and `join` and the two
/// edited operators recompute from their replays. Only declarative
/// operators are edited: a closure filter or a UDF is fingerprinted by
/// its name, so a cache rightly serves its old rows after an edit of
/// what it captured.
fn random_join_dag(rng: &mut SplitMix64) -> impl Fn(RunDag, bool) -> [Vec<String>; 3] {
    use scriptflow::workflow::ops::UdfOp;
    let n = rng.range(1..300i64);
    let dim_keys = rng.range(1..12i64);
    let threshold = rng.range(0..300i64);
    let modulus = rng.range(2..7i64);
    let hop_kind = rng.range(0..3usize);
    let group_by = ["k", "label"][rng.range(0..2usize)];
    let workers = rng.range(1..4usize);
    let by_k = PartitionStrategy::Hash(vec!["k".into()]);
    let dims_edge = [by_k.clone(), PartitionStrategy::Broadcast][rng.range(0..2usize)].clone();
    let fact_schema = Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]);
    let facts = Batch::from_rows(
        fact_schema.clone(),
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % (2 * dim_keys))])
            .collect(),
    )
    .unwrap();
    let dim_schema = Schema::of(&[
        ("k", DataType::Int),
        ("tag", DataType::Int),
        ("label", DataType::Str),
    ]);
    let dims = Batch::from_rows(
        dim_schema,
        (0..dim_keys)
            .map(|k| vec![Value::Int(k), Value::Int(-k), format!("l{}é", k % 3).into()])
            .collect(),
    )
    .unwrap();
    move |run, edited| {
        let mut b = WorkflowBuilder::new();
        let fsrc = b.add(Arc::new(ScanOp::new("facts", facts.clone())), workers);
        let dsrc = b.add(Arc::new(ScanOp::new("dims", dims.clone())), 1);
        let lt = |name: &str, bound: i64| {
            Arc::new(FilterOp::cmp(name, "id", CmpOp::Lt, Value::Int(bound)))
        };
        let filt = b.add(lt("filt", threshold), workers);
        let narrow = b.add(lt("narrow", threshold / 2 + i64::from(edited)), workers);
        let keep = move |t: &Tuple| t.get_int("id").map(|id| id % modulus != 0);
        let hop: Arc<dyn OperatorFactory> = match hop_kind {
            0 => {
                let schema = (*fact_schema).clone();
                Arc::new(UdfOp::new("hop", schema, move |t, _, out| {
                    if keep(&t).map_err(|e| WorkflowError::from_data("hop", e))? {
                        out.emit(t);
                    }
                    Ok(())
                }))
            }
            1 => Arc::new(FilterOp::new("hop", keep)),
            // A kernel: the join probes sealed batches and emits them.
            _ => Arc::new(FilterOp::cmp("hop", "k", CmpOp::Ne, Value::Int(modulus))),
        };
        let hop = b.add(hop, workers);
        let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), workers);
        // Sums of small integers: exact whatever order a backend adds in.
        let summed = if edited { "tag" } else { "id" };
        let aggs = vec![AggFn::Count("n".into()), AggFn::Sum(summed.into())];
        let agg = b.add(
            Arc::new(AggregateOp::new("agg", &[group_by], aggs)),
            workers,
        );
        let sinks = ["sink", "narrow_sink", "agg_sink"].map(SinkOp::new);
        let handles = [0, 1, 2].map(|i| sinks[i].handle());
        let [sink, narrow_sink, agg_sink] = sinks.map(|op| b.add(Arc::new(op), 1));
        b.connect(fsrc, filt, 0, PartitionStrategy::RoundRobin);
        b.connect(filt, narrow, 0, PartitionStrategy::RoundRobin);
        b.connect(filt, hop, 0, PartitionStrategy::RoundRobin);
        b.connect(dsrc, join, 0, dims_edge.clone());
        b.connect(hop, join, 1, by_k.clone());
        b.connect(join, sink, 0, PartitionStrategy::Single);
        b.connect(join, agg, 0, PartitionStrategy::Hash(vec![group_by.into()]));
        b.connect(agg, agg_sink, 0, PartitionStrategy::Single);
        b.connect(narrow, narrow_sink, 0, PartitionStrategy::Single);
        run(&b.build().unwrap());
        handles.map(|h| {
            let mut rows: Vec<String> = h.results().iter().map(|t| t.to_string()).collect();
            rows.sort_unstable();
            rows
        })
    }
}

/// The result cache a drawn configuration runs on: none, a fresh one, a
/// fresh one the same DAG has already run through, or one the DAG has run
/// through before it was edited.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CacheState {
    None,
    Cold,
    Warm,
    Edited,
}

/// One drawn engine configuration.
#[derive(Debug)]
struct Config {
    /// The pool's (batch size, mailbox capacity, width); `None` is the sim.
    pool: Option<(usize, usize, usize)>,
    /// On the sim only: its `pipelining` and `columnar` ablation modes.
    sim_modes: (bool, bool),
    budget: Option<usize>,
    cache: CacheState,
    /// On the pool only: a fault a retry budget must absorb.
    fault: Option<FaultPlan>,
}

impl Config {
    fn draw(rng: &mut SplitMix64) -> Config {
        let pool = rng
            .bool(0.75)
            .then(|| (rng.range(1..65), rng.range(1..9), rng.range(1..6)));
        let sim_modes = match pool {
            None => (rng.bool(0.5), rng.bool(0.5)),
            Some(_) => (true, false),
        };
        let budget = rng.bool(0.5).then_some(1 << 10);
        let cache = [
            CacheState::None,
            CacheState::Cold,
            CacheState::Warm,
            CacheState::Edited,
        ][rng.range(0..4usize)];
        // Any operator of `random_join_dag` but a sink.
        let victims = ["facts", "dims", "filt", "narrow", "hop", "join", "agg"];
        let (victim, at) = (victims[rng.range(0..7usize)], rng.range(1..100u64));
        let fault = match (pool, rng.range(0..3usize)) {
            (None, _) | (_, 0) => None,
            (_, 1) => Some(FaultPlan::new(at).panic_at(victim, at)),
            _ => Some(FaultPlan::new(at).kill_worker(victim, at)),
        };
        Config {
            pool,
            sim_modes,
            budget,
            cache,
            fault,
        }
    }

    /// Run `wf` in this configuration through `cache`; with `armed`, the
    /// drawn fault fires under a retry budget that must absorb it.
    fn run(&self, wf: &Workflow, cache: Option<&Arc<ResultCache>>, armed: bool) -> EngineRun {
        let result = match self.pool {
            None => SimExecutor::new(EngineConfig {
                pipelining: self.sim_modes.0,
                columnar: self.sim_modes.1,
                memory_budget: self.budget,
                result_cache: cache.cloned(),
                ..EngineConfig::default()
            })
            .run(wf),
            Some((batch, capacity, pool)) => {
                let mut exec = LiveExecutor::new(batch)
                    .with_channel_capacity(capacity)
                    .with_pool_size(pool)
                    .with_memory_budget(self.budget);
                if let Some(cache) = cache {
                    exec = exec.with_result_cache(Arc::clone(cache));
                }
                if let Some(plan) = self.fault.as_ref().filter(|_| armed) {
                    let policy = RetryPolicy::attempts(3).with_backoff(Backoff::none());
                    exec = exec
                        .with_faults(plan.clone())
                        .with_retry(RetryConfig::uniform(policy));
                }
                exec.run(wf)
            }
        };
        result.unwrap_or_else(|e| panic!("{self:?}: {e}"))
    }
}

/// One oracle for every configuration: on random filter/join DAGs that
/// hold both edge forms, each drawn configuration — the simulator with
/// pipelining on or off and on the row or the columnar path, or the pool
/// at any batch size, mailbox capacity and width; with or without a 1 KiB
/// memory budget; without a cache, on a cold one, a warm one, or one
/// warmed before the DAG was edited; and on the pool, a panic or a killed
/// worker on any operator but a sink, under a retry budget — fills all
/// three sinks with the reference interpreter's rows of the DAG it runs.
#[test]
fn every_configuration_matches_the_reference_on_random_dags() {
    // What the checked runs reached, by path: each path the draw names
    // must be taken at least once.
    let reached = std::cell::RefCell::new(std::collections::BTreeMap::new());
    let tally = |config: &Config, run: EngineRun| {
        let counters = run.counters();
        let (hits, spills) = (counters.cache_hits, counters.spilled_blocks);
        // 1 where the run is of that kind, else 0.
        let edited = u64::from(config.cache == CacheState::Edited);
        let sim = u64::from(config.pool.is_none());
        for (path, n) in [
            ("retries", run.metrics.sched_totals().retries_attempted),
            ("cache hits", hits),
            ("spilled blocks", spills),
            ("edited cache hits", edited * hits),
            ("edited spilled blocks", edited * spills),
            ("unpipelined sim runs", sim * u64::from(!config.sim_modes.0)),
            ("columnar sim runs", sim * u64::from(config.sim_modes.1)),
        ] {
            *reached.borrow_mut().entry(path).or_insert(0) += n;
        }
    };
    for_seeds(LIVE_CASES, |rng| {
        let rows_of = random_join_dag(rng);
        let reference = |wf: &Workflow| drop(LiveExecutor::thread_per_worker(1).run(wf).unwrap());
        let want = [false, true].map(|edited| rows_of(&reference, edited));
        for _ in 0..6 {
            let config = Config::draw(rng);
            let cache = (config.cache != CacheState::None).then(|| Arc::new(ResultCache::new()));
            if matches!(config.cache, CacheState::Warm | CacheState::Edited) {
                let warm_up = rows_of(&|wf| drop(config.run(wf, cache.as_ref(), false)), false);
                assert_eq!(warm_up, want[0], "warm-up of {config:?}");
            }
            let edited = config.cache == CacheState::Edited;
            let got = rows_of(
                &|wf| tally(&config, config.run(wf, cache.as_ref(), true)),
                edited,
            );
            assert_eq!(got, want[usize::from(edited)], "{config:?}");
        }
    });
    let reached = reached.into_inner();
    println!("{reached:?}");
    assert!(reached.values().all(|&n| n > 0), "{reached:?}");
}

/// The pool-scheduled live executor computes exactly what the simulator
/// computes on randomized filter/join DAGs.
#[test]
fn pooled_live_matches_sim_on_random_dag() {
    pool_agrees_with(|wf| drop(SimExecutor::new(EngineConfig::default()).run(wf).unwrap()));
}

/// The layout an edge carries is the engine's business, never the data's:
/// the pool produces the rows of the reference interpreter, which only
/// ever moves rows and ignores the batch size.
#[test]
fn live_columnar_matches_row_on_random_dag() {
    pool_agrees_with(|wf| drop(LiveExecutor::thread_per_worker(1).run(wf).unwrap()));
}

/// On random filter/join DAGs, the pool at a random batch size, mailbox
/// capacity and width fills all three sinks with `oracle`'s rows.
fn pool_agrees_with(oracle: impl Fn(&Workflow)) {
    for_seeds(LIVE_CASES, |rng| {
        let rows_of = random_join_dag(rng);
        let pool = LiveExecutor::new(rng.range(1..64usize))
            .with_channel_capacity(rng.range(1..8usize))
            .with_pool_size(rng.range(1..5usize));
        let want = rows_of(&oracle, false);
        assert_eq!(want, rows_of(&|wf| drop(pool.run(wf).unwrap()), false));
    });
}

/// Chaos: any seeded fault plan against any random chain terminates
/// (the drain path and stall detector always converge), keeps the
/// final trace monotone (downstream input never exceeds upstream
/// output), and leaves every operator in a terminal state.
#[test]
fn seeded_fault_plans_always_drain() {
    for_seeds(LIVE_CASES, |rng| {
        let seed = rng.next_u64();
        let pool = rng.range(1..4usize);
        use scriptflow::workflow::fault::random_chain;
        let (wf, _handle, names) = random_chain(seed);
        let plan = FaultPlan::random(seed, &names);
        let (trace, _result) = LiveExecutor::new(8)
            .with_pool_size(pool)
            .with_faults(plan)
            .run_observed(&wf);
        let (_, last) = trace.samples.last().expect("faulted runs keep a trace");
        for w in last.windows(2) {
            assert!(
                w[1].input_tuples <= w[0].output_tuples,
                "{} read {} but {} wrote {}",
                w[1].name,
                w[1].input_tuples,
                w[0].name,
                w[0].output_tuples
            );
        }
        assert!(last.iter().all(|s| s.state.is_terminal()));
    });
}

/// Retry safety net over the same seeded chains: any retryable fault
/// (panic, kill, poisoned mailbox) under a sufficient budget yields
/// sorted rows identical to the reference interpreter's — the replayed
/// quantum delivers every tuple exactly once — and every operator
/// ends `Completed`.
#[test]
fn retryable_faults_with_budget_preserve_rows() {
    for_seeds(LIVE_CASES, |rng| {
        let seed = rng.next_u64();
        let kind = rng.range(0..3usize);
        use scriptflow::workflow::fault::random_chain;
        use scriptflow::workflow::OperatorState;
        let (wf, handle, _names) = random_chain(seed);
        LiveExecutor::thread_per_worker(8).run(&wf).unwrap();
        let mut want: Vec<String> = handle.results().iter().map(|t| t.to_string()).collect();
        want.sort_unstable();

        let plan = match kind {
            0 => FaultPlan::new(seed).panic_at("f0", 1 + seed % 50),
            1 => FaultPlan::new(seed).kill_worker("f0", 1 + seed % 50),
            _ => FaultPlan::new(seed).poison_mailbox("sink", 1 + seed % 3),
        };
        let (wf, handle, _names) = random_chain(seed);
        let (trace, result) = LiveExecutor::new(8)
            .with_pool_size(1)
            .with_faults(plan)
            .with_retry(RetryConfig::uniform(RetryPolicy::default()))
            .run_observed(&wf);
        assert!(
            result.is_ok(),
            "the default budget absorbs the fault: {:?}",
            result.err()
        );
        let mut got: Vec<String> = handle.results().iter().map(|t| t.to_string()).collect();
        got.sort_unstable();
        assert_eq!(got, want);
        let (_, last) = trace.samples.last().expect("retried runs keep a trace");
        assert!(last.iter().all(|s| s.state == OperatorState::Completed));
    });
}

/// One drawn `column op literal` filter over the chain's schema.
fn any_cmp_filter(rng: &mut SplitMix64, name: &str, n: i64) -> FilterOp {
    let op = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ][rng.range(0..6usize)];
    match rng.range(0..4usize) {
        // Ascending: zone maps can skip or pass whole batches.
        0 => FilterOp::cmp(name, "id", op, Value::Int(rng.range(0..n + 1))),
        1 => FilterOp::cmp(name, "k", op, Value::Int(rng.range(0..8i64))),
        2 => FilterOp::cmp(
            name,
            "s",
            op,
            Value::Str(format!("s{}é", rng.range(0..6usize))),
        ),
        _ => FilterOp::cmp(
            name,
            "v",
            op,
            Value::Float(rng.range(0..40usize) as f64 * 0.25),
        ),
    }
}

/// The columnar data path is a pure layout change on the shapes it was
/// built for: filter chains over every partitioner, with nulls and string
/// keys, fault-free, faulted, and faulted under a retry budget. The scan
/// feeds a `cmp` filter, so the engine seals it. At `pool_size = 1` a run
/// is reproducible, so beyond the rows — pooled == the row-only sim, and
/// a truncated run's rows all among them — every operator's tuple counts,
/// the zone-map skips and the batches sent are pinned by `RECORDED`. All
/// but the skips of faulted runs are what the same draws produced on row
/// edges, before sealed batches travelled whole; a chunk a fault
/// materialized now stays rows downstream, so 40 of the 192 faulted runs
/// prune fewer batches than when the router re-sealed it (diffed run by
/// run against that engine when this was recorded). The batches sent are
/// folded on their own, into `RECORDED_SENT`, so that a change to when a
/// batch leaves an edge shows as that and nothing else: with row edges
/// coalescing to full batches (ISSUE 21) the same fold over the parent
/// engine read `RECORDED` to the digit and 14 301 415 113 994 201 353 for
/// the batches.
#[test]
fn columnar_filter_chains_match_row_and_sim_with_identical_counts() {
    const RECORDED: u64 = 2_086_103_146_405_344_058;
    const RECORDED_SENT: u64 = 10_586_789_209_405_012_073;
    let checksum = std::cell::Cell::new(0u64);
    let sent = std::cell::Cell::new(0u64);
    let fold_into = |sum: &std::cell::Cell<u64>, x: u64| {
        sum.set((sum.get() ^ x).wrapping_mul(0x0000_0100_0000_01b3));
    };
    let fold = |x: u64| fold_into(&checksum, x);
    for_seeds(48, |rng| {
        let n = rng.range(1..400i64);
        let batch = rng.range(1..48usize);
        let null_share = [0.0, 0.1, 0.5][rng.range(0..3usize)];
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("v", DataType::Float),
        ]);
        let rows = (0..n)
            .map(|id| {
                let mut cell = |v: fn(usize) -> Value, below: usize| {
                    let v = v(rng.range(0..below));
                    if rng.bool(null_share) {
                        Value::Null
                    } else {
                        v
                    }
                };
                vec![
                    Value::Int(id),
                    cell(|x| Value::Int(x as i64), 8),
                    cell(|x| Value::Str(format!("s{x}é")), 6),
                    cell(|x| Value::Float(x as f64 * 0.25), 40),
                ]
            })
            .collect();
        let data = Batch::from_rows(schema, rows).unwrap();
        let strategy = |rng: &mut SplitMix64| match rng.range(0..5usize) {
            0 => PartitionStrategy::RoundRobin,
            1 => PartitionStrategy::Hash(vec!["s".into()]),
            2 => PartitionStrategy::Hash(vec!["k".into(), "s".into()]),
            3 => PartitionStrategy::Broadcast,
            _ => PartitionStrategy::Single,
        };
        let widths = [
            rng.range(1..4usize),
            rng.range(1..4usize),
            rng.range(1..4usize),
        ];
        let edges = [strategy(rng), strategy(rng)];
        let filters = [
            Arc::new(any_cmp_filter(rng, "f1", n)),
            Arc::new(any_cmp_filter(rng, "f2", n)),
        ];
        let scan = Arc::new(ScanOp::new("scan", data));
        let build = || {
            let mut b = WorkflowBuilder::new();
            let src = b.add(scan.clone(), widths[0]);
            let f1 = b.add(filters[0].clone(), widths[1]);
            let f2 = b.add(filters[1].clone(), widths[2]);
            let sink_op = SinkOp::new("sink");
            let handle = sink_op.handle();
            let sink = b.add(Arc::new(sink_op), 1);
            b.connect(src, f1, 0, edges[0].clone());
            b.connect(f1, f2, 0, edges[1].clone());
            b.connect(f2, sink, 0, PartitionStrategy::Single);
            (b.build().unwrap(), handle)
        };
        let sorted = |handle: &scriptflow::workflow::ops::SinkHandle| {
            let mut rows: Vec<String> = handle.results().iter().map(|t| t.to_string()).collect();
            rows.sort_unstable();
            rows
        };
        let (wf_sim, h_sim) = build();
        SimExecutor::new(EngineConfig::default())
            .run(&wf_sim)
            .unwrap();
        let want = sorted(&h_sim);

        let at = 1 + rng.range(0..(n as u64).min(60));
        let victim = ["scan", "f1", "f2"][rng.range(0..3usize)];
        let plans = [
            None,
            Some(FaultPlan::new(7).panic_at(victim, at)),
            Some(FaultPlan::new(7).kill_worker(victim, at)),
        ];
        for plan in plans {
            for retry in [false, true] {
                if plan.is_none() && retry {
                    continue;
                }
                let (wf, handle) = build();
                let mut exec = LiveExecutor::new(batch).with_pool_size(1);
                if let Some(plan) = &plan {
                    exec = exec.with_faults(plan.clone());
                }
                if retry {
                    let policy = RetryPolicy::attempts(3).with_backoff(Backoff::none());
                    exec = exec.with_retry(RetryConfig::uniform(policy));
                }
                let (trace, result) = exec.run_observed(&wf);
                let (_, last) = trace.samples.last().expect("every run keeps a trace");
                let rows = sorted(&handle);
                let what = format!("victim {victim} at {at}, plan {plan:?}, retry {retry}");
                if plan.is_none() || retry {
                    assert!(result.is_ok(), "{what}");
                    assert_eq!(rows, want, "{what}");
                } else {
                    // Truncated, never invented.
                    let mut complete = want.iter();
                    for row in &rows {
                        assert!(complete.any(|w| w == row), "{what}: stray row {row}");
                    }
                }
                for s in last {
                    fold(s.input_tuples);
                    fold(s.output_tuples);
                }
                fold(last.iter().map(|s| s.counters.batches_skipped).sum());
                fold_into(
                    &sent,
                    result.map_or(u64::MAX, |r| r.pool.unwrap().batches_sent),
                );
                fold(rows.len() as u64);
            }
        }
    });
    assert_eq!(
        (checksum.get(), sent.get()),
        (RECORDED, RECORDED_SENT),
        "tuple counts, zone-map skips or delivered rows moved (left), or batches sent (right)"
    );
}

//! Integration suite for the result cache's on-disk persistence: a
//! "process restart" (a fresh [`ResultCache::persistent`] over the same
//! directory) serves warm reruns with rows byte-identical to a
//! cache-free run and `cache_hits > 0`; corrupt or truncated segment
//! files degrade to a miss (the run recomputes and republishes, rows
//! unchanged). Nothing but the directory survives the restart: every
//! handle on the first cache is dropped before the second opens it, so
//! what the warm run is served is what a dead process left on disk.

use std::path::PathBuf;
use std::sync::Arc;

use scriptflow::core::{BackendKind, OpFingerprint};
use scriptflow::datakit::{Batch, CmpOp, DataType, Schema, SchemaRef, Tuple, Value};
use scriptflow::simcluster::SplitMix64;
use scriptflow::workflow::ops::{AggFn, AggregateOp, FilterOp, ScanOp, SinkHandle, SinkOp};
use scriptflow::workflow::{
    EngineConfig, ExecBackend, PartitionStrategy, ResultCache, Workflow, WorkflowBuilder,
};

const ROWS: i64 = 350;

fn schema() -> SchemaRef {
    Schema::of(&[("id", DataType::Int)])
}

fn pipeline() -> (Workflow, SinkHandle) {
    let batch = Batch::from_rows(
        schema(),
        (0..ROWS).map(|i| vec![Value::Int(i * 11 % 251)]).collect(),
    )
    .expect("rows conform");
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
    let keep = b.add(
        Arc::new(FilterOp::cmp("keep", "id", CmpOp::Ge, Value::Int(12))),
        2,
    );
    let sink_op = SinkOp::new("sink");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);
    b.connect(scan, keep, 0, PartitionStrategy::RoundRobin);
    b.connect(keep, sink, 0, PartitionStrategy::Single);
    (b.build().expect("valid DAG"), handle)
}

fn sorted_rows(h: &SinkHandle) -> Vec<String> {
    let mut rows: Vec<String> = h.results().iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows
}

fn baseline_rows() -> Vec<String> {
    let (wf, h) = pipeline();
    ExecBackend::of_kind(BackendKind::Live, EngineConfig::default())
        .run_detached(&wf)
        .expect("cache-free baseline");
    sorted_rows(&h)
}

fn cached_backend(cache: &Arc<ResultCache>) -> ExecBackend {
    ExecBackend::of_kind(
        BackendKind::Live,
        EngineConfig::default().with_result_cache(Arc::clone(cache)),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scriptflow-persist-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Acceptance pin: publish, "restart" (reopen the directory with a
/// fresh cache value — nothing carried over in memory), and the warm
/// rerun is served off disk with rows identical to the cache-free run.
#[test]
fn restart_serves_warm_reruns_byte_identical_from_disk() {
    let dir = temp_dir("restart");
    let baseline = baseline_rows();

    let session1 = Arc::new(ResultCache::persistent(&dir).expect("open store"));
    let (wf, h) = pipeline();
    let cold = cached_backend(&session1)
        .run_detached(&wf)
        .expect("cold run");
    assert!(cold.cache_published > 0, "cold run seals segments to disk");
    assert_eq!(cold.counters().cache_hits, 0, "the store was empty");
    assert_eq!(sorted_rows(&h), baseline);
    drop(session1);

    let session2 = Arc::new(ResultCache::persistent(&dir).expect("reopen store"));
    assert!(session2.entries() > 0, "manifest restored the entries");
    let (wf, h) = pipeline();
    let warm = cached_backend(&session2)
        .run_detached(&wf)
        .expect("warm run");
    assert!(
        warm.counters().cache_hits > 0,
        "restarted rerun is served from disk"
    );
    assert_eq!(warm.cache_published, 0, "nothing new to publish");
    assert_eq!(sorted_rows(&h), baseline, "served rows are byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold run of a DAG with three cacheable operators commits them in
/// one go, indexed by the one `MANIFEST` the commit writes: on reopen
/// every entry is listed, counts to the published bytes and is served
/// off disk with the rows its operator emitted.
#[test]
fn a_cold_commit_indexes_every_entry_it_publishes() {
    let dir = temp_dir("commit");
    let batch = Batch::from_rows(
        schema(),
        (0..3_000)
            .map(|i| vec![Value::Int(i * 7 % 1_009)])
            .collect(),
    )
    .expect("rows conform");
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
    let keep = FilterOp::cmp("keep", "id", CmpOp::Ge, Value::Int(40));
    let keep = b.add(Arc::new(keep), 2);
    let per_id = AggregateOp::new("per_id", &["id"], vec![AggFn::Count("n".into())]);
    let per_id = b.add(Arc::new(per_id), 2);
    let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
    b.connect(scan, keep, 0, PartitionStrategy::RoundRobin);
    b.connect(keep, per_id, 0, PartitionStrategy::Hash(vec!["id".into()]));
    b.connect(per_id, sink, 0, PartitionStrategy::Single);
    let wf = b.build().expect("valid DAG");

    let cache = Arc::new(ResultCache::persistent(&dir).expect("open store"));
    let cold = cached_backend(&cache).run_detached(&wf).expect("cold run");
    assert_eq!(
        cold.counters().cache_misses,
        3,
        "scan, keep and per_id record"
    );
    drop(cache);

    let reopened = ResultCache::persistent(&dir).expect("reopen store");
    let mut recorded: Vec<OpFingerprint> = ["scan", "keep", "per_id"]
        .map(|name| wf.fingerprint(wf.op_by_name(name).unwrap()))
        .to_vec();
    recorded.sort_unstable();
    assert_eq!(reopened.fingerprints(), recorded);
    assert_eq!(reopened.bytes(), cold.cache_published);
    for name in ["scan", "keep", "per_id"] {
        let entry = reopened
            .lookup(wf.fingerprint(wf.op_by_name(name).unwrap()))
            .expect("every committed entry is served off disk");
        let emitted = cold.metrics.by_name(name).unwrap().output_tuples;
        assert_eq!(entry.rows(), emitted, "{name}");
        assert_eq!(entry.tuples().len() as u64, emitted, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption fuzz over every persisted segment file: flip a byte in
/// one, truncate another, and the reopened cache treats each damaged
/// entry as a miss — the rerun recomputes, produces baseline rows, and
/// republishes fresh segments.
#[test]
fn corrupt_and_truncated_segments_degrade_to_misses() {
    let dir = temp_dir("corrupt");
    let baseline = baseline_rows();
    {
        let cache = Arc::new(ResultCache::persistent(&dir).expect("open store"));
        let (wf, _h) = pipeline();
        let cold = cached_backend(&cache).run_detached(&wf).expect("cold run");
        assert!(cold.cache_published > 0);
    }
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    assert!(segs.len() >= 2, "expected segments for scan and keep");
    // Damage every file a different way: byte flip, truncation, empty.
    for (i, path) in segs.iter().enumerate() {
        let mut bytes = std::fs::read(path).expect("segment readable");
        match i % 3 {
            0 => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x55;
            }
            1 => bytes.truncate(bytes.len() / 3),
            _ => bytes.clear(),
        }
        std::fs::write(path, &bytes).expect("rewrite damaged segment");
    }

    let cache = Arc::new(ResultCache::persistent(&dir).expect("reopen store"));
    let (wf, h) = pipeline();
    let rerun = cached_backend(&cache).run_detached(&wf).expect("rerun");
    assert_eq!(
        rerun.counters().cache_hits,
        0,
        "damaged entries must not serve"
    );
    assert!(
        rerun.counters().cache_misses > 0,
        "every operator recomputes"
    );
    assert!(rerun.cache_published > 0, "fresh segments are republished");
    assert_eq!(sorted_rows(&h), baseline, "recomputed rows are identical");

    // The repaired store now serves again.
    let (wf, h) = pipeline();
    let warm = cached_backend(&cache).run_detached(&wf).expect("warm run");
    assert!(warm.counters().cache_hits > 0);
    assert_eq!(sorted_rows(&h), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store written by a *budgeted* persistent cache restarts with only
/// the surviving entries — evicted segments are gone from disk too.
#[test]
fn budgeted_store_restarts_with_only_surviving_entries() {
    let dir = temp_dir("budgeted");
    let cold_published = {
        let probe = Arc::new(ResultCache::new());
        let (wf, _h) = pipeline();
        cached_backend(&probe)
            .run_detached(&wf)
            .expect("probe run")
            .cache_published
    };
    let budget = cold_published - 1;
    let (live_bytes, survivors) = {
        let cache = Arc::new(
            ResultCache::persistent(&dir)
                .expect("open store")
                .with_byte_budget(budget),
        );
        let (wf, _h) = pipeline();
        let run = cached_backend(&cache).run_detached(&wf).expect("cold run");
        assert!(
            run.counters().cache_evictions > 0,
            "tight budget evicts at commit"
        );
        (cache.bytes(), cache.fingerprints())
    };
    let reopened = ResultCache::persistent(&dir).expect("reopen store");
    assert_eq!(reopened.bytes(), live_bytes);
    assert_eq!(reopened.fingerprints(), survivors);
    for fp in survivors {
        assert!(reopened.lookup(fp).is_some(), "survivor decodes off disk");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

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

/// A persistent store at `dir` holding one entry of `tuples` under
/// `fp`; returns the entry's image and published bytes.
fn one_entry(dir: &PathBuf, fp: OpFingerprint, tuples: &[Tuple]) -> (PathBuf, Vec<u8>, u64) {
    let bytes =
        ResultCache::persistent(dir)
            .expect("open store")
            .publish(fp, tuples[0].schema(), tuples);
    assert!(bytes > 0);
    let path = dir.join(format!("{:032x}.seg", fp.0));
    let image = std::fs::read(&path).expect("segment written");
    (path, image, bytes)
}

/// Reopen `dir` and look `fp` up: the listed entry is a miss, and the
/// ledger drops exactly its bytes.
fn assert_reopens_as_a_miss(dir: &PathBuf, fp: OpFingerprint, bytes: u64) {
    let cache = ResultCache::persistent(dir).expect("reopen store");
    assert_eq!((cache.entries(), cache.bytes()), (1, bytes), "still listed");
    assert!(cache.lookup(fp).is_none(), "an unreadable image is a miss");
    assert_eq!((cache.entries(), cache.bytes()), (0, 0), "and is dropped");
}

/// A store written by an earlier format — version 2 (column statistics
/// in the headers) or version 1 (before the column-major payload,
/// byte-serial FNV-1a) — reopens with its entries listed, and each is a
/// miss on lookup: no reader of an older version is kept.
#[test]
fn version_one_image_reopens_as_a_miss() {
    let dir = temp_dir("v1");
    let fp = OpFingerprint(11);
    let ids: Vec<Tuple> = (0..300)
        .map(|i| Tuple::new(schema(), vec![Value::Int(i)]).expect("row conforms"))
        .collect();
    let byte_serial = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    for (magic, word_wise) in [(b"SFSEG2", true), (b"SFSEG1", false)] {
        let (path, image, bytes) = one_entry(&dir, fp, &ids);
        assert_eq!(&image[..6], b"SFSEG3");
        let mut old = image[..image.len() - 8].to_vec();
        old[..6].copy_from_slice(magic);
        let sum = if word_wise {
            checksum(&old)
        } else {
            byte_serial(&old)
        };
        old.extend(sum.to_le_bytes());
        std::fs::write(&path, &old).expect("write an older image");
        assert_reopens_as_a_miss(&dir, fp, bytes);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored value nested a million lists deep — a cell of a `List`
/// column, under a valid checksum and the entry's own `MANIFEST` line — is
/// refused at the 256 levels a JSON document may nest, not recursed into
/// until the stack overflows.
#[test]
fn deeply_nested_stored_value_is_a_miss_not_a_stack_overflow() {
    const DEPTH: usize = 1_000_000;
    let dir = temp_dir("nested");
    let fp = OpFingerprint(12);
    // One cell of `5 * DEPTH + 1` stored bytes: a list tag and length, a
    // byte string's tag and length, and its bytes.
    let schema = Schema::of(&[("l", DataType::List)]);
    let blob = Value::Bytes(vec![0u8; 5 * DEPTH - 9].into());
    let row = Tuple::new(schema, vec![Value::List(vec![blob])]).expect("row conforms");
    let (path, mut image, bytes) = one_entry(&dir, fp, &[row]);
    // Magic (6), the schema `[("l", List)]` (4 + 4 + 1 + 1), four u64
    // manifest counts (32) and the block's three u32 sizes (12): then the
    // column, which is the one cell.
    let cell = 6 + 10 + 32 + 12;
    assert_eq!(image[cell..cell + 6], [6, 1, 0, 0, 0, 5], "a list of bytes");
    // Rewritten in place as a million lists of one element around a
    // null: the same length, so every count and the `MANIFEST` line still
    // agree.
    let nested = [6, 1, 0, 0, 0].repeat(DEPTH);
    let body = image.len() - 8;
    assert_eq!(cell + nested.len() + 1, body);
    image[cell..cell + nested.len()].copy_from_slice(&nested);
    image[body - 1] = 0;
    let sum = checksum(&image[..body]);
    image[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &image).expect("write forged image");
    assert_reopens_as_a_miss(&dir, fp, bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Decoder fuzz for a persisted entry (the first piece of the seeded
/// mutation net): every body position of every segment the pipeline
/// writes is damaged in turn — one byte XORed with a seeded non-zero
/// mask, the trailing checksum recomputed so the envelope still
/// verifies — and the store reopened. A forged image either is a miss
/// (recomputed, baseline rows) or serves rows of the baseline's shape;
/// it never panics the submitter and never surfaces a typed error.
#[test]
fn rechecksummed_mutations_serve_or_miss_never_panic() {
    let dir = temp_dir("mutate");
    let baseline = baseline_rows();
    {
        let cache = Arc::new(ResultCache::persistent(&dir).expect("open store"));
        let (wf, _h) = pipeline();
        cached_backend(&cache).run_detached(&wf).expect("cold run");
    }
    // The pristine store: every file by name, restored before each case
    // (a miss republishes over the damaged file and rewrites the index).
    let pristine: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .map(|p| {
            let bytes = std::fs::read(&p).expect("store file readable");
            (p, bytes)
        })
        .collect();
    let segs: Vec<usize> = (0..pristine.len())
        .filter(|&i| pristine[i].0.extension().is_some_and(|x| x == "seg"))
        .collect();
    assert!(segs.len() >= 2, "expected segments for scan and keep");

    let mut rng = SplitMix64::new(0x5eed_ca5e);
    let (mut cases, mut misses, mut panics, mut errors, mut misshapen) = (0, 0, 0, 0, 0);
    for &seg in &segs {
        let body = pristine[seg].1.len() - 8;
        for at in 0..body {
            for (path, bytes) in &pristine {
                std::fs::write(path, bytes).expect("restore store file");
            }
            let mut image = pristine[seg].1.clone();
            image[at] ^= rng.range(1u64..256) as u8;
            let sum = checksum(&image[..body]);
            image[body..].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&pristine[seg].0, &image).expect("write forged segment");

            cases += 1;
            let outcome = std::panic::catch_unwind(|| {
                let cache = Arc::new(ResultCache::persistent(&dir).expect("reopen store"));
                let (wf, h) = pipeline();
                let run = cached_backend(&cache).run_detached(&wf);
                run.map(|run| (run.counters().cache_misses, sorted_rows(&h)))
            });
            match outcome {
                Err(_) => panics += 1,
                Ok(Err(_)) => errors += 1,
                // Served whole: the forged bytes decoded to rows.
                Ok(Ok((0, rows))) => misshapen += usize::from(rows.len() != baseline.len()),
                Ok(Ok((_, rows))) => {
                    misses += 1;
                    assert_eq!(rows, baseline, "a miss recomputes the baseline");
                }
            }
        }
    }
    println!("{cases} forged images: {misses} misses, {panics} panics, {errors} errors");
    assert_eq!((panics, errors, misshapen), (0, 0, 0), "of {cases} images");
    assert!(misses > 0, "some payload damage must be caught at load");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write `lines` as the store's `MANIFEST`, each fingerprint backed by an
/// empty segment file, so every line survives the open and is found
/// corrupt on lookup.
fn forge_manifest(dir: &PathBuf, lines: &[(u128, u64, &str)]) {
    std::fs::create_dir_all(dir).expect("store dir");
    let mut text = String::from("scriptflow-cache v1\n");
    for &(fp, bytes, owner) in lines {
        text.push_str(&format!("{fp:032x} 10 1 {bytes} 0 {owner}\n"));
        std::fs::write(dir.join(format!("{fp:032x}.seg")), b"").expect("segment file");
    }
    std::fs::write(dir.join("MANIFEST"), text).expect("manifest");
}

/// The byte ledger is a sum over the entries held: a forged count that
/// would overflow it drops its line instead of panicking the open (or
/// wrapping the total a budget is enforced against).
#[test]
fn forged_manifest_byte_counts_cannot_overflow_the_ledger() {
    let dir = temp_dir("overflow");
    forge_manifest(&dir, &[(1, u64::MAX, "mallory"), (2, u64::MAX, "mallory")]);
    let cache = ResultCache::persistent(&dir).expect("a forged manifest still opens");
    assert_eq!(
        cache.entries(),
        1,
        "the line that would overflow is dropped"
    );
    assert_eq!(cache.bytes(), u64::MAX);
    let fp = cache.fingerprints()[0];
    assert!(cache.lookup(fp).is_none(), "an empty segment is a miss");
    assert_eq!((cache.entries(), cache.bytes()), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fingerprint listed twice is one entry, counted once, before and
/// after its segment is found corrupt; the rewritten index lists each
/// fingerprint it still holds once.
#[test]
fn duplicated_manifest_line_is_counted_once() {
    let dir = temp_dir("duplicate");
    forge_manifest(
        &dir,
        &[(7, 1_000, "alice"), (7, 1_000, "alice"), (9, 500, "bob")],
    );
    let cache = ResultCache::persistent(&dir).expect("open store");
    assert_eq!(cache.entries(), 2);
    assert_eq!(cache.bytes(), 1_500);
    let fps = cache.fingerprints();
    assert!(cache.lookup(fps[0]).is_none(), "an empty segment is a miss");
    assert_eq!((cache.entries(), cache.bytes()), (1, 500));
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("rewritten index");
    assert_eq!(
        manifest,
        format!("scriptflow-cache v1\n{:032x} 10 1 500 0\n", 9)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose index an earlier release wrote, with a sixth column
/// naming each entry's publishing tenant (`-` for none; the name runs to
/// the end of the line, so it may hold spaces), reopens with every entry:
/// the loader reads a line's first five fields and ignores the rest.
#[test]
fn manifest_with_an_owner_column_reopens_with_every_entry() {
    let dir = temp_dir("owner-column");
    let cache = ResultCache::persistent(&dir).expect("open store");
    let owners = ["-", "alice", "two words"];
    let mut manifest = String::from("scriptflow-cache v1\n");
    let mut total = 0;
    for (i, owner) in owners.into_iter().enumerate() {
        let fp = OpFingerprint(i as u128 + 1);
        let tuples: Vec<Tuple> = (0..(i as i64 + 1) * 40)
            .map(|k| Tuple::new(schema(), vec![Value::Int(k)]).expect("rows conform"))
            .collect();
        cache.publish(fp, &schema(), &tuples);
        let entry = cache.lookup(fp).expect("just published");
        let (rows, blocks, bytes) = (entry.rows(), entry.blocks(), entry.bytes());
        manifest.push_str(&format!(
            "{:032x} {rows} {blocks} {bytes} 0 {owner}\n",
            fp.0
        ));
        total += bytes;
    }
    drop(cache);
    std::fs::write(dir.join("MANIFEST"), manifest).expect("hand-written index");

    let reopened = ResultCache::persistent(&dir).expect("reopen store");
    assert_eq!(reopened.entries(), owners.len(), "every line is an entry");
    for i in 0..owners.len() {
        let fp = OpFingerprint(i as u128 + 1);
        assert!(reopened.lookup(fp).is_some(), "{fp:?} is served");
    }
    assert_eq!(reopened.bytes(), total);
    let _ = std::fs::remove_dir_all(&dir);
}

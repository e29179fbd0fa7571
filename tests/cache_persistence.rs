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

use scriptflow::core::BackendKind;
use scriptflow::datakit::{Batch, CmpOp, DataType, Schema, SchemaRef, Value};
use scriptflow::simcluster::SplitMix64;
use scriptflow::workflow::ops::{FilterOp, ScanOp, SinkHandle, SinkOp};
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

/// FNV-1a-64, the trailing checksum of a segment image.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
            let sum = fnv1a64(&image[..body]);
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
    assert_eq!(cache.owner_bytes("mallory"), u64::MAX);
    let fp = cache.fingerprints()[0];
    assert!(cache.lookup(fp).is_none(), "an empty segment is a miss");
    assert_eq!((cache.entries(), cache.bytes()), (0, 0));
    assert_eq!(cache.owner_bytes("mallory"), 0);
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
    assert_eq!(cache.owner_bytes("alice"), 1_000);
    let fps = cache.fingerprints();
    assert!(cache.lookup(fps[0]).is_none(), "an empty segment is a miss");
    assert_eq!((cache.entries(), cache.bytes()), (1, 500));
    assert_eq!(cache.owner_bytes("alice"), 0);
    assert_eq!(cache.owner_bytes("bob"), 500);
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("rewritten index");
    assert_eq!(
        manifest,
        format!("scriptflow-cache v1\n{:032x} 10 1 500 0 bob\n", 9)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

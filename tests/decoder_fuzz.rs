//! Decoder fuzz for the documents the workflow crate reads back: a
//! progress trace (`TraceJson::parse`), a declarative workflow spec
//! (`spec::parse`) and a result cache's `MANIFEST`
//! (`ResultCache::persistent`). Seeded `SplitMix64` loops feed each
//! decoder arbitrary bytes and mutations of a real document; every input
//! must yield `Ok` or `Err` (for a manifest: entries, or misses), never a
//! panic. A parsed trace must also render (`render_timeline` indexes
//! every sample by the first one's operators). The served/refused counts
//! are pinned, so a decoder change that accepts or refuses different
//! inputs shows up here. Each decoder also reads a valid input eight
//! times the size in at most 32 times the time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use scriptflow::core::OpFingerprint;
use scriptflow::datakit::blockstore::decode_blocks;
use scriptflow::datakit::codec::Json;
use scriptflow::datakit::{BlockAppender, ColumnarBatch, DataType, Schema, Segment, Tuple, Value};
use scriptflow::simcluster::{SimDuration, SplitMix64};
use scriptflow::workflow::trace::{render_timeline, ProgressTrace, TraceJson};
use scriptflow::workflow::{spec, EngineConfig, ResultCache, SimExecutor};

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

/// The trace of [`SPEC`] run on the simulator, sampled at a fifth of its
/// makespan: a handful of samples of six operators, deterministic.
fn trace_document() -> String {
    let wf = spec::parse(SPEC).expect("the spec is valid").workflow;
    let sim = |exec: SimExecutor| exec.run(&wf).expect("the spec runs");
    let makespan = sim(SimExecutor::new(EngineConfig::default())).makespan();
    let interval = SimDuration::from_micros(makespan.as_micros() / 5);
    let run = sim(SimExecutor::new(EngineConfig::default()).with_trace(interval));
    assert!(run.trace.len() >= 5, "{} samples", run.trace.len());
    TraceJson::from_trace(&run.trace).to_string_compact()
}

/// Bytes a mutation writes: JSON structure and literals far more often
/// than a uniform byte would be, so mutants get past the tokenizer.
const ALPHABET: &[u8] = b"[]{}\",:-.0123456789eEtrufalsn \\";

fn pick(rng: &mut SplitMix64) -> u8 {
    if rng.bool(0.75) {
        ALPHABET[rng.range(0..ALPHABET.len())]
    } else {
        rng.range(0u64..256) as u8
    }
}

/// `doc` with one to four random edits: a byte replaced, deleted or
/// inserted, a span duplicated, or the tail cut.
fn mutate(doc: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    for _ in 0..rng.range(1usize..5) {
        let at = rng.range(0..bytes.len().max(1));
        match rng.range(0usize..5) {
            0 if !bytes.is_empty() => bytes[at] = pick(rng),
            1 if !bytes.is_empty() => {
                bytes.remove(at);
            }
            2 => bytes.insert(at.min(bytes.len()), pick(rng)),
            3 if !bytes.is_empty() => {
                let end = (at + rng.range(1usize..64)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

/// Arbitrary input: up to 256 bytes, uniform or from [`ALPHABET`].
fn arbitrary(rng: &mut SplitMix64) -> Vec<u8> {
    let structured = rng.bool(0.5);
    (0..rng.range(0usize..257))
        .map(|_| {
            if structured {
                ALPHABET[rng.range(0..ALPHABET.len())]
            } else {
                rng.range(0u64..256) as u8
            }
        })
        .collect()
}

/// Feed `decode` the `fixed` cases, then `n` mutants of `doc` and `n`
/// arbitrary inputs; returns `(accepted, refused)` per group. A panic
/// fails the test on the spot, naming the input.
fn fuzz(
    seed: u64,
    doc: &str,
    fixed: &[String],
    n: usize,
    decode: impl Fn(&str) -> bool,
) -> [(usize, usize); 3] {
    let mut rng = SplitMix64::new(seed);
    let run = |inputs: &mut dyn Iterator<Item = Vec<u8>>| {
        let (mut ok, mut err) = (0, 0);
        for bytes in inputs {
            let text = String::from_utf8_lossy(&bytes);
            match catch_unwind(AssertUnwindSafe(|| decode(&text))) {
                Ok(true) => ok += 1,
                Ok(false) => err += 1,
                Err(_) => panic!("decoder panicked on {text:?}"),
            }
        }
        (ok, err)
    };
    let fixed = run(&mut fixed.iter().map(|s| s.clone().into_bytes()));
    let mutants: Vec<Vec<u8>> = (0..n).map(|_| mutate(doc.as_bytes(), &mut rng)).collect();
    let arbitrary: Vec<Vec<u8>> = (0..n).map(|_| arbitrary(&mut rng)).collect();
    [
        fixed,
        run(&mut mutants.into_iter()),
        run(&mut arbitrary.into_iter()),
    ]
}

/// Nesting far past [`Json::MAX_DEPTH`], in `doc` at `at`.
fn nested_deep(doc: &str, at: usize) -> String {
    let depth = 100_000;
    format!(
        "{}{}1{}{}",
        &doc[..at],
        "[".repeat(depth),
        "]".repeat(depth),
        &doc[at..]
    )
}

#[test]
fn trace_documents_parse_or_refuse_never_panic() {
    let doc = trace_document();
    let at = doc.find("\"operators\":").expect("a sample") + "\"operators\":".len();
    // A ragged trace: the last sample's last operator removed.
    let last_op = doc
        .rfind(",{\"name\"")
        .expect("two operators in the last sample");
    let tail = &doc[last_op + 1..];
    let ragged = format!(
        "{}{}",
        &doc[..last_op],
        &tail[tail.find('}').unwrap() + 1..]
    );
    let fixed = [doc.clone(), nested_deep(&doc, at), ragged];
    let counts = fuzz(0x7ace_f022, &doc, &fixed, 3_000, |text| {
        TraceJson::parse(text).map(|t| render_timeline(&t)).is_ok()
    });
    println!("trace: {counts:?}");
    // The real document parses; the deep and the ragged one do not.
    assert_eq!(counts, [(1, 2), (422, 2_578), (0, 3_000)]);
}

#[test]
fn spec_documents_parse_or_refuse_never_panic() {
    let at = SPEC.find("\"rows\":").expect("inline rows") + "\"rows\":".len();
    let fixed = [SPEC.to_owned(), nested_deep(SPEC, at)];
    let counts = fuzz(0x5bec_f022, SPEC, &fixed, 3_000, |text| {
        spec::parse(text).is_ok()
    });
    println!("spec: {counts:?}");
    // The real spec parses; the deep one does not.
    assert_eq!(counts, [(1, 1), (103, 2_897), (0, 3_000)]);
}

/// The bound itself, through a decoder: a trace nested exactly
/// [`Json::MAX_DEPTH`] deep is well-formed JSON that fails on shape, one
/// level more fails on depth.
#[test]
fn nesting_at_the_bound_reaches_the_trace_decoder() {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let shape = TraceJson::parse(&format!("{{\"samples\":{}}}", nest(Json::MAX_DEPTH - 1)));
    assert!(!shape.unwrap_err().contains("nesting"));
    let deep = TraceJson::parse(&format!("{{\"samples\":{}}}", nest(Json::MAX_DEPTH)));
    assert!(deep.unwrap_err().contains("nesting"));
}

/// A persistent cache at `dir` holding four entries of different sizes,
/// fingerprints 1 to 4: every file it wrote, the `MANIFEST` last.
fn cache_store(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let cache = ResultCache::persistent(dir).expect("open store");
    let schema = Schema::of(&[("k", DataType::Int), ("s", DataType::Str)]);
    for fp in 1..=4u64 {
        let rows: Vec<Tuple> = (0..fp as i64 * 25)
            .map(|k| Tuple::new(schema.clone(), vec![Value::Int(k), format!("r{k}").into()]))
            .collect::<Result<_, _>>()
            .expect("rows conform");
        let cost = SimDuration::from_micros(10 * fp);
        let fp = OpFingerprint(u128::from(fp));
        cache.publish_costed(fp, &schema, &rows, cost);
    }
    let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| {
            let path = e.expect("store entry").path();
            let bytes = std::fs::read(&path).expect("store file");
            (path, bytes)
        })
        .collect();
    files.sort_by_key(|(p, _)| p.ends_with("MANIFEST"));
    assert_eq!(files.len(), 5, "four segments and the index");
    files
}

/// Open the store with `manifest` as its index, then look up every
/// fingerprint it lists. Afterwards only served entries remain, so the
/// byte ledger must be their sum. Returns (opened with an entry, served,
/// missed).
fn open_and_look_up(dir: &Path) -> [usize; 3] {
    let cache = ResultCache::persistent(dir).expect("the directory opens");
    let listed = cache.fingerprints();
    let served: Vec<u64> = listed
        .iter()
        .filter_map(|&fp| cache.lookup(fp).map(|entry| entry.bytes()))
        .collect();
    assert_eq!(cache.bytes(), served.iter().sum::<u64>());
    [
        usize::from(!listed.is_empty()),
        served.len(),
        listed.len() - served.len(),
    ]
}

/// Words of an arbitrary index body: the store's fingerprints, small and
/// overflowing counts, owner names as an older index wrote them in a
/// sixth column, and junk, so a line often names an entry the store
/// holds.
const MANIFEST_WORDS: &str = "1 2 3 4 0 25 4096 18446744073709551615 - alice bob x\u{e9}";

/// The last decoder fed from outside the process: a cache `MANIFEST`.
/// Mutants of a real index over its real segments, and arbitrary lines
/// of its words, each open a persistent cache that then looks up every
/// fingerprint it lists. None may panic, and the byte ledger must stay
/// the sum over what the cache still holds (see [`open_and_look_up`]).
#[test]
fn cache_manifests_open_or_miss_never_panic() {
    let dir = std::env::temp_dir().join(format!("scriptflow-fuzz-manifest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = cache_store(&dir);
    let doc = String::from_utf8(files[4].1.clone()).expect("a UTF-8 index");
    let (header, body) = doc.split_once('\n').expect("a header line");
    let first = body.lines().next().expect("an entry line");
    let fixed = [
        doc.clone(),
        // The first entry listed twice.
        format!("{doc}{first}\n"),
        // Two forged entries whose byte counts overflow the ledger.
        format!(
            "{header}\n1 1 1 {max} 0 mallory\n2 1 1 {max} 0 mallory\n{body}",
            max = u64::MAX
        ),
    ]
    .map(String::into_bytes);
    let mut rng = SplitMix64::new(0xca5e_f029);
    let mutants: Vec<Vec<u8>> = (0..1_500)
        .map(|_| mutate(doc.as_bytes(), &mut rng))
        .collect();
    let words: Vec<&str> = MANIFEST_WORDS.split(' ').collect();
    // Its own stream: the mutants' draws depend on the index's length.
    let mut rng = SplitMix64::new(0xa2b1_7a27);
    let arbitrary: Vec<Vec<u8>> = (0..1_500)
        .map(|_| {
            let mut text = format!("{header}\n");
            for _ in 0..rng.range(0usize..64) {
                text.push_str(words[rng.range(0..words.len())]);
                text.push([' ', ' ', ' ', '\n'][rng.range(0usize..4)]);
            }
            text.into_bytes()
        })
        .collect();
    let run = |inputs: &[Vec<u8>]| {
        let mut counts = [0; 3];
        for manifest in inputs {
            for (path, bytes) in &files[..4] {
                std::fs::write(path, bytes).expect("restore segment");
            }
            std::fs::write(&files[4].0, manifest).expect("write index");
            let outcome = catch_unwind(AssertUnwindSafe(|| open_and_look_up(&dir)));
            let got = outcome
                .unwrap_or_else(|_| panic!("manifest {:?}", String::from_utf8_lossy(manifest)));
            for (c, g) in counts.iter_mut().zip(got) {
                *c += g;
            }
        }
        counts
    };
    let counts = [run(&fixed), run(&mutants), run(&arbitrary)];
    println!("manifest: {counts:?}");
    let _ = std::fs::remove_dir_all(&dir);
    // (opened, served, missed) per group: the real index serves all four,
    // the duplicate serves each once, the overflow opens one forged entry
    // and misses it. The mutants are of the index's text, whose byte
    // counts are the segments' stored sizes: column-major blocks shrank
    // them and moved the mutated group from [990, 2 717, 111]. The
    // arbitrary lines draw from a stream of their own, so a change in the
    // index's length moves the mutated group only. (They drew from the
    // stream the mutants left, and read [209, 0, 223], until then.)
    assert_eq!(counts, [[3, 8, 1], [923, 2_474, 102], [207, 0, 216]]);
}

/// The fastest of five runs of `decode` on `input`.
fn fastest<T>(input: &T, decode: &impl Fn(&T)) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            decode(input);
            start.elapsed()
        })
        .min()
        .expect("five runs")
}

/// `decode` reads `make(8 * n)` in at most 32 times the time it reads
/// `make(n)`, each the fastest of five runs: a linear decoder reads 8, a
/// quadratic one 64. `n` is chosen so that the small input takes several
/// milliseconds in a debug build, well above the clock's noise.
fn assert_linear<T>(what: &str, n: usize, make: impl Fn(usize) -> T, decode: impl Fn(&T)) {
    let small = fastest(&make(n), &decode);
    let large = fastest(&make(8 * n), &decode);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    println!("{what}: n = {n} in {small:?}, 8n in {large:?}, ratio {ratio:.1}");
    assert!(
        ratio <= 32.0,
        "{what}: ratio {ratio:.1} for an input 8 times the size"
    );
}

/// Every decoder that reads bytes from outside the process is linear in
/// its input: a segment image (`Segment::decode` and its blocks), a
/// progress trace, a workflow spec and a cache `MANIFEST`.
#[test]
fn decoders_read_eight_times_the_input_in_at_most_32_times_the_time() {
    let schema = Schema::of(&[("k", DataType::Int), ("s", DataType::Str)]);
    let segment = |rows: usize| {
        let mut app = BlockAppender::new();
        for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(1024) {
            let values = chunk
                .iter()
                .map(|&k| vec![Value::Int(k * 7), format!("row {k}").into()])
                .collect();
            app.append(&ColumnarBatch::from_rows(schema.clone(), values).expect("rows conform"));
        }
        app.seal().encode()
    };
    assert_linear("segment", 20_000, segment, |image| {
        let segment = Segment::decode(image).expect("a valid image");
        decode_blocks(segment.blocks()).expect("valid blocks");
    });

    let sample = TraceJson::parse(&trace_document())
        .expect("a valid trace")
        .samples[0]
        .clone();
    let trace = |samples: usize| {
        let trace = ProgressTrace {
            samples: vec![sample.clone(); samples],
        };
        TraceJson::from_trace(&trace).to_string_compact()
    };
    assert_linear("trace", 200, trace, |text| {
        TraceJson::parse(text).expect("a valid trace");
    });

    let spec = |rows: usize| {
        let rows: Vec<String> = (0..rows).map(|k| format!("[{k}, \"r{k}\"]")).collect();
        format!(
            r#"{{"operators": [
                {{"id": "scan", "type": "InlineScan", "schema": [["k", "Int"], ["s", "Str"]],
                  "rows": [{}]}},
                {{"id": "out", "type": "Sink"}}],
              "links": [{{"from": "scan", "to": "out", "port": 0, "partition": "single"}}]}}"#,
            rows.join(", ")
        )
    };
    assert_linear("spec", 4_000, spec, |text| {
        spec::parse(text).expect("a valid spec");
    });

    // Lines whose segment files are missing: each is parsed, then dropped
    // when the open finds no file, as a stale index's would be.
    let dir =
        std::env::temp_dir().join(format!("scriptflow-linear-manifest-{}", std::process::id()));
    let manifest = |lines: usize| {
        let sub = dir.join(lines.to_string());
        std::fs::create_dir_all(&sub).expect("store dir");
        let mut text = String::from("scriptflow-cache v1\n");
        for fp in 1..=lines {
            text.push_str(&format!("{fp:032x} 25 1 400 10 alice\n"));
        }
        std::fs::write(sub.join("MANIFEST"), text).expect("write index");
        sub
    };
    assert_linear("MANIFEST", 2_000, manifest, |sub| {
        let cache = ResultCache::persistent(sub).expect("the directory opens");
        assert_eq!(cache.entries(), 0);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

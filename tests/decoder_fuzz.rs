//! Decoder fuzz for the JSON documents the workflow crate reads back: a
//! progress trace (`TraceJson::parse`) and a declarative workflow spec
//! (`spec::parse`). Seeded `SplitMix64` loops feed each decoder
//! arbitrary bytes and mutations of a real document; every input must
//! yield `Ok` or `Err`, never a panic. A parsed trace must also render
//! (`render_timeline` indexes every sample by the first one's
//! operators). The served/refused counts are pinned, so a decoder change
//! that accepts or refuses different inputs shows up here.

use std::panic::{catch_unwind, AssertUnwindSafe};

use scriptflow::datakit::codec::Json;
use scriptflow::simcluster::{SimDuration, SplitMix64};
use scriptflow::workflow::trace::{render_timeline, TraceJson};
use scriptflow::workflow::{spec, EngineConfig, SimExecutor};

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

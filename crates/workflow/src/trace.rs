//! Execution progress traces — the data behind Texera's live status
//! display (§III-A: "different colors to visually represent the status
//! of each operator … and the amount of data being processed").
//!
//! Both executors emit the same trace shape: the simulated executor
//! samples per-operator counters at a fixed virtual-time interval
//! ([`crate::exec_sim::SimExecutor::with_trace`]) and the pooled live
//! executor samples its [`crate::trace_live::LiveTracer`] at a
//! wall-clock interval ([`crate::exec_live::LiveExecutor::with_trace`]).
//! Either way the result is a [`ProgressTrace`] that a GUI (or
//! [`render_timeline`]) can replay, and that [`TraceJson`] exports as a
//! machine-readable document.

use scriptflow_datakit::codec::Json;
use scriptflow_simcluster::SimTime;

use crate::metrics::{OpCounters, OperatorState};

/// One operator's status at one sample instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorSnapshot {
    /// Operator display name.
    pub name: String,
    /// Lifecycle state at the instant.
    pub state: OperatorState,
    /// Tuples received so far.
    pub input_tuples: u64,
    /// Tuples emitted so far.
    pub output_tuples: u64,
    /// Data counters so far (cache evictions land on the terminal
    /// sample, when the run commits).
    pub counters: OpCounters,
}

/// A sampled execution timeline.
#[derive(Debug, Clone, Default)]
pub struct ProgressTrace {
    /// `(instant, one snapshot per operator)`, instants ascending.
    pub samples: Vec<(SimTime, Vec<OperatorSnapshot>)>,
}

impl ProgressTrace {
    /// Number of samples captured.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were captured.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The per-operator history of one operator, `(time, snapshot)`.
    pub fn operator_history(&self, name: &str) -> Vec<(SimTime, &OperatorSnapshot)> {
        self.samples
            .iter()
            .filter_map(|(t, snaps)| snaps.iter().find(|s| s.name == name).map(|s| (*t, s)))
            .collect()
    }

    /// The first sample time at which every operator had completed.
    pub fn completion_sample(&self) -> Option<SimTime> {
        self.samples
            .iter()
            .find(|(_, snaps)| snaps.iter().all(|s| s.state == OperatorState::Completed))
            .map(|(t, _)| *t)
    }
}

/// Render the trace as a compact text timeline: one row per operator,
/// one column per sample, with the state's initial letter
/// (I/R/P/Y/C/D/F — `Y` is `Retrying`, whose `R` is taken).
pub fn render_timeline(trace: &ProgressTrace) -> String {
    let mut out = String::new();
    if trace.is_empty() {
        return out;
    }
    let names: Vec<&str> = trace.samples[0].1.iter().map(|s| s.name.as_str()).collect();
    let width = names.iter().map(|n| n.len()).max().unwrap_or(8);
    for (i, name) in names.iter().enumerate() {
        out.push_str(&format!("{name:<width$} "));
        for (_, snaps) in &trace.samples {
            let ch = match snaps[i].state {
                OperatorState::Initializing => 'I',
                OperatorState::Running => 'R',
                OperatorState::Paused => 'P',
                OperatorState::Retrying => 'Y',
                OperatorState::Completed => 'C',
                OperatorState::Degraded => 'D',
                OperatorState::Failed => 'F',
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "{:<width$} {} samples from {} to {}\n",
        "(time)",
        trace.samples.len(),
        trace.samples[0].0,
        trace.samples.last().expect("non-empty").0,
    ));
    out
}

/// `counters` as JSON object fields under their wire keys
/// ([`OpCounters::wire`]) — how `TraceJson` spells them.
fn counter_fields(counters: &OpCounters) -> impl Iterator<Item = (String, Json)> {
    counters
        .wire()
        .map(|(key, v)| (key.to_owned(), Json::Int(v as i64)))
}

/// A [`ProgressTrace`] as a JSON document — the wire format a web
/// front-end consumes, with a lossless round-trip back into the
/// in-memory trace.
///
/// Layout:
///
/// ```json
/// {"trace":"progress","samples":[
///   {"atMicros":0,"operators":[
///     {"name":"scan","state":"Running","color":"blue",
///      "inputTuples":0,"outputTuples":10,"batchesSkipped":0,…}]}]}
/// ```
///
/// After `outputTuples` every operator carries one key per
/// [`OpCounters`] field, in [`OpCounters::wire`] order.
///
/// # Examples
///
/// ```
/// use scriptflow_workflow::trace::{ProgressTrace, TraceJson};
///
/// let doc = TraceJson::from_trace(&ProgressTrace::default());
/// let back = TraceJson::parse(&doc.to_string_compact()).unwrap();
/// assert!(back.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJson {
    document: Json,
}

impl TraceJson {
    /// Export `trace` as a JSON document.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace::{ProgressTrace, TraceJson};
    ///
    /// let text = TraceJson::from_trace(&ProgressTrace::default()).to_string_compact();
    /// assert!(text.contains("\"trace\":\"progress\""));
    /// ```
    pub fn from_trace(trace: &ProgressTrace) -> Self {
        let samples: Vec<Json> = trace
            .samples
            .iter()
            .map(|(at, snaps)| {
                let operators: Vec<Json> = snaps
                    .iter()
                    .map(|s| {
                        let mut kv = vec![
                            ("name".into(), Json::Str(s.name.clone())),
                            ("state".into(), Json::Str(s.state.label().into())),
                            ("color".into(), Json::Str(s.state.color().into())),
                            ("inputTuples".into(), Json::Int(s.input_tuples as i64)),
                            ("outputTuples".into(), Json::Int(s.output_tuples as i64)),
                        ];
                        kv.extend(counter_fields(&s.counters));
                        Json::Object(kv)
                    })
                    .collect();
                Json::Object(vec![
                    ("atMicros".into(), Json::Int(at.as_micros() as i64)),
                    ("operators".into(), Json::Array(operators)),
                ])
            })
            .collect();
        TraceJson {
            document: Json::Object(vec![
                ("trace".into(), Json::Str("progress".into())),
                ("samples".into(), Json::Array(samples)),
            ]),
        }
    }

    /// Export `trace` tagged with the multi-tenant identity that
    /// produced it: a `tenant` / `run` pair inserted right after the
    /// document kind, so archived traces from a shared-pool service
    /// ([`crate::service::WorkflowService`]) stay attributable.
    /// [`TraceJson::parse`] looks fields up by key and round-trips
    /// labeled documents unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace::{ProgressTrace, TraceJson};
    ///
    /// let text = TraceJson::from_trace_labeled(&ProgressTrace::default(), "acme", 7)
    ///     .to_string_compact();
    /// assert!(text.contains("\"tenant\":\"acme\""));
    /// assert!(text.contains("\"run\":7"));
    /// assert!(TraceJson::parse(&text).is_ok());
    /// ```
    pub fn from_trace_labeled(trace: &ProgressTrace, tenant: &str, run: u64) -> Self {
        let mut doc = Self::from_trace(trace);
        if let Json::Object(kv) = &mut doc.document {
            kv.insert(1, ("tenant".into(), Json::Str(tenant.to_owned())));
            kv.insert(2, ("run".into(), Json::Int(run as i64)));
        }
        doc
    }

    /// The underlying JSON document (for embedding into larger
    /// documents, e.g. [`crate::gui::observability_json`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_datakit::codec::Json;
    /// use scriptflow_workflow::trace::{ProgressTrace, TraceJson};
    ///
    /// let doc = TraceJson::from_trace(&ProgressTrace::default());
    /// assert!(matches!(doc.document(), Json::Object(_)));
    /// ```
    pub fn document(&self) -> &Json {
        &self.document
    }

    /// Consume the export, yielding the JSON document.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_datakit::codec::Json;
    /// use scriptflow_workflow::trace::{ProgressTrace, TraceJson};
    ///
    /// let doc = TraceJson::from_trace(&ProgressTrace::default()).into_document();
    /// assert!(matches!(doc, Json::Object(_)));
    /// ```
    pub fn into_document(self) -> Json {
        self.document
    }

    /// Serialize the document compactly.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::trace::{ProgressTrace, TraceJson};
    ///
    /// let text = TraceJson::from_trace(&ProgressTrace::default()).to_string_compact();
    /// assert!(text.starts_with('{') && text.ends_with('}'));
    /// ```
    pub fn to_string_compact(&self) -> String {
        self.document.to_string_compact()
    }

    /// Parse a serialized trace document back into a [`ProgressTrace`].
    /// Every sample must name the first sample's operators, in the same
    /// order — what both engines write, and what [`render_timeline`]
    /// indexes by.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_simcluster::SimTime;
    /// use scriptflow_workflow::trace::{OperatorSnapshot, ProgressTrace, TraceJson};
    /// use scriptflow_workflow::{OpCounters, OperatorState};
    ///
    /// let trace = ProgressTrace {
    ///     samples: vec![(
    ///         SimTime::from_micros(5),
    ///         vec![OperatorSnapshot {
    ///             name: "scan".into(),
    ///             state: OperatorState::Completed,
    ///             input_tuples: 0,
    ///             output_tuples: 9,
    ///             counters: OpCounters::default(),
    ///         }],
    ///     )],
    /// };
    /// let text = TraceJson::from_trace(&trace).to_string_compact();
    /// let back = TraceJson::parse(&text).unwrap();
    /// assert_eq!(back.samples, trace.samples);
    /// ```
    pub fn parse(text: &str) -> Result<ProgressTrace, String> {
        fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
            match obj {
                Json::Object(kv) => kv
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or_else(|| format!("missing field `{key}`")),
                _ => Err(format!("expected object with `{key}`")),
            }
        }
        fn int(j: &Json, key: &str) -> Result<i64, String> {
            match field(j, key)? {
                Json::Int(i) => Ok(*i),
                other => Err(format!("field `{key}` is not an int: {other:?}")),
            }
        }
        fn str_of<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
            match field(j, key)? {
                Json::Str(s) => Ok(s.as_str()),
                other => Err(format!("field `{key}` is not a string: {other:?}")),
            }
        }
        let doc = Json::parse(text)?;
        let samples = match field(&doc, "samples")? {
            Json::Array(samples) => samples,
            other => Err(format!("`samples` is not an array: {other:?}"))?,
        };
        let mut out = ProgressTrace::default();
        for sample in samples {
            let at = SimTime::from_micros(int(sample, "atMicros")?.max(0) as u64);
            let operators = match field(sample, "operators")? {
                Json::Array(ops) => ops,
                other => Err(format!("`operators` is not an array: {other:?}"))?,
            };
            let mut snaps = Vec::with_capacity(operators.len());
            for op in operators {
                let label = str_of(op, "state")?;
                snaps.push(OperatorSnapshot {
                    name: str_of(op, "name")?.to_owned(),
                    state: OperatorState::parse(label)
                        .ok_or_else(|| format!("unknown operator state `{label}`"))?,
                    input_tuples: int(op, "inputTuples")?.max(0) as u64,
                    output_tuples: int(op, "outputTuples")?.max(0) as u64,
                    // Documents written before a counter existed lack
                    // its key; default rather than reject them.
                    counters: OpCounters::from_wire(|key| int(op, key).unwrap_or(0).max(0) as u64),
                });
            }
            let same_ops = |(_, first): &(SimTime, Vec<OperatorSnapshot>)| {
                first
                    .iter()
                    .map(|s| &s.name)
                    .eq(snaps.iter().map(|s| &s.name))
            };
            if !out.samples.first().is_none_or(same_ops) {
                return Err(format!("the sample at {at} names other operators"));
            }
            out.samples.push((at, snaps));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(name: &str, state: OperatorState, inp: u64, out: u64) -> OperatorSnapshot {
        OperatorSnapshot {
            name: name.into(),
            state,
            input_tuples: inp,
            output_tuples: out,
            counters: OpCounters::default(),
        }
    }

    fn sample_trace() -> ProgressTrace {
        ProgressTrace {
            samples: vec![
                (
                    SimTime::from_micros(0),
                    vec![
                        snap("scan", OperatorState::Running, 0, 10),
                        snap("sink", OperatorState::Initializing, 0, 0),
                    ],
                ),
                (
                    SimTime::from_micros(1_000),
                    vec![
                        snap("scan", OperatorState::Completed, 0, 100),
                        snap("sink", OperatorState::Completed, 100, 0),
                    ],
                ),
            ],
        }
    }

    #[test]
    fn history_and_completion() {
        let t = sample_trace();
        assert_eq!(t.len(), 2);
        let hist = t.operator_history("scan");
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[1].1.output_tuples, 100);
        assert_eq!(t.completion_sample(), Some(SimTime::from_micros(1_000)));
        assert!(t.operator_history("nope").is_empty());
    }

    #[test]
    fn timeline_renders_state_letters() {
        let text = render_timeline(&sample_trace());
        let scan_line = text.lines().find(|l| l.starts_with("scan")).unwrap();
        assert!(scan_line.ends_with("RC"), "{scan_line}");
        let sink_line = text.lines().find(|l| l.starts_with("sink")).unwrap();
        assert!(sink_line.ends_with("IC"), "{sink_line}");
    }

    #[test]
    fn empty_trace_renders_empty() {
        assert!(render_timeline(&ProgressTrace::default()).is_empty());
    }

    #[test]
    fn trace_json_roundtrips() {
        let trace = sample_trace();
        let text = TraceJson::from_trace(&trace).to_string_compact();
        assert!(text.contains("\"state\":\"Completed\""));
        assert!(text.contains("\"color\":\"green\""));
        let back = TraceJson::parse(&text).unwrap();
        assert_eq!(back.samples, trace.samples);
        // The round-tripped trace renders identically.
        assert_eq!(render_timeline(&back), render_timeline(&trace));
    }

    #[test]
    fn trace_json_roundtrips_skip_counts_and_defaults_when_absent() {
        let mut trace = sample_trace();
        // Every counter gets a distinct value: 1, 2, … in wire order.
        let mut next = 0;
        trace.samples[1].1[0].counters = OpCounters::from_wire(|_| {
            next += 1;
            next
        });
        let text = TraceJson::from_trace(&trace).to_string_compact();
        assert!(text.contains("\"batchesSkipped\":1"));
        assert!(text.contains("\"spilledBlocks\":2"));
        assert!(text.contains("\"cacheHits\":3"));
        assert!(text.contains("\"cacheEvictions\":4"));
        let back = TraceJson::parse(&text).unwrap();
        assert_eq!(back.samples, trace.samples);
        // Documents written before the columnar, spill, and cache paths
        // carry none of these keys; they still parse, defaulting to 0.
        let legacy = "{\"samples\":[{\"atMicros\":0,\"operators\":[{\"name\":\"x\",\
                      \"state\":\"Completed\",\"inputTuples\":3,\"outputTuples\":2}]}]}";
        let back = TraceJson::parse(legacy).unwrap();
        assert!(back.samples[0].1[0].counters.is_zero());
    }

    /// The wire format is a contract with archived traces and web
    /// front-ends: per-operator keys keep their names and order, and a
    /// new counter may only be appended.
    #[test]
    fn trace_json_operator_keys_are_golden() {
        let text = TraceJson::from_trace(&sample_trace()).to_string_compact();
        let first_op = text
            .split("\"operators\":[{")
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .expect("the first sample has an operator");
        let keys: Vec<&str> = first_op
            .split(',')
            .filter_map(|field| field.split(':').next())
            .map(|key| key.trim_matches('"'))
            .collect();
        assert_eq!(
            keys,
            [
                "name",
                "state",
                "color",
                "inputTuples",
                "outputTuples",
                "batchesSkipped",
                "spilledBlocks",
                "cacheHits",
                "cacheEvictions",
                "spilledBytes",
                "spillReads",
                "cacheMisses",
                "cacheBytes",
            ]
        );
    }

    #[test]
    fn trace_json_labeled_roundtrips_losslessly() {
        let trace = sample_trace();
        let text = TraceJson::from_trace_labeled(&trace, "tenant-a", 42).to_string_compact();
        assert!(text.contains("\"tenant\":\"tenant-a\""));
        assert!(text.contains("\"run\":42"));
        // The tenant/run tags ride along; the samples parse unchanged.
        let back = TraceJson::parse(&text).unwrap();
        assert_eq!(back.samples, trace.samples);
    }

    #[test]
    fn trace_json_rejects_bad_documents() {
        assert!(TraceJson::parse("{}").is_err());
        assert!(TraceJson::parse("{\"samples\":[{\"atMicros\":0}]}").is_err());
        assert!(TraceJson::parse(
            "{\"samples\":[{\"atMicros\":0,\"operators\":[{\"name\":\"x\",\"state\":\"Bogus\",\"inputTuples\":0,\"outputTuples\":0}]}]}"
        )
        .is_err());
    }

    /// `render_timeline` indexes every sample by the first one's
    /// operators, so a document whose samples disagree panicked it; now
    /// such a document is refused at the parse.
    #[test]
    fn trace_json_rejects_ragged_samples() {
        let text = TraceJson::from_trace(&sample_trace()).to_string_compact();
        assert!(TraceJson::parse(&text).is_ok());
        let mut fewer = sample_trace();
        fewer.samples[1].1.pop();
        let mut swapped = sample_trace();
        swapped.samples[1].1.reverse();
        let mut renamed = sample_trace();
        renamed.samples[1].1[1].name = "other".into();
        for (what, ragged) in [("fewer", fewer), ("swapped", swapped), ("renamed", renamed)] {
            let text = TraceJson::from_trace(&ragged).to_string_compact();
            let err = TraceJson::parse(&text).expect_err(what);
            assert!(err.contains("names other operators"), "{what}: {err}");
        }
    }
}

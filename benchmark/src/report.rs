//! Metrics, the documents they are written to, and the provenance every
//! document is stamped with.

use std::path::PathBuf;

use scriptflow_datakit::codec::Json;

use crate::stats::Summary;
use crate::sysinfo;

/// One reported number. `summary` carries the sample count and
/// quartiles when the value is the median of samples taken in the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub summary: Option<Summary>,
}

impl Metric {
    /// A metric measured once in the run.
    pub fn single(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            summary: None,
        }
    }

    /// The median of `samples`, stamped with their count and quartiles.
    pub fn median_of(name: &str, unit: &str, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value: summary.median,
            summary: Some(summary),
        }
    }

    fn to_json(&self) -> Json {
        assert!(
            self.value.is_finite(),
            "metric {} is {}",
            self.name,
            self.value
        );
        let mut fields = vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("unit".to_owned(), Json::Str(self.unit.clone())),
            ("value".to_owned(), Json::Float(self.value)),
        ];
        if let Some(s) = self.summary {
            fields.extend([
                ("n".to_owned(), Json::Int(s.n as i64)),
                ("min".to_owned(), Json::Float(s.min)),
                ("q1".to_owned(), Json::Float(s.q1)),
                ("median".to_owned(), Json::Float(s.median)),
                ("q3".to_owned(), Json::Float(s.q3)),
                ("max".to_owned(), Json::Float(s.max)),
            ]);
        }
        Json::Object(fields)
    }
}

/// What one child process reports for one workload.
#[derive(Debug, Clone)]
pub struct RunDoc {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub seconds: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Counts behind the metrics: set-up repetitions, timed passes,
    /// job samples.
    pub setups: usize,
    pub passes: usize,
    pub jobs: usize,
    pub timed_wall_s: f64,
    /// Engine calls given up as hung and tried again (see
    /// `workloads::guarded`); their waiting time is not in
    /// `timed_wall_s`.
    pub hung_calls: u64,
    /// `VmHWM` of the child when it reported, in MiB.
    pub peak_rss_mib: f64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunDoc {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The full document, provenance included.
    pub fn to_json(&self) -> Json {
        obj([
            ("provenance", provenance()),
            ("workload", Json::Str(self.workload.clone())),
            ("trace", Json::Bool(self.trace)),
            ("seed", Json::Int(self.seed as i64)),
            ("seconds", Json::Int(self.seconds as i64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("setups", Json::Int(self.setups as i64)),
            ("passes", Json::Int(self.passes as i64)),
            ("jobs", Json::Int(self.jobs as i64)),
            ("timed_wall_s", Json::Float(self.timed_wall_s)),
            ("hung_calls", Json::Int(self.hung_calls as i64)),
            ("peak_rss_mib", Json::Float(self.peak_rss_mib)),
            (
                "failures",
                Json::Array(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "metrics",
                Json::Array(self.metrics.iter().map(Metric::to_json).collect()),
            ),
        ])
    }

    /// Parse what [`RunDoc::to_json`] wrote (the parent reads the
    /// child's document back).
    pub fn from_json(doc: &Json) -> Result<RunDoc, String> {
        let int = |k: &str| match get(doc, k) {
            Some(Json::Int(i)) => Ok(*i as u64),
            _ => Err(format!("result document lacks integer `{k}`")),
        };
        let text = |j: &Json| match j {
            Json::Str(s) => Ok(s.clone()),
            _ => Err("expected a string".to_owned()),
        };
        let float = |j: Option<&Json>| match j {
            Some(Json::Float(x)) => Ok(*x),
            Some(Json::Int(i)) => Ok(*i as f64),
            _ => Err("expected a number".to_owned()),
        };
        let list = |k: &str| match get(doc, k) {
            Some(Json::Array(items)) => Ok(items),
            _ => Err(format!("result document lacks array `{k}`")),
        };
        let metrics = list("metrics")?
            .iter()
            .map(|m| {
                let summary = match get(m, "n") {
                    Some(Json::Int(n)) => Some(Summary {
                        n: *n as usize,
                        min: float(get(m, "min"))?,
                        q1: float(get(m, "q1"))?,
                        median: float(get(m, "median"))?,
                        q3: float(get(m, "q3"))?,
                        max: float(get(m, "max"))?,
                    }),
                    _ => None,
                };
                Ok(Metric {
                    name: text(get(m, "name").ok_or("metric lacks a name")?)?,
                    unit: text(get(m, "unit").ok_or("metric lacks a unit")?)?,
                    value: float(get(m, "value"))?,
                    summary,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunDoc {
            workload: text(get(doc, "workload").ok_or("no workload")?)?,
            trace: matches!(get(doc, "trace"), Some(Json::Bool(true))),
            seed: int("seed")?,
            seconds: int("seconds")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            setups: int("setups")? as usize,
            passes: int("passes")? as usize,
            jobs: int("jobs")? as usize,
            timed_wall_s: float(get(doc, "timed_wall_s"))?,
            hung_calls: int("hung_calls")?,
            peak_rss_mib: float(get(doc, "peak_rss_mib"))?,
            failures: list("failures")?
                .iter()
                .map(text)
                .collect::<Result<_, _>>()?,
            metrics,
        })
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
                (
                    m.name.clone(),
                    obj([
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Object(metrics)),
        ])
        .to_string_compact()
    }
}

/// An object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Field `key` of a JSON object.
pub fn get<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Where the build and the machine are recorded; `run.sh` exports the
/// `BENCH_*` variables.
pub fn provenance() -> Json {
    let env = |k: &str| Json::Str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    obj([
        ("commit", env("BENCH_COMMIT")),
        ("build", env("BENCH_BUILD_KIND")),
        ("rustc", env("BENCH_RUSTC")),
        ("nproc", Json::Int(sysinfo::nproc() as i64)),
        ("load_width", Json::Int(sysinfo::load_width() as i64)),
    ])
}

/// `benchmark/out` under the current directory (the checkout root,
/// where `run.sh` starts the binary), created on first use.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
    dir
}

/// Write `doc` to `benchmark/out/<name>`.
pub fn write_doc(name: &str, doc: &Json) {
    let path = out_dir().join(name);
    std::fs::write(&path, doc.to_string_compact() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// Allowed worsening as a share of the baseline; end-to-end only.
    pub bound: Option<f64>,
}

/// The benchmark's declaration, read from `BENCHMARK.json` in the
/// current directory.
#[derive(Debug, Clone)]
pub struct Declaration {
    pub run_seconds: u64,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Declaration {
    pub fn load() -> Result<Declaration, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            let Some(Json::Array(items)) = get(&doc, key) else {
                return Err(format!("BENCHMARK.json lacks `{key}`"));
            };
            items
                .iter()
                .map(|m| match (get(m, "name"), get(m, "unit")) {
                    (Some(Json::Str(name)), Some(Json::Str(unit))) => Ok(Declared {
                        name: name.clone(),
                        unit: unit.clone(),
                        bound: match get(m, "bound") {
                            Some(Json::Float(b)) => Some(*b),
                            _ => None,
                        },
                    }),
                    _ => Err(format!(
                        "BENCHMARK.json: a `{key}` entry lacks name or unit"
                    )),
                })
                .collect()
        };
        let Some(Json::Int(run_seconds)) = get(&doc, "run_seconds") else {
            return Err("BENCHMARK.json lacks `run_seconds`".into());
        };
        Ok(Declaration {
            run_seconds: *run_seconds as u64,
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }

    /// Names or units of `doc` that differ from what is declared for
    /// its kind of run; empty when they agree.
    pub fn mismatches(&self, doc: &RunDoc) -> Vec<String> {
        let declared = if doc.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = Vec::new();
        for d in declared {
            match doc.metrics.iter().find(|m| m.name == d.name) {
                None => out.push(format!("{} is declared but not reported", d.name)),
                Some(m) if m.unit != d.unit => out.push(format!(
                    "{} is declared in {} but reported in {}",
                    d.name, d.unit, m.unit
                )),
                Some(_) => {}
            }
        }
        for m in &doc.metrics {
            if !declared.iter().any(|d| d.name == m.name) {
                out.push(format!("{} is reported but not declared", m.name));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> RunDoc {
        RunDoc {
            workload: "w".into(),
            trace: false,
            seed: 3,
            seconds: 15,
            attempted: 8,
            failed: 0,
            setups: 3,
            passes: 2,
            jobs: 2,
            timed_wall_s: 1.25,
            hung_calls: 0,
            peak_rss_mib: 100.0,
            failures: vec![],
            metrics: vec![
                Metric::median_of("job_ms_p50", "ms", &[1.0, 2.0, 4.0]),
                Metric::single("setup_s", "s", 0.5),
            ],
        }
    }

    #[test]
    fn run_doc_round_trips() {
        let d = doc();
        let text = d.to_json().to_string_compact();
        let back = RunDoc::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.metrics, d.metrics);
        assert_eq!((back.attempted, back.failed, back.passes), (8, 0, 2));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = doc().contract_line();
        let Json::Object(fields) = Json::parse(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains(r#""job_ms_p50":{"value":2.0,"unit":"ms"}"#));
    }

    #[test]
    fn mismatches_name_both_directions() {
        let decl = Declaration {
            run_seconds: 15,
            end_to_end: vec![
                Declared {
                    name: "setup_s".into(),
                    unit: "s".into(),
                    bound: Some(0.25),
                },
                Declared {
                    name: "missing".into(),
                    unit: "ms".into(),
                    bound: Some(0.1),
                },
            ],
            per_layer: vec![],
        };
        let out = decl.mismatches(&doc());
        assert_eq!(out.len(), 2);
        assert!(out[0].contains("missing is declared"));
        assert!(out[1].contains("job_ms_p50 is reported"));
    }
}

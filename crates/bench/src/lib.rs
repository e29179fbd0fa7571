//! # scriptflow-bench
//!
//! The paper-reproduction harness. The entry points:
//!
//! * `cargo run --release -p scriptflow-bench --bin repro` — regenerates
//!   **every table and figure** of the paper (Fig. 12a/b, Table I,
//!   Fig. 13a–d, Fig. 14a–c) plus the mechanism ablations, printing each
//!   measured artifact next to the paper's reference numbers.
//! * `--bin report` — the same registry rendered as a markdown report.
//!
//! Performance numbers do not come from this crate: the repo's one
//! measuring instrument is the frozen `benchmark/` tree.

#![warn(missing_docs)]

use scriptflow_core::{Artifact, ExperimentMeta};

pub mod backend {
    //! How `repro`'s `--backend` flag becomes a [`BackendChoice`] and how
    //! a live run's trace is archived.

    use scriptflow_core::BackendChoice;
    use scriptflow_workflow::{ProgressTrace, TraceJson};

    /// Extract a `--backend <sim|live|both>` (or `--backend=...`) flag
    /// from a CLI arg list. `Ok(None)` when the flag is absent; `Err`
    /// carries a usage message for unknown values.
    pub fn parse_backend_flag(args: &[String]) -> Result<Option<BackendChoice>, String> {
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let value = if let Some(v) = a.strip_prefix("--backend=") {
                v.to_owned()
            } else if a == "--backend" {
                it.next()
                    .ok_or("--backend requires a value: sim, live or both")?
                    .clone()
            } else {
                continue;
            };
            return match BackendChoice::parse(&value) {
                Some(c) => Ok(Some(c)),
                None => Err(format!(
                    "unknown backend `{value}` (expected sim, live or both)"
                )),
            };
        }
        Ok(None)
    }

    /// Archive a live run's trace as `artifacts/trace_live_<id>.json`;
    /// returns the path written. The JSON round-trips through
    /// [`TraceJson::parse`].
    pub fn archive_live_trace(id: &str, trace: &ProgressTrace) -> std::io::Result<String> {
        std::fs::create_dir_all("artifacts")?;
        let path = format!("artifacts/trace_live_{id}.json");
        std::fs::write(&path, TraceJson::from_trace(trace).to_string_compact())?;
        Ok(path)
    }
}

pub mod doc {
    //! Reading benchmark result documents: field access on a parsed
    //! [`Json`] and the order statistics the benchmark stamps on them.

    use scriptflow_datakit::codec::Json;

    /// Field `key` of a JSON object.
    pub fn get<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
        match doc {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String field `key` of a JSON object.
    pub fn text<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
        match get(doc, key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Numeric field `key` of a JSON object.
    pub fn number(doc: &Json, key: &str) -> Option<f64> {
        match get(doc, key) {
            Some(Json::Float(x)) => Some(*x),
            Some(Json::Int(i)) => Some(*i as f64),
            _ => None,
        }
    }

    /// `(q1, median, q3)` of a non-empty sample, as Python's
    /// `statistics.quantiles(xs, n=4)` cuts it (the benchmark's own
    /// rule); a single sample is all three.
    pub fn quartiles(mut xs: Vec<f64>) -> (f64, f64, f64) {
        assert!(!xs.is_empty(), "quartiles of no samples");
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        if n == 1 {
            return (xs[0], xs[0], xs[0]);
        }
        let cut = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
        };
        (cut(1), cut(2), cut(3))
    }

    /// Median of a non-empty sample.
    pub fn median(xs: Vec<f64>) -> f64 {
        quartiles(xs).1
    }
}

/// Render one experiment's measured-vs-paper pair as a text block.
pub fn render_side_by_side(meta: &ExperimentMeta, measured: &Artifact, paper: &Artifact) -> String {
    format!(
        "================================================================\n\
         {} — {}\n{}\n\n--- measured ---\n{measured}\n--- paper ---\n{paper}\n",
        meta.id, meta.paper_artifact, meta.description
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_core::Table;

    #[test]
    fn backend_flag_parsing() {
        use scriptflow_core::BackendChoice;
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(backend::parse_backend_flag(&args(&["fig12a"])), Ok(None));
        assert_eq!(
            backend::parse_backend_flag(&args(&["fig12a", "--backend", "both"])),
            Ok(Some(BackendChoice::Both))
        );
        assert_eq!(
            backend::parse_backend_flag(&args(&["--backend=live"])),
            Ok(Some(BackendChoice::Live))
        );
        assert!(backend::parse_backend_flag(&args(&["--backend", "bogus"])).is_err());
        assert!(backend::parse_backend_flag(&args(&["--backend"])).is_err());
    }

    #[test]
    fn quartiles_cut_as_the_benchmark_does() {
        use doc::{median, quartiles};
        assert_eq!(quartiles(vec![4.0]), (4.0, 4.0, 4.0));
        // Two samples extrapolate, as Python does: [0.5, 2.0, 3.5].
        assert_eq!(quartiles(vec![3.0, 1.0]), (0.5, 2.0, 3.5));
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(ten), (2.75, 5.5, 8.25));
        assert_eq!(median(vec![5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn render_includes_both_sides() {
        let meta = ExperimentMeta {
            id: "x",
            paper_artifact: "Fig. 0",
            description: "d",
        };
        let a = Artifact::Table(Table::new("A", &["h"]));
        let b = Artifact::Table(Table::new("B", &["h"]));
        let text = render_side_by_side(&meta, &a, &b);
        assert!(text.contains("--- measured ---"));
        assert!(text.contains("--- paper ---"));
        assert!(text.contains('A') && text.contains('B'));
    }
}

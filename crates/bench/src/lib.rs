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

//! # scriptflow-bench
//!
//! Benchmark harness. The entry points:
//!
//! * `cargo run --release -p scriptflow-bench --bin repro` — regenerates
//!   **every table and figure** of the paper (Fig. 12a/b, Table I,
//!   Fig. 13a–d, Fig. 14a–c) plus the mechanism ablations, printing each
//!   measured artifact next to the paper's reference numbers.
//! * `--bin bench_engine` / `--bin bench_service` — live-engine throughput
//!   per executor configuration and the service's closed-loop latency
//!   curve, written to `BENCH_engine.json`.

#![warn(missing_docs)]

use scriptflow_core::{Artifact, ExperimentMeta};

pub mod backend {
    //! Backend selection shared by the bench binaries.
    //!
    //! `repro` and `bench_engine` both grew out of ad-hoc
    //! `LiveExecutor::new(...)` construction; this module is the one
    //! place that decides how a CLI `--backend` flag becomes an
    //! [`ExecBackend`] and how a live run's trace is archived.

    use scriptflow_core::{BackendChoice, BackendKind};
    use scriptflow_workflow::{EngineConfig, ExecBackend, LiveExecutor, ProgressTrace, TraceJson};

    /// Batch size the bench binaries hand the live executor.
    pub const LIVE_BATCH: usize = 1024;

    /// The pooled live executor every bench entry point starts from;
    /// callers layer mode/trace options on top.
    pub fn live_executor(batch_size: usize) -> LiveExecutor {
        LiveExecutor::new(batch_size)
    }

    /// An [`ExecBackend`] of `kind`, wired the way the bench binaries
    /// use it (the live side gets [`live_executor`] plus the config's
    /// retry policy, columnar flag, memory budget and result cache —
    /// the only other [`EngineConfig`] knobs with a wall-clock
    /// analogue).
    pub fn engine_of(kind: BackendKind, config: EngineConfig) -> ExecBackend {
        match kind {
            BackendKind::Sim => ExecBackend::sim(config),
            BackendKind::Live => {
                let mut exec = live_executor(config.batch_size.max(1))
                    .with_retry(config.retry.clone())
                    .with_columnar(config.columnar)
                    .with_memory_budget(config.memory_budget);
                if let Some(cache) = config.result_cache.clone() {
                    exec = exec.with_result_cache(cache);
                }
                ExecBackend::from_live(exec)
            }
        }
    }

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
        use scriptflow_core::{BackendChoice, BackendKind};
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
        let cfg = scriptflow_workflow::EngineConfig::default();
        assert_eq!(
            backend::engine_of(BackendKind::Live, cfg.clone()).kind(),
            BackendKind::Live
        );
        assert_eq!(
            backend::engine_of(BackendKind::Sim, cfg).kind(),
            BackendKind::Sim
        );
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

//! Bounded-memory extension of Fig. 13c (engine extension, not a paper
//! artifact).
//!
//! The paper scales each task until the workstation runs out of
//! patience, not memory — every Fig. 13 point still fits in RAM. This
//! experiment asks the next question: what happens to the workflow
//! paradigm's scaling story once the blocking state (the KGE hash-join
//! build side) no longer fits? We re-run the KGE scaling sweep one
//! dataset size past the paper's largest, twice per size: once
//! unbounded (the paper's configuration, byte-identical results) and
//! once under a deliberately tiny per-operator memory budget that
//! forces the grace hash join to seal its build partitions into the
//! compressed block store and stream them back during probe. The table
//! reports the spill volume and the slowdown ("amplification") the
//! budget costs — the price of bounded memory.

use scriptflow_core::{
    Artifact, BackendChoice, BackendKind, Calibration, Experiment, ExperimentMeta, Table,
};
use scriptflow_simcluster::Language;
use scriptflow_tasks::kge::{self, KgeParams};

/// Per-operator memory budget (bytes) for the budgeted leg: far below
/// the KGE build side's footprint at every measured size, so every size
/// spills.
pub const SPILL_BUDGET: usize = 16 << 10;

/// The paper's largest KGE size (Fig. 13c) and the extension sizes this
/// experiment adds beyond it.
pub const SIZES: [usize; 3] = [6_800, 68_000, 136_000];

/// One (size, backend) observation: the unbounded/budgeted pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillObservation {
    /// Products in the KGE input.
    pub products: usize,
    /// Backend that executed both legs.
    pub kind: BackendKind,
    /// Seconds with no memory budget (the paper's configuration).
    pub unbounded_secs: f64,
    /// Seconds under [`SPILL_BUDGET`].
    pub budgeted_secs: f64,
    /// Compressed blocks the budgeted leg spilled (must be non-zero).
    pub spilled_blocks: u64,
    /// Compressed bytes the budgeted leg spilled.
    pub spilled_bytes: u64,
    /// Whether both legs produced identical sorted output rows.
    pub outputs_match: bool,
}

impl SpillObservation {
    /// Slowdown the budget costs: budgeted over unbounded seconds.
    pub fn amplification(&self) -> f64 {
        self.budgeted_secs / self.unbounded_secs.max(1e-9)
    }
}

/// Run the unbounded/budgeted KGE pair at one size on one backend.
///
/// Uses the Scala join pipeline (fusion 3): that configuration routes
/// the embedding join through the engine's standalone [`HashJoinOp`],
/// the operator that grace-partitions under a memory budget. The
/// default fused UDF join keeps its own state and never spills.
///
/// [`HashJoinOp`]: scriptflow_workflow::ops::HashJoinOp
pub fn observe_spill(products: usize, kind: BackendKind) -> SpillObservation {
    let p = KgeParams::new(products, 1)
        .with_fusion(3)
        .with_join_language(Language::Scala);
    let unbounded =
        kge::workflow::run_workflow_on(&p, &Calibration::paper(), kind).expect("unbounded KGE run");
    let mut cal = Calibration::paper();
    cal.wf_memory_budget = Some(SPILL_BUDGET);
    let budgeted = kge::workflow::run_workflow_on(&p, &cal, kind).expect("budgeted KGE run");
    SpillObservation {
        products,
        kind,
        unbounded_secs: unbounded.seconds(),
        budgeted_secs: budgeted.seconds(),
        spilled_blocks: budgeted.counters().spilled_blocks,
        spilled_bytes: budgeted.counters().spilled_bytes,
        outputs_match: unbounded.run.output == budgeted.run.output,
    }
}

const COLUMNS: [&str; 7] = [
    "products",
    "backend",
    "unbounded (s)",
    "budgeted (s)",
    "spilled blocks",
    "spilled KiB",
    "amplification",
];

fn table_for(backend: BackendChoice, sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "KGE scaling past RAM: unbounded vs 16 KiB operator budget",
        &COLUMNS,
    );
    for &products in sizes {
        for kind in backend.kinds() {
            let o = observe_spill(products, *kind);
            assert!(o.outputs_match, "budgeted KGE output diverged: {o:?}");
            t.push_row(vec![
                o.products.to_string(),
                o.kind.label().to_owned(),
                format!("{:.2}", o.unbounded_secs),
                format!("{:.2}", o.budgeted_secs),
                o.spilled_blocks.to_string(),
                format!("{:.1}", o.spilled_bytes as f64 / 1024.0),
                format!("{:.2}x", o.amplification()),
            ]);
        }
    }
    t
}

/// The bounded-memory scaling experiment (`fig13-spill`). Lives in its
/// own [`crate::spill_registry`] because it extends a paper artifact
/// rather than reproducing one.
pub struct Fig13Spill;

impl Experiment for Fig13Spill {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "fig13-spill",
            paper_artifact: "engine extension of Fig. 13c",
            description: "KGE scaling one size past the paper's largest, unbounded vs a tiny \
                          memory budget that spills the join build side to the compressed \
                          block store",
        }
    }

    fn run(&self) -> Artifact {
        Artifact::Table(table_for(BackendChoice::Sim, &SIZES))
    }

    fn run_on(&self, backend: BackendChoice) -> Artifact {
        Artifact::Table(table_for(backend, &SIZES))
    }

    fn paper_reference(&self) -> Artifact {
        let mut t = Table::new("no paper artifact (engine extension)", &COLUMNS);
        t.push_row(vec![
            "beyond Fig. 13c".into(),
            "-".into(),
            "in-RAM only".into(),
            "not measured".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        Artifact::Table(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small size so the test stays fast; the budget still forces a
    /// spill because it is far below the build side's footprint.
    const TEST_PRODUCTS: usize = 1_700;

    #[test]
    fn budgeted_leg_spills_and_matches_unbounded() {
        let o = observe_spill(TEST_PRODUCTS, BackendKind::Sim);
        assert!(o.outputs_match, "{o:?}");
        assert!(o.spilled_blocks > 0, "budget must force a spill: {o:?}");
        assert!(o.spilled_bytes > 0, "{o:?}");
        // The simulator charges spill I/O on the virtual clock, so the
        // budgeted leg is strictly slower.
        assert!(o.amplification() > 1.0, "{o:?}");
    }

    #[test]
    fn observation_is_deterministic_on_sim() {
        assert_eq!(
            observe_spill(TEST_PRODUCTS, BackendKind::Sim),
            observe_spill(TEST_PRODUCTS, BackendKind::Sim)
        );
    }

    #[test]
    fn experiment_table_has_one_row_per_size() {
        let Artifact::Table(t) = Fig13Spill.run_on(BackendChoice::Sim) else {
            panic!("expected table");
        };
        assert_eq!(t.rows.len(), SIZES.len());
        for row in &t.rows {
            let blocks: u64 = row[4].parse().unwrap();
            assert!(blocks > 0, "row {row:?} did not spill");
        }
    }
}

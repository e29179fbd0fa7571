//! Paradigm observability comparison (§III-A).
//!
//! The paper's central GUI-paradigm claim is about *visibility*: Texera
//! "utilizes different colors to visually represent the status of each
//! operator … and provides information about the amount of data being
//! processed by each operator", while the script paradigm reports
//! progress and failures at the granularity of a whole cell. This
//! module measures that contrast on the reproduction's own engines:
//!
//! * the workflow engine emits a [`scriptflow_workflow::ProgressTrace`]
//!   — per-operator states and tuple counts sampled over the run;
//! * the notebook kernel records one [`scriptflow_notebook::CellSpan`]
//!   per executed cell, and the embedded Ray runtime records one
//!   [`scriptflow_raysim::SpanEvent`] per stage barrier or object-store
//!   transfer — nothing finer exists to observe.

use std::time::Duration;

use scriptflow_core::{
    Artifact, BackendChoice, BackendKind, Calibration, Experiment, ExperimentMeta, Table,
};
use scriptflow_notebook::{Cell, Kernel, Notebook};
use scriptflow_raysim::RayTask;
use scriptflow_simcluster::SimDuration;
use scriptflow_tasks::dice::{workflow::build_dice_workflow, DiceParams};
use scriptflow_workflow::{ExecBackend, LiveExecutor, SimExecutor};

use crate::{backend_workflow_label, SCRIPT_LABEL, WORKFLOW_LABEL};

/// What one paradigm exposes about a running DICE-sized job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservationReport {
    /// The paradigm's unit of progress ("operator" or "cell").
    pub unit: &'static str,
    /// How many such units the run tracked.
    pub units: usize,
    /// Total observability events recorded over the run (trace snapshot
    /// points for the workflow; cell + runtime spans for the script).
    pub events: usize,
    /// Where a failure would surface.
    pub failure_granularity: &'static str,
}

/// Observe a DICE workflow run: simulate the DAG with progress tracing
/// enabled and count what the GUI would have had to display.
pub fn observe_workflow(params: &DiceParams, cal: &Calibration) -> ObservationReport {
    observe_workflow_on(params, cal, BackendKind::Sim)
}

/// [`observe_workflow`] on an explicit backend: the simulator samples
/// its virtual clock every 100 ms of simulated time, the live pooled
/// executor samples its wall clock every millisecond. Either way the
/// run ends with a terminal trace sample, so `events` is never zero.
pub fn observe_workflow_on(
    params: &DiceParams,
    cal: &Calibration,
    kind: BackendKind,
) -> ObservationReport {
    let (wf, _handle) = build_dice_workflow(params, cal).expect("DICE workflow builds");
    let cfg = scriptflow_tasks::common::engine_config(cal);
    let backend = match kind {
        BackendKind::Sim => {
            ExecBackend::from_sim(SimExecutor::new(cfg).with_trace(SimDuration::from_millis(100)))
        }
        BackendKind::Live => ExecBackend::from_live(
            LiveExecutor::new(cfg.batch_size.max(1)).with_trace(Duration::from_millis(1)),
        ),
    };
    let res = backend.run_detached(&wf).expect("DICE workflow runs");
    let operators = res.metrics.operators.len();
    ObservationReport {
        unit: "operator",
        units: operators,
        events: res.trace.len() * operators,
        failure_granularity: "operator state (Failed)",
    }
}

/// Observe a DICE-shaped notebook run: three cells (load, parse on Ray,
/// count), then read back every span the paradigm recorded.
pub fn observe_script() -> ObservationReport {
    let mut nb = Notebook::new("dice-script");
    nb.push(
        Cell::new("load", "ann, txt = load_files()", |k| {
            k.advance(SimDuration::from_millis(50));
            k.set("files", 40usize);
            Ok(())
        })
        .writes(&["files"]),
    );
    nb.push(
        Cell::new(
            "parse",
            "spans = ray.get([parse.remote(c) for c in chunks])",
            |k| {
                let files = *k.get::<usize>("files")?;
                let parsed = k.ray().parallel_map(
                    (0..4usize)
                        .map(|i| {
                            RayTask::new(
                                format!("parse{i}"),
                                SimDuration::from_millis(20),
                                move |_| Ok(i),
                            )
                        })
                        .collect::<Vec<_>>(),
                )?;
                k.set("parsed", files + parsed.len());
                Ok(())
            },
        )
        .reads(&["files"])
        .writes(&["parsed"]),
    );
    nb.push(
        Cell::new("count", "stats = count(parsed)", |k| {
            let _ = *k.get::<usize>("parsed")?;
            k.advance(SimDuration::from_millis(10));
            k.set("stats", 1usize);
            Ok(())
        })
        .reads(&["parsed"])
        .writes(&["stats"]),
    );

    let mut kernel = Kernel::paper_default();
    nb.run_all(&mut kernel).expect("script notebook runs");
    let cell_spans = kernel.cell_spans().len();
    let ray_spans = kernel.ray().spans().len();
    ObservationReport {
        unit: "cell",
        units: nb.len(),
        events: cell_spans + ray_spans,
        failure_granularity: "cell trace (In [n])",
    }
}

/// The observability comparison as a study experiment: one table row per
/// paradigm, counted from real runs of the reproduction's engines.
pub struct ObsComparison;

const COLUMNS: [&str; 5] = [
    "paradigm",
    "progress unit",
    "units tracked",
    "events recorded",
    "failure surfaced at",
];

impl Experiment for ObsComparison {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "obs",
            paper_artifact: "§III-A",
            description: "Observability: per-operator trace vs cell/stage spans",
        }
    }

    fn run(&self) -> Artifact {
        let cal = Calibration::paper();
        let wf = observe_workflow(&DiceParams::new(40, 2), &cal);
        let sc = observe_script();
        let mut t = Table::new("§III-A — paradigm observability", &COLUMNS);
        for (label, r) in [(WORKFLOW_LABEL, &wf), (SCRIPT_LABEL, &sc)] {
            t.push_row(vec![
                label.to_owned(),
                r.unit.to_owned(),
                r.units.to_string(),
                r.events.to_string(),
                r.failure_granularity.to_owned(),
            ]);
        }
        Artifact::Table(t)
    }

    fn run_on(&self, backend: BackendChoice) -> Artifact {
        if backend == BackendChoice::Sim {
            return self.run();
        }
        let cal = Calibration::paper();
        let mut t = Table::new(
            format!("§III-A — paradigm observability [backend: {backend}]"),
            &COLUMNS,
        );
        for kind in backend.kinds() {
            let r = observe_workflow_on(&DiceParams::new(40, 2), &cal, *kind);
            t.push_row(vec![
                backend_workflow_label(*kind),
                r.unit.to_owned(),
                r.units.to_string(),
                r.events.to_string(),
                r.failure_granularity.to_owned(),
            ]);
        }
        let sc = observe_script();
        t.push_row(vec![
            SCRIPT_LABEL.to_owned(),
            sc.unit.to_owned(),
            sc.units.to_string(),
            sc.events.to_string(),
            sc.failure_granularity.to_owned(),
        ]);
        Artifact::Table(t)
    }

    fn paper_reference(&self) -> Artifact {
        let mut t = Table::new("§III-A — paradigm observability (paper)", &COLUMNS);
        t.push_row(vec![
            WORKFLOW_LABEL.to_owned(),
            "operator".to_owned(),
            "every operator".to_owned(),
            "status colors + tuple counts, continuously".to_owned(),
            "operator state (Failed)".to_owned(),
        ]);
        t.push_row(vec![
            SCRIPT_LABEL.to_owned(),
            "cell".to_owned(),
            "current cell only".to_owned(),
            "execution counter + cell output".to_owned(),
            "cell trace (In [n])".to_owned(),
        ]);
        Artifact::Table(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workflow_observation_covers_every_operator() {
        let r = observe_workflow(&DiceParams::new(20, 2), &Calibration::paper());
        assert_eq!(r.unit, "operator");
        assert!(r.units >= 5, "DICE has a multi-operator DAG: {r:?}");
        // At least the final trace sample covers all operators.
        assert!(r.events >= r.units, "{r:?}");
    }

    #[test]
    fn live_observation_also_covers_every_operator() {
        let r = observe_workflow_on(
            &DiceParams::new(20, 2),
            &Calibration::paper(),
            BackendKind::Live,
        );
        assert_eq!(r.unit, "operator");
        assert!(r.units >= 5, "live DICE run tracks the full DAG: {r:?}");
        assert!(r.events >= r.units, "{r:?}");
    }

    #[test]
    fn script_observation_is_cell_and_stage_grained() {
        let r = observe_script();
        assert_eq!(r.unit, "cell");
        assert_eq!(r.units, 3);
        // 3 cell spans + at least the parse stage's runtime span.
        assert!(r.events >= 4, "{r:?}");
    }

    #[test]
    fn comparison_experiment_produces_two_rows() {
        let Artifact::Table(t) = ObsComparison.run() else {
            panic!("expected table");
        };
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], WORKFLOW_LABEL);
        assert_eq!(t.rows[1][0], SCRIPT_LABEL);
        // The workflow paradigm records strictly more observability
        // events than the script paradigm on the same task shape.
        let wf_events: usize = t.rows[0][3].parse().unwrap();
        let sc_events: usize = t.rows[1][3].parse().unwrap();
        assert!(wf_events > sc_events, "{wf_events} vs {sc_events}");
    }
}

//! Experiment #4 — worker scaling (Fig. 14a–c).

use scriptflow_core::{
    Artifact, BackendChoice, BackendKind, Calibration, Experiment, ExperimentMeta, Figure, Series,
};
use scriptflow_tasks::dice::{self, DiceParams};
use scriptflow_tasks::gotta::{self, GottaParams};
use scriptflow_tasks::kge::{self, KgeParams};

use crate::{anchors, backend_workflow_label, SCRIPT_LABEL, WORKFLOW_LABEL};

const WORKERS: [usize; 3] = [1, 2, 4];

fn figure_from(id: &str, title: &str, points: Vec<(f64, f64, f64)>) -> Figure {
    let mut fig = Figure::new(id, title, "workers", "execution time (s)");
    fig.push_series(Series::new(
        SCRIPT_LABEL,
        points.iter().map(|(x, s, _)| (*x, *s)).collect(),
    ));
    fig.push_series(Series::new(
        WORKFLOW_LABEL,
        points.iter().map(|(x, _, w)| (*x, *w)).collect(),
    ));
    fig
}

/// Backend-aware worker-scaling figure: simulated script reference plus
/// one workflow series per selected backend over the [`WORKERS`] sweep.
fn backend_figure(
    id: &str,
    title: &str,
    backend: BackendChoice,
    script_at: impl Fn(usize) -> f64,
    workflow_at: impl Fn(usize, BackendKind) -> f64,
) -> Figure {
    let mut fig = Figure::new(
        id,
        format!("{title} [backend: {backend}]"),
        "workers",
        "execution time (s)",
    );
    fig.push_series(Series::new(
        SCRIPT_LABEL,
        WORKERS.iter().map(|&w| (w as f64, script_at(w))).collect(),
    ));
    for kind in backend.kinds() {
        fig.push_series(Series::new(
            backend_workflow_label(*kind),
            WORKERS
                .iter()
                .map(|&w| (w as f64, workflow_at(w, *kind)))
                .collect(),
        ));
    }
    fig
}

fn reference(id: &str, title: &str, rows: &[(usize, f64, f64)]) -> Artifact {
    Artifact::Figure(figure_from(
        id,
        title,
        rows.iter().map(|(x, s, w)| (*x as f64, *s, *w)).collect(),
    ))
}

/// Fig. 14a: DICE at 200 pairs, 1/2/4 workers.
pub struct Fig14a;

impl Experiment for Fig14a {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "fig14a",
            paper_artifact: "Fig. 14a",
            description: "DICE at 200 file pairs as workers increase",
        }
    }

    fn run(&self) -> Artifact {
        let cal = Calibration::paper();
        let points = WORKERS
            .into_iter()
            .map(|w| {
                let p = DiceParams::new(200, w);
                let s = dice::script::run_script(&p, &cal).expect("script run");
                let wf = dice::workflow::run_workflow(&p, &cal).expect("workflow run");
                (w as f64, s.seconds(), wf.seconds())
            })
            .collect();
        Artifact::Figure(figure_from("fig14a", "DICE workers", points))
    }

    fn run_on(&self, backend: BackendChoice) -> Artifact {
        if backend == BackendChoice::Sim {
            return self.run();
        }
        let cal = Calibration::paper();
        Artifact::Figure(backend_figure(
            "fig14a",
            "DICE workers",
            backend,
            |w| {
                dice::script::run_script(&DiceParams::new(200, w), &cal)
                    .expect("script run")
                    .seconds()
            },
            |w, kind| {
                dice::workflow::run_workflow_on(&DiceParams::new(200, w), &cal, kind)
                    .expect("workflow run")
                    .seconds()
            },
        ))
    }

    fn paper_reference(&self) -> Artifact {
        reference("fig14a", "DICE workers (paper)", &anchors::FIG14A)
    }
}

/// Fig. 14b: GOTTA at 4 paragraphs, 1/2/4 workers.
pub struct Fig14b;

impl Experiment for Fig14b {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "fig14b",
            paper_artifact: "Fig. 14b",
            description: "GOTTA at 4 paragraphs as workers increase",
        }
    }

    fn run(&self) -> Artifact {
        let cal = Calibration::paper();
        let points = WORKERS
            .into_iter()
            .map(|w| {
                let p = GottaParams::new(4, w);
                let s = gotta::script::run_script(&p, &cal).expect("script run");
                let wf = gotta::workflow::run_workflow(&p, &cal).expect("workflow run");
                (w as f64, s.seconds(), wf.seconds())
            })
            .collect();
        Artifact::Figure(figure_from("fig14b", "GOTTA workers", points))
    }

    fn run_on(&self, backend: BackendChoice) -> Artifact {
        if backend == BackendChoice::Sim {
            return self.run();
        }
        let cal = Calibration::paper();
        Artifact::Figure(backend_figure(
            "fig14b",
            "GOTTA workers",
            backend,
            |w| {
                gotta::script::run_script(&GottaParams::new(4, w), &cal)
                    .expect("script run")
                    .seconds()
            },
            |w, kind| {
                gotta::workflow::run_workflow_on(&GottaParams::new(4, w), &cal, kind)
                    .expect("workflow run")
                    .seconds()
            },
        ))
    }

    fn paper_reference(&self) -> Artifact {
        reference("fig14b", "GOTTA workers (paper)", &anchors::FIG14B)
    }
}

/// Fig. 14c: KGE at 68k products, 1/2/4 workers.
pub struct Fig14c;

impl Experiment for Fig14c {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "fig14c",
            paper_artifact: "Fig. 14c",
            description: "KGE at 68k products as workers increase",
        }
    }

    fn run(&self) -> Artifact {
        let cal = Calibration::paper();
        let points = WORKERS
            .into_iter()
            .map(|w| {
                let p = KgeParams::new(68_000, w).with_fusion(3);
                let s = kge::script::run_script(&p, &cal).expect("script run");
                let wf = kge::workflow::run_workflow(&p, &cal).expect("workflow run");
                (w as f64, s.seconds(), wf.seconds())
            })
            .collect();
        Artifact::Figure(figure_from("fig14c", "KGE workers", points))
    }

    fn run_on(&self, backend: BackendChoice) -> Artifact {
        if backend == BackendChoice::Sim {
            return self.run();
        }
        let cal = Calibration::paper();
        Artifact::Figure(backend_figure(
            "fig14c",
            "KGE workers",
            backend,
            |w| {
                kge::script::run_script(&KgeParams::new(68_000, w).with_fusion(3), &cal)
                    .expect("script run")
                    .seconds()
            },
            |w, kind| {
                kge::workflow::run_workflow_on(
                    &KgeParams::new(68_000, w).with_fusion(3),
                    &cal,
                    kind,
                )
                .expect("workflow run")
                .seconds()
            },
        ))
    }

    fn paper_reference(&self) -> Artifact {
        reference("fig14c", "KGE workers (paper)", &anchors::FIG14C)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Points = Vec<(f64, f64)>;

    /// The figure's two series. The figure must also still be the
    /// committed `artifacts/<id>.csv`, byte for byte.
    fn series_of(a: &Artifact, committed_csv: &str) -> (Points, Points) {
        match a {
            Artifact::Figure(f) => {
                assert_eq!(f.to_csv(), committed_csv, "artifacts/{}.csv drifted", f.id);
                (
                    f.series_by_label(SCRIPT_LABEL).unwrap().points.clone(),
                    f.series_by_label(WORKFLOW_LABEL).unwrap().points.clone(),
                )
            }
            other => panic!("expected figure, got {other:?}"),
        }
    }

    fn assert_monotone_decreasing(points: &[(f64, f64)], what: &str) {
        for pair in points.windows(2) {
            assert!(pair[1].1 < pair[0].1, "{what}: {:?} not decreasing", points);
        }
    }

    #[test]
    fn fig14a_shape() {
        let (s, w) = series_of(&Fig14a.run(), include_str!("../../../artifacts/fig14a.csv"));
        assert_monotone_decreasing(&s, "fig14a script");
        assert_monotone_decreasing(&w, "fig14a workflow");
        // Texera wins at every worker count (the paper's headline).
        for ((_, sy), (_, wy)) in s.iter().zip(&w) {
            assert!(wy < sy);
        }
        // The script narrows the gap as workers grow (±: paper saw the
        // relative difference fall from 122% to 50%).
        let gap_1 = s[0].1 / w[0].1;
        let gap_4 = s[2].1 / w[2].1;
        assert!(gap_4 < gap_1, "gap must narrow: {gap_1} -> {gap_4}");
    }

    #[test]
    fn fig14b_shape() {
        let (s, w) = series_of(&Fig14b.run(), include_str!("../../../artifacts/fig14b.csv"));
        assert_monotone_decreasing(&s, "fig14b script");
        assert_monotone_decreasing(&w, "fig14b workflow");
        for ((_, sy), (_, wy)) in s.iter().zip(&w) {
            assert!(wy < sy, "Texera wins GOTTA at every worker count");
        }
        // Script roughly halves per doubling (near-linear scaling).
        let speedup = s[0].1 / s[2].1;
        assert!((3.0..4.2).contains(&speedup), "script speedup {speedup}");
    }

    #[test]
    fn fig14c_shape() {
        let (s, w) = series_of(&Fig14c.run(), include_str!("../../../artifacts/fig14c.csv"));
        assert_monotone_decreasing(&s, "fig14c script");
        assert_monotone_decreasing(&w, "fig14c workflow");
        for ((_, sy), (_, wy)) in s.iter().zip(&w) {
            assert!(sy < wy, "script wins KGE at every worker count");
        }
        // Paper: Texera 28-33% slower at 1 worker; stays slower throughout.
        let slower_1 = w[0].1 / s[0].1 - 1.0;
        assert!((0.2..0.6).contains(&slower_1), "slower_1 {slower_1}");
    }
}

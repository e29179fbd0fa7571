//! Experiment #3 — dataset-size scaling (Fig. 13a–d).

use scriptflow_core::{
    Artifact, BackendChoice, BackendKind, Calibration, Experiment, ExperimentMeta, Figure, Series,
};
use scriptflow_tasks::dice::{self, DiceParams};
use scriptflow_tasks::gotta::{self, GottaParams};
use scriptflow_tasks::kge::{self, KgeParams};
use scriptflow_tasks::wef::{self, WefParams};

use crate::{anchors, backend_workflow_label, SCRIPT_LABEL, WORKFLOW_LABEL};

fn figure_from(id: &str, title: &str, x_label: &str, points: Vec<(f64, f64, f64)>) -> Figure {
    let mut fig = Figure::new(id, title, x_label, "execution time (s)");
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

/// Backend-aware variant of [`figure_from`]: the simulated script series
/// stays the reference, while the workflow side gets one series per
/// selected backend (virtual seconds for sim, measured wall-clock for
/// live).
fn backend_figure(
    id: &str,
    title: &str,
    x_label: &str,
    backend: BackendChoice,
    xs: &[usize],
    script_at: impl Fn(usize) -> f64,
    workflow_at: impl Fn(usize, BackendKind) -> f64,
) -> Figure {
    let mut fig = Figure::new(
        id,
        format!("{title} [backend: {backend}]"),
        x_label,
        "execution time (s)",
    );
    fig.push_series(Series::new(
        SCRIPT_LABEL,
        xs.iter().map(|&x| (x as f64, script_at(x))).collect(),
    ));
    for kind in backend.kinds() {
        fig.push_series(Series::new(
            backend_workflow_label(*kind),
            xs.iter()
                .map(|&x| (x as f64, workflow_at(x, *kind)))
                .collect(),
        ));
    }
    fig
}

fn reference_figure(id: &str, title: &str, x_label: &str, rows: &[(usize, f64, f64)]) -> Artifact {
    Artifact::Figure(figure_from(
        id,
        title,
        x_label,
        rows.iter().map(|(x, s, w)| (*x as f64, *s, *w)).collect(),
    ))
}

/// Fig. 13a: DICE over 10..200 file pairs.
pub struct Fig13a;

impl Experiment for Fig13a {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "fig13a",
            paper_artifact: "Fig. 13a",
            description: "DICE execution time as the number of file pairs grows",
        }
    }

    fn run(&self) -> Artifact {
        let cal = Calibration::paper();
        let points = [10, 50, 100, 200]
            .into_iter()
            .map(|pairs| {
                let p = DiceParams::new(pairs, 1);
                let s = dice::script::run_script(&p, &cal).expect("script run");
                let w = dice::workflow::run_workflow(&p, &cal).expect("workflow run");
                (pairs as f64, s.seconds(), w.seconds())
            })
            .collect();
        Artifact::Figure(figure_from("fig13a", "DICE scaling", "file pairs", points))
    }

    fn run_on(&self, backend: BackendChoice) -> Artifact {
        if backend == BackendChoice::Sim {
            return self.run();
        }
        let cal = Calibration::paper();
        Artifact::Figure(backend_figure(
            "fig13a",
            "DICE scaling",
            "file pairs",
            backend,
            &[10, 50, 100, 200],
            |pairs| {
                dice::script::run_script(&DiceParams::new(pairs, 1), &cal)
                    .expect("script run")
                    .seconds()
            },
            |pairs, kind| {
                dice::workflow::run_workflow_on(&DiceParams::new(pairs, 1), &cal, kind)
                    .expect("workflow run")
                    .seconds()
            },
        ))
    }

    fn paper_reference(&self) -> Artifact {
        reference_figure(
            "fig13a",
            "DICE scaling (paper)",
            "file pairs",
            &anchors::FIG13A,
        )
    }
}

/// Fig. 13b: WEF over 200..400 tweets.
pub struct Fig13b;

impl Experiment for Fig13b {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "fig13b",
            paper_artifact: "Fig. 13b",
            description: "WEF training time as the number of tweets grows",
        }
    }

    fn run(&self) -> Artifact {
        let cal = Calibration::paper();
        let points = [200, 300, 400]
            .into_iter()
            .map(|tweets| {
                let p = WefParams::new(tweets);
                let s = wef::script::run_script(&p, &cal).expect("script run");
                let w = wef::workflow::run_workflow(&p, &cal).expect("workflow run");
                (tweets as f64, s.seconds(), w.seconds())
            })
            .collect();
        Artifact::Figure(figure_from("fig13b", "WEF scaling", "tweets", points))
    }

    fn run_on(&self, backend: BackendChoice) -> Artifact {
        if backend == BackendChoice::Sim {
            return self.run();
        }
        let cal = Calibration::paper();
        Artifact::Figure(backend_figure(
            "fig13b",
            "WEF scaling",
            "tweets",
            backend,
            &[200, 300, 400],
            |tweets| {
                wef::script::run_script(&WefParams::new(tweets), &cal)
                    .expect("script run")
                    .seconds()
            },
            |tweets, kind| {
                wef::workflow::run_workflow_on(&WefParams::new(tweets), &cal, kind)
                    .expect("workflow run")
                    .seconds()
            },
        ))
    }

    fn paper_reference(&self) -> Artifact {
        reference_figure("fig13b", "WEF scaling (paper)", "tweets", &anchors::FIG13B)
    }
}

/// Fig. 13c: KGE over 6.8k / 68k products.
pub struct Fig13c;

impl Experiment for Fig13c {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "fig13c",
            paper_artifact: "Fig. 13c",
            description: "KGE inference time as the number of products grows",
        }
    }

    fn run(&self) -> Artifact {
        let cal = Calibration::paper();
        let points = [6_800usize, 68_000]
            .into_iter()
            .map(|products| {
                let p = KgeParams::new(products, 1).with_fusion(3);
                let s = kge::script::run_script(&p, &cal).expect("script run");
                let w = kge::workflow::run_workflow(&p, &cal).expect("workflow run");
                (products as f64, s.seconds(), w.seconds())
            })
            .collect();
        Artifact::Figure(figure_from("fig13c", "KGE scaling", "products", points))
    }

    fn run_on(&self, backend: BackendChoice) -> Artifact {
        if backend == BackendChoice::Sim {
            return self.run();
        }
        let cal = Calibration::paper();
        Artifact::Figure(backend_figure(
            "fig13c",
            "KGE scaling",
            "products",
            backend,
            &[6_800, 68_000],
            |products| {
                kge::script::run_script(&KgeParams::new(products, 1).with_fusion(3), &cal)
                    .expect("script run")
                    .seconds()
            },
            |products, kind| {
                kge::workflow::run_workflow_on(
                    &KgeParams::new(products, 1).with_fusion(3),
                    &cal,
                    kind,
                )
                .expect("workflow run")
                .seconds()
            },
        ))
    }

    fn paper_reference(&self) -> Artifact {
        reference_figure(
            "fig13c",
            "KGE scaling (paper)",
            "products",
            &anchors::FIG13C,
        )
    }
}

/// Fig. 13d: GOTTA over 1 / 4 / 16 paragraphs.
pub struct Fig13d;

impl Experiment for Fig13d {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "fig13d",
            paper_artifact: "Fig. 13d",
            description: "GOTTA inference time as the number of paragraphs grows",
        }
    }

    fn run(&self) -> Artifact {
        let cal = Calibration::paper();
        let points = [1usize, 4, 16]
            .into_iter()
            .map(|paragraphs| {
                let p = GottaParams::new(paragraphs, 1);
                let s = gotta::script::run_script(&p, &cal).expect("script run");
                let w = gotta::workflow::run_workflow(&p, &cal).expect("workflow run");
                (paragraphs as f64, s.seconds(), w.seconds())
            })
            .collect();
        Artifact::Figure(figure_from("fig13d", "GOTTA scaling", "paragraphs", points))
    }

    fn run_on(&self, backend: BackendChoice) -> Artifact {
        if backend == BackendChoice::Sim {
            return self.run();
        }
        let cal = Calibration::paper();
        Artifact::Figure(backend_figure(
            "fig13d",
            "GOTTA scaling",
            "paragraphs",
            backend,
            &[1, 4, 16],
            |paragraphs| {
                gotta::script::run_script(&GottaParams::new(paragraphs, 1), &cal)
                    .expect("script run")
                    .seconds()
            },
            |paragraphs, kind| {
                gotta::workflow::run_workflow_on(&GottaParams::new(paragraphs, 1), &cal, kind)
                    .expect("workflow run")
                    .seconds()
            },
        ))
    }

    fn paper_reference(&self) -> Artifact {
        reference_figure(
            "fig13d",
            "GOTTA scaling (paper)",
            "paragraphs",
            &anchors::FIG13D,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_core::Artifact;

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

    /// Assert measured y is within `tol` (relative) of the paper y for
    /// the points the paper quotes.
    fn assert_close(measured: &[(f64, f64)], paper: &[(usize, f64)], tol: f64, what: &str) {
        for (x, py) in paper {
            let my = measured
                .iter()
                .find(|(mx, _)| (*mx - *x as f64).abs() < 1e-9)
                .unwrap_or_else(|| panic!("{what}: missing x={x}"))
                .1;
            let rel = (my - py).abs() / py;
            assert!(
                rel < tol,
                "{what} at x={x}: measured {my:.2} vs paper {py:.2} ({:.0}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn fig13a_matches_paper_shape() {
        let (s, w) = series_of(&Fig13a.run(), include_str!("../../../artifacts/fig13a.csv"));
        let paper_s: Vec<(usize, f64)> = anchors::FIG13A.iter().map(|(x, s, _)| (*x, *s)).collect();
        let paper_w: Vec<(usize, f64)> = anchors::FIG13A.iter().map(|(x, _, w)| (*x, *w)).collect();
        assert_close(&s, &paper_s, 0.12, "fig13a script");
        assert_close(&w, &paper_w, 0.20, "fig13a workflow");
        // Texera wins at every measured size.
        for ((_, sy), (_, wy)) in s.iter().zip(&w) {
            assert!(wy < sy);
        }
    }

    #[test]
    fn fig13b_matches_paper_shape() {
        let (s, w) = series_of(&Fig13b.run(), include_str!("../../../artifacts/fig13b.csv"));
        let paper_s: Vec<(usize, f64)> = anchors::FIG13B.iter().map(|(x, s, _)| (*x, *s)).collect();
        let paper_w: Vec<(usize, f64)> = anchors::FIG13B.iter().map(|(x, _, w)| (*x, *w)).collect();
        assert_close(&s, &paper_s, 0.05, "fig13b script");
        assert_close(&w, &paper_w, 0.05, "fig13b workflow");
    }

    #[test]
    fn fig13c_matches_paper_shape() {
        let (s, w) = series_of(&Fig13c.run(), include_str!("../../../artifacts/fig13c.csv"));
        let paper_s: Vec<(usize, f64)> = anchors::FIG13C.iter().map(|(x, s, _)| (*x, *s)).collect();
        let paper_w: Vec<(usize, f64)> = anchors::FIG13C.iter().map(|(x, _, w)| (*x, *w)).collect();
        assert_close(&s, &paper_s, 0.10, "fig13c script");
        assert_close(&w, &paper_w, 0.10, "fig13c workflow");
        // KGE is the task the script paradigm wins at every scale.
        for ((_, sy), (_, wy)) in s.iter().zip(&w) {
            assert!(sy < wy);
        }
    }

    #[test]
    fn fig13d_matches_paper_shape() {
        let (s, w) = series_of(&Fig13d.run(), include_str!("../../../artifacts/fig13d.csv"));
        let paper_s: Vec<(usize, f64)> = anchors::FIG13D.iter().map(|(x, s, _)| (*x, *s)).collect();
        let paper_w: Vec<(usize, f64)> = anchors::FIG13D.iter().map(|(x, _, w)| (*x, *w)).collect();
        assert_close(&s, &paper_s, 0.05, "fig13d script");
        assert_close(&w, &paper_w, 0.05, "fig13d workflow");
        // Texera wins by ~2.5-3x at every size.
        for ((_, sy), (_, wy)) in s.iter().zip(&w) {
            assert!(*sy > wy * 2.0);
        }
    }
}

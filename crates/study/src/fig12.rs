//! Experiment #1 — modularity (Fig. 12a: lines of code; Fig. 12b: KGE
//! time vs operator count).

use scriptflow_core::{
    Artifact, BackendChoice, Calibration, Experiment, ExperimentMeta, Figure, Series, Table,
};
use scriptflow_tasks::kge::{self, KgeParams};
use scriptflow_tasks::listing;

use crate::{anchors, backend_workflow_label, SCRIPT_LABEL, WORKFLOW_LABEL};

/// Fig. 12a: lines of code per task under both paradigms.
pub struct Fig12a;

impl Experiment for Fig12a {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "fig12a",
            paper_artifact: "Fig. 12a",
            description: "Lines of code per task: notebook vs workflow",
        }
    }

    fn run(&self) -> Artifact {
        let mut t = Table::new(
            "Fig. 12a — lines of code",
            &["task", SCRIPT_LABEL, WORKFLOW_LABEL],
        );
        let rows: [(&str, String, String); 4] = [
            (
                "DICE",
                listing::dice_script_listing(),
                listing::dice_workflow_listing(),
            ),
            (
                "WEF",
                listing::wef_script_listing(),
                listing::wef_workflow_listing(),
            ),
            (
                "GOTTA",
                listing::gotta_script_listing(),
                listing::gotta_workflow_listing(),
            ),
            (
                "KGE",
                listing::kge_script_listing(),
                listing::kge_workflow_listing(),
            ),
        ];
        for (task, script, workflow) in rows {
            t.push_row(vec![
                task.to_owned(),
                listing::count_loc(&script).to_string(),
                listing::count_loc(&workflow).to_string(),
            ]);
        }
        Artifact::Table(t)
    }

    fn paper_reference(&self) -> Artifact {
        let mut t = Table::new(
            "Fig. 12a — lines of code (paper)",
            &["task", SCRIPT_LABEL, WORKFLOW_LABEL],
        );
        for (task, nb, tex) in anchors::FIG12A_LOC {
            t.push_row(vec![task.to_owned(), nb.to_string(), tex.to_string()]);
        }
        Artifact::Table(t)
    }
}

/// Fig. 12b: KGE execution time at 6.8k products across fusion levels
/// 1–6, with the script time as the reference line.
pub struct Fig12b;

impl Experiment for Fig12b {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "fig12b",
            paper_artifact: "Fig. 12b",
            description: "KGE time vs number of workflow operators (modularity)",
        }
    }

    fn run(&self) -> Artifact {
        let cal = Calibration::paper();
        let mut fig = Figure::new(
            "fig12b",
            "KGE modularity",
            "logical operators",
            "execution time (s)",
        );
        let points: Vec<(f64, f64)> = (1..=6)
            .map(|fusion| {
                let p = KgeParams::new(6_800, 1).with_fusion(fusion);
                let run = kge::workflow::run_workflow(&p, &cal).expect("workflow run");
                (fusion as f64, run.seconds())
            })
            .collect();
        fig.push_series(Series::new(WORKFLOW_LABEL, points));
        let script = kge::script::run_script(&KgeParams::new(6_800, 1), &cal)
            .expect("script run")
            .seconds();
        fig.push_series(Series::new(
            format!("{SCRIPT_LABEL} (reference)"),
            (1..=6).map(|x| (x as f64, script)).collect(),
        ));
        Artifact::Figure(fig)
    }

    fn run_on(&self, backend: BackendChoice) -> Artifact {
        if backend == BackendChoice::Sim {
            return self.run();
        }
        let cal = Calibration::paper();
        let mut fig = Figure::new(
            "fig12b",
            format!("KGE modularity [backend: {backend}]"),
            "logical operators",
            "execution time (s)",
        );
        for kind in backend.kinds() {
            let points: Vec<(f64, f64)> = (1..=6)
                .map(|fusion| {
                    let p = KgeParams::new(6_800, 1).with_fusion(fusion);
                    let run =
                        kge::workflow::run_workflow_on(&p, &cal, *kind).expect("workflow run");
                    (fusion as f64, run.seconds())
                })
                .collect();
            fig.push_series(Series::new(backend_workflow_label(*kind), points));
        }
        Artifact::Figure(fig)
    }

    fn paper_reference(&self) -> Artifact {
        let mut fig = Figure::new(
            "fig12b",
            "KGE modularity (paper)",
            "logical operators",
            "execution time (s)",
        );
        fig.push_series(Series::new(WORKFLOW_LABEL, anchors::FIG12B_POINTS.to_vec()));
        Artifact::Figure(fig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12a_reproduces_the_ordering() {
        let Artifact::Table(t) = Fig12a.run() else {
            panic!("expected table");
        };
        assert_eq!(t.rows.len(), 4);
        for (row, (task, paper_nb, paper_tex)) in t.rows.iter().zip(anchors::FIG12A_LOC) {
            let nb: usize = row[1].parse().unwrap();
            let tex: usize = row[2].parse().unwrap();
            assert_eq!(
                nb > tex,
                paper_nb > paper_tex,
                "{task} ordering: measured {nb}/{tex}, paper {paper_nb}/{paper_tex}"
            );
        }
    }

    #[test]
    fn fig12b_shows_diminishing_modularity_returns() {
        let Artifact::Figure(fig) = Fig12b.run() else {
            panic!("expected figure");
        };
        assert_eq!(
            fig.to_csv(),
            include_str!("../../../artifacts/fig12b.csv"),
            "artifacts/fig12b.csv drifted"
        );
        let points = &fig.series_by_label(WORKFLOW_LABEL).unwrap().points;
        let y = |k: f64| {
            points
                .iter()
                .find(|(x, _)| (*x - k).abs() < 1e-9)
                .unwrap()
                .1
        };
        // The paper's claims: splitting helps (1 → 5 operators is ~20%
        // faster), but the benefit saturates (6 is not faster than 5).
        assert!(y(5.0) < y(1.0) * 0.92, "5-op {} vs 1-op {}", y(5.0), y(1.0));
        assert!(y(6.0) >= y(5.0), "6-op {} vs 5-op {}", y(6.0), y(5.0));
        // Note: fusion level 2 bundles filter+join+score into one hot
        // Python operator including its vectorization warm-up; the paper
        // only quotes levels 1, 5 and 6.
    }
}

//! Cross-paradigm equivalence: for every task, the notebook+Ray
//! implementation and the workflow implementation must produce the same
//! output multiset as each other and as the task oracle, at several
//! sizes and worker counts.

use scriptflow::core::Calibration;
use scriptflow::simcluster::Language;
use scriptflow::tasks::{dice, gotta, kge, wef};

#[test]
fn dice_equivalence_across_sizes_and_workers() {
    let cal = Calibration::paper();
    for (pairs, workers) in [(5, 1), (12, 2), (20, 4)] {
        let params = dice::DiceParams::new(pairs, workers);
        let expected = dice::oracle(&params.dataset());
        let sc = dice::script::run_script(&params, &cal).expect("script");
        let wf = dice::workflow::run_workflow(&params, &cal).expect("workflow");
        assert_eq!(sc.output, expected, "script @ {pairs}x{workers}");
        assert_eq!(wf.output, expected, "workflow @ {pairs}x{workers}");
    }
}

#[test]
fn wef_equivalence_and_quality() {
    let cal = Calibration::paper();
    for tweets in [60, 150] {
        let params = wef::WefParams::new(tweets);
        let sc = wef::script::run_script(&params, &cal).expect("script");
        let wf = wef::workflow::run_workflow(&params, &cal).expect("workflow");
        assert_eq!(sc.output, wf.output, "@ {tweets} tweets");
        assert_eq!(sc.output.len(), tweets);
    }
}

#[test]
fn gotta_equivalence_and_exact_match() {
    let cal = Calibration::paper();
    for (paragraphs, workers) in [(2, 1), (6, 2), (10, 4)] {
        let params = gotta::GottaParams::new(paragraphs, workers);
        let sc = gotta::script::run_script(&params, &cal).expect("script");
        let wf = gotta::workflow::run_workflow(&params, &cal).expect("workflow");
        assert_eq!(sc.output, wf.output, "@ {paragraphs}x{workers}");
        let em = gotta::exact_match_of(&sc.output);
        assert!(em > 0.5, "exact match {em} @ {paragraphs} paragraphs");
    }
}

#[test]
fn kge_equivalence_across_all_configurations() {
    let cal = Calibration::paper();
    let base = kge::KgeParams::new(700, 2);
    let mut expected = kge::oracle(&base.catalog(&cal), cal.kge_top_k);
    expected.sort_unstable();

    let sc = kge::script::run_script(&base, &cal).expect("script");
    assert_eq!(sc.output, expected);

    for fusion in 1..=6 {
        let params = kge::KgeParams::new(700, 2).with_fusion(fusion);
        let wf = kge::workflow::run_workflow(&params, &cal).expect("workflow");
        assert_eq!(wf.output, expected, "fusion {fusion}");
    }
    for params in [
        kge::KgeParams::new(700, 2)
            .with_fusion(3)
            .with_pandas_join(),
        kge::KgeParams::new(700, 2)
            .with_fusion(3)
            .with_join_language(Language::Scala),
    ] {
        let wf = kge::workflow::run_workflow(&params, &cal).expect("workflow");
        assert_eq!(wf.output, expected, "{}", params.config_string());
    }
}

#[test]
fn worker_count_never_changes_results() {
    let cal = Calibration::paper();
    let baseline = kge::script::run_script(&kge::KgeParams::new(900, 1), &cal)
        .expect("script")
        .output;
    for workers in [2, 3, 4, 8] {
        let run =
            kge::script::run_script(&kge::KgeParams::new(900, workers), &cal).expect("script");
        assert_eq!(run.output, baseline, "workers={workers}");
        let wf = kge::workflow::run_workflow(&kge::KgeParams::new(900, workers), &cal)
            .expect("workflow");
        assert_eq!(wf.output, baseline, "workflow workers={workers}");
    }
}

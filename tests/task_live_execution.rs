//! Drive a full task DAG on the **live** (real OS threads) executor and
//! check it produces the same MACCROBAT-EE output as the oracle and the
//! simulated run — the heaviest cross-executor workout in the suite
//! (two sources, a three-way split, a two-key hash join, a three-port
//! union, and a blocking broadcast-build link operator).

use scriptflow::core::Calibration;
use scriptflow::tasks::dice::{self, workflow::build_dice_workflow, DiceParams};
use scriptflow::tasks::gotta::{self, workflow::build_gotta_workflow, GottaParams};
use scriptflow::workflow::LiveExecutor;

fn live_rows(params: &DiceParams, cal: &Calibration) -> Vec<String> {
    let (wf, handle) = build_dice_workflow(params, cal).expect("valid DAG");
    LiveExecutor::new(64).run(&wf).expect("live run");
    let mut rows: Vec<String> = handle
        .results()
        .iter()
        .map(|t| {
            dice::row_fingerprint(
                t.get_int("doc_id").unwrap(),
                t.get("sent_idx").unwrap().as_int(),
                t.get_str("key").unwrap(),
                t.get_str("kind").unwrap(),
                t.get_str("ann_type").unwrap(),
                t.get("text").unwrap().as_str(),
                t.get("sentence").unwrap().as_str(),
            )
        })
        .collect();
    rows.sort_unstable();
    rows
}

#[test]
fn dice_workflow_runs_on_real_threads() {
    let cal = Calibration::paper();
    for (pairs, workers) in [(8, 1), (15, 3)] {
        let params = DiceParams::new(pairs, workers);
        let expected = dice::oracle(&params.dataset());
        assert_eq!(
            live_rows(&params, &cal),
            expected,
            "pairs={pairs} workers={workers}"
        );
    }
}

#[test]
fn gotta_workflow_runs_on_real_threads() {
    let cal = Calibration::paper();
    let params = GottaParams::new(6, 2);
    let (wf, handle) = build_gotta_workflow(&params, &cal).expect("valid DAG");
    LiveExecutor::new(8).run(&wf).expect("live run");
    let mut rows: Vec<String> = handle
        .results()
        .iter()
        .map(|t| t.get_str("row").unwrap().to_owned())
        .collect();
    rows.sort_unstable();
    let expected = gotta::script::run_script(&params, &cal)
        .expect("script")
        .output;
    assert_eq!(rows, expected);
    assert!(gotta::exact_match_of(&rows) > 0.5);
}

#[test]
fn dice_live_is_repeatable() {
    let cal = Calibration::paper();
    let params = DiceParams::new(10, 4);
    let a = live_rows(&params, &cal);
    let b = live_rows(&params, &cal);
    assert_eq!(a, b, "thread scheduling must not change the data");
    assert_eq!(a.len(), params.dataset().annotation_count());
}

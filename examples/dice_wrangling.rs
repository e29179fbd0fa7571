//! DICE data wrangling end to end: the same MACCROBAT-style corpus
//! preprocessed under both paradigms, with identical outputs and the
//! paper's timing asymmetry (Fig. 13a / 14a).
//!
//! ```text
//! cargo run --release --example dice_wrangling
//! ```

use scriptflow::core::Calibration;
use scriptflow::tasks::dice::{oracle, script, workflow, DiceParams};

fn main() {
    let cal = Calibration::paper();
    let params = DiceParams::new(50, 2);
    let dataset = params.dataset();
    println!(
        "corpus: {} reports, {} annotations, {} sentences/report",
        dataset.reports.len(),
        dataset.annotation_count(),
        params.sentences_per_report
    );
    println!(
        "sample report:\n  {}\nsample .ann lines:\n{}",
        &dataset.reports[0].text[..dataset.reports[0].sentences[0].1],
        dataset.reports[0]
            .to_ann_file()
            .lines()
            .take(4)
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    let sc = script::run_script(&params, &cal).expect("script run");
    let wf = workflow::run_workflow(&params, &cal).expect("workflow run");
    let expected = oracle(&dataset);

    assert_eq!(sc.output, expected, "script output matches the oracle");
    assert_eq!(wf.output, expected, "workflow output matches the oracle");

    println!(
        "\nMACCROBAT-EE rows: {} (both paradigms identical)",
        expected.len()
    );
    for row in expected.iter().take(5) {
        println!("  {row}");
    }
    println!(
        "\nvirtual execution time @ {} workers:\n  script (notebook + Ray): {:8.2}s\n  workflow (pipelined):    {:8.2}s  ({:.0}% of script)",
        params.workers,
        sc.seconds(),
        wf.seconds(),
        100.0 * wf.seconds() / sc.seconds()
    );
    println!(
        "lines of code: script {}, workflow {} (paper: 377 vs 215)",
        sc.report.metrics.lines_of_code, wf.report.metrics.lines_of_code
    );
}

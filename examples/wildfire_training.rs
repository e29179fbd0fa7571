//! WEF model training end to end: fine-tune the four-framing ensemble on
//! synthetic wildfire tweets and evaluate it — the real model actually
//! learns; the virtual clock shows the paper's Fig. 13b near-tie.
//!
//! ```text
//! cargo run --release --example wildfire_training
//! ```

use scriptflow::core::Calibration;
use scriptflow::datagen::wildfire::FRAMINGS;
use scriptflow::mlkit::logreg::TrainConfig;
use scriptflow::mlkit::{f1_binary, MultiLabelModel};
use scriptflow::tasks::wef::{script, subset_accuracy, workflow, WefParams};

fn main() {
    let cal = Calibration::paper();
    let params = WefParams::new(300);
    let dataset = params.dataset();

    // Train the real ensemble directly and report quality.
    let labels: Vec<&str> = FRAMINGS.to_vec();
    let model = MultiLabelModel::fit(&labels, &dataset.training_pairs(), TrainConfig::default());
    println!("== real ensemble quality (training set) ==");
    for framing in FRAMINGS {
        let gold: Vec<bool> = dataset
            .tweets
            .iter()
            .map(|t| t.framings.iter().any(|f| f == framing))
            .collect();
        let pred: Vec<bool> = dataset
            .tweets
            .iter()
            .map(|t| model.predict(&t.text).iter().any(|f| f == framing))
            .collect();
        println!("  {framing:<16} F1 = {:.3}", f1_binary(&pred, &gold));
    }

    // Now the paradigm comparison.
    let sc = script::run_script(&params, &cal).expect("script run");
    let wf = workflow::run_workflow(&params, &cal).expect("workflow run");
    assert_eq!(sc.output, wf.output, "identical predictions");
    let acc = subset_accuracy(&dataset, &{
        let mut o = sc.output.clone();
        o.sort_by_key(|r| {
            r.split('=')
                .nth(1)
                .unwrap()
                .split('|')
                .next()
                .unwrap()
                .parse::<i64>()
                .unwrap()
        });
        o
    });
    println!("\nsubset accuracy (all 4 labels exact): {acc:.3}");
    println!(
        "\nvirtual training time @ {} tweets (paper: 1922.86s vs 1896.01s):\n  script:   {:8.2}s\n  workflow: {:8.2}s ({:+.1}%)",
        params.tweets,
        sc.seconds(),
        wf.seconds(),
        100.0 * (wf.seconds() / sc.seconds() - 1.0)
    );
}

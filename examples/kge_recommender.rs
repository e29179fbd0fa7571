//! KGE multi-step inference end to end: a product recommender over
//! knowledge-graph embeddings, with the fusion-level sweep (Fig. 12b)
//! and the Python→Scala join swap (Table I).
//!
//! ```text
//! cargo run --release --example kge_recommender
//! ```

use scriptflow::core::Calibration;
use scriptflow::simcluster::Language;
use scriptflow::tasks::kge::{script, workflow, KgeParams};

fn main() {
    let cal = Calibration::paper();
    let params = KgeParams::new(6_800, 2);

    let sc = script::run_script(&params, &cal).expect("script run");
    let wf = workflow::run_workflow(&params, &cal).expect("workflow run");
    assert_eq!(sc.output, wf.output, "identical recommendations");

    println!("top-{} predicted purchases:", sc.output.len());
    let mut rows = sc.output.clone();
    rows.sort_by_key(|r| {
        r.split("rank=")
            .nth(1)
            .unwrap()
            .split('|')
            .next()
            .unwrap()
            .parse::<usize>()
            .unwrap()
    });
    for row in &rows {
        println!("  {row}");
    }
    println!(
        "\nvirtual time @6.8k products (paper: 90.69s vs 135.85s):\n  script:   {:8.2}s\n  workflow: {:8.2}s ({:.0}% slower — the serde tax)",
        sc.seconds(),
        wf.seconds(),
        100.0 * (wf.seconds() / sc.seconds() - 1.0)
    );

    println!("\n== modularity sweep (Fig. 12b) ==");
    for fusion in 1..=6 {
        let run = workflow::run_workflow(&KgeParams::new(6_800, 1).with_fusion(fusion), &cal)
            .expect("workflow run");
        println!(
            "  {fusion} logical operator(s): {:8.2}s  ({} DAG nodes)",
            run.seconds(),
            run.report.metrics.operator_count
        );
    }

    println!("\n== language swap (Table I) ==");
    for (label, params) in [
        (
            "Python join (pandas)",
            KgeParams::new(6_800, 1).with_fusion(3).with_pandas_join(),
        ),
        (
            "Scala join pipeline ",
            KgeParams::new(6_800, 1)
                .with_fusion(3)
                .with_join_language(Language::Scala),
        ),
    ] {
        let run = workflow::run_workflow(&params, &cal).expect("workflow run");
        println!("  {label}: {:8.2}s", run.seconds());
    }
}

use scriptflow_core::{BackendKind, Calibration};
use scriptflow_simcluster::Language;
use scriptflow_tasks::kge::{
    script::run_script,
    workflow::{run_workflow, run_workflow_on},
    KgeParams,
};
fn main() {
    let cal = Calibration::paper();
    println!("Fig13c (paper JN: 90.69/975.46; Tex: 135.85/1350.50)");
    for n in [6_800, 68_000] {
        let s = run_script(&KgeParams::new(n, 1), &cal).unwrap().seconds();
        let w3 = run_workflow(&KgeParams::new(n, 1).with_fusion(3), &cal)
            .unwrap()
            .seconds();
        let w4 = run_workflow(&KgeParams::new(n, 1).with_fusion(4), &cal)
            .unwrap()
            .seconds();
        println!("  n={n:<6} script={s:8.2} wf_f3={w3:8.2} wf_f4={w4:8.2}");
    }
    println!("Fig12b @6.8k (paper: 1op=138.97, 5op=114.05, 6op=115.14)");
    for f in 1..=6 {
        let w = run_workflow(&KgeParams::new(6_800, 1).with_fusion(f), &cal)
            .unwrap()
            .seconds();
        println!("  fusion={f} wf={w:8.2}");
    }
    println!("TableI (paper Scala: 98.67/1159.82; Python: 126.28/1170.57)");
    for n in [6_800, 68_000] {
        let py = run_workflow(
            &KgeParams::new(n, 1).with_fusion(3).with_pandas_join(),
            &cal,
        )
        .unwrap()
        .seconds();
        let sc = run_workflow(
            &KgeParams::new(n, 1)
                .with_fusion(3)
                .with_join_language(Language::Scala),
            &cal,
        )
        .unwrap()
        .seconds();
        println!("  n={n:<6} python={py:8.2} scala={sc:8.2}");
    }
    println!("Fig14c @68k (paper JN: 975.46/459.46/273.89; Tex: 1350.50/618.39/383.58)");
    for wk in [1, 2, 4] {
        let s = run_script(&KgeParams::new(68_000, wk), &cal)
            .unwrap()
            .seconds();
        let w = run_workflow(&KgeParams::new(68_000, wk).with_fusion(3), &cal)
            .unwrap()
            .seconds();
        println!("  workers={wk} script={s:8.2} workflow={w:8.2}");
    }
    let live = run_workflow_on(&KgeParams::new(600, 1), &cal, BackendKind::Live).unwrap();
    println!(
        "live backend @600 products: wall-clock={:.3}s rows={}",
        live.wall_clock.unwrap().as_secs_f64(),
        live.run.output.len()
    );
}

use scriptflow_core::{BackendKind, Calibration};
use scriptflow_tasks::gotta::{
    script::run_script,
    workflow::{run_workflow, run_workflow_on},
    GottaParams,
};
fn main() {
    let cal = Calibration::paper();
    println!("Fig13d (paper JN: 163.22/463.96/1389.93; Tex: 64.14/149.45/460.13)");
    for p in [1, 4, 16] {
        let s = run_script(&GottaParams::new(p, 1), &cal).unwrap().seconds();
        let w = run_workflow(&GottaParams::new(p, 1), &cal)
            .unwrap()
            .seconds();
        println!("  paragraphs={p:<3} script={s:8.2} workflow={w:8.2}");
    }
    println!("Fig14b @4 paragraphs (paper JN: 463.96/234.68/139.66; Tex: 149.45/104.16/83.37)");
    for wk in [1, 2, 4] {
        let s = run_script(&GottaParams::new(4, wk), &cal)
            .unwrap()
            .seconds();
        let w = run_workflow(&GottaParams::new(4, wk), &cal)
            .unwrap()
            .seconds();
        println!("  workers={wk} script={s:8.2} workflow={w:8.2}");
    }
    let live = run_workflow_on(&GottaParams::new(1, 1), &cal, BackendKind::Live).unwrap();
    println!(
        "live backend @1 paragraph: wall-clock={:.3}s rows={}",
        live.wall_clock.unwrap().as_secs_f64(),
        live.run.output.len()
    );
}

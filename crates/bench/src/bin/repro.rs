//! Regenerate every table and figure of the paper, side by side with the
//! paper's reference numbers.
//!
//! ```text
//! cargo run --release -p scriptflow-bench --bin repro            # everything
//! cargo run --release -p scriptflow-bench --bin repro fig13a    # one artifact
//! cargo run --release -p scriptflow-bench --bin repro --ablations
//! cargo run --release -p scriptflow-bench --bin repro --fault    # §III-A fault comparison
//! cargo run --release -p scriptflow-bench --bin repro --service  # multi-tenant isolation
//! cargo run --release -p scriptflow-bench --bin repro --spill    # bounded-memory extension
//! cargo run --release -p scriptflow-bench --bin repro --cache    # incremental edit-rerun + edit-loop
//! cargo run --release -p scriptflow-bench --bin repro edit-loop  # cross-session edit loop only
//! cargo run --release -p scriptflow-bench --bin repro --csv     # + artifacts/*.csv
//! cargo run --release -p scriptflow-bench --bin repro fig12a --backend both
//! ```
//!
//! `--backend {sim,live,both}` re-runs the workflow side of each
//! experiment on the chosen engine(s): `sim` reports virtual seconds
//! from the calibrated cost model (the default; reproduces the paper),
//! `live` reports measured wall-clock from the pooled executor, and
//! `both` prints the two side by side. Any live selection also runs the
//! four paper tasks on both engines at probe scale and archives each
//! live run's sampled trace under `artifacts/trace_live_<task>.json`.

use scriptflow_bench::{backend, render_side_by_side};
use scriptflow_core::{BackendChoice, BackendKind, Calibration, Registry, Table};
use scriptflow_study::{
    ablation_registry, conclusions, fault_registry, incremental_registry, registry,
    service_registry, spill_registry,
};
use scriptflow_tasks::dice::{self, DiceParams};
use scriptflow_tasks::gotta::{self, GottaParams};
use scriptflow_tasks::kge::{self, KgeParams};
use scriptflow_tasks::wef::{self, WefParams};
use scriptflow_tasks::BackendRun;

/// Run the four paper tasks at probe scale on every selected backend,
/// print virtual vs wall-clock seconds side by side, and archive the
/// live traces.
fn backend_comparison(choice: BackendChoice) {
    let cal = Calibration::paper();
    type TaskFn<'a> = Box<dyn Fn(BackendKind) -> BackendRun + 'a>;
    let runs: [(&str, TaskFn); 4] = [
        (
            "dice",
            Box::new(|k| {
                dice::workflow::run_workflow_on(&DiceParams::new(10, 1), &cal, k)
                    .expect("DICE runs")
            }),
        ),
        (
            "wef",
            Box::new(|k| {
                wef::workflow::run_workflow_on(&WefParams::new(80), &cal, k).expect("WEF runs")
            }),
        ),
        (
            "gotta",
            Box::new(|k| {
                gotta::workflow::run_workflow_on(&GottaParams::new(1, 1), &cal, k)
                    .expect("GOTTA runs")
            }),
        ),
        (
            "kge",
            Box::new(|k| {
                kge::workflow::run_workflow_on(&KgeParams::new(600, 1), &cal, k).expect("KGE runs")
            }),
        ),
    ];

    let headers: Vec<String> = std::iter::once("task".to_owned())
        .chain(
            choice
                .kinds()
                .iter()
                .map(|k| format!("{} ({})", k.label(), k.time_unit())),
        )
        .chain(["rows".to_owned(), "skips".to_owned()])
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!("probe-scale tasks [backend: {choice}]"),
        &header_refs,
    );

    for (task, run_on) in &runs {
        let mut cells = vec![(*task).to_owned()];
        let mut rows = None;
        let mut skips = 0u64;
        for kind in choice.kinds() {
            let run = run_on(*kind);
            cells.push(format!("{:.3}", run.seconds()));
            rows = Some(run.run.output.len());
            skips = skips.max(run.counters().batches_skipped);
            if *kind == BackendKind::Live {
                match backend::archive_live_trace(task, &run.trace) {
                    Ok(path) => eprintln!("archived live trace: {path}"),
                    Err(err) => eprintln!("could not archive live trace for {task}: {err}"),
                }
            }
        }
        cells.push(rows.unwrap_or(0).to_string());
        cells.push(skips.to_string());
        t.push_row(cells);
    }
    println!("{t}");
}

/// An opt-in section printed after the paper's own artifacts. It runs
/// whole under its flag, or just the experiments named positionally
/// (`repro edit-loop`).
struct Section {
    flag: &'static str,
    banner: &'static str,
    registry: fn() -> Registry,
    /// Ablations have no paper artifact to print beside the measurement.
    paper_side: bool,
}

const SECTIONS: [Section; 5] = [
    Section {
        flag: "--fault",
        banner: "#################### FAULT TOLERANCE ####################",
        registry: fault_registry,
        paper_side: true,
    },
    Section {
        flag: "--service",
        banner: "#################### MULTI-TENANT SERVICE ####################",
        registry: service_registry,
        paper_side: true,
    },
    Section {
        flag: "--spill",
        banner: "#################### BOUNDED MEMORY (spill) ####################",
        registry: spill_registry,
        paper_side: true,
    },
    Section {
        flag: "--cache",
        banner: "#################### INCREMENTAL RE-EXECUTION ####################",
        registry: incremental_registry,
        paper_side: true,
    },
    Section {
        flag: "--ablations",
        banner: "######################## ABLATIONS ########################",
        registry: ablation_registry,
        paper_side: false,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want_csv = args.iter().any(|a| a == "--csv");
    let backend_flag = match backend::parse_backend_flag(&args) {
        Ok(flag) => flag,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let choice = backend_flag.unwrap_or_default();
    let filter: Vec<&String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| {
            // Skip the value of a space-separated `--backend <value>`.
            BackendChoice::parse(a).is_none() || backend_flag.is_none()
        })
        .collect();

    if want_csv {
        let _ = std::fs::create_dir_all("artifacts");
    }

    let reg = registry();
    for e in reg.experiments() {
        let meta = e.meta();
        if !filter.is_empty() && !filter.iter().any(|f| meta.id == f.as_str()) {
            continue;
        }
        let measured = e.run_on(choice);
        let paper = e.paper_reference();
        println!("{}", render_side_by_side(&meta, &measured, &paper));
        if want_csv {
            if let scriptflow_core::Artifact::Figure(fig) = &measured {
                let path = format!("artifacts/{}.csv", meta.id);
                if let Err(err) = std::fs::write(&path, fig.to_csv()) {
                    eprintln!("could not write {path}: {err}");
                } else {
                    println!("wrote {path}");
                }
            }
        }
    }

    if choice.includes(BackendKind::Live) {
        println!("\n################ BACKEND COMPARISON (probe scale) ################\n");
        backend_comparison(choice);
    }

    if filter.is_empty() {
        println!("\n#################### §VI CONCLUSIONS ####################\n");
        let claims = conclusions::evaluate(&Calibration::paper());
        println!("{}", conclusions::as_table(&claims));
    }

    let named = |id: &str| filter.iter().any(|f| f.as_str() == id);
    for section in SECTIONS {
        let whole = args.iter().any(|a| a == section.flag);
        let reg = (section.registry)();
        let selected: Vec<_> = reg
            .experiments()
            .iter()
            .filter(|e| whole || named(e.meta().id))
            .collect();
        if selected.is_empty() {
            continue;
        }
        println!("\n{}\n", section.banner);
        for e in selected {
            let meta = e.meta();
            let measured = e.run_on(choice);
            if section.paper_side {
                let paper = e.paper_reference();
                println!("{}", render_side_by_side(&meta, &measured, &paper));
            } else {
                println!(
                    "================================================================\n\
                     {} — {}\n{}\n\n{measured}",
                    meta.id, meta.paper_artifact, meta.description
                );
            }
        }
    }
}

//! Sim/live backend parity: the [`scriptflow::workflow::ExecBackend`]
//! surface must make the two engines interchangeable for every paper
//! task. For each of DICE, WEF, GOTTA and KGE, the same
//! `run_workflow_on` call on the simulator and on the pooled live
//! executor must produce identical output rows (the engines differ in
//! clocks, never in data), the same operator set in the terminal trace
//! sample, and — on a fault-free run — a live trace in which every
//! operator ends `Completed`.
//!
//! Every parity check runs under four calibrations (see
//! [`calibrations`]): the paper's row batches, columnar batches (the
//! sim's cost switch; the live engine picks its layout from the DAG
//! under every calibration), a 1 KiB per-operator memory budget, and the
//! result cache armed. The rows must be identical in all of them: batch
//! layout, spilling and caching are layout, memory-management and
//! scheduling decisions, never data decisions.

use std::collections::BTreeSet;
use std::sync::Arc;

use scriptflow::core::{BackendKind, Calibration};
use scriptflow::simcluster::Language;
use scriptflow::tasks::dice::{self, DiceParams};
use scriptflow::tasks::gotta::{self, GottaParams};
use scriptflow::tasks::kge::{self, KgeParams};
use scriptflow::tasks::wef::{self, WefParams};
use scriptflow::tasks::BackendRun;
use scriptflow::workflow::{OperatorState, ResultCache};

/// The calibrations every parity check runs under: the paper's row
/// engine; columnar edge batches; a budget small enough that the
/// join-bearing tasks spill their build sides to the compressed block
/// store mid-check; and the fingerprinted result cache armed (a fresh
/// cache per run: all misses, full recording).
fn calibrations() -> [(&'static str, Calibration); 4] {
    let mut budgeted = Calibration::paper();
    budgeted.wf_memory_budget = Some(1 << 10);
    let mut cached = Calibration::paper();
    cached.wf_result_cache = true;
    [
        ("row", Calibration::paper()),
        ("columnar", Calibration::paper_columnar()),
        ("1 KiB budget", budgeted),
        ("cache armed", cached),
    ]
}

/// One paper task, run under a calibration on a backend.
type TaskFn = Box<dyn Fn(&Calibration, BackendKind) -> BackendRun>;
/// One paper task on a backend, optionally against a shared cache.
type CachedTaskFn<'a> = Box<dyn Fn(BackendKind, Option<&Arc<ResultCache>>) -> BackendRun + 'a>;

fn operator_set(run: &BackendRun) -> BTreeSet<String> {
    let (_, last) = run
        .trace
        .samples
        .last()
        .expect("every run ends with a terminal trace sample");
    last.iter().map(|o| o.name.clone()).collect()
}

fn assert_parity(task: &str, run_on: impl Fn(&Calibration, BackendKind) -> BackendRun) {
    for (config, cal) in calibrations() {
        let task = format!("{task} [{config}]");
        let sim = run_on(&cal, BackendKind::Sim);
        let live = run_on(&cal, BackendKind::Live);
        assert_eq!(sim.kind, BackendKind::Sim, "{task}");
        assert_eq!(live.kind, BackendKind::Live, "{task}");
        assert!(sim.wall_clock.is_none(), "{task}: sim time is virtual");
        assert!(
            live.wall_clock.is_some(),
            "{task}: live run measures wall-clock"
        );

        // Identical rows, order-independent (live thread interleaving may
        // reorder a sink's arrivals).
        let mut sim_rows = sim.run.output.clone();
        let mut live_rows = live.run.output.clone();
        sim_rows.sort_unstable();
        live_rows.sort_unstable();
        assert_eq!(
            sim_rows.len(),
            live_rows.len(),
            "{task}: backends disagree on row count"
        );
        assert_eq!(sim_rows, live_rows, "{task}: backends disagree on rows");

        // Both engines report the same DAG.
        assert_eq!(
            operator_set(&sim),
            operator_set(&live),
            "{task}: backends disagree on the operator set"
        );

        // A fault-free live run leaves no operator behind.
        let (_, last) = live.trace.samples.last().expect("terminal sample");
        for op in last {
            assert_eq!(
                op.state,
                OperatorState::Completed,
                "{task}: operator `{}` did not complete on the live backend",
                op.name
            );
        }
    }
}

#[test]
fn dice_backends_agree() {
    assert_parity("dice", |cal, kind| {
        dice::workflow::run_workflow_on(&DiceParams::new(10, 2), cal, kind).expect("DICE runs")
    });
}

#[test]
fn wef_backends_agree() {
    assert_parity("wef", |cal, kind| {
        wef::workflow::run_workflow_on(&WefParams::new(80), cal, kind).expect("WEF runs")
    });
}

#[test]
fn gotta_backends_agree() {
    assert_parity("gotta", |cal, kind| {
        gotta::workflow::run_workflow_on(&GottaParams::new(2, 1), cal, kind).expect("GOTTA runs")
    });
}

#[test]
fn kge_backends_agree() {
    assert_parity("kge", |cal, kind| {
        kge::workflow::run_workflow_on(&KgeParams::new(600, 1), cal, kind).expect("KGE runs")
    });
}

/// The four paper tasks at sizes small enough to rerun per configuration:
/// `(name, has a standalone join, run)`.
fn small_tasks() -> [(&'static str, bool, TaskFn); 4] {
    [
        (
            "dice",
            true,
            Box::new(|cal, k| {
                dice::workflow::run_workflow_on(&DiceParams::new(6, 2), cal, k).expect("DICE runs")
            }),
        ),
        (
            "wef",
            false,
            Box::new(|cal, k| {
                wef::workflow::run_workflow_on(&WefParams::new(40), cal, k).expect("WEF runs")
            }),
        ),
        (
            "gotta",
            false,
            Box::new(|cal, k| {
                gotta::workflow::run_workflow_on(&GottaParams::new(1, 1), cal, k)
                    .expect("GOTTA runs")
            }),
        ),
        (
            // The Scala join pipeline routes the embedding join through
            // the standalone HashJoinOp — the operator that grace-
            // partitions under a budget (the default fused UDF join
            // holds its own state and never spills).
            "kge",
            true,
            Box::new(|cal, k| {
                let p = KgeParams::new(300, 1)
                    .with_fusion(3)
                    .with_join_language(Language::Scala);
                kge::workflow::run_workflow_on(&p, cal, k).expect("KGE runs")
            }),
        ),
    ]
}

/// Direct unbounded-vs-tiny-budget parity: for every paper task on both backends, a memory budget far
/// below the blocking operators' working set must change no output row
/// — and on the join-bearing tasks (DICE, KGE) it must actually force
/// spills, while the unbounded run never touches the block store.
#[test]
fn tiny_budget_changes_no_rows_on_any_task() {
    let unbounded = Calibration::paper();
    let mut tiny = Calibration::paper();
    tiny.wf_memory_budget = Some(1 << 10);
    for (task, has_join, run_on) in &small_tasks() {
        for kind in [BackendKind::Sim, BackendKind::Live] {
            let full = run_on(&unbounded, kind);
            let capped = run_on(&tiny, kind);
            // TaskRun::output is already sorted.
            assert_eq!(
                full.run.output, capped.run.output,
                "{task}/{kind}: a memory budget must not change task results"
            );
            assert_eq!(
                full.counters().spilled_blocks,
                0,
                "{task}/{kind}: the unbounded engine never spills"
            );
            if *has_join {
                assert!(
                    capped.counters().spilled_blocks > 0,
                    "{task}/{kind}: the tiny budget must force the join build side to spill"
                );
                assert!(
                    capped.counters().spilled_bytes > 0,
                    "{task}/{kind}: spilled blocks carry compressed bytes"
                );
            }
        }
    }
}

/// Direct row-vs-columnar parity: for every paper task, the sim under the
/// columnar calibration and the live engine (which picks its own layout,
/// whatever the calibration says) must produce exactly the rows the sim
/// does on row batches.
#[test]
fn columnar_mode_changes_no_rows_on_any_task() {
    let row = Calibration::paper();
    let col = Calibration::paper_columnar();
    for (task, _, run_on) in &small_tasks() {
        let r = run_on(&row, BackendKind::Sim);
        let c = run_on(&col, BackendKind::Sim);
        let live = run_on(&row, BackendKind::Live);
        // TaskRun::output is already sorted.
        for (leg, other) in [("columnar sim", &c), ("live", &live)] {
            assert_eq!(
                r.run.output, other.run.output,
                "{task}/{leg}: batch layout must not change task results"
            );
        }
        assert_eq!(
            r.counters().batches_skipped,
            0,
            "{task}: the sim's row engine never consults zone maps"
        );
        // The virtual clock must show the calibrated columnar win.
        assert!(
            c.seconds() < r.seconds(),
            "{task}: columnar sim run ({}) should beat row ({})",
            c.seconds(),
            r.seconds()
        );
    }
}

/// Direct cold-vs-warm cache parity: for every paper task on both backends, a
/// cold run against a shared [`ResultCache`] must publish (all misses),
/// the warm rerun must serve its frontier from sealed segments (hits,
/// nothing republished) — and neither may change a single row relative
/// to the cache-free run.
#[test]
fn warm_cache_rerun_changes_no_rows_on_any_task() {
    let cal = Calibration::paper();
    let tasks: [(&str, CachedTaskFn); 4] = [
        (
            "dice",
            Box::new(|k, cache| {
                let p = DiceParams::new(6, 2);
                match cache {
                    Some(c) => dice::workflow::run_workflow_cached(&p, &cal, k, c),
                    None => dice::workflow::run_workflow_on(&p, &cal, k),
                }
                .expect("DICE runs")
            }),
        ),
        (
            "wef",
            Box::new(|k, cache| {
                let p = WefParams::new(40);
                match cache {
                    Some(c) => wef::workflow::run_workflow_cached(&p, &cal, k, c),
                    None => wef::workflow::run_workflow_on(&p, &cal, k),
                }
                .expect("WEF runs")
            }),
        ),
        (
            "gotta",
            Box::new(|k, cache| {
                let p = GottaParams::new(1, 1);
                match cache {
                    Some(c) => gotta::workflow::run_workflow_cached(&p, &cal, k, c),
                    None => gotta::workflow::run_workflow_on(&p, &cal, k),
                }
                .expect("GOTTA runs")
            }),
        ),
        (
            "kge",
            Box::new(|k, cache| {
                let p = KgeParams::new(300, 1);
                match cache {
                    Some(c) => kge::workflow::run_workflow_cached(&p, &cal, k, c),
                    None => kge::workflow::run_workflow_on(&p, &cal, k),
                }
                .expect("KGE runs")
            }),
        ),
    ];
    for (task, run_on) in &tasks {
        for kind in [BackendKind::Sim, BackendKind::Live] {
            let baseline = run_on(kind, None);
            let cache = Arc::new(ResultCache::new());
            let cold = run_on(kind, Some(&cache));
            let warm = run_on(kind, Some(&cache));
            // TaskRun::output is already sorted.
            assert_eq!(
                baseline.run.output, cold.run.output,
                "{task}/{kind}: a recording cold run must not change task results"
            );
            assert_eq!(
                baseline.run.output, warm.run.output,
                "{task}/{kind}: a served warm rerun must not change task results"
            );
            assert_eq!(
                cold.counters().cache_hits,
                0,
                "{task}/{kind}: an empty cache cannot hit"
            );
            assert!(
                cold.cache_published > 0,
                "{task}/{kind}: the cold run must publish sealed segments"
            );
            assert!(
                warm.counters().cache_hits > 0,
                "{task}/{kind}: the warm rerun must serve from the cache"
            );
            assert_eq!(
                warm.cache_published, 0,
                "{task}/{kind}: a fully-warm rerun republishes nothing"
            );
        }
    }
}

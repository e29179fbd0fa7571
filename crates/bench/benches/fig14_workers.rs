//! Criterion bench: the Fig. 14 worker-scaling experiments (DICE @200
//! pairs, GOTTA @4 paragraphs, KGE @68k products; 1/2/4 workers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scriptflow_core::Calibration;
use scriptflow_tasks::dice::{self, DiceParams};
use scriptflow_tasks::gotta::{self, GottaParams};
use scriptflow_tasks::kge::{self, KgeParams};
use std::hint::black_box;

const WORKERS: [usize; 3] = [1, 2, 4];

fn fig14a_dice(c: &mut Criterion) {
    let cal = Calibration::paper();
    let mut g = c.benchmark_group("fig14a_dice_workers");
    g.sample_size(10);
    for w in WORKERS {
        g.bench_with_input(BenchmarkId::new("script", w), &w, |b, &w| {
            b.iter(|| dice::script::run_script(black_box(&DiceParams::new(200, w)), &cal).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("workflow", w), &w, |b, &w| {
            b.iter(|| {
                dice::workflow::run_workflow(black_box(&DiceParams::new(200, w)), &cal).unwrap()
            })
        });
    }
    g.finish();
}

fn fig14b_gotta(c: &mut Criterion) {
    let cal = Calibration::paper();
    let mut g = c.benchmark_group("fig14b_gotta_workers");
    g.sample_size(10);
    for w in WORKERS {
        g.bench_with_input(BenchmarkId::new("script", w), &w, |b, &w| {
            b.iter(|| gotta::script::run_script(black_box(&GottaParams::new(4, w)), &cal).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("workflow", w), &w, |b, &w| {
            b.iter(|| {
                gotta::workflow::run_workflow(black_box(&GottaParams::new(4, w)), &cal).unwrap()
            })
        });
    }
    g.finish();
}

fn fig14c_kge(c: &mut Criterion) {
    let cal = Calibration::paper();
    let mut g = c.benchmark_group("fig14c_kge_workers");
    g.sample_size(10);
    for w in WORKERS {
        g.bench_with_input(BenchmarkId::new("script", w), &w, |b, &w| {
            b.iter(|| kge::script::run_script(black_box(&KgeParams::new(68_000, w)), &cal).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("workflow", w), &w, |b, &w| {
            b.iter(|| {
                kge::workflow::run_workflow(
                    black_box(&KgeParams::new(68_000, w).with_fusion(3)),
                    &cal,
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, fig14a_dice, fig14b_gotta, fig14c_kge);
criterion_main!(benches);

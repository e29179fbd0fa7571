//! Criterion bench: the Fig. 13 dataset-scaling experiments.
//!
//! Each bench regenerates one paper data point (both paradigms). The
//! virtual times are deterministic; Criterion measures how long the
//! harness takes to simulate + really-execute the task, guarding the
//! engines against performance regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scriptflow_core::Calibration;
use scriptflow_tasks::dice::{self, DiceParams};
use scriptflow_tasks::gotta::{self, GottaParams};
use scriptflow_tasks::kge::{self, KgeParams};
use scriptflow_tasks::wef::{self, WefParams};
use std::hint::black_box;

fn fig13a_dice(c: &mut Criterion) {
    let cal = Calibration::paper();
    let mut g = c.benchmark_group("fig13a_dice");
    g.sample_size(10);
    for pairs in [10usize, 200] {
        g.bench_with_input(BenchmarkId::new("script", pairs), &pairs, |b, &n| {
            b.iter(|| dice::script::run_script(black_box(&DiceParams::new(n, 1)), &cal).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("workflow", pairs), &pairs, |b, &n| {
            b.iter(|| {
                dice::workflow::run_workflow(black_box(&DiceParams::new(n, 1)), &cal).unwrap()
            })
        });
    }
    g.finish();
}

fn fig13b_wef(c: &mut Criterion) {
    let cal = Calibration::paper();
    let mut g = c.benchmark_group("fig13b_wef");
    g.sample_size(10);
    for tweets in [200usize, 400] {
        g.bench_with_input(BenchmarkId::new("script", tweets), &tweets, |b, &n| {
            b.iter(|| wef::script::run_script(black_box(&WefParams::new(n)), &cal).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("workflow", tweets), &tweets, |b, &n| {
            b.iter(|| wef::workflow::run_workflow(black_box(&WefParams::new(n)), &cal).unwrap())
        });
    }
    g.finish();
}

fn fig13c_kge(c: &mut Criterion) {
    let cal = Calibration::paper();
    let mut g = c.benchmark_group("fig13c_kge");
    g.sample_size(10);
    for products in [6_800usize, 68_000] {
        g.bench_with_input(BenchmarkId::new("script", products), &products, |b, &n| {
            b.iter(|| kge::script::run_script(black_box(&KgeParams::new(n, 1)), &cal).unwrap())
        });
        g.bench_with_input(
            BenchmarkId::new("workflow", products),
            &products,
            |b, &n| {
                b.iter(|| {
                    kge::workflow::run_workflow(
                        black_box(&KgeParams::new(n, 1).with_fusion(3)),
                        &cal,
                    )
                    .unwrap()
                })
            },
        );
    }
    g.finish();
}

fn fig13d_gotta(c: &mut Criterion) {
    let cal = Calibration::paper();
    let mut g = c.benchmark_group("fig13d_gotta");
    g.sample_size(10);
    for paragraphs in [1usize, 16] {
        g.bench_with_input(
            BenchmarkId::new("script", paragraphs),
            &paragraphs,
            |b, &n| {
                b.iter(|| {
                    gotta::script::run_script(black_box(&GottaParams::new(n, 1)), &cal).unwrap()
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("workflow", paragraphs),
            &paragraphs,
            |b, &n| {
                b.iter(|| {
                    gotta::workflow::run_workflow(black_box(&GottaParams::new(n, 1)), &cal).unwrap()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, fig13a_dice, fig13b_wef, fig13c_kge, fig13d_gotta);
criterion_main!(benches);

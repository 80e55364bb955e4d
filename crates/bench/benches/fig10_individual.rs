//! Figure 10 — individual query execution time for the most expensive
//! queries of the JOB-like workload, baseline versus BQO plans.

use bqo_core::experiment::{run_workload, ExperimentOptions};
use bqo_core::workloads::{job_like, Scale};
use bqo_core::{Engine, OptimizerChoice, RunOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_fig10(c: &mut Criterion) {
    let workload = job_like::generate(Scale(0.03), 9, 2);
    let report = run_workload(&workload, ExperimentOptions::default()).unwrap();
    let expensive: Vec<String> = report
        .sorted_by_baseline_cost()
        .into_iter()
        .take(3)
        .map(|q| q.name.clone())
        .collect();
    let engine = Engine::from_catalog(workload.catalog.clone());
    let session = engine.session();

    let mut group = c.benchmark_group("fig10_individual");
    group.sample_size(10);
    for name in &expensive {
        let query = workload.queries.iter().find(|q| &q.name == name).unwrap();
        let baseline = engine.prepare(query, OptimizerChoice::Baseline).unwrap();
        let bqo = engine.prepare(query, OptimizerChoice::Bqo).unwrap();
        group.bench_with_input(BenchmarkId::new("original", name), query, |b, _| {
            b.iter(|| {
                black_box(
                    session
                        .execute(&baseline, RunOptions::new())
                        .unwrap()
                        .result
                        .output_rows,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("bqo", name), query, |b, _| {
            b.iter(|| {
                black_box(
                    session
                        .execute(&bqo, RunOptions::new())
                        .unwrap()
                        .result
                        .output_rows,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);

//! Plan-cache serving profile — cold prepare (the optimizer runs on every
//! request) versus cache-hit bind+run of a parameterized star query (the
//! optimizer is skipped; binding only re-derives selectivities and fetches
//! the cached plan).

use bqo_bench::prelude::{CacheStatus, Engine, ExecConfig, OptimizerChoice, Params, RunOptions};
use bqo_core::workloads::{star, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_plan_cache(c: &mut Criterion) {
    let num_dims = 4;
    let engine = Engine::from_catalog(star::build_catalog(Scale(0.05), num_dims, 31));
    let session = engine.session().with_exec_config(ExecConfig::default());
    let template = star::build_param_query("cached_star", num_dims, &[num_dims - 1]);
    let param = format!("bound{}", num_dims - 1);
    let params = |bound: i64| Params::new().set(&*param, bound);

    let mut group = c.benchmark_group("fig_plan_cache");
    group.sample_size(10);

    // Cold path: the cache is emptied before every bind, so each request
    // pays graph resolution + full optimization.
    group.bench_function("cold_prepare", |b| {
        b.iter(|| {
            engine.plan_cache().clear();
            let stmt = engine
                .bind(&template, &params(2), OptimizerChoice::Bqo)
                .unwrap();
            assert_eq!(stmt.cache_status(), CacheStatus::Miss);
            black_box(stmt)
        })
    });

    // Warm path: a sibling bind inside the stored envelope is served from
    // the cache — bind-time work is statistics re-derivation only.
    engine
        .bind(&template, &params(2), OptimizerChoice::Bqo)
        .unwrap();
    group.bench_function("cache_hit_bind", |b| {
        b.iter(|| {
            let stmt = engine
                .bind(&template, &params(3), OptimizerChoice::Bqo)
                .unwrap();
            assert_eq!(stmt.cache_status(), CacheStatus::Hit);
            black_box(stmt)
        })
    });
    group.bench_function("cache_hit_bind_and_run", |b| {
        b.iter(|| {
            let stmt = engine
                .bind(&template, &params(3), OptimizerChoice::Bqo)
                .unwrap();
            black_box(
                session
                    .execute(&stmt, RunOptions::new())
                    .unwrap()
                    .result
                    .output_rows,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_plan_cache);
criterion_main!(benches);

//! Serving throughput — the persistent worker pool vs per-section scoped
//! spawns on small-query traffic, and `Server` burst submission under a
//! saturating vs an admission-limited concurrency cap.
//!
//! Small queries are simulated with `parallel_threshold = 64` and
//! `num_threads = 4`: every query opens several parallel sections, so the
//! fixed cost per section (thread spawn vs pool unpark) dominates the probe
//! work. The acceptance target is the persistent pool beating scoped spawns
//! on this stream; `cargo run -p bqo-bench --bin reproduce --
//! serving_throughput` prints the measured ratio.

use bqo_core::exec::ExecConfig;
use bqo_core::workloads::{star, Scale};
use bqo_core::{Engine, OptimizerChoice, Request, RunOptions, Server, ServerConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const REQUESTS: usize = 16;

fn bench_serving_throughput(c: &mut Criterion) {
    let workload = star::generate(Scale(0.05), 3, 2, 33);
    let config = ExecConfig::default()
        .with_num_threads(4)
        .with_parallel_threshold(64);

    let mut group = c.benchmark_group("fig_serving_throughput");
    group.sample_size(10);

    // Part 1: the same request stream through a session, helper workers
    // spawned per section (worker_threads(0) disables the pool) vs drawn
    // from the engine's persistent pool.
    let mut expected: Option<u64> = None;
    for (label, pool_workers) in [
        ("exec/scoped_spawns", Some(0)),
        ("exec/persistent_pool", None),
    ] {
        let mut builder = Engine::builder()
            .catalog(workload.catalog.clone())
            .exec_config(config);
        if let Some(workers) = pool_workers {
            builder = builder.worker_threads(workers);
        }
        let engine = builder.build().expect("engine builds");
        let session = engine.session();
        let prepared: Vec<_> = workload
            .queries
            .iter()
            .map(|q| engine.prepare(q, OptimizerChoice::Bqo).unwrap())
            .collect();
        let rows: u64 = (0..REQUESTS)
            .map(|i| {
                session
                    .execute(&prepared[i % prepared.len()], RunOptions::new())
                    .unwrap()
                    .result
                    .output_rows
            })
            .sum();
        match expected {
            Some(expected) => assert_eq!(rows, expected, "{label} changed the answers"),
            None => expected = Some(rows),
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(
                    (0..REQUESTS)
                        .map(|i| {
                            session
                                .execute(&prepared[i % prepared.len()], RunOptions::new())
                                .unwrap()
                                .result
                                .output_rows
                        })
                        .sum::<u64>(),
                )
            })
        });
    }
    let expected = expected.expect("execution modes ran");

    // Part 2: the same burst through the Server front end — saturating
    // concurrency vs an admission-limited cap over one shared engine.
    let engine = Engine::builder()
        .catalog(workload.catalog.clone())
        .exec_config(config)
        .build()
        .expect("engine builds");
    for (label, max_concurrent) in [
        ("submit/saturating_8", 8),
        ("submit/admission_limited_2", 2),
    ] {
        let server = Server::new(
            engine.clone(),
            ServerConfig::default()
                .with_max_concurrent_queries(max_concurrent)
                .with_queue_capacity(REQUESTS),
        );
        group.bench_function(label, |b| {
            b.iter(|| {
                let tickets: Vec<_> = (0..REQUESTS)
                    .map(|i| {
                        let request = Request::builder()
                            .query(&workload.queries[i % workload.queries.len()])
                            .optimizer(OptimizerChoice::Bqo)
                            .build()
                            .expect("request is well-formed");
                        server
                            .submit(request)
                            .expect("queue capacity covers the burst")
                    })
                    .collect();
                let rows: u64 = tickets
                    .into_iter()
                    .map(|t| t.wait().expect("serves").result.output_rows)
                    .sum();
                assert_eq!(rows, expected, "{label} changed the answers");
                black_box(rows)
            })
        });
        server.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_serving_throughput);
criterion_main!(benches);

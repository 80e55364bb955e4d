//! Runtime tests for the persistent `bqo_exec::WorkerPool` behind the
//! pool-backed executor: shutdown/drop idempotence, panic containment, and
//! bit-identical execution against the serial and scoped-spawn paths when the
//! pool supplies the helper workers.

use bqo_core::exec::pool::WorkerPool;
use bqo_core::exec::{morsels, run_morsels, run_morsels_with, ExecConfig};
use bqo_core::workloads::{star, Scale};
use bqo_core::{Engine, OptimizerChoice, RunOptions};
use bqo_integration_tests::env_threads;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn pool_shutdown_and_drop_are_idempotent() {
    let pool = WorkerPool::new(2);
    let clone = pool.clone();
    assert_eq!(pool.num_workers(), 2);
    pool.shutdown();
    pool.shutdown(); // second explicit shutdown is a no-op
    clone.shutdown(); // via a clone too
    assert_eq!(clone.num_workers(), 0);
    // Work after shutdown degrades to the caller's inline copy.
    let runs = AtomicUsize::new(0);
    clone.run_mirrored(4, &|| {
        runs.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(runs.load(Ordering::Relaxed), 1);
    drop(pool); // drop after shutdown: no double-join, no hang
    drop(clone);
}

#[test]
fn dropping_the_last_handle_joins_the_workers() {
    // No explicit shutdown: the implicit one on the last drop must join the
    // parked threads without hanging (this test times out otherwise).
    let pool = WorkerPool::new(3);
    let sum = AtomicUsize::new(0);
    pool.run_mirrored(3, &|| {
        sum.fetch_add(1, Ordering::Relaxed);
    });
    // The caller's copy always runs; helper copies may be withdrawn when the
    // caller finishes first.
    let runs = sum.load(Ordering::Relaxed);
    assert!((1..=4).contains(&runs), "{runs}");
    let clone = pool.clone();
    drop(pool);
    // The pool survives as long as any handle does.
    assert_eq!(clone.num_workers(), 3);
    drop(clone);
}

#[test]
fn kernel_panics_propagate_and_workers_survive() {
    let pool = WorkerPool::new(2);
    let ms = morsels(256, 1);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_morsels_with(Some(&pool), None, 3, &ms, |m| {
            if m.index == 200 {
                panic!("poisoned morsel");
            }
            m.len()
        })
    }));
    assert!(outcome.is_err(), "kernel panic must reach the caller");
    // The pool is still fully operational for the next section.
    assert_eq!(pool.num_workers(), 2);
    let ok =
        run_morsels_with(Some(&pool), None, 3, &ms, |m| m.len()).expect("no cancel token attached");
    assert_eq!(ok.len(), ms.len());
    pool.shutdown();
}

#[test]
fn pooled_morsel_runs_match_serial_and_scoped() {
    let pool = WorkerPool::new(3);
    let ms = morsels(10_000, 17);
    let serial = run_morsels(1, &ms, |m| m.rows().map(|r| r * r).sum::<usize>());
    for threads in [2usize, 4, env_threads().max(2)] {
        let scoped = run_morsels(threads, &ms, |m| m.rows().map(|r| r * r).sum::<usize>());
        let pooled = run_morsels_with(Some(&pool), None, threads, &ms, |m| {
            m.rows().map(|r| r * r).sum::<usize>()
        })
        .expect("no cancel token attached");
        assert_eq!(serial, scoped, "scoped threads {threads}");
        assert_eq!(serial, pooled, "pooled threads {threads}");
    }
}

#[test]
fn engine_pool_is_shared_lazy_and_query_results_are_identical() {
    let workload = star::generate(Scale(0.02), 3, 2, 19);
    let engine = Engine::from_catalog(workload.catalog);
    let session = engine.session();
    let threads = env_threads().max(4);

    for query in &workload.queries {
        let stmt = engine.prepare(query, OptimizerChoice::Bqo).unwrap();
        let serial = session
            .execute(&stmt, RunOptions::new().collecting_rows())
            .unwrap();
        // Forced fan-out on every section (threshold 1) through the
        // engine-owned pool must reproduce the serial run bit for bit.
        let config = ExecConfig::default()
            .with_num_threads(threads)
            .with_parallel_threshold(1);
        let out = session
            .execute(
                &stmt,
                RunOptions::new().with_exec_config(config).collecting_rows(),
            )
            .unwrap();
        assert_eq!(
            out.result.output_rows, serial.result.output_rows,
            "{}",
            query.name
        );
        assert_eq!(
            out.result.metrics.operators,
            serial.result.metrics.operators
        );
        assert_eq!(
            out.result.metrics.filter_stats,
            serial.result.metrics.filter_stats
        );
        assert_eq!(out.rows, serial.rows, "{}", query.name);
    }

    // The pool was spawned lazily by the parallel runs above and is shared:
    // every engine clone sees the same workers.
    assert!(engine.worker_pool().num_workers() >= 3);
    let clone = engine.clone();
    assert_eq!(
        clone.worker_pool().num_workers(),
        engine.worker_pool().num_workers()
    );
}

#[test]
fn concurrent_sessions_share_the_engine_pool() {
    let workload = star::generate(Scale(0.02), 2, 1, 23);
    let engine = Arc::new(Engine::from_catalog(workload.catalog));
    let query = &workload.queries[0];
    let stmt = Arc::new(engine.prepare(query, OptimizerChoice::Bqo).unwrap());
    let expected = engine
        .session()
        .execute(&stmt, RunOptions::new())
        .unwrap()
        .result
        .output_rows;

    let clients = env_threads().max(4);
    std::thread::scope(|scope| {
        for worker in 0..clients {
            let engine = Arc::clone(&engine);
            let stmt = Arc::clone(&stmt);
            scope.spawn(move || {
                let config = ExecConfig::default()
                    .with_num_threads(2 + worker % 3)
                    .with_parallel_threshold(1)
                    .with_batch_size(119 + worker * 61);
                let session = engine.session().with_exec_config(config);
                for _ in 0..5 {
                    assert_eq!(
                        session
                            .execute(&stmt, RunOptions::new())
                            .unwrap()
                            .result
                            .output_rows,
                        expected
                    );
                }
            });
        }
    });
}

#[test]
fn worker_threads_zero_disables_the_pool_but_not_parallelism() {
    let workload = star::generate(Scale(0.02), 2, 1, 29);
    let engine = Engine::builder()
        .catalog(workload.catalog)
        .worker_threads(0)
        .build()
        .unwrap();
    assert_eq!(engine.worker_pool().num_workers(), 0);
    let stmt = engine
        .prepare(&workload.queries[0], OptimizerChoice::Bqo)
        .unwrap();
    let session = engine.session();
    let serial = session
        .execute(&stmt, RunOptions::new().collecting_rows())
        .unwrap();
    // Parallel runs fall back to scoped spawns and stay bit-identical.
    let out = session
        .execute(
            &stmt,
            RunOptions::new()
                .with_exec_config(
                    ExecConfig::default()
                        .with_num_threads(4)
                        .with_parallel_threshold(1),
                )
                .collecting_rows(),
        )
        .unwrap();
    assert_eq!(out.result.output_rows, serial.result.output_rows);
    assert_eq!(out.rows, serial.rows);
}

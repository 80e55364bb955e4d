//! Differential-testing oracle harness for morsel-driven parallel execution.
//!
//! Every workload query is executed once by the row-at-a-time **reference
//! executor** (`bqo_integration_tests::reference`, no batches, morsels or
//! word-level probes) as the **oracle**, then by the product pipeline
//! across the full `{1, 2, 4, 8} × {1, 7, 1024, usize::MAX}` thread/batch
//! matrix (plus the `BQO_TEST_THREADS` CI override). Each cell must
//! reproduce the oracle **bit for bit**: the concatenated output rows, the
//! per-operator counter list, and every aggregate filter counter. A single
//! probe counted twice, a row emitted out of order, a morsel dropped by the
//! scheduler, or a word-probe tail bit miscounted fails this harness.

use bqo_core::exec::ExecConfig;
use bqo_core::workloads::{star, tpcds_like, Scale};
use bqo_core::{Engine, OptimizerChoice, QuerySpec, RunOptions};
use bqo_integration_tests::{env_threads, reference};

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];
const BATCH_MATRIX: [usize; 4] = [1, 7, 1024, usize::MAX];

/// Thread counts under test: the fixed matrix plus the CI environment
/// override, deduplicated.
fn thread_counts() -> Vec<usize> {
    let mut threads = THREAD_MATRIX.to_vec();
    let env = env_threads();
    if !threads.contains(&env) {
        threads.push(env);
    }
    threads
}

/// Runs every query of a workload under every optimizer choice through the
/// whole thread/batch matrix and asserts bit-identical rows and counters
/// against the reference executor.
fn assert_parallel_matches_serial_oracle(
    engine: &Engine,
    queries: &[QuerySpec],
    choices: &[OptimizerChoice],
    base: ExecConfig,
) {
    let session = engine.session();
    for query in queries {
        for &choice in choices {
            let prepared = engine.prepare(query, choice).unwrap();
            let oracle =
                reference::execute(engine.catalog(), prepared.graph(), prepared.plan(), base)
                    .unwrap();
            for &num_threads in &thread_counts() {
                for &batch_size in &BATCH_MATRIX {
                    let config = base
                        .with_batch_size(batch_size)
                        .with_num_threads(num_threads);
                    let out = session
                        .execute(
                            &prepared,
                            RunOptions::new().with_exec_config(config).collecting_rows(),
                        )
                        .unwrap();
                    let label = format!(
                        "{} / {:?} / threads {num_threads} / batch {batch_size}",
                        query.name, choice
                    );
                    oracle.assert_matches(&out.result, &out.rows.unwrap(), &label);
                }
            }
        }
    }
}

/// TPC-DS-like snowstorm of PKFK joins, both optimizers, default (bitmap)
/// filters.
#[test]
fn tpcds_like_matrix_matches_serial_oracle() {
    let workload = tpcds_like::generate(Scale(0.02), 3, 17);
    let engine = Engine::from_catalog(workload.catalog);
    assert_parallel_matches_serial_oracle(
        &engine,
        &workload.queries,
        &[OptimizerChoice::Baseline, OptimizerChoice::Bqo],
        ExecConfig::default(),
    );
}

/// Star workload with exact filters, and a decoupled morsel size smaller
/// than most batch sizes so scan morsels and batch boundaries disagree.
#[test]
fn star_matrix_matches_serial_oracle_with_exact_filters() {
    let workload = star::generate(Scale(0.02), 3, 2, 42);
    let engine = Engine::from_catalog(workload.catalog);
    assert_parallel_matches_serial_oracle(
        &engine,
        &workload.queries,
        &[OptimizerChoice::Bqo],
        ExecConfig::exact_filters().with_morsel_size(64),
    );
}

/// Bitvectors disabled: the parallel path must also be a no-op-filter
/// bit-identical reproduction (probe loops still fan out across morsels).
#[test]
fn star_matrix_matches_serial_oracle_without_bitvectors() {
    let workload = star::generate(Scale(0.02), 3, 1, 7);
    let engine = Engine::from_catalog(workload.catalog);
    assert_parallel_matches_serial_oracle(
        &engine,
        &workload.queries,
        &[OptimizerChoice::BaselineNoBitvectors],
        ExecConfig::without_bitvectors(),
    );
}

/// An empty-result query (impossible predicate) must stay empty — with the
/// schema-carrying empty batch — for every matrix cell.
#[test]
fn empty_results_survive_the_matrix() {
    use bqo_core::{ColumnPredicate, CompareOp};
    let workload = star::generate(Scale(0.02), 2, 1, 3);
    let engine = Engine::from_catalog(workload.catalog);
    let query = star::build_query("empty_q", 2, &[(0, 1)]).predicate(
        "dim0",
        ColumnPredicate::new("dim0_category", CompareOp::Lt, -1i64),
    );
    assert_parallel_matches_serial_oracle(
        &engine,
        &[query],
        &[OptimizerChoice::Bqo, OptimizerChoice::Baseline],
        ExecConfig::default(),
    );
}

//! File-driven SQL conformance harness.
//!
//! Every `tests/slt/*.slt` case is executed three ways — through the SQL
//! frontend (`Engine::prepare_sql` / `Engine::bind_sql`), through a
//! hand-built [`QuerySpec`] oracle, and through a **file-registered** mini
//! warehouse (every table written to a `.bqo` file and scanned out of
//! core) — at 1 and 4 worker threads. The row-at-a-time reference executor
//! (`bqo_integration_tests::reference`) runs the spec's plan once over the
//! memory and once over the disk catalog. The harness asserts, per case:
//!
//! * the lowered SQL and the oracle spec have the same plan-cache
//!   fingerprint;
//! * all three executions reproduce the reference **bit for bit** (same
//!   column order, row order and cells; same per-operator counters,
//!   `FilterStats` and filter count) at each thread count — and the
//!   disk-backed run actually streamed file chunks;
//! * the reference's canonical row rendering, and the product's at every
//!   thread count, match the rows recorded in the file;
//! * preparing the same SQL a second time on the same engine is a plan-cache
//!   **hit**;
//! * error cases fail to prepare with a diagnostic containing the recorded
//!   substring.
//!
//! Run with `BQO_SLT_BLESS=1` to rewrite the expected rows in every `.slt`
//! file from the spec oracle's actual output (useful when adding cases).

use bqo_core::{
    CacheStatus, Engine, ExecConfig, OptimizerChoice, Params, PreparedStatement, QueryPhase,
    Request, RunOptions, Server, ServerConfig,
};
use bqo_integration_tests::mini::{mini_catalog, mini_catalog_on_disk};
use bqo_integration_tests::reference;
use bqo_integration_tests::slt::{canonical_rows, SltCase, SltExpect, SltFile};
use std::path::{Path, PathBuf};

const THREAD_COUNTS: [usize; 2] = [1, 4];

fn slt_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("slt")
}

fn slt_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(slt_dir())
        .expect("tests/slt directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "slt"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 8,
        "expected at least 8 .slt files, found {}",
        files.len()
    );
    files
}

fn bless() -> bool {
    std::env::var_os("BQO_SLT_BLESS").is_some()
}

/// Runs one query case; returns the canonical rows actually produced (used
/// by bless mode).
fn run_query_case(ctx: &str, case: &SltCase) -> Vec<String> {
    let SltExpect::Query { spec, binds, rows } = &case.expect else {
        unreachable!("caller filters on query cases");
    };
    let catalog = mini_catalog();
    let sql_engine = Engine::from_catalog(catalog.clone());
    let spec_engine = Engine::from_catalog(catalog);
    let file_engine = Engine::from_catalog(mini_catalog_on_disk());
    let params = binds
        .iter()
        .fold(Params::new(), |p, (n, v)| p.set(n.clone(), v.clone()));

    // The SQL must lower to the oracle spec's plan-cache identity.
    let lowered = sql_engine
        .parse_sql(&case.sql)
        .unwrap_or_else(|e| panic!("{ctx}: SQL failed to lower: {e}"));
    assert_eq!(
        lowered.fingerprint(),
        spec.fingerprint(),
        "{ctx}: lowered SQL and oracle spec disagree on fingerprint"
    );

    let prepare = |engine: &Engine| -> PreparedStatement {
        if binds.is_empty() {
            engine.prepare(spec, OptimizerChoice::Bqo)
        } else {
            engine.bind(spec, &params, OptimizerChoice::Bqo)
        }
        .unwrap_or_else(|e| panic!("{ctx}: oracle prepare failed: {e}"))
    };
    let reference_for = |engine: &Engine, stmt: &PreparedStatement| {
        reference::execute(
            engine.catalog(),
            stmt.graph(),
            stmt.plan(),
            ExecConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{ctx}: reference execution failed: {e}"))
    };
    let spec_stmt = prepare(&spec_engine);
    let file_stmt = prepare(&file_engine);
    let memory_ref = reference_for(&spec_engine, &spec_stmt);
    let disk_ref = reference_for(&file_engine, &file_stmt);
    // Registering the tables through their files changes where rows are
    // read from, and nothing else.
    assert_eq!(
        disk_ref, memory_ref,
        "{ctx}: disk and memory references differ"
    );
    let expected = canonical_rows(spec_stmt.graph(), &memory_ref.rows);
    if !bless() {
        assert_eq!(
            &expected, rows,
            "{ctx}: reference rows differ from the .slt expectation \
             (run with BQO_SLT_BLESS=1 to re-bless)"
        );
    }

    for threads in THREAD_COUNTS {
        let config = ExecConfig::default().with_num_threads(threads);
        let run = RunOptions::new().with_exec_config(config).collecting_rows();
        let sql_stmt = if binds.is_empty() {
            sql_engine.prepare_sql(&case.sql, OptimizerChoice::Bqo)
        } else {
            sql_engine.bind_sql(&case.sql, &params, OptimizerChoice::Bqo)
        }
        .unwrap_or_else(|e| panic!("{ctx}: SQL prepare failed: {e}"));
        let cell = format!("{ctx} at {threads} thread(s)");
        for (leg, engine, stmt, oracle) in [
            ("SQL", &sql_engine, &sql_stmt, &memory_ref),
            ("spec", &spec_engine, &spec_stmt, &memory_ref),
            ("disk-backed", &file_engine, &file_stmt, &disk_ref),
        ] {
            let out = engine
                .session()
                .execute(stmt, run.clone())
                .unwrap_or_else(|e| panic!("{cell}: {leg} execution failed: {e}"));
            let rows = out.rows.expect("collected rows");
            oracle.assert_matches(&out.result, &rows, &format!("{cell}, {leg} leg"));
            assert_eq!(
                canonical_rows(stmt.graph(), &rows),
                expected,
                "{cell}: {leg} canonical rows changed"
            );
            // Every chunk of a file-backed table was either fetched or
            // zone-map pruned (a case with an impossible predicate can
            // legitimately prune them all); memory legs touch no chunks.
            let chunks = out.result.metrics.chunks_read + out.result.metrics.chunks_pruned;
            assert_eq!(
                chunks > 0,
                leg == "disk-backed",
                "{cell}: {leg} leg visited {chunks} chunks"
            );
        }

        // Same SQL again on the same engine: must be served from the cache.
        let again = if binds.is_empty() {
            sql_engine
                .prepare_sql(&case.sql, OptimizerChoice::Bqo)
                .unwrap()
        } else {
            sql_engine
                .bind_sql(&case.sql, &params, OptimizerChoice::Bqo)
                .unwrap()
        };
        assert_eq!(
            again.cache_status(),
            CacheStatus::Hit,
            "{cell}: re-preparing identical SQL missed the plan cache"
        );
    }
    expected
}

fn run_error_case(ctx: &str, case: &SltCase) {
    let SltExpect::Error { needle } = &case.expect else {
        unreachable!("caller filters on error cases");
    };
    let engine = Engine::from_catalog(mini_catalog());
    let err = match engine.prepare_sql(&case.sql, OptimizerChoice::Bqo) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("{ctx}: expected an error containing `{needle}`, but prepare succeeded"),
    };
    assert!(
        err.contains(needle),
        "{ctx}: error does not contain `{needle}`; actual error:\n{err}"
    );
}

#[test]
fn slt_conformance() {
    let mut total = 0usize;
    for path in slt_files() {
        let text = std::fs::read_to_string(&path).expect("read .slt file");
        let mut file = SltFile::parse(&text)
            .unwrap_or_else(|e| panic!("{}: parse error: {e}", path.display()));
        assert!(
            !file.cases.is_empty(),
            "{}: no cases in file",
            path.display()
        );
        let mut blessed = Vec::new();
        for case in &file.cases {
            let ctx = format!("{}::{}", path.display(), case.name);
            match &case.expect {
                SltExpect::Query { .. } => blessed.push(Some(run_query_case(&ctx, case))),
                SltExpect::Error { .. } => {
                    run_error_case(&ctx, case);
                    blessed.push(None);
                }
            }
            total += 1;
        }
        if bless() {
            for (case, actual) in file.cases.iter_mut().zip(blessed) {
                if let (SltExpect::Query { rows, .. }, Some(actual)) = (&mut case.expect, actual) {
                    *rows = actual;
                }
            }
            let rendered = file.render();
            if rendered != text {
                std::fs::write(&path, rendered).expect("write blessed .slt file");
                eprintln!("blessed {}", path.display());
            }
        }
    }
    assert!(total >= 8, "expected at least 8 cases total, ran {total}");
}

// ---------------------------------------------------------------------------
// Engine- and server-level behavior of the SQL entry points, beyond what the
// file-driven cases check.
// ---------------------------------------------------------------------------

const TWO_PRED_SQL: &str = "SELECT * FROM sales JOIN item ON sales.item_sk = item.item_sk \
                            WHERE item.price > 4.0 AND sales.qty < 3";

/// The same query modulo literal order (and whitespace) must normalize to
/// one plan-cache fingerprint: the second prepare is a hit.
#[test]
fn reordered_predicates_are_one_cache_entry() {
    let engine = Engine::from_catalog(mini_catalog());
    let first = engine
        .prepare_sql(TWO_PRED_SQL, OptimizerChoice::Bqo)
        .unwrap();
    assert_eq!(first.cache_status(), CacheStatus::Miss);
    let reordered = "SELECT  *  FROM sales JOIN item ON sales.item_sk = item.item_sk \
                     WHERE sales.qty < 3 AND item.price > 4.0";
    let second = engine.prepare_sql(reordered, OptimizerChoice::Bqo).unwrap();
    assert_eq!(
        second.cache_status(),
        CacheStatus::Hit,
        "reordered WHERE literals should hit the cached plan"
    );
}

/// A parameterized SQL template is one cache entry: re-binding the same
/// value is a hit, and the template fingerprint is bind-value independent.
#[test]
fn sql_template_binds_share_one_cache_entry() {
    let engine = Engine::from_catalog(mini_catalog());
    let sql = "SELECT * FROM sales JOIN store ON sales.store_sk = store.store_sk \
               WHERE store.region = $region";
    let params = Params::new().set("region", 20i64);
    let first = engine.bind_sql(sql, &params, OptimizerChoice::Bqo).unwrap();
    assert_eq!(first.cache_status(), CacheStatus::Miss);
    let second = engine.bind_sql(sql, &params, OptimizerChoice::Bqo).unwrap();
    assert_eq!(second.cache_status(), CacheStatus::Hit);
    // A different bind value reuses the entry (hit) or re-optimizes in
    // place when the selectivity leaves the envelope — never a fresh miss.
    let other = Params::new().set("region", 10i64);
    let third = engine.bind_sql(sql, &other, OptimizerChoice::Bqo).unwrap();
    assert_ne!(third.cache_status(), CacheStatus::Miss);
}

/// Prepared statements remember their SQL text and surface it in `explain`.
#[test]
fn prepared_statements_carry_their_sql() {
    let engine = Engine::from_catalog(mini_catalog());
    let stmt = engine
        .prepare_sql(TWO_PRED_SQL, OptimizerChoice::Bqo)
        .unwrap();
    assert_eq!(stmt.sql(), Some(TWO_PRED_SQL));
    let explain = stmt.explain();
    assert!(
        explain.contains("sql: SELECT * FROM sales"),
        "explain should lead with the SQL text:\n{explain}"
    );
    // Spec-prepared statements have no SQL text.
    let spec = engine.parse_sql(TWO_PRED_SQL).unwrap();
    let spec_stmt = engine.prepare(&spec, OptimizerChoice::Bqo).unwrap();
    assert_eq!(spec_stmt.sql(), None);
}

/// SQL failures surface as planning-phase `BqoError`s naming the query.
#[test]
fn sql_errors_surface_as_planning_errors() {
    let engine = Engine::from_catalog(mini_catalog());
    let err = engine
        .prepare_sql("SELECT * FROM nope", OptimizerChoice::Bqo)
        .unwrap_err();
    assert_eq!(err.phase(), QueryPhase::Planning);
    let msg = err.to_string();
    assert!(msg.contains("SELECT * FROM nope"), "{msg}");
    assert!(msg.contains("not found in catalog"), "{msg}");
}

/// End-to-end through the server: a `.sql(...)` request (with and without
/// params) returns the same rows as the engine-level SQL prepare.
#[test]
fn server_requests_accept_sql() {
    let engine = Engine::from_catalog(mini_catalog());
    let server = Server::new(engine.clone(), ServerConfig::default());

    let sql = "SELECT * FROM sales JOIN store ON sales.store_sk = store.store_sk \
               WHERE store.region = $region";
    let params = Params::new().set("region", 20i64);
    let ticket = server
        .submit(
            Request::builder()
                .sql(sql)
                .params(&params)
                .optimizer(OptimizerChoice::Bqo)
                .collect_rows()
                .build()
                .unwrap(),
        )
        .unwrap();
    let out = ticket.wait().unwrap();

    let oracle_stmt = engine.bind_sql(sql, &params, OptimizerChoice::Bqo).unwrap();
    let oracle = engine
        .session()
        .execute(&oracle_stmt, RunOptions::new().collecting_rows())
        .unwrap();
    assert_eq!(out.result.output_rows, oracle.result.output_rows);
    assert_eq!(out.rows, oracle.rows);
    assert!(out.cache_status.is_some());

    // Literal SQL, no params.
    let ticket = server
        .submit(
            Request::builder()
                .sql("SELECT * FROM brand WHERE brand.premium = TRUE")
                .collect_rows()
                .build()
                .unwrap(),
        )
        .unwrap();
    let out = ticket.wait().unwrap();
    assert_eq!(out.result.output_rows, 1);
    server.shutdown();
}

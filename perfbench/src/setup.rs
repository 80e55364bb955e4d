//! Set-up of the measured process: the warehouses' engines, statements and
//! servers, and the full-row check of every answer before the window.

use crate::calib;
use crate::config::{warehouse_seed, Family, RunConfig, Workload};
use crate::drive::{Counts, Outcome, PassAcc};
use crate::gate::{text_hash, Answer};
use crate::prep::{plan_text, warehouse_dir, Prep};
use crate::stats::median;
use bqo_core::format::{AccessMode, CatalogExt};
use bqo_core::{
    Catalog, Engine, ExecConfig, OptimizerChoice, PreparedStatement, QuerySpec, Request,
    RunOptions, Server, ServerConfig, Session,
};
use std::path::Path;
use std::time::Instant;

/// Scale of the catalogs `tpcds_file` generates only for their query specs
/// and key declarations; its tables come from the files.
const SCHEMA_ONLY_SCALE: f64 = 0.001;

/// `job_serve`'s server: two dispatchers, as many as there are clients.
pub fn server_config() -> ServerConfig {
    ServerConfig::default().with_max_concurrent_queries(2)
}

/// One generated warehouse, ready to serve its queries.
#[derive(Debug)]
pub struct Warehouse {
    pub engine: Engine,
    pub session: Session,
    /// `job_serve` only.
    pub server: Option<Server>,
    pub queries: Vec<Query>,
}

#[derive(Debug)]
pub struct Query {
    pub sql: String,
    /// Prepared in set-up: the statement `tpcds_*` executes, or for
    /// `job_serve` the one that warmed the plan cache (its plan and cost
    /// estimate are the ones the server's cache hits serve).
    pub stmt: Option<PreparedStatement>,
}

/// Set-up timings, one entry per repeat, scaled to the reference host speed
/// (see [`crate::calib`]).
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub write_s: Vec<f64>,
    pub open_s: Vec<f64>,
}

impl SetupTimes {
    pub fn median_total(&self) -> f64 {
        median(&self.total_s)
    }
}

/// Sets the workload up once; `repeat` picks the helper's timings for the
/// generation and `.bqo` writes of `tpcds_file`.
///
/// One timed set-up is what a user waits for before the first request: data
/// generation (for `tpcds_file` in the helper, with the `.bqo` writes),
/// opening the files, building the engines, and preparing statements or
/// warming the plan cache. One warm-up request per warehouse follows,
/// outside the timing.
pub fn set_up(
    config: &RunConfig,
    prep: &Prep,
    run_dir: &Path,
    repeat: usize,
    times: &mut SetupTimes,
) -> Result<Vec<Warehouse>, String> {
    let slowness = calib::slowness_now();
    let since = |started: Instant| started.elapsed().as_secs_f64() / slowness;
    let started = Instant::now();
    let mut helper_s = 0.0;
    let catalogs = if config.workload == Workload::TpcdsFile {
        // The helper scaled these by its own slowness.
        let &(generate_s, write_s) = prep
            .setup
            .get(repeat)
            .ok_or("the helper reported too few set-up repeats")?;
        times.generate_s.push(generate_s);
        times.write_s.push(write_s);
        helper_s = generate_s + write_s;
        let schemas = generate(config, SCHEMA_ONLY_SCALE);
        let opened = Instant::now();
        let catalogs = schemas
            .into_iter()
            .enumerate()
            .map(|(k, (schema, queries))| {
                Ok((open_files(&schema, &warehouse_dir(run_dir, k))?, queries))
            })
            .collect::<Result<Vec<_>, String>>()?;
        times.open_s.push(since(opened));
        catalogs
    } else {
        let generated = Instant::now();
        let catalogs = generate(config, config.sizes.scale);
        times.generate_s.push(since(generated));
        catalogs
    };
    let warehouses = catalogs
        .into_iter()
        .map(|(catalog, specs)| build(config.workload, catalog, specs))
        .collect::<Result<Vec<_>, String>>()?;
    times.total_s.push(helper_s + since(started));
    // Untimed: one request costs what the seed made its query cost, so it
    // would make `setup_s` follow the seed rather than the program.
    for w in &warehouses {
        if let Some(q) = w.queries.first() {
            crate::drive::request(config.workload, w, q, None)?;
        }
        if config.workload == Workload::CustomerPlan {
            w.engine.plan_cache().clear();
        }
    }
    Ok(warehouses)
}

fn generate(config: &RunConfig, scale: f64) -> Vec<(Catalog, Vec<QuerySpec>)> {
    let family: Family = config.workload.family();
    (0..config.sizes.warehouses)
        .map(|k| {
            let w = family.generate(scale, config.sizes.queries, warehouse_seed(config.seed, k));
            (w.catalog, w.queries)
        })
        .collect()
}

/// Registers the `.bqo` files in `dir` as a catalog with `schema`'s keys.
fn open_files(schema: &Catalog, dir: &Path) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    let mut names = schema.table_names();
    names.sort_unstable();
    for name in names {
        catalog
            .register_file_with(dir.join(format!("{name}.bqo")), AccessMode::Buffered)
            .map_err(|e| e.to_string())?;
        if let Some(pk) = schema.primary_key(name) {
            catalog
                .declare_primary_key(name, pk)
                .map_err(|e| e.to_string())?;
        }
    }
    for fk in schema.foreign_keys() {
        catalog
            .declare_foreign_key(fk.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(catalog)
}

fn build(workload: Workload, catalog: Catalog, specs: Vec<QuerySpec>) -> Result<Warehouse, String> {
    let threads = workload.exec_threads();
    let engine = Engine::builder()
        .catalog(catalog)
        .exec_config(ExecConfig::default().with_num_threads(threads))
        .worker_threads(threads - 1)
        .build()
        .map_err(|e| e.to_string())?;
    let mut queries = Vec::with_capacity(specs.len());
    for spec in specs {
        let sql = spec.to_sql();
        let stmt = match workload {
            Workload::TpcdsMem | Workload::TpcdsFile => {
                Some(engine.prepare(&spec, OptimizerChoice::Bqo))
            }
            Workload::JobServe => Some(engine.prepare_sql(&sql, OptimizerChoice::Bqo)),
            Workload::CustomerPlan => None,
        }
        .transpose()
        .map_err(|e| e.to_string())?;
        queries.push(Query { sql, stmt });
    }
    let server =
        (workload == Workload::JobServe).then(|| Server::new(engine.clone(), server_config()));
    Ok(Warehouse {
        session: engine.session(),
        engine,
        server,
        queries,
    })
}

/// Runs every query once after the window with row collection: compares
/// its full rows with the reference (and for `tpcds_file` its plan with the
/// plan over in-memory tables), and takes the deterministic counts of this
/// pass over every query. `tpcds_mem` and `tpcds_file` of one seed share
/// their reference, so both return exactly the same answers. Returns one
/// message per mismatch, and the counts.
pub fn check_answers(
    workload: Workload,
    warehouses: &[Warehouse],
    prep: &Prep,
) -> (Vec<String>, Counts) {
    if workload == Workload::CustomerPlan {
        // As in the window, every request of the pass misses.
        for w in warehouses {
            w.engine.plan_cache().clear();
        }
    }
    let mut mismatches = Vec::new();
    let mut pass = PassAcc::new(warehouses.len() * warehouses[0].queries.len());
    for (k, w) in warehouses.iter().enumerate() {
        for (i, q) in w.queries.iter().enumerate() {
            let label = format!("warehouse {k} query {i}");
            if text_hash(&q.sql) != prep.sql[k][i] {
                mismatches.push(format!("{label}: not the query the reference belongs to"));
                continue;
            }
            let (answer, out, stmt) = match full_answer(workload, w, q) {
                Ok(answer) => answer,
                Err(e) => {
                    mismatches.push(format!("{label}: {e}"));
                    continue;
                }
            };
            // The position of this request in the window's request order.
            pass.add(i * warehouses.len() + k, &out, stmt.estimated_cost());
            if answer != prep.reference[k][i] {
                mismatches.push(format!(
                    "{label}: {} rows (digest {:016x}), reference has {} rows (digest {:016x})",
                    answer.rows,
                    answer.digest,
                    prep.reference[k][i].rows,
                    prep.reference[k][i].digest
                ));
            }
            if workload == Workload::TpcdsFile && text_hash(&plan_text(&stmt)) != prep.plans[k][i] {
                mismatches.push(format!("{label}: file plan differs from memory plan"));
            }
        }
    }
    (mismatches, pass.finish())
}

/// Runs `q` as the workload does, with its rows collected.
fn full_answer(
    workload: Workload,
    w: &Warehouse,
    q: &Query,
) -> Result<(Answer, Outcome, PreparedStatement), String> {
    let collect = RunOptions::new().collecting_rows();
    let statement = || q.stmt.clone().ok_or("statement not prepared");
    let (out, stmt) = match workload {
        Workload::TpcdsMem | Workload::TpcdsFile | Workload::CustomerPlan => {
            let stmt = match workload {
                Workload::CustomerPlan => w
                    .engine
                    .prepare_sql(&q.sql, OptimizerChoice::Bqo)
                    .map_err(|e| e.to_string())?,
                _ => statement()?,
            };
            let out = w
                .session
                .execute(&stmt, collect)
                .map_err(|e| e.to_string())?;
            let cache = (workload == Workload::CustomerPlan).then(|| stmt.cache_status());
            (Outcome::new(out.result, out.rows, cache), stmt)
        }
        Workload::JobServe => {
            let server = w.server.as_ref().ok_or("no server")?;
            let request = Request::builder()
                .sql(q.sql.clone())
                .optimizer(OptimizerChoice::Bqo)
                .collect_rows()
                .build()
                .map_err(|e| e.to_string())?;
            let out = server
                .submit(request)
                .map_err(|e| e.to_string())?
                .wait()
                .map_err(|e| e.to_string())?;
            (
                Outcome::new(out.result, out.rows, out.cache_status),
                statement()?,
            )
        }
    };
    let rows = out.collected.as_ref().ok_or("rows were not collected")?;
    Ok((Answer::of(rows, stmt.graph()), out, stmt))
}

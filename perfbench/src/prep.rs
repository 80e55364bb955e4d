//! The helper process: generates each warehouse, writes the `.bqo` files of
//! `tpcds_file`, and computes the reference answers.
//!
//! It runs in a process of its own so that the measured process holds only
//! the workload: the reference plans, and for `tpcds_file` the in-memory
//! tables the files are written from, never count towards its peak RSS.

use crate::calib;
use crate::config::{warehouse_seed, RunConfig, Workload};
use crate::gate::{text_hash, Answer};
use bqo_core::format::write_table;
use bqo_core::{Catalog, Engine, OptimizerChoice, PreparedStatement, QuerySpec, RunOptions};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::Instant;

/// What the helper hands to the measured process, indexed
/// `[warehouse][query]`.
#[derive(Debug, Clone, Default)]
pub struct Prep {
    /// Reference answers: `OptimizerChoice::BaselineNoBitvectors` plans over
    /// in-memory tables.
    pub reference: Vec<Vec<Answer>>,
    /// Hash of each query's SQL text, so the measured process can check it
    /// runs the queries the references belong to.
    pub sql: Vec<Vec<u64>>,
    /// `tpcds_file` only: hash of each BQO plan over in-memory tables.
    pub plans: Vec<Vec<u64>>,
    /// `tpcds_file` only: (generate seconds, write seconds) per set-up
    /// repeat, at the reference host speed.
    pub setup: Vec<(f64, f64)>,
}

/// The directory warehouse `k`'s `.bqo` files live in.
pub fn warehouse_dir(run_dir: &Path, k: usize) -> PathBuf {
    run_dir.join(format!("w{k}"))
}

/// A plan's rendering with the scan backing left out, so a plan over files
/// and the same plan over memory render alike.
pub fn plan_text(stmt: &PreparedStatement) -> String {
    stmt.plan()
        .explain(stmt.graph())
        .replace("[scan=file]", "[scan=memory]")
}

/// Helper-process entry point: writes the [`Prep`] of `config` to `out`;
/// `.bqo` files go next to it.
pub fn write(config: &RunConfig, out: &Path) -> Result<(), String> {
    let run_dir = out
        .parent()
        .ok_or("--prep needs a file inside a directory")?;
    let sizes = config.sizes;
    let files = config.workload == Workload::TpcdsFile;
    let mut text = String::new();
    let mut warehouses = Vec::new();
    for _ in 0..if files { sizes.setup_repeats } else { 1 } {
        warehouses.clear();
        let slowness = calib::slowness_now();
        let started = Instant::now();
        for k in 0..sizes.warehouses {
            let seed = warehouse_seed(config.seed, k);
            warehouses.push(
                config
                    .workload
                    .family()
                    .generate(sizes.scale, sizes.queries, seed),
            );
        }
        let generate_s = started.elapsed().as_secs_f64() / slowness;
        if files {
            let started = Instant::now();
            for (k, w) in warehouses.iter().enumerate() {
                write_files(&w.catalog, &warehouse_dir(run_dir, k), sizes.chunk_rows)?;
            }
            let write_s = started.elapsed().as_secs_f64() / slowness;
            let _ = writeln!(text, "setup {generate_s} {write_s}");
        }
    }
    // Two workers, one warehouse at a time, each warehouse's lines in order.
    let mut lines = vec![String::new(); warehouses.len()];
    let slots: Vec<_> = warehouses
        .into_iter()
        .zip(lines.iter_mut())
        .enumerate()
        .collect();
    let slots = Mutex::new(slots);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    loop {
                        let Some((k, (w, out))) = slots
                            .lock()
                            .expect("no worker panics while holding it")
                            .pop()
                        else {
                            return Ok(());
                        };
                        reference_lines(k, w, files, out)?;
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|h| h.join().expect("a reference worker panicked"))
    })?;
    text.extend(lines);
    std::fs::write(out, text).map_err(|e| format!("writing {}: {e}", out.display()))
}

/// Appends the reference lines of warehouse `k` to `out`.
fn reference_lines(
    k: usize,
    w: bqo_core::workloads::Workload,
    files: bool,
    out: &mut String,
) -> Result<(), String> {
    let engine = Engine::from_catalog(w.catalog);
    for (i, query) in w.queries.iter().enumerate() {
        let reference = answer(&engine, query, OptimizerChoice::BaselineNoBitvectors)?;
        let _ = writeln!(out, "ref {k} {i} {} {}", reference.rows, reference.digest);
        let _ = writeln!(out, "sql {k} {i} {}", text_hash(&query.to_sql()));
        if files {
            let stmt = engine
                .prepare(query, OptimizerChoice::Bqo)
                .map_err(|e| e.to_string())?;
            let _ = writeln!(out, "plan {k} {i} {}", text_hash(&plan_text(&stmt)));
        }
    }
    Ok(())
}

fn answer(engine: &Engine, query: &QuerySpec, choice: OptimizerChoice) -> Result<Answer, String> {
    let stmt = engine.prepare(query, choice).map_err(|e| e.to_string())?;
    let out = engine
        .session()
        .execute(&stmt, RunOptions::new().collecting_rows())
        .map_err(|e| e.to_string())?;
    let rows = out.rows.ok_or("rows were not collected")?;
    Ok(Answer::of(&rows, stmt.graph()))
}

/// Writes every table of `catalog` to `<dir>/<table>.bqo`.
fn write_files(catalog: &Catalog, dir: &Path, chunk_rows: usize) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for name in catalog.table_names() {
        let table = catalog.table(name).map_err(|e| e.to_string())?;
        write_table(dir.join(format!("{name}.bqo")), &table, chunk_rows)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs the helper process for `config` in `run_dir` and reads its output.
pub fn run_helper(config: &RunConfig, run_dir: &Path) -> Result<Prep, String> {
    let out = run_dir.join("prep.txt");
    match &config.helper {
        Some(helper) => {
            let status = Command::new(helper)
                .args(config.helper_args())
                .arg("--prep")
                .arg(&out)
                .status()
                .map_err(|e| format!("starting the reference helper: {e}"))?;
            if !status.success() {
                return Err(format!("the reference helper failed: {status}"));
            }
        }
        None => write(config, &out)?,
    }
    let text =
        std::fs::read_to_string(&out).map_err(|e| format!("reading {}: {e}", out.display()))?;
    parse(&text, config.sizes.warehouses, config.sizes.queries)
}

fn parse(text: &str, warehouses: usize, queries: usize) -> Result<Prep, String> {
    let mut prep = Prep {
        reference: vec![Vec::with_capacity(queries); warehouses],
        sql: vec![Vec::with_capacity(queries); warehouses],
        plans: vec![Vec::new(); warehouses],
        setup: Vec::new(),
    };
    for line in text.lines() {
        let bad = || format!("malformed helper line {line:?}");
        let f: Vec<&str> = line.split(' ').collect();
        let num = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).ok_or_else(bad);
        if f[0] == "setup" {
            let secs = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).ok_or_else(bad);
            prep.setup.push((secs(1)?, secs(2)?));
            continue;
        }
        let k = usize::try_from(num(1)?).map_err(|_| bad())?;
        if k >= warehouses {
            return Err(bad());
        }
        // Lines come in query order, so a line's query index is the next slot.
        let next = |len: usize| {
            if num(2)? == len as u64 {
                Ok(())
            } else {
                Err(bad())
            }
        };
        match f[0] {
            "ref" => {
                next(prep.reference[k].len())?;
                prep.reference[k].push(Answer {
                    rows: num(3)?,
                    digest: num(4)?,
                });
            }
            "sql" | "plan" => {
                let grid = if f[0] == "sql" {
                    &mut prep.sql
                } else {
                    &mut prep.plans
                };
                next(grid[k].len())?;
                grid[k].push(num(3)?);
            }
            _ => return Err(bad()),
        }
    }
    if prep.reference.iter().any(|r| r.len() != queries) {
        return Err("the helper returned too few reference answers".to_string());
    }
    Ok(prep)
}

//! Workloads, their sizes and the command line.

use bqo_core::workloads::{self, customer_like, job_like, tpcds_like, Scale};
use std::path::PathBuf;

/// The seed the benchmark documents as its default.
pub const DEFAULT_SEED: u64 = 1;
/// The held-out seed: a claim measured on [`DEFAULT_SEED`] must also hold here.
pub const HELD_OUT_SEED: u64 = 2;

/// One benchmark workload. Each stresses a different set of layers; see
/// `BENCHMARK.json` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TPC-DS-like queries over in-memory tables, statements prepared in
    /// setup, one closed-loop client, exec at 2 threads.
    TpcdsMem,
    /// The same data, queries and plans over `.bqo` files written in setup.
    TpcdsFile,
    /// CUSTOMER-like SQL text, prepared on every request (plan cache cleared
    /// before every pass), one client, exec at 1 thread.
    CustomerPlan,
    /// JOB-like SQL text through `Server`, 2 closed-loop clients, warm plan
    /// cache, exec at 1 thread.
    JobServe,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::TpcdsMem,
    Workload::TpcdsFile,
    Workload::CustomerPlan,
    Workload::JobServe,
];

/// The query generator a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Tpcds,
    Customer,
    Job,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpcdsMem => "tpcds_mem",
            Workload::TpcdsFile => "tpcds_file",
            Workload::CustomerPlan => "customer_plan",
            Workload::JobServe => "job_serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn family(self) -> Family {
        match self {
            Workload::TpcdsMem | Workload::TpcdsFile => Family::Tpcds,
            Workload::CustomerPlan => Family::Customer,
            Workload::JobServe => Family::Job,
        }
    }

    /// `ExecConfig::num_threads` of every statement the workload runs.
    pub fn exec_threads(self) -> usize {
        match self.family() {
            Family::Tpcds => 2,
            Family::Customer | Family::Job => 1,
        }
    }

    /// Closed-loop clients issuing requests.
    pub fn clients(self) -> usize {
        match self {
            Workload::JobServe => 2,
            _ => 1,
        }
    }
}

impl Family {
    /// Generates one warehouse: a catalog and its queries.
    pub fn generate(self, scale: f64, queries: usize, seed: u64) -> workloads::Workload {
        match self {
            Family::Tpcds => tpcds_like::generate(Scale(scale), queries, seed),
            Family::Customer => customer_like::generate(Scale(scale), queries, seed),
            Family::Job => job_like::generate(Scale(scale), queries, seed),
        }
    }
}

/// How much data and how many queries a run uses.
///
/// A run spreads its queries over several independently generated
/// warehouses. Skewed foreign keys make one warehouse's cost depend on which
/// keys its seed made hot, and a CUSTOMER-like or JOB-like query's cost on
/// how many joins its seed drew; the median and p95 of a few hundred
/// queries still move with the seed, so each run has several hundred, which
/// keeps its figures close across seeds. Warehouses stay few all the same:
/// each has its own engine, with its own worker-pool thread (`tpcds_*`) or
/// server dispatchers (`job_serve`), and set-up, the reference answers and
/// the full-row check grow with them, which the time every run may take
/// bounds. `job_serve` keeps each warehouse's queries under the plan cache's
/// default capacity (256) so the warm cache holds every plan.
///
/// The end-to-end figures are taken over the window's whole passes (one
/// request per query), so a pass is kept short enough that a window of 15
/// seconds holds at least one of them on a 2-core machine, usually two.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Independently generated warehouses (catalog + queries) per run.
    pub warehouses: usize,
    /// `Scale` of each warehouse.
    pub scale: f64,
    /// Queries generated per warehouse.
    pub queries: usize,
    /// How many times set-up runs; `setup_s` is the median.
    pub setup_repeats: usize,
    /// Rows per `.bqo` chunk (`tpcds_file`).
    pub chunk_rows: usize,
}

impl Sizes {
    /// The sizes the benchmark is defined with.
    pub fn standard(workload: Workload) -> Sizes {
        let (warehouses, scale, queries) = match workload.family() {
            Family::Tpcds => (4, 0.05, 200),
            Family::Customer => (6, 0.05, 60),
            Family::Job => (4, 0.05, 120),
        };
        Sizes {
            warehouses,
            scale,
            queries,
            setup_repeats: 5,
            chunk_rows: 4096,
        }
    }

    /// Tiny sizes for the benchmark's own tests.
    #[cfg(test)]
    pub fn tiny() -> Sizes {
        Sizes {
            warehouses: 2,
            scale: 0.005,
            queries: 4,
            setup_repeats: 2,
            chunk_rows: 256,
        }
    }

    pub fn total_queries(&self) -> usize {
        self.warehouses * self.queries
    }
}

/// The seed of warehouse `k` of a run with seed `seed`.
pub fn warehouse_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Run the traced variant, which reports the per-layer metrics.
    pub trace: bool,
    pub sizes: Sizes,
    /// Where `.bqo` files, the reference answers and the trace are written.
    pub work_dir: PathBuf,
    /// This benchmark's executable, run as the reference-answer helper;
    /// `None` computes the references in this process (the benchmark's
    /// tests, whose executable is the test harness).
    pub helper: Option<PathBuf>,
}

impl RunConfig {
    /// The arguments that make the helper process see the same run.
    pub fn helper_args(&self) -> Vec<String> {
        vec![
            "--workload".to_string(),
            self.workload.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
        ]
    }
}

/// What the command line asked for.
#[derive(Debug)]
pub enum Command {
    /// Measure one workload and print its metrics.
    Run(RunConfig),
    /// Helper mode: compute the reference answers into the given file.
    Prep(RunConfig, PathBuf),
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>` plus
/// `--work-dir <dir>` and the helper's `--prep <file>`.
pub fn parse_args(
    args: &[String],
    helper: Option<PathBuf>,
    default_work_dir: PathBuf,
) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work_dir = default_work_dir;
    let mut prep = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {name:?}; expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                };
            }
            "--work-dir" => work_dir = PathBuf::from(value("--work-dir")?),
            "--prep" => prep = Some(PathBuf::from(value("--prep")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let config = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::standard(workload),
        work_dir,
        helper,
    };
    Ok(match prep {
        Some(out) => Command::Prep(config, out),
        None => Command::Run(config),
    })
}

//! The repository benchmark: one command that generates a workload from a
//! seed, sets it up, checks every answer, measures a window of requests and
//! prints every end-to-end metric (untraced run) or every per-layer metric
//! (traced run) by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpcds_mem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The metrics, workloads and bounds are listed in `BENCHMARK.json`;
//! `perfbench/README.md` explains them.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

mod calib;
mod config;
mod drive;
mod gate;
mod prep;
mod report;
#[cfg(test)]
mod selftest;
mod setup;
mod stats;
mod trace;

use config::{parse_args, Command, RunConfig, DEFAULT_SEED, HELD_OUT_SEED};
use prep::Prep;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let helper = match std::env::current_exe() {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("perfbench: cannot locate its own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let default_work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    let command = match parse_args(&args, helper, default_work_dir) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <tpcds_mem|tpcds_file|customer_plan|job_serve> \
                 --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n\
                 the default seed is {DEFAULT_SEED}; claims must also hold on the held-out \
                 seed {HELD_OUT_SEED}"
            );
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Prep(config, out) => match prep::write(&config, &out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench helper: {e}");
                ExitCode::FAILURE
            }
        },
        Command::Run(config) => match run(&config, &|_| {}) {
            Ok(report) => {
                print!("{}", report.render());
                if report.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// Removes a run's scratch directory (`.bqo` files, helper output) when the
/// run ends, however it ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload. `tamper` sees the reference answers before they are
/// used; the benchmark's tests use it to show that a wrong reference fails
/// the run.
fn run(config: &RunConfig, tamper: &dyn Fn(&mut Prep)) -> Result<Report, String> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    // ORDERING: the counter only makes run directory names unique within
    // the process; it publishes no other data.
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let run_dir = RunDir(
        config
            .work_dir
            .join(format!("run-{}-{run}", std::process::id())),
    );
    std::fs::create_dir_all(&run_dir.0)
        .map_err(|e| format!("creating {}: {e}", run_dir.0.display()))?;
    let mut prep = prep::run_helper(config, &run_dir.0)?;
    tamper(&mut prep);
    let mut setup_times = setup::SetupTimes::default();
    // Half the set-ups run before the window and half after it, so
    // `setup_s` samples the host at two moments the window's length apart.
    // The last one before the window serves it; each is dropped before the
    // next, so peak RSS holds one set-up at a time.
    let before = config.sizes.setup_repeats.div_ceil(2);
    let mut warehouses = Vec::new();
    for repeat in 0..before {
        drop(warehouses);
        warehouses = setup::set_up(config, &prep, &run_dir.0, repeat, &mut setup_times)?;
    }
    let window = drive::run_window(config, &warehouses, &prep);
    // The peak of a set-up and the window: read before the full-row check,
    // whose collected answers would otherwise set it, and before the
    // set-ups after the window.
    let peak_rss_mb = stats::peak_rss_mb();
    let (mut problems, counts) = setup::check_answers(config.workload, &warehouses, &prep);
    drop(warehouses);
    for repeat in before..config.sizes.setup_repeats {
        setup::set_up(config, &prep, &run_dir.0, repeat, &mut setup_times)?;
    }
    if config.trace {
        write_trace(config, &window)?;
    }
    Ok(report::build(
        config,
        &setup_times,
        &window,
        peak_rss_mb,
        &counts,
        &mut problems,
    ))
}

fn write_trace(config: &RunConfig, window: &drive::Window) -> Result<(), String> {
    let spans: Vec<_> = window
        .clients
        .iter()
        .flat_map(|c| c.spans.iter().cloned())
        .collect();
    let path = config.work_dir.join(format!(
        "trace-{}-seed{}.tsv",
        config.workload.name(),
        config.seed
    ));
    std::fs::write(&path, trace::render(&spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

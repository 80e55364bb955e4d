//! The benchmark's own tests, at a tiny scale: every metric is printed with
//! its unit (and timings with their sample count) on every workload, both
//! documented seeds pass the answer gate, counts repeat, and a wrong
//! reference answer fails the run.

use crate::config::{RunConfig, Sizes, Workload, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};
use crate::report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn config(workload: Workload, seed: u64, trace: bool, tag: &str) -> RunConfig {
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!(".work/selftest-{tag}"));
    std::fs::create_dir_all(&work_dir).expect("create the test work dir");
    RunConfig {
        workload,
        seed,
        // A CUSTOMER-like request plans ~28 joins, so it needs longer for the
        // 200 samples a p95 with 10 samples beyond it takes.
        seconds: if workload == Workload::CustomerPlan {
            10.0
        } else {
            1.0
        },
        trace,
        sizes: Sizes::tiny(),
        work_dir,
        helper: None,
    }
}

/// The per-layer metrics that are deterministic counts.
const COUNTS: [&str; 19] = [
    "plan.qerror_p50",
    "plan.qerror_max",
    "optimizer.est_cout",
    "cache.hit_ratio",
    "cache.reoptimizations",
    "exec.logical_work",
    "exec.build_rows",
    "exec.probe_rows",
    "exec.leaf_tuples",
    "exec.join_tuples",
    "exec.rows_out",
    "bitvector.filters_created",
    "bitvector.probed",
    "bitvector.eliminated",
    "bitvector.elim_ratio",
    "format.chunks_read",
    "format.chunks_pruned",
    "format.bytes_read",
    "format.pruning_ratio",
];

fn run(config: &RunConfig) -> Report {
    crate::run(config, &|_| {}).expect("the run completes")
}

/// Metric names and units as `BENCHMARK.json` lists them.
fn benchmark_json_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').unwrap()].to_string();
            let unit = entry.split("\"unit\": \"").nth(1).unwrap();
            (name, unit[..unit.find('"').unwrap()].to_string())
        })
        .collect()
}

fn assert_complete(report: &Report, trace: bool) {
    let label = format!("{:?}", report.context);
    assert!(report.correct, "{label}: {:?}", report.problems);
    assert_eq!(report.failed, 0, "{label}");
    let (expected, section): (&[(&str, &str)], _) = if trace {
        (&PER_LAYER, "per_layer")
    } else {
        (&END_TO_END, "end_to_end")
    };
    let listed = benchmark_json_metrics(section);
    let listed: Vec<(&str, &str)> = listed
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    assert_eq!(
        listed, expected,
        "BENCHMARK.json lists the metrics the run prints"
    );
    let text = report.render();
    for (name, unit) in expected {
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("metric {name} = ")))
            .unwrap_or_else(|| panic!("{label}: {name} not printed"));
        assert!(line.contains(&format!(" {unit}")), "{line}");
        if matches!(*unit, "ms" | "us" | "s") {
            assert!(line.contains("(n="), "{label}: {line} has no sample count");
        }
        let json = text.lines().last().unwrap();
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": "))
                && json.contains(&format!("\"unit\": \"{unit}\"")),
            "{json}"
        );
    }
    for name in COUNTS {
        assert!(
            report.counts.contains_key(name),
            "{label}: count {name} missing"
        );
    }
}

#[test]
fn every_metric_is_printed_on_every_workload_for_both_seeds() {
    for workload in WORKLOADS {
        for (seed, trace) in [(DEFAULT_SEED, false), (HELD_OUT_SEED, true)] {
            let report = run(&config(workload, seed, trace, "metrics"));
            assert_complete(&report, trace);
        }
    }
}

#[test]
fn traced_runs_attribute_time_to_the_layers_each_workload_exercises() {
    let value =
        |r: &Report, name: &str| r.metrics.iter().find(|m| m.name == name).expect(name).value;
    let customer = run(&config(
        Workload::CustomerPlan,
        DEFAULT_SEED,
        true,
        "layers-c",
    ));
    assert!(
        value(&customer, "optimizer.self_share") > 0.5,
        "{:?}",
        customer.metrics
    );
    let memory = run(&config(Workload::TpcdsMem, DEFAULT_SEED, true, "layers-m"));
    assert_eq!(value(&memory, "optimizer.self_share"), 0.0);
    assert_eq!(value(&memory, "format.chunks_read"), 0.0);
    assert_eq!(value(&memory, "server.queue_wait_us"), 0.0);
    let file = run(&config(Workload::TpcdsFile, DEFAULT_SEED, true, "layers-f"));
    assert!(value(&file, "format.chunks_read") > 0.0);
    assert!(value(&file, "format.bytes_read") > 0.0);
    // The same seed gives the same answers over files as over memory.
    assert_eq!(memory.counts["exec.rows_out"], file.counts["exec.rows_out"]);
    let served = run(&config(Workload::JobServe, DEFAULT_SEED, true, "layers-j"));
    assert!(value(&served, "server.self_share") > 0.0);
    assert_eq!(value(&served, "cache.hit_ratio"), 1.0);
}

#[test]
fn counts_repeat_across_runs_of_one_seed() {
    let first = run(&config(Workload::JobServe, DEFAULT_SEED, false, "repeat-a"));
    let second = run(&config(Workload::JobServe, DEFAULT_SEED, false, "repeat-b"));
    assert!(first.correct && second.correct);
    assert_eq!(first.counts, second.counts);
}

#[test]
fn a_wrong_reference_answer_fails_the_run() {
    let config = config(Workload::TpcdsMem, DEFAULT_SEED, false, "tamper");
    // A wrong row: the full-row comparison catches it.
    let report = crate::run(&config, &|prep| prep.reference[0][0].digest ^= 1).unwrap();
    assert!(!report.correct);
    assert!(report
        .problems
        .iter()
        .any(|p| p.starts_with("warehouse 0 query 0:")));
    assert!(report
        .render()
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\": false"));
    // A wrong row count: every timed request of that query catches it too.
    let report = crate::run(&config, &|prep| prep.reference[1][0].rows += 1).unwrap();
    assert!(!report.correct);
    let per_request = report
        .problems
        .iter()
        .filter(|p| p.starts_with("warehouse 1 query 0:") && p.contains("reference has"))
        .count();
    assert!(per_request > 1, "{:?}", report.problems);
}

#[test]
fn a_window_without_a_whole_pass_fails_the_run() {
    let mut config = config(Workload::JobServe, DEFAULT_SEED, false, "short");
    config.seconds = 1e-6;
    let report = run(&config);
    assert!(!report.correct);
    assert!(
        report
            .problems
            .iter()
            .any(|p| p.starts_with("the window completed no whole pass")),
        "{:?}",
        report.problems
    );
}

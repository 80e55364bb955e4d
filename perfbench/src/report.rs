//! Turns a run into its metrics and prints them.

use crate::calib;
use crate::config::{RunConfig, Workload};
use crate::drive::{Counts, Window};
use crate::setup::{server_config, SetupTimes};
use crate::stats::{median, quantile};
use crate::trace::Breakdown;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics (untraced run), with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cpu_ms_per_query", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced run), with their units. Timings are medians
/// per request; counts are per pass over every query and repeat exactly
/// across runs of one seed.
///
/// `peak_rss_mb` is the process's, not a layer's. It is here rather than
/// among the end-to-end metrics because it spreads across seeds by more
/// than any bound an end-to-end metric may carry: every thread that
/// allocates keeps an allocator arena of its own, and how much each one
/// retains depends on which queries it happened to run.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("sql.self_share", "ratio"),
    ("plan.graph_us", "us"),
    ("plan.qerror_p50", "ratio"),
    ("plan.qerror_max", "ratio"),
    ("plan.self_share", "ratio"),
    ("optimizer.optimize_us", "us"),
    ("optimizer.est_cout", "rows"),
    ("optimizer.self_share", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.reoptimizations", "count"),
    ("cache.evictions", "count"),
    ("cache.self_share", "ratio"),
    ("exec.execute_us", "us"),
    ("exec.elapsed_us", "us"),
    ("exec.logical_work", "count"),
    ("exec.build_rows", "rows"),
    ("exec.probe_rows", "rows"),
    ("exec.leaf_tuples", "rows"),
    ("exec.join_tuples", "rows"),
    ("exec.rows_out", "rows"),
    ("exec.tuples_per_s", "rows/s"),
    ("exec.self_share", "ratio"),
    ("bitvector.filters_created", "count"),
    ("bitvector.probed", "count"),
    ("bitvector.eliminated", "count"),
    ("bitvector.elim_ratio", "ratio"),
    ("format.write_s", "s"),
    ("format.open_s", "s"),
    ("format.chunks_read", "count"),
    ("format.chunks_pruned", "count"),
    ("format.bytes_read", "bytes"),
    ("format.pruning_ratio", "ratio"),
    ("storage.generate_s", "s"),
    ("server.queue_wait_us", "us"),
    ("server.overhead_us", "us"),
    ("server.rejected", "count"),
    ("server.self_share", "ratio"),
    ("trace.untraced_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 6] = ["sql", "plan", "optimizer", "cache", "exec", "server"];

/// One metric value with its unit and, for timings, the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every answer matched its reference and every count repeated.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The timed end-to-end figures before the host-speed adjustment.
    pub unadjusted: Vec<Metric>,
    /// The deterministic counts of one pass.
    pub counts: BTreeMap<&'static str, f64>,
    pub context: Vec<(&'static str, String)>,
    /// Why the run is not correct, and warnings.
    pub problems: Vec<String>,
}

impl Report {
    /// The text the command prints; its last line is the JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        let _ = writeln!(out, "context {{{}}}", context.join(", "));
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
            .collect();
        let _ = writeln!(out, "counts {{{}}}", counts.join(", "));
        for (prefix, metrics) in [("metric", &self.metrics), ("unadjusted", &self.unadjusted)] {
            for m in metrics {
                let samples = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
                let _ = writeln!(out, "{prefix} {} = {} {}{samples}", m.name, m.value, m.unit);
            }
        }
        for p in &self.problems {
            let _ = writeln!(out, "problem {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    format!("\"{out}\"")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The deterministic counts as named metrics.
fn count_values(c: &Counts) -> BTreeMap<&'static str, f64> {
    let n = |v: u64| v as f64;
    BTreeMap::from([
        ("plan.qerror_p50", c.qerror_p50),
        ("plan.qerror_max", c.qerror_max),
        ("optimizer.est_cout", c.est_cout),
        ("cache.hit_ratio", ratio(n(c.hits), n(c.requests))),
        ("cache.reoptimizations", n(c.reoptimized)),
        ("exec.logical_work", n(c.logical_work)),
        ("exec.build_rows", n(c.build_rows)),
        ("exec.probe_rows", n(c.probe_rows)),
        ("exec.leaf_tuples", n(c.leaf_tuples)),
        ("exec.join_tuples", n(c.join_tuples)),
        ("exec.rows_out", n(c.rows_out)),
        ("bitvector.filters_created", n(c.filters_created)),
        ("bitvector.probed", n(c.probed)),
        ("bitvector.eliminated", n(c.eliminated)),
        ("bitvector.elim_ratio", ratio(n(c.eliminated), n(c.probed))),
        ("format.chunks_read", n(c.chunks_read)),
        ("format.chunks_pruned", n(c.chunks_pruned)),
        ("format.bytes_read", n(c.bytes_read)),
        (
            "format.pruning_ratio",
            ratio(n(c.chunks_pruned), n(c.chunks_read + c.chunks_pruned)),
        ),
    ])
}

fn context(config: &RunConfig, window: &Window) -> Vec<(&'static str, String)> {
    let command_output = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    let sizes = config.sizes;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", config.workload.name().to_string()),
        ("seed", config.seed.to_string()),
        ("scale", sizes.scale.to_string()),
        ("warehouses", sizes.warehouses.to_string()),
        ("queries", sizes.total_queries().to_string()),
        ("clients", config.workload.clients().to_string()),
        ("exec_threads", config.workload.exec_threads().to_string()),
        (
            "server_config",
            if config.workload == Workload::JobServe {
                format!("{:?}", server_config())
            } else {
                "none".to_string()
            },
        ),
        ("seconds", config.seconds.to_string()),
        ("trace", u8::from(config.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("steal_share", format!("{:.4}", window.steal_share)),
        (
            "kernel_us",
            format!(
                "{:.1} (median of {}; reference {})",
                us(window.speed.median_kernel()),
                window.speed.len(),
                us(calib::REFERENCE)
            ),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("git_rev", command_output("git", &["rev-parse", "HEAD"])),
        ("rustc", command_output("rustc", &["--version"])),
    ]
}

/// Builds the report of a finished run. `counts` and `problems` come from
/// the full-row pass after the window; the window's problems are added, and
/// every pass the window completed must repeat the counts exactly.
pub fn build(
    config: &RunConfig,
    setup: &SetupTimes,
    window: &Window,
    peak_rss_mb: f64,
    counts: &Counts,
    problems: &mut Vec<String>,
) -> Report {
    let samples: Vec<_> = window.clients.iter().flat_map(|c| &c.samples).collect();
    let attempted = samples.len() as u64;
    let ok: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| ms(s.latency))
        .collect();
    let completed = ok.len() as f64;
    let failed = attempted - ok.len() as u64;
    for c in &window.clients {
        problems.extend(c.mismatches.iter().cloned());
        if let Some(e) = c.errors.first() {
            problems.push(format!("{} failed requests; first: {e}", c.errors.len()));
        }
    }

    if let Some(other) = window
        .clients
        .iter()
        .flat_map(|c| &c.passes)
        .find(|p| *p != counts)
    {
        problems.push(format!(
            "deterministic counts differ between passes: {counts:?} vs {other:?}"
        ));
    }
    let counts = count_values(counts);

    let passes = whole_passes(window).unwrap_or_else(|| {
        problems.push(format!(
            "the window completed no whole pass of the {} queries",
            config.sizes.total_queries()
        ));
        WholePasses::up_to(window, window.duration, window.cpu_at_end)
    });
    let n = passes.latencies.len();
    let metric = |name, value, samples| Metric {
        name,
        value,
        unit: unit_of(name),
        samples,
    };
    // The same figures at the speed the host ran at, for people.
    let unadjusted = vec![
        metric("qps", ratio(n as f64, passes.seconds), Some(n)),
        metric("latency_p50_ms", quantile(&passes.unadjusted, 0.5), Some(n)),
        metric(
            "latency_p95_ms",
            quantile(&passes.unadjusted, 0.95),
            Some(n),
        ),
        metric("cpu_ms_per_query", ratio(ms(passes.cpu), n as f64), Some(n)),
    ];
    let metrics = if config.trace {
        per_layer(setup, window, peak_rss_mb, &counts)
    } else {
        if n < MIN_SAMPLES {
            problems.push(format!("{n} samples leave fewer than 10 beyond p95"));
        }
        let slowness = ratio(passes.seconds, passes.reference_seconds / passes.kept);
        vec![
            metric("qps", ratio(n as f64, passes.reference_seconds), Some(n)),
            metric("latency_p50_ms", quantile(&passes.latencies, 0.5), Some(n)),
            metric("latency_p95_ms", quantile(&passes.latencies, 0.95), Some(n)),
            metric(
                "cpu_ms_per_query",
                ratio(ratio(ms(passes.cpu), slowness), n as f64),
                Some(n),
            ),
            metric("ok_ratio", ratio(completed, attempted as f64), None),
            metric("setup_s", setup.median_total(), Some(setup.total_s.len())),
        ]
    };
    Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        unadjusted,
        counts,
        context: context(config, window),
        problems: problems.clone(),
    }
}

/// Completed requests the end-to-end figures need: a p95 with 10 samples
/// beyond it.
const MIN_SAMPLES: usize = 200;

/// The part of the window the end-to-end figures cover: from its start to
/// the end of client 0's last whole pass.
struct WholePasses {
    seconds: f64,
    /// How long it would have lasted at the reference host speed, with
    /// nothing stolen.
    reference_seconds: f64,
    /// The share of the time the CPUs wanted to run that the hypervisor did
    /// not steal.
    kept: f64,
    /// The process's CPU time over it.
    cpu: Duration,
    /// Latencies (ms) of the requests of any client that completed in it,
    /// each divided by the host's slowness at the request's midpoint, less
    /// the stolen share.
    latencies: Vec<f64>,
    /// The same latencies as the clock read them.
    unadjusted: Vec<f64>,
}

impl WholePasses {
    /// The window up to `end`, when the process's CPU time read `cpu_at_end`.
    ///
    /// The kernel runs for a fraction of a millisecond, so its median
    /// misses the hypervisor's steal, which takes a CPU away for
    /// milliseconds at a time; the window's stolen share is taken out of
    /// its wall-clock figures separately. CPU time never counts it.
    fn up_to(window: &Window, end: Duration, cpu_at_end: Duration) -> WholePasses {
        let kept = 1.0 - window.steal_share.clamp(0.0, 0.9);
        let (mut latencies, mut unadjusted) = (Vec::new(), Vec::new());
        for s in window.clients.iter().flat_map(|c| &c.samples) {
            if s.ok && s.done <= end {
                let midpoint = s.done.saturating_sub(s.latency / 2);
                unadjusted.push(ms(s.latency));
                latencies.push(ms(s.latency) * kept / window.speed.slowness_at(midpoint));
            }
        }
        WholePasses {
            seconds: end.as_secs_f64(),
            reference_seconds: window.speed.reference_time(end).as_secs_f64() * kept,
            kept,
            cpu: cpu_at_end.saturating_sub(window.cpu_at_start),
            latencies,
            unadjusted,
        }
    }
}

/// The window up to the end of client 0's last whole pass, or `None` when
/// it completed none. Every pass runs every query once, so the figures
/// cover the same mix of queries however many passes a commit's speed fits
/// in the window; the requests after the last pass end are left out.
fn whole_passes(window: &Window) -> Option<WholePasses> {
    let lead = &window.clients[0];
    let (&end, &cpu) = lead.pass_ends.last().zip(lead.pass_cpu.last())?;
    Some(WholePasses::up_to(window, end, cpu))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn per_layer(
    setup: &SetupTimes,
    window: &Window,
    peak_rss_mb: f64,
    counts: &BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    let spans: Vec<_> = window
        .clients
        .iter()
        .flat_map(|c| c.spans.iter().cloned())
        .collect();
    let breakdown = Breakdown::of(&spans);
    let mut values: BTreeMap<&'static str, (f64, Option<usize>)> = BTreeMap::new();
    let span_median = |name: &str| {
        let d: Vec<f64> = breakdown
            .durations
            .get(name)
            .map_or_else(Vec::new, |v| v.iter().map(|&d| us(d)).collect());
        (median(&d), Some(d.len()))
    };
    for (metric, span) in [
        ("sql.parse_us", "sql.parse"),
        ("sql.bind_us", "sql.bind"),
        ("plan.graph_us", "plan.graph"),
        ("optimizer.optimize_us", "optimizer.optimize"),
        ("cache.lookup_us", "cache.lookup"),
        ("exec.execute_us", "exec.execute"),
    ] {
        values.insert(metric, span_median(span));
    }
    for layer in LAYERS {
        let name = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_suffix(".self_share") == Some(layer))
            .expect("every layer has a self_share metric");
        values.insert(name, (breakdown.share(layer), Some(breakdown.requests)));
    }
    let logs = &window.clients;
    let durations_us = |pick: fn(&crate::drive::ClientLog) -> &Vec<Duration>| {
        let d: Vec<f64> = logs
            .iter()
            .flat_map(|c| pick(c).iter().map(|&d| us(d)))
            .collect();
        (median(&d), Some(d.len()))
    };
    values.insert("exec.elapsed_us", durations_us(|c| &c.elapsed));
    values.insert("server.queue_wait_us", durations_us(|c| &c.queue_wait));
    values.insert("server.overhead_us", durations_us(|c| &c.server_overhead));
    let elapsed: Duration = logs.iter().flat_map(|c| &c.elapsed).sum();
    let tuples: u64 = logs.iter().map(|c| c.tuples).sum();
    values.insert(
        "exec.tuples_per_s",
        (ratio(tuples as f64, elapsed.as_secs_f64()), None),
    );
    values.insert(
        "server.rejected",
        (logs.iter().map(|c| c.rejected).sum::<u64>() as f64, None),
    );
    values.insert("cache.evictions", (window.evictions as f64, None));
    let setup_median = |v: &[f64]| (median(v), Some(v.len()));
    values.insert("format.write_s", setup_median(&setup.write_s));
    values.insert("format.open_s", setup_median(&setup.open_s));
    values.insert("storage.generate_s", setup_median(&setup.generate_s));
    values.insert(
        "trace.untraced_share",
        (breakdown.untraced_share(), Some(breakdown.requests)),
    );
    values.insert("trace.overhead", (tracing_overhead(window), None));
    values.insert("peak_rss_mb", (peak_rss_mb, None));
    for (&name, &value) in counts {
        values.insert(name, (value, None));
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = values.get(name).copied().unwrap_or((0.0, None));
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect()
}

/// Untraced throughput ÷ traced throughput: mean traced latency (shadow
/// calls left out) over mean untraced latency.
fn tracing_overhead(window: &Window) -> f64 {
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for c in &window.clients {
        for s in &c.samples {
            if s.traced {
                traced.push(s.effective.as_secs_f64());
            } else {
                untraced.push(s.latency.as_secs_f64());
            }
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    ratio(mean(&traced), mean(&untraced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{Speed, REFERENCE};
    use crate::drive::{ClientLog, Sample};

    fn sample(done_ms: u64, latency_ms: u64) -> Sample {
        let latency = Duration::from_millis(latency_ms);
        Sample {
            latency,
            ok: true,
            traced: false,
            effective: latency,
            done: Duration::from_millis(done_ms),
        }
    }

    #[test]
    fn figures_cover_whole_passes_only() {
        let lead = ClientLog {
            samples: vec![
                sample(400, 4),
                sample(1000, 6),
                sample(1500, 5),
                sample(2000, 5),
            ],
            pass_ends: vec![Duration::from_millis(1000), Duration::from_millis(2000)],
            pass_cpu: vec![Duration::from_millis(1100), Duration::from_millis(1900)],
            ..ClientLog::default()
        };
        let other = ClientLog {
            // The last request ends after the lead client's last whole pass.
            samples: vec![sample(900, 9), sample(2100, 50)],
            ..ClientLog::default()
        };
        let window = Window {
            duration: Duration::from_millis(2100),
            cpu_at_start: Duration::from_millis(100),
            cpu_at_end: Duration::from_millis(2000),
            evictions: 0,
            steal_share: 0.0,
            speed: Speed::default(),
            clients: vec![lead, other],
        };
        let passes = whole_passes(&window).expect("two whole passes");
        assert_eq!(passes.seconds, 2.0);
        assert_eq!(passes.cpu, Duration::from_millis(1800));
        let mut latencies = passes.latencies.clone();
        latencies.sort_by(f64::total_cmp);
        assert_eq!(latencies, [4.0, 5.0, 5.0, 6.0, 9.0]);

        // On a host running at half the reference speed throughout, the
        // same window is worth half the time and half the latency.
        let window = Window {
            speed: Speed::of(
                (0..100)
                    .map(|i| (Duration::from_millis(i * 25), REFERENCE * 2))
                    .collect(),
            ),
            ..window
        };
        let slow = whole_passes(&window).expect("two whole passes");
        assert!((slow.reference_seconds - 1.0).abs() < 1e-9);
        assert_eq!(slow.unadjusted, passes.latencies);
        let halved: Vec<f64> = passes.latencies.iter().map(|l| l / 2.0).collect();
        assert_eq!(slow.latencies, halved);

        // The same holds when the hypervisor steals half the time instead,
        // except that CPU time, which never counts steal, keeps its speed.
        let window = Window {
            speed: Speed::default(),
            steal_share: 0.5,
            ..window
        };
        let stolen = whole_passes(&window).expect("two whole passes");
        assert!((stolen.reference_seconds - 1.0).abs() < 1e-9);
        assert_eq!(stolen.latencies, halved);
        assert_eq!(stolen.kept, 0.5);
    }

    #[test]
    fn a_window_without_a_whole_pass_has_no_figures() {
        let window = Window {
            duration: Duration::from_millis(500),
            cpu_at_start: Duration::ZERO,
            cpu_at_end: Duration::from_millis(500),
            evictions: 0,
            steal_share: 0.0,
            speed: Speed::default(),
            clients: vec![ClientLog {
                samples: vec![sample(500, 500)],
                ..ClientLog::default()
            }],
        };
        assert!(whole_passes(&window).is_none());
    }
}

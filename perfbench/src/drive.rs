//! The measured window: closed-loop clients issuing requests, the per-pass
//! deterministic counts, and the spans of traced requests.

use crate::calib::{self, Speed};
use crate::config::{RunConfig, Workload};
use crate::prep::Prep;
use crate::setup::Query;
use crate::setup::Warehouse;
use crate::trace::{RequestTrace, Span, Tracer};
use bqo_core::exec::Batch;
use bqo_core::sql;
use bqo_core::{
    BqoOptimizer, CacheStatus, CoutBreakdown, ExecutionMetrics, OperatorKind, Optimizer,
    OptimizerChoice, PreparedStatement, QueryResult, Request, RunOptions, ServeError, SubmitError,
};
use std::time::{Duration, Instant};

/// What one request returned.
#[derive(Debug)]
pub struct Outcome {
    pub rows: u64,
    pub metrics: ExecutionMetrics,
    pub cache: Option<CacheStatus>,
    /// The output rows, when the request collected them.
    pub collected: Option<Batch>,
    /// The statement a `customer_plan` request prepared.
    pub stmt: Option<PreparedStatement>,
    /// `job_serve`: the server's queue wait and submit-to-wait wall time.
    pub queue_wait: Duration,
    pub server_wall: Duration,
}

impl Outcome {
    pub fn new(
        result: QueryResult,
        collected: Option<Batch>,
        cache: Option<CacheStatus>,
    ) -> Outcome {
        Outcome {
            rows: result.output_rows,
            metrics: result.metrics,
            cache,
            collected,
            stmt: None,
            queue_wait: Duration::ZERO,
            server_wall: Duration::ZERO,
        }
    }
}

/// Why a request failed.
#[derive(Debug)]
pub enum Failure {
    /// Refused at admission (`SubmitError`).
    Rejected(String),
    /// Failed after admission, or in the engine (`ServeError`, `BqoError`).
    Failed(String),
}

impl From<Failure> for String {
    fn from(f: Failure) -> String {
        match f {
            Failure::Rejected(m) | Failure::Failed(m) => m,
        }
    }
}

fn failed(e: impl ToString) -> Failure {
    Failure::Failed(e.to_string())
}

/// Issues one request of `workload` for query `q` of warehouse `w`. With a
/// trace, every call into a layer is wrapped in a span.
pub fn request(
    workload: Workload,
    w: &Warehouse,
    q: &Query,
    trace: Option<&mut RequestTrace<'_>>,
) -> Result<Outcome, Failure> {
    match workload {
        Workload::TpcdsMem | Workload::TpcdsFile => {
            let stmt = q
                .stmt
                .as_ref()
                .ok_or_else(|| failed("statement not prepared"))?;
            let run = || w.session.execute(stmt, RunOptions::new());
            let out = match trace {
                None => run(),
                Some(t) => t.time("exec.execute", run),
            }
            .map_err(failed)?;
            Ok(Outcome::new(out.result, None, None))
        }
        Workload::CustomerPlan => {
            let (stmt, out) = match trace {
                None => {
                    let stmt = w
                        .engine
                        .prepare_sql(&q.sql, OptimizerChoice::Bqo)
                        .map_err(failed)?;
                    let out = w
                        .session
                        .execute(&stmt, RunOptions::new())
                        .map_err(failed)?;
                    (stmt, out)
                }
                Some(t) => {
                    let catalog = w.engine.catalog();
                    let ast = t.time("sql.parse", || sql::parse(&q.sql)).map_err(failed)?;
                    let spec = t
                        .time("sql.bind", || sql::bind(&q.sql, &ast, catalog))
                        .map_err(failed)?;
                    // `Engine::prepare` plans and optimizes inside one call on a
                    // miss; time both layers with calls of our own, shadowing it.
                    let prepare = t.tracer.reserve();
                    let graph_id = t.tracer.reserve();
                    let graph = t
                        .time_as(graph_id, "plan.graph", Some(prepare), || {
                            spec.to_join_graph(catalog)
                        })
                        .map_err(failed)?;
                    let optimize_id = t.tracer.reserve();
                    let plan = t.time_as(optimize_id, "optimizer.optimize", Some(prepare), || {
                        BqoOptimizer::new().optimize(&graph)
                    });
                    let stmt = t
                        .time_as(prepare, "cache.prepare", None, || {
                            w.engine.prepare(&spec, OptimizerChoice::Bqo)
                        })
                        .map_err(failed)?;
                    if plan.explain(&graph) != stmt.plan().explain(stmt.graph()) {
                        return Err(failed(
                            "the optimizer's plan differs from the one prepare returned",
                        ));
                    }
                    let out = t
                        .time("exec.execute", || {
                            w.session.execute(&stmt, RunOptions::new())
                        })
                        .map_err(failed)?;
                    (stmt, out)
                }
            };
            let cache = Some(stmt.cache_status());
            Ok(Outcome {
                stmt: Some(stmt),
                ..Outcome::new(out.result, None, cache)
            })
        }
        Workload::JobServe => {
            let server = w.server.as_ref().ok_or_else(|| failed("no server"))?;
            let serve = || -> Result<_, Failure> {
                let started = Instant::now();
                let request = Request::builder()
                    .sql(q.sql.clone())
                    .optimizer(OptimizerChoice::Bqo)
                    .build()
                    .map_err(|e: SubmitError| Failure::Rejected(e.to_string()))?;
                let ticket = server
                    .submit(request)
                    .map_err(|e: SubmitError| Failure::Rejected(e.to_string()))?;
                let out = ticket.wait().map_err(|e: ServeError| failed(e))?;
                Ok((out, started.elapsed()))
            };
            let (out, server_wall) = match trace {
                None => serve()?,
                Some(t) => {
                    // The server parses, binds and looks the plan up inside
                    // submit → wait; time those layers with calls of our own.
                    let served_id = t.tracer.reserve();
                    let catalog = w.engine.catalog();
                    let parse_id = t.tracer.reserve();
                    let ast = t
                        .time_as(parse_id, "sql.parse", Some(served_id), || {
                            sql::parse(&q.sql)
                        })
                        .map_err(failed)?;
                    let bind_id = t.tracer.reserve();
                    let spec = t
                        .time_as(bind_id, "sql.bind", Some(served_id), || {
                            sql::bind(&q.sql, &ast, catalog)
                        })
                        .map_err(failed)?;
                    let lookup = t.tracer.reserve();
                    let graph_id = t.tracer.reserve();
                    t.time_as(graph_id, "plan.graph", Some(lookup), || {
                        spec.to_join_graph(catalog)
                    })
                    .map_err(failed)?;
                    let hit = t
                        .time_as(lookup, "cache.lookup", Some(served_id), || {
                            w.engine.prepare(&spec, OptimizerChoice::Bqo)
                        })
                        .map_err(failed)?;
                    if hit.cache_status() != CacheStatus::Hit {
                        return Err(failed("the warm plan cache missed"));
                    }
                    let served = t.time_as(served_id, "server.request", None, serve)?;
                    let (request, tracer) = (t.request, &mut *t.tracer);
                    tracer.reported(request, served_id, "server.queue", served.0.queue_wait);
                    let elapsed = served.0.result.metrics.elapsed;
                    tracer.reported(request, served_id, "exec.elapsed", elapsed);
                    served
                }
            };
            Ok(Outcome {
                queue_wait: out.queue_wait,
                server_wall,
                ..Outcome::new(out.result, None, out.cache_status)
            })
        }
    }
}

/// Deterministic counts of one pass over every query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub requests: u64,
    pub logical_work: u64,
    pub build_rows: u64,
    pub probe_rows: u64,
    pub leaf_tuples: u64,
    pub join_tuples: u64,
    pub rows_out: u64,
    pub filters_created: u64,
    pub probed: u64,
    pub eliminated: u64,
    pub chunks_read: u64,
    pub chunks_pruned: u64,
    pub bytes_read: u64,
    pub hits: u64,
    pub reoptimized: u64,
    pub est_cout: f64,
    pub qerror_p50: f64,
    pub qerror_max: f64,
}

/// Accumulates one pass; per-request values that are summed as floats are
/// kept by position in the request order so every pass sums them in the
/// same order.
#[derive(Debug)]
pub(crate) struct PassAcc {
    counts: Counts,
    est_cout: Vec<f64>,
    qerrors: Vec<f64>,
}

impl PassAcc {
    pub(crate) fn new(len: usize) -> PassAcc {
        PassAcc {
            counts: Counts::default(),
            est_cout: vec![0.0; len],
            qerrors: Vec::new(),
        }
    }

    pub(crate) fn add(&mut self, position: usize, out: &Outcome, estimate: &CoutBreakdown) {
        let m = &out.metrics;
        let c = &mut self.counts;
        c.requests += 1;
        c.logical_work += m.logical_work();
        c.build_rows += m.total_build_rows();
        c.probe_rows += m.total_probe_rows();
        c.leaf_tuples += m.tuples_by_kind(OperatorKind::Leaf);
        c.join_tuples += m.tuples_by_kind(OperatorKind::Join);
        c.rows_out += out.rows;
        c.filters_created += m.filters_created as u64;
        c.probed += m.filter_stats.probed;
        c.eliminated += m.filter_stats.eliminated;
        c.chunks_read += m.chunks_read;
        c.chunks_pruned += m.chunks_pruned;
        c.bytes_read += m.bytes_read;
        c.hits += u64::from(out.cache == Some(CacheStatus::Hit));
        c.reoptimized += u64::from(out.cache == Some(CacheStatus::Reoptimized));
        self.est_cout[position] = estimate.total;
        for op in &m.operators {
            if let Some(est) = estimate.card_of(op.node) {
                let (est, actual) = (est.max(1.0), (op.output_rows as f64).max(1.0));
                self.qerrors.push((est / actual).max(actual / est));
            }
        }
    }

    pub(crate) fn finish(mut self) -> Counts {
        self.counts.est_cout = self.est_cout.iter().sum();
        self.qerrors.sort_by(f64::total_cmp);
        if let Some(&max) = self.qerrors.last() {
            self.counts.qerror_p50 = self.qerrors[self.qerrors.len() / 2];
            self.counts.qerror_max = max;
        }
        self.counts
    }
}

/// One request of the window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency: Duration,
    pub ok: bool,
    pub traced: bool,
    /// The latency without the shadow calls a traced request adds.
    pub effective: Duration,
    /// When the request completed, from the start of the window.
    pub done: Duration,
}

/// Everything one client saw in the window.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    /// The counts of every pass the client completed.
    pub passes: Vec<Counts>,
    /// When each of those passes ended, from the start of the window.
    pub pass_ends: Vec<Duration>,
    /// The process's CPU time when each of those passes ended.
    pub pass_cpu: Vec<Duration>,
    pub spans: Vec<Span>,
    pub mismatches: Vec<String>,
    pub errors: Vec<String>,
    pub rejected: u64,
    /// Per traced `job_serve` request: queue wait and the rest of the
    /// server's time beyond execution.
    pub queue_wait: Vec<Duration>,
    pub server_overhead: Vec<Duration>,
    /// Per traced request: `ExecutionMetrics::elapsed` and tuples produced.
    pub elapsed: Vec<Duration>,
    pub tuples: u64,
    /// The calibration kernel's times: (when, from the start of the window;
    /// how long it took).
    pub kernel: Vec<(Duration, Duration)>,
}

/// The window's outcome.
#[derive(Debug)]
pub struct Window {
    pub duration: Duration,
    /// The process's CPU time when the window started and ended.
    pub cpu_at_start: Duration,
    pub cpu_at_end: Duration,
    /// Plan-cache evictions during the window, over every warehouse.
    pub evictions: u64,
    /// The share of the time the machine's CPUs wanted to run during the
    /// window that the hypervisor stole.
    pub steal_share: f64,
    /// The host's speed over the window, from every client's kernel times.
    pub speed: Speed,
    pub clients: Vec<ClientLog>,
}

/// Runs the measured window: `clients` closed-loop clients, each walking
/// the request order (one request per query, warehouses interleaved) from
/// its own offset until `seconds` have passed. With tracing on, every other
/// request is traced.
pub fn run_window(config: &RunConfig, warehouses: &[Warehouse], prep: &Prep) -> Window {
    let order: Vec<(usize, usize)> = (0..config.sizes.queries)
        .flat_map(|i| (0..warehouses.len()).map(move |k| (k, i)))
        .collect();
    let clients = config.workload.clients();
    let evictions = || -> u64 {
        warehouses
            .iter()
            .map(|w| w.engine.plan_cache().evictions())
            .sum()
    };
    let evictions_before = evictions();
    let cpu_at_start = crate::stats::process_cpu();
    let (wanted_at_start, steal_at_start) = crate::stats::machine_ticks();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(config.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let order = &order;
                let offset = c * order.len() / clients;
                scope.spawn(move || {
                    client(
                        config, warehouses, prep, order, offset, c as u64, started, deadline,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let duration = started.elapsed();
    let (wanted, steal) = crate::stats::machine_ticks();
    let wanted = wanted.saturating_sub(wanted_at_start);
    Window {
        duration,
        cpu_at_start,
        cpu_at_end: crate::stats::process_cpu(),
        evictions: evictions() - evictions_before,
        steal_share: steal.saturating_sub(steal_at_start) as f64 / wanted.max(1) as f64,
        speed: Speed::of(logs.iter().flat_map(|c| c.kernel.iter().copied()).collect()),
        clients: logs,
    }
}

#[allow(clippy::too_many_arguments)]
fn client(
    config: &RunConfig,
    warehouses: &[Warehouse],
    prep: &Prep,
    order: &[(usize, usize)],
    offset: usize,
    client: u64,
    origin: Instant,
    deadline: Instant,
) -> ClientLog {
    let workload = config.workload;
    let mut log = ClientLog::default();
    let mut tracer = Tracer::new(origin);
    let mut pass = 0;
    let mut step = 0;
    let mut acc = PassAcc::new(order.len());
    let mut calibrated: Option<Instant> = None;
    while Instant::now() < deadline {
        // Between requests, so the kernel and a request never share the
        // client's thread or the engine's workers.
        if calibrated.is_none_or(|at| at.elapsed() >= calib::INTERVAL) {
            let at = origin.elapsed();
            log.kernel.push((at, calib::kernel()));
            calibrated = Some(Instant::now());
        }
        if step == 0 && workload == Workload::CustomerPlan {
            for w in warehouses {
                w.engine.plan_cache().clear();
            }
        }
        // Traced and untraced requests alternate, and the parity flips each
        // pass, so both see the same conditions and the same queries.
        let traced = config.trace && (step + pass) % 2 == 1;
        let (k, i) = order[(offset + step) % order.len()];
        let (w, q) = (&warehouses[k], &warehouses[k].queries[i]);
        let request_id = (client << 48) | log.samples.len() as u64;
        let started = Instant::now();
        let result = if traced {
            let mut trace = RequestTrace::start(&mut tracer, request_id);
            let result = request(workload, w, q, Some(&mut trace));
            trace.finish();
            result
        } else {
            request(workload, w, q, None)
        };
        let latency = started.elapsed();
        let shadows: Duration = tracer
            .spans
            .iter()
            .rev()
            .take_while(|s| traced && s.request == request_id)
            .filter(|s| s.covers.is_some())
            .map(Span::duration)
            .sum();
        let ok = result.is_ok();
        match result {
            Ok(out) => {
                let expected = prep.reference[k][i].rows;
                if out.rows != expected {
                    log.mismatches.push(format!(
                        "warehouse {k} query {i}: {} rows, reference has {expected}",
                        out.rows
                    ));
                }
                let estimate = out
                    .stmt
                    .as_ref()
                    .or(q.stmt.as_ref())
                    .expect("every workload has a statement for its estimates")
                    .estimated_cost();
                acc.add((offset + step) % order.len(), &out, estimate);
                if traced {
                    log.elapsed.push(out.metrics.elapsed);
                    log.tuples += out.metrics.total_tuples();
                    if workload == Workload::JobServe {
                        log.queue_wait.push(out.queue_wait);
                        log.server_overhead.push(
                            out.server_wall
                                .saturating_sub(out.queue_wait)
                                .saturating_sub(out.metrics.elapsed),
                        );
                    }
                }
            }
            Err(Failure::Rejected(e)) => {
                log.rejected += 1;
                log.errors.push(e);
            }
            Err(Failure::Failed(e)) => log.errors.push(e),
        }
        log.samples.push(Sample {
            latency,
            ok,
            traced,
            effective: latency.saturating_sub(shadows),
            done: origin.elapsed(),
        });
        step += 1;
        if step == order.len() {
            let counts = std::mem::replace(&mut acc, PassAcc::new(order.len())).finish();
            log.passes.push(counts);
            log.pass_ends.push(origin.elapsed());
            log.pass_cpu.push(crate::stats::process_cpu());
            pass += 1;
            step = 0;
        }
    }
    log.spans = tracer.spans;
    log
}

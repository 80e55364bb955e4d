//! Serving-runtime oracle for the multi-tenant `Server` front end: results
//! served through `Server::submit` from many concurrent client threads must
//! be identical to fresh single-threaded `Session` runs, and the
//! traffic-shaping contract (bounded queue, tenant quotas, priority/deadline
//! scheduling, mid-flight cancellation, timeout, panic containment, graceful
//! shutdown) must hold under load.
//!
//! Comparison levels mirror `serving_oracle.rs`: bit-identical rows for
//! requests whose plan is deterministic across serving and oracle, canonical
//! row multisets (and exact row counts) for every request.

use bqo_core::exec::{Batch, ExecConfig};
use bqo_core::workloads::{star, Scale};
use bqo_core::{
    CacheStatus, Engine, OptimizerChoice, Params, PhysicalPlan, QuerySpec, Request, RunOptions,
    SchedulingPolicy, ServeError, Server, ServerConfig, SubmitError, TenantQuota,
};
use bqo_integration_tests::env_threads;
use std::time::{Duration, Instant};

const DIMS: usize = 3;
const ROUNDS: usize = 3;

struct TrafficCase {
    spec: QuerySpec,
    params: Option<Params>,
    /// Whether the serving plan is guaranteed to equal the oracle plan, so
    /// rows can be compared bit for bit instead of as canonical multisets.
    deterministic_plan: bool,
}

fn traffic() -> Vec<TrafficCase> {
    let template = star::build_param_query("serve_by_bound", DIMS, &[0]);
    let wide = star::build_param_query("serve_two_params", DIMS, &[0, 2]);
    let mut out = Vec::new();
    for bound in [2i64, 3, 4] {
        out.push(TrafficCase {
            spec: template.clone(),
            params: Some(Params::new().set("bound0", bound)),
            // In-envelope binds may reuse a plan optimized for a sibling
            // bound; only the first-resolved value's plan is deterministic.
            deterministic_plan: false,
        });
    }
    for bound in [5i64, 8] {
        out.push(TrafficCase {
            spec: wide.clone(),
            params: Some(Params::new().set("bound0", bound).set("bound2", bound)),
            deterministic_plan: false,
        });
    }
    out.push(TrafficCase {
        spec: star::build_query("adhoc_selective", DIMS, &[(2, 1)]),
        params: None,
        deterministic_plan: true,
    });
    out.push(TrafficCase {
        spec: star::build_query("adhoc_mixed", DIMS, &[(0, 7), (1, 12)]),
        params: None,
        deterministic_plan: true,
    });
    out
}

/// A plain spec request with default options.
fn plain_request(spec: &QuerySpec) -> Request {
    Request::builder()
        .query(spec)
        .optimizer(OptimizerChoice::Bqo)
        .build()
        .unwrap()
}

/// A single-threaded execution configuration whose scans sleep per morsel:
/// the deterministic slow-query fixture used by the cancellation, deadline
/// and scheduling tests (a star query at this scale takes hundreds of
/// milliseconds instead of microseconds, giving a wide cancel window).
fn slow_config() -> ExecConfig {
    ExecConfig::default()
        .with_num_threads(1)
        .with_morsel_size(16)
        .with_scan_throttle(Duration::from_millis(4))
}

/// Rows as a plan-order-independent canonical form: each row becomes its
/// sorted `(qualified column, value)` pairs, and the rows are sorted.
fn canonical_rows(batch: &Batch) -> Vec<Vec<(String, String)>> {
    let schema: Vec<String> = batch
        .schema()
        .iter()
        .map(|c| format!("{}.{}", c.relation, c.column))
        .collect();
    let mut rows: Vec<Vec<(String, String)>> = (0..batch.num_rows())
        .map(|r| {
            let physical = batch.physical_row(r);
            let mut row: Vec<(String, String)> = schema
                .iter()
                .zip(batch.columns())
                .map(|(name, col)| (name.clone(), col.value(physical).to_string()))
                .collect();
            row.sort();
            row
        })
        .collect();
    rows.sort();
    rows
}

/// Fresh single-threaded prepare+run of every traffic case against its own
/// engine (empty cache -> the optimizer runs for exactly this bind).
fn oracle_outputs(catalog: &bqo_core::Catalog, cases: &[TrafficCase]) -> Vec<(u64, Batch)> {
    cases
        .iter()
        .map(|r| {
            let engine = Engine::from_catalog(catalog.clone());
            let stmt = match &r.params {
                Some(params) => engine.bind(&r.spec, params, OptimizerChoice::Bqo).unwrap(),
                None => engine.prepare(&r.spec, OptimizerChoice::Bqo).unwrap(),
            };
            let out = engine
                .session()
                .execute(&stmt, RunOptions::new().collecting_rows())
                .unwrap();
            (out.result.output_rows, out.rows.expect("rows collected"))
        })
        .collect()
}

/// ≥ 4 client threads hammer one `Server` with mixed cached/uncached
/// parameterized traffic; every ticket's output must match a fresh
/// single-threaded prepare+run against a fresh engine.
#[test]
fn server_matches_fresh_single_threaded_sessions() {
    let catalog = star::build_catalog(Scale(0.02), DIMS, 99);
    let engine = Engine::from_catalog(catalog.clone());
    let server = Server::new(
        engine.clone(),
        ServerConfig::default()
            .with_max_concurrent_queries(3)
            .with_queue_capacity(256),
    );
    let cases = traffic();
    let oracle = oracle_outputs(&catalog, &cases);

    let num_clients = env_threads().max(4);
    std::thread::scope(|scope| {
        for worker in 0..num_clients {
            let server = server.clone();
            let cases = &cases;
            let oracle = &oracle;
            scope.spawn(move || {
                // Each client submits with a different batch size (results
                // are config-invariant) and a rotated request order, so
                // queued, running and cache-hit requests interleave.
                let config = ExecConfig::default()
                    .with_batch_size(257 + worker * 119)
                    .with_num_threads(1 + worker % 3)
                    .with_parallel_threshold(1);
                for round in 0..ROUNDS {
                    // Submit the whole round first (tickets outstanding
                    // concurrently), then collect.
                    let tickets: Vec<(usize, _)> = (0..cases.len())
                        .map(|i| {
                            let idx = (i + worker + round) % cases.len();
                            let case = &cases[idx];
                            let mut builder = Request::builder()
                                .query(&case.spec)
                                .optimizer(OptimizerChoice::Bqo)
                                .exec_config(config)
                                .collect_rows();
                            if let Some(params) = &case.params {
                                builder = builder.params(params);
                            }
                            let ticket = server
                                .submit(builder.build().unwrap())
                                .expect("queue capacity covers a full round");
                            (idx, ticket)
                        })
                        .collect();
                    for (idx, ticket) in tickets {
                        let output = ticket.wait().expect("request serves");
                        let (oracle_rows, oracle_batch) = &oracle[idx];
                        let label = format!("worker {worker} round {round} request {idx}");
                        assert_eq!(output.result.output_rows, *oracle_rows, "{label}");
                        let batch = output.rows.expect("rows were collected");
                        if cases[idx].deterministic_plan {
                            assert_eq!(&batch, oracle_batch, "{label}");
                        }
                        assert_eq!(
                            canonical_rows(&batch),
                            canonical_rows(oracle_batch),
                            "{label}"
                        );
                        assert!(output.cache_status.is_some(), "{label}");
                        assert!(output.total_wall >= output.queue_wait, "{label}");
                    }
                }
            });
        }
    });

    let total = (num_clients * ROUNDS * cases.len()) as u64;
    let stats = server.stats();
    assert_eq!(stats.admitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(
        stats.rejected + stats.cancelled + stats.failed + stats.panicked,
        0
    );
    assert_eq!(stats.queue_depth, 0);
    // Every dispatched request fed the latency histograms.
    assert_eq!(stats.queue_wait.count, total);
    assert_eq!(stats.run_time.count, total);
    assert!(stats.run_time.p50 <= stats.run_time.p99);
    assert!(stats.run_time.max >= stats.run_time.mean);
    // The server's traffic resolved against the engine's shared plan cache:
    // one entry per template/ad-hoc fingerprint, mostly optimizer-free.
    let cache = engine.plan_cache();
    assert_eq!(
        cache.hits() + cache.misses() + cache.reoptimizations(),
        total
    );
    assert!(cache.hits() > 0, "cached serving must hit");
    assert_eq!(cache.len(), 4);

    server.shutdown();
    // Shutdown rejects new traffic but preserves stats.
    let spec = star::build_query("late", DIMS, &[(0, 3)]);
    assert_eq!(
        server.submit(plain_request(&spec)).unwrap_err(),
        SubmitError::ShutDown
    );
    assert_eq!(server.stats().completed, total);
    assert_eq!(server.stats().rejected, 1);
}

/// Mixed-tenant scheduling traffic: clients submit with different tenants,
/// priorities and (generous) deadlines, plus a sprinkle of queued
/// cancellations. Every completed request must still match the fresh
/// single-threaded oracle bit for bit / as a canonical multiset, and the
/// per-tenant counters must reconcile with the global ones.
#[test]
fn mixed_scheduling_traffic_matches_oracle() {
    let catalog = star::build_catalog(Scale(0.02), DIMS, 101);
    let engine = Engine::from_catalog(catalog.clone());
    let server = Server::new(
        engine,
        ServerConfig::default()
            .with_max_concurrent_queries(3)
            .with_queue_capacity(256)
            .with_tenant_quota(TenantQuota::new(256, 2)),
    );
    let cases = traffic();
    let oracle = oracle_outputs(&catalog, &cases);
    let tenants = ["analytics", "dashboards"];

    let num_clients = env_threads().max(4);
    std::thread::scope(|scope| {
        for worker in 0..num_clients {
            let server = server.clone();
            let cases = &cases;
            let oracle = &oracle;
            scope.spawn(move || {
                let config = ExecConfig::default()
                    .with_batch_size(193 + worker * 67)
                    .with_num_threads(1 + worker % 2)
                    .with_parallel_threshold(1);
                for round in 0..ROUNDS {
                    let tickets: Vec<(usize, _)> = (0..cases.len())
                        .map(|i| {
                            let idx = (i + worker + round) % cases.len();
                            let case = &cases[idx];
                            let mut builder = Request::builder()
                                .query(&case.spec)
                                .optimizer(OptimizerChoice::Bqo)
                                .exec_config(config)
                                .collect_rows()
                                .tenant(tenants[(worker + i) % tenants.len()])
                                .priority(((worker + i) % 3) as i32);
                            if i % 2 == 0 {
                                // Generous: scheduling pressure without drops.
                                builder = builder.deadline(Duration::from_secs(300));
                            }
                            if let Some(params) = &case.params {
                                builder = builder.params(params);
                            }
                            let ticket = server
                                .submit(builder.build().unwrap())
                                .expect("queue capacity covers a full round");
                            (idx, ticket)
                        })
                        .collect();
                    for (idx, ticket) in tickets {
                        let output = ticket.wait().expect("request serves");
                        let (oracle_rows, oracle_batch) = &oracle[idx];
                        let label = format!("worker {worker} round {round} request {idx}");
                        assert_eq!(output.result.output_rows, *oracle_rows, "{label}");
                        let batch = output.rows.expect("rows were collected");
                        if cases[idx].deterministic_plan {
                            assert_eq!(&batch, oracle_batch, "{label}");
                        }
                        assert_eq!(
                            canonical_rows(&batch),
                            canonical_rows(oracle_batch),
                            "{label}"
                        );
                    }
                }
            });
        }
    });

    let total = (num_clients * ROUNDS * cases.len()) as u64;
    let stats = server.stats();
    assert_eq!(stats.admitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.deadline_expired, 0, "deadlines were generous");
    // Per-tenant accounting reconciles with the global counters.
    let per_tenant: Vec<_> = tenants.iter().map(|t| server.stats_for(t)).collect();
    assert_eq!(
        per_tenant.iter().map(|s| s.admitted).sum::<u64>(),
        total,
        "every request was accounted to a tenant"
    );
    assert_eq!(per_tenant.iter().map(|s| s.completed).sum::<u64>(), total);
    for (tenant, s) in tenants.iter().zip(&per_tenant) {
        assert!(s.admitted > 0, "tenant {tenant} saw traffic");
        assert_eq!(s.queued, 0);
        assert_eq!(s.running, 0);
        assert_eq!(s.queue_wait.count, s.completed, "{tenant}");
        assert_eq!(s.run_time.count, s.completed, "{tenant}");
    }
    // A tenant the server never saw reports zeros.
    assert_eq!(server.stats_for("nobody").admitted, 0);
}

/// Deterministic queue saturation: with dispatching paused, admissions
/// beyond `queue_capacity` must be rejected with `QueueFull`; resuming
/// drains the backlog and every admitted request completes correctly.
#[test]
fn saturated_queue_rejects_with_queue_full() {
    let catalog = star::build_catalog(Scale(0.02), 2, 5);
    let engine = Engine::from_catalog(catalog.clone());
    let server = Server::new(
        engine,
        ServerConfig::default()
            .with_max_concurrent_queries(1)
            .with_queue_capacity(3),
    );
    let spec = star::build_query("saturate", 2, &[(0, 4)]);
    let expected = {
        let engine = Engine::from_catalog(catalog);
        let stmt = engine.prepare(&spec, OptimizerChoice::Bqo).unwrap();
        engine
            .session()
            .execute(&stmt, RunOptions::new())
            .unwrap()
            .result
            .output_rows
    };

    server.pause();
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            server
                .submit(plain_request(&spec))
                .expect("within queue capacity")
        })
        .collect();
    // The queue is at capacity: further submissions bounce, repeatedly.
    for _ in 0..5 {
        assert_eq!(
            server.submit(plain_request(&spec)).unwrap_err(),
            SubmitError::QueueFull { capacity: 3 }
        );
    }
    let stats = server.stats();
    assert_eq!(stats.queue_depth, 3);
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.rejected, 5);

    server.resume();
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap().result.output_rows, expected);
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.total_wall > Duration::ZERO);
}

/// Per-tenant admission quota: a tenant at its queued bound is rejected with
/// `TenantQuotaExceeded` while other tenants (and anonymous requests) are
/// still admitted; cancelling one of its queued requests frees the slot.
#[test]
fn tenant_quota_bounds_queued_requests() {
    let catalog = star::build_catalog(Scale(0.02), 2, 23);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default()
            .with_max_concurrent_queries(1)
            .with_queue_capacity(32)
            .with_tenant_quota(TenantQuota::new(2, 1)),
    );
    let spec = star::build_query("quota", 2, &[(0, 4)]);
    let for_tenant = |tenant: &str| {
        Request::builder()
            .query(&spec)
            .tenant(tenant)
            .build()
            .unwrap()
    };

    server.pause();
    let a1 = server.submit(for_tenant("a")).unwrap();
    let _a2 = server.submit(for_tenant("a")).unwrap();
    // Tenant "a" is at max_queued = 2.
    assert_eq!(
        server.submit(for_tenant("a")).unwrap_err(),
        SubmitError::TenantQuotaExceeded
    );
    // The quota is per tenant: tenant "b" and anonymous requests still fit.
    let _b1 = server.submit(for_tenant("b")).unwrap();
    let _anon = server.submit(plain_request(&spec)).unwrap();
    let stats_a = server.stats_for("a");
    assert_eq!(
        (stats_a.admitted, stats_a.rejected, stats_a.queued),
        (2, 1, 2)
    );
    assert_eq!(server.stats_for("b").queued, 1);

    // Cancelling one of "a"'s queued requests frees its quota slot at once.
    assert!(a1.cancel());
    let a3 = server.submit(for_tenant("a")).unwrap();
    assert_eq!(server.stats_for("a").queued, 2);

    server.resume();
    server.shutdown();
    assert!(a3.wait().is_ok());
    let stats = server.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(server.stats_for("a").cancelled, 1);
}

/// Priority scheduling under saturation: with the backlog full of slow
/// low-priority requests, a later high-priority submission is dispatched
/// next (not behind the whole backlog). The FIFO baseline, in contrast,
/// serves the backlog in submission order.
#[test]
fn high_priority_is_not_starved_by_a_low_priority_backlog() {
    let catalog = star::build_catalog(Scale(0.02), 2, 31);
    let spec = star::build_query("starve", 2, &[(0, 4)]);
    let low_backlog = 4;
    // ~250ms per backlog query: slow enough to observe scheduling, fast
    // enough that draining both phases stays cheap.
    let backlog_config = ExecConfig::default()
        .with_num_threads(1)
        .with_morsel_size(64)
        .with_scan_throttle(Duration::from_millis(4));

    // Priority/deadline policy: the high-priority probe overtakes the
    // backlog — it completes while low-priority requests are still queued.
    let engine = Engine::from_catalog(catalog.clone());
    let server = Server::new(
        engine,
        ServerConfig::default()
            .with_max_concurrent_queries(1)
            .with_queue_capacity(64),
    );
    server.pause();
    let lows: Vec<_> = (0..low_backlog)
        .map(|_| {
            let request = Request::builder()
                .query(&spec)
                .priority(0)
                .exec_config(backlog_config)
                .build()
                .unwrap();
            server.submit(request).unwrap()
        })
        .collect();
    let probe = Request::builder().query(&spec).priority(5).build().unwrap();
    let high = server.submit(probe).unwrap();
    server.resume();
    let output = high.wait().expect("high-priority probe serves");
    assert!(output.result.output_rows > 0);
    // The probe finished while most of the slow backlog was still pending:
    // it waited for at most the one query already in flight, not all of them.
    let pending = server.stats().queue_depth + server.stats().running;
    assert!(
        pending >= low_backlog - 1,
        "probe overtook the backlog (still pending: {pending})"
    );
    server.shutdown();
    for low in lows {
        assert!(low.wait().is_ok(), "backlog still drains");
    }

    // FIFO baseline: the same traffic serves strictly in submission order,
    // so the probe finishes last.
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default()
            .with_max_concurrent_queries(1)
            .with_queue_capacity(64)
            .with_policy(SchedulingPolicy::Fifo),
    );
    server.pause();
    let lows: Vec<_> = (0..low_backlog)
        .map(|_| {
            let request = Request::builder()
                .query(&spec)
                .priority(0)
                .exec_config(backlog_config)
                .build()
                .unwrap();
            server.submit(request).unwrap()
        })
        .collect();
    let probe = Request::builder().query(&spec).priority(5).build().unwrap();
    let high = server.submit(probe).unwrap();
    server.resume();
    high.wait().expect("probe serves eventually");
    // Under FIFO the probe ran last: the whole backlog already finished.
    for low in &lows {
        assert!(low.is_finished(), "FIFO served the backlog first");
    }
    server.shutdown();
}

/// Mid-flight cancellation: a cancel issued after execution starts aborts
/// the query cooperatively (within roughly one morsel — far sooner than the
/// throttled query would take to finish), returns the partial metrics, and
/// frees the execution slot for the next request.
#[test]
fn midflight_cancel_aborts_and_frees_the_slot() {
    let catalog = star::build_catalog(Scale(0.02), 2, 37);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default().with_max_concurrent_queries(1),
    );
    let spec = star::build_query("long_running", 2, &[(0, 4)]);
    // ~250 fact morsels x 4ms >= 1s of throttled scan time.
    let slow = Request::builder()
        .query(&spec)
        .exec_config(slow_config())
        .build()
        .unwrap();
    let ticket = server.submit(slow).unwrap();

    // Wait until the request is actually executing (not just queued).
    let started = Instant::now();
    while server.stats().running == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "request never started"
        );
        std::thread::yield_now();
    }
    let cancelled_at = Instant::now();
    assert!(ticket.cancel(), "running requests accept cancellation");
    let err = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect_err("cancelled request yields no output");
    match err {
        ServeError::Cancelled { partial } => {
            let partial = partial.expect("mid-flight cancel keeps partial metrics");
            assert!(partial.elapsed > Duration::ZERO);
        }
        other => panic!("expected mid-flight cancellation, got {other:?}"),
    }
    // The abort was cooperative, not a run-to-completion: the full throttled
    // scan takes >= 1s, the abort is bounded by a few morsels.
    assert!(
        cancelled_at.elapsed() < Duration::from_millis(500),
        "cancel aborted mid-flight in {:?}",
        cancelled_at.elapsed()
    );

    // The dispatcher slot is free: the very next request serves normally.
    let next = server.submit(plain_request(&spec)).unwrap();
    assert!(next.wait().expect("slot was freed").result.output_rows > 0);
    let stats = server.stats();
    assert_eq!((stats.cancelled, stats.completed), (1, 1));
}

/// A deadline that expires mid-execution aborts the query cooperatively and
/// surfaces as `DeadlineExceeded` with the partial metrics.
#[test]
fn deadline_aborts_a_running_request_with_partial_metrics() {
    let catalog = star::build_catalog(Scale(0.02), 2, 41);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default().with_max_concurrent_queries(1),
    );
    let spec = star::build_query("deadlined", 2, &[(0, 4)]);
    // The throttled query needs >= 1s; the deadline is far shorter but still
    // leaves plenty of time to be dispatched.
    let request = Request::builder()
        .query(&spec)
        .exec_config(slow_config())
        .deadline(Duration::from_millis(200))
        .build()
        .unwrap();
    let ticket = server.submit(request).unwrap();
    let err = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect_err("expired request yields no output");
    match err {
        ServeError::DeadlineExceeded { partial } => {
            // Dispatch latency is microseconds here, so the deadline fires
            // mid-execution and the partial metrics survive the abort.
            let partial = partial.expect("mid-flight expiry keeps partial metrics");
            assert!(partial.elapsed > Duration::ZERO);
        }
        other => panic!("expected a deadline abort, got {other:?}"),
    }
    assert_eq!(server.stats().deadline_expired, 1);

    // The dispatcher survived; the next request serves normally.
    let next = server.submit(plain_request(&spec)).unwrap();
    assert!(next.wait().expect("server still serves").result.output_rows > 0);
}

/// Regression: `wait_timeout` on a request whose deadline already passed
/// while it sat queued must return `DeadlineExceeded` immediately — not
/// block for the full wait bound.
#[test]
fn expired_queued_deadline_resolves_wait_immediately() {
    let catalog = star::build_catalog(Scale(0.02), 2, 43);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default().with_max_concurrent_queries(1),
    );
    let spec = star::build_query("expired", 2, &[(0, 4)]);

    server.pause(); // nothing dispatches -> the deadline expires in-queue
    let request = Request::builder()
        .query(&spec)
        .deadline(Duration::from_millis(10))
        .build()
        .unwrap();
    let ticket = server.submit(request).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let waited = Instant::now();
    let err = ticket
        .wait_timeout(Duration::from_secs(60))
        .expect_err("expired request yields no output");
    assert_eq!(err, ServeError::DeadlineExceeded { partial: None });
    assert!(
        waited.elapsed() < Duration::from_secs(5),
        "wait returned immediately, not after the 60s bound (took {:?})",
        waited.elapsed()
    );
    // The dead request's admission slot was freed and the expiry counted.
    assert_eq!(server.stats().queue_depth, 0);
    assert_eq!(server.stats().deadline_expired, 1);

    // Repeated waits keep returning the retained outcome.
    assert_eq!(
        ticket.wait().unwrap_err(),
        ServeError::DeadlineExceeded { partial: None }
    );
    server.resume();
}

/// A panicking statement (malformed hand-built plan) must surface through
/// `Ticket::wait` as `ServeError::Panicked` — and the dispatcher must
/// survive to serve the next request.
#[test]
fn worker_panic_propagates_through_ticket_wait() {
    let catalog = star::build_catalog(Scale(0.02), 2, 7);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine.clone(),
        ServerConfig::default().with_max_concurrent_queries(1),
    );

    // A plan with no root: executing it panics inside the dispatcher.
    let spec = star::build_query("panicking", 2, &[(0, 3)]);
    let graph = spec.to_join_graph(engine.catalog()).unwrap();
    let malformed = Request::builder()
        .plan("malformed", graph, PhysicalPlan::new())
        .build()
        .unwrap();
    let ticket = server.submit(malformed).unwrap();
    match ticket.wait() {
        Err(ServeError::Panicked(message)) => {
            assert!(message.contains("no root"), "{message}");
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
    assert_eq!(server.stats().panicked, 1);

    // The dispatcher survived: the very next request is served normally.
    let ticket = server.submit(plain_request(&spec)).unwrap();
    let output = ticket.wait().expect("server still serves after a panic");
    assert!(output.result.output_rows > 0);
    assert_eq!(output.cache_status, Some(CacheStatus::Miss));
    assert_eq!(server.stats().completed, 1);
}

/// Cancelling a queued request resolves its ticket with `Cancelled` without
/// executing it; finished requests refuse cancellation.
#[test]
fn cancel_resolves_queued_requests_immediately() {
    let catalog = star::build_catalog(Scale(0.02), 2, 11);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default().with_max_concurrent_queries(1),
    );
    let spec = star::build_query("cancellable", 2, &[(1, 5)]);

    server.pause();
    let keep = server.submit(plain_request(&spec)).unwrap();
    let drop_me = server.submit(plain_request(&spec)).unwrap();
    assert_eq!(server.stats().queue_depth, 2);
    assert!(drop_me.cancel(), "queued requests are cancellable");
    assert!(!drop_me.cancel(), "cancel is not double-counted");
    assert_eq!(
        drop_me.wait().unwrap_err(),
        ServeError::Cancelled { partial: None }
    );
    // Cancellation frees the admission slot immediately — it never waits for
    // a dispatcher to reach the dead request.
    assert_eq!(server.stats().queue_depth, 1);
    assert_eq!(server.stats().cancelled, 1);
    server.resume();

    let output = keep.wait().expect("uncancelled request serves");
    assert!(output.result.output_rows > 0);
    assert!(!keep.cancel(), "finished requests refuse cancellation");
    server.shutdown();
    let stats = server.stats();
    assert_eq!((stats.completed, stats.cancelled), (1, 1));
}

/// Cancelling queued requests relieves `QueueFull` backpressure at once: a
/// full queue of cancelled requests accepts new submissions immediately.
#[test]
fn cancel_relieves_queue_backpressure() {
    let catalog = star::build_catalog(Scale(0.02), 2, 19);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default()
            .with_max_concurrent_queries(1)
            .with_queue_capacity(2),
    );
    let spec = star::build_query("relief", 2, &[(0, 5)]);

    server.pause();
    let tickets: Vec<_> = (0..2)
        .map(|_| server.submit(plain_request(&spec)).unwrap())
        .collect();
    assert_eq!(
        server.submit(plain_request(&spec)).unwrap_err(),
        SubmitError::QueueFull { capacity: 2 }
    );
    for ticket in &tickets {
        assert!(ticket.cancel());
    }
    // Both slots freed without any dispatcher involvement.
    assert_eq!(server.stats().queue_depth, 0);
    let live = server.submit(plain_request(&spec)).unwrap();
    server.resume();
    assert!(
        live.wait()
            .expect("admitted request serves")
            .result
            .output_rows
            > 0
    );
    let stats = server.stats();
    assert_eq!(
        (stats.completed, stats.cancelled, stats.rejected),
        (1, 2, 1)
    );
}

/// `Ticket::wait` honors the server's default timeout; the request keeps
/// running and a later unbounded wait still collects the result.
#[test]
fn default_timeout_bounds_wait_without_killing_the_request() {
    let catalog = star::build_catalog(Scale(0.02), 2, 13);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default()
            .with_max_concurrent_queries(1)
            .with_default_timeout(Duration::from_millis(1)),
    );
    let spec = star::build_query("timed", 2, &[(0, 6)]);

    server.pause(); // nothing dispatches -> the bounded wait must time out
    let ticket = server.submit(plain_request(&spec)).unwrap();
    assert_eq!(ticket.wait().unwrap_err(), ServeError::TimedOut);
    assert!(ticket.try_wait().is_none());
    server.resume();

    let output = ticket
        .wait_timeout(Duration::from_secs(60))
        .expect("request finishes once dispatching resumes");
    assert!(output.result.output_rows > 0);
    assert!(ticket.is_finished());
    // The retained outcome can be collected again, now within any bound.
    assert!(ticket.wait().is_ok());
}

/// Graceful shutdown drains the backlog: every admitted ticket resolves.
#[test]
fn shutdown_drains_queued_requests() {
    let catalog = star::build_catalog(Scale(0.02), 2, 17);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default()
            .with_max_concurrent_queries(2)
            .with_queue_capacity(32),
    );
    let spec = star::build_query("draining", 2, &[(0, 8)]);

    server.pause();
    let tickets: Vec<_> = (0..8)
        .map(|_| server.submit(plain_request(&spec)).unwrap())
        .collect();
    // Shutdown while paused: the backlog still drains before the
    // dispatchers exit.
    server.shutdown();
    for ticket in tickets {
        assert!(ticket.wait().is_ok());
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.running, 0);
}

//! The serving-grade `Engine` facade: a cheaply shareable handle over the
//! catalog, a selectivity-aware plan cache, owned prepared statements and
//! lightweight execution sessions.
//!
//! ```text
//! Engine (Arc-internal, Clone + Send + Sync)
//!   ├── prepare(spec, choice)          -> PreparedStatement   (owned, 'static)
//!   ├── bind(spec, params, choice)     -> PreparedStatement   (via PlanCache)
//!   └── session() -> Session ── execute(&stmt, RunOptions) -> StatementOutput
//! ```

use crate::cache::{CacheStats, CacheStatus, PlanCache};
use crate::{BqoError, OptimizerChoice};
use bqo_exec::{
    Batch, BoundPlan, CancelToken, ExecConfig, ExecutionMetrics, Executor, QueryResult, WorkerPool,
};
use bqo_optimizer::{BaselineOptimizer, BqoOptimizer, Optimizer};
use bqo_plan::{CostModel, CoutBreakdown, JoinGraph, Params, PhysicalPlan, QuerySpec};
use bqo_storage::{Catalog, ForeignKey, Table};
use std::sync::{Arc, OnceLock};

/// Minimum effective parallelism the engine's worker pool is sized for when
/// the builder does not pin an explicit [`EngineBuilder::worker_threads`]:
/// the pool gets `max(default num_threads, available_parallelism, 4) - 1`
/// helper threads, so per-session `num_threads` overrides up to at least 4
/// (and up to the hardware width) are served by parked pool workers instead
/// of the scoped-spawn fallback.
const MIN_DEFAULT_PARALLELISM: usize = 4;

/// Default helper-worker count for an engine pool (see
/// [`MIN_DEFAULT_PARALLELISM`]). The calling thread always participates as
/// worker 0, hence the `- 1`.
fn default_pool_workers(config: ExecConfig) -> usize {
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
    config
        .num_threads
        .max(hardware)
        .max(MIN_DEFAULT_PARALLELISM)
        - 1
}

#[derive(Debug)]
struct EngineInner {
    catalog: Catalog,
    exec_config: ExecConfig,
    /// Snapshot of `catalog.version()` at build time; folded into every
    /// plan-cache key so engines over different catalog generations sharing
    /// one [`PlanCache`] never serve each other's plans.
    catalog_version: u64,
    /// Snapshot of `catalog.schema_tag()` at build time: a content hash that
    /// keeps *diverged* clones with coinciding mutation counts apart in the
    /// cache key (the version alone is a bare count).
    catalog_tag: u64,
    cache: PlanCache,
    /// Helper-thread count of the engine-owned worker pool.
    pool_workers: usize,
    /// The persistent worker pool serving every parallel section of every
    /// session (and every `Server` dispatcher) of this engine. Spawned
    /// lazily on the first parallel run, so serial-only engines never start
    /// threads; shut down (threads joined) when the engine's last clone
    /// drops.
    pool: OnceLock<WorkerPool>,
}

impl Default for EngineInner {
    fn default() -> Self {
        let exec_config = ExecConfig::default();
        EngineInner {
            catalog: Catalog::default(),
            exec_config,
            catalog_version: 0,
            catalog_tag: 0,
            cache: PlanCache::default(),
            pool_workers: default_pool_workers(exec_config),
            pool: OnceLock::new(),
        }
    }
}

/// The unified query engine: a catalog, a default execution configuration and
/// a plan cache behind one `Arc` — cloning an `Engine` is a reference-count
/// bump, and every clone (and every thread) observes the same cache.
///
/// Construct one with [`Engine::builder`] (or [`Engine::from_catalog`] when a
/// workload generator already produced the catalog), then turn a
/// [`QuerySpec`] into an owned [`PreparedStatement`] with [`Engine::prepare`]
/// (literal queries) or [`Engine::bind`] (parameterized queries), and execute
/// it through a [`Session`]:
///
/// ```
/// use bqo_core::{Engine, OptimizerChoice, RunOptions};
/// use bqo_core::workloads::{star, Scale};
///
/// let workload = star::generate(Scale(0.02), 3, 1, 42);
/// let engine = Engine::builder().catalog(workload.catalog).build().unwrap();
/// let session = engine.session();
/// let stmt = engine
///     .prepare(&workload.queries[0], OptimizerChoice::Bqo)
///     .unwrap();
/// let out = session.execute(&stmt, RunOptions::new()).unwrap();
/// assert!(out.result.output_rows > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Wraps an existing catalog (e.g. one produced by the workload
    /// generators) with the default execution configuration and a fresh plan
    /// cache.
    pub fn from_catalog(catalog: Catalog) -> Self {
        let exec_config = ExecConfig::default();
        Engine {
            inner: Arc::new(EngineInner {
                catalog_version: catalog.version(),
                catalog_tag: catalog.schema_tag(),
                catalog,
                exec_config,
                cache: PlanCache::new(),
                pool_workers: default_pool_workers(exec_config),
                pool: OnceLock::new(),
            }),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// The engine's default execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.inner.exec_config
    }

    /// The plan cache serving [`Engine::prepare`] and [`Engine::bind`]
    /// (exposes hit/miss/re-optimization counters).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.inner.cache
    }

    /// The catalog version this engine was built against.
    pub fn catalog_version(&self) -> u64 {
        self.inner.catalog_version
    }

    /// One consolidated observability snapshot: plan-cache counters, the
    /// worker-pool size, and the catalog generation — replacing the scattered
    /// per-component getters in dashboards and examples.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache: self.inner.cache.cache_stats(),
            pool_workers: self.inner.pool_workers,
            catalog_version: self.inner.catalog_version,
            catalog_tables: self.inner.catalog.len(),
        }
    }

    /// The engine-owned persistent [`WorkerPool`] backing every parallel
    /// section run through this engine's sessions. Spawned lazily on first
    /// use; its threads are joined when the engine's last clone drops.
    /// Cloning the returned handle is cheap and shares the workers.
    pub fn worker_pool(&self) -> &WorkerPool {
        self.inner
            .pool
            .get_or_init(|| WorkerPool::new(self.inner.pool_workers))
    }

    /// Builds the executor for one run: parallel configurations draw their
    /// helper workers from the engine pool, serial ones never touch (or
    /// spawn) it.
    fn executor_for(&self, config: ExecConfig) -> Executor<'_> {
        let executor = Executor::with_config(&self.inner.catalog, config);
        if config.num_threads > 1 {
            executor.with_worker_pool(self.worker_pool().clone())
        } else {
            executor
        }
    }

    /// Opens a session with the engine's default execution configuration.
    /// Sessions are cheap (an `Arc` clone plus a `Copy` config) — open one
    /// per thread or per request.
    pub fn session(&self) -> Session {
        Session {
            engine: self.clone(),
            exec_config: self.inner.exec_config,
        }
    }

    /// Resolves and optimizes a literal (fully bound) query into an owned
    /// [`PreparedStatement`], consulting the plan cache.
    ///
    /// Parameterized specs must go through [`Engine::bind`]; preparing one
    /// directly is a planning error naming the first unbound parameter.
    pub fn prepare(
        &self,
        query: &QuerySpec,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        self.prepare_fingerprinted(query, query.fingerprint(), choice)
    }

    /// Parses and binds a SQL `SELECT` against this engine's catalog,
    /// returning the lowered [`QuerySpec`] (see [`bqo_sql`] for the
    /// supported grammar). Lexer/parser/binder errors surface as planning
    /// errors carrying the caret diagnostic (or the structured
    /// table/column/type variant) and the query text as the label.
    pub fn parse_sql(&self, sql: &str) -> Result<QuerySpec, BqoError> {
        bqo_sql::lower(sql, &self.inner.catalog)
            .map_err(|e| BqoError::planning(bqo_sql::query_label(sql), e.to_storage()))
    }

    /// Parses, binds and prepares a literal SQL query — the SQL face of
    /// [`Engine::prepare`]. The plan cache is consulted under the lowered
    /// spec's canonical fingerprint, so the same query modulo literal
    /// order (reordered predicates, swapped join sides, shuffled joins)
    /// hits the same cache entry. Parameterized SQL (`$name` placeholders)
    /// must go through [`Engine::bind_sql`].
    pub fn prepare_sql(
        &self,
        sql: &str,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        let spec = self.parse_sql(sql)?;
        let mut stmt = self.prepare(&spec, choice)?;
        stmt.sql = Some(sql.to_string());
        Ok(stmt)
    }

    /// Parses a parameterized SQL template and binds it with `params` — the
    /// SQL face of [`Engine::bind`]: selectivities are re-derived from the
    /// bound literals and the plan cache is consulted under the *template*
    /// fingerprint, so repeated binds of one SQL template share a cache
    /// entry.
    pub fn bind_sql(
        &self,
        sql: &str,
        params: &Params,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        let spec = self.parse_sql(sql)?;
        let mut stmt = self.bind(&spec, params, choice)?;
        stmt.sql = Some(sql.to_string());
        Ok(stmt)
    }

    /// Binds a parameterized query and prepares it: placeholders are
    /// substituted from `params`, per-relation cardinalities and
    /// selectivities are re-derived from catalog statistics for the bound
    /// values, and the plan cache is consulted under the *template*
    /// fingerprint — so repeated binds of one template share a cache entry,
    /// and a bind whose selectivities leave the stored envelope transparently
    /// re-optimizes (see [`PlanCache`]).
    pub fn bind(
        &self,
        query: &QuerySpec,
        params: &Params,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        let bound = query
            .bind(params)
            .map_err(|e| BqoError::planning(&query.name, e))?;
        self.prepare_fingerprinted(&bound, query.fingerprint(), choice)
    }

    fn prepare_fingerprinted(
        &self,
        bound: &QuerySpec,
        fingerprint: String,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        let graph = bound
            .to_join_graph(&self.inner.catalog)
            .map_err(|e| BqoError::planning(&bound.name, e))?;
        let key = format!(
            "v{}-{:016x}|{}|{fingerprint}",
            self.inner.catalog_version,
            self.inner.catalog_tag,
            choice.display_label()
        );
        let (plan, cache_status) = self
            .inner
            .cache
            .resolve(&key, &graph, || optimize(&graph, choice));
        // The cached plan may have been optimized for different (in-envelope)
        // selectivities; the cost estimate is always re-derived for *this*
        // bind's statistics — a cheap model evaluation, not an optimizer run.
        let estimated_cost = CostModel::new(&graph).cout_physical(&plan);
        Ok(PreparedStatement {
            name: bound.name.clone(),
            choice,
            graph,
            plan,
            estimated_cost,
            cache_status,
            default_exec: self.inner.exec_config,
            sql: None,
        })
    }

    /// Convenience: prepare and run in one call with the engine's execution
    /// configuration.
    pub fn run(&self, query: &QuerySpec, choice: OptimizerChoice) -> Result<QueryResult, BqoError> {
        let stmt = self.prepare(query, choice)?;
        self.session()
            .execute(&stmt, RunOptions::new())
            .map(|out| out.result)
    }

    /// Executes a hand-built physical plan (e.g. a specific join order under
    /// study, as in the Figure 2 experiment) with the engine's execution
    /// configuration. Error context is labelled with the joined relation
    /// names; use [`Engine::execute_plan_named`] when a real query name is
    /// available.
    pub fn execute_plan(
        &self,
        graph: &JoinGraph,
        plan: &PhysicalPlan,
    ) -> Result<QueryResult, BqoError> {
        self.execute_plan_named_with(&plan_label(graph), graph, plan, self.inner.exec_config)
    }

    /// Executes a hand-built physical plan with an explicit configuration.
    pub fn execute_plan_with(
        &self,
        graph: &JoinGraph,
        plan: &PhysicalPlan,
        config: ExecConfig,
    ) -> Result<QueryResult, BqoError> {
        self.execute_plan_named_with(&plan_label(graph), graph, plan, config)
    }

    /// Executes a hand-built physical plan, attaching `name` (e.g. the
    /// originating query's name) to any execution error.
    pub fn execute_plan_named(
        &self,
        name: &str,
        graph: &JoinGraph,
        plan: &PhysicalPlan,
    ) -> Result<QueryResult, BqoError> {
        self.execute_plan_named_with(name, graph, plan, self.inner.exec_config)
    }

    /// Executes a hand-built physical plan with an explicit configuration,
    /// attaching `name` to any execution error.
    pub fn execute_plan_named_with(
        &self,
        name: &str,
        graph: &JoinGraph,
        plan: &PhysicalPlan,
        config: ExecConfig,
    ) -> Result<QueryResult, BqoError> {
        self.execute_plan_request(name, graph, plan, config, None)
    }

    /// Cancellation-aware plan execution for the serving layer: like
    /// [`Engine::execute_plan_named_with`], additionally observing `cancel`.
    pub(crate) fn execute_plan_request(
        &self,
        name: &str,
        graph: &JoinGraph,
        plan: &PhysicalPlan,
        config: ExecConfig,
        cancel: Option<CancelToken>,
    ) -> Result<QueryResult, BqoError> {
        let mut executor = self.executor_for(config);
        if let Some(token) = cancel {
            executor = executor.with_cancel_token(token);
        }
        executor
            .execute_bound(BoundPlan::new(graph, plan))
            .map_err(|e| BqoError::from_exec(name, e))
    }
}

/// One consolidated snapshot of the engine's observable state, returned by
/// [`Engine::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Plan-cache counters (hits, misses, re-optimizations, evictions,
    /// occupancy).
    pub cache: CacheStats,
    /// Helper-thread count the engine's worker pool is (or will be) sized to.
    /// The pool itself spawns lazily; this is the configured size either way.
    pub pool_workers: usize,
    /// The catalog generation the engine was built against.
    pub catalog_version: u64,
    /// Number of tables in the catalog.
    pub catalog_tables: usize,
}

/// Runs the chosen optimizer over a resolved join graph.
fn optimize(graph: &JoinGraph, choice: OptimizerChoice) -> PhysicalPlan {
    match choice {
        OptimizerChoice::Baseline => BaselineOptimizer::new().optimize(graph),
        OptimizerChoice::BaselineNoBitvectors => {
            BaselineOptimizer::without_bitvectors().optimize(graph)
        }
        OptimizerChoice::Bqo => BqoOptimizer::new().optimize(graph),
        OptimizerChoice::BqoWithThreshold(t) => BqoOptimizer::with_threshold(t).optimize(graph),
    }
}

/// Descriptive label for ad-hoc plans executed without a query name: the
/// joined relation names.
fn plan_label(graph: &JoinGraph) -> String {
    if graph.num_relations() == 0 {
        return "(empty plan)".to_string();
    }
    let names: Vec<&str> = graph.relations().iter().map(|r| r.name.as_str()).collect();
    names.join(" ⋈ ")
}

/// Renders a row-count knob, showing `usize::MAX` as "unbatched".
fn render_rows(n: usize) -> String {
    if n == usize::MAX {
        "unbatched".to_string()
    } else {
        n.to_string()
    }
}

/// Renders the execution-configuration line appended to EXPLAIN output.
fn render_exec_config(config: ExecConfig) -> String {
    format!(
        "execution: batch_size={}, num_threads={}, morsel_size={}, zone_map_pruning={}\n",
        render_rows(config.batch_size),
        config.num_threads,
        render_rows(config.effective_morsel_size()),
        if config.zone_map_pruning { "on" } else { "off" }
    )
}

/// Renders the storage-counter line appended to EXPLAIN ANALYZE output:
/// chunks read vs pruned by zone maps (with the pruning ratio) and bytes
/// fetched. Purely in-memory plans report zero chunks.
fn render_storage_counters(metrics: &ExecutionMetrics) -> String {
    format!(
        "storage: chunks_read={}, chunks_pruned={} (pruned {:.1}%), bytes_read={}\n",
        metrics.chunks_read,
        metrics.chunks_pruned,
        metrics.chunk_pruning_ratio() * 100.0,
        metrics.bytes_read
    )
}

/// Builder for [`Engine`]: registers tables and constraints, sets the
/// execution configuration and (optionally) a shared plan cache, and
/// validates everything at [`EngineBuilder::build`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    catalog: Catalog,
    exec_config: ExecConfig,
    cache: Option<PlanCache>,
    worker_threads: Option<usize>,
    primary_keys: Vec<(String, String)>,
    foreign_keys: Vec<ForeignKey>,
}

impl EngineBuilder {
    /// Uses an existing catalog as the starting point.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Registers a table.
    pub fn table(mut self, table: Table) -> Self {
        self.catalog.register_table(table);
        self
    }

    /// Declares a primary key (drives PKFK join detection). Validated at
    /// [`EngineBuilder::build`].
    pub fn primary_key(mut self, table: impl Into<String>, column: impl Into<String>) -> Self {
        self.primary_keys.push((table.into(), column.into()));
        self
    }

    /// Declares a foreign key. Validated at [`EngineBuilder::build`].
    pub fn foreign_key(mut self, fk: ForeignKey) -> Self {
        self.foreign_keys.push(fk);
        self
    }

    /// Sets the execution configuration (filter kind, bitvectors on/off,
    /// batch size, morsel size, worker-thread count, parallel threshold).
    pub fn exec_config(mut self, config: ExecConfig) -> Self {
        self.exec_config = config;
        self
    }

    /// Pins the engine's persistent worker pool to exactly `threads` helper
    /// threads (the calling thread always participates as worker 0 on top).
    /// Without this, the pool is sized to
    /// `max(default num_threads, available_parallelism, 4) - 1`. `0` disables
    /// the pool: parallel sections fall back to per-section scoped spawns —
    /// the lever the serving-throughput bench uses to measure what the pool
    /// saves.
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = Some(threads);
        self
    }

    /// Uses a shared plan cache instead of a fresh one. Entries are keyed by
    /// catalog version, so engines built over *different generations of the
    /// same catalog lineage* can safely share a cache (a version bump
    /// invalidates the older engine's entries for the newer one). Unrelated
    /// catalogs should not share a cache.
    pub fn plan_cache(mut self, cache: PlanCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Validates the declared constraints and builds the engine.
    pub fn build(mut self) -> Result<Engine, BqoError> {
        for (table, column) in &self.primary_keys {
            self.catalog
                .declare_primary_key(table, column)
                .map_err(BqoError::setup)?;
        }
        for fk in self.foreign_keys.drain(..) {
            self.catalog
                .declare_foreign_key(fk)
                .map_err(BqoError::setup)?;
        }
        Ok(Engine {
            inner: Arc::new(EngineInner {
                catalog_version: self.catalog.version(),
                catalog_tag: self.catalog.schema_tag(),
                catalog: self.catalog,
                exec_config: self.exec_config,
                cache: self.cache.unwrap_or_default(),
                pool_workers: self
                    .worker_threads
                    .unwrap_or_else(|| default_pool_workers(self.exec_config)),
                pool: OnceLock::new(),
            }),
        })
    }
}

/// An owned, fully bound and optimized statement: the resolved join graph,
/// the chosen physical plan (with bitvector placements) and its estimated
/// cost. Carries no engine borrow — it is `'static`, `Send + Sync`, cheap to
/// clone (the plan is `Arc`-shared with the cache) and can be executed by any
/// [`Session`] of the engine it was prepared against.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    name: String,
    choice: OptimizerChoice,
    graph: JoinGraph,
    plan: Arc<PhysicalPlan>,
    estimated_cost: CoutBreakdown,
    cache_status: CacheStatus,
    default_exec: ExecConfig,
    /// The original SQL text, for statements prepared through
    /// [`Engine::prepare_sql`] / [`Engine::bind_sql`].
    sql: Option<String>,
}

impl PreparedStatement {
    /// The query's name (copied from the [`QuerySpec`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which optimizer produced the plan.
    pub fn choice(&self) -> OptimizerChoice {
        self.choice
    }

    /// The statistics-annotated join graph the statement was bound against.
    pub fn graph(&self) -> &JoinGraph {
        &self.graph
    }

    /// The physical plan, including bitvector filter placements.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// The plan as a shared handle (the same allocation the plan cache
    /// serves to other statements).
    pub fn shared_plan(&self) -> Arc<PhysicalPlan> {
        Arc::clone(&self.plan)
    }

    /// Estimated bitvector-aware `Cout` of the plan, re-derived for this
    /// statement's bound selectivities.
    pub fn estimated_cost(&self) -> &CoutBreakdown {
        &self.estimated_cost
    }

    /// Whether this statement's plan came from the cache ([`CacheStatus::Hit`]),
    /// a first optimization ([`CacheStatus::Miss`]) or an envelope-exit
    /// re-optimization ([`CacheStatus::Reoptimized`]).
    pub fn cache_status(&self) -> CacheStatus {
        self.cache_status
    }

    /// The statement viewed as the execution layer's bound-plan unit.
    pub fn bound(&self) -> BoundPlan<'_> {
        BoundPlan::new(&self.graph, &self.plan)
    }

    /// EXPLAIN-style rendering of the plan, followed by the engine's default
    /// execution configuration (batch size, worker-thread count and morsel
    /// size). Use [`Session::explain`] (or [`PreparedStatement::explain_with`])
    /// to render a session's overridden configuration instead.
    pub fn explain(&self) -> String {
        self.explain_with(self.default_exec)
    }

    /// EXPLAIN-style rendering of the plan followed by an explicit execution
    /// configuration. Statements prepared from SQL lead with the original
    /// query text.
    pub fn explain_with(&self, config: ExecConfig) -> String {
        let mut out = String::new();
        if let Some(sql) = &self.sql {
            out.push_str(&format!("sql: {sql}\n"));
        }
        out.push_str(&self.plan.explain(&self.graph));
        out.push_str(&render_exec_config(config));
        out
    }

    /// The original SQL text, for statements prepared through
    /// [`Engine::prepare_sql`] / [`Engine::bind_sql`]; `None` for
    /// spec-prepared statements.
    pub fn sql(&self) -> Option<&str> {
        self.sql.as_deref()
    }
}

/// Per-run knobs for [`Session::execute`]: an optional [`ExecConfig`]
/// override, whether to collect the output rows, and an optional
/// [`CancelToken`] observed by the run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Execution configuration for this run; `None` uses the session's.
    pub exec_config: Option<ExecConfig>,
    /// When true, the concatenated output rows are returned in
    /// [`StatementOutput::rows`] — the differential-testing mode the oracle
    /// harnesses use to compare results bit for bit.
    pub collect_rows: bool,
    /// Cancel token the run observes cooperatively; firing it (or its
    /// deadline passing) aborts the run within roughly one morsel,
    /// surfacing as a [`BqoError`] with [`BqoError::is_cancelled`] set and
    /// the partial metrics attached.
    pub cancel: Option<CancelToken>,
}

impl RunOptions {
    /// Default options: session config, no row collection, no cancel token.
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// The same options with an explicit execution configuration.
    pub fn with_exec_config(mut self, config: ExecConfig) -> Self {
        self.exec_config = Some(config);
        self
    }

    /// The same options collecting the output rows.
    pub fn collecting_rows(mut self) -> Self {
        self.collect_rows = true;
        self
    }

    /// The same options observing `token` for cooperative cancellation.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Everything one [`Session::execute`] run produces: the query result, the
/// collected rows (when [`RunOptions::collect_rows`] was set) and how the
/// statement's plan was obtained from the cache.
#[derive(Debug, Clone)]
pub struct StatementOutput {
    /// Row count and execution metrics.
    pub result: QueryResult,
    /// Concatenated output rows, present iff the run collected them.
    pub rows: Option<Batch>,
    /// The statement's plan-cache status (copied from the statement — a
    /// property of preparation, repeated here so serving callers get the
    /// whole story from one value).
    pub cache_status: CacheStatus,
}

/// A lightweight execution handle: an engine reference plus per-session
/// [`ExecConfig`] overrides. Sessions are `Clone + Send + Sync`; open one per
/// thread or request and run any number of [`PreparedStatement`]s through it
/// via [`Session::execute`].
#[derive(Debug, Clone)]
pub struct Session {
    engine: Engine,
    exec_config: ExecConfig,
}

impl Session {
    /// The engine this session executes against.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The session's execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec_config
    }

    /// The same session with a different execution configuration (e.g.
    /// bitvectors disabled, exact filters, another batch size or
    /// worker-thread count).
    pub fn with_exec_config(mut self, config: ExecConfig) -> Self {
        self.exec_config = config;
        self
    }

    /// Convenience passthrough to [`Engine::prepare`].
    pub fn prepare(
        &self,
        query: &QuerySpec,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        self.engine.prepare(query, choice)
    }

    /// Convenience passthrough to [`Engine::bind`].
    pub fn bind(
        &self,
        query: &QuerySpec,
        params: &Params,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        self.engine.bind(query, params, choice)
    }

    /// Runs a prepared statement through the pull-based operator pipeline —
    /// the single execution entry point. [`RunOptions`] selects the
    /// configuration (session default unless overridden), whether to collect
    /// output rows, and an optional cancel token:
    ///
    /// ```ignore
    /// let out = session.execute(&stmt, RunOptions::new())?;                  // plain run
    /// let out = session.execute(&stmt, RunOptions::new().collecting_rows())?; // + rows
    /// ```
    pub fn execute(
        &self,
        stmt: &PreparedStatement,
        options: RunOptions,
    ) -> Result<StatementOutput, BqoError> {
        let config = options.exec_config.unwrap_or(self.exec_config);
        let mut executor = self.engine.executor_for(config);
        if let Some(token) = options.cancel {
            executor = executor.with_cancel_token(token);
        }
        let (result, rows) = if options.collect_rows {
            executor
                .execute_bound_with_rows(stmt.bound())
                .map(|(result, rows)| (result, Some(rows)))
        } else {
            executor.execute_bound(stmt.bound()).map(|r| (r, None))
        }
        .map_err(|e| BqoError::from_exec(&stmt.name, e))?;
        Ok(StatementOutput {
            result,
            rows,
            cache_status: stmt.cache_status,
        })
    }

    /// EXPLAIN-style rendering of a statement's plan under the session's
    /// execution configuration.
    pub fn explain(&self, stmt: &PreparedStatement) -> String {
        stmt.explain_with(self.exec_config)
    }

    /// EXPLAIN ANALYZE: renders the plan (each scan labelled with its
    /// backing, `scan=memory` or `scan=file`), executes the statement under
    /// the session's configuration, and appends the observed storage
    /// counters — chunks read vs pruned by zone maps, the pruning ratio and
    /// bytes fetched. Purely in-memory plans report zero chunks.
    pub fn explain_analyze(&self, stmt: &PreparedStatement) -> Result<String, BqoError> {
        let out = self.execute(stmt, RunOptions::new())?;
        let mut text = stmt.explain_with(self.exec_config);
        text.push_str(&render_storage_counters(&out.result.metrics));
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The serving contract: everything a multi-threaded server shares is
    // Send + Sync and free of borrowed lifetimes.
    #[allow(dead_code)]
    fn assert_send_sync<T: Send + Sync + 'static>() {}

    #[test]
    fn serving_types_are_send_sync_and_owned() {
        assert_send_sync::<Engine>();
        assert_send_sync::<Session>();
        assert_send_sync::<PreparedStatement>();
        assert_send_sync::<PlanCache>();
    }

    #[test]
    fn plan_label_names_relations() {
        use bqo_plan::RelationInfo;
        let mut g = JoinGraph::new();
        assert_eq!(plan_label(&g), "(empty plan)");
        g.add_relation(RelationInfo::new("fact", 1.0, 1.0));
        g.add_relation(RelationInfo::new("dim", 1.0, 1.0));
        assert_eq!(plan_label(&g), "fact ⋈ dim");
    }

    #[test]
    fn exec_config_rendering_reports_all_knobs() {
        let line = render_exec_config(ExecConfig::default());
        assert!(line.contains("batch_size=4096"), "{line}");
        assert!(line.contains("num_threads=1"), "{line}");
        assert!(line.contains("morsel_size=4096"), "{line}");
        let line = render_exec_config(
            ExecConfig::default()
                .with_batch_size(usize::MAX)
                .with_num_threads(4)
                .with_morsel_size(64),
        );
        assert!(line.contains("batch_size=unbatched"), "{line}");
        assert!(line.contains("num_threads=4"), "{line}");
        assert!(line.contains("morsel_size=64"), "{line}");
    }
}

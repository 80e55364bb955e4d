//! The plan executor: a thin driver over the pull-based operator pipeline.

use crate::batch::Batch;
use crate::cancel::CancelToken;
use crate::metrics::ExecutionMetrics;
use crate::pipeline::{ExecContext, PipelineBuilder};
use crate::pool::WorkerPool;
use bqo_bitvector::FilterKind;
use bqo_plan::{JoinGraph, PhysicalPlan};
use bqo_storage::{Catalog, StorageError};
use std::fmt;
use std::time::{Duration, Instant};

/// Default number of rows per batch pulled through the pipeline.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// Default [`ExecConfig::parallel_threshold`]: minimum rows per worker before
/// a kernel fans out to helper workers. Tiny inputs run inline — fanning out
/// (even to a parked pool worker) costs more than a few hundred probes.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 2048;

/// Execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Which bitvector filter implementation hash joins build.
    pub filter_kind: FilterKind,
    /// When false, bitvector placements are ignored entirely — the setting
    /// used for the "without bitvector filters" columns of Table 4.
    pub enable_bitvectors: bool,
    /// Rows per batch pulled through the operator pipeline. Any value
    /// produces identical results and counters; `usize::MAX` is effectively
    /// unbatched (one batch per scan). Values below 1 are treated as 1.
    pub batch_size: usize,
    /// Worker threads for the morsel-parallel sections (scan predicate and
    /// bitvector-probe evaluation, partitioned hash-join build, hash-probe
    /// and residual-filter loops). `1` (the default) runs everything inline
    /// on the calling thread — the serial path. Results and all counters are
    /// bit-identical for every value; values below 1 are treated as 1.
    pub num_threads: usize,
    /// Rows per scan morsel handed to the worker pool. `None` (the default)
    /// uses [`ExecConfig::batch_size`]. Smaller morsels spread work across
    /// more workers without changing the batch boundaries seen by parent
    /// operators, so results and counters are independent of this knob.
    pub morsel_size: Option<usize>,
    /// Minimum rows per worker before a parallel section fans out to helper
    /// workers; inputs smaller than one worker's share run inline on the
    /// calling thread. Purely an overhead guard — results and counters are
    /// identical for every value (kernels partition contiguous row ranges and
    /// merge in order). Lower it (e.g. to 1) to force fan-out on small
    /// inputs, as the serving-throughput bench does to isolate scheduling
    /// costs. Values below 1 are treated as 1.
    pub parallel_threshold: usize,
    /// Latency-injection knob: sleep this long inside every scan morsel
    /// kernel. `None` (the default) adds nothing. Results and counters are
    /// unaffected — the sleep happens before the kernel touches any rows —
    /// so a throttled run is bit-identical to an unthrottled one, just
    /// slower with a known per-morsel granularity. Tests and benches use it
    /// to build deterministic long-running queries for cancellation and
    /// scheduling scenarios.
    pub scan_throttle: Option<Duration>,
    /// Zone-map chunk pruning for file-backed scans (`true` by default). A
    /// chunk whose min/max bounds prove that no row can satisfy a local
    /// predicate — or that no surviving build key of a pushed-down
    /// bitvector filter can fall in the chunk's key range — is skipped
    /// without being read. Rows, batch boundaries and `FilterStats` are
    /// identical with pruning on or off (pruning only removes provably
    /// dead work); `false` force-disables it for A/B measurements and
    /// oracle tests.
    pub zone_map_pruning: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            filter_kind: FilterKind::default(),
            enable_bitvectors: true,
            batch_size: DEFAULT_BATCH_SIZE,
            num_threads: 1,
            morsel_size: None,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            scan_throttle: None,
            zone_map_pruning: true,
        }
    }
}

impl ExecConfig {
    /// Configuration with bitvector filtering disabled.
    pub fn without_bitvectors() -> Self {
        ExecConfig {
            enable_bitvectors: false,
            ..Default::default()
        }
    }

    /// Configuration with exact (no-false-positive) filters.
    pub fn exact_filters() -> Self {
        ExecConfig {
            filter_kind: FilterKind::Exact,
            ..Default::default()
        }
    }

    /// The same configuration with a different batch size. Values below 1
    /// are clamped to 1 (a zero batch size would otherwise stall the
    /// pipeline); `usize::MAX` is effectively unbatched. Every batch size
    /// produces identical results and counters.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// The same configuration with a different worker-thread count. Values
    /// below 1 are clamped to 1 (the serial path) rather than panicking, so
    /// e.g. a misconfigured environment variable degrades to serial
    /// execution.
    pub fn with_num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads.max(1);
        self
    }

    /// The same configuration with an explicit scan morsel size (clamped to
    /// at least 1). Without this, scans use one morsel per batch.
    pub fn with_morsel_size(mut self, morsel_size: usize) -> Self {
        self.morsel_size = Some(morsel_size.max(1));
        self
    }

    /// The scan morsel size in effect: the explicit [`ExecConfig::morsel_size`]
    /// if set, the batch size otherwise.
    pub fn effective_morsel_size(&self) -> usize {
        self.morsel_size.unwrap_or(self.batch_size).max(1)
    }

    /// The same configuration with a different inline-gate threshold (clamped
    /// to at least 1): parallel sections fan out only when the input exceeds
    /// `parallel_threshold` rows per helper worker.
    pub fn with_parallel_threshold(mut self, parallel_threshold: usize) -> Self {
        self.parallel_threshold = parallel_threshold.max(1);
        self
    }

    /// The same configuration sleeping `throttle` inside every scan morsel
    /// kernel — the deterministic slow-query fixture for cancellation and
    /// scheduling tests (see [`ExecConfig::scan_throttle`]).
    pub fn with_scan_throttle(mut self, throttle: Duration) -> Self {
        self.scan_throttle = Some(throttle);
        self
    }

    /// The same configuration with zone-map chunk pruning switched on or
    /// off. Off is the A/B baseline: identical rows and counters except
    /// `chunks_pruned`, which stays 0.
    pub fn with_zone_map_pruning(mut self, enabled: bool) -> Self {
        self.zone_map_pruning = enabled;
        self
    }

    /// Number of workers worth fanning out for `rows` rows under this
    /// configuration: at most one per [`ExecConfig::parallel_threshold`]
    /// rows, capped by [`ExecConfig::num_threads`].
    pub fn workers_for(&self, rows: usize) -> usize {
        self.num_threads
            .min(rows.div_ceil(self.parallel_threshold.max(1)).max(1))
    }
}

/// A bound, executable statement: the resolved (statistics-annotated) join
/// graph together with the physical plan chosen for it.
///
/// This is the execution layer's view of `bqo-core`'s `PreparedStatement`:
/// the run entry points ([`Executor::execute_bound`],
/// [`Executor::execute_bound_with_rows`]) take this pair as one unit so
/// callers cannot accidentally execute a plan against the wrong graph.
#[derive(Debug, Clone, Copy)]
pub struct BoundPlan<'a> {
    /// The join graph supplying relation names and local predicates.
    pub graph: &'a JoinGraph,
    /// The physical plan (join order + bitvector placements) to execute.
    pub plan: &'a PhysicalPlan,
}

impl<'a> BoundPlan<'a> {
    /// Bundles a graph and a plan into one executable unit.
    pub fn new(graph: &'a JoinGraph, plan: &'a PhysicalPlan) -> Self {
        BoundPlan { graph, plan }
    }
}

/// Errors surfaced by the executor's run entry points.
///
/// Ordinary runtime failures (missing table, bad column, …) pass through as
/// [`ExecError::Storage`]. A run aborted by its [`CancelToken`] — explicit
/// cancel or deadline expiry — surfaces as [`ExecError::Cancelled`] carrying
/// the metrics gathered up to the abort point, so the serving layer can
/// report how much work a killed query performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A runtime failure from storage or pipeline lowering.
    Storage(StorageError),
    /// The run's cancel token fired; `metrics` holds the partial counters
    /// accumulated before execution stopped (elapsed is set to the wall time
    /// until the abort).
    Cancelled {
        /// Metrics gathered before the abort.
        metrics: Box<ExecutionMetrics>,
    },
}

impl ExecError {
    /// Whether this error is the cancellation variant.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ExecError::Cancelled { .. })
    }

    /// The partial metrics of a cancelled run, if this is the cancellation
    /// variant.
    pub fn partial_metrics(&self) -> Option<&ExecutionMetrics> {
        match self {
            ExecError::Cancelled { metrics } => Some(metrics),
            ExecError::Storage(_) => None,
        }
    }

    /// Collapses the error back into the underlying [`StorageError`]
    /// (cancellation becomes `StorageError::Cancelled`), dropping any partial
    /// metrics — for callers that only care about the failure kind.
    pub fn into_storage_error(self) -> StorageError {
        match self {
            ExecError::Storage(e) => e,
            ExecError::Cancelled { .. } => StorageError::Cancelled,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(e) => e.fmt(f),
            ExecError::Cancelled { .. } => write!(f, "execution was cancelled"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(e) => Some(e),
            ExecError::Cancelled { .. } => None,
        }
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

/// The result of executing one query plan.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Number of rows produced by the plan root (the paper's queries are
    /// `COUNT(*)` aggregations over the join, so the row count is the query
    /// answer).
    pub output_rows: u64,
    /// Execution metrics.
    pub metrics: ExecutionMetrics,
}

/// Executes physical plans against the tables of a catalog by compiling them
/// into a pull-based operator pipeline (see [`crate::operators`]) and
/// draining the root operator batch by batch.
///
/// This is the low-level entry point used inside the execution layer; user
/// code goes through the `Engine` facade in `bqo-core`.
#[derive(Debug)]
pub struct Executor<'a> {
    catalog: &'a Catalog,
    config: ExecConfig,
    pool: Option<WorkerPool>,
    cancel: Option<CancelToken>,
}

impl<'a> Executor<'a> {
    /// Creates an executor with the default configuration.
    pub fn new(catalog: &'a Catalog) -> Self {
        Executor {
            catalog,
            config: ExecConfig::default(),
            pool: None,
            cancel: None,
        }
    }

    /// Creates an executor with an explicit configuration.
    pub fn with_config(catalog: &'a Catalog, config: ExecConfig) -> Self {
        Executor {
            catalog,
            config,
            pool: None,
            cancel: None,
        }
    }

    /// Attaches a persistent [`WorkerPool`]: parallel sections dispatch their
    /// helper claim loops to the pool's parked workers instead of spawning
    /// scoped threads per section. The `Engine` facade in `bqo-core` attaches
    /// its engine-owned pool here for every parallel run; results and
    /// counters are identical with and without a pool.
    pub fn with_worker_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches a [`CancelToken`]: the run aborts with
    /// [`ExecError::Cancelled`] within roughly one morsel (or one serial
    /// batch) of the token firing or its deadline passing. Without a token,
    /// runs are uninterruptible, as before.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// Executes a physical plan. The join graph supplies relation names
    /// (to find tables in the catalog) and local predicates.
    pub fn execute(
        &self,
        graph: &JoinGraph,
        plan: &PhysicalPlan,
    ) -> Result<QueryResult, ExecError> {
        let (result, _) = self.run(graph, plan, false)?;
        Ok(result)
    }

    /// Executes a physical plan and additionally returns the concatenated
    /// output rows. This is the differential-testing entry point: the
    /// parallel-oracle harness compares the returned [`Batch`] bit for bit
    /// across `(batch_size, num_threads)` configurations.
    pub fn execute_with_rows(
        &self,
        graph: &JoinGraph,
        plan: &PhysicalPlan,
    ) -> Result<(QueryResult, Batch), ExecError> {
        let (result, rows) = self.run(graph, plan, true)?;
        Ok((result, rows.expect("rows were collected")))
    }

    /// Executes a bound statement — the entry point the serving facade in
    /// `bqo-core` drives with its owned `PreparedStatement`s.
    pub fn execute_bound(&self, bound: BoundPlan<'_>) -> Result<QueryResult, ExecError> {
        self.execute(bound.graph, bound.plan)
    }

    /// Executes a bound statement and additionally returns the concatenated
    /// output rows (see [`Executor::execute_with_rows`]).
    pub fn execute_bound_with_rows(
        &self,
        bound: BoundPlan<'_>,
    ) -> Result<(QueryResult, Batch), ExecError> {
        self.execute_with_rows(bound.graph, bound.plan)
    }

    fn run(
        &self,
        graph: &JoinGraph,
        plan: &PhysicalPlan,
        collect_rows: bool,
    ) -> Result<(QueryResult, Option<Batch>), ExecError> {
        let start = Instant::now();
        let mut ctx = ExecContext::with_pool(self.config, self.pool.clone());
        if let Some(token) = &self.cancel {
            ctx = ctx.with_cancel_token(token.clone());
        }
        let mut root = PipelineBuilder::new(self.catalog, graph, plan, self.config).build()?;
        let mut output_rows = 0u64;
        let mut collected = Vec::new();
        // Drive the pipeline, capturing the first failure instead of
        // `?`-returning so `close` always runs and the context's partial
        // metrics survive a cancellation.
        let failure = (|| -> Result<(), StorageError> {
            root.open(&mut ctx)?;
            while let Some(batch) = root.next_batch(&mut ctx)? {
                output_rows += batch.num_rows() as u64;
                if collect_rows {
                    collected.push(batch);
                }
            }
            Ok(())
        })()
        .err();
        root.close(&mut ctx);
        let mut metrics = ctx.into_metrics();
        metrics.elapsed = start.elapsed();
        match failure {
            Some(StorageError::Cancelled) => Err(ExecError::Cancelled {
                metrics: Box::new(metrics),
            }),
            Some(other) => Err(ExecError::Storage(other)),
            None => {
                let rows = collect_rows.then(|| Batch::concat(collected));
                Ok((
                    QueryResult {
                        output_rows,
                        metrics,
                    },
                    rows,
                ))
            }
        }
    }
}

/// Executes a physical plan against a catalog with the given configuration —
/// the one-call entry point the `Engine` facade in `bqo-core` delegates to.
pub fn execute_plan(
    catalog: &Catalog,
    graph: &JoinGraph,
    plan: &PhysicalPlan,
    config: ExecConfig,
) -> Result<QueryResult, ExecError> {
    Executor::with_config(catalog, config).execute(graph, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OperatorKind;
    use bqo_plan::{
        push_down_bitvectors, ColumnPredicate, CompareOp, JoinEdge, PhysicalPlan, QuerySpec, RelId,
        RelationInfo, RightDeepTree,
    };
    use bqo_storage::generator::DataGenerator;
    use bqo_storage::{Catalog, TableBuilder};

    /// Small hand-built star: fact(12 rows) -> d1(4 rows), d2(3 rows).
    fn tiny_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_table(
            TableBuilder::new("d1")
                .with_i64("sk", vec![0, 1, 2, 3])
                .with_i64("cat", vec![0, 0, 1, 1])
                .build()
                .unwrap(),
        );
        c.register_table(
            TableBuilder::new("d2")
                .with_i64("sk", vec![0, 1, 2])
                .with_i64("flag", vec![1, 0, 1])
                .build()
                .unwrap(),
        );
        c.register_table(
            TableBuilder::new("fact")
                .with_i64("d1_sk", vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3])
                .with_i64("d2_sk", vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
                .with_f64("amount", vec![1.0; 12])
                .build()
                .unwrap(),
        );
        c.declare_primary_key("d1", "sk").unwrap();
        c.declare_primary_key("d2", "sk").unwrap();
        c
    }

    fn tiny_graph() -> (JoinGraph, RelId, RelId, RelId) {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 12.0, 12.0));
        let d1 = g.add_relation(
            RelationInfo::new("d1", 4.0, 2.0).with_predicates(vec![ColumnPredicate::new(
                "cat",
                CompareOp::Eq,
                0i64,
            )]),
        );
        let d2 = g.add_relation(
            RelationInfo::new("d2", 3.0, 2.0).with_predicates(vec![ColumnPredicate::new(
                "flag",
                CompareOp::Eq,
                1i64,
            )]),
        );
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 4.0));
        g.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 3.0));
        (g, fact, d1, d2)
    }

    /// Expected answer: fact rows with d1.cat = 0 (d1_sk in {0,1}) and
    /// d2.flag = 1 (d2_sk in {0,2}): d1_sk∈{0,1} gives 6 rows, of which
    /// d2_sk ∈ {0,2} keeps rows with d2_sk=0 (2 rows: positions 0,1) and
    /// d2_sk=2 (2 rows: positions 8,9) => 4 rows.
    const EXPECTED_ROWS: u64 = 4;

    #[test]
    fn executes_star_join_correctly_with_bitvectors() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let exec = Executor::with_config(&catalog, ExecConfig::exact_filters());
        let result = exec.execute(&g, &plan).unwrap();
        assert_eq!(result.output_rows, EXPECTED_ROWS);
        // Both filters were created and they eliminated fact rows before the
        // joins: the fact scan outputs exactly the surviving 4 rows.
        assert_eq!(result.metrics.filters_created, 2);
        let leaf = result.metrics.tuples_by_kind(OperatorKind::Leaf);
        assert_eq!(leaf, 4 + 2 + 2);
        assert!(result.metrics.filter_stats.eliminated > 0);
    }

    #[test]
    fn bitvectors_do_not_change_the_answer() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        for order in [
            vec![fact, d1, d2],
            vec![fact, d2, d1],
            vec![d1, fact, d2],
            vec![d2, fact, d1],
        ] {
            let tree = RightDeepTree::new(order).to_join_tree();
            let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
            for config in [
                ExecConfig::default(),
                ExecConfig::exact_filters(),
                ExecConfig::without_bitvectors(),
            ] {
                let exec = Executor::with_config(&catalog, config);
                let result = exec.execute(&g, &plan).unwrap();
                assert_eq!(result.output_rows, EXPECTED_ROWS);
            }
        }
    }

    #[test]
    fn batch_size_does_not_change_results_or_counters() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let oracle = Executor::with_config(
            &catalog,
            ExecConfig::exact_filters().with_batch_size(usize::MAX),
        )
        .execute(&g, &plan)
        .unwrap();
        for batch_size in [1usize, 2, 3, 7, 1024] {
            let result = Executor::with_config(
                &catalog,
                ExecConfig::exact_filters().with_batch_size(batch_size),
            )
            .execute(&g, &plan)
            .unwrap();
            assert_eq!(result.output_rows, oracle.output_rows, "{batch_size}");
            assert_eq!(
                result.metrics.filter_stats.probed, oracle.metrics.filter_stats.probed,
                "{batch_size}"
            );
            assert_eq!(
                result.metrics.filter_stats.eliminated, oracle.metrics.filter_stats.eliminated,
                "{batch_size}"
            );
            for kind in [OperatorKind::Leaf, OperatorKind::Join, OperatorKind::Other] {
                assert_eq!(
                    result.metrics.tuples_by_kind(kind),
                    oracle.metrics.tuples_by_kind(kind),
                    "{batch_size} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn disabling_bitvectors_increases_probe_work() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));

        let with = Executor::with_config(&catalog, ExecConfig::exact_filters())
            .execute(&g, &plan)
            .unwrap();
        let without = Executor::with_config(&catalog, ExecConfig::without_bitvectors())
            .execute(&g, &plan)
            .unwrap();
        assert!(without.metrics.total_probe_rows() > with.metrics.total_probe_rows());
        assert_eq!(without.metrics.filters_created, 0);
        assert_eq!(without.metrics.filter_stats.probed, 0);
    }

    #[test]
    fn generated_workload_round_trip() {
        // Build a catalog with the generator, describe the query through
        // QuerySpec, optimize nothing (fixed plan), and check that execution
        // works end to end on a few thousand rows.
        let gen = DataGenerator::new(3);
        let mut catalog = Catalog::new();
        catalog.register_table(gen.dimension_table("store", 50, 5));
        catalog.register_table(gen.dimension_table("item", 200, 10));
        catalog.register_table(gen.fact_table(
            "sales",
            5000,
            &[
                ("store".to_string(), 50, 0.0),
                ("item".to_string(), 200, 0.0),
            ],
        ));
        catalog.declare_primary_key("store", "store_sk").unwrap();
        catalog.declare_primary_key("item", "item_sk").unwrap();

        let spec = QuerySpec::new("q")
            .table("sales")
            .table("store")
            .table("item")
            .join("sales", "store_sk", "store", "store_sk")
            .join("sales", "item_sk", "item", "item_sk")
            .predicate(
                "store",
                ColumnPredicate::new("store_category", CompareOp::Eq, 2i64),
            )
            .predicate(
                "item",
                ColumnPredicate::new("item_category", CompareOp::Lt, 5i64),
            );
        let graph = spec.to_join_graph(&catalog).unwrap();
        let sales = graph.relation_by_name("sales").unwrap();
        let store = graph.relation_by_name("store").unwrap();
        let item = graph.relation_by_name("item").unwrap();

        let tree = RightDeepTree::new(vec![sales, store, item]).to_join_tree();
        let plan = push_down_bitvectors(&graph, PhysicalPlan::from_join_tree(&graph, &tree));

        let with = Executor::new(&catalog).execute(&graph, &plan).unwrap();
        let without = Executor::with_config(&catalog, ExecConfig::without_bitvectors())
            .execute(&graph, &plan)
            .unwrap();
        assert_eq!(with.output_rows, without.output_rows);
        assert!(with.output_rows > 0);
        // The bloom filters (default config) may pass a few extra tuples but
        // never change results; with exact filters leaf output matches the
        // final result contribution exactly.
        assert!(with.metrics.total_probe_rows() <= without.metrics.total_probe_rows());
    }

    #[test]
    fn zero_num_threads_is_clamped_not_a_panic() {
        let config = ExecConfig::default().with_num_threads(0);
        assert_eq!(config.num_threads, 1);
        // And the clamped configuration actually executes.
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let result = Executor::with_config(&catalog, config)
            .execute(&g, &plan)
            .unwrap();
        assert_eq!(result.output_rows, EXPECTED_ROWS);
    }

    #[test]
    fn morsel_size_defaults_to_batch_size_and_is_clamped() {
        let config = ExecConfig::default().with_batch_size(128);
        assert_eq!(config.effective_morsel_size(), 128);
        assert_eq!(config.with_morsel_size(0).effective_morsel_size(), 1);
        assert_eq!(config.with_morsel_size(17).effective_morsel_size(), 17);
    }

    #[test]
    fn parallel_threshold_is_clamped_and_controls_fanout() {
        let config = ExecConfig::default().with_num_threads(8);
        assert_eq!(config.parallel_threshold, DEFAULT_PARALLEL_THRESHOLD);
        assert_eq!(config.workers_for(100), 1);
        assert_eq!(config.workers_for(DEFAULT_PARALLEL_THRESHOLD * 3), 3);
        assert_eq!(config.workers_for(usize::MAX), 8);
        let forced = config.with_parallel_threshold(0);
        assert_eq!(forced.parallel_threshold, 1);
        assert_eq!(forced.workers_for(4), 4);

        // The gate is purely an overhead guard: forcing fan-out on a tiny
        // input changes neither results nor counters.
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let oracle = Executor::with_config(&catalog, ExecConfig::exact_filters())
            .execute_with_rows(&g, &plan)
            .unwrap();
        let config = ExecConfig::exact_filters()
            .with_num_threads(4)
            .with_parallel_threshold(1);
        let (result, rows) = Executor::with_config(&catalog, config)
            .execute_with_rows(&g, &plan)
            .unwrap();
        assert_eq!(result.output_rows, oracle.0.output_rows);
        assert_eq!(result.metrics.operators, oracle.0.metrics.operators);
        assert_eq!(result.metrics.filter_stats, oracle.0.metrics.filter_stats);
        assert_eq!(rows, oracle.1);
    }

    #[test]
    fn pool_backed_executor_matches_the_scoped_path() {
        use crate::pool::WorkerPool;
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let config = ExecConfig::exact_filters()
            .with_num_threads(4)
            .with_parallel_threshold(1);
        let scoped = Executor::with_config(&catalog, config)
            .execute_with_rows(&g, &plan)
            .unwrap();
        let pool = WorkerPool::new(3);
        let pooled = Executor::with_config(&catalog, config)
            .with_worker_pool(pool.clone())
            .execute_with_rows(&g, &plan)
            .unwrap();
        assert_eq!(pooled.0.output_rows, scoped.0.output_rows);
        assert_eq!(pooled.0.metrics.operators, scoped.0.metrics.operators);
        assert_eq!(pooled.0.metrics.filter_stats, scoped.0.metrics.filter_stats);
        assert_eq!(pooled.1, scoped.1);
        // A shut-down pool degrades gracefully (scoped fallback), results
        // unchanged.
        pool.shutdown();
        let degraded = Executor::with_config(&catalog, config)
            .with_worker_pool(pool)
            .execute_with_rows(&g, &plan)
            .unwrap();
        assert_eq!(degraded.1, scoped.1);
    }

    #[test]
    fn num_threads_does_not_change_results_or_counters() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let serial = Executor::with_config(&catalog, ExecConfig::exact_filters())
            .execute_with_rows(&g, &plan)
            .unwrap();
        for threads in [2usize, 4, 8] {
            for batch_size in [1usize, 3, 1024, usize::MAX] {
                let config = ExecConfig::exact_filters()
                    .with_batch_size(batch_size)
                    .with_num_threads(threads);
                let (result, rows) = Executor::with_config(&catalog, config)
                    .execute_with_rows(&g, &plan)
                    .unwrap();
                assert_eq!(result.output_rows, serial.0.output_rows);
                assert_eq!(result.metrics.operators, serial.0.metrics.operators);
                assert_eq!(result.metrics.filter_stats, serial.0.metrics.filter_stats);
                assert_eq!(rows, serial.1, "threads {threads} batch {batch_size}");
            }
        }
    }

    #[test]
    fn bound_plan_entry_point_matches_execute() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let exec = Executor::with_config(&catalog, ExecConfig::exact_filters());
        let direct = exec.execute(&g, &plan).unwrap();
        let bound = exec.execute_bound(BoundPlan::new(&g, &plan)).unwrap();
        assert_eq!(bound.output_rows, direct.output_rows);
        let (result, rows) = exec
            .execute_bound_with_rows(BoundPlan::new(&g, &plan))
            .unwrap();
        assert_eq!(result.output_rows, direct.output_rows);
        assert_eq!(rows.num_rows() as u64, direct.output_rows);
    }

    #[test]
    fn missing_table_in_catalog_is_an_error() {
        let catalog = tiny_catalog();
        let mut g = JoinGraph::new();
        let ghost = g.add_relation(RelationInfo::new("ghost", 10.0, 10.0));
        let tree = RightDeepTree::new(vec![ghost]).to_join_tree();
        let plan = PhysicalPlan::from_join_tree(&g, &tree);
        let exec = Executor::new(&catalog);
        assert!(exec.execute(&g, &plan).is_err());
    }

    #[test]
    fn single_table_scan_with_predicate() {
        let catalog = tiny_catalog();
        let mut g = JoinGraph::new();
        let d1 = g.add_relation(
            RelationInfo::new("d1", 4.0, 2.0).with_predicates(vec![ColumnPredicate::new(
                "cat",
                CompareOp::Eq,
                1i64,
            )]),
        );
        let tree = RightDeepTree::new(vec![d1]).to_join_tree();
        let plan = PhysicalPlan::from_join_tree(&g, &tree);
        let result = Executor::new(&catalog).execute(&g, &plan).unwrap();
        assert_eq!(result.output_rows, 2);
        assert_eq!(result.metrics.tuples_by_kind(OperatorKind::Leaf), 2);
        assert_eq!(result.metrics.tuples_by_kind(OperatorKind::Join), 0);
    }

    #[test]
    fn empty_scan_still_reports_schema_and_zero_rows() {
        let catalog = tiny_catalog();
        let mut g = JoinGraph::new();
        let d1 = g.add_relation(
            RelationInfo::new("d1", 4.0, 0.0).with_predicates(vec![ColumnPredicate::new(
                "cat",
                CompareOp::Eq,
                99i64,
            )]),
        );
        let fact = g.add_relation(RelationInfo::new("fact", 12.0, 12.0));
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 4.0));
        let tree = RightDeepTree::new(vec![fact, d1]).to_join_tree();
        let plan = PhysicalPlan::from_join_tree(&g, &tree);
        let result = Executor::new(&catalog).execute(&g, &plan).unwrap();
        assert_eq!(result.output_rows, 0);
        assert_eq!(result.metrics.tuples_by_kind(OperatorKind::Join), 0);
    }

    #[test]
    fn unfired_cancel_token_changes_nothing() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let plain = Executor::with_config(&catalog, ExecConfig::exact_filters())
            .execute_with_rows(&g, &plan)
            .unwrap();
        let token = CancelToken::new();
        let observed = Executor::with_config(&catalog, ExecConfig::exact_filters())
            .with_cancel_token(token)
            .execute_with_rows(&g, &plan)
            .unwrap();
        assert_eq!(observed.0.output_rows, plain.0.output_rows);
        assert_eq!(observed.1, plain.1);
    }

    #[test]
    fn pre_fired_token_cancels_with_partial_metrics() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let token = CancelToken::new();
        token.cancel();
        for threads in [1usize, 4] {
            let config = ExecConfig::exact_filters()
                .with_num_threads(threads)
                .with_parallel_threshold(1);
            let err = Executor::with_config(&catalog, config)
                .with_cancel_token(token.clone())
                .execute(&g, &plan)
                .unwrap_err();
            assert!(err.is_cancelled(), "threads {threads}");
            let metrics = err.partial_metrics().expect("cancelled carries metrics");
            // Nothing ran, but wall time was still measured.
            assert_eq!(metrics.tuples_by_kind(OperatorKind::Join), 0);
        }
    }

    #[test]
    fn deadline_expiry_mid_run_aborts_a_throttled_query() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        // One-row batches + a 5ms per-morsel throttle make the full fact scan
        // take well over the 10ms deadline, so the run must abort mid-flight.
        let config = ExecConfig::exact_filters()
            .with_batch_size(1)
            .with_scan_throttle(Duration::from_millis(5));
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_millis(10));
        let err = Executor::with_config(&catalog, config)
            .with_cancel_token(token.clone())
            .execute(&g, &plan)
            .unwrap_err();
        assert!(err.is_cancelled());
        assert!(
            !token.cancel_requested(),
            "deadline expiry, not explicit cancel"
        );
        let metrics = err.partial_metrics().expect("partial metrics survive");
        assert!(metrics.elapsed >= Duration::from_millis(10));
    }

    #[test]
    fn scan_throttle_does_not_change_results() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let plain = Executor::with_config(&catalog, ExecConfig::exact_filters())
            .execute_with_rows(&g, &plan)
            .unwrap();
        let throttled = Executor::with_config(
            &catalog,
            ExecConfig::exact_filters().with_scan_throttle(Duration::from_micros(100)),
        )
        .execute_with_rows(&g, &plan)
        .unwrap();
        assert_eq!(throttled.0.output_rows, plain.0.output_rows);
        assert_eq!(throttled.0.metrics.operators, plain.0.metrics.operators);
        assert_eq!(throttled.1, plain.1);
    }

    #[test]
    fn exec_error_display_and_conversions() {
        let storage: ExecError = StorageError::TableNotFound { table: "x".into() }.into();
        assert!(!storage.is_cancelled());
        assert!(storage.partial_metrics().is_none());
        assert!(storage.to_string().contains("`x`"));
        let cancelled = ExecError::Cancelled {
            metrics: Box::new(ExecutionMetrics::new()),
        };
        assert!(cancelled.to_string().contains("cancelled"));
        assert_eq!(cancelled.into_storage_error(), StorageError::Cancelled);
        assert_eq!(
            ExecError::Storage(StorageError::Cancelled).into_storage_error(),
            StorageError::Cancelled
        );
    }
}

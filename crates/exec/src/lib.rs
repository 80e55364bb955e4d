//! Physical execution engine for the BQO reproduction.
//!
//! The paper's experiments execute plans inside Microsoft SQL Server and
//! measure CPU time and per-operator tuple counts. This crate is the
//! stand-in: a pull-based, batch-at-a-time operator pipeline for the physical
//! plans produced by `bqo-plan` / `bqo-optimizer`, with
//!
//! * a [`PhysicalOperator`] trait (`open` / `next_batch` / `close`) with
//!   [`ScanOp`] (local predicates + pushed-down bitvector probes applied per
//!   batch) and [`HashJoinOp`] (build side drained at `open`, its bitvector
//!   filter published to the shared [`ExecContext`], probe side streamed),
//! * a [`PipelineBuilder`] lowering a `PhysicalPlan + JoinGraph` into the
//!   operator tree without cloning plan payloads,
//! * bitvector filters applied wherever Algorithm 1 placed them (scans or
//!   residual positions above joins),
//! * **morsel-driven parallelism** (see [`morsel`]): scan predicate and
//!   filter-probe evaluation, the partitioned hash-join build and the
//!   hash-probe loops run as shared-state-free kernels over fixed-size row
//!   morsels, fanned out across [`ExecConfig::num_threads`] workers with a
//!   deterministic in-morsel-order merge,
//! * **vectorized probe kernels** (see [`kernels`]): [`Batch`]es carry
//!   optional selection vectors so filters mark survivors without copying
//!   rows, bitvector membership is probed 64 rows per survivor word
//!   and composite join keys are hashed column-at-a-time. This is the one
//!   probe/key path; its row-at-a-time oracle is the reference executor in
//!   the integration tests, which shares none of the operator code,
//! * a persistent [`WorkerPool`] (see [`pool`]): helper workers for the
//!   parallel sections are parked pool threads woken per section instead of
//!   freshly spawned ones, so a serving workload of many small queries stops
//!   paying per-query thread start-up ([`Executor::with_worker_pool`];
//!   executors without a pool keep the scoped-spawn fallback), gated by
//!   [`ExecConfig::parallel_threshold`] so tiny inputs stay inline,
//! * **cooperative cancellation** (see [`cancel`]): a cloneable
//!   [`CancelToken`] (atomic flag + optional deadline) attached via
//!   [`Executor::with_cancel_token`] is re-checked at every morsel-claim
//!   boundary of the four parallel sections and at every serial batch pull,
//!   so an in-flight query aborts within roughly one morsel of
//!   [`CancelToken::cancel`] or deadline expiry, surfacing as
//!   [`ExecError::Cancelled`] with the metrics gathered so far,
//! * per-operator metrics (tuples output by leaf / join / other operators,
//!   bitvector probe and elimination counts, wall-clock time) matching the
//!   quantities reported in Figures 7–10 and Table 4, collected inside the
//!   operators where the work happens,
//! * a configurable [`ExecConfig::batch_size`] and [`ExecConfig::num_threads`]
//!   — every `(batch_size, morsel_size, num_threads)` combination produces
//!   bit-identical rows and counters — and
//! * a switch to ignore bitvector filters entirely, mirroring the
//!   SQL Server option used for the Table 4 comparison.
//!
//! [`Executor`] is the low-level driver that compiles a plan and drains the
//! root operator ([`Executor::execute_with_rows`] additionally returns the
//! concatenated output rows for differential testing); user-facing code goes
//! through the `Engine` facade in `bqo-core`.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod cancel;
pub mod executor;
pub mod kernels;
pub mod metrics;
pub mod morsel;
pub mod operators;
pub mod pipeline;
pub mod pool;

pub use batch::Batch;
pub use cancel::{CancelToken, Interrupted};
pub use executor::{
    execute_plan, BoundPlan, ExecConfig, ExecError, Executor, QueryResult, DEFAULT_BATCH_SIZE,
    DEFAULT_PARALLEL_THRESHOLD,
};
pub use metrics::{ExecutionMetrics, OperatorKind, OperatorMetrics};
pub use morsel::{chunk_morsels, morsels, run_morsels, run_morsels_with, Morsel};
pub use operators::{FileScanOp, HashJoinOp, PhysicalOperator, ScanOp};
pub use pipeline::{ExecContext, PipelineBuilder};
pub use pool::WorkerPool;

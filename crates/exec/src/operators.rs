//! Pull-based physical operators.
//!
//! [`PhysicalOperator`] is the batch-at-a-time (Volcano-with-batches)
//! interface of the executor:
//!
//! * [`PhysicalOperator::open`] prepares operator state. Hash joins drain
//!   their entire build side here, publish the bitvector filters sourced at
//!   the join to the [`ExecContext`], and only then open their probe side —
//!   which guarantees every filter is available before any probe-side scan
//!   produces its first batch (the same ordering the paper's Algorithm 1
//!   relies on).
//! * [`PhysicalOperator::next_batch`] pulls the next batch of at most
//!   [`crate::ExecConfig::batch_size`] rows, or `None` once exhausted. Local
//!   predicates and pushed-down bitvector probes run as shared-state-free
//!   per-morsel kernels (see [`crate::morsel`]) so eliminated tuples never
//!   reach the joins above; with [`crate::ExecConfig::num_threads`] > 1 the
//!   kernels fan out across a worker pool.
//! * [`PhysicalOperator::close`] tears the operator down and flushes its
//!   accumulated per-operator counters into the context's
//!   [`crate::ExecutionMetrics`].
//!
//! Contract: between `open` and the first `None`, an operator yields at least
//! one batch (possibly empty) so downstream operators always observe its
//! output schema. Neither batching granularity nor parallelism changes
//! results or counters: every `(batch_size, morsel_size, num_threads)`
//! combination produces identical rows, `output_rows`, filter
//! probe/eliminate statistics and per-operator tuple counts, because morsels
//! partition contiguous row ranges and per-morsel outputs merge in morsel
//! order.

use crate::batch::Batch;
use crate::kernels::{probe_mask_range, probe_retain, ProbeScratch};
use crate::metrics::OperatorKind;
use crate::morsel::{chunk_morsels, morsels, Morsel};
use crate::pipeline::ExecContext;
use bqo_bitvector::hash::FxHashMap;
use bqo_bitvector::{AnyFilter, BitvectorFilter, FilterStats};
use bqo_plan::{BitvectorPlacement, ColumnRef, NodeId, RelId, RelationInfo};
use bqo_storage::{ChunkSource, Column, StorageError, Table, Value};
use std::sync::Arc;

/// A pull-based physical operator producing batches of rows.
pub trait PhysicalOperator {
    /// Prepares the operator (and its children) for execution.
    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), StorageError>;

    /// Pulls the next batch, or `None` once the operator is exhausted.
    fn next_batch(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, StorageError>;

    /// Releases resources and records the operator's accumulated metrics.
    fn close(&mut self, ctx: &mut ExecContext);
}

/// Scan of one base relation: local predicates plus any bitvector filters
/// Algorithm 1 pushed down to this scan, evaluated morsel by morsel (in
/// parallel when configured) before the surviving rows are materialized into
/// batches.
pub struct ScanOp<'p> {
    node: NodeId,
    info: &'p RelationInfo,
    table: Arc<Table>,
    schema: Vec<ColumnRef>,
    /// Bitvector placements targeting this scan, keyed by placement index.
    placements: Vec<(usize, &'p BitvectorPlacement)>,
    /// Per placement: the table column indices its probe columns resolve to
    /// (resolved once at open, indexed per morsel on the hot path).
    placement_cols: Vec<Vec<usize>>,
    /// Rows surviving the local predicates and every pushed-down bitvector
    /// filter, in ascending row order (computed at open, morsel-parallel).
    survivors: Vec<usize>,
    /// Position inside `survivors` of the first row not yet emitted.
    pos: usize,
    cursor: usize,
    emitted_any: bool,
    output_rows: u64,
}

impl std::fmt::Debug for ScanOp<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanOp")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl<'p> ScanOp<'p> {
    /// Creates a scan operator for `relation`.
    pub fn new(
        node: NodeId,
        relation: RelId,
        info: &'p RelationInfo,
        table: Arc<Table>,
        placements: Vec<(usize, &'p BitvectorPlacement)>,
    ) -> Self {
        let schema = table
            .schema()
            .fields()
            .iter()
            .map(|f| ColumnRef::new(relation, f.name.clone()))
            .collect();
        ScanOp {
            node,
            info,
            table,
            schema,
            placements,
            placement_cols: Vec::new(),
            survivors: Vec::new(),
            pos: 0,
            cursor: 0,
            emitted_any: false,
            output_rows: 0,
        }
    }

    /// An empty batch carrying this scan's output schema (emitted when no row
    /// survives, so parents still learn the schema).
    fn empty_batch(&self) -> Batch {
        let columns = self
            .table
            .columns()
            .iter()
            .map(|c| Column::empty(c.data_type()))
            .collect();
        Batch::new(self.schema.clone(), columns)
    }
}

impl PhysicalOperator for ScanOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), StorageError> {
        // Resolve predicate columns once; missing columns fail here, before
        // any kernel runs.
        let pred_cols: Vec<&Column> = self
            .info
            .predicates
            .iter()
            .map(|p| self.table.column(&p.column))
            .collect::<Result<_, _>>()?;

        // Resolve each placement's probe columns to table column indices once.
        self.placement_cols = self
            .placements
            .iter()
            .map(|(_, placement)| {
                placement
                    .probe_columns
                    .iter()
                    .map(|c| {
                        self.table.schema().index_of(&c.column).ok_or_else(|| {
                            StorageError::ColumnNotFound {
                                table: self.info.name.clone(),
                                column: c.column.clone(),
                            }
                        })
                    })
                    .collect()
            })
            .collect::<Result<_, _>>()?;

        // Evaluate local predicates and pushed-down bitvector probes with one
        // shared-state-free kernel per morsel. Every filter targeting this
        // scan is already published: a hash join publishes its filters before
        // opening its probe side, and placement targets always sit below the
        // source join's probe child. (A missing filter — possible only for
        // malformed plans — skips that placement, like the serial path did.)
        let morsel_list = morsels(self.table.num_rows(), ctx.config.effective_morsel_size());
        let num_threads = ctx.config.workers_for(self.table.num_rows());
        let predicates = &self.info.predicates;
        let throttle = ctx.config.scan_throttle;
        let (survivors, merged_stats) = {
            let filters: Vec<Option<&AnyFilter>> = self
                .placements
                .iter()
                .map(|&(idx, _)| ctx.filter(idx))
                .collect();
            let probe_cols: Vec<Vec<&Column>> = self
                .placement_cols
                .iter()
                .map(|idxs| idxs.iter().map(|&i| self.table.column_at(i)).collect())
                .collect();
            let per_morsel = ctx.run_morsels(num_threads, &morsel_list, |m| {
                // Latency-injection knob: stretch each scan morsel so
                // scheduling and cancellation tests/benches get long-running
                // queries with a known per-morsel granularity.
                if let Some(throttle) = throttle {
                    std::thread::sleep(throttle);
                }
                // Rows of this morsel surviving the local predicates...
                let mut mask = vec![true; m.len()];
                for (predicate, column) in predicates.iter().zip(&pred_cols) {
                    let predicate_mask = predicate.evaluate_range(column, m.start, m.end);
                    for (acc, p) in mask.iter_mut().zip(predicate_mask) {
                        *acc &= p;
                    }
                }
                let mut rows: Vec<usize> = m.rows().filter(|&r| mask[r - m.start]).collect();

                // ...then every pushed-down bitvector filter, in placement
                // order (a row eliminated by one filter is never probed by
                // the next). Counters stay morsel-local.
                let mut stats = vec![FilterStats::new(); filters.len()];
                probe_filters(&filters, &probe_cols, &mut rows, &mut stats);
                (rows, stats)
            })?;

            // Deterministic merge: concatenate rows and sum counters in
            // morsel order, independent of worker scheduling.
            let mut survivors = Vec::new();
            let mut merged = vec![FilterStats::new(); self.placements.len()];
            for (rows, stats) in per_morsel {
                survivors.extend(rows);
                for (acc, s) in merged.iter_mut().zip(&stats) {
                    acc.merge(s);
                }
            }
            (survivors, merged)
        };
        for stats in &merged_stats {
            ctx.merge_filter_stats(stats);
        }

        self.survivors = survivors;
        self.pos = 0;
        self.cursor = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, StorageError> {
        // The serial-loop cancellation seam: one check per batch pull.
        ctx.check_cancelled()?;
        // Emission granularity is unchanged from the serial executor: one
        // batch per `batch_size` table-row range with at least one survivor,
        // so parents observe identical batch boundaries for every
        // `(num_threads, morsel_size)` combination.
        let num_rows = self.table.num_rows();
        let batch_size = ctx.config.batch_size.max(1);
        while self.cursor < num_rows {
            let end = num_rows.min(self.cursor.saturating_add(batch_size));
            self.cursor = end;

            let from = self.pos;
            while self.pos < self.survivors.len() && self.survivors[self.pos] < end {
                self.pos += 1;
            }
            if self.pos == from {
                continue;
            }
            let rows = &self.survivors[from..self.pos];
            let batch = if num_rows <= u32::MAX as usize {
                // Zero-copy emission: share the table's columns and mark the
                // survivors in a selection vector. Logically identical to the
                // dense batch materialized below for tables whose row ids do
                // not fit a `u32` selection.
                let selection: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
                Batch::from_shared(self.schema.clone(), self.table.columns().to_vec())
                    .with_selection(selection)
            } else {
                let columns: Vec<Column> =
                    self.table.columns().iter().map(|c| c.take(rows)).collect();
                Batch::new(self.schema.clone(), columns)
            };
            self.output_rows += batch.num_rows() as u64;
            self.emitted_any = true;
            return Ok(Some(batch));
        }
        if !self.emitted_any {
            self.emitted_any = true;
            return Ok(Some(self.empty_batch()));
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) {
        ctx.metrics
            .record_operator(self.node, OperatorKind::Leaf, self.output_rows, 0, 0);
    }
}

/// Refines one morsel's candidate `rows` by every pushed-down bitvector
/// filter in placement order: keys are gathered column-at-a-time, probed 64
/// rows per survivor word and compacted in place, so a row eliminated by
/// one filter is never probed by the next. A placement whose filter is
/// missing (possible only for malformed plans) is skipped.
fn probe_filters(
    filters: &[Option<&AnyFilter>],
    probe_cols: &[Vec<&Column>],
    rows: &mut Vec<usize>,
    stats: &mut [FilterStats],
) {
    let mut scratch = ProbeScratch::default();
    for (slot, filter) in filters.iter().enumerate() {
        if let Some(filter) = filter {
            probe_retain(
                *filter,
                &probe_cols[slot],
                rows,
                &mut stats[slot],
                &mut scratch,
            );
        }
    }
}

/// Why a pruned-by-filter chunk's counters are exact: pruning runs only
/// when the scan has no local predicates and only against the *first*
/// placement, so on the in-memory path every row of the chunk would be
/// probed by (and, since `probe_range_empty` proved the whole key range
/// empty, eliminated at) that placement — and would never reach any later
/// placement. Crediting `chunk_rows` probed + eliminated to slot 0 and
/// nothing to later slots reproduces those counters without reading a byte.
enum ChunkDecision {
    /// Read and scan the chunk.
    Scan,
    /// A local predicate can match no row in the chunk's value ranges.
    /// Predicate evaluation keeps no counters, so skipping is free.
    PrunedByPredicate,
    /// The first pushed-down bitvector filter has no surviving build key in
    /// the chunk's join-key range; counters are credited as above.
    PrunedByFilter,
}

/// Per-chunk kernel output of a file scan's filter pass.
struct ChunkScan {
    /// Surviving rows as global row ids (ascending).
    rows: Vec<usize>,
    /// The survivors' values, dense, one column per schema field.
    columns: Vec<Column>,
    /// Morsel-local bitvector counters, one per placement slot.
    stats: Vec<FilterStats>,
    /// Whether the chunk's data was actually fetched.
    read: bool,
    /// Bytes fetched (0 for pruned chunks).
    bytes: u64,
}

/// Out-of-core scan of a chunked table source ([`ChunkSource`], i.e. an
/// on-disk columnar file): the file-backed counterpart of [`ScanOp`].
///
/// Morsels are chunk-aligned — one morsel per chunk — so a worker fetches,
/// filters and compacts one chunk end to end and at most
/// `num_threads` chunks are in memory at once. Before fetching, each
/// chunk's zone maps are tested against the scan's local predicates *and*
/// against the first pushed-down bitvector filter's surviving key range
/// ([`BitvectorFilter::probe_range_empty`]); a chunk that provably
/// contributes nothing is skipped entirely. Rows, batch boundaries,
/// `FilterStats` and operator counters are bit-identical to running
/// [`ScanOp`] over the same rows in memory, for every `(num_threads,
/// batch_size, zone_map_pruning)` combination.
pub struct FileScanOp<'p> {
    node: NodeId,
    info: &'p RelationInfo,
    source: Arc<dyn ChunkSource>,
    schema: Vec<ColumnRef>,
    placements: Vec<(usize, &'p BitvectorPlacement)>,
    placement_cols: Vec<Vec<usize>>,
    /// Global row ids surviving all predicates and filters (ascending).
    survivors: Vec<usize>,
    /// The survivors' values, dense, aligned with `survivors`.
    survivor_cols: Vec<Column>,
    pos: usize,
    cursor: usize,
    emitted_any: bool,
    output_rows: u64,
}

impl std::fmt::Debug for FileScanOp<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileScanOp")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl<'p> FileScanOp<'p> {
    /// Creates a file scan over `source`.
    pub fn new(
        node: NodeId,
        relation: RelId,
        info: &'p RelationInfo,
        source: Arc<dyn ChunkSource>,
        placements: Vec<(usize, &'p BitvectorPlacement)>,
    ) -> Self {
        let schema = source
            .schema()
            .fields()
            .iter()
            .map(|f| ColumnRef::new(relation, f.name.clone()))
            .collect();
        FileScanOp {
            node,
            info,
            source,
            schema,
            placements,
            placement_cols: Vec::new(),
            survivors: Vec::new(),
            survivor_cols: Vec::new(),
            pos: 0,
            cursor: 0,
            emitted_any: false,
            output_rows: 0,
        }
    }

    fn empty_batch(&self) -> Batch {
        let columns = self
            .source
            .schema()
            .fields()
            .iter()
            .map(|f| Column::empty(f.data_type))
            .collect();
        Batch::new(self.schema.clone(), columns)
    }

    /// Resolves `column` to its schema index.
    fn column_index(&self, column: &str) -> Result<usize, StorageError> {
        self.source
            .schema()
            .index_of(column)
            .ok_or_else(|| StorageError::ColumnNotFound {
                table: self.info.name.clone(),
                column: column.to_string(),
            })
    }
}

impl PhysicalOperator for FileScanOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), StorageError> {
        // Resolve predicate and placement columns once, before any I/O.
        let pred_cols: Vec<usize> = self
            .info
            .predicates
            .iter()
            .map(|p| self.column_index(&p.column))
            .collect::<Result<_, _>>()?;
        self.placement_cols = self
            .placements
            .iter()
            .map(|(_, placement)| {
                placement
                    .probe_columns
                    .iter()
                    .map(|c| self.column_index(&c.column))
                    .collect()
            })
            .collect::<Result<_, _>>()?;

        // One morsel per chunk: fetch granularity, work granularity and
        // cancellation granularity coincide out-of-core.
        let chunk_list: Vec<Morsel> = (0..self.source.num_chunks())
            .map(|i| {
                let (start, end) = self.source.chunk_range(i);
                Morsel {
                    index: i,
                    start,
                    end,
                }
            })
            .collect();
        let num_threads = ctx.config.workers_for(self.source.num_rows());
        let predicates = &self.info.predicates;
        let throttle = ctx.config.scan_throttle;
        let prune = ctx.config.zone_map_pruning;
        let source = &self.source;
        let placement_cols = &self.placement_cols;

        let (survivors, survivor_cols, merged_stats, chunks_read, chunks_pruned, bytes_read) = {
            let filters: Vec<Option<&AnyFilter>> = self
                .placements
                .iter()
                .map(|&(idx, _)| ctx.filter(idx))
                .collect();

            // Pruning decisions from the footer's zone maps — no chunk data
            // is touched here.
            let decisions: Vec<ChunkDecision> = chunk_list
                .iter()
                .map(|m| {
                    if !prune {
                        return ChunkDecision::Scan;
                    }
                    for (p, &ci) in predicates.iter().zip(&pred_cols) {
                        if let Some((min, max)) = source.zone_map(m.index, ci) {
                            if !p.range_may_pass(&min, &max) {
                                return ChunkDecision::PrunedByPredicate;
                            }
                        }
                    }
                    // Bitvector-range pruning is counter-exact only with no
                    // local predicates, only for the first placement, and
                    // only for a single-column integer join key.
                    if predicates.is_empty() {
                        if let (Some(Some(filter)), Some(cols)) =
                            (filters.first(), placement_cols.first())
                        {
                            if let [ci] = cols[..] {
                                if let Some((Value::Int64(lo), Value::Int64(hi))) =
                                    source.zone_map(m.index, ci)
                                {
                                    if filter.probe_range_empty(lo, hi) {
                                        return ChunkDecision::PrunedByFilter;
                                    }
                                }
                            }
                        }
                    }
                    ChunkDecision::Scan
                })
                .collect();

            let per_chunk = ctx.run_morsels(num_threads, &chunk_list, |m| {
                if let Some(throttle) = throttle {
                    std::thread::sleep(throttle);
                }
                let mut stats = vec![FilterStats::new(); filters.len()];
                match decisions[m.index] {
                    ChunkDecision::PrunedByPredicate => Ok(ChunkScan {
                        rows: Vec::new(),
                        columns: Vec::new(),
                        stats,
                        read: false,
                        bytes: 0,
                    }),
                    ChunkDecision::PrunedByFilter => {
                        // See `ChunkDecision`: slot 0 probed and eliminated
                        // every row of this chunk.
                        stats[0].probed += m.len() as u64;
                        stats[0].eliminated += m.len() as u64;
                        Ok(ChunkScan {
                            rows: Vec::new(),
                            columns: Vec::new(),
                            stats,
                            read: false,
                            bytes: 0,
                        })
                    }
                    ChunkDecision::Scan => {
                        let columns = source.read_chunk(m.index)?;
                        let mut mask = vec![true; m.len()];
                        for (predicate, &ci) in predicates.iter().zip(&pred_cols) {
                            let predicate_mask = predicate.evaluate_range(&columns[ci], 0, m.len());
                            for (acc, p) in mask.iter_mut().zip(predicate_mask) {
                                *acc &= p;
                            }
                        }
                        let mut rows: Vec<usize> = (0..m.len()).filter(|&r| mask[r]).collect();
                        let probe_cols: Vec<Vec<&Column>> = placement_cols
                            .iter()
                            .map(|idxs| idxs.iter().map(|&i| columns[i].as_ref()).collect())
                            .collect();
                        probe_filters(&filters, &probe_cols, &mut rows, &mut stats);
                        // Compact the survivors before the chunk's columns
                        // are dropped — this is what bounds memory to the
                        // survivor set plus `num_threads` in-flight chunks.
                        let dense: Vec<Column> = columns.iter().map(|c| c.take(&rows)).collect();
                        let global: Vec<usize> = rows.iter().map(|&r| m.start + r).collect();
                        Ok(ChunkScan {
                            rows: global,
                            columns: dense,
                            stats,
                            read: true,
                            bytes: source.chunk_byte_size(m.index),
                        })
                    }
                }
            })?;

            // Deterministic merge in chunk order.
            let mut survivors = Vec::new();
            let mut survivor_cols: Vec<Column> = self
                .source
                .schema()
                .fields()
                .iter()
                .map(|f| Column::empty(f.data_type))
                .collect();
            let mut merged = vec![FilterStats::new(); self.placements.len()];
            let (mut chunks_read, mut chunks_pruned, mut bytes_read) = (0u64, 0u64, 0u64);
            for result in per_chunk {
                let chunk: ChunkScan = result?;
                if chunk.read {
                    chunks_read += 1;
                    bytes_read += chunk.bytes;
                } else {
                    chunks_pruned += 1;
                }
                survivors.extend(chunk.rows);
                for (acc, c) in survivor_cols.iter_mut().zip(&chunk.columns) {
                    acc.append(c)?;
                }
                for (acc, s) in merged.iter_mut().zip(&chunk.stats) {
                    acc.merge(s);
                }
            }
            (
                survivors,
                survivor_cols,
                merged,
                chunks_read,
                chunks_pruned,
                bytes_read,
            )
        };
        for stats in &merged_stats {
            ctx.merge_filter_stats(stats);
        }
        ctx.metrics.chunks_read += chunks_read;
        ctx.metrics.chunks_pruned += chunks_pruned;
        ctx.metrics.bytes_read += bytes_read;

        self.survivors = survivors;
        self.survivor_cols = survivor_cols;
        self.pos = 0;
        self.cursor = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, StorageError> {
        ctx.check_cancelled()?;
        // Identical batch boundaries to ScanOp: one batch per `batch_size`
        // range of the *global* row space with at least one survivor. The
        // batches are dense; a dense batch and a selection batch over the
        // same logical rows are interchangeable downstream.
        let num_rows = self.source.num_rows();
        let batch_size = ctx.config.batch_size.max(1);
        while self.cursor < num_rows {
            let end = num_rows.min(self.cursor.saturating_add(batch_size));
            self.cursor = end;

            let from = self.pos;
            while self.pos < self.survivors.len() && self.survivors[self.pos] < end {
                self.pos += 1;
            }
            if self.pos == from {
                continue;
            }
            // Survivor values are already compacted in survivor order, so a
            // batch is a contiguous slice of the survivor columns.
            let idx: Vec<usize> = (from..self.pos).collect();
            let columns: Vec<Column> = self.survivor_cols.iter().map(|c| c.take(&idx)).collect();
            let batch = Batch::new(self.schema.clone(), columns);
            self.output_rows += batch.num_rows() as u64;
            self.emitted_any = true;
            return Ok(Some(batch));
        }
        if !self.emitted_any {
            self.emitted_any = true;
            return Ok(Some(self.empty_batch()));
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) {
        ctx.metrics
            .record_operator(self.node, OperatorKind::Leaf, self.output_rows, 0, 0);
    }
}

/// Hash join: the build side is drained and hashed at `open` (publishing the
/// bitvector filters sourced at this join before the probe side opens), the
/// probe side is streamed batch by batch. Residual bitvector filters targeted
/// at this join's output are applied to each output batch.
pub struct HashJoinOp<'p> {
    node: NodeId,
    build: Box<dyn PhysicalOperator + 'p>,
    probe: Box<dyn PhysicalOperator + 'p>,
    build_key_cols: Vec<ColumnRef>,
    probe_key_cols: Vec<ColumnRef>,
    /// Placements whose filter this join creates from its build side.
    source_placements: Vec<(usize, &'p BitvectorPlacement)>,
    /// Residual placements applied to this join's output batches.
    residual_placements: Vec<(usize, &'p BitvectorPlacement)>,
    build_batch: Batch,
    table: FxHashMap<i64, Vec<u32>>,
    emitted_any: bool,
    build_rows: u64,
    probe_rows: u64,
    join_output_rows: u64,
    /// Per residual placement: rows surviving it (summed over batches), and
    /// whether its filter was available so it actually ran.
    residual_rows: Vec<(u64, bool)>,
}

impl std::fmt::Debug for HashJoinOp<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashJoinOp")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl<'p> HashJoinOp<'p> {
    /// Creates a hash join over two child operators.
    pub fn new(
        node: NodeId,
        build: Box<dyn PhysicalOperator + 'p>,
        probe: Box<dyn PhysicalOperator + 'p>,
        keys: &'p [bqo_plan::JoinKeyPair],
        source_placements: Vec<(usize, &'p BitvectorPlacement)>,
        residual_placements: Vec<(usize, &'p BitvectorPlacement)>,
    ) -> Self {
        let residual_rows = vec![(0, false); residual_placements.len()];
        HashJoinOp {
            node,
            build,
            probe,
            build_key_cols: keys.iter().map(|k| k.build.clone()).collect(),
            probe_key_cols: keys.iter().map(|k| k.probe.clone()).collect(),
            source_placements,
            residual_placements,
            build_batch: Batch::empty(),
            table: FxHashMap::default(),
            emitted_any: false,
            build_rows: 0,
            probe_rows: 0,
            join_output_rows: 0,
            residual_rows,
        }
    }
}

impl PhysicalOperator for HashJoinOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), StorageError> {
        // 1. Drain the build side completely.
        self.build.open(ctx)?;
        let mut batches = Vec::new();
        while let Some(batch) = self.build.next_batch(ctx)? {
            batches.push(batch);
        }
        self.build.close(ctx);
        self.build_batch = Batch::concat(batches);

        // 2. Publish the bitvector filters sourced at this join, so they are
        //    in place before any probe-side operator produces rows.
        for &(idx, placement) in &self.source_placements {
            let build_keys = self
                .build_batch
                .key_values_vectorized(&placement.build_columns);
            let filter = AnyFilter::from_keys(ctx.config.filter_kind, &build_keys);
            ctx.publish_filter(idx, filter);
        }

        // 3. Hash the build side: each worker hashes one contiguous row
        //    partition, then the partitions are merged on this thread in
        //    partition order — so every key's row list stays in ascending row
        //    order, exactly as the serial insertion loop produced it. (The
        //    filters of step 2 are always published single-threaded, keeping
        //    publication order deterministic.)
        let build_keys = self.build_batch.key_values_vectorized(&self.build_key_cols);
        self.build_rows = build_keys.len() as u64;
        let workers = ctx.config.workers_for(build_keys.len());
        let chunks = chunk_morsels(build_keys.len(), workers);
        let mut partitions = ctx.run_morsels(workers, &chunks, |m| {
            let mut partition: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
            for row in m.rows() {
                partition
                    .entry(build_keys[row])
                    .or_default()
                    .push(row as u32);
            }
            partition
        })?;
        self.table = if partitions.len() <= 1 {
            partitions.pop().unwrap_or_default()
        } else {
            let mut table: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
            for partition in partitions {
                for (key, rows) in partition {
                    table.entry(key).or_default().extend(rows);
                }
            }
            table
        };

        // 4. Only now open the probe side.
        self.probe.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, StorageError> {
        // The serial-loop cancellation seam: one check per probe batch.
        ctx.check_cancelled()?;
        while let Some(probe_batch) = self.probe.next_batch(ctx)? {
            let probe_keys = probe_batch.key_values_vectorized(&self.probe_key_cols);
            self.probe_rows += probe_keys.len() as u64;

            // Probe the hash table one contiguous row chunk per worker; the
            // chunk outputs concatenate in chunk order, reproducing the
            // serial left-to-right match order exactly.
            let table = &self.table;
            let workers = ctx.config.workers_for(probe_keys.len());
            let chunks = chunk_morsels(probe_keys.len(), workers);
            let matched = ctx.run_morsels(workers, &chunks, |m| {
                let mut build_indices: Vec<usize> = Vec::new();
                let mut probe_indices: Vec<usize> = Vec::new();
                for row in m.rows() {
                    if let Some(matches) = table.get(&probe_keys[row]) {
                        for &b in matches {
                            build_indices.push(b as usize);
                            probe_indices.push(row);
                        }
                    }
                }
                (build_indices, probe_indices)
            })?;
            let mut build_indices: Vec<usize> = Vec::new();
            let mut probe_indices: Vec<usize> = Vec::new();
            for (b, p) in matched {
                build_indices.extend(b);
                probe_indices.extend(p);
            }

            let mut output = Batch::zip(
                self.build_batch.take(&build_indices),
                probe_batch.take(&probe_indices),
            );
            self.join_output_rows += output.num_rows() as u64;

            // Residual bitvector filters targeted at this join's output,
            // probed per chunk with morsel-local counters.
            for (slot, &(idx, placement)) in self.residual_placements.iter().enumerate() {
                let mut merged = FilterStats::new();
                {
                    let Some(filter) = ctx.filter(idx) else {
                        continue;
                    };
                    let keys = output.key_values_vectorized(&placement.probe_columns);
                    let workers = ctx.config.workers_for(keys.len());
                    let chunks = chunk_morsels(keys.len(), workers);
                    let parts = ctx.run_morsels(workers, &chunks, |m| {
                        let mut stats = FilterStats::new();
                        let mut scratch = ProbeScratch::default();
                        let mask = probe_mask_range(
                            filter,
                            &keys,
                            m.start,
                            m.end,
                            &mut stats,
                            &mut scratch,
                        );
                        (mask, stats)
                    })?;
                    let mut mask: Vec<bool> = Vec::with_capacity(keys.len());
                    for (part, stats) in parts {
                        mask.extend(part);
                        merged.merge(&stats);
                    }
                    // Survivors are marked in the selection vector, not
                    // materialized.
                    output = output.filter_select(&mask);
                }
                ctx.merge_filter_stats(&merged);
                self.residual_rows[slot].0 += output.num_rows() as u64;
                self.residual_rows[slot].1 = true;
            }

            if output.num_rows() == 0 && self.emitted_any {
                continue;
            }
            self.emitted_any = true;
            return Ok(Some(output));
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) {
        self.probe.close(ctx);
        ctx.metrics.record_operator(
            self.node,
            OperatorKind::Join,
            self.join_output_rows,
            self.build_rows,
            self.probe_rows,
        );
        // One `Other` entry per residual filter that ran, mirroring the
        // Figure 9 attribution of residual filter operators.
        for &(rows, applied) in &self.residual_rows {
            if applied {
                ctx.metrics
                    .record_operator(self.node, OperatorKind::Other, rows, 0, 0);
            }
        }
    }
}

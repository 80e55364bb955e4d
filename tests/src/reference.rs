//! A row-at-a-time reference executor: the differential oracle for the
//! batch/morsel pipeline in `bqo-exec`.
//!
//! It interprets a [`PhysicalPlan`] over a [`Catalog`] (memory- or
//! file-backed) one row at a time — no batches, morsels, selection vectors
//! or word-level probes — and shares none of the operator code it checks.
//! The semantics are the paper's Algorithm 1, spelled out directly:
//!
//! * a hash join evaluates its build subtree, builds one bitvector filter
//!   per placement it sources from the build rows' keys ([`row_key`] +
//!   [`AnyFilter::from_keys`]), and only then evaluates its probe subtree,
//!   so every filter pushed below the probe side exists when a scan there
//!   runs;
//! * a scan keeps a row iff every local predicate holds and every
//!   available pushed-down filter accepts its key
//!   ([`BitvectorFilter::maybe_contains`]), probing in placement order and
//!   stopping at the first rejection;
//! * a join emits, for each probe row in order, one row per build row whose
//!   key values are *exactly* equal, in build order (build columns first);
//!   residual filters then drop output rows the way scans do.
//!
//! The counters follow the product's `ExecutionMetrics` definitions:
//! `operators` in close order (build subtree, probe subtree, the join, then
//! one `Other` entry per residual filter that ran), `filter_stats` summed
//! over every probe, and `filters_created`. Only `enable_bitvectors` and
//! `filter_kind` of the [`ExecConfig`] matter here: every other knob is
//! required to leave rows and counters unchanged.

use bqo_bitvector::{AnyFilter, BitvectorFilter, FilterStats};
use bqo_exec::batch::row_key;
use bqo_exec::{Batch, ExecConfig, OperatorKind, OperatorMetrics, QueryResult};
use bqo_plan::{BitvectorPlacement, ColumnRef, JoinGraph, NodeId, PhysicalNode, PhysicalPlan};
use bqo_storage::{Catalog, Column, StorageError, TableBacking, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Everything the reference computes for one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceOutput {
    /// The output rows in pipeline order, as one dense batch.
    pub rows: Batch,
    /// Per-operator counters in close order.
    pub operators: Vec<OperatorMetrics>,
    /// Bitvector probe/eliminate counters summed over every probe site.
    pub filter_stats: FilterStats,
    /// Number of bitvector filters built.
    pub filters_created: usize,
}

impl ReferenceOutput {
    /// Asserts that a product run reproduced this reference bit for bit:
    /// the row count, the rows themselves, the per-operator counters,
    /// `filter_stats` and `filters_created`.
    pub fn assert_matches(&self, result: &QueryResult, rows: &Batch, label: &str) {
        assert_eq!(
            result.output_rows,
            self.rows.num_rows() as u64,
            "{label}: output_rows"
        );
        assert_eq!(rows, &self.rows, "{label}: rows");
        assert_eq!(
            result.metrics.operators, self.operators,
            "{label}: operators"
        );
        assert_eq!(
            result.metrics.filter_stats, self.filter_stats,
            "{label}: filter_stats"
        );
        assert_eq!(
            result.metrics.filters_created, self.filters_created,
            "{label}: filters_created"
        );
    }
}

/// Executes `plan` over `catalog` one row at a time (see the module docs).
///
/// # Errors
/// A missing table, or a failed chunk read of a file-backed table.
///
/// # Panics
/// If a predicate, key or filter column is missing from its input.
pub fn execute(
    catalog: &Catalog,
    graph: &JoinGraph,
    plan: &PhysicalPlan,
    config: ExecConfig,
) -> Result<ReferenceOutput, StorageError> {
    let mut run = Run {
        catalog,
        graph,
        plan,
        config,
        filters: HashMap::new(),
        operators: Vec::new(),
        filter_stats: FilterStats::new(),
        filters_created: 0,
    };
    let out = run.eval(plan.root())?;
    Ok(ReferenceOutput {
        rows: Batch::from_shared(out.schema, out.columns),
        operators: run.operators,
        filter_stats: run.filter_stats,
        filters_created: run.filters_created,
    })
}

/// The logical rows of `batch` where `mask` holds, copied value by value
/// into a dense batch.
pub fn filter_rows(batch: &Batch, mask: &[bool]) -> Batch {
    assert_eq!(mask.len(), batch.num_rows(), "mask length mismatch");
    let kept: Vec<usize> = (0..batch.num_rows())
        .filter(|&r| mask[r])
        .map(|r| batch.physical_row(r))
        .collect();
    let columns = batch.columns().iter().map(|c| gather(c, &kept)).collect();
    Batch::from_shared(batch.schema().to_vec(), columns)
}

/// The join key of every logical row of `batch`: one [`row_key`] call per
/// row.
pub fn key_values(batch: &Batch, key_columns: &[ColumnRef]) -> Vec<i64> {
    let cols: Vec<&Column> = key_columns
        .iter()
        .map(|c| batch.column(c).expect("key column in batch"))
        .collect();
    (0..batch.num_rows())
        .map(|r| row_key(&cols, batch.physical_row(r)))
        .collect()
}

/// Copies `rows` of `column`, in order, one value at a time.
fn gather(column: &Column, rows: &[usize]) -> Arc<Column> {
    let mut out = Column::with_capacity(column.data_type(), rows.len());
    for &r in rows {
        out.push(column.value(r)).expect("same column type");
    }
    Arc::new(out)
}

/// One component of an exact join key. Floats compare by bit pattern, as
/// the product's key extraction does.
#[derive(Debug, PartialEq, Eq, Hash)]
enum KeyPart {
    Int(i64),
    Float(u64),
    Utf8(String),
    Bool(bool),
}

fn exact_key(cols: &[&Column], row: usize) -> Vec<KeyPart> {
    cols.iter()
        .map(|c| match c.value(row) {
            Value::Int64(v) => KeyPart::Int(v),
            Value::Float64(v) => KeyPart::Float(v.to_bits()),
            Value::Utf8(v) => KeyPart::Utf8(v),
            Value::Bool(v) => KeyPart::Bool(v),
        })
        .collect()
}

/// An intermediate result: dense columns tagged with their origin.
struct Rows {
    schema: Vec<ColumnRef>,
    columns: Vec<Arc<Column>>,
}

impl Rows {
    fn len(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    fn cols(&self, refs: &[ColumnRef]) -> Vec<&Column> {
        refs.iter()
            .map(|r| {
                let i = self.schema.iter().position(|c| c == r);
                &*self.columns[i.unwrap_or_else(|| panic!("column {r:?} not in scope"))]
            })
            .collect()
    }

    fn take(&self, rows: &[usize]) -> Rows {
        Rows {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| gather(c, rows)).collect(),
        }
    }
}

struct Run<'a> {
    catalog: &'a Catalog,
    graph: &'a JoinGraph,
    plan: &'a PhysicalPlan,
    config: ExecConfig,
    filters: HashMap<usize, AnyFilter>,
    operators: Vec<OperatorMetrics>,
    filter_stats: FilterStats,
    filters_created: usize,
}

impl<'a> Run<'a> {
    fn eval(&mut self, node: NodeId) -> Result<Rows, StorageError> {
        match self.plan.node(node) {
            PhysicalNode::Scan { relation } => self.scan(node, *relation),
            PhysicalNode::HashJoin { build, probe, keys } => {
                let build_keys: Vec<ColumnRef> = keys.iter().map(|k| k.build.clone()).collect();
                let probe_keys: Vec<ColumnRef> = keys.iter().map(|k| k.probe.clone()).collect();
                self.join(node, *build, *probe, &build_keys, &probe_keys)
            }
        }
    }

    /// Placements applied at `node` (scans and residual positions).
    fn placements_at(&self, node: NodeId) -> Vec<(usize, &'a BitvectorPlacement)> {
        if !self.config.enable_bitvectors {
            return Vec::new();
        }
        self.plan.indexed_placements_at(node).collect()
    }

    fn record(
        &mut self,
        node: NodeId,
        kind: OperatorKind,
        output: usize,
        build: usize,
        probe: usize,
    ) {
        self.operators.push(OperatorMetrics {
            node,
            kind,
            output_rows: output as u64,
            build_rows: build as u64,
            probe_rows: probe as u64,
        });
    }

    fn scan(&mut self, node: NodeId, relation: bqo_plan::RelId) -> Result<Rows, StorageError> {
        let info = self.graph.relation(relation);
        let (names, columns) = load_table(self.catalog, &info.name)?;
        let table = Rows {
            schema: names
                .into_iter()
                .map(|name| ColumnRef::new(relation, name))
                .collect(),
            columns,
        };
        let masks: Vec<Vec<bool>> = info
            .predicates
            .iter()
            .map(|p| p.evaluate(table.cols(&[ColumnRef::new(relation, p.column.clone())])[0]))
            .collect();
        let placements = self.placements_at(node);
        let probe_cols: Vec<Vec<&Column>> = placements
            .iter()
            .map(|(_, p)| table.cols(&p.probe_columns))
            .collect();
        let mut kept = Vec::new();
        'rows: for row in 0..table.len() {
            if !masks.iter().all(|m| m[row]) {
                continue;
            }
            for ((idx, _), cols) in placements.iter().zip(&probe_cols) {
                let Some(filter) = self.filters.get(idx) else {
                    continue;
                };
                let keep = filter.maybe_contains(row_key(cols, row));
                self.filter_stats.record(!keep);
                if !keep {
                    continue 'rows;
                }
            }
            kept.push(row);
        }
        self.record(node, OperatorKind::Leaf, kept.len(), 0, 0);
        Ok(table.take(&kept))
    }

    fn join(
        &mut self,
        node: NodeId,
        build: NodeId,
        probe: NodeId,
        build_keys: &[ColumnRef],
        probe_keys: &[ColumnRef],
    ) -> Result<Rows, StorageError> {
        let build = self.eval(build)?;
        if self.config.enable_bitvectors {
            for (idx, placement) in self.plan.indexed_placements_from(node) {
                let cols = build.cols(&placement.build_columns);
                let keys: Vec<i64> = (0..build.len()).map(|r| row_key(&cols, r)).collect();
                let filter = AnyFilter::from_keys(self.config.filter_kind, &keys);
                self.filters.insert(idx, filter);
                self.filters_created += 1;
            }
        }
        let probe = self.eval(probe)?;

        let mut table: HashMap<Vec<KeyPart>, Vec<usize>> = HashMap::new();
        let cols = build.cols(build_keys);
        for r in 0..build.len() {
            table.entry(exact_key(&cols, r)).or_default().push(r);
        }
        let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
        let cols = probe.cols(probe_keys);
        for p in 0..probe.len() {
            for &b in table.get(&exact_key(&cols, p)).into_iter().flatten() {
                build_rows.push(b);
                probe_rows.push(p);
            }
        }
        let mut out = Rows {
            schema: [build.schema.clone(), probe.schema.clone()].concat(),
            columns: [
                build.take(&build_rows).columns,
                probe.take(&probe_rows).columns,
            ]
            .concat(),
        };
        let joined = out.len();

        let mut residuals = Vec::new();
        for (idx, placement) in self.placements_at(node) {
            let Some(filter) = self.filters.get(&idx) else {
                continue;
            };
            let cols = out.cols(&placement.probe_columns);
            let mut kept = Vec::new();
            for row in 0..out.len() {
                let keep = filter.maybe_contains(row_key(&cols, row));
                self.filter_stats.record(!keep);
                if keep {
                    kept.push(row);
                }
            }
            out = out.take(&kept);
            residuals.push(kept.len());
        }
        self.record(node, OperatorKind::Join, joined, build.len(), probe.len());
        for rows in residuals {
            self.record(node, OperatorKind::Other, rows, 0, 0);
        }
        Ok(out)
    }
}

/// A table's column names and columns, read in full from memory or from
/// every chunk of its file.
fn load_table(
    catalog: &Catalog,
    name: &str,
) -> Result<(Vec<String>, Vec<Arc<Column>>), StorageError> {
    match &catalog.table_meta(name)?.backing {
        TableBacking::Memory(table) => Ok((
            table
                .schema()
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect(),
            table.columns().to_vec(),
        )),
        TableBacking::Source(source) => {
            let fields = source.schema().fields();
            let mut columns: Vec<Column> =
                fields.iter().map(|f| Column::empty(f.data_type)).collect();
            for chunk in 0..source.num_chunks() {
                for (acc, part) in columns.iter_mut().zip(source.read_chunk(chunk)?) {
                    acc.append(&part)?;
                }
            }
            Ok((
                fields.iter().map(|f| f.name.clone()).collect(),
                columns.into_iter().map(Arc::new).collect(),
            ))
        }
    }
}

/// A hand-sized star for pinning the reference, and the product against
/// it: `fact(id, d1_sk, d2_sk)` has 12 rows over `d1(sk, cat)` (4 rows;
/// `cat = 0` keeps sk 0 and 1) and `d2(sk, flag)` (3 rows; `flag = 1`
/// keeps sk 0 and 2). The plan is the right-deep order `[fact, d1, d2]`
/// with Algorithm 1's filters pushed down. Exactly fact ids 0, 1, 8 and 9
/// join both filtered dimensions.
pub fn tiny_star() -> (Catalog, JoinGraph, PhysicalPlan) {
    use bqo_plan::{
        push_down_bitvectors, ColumnPredicate, CompareOp, JoinEdge, RelationInfo, RightDeepTree,
    };
    use bqo_storage::TableBuilder;

    let mut catalog = Catalog::new();
    catalog.register_table(
        TableBuilder::new("d1")
            .with_i64("sk", vec![0, 1, 2, 3])
            .with_i64("cat", vec![0, 0, 1, 1])
            .build()
            .expect("d1 table"),
    );
    catalog.register_table(
        TableBuilder::new("d2")
            .with_i64("sk", vec![0, 1, 2])
            .with_i64("flag", vec![1, 0, 1])
            .build()
            .expect("d2 table"),
    );
    catalog.register_table(
        TableBuilder::new("fact")
            .with_i64("id", (0..12).collect())
            .with_i64("d1_sk", vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3])
            .with_i64("d2_sk", vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
            .build()
            .expect("fact table"),
    );
    catalog.declare_primary_key("d1", "sk").expect("d1 pk");
    catalog.declare_primary_key("d2", "sk").expect("d2 pk");

    let mut graph = JoinGraph::new();
    let fact = graph.add_relation(RelationInfo::new("fact", 12.0, 12.0));
    let d1 = graph.add_relation(
        RelationInfo::new("d1", 4.0, 2.0).with_predicates(vec![ColumnPredicate::new(
            "cat",
            CompareOp::Eq,
            0i64,
        )]),
    );
    let d2 = graph.add_relation(
        RelationInfo::new("d2", 3.0, 2.0).with_predicates(vec![ColumnPredicate::new(
            "flag",
            CompareOp::Eq,
            1i64,
        )]),
    );
    graph.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 4.0));
    graph.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 3.0));
    let tree = RightDeepTree::new(vec![fact, d1, d2]).to_join_tree();
    let plan = push_down_bitvectors(&graph, PhysicalPlan::from_join_tree(&graph, &tree));
    (catalog, graph, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_bitvector::FilterKind;
    use bqo_plan::NodeId;

    /// Output rows as `[d2.sk, d2.flag, d1.sk, d1.cat, fact.id, fact.d1_sk,
    /// fact.d2_sk]`: the plan's root join builds on d2, whose probe side
    /// joins d1 (build) with fact (probe).
    fn rows_of(out: &ReferenceOutput) -> Vec<Vec<i64>> {
        (0..out.rows.num_rows())
            .map(|r| {
                out.rows
                    .columns()
                    .iter()
                    .map(|c| c.value(r).as_i64().unwrap())
                    .collect()
            })
            .collect()
    }

    fn op(node: usize, kind: OperatorKind, output: u64, build: u64, probe: u64) -> OperatorMetrics {
        OperatorMetrics {
            node: NodeId(node),
            kind,
            output_rows: output,
            build_rows: build,
            probe_rows: probe,
        }
    }

    fn run(config: ExecConfig) -> ReferenceOutput {
        let (catalog, graph, plan) = tiny_star();
        execute(&catalog, &graph, &plan, config).unwrap()
    }

    /// Checks one filter kind against the hand-derived answer. The fact scan
    /// probes the d1 filter first (12 rows; d1_sk 2 and 3 drop 6), then the
    /// d2 filter on the 6 survivors (d2_sk = 1 drops ids 4 and 5): 18
    /// probed, 8 eliminated, and the joins see only the 4 answer rows.
    fn assert_hand_answer(kind: FilterKind) {
        let out = run(ExecConfig {
            filter_kind: kind,
            ..ExecConfig::default()
        });
        assert_eq!(
            rows_of(&out),
            vec![
                vec![0, 1, 0, 0, 0, 0, 0],
                vec![0, 1, 1, 0, 1, 1, 0],
                vec![2, 1, 0, 0, 8, 0, 2],
                vec![2, 1, 1, 0, 9, 1, 2],
            ],
            "{kind:?}"
        );
        assert_eq!(
            out.filter_stats,
            FilterStats {
                probed: 18,
                eliminated: 8
            },
            "{kind:?}"
        );
        assert_eq!(out.filters_created, 2, "{kind:?}");
        assert_eq!(
            out.operators,
            vec![
                op(0, OperatorKind::Leaf, 2, 0, 0), // d2: flag = 1
                op(1, OperatorKind::Leaf, 2, 0, 0), // d1: cat = 0
                op(2, OperatorKind::Leaf, 4, 0, 0), // fact after both filters
                op(3, OperatorKind::Join, 4, 2, 4), // d1 ⋈ fact
                op(4, OperatorKind::Join, 4, 2, 4), // d2 ⋈ (d1 ⋈ fact)
            ],
            "{kind:?}"
        );
    }

    #[test]
    fn bitmap_filters_give_the_hand_answer() {
        assert_hand_answer(FilterKind::Bitmap);
    }

    #[test]
    fn exact_filters_give_the_hand_answer() {
        assert_hand_answer(FilterKind::Exact);
    }

    /// At 8 bits per key no non-member key of this star is a false
    /// positive, so the Bloom counters equal the exact ones.
    #[test]
    fn bloom_filters_give_the_hand_answer() {
        assert_hand_answer(FilterKind::Bloom { bits_per_key: 8 });
    }

    #[test]
    fn blocked_bloom_filters_give_the_hand_answer() {
        assert_hand_answer(FilterKind::BlockedBloom { bits_per_key: 8 });
    }

    /// Without bitvectors the same rows come out, but the fact scan keeps
    /// all 12 rows and the lower join does the filtering.
    #[test]
    fn disabled_bitvectors_probe_nothing_and_join_more() {
        let out = run(ExecConfig::without_bitvectors());
        assert_eq!(
            rows_of(&out),
            rows_of(&run(ExecConfig::exact_filters())),
            "same answer"
        );
        assert_eq!(out.filter_stats, FilterStats::new());
        assert_eq!(out.filters_created, 0);
        assert_eq!(
            out.operators,
            vec![
                op(0, OperatorKind::Leaf, 2, 0, 0),
                op(1, OperatorKind::Leaf, 2, 0, 0),
                op(2, OperatorKind::Leaf, 12, 0, 0),
                op(3, OperatorKind::Join, 6, 2, 12),
                op(4, OperatorKind::Join, 4, 2, 6),
            ]
        );
    }

    #[test]
    fn row_helpers_follow_the_selection() {
        let (catalog, _, _) = tiny_star();
        let table = catalog.table("fact").unwrap();
        let batch = Batch::from_table(bqo_plan::RelId(0), &table).with_selection(vec![11, 2, 5]);
        let keep = filter_rows(&batch, &[true, false, true]);
        assert!(keep.is_dense());
        assert_eq!(keep.columns()[0].as_i64().unwrap(), &[11, 5]);
        let key = [ColumnRef::new(bqo_plan::RelId(0), "d2_sk")];
        assert_eq!(key_values(&batch, &key), vec![2, 0, 1]);
    }
}

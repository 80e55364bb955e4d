//! Materialized intermediate results.
//!
//! A [`Batch`] owns its columns behind `Arc` handles and may carry an
//! optional *selection vector*: a list of physical row indices that are
//! logically alive. Filters (predicate evaluation, pushed-down bitvector
//! probes, hash-probe residuals) mark survivors by refining the selection
//! instead of copying every surviving row; compaction to a dense layout
//! happens only at operator boundaries that need it (build-side concat,
//! join output assembly). Two batches compare equal iff their *logical*
//! content matches, so a fully-selected or zero-survivor batch is
//! indistinguishable from its dense equivalent.

use bqo_plan::{ColumnRef, RelId};
use bqo_storage::{Column, Table};
use std::sync::Arc;

/// A fully materialized intermediate result: a set of columns, each tagged
/// with the base relation and column name it originated from, plus an
/// optional selection vector of logically-alive physical rows.
///
/// `PartialEq` compares schema and *logical* cell values exactly — the
/// differential-testing harness uses it to assert bit-identical output rows
/// across execution configurations, including dense-vs-selected layouts.
#[derive(Debug, Clone)]
pub struct Batch {
    schema: Vec<ColumnRef>,
    columns: Vec<Arc<Column>>,
    physical_rows: usize,
    selection: Option<Vec<u32>>,
}

impl Batch {
    /// Creates a dense batch from matching schema and columns.
    ///
    /// # Panics
    /// Panics if lengths are inconsistent.
    pub fn new(schema: Vec<ColumnRef>, columns: Vec<Column>) -> Self {
        Batch::from_shared(schema, columns.into_iter().map(Arc::new).collect())
    }

    /// Creates a dense batch from matching schema and shared column handles.
    ///
    /// Cloning the `Arc`s is a refcount bump — scans use this to emit
    /// batches over table columns without copying them.
    ///
    /// # Panics
    /// Panics if lengths are inconsistent.
    pub fn from_shared(schema: Vec<ColumnRef>, columns: Vec<Arc<Column>>) -> Self {
        assert_eq!(
            schema.len(),
            columns.len(),
            "schema / column count mismatch"
        );
        let physical_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for c in &columns {
            assert_eq!(
                c.len(),
                physical_rows,
                "all columns must have the same length"
            );
        }
        Batch {
            schema,
            columns,
            physical_rows,
            selection: None,
        }
    }

    /// Creates an empty batch (no columns, no rows).
    pub fn empty() -> Self {
        Batch {
            schema: Vec::new(),
            columns: Vec::new(),
            physical_rows: 0,
            selection: None,
        }
    }

    /// Materializes a base table into a batch, qualifying every column with
    /// the relation id it belongs to in the current query. The table's
    /// columns are shared, not copied.
    pub fn from_table(relation: RelId, table: &Table) -> Self {
        let schema = table
            .schema()
            .fields()
            .iter()
            .map(|f| ColumnRef::new(relation, f.name.clone()))
            .collect();
        Batch::from_shared(schema, table.columns().to_vec())
    }

    /// Restricts this batch to the given physical row indices.
    ///
    /// Replaces any existing selection — indices are interpreted against the
    /// *physical* columns (use [`Batch::filter_select`] to refine logically).
    ///
    /// # Panics
    /// Debug-asserts that every index is in bounds.
    pub fn with_selection(mut self, selection: Vec<u32>) -> Self {
        debug_assert!(
            selection.iter().all(|&p| (p as usize) < self.physical_rows),
            "selection index out of bounds"
        );
        self.selection = Some(selection);
        self
    }

    /// Number of logical rows (selection length when selected).
    pub fn num_rows(&self) -> usize {
        match &self.selection {
            Some(sel) => sel.len(),
            None => self.physical_rows,
        }
    }

    /// Number of physical rows backing this batch.
    pub fn physical_rows(&self) -> usize {
        self.physical_rows
    }

    /// Whether every physical row is logically alive (no selection vector).
    pub fn is_dense(&self) -> bool {
        self.selection.is_none()
    }

    /// The selection vector, if any.
    pub fn selection(&self) -> Option<&[u32]> {
        self.selection.as_deref()
    }

    /// Maps a logical row index to the physical row it references.
    pub fn physical_row(&self, logical: usize) -> usize {
        match &self.selection {
            Some(sel) => sel[logical] as usize,
            None => logical,
        }
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The qualified schema.
    pub fn schema(&self) -> &[ColumnRef] {
        &self.schema
    }

    /// All physical columns as shared handles.
    ///
    /// When the batch carries a selection vector, these are the *physical*
    /// columns — index them via [`Batch::physical_row`].
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Index of a column by qualified reference.
    pub fn index_of(&self, column: &ColumnRef) -> Option<usize> {
        self.schema.iter().position(|c| c == column)
    }

    /// A column by qualified reference (physical rows).
    pub fn column(&self, column: &ColumnRef) -> Option<&Column> {
        self.index_of(column).map(|i| &*self.columns[i])
    }

    /// A column by relation and name (physical rows).
    pub fn column_by_parts(&self, relation: RelId, name: &str) -> Option<&Column> {
        self.schema
            .iter()
            .position(|c| c.relation == relation && c.column == name)
            .map(|i| &*self.columns[i])
    }

    /// Keeps only the logical rows where `mask` is true *without copying any
    /// column data*: survivors are recorded in the selection vector.
    /// [`Batch::into_dense`] compacts the result when a dense layout is
    /// needed.
    pub fn filter_select(mut self, mask: &[bool]) -> Batch {
        assert_eq!(mask.len(), self.num_rows(), "mask length mismatch");
        let selection: Vec<u32> = match self.selection.take() {
            None => mask
                .iter()
                .enumerate()
                .filter_map(|(i, &keep)| keep.then_some(i as u32))
                .collect(),
            Some(sel) => sel
                .into_iter()
                .zip(mask)
                .filter_map(|(p, &keep)| keep.then_some(p))
                .collect(),
        };
        self.selection = Some(selection);
        self
    }

    /// Builds a dense batch taking *logical* rows at `indices` (duplicates
    /// allowed).
    pub fn take(&self, indices: &[usize]) -> Batch {
        let columns: Vec<Arc<Column>> = match &self.selection {
            None => self
                .columns
                .iter()
                .map(|c| Arc::new(c.take(indices)))
                .collect(),
            Some(sel) => {
                let phys: Vec<usize> = indices.iter().map(|&i| sel[i] as usize).collect();
                self.columns
                    .iter()
                    .map(|c| Arc::new(c.take(&phys)))
                    .collect()
            }
        };
        Batch {
            schema: self.schema.clone(),
            columns,
            physical_rows: indices.len(),
            selection: None,
        }
    }

    /// Compacts this batch to a dense layout, gathering the selected rows.
    /// A no-op for batches that are already dense.
    pub fn into_dense(self) -> Batch {
        match self.selection {
            None => self,
            Some(sel) => {
                let phys: Vec<usize> = sel.iter().map(|&p| p as usize).collect();
                let columns: Vec<Arc<Column>> = self
                    .columns
                    .iter()
                    .map(|c| Arc::new(c.take(&phys)))
                    .collect();
                Batch {
                    schema: self.schema,
                    columns,
                    physical_rows: phys.len(),
                    selection: None,
                }
            }
        }
    }

    /// Concatenates a sequence of schema-identical batches row-wise into a
    /// dense batch (used to drain a hash join's build side into one
    /// materialized batch). Selected inputs are compacted first, so a
    /// zero-survivor or fully-selected batch contributes exactly its logical
    /// rows.
    ///
    /// # Panics
    /// Panics if the batches disagree on schema or column types.
    pub fn concat(batches: Vec<Batch>) -> Batch {
        let mut iter = batches.into_iter();
        let Some(first) = iter.next() else {
            return Batch::empty();
        };
        let mut first = first.into_dense();
        for batch in iter {
            assert_eq!(first.schema, batch.schema, "schema mismatch in concat");
            let batch = batch.into_dense();
            for (dst, src) in first.columns.iter_mut().zip(batch.columns.iter()) {
                Arc::make_mut(dst)
                    .append(src)
                    .expect("column type mismatch in concat");
            }
            first.physical_rows += batch.physical_rows;
        }
        first
    }

    /// Concatenates the columns of two row-aligned batches (used by hash join
    /// output assembly after both sides were `take`n to the same length).
    pub fn zip(left: Batch, right: Batch) -> Batch {
        assert_eq!(
            left.num_rows(),
            right.num_rows(),
            "row count mismatch in zip"
        );
        let left = left.into_dense();
        let right = right.into_dense();
        let mut schema = left.schema;
        schema.extend(right.schema);
        let mut columns = left.columns;
        columns.extend(right.columns);
        Batch {
            schema,
            columns,
            physical_rows: left.physical_rows,
            selection: None,
        }
    }

    fn key_cols(&self, key_columns: &[ColumnRef]) -> Vec<&Column> {
        key_columns
            .iter()
            .map(|c| {
                self.column(c)
                    .unwrap_or_else(|| panic!("key column {c:?} not found in batch"))
            })
            .collect()
    }

    /// Extracts the join-key values for every logical row, collapsing
    /// composite keys into a single `i64` (see [`row_key`]). Column at a
    /// time: the per-column type dispatch is hoisted out of the row loop and
    /// composite keys are folded one key column at a time over the whole
    /// batch. Bit-identical to calling [`row_key`] per row (the
    /// `kernel_oracle` suite pins this).
    pub fn key_values_vectorized(&self, key_columns: &[ColumnRef]) -> Vec<i64> {
        let cols = self.key_cols(key_columns);
        let mut out = Vec::new();
        match &self.selection {
            None => gather_keys_impl(&cols, 0..self.physical_rows, self.physical_rows, &mut out),
            Some(sel) => {
                gather_keys_impl(&cols, sel.iter().map(|&p| p as usize), sel.len(), &mut out)
            }
        }
        out
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema || self.num_rows() != other.num_rows() {
            return false;
        }
        if self.is_dense() && other.is_dense() {
            return self.columns == other.columns;
        }
        if self
            .columns
            .iter()
            .zip(other.columns.iter())
            .any(|(a, b)| a.data_type() != b.data_type())
        {
            return false;
        }
        (0..self.num_rows()).all(|r| {
            let pa = self.physical_row(r);
            let pb = other.physical_row(r);
            self.columns
                .iter()
                .zip(other.columns.iter())
                .all(|(a, b)| a.value(pa) == b.value(pb))
        })
    }
}

/// The join-key value of one row over a set of key columns: a single `Int64`
/// column yields the raw value, composite or non-integer keys are hashed into
/// one `i64` (non-integer values hash their representation; the generated
/// workloads only join on integer surrogate keys). Scans and joins share this
/// so a filter built from build-side keys probes identically everywhere.
pub fn row_key(cols: &[&Column], row: usize) -> i64 {
    if let [Column::Int64(values)] = cols {
        return values[row];
    }
    let parts: Vec<i64> = cols.iter().map(|c| part_at(c, row)).collect();
    bqo_bitvector::hash::combine_key(&parts)
}

/// One column's contribution to a composite key for one physical row.
/// Shared by [`row_key`] and the columnar gather so the two key extraction
/// paths are the same conversion by construction.
#[inline]
fn part_at(col: &Column, row: usize) -> i64 {
    match col {
        Column::Int64(v) => v[row],
        Column::Bool(v) => v[row] as i64,
        Column::Float64(v) => v[row].to_bits() as i64,
        Column::Utf8(v) => fnv1a(&v[row]),
    }
}

#[inline]
fn fnv1a(s: &str) -> i64 {
    let mut h: i64 = 1469598103934665603;
    for b in s.as_bytes() {
        h ^= *b as i64;
        h = h.wrapping_mul(1099511628211);
    }
    h
}

/// Gathers one column's key parts for a set of physical rows with the type
/// dispatch hoisted out of the loop.
fn gather_parts<I: Iterator<Item = usize>>(col: &Column, rows: I, out: &mut Vec<i64>) {
    out.clear();
    match col {
        Column::Int64(v) => out.extend(rows.map(|r| v[r])),
        Column::Bool(v) => out.extend(rows.map(|r| v[r] as i64)),
        Column::Float64(v) => out.extend(rows.map(|r| v[r].to_bits() as i64)),
        Column::Utf8(v) => out.extend(rows.map(|r| fnv1a(&v[r]))),
    }
}

fn gather_keys_impl<I: Iterator<Item = usize> + Clone>(
    cols: &[&Column],
    rows: I,
    len: usize,
    out: &mut Vec<i64>,
) {
    if let [Column::Int64(values)] = cols {
        out.clear();
        out.extend(rows.map(|r| values[r]));
        return;
    }
    if let [col] = cols {
        // combine_key of a single part is the identity, so a lone non-integer
        // key column's parts are the keys.
        gather_parts(col, rows, out);
        return;
    }
    let mut acc = vec![0u64; len];
    let mut parts = Vec::with_capacity(len);
    for col in cols {
        gather_parts(col, rows.clone(), &mut parts);
        bqo_bitvector::hash::fold_parts(&mut acc, &parts);
    }
    out.clear();
    out.extend(acc.into_iter().map(|a| a as i64));
}

/// Gathers the collapsed join keys for `rows` (physical indices) over the
/// given key columns, column-at-a-time. Bit-identical to calling [`row_key`]
/// per row; the scan's vectorized probe kernel uses this to feed word-level
/// bitvector probes.
pub fn gather_keys(cols: &[&Column], rows: &[usize], out: &mut Vec<i64>) {
    gather_keys_impl(cols, rows.iter().copied(), rows.len(), out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_storage::TableBuilder;

    fn sample() -> Batch {
        let t = TableBuilder::new("t")
            .with_i64("id", vec![1, 2, 3, 4])
            .with_utf8("name", vec!["a".into(), "b".into(), "c".into(), "d".into()])
            .build()
            .unwrap();
        Batch::from_table(RelId(0), &t)
    }

    #[test]
    fn from_table_qualifies_columns() {
        let b = sample();
        assert_eq!(b.num_rows(), 4);
        assert_eq!(b.num_columns(), 2);
        assert!(b.column(&ColumnRef::new(RelId(0), "id")).is_some());
        assert!(b.column(&ColumnRef::new(RelId(1), "id")).is_none());
        assert!(b.column_by_parts(RelId(0), "name").is_some());
    }

    #[test]
    fn filter_and_take() {
        let b = sample();
        let filtered = b
            .clone()
            .filter_select(&[true, false, true, false])
            .into_dense();
        assert!(filtered.is_dense());
        assert_eq!(filtered.num_rows(), 2);
        assert_eq!(
            filtered
                .column(&ColumnRef::new(RelId(0), "id"))
                .unwrap()
                .as_i64()
                .unwrap(),
            &[1, 3]
        );
        let taken = b.take(&[3, 3, 0]);
        assert_eq!(taken.num_rows(), 3);
        assert_eq!(
            taken
                .column(&ColumnRef::new(RelId(0), "id"))
                .unwrap()
                .as_i64()
                .unwrap(),
            &[4, 4, 1]
        );
    }

    #[test]
    fn filter_select_matches_filter() {
        let b = sample();
        let mask = [true, false, true, false];
        let dense = b.take(&[0, 2]);
        let lazy = b.clone().filter_select(&mask);
        assert!(!lazy.is_dense());
        assert_eq!(lazy.num_rows(), 2);
        assert_eq!(lazy.selection(), Some(&[0u32, 2][..]));
        assert_eq!(lazy, dense);
        assert_eq!(lazy.into_dense(), dense);
    }

    #[test]
    fn filter_select_refines_existing_selection() {
        let b = sample().filter_select(&[true, true, false, true]); // rows 1,2,4
        let refined = b.filter_select(&[false, true, true]); // rows 2,4
        assert_eq!(refined.selection(), Some(&[1u32, 3][..]));
        assert_eq!(refined, sample().take(&[1, 3]));
    }

    #[test]
    fn filter_on_selected_batch_compacts() {
        let b = sample().filter_select(&[true, true, false, true]); // rows 1,2,4
        let dense = b.filter_select(&[false, true, true]).into_dense(); // rows 2,4
        assert!(dense.is_dense());
        assert_eq!(
            dense
                .column(&ColumnRef::new(RelId(0), "id"))
                .unwrap()
                .as_i64()
                .unwrap(),
            &[2, 4]
        );
    }

    #[test]
    fn take_maps_through_selection() {
        let b = sample().filter_select(&[false, true, true, true]); // rows 2,3,4
        let taken = b.take(&[2, 0]);
        assert!(taken.is_dense());
        assert_eq!(
            taken
                .column(&ColumnRef::new(RelId(0), "id"))
                .unwrap()
                .as_i64()
                .unwrap(),
            &[4, 2]
        );
    }

    #[test]
    fn selected_batch_equals_dense_equivalent() {
        let b = sample();
        // Fully selected == dense.
        let full = b.clone().with_selection(vec![0, 1, 2, 3]);
        assert_eq!(full, b);
        assert_eq!(b, full);
        // Zero survivors == empty dense batch with the same schema.
        let none = b.clone().with_selection(Vec::new());
        let empty_dense = b.take(&[]);
        assert_eq!(none, empty_dense);
        assert_eq!(empty_dense, none);
        // Different logical content != equal.
        let some = b.clone().with_selection(vec![1]);
        assert_ne!(some, b);
        assert_ne!(some, none);
    }

    #[test]
    fn zip_concatenates_columns() {
        let left = sample().take(&[0, 1]);
        let t2 = TableBuilder::new("u")
            .with_f64("x", vec![0.5, 1.5])
            .build()
            .unwrap();
        let right = Batch::from_table(RelId(1), &t2);
        let zipped = Batch::zip(left, right);
        assert_eq!(zipped.num_rows(), 2);
        assert_eq!(zipped.num_columns(), 3);
        assert!(zipped.column(&ColumnRef::new(RelId(1), "x")).is_some());
    }

    #[test]
    fn zip_compacts_selected_inputs() {
        let left = sample().filter_select(&[true, false, true, false]);
        let right = sample().filter_select(&[false, true, false, true]);
        let zipped = Batch::zip(left, right);
        assert_eq!(zipped.num_rows(), 2);
        assert!(zipped.is_dense());
        assert_eq!(zipped.columns()[0].as_i64().unwrap(), &[1, 3]);
        assert_eq!(zipped.columns()[2].as_i64().unwrap(), &[2, 4]);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn zip_rejects_mismatched_rows() {
        let left = sample();
        let right = sample().take(&[0]);
        Batch::zip(left, right);
    }

    #[test]
    fn single_int_key_fast_path() {
        let b = sample();
        let keys = b.key_values_vectorized(&[ColumnRef::new(RelId(0), "id")]);
        assert_eq!(keys, vec![1, 2, 3, 4]);
    }

    #[test]
    fn key_values_respect_selection() {
        let b = sample().filter_select(&[false, true, false, true]);
        let refs = [ColumnRef::new(RelId(0), "id")];
        assert_eq!(b.key_values_vectorized(&refs), vec![2, 4]);
    }

    #[test]
    fn vectorized_keys_match_scalar() {
        let t = TableBuilder::new("t")
            .with_i64("a", vec![1, 1, 2, -9, i64::MAX])
            .with_i64("b", vec![1, 2, 1, 0, i64::MIN])
            .with_utf8(
                "s",
                vec!["".into(), "x".into(), "yy".into(), "zzz".into(), "w".into()],
            )
            .with_f64("f", vec![0.0, -0.0, f64::NAN, 1.5, -2.5])
            .with_bool("q", vec![true, false, true, false, true])
            .build()
            .unwrap();
        let b = Batch::from_table(RelId(0), &t);
        let combos: Vec<Vec<ColumnRef>> = vec![
            vec![ColumnRef::new(RelId(0), "a")],
            vec![ColumnRef::new(RelId(0), "s")],
            vec![ColumnRef::new(RelId(0), "a"), ColumnRef::new(RelId(0), "b")],
            vec![
                ColumnRef::new(RelId(0), "a"),
                ColumnRef::new(RelId(0), "s"),
                ColumnRef::new(RelId(0), "f"),
                ColumnRef::new(RelId(0), "q"),
            ],
        ];
        // The columnar extraction equals `row_key` applied row by row to
        // the physical rows behind each logical row, with and without a
        // selection.
        let row_at_a_time = |batch: &Batch, refs: &[ColumnRef]| -> Vec<i64> {
            let cols: Vec<&Column> = refs.iter().map(|c| batch.column(c).unwrap()).collect();
            (0..batch.num_rows())
                .map(|r| row_key(&cols, batch.physical_row(r)))
                .collect()
        };
        let sel = b.clone().with_selection(vec![4, 0, 2, 2]);
        for refs in &combos {
            assert_eq!(b.key_values_vectorized(refs), row_at_a_time(&b, refs));
            assert_eq!(sel.key_values_vectorized(refs), row_at_a_time(&sel, refs));
        }
    }

    #[test]
    fn gather_keys_matches_row_key() {
        let t = TableBuilder::new("t")
            .with_i64("a", vec![5, 6, 7, 8])
            .with_i64("b", vec![1, 2, 3, 4])
            .build()
            .unwrap();
        let b = Batch::from_table(RelId(0), &t);
        let refs = [ColumnRef::new(RelId(0), "a"), ColumnRef::new(RelId(0), "b")];
        let cols: Vec<&Column> = refs.iter().map(|c| b.column(c).unwrap()).collect();
        let rows = [3usize, 0, 0, 2];
        let mut out = Vec::new();
        gather_keys(&cols, &rows, &mut out);
        let expected: Vec<i64> = rows.iter().map(|&r| row_key(&cols, r)).collect();
        assert_eq!(out, expected);
        // Single-column fast path.
        let one = [cols[0]];
        gather_keys(&one, &rows, &mut out);
        assert_eq!(out, vec![8, 5, 5, 7]);
    }

    #[test]
    fn composite_keys_are_stable_and_distinct() {
        let t = TableBuilder::new("t")
            .with_i64("a", vec![1, 1, 2])
            .with_i64("b", vec![1, 2, 1])
            .build()
            .unwrap();
        let b = Batch::from_table(RelId(0), &t);
        let keys = b
            .key_values_vectorized(&[ColumnRef::new(RelId(0), "a"), ColumnRef::new(RelId(0), "b")]);
        assert_eq!(keys.len(), 3);
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        // Deterministic.
        assert_eq!(
            keys,
            b.key_values_vectorized(&[
                ColumnRef::new(RelId(0), "a"),
                ColumnRef::new(RelId(0), "b")
            ])
        );
    }

    #[test]
    fn concat_stacks_batches_row_wise() {
        let b = sample();
        let stacked = Batch::concat(vec![b.take(&[0, 1]), b.take(&[2]), b.take(&[3])]);
        assert_eq!(stacked.num_rows(), 4);
        assert_eq!(
            stacked
                .column(&ColumnRef::new(RelId(0), "id"))
                .unwrap()
                .as_i64()
                .unwrap(),
            &[1, 2, 3, 4]
        );
        assert_eq!(Batch::concat(Vec::new()).num_rows(), 0);
    }

    #[test]
    fn concat_is_selection_aware() {
        let b = sample();
        // Selected batches contribute exactly their logical rows, and
        // zero-survivor batches contribute nothing — regression test for the
        // selection-aware concat bugfix.
        let stacked = Batch::concat(vec![
            b.clone().filter_select(&[true, false, false, false]), // row 1
            b.clone().with_selection(Vec::new()),                  // nothing
            b.clone().filter_select(&[false, true, true, true]),   // rows 2,3,4
        ]);
        assert!(stacked.is_dense());
        assert_eq!(stacked, b);
        // A lone selected batch compacts too.
        let single = Batch::concat(vec![b.clone().filter_select(&[false, true, false, false])]);
        assert!(single.is_dense());
        assert_eq!(single.num_rows(), 1);
        // Leading zero-survivor batch followed by dense rows.
        let led = Batch::concat(vec![b.clone().with_selection(Vec::new()), b.clone()]);
        assert_eq!(led, b);
    }

    #[test]
    fn concat_does_not_mutate_shared_table_columns() {
        let t = TableBuilder::new("t")
            .with_i64("id", vec![1, 2])
            .build()
            .unwrap();
        let a = Batch::from_table(RelId(0), &t);
        let b = Batch::from_table(RelId(0), &t);
        let stacked = Batch::concat(vec![a, b]);
        assert_eq!(stacked.num_rows(), 4);
        // The original table still has its own rows.
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column("id").unwrap().as_i64().unwrap(), &[1, 2]);
    }

    #[test]
    fn row_key_matches_key_values() {
        let t = TableBuilder::new("t")
            .with_i64("a", vec![1, 1, 2])
            .with_i64("b", vec![1, 2, 1])
            .build()
            .unwrap();
        let b = Batch::from_table(RelId(0), &t);
        let refs = [ColumnRef::new(RelId(0), "a"), ColumnRef::new(RelId(0), "b")];
        let keys = b.key_values_vectorized(&refs);
        let cols: Vec<&Column> = refs.iter().map(|c| b.column(c).unwrap()).collect();
        for (row, &key) in keys.iter().enumerate() {
            assert_eq!(key, row_key(&cols, row));
        }
        // Single-int fast path returns raw values.
        let a_col = [b.column(&refs[0]).unwrap()];
        assert_eq!(row_key(&a_col, 2), 2);
    }

    #[test]
    fn empty_batch() {
        let b = Batch::empty();
        assert_eq!(b.num_rows(), 0);
        assert_eq!(b.num_columns(), 0);
    }

    #[test]
    #[should_panic(expected = "key column")]
    fn missing_key_column_panics() {
        sample().key_values_vectorized(&[ColumnRef::new(RelId(9), "id")]);
    }
}

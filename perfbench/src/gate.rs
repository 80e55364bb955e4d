//! The answer gate: reference answers computed with another plan, and the
//! digest that compares full result rows independently of row and column
//! order.

use bqo_core::exec::Batch;
use bqo_core::storage::Column;
use bqo_core::JoinGraph;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// One query's answer: its row count and a digest of its full rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: u64,
    pub digest: u64,
}

impl Answer {
    /// Digests `batch`, the output of a plan over `graph`.
    ///
    /// Plans for one query differ in join order, so their output holds the
    /// same rows in another order and the same columns at other positions.
    /// Columns are ordered by (relation name, column name) and each row is
    /// hashed; the sorted row hashes are hashed again, so two answers are
    /// equal exactly when they hold the same multiset of rows.
    pub fn of(batch: &Batch, graph: &JoinGraph) -> Answer {
        let mut order: Vec<usize> = (0..batch.num_columns()).collect();
        let key = |i: usize| {
            let c = &batch.schema()[i];
            (graph.relation(c.relation).name.as_str(), c.column.as_str())
        };
        order.sort_by(|&a, &b| key(a).cmp(&key(b)));
        let columns = batch.columns();
        let mut row_hashes: Vec<u64> = (0..batch.num_rows())
            .map(|logical| {
                let row = batch.physical_row(logical);
                let mut h = DefaultHasher::new();
                for &i in &order {
                    key(i).hash(&mut h);
                    match columns[i].as_ref() {
                        Column::Int64(v) => v[row].hash(&mut h),
                        Column::Float64(v) => v[row].to_bits().hash(&mut h),
                        Column::Utf8(v) => v[row].hash(&mut h),
                        Column::Bool(v) => v[row].hash(&mut h),
                    }
                }
                h.finish()
            })
            .collect();
        row_hashes.sort_unstable();
        let mut h = DefaultHasher::new();
        row_hashes.hash(&mut h);
        Answer {
            rows: batch.num_rows() as u64,
            digest: h.finish(),
        }
    }
}

/// A stable 64-bit hash of a string (plan renderings, SQL text).
pub fn text_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

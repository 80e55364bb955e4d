//! Vectorized probe kernels.
//!
//! The per-morsel hot loops of the scan and join operators — bitvector
//! membership tests over candidate rows — gather the candidates' join keys
//! column-at-a-time ([`crate::batch::gather_keys`]), probe them 64 keys per
//! survivor word ([`BitvectorFilter::probe_words`]), and compact the
//! survivors in place from the word masks. This is the only probe path in
//! the operators.
//!
//! The result is defined row at a time: a row survives iff
//! [`BitvectorFilter::maybe_contains`] accepts its key, survivors keep
//! their order, and [`FilterStats`] count every candidate as probed and
//! every rejected one as eliminated. The `kernel_oracle` suite
//! property-tests the kernels against that definition over word-aligned
//! and ragged lengths, and the row-at-a-time reference executor in the
//! integration tests checks whole queries against it.

use crate::batch::{gather_keys, row_key};
use bqo_bitvector::{BitvectorFilter, FilterStats};
use bqo_storage::Column;

/// Minimum candidate count before the word-level path engages; below it a
/// `maybe_contains` loop runs (identical results, no gather/mask setup
/// cost). Plays
/// the same overhead-gate role as [`crate::ExecConfig::parallel_threshold`]
/// does for fan-out.
pub const VECTOR_MIN_ROWS: usize = 16;

/// Reusable scratch buffers for the gather → probe → compact pipeline, so a
/// morsel kernel probing several filters allocates at most once.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    keys: Vec<i64>,
    words: Vec<u64>,
}

/// Vectorized in-place refinement: keeps only the `rows` (physical indices
/// into `columns`) whose join key passes `filter`, preserving order, and
/// counts every candidate as probed and every rejected one as eliminated —
/// exactly like the row-at-a-time loop
/// `rows.retain(|&r| { let keep = filter.maybe_contains(row_key(columns, r)); stats.record(!keep); keep })`.
pub fn probe_retain<F: BitvectorFilter + ?Sized>(
    filter: &F,
    columns: &[&Column],
    rows: &mut Vec<usize>,
    stats: &mut FilterStats,
    scratch: &mut ProbeScratch,
) {
    let before = rows.len();
    if before < VECTOR_MIN_ROWS {
        rows.retain(|&row| {
            let keep = filter.maybe_contains(row_key(columns, row));
            stats.record(!keep);
            keep
        });
        return;
    }
    gather_keys(columns, rows, &mut scratch.keys);
    filter.probe_words(&scratch.keys, &mut scratch.words);
    let kept = compact_by_mask(rows, &scratch.words);
    stats.probed += before as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
    stats.eliminated += (before - kept) as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
}

/// Vectorized mask computation for a contiguous key range: returns the
/// keep-mask for `keys[start..end]` and records one probe per key — the
/// word-level equivalent of mapping `maybe_contains` over the range. Used by
/// the hash join's residual filters, whose output feeds
/// [`crate::Batch::filter_select`].
pub fn probe_mask_range<F: BitvectorFilter + ?Sized>(
    filter: &F,
    keys: &[i64],
    start: usize,
    end: usize,
    stats: &mut FilterStats,
    scratch: &mut ProbeScratch,
) -> Vec<bool> {
    let slice = &keys[start..end];
    if slice.len() < VECTOR_MIN_ROWS {
        return slice
            .iter()
            .map(|&k| {
                let keep = filter.maybe_contains(k);
                stats.record(!keep);
                keep
            })
            .collect();
    }
    filter.probe_words(slice, &mut scratch.words);
    let mut mask = Vec::with_capacity(slice.len());
    for (i, _) in slice.iter().enumerate() {
        mask.push((scratch.words[i / 64] >> (i % 64)) & 1 == 1);
    }
    let kept: usize = scratch.words.iter().map(|w| w.count_ones() as usize).sum(); // CAST-OK: popcount <= 64 fits usize
    stats.probed += slice.len() as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
    stats.eliminated += (slice.len() - kept) as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
    mask
}

/// Compacts `rows` in place keeping index `i` iff bit `i % 64` of word
/// `i / 64` is set; returns the surviving count. Order is preserved.
fn compact_by_mask(rows: &mut Vec<usize>, words: &[u64]) -> usize {
    let mut kept = 0usize;
    for i in 0..rows.len() {
        if (words[i / 64] >> (i % 64)) & 1 == 1 {
            rows[kept] = rows[i];
            kept += 1;
        }
    }
    rows.truncate(kept);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_bitvector::{AnyFilter, FilterKind};

    fn scalar_retain(
        filter: &AnyFilter,
        columns: &[&Column],
        rows: &mut Vec<usize>,
        stats: &mut FilterStats,
    ) {
        rows.retain(|&row| {
            let keep = filter.maybe_contains(row_key(columns, row));
            stats.record(!keep);
            keep
        });
    }

    #[test]
    fn probe_retain_matches_scalar_loop() {
        let values: Vec<i64> = (0..500).map(|i| i * 3 % 101).collect();
        let col = Column::Int64(values);
        let cols = [&col];
        let filter = AnyFilter::from_keys(FilterKind::Bitmap, &(0..50).collect::<Vec<i64>>());
        // Lengths straddling the word-size and gate boundaries.
        for len in [0usize, 1, 15, 16, 63, 64, 65, 128, 500] {
            let candidates: Vec<usize> = (0..len).collect();
            let mut scalar_rows = candidates.clone();
            let mut scalar_stats = FilterStats::new();
            scalar_retain(&filter, &cols, &mut scalar_rows, &mut scalar_stats);

            let mut vec_rows = candidates;
            let mut vec_stats = FilterStats::new();
            let mut scratch = ProbeScratch::default();
            probe_retain(&filter, &cols, &mut vec_rows, &mut vec_stats, &mut scratch);

            assert_eq!(vec_rows, scalar_rows, "len {len}");
            assert_eq!(vec_stats, scalar_stats, "len {len}");
        }
    }

    #[test]
    fn probe_retain_all_pass_and_all_fail() {
        let col = Column::Int64((0..100).collect());
        let cols = [&col];
        let everything = AnyFilter::from_keys(FilterKind::Bitmap, &(0..100).collect::<Vec<i64>>());
        let nothing = AnyFilter::from_keys(FilterKind::Bitmap, &[]);
        let mut scratch = ProbeScratch::default();

        let mut rows: Vec<usize> = (0..100).collect();
        let mut stats = FilterStats::new();
        probe_retain(&everything, &cols, &mut rows, &mut stats, &mut scratch);
        assert_eq!(rows.len(), 100);
        assert_eq!(stats.probed, 100);
        assert_eq!(stats.eliminated, 0);

        let mut stats = FilterStats::new();
        probe_retain(&nothing, &cols, &mut rows, &mut stats, &mut scratch);
        assert!(rows.is_empty());
        assert_eq!(stats.probed, 100);
        assert_eq!(stats.eliminated, 100);
    }

    #[test]
    fn probe_mask_range_matches_scalar_map() {
        let keys: Vec<i64> = (0..300).map(|i| i % 7).collect();
        let filter = AnyFilter::from_keys(FilterKind::Bitmap, &[0, 2, 4]);
        let mut scratch = ProbeScratch::default();
        for (start, end) in [
            (0usize, 0usize),
            (0, 1),
            (5, 20),
            (0, 64),
            (10, 75),
            (0, 300),
        ] {
            let mut scalar_stats = FilterStats::new();
            let scalar_mask: Vec<bool> = keys[start..end]
                .iter()
                .map(|&k| {
                    let keep = filter.maybe_contains(k);
                    scalar_stats.record(!keep);
                    keep
                })
                .collect();
            let mut vec_stats = FilterStats::new();
            let mask = probe_mask_range(&filter, &keys, start, end, &mut vec_stats, &mut scratch);
            assert_eq!(mask, scalar_mask, "range {start}..{end}");
            assert_eq!(vec_stats, scalar_stats, "range {start}..{end}");
        }
    }

    #[test]
    fn compact_preserves_order() {
        let mut rows = vec![10usize, 20, 30, 40, 50];
        // Keep bits 0, 2, 4.
        let kept = compact_by_mask(&mut rows, &[0b10101]);
        assert_eq!(kept, 3);
        assert_eq!(rows, vec![10, 30, 50]);
    }
}

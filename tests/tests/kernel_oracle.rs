//! Kernel-level differential harness: every vectorized probe kernel against
//! its row-at-a-time definition.
//!
//! The operators have one probe/key path, the word-level kernels. This
//! suite pins each of them to the row-at-a-time computation it must equal:
//!
//! * word-level bitvector probes (`probe_word`/`probe_words`) for every
//!   filter kind — dense bitmap, sparse bitmap fallback, exact set, Bloom,
//!   blocked Bloom — against a `maybe_contains` loop,
//! * chunked composite-key hashing (`fold_parts` / `gather_keys` /
//!   `Batch::key_values_vectorized`) against `combine_key` / `row_key`,
//! * selection-vector filtering (`Batch::filter_select` + `into_dense`)
//!   against the value-by-value copy of the reference module, and
//! * the executor-facing retain/mask kernels (`probe_retain`,
//!   `probe_mask_range`) against `maybe_contains` retain/map loops,
//!   including their `FilterStats` accounting,
//!
//! over word-aligned and ragged lengths (0, 1, 63/64/65, non-word-aligned
//! tails), all-pass and all-fail selections, and randomized inputs. Two
//! end-to-end matrices close the loop: whole queries must reproduce the
//! row-at-a-time reference executor (`bqo_integration_tests::reference`)
//! bit for bit for every filter kind, thread count and batch size. CI runs
//! this file at 1 and 4 threads, with `-C overflow-checks=on` in release
//! and with `debug_assertions`, so wrap-prone word/tail index arithmetic
//! cannot pass silently.

use bqo_core::bitvector::hash::{combine_key, fold_parts};
use bqo_core::bitvector::{AnyFilter, BitvectorFilter, FilterKind, FilterStats};
use bqo_core::exec::batch::{gather_keys, row_key};
use bqo_core::exec::kernels::{probe_mask_range, probe_retain, ProbeScratch};
use bqo_core::exec::{Batch, ExecConfig, Executor};
use bqo_core::storage::generator::DataGenerator;
use bqo_core::storage::{Catalog, Column};
use bqo_core::{ColumnPredicate, CompareOp, Engine, OptimizerChoice, QuerySpec, RunOptions};
use bqo_integration_tests::env_threads;
use bqo_integration_tests::reference::{self, filter_rows, key_values, tiny_star};
use bqo_plan::{ColumnRef, RelId};
use proptest::prelude::*;

/// The filter shapes under test. Index 4 spreads the keys so far apart that
/// `RangeBitmapFilter` takes its sparse hash-set fallback arm — the word
/// probe must agree with the scalar probe in both representations.
const NUM_FILTER_SHAPES: usize = 5;

fn build_filter(shape: usize, members: &[i64]) -> AnyFilter {
    match shape {
        0 => AnyFilter::from_keys(FilterKind::Bitmap, members),
        1 => AnyFilter::from_keys(FilterKind::Exact, members),
        2 => AnyFilter::from_keys(FilterKind::Bloom { bits_per_key: 8 }, members),
        3 => AnyFilter::from_keys(FilterKind::BlockedBloom { bits_per_key: 10 }, members),
        _ => {
            // Spread keys to defeat the dense range representation.
            let sparse: Vec<i64> = members.iter().map(|&k| k.wrapping_mul(1_000_003)).collect();
            AnyFilter::from_keys(FilterKind::Bitmap, &sparse)
        }
    }
}

/// Maps probe keys into the same domain the filter of `shape` was built on.
fn probe_key(shape: usize, key: i64) -> i64 {
    if shape == 4 {
        key.wrapping_mul(1_000_003)
    } else {
        key
    }
}

/// The scalar oracle for a word probe: one `maybe_contains` per key.
fn scalar_mask(filter: &AnyFilter, keys: &[i64]) -> Vec<bool> {
    keys.iter().map(|&k| filter.maybe_contains(k)).collect()
}

fn mask_bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

#[test]
fn word_probes_cover_boundary_lengths_for_all_filter_shapes() {
    // Word-size and gate boundaries: empty, single, one-off-word, exact
    // words, ragged tails, all far larger than VECTOR_MIN_ROWS.
    let lengths = [0usize, 1, 2, 15, 16, 63, 64, 65, 66, 127, 128, 129, 200];
    for shape in 0..NUM_FILTER_SHAPES {
        let filter = build_filter(shape, &(0..40).collect::<Vec<i64>>());
        for len in lengths {
            // Mixed hit/miss keys, plus all-pass and all-fail batteries.
            let batteries: [Vec<i64>; 3] = [
                (0..len as i64).map(|k| probe_key(shape, k - 10)).collect(),
                (0..len as i64).map(|k| probe_key(shape, k % 40)).collect(),
                (0..len as i64)
                    .map(|k| probe_key(shape, k + 1_000))
                    .collect(),
            ];
            for keys in &batteries {
                let oracle = scalar_mask(&filter, keys);
                let mut words = Vec::new();
                filter.probe_words(keys, &mut words);
                assert_eq!(
                    words.len(),
                    keys.len().div_ceil(64),
                    "shape {shape} len {len}"
                );
                for (i, &expect) in oracle.iter().enumerate() {
                    assert_eq!(
                        mask_bit(&words, i),
                        expect,
                        "shape {shape} len {len} key index {i}"
                    );
                }
                // Tail bits beyond the last key must be zero so popcount-based
                // survivor counting cannot overcount.
                if let Some(last) = words.last() {
                    let used = keys.len() - (words.len() - 1) * 64;
                    if used < 64 {
                        assert_eq!(last >> used, 0, "shape {shape} len {len} tail bits set");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random keys and member sets: `probe_words` agrees bit-for-bit with
    /// the scalar `maybe_contains` loop for every filter shape.
    #[test]
    fn word_probe_matches_scalar_reference(
        shape in 0usize..NUM_FILTER_SHAPES,
        members in prop::collection::vec(0i64..120, 1..60),
        keys in prop::collection::vec(-40i64..160, 0..200),
    ) {
        let filter = build_filter(shape, &members);
        let keys: Vec<i64> = keys.iter().map(|&k| probe_key(shape, k)).collect();
        let oracle = scalar_mask(&filter, &keys);
        let mut words = Vec::new();
        filter.probe_words(&keys, &mut words);
        for (i, &expect) in oracle.iter().enumerate() {
            prop_assert_eq!(mask_bit(&words, i), expect);
        }
        if let Some(last) = words.last() {
            let used = keys.len() - (words.len() - 1) * 64;
            if used < 64 {
                prop_assert_eq!(last >> used, 0);
            }
        }
    }

    /// Chunked composite-key hashing reproduces the row-at-a-time fold:
    /// `fold_parts` column-by-column == `combine_key` row-by-row, and
    /// `gather_keys` == `row_key` over arbitrary row subsets.
    #[test]
    fn chunked_hash_matches_row_at_a_time(
        rows in prop::collection::vec((-1000i64..1000, -1000i64..1000, 0i64..50), 0..150),
        num_cols in 1usize..4,
    ) {
        let len = rows.len();
        let cols: Vec<Vec<i64>> = (0..num_cols)
            .map(|c| {
                rows.iter()
                    .map(|&(a, b, d)| match c { 0 => a, 1 => b, _ => d })
                    .collect()
            })
            .collect();
        // fold_parts vs combine_key.
        let mut acc = vec![0u64; len];
        for col in &cols {
            fold_parts(&mut acc, col);
        }
        for r in 0..len {
            let parts: Vec<i64> = cols.iter().map(|c| c[r]).collect();
            if num_cols > 1 {
                prop_assert_eq!(acc[r] as i64, combine_key(&parts));
            }
        }
        // gather_keys vs row_key over a strided subset (and the full range).
        let columns: Vec<Column> = cols.iter().map(|c| Column::Int64(c.clone())).collect();
        let refs: Vec<&Column> = columns.iter().collect();
        let subsets: [Vec<usize>; 2] = [
            (0..len).collect(),
            (0..len).step_by(3).collect(),
        ];
        for subset in &subsets {
            let mut gathered = Vec::new();
            gather_keys(&refs, subset, &mut gathered);
            let oracle: Vec<i64> = subset.iter().map(|&r| row_key(&refs, r)).collect();
            prop_assert_eq!(&gathered, &oracle);
        }
    }

    /// Selection-vector filtering is invisible: `filter_select` + densify
    /// equals a value-by-value copy of the surviving rows, stacking across
    /// two rounds of masks, and the vectorized key extraction agrees with
    /// `row_key` on the surviving selection.
    #[test]
    fn selection_filter_and_keys_match_dense_reference(
        cells in prop::collection::vec((-50i64..50, 0u8..2, 0u8..2), 0..130),
    ) {
        let schema = vec![ColumnRef::new(RelId(0), "k"), ColumnRef::new(RelId(0), "f")];
        let ints: Vec<i64> = cells.iter().map(|&(v, _, _)| v).collect();
        let floats: Vec<f64> = cells.iter().map(|&(v, _, _)| v as f64 * 0.5).collect();
        let mask1: Vec<bool> = cells.iter().map(|&(_, m, _)| m == 1).collect();
        let batch = Batch::new(
            schema.clone(),
            vec![Column::Int64(ints), Column::Float64(floats)],
        );

        let dense_once = filter_rows(&batch, &mask1);
        let selected_once = batch.clone().filter_select(&mask1);
        prop_assert_eq!(&selected_once, &dense_once);
        prop_assert_eq!(&selected_once.clone().into_dense(), &dense_once);

        // Second-round mask over the survivors: refining an existing
        // selection must equal filtering the dense intermediate.
        let mask2: Vec<bool> = cells
            .iter()
            .filter(|&&(_, m, _)| m == 1)
            .map(|&(_, _, m2)| m2 == 1)
            .collect();
        let dense_twice = filter_rows(&dense_once, &mask2);
        let selected_twice = selected_once.filter_select(&mask2);
        prop_assert_eq!(&selected_twice, &dense_twice);

        // Key extraction on the selected survivor batch: vectorized ==
        // row-at-a-time == keys of the dense equivalent.
        let key_cols = [schema[0].clone()];
        prop_assert_eq!(
            selected_twice.key_values_vectorized(&key_cols),
            key_values(&dense_twice, &key_cols)
        );
        prop_assert_eq!(
            key_values(&selected_twice, &key_cols),
            key_values(&dense_twice, &key_cols)
        );
    }

    /// The executor-facing kernels: `probe_retain` and `probe_mask_range`
    /// reproduce the scalar retain/map loops — same survivors, same order,
    /// same `FilterStats` — over random candidate sets and filters.
    #[test]
    fn retain_and_mask_kernels_match_scalar_loops(
        shape in 0usize..NUM_FILTER_SHAPES,
        members in prop::collection::vec(0i64..80, 1..50),
        values in prop::collection::vec(0i64..100, 0..180),
        stride in 1usize..4,
    ) {
        let filter = build_filter(shape, &members);
        let mapped: Vec<i64> = values.iter().map(|&v| probe_key(shape, v)).collect();
        let column = Column::Int64(mapped.clone());
        let cols = [&column];
        let candidates: Vec<usize> = (0..values.len()).step_by(stride).collect();

        let mut scalar_rows = candidates.clone();
        let mut scalar_stats = FilterStats::new();
        scalar_rows.retain(|&row| {
            let keep = filter.maybe_contains(row_key(&cols, row));
            scalar_stats.record(!keep);
            keep
        });

        let mut vec_rows = candidates;
        let mut vec_stats = FilterStats::new();
        let mut scratch = ProbeScratch::default();
        probe_retain(&filter, &cols, &mut vec_rows, &mut vec_stats, &mut scratch);
        prop_assert_eq!(&vec_rows, &scalar_rows);
        prop_assert_eq!(vec_stats, scalar_stats);

        // Mask kernel over a sub-range of the gathered keys.
        let start = mapped.len() / 3;
        let end = mapped.len();
        let mut scalar_stats = FilterStats::new();
        let scalar_mask: Vec<bool> = mapped[start..end]
            .iter()
            .map(|&k| {
                let keep = filter.maybe_contains(k);
                scalar_stats.record(!keep);
                keep
            })
            .collect();
        let mut vec_stats = FilterStats::new();
        let mask = probe_mask_range(&filter, &mapped, start, end, &mut vec_stats, &mut scratch);
        prop_assert_eq!(&mask, &scalar_mask);
        prop_assert_eq!(vec_stats, scalar_stats);
    }
}

/// The hand-sized star, executed by the product across every filter kind ×
/// threads {1, 4} × batch sizes {1, 7, 1024, unbatched} with fan-out forced
/// on (`parallel_threshold(1)`), reproduces the reference executor bit for
/// bit — for Bloom filters that means the *same* false positives.
#[test]
fn tiny_star_matrix_matches_reference() {
    let (catalog, graph, plan) = tiny_star();
    for kind in [
        FilterKind::Bitmap,
        FilterKind::Exact,
        FilterKind::Bloom { bits_per_key: 8 },
        FilterKind::BlockedBloom { bits_per_key: 8 },
    ] {
        let base = ExecConfig {
            filter_kind: kind,
            ..ExecConfig::default()
        };
        let oracle = reference::execute(&catalog, &graph, &plan, base).unwrap();
        for threads in [1usize, 4] {
            for batch_size in [1usize, 7, 1024, usize::MAX] {
                let config = base
                    .with_num_threads(threads)
                    .with_batch_size(batch_size)
                    .with_parallel_threshold(1);
                let (result, rows) = Executor::with_config(&catalog, config)
                    .execute_with_rows(&graph, &plan)
                    .unwrap();
                let label = format!("{kind:?} threads={threads} batch={batch_size}");
                oracle.assert_matches(&result, &rows, &label);
            }
        }
    }
}

/// End-to-end closure on a generated star query (skewed fact keys, so
/// probe loops see ragged survivor words): every (threads, batch size)
/// cell, serial and at `BQO_TEST_THREADS`, reproduces the reference
/// executor's rows, operator counters and `FilterStats`.
#[test]
fn generated_star_matches_reference_end_to_end() {
    let gen = DataGenerator::new(8);
    let mut catalog = Catalog::new();
    catalog.register_table(gen.dimension_table("d0", 40, 5));
    catalog.register_table(gen.dimension_table("d1", 70, 7));
    catalog.declare_primary_key("d0", "d0_sk").unwrap();
    catalog.declare_primary_key("d1", "d1_sk").unwrap();
    catalog.register_table(gen.fact_table(
        "fact",
        3000,
        &[("d0".into(), 40, 0.3), ("d1".into(), 70, 0.0)],
    ));
    let engine = Engine::from_catalog(catalog);
    let spec = QuerySpec::new("kernel_oracle_star")
        .table("fact")
        .table("d0")
        .table("d1")
        .join("fact", "d0_sk", "d0", "d0_sk")
        .join("fact", "d1_sk", "d1", "d1_sk")
        .predicate("d0", ColumnPredicate::new("d0_category", CompareOp::Lt, 2))
        .predicate("d1", ColumnPredicate::new("d1_category", CompareOp::Lt, 3));
    let session = engine.session();
    let prepared = engine.prepare(&spec, OptimizerChoice::Bqo).unwrap();

    let oracle = reference::execute(
        engine.catalog(),
        prepared.graph(),
        prepared.plan(),
        ExecConfig::default(),
    )
    .unwrap();
    for threads in [1, env_threads().max(2)] {
        for batch_size in [1usize, 61, 1024] {
            let config = ExecConfig::default()
                .with_num_threads(threads)
                .with_batch_size(batch_size)
                .with_parallel_threshold(1);
            let out = session
                .execute(
                    &prepared,
                    RunOptions::new().with_exec_config(config).collecting_rows(),
                )
                .unwrap();
            let label = format!("threads={threads} batch={batch_size}");
            oracle.assert_matches(&out.result, &out.rows.unwrap(), &label);
        }
    }
}

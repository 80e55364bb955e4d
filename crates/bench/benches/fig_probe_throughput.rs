//! Probe throughput — a row-at-a-time `maybe_contains` loop versus the
//! word-level `probe_words` path the operators run.
//!
//! One key column is probed against each filter shape (dense bitmap, exact
//! set, Bloom, blocked Bloom) both ways, 64 keys per survivor word on the
//! word-level side. Survivor counts are asserted identical before either
//! shape is timed. The executor has a single probe path, so there is no
//! end-to-end arm; `cargo run -p bqo-bench --bin reproduce --release --
//! probe_throughput` prints the measured table and writes
//! `BENCH_probe.json`.

use bqo_core::bitvector::{AnyFilter, BitvectorFilter, FilterKind};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Deterministic xorshift key stream over a 100k domain.
fn make_keys(n: usize) -> Vec<i64> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 100_000) as i64
        })
        .collect()
}

fn bench_probe_kernels(c: &mut Criterion) {
    let keys = make_keys(1_000_000);
    let members: Vec<i64> = (0..40_000).collect();
    let shapes: Vec<(&str, AnyFilter, Vec<i64>)> = vec![
        (
            "bitmap",
            AnyFilter::from_keys(FilterKind::Bitmap, &members),
            keys.clone(),
        ),
        (
            "exact",
            AnyFilter::from_keys(FilterKind::Exact, &members),
            keys.clone(),
        ),
        (
            "bloom8",
            AnyFilter::from_keys(FilterKind::Bloom { bits_per_key: 8 }, &members),
            keys.clone(),
        ),
        (
            "blocked_bloom8",
            AnyFilter::from_keys(FilterKind::BlockedBloom { bits_per_key: 8 }, &members),
            keys.clone(),
        ),
    ];

    let mut group = c.benchmark_group("fig_probe_throughput/kernel");
    group.sample_size(10);
    for (label, filter, probe_keys) in &shapes {
        // The two shapes must agree before either is worth timing.
        let scalar_survivors: u64 = probe_keys
            .iter()
            .map(|&k| filter.maybe_contains(k) as u64)
            .sum();
        let mut words = Vec::new();
        filter.probe_words(probe_keys, &mut words);
        let vector_survivors: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
        assert_eq!(scalar_survivors, vector_survivors, "{label}");

        group.bench_function(format!("{label}/scalar"), |b| {
            b.iter(|| {
                black_box(
                    probe_keys
                        .iter()
                        .map(|&k| filter.maybe_contains(k) as u64)
                        .sum::<u64>(),
                )
            })
        });
        group.bench_function(format!("{label}/word"), |b| {
            let mut words = Vec::new();
            b.iter(|| {
                filter.probe_words(probe_keys, &mut words);
                black_box(words.iter().map(|w| w.count_ones() as u64).sum::<u64>())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_probe_kernels);
criterion_main!(benches);

//! Disk-backed execution oracle.
//!
//! The contract under test: registering a table through its on-disk `.bqo`
//! file instead of in memory changes *where* the scan reads rows, and
//! nothing else. Concretely:
//!
//! * a TPC-DS-like workload executed against a file-backed twin of its
//!   catalog returns **bit-identical** row batches and `FilterStats` to the
//!   in-memory original, across {1, 4} worker threads × {buffered, mmap}
//!   access modes, and every run reproduces the row-at-a-time reference
//!   executor (`bqo_integration_tests::reference`) over its own catalog;
//! * writing a table, reading it back and writing it again reproduces the
//!   original file byte for byte (the format has one canonical encoding);
//! * on a selective scan of a fact table clustered by its join key,
//!   zone-map pruning skips ≥ 50% of the chunks (observed through the
//!   `chunks_pruned` counter) while rows and every counter match the
//!   reference, pruned or not.

use bqo_core::format::{write_table, AccessMode, CatalogExt, FileReader};
use bqo_core::workloads::{tpcds_like, Scale};
use bqo_core::{
    ColumnPredicate, CompareOp, Engine, ExecConfig, OptimizerChoice, PreparedStatement, QuerySpec,
    RunOptions, StatementOutput, TableBuilder,
};
use bqo_integration_tests::reference::{self, ReferenceOutput};
use bqo_storage::Catalog;
use std::path::{Path, PathBuf};

const THREAD_COUNTS: [usize; 2] = [1, 4];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bqo-storage-oracle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes every table of `catalog` to a `.bqo` file in `dir` and builds a
/// catalog registering those files (with `mode` access), carrying over the
/// key declarations — the disk twin of an in-memory catalog.
fn file_twin(catalog: &Catalog, dir: &Path, chunk_rows: usize, mode: AccessMode) -> Catalog {
    let mut names: Vec<String> = catalog
        .table_names()
        .into_iter()
        .map(String::from)
        .collect();
    names.sort();
    let mut twin = Catalog::new();
    for name in &names {
        let table = catalog.table(name).expect("memory-backed original");
        let path = dir.join(format!("{name}.bqo"));
        write_table(&path, &table, chunk_rows).expect("write table file");
        let registered = twin.register_file_with(&path, mode).expect("register file");
        assert_eq!(&registered, name);
        if let Some(pk) = catalog.primary_key(name) {
            twin.declare_primary_key(name, pk).expect("copy pk");
        }
    }
    for fk in catalog.foreign_keys() {
        twin.declare_foreign_key(fk.clone()).expect("copy fk");
    }
    twin
}

/// The reference executor's answer for `stmt` over `engine`'s catalog.
fn reference(engine: &Engine, stmt: &PreparedStatement) -> ReferenceOutput {
    reference::execute(
        engine.catalog(),
        stmt.graph(),
        stmt.plan(),
        ExecConfig::default(),
    )
    .expect("reference execution")
}

fn run(engine: &Engine, stmt: &PreparedStatement, config: ExecConfig) -> StatementOutput {
    engine
        .session()
        .execute(
            stmt,
            RunOptions::new().with_exec_config(config).collecting_rows(),
        )
        .expect("execution")
}

/// Disk-backed TPC-DS-like runs are bit-identical (rows and FilterStats) to
/// the in-memory runs across the threads × access-mode matrix, and every run
/// matches the reference executor over its own catalog.
#[test]
fn disk_backed_runs_are_bit_identical_to_memory() {
    let dir = temp_dir("tpcds");
    let w = tpcds_like::generate(Scale(0.02), 6, 11);
    let memory_engine = Engine::from_catalog(w.catalog.clone());
    // 512-row chunks give the fact tables dozens of chunks each.
    let buffered = Engine::from_catalog(file_twin(&w.catalog, &dir, 512, AccessMode::Buffered));
    let mapped_dir = temp_dir("tpcds-mmap");
    let mapped = Engine::from_catalog(file_twin(&w.catalog, &mapped_dir, 512, AccessMode::Mmap));

    for q in &w.queries {
        let mem_stmt = memory_engine.prepare(q, OptimizerChoice::Bqo).unwrap();
        assert!(mem_stmt.explain().contains("[scan=memory]"));
        let mem_ref = reference(&memory_engine, &mem_stmt);
        for (label, engine) in [("buffered", &buffered), ("mmap", &mapped)] {
            let file_stmt = engine.prepare(q, OptimizerChoice::Bqo).unwrap();
            assert!(
                file_stmt.explain().contains("[scan=file]"),
                "{}: explain should label file-backed scans:\n{}",
                q.name,
                file_stmt.explain()
            );
            let file_ref = reference(engine, &file_stmt);
            for threads in THREAD_COUNTS {
                let config = ExecConfig::default().with_num_threads(threads);
                let mem = run(&memory_engine, &mem_stmt, config);
                let file = run(engine, &file_stmt, config);
                let cell = format!("{} [{label}, {threads} thread(s)]", q.name);
                mem_ref.assert_matches(&mem.result, mem.rows.as_ref().unwrap(), &cell);
                file_ref.assert_matches(&file.result, file.rows.as_ref().unwrap(), &cell);
                assert_eq!(
                    mem.result.output_rows, file.result.output_rows,
                    "{cell}: row counts differ"
                );
                assert_eq!(mem.rows, file.rows, "{cell}: row batches differ");
                assert_eq!(
                    mem.result.metrics.filter_stats, file.result.metrics.filter_stats,
                    "{cell}: FilterStats differ"
                );
                assert_eq!(
                    mem.result.metrics.chunks_read, 0,
                    "{cell}: memory run claims file chunks"
                );
                assert!(
                    file.result.metrics.chunks_read > 0,
                    "{cell}: file run read no chunks"
                );
                assert!(
                    file.result.metrics.bytes_read > 0,
                    "{cell}: file run read no bytes"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(mapped_dir);
}

/// write → read → write reproduces the file byte for byte: the format has
/// one canonical encoding and reading loses nothing.
#[test]
fn write_read_write_round_trip_is_byte_identical() {
    let dir = temp_dir("roundtrip");
    let catalog = tpcds_like::build_catalog(Scale(0.01), 7);
    for name in ["store_sales", "item", "date_dim"] {
        let table = catalog.table(name).unwrap();
        let first = dir.join(format!("{name}-a.bqo"));
        let second = dir.join(format!("{name}-b.bqo"));
        write_table(&first, &table, 1000).unwrap();
        let reread = FileReader::open(&first).unwrap().read_table().unwrap();
        write_table(&second, &reread, 1000).unwrap();
        let a = std::fs::read(&first).unwrap();
        let b = std::fs::read(&second).unwrap();
        assert_eq!(a, b, "{name}: write→read→write changed the bytes");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Builds a two-table catalog whose fact table is *clustered* by the join
/// key: 64 000 fact rows sorted by `fk` over 1000 dimension keys, so each
/// 1024-row chunk covers a narrow 16-key range and a selective dimension
/// predicate makes most chunks provably empty under the pushed-down
/// bitvector filter.
fn clustered_catalog() -> Catalog {
    const FACT_ROWS: usize = 64_000;
    const DIM_ROWS: usize = 1000;
    let mut catalog = Catalog::new();
    catalog.register_table(
        TableBuilder::new("dim")
            .with_i64("sk", (0..DIM_ROWS as i64).collect())
            .with_i64("payload", (0..DIM_ROWS as i64).map(|i| i % 17).collect())
            .build()
            .unwrap(),
    );
    catalog.register_table(
        TableBuilder::new("fact")
            .with_i64("fk", (0..FACT_ROWS).map(|i| (i / 64) as i64).collect())
            .with_f64("amount", (0..FACT_ROWS).map(|i| i as f64 * 0.25).collect())
            .build()
            .unwrap(),
    );
    catalog.declare_primary_key("dim", "sk").unwrap();
    catalog
        .declare_foreign_key(bqo_core::ForeignKey::new("fact", "fk", "dim", "sk"))
        .unwrap();
    catalog
}

/// Zone-map pruning skips ≥ 50% of the chunks on a selective clustered
/// scan, and force-disabling it changes no row and no counter.
#[test]
fn zone_map_pruning_skips_most_chunks_and_changes_nothing() {
    let dir = temp_dir("pruning");
    let memory = clustered_catalog();
    // 1024-row chunks: fact = 63 chunks (ragged tail), dim = 1 chunk.
    let engine = Engine::from_catalog(file_twin(&memory, &dir, 1024, AccessMode::Buffered));

    // dim.sk < 100 keeps keys 0..100 → fact rows 0..6400 → chunks 0..=6.
    let query = QuerySpec::new("selective")
        .table("fact")
        .table("dim")
        .join("fact", "fk", "dim", "sk")
        .predicate("dim", ColumnPredicate::new("sk", CompareOp::Lt, 100i64));
    let stmt = engine.prepare(&query, OptimizerChoice::Bqo).unwrap();
    let oracle = reference(&engine, &stmt);

    for threads in THREAD_COUNTS {
        let base = ExecConfig::default().with_num_threads(threads);
        let pruned = run(&engine, &stmt, base);
        let unpruned = run(&engine, &stmt, base.with_zone_map_pruning(false));
        let cell = format!("[{threads} thread(s)]");

        // Identical answers and identical counters either way: both runs
        // reproduce the reference.
        assert_eq!(pruned.result.output_rows, 6400, "{cell}");
        oracle.assert_matches(&pruned.result, pruned.rows.as_ref().unwrap(), &cell);
        oracle.assert_matches(&unpruned.result, unpruned.rows.as_ref().unwrap(), &cell);

        // The unpruned run touches every chunk; the pruned run skips
        // well over half of them (the ≥ 50% acceptance bar).
        let m = &pruned.result.metrics;
        let total = m.chunks_read + m.chunks_pruned;
        assert_eq!(
            total, unpruned.result.metrics.chunks_read,
            "{cell}: pruned + read must cover every chunk"
        );
        assert_eq!(unpruned.result.metrics.chunks_pruned, 0, "{cell}");
        assert!(
            m.chunks_pruned * 2 >= total,
            "{cell}: expected ≥50% of chunks pruned, got {} of {total}",
            m.chunks_pruned
        );
        assert!(
            m.bytes_read < unpruned.result.metrics.bytes_read,
            "{cell}: pruning should cut bytes read"
        );
        assert!(
            m.chunk_pruning_ratio() >= 0.5,
            "{cell}: pruning ratio {}",
            m.chunk_pruning_ratio()
        );
    }

    // EXPLAIN ANALYZE surfaces the backing and the pruning counters.
    let session = engine.session();
    let analyzed = session.explain_analyze(&stmt).unwrap();
    assert!(analyzed.contains("[scan=file]"), "{analyzed}");
    assert!(analyzed.contains("zone_map_pruning=on"), "{analyzed}");
    assert!(analyzed.contains("chunks_pruned="), "{analyzed}");
    assert!(analyzed.contains("pruned "), "{analyzed}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Predicate-based zone pruning (no bitvectors involved): a range predicate
/// on the clustered fact column itself prunes chunks whose min/max cannot
/// satisfy it, again with unchanged answers.
#[test]
fn predicate_zone_pruning_matches_unpruned_answers() {
    let dir = temp_dir("pred-pruning");
    let memory = clustered_catalog();
    let engine = Engine::from_catalog(file_twin(&memory, &dir, 1024, AccessMode::Mmap));
    let memory_engine = Engine::from_catalog(memory);

    // A local predicate on the fact's clustered column: fk < 50 keeps the
    // first ~3200 rows; every chunk with min ≥ 50 is pruned by zone maps.
    let query = QuerySpec::new("local")
        .table("fact")
        .table("dim")
        .join("fact", "fk", "dim", "sk")
        .predicate("fact", ColumnPredicate::new("fk", CompareOp::Lt, 50i64));
    let file_stmt = engine.prepare(&query, OptimizerChoice::Bqo).unwrap();
    let mem_stmt = memory_engine.prepare(&query, OptimizerChoice::Bqo).unwrap();

    let config = ExecConfig::default().with_num_threads(4);
    let file_out = run(&engine, &file_stmt, config);
    let mem_out = run(&memory_engine, &mem_stmt, config);
    assert_eq!(file_out.result.output_rows, 3200);
    reference(&engine, &file_stmt).assert_matches(
        &file_out.result,
        file_out.rows.as_ref().unwrap(),
        "predicate-pruned file run",
    );
    assert_eq!(file_out.rows, mem_out.rows);
    assert_eq!(
        file_out.result.metrics.filter_stats,
        mem_out.result.metrics.filter_stats
    );
    assert!(
        file_out.result.metrics.chunks_pruned * 2
            >= file_out.result.metrics.chunks_pruned + file_out.result.metrics.chunks_read,
        "expected most chunks pruned by the local predicate, read={} pruned={}",
        file_out.result.metrics.chunks_read,
        file_out.result.metrics.chunks_pruned
    );
    let _ = std::fs::remove_dir_all(dir);
}

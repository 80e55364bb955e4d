//! Semantics of the serving-side plan cache: fingerprint stability under
//! spec reordering, catalog-version invalidation, selectivity-envelope
//! exits that provably re-optimize into a different bitvector placement, and
//! the LRU capacity bound (eviction counters, hot-entry retention).

use bqo_core::workloads::{star, Scale};
use bqo_core::{
    CacheStatus, ColumnPredicate, CompareOp, Engine, OptimizerChoice, Params, PlanCache, QuerySpec,
    RunOptions,
};
use std::sync::Arc;

const DIMS: usize = 3;

fn star_engine(seed: u64) -> Engine {
    Engine::from_catalog(star::build_catalog(Scale(0.02), DIMS, seed))
}

/// The same query written with tables, join sides and predicates in a
/// different order must fingerprint identically and therefore hit.
#[test]
fn fingerprint_is_stable_under_spec_reordering() {
    let engine = star_engine(7);
    let a = QuerySpec::new("order_a")
        .table("fact")
        .table("dim0")
        .table("dim1")
        .join("fact", "dim0_sk", "dim0", "dim0_sk")
        .join("fact", "dim1_sk", "dim1", "dim1_sk")
        .predicate(
            "dim0",
            ColumnPredicate::new("dim0_category", CompareOp::Lt, 3i64),
        )
        .predicate(
            "dim1",
            ColumnPredicate::new("dim1_category", CompareOp::Lt, 9i64),
        );
    // Different name, table order, join order and join side order.
    let b = QuerySpec::new("order_b")
        .table("dim1")
        .table("dim0")
        .table("fact")
        .join("dim1", "dim1_sk", "fact", "dim1_sk")
        .join("fact", "dim0_sk", "dim0", "dim0_sk")
        .predicate(
            "dim1",
            ColumnPredicate::new("dim1_category", CompareOp::Lt, 9i64),
        )
        .predicate(
            "dim0",
            ColumnPredicate::new("dim0_category", CompareOp::Lt, 3i64),
        );

    let first = engine.prepare(&a, OptimizerChoice::Bqo).unwrap();
    assert_eq!(first.cache_status(), CacheStatus::Miss);
    let second = engine.prepare(&b, OptimizerChoice::Bqo).unwrap();
    assert_eq!(second.cache_status(), CacheStatus::Hit);
    assert_eq!(engine.plan_cache().hits(), 1);
    assert_eq!(engine.plan_cache().misses(), 1);
    assert_eq!(engine.plan_cache().len(), 1);

    // The hit is only legitimate if the served plan actually *executes*
    // correctly for the reordered spec: the cached plan is renumbered to
    // spec B's relation ids, so both statements run the same join tree and
    // must return identical rows. Relation *ids* in the output schema follow
    // each spec's own table order, so compare by qualified name + data.
    let session = engine.session();
    let config = bqo_core::ExecConfig::default();
    let first_out = session
        .execute(
            &first,
            bqo_core::RunOptions::new()
                .with_exec_config(config)
                .collecting_rows(),
        )
        .unwrap();
    let second_out = session
        .execute(
            &second,
            bqo_core::RunOptions::new()
                .with_exec_config(config)
                .collecting_rows(),
        )
        .unwrap();
    let (first_result, first_rows) = (first_out.result, first_out.rows.unwrap());
    let (second_result, second_rows) = (second_out.result, second_out.rows.unwrap());
    assert_eq!(first_result.output_rows, second_result.output_rows);
    assert_eq!(first_rows.num_rows(), second_rows.num_rows());
    assert_eq!(first_rows.num_columns(), second_rows.num_columns());
    let qualified = |stmt: &bqo_core::PreparedStatement, rows: &bqo_core::exec::Batch| {
        rows.schema()
            .iter()
            .map(|c| format!("{}.{}", stmt.graph().relation(c.relation).name, c.column))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        qualified(&first, &first_rows),
        qualified(&second, &second_rows)
    );
    assert_eq!(first_rows.columns(), second_rows.columns());
    // And both agree with an uncached engine preparing spec B directly.
    let fresh_engine = star_engine(7);
    let fresh = fresh_engine.prepare(&b, OptimizerChoice::Bqo).unwrap();
    assert_eq!(
        fresh_engine
            .session()
            .execute(&fresh, RunOptions::new())
            .unwrap()
            .result
            .output_rows,
        second_result.output_rows
    );

    // A genuinely different literal is a different entry.
    let c = QuerySpec::new("order_c")
        .table("fact")
        .table("dim0")
        .table("dim1")
        .join("fact", "dim0_sk", "dim0", "dim0_sk")
        .join("fact", "dim1_sk", "dim1", "dim1_sk")
        .predicate(
            "dim0",
            ColumnPredicate::new("dim0_category", CompareOp::Lt, 4i64),
        )
        .predicate(
            "dim1",
            ColumnPredicate::new("dim1_category", CompareOp::Lt, 9i64),
        );
    assert_eq!(
        engine
            .prepare(&c, OptimizerChoice::Bqo)
            .unwrap()
            .cache_status(),
        CacheStatus::Miss
    );
}

/// Engines over different generations of one catalog can share a plan cache:
/// a catalog-version bump invalidates (misses past) the older generation's
/// entries, while an engine over the *same* generation hits them.
#[test]
fn catalog_version_bump_is_a_cache_miss() {
    let catalog = star::build_catalog(Scale(0.02), DIMS, 7);
    let cache = PlanCache::new();
    let query = star::build_query("versioned", DIMS, &[(0, 2)]);

    let engine_v1 = Engine::builder()
        .catalog(catalog.clone())
        .plan_cache(cache.clone())
        .build()
        .unwrap();
    assert_eq!(
        engine_v1
            .prepare(&query, OptimizerChoice::Bqo)
            .unwrap()
            .cache_status(),
        CacheStatus::Miss
    );

    // Same catalog generation, same shared cache: hit.
    let engine_v1b = Engine::builder()
        .catalog(catalog.clone())
        .plan_cache(cache.clone())
        .build()
        .unwrap();
    assert_eq!(engine_v1b.catalog_version(), engine_v1.catalog_version());
    assert_eq!(
        engine_v1b
            .prepare(&query, OptimizerChoice::Bqo)
            .unwrap()
            .cache_status(),
        CacheStatus::Hit
    );

    // Mutate the catalog (re-register a dimension -> version bump): the new
    // engine's keys no longer match the v1 entries.
    let mut bumped = catalog.clone();
    let dim0 = bumped.table("dim0").unwrap();
    bumped.register_table((*dim0).clone());
    bumped.declare_primary_key("dim0", "dim0_sk").unwrap();
    assert!(bumped.version() > catalog.version());
    let engine_v2 = Engine::builder()
        .catalog(bumped)
        .plan_cache(cache.clone())
        .build()
        .unwrap();
    assert_ne!(engine_v2.catalog_version(), engine_v1.catalog_version());
    assert_eq!(
        engine_v2
            .prepare(&query, OptimizerChoice::Bqo)
            .unwrap()
            .cache_status(),
        CacheStatus::Miss
    );
    assert_eq!(cache.len(), 2, "one entry per catalog version");
}

/// The paper's core observation, enforced at the cache boundary: binds whose
/// selectivities stay inside the stored envelope reuse the plan (optimizer
/// skipped, asserted via counters and pointer-shared plans), while a bind
/// that leaves the envelope re-optimizes into a *different* bitvector
/// placement — serving the stale plan would have kept a filter the λ
/// threshold no longer justifies.
#[test]
fn envelope_exit_reoptimizes_and_changes_the_bitvector_placement() {
    let engine = star_engine(11);
    let session = engine.session();
    let template = star::build_param_query("swing", DIMS, &[DIMS - 1]);
    let param = format!("bound{}", DIMS - 1);
    let cache = engine.plan_cache();

    // Highly selective bind: 1 of 20 categories survives the biggest
    // dimension, so BQO pushes that dimension's bitvector filter down.
    let selective = engine
        .bind(
            &template,
            &Params::new().set(&*param, 1i64),
            OptimizerChoice::Bqo,
        )
        .unwrap();
    assert_eq!(selective.cache_status(), CacheStatus::Miss);
    assert!(
        !selective.plan().placements.is_empty(),
        "selective bind should place bitvector filters"
    );

    // Nearby bind (2/20 instead of 1/20): inside the 4x envelope — served
    // from the cache without optimization, sharing the plan allocation.
    let nearby = engine
        .bind(
            &template,
            &Params::new().set(&*param, 2i64),
            OptimizerChoice::Bqo,
        )
        .unwrap();
    assert_eq!(nearby.cache_status(), CacheStatus::Hit);
    assert!(Arc::ptr_eq(&selective.shared_plan(), &nearby.shared_plan()));
    assert_eq!(
        (cache.hits(), cache.misses(), cache.reoptimizations()),
        (1, 1, 0)
    );

    // Unselective bind (20/20 = selectivity 1.0): leaves the envelope, the
    // λ-threshold regime flips, and re-optimization drops/moves placements.
    let unselective = engine
        .bind(
            &template,
            &Params::new().set(&*param, star::CATEGORIES as i64),
            OptimizerChoice::Bqo,
        )
        .unwrap();
    assert_eq!(unselective.cache_status(), CacheStatus::Reoptimized);
    assert_ne!(
        unselective.plan().placements,
        selective.plan().placements,
        "envelope exit must change the bitvector placement"
    );
    assert_eq!(
        (cache.hits(), cache.misses(), cache.reoptimizations()),
        (1, 1, 1)
    );

    // All three binds still compute correct (plan-invariant) answers, and
    // the re-optimized entry now serves the unselective regime.
    for (stmt, bound) in [(&selective, 1i64), (&nearby, 2), (&unselective, 20)] {
        let fresh_engine = star_engine(11);
        let fresh = fresh_engine
            .bind(
                &template,
                &Params::new().set(&*param, bound),
                OptimizerChoice::Bqo,
            )
            .unwrap();
        assert_eq!(
            session
                .execute(stmt, RunOptions::new())
                .unwrap()
                .result
                .output_rows,
            fresh_engine
                .session()
                .execute(&fresh, RunOptions::new())
                .unwrap()
                .result
                .output_rows,
            "bound={bound}"
        );
    }
    let again = engine
        .bind(
            &template,
            &Params::new().set(&*param, (star::CATEGORIES - 1) as i64),
            OptimizerChoice::Bqo,
        )
        .unwrap();
    assert_eq!(again.cache_status(), CacheStatus::Hit);
}

/// A capacity-bounded cache behind an engine evicts least-recently-used
/// entries, counts the evictions, and keeps the traffic's hot entries.
#[test]
fn lru_eviction_bounds_a_shared_engine_cache() {
    let catalog = star::build_catalog(Scale(0.02), DIMS, 31);
    let engine = Engine::builder()
        .catalog(catalog)
        .plan_cache(PlanCache::with_capacity(2))
        .build()
        .unwrap();
    let cache = engine.plan_cache();
    assert_eq!(cache.capacity(), 2);

    let queries: Vec<QuerySpec> = (0..3)
        .map(|i| star::build_query(format!("evict_q{i}"), DIMS, &[(i % DIMS, 3 + i as i64)]))
        .collect();

    // Fill the cache with q0 and q1, keep q0 hot, then admit q2: q1 is the
    // LRU victim.
    assert_eq!(
        engine
            .prepare(&queries[0], OptimizerChoice::Bqo)
            .unwrap()
            .cache_status(),
        CacheStatus::Miss
    );
    assert_eq!(
        engine
            .prepare(&queries[1], OptimizerChoice::Bqo)
            .unwrap()
            .cache_status(),
        CacheStatus::Miss
    );
    assert_eq!(
        engine
            .prepare(&queries[0], OptimizerChoice::Bqo)
            .unwrap()
            .cache_status(),
        CacheStatus::Hit
    );
    assert_eq!(
        engine
            .prepare(&queries[2], OptimizerChoice::Bqo)
            .unwrap()
            .cache_status(),
        CacheStatus::Miss
    );
    let stats = cache.cache_stats();
    assert_eq!((stats.len, stats.evictions), (2, 1));

    // The hot entry survived; the evicted one pays a fresh optimizer run.
    assert_eq!(
        engine
            .prepare(&queries[0], OptimizerChoice::Bqo)
            .unwrap()
            .cache_status(),
        CacheStatus::Hit
    );
    assert_eq!(
        engine
            .prepare(&queries[1], OptimizerChoice::Bqo)
            .unwrap()
            .cache_status(),
        CacheStatus::Miss
    );
    assert_eq!(cache.evictions(), 2);

    // Evicted-and-reloaded plans still execute correctly.
    let stmt = engine.prepare(&queries[1], OptimizerChoice::Bqo).unwrap();
    assert!(
        engine
            .session()
            .execute(&stmt, RunOptions::new())
            .unwrap()
            .result
            .output_rows
            > 0
    );
}

//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; this small library provides
//! random join-graph construction used by the property-based tests of the
//! paper's theorems, the hand-written mini warehouse and `.slt` reader of the
//! SQL conformance harness, and the row-at-a-time [`mod@reference`] executor the
//! differential suites compare the product pipeline against.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod mini;
pub mod reference;
pub mod slt;

use bqo_plan::{JoinEdge, JoinGraph, RelationInfo};

/// Worker-thread count requested for this test run via the
/// `BQO_TEST_THREADS` environment variable (CI runs the suite once with `1`
/// and once with `4`). Defaults to 1; unparsable or zero values degrade to 1,
/// mirroring `ExecConfig::with_num_threads` clamping.
pub fn env_threads() -> usize {
    std::env::var("BQO_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// Builds a star join graph with the given fact cardinality and per-dimension
/// `(base_rows, filtered_rows)` pairs.
pub fn star_graph(fact_rows: f64, dims: &[(f64, f64)]) -> JoinGraph {
    let mut g = JoinGraph::new();
    let fact = g.add_relation(RelationInfo::new("fact", fact_rows, fact_rows));
    for (i, &(base, filtered)) in dims.iter().enumerate() {
        let d = g.add_relation(RelationInfo::new(
            format!("d{i}"),
            base,
            filtered.min(base).max(1.0),
        ));
        g.add_edge(JoinEdge::pkfk(fact, format!("d{i}_sk"), d, "sk", base));
    }
    g
}

/// Builds a chain join graph `r0 -> r1 -> ... -> rn` with the given
/// per-relation `(base_rows, filtered_rows)` pairs (the first entry is `r0`).
pub fn chain_graph(levels: &[(f64, f64)]) -> JoinGraph {
    let mut g = JoinGraph::new();
    let mut prev = None;
    for (i, &(base, filtered)) in levels.iter().enumerate() {
        let r = g.add_relation(RelationInfo::new(
            format!("r{i}"),
            base,
            filtered.min(base).max(1.0),
        ));
        if let Some(p) = prev {
            g.add_edge(JoinEdge::pkfk(p, format!("r{i}_sk"), r, "sk", base));
        }
        prev = Some(r);
    }
    g
}

/// Builds a snowflake join graph from a fact cardinality and a list of
/// branches, each branch a list of `(base_rows, filtered_rows)` ordered from
/// the relation adjacent to the fact outwards.
pub fn snowflake_graph(fact_rows: f64, branches: &[Vec<(f64, f64)>]) -> JoinGraph {
    let mut g = JoinGraph::new();
    let fact = g.add_relation(RelationInfo::new("fact", fact_rows, fact_rows));
    for (b, branch) in branches.iter().enumerate() {
        let mut prev = fact;
        for (j, &(base, filtered)) in branch.iter().enumerate() {
            let r = g.add_relation(RelationInfo::new(
                format!("b{b}_{j}"),
                base,
                filtered.min(base).max(1.0),
            ));
            g.add_edge(JoinEdge::pkfk(prev, format!("b{b}_{j}_sk"), r, "sk", base));
            prev = r;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_plan::GraphShape;

    #[test]
    fn helpers_build_expected_shapes() {
        let s = star_graph(1e6, &[(100.0, 10.0), (50.0, 50.0)]);
        assert!(matches!(s.classify(), GraphShape::Star { .. }));
        let c = chain_graph(&[(1e5, 1e5), (1e3, 500.0), (10.0, 2.0)]);
        assert!(matches!(c.classify(), GraphShape::Branch { .. }));
        let f = snowflake_graph(1e6, &[vec![(1e3, 1e3), (10.0, 5.0)], vec![(100.0, 10.0)]]);
        assert!(matches!(f.classify(), GraphShape::Snowflake { .. }));
    }

    #[test]
    fn filtered_rows_are_clamped() {
        let s = star_graph(1e6, &[(100.0, 1e9)]);
        let d = s.relation_by_name("d0").unwrap();
        assert_eq!(s.relation(d).filtered_rows, 100.0);
    }
}

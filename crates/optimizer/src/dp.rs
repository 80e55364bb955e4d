//! Baseline join-order optimization: dynamic programming over connected
//! subgraphs (exact, exponential) and a greedy fallback for very large
//! queries.
//!
//! This models the paper's baseline ("the original Microsoft SQL Server"
//! without bitvector-aware join ordering): a cost-based optimizer that
//! minimizes plain `Cout` — the effect of bitvector filters is *not* part of
//! the cost — over bushy trees without cross products.

use bqo_plan::{CardinalityEstimator, CostModel, JoinGraph, JoinTree, RelId, RelSet};

/// Exact dynamic-programming optimizer (DPsub over connected subsets).
#[derive(Debug, Clone, Copy, Default)]
pub struct DpOptimizer;

impl DpOptimizer {
    /// Creates the optimizer.
    pub fn new() -> Self {
        DpOptimizer
    }

    /// Finds a minimum-`Cout` bushy join tree without cross products. Cost is
    /// the plain (bitvector-unaware) `Cout`.
    ///
    /// Subsets are `u32` masks (bit `i` is relation `i`); connectivity and
    /// adjacency come from per-subset neighbour masks, built once.
    ///
    /// # Panics
    /// Panics if the graph is empty or disconnected (a disconnected query
    /// would need cross products).
    pub fn best_tree(&self, graph: &JoinGraph, cost_model: &CostModel<'_>) -> JoinTree {
        let n = graph.num_relations();
        assert!(n > 0, "cannot optimize an empty join graph");
        assert!(
            graph.is_connected(),
            "disconnected join graphs require cross products, which are not supported"
        );
        assert!(
            n <= 20,
            "DP over {n} relations is infeasible; use GreedyOptimizer"
        );

        let est = cost_model.estimator();
        let full: u32 = (1u32 << n) - 1;
        let size = full as usize + 1;
        // neighbors[mask]: relations adjacent to some relation of `mask`,
        // built from each relation's own neighbour mask.
        let own: Vec<u32> = graph
            .relation_ids()
            .map(|r| {
                graph
                    .neighbors(r)
                    .iter()
                    .fold(0u32, |m, o| m | 1 << o.index())
            })
            .collect();
        let mut neighbors = vec![0u32; size];
        for mask in 1..size {
            neighbors[mask] = neighbors[mask & (mask - 1)] | own[mask.trailing_zeros() as usize];
        }
        let connected = |mask: u32| {
            let mut seen = mask & mask.wrapping_neg();
            loop {
                let grown = (seen | neighbors[seen as usize]) & mask;
                if grown == seen {
                    return seen == mask;
                }
                seen = grown;
            }
        };

        // best[mask] = (cost, build-side mask of the best split; 0 for a
        // leaf). Cost is the full Cout of the subplan (base cardinalities +
        // intermediate join results).
        let mut best: Vec<Option<(f64, u32)>> = vec![None; size];
        for r in graph.relation_ids() {
            best[1 << r.index()] = Some((est.base_card(r), 0));
        }

        for mask in 1..=full {
            if mask.count_ones() < 2 || !connected(mask) {
                continue;
            }
            let output = est.join_card(&RelSet::from_words(vec![u64::from(mask)]));
            let mut best_here: Option<(f64, u32)> = None;
            // Enumerate proper subsets of `mask` as the build side; both
            // orders of each pair are visited (build vs probe matters).
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                let other = mask & !sub;
                if let (Some((c1, _)), Some((c2, _))) = (best[sub as usize], best[other as usize]) {
                    if neighbors[sub as usize] & other != 0 {
                        let cost = c1 + c2 + output;
                        if best_here.is_none_or(|(c, _)| cost < c) {
                            best_here = Some((cost, sub));
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
            best[mask as usize] = best_here;
        }
        tree_of(&best, full)
    }
}

/// Rebuilds the best tree for `mask` from the DP table's recorded splits.
fn tree_of(best: &[Option<(f64, u32)>], mask: u32) -> JoinTree {
    let (_, build) =
        best[mask as usize].expect("connected graph always has a cross-product-free plan");
    if build == 0 {
        JoinTree::Leaf(RelId(mask.trailing_zeros() as usize))
    } else {
        JoinTree::join(tree_of(best, build), tree_of(best, mask & !build))
    }
}

/// Greedy optimizer (GOO-style): repeatedly joins the pair of plan fragments
/// with the smallest estimated result, used for queries too large for DP
/// (the CUSTOMER-like workload reaches 80 joins).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyOptimizer;

/// One partial plan of the greedy optimizer.
struct Fragment {
    /// Relations joined by the fragment.
    set: RelSet,
    /// Relations adjacent to some relation of the fragment.
    neighbors: RelSet,
    /// `join_card(set)`, computed once when the fragment is formed.
    card: f64,
    tree: JoinTree,
}

impl GreedyOptimizer {
    /// Creates the optimizer.
    pub fn new() -> Self {
        GreedyOptimizer
    }

    /// Builds a bushy tree by greedily merging the cheapest connected pair.
    pub fn best_tree(&self, graph: &JoinGraph, cost_model: &CostModel<'_>) -> JoinTree {
        let est: &CardinalityEstimator<'_> = cost_model.estimator();
        let n = graph.num_relations();
        assert!(n > 0, "cannot optimize an empty join graph");
        let mut fragments: Vec<Fragment> = graph
            .relation_ids()
            .map(|r| {
                let set = RelSet::singleton(n, r);
                Fragment {
                    card: est.join_card(&set),
                    set,
                    neighbors: graph.neighbor_set(r),
                    tree: JoinTree::Leaf(r),
                }
            })
            .collect();
        while fragments.len() > 1 {
            let mut best_pair: Option<(usize, usize, f64)> = None;
            for i in 0..fragments.len() {
                for j in i + 1..fragments.len() {
                    if !fragments[i].neighbors.intersects(&fragments[j].set) {
                        continue;
                    }
                    let card = est.join_card(&fragments[i].set.union(&fragments[j].set));
                    if best_pair.is_none_or(|(_, _, c)| card < c) {
                        best_pair = Some((i, j, card));
                    }
                }
            }
            let (i, j, card) = best_pair
                .expect("disconnected join graphs require cross products, which are not supported");
            // Keep the smaller side as the hash-join build input.
            let fragment_j = fragments.swap_remove(j);
            let fragment_i = fragments.swap_remove(i.min(fragments.len()));
            let (build, probe) = if fragment_i.card <= fragment_j.card {
                (fragment_i, fragment_j)
            } else {
                (fragment_j, fragment_i)
            };
            let mut set = build.set;
            set.union_with(&probe.set);
            let mut neighbors = build.neighbors;
            neighbors.union_with(&probe.neighbors);
            fragments.push(Fragment {
                set,
                neighbors,
                card,
                tree: JoinTree::join(build.tree, probe.tree),
            });
        }
        fragments.pop().unwrap().tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::exhaustive_best_right_deep;
    use bqo_plan::{JoinEdge, RelationInfo};

    fn star(filters: &[f64]) -> JoinGraph {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        for (i, &sel) in filters.iter().enumerate() {
            let rows = 1000.0;
            let d = g.add_relation(RelationInfo::new(format!("d{i}"), rows, rows * sel));
            g.add_edge(JoinEdge::pkfk(fact, format!("d{i}_sk"), d, "sk", rows));
        }
        g
    }

    fn chain(n: usize) -> JoinGraph {
        let mut g = JoinGraph::new();
        let mut prev = g.add_relation(RelationInfo::new("r0", 200_000.0, 200_000.0));
        for i in 1..n {
            let rows = (200_000.0 / 6f64.powi(i as i32)).max(10.0);
            let r = g.add_relation(RelationInfo::new(format!("r{i}"), rows, rows / 3.0));
            g.add_edge(JoinEdge::pkfk(prev, format!("r{i}_sk"), r, "sk", rows));
            prev = r;
        }
        g
    }

    #[test]
    fn dp_plan_covers_all_relations_without_cross_products() {
        let g = star(&[0.1, 0.5, 1.0, 0.01]);
        let model = CostModel::new(&g);
        let tree = DpOptimizer::new().best_tree(&g, &model);
        assert_eq!(tree.relation_set().len(), 5);
        assert!(tree.has_no_cross_products(&g));
    }

    #[test]
    fn dp_is_at_least_as_good_as_exhaustive_right_deep_without_bitvectors() {
        // The DP searches bushy trees, a superset of right-deep trees, so its
        // plain-Cout optimum can only be better or equal.
        for g in [star(&[0.2, 0.7, 0.05]), chain(5)] {
            let model = CostModel::new(&g);
            let dp_tree = DpOptimizer::new().best_tree(&g, &model);
            let dp_cost = model.cout_join_tree(&dp_tree, false).total;
            let (_, rd_cost) = exhaustive_best_right_deep(&g, &model, false).unwrap();
            assert!(dp_cost <= rd_cost + 1e-6, "dp {dp_cost} vs rd {rd_cost}");
        }
    }

    #[test]
    fn greedy_plan_is_valid_and_close_to_dp_on_small_graphs() {
        let g = star(&[0.1, 0.5, 1.0, 0.01, 0.3]);
        let model = CostModel::new(&g);
        let greedy = GreedyOptimizer::new().best_tree(&g, &model);
        assert_eq!(greedy.relation_set().len(), 6);
        assert!(greedy.has_no_cross_products(&g));
        let dp = DpOptimizer::new().best_tree(&g, &model);
        let greedy_cost = model.cout_join_tree(&greedy, false).total;
        let dp_cost = model.cout_join_tree(&dp, false).total;
        assert!(greedy_cost >= dp_cost - 1e-6);
        assert!(
            greedy_cost <= dp_cost * 3.0,
            "greedy should be within 3x of optimal on a star: {greedy_cost} vs {dp_cost}"
        );
    }

    #[test]
    fn greedy_handles_large_chain() {
        let g = chain(30);
        let model = CostModel::new(&g);
        let tree = GreedyOptimizer::new().best_tree(&g, &model);
        assert_eq!(tree.relation_set().len(), 30);
        assert!(tree.has_no_cross_products(&g));
    }

    #[test]
    fn single_relation_graphs() {
        let mut g = JoinGraph::new();
        g.add_relation(RelationInfo::new("only", 42.0, 42.0));
        let model = CostModel::new(&g);
        assert_eq!(
            DpOptimizer::new().best_tree(&g, &model),
            JoinTree::Leaf(RelId(0))
        );
        assert_eq!(
            GreedyOptimizer::new().best_tree(&g, &model),
            JoinTree::Leaf(RelId(0))
        );
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn dp_rejects_disconnected_graphs() {
        let mut g = JoinGraph::new();
        g.add_relation(RelationInfo::new("a", 10.0, 10.0));
        g.add_relation(RelationInfo::new("b", 10.0, 10.0));
        let model = CostModel::new(&g);
        DpOptimizer::new().best_tree(&g, &model);
    }

    #[test]
    fn two_relation_join_builds_from_smaller_side_in_greedy() {
        let mut g = JoinGraph::new();
        let big = g.add_relation(RelationInfo::new("big", 100_000.0, 100_000.0));
        let small = g.add_relation(RelationInfo::new("small", 100.0, 10.0));
        g.add_edge(JoinEdge::pkfk(big, "s_sk", small, "sk", 100.0));
        let model = CostModel::new(&g);
        let tree = GreedyOptimizer::new().best_tree(&g, &model);
        match tree {
            JoinTree::Join { build, .. } => assert_eq!(*build, JoinTree::Leaf(small)),
            _ => panic!("expected a join"),
        }
    }
}

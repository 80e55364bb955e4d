//! The `Cout` cost model (Eq. 1 of the paper), bitvector-aware.
//!
//! `Cout` sums the cardinalities of every base table (after local predicates
//! and any bitvector filters pushed down to its scan) and every intermediate
//! join result. The same routine covers three situations:
//!
//! * **No bitvectors** — plain `Cout`, what a conventional optimizer
//!   minimizes (the paper's baseline costing).
//! * **Bitvectors added by post-processing** — Algorithm 1 run on a plan that
//!   was chosen without considering filters (Figure 2c).
//! * **Bitvector-aware optimization** — the BQO algorithm evaluates candidate
//!   right-deep trees under this same bitvector-aware `Cout` (Figure 2d).
//!
//! Estimated cardinalities come from [`CardinalityEstimator`]; the reduction
//! of a scan or join output by pushed-down filters uses the no-false-positive
//! semi-join semantics of Section 3.2.
//!
//! # One pass per plan
//!
//! The BQO optimizer costs a linear number of candidate plans, so costing
//! one plan must itself stay linear. Each plan's per-node relation sets and
//! effective sets are derived once, bottom-up, into flat bitsets
//! (`PlanSets`); every node's cardinality and every filter's λ then reads
//! those sets instead of rebuilding them per node.
//!
//! # Bit-identical estimates
//!
//! A node's estimate is [`CardinalityEstimator::semi_reduced_card`] of its
//! relation set reduced by its effective set, so it inherits the estimator's
//! fixed multiplication order (base cardinalities in ascending [`RelId`]
//! order, then edge selectivities in [`JoinGraph::edges`] order). `Cout`
//! sums the node estimates in node-id order. The same plan therefore always
//! gets the same `f64`, bit for bit, which keeps plan choice between tied
//! candidates deterministic.
//!
//! [`RelId`]: crate::graph::RelId

use crate::estimator::CardinalityEstimator;
use crate::graph::JoinGraph;
use crate::physical::{NodeId, PhysicalNode, PhysicalPlan};
use crate::pushdown::push_down_bitvectors;
use crate::relset::FlatSets;
use crate::tree::{JoinTree, RightDeepTree};

/// Per-plan cost report.
#[derive(Debug, Clone, PartialEq)]
pub struct CoutBreakdown {
    /// Total `Cout`: sum of base-table and join-output cardinalities.
    pub total: f64,
    /// Sum over base-table scans (after filters pushed down to them).
    pub base_total: f64,
    /// Sum over join outputs.
    pub join_total: f64,
    /// Estimated output cardinality of every operator, in node-id order.
    pub per_node: Vec<(NodeId, f64)>,
}

impl CoutBreakdown {
    /// The estimated output cardinality of one operator.
    pub fn card_of(&self, node: NodeId) -> Option<f64> {
        self.per_node.get(node.0).map(|&(id, card)| {
            debug_assert_eq!(id, node, "per_node is not in node-id order");
            card
        })
    }
}

/// The relation set and the effective set of every node of one plan.
///
/// A node's *effective* set is its own relations plus (transitively) the
/// relations standing behind every bitvector filter applied at or below it.
/// Its estimated cardinality is the semi-join-reduced cardinality of its
/// relation set with respect to the rest of its effective set.
#[derive(Debug)]
struct PlanSets {
    /// Relation set of every node, in node order.
    rel: FlatSets,
    /// Effective set of every node reachable from the root; the relation set
    /// for any other node.
    eff: FlatSets,
    /// For each node, the placements targeted at it whose source is a hash
    /// join, as `(placement index, source join's build node)`.
    sources: Vec<Vec<(usize, usize)>>,
}

impl PlanSets {
    fn derive(graph: &JoinGraph, plan: &PhysicalPlan) -> Self {
        let rel = plan.node_relation_sets(graph.num_relations());
        let mut sources = vec![Vec::new(); plan.num_nodes()];
        for (index, placement) in plan.placements.iter().enumerate() {
            if let PhysicalNode::HashJoin { build, .. } = plan.node(placement.source_join) {
                sources[placement.target.0].push((index, build.0));
            }
        }
        let mut sets = PlanSets {
            eff: rel.clone(),
            rel,
            sources,
        };
        let mut done = vec![false; plan.num_nodes()];
        sets.fill_effective(plan, plan.root().0, &mut done);
        sets
    }

    /// Computes the effective set of `node` after those it depends on: its
    /// inputs and the build sides of the joins whose filters it receives.
    fn fill_effective(&mut self, plan: &PhysicalPlan, node: usize, done: &mut [bool]) {
        if done[node] {
            return;
        }
        if let PhysicalNode::HashJoin { build, probe, .. } = plan.node(NodeId(node)) {
            for input in [build.0, probe.0] {
                self.fill_effective(plan, input, done);
                self.eff.union_into(node, input);
            }
        }
        for k in 0..self.sources[node].len() {
            let source = self.sources[node][k].1;
            self.fill_effective(plan, source, done);
            self.eff.union_into(node, source);
        }
        done[node] = true;
    }
}

/// Bitvector-aware `Cout` cost model bound to one join graph.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    graph: &'a JoinGraph,
    estimator: CardinalityEstimator<'a>,
}

impl<'a> CostModel<'a> {
    /// Creates a cost model for a join graph.
    pub fn new(graph: &'a JoinGraph) -> Self {
        CostModel {
            graph,
            estimator: CardinalityEstimator::new(graph),
        }
    }

    /// The underlying estimator.
    pub fn estimator(&self) -> &CardinalityEstimator<'a> {
        &self.estimator
    }

    /// `Cout` of a right-deep tree, with or without bitvector filters.
    pub fn cout_right_deep(&self, tree: &RightDeepTree, with_bitvectors: bool) -> CoutBreakdown {
        self.cout_join_tree(&tree.to_join_tree(), with_bitvectors)
    }

    /// Total `Cout` of a right-deep tree (convenience wrapper).
    pub fn cout_right_deep_total(&self, tree: &RightDeepTree, with_bitvectors: bool) -> f64 {
        self.cout_right_deep(tree, with_bitvectors).total
    }

    /// `Cout` of an arbitrary join tree, with or without bitvector filters.
    /// When `with_bitvectors` is set, Algorithm 1 is run on the physical form
    /// of the tree first (this is exactly the "post-processing" treatment a
    /// conventional optimizer applies to its chosen plan).
    pub fn cout_join_tree(&self, tree: &JoinTree, with_bitvectors: bool) -> CoutBreakdown {
        let mut plan = PhysicalPlan::from_join_tree(self.graph, tree);
        if with_bitvectors {
            plan = push_down_bitvectors(self.graph, plan);
        }
        self.cout_physical(&plan)
    }

    /// `Cout` of a physical plan, honouring whatever bitvector placements it
    /// carries.
    pub fn cout_physical(&self, plan: &PhysicalPlan) -> CoutBreakdown {
        let sets = PlanSets::derive(self.graph, plan);
        let mut per_node = Vec::with_capacity(plan.num_nodes());
        let mut base_total = 0.0;
        let mut join_total = 0.0;
        for (id, node) in plan.nodes() {
            let card = self
                .estimator
                .reduced_card_words(sets.rel.get(id.0), sets.eff.get(id.0));
            per_node.push((id, card));
            match node {
                PhysicalNode::Scan { .. } => base_total += card,
                PhysicalNode::HashJoin { .. } => join_total += card,
            }
        }
        CoutBreakdown {
            total: base_total + join_total,
            base_total,
            join_total,
            per_node,
        }
    }

    /// Estimated output cardinality of the whole plan (the final join
    /// result), honouring bitvector placements.
    pub fn estimated_output(&self, plan: &PhysicalPlan) -> f64 {
        self.cout_physical(plan).card_of(plan.root()).unwrap_or(0.0)
    }

    /// Estimated fraction of rows each bitvector filter eliminates at its
    /// target (the paper's λ used by the cost-based filter selection,
    /// Section 6.3), indexed like [`PhysicalPlan::placements`].
    ///
    /// A filter's λ compares its target's cardinality reduced by every
    /// *other* filter reaching that target with the cardinality once this
    /// filter's source (the effective set of its join's build side) is added.
    pub fn elimination_fractions(&self, plan: &PhysicalPlan) -> Vec<f64> {
        let sets = PlanSets::derive(self.graph, plan);
        plan.placements
            .iter()
            .enumerate()
            .map(|(index, placement)| {
                let target = placement.target.0;
                let Some(&(_, source)) = sets.sources[target].iter().find(|(i, _)| *i == index)
                else {
                    // The filter is not created by a hash join.
                    return 0.0;
                };
                let target_rels = sets.rel.get(target);
                let mut full = target_rels.to_vec();
                for &(other, build) in &sets.sources[target] {
                    if other != index {
                        or_into(&mut full, sets.eff.get(build));
                    }
                }
                let before = self.estimator.reduced_card_words(target_rels, &full);
                or_into(&mut full, sets.eff.get(source));
                let after = self.estimator.reduced_card_words(target_rels, &full);
                if before <= 0.0 {
                    0.0
                } else {
                    (1.0 - after / before).clamp(0.0, 1.0)
                }
            })
            .collect()
    }
}

/// `dst ∪= src` over two equally wide word runs.
fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{JoinEdge, JoinGraph, RelId, RelationInfo};

    /// Star: fact 1M rows; d1 100 rows filtered to 10; d2 1000 rows
    /// unfiltered; d3 10 rows filtered to 2.
    fn star() -> (JoinGraph, RelId, Vec<RelId>) {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        let d1 = g.add_relation(RelationInfo::new("d1", 100.0, 10.0));
        let d2 = g.add_relation(RelationInfo::new("d2", 1000.0, 1000.0));
        let d3 = g.add_relation(RelationInfo::new("d3", 10.0, 2.0));
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 100.0));
        g.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 1000.0));
        g.add_edge(JoinEdge::pkfk(fact, "d3_sk", d3, "sk", 10.0));
        (g, fact, vec![d1, d2, d3])
    }

    #[test]
    fn plain_cout_of_star_plan() {
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        // T(fact, d1, d2, d3) without bitvectors:
        // base: 1M + 10 + 1000 + 2
        // joins: fact⋈d1 = 100k; ⋈d2 = 100k; ⋈d3 = 20k
        let tree = RightDeepTree::new(vec![fact, d[0], d[1], d[2]]);
        let cost = model.cout_right_deep(&tree, false);
        let expected_base = 1_000_000.0 + 10.0 + 1000.0 + 2.0;
        let expected_joins = 100_000.0 + 100_000.0 + 20_000.0;
        assert!((cost.base_total - expected_base).abs() < 1e-6);
        assert!((cost.join_total - expected_joins).abs() < 1e-6);
        assert!((cost.total - (expected_base + expected_joins)).abs() < 1e-6);
    }

    #[test]
    fn bitvector_cout_reduces_fact_scan_and_intermediates() {
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        let tree = RightDeepTree::new(vec![fact, d[0], d[1], d[2]]);
        let cost = model.cout_right_deep(&tree, true);
        // With all three dimension filters pushed to the fact scan, the fact
        // contributes |fact ⋈ d1 ⋈ d2 ⋈ d3| = 20k, and every join output is
        // also 20k (Lemma 4).
        let expected_base = 20_000.0 + 10.0 + 1000.0 + 2.0;
        let expected_joins = 3.0 * 20_000.0;
        assert!((cost.base_total - expected_base).abs() < 1e-3);
        assert!((cost.join_total - expected_joins).abs() < 1e-3);
        // And it is much cheaper than the same plan without bitvectors.
        let plain = model.cout_right_deep(&tree, false);
        assert!(cost.total < plain.total / 5.0);
    }

    #[test]
    fn all_dimension_permutations_cost_the_same_with_fact_rightmost() {
        // Lemma 4: with R0 as the right-most leaf, every permutation of the
        // dimensions has the same bitvector-aware cost.
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        let orders = [
            vec![fact, d[0], d[1], d[2]],
            vec![fact, d[2], d[1], d[0]],
            vec![fact, d[1], d[0], d[2]],
            vec![fact, d[2], d[0], d[1]],
        ];
        let costs: Vec<f64> = orders
            .iter()
            .map(|o| model.cout_right_deep_total(&RightDeepTree::new(o.clone()), true))
            .collect();
        for w in costs.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6, "costs differ: {costs:?}");
        }
    }

    #[test]
    fn dimension_first_plans_cost_the_same_regardless_of_remaining_order() {
        // Lemma 5: with R_k as the right-most leaf followed by R0, the order
        // of the remaining dimensions does not matter.
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        let a = RightDeepTree::new(vec![d[0], fact, d[1], d[2]]);
        let b = RightDeepTree::new(vec![d[0], fact, d[2], d[1]]);
        let ca = model.cout_right_deep_total(&a, true);
        let cb = model.cout_right_deep_total(&b, true);
        assert!((ca - cb).abs() < 1e-6);
    }

    #[test]
    fn post_processing_is_worse_than_bitvector_aware_choice() {
        // The motivating observation (Figure 2): the plan that is best
        // without bitvectors is not best once filters are considered. Build
        // an asymmetric star where joining the highly selective dimension
        // first is best without filters, but with filters another right-most
        // leaf wins.
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 4_500_000.0, 4_500_000.0));
        // "title"-like dimension: large, mildly filtered.
        let t = g.add_relation(RelationInfo::new("t", 2_500_000.0, 715_000.0));
        // "keyword"-like dimension: small, selective.
        let k = g.add_relation(RelationInfo::new("k", 134_000.0, 7000.0));
        g.add_edge(JoinEdge::pkfk(fact, "t_sk", t, "sk", 2_500_000.0));
        g.add_edge(JoinEdge::pkfk(fact, "k_sk", k, "sk", 134_000.0));
        let model = CostModel::new(&g);

        let candidates = [
            RightDeepTree::new(vec![fact, t, k]),
            RightDeepTree::new(vec![fact, k, t]),
            RightDeepTree::new(vec![t, fact, k]),
            RightDeepTree::new(vec![k, fact, t]),
        ];
        let best_plain = candidates
            .iter()
            .min_by(|a, b| {
                model
                    .cout_right_deep_total(a, false)
                    .total_cmp(&model.cout_right_deep_total(b, false))
            })
            .unwrap();
        let best_bv = candidates
            .iter()
            .min_by(|a, b| {
                model
                    .cout_right_deep_total(a, true)
                    .total_cmp(&model.cout_right_deep_total(b, true))
            })
            .unwrap();
        // Post-processing the plain-best plan with bitvectors must not beat
        // the bitvector-aware best plan.
        let post = model.cout_right_deep_total(best_plain, true);
        let aware = model.cout_right_deep_total(best_bv, true);
        assert!(aware <= post + 1e-9);
        // And the bitvector-aware best plan would look suboptimal to a
        // conventional optimizer.
        assert!(
            model.cout_right_deep_total(best_bv, false)
                >= model.cout_right_deep_total(best_plain, false)
        );
    }

    #[test]
    fn estimated_output_matches_full_join_card() {
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        let tree = RightDeepTree::new(vec![fact, d[0], d[1], d[2]]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let out = model.estimated_output(&plan);
        assert!((out - 20_000.0).abs() < 1e-3);
    }

    #[test]
    fn elimination_fraction_reflects_dimension_selectivity() {
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        let tree = RightDeepTree::new(vec![fact, d[0], d[1], d[2]]).to_join_tree();
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        // Find the placement sourced from the join whose build is d2 (the
        // unfiltered dimension): it eliminates (almost) nothing.
        let lambdas = model.elimination_fractions(&plan);
        assert_eq!(lambdas.len(), plan.placements.len());
        for (p, &lambda) in plan.placements.iter().zip(&lambdas) {
            let src_build = match plan.node(p.source_join) {
                PhysicalNode::HashJoin { build, .. } => *build,
                _ => unreachable!(),
            };
            let src_rels = plan.relation_set(src_build);
            if src_rels.contains(d[1]) {
                assert!(
                    lambda < 0.05,
                    "unfiltered dim should not eliminate: {lambda}"
                );
            }
            if src_rels.contains(d[2]) {
                assert!(lambda > 0.5, "d3 keeps 20%, so λ should be ~0.8: {lambda}");
            }
        }
    }

    #[test]
    fn breakdown_card_lookup() {
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        let tree = RightDeepTree::new(vec![fact, d[0]]);
        let cost = model.cout_right_deep(&tree, false);
        assert_eq!(cost.per_node.len(), 3);
        assert!(cost.card_of(NodeId(0)).is_some());
        assert!(cost.card_of(NodeId(99)).is_none());
    }
}

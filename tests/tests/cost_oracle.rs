//! Differential cost oracle: the bitset cost model against a `BTreeSet`
//! reference.
//!
//! The reference below is the straightforward set-based formulation of the
//! estimator, Algorithm 1 and the bitvector-aware `Cout`: every node's
//! relation set and effective set rebuilt recursively as a `BTreeSet`, every
//! filter's λ computed on its own. The product derives those sets once per
//! plan into flat bitsets. Both must agree bit for bit — `Cout` total, every
//! per-node estimate and every λ — because plan choice compares `f64`s with
//! strict `<` and a changed last bit can flip a tie.
//!
//! Plans are random right-deep and bushy trees over star, snowflake and
//! CUSTOMER-like graphs, including an 80-relation graph whose relation sets
//! span two `u64` words.

use bqo_core::workloads::{customer_like, Scale};
use bqo_integration_tests::{snowflake_graph, star_graph};
use bqo_optimizer::{BaselineOptimizer, BqoOptimizer, Optimizer};
use bqo_plan::{
    push_down_bitvectors, BitvectorPlacement, CostModel, JoinEdge, JoinGraph, JoinTree, NodeId,
    PhysicalNode, PhysicalPlan, RelId, RelationInfo,
};
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// Reference implementation.
// ---------------------------------------------------------------------------

type Set = BTreeSet<RelId>;

fn ref_join_card(graph: &JoinGraph, set: &Set) -> f64 {
    if set.is_empty() {
        return 0.0;
    }
    let mut card: f64 = set
        .iter()
        .map(|&r| graph.relation(r).filtered_rows)
        .product();
    for edge in graph.edges() {
        if set.contains(&edge.left) && set.contains(&edge.right) {
            card *= edge.selectivity();
        }
    }
    card
}

fn ref_semi_reduced_card(graph: &JoinGraph, core: &Set, external: &Set) -> f64 {
    if core.is_empty() {
        return 0.0;
    }
    let core_card = ref_join_card(graph, core);
    if external.is_empty() || core_card <= 0.0 {
        return core_card;
    }
    let mut full = core.clone();
    full.extend(external.iter().copied());
    if full.len() == core.len() {
        return core_card;
    }
    let full_card = ref_join_card(graph, &full);
    core_card * (full_card / core_card).min(1.0)
}

fn ref_relation_set(plan: &PhysicalPlan, id: NodeId) -> Set {
    match plan.node(id) {
        PhysicalNode::Scan { relation } => [*relation].into_iter().collect(),
        PhysicalNode::HashJoin { build, probe, .. } => {
            let mut set = ref_relation_set(plan, *build);
            set.extend(ref_relation_set(plan, *probe));
            set
        }
    }
}

fn ref_effective_set(plan: &PhysicalPlan, node: NodeId, memo: &mut HashMap<NodeId, Set>) -> Set {
    if let Some(set) = memo.get(&node) {
        return set.clone();
    }
    let mut set: Set = match plan.node(node) {
        PhysicalNode::Scan { relation } => [*relation].into_iter().collect(),
        PhysicalNode::HashJoin { build, probe, .. } => {
            let mut s = ref_effective_set(plan, *build, memo);
            s.extend(ref_effective_set(plan, *probe, memo));
            s
        }
    };
    for placement in plan.placements_at(node) {
        if let PhysicalNode::HashJoin { build, .. } = plan.node(placement.source_join) {
            set.extend(ref_effective_set(plan, *build, memo));
        }
    }
    memo.insert(node, set.clone());
    set
}

/// `(total, base_total, join_total, per_node)`.
fn ref_cout(graph: &JoinGraph, plan: &PhysicalPlan) -> (f64, f64, f64, Vec<(NodeId, f64)>) {
    let mut eff_sets = HashMap::new();
    ref_effective_set(plan, plan.root(), &mut eff_sets);
    let mut per_node = Vec::new();
    let (mut base_total, mut join_total) = (0.0, 0.0);
    for (id, node) in plan.nodes() {
        let rel_set = ref_relation_set(plan, id);
        let eff = eff_sets
            .get(&id)
            .cloned()
            .unwrap_or_else(|| rel_set.clone());
        let external: Set = eff.difference(&rel_set).copied().collect();
        let card = ref_semi_reduced_card(graph, &rel_set, &external);
        per_node.push((id, card));
        match node {
            PhysicalNode::Scan { .. } => base_total += card,
            PhysicalNode::HashJoin { .. } => join_total += card,
        }
    }
    (base_total + join_total, base_total, join_total, per_node)
}

fn ref_lambda(graph: &JoinGraph, plan: &PhysicalPlan, index: usize) -> f64 {
    let placement = &plan.placements[index];
    let mut eff_sets = HashMap::new();
    ref_effective_set(plan, plan.root(), &mut eff_sets);
    let eff_of = |node: NodeId| {
        eff_sets
            .get(&node)
            .cloned()
            .unwrap_or_else(|| ref_relation_set(plan, node))
    };
    let source_set = match plan.node(placement.source_join) {
        PhysicalNode::HashJoin { build, .. } => eff_of(*build),
        _ => return 0.0,
    };
    let target_rels = ref_relation_set(plan, placement.target);
    let mut other_external = Set::new();
    for (i, p) in plan.placements.iter().enumerate() {
        if i == index || p.target != placement.target {
            continue;
        }
        if let PhysicalNode::HashJoin { build, .. } = plan.node(p.source_join) {
            other_external.extend(eff_of(*build).difference(&target_rels).copied());
        }
    }
    let before = ref_semi_reduced_card(graph, &target_rels, &other_external);
    let mut with_this = other_external.clone();
    with_this.extend(source_set.difference(&target_rels).copied());
    let after = ref_semi_reduced_card(graph, &target_rels, &with_this);
    if before <= 0.0 {
        0.0
    } else {
        (1.0 - after / before).clamp(0.0, 1.0)
    }
}

/// Algorithm 1 over recursively rebuilt relation sets.
fn ref_push_down(plan: &PhysicalPlan) -> Vec<BitvectorPlacement> {
    fn visit(
        plan: &PhysicalPlan,
        node: NodeId,
        incoming: Vec<BitvectorPlacement>,
        out: &mut Vec<BitvectorPlacement>,
    ) {
        match plan.node(node) {
            PhysicalNode::Scan { .. } => {
                out.extend(
                    incoming
                        .into_iter()
                        .map(|f| BitvectorPlacement { target: node, ..f }),
                );
            }
            PhysicalNode::HashJoin { build, probe, keys } => {
                let build_set = ref_relation_set(plan, *build);
                let probe_set = ref_relation_set(plan, *probe);
                let mut to_build = Vec::new();
                let mut to_probe = vec![BitvectorPlacement {
                    source_join: node,
                    target: node,
                    probe_columns: keys.iter().map(|k| k.probe.clone()).collect(),
                    build_columns: keys.iter().map(|k| k.build.clone()).collect(),
                }];
                for f in incoming {
                    let referenced: Set = f.probe_columns.iter().map(|c| c.relation).collect();
                    match (
                        referenced.is_subset(&build_set),
                        referenced.is_subset(&probe_set),
                    ) {
                        (true, false) => to_build.push(f),
                        (false, true) => to_probe.push(f),
                        _ => out.push(BitvectorPlacement { target: node, ..f }),
                    }
                }
                visit(plan, *build, to_build, out);
                visit(plan, *probe, to_probe, out);
            }
        }
    }
    let mut out = Vec::new();
    visit(plan, plan.root(), Vec::new(), &mut out);
    out
}

// ---------------------------------------------------------------------------
// Graphs and random trees.
// ---------------------------------------------------------------------------

/// SplitMix64: a small deterministic generator for test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn random_dims(rng: &mut Rng, n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| {
            let base = rng.range(10.0, 50_000.0).floor();
            (base, (base * rng.range(0.001, 1.0)).max(1.0))
        })
        .collect()
}

fn random_star(rng: &mut Rng) -> JoinGraph {
    let dims = 2 + rng.below(8);
    star_graph(rng.range(1e4, 5e6).floor(), &random_dims(rng, dims))
}

fn random_snowflake(rng: &mut Rng) -> JoinGraph {
    let branches: Vec<Vec<(f64, f64)>> = (0..2 + rng.below(4))
        .map(|_| {
            let len = 1 + rng.below(4);
            random_dims(rng, len)
        })
        .collect();
    snowflake_graph(rng.range(1e5, 5e6).floor(), &branches)
}

/// A CUSTOMER-like graph with `facts` fact tables, each carrying dimension
/// chains, the facts joined to each other on non-key columns, one dimension
/// shared by two facts, a dimension-dimension cycle edge and a composite
/// key. `facts = 4, chains = 5, chain_len = 4` gives 84 relations.
fn wide_customer_graph(rng: &mut Rng, facts: usize, chains: usize, chain_len: usize) -> JoinGraph {
    let mut g = JoinGraph::new();
    let mut fact_ids = Vec::new();
    let mut first_dims = Vec::new();
    for f in 0..facts {
        let rows = rng.range(1e5, 1e7).floor();
        let fact = g.add_relation(RelationInfo::new(format!("f{f}"), rows, rows));
        fact_ids.push(fact);
        for c in 0..chains {
            let mut prev = fact;
            for d in 0..chain_len {
                let base = rng.range(20.0, 200_000.0).floor();
                let filtered = if rng.below(3) == 0 {
                    (base * rng.range(0.001, 0.5)).max(1.0)
                } else {
                    base
                };
                let dim =
                    g.add_relation(RelationInfo::new(format!("f{f}_c{c}_d{d}"), base, filtered));
                g.add_edge(JoinEdge::pkfk(prev, format!("d{d}_sk"), dim, "sk", base));
                if d == 0 {
                    first_dims.push(dim);
                }
                prev = dim;
            }
        }
    }
    for w in fact_ids.windows(2) {
        let d = rng.range(1e3, 1e5).floor();
        g.add_edge(JoinEdge::new(w[0], w[1], "mid", "mid", d, d, false, false));
    }
    // A dimension shared by the first two facts.
    let shared = first_dims[chains];
    g.add_edge(JoinEdge::pkfk(
        fact_ids[0],
        "shared_sk",
        shared,
        "sk",
        5000.0,
    ));
    // A cycle between two first-level dimensions of one fact.
    g.add_edge(JoinEdge::new(
        first_dims[0],
        first_dims[1],
        "x",
        "x",
        300.0,
        400.0,
        false,
        false,
    ));
    // A composite key: a second edge between a fact and its first dimension.
    g.add_edge(JoinEdge::new(
        fact_ids[1],
        first_dims[chains],
        "sk2",
        "sk2",
        900.0,
        900.0,
        false,
        true,
    ));
    g
}

/// Graphs of the real CUSTOMER-like generator (~20-40 relations each).
fn customer_graphs() -> Vec<JoinGraph> {
    let workload = customer_like::generate(Scale(0.01), 6, 17);
    workload
        .queries
        .iter()
        .map(|q| q.to_join_graph(&workload.catalog).unwrap())
        .collect()
}

/// A random right-deep tree without cross products.
fn random_right_deep(rng: &mut Rng, g: &JoinGraph) -> JoinTree {
    let n = g.num_relations();
    let mut placed = vec![false; n];
    let first = rng.below(n);
    placed[first] = true;
    let mut tree = JoinTree::Leaf(RelId(first));
    for _ in 1..n {
        let frontier: Vec<usize> = (0..n)
            .filter(|&r| !placed[r] && g.neighbors(RelId(r)).iter().any(|o| placed[o.0]))
            .collect();
        let next = frontier[rng.below(frontier.len())];
        placed[next] = true;
        tree = JoinTree::join(JoinTree::Leaf(RelId(next)), tree);
    }
    tree
}

/// A random bushy tree without cross products: repeatedly joins a random
/// pair of adjacent fragments, in a random build/probe orientation.
fn random_bushy(rng: &mut Rng, g: &JoinGraph) -> JoinTree {
    let mut fragments: Vec<(Set, JoinTree)> = g
        .relation_ids()
        .map(|r| ([r].into_iter().collect(), JoinTree::Leaf(r)))
        .collect();
    while fragments.len() > 1 {
        let mut pairs = Vec::new();
        for i in 0..fragments.len() {
            for j in i + 1..fragments.len() {
                let adjacent = fragments[i]
                    .0
                    .iter()
                    .any(|&r| g.neighbors(r).iter().any(|o| fragments[j].0.contains(o)));
                if adjacent {
                    pairs.push((i, j));
                }
            }
        }
        let (i, j) = pairs[rng.below(pairs.len())];
        let (set_j, tree_j) = fragments.swap_remove(j);
        let (mut set_i, tree_i) = fragments.swap_remove(i);
        set_i.extend(set_j);
        let tree = if rng.below(2) == 0 {
            JoinTree::join(tree_i, tree_j)
        } else {
            JoinTree::join(tree_j, tree_i)
        };
        fragments.push((set_i, tree));
    }
    fragments.pop().unwrap().1
}

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------

/// Asserts the product's `Cout` breakdown and λs equal the reference bit for
/// bit, and its relation sets equal the reference sets.
fn assert_matches_reference(g: &JoinGraph, plan: &PhysicalPlan, what: &str) {
    let model = CostModel::new(g);
    let got = model.cout_physical(plan);
    let (total, base_total, join_total, per_node) = ref_cout(g, plan);
    assert_eq!(got.total.to_bits(), total.to_bits(), "{what}: total");
    assert_eq!(
        got.base_total.to_bits(),
        base_total.to_bits(),
        "{what}: base"
    );
    assert_eq!(
        got.join_total.to_bits(),
        join_total.to_bits(),
        "{what}: join"
    );
    assert_eq!(got.per_node.len(), per_node.len(), "{what}: per_node");
    for (&(id, card), &(ref_id, ref_card)) in got.per_node.iter().zip(&per_node) {
        assert_eq!(id, ref_id, "{what}: per_node order");
        assert_eq!(card.to_bits(), ref_card.to_bits(), "{what}: card of {id}");
        assert_eq!(got.card_of(id), Some(card), "{what}: card_of {id}");
    }
    let lambdas = model.elimination_fractions(plan);
    assert_eq!(lambdas.len(), plan.placements.len(), "{what}: λ count");
    for (i, lambda) in lambdas.iter().enumerate() {
        let expected = ref_lambda(g, plan, i);
        assert_eq!(
            lambda.to_bits(),
            expected.to_bits(),
            "{what}: λ of placement {i}"
        );
    }
    for (id, _) in plan.nodes() {
        let expected = ref_relation_set(plan, id);
        let got: Set = plan.relation_set(id).iter().collect();
        assert_eq!(got, expected, "{what}: relation set of {id}");
    }
}

/// Costs `tree` with and without bitvectors against the reference, and
/// checks push-down against the reference Algorithm 1.
fn check_tree(g: &JoinGraph, tree: &JoinTree, what: &str) {
    assert!(tree.has_no_cross_products(g), "{what}: cross product");
    let plain = PhysicalPlan::from_join_tree(g, tree);
    assert_matches_reference(g, &plain, &format!("{what} (no filters)"));
    let expected = ref_push_down(&plain);
    let pushed = push_down_bitvectors(g, plain);
    assert_eq!(pushed.placements, expected, "{what}: placements");
    assert_matches_reference(g, &pushed, &format!("{what} (filters)"));
    let model = CostModel::new(g);
    assert_eq!(
        model.cout_join_tree(tree, true).total.to_bits(),
        ref_cout(g, &pushed).0.to_bits(),
        "{what}: cout_join_tree"
    );
}

fn check_random_trees(rng: &mut Rng, g: &JoinGraph, trees: usize, what: &str) {
    for t in 0..trees {
        check_tree(
            g,
            &random_right_deep(rng, g),
            &format!("{what} right-deep #{t}"),
        );
        check_tree(g, &random_bushy(rng, g), &format!("{what} bushy #{t}"));
    }
}

#[test]
fn star_trees_match_reference() {
    let mut rng = Rng(1);
    for k in 0..20 {
        let g = random_star(&mut rng);
        check_random_trees(&mut rng, &g, 4, &format!("star {k}"));
    }
}

#[test]
fn snowflake_trees_match_reference() {
    let mut rng = Rng(2);
    for k in 0..20 {
        let g = random_snowflake(&mut rng);
        check_random_trees(&mut rng, &g, 4, &format!("snowflake {k}"));
    }
}

#[test]
fn customer_generator_trees_match_reference() {
    let mut rng = Rng(3);
    for (k, g) in customer_graphs().iter().enumerate() {
        check_random_trees(&mut rng, g, 3, &format!("customer query {k}"));
    }
}

#[test]
fn multi_word_trees_match_reference() {
    let mut rng = Rng(4);
    for k in 0..3 {
        let g = wide_customer_graph(&mut rng, 4, 5, 4);
        assert!(g.num_relations() > 64, "{} relations", g.num_relations());
        check_random_trees(&mut rng, &g, 3, &format!("wide graph {k}"));
    }
}

#[test]
fn optimizer_plans_match_reference() {
    let mut rng = Rng(5);
    let mut graphs: Vec<JoinGraph> = (0..4).map(|_| random_star(&mut rng)).collect();
    graphs.extend((0..4).map(|_| random_snowflake(&mut rng)));
    graphs.extend(customer_graphs());
    graphs.push(wide_customer_graph(&mut rng, 4, 5, 4));
    for (k, g) in graphs.iter().enumerate() {
        for opt in [
            &BqoOptimizer::new() as &dyn Optimizer,
            &BqoOptimizer::with_threshold(0.0),
            &BaselineOptimizer::new(),
        ] {
            let plan = opt.optimize(g);
            assert_matches_reference(g, &plan, &format!("graph {k} {}", opt.name()));
        }
    }
}

#[test]
fn optimizers_cover_an_80_relation_graph_without_cross_products() {
    let mut rng = Rng(6);
    let g = wide_customer_graph(&mut rng, 4, 5, 4);
    assert!(g.num_relations() >= 80);
    assert!(g.is_connected());
    for opt in [
        &BqoOptimizer::new() as &dyn Optimizer,
        &BaselineOptimizer::new(),
        &BaselineOptimizer::without_bitvectors(),
    ] {
        let plan = opt.optimize(&g);
        let name = opt.name();
        // Every relation is scanned exactly once.
        let mut scanned: Vec<RelId> = plan
            .nodes()
            .filter_map(|(_, n)| match n {
                PhysicalNode::Scan { relation } => Some(*relation),
                PhysicalNode::HashJoin { .. } => None,
            })
            .collect();
        scanned.sort();
        assert_eq!(scanned, g.relation_ids().collect::<Vec<_>>(), "{name}");
        assert_eq!(plan.relation_set(plan.root()).len(), g.num_relations());
        // Every join has an edge between its inputs.
        for (id, node) in plan.nodes() {
            if let PhysicalNode::HashJoin { build, probe, .. } = node {
                let b = ref_relation_set(&plan, *build);
                let p = ref_relation_set(&plan, *probe);
                assert!(b.is_disjoint(&p), "{name}: {id} inputs overlap");
                let crossing = g.edges().iter().any(|e| {
                    (b.contains(&e.left) && p.contains(&e.right))
                        || (b.contains(&e.right) && p.contains(&e.left))
                });
                assert!(crossing, "{name}: {id} is a cross product");
            }
        }
    }
}

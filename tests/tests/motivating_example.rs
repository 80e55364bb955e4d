//! The Figure 2 motivating example, end to end: the plan that looks best
//! without bitvector filters is no longer best once filters are applied, and
//! the bitvector-aware optimizer finds the better plan.

use bqo_bench::prelude::{
    exhaustive_best_right_deep, job_like, push_down_bitvectors, CostModel, Engine, ExecConfig,
    OptimizerChoice, PhysicalPlan, RunOptions, Scale,
};

#[test]
fn best_plain_plan_is_not_best_with_bitvectors() {
    let workload = job_like::figure2_workload(Scale(0.03), 7);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let graph = workload.queries[0].to_join_graph(engine.catalog()).unwrap();
    let model = CostModel::new(&graph);

    let (p1, p1_plain_cost) = exhaustive_best_right_deep(&graph, &model, false).unwrap();
    let (p2, p2_bv_cost) = exhaustive_best_right_deep(&graph, &model, true).unwrap();

    // The two optima are different join orders (the paper's observation).
    assert_ne!(
        p1.order(),
        p2.order(),
        "the motivating example needs distinct optima"
    );

    // P2 looks worse than P1 to a conventional optimizer...
    let p2_plain_cost = model.cout_right_deep_total(&p2, false);
    assert!(p2_plain_cost >= p1_plain_cost);
    // ... but post-processing P1 with bitvector filters still leaves it more
    // expensive than the bitvector-aware choice.
    let p1_post_cost = model.cout_right_deep_total(&p1, true);
    assert!(
        p2_bv_cost < p1_post_cost,
        "bitvector-aware best {p2_bv_cost} should beat post-processed {p1_post_cost}"
    );
}

#[test]
fn executed_costs_follow_the_estimates() {
    let workload = job_like::figure2_workload(Scale(0.03), 7);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let graph = workload.queries[0].to_join_graph(engine.catalog()).unwrap();
    let model = CostModel::new(&graph);

    let (p1, _) = exhaustive_best_right_deep(&graph, &model, false).unwrap();
    let (p2, _) = exhaustive_best_right_deep(&graph, &model, true).unwrap();

    let run = |tree: &bqo_core::plan::RightDeepTree, with_bv: bool| {
        let plan = PhysicalPlan::from_join_tree(&graph, &tree.to_join_tree());
        let plan = if with_bv {
            push_down_bitvectors(&graph, plan)
        } else {
            plan
        };
        engine
            .execute_plan_named_with(
                &workload.queries[0].name,
                &graph,
                &plan,
                ExecConfig::exact_filters(),
            )
            .unwrap()
    };

    let p1_plain = run(&p1, false);
    let p1_post = run(&p1, true);
    let p2_bv = run(&p2, true);

    // Same answers everywhere.
    assert_eq!(p1_plain.output_rows, p1_post.output_rows);
    assert_eq!(p1_plain.output_rows, p2_bv.output_rows);

    // Post-processing helps, and the bitvector-aware plan does the least
    // work (the Figure 2 ordering).
    assert!(p1_post.metrics.logical_work() < p1_plain.metrics.logical_work());
    assert!(p2_bv.metrics.logical_work() <= p1_post.metrics.logical_work());
}

#[test]
fn bqo_optimizer_picks_the_better_plan_automatically() {
    let workload = job_like::figure2_workload(Scale(0.03), 7);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let query = &workload.queries[0];
    let session = engine.session();
    let bqo_opt = engine.prepare(query, OptimizerChoice::Bqo).unwrap();
    let base_opt = engine.prepare(query, OptimizerChoice::Baseline).unwrap();
    let bqo_run = session.execute(&bqo_opt, RunOptions::new()).unwrap().result;
    let base_run = session
        .execute(&base_opt, RunOptions::new())
        .unwrap()
        .result;
    assert_eq!(bqo_run.output_rows, base_run.output_rows);
    assert!(bqo_opt.estimated_cost().total <= base_opt.estimated_cost().total);
    assert!(
        bqo_run.metrics.logical_work() <= base_run.metrics.logical_work(),
        "bqo {} vs baseline {}",
        bqo_run.metrics.logical_work(),
        base_run.metrics.logical_work()
    );
}

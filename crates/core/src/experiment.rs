//! Workload-level experiment harness.
//!
//! Runs every query of a workload under both the baseline optimizer and the
//! bitvector-aware optimizer, executes the plans, and aggregates the
//! comparisons the paper's evaluation section reports:
//!
//! * total workload CPU broken down by selectivity group (Figure 8),
//! * tuples output by operator class (Figure 9),
//! * per-query CPU, sorted by baseline cost (Figure 10),
//! * executing the same plans with and without bitvector filtering
//!   (Table 4 / Appendix A).
//!
//! Wall-clock time of the Rust executor plays the role of the paper's CPU
//! execution time; the deterministic `logical_work` counter (tuples built,
//! probed and produced) is reported next to it as a noise-free proxy, and the
//! tests assert on the latter.

use crate::engine::RunOptions as EngineRunOptions;
use crate::{BqoError, Engine, OptimizerChoice};
use bqo_exec::{ExecConfig, OperatorKind};
use bqo_workloads::Workload;

/// Measurements of one query under one optimizer.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Estimated bitvector-aware `Cout` of the chosen plan.
    pub estimated_cost: f64,
    /// Wall-clock execution time in seconds (best of the configured repeats).
    pub elapsed_secs: f64,
    /// Deterministic work proxy: tuples built + probed + produced (+ filter
    /// probes at reduced weight).
    pub logical_work: u64,
    /// Tuples output by scans.
    pub leaf_tuples: u64,
    /// Tuples output by hash joins.
    pub join_tuples: u64,
    /// Tuples output by residual filter operators.
    pub other_tuples: u64,
    /// Rows in the final result.
    pub output_rows: u64,
    /// Number of bitvector filters created during execution.
    pub filters_created: usize,
    /// Tuples probed against bitvector filters.
    pub filter_probed: u64,
    /// Tuples eliminated by bitvector filters.
    pub filter_eliminated: u64,
}

impl RunRecord {
    /// Total tuples output by all operators.
    pub fn total_tuples(&self) -> u64 {
        self.leaf_tuples + self.join_tuples + self.other_tuples
    }
}

/// Comparison of one query under the baseline and the BQO optimizer.
#[derive(Debug, Clone)]
pub struct QueryComparison {
    pub name: String,
    pub num_joins: usize,
    pub baseline: RunRecord,
    pub bqo: RunRecord,
}

impl QueryComparison {
    /// BQO work as a fraction of baseline work (< 1 means BQO wins).
    pub fn work_ratio(&self) -> f64 {
        if self.baseline.logical_work == 0 {
            1.0
        } else {
            self.bqo.logical_work as f64 / self.baseline.logical_work as f64
        }
    }

    /// BQO time as a fraction of baseline time.
    pub fn time_ratio(&self) -> f64 {
        if self.baseline.elapsed_secs <= 0.0 {
            1.0
        } else {
            self.bqo.elapsed_secs / self.baseline.elapsed_secs
        }
    }
}

/// The selectivity groups of Figure 8: the cheapest third of the queries
/// (by baseline cost) is `S` (highly selective), the most expensive third is
/// `L` (low selectivity), the rest is `M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectivityGroup {
    S,
    M,
    L,
}

impl SelectivityGroup {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SelectivityGroup::S => "S",
            SelectivityGroup::M => "M",
            SelectivityGroup::L => "L",
        }
    }
}

/// Aggregate of one selectivity group.
#[derive(Debug, Clone)]
pub struct GroupSummary {
    pub group: SelectivityGroup,
    pub queries: usize,
    pub baseline_work: u64,
    pub bqo_work: u64,
    pub baseline_secs: f64,
    pub bqo_secs: f64,
}

impl GroupSummary {
    /// BQO / baseline work ratio for the group.
    pub fn work_ratio(&self) -> f64 {
        if self.baseline_work == 0 {
            1.0
        } else {
            self.bqo_work as f64 / self.baseline_work as f64
        }
    }
}

/// Result of running one workload under both optimizers.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub workload: String,
    pub queries: Vec<QueryComparison>,
}

impl WorkloadReport {
    /// Total BQO work divided by total baseline work (Figure 8's headline
    /// number; < 1 means the bitvector-aware optimizer reduced total cost).
    pub fn total_work_ratio(&self) -> f64 {
        let base: u64 = self.queries.iter().map(|q| q.baseline.logical_work).sum();
        let bqo: u64 = self.queries.iter().map(|q| q.bqo.logical_work).sum();
        if base == 0 {
            1.0
        } else {
            bqo as f64 / base as f64
        }
    }

    /// Total BQO wall time divided by total baseline wall time.
    pub fn total_time_ratio(&self) -> f64 {
        let base: f64 = self.queries.iter().map(|q| q.baseline.elapsed_secs).sum();
        let bqo: f64 = self.queries.iter().map(|q| q.bqo.elapsed_secs).sum();
        if base <= 0.0 {
            1.0
        } else {
            bqo / base
        }
    }

    /// Assigns each query to a selectivity group by its baseline cost
    /// (cheapest third S, most expensive third L) and aggregates.
    pub fn selectivity_groups(&self) -> Vec<GroupSummary> {
        let mut order: Vec<usize> = (0..self.queries.len()).collect();
        order.sort_by_key(|&i| self.queries[i].baseline.logical_work);
        let n = order.len();
        let third = n / 3;
        let group_of = |rank: usize| {
            if n < 3 {
                SelectivityGroup::M
            } else if rank < third {
                SelectivityGroup::S
            } else if rank >= n - third {
                SelectivityGroup::L
            } else {
                SelectivityGroup::M
            }
        };
        let mut summaries = vec![
            GroupSummary {
                group: SelectivityGroup::S,
                queries: 0,
                baseline_work: 0,
                bqo_work: 0,
                baseline_secs: 0.0,
                bqo_secs: 0.0,
            },
            GroupSummary {
                group: SelectivityGroup::M,
                queries: 0,
                baseline_work: 0,
                bqo_work: 0,
                baseline_secs: 0.0,
                bqo_secs: 0.0,
            },
            GroupSummary {
                group: SelectivityGroup::L,
                queries: 0,
                baseline_work: 0,
                bqo_work: 0,
                baseline_secs: 0.0,
                bqo_secs: 0.0,
            },
        ];
        for (rank, &idx) in order.iter().enumerate() {
            let group = group_of(rank);
            let slot = summaries
                .iter_mut()
                .find(|s| s.group == group)
                .expect("all groups preallocated");
            let q = &self.queries[idx];
            slot.queries += 1;
            slot.baseline_work += q.baseline.logical_work;
            slot.bqo_work += q.bqo.logical_work;
            slot.baseline_secs += q.baseline.elapsed_secs;
            slot.bqo_secs += q.bqo.elapsed_secs;
        }
        summaries
    }

    /// Total tuples output per operator class (Figure 9), for both systems,
    /// normalized by the baseline total.
    pub fn tuple_breakdown(&self) -> TupleBreakdown {
        let mut breakdown = TupleBreakdown::default();
        for q in &self.queries {
            breakdown.baseline_leaf += q.baseline.leaf_tuples;
            breakdown.baseline_join += q.baseline.join_tuples;
            breakdown.baseline_other += q.baseline.other_tuples;
            breakdown.bqo_leaf += q.bqo.leaf_tuples;
            breakdown.bqo_join += q.bqo.join_tuples;
            breakdown.bqo_other += q.bqo.other_tuples;
        }
        breakdown
    }

    /// Queries sorted by descending baseline work (the Figure 10 x-axis).
    pub fn sorted_by_baseline_cost(&self) -> Vec<&QueryComparison> {
        let mut refs: Vec<&QueryComparison> = self.queries.iter().collect();
        refs.sort_by_key(|q| std::cmp::Reverse(q.baseline.logical_work));
        refs
    }
}

/// Figure 9 aggregate: tuples output per operator class.
#[derive(Debug, Clone, Copy, Default)]
pub struct TupleBreakdown {
    pub baseline_leaf: u64,
    pub baseline_join: u64,
    pub baseline_other: u64,
    pub bqo_leaf: u64,
    pub bqo_join: u64,
    pub bqo_other: u64,
}

impl TupleBreakdown {
    /// Total tuples output by the baseline plans.
    pub fn baseline_total(&self) -> u64 {
        self.baseline_leaf + self.baseline_join + self.baseline_other
    }

    /// Total tuples output by the BQO plans.
    pub fn bqo_total(&self) -> u64 {
        self.bqo_leaf + self.bqo_join + self.bqo_other
    }
}

/// Table 4 aggregate: the same (baseline) plans executed with and without
/// bitvector filtering.
#[derive(Debug, Clone)]
pub struct BitvectorEffectReport {
    pub workload: String,
    /// Work with bitvectors / work without (the paper's "CPU ratio").
    pub work_ratio: f64,
    /// Wall-time ratio (with / without).
    pub time_ratio: f64,
    /// Fraction of queries whose plans contain at least one bitvector filter.
    pub queries_with_bitvectors: f64,
    /// Fraction of queries improved by more than 20%.
    pub improved: f64,
    /// Fraction of queries regressed by more than 20%.
    pub regressed: f64,
}

/// Options controlling a workload experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentOptions {
    /// Execution configuration used for both optimizers.
    pub exec: ExecConfig,
    /// Number of times each plan is executed; the fastest run is kept
    /// (mirrors the paper's warm-run averaging while staying cheap).
    pub repetitions: usize,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            exec: ExecConfig::default(),
            repetitions: 1,
        }
    }
}

fn record_for(
    engine: &Engine,
    query: &bqo_plan::QuerySpec,
    choice: OptimizerChoice,
    options: &ExperimentOptions,
) -> Result<RunRecord, BqoError> {
    let session = engine.session().with_exec_config(options.exec);
    let prepared = engine.prepare(query, choice)?;
    let mut best: Option<RunRecord> = None;
    for _ in 0..options.repetitions.max(1) {
        let result = session.execute(&prepared, EngineRunOptions::new())?.result;
        let record = RunRecord {
            estimated_cost: prepared.estimated_cost().total,
            elapsed_secs: result.metrics.elapsed_secs(),
            logical_work: result.metrics.logical_work(),
            leaf_tuples: result.metrics.tuples_by_kind(OperatorKind::Leaf),
            join_tuples: result.metrics.tuples_by_kind(OperatorKind::Join),
            other_tuples: result.metrics.tuples_by_kind(OperatorKind::Other),
            output_rows: result.output_rows,
            filters_created: result.metrics.filters_created,
            filter_probed: result.metrics.filter_stats.probed,
            filter_eliminated: result.metrics.filter_stats.eliminated,
        };
        match &best {
            Some(b) if b.elapsed_secs <= record.elapsed_secs => {}
            _ => best = Some(record),
        }
    }
    Ok(best.expect("at least one repetition"))
}

/// Runs every query of the workload under the baseline and the BQO optimizer
/// and returns the comparison report (Figures 8–10).
pub fn run_workload(
    workload: &Workload,
    options: ExperimentOptions,
) -> Result<WorkloadReport, BqoError> {
    let engine = Engine::from_catalog(workload.catalog.clone());
    let mut queries = Vec::with_capacity(workload.queries.len());
    for query in &workload.queries {
        let baseline = record_for(&engine, query, OptimizerChoice::Baseline, &options)?;
        let bqo = record_for(&engine, query, OptimizerChoice::Bqo, &options)?;
        // Sanity: both plans must compute the same answer.
        debug_assert_eq!(
            baseline.output_rows, bqo.output_rows,
            "optimizers disagree on {}",
            query.name
        );
        queries.push(QueryComparison {
            name: query.name.clone(),
            num_joins: query.num_joins(),
            baseline,
            bqo,
        });
    }
    Ok(WorkloadReport {
        workload: workload.name.clone(),
        queries,
    })
}

/// Runs the baseline plans with and without bitvector filtering (Table 4 /
/// Appendix A).
pub fn bitvector_effect(
    workload: &Workload,
    options: ExperimentOptions,
) -> Result<BitvectorEffectReport, BqoError> {
    let engine = Engine::from_catalog(workload.catalog.clone());
    let mut with_work: u64 = 0;
    let mut without_work: u64 = 0;
    let mut with_secs = 0.0;
    let mut without_secs = 0.0;
    let mut with_bv_queries = 0usize;
    let mut improved = 0usize;
    let mut regressed = 0usize;
    let session = engine.session();
    for query in &workload.queries {
        let prepared = engine.prepare(query, OptimizerChoice::Baseline)?;
        if !prepared.plan().placements.is_empty() {
            with_bv_queries += 1;
        }
        let with = session
            .execute(
                &prepared,
                EngineRunOptions::new().with_exec_config(options.exec),
            )?
            .result;
        let without = session
            .execute(
                &prepared,
                EngineRunOptions::new().with_exec_config(ExecConfig::without_bitvectors()),
            )?
            .result;
        let w_work = with.metrics.logical_work();
        let wo_work = without.metrics.logical_work();
        with_work += w_work;
        without_work += wo_work;
        with_secs += with.metrics.elapsed_secs();
        without_secs += without.metrics.elapsed_secs();
        if (w_work as f64) < 0.8 * wo_work as f64 {
            improved += 1;
        }
        if (w_work as f64) > 1.2 * wo_work as f64 {
            regressed += 1;
        }
    }
    let n = workload.queries.len().max(1) as f64;
    Ok(BitvectorEffectReport {
        workload: workload.name.clone(),
        work_ratio: if without_work == 0 {
            1.0
        } else {
            with_work as f64 / without_work as f64
        },
        time_ratio: if without_secs <= 0.0 {
            1.0
        } else {
            with_secs / without_secs
        },
        queries_with_bitvectors: with_bv_queries as f64 / n,
        improved: improved as f64 / n,
        regressed: regressed as f64 / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_workloads::{star, tpcds_like, Scale};

    fn small_report() -> WorkloadReport {
        let w = tpcds_like::generate(Scale(0.01), 6, 12);
        run_workload(&w, ExperimentOptions::default()).unwrap()
    }

    #[test]
    fn report_covers_all_queries_and_bqo_does_not_lose() {
        let report = small_report();
        assert_eq!(report.queries.len(), 6);
        // On decision-support shapes BQO should not do more total work than
        // the baseline (individual queries may tie).
        assert!(
            report.total_work_ratio() <= 1.05,
            "ratio {}",
            report.total_work_ratio()
        );
    }

    #[test]
    fn selectivity_groups_partition_the_queries() {
        let report = small_report();
        let groups = report.selectivity_groups();
        assert_eq!(groups.len(), 3);
        let total: usize = groups.iter().map(|g| g.queries).sum();
        assert_eq!(total, report.queries.len());
        // With six queries each group holds exactly two.
        assert!(groups.iter().all(|g| g.queries == 2));
    }

    #[test]
    fn tuple_breakdown_sums_to_per_query_totals() {
        let report = small_report();
        let breakdown = report.tuple_breakdown();
        let expected: u64 = report
            .queries
            .iter()
            .map(|q| q.baseline.total_tuples())
            .sum();
        assert_eq!(breakdown.baseline_total(), expected);
        assert!(breakdown.bqo_total() > 0);
    }

    #[test]
    fn sorted_by_baseline_cost_is_descending() {
        let report = small_report();
        let sorted = report.sorted_by_baseline_cost();
        for pair in sorted.windows(2) {
            assert!(pair[0].baseline.logical_work >= pair[1].baseline.logical_work);
        }
    }

    #[test]
    fn bitvector_effect_reduces_work() {
        let w = star::generate(Scale(0.05), 4, 5, 21);
        let report = bitvector_effect(&w, ExperimentOptions::default()).unwrap();
        assert!(report.queries_with_bitvectors > 0.9);
        assert!(
            report.work_ratio < 1.0,
            "bitvector filtering should reduce work: {}",
            report.work_ratio
        );
        assert!(report.regressed <= 0.2);
    }

    #[test]
    fn repetitions_keep_the_fastest_run() {
        let w = star::generate(Scale(0.02), 3, 1, 3);
        let opts = ExperimentOptions {
            repetitions: 3,
            ..Default::default()
        };
        let report = run_workload(&w, opts).unwrap();
        assert_eq!(report.queries.len(), 1);
        assert!(report.queries[0].baseline.elapsed_secs > 0.0);
    }
}

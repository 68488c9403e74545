//! The paper's parameter-setting procedure (§5.1), automated.
//!
//! > "to perform HD-UNBIASED-SIZE over a hidden database, one should
//! > first determine `D_UB` […]. Then, starting from `r = 2`, one can
//! > gradually increase the budget `r` until reaching the limit on the
//! > number of queries issuable to the hidden database."
//!
//! [`recommend_dub`] picks a subtree bound that keeps every attribute
//! whole (no attribute's fanout may exceed it, or subtrees degenerate to
//! single oversized levels) with a little headroom so small-fanout
//! attributes pack together; [`adaptive_estimate`] then escalates `r`
//! in rounds until the client-side query budget is spent, averaging the
//! per-pass estimates across rounds (every pass is individually unbiased
//! whatever `r` it ran under, so the combined mean is unbiased too).

use hdb_interface::{Schema, TopKInterface};

use crate::agg::{AggEstimate, AggregateSpec, UnbiasedAggEstimator};
use crate::config::EstimatorConfig;
use crate::error::Result;

/// Default headroom multiplier applied to the largest fanout.
const DUB_HEADROOM: u64 = 2;

/// Recommends a subtree domain bound for a schema: the largest attribute
/// fanout with ×2 headroom, floored at the paper's smallest working value
/// (16). Every subtree then spans at least one full attribute and small
/// attributes pack a few levels deep — the regime Figures 16/17 show to
/// behave well.
#[must_use]
pub fn recommend_dub(schema: &Schema) -> u64 {
    let max_fanout = (0..schema.len()).map(|a| schema.fanout(a) as u64).max().unwrap_or(2);
    (max_fanout * DUB_HEADROOM).max(16)
}

/// Escalation schedule: passes to run at each `r` before moving on.
const PASSES_PER_ROUND: u64 = 3;
/// Largest `r` the escalation will reach (the paper's experiments stop
/// at `r = 8`; beyond that the cost per pass grows with no measured
/// MSE payoff — §6.2's r-tradeoff table).
const MAX_R: usize = 8;

/// Runs the §5.1 adaptive procedure for an aggregate: fixes
/// `D_UB = recommend_dub(schema)`, then runs `PASSES_PER_ROUND` (3)
/// passes per round at `r = 2, 3, …` (capped at `MAX_R = 8`) until
/// `query_budget` is spent, returning the pooled summary.
///
/// # Errors
/// Propagates interface errors other than budget exhaustion after at
/// least one completed pass.
pub fn adaptive_estimate<I: TopKInterface>(
    iface: &I,
    spec: &AggregateSpec,
    query_budget: u64,
    seed: u64,
) -> Result<AggEstimate> {
    let dub = recommend_dub(iface.schema());
    let mut all_estimates: Vec<f64> = Vec::new();
    let mut queries: u64 = 0;

    let mut round: u64 = 0;
    while queries < query_budget {
        let r = usize::try_from(round + 2).unwrap_or(MAX_R).min(MAX_R);
        let config = EstimatorConfig::hd_default().with_r(r).with_dub(dub);
        let mut est =
            UnbiasedAggEstimator::new(config, spec.clone(), seed.wrapping_add(round + 1))?;
        for _ in 0..PASSES_PER_ROUND {
            if queries >= query_budget {
                break;
            }
            match est.pass(iface) {
                Ok(_) => {}
                Err(e) if e.is_budget_exhausted() && !all_estimates.is_empty() => {
                    queries += est.queries_spent();
                    return Ok(AggEstimate::pooled(&all_estimates, queries));
                }
                Err(e) => return Err(e),
            }
        }
        all_estimates.extend_from_slice(est.history());
        queries += est.queries_spent();
        round += 1;
    }
    Ok(AggEstimate::pooled(&all_estimates, queries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdb_datagen::{uniform_table, yahoo_auto, YahooConfig};
    use hdb_interface::{HiddenDb, Query, Schema};

    #[test]
    fn dub_recommendation_tracks_max_fanout() {
        // all-Boolean → floor of 16
        assert_eq!(recommend_dub(&Schema::boolean(10)), 16);
        // yahoo schema: max fanout 16 → 32
        let s = hdb_datagen::yahoo_schema();
        assert_eq!(recommend_dub(&s), 32);
    }

    #[test]
    fn adaptive_procedure_spends_the_budget_and_lands_near_truth() {
        let table = yahoo_auto(YahooConfig { rows: 4_000, seed: 21 }).unwrap();
        let truth = table.len() as f64;
        let db = HiddenDb::new(table, 20);
        let result =
            adaptive_estimate(&db, &AggregateSpec::database_size(), 3_000, 7).unwrap();
        assert!(result.queries >= 3_000, "budget should be (roughly) used: {}", result.queries);
        assert!(result.passes >= 3);
        let rel = (result.estimate - truth).abs() / truth;
        assert!(rel < 0.4, "estimate {} vs truth {truth}", result.estimate);
    }

    #[test]
    fn adaptive_procedure_is_unbiased() {
        let table = uniform_table(&Schema::boolean(7), 50, 4).unwrap();
        let truth = table.len() as f64;
        let db = HiddenDb::new(table, 2);
        let runs = 300u32;
        let mut sum = 0.0;
        for i in 0..runs {
            let r =
                adaptive_estimate(&db, &AggregateSpec::database_size(), 150, u64::from(i))
                    .unwrap();
            sum += r.estimate;
        }
        let mean = sum / f64::from(runs);
        assert!((mean - truth).abs() < 0.07 * truth, "mean {mean} vs truth {truth}");
    }

    #[test]
    fn site_budget_exhaustion_returns_partial_pool() {
        let table = uniform_table(&Schema::boolean(10), 300, 4).unwrap();
        let db = HiddenDb::new(table, 2).with_budget(200);
        let result =
            adaptive_estimate(&db, &AggregateSpec::database_size(), 10_000, 3).unwrap();
        assert!(result.passes >= 1);
        assert!(result.estimate > 0.0);
    }

    #[test]
    fn selection_aggregates_work_adaptively() {
        let table = yahoo_auto(YahooConfig { rows: 3_000, seed: 6 }).unwrap();
        let sel = Query::all().and(hdb_datagen::YAHOO_ATTRS.make, 0).unwrap();
        let truth = table.exact_count(&sel) as f64;
        let db = HiddenDb::new(table, 20);
        let result = adaptive_estimate(&db, &AggregateSpec::count(sel), 2_000, 11).unwrap();
        let rel = (result.estimate - truth).abs() / truth;
        assert!(rel < 0.5, "estimate {} vs truth {truth}", result.estimate);
    }

    #[test]
    fn zero_budget_pools_nothing() {
        let table = uniform_table(&Schema::boolean(6), 40, 2).unwrap();
        let db = HiddenDb::new(table, 2);
        let result = adaptive_estimate(&db, &AggregateSpec::database_size(), 0, 1).unwrap();
        assert_eq!(result.estimate, 0.0);
        assert_eq!(result.passes, 0);
        assert_eq!(result.queries, 0);
        assert_eq!(result.std_error, 0.0);
        assert_eq!(db.queries_issued(), 0);
    }
}

//! `HD-UNBIASED-AGG` (paper §5.2): unbiased estimation of COUNT and SUM
//! aggregates with conjunctive selection conditions, by running the
//! backtracking drill-down (with optional weight adjustment and
//! divide-&-conquer) over the subtree selected by the condition.
//!
//! AVG deliberately has no unbiased estimator here: the ratio of unbiased
//! SUM and COUNT estimates is biased, a limitation the paper inherits
//! from its reference \[13\]. [`ratio_avg`] exposes the biased ratio
//! under a name that says so.

use std::sync::Arc;

use hdb_interface::{
    AttrId, Clock, Counter, Histogram, MetricsRegistry, Query, QueryOutcome, ReturnedTuple,
    Schema, TopKInterface, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::EstimatorConfig;
use crate::dnc::estimate_pass_with;
use crate::engine;
use crate::error::{EstimatorError, Result};
use crate::walk::{UniformWeights, WeightProvider};
use crate::weight::{WeightModel, WeightModelConfig};

/// The aggregate function of a query
/// `SELECT AGGR(..) FROM D WHERE <selection>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateFn {
    /// `COUNT(*)` — with an empty selection this is the database size.
    Count,
    /// `SUM(attr)` using the attribute's numeric interpretation.
    Sum(AttrId),
}

/// A full aggregate query: function plus conjunctive selection condition.
#[derive(Clone, Debug)]
pub struct AggregateSpec {
    /// The aggregate function.
    pub function: AggregateFn,
    /// Conjunctive selection condition ([`Query::all`] selects every
    /// tuple).
    pub selection: Query,
}

impl AggregateSpec {
    /// `COUNT(*)` over the whole database — the size-estimation problem.
    #[must_use]
    pub fn database_size() -> Self {
        Self { function: AggregateFn::Count, selection: Query::all() }
    }

    /// `COUNT(*) WHERE selection`.
    #[must_use]
    pub fn count(selection: Query) -> Self {
        Self { function: AggregateFn::Count, selection }
    }

    /// `SUM(attr) WHERE selection`.
    #[must_use]
    pub fn sum(attr: AttrId, selection: Query) -> Self {
        Self { function: AggregateFn::Sum(attr), selection }
    }

    /// Validates the spec against a schema.
    ///
    /// # Errors
    /// Returns [`EstimatorError::InvalidAggregate`] if the SUM attribute
    /// is out of range or lacks a numeric interpretation, and propagates
    /// selection-query validation failures.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        self.selection.validate(schema)?;
        if let AggregateFn::Sum(attr) = self.function {
            if attr >= schema.len() {
                return Err(EstimatorError::InvalidAggregate(format!(
                    "SUM attribute id {attr} out of range (schema has {})",
                    schema.len()
                )));
            }
            if !schema.attribute(attr).is_numeric() {
                return Err(EstimatorError::InvalidAggregate(format!(
                    "SUM over attribute `{}` requires a numeric interpretation",
                    schema.attribute(attr).name()
                )));
            }
        }
        Ok(())
    }

    /// The measure of a set of returned tuples under this aggregate.
    fn measure(&self, schema: &Schema, tuples: &[ReturnedTuple]) -> f64 {
        match self.function {
            AggregateFn::Count => tuples.len() as f64,
            AggregateFn::Sum(attr) => {
                let a = schema.attribute(attr);
                tuples
                    .iter()
                    .map(|t| a.numeric_value(t.tuple.value(attr)).expect("validated numeric"))
                    .sum()
            }
        }
    }
}

/// Result of an estimation run.
#[derive(Clone, Copy, Debug)]
pub struct AggEstimate {
    /// The running estimate (mean of per-pass unbiased estimates).
    pub estimate: f64,
    /// Number of completed estimation passes.
    pub passes: u64,
    /// Queries this estimator spent (interface-counter delta across its
    /// own passes).
    pub queries: u64,
    /// Standard error of the mean across passes (0 for a single pass).
    pub std_error: f64,
}

impl AggEstimate {
    /// The mean of per-pass `estimates` and its standard error `s/√n`
    /// (0 below two passes) — the one place either is computed. An empty
    /// slice pools to estimate 0 over 0 passes.
    pub(crate) fn pooled(estimates: &[f64], queries: u64) -> Self {
        let n = estimates.len();
        let estimate = estimates.iter().sum::<f64>() / n.max(1) as f64;
        let std_error = if n < 2 {
            0.0
        } else {
            let var = estimates.iter().map(|e| (e - estimate).powi(2)).sum::<f64>()
                / (n - 1) as f64;
            (var / n as f64).sqrt()
        };
        Self { estimate, passes: n as u64, queries, std_error }
    }
}

/// The `HD-UNBIASED-AGG` estimator.
///
/// Each [`UnbiasedAggEstimator::pass`] produces one unbiased estimate of
/// the aggregate; the running mean over passes converges with variance
/// `s²/passes`. Passes are **independent units of work**: pass `i` draws
/// its randomness from [`engine::pass_seed`]`(master_seed, i)` and, when
/// weight adjustment is on, learns branch weights only within its own
/// walks (the `r` drill-downs per subtree and the recursive
/// divide-&-conquer below them). Pass independence is what lets
/// [`UnbiasedAggEstimator::run_parallel`] fan passes across threads while
/// staying bit-identical to the sequential [`UnbiasedAggEstimator::run`]
/// regardless of worker count — and it keeps every pass individually
/// unbiased, whatever the weights (§4.1.1).
#[derive(Debug)]
pub struct UnbiasedAggEstimator {
    config: EstimatorConfig,
    spec: AggregateSpec,
    master_seed: u64,
    /// Index of the next pass to start; pass `i` is a pure function of
    /// `(config, spec, root outcome, master_seed, i)`.
    next_pass: u64,
    estimates: Vec<f64>,
    queries_spent: u64,
    root_outcome: Option<QueryOutcome>,
    levels: Option<Vec<AttrId>>,
    obs: Option<EngineObs>,
}

/// Observability handles an estimator records into when
/// [`UnbiasedAggEstimator::with_obs`] wired it to a registry. Recording
/// happens strictly after a pass's value is committed, so estimates are
/// bit-identical with or without it; the duration histogram fills only
/// for sequential passes (a parallel pass's wall time is
/// scheduling-dependent) and only when a [`Clock`] was supplied.
#[derive(Debug)]
struct EngineObs {
    passes: Counter,
    pass_nanos: Histogram,
    clock: Option<Arc<dyn Clock>>,
}

/// Runs one independent estimation pass: the whole pass (branch picks,
/// pass-local weight learning, divide-&-conquer recursion) consumes only
/// the RNG stream derived from `(master_seed, pass_index)`.
fn run_one_pass<I: TopKInterface>(
    config: &EstimatorConfig,
    spec: &AggregateSpec,
    levels: &[AttrId],
    root: &QueryOutcome,
    iface: &I,
    master_seed: u64,
    pass_index: u64,
) -> Result<f64> {
    let schema = iface.schema();
    match root {
        QueryOutcome::Underflow => Ok(0.0),
        QueryOutcome::Valid(tuples) => Ok(spec.measure(schema, tuples)),
        QueryOutcome::Overflow(_) => {
            let mut rng =
                StdRng::seed_from_u64(engine::pass_seed(master_seed, pass_index));
            let measure = |tuples: &[ReturnedTuple]| spec.measure(schema, tuples);
            let weights;
            let provider: &dyn WeightProvider = if config.weight_adjustment {
                weights = WeightModel::new(WeightModelConfig {
                    smoothing: config.smoothing,
                    empty_weight: config.empty_weight,
                    ..WeightModelConfig::default()
                });
                &weights
            } else {
                &UniformWeights
            };
            estimate_pass_with(
                iface,
                &spec.selection,
                levels,
                config.r,
                config.dub,
                provider,
                &measure,
                config.backtrack,
                &mut rng,
            )
        }
    }
}

/// The error of a run that completed no pass.
fn no_passes() -> EstimatorError {
    EstimatorError::InvalidConfig("no passes completed".into())
}

impl UnbiasedAggEstimator {
    /// Creates an estimator for `spec` under `config`, seeding its RNG
    /// with `seed`.
    ///
    /// # Errors
    /// Returns [`EstimatorError::InvalidConfig`] for invalid
    /// configurations. Spec validation happens on first contact with an
    /// interface (the schema is needed).
    pub fn new(config: EstimatorConfig, spec: AggregateSpec, seed: u64) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            spec,
            master_seed: seed,
            next_pass: 0,
            estimates: Vec::new(),
            queries_spent: 0,
            root_outcome: None,
            levels: None,
            obs: None,
        })
    }

    /// Wires this estimator to `registry`: completed passes bump
    /// `hdb_engine_passes_total`, and — when `clock` is supplied —
    /// sequential pass durations fill `hdb_engine_pass_nanos`. Purely
    /// additive: estimates and histories are bit-identical either way.
    #[must_use]
    pub fn with_obs(mut self, registry: &MetricsRegistry, clock: Option<Arc<dyn Clock>>) -> Self {
        self.obs = Some(EngineObs {
            passes: registry.counter("hdb_engine_passes_total"),
            pass_nanos: registry.histogram("hdb_engine_pass_nanos"),
            clock,
        });
        self
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// The aggregate specification.
    #[must_use]
    pub fn spec(&self) -> &AggregateSpec {
        &self.spec
    }

    /// Performs one estimation pass and returns its (individually
    /// unbiased) estimate.
    ///
    /// # Errors
    /// Propagates interface errors. A failed pass contributes nothing to
    /// the running mean; prior passes remain intact, so budget exhaustion
    /// mid-pass leaves a usable estimator.
    pub fn pass<I: TopKInterface>(&mut self, iface: &I) -> Result<f64> {
        let before = iface.queries_issued();
        let started = self
            .obs
            .as_ref()
            .and_then(|o| o.clock.as_ref().map(|c| c.now_nanos()));
        let result = self.pass_inner(iface);
        self.queries_spent += iface.queries_issued() - before;
        let estimate = result?;
        self.next_pass += 1;
        self.estimates.push(estimate);
        if let Some(obs) = &self.obs {
            obs.passes.inc();
            if let (Some(t0), Some(clock)) = (started, obs.clock.as_ref()) {
                obs.pass_nanos.observe(clock.now_nanos().saturating_sub(t0));
            }
        }
        Ok(estimate)
    }

    /// Resolves the level order and issues the root (selection) query
    /// once; under the static-database model a client never re-asks it.
    fn ensure_ready<I: TopKInterface>(&mut self, iface: &I) -> Result<()> {
        let schema = iface.schema();
        if self.levels.is_none() {
            self.spec.validate(schema)?;
            let fixed: Vec<AttrId> =
                self.spec.selection.predicates().iter().map(|p| p.attr).collect();
            self.levels = Some(self.config.order.resolve(schema, &fixed)?);
        }
        if self.root_outcome.is_none() {
            self.root_outcome = Some(iface.query(&self.spec.selection)?);
        }
        Ok(())
    }

    fn pass_inner<I: TopKInterface>(&mut self, iface: &I) -> Result<f64> {
        self.ensure_ready(iface)?;
        run_one_pass(
            &self.config,
            &self.spec,
            self.levels.as_deref().expect("resolved above"),
            self.root_outcome.as_ref().expect("just cached"),
            iface,
            self.master_seed,
            self.next_pass,
        )
    }

    /// Runs `passes` estimation passes and returns the summary.
    ///
    /// # Errors
    /// Propagates the first interface error, unless it is budget
    /// exhaustion *after* at least one completed pass — then the partial
    /// summary is returned (matching how a real client would behave when
    /// the site cuts it off).
    pub fn run<I: TopKInterface>(&mut self, iface: &I, passes: u64) -> Result<AggEstimate> {
        let end = self.next_pass.saturating_add(passes);
        self.run_while(iface, |est| est.next_pass < end)
    }

    /// Keeps running passes until this estimator has spent at least
    /// `query_budget` queries (always completing the pass in flight), then
    /// returns the summary.
    ///
    /// # Errors
    /// Same contract as [`UnbiasedAggEstimator::run`].
    pub fn run_until_budget<I: TopKInterface>(
        &mut self,
        iface: &I,
        query_budget: u64,
    ) -> Result<AggEstimate> {
        self.run_while(iface, |est| est.queries_spent < query_budget)
    }

    /// The sequential loop behind [`UnbiasedAggEstimator::run`] and
    /// [`UnbiasedAggEstimator::run_until_budget`]: passes in index order
    /// while `more` holds. A budget cut after at least one completed pass
    /// ends the run with the partial summary.
    fn run_while<I: TopKInterface>(
        &mut self,
        iface: &I,
        more: impl Fn(&Self) -> bool,
    ) -> Result<AggEstimate> {
        while more(self) {
            if let Err(e) = self.pass(iface) {
                if e.is_budget_exhausted() && !self.estimates.is_empty() {
                    break;
                }
                return Err(e);
            }
        }
        self.summary().ok_or_else(no_passes)
    }

    /// Runs `passes` estimation passes fanned across `workers` threads
    /// (the caller plus a [`WorkerPool`] of `workers - 1` built for the
    /// call).
    ///
    /// Because each pass draws from its own
    /// [`engine::pass_seed`]-derived RNG stream and results are merged in
    /// canonical pass-index order, the returned estimate, the per-pass
    /// [`UnbiasedAggEstimator::history`], and even
    /// [`UnbiasedAggEstimator::queries_spent`] are **bitwise identical**
    /// to the sequential [`UnbiasedAggEstimator::run`] for any
    /// `workers ≥ 1`. Pass `workers = `[`engine::default_workers`]`()`
    /// to honour the `HDB_ENGINE_WORKERS` environment variable.
    ///
    /// ```
    /// use hdb_core::{AggregateSpec, EstimatorConfig, UnbiasedAggEstimator};
    /// use hdb_interface::{HiddenDb, Schema, Table, Tuple};
    ///
    /// let tuples: Vec<Tuple> = (0..32u16)
    ///     .map(|i| Tuple::new((0..5).map(|b| (i >> b) & 1).collect()))
    ///     .collect();
    /// let db = HiddenDb::new(Table::new(Schema::boolean(5), tuples).unwrap(), 1);
    ///
    /// let mut seq = UnbiasedAggEstimator::new(
    ///     EstimatorConfig::plain(), AggregateSpec::database_size(), 7).unwrap();
    /// let mut par = UnbiasedAggEstimator::new(
    ///     EstimatorConfig::plain(), AggregateSpec::database_size(), 7).unwrap();
    /// let s = seq.run(&db, 60).unwrap();
    /// let p = par.run_parallel(&db, 60, 4).unwrap();
    /// assert_eq!(s.estimate.to_bits(), p.estimate.to_bits());
    /// assert_eq!(seq.history(), par.history());
    /// ```
    ///
    /// The bitwise guarantee extends to `queries_spent` for interfaces
    /// whose per-query charge is history-independent (a plain
    /// [`HiddenDb`](hdb_interface::HiddenDb) charges every issued query).
    ///
    /// An interface that meters a query budget
    /// ([`TopKInterface::budget_remaining`] returns `Some`) ends the run
    /// at the pass where the budget runs out, so against one this *is*
    /// [`UnbiasedAggEstimator::run`]: the completed passes, history,
    /// spend and error are the sequential run's by construction.
    ///
    /// # Errors
    /// Against a metered interface, the contract of
    /// [`UnbiasedAggEstimator::run`]. Otherwise the fan-out commits every
    /// pass or none: on the first interface error the estimates, history
    /// and pass cursor are exactly as before the call (the queries the
    /// failed fan-out issued still count in `queries_spent`), so a retry
    /// re-runs the same pass indices.
    ///
    /// # Panics
    /// A pass that panics, on any thread, panics the caller once every
    /// worker has stopped.
    pub fn run_parallel<I: TopKInterface + Sync>(
        &mut self,
        iface: &I,
        passes: u64,
        workers: usize,
    ) -> Result<AggEstimate> {
        if iface.budget_remaining().is_some() {
            return self.run(iface, passes);
        }
        let before = iface.queries_issued();
        let out = self.ensure_ready(iface).map(|()| {
            let (config, spec, master, base) =
                (&self.config, &self.spec, self.master_seed, self.next_pass);
            let levels = self.levels.as_deref().expect("resolved");
            let root = self.root_outcome.as_ref().expect("cached");
            let threads = workers.min(usize::try_from(passes).unwrap_or(usize::MAX));
            WorkerPool::new(threads.saturating_sub(1)).fan_out(passes, |i| {
                run_one_pass(config, spec, levels, root, iface, master, base + i)
            })
        });
        self.queries_spent += iface.queries_issued() - before;
        let out = out?;
        if let Some(e) = out.error {
            return Err(e);
        }
        // Replay results in canonical pass-index order: arrival order is
        // scheduling-dependent, the committed fold must not be.
        let mut results = out.results;
        results.sort_unstable_by_key(|&(i, _)| i);
        self.estimates.extend(results.into_iter().map(|(_, v)| v));
        self.next_pass += passes;
        if let Some(obs) = &self.obs {
            // No durations here: a parallel pass's wall time is an
            // artefact of scheduling, not of the work.
            obs.passes.add(passes);
        }
        self.summary().ok_or_else(no_passes)
    }

    /// The running estimate (mean of pass estimates), if any pass has
    /// completed.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        if self.estimates.is_empty() {
            None
        } else {
            Some(self.estimates.iter().sum::<f64>() / self.estimates.len() as f64)
        }
    }

    /// Per-pass estimates, in order.
    #[must_use]
    pub fn history(&self) -> &[f64] {
        &self.estimates
    }

    /// Queries spent by this estimator so far.
    #[must_use]
    pub fn queries_spent(&self) -> u64 {
        self.queries_spent
    }

    /// The current summary, if any pass has completed.
    #[must_use]
    pub fn summary(&self) -> Option<AggEstimate> {
        (!self.estimates.is_empty())
            .then(|| AggEstimate::pooled(&self.estimates, self.queries_spent))
    }
}

/// The **biased** AVG estimate formed by dividing unbiased SUM and COUNT
/// estimates. The paper (§5.2) shows unbiased AVG estimation is not
/// achievable this way; the name keeps the caveat in the caller's face.
/// Returns `None` when the count estimate is not positive.
#[must_use]
pub fn ratio_avg(sum_estimate: f64, count_estimate: f64) -> Option<f64> {
    (count_estimate > 0.0).then(|| sum_estimate / count_estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdb_interface::{Attribute, HiddenDb, Schema, Table, Tuple};

    fn db() -> HiddenDb {
        // 8 tuples over (bool, bool, price∈0..4)
        let schema = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::boolean("b"),
            Attribute::numeric_buckets("price", 4).unwrap(),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = vec![
            vec![0, 0, 0],
            vec![0, 0, 3],
            vec![0, 1, 1],
            vec![0, 1, 2],
            vec![1, 0, 2],
            vec![1, 0, 3],
            vec![1, 1, 0],
            vec![1, 1, 3],
        ]
        .into_iter()
        .map(Tuple::new)
        .collect();
        HiddenDb::new(Table::new(schema, tuples).unwrap(), 1)
    }

    #[test]
    fn count_all_is_unbiased() {
        let db = db();
        let mut est = UnbiasedAggEstimator::new(
            EstimatorConfig::plain(),
            AggregateSpec::database_size(),
            7,
        )
        .unwrap();
        let summary = est.run(&db, 3000).unwrap();
        assert_eq!(summary.passes, 3000);
        assert!((summary.estimate - 8.0).abs() < 0.3, "estimate {}", summary.estimate);
        assert!(summary.queries > 0);
    }

    #[test]
    fn sum_with_selection_is_unbiased() {
        let db = db();
        // SUM(price) WHERE a = 1 → tuples (1,0,2),(1,0,3),(1,1,0),(1,1,3) = 8
        let selection = Query::all().and(0, 1).unwrap();
        let mut est = UnbiasedAggEstimator::new(
            EstimatorConfig::plain(),
            AggregateSpec::sum(2, selection),
            11,
        )
        .unwrap();
        let summary = est.run(&db, 4000).unwrap();
        assert!((summary.estimate - 8.0).abs() < 0.4, "estimate {}", summary.estimate);
    }

    #[test]
    fn valid_root_returns_exact_answer() {
        // k large enough that the selection query itself is valid →
        // exact answer, zero variance, one query ever.
        let schema = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::numeric_buckets("v", 4).unwrap(),
        ])
        .unwrap();
        let tuples: Vec<Tuple> =
            vec![vec![0, 1], vec![0, 2], vec![1, 3]].into_iter().map(Tuple::new).collect();
        let db = HiddenDb::new(Table::new(schema, tuples).unwrap(), 10);
        let mut est = UnbiasedAggEstimator::new(
            EstimatorConfig::plain(),
            AggregateSpec::sum(1, Query::all()),
            1,
        )
        .unwrap();
        let summary = est.run(&db, 50).unwrap();
        assert_eq!(summary.estimate, 6.0);
        assert_eq!(summary.std_error, 0.0);
        assert_eq!(db.queries_issued(), 1, "root outcome must be cached across passes");
    }

    #[test]
    fn underflowing_selection_estimates_zero() {
        let db = db();
        // a=0 ∧ b=0 ∧ price=1 matches nothing
        let selection = Query::all()
            .and(0, 0)
            .unwrap()
            .and(1, 0)
            .unwrap()
            .and(2, 1)
            .unwrap();
        let mut est =
            UnbiasedAggEstimator::new(EstimatorConfig::plain(), AggregateSpec::count(selection), 1)
                .unwrap();
        let summary = est.run(&db, 10).unwrap();
        assert_eq!(summary.estimate, 0.0);
    }

    #[test]
    fn sum_requires_numeric_attribute() {
        let schema = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::categorical("c", ["x", "y"]).unwrap(),
        ])
        .unwrap();
        let t = Table::new(schema, vec![Tuple::new(vec![0, 0]), Tuple::new(vec![1, 1])]).unwrap();
        let db = HiddenDb::new(t, 1);
        let mut est = UnbiasedAggEstimator::new(
            EstimatorConfig::plain(),
            AggregateSpec::sum(1, Query::all()),
            1,
        )
        .unwrap();
        let err = est.pass(&db).unwrap_err();
        assert!(matches!(err, EstimatorError::InvalidAggregate(_)));
    }

    #[test]
    fn budget_exhaustion_preserves_partial_results() {
        let schema = Schema::boolean(6);
        let tuples: Vec<Tuple> = (0..40u16)
            .map(|i| {
                Tuple::new((0..6).map(|b| (i >> b) & 1).collect())
            })
            .collect();
        let db = HiddenDb::new(Table::new(schema, tuples).unwrap(), 1).with_budget(60);
        let mut est = UnbiasedAggEstimator::new(
            EstimatorConfig::plain(),
            AggregateSpec::database_size(),
            3,
        )
        .unwrap();
        let summary = est.run(&db, 1_000_000).unwrap();
        assert!(summary.passes >= 1);
        assert!(summary.queries <= 60);
        assert!(summary.estimate > 0.0);
    }

    #[test]
    fn weight_adjustment_keeps_unbiasedness() {
        let db = db();
        let cfg = EstimatorConfig::plain().with_weight_adjustment(true);
        let mut est =
            UnbiasedAggEstimator::new(cfg, AggregateSpec::database_size(), 23).unwrap();
        let summary = est.run(&db, 4000).unwrap();
        assert!((summary.estimate - 8.0).abs() < 0.3, "estimate {}", summary.estimate);
    }

    #[test]
    fn hd_full_config_is_unbiased() {
        let db = db();
        let cfg = EstimatorConfig::hd_default().with_dub(4).with_r(2);
        let mut est =
            UnbiasedAggEstimator::new(cfg, AggregateSpec::database_size(), 29).unwrap();
        let summary = est.run(&db, 4000).unwrap();
        assert!((summary.estimate - 8.0).abs() < 0.3, "estimate {}", summary.estimate);
    }

    #[test]
    fn ratio_avg_flags_bias_in_name_and_guards_zero() {
        assert_eq!(ratio_avg(10.0, 4.0), Some(2.5));
        assert_eq!(ratio_avg(10.0, 0.0), None);
        assert_eq!(ratio_avg(10.0, -1.0), None);
    }

    #[test]
    fn run_parallel_matches_sequential_bitwise() {
        for workers in [1usize, 3] {
            let mut seq = UnbiasedAggEstimator::new(
                EstimatorConfig::hd_default().with_dub(4),
                AggregateSpec::database_size(),
                71,
            )
            .unwrap();
            let s = seq.run(&db(), 200).unwrap();
            let mut par = UnbiasedAggEstimator::new(
                EstimatorConfig::hd_default().with_dub(4),
                AggregateSpec::database_size(),
                71,
            )
            .unwrap();
            let p = par.run_parallel(&db(), 200, workers).unwrap();
            assert_eq!(s.estimate.to_bits(), p.estimate.to_bits(), "workers={workers}");
            assert_eq!(seq.history(), par.history(), "workers={workers}");
            assert_eq!(s.queries, p.queries, "workers={workers}");
        }
    }

    #[test]
    fn parallel_budget_exhaustion_preserves_partial_results() {
        let schema = Schema::boolean(6);
        let tuples: Vec<Tuple> =
            (0..40u16).map(|i| Tuple::new((0..6).map(|b| (i >> b) & 1).collect())).collect();
        let db = HiddenDb::new(Table::new(schema, tuples).unwrap(), 1).with_budget(60);
        let mut est = UnbiasedAggEstimator::new(
            EstimatorConfig::plain(),
            AggregateSpec::database_size(),
            3,
        )
        .unwrap();
        let summary = est.run_parallel(&db, 1_000_000, 4).unwrap();
        assert!(summary.passes >= 1);
        assert!(summary.queries <= 60);
        assert!(summary.estimate > 0.0);
    }

    #[test]
    fn ample_metered_budget_keeps_parallel_parity() {
        // A metered run is the sequential run, so a budget nowhere near
        // exhaustion changes nothing: the results match the unlimited
        // run bit for bit.
        let mut unlimited = UnbiasedAggEstimator::new(
            EstimatorConfig::plain(),
            AggregateSpec::database_size(),
            9,
        )
        .unwrap();
        let reference = unlimited.run(&db(), 120).unwrap();
        let metered = db().with_budget(1_000_000);
        let mut est = UnbiasedAggEstimator::new(
            EstimatorConfig::plain(),
            AggregateSpec::database_size(),
            9,
        )
        .unwrap();
        let summary = est.run_parallel(&metered, 120, 4).unwrap();
        assert_eq!(reference.estimate.to_bits(), summary.estimate.to_bits());
        assert_eq!(unlimited.history(), est.history());
        assert_eq!(reference.queries, summary.queries);
    }

    #[test]
    fn a_panicking_pass_panics_the_caller_of_run_parallel() {
        /// Answers the root query, then panics on every later one, so
        /// whichever thread runs the first pass panics.
        struct PanicsAfterRoot(HiddenDb);
        impl TopKInterface for PanicsAfterRoot {
            fn schema(&self) -> &Schema {
                self.0.schema()
            }
            fn k(&self) -> usize {
                self.0.k()
            }
            fn query(&self, q: &Query) -> hdb_interface::Result<QueryOutcome> {
                assert_eq!(self.0.queries_issued(), 0, "a pass issued a query");
                self.0.query(q)
            }
            fn queries_issued(&self) -> u64 {
                self.0.queries_issued()
            }
        }
        // On a thread of its own, so a run that hangs fails the test.
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let mut est = UnbiasedAggEstimator::new(
                EstimatorConfig::plain(),
                AggregateSpec::database_size(),
                5,
            )
            .unwrap();
            let iface = PanicsAfterRoot(db());
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                est.run_parallel(&iface, 64, 4)
            }));
            tx.send(run.is_err()).unwrap();
        });
        let panicked = rx.recv_timeout(std::time::Duration::from_secs(60)).expect("run hung");
        runner.join().expect("the runner catches the panic");
        assert!(panicked, "the pass's panic must reach the caller");
    }

    #[test]
    fn run_until_budget_spends_at_least_budget() {
        let db = db();
        let mut est = UnbiasedAggEstimator::new(
            EstimatorConfig::plain(),
            AggregateSpec::database_size(),
            5,
        )
        .unwrap();
        let summary = est.run_until_budget(&db, 100).unwrap();
        assert!(summary.queries >= 100);
        assert!(summary.passes > 1);
    }
}

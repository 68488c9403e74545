//! `HD-UNBIASED-SIZE` and `BOOL-UNBIASED-SIZE`: unbiased estimation of
//! the hidden database size (`COUNT(*)`), the paper's headline problem.
//!
//! Both are thin specialisations of [`UnbiasedAggEstimator`] with the
//! `COUNT(*)` aggregate over the whole database:
//!
//! * [`UnbiasedSizeEstimator::plain`] — the bare backtracking random
//!   drill-down of §3 (the paper's `BOOL-UNBIASED-SIZE`, which the smart
//!   backtracking of §3.2 extends to categorical data). Unbiased, but
//!   possibly high-variance on skewed data.
//! * [`UnbiasedSizeEstimator::hd`] — the full `HD-UNBIASED-SIZE` with
//!   weight adjustment and divide-&-conquer (§4), the paper's headline
//!   estimator.

use hdb_interface::TopKInterface;

use crate::agg::{AggEstimate, AggregateSpec, UnbiasedAggEstimator};
use crate::config::EstimatorConfig;
use crate::error::Result;

/// Result of a size-estimation run (alias of the aggregate summary).
pub type SizeEstimate = AggEstimate;

/// Unbiased estimator of the number of tuples in a hidden database.
#[derive(Debug)]
pub struct UnbiasedSizeEstimator {
    inner: UnbiasedAggEstimator,
}

impl UnbiasedSizeEstimator {
    /// A size estimator with an explicit configuration.
    ///
    /// # Errors
    /// Returns [`crate::EstimatorError::InvalidConfig`] for invalid
    /// configurations.
    pub fn new(config: EstimatorConfig, seed: u64) -> Result<Self> {
        Ok(Self { inner: UnbiasedAggEstimator::new(config, AggregateSpec::database_size(), seed)? })
    }

    /// The plain backtracking estimator (`BOOL-UNBIASED-SIZE` /
    /// its categorical generalisation): no weight adjustment, no
    /// divide-&-conquer.
    ///
    /// # Errors
    /// Never fails in practice (the plain config is valid); kept fallible
    /// for API uniformity.
    pub fn plain(seed: u64) -> Result<Self> {
        Self::new(EstimatorConfig::plain(), seed)
    }

    /// The full `HD-UNBIASED-SIZE` with the paper's default parameters
    /// (`r = 4`, `D_UB = 32`, weight adjustment on).
    ///
    /// # Errors
    /// Never fails in practice; kept fallible for API uniformity.
    pub fn hd(seed: u64) -> Result<Self> {
        Self::new(EstimatorConfig::hd_default(), seed)
    }

    /// One estimation pass; the returned value is individually unbiased.
    ///
    /// # Errors
    /// Propagates interface errors; see [`UnbiasedAggEstimator::pass`].
    pub fn pass<I: TopKInterface>(&mut self, iface: &I) -> Result<f64> {
        self.inner.pass(iface)
    }

    /// Runs `passes` passes; see [`UnbiasedAggEstimator::run`].
    ///
    /// ```
    /// use hdb_core::UnbiasedSizeEstimator;
    /// use hdb_interface::{HiddenDb, Schema, Table, Tuple};
    ///
    /// // 40 tuples behind a top-1 interface
    /// let tuples: Vec<Tuple> = (0..40u16)
    ///     .map(|i| Tuple::new((0..6).map(|b| (i >> b) & 1).collect()))
    ///     .collect();
    /// let db = HiddenDb::new(Table::new(Schema::boolean(6), tuples).unwrap(), 1);
    ///
    /// let mut estimator = UnbiasedSizeEstimator::plain(42).unwrap();
    /// let result = estimator.run(&db, 200).unwrap();
    /// assert_eq!(result.passes, 200);
    /// assert!((result.estimate - 40.0).abs() < 8.0);
    /// ```
    ///
    /// # Errors
    /// Propagates interface errors other than budget exhaustion after at
    /// least one completed pass.
    pub fn run<I: TopKInterface>(&mut self, iface: &I, passes: u64) -> Result<SizeEstimate> {
        self.inner.run(iface, passes)
    }

    /// Runs passes until at least `query_budget` queries are spent; see
    /// [`UnbiasedAggEstimator::run_until_budget`].
    ///
    /// # Errors
    /// Propagates interface errors other than budget exhaustion after at
    /// least one completed pass.
    pub fn run_until_budget<I: TopKInterface>(
        &mut self,
        iface: &I,
        query_budget: u64,
    ) -> Result<SizeEstimate> {
        self.inner.run_until_budget(iface, query_budget)
    }

    /// Runs `passes` passes fanned across `workers` threads; bitwise
    /// identical to [`UnbiasedSizeEstimator::run`] for any worker count,
    /// and exactly `run` against an interface that meters a budget. See
    /// [`UnbiasedAggEstimator::run_parallel`].
    ///
    /// # Errors
    /// See [`UnbiasedAggEstimator::run_parallel`].
    pub fn run_parallel<I: TopKInterface + Sync>(
        &mut self,
        iface: &I,
        passes: u64,
        workers: usize,
    ) -> Result<SizeEstimate> {
        self.inner.run_parallel(iface, passes, workers)
    }

    /// The running size estimate, if any pass completed.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        self.inner.estimate()
    }

    /// Per-pass estimates.
    #[must_use]
    pub fn history(&self) -> &[f64] {
        self.inner.history()
    }

    /// Queries spent by this estimator.
    #[must_use]
    pub fn queries_spent(&self) -> u64 {
        self.inner.queries_spent()
    }

    /// Current summary, if any pass completed.
    #[must_use]
    pub fn summary(&self) -> Option<SizeEstimate> {
        self.inner.summary()
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &EstimatorConfig {
        self.inner.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdb_interface::{HiddenDb, Schema, Table, Tuple};

    fn db(m: u16, k: usize) -> HiddenDb {
        let tuples: Vec<Tuple> =
            (0..m).map(|i| Tuple::new((0..8).map(|b| (i >> b) & 1).collect())).collect();
        HiddenDb::new(Table::new(Schema::boolean(8), tuples).unwrap(), k)
    }

    #[test]
    fn plain_estimator_is_unbiased() {
        let db = db(100, 1);
        let mut est = UnbiasedSizeEstimator::plain(13).unwrap();
        let s = est.run(&db, 3000).unwrap();
        assert!((s.estimate - 100.0).abs() < 5.0, "estimate {}", s.estimate);
    }

    #[test]
    fn hd_estimator_is_unbiased_and_tighter() {
        let db = db(100, 1);
        let mut plain = UnbiasedSizeEstimator::plain(17).unwrap();
        let mut hd =
            UnbiasedSizeEstimator::new(EstimatorConfig::hd_default().with_dub(16), 17).unwrap();
        let sp = plain.run(&db, 800).unwrap();
        let sh = hd.run(&db, 200).unwrap();
        assert!((sp.estimate - 100.0).abs() < 10.0);
        assert!((sh.estimate - 100.0).abs() < 10.0);
    }

    #[test]
    fn larger_k_means_fewer_queries_per_pass() {
        let mut est1 = UnbiasedSizeEstimator::plain(7).unwrap();
        let db1 = db(200, 1);
        est1.run(&db1, 50).unwrap();
        let q1 = est1.queries_spent();

        let mut est2 = UnbiasedSizeEstimator::plain(7).unwrap();
        let db2 = db(200, 20);
        est2.run(&db2, 50).unwrap();
        let q2 = est2.queries_spent();
        assert!(q2 < q1, "k=20 spent {q2}, k=1 spent {q1}");
    }

    #[test]
    fn history_tracks_passes() {
        let db = db(50, 2);
        let mut est = UnbiasedSizeEstimator::plain(3).unwrap();
        est.run(&db, 10).unwrap();
        assert_eq!(est.history().len(), 10);
        assert_eq!(est.summary().unwrap().passes, 10);
        let mean = est.history().iter().sum::<f64>() / 10.0;
        assert!((est.estimate().unwrap() - mean).abs() < 1e-12);
    }
}

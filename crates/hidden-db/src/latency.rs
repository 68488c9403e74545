//! [`LatencyBackend`]: a wrapper that simulates the round-trip latency of
//! a remote hidden-web API.
//!
//! The paper's cost model counts *queries* because real sites meter them
//! (Yahoo! Auto: 1,000 queries per IP per day) — but a real client also
//! pays wall-clock time per round trip, which is what makes the parallel
//! estimation engine worth having even on a single core: while one worker
//! waits on the network, the others keep drilling. Wrapping any
//! [`SearchBackend`] in a `LatencyBackend` makes that cost dimension
//! visible in experiments without touching estimator code.
//!
//! Every *issued* query pays the latency, through the
//! [`SearchBackend::round_trip`] hook the interface layer calls before
//! its server-side hot-response memo — a cached answer still crosses the
//! network, so exactly one round trip is charged per query the client
//! issues. Only the owner-side ground truth (`exact_count` / `exact_sum`)
//! stays instant, because scoring an experiment is not a round trip.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::backend::{Classified, Evaluation, SearchBackend, WalkState};
use crate::error::Result;
use crate::obs::{precise_wait, MetricsSnapshot};
use crate::query::{Predicate, Query};
use crate::ranking::RankingFunction;
use crate::schema::{AttrId, Schema};

/// Simulates a fixed per-query round-trip latency in front of any
/// backend. Results are bit-identical to the wrapped backend's — only
/// time changes.
///
/// ```
/// use std::time::Duration;
/// use hdb_interface::{HiddenDb, LatencyBackend, Query, Schema, Table, TableBackend,
///                     TopKInterface, Tuple};
///
/// let table = Table::new(
///     Schema::boolean(2),
///     vec![Tuple::new(vec![0, 1]), Tuple::new(vec![1, 1])],
/// ).unwrap();
/// let remote = LatencyBackend::new(TableBackend::new(table), Duration::from_millis(1));
/// let db = HiddenDb::over(remote, 1);
///
/// let out = db.query(&Query::all().and(0, 0).unwrap()).unwrap();
/// assert!(out.is_valid());
/// // exactly one round trip per issued query, and its wait is accounted
/// assert_eq!(db.backend().round_trips(), db.queries_issued());
/// assert_eq!(db.backend().simulated_wait(), Duration::from_millis(1));
/// ```
#[derive(Debug)]
pub struct LatencyBackend<B> {
    inner: B,
    latency: Duration,
    round_trips: AtomicU64,
}

impl<B: SearchBackend> LatencyBackend<B> {
    /// Wraps `inner`, sleeping `latency` on every issued query.
    #[must_use]
    pub fn new(inner: B, latency: Duration) -> Self {
        Self { inner, latency, round_trips: AtomicU64::new(0) }
    }

    /// The simulated per-query round-trip latency.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// Queries that paid the simulated round trip so far (one per issued
    /// query when driven through [`HiddenDb`](crate::HiddenDb)).
    #[must_use]
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Total wall-clock time spent simulating round trips
    /// (`round_trips × latency`).
    #[must_use]
    pub fn simulated_wait(&self) -> Duration {
        self.latency.saturating_mul(u32::try_from(self.round_trips()).unwrap_or(u32::MAX))
    }

    /// The wrapped backend.
    #[must_use]
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps, discarding the latency simulation.
    #[must_use]
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: SearchBackend> SearchBackend for LatencyBackend<B> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        self.inner.evaluate(q, k, ranking)
    }

    fn round_trip(&self) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        if !self.latency.is_zero() {
            precise_wait(self.latency);
        }
        // Nested wrappers (e.g. latency in front of a remote shard
        // gateway that itself simulates a hop) each charge their own leg.
        self.inner.round_trip();
    }

    fn fill_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.counters.insert("hdb_latency_round_trips_total".into(), self.round_trips());
        self.inner.fill_metrics(snap);
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        self.inner.exact_count(q)
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        self.inner.exact_sum(attr, q)
    }

    // The incremental walk fast path is transparent: latency is charged
    // per issued query through `round_trip`, never per evaluation, so the
    // wrapper simply forwards the state machinery to the wrapped backend.

    fn walk_state(&self, q: &Query) -> WalkState {
        self.inner.walk_state(q)
    }

    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        recycled: WalkState,
    ) -> WalkState {
        self.inner.extend_state(parent, child, pred, recycled)
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        self.inner.classify_from(parent, child, pred, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TableBackend;
    use crate::interface::{HiddenDb, TopKInterface};
    use crate::ranking::RowIdRanking;
    use crate::table::Table;
    use crate::tuple::Tuple;

    fn backend() -> TableBackend {
        TableBackend::new(
            Table::new(
                Schema::boolean(3),
                vec![Tuple::new(vec![0, 0, 0]), Tuple::new(vec![1, 1, 1])],
            )
            .unwrap(),
        )
    }

    #[test]
    fn results_are_bit_identical_to_the_inner_backend() {
        let plain = backend();
        let remote = LatencyBackend::new(backend(), Duration::ZERO);
        for q in [Query::all(), Query::all().and(0, 1).unwrap()] {
            assert_eq!(
                plain.evaluate(&q, 1, &RowIdRanking).unwrap(),
                remote.evaluate(&q, 1, &RowIdRanking).unwrap()
            );
            assert_eq!(plain.exact_count(&q).unwrap(), remote.exact_count(&q).unwrap());
        }
    }

    #[test]
    fn every_issued_query_pays_exactly_one_round_trip() {
        let db = HiddenDb::over(LatencyBackend::new(backend(), Duration::ZERO), 1);
        let q = Query::all(); // overflows (2 matches, k = 1)
        db.query(&q).unwrap();
        db.query(&q).unwrap(); // hot-memo candidate — the hop is still paid
        db.query(&Query::all().and(0, 0).unwrap()).unwrap();
        assert_eq!(db.queries_issued(), 3);
        assert_eq!(db.backend().round_trips(), 3);
        // rejected queries never reach the server
        assert!(db.query(&Query::all().and(9, 0).unwrap()).is_err());
        assert_eq!(db.backend().round_trips(), 3);
    }

    #[test]
    fn ground_truth_pays_no_round_trip() {
        let remote = LatencyBackend::new(backend(), Duration::from_secs(3600));
        assert_eq!(remote.exact_count(&Query::all()).unwrap(), 2);
        assert_eq!(remote.len(), 2);
        assert_eq!(remote.round_trips(), 0);
        assert_eq!(remote.simulated_wait(), Duration::ZERO);
    }

    #[test]
    fn wait_accounting_multiplies() {
        let remote = LatencyBackend::new(backend(), Duration::from_millis(2));
        remote.round_trip();
        remote.round_trip();
        assert_eq!(remote.round_trips(), 2);
        assert_eq!(remote.simulated_wait(), Duration::from_millis(4));
        assert_eq!(remote.latency(), Duration::from_millis(2));
        let _ = remote.into_inner();
    }

    #[test]
    fn round_trips_reach_the_metrics_snapshot() {
        let remote = LatencyBackend::new(backend(), Duration::ZERO);
        remote.round_trip();
        remote.round_trip();
        let mut snap = MetricsSnapshot::default();
        remote.fill_metrics(&mut snap);
        assert_eq!(snap.counters["hdb_latency_round_trips_total"], 2);
    }

    #[test]
    fn nested_wrappers_charge_each_leg() {
        let remote =
            LatencyBackend::new(LatencyBackend::new(backend(), Duration::ZERO), Duration::ZERO);
        remote.round_trip();
        assert_eq!(remote.round_trips(), 1);
        assert_eq!(remote.inner().round_trips(), 1);
    }
}

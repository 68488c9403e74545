//! The restrictive top-k web interface (paper §2.1): the *only* channel
//! through which estimators may observe the hidden database.
//!
//! Semantics, with `k` the interface constant and `Sel(q)` the matching
//! tuples:
//! * `|Sel(q)| == 0`  → **underflow** (empty result),
//! * `1 ≤ |Sel(q)| ≤ k` → **valid**: *all* matching tuples are returned,
//! * `|Sel(q)| > k`  → **overflow**: the top-`k` tuples under the ranking
//!   function are returned together with an overflow flag. The true count
//!   is *not* disclosed, and the client cannot page past `k`.
//!
//! [`HiddenDb`] implements these semantics over any physical
//! [`SearchBackend`] — a single in-memory table by default, a
//! hash-partitioned [`ShardedDb`](crate::ShardedDb), or a server across
//! a socket ([`RemoteBackend`](crate::RemoteBackend)). The *logical*
//! behaviour (outcome classification, query accounting, budgets, the
//! server-side hot memo) lives here and is identical for every backend:
//! a fresh query and a walk probe are charged, answered and tallied by
//! one routine.

use std::sync::Arc;

use crate::backend::{EvalMode, SearchBackend, TableBackend, WalkState};
use crate::cache::ShardedMemo;
use crate::counter::{OutcomeKind, QueryCounter};
use crate::error::Result;
use crate::obs::{Counter, Gauge, MetricsRegistry, MetricsSnapshot, TraceRing};
use crate::query::{Predicate, Query};
use crate::ranking::{RankingFunction, RowIdRanking};
use crate::schema::Schema;
use crate::session::{ClassifiedOutcome, SessionMode, WalkSession};
use crate::table::Table;
use crate::tuple::{Tuple, TupleId};

/// Whether a query is expensive enough for the server-side hot memo: an
/// overflow whose match count far exceeds `k` (those few shallow tree
/// nodes dominate top-k selection CPU).
fn expensive_response(count: usize, k: usize) -> bool {
    count > k.saturating_mul(8)
}

/// The interface layer's observability handles, resolved once at
/// construction so the hot path records through pre-bound atomics.
/// Recording happens strictly after outcomes are computed, which is what
/// keeps instrumentation bit-invisible (the obs-on/off equivalence
/// proptest pins it).
pub(crate) struct DbObs {
    /// The registry every handle below resolves from; `HiddenDb::metrics`
    /// snapshots it.
    pub(crate) registry: MetricsRegistry,
    /// Hot-memo hits on an entry that holds a page (a fresh query served
    /// without re-evaluation, or a walk probe without an AND-count).
    pub(crate) memo_response_hits: Counter,
    /// Walk-probe hot-memo hits on an entry without a page (no fresh
    /// query has paid for one yet).
    pub(crate) memo_count_hits: Counter,
    /// Answered walk-session probes (one that fails after its charge is
    /// tallied as errored, not counted here).
    pub(crate) walk_probes: Counter,
    /// Walk-session branch commitments.
    pub(crate) walk_extends: Counter,
    /// Walk-session retreats toward the root.
    pub(crate) walk_retracts: Counter,
    /// High-water mark of the walk scratch arena: retired levels, at most
    /// one per depth, each held for a re-commit or for its buffers.
    pub(crate) walk_scratch_high: Gauge,
    /// Span recorder for queries and walk probes — disabled unless
    /// [`HiddenDb::with_trace`] installs a ring.
    pub(crate) trace: TraceRing,
}

impl DbObs {
    fn over(registry: MetricsRegistry) -> Self {
        Self {
            memo_response_hits: registry.counter("hdb_memo_response_hits_total"),
            memo_count_hits: registry.counter("hdb_memo_count_hits_total"),
            walk_probes: registry.counter("hdb_walk_probes_total"),
            walk_extends: registry.counter("hdb_walk_extends_total"),
            walk_retracts: registry.counter("hdb_walk_retracts_total"),
            walk_scratch_high: registry.gauge("hdb_walk_scratch_high_water"),
            trace: TraceRing::disabled(),
            registry,
        }
    }
}

/// The accounting class of an outcome.
fn outcome_kind(outcome: &QueryOutcome) -> OutcomeKind {
    match outcome {
        QueryOutcome::Underflow => OutcomeKind::Underflow,
        QueryOutcome::Valid(_) => OutcomeKind::Valid,
        QueryOutcome::Overflow(_) => OutcomeKind::Overflow,
    }
}

/// A tuple as seen through the interface: the listing id (real sites
/// expose one — a VIN, an item number) plus the attribute values.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReturnedTuple {
    /// Stable identifier of the listing; capture–recapture relies on it.
    pub id: TupleId,
    /// Attribute values in schema order.
    pub tuple: Tuple,
}

/// Result of issuing one query through the interface.
///
/// Result pages are shared (`Arc`), so cloning an outcome — which the
/// hot memo does on every hit — bumps a reference count instead of
/// deep-cloning the top-k tuple vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// No tuple matches.
    Underflow,
    /// All matching tuples (`1 ≤ len ≤ k`).
    Valid(Arc<Vec<ReturnedTuple>>),
    /// The `k` top-ranked matching tuples; more exist but are hidden.
    Overflow(Arc<Vec<ReturnedTuple>>),
}

impl QueryOutcome {
    /// Whether the query underflowed.
    #[must_use]
    pub fn is_underflow(&self) -> bool {
        matches!(self, Self::Underflow)
    }

    /// Whether the query was valid (neither underflow nor overflow).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        matches!(self, Self::Valid(_))
    }

    /// Whether the query overflowed.
    #[must_use]
    pub fn is_overflow(&self) -> bool {
        matches!(self, Self::Overflow(_))
    }

    /// Whether the query returned at least one tuple (valid or overflow) —
    /// "non-empty" in the paper's backtracking discussion.
    #[must_use]
    pub fn is_nonempty(&self) -> bool {
        !self.is_underflow()
    }

    /// The returned tuples (empty for underflow).
    #[must_use]
    pub fn tuples(&self) -> &[ReturnedTuple] {
        match self {
            Self::Underflow => &[],
            Self::Valid(t) | Self::Overflow(t) => t,
        }
    }

    /// Number of returned tuples `|q| = min(k, |Sel(q)|)`.
    #[must_use]
    pub fn returned_count(&self) -> usize {
        self.tuples().len()
    }
}

/// The client-facing interface trait. Estimators are generic over it, so
/// they run identically against the in-process simulator, a caching
/// wrapper, or (in principle) a live HTTP adapter.
pub trait TopKInterface {
    /// The public schema of the search form (attribute names and their
    /// drop-down values). Real forms disclose exactly this.
    fn schema(&self) -> &Schema;

    /// The interface constant `k`.
    fn k(&self) -> usize;

    /// Issues a conjunctive query.
    ///
    /// # Errors
    /// Returns [`crate::HdbError::InvalidQuery`] for malformed queries and
    /// [`crate::HdbError::BudgetExhausted`] once the query budget is spent.
    fn query(&self, q: &Query) -> Result<QueryOutcome>;

    /// Total queries charged so far.
    fn queries_issued(&self) -> u64;

    /// Remaining query budget, if this interface meters one (`None` means
    /// unmetered). The parallel estimation engine consults this to keep
    /// the completed-pass set of budget-cut runs deterministic: a metered
    /// interface has its passes claimed in canonical index order.
    fn budget_remaining(&self) -> Option<u64> {
        None
    }

    /// Opens a drill-down [`WalkSession`] rooted at `root`.
    ///
    /// The default implementation issues every child probe as an
    /// independent fresh [`TopKInterface::query`] — correct for any
    /// interface, with no fast path. [`HiddenDb`] overrides it with an
    /// incremental session that reuses the parent node's materialised
    /// match set, while keeping budgets, query accounting, and outcomes
    /// exactly as if each query were issued fresh.
    ///
    /// # Errors
    /// Returns [`crate::HdbError::InvalidQuery`] if `root` does not
    /// validate against the schema (nothing is charged).
    fn walk_session(&self, root: Query) -> Result<WalkSession<'_>>
    where
        Self: Sized,
    {
        WalkSession::fresh(self, root)
    }
}

/// The in-process hidden database: a [`SearchBackend`] behind a
/// [`TopKInterface`].
///
/// `HiddenDb` is `Sync` whenever its backend is: query accounting is
/// atomic and the hot memo is sharded-locked, so a single
/// instance can serve every worker of the parallel estimation engine.
///
/// The default backend is a single bitmap-indexed [`Table`]
/// ([`TableBackend`]); [`HiddenDb::over`] accepts any other substrate:
///
/// ```
/// use hdb_interface::{HiddenDb, Query, Schema, ShardedDb, Table, TopKInterface, Tuple};
///
/// let table = Table::new(
///     Schema::boolean(3),
///     vec![Tuple::new(vec![0, 0, 1]), Tuple::new(vec![1, 0, 1])],
/// ).unwrap();
/// let db = HiddenDb::over(ShardedDb::new(&table, 2), 1);
/// assert!(db.query(&Query::all()).unwrap().is_overflow());
/// ```
pub struct HiddenDb<B: SearchBackend = TableBackend> {
    pub(crate) backend: B,
    pub(crate) ranking: Arc<dyn RankingFunction>,
    pub(crate) k: usize,
    pub(crate) counter: QueryCounter,
    /// Server-side memo of *expensive* queries (overflows whose match
    /// count far exceeds `k`): the few shallow tree nodes every
    /// drill-down revisits. An entry means "overflow", so a walk probe
    /// that finds one skips its AND-count; it holds the ranked page once
    /// a fresh query has paid for one, so a fresh query that finds a page
    /// skips its top-k selection. Fresh queries and walk probes share
    /// it, whichever saw a node first. Purely an implementation detail of
    /// the simulated server — every query is still charged to the
    /// counter.
    pub(crate) hot_memo: ShardedMemo<Option<Arc<Vec<ReturnedTuple>>>>,
    /// How [`HiddenDb::walk_session`] evaluates drill-down probes
    /// (incremental count-only by default; see [`SessionMode`]).
    pub(crate) session: SessionMode,
    /// Pre-resolved metric handles and the (opt-in) span ring. Enabled by
    /// default; [`HiddenDb::with_metrics_disabled`] swaps in no-op
    /// handles. Either way, results are bit-identical.
    pub(crate) obs: DbObs,
}

impl HiddenDb<TableBackend> {
    /// Wraps `table` behind a top-`k` interface with the default
    /// (row-id) ranking and no query budget.
    ///
    /// # Panics
    /// Panics if `k == 0` — a form that can return nothing is not a
    /// database interface.
    ///
    /// ```
    /// use hdb_interface::{HiddenDb, Query, Schema, Table, TopKInterface, Tuple};
    ///
    /// let table = Table::new(
    ///     Schema::boolean(2),
    ///     vec![Tuple::new(vec![0, 0]), Tuple::new(vec![0, 1]), Tuple::new(vec![1, 1])],
    /// ).unwrap();
    /// let db = HiddenDb::new(table, 2);
    ///
    /// // Three matches against k = 2 → overflow.
    /// assert!(db.query(&Query::all()).unwrap().is_overflow());
    /// // Narrow enough → valid, all matches returned.
    /// let q = Query::all().and(0, 0).unwrap();
    /// assert_eq!(db.query(&q).unwrap().returned_count(), 2);
    /// assert_eq!(db.queries_issued(), 2);
    /// ```
    #[must_use]
    pub fn new(table: Table, k: usize) -> Self {
        Self::over(TableBackend::new(table), k)
    }

    /// Selects the query-evaluation path (bitmap by default).
    #[must_use]
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.backend.set_eval_mode(mode);
        self
    }

    /// The query-evaluation path in use.
    #[must_use]
    pub fn eval_mode(&self) -> EvalMode {
        self.backend.eval_mode()
    }

    /// Owner-side access to the underlying table (ground truth for
    /// experiments; never used by estimators).
    #[must_use]
    pub fn table(&self) -> &Table {
        self.backend.table()
    }
}

impl<B: SearchBackend> HiddenDb<B> {
    /// Wraps an arbitrary [`SearchBackend`] behind a top-`k` interface
    /// with the default (row-id) ranking and no query budget.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn over(backend: B, k: usize) -> Self {
        assert!(k > 0, "top-k interface requires k >= 1");
        Self {
            backend,
            ranking: Arc::new(RowIdRanking),
            k,
            counter: QueryCounter::unlimited(),
            hot_memo: ShardedMemo::new(),
            session: SessionMode::default(),
            obs: DbObs::over(MetricsRegistry::new()),
        }
    }

    /// Selects how [`HiddenDb::walk_session`] evaluates drill-down probes
    /// (incremental count-only by default). Both modes produce
    /// bit-identical outcomes, query counts, and estimates; the fresh mode
    /// exists as the reference point for the equivalence tests and the
    /// `scale03_incremental_walk` benchmark.
    #[must_use]
    pub fn with_session_mode(mut self, mode: SessionMode) -> Self {
        self.session = mode;
        self
    }

    /// The walk-session evaluation mode in use.
    #[must_use]
    pub fn session_mode(&self) -> SessionMode {
        self.session
    }

    /// Replaces the ranking function.
    #[must_use]
    pub fn with_ranking(mut self, ranking: Arc<dyn RankingFunction>) -> Self {
        self.ranking = ranking;
        self
    }

    /// Imposes a hard query budget (per-user/IP limit simulation).
    #[must_use]
    pub fn with_budget(mut self, limit: u64) -> Self {
        self.counter = QueryCounter::limited(limit);
        self
    }

    /// Strips the observability layer: every metric handle becomes a
    /// no-op and [`HiddenDb::metrics`] reports only the query-cost
    /// ledger. Outcomes are bit-identical either way (pinned by the
    /// obs-on/off equivalence proptest); the `scale08_observability`
    /// bench measures the difference in µs/probe.
    #[must_use]
    pub fn with_metrics_disabled(mut self) -> Self {
        self.obs = DbObs::over(MetricsRegistry::disabled());
        self
    }

    /// Installs a span [`TraceRing`] holding at most `capacity` events
    /// (tracing is off by default — a ring push takes a mutex). Spans
    /// cover issued queries and walk probes; timestamps are 0 (no clock),
    /// so traces are deterministic.
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.obs.trace = TraceRing::new(capacity);
        self
    }

    /// The installed span ring (disabled unless [`HiddenDb::with_trace`]
    /// was called).
    #[must_use]
    pub fn trace(&self) -> &TraceRing {
        &self.obs.trace
    }

    /// An ordered snapshot of every metric this interface and its
    /// backend stack expose: the query-cost ledger (always present, read
    /// from the [`QueryCounter`] — `hdb_queries_issued_total` equals the
    /// sum of the four outcome tallies), the interface-layer series
    /// (memo hits, walk counters), and whatever the backend contributes
    /// through [`SearchBackend::fill_metrics`].
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.obs.registry.snapshot();
        self.counter.publish(&mut snap);
        self.backend.fill_metrics(&mut snap);
        snap
    }

    /// The physical backend (owner-side; estimators never see it).
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The query counter (for harnesses that need outcome tallies or
    /// resets between trials).
    #[must_use]
    pub fn counter(&self) -> &QueryCounter {
        &self.counter
    }

    /// Distinct expensive queries held by the server-side hot memo, one
    /// per query whichever path (fresh query or walk probe) saw it first
    /// (owner-side diagnostic; the memo itself is unobservable through
    /// the interface — it only saves server CPU).
    #[must_use]
    pub fn memoised_counts(&self) -> usize {
        self.hot_memo.len()
    }

    /// Charges one issued query and answers it — the one path fresh
    /// queries and walk probes share: charge, span, `answer`, then tally
    /// the outcome class. A failure after the charge (transport,
    /// server-side rejection) still cost the budget — the request went out
    /// on the wire, so the site metered it — and is tallied as errored, so
    /// the ledger keeps partitioning `issued` exactly.
    fn charged<T>(
        &self,
        span: &'static str,
        answer: impl FnOnce() -> Result<T>,
        kind: fn(&T) -> OutcomeKind,
    ) -> Result<T> {
        self.counter.charge()?;
        let id = self.obs.trace.open(span, 0, 0);
        let answered = answer();
        self.counter.record_outcome(answered.as_ref().map_or(OutcomeKind::Errored, kind));
        self.obs.trace.close(id, span, 0);
        answered
    }

    /// A fresh query's answer: the memoised page of an expensive query
    /// once a fresh query has paid for one, else a full evaluation.
    fn respond(&self, q: &Query) -> Result<QueryOutcome> {
        if let Some(Some(page)) = self.hot_memo.get(q) {
            self.obs.memo_response_hits.inc();
            return Ok(QueryOutcome::Overflow(page));
        }
        let eval = self.backend.evaluate(q, self.k, self.ranking.as_ref())?;
        let expensive = expensive_response(eval.count, self.k);
        let outcome = eval.into_outcome(self.k);
        if let (true, QueryOutcome::Overflow(page)) = (expensive, &outcome) {
            self.hot_memo.insert(q.clone(), Some(Arc::clone(page)));
        }
        Ok(outcome)
    }

    /// Charges and answers one walk probe: `child`, one predicate `pred`
    /// below the node whose backend state is `parent`.
    pub(crate) fn walk_probe(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
    ) -> Result<ClassifiedOutcome> {
        let out = self.charged(
            "walk_probe",
            || self.respond_walk(parent, child, pred),
            ClassifiedOutcome::kind,
        )?;
        self.obs.walk_probes.inc();
        Ok(out)
    }

    /// A walk probe's answer: overflow on any hot-memo entry, else one
    /// count-only AND pass, which materialises a page only when valid
    /// (≤ k tuples, ranking-independent). An expensive miss leaves an
    /// entry without a page; one a fresh query stored is kept.
    fn respond_walk(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
    ) -> Result<ClassifiedOutcome> {
        if let Some(page) = self.hot_memo.get(child) {
            match page {
                Some(_) => self.obs.memo_response_hits.inc(),
                None => self.obs.memo_count_hits.inc(),
            }
            return Ok(ClassifiedOutcome::Overflow);
        }
        let c = self.backend.classify_from(parent, child, pred, self.k)?;
        if expensive_response(c.count, self.k) {
            self.hot_memo.insert_if_absent(child.clone(), None);
        }
        Ok(if c.count == 0 {
            ClassifiedOutcome::Underflow
        } else if c.count <= self.k {
            ClassifiedOutcome::Valid(Arc::new(c.page))
        } else {
            ClassifiedOutcome::Overflow
        })
    }
}

impl<B: SearchBackend> TopKInterface for HiddenDb<B> {
    fn schema(&self) -> &Schema {
        self.backend.schema()
    }

    fn k(&self) -> usize {
        self.k
    }

    fn query(&self, q: &Query) -> Result<QueryOutcome> {
        q.validate(self.backend.schema())?;
        self.charged("query", || self.respond(q), outcome_kind)
    }

    fn queries_issued(&self) -> u64 {
        self.counter.issued()
    }

    fn budget_remaining(&self) -> Option<u64> {
        self.counter.remaining()
    }

    fn walk_session(&self, root: Query) -> Result<WalkSession<'_>> {
        WalkSession::for_db(self, root)
    }
}

impl<T: TopKInterface> TopKInterface for &T {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }

    fn k(&self) -> usize {
        (**self).k()
    }

    fn query(&self, q: &Query) -> Result<QueryOutcome> {
        (**self).query(q)
    }

    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }

    fn budget_remaining(&self) -> Option<u64> {
        (**self).budget_remaining()
    }

    fn walk_session(&self, root: Query) -> Result<WalkSession<'_>> {
        (**self).walk_session(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};

    /// The paper's running example (Table 1).
    pub(crate) fn running_example() -> Table {
        let schema = Schema::new(vec![
            Attribute::boolean("A1"),
            Attribute::boolean("A2"),
            Attribute::boolean("A3"),
            Attribute::boolean("A4"),
            Attribute::categorical("A5", ["1", "2", "3", "4", "5"]).unwrap(),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Tuple::new(vec![0, 0, 0, 0, 0]),
                Tuple::new(vec![0, 0, 0, 1, 0]),
                Tuple::new(vec![0, 0, 1, 0, 0]),
                Tuple::new(vec![0, 1, 1, 1, 0]),
                Tuple::new(vec![1, 1, 1, 0, 2]),
                Tuple::new(vec![1, 1, 1, 1, 0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn outcome_classification_matches_paper_model() {
        let db = HiddenDb::new(running_example(), 1);
        // root overflows (6 tuples, k = 1)
        assert!(db.query(&Query::all()).unwrap().is_overflow());
        // A1=1&A2=0 underflows (q2 in Figure 1)
        let q2 = Query::all().and(0, 1).unwrap().and(1, 0).unwrap();
        assert!(db.query(&q2).unwrap().is_underflow());
        // A1=1&A2=1&A3=1&A4=0 is valid and returns exactly t5
        let q = Query::all()
            .and(0, 1)
            .unwrap()
            .and(1, 1)
            .unwrap()
            .and(2, 1)
            .unwrap()
            .and(3, 0)
            .unwrap();
        let out = db.query(&q).unwrap();
        assert!(out.is_valid());
        assert_eq!(out.returned_count(), 1);
        assert_eq!(out.tuples()[0].id, 4);
    }

    #[test]
    fn valid_returns_all_matches_overflow_exactly_k() {
        let db = HiddenDb::new(running_example(), 3);
        // A1=0 matches t1..t4 → overflow, 3 returned
        let q = Query::all().and(0, 0).unwrap();
        let out = db.query(&q).unwrap();
        assert!(out.is_overflow());
        assert_eq!(out.returned_count(), 3);
        // A1=1 matches t5,t6 → valid, both returned
        let q = Query::all().and(0, 1).unwrap();
        let out = db.query(&q).unwrap();
        assert!(out.is_valid());
        assert_eq!(out.returned_count(), 2);
    }

    #[test]
    fn returned_count_is_min_k_sel() {
        let db = HiddenDb::new(running_example(), 100);
        let out = db.query(&Query::all()).unwrap();
        assert!(out.is_valid());
        assert_eq!(out.returned_count(), 6);
    }

    #[test]
    fn query_counting_and_budget() {
        let db = HiddenDb::new(running_example(), 1).with_budget(2);
        assert_eq!(db.queries_issued(), 0);
        assert_eq!(db.budget_remaining(), Some(2));
        db.query(&Query::all()).unwrap();
        db.query(&Query::all()).unwrap();
        assert!(db.query(&Query::all()).is_err());
        assert_eq!(db.queries_issued(), 2);
        assert_eq!(db.budget_remaining(), Some(0));
        // unmetered interfaces report no budget
        assert_eq!(HiddenDb::new(running_example(), 1).budget_remaining(), None);
    }

    #[test]
    fn invalid_queries_rejected_without_charge() {
        let db = HiddenDb::new(running_example(), 1);
        let bad = Query::all().and(9, 0).unwrap();
        assert!(db.query(&bad).is_err());
        assert_eq!(db.queries_issued(), 0);
    }

    #[test]
    fn overflow_respects_ranking() {
        use crate::ranking::AttributeRanking;
        // rank by A5 value ascending; with k=1 and query ⊤ the single
        // returned tuple must be one of the A5=1 rows (lowest), tie-broken
        // by row id → t1.
        let db = HiddenDb::new(running_example(), 1)
            .with_ranking(Arc::new(AttributeRanking { attr: 4, descending: false }));
        let out = db.query(&Query::all()).unwrap();
        assert_eq!(out.tuples()[0].id, 0);
        // descending → the A5=3 row, t5 (id 4)
        let db = HiddenDb::new(running_example(), 1)
            .with_ranking(Arc::new(AttributeRanking { attr: 4, descending: true }));
        let out = db.query(&Query::all()).unwrap();
        assert_eq!(out.tuples()[0].id, 4);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        let _ = HiddenDb::new(running_example(), 0);
    }

    #[test]
    fn interface_types_are_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HiddenDb>();
        assert_send_sync::<HiddenDb<crate::ShardedDb>>();
        assert_send_sync::<crate::counter::QueryCounter>();
        assert_send_sync::<Table>();
    }

    #[test]
    fn scan_and_bitmap_modes_answer_identically() {
        let bitmap = HiddenDb::new(running_example(), 2);
        let scan = HiddenDb::new(running_example(), 2).with_eval_mode(EvalMode::Scan);
        assert_eq!(scan.eval_mode(), EvalMode::Scan);
        let mut queries = vec![Query::all()];
        for attr in 0..5 {
            for v in 0..bitmap.schema().fanout(attr) {
                queries.push(Query::all().and(attr, v as u16).unwrap());
            }
        }
        queries.push(Query::all().and(0, 0).unwrap().and(2, 1).unwrap());
        for q in &queries {
            assert_eq!(bitmap.query(q).unwrap(), scan.query(q).unwrap(), "query {q:?}");
        }
    }

    /// Pins the query-cost accounting contract: exactly one counter
    /// increment per issued query, with the outcome tallied in exactly
    /// one bucket — underflow and overflow included.
    #[test]
    fn one_counter_increment_per_issued_query() {
        let db = HiddenDb::new(running_example(), 1);
        // overflow (6 matches, k=1)
        db.query(&Query::all()).unwrap();
        assert_eq!(db.queries_issued(), 1);
        assert_eq!(db.counter().overflow_count(), 1);
        // underflow (A1=1 ∧ A2=0 matches nothing)
        let q_under = Query::all().and(0, 1).unwrap().and(1, 0).unwrap();
        db.query(&q_under).unwrap();
        assert_eq!(db.queries_issued(), 2);
        assert_eq!(db.counter().underflow_count(), 1);
        // valid (exactly t5)
        let q_valid = Query::all()
            .and(0, 1)
            .unwrap()
            .and(1, 1)
            .unwrap()
            .and(2, 1)
            .unwrap()
            .and(3, 0)
            .unwrap();
        db.query(&q_valid).unwrap();
        assert_eq!(db.queries_issued(), 3);
        assert_eq!(db.counter().valid_count(), 1);
        // a repeat served from the server-side hot memo is still charged:
        // the client issued it, so the site meters it
        db.query(&Query::all()).unwrap();
        assert_eq!(db.queries_issued(), 4);
        assert_eq!(db.counter().overflow_count(), 2);
        // the tallies partition the issued count exactly
        let c = db.counter();
        assert_eq!(
            c.underflow_count() + c.valid_count() + c.overflow_count() + c.errored_count(),
            db.queries_issued()
        );
        // rejected queries are never counted anywhere
        assert!(db.query(&Query::all().and(9, 0).unwrap()).is_err());
        assert_eq!(db.queries_issued(), 4);
    }

    #[test]
    fn backend_accessor_exposes_ground_truth() {
        use crate::backend::SearchBackend as _;
        let db = HiddenDb::new(running_example(), 1);
        assert_eq!(db.backend().len(), 6);
        assert_eq!(db.table().len(), 6);
        let sharded = HiddenDb::over(crate::ShardedDb::new(&running_example(), 3), 1);
        assert_eq!(sharded.backend().len(), 6);
    }
}

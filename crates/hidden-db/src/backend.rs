//! The [`SearchBackend`] abstraction: the *physical* evaluation substrate
//! behind the *logical* top-k interface.
//!
//! The paper's estimators only ever observe the interface contract of
//! §2.1 (issue a conjunctive query → underflow / valid / overflow with
//! top-k tuples). How `Sel(q)` is computed — one in-memory table, a
//! hash-partitioned cluster of shards, a server across a socket — is
//! invisible to them. This module captures exactly that split:
//!
//! * [`SearchBackend`] — what a physical substrate must answer: the
//!   schema, the corpus size, a classified top-k [`Evaluation`] of a
//!   query, and exact COUNT/SUM ground truth for scoring experiments;
//! * [`TableBackend`] — the default substrate, a single [`Table`] with a
//!   bitmap [`TableIndex`](crate::TableIndex) (and an optional
//!   linear-scan reference path, [`EvalMode::Scan`]);
//! * [`ShardedDb`](crate::ShardedDb) and
//!   [`RemoteBackend`](crate::RemoteBackend) (sibling modules) — the
//!   distributed and remote-API substrates.
//!
//! [`HiddenDb`](crate::HiddenDb) is generic over the backend; the query
//! accounting ([`QueryCounter`](crate::QueryCounter)) and budgets
//! therefore work unchanged over every substrate. Backends must agree
//! **bit for bit**: for the same logical corpus, every implementation
//! returns identical [`Evaluation`]s, which is what keeps estimator runs
//! reproducible when the substrate is swapped (pinned by the
//! backend-equivalence property tests).

use std::any::Any;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::bitmap::{AndOnesIter, Bitmap, OnesIter, SparseAndOnesIter, SparseBitmap};
use crate::error::{HdbError, Result};
use crate::index::Selection;
use crate::interface::{QueryOutcome, ReturnedTuple};
use crate::query::{Predicate, Query};
use crate::ranking::{RankingFunction, RowIdRanking};
use crate::schema::{AttrId, Schema};
use crate::table::Table;
use crate::tuple::{Tuple, TupleId};

/// How a [`TableBackend`] evaluates `Sel(q)` (paper-invisible: outcomes
/// are identical either way, only server CPU time differs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalMode {
    /// Intersect per-`(attribute, value)` posting bitmaps and popcount —
    /// the fast path, default.
    #[default]
    Bitmap,
    /// Filter the tuple vector per query — the naive reference path,
    /// kept selectable so benches and property tests can compare.
    Scan,
}

/// The classified result of evaluating one query against a backend.
///
/// Invariants (every [`SearchBackend`] must uphold them, the
/// backend-equivalence tests check them):
///
/// * `count` is exactly `|Sel(q)|`;
/// * if `count ≤ k`, `top` holds **all** matches in ascending global
///   tuple-id order;
/// * if `count > k`, `top` holds the `k` top-ranked matches in ascending
///   `(score, id)` order under the ranking function the caller passed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evaluation {
    /// `|Sel(q)|` — the true number of matching tuples.
    pub count: usize,
    /// The returned tuples (see the ordering invariants above).
    pub top: Vec<ReturnedTuple>,
}

impl Evaluation {
    /// Classifies this evaluation into the paper's three outcomes for an
    /// interface constant `k` (the same `k` the evaluation was computed
    /// with).
    #[must_use]
    pub fn into_outcome(self, k: usize) -> QueryOutcome {
        if self.count == 0 {
            QueryOutcome::Underflow
        } else if self.count <= k {
            QueryOutcome::Valid(Arc::new(self.top))
        } else {
            QueryOutcome::Overflow(Arc::new(self.top))
        }
    }
}

/// Opaque per-node incremental-evaluation state owned by a backend.
///
/// A drill-down walk session ([`WalkSession`](crate::WalkSession)) keeps
/// one `WalkState` per committed level: the backend's materialised match
/// set of that level's query, in whatever representation the backend
/// chooses (a dense or sparse match set for [`TableBackend`], one per
/// shard for [`ShardedDb`](crate::ShardedDb)). The payload is type-erased so the
/// session machinery stays backend-agnostic; a state with no payload
/// simply falls back to fresh [`SearchBackend::evaluate`] calls, which is
/// how backends without a fast path participate.
pub struct WalkState {
    payload: Option<Box<dyn Any + Send + Sync>>,
}

impl Default for WalkState {
    fn default() -> Self {
        Self::fallback()
    }
}

impl WalkState {
    /// A state with no incremental payload: every child evaluation falls
    /// back to a fresh [`SearchBackend::evaluate`].
    #[must_use]
    pub fn fallback() -> Self {
        Self { payload: None }
    }

    /// Wraps a backend-specific payload.
    #[must_use]
    pub fn with_payload<T: Any + Send + Sync>(payload: T) -> Self {
        Self { payload: Some(Box::new(payload)) }
    }

    /// Downcasts the payload, if present and of type `T`.
    #[must_use]
    pub fn payload<T: Any>(&self) -> Option<&T> {
        self.payload.as_deref().and_then(<dyn Any + Send + Sync>::downcast_ref)
    }

    /// Consumes the state, recovering the payload for buffer recycling.
    #[must_use]
    pub fn take_payload<T: Any>(self) -> Option<T> {
        self.payload.and_then(|p| p.downcast::<T>().ok()).map(|b| *b)
    }

    /// Turns a retired state into a new one whose payload is
    /// `build(old payload)`, keeping the payload's allocation when it holds
    /// a `T`; otherwise `build` starts from `T::default()`. This is how an
    /// extend reuses a recycled state without allocating.
    pub(crate) fn rebuild<T>(mut self, build: impl FnOnce(T) -> T) -> Self
    where
        T: Any + Send + Sync + Default,
    {
        match self.payload.as_deref_mut().and_then(<dyn Any + Send + Sync>::downcast_mut::<T>) {
            Some(slot) => {
                *slot = build(std::mem::take(slot));
                self
            }
            None => Self::with_payload(build(T::default())),
        }
    }
}

/// Result of the count-only fast path ([`SearchBackend::classify_from`]):
/// the exact match count, plus the full result page exactly when the
/// query is *valid* (`1 ≤ count ≤ k`, all matches in ascending global id
/// order — ranking-independent, so no ranking function is needed). For
/// underflow and overflow the page stays empty: skipping the top-k
/// selection of overflowing probes is the whole point of this path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classified {
    /// `|Sel(q)|` — the true number of matching tuples.
    pub count: usize,
    /// All matches (ascending id) iff `1 ≤ count ≤ k`; empty otherwise.
    pub page: Vec<ReturnedTuple>,
}

impl Classified {
    /// Derives the classification from a full [`Evaluation`] (the
    /// fallback used when no count-only kernel exists).
    #[must_use]
    pub fn from_evaluation(eval: Evaluation, k: usize) -> Self {
        let page = if eval.count <= k { eval.top } else { Vec::new() };
        Self { count: eval.count, page }
    }
}

/// A walk node is stored sparse when at most 1/`SPARSE_FILL` of its
/// bitmap's words are nonzero. Measured with `jobbench`'s `local_walk`
/// (500k rows × 40 Boolean attributes, k = 10, seed 41) on a 2-vCPU VM,
/// three alternated 20 s runs each: a divisor of 2, 8 and 32 gave
/// 117–132k, 157–181k and 138–162k probes/s. A looser rule also stores
/// mid-depth nodes sparse, where 16-byte pairs gathered against the
/// posting cost more than the dense scan they replace; a stricter one
/// leaves more deep nodes dense, scanning the whole table width.
const SPARSE_FILL: usize = 8;

/// Owned match-set of one walk node over a single bitmap-indexed table,
/// shared by [`TableBackend`] and the per-shard states of
/// [`ShardedDb`](crate::ShardedDb):
///
/// * `All` until the first predicate commits (the root query of a
///   whole-database walk constrains nothing — no bitmap materialised);
/// * `Bits`, a dense bitmap, while the node matches a sizeable share of
///   the table;
/// * `Sparse`, the node's nonzero words, once at most 1/[`SPARSE_FILL`]
///   of them are nonzero, so a deep probe costs its matches rather than
///   the table's width.
///
/// [`SelState::child`] alone picks the representation. Each non-`All`
/// state also keeps the other representation's buffer, so the session's
/// recycled states feed later extends of either kind without
/// allocating. Counts are exact and rows enumerate in ascending order in
/// both forms, so the choice never changes a result.
#[derive(Debug, Default)]
pub(crate) enum SelState {
    /// Every row of the table matches.
    #[default]
    All,
    /// Exactly the set bits match; the sparse buffer is kept for reuse.
    Bits(Bitmap, SparseBitmap),
    /// Exactly the set bits of the listed words match; the dense buffer
    /// is the scratch the next dense extend ANDs into.
    Sparse(SparseBitmap, Bitmap),
}

impl SelState {
    pub(crate) fn from_selection(sel: Selection<'_>) -> Self {
        match sel {
            Selection::All { .. } => Self::All,
            Selection::Posting(b) => Self::Bits(b.clone(), SparseBitmap::default()),
            Selection::Owned(b) => Self::Bits(b, SparseBitmap::default()),
        }
    }

    /// `|self ∩ posting|` in one pass, no materialisation.
    pub(crate) fn and_count(&self, posting: &Bitmap) -> usize {
        match self {
            Self::All => posting.count(),
            Self::Bits(b, _) => b.and_count(posting),
            Self::Sparse(s, _) => s.and_count(posting),
        }
    }

    /// Materialises `self ∩ posting` into `recycled`'s buffers (the
    /// walk-local scratch arena). The child is sparse when at most
    /// 1/[`SPARSE_FILL`] of its words are nonzero, and always once the
    /// parent is. A dense parent still costs one AND pass, which also
    /// counts the nonzero words; only then is the child compacted.
    pub(crate) fn child(&self, posting: &Bitmap, recycled: SelState) -> SelState {
        let (mut dense, mut sparse) = match recycled {
            Self::All => (Bitmap::zeros(0), SparseBitmap::default()),
            Self::Bits(d, s) | Self::Sparse(s, d) => (d, s),
        };
        let nonzero = match self {
            Self::All => dense.copy_from(posting),
            Self::Bits(b, _) => dense.assign_and(b, posting),
            Self::Sparse(s, _) => {
                s.and_into(posting, &mut sparse);
                return Self::Sparse(sparse, dense);
            }
        };
        if nonzero * SPARSE_FILL <= dense.word_count() {
            sparse.assign_from(&dense);
            Self::Sparse(sparse, dense)
        } else {
            Self::Bits(dense, sparse)
        }
    }

    /// Iterator over the row ids of `self ∩ posting`, ascending.
    pub(crate) fn iter_and<'a>(&'a self, posting: &'a Bitmap) -> SelStateOnes<'a> {
        match self {
            Self::All => SelStateOnes::Posting(posting.iter_ones()),
            Self::Bits(b, _) => SelStateOnes::And(b.iter_and_ones(posting)),
            Self::Sparse(s, _) => SelStateOnes::Sparse(s.iter_and_ones(posting)),
        }
    }
}

/// Iterator over the matching rows of a [`SelState`] ∩ posting pair.
pub(crate) enum SelStateOnes<'a> {
    Posting(OnesIter<'a>),
    And(AndOnesIter<'a>),
    Sparse(SparseAndOnesIter<'a>),
}

impl Iterator for SelStateOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Self::Posting(it) => it.next(),
            Self::And(it) => it.next(),
            Self::Sparse(it) => it.next(),
        }
    }
}

/// A physical evaluation substrate behind a top-k interface.
///
/// Implementations answer queries over some corpus of tuples with stable
/// **global** tuple ids (capture–recapture and the determinism guarantees
/// rely on ids being substrate-independent). The trait also carries the
/// owner-side exact aggregates so experiment harnesses can score
/// estimators against ground truth without assuming an in-memory table.
///
/// All methods take `&self` and implementations must be `Sync`: a single
/// backend instance serves every worker of the parallel estimation
/// engine.
///
/// Query-answering methods return a [`Result`] because a backend may live
/// on the other side of a network ([`RemoteBackend`](crate::RemoteBackend)):
/// a dropped connection or a malformed wire frame surfaces as
/// [`HdbError::Transport`] instead of a panic. In-process substrates never
/// fail and always return `Ok`.
///
/// ## The incremental fast path
///
/// Drill-down estimators issue chains of queries where each child extends
/// its parent by exactly one predicate. The `walk_state` /
/// `extend_state` / `classify_from` family lets a backend exploit that:
/// the session keeps the parent's materialised match set and a child
/// costs one AND pass instead of a from-scratch evaluation. The default
/// implementations fall back to [`SearchBackend::evaluate`], so the fast
/// path is strictly optional — and every implementation, fast or
/// fallback, must return results **bit-identical** to `evaluate` on the
/// equivalent child query (pinned by the incremental-equivalence property
/// tests).
pub trait SearchBackend: Send + Sync {
    /// The public schema of the search form.
    fn schema(&self) -> &Schema;

    /// Total number of tuples `m` — the quantity the paper's estimators
    /// target (owner-side ground truth).
    fn len(&self) -> usize;

    /// Whether the corpus is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates `q` (already validated against the schema): the exact
    /// match count plus the top-`k` tuples under `ranking`, with the
    /// ordering invariants documented on [`Evaluation`].
    ///
    /// # Errors
    /// [`HdbError::Transport`] if a networked substrate fails to answer.
    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation>;

    /// Never called: nothing in the workspace charges a round trip any
    /// more. Kept as a provided no-op only because the job benchmark's
    /// tracing wrapper (`jobbench/src/probe.rs`) overrides it; the two
    /// go together.
    fn round_trip(&self) {}

    /// Contributes this substrate's metric series into `snap` — the
    /// telemetry leg of [`HiddenDb::metrics`](crate::HiddenDb::metrics)
    /// and of the server's `Stats` response. Wrappers add their own
    /// series and forward to the wrapped backend. Purely additive
    /// observation: implementations must not mutate substrate state, and
    /// the default contributes nothing.
    fn fill_metrics(&self, snap: &mut crate::obs::MetricsSnapshot) {
        let _ = snap;
    }

    /// Exact `COUNT(*) WHERE q` (owner-side ground truth; never reachable
    /// through the client interface).
    ///
    /// # Errors
    /// [`HdbError::Transport`] if a networked substrate fails to answer.
    fn exact_count(&self, q: &Query) -> Result<usize>;

    /// Exact `SUM(attr) WHERE q` using the attribute's numeric
    /// interpretation, summed in ascending global tuple-id order (so
    /// every backend produces the same floating-point result).
    ///
    /// # Errors
    /// Returns [`HdbError::InvalidQuery`] if `attr` has no numeric
    /// interpretation or is out of range.
    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64>;

    /// Materialises incremental walk state for the (already validated)
    /// query `q` — the root of a drill-down session. The default has no
    /// fast path: every child evaluation falls back to
    /// [`SearchBackend::evaluate`].
    fn walk_state(&self, q: &Query) -> WalkState {
        let _ = q;
        WalkState::fallback()
    }

    /// Extends `parent`'s state by one predicate, producing the state of
    /// `child` (`child` = parent's query ∧ `pred`). `recycled` is a
    /// retired state whose buffers may be reused (the session's scratch
    /// arena); implementations are free to ignore it.
    ///
    /// A session may skip the call: it keeps at most one retired state
    /// per depth, and when that state was built from the same parent
    /// state with the same predicate, it re-commits it as is. So a state
    /// must keep answering for its node after it is retired, at least
    /// until a newer state is built at its depth.
    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        recycled: WalkState,
    ) -> WalkState {
        let _ = (parent, pred, recycled);
        self.walk_state(child)
    }

    /// Evaluates `child` (= parent's query ∧ `pred`) with full top-k
    /// materialisation. Nothing in the workspace calls it and no backend
    /// here overrides it: it stays, falling back to
    /// [`SearchBackend::evaluate`], only because the job benchmark's
    /// timing wrapper still overrides it.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if a networked substrate fails to answer.
    fn evaluate_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<Evaluation> {
        let _ = (parent, pred);
        self.evaluate(child, k, ranking)
    }

    /// Count-only evaluation of `child` (= parent's query ∧ `pred`): the
    /// exact match count, plus the full page only when the query is valid
    /// (`1 ≤ count ≤ k`, ascending id order — ranking-independent). This
    /// is the fast path for drill-down probes, which mostly need
    /// underflow/valid/overflow and never look at an overflow page.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if a networked substrate fails to answer.
    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let _ = (parent, pred);
        Ok(Classified::from_evaluation(self.evaluate(child, k, &RowIdRanking)?, k))
    }
}

/// Shared backends: an `Arc<B>` answers exactly like its pointee, so one
/// physical substrate (e.g. a single pooled [`RemoteBackend`](crate::RemoteBackend)
/// client) can sit behind several [`HiddenDb`](crate::HiddenDb) instances
/// at once.
impl<B: SearchBackend + ?Sized> SearchBackend for Arc<B> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        (**self).evaluate(q, k, ranking)
    }

    fn fill_metrics(&self, snap: &mut crate::obs::MetricsSnapshot) {
        (**self).fill_metrics(snap);
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        (**self).exact_count(q)
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        (**self).exact_sum(attr, q)
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        (**self).walk_state(q)
    }

    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        recycled: WalkState,
    ) -> WalkState {
        (**self).extend_state(parent, child, pred, recycled)
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        (**self).classify_from(parent, child, pred, k)
    }
}

/// A totally ordered wrapper over finite ranking scores (ties broken by
/// the accompanying tuple id in the selection key).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ScoreKey(pub(crate) f64);

impl Eq for ScoreKey {}

impl PartialOrd for ScoreKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoreKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A top-k selection candidate: ordered by `(score, id)` only — the
/// borrowed tuple rides along for materialisation.
struct Candidate<'a> {
    key: (ScoreKey, TupleId),
    tuple: &'a Tuple,
}

impl PartialEq for Candidate<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Candidate<'_> {}
impl PartialOrd for Candidate<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Shared tuple-selection kernel for backends: given the `count` matches
/// of a query as an ascending-id iterator of `(global id, tuple)` pairs,
/// returns the `top` vector per the [`Evaluation`] invariants.
///
/// When `count > k` this runs the bounded max-heap top-k selection —
/// O(N log k) over the N matching rows instead of sorting all of them;
/// overflowing queries near the drill-down root can match hundreds of
/// thousands of rows, so this is the simulator's hottest path.
pub(crate) fn select_candidates<'a>(
    matches: impl Iterator<Item = (TupleId, &'a Tuple)>,
    count: usize,
    k: usize,
    schema: &Schema,
    ranking: &dyn RankingFunction,
) -> Vec<ReturnedTuple> {
    if count <= k {
        return matches
            .map(|(id, tuple)| ReturnedTuple { id, tuple: tuple.clone() })
            .collect();
    }
    let mut heap: BinaryHeap<Candidate<'a>> = BinaryHeap::with_capacity(k + 1);
    for (id, tuple) in matches {
        let cand =
            Candidate { key: (ScoreKey(ranking.score(schema, id, tuple)), id), tuple };
        if heap.len() < k {
            heap.push(cand);
        } else if cand.key < heap.peek().expect("heap non-empty at capacity").key {
            heap.pop();
            heap.push(cand);
        }
    }
    let mut top = heap.into_sorted_vec();
    top.truncate(k);
    top.into_iter()
        .map(|c| ReturnedTuple { id: c.key.1, tuple: c.tuple.clone() })
        .collect()
}

/// The default physical substrate: one in-memory [`Table`] answered
/// through its cached bitmap index (or, for reference comparisons, a
/// linear scan).
///
/// Global tuple ids are the table's row indices, so a `TableBackend` over
/// table `T` and a [`ShardedDb`](crate::ShardedDb) over the same `T`
/// return bit-identical evaluations.
#[derive(Debug)]
pub struct TableBackend {
    table: Table,
    mode: EvalMode,
}

impl TableBackend {
    /// Wraps a table with the default (bitmap) evaluation path.
    ///
    /// The bitmap index builds lazily on the first bitmap-mode query
    /// (`OnceLock` serialises concurrent first callers to one build);
    /// scan-mode instances never pay for it.
    #[must_use]
    pub fn new(table: Table) -> Self {
        Self { table, mode: EvalMode::Bitmap }
    }

    /// Selects the query-evaluation path (bitmap by default).
    #[must_use]
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Mutably selects the query-evaluation path (used by
    /// [`HiddenDb::with_eval_mode`](crate::HiddenDb::with_eval_mode)).
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
    }

    /// The query-evaluation path in use.
    #[must_use]
    pub fn eval_mode(&self) -> EvalMode {
        self.mode
    }

    /// The underlying table (owner-side ground truth; never used by
    /// estimators).
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Mutable access to the underlying table — the persistent backend's
    /// ingest path. An append keeps the table's index built, growing
    /// every posting by one bit, but a walk state built before the write
    /// holds bitmaps one row short of those postings and must not meet
    /// them: the persistent wrapper enforces this with a generation tag.
    pub(crate) fn table_mut(&mut self) -> &mut Table {
        &mut self.table
    }
}

impl SearchBackend for TableBackend {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        let schema = self.table.schema();
        Ok(match self.mode {
            EvalMode::Bitmap => {
                let sel = self.table.index().selection(q);
                let count = sel.count();
                let matches = sel
                    .iter_ones()
                    .map(|row| (row as TupleId, self.table.tuple(row as TupleId)));
                Evaluation { count, top: select_candidates(matches, count, k, schema, ranking) }
            }
            EvalMode::Scan => {
                let ids: Vec<(TupleId, &Tuple)> = self
                    .table
                    .tuples()
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| q.matches(t))
                    .map(|(row, t)| (row as TupleId, t))
                    .collect();
                let count = ids.len();
                Evaluation {
                    count,
                    top: select_candidates(ids.into_iter(), count, k, schema, ranking),
                }
            }
        })
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        Ok(self.table.exact_count(q))
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        self.table.exact_sum(attr, q)
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        if self.mode != EvalMode::Bitmap {
            // Scan mode is the reference path; keep it a pure per-query
            // scan rather than silently switching it to bitmaps.
            return WalkState::fallback();
        }
        WalkState::with_payload(SelState::from_selection(self.table.index().selection(q)))
    }

    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        recycled: WalkState,
    ) -> WalkState {
        let Some(sel) = parent.payload::<SelState>() else {
            return self.walk_state(child);
        };
        let posting = self.table.index().posting(pred.attr, pred.value as usize);
        recycled.rebuild(|spare: SelState| sel.child(posting, spare))
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let Some(sel) = parent.payload::<SelState>() else {
            return Ok(Classified::from_evaluation(self.evaluate(child, k, &RowIdRanking)?, k));
        };
        let posting = self.table.index().posting(pred.attr, pred.value as usize);
        let count = sel.and_count(posting);
        let page = if (1..=k).contains(&count) {
            sel.iter_and(posting)
                .map(|row| ReturnedTuple {
                    id: row as TupleId,
                    tuple: self.table.tuple(row as TupleId).clone(),
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(Classified { count, page })
    }
}

/// Validates that `attr` exists in `schema` and carries a numeric
/// interpretation — the shared precondition of every backend's
/// `exact_sum`.
pub(crate) fn checked_numeric(schema: &Schema, attr: AttrId) -> Result<&crate::schema::Attribute> {
    if attr >= schema.len() {
        return Err(HdbError::InvalidQuery(format!("attribute id {attr} out of range")));
    }
    let a = schema.attribute(attr);
    if !a.is_numeric() {
        return Err(HdbError::InvalidQuery(format!(
            "attribute `{}` has no numeric interpretation",
            a.name()
        )));
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{AttributeRanking, RowIdRanking};
    use crate::schema::Attribute;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::categorical("c", ["x", "y", "z"])
                .unwrap()
                .with_numeric(vec![10.0, 20.0, 30.0])
                .unwrap(),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Tuple::new(vec![0, 0]),
                Tuple::new(vec![0, 2]),
                Tuple::new(vec![1, 1]),
                Tuple::new(vec![1, 2]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn evaluation_classifies_by_count() {
        let empty = Evaluation { count: 0, top: vec![] };
        assert_eq!(empty.into_outcome(3), QueryOutcome::Underflow);
        let t = ReturnedTuple { id: 0, tuple: Tuple::new(vec![0, 0]) };
        let valid = Evaluation { count: 1, top: vec![t.clone()] };
        assert!(valid.into_outcome(3).is_valid());
        let overflow = Evaluation { count: 9, top: vec![t] };
        assert!(overflow.into_outcome(3).is_overflow());
    }

    #[test]
    fn bitmap_and_scan_modes_evaluate_identically() {
        let bitmap = TableBackend::new(table());
        let scan = TableBackend::new(table()).with_eval_mode(EvalMode::Scan);
        assert_eq!(scan.eval_mode(), EvalMode::Scan);
        for q in [
            Query::all(),
            Query::all().and(0, 1).unwrap(),
            Query::all().and(0, 0).unwrap().and(1, 2).unwrap(),
            Query::all().and(1, 1).unwrap(),
        ] {
            for k in [1usize, 2, 10] {
                assert_eq!(
                    bitmap.evaluate(&q, k, &RowIdRanking).unwrap(),
                    scan.evaluate(&q, k, &RowIdRanking).unwrap(),
                    "query {q:?}, k {k}"
                );
            }
        }
    }

    #[test]
    fn valid_evaluations_list_all_matches_in_id_order() {
        let b = TableBackend::new(table());
        let eval = b.evaluate(&Query::all(), 10, &RowIdRanking).unwrap();
        assert_eq!(eval.count, 4);
        let ids: Vec<TupleId> = eval.top.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn overflow_evaluations_respect_the_ranking() {
        let b = TableBackend::new(table());
        // rank by the numeric value of attribute 1 descending: ids 1 and 3
        // hold value z=30; tie broken by id
        let ranking = AttributeRanking { attr: 1, descending: true };
        let eval = b.evaluate(&Query::all(), 2, &ranking).unwrap();
        assert_eq!(eval.count, 4);
        let ids: Vec<TupleId> = eval.top.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn incremental_walk_state_matches_fresh_evaluation() {
        let b = TableBackend::new(table());
        let root = Query::all();
        let state = b.walk_state(&root);
        for attr in 0..2usize {
            for v in 0..b.schema().fanout(attr) {
                let pred = Predicate::new(attr, v as u16);
                let child = root.and(attr, v as u16).unwrap();
                for k in [1usize, 2, 10] {
                    let fresh = b.evaluate(&child, k, &RowIdRanking).unwrap();
                    let classified = b.classify_from(&state, &child, pred, k).unwrap();
                    assert_eq!(classified.count, fresh.count);
                    if (1..=k).contains(&fresh.count) {
                        assert_eq!(classified.page, fresh.top);
                    } else {
                        assert!(classified.page.is_empty());
                    }
                }
                // a second-level extension keeps agreeing
                let child_state = b.extend_state(&state, &child, pred, WalkState::fallback());
                for v2 in 0..b.schema().fanout(1 - attr) {
                    let pred2 = Predicate::new(1 - attr, v2 as u16);
                    let gchild = child.and(1 - attr, v2 as u16).unwrap();
                    let fresh = b.evaluate(&gchild, 2, &RowIdRanking).unwrap();
                    assert_eq!(
                        b.classify_from(&child_state, &gchild, pred2, 2).unwrap(),
                        Classified::from_evaluation(fresh, 2)
                    );
                }
            }
        }
    }

    #[test]
    fn scan_mode_walk_state_falls_back() {
        let b = TableBackend::new(table()).with_eval_mode(EvalMode::Scan);
        let state = b.walk_state(&Query::all());
        assert!(state.payload::<SelState>().is_none());
        // fallback still answers correctly
        let pred = Predicate::new(0, 1);
        let child = Query::all().and(0, 1).unwrap();
        assert_eq!(
            b.classify_from(&state, &child, pred, 2).unwrap(),
            Classified::from_evaluation(b.evaluate(&child, 2, &RowIdRanking).unwrap(), 2)
        );
    }

    /// A bitmap over `len` bits, each set with probability `density`.
    fn random_bitmap(len: usize, density: f64, rng: &mut StdRng) -> Bitmap {
        let mut b = Bitmap::zeros(len);
        for i in 0..len {
            if rng.random_bool(density) {
                b.set(i);
            }
        }
        b
    }

    fn dense_state(b: &Bitmap) -> SelState {
        SelState::Bits(b.clone(), SparseBitmap::default())
    }

    fn sparse_state(b: &Bitmap) -> SelState {
        let mut s = SparseBitmap::default();
        s.assign_from(b);
        SelState::Sparse(s, Bitmap::zeros(0))
    }

    /// The rows of a state over `len` bits, ascending.
    fn rows(s: &SelState, len: usize) -> Vec<usize> {
        s.iter_and(&Bitmap::ones(len)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The sparse and dense forms of a walk node agree on the
        /// AND-count, the ascending row sequence and the child's row set,
        /// at every length and density, whatever buffers the recycled
        /// state brings; and the child takes the form the crossover rule
        /// names.
        #[test]
        fn sparse_and_dense_states_agree(seed in any::<u64>(), recycle_kind in 0usize..3) {
            let mut rng = StdRng::seed_from_u64(seed);
            let densities = [0.0, 0.0005, 0.005, 0.03, 0.2, 0.6, 1.0];
            for len in [0usize, 1, 63, 64, 65, 5_000] {
                for &pd in &densities {
                    for &qd in &densities {
                        let parent = random_bitmap(len, pd, &mut rng);
                        let posting = random_bitmap(len, qd, &mut rng);
                        let mut both = parent.clone();
                        both.and_with(&posting);
                        let want: Vec<usize> = both.iter_ones().collect();
                        let mut nonzero_words: Vec<usize> = want.iter().map(|r| r / 64).collect();
                        nonzero_words.dedup();
                        let words = both.word_count();
                        for (form, state) in
                            [("dense", dense_state(&parent)), ("sparse", sparse_state(&parent))]
                        {
                            let ctx = format!("{form} parent, len {len}, densities {pd}/{qd}");
                            prop_assert_eq!(state.and_count(&posting), want.len(), "{}", ctx);
                            let got: Vec<usize> = state.iter_and(&posting).collect();
                            prop_assert_eq!(got, want.clone(), "{}", ctx);
                            // recycled buffers of another length and form must not leak
                            let junk = random_bitmap(5_000 - len, 0.3, &mut rng);
                            let recycled = match recycle_kind {
                                0 => SelState::All,
                                1 => dense_state(&junk),
                                _ => sparse_state(&junk),
                            };
                            let child = state.child(&posting, recycled);
                            prop_assert_eq!(rows(&child, len), want.clone(), "{}", ctx);
                            let sparse_child = matches!(state, SelState::Sparse(..))
                                || nonzero_words.len() * SPARSE_FILL <= words;
                            let is_sparse = matches!(child, SelState::Sparse(..));
                            prop_assert_eq!(is_sparse, sparse_child, "{}", ctx);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn child_form_flips_exactly_at_the_crossover() {
        // 4,096 rows = 64 words: a child with 8 nonzero words (1/8) is
        // sparse, one with 9 is dense, and an empty child is sparse.
        let len = 4_096;
        let parent = Bitmap::ones(len);
        for (nonzero, sparse) in [(0usize, true), (1, true), (8, true), (9, false), (64, false)] {
            let mut posting = Bitmap::zeros(len);
            for w in 0..nonzero {
                posting.set(w * 64 + 7);
            }
            for state in [SelState::All, dense_state(&parent), sparse_state(&parent)] {
                let was_sparse = matches!(state, SelState::Sparse(..));
                let child = state.child(&posting, SelState::All);
                assert_eq!(
                    matches!(child, SelState::Sparse(..)),
                    sparse || was_sparse,
                    "{nonzero} nonzero words"
                );
                assert_eq!(child.and_count(&parent), nonzero);
                assert_eq!(rows(&child, len), posting.iter_ones().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn walk_state_payload_roundtrip_and_recycling() {
        let s = WalkState::with_payload(42u64);
        assert_eq!(s.payload::<u64>(), Some(&42));
        assert_eq!(s.payload::<u32>(), None);
        assert_eq!(s.take_payload::<u64>(), Some(42));
        assert_eq!(WalkState::fallback().take_payload::<u64>(), None);
        assert!(WalkState::default().payload::<u64>().is_none());
    }

    #[test]
    fn ground_truth_aggregates_delegate_to_the_table() {
        let b = TableBackend::new(table());
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert_eq!(b.exact_count(&Query::all().and(0, 1).unwrap()).unwrap(), 2);
        assert_eq!(b.exact_sum(1, &Query::all()).unwrap(), 10.0 + 30.0 + 20.0 + 30.0);
        assert!(b.exact_sum(9, &Query::all()).is_err());
    }
}

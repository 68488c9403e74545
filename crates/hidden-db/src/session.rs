//! Incremental drill-down evaluation: [`WalkSession`].
//!
//! The paper's estimators spend essentially all of their query budget on
//! *drill-down chains* — sequences of conjunctive queries where each
//! child extends its parent by exactly one predicate, and where all the
//! fanout branches of one attribute extend the **same** parent. A fresh
//! [`TopKInterface::query`] re-intersects every posting bitmap of the
//! query from scratch; a `WalkSession` instead keeps the parent node's
//! materialised match set in a walk-local scratch arena (the state
//! stack), so that
//!
//! * probing a branch costs **one AND-count pass** over the parent set
//!   ([`WalkSession::classify`], no bitmap and no top-k materialised),
//! * committing to a branch ([`WalkSession::extend`]) costs one fused
//!   copy-AND pass into a recycled buffer, or nothing when the branch is
//!   the level just retracted at that depth, and
//! * backtracking ([`WalkSession::retract`]) is free.
//!
//! The arena keeps the levels `retract` retires, at most one per depth.
//! An `extend` re-commits that level as is when it was built from the
//! current parent level with the same predicate, and otherwise builds
//! its level with [`SearchBackend::extend_state`] in the retired level's
//! buffers. Re-commits are common: the divide-&-conquer estimator
//! recurses below a walk's terminal along the path that walk just
//! retracted, and sibling walks share a prefix.
//!
//! `classify` is the session's only probe: a drill-down reads just a
//! branch's outcome class plus a valid node's tuples, so no overflow
//! page is ever ranked.
//!
//! **The session changes only server CPU time, never observable
//! behaviour.** Every probe is validated here, then charged to the
//! [`QueryCounter`](crate::QueryCounter), looked up in the server-side
//! hot memo and tallied by the same `HiddenDb` routine an independently
//! issued query goes through —
//! budgets, accounting tallies, outcomes, and therefore whole estimator
//! runs are **bit-identical** to the fresh path (pinned by the
//! incremental-equivalence property tests). [`SessionMode`] keeps the
//! fresh path selectable as a reference.

use std::sync::Arc;

use crate::backend::{SearchBackend, WalkState};
use crate::counter::OutcomeKind;
use crate::error::Result;
use crate::interface::{HiddenDb, QueryOutcome, ReturnedTuple, TopKInterface};
use crate::query::{Predicate, Query};
use crate::schema::{AttrId, Schema, ValueId};

/// How [`HiddenDb::walk_session`] evaluates drill-down probes. Both
/// modes are observationally identical (outcomes, query counts,
/// estimates); they differ only in server CPU cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SessionMode {
    /// Incremental evaluation with count-only probes (the default and
    /// fastest path): a probe is one AND-count over the parent's match
    /// set; overflow pages are never materialised.
    #[default]
    Incremental,
    /// Every probe is an independent fresh query — the pre-session
    /// reference path.
    Fresh,
}

/// The count-only classification of a probed branch.
///
/// This is [`QueryOutcome`] minus the overflow page: drill-down walks
/// only ever inspect an overflow outcome's *class*, so the top-k
/// selection behind its page is wasted work the session skips. Valid
/// outcomes still carry their full page (all matches, ascending id) —
/// that is what a top-valid terminal measures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClassifiedOutcome {
    /// No tuple matches.
    Underflow,
    /// All matching tuples (`1 ≤ len ≤ k`).
    Valid(Arc<Vec<ReturnedTuple>>),
    /// More than `k` tuples match; the page was not materialised.
    Overflow,
}

impl ClassifiedOutcome {
    /// Whether the probe underflowed.
    #[must_use]
    pub fn is_underflow(&self) -> bool {
        matches!(self, Self::Underflow)
    }

    /// Whether the probe was valid.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        matches!(self, Self::Valid(_))
    }

    /// Whether the probe overflowed.
    #[must_use]
    pub fn is_overflow(&self) -> bool {
        matches!(self, Self::Overflow)
    }

    /// Whether the probe returned at least one tuple.
    #[must_use]
    pub fn is_nonempty(&self) -> bool {
        !self.is_underflow()
    }

    /// The returned tuples (non-empty only for valid probes).
    #[must_use]
    pub fn tuples(&self) -> &[ReturnedTuple] {
        match self {
            Self::Valid(t) => t,
            _ => &[],
        }
    }

    /// Derives the classification from a full outcome, sharing the valid
    /// page.
    #[must_use]
    pub fn from_outcome(outcome: QueryOutcome) -> Self {
        match outcome {
            QueryOutcome::Underflow => Self::Underflow,
            QueryOutcome::Valid(t) => Self::Valid(t),
            QueryOutcome::Overflow(_) => Self::Overflow,
        }
    }

    pub(crate) fn kind(&self) -> OutcomeKind {
        match self {
            Self::Underflow => OutcomeKind::Underflow,
            Self::Valid(_) => OutcomeKind::Valid,
            Self::Overflow => OutcomeKind::Overflow,
        }
    }
}

/// An incremental drill-down session over one interface (see the module
/// docs). Obtain one from [`TopKInterface::walk_session`]; the walk
/// drives it with [`WalkSession::classify`] (charged like a fresh
/// query) and [`WalkSession::extend`] /
/// [`WalkSession::retract`] (free — the client merely narrows or widens
/// what it asks next, exactly like `Query::and` on the fresh path).
///
/// ```
/// use hdb_interface::{HiddenDb, Query, Schema, Table, TopKInterface, Tuple};
///
/// let table = Table::new(
///     Schema::boolean(3),
///     vec![
///         Tuple::new(vec![0, 0, 1]),
///         Tuple::new(vec![0, 1, 1]),
///         Tuple::new(vec![1, 1, 0]),
///     ],
/// ).unwrap();
/// let db = HiddenDb::new(table, 1);
///
/// let mut walk = db.walk_session(Query::all()).unwrap();
/// assert!(walk.classify(0, 0).unwrap().is_overflow()); // two matches, k = 1
/// walk.extend(0, 0);                                   // commit, no query issued
/// let leaf = walk.classify(1, 1).unwrap();             // one AND over the parent set
/// assert_eq!(leaf.tuples()[0].id, 1);
/// walk.retract();                                      // back to the root, free
/// assert_eq!(db.queries_issued(), 2);                  // probes charged, moves not
/// ```
pub struct WalkSession<'a> {
    schema: &'a Schema,
    k: usize,
    /// Committed node queries, root first; the last entry is the current
    /// node.
    stack: Vec<Query>,
    core: Box<dyn SessionCore + 'a>,
}

impl<'a> WalkSession<'a> {
    /// A session that issues every probe as an independent fresh query
    /// against `iface` (the universal fallback behind the default
    /// [`TopKInterface::walk_session`]).
    pub(crate) fn fresh(iface: &'a dyn TopKInterface, root: Query) -> Result<Self> {
        root.validate(iface.schema())?;
        Ok(Self {
            schema: iface.schema(),
            k: iface.k(),
            stack: vec![root],
            core: Box::new(FreshCore { iface }),
        })
    }

    /// The incremental session over a [`HiddenDb`], honouring its
    /// configured [`SessionMode`].
    pub(crate) fn for_db<B: SearchBackend>(db: &'a HiddenDb<B>, root: Query) -> Result<Self> {
        if db.session == SessionMode::Fresh {
            return Self::fresh(db, root);
        }
        root.validate(db.backend.schema())?;
        let state = db.backend.walk_state(&root);
        Ok(Self {
            schema: db.backend.schema(),
            k: db.k,
            stack: vec![root],
            core: Box::new(DbCore {
                db,
                levels: vec![Level { state, id: 0, built_from: None }],
                spare: Vec::new(),
                last_id: 0,
            }),
        })
    }

    /// The public schema of the interface.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    /// The interface constant `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The current node's query.
    #[must_use]
    pub fn query(&self) -> &Query {
        self.stack.last().expect("session stack holds at least the root")
    }

    /// Levels committed below the session root.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len() - 1
    }

    /// Issues the child query `current ∧ attr=value` count-only: the
    /// outcome class, with the full page materialised only when valid.
    /// Observationally identical to [`TopKInterface::query`] on that
    /// query minus the overflow page, including the charge.
    ///
    /// # Errors
    /// [`crate::HdbError::InvalidQuery`] for invalid predicates (not
    /// charged), [`crate::HdbError::BudgetExhausted`] once the budget is
    /// spent.
    pub fn classify(&mut self, attr: AttrId, value: ValueId) -> Result<ClassifiedOutcome> {
        // Validated exactly as a fresh issue of the child query would be,
        // so invalid probes error *without* being charged.
        let child = self.query().and(attr, value)?;
        child.validate(self.schema)?;
        self.core.classify(&child, Predicate::new(attr, value))
    }

    /// Commits the walk to the branch `attr = value`. No query is issued
    /// — on the fresh path this is `Query::and`; here it also advances
    /// the backend's incremental state by one AND pass, or by none when
    /// the branch is the level [`WalkSession::retract`] last retired at
    /// this depth, which is re-committed as is (see the module docs).
    ///
    /// # Panics
    /// Panics if `attr` is already constrained at the current node (walk
    /// logic bug, exactly like the fresh path's `expect`).
    pub fn extend(&mut self, attr: AttrId, value: ValueId) {
        let child = self
            .query()
            .and(attr, value)
            .expect("walk committed to an attribute already constrained at this node");
        debug_assert!((value as usize) < self.schema.fanout(attr), "value out of domain");
        self.core.extend(&child, Predicate::new(attr, value));
        self.stack.push(child);
    }

    /// Pops the most recently committed level (free, like dropping a
    /// predicate on the fresh path).
    ///
    /// # Panics
    /// Panics when the session is already at its root.
    pub fn retract(&mut self) {
        assert!(self.stack.len() > 1, "cannot retract past the session root");
        self.stack.pop();
        self.core.retract();
    }
}

/// The engine behind a [`WalkSession`]: how probes are answered and how
/// node state moves. Object-safe so the session type stays free of the
/// backend type parameter.
trait SessionCore {
    fn classify(&mut self, child: &Query, pred: Predicate) -> Result<ClassifiedOutcome>;
    fn extend(&mut self, child: &Query, pred: Predicate);
    fn retract(&mut self);
}

/// Fresh-query engine: every probe goes through `iface.query`, moves are
/// no-ops (the wrapper's query stack is the only state).
struct FreshCore<'a> {
    iface: &'a dyn TopKInterface,
}

impl SessionCore for FreshCore<'_> {
    fn classify(&mut self, child: &Query, _pred: Predicate) -> Result<ClassifiedOutcome> {
        Ok(ClassifiedOutcome::from_outcome(self.iface.query(child)?))
    }

    fn extend(&mut self, _child: &Query, _pred: Predicate) {}

    fn retract(&mut self) {}
}

/// Incremental engine over a [`HiddenDb`]: a probe goes through the
/// database's one charge routine, answered by the backend's
/// `classify_from` fast path over the parent level stack. The `spare`
/// list holds retired levels — the walk-local scratch arena. The stack
/// discipline keeps its top the level last retracted at the depth the
/// next `extend` builds.
struct DbCore<'a, B: SearchBackend> {
    db: &'a HiddenDb<B>,
    levels: Vec<Level>,
    spare: Vec<Level>,
    /// The id of the level built last; the root's is 0.
    last_id: u64,
}

/// One level of a [`DbCore`]'s stack: a backend state, with what it was
/// built from.
struct Level {
    state: WalkState,
    /// Unique among the levels of one session.
    id: u64,
    /// The parent level's id and the predicate this level was built
    /// with; `None` for the root.
    built_from: Option<(u64, Predicate)>,
}

impl<B: SearchBackend> DbCore<'_, B> {
    fn parent(&self) -> &Level {
        self.levels.last().expect("level stack holds at least the root")
    }
}

impl<B: SearchBackend> SessionCore for DbCore<'_, B> {
    fn classify(&mut self, child: &Query, pred: Predicate) -> Result<ClassifiedOutcome> {
        self.db.walk_probe(&self.parent().state, child, pred)
    }

    /// Re-commits the retired level at this depth when it is exactly the
    /// child asked for (same parent level, same predicate); otherwise
    /// builds the child with `extend_state`, recycling that level's
    /// buffers. Consuming the retired level either way keeps at most one
    /// per depth, which is what lets a remote state, bound to a server
    /// level that only a newer node at its depth can overwrite, answer
    /// again.
    fn extend(&mut self, child: &Query, pred: Predicate) {
        let built_from = Some((self.parent().id, pred));
        let level = match self.spare.pop() {
            Some(retired) if retired.built_from == built_from => retired,
            retired => {
                let recycled = retired.map_or_else(WalkState::default, |l| l.state);
                let parent = &self.parent().state;
                let state = self.db.backend.extend_state(parent, child, pred, recycled);
                self.last_id += 1;
                Level { state, id: self.last_id, built_from }
            }
        };
        self.levels.push(level);
        self.db.obs.walk_extends.inc();
    }

    fn retract(&mut self) {
        let retired = self.levels.pop().expect("retract below session root");
        self.spare.push(retired);
        self.db.obs.walk_retracts.inc();
        self.db.obs.walk_scratch_high.record_max(self.spare.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::backend::{Classified, EvalMode, Evaluation, TableBackend};
    use crate::ranking::RankingFunction;
    use crate::schema::Attribute;
    use crate::table::Table;
    use crate::tuple::Tuple;

    /// The paper's running example (Table 1).
    fn running_example() -> Table {
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

    /// Drives the same probe script through a session and through fresh
    /// queries on an identical twin database, asserting lockstep
    /// equality of outcomes and accounting.
    fn assert_session_matches_fresh(mode: SessionMode, k: usize) {
        let session_db = HiddenDb::new(running_example(), k).with_session_mode(mode);
        let fresh_db = HiddenDb::new(running_example(), k);
        let mut walk = session_db.walk_session(Query::all()).unwrap();

        // Script: fan over A1, commit A1=0, fan over A3, commit A3=1,
        // probe A2 branches, retract, fan over A4.
        let script: &[(usize, u16, bool)] = &[
            (0, 0, false),
            (0, 1, false),
            (0, 0, true), // extend after probing
            (2, 0, false),
            (2, 1, true),
            (1, 0, false),
            (1, 1, false),
        ];
        let mut current = Query::all();
        for &(attr, value, commit) in script {
            let got = walk.classify(attr, value).unwrap();
            let want = fresh_db.query(&current.and(attr, value).unwrap()).unwrap();
            assert_eq!(got.is_underflow(), want.is_underflow(), "{attr}={value}");
            assert_eq!(got.is_valid(), want.is_valid(), "{attr}={value}");
            assert_eq!(got.is_overflow(), want.is_overflow(), "{attr}={value}");
            if want.is_valid() {
                assert_eq!(got.tuples(), want.tuples(), "{attr}={value}");
            }
            if commit {
                walk.extend(attr, value);
                current = current.and(attr, value).unwrap();
            }
        }
        walk.retract();
        current = current.without(2);
        for v in 0..2u16 {
            let got = walk.classify(3, v).unwrap();
            let want = fresh_db.query(&current.and(3, v).unwrap()).unwrap();
            assert_eq!(got, ClassifiedOutcome::from_outcome(want), "probe A4={v} after retract");
        }
        // identical charging and tallies, probe for probe
        assert_eq!(session_db.queries_issued(), fresh_db.queries_issued());
        let (sc, fc) = (session_db.counter(), fresh_db.counter());
        assert_eq!(sc.underflow_count(), fc.underflow_count());
        assert_eq!(sc.valid_count(), fc.valid_count());
        assert_eq!(sc.overflow_count(), fc.overflow_count());
    }

    #[test]
    fn session_modes_match_fresh_queries() {
        for k in [1usize, 2, 4] {
            assert_session_matches_fresh(SessionMode::Incremental, k);
            assert_session_matches_fresh(SessionMode::Fresh, k);
        }
    }

    #[test]
    fn sharded_sessions_match_fresh() {
        use crate::sharded::ShardedDb;
        let table = running_example();
        for k in [1usize, 3] {
            let fresh = HiddenDb::new(table.clone(), k);
            let sharded = HiddenDb::over(ShardedDb::new(&table, 3), k);
            let two = HiddenDb::over(ShardedDb::new(&table, 2), k);
            let mut ws = sharded.walk_session(Query::all()).unwrap();
            let mut w2 = two.walk_session(Query::all()).unwrap();
            let mut probes = 0u64;
            for attr in 0..5usize {
                for v in 0..table.schema().fanout(attr) {
                    let want = ClassifiedOutcome::from_outcome(
                        fresh.query(&Query::all().and(attr, v as u16).unwrap()).unwrap(),
                    );
                    assert_eq!(ws.classify(attr, v as u16).unwrap(), want);
                    assert_eq!(w2.classify(attr, v as u16).unwrap(), want);
                    probes += 1;
                }
            }
            // exactly one charge per probe, whatever the shard count
            assert_eq!(sharded.queries_issued(), probes);
            assert_eq!(two.queries_issued(), probes);
        }
    }

    #[test]
    fn memo_hits_are_charged_and_identical() {
        // k=1 over the running example: the root's A1=0 branch holds 4
        // tuples (> 8·k? no — craft with k small and repeats instead).
        let db = HiddenDb::new(running_example(), 1);
        // issue A1=0 fresh first so the memo may hold it, then probe the
        // same query through a session: same outcome, still charged.
        let fresh_outcome = db.query(&Query::all().and(0, 0).unwrap()).unwrap();
        let before = db.queries_issued();
        let mut walk = db.walk_session(Query::all()).unwrap();
        let got = walk.classify(0, 0).unwrap();
        assert_eq!(got, ClassifiedOutcome::from_outcome(fresh_outcome));
        assert_eq!(db.queries_issued(), before + 1);
    }

    #[test]
    fn budget_exhaustion_mid_session_matches_fresh() {
        let session_db =
            HiddenDb::new(running_example(), 1).with_budget(2);
        let mut walk = session_db.walk_session(Query::all()).unwrap();
        walk.classify(0, 0).unwrap();
        walk.classify(0, 1).unwrap();
        let err = walk.classify(1, 0).unwrap_err();
        assert!(matches!(err, crate::HdbError::BudgetExhausted { limit: 2 }));
        assert_eq!(session_db.queries_issued(), 2);
    }

    #[test]
    fn invalid_probes_rejected_without_charge() {
        let db = HiddenDb::new(running_example(), 1);
        let mut walk = db.walk_session(Query::all()).unwrap();
        assert!(walk.classify(9, 0).is_err());
        assert!(walk.classify(4, 9).is_err());
        walk.extend(0, 0);
        assert!(walk.classify(0, 1).is_err(), "attr 0 already constrained");
        assert_eq!(db.queries_issued(), 0);
        // root validation also rejects without charging
        assert!(db.walk_session(Query::all().and(9, 0).unwrap()).is_err());
    }

    #[test]
    fn extend_and_retract_track_the_query() {
        let db = HiddenDb::new(running_example(), 2);
        let mut walk = db.walk_session(Query::all()).unwrap();
        assert_eq!(walk.depth(), 0);
        assert_eq!(walk.k(), 2);
        assert_eq!(walk.schema().len(), 5);
        walk.extend(0, 1);
        walk.extend(1, 1);
        assert_eq!(walk.depth(), 2);
        assert_eq!(walk.query().value_of(0), Some(1));
        assert_eq!(walk.query().value_of(1), Some(1));
        walk.retract();
        assert_eq!(walk.depth(), 1);
        assert_eq!(walk.query().value_of(1), None);
        // deep extend after recycling a retracted buffer still answers
        walk.extend(1, 1);
        assert!(walk.classify(2, 1).unwrap().is_nonempty());
    }

    /// A `TableBackend` that counts its `extend_state` calls; it forwards
    /// every method `TableBackend` implements.
    struct CountingExtends {
        inner: TableBackend,
        extends: AtomicUsize,
    }

    impl CountingExtends {
        fn extends(&self) -> usize {
            self.extends.load(Ordering::Relaxed)
        }
    }

    impl SearchBackend for CountingExtends {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }

        fn len(&self) -> usize {
            self.inner.len()
        }

        fn evaluate(
            &self,
            q: &Query,
            k: usize,
            ranking: &dyn RankingFunction,
        ) -> Result<Evaluation> {
            self.inner.evaluate(q, k, ranking)
        }

        fn exact_count(&self, q: &Query) -> Result<usize> {
            self.inner.exact_count(q)
        }

        fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
            self.inner.exact_sum(attr, q)
        }

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
            self.extends.fetch_add(1, Ordering::Relaxed);
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

    /// An `extend` re-commits the level last retracted at its depth only
    /// when that level was built from the current parent level with the
    /// same predicate; every other extend builds its level afresh.
    #[test]
    fn extend_recommits_only_the_level_just_retracted() {
        let k = 2;
        let backend = CountingExtends {
            inner: TableBackend::new(running_example()),
            extends: AtomicUsize::new(0),
        };
        let db = HiddenDb::over(backend, k);
        let fresh = HiddenDb::new(running_example(), k);
        let mut walk = db.walk_session(Query::all()).unwrap();
        // Every branch of the current node answers like a fresh query.
        let check = |walk: &mut WalkSession<'_>, case: &str| {
            let node = walk.query().clone();
            for attr in (0..5usize).filter(|&a| node.value_of(a).is_none()) {
                for v in 0..fresh.schema().fanout(attr) as u16 {
                    let want = fresh.query(&node.and(attr, v).unwrap()).unwrap();
                    let got = walk.classify(attr, v).unwrap();
                    assert_eq!(got, ClassifiedOutcome::from_outcome(want), "{case}: {attr}={v}");
                }
            }
        };
        let extend = |walk: &mut WalkSession<'_>, attr: usize, v: u16, calls: usize, case| {
            let before = db.backend().extends();
            walk.extend(attr, v);
            assert_eq!(db.backend().extends() - before, calls, "{case}: extend {attr}={v}");
            check(walk, case);
        };
        let retract = |walk: &mut WalkSession<'_>, case| {
            walk.retract();
            check(walk, case);
        };

        let case = "the level just retracted";
        extend(&mut walk, 0, 0, 1, case);
        retract(&mut walk, case);
        extend(&mut walk, 0, 0, 0, case);

        let case = "the same branch after a sibling";
        retract(&mut walk, case);
        extend(&mut walk, 0, 1, 1, case);
        retract(&mut walk, case);
        extend(&mut walk, 0, 0, 1, case);

        let case = "the same predicate under a rebuilt parent";
        extend(&mut walk, 2, 1, 1, case);
        retract(&mut walk, case);
        retract(&mut walk, case);
        extend(&mut walk, 0, 1, 1, case);
        extend(&mut walk, 2, 1, 1, case);
    }

    #[test]
    #[should_panic(expected = "past the session root")]
    fn retracting_the_root_panics() {
        let db = HiddenDb::new(running_example(), 1);
        let mut walk = db.walk_session(Query::all()).unwrap();
        walk.retract();
    }

    #[test]
    fn scan_mode_db_sessions_fall_back_but_agree() {
        let scan =
            HiddenDb::new(running_example(), 2).with_eval_mode(EvalMode::Scan);
        let fresh = HiddenDb::new(running_example(), 2);
        let mut walk = scan.walk_session(Query::all()).unwrap();
        for attr in 0..5usize {
            for v in 0..scan.schema().fanout(attr) {
                let want = ClassifiedOutcome::from_outcome(
                    fresh.query(&Query::all().and(attr, v as u16).unwrap()).unwrap(),
                );
                assert_eq!(walk.classify(attr, v as u16).unwrap(), want);
            }
        }
    }

    #[test]
    fn sessions_over_borrowed_interfaces_delegate() {
        // &HiddenDb must still open the incremental session (the &T
        // blanket impl forwards walk_session instead of defaulting to
        // fresh).
        let db = HiddenDb::new(running_example(), 1);
        let by_ref = &db;
        let mut walk = by_ref.walk_session(Query::all()).unwrap();
        assert!(walk.classify(0, 0).unwrap().is_overflow());
        assert_eq!(db.queries_issued(), 1);
    }
}

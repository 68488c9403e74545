//! Query accounting: every call that reaches the hidden database is
//! charged here. Real hidden databases impose per-user/IP limits (Yahoo!
//! Auto: 1,000 queries per IP per day, paper §1); [`QueryCounter`]
//! optionally enforces such a budget, and all experiment harnesses read
//! their "query cost" numbers from it.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{HdbError, Result};
use crate::obs::MetricsSnapshot;

/// Thread-safe counter of issued queries with an optional hard budget and
/// per-outcome tallies.
#[derive(Debug)]
pub struct QueryCounter {
    issued: AtomicU64,
    underflow: AtomicU64,
    valid: AtomicU64,
    overflow: AtomicU64,
    errored: AtomicU64,
    limit: Option<u64>,
}

impl QueryCounter {
    /// A counter without a budget.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::with_limit(None)
    }

    /// A counter that rejects queries beyond `limit`.
    #[must_use]
    pub fn limited(limit: u64) -> Self {
        Self::with_limit(Some(limit))
    }

    fn with_limit(limit: Option<u64>) -> Self {
        Self {
            issued: AtomicU64::new(0),
            underflow: AtomicU64::new(0),
            valid: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            errored: AtomicU64::new(0),
            limit,
        }
    }

    /// Charges one query.
    ///
    /// # Errors
    /// Returns [`HdbError::BudgetExhausted`] if the budget is already
    /// spent; the query is then *not* counted (the caller never reached
    /// the database).
    pub fn charge(&self) -> Result<()> {
        if let Some(limit) = self.limit {
            // Optimistically increment, roll back on overshoot: with
            // concurrent callers the count never settles above `limit`.
            let prev = self.issued.fetch_add(1, Ordering::Relaxed);
            if prev >= limit {
                self.issued.fetch_sub(1, Ordering::Relaxed);
                return Err(HdbError::BudgetExhausted { limit });
            }
        } else {
            self.issued.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Owner-side tally of one query answered on a client's behalf (the
    /// server's ledger): counts it as issued, without a budget check,
    /// and classes it by its true match count under the `k` it asked
    /// for — `None`, a query that got no answer, is errored.
    pub fn record(&self, count: Option<u64>, k: u64) {
        self.issued.fetch_add(1, Ordering::Relaxed);
        self.record_outcome(match count {
            Some(0) => OutcomeKind::Underflow,
            Some(n) if n <= k => OutcomeKind::Valid,
            Some(_) => OutcomeKind::Overflow,
            None => OutcomeKind::Errored,
        });
    }

    /// Writes the ledger into `snap` as the five `hdb_queries_*_total`
    /// counters: `issued` and the four outcome tallies that partition it.
    pub fn publish(&self, snap: &mut MetricsSnapshot) {
        for (name, value) in [
            ("hdb_queries_issued_total", self.issued()),
            ("hdb_queries_underflow_total", self.underflow_count()),
            ("hdb_queries_valid_total", self.valid_count()),
            ("hdb_queries_overflow_total", self.overflow_count()),
            ("hdb_queries_errored_total", self.errored_count()),
        ] {
            snap.counters.insert(name.to_string(), value);
        }
    }

    /// Records the outcome class of a charged query.
    pub(crate) fn record_outcome(&self, kind: OutcomeKind) {
        let slot = match kind {
            OutcomeKind::Underflow => &self.underflow,
            OutcomeKind::Valid => &self.valid,
            OutcomeKind::Overflow => &self.overflow,
            OutcomeKind::Errored => &self.errored,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    /// Total queries issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued.load(Ordering::Relaxed)
    }

    /// Queries that underflowed.
    #[must_use]
    pub fn underflow_count(&self) -> u64 {
        self.underflow.load(Ordering::Relaxed)
    }

    /// Queries that were valid.
    #[must_use]
    pub fn valid_count(&self) -> u64 {
        self.valid.load(Ordering::Relaxed)
    }

    /// Queries that overflowed.
    #[must_use]
    pub fn overflow_count(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Charged queries whose response never produced an outcome class —
    /// the request went out (and the site metered it), but transport or
    /// validation failed on the way back. Together with the three outcome
    /// tallies this partitions [`QueryCounter::issued`] exactly:
    /// `issued == underflow + valid + overflow + errored` whenever no
    /// query is in flight.
    #[must_use]
    pub fn errored_count(&self) -> u64 {
        self.errored.load(Ordering::Relaxed)
    }

    /// The configured budget, if any.
    #[must_use]
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Remaining budget (`None` when unlimited).
    #[must_use]
    pub fn remaining(&self) -> Option<u64> {
        self.limit.map(|l| l.saturating_sub(self.issued()))
    }

    /// Resets all tallies (budget unchanged). Experiment harnesses call
    /// this between trials.
    pub fn reset(&self) {
        self.issued.store(0, Ordering::Relaxed);
        self.underflow.store(0, Ordering::Relaxed);
        self.valid.store(0, Ordering::Relaxed);
        self.overflow.store(0, Ordering::Relaxed);
        self.errored.store(0, Ordering::Relaxed);
    }
}

/// Outcome classes for accounting purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OutcomeKind {
    Underflow,
    Valid,
    Overflow,
    /// Charged, but the response failed (transport error, server-side
    /// rejection) before an outcome class existed.
    Errored,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_counts() {
        let c = QueryCounter::unlimited();
        for _ in 0..5 {
            c.charge().unwrap();
        }
        assert_eq!(c.issued(), 5);
        assert_eq!(c.remaining(), None);
    }

    #[test]
    fn budget_enforced_exactly() {
        let c = QueryCounter::limited(3);
        assert!(c.charge().is_ok());
        assert!(c.charge().is_ok());
        assert!(c.charge().is_ok());
        assert_eq!(c.remaining(), Some(0));
        let err = c.charge().unwrap_err();
        assert_eq!(err, HdbError::BudgetExhausted { limit: 3 });
        // failed charge is not counted
        assert_eq!(c.issued(), 3);
    }

    #[test]
    fn reset_clears_tallies() {
        let c = QueryCounter::limited(2);
        c.charge().unwrap();
        c.charge().unwrap();
        assert!(c.charge().is_err());
        c.reset();
        assert_eq!(c.issued(), 0);
        assert!(c.charge().is_ok());
    }

    #[test]
    fn outcome_tallies() {
        let c = QueryCounter::unlimited();
        c.charge().unwrap();
        c.record_outcome(OutcomeKind::Valid);
        c.charge().unwrap();
        c.record_outcome(OutcomeKind::Underflow);
        c.charge().unwrap();
        c.record_outcome(OutcomeKind::Overflow);
        assert_eq!((c.valid_count(), c.underflow_count(), c.overflow_count()), (1, 1, 1));
    }

    #[test]
    fn errored_outcomes_partition_the_ledger() {
        let c = QueryCounter::unlimited();
        c.charge().unwrap();
        c.record_outcome(OutcomeKind::Valid);
        c.charge().unwrap();
        c.record_outcome(OutcomeKind::Errored);
        assert_eq!(c.errored_count(), 1);
        assert_eq!(
            c.issued(),
            c.underflow_count() + c.valid_count() + c.overflow_count() + c.errored_count()
        );
        c.reset();
        assert_eq!(c.errored_count(), 0);
    }

    #[test]
    fn concurrent_budget_never_overshoots() {
        use std::sync::Arc;
        let c = Arc::new(QueryCounter::limited(100));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0u64;
                for _ in 0..50 {
                    if c.charge().is_ok() {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100);
        assert_eq!(c.issued(), 100);
    }
}

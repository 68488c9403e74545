//! Query memoisation, safe under concurrency.
//!
//! Re-issuing a query the client has already asked wastes budget on a real
//! site (the answer cannot have changed within a session under the paper's
//! static-database model). [`CachingInterface`] wraps any
//! [`TopKInterface`] and serves repeats from memory; only cache misses are
//! charged to the inner interface.
//!
//! The store behind it, [`ShardedMemo`], spreads entries over a fixed set
//! of independently locked shards (hash of the query picks the shard), so
//! concurrent drill-down workers hitting disjoint queries never contend
//! on one global lock. The hidden-database simulator reuses the same
//! structure for its server-side hot memo.
//!
//! Note the estimators in `hdb-core` deliberately do *not* put a global
//! cache between themselves and the database when measuring query cost —
//! the paper's costs count *issued* queries, with deduplication applied
//! only within a single drill-down. The wrapper exists for applications
//! (and for the crawler, where cross-walk reuse is legitimate).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::Result;
use crate::interface::{QueryOutcome, TopKInterface};
use crate::query::Query;
use crate::schema::Schema;

/// Number of independently locked shards. A power of two so the shard
/// pick is a mask; 16 keeps contention negligible for the worker counts
/// the engine uses (≤ 8) without bloating the empty structure.
const SHARD_COUNT: usize = 16;

/// A query → value memo sharded over independently locked maps.
///
/// The value type defaults to [`QueryOutcome`] (the full-response memo
/// of [`CachingInterface`]); the hidden-database simulator's hot memo
/// stores an optional overflow page per expensive query.
///
/// All methods take `&self`; the structure is `Sync` and safe to share
/// across estimation worker threads.
#[derive(Debug)]
pub struct ShardedMemo<V = QueryOutcome> {
    shards: [Mutex<HashMap<Query, V>>; SHARD_COUNT],
}

impl<V> Default for ShardedMemo<V> {
    fn default() -> Self {
        Self { shards: std::array::from_fn(|_| Mutex::new(HashMap::new())) }
    }
}

impl<V: Clone> ShardedMemo<V> {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, q: &Query) -> &Mutex<HashMap<Query, V>> {
        let mut h = DefaultHasher::new();
        q.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARD_COUNT - 1)]
    }

    /// Looks up the value memoised for `q`, if any.
    #[must_use]
    pub fn get(&self, q: &Query) -> Option<V> {
        self.shard(q).lock().expect("memo shard poisoned").get(q).cloned()
    }

    /// Memoises `value` for `q` (last writer wins).
    pub fn insert(&self, q: Query, value: V) {
        self.shard(&q).lock().expect("memo shard poisoned").insert(q, value);
    }

    /// Memoises `value` for `q` unless `q` already holds a value.
    pub(crate) fn insert_if_absent(&self, q: Query, value: V) {
        self.shard(&q).lock().expect("memo shard poisoned").entry(q).or_insert(value);
    }

    /// Number of distinct queries stored, summed across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("memo shard poisoned").len()).sum()
    }

    /// Whether no query is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("memo shard poisoned").clear();
        }
    }
}

/// Memoising wrapper around a [`TopKInterface`].
///
/// Thread-safe: concurrent callers contend only on the shard their query
/// hashes to. Two threads racing on the *same* uncached query may both
/// miss and both charge the inner interface — a cache races like a cache,
/// never like a lock — but the memoised answer is identical either way.
pub struct CachingInterface<I> {
    inner: I,
    memo: ShardedMemo,
    hits: AtomicU64,
}

impl<I: TopKInterface> CachingInterface<I> {
    /// Wraps `inner` with an unbounded memo.
    pub fn new(inner: I) -> Self {
        Self { inner, memo: ShardedMemo::new(), hits: AtomicU64::new(0) }
    }

    /// Number of queries answered from the memo.
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct queries stored.
    pub fn cache_size(&self) -> usize {
        self.memo.len()
    }

    /// The wrapped interface.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Unwraps, discarding the memo.
    pub fn into_inner(self) -> I {
        self.inner
    }
}

impl<I: TopKInterface> TopKInterface for CachingInterface<I> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn query(&self, q: &Query) -> Result<QueryOutcome> {
        if let Some(hit) = self.memo.get(q) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let outcome = self.inner.query(q)?;
        self.memo.insert(q.clone(), outcome.clone());
        Ok(outcome)
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }

    fn budget_remaining(&self) -> Option<u64> {
        self.inner.budget_remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::HiddenDb;
    use crate::schema::Schema;
    use crate::table::Table;
    use crate::tuple::Tuple;

    fn db() -> HiddenDb {
        let table = Table::new(
            Schema::boolean(3),
            vec![Tuple::new(vec![0, 0, 0]), Tuple::new(vec![1, 1, 1])],
        )
        .unwrap();
        HiddenDb::new(table, 1)
    }

    #[test]
    fn repeats_are_served_from_memo() {
        let c = CachingInterface::new(db());
        let q = Query::all().and(0, 1).unwrap();
        let a = c.query(&q).unwrap();
        let b = c.query(&q).unwrap();
        assert_eq!(a, b);
        assert_eq!(c.queries_issued(), 1);
        assert_eq!(c.cache_hits(), 1);
        assert_eq!(c.cache_size(), 1);
    }

    #[test]
    fn distinct_queries_all_charged() {
        let c = CachingInterface::new(db());
        c.query(&Query::all()).unwrap();
        c.query(&Query::all().and(0, 0).unwrap()).unwrap();
        c.query(&Query::all().and(0, 1).unwrap()).unwrap();
        assert_eq!(c.queries_issued(), 3);
        assert_eq!(c.cache_hits(), 0);
    }

    #[test]
    fn budget_applies_to_misses_only() {
        let table = Table::new(Schema::boolean(2), vec![Tuple::new(vec![0, 0])]).unwrap();
        let c = CachingInterface::new(HiddenDb::new(table, 1).with_budget(1));
        let q = Query::all();
        c.query(&q).unwrap();
        // repeat is free
        c.query(&q).unwrap();
        // a new query exceeds the budget
        assert!(c.query(&Query::all().and(0, 0).unwrap()).is_err());
    }

    #[test]
    fn sharded_memo_basics() {
        let memo = ShardedMemo::new();
        assert!(memo.is_empty());
        let q = Query::all();
        assert_eq!(memo.get(&q), None);
        memo.insert(q.clone(), QueryOutcome::Underflow);
        assert_eq!(memo.get(&q), Some(QueryOutcome::Underflow));
        assert_eq!(memo.len(), 1);
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn memo_entries_spread_across_shards() {
        // Many distinct queries must not pile into one shard (a broken
        // hash → one global lock in disguise).
        let memo = ShardedMemo::new();
        for attr in 0..4usize {
            for value in 0..2u16 {
                memo.insert(
                    Query::all().and(attr, value).unwrap(),
                    QueryOutcome::Underflow,
                );
            }
        }
        assert_eq!(memo.len(), 8);
        let occupied =
            memo.shards.iter().filter(|s| !s.lock().unwrap().is_empty()).count();
        assert!(occupied >= 2, "all {} entries landed in one shard", memo.len());
    }

    #[test]
    fn concurrent_hammering_is_consistent() {
        use std::sync::Arc;
        let c = Arc::new(CachingInterface::new(db()));
        let queries: Vec<Query> = (0..3usize)
            .flat_map(|a| (0..2u16).map(move |v| Query::all().and(a, v).unwrap()))
            .collect();
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = Arc::clone(&c);
            let queries = queries.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let q = &queries[(i + t) % queries.len()];
                    let _ = c.query(q).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.cache_size(), queries.len());
        // every call either hit the memo or charged the inner interface
        assert_eq!(c.cache_hits() + c.queries_issued(), 800);
        assert!(c.queries_issued() >= queries.len() as u64);
    }
}

//! Query memoisation, safe under concurrency.
//!
//! [`ShardedMemo`] spreads entries over a fixed set of independently
//! locked shards (hash of the query picks the shard), so concurrent
//! drill-down workers hitting disjoint queries never contend on one
//! global lock. The hidden-database simulator keeps its hot memo of
//! expensive overflow pages in one.
//!
//! Note the estimators in `hdb-core` deliberately do *not* put a global
//! cache between themselves and the database when measuring query cost —
//! the paper's costs count *issued* queries, with deduplication applied
//! only within a single drill-down.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use crate::query::Query;

/// Number of independently locked shards. A power of two so the shard
/// pick is a mask; 16 keeps contention negligible for the worker counts
/// the engine uses (≤ 8) without bloating the empty structure.
const SHARD_COUNT: usize = 16;

/// A query → value memo sharded over independently locked maps; the
/// hidden-database simulator's hot memo stores an optional overflow page
/// per expensive query.
///
/// All methods take `&self`; the structure is `Sync` and safe to share
/// across estimation worker threads.
#[derive(Debug)]
pub(crate) struct ShardedMemo<V> {
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
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn shard(&self, q: &Query) -> &Mutex<HashMap<Query, V>> {
        let mut h = DefaultHasher::new();
        q.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARD_COUNT - 1)]
    }

    /// Looks up the value memoised for `q`, if any.
    #[must_use]
    pub(crate) fn get(&self, q: &Query) -> Option<V> {
        self.shard(q).lock().expect("memo shard poisoned").get(q).cloned()
    }

    /// Memoises `value` for `q` (last writer wins).
    pub(crate) fn insert(&self, q: Query, value: V) {
        self.shard(&q).lock().expect("memo shard poisoned").insert(q, value);
    }

    /// Memoises `value` for `q` unless `q` already holds a value.
    pub(crate) fn insert_if_absent(&self, q: Query, value: V) {
        self.shard(&q).lock().expect("memo shard poisoned").entry(q).or_insert(value);
    }

    /// Number of distinct queries stored, summed across shards.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("memo shard poisoned").len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::QueryOutcome;

    #[test]
    fn sharded_memo_basics() {
        let memo = ShardedMemo::new();
        let q = Query::all();
        assert_eq!(memo.get(&q), None);
        memo.insert(q.clone(), QueryOutcome::Underflow);
        assert_eq!(memo.get(&q), Some(QueryOutcome::Underflow));
        assert_eq!(memo.len(), 1);
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
}

//! [`ShardedDb`]: the dataset hash-partitioned into `N` shards, each with
//! its own table and bitmap index, evaluated concurrently.
//!
//! This models the substrate of a *distributed* hidden database (or a
//! federated one: several sites fronted by one form). Every query is
//! evaluated per shard — `|Sel(q)|` restricted to the shard plus the
//! shard's top-k candidates — and the partial results are merged
//! **order-independently**: counts are summed, candidates are re-ranked
//! by the global `(score, id)` key. Because tuples keep their *global*
//! ids and the ranking scores depend only on `(id, tuple)`, the merged
//! [`Evaluation`] is **bit-identical** to what a single-table
//! [`TableBackend`](crate::TableBackend) over the same corpus returns,
//! for any shard count and any worker count (pinned by the determinism
//! and property tests).
//!
//! Shard evaluation fans across a persistent [`WorkerPool`]
//! ([`ShardedDb::with_workers`]), through the same claiming contract the
//! estimation engine's `fan_out` uses — no ad-hoc thread spawning, and no
//! spawn per probe: incremental walk probes (one AND per shard) ride the
//! same pool.
//!
//! A federation serves the same shards out of process:
//! [`ShardedDb::partition`] cuts the corpus into one-shard databases, one
//! per `hdb-server`, and a [`FederatedBackend`](crate::FederatedBackend)
//! over the fleet merges their answers with the merge this backend uses
//! in process.

use std::convert::Infallible;
use std::sync::Arc;

use crate::backend::{
    checked_numeric, select_candidates, Classified, Evaluation, ScoreKey, SearchBackend, SelState,
    WalkState,
};
use crate::error::Result;
use crate::interface::ReturnedTuple;
use crate::par::WorkerPool;
use crate::query::{Predicate, Query};
use crate::ranking::RankingFunction;
use crate::schema::{AttrId, Schema};
use crate::table::Table;
use crate::tuple::{Tuple, TupleId};

/// One shard: a contiguous-by-assignment subset of the corpus with its
/// own (lazily indexed) table and the global id of every local row.
#[derive(Debug)]
struct Shard {
    /// Local table over the shard's tuples; row `r` here is global tuple
    /// `ids[r]`.
    table: Table,
    /// Ascending global ids (partitioning preserves corpus order within a
    /// shard).
    ids: Vec<TupleId>,
}

impl Shard {
    /// Evaluates `q` against this shard only: local match count plus the
    /// shard's candidate set (all matches in ascending id order if ≤ k,
    /// else the shard top-k ascending by `(score, id)`), so a one-shard
    /// merge reorders nothing.
    fn partial(
        &self,
        q: &Query,
        k: usize,
        schema: &Schema,
        ranking: &dyn RankingFunction,
    ) -> (usize, Vec<ReturnedTuple>) {
        let sel = self.table.index().selection(q);
        let count = sel.count();
        if count == 0 {
            return (0, Vec::new());
        }
        let matches = sel
            .iter_ones()
            .map(|row| (self.ids[row], self.table.tuple(row as TupleId)));
        (count, select_candidates(matches, count, k, schema, ranking))
    }
}

/// Stable, platform-independent FNV-1a hash of a tuple's values — the
/// partitioning function. Deliberately *not* `DefaultHasher`: the shard
/// assignment is part of an experiment's definition and must never drift
/// across Rust releases.
fn shard_of(tuple: &Tuple, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in tuple.values() {
        h ^= u64::from(v);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % shards as u64) as usize
}

/// Hash-partitions `table` into `shard_count` shards, preserving global
/// tuple ids. This is **the** partitioning function: [`ShardedDb::new`]
/// and [`ShardedDb::partition`] both call it, so a fleet of part servers
/// holds exactly the shards a local `ShardedDb` over the same table
/// would — the precondition for bit-identical merges.
fn split(table: &Table, shard_count: usize) -> Vec<Shard> {
    let shard_count = shard_count.max(1);
    let schema = table.schema().clone();
    let mut tuples: Vec<Vec<Tuple>> = vec![Vec::new(); shard_count];
    let mut ids: Vec<Vec<TupleId>> = vec![Vec::new(); shard_count];
    for (row, tuple) in table.tuples().iter().enumerate() {
        let s = shard_of(tuple, shard_count);
        tuples[s].push(tuple.clone());
        ids[s].push(row as TupleId);
    }
    tuples
        .into_iter()
        .zip(ids)
        .map(|(tuples, ids)| Shard {
            table: Table::new(schema.clone(), tuples)
                .expect("shard tuples are a subset of a valid table"),
            ids,
        })
        .collect()
}

/// Merges per-shard partial evaluations into the global [`Evaluation`] —
/// order-independent, bit-identical to the single-table result. Shared by
/// [`ShardedDb`] and [`FederatedBackend`](crate::federated::FederatedBackend):
/// counts are summed; a valid outcome sorts all matches by ascending
/// global id (the single-table enumeration order); an overflow re-ranks
/// the union of shard candidate sets by the global `(score, id)` key and
/// truncates to `k` — each shard's candidates are a superset of its
/// contribution to the global top-k, so the selection is exact.
pub(crate) fn merge_partials(
    schema: &Schema,
    partials: Vec<(usize, Vec<ReturnedTuple>)>,
    k: usize,
    ranking: &dyn RankingFunction,
) -> Evaluation {
    let count: usize = partials.iter().map(|(c, _)| c).sum();
    let mut candidates: Vec<ReturnedTuple> =
        partials.into_iter().flat_map(|(_, top)| top).collect();
    if count <= k {
        candidates.sort_unstable_by_key(|t| t.id);
    } else {
        candidates
            .sort_unstable_by_key(|t| (ScoreKey(ranking.score(schema, t.id, &t.tuple)), t.id));
        candidates.truncate(k);
    }
    Evaluation { count, top: candidates }
}

/// A hash-partitioned corpus evaluated shard-by-shard.
///
/// Construct it over the same [`Table`] you would hand to
/// [`HiddenDb::new`](crate::HiddenDb::new) and wrap it with
/// [`HiddenDb::over`](crate::HiddenDb::over); estimators cannot tell the
/// difference:
///
/// ```
/// use hdb_interface::{HiddenDb, Query, Schema, ShardedDb, Table, TopKInterface, Tuple};
///
/// let tuples: Vec<Tuple> = (0..32u16)
///     .map(|i| Tuple::new((0..5).map(|b| (i >> b) & 1).collect()))
///     .collect();
/// let table = Table::new(Schema::boolean(5), tuples).unwrap();
///
/// let plain = HiddenDb::new(table.clone(), 3);
/// let sharded = HiddenDb::over(ShardedDb::new(&table, 4), 3);
///
/// // Same outcome classes, same tuples, same ids — bit for bit.
/// let q = Query::all().and(0, 1).unwrap();
/// assert_eq!(plain.query(&q).unwrap(), sharded.query(&q).unwrap());
/// assert_eq!(plain.query(&Query::all()).unwrap(), sharded.query(&Query::all()).unwrap());
/// ```
#[derive(Debug)]
pub struct ShardedDb {
    schema: Schema,
    shards: Vec<Shard>,
    rows: usize,
    workers: usize,
    /// Persistent helper threads (`workers - 1` of them) for per-probe
    /// shard fan-out; `None` when `workers == 1` (serial evaluation).
    pool: Option<Arc<WorkerPool>>,
}

impl ShardedDb {
    /// Hash-partitions `table` into `shard_count` shards.
    ///
    /// Global tuple ids are the row indices of `table`, exactly as in the
    /// single-table backend.
    ///
    /// # Panics
    /// Panics if `shard_count == 0`.
    #[must_use]
    pub fn new(table: &Table, shard_count: usize) -> Self {
        assert!(shard_count > 0, "a sharded corpus needs at least one shard");
        Self::over_shards(table.schema().clone(), split(table, shard_count))
    }

    /// Hash-partitions `table` into `parts` one-shard databases (`parts`
    /// is clamped to at least 1), one for each server of a federation.
    /// Part `i` holds shard `i` of [`ShardedDb::new`]`(table, parts)`,
    /// answers with global tuple ids, and reports the part's own rows as
    /// its [`len`](SearchBackend::len). A
    /// [`FederatedBackend`](crate::FederatedBackend) over servers of the
    /// parts, in order, is bit-identical to that local `ShardedDb`.
    #[must_use]
    pub fn partition(table: &Table, parts: usize) -> Vec<Self> {
        split(table, parts)
            .into_iter()
            .map(|shard| Self::over_shards(table.schema().clone(), vec![shard]))
            .collect()
    }

    /// A serial database over `shards`, counting their rows.
    fn over_shards(schema: Schema, shards: Vec<Shard>) -> Self {
        let rows = shards.iter().map(|s| s.table.len()).sum();
        Self { schema, shards, rows, workers: 1, pool: None }
    }

    /// Sets how many threads evaluate shards concurrently (default 1).
    /// `workers > 1` brings up a persistent [`WorkerPool`] of
    /// `workers - 1` helper threads that the calling thread joins for
    /// every evaluation — fresh queries *and* incremental walk probes —
    /// so no query ever pays a thread spawn. The merged result is
    /// identical for any value.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self.pool = (self.workers > 1 && self.shards.len() > 1)
            .then(|| Arc::new(WorkerPool::new(self.workers - 1)));
        self
    }

    /// The configured evaluation worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rows held by shard `i` (for balance diagnostics).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn shard_len(&self, i: usize) -> usize {
        self.shards[i].table.len()
    }

    /// Runs one closure per shard — on the persistent pool when one is
    /// configured, serially otherwise. Results arrive in
    /// scheduling-dependent order; callers must merge order-independently.
    fn per_shard<R: Send>(&self, run: impl Fn(usize) -> R + Sync) -> Vec<R> {
        match &self.pool {
            None => (0..self.shards.len()).map(run).collect(),
            Some(pool) => pool
                .fan_out(self.shards.len() as u64, |i| {
                    Ok::<_, Infallible>(run(i as usize))
                })
                .results
                .into_iter()
                .map(|(_, r)| r)
                .collect(),
        }
    }
}

impl SearchBackend for ShardedDb {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn fill_metrics(&self, snap: &mut crate::obs::MetricsSnapshot) {
        if let Some(pool) = &self.pool {
            snap.counters.insert("hdb_pool_jobs_enqueued_total".into(), pool.jobs_enqueued());
            snap.gauges
                .insert("hdb_pool_queue_depth_high_water".into(), pool.queue_depth_high_water());
        }
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        // Every shard's partial, concurrently when configured, merged
        // order-independently by the shared `merge_partials`.
        let partials = self.per_shard(|i| self.shards[i].partial(q, k, &self.schema, ranking));
        Ok(merge_partials(&self.schema, partials, k, ranking))
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        Ok(self.shards.iter().map(|s| s.table.exact_count(q)).sum())
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        let a = checked_numeric(&self.schema, attr)?;
        // Gather matching (global id, value) pairs and fold them in
        // ascending id order: floating-point addition is not associative,
        // and this sum must be bit-identical to the single-table one.
        let mut values: Vec<(TupleId, f64)> = Vec::new();
        for shard in &self.shards {
            for row in shard.table.index().selection(q).iter_ones() {
                let v = shard.table.tuple(row as TupleId).value(attr);
                values.push((shard.ids[row], a.numeric_value(v).expect("checked numeric")));
            }
        }
        values.sort_unstable_by_key(|&(id, _)| id);
        Ok(values.into_iter().map(|(_, v)| v).sum())
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        let sels: Vec<SelState> = self
            .shards
            .iter()
            .map(|s| SelState::from_selection(s.table.index().selection(q)))
            .collect();
        WalkState::with_payload(sels)
    }

    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        recycled: WalkState,
    ) -> WalkState {
        let Some(sels) = parent.payload::<Vec<SelState>>() else {
            return self.walk_state(child);
        };
        recycled.rebuild(|mut children: Vec<SelState>| {
            children.resize_with(self.shards.len(), SelState::default);
            for ((slot, shard), sel) in children.iter_mut().zip(&self.shards).zip(sels) {
                let posting = shard.table.index().posting(pred.attr, pred.value as usize);
                *slot = sel.child(posting, std::mem::take(slot));
            }
            children
        })
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let Some(sels) = parent.payload::<Vec<SelState>>() else {
            return Ok(Classified::from_evaluation(
                self.evaluate(child, k, &crate::ranking::RowIdRanking)?,
                k,
            ));
        };
        // One AND-count per shard, fanned across the persistent pool when
        // configured (summing is order-independent).
        let count: usize = self
            .per_shard(|i| {
                sels[i].and_count(self.shards[i].table.index().posting(pred.attr, pred.value as usize))
            })
            .into_iter()
            .sum();
        let page = if (1..=k).contains(&count) {
            // Valid: all matches in ascending *global* id order, exactly
            // as the single table enumerates them.
            let mut page: Vec<ReturnedTuple> = self
                .shards
                .iter()
                .zip(sels)
                .flat_map(|(shard, sel)| {
                    let posting = shard.table.index().posting(pred.attr, pred.value as usize);
                    sel.iter_and(posting)
                        .map(|row| ReturnedTuple {
                            id: shard.ids[row],
                            tuple: shard.table.tuple(row as TupleId).clone(),
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            page.sort_unstable_by_key(|t| t.id);
            page
        } else {
            Vec::new()
        };
        Ok(Classified { count, page })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TableBackend;
    use crate::ranking::{AttributeRanking, RowIdRanking, SeededRandomRanking};
    use crate::schema::Attribute;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::boolean("b"),
            Attribute::categorical("p", ["1", "2", "3", "4"])
                .unwrap()
                .with_numeric(vec![1.0, 2.0, 3.0, 4.0])
                .unwrap(),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..16u16)
            .map(|i| Tuple::new(vec![i & 1, (i >> 1) & 1, i >> 2]))
            .collect();
        Table::new(schema, tuples).unwrap()
    }

    fn all_queries(schema: &Schema) -> Vec<Query> {
        let mut queries = vec![Query::all()];
        for attr in 0..schema.len() {
            for v in 0..schema.fanout(attr) {
                queries.push(Query::all().and(attr, v as u16).unwrap());
            }
        }
        queries.push(Query::all().and(0, 1).unwrap().and(2, 3).unwrap());
        queries.push(Query::all().and(0, 0).unwrap().and(1, 1).unwrap().and(2, 2).unwrap());
        queries
    }

    #[test]
    fn partitioning_covers_every_tuple_exactly_once() {
        let t = table();
        for shards in [1usize, 2, 3, 7, 16, 40] {
            let db = ShardedDb::new(&t, shards);
            assert_eq!(db.shard_count(), shards);
            assert_eq!(db.len(), t.len());
            let total: usize = (0..shards).map(|i| db.shard_len(i)).sum();
            assert_eq!(total, t.len(), "shards={shards}");
        }
    }

    #[test]
    fn evaluations_match_the_single_table_backend_bitwise() {
        let t = table();
        let reference = TableBackend::new(t.clone());
        for shards in [1usize, 2, 5, 16] {
            for workers in [1usize, 3] {
                let sharded = ShardedDb::new(&t, shards).with_workers(workers);
                for q in all_queries(t.schema()) {
                    for k in [1usize, 3, 20] {
                        assert_eq!(
                            reference.evaluate(&q, k, &RowIdRanking).unwrap(),
                            sharded.evaluate(&q, k, &RowIdRanking).unwrap(),
                            "shards={shards} workers={workers} q={q:?} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn merge_respects_nontrivial_rankings() {
        let t = table();
        let reference = TableBackend::new(t.clone());
        let sharded = ShardedDb::new(&t, 4);
        let rankings: [&dyn RankingFunction; 3] = [
            &AttributeRanking { attr: 2, descending: true },
            &AttributeRanking { attr: 2, descending: false },
            &SeededRandomRanking { seed: 99 },
        ];
        for ranking in rankings {
            for k in [1usize, 2, 5] {
                assert_eq!(
                    reference.evaluate(&Query::all(), k, ranking).unwrap(),
                    sharded.evaluate(&Query::all(), k, ranking).unwrap(),
                );
            }
        }
    }

    #[test]
    fn ground_truth_is_bit_identical() {
        let t = table();
        let reference = TableBackend::new(t.clone());
        for shards in [1usize, 3, 16] {
            let sharded = ShardedDb::new(&t, shards);
            for q in all_queries(t.schema()) {
                assert_eq!(reference.exact_count(&q).unwrap(), sharded.exact_count(&q).unwrap());
                assert_eq!(
                    reference.exact_sum(2, &q).unwrap().to_bits(),
                    sharded.exact_sum(2, &q).unwrap().to_bits(),
                    "shards={shards} q={q:?}"
                );
            }
        }
        assert!(ShardedDb::new(&t, 2).exact_sum(9, &Query::all()).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedDb::new(&table(), 0);
    }
}

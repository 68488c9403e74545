//! Ranking functions: how a top-k interface preferentially selects which
//! `k` of the `|Sel(q)| > k` matching tuples to return (paper §2.1).
//!
//! The paper's estimators only consume the overflow *flag* of overflowing
//! queries (tuple contents matter only for valid queries, which return
//! everything), so the choice of ranking function does not affect the
//! estimates. We still model it faithfully because (a) a realistic
//! substrate should, and (b) other consumers of the interface (crawlers,
//! the HIDDEN-DB-SAMPLER baseline's returned-tuple choice) do see ranked
//! prefixes.
//!
//! Scores are a pure function of the **global** tuple id and the tuple's
//! values — never of any physical storage detail — so every
//! [`SearchBackend`](crate::SearchBackend) (single table, shards, remote
//! server) ranks identically. That substrate-independence is what lets
//! [`ShardedDb`](crate::ShardedDb) merge per-shard top-k candidates into
//! the exact global top-k.

use crate::schema::Schema;
use crate::table::Table;
use crate::tuple::{Tuple, TupleId};

/// A serialisable description of a ranking function — what a
/// [`RemoteBackend`](crate::RemoteBackend) ships over the wire so the
/// server ranks exactly like the client would have locally.
///
/// Every ranking shipped by this crate has a spec; custom
/// [`RankingFunction`] implementations may opt in by overriding
/// [`RankingFunction::wire_spec`] *and* teaching the serving side the new
/// variant — otherwise they simply cannot cross the network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RankingSpec {
    /// [`RowIdRanking`].
    RowId,
    /// [`AttributeRanking`].
    Attribute {
        /// Attribute whose numeric interpretation orders the results.
        attr: usize,
        /// If true, larger values rank first.
        descending: bool,
    },
    /// [`SeededRandomRanking`].
    SeededRandom {
        /// Seed mixed into every tuple's score.
        seed: u64,
    },
}

impl RankingSpec {
    /// Materialises the described ranking function (server side).
    #[must_use]
    pub fn instantiate(self) -> Box<dyn RankingFunction> {
        match self {
            Self::RowId => Box::new(RowIdRanking),
            Self::Attribute { attr, descending } => {
                Box::new(AttributeRanking { attr, descending })
            }
            Self::SeededRandom { seed } => Box::new(SeededRandomRanking { seed }),
        }
    }
}

/// A ranking function assigns each tuple a static score; the interface
/// returns the `k` matching tuples with the *smallest* score (rank 0 is
/// best), tie-broken by tuple id.
pub trait RankingFunction: Send + Sync {
    /// Score of the tuple with global id `id` and values `tuple`; lower
    /// ranks first. Must depend only on `(schema, id, tuple)` so every
    /// backend ranks identically.
    fn score(&self, schema: &Schema, id: TupleId, tuple: &Tuple) -> f64;

    /// The wire description of this ranking, if it has one. `None` (the
    /// default) means the ranking cannot be shipped to a remote server;
    /// a [`RemoteBackend`](crate::RemoteBackend) evaluation under such a
    /// ranking fails with a typed [`HdbError::Transport`](crate::HdbError)
    /// instead of silently ranking differently on the two sides.
    fn wire_spec(&self) -> Option<RankingSpec> {
        None
    }

    /// Sorts (a copy of) the matching row ids of `table` by rank and
    /// truncates to `k` (convenience for owner-side analysis).
    fn top_k(&self, table: &Table, mut rows: Vec<TupleId>, k: usize) -> Vec<TupleId> {
        let schema = table.schema();
        rows.sort_by(|&a, &b| {
            self.score(schema, a, table.tuple(a))
                .partial_cmp(&self.score(schema, b, table.tuple(b)))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        rows.truncate(k);
        rows
    }
}

/// Ranks tuples by their row id (stable "insertion order" ranking —
/// resembles "newest/oldest listing first" on real sites).
#[derive(Clone, Copy, Debug, Default)]
pub struct RowIdRanking;

impl RankingFunction for RowIdRanking {
    fn score(&self, _schema: &Schema, id: TupleId, _tuple: &Tuple) -> f64 {
        f64::from(id)
    }

    fn wire_spec(&self) -> Option<RankingSpec> {
        Some(RankingSpec::RowId)
    }
}

/// Ranks tuples by the numeric interpretation of one attribute, ascending
/// or descending (e.g. "price: low to high").
#[derive(Clone, Copy, Debug)]
pub struct AttributeRanking {
    /// Attribute whose numeric interpretation orders the results.
    pub attr: usize,
    /// If true, larger values rank first.
    pub descending: bool,
}

impl RankingFunction for AttributeRanking {
    fn score(&self, schema: &Schema, _id: TupleId, tuple: &Tuple) -> f64 {
        let v = tuple.value(self.attr);
        let x = schema
            .attribute(self.attr)
            .numeric_value(v)
            .unwrap_or_else(|| f64::from(v));
        if self.descending {
            -x
        } else {
            x
        }
    }

    fn wire_spec(&self) -> Option<RankingSpec> {
        Some(RankingSpec::Attribute { attr: self.attr, descending: self.descending })
    }
}

/// A deterministic pseudo-random ranking: each tuple gets a fixed score
/// drawn from a seeded hash of its id. Models opaque proprietary "best
/// match" rankings whose order correlates with nothing the client knows.
#[derive(Clone, Copy, Debug)]
pub struct SeededRandomRanking {
    /// Seed mixed into every tuple's score.
    pub seed: u64,
}

impl RankingFunction for SeededRandomRanking {
    fn score(&self, _schema: &Schema, id: TupleId, _tuple: &Tuple) -> f64 {
        // SplitMix64 over (seed, id): fast, stateless, deterministic.
        let mut z = self.seed ^ (u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn wire_spec(&self) -> Option<RankingSpec> {
        Some(RankingSpec::SeededRandom { seed: self.seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::numeric_buckets("price", 5).unwrap(),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Tuple::new(vec![0, 4]),
                Tuple::new(vec![0, 1]),
                Tuple::new(vec![1, 3]),
                Tuple::new(vec![1, 0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn row_id_ranking_keeps_order() {
        let t = table();
        let top = RowIdRanking.top_k(&t, vec![3, 1, 2], 2);
        assert_eq!(top, vec![1, 2]);
    }

    #[test]
    fn attribute_ranking_ascending_and_descending() {
        let t = table();
        let asc = AttributeRanking { attr: 1, descending: false };
        assert_eq!(asc.top_k(&t, vec![0, 1, 2, 3], 2), vec![3, 1]);
        let desc = AttributeRanking { attr: 1, descending: true };
        assert_eq!(desc.top_k(&t, vec![0, 1, 2, 3], 2), vec![0, 2]);
    }

    #[test]
    fn seeded_ranking_is_deterministic() {
        let t = table();
        let r = SeededRandomRanking { seed: 42 };
        let a = r.top_k(&t, vec![0, 1, 2, 3], 4);
        let b = r.top_k(&t, vec![3, 2, 1, 0], 4);
        assert_eq!(a, b);
        // different seeds give (almost surely) different scores
        let r2 = SeededRandomRanking { seed: 43 };
        assert_ne!(
            r.score(t.schema(), 0, t.tuple(0)),
            r2.score(t.schema(), 0, t.tuple(0))
        );
    }

    #[test]
    fn scores_are_substrate_independent() {
        // the same (id, tuple) must score identically whatever table (or
        // shard) holds it — the property the sharded merge relies on
        let t = table();
        let sub = Table::new(t.schema().clone(), vec![t.tuple(2).clone()]).unwrap();
        let rankings: [&dyn RankingFunction; 2] =
            [&AttributeRanking { attr: 1, descending: false }, &SeededRandomRanking { seed: 7 }];
        for r in rankings {
            assert_eq!(
                r.score(t.schema(), 2, t.tuple(2)).to_bits(),
                r.score(sub.schema(), 2, sub.tuple(0)).to_bits()
            );
        }
    }

    #[test]
    fn wire_specs_roundtrip_through_instantiate() {
        let t = table();
        let rankings: [&dyn RankingFunction; 3] = [
            &RowIdRanking,
            &AttributeRanking { attr: 1, descending: true },
            &SeededRandomRanking { seed: 11 },
        ];
        for r in rankings {
            let spec = r.wire_spec().expect("shipped rankings have specs");
            let twin = spec.instantiate();
            for id in 0..t.len() as TupleId {
                assert_eq!(
                    r.score(t.schema(), id, t.tuple(id)).to_bits(),
                    twin.score(t.schema(), id, t.tuple(id)).to_bits()
                );
            }
        }
        struct Custom;
        impl RankingFunction for Custom {
            fn score(&self, _s: &Schema, id: TupleId, _t: &Tuple) -> f64 {
                -f64::from(id)
            }
        }
        assert!(Custom.wire_spec().is_none());
    }

    #[test]
    fn top_k_truncates_to_k() {
        let t = table();
        assert_eq!(RowIdRanking.top_k(&t, vec![0, 1, 2, 3], 10).len(), 4);
        assert_eq!(RowIdRanking.top_k(&t, vec![0, 1, 2, 3], 0).len(), 0);
    }
}

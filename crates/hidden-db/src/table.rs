//! In-memory tables: the ground-truth data behind a hidden database.
//!
//! The table is the *owner's* view; estimators never see it directly.
//! It also exposes exact aggregates (size, SUM, conditional COUNT/SUM)
//! used as ground truth when scoring estimators. Aggregates are answered
//! through a lazily built, cached [`TableIndex`] (bitmap AND + popcount
//! per query) rather than rescanning the tuple vector on every call; the
//! scan path survives as `*_scan` methods so property tests and benches
//! can pit the two against each other. Once built, the index stays live:
//! every append adds the new row's bits to it, so a table that grows
//! between reads never pays for a rebuild.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use crate::error::{HdbError, Result};
use crate::index::TableIndex;
use crate::query::Query;
use crate::schema::{AttrId, Schema};
use crate::tuple::{Tuple, TupleId};

/// A validated, duplicate-free table over a [`Schema`].
///
/// The paper assumes no duplicate tuples and no NULLs (§2.1); `Table`
/// enforces both at construction.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    tuples: Vec<Tuple>,
    /// Bitmap index over the current tuples, built on first aggregate
    /// call and kept current by every append (which holds `&mut self`,
    /// so it reaches a built index through `OnceLock::get_mut`).
    /// `OnceLock` keeps the table `Sync` without locking the read path.
    index: OnceLock<TableIndex>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        // The clone starts with a cold index cache: cloning is common in
        // dataset generators that mutate the copy next, where a cloned
        // index would be rebuilt anyway.
        Self { schema: self.schema.clone(), tuples: self.tuples.clone(), index: OnceLock::new() }
    }
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn empty(schema: Schema) -> Self {
        Self { schema, tuples: Vec::new(), index: OnceLock::new() }
    }

    /// Builds a table from tuples, validating conformance and rejecting
    /// duplicates.
    ///
    /// # Errors
    /// Returns [`HdbError::InvalidTuple`] on the first non-conforming or
    /// duplicate tuple.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Self> {
        let mut table = Self::empty(schema);
        table.extend(tuples)?;
        Ok(table)
    }

    /// Builds a table from tuples, silently dropping duplicates (keeps
    /// the first occurrence). Non-conforming tuples are still errors.
    ///
    /// Dataset generators use this: resampling-based enlargement (the
    /// paper's DBGen step) can produce collisions that must be dropped to
    /// preserve the no-duplicates model.
    ///
    /// # Errors
    /// Returns [`HdbError::InvalidTuple`] on a non-conforming tuple.
    pub fn new_dedup(schema: Schema, tuples: Vec<Tuple>) -> Result<Self> {
        let mut seen: BTreeSet<Tuple> = BTreeSet::new();
        let mut kept = Vec::with_capacity(tuples.len());
        for t in tuples {
            if !t.conforms_to(&schema) {
                return Err(HdbError::InvalidTuple(format!(
                    "tuple {:?} does not conform to schema {}",
                    t.values(),
                    schema
                )));
            }
            if seen.insert(t.clone()) {
                kept.push(t);
            }
        }
        let mut table = Self::empty(schema);
        table.tuples = kept;
        Ok(table)
    }

    /// Appends a tuple, validating conformance and uniqueness.
    ///
    /// # Errors
    /// Returns [`HdbError::InvalidTuple`] if the tuple does not conform or
    /// duplicates an existing row. (Uniqueness check is O(m); use
    /// [`Table::new`]/[`Table::new_dedup`] for bulk loads.)
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        if !tuple.conforms_to(&self.schema) {
            return Err(HdbError::InvalidTuple(format!(
                "tuple {:?} does not conform to schema {}",
                tuple.values(),
                self.schema
            )));
        }
        if self.tuples.contains(&tuple) {
            return Err(HdbError::InvalidTuple(format!(
                "duplicate tuple {:?}",
                tuple.values()
            )));
        }
        self.append(tuple);
        Ok(())
    }

    /// Appends a tuple the caller has already validated (conformance and
    /// uniqueness) — the persistent backend's ingest path, which keeps
    /// its own `BTreeSet` of seen tuples so ingest stays O(log m) rather
    /// than the O(m) scan of [`Table::push`]. A built index gains the
    /// row's bits and stays built.
    pub(crate) fn push_validated(&mut self, tuple: Tuple) {
        self.append(tuple);
    }

    fn extend(&mut self, tuples: Vec<Tuple>) -> Result<()> {
        let mut seen: BTreeSet<&Tuple> = self.tuples.iter().collect();
        let mut validated = Vec::with_capacity(tuples.len());
        for t in &tuples {
            if !t.conforms_to(&self.schema) {
                return Err(HdbError::InvalidTuple(format!(
                    "tuple {:?} does not conform to schema {}",
                    t.values(),
                    self.schema
                )));
            }
            if !seen.insert(t) {
                return Err(HdbError::InvalidTuple(format!("duplicate tuple {:?}", t.values())));
            }
            validated.push(t.clone());
        }
        drop(seen);
        self.tuples.reserve(validated.len());
        for t in validated {
            self.append(t);
        }
        Ok(())
    }

    /// The one append every mutation goes through. The tuple is already
    /// validated; a built index gains its row, so it stays equal to a
    /// rebuild over the grown table.
    fn append(&mut self, tuple: Tuple) {
        if let Some(index) = self.index.get_mut() {
            index.push(&tuple);
        }
        self.tuples.push(tuple);
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples `m` — the quantity the paper's estimators target.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All tuples.
    #[must_use]
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// A tuple by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn tuple(&self, id: TupleId) -> &Tuple {
        &self.tuples[id as usize]
    }

    // ------------------------------------------------------------------
    // Ground-truth aggregates (owner-side; not available to estimators)
    // ------------------------------------------------------------------

    /// The bitmap index over the current tuples, building it on first
    /// use. All aggregate methods route through this; mutations
    /// ([`Table::push`]) append their rows to a built index.
    #[must_use]
    pub fn index(&self) -> &TableIndex {
        self.index.get_or_init(|| TableIndex::build(self))
    }

    /// Exact `COUNT(*) WHERE q` via the cached bitmap index.
    #[must_use]
    pub fn exact_count(&self, q: &Query) -> usize {
        self.index().count(q)
    }

    /// Exact `COUNT(*) WHERE q` by linear scan — the pre-index reference
    /// path, kept so equivalence with the bitmap path stays testable (and
    /// benchmarkable).
    #[must_use]
    pub fn exact_count_scan(&self, q: &Query) -> usize {
        self.tuples.iter().filter(|t| q.matches(t)).count()
    }

    /// Exact `SUM(attr) WHERE q` using the attribute's numeric
    /// interpretation, via the cached bitmap index.
    ///
    /// # Errors
    /// Returns [`HdbError::InvalidQuery`] if `attr` has no numeric
    /// interpretation or is out of range.
    pub fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        let a = self.checked_numeric(attr)?;
        Ok(self
            .index()
            .selection(q)
            .iter_ones()
            .map(|r| {
                a.numeric_value(self.tuples[r].value(attr)).expect("checked numeric")
            })
            .sum())
    }

    /// Exact `SUM(attr) WHERE q` by linear scan (reference path, see
    /// [`Table::exact_count_scan`]).
    ///
    /// # Errors
    /// Same conditions as [`Table::exact_sum`].
    pub fn exact_sum_scan(&self, attr: AttrId, q: &Query) -> Result<f64> {
        let a = self.checked_numeric(attr)?;
        Ok(self
            .tuples
            .iter()
            .filter(|t| q.matches(t))
            .map(|t| a.numeric_value(t.value(attr)).expect("checked numeric"))
            .sum())
    }

    fn checked_numeric(&self, attr: AttrId) -> Result<&crate::schema::Attribute> {
        if attr >= self.schema.len() {
            return Err(HdbError::InvalidQuery(format!("attribute id {attr} out of range")));
        }
        let a = self.schema.attribute(attr);
        if !a.is_numeric() {
            return Err(HdbError::InvalidQuery(format!(
                "attribute `{}` has no numeric interpretation",
                a.name()
            )));
        }
        Ok(a)
    }

    /// Exact `AVG(attr) WHERE q`. Returns `None` when no tuple matches.
    ///
    /// # Errors
    /// Same conditions as [`Table::exact_sum`].
    pub fn exact_avg(&self, attr: AttrId, q: &Query) -> Result<Option<f64>> {
        let count = self.exact_count(q);
        if count == 0 {
            return Ok(None);
        }
        Ok(Some(self.exact_sum(attr, q)? / count as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::boolean("b"),
            Attribute::categorical("c", ["x", "y", "z"])
                .unwrap()
                .with_numeric(vec![10.0, 20.0, 30.0])
                .unwrap(),
        ])
        .unwrap()
    }

    fn table() -> Table {
        Table::new(
            schema(),
            vec![
                Tuple::new(vec![0, 0, 0]),
                Tuple::new(vec![0, 1, 1]),
                Tuple::new(vec![1, 1, 1]),
                Tuple::new(vec![1, 1, 2]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn rejects_duplicates() {
        let err = Table::new(
            schema(),
            vec![Tuple::new(vec![0, 0, 0]), Tuple::new(vec![0, 0, 0])],
        );
        assert!(err.is_err());
    }

    #[test]
    fn dedup_keeps_first() {
        let t = Table::new_dedup(
            schema(),
            vec![
                Tuple::new(vec![0, 0, 0]),
                Tuple::new(vec![0, 0, 0]),
                Tuple::new(vec![1, 0, 0]),
            ],
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn rejects_nonconforming() {
        let err = Table::new(schema(), vec![Tuple::new(vec![0, 0])]);
        assert!(err.is_err());
        let err = Table::new(schema(), vec![Tuple::new(vec![0, 0, 3])]);
        assert!(err.is_err());
    }

    #[test]
    fn push_validates() {
        let mut t = table();
        assert!(t.push(Tuple::new(vec![0, 0, 0])).is_err());
        assert!(t.push(Tuple::new(vec![0, 0, 1])).is_ok());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn exact_count_matches_scan() {
        let t = table();
        assert_eq!(t.exact_count(&Query::all()), 4);
        let q = Query::all().and(1, 1).unwrap();
        assert_eq!(t.exact_count(&q), 3);
        let q = q.and(0, 0).unwrap();
        assert_eq!(t.exact_count(&q), 1);
    }

    #[test]
    fn exact_sum_and_avg() {
        let t = table();
        assert_eq!(t.exact_sum(2, &Query::all()).unwrap(), 10.0 + 20.0 + 20.0 + 30.0);
        let q = Query::all().and(0, 1).unwrap();
        assert_eq!(t.exact_sum(2, &q).unwrap(), 50.0);
        assert_eq!(t.exact_avg(2, &q).unwrap(), Some(25.0));
        let q_none = Query::all().and(0, 1).unwrap().and(1, 0).unwrap();
        assert_eq!(t.exact_avg(2, &q_none).unwrap(), None);
    }

    #[test]
    fn index_survives_reads_and_tracks_mutation() {
        let mut t = table();
        let q = Query::all().and(1, 1).unwrap();
        assert_eq!(t.exact_count(&q), 3);
        // the cached index must not serve stale answers after a push
        t.push(Tuple::new(vec![0, 1, 2])).unwrap();
        assert_eq!(t.exact_count(&q), 4);
        assert_eq!(t.exact_count_scan(&q), 4);
    }

    #[test]
    fn index_stays_built_across_push_validated() {
        let mut t = table();
        let _ = t.index();
        t.push_validated(Tuple::new(vec![0, 1, 2]));
        assert!(t.index.get().is_some(), "an append must not drop the built index");
        assert_eq!(t.index(), &TableIndex::build(&t));
    }

    /// `count` distinct tuples over `fanouts`, in draw order.
    fn distinct_tuples(fanouts: &[usize], count: usize, rng: &mut StdRng) -> Vec<Tuple> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let t = Tuple::new(fanouts.iter().map(|&f| rng.random_range(0..f as u16)).collect());
            if seen.insert(t.clone()) {
                out.push(t);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Appending through every mutation path keeps a built index
        /// equal to a rebuild over the grown table: postings (words and
        /// length, so the zero tail too), stored counts and row count.
        /// The base sizes straddle the 64-row word boundaries.
        #[test]
        fn appended_index_equals_rebuild(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Boolean attributes interleaved with categorical ones of 3-5
            // values.
            let fanouts: Vec<usize> = (0..12)
                .map(|a| if a % 2 == 0 { 2 } else { rng.random_range(3..=5) })
                .collect();
            let schema = Schema::new(
                fanouts
                    .iter()
                    .enumerate()
                    .map(|(a, &f)| {
                        if f == 2 {
                            Attribute::boolean(format!("a{a}"))
                        } else {
                            Attribute::categorical(format!("a{a}"), (0..f).map(|v| v.to_string()))
                                .unwrap()
                        }
                    })
                    .collect(),
            )
            .unwrap();
            let large: usize = rng.random_range(200..400);
            for base in [0usize, 1, 63, 64, 65, 127, 128, 129, large] {
                let added: usize = rng.random_range(1..=200);
                let rows = distinct_tuples(&fanouts, base + added, &mut rng);
                let (head, tail) = rows.split_at(base);
                for path in ["push", "push_validated", "extend"] {
                    let mut t = Table::new(schema.clone(), head.to_vec()).unwrap();
                    let _ = t.index();
                    match path {
                        "push" => {
                            for r in tail {
                                t.push(r.clone()).unwrap();
                            }
                        }
                        "push_validated" => {
                            for r in tail {
                                t.push_validated(r.clone());
                            }
                        }
                        _ => t.extend(tail.to_vec()).unwrap(),
                    }
                    let ctx = format!("{path}: {base} + {added} rows over fanouts {fanouts:?}");
                    prop_assert!(t.index.get().is_some(), "{}", ctx);
                    prop_assert_eq!(t.index(), &TableIndex::build(&t), "{}", ctx);
                }
            }
        }
    }

    #[test]
    fn bitmap_and_scan_paths_agree() {
        let t = table();
        let queries = [
            Query::all(),
            Query::all().and(0, 1).unwrap(),
            Query::all().and(0, 0).unwrap().and(1, 1).unwrap(),
            Query::all().and(2, 2).unwrap().and(0, 0).unwrap(),
        ];
        for q in &queries {
            assert_eq!(t.exact_count(q), t.exact_count_scan(q), "query {q:?}");
            assert_eq!(
                t.exact_sum(2, q).unwrap(),
                t.exact_sum_scan(2, q).unwrap(),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn cloned_table_answers_like_the_original() {
        let t = table();
        let _ = t.exact_count(&Query::all()); // warm the cache
        let c = t.clone();
        assert_eq!(c.exact_count(&Query::all()), t.exact_count(&Query::all()));
    }

    #[test]
    fn sum_requires_numeric_interpretation() {
        let s = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::categorical("c", ["x", "y"]).unwrap(),
        ])
        .unwrap();
        let t = Table::new(s, vec![Tuple::new(vec![0, 0])]).unwrap();
        assert!(t.exact_sum(1, &Query::all()).is_err());
        assert!(t.exact_sum(9, &Query::all()).is_err());
    }
}

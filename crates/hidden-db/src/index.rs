//! Query-evaluation index: one posting bitmap per `(attribute, value)`
//! pair. A conjunctive query is evaluated by intersecting the bitmaps of
//! its predicates.
//!
//! This is the *server-side* machinery of the hidden database simulator —
//! the part the paper's real-world counterpart (Yahoo! Auto's backend)
//! implements for us. Estimators never touch it.

use crate::bitmap::{Bitmap, OnesIter};
use crate::query::{Predicate, Query};
use crate::table::Table;
use crate::tuple::{Tuple, TupleId};

/// The matching-row set of a query, in the cheapest representation the
/// query shape allows: the zero-predicate query matches *all* rows (no
/// bitmap needed), a single predicate borrows its posting bitmap, and
/// only multi-predicate queries materialise an intersection.
pub enum Selection<'a> {
    /// Every row matches (zero predicates).
    All {
        /// Number of rows in the table.
        rows: usize,
    },
    /// Exactly the rows of one borrowed posting bitmap.
    Posting(&'a Bitmap),
    /// A materialised intersection of two or more postings.
    Owned(Bitmap),
}

impl Selection<'_> {
    /// Number of matching rows.
    #[must_use]
    pub fn count(&self) -> usize {
        match self {
            Self::All { rows } => *rows,
            Self::Posting(b) => b.count(),
            Self::Owned(b) => b.count(),
        }
    }

    /// Iterator over matching row ids, ascending.
    pub fn iter_ones(&self) -> SelectionOnes<'_> {
        match self {
            Self::All { rows } => SelectionOnes::All(0..*rows),
            Self::Posting(b) => SelectionOnes::Bits(b.iter_ones()),
            Self::Owned(b) => SelectionOnes::Bits(b.iter_ones()),
        }
    }

    /// Materialises the selection as an owned bitmap.
    #[must_use]
    pub fn into_bitmap(self) -> Bitmap {
        match self {
            Self::All { rows } => Bitmap::ones(rows),
            Self::Posting(b) => b.clone(),
            Self::Owned(b) => b,
        }
    }
}

/// Iterator over the row ids of a [`Selection`], ascending.
pub enum SelectionOnes<'a> {
    /// All rows: a plain index range.
    All(std::ops::Range<usize>),
    /// Set bits of a bitmap.
    Bits(OnesIter<'a>),
}

impl Iterator for SelectionOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Self::All(r) => r.next(),
            Self::Bits(it) => it.next(),
        }
    }
}

/// Bitmap index over a table.
#[derive(Clone, Debug, PartialEq)]
pub struct TableIndex {
    /// `postings[attr][value]` = bitmap of rows with `A_attr = value`.
    postings: Vec<Vec<Bitmap>>,
    /// `counts[attr][value]` = set bits of `postings[attr][value]`,
    /// counted at build time and bumped by [`TableIndex::push`].
    counts: Vec<Vec<usize>>,
    rows: usize,
}

impl TableIndex {
    /// Builds the index in one pass over the table.
    #[must_use]
    pub fn build(table: &Table) -> Self {
        let schema = table.schema();
        let rows = table.len();
        let mut postings: Vec<Vec<Bitmap>> = (0..schema.len())
            .map(|a| (0..schema.fanout(a)).map(|_| Bitmap::zeros(rows)).collect())
            .collect();
        let mut counts: Vec<Vec<usize>> =
            (0..schema.len()).map(|a| vec![0; schema.fanout(a)]).collect();
        for (row, tuple) in table.tuples().iter().enumerate() {
            for (attr, &value) in tuple.values().iter().enumerate() {
                postings[attr][value as usize].set(row);
                counts[attr][value as usize] += 1;
            }
        }
        Self { postings, counts, rows }
    }

    /// Appends `tuple` as the next row: every posting grows by one bit,
    /// set only in the posting of the tuple's value, so the index stays
    /// equal to [`TableIndex::build`] over the grown table. The caller
    /// guarantees the tuple conforms to the indexed schema.
    pub(crate) fn push(&mut self, tuple: &Tuple) {
        for ((postings, counts), &value) in
            self.postings.iter_mut().zip(&mut self.counts).zip(tuple.values())
        {
            let value = usize::from(value);
            for (v, posting) in postings.iter_mut().enumerate() {
                posting.push(v == value);
            }
            counts[value] += 1;
        }
        self.rows += 1;
    }

    /// Number of rows indexed.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Evaluates `q`, returning the matching row-id set as a bitmap.
    ///
    /// Predicates are intersected in ascending selectivity order (smallest
    /// posting first) so the working bitmap sparsifies early. Callers that
    /// only need to *read* the match set should prefer
    /// [`TableIndex::selection`], which avoids allocating for zero- and
    /// one-predicate queries.
    #[must_use]
    pub fn eval(&self, q: &Query) -> Bitmap {
        self.selection(q).into_bitmap()
    }

    /// Evaluates `q` into the cheapest [`Selection`] representation:
    /// zero predicates allocate nothing (no more `Bitmap::ones` per root
    /// query), one predicate borrows its posting, two or more materialise
    /// the intersection (smallest posting first).
    #[must_use]
    pub fn selection(&self, q: &Query) -> Selection<'_> {
        let mut preds: Vec<(usize, &Bitmap)> = q
            .predicates()
            .iter()
            .map(|p| {
                let v = p.value as usize;
                (self.counts[p.attr][v], &self.postings[p.attr][v])
            })
            .collect();
        match preds.len() {
            0 => Selection::All { rows: self.rows },
            1 => Selection::Posting(preds[0].1),
            _ => {
                preds.sort_by_key(|&(count, _)| count);
                let mut acc = preds[0].1.clone();
                for (_, b) in &preds[1..] {
                    acc.and_with(b);
                }
                Selection::Owned(acc)
            }
        }
    }

    /// The posting bitmap of one `(attr, value)` pair.
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn posting(&self, attr: usize, value: usize) -> &Bitmap {
        &self.postings[attr][value]
    }

    /// `|Sel(q)|` — the number of tuples matching `q`.
    #[must_use]
    pub fn count(&self, q: &Query) -> usize {
        let post = |p: &Predicate| &self.postings[p.attr][p.value as usize];
        match q.predicates() {
            [] => self.rows,
            [p] => self.value_frequency(p.attr, p.value as usize),
            [a, b] => post(a).and_count(post(b)),
            [a, b, c] => post(a).and_count_3(post(b), post(c)),
            _ => self.selection(q).count(),
        }
    }

    /// Matching row ids in ascending order, truncated to `limit`.
    #[must_use]
    pub fn matching_rows(&self, q: &Query, limit: usize) -> Vec<TupleId> {
        self.selection(q).iter_ones().take(limit).map(|r| r as TupleId).collect()
    }

    /// Posting-list cardinality of a single `(attr, value)` pair.
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn value_frequency(&self, attr: usize, value: usize) -> usize {
        self.counts[attr][value]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use crate::tuple::Tuple;

    fn table() -> Table {
        // The running example of the paper (Table 1): 6 tuples, 4 Boolean
        // attributes + 1 categorical with domain [1,5].
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
    fn counts_match_exact_scan() {
        let t = table();
        let idx = TableIndex::build(&t);
        assert_eq!(idx.count(&Query::all()), 6);
        for attr in 0..5 {
            for value in 0..t.schema().fanout(attr) {
                let q = Query::all().and(attr, value as u16).unwrap();
                assert_eq!(idx.count(&q), t.exact_count(&q), "attr {attr} value {value}");
            }
        }
        // multi-predicate queries
        let q = Query::all().and(0, 0).unwrap().and(2, 1).unwrap();
        assert_eq!(idx.count(&q), t.exact_count(&q));
        let q3 = q.and(4, 0).unwrap();
        assert_eq!(idx.count(&q3), t.exact_count(&q3));
    }

    #[test]
    fn matching_rows_ascending_and_truncated() {
        let t = table();
        let idx = TableIndex::build(&t);
        let q = Query::all().and(2, 1).unwrap(); // t3, t4, t5, t6
        assert_eq!(idx.matching_rows(&q, 10), vec![2, 3, 4, 5]);
        assert_eq!(idx.matching_rows(&q, 2), vec![2, 3]);
    }

    #[test]
    fn empty_query_result() {
        let t = table();
        let idx = TableIndex::build(&t);
        let q = Query::all().and(4, 4).unwrap(); // A5=5 never appears
        assert_eq!(idx.count(&q), 0);
        assert!(idx.matching_rows(&q, 10).is_empty());
    }

    #[test]
    fn selection_representations_agree_with_eval() {
        let t = table();
        let idx = TableIndex::build(&t);
        let queries = [
            Query::all(),
            Query::all().and(2, 1).unwrap(),
            Query::all().and(0, 0).unwrap().and(2, 1).unwrap(),
            Query::all().and(0, 0).unwrap().and(2, 1).unwrap().and(3, 0).unwrap(),
            Query::all()
                .and(0, 0)
                .unwrap()
                .and(1, 0)
                .unwrap()
                .and(2, 0)
                .unwrap()
                .and(3, 0)
                .unwrap(),
        ];
        for q in &queries {
            let sel = idx.selection(q);
            let bits = idx.eval(q);
            assert_eq!(sel.count(), bits.count(), "count for {q}");
            assert_eq!(
                sel.iter_ones().collect::<Vec<_>>(),
                bits.iter_ones().collect::<Vec<_>>(),
                "rows for {q}"
            );
            assert_eq!(idx.count(q), bits.count(), "fused count for {q}");
            // zero predicates must not have materialised anything
            if q.is_empty() {
                assert!(matches!(sel, Selection::All { rows: 6 }));
            }
        }
        assert_eq!(idx.posting(2, 1).count(), 4);
    }

    #[test]
    fn value_frequencies() {
        let t = table();
        let idx = TableIndex::build(&t);
        assert_eq!(idx.value_frequency(0, 1), 2);
        assert_eq!(idx.value_frequency(4, 0), 5);
        assert_eq!(idx.value_frequency(4, 2), 1);
        // the stored counts are the postings' popcounts
        for attr in 0..5 {
            for value in 0..t.schema().fanout(attr) {
                assert_eq!(idx.value_frequency(attr, value), idx.posting(attr, value).count());
            }
        }
    }
}

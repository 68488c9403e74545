//! Substrate-focused integration tests: the top-k interface must behave
//! identically whether or not its internal performance machinery (hot
//! response memo, bounded-heap top-k) kicks in, and rankings must only
//! affect *which* tuples overflow returns — never the outcome class.

use hdb_datagen::{bool_iid, uniform_table};
use hdb_interface::{
    AttributeRanking, HiddenDb, Query, RowIdRanking, Schema, SeededRandomRanking, TopKInterface,
};
use std::sync::Arc;

#[test]
fn repeated_queries_return_identical_outcomes() {
    // exercises the hot-response memo: the second answer must be
    // bit-identical to the first
    let table = bool_iid(3_000, 16, 3).unwrap();
    let db = HiddenDb::new(table, 4);
    let queries = [
        Query::all(),
        Query::all().and(0, 1).unwrap(),
        Query::all().and(0, 1).unwrap().and(5, 0).unwrap(),
    ];
    for q in &queries {
        let first = db.query(q).unwrap();
        for _ in 0..3 {
            assert_eq!(db.query(q).unwrap(), first);
        }
    }
    assert_eq!(db.queries_issued(), 12);
}

#[test]
fn outcome_class_is_ranking_invariant() {
    let table = uniform_table(&Schema::boolean(10), 400, 9).unwrap();
    let q_overflow = Query::all();
    let q_mid = Query::all().and(0, 0).unwrap().and(1, 0).unwrap().and(2, 0).unwrap();
    let rankings: Vec<Arc<dyn hdb_interface::RankingFunction>> = vec![
        Arc::new(RowIdRanking),
        Arc::new(SeededRandomRanking { seed: 1 }),
        Arc::new(SeededRandomRanking { seed: 2 }),
        Arc::new(AttributeRanking { attr: 3, descending: true }),
    ];
    let mut classes = Vec::new();
    for ranking in rankings {
        let db = HiddenDb::new(table.clone(), 5).with_ranking(ranking);
        let a = db.query(&q_overflow).unwrap();
        let b = db.query(&q_mid).unwrap();
        classes.push((a.is_overflow(), b.is_overflow(), b.returned_count()));
        // overflow always returns exactly k
        assert_eq!(a.returned_count(), 5);
    }
    // identical outcome classes across rankings
    assert!(classes.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn different_rankings_return_different_top_k() {
    let table = uniform_table(&Schema::boolean(10), 400, 9).unwrap();
    let db1 = HiddenDb::new(table.clone(), 5)
        .with_ranking(Arc::new(SeededRandomRanking { seed: 1 }));
    let db2 = HiddenDb::new(table, 5).with_ranking(Arc::new(SeededRandomRanking { seed: 2 }));
    let a = db1.query(&Query::all()).unwrap();
    let b = db2.query(&Query::all()).unwrap();
    let ids = |o: &hdb_interface::QueryOutcome| -> Vec<u32> {
        o.tuples().iter().map(|t| t.id).collect()
    };
    assert_ne!(ids(&a), ids(&b), "two random rankings almost surely disagree");
}

#[test]
fn valid_queries_return_every_match_in_row_order() {
    let table = uniform_table(&Schema::boolean(8), 100, 2).unwrap();
    let db = HiddenDb::new(table.clone(), 100);
    // choose a query with a handful of matches
    let q = Query::all().and(0, 1).unwrap().and(1, 1).unwrap().and(2, 1).unwrap();
    let exact = table.exact_count(&q);
    let out = db.query(&q).unwrap();
    assert_eq!(out.returned_count(), exact);
    let ids: Vec<u32> = out.tuples().iter().map(|t| t.id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "valid results come in ascending row order");
    for t in out.tuples() {
        assert!(q.matches(&t.tuple));
    }
}

#[test]
fn schema_is_disclosed_but_data_is_not() {
    let table = bool_iid(1_000, 10, 5).unwrap();
    let db = HiddenDb::new(table, 3);
    // the form discloses attributes and domains…
    assert_eq!(db.schema().len(), 10);
    assert_eq!(db.schema().fanout(0), 2);
    // …but an overflowing query reveals only k tuples and a flag
    let out = db.query(&Query::all()).unwrap();
    assert!(out.is_overflow());
    assert_eq!(out.returned_count(), 3);
}

//! Micro-benchmarks of the hidden-database substrate: index construction
//! and query evaluation at several depths, at experiment scale.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hdb_datagen::{bool_iid, yahoo_auto, YahooConfig};
use hdb_interface::{
    HiddenDb, Predicate, Query, SearchBackend, TableBackend, TableIndex, TopKInterface, WalkState,
};
use std::hint::black_box;

fn bench_index_build(c: &mut Criterion) {
    let table = bool_iid(50_000, 40, 1).expect("generation");
    let mut group = c.benchmark_group("index");
    group.sample_size(20);
    group.bench_function("build_50k_x_40", |b| {
        b.iter(|| TableIndex::build(black_box(&table)));
    });
    group.finish();
}

fn bench_query_eval(c: &mut Criterion) {
    let table = bool_iid(100_000, 40, 1).expect("generation");
    let db = HiddenDb::new(table, 100);
    let mut group = c.benchmark_group("query_eval_100k");
    group.sample_size(30);
    for preds in [1usize, 4, 8, 16] {
        let mut q = Query::all();
        for attr in 0..preds {
            q = q.and(attr, (attr % 2) as u16).expect("distinct attrs");
        }
        group.bench_function(format!("predicates_{preds}"), |b| {
            b.iter(|| db.query(black_box(&q)).expect("unlimited"));
        });
    }
    group.finish();
}

fn bench_categorical_eval(c: &mut Criterion) {
    let table = yahoo_auto(YahooConfig { rows: 100_000, seed: 1 }).expect("generation");
    let db = HiddenDb::new(table, 100);
    let q = Query::all().and(0, 0).expect("make").and(1, 0).expect("model");
    c.bench_function("query_eval_yahoo_make_model", |b| {
        b.iter(|| db.query(black_box(&q)).expect("unlimited"));
    });
}

fn bench_overflow_topk(c: &mut Criterion) {
    // the hottest simulator path: top-k over a huge match set, uncached
    let table = bool_iid(100_000, 40, 1).expect("generation");
    let mut group = c.benchmark_group("overflow");
    group.sample_size(10);
    group.bench_function("topk_fresh_db", |b| {
        b.iter_batched(
            || HiddenDb::new(table.clone(), 100),
            |db| db.query(black_box(&Query::all())).expect("unlimited"),
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_walk_session(c: &mut Criterion) {
    // A walk node's AND-count (`classify`) and child materialisation
    // (`extend`) on both sides of the sparse-form crossover in
    // `backend.rs`: two predicates deep a node matches about 125k of 500k
    // rows and stays a dense bitmap; twelve deep it matches about 120 and
    // is stored sparse. Re-check the crossover constant against these.
    let backend = TableBackend::new(bool_iid(500_000, 40, 1).expect("generation"));
    let mut group = c.benchmark_group("walk_session");
    for depth in [2usize, 12] {
        let mut node = Query::all();
        let mut state = backend.walk_state(&node);
        for attr in 0..depth {
            let child = node.and(attr, 1).expect("distinct attrs");
            let pred = Predicate::new(attr, 1);
            state = backend.extend_state(&state, &child, pred, WalkState::fallback());
            node = child;
        }
        let pred = Predicate::new(depth, 1);
        let child = node.and(depth, 1).expect("distinct attrs");
        group.bench_function(format!("classify_depth_{depth}"), |b| {
            b.iter(|| {
                backend.classify_from(black_box(&state), &child, pred, 10).expect("in-process")
            });
        });
        let mut spare = WalkState::fallback();
        group.bench_function(format!("extend_depth_{depth}"), |b| {
            b.iter(|| {
                let recycled = std::mem::take(&mut spare);
                spare = backend.extend_state(black_box(&state), &child, pred, recycled);
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_index_build,
    bench_query_eval,
    bench_categorical_eval,
    bench_overflow_topk,
    bench_walk_session
);
criterion_main!(benches);

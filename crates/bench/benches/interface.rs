//! Micro-benchmarks of the hidden-database substrate: index construction
//! and maintenance under ingest, query evaluation at several depths, and
//! storage checksums, at experiment scale.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hdb_datagen::{bool_iid, yahoo_auto, YahooConfig};
use hdb_interface::storage::wal::crc32;
use hdb_interface::{
    HiddenDb, MemIo, PersistentBackend, Predicate, Query, SearchBackend, SyncPolicy, Table,
    TableBackend, TableIndex, TopKInterface, WalkState,
};
use std::hint::black_box;
use std::sync::Arc;

fn bench_index(c: &mut Criterion) {
    let table = bool_iid(50_000, 40, 1).expect("generation");
    let mut group = c.benchmark_group("index");
    group.sample_size(20);
    group.bench_function("build_50k_x_40", |b| {
        b.iter(|| TableIndex::build(black_box(&table)));
    });
    // 256 ingests into a 50k x 40 store whose index is already built,
    // then one read (the root query's top-k). Each ingest appends its
    // row's bits to the live index, so the read pays no rebuild. The
    // ingested tuples are the tail of the draw whose head is the base,
    // so every one is unique.
    let draw = bool_iid(50_256, 40, 1).expect("generation");
    let (head, ingests) = draw.tuples().split_at(50_000);
    let base = Table::new(draw.schema().clone(), head.to_vec()).expect("unique base");
    group.bench_function("ingest_256_then_read_50k_x_40", |b| {
        b.iter_batched(
            || {
                let io = Box::new(MemIo::new());
                let store = Arc::new(
                    PersistentBackend::create_with(io, SyncPolicy::Never, base.clone())
                        .expect("in-memory store"),
                );
                HiddenDb::over(Arc::clone(&store), 10).query(&Query::all()).expect("unlimited");
                store
            },
            |store| {
                for t in ingests {
                    store.ingest(t.clone()).expect("unique ingest");
                }
                let read = HiddenDb::over(Arc::clone(&store), 10)
                    .query(black_box(&Query::all()))
                    .expect("unlimited");
                // Returned so the store drops outside the measurement.
                (store, read)
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_storage(c: &mut Criterion) {
    // CRC-32 over a 4 MiB body, about one snapshot of 50k x 40: every
    // WAL record, snapshot and recovery read is checksummed.
    let bytes: Vec<u8> =
        (0..4usize << 20).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8).collect();
    let mut group = c.benchmark_group("storage");
    group.bench_function("crc32_4mib", |b| {
        b.iter(|| crc32(black_box(&bytes)));
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
    bench_index,
    bench_query_eval,
    bench_categorical_eval,
    bench_overflow_topk,
    bench_walk_session,
    bench_storage
);
criterion_main!(benches);

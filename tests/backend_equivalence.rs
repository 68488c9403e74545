//! Property tests for the `SearchBackend` contract: every physical
//! substrate must be observationally *bit-identical* — same query
//! outcomes, same ground-truth aggregates, same estimator runs — for the
//! same logical corpus. Random schemas, tables, seeds, shard counts
//! (1–16), and worker counts all go through the same assertions.

use hdb_core::{AggregateSpec, EstimatorConfig, UnbiasedAggEstimator, UnbiasedSizeEstimator};
use hdb_interface::{
    Attribute, HiddenDb, Query, Schema, SearchBackend, ShardedDb, Table, TopKInterface, Tuple,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random schema of 2–5 attributes with fanouts 2–5.
fn schema_strategy() -> impl Strategy<Value = Schema> {
    prop::collection::vec(2usize..=5, 2..=5).prop_map(|fanouts| {
        Schema::new(
            fanouts
                .iter()
                .enumerate()
                .map(|(i, &f)| {
                    Attribute::categorical(format!("a{i}"), (0..f).map(|v| v.to_string()))
                        .expect("fanout ≥ 2")
                })
                .collect(),
        )
        .expect("names unique")
    })
}

/// Strategy: a random non-empty duplicate-free table, a k in 1..=4, and a
/// shard count in 1..=16.
fn db_strategy() -> impl Strategy<Value = (Table, usize, usize)> {
    (schema_strategy(), any::<u64>(), 1usize..=4, 1usize..=16).prop_flat_map(
        |(schema, seed, k, shards)| {
            let capacity = schema.domain_size() as usize;
            (1usize..=capacity.min(40)).prop_map(move |m| {
                let table =
                    hdb_datagen::uniform_table(&schema, m, seed).expect("m within capacity");
                (table, k, shards)
            })
        },
    )
}

/// The root, every single-predicate query, and ~20 random conjunctions.
fn probe_queries(schema: &Schema, query_seed: u64) -> Vec<Query> {
    let mut queries = vec![Query::all()];
    for attr in 0..schema.len() {
        for v in 0..schema.fanout(attr) {
            queries.push(Query::all().and(attr, v as u16).unwrap());
        }
    }
    let mut rng = StdRng::seed_from_u64(query_seed);
    for _ in 0..20 {
        let width = rng.random_range(1..=schema.len());
        let mut attrs: Vec<usize> = (0..schema.len()).collect();
        for i in 0..width {
            let j = rng.random_range(i..attrs.len());
            attrs.swap(i, j);
        }
        let mut q = Query::all();
        for &attr in &attrs[..width] {
            q = q.and(attr, rng.random_range(0..schema.fanout(attr)) as u16).unwrap();
        }
        queries.push(q);
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every query outcome and every exact count must agree, bit for bit,
    /// between the single-table backend and a ShardedDb over the same
    /// corpus — for any shard count and shard-evaluation worker count.
    #[test]
    fn sharded_and_table_backends_answer_identically(
        (table, k, shards) in db_strategy(),
        query_seed in any::<u64>(),
        workers in 1usize..=3,
    ) {
        let plain = HiddenDb::new(table.clone(), k);
        let sharded = HiddenDb::over(ShardedDb::new(&table, shards).with_workers(workers), k);
        for q in probe_queries(table.schema(), query_seed) {
            prop_assert_eq!(
                plain.query(&q).unwrap(),
                sharded.query(&q).unwrap(),
                "outcome diverged at shards={} workers={} for {:?}", shards, workers, &q
            );
            prop_assert_eq!(
                plain.backend().exact_count(&q).unwrap(),
                sharded.backend().exact_count(&q).unwrap()
            );
        }
        prop_assert_eq!(plain.queries_issued(), sharded.queries_issued());
    }

    /// A full estimator run (the paper's headline HD config) must be
    /// bit-identical over both substrates: estimate, per-pass history,
    /// and query accounting.
    #[test]
    fn estimator_runs_are_substrate_independent(
        (table, k, shards) in db_strategy(),
        master_seed in any::<u64>(),
    ) {
        let passes = 40;
        let mut on_table = UnbiasedSizeEstimator::hd(master_seed).unwrap();
        let reference = on_table.run(&HiddenDb::new(table.clone(), k), passes).unwrap();

        let sharded = HiddenDb::over(ShardedDb::new(&table, shards), k);
        let mut on_shards = UnbiasedSizeEstimator::hd(master_seed).unwrap();
        let summary = on_shards.run(&sharded, passes).unwrap();

        prop_assert_eq!(reference.estimate.to_bits(), summary.estimate.to_bits(),
            "estimate diverged at shards={}", shards);
        prop_assert_eq!(on_table.history(), on_shards.history());
        prop_assert_eq!(reference.queries, summary.queries);
    }

    /// Aggregate (COUNT with a selection) estimation through the parallel
    /// engine over a sharded backend with concurrent shard evaluation:
    /// still bit-identical to the plain sequential reference.
    #[test]
    fn parallel_aggregate_runs_are_substrate_independent(
        (table, k, shards) in db_strategy(),
        master_seed in any::<u64>(),
    ) {
        let selection = Query::all().and(0, 0).unwrap();
        let spec = AggregateSpec::count(selection);
        let config = EstimatorConfig::hd_default().with_dub(8).with_r(2);
        let passes = 30;

        let mut reference =
            UnbiasedAggEstimator::new(config.clone(), spec.clone(), master_seed).unwrap();
        let expected = reference.run(&HiddenDb::new(table.clone(), k), passes).unwrap();

        let backend = ShardedDb::new(&table, shards).with_workers(2);
        let mut parallel =
            UnbiasedAggEstimator::new(config, spec, master_seed).unwrap();
        let got = parallel
            .run_parallel(&HiddenDb::over(backend, k), passes, 2)
            .unwrap();

        prop_assert_eq!(expected.estimate.to_bits(), got.estimate.to_bits());
        prop_assert_eq!(reference.history(), parallel.history());
        prop_assert_eq!(expected.queries, got.queries);
    }

    /// Hash partitioning is a partition: shard sizes sum to the corpus and
    /// ground-truth SUM stays bit-identical (ascending-id fold).
    #[test]
    fn shard_partitioning_preserves_ground_truth((table, _, shards) in db_strategy()) {
        let sharded = ShardedDb::new(&table, shards);
        prop_assert_eq!(sharded.len(), table.len());
        let total: usize = (0..sharded.shard_count()).map(|i| sharded.shard_len(i)).sum();
        prop_assert_eq!(total, table.len());
        prop_assert_eq!(sharded.exact_count(&Query::all()).unwrap(), table.exact_count(&Query::all()));
    }
}

/// One deterministic (non-proptest) end-to-end check over a numeric
/// schema: SUM estimation and exact sums agree across substrates.
#[test]
fn sum_estimation_is_substrate_independent() {
    let schema = Schema::new(vec![
        Attribute::boolean("a"),
        Attribute::boolean("b"),
        Attribute::numeric_buckets("price", 6).unwrap(),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..24u16)
        .map(|i| Tuple::new(vec![i & 1, (i >> 1) & 1, i % 6]))
        .collect();
    // de-dup: keep a valid duplicate-free subset
    let table = Table::new_dedup(schema, tuples).unwrap();

    let spec = AggregateSpec::sum(2, Query::all().and(0, 1).unwrap());
    for shards in [1usize, 3, 7, 16] {
        let sharded = ShardedDb::new(&table, shards);
        assert_eq!(
            table.exact_sum(2, &Query::all()).unwrap().to_bits(),
            sharded.exact_sum(2, &Query::all()).unwrap().to_bits()
        );
        let mut a = UnbiasedAggEstimator::new(EstimatorConfig::plain(), spec.clone(), 5).unwrap();
        let mut b = UnbiasedAggEstimator::new(EstimatorConfig::plain(), spec.clone(), 5).unwrap();
        let ra = a.run(&HiddenDb::new(table.clone(), 2), 100).unwrap();
        let rb = b.run(&HiddenDb::over(sharded, 2), 100).unwrap();
        assert_eq!(ra.estimate.to_bits(), rb.estimate.to_bits(), "shards={shards}");
        assert_eq!(a.history(), b.history());
    }
}

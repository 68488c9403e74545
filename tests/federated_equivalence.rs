//! Federation equivalence: a `HiddenDb::over(FederatedBackend, k)` —
//! every shard behind its own `hdb-server`, reached through
//! `RemoteBackend`s — must be **bit-identical** to a local [`ShardedDb`]
//! with the same partitioning: estimates, per-pass histories, query
//! counts, and budget-cut completed-pass sets, across 1–4 servers, fresh
//! and incremental session modes, and 1/2/4 engine workers. The
//! estimators must not be able to tell how many machines the corpus
//! lives on.

use std::sync::Arc;

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::{
    Attribute, FederatedBackend, FleetConfig, HiddenDb, Query, Schema, SearchBackend,
    SessionMode, ShardedDb, Table, Topology, TopKInterface, Tuple,
};
use hdb_server::{RunningServer, Server};
use proptest::prelude::*;

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
/// server count in 1..=4.
fn db_strategy() -> impl Strategy<Value = (Table, usize, usize)> {
    (schema_strategy(), any::<u64>(), 1usize..=4, 1usize..=4).prop_flat_map(
        |(schema, seed, k, parts)| {
            let capacity = schema.domain_size() as usize;
            (1usize..=capacity.min(40)).prop_map(move |m| {
                let table =
                    hdb_datagen::uniform_table(&schema, m, seed).expect("m within capacity");
                (table, k, parts)
            })
        },
    )
}

/// Spins up one `hdb-server` per hash partition of `table` (each serving
/// a one-shard part from [`ShardedDb::partition`]) and returns the fleet
/// plus its topology.
fn fleet(table: &Table, parts: usize) -> (Vec<RunningServer>, Topology) {
    let mut servers = Vec::new();
    let mut topo = Topology::new();
    for (i, part) in ShardedDb::partition(table, parts).into_iter().enumerate() {
        let server = Server::bind(part, "127.0.0.1:0").expect("ephemeral bind");
        topo.add_replica(i, server.addr().to_string());
        servers.push(server);
    }
    (servers, topo)
}

/// Runs the headline HD estimator: `(estimate bits, history, queries)`.
fn hd_run<B: SearchBackend>(
    db: &HiddenDb<B>,
    seed: u64,
    passes: u64,
    workers: usize,
) -> (u64, Vec<f64>, u64) {
    let mut est = UnbiasedSizeEstimator::hd(seed).unwrap();
    let summary = if workers == 1 {
        est.run(db, passes).unwrap()
    } else {
        est.run_parallel(db, passes, workers).unwrap()
    };
    (summary.estimate.to_bits(), est.history().to_vec(), summary.queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance criterion: estimator runs over a fleet of shard
    /// servers are bit-identical to a local `ShardedDb` with the same
    /// partitioning — incremental and fresh session modes, 1/2/4 engine
    /// workers, serial and pooled shard fan-out.
    #[test]
    fn federated_estimator_runs_match_local_sharded_bitwise(
        (table, k, parts) in db_strategy(),
        master_seed in any::<u64>(),
    ) {
        let passes = 20;
        let local = HiddenDb::over(ShardedDb::new(&table, parts), k);
        let reference = hd_run(&local, master_seed, passes, 1);

        let (_servers, topo) = fleet(&table, parts);
        let cfg = FleetConfig { workers: parts.min(2), ..FleetConfig::default() };
        let federated =
            Arc::new(FederatedBackend::connect_with(topo, cfg).expect("fleet up"));
        prop_assert_eq!(federated.len(), table.len());
        prop_assert_eq!(federated.shard_count(), parts);

        for workers in [1usize, 2, 4] {
            let incremental = HiddenDb::over(Arc::clone(&federated), k);
            let got = hd_run(&incremental, master_seed, passes, workers);
            prop_assert_eq!(
                &reference, &got,
                "incremental federated run diverged: parts={}, workers={}", parts, workers
            );
        }
        let fresh = HiddenDb::over(Arc::clone(&federated), k)
            .with_session_mode(SessionMode::Fresh);
        let got = hd_run(&fresh, master_seed, passes, 1);
        prop_assert_eq!(&reference, &got, "fresh federated run diverged (parts={})", parts);
        prop_assert_eq!(federated.failover_count(), 0, "healthy fleet must never fail over");
    }

    /// Budget cuts land on exactly the same query across the fleet: same
    /// completed-pass set, history, estimate, issued count, and ledger
    /// partition — or the same typed error.
    #[test]
    fn federated_budget_cut_runs_match_local(
        (table, k, parts) in db_strategy(),
        master_seed in any::<u64>(),
        budget in 5u64..=100,
    ) {
        let local_db =
            HiddenDb::over(ShardedDb::new(&table, parts), k).with_budget(budget);
        let mut local = UnbiasedSizeEstimator::hd(master_seed).unwrap();
        let reference = local.run(&local_db, 1_000_000);

        let (_servers, topo) = fleet(&table, parts);
        let federated = FederatedBackend::connect(topo).expect("fleet up");
        let fed_db = HiddenDb::over(federated, k).with_budget(budget);
        let mut over_fleet = UnbiasedSizeEstimator::hd(master_seed).unwrap();
        let got = over_fleet.run(&fed_db, 1_000_000);

        match (reference, got) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
                prop_assert_eq!(a.passes, b.passes);
                prop_assert_eq!(a.queries, b.queries);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "outcome shape diverged: {:?} vs {:?}", a, b),
        }
        prop_assert_eq!(local.history(), over_fleet.history());
        prop_assert_eq!(local_db.queries_issued(), fed_db.queries_issued());
        let c = fed_db.counter();
        prop_assert_eq!(
            fed_db.queries_issued(),
            c.underflow_count() + c.valid_count() + c.overflow_count() + c.errored_count(),
        );
    }
}

/// Per-query outcomes, walk-session probes, and owner-side ground truth
/// (exact count and bit-exact float sum) all agree with the local sharded
/// evaluation of the same partitioning.
#[test]
fn outcomes_walks_and_ground_truth_match_per_query() {
    let tuples: Vec<Tuple> =
        (0..48u16).map(|i| Tuple::new(vec![i & 1, (i >> 1) & 1, (i >> 2) & 3, i % 3])).collect();
    let schema = Schema::new(vec![
        Attribute::boolean("a"),
        Attribute::boolean("b"),
        Attribute::categorical("c", ["0", "1", "2", "3"]).unwrap(),
        Attribute::numeric_buckets("p", 3).unwrap(),
    ])
    .unwrap();
    let table = Table::new_dedup(schema, tuples).unwrap();
    let parts = 3;
    let (_servers, topo) = fleet(&table, parts);
    let federated = FederatedBackend::connect(topo).expect("fleet up");

    let local = HiddenDb::over(ShardedDb::new(&table, parts), 2);
    let over_fleet = HiddenDb::over(federated, 2);
    for attr in 0..table.schema().len() {
        for v in 0..table.schema().fanout(attr) {
            let q = Query::all().and(attr, v as u16).unwrap();
            assert_eq!(local.query(&q).unwrap(), over_fleet.query(&q).unwrap(), "{q}");
        }
    }

    // Incremental drill-down sessions agree probe for probe.
    let mut lw = local.walk_session(Query::all()).unwrap();
    let mut fw = over_fleet.walk_session(Query::all()).unwrap();
    for attr in 0..table.schema().len() {
        let out = lw.classify(attr, 1).unwrap();
        assert_eq!(out, fw.classify(attr, 1).unwrap(), "walk probe diverged at {attr}");
        if out.is_overflow() {
            lw.extend(attr, 1);
            fw.extend(attr, 1);
        }
    }

    // Owner-side ground truth crosses the fleet bit-for-bit.
    let q = Query::all().and(0, 1).unwrap();
    assert_eq!(
        over_fleet.backend().exact_count(&q).unwrap(),
        local.backend().exact_count(&q).unwrap()
    );
    assert_eq!(
        over_fleet.backend().exact_sum(3, &q).unwrap().to_bits(),
        local.backend().exact_sum(3, &q).unwrap().to_bits()
    );
    assert_eq!(local.queries_issued(), over_fleet.queries_issued());
}

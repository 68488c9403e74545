//! Property tests for the incremental drill-down evaluation engine: a
//! [`WalkSession`]-driven run must be **bit-identical** to the fresh
//! per-query path — same outcomes, same per-pass histories, same
//! estimates, same query accounting — across backends (`TableBackend`,
//! `ShardedDb` at shard counts 1–16 and shard workers 1–3), engine
//! worker counts, session modes, backtracking strategies, and under
//! budget cuts. The session is a server-CPU optimisation only; these
//! tests are what make that claim load-bearing.

use hdb_core::{
    walk, AggregateSpec, BacktrackStrategy, EstimatorConfig, UnbiasedAggEstimator,
    UnbiasedSizeEstimator,
};
use hdb_interface::{
    Attribute, HiddenDb, Query, Schema, SessionMode, ShardedDb, Table, TopKInterface,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Runs the headline HD estimator and returns `(estimate bits, history,
/// queries)` for a run against `db`.
fn hd_run<B: hdb_interface::SearchBackend>(
    db: &HiddenDb<B>,
    seed: u64,
    passes: u64,
) -> (u64, Vec<f64>, u64) {
    let mut est = UnbiasedSizeEstimator::hd(seed).unwrap();
    let summary = est.run(db, passes).unwrap();
    (summary.estimate.to_bits(), est.history().to_vec(), summary.queries)
}

/// The headline guarantee on one input: incremental sessions (count-only
/// and materialising) produce bit-identical estimator runs to the fresh
/// per-query path, over the single table and over a sharded backend.
fn assert_incremental_runs_match_fresh(
    table: &Table,
    k: usize,
    shards: usize,
    workers: usize,
    master_seed: u64,
) -> Result<(), TestCaseError> {
    let passes = 30;
    let fresh = HiddenDb::new(table.clone(), k).with_session_mode(SessionMode::Fresh);
    let reference = hd_run(&fresh, master_seed, passes);

    let incremental = HiddenDb::new(table.clone(), k);
    prop_assert_eq!(incremental.session_mode(), SessionMode::Incremental);
    let got = hd_run(&incremental, master_seed, passes);
    prop_assert_eq!(&reference, &got, "count-only session diverged");

    let materialized = HiddenDb::new(table.clone(), k)
        .with_session_mode(SessionMode::IncrementalMaterialized);
    let got = hd_run(&materialized, master_seed, passes);
    prop_assert_eq!(&reference, &got, "materialising session diverged");

    let sharded = HiddenDb::over(ShardedDb::new(table, shards).with_workers(workers), k);
    let got = hd_run(&sharded, master_seed, passes);
    prop_assert_eq!(&reference, &got,
        "sharded incremental session diverged at shards={} workers={}", shards, workers);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole guarantee: incremental sessions (count-only and
    /// materialising) produce bit-identical estimator runs to the fresh
    /// per-query path, over the single table and over sharded backends
    /// at any shard/worker count.
    #[test]
    fn incremental_runs_match_fresh_runs_bitwise(
        (table, k, shards) in db_strategy(),
        master_seed in any::<u64>(),
        workers in 1usize..=3,
    ) {
        assert_incremental_runs_match_fresh(&table, k, shards, workers, master_seed)?;
    }

    /// Simple backtracking (the costlier ablation strategy) drives the
    /// session down a different probe pattern — it must stay bit-identical
    /// too, as must parallel engine runs over incremental sessions.
    #[test]
    fn simple_backtracking_and_parallel_engine_match(
        (table, k, shards) in db_strategy(),
        master_seed in any::<u64>(),
        engine_workers in 1usize..=3,
    ) {
        let config = EstimatorConfig::hd_default()
            .with_dub(8)
            .with_r(2)
            .with_backtrack(BacktrackStrategy::Simple);
        let spec = AggregateSpec::count(Query::all().and(0, 0).unwrap());
        let passes = 20;

        let fresh_db = HiddenDb::new(table.clone(), k).with_session_mode(SessionMode::Fresh);
        let mut fresh = UnbiasedAggEstimator::new(config.clone(), spec.clone(), master_seed).unwrap();
        let expected = fresh.run(&fresh_db, passes).unwrap();

        let sharded = HiddenDb::over(ShardedDb::new(&table, shards), k);
        let mut incremental =
            UnbiasedAggEstimator::new(config, spec, master_seed).unwrap();
        let got = incremental.run_parallel(&sharded, passes, engine_workers).unwrap();

        prop_assert_eq!(expected.estimate.to_bits(), got.estimate.to_bits());
        prop_assert_eq!(fresh.history(), incremental.history());
        prop_assert_eq!(expected.queries, got.queries);
    }

    /// Budget cuts must land on exactly the same query for both paths:
    /// identical completed-pass sets, histories, and issued counts when
    /// the interface budget dies mid-walk.
    #[test]
    fn budget_cut_runs_match_fresh_runs(
        (table, k, shards) in db_strategy(),
        master_seed in any::<u64>(),
        budget in 5u64..=120,
    ) {
        let fresh_db = HiddenDb::new(table.clone(), k)
            .with_session_mode(SessionMode::Fresh)
            .with_budget(budget);
        let mut fresh = UnbiasedSizeEstimator::hd(master_seed).unwrap();
        let reference = fresh.run(&fresh_db, 1_000_000);

        let incr_db = HiddenDb::over(ShardedDb::new(&table, shards), k).with_budget(budget);
        let mut incremental = UnbiasedSizeEstimator::hd(master_seed).unwrap();
        let got = incremental.run(&incr_db, 1_000_000);

        match (reference, got) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
                prop_assert_eq!(a.passes, b.passes);
                prop_assert_eq!(a.queries, b.queries);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "outcome shape diverged: {:?} vs {:?}", a, b),
        }
        prop_assert_eq!(fresh.history(), incremental.history());
        prop_assert_eq!(fresh_db.queries_issued(), incr_db.queries_issued());
    }

    /// Raw walk layer: a session drill-down consumes the same RNG stream
    /// and produces the same walk (levels, probability, queries) as the
    /// fresh reference implementation on a twin database.
    #[test]
    fn session_walks_match_fresh_walks(
        (table, k, _) in db_strategy(),
        seed in any::<u64>(),
    ) {
        let schema = table.schema().clone();
        let fresh_db = HiddenDb::new(table.clone(), k).with_session_mode(SessionMode::Fresh);
        let incr_db = HiddenDb::new(table.clone(), k);
        // drill over every attribute, in schema order
        let levels: Vec<usize> = (0..schema.len()).collect();
        let root = Query::all();
        if !fresh_db.query(&root).unwrap().is_overflow() {
            return Ok(()); // drill-downs require an overflowing root
        }
        incr_db.query(&root).unwrap(); // keep the twins' accounting aligned
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let a = walk::drill_down(
                &fresh_db, &root, &[], &levels, &walk::UniformWeights, &mut rng_a).unwrap();
            let b = walk::drill_down(
                &incr_db, &root, &[], &levels, &walk::UniformWeights, &mut rng_b).unwrap();
            prop_assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            prop_assert_eq!(a.queries, b.queries);
            prop_assert_eq!(a.steps(), b.steps());
            prop_assert_eq!(a.is_top_valid(), b.is_top_valid());
            if let (
                walk::WalkTerminal::TopValid { tuples: ta },
                walk::WalkTerminal::TopValid { tuples: tb },
            ) = (&a.terminal, &b.terminal)
            {
                prop_assert_eq!(ta, tb);
            }
        }
        prop_assert_eq!(fresh_db.queries_issued(), incr_db.queries_issued());
    }
}

/// The proptest tables fit in one bitmap word, so their walk nodes never
/// take the sparse form. At 20,000 rows (313 words) and k = 10 the deep
/// overflowing nodes match 11–40 rows and are stored sparse, and so are
/// the per-shard states of a 3-shard backend: this pins that path end to
/// end on a single table and at 1 and 3 shards.
#[test]
fn wide_table_runs_match_fresh_runs_bitwise() {
    let table = hdb_datagen::bool_iid(20_000, 16, 7).expect("valid generator parameters");
    for shards in [1, 3] {
        assert_incremental_runs_match_fresh(&table, 10, shards, 2, 11)
            .unwrap_or_else(|e| panic!("shards={shards}: {e:?}"));
    }
}

/// Accounting pin: a session charges exactly one counter increment per
/// issued probe — memo hits, repeats, underflow, valid, and overflow all
/// included — and the outcome tallies partition the issued count, exactly
/// like the fresh path's contract.
#[test]
fn sessions_charge_one_count_per_issued_query_including_memo_hits() {
    // 60 rows, k=1: the root's child branches massively overflow, so the
    // server memoises them (count > 8k) and repeats become memo hits.
    let tuples: Vec<hdb_interface::Tuple> = (0..60u16)
        .map(|i| hdb_interface::Tuple::new((0..6).map(|b| (i >> b) & 1).collect()))
        .collect();
    let table = Table::new(Schema::boolean(6), tuples).unwrap();
    let db = HiddenDb::new(table, 1);

    let mut sess = db.walk_session(Query::all()).unwrap();
    // first issue: counted and memoised in the count memo (29 matches > 8·k;
    // count-only probes have no overflow page for the full-response memo)
    assert_eq!(db.memoised_counts(), 0);
    assert!(sess.classify(0, 0).unwrap().is_overflow());
    assert_eq!(db.queries_issued(), 1);
    assert_eq!(db.memoised_counts(), 1);
    // the same probe again: answered from the count memo, still charged
    assert!(sess.classify(0, 0).unwrap().is_overflow());
    assert_eq!(db.queries_issued(), 2);
    assert_eq!(db.memoised_counts(), 1, "memo-served repeat must not re-insert");
    // a fresh query for the same node also hits the memo and is charged
    assert!(db.query(&Query::all().and(0, 0).unwrap()).unwrap().is_overflow());
    assert_eq!(db.queries_issued(), 3);
    // full probes and materialising classifies charge identically
    sess.probe(0, 1).unwrap();
    assert_eq!(db.queries_issued(), 4);
    // drill to a valid node and an underflowing one; every probe charges
    sess.extend(0, 0);
    for attr in 1..6 {
        sess.extend(attr, 0);
    }
    for _ in 0..6 {
        sess.retract();
    }
    let before = db.queries_issued();
    sess.extend(0, 0);
    let deep = sess.classify(1, 1).unwrap();
    assert!(deep.is_nonempty());
    assert_eq!(db.queries_issued(), before + 1);
    // tallies partition the issued count exactly
    let c = db.counter();
    assert_eq!(
        c.underflow_count() + c.valid_count() + c.overflow_count() + c.errored_count(),
        db.queries_issued()
    );
}

/// The walk-scoped scratch arena must never leak stale state across
/// retract/extend cycles: after deep zig-zag moves the session still
/// answers exactly like fresh queries.
#[test]
fn zigzag_extend_retract_never_leaks_stale_state() {
    let tuples: Vec<hdb_interface::Tuple> = (0..200u16)
        .map(|i| hdb_interface::Tuple::new((0..8).map(|b| (i >> b) & 1).collect()))
        .collect();
    let table = Table::new(Schema::boolean(8), tuples).unwrap();
    let db = HiddenDb::new(table.clone(), 2);
    let fresh = HiddenDb::new(table, 2).with_session_mode(SessionMode::Fresh);

    let mut sess = db.walk_session(Query::all()).unwrap();
    let mut current = Query::all();
    let mut depth = 0usize;
    // deterministic zig-zag: extend two, retract one, probing both branches
    // of the next attribute at every position
    let mut rng = StdRng::seed_from_u64(7);
    use rand::Rng as _;
    for attr in 0..7usize {
        for v in 0..2u16 {
            let got = sess.classify(attr, v).unwrap();
            let want = fresh.query(&current.and(attr, v).unwrap()).unwrap();
            assert_eq!(got.is_underflow(), want.is_underflow(), "depth {depth} attr {attr}={v}");
            assert_eq!(got.is_overflow(), want.is_overflow());
            assert_eq!(got.tuples(), if want.is_valid() { want.tuples() } else { &[] });
        }
        let v = rng.random_range(0..2u16);
        sess.extend(attr, v);
        current = current.and(attr, v).unwrap();
        depth += 1;
        if depth.is_multiple_of(3) {
            sess.retract();
            let dropped = *current.predicates().last().unwrap();
            current = current.without(dropped.attr);
            depth -= 1;
        }
    }
    assert_eq!(db.queries_issued(), fresh.queries_issued());
}

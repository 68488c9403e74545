//! Loopback equivalence for the serving layer: a
//! `HiddenDb::over(RemoteBackend, k)` driven against an `hdb-server` on
//! 127.0.0.1 must be **bit-identical** to the same corpus evaluated
//! in-process — outcomes, estimates, per-pass histories, query counts,
//! and budget-cut completed-pass sets — for fresh and incremental session
//! modes, table and sharded backends, and 1/2/8 client workers. Transport
//! failures (dead server, lying server, malformed frames) must surface as
//! typed [`HdbError`]s, never as panics or hangs.

use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::{
    Attribute, AttributeRanking, FleetConfig, HdbError, HiddenDb, Query, RankingFunction,
    RemoteBackend, Schema, SearchBackend, SeededRandomRanking, SessionMode, ShardedDb, Table,
    TableBackend, TopKInterface, Tuple, TupleId,
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
/// shard count in 1..=8.
fn db_strategy() -> impl Strategy<Value = (Table, usize, usize)> {
    (schema_strategy(), any::<u64>(), 1usize..=4, 1usize..=8).prop_flat_map(
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

/// Serves `table` (single table or hash-sharded) on an ephemeral loopback
/// port and connects a client.
fn serve(table: &Table, shards: usize) -> (RunningServer, RemoteBackend) {
    let server = if shards <= 1 {
        Server::bind(TableBackend::new(table.clone()), "127.0.0.1:0").expect("bind")
    } else {
        Server::bind(ShardedDb::new(table, shards), "127.0.0.1:0").expect("bind")
    };
    let remote = RemoteBackend::connect(server.addr().to_string()).expect("connect");
    (server, remote)
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
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance criterion: estimator runs over a loopback server
    /// are bit-identical to local runs — fresh and incremental session
    /// modes, 1/2/8 client workers, table and sharded serving backends.
    #[test]
    fn remote_estimator_runs_match_local_bitwise(
        (table, k, shards) in db_strategy(),
        master_seed in any::<u64>(),
    ) {
        let passes = 24;
        let local = HiddenDb::new(table.clone(), k);
        let reference = hd_run(&local, master_seed, passes, 1);

        let (_server, remote) = serve(&table, shards);
        let remote = Arc::new(remote);
        for workers in [1usize, 2, 8] {
            let incremental = HiddenDb::over(Arc::clone(&remote), k);
            let got = hd_run(&incremental, master_seed, passes, workers);
            prop_assert_eq!(
                &reference, &got,
                "incremental remote run diverged: shards={}, workers={}", shards, workers
            );
        }
        let fresh = HiddenDb::over(Arc::clone(&remote), k)
            .with_session_mode(SessionMode::Fresh);
        let got = hd_run(&fresh, master_seed, passes, 1);
        prop_assert_eq!(&reference, &got, "fresh remote run diverged (shards={})", shards);
    }

    /// Budget cuts land on exactly the same query over the wire: same
    /// completed-pass set, history, estimate, and issued count — or the
    /// same error.
    #[test]
    fn remote_budget_cut_runs_match_local(
        (table, k, shards) in db_strategy(),
        master_seed in any::<u64>(),
        budget in 5u64..=100,
    ) {
        let local_db = HiddenDb::new(table.clone(), k).with_budget(budget);
        let mut local = UnbiasedSizeEstimator::hd(master_seed).unwrap();
        let reference = local.run(&local_db, 1_000_000);

        let (_server, remote) = serve(&table, shards);
        let remote_db = HiddenDb::over(remote, k).with_budget(budget);
        let mut over_wire = UnbiasedSizeEstimator::hd(master_seed).unwrap();
        let got = over_wire.run(&remote_db, 1_000_000);

        match (reference, got) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
                prop_assert_eq!(a.passes, b.passes);
                prop_assert_eq!(a.queries, b.queries);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "outcome shape diverged: {:?} vs {:?}", a, b),
        }
        prop_assert_eq!(local.history(), over_wire.history());
        prop_assert_eq!(local_db.queries_issued(), remote_db.queries_issued());
    }
}

#[test]
fn outcomes_and_ground_truth_match_per_query() {
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
    let (_server, remote) = serve(&table, 3);
    let local = HiddenDb::new(table.clone(), 2);
    let over_wire = HiddenDb::over(remote, 2);
    for attr in 0..table.schema().len() {
        for v in 0..table.schema().fanout(attr) {
            let q = Query::all().and(attr, v as u16).unwrap();
            assert_eq!(local.query(&q).unwrap(), over_wire.query(&q).unwrap(), "{q}");
        }
    }
    // owner-side ground truth crosses the wire bit-for-bit
    let q = Query::all().and(0, 1).unwrap();
    assert_eq!(
        over_wire.backend().exact_count(&q).unwrap(),
        local.backend().exact_count(&q).unwrap()
    );
    assert_eq!(
        over_wire.backend().exact_sum(3, &q).unwrap().to_bits(),
        local.backend().exact_sum(3, &q).unwrap().to_bits()
    );
    assert_eq!(local.queries_issued(), over_wire.queries_issued());
}

#[test]
fn shipped_rankings_cross_the_wire_custom_ones_error_typed() {
    let tuples: Vec<Tuple> =
        (0..40u16).map(|i| Tuple::new(vec![i & 1, (i >> 1) & 1, i % 5])).collect();
    let schema = Schema::new(vec![
        Attribute::boolean("a"),
        Attribute::boolean("b"),
        Attribute::numeric_buckets("p", 5).unwrap(),
    ])
    .unwrap();
    let table = Table::new_dedup(schema, tuples).unwrap();
    let (_server, remote) = serve(&table, 1);
    let rankings: Vec<Arc<dyn RankingFunction>> = vec![
        Arc::new(AttributeRanking { attr: 2, descending: true }),
        Arc::new(SeededRandomRanking { seed: 1234 }),
    ];
    for ranking in rankings {
        let local = HiddenDb::new(table.clone(), 2).with_ranking(Arc::clone(&ranking));
        let over_wire = HiddenDb::over(
            RemoteBackend::connect(remote.addr()).unwrap(),
            2,
        )
        .with_ranking(ranking);
        let q = Query::all().and(0, 1).unwrap();
        assert_eq!(local.query(&q).unwrap(), over_wire.query(&q).unwrap());
    }

    // A custom ranking has no wire spec: typed Transport error, no panic,
    // and no silent divergence between client and server ranking.
    struct Opaque;
    impl RankingFunction for Opaque {
        fn score(&self, _s: &Schema, id: TupleId, _t: &Tuple) -> f64 {
            -f64::from(id)
        }
    }
    let over_wire = HiddenDb::over(RemoteBackend::connect(remote.addr()).unwrap(), 2)
        .with_ranking(Arc::new(Opaque));
    match over_wire.query(&Query::all()) {
        Err(HdbError::Transport(msg)) => assert!(msg.contains("wire spec"), "{msg}"),
        other => panic!("expected a typed Transport error, got {other:?}"),
    }
}

/// The pipelining acceptance criterion, measured: a drill-down step —
/// commit a branch (`extend_state`) and probe a child — costs exactly
/// **one** wire round trip, and a chain of deferred extends rides in the
/// probe's single request frame. Results stay bit-identical to the local
/// backend throughout.
#[test]
fn drill_down_extend_plus_probe_costs_one_round_trip() {
    let tuples: Vec<Tuple> =
        (0..64u16).map(|i| Tuple::new(vec![i & 1, (i >> 1) & 1, (i >> 2) & 1, (i >> 3) & 3]))
            .collect();
    let schema = Schema::new(vec![
        Attribute::boolean("a"),
        Attribute::boolean("b"),
        Attribute::boolean("c"),
        Attribute::categorical("d", ["0", "1", "2", "3"]).unwrap(),
    ])
    .unwrap();
    let table = Table::new_dedup(schema, tuples).unwrap();
    let local = TableBackend::new(table.clone());
    let (server, remote) = serve(&table, 1);

    let root = Query::all();
    let l_walk = local.walk_state(&root);
    let r_walk = remote.walk_state(&root);

    // Extending costs zero round trips: the commitment is client-side.
    let child = root.and(0, 1).unwrap();
    let before = remote.requests_sent();
    let l_child = local.extend_state(&l_walk, &child, hdb_interface::Predicate::new(0, 1),
        hdb_interface::WalkState::fallback());
    let r_child = remote.extend_state(&r_walk, &child, hdb_interface::Predicate::new(0, 1),
        hdb_interface::WalkState::fallback());
    assert_eq!(remote.requests_sent(), before, "extend_state must not touch the wire");

    // The probe carries the pending extend: ONE round trip.
    let probe = child.and(1, 0).unwrap();
    let pred = hdb_interface::Predicate::new(1, 0);
    let before = remote.requests_sent();
    let l_got = local.classify_from(&l_child, &probe, pred, 2).unwrap();
    let r_got = remote.classify_from(&r_child, &probe, pred, 2).unwrap();
    assert_eq!(l_got, r_got, "chained probe must be bit-identical to local");
    assert_eq!(remote.requests_sent(), before + 1, "extend+probe must be one round trip");

    // A chain of deferred extends still resolves in one exchange: one
    // request frame, one reply.
    let c2 = child.and(1, 1).unwrap();
    let c3 = c2.and(2, 0).unwrap();
    let l2 = local.extend_state(&l_child, &c2, hdb_interface::Predicate::new(1, 1),
        hdb_interface::WalkState::fallback());
    let l3 = local.extend_state(&l2, &c3, hdb_interface::Predicate::new(2, 0),
        hdb_interface::WalkState::fallback());
    let r2 = remote.extend_state(&r_child, &c2, hdb_interface::Predicate::new(1, 1),
        hdb_interface::WalkState::fallback());
    let r3 = remote.extend_state(&r2, &c3, hdb_interface::Predicate::new(2, 0),
        hdb_interface::WalkState::fallback());
    let probe2 = c3.and(3, 2).unwrap();
    let pred2 = hdb_interface::Predicate::new(3, 2);
    let before = remote.requests_sent();
    let frames_before = server.frame_count();
    let l_chained = local.classify_from(&l3, &probe2, pred2, 2).unwrap();
    let r_chained = remote.classify_from(&r3, &probe2, pred2, 2).unwrap();
    assert_eq!(l_chained, r_chained, "chained probe must be bit-identical to local");
    assert_eq!(
        remote.requests_sent(),
        before + 1,
        "two extends + probe must still be one round trip"
    );
    assert_eq!(server.frame_count(), frames_before + 1, "two extends + probe must be one frame");

    // After resolution the chain is committed: the next probe from the
    // same node is a plain single-round-trip walk probe.
    let before = remote.requests_sent();
    let l_again = local.classify_from(&l3, &probe2, pred2, 2).unwrap();
    let r_again = remote.classify_from(&r3, &probe2, pred2, 2).unwrap();
    assert_eq!(l_again, r_again);
    assert_eq!(remote.requests_sent(), before + 1);

    // Every node of the chain committed at its own level: a probe from
    // the middle one reads that node's state, not its child's.
    let probe_mid = c2.and(2, 1).unwrap();
    let pred_mid = hdb_interface::Predicate::new(2, 1);
    let before = remote.requests_sent();
    let l_mid = local.classify_from(&l2, &probe_mid, pred_mid, 2).unwrap();
    let r_mid = remote.classify_from(&r2, &probe_mid, pred_mid, 2).unwrap();
    assert_eq!(l_mid, r_mid, "a chain's middle node must commit at its own level");
    assert_eq!(remote.requests_sent(), before + 1);
}

/// A valid page of the whole corpus crosses the wire as one reply frame
/// and decodes bit-identically — on both a fast reader (the pooled
/// client) and a deliberately slow one.
#[test]
fn oversized_pages_cross_in_one_frame_and_survive_slow_readers() {
    let schema = Schema::boolean(12);
    let table = hdb_datagen::uniform_table(&schema, 2500, 99).unwrap();
    let local = TableBackend::new(table.clone());
    let (server, remote) = serve(&table, 1);

    // A 2500-tuple page is one frame of about 80 KB, far more than one
    // socket write; the client must hand back the identical evaluation.
    let k = table.len();
    let l_eval = local.evaluate(&Query::all(), k, &hdb_interface::RowIdRanking).unwrap();
    let r_eval = remote.evaluate(&Query::all(), k, &hdb_interface::RowIdRanking).unwrap();
    assert_eq!(l_eval.top.len(), 2500);
    assert_eq!(l_eval, r_eval, "a whole-corpus page must cross bit-identically");

    // Slow writer: the same request trickled a byte at a time; slow
    // reader: responses consumed through a 7-byte-per-read window. The
    // server must tolerate both sides stalling mid-frame.
    use hdb_interface::wire::{read_frame, write_frame, Request, Response};
    struct Trickle<R>(R);
    impl<R: std::io::Read> std::io::Read for Trickle<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(7);
            self.0.read(&mut buf[..n])
        }
    }
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let req = Request::Evaluate {
        query: Query::all(),
        k: k as u64,
        ranking: hdb_interface::RankingSpec::RowId,
    };
    let mut framed = Vec::new();
    write_frame(&mut framed, &req.encode().unwrap()).unwrap();
    for byte in &framed {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
    }
    let mut slow = Trickle(stream);
    let payload = read_frame(&mut slow).unwrap().expect("one reply frame");
    match Response::decode(&payload).unwrap() {
        Response::Evaluation(ev) => assert_eq!(ev, l_eval),
        other => panic!("expected an Evaluation, got {other:?}"),
    }
}

/// Satellite regression pin: a query that fails *after* it was charged
/// (dead server mid-run) lands in the `errored` tally, keeping the
/// ledger partition `issued = underflow + valid + overflow + errored`
/// exact instead of silently leaking the count.
#[test]
fn charged_but_failed_queries_land_in_the_errored_tally() {
    let tuples: Vec<Tuple> =
        (0..8u16).map(|i| Tuple::new(vec![i & 1, (i >> 1) & 1, (i >> 2) & 1])).collect();
    let table = Table::new(Schema::boolean(3), tuples).unwrap();
    let (server, remote) = serve(&table, 1);
    let db = HiddenDb::over(remote, 1);
    assert!(db.query(&Query::all()).unwrap().is_overflow());
    server.shutdown();
    assert!(matches!(db.query(&Query::all()), Err(HdbError::Transport(_))));
    let c = db.counter();
    assert_eq!(c.errored_count(), 1, "the charged-but-failed query must be tallied");
    assert_eq!(
        db.queries_issued(),
        c.underflow_count() + c.valid_count() + c.overflow_count() + c.errored_count(),
        "the outcome tallies must partition the issued count exactly"
    );
}

#[test]
fn dead_server_surfaces_typed_transport_errors() {
    let tuples: Vec<Tuple> =
        (0..8u16).map(|i| Tuple::new(vec![i & 1, (i >> 1) & 1, (i >> 2) & 1])).collect();
    let table = Table::new(Schema::boolean(3), tuples).unwrap();
    let (server, remote) = serve(&table, 1);
    let db = HiddenDb::over(remote, 1);
    assert!(db.query(&Query::all()).unwrap().is_overflow());
    let issued_before = db.queries_issued();
    server.shutdown();
    // the pooled connection is now dead and no server is listening
    match db.query(&Query::all()) {
        Err(HdbError::Transport(_)) => {}
        other => panic!("expected Transport error from a dead server, got {other:?}"),
    }
    // the failed query was charged (it went out) but nothing panicked and
    // the interface object remains usable for error inspection
    assert_eq!(db.queries_issued(), issued_before + 1);
}

#[test]
fn lying_server_surfaces_typed_transport_errors() {
    // A "server" that answers every frame with garbage bytes.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let liar = std::thread::spawn(move || {
        // serve exactly one connection, then exit
        if let Ok((mut stream, _)) = listener.accept() {
            let mut buf = [0u8; 1024];
            while let Ok(n) = stream.read(&mut buf) {
                if n == 0 {
                    break;
                }
                // a well-formed frame whose payload decodes to nothing
                let garbage = [4u8, 0, 0, 0, 0xEE, 1, 2, 3];
                if stream.write_all(&garbage).is_err() {
                    break;
                }
            }
        }
    });
    match RemoteBackend::connect(addr.to_string()) {
        Err(HdbError::Transport(msg)) => assert!(msg.contains("frame"), "{msg}"),
        other => panic!("expected Transport error from garbage frames, got {other:?}"),
    }
    liar.join().unwrap();
}

#[test]
fn unreachable_address_is_a_typed_connect_error() {
    // Port 1 on loopback: nothing listens there.
    let cfg = FleetConfig { io_timeout: Duration::from_secs(2), ..FleetConfig::default() };
    match RemoteBackend::connect_with(["127.0.0.1:1"], cfg) {
        Err(HdbError::Transport(msg)) => assert!(msg.contains("connect"), "{msg}"),
        other => panic!("expected a typed connect error, got {other:?}"),
    }
}

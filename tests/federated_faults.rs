//! Fault injection for the federated serving fleet: every failover path
//! must end in either a **bit-identical** result (the failure was
//! absorbed) or a **typed** [`HdbError::Transport`] (the failure was
//! surfaced) — never a panic, a hang, or a silently wrong answer — and
//! the accounting partition `issued == underflow + valid + overflow +
//! errored` must hold throughout.
//!
//! Faults come from two directions: killing real servers (the in-process
//! equivalent of SIGTERM-ing a fleet member — `RunningServer::shutdown`
//! runs the same drain path the binary's signal handler does), and
//! [`FaultProxy`] schedules that corrupt, drop, reset, or half-close the
//! wire at exact frame boundaries. Every test is seeded and
//! deterministic.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::wire::{read_frame, write_frame, Request, Response};
use hdb_interface::{
    AttrId, Evaluation, FederatedBackend, FleetConfig, HdbError, HiddenDb, Query, RankingFunction,
    RankingSpec, RemoteBackend, Schema, SearchBackend, ShardedDb, Table, TableBackend,
    TopKInterface, Topology, Tuple, TupleId,
};
use hdb_repro::testkit::{Fault, FaultProxy, FaultSchedule};
use hdb_server::{RunningServer, Server, ServerConfig};

/// A small deterministic boolean corpus.
fn table(rows: u16, attrs: usize) -> Table {
    let tuples: Vec<Tuple> = (0..rows)
        .map(|i| Tuple::new((0..attrs).map(|b| (i >> b) & 1).collect()))
        .collect();
    Table::new(Schema::boolean(attrs), tuples).unwrap()
}

/// One server per hash partition; returns the fleet and its topology.
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

/// A second, independent server for part `index` of the same
/// partitioning — a replica with the identical corpus slice.
fn replica_of(table: &Table, parts: usize, index: usize) -> RunningServer {
    let part = ShardedDb::partition(table, parts)
        .into_iter()
        .nth(index)
        .expect("index < parts");
    Server::bind(part, "127.0.0.1:0").expect("ephemeral bind")
}

/// Failover tuning for tests: tight timeouts so injected hangs resolve in
/// milliseconds, not the production 30 s.
fn test_cfg() -> FleetConfig {
    FleetConfig {
        retries: 3,
        backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(10),
        io_timeout: Duration::from_millis(250),
        ..FleetConfig::default()
    }
}

/// One raw-wire exchange on `stream`.
fn ask(stream: &mut TcpStream, req: &Request) -> Response {
    write_frame(stream, &req.encode().unwrap()).unwrap();
    Response::decode(&read_frame(stream).unwrap().unwrap()).unwrap()
}

fn assert_ledger_partition<B: SearchBackend>(db: &HiddenDb<B>) {
    let c = db.counter();
    assert_eq!(
        db.queries_issued(),
        c.underflow_count() + c.valid_count() + c.overflow_count() + c.errored_count(),
        "outcome tallies must partition the issued count exactly"
    );
}

/// Killing a shard's primary mid-estimation fails over to its replica
/// without changing a single bit of the estimate, the history, or the
/// query count. The kill races the run on purpose: *whenever* it lands,
/// the probes before it went to the primary and the probes after it to
/// the replica, and both serve the identical partition — so any
/// interleaving must produce the reference bits.
#[test]
fn killing_a_shard_mid_estimation_fails_over_bit_identically() {
    let t = table(64, 6);
    let parts = 2;
    let master_seed = 0xFED_2026;
    let passes = 40;

    let reference = {
        let local = HiddenDb::over(ShardedDb::new(&t, parts), 3);
        let mut est = UnbiasedSizeEstimator::hd(master_seed).unwrap();
        let summary = est.run(&local, passes).unwrap();
        (summary.estimate.to_bits(), est.history().to_vec(), summary.queries)
    };

    let (servers, mut topo) = fleet(&t, parts);
    let standby = replica_of(&t, parts, 0);
    topo.add_replica(0, standby.addr().to_string());

    let federated = Arc::new(FederatedBackend::connect_with(topo, test_cfg()).unwrap());
    let db = HiddenDb::over(Arc::clone(&federated), 3);
    let runner = {
        let federated = Arc::clone(&federated);
        std::thread::spawn(move || {
            let db = HiddenDb::over(federated, 3);
            let mut est = UnbiasedSizeEstimator::hd(master_seed).unwrap();
            let summary = est.run(&db, passes).unwrap();
            (summary.estimate.to_bits(), est.history().to_vec(), summary.queries)
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    let mut servers = servers;
    servers.remove(0).shutdown(); // kill shard 0's primary mid-run

    let got = runner.join().expect("estimation must survive the kill");
    assert_eq!(got, reference, "failover changed the estimate");

    // The dead primary stays dead; the fleet keeps serving through the
    // replica afterwards too.
    let mut est = UnbiasedSizeEstimator::hd(master_seed).unwrap();
    let summary = est.run(&db, passes).unwrap();
    assert_eq!(summary.estimate.to_bits(), reference.0);
    assert_ledger_partition(&db);
}

/// The deterministic variant: probe, kill, probe. Walk states rooted on
/// the dead primary name sessions the replica never opened, so the
/// replica evaluates them fresh or the shard client re-roots there, and
/// the answers stay bit-identical.
#[test]
fn walk_probes_survive_a_primary_kill_between_probes() {
    let t = table(48, 6);
    let parts = 2;
    let local = HiddenDb::over(ShardedDb::new(&t, parts), 2);

    let (servers, mut topo) = fleet(&t, parts);
    let standby = replica_of(&t, parts, 0);
    topo.add_replica(0, standby.addr().to_string());
    let federated = FederatedBackend::connect_with(topo, test_cfg()).unwrap();
    let fed_db = HiddenDb::over(federated, 2);

    let mut lw = local.walk_session(Query::all()).unwrap();
    let mut fw = fed_db.walk_session(Query::all()).unwrap();
    assert_eq!(lw.classify(0, 1).unwrap(), fw.classify(0, 1).unwrap());
    lw.extend(0, 1);
    fw.extend(0, 1);

    let mut servers = servers;
    servers.remove(0).shutdown(); // shard 0's sessions die with it

    // Same session, same walk — the probes after the kill must come back
    // identical through the replica (unknown session → fresh evaluation).
    for attr in 1..t.schema().len() {
        assert_eq!(
            lw.classify(attr, 1).unwrap(),
            fw.classify(attr, 1).unwrap(),
            "post-kill walk probe diverged at {attr}"
        );
    }
    assert_eq!(local.queries_issued(), fed_db.queries_issued());
    assert_ledger_partition(&fed_db);
}

/// The replica a shard fails over to already holds a session under the
/// fleet walk's sid — another client's walk, opened over raw wire — and
/// the fleet's probes after the kill name that sid. The server's level
/// check must keep every answer bit-identical to a local `ShardedDb`,
/// and leave the other walk's session as it was.
#[test]
fn failover_onto_a_replica_reusing_the_sid_stays_bit_identical() {
    let t = table(64, 6);
    let (mut servers, mut topo) = fleet(&t, 1);
    let standby = replica_of(&t, 1, 0);
    topo.add_replica(0, standby.addr().to_string());

    // Another walk commits four levels under sid 1 on the standby.
    let mut other = TcpStream::connect(standby.addr()).unwrap();
    let open = Request::WalkOpen { root: Query::all() };
    assert_eq!(ask(&mut other, &open), Response::Session { sid: 1 });
    let mut below = Query::all();
    for (attr, value) in [(1usize, 0u16), (2, 1), (3, 0), (4, 1)] {
        below = below.and(attr, value).unwrap();
    }
    let commit = Request::WalkClassify {
        sid: 1,
        parent_level: 0,
        extends: 4,
        child: below.and(5, 0).unwrap(),
        k: 2,
    };
    assert!(matches!(ask(&mut other, &commit), Response::Classified(_)));

    let federated = FederatedBackend::connect_with(topo, test_cfg()).unwrap();
    let fed_db = HiddenDb::over(federated, 2);
    let local = HiddenDb::over(ShardedDb::new(&t, 1), 2);
    // The fleet's walk opens sid 1 on the primary and commits four
    // levels of its own there.
    let mut lw = local.walk_session(Query::all()).unwrap();
    let mut fw = fed_db.walk_session(Query::all()).unwrap();
    for (attr, value) in [(0usize, 1u16), (1, 1), (2, 0), (3, 1)] {
        lw.extend(attr, value);
        fw.extend(attr, value);
        assert_eq!(lw.classify(5, 1).unwrap(), fw.classify(5, 1).unwrap());
    }
    servers.remove(0).shutdown();

    // From the committed level 4 with no extends, then from level 3
    // carrying a fresh extend: both name sid 1 on the standby.
    for value in [0, 1] {
        assert_eq!(lw.classify(4, value).unwrap(), fw.classify(4, value).unwrap());
    }
    lw.retract();
    fw.retract();
    lw.extend(3, 0);
    fw.extend(3, 0);
    for (attr, value) in [(4, 1), (4, 0), (5, 1)] {
        assert_eq!(lw.classify(attr, value).unwrap(), fw.classify(attr, value).unwrap());
    }
    assert_eq!(local.queries_issued(), fed_db.queries_issued());
    assert_ledger_partition(&fed_db);
    let kept = standby.session_steps(1);
    let theirs = Some(below.predicates().to_vec());
    assert_eq!(kept, theirs, "the other walk's session must keep its stack");
}

/// A garbled response frame is a reply that did not decode, which the
/// retry loop treats like no reply at all: fail over to the direct
/// replica, re-probe — bit-identically.
#[test]
fn garbled_frame_fails_over_to_replica_bit_identically() {
    let t = table(32, 5);
    let (servers, _topo) = fleet(&t, 1);

    // Handshake (Hello, Schema, Len) passes clean; the 4th response —
    // the first probe — is garbled.
    let mut proxy = FaultProxy::spawn(
        servers[0].addr().to_string(),
        FaultSchedule::clean(),
        FaultSchedule::script(vec![Fault::Forward, Fault::Forward, Fault::Forward, Fault::Garble]),
    )
    .unwrap();
    let mut topo = Topology::new();
    topo.add_replica(0, proxy.addr());
    topo.add_replica(0, servers[0].addr().to_string());

    let federated = FederatedBackend::connect_with(topo, test_cfg()).unwrap();
    let fed_db = HiddenDb::over(federated, 2);
    let local = HiddenDb::over(ShardedDb::new(&t, 1), 2);

    for attr in 0..t.schema().len() {
        let q = Query::all().and(attr, 1).unwrap();
        assert_eq!(local.query(&q).unwrap(), fed_db.query(&q).unwrap(), "{q}");
    }
    assert!(proxy.faults_injected() >= 1, "the garble must actually have fired");
    assert_ledger_partition(&fed_db);
    proxy.shutdown();
}

/// A connection reset before the reply to a walk probe carrying two
/// extends makes the retry loop re-send the whole probe — which must be
/// safe, because extends replay idempotently. The probe's answer stays
/// bit-identical and the server's session holds the two steps once.
#[test]
fn reset_before_a_probes_reply_replays_its_extends_idempotently() {
    let t = table(64, 6);
    let (servers, _topo) = fleet(&t, 1);

    // s2c frames: Hello, Schema, Len (handshake), WalkOpen's Session,
    // then the chained probe's reply. Reset on frame 5 = that reply,
    // after the server committed the chain.
    let mut proxy = FaultProxy::spawn(
        servers[0].addr().to_string(),
        FaultSchedule::clean(),
        FaultSchedule::script(vec![
            Fault::Forward,
            Fault::Forward,
            Fault::Forward,
            Fault::Forward,
            Fault::Reset,
        ]),
    )
    .unwrap();
    let mut topo = Topology::new();
    topo.add_replica(0, proxy.addr());

    let federated = FederatedBackend::connect_with(topo, test_cfg()).unwrap();
    let fed_db = HiddenDb::over(federated, 2);
    let local = HiddenDb::over(ShardedDb::new(&t, 1), 2);

    let mut lw = local.walk_session(Query::all()).unwrap();
    let mut fw = fed_db.walk_session(Query::all()).unwrap();
    // Two deferred extends, then a probe: the probe carries both extends
    // — the exchange the reset lands in.
    lw.extend(0, 1);
    fw.extend(0, 1);
    lw.extend(1, 0);
    fw.extend(1, 0);
    assert_eq!(
        lw.classify(2, 1).unwrap(),
        fw.classify(2, 1).unwrap(),
        "chained probe replay after a reset diverged"
    );
    // The session survived the replay: further probes stay identical.
    assert_eq!(lw.classify(3, 0).unwrap(), fw.classify(3, 0).unwrap());
    assert_eq!(servers[0].session_count(), 1);
    let steps = servers[0].session_steps(1).map(|s| s.len());
    assert_eq!(steps, Some(2), "the replay must not push the chain twice");
    assert!(proxy.faults_injected() >= 1, "the reset must actually have fired");
    assert_ledger_partition(&fed_db);
    proxy.shutdown();
}

/// The server-side half of replay safety, pinned at the wire: the *same*
/// probe carrying two extends, sent twice on one session, returns
/// byte-identical responses both times (truncate-to-parent-then-push
/// makes the second application a no-op), and the session's stack holds
/// the two steps once. This is the idempotence the retry loop relies on.
#[test]
fn probe_with_extends_replays_idempotently_on_the_server() {
    let t = table(64, 6);
    let (servers, _topo) = fleet(&t, 1);
    let mut stream = std::net::TcpStream::connect(servers[0].addr()).unwrap();

    fn send(stream: &mut std::net::TcpStream, req: &Request) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &req.encode().unwrap()).unwrap();
        use std::io::Write as _;
        stream.write_all(&framed).unwrap();
    }
    fn reply(stream: &mut std::net::TcpStream) -> Response {
        Response::decode(&read_frame(stream).unwrap().unwrap()).unwrap()
    }
    let hello = Request::Hello { version: hdb_interface::wire::PROTOCOL_VERSION };
    send(&mut stream, &hello);
    let _ = reply(&mut stream);

    send(&mut stream, &Request::WalkOpen { root: Query::all() });
    let sid = match reply(&mut stream) {
        Response::Session { sid } => sid,
        other => panic!("expected Session, got {other:?}"),
    };

    let probe = Query::all().and(0, 1).unwrap().and(1, 0).unwrap().and(2, 1).unwrap();
    let chained =
        Request::WalkClassify { sid, parent_level: 0, extends: 2, child: probe.clone(), k: 2 };
    assert!(chained.replayable(), "walk probes carrying extends must be replayable");
    assert!(!Request::WalkOpen { root: Query::all() }.replayable());

    let mut exchange = |req: &Request| {
        send(&mut stream, req);
        reply(&mut stream)
    };
    let first = exchange(&chained);
    let second = exchange(&chained); // the blind replay
    assert_eq!(first, second, "replaying a committed chain must be a no-op");
    assert_eq!(servers[0].session_count(), 1);
    let steps = servers[0].session_steps(sid).map(|s| s.len());
    assert_eq!(steps, Some(2), "the replay must not push the chain twice");

    // The stack is healthy: a follow-up probe from the replayed level
    // answers, and matches the ground truth of the probed query.
    send(&mut stream, &Request::WalkClassify {
        sid,
        parent_level: 2,
        extends: 0,
        child: probe.clone(),
        k: 2,
    });
    let after = match reply(&mut stream) {
        Response::Classified(c) => c,
        other => panic!("expected Classified, got {other:?}"),
    };
    send(&mut stream, &Request::Evaluate { query: probe, k: 2, ranking: RankingSpec::RowId });
    let fresh = match reply(&mut stream) {
        Response::Evaluation(ev) => ev,
        other => panic!("expected Evaluation, got {other:?}"),
    };
    assert_eq!(after.count, fresh.count, "session state corrupted by the replay");
}

/// A peer that completes the handshake and then goes silent (every
/// further client→server frame dropped) pins the slow-half-open path:
/// the client's I/O timeout fires, the shard fails over to the direct
/// replica, and the answers stay bit-identical.
#[test]
fn slow_half_open_peer_times_out_and_fails_over() {
    let t = table(32, 5);
    let (servers, _topo) = fleet(&t, 1);

    let mut proxy = FaultProxy::spawn(
        servers[0].addr().to_string(),
        FaultSchedule::script_then(
            vec![Fault::Forward, Fault::Forward, Fault::Forward],
            Fault::Drop,
        ),
        FaultSchedule::clean(),
    )
    .unwrap();
    let mut topo = Topology::new();
    topo.add_replica(0, proxy.addr());
    topo.add_replica(0, servers[0].addr().to_string());

    let federated = FederatedBackend::connect_with(topo, test_cfg()).unwrap();
    let fed_db = HiddenDb::over(federated, 2);
    let local = HiddenDb::over(ShardedDb::new(&t, 1), 2);
    let q = Query::all().and(0, 1).unwrap();
    assert_eq!(local.query(&q).unwrap(), fed_db.query(&q).unwrap());
    assert_ledger_partition(&fed_db);
    proxy.shutdown();
}

/// When every replica is gone and the retry budget runs dry, the probe
/// surfaces as a typed `Transport` error, tallies as `Errored`, and the
/// ledger partition stays exact — the failure is *accounted*, not
/// leaked.
#[test]
fn exhausted_retries_surface_typed_and_tally_errored() {
    let t = table(16, 4);
    let (servers, topo) = fleet(&t, 2);
    let cfg = FleetConfig {
        retries: 1,
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        io_timeout: Duration::from_millis(100),
        ..FleetConfig::default()
    };
    let federated = FederatedBackend::connect_with(topo, cfg).unwrap();
    let fed_db = HiddenDb::over(federated, 2);
    assert!(fed_db.query(&Query::all()).unwrap().is_overflow());

    for server in servers {
        server.shutdown();
    }
    match fed_db.query(&Query::all()) {
        Err(HdbError::Transport(_)) => {}
        other => panic!("expected a typed Transport error, got {other:?}"),
    }
    let c = fed_db.counter();
    assert_eq!(c.errored_count(), 1, "the charged-but-failed probe must be tallied");
    assert_ledger_partition(&fed_db);
}

/// Topology handoff: drain the serving replica while the backend is
/// live. The next probe fails over to the standby (one recorded
/// failover), answers bit-identically, and the drained server can be
/// shut down without the fleet noticing.
#[test]
fn drain_hands_off_to_the_standby_bit_identically() {
    let t = table(48, 6);
    let parts = 2;
    let (mut servers, mut topo) = fleet(&t, parts);
    let standby = replica_of(&t, parts, 0);
    topo.add_replica(0, standby.addr().to_string());

    let federated = FederatedBackend::connect_with(topo, test_cfg()).unwrap();
    let primary_addr = servers[0].addr().to_string();
    assert_eq!(federated.shard_addr(0), Some(primary_addr.clone()));

    let fed_db = HiddenDb::over(federated, 2);
    let local = HiddenDb::over(ShardedDb::new(&t, parts), 2);
    let q0 = Query::all().and(0, 1).unwrap();
    assert_eq!(local.query(&q0).unwrap(), fed_db.query(&q0).unwrap());

    assert!(fed_db.backend().drain(0, &primary_addr).unwrap());
    servers.remove(0).shutdown();

    for attr in 0..t.schema().len() {
        let q = Query::all().and(attr, 1).unwrap();
        assert_eq!(local.query(&q).unwrap(), fed_db.query(&q).unwrap(), "{q}");
    }
    assert_eq!(fed_db.backend().shard_addr(0), Some(standby.addr().to_string()));
    assert!(fed_db.backend().failover_count() >= 1, "the drain is a recorded handoff");
    assert_ledger_partition(&fed_db);
}

/// The background health checker notices a dead shard (marks it dark)
/// and pre-reconnects it to the standby before the next probe arrives.
#[test]
fn health_checker_detects_death_and_restores_coverage() {
    let t = table(32, 5);
    let (mut servers, mut topo) = fleet(&t, 1);
    let standby = replica_of(&t, 1, 0);
    topo.add_replica(0, standby.addr().to_string());

    let cfg = FleetConfig {
        health_interval: Some(Duration::from_millis(15)),
        ..test_cfg()
    };
    let federated = FederatedBackend::connect_with(topo, cfg).unwrap();
    assert_eq!(federated.shard_health(), vec![true]);

    servers.remove(0).shutdown();
    // Give the checker a few ticks: it must ping, invalidate the dead
    // connection, and reconnect to the standby.
    let mut healed = false;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(10));
        if federated.shard_health() == vec![true]
            && federated.shard_addr(0) == Some(standby.addr().to_string())
        {
            healed = true;
            break;
        }
    }
    assert!(healed, "health checker never restored coverage via the standby");

    let local = HiddenDb::over(ShardedDb::new(&t, 1), 2);
    let fed_db = HiddenDb::over(federated, 2);
    let q = Query::all().and(0, 1).unwrap();
    assert_eq!(local.query(&q).unwrap(), fed_db.query(&q).unwrap());
}

/// Seeded chaos sweep: random fault schedules (drops, delays, garbles,
/// resets) between the fleet and one shard, with a clean standby to fail
/// over to. Whatever the schedule does, every estimator run must end in
/// either the reference bits or a typed `Transport` error — and the
/// ledger partition must hold. Same seeds, same schedules, every run.
#[test]
fn seeded_chaos_schedules_end_bit_identical_or_typed() {
    let t = table(48, 6);
    let parts = 2;
    let master_seed = 77;
    let passes = 8;

    let reference = {
        let local = HiddenDb::over(ShardedDb::new(&t, parts), 2);
        let mut est = UnbiasedSizeEstimator::hd(master_seed).unwrap();
        est.run(&local, passes).unwrap().estimate.to_bits()
    };

    for chaos_seed in [1u64, 2, 3, 4] {
        let (servers, _topo) = fleet(&t, parts);
        let mut proxy = FaultProxy::spawn(
            servers[0].addr().to_string(),
            FaultSchedule::clean(),
            FaultSchedule::seeded(chaos_seed, 60),
        )
        .unwrap();
        let mut topo = Topology::new();
        topo.add_replica(0, proxy.addr());
        topo.add_replica(0, servers[0].addr().to_string()); // clean standby
        topo.add_replica(1, servers[1].addr().to_string());

        let federated = FederatedBackend::connect_with(topo, test_cfg()).unwrap();
        let fed_db = HiddenDb::over(federated, 2);
        let mut est = UnbiasedSizeEstimator::hd(master_seed).unwrap();
        match est.run(&fed_db, passes) {
            Ok(summary) => assert_eq!(
                summary.estimate.to_bits(),
                reference,
                "chaos seed {chaos_seed} changed the estimate"
            ),
            Err(hdb_core::EstimatorError::Interface(HdbError::Transport(_))) => {} // typed
            Err(other) => panic!("chaos seed {chaos_seed}: unexpected error {other:?}"),
        }
        assert_ledger_partition(&fed_db);
        proxy.shutdown();
    }
}

/// A corpus whose evaluations never answer usefully. With no delay,
/// each fails with a transport error the server sends back as an error
/// frame; with a delay, each first sleeps that long, so a client whose
/// `io_timeout` is shorter never sees a reply.
struct Stubborn {
    inner: TableBackend,
    delay: Option<Duration>,
}

impl SearchBackend for Stubborn {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn evaluate(
        &self,
        _: &Query,
        _: usize,
        _: &dyn RankingFunction,
    ) -> hdb_interface::Result<Evaluation> {
        match self.delay {
            None => Err(HdbError::Transport("the backend refused".into())),
            Some(delay) => {
                std::thread::sleep(delay);
                Ok(Evaluation { count: 0, top: Vec::new() })
            }
        }
    }

    fn exact_count(&self, q: &Query) -> hdb_interface::Result<usize> {
        self.inner.exact_count(q)
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> hdb_interface::Result<f64> {
        self.inner.exact_sum(attr, q)
    }
}

fn issued(server: &RunningServer) -> u64 {
    server.metrics().counters.get("hdb_queries_issued_total").copied().unwrap_or(0)
}

/// Retries are spent only where another attempt could be answered. A
/// ranking with no wire spec fails on the client before a byte is sent,
/// and an error frame is the server's answer: each surfaces typed at
/// once, with no failover, the first having reached no server and the
/// second having been evaluated once.
#[test]
fn answers_and_client_side_errors_are_never_retried() {
    struct Opaque;
    impl RankingFunction for Opaque {
        fn score(&self, _s: &Schema, id: TupleId, _t: &Tuple) -> f64 {
            -f64::from(id)
        }
    }
    let t = table(16, 4);
    let (servers, topo) = fleet(&t, 1);
    let federated = FederatedBackend::connect_with(topo, test_cfg()).unwrap();
    let frames = servers[0].frame_count();
    let db = HiddenDb::over(federated, 2).with_ranking(Arc::new(Opaque));
    match db.query(&Query::all()) {
        Err(HdbError::Transport(msg)) => assert!(msg.contains("wire spec"), "{msg}"),
        other => panic!("expected a typed Transport error, got {other:?}"),
    }
    assert_eq!(db.backend().failover_count(), 0);
    assert_eq!(servers[0].frame_count(), frames, "no frame may reach the server");

    let refusing = Stubborn { inner: TableBackend::new(t), delay: None };
    let server = Server::bind(refusing, "127.0.0.1:0").unwrap();
    let topo = Topology::from_primaries([server.addr().to_string()]);
    let db = HiddenDb::over(FederatedBackend::connect_with(topo, test_cfg()).unwrap(), 2);
    match db.query(&Query::all()) {
        Err(HdbError::Transport(msg)) => assert!(msg.contains("the backend refused"), "{msg}"),
        other => panic!("expected the server's typed error, got {other:?}"),
    }
    assert_eq!(db.backend().failover_count(), 0);
    assert_ledger_partition(&db);
    let snap = server.metrics();
    assert_eq!(issued(&server), 1, "an error frame must be asked for once");
    assert_eq!(snap.counters.get("hdb_queries_errored_total"), Some(&1));
}

/// A request that never gets a reply is sent exactly `retries + 1`
/// times: each probe outlasts the client's I/O timeout, so every attempt
/// reaches the server's ledger and none comes back.
#[test]
fn a_request_that_never_gets_a_reply_is_sent_retries_plus_one_times() {
    let delay = Some(Duration::from_millis(300));
    let slow = Stubborn { inner: TableBackend::new(table(16, 4)), delay };
    let config = ServerConfig { pool_threads: 4, ..ServerConfig::default() };
    let server = Server::bind_with(slow, "127.0.0.1:0", config).unwrap();
    let cfg = FleetConfig {
        retries: 2,
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        io_timeout: Duration::from_millis(100),
        ..FleetConfig::default()
    };
    let remote = RemoteBackend::connect_with([server.addr().to_string()], cfg).unwrap();
    let db = HiddenDb::over(remote, 2);
    assert!(matches!(db.query(&Query::all()), Err(HdbError::Transport(_))));
    assert_eq!(db.backend().retries_sent(), 2);
    // The client has given up, so it sends nothing more; the server
    // records each probe once its evaluation ends.
    for _ in 0..500 {
        if issued(&server) >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(issued(&server), 3, "retries + 1 sends");
}

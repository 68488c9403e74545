//! The `hdb-server` binary: serves a generated hidden database over the
//! wire protocol.
//!
//! ```text
//! hdb-server [--addr 127.0.0.1:7171] [--rows 100000] [--attrs 20]
//!            [--shards 1] [--shard-workers 1] [--pool-threads N]
//!            [--shard-part I --shard-parts N]
//!            [--data-dir DIR]
//!            [--federate SHARDS] [fleet flags]
//!            [--metrics-addr HOST:PORT]
//!            [--seed 42] [--self-test] [--probe HOST:PORT]
//! ```
//!
//! `--metrics-addr` binds a second listener serving the merged metrics
//! snapshot (query ledger, serving counters, backend series) as a
//! Prometheus text exposition — `curl http://HOST:PORT/metrics`.
//!
//! `--shards > 1` serves a [`ShardedDb`] instead of a single table (the
//! estimators cannot tell the difference — that is the point).
//! `--shard-part I --shard-parts N` serves only part `I` of the corpus
//! hash-partitioned `N` ways (a one-shard `ShardedDb` from
//! [`ShardedDb::partition`]) — run one process per part and point a
//! `FederatedBackend` topology at the fleet; it merges their answers
//! bit-identically to a local `ShardedDb`.
//! `--data-dir DIR` serves a crash-safe [`PersistentBackend`]: the first
//! run seeds the store from the generated corpus, later runs recover it
//! (snapshot + WAL replay) and serve it, ignoring `--rows`/`--attrs`.
//! The server never writes to the store after seeding it, and walk
//! sessions are soft state: a restart starts with none, and clients
//! re-root.
//! `--federate a:1,b:1|b:2` serves a federation *gateway*: each
//! comma-separated group is one shard, `|`-separated addresses its
//! replicas, tuned by the fleet flags (`--retries`, `--backoff-ms`,
//! `--backoff-cap-ms`, `--io-timeout-ms`, `--health-interval-ms`).
//! `--self-test` binds an ephemeral port, connects a [`RemoteBackend`]
//! client to itself, verifies a query + walk-session round trip (a probe
//! carrying two extends and one after a retract included) and a
//! whole-corpus reply (a root evaluate with `k` = the corpus size, one
//! frame) against the local backend bit-for-bit, and exits — the CI
//! smoke path.
//! `--probe HOST:PORT` runs as a one-shot *client* instead: connect to
//! an already-running server, issue a handful of probes (so its query
//! ledger is non-trivial), print the count, and exit — CI uses it to
//! exercise a server before scraping `--metrics-addr`.

#![forbid(unsafe_code)]

use std::path::Path;
use std::sync::Arc;

use hdb_interface::reactor::TerminationSignal;
use hdb_interface::{
    FederatedBackend, FleetConfig, HiddenDb, PersistentBackend, Query, RemoteBackend,
    SearchBackend, ShardedDb, SyncPolicy, Table, TableBackend, TopKInterface, Topology,
};
use hdb_server::{RunningServer, Server, ServerConfig};

/// Command-line options (std-only flag parsing).
struct Opts {
    addr: String,
    rows: usize,
    attrs: usize,
    shards: usize,
    shard_workers: usize,
    pool_threads: Option<usize>,
    shard_part: Option<usize>,
    shard_parts: Option<usize>,
    data_dir: Option<String>,
    federate: Option<String>,
    fleet: FleetConfig,
    metrics_addr: Option<String>,
    seed: u64,
    self_test: bool,
    probe: Option<String>,
}

impl Opts {
    fn parse() -> Self {
        let mut opts = Self {
            addr: "127.0.0.1:7171".to_string(),
            rows: 100_000,
            attrs: 20,
            shards: 1,
            shard_workers: 1,
            pool_threads: None,
            shard_part: None,
            shard_parts: None,
            data_dir: None,
            federate: None,
            fleet: FleetConfig::default(),
            metrics_addr: None,
            seed: 42,
            self_test: false,
            probe: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--addr" => opts.addr = value("--addr"),
                "--rows" => opts.rows = parse_num(&value("--rows"), "--rows"),
                "--attrs" => opts.attrs = parse_num(&value("--attrs"), "--attrs"),
                "--shards" => opts.shards = parse_num(&value("--shards"), "--shards"),
                "--shard-workers" => {
                    opts.shard_workers = parse_num(&value("--shard-workers"), "--shard-workers");
                }
                "--pool-threads" => {
                    opts.pool_threads =
                        Some(parse_num(&value("--pool-threads"), "--pool-threads"));
                }
                "--shard-part" => {
                    opts.shard_part = Some(parse_num(&value("--shard-part"), "--shard-part"));
                }
                "--shard-parts" => {
                    opts.shard_parts = Some(parse_num(&value("--shard-parts"), "--shard-parts"));
                }
                "--seed" => opts.seed = parse_num(&value("--seed"), "--seed") as u64,
                "--self-test" => opts.self_test = true,
                "--probe" => opts.probe = Some(value("--probe")),
                "--data-dir" => opts.data_dir = Some(value("--data-dir")),
                "--federate" => opts.federate = Some(value("--federate")),
                "--metrics-addr" => opts.metrics_addr = Some(value("--metrics-addr")),
                "--help" | "-h" => {
                    println!(
                        "usage: hdb-server [--addr HOST:PORT] [--rows N] [--attrs N] \
                         [--shards N] [--shard-workers N] [--pool-threads N] \
                         [--shard-part I --shard-parts N] [--seed N] [--self-test]\n\
                         \n\
                         durability:\n  \
                         --data-dir DIR          crash-safe store: seed on first run, \
                         recover (snapshot + WAL) afterwards\n\
                         \n\
                         observability:\n  \
                         --metrics-addr HOST:PORT  serve Prometheus-text metrics on a \
                         second listener (curl .../metrics)\n  \
                         --probe HOST:PORT       one-shot client: probe a running \
                         server a few times and exit (CI scrape smoke)\n\
                         \n\
                         federation gateway (tuning flags also accepted by the benches):\n  \
                         --federate SHARDS       serve a FederatedBackend over shards \
                         \"a:1,b:1|b:2\" (comma: shards, pipe: replicas)\n{}",
                        FleetConfig::cli_help()
                    );
                    std::process::exit(0);
                }
                other => {
                    // Not a core flag: give the shared fleet vocabulary a
                    // chance before declaring it unknown.
                    let fleet_value = args.next();
                    match opts.fleet.apply_cli(other, fleet_value.as_deref().unwrap_or("")) {
                        Ok(true) => {}
                        Err(_) if fleet_value.is_none() => {
                            eprintln!("missing value for {other}");
                            std::process::exit(2);
                        }
                        Err(msg) => {
                            eprintln!("{msg}");
                            std::process::exit(2);
                        }
                        Ok(false) => {
                            eprintln!("unknown flag {other} (try --help)");
                            std::process::exit(2);
                        }
                    }
                }
            }
        }
        opts
    }
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: {s}");
        std::process::exit(2);
    })
}

/// Generates the served corpus, clamping `rows` to half the Boolean
/// domain (distinct-tuple generation needs headroom; asking for more
/// rows than the domain holds is a config slip, not a crash).
fn dataset(rows: usize, attrs: usize, seed: u64) -> Table {
    let attrs = attrs.max(1);
    let capacity = 1usize.checked_shl(attrs.min(60) as u32).unwrap_or(usize::MAX);
    let rows = rows.min((capacity / 2).max(1));
    hdb_datagen::bool_iid(rows, attrs, seed).unwrap_or_else(|e| {
        eprintln!("dataset generation failed ({e}); try fewer --rows or more --attrs");
        std::process::exit(2);
    })
}

fn config(opts: &Opts) -> ServerConfig {
    let mut config = ServerConfig::default();
    if let Some(threads) = opts.pool_threads {
        config.pool_threads = threads.max(1);
    }
    config.metrics_addr.clone_from(&opts.metrics_addr);
    config
}

/// Self-test: serve on an ephemeral port, connect a client, and verify
/// bit-identical behaviour against the same corpus evaluated locally.
fn self_test(opts: &Opts) {
    let table = dataset(opts.rows.min(5_000), opts.attrs, opts.seed);
    let server = Server::bind_with(
        ShardedDb::new(&table, opts.shards.max(2)).with_workers(opts.shard_workers.max(1)),
        "127.0.0.1:0",
        config(opts),
    )
    .expect("ephemeral bind");
    println!("self-test server on {}", server.addr());

    let remote = Arc::new(RemoteBackend::connect(server.addr().to_string()).expect("connect"));
    assert_eq!(remote.len(), table.len());

    // The whole corpus as one reply: a root query at k = m crosses in
    // one frame and matches the in-process table bit for bit.
    let m = table.len();
    let whole = HiddenDb::over(Arc::clone(&remote), m).query(&Query::all());
    let whole = whole.expect("whole-corpus reply");
    assert!(whole.is_valid(), "k = m must return every tuple");
    assert_eq!(whole, HiddenDb::new(table.clone(), m).query(&Query::all()).unwrap());

    let k = 10;
    let local_db = HiddenDb::new(table.clone(), k);
    let remote_db = HiddenDb::over(Arc::clone(&remote), k);

    // Fresh queries agree bit-for-bit.
    for attr in 0..table.schema().len().min(4) {
        for v in 0..2u16 {
            let q = Query::all().and(attr, v).unwrap();
            assert_eq!(
                local_db.query(&q).unwrap(),
                remote_db.query(&q).unwrap(),
                "fresh query diverged at {attr}={v}"
            );
        }
    }

    // A drill-down session agrees probe for probe.
    let mut lw = local_db.walk_session(Query::all()).unwrap();
    let mut rw = remote_db.walk_session(Query::all()).unwrap();
    for attr in 0..table.schema().len().min(6) {
        let out = lw.classify(attr, 1).unwrap();
        assert_eq!(out, rw.classify(attr, 1).unwrap(), "walk probe diverged at {attr}");
        if out.is_overflow() {
            lw.extend(attr, 1);
            rw.extend(attr, 1);
        }
    }
    assert_eq!(local_db.queries_issued(), remote_db.queries_issued());

    // Two branches committed back to back ride on the next probe as a
    // chain of two extends; after a retract, the next probe goes from the
    // shallower level.
    if table.schema().len() >= 3 {
        let mut lw = local_db.walk_session(Query::all()).unwrap();
        let mut rw = remote_db.walk_session(Query::all()).unwrap();
        for (attr, v) in [(0, 0), (1, 0)] {
            lw.extend(attr, v);
            rw.extend(attr, v);
        }
        let sent = remote.requests_sent();
        let out = lw.classify(2, 0).unwrap();
        assert_eq!(out, rw.classify(2, 0).unwrap(), "chained walk probe diverged");
        assert_eq!(remote.requests_sent(), sent + 1, "a chained probe is one exchange");
        lw.retract();
        rw.retract();
        let out = lw.classify(2, 1).unwrap();
        assert_eq!(out, rw.classify(2, 1).unwrap(), "walk probe after a retract diverged");
        assert_eq!(local_db.queries_issued(), remote_db.queries_issued());
    }

    // A short estimator run over the socket lands on the same bits.
    let mut local_est = hdb_core::UnbiasedSizeEstimator::hd(opts.seed).unwrap();
    let mut remote_est = hdb_core::UnbiasedSizeEstimator::hd(opts.seed).unwrap();
    let a = local_est.run(&local_db, 20).unwrap();
    let b = remote_est.run(&remote_db, 20).unwrap();
    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "estimator diverged over the wire");
    assert_eq!(a.queries, b.queries);

    server.shutdown();
    println!(
        "self-test OK: queries, walk sessions, a {m}-tuple reply and estimator runs are \
         bit-identical"
    );
}

/// One-shot client probe: connect to a running server, issue a handful
/// of queries and a short walk session (every outcome class the corpus
/// offers lands in the server's query ledger), report, and exit.
fn probe(addr: &str) {
    let remote = RemoteBackend::connect(addr.to_string()).unwrap_or_else(|e| {
        eprintln!("failed to connect to {addr}: {e}");
        std::process::exit(1);
    });
    let attrs = remote.schema().len();
    let db = HiddenDb::over(remote, 10);
    let out = db.query(&Query::all()).unwrap_or_else(|e| {
        eprintln!("probe failed: {e}");
        std::process::exit(1);
    });
    let root_overflows = out.is_overflow();
    for attr in 0..attrs.min(4) {
        for v in 0..2u16 {
            if let Ok(q) = Query::all().and(attr, v) {
                let _ = db.query(&q);
            }
        }
    }
    if let Ok(mut walk) = db.walk_session(Query::all()) {
        for attr in 0..attrs.min(4) {
            if let Ok(out) = walk.classify(attr, 1) {
                if out.is_overflow() {
                    walk.extend(attr, 1);
                }
            }
        }
    }
    println!(
        "probed {addr}: {} quer{} issued (root {})",
        db.queries_issued(),
        if db.queries_issued() == 1 { "y" } else { "ies" },
        if root_overflows { "overflows" } else { "fits" },
    );
}

/// Parses a `--federate` shard map: comma-separated shards, each a
/// `|`-separated replica list.
fn parse_topology(spec: &str) -> Topology {
    let mut topology = Topology::new();
    let groups = spec.split(',').map(str::trim).filter(|g| !g.is_empty());
    for (shard, group) in groups.enumerate() {
        for addr in group.split('|').map(str::trim).filter(|a| !a.is_empty()) {
            topology.add_replica(shard, addr);
        }
    }
    if topology.shard_count() == 0 {
        eprintln!("--federate needs at least one shard address, got {spec:?}");
        std::process::exit(2);
    }
    topology
}

/// Opens (recovering) or seeds the persistent store and reports what
/// recovery found. The policy only paces ingest fsyncs, and the server
/// never ingests.
fn open_store(dir: &str, opts: &Opts) -> PersistentBackend {
    let backend = PersistentBackend::open_or_create(Path::new(dir), SyncPolicy::Always, || {
        Ok(dataset(opts.rows, opts.attrs, opts.seed))
    })
    .unwrap_or_else(|e| {
        eprintln!("failed to open --data-dir {dir}: {e}");
        std::process::exit(1);
    });
    let r = backend.recovery();
    println!(
        "recovered {dir}: snapshot {}, WAL replayed {}/{} record(s) from seq {}{}{}",
        r.snapshot.as_deref().unwrap_or("(none)"),
        r.wal_records_applied,
        r.wal_records_seen,
        r.base_seq,
        match r.truncated_tail_to {
            Some(len) => format!(", torn tail truncated to {len} B"),
            None => String::new(),
        },
        if r.wal_reset { ", stale WAL reset" } else { "" },
    );
    for skipped in &r.skipped_snapshots {
        eprintln!("warning: skipped damaged snapshot {skipped}");
    }
    if let Some(reason) = backend.read_only() {
        eprintln!("warning: store is READ-ONLY: {reason}");
    }
    backend
}

fn main() {
    let opts = Opts::parse();
    if let Some(addr) = opts.probe.as_deref() {
        probe(addr);
        return;
    }
    if opts.self_test {
        self_test(&opts);
        return;
    }
    let part = match (opts.shard_part, opts.shard_parts) {
        (None, None) => None,
        (Some(part), Some(parts)) if part < parts => Some((part, parts)),
        (Some(part), Some(parts)) => {
            eprintln!("--shard-part {part} is out of range for --shard-parts {parts}");
            std::process::exit(2);
        }
        _ => {
            eprintln!("--shard-part and --shard-parts must be given together");
            std::process::exit(2);
        }
    };
    if part.is_some() && opts.shards > 1 {
        eprintln!("--shard-part serves one partition; it cannot be combined with --shards > 1");
        std::process::exit(2);
    }
    if opts.data_dir.is_some() && (part.is_some() || opts.shards > 1 || opts.federate.is_some()) {
        eprintln!("--data-dir persists a single-table store; it cannot be combined with --shards, --shard-part, or --federate");
        std::process::exit(2);
    }
    if opts.federate.is_some() && (part.is_some() || opts.shards > 1) {
        eprintln!("--federate serves a gateway over remote shards; it cannot be combined with --shards or --shard-part");
        std::process::exit(2);
    }
    let (running, rows, attrs, role): (RunningServer, usize, usize, String) =
        if let Some(dir) = opts.data_dir.as_deref() {
            let backend = open_store(dir, &opts);
            let (rows, attrs) = (backend.len(), backend.schema().len());
            let running = Server::bind_with(backend, &opts.addr, config(&opts))
                .unwrap_or_else(|e| {
                    eprintln!("failed to start: {e}");
                    std::process::exit(1);
                });
            (running, rows, attrs, format!("durable store in {dir}"))
        } else if let Some(spec) = opts.federate.as_deref() {
            let topology = parse_topology(spec);
            let shards = topology.shard_count();
            let backend = FederatedBackend::connect_with(topology, opts.fleet.clone())
                .unwrap_or_else(|e| {
                    eprintln!("failed to connect the federation: {e}");
                    std::process::exit(1);
                });
            let (rows, attrs) = (backend.len(), backend.schema().len());
            let running = Server::bind_with(backend, &opts.addr, config(&opts))
                .unwrap_or_else(|e| {
                    eprintln!("failed to start: {e}");
                    std::process::exit(1);
                });
            (running, rows, attrs, format!("gateway over {shards} federated shard(s)"))
        } else {
            let table = dataset(opts.rows, opts.attrs, opts.seed);
            let (rows, attrs) = (table.len(), table.schema().len());
            let running = if let Some((part, parts)) = part {
                // One part of the federation: generate the full corpus
                // (so every fleet member agrees on it for a given seed),
                // serve only the slice the shared hash partitioning
                // assigns to `part`.
                let backend = ShardedDb::partition(&table, parts).into_iter().nth(part);
                let backend = backend.unwrap_or_else(|| {
                    eprintln!("--shard-part {part} is out of range for --shard-parts {parts}");
                    std::process::exit(2);
                });
                Server::bind_with(backend, &opts.addr, config(&opts))
            } else if opts.shards > 1 {
                let backend = ShardedDb::new(&table, opts.shards).with_workers(opts.shard_workers);
                Server::bind_with(backend, &opts.addr, config(&opts))
            } else {
                Server::bind_with(TableBackend::new(table), &opts.addr, config(&opts))
            }
            .unwrap_or_else(|e| {
                eprintln!("failed to start: {e}");
                std::process::exit(1);
            });
            let role = match part {
                Some((part, parts)) => format!("part {part}/{parts} of the corpus"),
                None => format!("{} shard(s)", opts.shards),
            };
            (running, rows, attrs, role)
        };
    println!(
        "hdb-server on {} — {rows} rows × {attrs} attrs, {role}, {} reactor; \
         connect with RemoteBackend::connect(\"{}\")",
        running.addr(),
        running.reactor_name(),
        running.addr()
    );
    if let Some(m) = running.metrics_addr() {
        println!("metrics on http://{m}/metrics");
    }
    // Block until SIGINT/SIGTERM, then shut down gracefully: stop
    // accepting, close every connection, drop the session table, and join
    // the serving threads before exiting 0.
    let term = TerminationSignal::install().unwrap_or_else(|e| {
        eprintln!("failed to install signal handlers: {e}");
        std::process::exit(1);
    });
    term.wait();
    println!("shutting down: draining {} walk session(s)", running.session_count());
    running.shutdown();
    println!("hdb-server stopped");
}

//! Scale experiment: federated serving fleet (not a paper figure — an
//! engineering experiment for the repro's own roadmap). The corpus is
//! hash-partitioned across 1, 2, and 4 `hdb-server` processes behind a
//! [`FederatedBackend`], and the paper's HD estimator runs against each
//! fleet size:
//!
//! 1. every fleet run must be **bit-identical** to the local
//!    [`ShardedDb`] reference with the same partitioning — the estimator
//!    must not be able to tell how many machines the corpus lives on;
//! 2. throughput (queries/s) and per-probe latency (µs/probe) are
//!    recorded per fleet size;
//! 3. one run survives an injected shard failure: shard 0's primary is
//!    killed mid-estimation and the fleet fails over to its replica —
//!    still bit-identical, with the failover on record.
//!
//! The measurements go to `results/` as CSV and to **`BENCH_scale06.json`**
//! at the repository root.

use std::fs;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::{FederatedBackend, FleetConfig, HiddenDb, ShardedDb, Table, Topology};
use hdb_server::{RunningServer, Server};
use hdb_stats::{Figure, Series};

use crate::datasets::Datasets;
use crate::output::{emit, note};
use crate::scale::Scale;

/// Interface constant: small enough that drill-downs run deep.
const K: usize = 10;

/// Estimator seed (fixed: the runs are the measuring instrument, not the
/// subject).
const SEED: u64 = 20_260_808;

/// What one fleet-size run measures.
struct FleetRun {
    servers: usize,
    queries: u64,
    qps: f64,
    us_per_probe: f64,
}

/// The fleet tuning for a run: `workers` matched to the fleet width,
/// then any of the shared fleet flags (`--retries`, `--backoff-ms`,
/// `--backoff-cap-ms`, `--io-timeout-ms`, `--health-interval-ms` — the
/// same vocabulary `hdb-server --help` documents) taken from the bench's
/// command line.
fn fleet_config(parts: usize) -> FleetConfig {
    let mut cfg = FleetConfig { workers: parts, ..FleetConfig::default() };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map_or("", String::as_str);
        match cfg.apply_cli(&args[i], value) {
            Ok(true) => i += 2,
            Ok(false) => i += 1,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// Spins up one `hdb-server` per hash partition and returns the fleet
/// plus its topology.
fn spawn_fleet(table: &Table, parts: usize) -> (Vec<RunningServer>, Topology) {
    let mut servers = Vec::new();
    let mut topo = Topology::new();
    for (i, part) in ShardedDb::partition(table, parts).into_iter().enumerate() {
        let server = Server::bind(part, "127.0.0.1:0").expect("loopback bind");
        topo.add_replica(i, server.addr().to_string());
        servers.push(server);
    }
    (servers, topo)
}

/// Runs the federation sweep.
///
/// # Panics
/// Panics if any fleet run diverges from the local sharded reference, if
/// the injected shard failure is not absorbed, or if the failover goes
/// unrecorded — an experiment must not record results from a broken
/// stack.
pub fn run_federation_scale(scale: &Scale, datasets: &Datasets) {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("HDB_QUICK").is_ok_and(|v| v == "1" || v == "true");
    let passes: u64 = if quick { 6 } else { 24 };
    // The subject under load is the fleet fan-out, not the evaluation
    // kernel; a modest corpus keeps every probe wire-dominated.
    let rows = scale.bool_rows.min(if quick { 2_000 } else { 10_000 });
    let scale = Scale { bool_rows: rows, ..*scale };
    let table: &Table = datasets.bool_iid(&scale);
    note("federated fleet: one estimator vs 1/2/4 shard servers, plus a mid-run shard kill");

    let mut runs: Vec<FleetRun> = Vec::new();
    let mut reference_bits: Vec<(usize, u64)> = Vec::new();
    for &parts in &[1usize, 2, 4] {
        // Local reference with the identical partitioning.
        let local = HiddenDb::over(ShardedDb::new(table, parts), K);
        let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
        let reference = est.run(&local, passes).expect("unlimited interface");

        let (servers, topo) = spawn_fleet(table, parts);
        let federated = FederatedBackend::connect_with(topo, fleet_config(parts)).expect("fleet up");
        let db = HiddenDb::over(federated, K);
        let wall = Instant::now();
        let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
        let summary = est.run(&db, passes).expect("unlimited interface");
        let secs = wall.elapsed().as_secs_f64();

        assert_eq!(
            summary.estimate.to_bits(),
            reference.estimate.to_bits(),
            "fleet of {parts} diverged from the local sharded reference"
        );
        assert_eq!(summary.queries, reference.queries);
        assert_eq!(db.backend().failover_count(), 0, "healthy fleet must never fail over");

        let qps = summary.queries as f64 / secs;
        let us_per_probe = secs * 1e6 / summary.queries as f64;
        println!(
            "  {parts} server(s): {} queries in {secs:.2}s — {qps:.0} q/s, \
             {us_per_probe:.0} µs/probe",
            summary.queries
        );
        runs.push(FleetRun { servers: parts, queries: summary.queries, qps, us_per_probe });
        reference_bits.push((parts, reference.estimate.to_bits()));
        for server in servers {
            server.shutdown();
        }
    }

    // Failure injection: a 2-server fleet with a replica behind shard 0.
    // The primary is killed mid-estimation; the run must fail over and
    // still land on the reference bits.
    let parts = 2;
    let local = HiddenDb::over(ShardedDb::new(table, parts), K);
    let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
    let reference = est.run(&local, passes).expect("unlimited interface");

    let (mut servers, mut topo) = spawn_fleet(table, parts);
    let standby = ShardedDb::partition(table, parts)
        .into_iter()
        .next()
        .map(|part| Server::bind(part, "127.0.0.1:0").expect("loopback bind"))
        .expect("parts >= 1");
    topo.add_replica(0, standby.addr().to_string());

    let federated =
        Arc::new(FederatedBackend::connect_with(topo, fleet_config(parts)).expect("fleet up"));
    let primary = servers.remove(0);
    // Half the healthy 2-server run is a reliable mid-run instant.
    let kill_after = runs
        .iter()
        .find(|r| r.servers == parts)
        .map_or(Duration::from_millis(20), |r| {
            Duration::from_secs_f64((r.queries as f64 / r.qps / 2.0).max(0.02))
        });
    let killer = std::thread::spawn(move || {
        std::thread::sleep(kill_after);
        primary.shutdown();
    });

    let db = HiddenDb::over(Arc::clone(&federated), K);
    let wall = Instant::now();
    let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
    let summary = est.run(&db, passes).expect("fleet must absorb the shard kill");
    let failure_secs = wall.elapsed().as_secs_f64();
    killer.join().expect("killer thread");

    assert_eq!(
        summary.estimate.to_bits(),
        reference.estimate.to_bits(),
        "failover changed the estimate"
    );
    // The kill may land after the run's last probe; one more pass is
    // guaranteed to hit the dead primary and record the handoff.
    let probe = HiddenDb::over(Arc::clone(&federated), K);
    let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
    est.run(&probe, 1).expect("replica must be serving");
    let failovers = federated.failover_count();
    assert!(failovers >= 1, "the shard kill must be a recorded failover");
    let failure_qps = summary.queries as f64 / failure_secs;
    println!(
        "  shard-kill run: {} queries in {failure_secs:.2}s — {failure_qps:.0} q/s, \
         {failovers} failover(s), bit-identical",
        summary.queries
    );
    for server in servers {
        server.shutdown();
    }
    standby.shutdown();

    let mut fig = Figure::new(
        format!("federated fleet, m={rows}, k={K}, {passes} passes"),
        "shard servers",
        "queries per second",
    );
    fig.add(Series::from_points(
        "fleet_qps",
        runs.iter().map(|r| (r.servers as f64, r.qps)).collect(),
    ));
    fig.add(Series::from_points(
        "us_per_probe",
        runs.iter().map(|r| (r.servers as f64, r.us_per_probe)).collect(),
    ));
    emit(&fig, "scale06_federation");

    let per_fleet = runs
        .iter()
        .map(|r| {
            format!(
                "    {{ \"servers\": {}, \"queries\": {}, \
                 \"queries_per_sec\": {:.1}, \"us_per_probe\": {:.1} }}",
                r.servers, r.queries, r.qps, r.us_per_probe
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"scale06_federation\",\n  \"dataset\": \"bool_iid\",\n  \
         \"rows\": {rows},\n  \"attributes\": {attrs},\n  \"k\": {K},\n  \
         \"passes\": {passes},\n  \"seed\": {SEED},\n  \
         \"bit_identical_fleets\": {fleets},\n  \
         \"fleet_runs\": [\n{per_fleet}\n  ],\n  \
         \"shard_failure\": {{\n    \"servers\": {parts},\n    \
         \"killed_shard\": 0,\n    \"survived\": true,\n    \
         \"bit_identical\": true,\n    \"failovers\": {failovers},\n    \
         \"queries\": {fq},\n    \"queries_per_sec\": {failure_qps:.1}\n  }}\n}}\n",
        attrs = table.schema().len(),
        fleets = reference_bits.len(),
        fq = summary.queries,
    );
    match fs::write("BENCH_scale06.json", &json) {
        Ok(()) => println!("→ wrote BENCH_scale06.json\n"),
        Err(e) => eprintln!("warning: failed writing BENCH_scale06.json: {e}"),
    }
}

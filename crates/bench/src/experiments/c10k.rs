//! Scale experiment: C10K-style concurrent serving (not a paper figure —
//! an engineering experiment for the repro's own roadmap). Thousands of
//! client threads, each with its own connection and estimator, run
//! against **one** loopback `hdb-server` driven by the readiness
//! reactor:
//!
//! 1. every client opens a walk session and parks — the server must hold
//!    them all live at once, and the parked connections must cost zero
//!    dispatches while idle (readiness notification, not poll-sweeping);
//! 2. every client then runs the paper's HD estimator; each run must be
//!    bit-identical to the in-process reference for its seed, and the
//!    measured wire-exchange-per-issued-query ratio must show pipelined
//!    extends (≈ 1 exchange per probe, not 2);
//! 3. the server drains everything on shutdown.
//!
//! The measurements go to `results/` as CSV and to **`BENCH_scale05.json`**
//! at the repository root.

use std::fs;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::reactor::ReactorKind;
use hdb_interface::{
    FleetConfig, HiddenDb, Query, RemoteBackend, SearchBackend, Table, TableBackend,
};
use hdb_server::{Server, ServerConfig};
use hdb_stats::{Figure, Series};

use crate::datasets::Datasets;
use crate::output::{emit, note};
use crate::scale::Scale;

/// Interface constant: small enough that drill-downs run deep.
const K: usize = 10;

/// Base of the per-client seed cycle (fixed: the runs are the measuring
/// instrument, not the subject).
const BASE_SEED: u64 = 20_260_808;

/// Distinct estimator seeds cycled across clients; each has one locally
/// computed reference run that every remote run must match bitwise.
const SEED_VARIANTS: u64 = 16;

/// What one client thread brings home.
struct ClientResult {
    variant: u64,
    estimate_bits: u64,
    queries: u64,
    /// Wire exchanges during the estimation phase only.
    exchanges: u64,
}

/// Connects with a patient retry budget: under thousands of simultaneous
/// connects the listener backlog can momentarily overflow, which is load,
/// not failure.
fn connect_patiently(addr: &str) -> RemoteBackend {
    let patient = FleetConfig {
        retries: 59,
        backoff: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(100),
        ..FleetConfig::default()
    };
    RemoteBackend::connect_with([addr], patient)
        .unwrap_or_else(|e| panic!("could not connect to {addr} after 60 attempts: {e}"))
}

/// Runs the C10K sweep.
///
/// # Panics
/// Panics if any client run diverges from its local reference, if the
/// server fails to hold every session concurrently, or if idle
/// connections consume dispatches — an experiment must not record
/// results from a broken stack.
pub fn run_c10k(scale: &Scale, datasets: &Datasets) {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("HDB_QUICK").is_ok_and(|v| v == "1" || v == "true");
    let sessions: usize = std::env::var("HDB_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 320 } else { 2048 });
    let passes: u64 = if quick { 3 } else { 6 };
    // Each client replays a small corpus; the subject under load is the
    // serving loop, not the evaluation kernel.
    let rows = scale.bool_rows.min(if quick { 2_000 } else { 5_000 });
    let scale = Scale { bool_rows: rows, ..*scale };
    let table: &Table = datasets.bool_iid(&scale);
    note("c10k serving: one reactor-driven hdb-server vs thousands of estimator clients");

    let config = ServerConfig {
        session_cap: (2 * sessions).max(4096),
        ..ServerConfig::default()
    };
    let reactor_requested = matches!(config.reactor, ReactorKind::Auto);
    let server = Server::bind_with(TableBackend::new(table.clone()), "127.0.0.1:0", config)
        .expect("loopback bind");
    let addr = server.addr().to_string();
    println!(
        "  server on {addr} ({} reactor{}), {sessions} clients × {passes} passes, m={rows}",
        server.reactor_name(),
        if reactor_requested { ", auto-selected" } else { "" },
    );

    // Local references, one per seed variant.
    let local = HiddenDb::new(table.clone(), K);
    let references: Vec<(u64, u64)> = (0..SEED_VARIANTS)
        .map(|v| {
            let mut est = UnbiasedSizeEstimator::hd(BASE_SEED + v).expect("valid config");
            let summary = est.run(&local, passes).expect("unlimited interface");
            (summary.estimate.to_bits(), summary.queries)
        })
        .collect();

    // Phase 1: every client connects and opens a walk session, then
    // parks at the barrier. `open` releases them into the idle window;
    // `run` releases them into estimation.
    let open = Arc::new(Barrier::new(sessions + 1));
    let run = Arc::new(Barrier::new(sessions + 1));
    let wall = Instant::now();
    let mut clients = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let addr = addr.clone();
        let open = Arc::clone(&open);
        let run = Arc::clone(&run);
        let handle = std::thread::Builder::new()
            .name(format!("c10k-{i}"))
            .stack_size(512 * 1024)
            .spawn(move || {
                let variant = i as u64 % SEED_VARIANTS;
                let remote = connect_patiently(&addr);
                let walk = remote.walk_state(&Query::all());
                open.wait();
                // ... idle window: the main thread is measuring ...
                run.wait();
                drop(walk);
                let before = remote.requests_sent();
                let db = HiddenDb::over(remote, K);
                let mut est =
                    UnbiasedSizeEstimator::hd(BASE_SEED + variant).expect("valid config");
                let summary = est.run(&db, passes).expect("unlimited interface");
                ClientResult {
                    variant,
                    estimate_bits: summary.estimate.to_bits(),
                    queries: summary.queries,
                    exchanges: db.backend().requests_sent() - before,
                }
            })
            .expect("spawn client thread");
        clients.push(handle);
    }

    open.wait();
    let connect_secs = wall.elapsed().as_secs_f64();
    let held = server.session_count();
    println!(
        "  {held} walk sessions held concurrently ({connect_secs:.2}s to ramp up)"
    );
    assert!(
        held >= sessions,
        "server held only {held} of {sessions} concurrent sessions"
    );

    // Idle window: every connection is open, registered, and silent. A
    // poll-sweeping loop would keep dispatching them; the reactor must
    // dispatch exactly nothing.
    let dispatches_before = server.dispatch_count();
    std::thread::sleep(Duration::from_millis(300));
    let idle_dispatches = server.dispatch_count() - dispatches_before;
    println!("  idle 300 ms with {held} open connections: {idle_dispatches} dispatches");
    assert!(
        (idle_dispatches as usize) < sessions.div_ceil(100).max(4),
        "idle connections are being dispatched ({idle_dispatches} in 300 ms) — \
         the poll-sweep defect is back"
    );

    // Phase 2: estimation storm.
    let storm = Instant::now();
    run.wait();
    let mut total_queries: u64 = 0;
    let mut total_exchanges: u64 = 0;
    let mut divergent = 0usize;
    for handle in clients {
        let result = handle.join().expect("client thread");
        let (ref_bits, ref_queries) = references[result.variant as usize];
        if result.estimate_bits != ref_bits || result.queries != ref_queries {
            divergent += 1;
        }
        total_queries += result.queries;
        total_exchanges += result.exchanges;
    }
    let storm_secs = storm.elapsed().as_secs_f64();
    assert_eq!(divergent, 0, "{divergent} of {sessions} remote runs diverged from local");
    let exchanges_per_query = total_exchanges as f64 / total_queries as f64;
    let qps = total_queries as f64 / storm_secs;
    println!(
        "  {sessions} estimator runs in {storm_secs:.2}s: {total_queries} queries, \
         {qps:.0} q/s aggregate, {exchanges_per_query:.3} wire exchanges per issued query"
    );
    // Before extends rode on probes, every drill-down step cost a
    // standalone extend round trip on top of its probe (≈ 1.5–2
    // exchanges per query).
    assert!(
        exchanges_per_query < 1.5,
        "wire economics regressed: {exchanges_per_query:.3} exchanges per issued query"
    );

    let frames = server.frame_count();
    let dispatches = server.dispatch_count();
    let wall_secs = wall.elapsed().as_secs_f64();
    println!(
        "  server totals: {frames} frames over {dispatches} dispatches \
         ({:.1} frames per dispatch)",
        frames as f64 / dispatches.max(1) as f64
    );

    let mut fig = Figure::new(
        format!("c10k serving, {sessions} clients, m={rows}, k={K}, {passes} passes"),
        "concurrent sessions",
        "aggregate queries per second",
    );
    fig.add(Series::from_points("aggregate_qps", vec![(held as f64, qps)]));
    fig.add(Series::from_points(
        "idle_dispatches_300ms",
        vec![(held as f64, idle_dispatches as f64)],
    ));
    emit(&fig, "scale05_c10k");

    let json = format!(
        "{{\n  \"bench\": \"scale05_c10k\",\n  \"dataset\": \"bool_iid\",\n  \
         \"rows\": {rows},\n  \"attributes\": {attrs},\n  \"k\": {K},\n  \
         \"passes\": {passes},\n  \"seed_base\": {BASE_SEED},\n  \
         \"seed_variants\": {SEED_VARIANTS},\n  \
         \"reactor\": \"{reactor}\",\n  \
         \"concurrent_sessions\": {held},\n  \
         \"bit_identical_runs\": {sessions},\n  \
         \"divergent_runs\": {divergent},\n  \
         \"idle_dispatches_300ms\": {idle_dispatches},\n  \
         \"wire_exchanges_per_issued_query\": {exchanges_per_query:.4},\n  \
         \"total_queries\": {total_queries},\n  \
         \"aggregate_queries_per_sec\": {qps:.1},\n  \
         \"ramp_up_secs\": {connect_secs:.3},\n  \
         \"storm_secs\": {storm_secs:.3},\n  \
         \"wall_secs\": {wall_secs:.3},\n  \
         \"server_frames\": {frames},\n  \"server_dispatches\": {dispatches}\n}}\n",
        attrs = table.schema().len(),
        reactor = server.reactor_name(),
    );
    match fs::write("BENCH_scale05.json", &json) {
        Ok(()) => println!("→ wrote BENCH_scale05.json\n"),
        Err(e) => eprintln!("warning: failed writing BENCH_scale05.json: {e}"),
    }
    server.shutdown();
}

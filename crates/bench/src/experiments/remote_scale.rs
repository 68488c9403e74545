//! Scale experiment for the serving layer (not a paper figure — an
//! engineering experiment for the repro's own roadmap): the same
//! estimation workload driven against an in-process corpus and against
//! the *same* corpus behind a real loopback `hdb-server`, fresh vs
//! incremental walk sessions, 1/2/8 client workers — plus a *prediction*
//! of the remote cost, computed rather than run: the local incremental
//! cost per query plus one measured round trip per wire exchange, so the
//! model and the socket can be compared number to number. Memo hits and
//! deferred extends send fewer exchanges than queries, so the exchanges
//! per query are counted over the remote incremental run the prediction
//! is for. The round trip is sampled between timed chunks of that run,
//! so host drift moves both numbers together.
//!
//! Every remote run self-asserts bit-equality with the local reference
//! (estimates and query counts); the measured trajectory goes to
//! `results/` as CSV and to **`BENCH_scale04.json`** at the repository
//! root.

use std::fs;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::{
    HiddenDb, Query, RemoteBackend, SearchBackend, SessionMode, Table, TableBackend, TopKInterface,
};
use hdb_server::Server;
use hdb_stats::{Figure, Series};

use crate::datasets::Datasets;
use crate::output::{emit, note};
use crate::scale::Scale;

/// Interface constant: small enough that drill-downs run deep.
const K: usize = 10;

/// Master seed of the estimation runs (fixed: the run is the measurement
/// instrument, not the subject).
const SEED: u64 = 20_260_728;

/// Timed chunks the remote incremental run is split into; a set of RTT
/// samples is taken before each chunk and after the last.
const RTT_CHUNKS: u64 = 8;

/// Round trips per RTT sample set.
const RTT_PROBES: usize = 16;

/// One measured configuration.
struct Measured {
    name: &'static str,
    queries: u64,
    secs: f64,
    us_per_query: f64,
}

/// One timed run over `db`: asserts nothing, just measures.
fn timed_run<B: SearchBackend>(
    db: &HiddenDb<B>,
    passes: u64,
    workers: usize,
) -> (u64, u64, f64) {
    let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
    let start = Instant::now();
    let summary = if workers == 1 {
        est.run(db, passes).expect("unlimited interface")
    } else {
        est.run_parallel(db, passes, workers).expect("unlimited interface")
    };
    (summary.estimate.to_bits(), db.queries_issued(), start.elapsed().as_secs_f64())
}

/// Round-trip times of [`RTT_PROBES`] cheap requests on a warm
/// connection.
fn rtt_samples(remote: &RemoteBackend) -> impl Iterator<Item = Duration> + '_ {
    (0..RTT_PROBES).map(|_| {
        let start = Instant::now();
        let _ = remote.exact_count(&Query::all()).expect("server alive");
        start.elapsed()
    })
}

/// The serial remote incremental run, timed in [`RTT_CHUNKS`] chunks of
/// its passes with RTT samples taken between them; only the chunks are
/// timed, and only their wire exchanges counted. The estimator continues
/// across `run` calls, so the estimate bits and query count are those of
/// one call over all `passes`. Returns the run, as [`timed_run`] does,
/// the median RTT sample and the run's wire exchanges.
fn interleaved_run(
    db: &HiddenDb<Arc<RemoteBackend>>,
    remote: &RemoteBackend,
    passes: u64,
) -> ((u64, u64, f64), Duration, u64) {
    let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
    let mut rtts: Vec<Duration> = rtt_samples(remote).collect();
    let mut secs = 0.0;
    let mut exchanges = 0;
    let mut estimate = f64::NAN;
    for chunk in 0..RTT_CHUNKS {
        let chunk_passes = passes * (chunk + 1) / RTT_CHUNKS - passes * chunk / RTT_CHUNKS;
        let sent = remote.requests_sent();
        let start = Instant::now();
        estimate = est.run(db, chunk_passes).expect("unlimited interface").estimate;
        secs += start.elapsed().as_secs_f64();
        exchanges += remote.requests_sent() - sent;
        rtts.extend(rtt_samples(remote));
    }
    rtts.sort_unstable();
    ((estimate.to_bits(), db.queries_issued(), secs), rtts[rtts.len() / 2], exchanges)
}

/// Runs the serving-layer sweep.
///
/// # Panics
/// Panics if any remote run changes the estimate or the issued-query
/// count — the serving layer must be observationally invisible, and an
/// experiment must not record results from a broken stack.
pub fn run_remote_scale(scale: &Scale, datasets: &Datasets) {
    note("remote serving: loopback hdb-server vs in-process, fresh vs incremental, 1/2/8 workers");
    // Remote runs pay a real syscall round trip per query; size the
    // workload so paper mode stays in minutes and --quick in seconds.
    let rows = scale.bool_rows.min(30_000);
    let scale = Scale { bool_rows: rows, ..*scale };
    let table: &Table = datasets.bool_iid(&scale);
    let passes = (scale.trials.max(8) * 5).min(200);

    let server =
        Server::bind(TableBackend::new(table.clone()), "127.0.0.1:0").expect("loopback bind");
    let remote = Arc::new(
        RemoteBackend::connect(server.addr().to_string()).expect("loopback connect"),
    );
    println!("  loopback server on {}", server.addr());

    let mut measured: Vec<Measured> = Vec::new();
    let mut reference: Option<(u64, u64)> = None;
    let mut record = |name: &'static str,
                      (bits, queries, secs): (u64, u64, f64),
                      reference: &mut Option<(u64, u64)>| {
        match *reference {
            None => *reference = Some((bits, queries)),
            Some((ref_bits, ref_queries)) => {
                assert_eq!(
                    ref_bits, bits,
                    "serving-layer regression: config `{name}` changed the estimate"
                );
                assert_eq!(
                    ref_queries, queries,
                    "accounting regression: config `{name}` changed the issued-query count"
                );
            }
        }
        let us_per_query = secs * 1e6 / queries as f64;
        println!(
            "  {name:<26} {secs:>7.3}s wall, {queries} queries, {us_per_query:>8.2} µs/query, \
             {:>9.0} q/s",
            queries as f64 / secs
        );
        measured.push(Measured { name, queries, secs, us_per_query });
    };

    // Local references.
    let local_fresh =
        HiddenDb::new(table.clone(), K).with_session_mode(SessionMode::Fresh);
    record("local fresh", timed_run(&local_fresh, passes, 1), &mut reference);
    let local_incr = HiddenDb::new(table.clone(), K);
    record("local incremental", timed_run(&local_incr, passes, 1), &mut reference);

    // The real socket.
    let remote_fresh = HiddenDb::over(Arc::clone(&remote), K)
        .with_session_mode(SessionMode::Fresh);
    record("remote fresh", timed_run(&remote_fresh, passes, 1), &mut reference);
    let remote_incr = HiddenDb::over(Arc::clone(&remote), K);
    let (run, rtt, exchanges) = interleaved_run(&remote_incr, &remote, passes);
    let exchanges_per_query = exchanges as f64 / run.1 as f64;
    record("remote incremental", run, &mut reference);
    println!(
        "  measured RTT ≈ {:.1} µs (median of {} samples interleaved with that run), \
         {exchanges_per_query:.4} wire exchanges per query",
        rtt.as_secs_f64() * 1e6,
        (RTT_CHUNKS as usize + 1) * RTT_PROBES
    );
    let remote_w2 = HiddenDb::over(Arc::clone(&remote), K);
    record("remote incremental ×2", timed_run(&remote_w2, passes, 2), &mut reference);
    let remote_w8 = HiddenDb::over(Arc::clone(&remote), K);
    record("remote incremental ×8", timed_run(&remote_w8, passes, 8), &mut reference);

    let by_name = |name: &str| {
        measured
            .iter()
            .find(|m| m.name.starts_with(name))
            .unwrap_or_else(|| panic!("config `{name}` measured"))
    };
    // The prediction of remote cost: the local incremental evaluation
    // plus one measured round trip per wire exchange.
    let predicted_us =
        by_name("local incremental").us_per_query + exchanges_per_query * rtt.as_secs_f64() * 1e6;
    let remote_us = by_name("remote incremental").us_per_query;
    let vs_prediction = remote_us / predicted_us;
    println!(
        "  prediction check: remote incremental runs at {vs_prediction:.2}× the predicted \
         {predicted_us:.2} µs/query (local incremental + RTT per exchange)"
    );

    let mut fig = Figure::new(
        format!("remote serving, m={rows}, k={K}, {passes} passes, rtt={:.1}us", rtt.as_secs_f64() * 1e6),
        "configuration index",
        "µs per issued query",
    );
    fig.add(Series::from_points(
        "us_per_query",
        measured.iter().enumerate().map(|(i, m)| (i as f64, m.us_per_query)).collect(),
    ));
    fig.add(Series::from_points(
        "queries_per_second",
        measured
            .iter()
            .enumerate()
            .map(|(i, m)| (i as f64, m.queries as f64 / m.secs))
            .collect(),
    ));
    emit(&fig, "scale04_remote_serving");

    let (bits, queries) = reference.expect("runs completed");
    let json = format!(
        "{{\n  \"bench\": \"scale04_remote_serving\",\n  \"dataset\": \"bool_iid\",\n  \
         \"rows\": {rows},\n  \"attributes\": {attrs},\n  \"k\": {K},\n  \"passes\": {passes},\n  \
         \"seed\": {SEED},\n  \"estimate_bits\": {bits},\n  \"queries_per_config\": {queries},\n  \
         \"loopback_rtt_us\": {rtt_us:.3},\n  \
         \"exchanges_per_query\": {exchanges_per_query:.4},\n  \
         \"local_fresh_us_per_query\": {local_fresh:.4},\n  \
         \"local_incremental_us_per_query\": {local_incr:.4},\n  \
         \"predicted_remote_us_per_query\": {predicted_us:.4},\n  \
         \"remote_fresh_us_per_query\": {remote_fresh:.4},\n  \
         \"remote_incremental_us_per_query\": {remote_us:.4},\n  \
         \"remote_incremental_w2_us_per_query\": {w2:.4},\n  \
         \"remote_incremental_w8_us_per_query\": {w8:.4},\n  \
         \"remote_incremental_w8_queries_per_sec\": {w8_qps:.1},\n  \
         \"remote_vs_prediction\": {vs_prediction:.4}\n}}\n",
        attrs = table.schema().len(),
        rtt_us = rtt.as_secs_f64() * 1e6,
        remote_fresh = by_name("remote fresh").us_per_query,
        local_fresh = by_name("local fresh").us_per_query,
        local_incr = by_name("local incremental").us_per_query,
        w2 = by_name("remote incremental ×2").us_per_query,
        w8 = by_name("remote incremental ×8").us_per_query,
        w8_qps = {
            let m = by_name("remote incremental ×8");
            m.queries as f64 / m.secs
        },
    );
    match fs::write("BENCH_scale04.json", &json) {
        Ok(()) => println!("→ wrote BENCH_scale04.json\n"),
        Err(e) => eprintln!("warning: failed writing BENCH_scale04.json: {e}"),
    }
    server.shutdown();
}

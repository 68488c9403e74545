//! Swapping the physical substrate under a hidden database: the same
//! estimator, the same bits — over one table, a sharded corpus, and a
//! slow remote server.
//!
//! The estimators only see the `TopKInterface`; `HiddenDb` is generic
//! over a `SearchBackend`, so scenario diversity (distributed corpora,
//! slow remote sites) costs zero estimator changes.
//!
//! Run with `cargo run --release --example search_backends`.

use std::time::Instant;

use hdb_core::UnbiasedSizeEstimator;
use hdb_datagen::bool_mixed;
use hdb_interface::{HiddenDb, RemoteBackend, ShardedDb, TableBackend};
use hdb_repro::testkit::{Fault, FaultProxy, FaultSchedule};
use hdb_server::Server;

fn main() {
    let table = bool_mixed(4000, 12, 9).expect("generation");
    let truth = table.len();
    let (passes, master_seed, k) = (400, 42, 5);

    // 1. The default substrate: one bitmap-indexed table.
    let mut est = UnbiasedSizeEstimator::hd(master_seed).expect("valid config");
    let reference = est.run(&HiddenDb::new(table.clone(), k), passes).expect("unlimited");
    println!(
        "table backend:    {:.1} (truth {truth}), {} queries",
        reference.estimate, reference.queries
    );

    // 2. The same corpus hash-partitioned into shards: same bits.
    for shards in [4usize, 16] {
        let db = HiddenDb::over(ShardedDb::new(&table, shards), k);
        let mut est = UnbiasedSizeEstimator::hd(master_seed).expect("valid config");
        let summary = est.run(&db, passes).expect("unlimited");
        println!("sharded ({shards:>2} shards): {:.1}, {} queries", summary.estimate, summary.queries);
        assert_eq!(
            reference.estimate.to_bits(),
            summary.estimate.to_bits(),
            "backends answer bit-identically"
        );
    }

    // 3. A slow remote site: a loopback server behind a proxy that holds
    // every request frame for 1 ms. The parallel engine overlaps the
    // waits, so wall-clock shrinks with workers while the estimate stays
    // that of the in-process run.
    let remote_passes = 10;
    let mut est = UnbiasedSizeEstimator::hd(master_seed).expect("valid config");
    let local = est.run(&HiddenDb::new(table.clone(), k), remote_passes).expect("unlimited");
    let server = Server::bind(TableBackend::new(table), "127.0.0.1:0").expect("loopback bind");
    let proxy = FaultProxy::spawn(
        server.addr().to_string(),
        FaultSchedule::script_then(Vec::new(), Fault::Delay(1)),
        FaultSchedule::clean(),
    )
    .expect("proxy bind");
    for workers in [1usize, 4] {
        let db = HiddenDb::over(RemoteBackend::connect(proxy.addr()).expect("connect"), k);
        let mut est = UnbiasedSizeEstimator::hd(master_seed).expect("valid config");
        let start = Instant::now();
        let summary = est.run_parallel(&db, remote_passes, workers).expect("unlimited");
        // timings go to stderr: stdout stays byte-identical across runs
        eprintln!(
            "remote, {workers} worker(s): {:.3}s wall for {} queries delayed 1 ms each",
            start.elapsed().as_secs_f64(),
            summary.queries
        );
        println!("remote ({workers} workers): {:.1}", summary.estimate);
        assert_eq!(
            local.estimate.to_bits(),
            summary.estimate.to_bits(),
            "the socket is invisible to the estimate"
        );
    }
    drop(proxy);
    server.shutdown();
}

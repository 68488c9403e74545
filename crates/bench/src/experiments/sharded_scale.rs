//! Scale experiment for the backend abstraction (not a paper figure — an
//! engineering experiment for the repro's own roadmap): the same
//! estimation run over the single-table backend and hash-partitioned
//! [`ShardedDb`] backends of growing shard counts, each at 1 and 2
//! shard-evaluation workers.
//!
//! The backend contract guarantees bit-identical estimates whatever the
//! substrate; this experiment asserts that on every configuration it
//! times (an experiment must not silently record results from a broken
//! backend) and records what sharding costs or buys in *wall-clock*
//! terms. The figure is written under `results/`. Latency hiding over a
//! real socket is shown by `scale04_remote_serving` and the
//! `search_backends` example.

use std::time::Instant;

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::{HiddenDb, SearchBackend, ShardedDb};
use hdb_stats::{Figure, Series};

use crate::datasets::Datasets;
use crate::output::{emit, note};
use crate::scale::Scale;

/// Interface constant for the backend experiments (paper-typical k).
const K: usize = 100;

/// Master seed of the estimation runs (fixed: the run is the measurement
/// instrument, not the subject).
const SEED: u64 = 20_260_728;

/// Runs one fixed estimation workload against `db` and returns
/// `(estimate bits, seconds)`.
fn timed_run<B: SearchBackend>(db: &HiddenDb<B>, passes: u64) -> (u64, f64) {
    let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
    let start = Instant::now();
    let summary = est.run(db, passes).expect("unlimited interface");
    (summary.estimate.to_bits(), start.elapsed().as_secs_f64())
}

/// Runs the shard-count scaling experiment.
///
/// # Panics
/// Panics if any backend configuration changes the estimate — that would
/// be a backend-equivalence regression.
pub fn run_sharded_scale(scale: &Scale, datasets: &Datasets) {
    note("backend scaling: shard counts (ShardedDb)");
    let table = datasets.bool_iid(scale);
    let truth = table.len() as f64;
    let passes = scale.trials.max(10) * 25;

    // Shard-count sweep: identical bits, per-shard evaluation cost.
    let (reference_bits, base_secs) = timed_run(&HiddenDb::new(table.clone(), K), passes);
    println!(
        "  table backend: {base_secs:.3}s, estimate {:.1} (truth {truth})",
        f64::from_bits(reference_bits)
    );
    let mut shard_fig = Figure::new(
        format!("sharded backend wall-clock, {passes} passes, m={truth}"),
        "shards",
        "seconds",
    );
    let mut points = vec![(0.0, base_secs)]; // shard count 0 = unsharded reference
    for shards in [1usize, 2, 4, 8, 16] {
        for workers in [1usize, 2] {
            let backend = ShardedDb::new(table, shards).with_workers(workers);
            let db = HiddenDb::over(backend, K);
            let (bits, secs) = timed_run(&db, passes);
            assert_eq!(
                bits, reference_bits,
                "backend-equivalence regression at shards={shards} workers={workers}"
            );
            if workers == 1 {
                println!("  shards={shards}: {secs:.3}s (bit-identical estimate)");
                points.push((shards as f64, secs));
            }
        }
    }
    shard_fig.add(Series::from_points("wall-clock", points));
    emit(&shard_fig, "scale02_sharded_backend");
}

//! Scale experiment for the incremental drill-down evaluation engine
//! (not a paper figure — an engineering experiment for the repro's own
//! roadmap): the same deep-walk estimation workload evaluated two ways,
//! bit-identical by contract and asserted so here:
//!
//! * **fresh** — every probe an independent from-scratch query
//!   ([`SessionMode::Fresh`], the pre-session reference path);
//! * **incremental + count-only** — the default: probes reuse the parent
//!   node's match set (one AND-count instead of a d-way intersection),
//!   and pages materialise only for valid outcomes.
//!
//! Per-query wall-clock for each mode goes to `results/` as CSV and to
//! **`BENCH_scale03.json`** at the repository root — the machine-readable
//! perf trajectory future PRs diff against.

use std::fs;
use std::time::Instant;

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::{HiddenDb, SessionMode, Table, TopKInterface};
use hdb_stats::{Figure, Series};

use crate::datasets::Datasets;
use crate::output::{emit, note};
use crate::scale::Scale;

/// Interface constant: small enough that drill-downs run deep (the
/// workload the session engine is built for).
const K: usize = 10;

/// Master seed of the estimation runs (fixed: the run is the measurement
/// instrument, not the subject).
const SEED: u64 = 20_260_728;

/// One timed run: `(estimate bits, queries issued, seconds)`.
fn timed_run(table: &Table, mode: SessionMode, passes: u64) -> (u64, u64, f64) {
    let db = HiddenDb::new(table.clone(), K).with_session_mode(mode);
    let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
    let start = Instant::now();
    let summary = est.run(&db, passes).expect("unlimited interface");
    let secs = start.elapsed().as_secs_f64();
    (summary.estimate.to_bits(), db.queries_issued(), secs)
}

/// Runs the fresh-vs-incremental sweep.
///
/// # Panics
/// Panics if the incremental session changes the estimate — that would be an
/// incremental-equivalence regression, and an experiment must not
/// silently record results from a broken engine.
pub fn run_incremental_scale(scale: &Scale, datasets: &Datasets) {
    note("incremental walk sessions: fresh vs count-only probes");
    // The perf trajectory is defined on the 100k-row deep-walk dataset;
    // reduced scales (--quick / HDB_ROWS) shrink it proportionally.
    let rows = scale.bool_rows.min(100_000);
    let scale = Scale { bool_rows: rows, ..*scale };
    let table = datasets.bool_iid(&scale);
    let passes = (scale.trials.max(10) * 10).min(500);

    let modes = [
        ("fresh", SessionMode::Fresh),
        ("incremental+count-only", SessionMode::Incremental),
    ];
    let mut measured: Vec<(&str, u64, f64, f64)> = Vec::new();
    let mut reference: Option<u64> = None;
    for (name, mode) in modes {
        let (bits, queries, secs) = timed_run(table, mode, passes);
        match reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(
                r, bits,
                "incremental-equivalence regression: mode `{name}` changed the estimate"
            ),
        }
        if let Some(&(_, reference_queries, _, _)) = measured.first() {
            assert_eq!(
                queries, reference_queries,
                "accounting regression: mode `{name}` changed the issued-query count"
            );
        }
        let us_per_query = secs * 1e6 / queries as f64;
        println!(
            "  {name:<24} {secs:>7.3}s wall, {queries} queries, {us_per_query:.2} µs/query"
        );
        measured.push((name, queries, secs, us_per_query));
    }

    let fresh_us = measured[0].3;
    let count_only_us = measured[1].3;
    let speedup_total = fresh_us / count_only_us;
    println!("  speedup: fresh→count-only {speedup_total:.2}×");

    let mut fig = Figure::new(
        format!("incremental walk evaluation, m={rows}, k={K}, {passes} passes"),
        "mode (0=fresh, 1=incremental+count-only)",
        "µs per issued query",
    );
    fig.add(Series::from_points(
        "us_per_query",
        measured.iter().enumerate().map(|(i, m)| (i as f64, m.3)).collect(),
    ));
    emit(&fig, "scale03_incremental_walk");

    // Machine-readable perf trajectory at the repository root.
    let json = format!(
        "{{\n  \"bench\": \"scale03_incremental_walk\",\n  \"dataset\": \"bool_iid\",\n  \
         \"rows\": {rows},\n  \"attributes\": {attrs},\n  \"k\": {K},\n  \"passes\": {passes},\n  \
         \"seed\": {SEED},\n  \"estimate_bits\": {bits},\n  \"queries_per_mode\": {queries},\n  \
         \"fresh_us_per_query\": {fresh_us:.4},\n  \
         \"incremental_count_only_us_per_query\": {count_only_us:.4},\n  \
         \"speedup_fresh_to_count_only\": {speedup_total:.4}\n}}\n",
        attrs = table.schema().len(),
        bits = reference.expect("both runs completed"),
        queries = measured[0].1,
    );
    match fs::write("BENCH_scale03.json", &json) {
        Ok(()) => println!("→ wrote BENCH_scale03.json\n"),
        Err(e) => eprintln!("warning: failed writing BENCH_scale03.json: {e}"),
    }
}

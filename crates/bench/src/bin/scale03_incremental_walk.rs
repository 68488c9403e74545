//! Scale experiment: incremental drill-down evaluation — fresh vs
//! count-only probes, with the machine-readable perf trajectory written
//! to `BENCH_scale03.json`.
use hdb_bench::{experiments, Datasets, Scale};

fn main() {
    let scale = Scale::from_args();
    experiments::incremental_scale::run_incremental_scale(&scale, &Datasets::new());
}

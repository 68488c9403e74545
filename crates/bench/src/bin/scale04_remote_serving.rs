//! Scale experiment: the serving layer — a real loopback `hdb-server`
//! behind `RemoteBackend` vs in-process evaluation vs the predicted
//! remote cost (local incremental cost plus one measured round trip),
//! with the machine-readable perf trajectory written to
//! `BENCH_scale04.json`.
use hdb_bench::{experiments, Datasets, Scale};

fn main() {
    let scale = Scale::from_args();
    experiments::remote_scale::run_remote_scale(&scale, &Datasets::new());
}

//! Scale experiment: sharded-backend evaluation (shard-count sweep), with
//! every configuration checked bit-identical to the table backend.
use hdb_bench::{experiments, Datasets, Scale};

fn main() {
    let scale = Scale::from_args();
    experiments::sharded_scale::run_sharded_scale(&scale, &Datasets::new());
}

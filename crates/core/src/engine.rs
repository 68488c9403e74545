//! Parallel multi-walk estimation engine.
//!
//! The paper's estimators converge by averaging thousands of independent
//! drill-down passes; the passes share nothing but the (read-only)
//! interface, so they are embarrassingly parallel.
//! [`run_parallel`](crate::UnbiasedAggEstimator::run_parallel) fans them
//! across a [`WorkerPool`] built for the run while preserving the
//! workspace's determinism guarantee:
//!
//! * **Seed derivation** — pass `i` of a run with master seed `s` draws
//!   its randomness from `StdRng::seed_from_u64(pass_seed(s, i))`, a
//!   SplitMix64-style mix of `(s, i)`. No pass ever observes another
//!   pass's RNG stream, weight state, or completion order.
//! * **Order-independent merge** — per-pass estimates are keyed by pass
//!   index and replayed in canonical index order before any
//!   floating-point fold, so arrival order can never leak into a result.
//! * **One budget rule** — a site's query limit ends the run at the pass
//!   where it runs out. Against an interface that meters a budget
//!   ([`TopKInterface::budget_remaining`] returns `Some`), `run_parallel`
//!   therefore *is* the sequential
//!   [`run`](crate::UnbiasedAggEstimator::run); an unmetered interface
//!   cannot cut the run short, so its fan-out commits every pass or none.
//!
//! Together these make the merged estimate **bit-identical to the
//! sequential run regardless of worker count**: `run` and `run_parallel`
//! with 1, 2, or 64 workers produce the same per-pass history and the
//! same mean — including runs cut short by a metered interface budget.
//!
//! The pool is the substrate crate's one fan-out primitive
//! ([`hdb_interface::par`]; [`ShardedDb`](hdb_interface::ShardedDb) and
//! [`FederatedBackend`](hdb_interface::FederatedBackend) fan their shards
//! across it too). The worker count defaults to [`default_workers`],
//! which honours the `HDB_ENGINE_WORKERS` environment variable (CI runs
//! the test suite under both `=1` and `=4`).
//!
//! [`TopKInterface::budget_remaining`]: hdb_interface::TopKInterface::budget_remaining
//! [`WorkerPool`]: hdb_interface::WorkerPool

pub use hdb_interface::par::{default_workers, WORKERS_ENV};

/// Derives the RNG seed of pass `pass_index` under `master_seed`.
///
/// SplitMix64-style finalising mix over the pair: statistically
/// independent streams for neighbouring indices, stable across platforms
/// and releases (the determinism tests pin it).
#[must_use]
pub fn pass_seed(master_seed: u64, pass_index: u64) -> u64 {
    let mut z = master_seed ^ pass_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_seed_is_stable_and_spread() {
        // Pinned values: changing the derivation silently would break the
        // cross-version reproducibility of every recorded experiment.
        assert_eq!(pass_seed(0, 0), 0);
        assert_eq!(pass_seed(42, 0), pass_seed(42, 0));
        assert_ne!(pass_seed(42, 0), pass_seed(42, 1));
        assert_ne!(pass_seed(42, 1), pass_seed(43, 1));
        // neighbouring indices must not produce neighbouring seeds
        let a = pass_seed(7, 1);
        let b = pass_seed(7, 2);
        assert!((a ^ b).count_ones() > 8, "seeds too correlated: {a:x} vs {b:x}");
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}

//! Parallel multi-walk estimation engine.
//!
//! The paper's estimators converge by averaging thousands of independent
//! drill-down passes; the passes share nothing but the (read-only)
//! interface, so they are embarrassingly parallel. This module fans
//! passes across a `std::thread` worker pool while preserving the
//! workspace's determinism guarantee:
//!
//! * **Seed derivation** — pass `i` of a run with master seed `s` draws
//!   its randomness from `StdRng::seed_from_u64(pass_seed(s, i))`, a
//!   SplitMix64-style mix of `(s, i)`. No pass ever observes another
//!   pass's RNG stream, weight state, or completion order.
//! * **Order-independent merge** — per-pass estimates are keyed by pass
//!   index and replayed in canonical index order before any
//!   floating-point fold, so arrival order can never leak into a result.
//! * **Canonical budget exhaustion** — interfaces that meter a query
//!   budget ([`TopKInterface::budget_remaining`] returns `Some`) run in
//!   wave-barriered chunks: fully parallel while the remaining budget
//!   comfortably exceeds a chunk's expected spend, canonical
//!   single-thread claiming once exhaustion nears — so the set of passes
//!   completed when the budget runs dry is the same as the sequential
//!   run's, not an accident of thread scheduling.
//!
//! Together these make the merged estimate **bit-identical to the
//! sequential run regardless of worker count**: `run` and
//! [`run_parallel`](crate::UnbiasedAggEstimator::run_parallel) with 1, 2,
//! or 64 workers produce the same per-pass history and the same mean —
//! including runs cut short by a metered interface budget, provided no
//! single pass blows through the 8× safety margin the near-exhaustion
//! serialisation relies on (see
//! [`run_parallel`](crate::UnbiasedAggEstimator::run_parallel) for the
//! pathological-pass caveat).
//!
//! The threading primitive itself, [`fan_out`], is shared with the
//! substrate crate (re-exported from [`hdb_interface::par`], where
//! [`ShardedDb`](hdb_interface::ShardedDb) uses it for per-shard query
//! evaluation). The worker count defaults to [`default_workers`], which
//! honours the `HDB_ENGINE_WORKERS` environment variable (CI runs the
//! test suite under both `=1` and `=4`).
//!
//! [`TopKInterface::budget_remaining`]: hdb_interface::TopKInterface::budget_remaining

pub use hdb_interface::par::{default_workers, fan_out, FanOut, WORKERS_ENV};

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
    use crate::error::EstimatorError;

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
    fn fan_out_reexport_works_with_estimator_errors() {
        let out = fan_out(100, 4, |i| {
            if i == 3 {
                Err(EstimatorError::InvalidConfig("boom".into()))
            } else {
                Ok(i as f64)
            }
        });
        assert!(out.error.is_some());
        assert!(out.results.iter().all(|&(i, _)| i != 3));
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}

//! Random drill-down machinery: the backtracking walk of §3 generalised
//! to categorical attributes (smart backtracking, §3.2) and to
//! non-uniform branch weights (weight adjustment, §4.1).
//!
//! The core correctness property, on which the Horvitz–Thompson estimate
//! rests, is that every walk terminates at a *top-valid* (or, under
//! divide-&-conquer, *bottom-overflow*) node together with the **exact
//! marginal probability** of the walk committing to that node. The
//! probability is exact because backtracking is a *deterministic circular
//! right scan*: the only randomness at a node is the initial branch pick,
//! so the probability of committing to branch `c` is the probability that
//! the initial pick lands on `c` or on the maximal run of underflowing
//! branches immediately preceding it.

mod branch;
mod drilldown;

pub use branch::{choose_branch_session, choose_branch_simple_session, SessionBranchChoice};
pub use drilldown::{
    drill_down, drill_down_session, drill_down_with, Walk, WalkLevel, WalkTerminal,
};

use hdb_interface::{AttrId, ValueId};

/// How the walk recovers from an underflowing branch pick (paper §3.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BacktrackStrategy {
    /// *Smart backtracking*: scan right circularly from the initial pick
    /// until the first non-underflowing branch, probing left only as far
    /// as needed to compute the commit probability. Expected per-node
    /// query cost `QC = 1 + Σ_j (w_U(j)+1)²/w` (Eq. 2).
    #[default]
    Smart,
    /// *Simple backtracking*: query **every** branch of the node, then
    /// choose among the non-underflowing ones (weight-proportionally).
    /// Always costs `w` queries per node; kept for the cost ablation.
    Simple,
}

/// A `(attribute, value)` step on a drill-down path, identifying one tree
/// edge.
pub type PathStep = (AttrId, ValueId);

/// Supplies branch weights for the random drill-down and absorbs what the
/// walk learns along the way.
///
/// Implementations must return **strictly positive** weights for every
/// branch: a zero weight would make some top-valid node unreachable and
/// silently bias the estimator. (Branches known to underflow may get an
/// arbitrarily small positive weight — selecting them only costs a scan
/// step, never correctness.)
pub trait WeightProvider {
    /// Branch weights for attribute `attr` (with the given fanout) at the
    /// node identified by `path` (steps from the tree root, in drill
    /// order).
    fn weights(&self, path: &[PathStep], attr: AttrId, fanout: usize) -> Vec<f64>;

    /// Informs the provider that branch `value` of `attr` at `path` was
    /// observed to underflow. Default: ignore.
    fn observe_empty(&self, _path: &[PathStep], _attr: AttrId, _value: ValueId) {}

    /// Incorporates a completed walk below the node at `prefix`:
    /// `levels` are the committed steps and `value` the terminal measure
    /// (tuple count / SUM contribution, or the recursive subtree estimate
    /// for bottom-overflow terminals). Default: ignore.
    fn record_walk(&self, _prefix: &[PathStep], _levels: &[WalkLevel], _value: f64) {}
}

/// Uniform weights — the plain (non-weight-adjusted) drill-down of §3.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformWeights;

impl WeightProvider for UniformWeights {
    fn weights(&self, _path: &[PathStep], _attr: AttrId, fanout: usize) -> Vec<f64> {
        vec![1.0; fanout]
    }
}

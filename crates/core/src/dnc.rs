//! Divide-&-conquer (paper §4.2): partition the query tree into subtrees
//! of bounded subdomain size `D_UB`, run `r` drill-downs per subtree, and
//! recurse on every *bottom-overflow* node discovered.
//!
//! ## Estimator form (a DESIGN.md decision)
//!
//! The paper's Eq. (9)–(10) presents the estimate as a sum over the *set*
//! of captured top-valid nodes with `π(q) = r·p(q)·π(q_R)`. Read over
//! distinct nodes that form is only asymptotically unbiased (a node's
//! capture probability is `1 − (1 − p)^r`, not `r·p`). We implement the
//! equivalent **recursive conditional-HT** form, which is exactly
//! unbiased at every `r`:
//!
//! ```text
//! m̂(R) = (1/r) Σ_{i=1..r} X_i,
//! X_i  = value(q_i)/p(q_i)       if walk i ends at top-valid q_i
//!      = m̂(q_BO)/p(q_BO)        if walk i ends at bottom-overflow q_BO
//! ```
//!
//! Induction over subtree depth gives `E[m̂(R)] = mass(R)`: conditioned
//! on the weight state, each walk's HT term has expectation
//! `Σ_q p(q)·value(q)/p(q)` over the subtree's terminals, and recursive
//! estimates are independent of which walk hit them. Repeated
//! bottom-overflow hits **reuse** one recursive estimate (memoised per
//! pass) — reuse preserves expectation because the recursion's fresh
//! randomness is independent of the hit count, and it saves the paper's
//! intended queries.

use std::collections::BTreeMap;

use hdb_interface::{AttrId, Query, ReturnedTuple, Schema, TopKInterface, WalkSession};
use rand::Rng;

use crate::error::Result;
use crate::walk::{
    drill_down_session, BacktrackStrategy, PathStep, WalkTerminal, WeightProvider,
};

/// Splits `levels` into consecutive subtree chunks, each with domain size
/// (product of fanouts) at most `dub` but always at least one level.
///
/// This is the paper's categorical partitioning rule (§4.2.2): keep a
/// roughly constant subdomain size per subtree instead of a fixed level
/// count.
#[must_use]
pub fn partition_levels(schema: &Schema, levels: &[AttrId], dub: u64) -> Vec<Vec<AttrId>> {
    let mut chunks = Vec::new();
    let mut rest = levels;
    while !rest.is_empty() {
        let take = first_chunk_len(schema, rest, dub);
        chunks.push(rest[..take].to_vec());
        rest = &rest[take..];
    }
    chunks
}

/// Length of the first subtree chunk of `levels` under bound `dub`.
///
/// # Panics
/// Panics if `levels` is empty.
#[must_use]
pub fn first_chunk_len(schema: &Schema, levels: &[AttrId], dub: u64) -> usize {
    assert!(!levels.is_empty(), "cannot chunk an empty level list");
    let mut product: u128 = 1;
    let mut take = 0usize;
    for &attr in levels {
        product = product.saturating_mul(schema.fanout(attr) as u128);
        if take > 0 && product > u128::from(dub) {
            break;
        }
        take += 1;
    }
    take
}

/// One full divide-&-conquer estimation pass below an overflowing root.
///
/// * `root` — the subtree root query; **must overflow** (the caller
///   handles valid/underflow roots exactly).
/// * `levels` — the unconstrained attributes, in tree order.
/// * `r` — drill-downs per subtree; `dub` — max subdomain size.
/// * `measure` — terminal value of a top-valid node (tuple count for
///   COUNT/size, attribute sum for SUM).
///
/// Returns the unbiased estimate of the total measure below `root`.
///
/// # Errors
/// Propagates interface errors; on budget exhaustion the pass is aborted
/// and no partial value is returned (the caller's running mean over
/// completed passes is unaffected).
#[allow(clippy::too_many_arguments)]
pub fn estimate_pass<I, W, R, F>(
    iface: &I,
    root: &Query,
    levels: &[AttrId],
    r: usize,
    dub: u64,
    weights: &W,
    measure: &F,
    rng: &mut R,
) -> Result<f64>
where
    I: TopKInterface,
    W: WeightProvider + ?Sized,
    R: Rng + ?Sized,
    F: Fn(&[ReturnedTuple]) -> f64,
{
    estimate_pass_with(iface, root, levels, r, dub, weights, measure, BacktrackStrategy::Smart, rng)
}

/// [`estimate_pass`] with an explicit backtracking strategy.
///
/// # Errors
/// Same contract as [`estimate_pass`].
#[allow(clippy::too_many_arguments)]
pub fn estimate_pass_with<I, W, R, F>(
    iface: &I,
    root: &Query,
    levels: &[AttrId],
    r: usize,
    dub: u64,
    weights: &W,
    measure: &F,
    strategy: BacktrackStrategy,
    rng: &mut R,
) -> Result<f64>
where
    I: TopKInterface,
    W: WeightProvider + ?Sized,
    R: Rng + ?Sized,
    F: Fn(&[ReturnedTuple]) -> f64,
{
    let mut memo: BTreeMap<Vec<PathStep>, f64> = BTreeMap::new();
    // One incremental walk session serves the whole pass: the divide-&-
    // conquer recursion moves it with free extend/retract steps, and
    // every probe inside costs one AND over the parent's match set.
    let mut sess = iface.walk_session(root.clone())?;
    estimate_subtree(&mut sess, &[], levels, r, dub, weights, measure, strategy, rng, &mut memo)
}

/// The paper's Eq. (9)–(10) taken **literally**: accumulate over the
/// *set* of distinct captured top-valid nodes with
/// `π(q) = r·p(q)·π(q_R)`, recursing once per distinct bottom-overflow
/// node.
///
/// This form is kept for the `abl01_set_vs_recursive_dnc` ablation: it
/// undercounts nodes whose per-subtree selection probability `p` is not
/// small relative to `1/r` (capture probability `1−(1−p)^r < r·p`), so
/// it carries a small negative bias that the recursive form
/// ([`estimate_pass`]) does not. For the paper's parameter regimes
/// (`p ≪ 1/r`) the two coincide to within noise.
///
/// # Errors
/// Propagates interface errors.
#[allow(clippy::too_many_arguments)]
pub fn estimate_pass_paper_form<I, W, R, F>(
    iface: &I,
    root: &Query,
    levels: &[AttrId],
    r: usize,
    dub: u64,
    weights: &W,
    measure: &F,
    rng: &mut R,
) -> Result<f64>
where
    I: TopKInterface,
    W: WeightProvider + ?Sized,
    R: Rng + ?Sized,
    F: Fn(&[ReturnedTuple]) -> f64,
{
    let mut total = 0.0;
    let mut sess = iface.walk_session(root.clone())?;
    paper_form_subtree(&mut sess, &[], levels, r, dub, weights, measure, rng, 1.0, &mut total)?;
    Ok(total)
}

/// Recursive worker for [`estimate_pass_paper_form`]: `pi_root` is
/// `π(q_R)` of this subtree's root (1 at the top). The session enters
/// and leaves positioned at the subtree root.
#[allow(clippy::too_many_arguments)]
fn paper_form_subtree<W, R, F>(
    sess: &mut WalkSession<'_>,
    prefix: &[PathStep],
    levels: &[AttrId],
    r: usize,
    dub: u64,
    weights: &W,
    measure: &F,
    rng: &mut R,
    pi_root: f64,
    total: &mut f64,
) -> Result<()>
where
    W: WeightProvider + ?Sized,
    R: Rng + ?Sized,
    F: Fn(&[ReturnedTuple]) -> f64,
{
    assert!(!levels.is_empty(), "an overflowing node cannot be fully specified");
    let take = first_chunk_len(sess.schema(), levels, dub);
    let (chunk, rest) = levels.split_at(take);

    // Distinct terminals captured by the r drill-downs over this subtree.
    // BTreeMaps, not HashMaps: the loops below consume the shared RNG
    // (recursion) and fold f64s in iteration order, so that order must be
    // a pure function of the keys for seeded runs to reproduce.
    let mut top_valid: BTreeMap<Vec<PathStep>, (f64, f64)> = BTreeMap::new(); // path → (p, value)
    let mut bottom: BTreeMap<Vec<PathStep>, (f64, Vec<PathStep>)> = BTreeMap::new(); // path → (p, steps)
    for _ in 0..r {
        let walk =
            drill_down_session(sess, prefix, chunk, weights, BacktrackStrategy::Smart, rng)?;
        let mut path = prefix.to_vec();
        path.extend(walk.steps());
        match &walk.terminal {
            WalkTerminal::TopValid { tuples } => {
                let value = measure(tuples);
                weights.record_walk(prefix, &walk.levels, value);
                top_valid.insert(path, (walk.probability, value));
            }
            WalkTerminal::BottomOverflow => {
                let steps = walk.steps();
                bottom.insert(path, (walk.probability, steps));
            }
        }
    }
    for (p, value) in top_valid.values() {
        // π(q) = r · p(q | subtree) · π(q_R)
        *total += value / (r as f64 * p * pi_root);
    }
    for (path, (p, steps)) in &bottom {
        let pi = r as f64 * p * pi_root;
        for &(attr, value) in steps {
            sess.extend(attr, value);
        }
        paper_form_subtree(sess, path, rest, r, dub, weights, measure, rng, pi, total)?;
        for _ in steps {
            sess.retract();
        }
    }
    Ok(())
}

/// Recursive worker: estimates the measure mass below the session's
/// current node (an overflowing node at global path `prefix`) over
/// `levels`. The session enters and leaves positioned at that node;
/// recursing below a bottom-overflow terminal is a sequence of free
/// `extend` steps rather than a re-evaluated query chain. The walk that
/// reached the terminal has just retracted that path, so each step
/// re-commits the level the walk retired instead of running an AND pass.
#[allow(clippy::too_many_arguments)]
fn estimate_subtree<W, R, F>(
    sess: &mut WalkSession<'_>,
    prefix: &[PathStep],
    levels: &[AttrId],
    r: usize,
    dub: u64,
    weights: &W,
    measure: &F,
    strategy: BacktrackStrategy,
    rng: &mut R,
    memo: &mut BTreeMap<Vec<PathStep>, f64>,
) -> Result<f64>
where
    W: WeightProvider + ?Sized,
    R: Rng + ?Sized,
    F: Fn(&[ReturnedTuple]) -> f64,
{
    assert!(
        !levels.is_empty(),
        "an overflowing node cannot be fully specified: duplicate-free data \
         guarantees at most one tuple per point query"
    );
    let take = first_chunk_len(sess.schema(), levels, dub);
    let (chunk, rest) = levels.split_at(take);

    let mut sum = 0.0;
    for _ in 0..r {
        let walk = drill_down_session(sess, prefix, chunk, weights, strategy, rng)?;
        match &walk.terminal {
            WalkTerminal::TopValid { tuples } => {
                let value = measure(tuples);
                sum += value / walk.probability;
                weights.record_walk(prefix, &walk.levels, value);
            }
            WalkTerminal::BottomOverflow => {
                let mut path = prefix.to_vec();
                path.extend(walk.steps());
                let sub_estimate = match memo.get(&path) {
                    Some(&v) => v,
                    None => {
                        for level in &walk.levels {
                            sess.extend(level.attr, level.value);
                        }
                        let v = estimate_subtree(
                            sess, &path, rest, r, dub, weights, measure, strategy, rng, memo,
                        )?;
                        for _ in &walk.levels {
                            sess.retract();
                        }
                        memo.insert(path.clone(), v);
                        v
                    }
                };
                sum += sub_estimate / walk.probability;
                weights.record_walk(prefix, &walk.levels, sub_estimate);
            }
        }
    }
    Ok(sum / r as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::UniformWeights;
    use hdb_interface::{Attribute, HiddenDb, Schema, Table, Tuple};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema_mixed() -> Schema {
        Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::boolean("b"),
            Attribute::boolean("c"),
            Attribute::categorical("d", ["1", "2", "3", "4", "5"]).unwrap(),
            Attribute::boolean("e"),
        ])
        .unwrap()
    }

    #[test]
    fn partitioning_matches_paper_example() {
        // Paper §4.2.2: fanouts (2,2,2,2,5), D_UB = 10 → chunks
        // {A1,A2,A3} (domain 8) and {A4,A5} (domain 10).
        let schema = Schema::new(vec![
            Attribute::boolean("A1"),
            Attribute::boolean("A2"),
            Attribute::boolean("A3"),
            Attribute::boolean("A4"),
            Attribute::categorical("A5", ["1", "2", "3", "4", "5"]).unwrap(),
        ])
        .unwrap();
        let chunks = partition_levels(&schema, &[0, 1, 2, 3, 4], 10);
        assert_eq!(chunks, vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn oversized_single_level_still_forms_a_chunk() {
        let schema = schema_mixed();
        // attribute 3 has fanout 5 > dub 2 but must still be taken alone
        let chunks = partition_levels(&schema, &[3, 0, 1], 2);
        assert_eq!(chunks, vec![vec![3], vec![0], vec![1]]);
    }

    #[test]
    fn huge_dub_keeps_everything_in_one_chunk() {
        let schema = schema_mixed();
        let chunks = partition_levels(&schema, &[0, 1, 2, 3, 4], u64::MAX);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].len(), 5);
    }

    #[test]
    fn dnc_estimate_is_unbiased_on_small_db() {
        // 12 distinct tuples over the mixed schema; k = 1 forces deep
        // drill-downs across chunk boundaries.
        let schema = schema_mixed();
        let tuples: Vec<Tuple> = vec![
            vec![0, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 1],
            vec![0, 0, 1, 2, 0],
            vec![0, 1, 0, 3, 1],
            vec![0, 1, 1, 4, 0],
            vec![1, 0, 0, 0, 0],
            vec![1, 0, 1, 1, 1],
            vec![1, 1, 0, 2, 0],
            vec![1, 1, 1, 3, 1],
            vec![1, 1, 1, 4, 1],
            vec![0, 0, 0, 1, 0],
            vec![1, 0, 0, 4, 0],
        ]
        .into_iter()
        .map(Tuple::new)
        .collect();
        let m = tuples.len() as f64;
        let db = HiddenDb::new(Table::new(schema, tuples).unwrap(), 1);
        let mut rng = StdRng::seed_from_u64(99);
        let measure = |ts: &[hdb_interface::ReturnedTuple]| ts.len() as f64;

        let passes = 4000;
        let mut sum = 0.0;
        for _ in 0..passes {
            sum += estimate_pass(
                &db,
                &Query::all(),
                &[0, 1, 2, 3, 4],
                2,
                6,
                &UniformWeights,
                &measure,
                &mut rng,
            )
            .unwrap();
        }
        let mean = sum / f64::from(passes);
        assert!((mean - m).abs() < 0.35, "D&C mean {mean} should be ≈ {m}");
    }

    #[test]
    fn r1_with_full_dub_equals_plain_walk_distribution() {
        // With r = 1 and dub = ∞ a pass is exactly one plain drill-down.
        let schema = schema_mixed();
        let tuples: Vec<Tuple> = vec![
            vec![0, 0, 0, 0, 0],
            vec![0, 1, 0, 2, 1],
            vec![1, 0, 1, 3, 0],
            vec![1, 1, 1, 4, 1],
        ]
        .into_iter()
        .map(Tuple::new)
        .collect();
        let db = HiddenDb::new(Table::new(schema, tuples).unwrap(), 1);
        let mut rng = StdRng::seed_from_u64(5);
        let measure = |ts: &[hdb_interface::ReturnedTuple]| ts.len() as f64;
        let mut sum = 0.0;
        let passes = 3000;
        for _ in 0..passes {
            sum += estimate_pass(
                &db,
                &Query::all(),
                &[0, 1, 2, 3, 4],
                1,
                u64::MAX,
                &UniformWeights,
                &measure,
                &mut rng,
            )
            .unwrap();
        }
        let mean = sum / f64::from(passes);
        assert!((mean - 4.0).abs() < 0.2, "mean {mean} should be ≈ 4");
    }

    #[test]
    fn paper_form_bias_is_negative_and_bounded() {
        // The recursive form is exactly unbiased; the set form carries a
        // negative bias that grows with p·r. 60 tuples over 8 bool attrs.
        let schema = Schema::boolean(8);
        let table = {
            let tuples: Vec<Tuple> = (0..60u16)
                .map(|i| Tuple::new((0..8).map(|b| (i >> b) & 1).collect()))
                .collect();
            Table::new(schema, tuples).unwrap()
        };
        let m = table.len() as f64;
        let db = HiddenDb::new(table, 1);
        let mut rng = StdRng::seed_from_u64(31);
        let measure = |ts: &[hdb_interface::ReturnedTuple]| ts.len() as f64;
        let levels: Vec<usize> = (0..8).collect();
        let passes = 1500;
        let (mut rec, mut paper) = (0.0, 0.0);
        for _ in 0..passes {
            rec += estimate_pass(&db, &Query::all(), &levels, 2, 8, &UniformWeights, &measure, &mut rng)
                .unwrap();
            paper += estimate_pass_paper_form(
                &db,
                &Query::all(),
                &levels,
                2,
                8,
                &UniformWeights,
                &measure,
                &mut rng,
            )
            .unwrap();
        }
        let rec = rec / f64::from(passes);
        let paper = paper / f64::from(passes);
        assert!((rec - m).abs() < 0.06 * m, "recursive mean {rec} vs m {m}");
        // the set form undercounts whenever p is not ≪ 1/r; on this dense
        // little tree the bias is visible but bounded, and always downward
        assert!(paper < m, "paper-form bias must be negative (mean {paper})");
        assert!((paper - m).abs() < 0.2 * m, "paper-form mean {paper} vs m {m}");
    }

    #[test]
    fn paper_form_is_negatively_biased_when_p_is_large() {
        // Degenerate regime: a 2-level tree where each top-valid node has
        // large p relative to 1/r → set-form undercounts, recursive
        // form does not.
        let schema = Schema::boolean(3);
        let tuples: Vec<Tuple> =
            (0..8u16).map(|i| Tuple::new(vec![i & 1, (i >> 1) & 1, (i >> 2) & 1])).collect();
        let db = HiddenDb::new(Table::new(schema, tuples).unwrap(), 1);
        let mut rng = StdRng::seed_from_u64(77);
        let measure = |ts: &[hdb_interface::ReturnedTuple]| ts.len() as f64;
        let passes = 6000;
        let (mut rec, mut paper) = (0.0, 0.0);
        for _ in 0..passes {
            rec += estimate_pass(&db, &Query::all(), &[0, 1, 2], 4, 2, &UniformWeights, &measure, &mut rng)
                .unwrap();
            paper += estimate_pass_paper_form(
                &db,
                &Query::all(),
                &[0, 1, 2],
                4,
                2,
                &UniformWeights,
                &measure,
                &mut rng,
            )
            .unwrap();
        }
        let rec = rec / f64::from(passes);
        let paper = paper / f64::from(passes);
        assert!((rec - 8.0).abs() < 0.15, "recursive mean {rec} should be 8");
        assert!(paper < 7.7, "paper-form mean {paper} should visibly undercount here");
    }

    #[test]
    fn simple_backtracking_is_unbiased_but_costlier() {
        let schema = Schema::new(vec![
            Attribute::categorical("a", ["1", "2", "3", "4", "5", "6"]).unwrap(),
            Attribute::categorical("b", ["x", "y", "z"]).unwrap(),
            Attribute::boolean("c"),
        ])
        .unwrap();
        let table = hdb_datagen::uniform_table(&schema, 15, 3).unwrap();
        let m = table.len() as f64;
        let db = HiddenDb::new(table, 1);
        let measure = |ts: &[hdb_interface::ReturnedTuple]| ts.len() as f64;
        let levels = [0usize, 1, 2];

        let mut rng = StdRng::seed_from_u64(5);
        let run = |strategy: BacktrackStrategy, rng: &mut StdRng| -> (f64, u64) {
            let before = hdb_interface::TopKInterface::queries_issued(&db);
            let passes = 4000;
            let mut sum = 0.0;
            for _ in 0..passes {
                sum += estimate_pass_with(
                    &db,
                    &Query::all(),
                    &levels,
                    1,
                    u64::MAX,
                    &UniformWeights,
                    &measure,
                    strategy,
                    rng,
                )
                .unwrap();
            }
            let cost = hdb_interface::TopKInterface::queries_issued(&db) - before;
            (sum / f64::from(passes), cost)
        };
        let (smart_mean, smart_cost) = run(BacktrackStrategy::Smart, &mut rng);
        let (simple_mean, simple_cost) = run(BacktrackStrategy::Simple, &mut rng);
        assert!((smart_mean - m).abs() < 0.05 * m, "smart mean {smart_mean}");
        assert!((simple_mean - m).abs() < 0.05 * m, "simple mean {simple_mean}");
        assert!(
            simple_cost > smart_cost,
            "simple backtracking ({simple_cost}) must cost more than smart ({smart_cost})"
        );
    }

    #[test]
    fn sum_measure_is_unbiased() {
        // measure = sum of attribute "d" numeric values (identity 0..4)
        let schema = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::boolean("b"),
            Attribute::numeric_buckets("d", 5).unwrap(),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = vec![
            vec![0, 0, 0],
            vec![0, 0, 4],
            vec![0, 1, 2],
            vec![1, 0, 3],
            vec![1, 1, 1],
            vec![1, 1, 4],
        ]
        .into_iter()
        .map(Tuple::new)
        .collect();
        let truth: f64 = 0.0 + 4.0 + 2.0 + 3.0 + 1.0 + 4.0;
        let db = HiddenDb::new(Table::new(schema, tuples).unwrap(), 1);
        let mut rng = StdRng::seed_from_u64(17);
        let measure = |ts: &[hdb_interface::ReturnedTuple]| -> f64 {
            ts.iter().map(|t| f64::from(t.tuple.value(2))).sum()
        };
        let mut sum = 0.0;
        let passes = 5000;
        for _ in 0..passes {
            sum += estimate_pass(
                &db,
                &Query::all(),
                &[2, 0, 1],
                2,
                5,
                &UniformWeights,
                &measure,
                &mut rng,
            )
            .unwrap();
        }
        let mean = sum / f64::from(passes);
        assert!((mean - truth).abs() < truth * 0.05, "SUM mean {mean} should be ≈ {truth}");
    }
}

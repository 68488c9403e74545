//! Single-level branch selection with smart backtracking (§3.2),
//! generalised to weighted branches (§4.1).
//!
//! Given a node whose query overflows, the walk must follow one
//! *non-underflowing* branch of the next attribute and know the exact
//! marginal probability of that choice. The procedure:
//!
//! 1. Draw an initial branch from the weight distribution.
//! 2. If it underflows, scan **right** (circularly) to the next branch,
//!    issuing one query per tested branch, until one does not underflow —
//!    commit to it.
//! 3. To compute the commit probability, probe **left** of the scan's
//!    starting region until the first non-underflowing branch: the
//!    probability is `(w_c + Σ weights of the maximal run of
//!    underflowing branches immediately preceding c) / Σ all weights`,
//!    because exactly the initial picks inside that run (or on `c`
//!    itself) deterministically commit to `c`.
//!
//! Two query-saving facts from the paper are honoured: a branch is never
//! issued twice at the same node, and for **Boolean** attributes whose
//! committed branch is *valid* the sibling is provably non-empty (the
//! overflowing parent has `> k` tuples, the valid child at most `k`), so
//! the left probe is free.

use hdb_interface::{AttrId, ClassifiedOutcome, ValueId, WalkSession};
use rand::Rng;

use crate::error::Result;

/// Outcome of selecting a branch at one node of a [`WalkSession`]-driven
/// walk. The committed branch's outcome is a count-only
/// [`ClassifiedOutcome`]: walks never read overflow pages, so the session
/// skips materialising them.
#[derive(Clone, Debug)]
pub struct SessionBranchChoice {
    /// The committed branch value.
    pub value: ValueId,
    /// Exact marginal probability of committing to `value` under the
    /// supplied weights.
    pub probability: f64,
    /// Classification of the committed branch (never underflow; carries
    /// the full page when valid).
    pub outcome: ClassifiedOutcome,
    /// Branches discovered to underflow at this node (for weight-model
    /// learning).
    pub discovered_empty: Vec<ValueId>,
    /// Queries issued at this node.
    pub queries: u64,
}

/// Selects a branch of `attr` below the overflowing node `sess` is
/// positioned at, by smart backtracking (see the module docs). Each
/// probe is one [`WalkSession::classify`]; the session's position is
/// unchanged (committing is the caller's move).
///
/// # Errors
/// Propagates interface errors (notably budget exhaustion).
///
/// # Panics
/// Panics if `weights` length differs from the attribute fanout, if any
/// weight is not strictly positive, or if every branch underflows — the
/// caller must guarantee the session's node overflows, which implies a
/// non-empty branch exists.
pub fn choose_branch_session<R: Rng + ?Sized>(
    sess: &mut WalkSession<'_>,
    attr: AttrId,
    weights: &[f64],
    rng: &mut R,
) -> Result<SessionBranchChoice> {
    let fanout = sess.schema().fanout(attr);
    assert_eq!(weights.len(), fanout, "weight vector must match fanout");
    assert!(
        weights.iter().all(|&w| w > 0.0 && w.is_finite()),
        "branch weights must be strictly positive and finite"
    );
    let total: f64 = weights.iter().sum();

    // Per-branch knowledge gathered at this node: Some(true) = non-empty,
    // Some(false) = underflow. Never issue the same branch twice.
    let mut known: Vec<Option<bool>> = vec![None; fanout];
    let mut queries = 0u64;

    // -- step 1+2: initial pick, then circular right scan ---------------
    let initial = sample_weighted(rng, weights, total);
    let mut candidate = initial;
    let committed_outcome = loop {
        let outcome = sess.classify(attr, candidate as ValueId)?;
        queries += 1;
        if outcome.is_underflow() {
            known[candidate] = Some(false);
            candidate = (candidate + 1) % fanout;
            assert!(
                candidate != initial,
                "every branch of attribute {attr} underflows: base query must overflow"
            );
        } else {
            known[candidate] = Some(true);
            break outcome;
        }
    };
    let committed = candidate;

    // -- step 3: weight of the underflow run preceding `committed` ------
    let mut run_weight = 0.0;
    // Boolean shortcut: a valid committed branch under an overflowing
    // parent implies a non-empty sibling — no query needed.
    if fanout == 2 && committed_outcome.is_valid() && known[1 - committed].is_none() {
        known[1 - committed] = Some(true);
    }
    let mut probe = (committed + fanout - 1) % fanout;
    let mut steps = 0usize;
    while probe != committed && steps < fanout - 1 {
        let nonempty = match known[probe] {
            Some(flag) => flag,
            None => {
                let outcome = sess.classify(attr, probe as ValueId)?;
                queries += 1;
                let flag = outcome.is_nonempty();
                known[probe] = Some(flag);
                flag
            }
        };
        if nonempty {
            break;
        }
        run_weight += weights[probe];
        probe = (probe + fanout - 1) % fanout;
        steps += 1;
    }

    let probability = ((weights[committed] + run_weight) / total).min(1.0);
    let discovered_empty = known
        .iter()
        .enumerate()
        .filter_map(|(v, &flag)| (flag == Some(false)).then_some(v as ValueId))
        .collect();

    Ok(SessionBranchChoice {
        value: committed as ValueId,
        probability,
        outcome: committed_outcome,
        discovered_empty,
        queries,
    })
}

/// Selects a branch using *simple backtracking* (paper §3.2): query every
/// branch of the node up front (count-only), then choose
/// weight-proportionally among the non-underflowing ones. The commit
/// probability is exactly `w_c / Σ weights of non-underflowing branches`.
///
/// Always issues one query per branch, which is the cost the paper's
/// smart backtracking was designed to avoid on large-fanout attributes.
///
/// # Errors
/// Propagates interface errors.
///
/// # Panics
/// Same contract as [`choose_branch_session`].
pub fn choose_branch_simple_session<R: Rng + ?Sized>(
    sess: &mut WalkSession<'_>,
    attr: AttrId,
    weights: &[f64],
    rng: &mut R,
) -> Result<SessionBranchChoice> {
    let fanout = sess.schema().fanout(attr);
    assert_eq!(weights.len(), fanout, "weight vector must match fanout");
    assert!(
        weights.iter().all(|&w| w > 0.0 && w.is_finite()),
        "branch weights must be strictly positive and finite"
    );
    let mut outcomes = Vec::with_capacity(fanout);
    let mut queries = 0u64;
    for v in 0..fanout {
        outcomes.push(sess.classify(attr, v as ValueId)?);
        queries += 1;
    }
    let live: Vec<usize> = (0..fanout).filter(|&v| outcomes[v].is_nonempty()).collect();
    assert!(
        !live.is_empty(),
        "every branch of attribute {attr} underflows: base query must overflow"
    );
    let live_total: f64 = live.iter().map(|&v| weights[v]).sum();
    let mut u: f64 = rng.random::<f64>() * live_total;
    let mut committed = *live.last().expect("live non-empty");
    for &v in &live {
        u -= weights[v];
        if u <= 0.0 {
            committed = v;
            break;
        }
    }
    let discovered_empty = (0..fanout)
        .filter(|&v| outcomes[v].is_underflow())
        .map(|v| v as ValueId)
        .collect();
    Ok(SessionBranchChoice {
        value: committed as ValueId,
        probability: weights[committed] / live_total,
        outcome: outcomes.swap_remove(committed),
        discovered_empty,
        queries,
    })
}

/// Draws an index proportionally to `weights` (all positive, summing to
/// `total`).
fn sample_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64], total: f64) -> usize {
    let mut u: f64 = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdb_interface::{Attribute, HiddenDb, Query, Schema, Table, TopKInterface, Tuple};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A5 column of the paper's running example restricted to the Figure 3
    /// situation: branches {q1, q3} non-empty, {q2, q4, q5} empty.
    fn figure3_db() -> HiddenDb {
        let schema = Schema::new(vec![
            Attribute::categorical("a5", ["1", "2", "3", "4", "5"]).unwrap(),
            Attribute::boolean("pad"),
        ])
        .unwrap();
        // several tuples under value 0 ("q1") and one under value 2 ("q3")
        let table = Table::new(
            schema,
            vec![
                Tuple::new(vec![0, 0]),
                Tuple::new(vec![0, 1]),
                Tuple::new(vec![2, 0]),
            ],
        )
        .unwrap();
        HiddenDb::new(table, 1)
    }

    #[test]
    fn commit_probabilities_match_figure3() {
        // wU(q1) = 2 (q4, q5 empty precede it), wU(q3) = 1 (q2).
        // Under uniform weights p(q1) = 3/5, p(q3) = 2/5.
        let db = figure3_db();
        let mut sess = db.walk_session(Query::all()).unwrap();
        let weights = vec![1.0; 5];
        let mut hits = [0u32; 5];
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 20_000;
        for _ in 0..trials {
            let choice = choose_branch_session(&mut sess, 0, &weights, &mut rng).unwrap();
            hits[choice.value as usize] += 1;
            let expected = match choice.value {
                0 => 3.0 / 5.0,
                2 => 2.0 / 5.0,
                v => panic!("committed to empty branch {v}"),
            };
            assert!(
                (choice.probability - expected).abs() < 1e-12,
                "value {} probability {}",
                choice.value,
                choice.probability
            );
        }
        let f0 = f64::from(hits[0]) / f64::from(trials);
        assert!((f0 - 0.6).abs() < 0.02, "empirical frequency {f0}");
    }

    #[test]
    fn weighted_commit_probability_is_exact() {
        let db = figure3_db();
        let mut sess = db.walk_session(Query::all()).unwrap();
        // weights: q1..q5 = 5,1,2,1,1 (total 10)
        let weights = vec![5.0, 1.0, 2.0, 1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(7);
        let mut freq = [0u32; 5];
        let trials = 40_000;
        for _ in 0..trials {
            let c = choose_branch_session(&mut sess, 0, &weights, &mut rng).unwrap();
            freq[c.value as usize] += 1;
            let expected = match c.value {
                0 => (5.0 + 1.0 + 1.0) / 10.0, // q1 + run {q4, q5}
                2 => (2.0 + 1.0) / 10.0,       // q3 + run {q2}
                v => panic!("committed to empty branch {v}"),
            };
            assert!((c.probability - expected).abs() < 1e-12);
        }
        let f0 = f64::from(freq[0]) / f64::from(trials);
        assert!((f0 - 0.7).abs() < 0.02, "empirical frequency {f0}");
    }

    #[test]
    fn all_but_one_empty_commits_with_probability_one() {
        let schema = Schema::new(vec![
            Attribute::categorical("c", ["a", "b", "c", "d"]).unwrap(),
            Attribute::boolean("pad"),
        ])
        .unwrap();
        let table = Table::new(
            schema,
            vec![Tuple::new(vec![1, 0]), Tuple::new(vec![1, 1])],
        )
        .unwrap();
        let db = HiddenDb::new(table, 1);
        let mut sess = db.walk_session(Query::all()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let c = choose_branch_session(&mut sess, 0, &[1.0; 4], &mut rng).unwrap();
            assert_eq!(c.value, 1);
            assert!((c.probability - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn boolean_valid_shortcut_saves_the_sibling_query() {
        // 2 tuples on branch 0, 2 on branch 1, k = 2: both branches valid.
        let table = Table::new(
            Schema::boolean(2),
            vec![
                Tuple::new(vec![0, 0]),
                Tuple::new(vec![0, 1]),
                Tuple::new(vec![1, 0]),
                Tuple::new(vec![1, 1]),
            ],
        )
        .unwrap();
        let db = HiddenDb::new(table, 2);
        let mut sess = db.walk_session(Query::all()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let c = choose_branch_session(&mut sess, 0, &[1.0, 1.0], &mut rng).unwrap();
        // committed branch is valid; sibling probe skipped → exactly 1 query
        assert!(c.outcome.is_valid());
        assert_eq!(c.queries, 1);
        assert!((c.probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn boolean_overflow_commit_requires_sibling_probe() {
        // 3 tuples on branch 0 (overflow at k=2), 2 on branch 1.
        let table = Table::new(
            Schema::boolean(3),
            vec![
                Tuple::new(vec![0, 0, 0]),
                Tuple::new(vec![0, 0, 1]),
                Tuple::new(vec![0, 1, 0]),
                Tuple::new(vec![1, 0, 0]),
                Tuple::new(vec![1, 0, 1]),
            ],
        )
        .unwrap();
        let db = HiddenDb::new(table, 2);
        let mut sess = db.walk_session(Query::all()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let before = db.queries_issued();
        let c = choose_branch_session(&mut sess, 0, &[1.0, 1.0], &mut rng).unwrap();
        let spent = db.queries_issued() - before;
        if c.value == 0 {
            // overflowing commit: sibling must be probed → 2 queries
            assert!(c.outcome.is_overflow());
            assert_eq!(spent, 2);
        } else {
            // valid commit: shortcut applies → 1 query
            assert!(c.outcome.is_valid());
            assert_eq!(spent, 1);
        }
        assert!((c.probability - 0.5).abs() < 1e-12);
        assert_eq!(c.queries, spent);
    }

    #[test]
    fn expected_query_cost_matches_equation_2() {
        // Paper §3.2 works QC for the Figure-3 node: branches {q1, q3}
        // non-empty, {q2, q4, q5} empty, so
        // QC = 1 + [(w_U(q1)+1)² + (w_U(q3)+1)²]/w = 1 + (9 + 4)/5 = 3.6.
        let db = figure3_db();
        let mut sess = db.walk_session(Query::all()).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 40_000u32;
        let mut total_queries = 0u64;
        for _ in 0..trials {
            let c = choose_branch_session(&mut sess, 0, &[1.0; 5], &mut rng).unwrap();
            total_queries += c.queries;
        }
        let qc = total_queries as f64 / f64::from(trials);
        assert!((qc - 3.6).abs() < 0.02, "empirical QC {qc} vs Eq. 2 value 3.6");
    }

    #[test]
    fn simple_backtracking_always_queries_every_branch() {
        let db = figure3_db();
        let mut sess = db.walk_session(Query::all()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let c = choose_branch_simple_session(&mut sess, 0, &[1.0; 5], &mut rng).unwrap();
            assert_eq!(c.queries, 5);
            assert!(matches!(c.value, 0 | 2));
            assert!((c.probability - 0.5).abs() < 1e-12, "uniform over the two live branches");
            assert_eq!(c.discovered_empty.len(), 3);
        }
    }

    #[test]
    fn simple_backtracking_respects_weights() {
        let db = figure3_db();
        let mut sess = db.walk_session(Query::all()).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let weights = [3.0, 1.0, 1.0, 1.0, 1.0];
        let mut hits0 = 0u32;
        let trials = 20_000;
        for _ in 0..trials {
            let c = choose_branch_simple_session(&mut sess, 0, &weights, &mut rng).unwrap();
            if c.value == 0 {
                hits0 += 1;
                assert!((c.probability - 0.75).abs() < 1e-12);
            } else {
                assert!((c.probability - 0.25).abs() < 1e-12);
            }
        }
        let f = f64::from(hits0) / f64::from(trials);
        assert!((f - 0.75).abs() < 0.02, "frequency {f}");
    }

    #[test]
    fn discovered_empties_are_reported() {
        let db = figure3_db();
        let mut sess = db.walk_session(Query::all()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut saw_empty = false;
        for _ in 0..50 {
            let c = choose_branch_session(&mut sess, 0, &[1.0; 5], &mut rng).unwrap();
            for &v in &c.discovered_empty {
                assert!(matches!(v, 1 | 3 | 4), "branch {v} is not empty");
                saw_empty = true;
            }
        }
        assert!(saw_empty);
    }

    #[test]
    #[should_panic(expected = "must overflow")]
    fn all_empty_branches_panic() {
        // A session rooted at an underflowing node: every branch below it
        // underflows too.
        let schema = Schema::new(vec![
            Attribute::categorical("c", ["a", "b", "c"]).unwrap(),
            Attribute::boolean("pad"),
        ])
        .unwrap();
        let table = Table::new(schema, vec![Tuple::new(vec![0, 0])]).unwrap();
        let db = HiddenDb::new(table, 1);
        let base = Query::all().and(1, 1).unwrap(); // pad=1 matches nothing
        let mut sess = db.walk_session(base).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let _ = choose_branch_session(&mut sess, 0, &[1.0; 3], &mut rng);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_weight_rejected() {
        let db = figure3_db();
        let mut sess = db.walk_session(Query::all()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let _ = choose_branch_session(&mut sess, 0, &[1.0, 0.0, 1.0, 1.0, 1.0], &mut rng);
    }
}

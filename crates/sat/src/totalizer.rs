//! Generalized totalizer encoding for weighted sums.
//!
//! Encodes the objective `F = Σ wᵢ·ℓᵢ` (Eq. 5 of the paper) into CNF as a
//! balanced merge tree. Each tree node carries the set of *attainable*
//! partial sums, one fresh output literal per sum with the semantics
//! "the partial sum is **at least** this value". Sums above a `cap` are
//! clamped to the cap, keeping the encoding small when only bounds below
//! the cap will ever be queried.
//!
//! The objective arrives as **at-most-one groups**: lists of terms of
//! which no model makes more than one true. Each group becomes one leaf
//! whose outputs are the group's distinct weights — each member implies
//! the output of its own weight, and the ordering chain carries it to
//! every lower one. Eq. 5 has exactly this shape: the permutation
//! selectors of one change point are exactly-one (footnote 5), and the
//! edge-use selectors of one gate are exclusive because each logical
//! qubit sits on one physical qubit. On QX4 a change point's 120
//! selectors thus make one leaf of a handful of outputs instead of 120
//! leaves, and the merge tree above shrinks with it. A singleton group
//! is an ordinary term, so any flat sum can be passed as singletons.
//!
//! The precondition is the caller's: a group that a model can make true
//! twice counts only its dearest member, so the encoded sum undercounts
//! and a bound assumption no longer holds the true sum below it.
//! [`crate::minimize`] checks every model's true cost against the bound
//! it asked for and stops, uncertified, when one breaks it.
//!
//! The root's output literals let a caller bound the objective
//! *incrementally*: `F ≤ B` is the single assumption `¬(first output
//! literal with weight > B)`, thanks to the ordering clauses
//! `o_{w₊} → o_{w₋}` added at every node.

use crate::lit::Lit;
use crate::solver::Solver;

/// The root outputs of an encoded weighted sum.
#[derive(Debug, Clone)]
pub struct Totalizer {
    /// `(w, o_w)` sorted ascending by `w`; `o_w` means "sum ≥ w".
    outputs: Vec<(u64, Lit)>,
    cap: u64,
}

impl Totalizer {
    /// Encodes the sum of the at-most-one `groups` of (weight, literal)
    /// terms into `solver`, clamping attainable sums at `cap`.
    ///
    /// Zero-weight terms are ignored. With no (non-trivial) terms the sum
    /// is constantly 0 and there are no outputs.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn encode(solver: &mut Solver, groups: &[Vec<(u64, Lit)>], cap: u64) -> Totalizer {
        Totalizer::encode_impl(solver, groups, cap, false)
            .expect("uninterruptible encoding always completes")
    }

    /// [`Totalizer::encode`] with cooperative interruption: the solver's
    /// own stop state ([`Solver::stop_requested`] — its interrupt flag,
    /// deadline, and shared conflict pool) is polled between merge nodes,
    /// and `None` is returned when it fires. A large objective found just
    /// before a deadline therefore cannot overshoot it while encoding; the
    /// caller keeps the model it has, honestly unproved.
    ///
    /// Clauses added before the interruption stay in the solver; they are
    /// sound (pure implications over fresh literals) and harmless without
    /// the bound assumptions that would have used them.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn encode_interruptible(
        solver: &mut Solver,
        groups: &[Vec<(u64, Lit)>],
        cap: u64,
    ) -> Option<Totalizer> {
        Totalizer::encode_impl(solver, groups, cap, true)
    }

    fn encode_impl(
        solver: &mut Solver,
        groups: &[Vec<(u64, Lit)>],
        cap: u64,
        interruptible: bool,
    ) -> Option<Totalizer> {
        assert!(cap > 0, "cap must be positive");
        let mut leaves: Vec<Vec<(u64, Lit)>> = groups
            .iter()
            .map(|group| leaf(solver, group, cap))
            .filter(|leaf| !leaf.is_empty())
            .collect();
        if leaves.is_empty() {
            return Some(Totalizer {
                outputs: Vec::new(),
                cap,
            });
        }
        // Balanced bottom-up merge. The per-node work is bounded by the
        // cap-clamped sum count, so the per-merge stop check bounds the
        // overshoot to one node's clauses.
        while leaves.len() > 1 {
            let mut next = Vec::with_capacity(leaves.len().div_ceil(2));
            let mut it = leaves.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => {
                        if interruptible && solver.stop_requested() {
                            return None;
                        }
                        next.push(merge(solver, &a, &b, cap));
                    }
                    None => next.push(a),
                }
            }
            leaves = next;
        }
        Some(Totalizer {
            outputs: leaves.pop().expect("one root remains"),
            cap,
        })
    }

    /// The literal to *refute* in order to assert `sum ≤ bound`:
    /// the output literal of the smallest attainable sum exceeding `bound`.
    /// Returns `None` if no attainable sum exceeds `bound` (the constraint
    /// is vacuous).
    ///
    /// # Panics
    ///
    /// Panics if `bound >= cap` would make the clamped encoding unsound —
    /// i.e. `bound` must be `< cap`.
    pub fn bound_literal(&self, bound: u64) -> Option<Lit> {
        assert!(
            bound < self.cap,
            "bound {bound} not representable under cap {}",
            self.cap
        );
        self.outputs
            .iter()
            .find(|(w, _)| *w > bound)
            .map(|&(_, l)| l)
    }

    /// All `(w, o_w)` outputs, ascending.
    pub fn outputs(&self) -> &[(u64, Lit)] {
        &self.outputs
    }

    /// The clamp value used at encoding time.
    pub fn cap(&self) -> u64 {
        self.cap
    }
}

/// The leaf of one at-most-one group: one output per distinct
/// (cap-clamped, positive) weight, implied by each member of that weight,
/// plus the ordering chain. A lone member is its own output.
fn leaf(solver: &mut Solver, group: &[(u64, Lit)], cap: u64) -> Vec<(u64, Lit)> {
    let mut members: Vec<(u64, Lit)> = group
        .iter()
        .filter(|(w, _)| *w > 0)
        .map(|&(w, l)| (w.min(cap), l))
        .collect();
    if members.len() <= 1 {
        return members;
    }
    members.sort_unstable_by_key(|&(w, _)| w);
    let mut out: Vec<(u64, Lit)> = Vec::new();
    for (w, l) in members {
        let o = match out.last() {
            Some(&(v, o)) if v == w => o,
            prev => {
                let o = solver.new_lit();
                if let Some(&(_, lower)) = prev {
                    solver.add_clause([!o, lower]);
                }
                out.push((w, o));
                o
            }
        };
        solver.add_clause([!l, o]);
    }
    out
}

/// Merges two children, producing the parent's `(sum, literal)` list with
/// implication clauses:
/// `a_w → o_w`, `b_w → o_w`, `a_u ∧ b_v → o_{min(u+v, cap)}`, plus ordering
/// clauses `o_{wᵢ₊₁} → o_{wᵢ}`.
fn merge(solver: &mut Solver, a: &[(u64, Lit)], b: &[(u64, Lit)], cap: u64) -> Vec<(u64, Lit)> {
    use std::collections::BTreeMap;
    let mut sums: BTreeMap<u64, Lit> = BTreeMap::new();
    let fresh = |solver: &mut Solver, sums: &mut BTreeMap<u64, Lit>, w: u64| -> Lit {
        *sums.entry(w).or_insert_with(|| solver.new_lit())
    };
    // Collect all attainable sums first.
    let mut wanted: Vec<u64> = Vec::new();
    for &(u, _) in a {
        wanted.push(u.min(cap));
    }
    for &(v, _) in b {
        wanted.push(v.min(cap));
    }
    for &(u, _) in a {
        for &(v, _) in b {
            wanted.push((u + v).min(cap));
        }
    }
    wanted.sort_unstable();
    wanted.dedup();
    for w in wanted {
        let _ = fresh(solver, &mut sums, w);
    }
    // Implications.
    for &(u, la) in a {
        let o = sums[&u.min(cap)];
        solver.add_clause([!la, o]);
    }
    for &(v, lb) in b {
        let o = sums[&v.min(cap)];
        solver.add_clause([!lb, o]);
    }
    for &(u, la) in a {
        for &(v, lb) in b {
            let o = sums[&(u + v).min(cap)];
            solver.add_clause([!la, !lb, o]);
        }
    }
    let out: Vec<(u64, Lit)> = sums.into_iter().collect();
    // Ordering: sum ≥ w₊ implies sum ≥ w₋.
    for pair in out.windows(2) {
        solver.add_clause([!pair[1].1, pair[0].1]);
    }
    out
}

/// Evaluates `Σ wᵢ·ℓᵢ` over every term of `groups` under a model — the
/// true sum, whether or not the groups are really at-most-one.
pub fn evaluate(groups: &[Vec<(u64, Lit)>], model: &crate::solver::Model) -> u64 {
    groups
        .iter()
        .flatten()
        .filter(|(_, l)| model.value(*l))
        .map(|(w, _)| *w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_lit()).collect()
    }

    /// Each term as its own group: the flat form of a weighted sum.
    fn singletons(terms: &[(u64, Lit)]) -> Vec<Vec<(u64, Lit)>> {
        terms.iter().map(|&t| vec![t]).collect()
    }

    /// Exhaustively verify: for every assignment of the term literals that
    /// keeps each group at most one, the formula with assumption
    /// `sum ≤ bound` is satisfiable extending that assignment iff the true
    /// weighted sum is ≤ bound.
    fn check_bounds_exhaustively(groups: &[&[u64]]) {
        let weights: Vec<u64> = groups.iter().flat_map(|g| g.iter().copied()).collect();
        let group_of: Vec<usize> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, ws)| ws.iter().map(move |_| g))
            .collect();
        let total: u64 = weights.iter().sum();
        for bound in 0..total {
            let mut s = Solver::new();
            let v = lits(&mut s, weights.len());
            let mut encoded: Vec<Vec<(u64, Lit)>> = vec![Vec::new(); groups.len()];
            for (i, (&w, &l)) in weights.iter().zip(&v).enumerate() {
                encoded[group_of[i]].push((w, l));
            }
            let tot = Totalizer::encode(&mut s, &encoded, total + 1);
            let bound_lit = tot.bound_literal(bound);
            for mask in 0..(1u32 << weights.len()) {
                let exclusive = (0..groups.len()).all(|g| {
                    (0..weights.len())
                        .filter(|&i| group_of[i] == g && mask & (1 << i) != 0)
                        .count()
                        <= 1
                });
                if !exclusive {
                    continue;
                }
                let mut assumptions: Vec<Lit> = (0..weights.len())
                    .map(|i| if mask & (1 << i) != 0 { v[i] } else { !v[i] })
                    .collect();
                if let Some(bl) = bound_lit {
                    assumptions.push(!bl);
                }
                let sum: u64 = (0..weights.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| weights[i])
                    .sum();
                let res = s.solve_with_assumptions(&assumptions);
                if sum <= bound {
                    assert!(
                        res.is_sat(),
                        "groups={groups:?} mask={mask:b} bound={bound}"
                    );
                } else {
                    assert_eq!(
                        res,
                        SolveResult::Unsat,
                        "groups={groups:?} mask={mask:b} bound={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn unit_weights_behave_like_cardinality() {
        check_bounds_exhaustively(&[&[1], &[1], &[1], &[1]]);
    }

    #[test]
    fn paper_weights_seven_and_four() {
        // The actual weight profile of Eq. 5: multiples of 7 plus 4s.
        check_bounds_exhaustively(&[&[7], &[7], &[14], &[4], &[4]]);
    }

    #[test]
    fn mixed_weights() {
        check_bounds_exhaustively(&[&[3], &[5], &[2]]);
        check_bounds_exhaustively(&[&[10], &[1], &[1], &[1]]);
    }

    #[test]
    fn grouped_leaves_bound_exclusive_choices() {
        // Eq. 5's shape: a change point's selectors (duplicate and zero
        // weights included) beside a gate's reversal selectors.
        check_bounds_exhaustively(&[&[0, 7, 7, 14, 21]]);
        check_bounds_exhaustively(&[&[0, 7, 7, 14, 21], &[4, 4]]);
        check_bounds_exhaustively(&[&[3, 1, 3], &[2], &[5, 0, 1]]);
    }

    #[test]
    fn a_group_leaf_has_one_output_per_distinct_weight() {
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        let group: Vec<(u64, Lit)> = [0, 7, 7, 14, 7, 30].into_iter().zip(v).collect();
        let tot = Totalizer::encode(&mut s, &[group], 20);
        let ws: Vec<u64> = tot.outputs().iter().map(|(w, _)| *w).collect();
        assert_eq!(ws, vec![7, 14, 20]);
    }

    #[test]
    fn zero_weight_terms_are_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        let tot = Totalizer::encode(&mut s, &singletons(&[(0, v[0]), (5, v[1])]), 10);
        assert_eq!(tot.outputs().len(), 1);
        let tot = Totalizer::encode(&mut s, &[vec![(0, v[0])], vec![]], 10);
        assert!(tot.outputs().is_empty());
    }

    #[test]
    fn empty_objective_has_no_outputs() {
        let mut s = Solver::new();
        let tot = Totalizer::encode(&mut s, &[], 10);
        assert!(tot.outputs().is_empty());
        assert_eq!(tot.bound_literal(3), None);
        assert_eq!(tot.cap(), 10);
    }

    #[test]
    fn cap_clamps_large_sums() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let terms = vec![(100u64, v[0]), (100, v[1]), (100, v[2])];
        let tot = Totalizer::encode(&mut s, &singletons(&terms), 150);
        // Attainable clamped sums: 100, 150.
        let ws: Vec<u64> = tot.outputs().iter().map(|(w, _)| *w).collect();
        assert_eq!(ws, vec![100, 150]);
        // Bound 99 refutes "≥ 100": no term may be true.
        let bl = tot.bound_literal(99).unwrap();
        let m = s.solve_with_assumptions(&[!bl]).model().cloned().unwrap();
        assert!(!m.value(v[0]) && !m.value(v[1]) && !m.value(v[2]));
    }

    #[test]
    #[should_panic(expected = "not representable")]
    fn bound_at_or_above_cap_panics() {
        let mut s = Solver::new();
        let v = s.new_lit();
        let tot = Totalizer::encode(&mut s, &[vec![(5, v)]], 6);
        let _ = tot.bound_literal(6);
    }

    #[test]
    fn interrupted_encoding_returns_none_and_plain_encode_ignores_stops() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let terms: Vec<Vec<(u64, Lit)>> = v.iter().map(|&l| vec![(1, l)]).collect();
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Some(flag.clone()));
        assert!(s.stop_requested());
        // The interruptible form winds down at the first merge node...
        assert!(Totalizer::encode_interruptible(&mut s, &terms, 5).is_none());
        // ... the plain form completes regardless (it promises a result).
        let tot = Totalizer::encode(&mut s, &terms, 5);
        assert_eq!(tot.outputs().len(), 4);
        // With the flag cleared, the interruptible form completes too.
        flag.store(false, std::sync::atomic::Ordering::Relaxed);
        let tot = Totalizer::encode_interruptible(&mut s, &terms, 5).expect("not stopped");
        assert_eq!(tot.outputs().len(), 4);
    }

    #[test]
    fn single_leaf_encoding_survives_interruption() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // One leaf means no merge: nothing to interrupt, even when the
        // leaf is a whole group.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.set_interrupt(Some(Arc::new(AtomicBool::new(true))));
        let group = vec![(3, v[0]), (4, v[1]), (3, v[2])];
        let tot = Totalizer::encode_interruptible(&mut s, &[group], 5).expect("no merges");
        assert_eq!(tot.outputs().len(), 2);
    }

    #[test]
    fn evaluate_sums_true_terms() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0]]);
        s.add_clause([!v[1]]);
        s.add_clause([v[2]]);
        let m = s.solve().model().cloned().unwrap();
        let groups = vec![vec![(7u64, v[0]), (4, v[1])], vec![(9, v[2])]];
        assert_eq!(evaluate(&groups, &m), 16);
    }
}

//! Cardinality and gate encodings.
//!
//! The symbolic formulation needs *exactly-one* constraints (Eq. 1's
//! well-defined-mapping condition, the permutation selectors of footnote 5)
//! and *at-most-one* constraints. Small constraints use the pairwise
//! encoding; larger ones the sequential (ladder) encoding, which is linear
//! in clauses and auxiliary variables.

use crate::lit::Lit;
use crate::solver::Solver;

/// Above this size, [`at_most_one`] switches from pairwise to sequential.
const PAIRWISE_LIMIT: usize = 6;

/// Adds `ℓ₁ + … + ℓₙ ≥ 1` (a single clause).
pub fn at_least_one(solver: &mut Solver, lits: &[Lit]) {
    solver.add_clause(lits.iter().copied());
}

/// Adds `ℓ₁ + … + ℓₙ ≤ 1`, choosing pairwise or sequential encoding by
/// size.
pub fn at_most_one(solver: &mut Solver, lits: &[Lit]) {
    if lits.len() <= PAIRWISE_LIMIT {
        at_most_one_pairwise(solver, lits);
    } else {
        at_most_one_sequential(solver, lits);
    }
}

/// Pairwise at-most-one: `O(n²)` binary clauses, no auxiliary variables.
pub fn at_most_one_pairwise(solver: &mut Solver, lits: &[Lit]) {
    for i in 0..lits.len() {
        for j in (i + 1)..lits.len() {
            solver.add_clause([!lits[i], !lits[j]]);
        }
    }
}

/// Sequential (ladder/commander-free) at-most-one: `O(n)` clauses and
/// `n − 1` auxiliary variables `sᵢ` meaning "some literal among the first
/// `i+1` is true".
pub fn at_most_one_sequential(solver: &mut Solver, lits: &[Lit]) {
    if lits.len() <= 1 {
        return;
    }
    let n = lits.len();
    let s: Vec<Lit> = (0..n - 1).map(|_| solver.new_lit()).collect();
    solver.add_clause([!lits[0], s[0]]);
    for i in 1..n - 1 {
        solver.add_clause([!lits[i], s[i]]);
        solver.add_clause([!s[i - 1], s[i]]);
        solver.add_clause([!lits[i], !s[i - 1]]);
    }
    solver.add_clause([!lits[n - 1], !s[n - 2]]);
}

/// Adds `ℓ₁ + … + ℓₙ = 1`.
pub fn exactly_one(solver: &mut Solver, lits: &[Lit]) {
    at_least_one(solver, lits);
    at_most_one(solver, lits);
}

/// Tseitin AND: returns a literal `g` with `g ↔ (ℓ₁ ∧ … ∧ ℓₙ)`.
pub fn and_gate(solver: &mut Solver, lits: &[Lit]) -> Lit {
    let g = solver.new_lit();
    for &l in lits {
        solver.add_clause([!g, l]);
    }
    let mut clause: Vec<Lit> = lits.iter().map(|&l| !l).collect();
    clause.push(g);
    solver.add_clause(clause);
    g
}

/// Tseitin OR: returns a literal `g` with `g ↔ (ℓ₁ ∨ … ∨ ℓₙ)`.
pub fn or_gate(solver: &mut Solver, lits: &[Lit]) -> Lit {
    let g = solver.new_lit();
    for &l in lits {
        solver.add_clause([!l, g]);
    }
    let mut clause: Vec<Lit> = lits.to_vec();
    clause.push(!g);
    solver.add_clause(clause);
    g
}

/// Adds `a → b`.
pub fn implies(solver: &mut Solver, a: Lit, b: Lit) {
    solver.add_clause([!a, b]);
}

/// Adds `a ↔ b`.
pub fn iff(solver: &mut Solver, a: Lit, b: Lit) {
    solver.add_clause([!a, b]);
    solver.add_clause([a, !b]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_lit()).collect()
    }

    /// Count models of the current formula over the first `n` vars by
    /// blocking clauses (small n only).
    fn count_models(s: &mut Solver, over: &[Lit]) -> usize {
        let mut count = 0;
        while let SolveResult::Sat(m) = s.solve() {
            count += 1;
            let block: Vec<Lit> = over
                .iter()
                .map(|&l| if m.value(l) { !l } else { l })
                .collect();
            if !s.add_clause(block) {
                break;
            }
        }
        count
    }

    #[test]
    fn exactly_one_has_n_models() {
        for n in 1..=8 {
            let mut s = Solver::new();
            let v = lits(&mut s, n);
            exactly_one(&mut s, &v);
            assert_eq!(count_models(&mut s, &v), n, "n={n}");
        }
    }

    #[test]
    fn at_most_one_model_count() {
        // n + 1 models: all-false plus each singleton.
        for n in [2, 5, 9] {
            let mut s = Solver::new();
            let v = lits(&mut s, n);
            at_most_one(&mut s, &v);
            assert_eq!(count_models(&mut s, &v), n + 1, "n={n}");
        }
    }

    #[test]
    fn sequential_amo_matches_pairwise() {
        for n in 2..=7 {
            let mut s1 = Solver::new();
            let v1 = lits(&mut s1, n);
            at_most_one_pairwise(&mut s1, &v1);
            let mut s2 = Solver::new();
            let v2 = lits(&mut s2, n);
            at_most_one_sequential(&mut s2, &v2);
            assert_eq!(
                count_models(&mut s1, &v1),
                count_models(&mut s2, &v2),
                "n={n}"
            );
        }
    }

    #[test]
    fn and_gate_truth_table() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        let g = and_gate(&mut s, &v.clone());
        // g true forces both.
        let m = s.solve_with_assumptions(&[g]).model().cloned().unwrap();
        assert!(m.value(v[0]) && m.value(v[1]));
        // both true forces g.
        let m = s
            .solve_with_assumptions(&[v[0], v[1]])
            .model()
            .cloned()
            .unwrap();
        assert!(m.value(g));
        // one false forces ¬g.
        let m = s.solve_with_assumptions(&[!v[0]]).model().cloned().unwrap();
        assert!(!m.value(g));
    }

    #[test]
    fn or_gate_truth_table() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let g = or_gate(&mut s, &v.clone());
        let m = s
            .solve_with_assumptions(&[!v[0], !v[1], !v[2]])
            .model()
            .cloned()
            .unwrap();
        assert!(!m.value(g));
        let m = s.solve_with_assumptions(&[v[1]]).model().cloned().unwrap();
        assert!(m.value(g));
    }

    #[test]
    fn iff_and_implies() {
        let mut s = Solver::new();
        let a = s.new_lit();
        let b = s.new_lit();
        let c = s.new_lit();
        iff(&mut s, a, b);
        implies(&mut s, b, c);
        let m = s.solve_with_assumptions(&[a]).model().cloned().unwrap();
        assert!(m.value(b) && m.value(c));
        let m = s.solve_with_assumptions(&[!b]).model().cloned().unwrap();
        assert!(!m.value(a));
    }

    #[test]
    fn empty_constraints_are_noops() {
        let mut s = Solver::new();
        at_most_one(&mut s, &[]);
        assert!(s.solve().is_sat());
    }
}

//! Objective minimization (the "extended interpretation" of Definition 3).
//!
//! Given a satisfiable formula and an objective `F = Σ wᵢ·ℓᵢ` split into
//! at-most-one groups, find a model minimizing `F`. Two complementary
//! search schedules are provided, both driven by [`Totalizer`] bound
//! literals assumed incrementally (the clause database, including
//! everything learnt, is reused across iterations):
//!
//! * **linear descent** (default): solve, read off the model cost `C`,
//!   assume `F ≤ C − 1`, repeat until unsatisfiable — matching the paper's
//!   "add the objective min: F" usage where each improving model tightens
//!   the bound;
//! * **binary search**: bisect on `F ≤ mid` between 0 and the first model's
//!   cost (the paper's footnote alternative).

use crate::lit::Lit;
use crate::solver::{Model, SolveResult, Solver};
use crate::totalizer::{evaluate, Totalizer};

/// Search schedule for [`minimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MinimizeStrategy {
    /// Model-improving linear descent from the first model's cost.
    #[default]
    LinearDescent,
    /// Binary search on the bound.
    BinarySearch,
}

/// Options for [`minimize`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimizeOptions {
    /// Search schedule.
    pub strategy: MinimizeStrategy,
    /// Total conflict budget shared by the whole minimization
    /// (`None` = unlimited). When it runs out, the best model found so
    /// far is returned with `proved_optimal = false`.
    pub conflict_budget: Option<u64>,
    /// An externally known achievable cost (e.g. from a heuristic run):
    /// the search only looks for models with cost **strictly below** this
    /// bound, pruning from the very first solve. When no such model
    /// exists, [`MinimizeError::Unsatisfiable`] is returned — which then
    /// certifies the external solution as optimal.
    pub initial_upper_bound: Option<u64>,
}

impl MinimizeOptions {
    /// Sets the search schedule (builder style).
    pub fn with_strategy(mut self, strategy: MinimizeStrategy) -> MinimizeOptions {
        self.strategy = strategy;
        self
    }

    /// Sets the total conflict budget (builder style).
    pub fn with_conflict_budget(mut self, budget: Option<u64>) -> MinimizeOptions {
        self.conflict_budget = budget;
        self
    }

    /// Sets the externally known achievable cost the search stays
    /// strictly below (builder style). Callers typically derive the bound
    /// from a result priced under the same device cost model as the
    /// objective weights — mixing models breaks the certificate.
    pub fn with_initial_upper_bound(mut self, bound: Option<u64>) -> MinimizeOptions {
        self.initial_upper_bound = bound;
        self
    }
}

/// Why a minimization produced no model at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinimizeError {
    /// The hard clauses are unsatisfiable.
    Unsatisfiable,
    /// The conflict budget ran out before any model was found.
    BudgetExhausted,
}

impl std::fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinimizeError::Unsatisfiable => write!(f, "hard clauses are unsatisfiable"),
            MinimizeError::BudgetExhausted => {
                write!(f, "conflict budget exhausted before a first model")
            }
        }
    }
}

impl std::error::Error for MinimizeError {}

/// Result of a successful minimization.
#[derive(Debug, Clone, PartialEq)]
pub struct Minimum {
    /// The minimal objective value found.
    pub cost: u64,
    /// A model attaining [`Minimum::cost`].
    pub model: Model,
    /// Whether optimality was proved (always true without a budget).
    pub proved_optimal: bool,
    /// Number of `solve` calls performed.
    pub iterations: u32,
}

/// Minimizes `Σ wᵢ·ℓᵢ` subject to the clauses already in `solver`.
///
/// The objective is a list of **at-most-one groups** (see
/// [`crate::totalizer`]): the caller promises that no model of the
/// clauses makes two terms of one group true. A flat sum passes each term
/// as its own group. The promise is checked where it matters: every model
/// found must cost no more than the bound it was asked for. A model that
/// breaks its bound stops the search — the cheapest model seen is
/// returned with `proved_optimal: false`, never certified.
///
/// The solver is left with only the original clauses plus consequences
/// (bounds are applied via assumptions, never as permanent clauses), so it
/// can be reused.
///
/// # Errors
///
/// [`MinimizeError::Unsatisfiable`] if the hard clauses have no model;
/// [`MinimizeError::BudgetExhausted`] if the conflict budget ran out before
/// the first model was found (with a budget, a *found* model that merely
/// could not be proved optimal is still returned, flagged
/// `proved_optimal: false`).
///
/// ```
/// use qxmap_sat::{minimize, MinimizeOptions, Solver};
///
/// // Example 4 of the paper: minimize F = x1 + x2 + x3 subject to
/// // (x1 ∨ x2 ∨ ¬x3)(¬x1 ∨ x3)(¬x2 ∨ x3): minimum is all-false, F = 0.
/// let mut s = Solver::new();
/// let x1 = s.new_lit();
/// let x2 = s.new_lit();
/// let x3 = s.new_lit();
/// s.add_clause([x1, x2, !x3]);
/// s.add_clause([!x1, x3]);
/// s.add_clause([!x2, x3]);
/// let min = minimize(&mut s, &[vec![(1, x1)], vec![(1, x2)], vec![(1, x3)]],
///                    MinimizeOptions::default()).expect("satisfiable");
/// assert_eq!(min.cost, 0);
/// assert!(min.proved_optimal);
/// ```
pub fn minimize(
    solver: &mut Solver,
    objective: &[Vec<(u64, Lit)>],
    options: MinimizeOptions,
) -> Result<Minimum, MinimizeError> {
    // The budget is shared by the *whole* minimization: each solve call
    // receives what remains.
    let mut remaining = options.conflict_budget;
    let mut budgeted_solve = |solver: &mut Solver, assumptions: &[Lit]| -> SolveResult {
        if remaining == Some(0) {
            return SolveResult::Unknown;
        }
        solver.set_conflict_budget(remaining);
        let before = solver.stats().conflicts;
        let result = solver.solve_with_assumptions(assumptions);
        if let Some(rem) = remaining.as_mut() {
            *rem = rem.saturating_sub(solver.stats().conflicts - before);
        }
        result
    };

    // With an external upper bound, encode the objective up front and
    // assume `F ≤ ub − 1` from the very first solve: the solver propagates
    // the bound instead of rediscovering it model by model. The encoding
    // itself observes the solver's deadline/interrupt/pool state, so a
    // budget that fires mid-encoding surfaces as exhaustion, not overrun.
    let mut totalizer: Option<Totalizer> = None;
    let mut base_assumptions: Vec<Lit> = Vec::new();
    if let Some(ub) = options.initial_upper_bound {
        if ub == 0 {
            // Nothing can cost strictly less than 0.
            return Err(MinimizeError::Unsatisfiable);
        }
        let Some(t) = Totalizer::encode_interruptible(solver, objective, ub) else {
            return Err(MinimizeError::BudgetExhausted);
        };
        if let Some(bl) = t.bound_literal(ub - 1) {
            base_assumptions.push(!bl);
        }
        totalizer = Some(t);
    }

    let first = budgeted_solve(solver, &base_assumptions);
    let mut iterations = 1;
    let mut best = match first {
        SolveResult::Sat(m) => m,
        SolveResult::Unsat => {
            solver.set_conflict_budget(None);
            return Err(MinimizeError::Unsatisfiable);
        }
        SolveResult::Unknown => {
            solver.set_conflict_budget(None);
            return Err(MinimizeError::BudgetExhausted);
        }
    };
    let mut best_cost = evaluate(objective, &best);

    // Every exit below that is not a completed refutation leaves the best
    // model unproved.
    let proved = 'search: {
        if options
            .initial_upper_bound
            .is_some_and(|ub| best_cost >= ub)
        {
            // The bound did not hold: some group is not at-most-one.
            break 'search false;
        }
        if best_cost == 0 {
            break 'search true;
        }
        // Encode the objective once (unless the upper bound already did),
        // clamped at the first model's cost: all future bounds are
        // strictly below it. On a large objective this encoding can dwarf
        // a deadline that the first model only just beat — when the
        // solver's stop state fires mid-encoding, the first model is
        // returned, honestly unproved, instead of overshooting the budget.
        let totalizer = match totalizer {
            Some(t) => t,
            None => match Totalizer::encode_interruptible(solver, objective, best_cost) {
                Some(t) => t,
                None => break 'search false,
            },
        };
        // Both schedules narrow `[lo, best_cost)`, the costs neither
        // refuted nor attained: linear descent always asks for
        // `best − 1`, binary search for the midpoint.
        let mut lo = 0u64;
        while lo < best_cost {
            let target = match options.strategy {
                MinimizeStrategy::LinearDescent => best_cost - 1,
                MinimizeStrategy::BinarySearch => lo + (best_cost - lo) / 2,
            };
            // `best_cost` is attainable and at most the cap, so with
            // at-most-one groups an output above `target` always exists.
            let Some(bl) = totalizer.bound_literal(target) else {
                break 'search false;
            };
            iterations += 1;
            match budgeted_solve(solver, &[!bl]) {
                SolveResult::Sat(m) => {
                    let c = evaluate(objective, &m);
                    if c < best_cost {
                        best = m;
                        best_cost = c;
                    }
                    if c > target {
                        // The model broke the bound it was asked for.
                        break 'search false;
                    }
                }
                SolveResult::Unsat => lo = target + 1,
                SolveResult::Unknown => break 'search false,
            }
        }
        true
    };

    solver.set_conflict_budget(None);
    Ok(Minimum {
        cost: best_cost,
        model: best,
        proved_optimal: proved,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::exactly_one;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_lit()).collect()
    }

    /// Each term as its own group: the flat form of a weighted sum.
    fn singletons(terms: &[(u64, Lit)]) -> Vec<Vec<(u64, Lit)>> {
        terms.iter().map(|&t| vec![t]).collect()
    }

    #[test]
    fn unsat_formula_returns_none() {
        let mut s = Solver::new();
        let a = s.new_lit();
        s.add_clause([a]);
        s.add_clause([!a]);
        assert_eq!(
            minimize(&mut s, &[vec![(1, a)]], MinimizeOptions::default()),
            Err(MinimizeError::Unsatisfiable)
        );
    }

    #[test]
    fn picks_cheapest_of_exactly_one() {
        for strategy in [
            MinimizeStrategy::LinearDescent,
            MinimizeStrategy::BinarySearch,
        ] {
            let mut s = Solver::new();
            let v = lits(&mut s, 4);
            exactly_one(&mut s, &v);
            // The exactly-one selectors form one group.
            let obj = vec![vec![(9u64, v[0]), (2, v[1]), (5, v[2]), (7, v[3])]];
            let min = minimize(
                &mut s,
                &obj,
                MinimizeOptions {
                    strategy,
                    ..Default::default()
                },
            )
            .expect("sat");
            assert_eq!(min.cost, 2, "{strategy:?}");
            assert!(min.model.value(v[1]));
            assert!(min.proved_optimal);
        }
    }

    #[test]
    fn forced_positive_cost() {
        // x1 ∨ x2 with weights 7 and 4: minimum 4.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        let min = minimize(
            &mut s,
            &singletons(&[(7, v[0]), (4, v[1])]),
            MinimizeOptions::default(),
        )
        .unwrap();
        assert_eq!(min.cost, 4);
        assert!(!min.model.value(v[0]) && min.model.value(v[1]));
    }

    #[test]
    fn zero_cost_shortcut() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]); // free to pick either; obj over other vars
        let w = s.new_lit();
        let min = minimize(&mut s, &[vec![(3, w)]], MinimizeOptions::default()).unwrap();
        assert_eq!(min.cost, 0);
        assert_eq!(min.iterations, 1);
    }

    #[test]
    fn upper_bound_prunes_but_preserves_the_minimum() {
        for strategy in [
            MinimizeStrategy::LinearDescent,
            MinimizeStrategy::BinarySearch,
        ] {
            let mut s = Solver::new();
            let v = lits(&mut s, 4);
            exactly_one(&mut s, &v);
            // The exactly-one selectors form one group.
            let obj = vec![vec![(9u64, v[0]), (2, v[1]), (5, v[2]), (7, v[3])]];
            let min = minimize(
                &mut s,
                &obj,
                MinimizeOptions {
                    strategy,
                    initial_upper_bound: Some(6),
                    ..Default::default()
                },
            )
            .expect("cost 2 < 6 exists");
            assert_eq!(min.cost, 2, "{strategy:?}");
            assert!(min.proved_optimal);
        }
    }

    #[test]
    fn tight_upper_bound_certifies_external_optimum() {
        // Minimum is 4; asking for strictly better must be Unsatisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        let err = minimize(
            &mut s,
            &singletons(&[(7, v[0]), (4, v[1])]),
            MinimizeOptions {
                initial_upper_bound: Some(4),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, MinimizeError::Unsatisfiable);
        // A zero bound can never be beaten.
        let err = minimize(
            &mut s,
            &singletons(&[(7, v[0]), (4, v[1])]),
            MinimizeOptions {
                initial_upper_bound: Some(0),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, MinimizeError::Unsatisfiable);
        // The solver survives bound assumptions and stays reusable.
        assert!(s.solve_with_assumptions(&[v[0]]).is_sat());
    }

    #[test]
    fn interrupted_upfront_encoding_is_budget_exhaustion() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // With an initial upper bound, the totalizer is encoded before the
        // first solve; a stop request during that encoding must surface as
        // budget exhaustion instead of a completed (overshot) encoding.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]);
        s.set_interrupt(Some(Arc::new(AtomicBool::new(true))));
        let err = minimize(
            &mut s,
            &singletons(&[(1, v[0]), (1, v[1]), (1, v[2])]),
            MinimizeOptions {
                initial_upper_bound: Some(3),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, MinimizeError::BudgetExhausted);
    }

    #[test]
    fn solver_reusable_after_minimize() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        exactly_one(&mut s, &v);
        let obj = vec![vec![(1, v[0]), (2, v[1]), (3, v[2])]];
        let min = minimize(&mut s, &obj, MinimizeOptions::default()).unwrap();
        assert_eq!(min.cost, 1);
        // The formula is still just "exactly one": forcing v[2] must work.
        assert!(s.solve_with_assumptions(&[v[2]]).is_sat());
    }

    #[test]
    fn a_group_that_is_not_at_most_one_is_never_certified() {
        // `a` and `b` can both be true, so their group undercounts: the
        // encoded sum of a ∧ b ∧ ¬c is 5 while its true cost is 10. Every
        // search reaches a bound that admits that model, and the model
        // breaks it.
        for strategy in [
            MinimizeStrategy::LinearDescent,
            MinimizeStrategy::BinarySearch,
        ] {
            for ub in [None, Some(7), Some(11)] {
                let mut s = Solver::new();
                let v = lits(&mut s, 3);
                let (a, b, c) = (v[0], v[1], v[2]);
                s.add_clause([a, c]);
                s.add_clause([b, c]);
                let obj = vec![vec![(5, a), (5, b)], vec![(6, c)]];
                let min = minimize(
                    &mut s,
                    &obj,
                    MinimizeOptions {
                        strategy,
                        initial_upper_bound: ub,
                        ..Default::default()
                    },
                )
                .expect("satisfiable");
                assert!(!min.proved_optimal, "{strategy:?} ub={ub:?}");
                assert_eq!(min.cost, evaluate(&obj, &min.model));
            }
        }
    }

    #[test]
    fn a_search_cut_short_is_never_certified() {
        // The first model clears `pigeons` (cost 1); asking for cost 0
        // means refuting a pigeonhole instance (7 pigeons, 6 holes), far
        // beyond the conflict budget.
        for strategy in [
            MinimizeStrategy::LinearDescent,
            MinimizeStrategy::BinarySearch,
        ] {
            let mut s = Solver::new();
            let pigeons = s.new_lit();
            let p: Vec<Vec<Lit>> = (0..7).map(|_| lits(&mut s, 6)).collect();
            for pigeon in &p {
                s.add_clause(pigeon.iter().copied().chain([!pigeons]));
            }
            for h in 0..6 {
                for (i, a) in p.iter().enumerate() {
                    for b in &p[i + 1..] {
                        s.add_clause([!a[h], !b[h], !pigeons]);
                    }
                }
            }
            let min = minimize(
                &mut s,
                &[vec![(1, !pigeons)]],
                MinimizeOptions {
                    strategy,
                    conflict_budget: Some(50),
                    ..Default::default()
                },
            )
            .expect("the first model needs no search");
            assert_eq!(min.cost, 1, "{strategy:?}");
            assert!(!min.proved_optimal, "{strategy:?}");
        }
    }

    #[test]
    fn binary_and_linear_agree_on_random_instances() {
        let mut seed = 0x12345u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..20 {
            let n = 8;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..12 {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    cl.push(((rnd() % n as u64) as usize, rnd() % 2 == 0));
                }
                clauses.push(cl);
            }
            let weights: Vec<u64> = (0..n).map(|_| rnd() % 9 + 1).collect();

            let run = |strategy: MinimizeStrategy| {
                let mut s = Solver::new();
                let v = lits(&mut s, n);
                for cl in &clauses {
                    s.add_clause(cl.iter().map(|&(i, pos)| if pos { v[i] } else { !v[i] }));
                }
                let obj: Vec<(u64, Lit)> = weights.iter().copied().zip(v.iter().copied()).collect();
                minimize(
                    &mut s,
                    &singletons(&obj),
                    MinimizeOptions {
                        strategy,
                        ..Default::default()
                    },
                )
                .ok()
                .map(|m| m.cost)
            };
            assert_eq!(
                run(MinimizeStrategy::LinearDescent),
                run(MinimizeStrategy::BinarySearch)
            );
        }
    }

    #[test]
    fn matches_brute_force_reference() {
        let mut seed = 0x777u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..15 {
            let n = 7usize;
            let mut clauses: Vec<Vec<i64>> = Vec::new();
            for _ in 0..10 {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    let var = (rnd() % n as u64) as i64 + 1;
                    cl.push(if rnd() % 2 == 0 { var } else { -var });
                }
                clauses.push(cl);
            }
            let weights: Vec<u64> = (0..n).map(|_| rnd() % 6).collect();

            // Brute force.
            let mut brute_best: Option<u64> = None;
            for mask in 0..(1u32 << n) {
                let assign = |v: i64| -> bool {
                    let idx = v.unsigned_abs() as usize - 1;
                    let val = mask & (1 << idx) != 0;
                    if v > 0 {
                        val
                    } else {
                        !val
                    }
                };
                if clauses.iter().all(|cl| cl.iter().any(|&l| assign(l))) {
                    let cost: u64 = (0..n)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| weights[i])
                        .sum();
                    brute_best = Some(brute_best.map_or(cost, |b: u64| b.min(cost)));
                }
            }

            let mut s = Solver::new();
            let v = lits(&mut s, n);
            for cl in &clauses {
                s.add_clause(cl.iter().map(|&l| {
                    let idx = l.unsigned_abs() as usize - 1;
                    if l > 0 {
                        v[idx]
                    } else {
                        !v[idx]
                    }
                }));
            }
            let obj: Vec<(u64, Lit)> = weights.iter().copied().zip(v.iter().copied()).collect();
            let got = minimize(&mut s, &singletons(&obj), MinimizeOptions::default())
                .ok()
                .map(|m| m.cost);
            assert_eq!(got, brute_best);
        }
    }
}

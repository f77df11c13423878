//! Property-based validation of the CDCL solver against the brute-force
//! reference on random CNF formulas and objectives.

use proptest::prelude::*;
use qxmap_sat::{
    brute, encode, minimize, Lit, MinimizeError, MinimizeOptions, MinimizeStrategy, SolveResult,
    Solver,
};

/// A random clause over `num_vars` variables, as DIMACS-style integers.
fn clause_strategy(num_vars: usize) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        (1..=num_vars as i64).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
        1..=4,
    )
}

fn formula_strategy(num_vars: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(clause_strategy(num_vars), 0..40)
}

fn to_lits(clause: &[i64]) -> Vec<Lit> {
    clause.iter().map(|&v| Lit::from_dimacs(v)).collect()
}

fn build_solver(num_vars: usize, clauses: &[Vec<i64>]) -> Solver {
    let mut s = Solver::new();
    for _ in 0..num_vars {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(to_lits(c));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SAT/UNSAT verdicts agree with exhaustive enumeration.
    #[test]
    fn verdict_matches_brute_force(clauses in formula_strategy(10)) {
        let lit_clauses: Vec<Vec<Lit>> = clauses.iter().map(|c| to_lits(c)).collect();
        let expected = brute::is_satisfiable(10, &lit_clauses);
        let mut s = build_solver(10, &clauses);
        let got = s.solve();
        match (expected, &got) {
            (true, SolveResult::Sat(model)) => {
                // The model must actually satisfy every clause.
                for c in &lit_clauses {
                    prop_assert!(c.iter().any(|&l| model.value(l)),
                                 "model violates clause {c:?}");
                }
            }
            (false, SolveResult::Unsat) => {}
            _ => prop_assert!(false, "verdict mismatch: expected sat={expected}, got {got:?}"),
        }
    }

    /// Solving twice (incremental reuse) gives the same verdict.
    #[test]
    fn idempotent_resolve(clauses in formula_strategy(8)) {
        let mut s = build_solver(8, &clauses);
        let first = s.solve().is_sat();
        let second = s.solve().is_sat();
        prop_assert_eq!(first, second);
    }

    /// Assumptions behave like temporary unit clauses.
    #[test]
    fn assumptions_equal_units(clauses in formula_strategy(8), pol in prop::collection::vec(any::<bool>(), 8)) {
        let assumptions: Vec<Lit> = pol
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let l = Lit::from_dimacs(i as i64 + 1);
                if p { l } else { !l }
            })
            .collect();
        let mut s1 = build_solver(8, &clauses);
        let with_assumptions = s1.solve_with_assumptions(&assumptions).is_sat();
        let mut s2 = build_solver(8, &clauses);
        for &a in &assumptions {
            s2.add_clause([a]);
        }
        let with_units = s2.solve().is_sat();
        prop_assert_eq!(with_assumptions, with_units);
    }

    /// The minimizer returns the true minimum cost of a flat sum, passed
    /// as singleton groups.
    #[test]
    fn minimize_matches_brute_force(
        clauses in formula_strategy(8),
        weights in prop::collection::vec(0u64..8, 8),
    ) {
        let lit_clauses: Vec<Vec<Lit>> = clauses.iter().map(|c| to_lits(c)).collect();
        let objective: Vec<(u64, Lit)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, Lit::from_dimacs(i as i64 + 1)))
            .collect();
        let expected = brute::minimum_cost(8, &lit_clauses, &objective);
        let mut s = build_solver(8, &clauses);
        let groups: Vec<Vec<(u64, Lit)>> = objective.iter().map(|&t| vec![t]).collect();
        let got = minimize(&mut s, &groups, MinimizeOptions::default());
        match (expected, got) {
            (None, Err(MinimizeError::Unsatisfiable)) => {}
            (Some(e), Ok(m)) => {
                prop_assert_eq!(e, m.cost);
                prop_assert!(m.proved_optimal);
            }
            (e, g) => prop_assert!(false, "expected {e:?}, got {g:?}"),
        }
    }

    /// The grouped minimizer returns the true minimum under both search
    /// schedules. Variables are dealt into up to four groups, each
    /// constrained exactly-one or at-most-one, the rest stay singletons;
    /// weights are small, so duplicates and zeros are common.
    #[test]
    fn grouped_minimize_matches_brute_force(
        clauses in prop::collection::vec(clause_strategy(10), 0..16),
        group_of in prop::collection::vec(0usize..6, 10),
        exactly in prop::collection::vec(any::<bool>(), 4),
        weights in prop::collection::vec(0u64..5, 10),
    ) {
        let var = |i: usize| Lit::from_dimacs(i as i64 + 1);
        let constrained: Vec<(Vec<Lit>, bool)> = (0..4)
            .map(|g| {
                let members: Vec<Lit> = (0..10).filter(|&i| group_of[i] == g).map(var).collect();
                (members, exactly[g])
            })
            .filter(|(members, _)| !members.is_empty())
            .collect();
        // The brute-force reference sees each constraint pairwise.
        let mut lit_clauses: Vec<Vec<Lit>> = clauses.iter().map(|c| to_lits(c)).collect();
        for (members, exactly) in &constrained {
            for (a, &x) in members.iter().enumerate() {
                for &y in &members[a + 1..] {
                    lit_clauses.push(vec![!x, !y]);
                }
            }
            if *exactly {
                lit_clauses.push(members.clone());
            }
        }
        let weight = |l: Lit| weights[l.var().index()];
        let mut groups: Vec<Vec<(u64, Lit)>> = constrained
            .iter()
            .map(|(members, _)| members.iter().map(|&l| (weight(l), l)).collect())
            .collect();
        groups.extend((0..10).filter(|&i| group_of[i] >= 4).map(|i| vec![(weights[i], var(i))]));
        let flat: Vec<(u64, Lit)> = groups.iter().flatten().copied().collect();
        let expected = brute::minimum_cost(10, &lit_clauses, &flat);

        for strategy in [MinimizeStrategy::LinearDescent, MinimizeStrategy::BinarySearch] {
            // The solver sees the library's own cardinality encodings.
            let mut s = build_solver(10, &clauses);
            for (members, exactly) in &constrained {
                if *exactly {
                    encode::exactly_one(&mut s, members);
                } else {
                    encode::at_most_one(&mut s, members);
                }
            }
            let got = minimize(
                &mut s,
                &groups,
                MinimizeOptions::default().with_strategy(strategy),
            );
            match (expected, got) {
                (None, Err(MinimizeError::Unsatisfiable)) => {}
                (Some(e), Ok(m)) => {
                    prop_assert_eq!(e, m.cost, "{:?}", strategy);
                    prop_assert!(m.proved_optimal, "{:?}", strategy);
                }
                (e, g) => prop_assert!(false, "{strategy:?}: expected {e:?}, got {g:?}"),
            }
        }
    }
}

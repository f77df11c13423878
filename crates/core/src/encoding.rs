//! The symbolic formulation of the mapping problem (Section 3.2).
//!
//! Builds, for one choice of physical-qubit subset and change-point set, a
//! CNF instance over:
//!
//! * mapping variables `x^k_{ij}` (Definition 4),
//! * permutation selectors `y^k_π` (Definition 5, in the footnote-5 form:
//!   exactly-one selector per change point plus `y^k_π →` transition
//!   implications — correct for all `n ≤ m` and smaller than the printed
//!   equivalence),
//! * edge-use selectors `u^k_{e,o}` Tseitin-encoding Eq. (2)'s disjunction,
//!   with the reversed-orientation selectors carrying the per-edge 4-H
//!   repair weight directly (generalizing the paper's per-gate `z^k` flag
//!   to calibration-aware costs),
//!
//! and the weighted objective of Eq. (5). Every weight — the SWAP cost of
//! each permutation and the reversal surcharge of each edge — is read from
//! the [`DeviceModel`], the workspace's single authority on device costs;
//! the paper's uniform 7/4 accounting is simply the default model.
//!
//! The objective is handed to the minimizer as at-most-one groups, one per
//! change point (its cost-bearing `y^k_π`, exactly-one by construction)
//! and one per gate (its cost-bearing edge-use selectors, exclusive since
//! each logical qubit sits on exactly one physical qubit), so the
//! objective's totalizer builds one leaf per exclusive choice.
//!
//! The permutation table is pruned by the search bound. Eq. (5) charges a
//! selected `y^k_π` its full `swaps(π)`, so a solution cheaper than a
//! strict bound `U` never selects a `π` whose cost alone is `≥ U`. Built
//! with a bound, the instance gets selectors and transition clauses only
//! for the permutations cheaper than it — a prefix of the table's
//! cost-ordered list, the identity always first. It keeps exactly the
//! solutions cheaper than `U`, so a minimum it finds is the global one and
//! an unsatisfiable instance still refutes everything below `U`. Built
//! without a bound, it encodes the full table.

use std::collections::BTreeSet;

use qxmap_arch::{CostedSwapTable, DeviceModel, Permutation};
use qxmap_sat::{encode, Lit, Model, Solver};

/// Size statistics of one built SAT instance — the quantities behind the
/// paper's search-space discussion (`n·m·|G|` mapping variables,
/// Example 5; subset reduction, Example 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingStats {
    /// Total solver variables (mapping + selectors + auxiliaries).
    pub variables: usize,
    /// Problem clauses.
    pub clauses: usize,
    /// Mapping variables `x^k_{ij}` only (= `n·m·|G|`).
    pub mapping_variables: usize,
    /// Number of change points `|G'|`.
    pub change_points: usize,
    /// Permutations encoded per change point (`|Π|` after pruning): those
    /// cheaper than the instance's bound, or the whole table without one.
    pub permutations: usize,
    /// Realizable permutations the bound pruned from every change point
    /// (0 without a bound).
    pub pruned: usize,
    /// Objective terms in Eq. (5), over all groups.
    pub objective_terms: usize,
    /// Wall-clock time the encoding took to build, in microseconds —
    /// the per-subset counter solve traces attach to their `encode`
    /// spans.
    pub build_us: u64,
}

/// A built SAT instance for one mapping subproblem.
pub(crate) struct Encoding {
    /// The solver holding all clauses.
    pub solver: Solver,
    /// `x[k][i][j]`: before skeleton gate `k`, logical `j` sits on local
    /// physical `i`.
    x: Vec<Vec<Vec<Lit>>>,
    /// For each change point (ascending): `(gate index, per-permutation
    /// selector literals aligned with `perms`)`.
    y: Vec<(usize, Vec<Lit>)>,
    /// The encoded permutations of the local subgraph, in the table's
    /// `(cost, π)` order.
    perms: Vec<Permutation>,
    /// Realizable permutations the bound left out.
    pruned: usize,
    /// The weighted objective terms of Eq. (5), as at-most-one groups:
    /// one per change point and one per gate, each holding only its
    /// cost-bearing selectors (groups left empty are dropped).
    pub objective: Vec<Vec<(u64, Lit)>>,
    num_logical: usize,
    num_phys: usize,
    build_time: std::time::Duration,
}

impl Encoding {
    /// Builds the instance.
    ///
    /// * `skeleton` — CNOT list over logical qubits `0..num_logical`
    ///   (must be non-empty; trivial circuits are handled by the caller);
    /// * `local_model` — device model of the chosen subset, in local
    ///   indices (supplies the coupling map and every objective weight);
    /// * `table` — cost-weighted `swaps(π)` table of the same subgraph,
    ///   priced under the same model;
    /// * `change_points` — `G'` (0-based skeleton indices, none equal 0).
    ///
    /// Encodes the full permutation table; see
    /// [`Encoding::build_interruptible`] for the bound-pruned instance.
    pub fn build(
        skeleton: &[(usize, usize)],
        num_logical: usize,
        local_model: &DeviceModel,
        table: &CostedSwapTable,
        change_points: &BTreeSet<usize>,
    ) -> Encoding {
        Encoding::build_interruptible(
            skeleton,
            num_logical,
            local_model,
            table,
            change_points,
            None,
            &mut || false,
        )
        .expect("uninterruptible build always completes")
    }

    /// [`Encoding::build`] restricted to solutions cheaper than `bound`,
    /// with a cooperative stop check.
    ///
    /// * `bound` — the strict bound the instance is solved under: only
    ///   permutations whose cost is below it get selectors (all of them
    ///   when `None`). Must not be `Some(0)`: nothing is cheaper than 0,
    ///   so such an instance is never built.
    /// * `interrupted` — polled between permutations of the transition
    ///   encoding; for a full 8-qubit table that is one check per ~40 000
    ///   clause batches, so a deadline or cancellation lands long before
    ///   the multi-million-clause instance finishes building. Returns
    ///   `None` when it fired.
    pub fn build_interruptible(
        skeleton: &[(usize, usize)],
        num_logical: usize,
        local_model: &DeviceModel,
        table: &CostedSwapTable,
        change_points: &BTreeSet<usize>,
        bound: Option<u64>,
        interrupted: &mut dyn FnMut() -> bool,
    ) -> Option<Encoding> {
        assert!(!skeleton.is_empty(), "trivial circuits bypass the encoding");
        assert_ne!(bound, Some(0), "no solution is cheaper than 0");
        let build_start = std::time::Instant::now();
        let local_cm = local_model.coupling_map();
        let k_gates = skeleton.len();
        let m = local_cm.num_qubits();
        assert!(num_logical <= m, "subset smaller than logical register");
        debug_assert!(change_points.iter().all(|&k| k >= 1 && k < k_gates));

        let mut solver = Solver::new();
        let mut objective: Vec<Vec<(u64, Lit)>> = Vec::new();

        // --- mapping variables + Eq. (1) -----------------------------------
        let mut x: Vec<Vec<Vec<Lit>>> = Vec::with_capacity(k_gates);
        for _ in 0..k_gates {
            let step: Vec<Vec<Lit>> = (0..m)
                .map(|_| (0..num_logical).map(|_| solver.new_lit()).collect())
                .collect();
            x.push(step);
        }
        for step in &x {
            // Each logical qubit on exactly one physical qubit...
            for j in 0..num_logical {
                let col: Vec<Lit> = step.iter().map(|row| row[j]).collect();
                encode::exactly_one(&mut solver, &col);
            }
            // ... and each physical qubit holds at most one logical qubit.
            for row in step.iter() {
                encode::at_most_one(&mut solver, row);
            }
        }

        // --- gate executability, Eq. (2) + refined Eq. (4) ------------------
        for (k, &(c, t)) in skeleton.iter().enumerate() {
            if interrupted() {
                return None;
            }
            let mut options: Vec<Lit> = Vec::new();
            let mut costs: Vec<(u64, Lit)> = Vec::new();
            for (a, b) in local_cm.edges().collect::<Vec<_>>() {
                // Forward use: control on a, target on b. The selector
                // carries the hosting edge's execution overhead — the
                // CNOT cost above the baseline 1, zero under the default
                // models — so a calibrated dear edge repels placements.
                let u = solver.new_lit();
                solver.add_clause([!u, x[k][a][c]]);
                solver.add_clause([!u, x[k][b][t]]);
                let w = local_model
                    .execution_overhead(a, b)
                    .expect("(a,b) is an edge");
                if w > 0 {
                    costs.push((w, u));
                }
                options.push(u);
                // Reversed use (only when the opposite edge is absent;
                // otherwise that placement is the opposite edge's forward
                // use and costs nothing). The selector carries the edge's
                // own 4-H repair weight plus its CNOT surcharge, so
                // calibration-skewed costs price each hosting edge
                // differently. Every selector pins the gate's control and
                // target to one ordered pair of physical qubits, so at
                // most one of a gate's selectors holds.
                if !local_cm.has_edge(b, a) {
                    let ur = solver.new_lit();
                    solver.add_clause([!ur, x[k][b][c]]);
                    solver.add_clause([!ur, x[k][a][t]]);
                    let w = local_model
                        .execution_overhead(b, a)
                        .expect("(a,b) exists and (b,a) does not");
                    if w > 0 {
                        costs.push((w, ur));
                    }
                    options.push(ur);
                }
            }
            // Eq. (2): some edge hosts the gate.
            encode::at_least_one(&mut solver, &options);
            if !costs.is_empty() {
                objective.push(costs);
            }
        }

        // --- transitions: frame equality or selected permutation ------------
        // Only permutations cheaper than the bound can appear in a
        // solution below it; the identity (cost 0) always survives.
        let kept = table.cheaper_than(bound);
        let mut y: Vec<(usize, Vec<Lit>)> = Vec::new();
        for k in 1..k_gates {
            if change_points.contains(&k) {
                let selectors: Vec<Lit> = (0..kept.len()).map(|_| solver.new_lit()).collect();
                encode::exactly_one(&mut solver, &selectors);
                let mut costs: Vec<(u64, Lit)> = Vec::new();
                for (&sel, (cost, pi)) in selectors.iter().zip(kept) {
                    if interrupted() {
                        return None;
                    }
                    // y^k_π ∧ x^{k-1}_{ij} → x^k_{π(i)j}; with the
                    // exactly-one column constraints this pins the whole
                    // transition (footnote 5).
                    for i in 0..m {
                        let pi_i = pi.apply(i);
                        for (&from, &to) in x[k - 1][i].iter().zip(&x[k][pi_i]) {
                            solver.add_clause([!sel, !from, to]);
                        }
                    }
                    if *cost > 0 {
                        costs.push((*cost, sel));
                    }
                }
                if !costs.is_empty() {
                    objective.push(costs);
                }
                y.push((k, selectors));
            } else {
                // Layout frozen across this gate.
                for (prev_row, next_row) in x[k - 1].iter().zip(&x[k]) {
                    for (&from, &to) in prev_row.iter().zip(next_row) {
                        solver.add_clause([!from, to]);
                    }
                }
            }
        }

        Some(Encoding {
            solver,
            x,
            y,
            perms: kept.iter().map(|(_, pi)| pi.clone()).collect(),
            pruned: table.len() - kept.len(),
            objective,
            num_logical,
            num_phys: m,
            build_time: build_start.elapsed(),
        })
    }

    /// Size statistics of this instance.
    pub fn stats(&self) -> EncodingStats {
        EncodingStats {
            variables: self.solver.num_vars(),
            clauses: self.solver.num_clauses(),
            mapping_variables: self.x.len() * self.num_phys * self.num_logical,
            change_points: self.y.len(),
            permutations: self.perms.len(),
            pruned: self.pruned,
            objective_terms: self.objective.iter().map(Vec::len).sum(),
            build_us: u64::try_from(self.build_time.as_micros()).unwrap_or(u64::MAX),
        }
    }

    /// Reads the per-step layouts out of a model: `layouts[k][j]` is the
    /// local physical qubit of logical `j` before skeleton gate `k`.
    ///
    /// # Panics
    ///
    /// Panics if the model violates the exactly-one structure (cannot
    /// happen for models produced from this encoding).
    pub fn extract_layouts(&self, model: &Model) -> Vec<Vec<usize>> {
        self.x
            .iter()
            .map(|step| {
                (0..self.num_logical)
                    .map(|j| {
                        let placements: Vec<usize> = (0..self.num_phys)
                            .filter(|&i| model.value(step[i][j]))
                            .collect();
                        assert_eq!(placements.len(), 1, "x-variables must be exactly-one");
                        placements[0]
                    })
                    .collect()
            })
            .collect()
    }

    /// Reads the permutation chosen at each change point:
    /// `(gate index, π)` pairs, ascending by gate index.
    ///
    /// # Panics
    ///
    /// Panics if a change point has no (or several) selected permutations.
    pub fn extract_permutations(&self, model: &Model) -> Vec<(usize, Permutation)> {
        self.y
            .iter()
            .map(|(k, selectors)| {
                let chosen: Vec<usize> = (0..selectors.len())
                    .filter(|&idx| model.value(selectors[idx]))
                    .collect();
                assert_eq!(chosen.len(), 1, "y-selectors must be exactly-one");
                (*k, self.perms[chosen[0]].clone())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qxmap_arch::{devices, CouplingMap};
    use qxmap_sat::{minimize, MinimizeOptions};

    fn qx4_model() -> (DeviceModel, CostedSwapTable) {
        let model = DeviceModel::new(devices::ibm_qx4());
        let table = CostedSwapTable::new(model.coupling_map());
        (model, table)
    }

    #[test]
    fn stats_report_instance_sizes() {
        let (model, table) = qx4_model();
        let skeleton = [(2, 3), (0, 1), (1, 2), (0, 2), (2, 0)];
        let points = (1..skeleton.len()).collect();
        let enc = Encoding::build(&skeleton, 4, &model, &table, &points);
        let st = enc.stats();
        // Example 5: n·m·|G| = 4·5·5 = 100 mapping variables.
        assert_eq!(st.mapping_variables, 100);
        assert_eq!(st.change_points, 4);
        assert_eq!(st.permutations, 120);
        assert!(st.variables >= st.mapping_variables);
        assert!(st.clauses > 0);
        assert!(st.objective_terms > 0);
        // One group per change point and one per gate: QX4 has no
        // bidirectional edge, so every gate has cost-bearing reversals.
        assert_eq!(enc.objective.len(), 4 + 5);
        assert_eq!(
            st.objective_terms,
            enc.objective.iter().map(Vec::len).sum::<usize>()
        );
    }

    #[test]
    fn bound_prunes_the_permutation_table() {
        let (model, table) = qx4_model();
        let skeleton = [(2, 3), (0, 1), (1, 2), (0, 2), (2, 0)];
        let points = (1..skeleton.len()).collect();
        let full = Encoding::build(&skeleton, 4, &model, &table, &points).stats();
        assert_eq!((full.permutations, full.pruned), (120, 0));
        // Below 8 only the identity and QX4's six single SWAPs survive.
        let build = |bound| {
            Encoding::build_interruptible(&skeleton, 4, &model, &table, &points, bound, &mut || {
                false
            })
            .expect("never interrupted")
        };
        let pruned = build(Some(8)).stats();
        assert_eq!((pruned.permutations, pruned.pruned), (7, 113));
        assert!(pruned.clauses < full.clauses);
        assert_eq!(pruned.mapping_variables, full.mapping_variables);
        // Below one SWAP the identity alone is left: every transition is
        // frozen, and the optimum (one reversal) is still reachable.
        let mut identity_only = build(Some(5));
        assert_eq!(identity_only.stats().permutations, 1);
        let min = minimize(
            &mut identity_only.solver,
            &identity_only.objective.clone(),
            MinimizeOptions::default().with_initial_upper_bound(Some(5)),
        )
        .expect("the optimum 4 is below 5");
        assert_eq!(min.cost, 4);
        assert!(identity_only
            .extract_permutations(&min.model)
            .iter()
            .all(|(_, pi)| pi.is_identity()));
    }

    #[test]
    fn single_legal_gate_costs_zero() {
        let (model, table) = qx4_model();
        // CNOT(q0, q1) can sit directly on edge (1,0) etc.
        let mut enc = Encoding::build(&[(0, 1)], 2, &model, &table, &BTreeSet::new());
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        assert_eq!(min.cost, 0);
        let layouts = enc.extract_layouts(&min.model);
        let (pc, pt) = (layouts[0][0], layouts[0][1]);
        assert!(
            model.coupling_map().has_edge(pc, pt),
            "direct edge chosen at zero cost"
        );
    }

    #[test]
    fn forced_reversal_costs_four() {
        // Two opposed CNOTs on the same pair: one must be reversed (or a
        // SWAP inserted, which is dearer).
        let (model, table) = qx4_model();
        let skeleton = [(0, 1), (1, 0)];
        let points = [1usize].into_iter().collect();
        let mut enc = Encoding::build(&skeleton, 2, &model, &table, &points);
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        assert_eq!(min.cost, 4);
    }

    #[test]
    fn calibrated_reversal_costs_reprice_the_repair() {
        // Same instance, but reversing against p2→p1 is made dear: the
        // minimum moves to another hosting edge's (default) price.
        let cm = devices::ibm_qx4();
        let model = DeviceModel::new(cm).with_reversal_cost(1, 2, 100);
        let table = CostedSwapTable::new(model.coupling_map());
        let skeleton = [(0, 1), (1, 0)];
        let points = [1usize].into_iter().collect();
        let mut enc = Encoding::build(&skeleton, 2, &model, &table, &points);
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        // Other pairs still repair for 4; only (1 → 2) costs 100.
        assert_eq!(min.cost, 4);

        // Shrink the device to one edge: the opposed pair is repaired by
        // whichever of (calibrated) SWAP and reversal is cheaper.
        let tiny = CouplingMap::from_edges(2, [(1, 0)]).unwrap();
        let base = DeviceModel::new(tiny).with_reversal_cost(0, 1, 100);
        // Default SWAP (7) now beats the dear reversal (100)...
        let table = CostedSwapTable::new(base.coupling_map());
        let mut enc = Encoding::build(&skeleton, 2, &base, &table, &points);
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        assert_eq!(min.cost, 7);
        // ... until the SWAP is calibrated dearer still.
        let model = base.with_swap_cost(0, 1, 300);
        let table = model.costed_table(&[0, 1]);
        let mut enc = Encoding::build(&skeleton, 2, &model, &table, &points);
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        assert_eq!(min.cost, 100);
    }

    #[test]
    fn cnot_surcharge_steers_and_prices_placement() {
        // Two coupled pairs; surcharging one CNOT edge moves the gate to
        // the other for free.
        let cm = devices::linear(3); // edges (0,1), (1,2)
        let model = DeviceModel::new(cm).with_cnot_cost(0, 1, 5);
        let table = CostedSwapTable::new(model.coupling_map());
        let mut enc = Encoding::build(&[(0, 1)], 2, &model, &table, &BTreeSet::new());
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        assert_eq!(min.cost, 0, "the uncalibrated edge hosts the gate");

        // With a single edge the surcharge is unavoidable: a forward
        // placement pays cnot−1 = 4, beating the reversed 4 + 4.
        let model = DeviceModel::new(devices::linear(2)).with_cnot_cost(0, 1, 5);
        let table = CostedSwapTable::new(model.coupling_map());
        let mut enc = Encoding::build(&[(0, 1)], 2, &model, &table, &BTreeSet::new());
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        assert_eq!(min.cost, 4);
    }

    #[test]
    fn paper_example_minimal_cost_is_four() {
        // Example 7: F = 4 for the Fig. 1 circuit on QX4.
        let (model, table) = qx4_model();
        let skeleton = [(2, 3), (0, 1), (1, 2), (0, 2), (2, 0)];
        let points = (1..skeleton.len()).collect();
        let mut enc = Encoding::build(&skeleton, 4, &model, &table, &points);
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        assert_eq!(min.cost, 4);
        assert!(min.proved_optimal);
        // All transitions must be identity (cost 4 = one reversal, no swaps).
        for (_, pi) in enc.extract_permutations(&min.model) {
            assert!(pi.is_identity());
        }
    }

    #[test]
    fn no_change_points_freezes_layout() {
        let (model, table) = qx4_model();
        // Two gates needing different neighbourhoods with a frozen layout:
        // CNOT(0,1), CNOT(0,2), CNOT(0,3) — q0 needs 3 distinct partners.
        // On QX4, only p3 (index 2) has degree ≥ 3, so a frozen layout
        // exists (q0→p3); cost = reversals only.
        let skeleton = [(0, 1), (0, 2), (0, 3)];
        let mut enc = Encoding::build(&skeleton, 4, &model, &table, &BTreeSet::new());
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        let layouts = enc.extract_layouts(&min.model);
        // Frozen: all steps equal.
        assert_eq!(layouts[0], layouts[1]);
        assert_eq!(layouts[1], layouts[2]);
        assert_eq!(layouts[0][0], 2, "q0 must sit on the hub p3");
    }

    #[test]
    fn impossible_instance_is_unsat() {
        // A 3-qubit circuit on a 3-qubit *disconnected* device where q0
        // must talk to both others but has no second neighbour.
        let model = DeviceModel::new(CouplingMap::from_edges(3, [(0, 1)]).unwrap());
        let table = CostedSwapTable::new(model.coupling_map());
        let skeleton = [(0, 1), (0, 2)];
        let points = (1..2).collect();
        let mut enc = Encoding::build(&skeleton, 3, &model, &table, &points);
        let res = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        );
        assert!(res.is_err());
    }

    #[test]
    fn bidirectional_edges_never_pay_reversal() {
        // On a bidirectional pair, opposed CNOTs are free.
        let model = DeviceModel::new(CouplingMap::from_edges(2, [(0, 1), (1, 0)]).unwrap());
        let table = CostedSwapTable::new(model.coupling_map());
        let skeleton = [(0, 1), (1, 0)];
        let points = (1..2).collect();
        let mut enc = Encoding::build(&skeleton, 2, &model, &table, &points);
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        assert_eq!(min.cost, 0);
    }

    #[test]
    fn swap_needed_on_line_costs_seven() {
        // Line 0→1→2, circuit CNOT(0,1), CNOT(0,2), permutation allowed
        // before g2: one SWAP (7) beats nothing else; reversals impossible
        // to avoid it.
        let model = DeviceModel::new(devices::linear(3));
        let table = CostedSwapTable::new(model.coupling_map());
        let skeleton = [(0, 1), (0, 2)];
        let points = (1..2).collect();
        let mut enc = Encoding::build(&skeleton, 3, &model, &table, &points);
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        // Optimal: place q0@p1? (0,1): q0@p1,q1@p2? then edge (1,2): c@1,t@2 ✓;
        // (0,2): q0@p1, q2 must be adjacent: p0 — edge (0,1) reversed: 4 H.
        // So minimum is 4 (one reversal), not 7.
        assert_eq!(min.cost, 4);
        let perms = enc.extract_permutations(&min.model);
        assert!(perms.iter().all(|(_, pi)| pi.is_identity()));
    }

    /// One random instance on at most five physical qubits: a directed
    /// coupling map (possibly disconnected), an optional SWAP-cost
    /// calibration of its first edge, a CNOT skeleton over `n ≤ m`
    /// logical qubits with every gate a change point, and a strict
    /// bound `U`.
    struct Instance {
        model: DeviceModel,
        num_logical: usize,
        skeleton: Vec<(usize, usize)>,
        bound: u64,
    }

    fn instance_strategy() -> impl Strategy<Value = Instance> {
        (2usize..=5).prop_flat_map(|m| {
            (
                prop::collection::vec((0..m, 1..m), 1..8),
                2..=m,
                prop::collection::vec((0..m, 1..m), 1..7),
                0u32..12,
                1u64..36,
            )
                .prop_map(move |(edges, n, gates, swap_cost, bound)| {
                    // `(a, a + d mod m)` with `d ≠ 0`: never a self-loop.
                    let edges: Vec<(usize, usize)> =
                        edges.iter().map(|&(a, d)| (a, (a + d) % m)).collect();
                    let cm = CouplingMap::from_edges(m, edges.iter().copied()).unwrap();
                    let mut model = DeviceModel::new(cm);
                    if swap_cost > 0 {
                        model = model.with_swap_cost(edges[0].0, edges[0].1, swap_cost);
                    }
                    let skeleton = gates
                        .iter()
                        .map(|&(c, d)| (c % n, (c % n + 1 + d % (n - 1)) % n))
                        .collect();
                    Instance {
                        model,
                        num_logical: n,
                        skeleton,
                        bound,
                    }
                })
        })
    }

    /// Minimizes one encoding strictly below `bound`.
    fn minimum_below(enc: &mut Encoding, bound: Option<u64>) -> Option<u64> {
        let objective = enc.objective.clone();
        let options = MinimizeOptions::default().with_initial_upper_bound(bound);
        match minimize(&mut enc.solver, &objective, options) {
            Ok(min) => {
                assert!(min.proved_optimal);
                Some(min.cost)
            }
            Err(qxmap_sat::MinimizeError::Unsatisfiable) => None,
            Err(e) => panic!("no budget was set: {e:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The table pruned at `U` and the full table agree below `U`:
        /// both find the global minimum when it is cheaper than `U`, and
        /// both are unsatisfiable otherwise. Each instance is checked at
        /// its drawn bound and at its own optimum, where nothing is left.
        #[test]
        fn pruned_and_full_encodings_agree_below_the_bound(inst in instance_strategy()) {
            let Instance { model, num_logical, skeleton, bound } = inst;
            let all: Vec<usize> = (0..model.num_qubits()).collect();
            let table = model.costed_table(&all);
            let points = (1..skeleton.len()).collect();
            let full = || Encoding::build(&skeleton, num_logical, &model, &table, &points);

            let global = minimum_below(&mut full(), None);
            let optimum = global.filter(|&cost| cost > 0);
            for bound in std::iter::once(bound).chain(optimum) {
                let expected = global.filter(|&cost| cost < bound);
                prop_assert_eq!(minimum_below(&mut full(), Some(bound)), expected);

                let mut pruned = Encoding::build_interruptible(
                    &skeleton,
                    num_logical,
                    &model,
                    &table,
                    &points,
                    Some(bound),
                    &mut || false,
                )
                .expect("never interrupted");
                let stats = pruned.stats();
                prop_assert_eq!(stats.permutations, table.cheaper_than(Some(bound)).len());
                prop_assert_eq!(stats.permutations + stats.pruned, table.len());
                prop_assert_eq!(
                    minimum_below(&mut pruned, Some(bound)),
                    expected,
                    "{:?} on {:?}, U = {}",
                    skeleton,
                    model.coupling_map(),
                    bound
                );
            }
        }
    }

    #[test]
    fn extraction_is_consistent_with_transitions() {
        let (model, table) = qx4_model();
        let skeleton = [(0, 1), (2, 3), (0, 3)];
        let points = (1..3).collect();
        let mut enc = Encoding::build(&skeleton, 4, &model, &table, &points);
        let min = minimize(
            &mut enc.solver,
            &enc.objective.clone(),
            MinimizeOptions::default(),
        )
        .expect("satisfiable");
        let layouts = enc.extract_layouts(&min.model);
        let perms = enc.extract_permutations(&min.model);
        for (k, pi) in perms {
            for (&from, &to) in layouts[k - 1].iter().zip(&layouts[k]) {
                assert_eq!(pi.apply(from), to, "transition at {k} must follow π");
            }
        }
    }
}

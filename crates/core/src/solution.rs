//! Assembling a mapped circuit from a satisfying model.
//!
//! The reasoning engine fixes the layouts `x^k` and permutations `y^k`; this
//! module replays the original circuit (single-qubit gates included, which
//! the encoding ignored), inserting the witness SWAP sequences at change
//! points and the 4-H repairs on reversed CNOTs — producing the final
//! hardware circuit exactly as in Fig. 5 of the paper.

use std::collections::BTreeMap;
use std::time::Duration;

use qxmap_arch::{route, CostedSwapTable, CouplingMap, Layout, Permutation};
use qxmap_circuit::{Circuit, Gate};

/// Where one skeleton CNOT ended up on hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatePlacement {
    /// Index into the CNOT skeleton.
    pub gate: usize,
    /// Logical control qubit.
    pub control: usize,
    /// Logical target qubit.
    pub target: usize,
    /// Physical qubit executing the control.
    pub phys_control: usize,
    /// Physical qubit executing the target.
    pub phys_target: usize,
    /// Whether the CNOT ran against its coupling edge (4 H repair).
    pub reversed: bool,
}

/// The outcome of an exact mapping run.
#[derive(Debug, Clone)]
pub struct MappingResult {
    /// The minimal objective value `F` (Eq. 5) found by the engine:
    /// the modelled cost of inserted SWAP and H operations.
    pub cost: u64,
    /// Gates actually added (`mapped.original_cost() − original cost`);
    /// equals [`MappingResult::cost`] whenever the cost model matches the
    /// device (it always does for the IBM QX maps).
    pub added_gates: u64,
    /// Number of SWAP operations inserted.
    pub swaps: u32,
    /// Number of direction-reversed CNOTs (each costing 4 H gates).
    pub reversals: u32,
    /// The reconstructed hardware circuit.
    pub mapped: Circuit,
    /// Logical→physical assignment before the first gate.
    pub initial_layout: Layout,
    /// Logical→physical assignment after the last gate.
    pub final_layout: Layout,
    /// The physical qubits the mapping was restricted to (Section 4.1) —
    /// the full device when subsets were disabled.
    pub subset: Vec<usize>,
    /// Number of allowed permutation points `|G'|`.
    pub num_change_points: usize,
    /// Subinstances of the Section 4.1 split: the connected subsets, or
    /// 1 for the whole device (0 when no solve was needed).
    pub num_subsets: usize,
    /// Subinstances actually solved: one per class of subsets whose
    /// induced cost models are equal up to relabeling.
    pub num_classes: usize,
    /// Per-skeleton-gate placements.
    pub placements: Vec<GatePlacement>,
    /// Whether the engine proved this cost minimal for the configured
    /// formulation.
    pub proved_optimal: bool,
    /// Solver invocations spent in minimization.
    pub iterations: u32,
    /// Wall-clock time of the whole mapping call.
    pub runtime: Duration,
}

impl MappingResult {
    /// The mapped circuit's total operation count (the paper's column `c`).
    pub fn mapped_cost(&self) -> usize {
        self.mapped.original_cost()
    }
}

/// Replays `circuit` under the solved layouts, emitting hardware gates.
///
/// * `layouts[k][j]` — local physical position of logical `j` before
///   skeleton gate `k`;
/// * `perms` — permutation applied before gate `k` (change points only);
/// * `subset[i]` — global physical qubit of local index `i`;
/// * `table` — the cost-weighted table whose witness sequences realize
///   each permutation at the model's cheapest SWAP-chain price.
pub(crate) fn assemble(
    circuit: &Circuit,
    cm: &CouplingMap,
    subset: &[usize],
    layouts: &[Vec<usize>],
    perms: &BTreeMap<usize, Permutation>,
    table: &CostedSwapTable,
) -> (Circuit, Layout, Layout, u32, u32, Vec<GatePlacement>) {
    let n = circuit.num_qubits();
    let m = cm.num_qubits();
    let mut out = Circuit::with_clbits(m, circuit.num_clbits());

    let mut layout = Layout::new(n, m);
    for (j, &i_local) in layouts[0].iter().enumerate() {
        layout
            .assign(j, subset[i_local])
            .expect("solver layouts are injective");
    }
    let initial_layout = layout.clone();

    let mut swaps = 0u32;
    let mut reversals = 0u32;
    let mut placements = Vec::new();
    let mut k = 0usize; // skeleton index

    for gate in circuit.gates() {
        match gate {
            Gate::Cnot { control, target } => {
                if let Some(pi) = perms.get(&k) {
                    let seq = table.sequence(pi).expect("chosen perms are realizable");
                    for &(la, lb) in seq {
                        let (ga, gb) = (subset[la], subset[lb]);
                        route::emit_swap(&mut out, cm, ga, gb).expect("witness swaps lie on edges");
                        layout.swap_phys(ga, gb);
                        swaps += 1;
                    }
                }
                debug_assert_eq!(
                    (0..n)
                        .map(|j| layout.phys_of(j).expect("complete layout"))
                        .collect::<Vec<_>>(),
                    layouts[k].iter().map(|&i| subset[i]).collect::<Vec<_>>(),
                    "replayed layout diverged from the model at gate {k}"
                );
                let pc = layout.phys_of(*control).expect("complete layout");
                let pt = layout.phys_of(*target).expect("complete layout");
                let emitted =
                    route::emit_cnot(&mut out, cm, pc, pt).expect("solved placements are adjacent");
                let reversed = emitted > 1;
                if reversed {
                    reversals += 1;
                }
                placements.push(GatePlacement {
                    gate: k,
                    control: *control,
                    target: *target,
                    phys_control: pc,
                    phys_target: pt,
                    reversed,
                });
                k += 1;
            }
            Gate::One { kind, qubit } => {
                let p = layout.phys_of(*qubit).expect("complete layout");
                out.one(*kind, p);
            }
            Gate::Swap { .. } => {
                unreachable!("SWAPs are decomposed before mapping")
            }
            Gate::Barrier(qs) => {
                let mapped: Vec<usize> = qs
                    .iter()
                    .map(|&q| layout.phys_of(q).expect("complete layout"))
                    .collect();
                out.push(Gate::Barrier(mapped));
            }
            Gate::Measure { qubit, clbit } => {
                let p = layout.phys_of(*qubit).expect("complete layout");
                out.measure(p, *clbit);
            }
        }
    }

    (out, initial_layout, layout, swaps, reversals, placements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qxmap_arch::devices;

    #[test]
    fn assemble_identity_no_insertions() {
        // CNOT(0,1) placed on edge (1,0): q0→p1, q1→p0; no perms.
        let cm = devices::ibm_qx4();
        let table = CostedSwapTable::new(&cm);
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let layouts = vec![vec![1usize, 0]];
        let subset: Vec<usize> = (0..5).collect();
        let (out, init, fin, swaps, revs, placements) =
            assemble(&c, &cm, &subset, &layouts, &BTreeMap::new(), &table);
        assert_eq!(swaps, 0);
        assert_eq!(revs, 0);
        assert_eq!(out.original_cost(), 2);
        assert_eq!(init, fin);
        assert_eq!(init.phys_of(0), Some(1));
        assert_eq!(placements[0].phys_control, 1);
        // The H gate follows q0 to p1.
        assert_eq!(out.gates()[0], Gate::one(qxmap_circuit::OneQubitKind::H, 1));
    }

    #[test]
    fn assemble_with_permutation_inserts_swaps() {
        let cm = devices::ibm_qx4();
        let table = CostedSwapTable::new(&cm);
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.cx(0, 1);
        // Before gate 1, swap p0 and p1 (τ01): layout q0: p1→p0, q1: p0→p1.
        let tau = Permutation::transposition(5, 0, 1);
        let layouts = vec![vec![1usize, 0], vec![0usize, 1]];
        let mut perms = BTreeMap::new();
        perms.insert(1usize, tau);
        let subset: Vec<usize> = (0..5).collect();
        let (out, init, fin, swaps, revs, _) = assemble(&c, &cm, &subset, &layouts, &perms, &table);
        assert_eq!(swaps, 1);
        assert_eq!(init.phys_of(0), Some(1));
        assert_eq!(fin.phys_of(0), Some(0));
        // 1 CNOT + 7 (swap) + CNOT reversed (1+4 H) = costs: 1 + 7 + 5.
        assert_eq!(out.original_cost(), 13);
        assert_eq!(revs, 1);
    }

    #[test]
    fn assemble_maps_measurements_and_barriers() {
        let cm = devices::ibm_qx4();
        let table = CostedSwapTable::new(&cm);
        let mut c = Circuit::with_clbits(2, 2);
        c.cx(0, 1);
        c.barrier();
        c.measure(0, 0);
        let layouts = vec![vec![2usize, 0]];
        let subset: Vec<usize> = (0..5).collect();
        let (out, ..) = assemble(&c, &cm, &subset, &layouts, &BTreeMap::new(), &table);
        assert!(matches!(
            out.gates().last(),
            Some(Gate::Measure { qubit: 2, clbit: 0 })
        ));
        assert!(out
            .gates()
            .iter()
            .any(|g| matches!(g, Gate::Barrier(qs) if qs == &vec![2, 0])));
    }
}

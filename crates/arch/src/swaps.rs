//! Exhaustive computation of `swaps(π)` (Eq. 5 of the paper).
//!
//! `swaps(π)` is the minimal number of SWAP operations — each acting on a
//! coupling-graph edge — whose concatenation permutes the physical-qubit
//! states by `π`. The paper computes it "only once … e.g., by using an
//! exhaustive search"; [`CostedSwapTable`] runs Dijkstra over the
//! permutation group generated by the edge transpositions, each weighted
//! by its SWAP cost, which yields both the minimal cost and a *witness*
//! SWAP sequence used later to reconstruct the mapped circuit. With unit
//! weights ([`CostedSwapTable::for_weighted_edges`]) the cost is the
//! paper's SWAP count.

use std::collections::HashMap;

use crate::coupling::CouplingMap;
use crate::perm::Permutation;

/// Minimal SWAP costs and witness sequences for all realizable
/// permutations of a coupling (sub)graph. The default weights are
/// *elementary-gate costs* (3 per SWAP on bidirectional edges, 7 on
/// unidirectional ones — cf. [`crate::route::swap_cost`]); unit weights
/// give the paper's `swaps(π)` counts.
///
/// Applying the witness swaps `(a₁,b₁) … (a_s,b_s)` in order realizes `π`
/// in the following sense: if the logical qubit occupying physical qubit
/// `i` before the block occupies `π(i)` after it, then
/// `π = τ_{a_s b_s} ∘ … ∘ τ_{a_1 b_1}`.
///
/// On devices mixing edge orientations, the cheapest witness can differ
/// from the fewest-SWAPs witness; the paper's uniform cost 7 is exact for
/// IBM QX4 but pessimistic for, e.g., IBM Q Tokyo.
///
/// ```
/// use qxmap_arch::{devices, CostedSwapTable, Permutation};
/// let table = CostedSwapTable::new(&devices::ibm_qx4());
/// // Every SWAP on QX4's unidirectional edges costs 7 elementary gates.
/// assert_eq!(table.cost(&Permutation::transposition(5, 0, 1)), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct CostedSwapTable {
    entries: HashMap<Permutation, (u64, Vec<(usize, usize)>)>,
    /// Every realizable permutation with its cost, in `(cost, π)` order.
    by_cost: Vec<(u64, Permutation)>,
}

impl CostedSwapTable {
    /// Builds the table for the full device graph.
    ///
    /// # Panics
    ///
    /// Panics if the device has more than 8 qubits.
    pub fn new(cm: &CouplingMap) -> CostedSwapTable {
        let all: Vec<usize> = (0..cm.num_qubits()).collect();
        CostedSwapTable::for_subset(cm, &all)
    }

    /// Builds the table for the induced subgraph on `subset`, with
    /// permutations expressed in *local* indices `0..subset.len()`
    /// (`subset[i]` is the physical qubit of local index `i`), weighting
    /// each edge with [`crate::route::swap_cost`].
    ///
    /// # Panics
    ///
    /// Panics if `subset.len() > 8`.
    pub fn for_subset(cm: &CouplingMap, subset: &[usize]) -> CostedSwapTable {
        let sub = cm.subgraph(subset);
        let edges: Vec<(usize, usize, u64)> = sub
            .undirected_edges()
            .into_iter()
            .map(|(a, b)| {
                let w = crate::route::swap_cost(&sub, a, b).expect("edge exists");
                (a, b, u64::from(w))
            })
            .collect();
        CostedSwapTable::for_weighted_edges(subset.len(), &edges)
    }

    /// Builds the table over `n` local qubits from an explicit weighted
    /// undirected edge list `(a, b, swap_cost)` — the entry point
    /// calibration-aware [`crate::DeviceModel`]s use, where per-edge SWAP
    /// costs need not follow edge orientation. Unit weights count SWAPs:
    ///
    /// ```
    /// use qxmap_arch::{devices, CostedSwapTable, Permutation};
    ///
    /// let qx4 = devices::ibm_qx4();
    /// let unit: Vec<_> = qx4.undirected_edges().into_iter().map(|(a, b)| (a, b, 1)).collect();
    /// let table = CostedSwapTable::for_weighted_edges(5, &unit);
    /// assert_eq!(table.cost(&Permutation::identity(5)), Some(0));
    /// // Adjacent transposition costs exactly one SWAP.
    /// assert_eq!(table.cost(&Permutation::transposition(5, 0, 1)), Some(1));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `n > 8` or an edge endpoint is out of range.
    pub fn for_weighted_edges(n: usize, edges: &[(usize, usize, u64)]) -> CostedSwapTable {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        assert!(
            n <= 8,
            "CostedSwapTable is exhaustive; {n} qubits is too many"
        );
        assert!(
            edges.iter().all(|&(a, b, _)| a < n && b < n),
            "edge endpoint out of range"
        );

        let mut entries: HashMap<Permutation, (u64, Vec<(usize, usize)>)> = HashMap::new();
        let mut by_cost: Vec<(u64, Permutation)> = Vec::new();
        let id = Permutation::identity(n);
        entries.insert(id.clone(), (0, Vec::new()));
        let mut heap: BinaryHeap<Reverse<(u64, Permutation)>> = BinaryHeap::new();
        heap.push(Reverse((0, id)));
        while let Some(Reverse((cost, pi))) = heap.pop() {
            if entries.get(&pi).is_some_and(|(c, _)| *c < cost) {
                continue; // stale
            }
            // Settled: the min-heap pops each permutation's final cost
            // exactly once (pushes need a strictly better cost), in
            // ascending `(cost, π)` order.
            by_cost.push((cost, pi.clone()));
            let seq = entries[&pi].1.clone();
            for &(a, b, w) in edges {
                let tau = Permutation::transposition(n, a, b);
                let next = tau.compose(&pi);
                let next_cost = cost + w;
                let better = entries.get(&next).is_none_or(|(c, _)| *c > next_cost);
                if better {
                    let mut s = seq.clone();
                    s.push((a, b));
                    entries.insert(next.clone(), (next_cost, s));
                    heap.push(Reverse((next_cost, next)));
                }
            }
        }
        CostedSwapTable { entries, by_cost }
    }

    /// Minimal elementary-gate cost of realizing `π` (`None` if not
    /// realizable).
    pub fn cost(&self, pi: &Permutation) -> Option<u64> {
        self.entries.get(pi).map(|(c, _)| *c)
    }

    /// A cheapest witness SWAP sequence (application order, local indices).
    pub fn sequence(&self, pi: &Permutation) -> Option<&[(usize, usize)]> {
        self.entries.get(pi).map(|(_, s)| s.as_slice())
    }

    /// Number of realizable permutations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never: identity is always realizable).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The permutations a solution cheaper than `bound` can use, with
    /// their costs: every realizable `π` whose cost alone is below
    /// `bound` (all of them when `None`). The table keeps its
    /// permutations in `(cost, π)` order, computed once when it is built,
    /// so this is a prefix slice; the identity comes first.
    ///
    /// ```
    /// use qxmap_arch::{devices, CostedSwapTable};
    /// let table = CostedSwapTable::new(&devices::ibm_qx4());
    /// // Below one SWAP (7) only the identity survives.
    /// assert_eq!(table.cheaper_than(Some(7)).len(), 1);
    /// assert_eq!(table.cheaper_than(None).len(), 120);
    /// ```
    pub fn cheaper_than(&self, bound: Option<u64>) -> &[(u64, Permutation)] {
        match bound {
            Some(b) => &self.by_cost[..self.by_cost.partition_point(|&(c, _)| c < b)],
            None => &self.by_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    /// `swaps(π)`: the table over the (sub)graph with every SWAP
    /// weighing 1, so a cost is a SWAP count.
    fn counts(cm: &CouplingMap, subset: &[usize]) -> CostedSwapTable {
        let edges: Vec<(usize, usize, u64)> = cm
            .subgraph(subset)
            .undirected_edges()
            .into_iter()
            .map(|(a, b)| (a, b, 1))
            .collect();
        CostedSwapTable::for_weighted_edges(subset.len(), &edges)
    }

    fn unit(cm: &CouplingMap) -> CostedSwapTable {
        let all: Vec<usize> = (0..cm.num_qubits()).collect();
        counts(cm, &all)
    }

    #[test]
    fn qx4_realizes_all_120_permutations() {
        let table = unit(&devices::ibm_qx4());
        assert_eq!(table.len(), 120);
        let max_swaps = table.cheaper_than(None).last().unwrap().0;
        assert!(max_swaps >= 4);
    }

    #[test]
    fn witness_sequences_reproduce_permutation() {
        let table = unit(&devices::ibm_qx4());
        for (d, pi) in table.cheaper_than(None) {
            let seq = table.sequence(pi).unwrap();
            assert_eq!(seq.len() as u64, *d);
            let mut acc = Permutation::identity(5);
            for &(a, b) in seq {
                acc = Permutation::transposition(5, a, b).compose(&acc);
            }
            assert_eq!(&acc, pi, "witness does not realize {pi}");
        }
    }

    #[test]
    fn swaps_lower_bounded_by_free_transpositions() {
        let table = unit(&devices::ibm_qx4());
        for (d, pi) in table.cheaper_than(None) {
            assert!(*d as usize >= pi.min_transpositions());
        }
    }

    #[test]
    fn line_graph_distance_is_bubble_sort() {
        // On a 3-line, the reversal (0 2) needs 3 adjacent swaps.
        let table = unit(&devices::linear(3));
        let rev = Permutation::from_image(vec![2, 1, 0]);
        assert_eq!(table.cost(&rev), Some(3));
        assert_eq!(table.len(), 6);
    }

    #[test]
    fn disconnected_graph_misses_permutations() {
        let cm = CouplingMap::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let table = unit(&cm);
        // Only 2 × 2 = 4 permutations are realizable.
        assert_eq!(table.len(), 4);
        let cross = Permutation::transposition(4, 0, 2);
        assert_eq!(table.cost(&cross), None);
        assert_eq!(table.sequence(&cross), None);
    }

    #[test]
    fn subset_table_uses_local_indices() {
        let cm = devices::ibm_qx4();
        // Subset {p3,p4,p5} = indices {2,3,4}: a triangle → all 6 perms.
        let table = counts(&cm, &[2, 3, 4]);
        assert_eq!(table.len(), 6);
        let t = Permutation::transposition(3, 0, 1); // local: p3↔p4
        assert_eq!(table.cost(&t), Some(1));
        // The weighted subset table prices the same local edge at 7.
        let costed = CostedSwapTable::for_subset(&cm, &[2, 3, 4]);
        assert_eq!(costed.len(), 6);
        assert_eq!(costed.cost(&t), Some(7));
    }

    #[test]
    fn identity_costs_zero_everywhere() {
        for cm in [devices::ibm_qx2(), devices::ibm_qx4(), devices::linear(4)] {
            let n = cm.num_qubits();
            for table in [unit(&cm), CostedSwapTable::new(&cm)] {
                assert_eq!(table.cost(&Permutation::identity(n)), Some(0));
                assert_eq!(table.sequence(&Permutation::identity(n)).unwrap().len(), 0);
            }
        }
    }

    #[test]
    fn uniform_unidirectional_matches_7x_count() {
        let cm = devices::ibm_qx4();
        let counts = unit(&cm);
        let costed = CostedSwapTable::new(&cm);
        assert_eq!(counts.len(), costed.len());
        for (d, pi) in counts.cheaper_than(None) {
            assert_eq!(costed.cost(pi), Some(7 * d), "{pi}");
        }
    }

    #[test]
    fn bidirectional_matches_3x_count() {
        let cm = devices::grid(2, 2);
        let counts = unit(&cm);
        let costed = CostedSwapTable::new(&cm);
        for (d, pi) in counts.cheaper_than(None) {
            assert_eq!(costed.cost(pi), Some(3 * d), "{pi}");
        }
    }

    #[test]
    fn mixed_graph_bounds() {
        // One unidirectional edge plus a bidirectional triangle around it.
        let cm = CouplingMap::from_edges(3, [(0, 1), (0, 2), (2, 0), (1, 2), (2, 1)]).unwrap();
        let counts = unit(&cm);
        let costed = CostedSwapTable::new(&cm);
        for (d, pi) in counts.cheaper_than(None) {
            let c = costed.cost(pi).unwrap();
            assert!(c <= 7 * d, "{pi}: {c} > 7·{d}");
            assert!(c >= 3 * d, "{pi}: {c} < 3·{d}");
        }
    }
    #[test]
    fn cheaper_than_lists_each_permutation_once_in_cost_order() {
        let cm = CouplingMap::from_edges(4, [(0, 1), (1, 2), (2, 1), (2, 3)]).unwrap();
        let costed = CostedSwapTable::new(&cm);
        let listed = costed.cheaper_than(None);
        assert_eq!(listed.len(), costed.len());
        assert!(listed[0].1.is_identity());
        assert!(
            listed.windows(2).all(|w| w[0] < w[1]),
            "strict (cost, π) order"
        );
        for (cost, pi) in listed {
            assert_eq!(costed.cost(pi), Some(*cost), "{pi}");
        }
        // Each bound keeps exactly the permutations cheaper than it.
        for bound in [1, 3, 7, 10, 14, u64::MAX] {
            let kept = costed.cheaper_than(Some(bound));
            assert!(kept.iter().all(|&(c, _)| c < bound));
            assert_eq!(
                kept.len(),
                listed.iter().filter(|&&(c, _)| c < bound).count(),
                "bound {bound}"
            );
        }
        assert_eq!(costed.cheaper_than(Some(0)).len(), 0);
    }

    #[test]
    fn witnesses_realize_permutations_cheaply() {
        let cm = CouplingMap::from_edges(3, [(0, 1), (1, 2), (2, 1)]).unwrap();
        let costed = CostedSwapTable::new(&cm);
        for pi in Permutation::all(3) {
            let Some(cost) = costed.cost(&pi) else {
                continue;
            };
            let seq = costed.sequence(&pi).unwrap();
            let mut acc = Permutation::identity(3);
            let mut total = 0;
            for &(a, b) in seq {
                acc = Permutation::transposition(3, a, b).compose(&acc);
                total += crate::route::swap_cost(&cm, a, b).unwrap() as u64;
            }
            assert_eq!(acc, pi);
            assert_eq!(total, cost);
        }
    }
}

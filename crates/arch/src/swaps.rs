//! Exhaustive computation of `swaps(π)` (Eq. 5 of the paper).
//!
//! `swaps(π)` is the minimal number of SWAP operations — each acting on a
//! coupling-graph edge — whose concatenation permutes the physical-qubit
//! states by `π`. The paper computes it "only once … e.g., by using an
//! exhaustive search"; we run a breadth-first search over the permutation
//! group generated by the edge transpositions, which yields both the
//! minimal count and a *witness* SWAP sequence used later to reconstruct
//! the mapped circuit.

use std::collections::{HashMap, VecDeque};

use crate::coupling::CouplingMap;
use crate::perm::Permutation;

/// Minimal SWAP counts and witness sequences for all realizable
/// permutations of a coupling graph.
///
/// Applying the witness swaps `(a₁,b₁) … (a_s,b_s)` in order realizes `π`
/// in the following sense: if the logical qubit occupying physical qubit
/// `i` before the block occupies `π(i)` after it, then
/// `π = τ_{a_s b_s} ∘ … ∘ τ_{a_1 b_1}`.
///
/// ```
/// use qxmap_arch::{devices, Permutation, SwapTable};
///
/// let table = SwapTable::new(&devices::ibm_qx4());
/// let id = Permutation::identity(5);
/// assert_eq!(table.swaps(&id), Some(0));
/// // Adjacent transposition costs exactly one SWAP.
/// let t = Permutation::transposition(5, 0, 1);
/// assert_eq!(table.swaps(&t), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapTable {
    entries: HashMap<Permutation, (u32, Vec<(usize, usize)>)>,
    max_swaps: u32,
}

impl SwapTable {
    /// Builds the table for the full device graph.
    ///
    /// # Panics
    ///
    /// Panics if the device has more than 8 qubits (`8! = 40320` states is
    /// the intended regime; larger devices must use
    /// [`SwapTable::for_subset`]).
    pub fn new(cm: &CouplingMap) -> SwapTable {
        let all: Vec<usize> = (0..cm.num_qubits()).collect();
        SwapTable::for_subset(cm, &all)
    }

    /// Builds the table for the induced subgraph on `subset`, with
    /// permutations expressed in *local* indices `0..subset.len()`
    /// (`subset[i]` is the physical qubit of local index `i`).
    ///
    /// # Panics
    ///
    /// Panics if `subset.len() > 8`.
    pub fn for_subset(cm: &CouplingMap, subset: &[usize]) -> SwapTable {
        let n = subset.len();
        assert!(n <= 8, "SwapTable is exhaustive; {n} qubits is too many");
        let sub = cm.subgraph(subset);
        let edges = sub.undirected_edges();

        let mut entries: HashMap<Permutation, (u32, Vec<(usize, usize)>)> = HashMap::new();
        let id = Permutation::identity(n);
        entries.insert(id.clone(), (0, Vec::new()));
        let mut queue = VecDeque::from([id]);
        let mut max_swaps = 0;
        while let Some(pi) = queue.pop_front() {
            let (dist, seq) = entries[&pi].clone();
            for &(a, b) in &edges {
                // Appending SWAP(a, b) *after* the block realizing π yields
                // τ_ab ∘ π.
                let tau = Permutation::transposition(n, a, b);
                let next = tau.compose(&pi);
                if !entries.contains_key(&next) {
                    let mut s = seq.clone();
                    s.push((a, b));
                    entries.insert(next.clone(), (dist + 1, s));
                    max_swaps = max_swaps.max(dist + 1);
                    queue.push_back(next);
                }
            }
        }
        SwapTable { entries, max_swaps }
    }

    /// Minimal number of SWAPs realizing `π`, or `None` if `π` is not
    /// realizable (disconnected subgraph).
    pub fn swaps(&self, pi: &Permutation) -> Option<u32> {
        self.entries.get(pi).map(|(d, _)| *d)
    }

    /// A witness sequence of edge SWAPs (in application order, local
    /// indices) realizing `π`.
    pub fn sequence(&self, pi: &Permutation) -> Option<&[(usize, usize)]> {
        self.entries.get(pi).map(|(_, s)| s.as_slice())
    }

    /// Number of realizable permutations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no permutation is realizable (never true: identity always is).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The diameter of the permutation group under edge SWAPs.
    pub fn max_swaps(&self) -> u32 {
        self.max_swaps
    }

    /// Iterator over `(π, swaps(π))` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Permutation, u32)> + '_ {
        self.entries.iter().map(|(p, (d, _))| (p, *d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    #[test]
    fn qx4_realizes_all_120_permutations() {
        let table = SwapTable::new(&devices::ibm_qx4());
        assert_eq!(table.len(), 120);
        assert!(table.max_swaps() >= 4);
    }

    #[test]
    fn witness_sequences_reproduce_permutation() {
        let cm = devices::ibm_qx4();
        let table = SwapTable::new(&cm);
        for (pi, d) in table.iter() {
            let seq = table.sequence(pi).unwrap();
            assert_eq!(seq.len() as u32, d);
            let mut acc = Permutation::identity(5);
            for &(a, b) in seq {
                acc = Permutation::transposition(5, a, b).compose(&acc);
            }
            assert_eq!(&acc, pi, "witness does not realize {pi}");
        }
    }

    #[test]
    fn swaps_lower_bounded_by_free_transpositions() {
        let table = SwapTable::new(&devices::ibm_qx4());
        for (pi, d) in table.iter() {
            assert!(d as usize >= pi.min_transpositions());
        }
    }

    #[test]
    fn line_graph_distance_is_bubble_sort() {
        // On a 3-line, the reversal (0 2) needs 3 adjacent swaps.
        let table = SwapTable::new(&devices::linear(3));
        let rev = Permutation::from_image(vec![2, 1, 0]);
        assert_eq!(table.swaps(&rev), Some(3));
        assert_eq!(table.len(), 6);
    }

    #[test]
    fn disconnected_graph_misses_permutations() {
        let cm = CouplingMap::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let table = SwapTable::new(&cm);
        // Only 2 × 2 = 4 permutations are realizable.
        assert_eq!(table.len(), 4);
        let cross = Permutation::transposition(4, 0, 2);
        assert_eq!(table.swaps(&cross), None);
        assert_eq!(table.sequence(&cross), None);
    }

    #[test]
    fn subset_table_uses_local_indices() {
        let cm = devices::ibm_qx4();
        // Subset {p3,p4,p5} = indices {2,3,4}: a triangle → all 6 perms.
        let table = SwapTable::for_subset(&cm, &[2, 3, 4]);
        assert_eq!(table.len(), 6);
        let t = Permutation::transposition(3, 0, 1); // local: p3↔p4
        assert_eq!(table.swaps(&t), Some(1));
    }

    #[test]
    fn identity_costs_zero_everywhere() {
        for cm in [devices::ibm_qx2(), devices::ibm_qx4(), devices::linear(4)] {
            let n = cm.num_qubits();
            let table = SwapTable::new(&cm);
            assert_eq!(table.swaps(&Permutation::identity(n)), Some(0));
            assert_eq!(table.sequence(&Permutation::identity(n)).unwrap().len(), 0);
        }
    }

    use crate::coupling::CouplingMap;
}

/// Cost-weighted variant of [`SwapTable`]: minimal *elementary-gate cost*
/// (3 per SWAP on bidirectional edges, 7 on unidirectional ones — cf.
/// [`crate::route::swap_cost`]) of realizing each permutation, computed
/// with Dijkstra over the permutation group.
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

    /// Builds the table for the induced subgraph on `subset` (local
    /// indices, like [`SwapTable::for_subset`]), weighting each edge with
    /// [`crate::route::swap_cost`].
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
    /// costs need not follow edge orientation.
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
mod costed_tests {
    use super::*;
    use crate::devices;

    #[test]
    fn uniform_unidirectional_matches_7x_count() {
        let cm = devices::ibm_qx4();
        let counts = SwapTable::new(&cm);
        let costed = CostedSwapTable::new(&cm);
        assert_eq!(counts.len(), costed.len());
        for (pi, d) in counts.iter() {
            assert_eq!(costed.cost(pi), Some(7 * u64::from(d)), "{pi}");
        }
    }

    #[test]
    fn bidirectional_matches_3x_count() {
        let cm = devices::grid(2, 2);
        let counts = SwapTable::new(&cm);
        let costed = CostedSwapTable::new(&cm);
        for (pi, d) in counts.iter() {
            assert_eq!(costed.cost(pi), Some(3 * u64::from(d)), "{pi}");
        }
    }

    #[test]
    fn mixed_graph_bounds() {
        // One unidirectional edge plus a bidirectional triangle around it.
        let cm = CouplingMap::from_edges(3, [(0, 1), (0, 2), (2, 0), (1, 2), (2, 1)]).unwrap();
        let counts = SwapTable::new(&cm);
        let costed = CostedSwapTable::new(&cm);
        for (pi, d) in counts.iter() {
            let c = costed.cost(pi).unwrap();
            assert!(c <= 7 * u64::from(d), "{pi}: {c} > 7·{d}");
            assert!(c >= 3 * u64::from(d), "{pi}: {c} < 3·{d}");
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

//! Physical-qubit subset enumeration (Section 4.1).
//!
//! When a circuit uses `n < m` logical qubits, the exact mapper may restrict
//! itself to `n` of the `m` physical qubits and try every such subset. Only
//! *connected* subsets can host a mapping; the paper prunes subsets with
//! isolated qubits — we prune every disconnected subset, which subsumes the
//! isolation check and never discards a feasible instance (a CNOT between
//! qubits in different components could never be routed).
//!
//! Many of those subsets are the same shape: their induced cost models are
//! equal up to a relabeling of the qubits, so their subinstances have the
//! same optimum. [`subset_representatives`] keeps one subset per shape.

use std::collections::HashSet;

use crate::coupling::CouplingMap;
use crate::model::DeviceModel;

/// Enumerates all size-`size` subsets of physical qubits whose induced
/// subgraph is connected, in lexicographic order.
///
/// Returns the empty vector if `size > m`. For `size == 0` a single empty
/// subset is returned.
///
/// ```
/// use qxmap_arch::{connected_subsets, devices};
///
/// // Example 9 of the paper: of the C(5,4) = 5 subsets of QX4, only the 4
/// // containing the hub p3 (index 2) are connected.
/// let subs = connected_subsets(&devices::ibm_qx4(), 4);
/// assert_eq!(subs.len(), 4);
/// assert!(subs.iter().all(|s| s.contains(&2)));
/// ```
pub fn connected_subsets(cm: &CouplingMap, size: usize) -> Vec<Vec<usize>> {
    let m = cm.num_qubits();
    if size > m {
        return Vec::new();
    }
    if size == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut current: Vec<usize> = Vec::with_capacity(size);
    combinations(m, size, 0, &mut current, &mut |subset| {
        if cm.is_connected_subset(subset) {
            out.push(subset.to_vec());
        }
    });
    out
}

/// The lowest-index member of each class of `subsets` whose induced
/// models ([`DeviceModel::subgraph_model`]) are equal up to a
/// cost-preserving relabeling, as ascending indices into `subsets`.
///
/// Two such subsets have the same exact-mapping optimum: relabeling the
/// qubits carries every layout and permutation of one onto the other at
/// equal CNOT, SWAP and reversal cost. An exact mapper therefore needs to
/// solve only the representatives. The lowest index of the cheapest
/// subsets is the representative of its own class, so a lowest-index
/// tie-break picks the same subset either way.
///
/// Each subset's canonical form is the lexicographically least of its
/// `k × k` (CNOT, SWAP, reversal) cost matrices over all `k!`
/// relabelings, so the cost grows with `k!`; on a device of at most
/// eight qubits with more than one subset, `k ≤ 7`.
///
/// ```
/// use qxmap_arch::{connected_subsets, devices, subset_representatives, DeviceModel};
///
/// // QX4's six connected 3-subsets come in two shapes: the triangles
/// // {0,1,2} and {2,3,4}, and the four paths through the hub p3.
/// let model = DeviceModel::paper(devices::ibm_qx4());
/// let subsets = connected_subsets(model.coupling_map(), 3);
/// assert_eq!(subset_representatives(&model, &subsets), vec![0, 1]);
/// ```
pub fn subset_representatives(model: &DeviceModel, subsets: &[Vec<usize>]) -> Vec<usize> {
    let mut shapes = HashSet::new();
    (0..subsets.len())
        .filter(|&i| shapes.insert(canonical_form(model, &subsets[i])))
        .collect()
}

/// One cell `(a, b)` of an induced model's cost matrix: the CNOT cost of
/// the directed edge `(a, b)`, the SWAP cost of the pair `{a, b}` and the
/// reversal surcharge of `CNOT(a, b)`, each `None` where the model has
/// none.
type CostCell = [Option<u32>; 3];

/// The lexicographically least row-major cost matrix of `subset`'s
/// induced model over all relabelings of its qubits.
fn canonical_form(model: &DeviceModel, subset: &[usize]) -> Vec<CostCell> {
    let k = subset.len();
    let matrix: Vec<CostCell> = subset
        .iter()
        .flat_map(|&a| {
            subset.iter().map(move |&b| {
                [
                    model.cnot_cost(a, b),
                    model.swap_cost(a, b),
                    model.reversal_cost(a, b),
                ]
            })
        })
        .collect();
    // `order[i]` is the qubit relabeled to `i`; Heap's algorithm visits
    // every order by one swap each.
    let mut order: Vec<usize> = (0..k).collect();
    let mut best = matrix.clone();
    let relabeled = |order: &[usize], cell: usize| matrix[order[cell / k] * k + order[cell % k]];
    let mut counters = vec![0usize; k];
    let mut i = 1;
    while i < k {
        if counters[i] < i {
            order.swap(if i % 2 == 0 { 0 } else { counters[i] }, i);
            let cells = 0..k * k;
            if cells
                .clone()
                .map(|c| relabeled(&order, c))
                .lt(best.iter().copied())
            {
                best = cells.map(|c| relabeled(&order, c)).collect();
            }
            counters[i] += 1;
            i = 1;
        } else {
            counters[i] = 0;
            i += 1;
        }
    }
    best
}

fn combinations(
    m: usize,
    size: usize,
    start: usize,
    current: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if current.len() == size {
        visit(current);
        return;
    }
    let needed = size - current.len();
    for q in start..=(m - needed) {
        current.push(q);
        combinations(m, size, q + 1, current, visit);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    #[test]
    fn full_size_subset_is_whole_device() {
        let cm = devices::ibm_qx4();
        let subs = connected_subsets(&cm, 5);
        assert_eq!(subs, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn qx4_three_subsets() {
        // Connected 3-subsets of QX4: {0,1,2} (triangle), {0,2,3}, {0,2,4},
        // {1,2,3}, {1,2,4}, {2,3,4} (triangle) — all must contain p3=2 ...
        // except none without 2 is connected: {0,1,x}? 0-1 edge exists, but
        // 3 and 4 connect only through 2.
        let subs = connected_subsets(&devices::ibm_qx4(), 3);
        assert_eq!(
            subs,
            vec![
                vec![0, 1, 2],
                vec![0, 2, 3],
                vec![0, 2, 4],
                vec![1, 2, 3],
                vec![1, 2, 4],
                vec![2, 3, 4],
            ]
        );
    }

    #[test]
    fn oversized_requests_are_empty() {
        assert!(connected_subsets(&devices::ibm_qx4(), 6).is_empty());
    }

    #[test]
    fn zero_size_is_single_empty_subset() {
        assert_eq!(
            connected_subsets(&devices::ibm_qx4(), 0),
            vec![Vec::<usize>::new()]
        );
    }

    #[test]
    fn singletons_are_all_connected() {
        let subs = connected_subsets(&devices::ibm_qx4(), 1);
        assert_eq!(subs.len(), 5);
    }

    #[test]
    fn line_subsets_are_intervals() {
        let cm = devices::linear(5);
        let subs = connected_subsets(&cm, 3);
        assert_eq!(subs, vec![vec![0, 1, 2], vec![1, 2, 3], vec![2, 3, 4]]);
    }

    /// Subsets and classes per subset size 3..=7 (0 where the device
    /// is too small).
    fn class_counts(model: &DeviceModel) -> Vec<(usize, usize)> {
        (3..=7)
            .map(|n| {
                let subsets = connected_subsets(model.coupling_map(), n);
                (subsets.len(), subset_representatives(model, &subsets).len())
            })
            .collect()
    }

    #[test]
    fn class_counts_of_the_served_devices() {
        let none = (0, 0);
        for (device, counts) in [
            ("qx4", vec![(6, 2), (4, 2), (1, 1), none, none]),
            ("ring-6", vec![(6, 1), (6, 1), (6, 1), (1, 1), none]),
            ("heavy-hex-1", vec![(5, 1), (4, 1), (3, 1), (2, 1), (1, 1)]),
            ("grid-2x4", vec![(16, 1), (21, 3), (24, 3), (20, 6), (8, 2)]),
            ("linear-8", vec![(6, 1), (5, 1), (4, 1), (3, 1), (2, 1)]),
        ] {
            let model = DeviceModel::paper(devices::by_name(device).unwrap());
            assert_eq!(class_counts(&model), counts, "{device}");
        }
    }

    #[test]
    fn representatives_are_the_lowest_index_of_each_class() {
        let model = DeviceModel::paper(devices::ibm_qx4());
        // {0,1,2} and {2,3,4} are directed triangles; the other four
        // 3-subsets are paths through the hub.
        let subsets = connected_subsets(model.coupling_map(), 3);
        assert_eq!(subset_representatives(&model, &subsets), vec![0, 1]);
        // A singleton list and an empty list need no quotient.
        assert_eq!(subset_representatives(&model, &subsets[2..3]), vec![0]);
        assert!(subset_representatives(&model, &[]).is_empty());
    }

    #[test]
    fn calibrated_costs_split_classes() {
        let model = DeviceModel::paper(devices::ibm_qx4());
        let subsets = connected_subsets(model.coupling_map(), 3);
        let dear = model.clone().with_swap_cost(2, 3, 11);
        assert!(subset_representatives(&dear, &subsets).len() > 2);
        // A reversal surcharge is part of the shape too: only CNOT(p3→p5)
        // runs against the lone edge (p5, p3) ...
        let reversal = model.clone().with_reversal_cost(2, 4, 9);
        assert!(subset_representatives(&reversal, &subsets).len() > 2);
        // ... and so is a CNOT cost.
        let cnot = model.with_cnot_cost(2, 0, 2);
        assert!(subset_representatives(&cnot, &subsets).len() > 2);
    }

    #[test]
    fn edge_direction_is_part_of_the_shape() {
        // Two 3-qubit paths, one directed 0→1→2 and one with both CNOTs
        // into the middle qubit, are not relabelings of each other.
        let cm = CouplingMap::from_edges(6, [(0, 1), (1, 2), (3, 4), (5, 4)]).unwrap();
        let model = DeviceModel::paper(cm);
        let subsets = vec![vec![0, 1, 2], vec![3, 4, 5]];
        assert_eq!(subset_representatives(&model, &subsets), vec![0, 1]);
        // A path directed the other way round is the same shape.
        let cm = CouplingMap::from_edges(6, [(0, 1), (1, 2), (5, 4), (4, 3)]).unwrap();
        let model = DeviceModel::paper(cm);
        assert_eq!(subset_representatives(&model, &subsets), vec![0]);
    }

    #[test]
    fn counts_match_paper_example8() {
        // Example 8/9: C(5,4)=5 subsets, 4 connected ones on QX4.
        let subs = connected_subsets(&devices::ibm_qx4(), 4);
        assert_eq!(subs.len(), 4);
    }
}

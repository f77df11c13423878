//! Permutation-site strategies (Section 4.2).
//!
//! The full method allows a layout permutation before every CNOT but the
//! first. Each strategy below restricts permutations to a subset
//! `G' ⊆ G \ {g₁}` of *change points*, trading guaranteed minimality for
//! (often dramatic) solver speedups.

use std::collections::BTreeSet;

/// Where layout permutations are allowed.
///
/// Change points are expressed as 0-based indices into the circuit's CNOT
/// skeleton; index 0 (the initial mapping, free anyway) is never a change
/// point.
///
/// ```
/// use qxmap_core::Strategy;
///
/// // Fig. 1b's skeleton (0-based qubits).
/// let skeleton = [(2, 3), (0, 1), (1, 2), (0, 2), (2, 0)];
/// // Example 10: disjoint qubits ⇒ G' = {g3, g4, g5} (0-based {2, 3, 4}).
/// let g = Strategy::DisjointQubits.change_points(&skeleton);
/// assert_eq!(g.into_iter().collect::<Vec<_>>(), vec![2, 3, 4]);
/// // Odd gates ⇒ G' = {g3, g5} (0-based {2, 4}).
/// let g = Strategy::OddGates.change_points(&skeleton);
/// assert_eq!(g.into_iter().collect::<Vec<_>>(), vec![2, 4]);
/// // Qubit triangle ⇒ G' = {g2} (0-based {1}).
/// let g = Strategy::QubitTriangle.change_points(&skeleton);
/// assert_eq!(g.into_iter().collect::<Vec<_>>(), vec![1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Permutations before every gate (except the first) — guarantees
    /// minimality (Section 3).
    #[default]
    BeforeEveryGate,
    /// Cluster maximal runs of gates on pairwise-disjoint qubit sets;
    /// permutations only between clusters.
    DisjointQubits,
    /// Permutations only before gates with an odd (1-based) index, i.e.
    /// `g₃, g₅, …`.
    OddGates,
    /// Cluster maximal runs touching at most three distinct qubits (each
    /// run fits a coupling-graph triangle); permutations only between runs.
    QubitTriangle,
    /// Permutations every `k` gates: change points `{k, 2k, 3k, …}`.
    /// Generalizes [`Strategy::OddGates`] (`Window(2)` with an offset);
    /// one of the "many more strategies … omitted due to space
    /// limitations" (footnote 6 of the paper).
    Window(usize),
    /// Explicit change points (0-based skeleton indices; index 0 and
    /// out-of-range entries are ignored).
    Custom(Vec<usize>),
}

impl Strategy {
    /// Computes the change-point set `G'` for a CNOT skeleton.
    pub fn change_points(&self, skeleton: &[(usize, usize)]) -> BTreeSet<usize> {
        let k = skeleton.len();
        match self {
            Strategy::BeforeEveryGate => (1..k).collect(),
            Strategy::DisjointQubits => cluster_starts(skeleton, |cluster, gate| {
                cluster.contains(&gate.0) || cluster.contains(&gate.1)
            }),
            Strategy::OddGates => (1..k).filter(|i| (i + 1) % 2 == 1).collect(),
            Strategy::QubitTriangle => cluster_starts(skeleton, |cluster, gate| {
                let mut extended = cluster.clone();
                extended.insert(gate.0);
                extended.insert(gate.1);
                extended.len() > 3
            }),
            Strategy::Window(size) => {
                let size = (*size).max(1);
                (1..k).filter(|i| i % size == 0).collect()
            }
            Strategy::Custom(points) => points
                .iter()
                .copied()
                .filter(|&i| i >= 1 && i < k)
                .collect(),
        }
    }

    /// Short display name matching the paper's Table 1 column headers.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::BeforeEveryGate => "minimal",
            Strategy::DisjointQubits => "disjoint qubits",
            Strategy::OddGates => "odd gates",
            Strategy::QubitTriangle => "qubit triangle",
            Strategy::Window(_) => "window",
            Strategy::Custom(_) => "custom",
        }
    }
}

/// Greedy sequential clustering: gate `k` starts a new cluster when
/// `must_split(current_cluster_qubits, gate_k)`; returns the start indices
/// of every cluster except the first.
fn cluster_starts(
    skeleton: &[(usize, usize)],
    must_split: impl Fn(&BTreeSet<usize>, (usize, usize)) -> bool,
) -> BTreeSet<usize> {
    let mut points = BTreeSet::new();
    let mut cluster: BTreeSet<usize> = BTreeSet::new();
    for (k, &gate) in skeleton.iter().enumerate() {
        if k > 0 && must_split(&cluster, gate) {
            points.insert(k);
            cluster.clear();
        }
        cluster.insert(gate.0);
        cluster.insert(gate.1);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1b() -> Vec<(usize, usize)> {
        vec![(2, 3), (0, 1), (1, 2), (0, 2), (2, 0)]
    }

    #[test]
    fn before_every_gate_is_all_but_first() {
        let g = Strategy::BeforeEveryGate.change_points(&fig1b());
        assert_eq!(g.into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn example10_disjoint_qubits() {
        // g1 (2,3) and g2 (0,1) are disjoint → no permutation before g2.
        let g = Strategy::DisjointQubits.change_points(&fig1b());
        assert_eq!(g.into_iter().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn example10_odd_gates() {
        let g = Strategy::OddGates.change_points(&fig1b());
        assert_eq!(g.into_iter().collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn example10_qubit_triangle() {
        // g2..g5 act on {0,1,2} only; a single permutation before g2.
        let g = Strategy::QubitTriangle.change_points(&fig1b());
        assert_eq!(g.into_iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn window_strategy_spacing() {
        let skel: Vec<(usize, usize)> = (0..9).map(|i| (i % 3, (i + 1) % 3)).collect();
        let g = Strategy::Window(3).change_points(&skel);
        assert_eq!(g.into_iter().collect::<Vec<_>>(), vec![3, 6]);
        // Window(1) equals BeforeEveryGate.
        assert_eq!(
            Strategy::Window(1).change_points(&skel),
            Strategy::BeforeEveryGate.change_points(&skel)
        );
        // Degenerate size 0 is clamped to 1.
        assert_eq!(
            Strategy::Window(0).change_points(&skel),
            Strategy::BeforeEveryGate.change_points(&skel)
        );
    }

    #[test]
    fn custom_filters_invalid_indices() {
        let g = Strategy::Custom(vec![0, 1, 3, 99]).change_points(&fig1b());
        assert_eq!(g.into_iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn empty_skeleton_has_no_points() {
        for s in [
            Strategy::BeforeEveryGate,
            Strategy::DisjointQubits,
            Strategy::OddGates,
            Strategy::QubitTriangle,
        ] {
            assert!(s.change_points(&[]).is_empty());
        }
    }

    #[test]
    fn single_gate_has_no_points() {
        let skel = [(0, 1)];
        assert!(Strategy::BeforeEveryGate.change_points(&skel).is_empty());
    }

    #[test]
    fn strategy_sizes_are_ordered() {
        // |G'| must shrink: all ≥ disjoint ≥ triangle on Fig. 1b.
        let all = Strategy::BeforeEveryGate.change_points(&fig1b()).len();
        let dis = Strategy::DisjointQubits.change_points(&fig1b()).len();
        let tri = Strategy::QubitTriangle.change_points(&fig1b()).len();
        assert!(all >= dis && dis >= tri);
    }

    #[test]
    fn names() {
        assert_eq!(Strategy::BeforeEveryGate.name(), "minimal");
        assert_eq!(Strategy::QubitTriangle.name(), "qubit triangle");
    }
}

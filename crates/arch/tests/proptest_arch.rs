//! Property-based tests for permutation algebra, swap tables and layouts.

use proptest::prelude::*;
use qxmap_arch::{connected_subsets, devices, CostedSwapTable, CouplingMap, Layout, Permutation};

/// `swaps(π)` on `cm`: every SWAP weighs 1, so a cost is a SWAP count.
fn swap_counts(cm: &CouplingMap) -> CostedSwapTable {
    let unit: Vec<(usize, usize, u64)> = cm
        .undirected_edges()
        .into_iter()
        .map(|(a, b)| (a, b, 1))
        .collect();
    CostedSwapTable::for_weighted_edges(cm.num_qubits(), &unit)
}

fn permutation_strategy(n: usize) -> impl Strategy<Value = Permutation> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut image: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            image.swap(i, j);
        }
        Permutation::from_image(image)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Group axioms: associativity, inverse, identity.
    #[test]
    fn permutation_group_axioms(
        a in permutation_strategy(6),
        b in permutation_strategy(6),
        c in permutation_strategy(6),
    ) {
        prop_assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
        prop_assert!(a.compose(&a.inverse()).is_identity());
        let id = Permutation::identity(6);
        prop_assert_eq!(a.compose(&id), a.clone());
        prop_assert_eq!(id.compose(&a), a.clone());
    }

    /// `min_transpositions` is invariant under inversion and zero iff id.
    #[test]
    fn transposition_count_invariants(a in permutation_strategy(7)) {
        prop_assert_eq!(a.min_transpositions(), a.inverse().min_transpositions());
        prop_assert_eq!(a.min_transpositions() == 0, a.is_identity());
        prop_assert!(a.min_transpositions() < 7);
    }

    /// swaps(π) on QX4: symmetric under inversion, triangle inequality
    /// under composition, witness length equals the reported distance.
    #[test]
    fn swap_table_metric_properties(
        a in permutation_strategy(5),
        b in permutation_strategy(5),
    ) {
        let table = swap_counts(&devices::ibm_qx4());
        let da = table.cost(&a).expect("QX4 is connected");
        let db = table.cost(&b).expect("connected");
        let dainv = table.cost(&a.inverse()).expect("connected");
        prop_assert_eq!(da, dainv, "swaps(π) must equal swaps(π⁻¹)");
        let dab = table.cost(&a.compose(&b)).expect("connected");
        prop_assert!(dab <= da + db, "triangle inequality violated");
        prop_assert_eq!(table.sequence(&a).unwrap().len() as u64, da);
        // Lower bound from free (non-adjacent) transpositions.
        prop_assert!(da as usize >= a.min_transpositions());
    }

    /// Layout ↔ permutation round trip.
    #[test]
    fn layout_permutation_roundtrip(pi in permutation_strategy(5)) {
        let mut layout = Layout::identity(5, 5);
        layout.apply_permutation(&pi);
        let recovered = Layout::identity(5, 5).permutation_to(&layout).expect("same logical set");
        prop_assert_eq!(recovered, pi);
    }

    /// Applying the witness SWAP sequence to a layout lands exactly on the
    /// permuted layout.
    #[test]
    fn witness_sequences_move_layouts(pi in permutation_strategy(5)) {
        let cm = devices::ibm_qx4();
        let table = swap_counts(&cm);
        let seq = table.sequence(&pi).expect("connected").to_vec();
        let mut via_swaps = Layout::identity(5, 5);
        for (a, b) in seq {
            prop_assert!(cm.connected_either(a, b), "witness must use edges");
            via_swaps.swap_phys(a, b);
        }
        let mut via_perm = Layout::identity(5, 5);
        via_perm.apply_permutation(&pi);
        prop_assert_eq!(via_swaps, via_perm);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Connected subsets really are connected, and the count matches a
    /// brute-force check on random graphs.
    #[test]
    fn connected_subsets_are_sound_and_complete(
        edges in prop::collection::vec((0usize..7, 0usize..7), 0..12),
        size in 1usize..4,
    ) {
        let cm = CouplingMap::from_edges(
            7,
            edges.into_iter().filter(|(a, b)| a != b),
        ).expect("filtered self-loops");
        let subs = connected_subsets(&cm, size);
        for s in &subs {
            prop_assert!(cm.is_connected_subset(s), "{s:?} not connected");
        }
        // Completeness: bitmask enumeration finds the same count.
        let mut count = 0usize;
        for mask in 0u32..(1 << 7) {
            if mask.count_ones() as usize != size {
                continue;
            }
            let subset: Vec<usize> = (0..7).filter(|i| mask & (1 << i) != 0).collect();
            if cm.is_connected_subset(&subset) {
                count += 1;
            }
        }
        prop_assert_eq!(subs.len(), count);
    }

    /// Distance matrices are symmetric metrics on connected devices.
    #[test]
    fn distance_matrix_is_a_metric(seed in 0u64..1000) {
        let cm = match seed % 4 {
            0 => devices::ibm_qx4(),
            1 => devices::ibm_qx5(),
            2 => devices::linear(8),
            _ => devices::grid(3, 3),
        };
        let d = cm.distance_matrix();
        let m = cm.num_qubits();
        for a in 0..m {
            prop_assert_eq!(d[a][a], 0);
            for b in 0..m {
                prop_assert_eq!(d[a][b], d[b][a]);
                for c in 0..m {
                    prop_assert!(d[a][c] <= d[a][b] + d[b][c]);
                }
            }
        }
    }
}

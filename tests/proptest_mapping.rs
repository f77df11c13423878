//! Property-based end-to-end validation: random small circuits through
//! the exact mapper stay hardware-legal, cost-consistent, and
//! functionally equivalent.

use proptest::prelude::*;
use qxmap::arch::{devices, CouplingMap};
use qxmap::circuit::Circuit;
use qxmap::core::Strategy as MapStrategy;
use qxmap::map::{Engine, ExactEngine, MapRequest};
use qxmap::sim::mapped_equivalent;

/// Random circuits with 2–4 qubits and up to 8 gates.
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    (2usize..=4).prop_flat_map(|n| {
        let gate = prop_oneof![
            // CNOT with distinct qubits (built arithmetically, no filter).
            (0..n, 1..n).prop_map(move |(c, d)| (0u8, c, (c + d) % n)),
            // H / T on one qubit.
            (0..n).prop_map(|q| (1u8, q, 0usize)),
            (0..n).prop_map(|q| (2u8, q, 0usize)),
        ];
        prop::collection::vec(gate, 1..8).prop_map(move |gates| {
            let mut c = Circuit::new(n);
            for (kind, a, b) in gates {
                match kind {
                    0 => {
                        c.cx(a, b);
                    }
                    1 => {
                        c.h(a);
                    }
                    _ => {
                        c.t(a);
                    }
                }
            }
            c
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exact_mapping_is_sound(circuit in circuit_strategy()) {
        let cm = devices::ibm_qx4();
        let request = MapRequest::new(circuit.clone(), cm.clone());
        let report = ExactEngine::new()
            .run(&request)
            .expect("QX4 maps every small circuit");

        // Structural soundness + cost accounting.
        report.verify(&circuit, &cm).expect("sound");
        prop_assert_eq!(
            report.cost.added_gates,
            7 * u64::from(report.cost.swaps) + 4 * u64::from(report.cost.reversals)
        );
        prop_assert_eq!(report.cost.objective, report.cost.added_gates);
        prop_assert!(report.proved_optimal);

        // Functional equivalence.
        prop_assert!(mapped_equivalent(
            &circuit,
            &report.mapped,
            &report.initial_layout,
            &report.final_layout,
            1e-9,
        ).expect("unitary"));
    }

    #[test]
    fn strategies_never_beat_the_minimum(circuit in circuit_strategy()) {
        let cm = devices::ibm_qx4();
        let request = MapRequest::new(circuit.clone(), cm.clone());
        let minimal = ExactEngine::new()
            .run(&request)
            .expect("mappable")
            .cost
            .objective;
        for strategy in [MapStrategy::DisjointQubits, MapStrategy::OddGates, MapStrategy::QubitTriangle] {
            let r = ExactEngine::new()
                .run(&request.clone().with_strategy(strategy.clone()))
                .expect("mappable");
            prop_assert!(
                r.cost.objective >= minimal,
                "{:?} {} < {}", strategy, r.cost.objective, minimal
            );
        }
    }
}

/// A permutation of `0..n` by Fisher–Yates, each swap index drawn as the
/// next mixed-radix digit of `seed`.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut sigma: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let radix = i as u64 + 1;
        sigma.swap(i, (seed % radix) as usize);
        seed /= radix;
    }
    sigma
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The solve cache serves a relabeled twin from one solve, which is
    /// sound only if the proved optimum does not depend on qubit names.
    #[test]
    fn exact_optimum_is_invariant_under_qubit_relabeling(
        circuit in circuit_strategy(),
        seed in any::<u64>(),
    ) {
        let cm = devices::ibm_qx4();
        let n = circuit.num_qubits();
        let sigma = permutation(n, seed);
        let relabeled = circuit.map_qubits(n, |q| sigma[q]);
        let mut optima = Vec::new();
        for c in [&circuit, &relabeled] {
            let report = ExactEngine::new()
                .run(&MapRequest::new(c.clone(), cm.clone()))
                .expect("QX4 maps every small circuit");
            prop_assert!(report.proved_optimal);
            report.verify(c, &cm).expect("sound");
            optima.push(report.cost.objective);
        }
        prop_assert_eq!(optima[0], optima[1], "sigma = {:?}", sigma);
    }

    /// Renaming the device's physical qubits changes which subset of each
    /// Section 4.1 class comes first, and so which one is solved; the
    /// proved optimum must not move.
    #[test]
    fn exact_optimum_is_invariant_under_device_relabeling(
        circuit in circuit_strategy(),
        seed in any::<u64>(),
    ) {
        let cm = devices::ibm_qx4();
        let pi = permutation(cm.num_qubits(), seed);
        let relabeled = CouplingMap::from_edges(
            cm.num_qubits(),
            cm.edges().map(|(c, t)| (pi[c], pi[t])),
        )
        .expect("a relabeling keeps every edge valid");
        let mut optima = Vec::new();
        for device in [&cm, &relabeled] {
            let report = ExactEngine::new()
                .run(&MapRequest::new(circuit.clone(), device.clone()))
                .expect("QX4 maps every small circuit, however it is labeled");
            prop_assert!(report.proved_optimal);
            report.verify(&circuit, device).expect("sound");
            optima.push(report.cost.objective);
        }
        prop_assert_eq!(optima[0], optima[1], "pi = {:?}", pi);
    }
}

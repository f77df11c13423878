//! Contract tests for the unified `qxmap-map` surface: the portfolio's
//! floor guarantee and equivalence, the acceptance behaviors on small and
//! large devices, and one answer per request through the cached entries.

use proptest::prelude::*;
use qxmap::arch::devices;
use qxmap::circuit::Circuit;
use qxmap::map::{map_one, Engine, HeuristicEngine, MapRequest, Portfolio};
use qxmap::sim::mapped_equivalent;

/// Random circuits with 2–4 qubits and up to 8 gates (CNOTs built
/// arithmetically so control ≠ target without filtering).
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    (2usize..=4).prop_flat_map(|n| {
        let gate = prop_oneof![
            (0..n, 1..n).prop_map(move |(c, d)| (0u8, c, (c + d) % n)),
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The portfolio keeps the naive floor in its pool and only ever
    /// improves on it — and its winner, whichever engine produced it,
    /// stays functionally equivalent to the input.
    #[test]
    fn portfolio_never_worse_than_naive_and_equivalent(circuit in circuit_strategy()) {
        let cm = devices::ibm_qx4();
        let request = MapRequest::new(circuit.clone(), cm.clone());

        let portfolio = Portfolio::new().run(&request).expect("mappable");
        let naive = HeuristicEngine::naive().run(&request).expect("mappable");
        prop_assert!(
            portfolio.cost.objective <= naive.cost.objective,
            "portfolio {} > naive {}",
            portfolio.cost.objective,
            naive.cost.objective
        );
        prop_assert!(portfolio.proved_optimal, "QX4 is inside the exact regime");

        portfolio.verify(&circuit, &cm).expect("sound");
        prop_assert!(mapped_equivalent(
            &circuit.decompose_swaps(),
            &portfolio.mapped,
            &portfolio.initial_layout,
            &portfolio.final_layout,
            1e-9,
        ).expect("unitary"));
    }
}

#[test]
fn portfolio_acceptance_on_the_paper_example() {
    // The issue's acceptance criteria, verbatim: cost 4, proved, on QX4.
    let request = MapRequest::new(qxmap::circuit::paper_example(), devices::ibm_qx4());
    let report = Portfolio::new().run(&request).unwrap();
    assert_eq!(report.cost.objective, 4);
    assert!(report.proved_optimal);
}

#[test]
fn portfolio_falls_back_on_large_devices() {
    // A >8-qubit device is beyond MAX_EXACT_QUBITS: no error, a heuristic
    // answers instead.
    let mut circuit = Circuit::new(9);
    for q in 0..8 {
        circuit.cx(q, q + 1);
    }
    for cm in [devices::ibm_qx5(), devices::ibm_tokyo()] {
        let request = MapRequest::new(circuit.clone(), cm.clone());
        let report = Portfolio::new()
            .run(&request)
            .expect("must fall back, not fail");
        assert!(
            !report.engine.contains("exact"),
            "exact cannot run on {} qubits",
            cm.num_qubits()
        );
        report.verify(&circuit, &cm).expect("legal");
    }
}

#[test]
fn cached_entries_answer_each_request_for_itself() {
    // Distinguishable circuits: request i uses i+2 qubits on a device
    // sized to match, so a report served for the wrong request (say, a
    // cache entry keyed too loosely) would show in its width.
    let requests: Vec<MapRequest> = (0..8)
        .map(|i| {
            let n = 2 + i;
            let mut c = Circuit::new(n);
            for q in 0..n - 1 {
                c.cx(q, q + 1);
            }
            MapRequest::new(c, devices::linear(n))
        })
        .collect();
    for (i, request) in requests.iter().enumerate() {
        let report = map_one(request).expect("linear devices route chains");
        assert_eq!(
            report.mapped.num_qubits(),
            request.device().num_qubits(),
            "request {i} answered for another request"
        );
        report.verify(request.circuit(), request.device()).unwrap();
    }
    // Through an explicit engine's cached entry, each report names it.
    let sabre = HeuristicEngine::sabre();
    for (i, request) in requests.iter().enumerate() {
        let report = sabre.run_cached(request).expect("mappable");
        assert_eq!(report.engine, "sabre", "request {i}");
        assert_eq!(report.mapped.num_qubits(), request.device().num_qubits());
        report.verify(request.circuit(), request.device()).unwrap();
    }
}

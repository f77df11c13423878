//! End-to-end validation of the `DeviceModel` layer: the paper's 7/4
//! accounting as a verified gate-count identity, calibration overrides
//! steering the exact optimum, fingerprint-keyed caching, and the
//! cost-model-aware portfolio scheduler.

use proptest::prelude::*;
use qxmap::arch::{devices, CouplingMap, DeviceModel};
use qxmap::circuit::Circuit;
use qxmap::map::{Engine, ExactEngine, HeuristicEngine, MapRequest, Portfolio, SolveCache};

/// Random circuits with 2–4 qubits and up to 10 gates.
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    (2usize..=4).prop_flat_map(|n| {
        let gate = prop_oneof![
            (0..n, 1..n).prop_map(move |(c, d)| (0u8, c, (c + d) % n)),
            (0..n).prop_map(|q| (1u8, q, 0usize)),
            (0..n).prop_map(|q| (2u8, q, 0usize)),
        ];
        prop::collection::vec(gate, 1..10).prop_map(move |gates| {
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
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The paper's directed-cost identity, end to end: on a fully
    /// unidirectional device the *verified* mapped circuit recounts to
    /// exactly `original + 7·swaps + 4·reversals` — for the exact engine
    /// and a heuristic alike, with the objective agreeing.
    #[test]
    fn directed_cost_identity_holds_on_qx4(circuit in circuit_strategy()) {
        let cm = devices::ibm_qx4();
        let request = MapRequest::new(circuit.clone(), cm.clone());
        for report in [
            ExactEngine::new().run(&request).expect("QX4 maps small circuits"),
            HeuristicEngine::sabre().run(&request).expect("mappable"),
        ] {
            report.verify(&circuit, &cm).expect("sound");
            let original = circuit.decompose_swaps().original_cost() as u64;
            let identity =
                7 * u64::from(report.cost.swaps) + 4 * u64::from(report.cost.reversals);
            prop_assert_eq!(report.mapped.original_cost() as u64, original + identity);
            prop_assert_eq!(report.cost.objective, identity);
        }
    }

    /// The same identity on a directed line (every edge unidirectional),
    /// via the naive floor.
    #[test]
    fn directed_cost_identity_holds_on_lines(circuit in circuit_strategy()) {
        let cm = devices::linear(4);
        let request = MapRequest::new(circuit.clone(), cm.clone());
        let report = HeuristicEngine::naive().run(&request).expect("connected line");
        report.verify(&circuit, &cm).expect("sound");
        let original = circuit.decompose_swaps().original_cost() as u64;
        let identity = 7 * u64::from(report.cost.swaps) + 4 * u64::from(report.cost.reversals);
        prop_assert_eq!(report.mapped.original_cost() as u64, original + identity);
    }
}

/// A bidirectional 3-qubit path p0—p1—p2.
fn bidirectional_path() -> CouplingMap {
    CouplingMap::from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        .unwrap()
        .named("bi-path-3")
}

/// A triangle of interactions on a 3-qubit path needs exactly one SWAP;
/// the two candidate SWAP edges are symmetric under uniform costs, so a
/// calibration override provably moves the optimum to the cheap side.
#[test]
fn calibration_overrides_change_the_chosen_solution() {
    let mut circuit = Circuit::new(3);
    circuit.cx(0, 1);
    circuit.cx(1, 2);
    circuit.cx(0, 2);

    let solve = |model: DeviceModel| {
        let request = MapRequest::for_model(circuit.clone(), model);
        let report = ExactEngine::new().run(&request).expect("mappable");
        assert!(report.proved_optimal);
        report.verify(&circuit, request.device()).expect("sound");
        report
    };

    // Uniform hardware model: one SWAP at cost 3, wherever it lands.
    let uniform = solve(DeviceModel::new(bidirectional_path()));
    assert_eq!(uniform.cost.objective, 3);
    assert_eq!(uniform.cost.swaps, 1);

    // Make the {p0,p1} edge dear: the optimum must swap on {p1,p2}.
    let skew_left = solve(DeviceModel::new(bidirectional_path()).with_swap_cost(0, 1, 50));
    assert_eq!(skew_left.cost.objective, 3, "the cheap edge still costs 3");
    // And vice versa.
    let skew_right = solve(DeviceModel::new(bidirectional_path()).with_swap_cost(1, 2, 50));
    assert_eq!(skew_right.cost.objective, 3);

    // The two calibrations provably chose different realizations: the
    // inserted SWAP touches different physical pairs, so the mapped
    // circuits (and/or layouts) differ.
    assert_ne!(
        (skew_left.mapped.clone(), skew_left.initial_layout.clone()),
        (skew_right.mapped.clone(), skew_right.initial_layout.clone()),
        "calibration did not steer the chosen layout"
    );
    let swap_edges = |report: &qxmap::map::MapReport| -> Vec<(usize, usize)> {
        // 3 logical CNOTs map to 3 skeleton CNOTs; the SWAP contributes
        // 3 more on one edge. Collect the over-represented pairs.
        let mut pairs: Vec<(usize, usize)> = report
            .mapped
            .cnot_skeleton()
            .into_iter()
            .map(|(c, t)| (c.min(t), c.max(t)))
            .collect();
        pairs.sort_unstable();
        pairs
    };
    assert_ne!(
        swap_edges(&skew_left),
        swap_edges(&skew_right),
        "the SWAP landed on the same edge under opposite calibrations"
    );
}

/// Reversal-cost calibration steers which edge hosts an opposed CNOT
/// pair on a directed device.
#[test]
fn reversal_calibration_changes_the_chosen_layout() {
    // Directed line p0→p1→p2: an opposed pair must reverse (or SWAP).
    let cm = devices::linear(3);
    let mut circuit = Circuit::new(2);
    circuit.cx(0, 1);
    circuit.cx(1, 0);

    let solve = |model: DeviceModel| {
        let request = MapRequest::for_model(circuit.clone(), model);
        let report = ExactEngine::new().run(&request).expect("mappable");
        assert!(report.proved_optimal);
        report.verify(&circuit, request.device()).expect("sound");
        report
    };

    // Uniform: either edge hosts the pair, one reversal, cost 4.
    let uniform = solve(DeviceModel::new(cm.clone()));
    assert_eq!(uniform.cost.objective, 4);

    // Make reversing against p0→p1 dear: the pair must sit on p1/p2.
    let skewed = solve(DeviceModel::new(cm.clone()).with_reversal_cost(1, 0, 100));
    assert_eq!(
        skewed.cost.objective, 4,
        "the other edge still reverses for 4"
    );
    let occupied: Vec<usize> = (0..2)
        .map(|q| skewed.initial_layout.phys_of(q).expect("complete"))
        .collect();
    assert!(
        occupied.contains(&1) && occupied.contains(&2),
        "calibration should push the pair onto p1/p2, got {occupied:?}"
    );
}

/// CNOT-cost calibration prices gate *placement* identically for the
/// exact engine and the heuristics — the surcharge above the baseline 1
/// lands in both objectives, while the physical gate counts stay put.
#[test]
fn cnot_calibration_prices_exact_and_heuristics_identically() {
    let mut circuit = Circuit::new(2);
    circuit.cx(0, 1);
    // One edge only: a calibrated CNOT cost of 5 means every answer pays
    // the 4-point surcharge without adding a single gate.
    let model = DeviceModel::new(devices::linear(2)).with_cnot_cost(0, 1, 5);
    let request = MapRequest::for_model(circuit.clone(), model);
    let exact = ExactEngine::new().run(&request).expect("mappable");
    let naive = HeuristicEngine::naive().run(&request).expect("mappable");
    for report in [&exact, &naive] {
        report.verify(&circuit, request.device()).expect("sound");
        assert_eq!(report.cost.objective, 4, "{}", report.engine);
        assert_eq!(report.cost.added_gates, 0, "{}", report.engine);
    }
}

/// The device fingerprint keys the solve cache: same topology + same
/// costs hit, any calibration difference misses.
#[test]
fn fingerprint_identity_governs_cache_hits() {
    let cache = SolveCache::with_capacity(8);
    let circuit = {
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        c.cx(2, 1);
        c
    };
    let engine = HeuristicEngine::naive();
    let base = MapRequest::new(circuit.clone(), devices::ibm_qx4());
    let report = engine.run(&base).expect("mappable");
    cache.insert(&engine.cache_signature(), &base, &report);

    // An explicitly built uniform paper model is the same fingerprint.
    let same = MapRequest::for_model(circuit.clone(), DeviceModel::paper(devices::ibm_qx4()));
    assert_eq!(
        same.device_model().fingerprint(),
        base.device_model().fingerprint()
    );
    assert!(cache.lookup(&engine.cache_signature(), &same).is_some());

    // One calibrated edge is a different device identity.
    let skewed = MapRequest::for_model(
        circuit,
        DeviceModel::paper(devices::ibm_qx4()).with_swap_cost(3, 4, 70),
    );
    assert!(cache.lookup(&engine.cache_signature(), &skewed).is_none());
}

/// The acceptance scenario for the scheduler: on an all-to-all device
/// dominated baselines are skipped, and the race still returns a
/// verified result.
#[test]
fn portfolio_skips_dominated_baselines_and_still_verifies() {
    let skipped = Portfolio::new().skipped_baselines(&MapRequest::new(
        Circuit::new(3),
        devices::fully_connected(8),
    ));
    let engines: Vec<&str> = skipped.iter().map(|(e, _)| *e).collect();
    assert!(engines.contains(&"sabre"), "{engines:?}");

    let mut circuit = Circuit::new(6);
    for q in 0..6 {
        circuit.cx(q, (q + 3) % 6);
    }
    let cm = devices::fully_connected(8);
    let request = MapRequest::new(circuit.clone(), cm.clone());
    let report = Portfolio::new()
        .run(&request)
        .expect("all-to-all maps everything");
    report.verify(&circuit, &cm).expect("verified");
    assert_eq!(report.cost.objective, 0);
    assert!(report.proved_optimal);
}

/// Generated topologies flow through the whole stack: heavy-hex by name,
/// portfolio mapping, verification.
#[test]
fn heavy_hex_maps_through_the_portfolio() {
    let cm = devices::by_name("heavy-hex-1").expect("topology library name");
    assert_eq!(cm.num_qubits(), 7);
    let mut circuit = Circuit::new(4);
    circuit.cx(0, 1);
    circuit.cx(2, 3);
    circuit.cx(0, 3);
    circuit.cx(1, 2);
    // The hardware-derived model prices this bidirectional lattice at 3
    // per SWAP (the default `MapRequest::new` would keep the seed's
    // uniform 7/4 accounting instead).
    let request = MapRequest::for_model(circuit.clone(), DeviceModel::new(cm.clone()));
    let report = Portfolio::new().run(&request).expect("connected device");
    report.verify(&circuit, &cm).expect("verified");
    // Bidirectional device: insertions are SWAPs only, each 3 gates.
    assert_eq!(report.cost.reversals, 0);
    assert_eq!(report.cost.objective, 3 * u64::from(report.cost.swaps));
    assert_eq!(report.cost.added_gates, report.cost.objective);
}

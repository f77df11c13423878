//! Property-based validation of the windowed engine: for random
//! circuits past the exact regime, the served answer must verify and
//! never cost more than SABRE's; a stitched result must certify every
//! gate in exactly one window; and a relabeled whole-circuit hit must
//! translate its window certificates.

use std::time::Duration;

use proptest::prelude::*;
use qxmap::arch::{devices, CouplingMap};
use qxmap::benchmarks::famous;
use qxmap::circuit::Circuit;
use qxmap::map::{map_many_with, Engine, HeuristicEngine, MapReport, MapRequest};
use qxmap::window::WindowedEngine;

/// The large-circuit smoke gate: a 52-qubit workload — 6.5× past the
/// 8-qubit exact wall — maps end-to-end on a 55-qubit heavy-hex lattice
/// through the windowed engine, inside the deadline, verifies against
/// the full circuit, and carries a per-window certificate chain that
/// accounts for every costed gate.
#[test]
fn fifty_two_qubits_map_on_heavy_hex_within_deadline() {
    let circuit = famous::qft_blocks(13, 4);
    assert_eq!(circuit.num_qubits(), 52);
    let device = devices::by_name("heavy-hex-4").expect("library device");
    let deadline = Duration::from_secs(30);
    let request = MapRequest::new(circuit.clone(), device.clone()).with_deadline(deadline);

    let started = std::time::Instant::now();
    let report = WindowedEngine::new()
        .run(&request)
        .expect("windowed mapping succeeds past the exact regime");
    assert!(
        started.elapsed() < deadline,
        "windowed map overran its deadline: {:?}",
        started.elapsed()
    );

    report
        .verify(&circuit, &device)
        .expect("stitched result is sound");
    let windows = report.windows.expect("windowed reports certify per window");
    assert!(windows.len() >= 13, "{} windows", windows.len());
    // The engine SWAP-decomposes before slicing, so the certified gate
    // count is taken against the decomposed circuit.
    assert_eq!(
        windows.iter().map(|w| w.gates).sum::<usize>(),
        circuit.decompose_swaps().original_cost(),
        "every costed gate is certified by exactly one window"
    );
    assert!(windows
        .iter()
        .all(|w| w.qubits.len() <= qxmap::core::MAX_EXACT_QUBITS));
}

/// Three 4-qubit QFT copies on a 3×4 grid: an input the stitch wins
/// outright (SABRE pays to gather every copy), so its answer carries
/// window certificates.
fn stitch_winning_input() -> (Circuit, CouplingMap) {
    (famous::qft_blocks(3, 4), devices::grid(3, 4))
}

/// The window certificates' logical qubits, window by window.
fn certified_qubits(report: &MapReport) -> Vec<Vec<usize>> {
    let windows = report.windows.as_ref().expect("the stitch won");
    windows.iter().map(|w| w.qubits.clone()).collect()
}

/// A relabeled repeat of a stitched answer is served whole from the
/// cache — through a later lookup, and through a batch's duplicate slot
/// — with its certificates naming the repeat's own qubits.
#[test]
fn relabeled_windowed_hits_translate_their_certificates() {
    let (circuit, device) = stitch_winning_input();
    let n = circuit.num_qubits();
    let relabel = |q: usize| (q * 5 + 3) % n;
    let renamed = circuit.map_qubits(n, relabel);
    let engine = WindowedEngine::new();

    let fresh = engine
        .run_cached(&MapRequest::new(circuit.clone(), device.clone()))
        .expect("mappable");
    assert!(!fresh.served_from_cache);
    assert_eq!(fresh.winner, "windowed", "the stitch wins this input");
    let translated: Vec<Vec<usize>> = certified_qubits(&fresh)
        .into_iter()
        .map(|qubits| qubits.into_iter().map(relabel).collect())
        .collect();

    let hit = engine
        .run_cached(&MapRequest::new(renamed.clone(), device.clone()))
        .expect("mappable");
    assert!(hit.served_from_cache);
    hit.verify(&renamed, &device).expect("translated layouts");
    assert_eq!(certified_qubits(&hit), translated);

    let batch = map_many_with(
        &engine,
        &[
            MapRequest::new(circuit.clone(), device.clone()).with_seed(7),
            MapRequest::new(renamed.clone(), device.clone()).with_seed(7),
        ],
    );
    let duplicate = batch[1].as_ref().expect("mappable");
    assert!(duplicate.served_from_cache);
    duplicate
        .verify(&renamed, &device)
        .expect("translated layouts");
    assert_eq!(
        certified_qubits(duplicate),
        certified_qubits(batch[0].as_ref().expect("mappable"))
            .into_iter()
            .map(|qubits| qubits.into_iter().map(relabel).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    );
}

/// Random connected devices past the exact regime: a random spanning
/// tree over 12–14 qubits plus a few extra couplings, each edge pointing
/// a random way so some CNOTs pay H reversals, as on the IBM QX devices.
fn device_strategy() -> impl Strategy<Value = CouplingMap> {
    (12usize..=14).prop_flat_map(|m| {
        (
            prop::collection::vec(any::<u64>(), m - 1),
            prop::collection::vec((0..m, 1..m), 0..4),
        )
            .prop_map(move |(tree, extra)| {
                let mut edges: Vec<(usize, usize)> = tree
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| {
                        let (child, parent) = (i + 1, (r % (i as u64 + 1)) as usize);
                        if r >> 63 == 1 {
                            (child, parent)
                        } else {
                            (parent, child)
                        }
                    })
                    .collect();
                edges.extend(extra.into_iter().map(|(a, d)| (a, (a + d) % m)));
                CouplingMap::from_edges(m, edges).expect("in-range, loop-free edges")
            })
    })
}

/// Random circuits with 9–12 qubits (past the 8-qubit exact regime)
/// and up to 39 gates.
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    (9usize..=12).prop_flat_map(|n| {
        let gate = prop_oneof![
            // CNOT with distinct qubits (built arithmetically, no filter).
            (0..n, 1..n).prop_map(move |(c, d)| (0u8, c, (c + d) % n)),
            // H / T on one qubit.
            (0..n).prop_map(|q| (1u8, q, 0usize)),
            (0..n).prop_map(|q| (2u8, q, 0usize)),
        ];
        prop::collection::vec(gate, 1..40).prop_map(move |gates| {
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

    #[test]
    fn served_answers_verify_and_never_lose_to_sabre(
        device in device_strategy(),
        circuit in circuit_strategy(),
    ) {
        prop_assert!(device.is_connected());
        let request = MapRequest::new(circuit.clone(), device.clone());
        let report = WindowedEngine::new()
            .run(&request)
            .expect("a connected device maps every circuit");
        report.verify(&circuit, &device).expect("sound");
        let sabre = HeuristicEngine::sabre().run(&request).expect("SABRE maps it");
        prop_assert!(
            report.cost.objective <= sabre.cost.objective,
            "served {} (won by {}) against SABRE's {}",
            report.cost.objective,
            report.winner,
            sabre.cost.objective
        );
    }
}

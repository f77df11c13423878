//! Quickstart: build a circuit, inspect the device, map it through the
//! unified request/report surface.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use qxmap::arch::{devices, CostedSwapTable};
use qxmap::circuit::Circuit;
use qxmap::map::{Engine, MapRequest, Portfolio};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The device the paper evaluates on: IBM QX4 (Fig. 2).
    let cm = devices::ibm_qx4();
    println!("Device: {cm}");
    println!(
        "  {} physical qubits, {} directed edges, hub degree {}",
        cm.num_qubits(),
        cm.num_edges(),
        cm.max_degree()
    );

    // swaps(π): how many SWAPs each state permutation costs (Eq. 5),
    // every SWAP weighing 1.
    let unit: Vec<_> = cm
        .undirected_edges()
        .into_iter()
        .map(|(a, b)| (a, b, 1))
        .collect();
    let table = CostedSwapTable::for_weighted_edges(cm.num_qubits(), &unit);
    let worst = table
        .cheaper_than(None)
        .last()
        .map_or(0, |&(swaps, _)| swaps);
    println!(
        "  {} realizable permutations, worst case {worst} SWAPs\n",
        table.len()
    );

    // A small circuit that cannot run as-is: q0 interacts with everyone.
    let mut circuit = Circuit::new(4).named("quickstart");
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.cx(0, 2);
    circuit.cx(0, 3);
    circuit.t(3);
    circuit.cx(2, 3);
    println!("Original ({} gates):\n{circuit}", circuit.original_cost());

    // One request, one report: the portfolio engine runs a cheap
    // heuristic, seeds the exact SAT search with its cost, and comes back
    // with a provably minimal mapping.
    let request = MapRequest::new(circuit.clone(), cm.clone());
    let report = Portfolio::new().run(&request)?;

    println!(
        "Minimal mapping via {}: {} — proved optimal: {}",
        report.engine, report.cost, report.proved_optimal
    );
    println!("  initial layout: {}", report.initial_layout);
    println!("  final layout:   {}", report.final_layout);
    if let Some(subset) = &report.subset {
        println!("  physical qubits used: {subset:?}");
    }
    println!(
        "\nMapped ({} gates):\n{}",
        report.mapped_cost(),
        report.mapped
    );

    // Every CNOT in the output respects the coupling map.
    report.verify(&circuit, &cm)?;
    println!("verified: output is hardware-legal and cost-consistent");
    Ok(())
}

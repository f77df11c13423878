//! Window-decomposed mapping: past the 8-qubit wall of the exact method.
//!
//! The paper's exact SAT formulation is exhaustive over physical
//! permutations and stops being practical beyond
//! [`qxmap_core::MAX_EXACT_QUBITS`] qubits. This crate trades the global
//! minimality proof for reach: it slices a large circuit into temporal
//! windows of bounded active-qubit count, splits each window into
//! interaction-connected blocks, solves every block *exactly* on a
//! connected subgraph of the device chosen near the block's qubits, and
//! stitches consecutive blocks with SWAP bridges routed on the device's
//! cost-weighted distance matrix.
//!
//! [`WindowedEngine`] is the engine the daemon serves every request
//! through. Past the exact regime it races the stitched answer against
//! the portfolio's heuristic floor (naive and SABRE) and returns the
//! cheaper verified one, so it is never worse than SABRE. Windows are
//! stitched as they are solved, and the stitch stops as soon as its
//! running total can no longer beat the floor. A stitched
//! answer carries a per-window optimality certificate in
//! [`qxmap_map::MapReport::windows`]: each slice is provably minimal for
//! its subcircuit on its subgraph, even though the stitched whole is
//! heuristic.
//!
//! ```
//! use qxmap_arch::devices;
//! use qxmap_circuit::Circuit;
//! use qxmap_map::{Engine, HeuristicEngine, MapRequest};
//! use qxmap_window::WindowedEngine;
//!
//! let mut circuit = Circuit::new(10);
//! for q in 0..9 {
//!     circuit.cx(q, q + 1);
//! }
//! let device = devices::linear(12); // beyond the exact regime
//! let request = MapRequest::new(circuit.clone(), device.clone());
//! let report = WindowedEngine::new().run(&request).unwrap();
//! report.verify(&circuit, &device).unwrap();
//! let sabre = HeuristicEngine::sabre().run(&request).unwrap();
//! assert!(report.cost.objective <= sabre.cost.objective);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bridge;
mod engine;
mod slicer;

pub use engine::{will_window, WindowOptions, WindowedEngine, DEFAULT_WINDOW_QUBITS};

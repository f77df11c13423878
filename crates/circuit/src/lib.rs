//! # qxmap-circuit
//!
//! Quantum circuit intermediate representation used throughout the `qxmap`
//! workspace.
//!
//! The model follows Definition 1 of Wille, Burgholzer & Zulehner,
//! *"Mapping Quantum Circuits to IBM QX Architectures Using the Minimal
//! Number of SWAP and H Operations"* (DAC 2019): a circuit is a sequence of
//! gates, each of which is either a single-qubit gate `U(q_j)` or a
//! controlled-NOT `CNOT(q_c, q_t)`. For practical interoperability the IR
//! additionally models SWAP gates, barriers and measurements, which the
//! mapping algorithms treat transparently.
//!
//! ## Example
//!
//! Build the running example of the paper (Fig. 1a): a 4-qubit circuit with
//! 8 gates.
//!
//! ```
//! use qxmap_circuit::Circuit;
//!
//! let mut c = Circuit::new(4);
//! c.cx(2, 3); // g1
//! c.h(2);
//! c.t(0);
//! c.cx(0, 1); // g2
//! c.h(1);
//! c.cx(1, 2); // g3
//! c.cx(0, 2); // g4
//! c.cx(2, 0); // g5
//! assert_eq!(c.num_qubits(), 4);
//! assert_eq!(c.num_cnots(), 5);
//! assert_eq!(c.num_single_qubit_gates(), 3);
//! assert_eq!(c.original_cost(), 8);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod circuit;
mod dag;
mod draw;
mod gate;
mod hash;
mod interaction;
mod layers;
mod skeleton;

pub use circuit::{paper_example, Circuit, CircuitError, CircuitStats};
pub use dag::{Dag, DagNode};
pub use draw::draw;
pub use gate::{Gate, GateTag, OneQubitKind};
pub use hash::Fnv1a;
pub use interaction::InteractionGraph;
pub use layers::{asap_layers, sequential_layers, Layer};
pub use skeleton::{CircuitSkeleton, SkeletonBuilder};

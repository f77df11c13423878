//! # qxmap-arch
//!
//! Device models for IBM QX architectures and the routing substrate shared
//! by the exact and heuristic mappers of the `qxmap` workspace:
//!
//! * [`CouplingMap`] — the directed CNOT-constraint graph of Definition 2.
//! * [`DeviceModel`] — **the authoritative device/cost layer**: a coupling
//!   map plus per-edge directed costs (CNOT / SWAP / 4-H reversal,
//!   defaulting to the paper's 7-and-4 model, calibration overrides
//!   accepted), precomputed hop and cost-weighted distance matrices,
//!   scheduler statistics, and a stable content fingerprint used as the
//!   device identity in cache keys. Exact and heuristic engines read every
//!   cost from here instead of re-deriving their own.
//! * [`devices`] — IBM QX2 / QX4 / QX5 / Tokyo plus a topology library of
//!   synthetic generators (linear, ring, grid, star, heavy-hex, complete),
//!   all reachable by name via [`devices::by_name`].
//! * [`Permutation`] — elements of the symmetric group on physical qubits.
//! * [`CostedSwapTable`] — the one `swaps(π)` table: minimal SWAP costs
//!   *and* witness SWAP sequences for every permutation realizable on a
//!   coupling (sub)graph, computed by exhaustive search over the
//!   permutation group as the paper prescribes ("determined … by using an
//!   exhaustive search"). Edges weigh their SWAP's elementary-gate cost,
//!   or 1 for the paper's plain counts. Exact solves price permutations
//!   with it, served by [`DeviceModel::costed_table`] from one
//!   process-wide LRU of 64 entries keyed by the weighted local topology.
//! * [`connected_subsets`] — the Section 4.1 physical-qubit subset
//!   enumeration with the isolation filter, and
//!   [`subset_representatives`], which keeps one subset per class of
//!   equally priced isomorphic subsets.
//! * [`Layout`] — a (partial) assignment of logical to physical qubits.
//! * [`route`] — emitting hardware-legal SWAP decompositions and
//!   direction-reversed CNOTs (Fig. 3), with the paper's 7/4 cost model.
//!
//! ```
//! use qxmap_arch::{devices, CostedSwapTable};
//!
//! let qx4 = devices::ibm_qx4();
//! assert_eq!(qx4.num_qubits(), 5);
//! // p3 (index 2) is the hub: it may target p1 and p2 and is targeted by p4, p5.
//! assert!(qx4.has_edge(2, 0));
//! let table = CostedSwapTable::new(&qx4);
//! // 120 permutations of 5 qubits are all realizable on a connected graph.
//! assert_eq!(table.len(), 120);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
mod coupling;
pub mod devices;
pub mod errors;
mod layout;
mod model;
mod perm;
pub mod route;
mod subsets;
mod swaps;

pub use coupling::{CouplingError, CouplingMap};
pub use layout::{Layout, LayoutError};
pub use model::{DeviceModel, DeviceStats};
pub use perm::Permutation;
pub use route::CostModel;
pub use subsets::{connected_subsets, subset_representatives};
pub use swaps::CostedSwapTable;

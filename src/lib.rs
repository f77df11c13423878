//! # qxmap — Mapping Quantum Circuits to IBM QX Architectures Using the
//! Minimal Number of SWAP and H Operations
//!
//! A complete Rust reproduction of Wille, Burgholzer & Zulehner (DAC
//! 2019): exact, SAT-based qubit mapping with provably minimal SWAP/H
//! insertion cost, the paper's performance optimizations, the heuristic
//! baselines it compares against, and every substrate required to run the
//! evaluation end to end — circuit IR, OpenQASM 2.0, device models, a
//! CDCL SAT solver with objective minimization, a statevector simulator,
//! and the benchmark workloads.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`circuit`] | `qxmap-circuit` | circuit IR, layers, DAG, drawing |
//! | [`arch`] | `qxmap-arch` | coupling maps, devices, permutations, `swaps(π)` tables, layouts, routing |
//! | [`sat`] | `qxmap-sat` | CDCL solver, encodings, totalizer, minimizer |
//! | [`core`] | `qxmap-core` | the exact mapper (the paper's contribution) |
//! | [`qasm`] | `qxmap-qasm` | OpenQASM 2.0 parser/writer |
//! | [`heuristic`] | `qxmap-heuristic` | stochastic-swap / A* / SABRE / naive baselines |
//! | [`map`] | `qxmap-map` | **the unified mapping surface**: `MapRequest` → `MapReport` over every engine, portfolio runner, cached `map_one` entry point |
//! | [`window`] | `qxmap-window` | window-decomposed mapping past the 8-qubit wall: slice → exact-solve → stitch, with per-window certificates |
//! | [`serve`] | `qxmap-serve` | **the serving tier**: mapping daemon, JSON wire protocol, solve-cache journal |
//! | [`sim`] | `qxmap-sim` | statevector simulation & equivalence checking |
//! | [`benchmarks`] | `qxmap-benchmarks` | Table 1 profiles, generators, `.real` parser |
//!
//! ## Quickstart
//!
//! Map the paper's running example (Fig. 1a) to IBM QX4 through the
//! unified surface. The portfolio engine runs a cheap heuristic, seeds
//! the exact SAT search with its cost, and returns a provably minimal
//! result whenever the device is in the exact method's regime:
//!
//! ```
//! use qxmap::arch::devices;
//! use qxmap::circuit::paper_example;
//! use qxmap::map::{Engine, MapRequest, Portfolio};
//!
//! let request = MapRequest::new(paper_example(), devices::ibm_qx4());
//! let report = Portfolio::new().run(&request)?;
//! assert_eq!(report.cost.objective, 4); // Example 7 of the paper
//! assert!(report.proved_optimal);
//! println!("{}", report.mapped);
//! # Ok::<(), qxmap::map::MapperError>(())
//! ```
//!
//! Each call maps one request; [`map::map_one`] answers repeats, and
//! relabeled-register equivalents, from the process-wide solve cache.
//! The repository-level `GUIDE.md` walks the whole surface — quickstart,
//! guarantees, deadlines, many requests, caching — and its snippets compile
//! as this crate's doctests (see the hidden `guide` module), so the
//! guide cannot drift from the API.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use qxmap_arch as arch;
pub use qxmap_benchmarks as benchmarks;
pub use qxmap_circuit as circuit;
pub use qxmap_core as core;
pub use qxmap_heuristic as heuristic;
pub use qxmap_map as map;
pub use qxmap_qasm as qasm;
pub use qxmap_sat as sat;
pub use qxmap_serve as serve;
pub use qxmap_sim as sim;
pub use qxmap_window as window;

/// `GUIDE.md`, compiled: every ```rust snippet in the user guide runs as
/// a doctest of this crate, so `cargo test --doc` fails on guide drift.
#[cfg(doctest)]
#[doc = include_str!("../GUIDE.md")]
pub mod guide_doctests {}

/// `README.md`, compiled: the README's quickstart runs as a doctest of
/// this crate, so `cargo test --doc` fails on README drift.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub mod readme_doctests {}

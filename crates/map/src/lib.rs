//! # qxmap-map — the unified mapping surface
//!
//! The exact SAT-based method and the heuristic baselines answer the same
//! question — *map this circuit onto this coupling graph with as little
//! SWAP/H insertion as possible* — but historically exposed incompatible
//! APIs (`ExactMapper::map(&Circuit)` with the device bound at
//! construction versus `Mapper::map(&Circuit, &CouplingMap)`). This crate
//! redesigns the public surface around three types:
//!
//! * [`MapRequest`] — a builder bundling the circuit, device, cost model
//!   and [`MapOptions`] ([`Guarantee`] level, permutation strategy,
//!   budgets, seed — the same options a [`CacheProbe`] carries);
//! * [`MapReport`] — one uniform answer: the hardware circuit, both
//!   layouts, a [`CostBreakdown`], a `proved_optimal` certificate, the
//!   runtime and the engine that produced it;
//! * [`MapperError`] — one error type, with `From` conversions from both
//!   legacy error enums.
//!
//! Every request answers under one [`qxmap_arch::DeviceModel`] — the
//! workspace's single authority on per-edge costs, precomputed distances
//! and the device fingerprint ([`MapRequest::for_model`] /
//! [`MapRequest::with_device_model`] attach calibration-aware models; the
//! default is the paper's uniform 7/4 accounting). Every mapping method
//! implements the [`Engine`] trait: the exact solver ([`ExactEngine`],
//! whose per-subset subinstances solve on a parallel worker pool and read
//! their SAT objective weights from the model), all four baselines
//! ([`HeuristicEngine`]), and the [`Portfolio`] engine that *races* the
//! heuristics against the exact search on threads — coupled through a
//! shared best-cost bound and cooperative cancellation — transparently
//! falls back to heuristics on devices beyond the exact method's regime,
//! and schedules the pool cost-model-aware: cheap model statistics
//! (all-to-all-ness, directedness) prove some baselines dominated, and
//! those never start. Requests carry both a
//! conflict budget and a wall-clock [`MapRequest::with_deadline`]; when a
//! budget fires, the race answers with the best verified result in hand
//! and [`MapReport::winner`] names the engine that produced it.
//! [`map_many`] batches requests across std threads, deduplicating
//! identical subcircuits against the process-wide [`SolveCache`] — a
//! bounded LRU of verified reports keyed by the circuit's canonical
//! (qubit-relabel-invariant) skeleton, the device's coupling graph, the
//! request options and the budget class. Repeated requests, including
//! relabeled-register equivalents, are answered in microseconds with
//! [`MapReport::served_from_cache`] set ([`Engine::run_cached`] is the
//! single-request entry). Below it, exact solves read their
//! cost-weighted `swaps(π)` tables from the process-wide LRU behind
//! [`qxmap_arch::DeviceModel::costed_table`], keyed by the weighted local
//! topology.
//!
//! ## Quickstart
//!
//! ```
//! use qxmap_arch::devices;
//! use qxmap_circuit::paper_example;
//! use qxmap_map::{Engine, MapRequest, Portfolio};
//!
//! let request = MapRequest::new(paper_example(), devices::ibm_qx4());
//! let report = Portfolio::new().run(&request)?;
//! assert_eq!(report.cost.objective, 4); // Example 7 of the paper
//! assert!(report.proved_optimal);
//! println!("{} via {}", report.cost, report.engine);
//! # Ok::<(), qxmap_map::MapperError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batch;
mod cache;
mod codec;
mod engine;
mod error;
mod journal;
mod portfolio;
mod report;
mod request;

pub use batch::{map_many, map_many_with};
pub use cache::{CacheProbe, SolveCache, SolveCacheStats, DEFAULT_SOLVE_CACHE_CAPACITY};
pub use codec::JournalError;
pub use engine::{Baseline, Engine, ExactEngine, HeuristicEngine};
pub use error::MapperError;
pub use journal::{
    replay_journal, Journal, JournalReplay, JournalStats, JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use portfolio::Portfolio;
pub use report::{CostBreakdown, MapReport, MappedCircuit, WindowCertificate};
pub use request::{Guarantee, MapOptions, MapRequest};

/// Maps one request with the default [`Portfolio`] engine, answered from
/// the process-wide [`SolveCache`] when the same request (or a
/// relabeled-register equivalent) was solved before — see
/// [`Engine::run_cached`].
///
/// ```
/// use qxmap_arch::devices;
/// use qxmap_circuit::paper_example;
/// use qxmap_map::{map_one, MapRequest};
///
/// let request = MapRequest::new(paper_example(), devices::ibm_qx4());
/// let first = map_one(&request)?;
/// let second = map_one(&request)?;
/// assert_eq!(first.cost, second.cost);
/// assert!(second.served_from_cache);
/// assert!(second.winner.starts_with("cache/"));
/// # Ok::<(), qxmap_map::MapperError>(())
/// ```
///
/// # Errors
///
/// Propagates the engine's [`MapperError`].
pub fn map_one(request: &MapRequest) -> Result<MapReport, MapperError> {
    Portfolio::new().run_cached(request)
}

/// Probes the process-wide [`SolveCache`] for an already-solved answer
/// under the default [`Portfolio`] engine's signature — the
/// skeleton-first warm path's entry point. The probe carries only the
/// circuit's canonical [`qxmap_circuit::CircuitSkeleton`] (computable in
/// the same pass that parses the QASM text or QXBC bytes), so a hit is
/// served without ever materializing a [`qxmap_circuit::Circuit`]; a
/// miss returns `None` and the caller falls through to [`map_one`],
/// which probes exactly the same key before solving. See
/// [`CacheProbe`] for an end-to-end example.
pub fn probe_one(probe: &CacheProbe) -> Option<MapReport> {
    SolveCache::shared().probe(&Portfolio::new().cache_signature(), probe)
}

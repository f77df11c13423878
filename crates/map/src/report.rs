//! The unified mapping report.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use qxmap_arch::{CouplingMap, Layout};
use qxmap_circuit::Circuit;
use qxmap_core::verify::{self, VerifyError};
use qxmap_core::{MappingResult, SolveTrace};
use qxmap_heuristic::HeuristicResult;

/// Where the insertion cost of a mapping went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBreakdown {
    /// The modelled objective `F = swap·#SWAP + reverse·#reversal`
    /// (Eq. 5 of the paper under the request's cost model).
    pub objective: u64,
    /// SWAP operations inserted.
    pub swaps: u32,
    /// Direction-reversed CNOTs (repaired with 4 H each).
    pub reversals: u32,
    /// Gates actually added relative to the (SWAP-decomposed) input.
    pub added_gates: u64,
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "F = {} ({} SWAPs, {} reversals, {} gates added)",
            self.objective, self.swaps, self.reversals, self.added_gates
        )
    }
}

/// The mapped circuit of a [`MapReport`]: a shared handle that derefs to
/// the [`Circuit`] and clones by bumping a reference count.
///
/// A solve's report, the [`crate::SolveCache`] entry that stores it and
/// every hit served from that entry hold one circuit. The mapped circuit
/// is on physical qubits, so a hit for relabeled registers serves it
/// unchanged (only the layouts are translated), and its QASM text is
/// shared the same way: rendered by the first [`MappedCircuit::qasm`]
/// call on any handle, reused by every later one.
#[derive(Clone)]
pub struct MappedCircuit(Arc<Mapped>);

struct Mapped {
    circuit: Circuit,
    qasm: OnceLock<String>,
}

impl MappedCircuit {
    /// The circuit's OpenQASM text, rendered by `emit` on the first call
    /// on any handle to this circuit and returned as stored afterwards.
    /// `emit` is `qxmap_qasm::to_qasm` (this crate does not link the
    /// QASM writer); every caller must pass the same function.
    pub fn qasm(&self, emit: impl FnOnce(&Circuit) -> String) -> &str {
        self.0.qasm.get_or_init(|| emit(&self.0.circuit))
    }

    /// The length of the rendered QASM text, once some caller rendered it.
    pub(crate) fn qasm_len(&self) -> Option<usize> {
        self.0.qasm.get().map(String::len)
    }
}

impl From<Circuit> for MappedCircuit {
    fn from(circuit: Circuit) -> MappedCircuit {
        MappedCircuit(Arc::new(Mapped {
            circuit,
            qasm: OnceLock::new(),
        }))
    }
}

impl Deref for MappedCircuit {
    type Target = Circuit;

    fn deref(&self) -> &Circuit {
        &self.0.circuit
    }
}

impl PartialEq for MappedCircuit {
    fn eq(&self, other: &MappedCircuit) -> bool {
        self.0.circuit == other.0.circuit
    }
}

impl fmt::Debug for MappedCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.circuit.fmt(f)
    }
}

impl fmt::Display for MappedCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.circuit.fmt(f)
    }
}

/// Per-window provenance of one slice of a window-decomposed solve.
///
/// A windowed engine (e.g. `qxmap_window::WindowedEngine`) breaks a
/// large circuit into interaction-connected blocks, exact-solves each on
/// the device subgraph it was placed on, and stitches the pieces with
/// SWAP bridges. The stitched [`MapReport`] carries no *global*
/// minimality proof, but each window's local solve does produce one —
/// this record preserves it, together with where the window ran and what
/// stitching into it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowCertificate {
    /// Position of the window in solve order (0-based).
    pub index: usize,
    /// The *logical* qubits (original circuit indices) active in this
    /// window.
    pub qubits: Vec<usize>,
    /// The physical qubits (full-device indices) of the connected
    /// subgraph the window was solved on.
    pub region: Vec<usize>,
    /// Costed gates of the original circuit that fell into this window.
    pub gates: usize,
    /// The window's local objective under the request's device model
    /// (bridging excluded — see [`WindowCertificate::bridge_cost`]).
    pub objective: u64,
    /// Whether the window's local solve carries a minimality proof for
    /// its subcircuit on its subgraph — the per-window certificate.
    pub proved_optimal: bool,
    /// Whether the window's solve was answered from the
    /// [`crate::SolveCache`] (windows probe it by their own skeleton
    /// fingerprint).
    pub served_from_cache: bool,
    /// The engine that won the window's local race (e.g.
    /// `portfolio/exact`).
    pub engine: String,
    /// SWAPs the bridge into this window inserted (0 for the first
    /// window — its qubits materialize in place).
    pub bridge_swaps: u32,
    /// Modeled cost of this window's bridge SWAPs under the request's
    /// device model.
    pub bridge_cost: u64,
}

/// One uniform answer to a [`crate::MapRequest`], whichever engine
/// produced it.
#[derive(Debug, Clone)]
pub struct MapReport {
    /// Short name of the engine that produced this result (e.g. `exact`,
    /// `sabre`, `portfolio/exact`).
    pub engine: String,
    /// The engine that actually won the race, without any composite
    /// prefix: for a `portfolio/exact` report this is `exact`; for
    /// single-engine runs it equals [`MapReport::engine`]. Cache-served
    /// answers are marked with a `cache/` prefix (e.g. `cache/exact`), so
    /// the winner always names who did the work *for this request*.
    pub winner: String,
    /// The hardware-legal output circuit, shared with the cache entry
    /// and the hits that serve it (see [`MappedCircuit`]).
    pub mapped: MappedCircuit,
    /// Logical→physical layout before the first gate.
    pub initial_layout: Layout,
    /// Logical→physical layout after the last gate.
    pub final_layout: Layout,
    /// Cost of the insertion, broken down.
    pub cost: CostBreakdown,
    /// Whether the reported cost is provably minimal for the requested
    /// formulation — the paper's headline certificate.
    pub proved_optimal: bool,
    /// Wall-clock time the *winning engine* spent on its own run — for a
    /// cache-served answer, the time the original solve spent, preserved
    /// so the report still says what the result cost to produce.
    pub runtime: Duration,
    /// Wall-clock time of the whole request, racing included — what the
    /// caller actually waited. Always at least [`MapReport::runtime`] for
    /// composite engines and equal to it for single-engine runs — except
    /// on a cache hit, where it is the (near-zero) lookup time, not the
    /// original solve's wall-clock.
    pub elapsed: Duration,
    /// Whether this answer came from the process-wide
    /// [`crate::SolveCache`] instead of a fresh solve. Cache-served
    /// reports also carry a `cache/` prefix on [`MapReport::winner`].
    pub served_from_cache: bool,
    /// Physical qubits the mapping was restricted to (exact engines with
    /// the Section 4.1 optimization).
    pub subset: Option<Vec<usize>>,
    /// Number of permutation points `|G'|` (exact engines).
    pub num_change_points: Option<usize>,
    /// Solver iterations spent in minimization (exact engines).
    pub iterations: Option<u32>,
    /// Per-window provenance and optimality certificates of a
    /// window-decomposed solve, in stitch order. `None` for monolithic
    /// engines.
    pub windows: Option<Vec<WindowCertificate>>,
    /// The request's phase timeline, when it carried an enabled
    /// [`crate::MapRequest::with_trace`] recorder — the race spans,
    /// per-subset solver internals and window/bridge spans of *this*
    /// run. `None` for untraced requests, and always `None` on reports
    /// stored in (or served from) the [`crate::SolveCache`]: a cache hit
    /// reports its own lookup, not the original solve's timeline.
    pub trace: Option<SolveTrace>,
}

impl MapReport {
    /// The mapped circuit's total operation count (the paper's column
    /// `c`).
    pub fn mapped_cost(&self) -> usize {
        self.mapped.original_cost()
    }

    /// Structural verification against the original circuit and device:
    /// every CNOT coupling-legal, no residual SWAPs, and the added-gate
    /// accounting consistent.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found.
    pub fn verify(&self, original: &Circuit, cm: &CouplingMap) -> Result<(), VerifyError> {
        verify::check_coupling(&self.mapped, cm)?;
        let original_cost = original.decompose_swaps().original_cost() as u64;
        // A mapped circuit smaller than its input is itself a mismatch the
        // checker must report, not underflow on.
        let recounted = (self.mapped.original_cost() as u64).checked_sub(original_cost);
        if recounted != Some(self.cost.added_gates) {
            return Err(VerifyError::CostMismatch {
                reported: self.cost.added_gates,
                recounted: recounted.unwrap_or(0),
            });
        }
        Ok(())
    }

    /// Builds a report from an exact-engine result.
    pub(crate) fn from_exact(result: MappingResult, engine: &str) -> MapReport {
        MapReport {
            engine: engine.to_string(),
            winner: engine.to_string(),
            cost: CostBreakdown {
                objective: result.cost,
                swaps: result.swaps,
                reversals: result.reversals,
                added_gates: result.added_gates,
            },
            proved_optimal: result.proved_optimal,
            runtime: result.runtime,
            elapsed: result.runtime,
            served_from_cache: false,
            subset: Some(result.subset),
            num_change_points: Some(result.num_change_points),
            iterations: Some(result.iterations),
            windows: None,
            trace: None,
            mapped: result.mapped.into(),
            initial_layout: result.initial_layout,
            final_layout: result.final_layout,
        }
    }

    /// Builds a report from a heuristic result; the objective is the
    /// result's per-edge price under the run's device model. Only a
    /// zero-objective result is claimed optimal: costs are non-negative,
    /// so nothing beats 0 — whereas a zero-*insertion* run can still pay
    /// calibration overheads (dear CNOT edges, reversal surcharges) that
    /// a better layout avoids, so `added_gates == 0` alone certifies
    /// nothing.
    pub(crate) fn from_heuristic(result: HeuristicResult, engine: &str) -> MapReport {
        let objective = result.model_cost;
        MapReport {
            engine: engine.to_string(),
            winner: engine.to_string(),
            cost: CostBreakdown {
                objective,
                swaps: result.swaps,
                reversals: result.reversals,
                added_gates: result.added_gates,
            },
            proved_optimal: objective == 0,
            runtime: result.runtime,
            elapsed: result.runtime,
            served_from_cache: false,
            subset: None,
            num_change_points: None,
            iterations: None,
            windows: None,
            trace: None,
            mapped: result.mapped.into(),
            initial_layout: result.initial_layout,
            final_layout: result.final_layout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_breakdown_renders_all_fields() {
        let c = CostBreakdown {
            objective: 11,
            swaps: 1,
            reversals: 1,
            added_gates: 11,
        };
        let s = c.to_string();
        assert!(s.contains("F = 11"));
        assert!(s.contains("1 SWAPs"));
        assert!(s.contains("1 reversals"));
    }
}

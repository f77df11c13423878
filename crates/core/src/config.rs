//! Mapper configuration, the shared solve-control handle, and errors.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qxmap_arch::CostModel;
use qxmap_sat::MinimizeOptions;

use crate::bound::SharedBound;
use crate::strategy::Strategy;
use crate::trace::SpanRecorder;

/// A handle shared between a mapping run and whoever supervises it
/// (other engines racing it, a batch driver, a caller with a kill
/// switch). Clones share the same state.
///
/// It carries two things:
///
/// * a **cancel flag** — once [`SolveControl::cancel`] is called, every
///   solver and encoding build holding this handle winds down at its
///   next check and the run reports budget exhaustion;
/// * a **shared upper bound** ([`SharedBound`]) — achievable costs the
///   *supervisor* holds results for (e.g. a racing heuristic's, the
///   moment it finishes). The exact mapper reads it before every
///   subinstance, pruning subsets that cannot improve on it; it never
///   writes it, so the handle's state is exactly what its holder put
///   there.
///
/// Whoever tightens the bound asserts that a result of that cost is
/// actually in hand: solves pruned by it report honestly (a refutation
/// against the bound is a proof only down to the bound, and a run whose
/// own best is worse than the bound forfeits its optimality claim).
#[derive(Debug, Clone, Default)]
pub struct SolveControl {
    cancel: Arc<AtomicBool>,
    bound: SharedBound,
}

impl SolveControl {
    /// A fresh handle: not cancelled, unbounded.
    pub fn new() -> SolveControl {
        SolveControl::default()
    }

    /// Asks every participating solve to stop at its next check.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether [`SolveControl::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The shared upper bound.
    pub fn bound(&self) -> &SharedBound {
        &self.bound
    }

    /// The raw cancel flag as a shareable atomic handle — the form
    /// engines outside the SAT stack (e.g. heuristic trial loops) poll
    /// between units of work. Reading the handle is equivalent to
    /// [`SolveControl::is_cancelled`]; storing `true` is equivalent to
    /// [`SolveControl::cancel`].
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }
}

/// Configuration of the exact mapper.
///
/// The default reproduces the paper's Section 3 method: permutations
/// allowed before every gate, no subset restriction, the 7/4 cost model,
/// and unbounded linear-descent minimization.
///
/// ```
/// use qxmap_core::{MapperConfig, Strategy};
///
/// let cfg = MapperConfig::minimal();
/// assert_eq!(cfg.strategy, Strategy::BeforeEveryGate);
/// assert!(!cfg.use_subsets);
/// let fast = MapperConfig::minimal()
///     .with_strategy(Strategy::DisjointQubits)
///     .with_subsets(true);
/// assert!(fast.use_subsets);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MapperConfig {
    /// Where layout permutations are allowed (Section 4.2).
    pub strategy: Strategy,
    /// Whether to iterate over connected physical-qubit subsets of size `n`
    /// when `n < m` (Section 4.1). Preserves minimality.
    pub use_subsets: bool,
    /// Cost accounting for inserted operations.
    pub cost_model: CostModel,
    /// Objective-minimization budget and bound. With the subset
    /// optimization enabled, the conflict budget is a *total* shared
    /// across all per-subset subinstances (enforced through one atomic
    /// pool even when they solve in parallel), not a per-subset allowance.
    pub minimize: MinimizeOptions,
    /// Wall-clock budget for the whole `map` call. When it fires, the
    /// best mapping found so far is returned with `proved_optimal =
    /// false` (or `MapError::BudgetExhausted` if none was found yet).
    /// Checked cooperatively — at solver conflicts and between encoding
    /// phases — so a run overshoots the deadline by at most one such
    /// step.
    pub deadline: Option<Duration>,
    /// Worker threads for the per-subset solves (`None` = the machine's
    /// available parallelism, capped by the number of subsets). The
    /// workers share the conflict budget and the upper bound, so more
    /// threads never search more than the sequential loop would.
    pub solve_threads: Option<usize>,
    /// Cancellation and shared-bound handle. Give several concurrent
    /// runs clones of one handle to let them prune (and stop) each
    /// other; the default handle is private to this configuration.
    pub control: SolveControl,
    /// Trace recorder for per-subset encode/minimize spans
    /// ([`crate::trace`]). Defaults to the disabled recorder, whose
    /// recording calls are free no-ops.
    pub trace: SpanRecorder,
}

impl MapperConfig {
    /// The guaranteed-minimal configuration of Section 3.
    pub fn minimal() -> MapperConfig {
        MapperConfig::default()
    }

    /// Sets the permutation-site strategy (builder style).
    pub fn with_strategy(mut self, strategy: Strategy) -> MapperConfig {
        self.strategy = strategy;
        self
    }

    /// Enables/disables the subset optimization (builder style).
    pub fn with_subsets(mut self, on: bool) -> MapperConfig {
        self.use_subsets = on;
        self
    }

    /// Sets the cost model (builder style).
    pub fn with_cost_model(mut self, cost_model: CostModel) -> MapperConfig {
        self.cost_model = cost_model;
        self
    }

    /// Sets the minimization options (builder style).
    pub fn with_minimize(mut self, minimize: MinimizeOptions) -> MapperConfig {
        self.minimize = minimize;
        self
    }

    /// Attaches a trace recorder: per-subset encoding and minimization
    /// spans (build time, conflicts, interrupt cause) land on it
    /// (builder style).
    pub fn with_trace(mut self, trace: SpanRecorder) -> MapperConfig {
        self.trace = trace;
        self
    }

    /// Sets the wall-clock deadline (builder style).
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> MapperConfig {
        self.deadline = deadline;
        self
    }

    /// Sets the per-subset worker-thread count (builder style).
    pub fn with_solve_threads(mut self, threads: Option<usize>) -> MapperConfig {
        self.solve_threads = threads;
        self
    }

    /// Attaches a shared cancellation/bound handle (builder style).
    pub fn with_control(mut self, control: SolveControl) -> MapperConfig {
        self.control = control;
        self
    }

    /// Whether this configuration guarantees a minimal result
    /// (Section 4.2 strategies give up the guarantee, as does any
    /// conflict or wall-clock budget; Section 4.1 and the full method
    /// keep it).
    pub fn guarantees_minimality(&self) -> bool {
        self.strategy == Strategy::BeforeEveryGate
            && self.minimize.conflict_budget.is_none()
            && self.deadline.is_none()
    }
}

/// Errors of the exact mapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The circuit has more logical qubits than the device has physical
    /// qubits.
    TooManyQubits {
        /// Logical qubits required.
        logical: usize,
        /// Physical qubits available.
        physical: usize,
    },
    /// The instance (possibly restricted by a Section 4.2 strategy) admits
    /// no valid mapping.
    Infeasible,
    /// A solve budget — the conflict budget, the wall-clock deadline, or
    /// an external cancellation — ran out before any mapping was found.
    BudgetExhausted,
    /// The exact method is exhaustive over permutations; devices (or
    /// subsets) beyond this size are out of its intended regime.
    DeviceTooLarge {
        /// Qubits in the (sub)device.
        qubits: usize,
        /// The supported maximum.
        max: usize,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::TooManyQubits { logical, physical } => {
                qxmap_arch::errors::fmt_too_many_qubits(f, *logical, *physical)
            }
            MapError::Infeasible => {
                write!(f, "no valid mapping exists under the chosen restrictions")
            }
            MapError::BudgetExhausted => {
                write!(
                    f,
                    "the solve budget (conflicts or deadline) ran out before a mapping was found"
                )
            }
            MapError::DeviceTooLarge { qubits, max } => write!(
                f,
                "exact mapping enumerates all qubit permutations; {qubits} qubits exceeds the supported {max}"
            ),
        }
    }
}

impl Error for MapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_minimal() {
        assert!(MapperConfig::default().guarantees_minimality());
        assert!(MapperConfig::minimal().guarantees_minimality());
    }

    #[test]
    fn strategies_lose_guarantee() {
        let cfg = MapperConfig::minimal().with_strategy(Strategy::OddGates);
        assert!(!cfg.guarantees_minimality());
        // Subsets alone keep it.
        let cfg = MapperConfig::minimal().with_subsets(true);
        assert!(cfg.guarantees_minimality());
    }

    #[test]
    fn budget_loses_guarantee() {
        let cfg = MapperConfig::minimal().with_minimize(qxmap_sat::MinimizeOptions {
            conflict_budget: Some(100),
            ..Default::default()
        });
        assert!(!cfg.guarantees_minimality());
    }

    #[test]
    fn error_messages() {
        let e = MapError::TooManyQubits {
            logical: 6,
            physical: 5,
        };
        assert!(e.to_string().contains("6 logical"));
        assert!(MapError::Infeasible
            .to_string()
            .contains("no valid mapping"));
        let e = MapError::DeviceTooLarge { qubits: 16, max: 8 };
        assert!(e.to_string().contains("16"));
    }
}

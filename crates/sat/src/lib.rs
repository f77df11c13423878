//! # qxmap-sat
//!
//! A self-contained reasoning engine: a conflict-driven clause-learning
//! (CDCL) SAT solver with cardinality / pseudo-Boolean encodings and a
//! weighted objective minimizer.
//!
//! The paper solves its symbolic mapping formulation with Z3, used purely
//! as a "satisfiability with an objective function" oracle (Definition 3).
//! This crate provides the same oracle from scratch:
//!
//! * [`Solver`] — CDCL with two-watched-literal propagation, VSIDS
//!   branching, first-UIP learning with clause minimization, phase saving,
//!   Luby restarts, activity-based learnt-clause deletion and incremental
//!   solving under assumptions. Searches are cooperatively boundable:
//!   besides the per-call conflict budget, a solver can carry a wall-clock
//!   deadline, a shared interrupt flag, and a conflict pool shared with
//!   other solvers (one atomic drawn from per conflict) — the primitives
//!   behind `qxmap`'s parallel per-subset solves and racing portfolio.
//! * [`encode`] — at-most-one / exactly-one / cardinality encodings.
//! * [`totalizer`] — a *generalized totalizer* for weighted sums given as
//!   at-most-one groups (one leaf per group), whose output literals can be
//!   assumed to bound the objective incrementally.
//! * [`optimize`] — model-improving minimization of `F = Σ wᵢ·ℓᵢ`
//!   (Definition 3's extended interpretation).
//! * [`brute`] — an exhaustive reference solver used by the test suite.
//!
//! ## Example
//!
//! ```
//! use qxmap_sat::{Lit, SolveResult, Solver};
//!
//! // Example 4 of the paper: Φ = (x1+x2+¬x3)(¬x1+x3)(¬x2+x3).
//! let mut s = Solver::new();
//! let x1 = s.new_lit();
//! let x2 = s.new_lit();
//! let x3 = s.new_lit();
//! s.add_clause([x1, x2, !x3]);
//! s.add_clause([!x1, x3]);
//! s.add_clause([!x2, x3]);
//! let SolveResult::Sat(model) = s.solve() else { panic!("satisfiable") };
//! // any model satisfies all three clauses
//! assert!(model.value(x1) & model.value(x3) | !model.value(x1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod encode;
mod lit;
pub mod optimize;
mod solver;
pub mod totalizer;

pub use lit::{Lit, Var};
pub use optimize::{minimize, MinimizeError, MinimizeOptions, Minimum};
pub use solver::{Model, SolveResult, Solver, SolverStats, StopCause};

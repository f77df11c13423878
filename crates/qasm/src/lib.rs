//! # qxmap-qasm
//!
//! OpenQASM 2.0 front- and back-end for `qxmap` circuits. The benchmark
//! circuits the paper evaluates (RevLib functions decomposed to the IBM
//! basis, per reference \[4\] — Cross et al., "Open Quantum Assembly
//! Language") are distributed as QASM; this crate parses that dialect into
//! the [`qxmap_circuit::Circuit`] IR and serializes circuits back out.
//!
//! Supported: `OPENQASM 2.0` headers, `qreg`/`creg`, `include
//! "qelib1.inc"` (resolved against an embedded copy of the standard
//! library), hierarchical `gate` definitions with parameter expressions
//! (π-arithmetic, `sin`/`cos`/`tan`/`exp`/`ln`/`sqrt`, `^`), the builtin
//! `U`/`CX`, register broadcasting, `barrier` and `measure`.
//! `if`/`reset`/`opaque` applications are rejected with a clear error (the
//! mapping IR is purely unitary plus terminal measurement).
//!
//! ## One parser, two walks
//!
//! A source is tokenized whole, then parsed by one recursive-descent
//! parser that hands each statement to a sink instead of returning a
//! tree. [`Parsed::new`] walks the tokens once to check the syntax and
//! record the declarations; [`Parsed::to_circuit`] and
//! [`Parsed::to_skeleton`] walk them again, emitting gates straight into
//! a [`Circuit`] or a skeleton builder. So a register or gate may be used
//! before its declaration, and errors rank as they always have: lex,
//! then syntax, then register overflow, then conversion in program
//! order. No walk builds a tree. A parameter expression is evaluated
//! where it is parsed, and a gate body is kept as its run of tokens,
//! parsed again with the call's arguments bound each time the gate is
//! called.
//!
//! ## Example
//!
//! ```
//! let source = r#"
//!     OPENQASM 2.0;
//!     include "qelib1.inc";
//!     qreg q[3];
//!     creg c[3];
//!     h q[0];
//!     ccx q[0], q[1], q[2];
//!     measure q[0] -> c[0];
//! "#;
//! let circuit = qxmap_qasm::parse(source)?;
//! assert_eq!(circuit.num_qubits(), 3);
//! // The Toffoli inlines to the standard 6-CNOT network.
//! assert_eq!(circuit.num_cnots(), 6);
//! # Ok::<(), qxmap_qasm::ParseQasmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
pub mod hooks;
mod lex;
mod parse;
mod qelib;
mod qxbc;
mod write;

pub use convert::Parsed;
pub use parse::ParseQasmError;
/// [`parse_program`] under its former name, kept as an alias for callers
/// that still use it.
pub use parse_program as parse_program_fast;
pub use qxbc::{
    decode_qxbc, decode_qxbc_skeleton, encode_qxbc, qxbc_num_qubits, QxbcError, QXBC_MAGIC,
    QXBC_VERSION,
};
pub use write::to_qasm;

use qxmap_circuit::{Circuit, CircuitSkeleton};

/// [`Parsed::new`] as a free function: the first walk, syntax and
/// declarations. It and [`to_skeleton`] keep the two-step form that
/// `qxbench/` compiles against and times as `qasm.parse` and
/// `circuit.skeleton`.
///
/// # Errors
///
/// Those of [`Parsed::new`].
pub fn parse_program(source: &str) -> Result<Parsed<'_>, ParseQasmError> {
    Parsed::new(source)
}

/// [`Parsed::to_skeleton`] as a free function: the second walk, straight
/// into the canonical [`CircuitSkeleton`].
///
/// # Errors
///
/// Those of [`Parsed::to_skeleton`].
pub fn to_skeleton(parsed: &Parsed<'_>) -> Result<CircuitSkeleton, ParseQasmError> {
    parsed.to_skeleton()
}

/// Parses OpenQASM 2.0 source into a circuit: [`Parsed::new`], then
/// [`Parsed::to_circuit`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on syntax errors, unknown gates or
/// registers, arity mismatches, or unsupported statements.
pub fn parse(source: &str) -> Result<Circuit, ParseQasmError> {
    Parsed::new(source)?.to_circuit()
}

/// Parses OpenQASM 2.0 source straight to its canonical
/// [`CircuitSkeleton`]: [`Parsed::new`], then [`Parsed::to_skeleton`].
/// No [`Circuit`] is built — the text half of the
/// skeleton-first warm path. Accepts and rejects exactly the sources
/// [`parse`] does, with identical errors.
///
/// # Errors
///
/// Exactly those of [`parse`].
pub fn parse_skeleton(source: &str) -> Result<CircuitSkeleton, ParseQasmError> {
    Parsed::new(source)?.to_skeleton()
}

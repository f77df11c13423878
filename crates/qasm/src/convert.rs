//! Statement stream → circuit conversion with hierarchical gate inlining.
//!
//! Conversion walks a program's tokens twice with the parser. The first
//! walk checks the syntax and records the declarations: each register's
//! offset and size, and each gate definition's body as its run of
//! tokens. The second walk emits gates into a sink — a [`Circuit`] or a
//! [`SkeletonBuilder`] — in program order, so a register or gate may be
//! used before it is declared. A call of a defined gate walks its body's
//! tokens again, with the call's arguments bound.
//!
//! Errors rank in a fixed order: syntax (a lex error first), then
//! register overflow, then conversion errors in program order. The
//! daemon checks the declared width against its device between the
//! last two, before anything is sized by the width.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

use qxmap_circuit::{Circuit, CircuitSkeleton, Gate, OneQubitKind, SkeletonBuilder};

use crate::lex::Token;
use crate::parse::{eval_error, lex, ArgRef, ParseQasmError, Parser, Stmt, Value};

/// A gate definition: its formal names, and the tokens of its body,
/// parsed again on each call.
pub(crate) struct GateDef<'a> {
    params: Vec<&'a str>,
    qargs: Vec<&'a str>,
    body: Vec<Token<'a>>,
}

/// The standard library's gate definitions, parsed once per process.
/// A program flags `include "qelib1.inc";` instead of splicing the
/// library's statements, and conversion falls back to this table, so
/// per-request parsing never pays for the library again.
pub(crate) fn qelib_gates() -> &'static HashMap<&'static str, GateDef<'static>> {
    static TABLE: OnceLock<HashMap<&'static str, GateDef<'static>>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Parsed::new(crate::qelib::QELIB1)
            .expect("the embedded qelib1.inc parses")
            .decls
            .gates
    })
}

/// One kind of register, quantum or classical, laid out contiguously
/// in declaration order.
#[derive(Default)]
struct Registers<'a> {
    /// (name, offset, size) per declared name; a redeclared name keeps
    /// its last layout. Programs declare a register or two, so lookups
    /// scan this list while it holds at most [`Registers::SCAN`] names.
    layouts: Vec<(&'a str, usize, usize)>,
    /// Name → position in `layouts`, for lookups past the scan limit: a
    /// source declaring thousands of registers cannot make conversion
    /// quadratic.
    index: HashMap<&'a str, usize>,
    total: usize,
    /// The first declaration that overflowed the total, with the number
    /// of the statement that made it.
    overflow: Option<(usize, ParseQasmError)>,
}

impl<'a> Registers<'a> {
    const SCAN: usize = 8;

    fn declare(&mut self, name: &'a str, size: usize, statement: usize) {
        let layout = (name, self.total, size);
        match self.index.entry(name) {
            Entry::Occupied(at) => self.layouts[*at.get()] = layout,
            Entry::Vacant(at) => {
                at.insert(self.layouts.len());
                self.layouts.push(layout);
            }
        }
        match self.total.checked_add(size) {
            Some(total) => self.total = total,
            None => {
                self.overflow.get_or_insert_with(|| {
                    let message =
                        format!("register `{name}[{size}]` overflows the total register size");
                    (statement, ParseQasmError::new(None, message))
                });
            }
        }
    }

    /// The declared width, unless a declaration overflowed it.
    fn width(&self) -> Result<usize, ParseQasmError> {
        match &self.overflow {
            Some((_, error)) => Err(error.clone()),
            None => Ok(self.total),
        }
    }

    /// Expands a register argument to its range of global indices —
    /// a range, not a list, so a huge declared register costs nothing
    /// until a gate is emitted on it.
    fn expand(&self, arg: ArgRef<'_>) -> Result<Range<usize>, ParseQasmError> {
        let layout = if self.layouts.len() <= Registers::SCAN {
            self.layouts.iter().find(|l| l.0 == arg.register)
        } else {
            self.index.get(arg.register).map(|&i| &self.layouts[i])
        };
        let &(_, offset, size) = layout.ok_or_else(|| {
            ParseQasmError::new(None, format!("unknown register `{}`", arg.register))
        })?;
        match arg.index {
            Some(i) if i < size => Ok(offset + i..offset + i + 1),
            Some(i) => Err(ParseQasmError::new(
                None,
                format!("index {i} out of range for `{}[{size}]`", arg.register),
            )),
            None => Ok(offset..offset + size),
        }
    }
}

/// What the first walk records.
#[derive(Default)]
struct Declarations<'a> {
    qubits: Registers<'a>,
    clbits: Registers<'a>,
    gates: HashMap<&'a str, GateDef<'a>>,
    qelib: bool,
    /// Statements recorded so far: orders overflows of the two kinds.
    statements: usize,
}

impl<'a> Declarations<'a> {
    fn record(&mut self, stmt: Stmt<'a, '_>) {
        self.statements += 1;
        match stmt {
            Stmt::Qelib => self.qelib = true,
            Stmt::QReg { name, size } => self.qubits.declare(name, size, self.statements),
            Stmt::CReg { name, size } => self.clbits.declare(name, size, self.statements),
            Stmt::Gate {
                name,
                params,
                qargs,
                body,
            } => {
                self.gates.insert(
                    name,
                    GateDef {
                        params,
                        qargs,
                        body: body.to_vec(),
                    },
                );
            }
            _ => {}
        }
    }

    /// The quantum and classical widths, or the first declaration (of
    /// either kind, in statement order) that overflowed its total.
    fn widths(&self) -> Result<(usize, usize), ParseQasmError> {
        let first = [&self.qubits.overflow, &self.clbits.overflow]
            .into_iter()
            .flatten()
            .min_by_key(|(statement, _)| *statement);
        match first {
            Some((_, error)) => Err(error.clone()),
            None => Ok((self.qubits.total, self.clbits.total)),
        }
    }

    /// Emits one concrete gate application, inlining user definitions.
    fn emit(
        &self,
        sink: &mut dyn FnMut(Gate),
        name: &str,
        params: &[f64],
        qubits: &[usize],
        line: usize,
        depth: usize,
    ) -> Result<(), ParseQasmError> {
        if depth > 64 {
            return Err(ParseQasmError::new(
                Some(line),
                format!("gate `{name}` expands too deeply (recursive definition?)"),
            ));
        }
        let arity_err = |expected: usize| {
            ParseQasmError::new(
                Some(line),
                format!("`{name}` expects {expected} qubit(s), got {}", qubits.len()),
            )
        };
        let param_err = |expected: usize| {
            ParseQasmError::new(
                Some(line),
                format!(
                    "`{name}` expects {expected} parameter(s), got {}",
                    params.len()
                ),
            )
        };
        let one = |kind: OneQubitKind| -> Result<Gate, ParseQasmError> {
            if qubits.len() != 1 {
                return Err(arity_err(1));
            }
            Ok(Gate::one(kind, qubits[0]))
        };
        let angles = |n: usize| {
            if params.len() == n {
                Ok(params)
            } else {
                Err(param_err(n))
            }
        };
        let known = match name {
            "U" | "u3" => {
                let p = angles(3)?;
                Some(one(OneQubitKind::U(p[0], p[1], p[2]))?)
            }
            "u2" => {
                let p = angles(2)?;
                Some(one(OneQubitKind::U(
                    std::f64::consts::FRAC_PI_2,
                    p[0],
                    p[1],
                ))?)
            }
            "u1" => Some(one(OneQubitKind::Phase(angles(1)?[0]))?),
            "rx" => Some(one(OneQubitKind::Rx(angles(1)?[0]))?),
            "ry" => Some(one(OneQubitKind::Ry(angles(1)?[0]))?),
            "rz" => Some(one(OneQubitKind::Rz(angles(1)?[0]))?),
            "id" | "u0" => Some(one(OneQubitKind::I)?),
            "x" => Some(one(OneQubitKind::X)?),
            "y" => Some(one(OneQubitKind::Y)?),
            "z" => Some(one(OneQubitKind::Z)?),
            "h" => Some(one(OneQubitKind::H)?),
            "s" => Some(one(OneQubitKind::S)?),
            "sdg" => Some(one(OneQubitKind::Sdg)?),
            "t" => Some(one(OneQubitKind::T)?),
            "tdg" => Some(one(OneQubitKind::Tdg)?),
            "CX" | "cx" => {
                if qubits.len() != 2 {
                    return Err(arity_err(2));
                }
                if qubits[0] == qubits[1] {
                    return Err(ParseQasmError::new(
                        Some(line),
                        "cx control and target coincide",
                    ));
                }
                Some(Gate::cnot(qubits[0], qubits[1]))
            }
            "swap" => {
                if qubits.len() != 2 {
                    return Err(arity_err(2));
                }
                Some(Gate::swap(qubits[0], qubits[1]))
            }
            _ => None,
        };
        if let Some(gate) = known {
            sink(gate);
            return Ok(());
        }
        // User-defined (or qelib-only) gate: inline its body. User
        // definitions shadow the standard library's.
        let def = self
            .gates
            .get(name)
            .or_else(|| self.qelib.then(|| qelib_gates().get(name)).flatten())
            .ok_or_else(|| ParseQasmError::new(Some(line), format!("unknown gate `{name}`")))?;
        if def.qargs.len() != qubits.len() {
            return Err(arity_err(def.qargs.len()));
        }
        if def.params.len() != params.len() {
            return Err(param_err(def.params.len()));
        }
        // A formal named twice binds its last position.
        let bound = |formal: &str| {
            let i = def.params.iter().rposition(|&p| p == formal)?;
            Some(params[i])
        };
        let mut body = Parser::new(&def.body);
        let (mut values, mut args) = (Vec::new(), Vec::new());
        let (mut sub_params, mut sub_qubits) = (Vec::new(), Vec::new());
        while let Some((op, op_line)) = body.body_op(&bound, &mut values, &mut args)? {
            sub_params.clear();
            for value in &values {
                sub_params.push(value.map_err(|what| eval_error(op_line, name, what))?);
            }
            sub_qubits.clear();
            for a in &args {
                // Formals name single qubits: `a[5]` has nothing to index.
                let i = def.qargs.iter().rposition(|&q| q == a.register);
                let message = match (a.index, i) {
                    (Some(_), _) => format!("indexed gate argument `{a}` in `{name}`"),
                    (None, Some(i)) => {
                        sub_qubits.push(qubits[i]);
                        continue;
                    }
                    (None, None) => format!("unknown gate argument `{}` in `{name}`", a.register),
                };
                return Err(ParseQasmError::new(Some(op_line), message));
            }
            self.emit(sink, op, &sub_params, &sub_qubits, line, depth + 1)?;
        }
        Ok(())
    }
}

/// The second walk: applications streamed into a gate sink, with
/// scratch buffers reused across statements. Every emitted gate is in
/// range by construction ([`Registers::expand`] validates indices), so
/// sinks need no validation of their own.
struct Converter<'d, 'a, 's> {
    decls: &'d Declarations<'a>,
    sink: &'s mut dyn FnMut(Gate),
    lanes: Vec<Range<usize>>,
    values: Vec<f64>,
    qubits: Vec<usize>,
}

impl Converter<'_, '_, '_> {
    fn statement(&mut self, stmt: Stmt<'_, '_>) -> Result<(), ParseQasmError> {
        match stmt {
            Stmt::Apply {
                name,
                params,
                args,
                line,
            } => self.apply(name, params, args, line),
            Stmt::Measure { qubit, clbit } => {
                let qs = self.decls.qubits.expand(qubit)?;
                let cs = self.decls.clbits.expand(clbit)?;
                if qs.len() != cs.len() {
                    return Err(ParseQasmError::new(
                        None,
                        format!("measure size mismatch: {qubit} vs {clbit}"),
                    ));
                }
                for (q, c) in qs.zip(cs) {
                    (self.sink)(Gate::Measure { qubit: q, clbit: c });
                }
                Ok(())
            }
            Stmt::Barrier(args) => {
                let mut qs = Vec::new();
                for &a in args {
                    qs.extend(self.decls.qubits.expand(a)?);
                }
                (self.sink)(Gate::Barrier(qs));
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Applies a top-level gate op, broadcasting over registers.
    fn apply(
        &mut self,
        name: &str,
        params: &[Value<'_>],
        args: &[ArgRef<'_>],
        line: usize,
    ) -> Result<(), ParseQasmError> {
        self.lanes.clear();
        for &a in args {
            self.lanes.push(self.decls.qubits.expand(a)?);
        }
        let width = self
            .lanes
            .iter()
            .map(ExactSizeIterator::len)
            .filter(|&l| l > 1)
            .max()
            .unwrap_or(1);
        if self.lanes.iter().any(|l| l.len() != 1 && l.len() != width) {
            return Err(ParseQasmError::new(
                Some(line),
                format!("broadcast size mismatch in `{name}`"),
            ));
        }
        self.values.clear();
        for value in params {
            self.values
                .push(value.map_err(|what| eval_error(line, name, what))?);
        }
        for lane in 0..width {
            self.qubits.clear();
            self.qubits.extend(self.lanes.iter().map(|l| {
                if l.len() == 1 {
                    l.start
                } else {
                    l.start + lane
                }
            }));
            self.decls
                .emit(self.sink, name, &self.values, &self.qubits, line, 0)?;
        }
        Ok(())
    }
}

/// An OpenQASM 2.0 program after its first walk: syntax checked, the
/// declarations recorded, and nothing built yet. [`crate::parse`] and
/// [`crate::parse_skeleton`] are [`Parsed::new`] followed by
/// [`Parsed::to_circuit`] or [`Parsed::to_skeleton`]. A caller that
/// must bound the circuit's width reads [`Parsed::num_qubits`] in
/// between, before anything is sized by it.
pub struct Parsed<'a> {
    tokens: Vec<Token<'a>>,
    decls: Declarations<'a>,
}

impl<'a> Parsed<'a> {
    /// Tokenizes `source` and walks it once: syntax and declarations.
    ///
    /// # Errors
    ///
    /// Lex and syntax errors, a lex error anywhere first.
    pub fn new(source: &'a str) -> Result<Parsed<'a>, ParseQasmError> {
        let tokens = lex(source)?;
        let mut decls = Declarations::default();
        Parser::new(&tokens).run(&mut |stmt| {
            decls.record(stmt);
            Ok(())
        })?;
        Ok(Parsed { tokens, decls })
    }

    /// The number of qubits the `qreg`s declare: the width of the
    /// circuit [`Parsed::to_circuit`] builds.
    ///
    /// # Errors
    ///
    /// The sizes overflow `usize` when summed; conversion fails with the
    /// same error.
    pub fn num_qubits(&self) -> Result<usize, ParseQasmError> {
        self.decls.qubits.width()
    }

    /// Converts into a flat circuit. Quantum registers are laid out
    /// contiguously in declaration order; gate definitions are inlined
    /// recursively with parameters constant-folded.
    ///
    /// # Errors
    ///
    /// Register overflow first, then the first conversion error in
    /// program order: unknown registers or gates, index or arity
    /// violations, broadcast-size mismatches.
    pub fn to_circuit(&self) -> Result<Circuit, ParseQasmError> {
        let (qubits, clbits) = self.decls.widths()?;
        let mut circuit = Circuit::with_clbits(qubits, clbits);
        self.emit(&mut |g| circuit.push(g))?;
        crate::hooks::note_circuit_built();
        Ok(circuit)
    }

    /// Converts straight into the canonical [`CircuitSkeleton`] without
    /// materializing a [`Circuit`]: gates stream into a
    /// [`SkeletonBuilder`] as conversion emits them, so the result is
    /// identical to `CircuitSkeleton::of(&self.to_circuit()?)`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Parsed::to_circuit`].
    pub fn to_skeleton(&self) -> Result<CircuitSkeleton, ParseQasmError> {
        let (qubits, clbits) = self.decls.widths()?;
        let mut builder = SkeletonBuilder::new(qubits, clbits);
        self.emit(&mut |g| builder.push(&g))?;
        Ok(builder.finish())
    }

    /// The second walk: applications, streamed into `sink` in program
    /// order.
    fn emit(&self, sink: &mut dyn FnMut(Gate)) -> Result<(), ParseQasmError> {
        let mut conv = Converter {
            decls: &self.decls,
            sink,
            lanes: Vec::new(),
            values: Vec::new(),
            qubits: Vec::new(),
        };
        Parser::new(&self.tokens).run(&mut |stmt| conv.statement(stmt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit(src: &str) -> Circuit {
        crate::parse(src).unwrap()
    }

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    #[test]
    fn basic_gates() {
        let c = circuit(&format!("{HEADER}qreg q[2];\nh q[0];\ncx q[0], q[1];"));
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.gates().len(), 2);
        assert_eq!(c.gates()[1], Gate::cnot(0, 1));
    }

    #[test]
    fn register_broadcast() {
        let c = circuit(&format!("{HEADER}qreg q[3];\nh q;"));
        assert_eq!(c.num_single_qubit_gates(), 3);
        // Two-register broadcast.
        let c = circuit(&format!("{HEADER}qreg a[2];\nqreg b[2];\ncx a, b;"));
        assert_eq!(c.cnot_skeleton(), vec![(0, 2), (1, 3)]);
        // Mixed single/register broadcast.
        let c = circuit(&format!("{HEADER}qreg a[1];\nqreg b[2];\ncx a[0], b;"));
        assert_eq!(c.cnot_skeleton(), vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn multiple_registers_are_contiguous() {
        let c = circuit(&format!("{HEADER}qreg a[2];\nqreg b[2];\nx b[1];"));
        assert_eq!(c.gates()[0].qubits(), vec![3]);
    }

    #[test]
    fn registers_past_the_scan_limit_resolve_by_name() {
        // Past a handful of names, lookups go through the index; a
        // redeclared name keeps its last layout either way.
        let mut src: String = (0..10).map(|r| format!("qreg r{r}[2];\n")).collect();
        src.push_str("qreg r3[1];\nx r3[0];\nx r9[1];\nqreg r0[3];\nx r0[2];");
        let c = circuit(&src);
        assert_eq!(c.num_qubits(), 24);
        let qubits: Vec<_> = c.gates().iter().map(Gate::qubits).collect();
        assert_eq!(qubits, [vec![20], vec![19], vec![23]]);
    }

    #[test]
    fn toffoli_inlines_to_basis() {
        let c = circuit(&format!("{HEADER}qreg q[3];\nccx q[0], q[1], q[2];"));
        assert_eq!(c.num_cnots(), 6);
        assert_eq!(c.num_single_qubit_gates(), 9);
    }

    #[test]
    fn user_gates_with_params_inline() {
        let c = circuit(&format!(
            "{HEADER}qreg q[2];\ngate foo(a) x, y {{ rz(2*a) x; cx x, y; }}\nfoo(pi) q[1], q[0];"
        ));
        assert_eq!(c.gates().len(), 2);
        match &c.gates()[0] {
            Gate::One {
                kind: OneQubitKind::Rz(v),
                qubit: 1,
            } => assert!((v - 2.0 * std::f64::consts::PI).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.gates()[1], Gate::cnot(1, 0));
    }

    #[test]
    fn measure_and_barrier() {
        let c = circuit(&format!(
            "{HEADER}qreg q[2];\ncreg c[2];\nbarrier q;\nmeasure q -> c;"
        ));
        assert_eq!(c.num_clbits(), 2);
        assert!(matches!(c.gates()[0], Gate::Barrier(_)));
        assert_eq!(c.gates()[2], Gate::Measure { qubit: 1, clbit: 1 });
    }

    #[test]
    fn error_cases() {
        let parse = crate::parse;
        assert!(parse("qreg q[1];\nmystery q[0];").is_err());
        assert!(parse("qreg q[1];\nCX q[0], q[0];").is_err());
        assert!(parse("qreg q[2];\nU(1,2) q[0];").is_err()); // U needs 3 params
        assert!(parse("qreg q[1];\nx q[5];").is_err());
        assert!(parse("qreg q[1];\nx r[0];").is_err());
        let err = parse("qreg a[2];\nqreg b[3];\nCX a, b;").unwrap_err();
        assert!(err.to_string().contains("broadcast"));
    }

    #[test]
    fn skeleton_conversion_matches_circuit_conversion() {
        let src = format!(
            "{HEADER}qreg q[3];\ncreg c[2];\nh q;\nccx q[0], q[1], q[2];\n\
             barrier q;\nmeasure q[0] -> c[1];"
        );
        let program = Parsed::new(&src).unwrap();
        let skel = program.to_skeleton().unwrap();
        let full = qxmap_circuit::CircuitSkeleton::of(&program.to_circuit().unwrap());
        assert_eq!(skel, full);
        assert_eq!(skel.fingerprint(), full.fingerprint());
        assert_eq!(skel.canonical_labels(), full.canonical_labels());
        // Both conversions fail identically on a bad program.
        let bad = Parsed::new("qreg q[1];\nmystery q[0];").unwrap();
        assert_eq!(
            bad.to_skeleton().unwrap_err(),
            bad.to_circuit().unwrap_err()
        );
    }

    #[test]
    fn register_sizes_that_overflow_are_errors() {
        let src = "qreg a[18446744073709551615];\nqreg b[2];\ncx b[0], b[1];";
        let program = Parsed::new(src).unwrap();
        let message = "register `b[2]` overflows the total register size";
        assert_eq!(program.num_qubits().unwrap_err().to_string(), message);
        assert_eq!(program.to_circuit().unwrap_err().to_string(), message);
        assert_eq!(program.to_skeleton().unwrap_err().to_string(), message);
        let clbits = "qreg q[1];\ncreg a[18446744073709551615];\ncreg b[1];";
        assert!(crate::parse(clbits).is_err());
        let program = Parsed::new("qreg a[2];\ncreg c[9];\nqreg b[3];").unwrap();
        assert_eq!(program.num_qubits(), Ok(5));
    }

    #[test]
    fn a_huge_register_allocates_nothing_until_a_gate_uses_it() {
        // The measure's size mismatch is found from the two ranges, before
        // anything the size of the classical register is built.
        let src = "qreg q[2];\ncreg c[4000000000000];\nmeasure q -> c;";
        let err = crate::parse(src).unwrap_err();
        assert!(err.to_string().contains("measure size mismatch"), "{err}");
    }

    #[test]
    fn recursive_definitions_are_caught() {
        let src = "qreg q[1];\ngate loop a { loop a; }\nloop q[0];";
        let err = crate::parse(src).unwrap_err();
        assert!(err.to_string().contains("deeply"));
    }
}

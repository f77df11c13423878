//! AST → circuit conversion with hierarchical gate inlining.

use std::collections::HashMap;
use std::ops::Range;

use qxmap_circuit::{Circuit, CircuitSkeleton, Gate, OneQubitKind, SkeletonBuilder};

use crate::ast::{Arg, GateOp, Program, Statement};
use crate::parse::ParseQasmError;

struct GateDef {
    params: Vec<String>,
    qargs: Vec<String>,
    body: Vec<GateOp>,
}

/// The standard library's gate definitions, parsed once per process.
/// Programs flag `include "qelib1.inc";` instead of splicing the
/// library's statements (see [`Program::includes_qelib`]); conversion
/// falls back to this table, so per-request parsing never pays for the
/// library again.
fn qelib_gates() -> &'static HashMap<String, GateDef> {
    static TABLE: std::sync::OnceLock<HashMap<String, GateDef>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let lib = crate::parse::parse_program(crate::qelib::QELIB1)
            .expect("the embedded qelib1.inc parses");
        let mut gates = HashMap::new();
        for stmt in lib.statements {
            if let Statement::GateDef {
                name,
                params,
                qargs,
                body,
            } = stmt
            {
                gates.insert(
                    name,
                    GateDef {
                        params,
                        qargs,
                        body,
                    },
                );
            }
        }
        gates
    })
}

struct Converter {
    qubit_offset: HashMap<String, (usize, usize)>, // name -> (offset, size)
    clbit_offset: HashMap<String, (usize, usize)>,
    num_qubits: usize,
    num_clbits: usize,
    gates: HashMap<String, GateDef>,
    qelib: bool,
}

/// Converts a parsed program into a flat circuit.
///
/// Quantum registers are laid out contiguously in declaration order; gate
/// definitions are inlined recursively with parameters constant-folded.
///
/// # Errors
///
/// Returns [`ParseQasmError`] on unknown registers or gates, index or
/// arity violations, or broadcast-size mismatches.
pub fn to_circuit(program: &Program) -> Result<Circuit, ParseQasmError> {
    let conv = Converter::of(program)?;
    let mut circuit = Circuit::with_clbits(conv.num_qubits, conv.num_clbits);
    conv.run(program, &mut |g| circuit.push(g))?;
    crate::hooks::note_circuit_built();
    Ok(circuit)
}

/// Converts a parsed program straight into its canonical
/// [`CircuitSkeleton`] without materializing a [`Circuit`].
///
/// Gates stream into a [`SkeletonBuilder`] as conversion emits them, so
/// the result (tokens, fingerprint, canonical labels) is identical to
/// `CircuitSkeleton::of(&to_circuit(program)?)` — the single-pass entry
/// behind skeleton-first cache probes, where a warm hit never pays for
/// the circuit's gate vector.
///
/// # Errors
///
/// Returns exactly the [`ParseQasmError`] that [`to_circuit`] would
/// return on the same program (both run the same conversion).
pub fn to_skeleton(program: &Program) -> Result<CircuitSkeleton, ParseQasmError> {
    let conv = Converter::of(program)?;
    let mut builder = SkeletonBuilder::new(conv.num_qubits, conv.num_clbits);
    conv.run(program, &mut |g| builder.push(&g))?;
    Ok(builder.finish())
}

impl Program {
    /// The number of qubits the program's `qreg`s declare: the width of
    /// the circuit [`to_circuit`] builds. Only the declarations are read,
    /// so a caller can bound the width before conversion allocates
    /// per-qubit state.
    ///
    /// # Errors
    ///
    /// The sizes overflow `usize` when summed; conversion fails with the
    /// same error.
    pub fn num_qubits(&self) -> Result<usize, ParseQasmError> {
        self.statements
            .iter()
            .try_fold(0, |total, stmt| match stmt {
                Statement::QReg { name, size } => grow(total, name, *size),
                _ => Ok(total),
            })
    }
}

/// `total` plus one more register of `size`, refusing a sum that
/// overflows.
fn grow(total: usize, name: &str, size: usize) -> Result<usize, ParseQasmError> {
    total.checked_add(size).ok_or_else(|| {
        ParseQasmError::new(
            None,
            format!("register `{name}[{size}]` overflows the total register size"),
        )
    })
}

impl Converter {
    /// First pass: registers and gate definitions.
    fn of(program: &Program) -> Result<Converter, ParseQasmError> {
        let mut conv = Converter {
            qubit_offset: HashMap::new(),
            clbit_offset: HashMap::new(),
            num_qubits: 0,
            num_clbits: 0,
            gates: HashMap::new(),
            qelib: program.includes_qelib,
        };
        for stmt in &program.statements {
            match stmt {
                Statement::QReg { name, size } => {
                    conv.qubit_offset
                        .insert(name.clone(), (conv.num_qubits, *size));
                    conv.num_qubits = grow(conv.num_qubits, name, *size)?;
                }
                Statement::CReg { name, size } => {
                    conv.clbit_offset
                        .insert(name.clone(), (conv.num_clbits, *size));
                    conv.num_clbits = grow(conv.num_clbits, name, *size)?;
                }
                Statement::GateDef {
                    name,
                    params,
                    qargs,
                    body,
                } => {
                    conv.gates.insert(
                        name.clone(),
                        GateDef {
                            params: params.clone(),
                            qargs: qargs.clone(),
                            body: body.clone(),
                        },
                    );
                }
                _ => {}
            }
        }
        Ok(conv)
    }

    /// Second pass: applications, streamed into `sink` in program order.
    /// Every emitted gate is in range by construction ([`Converter::expand`]
    /// validates indices), so sinks need no validation of their own.
    fn run(&self, program: &Program, sink: &mut dyn FnMut(Gate)) -> Result<(), ParseQasmError> {
        for stmt in &program.statements {
            match stmt {
                Statement::Apply(op) => self.apply(sink, op)?,
                Statement::Measure { qubit, clbit } => {
                    let qs = self.expand(qubit, &self.qubit_offset)?;
                    let cs = self.expand(clbit, &self.clbit_offset)?;
                    if qs.len() != cs.len() {
                        return Err(ParseQasmError::new(
                            None,
                            format!("measure size mismatch: {qubit} vs {clbit}"),
                        ));
                    }
                    for (q, c) in qs.zip(cs) {
                        sink(Gate::Measure { qubit: q, clbit: c });
                    }
                }
                Statement::Barrier(args) => {
                    let mut qs = Vec::new();
                    for a in args {
                        qs.extend(self.expand(a, &self.qubit_offset)?);
                    }
                    sink(Gate::Barrier(qs));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Expands a register argument to its range of global indices —
    /// a range, not a list, so a huge declared register costs nothing
    /// until a gate is emitted on it.
    fn expand(
        &self,
        arg: &Arg,
        table: &HashMap<String, (usize, usize)>,
    ) -> Result<Range<usize>, ParseQasmError> {
        let (offset, size) = table.get(&arg.register).ok_or_else(|| {
            ParseQasmError::new(None, format!("unknown register `{}`", arg.register))
        })?;
        match arg.index {
            Some(i) if i < *size => Ok(offset + i..offset + i + 1),
            Some(i) => Err(ParseQasmError::new(
                None,
                format!("index {i} out of range for `{}[{size}]`", arg.register),
            )),
            None => Ok(*offset..offset + size),
        }
    }

    /// Applies a top-level gate op, broadcasting over registers.
    fn apply(&self, sink: &mut dyn FnMut(Gate), op: &GateOp) -> Result<(), ParseQasmError> {
        let expanded: Vec<Range<usize>> = op
            .args
            .iter()
            .map(|a| self.expand(a, &self.qubit_offset))
            .collect::<Result<_, _>>()?;
        let width = expanded
            .iter()
            .map(ExactSizeIterator::len)
            .filter(|&l| l > 1)
            .max()
            .unwrap_or(1);
        for lane in &expanded {
            if lane.len() != 1 && lane.len() != width {
                return Err(ParseQasmError::new(
                    Some(op.line),
                    format!("broadcast size mismatch in `{}`", op.name),
                ));
            }
        }
        let params: Vec<f64> = op
            .params
            .iter()
            .map(|e| {
                e.eval(&HashMap::new()).map_err(|err| {
                    ParseQasmError::new(Some(op.line), format!("in `{}`: {err}", op.name))
                })
            })
            .collect::<Result<_, _>>()?;
        for lane_idx in 0..width {
            let qubits: Vec<usize> = expanded
                .iter()
                .map(|lane| {
                    if lane.len() == 1 {
                        lane.start
                    } else {
                        lane.start + lane_idx
                    }
                })
                .collect();
            self.emit(sink, &op.name, &params, &qubits, op.line, 0)?;
        }
        Ok(())
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
        let known = match name {
            "U" | "u3" => {
                if params.len() != 3 {
                    return Err(param_err(3));
                }
                Some(one(OneQubitKind::U(params[0], params[1], params[2]))?)
            }
            "u2" => {
                if params.len() != 2 {
                    return Err(param_err(2));
                }
                Some(one(OneQubitKind::U(
                    std::f64::consts::FRAC_PI_2,
                    params[0],
                    params[1],
                ))?)
            }
            "u1" => {
                if params.len() != 1 {
                    return Err(param_err(1));
                }
                Some(one(OneQubitKind::Phase(params[0]))?)
            }
            "rx" => {
                if params.len() != 1 {
                    return Err(param_err(1));
                }
                Some(one(OneQubitKind::Rx(params[0]))?)
            }
            "ry" => {
                if params.len() != 1 {
                    return Err(param_err(1));
                }
                Some(one(OneQubitKind::Ry(params[0]))?)
            }
            "rz" => {
                if params.len() != 1 {
                    return Err(param_err(1));
                }
                Some(one(OneQubitKind::Rz(params[0]))?)
            }
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
        let bindings: HashMap<String, f64> = def
            .params
            .iter()
            .cloned()
            .zip(params.iter().copied())
            .collect();
        let qubit_of: HashMap<&str, usize> = def
            .qargs
            .iter()
            .map(String::as_str)
            .zip(qubits.iter().copied())
            .collect();
        for body_op in &def.body {
            let sub_params: Vec<f64> = body_op
                .params
                .iter()
                .map(|e| {
                    e.eval(&bindings).map_err(|err| {
                        ParseQasmError::new(Some(body_op.line), format!("in `{name}`: {err}"))
                    })
                })
                .collect::<Result<_, _>>()?;
            let sub_qubits: Vec<usize> = body_op
                .args
                .iter()
                .map(|a| {
                    qubit_of.get(a.register.as_str()).copied().ok_or_else(|| {
                        ParseQasmError::new(
                            Some(body_op.line),
                            format!("unknown gate argument `{}` in `{name}`", a.register),
                        )
                    })
                })
                .collect::<Result<_, _>>()?;
            self.emit(
                sink,
                &body_op.name,
                &sub_params,
                &sub_qubits,
                line,
                depth + 1,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn circuit(src: &str) -> Circuit {
        to_circuit(&parse_program(src).unwrap()).unwrap()
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
        let parse = |s: &str| to_circuit(&parse_program(s).unwrap());
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
        let program = parse_program(&src).unwrap();
        let skel = super::to_skeleton(&program).unwrap();
        let full = qxmap_circuit::CircuitSkeleton::of(&to_circuit(&program).unwrap());
        assert_eq!(skel, full);
        assert_eq!(skel.fingerprint(), full.fingerprint());
        assert_eq!(skel.canonical_labels(), full.canonical_labels());
        // Both conversions fail identically on a bad program.
        let bad = parse_program("qreg q[1];\nmystery q[0];").unwrap();
        assert_eq!(
            super::to_skeleton(&bad).unwrap_err(),
            to_circuit(&bad).unwrap_err()
        );
    }

    #[test]
    fn register_sizes_that_overflow_are_errors() {
        let src = "qreg a[18446744073709551615];\nqreg b[2];\ncx b[0], b[1];";
        let program = parse_program(src).unwrap();
        let message = "register `b[2]` overflows the total register size";
        assert_eq!(program.num_qubits().unwrap_err().to_string(), message);
        assert_eq!(to_circuit(&program).unwrap_err().to_string(), message);
        assert_eq!(
            super::to_skeleton(&program).unwrap_err().to_string(),
            message
        );
        let clbits = "qreg q[1];\ncreg a[18446744073709551615];\ncreg b[1];";
        assert!(to_circuit(&parse_program(clbits).unwrap()).is_err());
        let program = parse_program("qreg a[2];\ncreg c[9];\nqreg b[3];").unwrap();
        assert_eq!(program.num_qubits(), Ok(5));
    }

    #[test]
    fn a_huge_register_allocates_nothing_until_a_gate_uses_it() {
        // The measure's size mismatch is found from the two ranges, before
        // anything the size of the classical register is built.
        let src = "qreg q[2];\ncreg c[4000000000000];\nmeasure q -> c;";
        let err = to_circuit(&parse_program(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("measure size mismatch"), "{err}");
    }

    #[test]
    fn recursive_definitions_are_caught() {
        let src = "qreg q[1];\ngate loop a { loop a; }\nloop q[0];";
        let err = to_circuit(&parse_program(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("deeply"));
    }
}

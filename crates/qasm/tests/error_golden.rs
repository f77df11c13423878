//! The QASM front end's error contract, pinned as a golden table: each
//! source fails with exactly this message on exactly this line, through
//! every text entry point (`parse`, `parse_skeleton`, and the two free
//! walks `to_skeleton(&parse_program(..)?)`). The table covers each error
//! class — lex, syntax, include, end of input, unsupported statements,
//! unknown names, index range, broadcast, arity, parameter count,
//! evaluation, expression depth, recursion depth, register overflow,
//! measure mismatch and a CX whose control is its target — and the
//! precedence between them: a lex error outranks parse errors, parse
//! errors outrank register overflow, overflow outranks conversion
//! errors, and conversion errors come in program order.

use qxmap_circuit::{CircuitSkeleton, Gate};
use qxmap_qasm::{parse, parse_program, parse_skeleton, to_skeleton, ParseQasmError};

/// `(source, error as displayed, error line)`.
const GOLDEN: &[(&str, &str, Option<usize>)] = &[
    (
        "qreg q[2];\n@;",
        "line 2: unexpected character `@`",
        Some(2),
    ),
    (
        "qreg q[1];\nx q[0] = ;",
        "line 2: single `=` is not a QASM token",
        Some(2),
    ),
    (
        "include \"qelib1.inc;\nqreg q[1];",
        "line 1: unterminated string literal",
        Some(1),
    ),
    (
        "qreg r[;\nh q[0];\n@;",
        "line 3: unexpected character `@`",
        Some(3),
    ),
    (
        "qreg q[1];\nrz(1.2.3) q[0];",
        "line 2: bad real literal `1.2.3`",
        Some(2),
    ),
    (
        "qreg q[99999999999999999999];",
        "line 1: bad integer literal `99999999999999999999`",
        Some(1),
    ),
    (
        "qreg q[1];\nh q[0]; λ",
        "line 2: unexpected character `λ`",
        Some(2),
    ),
    (
        "qreg q[2];\nqreg r[;\n",
        "line 2: expected integer, found ;",
        Some(2),
    ),
    (
        "qreg q[2];\nh q[0]\n\n\nh q[1];",
        "line 2: expected ;, found `h`",
        Some(2),
    ),
    (
        "OPENQASM x;",
        "line 1: expected version, found `x`",
        Some(1),
    ),
    ("include 5;", "line 1: expected filename, found 5", Some(1)),
    (
        "qreg 5[2];",
        "line 1: expected identifier, found 5",
        Some(1),
    ),
    (
        "qreg q[2];\nrz(,) q[0];",
        "line 2: expected expression, found ,",
        Some(2),
    ),
    (
        "qreg q[2];\nmeasure q[0] c[0];",
        "line 2: expected ->, found `c`",
        Some(2),
    ),
    (
        "gate g(a,) x { }",
        "line 1: expected identifier, found )",
        Some(1),
    ),
    (
        "qreg q[2];\nrz((1) q[0];",
        "line 2: expected ), found `q`",
        Some(2),
    ),
    (
        "qreg q[1];\nOPENQASM 2.0;\nh q[0];",
        "line 2: expected identifier, found 2",
        Some(2),
    ),
    (
        "qreg q[1];\nx q[0.5];",
        "line 2: expected integer, found 0.5",
        Some(2),
    ),
    (
        "qreg q[1];\nrz(pi(2)) q[0];",
        "line 2: expected ), found (",
        Some(2),
    ),
    (
        "gate g a { h a; ",
        "line 1: unexpected end of input",
        Some(1),
    ),
    (
        "qreg q[2];\n\n}",
        "line 3: expected statement, found }",
        Some(3),
    ),
    (
        "qreg q[1];\n5;",
        "line 2: expected statement, found 5",
        Some(2),
    ),
    (
        "include \"other.inc\";\n\nqreg q[1];",
        "line 1: cannot include \"other.inc\": only the embedded qelib1.inc is available",
        Some(1),
    ),
    (
        "qreg q[2];\ncx q[0],\n",
        "line 2: unexpected end of input",
        Some(2),
    ),
    (
        "gate g a { barrier a",
        "line 1: unexpected end of input",
        Some(1),
    ),
    ("OPENQASM", "line 1: unexpected end of input", Some(1)),
    (
        "qreg q[1];\nrz(1+",
        "line 2: unexpected end of input",
        Some(2),
    ),
    (
        "qreg q[1];\nreset q[0];",
        "line 2: reset is not supported by the unitary mapping IR",
        Some(2),
    ),
    (
        "qreg q[1];\ncreg c[1];\nif (c == 1) x q[0];",
        "line 3: classically controlled operations are not supported",
        Some(3),
    ),
    (
        "opaque magic q;",
        "line 1: opaque gates are not supported",
        Some(1),
    ),
    (
        "qreg q[2];\nnope q[0];",
        "line 2: unknown gate `nope`",
        Some(2),
    ),
    ("qreg q[1];\nx r[0];", "unknown register `r`", None),
    (
        "qreg q[2];\ngate g a { h b; }\ng q[0];",
        "line 2: unknown gate argument `b` in `g`",
        Some(2),
    ),
    (
        "qreg q[1];\ngate g a {\n nope a;\n}\ng q[0];",
        "line 5: unknown gate `nope`",
        Some(5),
    ),
    (
        "qreg q[3];\nccx q[0], q[1], q[2];",
        "line 2: unknown gate `ccx`",
        Some(2),
    ),
    (
        "qreg q[1];\nmeasure q[0] -> c[0];",
        "unknown register `c`",
        None,
    ),
    (
        "qreg q[1];\nx q[5];",
        "index 5 out of range for `q[1]`",
        None,
    ),
    (
        "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[3];",
        "index 3 out of range for `c[1]`",
        None,
    ),
    (
        "qreg q[1];\nbarrier q[0], q[2];",
        "index 2 out of range for `q[1]`",
        None,
    ),
    (
        "qreg a[2];\nqreg b[3];\nCX a, b;",
        "line 3: broadcast size mismatch in `CX`",
        Some(3),
    ),
    (
        "qreg a[2];\nqreg b[3];\nrz(theta) a, b;",
        "line 3: broadcast size mismatch in `rz`",
        Some(3),
    ),
    (
        "qreg q[2];\nh q[0], q[1];",
        "line 2: `h` expects 1 qubit(s), got 2",
        Some(2),
    ),
    (
        "qreg q[2];\ncx q[0];",
        "line 2: `cx` expects 2 qubit(s), got 1",
        Some(2),
    ),
    (
        "qreg q[2];\ngate g a, b { cx a, b; }\ng q[0];",
        "line 3: `g` expects 2 qubit(s), got 1",
        Some(3),
    ),
    (
        "qreg q[3];\nswap q[0], q[1], q[2];",
        "line 2: `swap` expects 2 qubit(s), got 3",
        Some(2),
    ),
    (
        "qreg q[2];\nU(1,2) q[0];",
        "line 2: `U` expects 3 parameter(s), got 2",
        Some(2),
    ),
    (
        "qreg q[1];\nrz q[0];",
        "line 2: `rz` expects 1 parameter(s), got 0",
        Some(2),
    ),
    (
        "gate g(t) a { rz(t) a; }\nqreg q[1];\ng q[0];",
        "line 3: `g` expects 1 parameter(s), got 0",
        Some(3),
    ),
    (
        "qreg q[1];\nu2(1) q[0];",
        "line 2: `u2` expects 2 parameter(s), got 1",
        Some(2),
    ),
    (
        "include \"qelib1.inc\";\nqreg q[2];\ncu1 q[0], q[1];",
        "line 3: `cu1` expects 1 parameter(s), got 0",
        Some(3),
    ),
    (
        "qreg q[1];\nrz(theta) q[0];",
        "line 2: in `rz`: cannot evaluate `theta`",
        Some(2),
    ),
    (
        "qreg q[1];\nrz(sinh(1)) q[0];",
        "line 2: in `rz`: cannot evaluate `sinh`",
        Some(2),
    ),
    (
        "qreg q[1];\nrz(foo(x)) q[0];",
        "line 2: in `rz`: cannot evaluate `x`",
        Some(2),
    ),
    (
        "qreg q[1];\nrz(1 + a * b) q[0];",
        "line 2: in `rz`: cannot evaluate `a`",
        Some(2),
    ),
    (
        "qreg q[1];\ngate g(t) a {\n rz(u) a;\n}\ng(1) q[0];",
        "line 3: in `g`: cannot evaluate `u`",
        Some(3),
    ),
    ("qreg q[1];\nrz(theta) r[0];", "unknown register `r`", None),
    (
        "qreg q[1];\ngate loop a { loop a; }\nloop q[0];",
        "line 3: gate `loop` expands too deeply (recursive definition?)",
        Some(3),
    ),
    (
        "qreg q[2];\ngate a x { b x; }\ngate b x { a x; }\nh q[1];\na q[0];",
        "line 5: gate `b` expands too deeply (recursive definition?)",
        Some(5),
    ),
    (
        "qreg a[18446744073709551615];\nqreg b[2];\ncx b[0], b[1];",
        "register `b[2]` overflows the total register size",
        None,
    ),
    (
        "qreg q[1];\ncreg a[18446744073709551615];\ncreg b[1];",
        "register `b[1]` overflows the total register size",
        None,
    ),
    (
        "creg a[18446744073709551615];\ncreg b[1];\nqreg x[18446744073709551615];\nqreg y[1];",
        "register `b[1]` overflows the total register size",
        None,
    ),
    (
        "qreg a[18446744073709551615];\nqreg b[2];\nqreg c[;",
        "line 3: expected integer, found ;",
        Some(3),
    ),
    (
        "nope q[0];\nqreg a[18446744073709551615];\nqreg b[2];",
        "register `b[2]` overflows the total register size",
        None,
    ),
    (
        "qreg q[2];\ncreg c[3];\nmeasure q -> c;",
        "measure size mismatch: q vs c",
        None,
    ),
    (
        "qreg q[2];\ncreg c[4000000000000];\nmeasure q -> c;",
        "measure size mismatch: q vs c",
        None,
    ),
    (
        "qreg q[1];\nCX q[0], q[0];",
        "line 2: cx control and target coincide",
        Some(2),
    ),
    (
        "qreg q[2];\ncx q, q;",
        "line 2: cx control and target coincide",
        Some(2),
    ),
    (
        "include \"qelib1.inc\";\nqreg q[2];\nccx q[0], q[1], q[0];",
        "line 3: cx control and target coincide",
        Some(3),
    ),
    (
        "qreg q[1];\nx r[0];\nnope q[0];",
        "unknown register `r`",
        None,
    ),
    (
        "qreg q[1];\nnope q[0];\nx r[0];",
        "line 2: unknown gate `nope`",
        Some(2),
    ),
    (
        "qreg q[2];\nh q[0];\nmeasure q -> c;\ncx q[0], q[0];",
        "unknown register `c`",
        None,
    ),
    (
        "qreg q[1];\nrz(((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((0))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))) q[0];",
        "line 2: expression nests more than 64 levels deep",
        Some(2),
    ),
    (
        "qreg q[1];\nrz(----------------------------------------------------------------1) q[0];",
        "line 2: expression nests more than 64 levels deep",
        Some(2),
    ),
    (
        "qreg q[1];\nrz(2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^1) q[0];",
        "line 2: expression nests more than 64 levels deep",
        Some(2),
    ),
    (
        "gate g(t) a {\n  rz(t * ((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((0))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))) a;\n}\nqreg q[1];\ng(1) q[0];",
        "line 2: expression nests more than 64 levels deep",
        Some(2),
    ),
    (
        "gate g(t) a {\n  rz(t * ----------------------------------------------------------------1) a;\n}\nqreg q[1];\ng(1) q[0];",
        "line 2: expression nests more than 64 levels deep",
        Some(2),
    ),
    (
        "gate g(t) a {\n  rz(t * 2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^2^1) a;\n}\nqreg q[1];\ng(1) q[0];",
        "line 2: expression nests more than 64 levels deep",
        Some(2),
    ),
    (
        "qreg q[1];\nnope q[0];\nrz(sin(----------------------------------------------------------------1)) q[0];",
        "line 3: expression nests more than 64 levels deep",
        Some(3),
    ),
    (
        "qreg q[2];\ngate g a { x a[5]; }\ng q[0];",
        "line 2: indexed gate argument `a[5]` in `g`",
        Some(2),
    ),
    (
        "qreg q[2];\ngate g a, b {\n  h a;\n  cx a, b[0];\n}\ng q[0], q[1];",
        "line 4: indexed gate argument `b[0]` in `g`",
        Some(4),
    ),
    (
        "qreg q[1];\ngate g a { x c[0]; }\ng q[0];",
        "line 2: indexed gate argument `c[0]` in `g`",
        Some(2),
    ),
];

fn errors(source: &str) -> [Option<ParseQasmError>; 3] {
    [
        parse(source).err(),
        parse_skeleton(source).err(),
        parse_program(source)
            .and_then(|program| to_skeleton(&program))
            .err(),
    ]
}

#[test]
fn every_entry_point_fails_as_recorded() {
    assert!(GOLDEN.len() >= 40);
    for &(source, message, line) in GOLDEN {
        for error in errors(source) {
            let error = error.unwrap_or_else(|| panic!("{source:?} parsed"));
            assert_eq!(error.to_string(), message, "{source:?}");
            assert_eq!(error.line(), line, "{source:?}");
        }
    }
}

/// Registers and gates may be used before they are declared; a later
/// declaration of the same name shadows the earlier one for every use,
/// and a user definition shadows the standard library's.
#[test]
fn forward_references_parse() {
    let cases: &[(&str, usize, &[Gate])] = &[
        (
            "h q[0];\nqreg q[1];",
            1,
            &[Gate::one(qxmap_circuit::OneQubitKind::H, 0)],
        ),
        (
            "g q[1], q[0];\nqreg q[2];\ngate g a, b { cx a, b; }",
            2,
            &[Gate::Cnot {
                control: 1,
                target: 0,
            }],
        ),
        (
            "measure q[1] -> c[0];\ncreg c[1];\nqreg q[2];",
            2,
            &[Gate::Measure { qubit: 1, clbit: 0 }],
        ),
        (
            "qreg q[1];\nqreg q[2];\nx q[1];",
            3,
            &[Gate::one(qxmap_circuit::OneQubitKind::X, 2)],
        ),
        (
            "include \"qelib1.inc\";\nqreg q[3];\nccx q[0], q[1], q[2];\n\
             gate ccx a, b, c { cx a, c; }\ngate ccx a, b, c { cx b, c; }",
            3,
            &[Gate::Cnot {
                control: 1,
                target: 2,
            }],
        ),
    ];
    for &(source, qubits, gates) in cases {
        let circuit = parse(source).unwrap_or_else(|e| panic!("{source:?}: {e}"));
        assert_eq!(circuit.num_qubits(), qubits, "{source:?}");
        assert_eq!(circuit.gates(), gates, "{source:?}");
        let skeleton = CircuitSkeleton::of(&circuit);
        assert_eq!(parse_skeleton(source).unwrap(), skeleton, "{source:?}");
        assert_eq!(
            to_skeleton(&parse_program(source).unwrap()).unwrap(),
            skeleton,
            "{source:?}"
        );
    }
}

//! QASM-in → map → QASM-out pipeline tests.

use qxmap::arch::devices;
use qxmap::core::Strategy;
use qxmap::map::{Engine, ExactEngine, MapRequest};
use qxmap::qasm;
use qxmap::sim::{equivalent_unitaries, mapped_equivalent};

const TOFFOLI_PROGRAM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[2];
ccx q[0], q[1], q[2];
t q[0];
cx q[2], q[1];
"#;

#[test]
fn parse_map_export_reparse() {
    let circuit = qasm::parse(TOFFOLI_PROGRAM).expect("valid program");
    assert_eq!(circuit.num_qubits(), 3);
    assert_eq!(circuit.num_cnots(), 7); // 6 (ccx) + 1

    let cm = devices::ibm_qx4();
    let request =
        MapRequest::new(circuit.clone(), cm.clone()).with_strategy(Strategy::DisjointQubits);
    let report = ExactEngine::new().run(&request).expect("mappable");
    report.verify(&circuit, &cm).expect("sound");

    // Export and reparse the hardware circuit: bit-identical gate list.
    let exported = qasm::to_qasm(&report.mapped);
    let reparsed = qasm::parse(&exported).expect("exporter emits valid QASM");
    assert_eq!(reparsed.gates(), report.mapped.gates());

    // Functional equivalence through the whole pipeline.
    assert!(mapped_equivalent(
        &circuit,
        &report.mapped,
        &report.initial_layout,
        &report.final_layout,
        1e-9,
    )
    .expect("unitary"));
}

#[test]
fn qelib_toffoli_decomposition_is_functionally_toffoli() {
    // The inlined ccx must implement the textbook Toffoli truth table.
    let parsed =
        qasm::parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nccx q[0], q[1], q[2];\n")
            .expect("valid");
    let mut reference = qxmap::circuit::Circuit::new(3);
    qxmap::benchmarks::mct::append_mct(&mut reference, &[0, 1], 2).expect("two controls");
    assert!(equivalent_unitaries(&parsed, &reference, 1e-9).expect("unitary"));
}

#[test]
fn real_netlist_through_the_mapper() {
    let src = "\
.version 1.0
.numvars 3
.variables a b c
.begin
t3 a b c
t2 a b
t1 c
.end
";
    let circuit = qxmap::benchmarks::real::parse_real(src).expect("valid netlist");
    let cm = devices::ibm_qx4();
    let request = MapRequest::new(circuit.clone(), cm.clone()).with_strategy(Strategy::OddGates);
    let report = ExactEngine::new().run(&request).expect("mappable");
    report.verify(&circuit, &cm).expect("legal");
    assert!(mapped_equivalent(
        &circuit,
        &report.mapped,
        &report.initial_layout,
        &report.final_layout,
        1e-9,
    )
    .expect("unitary"));
}

/// Every gate kind keeps its persisted code, and QXBC, the skeleton
/// builder and the in-memory circuit agree on it: the QXBC round trip is
/// lossless and the skeleton decoded straight from QXBC bytes equals the
/// one built from the decoded circuit.
#[test]
fn every_gate_kind_keeps_its_code_across_byte_formats() {
    use qxmap::circuit::{CircuitSkeleton, Gate, GateTag, OneQubitKind};

    let kinds = [
        OneQubitKind::I,
        OneQubitKind::X,
        OneQubitKind::Y,
        OneQubitKind::Z,
        OneQubitKind::H,
        OneQubitKind::S,
        OneQubitKind::Sdg,
        OneQubitKind::T,
        OneQubitKind::Tdg,
        OneQubitKind::Rx(0.25),
        OneQubitKind::Ry(-1.5),
        OneQubitKind::Rz(3.0),
        OneQubitKind::Phase(0.125),
        OneQubitKind::U(0.1, 0.2, 0.3),
    ];
    for (code, kind) in kinds.iter().enumerate() {
        assert_eq!(usize::from(kind.code()), code, "{kind:?}");
        let mut angles = [0.0; 3];
        for (slot, a) in angles.iter_mut().zip(kind.angles()) {
            *slot = a;
        }
        assert_eq!(
            OneQubitKind::angle_count(kind.code()),
            Some(kind.angles().len())
        );
        assert_eq!(OneQubitKind::from_code(kind.code(), angles), Some(*kind));
    }
    assert_eq!(OneQubitKind::from_code(14, [0.0; 3]), None);

    let mut circuit = qxmap::circuit::Circuit::with_clbits(3, 1);
    for (i, &kind) in kinds.iter().enumerate() {
        circuit.one(kind, i % 3);
    }
    circuit.cx(0, 1).swap_gate(1, 2).barrier().measure(2, 0);
    let tags: Vec<u8> = circuit.gates().iter().map(|g| g.tag().code()).collect();
    assert_eq!(&tags[kinds.len()..], &[2, 3, 4, 5]);
    assert!(tags[..kinds.len()].iter().all(|&t| t == 1));
    for (code, tag) in [
        (1, GateTag::One),
        (2, GateTag::Cnot),
        (3, GateTag::Swap),
        (4, GateTag::Barrier),
        (5, GateTag::Measure),
    ] {
        assert_eq!(GateTag::from_code(code), Some(tag));
        assert_eq!(tag.code(), code);
    }
    assert_eq!(GateTag::from_code(0), None);
    assert!(matches!(circuit.gates()[kinds.len()], Gate::Cnot { .. }));

    let bytes = qasm::encode_qxbc(&circuit);
    assert_eq!(qasm::decode_qxbc(&bytes).expect("decodes"), circuit);
    assert_eq!(
        qasm::decode_qxbc_skeleton(&bytes).expect("decodes"),
        CircuitSkeleton::of(&circuit)
    );
}

//! The circuit-build counter behind the skeleton-first warm path. The
//! counter is process-wide, so this file holds exactly one test: any
//! other test building circuits on a parallel thread would blur the
//! deltas it checks.

#[test]
fn parsing_bumps_the_counter_and_skeletons_do_not() {
    let src = "OPENQASM 2.0;\nqreg q[2];\nCX q[0], q[1];";
    let before = qxmap_qasm::hooks::circuits_built();
    let program = qxmap_qasm::parse_program(src).unwrap();
    qxmap_qasm::to_skeleton(&program).unwrap();
    assert_eq!(
        qxmap_qasm::hooks::circuits_built(),
        before,
        "skeleton conversion must not count as a circuit build"
    );
    qxmap_qasm::parse(src).unwrap();
    assert!(qxmap_qasm::hooks::circuits_built() > before);
}

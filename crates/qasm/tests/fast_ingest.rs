//! Fast-ingest properties, pinning the tentpole's equivalence claims:
//!
//! * text ↔ QXBC round-trips produce identical circuits, and the
//!   skeleton-only decoders land on the same canonical skeleton (and
//!   fingerprint) as the full materializing paths;
//! * the QASM text parser fails closed on truncated and corrupted
//!   sources: an error with a source line, never a panic;
//! * hostile QXBC bytes (any flip, any truncation, version bumps,
//!   declared-length bombs) are rejected structurally, with preallocation
//!   bounded by the actual payload size.

use proptest::prelude::*;
use qxmap_circuit::{Circuit, CircuitSkeleton, Gate, OneQubitKind};
use qxmap_qasm::{
    decode_qxbc, decode_qxbc_skeleton, encode_qxbc, parse_program, QxbcError, QXBC_MAGIC,
    QXBC_VERSION,
};

fn kind_strategy() -> impl Strategy<Value = OneQubitKind> {
    prop_oneof![
        Just(OneQubitKind::I),
        Just(OneQubitKind::X),
        Just(OneQubitKind::Y),
        Just(OneQubitKind::Z),
        Just(OneQubitKind::H),
        Just(OneQubitKind::S),
        Just(OneQubitKind::Sdg),
        Just(OneQubitKind::T),
        Just(OneQubitKind::Tdg),
        (-10.0f64..10.0).prop_map(OneQubitKind::Rx),
        (-10.0f64..10.0).prop_map(OneQubitKind::Ry),
        (-10.0f64..10.0).prop_map(OneQubitKind::Rz),
        (-10.0f64..10.0).prop_map(OneQubitKind::Phase),
        (-6.0f64..6.0, -6.0f64..6.0, -6.0f64..6.0).prop_map(|(t, p, l)| OneQubitKind::U(t, p, l)),
    ]
}

/// Circuits over every gate family QXBC can frame — including barriers
/// (variable-length aux records) and measurements (classical bits).
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    (2usize..6, 1usize..4).prop_flat_map(|(n, m)| {
        let gate = prop_oneof![
            (kind_strategy(), 0..n).prop_map(|(k, q)| Gate::one(k, q)),
            (0..n, 1..n).prop_map(move |(c, d)| Gate::Cnot {
                control: c,
                target: (c + d) % n,
            }),
            (0..n, 1..n).prop_map(move |(a, d)| Gate::Swap { a, b: (a + d) % n }),
            prop::collection::vec(0..n, 1..4).prop_map(|mut qs| {
                qs.sort_unstable();
                qs.dedup();
                Gate::Barrier(qs)
            }),
            (0..n, 0..m).prop_map(|(q, c)| Gate::Measure { qubit: q, clbit: c }),
        ];
        prop::collection::vec(gate, 0..25).prop_map(move |gates| {
            let mut c = Circuit::with_clbits(n, m);
            c.extend(gates);
            c
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Text and QXBC are two encodings of the same circuit: the binary
    /// round-trip is gate-for-gate identical, and all four ingest paths
    /// (text→circuit, text→skeleton, QXBC→circuit, QXBC→skeleton) agree
    /// on the canonical skeleton and its fingerprint.
    #[test]
    fn qxbc_round_trips_and_all_ingest_paths_agree(c in circuit_strategy()) {
        let bytes = encode_qxbc(&c);
        let back = decode_qxbc(&bytes).unwrap();
        prop_assert_eq!(back.gates(), c.gates());
        prop_assert_eq!(back.num_qubits(), c.num_qubits());
        prop_assert_eq!(back.num_clbits(), c.num_clbits());
        prop_assert_eq!(back.name(), c.name());

        let skel = decode_qxbc_skeleton(&bytes).unwrap();
        let full = CircuitSkeleton::of(&c);
        prop_assert_eq!(&skel, &full);
        prop_assert_eq!(skel.fingerprint(), full.fingerprint());

        let text = qxmap_qasm::to_qasm(&c);
        let text_skel = qxmap_qasm::parse_skeleton(&text).unwrap();
        prop_assert_eq!(text_skel.fingerprint(), full.fingerprint());
    }

    /// The text parser fails closed on damaged input: any truncation of
    /// valid text (frequently mid-token) and any single character
    /// replaced by a hostile one (ASCII or multi-byte) parses, or fails
    /// with an error naming a source line, and never panics. The
    /// skeleton-only path agrees with the full parse on every such input.
    #[test]
    fn damaged_text_parses_or_fails_with_a_line(
        c in circuit_strategy(),
        cut in 0usize..1_000_000,
        idx in 0usize..1_000_000,
        hostile in prop_oneof![
            Just("}"), Just("{"), Just(";"), Just("@"), Just("\""), Just("["), Just("="),
            Just("\n"), Just("\r"), Just("/"), Just("-"), Just("."), Just("e"), Just("λ"),
            Just("\u{a0}"), Just("\u{2028}"),
        ],
    ) {
        let text = qxmap_qasm::to_qasm(&c);
        prop_assert!(parse_program(&text).is_ok());

        // QASM text is ASCII, so any byte index is a char boundary.
        let truncated = &text[..cut % (text.len() + 1)];
        let mut corrupted = text.clone();
        let i = idx % corrupted.len();
        corrupted.replace_range(i..=i, hostile);
        for source in [truncated, corrupted.as_str()] {
            let lines = source.split('\n').count();
            if let Err(e) = parse_program(source) {
                let line = e.line();
                prop_assert!(
                    line.is_some_and(|l| (1..=lines).contains(&l)),
                    "{:?} for {:?}", line, source
                );
            }
            prop_assert_eq!(
                qxmap_qasm::parse_skeleton(source).map(|s| s.fingerprint()),
                qxmap_qasm::parse(source).map(|c| CircuitSkeleton::of(&c).fingerprint())
            );
        }
    }

    /// Every text entry point reports the same outcome on damaged input:
    /// `parse`, `parse_skeleton` and the AST route
    /// `to_skeleton(&parse_program(..)?)` agree on the skeleton when the
    /// source parses, and on the error — message and line — when it
    /// does not. The seed text adds registers, a user gate with a
    /// parameter, a standard-library gate, a measure and a barrier to
    /// the circuit's own text, and the edits splice in whole tokens as
    /// well as characters, so every error class is in reach.
    #[test]
    fn damaged_text_fails_identically_through_every_entry_point(
        c in circuit_strategy(),
        cut in 0usize..1_000_000,
        edits in prop::collection::vec((0usize..1_000_000, prop_oneof![
            Just("}"), Just("{"), Just(";"), Just("@"), Just(","), Just("["), Just("]"),
            Just("("), Just(")"), Just("\n"), Just("->"), Just("-"), Just("*"), Just("e"),
            Just(" q"), Just(" r"), Just(" c"), Just(" g"), Just(" ccx"), Just(" nope"),
            Just("0"), Just("7"), Just("18446744073709551615"), Just("pi"), Just("theta"),
            Just("gate"), Just("qreg"), Just("creg"), Just("measure"), Just("barrier"),
            Just("include"), Just("OPENQASM"), Just("\"x\""), Just("λ"),
        ]), 1..4),
    ) {
        let text = format!(
            "{}gate g(t) a, b {{ rz(t/2) b; cx a, b; }}\nqreg r[2];\ncreg d[2];\n\
             g(pi) r[0], r[1];\nccx r[0], r[1], q[0];\nbarrier r, q[1];\nmeasure r -> d;\n",
            qxmap_qasm::to_qasm(&c)
        );
        prop_assert!(qxmap_qasm::parse(&text).is_ok());
        let truncated = &text[..cut % (text.len() + 1)];
        let mut corrupted = text.clone();
        for (idx, token) in edits {
            // Edits land on char boundaries: the seed text is ASCII, and
            // a multi-byte edit is stepped over to its end.
            let mut i = idx % corrupted.len();
            while !corrupted.is_char_boundary(i) || !corrupted.is_char_boundary(i + 1) {
                i = (i + 1) % corrupted.len();
            }
            corrupted.replace_range(i..=i, token);
        }
        for source in [truncated, corrupted.as_str()] {
            let full = qxmap_qasm::parse(source).map(|c| CircuitSkeleton::of(&c));
            prop_assert_eq!(&qxmap_qasm::parse_skeleton(source), &full, "{:?}", source);
            let via_ast = parse_program(source).and_then(|p| qxmap_qasm::to_skeleton(&p));
            prop_assert_eq!(&via_ast, &full, "{:?}", source);
        }
    }

    /// Every checksummed byte matters and every prefix is incomplete:
    /// any single-byte flip and any strict truncation must be rejected —
    /// by the circuit decoder and the skeleton decoder alike.
    #[test]
    fn any_flip_or_truncation_of_qxbc_is_rejected(
        c in circuit_strategy(),
        flip in 0usize..1_000_000,
        cut in 0usize..1_000_000,
    ) {
        let bytes = encode_qxbc(&c);
        let mut corrupted = bytes.clone();
        let i = flip % corrupted.len();
        corrupted[i] ^= 0x10;
        prop_assert!(decode_qxbc(&corrupted).is_err(), "flip at {} survived", i);
        prop_assert!(decode_qxbc_skeleton(&corrupted).is_err());

        let cut = cut % bytes.len();
        prop_assert!(decode_qxbc(&bytes[..cut]).is_err(), "cut to {} survived", cut);
        prop_assert!(decode_qxbc_skeleton(&bytes[..cut]).is_err());
    }

    /// A future format version is rejected up front, not misparsed.
    #[test]
    fn version_bumps_are_rejected(c in circuit_strategy(), bump in 1u8..=255) {
        let mut bytes = encode_qxbc(&c);
        bytes[8] = bytes[8].wrapping_add(bump);
        let found = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        prop_assert_eq!(
            decode_qxbc(&bytes).unwrap_err(),
            QxbcError::VersionMismatch { found, supported: QXBC_VERSION }
        );
    }
}

/// A header that declares billions of gates (or aux words) backed by a
/// tiny payload must fail from the *declared-vs-available* check before
/// any allocation — mirroring the solve-cache journal codec's length-bomb
/// discipline.
#[test]
fn declared_length_bombs_are_bounded_before_allocation() {
    for (gate_count, aux_count) in [(u32::MAX, 0u32), (0, u32::MAX), (u32::MAX, u32::MAX)] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(QXBC_MAGIC);
        bytes.extend_from_slice(&QXBC_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // name length
        bytes.extend_from_slice(&4u32.to_le_bytes()); // qubits
        bytes.extend_from_slice(&0u32.to_le_bytes()); // clbits
        bytes.extend_from_slice(&gate_count.to_le_bytes());
        bytes.extend_from_slice(&aux_count.to_le_bytes());
        let start = std::time::Instant::now();
        assert_eq!(decode_qxbc(&bytes).unwrap_err(), QxbcError::Truncated);
        assert_eq!(
            decode_qxbc_skeleton(&bytes).unwrap_err(),
            QxbcError::Truncated
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "a length bomb must fail by arithmetic, not by allocation"
        );
    }
}

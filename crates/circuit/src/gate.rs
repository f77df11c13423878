//! Gate types of the circuit IR.

use std::fmt;

/// Kinds of single-qubit operations.
///
/// IBM QX architectures natively provide the universal gate
/// `U(θ, φ, λ) = Rz(φ) Ry(θ) Rz(λ)`; all named gates below are special cases
/// and are kept symbolic so that circuits can be printed and exported the way
/// users wrote them.
///
/// Parameterized variants carry angles in radians. Because angles are `f64`,
/// this type implements [`PartialEq`] but not `Eq`/`Hash`.
///
/// ```
/// use qxmap_circuit::OneQubitKind;
/// assert_eq!(OneQubitKind::H.label(), "H");
/// assert_eq!(OneQubitKind::Rz(1.5).label(), "Rz");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OneQubitKind {
    /// Identity.
    I,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard — the gate used to reverse CNOT directions during mapping.
    H,
    /// Phase gate S = sqrt(Z).
    S,
    /// Inverse phase gate S†.
    Sdg,
    /// T = fourth root of Z.
    T,
    /// T†.
    Tdg,
    /// Rotation about the x-axis by the given angle (radians).
    Rx(f64),
    /// Rotation about the y-axis by the given angle (radians).
    Ry(f64),
    /// Rotation about the z-axis by the given angle (radians).
    Rz(f64),
    /// Diagonal phase gate `diag(1, e^{iλ})`.
    Phase(f64),
    /// IBM's universal single-qubit gate `U(θ, φ, λ)`.
    U(f64, f64, f64),
}

impl OneQubitKind {
    /// Short label used in diagrams and QASM-ish debugging output.
    pub fn label(&self) -> &'static str {
        match self {
            OneQubitKind::I => "I",
            OneQubitKind::X => "X",
            OneQubitKind::Y => "Y",
            OneQubitKind::Z => "Z",
            OneQubitKind::H => "H",
            OneQubitKind::S => "S",
            OneQubitKind::Sdg => "S†",
            OneQubitKind::T => "T",
            OneQubitKind::Tdg => "T†",
            OneQubitKind::Rx(_) => "Rx",
            OneQubitKind::Ry(_) => "Ry",
            OneQubitKind::Rz(_) => "Rz",
            OneQubitKind::Phase(_) => "P",
            OneQubitKind::U(..) => "U",
        }
    }

    /// The inverse (adjoint) of this gate kind.
    ///
    /// ```
    /// use qxmap_circuit::OneQubitKind;
    /// assert_eq!(OneQubitKind::S.inverse(), OneQubitKind::Sdg);
    /// assert_eq!(OneQubitKind::H.inverse(), OneQubitKind::H);
    /// ```
    pub fn inverse(&self) -> OneQubitKind {
        match *self {
            OneQubitKind::S => OneQubitKind::Sdg,
            OneQubitKind::Sdg => OneQubitKind::S,
            OneQubitKind::T => OneQubitKind::Tdg,
            OneQubitKind::Tdg => OneQubitKind::T,
            OneQubitKind::Rx(a) => OneQubitKind::Rx(-a),
            OneQubitKind::Ry(a) => OneQubitKind::Ry(-a),
            OneQubitKind::Rz(a) => OneQubitKind::Rz(-a),
            OneQubitKind::Phase(a) => OneQubitKind::Phase(-a),
            OneQubitKind::U(t, p, l) => OneQubitKind::U(-t, -l, -p),
            k => k,
        }
    }

    /// Whether the gate is self-inverse (its own adjoint).
    pub fn is_self_inverse(&self) -> bool {
        matches!(
            self,
            OneQubitKind::I | OneQubitKind::X | OneQubitKind::Y | OneQubitKind::Z | OneQubitKind::H
        )
    }

    /// The kind's code in every byte format that stores gates (QXBC
    /// records, solve-cache journal records and skeleton tokens): `I` = 0,
    /// `X` = 1, `Y` = 2, `Z` = 3, `H` = 4, `S` = 5, `Sdg` = 6, `T` = 7,
    /// `Tdg` = 8, `Rx` = 9, `Ry` = 10, `Rz` = 11, `Phase` = 12, `U` = 13.
    /// Each format writes the code followed by [`OneQubitKind::angles`]
    /// and reads it back with [`OneQubitKind::angle_count`] and
    /// [`OneQubitKind::from_code`]. The codes are persisted: changing one
    /// changes those formats' bytes.
    ///
    /// ```
    /// use qxmap_circuit::OneQubitKind;
    /// let u = OneQubitKind::U(0.1, 0.2, 0.3);
    /// let mut angles = [0.0; 3];
    /// for (slot, a) in angles.iter_mut().zip(u.angles()) {
    ///     *slot = a;
    /// }
    /// assert_eq!(OneQubitKind::angle_count(u.code()), Some(3));
    /// assert_eq!(OneQubitKind::from_code(u.code(), angles), Some(u));
    /// ```
    #[inline]
    pub fn code(&self) -> u8 {
        match self {
            OneQubitKind::I => 0,
            OneQubitKind::X => 1,
            OneQubitKind::Y => 2,
            OneQubitKind::Z => 3,
            OneQubitKind::H => 4,
            OneQubitKind::S => 5,
            OneQubitKind::Sdg => 6,
            OneQubitKind::T => 7,
            OneQubitKind::Tdg => 8,
            OneQubitKind::Rx(_) => 9,
            OneQubitKind::Ry(_) => 10,
            OneQubitKind::Rz(_) => 11,
            OneQubitKind::Phase(_) => 12,
            OneQubitKind::U(..) => 13,
        }
    }

    /// The kind's angles in encoding order: none for the fixed kinds,
    /// one for the rotations and `Phase`, and `θ, φ, λ` for `U`.
    #[inline]
    pub fn angles(&self) -> impl ExactSizeIterator<Item = f64> {
        let (angles, n) = match *self {
            OneQubitKind::Rx(a)
            | OneQubitKind::Ry(a)
            | OneQubitKind::Rz(a)
            | OneQubitKind::Phase(a) => ([a, 0.0, 0.0], 1),
            OneQubitKind::U(t, p, l) => ([t, p, l], 3),
            _ => ([0.0; 3], 0),
        };
        angles.into_iter().take(n)
    }

    /// How many angles a kind with this [`code`](OneQubitKind::code)
    /// carries, or `None` for a code no kind has.
    #[inline]
    pub fn angle_count(code: u8) -> Option<usize> {
        match code {
            0..=8 => Some(0),
            9..=12 => Some(1),
            13 => Some(3),
            _ => None,
        }
    }

    /// The kind with this [`code`](OneQubitKind::code), taking its angles
    /// from the front of `angles` (the rest are ignored), or `None` for a
    /// code no kind has.
    #[inline]
    pub fn from_code(code: u8, angles: [f64; 3]) -> Option<OneQubitKind> {
        let [a, b, c] = angles;
        Some(match code {
            0 => OneQubitKind::I,
            1 => OneQubitKind::X,
            2 => OneQubitKind::Y,
            3 => OneQubitKind::Z,
            4 => OneQubitKind::H,
            5 => OneQubitKind::S,
            6 => OneQubitKind::Sdg,
            7 => OneQubitKind::T,
            8 => OneQubitKind::Tdg,
            9 => OneQubitKind::Rx(a),
            10 => OneQubitKind::Ry(a),
            11 => OneQubitKind::Rz(a),
            12 => OneQubitKind::Phase(a),
            13 => OneQubitKind::U(a, b, c),
            _ => return None,
        })
    }
}

impl fmt::Display for OneQubitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OneQubitKind::Rx(a) => write!(f, "Rx({a:.4})"),
            OneQubitKind::Ry(a) => write!(f, "Ry({a:.4})"),
            OneQubitKind::Rz(a) => write!(f, "Rz({a:.4})"),
            OneQubitKind::Phase(a) => write!(f, "P({a:.4})"),
            OneQubitKind::U(t, p, l) => write!(f, "U({t:.4},{p:.4},{l:.4})"),
            k => write!(f, "{}", k.label()),
        }
    }
}

/// A gate of the circuit IR (Definition 1 of the paper, plus pragmatic
/// extensions).
///
/// ```
/// use qxmap_circuit::{Gate, OneQubitKind};
/// let g = Gate::cnot(0, 1);
/// assert!(g.is_cnot());
/// assert_eq!(g.qubits(), vec![0, 1]);
/// let h = Gate::one(OneQubitKind::H, 2);
/// assert_eq!(h.qubits(), vec![2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// A single-qubit gate `U_k(q_j, U)`.
    One {
        /// The operation applied.
        kind: OneQubitKind,
        /// Target qubit index.
        qubit: usize,
    },
    /// A controlled-NOT `CNOT_k(q_c, q_t)` with `q_c != q_t`.
    Cnot {
        /// Control qubit index.
        control: usize,
        /// Target qubit index.
        target: usize,
    },
    /// A SWAP of two qubits' states. Mapping inserts these; input circuits
    /// may also contain them (they are decomposed before mapping).
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// A scheduling barrier across the given qubits (no unitary effect).
    Barrier(Vec<usize>),
    /// Projective measurement of `qubit` into classical bit `clbit`.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        clbit: usize,
    },
}

/// The tag that opens a gate's record in every byte format that stores
/// gates — QXBC records, solve-cache journal records and skeleton tokens
/// — one per [`Gate`] variant. Single-qubit records follow the tag with
/// [`OneQubitKind::code`]. The codes are persisted: changing one changes
/// those formats' bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum GateTag {
    /// [`Gate::One`].
    One = 1,
    /// [`Gate::Cnot`].
    Cnot = 2,
    /// [`Gate::Swap`].
    Swap = 3,
    /// [`Gate::Barrier`].
    Barrier = 4,
    /// [`Gate::Measure`].
    Measure = 5,
}

impl GateTag {
    /// The tag's byte code.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The tag with this byte code, or `None` for a code no tag has.
    #[inline]
    pub fn from_code(code: u8) -> Option<GateTag> {
        Some(match code {
            1 => GateTag::One,
            2 => GateTag::Cnot,
            3 => GateTag::Swap,
            4 => GateTag::Barrier,
            5 => GateTag::Measure,
            _ => return None,
        })
    }
}

impl Gate {
    /// The tag of this gate's variant in the byte formats.
    #[inline]
    pub fn tag(&self) -> GateTag {
        match self {
            Gate::One { .. } => GateTag::One,
            Gate::Cnot { .. } => GateTag::Cnot,
            Gate::Swap { .. } => GateTag::Swap,
            Gate::Barrier(_) => GateTag::Barrier,
            Gate::Measure { .. } => GateTag::Measure,
        }
    }

    /// Convenience constructor for a single-qubit gate.
    pub fn one(kind: OneQubitKind, qubit: usize) -> Gate {
        Gate::One { kind, qubit }
    }

    /// Convenience constructor for a CNOT gate.
    ///
    /// # Panics
    ///
    /// Panics if `control == target`.
    pub fn cnot(control: usize, target: usize) -> Gate {
        assert_ne!(control, target, "CNOT control and target must differ");
        Gate::Cnot { control, target }
    }

    /// Convenience constructor for a SWAP gate.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn swap(a: usize, b: usize) -> Gate {
        assert_ne!(a, b, "SWAP qubits must differ");
        Gate::Swap { a, b }
    }

    /// The qubits this gate acts on, in gate-defined order.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Gate::One { qubit, .. } => vec![*qubit],
            Gate::Cnot { control, target } => vec![*control, *target],
            Gate::Swap { a, b } => vec![*a, *b],
            Gate::Barrier(qs) => qs.clone(),
            Gate::Measure { qubit, .. } => vec![*qubit],
        }
    }

    /// Whether every operand index fits a circuit with the given
    /// register sizes, with two-qubit gates referencing distinct qubits
    /// — the validation behind `Circuit::try_push`, shared with
    /// streaming decoders that never materialize a circuit.
    pub fn fits(&self, num_qubits: usize, num_clbits: usize) -> bool {
        match self {
            Gate::One { qubit, .. } => *qubit < num_qubits,
            Gate::Cnot { control, target } => {
                *control < num_qubits && *target < num_qubits && control != target
            }
            Gate::Swap { a, b } => *a < num_qubits && *b < num_qubits && a != b,
            Gate::Barrier(qs) => qs.iter().all(|&q| q < num_qubits),
            Gate::Measure { qubit, clbit } => *qubit < num_qubits && *clbit < num_clbits,
        }
    }

    /// Whether this gate is a CNOT.
    pub fn is_cnot(&self) -> bool {
        matches!(self, Gate::Cnot { .. })
    }

    /// Whether this gate touches two qubits (CNOT or SWAP).
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Cnot { .. } | Gate::Swap { .. })
    }

    /// Whether this gate contributes to the paper's cost metric
    /// (number of operations: single-qubit gates and CNOTs; barriers and
    /// measurements are free, SWAPs are decomposed before costing).
    pub fn is_costed(&self) -> bool {
        matches!(self, Gate::One { .. } | Gate::Cnot { .. })
    }

    /// Whether the gate acts on `qubit`.
    pub fn acts_on(&self, qubit: usize) -> bool {
        match self {
            Gate::One { qubit: q, .. } => *q == qubit,
            Gate::Cnot { control, target } => *control == qubit || *target == qubit,
            Gate::Swap { a, b } => *a == qubit || *b == qubit,
            Gate::Barrier(qs) => qs.contains(&qubit),
            Gate::Measure { qubit: q, .. } => *q == qubit,
        }
    }

    /// Returns the gate with all qubit indices rewritten through `f`.
    pub fn map_qubits(&self, mut f: impl FnMut(usize) -> usize) -> Gate {
        match self {
            Gate::One { kind, qubit } => Gate::One {
                kind: *kind,
                qubit: f(*qubit),
            },
            Gate::Cnot { control, target } => Gate::Cnot {
                control: f(*control),
                target: f(*target),
            },
            Gate::Swap { a, b } => Gate::Swap { a: f(*a), b: f(*b) },
            Gate::Barrier(qs) => Gate::Barrier(qs.iter().map(|&q| f(q)).collect()),
            Gate::Measure { qubit, clbit } => Gate::Measure {
                qubit: f(*qubit),
                clbit: *clbit,
            },
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::One { kind, qubit } => write!(f, "{kind} q{qubit}"),
            Gate::Cnot { control, target } => write!(f, "CNOT q{control}, q{target}"),
            Gate::Swap { a, b } => write!(f, "SWAP q{a}, q{b}"),
            Gate::Barrier(qs) => {
                write!(f, "barrier ")?;
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "q{q}")?;
                }
                Ok(())
            }
            Gate::Measure { qubit, clbit } => write!(f, "measure q{qubit} -> c{clbit}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(OneQubitKind::H.label(), "H");
        assert_eq!(OneQubitKind::Tdg.label(), "T†");
        assert_eq!(OneQubitKind::U(0.0, 0.0, 0.0).label(), "U");
    }

    #[test]
    fn inverse_pairs() {
        assert_eq!(OneQubitKind::S.inverse(), OneQubitKind::Sdg);
        assert_eq!(OneQubitKind::Tdg.inverse(), OneQubitKind::T);
        assert_eq!(OneQubitKind::Rx(0.5).inverse(), OneQubitKind::Rx(-0.5));
        assert!(OneQubitKind::X.is_self_inverse());
        assert!(!OneQubitKind::T.is_self_inverse());
    }

    #[test]
    fn u_inverse_swaps_phi_lambda() {
        // (U(θ,φ,λ))⁻¹ = U(−θ,−λ,−φ)
        assert_eq!(
            OneQubitKind::U(1.0, 2.0, 3.0).inverse(),
            OneQubitKind::U(-1.0, -3.0, -2.0)
        );
    }

    #[test]
    fn codes_round_trip_every_kind_and_tag() {
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
            OneQubitKind::Rx(0.5),
            OneQubitKind::Ry(-1.25),
            OneQubitKind::Rz(2.0),
            OneQubitKind::Phase(0.75),
            OneQubitKind::U(0.1, -0.2, 0.3),
        ];
        for (code, kind) in kinds.into_iter().enumerate() {
            assert_eq!(usize::from(kind.code()), code);
            let mut angles = [0.0; 3];
            for (slot, a) in angles.iter_mut().zip(kind.angles()) {
                *slot = a;
            }
            assert_eq!(
                OneQubitKind::angle_count(kind.code()),
                Some(kind.angles().len())
            );
            assert_eq!(OneQubitKind::from_code(kind.code(), angles), Some(kind));
        }
        assert_eq!(OneQubitKind::angle_count(14), None);
        assert_eq!(OneQubitKind::from_code(14, [0.0; 3]), None);
        let gates = [
            Gate::one(OneQubitKind::H, 0),
            Gate::cnot(0, 1),
            Gate::swap(0, 1),
            Gate::Barrier(vec![0]),
            Gate::Measure { qubit: 0, clbit: 0 },
        ];
        for (i, gate) in gates.iter().enumerate() {
            assert_eq!(usize::from(gate.tag().code()), i + 1);
            assert_eq!(GateTag::from_code(gate.tag().code()), Some(gate.tag()));
        }
        assert_eq!(GateTag::from_code(0), None);
        assert_eq!(GateTag::from_code(6), None);
    }

    #[test]
    fn cnot_qubits_ordered_control_first() {
        let g = Gate::cnot(3, 1);
        assert_eq!(g.qubits(), vec![3, 1]);
        assert!(g.is_cnot());
        assert!(g.is_two_qubit());
        assert!(g.is_costed());
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn cnot_rejects_equal_qubits() {
        let _ = Gate::cnot(2, 2);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn swap_rejects_equal_qubits() {
        let _ = Gate::swap(1, 1);
    }

    #[test]
    fn acts_on_checks_all_operands() {
        let g = Gate::cnot(0, 2);
        assert!(g.acts_on(0));
        assert!(!g.acts_on(1));
        assert!(g.acts_on(2));
        let b = Gate::Barrier(vec![1, 3]);
        assert!(b.acts_on(3));
        assert!(!b.acts_on(0));
        assert!(!b.is_costed());
    }

    #[test]
    fn map_qubits_rewrites_operands() {
        let g = Gate::cnot(0, 1).map_qubits(|q| q + 10);
        assert_eq!(g, Gate::cnot(10, 11));
        let m = Gate::Measure { qubit: 2, clbit: 5 }.map_qubits(|q| q * 2);
        assert_eq!(m, Gate::Measure { qubit: 4, clbit: 5 });
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Gate::cnot(1, 0).to_string(), "CNOT q1, q0");
        assert_eq!(Gate::one(OneQubitKind::H, 2).to_string(), "H q2");
        assert_eq!(
            Gate::Measure { qubit: 0, clbit: 0 }.to_string(),
            "measure q0 -> c0"
        );
    }
}

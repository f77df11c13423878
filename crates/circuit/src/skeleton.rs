//! Canonical, qubit-relabel-invariant circuit skeletons.
//!
//! The paper frames mapping cost as a function of the circuit's
//! *interaction structure* and the device's coupling graph alone: renaming
//! the logical registers changes nothing about how expensive a circuit is
//! to map, nor about the physical circuit a mapper produces. That makes
//! the canonical skeleton the natural key for whole-solve result caches —
//! two QASM files with renamed registers but the same gate structure hash
//! to the same entry, and a cached physical result can be re-served after
//! translating its layouts through the register correspondence.
//!
//! [`CircuitSkeleton`] canonicalizes a circuit by renaming qubits in
//! order of first appearance in the gate list (idle qubits take the
//! remaining labels in index order). Two circuits have equal skeletons
//! iff one is the other with qubits renamed — same gate kinds, same
//! order, same classical bits; circuit *names* are ignored. The CNOT
//! structure (what the symbolic formulation actually maps, Definition 4)
//! is therefore shared, and so is everything a [`crate::Circuit`]-level
//! mapping result embeds (single-qubit gates travel along relabeled).

use std::hash::{Hash, Hasher};

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::hash::Fnv1a;

/// The canonical form of a circuit under qubit relabeling.
///
/// Equality and hashing consider only the canonical gate stream (plus
/// the register sizes). Equal skeletons *guarantee* the circuits are
/// relabelings of each other (a match is never wrong — the direction
/// result caches rely on), and renamings of a circuit compare equal in
/// all but one conservative corner: when a qubit's *first* appearance is
/// inside a barrier, label assignment follows the barrier's stored
/// operand order, so two renamings listing those operands differently
/// may compare unequal — a harmless missed match, since barriers are
/// operand-order-insensitive sets:
///
/// ```
/// use qxmap_circuit::{Circuit, CircuitSkeleton};
///
/// let mut a = Circuit::new(3);
/// a.cx(0, 1).h(1).cx(1, 2);
/// // The same circuit with registers renamed q0→q2, q1→q0, q2→q1.
/// let mut b = Circuit::new(3);
/// b.cx(2, 0).h(0).cx(0, 1);
/// assert_eq!(CircuitSkeleton::of(&a), CircuitSkeleton::of(&b));
/// assert_eq!(
///     CircuitSkeleton::of(&a).fingerprint(),
///     CircuitSkeleton::of(&b).fingerprint(),
/// );
///
/// // A structurally different circuit does not collide.
/// let mut c = Circuit::new(3);
/// c.cx(0, 1).t(1).cx(1, 2);
/// assert_ne!(CircuitSkeleton::of(&a), CircuitSkeleton::of(&c));
/// ```
#[derive(Debug, Clone)]
pub struct CircuitSkeleton {
    num_qubits: usize,
    num_clbits: usize,
    /// The canonical gate stream, encoded as tokens (gate tags, canonical
    /// qubit labels, angle bit patterns). Two circuits are relabelings of
    /// each other iff their token streams (and register sizes) agree.
    tokens: Vec<u64>,
    /// `canon[q]` is the canonical label of original qubit `q`.
    canon: Vec<usize>,
}

impl CircuitSkeleton {
    /// Computes the canonical skeleton of `circuit`.
    ///
    /// Qubits are renamed by first appearance scanning the gate list in
    /// order (for a CNOT the control is visited before the target); idle
    /// qubits take the remaining labels in ascending index order, so
    /// circuits that differ only in *which* qubits idle still match.
    pub fn of(circuit: &Circuit) -> CircuitSkeleton {
        let mut builder = SkeletonBuilder::new(circuit.num_qubits(), circuit.num_clbits());
        for gate in circuit.gates() {
            builder.push(gate);
        }
        builder.finish()
    }

    /// Number of logical qubits of the underlying circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits of the underlying circuit.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The relabeling this canonicalization applied: entry `q` is the
    /// canonical label of the underlying circuit's qubit `q`. A
    /// permutation of `0..num_qubits`.
    pub fn canonical_labels(&self) -> &[usize] {
        &self.canon
    }

    /// The canonical token stream — the raw form behind equality,
    /// hashing and [`CircuitSkeleton::fingerprint`]. Exposed (together
    /// with [`CircuitSkeleton::from_parts`]) so external stores can
    /// persist skeletons byte-for-byte and reconstruct them in another
    /// process; the encoding is stable for a given journal version.
    pub fn tokens(&self) -> &[u64] {
        &self.tokens
    }

    /// Rebuilds a skeleton from persisted raw parts: the register sizes,
    /// the canonical token stream, and the canonicalization's label
    /// permutation (`canonical_labels[q]` = canonical label of original
    /// qubit `q`).
    ///
    /// Returns `None` unless `canonical_labels` is a permutation of
    /// `0..num_qubits` — the structural invariant every consumer
    /// (correspondence translation, layout remapping) relies on. The
    /// token stream itself is taken as-is: it only ever participates in
    /// equality and hashing, so a corrupted stream yields a key that
    /// matches nothing, never an out-of-bounds access. Callers keep an
    /// end-to-end checksum over persisted skeletons (as the solve-cache
    /// journal does, per record) to reject accidental corruption outright.
    pub fn from_parts(
        num_qubits: usize,
        num_clbits: usize,
        tokens: Vec<u64>,
        canonical_labels: Vec<usize>,
    ) -> Option<CircuitSkeleton> {
        if canonical_labels.len() != num_qubits {
            return None;
        }
        let mut seen = vec![false; num_qubits];
        for &l in &canonical_labels {
            if l >= num_qubits || seen[l] {
                return None;
            }
            seen[l] = true;
        }
        Some(CircuitSkeleton {
            num_qubits,
            num_clbits,
            tokens,
            canon: canonical_labels,
        })
    }

    /// A stable 64-bit digest of the canonical form (FNV-1a over the
    /// register sizes and the token stream). Equal skeletons have equal
    /// fingerprints; the fingerprint does not depend on process, platform
    /// or run.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.num_qubits as u64);
        h.write_u64(self.num_clbits as u64);
        for &t in &self.tokens {
            h.write_u64(t);
        }
        h.finish()
    }

    /// The qubit correspondence between this skeleton's circuit and
    /// `solved`'s circuit: `result[q]` is the qubit of `solved`'s circuit
    /// playing the role of this circuit's qubit `q`. Returns `None` when
    /// the canonical forms differ (the circuits are not relabelings of
    /// each other).
    ///
    /// This is what lets a cached mapping result answer a renamed-register
    /// request: the solved physical circuit is reused as-is and its
    /// logical→physical layouts are read through the correspondence.
    ///
    /// ```
    /// use qxmap_circuit::{Circuit, CircuitSkeleton};
    ///
    /// let mut solved = Circuit::new(2);
    /// solved.cx(0, 1);
    /// let mut renamed = Circuit::new(2);
    /// renamed.cx(1, 0);
    /// let sigma = CircuitSkeleton::of(&renamed)
    ///     .correspondence_to(&CircuitSkeleton::of(&solved))
    ///     .expect("same structure");
    /// // `renamed`'s q1 (the control) plays `solved`'s q0's role.
    /// assert_eq!(sigma, vec![1, 0]);
    /// ```
    pub fn correspondence_to(&self, solved: &CircuitSkeleton) -> Option<Vec<usize>> {
        if self != solved {
            return None;
        }
        // canonical label -> solved original qubit.
        let mut from_label = vec![0usize; solved.num_qubits];
        for (q, &l) in solved.canon.iter().enumerate() {
            from_label[l] = q;
        }
        Some(self.canon.iter().map(|&l| from_label[l]).collect())
    }
}

/// Streaming construction of a [`CircuitSkeleton`], one gate at a time.
///
/// This is the canonicalization behind [`CircuitSkeleton::of`], exposed
/// so front-ends (the QASM parser, binary circuit decoders) can compute
/// a skeleton *during* their single pass over the gate stream without
/// materializing a [`Circuit`] first — the entry ticket to fingerprint
/// cache probes that skip circuit construction entirely on a warm hit.
/// Feeding the builder a circuit's gates in order produces a skeleton
/// identical to `CircuitSkeleton::of` (which is itself implemented on
/// top of this builder):
///
/// ```
/// use qxmap_circuit::{Circuit, CircuitSkeleton, SkeletonBuilder};
///
/// let mut c = Circuit::new(3);
/// c.cx(0, 1).h(1).cx(1, 2);
/// let mut b = SkeletonBuilder::new(c.num_qubits(), c.num_clbits());
/// for gate in c.gates() {
///     b.push(gate);
/// }
/// assert_eq!(b.finish(), CircuitSkeleton::of(&c));
/// ```
///
/// The builder does not validate gates against the register sizes; feed
/// it the same gate stream a [`Circuit`] would accept.
#[derive(Debug, Clone)]
pub struct SkeletonBuilder {
    num_qubits: usize,
    num_clbits: usize,
    tokens: Vec<u64>,
    canon: Vec<Option<usize>>,
    next: usize,
}

impl SkeletonBuilder {
    /// Starts a skeleton for a circuit with the given register sizes.
    pub fn new(num_qubits: usize, num_clbits: usize) -> SkeletonBuilder {
        SkeletonBuilder {
            num_qubits,
            num_clbits,
            tokens: Vec::new(),
            canon: vec![None; num_qubits],
            next: 0,
        }
    }

    /// Canonical label of original qubit `q`, assigned on first
    /// appearance.
    fn label(&mut self, q: usize) -> u64 {
        let next = &mut self.next;
        let l = *self.canon[q].get_or_insert_with(|| {
            let l = *next;
            *next += 1;
            l
        });
        l as u64
    }

    /// Appends the next gate of the stream to the canonical form: its
    /// [`GateTag`](crate::GateTag) code, then its operands — for a
    /// single-qubit gate the kind's code and angle bit patterns first.
    /// Angles compare by bit pattern: a near-miss in the last ulp is a
    /// cache miss, never a wrong hit.
    #[inline]
    pub fn push(&mut self, gate: &Gate) {
        self.tokens.push(u64::from(gate.tag().code()));
        match gate {
            Gate::One { kind, qubit } => {
                self.tokens.push(u64::from(kind.code()));
                self.tokens.extend(kind.angles().map(f64::to_bits));
                let l = self.label(*qubit);
                self.tokens.push(l);
            }
            Gate::Cnot {
                control: a,
                target: b,
            }
            | Gate::Swap { a, b } => {
                // A SWAP is symmetric as an operation but its stored
                // operand order fixes its CNOT decomposition, so the
                // order is kept.
                let a = self.label(*a);
                let b = self.label(*b);
                self.tokens.push(a);
                self.tokens.push(b);
            }
            Gate::Barrier(qs) => {
                // A barrier is a *set* of qubits: labels are assigned in
                // stored order (deterministic) but emitted sorted, so
                // operand order is irrelevant.
                self.tokens.push(qs.len() as u64);
                let start = self.tokens.len();
                for &q in qs {
                    let l = self.label(q);
                    self.tokens.push(l);
                }
                self.tokens[start..].sort_unstable();
            }
            Gate::Measure { qubit, clbit } => {
                let l = self.label(*qubit);
                self.tokens.push(l);
                self.tokens.push(*clbit as u64);
            }
        }
    }

    /// Completes the canonicalization: idle qubits take the remaining
    /// labels in ascending index order.
    pub fn finish(self) -> CircuitSkeleton {
        let mut next = self.next;
        let canon = self
            .canon
            .into_iter()
            .map(|l| {
                l.unwrap_or_else(|| {
                    let l = next;
                    next += 1;
                    l
                })
            })
            .collect();
        CircuitSkeleton {
            num_qubits: self.num_qubits,
            num_clbits: self.num_clbits,
            tokens: self.tokens,
            canon,
        }
    }
}

impl PartialEq for CircuitSkeleton {
    fn eq(&self, other: &CircuitSkeleton) -> bool {
        // `canon` is bookkeeping about the *input* labels, not part of
        // the canonical form.
        self.num_qubits == other.num_qubits
            && self.num_clbits == other.num_clbits
            && self.tokens == other.tokens
    }
}

impl Eq for CircuitSkeleton {}

impl Hash for CircuitSkeleton {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num_qubits.hash(state);
        self.num_clbits.hash(state);
        self.tokens.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::paper_example;

    /// The paper example with its registers permuted through `sigma`
    /// (original qubit q appears as sigma[q]).
    fn relabeled(circuit: &Circuit, sigma: &[usize]) -> Circuit {
        circuit.map_qubits(circuit.num_qubits(), |q| sigma[q])
    }

    #[test]
    fn relabeling_preserves_the_skeleton() {
        let c = paper_example();
        let base = CircuitSkeleton::of(&c);
        for sigma in [[1, 0, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1], [1, 2, 3, 0]] {
            let r = relabeled(&c, &sigma);
            let skel = CircuitSkeleton::of(&r);
            assert_eq!(base, skel, "{sigma:?}");
            assert_eq!(base.fingerprint(), skel.fingerprint(), "{sigma:?}");
        }
    }

    #[test]
    fn gate_structure_differences_are_detected() {
        let mut a = Circuit::new(2);
        a.cx(0, 1);
        // Reversed CNOT: same interaction pair, different structure.
        let mut b = Circuit::new(2);
        b.cx(1, 0);
        assert_eq!(CircuitSkeleton::of(&a), CircuitSkeleton::of(&b));
        // ... because relabeling q0↔q1 maps one onto the other. A second
        // gate pins the labels and separates them:
        a.h(0);
        let mut c = Circuit::new(2);
        c.cx(1, 0);
        c.h(0);
        assert_ne!(CircuitSkeleton::of(&a), CircuitSkeleton::of(&c));
    }

    #[test]
    fn single_qubit_gate_kinds_and_angles_matter() {
        let mut a = Circuit::new(1);
        a.rx(0.5, 0);
        let mut b = Circuit::new(1);
        b.rx(0.5, 0);
        let mut c = Circuit::new(1);
        c.rx(0.25, 0);
        let mut d = Circuit::new(1);
        d.ry(0.5, 0);
        assert_eq!(CircuitSkeleton::of(&a), CircuitSkeleton::of(&b));
        assert_ne!(CircuitSkeleton::of(&a), CircuitSkeleton::of(&c));
        assert_ne!(CircuitSkeleton::of(&a), CircuitSkeleton::of(&d));
    }

    #[test]
    fn names_and_idle_qubit_choice_are_ignored() {
        let mut a = Circuit::new(3).named("left");
        a.cx(0, 1); // q2 idle
        let mut b = Circuit::new(3).named("right");
        b.cx(1, 2); // q0 idle
        assert_eq!(CircuitSkeleton::of(&a), CircuitSkeleton::of(&b));
        // Register sizes still matter.
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        assert_ne!(CircuitSkeleton::of(&a), CircuitSkeleton::of(&c));
    }

    #[test]
    fn clbits_and_measurements_are_part_of_the_form() {
        let mut a = Circuit::with_clbits(2, 2);
        a.cx(0, 1);
        a.measure(0, 0);
        let mut b = Circuit::with_clbits(2, 2);
        b.cx(0, 1);
        b.measure(0, 1);
        assert_ne!(CircuitSkeleton::of(&a), CircuitSkeleton::of(&b));
    }

    #[test]
    fn correspondence_recovers_the_relabeling() {
        let c = paper_example();
        let solved = CircuitSkeleton::of(&c);
        let sigma = [2usize, 0, 3, 1];
        let r = relabeled(&c, &sigma);
        let corr = CircuitSkeleton::of(&r)
            .correspondence_to(&solved)
            .expect("relabelings correspond");
        // r's qubit sigma[q] plays c's qubit q's role: corr[sigma[q]] == q.
        for (q, &s) in sigma.iter().enumerate() {
            assert_eq!(corr[s], q);
        }
        // Non-matching structures have no correspondence.
        let mut other = Circuit::new(4);
        other.cx(0, 1);
        assert!(CircuitSkeleton::of(&other)
            .correspondence_to(&solved)
            .is_none());
    }

    #[test]
    fn barriers_and_swaps_tokenize() {
        let mut a = Circuit::new(3);
        a.swap_gate(0, 1);
        a.barrier();
        let mut b = Circuit::new(3);
        b.swap_gate(1, 0); // operand order fixes the decomposition
        b.barrier();
        assert_eq!(CircuitSkeleton::of(&a), CircuitSkeleton::of(&b));
        let skel = CircuitSkeleton::of(&a);
        assert_eq!(skel.num_qubits(), 3);
        assert_eq!(skel.canonical_labels().len(), 3);
    }

    #[test]
    fn raw_parts_round_trip_and_validate() {
        let c = paper_example();
        let skel = CircuitSkeleton::of(&c);
        let rebuilt = CircuitSkeleton::from_parts(
            skel.num_qubits(),
            skel.num_clbits(),
            skel.tokens().to_vec(),
            skel.canonical_labels().to_vec(),
        )
        .expect("round trip");
        assert_eq!(skel, rebuilt);
        assert_eq!(skel.fingerprint(), rebuilt.fingerprint());
        assert_eq!(skel.canonical_labels(), rebuilt.canonical_labels());
        // Non-permutation label vectors are rejected.
        assert!(CircuitSkeleton::from_parts(2, 0, vec![], vec![0, 0]).is_none());
        assert!(CircuitSkeleton::from_parts(2, 0, vec![], vec![0, 2]).is_none());
        assert!(CircuitSkeleton::from_parts(2, 0, vec![], vec![0]).is_none());
    }

    #[test]
    fn streaming_builder_matches_of_gate_by_gate() {
        let mut c = Circuit::with_clbits(4, 2);
        c.cx(2, 0).h(3).swap_gate(1, 3).rx(0.25, 2);
        c.push(Gate::Barrier(vec![3, 0]));
        c.measure(2, 1);
        let mut b = SkeletonBuilder::new(c.num_qubits(), c.num_clbits());
        for gate in c.gates() {
            b.push(gate);
        }
        let streamed = b.finish();
        let whole = CircuitSkeleton::of(&c);
        assert_eq!(streamed, whole);
        assert_eq!(streamed.fingerprint(), whole.fingerprint());
        assert_eq!(streamed.canonical_labels(), whole.canonical_labels());
        // Idle qubits still get labels when no gate was ever pushed.
        let empty = SkeletonBuilder::new(3, 0).finish();
        assert_eq!(empty, CircuitSkeleton::of(&Circuit::new(3)));
        assert_eq!(empty.canonical_labels(), &[0, 1, 2]);
    }

    #[test]
    fn fingerprint_is_deterministic_and_pinned() {
        let c = paper_example();
        assert_eq!(
            CircuitSkeleton::of(&c).fingerprint(),
            CircuitSkeleton::of(&c).fingerprint()
        );
        // Hard-coded pins: fingerprints are documented as stable across
        // processes (external stores may persist them), so any change to
        // the token encoding or the hash mix must fail here and be made
        // deliberately, updating these constants in the same commit.
        let mut t = Circuit::new(2);
        t.cx(0, 1);
        assert_eq!(CircuitSkeleton::of(&t).fingerprint(), 0x11c4962150d872a4);
        assert_eq!(CircuitSkeleton::of(&c).fingerprint(), 0xa995d92c9ca44687);
    }
}

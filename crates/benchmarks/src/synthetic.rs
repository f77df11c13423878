//! Seeded synthetic circuits matching benchmark profiles.
//!
//! The generator reproduces the *instance shape* that drives the exact
//! mapper's behaviour: qubit count, CNOT count (the symbolic formulation's
//! size is `n·m·|G|`), single-qubit gate count (re-inserted after
//! mapping), and reversible-netlist-style locality (consecutive CNOTs
//! tend to share a qubit, as Toffoli decompositions do).

use qxmap_circuit::{Circuit, Fnv1a, OneQubitKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profiles::BenchmarkProfile;

/// Builds the deterministic stand-in circuit for a Table 1 profile
/// (seeded by the FNV-1a hash of the benchmark name).
pub fn circuit_for(profile: &BenchmarkProfile) -> Circuit {
    synthetic_circuit(
        profile.qubits,
        profile.single_qubit_gates,
        profile.cnots,
        Fnv1a::hash(profile.name.as_bytes()),
    )
    .named(profile.name)
}

/// Generates a circuit with exactly `single_qubit_gates` one-qubit gates
/// and `cnots` CNOTs over `num_qubits` qubits, deterministically from
/// `seed`.
///
/// Locality model: with probability 0.6 a CNOT shares one qubit with its
/// predecessor (the hallmark of decomposed Toffoli networks); single-qubit
/// gates are drawn from the Clifford+T set that MCT decompositions
/// produce (H, T, T†, X) and interleaved uniformly.
///
/// # Panics
///
/// Panics if `num_qubits < 2` while `cnots > 0`.
pub fn synthetic_circuit(
    num_qubits: usize,
    single_qubit_gates: usize,
    cnots: usize,
    seed: u64,
) -> Circuit {
    assert!(
        cnots == 0 || num_qubits >= 2,
        "CNOTs need at least two qubits"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circuit = Circuit::new(num_qubits);

    // Decide where the single-qubit gates fall between CNOTs.
    let slots = cnots + 1;
    let mut one_qubit_at = vec![0usize; slots];
    for _ in 0..single_qubit_gates {
        let s = rng.gen_range(0..slots);
        one_qubit_at[s] += 1;
    }

    let kinds = [
        OneQubitKind::H,
        OneQubitKind::T,
        OneQubitKind::Tdg,
        OneQubitKind::X,
    ];
    let mut prev: Option<(usize, usize)> = None;
    for (slot, &ones_here) in one_qubit_at.iter().enumerate() {
        for _ in 0..ones_here {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let q = rng.gen_range(0..num_qubits);
            circuit.one(kind, q);
        }
        if slot == cnots {
            break;
        }
        let (c, t) = next_pair(&mut rng, num_qubits, prev);
        circuit.cx(c, t);
        prev = Some((c, t));
    }
    circuit
}

fn next_pair(rng: &mut StdRng, n: usize, prev: Option<(usize, usize)>) -> (usize, usize) {
    if let Some((pc, pt)) = prev {
        if n > 2 && rng.gen_bool(0.6) {
            // Share one qubit with the previous CNOT.
            let shared = if rng.gen_bool(0.5) { pc } else { pt };
            let mut other = rng.gen_range(0..n);
            while other == shared {
                other = rng.gen_range(0..n);
            }
            return if rng.gen_bool(0.5) {
                (shared, other)
            } else {
                (other, shared)
            };
        }
    }
    let c = rng.gen_range(0..n);
    let mut t = rng.gen_range(0..n);
    while t == c {
        t = rng.gen_range(0..n);
    }
    (c, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::table1_profiles;

    #[test]
    fn exact_gate_counts_for_all_profiles() {
        for p in table1_profiles() {
            let c = circuit_for(&p);
            assert_eq!(c.num_qubits(), p.qubits, "{}", p.name);
            assert_eq!(c.num_cnots(), p.cnots, "{}", p.name);
            assert_eq!(
                c.num_single_qubit_gates(),
                p.single_qubit_gates,
                "{}",
                p.name
            );
            assert_eq!(c.original_cost(), p.original_cost(), "{}", p.name);
        }
    }

    #[test]
    fn deterministic_by_name() {
        let p = &table1_profiles()[0];
        assert_eq!(circuit_for(p), circuit_for(p));
    }

    #[test]
    fn different_names_differ() {
        let ps = table1_profiles();
        let a = circuit_for(&ps[0]);
        let b = circuit_for(&ps[1]);
        assert_ne!(a.gates(), b.gates());
    }

    #[test]
    fn locality_is_present() {
        // At least a third of consecutive CNOT pairs share a qubit.
        let c = synthetic_circuit(5, 0, 200, 7);
        let skel = c.cnot_skeleton();
        let sharing = skel
            .windows(2)
            .filter(|w| {
                let (a, b) = (w[0], w[1]);
                a.0 == b.0 || a.0 == b.1 || a.1 == b.0 || a.1 == b.1
            })
            .count();
        assert!(sharing * 3 >= skel.len(), "{sharing}/{}", skel.len());
    }

    #[test]
    fn zero_gates_edge_cases() {
        let c = synthetic_circuit(1, 5, 0, 3);
        assert_eq!(c.num_single_qubit_gates(), 5);
        let c = synthetic_circuit(3, 0, 0, 3);
        assert_eq!(c.gates().len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn cnots_need_two_qubits() {
        let _ = synthetic_circuit(1, 0, 1, 0);
    }

    #[test]
    fn seeds_change_output() {
        assert_ne!(
            synthetic_circuit(4, 5, 10, 1),
            synthetic_circuit(4, 5, 10, 2)
        );
    }
}

//! The fixed, versioned benchmark corpus behind the perf-trajectory
//! harness.
//!
//! `BENCH_corpus.json` only means something if every run measures the
//! *same* workloads: the corpus is a manifest of named (circuit, device,
//! deadline) entries spanning the regimes the system serves — Table 1
//! circuits in the exact regime, larger synthetic profiles past it,
//! generated heavy-hex / line topologies, and the ≥50-qubit
//! [`crate::famous`] workloads the windowed engine exists for. The
//! manifest carries a [schema version](CORPUS_SCHEMA_VERSION) and a
//! content hash ([`manifest_hash`]) covering every entry's name, device,
//! deadline, class and circuit fingerprint, so a baseline JSON and a
//! fresh run can prove they measured the same thing (and `bench_diff`
//! can refuse to compare apples to oranges).
//!
//! Devices are named, not constructed, because this crate sits below
//! `qxmap-arch`: the harness resolves them through
//! `qxmap_arch::devices::by_name`. Every name used here is covered by
//! that parser (asserted end to end by the harness's own tests).

use qxmap_circuit::{Circuit, CircuitSkeleton, Fnv1a};

use crate::famous;
use crate::profiles::table1_profiles;
use crate::synthetic::{circuit_for, synthetic_circuit};

/// Version of the corpus *shape*: bump when entries are added, removed,
/// renamed or re-targeted so trajectory tooling can tell a corpus change
/// from a performance change.
pub const CORPUS_SCHEMA_VERSION: u32 = 1;

/// Which regime an entry exercises — the harness drives each class
/// differently and reports them in separate sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusClass {
    /// In the exact method's regime: the portfolio races the SAT engine
    /// and a proved optimum is the expected answer.
    Exact,
    /// Past the exact regime: the portfolio answers heuristically within
    /// the deadline.
    Large,
    /// ≥50-qubit workloads mapped through the windowed engine *and*
    /// every pure heuristic — the windowed-vs-heuristic trajectory rows
    /// (`BENCH_window.json`).
    Windowed,
}

impl CorpusClass {
    /// Stable tag used in manifests and JSON artifacts.
    pub fn tag(self) -> &'static str {
        match self {
            CorpusClass::Exact => "exact",
            CorpusClass::Large => "large",
            CorpusClass::Windowed => "windowed",
        }
    }
}

/// One corpus workload: a circuit to map, the device to map it onto, and
/// the wall-clock budget a production caller would grant it.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Stable row name (circuit name, unique across the corpus).
    pub name: String,
    /// Device name, resolvable by `qxmap_arch::devices::by_name`.
    pub device: &'static str,
    /// Per-solve wall-clock deadline in milliseconds.
    pub deadline_ms: u64,
    /// The regime this entry exercises.
    pub class: CorpusClass,
    /// Whether the entry belongs to the reduced CI smoke subset. Smoke
    /// rows are a strict subset of the full corpus, so a smoke run's
    /// rows always intersect a full baseline's.
    pub smoke: bool,
    /// The workload itself.
    pub circuit: Circuit,
}

/// The full fixed corpus, in manifest order.
///
/// The selection is deliberate, not exhaustive:
///
/// * six Table 1 rows spanning 3–5 qubits on QX4 (the paper's own
///   regime, where proved optima gate solution *quality*);
/// * two of those re-targeted onto a generated heavy-hex lattice (the
///   topology library on the exact path);
/// * synthetic profiles at 8 and 16 qubits on QX5/Tokyo-class devices
///   and a line topology (the heuristic regime's latency trajectory);
/// * the four ≥50-qubit [`crate::famous`] workloads on heavy-hex-4
///   (the windowed engine's corpus, carried over from `bench_window`).
pub fn corpus() -> Vec<CorpusEntry> {
    let mut entries = Vec::new();
    let table1 = table1_profiles();
    let mut table1_row = |name: &str, device: &'static str, smoke: bool| {
        let profile = table1
            .iter()
            .find(|p| p.name == name)
            .expect("corpus names come from Table 1");
        entries.push(CorpusEntry {
            name: match device {
                "qx4" => name.to_string(),
                _ => format!("{name}@{device}"),
            },
            device,
            deadline_ms: 10_000,
            class: CorpusClass::Exact,
            smoke,
            circuit: circuit_for(profile),
        });
    };
    table1_row("3_17_13", "qx4", true);
    table1_row("ex-1_166", "qx4", true);
    table1_row("ham3_102", "qx4", false);
    table1_row("4gt11_84", "qx4", false);
    table1_row("4mod5-v1_22", "qx4", false);
    table1_row("alu-v0_27", "qx4", false);
    table1_row("ex-1_166", "heavy-hex-1", true);
    table1_row("4gt11_84", "heavy-hex-1", false);

    let mut synthetic =
        |qubits: usize, ones: usize, cnots: usize, seed: u64, device: &'static str, smoke: bool| {
            let name = format!("synth_{qubits}q_{cnots}cx@{device}");
            entries.push(CorpusEntry {
                name: name.clone(),
                device,
                deadline_ms: 10_000,
                class: CorpusClass::Large,
                smoke,
                circuit: synthetic_circuit(qubits, ones, cnots, seed).named(name),
            });
        };
    synthetic(8, 24, 40, 0xC0FFEE, "qx5", true);
    synthetic(8, 24, 40, 0xC0FFEE, "linear-8", false);
    synthetic(16, 60, 90, 0xBEEF, "tokyo", true);
    synthetic(16, 60, 90, 0xBEEF, "grid-4x4", false);

    let mut windowed = |circuit: Circuit, smoke: bool| {
        entries.push(CorpusEntry {
            name: circuit.name().to_string(),
            device: "heavy-hex-4",
            deadline_ms: 30_000,
            class: CorpusClass::Windowed,
            smoke,
            circuit,
        });
    };
    windowed(famous::ghz(52), false);
    windowed(famous::ripple_adder(24), false);
    windowed(famous::toffoli_chain(50, 25), false);
    windowed(famous::qft_blocks(9, 4), true);

    entries
}

/// The reduced CI subset: every entry with [`CorpusEntry::smoke`] set.
pub fn smoke_corpus() -> Vec<CorpusEntry> {
    corpus().into_iter().filter(|e| e.smoke).collect()
}

/// A stable FNV-1a content hash over the *full* corpus manifest — every
/// entry's name, device, deadline, class and canonical circuit
/// fingerprint, plus [`CORPUS_SCHEMA_VERSION`]. Two builds agree on this
/// hash exactly when they would measure the same workloads, so the hash
/// travels in every `BENCH_corpus.json` and `bench_diff` refuses
/// cross-corpus comparisons.
///
/// The smoke subset hashes identically (it is a marked subset of the
/// same manifest, not a different corpus).
pub fn manifest_hash() -> u64 {
    let mut h = Fnv1a::new();
    let mut mix = |bytes: &[u8]| {
        h.write(bytes);
        h.write(&[0xff]); // field separator
    };
    mix(&CORPUS_SCHEMA_VERSION.to_le_bytes());
    for entry in corpus() {
        mix(entry.name.as_bytes());
        mix(entry.device.as_bytes());
        mix(&entry.deadline_ms.to_le_bytes());
        mix(entry.class.tag().as_bytes());
        mix(&CircuitSkeleton::of(&entry.circuit)
            .fingerprint()
            .to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_classes_span_all_three() {
        let entries = corpus();
        let mut names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), entries.len(), "duplicate corpus row name");
        for class in [
            CorpusClass::Exact,
            CorpusClass::Large,
            CorpusClass::Windowed,
        ] {
            assert!(entries.iter().any(|e| e.class == class), "{class:?} empty");
        }
    }

    #[test]
    fn smoke_subset_is_nonempty_and_strict() {
        let smoke = smoke_corpus();
        assert!(!smoke.is_empty());
        assert!(smoke.len() < corpus().len());
        // The smoke subset still spans every class, so the CI gate
        // exercises all three harness paths.
        for class in [
            CorpusClass::Exact,
            CorpusClass::Large,
            CorpusClass::Windowed,
        ] {
            assert!(smoke.iter().any(|e| e.class == class), "{class:?} unsmoked");
        }
    }

    #[test]
    fn manifest_hash_is_stable_within_a_build() {
        assert_eq!(manifest_hash(), manifest_hash());
    }

    #[test]
    fn manifest_hash_matches_the_committed_artifacts() {
        // Every committed `BENCH_*.json` carries this hash, and
        // `bench_diff` refuses to compare across a different one.
        assert_eq!(manifest_hash(), 0xa8aa_4b16_e87e_226e);
    }

    #[test]
    fn windowed_entries_are_past_the_exact_regime() {
        for e in corpus() {
            if e.class == CorpusClass::Windowed {
                assert!(e.circuit.num_qubits() >= 36, "{}", e.name);
            } else {
                assert!(e.circuit.num_qubits() <= 16, "{}", e.name);
            }
        }
    }
}

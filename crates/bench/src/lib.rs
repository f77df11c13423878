//! # qxmap-bench
//!
//! The evaluation harness: regenerates every exhibit of the paper's
//! Section 5 (see `DESIGN.md` §4 for the experiment index).
//!
//! * `cargo run --release -p qxmap-bench --bin table1` — regenerates
//!   **Table 1** (all column groups + the IBM baseline + the headline
//!   averages). `--quick` restricts to the smaller rows; `--full` removes
//!   conflict budgets so every minimal result is *proved* minimal.
//! * `cargo run --release -p qxmap-bench --bin encoding_stats` — prints
//!   SAT-instance sizes per benchmark and strategy.
//!
//! The **perf-trajectory harness** (see `GUIDE.md`, "Measuring
//! performance") lives here too:
//!
//! * `--bin bench_corpus` — runs the fixed, versioned
//!   [`qxmap_benchmarks::corpus`] through cold and warm solves and
//!   writes `BENCH_corpus.json` (plus the windowed-vs-heuristic rows as
//!   `BENCH_window.json`); `--smoke` restricts to the marked CI subset.
//! * `--bin bench_soak` — boots the serving tier on loopback, drives
//!   concurrent mixed traffic under deterministic seeds, and writes
//!   `BENCH_serve.json` (throughput, percentiles, overload/deadline
//!   counters, warm-restart hit latency).
//! * `--bin bench_diff` — compares a committed baseline against a fresh
//!   run and exits nonzero on gross regression (the CI gate; thresholds
//!   and noise floors are the constants in [`diff`]).
//!
//! All binaries drive the mapping engines through the unified
//! `qxmap-map` request/report surface. Shared helpers live here.

#![forbid(unsafe_code)]

pub mod diff;
pub mod stats;

use qxmap_arch::CouplingMap;
use qxmap_circuit::Circuit;
use qxmap_map::{Engine, HeuristicEngine, MapReport, MapRequest};

/// Best of `runs` probabilistic stochastic-swap mappings (Table 1 ran
/// Qiskit "5 times for each benchmark and listed the observed minimum").
///
/// # Panics
///
/// Panics if `runs == 0` or the circuit cannot be mapped.
pub fn best_of_stochastic(circuit: &Circuit, cm: &CouplingMap, runs: u64) -> MapReport {
    assert!(runs > 0);
    let request = MapRequest::new(circuit.clone(), cm.clone());
    HeuristicEngine::stochastic(runs)
        .run(&request)
        .expect("connected device")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qxmap_arch::devices;
    use qxmap_circuit::paper_example;

    #[test]
    fn best_of_is_monotone_in_runs() {
        let cm = devices::ibm_qx4();
        let c = paper_example();
        let one = best_of_stochastic(&c, &cm, 1).mapped_cost();
        let five = best_of_stochastic(&c, &cm, 5).mapped_cost();
        assert!(five <= one);
    }
}

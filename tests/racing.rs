//! Contract tests for the concurrent solve subsystem: deadline-bounded
//! portfolio races, winner/elapsed reporting, the process-wide costed
//! `swaps(π)` table cache, and repeated-request behavior.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use qxmap::arch::{devices, CostedSwapTable, CouplingMap, DeviceModel};
use qxmap::circuit::{paper_example, Circuit};
use qxmap::map::{Engine, ExactEngine, HeuristicEngine, MapRequest, Portfolio};

/// An 8-qubit instance on an 8-qubit device: the exact side is a single
/// subinstance with 8! = 40 320 permutations per change point, far beyond
/// what any small deadline lets it even finish encoding.
fn hard_8q() -> (Circuit, CouplingMap) {
    let mut c = Circuit::new(8);
    for q in 0..7 {
        c.cx(q, q + 1);
    }
    c.cx(0, 7);
    c.cx(2, 5);
    c.cx(1, 6);
    (c, devices::linear(8))
}

#[test]
fn deadline_returns_the_heuristic_result_on_a_hard_8q_instance() {
    let (circuit, cm) = hard_8q();
    let naive = HeuristicEngine::naive()
        .run(&MapRequest::new(circuit.clone(), cm.clone()))
        .expect("a line routes a line");
    assert!(naive.cost.objective > 0, "the instance must be nontrivial");

    let request =
        MapRequest::new(circuit.clone(), cm.clone()).with_deadline(Duration::from_millis(100));
    let waited = Instant::now();
    let report = Portfolio::new().run(&request).expect("heuristics answer");
    let waited = waited.elapsed();

    // The proof cannot close in 100 ms: a heuristic must have won, and
    // the report must say so honestly.
    assert!(!report.proved_optimal);
    assert!(
        !report.engine.contains("exact"),
        "exact cannot finish in time, yet won: {}",
        report.engine
    );
    assert_eq!(report.engine, format!("portfolio/{}", report.winner));
    assert!(report.cost.objective <= naive.cost.objective);
    report.verify(&circuit, &cm).expect("legal circuit");
    // The exact side winds down cooperatively (checks between encoding
    // phases and at solver conflicts) instead of running to completion,
    // which takes minutes on this instance.
    assert!(
        waited < Duration::from_secs(30),
        "the race did not wind down: {waited:?}"
    );
}

#[test]
fn generous_deadline_still_proves_optimality() {
    let request = MapRequest::new(paper_example(), devices::ibm_qx4())
        .with_deadline(Duration::from_secs(120))
        .with_conflict_budget(Some(10_000_000));
    let report = Portfolio::new().run(&request).expect("mappable");
    assert_eq!(report.cost.objective, 4, "Example 7's proven minimum");
    assert!(report.proved_optimal, "the proof closes well before 120 s");
}

#[test]
fn reports_surface_winner_and_elapsed() {
    let request = MapRequest::new(paper_example(), devices::ibm_qx4());
    let report = Portfolio::new().run(&request).expect("mappable");
    assert_eq!(report.engine, format!("portfolio/{}", report.winner));
    assert!(
        report.elapsed >= report.runtime,
        "the caller waited for the whole race"
    );

    // Single-engine runs: winner is the engine itself, elapsed its own
    // runtime.
    let naive = HeuristicEngine::naive().run(&request).expect("mappable");
    assert_eq!(naive.winner, "naive");
    assert_eq!(naive.engine, "naive");
    assert_eq!(naive.elapsed, naive.runtime);
    let exact = ExactEngine::new().run(&request).expect("mappable");
    assert_eq!(exact.winner, "exact");
    assert_eq!(exact.elapsed, exact.runtime);
}

#[test]
fn costed_table_cache_yields_identical_tables() {
    // The same (model, subset) request twice: same allocation, and the
    // same costs and witnesses as an uncached build.
    let model = DeviceModel::paper(devices::ibm_qx4());
    let subset = [0, 1, 2, 3];
    let a = model.costed_table(&subset);
    let b = model.costed_table(&subset);
    assert!(Arc::ptr_eq(&a, &b));
    let uncached = CostedSwapTable::for_subset(&devices::ibm_qx4(), &subset);
    assert_eq!(a.len(), uncached.len());
    assert_eq!(a.cheaper_than(None), uncached.cheaper_than(None));
    for (cost, pi) in uncached.cheaper_than(None) {
        assert_eq!(a.cost(pi), Some(*cost));
        assert_eq!(a.sequence(pi), uncached.sequence(pi));
    }
}

#[test]
fn repeated_requests_solve_once_through_the_solve_cache() {
    use qxmap::map::{map_one, SolveCache};

    let request = MapRequest::new(paper_example(), devices::ibm_qx4());

    // The claim is about the *solve* layer: the first call solves (or
    // meets the entry a sibling test left), and no repeat solves again.
    let first_timer = Instant::now();
    let first = map_one(&request).expect("mappable");
    let first_elapsed = first_timer.elapsed();
    let stats_between = SolveCache::shared().stats();

    let repeat_timer = Instant::now();
    let repeats: Vec<_> = (0..5)
        .map(|_| map_one(&request).expect("mappable"))
        .collect();
    let repeat_elapsed = repeat_timer.elapsed();
    let stats_after = SolveCache::shared().stats();

    for report in std::iter::once(&first).chain(&repeats) {
        assert_eq!(report.cost.objective, 4);
        assert!(report.proved_optimal);
    }
    assert!(
        repeats.iter().all(|r| r.served_from_cache),
        "a repeat re-solved a cached request"
    );
    // Each repeat is one lookup that hits; sibling tests can only add.
    assert!(
        stats_after.hits >= stats_between.hits + 5,
        "repeats missed the solve cache: {stats_between:?} -> {stats_after:?}"
    );
    // "Not slower", with generous margin for scheduler noise.
    assert!(
        repeat_elapsed <= first_elapsed * 2 + Duration::from_millis(250),
        "five repeats slower than the first call: {repeat_elapsed:?} vs {first_elapsed:?}"
    );
}

/// Random circuits with 2–4 qubits and up to 8 gates (CNOTs built
/// arithmetically so control ≠ target without filtering).
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    (2usize..=4).prop_flat_map(|n| {
        let gate = prop_oneof![
            (0..n, 1..n).prop_map(move |(c, d)| (0u8, c, (c + d) % n)),
            (0..n).prop_map(|q| (1u8, q, 0usize)),
        ];
        prop::collection::vec(gate, 1..8).prop_map(move |gates| {
            let mut c = Circuit::new(n);
            for (kind, a, b) in gates {
                match kind {
                    0 => {
                        c.cx(a, b);
                    }
                    _ => {
                        c.h(a);
                    }
                }
            }
            c
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: whatever the deadline — from "exact can
    /// never start" to "exact always finishes" — the racing path never
    /// returns a cost worse than the best heuristic baseline's floor.
    #[test]
    fn racing_never_loses_to_the_naive_floor(
        circuit in circuit_strategy(),
        deadline_ms in prop_oneof![Just(1u64), Just(20), Just(5_000)],
    ) {
        let cm = devices::ibm_qx4();
        let naive = HeuristicEngine::naive()
            .run(&MapRequest::new(circuit.clone(), cm.clone()))
            .expect("mappable");
        let request = MapRequest::new(circuit.clone(), cm.clone())
            .with_deadline(Duration::from_millis(deadline_ms));
        let report = Portfolio::new().run(&request).expect("mappable");
        prop_assert!(
            report.cost.objective <= naive.cost.objective,
            "race {} > naive {} (deadline {deadline_ms} ms)",
            report.cost.objective,
            naive.cost.objective
        );
        report.verify(&circuit, &cm).expect("sound");
    }
}

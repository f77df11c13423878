//! Property and contract tests for solve-cache persistence through the
//! journal: a finished journal replays into a fresh cache (which is
//! exactly a daemon restart) with every entry, the proved-optimal tier
//! and the byte accounting intact; a capacity-limited replay keeps the
//! freshest entries; and no truncation or single-byte flip panics or
//! admits a damaged record.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use qxmap::arch::devices;
use qxmap::circuit::Circuit;
use qxmap::map::{
    replay_journal, Engine, ExactEngine, HeuristicEngine, Journal, MapReport, MapRequest,
    SolveCache, JOURNAL_VERSION,
};

/// Builds a small circuit from a proptest-generated gate list.
fn circuit_from(gates: &[(usize, usize, u8)], n: usize) -> Circuit {
    let mut circuit = Circuit::new(n);
    for &(a, d, kind) in gates {
        match kind {
            0 => {
                circuit.cx(a % n, (a + 1 + d) % n);
            }
            1 => {
                circuit.h(a % n);
            }
            _ => {
                circuit.t(a % n);
            }
        }
    }
    circuit
}

/// A CNOT chain over `n` qubits on QX4.
fn chain_request(n: usize) -> MapRequest {
    let mut circuit = Circuit::new(n);
    for q in 0..n - 1 {
        circuit.cx(q, q + 1);
    }
    MapRequest::new(circuit, devices::ibm_qx4())
}

/// Runs `fill` against a fresh journaled cache of `capacity` entries,
/// finishes the journal and returns the file's bytes plus the cache
/// that wrote them.
fn journaled(capacity: usize, fill: impl FnOnce(&SolveCache)) -> (Vec<u8>, &'static SolveCache) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "qxmap-persistence-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    // The writer thread outlives this frame's borrows, so the cache is
    // leaked — small, and one per case.
    let cache: &'static SolveCache = Box::leak(Box::new(SolveCache::with_capacity(capacity)));
    let (mut journal, _) = Journal::attach(cache, &path, 1024).expect("writable temp dir");
    fill(cache);
    journal.finish().expect("the journal drains");
    let bytes = std::fs::read(&path).expect("the journal was written");
    let _ = std::fs::remove_file(&path);
    (bytes, cache)
}

/// Solves `request` with the naive baseline and inserts the answer.
fn solve_into(cache: &SolveCache, request: &MapRequest) -> MapReport {
    let engine = HeuristicEngine::naive();
    let report = engine.run(request).expect("QX4 maps these circuits");
    cache.insert(&engine.cache_signature(), request, &report);
    report
}

/// End offsets of the complete records after the 12-byte header.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 12;
    while at + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 12 + len;
        ends.push(at);
    }
    ends
}

/// Every entry `cache` serves for one of `solved` is the original answer.
fn assert_intact(cache: &SolveCache, solved: &[(MapRequest, MapReport)]) {
    let signature = HeuristicEngine::naive().cache_signature();
    for (request, report) in solved {
        if let Some(hit) = cache.lookup(&signature, request) {
            assert_eq!(hit.cost, report.cost);
            assert_eq!(hit.mapped, report.mapped);
            hit.verify(request.circuit(), request.device())
                .expect("replayed entries verify");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A finished journal replays every entry: each cached request is
    /// still a hit after the round trip, with identical cost, circuit,
    /// and byte accounting, in a fresh cache instance.
    #[test]
    fn journal_round_trip_preserves_entries_and_accounting(
        gate_lists in prop::collection::vec(
            prop::collection::vec((0usize..4, 0usize..2, 0u8..3), 1..8),
            1..5,
        ),
        deadline_ms in 0u64..200,
    ) {
        let engine = HeuristicEngine::naive();
        let mut requests = Vec::new();
        let (bytes, cache) = journaled(32, |cache| {
            for gates in &gate_lists {
                let mut request = MapRequest::new(circuit_from(gates, 4), devices::ibm_qx4());
                // Values below 50 mean "no deadline": the budget class is
                // part of the persisted key either way.
                if deadline_ms >= 50 {
                    request = request.with_deadline(Duration::from_millis(deadline_ms));
                }
                let report = solve_into(cache, &request);
                requests.push((request, report));
            }
        });

        let restarted = SolveCache::with_capacity(32);
        let replay = replay_journal(&restarted, &bytes).expect("own journal replays");
        prop_assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (cache.stats().entries, 0, false)
        );
        prop_assert_eq!(
            restarted.stats().approx_bytes,
            cache.stats().approx_bytes,
            "byte accounting must match a live insert's"
        );
        for (request, solved) in &requests {
            let hit = restarted
                .lookup(&engine.cache_signature(), request)
                .expect("every journaled request hits after restart");
            prop_assert!(hit.served_from_cache);
            prop_assert_eq!(&hit.cost, &solved.cost);
            prop_assert_eq!(&hit.mapped, &solved.mapped);
            prop_assert_eq!(&hit.initial_layout, &solved.initial_layout);
            prop_assert_eq!(&hit.final_layout, &solved.final_layout);
            prop_assert_eq!(hit.runtime, solved.runtime, "original solve time kept");
            prop_assert_eq!(hit.proved_optimal, solved.proved_optimal);
            hit.verify(request.circuit(), request.device())
                .expect("replayed entries still verify");
        }
    }

    /// Any truncation and any single flipped byte replays without a
    /// panic, and never admits a damaged record: a cut keeps exactly the
    /// records wholly before it, a flip costs at least the record it
    /// lands in, and whatever is admitted serves the original answers.
    #[test]
    fn journal_defects_never_admit_a_damaged_record(
        flip in 0usize..4000,
        cut in 0usize..4000,
    ) {
        let mut solved = Vec::new();
        let (bytes, _) = journaled(8, |cache| {
            for n in [3, 4] {
                let request = chain_request(n);
                let report = solve_into(cache, &request);
                solved.push((request, report));
            }
        });
        let ends = record_ends(&bytes);
        prop_assert_eq!(ends.len(), 2);

        let cut = cut % bytes.len();
        let target = SolveCache::with_capacity(8);
        match replay_journal(&target, &bytes[..cut]) {
            Err(_) => prop_assert!(cut < 12, "an intact header was rejected at cut {}", cut),
            Ok(replay) => {
                let whole = ends.iter().filter(|&&end| end <= cut).count();
                prop_assert_eq!(replay.admitted, whole, "cut {}", cut);
                prop_assert_eq!(replay.rejected, 0);
                prop_assert_eq!(replay.torn, cut != 12 && !ends.contains(&cut));
                prop_assert_eq!(target.stats().entries, whole);
                assert_intact(&target, &solved);
            }
        }

        let flip = flip % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[flip] ^= 0x10;
        let target = SolveCache::with_capacity(8);
        match replay_journal(&target, &corrupted) {
            // The header (magic and version) rejects the file as a whole.
            Err(_) => prop_assert!(flip < 12, "a record flip rejected the file: {}", flip),
            Ok(replay) => {
                prop_assert!(flip >= 12, "a header flip went unnoticed: {}", flip);
                prop_assert!(replay.admitted < ends.len(), "flip {} was admitted", flip);
                prop_assert_eq!(target.stats().entries, replay.admitted);
                assert_intact(&target, &solved);
            }
        }
    }
}

#[test]
fn proved_optimal_tier_survives_the_round_trip() {
    let engine = ExactEngine::new();
    let mut circuit = Circuit::new(4);
    circuit.cx(0, 1);
    circuit.cx(1, 2);
    circuit.cx(0, 3);
    let (bytes, cache) = journaled(8, |cache| {
        let unbudgeted = MapRequest::new(circuit.clone(), devices::ibm_qx4());
        let proved = engine.run(&unbudgeted).expect("in regime");
        assert!(proved.proved_optimal);
        cache.insert(&engine.cache_signature(), &unbudgeted, &proved);
    });
    assert_eq!(cache.stats().entries, 1, "the proved tier alone");

    let restarted = SolveCache::with_capacity(8);
    assert_eq!(replay_journal(&restarted, &bytes).unwrap().admitted, 1);
    // The certificate serves budget classes that never ran before the
    // restart — the tier survived, not just the entry.
    let budgeted = MapRequest::new(circuit, devices::ibm_qx4())
        .with_deadline(Duration::from_millis(75))
        .with_conflict_budget(Some(12_345));
    let hit = restarted
        .lookup(&engine.cache_signature(), &budgeted)
        .expect("proved tier serves any budget class");
    assert!(hit.proved_optimal && hit.served_from_cache);
}

#[test]
fn capacity_limited_replay_keeps_the_freshest_entries() {
    let requests: Vec<MapRequest> = (2..=5).map(chain_request).collect();
    let (bytes, cache) = journaled(8, |cache| {
        for request in &requests {
            solve_into(cache, request);
        }
    });

    // Replaying four entries into a two-entry cache keeps the two the
    // writer used most recently, charging evictions like live inserts.
    let tiny = SolveCache::with_capacity(2);
    let replay = replay_journal(&tiny, &bytes).unwrap();
    assert_eq!((replay.admitted, replay.rejected), (4, 0));
    let stats = tiny.stats();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.evictions, 2);
    assert!(stats.approx_bytes > 0);
    assert!(stats.approx_bytes < cache.stats().approx_bytes);
    let signature = HeuristicEngine::naive().cache_signature();
    assert!(tiny.lookup(&signature, &requests[3]).is_some());
    assert!(tiny.lookup(&signature, &requests[2]).is_some());
    assert!(tiny.lookup(&signature, &requests[0]).is_none());

    // A journal from another encoding version is rejected by number,
    // before any record is trusted.
    let mut bumped = bytes.clone();
    bumped[8] = bumped[8].wrapping_add(1); // the version follows the 8-byte magic
    let err = replay_journal(&SolveCache::with_capacity(8), &bumped).unwrap_err();
    assert_eq!(
        err,
        qxmap::map::JournalError::VersionMismatch {
            found: JOURNAL_VERSION + 1,
            supported: JOURNAL_VERSION,
        }
    );
}

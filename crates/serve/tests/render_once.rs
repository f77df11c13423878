//! Pins the render-once warm path: a cache hit shares the stored
//! answer's mapped circuit and the QASM text rendered for it, and its
//! `result` response is byte for byte what [`result_response`] renders
//! for a fresh deep copy of the same report — for identity and relabeled
//! registers, a windowed answer with its certificates, a traced hit, an
//! entry admitted by journal replay, and an answer whose cold response
//! rendered the text first.

use std::sync::atomic::{AtomicUsize, Ordering};

use qxmap_arch::{devices, CouplingMap};
use qxmap_circuit::{paper_example, Circuit, CircuitSkeleton};
use qxmap_core::trace::SpanRecorder;
use qxmap_map::{
    replay_journal, CacheProbe, Engine, HeuristicEngine, Journal, MapReport, MapRequest, SolveCache,
};
use qxmap_serve::proto::result_response;
use qxmap_serve::Json;
use qxmap_window::WindowedEngine;

/// `report` with a mapped circuit of its own: a deep copy that shares
/// nothing, the rendered QASM text included.
fn deep_copy(report: &MapReport) -> MapReport {
    MapReport {
        mapped: Circuit::clone(&report.mapped).into(),
        ..report.clone()
    }
}

/// Renders `report` and a deep copy of it, asserts the bytes agree and
/// returns them.
fn renders_like_a_deep_copy(report: &MapReport) -> String {
    let id = Some(Json::str("req-7"));
    let shared = result_response(id.clone(), report).to_string();
    let fresh = result_response(id, &deep_copy(report)).to_string();
    assert_eq!(shared, fresh, "a hit renders what a fresh copy renders");
    shared
}

/// The response's `mapped_qasm` text.
fn mapped_qasm(response: &str) -> String {
    let parsed = Json::parse(response).expect("responses are valid JSON");
    let qasm = parsed.get("mapped_qasm").and_then(Json::as_str);
    qasm.expect("result responses carry the mapped circuit")
        .to_string()
}

/// Asserts `report`'s QASM text was rendered before, and is `text`.
fn already_rendered(report: &MapReport, text: &str) {
    let stored = report
        .mapped
        .qasm(|_| panic!("the mapped circuit was rendered twice"));
    assert_eq!(stored, text);
}

/// The paper example with its registers renamed.
fn renamed_paper_example() -> Circuit {
    let sigma = [2usize, 0, 3, 1];
    let circuit = paper_example();
    circuit.map_qubits(circuit.num_qubits(), |q| sigma[q])
}

/// Solves `request` with the naive baseline and stores the answer.
fn solve_into(cache: &SolveCache, request: &MapRequest) -> MapReport {
    let engine = HeuristicEngine::naive();
    let report = engine.run(request).expect("QX4 maps the paper example");
    cache.insert(&engine.cache_signature(), request, &report);
    report
}

#[test]
fn a_cold_answer_renders_once_and_its_hits_match_fresh_copies() {
    let cache = SolveCache::with_capacity(8);
    let cm = devices::ibm_qx4();
    let request = MapRequest::new(paper_example(), cm.clone());
    let cold = solve_into(&cache, &request);
    let before = cache.stats().approx_bytes;
    let cold_text = mapped_qasm(&renders_like_a_deep_copy(&cold));

    // Identity registers: the hit shares the text the cold response
    // rendered, and the entry is charged for it once.
    let hit = cache.lookup("naive", &request).expect("identity hit");
    already_rendered(&hit, &cold_text);
    let identity = renders_like_a_deep_copy(&hit);
    let charged = cache.stats().approx_bytes;
    assert_eq!(charged, before + cold_text.len());

    // Relabeled registers: other layouts, the same physical circuit.
    let renamed = renamed_paper_example();
    let probe = CacheProbe::new(CircuitSkeleton::of(&renamed), &cm);
    let relabeled = cache.probe("naive", &probe).expect("relabeled hit");
    already_rendered(&relabeled, &cold_text);
    relabeled.verify(&renamed, &cm).expect("translated layouts");
    let relabeled_response = renders_like_a_deep_copy(&relabeled);
    assert_ne!(relabeled_response, identity, "the layouts differ");
    assert_eq!(mapped_qasm(&relabeled_response), cold_text);
    assert_eq!(cache.stats().approx_bytes, charged, "charged once");

    // A traced hit appends its own timeline.
    let mut traced = cache.lookup("naive", &request).expect("hit");
    let recorder = SpanRecorder::new();
    recorder.event("cache", "hit", 1);
    traced.trace = recorder.finish();
    let response = renders_like_a_deep_copy(&traced);
    let parsed = Json::parse(&response).unwrap();
    assert!(parsed.get("trace").is_some(), "{response}");
    assert_eq!(mapped_qasm(&response), cold_text);
}

#[test]
fn the_first_hit_renders_what_later_hits_reuse() {
    let cache = SolveCache::with_capacity(8);
    let request = MapRequest::new(paper_example(), devices::ibm_qx4());
    solve_into(&cache, &request);
    let before = cache.stats().approx_bytes;
    let first = cache.lookup("naive", &request).expect("hit");
    let text = mapped_qasm(&renders_like_a_deep_copy(&first));
    assert_eq!(text, qxmap_qasm::to_qasm(&first.mapped));
    let second = cache.lookup("naive", &request).expect("hit");
    already_rendered(&second, &text);
    assert_eq!(cache.stats().approx_bytes, before + text.len());
    cache.clear();
    assert_eq!(cache.stats().approx_bytes, 0);
}

/// Three 4-qubit QFT copies on a 3×4 grid: the stitch beats the
/// heuristic floor, so the answer carries window certificates.
fn stitch_winning_input() -> (Circuit, CouplingMap) {
    (
        qxmap_benchmarks::famous::qft_blocks(3, 4),
        devices::grid(3, 4),
    )
}

#[test]
fn windowed_hits_with_certificates_match_fresh_copies() {
    let (circuit, device) = stitch_winning_input();
    let n = circuit.num_qubits();
    let renamed = circuit.map_qubits(n, |q| (q * 5 + 3) % n);
    let engine = WindowedEngine::new();
    let request = MapRequest::new(circuit, device.clone());
    let solved = engine.run(&request).expect("the race answers");
    assert!(solved.windows.is_some(), "the stitch wins this input");
    let cache = SolveCache::with_capacity(8);
    let signature = engine.cache_signature();
    cache.insert(&signature, &request, &solved);
    let cold_text = mapped_qasm(&renders_like_a_deep_copy(&solved));

    let hit = cache.lookup(&signature, &request).expect("identity hit");
    already_rendered(&hit, &cold_text);
    let identity = renders_like_a_deep_copy(&hit);
    assert!(Json::parse(&identity).unwrap().get("windows").is_some());

    let relabeled_request = MapRequest::new(renamed.clone(), device.clone());
    let relabeled = cache
        .lookup(&signature, &relabeled_request)
        .expect("relabeled hit");
    relabeled
        .verify(&renamed, &device)
        .expect("translated layouts");
    assert_ne!(relabeled.windows, hit.windows, "certificates translated");
    let response = renders_like_a_deep_copy(&relabeled);
    assert_eq!(mapped_qasm(&response), cold_text);
}

#[test]
fn journal_replayed_entries_render_like_fresh_copies() {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "qxmap-render-once-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    // The writer thread outlives this frame's borrows: leak the cache.
    let journaled: &'static SolveCache = Box::leak(Box::new(SolveCache::with_capacity(8)));
    let (mut journal, _) = Journal::attach(journaled, &path, 1024).expect("writable temp dir");
    let request = MapRequest::new(paper_example(), devices::ibm_qx4());
    let solved = solve_into(journaled, &request);
    let cold = renders_like_a_deep_copy(&solved);
    journal.finish().expect("the journal drains");
    let bytes = std::fs::read(&path).expect("the journal was written");
    let _ = std::fs::remove_file(&path);

    let restarted = SolveCache::with_capacity(8);
    let replay = replay_journal(&restarted, &bytes).expect("an intact journal");
    assert_eq!(replay.admitted, 1);
    // The replayed entry starts unrendered; its first hit renders the
    // same text the solving process sent, and later hits reuse it.
    let hit = restarted.lookup("naive", &request).expect("replayed hit");
    let first = renders_like_a_deep_copy(&hit);
    assert_eq!(mapped_qasm(&first), mapped_qasm(&cold));
    let again = restarted.lookup("naive", &request).expect("replayed hit");
    already_rendered(&again, &mapped_qasm(&cold));
    let renamed = renamed_paper_example();
    let probe = CacheProbe::new(CircuitSkeleton::of(&renamed), &devices::ibm_qx4());
    let relabeled = restarted.probe("naive", &probe).expect("relabeled hit");
    renders_like_a_deep_copy(&relabeled);
}

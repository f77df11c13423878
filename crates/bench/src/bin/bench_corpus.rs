//! The perf-trajectory harness: runs the fixed, versioned
//! [`qxmap_benchmarks::corpus`] through cold and warm solves and writes
//! `BENCH_corpus.json` — per-row solve cost, cold latency, warm
//! p50/p95/p99, winner engine and the cold solve's per-phase trace
//! breakdown, plus aggregate latency percentiles and the solve-cache
//! hit rate. Windowed rows answer through the served engine
//! ([`WindowedEngine`], which races the window decomposition against
//! the heuristic floor and caches the answer whole) and set its cold
//! answer against every pure heuristic in `BENCH_window.json`.
//!
//! The artifact also carries an `ingest` section: the largest corpus
//! circuits tiled to MB-scale payloads and timed through every ingest
//! path — text parse, QXBC binary decode, and the two skeleton-only
//! variants — so the fast-ingest speedup is a diffed trajectory, not a
//! one-off claim.
//!
//! Flags:
//!
//! * `--smoke` — run only the marked CI subset of the corpus;
//! * `--out PATH` — corpus artifact path (default `BENCH_corpus.json`);
//! * `--window-out PATH` — windowed artifact path (default
//!   `BENCH_window.json`);
//! * `--warm-repeats N` — warm solves per row (default 8).

use std::time::{Duration, Instant};

use qxmap_arch::{devices, CouplingMap};
use qxmap_bench::stats;
use qxmap_benchmarks::corpus::{
    corpus, manifest_hash, smoke_corpus, CorpusClass, CorpusEntry, CORPUS_SCHEMA_VERSION,
};
use qxmap_circuit::{Circuit, CircuitSkeleton};
use qxmap_core::trace::SpanRecorder;
use qxmap_map::{map_one, Engine, HeuristicEngine, MapReport, MapRequest, SolveCache};
use qxmap_serve::Json;
use qxmap_window::WindowedEngine;

/// The artifact's own schema identity (distinct from the corpus
/// manifest's version: this one covers the JSON shape).
const ARTIFACT_SCHEMA: &str = "qxmap.bench_corpus";
const ARTIFACT_SCHEMA_VERSION: u64 = 1;

struct Flags {
    smoke: bool,
    out: String,
    window_out: String,
    warm_repeats: usize,
}

fn parse_flags() -> Flags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    Flags {
        smoke: args.iter().any(|a| a == "--smoke"),
        out: value("--out").unwrap_or_else(|| "BENCH_corpus.json".to_string()),
        window_out: value("--window-out").unwrap_or_else(|| "BENCH_window.json".to_string()),
        warm_repeats: value("--warm-repeats")
            .and_then(|v| v.parse().ok())
            .unwrap_or(8),
    }
}

/// One timed engine run, verified against the full circuit.
fn timed(
    engine: &dyn Engine,
    request: &MapRequest,
    circuit: &Circuit,
    cm: &CouplingMap,
) -> (MapReport, f64) {
    let start = Instant::now();
    let report = engine
        .run(request)
        .expect("corpus circuits map on connected devices");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    report
        .verify(circuit, cm)
        .expect("every corpus result verifies");
    (report, ms)
}

/// The windowed-vs-heuristic comparison one `Windowed` row carries into
/// `BENCH_window.json`.
struct WindowRow {
    json: Json,
    beats: bool,
}

/// Sets the row's cold served answer (`windowed`, timed as the row's
/// cold solve) against every pure heuristic.
fn window_row(
    entry: &CorpusEntry,
    request: &MapRequest,
    cm: &CouplingMap,
    windowed: &MapReport,
    windowed_ms: f64,
) -> WindowRow {
    let circuit = &entry.circuit;
    let (naive, naive_ms) = timed(&HeuristicEngine::naive(), request, circuit, cm);
    let (sabre, sabre_ms) = timed(&HeuristicEngine::sabre(), request, circuit, cm);
    let (stochastic, stochastic_ms) = timed(&HeuristicEngine::stochastic(5), request, circuit, cm);
    let best_heuristic = naive
        .cost
        .objective
        .min(sabre.cost.objective)
        .min(stochastic.cost.objective);
    let beats = windowed.cost.objective < best_heuristic;
    println!(
        "  windowed {:>6} ({:>8.1} ms) | naive {:>6} | sabre {:>6} | stochastic {:>6} | {}",
        windowed.cost.objective,
        windowed_ms,
        naive.cost.objective,
        sabre.cost.objective,
        stochastic.cost.objective,
        if beats {
            "windowed wins"
        } else {
            "heuristic wins"
        },
    );
    let sample = |r: &MapReport, ms: f64| {
        Json::obj([
            ("objective", Json::num(r.cost.objective)),
            ("millis", Json::Num(stats::round_ms(ms))),
        ])
    };
    WindowRow {
        json: Json::obj([
            ("circuit", Json::str(entry.name.clone())),
            ("qubits", Json::num(circuit.num_qubits() as u64)),
            ("original_cost", Json::num(circuit.original_cost() as u64)),
            ("windowed", sample(windowed, windowed_ms)),
            ("naive", sample(&naive, naive_ms)),
            ("sabre", sample(&sabre, sabre_ms)),
            ("stochastic_best_of_5", sample(&stochastic, stochastic_ms)),
            ("best_heuristic_objective", Json::num(best_heuristic)),
            ("windowed_beats_best_heuristic", Json::Bool(beats)),
        ]),
        beats,
    }
}

/// The cold solve's per-phase breakdown: every recorded span path with
/// its total milliseconds (paths recurring across minimization steps or
/// windows are summed), straight from the solve's own trace. Rows carry
/// it so perf PRs can attribute a cold-latency shift to the phase that
/// moved; [`bench_diff`](../diff.rs) treats an absent breakdown (a
/// baseline predating this section) as nothing to compare.
fn phases_json(report: &MapReport, into: &mut Vec<(String, f64)>) -> Json {
    let mut totals: Vec<(String, u64)> = Vec::new();
    if let Some(trace) = &report.trace {
        for span in &trace.spans {
            match totals.iter_mut().find(|(path, _)| *path == span.path) {
                Some((_, us)) => *us += span.duration_us,
                None => totals.push((span.path.clone(), span.duration_us)),
            }
        }
    }
    Json::Obj(
        totals
            .into_iter()
            .map(|(path, us)| {
                let ms = us as f64 / 1e3;
                match into.iter_mut().find(|(p, _)| *p == path) {
                    Some((_, total)) => *total += ms,
                    None => into.push((path.clone(), ms)),
                }
                (path, Json::Num(stats::round_ms(ms)))
            })
            .collect(),
    )
}

/// Timing repeats per ingest path; rows record the minimum, because
/// ingest is deterministic CPU work and the minimum rejects scheduler
/// noise.
const INGEST_REPEATS: usize = 3;

/// Tile target for ingest workloads — enough gates that the QASM text
/// is MB-scale and per-call overheads vanish from the measurement.
const INGEST_TARGET_GATES: usize = 100_000;

/// The `circuit`'s gate list repeated cyclically to at least `target`
/// gates on the same registers: a corpus circuit, tiled, as a realistic
/// large ingest payload.
fn tiled(circuit: &Circuit, target: usize) -> Circuit {
    let mut big = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    while big.gates().len() < target {
        big.extend(circuit.gates().iter().cloned());
    }
    big
}

fn best_ms(mut work: impl FnMut()) -> f64 {
    (0..INGEST_REPEATS)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// One fast-ingest trajectory row, plus the row's headline speedup: the
/// text parse against the QXBC decode of the same circuit.
fn ingest_row(source: &str, circuit: &Circuit) -> (Json, f64) {
    let big = tiled(circuit, INGEST_TARGET_GATES);
    let text = qxmap_qasm::to_qasm(&big);
    let bytes = qxmap_qasm::encode_qxbc(&big);

    // Every ingest path must land on the same canonical skeleton before
    // any of them is worth timing.
    let fingerprint = CircuitSkeleton::of(&big).fingerprint();
    assert_eq!(
        qxmap_qasm::parse_skeleton(&text).unwrap().fingerprint(),
        fingerprint,
        "{source}: text skeleton diverged"
    );
    assert_eq!(
        qxmap_qasm::decode_qxbc_skeleton(&bytes)
            .unwrap()
            .fingerprint(),
        fingerprint,
        "{source}: QXBC skeleton diverged"
    );

    // The daemon's miss path: text to circuit, no AST.
    let parse_seq_ms = best_ms(|| {
        qxmap_qasm::parse(&text).unwrap();
    });
    let skeleton_ms = best_ms(|| {
        qxmap_qasm::parse_skeleton(&text).unwrap();
    });
    let qxbc_decode_ms = best_ms(|| {
        qxmap_qasm::decode_qxbc(&bytes).unwrap();
    });
    let qxbc_skeleton_ms = best_ms(|| {
        qxmap_qasm::decode_qxbc_skeleton(&bytes).unwrap();
    });

    let mb = text.len() as f64 / (1024.0 * 1024.0);
    let mb_per_s = |ms: f64| ((mb / (ms / 1e3)) * 10.0).round() / 10.0;
    let speedup = parse_seq_ms / qxbc_decode_ms;
    println!(
        "ingest {:<22} {:>6.2} MiB | seq {:>7.1} ms ({:>6.1} MB/s) | \
         qxbc {:>7.1} ms | skeleton {:>7.1} ms | speedup {:>5.1}x",
        source,
        mb,
        parse_seq_ms,
        mb_per_s(parse_seq_ms),
        qxbc_decode_ms,
        skeleton_ms,
        speedup,
    );
    let row = Json::obj([
        ("name", Json::str(format!("ingest_{source}"))),
        ("source", Json::str(source)),
        ("qubits", Json::num(big.num_qubits() as u64)),
        ("gates", Json::num(big.gates().len() as u64)),
        ("qasm_bytes", Json::num(text.len() as u64)),
        ("qxbc_bytes", Json::num(bytes.len() as u64)),
        ("parse_seq_ms", Json::Num(stats::round_ms(parse_seq_ms))),
        ("skeleton_ms", Json::Num(stats::round_ms(skeleton_ms))),
        ("qxbc_decode_ms", Json::Num(stats::round_ms(qxbc_decode_ms))),
        (
            "qxbc_skeleton_ms",
            Json::Num(stats::round_ms(qxbc_skeleton_ms)),
        ),
        ("seq_mb_per_s", Json::Num(mb_per_s(parse_seq_ms))),
        ("speedup", Json::Num((speedup * 10.0).round() / 10.0)),
    ]);
    (row, speedup)
}

fn main() {
    let flags = parse_flags();
    let entries = if flags.smoke {
        smoke_corpus()
    } else {
        corpus()
    };
    let hash = format!("{:#018x}", manifest_hash());

    // Measurements start from a cold process-wide cache so "cold" means
    // cold regardless of what ran earlier in this process.
    SolveCache::shared().clear();
    let stats_before = SolveCache::shared().stats();
    let run_start = Instant::now();

    let mut rows: Vec<Json> = Vec::new();
    let mut window_rows: Vec<Json> = Vec::new();
    let mut windowed_wins = 0usize;
    let mut windowed_total = 0usize;
    let mut cold_samples: Vec<f64> = Vec::new();
    let mut warm_samples: Vec<f64> = Vec::new();
    let mut phase_totals: Vec<(String, f64)> = Vec::new();

    println!(
        "corpus run: {} rows ({}), manifest {hash}",
        entries.len(),
        if flags.smoke { "smoke subset" } else { "full" },
    );
    for entry in &entries {
        let cm = devices::by_name(entry.device).expect("corpus devices are library names");
        let request = MapRequest::new(entry.circuit.clone(), cm.clone())
            .with_deadline(Duration::from_millis(entry.deadline_ms));

        // Cold solve: first sight of this (circuit, device, options) key.
        // It runs traced — a handful of spans over a millisecond-scale
        // solve is noise — so the row can carry its per-phase breakdown;
        // the microsecond-scale warm repeats below stay untraced.
        let traced = request.clone().with_trace(SpanRecorder::new());
        // Windowed rows answer through the served engine, monolithic
        // rows through the portfolio; both cache the answer whole.
        let solve = |request: &MapRequest| {
            match entry.class {
                CorpusClass::Windowed => WindowedEngine::new().run_cached(request),
                _ => map_one(request),
            }
            .expect("corpus circuits map")
        };
        let start = Instant::now();
        let cold = solve(&traced);
        let cold_ms = start.elapsed().as_secs_f64() * 1e3;
        cold.verify(&entry.circuit, &cm)
            .expect("every corpus result verifies");
        assert!(
            !cold.served_from_cache,
            "{}: cold solve answered from cache — corpus rows must be distinct",
            entry.name
        );
        cold_samples.push(cold_ms);

        // Warm solves: repeats of the identical request, each a
        // whole-circuit cache hit.
        let mut row_warm: Vec<f64> = Vec::new();
        let mut warm_hits = 0usize;
        for _ in 0..flags.warm_repeats {
            let start = Instant::now();
            let report = solve(&request);
            row_warm.push(start.elapsed().as_secs_f64() * 1e3);
            warm_hits += usize::from(report.served_from_cache);
        }
        warm_samples.extend_from_slice(&row_warm);

        println!(
            "{:<28} {:>8} cold {:>9.1} ms | warm p95 {:>9.3} ms | objective {:>6} | {}",
            entry.name,
            entry.class.tag(),
            cold_ms,
            stats::percentile(&row_warm, 0.95),
            cold.cost.objective,
            cold.winner,
        );

        if entry.class == CorpusClass::Windowed {
            let row = window_row(entry, &request, &cm, &cold, cold_ms);
            windowed_wins += usize::from(row.beats);
            windowed_total += 1;
            window_rows.push(row.json);
        }

        rows.push(Json::obj([
            ("name", Json::str(entry.name.clone())),
            ("device", Json::str(entry.device)),
            ("class", Json::str(entry.class.tag())),
            ("qubits", Json::num(entry.circuit.num_qubits() as u64)),
            ("gates", Json::num(entry.circuit.gates().len() as u64)),
            ("deadline_ms", Json::num(entry.deadline_ms)),
            ("objective", Json::num(cold.cost.objective)),
            ("proved_optimal", Json::Bool(cold.proved_optimal)),
            ("winner", Json::str(&cold.winner)),
            ("cold_ms", Json::Num(stats::round_ms(cold_ms))),
            (
                "warm_p50_ms",
                Json::Num(stats::round_ms(stats::percentile(&row_warm, 0.50))),
            ),
            (
                "warm_p95_ms",
                Json::Num(stats::round_ms(stats::percentile(&row_warm, 0.95))),
            ),
            (
                "warm_p99_ms",
                Json::Num(stats::round_ms(stats::percentile(&row_warm, 0.99))),
            ),
            (
                "warm_hit_rate",
                Json::Num(warm_hits as f64 / flags.warm_repeats.max(1) as f64),
            ),
            ("phases", phases_json(&cold, &mut phase_totals)),
        ]));
    }

    // Fast-ingest rows: tile the two gate-heaviest circuits of the
    // *full* corpus (independent of `--smoke`, so row names always
    // intersect the committed baseline's) and time every ingest path.
    let mut ingest_sources = corpus();
    ingest_sources.sort_by_key(|e| std::cmp::Reverse(e.circuit.gates().len()));
    let mut ingest_rows: Vec<Json> = Vec::new();
    let mut min_speedup = f64::INFINITY;
    let mut seen: Vec<&str> = Vec::new();
    for entry in &ingest_sources {
        // Some circuits appear on two devices; ingest cares only about
        // the payload, so each circuit is measured once.
        if seen.contains(&entry.circuit.name()) {
            continue;
        }
        seen.push(entry.circuit.name());
        let (row, speedup) = ingest_row(entry.circuit.name(), &entry.circuit);
        ingest_rows.push(row);
        min_speedup = min_speedup.min(speedup);
        if ingest_rows.len() == 2 {
            break;
        }
    }
    // The fast-ingest headline: on MB-scale payloads the QXBC decode
    // must at least double the text parser's throughput. Smoke runs on shared CI
    // runners report the numbers without making them a hard promise.
    assert!(
        flags.smoke || min_speedup >= 2.0,
        "fast ingest must at least double throughput on the largest corpus circuits \
         (measured {min_speedup:.2}x)"
    );

    let wall_ms = run_start.elapsed().as_secs_f64() * 1e3;
    let cache = SolveCache::shared().stats();
    let hits = cache.hits - stats_before.hits;
    let misses = cache.misses - stats_before.misses;
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };

    let doc = Json::obj([
        ("schema", Json::str(ARTIFACT_SCHEMA)),
        ("schema_version", Json::num(ARTIFACT_SCHEMA_VERSION)),
        (
            "corpus_schema_version",
            Json::num(u64::from(CORPUS_SCHEMA_VERSION)),
        ),
        ("manifest_hash", Json::str(hash.clone())),
        ("smoke", Json::Bool(flags.smoke)),
        ("warm_repeats", Json::num(flags.warm_repeats as u64)),
        ("rows", Json::Arr(rows)),
        ("ingest", Json::Arr(ingest_rows)),
        (
            "aggregate",
            Json::obj([
                ("rows", Json::num(entries.len() as u64)),
                ("wall_ms", Json::Num(stats::round_ms(wall_ms))),
                ("cold", stats::latency_json(&cold_samples)),
                ("warm", stats::latency_json(&warm_samples)),
                ("cache_hit_rate", Json::Num((hit_rate * 1e3).round() / 1e3)),
                ("cache_hits", Json::num(hits)),
                ("cache_misses", Json::num(misses)),
                (
                    "phases",
                    Json::Obj(
                        phase_totals
                            .into_iter()
                            .map(|(path, ms)| (path, Json::Num(stats::round_ms(ms))))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    std::fs::write(&flags.out, stats::pretty(&doc)).expect("writable output path");
    println!(
        "wrote {} ({} rows, cache hit rate {hit_rate:.3})",
        flags.out,
        entries.len()
    );

    if !window_rows.is_empty() {
        let window_doc = Json::obj([
            ("schema", Json::str("qxmap.bench_window")),
            ("schema_version", Json::num(1)),
            ("manifest_hash", Json::str(hash)),
            ("device", Json::str("heavy-hex-4")),
            ("windowed_wins", Json::num(windowed_wins as u64)),
            ("rows", Json::Arr(window_rows)),
        ]);
        std::fs::write(&flags.window_out, stats::pretty(&window_doc))
            .expect("writable output path");
        println!(
            "wrote {} ({windowed_wins}/{windowed_total} windowed wins)",
            flags.window_out
        );
        // The full corpus carries the workloads windowing was built for,
        // so somewhere it must win; the one-row smoke subset is too
        // small to make that a hard promise.
        assert!(
            flags.smoke || windowed_wins >= 1,
            "the windowed engine must beat the best pure heuristic on at least one corpus circuit"
        );
    }
}

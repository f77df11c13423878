//! The regression gate: compares a committed `BENCH_*.json` baseline
//! against a fresh run and reports *gross* regressions.
//!
//! The gate's job is to catch a broken cache, a 4× latency cliff or a
//! halved solution quality on every PR — not to detect 10% drift on a
//! noisy CI runner. Two mechanisms keep it honest:
//!
//! * **ratios with noise floors** — a latency only regresses when it
//!   exceeds *both* `baseline × ratio` and an absolute floor, so
//!   microsecond-scale numbers (warm cache hits) can triple in scheduler
//!   noise without tripping the gate;
//! * **identity checks** — both files must carry the same `schema` and
//!   corpus [`manifest_hash`](qxmap_benchmarks::corpus::manifest_hash),
//!   so the gate refuses to compare runs of different corpora instead of
//!   reporting nonsense. A smoke run compares against a full baseline by
//!   row-name intersection (the smoke corpus is a marked subset of the
//!   same manifest).

use qxmap_serve::Json;

/// When a measurement counts as a gross regression. Defaults are
/// deliberately generous: CI runners are shared and noisy, and a gate
/// that cries wolf gets deleted.
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// A latency regresses when `fresh > baseline × latency_ratio` (and
    /// exceeds the floor).
    pub latency_ratio: f64,
    /// Latencies below this (ms) are noise, never regressions.
    pub latency_floor_ms: f64,
    /// A solve cost regresses when
    /// `fresh objective > baseline × objective_ratio`.
    pub objective_ratio: f64,
    /// The cache hit rate regresses when it drops by more than this
    /// (absolute, 0..1).
    pub hit_rate_drop: f64,
    /// Throughput regresses when
    /// `fresh < baseline × throughput_ratio`.
    pub throughput_ratio: f64,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            latency_ratio: 4.0,
            latency_floor_ms: 50.0,
            objective_ratio: 1.5,
            hit_rate_drop: 0.25,
            throughput_ratio: 0.25,
        }
    }
}

/// Compares `fresh` against `baseline` (both parsed `BENCH_*.json`
/// documents of the same schema) and returns one human-readable line per
/// gross regression — empty means the gate passes.
///
/// # Errors
///
/// Returns a description when the two documents are not comparable at
/// all (missing/mismatched `schema`, mismatched `manifest_hash`, or no
/// overlapping rows) — an error, not a regression, because the right fix
/// is regenerating the baseline, not reverting the PR.
pub fn diff(baseline: &Json, fresh: &Json, t: &Thresholds) -> Result<Vec<String>, String> {
    let schema = |doc: &Json, which: &str| {
        doc.get("schema")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{which} document has no \"schema\" field"))
    };
    let base_schema = schema(baseline, "baseline")?;
    let fresh_schema = schema(fresh, "fresh")?;
    if base_schema != fresh_schema {
        return Err(format!(
            "schema mismatch: baseline is {base_schema:?}, fresh is {fresh_schema:?}"
        ));
    }
    fn hash(doc: &Json) -> Option<&str> {
        doc.get("manifest_hash").and_then(Json::as_str)
    }
    match (hash(baseline), hash(fresh)) {
        (Some(b), Some(f)) if b != f => {
            return Err(format!(
                "corpus manifest mismatch: baseline measured {b}, fresh measured {f} \
                 — regenerate the baseline"
            ));
        }
        _ => {}
    }
    match base_schema.as_str() {
        "qxmap.bench_corpus" => diff_corpus(baseline, fresh, t),
        "qxmap.bench_serve" => Ok(diff_serve(baseline, fresh, t)),
        other => Err(format!("unknown schema {other:?}")),
    }
}

/// `fresh > max(floor, baseline × ratio)`, with absent fields never
/// regressing (a baseline predating a field must not fail every PR).
fn slower(baseline: Option<f64>, fresh: Option<f64>, ratio: f64, floor: f64) -> bool {
    match (baseline, fresh) {
        (Some(b), Some(f)) => f > (b * ratio).max(floor),
        _ => false,
    }
}

fn num(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut v = doc;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64()
}

fn diff_corpus(baseline: &Json, fresh: &Json, t: &Thresholds) -> Result<Vec<String>, String> {
    fn rows<'a>(doc: &'a Json, which: &str) -> Result<&'a [Json], String> {
        doc.get("rows")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{which} document has no \"rows\" array"))
    }
    let base_rows = rows(baseline, "baseline")?;
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for row in rows(fresh, "fresh")? {
        let Some(name) = row.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(base) = base_rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        compared += 1;
        let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
        if let (Some(b), Some(f)) = (field(base, "objective"), field(row, "objective")) {
            if f > b * t.objective_ratio {
                regressions.push(format!(
                    "{name}: solve cost regressed {b} -> {f} (> {}x)",
                    t.objective_ratio
                ));
            }
        }
        if slower(
            field(base, "cold_ms"),
            field(row, "cold_ms"),
            t.latency_ratio,
            t.latency_floor_ms,
        ) {
            regressions.push(format!(
                "{name}: cold solve regressed {:.1} ms -> {:.1} ms (> {}x)",
                field(base, "cold_ms").unwrap_or(0.0),
                field(row, "cold_ms").unwrap_or(0.0),
                t.latency_ratio
            ));
        }
        if slower(
            field(base, "warm_p95_ms"),
            field(row, "warm_p95_ms"),
            t.latency_ratio,
            t.latency_floor_ms,
        ) {
            regressions.push(format!(
                "{name}: warm p95 regressed {:.3} ms -> {:.3} ms",
                field(base, "warm_p95_ms").unwrap_or(0.0),
                field(row, "warm_p95_ms").unwrap_or(0.0),
            ));
        }
        // Per-phase breakdowns ride in each row's `phases` object; a
        // document predating the section — or a phase present on only
        // one side — has nothing to compare, and absence never
        // regresses. Phases share the latency noise floor: most are
        // microseconds, and only a gross cliff in a genuinely expensive
        // phase should trip the gate.
        fn phases(doc: &Json) -> &[(String, Json)] {
            doc.get("phases").and_then(Json::as_object).unwrap_or(&[])
        }
        for (phase, fresh_ms) in phases(row) {
            let base_ms = phases(base)
                .iter()
                .find(|(p, _)| p == phase)
                .and_then(|(_, v)| v.as_f64());
            if slower(
                base_ms,
                fresh_ms.as_f64(),
                t.latency_ratio,
                t.latency_floor_ms,
            ) {
                regressions.push(format!(
                    "{name}: phase {phase} regressed {:.1} ms -> {:.1} ms (> {}x)",
                    base_ms.unwrap_or(0.0),
                    fresh_ms.as_f64().unwrap_or(0.0),
                    t.latency_ratio
                ));
            }
        }
    }
    if compared == 0 {
        return Err("no overlapping rows between baseline and fresh run".to_string());
    }
    // Fast-ingest rows ride in a separate `ingest` section; a document
    // predating the section (or missing a row) simply has nothing to
    // compare — absence is never a regression.
    fn ingest(doc: &Json) -> &[Json] {
        doc.get("ingest").and_then(Json::as_array).unwrap_or(&[])
    }
    for row in ingest(fresh) {
        let Some(name) = row.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(base) = ingest(baseline)
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
        if let (Some(b), Some(f)) = (field(base, "speedup"), field(row, "speedup")) {
            if f < b * t.throughput_ratio {
                regressions.push(format!(
                    "{name}: ingest speedup regressed {b:.1}x -> {f:.1}x \
                     (< {}x baseline)",
                    t.throughput_ratio
                ));
            }
        }
        // Each ingest path is gated on its own time: `speedup` (text
        // parse over QXBC decode) would *rise* if the text parser slowed.
        for key in ["parse_seq_ms", "skeleton_ms", "qxbc_decode_ms"] {
            if slower(
                field(base, key),
                field(row, key),
                t.latency_ratio,
                t.latency_floor_ms,
            ) {
                regressions.push(format!(
                    "{name}: {key} regressed {:.1} ms -> {:.1} ms (> {}x)",
                    field(base, key).unwrap_or(0.0),
                    field(row, key).unwrap_or(0.0),
                    t.latency_ratio
                ));
            }
        }
    }
    let rate = |doc: &Json| num(doc, &["aggregate", "cache_hit_rate"]);
    if let (Some(b), Some(f)) = (rate(baseline), rate(fresh)) {
        if b - f > t.hit_rate_drop {
            regressions.push(format!(
                "cache hit rate regressed {b:.3} -> {f:.3} (drop > {})",
                t.hit_rate_drop
            ));
        }
    }
    Ok(regressions)
}

fn diff_serve(baseline: &Json, fresh: &Json, t: &Thresholds) -> Vec<String> {
    let mut regressions = Vec::new();
    if let (Some(b), Some(f)) = (
        num(baseline, &["throughput_rps"]),
        num(fresh, &["throughput_rps"]),
    ) {
        if f < b * t.throughput_ratio {
            regressions.push(format!(
                "throughput regressed {b:.1} -> {f:.1} req/s (< {}x baseline)",
                t.throughput_ratio
            ));
        }
    }
    // A median compares like with like: the blended one lands on a
    // cache hit or on a solve depending on the run's traffic mix, so
    // p50 is gated per class, hits against hits and solves against
    // solves. The tails are solves in every mix and stay blended.
    for class in ["cache_hit", "solved"] {
        let p50 = |doc: &Json| num(doc, &["latency_by_class", class, "p50_ms"]);
        if slower(
            p50(baseline),
            p50(fresh),
            t.latency_ratio,
            t.latency_floor_ms,
        ) {
            regressions.push(format!(
                "soak {class} p50_ms regressed {:.1} -> {:.1} ms (> {}x)",
                p50(baseline).unwrap_or(0.0),
                p50(fresh).unwrap_or(0.0),
                t.latency_ratio
            ));
        }
    }
    for p in ["p95_ms", "p99_ms"] {
        if slower(
            num(baseline, &["latency", p]),
            num(fresh, &["latency", p]),
            t.latency_ratio,
            t.latency_floor_ms,
        ) {
            regressions.push(format!(
                "soak {p} regressed {:.1} -> {:.1} ms (> {}x)",
                num(baseline, &["latency", p]).unwrap_or(0.0),
                num(fresh, &["latency", p]).unwrap_or(0.0),
                t.latency_ratio
            ));
        }
    }
    // The pipelined warm phase rides in its own section; a baseline
    // predating it (or a fresh run not measuring it) has nothing to
    // compare — absence is never a regression.
    for (key, what) in [
        ("pipelined_rps", "pipelined warm throughput"),
        ("speedup", "pipelining speedup"),
    ] {
        if let (Some(b), Some(f)) = (
            num(baseline, &["pipelined", key]),
            num(fresh, &["pipelined", key]),
        ) {
            if f < b * t.throughput_ratio {
                regressions.push(format!(
                    "{what} regressed {b:.1} -> {f:.1} (< {}x baseline)",
                    t.throughput_ratio
                ));
            }
        }
    }
    let hit = |doc: &Json| {
        doc.get("warm_restart")
            .and_then(|w| w.get("hit"))
            .and_then(Json::as_bool)
    };
    if hit(baseline) == Some(true) && hit(fresh) == Some(false) {
        regressions
            .push("warm restart no longer serves the repeated request from cache".to_string());
    }
    if slower(
        num(baseline, &["warm_restart", "latency_ms"]),
        num(fresh, &["warm_restart", "latency_ms"]),
        t.latency_ratio,
        t.latency_floor_ms,
    ) {
        regressions.push(format!(
            "warm restart hit latency regressed {:.3} -> {:.3} ms",
            num(baseline, &["warm_restart", "latency_ms"]).unwrap_or(0.0),
            num(fresh, &["warm_restart", "latency_ms"]).unwrap_or(0.0),
        ));
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_doc(cold_ms: f64, objective: u64, hit_rate: f64) -> Json {
        Json::obj([
            ("schema", Json::str("qxmap.bench_corpus")),
            ("schema_version", Json::num(1)),
            ("manifest_hash", Json::str("0xabc")),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([
                        ("name", Json::str("3_17_13")),
                        ("objective", Json::num(objective)),
                        ("cold_ms", Json::Num(cold_ms)),
                        ("warm_p95_ms", Json::Num(0.02)),
                    ]),
                    Json::obj([
                        ("name", Json::str("ex-1_166")),
                        ("objective", Json::num(2)),
                        ("cold_ms", Json::Num(30.0)),
                        ("warm_p95_ms", Json::Num(0.02)),
                    ]),
                ]),
            ),
            (
                "ingest",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("ingest_big")),
                    ("parse_seq_ms", Json::Num(400.0)),
                    ("skeleton_ms", Json::Num(300.0)),
                    ("qxbc_decode_ms", Json::Num(40.0)),
                    ("speedup", Json::Num(10.0)),
                ])]),
            ),
            (
                "aggregate",
                Json::obj([("cache_hit_rate", Json::Num(hit_rate))]),
            ),
        ])
    }

    fn set_ingest(doc: &mut Json, ingest: Json) {
        let Json::Obj(pairs) = doc else {
            unreachable!()
        };
        for (k, v) in pairs.iter_mut() {
            if k == "ingest" {
                *v = ingest.clone();
            }
        }
    }

    fn serve_doc(throughput: f64, p95: f64, warm_hit: bool) -> Json {
        Json::obj([
            ("schema", Json::str("qxmap.bench_serve")),
            ("schema_version", Json::num(1)),
            ("manifest_hash", Json::str("0xabc")),
            ("throughput_rps", Json::Num(throughput)),
            (
                "latency",
                Json::obj([
                    ("p50_ms", Json::Num(p95 / 2.0)),
                    ("p95_ms", Json::Num(p95)),
                    ("p99_ms", Json::Num(p95 * 1.5)),
                ]),
            ),
            (
                "warm_restart",
                Json::obj([
                    ("hit", Json::Bool(warm_hit)),
                    ("latency_ms", Json::Num(0.4)),
                ]),
            ),
        ])
    }

    fn with_pipelined(mut doc: Json, pipelined_rps: f64, speedup: f64) -> Json {
        if let Json::Obj(pairs) = &mut doc {
            pairs.push((
                "pipelined".to_string(),
                Json::obj([
                    ("per_client", Json::num(300)),
                    ("serial_rps", Json::Num(pipelined_rps / speedup)),
                    ("pipelined_rps", Json::Num(pipelined_rps)),
                    ("speedup", Json::Num(speedup)),
                ]),
            ));
        }
        doc
    }

    #[test]
    fn identical_runs_pass() {
        let doc = corpus_doc(200.0, 4, 0.8);
        assert_eq!(
            diff(&doc, &doc, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
        let doc = serve_doc(500.0, 40.0, true);
        assert_eq!(
            diff(&doc, &doc, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
    }

    #[test]
    fn injected_corpus_regressions_are_caught() {
        let baseline = corpus_doc(200.0, 4, 0.8);
        // 10x cold latency, doubled solve cost, collapsed hit rate.
        let fresh = corpus_doc(2000.0, 8, 0.3);
        let regressions = diff(&baseline, &fresh, &Thresholds::default()).unwrap();
        assert_eq!(regressions.len(), 3, "{regressions:?}");
        assert!(regressions.iter().any(|r| r.contains("cold solve")));
        assert!(regressions.iter().any(|r| r.contains("solve cost")));
        assert!(regressions.iter().any(|r| r.contains("cache hit rate")));
    }

    #[test]
    fn ingest_regressions_are_caught_and_absent_sections_tolerated() {
        let baseline = corpus_doc(200.0, 4, 0.8);
        // A collapsed ingest speedup (10x -> 1x) and a 10x slower QXBC
        // decode both trip the gate.
        let ingest_row = |seq: f64, skeleton: f64, qxbc: f64| {
            Json::Arr(vec![Json::obj([
                ("name", Json::str("ingest_big")),
                ("parse_seq_ms", Json::Num(seq)),
                ("skeleton_ms", Json::Num(skeleton)),
                ("qxbc_decode_ms", Json::Num(qxbc)),
                ("speedup", Json::Num(seq / qxbc)),
            ])])
        };
        let mut fresh = corpus_doc(200.0, 4, 0.8);
        set_ingest(&mut fresh, ingest_row(400.0, 300.0, 400.0));
        let regressions = diff(&baseline, &fresh, &Thresholds::default()).unwrap();
        assert!(
            regressions.iter().any(|r| r.contains("ingest speedup")),
            "{regressions:?}"
        );
        assert!(
            regressions.iter().any(|r| r.contains("qxbc_decode_ms")),
            "{regressions:?}"
        );
        // A 10x slower text parser leaves the speedup where it was (or
        // raises it), so the text paths are gated on their own times.
        let mut slow_text = corpus_doc(200.0, 4, 0.8);
        set_ingest(&mut slow_text, ingest_row(4000.0, 3000.0, 40.0));
        let regressions = diff(&baseline, &slow_text, &Thresholds::default()).unwrap();
        assert_eq!(regressions.len(), 2, "{regressions:?}");
        assert!(regressions[0].contains("parse_seq_ms"), "{regressions:?}");
        assert!(regressions[1].contains("skeleton_ms"), "{regressions:?}");

        // A baseline predating the ingest section (or a fresh run not
        // measuring it) compares cleanly — absence never regresses.
        let mut old_baseline = corpus_doc(200.0, 4, 0.8);
        set_ingest(&mut old_baseline, Json::Arr(vec![]));
        assert_eq!(
            diff(&old_baseline, &fresh, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
        let mut skipped = corpus_doc(200.0, 4, 0.8);
        set_ingest(&mut skipped, Json::Arr(vec![]));
        assert_eq!(
            diff(&baseline, &skipped, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
    }

    /// Appends a `phases` object to the named row.
    fn set_row_phases(doc: &mut Json, row_name: &str, phases: Json) {
        let Json::Obj(pairs) = doc else {
            unreachable!()
        };
        for (k, v) in pairs.iter_mut() {
            if k != "rows" {
                continue;
            }
            let Json::Arr(rows) = v else { unreachable!() };
            for row in rows {
                let Json::Obj(fields) = row else {
                    unreachable!()
                };
                if fields
                    .iter()
                    .any(|(k, v)| k == "name" && v.as_str() == Some(row_name))
                {
                    fields.push(("phases".to_string(), phases.clone()));
                }
            }
        }
    }

    #[test]
    fn phase_regressions_are_caught_and_absent_sections_tolerated() {
        let mut baseline = corpus_doc(200.0, 4, 0.8);
        set_row_phases(
            &mut baseline,
            "3_17_13",
            Json::obj([("race", Json::Num(100.0)), ("queue", Json::Num(0.02))]),
        );
        // The race phase collapses 10x; the microsecond queue phase
        // triples but stays under the noise floor.
        let mut fresh = corpus_doc(200.0, 4, 0.8);
        set_row_phases(
            &mut fresh,
            "3_17_13",
            Json::obj([("race", Json::Num(1000.0)), ("queue", Json::Num(0.06))]),
        );
        let regressions = diff(&baseline, &fresh, &Thresholds::default()).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("phase race"), "{regressions:?}");

        // A baseline predating the section — or a fresh run without it —
        // compares cleanly, as does a phase present on only one side.
        let plain = corpus_doc(200.0, 4, 0.8);
        assert_eq!(
            diff(&plain, &fresh, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
        assert_eq!(
            diff(&baseline, &plain, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
        let mut renamed = corpus_doc(200.0, 4, 0.8);
        set_row_phases(
            &mut renamed,
            "3_17_13",
            Json::obj([("windows", Json::Num(5000.0))]),
        );
        assert_eq!(
            diff(&baseline, &renamed, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
    }

    #[test]
    fn noise_floors_swallow_small_absolute_changes() {
        let baseline = corpus_doc(5.0, 4, 0.8);
        // 8x of a 5 ms cold solve is still under the 50 ms floor; a warm
        // p95 tripling from 20 µs is noise too.
        let fresh = corpus_doc(40.0, 4, 0.8);
        assert_eq!(
            diff(&baseline, &fresh, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
    }

    #[test]
    fn injected_serve_regressions_are_caught() {
        let baseline = serve_doc(500.0, 40.0, true);
        let fresh = serve_doc(50.0, 400.0, false);
        let regressions = diff(&baseline, &fresh, &Thresholds::default()).unwrap();
        assert!(regressions.iter().any(|r| r.contains("throughput")));
        assert!(regressions.iter().any(|r| r.contains("p95")));
        assert!(regressions.iter().any(|r| r.contains("warm restart")));
    }

    fn with_class_p50s(mut doc: Json, hit_ms: f64, solved_ms: f64) -> Json {
        if let Json::Obj(pairs) = &mut doc {
            let class = |p50: f64| Json::obj([("p50_ms", Json::Num(p50))]);
            pairs.push((
                "latency_by_class".to_string(),
                Json::obj([("cache_hit", class(hit_ms)), ("solved", class(solved_ms))]),
            ));
        }
        doc
    }

    #[test]
    fn medians_are_gated_per_class_not_blended() {
        let baseline = with_class_p50s(serve_doc(500.0, 40.0, true), 1.2, 90.0);
        // The blended median moved from a hit onto a solve (1.2 ms ->
        // 92 ms) while neither class moved: no regression.
        let mut mix_shift = with_class_p50s(serve_doc(500.0, 40.0, true), 1.3, 95.0);
        if let Json::Obj(pairs) = &mut mix_shift {
            let latency = pairs.iter_mut().find(|(k, _)| k == "latency").unwrap();
            latency.1 = Json::obj([
                ("p50_ms", Json::Num(92.0)),
                ("p95_ms", Json::Num(40.0)),
                ("p99_ms", Json::Num(60.0)),
            ]);
        }
        assert_eq!(
            diff(&baseline, &mix_shift, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
        // Past both the ratio and the floor, each class is caught.
        let slow_hits = with_class_p50s(serve_doc(500.0, 40.0, true), 60.0, 90.0);
        let regressions = diff(&baseline, &slow_hits, &Thresholds::default()).unwrap();
        assert!(
            regressions.iter().any(|r| r.contains("cache_hit p50")),
            "{regressions:?}"
        );
        let slow_solves = with_class_p50s(serve_doc(500.0, 40.0, true), 1.2, 400.0);
        let regressions = diff(&baseline, &slow_solves, &Thresholds::default()).unwrap();
        assert!(
            regressions.iter().any(|r| r.contains("solved p50")),
            "{regressions:?}"
        );
    }

    #[test]
    fn pipelined_collapse_is_caught_and_absent_sections_tolerated() {
        let baseline = with_pipelined(serve_doc(500.0, 40.0, true), 8000.0, 4.0);
        // A collapsed pipelined phase — throughput and speedup both far
        // below the baseline's — trips the gate on both fields.
        let fresh = with_pipelined(serve_doc(500.0, 40.0, true), 800.0, 0.5);
        let regressions = diff(&baseline, &fresh, &Thresholds::default()).unwrap();
        assert!(
            regressions
                .iter()
                .any(|r| r.contains("pipelined warm throughput")),
            "{regressions:?}"
        );
        assert!(
            regressions.iter().any(|r| r.contains("pipelining speedup")),
            "{regressions:?}"
        );

        // A baseline predating the section (or a fresh run without it)
        // compares cleanly — absence never regresses.
        let without = serve_doc(500.0, 40.0, true);
        assert_eq!(
            diff(&without, &fresh, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
        assert_eq!(
            diff(&baseline, &without, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
    }

    #[test]
    fn incompatible_documents_error_instead_of_regressing() {
        let corpus = corpus_doc(200.0, 4, 0.8);
        let serve = serve_doc(500.0, 40.0, true);
        assert!(diff(&corpus, &serve, &Thresholds::default())
            .unwrap_err()
            .contains("schema mismatch"));

        let mut other_corpus = corpus_doc(200.0, 4, 0.8);
        if let Json::Obj(pairs) = &mut other_corpus {
            for (k, v) in pairs.iter_mut() {
                if k == "manifest_hash" {
                    *v = Json::str("0xdef");
                }
            }
        }
        assert!(diff(&corpus, &other_corpus, &Thresholds::default())
            .unwrap_err()
            .contains("manifest mismatch"));

        assert!(diff(&Json::Null, &corpus, &Thresholds::default()).is_err());
    }

    #[test]
    fn disjoint_rows_are_an_error_but_subsets_compare() {
        let baseline = corpus_doc(200.0, 4, 0.8);
        let mut renamed = corpus_doc(200.0, 4, 0.8);
        if let Json::Obj(pairs) = &mut renamed {
            for (k, v) in pairs.iter_mut() {
                if k == "rows" {
                    *v = Json::Arr(vec![Json::obj([("name", Json::str("nope"))])]);
                }
            }
        }
        assert!(diff(&baseline, &renamed, &Thresholds::default())
            .unwrap_err()
            .contains("no overlapping rows"));

        // A smoke run (subset of the baseline's rows) compares cleanly.
        let mut smoke = corpus_doc(190.0, 4, 0.8);
        if let Json::Obj(pairs) = &mut smoke {
            for (k, v) in pairs.iter_mut() {
                if k == "rows" {
                    let Json::Arr(rows) = v.clone() else {
                        unreachable!()
                    };
                    *v = Json::Arr(rows[..1].to_vec());
                }
            }
        }
        assert_eq!(
            diff(&baseline, &smoke, &Thresholds::default()).unwrap(),
            vec![] as Vec<String>
        );
    }
}

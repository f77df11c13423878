//! The traced mode: replays a workload's requests in-process through
//! each layer's public functions, recording spans in memory, and times
//! every racer standalone on the same request (racers run concurrently
//! inside `Portfolio::run`, where they cannot be seen from outside).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use qxmap_arch::{devices, DeviceModel};
use qxmap_core::SpanRecorder;
use qxmap_map::{Engine, ExactEngine, HeuristicEngine, MapReport, Portfolio, SolveCache};
use qxmap_serve::{proto, Json, Request};
use qxmap_window::WindowedEngine;

use crate::gen::Workload;

/// Exact-regime limit of the standalone exact runs (the daemon's own).
const EXACT_MAX_QUBITS: usize = qxmap_core::MAX_EXACT_QUBITS;
/// Trials of the standalone stochastic racer, as `bench_corpus` runs it.
/// The daemon's portfolio races no stochastic engine, so this timing
/// comes from no served request.
const STOCHASTIC_TRIALS: u64 = 5;

/// One closed span: a name, offsets from the run origin, its parent and
/// the request it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us: self.at(start),
            end_us: self.at(end),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let value = f();
        let id = self.record(name, parent, req, start, Instant::now());
        (value, id)
    }

    /// A span whose end is filled in later by [`Spans::close`].
    fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.at(Instant::now());
    }

    /// Self time: the span's duration minus its children's.
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.us();
            }
        }
        own
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"req\":{}}}{sep}",
                s.name, s.start_us, s.end_us, s.req
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Per-request measurements the per-layer metrics are built from.
#[derive(Default)]
pub struct Tally {
    pub requests: usize,
    pub inproc_us: Vec<f64>,
    pub qasm_bytes: f64,
    pub parse_s: f64,
    pub skeleton_s: f64,
    pub emit_bytes: f64,
    pub emit_s: f64,
    pub decode_us: Vec<f64>,
    pub render_us: Vec<f64>,
    pub probe_us: Vec<f64>,
    pub probe_hits: usize,
    pub materialize_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub race_ms: Vec<f64>,
    pub winners: BTreeMap<String, usize>,
    pub window_ms: Vec<f64>,
    pub windows: Vec<f64>,
    pub bridge_gates: Vec<f64>,
    pub window_hits: usize,
    pub window_total: usize,
    pub encode_ms: Vec<f64>,
    pub clauses: Vec<f64>,
    pub search_ms: Vec<f64>,
    pub exact_proved: usize,
    pub sabre_ms: Vec<f64>,
    pub stochastic_ms: Vec<f64>,
    pub naive_ms: Vec<f64>,
    pub model_build_us: Vec<f64>,
}

/// Answers every pool line once, in-process, so the process-wide cache
/// holds what the daemon's holds after priming.
pub fn prime(workload: &Workload, lines: &[String]) {
    let jobs: Vec<&String> = lines.iter().collect();
    std::thread::scope(|scope| {
        for chunk in jobs.chunks(jobs.len().div_ceil(workload.connections.max(1)).max(1)) {
            scope.spawn(move || {
                for line in chunk {
                    if let Ok(Request::Map(job)) = proto::parse_request(line) {
                        if let Ok(request) = job.materialize() {
                            let _ = qxmap_map::map_one(&request);
                        }
                    }
                }
            });
        }
    });
}

/// Times the device model build of every distinct device.
pub fn model_builds(workload: &Workload, tally: &mut Tally) {
    let mut names: Vec<&str> = workload.items.iter().map(|i| i.device).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let cm = devices::by_name(name).expect("workload devices are library names");
        let start = Instant::now();
        let model = DeviceModel::new(cm);
        tally
            .model_build_us
            .push(start.elapsed().as_secs_f64() * 1e6);
        drop(model);
    }
}

/// Replays one request line along the daemon's path (decode, probe,
/// materialize, solve or window, cache insert, render) and then runs
/// each racer standalone on it.
pub fn replay(line: &str, req: u64, spans: &mut Spans, tally: &mut Tally) -> Result<(), String> {
    let value = Json::parse(line).map_err(|e| e.to_string())?;
    let qasm = value
        .get("qasm")
        .and_then(Json::as_str)
        .ok_or("no qasm")?
        .to_string();
    let root = spans.open("request", None, req);
    let (parsed, decode) = spans.time("serve.decode", Some(root), req, || {
        proto::parse_request(line)
    });
    let Ok(Request::Map(job)) = parsed else {
        return Err("request did not parse as a map job".to_string());
    };
    let (probed, probe) = spans.time("map.cache.probe", Some(root), req, || {
        job.cache_probe().and_then(|p| qxmap_map::probe_one(&p))
    });
    tally.probe_us.push(spans.spans[probe].us());
    let mut standalone = None;
    let report: MapReport = match probed {
        Some(hit) => {
            tally.probe_hits += 1;
            hit
        }
        None => {
            let windowed = job.windowed_options();
            let (request, mat) =
                spans.time("qasm.materialize", Some(root), req, || job.materialize());
            tally.materialize_us.push(spans.spans[mat].us());
            let request = request.map_err(|r| r.message)?;
            standalone = Some(request.clone());
            match windowed {
                Some(options) => {
                    let (report, win) = spans.time("window.run", Some(root), req, || {
                        WindowedEngine::with_options(options).run(&request)
                    });
                    let report = report.map_err(|e| e.to_string())?;
                    tally.window_ms.push(spans.spans[win].us() / 1e3);
                    let certs = report.windows.as_deref().unwrap_or_default();
                    tally.windows.push(certs.len() as f64);
                    tally
                        .bridge_gates
                        .push(certs.iter().map(|w| w.bridge_cost as f64).sum());
                    tally.window_hits += certs.iter().filter(|w| w.served_from_cache).count();
                    tally.window_total += certs.len();
                    report
                }
                None => solve(&request, root, req, spans, tally)?,
            }
        }
    };
    let winner = report
        .winner
        .strip_prefix("cache/")
        .unwrap_or(&report.winner)
        .to_string();
    *tally.winners.entry(winner).or_default() += 1;
    let (_, render) = spans.time("serve.render", Some(root), req, || {
        proto::result_response(job.id.clone(), &report).to_string()
    });
    spans.close(root);
    // The qasm and skeleton shares of the decode and the qasm share of the
    // render, measured again on the same payloads just after the request
    // span and subtracted from their parents.
    let (program, parse) = spans.time("qasm.parse", Some(decode), req, || {
        qxmap_qasm::parse_program_fast(&qasm)
    });
    let program = program.map_err(|e| e.to_string())?;
    let (_, skeleton) = spans.time("circuit.skeleton", Some(decode), req, || {
        qxmap_qasm::to_skeleton(&program)
    });
    tally.qasm_bytes += qasm.len() as f64;
    tally.parse_s += spans.spans[parse].us() / 1e6;
    tally.skeleton_s += spans.spans[skeleton].us() / 1e6;
    let (text, emit) = spans.time("qasm.emit", Some(render), req, || {
        qxmap_qasm::to_qasm(&report.mapped)
    });
    tally.emit_bytes += text.len() as f64;
    tally.emit_s += spans.spans[emit].us() / 1e6;
    tally.render_us.push(spans.spans[render].us());
    tally
        .decode_us
        .push(spans.spans[decode].us() - spans.spans[parse].us() - spans.spans[skeleton].us());
    tally.inproc_us.push(spans.spans[root].us());
    tally.requests += 1;

    if let Some(request) = standalone {
        racers(&request, req, spans, tally);
    }
    Ok(())
}

/// The solve path behind a probe miss: the solve's own cache lookup, the
/// portfolio race (its exact racer's encode and search phases read off
/// the race timeline) and the cache insert.
fn solve(
    request: &qxmap_map::MapRequest,
    root: usize,
    req: u64,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<MapReport, String> {
    let cache = SolveCache::shared();
    let portfolio = Portfolio::new();
    let signature = portfolio.cache_signature();
    let (hit, _) = spans.time("map.cache.lookup", Some(root), req, || {
        cache.lookup(&signature, request)
    });
    if let Some(hit) = hit {
        return Ok(hit);
    }
    let recorder = SpanRecorder::new();
    let traced = request.clone().with_trace(recorder.clone());
    let race_start = Instant::now();
    let (report, race) = spans.time("map.portfolio.race", Some(root), req, || {
        portfolio.run(&traced)
    });
    let mut report = report.map_err(|e| e.to_string())?;
    report.trace = None;
    let race_us = spans.spans[race].us();
    tally.race_ms.push(race_us / 1e3);
    // The exact racer is the race's critical path: attribute its encode
    // and search spans (clipped to the race) to `core` and `sat`.
    if let Some(trace) = recorder.finish() {
        let offset = race_start
            .saturating_duration_since(spans.origin)
            .as_secs_f64()
            * 1e6;
        let phase = |suffix: &str| -> Vec<(f64, f64)> {
            trace
                .spans
                .iter()
                .filter(|s| s.path.starts_with("race/exact/") && s.path.ends_with(suffix))
                .map(|s| (s.start_us as f64, s.duration_us as f64))
                .collect()
        };
        let (encode, minimize) = (phase("/encode"), phase("/minimize"));
        let total: f64 = encode.iter().chain(&minimize).map(|(_, d)| d).sum();
        let scale = if total > race_us {
            race_us / total
        } else {
            1.0
        };
        for (name, parts) in [("core.encode", encode), ("sat.search", minimize)] {
            for (start, duration) in parts {
                spans.spans.push(Span {
                    name,
                    start_us: offset + start,
                    end_us: offset + start + duration * scale,
                    parent: Some(race),
                    req,
                });
            }
        }
    }
    let (_, insert) = spans.time("map.cache.insert", Some(root), req, || {
        cache.insert(&signature, request, &report)
    });
    tally.insert_us.push(spans.spans[insert].us());
    Ok(report)
}

/// Runs each racer standalone on the request, outside the request span.
fn racers(request: &qxmap_map::MapRequest, req: u64, spans: &mut Spans, tally: &mut Tally) {
    let root = spans.open("standalone", None, req);
    if request.device().num_qubits() <= EXACT_MAX_QUBITS {
        let recorder = SpanRecorder::new();
        let traced = request.clone().with_trace(recorder.clone());
        let (result, exact) =
            spans.time("exact", Some(root), req, || ExactEngine::new().run(&traced));
        let exact_ms = spans.spans[exact].us() / 1e3;
        let trace = recorder.finish().unwrap_or_default();
        let encodes = trace.spans.iter().filter(|s| s.path.ends_with("/encode"));
        let encode_ms: f64 = encodes.clone().map(|s| s.duration_us as f64 / 1e3).sum();
        let clauses: u64 = encodes
            .flat_map(|s| {
                s.counters
                    .iter()
                    .filter(|(k, _)| k == "clauses")
                    .map(|(_, v)| *v)
            })
            .sum();
        tally.encode_ms.push(encode_ms.min(exact_ms));
        tally.search_ms.push((exact_ms - encode_ms).max(0.0));
        tally.clauses.push(clauses as f64);
        tally.exact_proved += usize::from(result.is_ok_and(|r| r.proved_optimal));
    }
    for (name, engine, out) in [
        ("sabre", HeuristicEngine::sabre(), &mut tally.sabre_ms),
        (
            "stochastic",
            HeuristicEngine::stochastic(STOCHASTIC_TRIALS),
            &mut tally.stochastic_ms,
        ),
        ("naive", HeuristicEngine::naive(), &mut tally.naive_ms),
    ] {
        let (_, id) = spans.time(name, Some(root), req, || engine.run(request));
        out.push(spans.spans[id].us() / 1e3);
    }
    spans.close(root);
}

/// Layer of a request-path span, by its name's first segment.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

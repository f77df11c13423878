//! The serving-tier soak harness: boots the real [`qxmap_serve::Server`]
//! on a loopback TCP listener, drives `k` concurrent client connections
//! with a deterministic mix of cold, warm, large-device and invalid traffic,
//! then shuts down, restarts from the cache journal, and measures the
//! warm-restart hit. A warm phase drives identical cache-hit traffic in
//! lockstep and in pipelined mode to measure the pipelining throughput
//! win. The daemon runs with its observability layer live — large-device
//! traffic is traced, slowlog ring admissions append to a `--trace-log`
//! JSONL file whose lines must parse, and the untraced warm
//! `handle_line` path is measured against a trace-off daemon
//! (observability must cost it under 5%). Writes `BENCH_serve.json` — throughput, client-observed
//! latency percentiles (blended, and per class, whose medians
//! `bench_diff` gates separately: `cache_hit` times the warm-pool lines,
//! each answered once before the timed phase and asserted cache-served
//! in it; `solved` times the unique-seed lines), the daemon's
//! own histogram/deadline/overload
//! counters, the pipelined speedup, the warm-restart latency, and the
//! trace-overhead probe.
//!
//! Traffic is deterministic per `--seed` (request kinds and cold-request
//! cache keys come from a SplitMix64 stream), but thread interleaving is
//! not: counters like overload rejections vary run to run, which is why
//! `bench_diff` gates only on throughput, percentiles and the
//! warm-restart hit.
//!
//! Flags:
//!
//! * `--smoke` — shorter run for CI (fewer clients and requests);
//! * `--out PATH` — artifact path (default `BENCH_serve.json`);
//! * `--clients K` / `--per-client N` / `--seed S` — load shape.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qxmap_bench::stats;
use qxmap_benchmarks::corpus::{manifest_hash, smoke_corpus};
use qxmap_benchmarks::synthetic_circuit;
use qxmap_map::SolveCache;
use qxmap_serve::{Json, Server, ServerConfig};

/// SplitMix64: deterministic, seedable, and three lines — the harness
/// needs reproducible schedules, not statistical quality.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

struct Flags {
    smoke: bool,
    out: String,
    clients: usize,
    per_client: usize,
    seed: u64,
}

fn parse_flags() -> Flags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let parsed =
        |name: &str, default: usize| value(name).and_then(|v| v.parse().ok()).unwrap_or(default);
    Flags {
        smoke,
        out: value("--out").unwrap_or_else(|| "BENCH_serve.json".to_string()),
        clients: parsed("--clients", if smoke { 4 } else { 6 }),
        per_client: parsed("--per-client", if smoke { 10 } else { 30 }),
        seed: value("--seed").and_then(|v| v.parse().ok()).unwrap_or(7),
    }
}

/// What a timed request line was, by what the client sent.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// A warm-pool line, primed before the timed phase: a cache hit.
    Warm,
    /// A never-repeated seed: a solve.
    Cold,
    /// The traced large-device line: solved on its first arrival, a
    /// cache hit after. It counts in the blended latency only.
    Windowed,
    /// A deliberately malformed line.
    Invalid,
}

/// What one request line did, from the client's side.
#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    Answered,
    Rejected,
    /// Admitted, but its deadline expired in the queue and the EDF
    /// scheduler shed it before dispatch — legitimate under overload.
    Shed,
    Error,
}

struct Sample {
    kind: Kind,
    outcome: Outcome,
    ms: f64,
}

/// One request over an open connection; panics on transport failure
/// (the soak's whole point is that the daemon never drops a reply).
fn round_trip(writer: &mut TcpStream, reader: &mut impl BufRead, line: &str) -> (Json, f64) {
    let start = Instant::now();
    writeln!(writer, "{line}").expect("daemon accepts writes");
    writer.flush().expect("daemon accepts writes");
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .expect("daemon answers every request");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(!response.is_empty(), "daemon dropped an in-flight reply");
    (Json::parse(&response).expect("daemon speaks JSON"), ms)
}

/// The warm pool: requests repeated across clients, each answered once
/// before the timed phase so the solve cache answers every timed one.
/// Built from the smoke corpus — real Table 1 shapes and large-device
/// workloads on real devices, every answer cached whole.
fn warm_pool() -> Vec<String> {
    smoke_corpus()
        .iter()
        .map(|e| {
            format!(
                "{{\"type\":\"map\",\"qasm\":{},\"device\":\"{}\",\"deadline_ms\":{}}}",
                Json::str(qxmap_qasm::to_qasm(&e.circuit)),
                e.device,
                e.deadline_ms,
            )
        })
        .collect()
}

/// A cold request: the warm pool's first circuit under a never-repeated
/// `seed`, which is part of the solve-cache key — guaranteed miss, same
/// solve shape every time.
fn cold_line(qasm: &str, unique_seed: u64) -> String {
    format!(
        "{{\"type\":\"map\",\"qasm\":{},\"device\":\"qx5\",\"deadline_ms\":10000,\"seed\":{unique_seed}}}",
        Json::str(qasm),
    )
}

/// A large-device request: a 10-qubit CNOT ladder on linear-12 — past
/// the exact regime, so the served engine races the window
/// decomposition against the heuristic floor, but small enough to keep
/// the soak short. Traced: large-device solves are the soak's slowest
/// class, so their slowlog ring admissions exercise the `--trace-log`
/// JSONL path with full timelines attached.
fn windowed_line() -> String {
    let mut qasm = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[10];\n");
    for q in 0..9 {
        qasm.push_str(&format!("cx q[{}], q[{}];\n", q, q + 1));
    }
    format!(
        "{{\"type\":\"map\",\"qasm\":{},\"device\":\"linear-12\",\
         \"trace\":true,\"deadline_ms\":30000}}",
        Json::str(qasm)
    )
}

/// One timed run of warm-hit `handle_line` calls (µs per request),
/// in-process so the number is the daemon's own hot path with no socket
/// in the way. Callers interleave runs across servers and keep each
/// server's minimum — the minimum rejects scheduler noise, and the
/// interleaving denies either server a systematically quieter slot.
fn warm_handle_run_us(server: &Server, line: &str, iters: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        let _ = server.handle_line(line);
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Primes a server for the overhead probe: asserts the probe line is a
/// warm hit, then pumps enough requests that the slowlog ring is full
/// of equal-latency entries (so steady-state probing admits nothing and
/// the trace log sees no per-request I/O — the same steady state a
/// long-running daemon serves from).
fn prime_warm_probe(server: &Server, line: &str) {
    let first = server.handle_line(line);
    assert!(
        first.response().contains("\"served_from_cache\":true"),
        "the overhead probe must be a warm hit: {}",
        first.response()
    );
    for _ in 0..200 {
        let _ = server.handle_line(line);
    }
}

/// Invalid traffic: the daemon must answer each with a structured error
/// without disturbing its neighbors.
const INVALID_LINES: &[&str] = &[
    "this is not json",
    "{\"type\":\"map\"}",
    "{\"type\":\"map\",\"qasm\":\"OPENQASM 2.0;\",\"device\":\"atlantis\"}",
    "{\"type\":\"frobnicate\"}",
];

/// Warm-only throughput in one of the two client modes, against an
/// already-warmed daemon: every request is a cache hit, so the only
/// variable is the wire discipline. Serial mode waits for each response
/// before sending the next line (one round trip per request); pipelined
/// mode streams every line from a writer thread and drains the
/// responses as they come back. The ratio of the two is the pipelining
/// win recorded in `BENCH_serve.json`.
fn warm_throughput(
    addr: std::net::SocketAddr,
    clients: usize,
    per_client: usize,
    warm: &Arc<Vec<String>>,
    pipelined: bool,
) -> f64 {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let warm = Arc::clone(warm);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("daemon is listening");
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("socket option");
                stream.set_nodelay(true).expect("socket option");
                let mut writer = stream.try_clone().expect("socket clone");
                let mut reader = BufReader::new(stream);
                // Both modes validate identically (a cheap substring
                // check): the phase measures the wire discipline, not
                // client-side JSON parsing.
                let ok = |response: &str| {
                    assert!(
                        response.contains("\"type\":\"result\""),
                        "warm traffic never errors: {response}"
                    );
                };
                if pipelined {
                    // Drain responses in the fewest reads, too.
                    let mut reader = BufReader::with_capacity(1 << 20, reader.into_inner());
                    let pool = Arc::clone(&warm);
                    let writer_thread = std::thread::spawn(move || {
                        // A pipelined client batches its writes too —
                        // that's the point of not waiting per request.
                        // The buffer holds the whole volley: draining
                        // it in the fewest writes the socket allows
                        // keeps the single-core scheduler from locking
                        // client and daemon into per-chunk lockstep.
                        let mut writer = std::io::BufWriter::with_capacity(1 << 20, writer);
                        for i in 0..per_client {
                            let line = &pool[(client + i) % pool.len()];
                            writeln!(writer, "{line}").expect("daemon accepts writes");
                        }
                        writer.flush().expect("daemon accepts writes");
                    });
                    for _ in 0..per_client {
                        let mut response = String::new();
                        reader
                            .read_line(&mut response)
                            .expect("daemon answers every request");
                        ok(&response);
                    }
                    writer_thread.join().expect("writer thread finishes");
                } else {
                    for i in 0..per_client {
                        let line = &warm[(client + i) % warm.len()];
                        writeln!(writer, "{line}").expect("daemon accepts writes");
                        writer.flush().expect("daemon accepts writes");
                        let mut response = String::new();
                        reader
                            .read_line(&mut response)
                            .expect("daemon answers every request");
                        ok(&response);
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client threads do not panic");
    }
    (clients * per_client) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let flags = parse_flags();
    let dir = std::env::temp_dir().join(format!("qxmap-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("writable temp dir");
    let journal = dir.join("soak.qxj");
    let _ = std::fs::remove_file(&journal);
    let trace_log = dir.join("soak-trace.jsonl");
    let _ = std::fs::remove_file(&trace_log);

    // Cold process-wide cache: the soak measures the serving tier, not
    // leftovers from this process.
    SolveCache::shared().clear();

    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 4,
        journal: Some(journal.clone()),
        trace_log: Some(trace_log.clone()),
    });
    server.warm_start().expect("a fresh journal attaches");
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound address");
    let accept_loop = std::thread::spawn({
        let server = Arc::clone(&server);
        move || server.serve_tcp(listener)
    });

    // Answer each warm-pool line once, so every timed one is a hit.
    let warm = Arc::new(warm_pool());
    for line in warm.iter() {
        let primed = server.handle_line(line);
        assert!(
            primed.response().contains("\"type\":\"result\""),
            "a warm-pool line must map: {}",
            primed.response()
        );
    }
    let cold_qasm = Arc::new(qxmap_qasm::to_qasm(&synthetic_circuit(6, 10, 16, 0xACE)));
    let windowed = Arc::new(windowed_line());
    println!(
        "soak: {} clients x {} requests against {addr} (seed {})",
        flags.clients, flags.per_client, flags.seed
    );

    let soak_start = Instant::now();
    let clients: Vec<_> = (0..flags.clients)
        .map(|client| {
            let warm = Arc::clone(&warm);
            let cold_qasm = Arc::clone(&cold_qasm);
            let windowed = Arc::clone(&windowed);
            let per_client = flags.per_client;
            let seed = flags.seed;
            std::thread::spawn(move || {
                let mut rng = Rng(seed ^ (client as u64).wrapping_mul(0x9E37_79B9));
                let stream = TcpStream::connect(addr).expect("daemon is listening");
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("socket option");
                stream.set_nodelay(true).expect("socket option");
                let mut writer = stream.try_clone().expect("socket clone");
                let mut reader = BufReader::new(stream);
                let mut samples: Vec<Sample> = Vec::with_capacity(per_client);
                for request in 0..per_client {
                    let roll = rng.next() % 100;
                    let (line, kind) = if roll < 50 {
                        (warm[(rng.next() as usize) % warm.len()].clone(), Kind::Warm)
                    } else if roll < 75 {
                        // Masked to 48 bits: the protocol carries
                        // integers as f64 and rejects values past 2^53.
                        let seed = rng.next() & 0xFFFF_FFFF_FFFF;
                        (cold_line(&cold_qasm, seed), Kind::Cold)
                    } else if roll < 85 {
                        ((*windowed).clone(), Kind::Windowed)
                    } else {
                        let line = INVALID_LINES[(client + request) % INVALID_LINES.len()];
                        (line.to_string(), Kind::Invalid)
                    };
                    let (response, ms) = round_trip(&mut writer, &mut reader, &line);
                    let outcome = match response.get("type").and_then(Json::as_str) {
                        Some("result") => {
                            let cached = response.get("served_from_cache").and_then(Json::as_bool)
                                == Some(true);
                            match kind {
                                Kind::Warm => {
                                    assert!(cached, "a primed line was not a hit: {response}")
                                }
                                Kind::Cold => {
                                    assert!(!cached, "a unique seed was a hit: {response}")
                                }
                                Kind::Windowed | Kind::Invalid => {}
                            }
                            Outcome::Answered
                        }
                        Some("error") => {
                            let code = response.get("code").and_then(Json::as_str);
                            if code == Some("overloaded") {
                                Outcome::Rejected
                            } else if code == Some("deadline_expired") {
                                Outcome::Shed
                            } else {
                                // Only the deliberately malformed lines
                                // may error: a structured failure on
                                // valid traffic is a harness bug worth
                                // stopping the soak for.
                                assert!(kind == Kind::Invalid, "valid request errored: {response}");
                                Outcome::Error
                            }
                        }
                        other => panic!("unexpected response type {other:?}"),
                    };
                    samples.push(Sample { kind, outcome, ms });
                }
                samples
            })
        })
        .collect();

    let mut samples: Vec<Sample> = Vec::new();
    for client in clients {
        samples.extend(client.join().expect("client threads do not panic"));
    }
    let wall_s = soak_start.elapsed().as_secs_f64();

    // The pipelining win, measured apples-to-apples: a small primed
    // request (so parsing and solving cost nothing — every answer is a
    // microsecond cache hit and the wire discipline is the only
    // variable), driven serially (lockstep round trips) and pipelined
    // (streamed requests, responses drained as they complete).
    let ping = Arc::new(vec![format!(
        "{{\"type\":\"map\",\"qasm\":{},\"device\":\"qx4\",\"deadline_ms\":30000}}",
        Json::str(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n\
             cx q[0], q[1];\ncx q[1], q[2];\ncx q[0], q[2];\n"
        )
    )]);
    {
        let stream = TcpStream::connect(addr).expect("daemon is listening");
        let mut writer = stream.try_clone().expect("socket clone");
        let mut reader = BufReader::new(stream);
        let (r, _) = round_trip(&mut writer, &mut reader, &ping[0]);
        assert_eq!(r.get("type").and_then(Json::as_str), Some("result"));
    }
    // One connection per mode: pipelining is a per-connection wire
    // discipline, and a pool of concurrent lockstep clients would hide
    // the very round-trip stalls the phase exists to measure. Modes
    // alternate and each keeps its best of three runs — one warm run is
    // tens of milliseconds, well inside scheduler-noise territory, and
    // the best run is the one least perturbed by it.
    let warm_per_client = flags.per_client * 50;
    let mut serial_rps = f64::MIN;
    let mut pipelined_rps = f64::MIN;
    for _ in 0..3 {
        serial_rps = serial_rps.max(warm_throughput(addr, 1, warm_per_client, &ping, false));
        pipelined_rps = pipelined_rps.max(warm_throughput(addr, 1, warm_per_client, &ping, true));
    }
    let speedup = pipelined_rps / serial_rps;
    println!(
        "warm phase: serial {serial_rps:.0} req/s, pipelined {pipelined_rps:.0} req/s \
         ({speedup:.2}x)"
    );

    // The daemon's own view, over the same wire.
    let metrics_stream = TcpStream::connect(addr).expect("daemon is listening");
    let mut metrics_writer = metrics_stream.try_clone().expect("socket clone");
    let mut metrics_reader = BufReader::new(metrics_stream);
    let (metrics, _) = round_trip(
        &mut metrics_writer,
        &mut metrics_reader,
        "{\"type\":\"metrics\"}",
    );
    let (ack, _) = round_trip(
        &mut metrics_writer,
        &mut metrics_reader,
        "{\"type\":\"shutdown\"}",
    );
    assert_eq!(ack.get("type").and_then(Json::as_str), Some("ok"), "{ack}");
    accept_loop
        .join()
        .expect("accept loop exits on shutdown")
        .expect("accept loop exits cleanly");
    server.finish().expect("journal drain succeeds");

    // The trace log the daemon left behind: one parseable JSON object
    // per line (slowlog ring admissions), the slow ones carrying full
    // timelines from the traced large-device requests.
    let logged = std::fs::read_to_string(&trace_log).expect("trace log written");
    let mut trace_log_lines = 0u64;
    let mut trace_log_traced = 0u64;
    for line in logged.lines() {
        let entry =
            Json::parse(line).unwrap_or_else(|e| panic!("trace log line is not JSON: {e}\n{line}"));
        assert!(
            entry.get("latency_us").and_then(Json::as_u64).is_some(),
            "trace log entries carry latency_us: {line}"
        );
        trace_log_traced += u64::from(entry.get("trace").is_some());
        trace_log_lines += 1;
    }
    assert!(
        trace_log_lines > 0,
        "slowlog ring admissions must reach the trace log"
    );

    // Warm restart: a fresh server replaying the journal answers a
    // repeated request from cache.
    SolveCache::shared().clear();
    let restarted = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 4,
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    });
    let journal_admitted = restarted
        .warm_start()
        .expect("the journal re-attaches")
        .expect("journal configured")
        .admitted;
    assert!(
        journal_admitted > 0,
        "the soak must leave a warm journal behind"
    );
    let restart_start = Instant::now();
    let handled = restarted.handle_line(&warm[0]);
    let restart_ms = restart_start.elapsed().as_secs_f64() * 1e3;
    let response = Json::parse(handled.response()).expect("response is JSON");
    let warm_restart_hit = response.get("served_from_cache").and_then(Json::as_bool) == Some(true);

    // The trace-overhead probe: the restarted server runs without a
    // trace log; a second fresh server runs with one attached. Both are
    // freshly booted, share the same process-wide solve cache, and are
    // probed in interleaved runs, so the only variable left is the
    // observability layer itself. Untraced requests must not pay for it
    // — under 5%, or within an absolute few-microsecond noise floor (a
    // warm hit is ~15 µs; 5% of it is scheduler-noise territory, and
    // the floor keeps the gate honest the same way `bench_diff`'s
    // latency floor does).
    let probe_log = dir.join("probe-trace.jsonl");
    let observed = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 4,
        trace_log: Some(probe_log),
        ..ServerConfig::default()
    });
    prime_warm_probe(&restarted, &ping[0]);
    prime_warm_probe(&observed, &ping[0]);
    let mut warm_us_plain = f64::INFINITY;
    let mut warm_us_observed = f64::INFINITY;
    for _ in 0..3 {
        warm_us_plain = warm_us_plain.min(warm_handle_run_us(&restarted, &ping[0], 2_000));
        warm_us_observed = warm_us_observed.min(warm_handle_run_us(&observed, &ping[0], 2_000));
    }
    let overhead_pct = (warm_us_observed / warm_us_plain - 1.0) * 100.0;
    println!(
        "warm handle_line: {warm_us_plain:.1} us plain, {warm_us_observed:.1} us with \
         observability ({overhead_pct:+.1}%), trace log {trace_log_lines} lines \
         ({trace_log_traced} traced)"
    );
    assert!(
        warm_us_observed <= warm_us_plain * 1.05 || warm_us_observed - warm_us_plain <= 5.0,
        "observability must cost the untraced warm path under 5%: \
         {warm_us_plain:.1} us -> {warm_us_observed:.1} us"
    );
    observed.finish().expect("clean drain");

    restarted.finish().expect("clean drain");
    std::fs::remove_dir_all(&dir).ok();

    let count = |o: Outcome| samples.iter().filter(|s| s.outcome == o).count() as u64;
    let total = samples.len() as u64;
    let answered = |kind: Option<Kind>| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.outcome == Outcome::Answered && kind.is_none_or(|k| s.kind == k))
            .map(|s| s.ms)
            .collect()
    };
    let cache_hits = answered(Some(Kind::Warm)).len() as u64;
    assert_eq!(
        total,
        (flags.clients * flags.per_client) as u64,
        "every request line got exactly one reply"
    );
    let requests = metrics.get("requests").expect("metrics carry requests");
    let daemon = |key: &str| requests.get(key).and_then(Json::as_u64).unwrap_or(0);
    let histogram = metrics.get("latency").expect("metrics carry latency");
    let throughput = total as f64 / wall_s;

    let doc = Json::obj([
        ("schema", Json::str("qxmap.bench_serve")),
        ("schema_version", Json::num(1)),
        (
            "manifest_hash",
            Json::str(format!("{:#018x}", manifest_hash())),
        ),
        ("smoke", Json::Bool(flags.smoke)),
        ("seed", Json::num(flags.seed)),
        ("clients", Json::num(flags.clients as u64)),
        ("per_client", Json::num(flags.per_client as u64)),
        ("wall_s", Json::Num((wall_s * 1e3).round() / 1e3)),
        (
            "throughput_rps",
            Json::Num((throughput * 10.0).round() / 10.0),
        ),
        (
            "requests",
            Json::obj([
                ("total", Json::num(total)),
                ("results", Json::num(count(Outcome::Answered) - cache_hits)),
                ("cache_hits", Json::num(cache_hits)),
                ("rejected_overload", Json::num(count(Outcome::Rejected))),
                ("shed_deadline", Json::num(count(Outcome::Shed))),
                ("errors", Json::num(count(Outcome::Error))),
            ]),
        ),
        ("latency", stats::latency_json(&answered(None))),
        (
            "latency_by_class",
            Json::obj([
                (
                    "cache_hit",
                    stats::latency_json(&answered(Some(Kind::Warm))),
                ),
                ("solved", stats::latency_json(&answered(Some(Kind::Cold)))),
            ]),
        ),
        (
            "daemon",
            Json::obj([
                ("received", Json::num(daemon("received"))),
                ("completed", Json::num(daemon("completed"))),
                ("served_from_cache", Json::num(daemon("served_from_cache"))),
                ("rejected_overload", Json::num(daemon("rejected_overload"))),
                ("rejected_deadline", Json::num(daemon("rejected_deadline"))),
                ("deadline_misses", Json::num(daemon("deadline_misses"))),
                (
                    "p50_us",
                    histogram.get("p50_us").cloned().unwrap_or(Json::Null),
                ),
                (
                    "p95_us",
                    histogram.get("p95_us").cloned().unwrap_or(Json::Null),
                ),
                (
                    "p99_us",
                    histogram.get("p99_us").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ),
        (
            "pipelined",
            Json::obj([
                ("per_client", Json::num(warm_per_client as u64)),
                ("serial_rps", Json::Num((serial_rps * 10.0).round() / 10.0)),
                (
                    "pipelined_rps",
                    Json::Num((pipelined_rps * 10.0).round() / 10.0),
                ),
                ("speedup", Json::Num((speedup * 100.0).round() / 100.0)),
            ]),
        ),
        (
            "warm_restart",
            Json::obj([
                ("journal_admitted", Json::num(journal_admitted as u64)),
                ("hit", Json::Bool(warm_restart_hit)),
                ("latency_ms", Json::Num(stats::round_ms(restart_ms))),
            ]),
        ),
        (
            "trace",
            Json::obj([
                ("log_lines", Json::num(trace_log_lines)),
                ("log_lines_traced", Json::num(trace_log_traced)),
                (
                    "warm_us_plain",
                    Json::Num((warm_us_plain * 10.0).round() / 10.0),
                ),
                (
                    "warm_us_with_observability",
                    Json::Num((warm_us_observed * 10.0).round() / 10.0),
                ),
                (
                    "overhead_pct",
                    Json::Num((overhead_pct * 10.0).round() / 10.0),
                ),
            ]),
        ),
    ]);
    std::fs::write(&flags.out, stats::pretty(&doc)).expect("writable output path");
    println!(
        "wrote {} ({total} requests, {throughput:.1} req/s, warm restart hit: {warm_restart_hit})",
        flags.out
    );
    assert!(
        warm_restart_hit,
        "a restart from the soak's journal must answer a repeated request from cache"
    );
    // Smoke runs are too short for a stable ratio; the full soak pins
    // the tentpole claim that pipelining at least doubles warm-traffic
    // throughput over lockstep request/response.
    assert!(
        flags.smoke || speedup >= 2.0,
        "pipelined warm throughput must be at least 2x serial, got {speedup:.2}x"
    );
}

//! End-to-end tracing over the real wire: `"trace": true` attaches a
//! phase timeline to cold exact solves, warm cache hits and windowed
//! solves; the slow-request ring dumps via `{"type":"slowlog"}` and
//! mirrors admissions to the `--trace-log` JSONL file; and
//! `{"type":"metrics","format":"prometheus"}` answers with valid text
//! exposition.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use qxmap_serve::Json;

const QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncx q[0], q[1];\ncx q[2], q[3];\ncx q[0], q[2];\ncx q[1], q[3];\n";

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn boot(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qxmap-serve"))
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("binary built by cargo");
        let stdout = child.stdout.take().expect("stdout piped");
        let announcement = BufReader::new(stdout)
            .lines()
            .next()
            .expect("the daemon announces its address")
            .expect("readable stdout");
        let parsed = Json::parse(&announcement).expect("announcement is JSON");
        let addr = parsed
            .get("addr")
            .and_then(Json::as_str)
            .expect("announced addr")
            .to_string();
        Daemon { child, addr }
    }

    fn request(&self, line: &str) -> Json {
        let stream = TcpStream::connect(&self.addr).expect("daemon is listening");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        Json::parse(&response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    }

    fn shutdown_and_wait(mut self) {
        let ack = self.request("{\"type\":\"shutdown\"}");
        assert_eq!(ack.get("type").and_then(Json::as_str), Some("ok"));
        let status = self.child.wait().expect("daemon exits after shutdown");
        assert!(status.success(), "daemon exited with {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn ladder_qasm(n: usize) -> String {
    let mut qasm = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\n");
    for q in 0..n - 1 {
        qasm.push_str(&format!("cx q[{}], q[{}];\n", q, q + 1));
    }
    qasm
}

/// The span paths of a wire trace, with basic shape checks: spans carry
/// start/duration, and the top-level phases sum to within the trace's
/// own `elapsed_us`.
fn checked_paths(response: &Json) -> Vec<String> {
    let trace = response.get("trace").expect("trace timeline attached");
    let elapsed = trace
        .get("elapsed_us")
        .and_then(Json::as_u64)
        .expect("trace elapsed_us");
    let spans = trace
        .get("spans")
        .and_then(Json::as_array)
        .expect("trace spans");
    assert!(!spans.is_empty(), "a traced solve records spans");
    let mut top_level_total = 0u64;
    let mut paths = Vec::new();
    for span in spans {
        let path = span
            .get("path")
            .and_then(Json::as_str)
            .expect("span path")
            .to_string();
        let start = span.get("start_us").and_then(Json::as_u64).expect("start");
        let duration = span
            .get("duration_us")
            .and_then(Json::as_u64)
            .expect("duration");
        assert!(
            start + duration <= elapsed + 1,
            "span {path} ends at {}us, past the trace's {elapsed}us",
            start + duration
        );
        if !path.contains('/') {
            top_level_total += duration;
        }
        paths.push(path);
    }
    assert!(
        top_level_total <= elapsed + 1,
        "top-level phases sum to {top_level_total}us, past the trace's {elapsed}us"
    );
    paths
}

#[test]
fn trace_timelines_cover_cold_warm_and_windowed_solves() {
    let dir = std::env::temp_dir().join(format!("qxmap-serve-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_log = dir.join("trace.jsonl");
    let _ = std::fs::remove_file(&trace_log);

    let daemon = Daemon::boot(&["--trace-log", trace_log.to_str().expect("UTF-8 temp path")]);

    // Cold exact solve: ingest, queue wait and the engine race all
    // appear as named phases.
    let cold_line = format!(
        "{{\"type\":\"map\",\"id\":\"cold\",\"qasm\":{},\"device\":\"qx4\",\
         \"trace\":true,\"deadline_ms\":30000}}",
        Json::str(QASM)
    );
    let cold = daemon.request(&cold_line);
    assert_eq!(
        cold.get("type").and_then(Json::as_str),
        Some("result"),
        "{cold}"
    );
    assert_eq!(
        cold.get("served_from_cache").and_then(Json::as_bool),
        Some(false)
    );
    let paths = checked_paths(&cold);
    for expected in ["ingest/parse", "ingest/probe", "ingest", "queue", "race"] {
        assert!(
            paths.iter().any(|p| p == expected),
            "cold trace misses phase {expected:?}: {paths:?}"
        );
    }
    assert!(
        paths.iter().any(|p| p.starts_with("race/")),
        "the race timeline records its engines: {paths:?}"
    );

    // Warm hit of the identical circuit: served from the skeleton-first
    // probe, with a timeline of the lookup itself (not the original
    // solve's).
    let warm_line = format!(
        "{{\"type\":\"map\",\"id\":\"warm\",\"qasm\":{},\"device\":\"qx4\",\
         \"trace\":true,\"deadline_ms\":30000}}",
        Json::str(QASM)
    );
    let warm = daemon.request(&warm_line);
    assert_eq!(
        warm.get("served_from_cache").and_then(Json::as_bool),
        Some(true),
        "{warm}"
    );
    let paths = checked_paths(&warm);
    for expected in ["ingest/parse", "ingest/probe", "ingest"] {
        assert!(
            paths.iter().any(|p| p == expected),
            "warm trace misses phase {expected:?}: {paths:?}"
        );
    }
    assert!(
        !paths.iter().any(|p| p == "race"),
        "a warm hit never raced: {paths:?}"
    );

    // An untraced request carries no timeline.
    let plain = format!(
        "{{\"type\":\"map\",\"id\":\"plain\",\"qasm\":{},\"device\":\"qx4\",\
         \"deadline_ms\":30000}}",
        Json::str(QASM)
    );
    assert!(daemon.request(&plain).get("trace").is_none());

    // A 52-qubit large-device solve reports both racers: the heuristic
    // floor, the window pipeline's phases, and the race's verdict.
    let windowed_line = format!(
        "{{\"type\":\"map\",\"id\":\"win\",\"qasm\":{},\"device\":\"heavy-hex-4\",\
         \"trace\":true,\"deadline_ms\":60000}}",
        Json::str(ladder_qasm(52))
    );
    let windowed = daemon.request(&windowed_line);
    assert_eq!(
        windowed.get("type").and_then(Json::as_str),
        Some("result"),
        "{windowed}"
    );
    let paths = checked_paths(&windowed);
    for expected in [
        "ingest",
        "queue",
        "floor",
        "race/floor",
        "race/winner",
        "windows",
        "windows/slice",
        "windows/plan",
        "windows/solve",
        "windows/stitch",
    ] {
        assert!(
            paths.iter().any(|p| p == expected),
            "windowed trace misses phase {expected:?}: {paths:?}"
        );
    }

    // The slowlog ranks the windowed solve slowest and keeps its trace.
    let slowlog = daemon.request("{\"type\":\"slowlog\",\"id\":\"sl\"}");
    assert_eq!(
        slowlog.get("type").and_then(Json::as_str),
        Some("slowlog"),
        "{slowlog}"
    );
    assert_eq!(slowlog.get("id").and_then(Json::as_str), Some("sl"));
    let entries = slowlog
        .get("entries")
        .and_then(Json::as_array)
        .expect("slowlog entries");
    assert!(!entries.is_empty());
    let latencies: Vec<u64> = entries
        .iter()
        .map(|e| e.get("latency_us").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(
        latencies.windows(2).all(|w| w[0] >= w[1]),
        "slowlog dumps slowest first: {latencies:?}"
    );
    assert_eq!(
        entries[0].get("id").and_then(Json::as_str),
        Some("win"),
        "the windowed solve is the slowest request seen: {slowlog}"
    );
    assert!(
        entries[0].get("trace").is_some(),
        "slowlog entries keep their traces: {slowlog}"
    );

    // Prometheus exposition from the same counters.
    let prom = daemon.request("{\"type\":\"metrics\",\"format\":\"prometheus\"}");
    assert_eq!(
        prom.get("format").and_then(Json::as_str),
        Some("prometheus")
    );
    let body = prom
        .get("body")
        .and_then(Json::as_str)
        .expect("exposition body");
    for needle in [
        "# TYPE qxmap_requests_received_total counter",
        "# HELP qxmap_request_latency_seconds",
        "qxmap_request_latency_seconds_bucket{le=\"+Inf\"}",
        "qxmap_requests_rejected_total{reason=\"overloaded\"} 0",
        "qxmap_build_info{version=",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    // Every non-comment line is `name[{labels}] value`.
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line:?}");
    }

    // The JSON metrics grew the satellite sections.
    let metrics = daemon.request("{\"type\":\"metrics\"}");
    assert!(metrics.get("uptime_us").and_then(Json::as_u64).is_some());
    assert_eq!(
        metrics.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    let rejected = metrics
        .get("requests")
        .and_then(|r| r.get("rejected"))
        .expect("rejected-by-reason map");
    for reason in [
        "parse",
        "bad_request",
        "overloaded",
        "deadline_expired",
        "shutting_down",
    ] {
        assert!(rejected.get(reason).and_then(Json::as_u64).is_some());
    }
    let phases = metrics.get("phases").expect("per-phase histograms");
    assert!(
        phases
            .get("warm_hit")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap()
            >= 1,
        "{metrics}"
    );
    assert!(
        phases
            .get("queue_wait")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
    let engines = metrics.get("engines").expect("per-engine counters");
    let wins: u64 = engines
        .as_object()
        .expect("engines object")
        .iter()
        .map(|(_, stats)| stats.get("wins").and_then(Json::as_u64).unwrap())
        .sum();
    assert!(wins >= 2, "cold + windowed solves record wins: {metrics}");

    daemon.shutdown_and_wait();

    // The trace log holds one parseable JSON object per line, and the
    // slowest entry kept its trace.
    let logged = std::fs::read_to_string(&trace_log).expect("trace log written");
    let mut traced = 0usize;
    let mut lines = 0usize;
    for line in logged.lines() {
        let entry = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL {line:?}: {e}"));
        assert!(entry.get("latency_us").and_then(Json::as_u64).is_some());
        if entry.get("trace").is_some() {
            traced += 1;
        }
        lines += 1;
    }
    assert!(lines >= 1, "ring admissions reach the trace log");
    assert!(traced >= 1, "traced requests log their timelines");

    std::fs::remove_dir_all(&dir).ok();
}

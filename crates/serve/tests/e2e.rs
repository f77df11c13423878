//! End-to-end test of the `qxmap-serve` binary: boot on a loopback
//! port, round-trip a QASM mapping request and a metrics request,
//! shut down (compacting the cache journal), restart from the journal,
//! and assert the repeated request is a sub-millisecond warm cache hit
//! with the same layout and cost as the original solve — the serving
//! tier's whole reason to exist, exercised over the real wire.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use qxmap_serve::server::MAX_LINE_BYTES;
use qxmap_serve::Json;

const QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncx q[0], q[1];\ncx q[2], q[3];\ncx q[0], q[2];\ncx q[1], q[3];\n";

fn map_line() -> String {
    format!(
        "{{\"type\":\"map\",\"id\":\"e2e\",\"qasm\":{},\"device\":\"qx4\",\"deadline_ms\":30000}}",
        Json::str(QASM)
    )
}

/// The daemon under test; killed on drop so a failing assertion never
/// leaks a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn boot(journal: &std::path::Path) -> Daemon {
        Daemon::boot_with(journal, &[])
    }

    /// Boots with extra command-line flags (worker/queue shaping).
    fn boot_with(journal: &std::path::Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qxmap-serve"))
            .args([
                "--listen",
                "127.0.0.1:0",
                "--journal",
                journal.to_str().expect("UTF-8 temp path"),
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("binary built by cargo");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let announcement = lines
            .next()
            .expect("the daemon announces its address")
            .expect("readable stdout");
        let parsed = Json::parse(&announcement).expect("announcement is JSON");
        assert_eq!(
            parsed.get("type").and_then(Json::as_str),
            Some("listening"),
            "{announcement}"
        );
        let addr = parsed
            .get("addr")
            .and_then(Json::as_str)
            .expect("announced addr")
            .to_string();
        Daemon { child, addr }
    }

    /// One request line over its own connection; returns the parsed
    /// response.
    fn request(&self, line: &str) -> Json {
        let stream = TcpStream::connect(&self.addr).expect("daemon is listening");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
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
        // Disarm the drop guard's kill (already exited).
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A GHZ-style CNOT ladder over `n` qubits as OpenQASM 2.0.
fn ladder_qasm(n: usize) -> String {
    let mut qasm = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\n");
    for q in 0..n - 1 {
        qasm.push_str(&format!("cx q[{}], q[{}];\n", q, q + 1));
    }
    qasm
}

/// Three strided copies of a 4-qubit QFT over 12 qubits: on a 3×4 grid
/// SABRE pays to gather every copy while the window decomposition seats
/// each on a compact region, so the stitch wins the large-device race.
fn qft_blocks_qasm() -> String {
    let mut qasm = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[12];\n");
    for copy in 0..3 {
        let q = |j: usize| j * 3 + copy;
        for i in 0..4 {
            qasm.push_str(&format!("h q[{}];\n", q(i)));
            for j in i + 1..4 {
                let turn = 1 << (j - i);
                qasm.push_str(&format!("cu1(pi/{turn}) q[{}], q[{}];\n", q(j), q(i)));
            }
        }
        qasm.push_str(&format!("swap q[{}], q[{}];\n", q(0), q(3)));
        qasm.push_str(&format!("swap q[{}], q[{}];\n", q(1), q(2)));
    }
    qasm
}

#[test]
fn large_device_requests_round_trip_with_certificates_and_cache_whole() {
    let dir = std::env::temp_dir().join(format!("qxmap-serve-e2e-win-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal: PathBuf = dir.join("solves.qxj");
    let _ = std::fs::remove_file(&journal);

    let daemon = Daemon::boot(&journal);
    // Past the exact regime on a connected device: the served engine
    // races the window decomposition against the heuristic floor, and
    // the decomposition wins this input.
    let line = format!(
        "{{\"type\":\"map\",\"id\":\"win\",\"qasm\":{},\"device\":\"grid-3x4\",\
         \"deadline_ms\":30000}}",
        Json::str(qft_blocks_qasm())
    );
    let r = daemon.request(&line);
    assert_eq!(r.get("type").and_then(Json::as_str), Some("result"), "{r}");
    assert_eq!(r.get("id").and_then(Json::as_str), Some("win"));
    assert_eq!(r.get("engine").and_then(Json::as_str), Some("windowed"));
    assert_eq!(r.get("winner").and_then(Json::as_str), Some("windowed"));
    assert_eq!(r.get("served_from_cache"), Some(&Json::Bool(false)));
    let windows = r
        .get("windows")
        .and_then(Json::as_array)
        .expect("stitched results carry per-window certificates");
    assert!(windows.len() >= 3, "{} windows", windows.len());
    let gates: u64 = windows
        .iter()
        .map(|w| w.get("gates").and_then(Json::as_u64).unwrap())
        .sum();
    let costed = qxmap_qasm::parse(&qft_blocks_qasm())
        .unwrap()
        .decompose_swaps()
        .original_cost();
    assert_eq!(
        gates, costed as u64,
        "every costed gate is certified by one window"
    );
    assert!(
        windows
            .iter()
            .all(|w| w.get("proved_optimal") == Some(&Json::Bool(true))),
        "every window of the QFT copies solves exactly"
    );
    assert!(r
        .get("mapped_qasm")
        .and_then(Json::as_str)
        .unwrap()
        .contains("OPENQASM 2.0"));

    // The shared cache holds the whole answer and nothing else: the
    // windows were solved, not stored.
    let metrics = daemon.request("{\"type\":\"metrics\"}");
    let cache = metrics.get("cache").expect("cache stats");
    assert_eq!(
        cache.get("entries").and_then(Json::as_u64),
        Some(1),
        "{metrics}"
    );

    // A repeat arrival is a whole-circuit hit on the skeleton-first
    // probe: the same answer, certificates included.
    let again = daemon.request(&line);
    assert_eq!(
        again.get("served_from_cache"),
        Some(&Json::Bool(true)),
        "{again}"
    );
    assert_eq!(
        again.get("winner").and_then(Json::as_str),
        Some("cache/windowed")
    );
    for field in [
        "cost",
        "initial_layout",
        "final_layout",
        "windows",
        "mapped_qasm",
    ] {
        assert_eq!(again.get(field), r.get(field), "{field}");
    }

    // The engine is not a client's choice: the old knob is an unknown
    // field like any other.
    let knob = format!(
        "{{\"type\":\"map\",\"qasm\":{},\"device\":\"grid-3x4\",\"windowed\":false}}",
        Json::str(qft_blocks_qasm())
    );
    let rejected = daemon.request(&knob);
    assert_eq!(
        rejected.get("code").and_then(Json::as_str),
        Some("bad_request")
    );

    daemon.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// Pipelining over the real wire: one connection streams several tagged
/// requests without waiting, and responses come back in *completion*
/// order — a slow large-device job submitted first must not block the warm
/// little jobs queued behind it on the same socket.
#[test]
fn pipelined_connections_stream_responses_in_completion_order() {
    let dir = std::env::temp_dir().join(format!("qxmap-serve-e2e-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal: PathBuf = dir.join("solves.qxj");
    let _ = std::fs::remove_file(&journal);

    let daemon = Daemon::boot_with(&journal, &["--workers", "2"]);
    // Warm the cache so the fast requests are microsecond hits.
    let warm = daemon.request(&map_line());
    assert_eq!(warm.get("type").and_then(Json::as_str), Some("result"));

    let stream = TcpStream::connect(&daemon.addr).expect("daemon is listening");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Head-of-line job: a 52-qubit large-device solve that takes seconds.
    let slow = format!(
        "{{\"type\":\"map\",\"id\":\"slow\",\"qasm\":{},\"device\":\"heavy-hex-4\",\
         \"deadline_ms\":60000}}",
        Json::str(ladder_qasm(52))
    );
    writeln!(writer, "{slow}").unwrap();
    // Then a burst of warm cache hits behind it, all on the same socket.
    const FAST: usize = 4;
    for i in 0..FAST {
        let fast = format!(
            "{{\"type\":\"map\",\"id\":\"fast-{i}\",\"qasm\":{},\"device\":\"qx4\",\
             \"deadline_ms\":30000}}",
            Json::str(QASM)
        );
        writeln!(writer, "{fast}").unwrap();
    }
    writer.flush().unwrap();

    let mut order = Vec::new();
    for _ in 0..FAST + 1 {
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let r = Json::parse(&response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"));
        assert_eq!(r.get("type").and_then(Json::as_str), Some("result"), "{r}");
        order.push(r.get("id").and_then(Json::as_str).unwrap().to_string());
    }
    assert_eq!(order.len(), FAST + 1, "one reply per pipelined request");
    let mut sorted = order.clone();
    sorted.sort();
    let mut expected: Vec<String> = (0..FAST).map(|i| format!("fast-{i}")).collect();
    expected.push("slow".to_string());
    expected.sort();
    assert_eq!(sorted, expected, "every tagged request was answered");
    assert_ne!(
        order[0], "slow",
        "warm hits overtake the slow head-of-line job: {order:?}"
    );

    daemon.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// Floods a deliberately tiny daemon (one worker, queue depth one) with
/// simultaneous slow requests and asserts the admission queue's promise:
/// excess load is rejected *immediately* with a structured `overloaded`
/// error, every connection still receives exactly one reply, admitted
/// work completes, and shutdown drains cleanly afterwards.
#[test]
fn flooding_the_admission_queue_rejects_cleanly_without_dropping_replies() {
    use std::sync::Barrier;

    let dir = std::env::temp_dir().join(format!("qxmap-serve-e2e-flood-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal: PathBuf = dir.join("solves.qxj");
    let _ = std::fs::remove_file(&journal);

    let daemon = std::sync::Arc::new(Daemon::boot_with(
        &journal,
        &["--workers", "1", "--queue-depth", "1"],
    ));
    // A 52-qubit map on heavy-hex takes long enough that the
    // barrier-synchronized flood below lands while the single worker is
    // busy: one request in flight, one queued, the rest rejected.
    let line = format!(
        "{{\"type\":\"map\",\"id\":\"flood\",\"qasm\":{},\"device\":\"heavy-hex-4\",\
         \"deadline_ms\":60000}}",
        Json::str(ladder_qasm(52))
    );

    const CLIENTS: usize = 8;
    let barrier = std::sync::Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let daemon = std::sync::Arc::clone(&daemon);
            let barrier = std::sync::Arc::clone(&barrier);
            let line = line.clone();
            std::thread::spawn(move || {
                // Connect first, then release every request in the same
                // instant — the flood must overlap the first solve.
                let stream = TcpStream::connect(&daemon.addr).expect("daemon is listening");
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                barrier.wait();
                writeln!(writer, "{line}").unwrap();
                writer.flush().unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                assert!(!response.is_empty(), "daemon dropped an in-flight reply");
                Json::parse(&response).expect("response is JSON")
            })
        })
        .collect();

    let mut results = 0usize;
    let mut rejected = 0usize;
    for client in clients {
        let response = client.join().expect("client threads finish");
        assert_eq!(
            response.get("id").and_then(Json::as_str),
            Some("flood"),
            "every reply echoes its request id: {response}"
        );
        match response.get("type").and_then(Json::as_str) {
            Some("result") => results += 1,
            Some("error") => {
                assert_eq!(
                    response.get("code").and_then(Json::as_str),
                    Some("overloaded"),
                    "the only acceptable failure under flood is a \
                     structured overload rejection: {response}"
                );
                rejected += 1;
            }
            other => panic!("unexpected response type {other:?}"),
        }
    }
    assert_eq!(results + rejected, CLIENTS, "one reply per connection");
    assert!(results >= 1, "admitted work completes under flood");
    assert!(
        rejected >= 1,
        "a queue of depth one under {CLIENTS} simultaneous slow requests must shed load"
    );

    // The daemon's own counters agree with the client-side tally, and
    // the flood left no queued leftovers.
    let metrics = daemon.request("{\"type\":\"metrics\"}");
    let requests = metrics.get("requests").expect("request counters");
    assert_eq!(
        requests.get("rejected_overload").and_then(Json::as_u64),
        Some(rejected as u64),
        "{metrics}"
    );
    assert_eq!(
        requests.get("completed").and_then(Json::as_u64),
        Some(results as u64)
    );
    let queue = metrics.get("queue").expect("queue state");
    assert_eq!(queue.get("depth").and_then(Json::as_u64), Some(0));
    assert_eq!(queue.get("in_flight").and_then(Json::as_u64), Some(0));

    // Clean drain: graceful shutdown still works after the flood.
    std::sync::Arc::into_inner(daemon)
        .expect("all clients joined")
        .shutdown_and_wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// The binary ingest path over the real wire: a QXBC payload answers
/// with the same result as its QASM twin (warm, straight from the
/// skeleton probe), and hostile payloads — bad base64, flipped bytes,
/// truncation — come back as structured `bad_request` rejections, never
/// a dropped connection. QASM syntax errors carry their source line as
/// a structured field.
#[test]
fn qxbc_payloads_round_trip_and_hostile_ones_reject_structurally() {
    let dir = std::env::temp_dir().join(format!("qxmap-serve-e2e-qxbc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal: PathBuf = dir.join("solves.qxj");
    let _ = std::fs::remove_file(&journal);

    let daemon = Daemon::boot(&journal);
    let first = daemon.request(&map_line());
    assert_eq!(
        first.get("type").and_then(Json::as_str),
        Some("result"),
        "{first}"
    );

    // The QXBC form of the same circuit (same options, so the same
    // cache key) is answered warm from the skeleton-first probe.
    let bytes = qxmap_qasm::encode_qxbc(&qxmap_qasm::parse(QASM).unwrap());
    let qxbc_line = |payload: &str| {
        format!(
            "{{\"type\":\"map\",\"id\":\"bin\",\"format\":\"qxbc\",\"qxbc\":\"{payload}\",\
             \"device\":\"qx4\",\"deadline_ms\":30000}}"
        )
    };
    let r = daemon.request(&qxbc_line(&qxmap_serve::base64::encode(&bytes)));
    assert_eq!(r.get("type").and_then(Json::as_str), Some("result"), "{r}");
    assert_eq!(r.get("id").and_then(Json::as_str), Some("bin"));
    assert_eq!(
        r.get("served_from_cache").and_then(Json::as_bool),
        Some(true),
        "the text solve warms the binary path: {r}"
    );
    assert_eq!(r.get("cost"), first.get("cost"));
    assert_eq!(r.get("initial_layout"), first.get("initial_layout"));

    // Hostile payloads: every defect is a structured rejection.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    for (line, needle) in [
        (qxbc_line("@@not base64@@"), "base64"),
        (qxbc_line(&qxmap_serve::base64::encode(&flipped)), "QXBC"),
        (
            qxbc_line(&qxmap_serve::base64::encode(&bytes[..bytes.len() / 3])),
            "QXBC",
        ),
    ] {
        let e = daemon.request(&line);
        assert_eq!(e.get("type").and_then(Json::as_str), Some("error"), "{e}");
        assert_eq!(
            e.get("code").and_then(Json::as_str),
            Some("bad_request"),
            "{e}"
        );
        assert_eq!(e.get("id").and_then(Json::as_str), Some("bin"));
        let message = e.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains(needle), "{message}");
    }

    // A QASM syntax error reports its source line structurally.
    let bad = format!(
        "{{\"type\":\"map\",\"id\":\"syn\",\"qasm\":{},\"device\":\"qx4\"}}",
        Json::str("OPENQASM 2.0;\nqreg q[2];\nmystery q[0];\n")
    );
    let e = daemon.request(&bad);
    assert_eq!(e.get("code").and_then(Json::as_str), Some("bad_request"));
    assert_eq!(e.get("line").and_then(Json::as_u64), Some(3), "{e}");
    assert!(e
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("unknown gate"));

    daemon.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_register_sizes_get_structured_errors_and_the_daemon_keeps_answering() {
    let dir = std::env::temp_dir().join(format!("qxmap-serve-e2e-wide-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal: PathBuf = dir.join("solves.qxj");
    let _ = std::fs::remove_file(&journal);
    let daemon = Daemon::boot(&journal);

    // Each of these once asked the allocator for tens of gigabytes (or
    // wrapped the qubit count) while the payload was being validated.
    let text_line = |id: &str, qasm: &str| {
        format!(
            "{{\"type\":\"map\",\"id\":\"{id}\",\"qasm\":{},\"device\":\"qx4\"}}",
            Json::str(qasm)
        )
    };
    let mut wide = qxmap_circuit::Circuit::new(4);
    wide.cx(0, 1);
    let mut bytes = qxmap_qasm::encode_qxbc(&wide);
    // The header's width field (bytes 16..20 for an unnamed circuit).
    bytes[16..20].copy_from_slice(&4_000_000_000u32.to_le_bytes());
    let qxbc_line = format!(
        "{{\"type\":\"map\",\"id\":\"bin\",\"format\":\"qxbc\",\"qxbc\":\"{}\",\"device\":\"qx4\"}}",
        qxmap_serve::base64::encode(&bytes)
    );
    for (line, id, code, logical) in [
        (
            text_line("wide", "qreg q[4000000000];\nh q[0];"),
            "wide",
            "too_many_qubits",
            Some(4_000_000_000),
        ),
        (
            text_line(
                "wrap",
                "qreg a[18446744073709551615]; qreg b[2]; cx b[0],b[1];",
            ),
            "wrap",
            "bad_request",
            None,
        ),
        (
            text_line(
                "creg",
                "qreg q[2];\ncreg c[4000000000000];\nmeasure q -> c;",
            ),
            "creg",
            "bad_request",
            None,
        ),
        (qxbc_line, "bin", "too_many_qubits", Some(4_000_000_000)),
    ] {
        let e = daemon.request(&line);
        assert_eq!(e.get("type").and_then(Json::as_str), Some("error"), "{e}");
        assert_eq!(e.get("code").and_then(Json::as_str), Some(code), "{e}");
        assert_eq!(e.get("id").and_then(Json::as_str), Some(id), "{e}");
        assert_eq!(e.get("logical").and_then(Json::as_u64), logical, "{e}");
        if logical.is_some() {
            assert_eq!(e.get("physical").and_then(Json::as_u64), Some(5), "{e}");
        }
    }

    // The same daemon still answers ordinary work.
    let ok = daemon.request(&map_line());
    assert_eq!(
        ok.get("type").and_then(Json::as_str),
        Some("result"),
        "{ok}"
    );
    daemon.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_deeply_nested_expression_is_rejected_and_warm_hits_keep_coming() {
    let dir = std::env::temp_dir().join(format!("qxmap-serve-e2e-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal: PathBuf = dir.join("solves.qxj");
    let _ = std::fs::remove_file(&journal);
    let daemon = Daemon::boot(&journal);
    let cold = daemon.request(&map_line());
    assert_eq!(
        cold.get("type").and_then(Json::as_str),
        Some("result"),
        "{cold}"
    );

    // One 200 KB line, parsed on a connection thread's default stack: a
    // parser that recursed once per level would overflow it and abort
    // the whole daemon.
    let deep = 100_000;
    let qasm = format!(
        "qreg q[1];\nrz({}0{}) q[0];",
        "(".repeat(deep),
        ")".repeat(deep)
    );
    let line = format!(
        "{{\"type\":\"map\",\"id\":\"deep\",\"qasm\":{},\"device\":\"qx4\"}}",
        Json::str(&qasm)
    );
    let e = daemon.request(&line);
    assert_eq!(e.get("type").and_then(Json::as_str), Some("error"), "{e}");
    assert_eq!(e.get("code").and_then(Json::as_str), Some("bad_request"));
    assert_eq!(e.get("id").and_then(Json::as_str), Some("deep"));
    assert_eq!(e.get("line").and_then(Json::as_u64), Some(2), "{e}");
    let message = e.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(
        message.starts_with("invalid QASM: line 2: expression nests"),
        "{e}"
    );

    let warm = daemon.request(&map_line());
    assert_eq!(
        warm.get("served_from_cache").and_then(Json::as_bool),
        Some(true),
        "{warm}"
    );
    daemon.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_line_past_the_cap_is_rejected_and_warm_hits_keep_coming() {
    let dir = std::env::temp_dir().join(format!("qxmap-serve-e2e-long-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal: PathBuf = dir.join("solves.qxj");
    let _ = std::fs::remove_file(&journal);
    let daemon = Daemon::boot(&journal);
    let cold = daemon.request(&map_line());
    assert_eq!(
        cold.get("type").and_then(Json::as_str),
        Some("result"),
        "{cold}"
    );

    // A line one byte past the cap: the daemon reads no further than
    // its ending, answers, and closes the connection.
    let stream = TcpStream::connect(&daemon.addr).expect("daemon is listening");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut line = format!(
        "{{\"type\":\"map\",\"qasm\":\"{}",
        " ".repeat(MAX_LINE_BYTES)
    );
    line.truncate(MAX_LINE_BYTES + 1);
    line.push('\n');
    writer.write_all(line.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let e = Json::parse(&response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"));
    assert_eq!(
        e.get("code").and_then(Json::as_str),
        Some("bad_request"),
        "{e}"
    );
    let message = e.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains(&MAX_LINE_BYTES.to_string()), "{e}");
    response.clear();
    assert_eq!(
        reader.read_line(&mut response).unwrap(),
        0,
        "the connection closes: {response:?}"
    );

    // Another connection still gets its warm hit.
    let warm = daemon.request(&map_line());
    assert_eq!(
        warm.get("served_from_cache").and_then(Json::as_bool),
        Some(true),
        "{warm}"
    );
    let metrics = daemon.request("{\"type\":\"metrics\"}");
    let rejected = metrics
        .get("requests")
        .and_then(|r| r.get("rejected"))
        .expect("rejected-by-reason map");
    assert_eq!(rejected.get("bad_request").and_then(Json::as_u64), Some(1));
    daemon.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// Stdio mode answers through the same dispatcher and line reader as
/// TCP: one response per request line, blank lines skipped, and an
/// overlong line rejected and ending the session.
#[test]
fn stdio_answers_line_by_line_and_an_overlong_line_ends_the_session() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qxmap-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("binary built by cargo");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut read = || {
        let mut response = String::new();
        stdout.read_line(&mut response).unwrap();
        Json::parse(&response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    };
    writeln!(stdin, "{}\n", map_line()).unwrap();
    stdin.flush().unwrap();
    let result = read();
    assert_eq!(
        result.get("type").and_then(Json::as_str),
        Some("result"),
        "{result}"
    );
    writeln!(stdin, "{{\"type\":\"metrics\",\"id\":2}}").unwrap();
    stdin.flush().unwrap();
    let metrics = read();
    assert_eq!(
        metrics.get("id").and_then(Json::as_u64),
        Some(2),
        "{metrics}"
    );
    let completed = metrics.get("requests").and_then(|r| r.get("completed"));
    assert_eq!(completed.and_then(Json::as_u64), Some(1), "{metrics}");

    let mut line = " ".repeat(MAX_LINE_BYTES + 1);
    line.push('\n');
    stdin.write_all(line.as_bytes()).unwrap();
    stdin.flush().unwrap();
    let e = read();
    assert_eq!(
        e.get("code").and_then(Json::as_str),
        Some("bad_request"),
        "{e}"
    );
    let status = child
        .wait()
        .expect("the daemon exits after the overlong line");
    assert!(status.success(), "daemon exited with {status}");
}

#[test]
fn restart_serves_warm_cache_hits_from_the_journal() {
    let dir = std::env::temp_dir().join(format!("qxmap-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal: PathBuf = dir.join("solves.qxj");
    let _ = std::fs::remove_file(&journal);

    // Boot 1: cold. Solve once, check the answer and the metrics.
    let daemon = Daemon::boot(&journal);
    let first = daemon.request(&map_line());
    assert_eq!(
        first.get("type").and_then(Json::as_str),
        Some("result"),
        "{first}"
    );
    assert_eq!(first.get("id").and_then(Json::as_str), Some("e2e"));
    assert_eq!(
        first.get("served_from_cache").and_then(Json::as_bool),
        Some(false)
    );
    let first_cost = first.get("cost").cloned().expect("cost breakdown");
    let first_layout = first.get("initial_layout").cloned().expect("layout");
    assert!(first
        .get("mapped_qasm")
        .and_then(Json::as_str)
        .expect("mapped circuit travels as QASM")
        .contains("OPENQASM 2.0"));

    let metrics = daemon.request("{\"type\":\"metrics\"}");
    assert_eq!(metrics.get("type").and_then(Json::as_str), Some("metrics"));
    let cache = metrics.get("cache").expect("cache stats");
    assert!(cache.get("entries").and_then(Json::as_u64).unwrap() >= 1);
    let requests = metrics.get("requests").expect("request counters");
    assert_eq!(requests.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(
        requests.get("rejected_overload").and_then(Json::as_u64),
        Some(0)
    );

    // Graceful shutdown leaves the compacted journal behind.
    daemon.shutdown_and_wait();
    assert!(
        std::fs::metadata(&journal).unwrap().len() > 12,
        "shutdown left no journal records"
    );

    // Boot 2: warm. The identical request is a sub-millisecond cache
    // hit with the original solve's layout and cost.
    let daemon = Daemon::boot(&journal);
    let second = daemon.request(&map_line());
    assert_eq!(
        second.get("served_from_cache").and_then(Json::as_bool),
        Some(true),
        "{second}"
    );
    assert_eq!(second.get("cost"), Some(&first_cost));
    assert_eq!(second.get("initial_layout"), Some(&first_layout));
    let winner = second.get("winner").and_then(Json::as_str).unwrap();
    assert!(winner.starts_with("cache/"), "{winner}");
    // Sub-millisecond warm hits: `elapsed_us` is wall-clock, so a single
    // preemption on a loaded CI runner could inflate one sample past the
    // bound. The hit is repeatable, so assert the *best* of a few —
    // uncontended lookups are single-digit microseconds, three
    // consecutive >1 ms preemptions would mean a dead machine.
    let elapsed_us = (0..3)
        .map(|_| {
            let hit = daemon.request(&map_line());
            assert_eq!(
                hit.get("served_from_cache").and_then(Json::as_bool),
                Some(true)
            );
            hit.get("elapsed_us").and_then(Json::as_u64).unwrap()
        })
        .chain(second.get("elapsed_us").and_then(Json::as_u64))
        .min()
        .unwrap();
    assert!(elapsed_us < 1_000, "warm hit took {elapsed_us}us");

    let metrics = daemon.request("{\"type\":\"metrics\"}");
    let cache = metrics.get("cache").expect("cache stats");
    assert!(cache.get("hits").and_then(Json::as_u64).unwrap() >= 1);
    let replayed = metrics.get("journal").expect("journal health");
    assert!(
        replayed
            .get("replay_admitted")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1,
        "{metrics}"
    );
    daemon.shutdown_and_wait();

    std::fs::remove_dir_all(&dir).ok();
}

/// Flags the daemon does not know — including retired ones — fail the
/// boot with the usage line instead of being ignored.
#[test]
fn unknown_flags_fail_with_the_usage_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_qxmap-serve"))
        .args(["--no-such-flag", "x"])
        .output()
        .expect("binary built by cargo");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag \"--no-such-flag\""),
        "{stderr}"
    );
    assert!(stderr.contains("usage: qxmap-serve"), "{stderr}");
    // The pipeline depth and slowlog size are constants, not flags.
    for retired in ["--pipeline", "--slowlog"] {
        let out = Command::new(env!("CARGO_BIN_EXE_qxmap-serve"))
            .args([retired, "4"])
            .output()
            .expect("binary built by cargo");
        assert!(!out.status.success(), "{retired} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{stderr}");
    }
}

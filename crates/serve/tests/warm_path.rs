//! Pins the skeleton-first warm path: a repeated map request must be
//! answered from the solve cache without ever materializing a
//! [`qxmap_circuit::Circuit`], and a probe miss must fall through to the
//! ordinary solve path bit-for-bit.
//!
//! The proof uses the process-wide `qxmap_qasm::hooks::circuits_built()`
//! counter, which every circuit-materializing ingest path bumps and no
//! skeleton-only path does. The counter is global, so this file holds
//! exactly one test function — in-process concurrency would otherwise
//! blur the deltas.

use qxmap_serve::{Handled, Json, Server, ServerConfig};

const QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n\
                    h q[0];\ncx q[0], q[1];\ncx q[1], q[2];\nmeasure q -> c;\n";

fn map_line(extra: &str) -> String {
    format!(
        "{{\"type\":\"map\",\"qasm\":{},\"device\":\"qx4\"{extra}}}",
        Json::str(QASM)
    )
}

fn reply(server: &Server, line: &str) -> Json {
    let Handled::Reply(text) = server.handle_line(line) else {
        panic!("map requests never shut the server down");
    };
    Json::parse(&text).expect("responses are valid JSON")
}

#[test]
fn warm_requests_build_no_circuit_and_misses_fall_through() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let built = qxmap_qasm::hooks::circuits_built;

    // Cold: the probe misses, the circuit materializes, the solve runs.
    let before = built();
    let cold = reply(&server, &map_line(""));
    assert_eq!(cold.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(cold.get("served_from_cache"), Some(&Json::Bool(false)));
    assert!(built() > before, "a cold request materializes the circuit");

    // Warm: the identical request answers from the skeleton probe alone.
    let before = built();
    let warm = reply(&server, &map_line(""));
    assert_eq!(warm.get("served_from_cache"), Some(&Json::Bool(true)));
    assert_eq!(warm.get("cost"), cold.get("cost"));
    assert_eq!(warm.get("initial_layout"), cold.get("initial_layout"));
    assert_eq!(built(), before, "a warm request must not build any circuit");

    // The same cache entry also warms the binary ingest path: a QXBC
    // payload with the same canonical skeleton probes to the same key.
    let circuit = qxmap_qasm::parse(QASM).unwrap();
    let encoded = qxmap_serve::base64::encode(&qxmap_qasm::encode_qxbc(&circuit));
    let before = built();
    let qxbc = reply(
        &server,
        &format!(
            "{{\"type\":\"map\",\"format\":\"qxbc\",\"qxbc\":\"{encoded}\",\"device\":\"qx4\"}}"
        ),
    );
    assert_eq!(qxbc.get("served_from_cache"), Some(&Json::Bool(true)));
    assert_eq!(qxbc.get("cost"), cold.get("cost"));
    assert_eq!(
        built(),
        before,
        "warm QXBC requests build no circuit either"
    );

    // A mismatched option is a probe miss and must fall through to the
    // full solve path — materialized circuit, fresh (uncached) answer.
    let before = built();
    let miss = reply(&server, &map_line(",\"seed\":41"));
    assert_eq!(miss.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(miss.get("served_from_cache"), Some(&Json::Bool(false)));
    assert_eq!(miss.get("cost"), cold.get("cost"));
    assert!(built() > before, "a probe miss materializes the circuit");

    // A large-device job (past the exact regime, so the served engine
    // races windows against the heuristic floor) is cached whole like
    // any other: its repeat is a probe hit that builds no circuit.
    let large = map_line(",\"seed\":5").replace("\"qx4\"", "\"linear-12\"");
    let cold = reply(&server, &large);
    assert_eq!(
        cold.get("type").and_then(Json::as_str),
        Some("result"),
        "{cold}"
    );
    assert_eq!(cold.get("served_from_cache"), Some(&Json::Bool(false)));
    let before = built();
    let warm = reply(&server, &large);
    assert_eq!(warm.get("served_from_cache"), Some(&Json::Bool(true)));
    assert_eq!(warm.get("cost"), cold.get("cost"));
    assert_eq!(warm.get("initial_layout"), cold.get("initial_layout"));
    assert_eq!(
        built(),
        before,
        "a repeated large-device request must not build any circuit"
    );

    server.finish().unwrap();
}

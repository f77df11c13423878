//! Crash-safety of the warm state, end to end: boot the daemon with a
//! cache journal, push traffic, `kill -9` the process (no graceful
//! shutdown, no final compaction), restart on the same journal, and
//! assert the replayed cache still answers the pre-crash requests as
//! warm hits — losing at most the bounded unsynced tail.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use qxmap_serve::Json;

/// The daemon under test; killed on drop so a failing assertion never
/// leaks a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn boot(journal: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qxmap-serve"))
            .args([
                "--listen",
                "127.0.0.1:0",
                "--journal",
                journal.to_str().expect("UTF-8 temp path"),
            ])
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

    /// `kill -9`: no shutdown request, no drain, no compaction. The whole
    /// point of the journal is surviving exactly this.
    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL lands");
        self.child.wait().expect("killed child is reaped");
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

/// `count` distinct 4-qubit circuits: each appends one more CX to the
/// base ladder, so every one has its own canonical skeleton — and its
/// own cache entry, and its own journal record.
fn distinct_lines(count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let mut qasm = String::from(
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncx q[0], q[1];\n",
            );
            for k in 0..=i {
                qasm.push_str(&format!("cx q[{}], q[{}];\n", k % 3, k % 3 + 1));
            }
            format!(
                "{{\"type\":\"map\",\"id\":\"crash-{i}\",\"qasm\":{},\"device\":\"qx4\",\
                 \"deadline_ms\":30000}}",
                Json::str(&qasm)
            )
        })
        .collect()
}

#[test]
fn sigkill_loses_at_most_the_unsynced_tail_and_restart_serves_warm_hits() {
    let dir = std::env::temp_dir().join(format!("qxmap-serve-e2e-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal: PathBuf = dir.join("solves.qxjournal");
    let _ = std::fs::remove_file(&journal);

    const SOLVES: usize = 6;
    let lines = distinct_lines(SOLVES);

    // Boot 1: cold, journaling. Every response below was delivered to a
    // client before the kill, so its solve is "acknowledged work".
    let daemon = Daemon::boot(&journal);
    for line in &lines {
        let r = daemon.request(line);
        assert_eq!(r.get("type").and_then(Json::as_str), Some("result"), "{r}");
        assert_eq!(
            r.get("served_from_cache").and_then(Json::as_bool),
            Some(false)
        );
    }
    let first = daemon.request(&lines[0]);
    let first_cost = first.get("cost").cloned().expect("cost breakdown");
    let first_layout = first.get("initial_layout").cloned().expect("layout");

    // The journal writer is a background thread fed over a channel; give
    // it a beat to drain, then pull the rug. No shutdown, no compaction.
    std::thread::sleep(Duration::from_millis(300));
    daemon.sigkill();
    assert!(journal.exists(), "journaling daemon wrote no journal");

    // Boot 2: replay the journal. Bounded loss — the kill may have eaten
    // an unsynced record or two, never the whole file.
    let daemon = Daemon::boot(&journal);
    let metrics = daemon.request("{\"type\":\"metrics\"}");
    let entries = metrics
        .get("cache")
        .and_then(|c| c.get("entries"))
        .and_then(Json::as_u64)
        .expect("cache stats");
    assert!(
        entries >= (SOLVES - 2) as u64,
        "kill -9 lost more than the bounded tail: {entries} of {SOLVES} \
         journaled solves survived"
    );

    // The pre-crash request is a warm hit with the original answer.
    let second = daemon.request(&lines[0]);
    assert_eq!(
        second.get("served_from_cache").and_then(Json::as_bool),
        Some(true),
        "journal replay must warm the pre-crash solve: {second}"
    );
    assert_eq!(second.get("cost"), Some(&first_cost));
    assert_eq!(second.get("initial_layout"), Some(&first_layout));
    // Sub-millisecond warm hits, best-of-3 to ride out CI preemption.
    let elapsed_us = (0..3)
        .map(|_| {
            let hit = daemon.request(&lines[0]);
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

    // The survivor shuts down gracefully on the same journal.
    daemon.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).ok();
}

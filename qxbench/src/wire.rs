//! The daemon under test and the closed-loop clients that drive it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use qxmap_serve::Json;

/// Linux reports process CPU times in clock ticks of 1/100 s.
const TICKS_PER_SEC: f64 = 100.0;

/// A freshly spawned `qxmap-serve --listen 127.0.0.1:0 --journal <file>`.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's stdout never sees a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    journal: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and waits for its `listening` announce,
    /// returning it with the time from spawn to announce.
    pub fn spawn(exe: &Path, journal: PathBuf) -> io::Result<(Daemon, Duration)> {
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args(["--listen", "127.0.0.1:0", "--journal"])
            .arg(&journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let took = start.elapsed();
        let announce = Json::parse(line.trim()).ok();
        let addr = announce
            .as_ref()
            .filter(|a| a.get("type").and_then(Json::as_str) == Some("listening"))
            .and_then(|a| a.get("addr").and_then(Json::as_str))
            .map(str::to_string);
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_default(),
            journal,
        };
        if daemon.addr.is_empty() {
            return Err(io::Error::other(format!("no listening announce: {line:?}")));
        }
        Ok((daemon, took))
    }

    pub fn connect(&self) -> io::Result<Conn> {
        Conn::open(&self.addr)
    }

    /// The daemon's `metrics` snapshot.
    pub fn metrics(&self) -> io::Result<Json> {
        let reply = self.connect()?.call("{\"type\":\"metrics\"}")?;
        Json::parse(&reply).map_err(|e| io::Error::other(format!("metrics: {e}")))
    }

    /// User plus system CPU the daemon has used, in milliseconds.
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesized command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        Ok((ticks(11) + ticks(12)) * 1000.0 / TICKS_PER_SEC)
    }

    /// The daemon's peak resident set size, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    pub fn journal_bytes(&self) -> u64 {
        std::fs::metadata(&self.journal).map_or(0, |m| m.len())
    }

    /// Asks for a graceful shutdown and waits for the process to exit,
    /// killing it if it has not exited after ten seconds.
    pub fn stop(mut self) {
        if let Ok(mut conn) = self.connect() {
            let _ = conn.call("{\"type\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                let _ = std::fs::remove_file(&self.journal);
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps it.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.journal);
    }
}

/// One client connection: a line out, a line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    /// Sends one request line and returns the reply line (without its
    /// newline).
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        Ok(self.recv()?.to_string())
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)
    }

    /// Reads one reply line into the connection's buffer.
    pub fn recv(&mut self) -> io::Result<&str> {
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.buf.trim_end())
    }
}

/// The raw JSON text of a top-level field of a reply object. One pass
/// over the reply, skipping every other field's value whole (strings with
/// their escapes, nested objects and arrays), so a key inside a nested
/// value or a string never matches.
///
/// Timed `warm_hits` replies are checked with this rather than
/// `Json::parse`: on a 2-vCPU host, building the full tree of every
/// reply (up to 70 KB) in the load generator cut the daemon's measured
/// throughput by about a quarter (see `qxbench/README.md`).
pub fn raw_field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let b = reply.as_bytes();
    let mut i = skip_ws(b, 0);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    loop {
        i = skip_ws(b, i);
        let name_end = string_end(b, i)?;
        let name = &reply[i + 1..name_end - 1];
        i = skip_ws(b, name_end);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(b, i + 1);
        let value_end = value_end(b, i)?;
        if name == key {
            return Some(&reply[i..value_end]);
        }
        i = skip_ws(b, value_end);
        if b.get(i) != Some(&b',') {
            return None;
        }
        i += 1;
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while b.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    i
}

/// One past the closing quote of the string starting at `i`.
fn string_end(b: &[u8], i: usize) -> Option<usize> {
    if b.get(i) != Some(&b'"') {
        return None;
    }
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return Some(j + 1),
            _ => j += 1,
        }
    }
    None
}

/// One past the end of the JSON value starting at `i`.
fn value_end(b: &[u8], i: usize) -> Option<usize> {
    match b.get(i)? {
        b'"' => string_end(b, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            while j < b.len() {
                match b[j] {
                    b'"' => {
                        j = string_end(b, j)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            None
        }
        _ => {
            let mut j = i;
            while j < b.len() && !matches!(b[j], b',' | b'}' | b']') && !b[j].is_ascii_whitespace()
            {
                j += 1;
            }
            Some(j)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::raw_field;

    #[test]
    fn raw_field_reads_only_top_level_keys() {
        let reply = r#"{"trace":{"type":"span","cost":1},"note":"\"cost\":9","type":"result","cost":{"added_gates":4},"ok":true,"layout":[1,[2]]}"#;
        assert_eq!(raw_field(reply, "type"), Some(r#""result""#));
        assert_eq!(raw_field(reply, "cost"), Some(r#"{"added_gates":4}"#));
        assert_eq!(raw_field(reply, "ok"), Some("true"));
        assert_eq!(raw_field(reply, "layout"), Some("[1,[2]]"));
        assert_eq!(raw_field(reply, "added_gates"), None);
        assert_eq!(raw_field("not json", "type"), None);
    }
}

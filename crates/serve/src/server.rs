//! The server core: a deadline-aware admission queue feeding a fixed
//! worker pool, pipelined connections, explicit overload and deadline
//! shedding, graceful shutdown, metrics, and crash-safe solve-cache
//! persistence (an append-only journal).
//!
//! ## Request lifecycle
//!
//! A connection thread parses each line into a [`crate::proto::Request`]
//! and — for mapping jobs — *submits* it to the admission queue without
//! waiting for the answer: connections are **pipelined**. Up to
//! [`PIPELINE_DEPTH`] mapping jobs per connection may be
//! in flight at once (matched to their requests by `id`), and responses
//! are written by a dedicated per-connection writer thread in
//! *completion* order, not submission order — a microsecond warm hit
//! queued behind an expensive cold solve no longer waits for it. When
//! the in-flight cap is reached the reader stops consuming input, which
//! backpressures the client through TCP instead of buffering
//! unboundedly. Stdio mode stays strictly request/response. Both
//! transports answer a line through one dispatcher and differ only in
//! how they wait for an admitted job. A line longer than
//! [`MAX_LINE_BYTES`] is rejected and ends its connection.
//!
//! A panic while answering a line or solving a job is caught where
//! the paths meet: the affected request gets a structured `internal`
//! rejection, and the daemon keeps serving. Locks recover a poisoned
//! guard, so one caught panic cannot make every later request panic.
//!
//! The admission queue is bounded and **earliest-deadline-first**: jobs
//! carrying a `deadline_ms` dispatch in deadline order, deadline-less
//! jobs rank last, and ties (including all deadline-less jobs among
//! themselves) break FIFO by admission sequence. When `queue_depth`
//! jobs are already waiting, a submission is rejected immediately with
//! a structured `overloaded` error instead of blocking the client
//! behind an unbounded backlog. A job whose deadline has already
//! expired when a worker dequeues it is *shed* with a structured
//! `deadline_expired` rejection — it never reaches a solver, so a
//! loaded queue spends its workers only on jobs that can still answer
//! in time.
//!
//! Admitted jobs are drained by a fixed pool of worker threads. A worker
//! takes one job at a time, in deadline order, and answers it through
//! [`Engine::run_cached`](qxmap_map::Engine::run_cached) on the served
//! engine, [`qxmap_window::WindowedEngine`]; its reply goes out as soon
//! as its own solve ends, never after another job's. The process-wide
//! solve cache is the one place requests are deduplicated: a twin
//! dequeued after its first copy was answered is a cache hit at
//! dispatch, while twins solving at the same moment each solve. Every
//! answer, a large-device one included, is cached whole under that
//! engine's signature, which is also the signature the skeleton-first
//! probe reads. Only whole answers are cached: a large-device answer's
//! windows are solved, not stored.
//!
//! ## Shutdown and persistence
//!
//! A `shutdown` request (or stdin EOF in stdio mode) begins a graceful
//! wind-down: admission closes (`shutting_down` rejections), workers
//! drain every already-admitted job, and [`Server::finish`] finishes the
//! cache journal.
//!
//! With a journal configured ([`ServerConfig::journal`]), every solve
//! admitted to the process-wide cache is appended to a crash-safe
//! [`qxmap_map::Journal`] by a background thread off the response path,
//! and [`Server::finish`] compacts the file to exactly the live entries
//! in least-recently-used order (write-temp-then-rename, so a crash
//! mid-compaction keeps the previous file). The next boot replays it
//! record by record — rejecting torn or corrupt records individually,
//! keeping everything intact — so a graceful restart comes back with the
//! same entries in the same recency order, and a `kill -9` loses at most
//! the unsynced tail.

use std::collections::{BTreeMap, BinaryHeap};
use std::io::{self, BufRead, BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qxmap_core::trace::{SolveTrace, SpanRecorder};
use qxmap_map::{
    Engine as _, Journal, JournalReplay, MapReport, MapRequest, MapperError, SolveCache,
};
use qxmap_window::WindowedEngine;

use crate::json::Json;
use crate::proto::{self, Rejection, Request};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads solving admitted jobs. Defaults to the machine's
    /// available parallelism.
    pub workers: usize,
    /// Most jobs allowed to *wait* for a worker; submissions beyond this
    /// are rejected as `overloaded`. Defaults to 64.
    pub queue_depth: usize,
    /// Append-only cache journal for warm state across restarts and
    /// crashes: replayed and attached by [`Server::warm_start`], drained
    /// and compacted by [`Server::finish`].
    pub journal: Option<PathBuf>,
    /// Append slowlog admissions as JSONL to this file (one JSON object
    /// per line, same shape as the `slowlog` response entries).
    pub trace_log: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            queue_depth: 64,
            journal: None,
            trace_log: None,
        }
    }
}

/// Most mapping jobs one pipelined connection may have in flight at
/// once; at the cap the connection's reader stops consuming input (TCP
/// backpressure).
pub const PIPELINE_DEPTH: usize = 32;

/// Entries kept in the slow-request ring: the N slowest completed
/// solves, with their traces when the request carried `"trace": true`,
/// dumped by `{"type": "slowlog"}`.
pub const SLOWLOG_CAPACITY: usize = 8;

/// Journal records appended between compactions of the journal file.
pub const JOURNAL_COMPACT_AFTER: usize = 1024;

/// Most bytes one request line may hold, its line ending excluded. A
/// longer line gets a `bad_request` rejection and ends its connection,
/// so no connection buffers more than this for one request.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Locks `mutex`, recovering the guard if a panic poisoned it. Panics
/// are caught at the request and solve boundaries, so one must not make
/// every later lock panic too; every critical section here leaves its
/// data valid at each step, so a recovered guard is sound.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] under the same poison policy as [`lock`].
fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A duration in whole microseconds, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// How one request line was handled, and what the connection should do
/// after delivering the response.
#[derive(Debug)]
pub enum Handled {
    /// Write the response line; keep serving the connection.
    Reply(String),
    /// Write the response line, flush it, then call
    /// [`Server::begin_shutdown`] — the acknowledgement must reach the
    /// client before the daemon starts winding down.
    ReplyAndShutdown(String),
}

impl Handled {
    /// The response line, whichever variant.
    pub fn response(&self) -> &str {
        match self {
            Handled::Reply(r) | Handled::ReplyAndShutdown(r) => r,
        }
    }
}

/// How an admitted job left the queue: solved (or failed) by a worker,
/// or shed because its deadline had already expired at dequeue.
enum JobOutcome {
    /// A worker dispatched the job and this is its result (boxed to
    /// keep the enum small next to `Shed`).
    Done(Box<Result<MapReport, MapperError>>),
    /// The job's deadline expired while it waited; it was shed without
    /// ever reaching a solver, after `waited` in the queue.
    Shed { waited: Duration },
    /// The job's solve panicked: the job is answered with an `internal`
    /// rejection and logged as slow with its request's timeline, when it
    /// was traced.
    Panicked { trace: Option<SolveTrace> },
}

/// An admitted job's continuation: invoked exactly once, on the worker
/// thread that dequeued it (pipelined connections render and forward
/// the response to their writer thread; the synchronous path relays the
/// outcome over a channel to the blocked caller).
type Complete = Box<dyn FnOnce(JobOutcome) + Send>;

/// One admitted mapping job, ranked earliest-deadline-first in the
/// admission heap.
struct QueuedJob {
    request: MapRequest,
    /// Absolute point the client's `deadline_ms` runs out; `None` ranks
    /// after every deadlined job.
    deadline: Option<Instant>,
    /// When the job entered the queue (feeds the queue-wait counters
    /// and the shed rejection's message).
    enqueued: Instant,
    /// Admission sequence number: the FIFO tiebreak among equal
    /// deadlines, and what keeps deadline-less traffic in order.
    seq: u64,
    complete: Complete,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &QueuedJob) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for QueuedJob {}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &QueuedJob) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedJob {
    fn cmp(&self, other: &QueuedJob) -> std::cmp::Ordering {
        // BinaryHeap pops its *greatest* element, so "greater" must mean
        // "dispatch sooner": an earlier deadline outranks a later one,
        // any deadline outranks none, and a lower admission sequence
        // wins ties (FIFO among equals).
        let by_deadline = match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => b.cmp(&a),
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (None, None) => std::cmp::Ordering::Equal,
        };
        by_deadline.then_with(|| other.seq.cmp(&self.seq))
    }
}

struct QueueState {
    jobs: BinaryHeap<QueuedJob>,
    in_flight: usize,
    shutdown: bool,
    next_seq: u64,
}

/// Cumulative request counters (see the `metrics` response).
#[derive(Default)]
struct Counters {
    received: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    /// Lines rejected as malformed JSON (code `parse`).
    rejected_parse: AtomicU64,
    /// Structurally valid requests rejected for a semantic defect —
    /// unknown fields, bad payloads, invalid devices (code
    /// `bad_request`).
    rejected_bad_request: AtomicU64,
    rejected_overload: AtomicU64,
    /// Submissions refused because shutdown had begun (code
    /// `shutting_down`).
    rejected_shutdown: AtomicU64,
    /// Jobs shed at dequeue because their deadline had already expired
    /// while they waited — answered with `deadline_expired`, never
    /// dispatched to a solver.
    rejected_deadline: AtomicU64,
    served_from_cache: AtomicU64,
    /// Mapping jobs that carried a `deadline_ms` and whose end-to-end
    /// latency (admission wait + solve) exceeded it — the serving tier's
    /// broken-promise counter. The engines wind down *near* a deadline,
    /// so a loaded queue, not the solver, is the usual culprit.
    deadline_misses: AtomicU64,
    /// Requests answered `internal` because answering them panicked.
    rejected_internal: AtomicU64,
}

/// Number of power-of-two latency buckets: bucket `i` counts requests
/// whose end-to-end latency was below `2^i` microseconds (and at or
/// above the previous bound), spanning 1 µs .. ~2¹⁴ s before the
/// overflow bucket — bounded, allocation-free, and wide enough that no
/// real request lands in overflow.
const LATENCY_BUCKETS: usize = 32;

/// A bounded, lock-free latency histogram: fixed power-of-two buckets
/// over microseconds, recorded with relaxed atomic increments. The
/// `metrics` response renders it as `[upper_bound_us, count]` pairs plus
/// derived p50/p95/p99 (each reported as its bucket's upper bound — a
/// ≤2× overestimate, which is the right rounding direction for a
/// latency promise).
#[derive(Default)]
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    /// Sum of every recorded sample (µs) — the `_sum` series of the
    /// Prometheus histogram exposition.
    sum_us: AtomicU64,
    /// The largest recorded sample (µs).
    max_us: AtomicU64,
}

impl LatencyHistogram {
    fn bucket_of(micros: u64) -> usize {
        // Bucket i covers [2^(i-1), 2^i) µs (bucket 0 covers {0}); the
        // last bucket absorbs overflow.
        ((64 - micros.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
    }

    fn record(&self, micros: u64) {
        self.buckets[LatencyHistogram::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(micros, Ordering::Relaxed);
        self.max_us.fetch_max(micros, Ordering::Relaxed);
    }

    fn snapshot(&self) -> [u64; LATENCY_BUCKETS] {
        let mut counts = [0u64; LATENCY_BUCKETS];
        for (slot, bucket) in counts.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        counts
    }

    /// The upper bound (µs) of the bucket containing the `p`-quantile
    /// sample, from an immutable snapshot so one `metrics` response is
    /// internally consistent.
    fn percentile(counts: &[u64; LATENCY_BUCKETS], p: f64) -> u64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return LatencyHistogram::upper_bound_us(i);
            }
        }
        LatencyHistogram::upper_bound_us(LATENCY_BUCKETS - 1)
    }

    /// The inclusive upper bound of bucket `i`, in microseconds.
    fn upper_bound_us(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i) - 1
        }
    }

    /// `{"count", "p50_us", "p95_us", "p99_us", "buckets": [[upper, n], ...]}`
    /// with zero buckets elided (the shape stays bounded either way).
    fn to_json(&self) -> Json {
        let counts = self.snapshot();
        let buckets: Vec<Json> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                Json::Arr(vec![
                    Json::num(LatencyHistogram::upper_bound_us(i)),
                    Json::num(n),
                ])
            })
            .collect();
        Json::obj([
            ("count", Json::num(counts.iter().sum::<u64>())),
            ("p50_us", Json::num(Self::percentile(&counts, 0.50))),
            ("p95_us", Json::num(Self::percentile(&counts, 0.95))),
            ("p99_us", Json::num(Self::percentile(&counts, 0.99))),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// The solver a worker answers one admitted job with — injectable so
/// tests can pin down timing-sensitive behavior (overload, shutdown
/// draining, dispatch order) with a deterministic solver. Production
/// uses [`Engine::run_cached`](qxmap_map::Engine::run_cached) on
/// [`WindowedEngine`].
type Solver = Box<dyn Fn(&MapRequest) -> Result<MapReport, MapperError> + Send + Sync>;

/// What [`Server::answer`] made of one request line. Both transports
/// deliver a `Reply` or `Shutdown` as it is; they differ only in how
/// they wait for a `Job` (stdio blocks on it, TCP pipelines it).
enum Answer {
    /// The response line is ready now: metrics, a slowlog dump, a warm
    /// probe hit or a structured rejection.
    Reply(String),
    /// The `shutdown` acknowledgement: deliver it, then begin shutdown.
    Shutdown(String),
    /// A mapping job that missed the warm probe, for [`Server::submit`]
    /// (boxed to keep the enum small).
    Job(Box<Job>),
}

/// A materialized mapping job on its way to the admission queue.
struct Job {
    request: MapRequest,
    id: Option<Json>,
    /// When the connection read the line: latency and deadline run
    /// from here.
    received: Instant,
    deadline: Option<Duration>,
}

/// One completed solve, or one whose solve panicked, in the
/// slow-request ring.
#[derive(Debug, Clone)]
struct SlowEntry {
    /// End-to-end latency (parse excluded for queued jobs, included for
    /// warm hits' ingest), in microseconds.
    latency_us: u64,
    /// The request's `id`, when it carried one.
    id: Option<Json>,
    /// The answer's engine, winner and cache flag; unset and not
    /// rendered when the solve panicked.
    engine: String,
    winner: String,
    served_from_cache: bool,
    /// The solve panicked and the job was answered `internal`.
    panicked: bool,
    /// The full timeline, when the request asked for `"trace": true`.
    trace: Option<SolveTrace>,
}

/// Renders one slowlog entry — the `slowlog` response's element shape,
/// and the trace log's JSONL line shape.
fn slow_entry_json(entry: &SlowEntry) -> Json {
    let mut pairs = vec![("latency_us".to_string(), Json::num(entry.latency_us))];
    if let Some(id) = &entry.id {
        pairs.push(("id".to_string(), id.clone()));
    }
    if entry.panicked {
        pairs.push(("panicked".to_string(), Json::Bool(true)));
    } else {
        pairs.extend([
            ("engine".to_string(), Json::str(&entry.engine)),
            ("winner".to_string(), Json::str(&entry.winner)),
            (
                "served_from_cache".to_string(),
                Json::Bool(entry.served_from_cache),
            ),
        ]);
    }
    if let Some(trace) = &entry.trace {
        pairs.push(("trace".to_string(), proto::trace_json(trace)));
    }
    Json::Obj(pairs)
}

/// Escapes a Prometheus label value: backslash, double quote and
/// newline, per the text exposition format.
fn prom_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Writes a metric's `# HELP` / `# TYPE` preamble.
fn prom_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Writes one sample line, escaping label values.
fn prom_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: String) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (key, val)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{key}=\"{}\"", prom_escape(val)));
        }
        out.push('}');
    }
    out.push_str(&format!(" {value}\n"));
}

/// A single-sample metric: preamble plus one line.
fn prom_scalar(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    labels: &[(&str, &str)],
    value: String,
) {
    prom_header(out, name, kind, help);
    prom_sample(out, name, labels, value);
}

/// Renders a [`LatencyHistogram`] in exposition format: every
/// cumulative `_bucket` bound (zeros included — an empty histogram must
/// still scrape as a histogram, all zeros), then `_sum` and `_count`.
/// Bounds are converted from the histogram's microsecond buckets to
/// Prometheus-conventional seconds.
fn prom_histogram(out: &mut String, name: &str, help: &str, hist: &LatencyHistogram) {
    prom_header(out, name, "histogram", help);
    let counts = hist.snapshot();
    let mut cumulative = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        cumulative += n;
        let le = LatencyHistogram::upper_bound_us(i) as f64 / 1e6;
        prom_sample(
            out,
            &format!("{name}_bucket"),
            &[("le", &format!("{le}"))],
            cumulative.to_string(),
        );
    }
    prom_sample(
        out,
        &format!("{name}_bucket"),
        &[("le", "+Inf")],
        cumulative.to_string(),
    );
    let sum_s = hist.sum_us.load(Ordering::Relaxed) as f64 / 1e6;
    out.push_str(&format!("{name}_sum {sum_s}\n{name}_count {cumulative}\n"));
}

/// One batch of responses on its way out of a pipelined connection:
/// newline-terminated text (one or more whole lines — the reader corks
/// bursts of immediate answers into a single batch), how many lines it
/// holds (for the busy-lines gauge), and whether the daemon begins
/// winding down once it has been flushed (the batch ending in the
/// `shutdown` acknowledgement).
#[derive(Default)]
struct Outgoing {
    text: String,
    lines: usize,
    then_shutdown: bool,
}

impl Outgoing {
    fn push(&mut self, line: &str) {
        self.text.push_str(line);
        self.text.push('\n');
        self.lines += 1;
    }
}

/// One read from a request stream.
enum Line<'b> {
    /// End of input.
    End,
    /// A request line, its line ending removed.
    Text(&'b str),
    /// A line longer than [`MAX_LINE_BYTES`]; the rest of it is unread.
    TooLong,
}

/// Reads one request line into `buf`, never more than
/// [`MAX_LINE_BYTES`] plus a `\r\n` ending — the one reader behind both
/// transports.
///
/// # Errors
///
/// I/O errors, and a line that is not UTF-8 (`InvalidData`).
fn read_line<'b>(reader: &mut impl BufRead, buf: &'b mut Vec<u8>) -> io::Result<Line<'b>> {
    buf.clear();
    if reader
        .take(MAX_LINE_BYTES as u64 + 2)
        .read_until(b'\n', buf)?
        == 0
    {
        return Ok(Line::End);
    }
    let end = buf
        .iter()
        .rposition(|&b| b != b'\n' && b != b'\r')
        .map_or(0, |i| i + 1);
    if end > MAX_LINE_BYTES {
        return Ok(Line::TooLong);
    }
    std::str::from_utf8(&buf[..end])
        .map(Line::Text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The mapping daemon: admission queue, worker pool, metrics and
/// journal persistence. Construct with [`Server::start`], feed it
/// request lines with [`Server::handle_line`] (or let
/// [`Server::serve_tcp`] / [`Server::serve_stdio`] do it), and call
/// [`Server::finish`] to drain and persist on the way out.
pub struct Server {
    config: ServerConfig,
    solver: Solver,
    queue: Mutex<QueueState>,
    available: Condvar,
    counters: Counters,
    latency: LatencyHistogram,
    /// Per-phase latency histograms: warm probe hits (end-to-end),
    /// queue wait at dispatch, and engine solve time of completed jobs.
    phase_warm_hit: LatencyHistogram,
    phase_queue_wait: LatencyHistogram,
    phase_solve: LatencyHistogram,
    /// Per-engine outcome counters keyed by engine name:
    /// `(wins, cancellations)`.
    engine_stats: Mutex<BTreeMap<String, (u64, u64)>>,
    /// The N slowest completed solves (unordered; sorted at dump time).
    slowlog: Mutex<Vec<SlowEntry>>,
    /// The JSONL trace log, when configured and openable.
    trace_log: Mutex<Option<io::BufWriter<std::fs::File>>>,
    /// When the server booted (the `metrics` response's `uptime_us`).
    started: Instant,
    /// What [`Server::warm_start`]'s journal replay recovered, for the
    /// `metrics` response's journal-health section.
    replay: Mutex<Option<JournalReplay>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The attached cache journal, when configured and booted via
    /// [`Server::warm_start`]; finished by [`Server::finish`] and kept,
    /// so a post-drain `metrics` read still reports its counters.
    journal: Mutex<Option<Journal>>,
    /// Responses accepted for delivery but not yet flushed to their
    /// sockets — what [`Server::finish`] waits out so an answered job's
    /// response is not lost to process exit.
    busy_lines: AtomicU64,
}

impl Server {
    /// Boots the worker pool with the production solver
    /// ([`WindowedEngine`], answering through the process-wide
    /// [`SolveCache`]).
    pub fn start(config: ServerConfig) -> Arc<Server> {
        Server::start_with_solver(
            config,
            Box::new(|request| WindowedEngine::new().run_cached(request)),
        )
    }

    /// [`Server::start`] with an injected per-job solver (tests).
    pub fn start_with_solver(config: ServerConfig, solver: Solver) -> Arc<Server> {
        // An unopenable trace log disables the logging, never the
        // daemon: a full disk at boot should cost observability, not
        // service.
        let trace_log = config
            .trace_log
            .as_ref()
            .and_then(|path| {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .ok()
            })
            .map(io::BufWriter::new);
        let server = Arc::new(Server {
            workers: Mutex::new(Vec::new()),
            queue: Mutex::new(QueueState {
                jobs: BinaryHeap::new(),
                in_flight: 0,
                shutdown: false,
                next_seq: 0,
            }),
            available: Condvar::new(),
            counters: Counters::default(),
            latency: LatencyHistogram::default(),
            phase_warm_hit: LatencyHistogram::default(),
            phase_queue_wait: LatencyHistogram::default(),
            phase_solve: LatencyHistogram::default(),
            engine_stats: Mutex::new(BTreeMap::new()),
            slowlog: Mutex::new(Vec::new()),
            trace_log: Mutex::new(trace_log),
            started: Instant::now(),
            replay: Mutex::new(None),
            journal: Mutex::new(None),
            busy_lines: AtomicU64::new(0),
            solver,
            config,
        });
        let mut workers = lock(&server.workers);
        for _ in 0..server.config.workers.max(1) {
            let server = Arc::clone(&server);
            workers.push(std::thread::spawn(move || server.worker_loop()));
        }
        drop(workers);
        server
    }

    /// One worker: pop the most urgent job, shed it if its deadline
    /// already expired, otherwise solve it and deliver its outcome,
    /// repeat. Exits once shutdown has begun *and* the queue is empty —
    /// every admitted job is answered. A panicking solve answers its job
    /// `internal`; the worker lives on.
    fn worker_loop(&self) {
        loop {
            let (job, expired) = {
                let mut q = lock(&self.queue);
                let job = loop {
                    if let Some(job) = q.jobs.pop() {
                        break job;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = wait(&self.available, q);
                };
                let expired = job.deadline.is_some_and(|d| Instant::now() > d);
                if !expired {
                    q.in_flight += 1;
                }
                (job, expired)
            };
            // Callbacks run outside the lock: they render and deliver
            // the response.
            let waited = job.enqueued.elapsed();
            if expired {
                self.count_rejection("deadline_expired");
                (job.complete)(JobOutcome::Shed { waited });
                continue;
            }
            self.phase_queue_wait.record(micros(waited));
            // A traced job gets the wait as a `queue` span, with the EDF
            // slack still on the clock at dispatch.
            let trace = job.request.trace();
            if trace.is_enabled() {
                let slack_ms = job
                    .deadline
                    .map(|d| {
                        u64::try_from(d.saturating_duration_since(Instant::now()).as_millis())
                            .unwrap_or(u64::MAX)
                    })
                    .unwrap_or(0);
                trace.record_with("queue", job.enqueued, waited, &[("slack_ms", slack_ms)]);
            }
            let outcome =
                match panic::catch_unwind(AssertUnwindSafe(|| (self.solver)(&job.request))) {
                    Ok(result) => JobOutcome::Done(Box::new(result)),
                    Err(_) => JobOutcome::Panicked {
                        trace: trace.finish(),
                    },
                };
            // Leave the in-flight count before the reply goes out, so a
            // client reading `metrics` right after its answer never sees
            // its own job still counted.
            lock(&self.queue).in_flight -= 1;
            (job.complete)(outcome);
        }
    }

    /// Admits a job or rejects it without blocking. The rejection is the
    /// protocol's `overloaded` / `shutting_down` error. On admission,
    /// `complete` is invoked exactly once — on a worker thread — with
    /// the job's outcome.
    fn submit(
        &self,
        request: MapRequest,
        deadline: Option<Instant>,
        id: Option<Json>,
        complete: Complete,
    ) -> Result<(), Rejection> {
        let mut q = lock(&self.queue);
        let refused = if q.shutdown {
            Some(Rejection::new(
                "shutting_down",
                id,
                "the server is shutting down and admits no new work",
            ))
        } else if q.jobs.len() >= self.config.queue_depth {
            Some(Rejection::new(
                "overloaded",
                id,
                format!(
                    "admission queue is full ({} jobs waiting); retry later or against a replica",
                    q.jobs.len()
                ),
            ))
        } else {
            None
        };
        if let Some(rejection) = refused {
            self.count_rejection(rejection.code);
            return Err(rejection);
        }
        let seq = q.next_seq;
        q.next_seq += 1;
        q.jobs.push(QueuedJob {
            request,
            deadline,
            enqueued: Instant::now(),
            seq,
            complete,
        });
        drop(q);
        self.available.notify_one();
        Ok(())
    }

    /// The one dispatcher behind both transports: parses a request line
    /// and answers everything that needs no worker. A mapping job that
    /// misses the warm probe comes back as [`Answer::Job`]. A panic on
    /// the way is caught and answered as an `internal` rejection.
    ///
    /// `received` is when the connection read the line. A map request's
    /// latency, its deadline and its trace all run from it, so they
    /// cover parsing, the probe and rendering as the client sees them.
    fn answer(&self, text: &str, received: Instant) -> Answer {
        panic::catch_unwind(AssertUnwindSafe(|| match proto::parse_request(text) {
            Err(rejection) => Answer::Reply(self.reject(&rejection)),
            Ok(Request::Metrics { id, prometheus }) => Answer::Reply(if prometheus {
                self.metrics_prometheus(id).to_string()
            } else {
                self.metrics_json(id).to_string()
            }),
            Ok(Request::Slowlog { id }) => Answer::Reply(self.slowlog_json(id).to_string()),
            Ok(Request::Shutdown { id }) => Answer::Shutdown(Server::shutdown_ack(id)),
            Ok(Request::Map(job)) => self.prepare_map(*job, received),
        }))
        .unwrap_or_else(|_| Answer::Reply(self.internal(None)))
    }

    /// Counts, probes and materializes one parsed mapping job: a warm
    /// probe hit or a malformed payload answers immediately; everything
    /// else comes back as a [`Job`] for the admission queue. The wire
    /// trace therefore covers ingest and queue wait on top of the
    /// report's solve-only `elapsed_us`.
    fn prepare_map(&self, job: proto::MapJob, received: Instant) -> Answer {
        self.counters.received.fetch_add(1, Ordering::Relaxed);
        let deadline = job.deadline();
        let trace = if job.wants_trace() {
            let trace = SpanRecorder::with_origin(received);
            // Parse + skeleton ran before the flag was known.
            trace.record("ingest/parse", received, received.elapsed());
            trace
        } else {
            SpanRecorder::disabled()
        };
        // Skeleton-first warm path: the parser already computed the
        // payload's canonical skeleton, so probe the solve cache before
        // materializing a circuit or touching the admission queue. A
        // miss falls through to exactly the path a probe-less request
        // would take (and the solve's own cache lookup re-checks the
        // same key).
        let mut probe_span = trace.span("ingest/probe");
        let signature = WindowedEngine::new().cache_signature();
        let probed = job
            .cache_probe()
            .and_then(|p| SolveCache::shared().probe(&signature, &p));
        probe_span.counter("hit", u64::from(probed.is_some()));
        probe_span.end();
        if let Some(mut report) = probed {
            self.close_ingest(&trace);
            report.trace = trace.finish();
            let response = proto::result_response(job.id.clone(), &report).to_string();
            let latency_us = self.book(job.id, received, deadline, report);
            self.phase_warm_hit.record(latency_us);
            return Answer::Reply(response);
        }
        let mat_span = trace.span("ingest/materialize");
        let request = match job.materialize() {
            Ok(request) => request,
            Err(rejection) => return Answer::Reply(self.reject(&rejection)),
        };
        mat_span.end();
        self.close_ingest(&trace);
        Answer::Job(Box::new(Job {
            request: request.with_trace(trace),
            id: job.id,
            received,
            deadline,
        }))
    }

    /// Seals the `ingest` parent span — trace origin (line receipt) to
    /// now, covering parse, probe and materialization.
    fn close_ingest(&self, trace: &SpanRecorder) {
        if let Some(origin) = trace.origin() {
            trace.record("ingest", origin, origin.elapsed());
        }
    }

    /// The rejection counters by reason, in exposition order.
    fn rejections(&self) -> [(&'static str, &AtomicU64); 6] {
        let c = &self.counters;
        [
            ("parse", &c.rejected_parse),
            ("bad_request", &c.rejected_bad_request),
            ("overloaded", &c.rejected_overload),
            ("deadline_expired", &c.rejected_deadline),
            ("shutting_down", &c.rejected_shutdown),
            ("internal", &c.rejected_internal),
        ]
    }

    /// Bumps the per-reason rejection counter for a structured
    /// rejection code (unknown codes only feed the aggregate `errors`).
    fn count_rejection(&self, code: &str) {
        if let Some((_, cell)) = self.rejections().into_iter().find(|&(r, _)| r == code) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Books a request answered with an error before any solver ran
    /// (`errors` and its reason) and renders the error line.
    fn reject(&self, rejection: &Rejection) -> String {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        self.count_rejection(rejection.code);
        proto::rejection_response(rejection).to_string()
    }

    /// The `internal` rejection of a request whose answer panicked.
    fn internal(&self, id: Option<Json>) -> String {
        self.reject(&Rejection::new(
            "internal",
            id,
            "answering this request panicked; the daemon keeps serving",
        ))
    }

    /// Records one finished map request's end-to-end latency, returning
    /// it in microseconds. The deadline miss is judged on what the
    /// client asked for: the wall clock against the request's own
    /// deadline, queueing included.
    fn observe_latency(&self, received: Instant, deadline: Option<Duration>) -> u64 {
        let elapsed = received.elapsed();
        self.latency.record(micros(elapsed));
        if deadline.is_some_and(|d| elapsed > d) {
            self.counters
                .deadline_misses
                .fetch_add(1, Ordering::Relaxed);
        }
        micros(elapsed)
    }

    /// Books one map job answered with a report, warm hit or solve: its
    /// latency, the completion counters, the engine tally of a fresh
    /// solve, and the slow-request ring. Returns the latency in
    /// microseconds.
    fn book(
        &self,
        id: Option<Json>,
        received: Instant,
        deadline: Option<Duration>,
        report: MapReport,
    ) -> u64 {
        let latency_us = self.observe_latency(received, deadline);
        let c = &self.counters;
        c.completed.fetch_add(1, Ordering::Relaxed);
        if report.served_from_cache {
            c.served_from_cache.fetch_add(1, Ordering::Relaxed);
        } else {
            self.note_engine(&report);
        }
        self.note_slow(SlowEntry {
            latency_us,
            id,
            engine: report.engine,
            winner: report.winner,
            served_from_cache: report.served_from_cache,
            panicked: false,
            trace: report.trace,
        });
        latency_us
    }

    /// Feeds the per-engine win/cancel counters from a completed
    /// (non-cached) report. The portfolio's only cancellation path is a
    /// zero-cost win racing the other engine down, so that is what the
    /// cancel counter records.
    fn note_engine(&self, report: &MapReport) {
        let mut stats = lock(&self.engine_stats);
        stats.entry(report.winner.clone()).or_default().0 += 1;
        if report.engine.starts_with("portfolio") && report.cost.objective == 0 {
            let cancelled = if report.winner == "exact" {
                None // the exact engine finishing at 0 needs no cancel
            } else {
                Some("exact")
            };
            if let Some(name) = cancelled {
                stats.entry(name.to_string()).or_default().1 += 1;
            }
        }
    }

    /// Admits a completed solve to the slow-request ring when it ranks
    /// among the N slowest seen, appending admitted entries to the
    /// trace log (JSONL) when one is configured. A panicked solve is
    /// always admitted, in place of the fastest answered entry.
    fn note_slow(&self, entry: SlowEntry) {
        let line = {
            let mut ring = lock(&self.slowlog);
            if ring.len() < SLOWLOG_CAPACITY {
                ring.push(entry);
                ring.last().map(slow_entry_json)
            } else {
                let i = ring
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| (e.panicked, e.latency_us))
                    .map(|(i, _)| i)
                    .expect("ring is non-empty at capacity");
                let victim = &ring[i];
                if !entry.panicked && (victim.panicked || entry.latency_us <= victim.latency_us) {
                    return;
                }
                ring[i] = entry;
                Some(slow_entry_json(&ring[i]))
            }
        };
        if let Some(line) = line {
            self.append_trace_log(&line.to_string());
        }
    }

    /// Appends one line to the trace log. A failed write closes the
    /// log — observability degrades, the daemon keeps serving.
    fn append_trace_log(&self, line: &str) {
        let mut guard = lock(&self.trace_log);
        if let Some(log) = guard.as_mut() {
            let ok = writeln!(log, "{line}").is_ok() && log.flush().is_ok();
            if !ok {
                *guard = None;
            }
        }
    }

    /// The `slowlog` response: ring entries, slowest first.
    pub fn slowlog_json(&self, id: Option<Json>) -> Json {
        let mut entries: Vec<SlowEntry> = lock(&self.slowlog).clone();
        entries.sort_by_key(|e| std::cmp::Reverse(e.latency_us));
        let mut pairs = vec![("type".to_string(), Json::str("slowlog"))];
        if let Some(id) = id {
            pairs.push(("id".to_string(), id));
        }
        pairs.extend([
            ("capacity".to_string(), Json::num(SLOWLOG_CAPACITY as u64)),
            (
                "entries".to_string(),
                Json::Arr(entries.iter().map(slow_entry_json).collect()),
            ),
        ]);
        Json::Obj(pairs)
    }

    /// Renders an admitted job's outcome as its response line and books
    /// it. Shed and panicked jobs never enter the latency histogram —
    /// they did no work and would only flatter the percentiles. A panic
    /// while rendering is answered as an `internal` rejection.
    fn render_map_outcome(
        &self,
        id: Option<Json>,
        received: Instant,
        deadline: Option<Duration>,
        outcome: JobOutcome,
    ) -> String {
        let panicked_id = id.clone();
        panic::catch_unwind(AssertUnwindSafe(|| match outcome {
            JobOutcome::Done(result) => match *result {
                Ok(report) => {
                    let response = proto::result_response(id.clone(), &report).to_string();
                    self.phase_solve.record(micros(report.elapsed));
                    self.book(id, received, deadline, report);
                    response
                }
                Err(error) => {
                    self.observe_latency(received, deadline);
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    proto::error_response(id, &error).to_string()
                }
            },
            JobOutcome::Shed { waited } => proto::rejection_response(&Rejection::new(
                "deadline_expired",
                id,
                format!(
                    "deadline expired after {} ms in the admission queue; \
                     the job was shed before dispatch",
                    waited.as_millis()
                ),
            ))
            .to_string(),
            JobOutcome::Panicked { trace } => {
                self.note_slow(SlowEntry {
                    latency_us: micros(received.elapsed()),
                    id: id.clone(),
                    engine: String::new(),
                    winner: String::new(),
                    served_from_cache: false,
                    panicked: true,
                    trace,
                });
                self.internal(id)
            }
        }))
        .unwrap_or_else(|_| self.internal(panicked_id))
    }

    /// The `shutdown` acknowledgement line.
    fn shutdown_ack(id: Option<Json>) -> String {
        Json::Obj(
            [
                ("type".to_string(), Json::str("ok")),
                ("message".to_string(), Json::str("shutting down")),
            ]
            .into_iter()
            .chain(id.map(|id| ("id".to_string(), id)))
            .collect(),
        )
        .to_string()
    }

    /// Handles one request line end to end (parse, admit, wait, render),
    /// returning the response line to write back. Mapping jobs block the
    /// calling thread until their outcome is ready — this is the
    /// strictly request/response path used by stdio mode and tests; TCP
    /// connections pipeline the same answers instead.
    pub fn handle_line(&self, line: &str) -> Handled {
        let job = match self.answer(line, Instant::now()) {
            Answer::Reply(response) => return Handled::Reply(response),
            Answer::Shutdown(ack) => return Handled::ReplyAndShutdown(ack),
            Answer::Job(job) => *job,
        };
        let (outcome_tx, outcome_rx) = mpsc::channel();
        let complete: Complete = Box::new(move |outcome| {
            let _ = outcome_tx.send(outcome);
        });
        let absolute = job.deadline.map(|d| job.received + d);
        Handled::Reply(
            match self.submit(job.request, absolute, job.id.clone(), complete) {
                Err(rejection) => proto::rejection_response(&rejection).to_string(),
                // A completion dropped unsent means its worker died.
                Ok(()) => self.render_map_outcome(
                    job.id,
                    job.received,
                    job.deadline,
                    outcome_rx
                        .recv()
                        .unwrap_or(JobOutcome::Panicked { trace: None }),
                ),
            },
        )
    }

    /// The `metrics` response: solve-cache statistics, queue state
    /// (including the waiting jobs' remaining-deadline distribution),
    /// and request/latency counters.
    pub fn metrics_json(&self, id: Option<Json>) -> Json {
        let cache = SolveCache::shared().stats();
        let (depth, in_flight, deadlined, slack_min_ms, slack_p50_ms) = {
            let q = lock(&self.queue);
            let now = Instant::now();
            // Remaining slack of every *deadlined* waiter, saturating at
            // zero for already-expired jobs still awaiting shedding.
            let mut slacks: Vec<u64> = q
                .jobs
                .iter()
                .filter_map(|job| job.deadline)
                .map(|d| {
                    u64::try_from(d.saturating_duration_since(now).as_millis()).unwrap_or(u64::MAX)
                })
                .collect();
            slacks.sort_unstable();
            let min = slacks.first().copied().unwrap_or(0);
            let p50 = slacks.get(slacks.len() / 2).copied().unwrap_or(0);
            (q.jobs.len(), q.in_flight, slacks.len(), min, p50)
        };
        let c = &self.counters;
        let get = |a: &AtomicU64| Json::num(a.load(Ordering::Relaxed));
        let mut pairs = vec![("type".to_string(), Json::str("metrics"))];
        if let Some(id) = id {
            pairs.push(("id".to_string(), id));
        }
        pairs.extend([
            (
                "cache".to_string(),
                Json::obj([
                    ("hits", Json::num(cache.hits)),
                    ("misses", Json::num(cache.misses)),
                    ("evictions", Json::num(cache.evictions)),
                    ("entries", Json::num(cache.entries as u64)),
                    ("approx_bytes", Json::num(cache.approx_bytes as u64)),
                    (
                        "capacity",
                        Json::num(SolveCache::shared().capacity() as u64),
                    ),
                ]),
            ),
            (
                "queue".to_string(),
                Json::obj([
                    ("depth", Json::num(depth as u64)),
                    ("capacity", Json::num(self.config.queue_depth as u64)),
                    ("in_flight", Json::num(in_flight as u64)),
                    ("workers", Json::num(self.config.workers.max(1) as u64)),
                    ("deadlined", Json::num(deadlined as u64)),
                    ("slack_min_ms", Json::num(slack_min_ms)),
                    ("slack_p50_ms", Json::num(slack_p50_ms)),
                    ("wait_total_us", get(&self.phase_queue_wait.sum_us)),
                    ("wait_max_us", get(&self.phase_queue_wait.max_us)),
                ]),
            ),
            (
                "requests".to_string(),
                Json::obj([
                    ("received", get(&c.received)),
                    ("completed", get(&c.completed)),
                    ("errors", get(&c.errors)),
                    ("rejected_overload", get(&c.rejected_overload)),
                    ("rejected_deadline", get(&c.rejected_deadline)),
                    (
                        "rejected",
                        Json::obj(self.rejections().map(|(reason, cell)| (reason, get(cell)))),
                    ),
                    ("served_from_cache", get(&c.served_from_cache)),
                    ("deadline_misses", get(&c.deadline_misses)),
                    ("total_latency_us", get(&self.latency.sum_us)),
                    ("max_latency_us", get(&self.latency.max_us)),
                ]),
            ),
            ("latency".to_string(), self.latency.to_json()),
            (
                "phases".to_string(),
                Json::obj([
                    ("warm_hit", self.phase_warm_hit.to_json()),
                    ("queue_wait", self.phase_queue_wait.to_json()),
                    ("solve", self.phase_solve.to_json()),
                ]),
            ),
            ("engines".to_string(), self.engines_json()),
            (
                "uptime_us".to_string(),
                Json::num(u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)),
            ),
            ("version".to_string(), Json::str(env!("CARGO_PKG_VERSION"))),
        ]);
        if let Some(journal) = self.journal_health() {
            pairs.push(("journal".to_string(), journal));
        }
        Json::Obj(pairs)
    }

    /// The per-engine win/cancel counters, as `{"name": {"wins": n,
    /// "cancels": m}}`.
    fn engines_json(&self) -> Json {
        let stats = lock(&self.engine_stats);
        Json::Obj(
            stats
                .iter()
                .map(|(name, &(wins, cancels))| {
                    (
                        name.clone(),
                        Json::obj([("wins", Json::num(wins)), ("cancels", Json::num(cancels))]),
                    )
                })
                .collect(),
        )
    }

    /// Journal health for the `metrics` response: boot-time replay
    /// numbers plus the writer's live (or, after [`Server::finish`],
    /// final) counters. `None` when no journal is configured.
    fn journal_health(&self) -> Option<Json> {
        self.config.journal.as_ref()?;
        let replay = lock(&self.replay).unwrap_or_default();
        let stats = lock(&self.journal)
            .as_ref()
            .map(Journal::stats)
            .unwrap_or_default();
        Some(Json::obj([
            ("appended", Json::num(stats.appended)),
            ("compactions", Json::num(stats.compactions)),
            ("write_errors", Json::num(stats.write_errors)),
            ("replay_admitted", Json::num(replay.admitted as u64)),
            ("replay_rejected", Json::num(replay.rejected as u64)),
            ("replay_torn", Json::Bool(replay.torn)),
        ]))
    }

    /// The `{"type": "metrics", "format": "prometheus"}` response: the
    /// exposition text (see [`Server::prometheus_text`]) wrapped as the
    /// `body` of a one-line JSON envelope, keeping the wire protocol
    /// line-delimited.
    pub fn metrics_prometheus(&self, id: Option<Json>) -> Json {
        let mut pairs = vec![("type".to_string(), Json::str("metrics"))];
        if let Some(id) = id {
            pairs.push(("id".to_string(), id));
        }
        pairs.extend([
            ("format".to_string(), Json::str("prometheus")),
            ("body".to_string(), Json::str(self.prometheus_text())),
        ]);
        Json::Obj(pairs)
    }

    /// Renders the same counters the JSON `metrics` response reports as
    /// Prometheus text exposition (`# HELP`/`# TYPE` + samples;
    /// histograms as cumulative buckets in seconds).
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        let cache = SolveCache::shared().stats();
        let (depth, in_flight) = {
            let q = lock(&self.queue);
            (q.jobs.len(), q.in_flight)
        };
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        prom_scalar(
            &mut out,
            "qxmap_build_info",
            "gauge",
            "Constant 1, labeled with the daemon's crate version.",
            &[("version", env!("CARGO_PKG_VERSION"))],
            "1".to_string(),
        );
        prom_scalar(
            &mut out,
            "qxmap_uptime_seconds",
            "gauge",
            "Seconds since the daemon booted.",
            &[],
            format!("{:.6}", self.started.elapsed().as_secs_f64()),
        );
        for (name, help, value) in [
            (
                "qxmap_cache_hits_total",
                "Solve-cache lookup hits.",
                cache.hits,
            ),
            (
                "qxmap_cache_misses_total",
                "Solve-cache lookup misses.",
                cache.misses,
            ),
            (
                "qxmap_cache_evictions_total",
                "Solve-cache LRU evictions.",
                cache.evictions,
            ),
            (
                "qxmap_requests_received_total",
                "Mapping jobs received.",
                get(&c.received),
            ),
            (
                "qxmap_requests_completed_total",
                "Mapping jobs answered with a result.",
                get(&c.completed),
            ),
            (
                "qxmap_requests_errors_total",
                "Requests answered with an error.",
                get(&c.errors),
            ),
            (
                "qxmap_requests_cached_total",
                "Mapping jobs served from the solve cache.",
                get(&c.served_from_cache),
            ),
            (
                "qxmap_deadline_misses_total",
                "Completed jobs that overran their own deadline_ms.",
                get(&c.deadline_misses),
            ),
        ] {
            prom_scalar(&mut out, name, "counter", help, &[], value.to_string());
        }
        for (name, help, value) in [
            (
                "qxmap_cache_entries",
                "Solve-cache entries resident.",
                cache.entries as u64,
            ),
            (
                "qxmap_queue_depth",
                "Jobs waiting in the admission queue.",
                depth as u64,
            ),
            (
                "qxmap_queue_in_flight",
                "Jobs dispatched to workers and not yet answered.",
                in_flight as u64,
            ),
            (
                "qxmap_workers",
                "Worker threads.",
                self.config.workers.max(1) as u64,
            ),
        ] {
            prom_scalar(&mut out, name, "gauge", help, &[], value.to_string());
        }
        prom_header(
            &mut out,
            "qxmap_requests_rejected_total",
            "counter",
            "Requests rejected before any solver ran, by reason.",
        );
        for (reason, cell) in self.rejections() {
            prom_sample(
                &mut out,
                "qxmap_requests_rejected_total",
                &[("reason", reason)],
                get(cell).to_string(),
            );
        }
        {
            let stats = lock(&self.engine_stats);
            prom_header(
                &mut out,
                "qxmap_engine_wins_total",
                "counter",
                "Race wins by engine name.",
            );
            for (name, &(wins, _)) in stats.iter() {
                prom_sample(
                    &mut out,
                    "qxmap_engine_wins_total",
                    &[("engine", name)],
                    wins.to_string(),
                );
            }
            prom_header(
                &mut out,
                "qxmap_engine_cancels_total",
                "counter",
                "Engines cancelled mid-race by a zero-cost win.",
            );
            for (name, &(_, cancels)) in stats.iter() {
                prom_sample(
                    &mut out,
                    "qxmap_engine_cancels_total",
                    &[("engine", name)],
                    cancels.to_string(),
                );
            }
        }
        if let Some(Json::Obj(journal)) = self.journal_health() {
            for (key, value) in &journal {
                let (kind, rendered) = match value {
                    Json::Bool(b) => ("gauge", u64::from(*b).to_string()),
                    other => ("counter", other.to_string()),
                };
                prom_scalar(
                    &mut out,
                    &format!("qxmap_journal_{key}"),
                    kind,
                    "Cache-journal health (see the JSON metrics journal section).",
                    &[],
                    rendered,
                );
            }
        }
        prom_histogram(
            &mut out,
            "qxmap_request_latency_seconds",
            "End-to-end mapping-request latency.",
            &self.latency,
        );
        prom_histogram(
            &mut out,
            "qxmap_warm_hit_latency_seconds",
            "Latency of requests answered by the skeleton-first cache probe.",
            &self.phase_warm_hit,
        );
        prom_histogram(
            &mut out,
            "qxmap_queue_wait_seconds",
            "Time dispatched jobs waited in the admission queue.",
            &self.phase_queue_wait,
        );
        prom_histogram(
            &mut out,
            "qxmap_solve_seconds",
            "Engine solve time of completed jobs.",
            &self.phase_solve,
        );
        out
    }

    /// Closes admission and wakes the workers; already-admitted jobs
    /// still complete. Idempotent.
    pub fn begin_shutdown(&self) {
        lock(&self.queue).shutdown = true;
        self.available.notify_all();
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        lock(&self.queue).shutdown
    }

    /// Drains the pool (joining every worker — every admitted job is
    /// answered first), then finishes the cache journal: drains and
    /// detaches it, and compacts the file to the cache's live entries in
    /// least-recently-used order ([`Journal::finish`]).
    ///
    /// # Errors
    ///
    /// Propagates journal-write I/O errors; the drain itself cannot
    /// fail.
    pub fn finish(&self) -> io::Result<()> {
        self.begin_shutdown();
        let workers = std::mem::take(&mut *lock(&self.workers));
        for worker in workers {
            worker
                .join()
                .expect("workers catch their solves' and renders' panics");
        }
        // Workers answered every admitted job; give the (detached)
        // connection threads a moment to flush those answers to their
        // sockets before the process exits. Bounded: a client that has
        // stopped reading must not be able to hold shutdown hostage
        // through a blocked TCP write.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.busy_lines.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if let Some(log) = lock(&self.trace_log).as_mut() {
            let _ = log.flush();
        }
        match lock(&self.journal).as_mut() {
            Some(journal) => journal.finish(),
            None => Ok(()),
        }
    }

    /// Recovers warm state into the process-wide [`SolveCache`] from
    /// the configured journal, replayed record by record (torn or
    /// corrupt records rejected individually) and left attached, so
    /// every solve from here on is journaled by a background thread
    /// until [`Server::finish`]. A missing file is a cold start. Returns
    /// the replay summary, or `None` when no journal is configured.
    ///
    /// # Errors
    ///
    /// Returns a description of why the journal could not be attached;
    /// the daemon should log it and start cold rather than refuse to
    /// boot.
    pub fn warm_start(&self) -> Result<Option<JournalReplay>, String> {
        let Some(path) = &self.config.journal else {
            return Ok(None);
        };
        let (journal, replay) = Journal::attach(SolveCache::shared(), path, JOURNAL_COMPACT_AFTER)
            .map_err(|e| format!("attaching journal {}: {e}", path.display()))?;
        *lock(&self.journal) = Some(journal);
        *lock(&self.replay) = Some(replay);
        Ok(Some(replay))
    }

    /// Accept loop: serves connections until shutdown begins, then
    /// returns (call [`Server::finish`] after). Each connection gets a
    /// reader thread and a writer thread, pipelining up to
    /// [`PIPELINE_DEPTH`] mapping jobs.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors; per-connection I/O errors only
    /// end their connection.
    pub fn serve_tcp(self: &Arc<Server>, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        loop {
            // Checked every iteration, not only when accept() idles: a
            // stream of reconnecting clients (each now due a
            // shutting_down rejection) must not keep the accept loop —
            // and with it the shutdown drain — alive forever.
            if self.is_shutting_down() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    // The protocol is one small line each way; Nagle's
                    // algorithm would park every response behind a
                    // delayed ACK (~40 ms) — two orders of magnitude
                    // over a warm cache hit.
                    stream.set_nodelay(true)?;
                    let server = Arc::clone(self);
                    // Connection threads are detached deliberately: one
                    // may sit in a blocking read for as long as its
                    // client stays idle, and shutdown must not wait for
                    // that. Admitted work is still drained by `finish`.
                    std::thread::spawn(move || server.serve_connection(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Hands a batch of response lines to a connection's writer thread,
    /// keeping the busy-lines gauge exact: the sender accounts for the
    /// lines and the writer releases them after flushing (or
    /// discarding, once the socket is dead).
    fn send_out(&self, out: &mpsc::Sender<Outgoing>, batch: Outgoing) {
        let lines = batch.lines as u64;
        self.busy_lines.fetch_add(lines, Ordering::AcqRel);
        if out.send(batch).is_err() {
            self.busy_lines.fetch_sub(lines, Ordering::AcqRel);
        }
    }

    /// One pipelined connection. The reader (this call) answers each
    /// line through [`Server::answer`], delivering ready answers at once
    /// and submitting mapping jobs whose completions — possibly out of
    /// submission order — flow through a dedicated writer thread that
    /// owns the socket's write half. At [`PIPELINE_DEPTH`] jobs in
    /// flight the reader stops consuming input until a completion frees
    /// a slot.
    fn serve_connection(self: &Arc<Server>, stream: TcpStream) {
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let (out_tx, out_rx) = mpsc::channel::<Outgoing>();
        let writer_thread = {
            let server = Arc::clone(self);
            std::thread::spawn(move || {
                let mut dead = false;
                while let Ok(first) = out_rx.recv() {
                    // Coalesce the backlog into one write + flush: under
                    // pipelining completions arrive in bursts, and one
                    // syscall round per burst (instead of per response)
                    // is most of the throughput win on a busy box.
                    let mut batch = vec![first];
                    while let Ok(more) = out_rx.try_recv() {
                        batch.push(more);
                    }
                    if !dead {
                        let mut buf = String::new();
                        for out in &batch {
                            buf.push_str(&out.text);
                        }
                        dead =
                            !(writer.write_all(buf.as_bytes()).is_ok() && writer.flush().is_ok());
                    }
                    for out in &batch {
                        server
                            .busy_lines
                            .fetch_sub(out.lines as u64, Ordering::AcqRel);
                        if out.then_shutdown {
                            // An undeliverable ack (client already hung
                            // up) must not cancel an accepted shutdown.
                            server.begin_shutdown();
                        }
                    }
                }
            })
        };
        // Jobs in flight on this connection, and the signal that one
        // finished.
        let slots = Arc::new((Mutex::new(0usize), Condvar::new()));
        let release = |slots: &(Mutex<usize>, Condvar)| {
            *lock(&slots.0) -= 1;
            slots.1.notify_one();
        };
        // A large read buffer feeds the cork below: everything the
        // kernel has for this connection arrives in one syscall, and
        // the burst of immediate answers it produces leaves as one
        // batch.
        let mut reader = BufReader::with_capacity(64 * 1024, stream);
        let mut buf = Vec::new();
        // Corked immediate responses: while more complete request lines
        // sit in the read buffer, answers accumulate here and the
        // writer thread is woken once per burst, not once per line. A
        // lone request still flushes immediately (its burst is one
        // line), but a pipelining client stops paying a writer wakeup —
        // and, on a saturated core, a preemption — per response.
        let mut pending = Outgoing::default();
        loop {
            let text = match read_line(&mut reader, &mut buf) {
                Ok(Line::Text(text)) => text,
                Ok(Line::TooLong) => {
                    pending.push(&self.reject(&too_long()));
                    break;
                }
                Ok(Line::End) | Err(_) => break,
            };
            let received = Instant::now();
            if !text.trim().is_empty() {
                match self.answer(text, received) {
                    Answer::Reply(response) => pending.push(&response),
                    Answer::Shutdown(ack) => {
                        // Stop reading; in-flight jobs still answer
                        // through the writer, which begins wind-down
                        // after flushing the batch ending in this ack.
                        pending.push(&ack);
                        pending.then_shutdown = true;
                        break;
                    }
                    Answer::Job(job) => {
                        // About to (possibly) block on a slot: release
                        // anything corked first.
                        if pending.lines > 0 {
                            self.send_out(&out_tx, std::mem::take(&mut pending));
                        }
                        // Claim an in-flight slot before submitting: the
                        // completion may fire (and release the slot) on a
                        // worker thread before submit() even returns.
                        {
                            let mut count = lock(&slots.0);
                            while *count >= PIPELINE_DEPTH {
                                count = wait(&slots.1, count);
                            }
                            *count += 1;
                        }
                        let Job {
                            request,
                            id,
                            received,
                            deadline,
                        } = *job;
                        let complete: Complete = {
                            let (server, out_tx) = (Arc::clone(self), out_tx.clone());
                            let (slots, id) = (Arc::clone(&slots), id.clone());
                            Box::new(move |outcome| {
                                let mut batch = Outgoing::default();
                                batch.push(
                                    &server.render_map_outcome(id, received, deadline, outcome),
                                );
                                server.send_out(&out_tx, batch);
                                release(&slots);
                            })
                        };
                        let absolute = deadline.map(|d| received + d);
                        if let Err(rejection) = self.submit(request, absolute, id, complete) {
                            release(&slots);
                            pending.push(&proto::rejection_response(&rejection).to_string());
                        }
                    }
                }
            }
            // Uncork once the read buffer holds no further complete
            // request: the next read would block (or at least syscall),
            // so everything answered this burst ships now.
            if pending.lines > 0 && !reader.buffer().contains(&b'\n') {
                self.send_out(&out_tx, std::mem::take(&mut pending));
            }
        }
        if pending.lines > 0 {
            self.send_out(&out_tx, pending);
        }
        drop(out_tx);
        // In-flight completions hold their own senders; the writer
        // drains every outstanding response before exiting.
        let _ = writer_thread.join();
    }

    /// Stdio loop: one request line per stdin line, one response line on
    /// stdout — strictly request/response, no pipelining; returns on EOF,
    /// a `shutdown` request or an overlong line (call [`Server::finish`]
    /// after).
    ///
    /// # Errors
    ///
    /// Propagates stdin/stdout I/O errors.
    pub fn serve_stdio(&self) -> io::Result<()> {
        let mut input = io::stdin().lock();
        let stdout = io::stdout();
        let mut buf = Vec::new();
        loop {
            let (response, last) = match read_line(&mut input, &mut buf)? {
                Line::End => return Ok(()),
                Line::TooLong => (self.reject(&too_long()), true),
                Line::Text(text) if text.trim().is_empty() => continue,
                Line::Text(text) => match self.handle_line(text) {
                    Handled::Reply(response) => (response, false),
                    Handled::ReplyAndShutdown(ack) => (ack, true),
                },
            };
            let mut out = stdout.lock();
            writeln!(out, "{response}")?;
            out.flush()?;
            if last {
                return Ok(());
            }
        }
    }
}

/// The rejection of a line longer than [`MAX_LINE_BYTES`].
fn too_long() -> Rejection {
    Rejection::new(
        "bad_request",
        None,
        format!("request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qxmap_arch::devices;
    use qxmap_circuit::paper_example;
    use qxmap_map::{Engine, Portfolio};

    const QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncx q[0], q[1];\n";

    fn map_line() -> String {
        format!(
            "{{\"type\":\"map\",\"qasm\":{},\"device\":\"qx4\"}}",
            Json::str(QASM)
        )
    }

    fn config(workers: usize, queue_depth: usize) -> ServerConfig {
        ServerConfig {
            workers,
            queue_depth,
            ..ServerConfig::default()
        }
    }

    fn request(seed: u64) -> MapRequest {
        MapRequest::new(paper_example(), devices::ibm_qx4()).with_seed(seed)
    }

    /// Submits through a channel-backed completion, mirroring the
    /// synchronous path: the receiver yields the job's [`JobOutcome`].
    fn submit_job(
        server: &Server,
        request: MapRequest,
        deadline: Option<Instant>,
    ) -> Result<mpsc::Receiver<JobOutcome>, Rejection> {
        let (tx, rx) = mpsc::channel();
        server
            .submit(
                request,
                deadline,
                None,
                Box::new(move |outcome| {
                    let _ = tx.send(outcome);
                }),
            )
            .map(|()| rx)
    }

    fn done(outcome: JobOutcome) -> Result<MapReport, MapperError> {
        match outcome {
            JobOutcome::Done(result) => *result,
            JobOutcome::Shed { .. } => panic!("job unexpectedly shed"),
            JobOutcome::Panicked { .. } => panic!("job unexpectedly panicked"),
        }
    }

    /// A solver that blocks until released — pins down overload, drain
    /// and dispatch-order behavior without timing races.
    fn gated_solver() -> (Solver, mpsc::Sender<()>) {
        held_solver(|_| true, Portfolio::new())
    }

    /// A solver that blocks each request `holds` picks until released,
    /// once per request, then answers it through `engine`'s cache.
    fn held_solver(
        holds: impl Fn(&MapRequest) -> bool + Send + Sync + 'static,
        engine: impl Engine + 'static,
    ) -> (Solver, mpsc::Sender<()>) {
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let solver: Solver = Box::new(move |request| {
            if holds(request) {
                gate.lock()
                    .expect("no panics under the lock")
                    .recv()
                    .expect("the test releases the gate once per held job");
            }
            engine.run_cached(request)
        });
        (solver, release)
    }

    /// The portfolio under a cache signature of its own, counting the
    /// solves that reach it (cache hits never do).
    struct Counted(Arc<AtomicU64>);

    impl Engine for Counted {
        fn name(&self) -> &str {
            "counted-portfolio"
        }

        fn run(&self, request: &MapRequest) -> Result<MapReport, MapperError> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Portfolio::new().run(request)
        }
    }

    /// Parks the (single) worker on a gated job so later submissions
    /// pile up in the queue deterministically.
    fn occupy_worker(server: &Server) -> mpsc::Receiver<JobOutcome> {
        let receiver = submit_job(server, request(0), None).expect("admitted");
        while server.queue.lock().unwrap().in_flight == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        receiver
    }

    #[test]
    fn latency_histogram_buckets_and_percentiles() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        let h = LatencyHistogram::default();
        for us in [10, 10, 10, 10, 10, 10, 10, 10, 10, 2000] {
            h.record(us);
        }
        let counts = h.snapshot();
        assert_eq!(counts.iter().sum::<u64>(), 10);
        // 10 µs lands in [8, 16); the quantile reports the bucket's
        // upper bound.
        assert_eq!(LatencyHistogram::percentile(&counts, 0.50), 15);
        assert_eq!(LatencyHistogram::percentile(&counts, 0.99), 2047);
        let json = h.to_json();
        assert_eq!(json.get("count").and_then(Json::as_u64), Some(10));
        assert_eq!(json.get("p50_us").and_then(Json::as_u64), Some(15));
        assert_eq!(json.get("p99_us").and_then(Json::as_u64), Some(2047));
        let buckets = json.get("buckets").and_then(Json::as_array).unwrap();
        assert_eq!(buckets.len(), 2, "zero buckets are elided");
        // An empty histogram renders zeros, not NaNs.
        let empty = LatencyHistogram::default().to_json();
        assert_eq!(empty.get("p95_us").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn optimal_guarantees_prove_in_regime_and_are_refused_past_it() {
        // A CNOT triangle: QX4 has a triangle to prove it on, a line
        // does not, so past the exact regime no answer can be proved.
        let triangle = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n\
                        cx q[0], q[1];\ncx q[1], q[2];\ncx q[2], q[0];\n";
        let server = Server::start(config(1, 8));
        let reply = |device: &str| {
            let line = format!(
                "{{\"type\":\"map\",\"qasm\":{},\"device\":\"{device}\",\
                 \"guarantee\":\"optimal\"}}",
                Json::str(triangle)
            );
            let Handled::Reply(text) = server.handle_line(&line) else {
                panic!("map requests never shut the server down");
            };
            Json::parse(&text).expect("responses are valid JSON")
        };
        let proved = reply("qx4");
        assert_eq!(
            proved.get("type").and_then(Json::as_str),
            Some("result"),
            "{proved}"
        );
        assert_eq!(proved.get("proved_optimal"), Some(&Json::Bool(true)));
        let refused = reply("linear-12");
        assert_eq!(
            refused.get("code").and_then(Json::as_str),
            Some("optimality_unavailable"),
            "{refused}"
        );
        server.finish().unwrap();
    }

    #[test]
    fn deadline_misses_and_latency_feed_metrics() {
        // A solve that overruns the request's deadline: the response is
        // still delivered (the engines degrade, they don't fabricate
        // errors), but the miss is counted and the latency lands in the
        // histogram. The gated solver is released only once the job has
        // left the queue and its deadline has passed, so the deadline
        // runs out during the solve — a job still queued at its deadline
        // would be shed as `deadline_expired` instead.
        let (solver, release) = gated_solver();
        let server = Server::start_with_solver(config(1, 8), solver);
        let deadline = Duration::from_millis(100);
        let missed = format!(
            "{{\"type\":\"map\",\"qasm\":{},\"device\":\"qx4\",\"deadline_ms\":{}}}",
            Json::str(QASM),
            deadline.as_millis()
        );
        std::thread::scope(|scope| {
            let handler = scope.spawn(|| server.handle_line(&missed));
            while server.queue.lock().unwrap().in_flight == 0 && !handler.is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(deadline);
            release.send(()).unwrap();
            handler.join().unwrap();
        });
        let metrics = server.metrics_json(None);
        let requests = metrics.get("requests").unwrap();
        assert_eq!(
            requests.get("deadline_misses").and_then(Json::as_u64),
            Some(1)
        );
        let latency = metrics.get("latency").unwrap();
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(1));
        assert!(
            latency.get("p50_us").and_then(Json::as_u64).unwrap() >= 30_000,
            "{latency}"
        );
        // A deadline-free request records latency but cannot miss.
        release.send(()).unwrap();
        server.handle_line(&map_line());
        let metrics = server.metrics_json(None);
        let requests = metrics.get("requests").unwrap();
        assert_eq!(
            requests.get("deadline_misses").and_then(Json::as_u64),
            Some(1)
        );
        let latency = metrics.get("latency").unwrap();
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(2));
        server.finish().unwrap();
    }

    #[test]
    fn overload_is_rejected_with_a_structured_error() {
        let (solver, release) = gated_solver();
        let server = Server::start_with_solver(config(1, 1), solver);
        // First job: admitted, drained by the (gated) worker. Wait until
        // it actually leaves the queue so the depth accounting below is
        // deterministic.
        let first = occupy_worker(&server);
        // Second job: waits in the queue (depth 1/1). Third: overloaded.
        let _second = submit_job(&server, request(1), None).expect("queued");
        let rejected = submit_job(&server, request(2), None).unwrap_err();
        assert_eq!(rejected.code, "overloaded");
        assert!(rejected.message.contains("queue is full"));
        let metrics = server.metrics_json(None);
        let requests = metrics.get("requests").unwrap();
        assert_eq!(
            requests.get("rejected_overload").and_then(Json::as_u64),
            Some(1)
        );
        // Release both jobs; graceful shutdown drains everything.
        release.send(()).unwrap();
        release.send(()).unwrap();
        assert!(done(first.recv().unwrap()).is_ok());
        server.finish().unwrap();
    }

    #[test]
    fn shutdown_drains_admitted_jobs_and_rejects_new_ones() {
        let (solver, release) = gated_solver();
        let server = Server::start_with_solver(config(1, 8), solver);
        let admitted = submit_job(&server, request(0), None).expect("admitted");
        server.begin_shutdown();
        let rejected = submit_job(&server, request(0), None).unwrap_err();
        assert_eq!(rejected.code, "shutting_down");
        release.send(()).unwrap();
        let report = done(admitted.recv().unwrap()).expect("drained, not dropped");
        report
            .verify(&paper_example(), &devices::ibm_qx4())
            .unwrap();
        server.finish().unwrap();
    }

    #[test]
    fn earliest_deadline_first_dispatch_with_fifo_among_equals() {
        let (solver, release) = gated_solver();
        let server = Server::start_with_solver(config(1, 8), solver);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let tagged = |tag: &'static str| -> Complete {
            let order = Arc::clone(&order);
            Box::new(move |_| order.lock().unwrap().push(tag))
        };
        // Park the worker so the next three submissions rank against
        // each other in the queue rather than dispatching on arrival.
        server
            .submit(request(0), None, None, tagged("gate"))
            .unwrap();
        while server.queue.lock().unwrap().in_flight == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let now = Instant::now();
        // Submitted in the *worst* order for EDF: no deadline first,
        // loosest deadline second, tightest last.
        server
            .submit(request(1), None, None, tagged("none"))
            .unwrap();
        server
            .submit(
                request(2),
                Some(now + Duration::from_secs(120)),
                None,
                tagged("late"),
            )
            .unwrap();
        server
            .submit(
                request(3),
                Some(now + Duration::from_secs(30)),
                None,
                tagged("soon"),
            )
            .unwrap();
        // While they wait: the metrics queue section reports the
        // deadlined waiters' remaining-slack distribution.
        let metrics = server.metrics_json(None);
        let queue = metrics.get("queue").unwrap();
        assert_eq!(queue.get("deadlined").and_then(Json::as_u64), Some(2));
        let min = queue.get("slack_min_ms").and_then(Json::as_u64).unwrap();
        let p50 = queue.get("slack_p50_ms").and_then(Json::as_u64).unwrap();
        assert!(min > 20_000 && min <= 30_000, "{min}");
        assert!(p50 >= min && p50 <= 120_000, "{p50}");
        for _ in 0..4 {
            release.send(()).unwrap();
        }
        // finish() joins the workers, so every completion has fired.
        server.finish().unwrap();
        assert_eq!(*order.lock().unwrap(), ["gate", "soon", "late", "none"]);
        // Dispatched jobs fed the queue-wait counters.
        let metrics = server.metrics_json(None);
        let queue = metrics.get("queue").unwrap();
        assert!(queue.get("wait_total_us").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn deadline_less_jobs_keep_fifo_order() {
        let (solver, release) = gated_solver();
        let server = Server::start_with_solver(config(1, 8), solver);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let tagged = |tag: &'static str| -> Complete {
            let order = Arc::clone(&order);
            Box::new(move |_| order.lock().unwrap().push(tag))
        };
        server
            .submit(request(0), None, None, tagged("gate"))
            .unwrap();
        while server.queue.lock().unwrap().in_flight == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for tag in ["a", "b", "c"] {
            server.submit(request(0), None, None, tagged(tag)).unwrap();
        }
        for _ in 0..4 {
            release.send(()).unwrap();
        }
        server.finish().unwrap();
        assert_eq!(*order.lock().unwrap(), ["gate", "a", "b", "c"]);
    }

    #[test]
    fn a_reply_never_waits_for_another_jobs_solve() {
        // One worker, held busy. Behind it: B (earliest deadline, cheap)
        // and A (held). Once the first job is released, B must be
        // answered while A's solve is still blocked — a worker answers
        // one job, so no reply waits for a queue-mate.
        const CHEAP: u64 = 880_002;
        let (solver, release) = held_solver(|r| r.seed() != CHEAP, Portfolio::new());
        let server = Server::start_with_solver(config(1, 8), solver);
        let first = occupy_worker(&server);
        let now = Instant::now();
        let b = submit_job(&server, request(CHEAP), Some(now + Duration::from_secs(30)))
            .expect("admitted");
        let a = submit_job(
            &server,
            request(880_001),
            Some(now + Duration::from_secs(60)),
        )
        .expect("admitted");
        release.send(()).unwrap();
        assert!(done(first.recv().unwrap()).is_ok());
        let answered = b
            .recv_timeout(Duration::from_secs(30))
            .expect("B is answered while A's solve is still held");
        assert!(done(answered).is_ok());
        assert!(
            matches!(a.try_recv(), Err(mpsc::TryRecvError::Empty)),
            "A is still held"
        );
        release.send(()).unwrap();
        assert!(done(a.recv().unwrap()).is_ok());
        server.finish().unwrap();
    }

    #[test]
    fn a_twin_queued_behind_its_first_copy_is_a_cache_hit() {
        // The cache is the one deduplication layer: a twin dequeued after
        // its first copy was answered never reaches the engine.
        let solves = Arc::new(AtomicU64::new(0));
        let (solver, release) = held_solver(|r| r.seed() == 0, Counted(Arc::clone(&solves)));
        let server = Server::start_with_solver(config(1, 8), solver);
        let first = occupy_worker(&server);
        let copy = submit_job(&server, request(660_001), None).expect("admitted");
        let twin = submit_job(&server, request(660_001), None).expect("admitted");
        release.send(()).unwrap();
        assert!(done(first.recv().unwrap()).is_ok());
        let copy = done(copy.recv().unwrap()).expect("solved");
        assert!(!copy.served_from_cache);
        let twin = done(twin.recv().unwrap()).expect("served");
        assert!(twin.served_from_cache, "the twin is a cache hit");
        assert_eq!(twin.cost, copy.cost);
        // The occupying job and the first copy solved; the twin did not.
        assert_eq!(solves.load(Ordering::Relaxed), 2);
        server.finish().unwrap();
    }

    #[test]
    fn expired_jobs_are_shed_at_dequeue_and_never_dispatched() {
        // A gated solver that also counts every request it is handed:
        // the shed job must never show up in it.
        let dispatched = Arc::new(AtomicU64::new(0));
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let counter = Arc::clone(&dispatched);
        let solver: Solver = Box::new(move |request| {
            counter.fetch_add(1, Ordering::Relaxed);
            gate.lock().unwrap().recv().unwrap();
            Portfolio::new().run_cached(request)
        });
        let server = Server::start_with_solver(config(1, 8), solver);
        let first = occupy_worker(&server);
        // Queue a job whose deadline expires while the worker is still
        // busy: deterministic, because the worker cannot dequeue it
        // until the gate below is released — after the sleep.
        let doomed = submit_job(
            &server,
            request(1),
            Some(Instant::now() + Duration::from_millis(30)),
        )
        .expect("admitted");
        std::thread::sleep(Duration::from_millis(60));
        release.send(()).unwrap();
        let JobOutcome::Shed { waited } = doomed.recv().unwrap() else {
            panic!("the expired job must be shed, not solved");
        };
        assert!(waited >= Duration::from_millis(30), "{waited:?}");
        assert!(done(first.recv().unwrap()).is_ok());
        // The solver saw exactly the occupying job — the shed job was
        // never dispatched.
        assert_eq!(dispatched.load(Ordering::Relaxed), 1);
        let metrics = server.metrics_json(None);
        let requests = metrics.get("requests").unwrap();
        assert_eq!(
            requests.get("rejected_deadline").and_then(Json::as_u64),
            Some(1)
        );
        // Shed jobs stay out of the latency histogram and the miss
        // counter: they did no work. (Nothing here went through the
        // response renderer, so the histogram is empty.)
        assert_eq!(
            requests.get("deadline_misses").and_then(Json::as_u64),
            Some(0)
        );
        let latency = metrics.get("latency").unwrap();
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(0));
        // The rendered rejection is the structured protocol error.
        let line = server.render_map_outcome(
            Some(Json::num(7)),
            Instant::now(),
            None,
            JobOutcome::Shed { waited },
        );
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("code").and_then(Json::as_str),
            Some("deadline_expired")
        );
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(7));
        server.finish().unwrap();
    }

    #[test]
    fn warm_hit_latency_runs_from_line_receipt() {
        let server = Server::start(config(1, 8));
        let line = format!(
            "{{\"type\":\"map\",\"qasm\":{},\"device\":\"qx4\",\"seed\":41}}",
            Json::str(QASM)
        );
        // The first request solves and fills the cache; the second hits.
        let solved = Json::parse(server.handle_line(&line).response()).unwrap();
        assert_eq!(solved.get("type").and_then(Json::as_str), Some("result"));
        let Ok(Request::Map(job)) = proto::parse_request(&line) else {
            panic!("a map request");
        };
        let before = server.phase_warm_hit.sum_us.load(Ordering::Relaxed);
        let received = Instant::now() - Duration::from_millis(50);
        let Answer::Reply(response) = server.prepare_map(*job, received) else {
            panic!("the second request must be a warm hit");
        };
        assert!(
            response.contains("\"served_from_cache\":true"),
            "{response}"
        );
        let recorded = server.phase_warm_hit.sum_us.load(Ordering::Relaxed) - before;
        assert!(recorded >= 50_000, "warm hit recorded {recorded} µs");
        server.finish().unwrap();
    }

    #[test]
    fn handle_line_answers_map_metrics_and_shutdown() {
        let server = Server::start(config(2, 8));
        let result = server.handle_line(&map_line());
        let parsed = Json::parse(result.response()).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(
            parsed
                .get("cost")
                .and_then(|c| c.get("objective"))
                .and_then(Json::as_u64),
            Some(0),
            "cx q0,q1 sits on a QX4 edge"
        );

        let metrics = server.handle_line("{\"type\":\"metrics\",\"id\":1}");
        let parsed = Json::parse(metrics.response()).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("metrics"));
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(1));
        let requests = parsed.get("requests").unwrap();
        assert_eq!(requests.get("completed").and_then(Json::as_u64), Some(1));

        let bad = server.handle_line("{\"type\":\"map\"}");
        let parsed = Json::parse(bad.response()).unwrap();
        assert_eq!(
            parsed.get("code").and_then(Json::as_str),
            Some("bad_request")
        );

        let down = server.handle_line("{\"type\":\"shutdown\"}");
        assert!(matches!(down, Handled::ReplyAndShutdown(_)));
        server.begin_shutdown();
        server.finish().unwrap();
        assert!(server.is_shutting_down());
    }

    #[test]
    fn tcp_round_trip_overload_and_shutdown() {
        // End-to-end over a real socket, with the gated solver making
        // overload deterministic: depth 1, worker 1, so of three
        // *concurrent* map requests at most two are admitted.
        let (solver, release) = gated_solver();
        let server = Server::start_with_solver(config(1, 1), solver);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_tcp(listener).unwrap())
        };

        let request_on = |line: String| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                writeln!(writer, "{line}").unwrap();
                let mut reader = BufReader::new(stream);
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                Json::parse(&response).unwrap()
            })
        };

        // Three concurrent clients; the worker is gated, so at most one
        // job is in flight and one waiting — every other submission must
        // be rejected as overloaded. (How many are admitted — one or two
        // — depends on whether the gated worker dequeued the first job
        // before the later clients arrived; both splits are correct
        // load-shedding.) The seed makes the cache key unique to this
        // test: a pre-warmed solve cache would answer from the
        // skeleton-first probe and never exercise admission at all.
        let flood = format!(
            "{{\"type\":\"map\",\"qasm\":{},\"device\":\"qx4\",\"seed\":424242}}",
            Json::str(QASM)
        );
        let clients: Vec<_> = (0..3).map(|_| request_on(flood.clone())).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        let admitted = loop {
            let rejected = server.counters.rejected_overload.load(Ordering::Relaxed) as usize;
            let queued = {
                let q = server.queue.lock().unwrap();
                q.jobs.len() + q.in_flight
            };
            if rejected >= 1 && rejected + queued == 3 {
                break queued;
            }
            assert!(Instant::now() < deadline, "admission never saturated");
            std::thread::sleep(Duration::from_millis(2));
        };
        for _ in 0..admitted {
            release.send(()).unwrap();
        }
        let responses: Vec<Json> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let codes: Vec<&str> = responses
            .iter()
            .map(|r| r.get("type").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            codes.iter().filter(|&&t| t == "result").count(),
            admitted,
            "{codes:?}"
        );
        let overloaded = responses
            .iter()
            .find(|r| r.get("code").and_then(Json::as_str) == Some("overloaded"))
            .expect("one structured overload rejection");
        assert!(overloaded
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("queue is full"));

        // Shutdown over the wire: acknowledged, then the accept loop
        // exits and finish() drains.
        let down = request_on("{\"type\":\"shutdown\"}".to_string())
            .join()
            .unwrap();
        assert_eq!(down.get("type").and_then(Json::as_str), Some("ok"));
        acceptor.join().unwrap();
        server.finish().unwrap();
    }

    #[test]
    fn pipelined_connections_answer_out_of_order() {
        // One connection, two requests in flight: a gated map job
        // submitted first, then a metrics request. The metrics response
        // must come back *before* the map result — proof the connection
        // does not serialize on the slow job.
        let (solver, release) = gated_solver();
        let server = Server::start_with_solver(config(1, 8), solver);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_tcp(listener).unwrap())
        };
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let slow = format!(
            "{{\"type\":\"map\",\"qasm\":{},\"device\":\"qx4\",\"seed\":555777,\"id\":1}}",
            Json::str(QASM)
        );
        writeln!(writer, "{slow}").unwrap();
        writeln!(writer, "{{\"type\":\"metrics\",\"id\":2}}").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let overtaker = Json::parse(&line).unwrap();
        assert_eq!(
            overtaker.get("type").and_then(Json::as_str),
            Some("metrics"),
            "the fast response overtakes the gated one: {line}"
        );
        assert_eq!(overtaker.get("id").and_then(Json::as_u64), Some(2));
        release.send(()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let result = Json::parse(&line).unwrap();
        assert_eq!(result.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(result.get("id").and_then(Json::as_u64), Some(1));

        writeln!(writer, "{{\"type\":\"shutdown\"}}").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let down = Json::parse(&line).unwrap();
        assert_eq!(down.get("type").and_then(Json::as_str), Some("ok"));
        acceptor.join().unwrap();
        server.finish().unwrap();
    }

    #[test]
    fn journal_wiring_persists_and_replays_across_boots() {
        let dir = std::env::temp_dir().join(format!(
            "qxmap-serve-journal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.qxj");

        let journaled = ServerConfig {
            workers: 1,
            queue_depth: 8,
            journal: Some(path.clone()),
            ..ServerConfig::default()
        };
        // A missing file is a cold start.
        let server = Server::start(journaled.clone());
        let replay = server.warm_start().unwrap().expect("journal configured");
        assert_eq!(replay.admitted, 0, "fresh journal has nothing to replay");
        // A unique seed forces a real solve — and so a journal append.
        let unique = format!(
            "{{\"type\":\"map\",\"qasm\":{},\"device\":\"qx4\",\"seed\":31337}}",
            Json::str(QASM)
        );
        let handled = server.handle_line(&unique);
        assert!(
            handled.response().contains("\"result\""),
            "solve succeeded: {}",
            handled.response()
        );
        server.finish().unwrap();
        // The finished journal's counters stay readable, final
        // compaction included.
        let metrics = server.metrics_json(None);
        let journal = metrics.get("journal").expect("journal health");
        assert!(journal.get("appended").and_then(Json::as_u64).unwrap() >= 1);
        assert!(journal.get("compactions").and_then(Json::as_u64).unwrap() >= 1);
        let written = std::fs::metadata(&path).unwrap().len();
        assert!(
            written > 12,
            "the drained journal holds at least one record"
        );

        // A second boot replays the journal; every record is already
        // live in this process's shared cache, so none are admitted —
        // and none are rejected either (the file is intact).
        let second = Server::start(journaled.clone());
        let replay = second.warm_start().unwrap().expect("journal configured");
        assert_eq!(replay.rejected, 0);
        assert_eq!(replay.admitted, 0, "all records already live in-process");
        assert!(!replay.torn);
        assert!(!replay.reset);
        second.finish().unwrap();

        // Corruption is rejected record by record, not with a crash: a
        // flipped byte in the first record's payload costs that record
        // alone.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12 + 12 + 1] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let third = Server::start(journaled);
        let replay = third.warm_start().unwrap().expect("journal configured");
        assert_eq!(replay.rejected, 1);
        assert!(!replay.torn);
        third.finish().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Key paths of a JSON object, nested objects joined by `.`;
    /// arrays and scalars are leaves.
    fn key_paths(value: &Json, prefix: &str, out: &mut Vec<String>) {
        if let Json::Obj(pairs) = value {
            for (key, inner) in pairs {
                let path = format!("{prefix}{key}");
                match inner {
                    Json::Obj(p) if !p.is_empty() => key_paths(inner, &format!("{path}."), out),
                    _ => out.push(path),
                }
            }
        }
    }

    #[test]
    fn metrics_json_keeps_its_key_set() {
        let server = Server::start(ServerConfig {
            journal: Some(std::env::temp_dir().join("qxmap-serve-keys-never-attached.qxj")),
            ..config(1, 8)
        });
        let mut keys = Vec::new();
        key_paths(&server.metrics_json(None), "", &mut keys);
        let histogram = ["count", "p50_us", "p95_us", "p99_us", "buckets"];
        let mut expected: Vec<String> = [
            "type",
            "cache.hits",
            "cache.misses",
            "cache.evictions",
            "cache.entries",
            "cache.approx_bytes",
            "cache.capacity",
            "queue.depth",
            "queue.capacity",
            "queue.in_flight",
            "queue.workers",
            "queue.deadlined",
            "queue.slack_min_ms",
            "queue.slack_p50_ms",
            "queue.wait_total_us",
            "queue.wait_max_us",
            "requests.received",
            "requests.completed",
            "requests.errors",
            "requests.rejected_overload",
            "requests.rejected_deadline",
            "requests.rejected.parse",
            "requests.rejected.bad_request",
            "requests.rejected.overloaded",
            "requests.rejected.deadline_expired",
            "requests.rejected.shutting_down",
            "requests.rejected.internal",
            "requests.served_from_cache",
            "requests.deadline_misses",
            "requests.total_latency_us",
            "requests.max_latency_us",
            "engines",
            "uptime_us",
            "version",
            "journal.appended",
            "journal.compactions",
            "journal.write_errors",
            "journal.replay_admitted",
            "journal.replay_rejected",
            "journal.replay_torn",
        ]
        .iter()
        .map(|k| k.to_string())
        .collect();
        for prefix in [
            "latency",
            "phases.warm_hit",
            "phases.queue_wait",
            "phases.solve",
        ] {
            expected.extend(histogram.iter().map(|k| format!("{prefix}.{k}")));
        }
        keys.sort();
        expected.sort();
        assert_eq!(keys, expected);
        server.finish().unwrap();
    }

    #[test]
    fn a_panicking_solve_answers_internal_and_the_daemon_keeps_serving() {
        let solver: Solver = Box::new(|request| {
            assert!(request.seed() % 2 == 0, "an odd seed panics the solver");
            Portfolio::new().run_cached(request)
        });
        let server = Server::start_with_solver(config(1, 8), solver);
        let line = |seed: u64| {
            format!(
                "{{\"type\":\"map\",\"id\":{seed},\"qasm\":{},\"device\":\"qx4\",\"seed\":{seed}}}",
                Json::str(QASM)
            )
        };
        let reply = |seed: u64| Json::parse(server.handle_line(&line(seed)).response()).unwrap();
        let panicked = reply(770_001);
        assert_eq!(
            panicked.get("code").and_then(Json::as_str),
            Some("internal"),
            "{panicked}"
        );
        assert_eq!(panicked.get("id").and_then(Json::as_u64), Some(770_001));
        // The worker lives on and answers the next job.
        let healthy = reply(770_002);
        assert_eq!(
            healthy.get("type").and_then(Json::as_str),
            Some("result"),
            "{healthy}"
        );

        // Over TCP: the panicking job is answered and frees its
        // pipeline slot, and the connection keeps serving.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_tcp(listener).unwrap())
        };
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut read = || {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            Json::parse(&response).unwrap()
        };
        // This one is traced: its slowlog entry carries the timeline.
        let traced = line(770_003).replacen('{', "{\"trace\":true,", 1);
        writeln!(writer, "{traced}").unwrap();
        let panicked = read();
        assert_eq!(
            panicked.get("code").and_then(Json::as_str),
            Some("internal"),
            "{panicked}"
        );
        writeln!(writer, "{}", line(770_004)).unwrap();
        let healthy = read();
        assert_eq!(
            healthy.get("type").and_then(Json::as_str),
            Some("result"),
            "{healthy}"
        );

        let metrics = server.metrics_json(None);
        let requests = metrics.get("requests").unwrap();
        let rejected = requests.get("rejected").unwrap();
        assert_eq!(rejected.get("internal").and_then(Json::as_u64), Some(2));
        assert_eq!(requests.get("errors").and_then(Json::as_u64), Some(2));
        assert_eq!(requests.get("completed").and_then(Json::as_u64), Some(2));
        let queue = metrics.get("queue").unwrap();
        assert_eq!(queue.get("in_flight").and_then(Json::as_u64), Some(0));
        assert!(server
            .prometheus_text()
            .contains("qxmap_requests_rejected_total{reason=\"internal\"} 2"));

        // Both panics land in the slowlog, marked, the traced one with
        // its timeline up to the dispatch.
        let slowlog = Json::parse(server.handle_line("{\"type\":\"slowlog\"}").response()).unwrap();
        let entries = slowlog.get("entries").and_then(Json::as_array).unwrap();
        let panics: Vec<&Json> = entries
            .iter()
            .filter(|e| e.get("panicked") == Some(&Json::Bool(true)))
            .collect();
        let ids: Vec<u64> = panics
            .iter()
            .filter_map(|e| e.get("id").and_then(Json::as_u64))
            .collect();
        assert_eq!(ids.len(), 2, "{slowlog}");
        assert!(
            ids.contains(&770_001) && ids.contains(&770_003),
            "{slowlog}"
        );
        for entry in &panics {
            assert!(entry.get("latency_us").and_then(Json::as_u64).is_some());
            assert!(entry.get("engine").is_none(), "{entry}");
            let spans = entry
                .get("trace")
                .and_then(|t| t.get("spans"))
                .and_then(Json::as_array);
            let traced = entry.get("id").and_then(Json::as_u64) == Some(770_003);
            assert_eq!(spans.is_some(), traced, "{entry}");
            if let Some(spans) = spans {
                assert!(
                    spans
                        .iter()
                        .any(|s| s.get("path").and_then(Json::as_str) == Some("queue")),
                    "{entry}"
                );
            }
        }

        // A poisoned lock is recovered, not re-panicked on.
        let poisoner = std::thread::spawn({
            let server = Arc::clone(&server);
            move || {
                let _held = server.engine_stats.lock().unwrap();
                panic!("poisons the engine tally");
            }
        });
        assert!(poisoner.join().is_err());
        assert!(server.engine_stats.is_poisoned());
        assert!(server.metrics_json(None).get("engines").is_some());

        writeln!(writer, "{{\"type\":\"shutdown\"}}").unwrap();
        assert_eq!(read().get("type").and_then(Json::as_str), Some("ok"));
        acceptor.join().unwrap();
        server.finish().unwrap();
    }

    #[test]
    fn prom_escape_covers_label_specials() {
        assert_eq!(prom_escape("plain"), "plain");
        assert_eq!(prom_escape("back\\slash"), "back\\\\slash");
        assert_eq!(prom_escape("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(prom_escape("two\nlines"), "two\\nlines");

        let mut out = String::new();
        prom_sample(&mut out, "m", &[("l", "a\"b\\c\nd")], "1".to_string());
        assert_eq!(out, "m{l=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn empty_histogram_renders_all_zero_buckets() {
        let mut out = String::new();
        prom_histogram(
            &mut out,
            "t_seconds",
            "help text",
            &LatencyHistogram::default(),
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "# HELP t_seconds help text");
        assert_eq!(lines[1], "# TYPE t_seconds histogram");
        let buckets: Vec<&str> = lines
            .iter()
            .filter(|l| l.starts_with("t_seconds_bucket"))
            .copied()
            .collect();
        // Every finite bound plus +Inf, all zero.
        assert_eq!(buckets.len(), LATENCY_BUCKETS + 1);
        for bucket in &buckets {
            assert!(bucket.ends_with("} 0"), "{bucket}");
        }
        assert_eq!(
            buckets[buckets.len() - 1],
            "t_seconds_bucket{le=\"+Inf\"} 0"
        );
        assert_eq!(lines[lines.len() - 2], "t_seconds_sum 0");
        assert_eq!(lines[lines.len() - 1], "t_seconds_count 0");

        // One observation lands in every cumulative bucket at or above
        // its bound, and feeds the sum.
        let hist = LatencyHistogram::default();
        hist.record(1_500); // 1.5ms
        let mut out = String::new();
        prom_histogram(&mut out, "t_seconds", "help text", &hist);
        assert!(out.contains("t_seconds_bucket{le=\"+Inf\"} 1"), "{out}");
        assert!(out.contains("t_seconds_count 1"), "{out}");
        assert!(out.contains("t_seconds_sum 0.0015"), "{out}");
    }
}

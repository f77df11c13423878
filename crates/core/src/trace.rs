//! Zero-dependency solve tracing: named, nestable phase spans with
//! attachable counters, recorded against one monotonic origin.
//!
//! The substrate is two types. A [`SpanRecorder`] is handed down through
//! the request lifecycle (ingest → queue → race → encode/minimize →
//! stitch) and collects closed spans; a [`SolveTrace`] is the immutable
//! snapshot it yields, ready to serialize into a wire response or a
//! slow-request log. Nesting is by path convention: a span named
//! `"race/exact/encode"` is a child of `"race/exact"`, which is a child
//! of the top-level `"race"` phase. Concurrent racers record into the
//! same recorder from their own threads; sibling spans from *sequential*
//! phases never overlap, while race-pool siblings legitimately do.
//!
//! The recorder is built for a hot path that almost never traces: a
//! disabled recorder ([`SpanRecorder::disabled`], also [`Default`]) holds
//! no allocation at all, and every recording call on it is a single
//! `Option` check — no clock read, no lock, no formatting. Callers can
//! therefore thread a recorder unconditionally and let the wire-level
//! `"trace": true` knob decide whether anything is paid.
//!
//! ```
//! use qxmap_core::trace::SpanRecorder;
//!
//! let recorder = SpanRecorder::new();
//! {
//!     let mut span = recorder.span("ingest");
//!     span.counter("gates", 12);
//! } // closed on drop
//! let trace = recorder.finish().expect("enabled recorders snapshot");
//! assert_eq!(trace.spans[0].path, "ingest");
//! assert_eq!(trace.spans[0].counters, vec![("gates".to_string(), 12)]);
//!
//! // The disabled recorder accepts the same calls for free.
//! let off = SpanRecorder::disabled();
//! off.span("ingest");
//! assert!(off.finish().is_none());
//! ```

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One closed phase of a [`SolveTrace`]: a `/`-separated path naming the
/// phase and its ancestry, offsets from the trace origin in microseconds,
/// and any counters attached while the span was open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// `/`-separated phase path, e.g. `"race/exact/minimize"`. The
    /// prefix before the last `/` names the parent phase.
    pub path: String,
    /// Start offset from the trace origin, in microseconds.
    pub start_us: u64,
    /// Span duration in microseconds. Zero-duration spans are events
    /// (bound updates, cache hits) rather than phases.
    pub duration_us: u64,
    /// Counters attached to the span, in attachment order.
    pub counters: Vec<(String, u64)>,
}

impl TraceSpan {
    /// Nesting depth: `"ingest"` is 0, `"race/exact"` is 1, …
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// The parent phase's path, or `None` for a top-level span.
    pub fn parent(&self) -> Option<&str> {
        self.path.rsplit_once('/').map(|(parent, _)| parent)
    }

    /// The span's own name, without its ancestry.
    pub fn name(&self) -> &str {
        self.path.rsplit_once('/').map_or(&self.path, |(_, n)| n)
    }

    /// End offset from the trace origin, in microseconds.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.duration_us)
    }
}

/// An immutable snapshot of a request's recorded phases: the timeline a
/// `"trace": true` request gets back on the wire, and what the serving
/// tier's slow-request log stores.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SolveTrace {
    /// Wall-clock time from the trace origin to the snapshot, in
    /// microseconds. Every span ends at or before this.
    pub elapsed_us: u64,
    /// Closed spans, ordered by start offset (ties by path).
    pub spans: Vec<TraceSpan>,
}

impl SolveTrace {
    /// The spans directly under `parent` (`None` for top-level spans),
    /// in timeline order.
    pub fn children(&self, parent: Option<&str>) -> Vec<&TraceSpan> {
        self.spans.iter().filter(|s| s.parent() == parent).collect()
    }

    /// Sum of the top-level phase durations, in microseconds. For a
    /// sequential pipeline this is at most [`SolveTrace::elapsed_us`].
    pub fn top_level_total_us(&self) -> u64 {
        self.children(None).iter().map(|s| s.duration_us).sum()
    }
}

struct Inner {
    origin: Instant,
    spans: Mutex<Vec<TraceSpan>>,
}

/// Collects [`TraceSpan`]s for one request against a monotonic origin.
///
/// Cloning shares the underlying trace: the portfolio's racer threads,
/// the windowed engine's block workers and the serving tier all record
/// into the same timeline through their own clones. A recorder is either
/// *enabled* (created by [`SpanRecorder::new`] /
/// [`SpanRecorder::with_origin`]) or *disabled*
/// ([`SpanRecorder::disabled`], the [`Default`]); on a disabled recorder
/// every method is a no-op behind one pointer-sized `Option` check, so
/// threading a recorder through a hot path costs nothing measurable when
/// tracing is off.
#[derive(Clone, Default)]
pub struct SpanRecorder {
    inner: Option<Arc<Inner>>,
    prefix: Option<Arc<str>>,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl SpanRecorder {
    /// An enabled recorder whose origin is now.
    pub fn new() -> SpanRecorder {
        SpanRecorder::with_origin(Instant::now())
    }

    /// An enabled recorder measuring offsets from `origin` — used when
    /// the timeline began before the recorder existed (the serving tier
    /// stamps a request's receipt instant first, then decides whether to
    /// trace). Spans starting before `origin` clamp to offset 0.
    pub fn with_origin(origin: Instant) -> SpanRecorder {
        SpanRecorder {
            inner: Some(Arc::new(Inner {
                origin,
                spans: Mutex::new(Vec::new()),
            })),
            prefix: None,
        }
    }

    /// The disabled recorder: no allocation, and every recording call is
    /// a no-op `Option` check.
    pub fn disabled() -> SpanRecorder {
        SpanRecorder {
            inner: None,
            prefix: None,
        }
    }

    /// A recorder sharing this one's timeline but prefixing every path
    /// with `prefix/` — how a caller nests a whole subsystem's spans
    /// under its own phase (the serving tier scopes the engine's race
    /// spans under `solve/`) without the subsystem knowing its ancestry.
    /// Scoping a disabled recorder stays disabled and free.
    pub fn scoped(&self, prefix: &str) -> SpanRecorder {
        if self.inner.is_none() {
            return SpanRecorder::disabled();
        }
        SpanRecorder {
            inner: self.inner.clone(),
            prefix: Some(match &self.prefix {
                Some(outer) => format!("{outer}/{prefix}").into(),
                None => prefix.into(),
            }),
        }
    }

    fn full_path(&self, path: &str) -> String {
        match &self.prefix {
            Some(prefix) => format!("{prefix}/{path}"),
            None => path.to_string(),
        }
    }

    /// Whether this recorder collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace origin, if enabled.
    pub fn origin(&self) -> Option<Instant> {
        self.inner.as_deref().map(|i| i.origin)
    }

    /// Opens a span at `path` starting now; it closes (and records) when
    /// the returned guard drops, or explicitly via [`Span::end`]. On a
    /// disabled recorder this neither allocates nor reads the clock.
    pub fn span(&self, path: &str) -> Span {
        Span {
            inner: self.inner.as_ref().map(|inner| SpanState {
                recorder: Arc::clone(inner),
                path: self.full_path(path),
                start: Instant::now(),
                excluded: Duration::ZERO,
                counters: Vec::new(),
            }),
        }
    }

    /// Records an already-measured span: `start` and `duration` were
    /// observed by the caller (e.g. an ingest phase timed before the
    /// recorder was constructed).
    pub fn record(&self, path: &str, start: Instant, duration: Duration) {
        self.record_with(path, start, duration, &[]);
    }

    /// [`SpanRecorder::record`] with counters attached.
    pub fn record_with(
        &self,
        path: &str,
        start: Instant,
        duration: Duration,
        counters: &[(&str, u64)],
    ) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let start_us = micros(start.saturating_duration_since(inner.origin));
        inner.push(TraceSpan {
            path: self.full_path(path),
            start_us,
            duration_us: micros(duration),
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Records a zero-duration event at `path`, now, carrying `value`
    /// under the counter name `name` — bound tightenings, cache hits,
    /// cancellations.
    pub fn event(&self, path: &str, name: &str, value: u64) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let now = Instant::now();
        let start_us = micros(now.saturating_duration_since(inner.origin));
        inner.push(TraceSpan {
            path: self.full_path(path),
            start_us,
            duration_us: 0,
            counters: vec![(name.to_string(), value)],
        });
    }

    /// Snapshots the timeline recorded so far (spans sorted by start
    /// offset, ties by path), or `None` on a disabled recorder. The
    /// recorder stays usable; later snapshots see later spans.
    pub fn finish(&self) -> Option<SolveTrace> {
        let inner = self.inner.as_deref()?;
        let elapsed_us = micros(inner.origin.elapsed());
        let mut spans = inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by(|a, b| {
            a.start_us
                .cmp(&b.start_us)
                .then_with(|| a.path.cmp(&b.path))
        });
        Some(SolveTrace { elapsed_us, spans })
    }
}

impl Inner {
    fn push(&self, span: TraceSpan) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

struct SpanState {
    recorder: Arc<Inner>,
    path: String,
    start: Instant,
    /// Time inside the span left out of its duration.
    excluded: Duration,
    counters: Vec<(String, u64)>,
}

/// An open span from [`SpanRecorder::span`]; records itself when dropped
/// or explicitly ended. On a disabled recorder the guard is inert.
#[must_use = "a span records when it drops; binding it to _ closes it immediately"]
pub struct Span {
    inner: Option<SpanState>,
}

impl Span {
    /// Attaches (or, on repeats, appends) a counter to the span.
    pub fn counter(&mut self, name: &str, value: u64) {
        if let Some(state) = self.inner.as_mut() {
            state.counters.push((name.to_string(), value));
        }
    }

    /// Leaves `waited` out of the span's duration and adds it, in
    /// microseconds, to the counter `name` — for a phase that blocks on
    /// work another span already times, so its duration is its own work.
    pub fn exclude(&mut self, name: &str, waited: Duration) {
        if let Some(state) = self.inner.as_mut() {
            state.excluded += waited;
            match state.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => *total += micros(waited),
                None => state.counters.push((name.to_string(), micros(waited))),
            }
        }
    }

    /// Opens a child span under this one, starting now.
    pub fn child(&self, name: &str) -> Span {
        Span {
            inner: self.inner.as_ref().map(|state| SpanState {
                recorder: Arc::clone(&state.recorder),
                path: format!("{}/{}", state.path, name),
                start: Instant::now(),
                excluded: Duration::ZERO,
                counters: Vec::new(),
            }),
        }
    }

    /// The span's full path, if recording.
    pub fn path(&self) -> Option<&str> {
        self.inner.as_ref().map(|s| s.path.as_str())
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.inner.take() else {
            return;
        };
        let duration = state.start.elapsed().saturating_sub(state.excluded);
        let start_us = micros(state.start.saturating_duration_since(state.recorder.origin));
        state.recorder.push(TraceSpan {
            path: state.path,
            start_us,
            duration_us: micros(duration),
            counters: state.counters,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_path_and_sort_by_start() {
        let rec = SpanRecorder::new();
        {
            let outer = rec.span("race");
            {
                let mut inner = outer.child("exact");
                inner.counter("conflicts", 41);
            }
            outer.child("sabre").end();
        }
        rec.event("race", "bound", 7);
        let trace = rec.finish().unwrap();
        let mut paths: Vec<&str> = trace.spans.iter().map(|s| s.path.as_str()).collect();
        paths.sort();
        assert_eq!(paths, vec!["race", "race", "race/exact", "race/sabre"]);
        let exact = trace.spans.iter().find(|s| s.path == "race/exact").unwrap();
        assert_eq!(exact.parent(), Some("race"));
        assert_eq!(exact.name(), "exact");
        assert_eq!(exact.depth(), 1);
        assert_eq!(exact.counters, vec![("conflicts".to_string(), 41)]);
        // The race span closed after its children, so it dominates them.
        let race = trace
            .spans
            .iter()
            .find(|s| s.path == "race" && s.duration_us >= exact.duration_us)
            .unwrap();
        assert!(race.end_us() >= exact.end_us());
        assert!(trace.elapsed_us >= race.end_us());
        assert_eq!(trace.children(Some("race")).len(), 2);
    }

    #[test]
    fn explicit_record_clamps_pre_origin_starts() {
        let early = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let rec = SpanRecorder::with_origin(Instant::now());
        rec.record("ingest", early, Duration::from_micros(250));
        let trace = rec.finish().unwrap();
        assert_eq!(trace.spans[0].start_us, 0);
        assert_eq!(trace.spans[0].duration_us, 250);
    }

    #[test]
    fn clones_share_one_timeline_across_threads() {
        let rec = SpanRecorder::new();
        std::thread::scope(|scope| {
            for name in ["a", "b", "c"] {
                let rec = rec.clone();
                scope.spawn(move || {
                    let mut span = rec.span(name);
                    span.counter("n", 1);
                });
            }
        });
        let trace = rec.finish().unwrap();
        assert_eq!(trace.spans.len(), 3);
    }

    #[test]
    fn scoped_recorders_prefix_into_the_shared_timeline() {
        let rec = SpanRecorder::new();
        let solve = rec.scoped("solve");
        let race = solve.scoped("race");
        solve.span("race").end();
        race.event("bound", "objective", 9);
        race.record("exact", Instant::now(), Duration::from_micros(5));
        let trace = rec.finish().unwrap();
        let mut paths: Vec<&str> = trace.spans.iter().map(|s| s.path.as_str()).collect();
        paths.sort();
        assert_eq!(
            paths,
            vec!["solve/race", "solve/race/bound", "solve/race/exact"]
        );
        assert!(SpanRecorder::disabled().scoped("solve").finish().is_none());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        let mut span = rec.span("race");
        span.counter("x", 1);
        let child = span.child("exact");
        assert_eq!(child.path(), None);
        drop(child);
        drop(span);
        rec.event("race", "bound", 3);
        rec.record("ingest", Instant::now(), Duration::from_secs(1));
        assert!(rec.finish().is_none());
    }

    #[test]
    fn top_level_totals_sum_only_roots() {
        let rec = SpanRecorder::new();
        rec.record("ingest", rec.origin().unwrap(), Duration::from_micros(100));
        rec.record_with(
            "solve",
            rec.origin().unwrap() + Duration::from_micros(100),
            Duration::from_micros(300),
            &[("conflicts", 9)],
        );
        rec.record(
            "solve/encode",
            rec.origin().unwrap() + Duration::from_micros(100),
            Duration::from_micros(40),
        );
        let trace = rec.finish().unwrap();
        assert_eq!(trace.top_level_total_us(), 400);
    }
}

//! `qxbench`: a wire-level benchmark of the `qxmap-serve` daemon.
//!
//! ```text
//! qxbench --workload exact_cold|large_device|warm_hits --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run boots fresh daemons, drives one seeded workload over
//! loopback as a closed loop, checks every answer with an independent
//! oracle and prints, as its last stdout line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of an
//! in-process traced replay (`--trace 1`). See `qxbench/README.md`.

mod gen;
mod oracle;
mod traced;
mod wire;

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qxmap_map::{Engine, HeuristicEngine, MapRequest};
use qxmap_serve::Json;

use gen::{Req, Workload};
use oracle::Answer;
use wire::{raw_field, Daemon};

/// The default seed, and one held out for rechecking a claim made on it.
const DEFAULT_SEED: u64 = 1;
const HELDOUT_SEED: u64 = 9001;
/// Daemons booted per run; `setup_s` is the median boot. The boots are
/// spaced out, so the median spans about a second of the host's state
/// rather than one moment of it.
const BOOTS: usize = 25;
const BOOT_GAP: Duration = Duration::from_millis(30);
/// Where runs keep their journals and traced spans (under the checkout).
const OUT_DIR: &str = "qxbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !gen::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", gen::WORKLOADS));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qxbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qxbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one answered request came to.
#[derive(Clone)]
struct Outcome {
    item: usize,
    latency_us: f64,
    /// Inside the timed window: the connection's complete slots.
    timed: bool,
    verdict: Result<Checked, String>,
}

#[derive(Clone)]
struct Checked {
    added: u64,
    proved: bool,
    cached: bool,
}

/// Everything the wire phase of a run measured.
struct WirePhase {
    setup_s: f64,
    boots_s: Vec<f64>,
    outcomes: Vec<Outcome>,
    wall_s: f64,
    cpu_ms: f64,
    before: Json,
    after: Json,
    journal_bytes: u64,
    peak_rss_mb: f64,
    /// The timed phase's request lines, in order, kept for the traced
    /// replay.
    lines: Vec<(u64, String)>,
}

fn run(args: &Args) -> Result<(), String> {
    let workload = gen::workload(&args.workload, args.seed).expect("validated");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let daemon = exe.with_file_name("qxmap-serve");
    if !daemon.exists() {
        return Err(format!("daemon binary missing next to {}", exe.display()));
    }
    let out = PathBuf::from(OUT_DIR).join(format!("{}-{}", std::process::id(), workload.name));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let result = measure(args, &workload, &daemon, &out);
    let _ = std::fs::remove_dir_all(&out);
    result
}

fn measure(args: &Args, workload: &Workload, exe: &Path, out: &Path) -> Result<(), String> {
    let (seconds, replay_seconds) = if args.trace {
        (args.seconds / 2.0, args.seconds / 2.0)
    } else {
        (args.seconds, 0.0)
    };
    let wire = wire_phase(workload, exe, out, seconds, args.trace)?;
    let sabre = sabre_reference(workload, &wire.outcomes);
    let mut failures: Vec<String> = Vec::new();
    // Quality and latency figures cover the timed window; every answer,
    // inside it or not, is checked.
    let mut accepted: Vec<&Checked> = Vec::new();
    let (mut added, mut sabre_added) = (0u64, 0u64);
    let timed: Vec<&Outcome> = wire.outcomes.iter().filter(|o| o.timed).collect();
    for o in &wire.outcomes {
        let checked = match &o.verdict {
            Ok(c) => c,
            Err(e) => {
                failures.push(format!("item {}: {e}", o.item));
                continue;
            }
        };
        // Regime guards. (Repeats on large devices may be served from the
        // cache: that is the reuse the workload exists to measure.)
        let guard = if checked.cached && workload.fresh_seeds {
            Some("a cold request came back served_from_cache")
        } else if !checked.cached && workload.primed {
            Some("a timed warm request was not served_from_cache")
        } else if checked.proved && checked.added > sabre[&o.item] {
            Some("a proved_optimal answer costs more than SABRE's")
        } else {
            None
        };
        if let Some(guard) = guard {
            failures.push(format!("item {}: {guard}", o.item));
            continue;
        }
        if o.timed {
            added += checked.added;
            sabre_added += sabre[&o.item];
            accepted.push(checked);
        }
    }
    let attempted = wire.outcomes.len().max(1);
    let mut latencies: Vec<f64> = timed.iter().map(|o| o.latency_us / 1e3).collect();
    latencies.sort_by(f64::total_cmp);
    let tail = percentile(&latencies, workload.tail_pct);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut context = vec![
        ("workload", Json::str(workload.name)),
        ("seed", Json::num(workload.seed)),
        ("default_seed", Json::num(DEFAULT_SEED)),
        ("heldout_seed", Json::num(HELDOUT_SEED)),
        (
            "nproc",
            Json::num(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu_model", Json::str(cpu_model())),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", Json::str(source_fingerprint())),
        ("requests", Json::num(wire.outcomes.len() as u64)),
        ("timed_requests", Json::num(timed.len() as u64)),
        ("distinct_circuits", Json::num(workload.items.len() as u64)),
        ("connections", Json::num(workload.connections as u64)),
        ("deadline_ms", Json::num(workload.deadline_ms)),
        ("latency_tail_percentile", Json::Num(workload.tail_pct)),
        (
            "latency_tail_samples_beyond",
            Json::num(latencies.iter().filter(|&&l| l > tail).count() as u64),
        ),
        (
            "boots_s",
            Json::Arr(wire.boots_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("peak_rss_mb", Json::Num(wire.peak_rss_mb)),
        ("daemon_metrics", wire.after.clone()),
    ];
    if args.trace {
        let per_layer = traced_phase(workload, &wire, replay_seconds, &mut context)?;
        metrics.extend(per_layer);
    } else {
        let n = timed.len().max(1) as f64;
        let ok = accepted.len() as f64;
        metrics.extend([
            ("throughput_rps".to_string(), n / wire.wall_s, "1/s"),
            (
                "latency_p50_ms".to_string(),
                percentile(&latencies, 50.0),
                "ms",
            ),
            ("latency_tail_ms".to_string(), tail, "ms"),
            (
                "cpu_ms_per_request".to_string(),
                wire.cpu_ms / wire.outcomes.len().max(1) as f64,
                "ms",
            ),
            (
                "added_gates_mean".to_string(),
                added as f64 / ok.max(1.0),
                "gates",
            ),
            (
                "added_vs_sabre".to_string(),
                added as f64 / (sabre_added as f64).max(1.0),
                "ratio",
            ),
            (
                "proved_share".to_string(),
                accepted.iter().filter(|c| c.proved).count() as f64 / n,
                "share",
            ),
            ("correct_share".to_string(), ok / n, "share"),
            ("setup_s".to_string(), wire.setup_s, "s"),
        ]);
    }
    for f in failures.iter().take(10) {
        eprintln!("qxbench: FAILED {f}");
    }
    if failures.len() > 10 {
        eprintln!("qxbench: … and {} more failures", failures.len() - 10);
    }
    println!(
        "{}",
        Json::obj([(
            "context",
            Json::Obj(
                context
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            )
        )])
    );
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    let result = Json::obj([
        (
            "correct",
            Json::Bool(failures.is_empty() && !wire.outcomes.is_empty()),
        ),
        ("attempted", Json::num(attempted as u64)),
        ("failed", Json::num(failures.len() as u64)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    Ok(())
}

/// Boots the daemons, primes a warm pool, and runs the timed closed loop.
fn wire_phase(
    workload: &Workload,
    exe: &Path,
    out: &Path,
    seconds: f64,
    keep_lines: bool,
) -> Result<WirePhase, String> {
    let mut boots = Vec::new();
    let mut daemon = None;
    for k in 0..BOOTS {
        let journal = out.join(format!("journal-{k}.bin"));
        let _ = std::fs::remove_file(&journal);
        let (d, took) =
            Daemon::spawn(exe, journal).map_err(|e| format!("spawning the daemon: {e}"))?;
        boots.push(took.as_secs_f64());
        if let Some(previous) = daemon.replace(d) {
            Daemon::stop(previous);
        }
        if k + 1 < BOOTS {
            std::thread::sleep(BOOT_GAP);
        }
    }
    let daemon = daemon.expect("booted");
    let mut setup_s = median(&boots);
    let fresh = daemon.metrics().map_err(|e| format!("metrics: {e}"))?;
    let count = |m: &Json, path: &[&str]| {
        path.iter()
            .try_fold(m, |v, k| v.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    if count(&fresh, &["requests", "received"]) != 0
        || count(&fresh, &["cache", "entries"]) != 0
        || count(&fresh, &["journal", "replay_admitted"]) != 0
    {
        return Err(
            "the daemon was not freshly spawned: it holds state before the first request"
                .to_string(),
        );
    }

    // Warm pools are answered once (over every connection), checked by the
    // oracle, and kept as the reference every timed reply must repeat.
    let pool_lines = workload.pool_lines();
    let mut primed: Vec<Option<(Result<Checked, String>, String)>> =
        vec![None; workload.items.len()];
    if workload.primed {
        let start = Instant::now();
        let replies = prime(&daemon, &pool_lines, workload.connections)?;
        setup_s += start.elapsed().as_secs_f64();
        for (i, reply) in replies.into_iter().enumerate() {
            let verdict = check_reply(workload, i, &reply);
            primed[i] = Some((verdict, fingerprint(&reply)));
        }
    }
    let primed = Arc::new(primed);
    let line_of = |req: &Req| -> Cow<'_, str> {
        if workload.primed {
            Cow::Borrowed(&pool_lines[req.item])
        } else {
            Cow::Owned(workload.line(req))
        }
    };

    let before = daemon.metrics().map_err(|e| format!("metrics: {e}"))?;
    let cpu0 = daemon.cpu_ms().map_err(|e| format!("cpu: {e}"))?;
    let journal0 = daemon.journal_bytes();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    type Reply = (Req, f64, Result<String, String>);
    // Each connection's replies, and where its last complete slot ended.
    type Sent = (Vec<Reply>, usize, Instant);
    let per_conn: Vec<Result<Sent, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.connections)
            .map(|c| {
                let primed = Arc::clone(&primed);
                let daemon = &daemon;
                let line_of = &line_of;
                scope.spawn(move || -> Result<Sent, String> {
                    let mut conn = daemon.connect().map_err(|e| format!("connect: {e}"))?;
                    let mut replies = Vec::new();
                    let mut last = Instant::now();
                    let mut cut = None;
                    for req in workload.schedule(c) {
                        if Instant::now() >= stop {
                            break;
                        }
                        let line = line_of(&req);
                        let sent = Instant::now();
                        let reply = conn
                            .send(&line)
                            .and_then(|()| conn.recv().map(str::to_string));
                        last = Instant::now();
                        let latency = (last - sent).as_secs_f64() * 1e6;
                        let reply = match reply {
                            // Warm replies are checked against the primed
                            // reference right away and not kept.
                            Ok(text) if workload.primed => {
                                Ok(warm_verdict(&primed, req.item, &text))
                            }
                            Ok(text) => Ok(text),
                            Err(e) => Err(e.to_string()),
                        };
                        let failed = reply.is_err();
                        let slot_end = req.slot_end;
                        replies.push((req, latency, reply));
                        if failed {
                            break;
                        }
                        if slot_end {
                            cut = Some((replies.len(), last));
                        }
                    }
                    let (cut, at) = cut.unwrap_or((replies.len(), last));
                    Ok((replies, cut, at))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut end = start;
    let mut outcomes = Vec::new();
    let mut lines = Vec::new();
    for result in per_conn {
        let (replies, cut, at) = result?;
        end = end.max(at);
        for (i, (req, latency_us, reply)) in replies.into_iter().enumerate() {
            let verdict = match reply {
                Err(e) => Err(format!("transport: {e}")),
                Ok(text) if workload.primed => match &primed[req.item] {
                    Some((Ok(c), _)) if text == "ok" => Ok(Checked {
                        cached: true,
                        ..c.clone()
                    }),
                    Some((Ok(_), _)) => Err(text),
                    Some((Err(e), _)) => Err(format!("primed answer rejected: {e}")),
                    None => Err("unprimed".to_string()),
                },
                Ok(text) => check_reply(workload, req.item, &text),
            };
            if keep_lines && lines.len() < 4096 {
                lines.push((req.id, line_of(&req).into_owned()));
            }
            outcomes.push(Outcome {
                item: req.item,
                latency_us,
                timed: i < cut,
                verdict,
            });
        }
    }
    let wall_s = (end - start).as_secs_f64().max(1e-9);
    let cpu_ms = daemon.cpu_ms().map_err(|e| format!("cpu: {e}"))? - cpu0;
    let after = daemon.metrics().map_err(|e| format!("metrics: {e}"))?;
    let journal_bytes = daemon.journal_bytes().saturating_sub(journal0);
    let peak_rss_mb = daemon.peak_rss_mb();
    daemon.stop();
    Ok(WirePhase {
        setup_s,
        boots_s: boots,
        outcomes,
        wall_s,
        cpu_ms,
        before,
        after,
        journal_bytes,
        peak_rss_mb,
        lines,
    })
}

/// Answers every pool line once, dealing the pool over `connections`
/// concurrent connections in turn (so each gets a like share of the
/// small and the large circuits); replies come back in pool order.
fn prime(daemon: &Daemon, lines: &[String], connections: usize) -> Result<Vec<String>, String> {
    let n = connections.max(1);
    let parts: Vec<Result<Vec<String>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = daemon.connect().map_err(|e| e.to_string())?;
                    lines
                        .iter()
                        .skip(c)
                        .step_by(n)
                        .map(|l| conn.call(l).map_err(|e| e.to_string()))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let parts = parts.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((0..lines.len())
        .map(|i| parts[i % n][i / n].clone())
        .collect())
}

/// The parts of a reply that make up the answer itself.
fn fingerprint(reply: &str) -> String {
    ["cost", "initial_layout", "final_layout", "mapped_qasm"]
        .iter()
        .map(|k| raw_field(reply, k).unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\u{1}")
}

/// A timed warm reply must be a cache hit repeating the primed answer:
/// "ok", or what differs.
fn warm_verdict(
    primed: &[Option<(Result<Checked, String>, String)>],
    item: usize,
    reply: &str,
) -> String {
    if raw_field(reply, "type") != Some("\"result\"") {
        return format!(
            "not a result: {}",
            reply.chars().take(200).collect::<String>()
        );
    }
    if raw_field(reply, "served_from_cache") != Some("true") {
        return "a timed warm request was not served_from_cache".to_string();
    }
    match &primed[item] {
        Some((_, reference)) if *reference == fingerprint(reply) => "ok".to_string(),
        _ => "the cached answer differs from the primed one".to_string(),
    }
}

fn check_reply(workload: &Workload, item: usize, reply: &str) -> Result<Checked, String> {
    let json = Json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    let answer = Answer::from_response(&json)?;
    let it = &workload.items[item];
    let added = oracle::check(&it.circuit, it.device, &answer)?;
    Ok(Checked {
        added,
        proved: answer.proved_optimal,
        cached: answer.served_from_cache,
    })
}

/// SABRE's added gates on every item the run answered, computed
/// in-process after the timed phase (SABRE does not read the request
/// seed, so one run per item serves every request of it).
fn sabre_reference(workload: &Workload, outcomes: &[Outcome]) -> HashMap<usize, u64> {
    let mut reference = HashMap::new();
    for o in outcomes {
        reference.entry(o.item).or_insert_with(|| {
            let it = &workload.items[o.item];
            let cm = qxmap_arch::devices::by_name(it.device).expect("library device");
            HeuristicEngine::sabre()
                .run(&MapRequest::new(it.circuit.clone(), cm))
                .expect("SABRE maps every generated circuit")
                .cost
                .added_gates
        });
    }
    reference
}

/// Replays the wire phase's requests in-process with spans, for at most
/// `seconds`, and builds the per-layer metrics.
fn traced_phase(
    workload: &Workload,
    wire: &WirePhase,
    seconds: f64,
    context: &mut Vec<(&'static str, Json)>,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut tally = traced::Tally::default();
    let mut spans = traced::Spans::new();
    traced::model_builds(workload, &mut tally);
    if workload.primed {
        traced::prime(workload, &workload.pool_lines());
    }
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    for (id, line) in &wire.lines {
        if Instant::now() >= stop && tally.requests > 0 {
            break;
        }
        traced::replay(line, *id, &mut spans, &mut tally)?;
    }
    let trace_file =
        PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.json", workload.name, workload.seed));
    spans
        .write(&trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    // Layer self times over the request spans.
    let own = spans.self_us();
    let in_request: Vec<bool> = (0..spans.spans.len())
        .map(|mut i| {
            while let Some(p) = spans.spans[i].parent {
                i = p;
            }
            spans.spans[i].name == "request"
        })
        .collect();
    let mut layers: BTreeMap<&str, f64> = [
        "serve",
        "qasm",
        "circuit",
        "map",
        "core",
        "sat",
        "heuristic",
        "window",
        "arch",
    ]
    .into_iter()
    .map(|l| (l, 0.0))
    .collect();
    let mut unattributed = 0.0;
    for (i, s) in spans.spans.iter().enumerate() {
        if !in_request[i] {
            continue;
        }
        if s.name == "request" {
            unattributed += own[i];
        } else {
            *layers.entry(traced::layer(s.name)).or_default() += own[i];
        }
    }
    let n = tally.requests.max(1) as f64;
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let rate = |bytes: f64, secs: f64| if secs > 0.0 { bytes / secs / 1e6 } else { 0.0 };
    let share = |k: usize, of: usize| if of == 0 { 0.0 } else { k as f64 / of as f64 };

    // Wire-side numbers: the replayed requests' wire latency, queue wait
    // and journal growth over the timed phase.
    let replayed = tally.inproc_us.len();
    let mut wire_minus: Vec<f64> = wire
        .outcomes
        .iter()
        .zip(&tally.inproc_us)
        .map(|(o, inproc)| o.latency_us - inproc)
        .collect();
    wire_minus.sort_by(f64::total_cmp);
    let delta = |path: &[&str]| {
        let get = |m: &Json| {
            path.iter()
                .try_fold(m, |v, k| v.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        get(&wire.after).saturating_sub(get(&wire.before)) as f64
    };
    let jobs = delta(&["requests", "received"]) - delta(&["requests", "served_from_cache"]);
    let wire_n = wire.outcomes.len().max(1) as f64;
    let mut wire_lat: Vec<f64> = wire
        .outcomes
        .iter()
        .take(replayed)
        .map(|o| o.latency_us)
        .collect();
    wire_lat.sort_by(f64::total_cmp);
    let mut inproc = tally.inproc_us.clone();
    inproc.sort_by(f64::total_cmp);
    context.push(("replayed_requests", Json::num(replayed as u64)));
    context.push((
        "trace_inproc_over_wire",
        Json::Num(percentile(&inproc, 50.0) / percentile(&wire_lat, 50.0).max(1e-9)),
    ));
    context.push(("trace_file", Json::str(trace_file.display().to_string())));

    let winners = |name: &str| {
        share(
            tally.winners.get(name).copied().unwrap_or(0),
            tally.requests,
        )
    };
    let mut metrics: Vec<(String, f64, &'static str)> = vec![
        ("serve.decode_us".into(), mean(&tally.decode_us), "us"),
        ("serve.render_us".into(), mean(&tally.render_us), "us"),
        ("serve.wire_us".into(), percentile(&wire_minus, 50.0), "us"),
        (
            "serve.queue_wait_ms".into(),
            delta(&["queue", "wait_total_us"]) / jobs.max(1.0) / 1e3,
            "ms",
        ),
        (
            "qasm.parse_mb_s".into(),
            rate(tally.qasm_bytes, tally.parse_s),
            "MB/s",
        ),
        (
            "qasm.emit_mb_s".into(),
            rate(tally.emit_bytes, tally.emit_s),
            "MB/s",
        ),
        (
            "qasm.materialize_us".into(),
            mean(&tally.materialize_us),
            "us",
        ),
        (
            "circuit.skeleton_mb_s".into(),
            rate(tally.qasm_bytes, tally.skeleton_s),
            "MB/s",
        ),
        ("map.cache.probe_us".into(), mean(&tally.probe_us), "us"),
        (
            "map.cache.hit_share".into(),
            share(tally.probe_hits, tally.requests),
            "share",
        ),
        ("map.cache.insert_us".into(), mean(&tally.insert_us), "us"),
        ("map.portfolio.race_ms".into(), mean(&tally.race_ms), "ms"),
    ];
    for racer in ["exact", "sabre", "stochastic", "naive", "windowed"] {
        metrics.push((
            format!("map.portfolio.win_share.{racer}"),
            winners(racer),
            "share",
        ));
    }
    metrics.extend([
        (
            "map.journal.appends".into(),
            delta(&["journal", "appended"]) / wire_n,
            "count/req",
        ),
        (
            "map.journal.bytes".into(),
            wire.journal_bytes as f64 / wire_n,
            "B/req",
        ),
        ("core.encode_ms".into(), mean(&tally.encode_ms), "ms"),
        ("core.clauses".into(), mean(&tally.clauses), "count"),
        ("sat.search_ms".into(), mean(&tally.search_ms), "ms"),
        (
            "sat.proved_share".into(),
            share(tally.exact_proved, tally.encode_ms.len()),
            "share",
        ),
        ("heuristic.sabre_ms".into(), mean(&tally.sabre_ms), "ms"),
        (
            "heuristic.stochastic_ms".into(),
            mean(&tally.stochastic_ms),
            "ms",
        ),
        ("heuristic.naive_ms".into(), mean(&tally.naive_ms), "ms"),
        ("window.run_ms".into(), mean(&tally.window_ms), "ms"),
        ("window.windows".into(), mean(&tally.windows), "count"),
        (
            "window.bridge_gates".into(),
            mean(&tally.bridge_gates),
            "gates",
        ),
        (
            "window.cache_share".into(),
            share(tally.window_hits, tally.window_total),
            "share",
        ),
        (
            "arch.model_build_us".into(),
            mean(&tally.model_build_us),
            "us",
        ),
        ("unattributed_ms".into(), unattributed / n / 1e3, "ms"),
        ("inproc_ms".into(), mean(&tally.inproc_us) / 1e3, "ms"),
    ]);
    for (layer, total) in layers {
        metrics.push((format!("{layer}.self_ms"), total / n / 1e3, "ms"));
    }
    Ok(metrics)
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Identifies the code under test: an FNV-1a hash over the workspace's
/// Rust sources and manifests (the checkout need not be a git repository).
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a:{h:016x}")
}

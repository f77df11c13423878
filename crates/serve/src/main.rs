//! The `qxmap-serve` daemon: a long-running mapping service over the
//! line-delimited JSON protocol (see `qxmap_serve::proto`).
//!
//! ```text
//! qxmap-serve [--listen ADDR] [--journal PATH]
//!             [--workers N] [--queue-depth N] [--trace-log PATH]
//! ```
//!
//! With `--listen` the daemon binds a TCP listener (use port 0 for an
//! ephemeral port) and announces the bound address on stdout as
//! `{"type":"listening","addr":"..."}` — machine-readable, so harnesses
//! can connect without racing the bind. Without `--listen` it serves
//! stdin/stdout. With `--journal` it warm-starts the solve cache by
//! replaying the append-only cache journal on boot (a missing file is a
//! cold start; torn or corrupt records are rejected individually),
//! appends every new solve to it in the background, so crash-killed
//! processes lose only the unsynced tail, and compacts it to the live
//! entries on graceful shutdown (a `shutdown` request, or stdin EOF in
//! stdio mode).
//! `--workers` sizes the pool of solver threads; each answers one job
//! at a time, earliest deadline first, and replies as soon as that job's
//! own solve ends. `--queue-depth` caps the jobs waiting for a worker.
//! `--trace-log` appends every admission to the slow-request ring
//! (dumped by `{"type":"slowlog"}`) as a JSON line to the given file.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

use qxmap_serve::{Server, ServerConfig};

struct Args {
    listen: Option<String>,
    config: ServerConfig,
}

const USAGE: &str = "usage: qxmap-serve [--listen ADDR] [--journal PATH] \
                     [--workers N] [--queue-depth N] [--trace-log PATH]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: None,
        config: ServerConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--listen" => args.listen = Some(value("--listen")?),
            "--journal" => args.config.journal = Some(PathBuf::from(value("--journal")?)),
            "--workers" => {
                args.config.workers = parse_positive("--workers", &value("--workers")?)?;
            }
            "--queue-depth" => {
                args.config.queue_depth =
                    parse_positive("--queue-depth", &value("--queue-depth")?)?;
            }
            "--trace-log" => {
                args.config.trace_log = Some(PathBuf::from(value("--trace-log")?));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse_positive(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive integer, got {value:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let server = Server::start(args.config);
    match server.warm_start() {
        Ok(Some(replay)) => eprintln!(
            "qxmap-serve: journal replay admitted {} entries ({} rejected{}{})",
            replay.admitted,
            replay.rejected,
            if replay.torn {
                ", torn tail truncated"
            } else {
                ""
            },
            if replay.reset { ", file reset" } else { "" },
        ),
        Ok(None) => {}
        Err(message) => eprintln!("qxmap-serve: starting cold: {message}"),
    }

    let served = match &args.listen {
        Some(addr) => match TcpListener::bind(addr) {
            Ok(listener) => {
                match listener.local_addr() {
                    Ok(addr) => println!("{{\"type\":\"listening\",\"addr\":\"{addr}\"}}"),
                    Err(e) => eprintln!("qxmap-serve: local_addr: {e}"),
                }
                server.serve_tcp(listener)
            }
            Err(e) => {
                eprintln!("qxmap-serve: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => server.serve_stdio(),
    };
    if let Err(e) = served {
        eprintln!("qxmap-serve: serve loop failed: {e}");
    }

    if let Err(e) = server.finish() {
        eprintln!("qxmap-serve: persisting warm state failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

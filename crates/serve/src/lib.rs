//! # qxmap-serve — the production serving tier
//!
//! Everything before this crate is a library: [`qxmap_map::map_one`]
//! answers one request in one process. This crate is the subsystem that
//! turns it into a service — a long-running mapping daemon speaking
//! line-delimited JSON over stdin/stdout or TCP, with:
//!
//! * a **wire protocol** ([`proto`]): `map` requests carrying OpenQASM
//!   source, a device (library name or explicit edge list, either with
//!   optional per-edge calibration including measured error rates),
//!   strategy/guarantee options and a per-request deadline; `metrics`
//!   and `shutdown` requests; structured error responses with stable
//!   codes (no serde is vendored, so [`json`] ships a small
//!   self-contained JSON encode/decode module);
//! * a **server core** ([`server`]): a bounded, earliest-deadline-first
//!   admission queue feeding a fixed worker pool, each worker answering
//!   one job at a time through the process-wide solve cache (the one
//!   place repeated requests are deduplicated, at dispatch), so no
//!   reply waits for another job's solve; explicit `overloaded`
//!   rejection instead of unbounded queueing, `deadline_expired`
//!   shedding of jobs whose deadline ran out while they waited,
//!   pipelined connections (many tagged requests in flight, responses
//!   in completion order), graceful shutdown that drains admitted work,
//!   and a `metrics` surface exposing [`qxmap_map::SolveCacheStats`],
//!   queue depth, queue-wait/slack distributions and request latency
//!   counters;
//! * **cache persistence**: the daemon appends every solve admitted to
//!   the process-wide [`qxmap_map::SolveCache`] to a crash-safe
//!   [`qxmap_map::Journal`], compacts it to the live entries on
//!   shutdown, and replays it on boot (the entry keys are stable across
//!   processes — canonical circuit skeletons × device-model
//!   fingerprints), so even a `kill -9` loses only the unsynced tail —
//!   restarts, and replicas booted on a copy of a compacted journal,
//!   answer repeated requests in microseconds.
//!
//! The `qxmap-serve` binary wires these together; see the repository
//! `GUIDE.md` ("Running the server") for protocol examples.
//!
//! ```
//! use qxmap_serve::{Handled, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default());
//! let response = server.handle_line(
//!     r#"{"type":"map","id":1,
//!         "qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0], q[1];\n",
//!         "device":"qx4"}"#,
//! );
//! let text = response.response().to_string();
//! assert!(text.contains("\"type\":\"result\""));
//! assert!(text.contains("\"id\":1"));
//! server.finish().unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod base64;
pub mod json;
pub mod proto;
pub mod server;

pub use json::{Json, JsonError};
pub use proto::{MapJob, Rejection, Request};
pub use server::{Handled, Server, ServerConfig};

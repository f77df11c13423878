//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, over stdin/stdout
//! or a TCP connection. Three request types:
//!
//! * `{"type": "map", "qasm": "...", "device": ..., ...}` — map an
//!   OpenQASM 2.0 circuit onto a device. The circuit may instead arrive
//!   pre-compiled as `"format": "qxbc"` with a `"qxbc"` field holding
//!   the base64-encoded [QXBC](qxmap_qasm::decode_qxbc) bytes — the
//!   daemon skips QASM parsing entirely. Optional fields: `id` (echoed
//!   verbatim in the response), `deadline_ms`, `conflict_budget`,
//!   `guarantee` (`"optimal"` / `"best_effort"`), `strategy`
//!   (`"before_every_gate"`, `"disjoint_qubits"`, `"odd_gates"`,
//!   `"qubit_triangle"`, `{"window": k}`, `{"custom": [...]}`),
//!   `subsets` (bool), `upper_bound`, `seed` and `trace` (bool). Any
//!   other field is a `bad_request`. Every job answers through one
//!   engine, [`qxmap_window::WindowedEngine`]: on devices inside the
//!   exact regime ([`qxmap_core::MAX_EXACT_QUBITS`]) that is the
//!   portfolio race, and a best-effort job on a larger connected device
//!   gets the cheaper of the heuristic floor and the window
//!   decomposition. A response the decomposition won carries a
//!   `windows` array of per-window optimality certificates.
//! * `{"type": "metrics"}` — cache statistics, queue state, latency
//!   counters.
//! * `{"type": "shutdown"}` — graceful shutdown: queued work finishes,
//!   the cache journal (when configured) is compacted, the daemon exits.
//!
//! The `device` field is either a name from the topology library
//! (`"qx4"`, `"ring-6"`, `"heavy-hex-1"`, …) or an object
//! `{"qubits": m, "edges": [[c, t], ...]}`; both accept an optional
//! `"calibration"` object with per-edge cost overrides (`"swap"`,
//! `"reversal"`, `"cnot"`: arrays of `[a, b, cost]`) and/or measured
//! two-qubit error rates (`"swap_errors"`: arrays of `[a, b, rate]`,
//! ingested by negative-log-fidelity scaling — see
//! [`qxmap_arch::calibration`]). Any calibration switches the request
//! onto an explicit hardware-derived [`DeviceModel`].
//!
//! Successful maps answer `{"type": "result", ...}` carrying the
//! [`MapReport`] (cost breakdown, layouts, winner, `served_from_cache`,
//! elapsed/runtime in microseconds, the mapped circuit as QASM);
//! failures answer `{"type": "error", "code": ..., "message": ...}`
//! with one stable code per [`MapperError`] variant plus the transport
//! codes `parse`, `bad_request`, `overloaded`, `deadline_expired` (the
//! job's deadline ran out while it waited in the admission queue — it
//! was shed, never dispatched), `shutting_down` and `internal` (answering
//! the request panicked; the daemon caught it and keeps serving).
//! QASM syntax and conversion rejections additionally carry a `"line"`
//! field when the parser attributed the defect to a source line.
//!
//! Parsing a `map` request is deliberately *lazy about the circuit*: QASM
//! text is parsed straight into its canonical [`CircuitSkeleton`], with no
//! AST and no [`qxmap_circuit::Circuit`] built, and the circuit is only
//! materialized by [`MapJob::materialize`] — after the server's
//! skeleton-first [`MapJob::cache_probe`] has missed the solve cache.

use std::time::Duration;

use qxmap_arch::{calibration, devices, CouplingMap, DeviceModel, Layout};
use qxmap_circuit::CircuitSkeleton;
use qxmap_core::Strategy;
use qxmap_map::{
    CacheProbe, Guarantee, MapOptions, MapReport, MapRequest, MapperError, WindowCertificate,
};
use qxmap_window::{will_window, WindowOptions};

use crate::json::Json;

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// A mapping job, ready to enqueue.
    Map(Box<MapJob>),
    /// An immediate metrics read.
    Metrics {
        /// The request's `id`, echoed in the response.
        id: Option<Json>,
        /// `"format": "prometheus"` asks for text exposition instead of
        /// the structured JSON snapshot.
        prometheus: bool,
    },
    /// A dump of the slow-request ring: the N slowest completed solves,
    /// with their traces when the request carried `"trace": true`.
    Slowlog {
        /// The request's `id`, echoed in the response.
        id: Option<Json>,
    },
    /// A graceful-shutdown demand.
    Shutdown {
        /// The request's `id`, echoed in the response.
        id: Option<Json>,
    },
}

/// A fully validated mapping job.
///
/// The circuit payload is held in its ingest form (the validated QASM
/// text, or raw QXBC bytes) alongside its canonical skeleton; the
/// [`qxmap_circuit::Circuit`] is only built by
/// [`MapJob::materialize`], so a solve-cache hit on
/// [`MapJob::cache_probe`] answers without ever constructing one.
#[derive(Debug)]
pub struct MapJob {
    /// The request's `id` field, echoed verbatim in the response.
    pub id: Option<Json>,
    /// The validated-but-unmaterialized circuit payload.
    ingest: Ingest,
    /// The canonical skeleton, computed in the same pass that validated
    /// the payload.
    skeleton: CircuitSkeleton,
    /// The validated device.
    device: ParsedDevice,
    /// The request options; fields the wire did not send keep
    /// [`MapOptions::default`], which is also [`MapRequest::new`]'s.
    /// Applied whole to the cache probe and the materialized request.
    options: MapOptions,
    /// Whether the request asked for a trace timeline — not an option:
    /// tracing never affects cache identity.
    trace: bool,
}

/// The circuit payload after validation, before materialization.
#[derive(Debug)]
enum Ingest {
    /// QASM text whose parse and conversion already succeeded. A miss
    /// parses it again, a small fraction of the solve behind it, and a
    /// hit never pays for holding a parsed form.
    Text(String),
    /// Checksummed QXBC bytes (framing and records already validated).
    Qxbc(Vec<u8>),
}

impl MapJob {
    /// The per-request deadline, if one was sent.
    pub fn deadline(&self) -> Option<Duration> {
        self.options.deadline
    }

    /// Whether the request asked for a `trace` timeline (`"trace": true`).
    ///
    /// Deliberately *not* part of [`MapJob::cache_probe`]: tracing never
    /// affects cache identity, so a traced request still hits the warm
    /// path (and gets a timeline of the lookup itself).
    pub fn wants_trace(&self) -> bool {
        self.trace
    }

    /// The payload's canonical skeleton.
    pub fn skeleton(&self) -> &CircuitSkeleton {
        &self.skeleton
    }

    /// The window options the served engine decomposes this job with,
    /// or `None` when it answers through the portfolio alone — a report
    /// of [`will_window`], not a choice: the wire has no knob for it.
    pub fn windowed_options(&self) -> Option<WindowOptions> {
        will_window(self.device.coupling_map(), self.options.guarantee).then(WindowOptions::default)
    }

    /// The solve-cache probe for the skeleton-first warm path. Every job
    /// has one: large-device answers are cached whole like any other.
    pub fn cache_probe(&self) -> Option<CacheProbe> {
        let probe = match &self.device {
            ParsedDevice::Named(cm) => CacheProbe::new(self.skeleton.clone(), cm),
            ParsedDevice::Model(model) => CacheProbe::for_model(self.skeleton.clone(), model),
        };
        Some(probe.with_options(self.options.clone()))
    }

    /// Builds the engine-ready [`MapRequest`] — the first (and only)
    /// point the circuit is materialized.
    ///
    /// # Errors
    ///
    /// Parsing already validated the payload, so failure here means the
    /// job was tampered with between parse and materialize; it is still
    /// reported as a structured rejection rather than a panic.
    pub fn materialize(&self) -> Result<MapRequest, Rejection> {
        let circuit = match &self.ingest {
            Ingest::Text(text) => {
                qxmap_qasm::parse(text).map_err(|e| invalid_qasm(self.id.clone(), &e))?
            }
            Ingest::Qxbc(bytes) => qxmap_qasm::decode_qxbc(bytes).map_err(|e| {
                Rejection::bad_request(self.id.clone(), format!("invalid QXBC payload: {e}"))
            })?,
        };
        let request = match &self.device {
            ParsedDevice::Named(cm) => MapRequest::new(circuit, cm.clone()),
            ParsedDevice::Model(model) => MapRequest::for_model(circuit, model.clone()),
        };
        Ok(request.with_options(self.options.clone()))
    }
}

/// A structured protocol-level rejection (before any engine ran).
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// Stable machine-readable code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// The offending request's `id`, echoed when it was recoverable.
    pub id: Option<Json>,
    /// Structured detail rendered after `code` and `message`: the source
    /// `line` a QASM defect was attributed to, or the fields of an
    /// engine error (as in [`error_response`]).
    pub fields: Vec<(&'static str, Json)>,
}

impl Rejection {
    /// A rejection with no structured fields.
    pub(crate) fn new(
        code: &'static str,
        id: Option<Json>,
        message: impl Into<String>,
    ) -> Rejection {
        Rejection {
            code,
            message: message.into(),
            id,
            fields: Vec::new(),
        }
    }

    fn bad_request(id: Option<Json>, message: impl Into<String>) -> Rejection {
        Rejection::new("bad_request", id, message)
    }

    /// An engine error as a rejection, with one stable code per
    /// [`MapperError`] variant and the variant's fields carried
    /// alongside — the body of [`error_response`].
    fn from_error(id: Option<Json>, error: &MapperError) -> Rejection {
        let (code, fields): (&'static str, Vec<(&'static str, Json)>) = match error {
            MapperError::TooManyQubits { logical, physical } => (
                "too_many_qubits",
                vec![
                    ("logical", Json::num(*logical as u64)),
                    ("physical", Json::num(*physical as u64)),
                ],
            ),
            MapperError::Infeasible => ("infeasible", vec![]),
            MapperError::BudgetExhausted => ("budget_exhausted", vec![]),
            MapperError::DeviceTooLarge { qubits, max } => (
                "device_too_large",
                vec![
                    ("qubits", Json::num(*qubits as u64)),
                    ("max", Json::num(*max as u64)),
                ],
            ),
            MapperError::Unroutable => ("unroutable", vec![]),
            MapperError::BoundUnmet { bound } => {
                ("bound_unmet", vec![("bound", Json::num(*bound))])
            }
            MapperError::OptimalityUnavailable { .. } => ("optimality_unavailable", vec![]),
        };
        Rejection {
            code,
            message: error.to_string(),
            id,
            fields,
        }
    }
}

/// A QASM parse/conversion rejection, carrying the parser's line
/// attribution as a structured field (clients should not have to scrape
/// it out of the message text).
fn invalid_qasm(id: Option<Json>, error: &qxmap_qasm::ParseQasmError) -> Rejection {
    Rejection {
        fields: error
            .line()
            .map(|line| ("line", Json::num(line as u64)))
            .into_iter()
            .collect(),
        ..Rejection::bad_request(id, format!("invalid QASM: {error}"))
    }
}

/// Parses and validates one request line.
///
/// # Errors
///
/// Returns a [`Rejection`] (code `parse` for malformed JSON, otherwise
/// `bad_request`) describing the first defect.
pub fn parse_request(line: &str) -> Result<Request, Rejection> {
    let value = Json::parse(line).map_err(|e| Rejection {
        code: "parse",
        message: format!("malformed JSON: {e}"),
        id: None,
        fields: Vec::new(),
    })?;
    if value.as_object().is_none() {
        return Err(Rejection::bad_request(
            None,
            "request must be a JSON object",
        ));
    }
    let id = value.get("id").cloned();
    let Some(kind) = value.get("type").and_then(Json::as_str) else {
        return Err(Rejection::bad_request(
            id,
            "missing request field \"type\" (one of \"map\", \"metrics\", \"slowlog\", \"shutdown\")",
        ));
    };
    match kind {
        "metrics" => {
            reject_unknown_keys(&value, &["type", "id", "format"], id.clone())?;
            let prometheus = match value.get("format") {
                None => false,
                Some(f) => match f.as_str() {
                    Some("json") => false,
                    Some("prometheus") => true,
                    _ => {
                        return Err(Rejection::bad_request(
                            id,
                            "metrics \"format\" must be \"json\" or \"prometheus\"",
                        ))
                    }
                },
            };
            Ok(Request::Metrics { id, prometheus })
        }
        "slowlog" => {
            reject_unknown_keys(&value, &["type", "id"], id.clone())?;
            Ok(Request::Slowlog { id })
        }
        "shutdown" => {
            reject_unknown_keys(&value, &["type", "id"], id.clone())?;
            Ok(Request::Shutdown { id })
        }
        "map" => parse_map(&value, id).map(|job| Request::Map(Box::new(job))),
        other => Err(Rejection::bad_request(
            id,
            format!("unknown request type {other:?}"),
        )),
    }
}

/// Unknown keys are rejected rather than ignored: a production client
/// typo-ing `"deadine_ms"` should hear about it, not silently run
/// without a deadline.
fn reject_unknown_keys(value: &Json, allowed: &[&str], id: Option<Json>) -> Result<(), Rejection> {
    let Some(pairs) = value.as_object() else {
        return Err(Rejection::bad_request(id, "request must be a JSON object"));
    };
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(Rejection::bad_request(
                id,
                format!("unknown field {key:?} (allowed: {allowed:?})"),
            ));
        }
    }
    Ok(())
}

const MAP_KEYS: &[&str] = &[
    "type",
    "id",
    "format",
    "qasm",
    "qxbc",
    "device",
    "guarantee",
    "strategy",
    "subsets",
    "deadline_ms",
    "conflict_budget",
    "upper_bound",
    "seed",
    "trace",
];

fn parse_map(value: &Json, id: Option<Json>) -> Result<MapJob, Rejection> {
    reject_unknown_keys(value, MAP_KEYS, id.clone())?;
    let bad = |message: String| Rejection::bad_request(id.clone(), message);

    let Some(device) = value.get("device") else {
        return Err(bad("missing field \"device\"".to_string()));
    };
    let device = parse_device(device).map_err(&bad)?;

    let (ingest, skeleton) = parse_payload(value, &id, device.num_qubits())?;

    let mut options = MapOptions::default();
    if let Some(guarantee) = value.get("guarantee") {
        options.guarantee = match guarantee.as_str() {
            Some("optimal") => Guarantee::Optimal,
            Some("best_effort") => Guarantee::BestEffort,
            _ => {
                return Err(bad(
                    "\"guarantee\" must be \"optimal\" or \"best_effort\"".to_string()
                ))
            }
        };
    }
    if let Some(strategy) = value.get("strategy") {
        options.strategy = parse_strategy(strategy).map_err(&bad)?;
    }
    if let Some(subsets) = value.get("subsets") {
        options.use_subsets = subsets
            .as_bool()
            .ok_or_else(|| bad("\"subsets\" must be a boolean".to_string()))?;
    }
    if let Some(deadline) = value.get("deadline_ms") {
        let ms = deadline
            .as_u64()
            .filter(|&ms| ms > 0)
            .ok_or_else(|| bad("\"deadline_ms\" must be a positive integer".to_string()))?;
        options.deadline = Some(Duration::from_millis(ms));
    }
    if let Some(budget) = value.get("conflict_budget") {
        let conflicts = budget
            .as_u64()
            .ok_or_else(|| bad("\"conflict_budget\" must be a non-negative integer".to_string()))?;
        options.conflict_budget = Some(conflicts);
    }
    if let Some(bound) = value.get("upper_bound") {
        let bound = bound
            .as_u64()
            .ok_or_else(|| bad("\"upper_bound\" must be a non-negative integer".to_string()))?;
        options.upper_bound = Some(bound);
    }
    if let Some(seed) = value.get("seed") {
        options.seed = seed
            .as_u64()
            .ok_or_else(|| bad("\"seed\" must be a non-negative integer".to_string()))?;
    }
    let trace = match value.get("trace") {
        Some(trace) => trace
            .as_bool()
            .ok_or_else(|| bad("\"trace\" must be a boolean".to_string()))?,
        None => false,
    };
    Ok(MapJob {
        id,
        ingest,
        skeleton,
        device,
        options,
        trace,
    })
}

/// Validates the circuit payload (`"qasm"` text by default, base64 QXBC
/// bytes under `"format": "qxbc"`) and computes its canonical skeleton
/// in the same pass — without materializing a circuit.
///
/// A payload declaring more qubits than the device's `physical` is
/// answered `too_many_qubits` before anything is sized by its width:
/// the declared width is hostile input until checked.
fn parse_payload(
    value: &Json,
    id: &Option<Json>,
    physical: usize,
) -> Result<(Ingest, CircuitSkeleton), Rejection> {
    let bad = |message: String| Rejection::bad_request(id.clone(), message);
    let fits = |logical: usize| {
        if logical > physical {
            let error = MapperError::TooManyQubits { logical, physical };
            return Err(Rejection::from_error(id.clone(), &error));
        }
        Ok(())
    };
    let format = match value.get("format") {
        None => "qasm",
        Some(f) => f
            .as_str()
            .filter(|f| ["qasm", "qxbc"].contains(f))
            .ok_or_else(|| bad("\"format\" must be \"qasm\" or \"qxbc\"".to_string()))?,
    };
    if format == "qxbc" {
        if value.get("qasm").is_some() {
            return Err(bad(
                "\"qasm\" and \"format\": \"qxbc\" are mutually exclusive".to_string(),
            ));
        }
        let Some(encoded) = value.get("qxbc").and_then(Json::as_str) else {
            return Err(bad(
                "missing string field \"qxbc\" (base64 QXBC bytes)".to_string()
            ));
        };
        let bytes = crate::base64::decode(encoded)
            .map_err(|e| bad(format!("invalid \"qxbc\" base64: {e}")))?;
        let invalid = |e: qxmap_qasm::QxbcError| bad(format!("invalid QXBC payload: {e}"));
        fits(qxmap_qasm::qxbc_num_qubits(&bytes).map_err(invalid)?)?;
        let skeleton = qxmap_qasm::decode_qxbc_skeleton(&bytes).map_err(invalid)?;
        Ok((Ingest::Qxbc(bytes), skeleton))
    } else {
        if value.get("qxbc").is_some() {
            return Err(bad(
                "field \"qxbc\" requires \"format\": \"qxbc\"".to_string()
            ));
        }
        let Some(qasm) = value.get("qasm").and_then(Json::as_str) else {
            return Err(bad("missing string field \"qasm\"".to_string()));
        };
        // Syntax, then register overflow, then the width, then
        // conversion: the width is checked before the skeleton builder
        // is sized by it.
        let invalid = |e| invalid_qasm(id.clone(), &e);
        let parsed = qxmap_qasm::Parsed::new(qasm).map_err(invalid)?;
        fits(parsed.num_qubits().map_err(invalid)?)?;
        let skeleton = parsed.to_skeleton().map_err(invalid)?;
        Ok((Ingest::Text(qasm.to_string()), skeleton))
    }
}

#[derive(Debug)]
enum ParsedDevice {
    /// A named library device with no calibration: the request keeps the
    /// library's uniform paper cost model.
    Named(CouplingMap),
    /// An explicit edge list and/or calibration: the request answers
    /// under a hardware-derived [`DeviceModel`] with the overrides
    /// applied.
    Model(DeviceModel),
}

impl ParsedDevice {
    fn coupling_map(&self) -> &CouplingMap {
        match self {
            ParsedDevice::Named(cm) => cm,
            ParsedDevice::Model(model) => model.coupling_map(),
        }
    }

    fn num_qubits(&self) -> usize {
        self.coupling_map().num_qubits()
    }
}

fn parse_device(device: &Json) -> Result<ParsedDevice, String> {
    // A bare name: `"device": "qx4"`.
    if let Some(name) = device.as_str() {
        return named(name).map(ParsedDevice::Named);
    }
    let Some(pairs) = device.as_object() else {
        return Err("\"device\" must be a name or an object".to_string());
    };
    for (key, _) in pairs {
        if !["name", "qubits", "edges", "calibration"].contains(&key.as_str()) {
            return Err(format!("unknown device field {key:?}"));
        }
    }
    let cm = match (
        device.get("name"),
        device.get("qubits"),
        device.get("edges"),
    ) {
        (Some(name), None, None) => {
            let name = name.as_str().ok_or("device \"name\" must be a string")?;
            named(name)?
        }
        (None, Some(qubits), Some(edges)) => {
            let m = qubits
                .as_usize()
                .ok_or("device \"qubits\" must be a non-negative integer")?;
            let edges = parse_pairs(edges, "edges")?;
            CouplingMap::from_edges(m, edges).map_err(|e| format!("invalid edge list: {e}"))?
        }
        _ => {
            return Err(
                "device must carry either \"name\" or both \"qubits\" and \"edges\"".to_string(),
            )
        }
    };
    let Some(cal) = device.get("calibration") else {
        return Ok(match device.get("name") {
            Some(_) => ParsedDevice::Named(cm),
            None => ParsedDevice::Model(DeviceModel::new(cm)),
        });
    };
    Ok(ParsedDevice::Model(apply_calibration(cm, cal)?))
}

fn named(name: &str) -> Result<CouplingMap, String> {
    devices::by_name(name).ok_or_else(|| {
        format!("unknown device {name:?} (try \"qx4\", \"tokyo\", \"ring-6\", \"heavy-hex-1\", …)")
    })
}

/// `[[a, b], ...]` → pairs.
fn parse_pairs(value: &Json, field: &str) -> Result<Vec<(usize, usize)>, String> {
    value
        .as_array()
        .ok_or_else(|| format!("\"{field}\" must be an array of [a, b] pairs"))?
        .iter()
        .map(|item| {
            let pair = item.as_array().filter(|p| p.len() == 2);
            match pair {
                Some([a, b]) => match (a.as_usize(), b.as_usize()) {
                    (Some(a), Some(b)) => Ok((a, b)),
                    _ => Err(format!("\"{field}\" entries must hold qubit indices")),
                },
                _ => Err(format!("\"{field}\" must be an array of [a, b] pairs")),
            }
        })
        .collect()
}

/// `[[a, b, v], ...]` → triples, with the third element read by `third`.
fn parse_triples<T>(
    value: &Json,
    field: &str,
    third: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<(usize, usize, T)>, String> {
    value
        .as_array()
        .ok_or_else(|| format!("\"{field}\" must be an array of [a, b, value] triples"))?
        .iter()
        .map(|item| {
            let triple = item.as_array().filter(|t| t.len() == 3);
            match triple {
                Some([a, b, v]) => match (a.as_usize(), b.as_usize(), third(v)) {
                    (Some(a), Some(b), Some(v)) => Ok((a, b, v)),
                    _ => Err(format!("invalid \"{field}\" entry")),
                },
                _ => Err(format!(
                    "\"{field}\" must be an array of [a, b, value] triples"
                )),
            }
        })
        .collect()
}

/// Applies a calibration object onto the hardware-derived model for
/// `cm`, validating every referenced edge up front (the model's own
/// builders panic on unknown edges — the protocol must reject instead).
fn apply_calibration(cm: CouplingMap, cal: &Json) -> Result<DeviceModel, String> {
    let Some(pairs) = cal.as_object() else {
        return Err("\"calibration\" must be an object".to_string());
    };
    for (key, _) in pairs {
        if !["swap", "reversal", "cnot", "swap_errors"].contains(&key.as_str()) {
            return Err(format!("unknown calibration field {key:?}"));
        }
    }
    let cost = |v: &Json| v.as_u64().and_then(|c| u32::try_from(c).ok());
    let mut model = DeviceModel::new(cm);
    if let Some(errors) = cal.get("swap_errors") {
        let rates = parse_triples(errors, "swap_errors", Json::as_f64)?;
        model = calibration::with_swap_error_rates(model, rates)
            .map_err(|e| format!("invalid \"swap_errors\": {e}"))?;
    }
    if let Some(swaps) = cal.get("swap") {
        let overrides = parse_triples(swaps, "swap", cost)?;
        for &(a, b, _) in &overrides {
            if model.swap_cost(a, b).is_none() {
                return Err(format!("\"swap\" override on uncoupled pair ({a}, {b})"));
            }
        }
        model = model.with_swap_costs(overrides);
    }
    if let Some(reversals) = cal.get("reversal") {
        let overrides = parse_triples(reversals, "reversal", cost)?;
        for &(c, t, _) in &overrides {
            if !model.coupling_map().requires_reversal(c, t) {
                return Err(format!(
                    "\"reversal\" override on ({c}, {t}), which needs no reversal"
                ));
            }
        }
        model = model.with_reversal_costs(overrides);
    }
    if let Some(cnots) = cal.get("cnot") {
        let overrides = parse_triples(cnots, "cnot", cost)?;
        for &(c, t, _) in &overrides {
            if !model.coupling_map().has_edge(c, t) {
                return Err(format!("\"cnot\" override on missing edge ({c}, {t})"));
            }
        }
        model = model.with_cnot_costs(overrides);
    }
    Ok(model)
}

fn parse_strategy(value: &Json) -> Result<Strategy, String> {
    if let Some(name) = value.as_str() {
        return match name {
            "before_every_gate" => Ok(Strategy::BeforeEveryGate),
            "disjoint_qubits" => Ok(Strategy::DisjointQubits),
            "odd_gates" => Ok(Strategy::OddGates),
            "qubit_triangle" => Ok(Strategy::QubitTriangle),
            _ => Err(format!("unknown strategy {name:?}")),
        };
    }
    if let Some(k) = value.get("window") {
        let k = k
            .as_usize()
            .filter(|&k| k > 0)
            .ok_or("\"window\" must be a positive integer")?;
        return Ok(Strategy::Window(k));
    }
    if let Some(points) = value.get("custom") {
        let points = points
            .as_array()
            .ok_or("\"custom\" must be an array of gate indices")?
            .iter()
            .map(|p| {
                p.as_usize()
                    .ok_or("\"custom\" entries must be gate indices")
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Strategy::Custom(points));
    }
    Err("strategy must be a name, {\"window\": k} or {\"custom\": [...]}".to_string())
}

// ---------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------

/// Prepends the echoed `id` when the request carried one.
fn with_id(id: Option<Json>, mut pairs: Vec<(String, Json)>) -> Json {
    if let Some(id) = id {
        pairs.insert(1, ("id".to_string(), id));
    }
    Json::Obj(pairs)
}

fn layout_json(layout: &Layout) -> Json {
    Json::Arr(
        layout
            .as_log2phys()
            .iter()
            .map(|slot| match slot {
                Some(p) => Json::num(*p as u64),
                None => Json::Null,
            })
            .collect(),
    )
}

/// Microseconds, saturating — the protocol's duration unit.
fn micros(d: Duration) -> Json {
    Json::num(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

/// Renders a [`qxmap_core::trace::SolveTrace`] as the wire `trace`
/// object: its own `elapsed_us` (measured from the trace origin — line
/// receipt for server-side traces, so it covers ingest and queue wait on
/// top of the report's solve-only `elapsed_us`) plus every closed span
/// in start order.
pub fn trace_json(trace: &qxmap_core::trace::SolveTrace) -> Json {
    let spans = trace
        .spans
        .iter()
        .map(|s| {
            let mut pairs = vec![
                ("path".to_string(), Json::str(&s.path)),
                ("start_us".to_string(), Json::num(s.start_us)),
                ("duration_us".to_string(), Json::num(s.duration_us)),
            ];
            if !s.counters.is_empty() {
                pairs.push((
                    "counters".to_string(),
                    Json::Obj(
                        s.counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::num(*v)))
                            .collect(),
                    ),
                ));
            }
            Json::Obj(pairs)
        })
        .collect();
    Json::obj([
        ("elapsed_us", Json::num(trace.elapsed_us)),
        ("spans", Json::Arr(spans)),
    ])
}

/// One per-window optimality certificate of a windowed result.
fn window_json(w: &WindowCertificate) -> Json {
    let slots = |ps: &[usize]| Json::Arr(ps.iter().map(|&p| Json::num(p as u64)).collect());
    Json::obj([
        ("index", Json::num(w.index as u64)),
        ("qubits", slots(&w.qubits)),
        ("region", slots(&w.region)),
        ("gates", Json::num(w.gates as u64)),
        ("objective", Json::num(w.objective)),
        ("proved_optimal", Json::Bool(w.proved_optimal)),
        ("served_from_cache", Json::Bool(w.served_from_cache)),
        ("engine", Json::str(&w.engine)),
        ("bridge_swaps", Json::num(u64::from(w.bridge_swaps))),
        ("bridge_cost", Json::num(w.bridge_cost)),
    ])
}

/// Builds the `result` response for a completed mapping job. The mapped
/// circuit's QASM text is rendered once per solved answer and shared by
/// every response that serves it ([`qxmap_map::MappedCircuit::qasm`]):
/// the cold response and each cache hit, whatever its register naming.
pub fn result_response(id: Option<Json>, report: &MapReport) -> Json {
    let mut pairs = vec![
        ("type".to_string(), Json::str("result")),
        ("engine".to_string(), Json::str(&report.engine)),
        ("winner".to_string(), Json::str(&report.winner)),
        (
            "served_from_cache".to_string(),
            Json::Bool(report.served_from_cache),
        ),
        (
            "proved_optimal".to_string(),
            Json::Bool(report.proved_optimal),
        ),
        (
            "cost".to_string(),
            Json::obj([
                ("objective", Json::num(report.cost.objective)),
                ("swaps", Json::num(u64::from(report.cost.swaps))),
                ("reversals", Json::num(u64::from(report.cost.reversals))),
                ("added_gates", Json::num(report.cost.added_gates)),
            ]),
        ),
        ("elapsed_us".to_string(), micros(report.elapsed)),
        ("runtime_us".to_string(), micros(report.runtime)),
        (
            "initial_layout".to_string(),
            layout_json(&report.initial_layout),
        ),
        (
            "final_layout".to_string(),
            layout_json(&report.final_layout),
        ),
        (
            "mapped_qasm".to_string(),
            Json::str(report.mapped.qasm(qxmap_qasm::to_qasm)),
        ),
    ];
    if let Some(windows) = &report.windows {
        pairs.push((
            "windows".to_string(),
            Json::Arr(windows.iter().map(window_json).collect()),
        ));
    }
    if let Some(trace) = &report.trace {
        pairs.push(("trace".to_string(), trace_json(trace)));
    }
    with_id(id, pairs)
}

/// Builds an `error` response from a structured engine error, with one
/// stable code per [`MapperError`] variant and the variant's fields
/// carried alongside.
pub fn error_response(id: Option<Json>, error: &MapperError) -> Json {
    rejection_response(&Rejection::from_error(id, error))
}

/// Builds an `error` response from a rejection, its structured
/// [`fields`](Rejection::fields) (such as a QASM defect's `"line"`)
/// following `code` and `message`.
pub fn rejection_response(rejection: &Rejection) -> Json {
    let mut pairs = vec![
        ("type".to_string(), Json::str("error")),
        ("code".to_string(), Json::str(rejection.code)),
        ("message".to_string(), Json::str(&rejection.message)),
    ];
    pairs.extend(
        rejection
            .fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone())),
    );
    with_id(rejection.id.clone(), pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const QASM: &str = r#"OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
cx q[0], q[1];
cx q[1], q[2];
"#;

    fn map_line(extra: &str) -> String {
        format!(
            "{{\"type\":\"map\",\"qasm\":{},\"device\":\"qx4\"{extra}}}",
            Json::str(QASM)
        )
    }

    #[test]
    fn minimal_map_request_parses() {
        let Request::Map(job) = parse_request(&map_line("")).unwrap() else {
            panic!("not a map request");
        };
        let request = job.materialize().unwrap();
        assert_eq!(request.circuit().num_cnots(), 2);
        assert_eq!(request.device().num_qubits(), 5);
        assert_eq!(request.guarantee(), Guarantee::BestEffort);
        assert!(job.id.is_none());
        // qx4 is inside the exact regime: the portfolio answers alone.
        assert!(job.windowed_options().is_none());
    }

    #[test]
    fn qxbc_payloads_parse_to_the_same_job() {
        let Request::Map(text_job) = parse_request(&map_line("")).unwrap() else {
            panic!("not a map request");
        };
        let circuit = qxmap_qasm::parse(QASM).unwrap();
        let encoded = crate::base64::encode(&qxmap_qasm::encode_qxbc(&circuit));
        let line = format!(
            "{{\"type\":\"map\",\"format\":\"qxbc\",\"qxbc\":\"{encoded}\",\"device\":\"qx4\"}}"
        );
        let Request::Map(job) = parse_request(&line).unwrap() else {
            panic!("not a map request");
        };
        assert_eq!(job.skeleton(), text_job.skeleton());
        assert_eq!(
            job.materialize().unwrap().circuit().gates(),
            text_job.materialize().unwrap().circuit().gates()
        );
    }

    #[test]
    fn qxbc_payload_defects_reject_structurally() {
        let circuit = qxmap_qasm::parse(QASM).unwrap();
        let bytes = qxmap_qasm::encode_qxbc(&circuit);
        let mut corrupted = bytes.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x10;
        let request = |payload: &str, extra: &str| {
            format!("{{\"type\":\"map\",\"format\":\"qxbc\"{extra},\"qxbc\":\"{payload}\",\"device\":\"qx4\"}}")
        };
        for (line, needle) in [
            (request("!!!not base64!!!", ""), "base64"),
            (request(&crate::base64::encode(&corrupted), ""), "QXBC"),
            (request(&crate::base64::encode(&bytes[..9]), ""), "QXBC"),
            (
                request(&crate::base64::encode(&bytes), ",\"qasm\":\"x\""),
                "mutually exclusive",
            ),
            (
                "{\"type\":\"map\",\"format\":\"qxbc\",\"device\":\"qx4\"}".to_string(),
                "missing string field \"qxbc\"",
            ),
            (
                "{\"type\":\"map\",\"format\":\"elf\",\"qasm\":\"\",\"device\":\"qx4\"}"
                    .to_string(),
                "\"format\"",
            ),
            (map_line(",\"qxbc\":\"AAAA\"").to_string(), "requires"),
        ] {
            let e = parse_request(&line).unwrap_err();
            assert_eq!(e.code, "bad_request", "{line}");
            assert!(e.message.contains(needle), "{line} -> {}", e.message);
            assert!(e.fields.is_empty());
        }
    }

    #[test]
    fn qasm_parse_rejections_carry_the_source_line() {
        let line = format!(
            "{{\"type\":\"map\",\"id\":4,\"qasm\":{},\"device\":\"qx4\"}}",
            Json::str("qreg q[2];\nnope q[0];\n")
        );
        let e = parse_request(&line).unwrap_err();
        assert_eq!(e.code, "bad_request");
        assert_eq!(e.fields, [("line", Json::num(2))]);
        assert!(e.message.contains("unknown gate"));
        let r = rejection_response(&e);
        assert_eq!(r.get("line").and_then(Json::as_u64), Some(2));
        assert_eq!(r.get("id").and_then(Json::as_u64), Some(4));
        // Non-parse rejections carry no line field.
        let r = rejection_response(&parse_request("{\"type\":\"map\"}").unwrap_err());
        assert!(r.get("line").is_none());
    }

    #[test]
    fn too_wide_payloads_are_rejected_before_they_are_sized() {
        // Declared widths past the device answer exactly as a too-wide
        // circuit does after a solve, without a skeleton or a circuit
        // ever being built at that width.
        let too_wide = |qasm: &str| {
            let line = format!(
                "{{\"type\":\"map\",\"id\":7,\"qasm\":{},\"device\":\"qx4\"}}",
                Json::str(qasm)
            );
            rejection_response(&parse_request(&line).unwrap_err())
        };
        let expected = |logical| {
            error_response(
                Some(Json::num(7)),
                &MapperError::TooManyQubits {
                    logical,
                    physical: 5,
                },
            )
        };
        assert_eq!(
            too_wide("qreg q[4000000000];\nh q[0];"),
            expected(4_000_000_000)
        );
        assert_eq!(
            too_wide("qreg a[3];\nqreg b[3];\ncx a[0], b[0];"),
            expected(6)
        );
        // A sum that overflows is a QASM defect.
        let r = too_wide("qreg a[18446744073709551615]; qreg b[2]; cx b[0],b[1];");
        assert_eq!(r.get("code").and_then(Json::as_str), Some("bad_request"));
        let message = r.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("overflows"), "{message}");

        let mut wide = qxmap_circuit::Circuit::new(6);
        wide.cx(0, 5);
        let mut bytes = qxmap_qasm::encode_qxbc(&wide);
        let line = |bytes: &[u8]| {
            format!(
                "{{\"type\":\"map\",\"id\":7,\"format\":\"qxbc\",\"qxbc\":\"{}\",\"device\":\"qx4\"}}",
                crate::base64::encode(bytes)
            )
        };
        let r = rejection_response(&parse_request(&line(&bytes)).unwrap_err());
        assert_eq!(r, expected(6));
        // The header's width field (bytes 16..20 for an unnamed circuit).
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let r = rejection_response(&parse_request(&line(&bytes)).unwrap_err());
        assert_eq!(r, expected(u32::MAX as usize));
    }

    #[test]
    fn qasm_defects_rank_parse_then_width_then_conversion() {
        let answer = |qasm: &str| {
            let line = format!(
                "{{\"type\":\"map\",\"qasm\":{},\"device\":\"qx4\"}}",
                Json::str(qasm)
            );
            parse_request(&line).unwrap_err()
        };
        // A syntax error anywhere beats a register too wide for the device.
        let e = answer("qreg q[9];\nh q[0];\nqreg r[;");
        assert_eq!(e.code, "bad_request");
        assert_eq!(e.message, "invalid QASM: line 3: expected integer, found ;");
        assert_eq!(e.fields, [("line", Json::num(3))]);
        // A register too wide for the device beats an unknown gate, even
        // one applied before the register is declared.
        for qasm in ["qreg q[9];\nnope q[0];", "nope q[0];\nqreg q[9];"] {
            let e = answer(qasm);
            assert_eq!(e.code, "too_many_qubits", "{qasm:?}");
            assert_eq!(
                e.fields,
                [("logical", Json::num(9)), ("physical", Json::num(5))]
            );
        }
        // Within the device's width, the unknown gate is the defect.
        let e = answer("nope q[0];\nqreg q[2];");
        assert_eq!(e.message, "invalid QASM: line 1: unknown gate `nope`");
        assert_eq!(e.fields, [("line", Json::num(1))]);
        // A classical register that overflows ranks below the width
        // check, and a quantum one above it.
        let huge = "18446744073709551615";
        let e = answer(&format!("qreg q[9];\ncreg a[{huge}];\ncreg b[1];"));
        assert_eq!(e.code, "too_many_qubits");
        let e = answer(&format!(
            "creg a[{huge}];\ncreg b[1];\nqreg q[{huge}];\nqreg r[1];"
        ));
        assert_eq!(
            e.message,
            "invalid QASM: register `r[1]` overflows the total register size"
        );
        let e = answer(&format!("creg a[{huge}];\ncreg b[1];\nqreg q[2];"));
        assert_eq!(
            e.message,
            "invalid QASM: register `b[1]` overflows the total register size"
        );
    }

    #[test]
    fn cache_probe_mirrors_the_materialized_request() {
        let line = map_line(",\"deadline_ms\":250,\"seed\":3,\"guarantee\":\"optimal\"");
        let Request::Map(job) = parse_request(&line).unwrap() else {
            panic!("not a map request");
        };
        let probe = job.cache_probe().unwrap();
        let request = job.materialize().unwrap();
        // Solve through the request, then the skeleton-only probe must
        // hit the entry the solve inserted — the fields agree.
        let report = qxmap_map::map_one(&request).unwrap();
        let hit = qxmap_map::probe_one(&probe).expect("probe key matches request key");
        assert_eq!(hit.cost, report.cost);
    }

    #[test]
    fn the_windowed_field_is_gone_from_the_wire() {
        for extra in [
            ",\"windowed\":true",
            ",\"windowed\":false",
            ",\"windowed\":{\"max_window_qubits\":4}",
        ] {
            let e = parse_request(&map_line(extra)).unwrap_err();
            assert_eq!(e.code, "bad_request", "{extra}");
            assert!(
                e.message.contains("unknown field \"windowed\""),
                "{extra} -> {}",
                e.message
            );
        }
    }

    #[test]
    fn large_device_jobs_report_windowing_and_still_probe() {
        let line = |extra: &str| {
            format!(
                "{{\"type\":\"map\",\"qasm\":{},\"device\":\"linear-12\"{extra}}}",
                Json::str(QASM)
            )
        };
        // Out of regime and best-effort: the engine windows, and the
        // answer is cached whole like any other.
        let Request::Map(job) = parse_request(&line("")).unwrap() else {
            panic!("not a map request");
        };
        assert_eq!(job.windowed_options(), Some(WindowOptions::default()));
        assert!(job.cache_probe().is_some());
        // A demanded optimality certificate keeps the portfolio (the
        // window decomposition cannot certify whole-circuit optimality).
        let Request::Map(job) = parse_request(&line(",\"guarantee\":\"optimal\"")).unwrap() else {
            panic!("not a map request");
        };
        assert!(job.windowed_options().is_none());
        assert!(job.cache_probe().is_some());
    }

    #[test]
    fn options_map_onto_the_request() {
        let line = map_line(
            ",\"id\":7,\"deadline_ms\":250,\"conflict_budget\":1000,\"guarantee\":\"optimal\",\
             \"strategy\":{\"window\":2},\"subsets\":false,\"upper_bound\":9,\"seed\":3",
        );
        let Request::Map(job) = parse_request(&line).unwrap() else {
            panic!("not a map request");
        };
        assert_eq!(job.id, Some(Json::Num(7.0)));
        assert_eq!(job.deadline(), Some(Duration::from_millis(250)));
        let request = job.materialize().unwrap();
        assert_eq!(request.deadline(), Some(Duration::from_millis(250)));
        assert_eq!(request.conflict_budget(), Some(1000));
        assert_eq!(request.guarantee(), Guarantee::Optimal);
        assert_eq!(*request.strategy(), Strategy::Window(2));
        assert!(!request.use_subsets());
        assert_eq!(request.upper_bound(), Some(9));
        assert_eq!(request.seed(), 3);
    }

    #[test]
    fn explicit_edge_lists_and_calibration_build_models() {
        let line = format!(
            "{{\"type\":\"map\",\"qasm\":{},\"device\":{{\"qubits\":3,\
             \"edges\":[[0,1],[1,0],[1,2],[2,1]],\
             \"calibration\":{{\"swap\":[[0,1,21]]}}}}}}",
            Json::str(QASM)
        );
        let Request::Map(job) = parse_request(&line).unwrap() else {
            panic!("not a map request");
        };
        let request = job.materialize().unwrap();
        assert_eq!(request.device_model().swap_cost(0, 1), Some(21));
        assert_eq!(request.device_model().swap_cost(1, 2), Some(3));
    }

    #[test]
    fn named_device_with_error_rates_is_calibrated() {
        let line = format!(
            "{{\"type\":\"map\",\"qasm\":{},\"device\":{{\"name\":\"qx4\",\
             \"calibration\":{{\"swap_errors\":[[0,1,0.05],[1,2,0.005]]}}}}}}",
            Json::str(QASM)
        );
        let Request::Map(job) = parse_request(&line).unwrap() else {
            panic!("not a map request");
        };
        let request = job.materialize().unwrap();
        let model = request.device_model();
        assert_eq!(model.swap_cost(1, 2), Some(7), "best pair keeps base");
        assert!(model.swap_cost(0, 1).unwrap() > 30, "noisy pair is dear");
    }

    #[test]
    fn defects_reject_with_bad_request() {
        for (line, needle) in [
            // The device parses first: a payload is sized against it.
            ("{\"type\":\"map\"}", "device"),
            ("{\"type\":\"map\",\"device\":\"qx4\"}", "qasm"),
            (map_line(",\"deadine_ms\":5").as_str(), "deadine_ms"),
            (map_line(",\"deadline_ms\":0").as_str(), "deadline_ms"),
            (map_line(",\"strategy\":\"nope\"").as_str(), "strategy"),
            ("{\"type\":\"nope\"}", "unknown request type"),
            ("{}", "type"),
            ("[1]", "object"),
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.code, "bad_request", "{line}");
            assert!(e.message.contains(needle), "{line} -> {}", e.message);
        }
        assert_eq!(parse_request("not json").unwrap_err().code, "parse");
        let bad_device = format!(
            "{{\"type\":\"map\",\"qasm\":{},\"device\":\"atlantis\"}}",
            Json::str(QASM)
        );
        assert!(parse_request(&bad_device)
            .unwrap_err()
            .message
            .contains("atlantis"));
        // Calibration on a missing edge is a rejection, not a panic.
        let bad_cal = format!(
            "{{\"type\":\"map\",\"qasm\":{},\"device\":{{\"name\":\"qx4\",\
             \"calibration\":{{\"swap\":[[0,3,9]]}}}}}}",
            Json::str(QASM)
        );
        assert!(parse_request(&bad_cal)
            .unwrap_err()
            .message
            .contains("uncoupled"));
    }

    #[test]
    fn responses_carry_ids_and_stable_codes() {
        let rejection = Rejection {
            code: "overloaded",
            message: "queue full".to_string(),
            id: Some(Json::num(9)),
            fields: Vec::new(),
        };
        let r = rejection_response(&rejection);
        assert_eq!(r.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(r.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(r.get("id").and_then(Json::as_u64), Some(9));

        let e = error_response(
            None,
            &MapperError::TooManyQubits {
                logical: 6,
                physical: 5,
            },
        );
        assert_eq!(
            e.get("code").and_then(Json::as_str),
            Some("too_many_qubits")
        );
        assert_eq!(e.get("logical").and_then(Json::as_u64), Some(6));
    }

    #[test]
    fn result_response_reflects_the_report() {
        let request = MapRequest::new(qxmap_circuit::paper_example(), devices::ibm_qx4());
        let report = qxmap_map::map_one(&request).unwrap();
        let r = result_response(Some(Json::str("a")), &report);
        assert_eq!(r.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(r.get("id").and_then(Json::as_str), Some("a"));
        let cost = r.get("cost").unwrap();
        assert_eq!(cost.get("objective").and_then(Json::as_u64), Some(4));
        let qasm = r.get("mapped_qasm").and_then(Json::as_str).unwrap();
        assert!(qasm.contains("OPENQASM 2.0"));
        // A monolithic report has no windows section.
        assert!(r.get("windows").is_none());
        // The response line parses back (the protocol is self-consistent).
        assert!(Json::parse(&r.to_string()).is_ok());
    }

    #[test]
    fn result_response_carries_window_certificates() {
        use qxmap_map::Engine as _;
        // Three strided 4-qubit QFT copies on a 3×4 grid: SABRE pays to
        // gather every copy, the window decomposition seats each on a
        // compact region and wins the large-device race.
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
        }
        let circuit = qxmap_qasm::parse(&qasm).unwrap();
        let costed = circuit.original_cost() as u64;
        let request = MapRequest::new(circuit, devices::grid(3, 4));
        let report = qxmap_window::WindowedEngine::new().run(&request).unwrap();
        let r = result_response(None, &report);
        assert_eq!(r.get("engine").and_then(Json::as_str), Some("windowed"));
        let windows = r.get("windows").and_then(Json::as_array).unwrap();
        assert!(windows.len() >= 3, "{} windows", windows.len());
        let gates: u64 = windows
            .iter()
            .map(|w| w.get("gates").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(
            gates, costed,
            "every gate is certified by exactly one window"
        );
        for w in windows {
            assert_eq!(w.get("proved_optimal"), Some(&Json::Bool(true)));
            assert!(w.get("engine").and_then(Json::as_str).is_some());
            assert!(w.get("region").and_then(Json::as_array).is_some());
        }
        assert!(Json::parse(&r.to_string()).is_ok());
    }
}

//! The answer oracle. It trusts nothing the mapper reports about cost:
//! it parses `mapped_qasm` itself, counts the added gates, checks every
//! CNOT against the device's directed edges, and checks that the mapped
//! circuit equals the input under the reported layouts — by statevector
//! simulation on devices of at most 12 qubits, by permutation replay on
//! larger ones.

use qxmap_arch::{devices, CouplingMap, Layout};
use qxmap_circuit::{Circuit, Gate, OneQubitKind};
use qxmap_serve::Json;

/// Devices up to this size are checked by simulation.
const SIM_MAX_QUBITS: usize = 12;

/// What the oracle needs from one `result` response.
pub struct Answer {
    pub mapped_qasm: String,
    pub initial: Vec<Option<usize>>,
    pub fin: Vec<Option<usize>>,
    pub reported_added: u64,
    pub proved_optimal: bool,
    pub served_from_cache: bool,
}

impl Answer {
    /// Reads a `result` response; anything else is an error naming the
    /// response's code.
    pub fn from_response(response: &Json) -> Result<Answer, String> {
        let kind = response.get("type").and_then(Json::as_str);
        if kind != Some("result") {
            let field = |k: &str| response.get(k).and_then(Json::as_str).unwrap_or("?");
            return Err(format!(
                "not a result: {kind:?} ({}: {})",
                field("code"),
                field("message")
            ));
        }
        let layout = |key: &str| -> Result<Vec<Option<usize>>, String> {
            let slots = response
                .get(key)
                .and_then(Json::as_array)
                .ok_or(format!("no {key}"))?;
            Ok(slots.iter().map(Json::as_usize).collect())
        };
        let field = |key: &str| response.get(key).ok_or(format!("no {key}"));
        Ok(Answer {
            mapped_qasm: field("mapped_qasm")?
                .as_str()
                .ok_or("mapped_qasm")?
                .to_string(),
            initial: layout("initial_layout")?,
            fin: layout("final_layout")?,
            reported_added: field("cost")?
                .get("added_gates")
                .and_then(Json::as_u64)
                .ok_or("cost.added_gates")?,
            proved_optimal: field("proved_optimal")?.as_bool().ok_or("proved_optimal")?,
            served_from_cache: field("served_from_cache")?
                .as_bool()
                .ok_or("served_from_cache")?,
        })
    }
}

/// One gate of the mapped circuit as the oracle reads it.
#[derive(Debug, Clone, PartialEq)]
enum G {
    One(OneQubitKind, usize),
    Cx(usize, usize),
}

/// Checks `answer` against the input circuit on `device`, returning the
/// added gate count it counted.
pub fn check(input: &Circuit, device: &str, answer: &Answer) -> Result<u64, String> {
    let cm = devices::by_name(device).ok_or(format!("unknown device {device}"))?;
    let (m, gates) = parse_mapped(&answer.mapped_qasm)?;
    if m != cm.num_qubits() {
        return Err(format!(
            "mapped register has {m} qubits, device {}",
            cm.num_qubits()
        ));
    }
    for g in &gates {
        if let G::Cx(c, t) = *g {
            if !cm.has_edge(c, t) {
                return Err(format!("cx q[{c}], q[{t}] is not a device edge"));
            }
        }
    }
    let input = input.decompose_swaps();
    let input_cost = input.original_cost() as u64;
    let added = (gates.len() as u64)
        .checked_sub(input_cost)
        .ok_or("mapped circuit has fewer gates than the input")?;
    if added != answer.reported_added {
        return Err(format!(
            "counted {added} added gates, the answer reports {}",
            answer.reported_added
        ));
    }
    let n = input.num_qubits();
    let layout = |slots: &[Option<usize>]| -> Result<Layout, String> {
        if slots.len() != n || slots.iter().any(Option::is_none) {
            return Err("incomplete layout".to_string());
        }
        Layout::from_log2phys(slots.to_vec(), m).map_err(|e| format!("bad layout: {e}"))
    };
    let (initial, fin) = (layout(&answer.initial)?, layout(&answer.fin)?);
    if m <= SIM_MAX_QUBITS {
        let mut mapped = Circuit::new(m);
        for g in &gates {
            match *g {
                G::One(kind, q) => mapped.one(kind, q),
                G::Cx(c, t) => mapped.cx(c, t),
            };
        }
        let equal = qxmap_sim::mapped_equivalent(&input, &mapped, &initial, &fin, 1e-6)
            .map_err(|e| format!("simulation: {e}"))?;
        if !equal {
            return Err("mapped circuit is not equivalent to the input".to_string());
        }
    } else {
        replay(&input, &cm, &gates, &answer.initial, &answer.fin)?;
    }
    Ok(added)
}

/// Parses the subset of OpenQASM 2.0 the daemon emits: one `q` register,
/// one-qubit gates and `cx`. A residual `swap` or anything else is an
/// error.
fn parse_mapped(text: &str) -> Result<(usize, Vec<G>), String> {
    let mut qubits = None;
    let mut gates = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let stmt = line
            .strip_suffix(';')
            .ok_or(format!("unterminated: {line}"))?;
        if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
            continue;
        }
        if let Some(size) = stmt
            .strip_prefix("qreg q[")
            .and_then(|s| s.strip_suffix(']'))
        {
            qubits = Some(size.parse::<usize>().map_err(|_| format!("qreg: {line}"))?);
            continue;
        }
        let (head, args) = stmt.split_once(' ').ok_or(format!("statement: {line}"))?;
        let operands: Vec<usize> = args
            .split(',')
            .map(|a| {
                a.trim()
                    .strip_prefix("q[")
                    .and_then(|a| a.strip_suffix(']'))
                    .and_then(|a| a.parse().ok())
                    .ok_or(format!("operand: {line}"))
            })
            .collect::<Result<_, _>>()?;
        let (name, params) = match head.split_once('(') {
            Some((name, rest)) => {
                let inner = rest.strip_suffix(')').ok_or(format!("params: {line}"))?;
                let values: Vec<f64> = inner
                    .split(',')
                    .map(|v| v.trim().parse().map_err(|_| format!("angle: {line}")))
                    .collect::<Result<_, _>>()?;
                (name, values)
            }
            None => (head, Vec::new()),
        };
        let gate = match (name, params.as_slice(), operands.as_slice()) {
            ("cx", [], &[c, t]) if c != t => G::Cx(c, t),
            (_, _, &[q]) => G::One(
                one_qubit_kind(name, &params).ok_or(format!("gate: {line}"))?,
                q,
            ),
            _ => return Err(format!("unexpected statement: {line}")),
        };
        gates.push(gate);
    }
    let m = qubits.ok_or("no qreg")?;
    let in_range = |q: usize| q < m;
    let ok = gates.iter().all(|g| match *g {
        G::One(_, q) => in_range(q),
        G::Cx(c, t) => in_range(c) && in_range(t),
    });
    if !ok {
        return Err("operand outside the register".to_string());
    }
    Ok((m, gates))
}

fn one_qubit_kind(name: &str, params: &[f64]) -> Option<OneQubitKind> {
    use OneQubitKind::*;
    Some(match (name, params) {
        ("id", []) => I,
        ("x", []) => X,
        ("y", []) => Y,
        ("z", []) => Z,
        ("h", []) => H,
        ("s", []) => S,
        ("sdg", []) => Sdg,
        ("t", []) => T,
        ("tdg", []) => Tdg,
        ("rx", &[a]) => Rx(a),
        ("ry", &[a]) => Ry(a),
        ("rz", &[a]) => Rz(a),
        ("u1", &[a]) => Phase(a),
        ("u3", &[t, p, l]) => U(t, p, l),
        _ => return None,
    })
}

/// Permutation replay: walks the mapped circuit with a physical→logical
/// map, reading each gate either as the next input gate on its logical
/// qubits (a CNOT possibly wrapped in four H's that reverse its
/// direction) or as a SWAP (three CNOTs, the middle one possibly
/// reversed) that permutes the map. The mapped circuit equals the input
/// exactly when some reading consumes every input gate in an order that
/// keeps each qubit's gate sequence and ends on the reported final
/// layout. Ambiguous readings are explored depth-first.
fn replay(
    input: &Circuit,
    cm: &CouplingMap,
    mapped: &[G],
    initial: &[Option<usize>],
    fin: &[Option<usize>],
) -> Result<(), String> {
    let n = input.num_qubits();
    let m = cm.num_qubits();
    let want: Vec<G> = input
        .gates()
        .iter()
        .filter_map(|g| match *g {
            Gate::One { kind, qubit } => Some(G::One(kind, qubit)),
            Gate::Cnot { control, target } => Some(G::Cx(control, target)),
            _ => None,
        })
        .collect();
    // Per logical qubit, the indices of the input gates touching it.
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, g) in want.iter().enumerate() {
        match *g {
            G::One(_, q) => streams[q].push(k),
            G::Cx(c, t) => {
                streams[c].push(k);
                streams[t].push(k);
            }
        }
    }
    #[derive(Clone)]
    struct State {
        pos: usize,
        p2l: Vec<Option<usize>>,
        cursor: Vec<usize>,
    }
    let mut p2l = vec![None; m];
    for (q, p) in initial.iter().enumerate() {
        p2l[p.ok_or("incomplete layout")?] = Some(q);
    }
    let head = |s: &State, q: usize| streams[q].get(s.cursor[q]).copied();
    // Logical CNOT (a → b) on physical qubits, if it is the next gate of
    // both logical streams.
    let cx_next = |s: &State, pa: usize, pb: usize| -> bool {
        let (Some(a), Some(b)) = (s.p2l[pa], s.p2l[pb]) else {
            return false;
        };
        let k = head(s, a);
        k.is_some() && k == head(s, b) && want[k.unwrap()] == G::Cx(a, b)
    };
    let advance = |s: &mut State, g: &G| match *g {
        G::One(_, p) => {
            let q = s.p2l[p].expect("checked");
            s.cursor[q] += 1;
        }
        G::Cx(pa, pb) => {
            for p in [pa, pb] {
                let q = s.p2l[p].expect("checked");
                s.cursor[q] += 1;
            }
        }
    };
    let h = |p: usize| G::One(OneQubitKind::H, p);
    // A reversed CNOT a → b: H a, H b, CX b → a, H a, H b (either H order).
    let reversed_at = |gs: &[G], a: usize, b: usize| -> bool {
        gs.len() >= 5
            && gs[2] == G::Cx(b, a)
            && [&gs[0..2], &gs[3..5]].iter().all(|pair| {
                (pair[0] == h(a) && pair[1] == h(b)) || (pair[0] == h(b) && pair[1] == h(a))
            })
    };
    // Candidate readings at the current position: (gates consumed, effect).
    enum Reading {
        Gate(usize),
        Reversed(usize, usize),
        Swap(usize, usize, usize),
    }
    let readings = |s: &State| -> Vec<Reading> {
        let gs = &mapped[s.pos..];
        let mut out = Vec::new();
        match gs[0] {
            G::One(kind, p) => {
                if let Some(q) = s.p2l[p] {
                    if head(s, q).is_some_and(|k| want[k] == G::One(kind, q)) {
                        out.push(Reading::Gate(1));
                    }
                }
                if kind == OneQubitKind::H && gs.len() >= 5 {
                    if let G::Cx(b, a) = gs[2] {
                        if reversed_at(gs, a, b) && cx_next(s, a, b) {
                            out.push(Reading::Reversed(a, b));
                        }
                    }
                }
            }
            G::Cx(c, t) => {
                if cx_next(s, c, t) {
                    out.push(Reading::Gate(1));
                }
                if gs.len() >= 3 && gs[1] == G::Cx(t, c) && gs[2] == G::Cx(c, t) {
                    out.push(Reading::Swap(3, c, t));
                }
                if gs.len() >= 7 && reversed_at(&gs[1..], t, c) && gs[6] == G::Cx(c, t) {
                    out.push(Reading::Swap(7, c, t));
                }
            }
        }
        out
    };
    let mut budget = 64 * mapped.len() + 1024;
    let mut stack: Vec<(State, Vec<Reading>)> = Vec::new();
    let mut state = State {
        pos: 0,
        p2l,
        cursor: vec![0; n],
    };
    loop {
        budget = budget
            .checked_sub(1)
            .ok_or("replay found no reading within its budget")?;
        let done = state.pos == mapped.len();
        let mut options = if done { Vec::new() } else { readings(&state) };
        if done {
            let consumed = (0..n).all(|q| state.cursor[q] == streams[q].len());
            let landed = (0..m).all(|p| state.p2l[p].is_none_or(|q| fin[q] == Some(p)));
            if consumed && landed {
                return Ok(());
            }
        }
        if options.is_empty() {
            // Backtrack to the most recent alternative reading.
            loop {
                let (saved, mut rest) = stack.pop().ok_or_else(|| {
                    format!(
                        "mapped circuit does not replay to the input (stuck at gate {})",
                        state.pos
                    )
                })?;
                if let Some(next) = rest.pop() {
                    state = saved.clone();
                    if !rest.is_empty() {
                        stack.push((saved, rest));
                    }
                    options = vec![next];
                    break;
                }
            }
        } else if options.len() > 1 {
            let first = options.remove(0);
            stack.push((state.clone(), options));
            options = vec![first];
        }
        match options.pop().expect("one reading") {
            Reading::Gate(len) => {
                let g = mapped[state.pos].clone();
                advance(&mut state, &g);
                state.pos += len;
            }
            Reading::Reversed(a, b) => {
                advance(&mut state, &G::Cx(a, b));
                state.pos += 5;
            }
            Reading::Swap(len, a, b) => {
                state.p2l.swap(a, b);
                state.pos += len;
            }
        }
    }
}

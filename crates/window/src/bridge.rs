//! Permutation bridges between windows.
//!
//! After a window's local solve, its logical qubits must sit on specific
//! physical slots of the window's region before the window's mapped
//! gates can be emitted. The bridge realizes that requirement as a SWAP
//! chain on the full device:
//!
//! 1. each move (and then each reserved slot) settles with a swap chain
//!    along its cost-weighted cheapest path, farthest-out first,
//!    avoiding slots already settled;
//! 2. should that stop converging, the residual requirement is
//!    completed into a full permutation of the device's wires —
//!    displaced bystanders get the nearest vacated slots, everything
//!    else stays put — and routed **token-style**: a greedy phase takes
//!    the best potential-decreasing edge swap (potential = summed
//!    cost-weighted [`DeviceModel::swap_distances`] of every misplaced
//!    wire to its destination) until no single swap helps, then a
//!    BFS-spanning-tree leaf-elimination phase finishes the stragglers —
//!    structurally guaranteed to terminate.
//!
//! Every emitted SWAP is a full [`qxmap_arch::route::emit_swap`] unitary
//! (3 gates on bidirectional edges, 7 on unidirectional ones), so
//! untracked carrier wires are permuted losslessly and the stitched
//! circuit stays semantically faithful.

use qxmap_arch::{route, DeviceModel};
use qxmap_circuit::Circuit;

/// Mutable stitching state threaded through the whole windowed run.
#[derive(Debug, Clone)]
pub(crate) struct StitchState {
    /// Physical slot → logical qubit currently living there.
    pub occ: Vec<Option<usize>>,
    /// Logical qubit → its current physical slot.
    pub pos: Vec<Option<usize>>,
    /// Physical slot → the *initial* slot of the wire whose content is
    /// currently there (wire provenance). Bridges permute it alongside
    /// the occupancy, so a late-materializing qubit can claim the
    /// initial slot its carrier wire actually started on.
    pub origin: Vec<usize>,
}

impl StitchState {
    pub(crate) fn new(num_logical: usize, num_phys: usize) -> StitchState {
        StitchState {
            occ: vec![None; num_phys],
            pos: vec![None; num_logical],
            origin: (0..num_phys).collect(),
        }
    }

    /// Applies one physical SWAP to the tracked state.
    pub(crate) fn apply_swap(&mut self, a: usize, b: usize) {
        self.occ.swap(a, b);
        self.origin.swap(a, b);
        if let Some(q) = self.occ[a] {
            self.pos[q] = Some(a);
        }
        if let Some(q) = self.occ[b] {
            self.pos[q] = Some(b);
        }
    }
}

/// What one bridge cost.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BridgeOutcome {
    /// SWAPs inserted.
    pub swaps: u32,
    /// Their summed cost under the device model.
    pub cost: u64,
}

/// Routes the bridge: after this returns, for every `(from, to)` in
/// `moves` the logical qubit that sat at `from` sits at `to`, and every
/// slot in `reserved` holds an untracked carrier wire (so a
/// materializing qubit can claim it). Emits the SWAP chain into `out`
/// and updates `state`.
///
/// The requirement is deliberately *partial*: bystander wires may end up
/// anywhere, which is what keeps bridges cheap — each move is a swap
/// chain along a cost-weighted shortest path that merely shifts
/// bystanders one hop, instead of a full device permutation that would
/// have to put every disturbed wire back.
///
/// The device must be connected (the engine guards this before
/// stitching).
pub(crate) fn route_bridge(
    out: &mut Circuit,
    model: &DeviceModel,
    state: &mut StitchState,
    moves: &[(usize, usize)],
    reserved: &[usize],
) -> BridgeOutcome {
    #[cfg(debug_assertions)]
    let expected: Vec<(usize, Option<usize>)> =
        moves.iter().map(|&(f, t)| (t, state.occ[f])).collect();

    let mut outcome = BridgeOutcome::default();
    route_chains(out, model, state, moves, reserved, &mut outcome);

    #[cfg(debug_assertions)]
    {
        for (t, q) in expected {
            debug_assert_eq!(state.occ[t], q, "bridge missed a move target");
        }
        for &s in reserved {
            debug_assert_eq!(state.occ[s], None, "reserved slot still occupied");
        }
    }
    outcome
}

/// Undirected adjacency with per-edge SWAP costs.
fn adjacency(model: &DeviceModel) -> Vec<Vec<(usize, u64)>> {
    let cm = model.coupling_map();
    let mut adj = vec![Vec::new(); cm.num_qubits()];
    for (a, b) in cm.undirected_edges() {
        let w = u64::from(model.swap_cost(a, b).expect("edge has a swap cost"));
        adj[a].push((b, w));
        adj[b].push((a, w));
    }
    adj
}

/// Cheapest path `from → to` whose *interior* avoids vertices rejected
/// by `open` (the endpoints are always admitted). Returns the vertex
/// sequence, or `None` if the open subgraph disconnects the endpoints.
fn dijkstra(
    adj: &[Vec<(usize, u64)>],
    from: usize,
    to: usize,
    open: impl Fn(usize) -> bool,
) -> Option<Vec<usize>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let m = adj.len();
    let mut best = vec![u64::MAX; m];
    let mut prev = vec![usize::MAX; m];
    let mut heap = BinaryHeap::new();
    best[from] = 0;
    heap.push(Reverse((0u64, from)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if v == to {
            let mut path = vec![to];
            let mut p = to;
            while p != from {
                p = prev[p];
                path.push(p);
            }
            path.reverse();
            return Some(path);
        }
        if d > best[v] {
            continue;
        }
        for &(w, cost) in &adj[v] {
            if w != to && !open(w) {
                continue;
            }
            let nd = d + cost;
            if nd < best[w] {
                best[w] = nd;
                prev[w] = v;
                heap.push(Reverse((nd, w)));
            }
        }
    }
    None
}

/// The workhorse router: settles each move (and then each reserved
/// slot) with a swap chain along the cheapest path, farthest-out first,
/// avoiding already-settled slots. When avoidance would disconnect the
/// endpoints the chain routes straight through and whatever it disturbed
/// is simply re-settled — and if that ever stops converging (bounded
/// attempts), the residual requirement falls back to the full
/// permutation router, which terminates unconditionally.
fn route_chains(
    out: &mut Circuit,
    model: &DeviceModel,
    state: &mut StitchState,
    moves: &[(usize, usize)],
    reserved: &[usize],
    outcome: &mut BridgeOutcome,
) {
    let m = model.num_qubits();
    let adj = adjacency(model);
    let dist = |a: usize, b: usize| model.swap_distance(a, b).unwrap_or(u64::MAX);
    // The requirement, rekeyed by logical qubit so displaced members are
    // re-found wherever a later chain shoved them.
    let want: Vec<(usize, usize)> = moves
        .iter()
        .map(|&(f, t)| (state.occ[f].expect("move source is occupied"), t))
        .collect();
    let budget = 2 * (want.len() + reserved.len()) + 4;
    let mut attempts = 0usize;
    loop {
        // Settled slots are avoided by later chains; recomputing the set
        // each round self-heals anything a fallback path disturbed.
        let mut locked = vec![false; m];
        for &(q, t) in &want {
            if state.pos[q] == Some(t) {
                locked[t] = true;
            }
        }
        for &s in reserved {
            if state.occ[s].is_none() {
                locked[s] = true;
            }
        }
        let next_move = want
            .iter()
            .filter(|&&(q, t)| state.pos[q] != Some(t))
            .max_by_key(|&&(q, t)| (dist(state.pos[q].expect("member is placed"), t), q))
            .copied();
        let (from, to) = match next_move {
            Some((q, t)) => (state.pos[q].expect("member is placed"), t),
            None => {
                // Members are all home; fill the next reserved slot by
                // pulling the nearest carrier onto it.
                let Some(&s) = reserved.iter().find(|&&s| state.occ[s].is_some()) else {
                    return; // requirement fully met
                };
                let c = (0..m)
                    .filter(|&p| state.occ[p].is_none() && !locked[p])
                    .min_by_key(|&p| (dist(p, s), p))
                    .expect("a carrier wire exists for every materializing qubit");
                (c, s)
            }
        };
        attempts += 1;
        if attempts > budget {
            break; // residual fallback below
        }
        let path = dijkstra(&adj, from, to, |p| !locked[p])
            .or_else(|| dijkstra(&adj, from, to, |_| true))
            .expect("the device is connected");
        for w in path.windows(2) {
            emit(out, model, state, outcome, w[0], w[1]);
        }
    }
    // Residual requirement (pathological avoidance loops only): realize
    // it as one full permutation — provably terminating.
    let residual_moves: Vec<(usize, usize)> = want
        .iter()
        .filter(|&&(q, t)| state.pos[q] != Some(t))
        .map(|&(q, t)| (state.pos[q].expect("member is placed"), t))
        .collect();
    let sigma = complete_permutation(model, state, &residual_moves, reserved);
    route_tokens(out, model, state, &sigma, outcome);
}

/// Completes the partial bridge requirement into a full permutation
/// `sigma` over the device's wires: `sigma[p]` is where the wire content
/// currently at `p` must end up.
fn complete_permutation(
    model: &DeviceModel,
    state: &StitchState,
    moves: &[(usize, usize)],
    reserved: &[usize],
) -> Vec<usize> {
    let m = model.num_qubits();
    let mut dest: Vec<Option<usize>> = vec![None; m];
    let mut used = vec![false; m];
    for &(f, t) in moves {
        debug_assert!(dest[f].is_none() && !used[t]);
        dest[f] = Some(t);
        used[t] = true;
    }
    // Reserved slots must end up holding carrier wires: pick the nearest
    // unassigned carrier for each (a carrier already at its reserved
    // slot costs zero moves).
    for &s in reserved {
        debug_assert!(!used[s]);
        let c = (0..m)
            .filter(|&p| state.occ[p].is_none() && dest[p].is_none())
            .min_by_key(|&p| (model.swap_distance(p, s).unwrap_or(u64::MAX), p))
            .expect("a carrier wire exists for every materializing qubit");
        dest[c] = Some(s);
        used[s] = true;
    }
    // Everything whose slot was not claimed stays put.
    for p in 0..m {
        if dest[p].is_none() && !used[p] {
            dest[p] = Some(p);
            used[p] = true;
        }
    }
    // Displaced bystanders (their slot was claimed as a target) take the
    // nearest vacated slot. The completion is balanced by construction:
    // every remaining token gets exactly one remaining slot.
    let mut free: Vec<usize> = (0..m).filter(|&s| !used[s]).collect();
    #[allow(clippy::needless_range_loop)] // `p` indexes `dest` *and* prices distances
    for p in 0..m {
        if dest[p].is_some() {
            continue;
        }
        let (idx, _) = free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| (model.swap_distance(p, s).unwrap_or(u64::MAX), s))
            .expect("permutation completion is balanced");
        dest[p] = Some(free.swap_remove(idx));
    }
    let sigma: Vec<usize> = dest.into_iter().map(|d| d.expect("complete")).collect();
    #[cfg(debug_assertions)]
    {
        let mut seen = vec![false; m];
        for &t in &sigma {
            debug_assert!(!seen[t], "sigma is not a bijection");
            seen[t] = true;
        }
    }
    sigma
}

/// Token routing: greedy potential-decreasing edge swaps, finished by
/// BFS-spanning-tree leaf elimination for guaranteed termination.
fn route_tokens(
    out: &mut Circuit,
    model: &DeviceModel,
    state: &mut StitchState,
    sigma: &[usize],
    outcome: &mut BridgeOutcome,
) {
    let m = model.num_qubits();
    let cm = model.coupling_map();
    // Token i is the wire that sat at position i when the bridge
    // started; it must reach sigma[i].
    let mut at: Vec<usize> = (0..m).collect();
    let mut tok: Vec<usize> = (0..m).collect();
    let dist = |a: usize, b: usize| model.swap_distance(a, b).expect("connected device");
    let edges = cm.undirected_edges();

    // Greedy phase: strictly decreases the integer potential
    // sum_i dist(at[i], sigma[i]), so it terminates.
    loop {
        let mut best: Option<(u64, (usize, usize))> = None;
        for &(a, b) in &edges {
            let (ta, tb) = (tok[a], tok[b]);
            let cur = dist(a, sigma[ta]) + dist(b, sigma[tb]);
            let swapped = dist(b, sigma[ta]) + dist(a, sigma[tb]);
            if swapped < cur {
                let gain = cur - swapped;
                if best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, (a, b)));
                }
            }
        }
        let Some((_, (a, b))) = best else { break };
        emit(out, model, state, outcome, a, b);
        tok.swap(a, b);
        at[tok[a]] = a;
        at[tok[b]] = b;
    }
    if (0..m).all(|i| at[i] == sigma[i]) {
        return;
    }

    // Tree phase: settle destinations deepest-first on a BFS spanning
    // tree. A settled vertex holds its final token and is never on a
    // later routing path (paths only climb through shallower vertices),
    // so every destination is settled exactly once.
    let mut parent: Vec<Option<usize>> = vec![None; m];
    let mut depth: Vec<usize> = vec![0; m];
    let mut visited = vec![false; m];
    let mut order: Vec<usize> = Vec::with_capacity(m);
    let mut queue = std::collections::VecDeque::from([0usize]);
    visited[0] = true;
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for w in cm.neighbors(v) {
            if !visited[w] {
                visited[w] = true;
                parent[w] = Some(v);
                depth[w] = depth[v] + 1;
                queue.push_back(w);
            }
        }
    }
    debug_assert_eq!(order.len(), m, "device is connected");
    let mut inv = vec![0usize; m];
    for i in 0..m {
        inv[sigma[i]] = i;
    }
    for &v in order.iter().rev() {
        let token = inv[v];
        let p = at[token];
        if p == v {
            continue;
        }
        for (a, b) in tree_path(p, v, &parent, &depth) {
            emit(out, model, state, outcome, a, b);
            tok.swap(a, b);
            at[tok[a]] = a;
            at[tok[b]] = b;
        }
    }
    debug_assert!(
        (0..m).all(|i| at[i] == sigma[i]),
        "tree routing settles all tokens"
    );
}

/// Consecutive vertex pairs along the unique tree path from `from` to
/// `to` (climb both endpoints to their lowest common ancestor).
fn tree_path(
    from: usize,
    to: usize,
    parent: &[Option<usize>],
    depth: &[usize],
) -> Vec<(usize, usize)> {
    let mut up_from = vec![from];
    let mut up_to = vec![to];
    let (mut a, mut b) = (from, to);
    while depth[a] > depth[b] {
        a = parent[a].expect("deeper vertex has a parent");
        up_from.push(a);
    }
    while depth[b] > depth[a] {
        b = parent[b].expect("deeper vertex has a parent");
        up_to.push(b);
    }
    while a != b {
        a = parent[a].expect("distinct vertices below the root");
        b = parent[b].expect("distinct vertices below the root");
        up_from.push(a);
        up_to.push(b);
    }
    // up_from ends at the LCA; append the reversed descent to `to`.
    up_to.pop();
    up_from.extend(up_to.into_iter().rev());
    up_from.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Emits one SWAP (full unitary), charges it, and updates the state.
fn emit(
    out: &mut Circuit,
    model: &DeviceModel,
    state: &mut StitchState,
    outcome: &mut BridgeOutcome,
    a: usize,
    b: usize,
) {
    route::emit_swap(out, model.coupling_map(), a, b).expect("bridge swaps ride device edges");
    state.apply_swap(a, b);
    outcome.swaps += 1;
    outcome.cost += u64::from(model.swap_cost(a, b).expect("edge has a swap cost"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use qxmap_arch::{devices, DeviceModel};

    fn paper_model(name: &str) -> DeviceModel {
        DeviceModel::paper(devices::by_name(name).unwrap())
    }

    fn check_moves(model: &DeviceModel, moves: &[(usize, usize)], occupants: &[(usize, usize)]) {
        let mut state = StitchState::new(model.num_qubits(), model.num_qubits());
        for &(q, p) in occupants {
            state.occ[p] = Some(q);
            state.pos[q] = Some(p);
        }
        let mut out = Circuit::new(model.num_qubits());
        let before: Vec<Option<usize>> = moves.iter().map(|&(f, _)| state.occ[f]).collect();
        let outcome = route_bridge(&mut out, model, &mut state, moves, &[]);
        for (&(_, t), q) in moves.iter().zip(before) {
            assert_eq!(state.occ[t], q);
        }
        // Every inserted SWAP decomposed into costed gates.
        assert!(out.original_cost() > 0 || outcome.swaps == 0);
    }

    #[test]
    fn routes_a_move_across_a_line() {
        let model = paper_model("linear-6");
        check_moves(&model, &[(0, 4)], &[(0, 0)]);
    }

    #[test]
    fn routes_crossing_moves() {
        let model = paper_model("linear-5");
        // Two logicals swap ends — worst-case crossing traffic.
        check_moves(&model, &[(0, 4), (4, 0)], &[(0, 0), (1, 4)]);
    }

    #[test]
    fn reserved_slots_end_up_carrier_held() {
        let model = paper_model("linear-4");
        let mut state = StitchState::new(4, 4);
        // Logical 0 sits exactly on the slot a new qubit needs.
        state.occ[2] = Some(0);
        state.pos[0] = Some(2);
        let mut out = Circuit::new(4);
        route_bridge(&mut out, &model, &mut state, &[], &[2]);
        assert_eq!(state.occ[2], None);
        assert_eq!(state.pos[0], Some(1)); // displaced to the nearest free slot
    }
}

//! The windowed engine: slice → solve → stitch, raced against the
//! heuristic floor.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use qxmap_arch::{CouplingMap, DeviceModel, Layout};
use qxmap_circuit::Circuit;
use qxmap_core::{Strategy, MAX_EXACT_QUBITS};
use qxmap_map::{
    CostBreakdown, Engine, Guarantee, MapReport, MapRequest, MapperError, Portfolio,
    WindowCertificate,
};

use crate::bridge::{self, StitchState};
use crate::slicer::{self, Item};

/// Default active-qubit cap per window. Six keeps each window's SAT
/// instance comfortably inside the exact regime while leaving room for
/// meaningful multi-qubit interaction blocks.
pub const DEFAULT_WINDOW_QUBITS: usize = 6;

/// Tuning knobs of the [`WindowedEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowOptions {
    /// Maximum active qubits per window (clamped to
    /// `2..=`[`MAX_EXACT_QUBITS`] at run time). Smaller windows solve
    /// faster but stitch more.
    pub max_window_qubits: usize,
}

impl Default for WindowOptions {
    fn default() -> WindowOptions {
        WindowOptions {
            max_window_qubits: DEFAULT_WINDOW_QUBITS,
        }
    }
}

/// Whether [`WindowedEngine`] races stitched windows for a request with
/// this device and guarantee: best-effort requests on connected devices
/// past the exact regime. Everything else — devices the exact method
/// covers, disconnected devices bridges cannot route across, and
/// [`Guarantee::Optimal`] demands windowing cannot certify — goes to the
/// portfolio unchanged.
pub fn will_window(device: &CouplingMap, guarantee: Guarantee) -> bool {
    guarantee == Guarantee::BestEffort
        && device.num_qubits() > MAX_EXACT_QUBITS
        && device.is_connected()
}

/// The served engine: the [`Portfolio`] everywhere, and past the 8-qubit
/// wall of the exact method a race between the portfolio's heuristic
/// floor (naive and SABRE) and a window decomposition. The decomposition
/// slices the circuit into interaction-connected windows of at most
/// [`WindowOptions::max_window_qubits`] active qubits, solves each
/// window exactly (through a [`Portfolio`] race) on a connected device
/// subgraph chosen near the window's qubits, and stitches consecutive
/// windows with SWAP bridges.
///
/// The race answers with the cheaper verified report, ties going to the
/// stitch: its [`MapReport::windows`] section records, per window, where
/// it ran, what it cost, and whether its *local* solve is provably
/// minimal. [`MapReport::winner`] names whichever racer produced the
/// answer. Neither side makes a global optimality claim past the exact
/// regime, so [`Guarantee::Optimal`] requests there are refused.
///
/// Windows solve in plan order on a scoped worker pool and are stitched
/// as they land: window i is bridged as soon as windows 0..=i are in.
/// The stitched total only grows, so once it reaches the floor's
/// objective + 1 the stitch has lost the race; no further window starts
/// and the floor answers. The request's wall-clock deadline and
/// conflict budget are split evenly across the solvable windows
/// (deterministically, so window cache keys stay stable), and each
/// window probes the process-wide [`qxmap_map::SolveCache`] by its own
/// subcircuit skeleton — repeated structure across or within circuits
/// is solved once.
#[derive(Debug, Default)]
pub struct WindowedEngine {
    options: WindowOptions,
    portfolio: Portfolio,
}

impl WindowedEngine {
    /// Creates the engine with default options.
    pub fn new() -> WindowedEngine {
        WindowedEngine::default()
    }

    /// Creates the engine with explicit options.
    pub fn with_options(options: WindowOptions) -> WindowedEngine {
        WindowedEngine {
            options,
            portfolio: Portfolio::new(),
        }
    }

    /// The engine's options.
    pub fn options(&self) -> WindowOptions {
        self.options
    }

    /// The large-device race: the heuristic floor first, then `stitch`
    /// under the strict bound of the floor's objective + 1. A stitch
    /// that reaches it would lose the race (ties go to the stitch), so
    /// it stops early with [`MapperError::BoundUnmet`] and the floor
    /// answers. A stitch that panics or fails verification is recorded
    /// as a `race/fallback` trace event and the floor answers alone; an
    /// error on one side never hides an answer from the other.
    fn race(
        &self,
        request: &MapRequest,
        stitch: impl FnOnce(Option<u64>) -> Result<MapReport, MapperError>,
    ) -> Result<MapReport, MapperError> {
        let started = Instant::now();
        let trace = request.trace();
        let floor = self
            .portfolio
            .run(&request.clone().with_trace(trace.scoped("floor")));
        trace.record("floor", started, started.elapsed());
        if let Ok(floor) = &floor {
            trace.event("race/floor", "objective", floor.cost.objective);
        }
        let bound = floor
            .as_ref()
            .ok()
            .map(|floor| floor.cost.objective.saturating_add(1));
        let stitched = match panic::catch_unwind(AssertUnwindSafe(|| stitch(bound))) {
            Ok(Ok(report)) => match report.verify(request.circuit(), request.device()) {
                Ok(()) => Some(report),
                Err(_) => {
                    trace.event("race/fallback", "unverified", 1);
                    None
                }
            },
            Ok(Err(_)) => None,
            Err(_) => {
                trace.event("race/fallback", "panicked", 1);
                None
            }
        };
        let mut report = match (floor, stitched) {
            (Ok(floor), Some(stitched)) if floor.cost.objective < stitched.cost.objective => floor,
            (_, Some(stitched)) => stitched,
            (floor, None) => floor?,
        };
        trace.event("race/winner", &report.winner, 1);
        report.elapsed = started.elapsed();
        report.trace = trace.finish();
        Ok(report)
    }

    /// The stitched racer: slices, solves and stitches `request` whole,
    /// each window through the portfolio's cached path. It stops with
    /// [`MapperError::BoundUnmet`] once its running objective reaches
    /// `bound` or the request's own upper bound, whichever is lower. The
    /// answer is unverified; [`WindowedEngine::race`] checks it.
    fn stitched(&self, request: &MapRequest, bound: Option<u64>) -> Result<MapReport, MapperError> {
        self.stitch_with(request, bound, |window| self.portfolio.run_cached(window))
    }

    /// [`WindowedEngine::stitched`] with each window answered by `solve`.
    ///
    /// A scoped worker pool claims windows in plan order and sends each
    /// answer over a channel; the stitcher, on this thread, bridges
    /// window i as soon as windows 0..=i have landed. The stitched total
    /// only grows, so once it reaches the bound no answer can come in
    /// under it: a stop flag keeps further windows from starting, the
    /// windows already in flight finish (and are cached as usual), and
    /// the stitch ends with [`MapperError::BoundUnmet`]. A window that
    /// errors stops the pool the same way and ends the stitch with its
    /// error; one that panics stops the pool and re-raises its panic on
    /// this thread, where the race's panic boundary records it.
    fn stitch_with(
        &self,
        request: &MapRequest,
        bound: Option<u64>,
        solve: impl Fn(&MapRequest) -> Result<MapReport, MapperError> + Sync,
    ) -> Result<MapReport, MapperError> {
        let started = Instant::now();
        let circuit = request.circuit();
        let model = request.device_model();
        let n = circuit.num_qubits();
        let m = model.num_qubits();
        if n > m {
            return Err(MapperError::TooManyQubits {
                logical: n,
                physical: m,
            });
        }
        // The declared bound is a hard ceiling for every engine.
        let bound = bound.into_iter().chain(request.upper_bound()).min();

        let trace = request.trace();
        // The parent span closes the tree on every exit, a stop
        // included: slice/plan/solve/stitch nest under one top-level
        // `windows` phase.
        let windows_span = trace.span("windows");
        let base = circuit.decompose_swaps();
        let cap = self.options.max_window_qubits.clamp(2, MAX_EXACT_QUBITS);
        let mut slice_span = trace.span("windows/slice");
        let items = slicer::slice(&base, cap);
        slice_span.counter("items", items.len() as u64);
        slice_span.end();
        let mut plan_span = trace.span("windows/plan");
        let plans = self.plan_regions(request, model, n, &items);
        plan_span.counter("windows", plans.len() as u64);
        plan_span.end();

        // One span covers the worker pool and one the stitcher's own work
        // on its answers (its waits for windows are a counter); the
        // windows overlap in time and report as counters, not spans.
        let mut solve_span = trace.span("windows/solve");
        let count = plans.len();
        let workers = std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(1)
            .min(count.max(1));
        let next = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let stitched = std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, Landed)>();
            for _ in 0..workers {
                let tx = tx.clone();
                let (next, hits, stop, plans, solve) = (&next, &hits, &stop, &plans, &solve);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let landed = panic::catch_unwind(AssertUnwindSafe(|| solve(&plans[i].1)));
                        if matches!(&landed, Ok(Ok(report)) if report.served_from_cache) {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                        if tx.send((i, landed)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            // Window i's answer, in plan order: answers that overtake an
            // earlier window wait for it.
            let mut parked: Vec<Option<Landed>> = plans.iter().map(|_| None).collect();
            let landed = |i: usize| {
                let answer = loop {
                    if let Some(answer) = parked[i].take() {
                        break answer;
                    }
                    match rx.recv() {
                        Ok((j, answer)) => parked[j] = Some(answer),
                        // Every claimed window reports before its worker
                        // exits, so a closed channel means the pool died.
                        Err(_) => break Err(Box::new("the window pool stopped early")),
                    }
                };
                answer.unwrap_or_else(|payload| {
                    stop.store(true, Ordering::Relaxed);
                    panic::resume_unwind(payload)
                })
            };
            let stitched = self.stitch(request, &base, &items, &plans, bound, landed, started);
            // Whatever ended the stitch, no further window starts; the
            // scope still joins the windows in flight.
            stop.store(true, Ordering::Relaxed);
            stitched
        });
        let solved = next.load(Ordering::Relaxed).min(count);
        solve_span.counter("windows", count as u64);
        solve_span.counter("cache_hits", hits.load(Ordering::Relaxed) as u64);
        solve_span.counter("solved", solved as u64);
        solve_span.counter("unstarted", (count - solved) as u64);
        solve_span.end();
        windows_span.end();
        stitched
    }

    /// The sequential pre-pass: walks the stitch plan once, choosing for
    /// every solvable block a connected device region near the block's
    /// (predicted) qubit positions, and builds the block's sub-request.
    /// Predictions track where each block *will* leave its qubits so
    /// later blocks anchor their regions realistically.
    fn plan_regions(
        &self,
        request: &MapRequest,
        model: &DeviceModel,
        num_logical: usize,
        items: &[Item],
    ) -> Vec<(Vec<usize>, MapRequest)> {
        let m = model.num_qubits();
        let solvable = items
            .iter()
            .filter(|i| matches!(i, Item::Block(b) if b.has_two_qubit))
            .count();
        // Even, deterministic budget slices keep window cache keys
        // stable across runs of the same request.
        let units = u32::try_from(solvable.max(1)).unwrap_or(u32::MAX);
        let deadline_slice = request.deadline().map(|d| d / units);
        let conflict_slice = request
            .conflict_budget()
            .map(|b| (b / u64::from(units)).max(1));
        // Window strategies restrict *within* a block; explicit global
        // change-point lists are meaningless on a subcircuit.
        let strategy = match request.strategy() {
            Strategy::Custom(_) => Strategy::BeforeEveryGate,
            s => s.clone(),
        };

        let mut predicted_pos: Vec<Option<usize>> = vec![None; num_logical];
        let mut predicted_occ: Vec<Option<usize>> = vec![None; m];
        let mut plans = Vec::with_capacity(solvable);
        for item in items {
            let Item::Block(block) = item else { continue };
            if !block.has_two_qubit {
                // Mirror the stitcher: lone qubits materialize at the
                // lowest free slot.
                for &q in &block.qubits {
                    if predicted_pos[q].is_none() {
                        let p = (0..m)
                            .find(|&p| predicted_occ[p].is_none())
                            .expect("n <= m leaves a free slot");
                        predicted_pos[q] = Some(p);
                        predicted_occ[p] = Some(q);
                    }
                }
                continue;
            }
            let region = allocate_region(model, &predicted_occ, &predicted_pos, &block.qubits);
            // Predict members at the region's slots in sorted order (the
            // local solve may permute them within the region, which is
            // exactly the prediction's error bar).
            for &q in &block.qubits {
                if let Some(p) = predicted_pos[q].take() {
                    predicted_occ[p] = None;
                }
            }
            for &p in &region {
                if let Some(q) = predicted_occ[p].take() {
                    predicted_pos[q] = None; // displaced bystander, slot unknown
                }
            }
            for (i, &q) in block.qubits.iter().enumerate() {
                predicted_pos[q] = Some(region[i]);
                predicted_occ[region[i]] = Some(q);
            }

            let mut sub =
                MapRequest::for_model(block.circuit.clone(), model.subgraph_model(&region))
                    .with_strategy(strategy.clone())
                    .with_subsets(false)
                    .with_conflict_budget(conflict_slice)
                    .with_upper_bound(None)
                    .with_seed(request.seed());
            if let Some(d) = deadline_slice {
                sub = sub.with_deadline(d);
            }
            plans.push((region, sub));
        }
        plans
    }

    /// The sequential stitch: replays the plan in order, taking window
    /// i's answer from `landed(i)`, bridging each solvable block's qubits
    /// to its region, emitting the block's solved body, and tracking wire
    /// provenance so late-materializing qubits claim the initial slots
    /// their wires actually started on. The stitched total only grows,
    /// so the stitch ends with [`MapperError::BoundUnmet`] as soon as it
    /// reaches `bound`, and with a window's error as soon as one fails.
    #[allow(clippy::too_many_arguments)]
    fn stitch(
        &self,
        request: &MapRequest,
        base: &Circuit,
        items: &[Item],
        plans: &[(Vec<usize>, MapRequest)],
        bound: Option<u64>,
        mut landed: impl FnMut(usize) -> Result<MapReport, MapperError>,
        started: Instant,
    ) -> Result<MapReport, MapperError> {
        let model = request.device_model();
        let n = request.circuit().num_qubits();
        let m = model.num_qubits();
        let trace = request.trace();
        let mut stitch_span = trace.span("windows/stitch");
        let mut state = StitchState::new(n, m);
        let mut out = Circuit::with_clbits(m, base.num_clbits());
        // Logical qubit → the initial slot its carrier wire started on.
        let mut claimed: Vec<Option<usize>> = vec![None; n];
        let mut certs: Vec<WindowCertificate> = Vec::new();
        let mut objective = 0u64;
        let mut swaps = 0u32;
        let mut reversals = 0u32;
        let mut bridge_swaps = 0u64;
        let mut window = 0;
        // The one bound check: up front (for a bound no stitch can meet)
        // and after each window, the only change to the total.
        let unmet = |objective: u64, window: usize| {
            let bound = bound.filter(|&bound| objective >= bound)?;
            trace.event("race/stop", "window", window as u64);
            Some(MapperError::BoundUnmet { bound })
        };
        if let Some(unmet) = unmet(objective, window) {
            return Err(unmet);
        }

        for item in items {
            let block = match item {
                Item::Barrier => {
                    out.barrier();
                    continue;
                }
                Item::Block(block) => block,
            };
            if !block.has_two_qubit {
                for &q in &block.qubits {
                    if state.pos[q].is_none() {
                        let p = (0..m)
                            .find(|&p| state.occ[p].is_none())
                            .expect("n <= m leaves a free slot");
                        materialize(&mut state, &mut claimed, q, p);
                    }
                }
                for gate in block.circuit.gates() {
                    out.push(
                        gate.map_qubits(|lq| {
                            state.pos[block.qubits[lq]].expect("member is placed")
                        }),
                    );
                }
                let mut region: Vec<usize> = block
                    .qubits
                    .iter()
                    .map(|&q| state.pos[q].expect("member is placed"))
                    .collect();
                region.sort_unstable();
                certs.push(WindowCertificate {
                    index: certs.len(),
                    qubits: block.qubits.clone(),
                    region,
                    gates: block.gates,
                    objective: 0,
                    proved_optimal: true,
                    served_from_cache: false,
                    engine: "trivial".to_string(),
                    bridge_swaps: 0,
                    bridge_cost: 0,
                });
                continue;
            }

            let region = &plans[window].0;
            // Waiting for a window is the pool's time, not the stitch's.
            let waiting = Instant::now();
            let rep = landed(window);
            stitch_span.exclude("wait_us", waiting.elapsed());
            let rep = rep?;
            // Bridge requirement: every member must reach the region
            // slot the local solve's initial layout put it on.
            let size = block.qubits.len();
            let li = &rep.initial_layout;
            let mut moves = Vec::new();
            let mut reserved = Vec::new();
            let mut fresh = Vec::new();
            for (j, &q) in block.qubits.iter().enumerate() {
                let t = region[li.phys_of(j).expect("local initial layout is complete")];
                match state.pos[q] {
                    Some(f) => moves.push((f, t)),
                    None => {
                        reserved.push(t);
                        fresh.push((q, t));
                    }
                }
            }
            let outcome = bridge::route_bridge(&mut out, model, &mut state, &moves, &reserved);
            for (q, t) in fresh {
                materialize(&mut state, &mut claimed, q, t);
            }
            // The block body, translated region-local → device indices.
            for gate in rep.mapped.gates() {
                out.push(gate.map_qubits(|lp| region[lp]));
            }
            // The body moved member j from its initial to its final
            // region slot: permute occupancy and provenance to match.
            // Region slots hold exactly the members here, so a snapshot
            // of the sources is all the state the rewrite needs.
            let lf = &rep.final_layout;
            let from: Vec<usize> = (0..size)
                .map(|j| region[li.phys_of(j).expect("complete")])
                .collect();
            let to: Vec<usize> = (0..size)
                .map(|j| region[lf.phys_of(j).expect("local final layout is complete")])
                .collect();
            let origins: Vec<usize> = from.iter().map(|&f| state.origin[f]).collect();
            for (j, &q) in block.qubits.iter().enumerate() {
                state.occ[to[j]] = Some(q);
                state.origin[to[j]] = origins[j];
                state.pos[q] = Some(to[j]);
            }

            objective += rep.cost.objective + outcome.cost;
            swaps += rep.cost.swaps + outcome.swaps;
            reversals += rep.cost.reversals;
            bridge_swaps += u64::from(outcome.swaps);
            certs.push(WindowCertificate {
                index: certs.len(),
                qubits: block.qubits.clone(),
                region: region.clone(),
                gates: block.gates,
                objective: rep.cost.objective,
                proved_optimal: rep.proved_optimal,
                served_from_cache: rep.served_from_cache,
                engine: rep.engine.clone(),
                bridge_swaps: outcome.swaps,
                bridge_cost: outcome.cost,
            });
            if let Some(unmet) = unmet(objective, window) {
                stitch_span.counter("bridge_swaps", bridge_swaps);
                return Err(unmet);
            }
            window += 1;
        }
        stitch_span.counter("bridge_swaps", bridge_swaps);
        stitch_span.end();

        // Initial layout: claimed wires keep their true starting slots;
        // logicals that never materialized (no gates at all) take the
        // leftover slots in order.
        let mut taken = vec![false; m];
        for &s in claimed.iter().flatten() {
            taken[s] = true;
        }
        let mut leftovers = (0..m).filter(|&s| !taken[s]);
        let init: Vec<usize> = claimed
            .into_iter()
            .map(|c| c.unwrap_or_else(|| leftovers.next().expect("n <= m leaves a slot")))
            .collect();
        // Final layout: placed qubits sit where the stitch left them; a
        // never-placed qubit rides its (untouched, unclaimed) wire, which
        // provenance locates.
        let mut wire_at = vec![usize::MAX; m];
        for p in 0..m {
            wire_at[state.origin[p]] = p;
        }
        let finl: Vec<Option<usize>> = (0..n)
            .map(|q| Some(state.pos[q].unwrap_or(wire_at[init[q]])))
            .collect();
        let initial_layout = Layout::from_log2phys(init.into_iter().map(Some).collect(), m)
            .expect("initial claims are injective");
        let final_layout = Layout::from_log2phys(finl, m).expect("final occupancy is injective");

        let added_gates = (out.original_cost() as u64)
            .checked_sub(base.original_cost() as u64)
            .expect("stitching only adds gates");
        let elapsed = started.elapsed();
        Ok(MapReport {
            engine: self.name().to_string(),
            winner: self.name().to_string(),
            mapped: out.into(),
            initial_layout,
            final_layout,
            cost: CostBreakdown {
                objective,
                swaps,
                reversals,
                added_gates,
            },
            // Costs are non-negative, so a zero objective beats anything;
            // otherwise windowing is a decomposition heuristic and claims
            // no global proof (the per-window proofs live in `windows`).
            proved_optimal: objective == 0,
            runtime: elapsed,
            elapsed,
            served_from_cache: false,
            subset: None,
            num_change_points: None,
            iterations: None,
            windows: Some(certs),
            // The race attaches the finished timeline.
            trace: None,
        })
    }
}

impl Engine for WindowedEngine {
    fn name(&self) -> &str {
        "windowed"
    }

    fn cache_signature(&self) -> String {
        format!("windowed:k{}", self.options.max_window_qubits)
    }

    fn run(&self, request: &MapRequest) -> Result<MapReport, MapperError> {
        if !will_window(request.device(), request.guarantee()) {
            return self.portfolio.run(request);
        }
        self.race(request, |bound| self.stitched(request, bound))
    }
}

/// One window's solve as it reaches the stitcher: the window's answer or
/// error, or the panic that ended its solve.
type Landed = std::thread::Result<Result<MapReport, MapperError>>;

/// Puts logical `q` on free slot `p`, claiming the initial slot of the
/// carrier wire currently there.
fn materialize(state: &mut StitchState, claimed: &mut [Option<usize>], q: usize, p: usize) {
    debug_assert!(state.occ[p].is_none(), "materialization needs a carrier");
    state.occ[p] = Some(q);
    state.pos[q] = Some(p);
    claimed[q] = Some(state.origin[p]);
}

/// Chooses a connected region of `members.len()` physical qubits for one
/// block: a handful of candidate anchors near the members' predicted
/// positions (or the device center for a first block) each grow a region
/// greedily by the frontier slot minimizing pull toward those positions,
/// compactness, and an eviction penalty on slots predicted occupied by
/// non-members; the cheapest grown region wins. Anchoring on a member's
/// own slot is not always best — when its neighborhood is crowded with
/// earlier windows' qubits, a region one hop into free space trades a
/// short member move for zero evictions.
fn allocate_region(
    model: &DeviceModel,
    predicted_occ: &[Option<usize>],
    predicted_pos: &[Option<usize>],
    members: &[usize],
) -> Vec<usize> {
    let cm = model.coupling_map();
    let m = cm.num_qubits();
    let dist = |a: usize, b: usize| model.swap_distance(a, b).unwrap_or(u64::MAX);
    let placed: Vec<usize> = members.iter().filter_map(|&q| predicted_pos[q]).collect();
    // Evicting a bystander costs far more than its chain's own swaps:
    // the displaced qubit lands somewhere arbitrary and later windows
    // pay to fetch it back. Price it well above a few hops of travel.
    let evict = u64::from(model.stats().max_swap_cost) * 10;
    let occupancy = |p: usize| -> u64 {
        match predicted_occ[p] {
            Some(q) if !members.contains(&q) => evict,
            _ => 0,
        }
    };
    let pull = |p: usize| -> u64 {
        if placed.is_empty() {
            // First block: center it so later windows have room on all
            // sides.
            (0..m).map(|q| dist(p, q)).max().unwrap_or(0)
        } else {
            placed.iter().map(|&o| dist(p, o)).sum::<u64>() / placed.len() as u64
        }
    };

    let grow = |anchor: usize| -> Vec<usize> {
        let mut region = vec![anchor];
        let mut in_region = vec![false; m];
        in_region[anchor] = true;
        while region.len() < members.len() {
            // Pull toward the members' current positions, stay compact
            // around what is already chosen, and prefer free slots. The
            // pulls are averaged so the eviction penalty stays on the
            // same scale regardless of how many members are placed.
            let score = |p: usize| {
                let compact: u64 = region.iter().map(|&r| dist(p, r)).sum();
                pull(p) + compact / region.len() as u64 + occupancy(p)
            };
            let mut best: Option<(u64, usize)> = None;
            for &r in &region {
                for w in cm.neighbors(r) {
                    if in_region[w] {
                        continue;
                    }
                    let cand = (score(w), w);
                    if best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
            let (_, w) = best.expect("a connected device always has a frontier");
            region.push(w);
            in_region[w] = true;
        }
        region
    };
    // What a grown region will actually cost the bridge: an eviction
    // per occupied slot, plus each placed member's travel to the
    // region's nearest slot.
    let cost = |region: &[usize]| -> u64 {
        region.iter().map(|&p| occupancy(p)).sum::<u64>()
            + placed
                .iter()
                .map(|&o| region.iter().map(|&p| dist(p, o)).min().unwrap_or(0))
                .sum::<u64>()
    };
    let mut anchors: Vec<usize> = (0..m).collect();
    anchors.sort_by_key(|&p| (pull(p) + occupancy(p), p));
    let mut region = anchors
        .into_iter()
        .take(4)
        .map(grow)
        .min_by_key(|region| cost(region))
        .expect("device has qubits");
    region.sort_unstable();
    region
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Strategy as _;
    use qxmap_arch::devices;
    use qxmap_circuit::paper_example;
    use qxmap_core::trace::SpanRecorder;
    use std::time::Duration;

    fn ladder(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    /// A ladder closed by one long-range interaction: no layout on a
    /// line maps it for free.
    fn long_range() -> Circuit {
        let mut c = ladder(10);
        c.cx(0, 9);
        c
    }

    /// The paths of every `race/fallback` event on `report`'s timeline.
    fn fallbacks(report: &MapReport) -> Vec<String> {
        let trace = report.trace.as_ref().expect("traced request");
        trace
            .spans
            .iter()
            .filter(|s| s.path == "race/fallback")
            .flat_map(|s| s.counters.iter().map(|(name, _)| name.clone()))
            .collect()
    }

    #[test]
    fn small_devices_delegate_to_the_portfolio() {
        let request = MapRequest::new(paper_example(), devices::ibm_qx4());
        let report = WindowedEngine::new().run(&request).unwrap();
        assert!(report.windows.is_none());
        assert_eq!(report.cost.objective, 4);
        report
            .verify(&paper_example(), &devices::ibm_qx4())
            .unwrap();
    }

    #[test]
    fn optimal_requests_on_small_devices_still_prove() {
        let request =
            MapRequest::new(paper_example(), devices::ibm_qx4()).with_guarantee(Guarantee::Optimal);
        let report = WindowedEngine::new().run(&request).unwrap();
        assert!(report.proved_optimal);
        assert_eq!(report.cost.objective, 4);
    }

    #[test]
    fn windowed_ladder_stitches_and_verifies() {
        let circuit = ladder(10);
        let device = devices::linear(12);
        let request = MapRequest::new(circuit.clone(), device.clone());
        let report = WindowedEngine::new().stitched(&request, None).unwrap();
        report.verify(&circuit, &device).unwrap();
        let windows = report.windows.as_ref().unwrap();
        assert!(windows.len() >= 2, "{} windows", windows.len());
        assert_eq!(
            windows.iter().map(|w| w.gates).sum::<usize>(),
            circuit.original_cost()
        );
        // Every solvable window ran exactly and proved its local slice.
        assert!(windows.iter().all(|w| w.proved_optimal));
        assert_eq!(report.engine, "windowed");
    }

    #[test]
    fn barriers_measures_and_idle_qubits_survive_stitching() {
        let mut c = Circuit::with_clbits(9, 9);
        c.h(0).cx(0, 1).cx(1, 2).barrier().cx(3, 4).h(8);
        c.measure(2, 2).measure(8, 8);
        let device = devices::grid(3, 4); // 12 qubits, > exact regime
        let request = MapRequest::new(c.clone(), device.clone());
        let report = WindowedEngine::new().stitched(&request, None).unwrap();
        report.verify(&c, &device).unwrap();
        assert!(report.initial_layout.is_complete());
        assert!(report.final_layout.is_complete());
        let windows = report.windows.as_ref().unwrap();
        // The lone h(8)+measure window bypassed the solver.
        assert!(windows.iter().any(|w| w.engine == "trivial"));
    }

    #[test]
    fn long_range_interaction_pays_a_bridge() {
        let c = long_range(); // 0 and 9 end far apart after the ladder's windows
        let device = devices::linear(12);
        let request = MapRequest::new(c.clone(), device.clone());
        let report = WindowedEngine::new().stitched(&request, None).unwrap();
        report.verify(&c, &device).unwrap();
        let windows = report.windows.as_ref().unwrap();
        assert!(
            windows.iter().any(|w| w.bridge_swaps > 0),
            "stitching a long-range interaction must bridge"
        );
        assert!(report.cost.objective > 0);
        // ... which makes a low upper bound unmeetable.
        let bounded = MapRequest::new(c, device).with_upper_bound(Some(1));
        assert_eq!(
            WindowedEngine::new().stitched(&bounded, None).unwrap_err(),
            MapperError::BoundUnmet { bound: 1 }
        );
    }

    #[test]
    fn spent_deadlines_still_stitch_a_verifying_answer() {
        // A long-range interaction forces a bridge, and the deadline is
        // already spent by the time any window solves: the stitch must
        // degrade, never fail.
        let c = long_range();
        let device = devices::linear(12);
        let request =
            MapRequest::new(c.clone(), device.clone()).with_deadline(Duration::from_nanos(1));
        let report = WindowedEngine::new()
            .stitched(&request, None)
            .expect("deadlines degrade, never fail");
        report.verify(&c, &device).unwrap();
        assert!(
            report
                .windows
                .as_ref()
                .unwrap()
                .iter()
                .any(|w| w.bridge_swaps > 0),
            "the long-range interaction still bridges"
        );
    }

    #[test]
    fn optimal_guarantee_is_refused() {
        let request =
            MapRequest::new(long_range(), devices::linear(12)).with_guarantee(Guarantee::Optimal);
        assert!(matches!(
            WindowedEngine::new().run(&request),
            Err(MapperError::OptimalityUnavailable { .. })
        ));
    }

    #[test]
    fn the_race_answers_with_the_cheaper_racer() {
        let circuit = long_range();
        let device = devices::linear(12);
        let request =
            MapRequest::new(circuit.clone(), device.clone()).with_trace(SpanRecorder::new());
        let engine = WindowedEngine::new();
        let floor = Portfolio::new().run(&request).unwrap();
        let stitched = engine.stitched(&request, None).unwrap();
        let report = engine.run(&request).unwrap();
        report.verify(&circuit, &device).unwrap();
        assert_eq!(
            report.cost.objective,
            floor.cost.objective.min(stitched.cost.objective)
        );
        // Ties go to the stitch, which carries per-window certificates.
        let stitch_won = stitched.cost.objective <= floor.cost.objective;
        assert_eq!(report.windows.is_some(), stitch_won);
        assert_eq!(report.winner == "windowed", stitch_won);
        // The timeline keeps both racers and names the winner.
        let trace = report.trace.as_ref().unwrap();
        for path in [
            "floor",
            "race/floor",
            "race/winner",
            "windows",
            "windows/stitch",
        ] {
            assert!(trace.spans.iter().any(|s| s.path == path), "missing {path}");
        }
        assert!(fallbacks(&report).is_empty());
    }

    #[test]
    fn a_panicking_stitch_falls_back_to_the_floor() {
        let circuit = long_range();
        let device = devices::linear(12);
        let request =
            MapRequest::new(circuit.clone(), device.clone()).with_trace(SpanRecorder::new());
        let report = WindowedEngine::new()
            .race(&request, |_| panic!("a stitch bug"))
            .expect("the floor still answers");
        report.verify(&circuit, &device).unwrap();
        assert!(report.windows.is_none());
        assert_eq!(fallbacks(&report), ["panicked"]);
    }

    #[test]
    fn an_unverified_stitch_falls_back_to_the_floor() {
        let circuit = long_range();
        let device = devices::linear(12);
        let request =
            MapRequest::new(circuit.clone(), device.clone()).with_trace(SpanRecorder::new());
        let engine = WindowedEngine::new();
        let report = engine
            .race(&request, |_| {
                // A zero-cost claim that drops every gate: cheaper than
                // any floor, and wrong.
                let mut bogus = engine.stitched(&request, None)?;
                bogus.mapped = Circuit::new(device.num_qubits()).into();
                bogus.cost.objective = 0;
                Ok(bogus)
            })
            .expect("the floor still answers");
        report.verify(&circuit, &device).unwrap();
        assert_ne!(report.winner, "windowed");
        assert_eq!(fallbacks(&report), ["unverified"]);
    }

    #[test]
    fn an_erroring_stitch_never_hides_the_floor() {
        let circuit = long_range();
        let device = devices::linear(12);
        let request = MapRequest::new(circuit.clone(), device.clone());
        let report = WindowedEngine::new()
            .race(&request, |_| Err(MapperError::BudgetExhausted))
            .expect("an erroring stitch never hides the floor");
        report.verify(&circuit, &device).unwrap();
    }

    /// A pseudo-random 12-qubit circuit of `gates` CNOTs: dozens of
    /// mostly distinct windows, nearly all of which need routing.
    fn scrambled(gates: usize) -> Circuit {
        let mut c = Circuit::new(12);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..gates {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let a = (x >> 33) as usize % 12;
            let b = (a + 1 + (x >> 45) as usize % 11) % 12;
            c.cx(a, b);
        }
        c
    }

    /// The value of counter `name` on the first `path` span of `request`'s
    /// timeline.
    fn counter(request: &MapRequest, path: &str, name: &str) -> u64 {
        let trace = request.trace().finish().expect("traced request");
        trace
            .spans
            .iter()
            .filter(|s| s.path == path)
            .flat_map(|s| s.counters.iter())
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no {path} counter {name}"))
    }

    #[test]
    fn a_bound_below_the_stitch_stops_it_before_the_last_windows() {
        // Ten gates per worker give about two windows per worker.
        let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
        let circuit = scrambled(120.max(10 * workers));
        let device = devices::linear(12);
        let engine = WindowedEngine::new();
        // The unbounded stitch prices each solvable window; the bound is
        // the total at the first window that costs anything.
        let unbounded = engine
            .stitched(&MapRequest::new(circuit.clone(), device.clone()), None)
            .unwrap();
        let costs: Vec<u64> = (unbounded.windows.as_ref().unwrap().iter())
            .filter(|w| w.engine != "trivial")
            .map(|w| w.objective + w.bridge_cost)
            .collect();
        let stop_at = costs.iter().position(|&c| c > 0).expect("windows route");
        let bound = costs[stop_at];
        assert!(bound < unbounded.cost.objective);

        // Windows 0..=stop_at answer at once; every later window is held
        // until the stop is on the timeline, so at most one held window
        // per worker starts before the stop, whatever the host's core
        // count. (The time limit turns a missed stop into a failure, not
        // a hang.)
        let request =
            MapRequest::new(circuit.clone(), device.clone()).with_trace(SpanRecorder::new());
        let items = slicer::slice(&circuit.decompose_swaps(), DEFAULT_WINDOW_QUBITS);
        let plans = engine.plan_regions(&request, request.device_model(), 12, &items);
        let released: Vec<&Circuit> = plans[..=stop_at].iter().map(|(_, w)| w.circuit()).collect();
        let stopped = || {
            let trace = request.trace().finish().expect("traced request");
            trace.spans.iter().any(|s| s.path == "race/stop")
        };
        let started = Instant::now();
        let stitched = engine.stitch_with(&request, Some(bound), |window| {
            while !released.contains(&window.circuit())
                && !stopped()
                && started.elapsed() < Duration::from_secs(30)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            engine.portfolio.run_cached(window)
        });
        assert_eq!(stitched.unwrap_err(), MapperError::BoundUnmet { bound });
        assert_eq!(counter(&request, "race/stop", "window"), stop_at as u64);
        let windows = counter(&request, "windows/solve", "windows");
        let solved = counter(&request, "windows/solve", "solved");
        let unstarted = counter(&request, "windows/solve", "unstarted");
        assert_eq!(solved + unstarted, windows);
        assert!(unstarted > 0, "{solved} of {windows} windows solved");
        // A stopped stitch still closes every phase of its timeline.
        let trace = request.trace().finish().unwrap();
        for path in [
            "windows",
            "windows/slice",
            "windows/plan",
            "windows/solve",
            "windows/stitch",
        ] {
            assert!(trace.spans.iter().any(|s| s.path == path), "missing {path}");
        }
    }

    #[test]
    fn the_stitch_span_times_the_stitch_not_its_waits_for_windows() {
        let circuit = scrambled(120);
        let engine = WindowedEngine::new();
        let request =
            MapRequest::new(circuit.clone(), devices::linear(12)).with_trace(SpanRecorder::new());
        let items = slicer::slice(&circuit.decompose_swaps(), DEFAULT_WINDOW_QUBITS);
        let plans = engine.plan_regions(&request, request.device_model(), 12, &items);
        // Window 0 is slow, so the stitch cannot start before it lands.
        let hold = Duration::from_millis(400);
        engine
            .stitch_with(&request, None, |window| {
                if window.circuit() == plans[0].1.circuit() {
                    std::thread::sleep(hold);
                }
                engine.portfolio.run_cached(window)
            })
            .unwrap();
        let hold_us = hold.as_micros() as u64;
        let waited = counter(&request, "windows/stitch", "wait_us");
        assert!(waited >= hold_us, "waited {waited} us");
        let trace = request.trace().finish().unwrap();
        let stitch = trace
            .spans
            .iter()
            .find(|s| s.path == "windows/stitch")
            .unwrap();
        assert!(
            stitch.duration_us < hold_us / 2,
            "the stitch span took {} us of a {waited} us wait",
            stitch.duration_us
        );
    }

    #[test]
    fn a_failing_window_ends_the_stitch_and_the_floor_answers() {
        let circuit = scrambled(120);
        let device = devices::linear(12);
        let engine = WindowedEngine::new();
        // An erroring window ends the stitch with its error.
        let calls = AtomicUsize::new(0);
        let request = MapRequest::new(circuit.clone(), device.clone());
        let erroring = engine.stitch_with(&request, None, |window| {
            if calls.fetch_add(1, Ordering::Relaxed) == 1 {
                Err(MapperError::BudgetExhausted)
            } else {
                engine.portfolio.run_cached(window)
            }
        });
        assert_eq!(erroring.unwrap_err(), MapperError::BudgetExhausted);
        // A panicking window re-raises on the stitcher's thread; the
        // race records the fallback and the floor answers.
        let traced = request.with_trace(SpanRecorder::new());
        let report = engine
            .race(&traced, |bound| {
                engine.stitch_with(&traced, bound, |_| panic!("a window bug"))
            })
            .expect("the floor still answers");
        report.verify(&circuit, &device).unwrap();
        assert!(report.windows.is_none());
        assert_eq!(fallbacks(&report), ["panicked"]);
    }

    #[test]
    fn will_window_only_past_the_exact_regime_on_connected_devices() {
        assert!(will_window(&devices::linear(12), Guarantee::BestEffort));
        assert!(!will_window(&devices::linear(12), Guarantee::Optimal));
        assert!(!will_window(&devices::ibm_qx4(), Guarantee::BestEffort));
        let split = CouplingMap::from_edges(12, [(0, 1), (2, 3)]).unwrap();
        assert!(!will_window(&split, Guarantee::BestEffort));
    }

    #[test]
    fn cache_signature_tracks_options() {
        let a = WindowedEngine::new();
        let b = WindowedEngine::with_options(WindowOptions {
            max_window_qubits: 4,
        });
        assert_ne!(a.cache_signature(), b.cache_signature());
    }

    /// Random circuits with `qubits` qubits and fewer than `max_gates`
    /// gates.
    fn circuit_strategy(
        qubits: std::ops::RangeInclusive<usize>,
        max_gates: usize,
    ) -> impl proptest::strategy::Strategy<Value = Circuit> {
        qubits.prop_flat_map(move |n| {
            let gate = prop_oneof![
                // CNOT with distinct qubits (built arithmetically, no filter).
                (0..n, 1..n).prop_map(move |(c, d)| (0u8, c, (c + d) % n)),
                // H / T on one qubit.
                (0..n).prop_map(|q| (1u8, q, 0usize)),
                (0..n).prop_map(|q| (2u8, q, 0usize)),
            ];
            prop::collection::vec(gate, 1..max_gates).prop_map(move |gates| {
                let mut c = Circuit::new(n);
                for (kind, a, b) in gates {
                    match kind {
                        0 => {
                            c.cx(a, b);
                        }
                        1 => {
                            c.h(a);
                        }
                        _ => {
                            c.t(a);
                        }
                    }
                }
                c
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn stitched_windows_verify_against_the_full_circuit(circuit in circuit_strategy(9..=12, 14)) {
            let device = devices::linear(14);
            let request = MapRequest::new(circuit.clone(), device.clone());
            let report = WindowedEngine::new()
                .stitched(&request, None)
                .expect("a connected line maps every circuit");

            // The stitched whole is hardware-legal and gate-complete.
            report.verify(&circuit, &device).expect("sound");
            prop_assert_eq!(report.cost.objective, report.cost.added_gates);

            // Every costed gate of the input is certified by exactly one
            // window, and each window's local solve carries its proof.
            let windows = report.windows.expect("stitched reports certify per window");
            prop_assert_eq!(
                windows.iter().map(|w| w.gates).sum::<usize>(),
                circuit.original_cost()
            );
            for w in &windows {
                prop_assert!(w.qubits.len() <= MAX_EXACT_QUBITS);
                prop_assert_eq!(w.qubits.len(), w.region.len());
            }
        }

        #[test]
        fn warm_window_cache_hits_reproduce_the_stitched_answer(circuit in circuit_strategy(9..=12, 14)) {
            let device = devices::linear(14);
            let request = MapRequest::new(circuit.clone(), device.clone());
            let engine = WindowedEngine::new();
            let cold = engine.stitched(&request, None).expect("cold run maps");
            let warm = engine.stitched(&request, None).expect("warm run maps");

            // The warm run answers its windows from the process-wide solve
            // cache, and the stitched result is identical: same cost, same
            // layouts, same mapped circuit.
            prop_assert_eq!(cold.cost, warm.cost);
            prop_assert_eq!(&cold.initial_layout, &warm.initial_layout);
            prop_assert_eq!(&cold.final_layout, &warm.final_layout);
            prop_assert_eq!(&cold.mapped, &warm.mapped);
            let warm_windows = warm.windows.expect("stitched reports certify per window");
            prop_assert!(
                warm_windows
                    .iter()
                    .filter(|w| w.engine != "trivial")
                    .all(|w| w.served_from_cache),
                "every solvable window of the warm run is a cache hit"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The bounded stitch changes no served answer: the race still
        /// answers with the cheaper of the floor and the *unbounded*
        /// stitch, ties to the stitch.
        #[test]
        fn the_served_answer_is_the_cheaper_of_floor_and_unbounded_stitch(
            circuit in circuit_strategy(8..=12, 40),
            qx5 in any::<bool>(),
        ) {
            let device = if qx5 { devices::ibm_qx5() } else { devices::linear(12) };
            let request = MapRequest::new(circuit.clone(), device.clone());
            let engine = WindowedEngine::new();
            let floor = Portfolio::new().run(&request).expect("the floor maps");
            // Unbounded and cold: every window's answer is cached, so the
            // served run below stitches exactly these answers.
            let stitched = engine.stitched(&request, None).expect("a connected device maps");
            let served = engine.run(&request).expect("the race answers");
            served.verify(&circuit, &device).expect("sound");
            let stitch_wins = stitched.cost.objective <= floor.cost.objective;
            prop_assert_eq!(
                served.cost.objective,
                floor.cost.objective.min(stitched.cost.objective)
            );
            let winner = if stitch_wins { &stitched.winner } else { &floor.winner };
            prop_assert_eq!(&served.winner, winner);
            prop_assert_eq!(served.windows.is_some(), stitch_wins);
        }
    }
}

//! A SABRE-style swap mapper (Li, Ding & Xie, "Tackling the Qubit Mapping
//! Problem for NISQ-Era Quantum Devices" — reference \[13\] of the paper).
//!
//! Three ingredients distinguish SABRE from the older stochastic mapper:
//!
//! 1. **Front-layer routing**: instead of fixing whole layers, maintain
//!    the set of CNOTs whose predecessors are all executed; any member
//!    that is adjacent executes immediately.
//! 2. **Lookahead scoring**: candidate SWAPs are scored on the front
//!    layer *plus* a discounted window of upcoming CNOTs.
//! 3. **Reverse-pass initial layout**: map the reversed circuit starting
//!    from a trivial layout and reuse the resulting final layout as the
//!    forward pass's initial layout (one round trip refines the seed).
//!
//! The output is assembled with the same routing primitives (SWAP
//! decomposition, 4-H reversal) as every other mapper in the workspace,
//! so costs are directly comparable.

use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qxmap_arch::{route, DeviceModel, DeviceStats, Layout};
use qxmap_circuit::{Circuit, Dag, Gate};

use crate::traits::{HeuristicError, HeuristicResult, Mapper, StopCheck};

/// The SABRE-style mapper.
///
/// The mapper is deadline-aware: [`SabreMapper::with_deadline`] and
/// [`SabreMapper::with_stop`] are polled at every routing step. Once a
/// budget fires, the scored lookahead search is replaced by plain
/// shortest-path stepping toward the first blocked pair (and a pending
/// reverse seeding pass is skipped), so a losing racer on a huge device
/// winds down quickly while still emitting a complete, hardware-legal
/// circuit.
///
/// ```
/// use qxmap_arch::devices;
/// use qxmap_circuit::paper_example;
/// use qxmap_heuristic::{Mapper, SabreMapper};
///
/// let r = SabreMapper::new().map(&paper_example(), &devices::ibm_qx4())?;
/// assert!(r.added_gates >= 4); // can never beat the exact minimum
/// # Ok::<(), qxmap_heuristic::HeuristicError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SabreMapper {
    lookahead: usize,
    lookahead_weight: f64,
    decay: f64,
    deadline: Option<Duration>,
    stop: Option<Arc<AtomicBool>>,
}

impl SabreMapper {
    /// Default configuration (lookahead window 20, weight 0.5, decay
    /// increment 0.001 — the reference implementation's classic values).
    pub fn new() -> SabreMapper {
        SabreMapper {
            lookahead: 20,
            lookahead_weight: 0.5,
            decay: 0.001,
            deadline: None,
            stop: None,
        }
    }

    /// Overrides the lookahead window size.
    pub fn with_lookahead(mut self, lookahead: usize) -> SabreMapper {
        self.lookahead = lookahead;
        self
    }

    /// The lookahead window the classic default of 20 scales to on a
    /// device with these statistics — halve on tiny uniform devices,
    /// double per signal, cap at 4×:
    ///
    /// * diameter ≤ 2 without cost skew: SWAP choices barely differ, a
    ///   deep scored window is wasted work — halve it;
    /// * cost skew ≥ 2 (calibrated devices): upcoming gates decide
    ///   whether a dear edge is worth crossing — double it;
    /// * diameter ≥ 6 (wide devices): routes span many steps, so the
    ///   front layer alone is myopic — double it.
    ///
    /// The result is a pure function of the device model, so engines
    /// applying it stay safely cacheable by (circuit, device) keys.
    pub fn scaled_lookahead(stats: &DeviceStats) -> usize {
        const BASE: usize = 20;
        let skewed = stats.cost_skew() >= 2.0;
        let wide = stats.diameter >= 6;
        if stats.diameter <= 2 && !skewed {
            return BASE / 2;
        }
        let factor = match (skewed, wide) {
            (true, true) => 4,
            (true, false) | (false, true) => 2,
            (false, false) => 1,
        };
        BASE * factor
    }

    /// Builder form of [`SabreMapper::scaled_lookahead`]: reads the
    /// statistics off `model` and sizes the lookahead window to it.
    pub fn with_scaled_lookahead(self, model: &DeviceModel) -> SabreMapper {
        let lookahead = SabreMapper::scaled_lookahead(model.stats());
        self.with_lookahead(lookahead)
    }

    /// Caps the wall-clock time of one `map` call (measured from its
    /// entry). Once it fires, the run degrades to cheap shortest-path
    /// stepping — valid output, bounded wind-down.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> SabreMapper {
        self.deadline = deadline;
        self
    }

    /// Attaches a cooperative stop flag (e.g. a racing supervisor's
    /// cancel handle, `qxmap_core::SolveControl::cancel_handle`), polled
    /// like the deadline.
    pub fn with_stop(mut self, stop: Arc<AtomicBool>) -> SabreMapper {
        self.stop = Some(stop);
        self
    }
}

impl Default for SabreMapper {
    fn default() -> SabreMapper {
        SabreMapper::new()
    }
}

impl Mapper for SabreMapper {
    fn name(&self) -> &str {
        "SABRE-style lookahead"
    }

    fn map_model(
        &self,
        circuit: &Circuit,
        model: &DeviceModel,
    ) -> Result<HeuristicResult, HeuristicError> {
        let start = Instant::now();
        let cm = model.coupling_map();
        let n = circuit.num_qubits();
        let m = cm.num_qubits();
        if n > m {
            return Err(HeuristicError::TooManyQubits {
                logical: n,
                physical: m,
            });
        }
        let circuit = circuit.decompose_swaps();
        if !cm.is_connected() && circuit.num_cnots() > 0 {
            return Err(HeuristicError::Unroutable);
        }
        let check = StopCheck::arm(self.deadline, self.stop.clone());

        // Reverse pass seeds the forward pass's initial layout. Only the
        // CNOT structure matters for routing, so measurements/barriers are
        // dropped and gate kinds kept as-is. A budget that already fired
        // skips the seeding round trip entirely (wind-down path).
        let initial = if check.stopped() {
            Layout::identity(n, m)
        } else {
            let mut reversed = Circuit::new(n);
            for g in circuit.gates().iter().rev() {
                match g {
                    Gate::One { .. } | Gate::Cnot { .. } => reversed.push(g.clone()),
                    _ => {}
                }
            }
            let seed = Layout::identity(n, m);
            let (_, reverse_final, ..) = self.route(&reversed, model, &check, seed)?;
            reverse_final
        };

        let (out, final_layout, swaps, reversals, model_cost) =
            self.route(&circuit, model, &check, initial.clone())?;
        let added = (out.original_cost() - circuit.original_cost()) as u64;
        Ok(HeuristicResult {
            mapped: out,
            initial_layout: initial,
            final_layout,
            added_gates: added,
            swaps,
            reversals,
            model_cost,
            runtime: start.elapsed(),
            wound_down: check.cause(),
        })
    }
}

impl SabreMapper {
    /// One routing pass; returns (circuit, final layout, swaps,
    /// reversals, model cost).
    fn route(
        &self,
        circuit: &Circuit,
        model: &DeviceModel,
        check: &StopCheck,
        mut layout: Layout,
    ) -> Result<(Circuit, Layout, u32, u32, u64), HeuristicError> {
        let cm = model.coupling_map();
        let dist = model.hops();
        // Scoring reads the cost-weighted distances: under uniform costs
        // every entry is a constant multiple of the hop count (identical
        // choices), while calibrated models steer lookahead toward cheap
        // edges. Termination logic (the wind-down stepping below) stays
        // on hops, whose strict decrease is the progress guarantee.
        let wdist = model.swap_distances();
        let dag = Dag::new(circuit);
        let gates = circuit.gates();
        let mut remaining_preds: Vec<usize> = (0..gates.len())
            .map(|g| dag.node(g).predecessors.len())
            .collect();
        let mut front: VecDeque<usize> = dag.roots().into();
        let mut out = Circuit::with_clbits(cm.num_qubits(), circuit.num_clbits());
        let mut swaps = 0u32;
        let mut reversals = 0u32;
        let mut model_cost = 0u64;
        let mut decay = vec![1.0f64; cm.num_qubits()];
        let edges = cm.undirected_edges();
        // Safety valve: strictly more swaps than any solvable instance needs.
        let mut stuck_guard = 0usize;
        let stuck_limit = 10 * (gates.len() + 1) * cm.num_qubits();

        while !front.is_empty() {
            // Execute every front gate that is executable right now.
            let mut progressed = false;
            let mut next_front: VecDeque<usize> = VecDeque::new();
            while let Some(g) = front.pop_front() {
                let executable = match &gates[g] {
                    Gate::Cnot { control, target } => {
                        let pc = layout.phys_of(*control).expect("complete");
                        let pt = layout.phys_of(*target).expect("complete");
                        cm.connected_either(pc, pt)
                    }
                    _ => true,
                };
                if executable {
                    progressed = true;
                    match &gates[g] {
                        Gate::Cnot { control, target } => {
                            let pc = layout.phys_of(*control).expect("complete");
                            let pt = layout.phys_of(*target).expect("complete");
                            let emitted = route::emit_cnot(&mut out, cm, pc, pt).expect("adjacent");
                            if emitted > 1 {
                                reversals += 1;
                            }
                            model_cost += model.execution_overhead(pc, pt).expect("adjacent pair");
                        }
                        Gate::One { kind, qubit } => {
                            let p = layout.phys_of(*qubit).expect("complete");
                            out.one(*kind, p);
                        }
                        Gate::Barrier(qs) => {
                            let mapped: Vec<usize> = qs
                                .iter()
                                .map(|&q| layout.phys_of(q).expect("complete"))
                                .collect();
                            out.push(Gate::Barrier(mapped));
                        }
                        Gate::Measure { qubit, clbit } => {
                            let p = layout.phys_of(*qubit).expect("complete");
                            out.measure(p, *clbit);
                        }
                        Gate::Swap { .. } => unreachable!("decomposed"),
                    }
                    for &s in &dag.node(g).successors {
                        remaining_preds[s] -= 1;
                        if remaining_preds[s] == 0 {
                            next_front.push_back(s);
                        }
                    }
                } else {
                    next_front.push_back(g);
                }
            }
            front = next_front;
            if front.is_empty() {
                break;
            }
            if progressed {
                decay.iter_mut().for_each(|d| *d = 1.0);
                continue;
            }

            // All front gates blocked: choose the best SWAP.
            let front_pairs: Vec<(usize, usize)> = front
                .iter()
                .filter_map(|&g| match gates[g] {
                    Gate::Cnot { control, target } => Some((control, target)),
                    _ => None,
                })
                .collect();

            // Deadline/race-cancel wind-down: once a budget fires, skip
            // the scored lookahead over every edge and instead step the
            // first blocked pair's control one hop along a shortest path
            // to its target — the naive routing move, which strictly
            // decreases that pair's distance, so the pass provably
            // terminates while doing O(degree) work per step.
            if check.stopped() {
                let &(c, t) = front_pairs.first().expect("blocked front has a CNOT");
                let pc = layout.phys_of(c).expect("complete");
                let pt = layout.phys_of(t).expect("complete");
                let next = cm
                    .neighbors(pc)
                    .into_iter()
                    .filter(|&v| dist[v][pt] < dist[pc][pt])
                    .min_by_key(|&v| dist[v][pt])
                    .ok_or(HeuristicError::Unroutable)?;
                route::emit_swap(&mut out, cm, pc, next).expect("neighbor edge");
                layout.swap_phys(pc, next);
                swaps += 1;
                model_cost += u64::from(model.swap_cost(pc, next).expect("edge"));
                continue;
            }
            let look_pairs = self.lookahead_pairs(&dag, gates, &front, &remaining_preds);

            let mut best: Option<((usize, usize), f64)> = None;
            for &(a, b) in &edges {
                layout.swap_phys(a, b);
                let f_cost: f64 = front_pairs
                    .iter()
                    .map(|&(c, t)| {
                        let pc = layout.phys_of(c).expect("complete");
                        let pt = layout.phys_of(t).expect("complete");
                        wdist[pc][pt] as f64
                    })
                    .sum();
                let l_cost: f64 = if look_pairs.is_empty() {
                    0.0
                } else {
                    look_pairs
                        .iter()
                        .map(|&(c, t)| {
                            let pc = layout.phys_of(c).expect("complete");
                            let pt = layout.phys_of(t).expect("complete");
                            wdist[pc][pt] as f64
                        })
                        .sum::<f64>()
                        / look_pairs.len() as f64
                };
                layout.swap_phys(a, b);
                let score = decay[a].max(decay[b])
                    * (f_cost / front_pairs.len().max(1) as f64 + self.lookahead_weight * l_cost);
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some(((a, b), score));
                }
            }
            let ((a, b), _) = best.ok_or(HeuristicError::Unroutable)?;
            route::emit_swap(&mut out, cm, a, b).expect("edge swap");
            layout.swap_phys(a, b);
            swaps += 1;
            model_cost += u64::from(model.swap_cost(a, b).expect("edge"));
            decay[a] += self.decay;
            decay[b] += self.decay;

            stuck_guard += 1;
            if stuck_guard > stuck_limit {
                return Err(HeuristicError::Unroutable);
            }
        }
        Ok((out, layout, swaps, reversals, model_cost))
    }

    /// The next `lookahead` CNOTs beyond the front (by gate index order).
    fn lookahead_pairs(
        &self,
        dag: &Dag,
        gates: &[Gate],
        front: &VecDeque<usize>,
        remaining_preds: &[usize],
    ) -> Vec<(usize, usize)> {
        let _ = dag;
        let in_front = |g: usize| front.contains(&g);
        let mut out = Vec::new();
        for g in 0..gates.len() {
            if out.len() >= self.lookahead {
                break;
            }
            // Not yet executed (has remaining preds or sits in the front),
            // and not a front member itself.
            if in_front(g) {
                continue;
            }
            if remaining_preds[g] == 0 {
                continue; // already executed
            }
            if let Gate::Cnot { control, target } = gates[g] {
                out.push((control, target));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveMapper;
    use qxmap_arch::devices;
    use qxmap_circuit::paper_example;

    #[test]
    fn lookahead_scales_with_device_statistics() {
        // Tiny uniform device: half the classic window.
        let qx4 = DeviceModel::paper(devices::ibm_qx4());
        assert_eq!(SabreMapper::scaled_lookahead(qx4.stats()), 10);
        // Wide device (diameter ≥ 6): doubled.
        let wide = DeviceModel::paper(devices::linear(10));
        assert!(wide.stats().diameter >= 6);
        assert_eq!(SabreMapper::scaled_lookahead(wide.stats()), 40);
        // Wide *and* skewed (calibrated edge at 3× the floor): capped 4×.
        let skewed = DeviceModel::paper(devices::linear(10)).with_swap_cost(0, 1, 21);
        assert!(skewed.stats().cost_skew() >= 2.0);
        assert_eq!(SabreMapper::scaled_lookahead(skewed.stats()), 80);
        // The builder wires the scaled value through.
        let mapper = SabreMapper::new().with_scaled_lookahead(&wide);
        assert_eq!(mapper.lookahead, 40);
    }

    #[test]
    fn sabre_is_deterministic() {
        let cm = devices::ibm_qx4();
        let c = paper_example();
        let a = SabreMapper::new().map(&c, &cm).unwrap();
        let b = SabreMapper::new().map(&c, &cm).unwrap();
        assert_eq!(a.mapped, b.mapped);
    }

    #[test]
    fn outputs_are_legal_and_accounted() {
        let cm = devices::ibm_qx4();
        let r = SabreMapper::new().map(&paper_example(), &cm).unwrap();
        for (pc, pt) in r.mapped.cnot_skeleton() {
            assert!(cm.has_edge(pc, pt));
        }
        assert_eq!(
            r.added_gates,
            7 * u64::from(r.swaps) + 4 * u64::from(r.reversals)
        );
        assert!(r.added_gates >= 4);
    }

    #[test]
    fn reverse_pass_layout_is_used() {
        // The initial layout generally differs from the identity after the
        // reverse pass on an asymmetric circuit.
        let cm = devices::ibm_qx4();
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        c.cx(0, 3);
        c.cx(0, 3);
        let r = SabreMapper::new().map(&c, &cm).unwrap();
        // (0,3) are distance-2 under the identity; a decent seed avoids
        // swapping three times.
        assert!(
            r.swaps <= 2,
            "seeded layout should cut swaps, got {}",
            r.swaps
        );
    }

    #[test]
    fn lookahead_handles_long_circuits() {
        let cm = devices::ibm_qx4();
        let c = qxmap_circuit::Circuit::new(5);
        let mut c = c;
        for i in 0..30 {
            c.cx(i % 5, (i + 2) % 5);
        }
        let r = SabreMapper::new().map(&c, &cm).unwrap();
        for (pc, pt) in r.mapped.cnot_skeleton() {
            assert!(cm.has_edge(pc, pt));
        }
        let naive = NaiveMapper::new().map(&c, &cm).unwrap();
        // SABRE should not be drastically worse than naive.
        assert!(r.swaps <= naive.swaps * 2 + 5);
    }

    #[test]
    fn single_qubit_circuits_need_nothing() {
        let cm = devices::ibm_qx4();
        let mut c = Circuit::new(3);
        c.h(0).t(2);
        let r = SabreMapper::new().map(&c, &cm).unwrap();
        assert_eq!(r.added_gates, 0);
    }

    #[test]
    fn too_many_qubits_is_reported() {
        let cm = devices::ibm_qx4();
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        assert!(matches!(
            SabreMapper::new().map(&c, &cm),
            Err(HeuristicError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn stop_flag_and_deadline_degrade_not_invalidate() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        use std::time::Duration;

        let cm = devices::linear(6);
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        c.cx(1, 4);
        c.cx(0, 3);
        // A pre-raised stop flag: no reverse seeding pass, shortest-path
        // stepping only — still a complete, coupling-legal circuit.
        let flag = Arc::new(AtomicBool::new(true));
        let stopped = SabreMapper::new()
            .with_stop(Arc::clone(&flag))
            .map(&c, &cm)
            .unwrap();
        for (pc, pt) in stopped.mapped.cnot_skeleton() {
            assert!(cm.has_edge(pc, pt));
        }
        // An expired deadline behaves the same way.
        let timed = SabreMapper::new()
            .with_deadline(Some(Duration::ZERO))
            .map(&c, &cm)
            .unwrap();
        for (pc, pt) in timed.mapped.cnot_skeleton() {
            assert!(cm.has_edge(pc, pt));
        }
        assert_eq!(stopped.mapped, timed.mapped, "both wind-down paths agree");
        // A lowered flag restores the full scored search.
        flag.store(false, std::sync::atomic::Ordering::Relaxed);
        let resumed = SabreMapper::new().with_stop(flag).map(&c, &cm).unwrap();
        let reference = SabreMapper::new().map(&c, &cm).unwrap();
        assert_eq!(resumed.mapped, reference.mapped);
    }

    #[test]
    fn model_cost_matches_paper_accounting_on_qx4() {
        let cm = devices::ibm_qx4();
        let r = SabreMapper::new().map(&paper_example(), &cm).unwrap();
        assert_eq!(
            r.model_cost,
            7 * u64::from(r.swaps) + 4 * u64::from(r.reversals)
        );
        assert_eq!(r.model_cost, r.added_gates);
    }
}

//! The end-to-end exact mapper.
//!
//! The per-subset subinstances of Section 4.1 are independent
//! optimization problems, so [`ExactMapper::map`] distributes them over a
//! scoped worker pool. The workers cooperate through shared atomics:
//!
//! * the best achievable cost so far — the tighter of a call-local
//!   [`crate::SharedBound`] (this run's own candidates) and the bound of
//!   [`MapperConfig::control`], which an external racer tightens with
//!   costs whose results it holds (this run only reads it). Each
//!   subinstance is encoded and then minimized strictly below the
//!   effective bound (read again after the encode, which a racer may
//!   outlast), so subsets that cannot improve are refuted instead of
//!   re-optimized, exactly like the sequential loop;
//! * the total conflict budget, drawn from one atomic pool so the
//!   configured total stays strict regardless of thread count;
//! * the wall-clock deadline and the cancel flag, checked at solver
//!   conflicts and between encoding phases.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qxmap_arch::{connected_subsets, CostedSwapTable, CouplingMap, DeviceModel, Layout};
use qxmap_circuit::Circuit;
use qxmap_sat::{minimize, MinimizeError, MinimizeOptions};

use crate::config::{MapError, MapperConfig};
use crate::encoding::Encoding;
use crate::solution::{assemble, MappingResult};

/// Largest (sub)device the exhaustive permutation enumeration supports.
/// Facades (e.g. `qxmap-map`'s portfolio engine) use this to decide when
/// exact mapping is in regime and when to fall back to heuristics.
pub const MAX_EXACT_QUBITS: usize = 8;

/// Maps circuits to a device with the minimal number of SWAP and H
/// operations (or close-to-minimal under the Section 4 performance
/// options).
///
/// ```
/// use qxmap_arch::devices;
/// use qxmap_circuit::Circuit;
/// use qxmap_core::{ExactMapper, MapperConfig, Strategy};
///
/// let mut c = Circuit::new(3);
/// c.cx(0, 1);
/// c.cx(1, 2);
/// let mapper = ExactMapper::with_config(
///     devices::ibm_qx4(),
///     MapperConfig::minimal().with_subsets(true),
/// );
/// let result = mapper.map(&c)?;
/// assert_eq!(result.cost, 0); // both CNOTs fit the coupling directly
/// # Ok::<(), qxmap_core::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExactMapper {
    model: DeviceModel,
    config: MapperConfig,
}

impl ExactMapper {
    /// A mapper for `cm` with the guaranteed-minimal default
    /// configuration (and the paper's uniform cost model).
    pub fn new(cm: CouplingMap) -> ExactMapper {
        ExactMapper::with_config(cm, MapperConfig::minimal())
    }

    /// A mapper with an explicit configuration; the device is priced
    /// uniformly under the configuration's [`MapperConfig::cost_model`]
    /// (the seed accounting). Use [`ExactMapper::for_model`] for
    /// calibration-aware per-edge costs.
    pub fn with_config(cm: CouplingMap, config: MapperConfig) -> ExactMapper {
        let model = DeviceModel::uniform(cm, config.cost_model);
        ExactMapper { model, config }
    }

    /// A mapper over an explicit [`DeviceModel`]: every objective weight —
    /// per-permutation SWAP costs and per-edge reversal surcharges — is
    /// read from the model, so calibration overrides steer the optimum.
    /// The configuration's [`MapperConfig::cost_model`] is ignored (the
    /// model *is* the cost model).
    pub fn for_model(model: DeviceModel, config: MapperConfig) -> ExactMapper {
        ExactMapper { model, config }
    }

    /// The device being mapped to.
    pub fn coupling_map(&self) -> &CouplingMap {
        self.model.coupling_map()
    }

    /// The device/cost model every objective weight is read from.
    pub fn device_model(&self) -> &DeviceModel {
        &self.model
    }

    /// The active configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Builds (without solving) the SAT instance for `circuit` on the full
    /// device and reports its size — the paper's search-space discussion
    /// (Examples 5 and 8) made measurable. Subset restriction and the
    /// search bound are ignored here: the instance encodes the full
    /// permutation table, and the per-subset, bound-pruned instances
    /// [`ExactMapper::map`] solves are never larger.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExactMapper::map`], except that infeasibility
    /// cannot be detected without solving.
    pub fn encoding_stats(
        &self,
        circuit: &Circuit,
    ) -> Result<crate::encoding::EncodingStats, MapError> {
        let n = circuit.num_qubits();
        let m = self.model.num_qubits();
        if n > m {
            return Err(MapError::TooManyQubits {
                logical: n,
                physical: m,
            });
        }
        if m > MAX_EXACT_QUBITS {
            return Err(MapError::DeviceTooLarge {
                qubits: m,
                max: MAX_EXACT_QUBITS,
            });
        }
        let circuit = circuit.decompose_swaps();
        let skeleton = circuit.cnot_skeleton();
        if skeleton.is_empty() {
            return Ok(crate::encoding::EncodingStats {
                variables: 0,
                clauses: 0,
                mapping_variables: 0,
                change_points: 0,
                permutations: 0,
                pruned: 0,
                objective_terms: 0,
                build_us: 0,
            });
        }
        let all: Vec<usize> = (0..m).collect();
        let table = self.model.costed_table(&all);
        let change_points = self.config.strategy.change_points(&skeleton);
        let enc = Encoding::build(&skeleton, n, &self.model, &table, &change_points);
        Ok(enc.stats())
    }

    /// Maps `circuit`, returning the minimal (or close-to-minimal, per the
    /// configuration) realization.
    ///
    /// Input SWAP gates are decomposed into CNOTs first; barriers and
    /// measurements are carried through.
    ///
    /// # Errors
    ///
    /// * [`MapError::TooManyQubits`] if `n > m`;
    /// * [`MapError::DeviceTooLarge`] if the (sub)instance would need
    ///   permutations of more than 8 qubits;
    /// * [`MapError::Infeasible`] if no valid mapping exists under the
    ///   configured restrictions;
    /// * [`MapError::BudgetExhausted`] if the conflict budget, the
    ///   wall-clock deadline, or an external cancellation stopped the
    ///   search before any mapping was found.
    pub fn map(&self, circuit: &Circuit) -> Result<MappingResult, MapError> {
        let start = Instant::now();
        let n = circuit.num_qubits();
        let m = self.model.num_qubits();
        if n > m {
            return Err(MapError::TooManyQubits {
                logical: n,
                physical: m,
            });
        }
        let circuit = circuit.decompose_swaps();
        let skeleton = circuit.cnot_skeleton();

        // Two "search strictly below this" bounds compose, each read at
        // every subinstance start: the *local* bound, private to this
        // call and tightened by its own candidates (so one `map` call
        // never poisons the next on a reused mapper), and the *external*
        // bound of the attached control, which a racing supervisor
        // tightens with costs whose results it holds itself — this call
        // only reads it, never writes it.
        let local_bound = crate::bound::SharedBound::new(self.config.minimize.initial_upper_bound);
        let external_bound = self.config.control.bound().clone();

        if skeleton.is_empty() {
            // The trivial mapping costs 0; only a demand for strictly
            // below 0 can rule it out.
            if opt_min(local_bound.get(), external_bound.get()) == Some(0) {
                return Err(MapError::Infeasible);
            }
            return Ok(self.trivial(&circuit, start));
        }

        // Section 4.1: subsets of physical qubits.
        let subsets: Vec<Vec<usize>> = if self.config.use_subsets && n < m {
            connected_subsets(self.model.coupling_map(), n)
        } else {
            vec![(0..m).collect()]
        };
        if subsets.is_empty() {
            return Err(MapError::Infeasible);
        }
        if let Some(too_big) = subsets.iter().find(|s| s.len() > MAX_EXACT_QUBITS) {
            return Err(MapError::DeviceTooLarge {
                qubits: too_big.len(),
                max: MAX_EXACT_QUBITS,
            });
        }

        let change_points = self.config.strategy.change_points(&skeleton);

        let shared = SharedSolveState {
            subsets: &subsets,
            next: AtomicUsize::new(0),
            undecided: AtomicBool::new(false),
            candidates: subsets.iter().map(|_| Mutex::new(None)).collect(),
            local_bound,
            external_bound,
            refutation_floor: AtomicU64::new(u64::MAX),
            // The configured total stays strict under parallelism: every
            // solver draws its conflicts from this one pool.
            budget_pool: self
                .config
                .minimize
                .conflict_budget
                .map(|b| Arc::new(AtomicU64::new(b))),
            cancel: self.config.control.cancel_handle(),
            deadline: self.config.deadline.map(|d| start + d),
            start,
        };
        let workers = self
            .config
            .solve_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
            .clamp(1, subsets.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.solve_subsets(&circuit, &skeleton, &change_points, &shared));
            }
        });

        let undecided = shared.undecided.into_inner();
        let refutation_floor = shared.refutation_floor.into_inner();
        let best = shared
            .candidates
            .into_iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let candidate = slot.into_inner().expect("workers have exited");
                candidate.map(|c| (i, c))
            })
            // Workers discard strictly-worse candidates, but equal-cost
            // ones can land in several slots; the lowest subset index
            // wins, matching the sequential iteration order.
            .min_by(|(i, a), (j, b)| (a.cost, i).cmp(&(b.cost, j)))
            .map(|(_, c)| c);

        match best {
            Some(mut result) => {
                // Optimal overall only if every subinstance was decided
                // *for this cost*: a subset refuted against an externally
                // tightened bound below the returned cost proves nothing
                // about the gap in between.
                result.proved_optimal &= !undecided || result.cost == 0;
                result.proved_optimal &= result.cost <= refutation_floor;
                result.runtime = start.elapsed();
                Ok(result)
            }
            None if undecided => Err(MapError::BudgetExhausted),
            None => Err(MapError::Infeasible),
        }
    }

    /// One worker of the per-subset pool: claims subset indices from the
    /// shared queue and solves each subinstance strictly below the
    /// effective (local ∧ external) bound, until the queue drains, the
    /// run cannot improve (bound 0), or a budget/deadline/cancellation
    /// stops it.
    fn solve_subsets(
        &self,
        circuit: &Circuit,
        skeleton: &[(usize, usize)],
        change_points: &std::collections::BTreeSet<usize>,
        shared: &SharedSolveState<'_>,
    ) {
        let n = circuit.num_qubits();
        loop {
            let i = shared.next.fetch_add(1, Ordering::Relaxed);
            let Some(subset) = shared.subsets.get(i) else {
                return; // queue drained
            };
            if shared.stopped() {
                // This claimed subset (and whatever the other workers are
                // about to claim) stays unprocessed: the run is undecided.
                shared.undecided.store(true, Ordering::Relaxed);
                return;
            }
            // The effective bound composes the call-local and external
            // bounds, read at each subinstance start and again before it
            // minimizes.
            let ub = shared.effective_bound();
            if ub == Some(0) {
                // Nothing beats 0: the remaining subsets are vacuously
                // refuted, the run stays decided.
                return;
            }

            let trace = &self.config.trace;
            let local_model = self.model.subgraph_model(subset);
            let table = self.model.costed_table(subset);
            let mut encode_span = trace.span(&format!("subset{i}/encode"));
            let Some(enc) = Encoding::build_interruptible(
                skeleton,
                n,
                &local_model,
                &table,
                change_points,
                ub,
                &mut || shared.stopped(),
            ) else {
                encode_span.counter("interrupted", 1);
                shared.undecided.store(true, Ordering::Relaxed);
                continue; // the next claim's stop check winds the worker down
            };
            let enc_stats = enc.stats();
            encode_span.counter("variables", enc_stats.variables as u64);
            encode_span.counter("clauses", enc_stats.clauses as u64);
            encode_span.counter("build_us", enc_stats.build_us);
            encode_span.counter("permutations", enc_stats.permutations as u64);
            encode_span.counter("pruned", enc_stats.pruned as u64);
            encode_span.end();
            self.minimize_subset(
                i,
                subset,
                &table,
                enc,
                ub,
                circuit,
                change_points.len(),
                shared,
            );
        }
    }

    /// Minimizes subinstance `i`, whose transition table was encoded
    /// under the strict bound `encoded_under`, and files its candidate.
    ///
    /// The bound is read again first: a racing heuristic may have
    /// tightened it while the table was encoded. The search runs below
    /// the tighter of the two, which is sound because the permutations
    /// encoded above the newer bound cannot appear in a model below it,
    /// and a refutation is recorded against that bound, the one actually
    /// searched under.
    #[allow(clippy::too_many_arguments)]
    fn minimize_subset(
        &self,
        i: usize,
        subset: &[usize],
        table: &CostedSwapTable,
        mut enc: Encoding,
        encoded_under: Option<u64>,
        circuit: &Circuit,
        num_change_points: usize,
        shared: &SharedSolveState<'_>,
    ) {
        let ub = opt_min(encoded_under, shared.effective_bound());
        if ub == Some(0) {
            // Nothing beats 0: vacuously refuted, as at the claim.
            return;
        }
        let trace = &self.config.trace;
        let encoded_clauses = enc.solver.num_clauses();
        let objective = std::mem::take(&mut enc.objective);
        enc.solver.set_interrupt(Some(Arc::clone(&shared.cancel)));
        enc.solver.set_deadline(shared.deadline);
        enc.solver
            .set_shared_conflict_pool(shared.budget_pool.clone());
        let options = MinimizeOptions {
            // The shared pool governs; no per-call cap on top of it.
            conflict_budget: None,
            initial_upper_bound: ub,
        };
        let conflicts_before = enc.solver.stats().conflicts;
        let mut minimize_span = trace.span(&format!("subset{i}/minimize"));
        let outcome = minimize(&mut enc.solver, &objective, options);
        minimize_span.counter("conflicts", enc.solver.stats().conflicts - conflicts_before);
        // The objective encoding's size, beside the encode span's
        // `clauses`: one totalizer leaf per group, and the problem
        // clauses minimize added (0 when no bound was ever needed).
        minimize_span.counter("objective_leaves", objective.len() as u64);
        minimize_span.counter(
            "objective_clauses",
            (enc.solver.num_clauses() - encoded_clauses) as u64,
        );
        match &outcome {
            Ok(min) => minimize_span.counter("iterations", u64::from(min.iterations)),
            Err(MinimizeError::Unsatisfiable) => minimize_span.counter("unsat", 1),
            Err(MinimizeError::BudgetExhausted) => {
                minimize_span.counter("budget_exhausted", 1);
            }
        }
        // The interrupt cause of the *last* solver call — on a
        // budget cut, what actually stopped the search.
        if let Some(cause) = enc.solver.last_stop_cause() {
            minimize_span.counter(cause.label(), 1);
        }
        minimize_span.end();
        let minimum = match outcome {
            Ok(min) => min,
            // Refuted strictly below `ub`: decided, but only *down to
            // `ub`* — the floor records how far refutations reach, so
            // the final result can't claim a proof across the gap an
            // externally tightened bound left open.
            Err(MinimizeError::Unsatisfiable) => {
                if let Some(b) = ub {
                    shared.refutation_floor.fetch_min(b, Ordering::Relaxed);
                }
                return;
            }
            Err(MinimizeError::BudgetExhausted) => {
                shared.undecided.store(true, Ordering::Relaxed);
                return;
            }
        };
        if !minimum.proved_optimal {
            shared.undecided.store(true, Ordering::Relaxed);
        }
        // Publish the cost before the (comparatively slow) circuit
        // assembly so peers prune against it as early as possible. A
        // failed tighten means a peer already holds a candidate at
        // least this good — drop ours.
        if !shared.local_bound.tighten(minimum.cost) {
            return;
        }

        let layouts = enc.extract_layouts(&minimum.model);
        let perms: BTreeMap<usize, _> = enc
            .extract_permutations(&minimum.model)
            .into_iter()
            .collect();
        let (mapped, initial_layout, final_layout, swaps, reversals, placements) = assemble(
            circuit,
            self.model.coupling_map(),
            subset,
            &layouts,
            &perms,
            table,
        );
        let added = (mapped.original_cost() - circuit.original_cost()) as u64;
        *shared.candidates[i]
            .lock()
            .expect("no panics under the lock") = Some(MappingResult {
            cost: minimum.cost,
            added_gates: added,
            swaps,
            reversals,
            mapped,
            initial_layout,
            final_layout,
            subset: subset.to_vec(),
            num_change_points,
            placements,
            proved_optimal: minimum.proved_optimal,
            iterations: minimum.iterations,
            runtime: shared.start.elapsed(),
        });
    }

    /// A circuit with no CNOTs maps 1:1 onto the first `n` physical qubits.
    fn trivial(&self, circuit: &Circuit, start: Instant) -> MappingResult {
        let n = circuit.num_qubits();
        let m = self.model.num_qubits();
        let layout = Layout::identity(n, m);
        let mapped = circuit.map_qubits(m, |q| q);
        MappingResult {
            cost: 0,
            added_gates: 0,
            swaps: 0,
            reversals: 0,
            mapped,
            initial_layout: layout.clone(),
            final_layout: layout,
            subset: (0..m).collect(),
            num_change_points: 0,
            placements: Vec::new(),
            proved_optimal: true,
            iterations: 0,
            runtime: start.elapsed(),
        }
    }
}

/// Everything the per-subset workers share, by reference, for one
/// [`ExactMapper::map`] call.
struct SharedSolveState<'a> {
    /// The Section 4.1 subinstances, in lexicographic order.
    subsets: &'a [Vec<usize>],
    /// Work queue: the next unclaimed subset index.
    next: AtomicUsize,
    /// Whether any subinstance went unprocessed or unproved — if so, the
    /// final result cannot claim optimality and an empty result set means
    /// budget exhaustion rather than infeasibility.
    undecided: AtomicBool,
    /// One slot per subset; workers only fill slots whose candidate
    /// tightened the local bound.
    candidates: Vec<Mutex<Option<MappingResult>>>,
    /// Best candidate cost this call has found (exclusive). Private to
    /// the call, so a reused mapper starts every `map` fresh.
    local_bound: crate::bound::SharedBound,
    /// The attached control's bound, tightened by an external racer that
    /// holds results of its own. Read-only here.
    external_bound: crate::bound::SharedBound,
    /// The lowest bound any subset was refuted against (`u64::MAX` when
    /// nothing was refuted under a bound): refutations prove nothing
    /// below this, so a final cost above it forfeits the proof.
    refutation_floor: AtomicU64,
    /// Remaining total conflicts, drawn per conflict by every solver.
    budget_pool: Option<Arc<AtomicU64>>,
    /// External cancellation, checked at conflicts and between phases.
    cancel: Arc<AtomicBool>,
    /// Wall-clock cutoff derived from [`MapperConfig::deadline`].
    deadline: Option<Instant>,
    /// When the `map` call began (for per-candidate runtimes).
    start: Instant,
}

/// `min` over optional exclusive bounds, where `None` is unbounded.
fn opt_min(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl SharedSolveState<'_> {
    /// The bound subinstances search strictly below: the tighter of the
    /// call-local and external bounds.
    fn effective_bound(&self) -> Option<u64> {
        opt_min(self.local_bound.get(), self.external_bound.get())
    }

    /// Whether the run should stop before investing in more work:
    /// cancelled, past the deadline, or out of conflicts.
    fn stopped(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
            || self
                .budget_pool
                .as_ref()
                .is_some_and(|p| p.load(Ordering::Relaxed) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use crate::verify;
    use qxmap_arch::devices;
    use qxmap_circuit::paper_example;

    #[test]
    fn paper_example_is_four() {
        let mapper = ExactMapper::new(devices::ibm_qx4());
        let r = mapper.map(&paper_example()).unwrap();
        assert_eq!(r.cost, 4);
        assert_eq!(r.added_gates, 4);
        assert_eq!(r.swaps, 0);
        assert_eq!(r.reversals, 1);
        assert!(r.proved_optimal);
        assert_eq!(r.mapped_cost(), 12); // 8 original + 4 H
        verify::check_coupling(&r.mapped, mapper.coupling_map()).unwrap();
    }

    #[test]
    fn paper_example_with_subsets_matches_minimum() {
        let mapper = ExactMapper::with_config(
            devices::ibm_qx4(),
            MapperConfig::minimal().with_subsets(true),
        );
        let r = mapper.map(&paper_example()).unwrap();
        assert_eq!(r.cost, 4);
        assert_eq!(r.subset.len(), 4);
        assert!(r.subset.contains(&2), "connected 4-subsets contain the hub");
    }

    #[test]
    fn strategies_are_no_better_than_minimal() {
        let circuit = paper_example();
        let minimal = ExactMapper::new(devices::ibm_qx4())
            .map(&circuit)
            .unwrap()
            .cost;
        for strategy in [
            Strategy::DisjointQubits,
            Strategy::OddGates,
            Strategy::QubitTriangle,
        ] {
            let r = ExactMapper::with_config(
                devices::ibm_qx4(),
                MapperConfig::minimal().with_strategy(strategy.clone()),
            )
            .map(&circuit)
            .unwrap();
            assert!(r.cost >= minimal, "{strategy:?} beat the proven minimum?!");
            verify::check_coupling(&r.mapped, &devices::ibm_qx4()).unwrap();
        }
    }

    #[test]
    fn example10_strategies_stay_minimal_here() {
        // The paper notes all three strategies still reach F = 4 on the
        // running example.
        let circuit = paper_example();
        for strategy in [
            Strategy::DisjointQubits,
            Strategy::OddGates,
            Strategy::QubitTriangle,
        ] {
            let r = ExactMapper::with_config(
                devices::ibm_qx4(),
                MapperConfig::minimal().with_strategy(strategy),
            )
            .map(&circuit)
            .unwrap();
            assert_eq!(r.cost, 4);
        }
    }

    #[test]
    fn window_strategy_end_to_end() {
        let circuit = paper_example();
        let minimal = ExactMapper::new(devices::ibm_qx4())
            .map(&circuit)
            .unwrap()
            .cost;
        for k in [1usize, 2, 3] {
            let r = ExactMapper::with_config(
                devices::ibm_qx4(),
                MapperConfig::minimal().with_strategy(Strategy::Window(k)),
            )
            .map(&circuit)
            .unwrap();
            assert!(r.cost >= minimal, "Window({k}) beat the minimum");
            verify::check_coupling(&r.mapped, &devices::ibm_qx4()).unwrap();
        }
        // Window(1) is the unrestricted method: exactly minimal.
        let r = ExactMapper::with_config(
            devices::ibm_qx4(),
            MapperConfig::minimal().with_strategy(Strategy::Window(1)),
        )
        .map(&circuit)
        .unwrap();
        assert_eq!(r.cost, minimal);
    }

    #[test]
    fn placements_describe_every_skeleton_gate() {
        let circuit = paper_example();
        let cm = devices::ibm_qx4();
        let r = ExactMapper::new(cm.clone()).map(&circuit).unwrap();
        let skeleton = circuit.cnot_skeleton();
        assert_eq!(r.placements.len(), skeleton.len());
        for (k, p) in r.placements.iter().enumerate() {
            assert_eq!(p.gate, k);
            assert_eq!((p.control, p.target), skeleton[k]);
            // The physical pair is a legal edge in the executed direction.
            if p.reversed {
                assert!(cm.has_edge(p.phys_target, p.phys_control));
            } else {
                assert!(cm.has_edge(p.phys_control, p.phys_target));
            }
        }
        assert_eq!(
            r.placements.iter().filter(|p| p.reversed).count() as u32,
            r.reversals
        );
    }

    #[test]
    fn encoding_stats_match_example5() {
        // Example 5: the running example has n·m·|G| = 4·5·5 = 100 mapping
        // variables on the full device.
        let mapper = ExactMapper::new(devices::ibm_qx4());
        let stats = mapper.encoding_stats(&paper_example()).unwrap();
        assert_eq!(stats.mapping_variables, 100);
        assert_eq!(stats.change_points, 4);
        assert_eq!(stats.permutations, 120);
        // Trivial circuits have empty instances.
        let mut trivial = Circuit::new(2);
        trivial.h(0);
        let stats = mapper.encoding_stats(&trivial).unwrap();
        assert_eq!(stats.variables, 0);
    }

    #[test]
    fn minimize_spans_report_the_objective_encoding() {
        let trace = crate::trace::SpanRecorder::new();
        let mapper = ExactMapper::with_config(
            devices::ibm_qx4(),
            MapperConfig::minimal().with_trace(trace.clone()),
        );
        mapper.map(&paper_example()).unwrap();
        let spans = trace.finish().expect("enabled").spans;
        let minimize = spans
            .iter()
            .find(|s| s.path == "subset0/minimize")
            .expect("one subinstance");
        let counter = |name: &str| {
            minimize
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        // One leaf per change point and one per gate: every gate carries
        // reversal costs, since no QX4 edge runs both ways.
        assert_eq!(counter("objective_leaves"), Some(4 + 5));
        assert!(counter("objective_clauses").is_some_and(|c| c > 0));
    }

    #[test]
    fn encode_spans_count_kept_and_pruned_permutations() {
        let table = qxmap_arch::CostedSwapTable::new(&devices::ibm_qx4());
        // Without a bound the full table is encoded; a bound of 15 (what a
        // two-SWAP heuristic answer would give) keeps only permutations
        // of at most two SWAPs.
        let two_swaps = table.cheaper_than(Some(15)).len();
        assert!(1 < two_swaps && two_swaps < 120);
        for (bound, kept) in [(None, 120), (Some(15), two_swaps)] {
            let trace = crate::trace::SpanRecorder::new();
            let mapper = ExactMapper::with_config(
                devices::ibm_qx4(),
                MapperConfig::minimal()
                    .with_trace(trace.clone())
                    .with_minimize(MinimizeOptions::default().with_initial_upper_bound(bound)),
            );
            let result = mapper.map(&paper_example()).unwrap();
            assert_eq!(result.cost, 4);
            assert!(result.proved_optimal);
            let spans = trace.finish().expect("enabled").spans;
            let encode = spans
                .iter()
                .find(|s| s.path == "subset0/encode")
                .expect("one subinstance");
            let counter = |name: &str| {
                encode
                    .counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
            };
            assert_eq!(counter("permutations"), Some(kept as u64), "{bound:?}");
            assert_eq!(counter("pruned"), Some(120 - kept as u64), "{bound:?}");
        }
    }

    #[test]
    fn mapper_is_reusable_across_calls() {
        // Candidate bounds are call-local: a second map() on the same
        // mapper must not be pruned by the first call's result.
        let mapper = ExactMapper::new(devices::ibm_qx4());
        let first = mapper.map(&paper_example()).unwrap();
        let second = mapper.map(&paper_example()).unwrap();
        assert_eq!(first.cost, 4);
        assert_eq!(second.cost, 4);
        assert!(second.proved_optimal);
    }

    #[test]
    fn external_control_bound_prunes_but_is_never_written() {
        use crate::config::SolveControl;

        // A bound at the known optimum: nothing strictly better exists.
        let control = SolveControl::new();
        control.bound().tighten(4);
        let mapper = ExactMapper::with_config(
            devices::ibm_qx4(),
            MapperConfig::minimal().with_control(control.clone()),
        );
        assert!(matches!(
            mapper.map(&paper_example()),
            Err(MapError::Infeasible)
        ));
        assert_eq!(
            control.bound().get(),
            Some(4),
            "the mapper reads the external bound but never writes it"
        );

        // A looser bound admits the proven optimum — and still stays
        // untouched, whatever the per-subset interleaving.
        let control = SolveControl::new();
        control.bound().tighten(5);
        let mapper = ExactMapper::with_config(
            devices::ibm_qx4(),
            MapperConfig::minimal()
                .with_subsets(true)
                .with_control(control.clone()),
        );
        let r = mapper.map(&paper_example()).unwrap();
        assert_eq!(r.cost, 4);
        assert!(r.proved_optimal);
        assert_eq!(control.bound().get(), Some(5));
    }

    #[test]
    fn too_many_qubits() {
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        let err = ExactMapper::new(devices::ibm_qx4()).map(&c).unwrap_err();
        assert!(matches!(
            err,
            MapError::TooManyQubits {
                logical: 6,
                physical: 5
            }
        ));
    }

    #[test]
    fn trivial_circuit_costs_zero() {
        let mut c = Circuit::new(3);
        c.h(0).t(1).x(2);
        let r = ExactMapper::new(devices::ibm_qx4()).map(&c).unwrap();
        assert_eq!(r.cost, 0);
        assert_eq!(r.mapped_cost(), 3);
        assert!(r.proved_optimal);
    }

    #[test]
    fn input_swaps_are_decomposed() {
        let mut c = Circuit::new(2);
        c.swap_gate(0, 1);
        let r = ExactMapper::new(devices::ibm_qx4()).map(&c).unwrap();
        // Decomposed SWAP = CX(0,1) CX(1,0) CX(0,1); on QX4 one direction
        // must be repaired: minimal F = 4.
        assert_eq!(r.cost, 4);
        verify::check_coupling(&r.mapped, &devices::ibm_qx4()).unwrap();
    }

    #[test]
    fn device_too_large_without_subsets() {
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        let err = ExactMapper::new(devices::ibm_qx5()).map(&c).unwrap_err();
        assert!(matches!(err, MapError::DeviceTooLarge { qubits: 16, .. }));
        // With subsets the same instance is fine (3-qubit subgraphs).
        let r = ExactMapper::with_config(
            devices::ibm_qx5(),
            MapperConfig::minimal().with_subsets(true),
        )
        .map(&c)
        .unwrap();
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn cost_equals_recount_on_qx4() {
        // added_gates must equal the modelled F on QX4 (7/4 cost model is
        // exact there).
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(2, 3);
        c.cx(0, 3);
        c.cx(1, 2);
        let r = ExactMapper::new(devices::ibm_qx4()).map(&c).unwrap();
        assert_eq!(r.cost, r.added_gates);
        assert_eq!(
            r.added_gates,
            7 * u64::from(r.swaps) + 4 * u64::from(r.reversals)
        );
    }

    #[test]
    fn final_layout_consistent_with_swap_count() {
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        c.cx(1, 2);
        c.cx(0, 2);
        let r = ExactMapper::new(devices::ibm_qx4()).map(&c).unwrap();
        if r.swaps == 0 {
            assert_eq!(r.initial_layout, r.final_layout);
        }
        verify::check_coupling(&r.mapped, &devices::ibm_qx4()).unwrap();
    }

    /// Encodes the paper example's one QX4 subinstance with no bound,
    /// then tightens the external bound to `late` before it minimizes —
    /// the window in which a racing heuristic publishes its cost. Returns
    /// the filed candidate, the refutation floor and the undecided flag.
    fn minimize_after_late_bound(late: u64) -> (Option<MappingResult>, u64, bool) {
        let mapper = ExactMapper::new(devices::ibm_qx4());
        let circuit = paper_example().decompose_swaps();
        let skeleton = circuit.cnot_skeleton();
        let change_points = mapper.config.strategy.change_points(&skeleton);
        let subsets = vec![(0..5).collect::<Vec<usize>>()];
        let shared = SharedSolveState {
            subsets: &subsets,
            next: AtomicUsize::new(1),
            undecided: AtomicBool::new(false),
            candidates: vec![Mutex::new(None)],
            local_bound: crate::bound::SharedBound::unbounded(),
            external_bound: crate::bound::SharedBound::unbounded(),
            refutation_floor: AtomicU64::new(u64::MAX),
            budget_pool: None,
            cancel: Arc::new(AtomicBool::new(false)),
            deadline: None,
            start: Instant::now(),
        };
        let table = mapper.model.costed_table(&subsets[0]);
        let enc = Encoding::build_interruptible(
            &skeleton,
            circuit.num_qubits(),
            &mapper.model.subgraph_model(&subsets[0]),
            &table,
            &change_points,
            None,
            &mut || false,
        )
        .expect("never interrupted");
        assert_eq!(enc.stats().pruned, 0, "encoded with no bound");
        assert!(shared.external_bound.tighten(late));
        mapper.minimize_subset(
            0,
            &subsets[0],
            &table,
            enc,
            None,
            &circuit,
            change_points.len(),
            &shared,
        );
        let candidate = shared.candidates[0].lock().unwrap().take();
        (
            candidate,
            shared.refutation_floor.load(Ordering::Relaxed),
            shared.undecided.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn a_bound_tightened_during_the_encode_reaches_the_minimizer() {
        let unbounded = ExactMapper::new(devices::ibm_qx4())
            .map(&paper_example())
            .unwrap();
        assert_eq!((unbounded.cost, unbounded.proved_optimal), (4, true));
        // At the optimum, nothing lies below the late bound: the search
        // under it refutes, and the floor records that bound. A search
        // under the encode's (absent) bound would have filed a cost-4
        // candidate instead.
        let (candidate, floor, undecided) = minimize_after_late_bound(4);
        assert!(candidate.is_none(), "searched below the late bound");
        assert_eq!(floor, 4);
        assert!(!undecided);
        // Above the optimum, the optimum and its certificate stand.
        let (candidate, floor, undecided) = minimize_after_late_bound(5);
        let found = candidate.expect("the optimum lies below 5");
        assert_eq!(found.cost, unbounded.cost);
        assert!(found.proved_optimal);
        assert_eq!(floor, u64::MAX, "nothing was refuted");
        assert!(!undecided);
        verify::check_coupling(&found.mapped, &devices::ibm_qx4()).unwrap();
    }
}

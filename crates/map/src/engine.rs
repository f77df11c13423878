//! The [`Engine`] abstraction and the adapters over the legacy mappers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use qxmap_core::{EncodingStats, ExactMapper, MapperConfig, SolveControl, MAX_EXACT_QUBITS};
use qxmap_heuristic::{
    AStarMapper, HeuristicResult, Mapper, NaiveMapper, SabreMapper, StochasticSwapMapper, StopCheck,
};
use qxmap_sat::MinimizeOptions;

use crate::cache::SolveCache;
use crate::error::MapperError;
use crate::report::MapReport;
use crate::request::{Guarantee, MapRequest};

/// Anything that can answer a [`MapRequest`] with a [`MapReport`].
///
/// Engines are stateless with respect to requests and shareable across
/// threads, which is what lets the [`crate::Portfolio`] race engines on
/// threads.
pub trait Engine: Send + Sync {
    /// Short engine name, echoed in [`MapReport::engine`].
    fn name(&self) -> &str;

    /// Answers one request.
    ///
    /// # Errors
    ///
    /// Returns a [`MapperError`] when the request cannot be satisfied.
    fn run(&self, request: &MapRequest) -> Result<MapReport, MapperError>;

    /// The engine's identity in [`SolveCache`] keys. Defaults to
    /// [`Engine::name`]; engines whose configuration changes their
    /// answers (trial counts, window sizes) must extend it so
    /// distinct configurations never share cache entries.
    fn cache_signature(&self) -> String {
        self.name().to_string()
    }

    /// Whether this engine's answers are pure functions of the request
    /// and may be cached. Engines coupled to external state — like an
    /// [`ExactEngine`] with an attached racing [`SolveControl`], whose
    /// supervisor can cancel or bound a run mid-flight — must return
    /// `false`, or a degraded answer would be served to callers with no
    /// such supervisor. [`Engine::run_cached`] falls back to a plain
    /// [`Engine::run`] when this is `false`.
    fn cacheable(&self) -> bool {
        true
    }

    /// [`Engine::run`] through the process-wide [`SolveCache`]: a request
    /// whose (canonical circuit skeleton, device, options, budget class)
    /// was already answered by this engine returns the cached, verified
    /// report — flagged [`MapReport::served_from_cache`], with
    /// [`MapReport::elapsed`] reporting the lookup time — without
    /// touching a solver. Relabeled-register equivalents hit the same
    /// entry (their layouts are translated through the register
    /// correspondence). Misses run the engine and populate the cache.
    ///
    /// Engines whose answers are not pure functions of the request
    /// ([`Engine::cacheable`] is `false`, e.g. an [`ExactEngine`] with an
    /// attached [`SolveControl`]) bypass the cache entirely.
    ///
    /// # Errors
    ///
    /// Returns a [`MapperError`] when the request cannot be satisfied;
    /// errors are never cached.
    fn run_cached(&self, request: &MapRequest) -> Result<MapReport, MapperError> {
        if !self.cacheable() {
            return self.run(request);
        }
        let cache = SolveCache::shared();
        let signature = self.cache_signature();
        if let Some(mut hit) = cache.lookup(&signature, request) {
            // A traced warm hit reports its own (near-zero) lookup, not
            // the original solve's timeline — which the cache never
            // stores.
            let trace = request.trace();
            trace.event("cache", "hit", 1);
            hit.trace = trace.finish();
            return Ok(hit);
        }
        request.trace().event("cache", "miss", 1);
        let report = self.run(request)?;
        cache.insert(&signature, request, &report);
        Ok(report)
    }
}

/// The paper's exact SAT-based method behind the unified surface.
///
/// Honors the request's strategy, subset flag, cost model, conflict
/// budget, deadline and upper bound; per-subset subinstances solve on a
/// parallel worker pool sharing those budgets. With
/// [`Guarantee::Optimal`] the run fails unless the result carries a
/// minimality proof.
#[derive(Debug, Clone, Default)]
pub struct ExactEngine {
    control: Option<SolveControl>,
}

impl ExactEngine {
    /// Creates the engine.
    pub fn new() -> ExactEngine {
        ExactEngine::default()
    }

    /// Attaches a shared [`SolveControl`]: a racing supervisor (like
    /// [`crate::Portfolio`]) cancels the run and feeds it achievable-cost
    /// bounds through this handle. One handle is good for one request.
    pub fn with_control(mut self, control: SolveControl) -> ExactEngine {
        self.control = Some(control);
        self
    }

    fn config_for(&self, request: &MapRequest) -> MapperConfig {
        let n = request.circuit().num_qubits();
        let m = request.device().num_qubits();
        MapperConfig::minimal()
            .with_strategy(request.strategy().clone())
            .with_subsets(request.use_subsets() && n < m)
            .with_deadline(request.deadline())
            .with_control(self.control.clone().unwrap_or_default())
            // Core's per-subset encode/minimize spans nest under this
            // engine's own span ("exact/subset0/encode", or
            // "race/exact/…" inside a portfolio race).
            .with_trace(request.trace().scoped("exact"))
            .with_minimize(
                MinimizeOptions::default()
                    .with_conflict_budget(request.conflict_budget())
                    // The bound is priced under the same device model as
                    // the objective weights the mapper will read.
                    .with_initial_upper_bound(request.upper_bound()),
            )
    }

    fn mapper_for(&self, request: &MapRequest) -> ExactMapper {
        // The request's device model is the single cost authority: the
        // exact objective reads every weight from it.
        ExactMapper::for_model(request.device_model().clone(), self.config_for(request))
    }

    /// Builds (without solving) the SAT instance for the request and
    /// reports its size — the facade's window into the paper's
    /// search-space discussion (Examples 5 and 8).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExactEngine::run`], except that infeasibility
    /// cannot be detected without solving.
    pub fn encoding_stats(&self, request: &MapRequest) -> Result<EncodingStats, MapperError> {
        Ok(self.mapper_for(request).encoding_stats(request.circuit())?)
    }
}

impl Engine for ExactEngine {
    fn name(&self) -> &str {
        "exact"
    }

    fn cacheable(&self) -> bool {
        // A racing supervisor can cancel or bound this engine mid-run
        // through the attached control: such answers are not pure
        // functions of the request and must never be cached.
        self.control.is_none()
    }

    fn run(&self, request: &MapRequest) -> Result<MapReport, MapperError> {
        let trace = request.trace();
        let mut span = trace.span(self.name());
        let result = self.mapper_for(request).map(request.circuit())?;
        if request.guarantee() == Guarantee::Optimal && !result.proved_optimal {
            return Err(MapperError::proof_budget_exhausted());
        }
        span.counter("iterations", u64::from(result.iterations));
        span.counter("change_points", result.num_change_points as u64);
        // What the Section 4.1 quotient skipped: `subsets - classes`
        // subinstances shared a solved representative's optimum.
        span.counter("subsets", result.num_subsets as u64);
        span.counter("classes", result.num_classes as u64);
        span.end();
        let mut report = MapReport::from_exact(result, self.name());
        report.trace = trace.finish();
        Ok(report)
    }
}

/// Which heuristic baseline a [`HeuristicEngine`] wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Per-gate shortest-path chains, no lookahead.
    Naive,
    /// Per-layer A* search (reference \[22\] of the paper).
    AStar,
    /// SABRE-style lookahead (reference \[13\]).
    Sabre,
    /// Qiskit-0.4-style stochastic swap (reference \[12\]); best of
    /// `trials` seeded runs starting at the request's seed.
    Stochastic {
        /// Number of seeded runs to take the minimum over (Table 1 used
        /// 5).
        trials: u64,
    },
}

/// Any of the four heuristic baselines behind the unified surface.
///
/// Heuristics carry no minimality proof: `proved_optimal` is only set
/// when the modelled objective is zero (costs are non-negative, so
/// nothing beats 0 — merely inserting nothing proves nothing under a
/// calibrated model). With [`Guarantee::Optimal`] requests, unproved
/// runs fail.
///
/// The stochastic baseline is deadline-aware: its seeded trials run on a
/// scoped worker pool, the pool polls [`MapRequest::with_deadline`] (and,
/// under a racing [`crate::Portfolio`], the shared cancel flag) between
/// trials, and each trial winds itself down per layer once the budget
/// fires. At least one trial always completes, so a deadline degrades
/// quality — never validity — and is honored within one trial's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicEngine {
    baseline: Baseline,
}

impl HeuristicEngine {
    /// The naive shortest-path floor baseline.
    pub fn naive() -> HeuristicEngine {
        HeuristicEngine {
            baseline: Baseline::Naive,
        }
    }

    /// The A*-search baseline.
    pub fn astar() -> HeuristicEngine {
        HeuristicEngine {
            baseline: Baseline::AStar,
        }
    }

    /// The SABRE-style baseline.
    pub fn sabre() -> HeuristicEngine {
        HeuristicEngine {
            baseline: Baseline::Sabre,
        }
    }

    /// The stochastic baseline, taking the best of `trials` seeded runs.
    pub fn stochastic(trials: u64) -> HeuristicEngine {
        HeuristicEngine {
            baseline: Baseline::Stochastic {
                trials: trials.max(1),
            },
        }
    }

    /// The wrapped baseline.
    pub fn baseline(&self) -> Baseline {
        self.baseline
    }
}

impl HeuristicEngine {
    /// The shared implementation behind [`Engine::run`]: `control`, when
    /// present, is the racing supervisor's handle whose cancel flag stops
    /// SABRE, A* and stochastic trials early (the [`crate::Portfolio`]
    /// passes its own).
    pub(crate) fn run_inner(
        &self,
        request: &MapRequest,
        control: Option<&SolveControl>,
    ) -> Result<MapReport, MapperError> {
        let circuit = request.circuit();
        let model = request.device_model();
        let cancel = control.map(SolveControl::cancel_handle);
        let trace = request.trace();
        let mut span = trace.span(self.name());
        let result = match self.baseline {
            Baseline::Naive => NaiveMapper::new().map_model(circuit, model)?,
            Baseline::AStar => {
                let mut mapper = AStarMapper::new().with_deadline(request.deadline());
                if let Some(cancel) = cancel {
                    mapper = mapper.with_stop(cancel);
                }
                mapper.map_model(circuit, model)?
            }
            Baseline::Sabre => {
                // Lookahead sized to the device's statistics (diameter,
                // cost skew) — a pure function of the model already in
                // the cache key, so cacheability is unaffected.
                let mut mapper = SabreMapper::new()
                    .with_scaled_lookahead(model)
                    .with_deadline(request.deadline());
                if let Some(cancel) = cancel {
                    mapper = mapper.with_stop(cancel);
                }
                mapper.map_model(circuit, model)?
            }
            Baseline::Stochastic { trials } => run_stochastic_pool(request, trials, control)?,
        };
        span.counter("model_cost", result.model_cost);
        if let Some(reason) = result.wound_down {
            // The race timeline's "who degraded and why": deadline fired
            // or a supervisor cancelled this racer mid-run.
            span.counter(reason, 1);
        }
        span.end();
        let mut report = MapReport::from_heuristic(result, self.name());
        report.trace = trace.finish();
        if let Some(bound) = request.upper_bound() {
            // The declared bound is a hard ceiling for every engine.
            if report.cost.objective >= bound {
                return Err(MapperError::BoundUnmet { bound });
            }
        }
        if request.guarantee() == Guarantee::Optimal && !report.proved_optimal {
            return Err(MapperError::OptimalityUnavailable {
                reason: format!("the {} baseline cannot prove minimality", self.name()),
            });
        }
        Ok(report)
    }
}

impl Engine for HeuristicEngine {
    fn name(&self) -> &str {
        match self.baseline {
            Baseline::Naive => "naive",
            Baseline::AStar => "astar",
            Baseline::Sabre => "sabre",
            Baseline::Stochastic { .. } => "stochastic",
        }
    }

    fn cache_signature(&self) -> String {
        match self.baseline {
            Baseline::Stochastic { trials } => format!("stochastic:{trials}"),
            _ => self.name().to_string(),
        }
    }

    fn run(&self, request: &MapRequest) -> Result<MapReport, MapperError> {
        self.run_inner(request, None)
    }
}

/// The stochastic baseline's seeded trials, distributed over a scoped
/// worker pool. Trial `t` uses seed `request.seed() + t`, exactly like
/// the sequential loop did; results land in per-trial slots so the
/// winner selection stays deterministic whenever every trial completes.
///
/// Deadline/cancellation observance: trial 0 always runs (a valid answer
/// must exist), later trials are skipped once the request's deadline or
/// the supervisor's cancel flag fires, and every trial additionally winds
/// itself down per layer through the mapper's own deadline/stop hooks.
fn run_stochastic_pool(
    request: &MapRequest,
    trials: u64,
    control: Option<&SolveControl>,
) -> Result<HeuristicResult, MapperError> {
    let circuit = request.circuit();
    let model = request.device_model();
    let cutoff = request.deadline().map(|d| Instant::now() + d);
    let cancel = control.map(SolveControl::cancel_handle);
    // The planners' shared wind-down predicate, polled between trials.
    let check = StopCheck::arm(request.deadline(), cancel.clone());
    let stopped = || check.stopped();

    let trials_usize = usize::try_from(trials).unwrap_or(usize::MAX);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(trials_usize)
        .max(1);
    let next = AtomicUsize::new(0);
    // Completed trials only (skipped ones allocate nothing, so absurd
    // trial counts cost time, never memory), tagged with their index to
    // keep winner selection deterministic.
    let completed: Mutex<
        Vec<(
            usize,
            Result<HeuristicResult, qxmap_heuristic::HeuristicError>,
        )>,
    > = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= trials_usize || (t > 0 && stopped()) {
                    break;
                }
                let mut mapper =
                    StochasticSwapMapper::with_seed(request.seed().wrapping_add(t as u64))
                        .with_deadline(cutoff.map(|c| c.saturating_duration_since(Instant::now())));
                if let Some(cancel) = &cancel {
                    mapper = mapper.with_stop(cancel.clone());
                }
                let result = mapper.map_model(circuit, model);
                completed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((t, result));
            });
        }
    });

    // Winner: minimal objective under the request's *device model* —
    // each trial already priced its own insertions per edge — with
    // added-gate count and then the lowest trial index as tie-breaks
    // (matching the sequential loop's first-wins order).
    let mut completed = completed.into_inner().expect("workers have exited");
    completed.sort_by_key(|(t, _)| *t);
    let mut best: Option<HeuristicResult> = None;
    for (_, result) in completed {
        // Structural failures (capacity, routability) are identical
        // across seeds: any one of them describes the instance.
        let result = result?;
        if best
            .as_ref()
            .is_none_or(|b| (result.model_cost, result.added_gates) < (b.model_cost, b.added_gates))
        {
            best = Some(result);
        }
    }
    Ok(best.expect("trial 0 always runs"))
}

/// Whether the exact method is in regime for this request's device.
pub(crate) fn exact_in_regime(request: &MapRequest) -> bool {
    let n = request.circuit().num_qubits();
    let m = request.device().num_qubits();
    // Without subsets the full device must be enumerable; with subsets the
    // subinstances have n qubits, but enumerating connected subsets of a
    // huge device is itself out of regime, so stay conservative.
    m <= MAX_EXACT_QUBITS && n <= m
}

#[cfg(test)]
mod tests {
    use super::*;
    use qxmap_arch::devices;
    use qxmap_circuit::paper_example;

    #[test]
    fn exact_engine_reproduces_example7() {
        let request = MapRequest::new(paper_example(), devices::ibm_qx4());
        let report = ExactEngine::new().run(&request).unwrap();
        assert_eq!(report.cost.objective, 4);
        assert_eq!(report.cost.reversals, 1);
        assert!(report.proved_optimal);
        assert_eq!(report.engine, "exact");
        assert_eq!(report.mapped_cost(), 12);
        report
            .verify(&paper_example(), &devices::ibm_qx4())
            .unwrap();
    }

    #[test]
    fn exact_engine_respects_upper_bound_certificates() {
        // Asking for strictly better than the known optimum of 4 is
        // infeasible — which is exactly the certificate the portfolio
        // uses.
        let request =
            MapRequest::new(paper_example(), devices::ibm_qx4()).with_upper_bound(Some(4));
        assert_eq!(
            ExactEngine::new().run(&request).unwrap_err(),
            MapperError::Infeasible
        );
        // A looser bound still finds the optimum, proved.
        let request =
            MapRequest::new(paper_example(), devices::ibm_qx4()).with_upper_bound(Some(40));
        let report = ExactEngine::new().run(&request).unwrap();
        assert_eq!(report.cost.objective, 4);
        assert!(report.proved_optimal);
    }

    #[test]
    fn heuristic_engines_never_beat_the_minimum() {
        let request = MapRequest::new(paper_example(), devices::ibm_qx4());
        for engine in [
            HeuristicEngine::naive(),
            HeuristicEngine::astar(),
            HeuristicEngine::sabre(),
            HeuristicEngine::stochastic(5),
        ] {
            let report = engine.run(&request).unwrap();
            assert!(
                report.cost.added_gates >= 4,
                "{} beat the proven minimum",
                engine.name()
            );
            report
                .verify(&paper_example(), &devices::ibm_qx4())
                .unwrap();
        }
    }

    #[test]
    fn heuristic_engines_honor_the_upper_bound() {
        // The optimum is 4, so no heuristic can come in below a bound of 3.
        let request =
            MapRequest::new(paper_example(), devices::ibm_qx4()).with_upper_bound(Some(3));
        for engine in [
            HeuristicEngine::naive(),
            HeuristicEngine::sabre(),
            HeuristicEngine::stochastic(2),
        ] {
            assert_eq!(
                engine.run(&request).unwrap_err(),
                MapperError::BoundUnmet { bound: 3 },
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn trivial_circuit_cannot_beat_a_zero_bound() {
        // A circuit with no CNOTs maps at cost 0 — which is not strictly
        // below 0.
        let mut c = qxmap_circuit::Circuit::new(2);
        c.h(0);
        let request = MapRequest::new(c.clone(), devices::ibm_qx4()).with_upper_bound(Some(0));
        assert_eq!(
            ExactEngine::new().run(&request).unwrap_err(),
            MapperError::Infeasible
        );
        // And the portfolio propagates the proof instead of panicking.
        let request = MapRequest::new(c, devices::ibm_qx4()).with_upper_bound(Some(0));
        assert_eq!(
            crate::Portfolio::new().run(&request).unwrap_err(),
            MapperError::Infeasible
        );
    }

    #[test]
    fn optimal_guarantee_rejects_unprovable_runs() {
        let request =
            MapRequest::new(paper_example(), devices::ibm_qx4()).with_guarantee(Guarantee::Optimal);
        assert!(matches!(
            HeuristicEngine::sabre().run(&request),
            Err(MapperError::OptimalityUnavailable { .. })
        ));
    }

    #[test]
    fn regime_check_tracks_device_size() {
        let small = MapRequest::new(three_qubit_circuit(), devices::ibm_qx4());
        assert!(exact_in_regime(&small));
        let big = MapRequest::new(three_qubit_circuit(), devices::ibm_qx5());
        assert!(!exact_in_regime(&big));
    }

    fn three_qubit_circuit() -> qxmap_circuit::Circuit {
        let mut c = qxmap_circuit::Circuit::new(3);
        c.cx(0, 1);
        c
    }
}

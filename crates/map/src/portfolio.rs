//! The portfolio engine: heuristics and the exact engine racing on
//! threads, coupled through a shared best-cost bound and cooperative
//! cancellation, with transparent fallback outside the exact regime.

use std::time::Instant;

use qxmap_core::SolveControl;

use crate::engine::{exact_in_regime, Engine, ExactEngine, HeuristicEngine};
use crate::error::MapperError;
use crate::report::MapReport;
use crate::request::{Guarantee, MapRequest};

/// Races the heuristic baselines and — when the device is within the
/// exact method's regime — the SAT engine, all on scoped threads sharing
/// one [`SolveControl`]:
///
/// * each heuristic tightens the shared best-cost bound the moment it
///   finishes, so the exact search prunes to strictly better solutions
///   without waiting for the pool (and a zero-cost heuristic win cancels
///   the exact run outright — nothing can improve on 0);
/// * if nothing better than the heuristic winner exists, the exact run
///   comes back `Infeasible`, which — when the request uses the complete
///   `BeforeEveryGate` formulation — *certifies the heuristic result as
///   optimal*: the report is upgraded to `proved_optimal` without ever
///   re-deriving the model. Restricted Section 4.2 strategies search a
///   smaller space, so their exhaustion upgrades nothing;
/// * a [`MapRequest::with_deadline`] budget stops the exact side
///   cooperatively; the race then answers with the best verified result
///   in hand, and [`MapReport::winner`] says which engine produced it;
/// * outside the regime (devices beyond
///   [`qxmap_core::MAX_EXACT_QUBITS`] qubits) the best heuristic result
///   is returned as-is under [`Guarantee::BestEffort`].
///
/// The naive floor baseline is always part of the pool, so a portfolio
/// report is never worse than `NaiveMapper` on the same instance —
/// deadline or not.
///
/// ```
/// use std::time::Duration;
/// use qxmap_arch::devices;
/// use qxmap_circuit::paper_example;
/// use qxmap_map::{Engine, MapRequest, Portfolio};
///
/// let request = MapRequest::new(paper_example(), devices::ibm_qx4())
///     .with_conflict_budget(Some(100_000))
///     .with_deadline(Duration::from_secs(30));
/// let report = Portfolio::new().run(&request)?;
/// // Whichever engine won, the racing path never loses to the naive
/// // floor (its proven minimum here is 4).
/// assert!(report.cost.objective >= 4);
/// assert!(report.engine.starts_with("portfolio/"));
/// println!("won by {} in {:?}", report.winner, report.elapsed);
/// # Ok::<(), qxmap_map::MapperError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Portfolio;

impl Portfolio {
    /// The portfolio: naive + SABRE heuristics, exact when in regime.
    pub fn new() -> Portfolio {
        Portfolio
    }
}

/// What the cost-model-aware scheduler decided to race for one request:
/// the heuristic pool, whether the exact engine joins, and which
/// baselines were skipped as dominated (with the model-derived reason).
#[derive(Debug)]
pub(crate) struct RacePlan {
    pub(crate) pool: Vec<HeuristicEngine>,
    pub(crate) run_exact: bool,
    pub(crate) skipped: Vec<(&'static str, &'static str)>,
}

impl Portfolio {
    /// Which engines the cost-model-aware scheduler would *skip* for
    /// `request`, as `(engine, reason)` pairs — the decisions
    /// [`Portfolio::run`] acts on, exposed for tooling and capacity
    /// planning. An empty answer means the full pool races.
    ///
    /// ```
    /// use qxmap_arch::devices;
    /// use qxmap_circuit::Circuit;
    /// use qxmap_map::{MapRequest, Portfolio};
    ///
    /// let k6 = MapRequest::new(Circuit::new(3), devices::fully_connected(6));
    /// let skipped = Portfolio::new().skipped_baselines(&k6);
    /// assert!(skipped.iter().any(|(engine, _)| *engine == "sabre"));
    ///
    /// let qx4 = MapRequest::new(Circuit::new(3), devices::ibm_qx4());
    /// assert!(Portfolio::new().skipped_baselines(&qx4).is_empty());
    /// ```
    pub fn skipped_baselines(&self, request: &MapRequest) -> Vec<(&'static str, &'static str)> {
        self.plan_race(request).skipped
    }
}

impl Portfolio {
    /// The cost-model-aware scheduler: reads the cheap
    /// [`DeviceStats`](qxmap_arch::DeviceStats) off the request's device
    /// model and skips baselines the statistics prove dominated, instead
    /// of always racing the full pool.
    ///
    /// The skips fire only on a **provably free** device — all-to-all,
    /// bidirectional, and with no CNOT-cost calibration above the
    /// baseline — where *every* layout executes every gate at cost 0:
    /// SABRE reduces to exactly the naive floor's output, and the exact
    /// engine cannot improve on the floor's self-certifying zero. On a
    /// merely all-to-all device the full pool still races:
    /// unidirectional edges make reversals layout-dependent, and
    /// calibrated CNOT costs make dear edges worth steering around —
    /// both are exactly what the other engines find.
    ///
    /// The naive floor always races: the portfolio's "never worse than
    /// naive" contract is scheduler-independent.
    pub(crate) fn plan_race(&self, request: &MapRequest) -> RacePlan {
        let stats = request.device_model().stats();
        let mut pool = vec![HeuristicEngine::naive()];
        let mut skipped: Vec<(&'static str, &'static str)> = Vec::new();
        let provably_free =
            stats.all_to_all && !stats.has_unidirectional && !stats.has_cnot_surcharge();
        if provably_free {
            skipped.push((
                "sabre",
                "free all-to-all device: every pair is adjacent in both directions \
                 at baseline cost, so no layout beats the shortest-path floor",
            ));
        } else {
            pool.push(HeuristicEngine::sabre());
        }
        let mut run_exact = exact_in_regime(request);
        if run_exact && provably_free {
            run_exact = false;
            skipped.push((
                "exact",
                "free all-to-all device: the naive floor achieves cost 0, \
                 which nothing improves on",
            ));
        }
        RacePlan {
            pool,
            run_exact,
            skipped,
        }
    }
}

impl Engine for Portfolio {
    fn name(&self) -> &str {
        "portfolio"
    }

    fn run(&self, request: &MapRequest) -> Result<MapReport, MapperError> {
        let start = Instant::now();
        let trace = request.trace();
        // One control handle couples the whole race: heuristics tighten
        // its bound as they finish, the exact engine prunes against it
        // mid-run and stops on its cancel flag.
        let control = SolveControl::new();
        if let Some(u) = request.upper_bound() {
            control.bound().tighten(u);
        }

        // The cost-model-aware scheduler prunes the pool before any
        // thread spawns: dominated baselines (and a provably unhelpful
        // exact run) never start. Planning first also forces the lazily
        // built device model, so the clone below carries it instead of
        // rebuilding the all-pairs matrices on the heuristic side.
        let plan = self.plan_race(request);
        let pool = plan.pool;
        for (engine, reason) in &plan.skipped {
            // Zero-duration events: the timeline names every racer that
            // never started, and why the scheduler pruned it.
            trace.event(&format!("race/skip/{engine}"), reason, 1);
        }

        // Heuristic side of the race. Guarantee and upper-bound demands
        // are settled at the portfolio level, not per baseline — an
        // over-bound heuristic winner is still useful for seeding the
        // exact search. Structural errors (too many qubits) are terminal,
        // but Unroutable is not: the layer heuristics give up on
        // disconnected devices that the exact engine's connected-subset
        // search may still map.
        let heuristic_request = request
            .clone()
            .with_guarantee(Guarantee::BestEffort)
            .with_upper_bound(None)
            // Racer spans land under "race/<engine>" on the shared
            // timeline (the engines record their own spans).
            .with_trace(trace.scoped("race"));

        // Exact side, racing concurrently when the device is in regime
        // and the scheduler found it worth starting. It begins from the
        // caller's bound alone and picks up heuristic costs subinstance
        // by subinstance as they land in the shared bound; its deadline
        // comes straight from the request.
        let run_exact = plan.run_exact;
        let mut pool_results: Vec<Result<MapReport, MapperError>> = Vec::new();
        let mut exact_outcome: Option<Result<MapReport, MapperError>> = None;
        let race_start = Instant::now();
        std::thread::scope(|scope| {
            let exact_handle = run_exact.then(|| {
                let control = control.clone();
                scope.spawn(|| {
                    let exact_request = request
                        .clone()
                        .with_guarantee(Guarantee::BestEffort)
                        .with_upper_bound(None)
                        .with_trace(trace.scoped("race"));
                    ExactEngine::new().with_control(control).run(&exact_request)
                })
            });
            let handles: Vec<_> = pool
                .iter()
                .map(|engine| {
                    let control = &control;
                    let heuristic_request = &heuristic_request;
                    scope.spawn(move || {
                        // Heuristics receive the race's control handle:
                        // SABRE stops early when a zero-cost win cancels
                        // the race.
                        let result = engine.run_inner(heuristic_request, Some(control));
                        if let Ok(report) = &result {
                            control.bound().tighten(report.cost.objective);
                            trace.event("race/bound", engine.name(), report.cost.objective);
                            if report.cost.objective == 0 {
                                // Provably unbeatable: stop the exact run.
                                control.cancel();
                                trace.event("race/cancel", engine.name(), 1);
                            }
                        }
                        result
                    })
                })
                .collect();
            pool_results = handles
                .into_iter()
                .map(|h| h.join().expect("heuristic engines do not panic"))
                .collect();
            exact_outcome =
                exact_handle.map(|h| h.join().expect("the exact engine does not panic"));
        });
        // The race span is recorded after the scope, not held across it: a
        // guard moved into `finish` below couldn't be dropped at every
        // return site.
        trace.record("race", race_start, race_start.elapsed());

        let mut pool_best: Option<MapReport> = None;
        let mut pool_error: Option<MapperError> = None;
        for result in pool_results {
            match result {
                Ok(report) => {
                    if pool_best
                        .as_ref()
                        .is_none_or(|b| report.cost.objective < b.cost.objective)
                    {
                        pool_best = Some(report);
                    }
                }
                Err(e @ MapperError::Unroutable) => pool_error = Some(e),
                Err(e) => return Err(e),
            }
        }
        let had_pool_result = pool_best.is_some();
        if let Some(b) = pool_best.as_mut() {
            b.engine = format!("{}/{}", self.name(), b.engine);
        }

        // A caller-declared upper bound is a hard contract: results at or
        // above it may not be returned. Heuristic winners that miss it
        // only served to tighten the exact search, never as answers.
        let user_bound = request.upper_bound();
        let best = match (user_bound, pool_best) {
            (Some(u), Some(b)) if b.cost.objective >= u => None,
            (_, b) => b,
        };

        // The caller waited for the whole race, not just the winner.
        let finish = |mut report: MapReport| {
            report.elapsed = start.elapsed();
            trace.event("race/winner", &report.winner, 1);
            report.trace = trace.finish();
            report
        };

        // A zero objective is unbeatable under non-negative costs —
        // trivially minimal, whatever was or wasn't inserted. (The
        // winning heuristic already cancelled the exact run.)
        if best.as_ref().is_some_and(|b| b.cost.objective == 0) {
            let mut best = best.expect("checked above");
            best.proved_optimal = true;
            return Ok(finish(best));
        }

        // Why there is no returnable candidate: the whole pool failed to
        // route, or the caller's bound pruned every result.
        let no_candidate = || -> MapperError {
            if !had_pool_result {
                return pool_error.clone().expect("pool is never empty");
            }
            MapperError::BoundUnmet {
                bound: user_bound.expect("a result existed, so the bound pruned it"),
            }
        };

        if !exact_in_regime(request) {
            return match (best, request.guarantee()) {
                (Some(best), Guarantee::BestEffort) => Ok(finish(best)),
                (None, Guarantee::BestEffort) => Err(no_candidate()),
                (_, Guarantee::Optimal) => Err(MapperError::OptimalityUnavailable {
                    reason: format!(
                        "device has {} qubits; exact proofs stop at {}",
                        request.device().num_qubits(),
                        qxmap_core::MAX_EXACT_QUBITS
                    ),
                }),
            };
        }

        // In regime but scheduler-skipped: the skip fires only when the
        // model proves nothing below the naive floor's zero exists — a
        // model-level certificate independent of the SAT formulation. A
        // zero-cost winner already returned above, so reaching here means
        // the caller's bound pruned it (nothing strictly below it exists:
        // Infeasible, whatever the strategy) or the whole pool failed.
        let Some(outcome) = exact_outcome else {
            return match best {
                // Unreachable in practice — the naive floor achieves 0 on
                // any provably-free device — but an honest fallback.
                Some(best) => Ok(finish(best)),
                None if user_bound.is_some() => Err(MapperError::Infeasible),
                None => Err(no_candidate()),
            };
        };

        // An exhaustive Unsat run only certifies the heuristic winner when
        // the exact formulation is complete: a restricted Section 4.2
        // strategy searches a smaller space, so its Infeasible proves
        // nothing about mappings outside that space.
        let formulation_complete = *request.strategy() == qxmap_core::Strategy::BeforeEveryGate;

        match outcome {
            Ok(mut report) => {
                report.engine = format!("{}/{}", self.name(), report.winner);
                // The exact racer can come back *worse* than the pool: a
                // candidate found early (before the heuristics tightened
                // the shared bound) survives a deadline or budget cut.
                // The race answers with whichever result is cheaper; the
                // exact result wins ties because it may carry a proof.
                let chosen = match best {
                    Some(b) if b.cost.objective < report.cost.objective => b,
                    _ => report,
                };
                if request.guarantee() == Guarantee::Optimal && !chosen.proved_optimal {
                    return Err(MapperError::proof_budget_exhausted());
                }
                Ok(finish(chosen))
            }
            // Nothing strictly below the shared bound exists *in the
            // searched space* — and every value that bound took during the
            // race (the caller's bound, heuristic costs) is at or above
            // the returnable winner's cost. With the complete formulation
            // that certifies the heuristic winner as optimal (or, with no
            // winner, proves the user bound infeasible); under a
            // restricted strategy it only means the restricted search
            // found nothing better.
            Err(MapperError::Infeasible) => match (best, request.guarantee()) {
                (Some(mut best), guarantee) => {
                    if formulation_complete {
                        best.proved_optimal = true;
                    }
                    if guarantee == Guarantee::Optimal && !best.proved_optimal {
                        return Err(MapperError::OptimalityUnavailable {
                            reason: format!(
                                "the {:?} strategy restricts the exact search; its \
                                 exhaustion is no proof of global minimality",
                                request.strategy()
                            ),
                        });
                    }
                    Ok(finish(best))
                }
                (None, _) if formulation_complete => Err(MapperError::Infeasible),
                (None, Guarantee::BestEffort) => Err(no_candidate()),
                (None, Guarantee::Optimal) => Err(MapperError::OptimalityUnavailable {
                    reason: "the restricted exact search found nothing below the bound".to_string(),
                }),
            },
            // A budget (conflicts or deadline) ran out before the
            // certificate: keep the heuristic result, honestly unproved.
            Err(MapperError::BudgetExhausted) => match (best, request.guarantee()) {
                (Some(best), Guarantee::BestEffort) => Ok(finish(best)),
                (None, Guarantee::BestEffort) => Err(no_candidate()),
                (_, Guarantee::Optimal) => Err(MapperError::proof_budget_exhausted()),
            },
            // A subset slipped past the regime check (e.g. subsets
            // disabled on a mid-size device): fall back to the heuristic.
            Err(MapperError::DeviceTooLarge { .. }) => match (best, request.guarantee()) {
                (Some(best), Guarantee::BestEffort) => Ok(finish(best)),
                (None, Guarantee::BestEffort) => Err(no_candidate()),
                (_, Guarantee::Optimal) => Err(MapperError::OptimalityUnavailable {
                    reason: "the instance exceeds the exact method's regime".to_string(),
                }),
            },
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qxmap_arch::devices;
    use qxmap_circuit::{paper_example, Circuit};

    #[test]
    fn paper_example_is_proved_minimal() {
        let request = MapRequest::new(paper_example(), devices::ibm_qx4());
        let report = Portfolio::new().run(&request).unwrap();
        assert_eq!(report.cost.objective, 4);
        assert!(report.proved_optimal);
        assert!(report.engine.starts_with("portfolio/"));
        report
            .verify(&paper_example(), &devices::ibm_qx4())
            .unwrap();
    }

    #[test]
    fn large_device_falls_back_without_error() {
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        c.cx(3, 4);
        for cm in [devices::ibm_qx5(), devices::ibm_tokyo()] {
            let request = MapRequest::new(c.clone(), cm.clone());
            let report = Portfolio::new().run(&request).unwrap();
            assert!(!report.engine.contains("exact"));
            report.verify(&c, &cm).unwrap();
        }
    }

    #[test]
    fn large_device_with_optimal_demand_is_an_error() {
        // q0 interacts with 7 partners; Tokyo's max degree is 6, so every
        // layout needs insertions and nothing can be trivially proved.
        let mut c = Circuit::new(8);
        for t in 1..8 {
            c.cx(0, t);
        }
        let request = MapRequest::new(c, devices::ibm_tokyo()).with_guarantee(Guarantee::Optimal);
        assert!(matches!(
            Portfolio::new().run(&request),
            Err(MapperError::OptimalityUnavailable { .. })
        ));
    }

    #[test]
    fn zero_insertion_is_proved_without_exact_run() {
        let mut c = Circuit::new(2);
        c.cx(1, 0); // a QX4 edge: nothing to insert
        let request = MapRequest::new(c, devices::ibm_qx4());
        let report = Portfolio::new().run(&request).unwrap();
        assert_eq!(report.cost.objective, 0);
        assert!(report.proved_optimal);
    }

    #[test]
    fn restricted_strategy_exhaustion_is_no_certificate() {
        // The interaction graph of this circuit cannot embed in QX4, so
        // with no permutation points the exact formulation is Infeasible
        // for structural reasons — which must NOT be read as a proof that
        // the heuristic fallback is optimal.
        let mut c = Circuit::new(5);
        for t in 1..5 {
            c.cx(0, t);
        }
        c.cx(1, 3);
        c.cx(1, 4);
        let request = MapRequest::new(c, devices::ibm_qx4())
            .with_strategy(qxmap_core::Strategy::Custom(vec![]));
        let report = Portfolio::new().run(&request).unwrap();
        assert!(
            !report.proved_optimal,
            "a restricted search's exhaustion certified a heuristic result"
        );
        // The same instance under the complete default formulation *is*
        // certifiable.
        let request = MapRequest::new(
            {
                let mut c = Circuit::new(5);
                for t in 1..5 {
                    c.cx(0, t);
                }
                c.cx(1, 3);
                c.cx(1, 4);
                c
            },
            devices::ibm_qx4(),
        );
        let report = Portfolio::new().run(&request).unwrap();
        assert!(report.proved_optimal);
    }

    #[test]
    fn caller_upper_bound_is_a_hard_contract() {
        // The known optimum is 4. Asking for strictly better must never
        // hand back the (worse) heuristic result — it is Infeasible, with
        // the exhaustive run as certificate.
        let request =
            MapRequest::new(paper_example(), devices::ibm_qx4()).with_upper_bound(Some(4));
        assert_eq!(
            Portfolio::new().run(&request).unwrap_err(),
            MapperError::Infeasible
        );
        // A looser caller bound lets the portfolio answer below it.
        let request =
            MapRequest::new(paper_example(), devices::ibm_qx4()).with_upper_bound(Some(5));
        let report = Portfolio::new().run(&request).unwrap();
        assert_eq!(report.cost.objective, 4);
        assert!(report.proved_optimal);
        // Out of the exact regime, a bound the heuristics cannot beat is
        // an error, not a silently-worse report.
        let mut big = Circuit::new(9);
        for q in 0..8 {
            big.cx(q, q + 1);
        }
        let request = MapRequest::new(big, devices::ibm_tokyo()).with_upper_bound(Some(1));
        assert_eq!(
            Portfolio::new().run(&request).unwrap_err(),
            MapperError::BoundUnmet { bound: 1 }
        );
    }

    #[test]
    fn scheduler_skips_dominated_baselines_on_all_to_all_devices() {
        // K6 (bidirectional all-to-all): SABRE AND the exact engine are
        // both dominated by the naive floor's guaranteed-zero result.
        let request = MapRequest::new(Circuit::new(4), devices::fully_connected(6));
        let plan = Portfolio::new().plan_race(&request);
        assert_eq!(plan.pool.len(), 1, "only the naive floor races");
        assert!(!plan.run_exact);
        let skipped: Vec<&str> = plan.skipped.iter().map(|(e, _)| *e).collect();
        assert_eq!(skipped, vec!["sabre", "exact"]);

        // QX4 keeps the full pool and the exact racer.
        let request = MapRequest::new(Circuit::new(4), devices::ibm_qx4());
        let plan = Portfolio::new().plan_race(&request);
        assert_eq!(plan.pool.len(), 2);
        assert!(plan.run_exact);
        assert!(plan.skipped.is_empty());
    }

    #[test]
    fn directed_or_calibrated_all_to_all_keeps_the_full_race() {
        use qxmap_arch::{CouplingMap, DeviceModel};
        // A *directed* all-to-all device: reversals depend on the layout,
        // so neither SABRE nor the exact racer is dominated by the naive
        // floor's identity layout.
        let mut edges = Vec::new();
        for a in 0..4 {
            for b in (a + 1)..4 {
                edges.push((a, b));
            }
        }
        let directed = CouplingMap::from_edges(4, edges).unwrap();
        let request = MapRequest::new(Circuit::new(3), directed);
        let plan = Portfolio::new().plan_race(&request);
        assert_eq!(plan.pool.len(), 2, "sabre still races");
        assert!(plan.run_exact);
        assert!(plan.skipped.is_empty());

        // A bidirectional all-to-all device with one dear calibrated CNOT
        // edge: the identity layout is no longer free, so the exact racer
        // must stay in (it can find a layout avoiding the dear edge).
        let model = DeviceModel::new(devices::fully_connected(4)).with_cnot_cost(0, 1, 5);
        let request = MapRequest::for_model(Circuit::new(3), model);
        let plan = Portfolio::new().plan_race(&request);
        assert!(plan.run_exact);
        assert!(plan.skipped.is_empty());
    }

    #[test]
    fn calibrated_overhead_is_no_certificate_and_exact_recovers_the_optimum() {
        use qxmap_arch::DeviceModel;
        // Zero insertions is not zero cost: on a CNOT-calibrated model the
        // naive identity layout pays the dear edge's execution overhead,
        // must not claim a minimality proof, and the exact racer finds the
        // genuinely free placement one edge over.
        let model = DeviceModel::new(devices::linear(3)).with_cnot_cost(0, 1, 5);
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let request = MapRequest::for_model(c.clone(), model);
        let naive = HeuristicEngine::naive().run(&request).unwrap();
        assert_eq!(naive.cost.added_gates, 0);
        assert_eq!(naive.cost.objective, 4, "the dear edge's overhead");
        assert!(!naive.proved_optimal, "a costly run certified itself");
        let report = Portfolio::new().run(&request).unwrap();
        assert_eq!(
            report.cost.objective, 0,
            "logical pair placed on the free edge"
        );
        assert!(report.proved_optimal);
        report.verify(&c, request.device()).unwrap();
    }

    #[test]
    fn all_to_all_run_still_returns_a_verified_proved_result() {
        // The acceptance scenario: dominated baselines are skipped, yet
        // the race still answers — verified and proved optimal.
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        c.cx(3, 1);
        c.cx(2, 0);
        let cm = devices::fully_connected(6);
        let request = MapRequest::new(c.clone(), cm.clone());
        let report = Portfolio::new().run(&request).unwrap();
        assert_eq!(report.cost.objective, 0);
        assert!(report.proved_optimal);
        report.verify(&c, &cm).unwrap();
        assert!(report.engine.starts_with("portfolio/"));
    }

    #[test]
    fn scheduler_skip_keeps_the_infeasibility_certificate() {
        // The optimum on a free all-to-all device is 0; a bound of 0
        // demands strictly better, which is Infeasible — certified by
        // the scheduler's skip itself, not mislabeled as an
        // out-of-regime error (K6 is well inside the exact regime).
        let request =
            MapRequest::new(Circuit::new(3), devices::fully_connected(6)).with_upper_bound(Some(0));
        assert_eq!(
            Portfolio::new().run(&request).unwrap_err(),
            MapperError::Infeasible
        );
        let request = MapRequest::new(Circuit::new(3), devices::fully_connected(6))
            .with_upper_bound(Some(0))
            .with_guarantee(Guarantee::Optimal);
        assert_eq!(
            Portfolio::new().run(&request).unwrap_err(),
            MapperError::Infeasible
        );
        // The certificate is model-level, independent of the SAT
        // formulation: restricted strategies get it too (no exact search
        // ran to be "restricted").
        let request = MapRequest::new(Circuit::new(3), devices::fully_connected(6))
            .with_upper_bound(Some(0))
            .with_strategy(qxmap_core::Strategy::Custom(vec![]))
            .with_guarantee(Guarantee::Optimal);
        assert_eq!(
            Portfolio::new().run(&request).unwrap_err(),
            MapperError::Infeasible
        );
    }

    #[test]
    fn too_many_qubits_is_terminal() {
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        let request = MapRequest::new(c, devices::ibm_qx4());
        assert!(matches!(
            Portfolio::new().run(&request),
            Err(MapperError::TooManyQubits {
                logical: 6,
                physical: 5
            })
        ));
    }
}

//! The unified mapping request.

use std::sync::OnceLock;
use std::time::Duration;

use qxmap_arch::{CostModel, CouplingMap, DeviceModel};
use qxmap_circuit::Circuit;
use qxmap_core::{SpanRecorder, Strategy};

/// How strong a result the caller demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Guarantee {
    /// The result must carry a proof of minimality; engines error out when
    /// they cannot provide one (e.g. the device exceeds the exact method's
    /// regime).
    Optimal,
    /// Best result obtainable within the request's budgets; engines may
    /// fall back to heuristics and `proved_optimal` may be `false`.
    #[default]
    BestEffort,
}

/// The options that steer an engine's answer besides the circuit and the
/// device — declared once and shared by [`MapRequest`], the
/// skeleton-first [`crate::CacheProbe`] and the serving tier's wire
/// parser, so the three can never disagree on a solve-cache key.
///
/// [`Default`] is what [`MapRequest::new`] uses: best-effort guarantee,
/// permutations before every gate, the Section 4.1 subset optimization
/// enabled, no budgets, no declared upper bound, seed 0.
///
/// ```
/// use std::time::Duration;
/// use qxmap_arch::devices;
/// use qxmap_circuit::paper_example;
/// use qxmap_map::{MapOptions, MapRequest};
///
/// let options = MapOptions {
///     deadline: Some(Duration::from_millis(250)),
///     seed: 7,
///     ..MapOptions::default()
/// };
/// let request = MapRequest::new(paper_example(), devices::ibm_qx4()).with_options(options);
/// assert_eq!(request.seed(), 7);
/// assert!(request.use_subsets());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MapOptions {
    /// The demanded guarantee level.
    pub guarantee: Guarantee,
    /// The permutation-site strategy used by exact engines (Section 4.2
    /// of the paper).
    pub strategy: Strategy,
    /// Whether the connected-subset optimization (Section 4.1) is on.
    pub use_subsets: bool,
    /// Cap on the total SAT conflicts exact engines may spend.
    pub conflict_budget: Option<u64>,
    /// Cap on the request's wall-clock time.
    pub deadline: Option<Duration>,
    /// An externally known achievable cost; engines only return results
    /// strictly below it.
    pub upper_bound: Option<u64>,
    /// Seed for randomized engines.
    pub seed: u64,
}

impl Default for MapOptions {
    fn default() -> MapOptions {
        MapOptions {
            guarantee: Guarantee::default(),
            strategy: Strategy::default(),
            use_subsets: true,
            conflict_budget: None,
            deadline: None,
            upper_bound: None,
            seed: 0,
        }
    }
}

/// Everything a mapping engine needs to answer one mapping question.
///
/// Built in builder style; every knob has a sensible default. The two
/// budgets compose: the conflict budget caps solver *work*, the deadline
/// caps *wall-clock* — whichever fires first ends the exact search, and
/// a best-effort engine then answers with the best result in hand:
///
/// ```
/// use std::time::Duration;
/// use qxmap_arch::devices;
/// use qxmap_circuit::paper_example;
/// use qxmap_map::{Guarantee, MapRequest};
///
/// let request = MapRequest::new(paper_example(), devices::ibm_qx4())
///     .with_guarantee(Guarantee::Optimal)
///     .with_conflict_budget(Some(50_000))
///     .with_deadline(Duration::from_millis(250))
///     .with_seed(7);
/// assert_eq!(request.device().num_qubits(), 5);
/// assert_eq!(request.deadline(), Some(Duration::from_millis(250)));
/// ```
#[derive(Debug, Clone)]
pub struct MapRequest {
    circuit: Circuit,
    /// The device of a uniform-model request (always `Some` while
    /// `model` is unbuilt). Explicit-model requests store `None` and
    /// read the map off the model instead of keeping a second copy.
    device: Option<CouplingMap>,
    /// The device/cost model every engine answers under. For requests
    /// built with [`MapRequest::new`] this is the uniform model derived
    /// from the device and [`MapRequest::cost_model`] — built lazily on
    /// first [`MapRequest::device_model`] access, so builder chains that
    /// end in an explicit model never pay for the discarded derivation
    /// (the model's all-pairs matrices are real work on large devices).
    /// Explicit models ([`MapRequest::for_model`] /
    /// [`MapRequest::with_device_model`]) carry per-edge calibration,
    /// win over the uniform derivation, and are stored here eagerly.
    model: OnceLock<DeviceModel>,
    explicit_model: bool,
    cost_model: CostModel,
    options: MapOptions,
    /// Trace recorder engines report their phase spans to. Defaults to
    /// the disabled recorder (free no-ops); deliberately **not** part of
    /// the request's cache identity — traced and untraced requests share
    /// cache entries.
    trace: SpanRecorder,
}

impl MapRequest {
    /// A request with default settings: the paper's 7/4 cost model and
    /// [`MapOptions::default`] (best-effort, permutations before every
    /// gate, subsets on, no budgets, seed 0).
    pub fn new(circuit: Circuit, device: CouplingMap) -> MapRequest {
        MapRequest {
            circuit,
            device: Some(device),
            model: OnceLock::new(),
            explicit_model: false,
            cost_model: CostModel::default(),
            options: MapOptions::default(),
            trace: SpanRecorder::disabled(),
        }
    }

    /// A request against an explicit [`DeviceModel`] — per-edge
    /// calibration costs, precomputed distances and the device
    /// fingerprint all come from the model. Everything else defaults like
    /// [`MapRequest::new`].
    ///
    /// ```
    /// use qxmap_arch::{devices, DeviceModel};
    /// use qxmap_circuit::paper_example;
    /// use qxmap_map::MapRequest;
    ///
    /// let model = DeviceModel::new(devices::ibm_qx4()).with_swap_cost(3, 4, 21);
    /// let request = MapRequest::for_model(paper_example(), model);
    /// assert_eq!(request.device_model().swap_cost(3, 4), Some(21));
    /// ```
    pub fn for_model(circuit: Circuit, model: DeviceModel) -> MapRequest {
        MapRequest {
            circuit,
            device: None,
            model: OnceLock::from(model),
            explicit_model: true,
            cost_model: CostModel::default(),
            options: MapOptions::default(),
            trace: SpanRecorder::disabled(),
        }
    }

    /// Replaces the request's device model (builder style) — the explicit
    /// model's coupling map becomes the request's device and its per-edge
    /// costs price every engine's answer from here on.
    pub fn with_device_model(mut self, model: DeviceModel) -> MapRequest {
        self.device = None;
        self.model = OnceLock::from(model);
        self.explicit_model = true;
        self
    }

    /// Sets the cost accounting for inserted operations. On requests
    /// without an explicit device model the uniform model is re-derived
    /// from the new weights (lazily, on next [`MapRequest::device_model`]
    /// access); an explicit model keeps pricing the run (the model *is*
    /// the cost model), and this only records the headline weights.
    pub fn with_cost_model(mut self, cost_model: CostModel) -> MapRequest {
        self.cost_model = cost_model;
        if !self.explicit_model {
            self.model = OnceLock::new();
        }
        self
    }

    /// Replaces all seven [`MapOptions`] at once — what the serving tier
    /// applies to a request parsed off the wire.
    pub fn with_options(mut self, options: MapOptions) -> MapRequest {
        self.options = options;
        self
    }

    /// Sets the demanded guarantee level.
    pub fn with_guarantee(mut self, guarantee: Guarantee) -> MapRequest {
        self.options.guarantee = guarantee;
        self
    }

    /// Sets the permutation-site strategy used by exact engines
    /// (Section 4.2 of the paper).
    pub fn with_strategy(mut self, strategy: Strategy) -> MapRequest {
        self.options.strategy = strategy;
        self
    }

    /// Enables/disables the connected-subset optimization (Section 4.1).
    pub fn with_subsets(mut self, on: bool) -> MapRequest {
        self.options.use_subsets = on;
        self
    }

    /// Caps the total SAT conflicts exact engines may spend.
    pub fn with_conflict_budget(mut self, budget: Option<u64>) -> MapRequest {
        self.options.conflict_budget = budget;
        self
    }

    /// Caps the wall-clock time of the request. Exact searches (including
    /// a racing [`crate::Portfolio`]'s) stop cooperatively when it fires
    /// and the best verified result found so far is returned —
    /// `proved_optimal` only if the proof closed in time. Heuristic
    /// engines are fast and run to completion regardless.
    pub fn with_deadline(mut self, deadline: Duration) -> MapRequest {
        self.options.deadline = Some(deadline);
        self
    }

    /// Declares an externally known achievable cost: engines only return
    /// results with cost **strictly below** it. Exact engines prune their
    /// search with it from the first solve; the [`crate::Portfolio`]
    /// engine additionally tightens it with its own heuristic pass and
    /// never falls back to a result at or above it.
    pub fn with_upper_bound(mut self, bound: Option<u64>) -> MapRequest {
        self.options.upper_bound = bound;
        self
    }

    /// Seeds randomized engines (the stochastic baseline).
    pub fn with_seed(mut self, seed: u64) -> MapRequest {
        self.options.seed = seed;
        self
    }

    /// Attaches a trace recorder: engines answering this request record
    /// their phase spans — the portfolio's race timeline, per-subset
    /// encode/minimize spans, per-window block solves — onto it, and the
    /// final [`crate::MapReport::trace`] carries the snapshot. Clones of
    /// the request share the same timeline. The recorder is *not* part
    /// of the request's cache identity: traced and untraced requests
    /// share solve-cache entries, and cached reports never carry a stale
    /// trace.
    ///
    /// ```
    /// use qxmap_arch::devices;
    /// use qxmap_circuit::paper_example;
    /// use qxmap_core::SpanRecorder;
    /// use qxmap_map::{Engine, MapRequest, Portfolio};
    ///
    /// let recorder = SpanRecorder::new();
    /// let request = MapRequest::new(paper_example(), devices::ibm_qx4())
    ///     .with_trace(recorder);
    /// let report = Portfolio::new().run(&request)?;
    /// let trace = report.trace.expect("traced request");
    /// assert!(trace.spans.iter().any(|s| s.path.starts_with("race")));
    /// # Ok::<(), qxmap_map::MapperError>(())
    /// ```
    pub fn with_trace(mut self, trace: SpanRecorder) -> MapRequest {
        self.trace = trace;
        self
    }

    /// The circuit to map.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The target device.
    pub fn device(&self) -> &CouplingMap {
        match &self.device {
            Some(device) => device,
            None => self
                .model
                .get()
                .expect("explicit-model requests always hold their model")
                .coupling_map(),
        }
    }

    /// The device/cost model every engine answers under — the single
    /// authority on per-edge costs, precomputed distances and the
    /// fingerprint that identifies the device in cache keys. Built on
    /// first access for uniform-model requests (then reused; cloning a
    /// request carries the built model along), already present for
    /// explicit-model ones.
    pub fn device_model(&self) -> &DeviceModel {
        self.model.get_or_init(|| {
            let device = self
                .device
                .clone()
                .expect("uniform-model requests always hold their device");
            DeviceModel::uniform(device, self.cost_model)
        })
    }

    /// The device model's content fingerprint — the device's identity in
    /// cache keys. Answered without building the distance matrices when
    /// the uniform model has not been needed yet, so a cache *hit* on a
    /// large device stays a sub-millisecond lookup.
    pub fn device_fingerprint(&self) -> u64 {
        match self.model.get() {
            Some(model) => model.fingerprint(),
            None => DeviceModel::uniform_fingerprint(self.device(), self.cost_model),
        }
    }

    /// The cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cost_model
    }

    /// The request's options — the part of its cache identity besides
    /// the circuit, the device and the answering engine.
    pub fn options(&self) -> &MapOptions {
        &self.options
    }

    /// The demanded guarantee level.
    pub fn guarantee(&self) -> Guarantee {
        self.options.guarantee
    }

    /// The permutation-site strategy for exact engines.
    pub fn strategy(&self) -> &Strategy {
        &self.options.strategy
    }

    /// Whether the subset optimization is enabled.
    pub fn use_subsets(&self) -> bool {
        self.options.use_subsets
    }

    /// The exact engines' conflict budget.
    pub fn conflict_budget(&self) -> Option<u64> {
        self.options.conflict_budget
    }

    /// The wall-clock budget, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.options.deadline
    }

    /// The externally known achievable cost, if any.
    pub fn upper_bound(&self) -> Option<u64> {
        self.options.upper_bound
    }

    /// The seed for randomized engines.
    pub fn seed(&self) -> u64 {
        self.options.seed
    }

    /// The attached trace recorder (disabled by default).
    pub fn trace(&self) -> &SpanRecorder {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qxmap_arch::devices;

    #[test]
    fn defaults_are_best_effort_with_subsets() {
        let req = MapRequest::new(Circuit::new(2), devices::ibm_qx4());
        assert_eq!(req.guarantee(), Guarantee::BestEffort);
        assert!(req.use_subsets());
        assert_eq!(req.conflict_budget(), None);
        assert_eq!(req.deadline(), None);
        assert_eq!(req.upper_bound(), None);
        assert_eq!(req.seed(), 0);
        assert_eq!(req.options(), &MapOptions::default());
    }

    #[test]
    fn cost_model_rederives_the_uniform_model() {
        let req = MapRequest::new(Circuit::new(2), devices::ibm_qx4());
        assert_eq!(req.device_model().swap_cost(0, 1), Some(7));
        let req = req.with_cost_model(CostModel::bidirectional());
        assert_eq!(req.device_model().swap_cost(0, 1), Some(3));
    }

    #[test]
    fn explicit_model_wins_over_cost_model() {
        use qxmap_arch::DeviceModel;
        let model = DeviceModel::new(devices::ibm_qx4()).with_swap_cost(0, 1, 70);
        let req = MapRequest::for_model(Circuit::new(2), model.clone())
            .with_cost_model(CostModel::bidirectional());
        // The calibrated model keeps pricing the run.
        assert_eq!(req.device_model().swap_cost(0, 1), Some(70));
        assert_eq!(req.device_model().fingerprint(), model.fingerprint());
        assert_eq!(req.device().name(), "IBM QX4");
        // with_device_model is the builder-style equivalent.
        let req = MapRequest::new(Circuit::new(2), devices::ibm_qx2()).with_device_model(model);
        assert_eq!(req.device().name(), "IBM QX4");
        assert_eq!(req.device_model().swap_cost(0, 1), Some(70));
    }

    #[test]
    fn builders_compose() {
        let req = MapRequest::new(Circuit::new(2), devices::ibm_qx4())
            .with_guarantee(Guarantee::Optimal)
            .with_subsets(false)
            .with_conflict_budget(Some(10))
            .with_deadline(Duration::from_secs(1))
            .with_upper_bound(Some(4))
            .with_seed(3);
        assert_eq!(req.guarantee(), Guarantee::Optimal);
        assert!(!req.use_subsets());
        assert_eq!(req.conflict_budget(), Some(10));
        assert_eq!(req.deadline(), Some(Duration::from_secs(1)));
        assert_eq!(req.upper_bound(), Some(4));
        assert_eq!(req.seed(), 3);
    }
}

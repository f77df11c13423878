//! The first-class device model: one authoritative home for everything the
//! mappers previously re-derived about a device.
//!
//! A [`DeviceModel`] bundles a [`CouplingMap`] with **per-edge directed
//! costs** — the elementary-gate price of a CNOT on each coupling edge, of
//! a SWAP on each coupled pair, and of the 4-Hadamard direction reversal —
//! defaulting to the paper's uniform 7-and-4 accounting but accepting
//! per-edge calibration overrides (e.g. fidelity- or duration-derived
//! weights from a backend's calibration data). On top of the costs it
//! precomputes, exactly once:
//!
//! * the all-pairs **hop matrix** (the BFS distances every heuristic used
//!   to recompute per `map` call),
//! * the all-pairs **cost-weighted distance matrix** (cheapest SWAP-chain
//!   cost between any two physical qubits, by Dijkstra),
//! * cheap **statistics** (diameter, directedness, all-to-all-ness, cost
//!   skew) that schedulers use to skip dominated work,
//! * a stable content **fingerprint** that cache keys use as the device's
//!   identity — two models answer mapping requests identically if and only
//!   if their fingerprints agree (up to hash collision).
//!
//! Every layer reads from here: the exact engine's SAT objective takes its
//! permutation and reversal weights from the model, the heuristics share
//! its hop matrix and score insertions with its edge costs, and the solve
//! cache keys entries by its fingerprint.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use qxmap_circuit::Fnv1a;

use crate::coupling::CouplingMap;
use crate::route::CostModel;
use crate::swaps::CostedSwapTable;

/// Cheap summary statistics of a [`DeviceModel`], precomputed once — the
/// signals a portfolio scheduler reads to decide which engines are worth
/// racing on this device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceStats {
    /// Physical qubits `m`.
    pub num_qubits: usize,
    /// Directed coupling edges.
    pub num_edges: usize,
    /// Coupled (undirected) pairs.
    pub num_pairs: usize,
    /// Largest finite hop distance between any two qubits (0 on devices
    /// with fewer than two qubits).
    pub diameter: usize,
    /// Whether the device graph is (undirectedly) connected.
    pub connected: bool,
    /// Whether every pair of distinct qubits is coupled (diameter ≤ 1):
    /// routing never needs a SWAP on such a device.
    pub all_to_all: bool,
    /// Whether any edge exists in only one orientation (so direction
    /// reversals can be charged at all).
    pub has_unidirectional: bool,
    /// Cheapest per-pair SWAP cost (0 on edgeless devices).
    pub min_swap_cost: u32,
    /// Dearest per-pair SWAP cost (0 on edgeless devices).
    pub max_swap_cost: u32,
    /// Dearest per-edge CNOT cost (0 on edgeless devices; the
    /// uncalibrated baseline is 1).
    pub max_cnot_cost: u32,
}

impl DeviceStats {
    /// How unevenly calibrated the SWAP costs are: `max / min` (1.0 for
    /// uniform models, and on edgeless devices by convention).
    pub fn cost_skew(&self) -> f64 {
        if self.min_swap_cost == 0 {
            1.0
        } else {
            f64::from(self.max_swap_cost) / f64::from(self.min_swap_cost)
        }
    }

    /// Whether any CNOT edge is calibrated above the baseline cost of 1 —
    /// i.e. whether [`DeviceModel::execution_overhead`] can be nonzero on
    /// a correctly oriented edge, making layout choice matter even where
    /// no SWAP or reversal is ever needed. Schedulers must not treat a
    /// zero-insertion result as free while this holds.
    pub fn has_cnot_surcharge(&self) -> bool {
        self.max_cnot_cost > 1
    }
}

/// A coupling map plus calibration-aware per-edge costs, precomputed
/// distance matrices, statistics, and a stable content fingerprint — the
/// workspace's one authoritative device/cost layer (see the module-level
/// documentation above for the role it plays in the stack).
///
/// ```
/// use qxmap_arch::{devices, DeviceModel};
///
/// let model = DeviceModel::new(devices::ibm_qx4());
/// // QX4's edges are all unidirectional: the paper's 7/4 accounting.
/// assert_eq!(model.swap_cost(0, 1), Some(7));
/// assert_eq!(model.reversal_cost(0, 1), Some(4)); // only (1,0) exists
/// assert_eq!(model.hop(0, 3), Some(2));
/// assert_eq!(model.swap_distance(0, 3), Some(14)); // two SWAPs away
/// assert!(model.stats().has_unidirectional);
///
/// // Calibration overrides change costs — and the fingerprint.
/// let skewed = model.clone().with_swap_cost(0, 1, 21);
/// assert_eq!(skewed.swap_cost(0, 1), Some(21));
/// assert_ne!(model.fingerprint(), skewed.fingerprint());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    cm: CouplingMap,
    /// Elementary gates per CNOT, per directed coupling edge.
    cnot: BTreeMap<(usize, usize), u32>,
    /// Elementary gates per SWAP, per coupled pair (key `a < b`).
    swap: BTreeMap<(usize, usize), u32>,
    /// Reversal surcharge for executing `CNOT(c, t)` when only the edge
    /// `(t, c)` exists — keyed by the *missing* direction `(c, t)`.
    reverse: BTreeMap<(usize, usize), u32>,
    /// All-pairs BFS hop distances (`usize::MAX` for unreachable pairs).
    hops: Vec<Vec<usize>>,
    /// All-pairs cheapest SWAP-chain costs (`u64::MAX` for unreachable
    /// pairs), Dijkstra over the per-pair SWAP costs.
    swap_dist: Vec<Vec<u64>>,
    stats: DeviceStats,
    fingerprint: u64,
}

impl DeviceModel {
    /// The hardware-derived default model: CNOTs cost 1, SWAPs cost what
    /// [`crate::route::emit_swap`] actually emits (3 elementary gates on
    /// bidirectional pairs, 7 on unidirectional ones), reversals cost the
    /// 4 Hadamards of Fig. 3. On fully unidirectional devices like the
    /// IBM QX maps this *is* the paper's 7-and-4 model.
    pub fn new(cm: CouplingMap) -> DeviceModel {
        let mut cnot = BTreeMap::new();
        let mut swap = BTreeMap::new();
        let mut reverse = BTreeMap::new();
        for (c, t) in cm.edges() {
            cnot.insert((c, t), 1);
            if !cm.has_edge(t, c) {
                reverse.insert((t, c), 4);
            }
        }
        for (a, b) in cm.undirected_edges() {
            let bidirectional = cm.has_edge(a, b) && cm.has_edge(b, a);
            swap.insert((a, b), if bidirectional { 3 } else { 7 });
        }
        DeviceModel::assemble(cm, cnot, swap, reverse)
    }

    /// A uniform model: every SWAP costs `cost_model.swap`, every reversal
    /// `cost_model.reverse`, every CNOT 1 — regardless of edge
    /// orientation. This reproduces the seed objective the exact engine
    /// historically charged for any [`CostModel`].
    pub fn uniform(cm: CouplingMap, cost_model: CostModel) -> DeviceModel {
        let (cnot, swap, reverse) = DeviceModel::uniform_tables(&cm, cost_model);
        DeviceModel::assemble(cm, cnot, swap, reverse)
    }

    /// The per-edge cost tables [`DeviceModel::uniform`] derives from a
    /// cost model.
    #[allow(clippy::type_complexity)]
    fn uniform_tables(
        cm: &CouplingMap,
        cost_model: CostModel,
    ) -> (
        BTreeMap<(usize, usize), u32>,
        BTreeMap<(usize, usize), u32>,
        BTreeMap<(usize, usize), u32>,
    ) {
        let mut cnot = BTreeMap::new();
        let mut swap = BTreeMap::new();
        let mut reverse = BTreeMap::new();
        for (c, t) in cm.edges() {
            cnot.insert((c, t), 1);
            if !cm.has_edge(t, c) {
                reverse.insert((t, c), cost_model.reverse);
            }
        }
        for (a, b) in cm.undirected_edges() {
            swap.insert((a, b), cost_model.swap);
        }
        (cnot, swap, reverse)
    }

    /// The fingerprint [`DeviceModel::uniform`] would carry, computed
    /// without building the model's distance matrices — for callers (e.g.
    /// cache lookups) that need the device's identity but not its
    /// distances.
    pub fn uniform_fingerprint(cm: &CouplingMap, cost_model: CostModel) -> u64 {
        let (cnot, swap, reverse) = DeviceModel::uniform_tables(cm, cost_model);
        fingerprint_of(cm, &cnot, &swap, &reverse)
    }

    /// The paper's uniform 7-and-4 model ([`CostModel::paper`]).
    pub fn paper(cm: CouplingMap) -> DeviceModel {
        DeviceModel::uniform(cm, CostModel::paper())
    }

    /// Overrides the SWAP cost of the coupled pair `{a, b}` (builder
    /// style) — e.g. a calibration-derived weight. Each call recomputes
    /// the derived matrices; use [`DeviceModel::with_swap_costs`] to
    /// apply a whole calibration in one pass.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` share no coupling edge.
    pub fn with_swap_cost(self, a: usize, b: usize, cost: u32) -> DeviceModel {
        self.with_swap_costs([(a, b, cost)])
    }

    /// Applies a batch of SWAP-cost overrides `(a, b, cost)` — a whole
    /// backend calibration — recomputing the derived matrices once at
    /// the end instead of per edge.
    ///
    /// # Panics
    ///
    /// Panics if any pair shares no coupling edge.
    pub fn with_swap_costs(
        mut self,
        costs: impl IntoIterator<Item = (usize, usize, u32)>,
    ) -> DeviceModel {
        for (a, b, cost) in costs {
            let key = (a.min(b), a.max(b));
            assert!(
                self.swap.contains_key(&key),
                "no coupling edge between p{a} and p{b}"
            );
            self.swap.insert(key, cost);
        }
        self.refresh()
    }

    /// Overrides the reversal surcharge for executing `CNOT(c, t)` against
    /// the lone edge `(t, c)` (builder style). See
    /// [`DeviceModel::with_reversal_costs`] for batch application.
    ///
    /// # Panics
    ///
    /// Panics unless executing `CNOT(c, t)` actually requires a reversal
    /// (i.e. `(t, c)` exists and `(c, t)` does not).
    pub fn with_reversal_cost(self, c: usize, t: usize, cost: u32) -> DeviceModel {
        self.with_reversal_costs([(c, t, cost)])
    }

    /// Applies a batch of reversal-surcharge overrides `(c, t, cost)`,
    /// recomputing the derived matrices once at the end.
    ///
    /// # Panics
    ///
    /// Panics unless each `CNOT(c, t)` actually requires a reversal.
    pub fn with_reversal_costs(
        mut self,
        costs: impl IntoIterator<Item = (usize, usize, u32)>,
    ) -> DeviceModel {
        for (c, t, cost) in costs {
            assert!(
                self.cm.requires_reversal(c, t),
                "CNOT(p{c} → p{t}) needs no reversal on this device"
            );
            self.reverse.insert((c, t), cost);
        }
        self.refresh()
    }

    /// Overrides the CNOT cost of the directed edge `(c, t)` (builder
    /// style). The cost above the baseline of 1 is charged as an
    /// execution overhead wherever a mapper places a logical CNOT on
    /// the edge ([`DeviceModel::execution_overhead`]), so dear edges
    /// repel placements in the exact objective and in heuristic
    /// pricing alike. See [`DeviceModel::with_cnot_costs`] for batch
    /// application.
    ///
    /// # Panics
    ///
    /// Panics if `(c, t)` is not a coupling edge.
    pub fn with_cnot_cost(self, c: usize, t: usize, cost: u32) -> DeviceModel {
        self.with_cnot_costs([(c, t, cost)])
    }

    /// Applies a batch of CNOT-cost overrides `(c, t, cost)` — a whole
    /// backend calibration. CNOT costs feed only the statistics and the
    /// fingerprint (routing is priced by the SWAP table), so unlike the
    /// SWAP/reversal builders this recomputes no distance matrix at all.
    ///
    /// # Panics
    ///
    /// Panics if any `(c, t)` is not a coupling edge.
    pub fn with_cnot_costs(
        mut self,
        costs: impl IntoIterator<Item = (usize, usize, u32)>,
    ) -> DeviceModel {
        for (c, t, cost) in costs {
            assert!(
                self.cm.has_edge(c, t),
                "(p{c}, p{t}) is not a coupling edge"
            );
            self.cnot.insert((c, t), cost);
        }
        self.stats.max_cnot_cost = self.cnot.values().copied().max().unwrap_or(0);
        self.fingerprint = self.compute_fingerprint();
        self
    }

    fn assemble(
        cm: CouplingMap,
        cnot: BTreeMap<(usize, usize), u32>,
        swap: BTreeMap<(usize, usize), u32>,
        reverse: BTreeMap<(usize, usize), u32>,
    ) -> DeviceModel {
        let m = cm.num_qubits();
        DeviceModel {
            cm,
            cnot,
            swap,
            reverse,
            hops: vec![vec![usize::MAX; m]; m],
            swap_dist: vec![vec![u64::MAX; m]; m],
            stats: DeviceStats {
                num_qubits: m,
                num_edges: 0,
                num_pairs: 0,
                diameter: 0,
                connected: true,
                all_to_all: true,
                has_unidirectional: false,
                min_swap_cost: 0,
                max_swap_cost: 0,
                max_cnot_cost: 0,
            },
            fingerprint: 0,
        }
        .refresh()
    }

    /// Recomputes the derived members (matrices, statistics, fingerprint)
    /// after a cost edit.
    fn refresh(mut self) -> DeviceModel {
        let m = self.cm.num_qubits();
        self.hops = self.cm.distance_matrix();

        // Dijkstra from every source over the per-pair SWAP costs.
        let adjacency: Vec<Vec<(usize, u64)>> = {
            let mut adj = vec![Vec::new(); m];
            for (&(a, b), &w) in &self.swap {
                adj[a].push((b, u64::from(w)));
                adj[b].push((a, u64::from(w)));
            }
            adj
        };
        self.swap_dist = (0..m)
            .map(|s| {
                use std::cmp::Reverse;
                use std::collections::BinaryHeap;
                let mut dist = vec![u64::MAX; m];
                dist[s] = 0;
                let mut heap = BinaryHeap::from([Reverse((0u64, s))]);
                while let Some(Reverse((d, u))) = heap.pop() {
                    if d > dist[u] {
                        continue;
                    }
                    for &(v, w) in &adjacency[u] {
                        let nd = d.saturating_add(w);
                        if nd < dist[v] {
                            dist[v] = nd;
                            heap.push(Reverse((nd, v)));
                        }
                    }
                }
                dist
            })
            .collect();

        let diameter = self
            .hops
            .iter()
            .flatten()
            .copied()
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0);
        let connected = self.hops.iter().flatten().all(|&d| d != usize::MAX);
        let all_to_all = m < 2 || (connected && diameter <= 1);
        self.stats = DeviceStats {
            num_qubits: m,
            num_edges: self.cm.num_edges(),
            num_pairs: self.swap.len(),
            diameter,
            connected,
            all_to_all,
            has_unidirectional: !self.reverse.is_empty(),
            min_swap_cost: self.swap.values().copied().min().unwrap_or(0),
            max_swap_cost: self.swap.values().copied().max().unwrap_or(0),
            max_cnot_cost: self.cnot.values().copied().max().unwrap_or(0),
        };
        self.fingerprint = self.compute_fingerprint();
        self
    }

    /// FNV-1a over everything that steers an answer: size, directed edge
    /// list, and all three cost tables. The device *name* is excluded —
    /// identically shaped, identically calibrated devices share cached
    /// results whatever they are called.
    fn compute_fingerprint(&self) -> u64 {
        fingerprint_of(&self.cm, &self.cnot, &self.swap, &self.reverse)
    }

    /// The underlying coupling map.
    pub fn coupling_map(&self) -> &CouplingMap {
        &self.cm
    }

    /// Physical qubits `m`.
    pub fn num_qubits(&self) -> usize {
        self.cm.num_qubits()
    }

    /// The precomputed statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// The stable content fingerprint — the device's identity in cache
    /// keys.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// CNOT cost of the directed edge `(c, t)` (`None` off-edge).
    pub fn cnot_cost(&self, c: usize, t: usize) -> Option<u32> {
        self.cnot.get(&(c, t)).copied()
    }

    /// SWAP cost of the coupled pair `{a, b}` (`None` off-edge).
    pub fn swap_cost(&self, a: usize, b: usize) -> Option<u32> {
        self.swap.get(&(a.min(b), a.max(b))).copied()
    }

    /// Reversal surcharge for executing `CNOT(c, t)` against the lone
    /// opposite edge (`None` when no reversal is needed or possible).
    pub fn reversal_cost(&self, c: usize, t: usize) -> Option<u32> {
        self.reverse.get(&(c, t)).copied()
    }

    /// The calibration overhead a mapper pays to execute `CNOT(c, t)`
    /// with the pair already adjacent: the executed edge's CNOT cost
    /// above the baseline of 1, plus the 4-H reversal surcharge when
    /// only the opposite edge exists; `None` when the pair is not
    /// coupled. Zero for direct CNOTs under the default models, so the
    /// paper's insertion-only objective is unchanged until a CNOT cost
    /// is actually calibrated. Both the SAT objective and the heuristics
    /// charge exactly this, keeping their costs comparable.
    pub fn execution_overhead(&self, c: usize, t: usize) -> Option<u64> {
        if self.cm.has_edge(c, t) {
            Some(u64::from(self.cnot[&(c, t)].saturating_sub(1)))
        } else if self.cm.has_edge(t, c) {
            let surcharge = u64::from(self.cnot[&(t, c)].saturating_sub(1));
            Some(surcharge + u64::from(self.reverse[&(c, t)]))
        } else {
            None
        }
    }

    /// Precomputed BFS hop distance (`None` if unreachable) — the
    /// replacement for per-call [`CouplingMap::distance`] BFS.
    pub fn hop(&self, a: usize, b: usize) -> Option<usize> {
        match self.hops[a][b] {
            usize::MAX => None,
            d => Some(d),
        }
    }

    /// The full hop matrix (`usize::MAX` marks unreachable pairs), in the
    /// exact shape [`CouplingMap::distance_matrix`] used to rebuild per
    /// call.
    pub fn hops(&self) -> &[Vec<usize>] {
        &self.hops
    }

    /// Cheapest total SWAP cost of making `a` and `b` adjacent... more
    /// precisely, of walking a qubit state from `a` to `b` along coupled
    /// pairs (`None` if unreachable).
    pub fn swap_distance(&self, a: usize, b: usize) -> Option<u64> {
        match self.swap_dist[a][b] {
            u64::MAX => None,
            d => Some(d),
        }
    }

    /// The full cost-weighted distance matrix (`u64::MAX` marks
    /// unreachable pairs).
    pub fn swap_distances(&self) -> &[Vec<u64>] {
        &self.swap_dist
    }

    /// The induced sub-model on `subset`, with *local* indices
    /// `0..subset.len()` and every per-edge cost carried over — what the
    /// exact engine's per-subset subinstances are priced with.
    ///
    /// # Panics
    ///
    /// Panics if `subset` contains duplicates or out-of-range qubits
    /// (like [`CouplingMap::subgraph`]).
    pub fn subgraph_model(&self, subset: &[usize]) -> DeviceModel {
        let local_cm = self.cm.subgraph(subset);
        let mut local = vec![usize::MAX; self.cm.num_qubits()];
        for (i, &p) in subset.iter().enumerate() {
            local[p] = i;
        }
        let keep = |&(a, b): &(usize, usize)| local[a] != usize::MAX && local[b] != usize::MAX;
        let relabel = |(a, b): (usize, usize)| (local[a], local[b]);
        let cnot = self
            .cnot
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(&k, &w)| (relabel(k), w))
            .collect();
        let swap = self
            .swap
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(&k, &w)| {
                let (a, b) = relabel(k);
                ((a.min(b), a.max(b)), w)
            })
            .collect();
        // A pair that is unidirectional on the full device is also
        // unidirectional in the induced subgraph (subgraphs only drop
        // edges)... but a *kept* missing-direction key only matters if the
        // present direction survived, which `keep` on the pair ensures.
        let reverse = self
            .reverse
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(&k, &w)| (relabel(k), w))
            .collect();
        DeviceModel::assemble(local_cm, cnot, swap, reverse)
    }

    /// The cost-weighted `swaps(π)` table of the induced subgraph on
    /// `subset` (local indices), answered from a process-wide cache keyed
    /// by the weighted local topology — so identically shaped, identically
    /// calibrated subsets share one table, across models and threads.
    ///
    /// # Panics
    ///
    /// Panics if `subset.len() > 8` (the exhaustive-regime bound).
    pub fn costed_table(&self, subset: &[usize]) -> Arc<CostedSwapTable> {
        let mut local = vec![usize::MAX; self.cm.num_qubits()];
        for (i, &p) in subset.iter().enumerate() {
            local[p] = i;
        }
        let mut edges: Vec<(usize, usize, u64)> = self
            .swap
            .iter()
            .filter(|(&(a, b), _)| local[a] != usize::MAX && local[b] != usize::MAX)
            .map(|(&(a, b), &w)| {
                let (la, lb) = (local[a], local[b]);
                (la.min(lb), la.max(lb), u64::from(w))
            })
            .collect();
        edges.sort_unstable();
        let key = (subset.len(), edges);

        let cache = COSTED_TABLE_CACHE.get_or_init(Mutex::default);
        {
            let mut cache = cache.lock().expect("cache lock");
            cache.tick += 1;
            let tick = cache.tick;
            if let Some((table, last_used)) = cache.map.get_mut(&key) {
                *last_used = tick;
                return Arc::clone(table);
            }
        }
        // Build outside the lock: construction is the expensive part and
        // must not serialize concurrent solves on other keys.
        let built = Arc::new(CostedSwapTable::for_weighted_edges(subset.len(), &key.1));
        let mut cache = cache.lock().expect("cache lock");
        cache.tick += 1;
        let tick = cache.tick;
        // A racing thread may have inserted meanwhile; either way this
        // access is a use, so stamp the entry with the fresh tick.
        let entry = cache.map.entry(key).or_insert((built, tick));
        entry.1 = tick;
        let table = Arc::clone(&entry.0);
        // Weighted keys are unbounded under drifting calibrations: evict
        // least-recently-used entries past the cap so long-lived services
        // cannot grow without limit.
        while cache.map.len() > COSTED_TABLE_CACHE_CAPACITY {
            let stalest = cache
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone())
                .expect("over-capacity map is non-empty");
            cache.map.remove(&stalest);
        }
        table
    }
}

/// The shared FNV-1a content hash behind [`DeviceModel::fingerprint`]
/// and [`DeviceModel::uniform_fingerprint`]: size, directed edge list,
/// and all three cost tables, name excluded.
fn fingerprint_of(
    cm: &CouplingMap,
    cnot: &BTreeMap<(usize, usize), u32>,
    swap: &BTreeMap<(usize, usize), u32>,
    reverse: &BTreeMap<(usize, usize), u32>,
) -> u64 {
    let mut h = Fnv1a::new();
    let mut eat = |v: u64| h.write_u64(v);
    eat(cm.num_qubits() as u64);
    for (c, t) in cm.edges() {
        eat(c as u64);
        eat(t as u64);
        eat(u64::from(cnot.get(&(c, t)).copied().unwrap_or(1)));
    }
    eat(0xffff_ffff); // section separator
    for (&(a, b), &w) in swap {
        eat(a as u64);
        eat(b as u64);
        eat(u64::from(w));
    }
    eat(0xffff_fffe);
    for (&(c, t), &w) in reverse {
        eat(c as u64);
        eat(t as u64);
        eat(u64::from(w));
    }
    h.finish()
}

/// Key of the process-wide costed-table cache: subset size plus the
/// sorted, weighted local undirected edge list — everything that
/// determines the table.
type CostedTableKey = (usize, Vec<(usize, usize, u64)>);

/// Most entries the costed-table cache holds; an 8-qubit table is a few
/// megabytes, so this caps worst-case residency in the tens of MB.
const COSTED_TABLE_CACHE_CAPACITY: usize = 64;

#[derive(Default)]
struct CostedTableCache {
    map: HashMap<CostedTableKey, (Arc<CostedSwapTable>, u64)>,
    tick: u64,
}

static COSTED_TABLE_CACHE: OnceLock<Mutex<CostedTableCache>> = OnceLock::new();

impl fmt::Display for DeviceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [swap {}..{}, {}]",
            self.cm,
            self.stats.min_swap_cost,
            self.stats.max_swap_cost,
            if self.stats.has_unidirectional {
                "directed"
            } else {
                "bidirectional"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;
    use crate::Permutation;

    #[test]
    fn qx4_default_is_the_paper_model() {
        let model = DeviceModel::new(devices::ibm_qx4());
        for (a, b) in model.coupling_map().undirected_edges() {
            assert_eq!(model.swap_cost(a, b), Some(7));
        }
        // Reversal charged exactly on the missing directions.
        assert_eq!(model.reversal_cost(0, 1), Some(4));
        assert_eq!(model.reversal_cost(1, 0), None); // (1,0) is a real edge
        assert_eq!(model.reversal_cost(0, 3), None); // not coupled at all
        assert_eq!(model.execution_overhead(1, 0), Some(0));
        assert_eq!(model.execution_overhead(0, 1), Some(4));
        assert_eq!(model.execution_overhead(0, 3), None);
    }

    #[test]
    fn tokyo_default_is_bidirectional() {
        let model = DeviceModel::new(devices::ibm_tokyo());
        assert_eq!(model.swap_cost(0, 1), Some(3));
        assert!(!model.stats().has_unidirectional);
        assert_eq!(model.reversal_cost(0, 1), None);
    }

    #[test]
    fn uniform_model_charges_the_cost_model_everywhere() {
        // Even on a bidirectional device, `uniform` reproduces the seed's
        // flat accounting.
        let model = DeviceModel::uniform(devices::ibm_tokyo(), CostModel::paper());
        assert_eq!(model.swap_cost(0, 1), Some(7));
        assert!(!model.stats().has_unidirectional);
    }

    #[test]
    fn hop_matrix_matches_bfs() {
        let cm = devices::ibm_qx4();
        let model = DeviceModel::new(cm.clone());
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(model.hop(a, b), cm.distance(a, b));
            }
        }
        assert_eq!(model.stats().diameter, 2);
    }

    #[test]
    fn weighted_distances_follow_calibration() {
        // Line p0—p1—p2 (bidirectional): default SWAP cost 3 per hop.
        let cm = CouplingMap::from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        let model = DeviceModel::new(cm);
        assert_eq!(model.swap_distance(0, 2), Some(6));
        // A dear first hop reroutes nothing on a line, but reprices it.
        let skewed = model.with_swap_cost(0, 1, 100);
        assert_eq!(skewed.swap_distance(0, 2), Some(103));
        assert_eq!(skewed.stats().max_swap_cost, 100);
        assert!(skewed.stats().cost_skew() > 30.0);
    }

    #[test]
    fn weighted_distance_takes_the_cheap_path() {
        // Diamond 0—1—3 / 0—2—3: calibration steers the cheapest route.
        let cm = CouplingMap::from_edges(
            4,
            [
                (0, 1),
                (1, 0),
                (1, 3),
                (3, 1),
                (0, 2),
                (2, 0),
                (2, 3),
                (3, 2),
            ],
        )
        .unwrap();
        let model = DeviceModel::new(cm)
            .with_swap_cost(0, 1, 50)
            .with_swap_cost(1, 3, 50);
        assert_eq!(model.swap_distance(0, 3), Some(6), "via p2");
        assert_eq!(model.hop(0, 3), Some(2));
    }

    #[test]
    fn uniform_fingerprint_matches_the_built_model() {
        for cm in [
            devices::ibm_qx4(),
            devices::ibm_tokyo(),
            devices::grid(3, 3),
        ] {
            for cost_model in [CostModel::paper(), CostModel::bidirectional()] {
                assert_eq!(
                    DeviceModel::uniform_fingerprint(&cm, cost_model),
                    DeviceModel::uniform(cm.clone(), cost_model).fingerprint(),
                );
            }
        }
    }

    #[test]
    fn fingerprint_tracks_content_not_name() {
        // Fingerprints key persisted cache entries, so the hash of a
        // fixed model is pinned.
        assert_eq!(
            DeviceModel::paper(devices::ibm_qx4()).fingerprint(),
            0x8953_871f_5f0f_5719
        );
        let a = DeviceModel::new(devices::ibm_qx4());
        let renamed = DeviceModel::new(
            CouplingMap::from_edges(5, devices::ibm_qx4().edges().collect::<Vec<_>>())
                .unwrap()
                .named("anything else"),
        );
        assert_eq!(a.fingerprint(), renamed.fingerprint());
        assert_ne!(
            a.fingerprint(),
            DeviceModel::new(devices::ibm_qx2()).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            a.clone().with_reversal_cost(0, 1, 5).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            a.clone().with_cnot_cost(1, 0, 2).fingerprint()
        );
    }

    #[test]
    fn stats_flag_cnot_surcharge() {
        let model = DeviceModel::new(devices::fully_connected(4));
        assert_eq!(model.stats().max_cnot_cost, 1);
        assert!(!model.stats().has_cnot_surcharge());
        let calibrated = model.with_cnot_cost(0, 1, 5);
        assert_eq!(calibrated.stats().max_cnot_cost, 5);
        assert!(calibrated.stats().has_cnot_surcharge());
    }

    #[test]
    fn cnot_cost_batches_skip_the_matrix_recompute() {
        let base = DeviceModel::new(devices::ibm_qx4());
        let batched = base.clone().with_cnot_costs([(1, 0, 3), (3, 4, 2)]);
        let sequential = base.clone().with_cnot_cost(1, 0, 3).with_cnot_cost(3, 4, 2);
        assert_eq!(batched, sequential);
        // CNOT edits reprice nothing the matrices hold: distances stay
        // exactly the base model's, only stats + fingerprint move.
        assert_eq!(batched.hops(), base.hops());
        assert_eq!(batched.swap_distances(), base.swap_distances());
        assert_ne!(batched.fingerprint(), base.fingerprint());
        assert_eq!(batched.stats().max_cnot_cost, 3);
        assert_eq!(batched.cnot_cost(1, 0), Some(3));
        assert_eq!(batched.cnot_cost(3, 4), Some(2));
    }

    #[test]
    fn stats_flag_all_to_all() {
        let k4 = DeviceModel::new(devices::fully_connected(4));
        assert!(k4.stats().all_to_all);
        assert!(!k4.stats().has_unidirectional);
        assert_eq!(k4.stats().diameter, 1);
        let qx4 = DeviceModel::new(devices::ibm_qx4());
        assert!(!qx4.stats().all_to_all);
        assert!(qx4.stats().connected);
        let split = DeviceModel::new(CouplingMap::from_edges(4, [(0, 1), (2, 3)]).unwrap());
        assert!(!split.stats().connected);
        assert!(!split.stats().all_to_all);
    }

    #[test]
    fn subgraph_model_carries_costs_over() {
        let model = DeviceModel::new(devices::ibm_qx4()).with_swap_cost(2, 3, 11);
        let sub = model.subgraph_model(&[2, 3, 4]); // local 0=p3, 1=p4, 2=p5
        assert_eq!(sub.num_qubits(), 3);
        assert_eq!(sub.swap_cost(0, 1), Some(11)); // the calibrated pair
        assert_eq!(sub.swap_cost(1, 2), Some(7));
        assert_eq!(sub.reversal_cost(2, 3), None);
        // Missing directions survive projection: (3,2) ∈ CM, (2,3) ∉ CM →
        // local (1,0) present, (0,1) missing.
        assert_eq!(sub.reversal_cost(0, 1), Some(4));
    }

    #[test]
    fn costed_tables_are_cached_and_weighted() {
        let model = DeviceModel::new(devices::ibm_qx4());
        let a = model.costed_table(&[2, 3, 4]);
        let b = model.costed_table(&[2, 3, 4]);
        assert!(Arc::ptr_eq(&a, &b));
        // Triangle of unidirectional edges: every transposition costs 7.
        assert_eq!(a.cost(&Permutation::transposition(3, 0, 1)), Some(7));
        // A different calibration is a different table.
        let skewed = model.clone().with_swap_cost(3, 4, 70);
        let c = skewed.costed_table(&[2, 3, 4]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.len(), a.len());
    }

    #[test]
    fn display_summarizes_costs() {
        let s = DeviceModel::new(devices::ibm_qx4()).to_string();
        assert!(s.contains("IBM QX4"));
        assert!(s.contains("swap 7..7"));
        assert!(s.contains("directed"));
    }

    use crate::coupling::CouplingMap;
}

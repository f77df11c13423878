//! The whole-solve result cache.
//!
//! The paper frames mapping cost as a function of the circuit's
//! interaction structure and the device's coupling graph alone — which is
//! exactly a cache key. [`SolveCache`] memoizes *verified* [`MapReport`]s
//! keyed by (canonical circuit skeleton, device coupling graph, request
//! options, budget class, engine signature), so a repeated request — or a
//! relabeled-register equivalent of one — is answered from memory in
//! microseconds instead of re-running a heuristic race or a SAT solver.
//!
//! ## Key anatomy
//!
//! * **Skeleton** — [`qxmap_circuit::CircuitSkeleton`], the circuit up to
//!   qubit renaming. Two QASM files with renamed registers share one
//!   entry; the hit is served by translating the stored layouts through
//!   the register correspondence (the physical circuit itself is
//!   label-free and reused verbatim).
//! * **Device** — the [`qxmap_arch::DeviceModel`] fingerprint: size,
//!   directed edge list *and every per-edge cost* in one stable hash. A
//!   different coupling graph — or the same graph under a different
//!   calibration — can change both cost and circuit, so it always misses.
//! * **Options** — the request's [`MapOptions`] besides its budgets:
//!   strategy, subset flag, guarantee, declared upper bound, and seed —
//!   everything else that steers an engine's answer (the cost model
//!   itself is part of the device fingerprint).
//! * **Budget class** — the (conflict budget, deadline) pair. Results
//!   computed under one budget are only reused for requests with the
//!   *same* budgets — except proved-optimal results, which are published
//!   to every budget class of the same key (an optimum is an optimum, no
//!   matter how much time the asker was willing to spend).
//! * **Engine signature** — [`crate::Engine::cache_signature`]: different
//!   engines (or differently configured ones) answer differently and
//!   never share entries.
//!
//! ## Bounds, stats, invalidation
//!
//! The cache is a bounded LRU (least-recently-*used*, where lookups and
//! inserts both refresh recency); overflowing evicts the stalest entry
//! and counts it in [`SolveCacheStats::evictions`]. Entries are immutable
//! and verified before insertion ([`MapReport::verify`]), so there is no
//! other invalidation: a key pins everything the answer depends on.
//! Errors are never cached — an `Infeasible` proof is cheap to re-derive
//! relative to the risk of serving it to a subtly different request.
//! A panic while a lock is held does not disable the cache: each critical
//! section leaves the map valid at every step, so every lock recovers a
//! poisoned guard instead of panicking in turn.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use qxmap_arch::{CouplingMap, DeviceModel, Layout};
use qxmap_circuit::CircuitSkeleton;
use qxmap_core::Strategy;

use crate::codec::{self, JournalError, Reader, Writer};
use crate::report::MapReport;
use crate::request::{Guarantee, MapOptions, MapRequest};

/// Capacity of the process-wide [`SolveCache::shared`] instance.
pub const DEFAULT_SOLVE_CACHE_CAPACITY: usize = 256;

/// Hit/miss/eviction counters and the current size of a [`SolveCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to solve.
    pub misses: u64,
    /// Entries evicted to make room (LRU order).
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Approximate heap footprint of the held entries, in bytes —
    /// per-entry size accounting (gates, layouts, correspondence tables)
    /// summed on insert and released on eviction. An estimate for
    /// capacity planning, not an allocator measurement.
    pub approx_bytes: usize,
}

/// Everything that pins an engine's answer: the one key behind lookups,
/// inserts, skeleton probes and journal records.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// [`crate::Engine::cache_signature`] of the answering engine.
    engine: String,
    /// The circuit up to qubit relabeling.
    skeleton: CircuitSkeleton,
    /// The device identity: [`qxmap_arch::DeviceModel::fingerprint`],
    /// covering size, directed edges and every per-edge cost (so a
    /// calibration override is a different device as far as the cache is
    /// concerned).
    device: u64,
    /// The request's options; the budgets among them
    /// (`conflict_budget`, `deadline`) identify its budget class.
    options: MapOptions,
    /// The proved tier, where optimality certificates are published for
    /// every budget class of the same key: `options` then holds no
    /// budgets.
    proved_tier: bool,
}

/// A cache lookup built from a circuit's canonical skeleton instead of
/// the circuit itself — the key to the skeleton-first warm path.
///
/// A [`MapRequest`] needs a materialized [`qxmap_circuit::Circuit`];
/// computing one from QASM text pays conversion, gate inlining and a
/// gate-vector allocation. But the [`SolveCache`] key never looks at the
/// circuit — only at its [`CircuitSkeleton`], which a single parse pass
/// can produce directly (`qxmap_qasm::parse_skeleton`). A probe carries
/// that skeleton, the device fingerprint and the same [`MapOptions`] a
/// request owns, so both resolve to the key built by one constructor;
/// [`SolveCache::probe`] answers a hit exactly as [`SolveCache::lookup`]
/// would have for the materialized request, and a miss falls through to
/// the ordinary solve path bit-for-bit.
///
/// ```
/// use std::time::Duration;
/// use qxmap_arch::devices;
/// use qxmap_circuit::{paper_example, CircuitSkeleton};
/// use qxmap_map::{map_one, probe_one, CacheProbe, MapOptions, MapRequest};
///
/// let circuit = paper_example();
/// let options = MapOptions {
///     deadline: Some(Duration::from_secs(30)),
///     ..MapOptions::default()
/// };
/// let probe = CacheProbe::new(CircuitSkeleton::of(&circuit), &devices::ibm_qx4())
///     .with_options(options.clone());
/// assert!(probe_one(&probe).is_none(), "nothing solved yet");
/// map_one(&MapRequest::new(circuit, devices::ibm_qx4()).with_options(options))?;
/// let hit = probe_one(&probe).expect("skeleton probe hits the solved entry");
/// assert!(hit.served_from_cache);
/// # Ok::<(), qxmap_map::MapperError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CacheProbe {
    skeleton: CircuitSkeleton,
    device_fingerprint: u64,
    options: MapOptions,
}

impl CacheProbe {
    /// A probe for `skeleton` against `device` under the paper's uniform
    /// cost model and [`MapOptions::default`] — the defaults of
    /// [`MapRequest::new`].
    pub fn new(skeleton: CircuitSkeleton, device: &CouplingMap) -> CacheProbe {
        CacheProbe {
            skeleton,
            device_fingerprint: DeviceModel::uniform_fingerprint(
                device,
                qxmap_arch::CostModel::default(),
            ),
            options: MapOptions::default(),
        }
    }

    /// A probe against an explicit [`DeviceModel`] — matches requests
    /// built with [`MapRequest::for_model`] (per-edge calibration is
    /// part of the device fingerprint, so the model identity must come
    /// from the same place).
    pub fn for_model(skeleton: CircuitSkeleton, model: &DeviceModel) -> CacheProbe {
        CacheProbe {
            device_fingerprint: model.fingerprint(),
            ..CacheProbe::new(skeleton, model.coupling_map())
        }
    }

    /// Sets the probe's options — the same [`MapOptions`] the solving
    /// request carries ([`MapRequest::with_options`]).
    pub fn with_options(mut self, options: MapOptions) -> CacheProbe {
        self.options = options;
        self
    }

    /// The probe's skeleton (serve-layer logging and tests).
    pub fn skeleton(&self) -> &CircuitSkeleton {
        &self.skeleton
    }
}

/// Encodes a [`Strategy`] as the stable integer sequence journaled cache
/// keys carry.
fn encode_strategy(strategy: &Strategy) -> Vec<usize> {
    match strategy {
        Strategy::BeforeEveryGate => vec![0],
        Strategy::DisjointQubits => vec![1],
        Strategy::OddGates => vec![2],
        Strategy::QubitTriangle => vec![3],
        Strategy::Window(k) => vec![4, *k],
        Strategy::Custom(points) => {
            let mut v = Vec::with_capacity(points.len() + 1);
            v.push(5);
            v.extend(points.iter().copied());
            v
        }
    }
}

/// The inverse of [`encode_strategy`]; `None` for a sequence it never
/// produces.
fn decode_strategy(code: &[usize]) -> Option<Strategy> {
    Some(match code {
        [0] => Strategy::BeforeEveryGate,
        [1] => Strategy::DisjointQubits,
        [2] => Strategy::OddGates,
        [3] => Strategy::QubitTriangle,
        [4, k] => Strategy::Window(*k),
        [5, points @ ..] => Strategy::Custom(points.to_vec()),
        _ => return None,
    })
}

impl CacheKey {
    /// The key of a solve of `skeleton` on the device identified by
    /// `device_fingerprint` ([`DeviceModel::fingerprint`]) under
    /// `options`, answered by the engine with signature `engine` — the
    /// one constructor behind lookups, inserts and skeleton probes.
    /// Requests pass [`MapRequest::device_fingerprint`], which a cache hit
    /// can read without building the model's all-pairs matrices.
    fn of(
        engine: &str,
        skeleton: CircuitSkeleton,
        device_fingerprint: u64,
        options: &MapOptions,
    ) -> CacheKey {
        CacheKey {
            engine: engine.to_string(),
            skeleton,
            device: device_fingerprint,
            options: options.clone(),
            proved_tier: false,
        }
    }

    /// The budget-erased variant under which proved-optimal results are
    /// published.
    fn proved_tier(&self) -> CacheKey {
        let mut key = self.clone();
        key.swap_tier(&mut (None, None));
        key
    }

    /// Moves the key between its budget class and the proved tier in
    /// place, trading its budgets with `budgets` (the proved tier holds
    /// none): applied twice with the same `budgets`, it restores the key.
    fn swap_tier(&mut self, budgets: &mut (Option<u64>, Option<Duration>)) {
        std::mem::swap(&mut self.options.conflict_budget, &mut budgets.0);
        std::mem::swap(&mut self.options.deadline, &mut budgets.1);
        self.proved_tier = !self.proved_tier;
    }

    /// Serializes the key into a journal record.
    pub(crate) fn write(&self, w: &mut Writer) {
        w.str(&self.engine);
        codec::write_skeleton(w, &self.skeleton);
        w.u64(self.device);
        let options = &self.options;
        w.usizes(&encode_strategy(&options.strategy));
        let optimal = options.guarantee == Guarantee::Optimal;
        w.u8(u8::from(options.use_subsets) | (u8::from(optimal) << 1));
        w.opt_u64(options.upper_bound);
        w.u64(options.seed);
        if self.proved_tier {
            w.u8(0);
        } else {
            w.u8(1);
            w.opt_u64(options.conflict_budget);
            match options.deadline {
                None => w.u8(0),
                Some(d) => {
                    w.u8(1);
                    w.duration(d);
                }
            }
        }
    }

    /// Deserializes a key from a journal record.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<CacheKey, JournalError> {
        let engine = r.str()?;
        let skeleton = codec::read_skeleton(r)?;
        let device = r.u64()?;
        let strategy =
            decode_strategy(&r.usizes()?).ok_or(JournalError::Corrupted("strategy code"))?;
        let flags = r.u8()?;
        if flags & !0b11 != 0 {
            return Err(JournalError::Corrupted("key flags"));
        }
        let mut options = MapOptions {
            guarantee: if flags & 0b10 != 0 {
                Guarantee::Optimal
            } else {
                Guarantee::BestEffort
            },
            strategy,
            use_subsets: flags & 0b01 != 0,
            upper_bound: r.opt_u64()?,
            seed: r.u64()?,
            ..MapOptions::default()
        };
        let proved_tier = match r.u8()? {
            0 => true,
            1 => {
                options.conflict_budget = r.opt_u64()?;
                options.deadline = match r.u8()? {
                    0 => None,
                    1 => Some(r.duration()?),
                    _ => return Err(JournalError::Corrupted("deadline tag")),
                };
                false
            }
            _ => return Err(JournalError::Corrupted("budget tag")),
        };
        Ok(CacheKey {
            engine,
            skeleton,
            device,
            options,
            proved_tier,
        })
    }
}

struct Entry {
    /// The stored report, unmarked (cache bookkeeping is applied to the
    /// copy served to the caller, never to the stored original). Behind
    /// `Arc` so the copy taken under the cache lock is a pointer bump;
    /// the copy made outside it shares the mapped circuit.
    report: Arc<MapReport>,
    /// `canon_to_original[l]` is the solved circuit's qubit carrying the
    /// canonical label `l` — composed with a hitting request's own
    /// canonicalization, this translates layouts between register
    /// namings.
    canon_to_original: Vec<usize>,
    /// Approximate heap footprint of this entry, charged to
    /// [`SolveCacheStats::approx_bytes`] while it lives.
    approx_bytes: usize,
    /// Whether `approx_bytes` includes the mapped circuit's QASM text,
    /// which the first response to render it stores on the shared
    /// circuit ([`crate::MappedCircuit::qasm`]).
    qasm_charged: bool,
    /// Recency stamp for LRU eviction.
    last_used: u64,
}

impl Entry {
    fn new(report: Arc<MapReport>, canon_to_original: Vec<usize>, last_used: u64) -> Entry {
        Entry {
            approx_bytes: approx_entry_bytes(&report, &canon_to_original),
            qasm_charged: report.mapped.qasm_len().is_some(),
            report,
            canon_to_original,
            last_used,
        }
    }

    /// Charges the mapped circuit's QASM text once a response rendered
    /// it: the cold response that produced the entry, or an earlier hit.
    fn charge_qasm(&mut self, counters: &CacheCounters) {
        if self.qasm_charged {
            return;
        }
        if let Some(len) = self.report.mapped.qasm_len() {
            self.approx_bytes += len;
            counters.approx_bytes.fetch_add(len, Ordering::Relaxed);
            self.qasm_charged = true;
        }
    }
}

/// Rough per-entry size: the dominant members are the mapped circuit's
/// gate list (and its QASM text, once rendered) and the
/// layout/correspondence vectors. Good enough for the capacity-planning
/// stat; no attempt at allocator-exact numbers.
fn approx_entry_bytes(report: &MapReport, canon_to_original: &[usize]) -> usize {
    const WORD: usize = std::mem::size_of::<usize>();
    let circuit = report.mapped.gates().len() * 4 * WORD;
    let qasm = report.mapped.qasm_len().unwrap_or(0);
    let layouts = 4 * report.mapped.num_qubits() * WORD;
    let correspondence = canon_to_original.len() * WORD;
    let windows = report.windows.as_ref().map_or(0, |certs| {
        certs
            .iter()
            .map(|c| {
                std::mem::size_of::<crate::report::WindowCertificate>()
                    + (c.qubits.len() + c.region.len()) * WORD
                    + c.engine.len()
            })
            .sum()
    });
    std::mem::size_of::<MapReport>() + circuit + qasm + layouts + correspondence + windows
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// Monitoring counters, kept *outside* the entry mutex so
/// [`SolveCache::stats`] is a handful of relaxed atomic loads: a metrics
/// endpoint or soak harness polling stats at high frequency never
/// contends with — or is blocked behind — an in-flight insert holding
/// the write lock. Mutators update these while holding the entry lock,
/// so any torn read a poller could observe is transient by construction.
#[derive(Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicUsize,
    /// Sum of the live entries' `approx_bytes`.
    approx_bytes: AtomicUsize,
}

/// A bounded, thread-safe, whole-solve result cache, keyed by (canonical
/// circuit skeleton, device coupling graph, request options, budget
/// class, engine signature) — see the module-level documentation above
/// for the key anatomy. The [process-wide instance](SolveCache::shared)
/// is shared by every [`crate::Engine::run_cached`] and
/// [`crate::map_one`] call.
pub struct SolveCache {
    inner: Mutex<Inner>,
    counters: CacheCounters,
    capacity: usize,
    /// When a [`crate::Journal`] is attached, every stored entry is also
    /// sent here (after the entry lock is released) for the background
    /// writer to append — the response path never touches the file.
    journal: Mutex<Option<mpsc::Sender<crate::journal::Event>>>,
}

impl SolveCache {
    /// A fresh cache holding at most `capacity` entries (at least one).
    pub fn with_capacity(capacity: usize) -> SolveCache {
        SolveCache {
            inner: Mutex::new(Inner::default()),
            counters: CacheCounters::default(),
            capacity: capacity.max(1),
            journal: Mutex::new(None),
        }
    }

    /// The process-wide instance behind [`crate::Engine::run_cached`]
    /// and [`crate::map_one`], holding
    /// [`DEFAULT_SOLVE_CACHE_CAPACITY`] entries; embedders wanting another
    /// size build their own [`SolveCache::with_capacity`] instance.
    pub fn shared() -> &'static SolveCache {
        static SHARED: OnceLock<SolveCache> = OnceLock::new();
        SHARED.get_or_init(|| SolveCache::with_capacity(DEFAULT_SOLVE_CACHE_CAPACITY))
    }

    /// The most entries this cache will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks `request` up under `engine`'s signature. On a hit, returns
    /// the stored report translated to the request's register naming and
    /// marked cache-served: [`MapReport::served_from_cache`] set,
    /// [`MapReport::winner`] prefixed with `cache/`, and
    /// [`MapReport::elapsed`] reporting this lookup's own (near-zero)
    /// wall-clock rather than the original solve's.
    pub fn lookup(&self, engine: &str, request: &MapRequest) -> Option<MapReport> {
        let start = Instant::now();
        let skeleton = CircuitSkeleton::of(request.circuit());
        let labels: Vec<usize> = skeleton.canonical_labels().to_vec();
        let key = CacheKey::of(
            engine,
            skeleton,
            request.device_fingerprint(),
            request.options(),
        );
        self.lookup_key(key, &labels, start)
    }

    /// Looks a [`CacheProbe`] up under `engine`'s signature — the
    /// skeleton-first warm path: the probe carries a circuit's canonical
    /// skeleton instead of the circuit, so an ingest pipeline that
    /// computed the skeleton during parsing can ask "was this already
    /// solved?" without ever materializing a
    /// [`qxmap_circuit::Circuit`]. Hits are identical to
    /// [`SolveCache::lookup`] hits (translated layouts, `cache/` winner
    /// prefix, lookup-time `elapsed`), misses count as misses, and a
    /// miss-then-[`SolveCache::lookup`] on the materialized circuit
    /// probes exactly the same key.
    pub fn probe(&self, engine: &str, probe: &CacheProbe) -> Option<MapReport> {
        let start = Instant::now();
        let labels: Vec<usize> = probe.skeleton.canonical_labels().to_vec();
        let key = CacheKey::of(
            engine,
            probe.skeleton.clone(),
            probe.device_fingerprint,
            &probe.options,
        );
        self.lookup_key(key, &labels, start)
    }

    /// The shared hit path of [`SolveCache::lookup`] and
    /// [`SolveCache::probe`]: proved tier first, then the budget class,
    /// then layout translation through `labels` outside the lock.
    fn lookup_key(&self, mut key: CacheKey, labels: &[usize], start: Instant) -> Option<MapReport> {
        let (stored, canon_to_original) = {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.tick += 1;
            let tick = inner.tick;
            // The proved tier first (a certificate serves every budget
            // class), then the exact budget class — probed by flipping
            // the key's tier in place, so no key is cloned and the copy
            // taken under the lock is an `Arc` pointer bump.
            let mut budgets = (None, None);
            key.swap_tier(&mut budgets);
            let probe = |inner: &mut Inner, key: &CacheKey| {
                let entry = inner.map.get_mut(key)?;
                entry.last_used = tick;
                entry.charge_qasm(&self.counters);
                Some((Arc::clone(&entry.report), entry.canon_to_original.clone()))
            };
            let hit = probe(&mut inner, &key).or_else(|| {
                key.swap_tier(&mut budgets);
                probe(&mut inner, &key)
            });
            match hit {
                Some(found) => {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    found
                }
                None => {
                    self.counters.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        };
        // Copy outside the lock (the mapped circuit and its rendered
        // QASM are shared, not copied), then translate the layouts into
        // the request's register naming: qubit `q` of the request plays
        // the solved circuit's qubit `canon_to_original[label(q)]` (key
        // equality guarantees the canonical forms agree, so the
        // composition is a permutation).
        let mut report = (*stored).clone();
        let sigma: Vec<usize> = labels.iter().map(|&l| canon_to_original[l]).collect();
        relabel(&mut report, &sigma);
        report.served_from_cache = true;
        report.winner = format!("cache/{}", report.winner);
        report.elapsed = start.elapsed();
        Some(report)
    }

    /// Stores `report` as the answer to `request` under `engine`'s
    /// signature. The report is structurally verified against the request
    /// first ([`MapReport::verify`]); unverifiable or already
    /// cache-served reports are dropped silently. Proved-optimal reports
    /// are stored under the budget-erased tier instead of their budget
    /// class, serving every budget class of the same key.
    pub fn insert(&self, engine: &str, request: &MapRequest, report: &MapReport) {
        if report.served_from_cache || report.verify(request.circuit(), request.device()).is_err() {
            return;
        }
        let skeleton = CircuitSkeleton::of(request.circuit());
        // canonical label -> the solved circuit's qubit.
        let mut canon_to_original = vec![0usize; skeleton.num_qubits()];
        for (q, &l) in skeleton.canonical_labels().iter().enumerate() {
            canon_to_original[l] = q;
        }
        let key = CacheKey::of(
            engine,
            skeleton,
            request.device_fingerprint(),
            request.options(),
        );
        // A certificate serves every budget class, and lookups probe the
        // proved tier first: a proved report is stored there alone.
        let key = if report.proved_optimal {
            key.proved_tier()
        } else {
            key
        };
        // A stored report must serve *any* future request with the same
        // key: the solving request's trace timeline is not part of the
        // answer and is never cached.
        let mut stored = report.clone();
        stored.trace = None;
        let shared_report = Arc::new(stored);
        let journal = self
            .journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .map(|tx| (tx, key.clone()));
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.tick += 1;
            let entry = Entry::new(
                Arc::clone(&shared_report),
                canon_to_original.clone(),
                inner.tick,
            );
            self.counters
                .approx_bytes
                .fetch_add(entry.approx_bytes, Ordering::Relaxed);
            if let Some(replaced) = inner.map.insert(key, entry) {
                self.counters
                    .approx_bytes
                    .fetch_sub(replaced.approx_bytes, Ordering::Relaxed);
            }
            evict_to_capacity(&mut inner, self.capacity, &self.counters);
            self.counters
                .entries
                .store(inner.map.len(), Ordering::Relaxed);
        }
        // Journal notification happens strictly after the entry lock is
        // released: the caller's response path pays a key clone and a
        // channel send at worst, never file IO.
        if let Some((tx, key)) = journal {
            let _ = tx.send(crate::journal::Event::Entry {
                key: Box::new(key),
                canon_to_original,
                report: shared_report,
            });
        }
    }

    /// Attaches (or detaches) the journal writer's event channel — every
    /// subsequent [`SolveCache::insert`] forwards its stored entries.
    pub(crate) fn set_journal(&self, sender: Option<mpsc::Sender<crate::journal::Event>>) {
        *self.journal.lock().unwrap_or_else(PoisonError::into_inner) = sender;
    }

    /// Every held entry — key, correspondence, shared report, recency
    /// stamp — sorted least-recently-used first: what journal compaction
    /// writes. The lock is held only for the key clones and `Arc` bumps.
    pub(crate) fn export_entries(&self) -> Vec<(CacheKey, Vec<usize>, Arc<MapReport>, u64)> {
        let mut entries: Vec<(CacheKey, Vec<usize>, Arc<MapReport>, u64)> = {
            let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner
                .map
                .iter()
                .map(|(key, entry)| {
                    (
                        key.clone(),
                        entry.canon_to_original.clone(),
                        Arc::clone(&entry.report),
                        entry.last_used,
                    )
                })
                .collect()
        };
        entries.sort_by_key(|&(_, _, _, last_used)| last_used);
        entries
    }

    /// Admits one already-decoded entry — the journal replay path.
    /// Unlike [`SolveCache::insert`] the report is trusted as decoded
    /// (its checksum already passed), but the correspondence table is
    /// still validated as a permutation because lookups index through it
    /// unchecked. A proved report is admitted under the proved tier, as
    /// [`SolveCache::insert`] stores it, so a file that also journaled it
    /// under its budget class replays to one entry. Returns `Ok(false)`
    /// when the key is already live (the live entry wins); never forwards
    /// to the journal, so replaying a file a journal is attached to
    /// cannot echo records back into it.
    pub(crate) fn admit_decoded(
        &self,
        key: CacheKey,
        canon_to_original: Vec<usize>,
        report: Arc<MapReport>,
    ) -> Result<bool, JournalError> {
        if let Some(defect) = correspondence_defect(&key, &canon_to_original) {
            return Err(JournalError::Corrupted(defect));
        }
        let key = if report.proved_optimal && !key.proved_tier {
            key.proved_tier()
        } else {
            key
        };
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.map.contains_key(&key) {
            return Ok(false);
        }
        inner.tick += 1;
        let entry = Entry::new(report, canon_to_original, inner.tick);
        self.counters
            .approx_bytes
            .fetch_add(entry.approx_bytes, Ordering::Relaxed);
        inner.map.insert(key, entry);
        evict_to_capacity(&mut inner, self.capacity, &self.counters);
        self.counters
            .entries
            .store(inner.map.len(), Ordering::Relaxed);
        Ok(true)
    }

    /// Cumulative counters, the current entry count, and the entries'
    /// approximate byte footprint.
    ///
    /// This read is a handful of relaxed atomic loads — it never takes
    /// the cache's entry lock, so a metrics endpoint or a load-test
    /// harness can poll it at arbitrary frequency without stalling (or
    /// being stalled by) concurrent lookups and inserts.
    pub fn stats(&self) -> SolveCacheStats {
        let c = &self.counters;
        SolveCacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            entries: c.entries.load(Ordering::Relaxed),
            approx_bytes: c.approx_bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry (counters are kept; they are cumulative).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.map.clear();
        self.counters.entries.store(0, Ordering::Relaxed);
        self.counters.approx_bytes.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for SolveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Evicts least-recently-used entries until at most `capacity` remain,
/// releasing their bytes and counting each eviction — the one eviction
/// policy, shared by live inserts and journal replay.
fn evict_to_capacity(inner: &mut Inner, capacity: usize, counters: &CacheCounters) {
    while inner.map.len() > capacity {
        let stalest = inner
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
            .expect("over-capacity map is non-empty");
        let evicted = inner.map.remove(&stalest).expect("key came from the map");
        counters
            .approx_bytes
            .fetch_sub(evicted.approx_bytes, Ordering::Relaxed);
        counters.evictions.fetch_add(1, Ordering::Relaxed);
    }
}

/// Checks a decoded entry's correspondence table against its key's
/// skeleton: it must be a permutation of the canonical labels, because
/// lookups index through it unchecked. Checked by the journal replay
/// admission.
fn correspondence_defect(key: &CacheKey, canon_to_original: &[usize]) -> Option<&'static str> {
    let n = key.skeleton.num_qubits();
    if canon_to_original.len() != n {
        return Some("correspondence length");
    }
    let mut seen = vec![false; n];
    for &q in canon_to_original {
        if q >= n || seen[q] {
            return Some("correspondence permutation");
        }
        seen[q] = true;
    }
    None
}

/// Translates a solved `report` into a request's register naming, where
/// request qubit `q` plays the solved circuit's qubit `sigma[q]`: both
/// layouts and every window certificate's logical `qubits` move
/// together.
fn relabel(report: &mut MapReport, sigma: &[usize]) {
    if sigma.iter().enumerate().all(|(q, &s)| q == s) {
        return;
    }
    report.initial_layout = remap_layout(&report.initial_layout, sigma);
    report.final_layout = remap_layout(&report.final_layout, sigma);
    if let Some(windows) = report.windows.as_mut() {
        let mut request_qubit = vec![0usize; sigma.len()];
        for (q, &s) in sigma.iter().enumerate() {
            request_qubit[s] = q;
        }
        for qubit in windows.iter_mut().flat_map(|w| w.qubits.iter_mut()) {
            *qubit = request_qubit[*qubit];
        }
    }
}

/// `layout` with its logical axis relabeled: the result places request
/// qubit `q` where `layout` places solved qubit `sigma[q]`.
fn remap_layout(layout: &Layout, sigma: &[usize]) -> Layout {
    let mut remapped = Layout::new(sigma.len(), layout.num_phys());
    for (q, &s) in sigma.iter().enumerate() {
        if let Some(p) = layout.phys_of(s) {
            remapped
                .assign(q, p)
                .expect("sigma is a permutation, so the image stays injective");
        }
    }
    remapped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, HeuristicEngine};
    use qxmap_arch::devices;
    use qxmap_circuit::{paper_example, Circuit};

    fn solve_and_insert(cache: &SolveCache, request: &MapRequest) -> MapReport {
        let engine = HeuristicEngine::naive();
        let report = engine.run(request).expect("mappable");
        cache.insert(&engine.cache_signature(), request, &report);
        report
    }

    #[test]
    fn identical_requests_hit() {
        let cache = SolveCache::with_capacity(8);
        let request = MapRequest::new(paper_example(), devices::ibm_qx4());
        assert!(cache.lookup("naive", &request).is_none());
        let solved = solve_and_insert(&cache, &request);
        let hit = cache.lookup("naive", &request).expect("second lookup hits");
        assert!(hit.served_from_cache);
        assert_eq!(hit.winner, "cache/naive");
        assert_eq!(hit.cost, solved.cost);
        assert_eq!(hit.mapped, solved.mapped);
        assert_eq!(hit.runtime, solved.runtime, "original solve time kept");
        assert!(hit.elapsed < Duration::from_millis(10), "{:?}", hit.elapsed);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn relabeled_registers_hit_with_translated_layouts() {
        let cache = SolveCache::with_capacity(8);
        let circuit = paper_example();
        let cm = devices::ibm_qx4();
        let request = MapRequest::new(circuit.clone(), cm.clone());
        solve_and_insert(&cache, &request);

        // The same circuit with renamed registers (q -> sigma[q]).
        let sigma = [2usize, 0, 3, 1];
        let renamed = circuit.map_qubits(circuit.num_qubits(), |q| sigma[q]);
        let renamed_request = MapRequest::new(renamed.clone(), cm.clone());
        let hit = cache
            .lookup("naive", &renamed_request)
            .expect("relabeled equivalents share the entry");
        assert!(hit.served_from_cache);
        // The served report must be valid *for the renamed circuit*.
        hit.verify(&renamed, &cm).expect("translated layouts");
        assert_eq!(hit.mapped.num_qubits(), cm.num_qubits());
    }

    #[test]
    fn different_device_and_options_miss() {
        let cache = SolveCache::with_capacity(8);
        let request = MapRequest::new(paper_example(), devices::ibm_qx4());
        solve_and_insert(&cache, &request);
        // Different coupling graph.
        let other = MapRequest::new(paper_example(), devices::ibm_qx2());
        assert!(cache.lookup("naive", &other).is_none());
        // Different engine signature.
        assert!(cache.lookup("sabre", &request).is_none());
        // Different seed.
        let reseeded = MapRequest::new(paper_example(), devices::ibm_qx4()).with_seed(7);
        assert!(cache.lookup("naive", &reseeded).is_none());
    }

    #[test]
    fn budget_classes_are_separate_but_proofs_serve_all() {
        let cache = SolveCache::with_capacity(8);
        let unbudgeted = MapRequest::new(paper_example(), devices::ibm_qx4());
        let budgeted = MapRequest::new(paper_example(), devices::ibm_qx4())
            .with_deadline(Duration::from_millis(50));

        // An unproved heuristic answer stays in its own budget class.
        solve_and_insert(&cache, &unbudgeted);
        assert!(cache.lookup("naive", &budgeted).is_none());

        // A proved answer is published to every budget class.
        let engine = crate::engine::ExactEngine::new();
        let proved = engine.run(&unbudgeted).expect("in regime");
        assert!(proved.proved_optimal);
        cache.insert(&engine.cache_signature(), &unbudgeted, &proved);
        let hit = cache
            .lookup("exact", &budgeted)
            .expect("a certificate serves any deadline class");
        assert!(hit.proved_optimal && hit.served_from_cache);
    }

    #[test]
    fn lru_eviction_is_counted_and_bounded() {
        let cache = SolveCache::with_capacity(2);
        let cm = devices::ibm_qx4();
        let requests: Vec<MapRequest> = (2..=5)
            .map(|n| {
                let mut c = Circuit::new(n);
                for q in 0..n - 1 {
                    c.cx(q, q + 1);
                }
                MapRequest::new(c, cm.clone())
            })
            .collect();
        for r in &requests {
            solve_and_insert(&cache, r);
        }
        let stats = cache.stats();
        assert!(stats.entries <= 2);
        assert!(stats.evictions >= 2, "{stats:?}");
        // The most recent insert survives; the oldest is gone.
        assert!(cache.lookup("naive", &requests[3]).is_some());
        assert!(cache.lookup("naive", &requests[0]).is_none());
    }

    #[test]
    fn errors_and_cache_served_reports_are_not_stored() {
        let cache = SolveCache::with_capacity(8);
        let request = MapRequest::new(paper_example(), devices::ibm_qx4());
        solve_and_insert(&cache, &request);
        let hit = cache.lookup("naive", &request).expect("hit");
        // Re-inserting the served clone is a no-op (no self-amplifying
        // cache/cache/... winners).
        cache.insert("naive", &request, &hit);
        let again = cache.lookup("naive", &request).expect("hit");
        assert_eq!(again.winner, "cache/naive");
    }

    #[test]
    fn stats_reads_complete_while_the_entry_lock_is_held() {
        // The soak harness and the daemon's metrics endpoint poll
        // stats() continuously; a read that needed the entry mutex would
        // stall behind (and add contention to) every in-flight insert.
        let cache = Arc::new(SolveCache::with_capacity(8));
        let request = MapRequest::new(paper_example(), devices::ibm_qx4());
        solve_and_insert(&cache, &request);
        let _guard = cache.inner.lock().expect("no panics under the lock");
        let (send, receive) = std::sync::mpsc::channel();
        let polled = Arc::clone(&cache);
        std::thread::spawn(move || {
            let _ = send.send(polled.stats());
        });
        let stats = receive
            .recv_timeout(Duration::from_secs(10))
            .expect("stats() blocked behind the held entry lock");
        assert_eq!(stats.entries, 1);
        assert!(stats.approx_bytes > 0);
    }

    #[test]
    fn byte_accounting_follows_inserts_evictions_and_clear() {
        let cache = SolveCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        assert_eq!(cache.stats().approx_bytes, 0);
        let cm = devices::ibm_qx4();
        let requests: Vec<MapRequest> = (2..=4)
            .map(|n| {
                let mut c = Circuit::new(n);
                for q in 0..n - 1 {
                    c.cx(q, q + 1);
                }
                MapRequest::new(c, cm.clone())
            })
            .collect();
        solve_and_insert(&cache, &requests[0]);
        let one = cache.stats();
        assert!(one.approx_bytes > 0, "{one:?}");
        solve_and_insert(&cache, &requests[1]);
        let two = cache.stats();
        assert!(two.approx_bytes > one.approx_bytes);
        // Overflow evicts and releases the evicted entry's bytes: the
        // footprint stays bounded by the two largest entries ever held.
        solve_and_insert(&cache, &requests[2]);
        let three = cache.stats();
        assert!(three.evictions >= 1);
        assert!(three.entries <= 2);
        assert!(three.approx_bytes > 0);
        assert!(three.approx_bytes < one.approx_bytes + two.approx_bytes);
        cache.clear();
        assert_eq!(cache.stats().approx_bytes, 0);
    }

    #[test]
    fn calibration_overrides_are_cache_misses() {
        use qxmap_arch::DeviceModel;
        let cache = SolveCache::with_capacity(8);
        let request = MapRequest::new(paper_example(), devices::ibm_qx4());
        solve_and_insert(&cache, &request);
        assert!(cache.lookup("naive", &request).is_some());
        // The same device under a skewed calibration is a different
        // fingerprint — the cached answer may not serve it.
        let skewed = DeviceModel::new(devices::ibm_qx4()).with_swap_cost(3, 4, 70);
        let calibrated = MapRequest::for_model(paper_example(), skewed);
        assert!(cache.lookup("naive", &calibrated).is_none());
    }

    #[test]
    fn keys_round_trip_through_the_journal_codec() {
        let skeleton = CircuitSkeleton::of(&paper_example());
        for strategy in [
            Strategy::BeforeEveryGate,
            Strategy::DisjointQubits,
            Strategy::OddGates,
            Strategy::QubitTriangle,
            Strategy::Window(3),
            Strategy::Custom(vec![1, 4]),
        ] {
            let options = MapOptions {
                guarantee: Guarantee::Optimal,
                strategy,
                use_subsets: false,
                conflict_budget: Some(9),
                deadline: Some(Duration::from_millis(5)),
                upper_bound: Some(4),
                seed: 7,
            };
            let key = CacheKey::of("exact", skeleton.clone(), 42, &options);
            for key in [key.proved_tier(), key] {
                let mut w = Writer::new();
                key.write(&mut w);
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes);
                assert!(CacheKey::read(&mut r).unwrap() == key);
                assert_eq!(r.remaining(), 0);
            }
        }
        assert!(decode_strategy(&[4]).is_none(), "a window needs its k");
    }

    #[test]
    fn skeleton_probe_matches_request_lookup() {
        let cache = SolveCache::with_capacity(8);
        let circuit = paper_example();
        let cm = devices::ibm_qx4();
        let request = MapRequest::new(circuit.clone(), cm.clone());
        let probe = CacheProbe::new(CircuitSkeleton::of(&circuit), &cm);
        // A probe miss counts as a miss, like a request lookup would.
        assert!(cache.probe("naive", &probe).is_none());
        assert_eq!(cache.stats().misses, 1);
        solve_and_insert(&cache, &request);
        let via_probe = cache.probe("naive", &probe).expect("probe hit");
        let via_lookup = cache.lookup("naive", &request).expect("lookup hit");
        assert!(via_probe.served_from_cache);
        assert_eq!(via_probe.winner, via_lookup.winner);
        assert_eq!(via_probe.cost, via_lookup.cost);
        assert_eq!(via_probe.mapped, via_lookup.mapped);
        assert_eq!(via_probe.initial_layout, via_lookup.initial_layout);
        assert_eq!(via_probe.final_layout, via_lookup.final_layout);
    }

    #[test]
    fn probe_options_pin_the_same_key_fields_as_requests() {
        let cache = SolveCache::with_capacity(8);
        let circuit = paper_example();
        let cm = devices::ibm_qx4();
        let skeleton = CircuitSkeleton::of(&circuit);
        let budgeted = MapRequest::new(circuit.clone(), cm.clone())
            .with_seed(7)
            .with_deadline(Duration::from_millis(50));
        solve_and_insert(&cache, &budgeted);
        // The request's own options hit…
        let hit = CacheProbe::new(skeleton.clone(), &cm).with_options(budgeted.options().clone());
        assert!(cache.probe("naive", &hit).is_some());
        // …and every mismatched knob misses, exactly like a request.
        let options = |seed: u64, deadline: Option<Duration>| MapOptions {
            seed,
            deadline,
            ..MapOptions::default()
        };
        let no_deadline = CacheProbe::new(skeleton.clone(), &cm).with_options(options(7, None));
        assert!(cache.probe("naive", &no_deadline).is_none());
        let wrong_seed = CacheProbe::new(skeleton.clone(), &cm)
            .with_options(options(0, Some(Duration::from_millis(50))));
        assert!(cache.probe("naive", &wrong_seed).is_none());
        let wrong_device = CacheProbe::new(skeleton, &devices::ibm_qx2())
            .with_options(options(7, Some(Duration::from_millis(50))));
        assert!(cache.probe("naive", &wrong_device).is_none());
    }

    #[test]
    fn relabeled_skeleton_probe_translates_layouts() {
        let cache = SolveCache::with_capacity(8);
        let circuit = paper_example();
        let cm = devices::ibm_qx4();
        solve_and_insert(&cache, &MapRequest::new(circuit.clone(), cm.clone()));
        // Probing with a renamed-register equivalent's skeleton serves
        // the entry with layouts translated to *that* naming.
        let sigma = [2usize, 0, 3, 1];
        let renamed = circuit.map_qubits(circuit.num_qubits(), |q| sigma[q]);
        let probe = CacheProbe::new(CircuitSkeleton::of(&renamed), &cm);
        let hit = cache.probe("naive", &probe).expect("relabeled probe hit");
        hit.verify(&renamed, &cm).expect("translated layouts");
    }

    #[test]
    fn probe_for_model_tracks_calibration_fingerprints() {
        use qxmap_arch::DeviceModel;
        let cache = SolveCache::with_capacity(8);
        let circuit = paper_example();
        let skewed = DeviceModel::new(devices::ibm_qx4()).with_swap_cost(3, 4, 70);
        let request = MapRequest::for_model(circuit.clone(), skewed.clone());
        solve_and_insert(&cache, &request);
        let skeleton = CircuitSkeleton::of(&circuit);
        let probe = CacheProbe::for_model(skeleton.clone(), &skewed);
        assert!(cache.probe("naive", &probe).is_some());
        // The uniform-model probe is a different device identity.
        assert!(cache
            .probe("naive", &CacheProbe::new(skeleton, &devices::ibm_qx4()))
            .is_none());
    }

    #[test]
    fn a_panic_under_the_lock_leaves_the_cache_working() {
        let cache = SolveCache::with_capacity(4);
        let circuit = paper_example();
        let cm = devices::ibm_qx4();
        let request = MapRequest::new(circuit.clone(), cm.clone());
        solve_and_insert(&cache, &request);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.inner.lock();
                    panic!("injected panic while holding the entry lock");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(cache.inner.is_poisoned());

        assert!(cache.lookup("naive", &request).is_some());
        let probe = CacheProbe::new(CircuitSkeleton::of(&circuit), &cm);
        assert!(cache.probe("naive", &probe).is_some());
        let mut chain = Circuit::new(3);
        chain.cx(0, 1).cx(1, 2);
        let other = MapRequest::new(chain, cm);
        solve_and_insert(&cache, &other);
        assert!(cache.lookup("naive", &other).is_some());
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.export_entries().len(), 2);
        cache.clear();
        assert!(cache.lookup("naive", &request).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = SolveCache::with_capacity(8);
        let request = MapRequest::new(paper_example(), devices::ibm_qx4());
        solve_and_insert(&cache, &request);
        assert!(cache.lookup("naive", &request).is_some());
        cache.clear();
        assert!(cache.lookup("naive", &request).is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert!(stats.hits >= 1 && stats.misses >= 1);
    }
}

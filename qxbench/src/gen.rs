//! Seeded workload generation: the distinct circuits of a workload, the
//! order they arrive in, and the request lines the daemon sees.

use std::collections::VecDeque;

use qxmap_benchmarks::{circuit_for, famous, synthetic_circuit, table1_profiles};
use qxmap_circuit::Circuit;
use qxmap_serve::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One distinct mapping job: a circuit and the device it targets.
pub struct Item {
    pub circuit: Circuit,
    pub device: &'static str,
    /// The circuit as a JSON string literal, escaped once.
    qasm_json: String,
    /// Overrides the workload's `deadline_ms` for this item.
    deadline_ms: Option<u64>,
}

impl Item {
    fn new(circuit: Circuit, device: &'static str) -> Item {
        let qasm_json = Json::str(qxmap_qasm::to_qasm(&circuit)).to_string();
        Item {
            circuit,
            device,
            qasm_json,
            deadline_ms: None,
        }
    }
}

/// A generated workload.
pub struct Workload {
    pub name: &'static str,
    pub items: Vec<Item>,
    plan: Plan,
    pub deadline_ms: u64,
    /// Every request carries a fresh `seed` field (so none can hit).
    pub fresh_seeds: bool,
    /// Whether each pool line is answered once before the timed phase.
    pub primed: bool,
    /// Concurrent closed-loop connections in the timed phase.
    pub connections: usize,
    /// The percentile reported as `latency_tail_ms`: a high one of 50,
    /// 66.7, 75, 90, 95, 97.5, 99, 99.5 and 99.9 with at least ten
    /// samples beyond it at the workload's timed request count, stepped
    /// down where the highest would read host stalls.
    pub tail_pct: f64,
    pub seed: u64,
}

/// One request of a schedule.
pub struct Req {
    /// Position in the connection's schedule (echoed as the wire `id`).
    pub id: u64,
    pub item: usize,
    /// The `seed` field, when the workload sends one.
    pub seed: Option<u64>,
    /// Whether this request completes a slot: one item from every
    /// stratum. Timed metrics cover whole slots only.
    pub slot_end: bool,
}

pub const WORKLOADS: [&str; 3] = ["exact_cold", "large_device", "warm_hits"];

/// The ≤ 8-qubit devices of the warm pool.
const SMALL_DEVICES: [&str; 4] = ["qx4", "ring-6", "heavy-hex-1", "grid-2x4"];

pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5EED));
    let w = match name {
        "exact_cold" => exact_cold(&mut rng),
        "large_device" => large_device(&mut rng),
        "warm_hits" => warm_hits(&mut rng),
        _ => return None,
    };
    Some(Workload { seed, ..w })
}

/// The order requests arrive in. A *slot* is the unit every prefix of a
/// schedule is balanced over; timed metrics cover whole slots.
enum Plan {
    /// Rounds in which every stratum (items grouped by expected cost)
    /// contributes its `take`, one item from each stratum in turn.
    Rounds(Vec<Stratum>),
    /// Blocks of new items, each item arriving once in each of
    /// `arrivals[item]` consecutive blocks; one block is one slot.
    Staggered {
        blocks: Vec<Vec<usize>>,
        arrivals: Vec<usize>,
    },
}

/// Items of like cost, dealt `take` per round from a seeded deck that is
/// reshuffled when it runs out: with `take` equal to the stratum's size,
/// every item arrives once per round.
struct Stratum {
    items: Vec<usize>,
    take: usize,
}

/// Strata that each contribute all their items to every round.
fn whole(strata: Vec<Vec<usize>>) -> Vec<Stratum> {
    strata
        .into_iter()
        .map(|items| Stratum {
            take: items.len(),
            items,
        })
        .collect()
}

fn base(name: &'static str, items: Vec<Item>, strata: Vec<Stratum>) -> Workload {
    Workload {
        name,
        items,
        plan: Plan::Rounds(strata),
        deadline_ms: 1000,
        fresh_seeds: false,
        primed: false,
        connections: 1,
        tail_pct: 90.0,
        seed: 0,
    }
}

/// Table 1 rows the exact engine proves within `exact_cold`'s 1000 ms
/// deadline on nearly every request seed; each of the other fourteen
/// runs to the deadline on some seeds or on all of them.
const PROVING_ROWS: [&str; 11] = [
    "ex-1_166",
    "4gt11_84",
    "4mod5-v1_22",
    "ham3_102",
    "4mod5-v0_20",
    "mod5d1_63",
    "3_17_13",
    "mod5mils_65",
    "miller_11",
    "rd32-v1_68",
    "rd32-v0_66",
];

/// The proving rows whose solves take 100–450 ms: each arrives twice per
/// round, so the median and p75 fall inside their cluster rather than in
/// a gap between rows. (`4mod5-v0_20` arrives once: about one solve in
/// three takes 650 ms.)
const CLUSTER_ROWS: [&str; 5] = [
    "4mod5-v1_22",
    "mod5d1_63",
    "mod5mils_65",
    "rd32-v1_68",
    "rd32-v0_66",
];

/// The paper's regime: the 25 Table 1 stand-ins on QX4 plus 6–8-qubit
/// synthetic rows on the small devices, every request with a fresh seed.
/// A round of 17 requests holds every proving row once, the cluster rows
/// a second time, and one of the other fourteen rows or of the wide rows,
/// dealt from a seeded deck. Those nineteen run to the deadline, so about
/// one request in fifteen does, and the median and the tail are solves
/// that finish even when the host runs slow.
fn exact_cold(rng: &mut StdRng) -> Workload {
    // Ordered by the paper's own exact solve time, so each stratum holds
    // rows of like difficulty.
    let mut profiles = table1_profiles();
    profiles.sort_by(|a, b| a.paper.minimal_seconds.total_cmp(&b.paper.minimal_seconds));
    let (proving, hard): (Vec<_>, Vec<_>) = profiles
        .iter()
        .partition(|p| PROVING_ROWS.contains(&p.name));
    let mut items: Vec<Item> = proving
        .iter()
        .chain(&hard)
        .map(|p| Item::new(circuit_for(p), "qx4"))
        .collect();
    for (qubits, cnots, device) in [
        (6, 20, "ring-6"),
        (7, 24, "heavy-hex-1"),
        (8, 30, "grid-2x4"),
        (8, 40, "linear-8"),
        (7, 24, "grid-2x4"),
    ] {
        let circuit = synthetic_circuit(qubits, cnots / 2, cnots, rng.gen());
        items.push(Item::new(circuit, device));
    }
    // Three strata of proving rows, the cluster rows again, then one of
    // the hard and wide rows per round.
    let mut strata: Vec<Vec<usize>> = (0..proving.len())
        .collect::<Vec<_>>()
        .chunks(5)
        .map(<[usize]>::to_vec)
        .collect();
    strata.push(
        (0..proving.len())
            .filter(|&i| CLUSTER_ROWS.contains(&proving[i].name))
            .collect(),
    );
    strata.push((proving.len()..items.len()).collect());
    let mut strata = whole(strata);
    if let Some(hard) = strata.last_mut() {
        hard.take = 1;
    }
    Workload {
        fresh_seeds: true,
        // 70–100 timed requests: at least 17 lie beyond p75.
        tail_pct: 75.0,
        ..base("exact_cold", items, strata)
    }
}

/// A circuit and the device it is mapped onto.
type Job = (Circuit, &'static str);

/// Past the exact regime: a stream of circuits on 16–65-qubit devices
/// with no `windowed` field, in blocks of 17 requests. A block holds
/// ten new synthetic 14-qubit circuits on 20-qubit devices, a new
/// relabeling of `4gt11_84` on Tokyo and one new circuit from each of
/// three other strata; the new circuits of two of those strata arrive
/// again in the next block, every other circuit once. Most requests are
/// thus cold solves, and the median request is one of the cluster of
/// near-equal 14-qubit solves. Every cycle of five blocks brings new
/// synthetic circuits, new sizes of the structured families and new
/// relabelings of the Table 1 stand-ins.
fn large_device(rng: &mut StdRng) -> Workload {
    const CYCLES: usize = 8;
    const COLD_PER_BLOCK: usize = 10;
    let table1 = table1_profiles();
    let mut items: Vec<Item> = Vec::new();
    let mut arrivals: Vec<usize> = Vec::new();
    let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); 5 * CYCLES];
    for c in 0..CYCLES {
        // The structured families' sizes follow the cycle, not the seed:
        // how much of a new one the window cache already holds is then
        // the same for every seed.
        let e = c % 12;
        let (g1, g3) = (9 + e, 41 + e);
        let (t1, t2) = (5 + e, 13 + e);
        let (a2, b) = (8 + e % 5, 5 + e % 5);
        let row = |name: &str| {
            circuit_for(
                table1
                    .iter()
                    .find(|p| p.name == name)
                    .expect("a Table 1 row"),
            )
        };
        let mut synth = |q: usize, cx: usize| synthetic_circuit(q, cx / 2, cx, rng.gen());
        // Strata in order of cost, with how often each item arrives and
        // how many of it each block brings. `4gt11_84` maps onto Tokyo at
        // zero cost, which the windowed engine proves: one such answer
        // per block keeps `proved_share` off zero and the same in every
        // run.
        let cold: Vec<Job> = (0..5 * COLD_PER_BLOCK)
            .map(|k| (synth(14, 60), ["tokyo", "grid-4x5"][k % 2]))
            .collect();
        let strata: [(usize, usize, Vec<Job>); 5] = [
            (1, 1, vec![(row("4gt11_84"), "tokyo"); 5]),
            (
                1,
                1,
                vec![
                    (row("ex-1_166"), "qx5"),
                    (row("ham3_102"), "qx5"),
                    (row("4mod5-v1_22"), "grid-4x5"),
                    (row("3_17_13"), "qx5"),
                    (row("alu-v0_27"), "tokyo"),
                ],
            ),
            (
                2,
                1,
                vec![
                    (row("qe_qft_4"), "qx5"),
                    (row("mod5d1_63"), "grid-4x5"),
                    (famous::ghz(g1), "tokyo"),
                    (famous::toffoli_chain(t1, 8), "qx5"),
                    (synth(10, 40), "qx5"),
                ],
            ),
            (1, COLD_PER_BLOCK, cold),
            (
                2,
                1,
                vec![
                    (synth(20, 80), "heavy-hex-3"),
                    (famous::toffoli_chain(t2, 12), "heavy-hex-3"),
                    (famous::ripple_adder(a2), "heavy-hex-4"),
                    (famous::qft_blocks(b, 4), "heavy-hex-4"),
                    (famous::ghz(g3), "heavy-hex-4"),
                ],
            ),
        ];
        // Each shape lands in the same block for every seed: the seed
        // draws the synthetic circuits, the relabelings and the order
        // within a block, not which heavy circuits a run reaches.
        for (times, per_block, entries) in strata {
            for (k, (circuit, device)) in entries.into_iter().enumerate() {
                items.push(Item::new(relabel(&circuit, rng), device));
                arrivals.push(times);
                blocks[5 * c + k / per_block].push(items.len() - 1);
            }
        }
    }
    Workload {
        plan: Plan::Staggered { blocks, arrivals },
        deadline_ms: 2000,
        // 80–110 timed requests, as fast as the host runs: at least 20
        // lie beyond p75, while p90 would fall short of ten on a slow run.
        tail_pct: 75.0,
        ..base("large_device", items, Vec::new())
    }
}

/// Table 1 stand-ins the exact engine proves on QX4 in a few hundred
/// milliseconds at most: the warm pool's smallest circuits.
const WARM_PROVED_ROWS: [&str; 7] = [
    "ex-1_166",
    "4gt11_84",
    "ham3_102",
    "4mod5-v1_22",
    "rd32-v0_66",
    "3_17_13",
    "miller_11",
];

/// Cache-served traffic: 64 distinct 3–5-qubit circuits on ≤ 8-qubit
/// devices, primed once, then repeated. Seven are Table 1 stand-ins of
/// 9–23 CNOTs on QX4, primed with a deadline long enough to prove every
/// one of them. The other 57 are synthetic 4- and 5-qubit circuits with
/// CNOT counts spread log-uniformly over 20–3000 (one draw per 1/57
/// quantile band, with qubit counts and devices dealt in a fixed cycle,
/// so the pool's shape mix is the same for every seed and only the
/// circuits' content and exact sizes are drawn); at the 200 ms deadline
/// none of them proves. A pool with circuits that prove close to their
/// deadline would make `proved_share` turn on the seed and the host's
/// speed.
fn warm_hits(rng: &mut StdRng) -> Workload {
    const POOL: usize = 64;
    const PROOF_DEADLINE_MS: u64 = 3000;
    let synthetic = POOL - WARM_PROVED_ROWS.len();
    let span = (3000.0f64 / 20.0).ln();
    let table1 = table1_profiles();
    let rows = WARM_PROVED_ROWS.iter().map(|name| {
        let profile = table1.iter().find(|p| p.name == *name);
        let mut item = Item::new(circuit_for(profile.expect("a Table 1 row")), "qx4");
        item.deadline_ms = Some(PROOF_DEADLINE_MS);
        item
    });
    let drawn: Vec<Item> = (0..synthetic)
        .map(|i| {
            let u: f64 = rng.gen();
            let cnots = (20.0 * (span * (i as f64 + u) / synthetic as f64).exp()).round() as usize;
            let qubits = 4 + i % 2;
            let device = SMALL_DEVICES[(i / 2) % SMALL_DEVICES.len()];
            Item::new(synthetic_circuit(qubits, cnots, cnots, rng.gen()), device)
        })
        .collect();
    let items: Vec<Item> = rows.chain(drawn).collect();
    let strata = whole(
        (0..POOL)
            .collect::<Vec<_>>()
            .chunks(POOL / 4)
            .map(<[usize]>::to_vec)
            .collect(),
    );
    Workload {
        deadline_ms: 200,
        primed: true,
        connections: 2,
        // p99.9 (20 beyond it) reads the largest pool circuit's requests
        // that met a host stall: 19 or 28 ms, as the stalls fall. p99
        // (200 beyond) reads the bulk of them.
        tail_pct: 99.0,
        ..base("warm_hits", items, strata)
    }
}

impl Workload {
    /// The request line for one request.
    pub fn line(&self, req: &Req) -> String {
        let item = &self.items[req.item];
        let seed = req
            .seed
            .map(|s| format!(",\"seed\":{s}"))
            .unwrap_or_default();
        format!(
            "{{\"type\":\"map\",\"id\":{},\"qasm\":{},\"device\":\"{}\",\"deadline_ms\":{}{seed}}}",
            req.id,
            item.qasm_json,
            item.device,
            item.deadline_ms.unwrap_or(self.deadline_ms)
        )
    }

    /// Every item's line, with the item index as its `id`: the warm pool.
    pub fn pool_lines(&self) -> Vec<String> {
        (0..self.items.len())
            .map(|i| {
                let req = Req {
                    id: i as u64,
                    item: i,
                    seed: None,
                    slot_end: false,
                };
                self.line(&req)
            })
            .collect()
    }

    /// The seeded request order of connection `conn`.
    pub fn schedule(&self, conn: usize) -> Schedule<'_> {
        Schedule {
            workload: self,
            rng: StdRng::seed_from_u64(mix(self.seed, 0xC0 + conn as u64)),
            queue: VecDeque::new(),
            decks: Vec::new(),
            block: 0,
            next_id: 0,
        }
    }
}

/// An endless request order, following the workload's [`Plan`].
pub struct Schedule<'a> {
    workload: &'a Workload,
    rng: StdRng,
    queue: VecDeque<(usize, bool)>,
    /// Per stratum, the items not yet dealt from its current deck.
    decks: Vec<Vec<usize>>,
    block: usize,
    next_id: u64,
}

impl Iterator for Schedule<'_> {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        if self.queue.is_empty() {
            // One slot: a whole round, or a whole block.
            let slot: Vec<usize> = match &self.workload.plan {
                Plan::Rounds(strata) => {
                    self.decks.resize(strata.len(), Vec::new());
                    let mut dealt: Vec<Vec<usize>> = Vec::new();
                    for (s, deck) in strata.iter().zip(&mut self.decks) {
                        let mut hand = Vec::new();
                        while hand.len() < s.take {
                            if deck.is_empty() {
                                deck.clone_from(&s.items);
                                shuffle(deck, &mut self.rng);
                            }
                            hand.extend(deck.pop());
                        }
                        dealt.push(hand);
                    }
                    let width = dealt.iter().map(Vec::len).max().unwrap_or(0);
                    let mut round = Vec::new();
                    for k in 0..width {
                        let mut group: Vec<usize> =
                            dealt.iter().filter_map(|h| h.get(k).copied()).collect();
                        shuffle(&mut group, &mut self.rng);
                        round.extend(group);
                    }
                    round
                }
                Plan::Staggered { blocks, arrivals } => {
                    let b = self.block;
                    self.block = (b + 1) % blocks.len();
                    let longest = arrivals.iter().copied().max().unwrap_or(1);
                    let mut block: Vec<usize> = (b.saturating_sub(longest - 1)..=b)
                        .flat_map(|k| {
                            blocks[k]
                                .iter()
                                .copied()
                                .filter(move |&item| arrivals[item] > b - k)
                        })
                        .collect();
                    shuffle(&mut block, &mut self.rng);
                    block
                }
            };
            let last = slot.len() - 1;
            self.queue.extend(
                slot.into_iter()
                    .enumerate()
                    .map(|(i, item)| (item, i == last)),
            );
        }
        let (item, slot_end) = self.queue.pop_front()?;
        let id = self.next_id;
        self.next_id += 1;
        // Seeds stay below 2^32 so they survive JSON's f64 numbers exactly.
        let seed = self
            .workload
            .fresh_seeds
            .then(|| mix(self.workload.seed, 1 << 32 | id) >> 32);
        Some(Req {
            id,
            item,
            seed,
            slot_end,
        })
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// A seeded relabeling of a circuit's logical qubits.
fn relabel(circuit: &Circuit, rng: &mut StdRng) -> Circuit {
    let n = circuit.num_qubits();
    let mut perm: Vec<usize> = (0..n).collect();
    shuffle(&mut perm, rng);
    circuit
        .map_qubits(n, |q| perm[q])
        .named(circuit.name().to_string())
}

/// SplitMix-style mixing of a seed with a stream tag.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

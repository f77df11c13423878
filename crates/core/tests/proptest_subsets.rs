//! Property test of the Section 4.1 quotient: solving one subset per
//! class of equally priced isomorphic subsets finds the same optimum, with
//! the same proof, as solving every connected subset on its own.

use proptest::prelude::*;
use qxmap_arch::{connected_subsets, CouplingMap, DeviceModel};
use qxmap_circuit::Circuit;
use qxmap_core::{ExactMapper, MapperConfig};

/// SplitMix64: every random choice below is drawn from the case's seed.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick(&mut self, options: &[u32]) -> u32 {
        options[self.below(options.len())]
    }
}

/// A random connected `m`-qubit device: a random spanning tree plus a few
/// extra pairs, each one-way (either direction) or two-way. Costs are
/// mostly the paper's, with some pairs calibrated dearer, so classes both
/// merge and split.
fn random_device(m: usize, draws: &mut Draws) -> DeviceModel {
    let mut cm = CouplingMap::new(m);
    for q in 1..m {
        let parent = draws.below(q);
        couple(&mut cm, parent, q, draws);
    }
    for _ in 0..draws.below(m) {
        let (a, b) = (draws.below(m), draws.below(m));
        couple(&mut cm, a, b, draws);
    }
    let pairs = cm.undirected_edges();
    let edges: Vec<(usize, usize)> = cm.edges().collect();
    let reversals: Vec<(usize, usize)> = edges
        .iter()
        .filter(|&&(c, t)| cm.requires_reversal(t, c))
        .map(|&(c, t)| (t, c))
        .collect();
    DeviceModel::paper(cm)
        .with_swap_costs(
            pairs
                .into_iter()
                .map(|(a, b)| (a, b, draws.pick(&[7, 7, 7, 7, 9]))),
        )
        .with_reversal_costs(
            reversals
                .into_iter()
                .map(|(c, t)| (c, t, draws.pick(&[4, 4, 6]))),
        )
        .with_cnot_costs(
            edges
                .into_iter()
                .map(|(c, t)| (c, t, draws.pick(&[1, 1, 1, 1, 1, 2]))),
        )
}

/// Couples `a` and `b` one way (either direction) or both ways, unless
/// they are the same qubit or already coupled.
fn couple(cm: &mut CouplingMap, a: usize, b: usize, draws: &mut Draws) {
    if a == b || cm.connected_either(a, b) {
        return;
    }
    match draws.below(3) {
        0 => cm.add_edge(a, b).unwrap(),
        1 => cm.add_edge(b, a).unwrap(),
        _ => {
            cm.add_edge(a, b).unwrap();
            cm.add_edge(b, a).unwrap();
        }
    }
}

/// A random `n`-qubit circuit of 1–5 CNOTs between distinct qubits.
fn random_circuit(n: usize, draws: &mut Draws) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..=draws.below(5) {
        let control = draws.below(n);
        let target = (control + 1 + draws.below(n - 1)) % n;
        c.cx(control, target);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quotiented_subsets_agree_with_every_subset_solved(
        m in 3usize..=6,
        seed in any::<u64>(),
    ) {
        let mut draws = Draws(seed);
        let model = random_device(m, &mut draws);
        let n = 2 + draws.below(m - 2);
        let circuit = random_circuit(n, &mut draws);

        let quotiented = ExactMapper::for_model(
            model.clone(),
            MapperConfig::minimal().with_subsets(true),
        )
        .map(&circuit)
        .expect("a connected device maps every circuit that fits");

        // The reference solves every connected subset as a device of its
        // own, so no quotient is involved.
        let mut best: Option<(u64, bool)> = None;
        for subset in connected_subsets(model.coupling_map(), n) {
            let r = ExactMapper::for_model(model.subgraph_model(&subset), MapperConfig::minimal())
                .map(&circuit)
                .expect("a connected subset maps the circuit");
            prop_assert!(r.proved_optimal);
            if best.is_none_or(|(cost, _)| r.cost < cost) {
                best = Some((r.cost, r.proved_optimal));
            }
        }
        let (cost, proved) = best.expect("a connected device has a connected n-subset");
        prop_assert_eq!(
            (quotiented.cost, quotiented.proved_optimal),
            (cost, proved),
            "m = {}, n = {}, seed = {}, {} classes of {} subsets",
            m, n, seed, quotiented.num_classes, quotiented.num_subsets
        );
    }
}

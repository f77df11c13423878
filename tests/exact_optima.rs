//! Pinned proved optima of the Table 1 stand-ins on QX4. Any change to
//! the encoding or the minimizer must keep both the objective and the
//! certificate.
//!
//! The eleven rows the exact engine proves within a second run in the
//! default suite, both unbounded and strictly below their SABRE cost (the
//! bound that prunes the permutation table). The other fourteen take up
//! to tens of seconds each and are `#[ignore]`d; run them in release:
//! `cargo test --release --test exact_optima -- --ignored`.

use qxmap::arch::{devices, DeviceModel};
use qxmap::benchmarks::{circuit_for, table1_profiles};
use qxmap::core::{ExactMapper, MapError, MapperConfig};
use qxmap::heuristic::{Mapper, SabreMapper};
use qxmap::sat::MinimizeOptions;

/// Maps each named Table 1 stand-in on QX4 with the guaranteed-minimal
/// configuration on one thread with no deadline, and checks its proved
/// optimum.
fn assert_proved_optima(rows: &[(&str, u64)]) {
    let profiles = table1_profiles();
    let mapper = ExactMapper::with_config(
        devices::ibm_qx4(),
        MapperConfig::default().with_solve_threads(Some(1)),
    );
    for &(name, objective) in rows {
        let profile = profiles
            .iter()
            .find(|p| p.name == name)
            .expect("a Table 1 row");
        let result = mapper.map(&circuit_for(profile)).expect("mappable");
        assert_eq!(result.cost, objective, "{name}");
        assert!(result.proved_optimal, "{name}");
    }
}

const PROVING_ROWS: [(&str, u64); 11] = [
    ("ex-1_166", 11),
    ("ham3_102", 11),
    ("3_17_13", 24),
    ("miller_11", 31),
    ("4gt11_84", 7),
    ("rd32-v0_66", 30),
    ("rd32-v1_68", 33),
    ("4mod5-v0_20", 22),
    ("4mod5-v1_22", 22),
    ("mod5d1_63", 25),
    ("mod5mils_65", 22),
];

#[test]
fn proving_rows_keep_their_optima_under_linear_descent() {
    assert_proved_optima(&PROVING_ROWS);
}

/// The proving rows solved strictly below a bound, as the portfolio
/// solves them behind its SABRE answer: the bound prunes every
/// permutation that costs as much on its own. Below the row's SABRE cost
/// the optimum and its certificate hold; below the optimum itself nothing
/// is left, and the instance is infeasible.
#[test]
fn proving_rows_keep_their_optima_below_the_sabre_bound() {
    let profiles = table1_profiles();
    let model = DeviceModel::new(devices::ibm_qx4());
    let below = |bound: u64| {
        ExactMapper::with_config(
            devices::ibm_qx4(),
            MapperConfig::default()
                .with_solve_threads(Some(1))
                .with_minimize(MinimizeOptions::default().with_initial_upper_bound(Some(bound))),
        )
    };
    for &(name, objective) in &PROVING_ROWS {
        let profile = profiles
            .iter()
            .find(|p| p.name == name)
            .expect("a Table 1 row");
        let circuit = circuit_for(profile);
        let sabre = SabreMapper::new()
            .map_model(&circuit, &model)
            .expect("QX4 is connected")
            .model_cost;
        assert!(
            sabre > objective,
            "{name}: SABRE {sabre} vs optimum {objective}"
        );
        let result = below(sabre).map(&circuit).expect("mappable below SABRE");
        assert_eq!(result.cost, objective, "{name} below {sabre}");
        assert!(result.proved_optimal, "{name} below {sabre}");
        assert!(
            matches!(below(objective).map(&circuit), Err(MapError::Infeasible)),
            "{name}: nothing is cheaper than the optimum"
        );
    }
}

#[test]
#[ignore = "tens of seconds per row; run in release"]
fn remaining_rows_keep_their_optima() {
    assert_proved_optima(&[
        ("4gt11_82", 43),
        ("4gt11_83", 30),
        ("4gt13_92", 82),
        ("4mod5-v0_19", 43),
        ("4mod5-v1_24", 30),
        ("alu-v0_27", 37),
        ("alu-v1_28", 40),
        ("alu-v1_29", 30),
        ("alu-v2_33", 23),
        ("alu-v3_34", 66),
        ("alu-v3_35", 46),
        ("alu-v4_37", 22),
        ("qe_qft_4", 58),
        ("qe_qft_5", 81),
    ]);
}

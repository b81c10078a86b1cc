//! Power-vector validation parity: every path that takes a power
//! vector (the lumped solver's scalar step, its lockstep batch and the
//! grid model's steady-state solve) refuses a non-physical one with the
//! same [`ThermalError`] — the first bad index and its value, spelled
//! as an in-order scan would — and a refused step or lockstep batch
//! leaves every lane exactly as it was. `-0.0` is non-negative and must
//! still be accepted.

use dtm_floorplan::Floorplan;
use dtm_thermal::{
    step_lumped_batch, BatchWorkspace, GridConfig, GridThermalModel, PackageConfig, ThermalError,
    ThermalModel, TransientSolver,
};

const DT: f64 = 27.78e-6;

fn lumped() -> TransientSolver {
    let model = ThermalModel::new(&Floorplan::ppc_cmp(4), &PackageConfig::default()).unwrap();
    let mut s = TransientSolver::new(model, 7e-6);
    s.init_steady(&vec![0.4; s.model().n_blocks()]).unwrap();
    s.prewarm(DT).unwrap();
    s
}

fn grid() -> GridThermalModel {
    GridThermalModel::new(
        &Floorplan::ppc_cmp(1),
        &PackageConfig::default(),
        GridConfig { cols: 6, rows: 8 },
    )
    .unwrap()
}

/// Every bad value at the first, a middle and the last index of an
/// otherwise valid vector of length `n`, with the error each must give.
fn bad_vectors(n: usize) -> Vec<(Vec<f64>, ThermalError)> {
    let mut out = Vec::new();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-3] {
        for at in [0, n / 2, n - 1] {
            let mut p: Vec<f64> = (0..n).map(|i| 0.2 + 0.01 * i as f64).collect();
            p[at] = bad;
            // A second bad entry after the first must not be the one
            // reported.
            if at + 1 < n {
                p[n - 1] = -7.0;
            }
            let err = ThermalError::NotPhysical(format!("power[{at}] = {bad}"));
            out.push((p, err));
        }
    }
    out
}

#[test]
fn error_text_is_unchanged() {
    let err = ThermalError::NotPhysical(format!("power[{}] = {}", 3, f64::NAN));
    assert_eq!(err.to_string(), "non-physical model input: power[3] = NaN");
    let err = ThermalError::NotPhysical(format!("power[{}] = {}", 0, f64::NEG_INFINITY));
    assert_eq!(err.to_string(), "non-physical model input: power[0] = -inf");
}

#[test]
fn scalar_steps_name_the_first_bad_entry() {
    let n = lumped().model().n_blocks();
    for (p, want) in bad_vectors(n) {
        let mut s = lumped();
        let before = (s.node_temps().to_vec(), s.fast_excess().to_vec());
        assert_eq!(s.step(&p, DT), Err(want.clone()), "lumped step");
        assert_eq!((s.node_temps().to_vec(), s.fast_excess().to_vec()), before);
    }
    let g = grid();
    for (p, want) in bad_vectors(g.n_blocks()) {
        assert_eq!(g.steady_state(&p).err(), Some(want), "grid steady state");
    }
}

#[test]
fn refused_batches_report_the_scalar_error_and_touch_nothing() {
    let n = lumped().model().n_blocks();
    let good: Vec<f64> = vec![0.5; n];
    for (p, want) in bad_vectors(n) {
        // The bad vector sits on the middle lane of three.
        let mut solvers = [lumped(), lumped(), lumped()];
        let before: Vec<_> = solvers
            .iter()
            .map(|s| (s.node_temps().to_vec(), s.fast_excess().to_vec()))
            .collect();
        let powers = [&good, &p, &good];
        let mut lanes: Vec<(&mut TransientSolver, &[f64])> = solvers
            .iter_mut()
            .zip(powers)
            .map(|(s, p)| (s, p.as_slice()))
            .collect();
        let mut ws = BatchWorkspace::new();
        assert_eq!(step_lumped_batch(&mut lanes, DT, &mut ws), Err(want));
        for (l, (s, b)) in solvers.iter().zip(&before).enumerate() {
            assert_eq!(s.node_temps(), &b.0[..], "lane {l} temps");
            assert_eq!(s.fast_excess(), &b.1[..], "lane {l} fast mode");
        }
    }
}

#[test]
fn negative_zero_power_is_accepted_everywhere() {
    let n = lumped().model().n_blocks();
    let zeros = vec![-0.0; n];
    let mut scalar = lumped();
    scalar.step(&zeros, DT).expect("-0.0 is non-negative");
    let mut solvers = [lumped(), lumped()];
    let mut lanes: Vec<(&mut TransientSolver, &[f64])> =
        solvers.iter_mut().map(|s| (s, zeros.as_slice())).collect();
    let mut ws = BatchWorkspace::new();
    assert_eq!(step_lumped_batch(&mut lanes, DT, &mut ws), Ok(true));
    for s in &solvers {
        assert_eq!(s.node_temps(), scalar.node_temps());
        assert_eq!(s.fast_excess(), scalar.fast_excess());
    }

    let g = grid();
    let zeros = vec![-0.0; g.n_blocks()];
    g.steady_state(&zeros).expect("-0.0 is non-negative");
}

//! Differential tests: the exact matrix-exponential propagator against
//! a fine-substep backward-Euler reference, plus fixpoint properties
//! both integrators must satisfy.
//!
//! The reference runs backward Euler with 1 µs substeps — well below
//! every silicon time constant — so its discretization error over a
//! 10 ms horizon is far smaller than the 0.05 °C agreement band the
//! differential assertions demand. Power schedules are randomized
//! piecewise-constant per-block patterns, the regime the propagator's
//! zero-order-hold assumption must reproduce exactly.

use dtm_floorplan::Floorplan;
use dtm_thermal::{PackageConfig, SolverBackend, ThermalModel, TransientSolver};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Engine power-sample interval (s).
const DT: f64 = 100_000.0 / 3.6e9;
/// Reference-integrator substep ceiling (s).
const REF_SUBSTEP: f64 = 1e-6;
/// Differential agreement band (°C).
const TOL: f64 = 0.05;

fn study_model() -> (Floorplan, ThermalModel) {
    let fp = Floorplan::ppc_cmp(4);
    let model = ThermalModel::new(&fp, &PackageConfig::default()).expect("model");
    (fp, model)
}

/// A piecewise-constant schedule: `n_seg` random per-block power
/// vectors, each held for `steps_per_seg` engine samples.
fn schedule(seed: u64, n_blocks: usize, n_seg: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_seg)
        .map(|_| (0..n_blocks).map(|_| rng.random_range(0.0..2.0)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lumped solver: over a randomized 10 ms piecewise-constant power
    /// schedule, the propagator's trajectory stays within 0.05 °C of
    /// the 1 µs backward-Euler reference at every block and sample.
    #[test]
    fn lumped_propagator_matches_fine_euler_reference(
        seed in 0u64..u64::MAX,
        n_seg in 3usize..7,
    ) {
        let (fp, model) = study_model();
        let segs = schedule(seed, fp.len(), n_seg);
        let steps_per_seg = (0.010 / DT / n_seg as f64).ceil() as usize;

        let mut exact = TransientSolver::new(model.clone(), 7e-6);
        let mut reference = TransientSolver::new(model, REF_SUBSTEP)
            .with_backend(SolverBackend::BackwardEuler);
        exact.init_steady(&segs[0]).unwrap();
        reference.init_steady(&segs[0]).unwrap();

        let mut worst = 0.0f64;
        for power in &segs {
            for _ in 0..steps_per_seg {
                exact.step(power, DT).unwrap();
                reference.step(power, DT).unwrap();
                for (a, b) in exact.node_temps().iter().zip(reference.node_temps()) {
                    worst = worst.max((a - b).abs());
                }
            }
        }
        prop_assert!(worst < TOL, "max divergence {worst} C >= {TOL} C");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Stepping from the steady state of a constant power vector must
    /// stay at that steady state — the continuous fixpoint is a
    /// fixpoint of both discrete updates (exactly for the propagator,
    /// and for backward Euler because `A·T* = p` zeroes the increment).
    #[test]
    fn lumped_steady_state_is_a_fixpoint_of_both_backends(
        seed in 0u64..u64::MAX,
        backend_sel in 0usize..2,
    ) {
        let backend = [SolverBackend::Propagator, SolverBackend::BackwardEuler][backend_sel];
        let (fp, model) = study_model();
        let power = schedule(seed, fp.len(), 1).remove(0);
        let mut sim = TransientSolver::new(model, 7e-6).with_backend(backend);
        sim.init_steady(&power).unwrap();
        let steady = sim.node_temps().to_vec();
        for _ in 0..50 {
            sim.step(&power, DT).unwrap();
        }
        for (t, s) in sim.node_temps().iter().zip(&steady) {
            prop_assert!((t - s).abs() < 1e-9, "{backend:?} drifted: {t} vs {s}");
        }
    }

    /// With power removed, the hottest node must decay monotonically
    /// toward ambient and never undershoot it, under either backend.
    #[test]
    fn lumped_zero_power_decays_monotonically_to_ambient(
        seed in 0u64..u64::MAX,
        backend_sel in 0usize..2,
    ) {
        let backend = [SolverBackend::Propagator, SolverBackend::BackwardEuler][backend_sel];
        let (fp, model) = study_model();
        let ambient = model.ambient();
        let hot = schedule(seed, fp.len(), 1).remove(0);
        // A coarse substep keeps the backward-Euler half cheap; its
        // monotonicity (the property under test) holds for any substep
        // length, only accuracy degrades.
        let mut sim = TransientSolver::new(model, 100e-6).with_backend(backend);
        sim.init_steady(&hot).unwrap();
        let zero = vec![0.0; fp.len()];
        let mut prev = sim
            .node_temps()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        // dt ~ 100 engine samples keeps the run short while the decay
        // per step stays well above float noise.
        for _ in 0..60 {
            sim.step(&zero, 100.0 * DT).unwrap();
            let hottest = sim
                .node_temps()
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(hottest <= prev + 1e-12, "{backend:?} reheated: {hottest} > {prev}");
            prop_assert!(hottest >= ambient - 1e-9, "{backend:?} undershot ambient");
            prev = hottest;
        }
    }
}

//! Multi-lane lockstep stepping: one batched propagator advance for a
//! group of independent solvers that share the same `E`/`F`.
//!
//! A sweep evaluates hundreds of simulations over one floorplan and one
//! `dt`; every one of them advances with the *same* shared
//! [`Propagator`](crate::propagator) (the process-wide cache hands all
//! of them the same `Arc`). Stepping them one at a time re-streams the
//! `n × (n + k)` propagator matrix from cache per run — the thermal
//! phase is memory-bound on exactly that stream. This module instead
//! gathers `L` lanes' `[T | p]` straight into one packed, 64-byte
//! aligned lane tile ([`LaneRow`]s, element `k` of each block of
//! [`LANE_BLOCK`] lanes adjacent) and advances all of them with one
//! cache-blocked [`matmul_strided`](crate::linalg::matmul_strided)
//! call, which reads that tile as is and writes a packed output tile
//! the scatter reads back: the matrix streams once per block of lanes
//! instead of once per lane. Both tiles live in the [`BatchWorkspace`]
//! and only grow, so a step allocates nothing.
//!
//! **Bit-identity contract.** Each lane's output reduces through the
//! exact accumulation order of the scalar kernel, every lane's power
//! vector is validated exactly as its own `step` would, and the
//! sub-block fast mode runs per lane after the scatter — so a batched
//! step leaves every solver in a state bit-identical to having called
//! its scalar `step` with the same inputs.
//!
//! **Scalar contract.** Batching is an execution strategy, not a
//! configuration: when the lanes do *not* all resolve to one shared
//! propagator (backward-Euler backend, or differing thermal
//! configurations), [`step_lumped_batch`] returns `Ok(false)` without
//! touching any state, and the caller steps each lane through its
//! scalar path.

use crate::linalg::{LaneRow, LANE_BLOCK};
use crate::model::{ThermalError, TransientSolver};
use crate::propagator::Propagator;
use std::sync::Arc;

/// Reusable lane tiles for lockstep stepping: the packed `[T | p]`
/// input tile and the packed next-temperature output tile, each a whole
/// number of [`LANE_BLOCK`]-lane blocks. One workspace per batch
/// driver, reused across every step; the tiles grow on first use and
/// are never zero-filled again.
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    x: Vec<LaneRow>,
    y: Vec<LaneRow>,
}

impl BatchWorkspace {
    /// An empty workspace; buffers grow on first use and are reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Advances every lumped-model lane by `dt` in lockstep with one
/// batched propagator call. Each pair is a solver plus the constant
/// per-block power it sees over this step.
///
/// Returns `Ok(true)` when the batched kernel ran (every lane now
/// bit-identical to its scalar `step`), `Ok(false)` when the group was
/// not batchable and **no state was modified** — the caller must then
/// step each lane scalar.
///
/// # Errors
///
/// Propagates the per-lane power-vector validation and propagator
/// construction failures a scalar `step` would raise; no lane's
/// temperatures are modified then either.
pub fn step_lumped_batch(
    lanes: &mut [(&mut TransientSolver, &[f64])],
    dt: f64,
    ws: &mut BatchWorkspace,
) -> Result<bool, ThermalError> {
    // A single lane gains nothing over its scalar step; let the caller
    // take the ordinary path (also covers `--lanes 1` and empty groups).
    if lanes.len() < 2 {
        return Ok(false);
    }
    if !(dt.is_finite() && dt > 0.0) {
        return Err(ThermalError::NotPhysical(format!("dt = {dt}")));
    }
    // Validate every lane's power exactly as its scalar step would,
    // before any state is touched.
    for (solver, power) in lanes.iter() {
        solver.batch_check_power(power)?;
    }
    // All lanes must resolve to the *same* shared propagator instance
    // (`Arc` identity, courtesy of the process-wide cache). Anything
    // else — backward-Euler, a different thermal configuration or dt —
    // and the whole group steps scalar.
    let mut shared: Option<Arc<Propagator>> = None;
    for (solver, _) in lanes.iter_mut() {
        match solver.batch_prop(dt)? {
            Some(p) => match &shared {
                Some(first) if Arc::ptr_eq(first, p) => {}
                Some(_) => return Ok(false),
                None => shared = Some(Arc::clone(p)),
            },
            None => return Ok(false),
        }
    }
    let prop = shared.expect("two or more lanes resolved above");
    let n = prop.n();
    let width = prop.width();
    let blocks = lanes.len().div_ceil(LANE_BLOCK);
    grow(&mut ws.x, blocks * width);
    grow(&mut ws.y, blocks * n);

    // Gather: a block's lanes go into its part of the packed tile one
    // whole row (element k of every lane) at a time. Lanes past a
    // ragged end repeat the block's last lane; the kernel never lets
    // them reach an active one.
    for (tile, block) in ws.x.chunks_exact_mut(width).zip(lanes.chunks(LANE_BLOCK)) {
        let src: [(&[f64], &[f64]); LANE_BLOCK] = std::array::from_fn(|j| {
            let (solver, power) = &block[j.min(block.len() - 1)];
            (solver.node_temps(), *power)
        });
        let (tx, tp) = tile.split_at_mut(n);
        interleave(tx, src.map(|(temps, _)| temps));
        interleave(tp, src.map(|(_, power)| power));
    }

    prop.advance_batch(&ws.x, width, &mut ws.y, n, lanes.len());

    // Scatter, then each lane's fast mode, in the same
    // advance-then-fast order as the scalar step.
    for (l, (solver, power)) in lanes.iter_mut().enumerate() {
        let (b, j) = (l / LANE_BLOCK, l % LANE_BLOCK);
        for (t, row) in solver.temps_mut().iter_mut().zip(&ws.y[b * n..(b + 1) * n]) {
            *t = row.0[j];
        }
        solver.batch_fast_mode(power, dt);
    }
    Ok(true)
}

/// Writes element `k` of every lane's `src` into row `k` of `tile`.
/// Building whole rows (rather than storing one lane at a time into
/// every row) lets the compiler turn the transpose into in-register
/// shuffles and full-row stores. Kept out of line: inlined into the
/// step, the same loop compiles to per-row gathers instead.
#[inline(never)]
fn interleave(tile: &mut [LaneRow], src: [&[f64]; LANE_BLOCK]) {
    let src = src.map(|s| &s[..tile.len()]);
    for (k, row) in tile.iter_mut().enumerate() {
        row.0 = std::array::from_fn(|j| src[j][k]);
    }
}

/// Grows a tile to at least `len` rows; never shrinks, never refills.
fn grow(tile: &mut Vec<LaneRow>, len: usize) {
    if tile.len() < len {
        tile.resize(len, LaneRow::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackageConfig, SolverBackend, ThermalModel, TransientSolver};
    use dtm_floorplan::Floorplan;

    const DT: f64 = 27.78e-6;

    fn lumped_solver() -> TransientSolver {
        let model = ThermalModel::new(&Floorplan::ppc_cmp(4), &PackageConfig::default()).unwrap();
        let mut s = TransientSolver::new(model, 7e-6);
        s.prewarm(DT).unwrap();
        s
    }

    fn lane_power(seed: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.1 + 0.07 * ((i + seed * 3) % 11) as f64)
            .collect()
    }

    #[test]
    fn lumped_batch_is_bit_identical_to_scalar_steps() {
        let n_lanes = 5; // ragged vs LANE_BLOCK
        let nb = lumped_solver().model().n_blocks();
        let powers: Vec<Vec<f64>> = (0..n_lanes).map(|l| lane_power(l, nb)).collect();
        let mut batched: Vec<TransientSolver> = (0..n_lanes).map(|_| lumped_solver()).collect();
        let mut scalar: Vec<TransientSolver> = batched.clone();

        let mut ws = BatchWorkspace::new();
        for _ in 0..50 {
            let mut lanes: Vec<(&mut TransientSolver, &[f64])> = batched
                .iter_mut()
                .zip(&powers)
                .map(|(s, p)| (s, p.as_slice()))
                .collect();
            assert!(step_lumped_batch(&mut lanes, DT, &mut ws).unwrap());
            for (s, p) in scalar.iter_mut().zip(&powers) {
                s.step(p, DT).unwrap();
            }
        }
        for (l, (b, s)) in batched.iter().zip(&scalar).enumerate() {
            assert_eq!(b.node_temps(), s.node_temps(), "lane {l} node temps");
            assert_eq!(b.fast_excess(), s.fast_excess(), "lane {l} fast mode");
        }
    }

    #[test]
    fn backward_euler_lane_defeats_batching_without_touching_state() {
        let mut a = lumped_solver();
        let mut b = lumped_solver().with_backend(SolverBackend::BackwardEuler);
        b.prewarm(DT).unwrap();
        let nb = a.model().n_blocks();
        let p = lane_power(1, nb);
        let before_a = a.node_temps().to_vec();
        let before_b = b.node_temps().to_vec();
        let mut ws = BatchWorkspace::new();
        let mut lanes: Vec<(&mut TransientSolver, &[f64])> =
            vec![(&mut a, p.as_slice()), (&mut b, p.as_slice())];
        assert!(!step_lumped_batch(&mut lanes, DT, &mut ws).unwrap());
        assert_eq!(a.node_temps(), &before_a[..], "no state change on refusal");
        assert_eq!(b.node_temps(), &before_b[..], "no state change on refusal");
    }

    #[test]
    fn single_lane_group_takes_the_scalar_path() {
        let mut a = lumped_solver();
        let nb = a.model().n_blocks();
        let p = lane_power(2, nb);
        let mut ws = BatchWorkspace::new();
        let mut lanes: Vec<(&mut TransientSolver, &[f64])> = vec![(&mut a, p.as_slice())];
        assert!(!step_lumped_batch(&mut lanes, DT, &mut ws).unwrap());
    }

    #[test]
    fn mismatched_thermal_configurations_defeat_batching() {
        // Different core counts ⇒ different models ⇒ different shared
        // propagators: the group must refuse rather than mix matrices.
        let mut a = lumped_solver();
        let model2 = ThermalModel::new(&Floorplan::ppc_cmp(2), &PackageConfig::default()).unwrap();
        let mut b = TransientSolver::new(model2, 7e-6);
        b.prewarm(DT).unwrap();
        let pa = lane_power(3, a.model().n_blocks());
        let pb = lane_power(4, b.model().n_blocks());
        let mut ws = BatchWorkspace::new();
        let mut lanes: Vec<(&mut TransientSolver, &[f64])> =
            vec![(&mut a, pa.as_slice()), (&mut b, pb.as_slice())];
        assert!(!step_lumped_batch(&mut lanes, DT, &mut ws).unwrap());
    }
}

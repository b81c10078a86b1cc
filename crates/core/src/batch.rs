//! Lockstep execution of many independent simulations with one batched
//! thermal phase per step.
//!
//! A sweep's cells share one floorplan and one trace sample period, so
//! their [`ThermalTimingSim`]s all advance with the same shared
//! propagator. [`LockstepBatch`] steps a group of them in lockstep:
//! every active lane runs its scalar pre-thermal phase (power assembly,
//! leakage), then one [`dtm_thermal::step_lumped_batch`] call advances
//! all lanes' temperatures at once, then every lane runs its scalar
//! post-thermal phase (sensors, accounting, control, migration,
//! telemetry). Control, policy, fault, and sensor logic are untouched —
//! only the thermal matvec is fused across lanes.
//!
//! Lanes are independent simulations (no shared mutable state — the
//! process-wide propagator cache hands out immutable `Arc`s), so the
//! interleaving across lanes cannot affect any lane's trajectory, and
//! the batched kernel is bit-identical per lane to the scalar one: a
//! lane's [`RunResult`] is byte-for-byte what its own `run()` would
//! have produced.
//!
//! **Retirement.** Lanes may have different durations: a lane retires
//! (stops stepping) as soon as its simulated time reaches its
//! configured duration, and the rest of the batch continues. **Scalar
//! fallback.** When the group is not batchable — a lane in
//! backward-Euler or latched fallback, mixed thermal configurations,
//! mixed `dt`, or profiling attached — lanes are stepped through their
//! ordinary scalar path instead, with identical results.

use crate::engine::{SimError, ThermalTimingSim};
use crate::metrics::RunResult;
use dtm_thermal::{step_lumped_batch, BatchWorkspace, TransientSolver};

/// A group of independent simulations stepped in lockstep with a
/// batched thermal phase.
///
/// # Examples
///
/// ```no_run
/// use dtm_core::{DtmConfig, LockstepBatch, PolicySpec, SimConfig, ThermalTimingSim};
/// use dtm_workloads::{standard_workloads, TraceGenConfig, TraceLibrary};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = TraceLibrary::new(TraceGenConfig::default());
/// let sims: Vec<ThermalTimingSim> = standard_workloads()[..3]
///     .iter()
///     .map(|w| {
///         let traces = w.resolve().iter().map(|b| lib.trace(b)).collect();
///         ThermalTimingSim::new(SimConfig::default(), DtmConfig::default(), PolicySpec::best(), traces)
///     })
///     .collect::<Result<_, _>>()?;
/// let results = LockstepBatch::new(sims).run()?;
/// assert_eq!(results.len(), 3);
/// # Ok(())
/// # }
/// ```
pub struct LockstepBatch {
    sims: Vec<ThermalTimingSim>,
    ws: BatchWorkspace,
}

impl LockstepBatch {
    /// Wraps `sims` as the lanes of one batch. Lane order is preserved
    /// in [`LockstepBatch::run`]'s results.
    pub fn new(sims: Vec<ThermalTimingSim>) -> Self {
        LockstepBatch {
            sims,
            ws: BatchWorkspace::new(),
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// Whether the batch has no lanes.
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }

    /// Runs every lane to its configured duration and returns their
    /// results in lane order.
    ///
    /// # Errors
    ///
    /// Propagates the first lane failure (the same thermal-solver
    /// errors a scalar `run` would raise); remaining lanes are left
    /// mid-flight.
    pub fn run(mut self) -> Result<Vec<RunResult>, SimError> {
        // Profiled sims must step scalar so phase timings keep their
        // meaning; mixed sample periods cannot share a lockstep clock.
        // Either way the scalar path produces identical physics.
        let profiled = self.sims.iter().any(|s| s.is_profiled());
        let mixed_dt = {
            let mut dts = self.sims.iter_mut().map(|s| s.thermal_lane().2.to_bits());
            let first = dts.next();
            dts.any(|d| Some(d) != first)
        };
        if profiled || mixed_dt {
            return self.sims.iter_mut().map(|s| s.run()).collect();
        }

        let mut active: Vec<usize> = (0..self.sims.len())
            .filter(|&i| self.sims[i].lane_active())
            .collect();
        // One lane vector serves every step (see `recycle`).
        let mut spare: Vec<(&mut TransientSolver, &[f64])> = Vec::with_capacity(active.len());
        while !active.is_empty() {
            for &i in &active {
                let mut clk = self.sims[i].begin_clock();
                self.sims[i].step_pre_thermal(&mut clk);
            }

            // ---- Batched thermal phase over the active lanes ----
            let mut lanes = recycle(std::mem::take(&mut spare));
            let mut want = active.iter().copied().peekable();
            let mut dt = 0.0;
            for (i, sim) in self.sims.iter_mut().enumerate() {
                if want.next_if_eq(&i).is_some() {
                    let (solver, power, lane_dt) = sim.thermal_lane();
                    dt = lane_dt;
                    lanes.push((solver, power));
                }
            }
            let batched = step_lumped_batch(&mut lanes, dt, &mut self.ws)?;
            spare = recycle(lanes);
            if !batched {
                // Not batchable (fallback lane, mixed configs, or a
                // single survivor): scalar thermal steps instead.
                for &i in &active {
                    let (solver, power, lane_dt) = self.sims[i].thermal_lane();
                    solver.step(power, lane_dt)?;
                }
            }

            for &i in &active {
                let mut clk = None;
                self.sims[i].step_post_thermal(&mut clk);
            }
            // Independent retirement: a lane whose trace (duration) has
            // ended drops out; the batch narrows and keeps going.
            active.retain(|&i| self.sims[i].lane_active());
        }
        Ok(self.sims.iter().map(|s| s.result()).collect())
    }
}

/// Empties `lanes` and hands its allocation back under fresh borrow
/// lifetimes, so a single lane vector serves every lockstep step
/// without holding any step's borrows. Collecting a `vec::IntoIter`
/// into a vector of a same-layout type reuses the buffer in place; the
/// allocation-free-step test pins that.
fn recycle<'b>(
    mut lanes: Vec<(&mut TransientSolver, &[f64])>,
) -> Vec<(&'b mut TransientSolver, &'b [f64])> {
    lanes.clear();
    lanes
        .into_iter()
        .map(|_| unreachable!("the lane vector was just cleared"))
        .collect()
}

impl std::fmt::Debug for LockstepBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockstepBatch")
            .field("lanes", &self.sims.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DtmConfig, SimConfig};
    use crate::policy::{MigrationKind, PolicySpec, Scope, ThrottleKind};
    use dtm_power::{CorePowerSample, PowerTrace};
    use dtm_thermal::SolverBackend;
    use std::sync::Arc;

    fn const_trace(name: &str, int_rf: f64, fp_rf: f64, base: f64) -> Arc<PowerTrace> {
        let mut s = CorePowerSample::zero();
        s.units = [
            base,
            base,
            base,
            base,
            base,
            base,
            base * 0.5,
            int_rf,
            fp_rf,
            base,
            base * 0.8,
            base,
            base * 0.4,
        ];
        s.l2 = 0.2;
        s.instructions = 200_000;
        s.int_rf_per_cycle = 10.0 * int_rf;
        s.fp_rf_per_cycle = 10.0 * fp_rf;
        Arc::new(PowerTrace::new(name, 1.0e5 / 3.6e9, vec![s]))
    }

    fn traces(kind: usize) -> Vec<Arc<PowerTrace>> {
        let t = match kind {
            0 => const_trace("hot_int", 2.6, 0.2, 0.6),
            1 => const_trace("warm", 1.7, 0.3, 0.55),
            _ => const_trace("cool", 0.3, 0.05, 0.12),
        };
        vec![t.clone(), t.clone(), t.clone(), t]
    }

    fn build(policy: PolicySpec, kind: usize, cfg: SimConfig) -> ThermalTimingSim {
        ThermalTimingSim::new(cfg, DtmConfig::default(), policy, traces(kind)).expect("build")
    }

    fn policies() -> [PolicySpec; 3] {
        [
            PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
            PolicySpec::new(
                ThrottleKind::StopGo,
                Scope::Global,
                MigrationKind::CounterBased,
            ),
            PolicySpec::new(
                ThrottleKind::Dvfs,
                Scope::Global,
                MigrationKind::SensorBased,
            ),
        ]
    }

    #[test]
    fn lockstep_results_are_bit_identical_to_scalar_runs() {
        let cfg = SimConfig::fast_test();
        let sims: Vec<ThermalTimingSim> = policies()
            .iter()
            .enumerate()
            .map(|(k, &p)| build(p, k, cfg.clone()))
            .collect();
        let batched = LockstepBatch::new(sims).run().expect("batched run");
        for (k, &p) in policies().iter().enumerate() {
            let scalar = build(p, k, cfg.clone()).run().expect("scalar run");
            assert_eq!(
                format!("{:?}", batched[k]),
                format!("{scalar:?}"),
                "lane {k} diverged from its scalar run"
            );
        }
    }

    #[test]
    fn lanes_retire_independently_when_durations_differ() {
        let mut short_cfg = SimConfig::fast_test();
        short_cfg.duration = 0.01;
        let long_cfg = SimConfig::fast_test(); // 0.05 s
        let p = policies()[0];
        let sims = vec![
            build(p, 0, short_cfg.clone()),
            build(p, 1, long_cfg.clone()),
            build(p, 2, long_cfg.clone()),
        ];
        let batched = LockstepBatch::new(sims).run().expect("batched run");
        assert!(batched[0].duration < 0.011, "short lane over-ran");
        assert!(batched[1].duration > 0.049, "long lane under-ran");
        for (k, (kind, cfg)) in [(0, &short_cfg), (1, &long_cfg), (2, &long_cfg)]
            .into_iter()
            .enumerate()
        {
            let scalar = build(p, kind, cfg.clone()).run().expect("scalar run");
            assert_eq!(
                format!("{:?}", batched[k]),
                format!("{scalar:?}"),
                "lane {k} diverged after mid-batch retirement"
            );
        }
    }

    #[test]
    fn backward_euler_lane_falls_back_scalar_with_identical_results() {
        let mut be_cfg = SimConfig::fast_test();
        be_cfg.duration = 0.01;
        be_cfg.thermal_solver = SolverBackend::BackwardEuler;
        let mut prop_cfg = SimConfig::fast_test();
        prop_cfg.duration = 0.01;
        let p = policies()[0];
        let sims = vec![build(p, 0, be_cfg.clone()), build(p, 1, prop_cfg.clone())];
        let batched = LockstepBatch::new(sims).run().expect("batched run");
        let s0 = build(p, 0, be_cfg).run().expect("scalar");
        let s1 = build(p, 1, prop_cfg).run().expect("scalar");
        assert_eq!(format!("{:?}", batched[0]), format!("{s0:?}"));
        assert_eq!(format!("{:?}", batched[1]), format!("{s1:?}"));
    }

    #[test]
    fn lockstep_steps_do_not_allocate() {
        use crate::alloc_count::allocations_on_this_thread;
        // Non-migrating policies: a migration plan is a fresh vector by
        // contract, so migrating lanes are left out of the step count.
        let policies = [
            PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
            PolicySpec::new(ThrottleKind::Dvfs, Scope::Global, MigrationKind::None),
            PolicySpec::new(ThrottleKind::StopGo, Scope::Global, MigrationKind::None),
        ];
        let allocations = |duration: f64| {
            let mut cfg = SimConfig::fast_test();
            cfg.duration = duration;
            let sims: Vec<ThermalTimingSim> = policies
                .iter()
                .enumerate()
                .map(|(k, &p)| build(p, k, cfg.clone()))
                .collect();
            let batch = LockstepBatch::new(sims);
            let before = allocations_on_this_thread();
            let results = batch.run().expect("batched run");
            let after = allocations_on_this_thread();
            assert!(results[0].duration >= duration * 0.99);
            after - before
        };
        let d = 0.01; // 360 steps
        assert_eq!(
            allocations(2.0 * d),
            allocations(d),
            "a lockstep step must not touch the allocator: doubling the \
             duration changed the run's allocation count"
        );
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let results = LockstepBatch::new(Vec::new()).run().expect("empty run");
        assert!(results.is_empty());
    }
}

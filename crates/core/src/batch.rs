//! The one step loop: lockstep execution of independent simulations
//! with one thermal phase per step.
//!
//! Every simulation advances through [`lockstep`]: [`LockstepBatch`]
//! hands it a sweep's lanes, and [`ThermalTimingSim::run`] and
//! [`ThermalTimingSim::step`] hand it a batch of one. Lanes that share
//! one floorplan and one sample period advance their temperatures in one
//! [`dtm_thermal::step_lumped_batch`] call; control, policy, fault, and
//! sensor logic stay per lane.
//!
//! Lanes are independent simulations (no shared mutable state — the
//! process-wide propagator cache hands out immutable `Arc`s), so the
//! interleaving across lanes cannot affect any lane's trajectory, and
//! the batched kernel is bit-identical per lane to the scalar one: a
//! lane's [`RunResult`] is byte-for-byte what its own `run()` would
//! have produced.
//!
//! **Retirement.** A lane stops stepping as soon as its simulated time
//! reaches its configured duration; the rest of the batch continues.
//! **Scalar thermal phase.** A batch of one, a batch whose `dt`s differ,
//! or a group the kernel refuses (the backward-Euler backend, mixed
//! thermal configurations) steps each lane's solver on its own, with
//! identical results.

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
}

impl LockstepBatch {
    /// Wraps `sims` as the lanes of one batch. Lane order is preserved
    /// in [`LockstepBatch::run`]'s results.
    pub fn new(sims: Vec<ThermalTimingSim>) -> Self {
        LockstepBatch { sims }
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
        lockstep(&mut self.sims, Until::Done)?;
        Ok(self.sims.iter_mut().map(|s| s.finish()).collect())
    }
}

/// How far [`lockstep`] advances its lanes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Until {
    /// One step of every lane, finished or not.
    OneStep,
    /// Every lane to its configured duration.
    Done,
}

/// The step loop. Each step of `sims` runs (1) the pre-thermal phase of
/// each stepping lane, (2) one thermal phase for all of them, (3) the
/// post-thermal phase of each, and (4) retires the lanes whose duration
/// has passed. A profiled lane times its own pre- and post-thermal
/// phases; the thermal phase is timed once and shared out (DESIGN.md
/// §4d).
///
/// # Errors
///
/// Propagates the first lane's thermal-solver failure.
pub(crate) fn lockstep(sims: &mut [ThermalTimingSim], until: Until) -> Result<(), SimError> {
    // Fixed for the whole batch, so decided once. The kernel advances
    // every lane at one `dt`, so lanes batch only when all their `dt`s
    // have the same bits; only a profiled batch reads the clock.
    let width = sims.len();
    let mut dts = sims.iter_mut().map(|s| s.thermal_lane().2);
    let dt = dts.next().unwrap_or(0.0);
    let fused = width > 1 && dts.all(|d| d.to_bits() == dt.to_bits());
    let profiled = sims.iter_mut().any(|s| s.profile().is_some());
    let stepping = |s: &ThermalTimingSim| until == Until::OneStep || s.lane_active();
    let mut ws = BatchWorkspace::new();
    // One lane vector serves every step (see `recycle`).
    let mut spare: Vec<(&mut TransientSolver, &[f64])> =
        Vec::with_capacity(if fused { width } else { 0 });
    loop {
        let mut active = 0;
        for sim in sims.iter_mut().filter(|s| stepping(s)) {
            sim.step_pre_thermal();
            active += 1;
        }
        if active == 0 {
            return Ok(());
        }

        let timer = if profiled {
            sims.iter_mut()
                .enumerate()
                .filter(|(_, s)| stepping(s))
                .find_map(|(i, s)| Some((i, s.profile()?.clock_ns()?)))
        } else {
            None
        };
        let batched = fused && {
            let mut lanes = recycle(std::mem::take(&mut spare));
            for sim in sims.iter_mut().filter(|s| stepping(s)) {
                let (solver, power, _) = sim.thermal_lane();
                lanes.push((solver, power));
            }
            let stepped = step_lumped_batch(&mut lanes, dt, &mut ws)?;
            spare = recycle(lanes);
            stepped
        };
        if !batched {
            // A single lane, mixed `dt`s, or a group the kernel
            // refused: scalar thermal steps instead.
            for sim in sims.iter_mut().filter(|s| stepping(s)) {
                let (solver, power, lane_dt) = sim.thermal_lane();
                solver.step(power, lane_dt)?;
            }
        }
        if let Some((lead, start)) = timer {
            let ns = sims[lead].profile().map_or(0, |p| p.close_thermal(start));
            for sim in sims.iter_mut().filter(|s| stepping(s)) {
                if let Some(p) = sim.profile() {
                    p.charge_thermal(ns / active);
                }
            }
        }

        for sim in sims.iter_mut().filter(|s| stepping(s)) {
            sim.step_post_thermal();
        }
        // Retirement is the filter above: a lane whose duration has
        // passed no longer steps, and the batch narrows.
        if until == Until::OneStep {
            return Ok(());
        }
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

    /// The traces' sample period: 100k cycles at 3.6 GHz.
    const DT: f64 = 1.0e5 / 3.6e9;

    fn const_trace(name: &str, dt: f64, int_rf: f64, fp_rf: f64, base: f64) -> Arc<PowerTrace> {
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
        Arc::new(PowerTrace::new(name, dt, vec![s]))
    }

    fn traces(kind: usize, dt: f64) -> Vec<Arc<PowerTrace>> {
        let t = match kind {
            0 => const_trace("hot_int", dt, 2.6, 0.2, 0.6),
            1 => const_trace("warm", dt, 1.7, 0.3, 0.55),
            _ => const_trace("cool", dt, 0.3, 0.05, 0.12),
        };
        vec![t.clone(), t.clone(), t.clone(), t]
    }

    fn build_at(policy: PolicySpec, kind: usize, cfg: SimConfig, dt: f64) -> ThermalTimingSim {
        ThermalTimingSim::new(cfg, DtmConfig::default(), policy, traces(kind, dt)).expect("build")
    }

    fn build(policy: PolicySpec, kind: usize, cfg: SimConfig) -> ThermalTimingSim {
        build_at(policy, kind, cfg, DT)
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
    fn lanes_with_different_sample_periods_match_their_own_runs() {
        // Lane 1 samples at twice the period of its neighbours. The
        // kernel advances every lane at one `dt`, so this batch must
        // step each lane's thermal phase scalar at its own `dt`.
        let mut cfg = SimConfig::fast_test();
        cfg.duration = 0.01;
        let dts = [DT, 2.0 * DT, DT];
        let lane = |k: usize| build_at(policies()[k], k, cfg.clone(), dts[k]);
        let batched = LockstepBatch::new((0..3).map(lane).collect())
            .run()
            .expect("batched run");
        for (k, result) in batched.iter().enumerate() {
            let own = lane(k).run().expect("scalar run");
            assert_eq!(
                format!("{result:?}"),
                format!("{own:?}"),
                "lane {k} (dt {}) diverged from its own run",
                dts[k]
            );
        }
    }

    #[test]
    fn profiled_batch_times_one_thermal_phase_per_step() {
        use crate::engine::{ENGINE_PHASES, SPAN_SAMPLE_STRIDE};
        let mut cfg = SimConfig::fast_test();
        cfg.duration = 0.01;
        let lanes = || -> Vec<ThermalTimingSim> {
            policies()
                .iter()
                .enumerate()
                .map(|(k, &p)| build(p, k, cfg.clone()))
                .collect()
        };
        let plain = LockstepBatch::new(lanes()).run().expect("unprofiled run");
        let obs = dtm_obs::ObsHandle::enabled_default();
        let mut sims = lanes();
        for sim in &mut sims {
            sim.attach_obs(&obs);
        }
        let profiled = LockstepBatch::new(sims).run().expect("profiled run");

        let mut one = build(policies()[0], 0, cfg.clone());
        let mut steps = 0;
        while one.time() < cfg.duration {
            one.step().expect("step");
            steps += 1;
        }
        assert_eq!(steps, 361);
        for (k, (mut result, plain)) in profiled.into_iter().zip(plain).enumerate() {
            let profile = result.phases.take().expect("a profiled lane has phases");
            assert_eq!(profile.steps, steps, "lane {k} step count");
            let names: Vec<&str> = profile.phases.iter().map(|p| p.name.as_str()).collect();
            assert_eq!(names, ENGINE_PHASES, "lane {k} phase names");
            assert!(
                profile.phase_ns("thermal") > 0,
                "lane {k} was charged no thermal time"
            );
            assert_eq!(
                format!("{result:?}"),
                format!("{plain:?}"),
                "profiling changed lane {k}'s physics"
            );
        }
        let thermal_spans = obs
            .spans()
            .iter()
            .filter(|s| s.cat == "engine" && s.name == "thermal")
            .count() as u64;
        assert_eq!(
            thermal_spans,
            steps.div_ceil(SPAN_SAMPLE_STRIDE),
            "one thermal span per sampled batch step, not one per lane"
        );
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

        // A single run is a batch of one, through `run` or `step`.
        let run_allocations = |duration: f64| {
            let mut cfg = SimConfig::fast_test();
            cfg.duration = duration;
            let mut sim = build(policies[0], 0, cfg);
            let before = allocations_on_this_thread();
            sim.run().expect("single run");
            allocations_on_this_thread() - before
        };
        assert_eq!(
            run_allocations(2.0 * d),
            run_allocations(d),
            "doubling a single run's duration changed its allocation count"
        );
        let step_allocations = |steps: usize| {
            let mut sim = build(policies[1], 1, SimConfig::fast_test());
            let before = allocations_on_this_thread();
            for _ in 0..steps {
                sim.step().expect("step");
            }
            allocations_on_this_thread() - before
        };
        assert_eq!(
            step_allocations(600),
            step_allocations(300),
            "a `step` call must not touch the allocator"
        );
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let results = LockstepBatch::new(Vec::new()).run().expect("empty run");
        assert!(results.is_empty());
    }
}

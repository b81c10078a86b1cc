//! Run metrics: instruction throughput (BIPS) and the adjusted duty
//! cycle (§3.5 of the paper).

use serde::{Deserialize, Serialize};

/// Per-thread accounting for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadStats {
    /// Instructions retired.
    pub instructions: f64,
    /// Work time weighted by frequency scale (s of full-speed-equivalent
    /// execution).
    pub scaled_work: f64,
    /// Number of times the thread migrated.
    pub migrations: u64,
}

/// Robustness accounting for one run (the fault-injection study's
/// metrics; all zero for fault-free runs under a disabled watchdog).
///
/// Unlike [`RunResult::emergency_time`], which counts what the
/// *sensors* report, these are measured against the **true** block
/// temperatures at the sensor sites — the distinction is the whole
/// point once sensors can lie.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Robustness {
    /// Time the true hotspot temperature spent above the thermal
    /// threshold (s).
    pub violation_time: f64,
    /// Peak true-temperature excess over the threshold (°C, ≥ 0).
    pub peak_overshoot: f64,
    /// Time the chip spent throttled while the true hotspot sat safely
    /// below the control setpoint (s) — throughput burned on faults,
    /// not on heat.
    pub false_throttle_time: f64,
    /// Time at least one core spent in watchdog fallback (s).
    pub fallback_time: f64,
    /// Fallback episodes entered.
    pub fallback_entries: u64,
    /// Fallback episodes exited (entries minus exits = episodes still
    /// latched at run end).
    pub fallback_exits: u64,
    /// Sensor readings the watchdog flagged as implausible.
    pub watchdog_flags: u64,
}

/// Observed adaptive-gain statistics for one run, aggregated across
/// the run's DVFS controllers (`None` on the fixed-gain path, so
/// fixed-gain results stay bit-identical to pre-adaptive builds).
/// Bounds are the *effective* gains (base gain × observed multiplier
/// extremes); the control-equivalence suite checks they stay inside
/// the schedule's declared clamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GainStats {
    /// Smallest effective proportional gain applied.
    pub kp_min: f64,
    /// Largest effective proportional gain applied.
    pub kp_max: f64,
    /// Smallest effective integral gain applied.
    pub ki_min: f64,
    /// Largest effective integral gain applied.
    pub ki_max: f64,
    /// Control steps on which some controller's multiplier changed.
    pub adaptations: u64,
}

/// Steady-state temperature summary of a run: the hottest sensor over
/// the second half, sampled at the engine's telemetry-compatible
/// steady stride. For a single benchmark on one unconstrained core
/// this is the Table 1 reproduction primitive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SteadyTempSummary {
    /// Mean hottest-sensor temperature over the analysis window (°C).
    pub mean: f64,
    /// Minimum over the window (°C).
    pub min: f64,
    /// Maximum over the window (°C).
    pub max: f64,
}

impl SteadyTempSummary {
    /// Whether the benchmark holds a steady temperature (the paper's
    /// Table 1a vs 1b distinction), given an oscillation tolerance (°C).
    pub fn is_steady(&self, tolerance: f64) -> bool {
        self.max - self.min <= tolerance
    }
}

/// Accumulated wall time of one named engine phase (ns).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseNs {
    /// Phase name, e.g. `thermal` or `microarch`.
    pub name: String,
    /// Total nanoseconds spent in the phase across the run.
    pub ns: u64,
}

/// Per-phase wall-time breakdown of the engine's step loop, recorded
/// only when an enabled `ObsHandle` is attached (profiling runs).
/// Totals are whole-run estimates scaled up from the engine's sampled
/// timed steps (see `TIMED_SAMPLE_STRIDE` in the engine).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Engine steps executed.
    pub steps: u64,
    /// Accumulated time per phase, in the engine's phase order.
    pub phases: Vec<PhaseNs>,
}

impl PhaseProfile {
    /// Total instrumented time across all phases (ns).
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.ns).sum()
    }

    /// Accumulated time of one phase by name (0 if absent).
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.ns)
    }
}

/// The result of one (workload, policy) simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Simulated duration (s).
    pub duration: f64,
    /// Number of cores.
    pub cores: usize,
    /// Total instructions retired across all threads.
    pub instructions: f64,
    /// Adjusted duty cycle: scaled work over total possible work.
    pub duty_cycle: f64,
    /// Hottest sensor reading observed (°C).
    pub max_temp: f64,
    /// Total time any sensor spent above the emergency threshold (s).
    pub emergency_time: f64,
    /// Migrations performed.
    pub migrations: u64,
    /// DVFS transitions applied.
    pub dvfs_transitions: u64,
    /// Stop-go stalls issued.
    pub stalls: u64,
    /// Total energy dissipated by the chip over the run (J), including
    /// leakage.
    pub energy: f64,
    /// Fault/watchdog robustness accounting (all zero when nothing was
    /// injected and the watchdog was off).
    pub robustness: Robustness,
    /// Steady-state summary of the hottest sensor over the second half
    /// of the run (`None` for runs too short to produce a sample).
    pub steady: Option<SteadyTempSummary>,
    /// Per-phase engine wall-time breakdown (`None` unless the run was
    /// profiled through an enabled `ObsHandle`, so fault-free results
    /// stay bit-identical to unprofiled builds).
    pub phases: Option<PhaseProfile>,
    /// Adaptive-gain statistics (`None` unless the run selected an
    /// adaptive [`gain schedule`](dtm_control::GainScheduleConfig), so
    /// fixed-gain results keep their pre-adaptive encoding).
    pub gain_stats: Option<GainStats>,
    /// Per-thread statistics.
    pub threads: Vec<ThreadStats>,
}

impl RunResult {
    /// Instruction throughput in billions of instructions per second.
    pub fn bips(&self) -> f64 {
        self.instructions / self.duration / 1e9
    }

    /// Throughput relative to a baseline run.
    pub fn relative_throughput(&self, baseline: &RunResult) -> f64 {
        self.bips() / baseline.bips()
    }

    /// Whether the run avoided all thermal emergencies.
    pub fn emergency_free(&self) -> bool {
        self.emergency_time == 0.0
    }

    /// Average chip power over the run (W).
    pub fn avg_power(&self) -> f64 {
        self.energy / self.duration
    }

    /// Energy per instruction (nJ) — an efficiency view of the policy.
    pub fn energy_per_instruction_nj(&self) -> f64 {
        if self.instructions == 0.0 {
            0.0
        } else {
            1e9 * self.energy / self.instructions
        }
    }

    /// Whether the run kept the *true* temperature below the threshold
    /// the whole time — the robustness analogue of
    /// [`RunResult::emergency_free`], immune to lying sensors.
    pub fn violation_free(&self) -> bool {
        self.robustness.violation_time == 0.0
    }
}

/// Mean of a slice of values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(instructions: f64, duration: f64) -> RunResult {
        RunResult {
            duration,
            cores: 4,
            instructions,
            duty_cycle: 0.5,
            max_temp: 80.0,
            emergency_time: 0.0,
            migrations: 0,
            dvfs_transitions: 0,
            stalls: 0,
            energy: 5.0,
            robustness: Robustness::default(),
            steady: None,
            phases: None,
            gain_stats: None,
            threads: vec![],
        }
    }

    #[test]
    fn bips_computes() {
        let r = result(2.5e9, 0.5);
        assert!((r.bips() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn relative_throughput_ratios() {
        let a = result(10e9, 0.5);
        let b = result(4e9, 0.5);
        assert!((a.relative_throughput(&b) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn emergency_free_flag() {
        let mut r = result(1e9, 0.5);
        assert!(r.emergency_free());
        r.emergency_time = 1e-3;
        assert!(!r.emergency_free());
    }

    #[test]
    fn energy_metrics() {
        let r = result(1e9, 0.5);
        assert!((r.avg_power() - 10.0).abs() < 1e-12);
        assert!((r.energy_per_instruction_nj() - 5.0).abs() < 1e-12);
        let idle = RunResult {
            instructions: 0.0,
            ..result(1.0, 0.5)
        };
        assert_eq!(idle.energy_per_instruction_nj(), 0.0);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn phase_profile_totals_and_lookup() {
        let p = PhaseProfile {
            steps: 100,
            phases: vec![
                PhaseNs {
                    name: "microarch".into(),
                    ns: 300,
                },
                PhaseNs {
                    name: "thermal".into(),
                    ns: 700,
                },
            ],
        };
        assert_eq!(p.total_ns(), 1_000);
        assert_eq!(p.phase_ns("thermal"), 700);
        assert_eq!(p.phase_ns("absent"), 0);
    }
}

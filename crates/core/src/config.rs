//! Simulation and DTM configuration (Table 3's global and DVFS/migration
//! parameter blocks).

use crate::engine::SimError;
use dtm_control::GainScheduleConfig;
use dtm_microarch::CoreConfig;
use dtm_thermal::{PackageConfig, SensorSpec, SolverBackend};
use serde::{Deserialize, Serialize};

/// The paper's proportional DVFS gain (`Kp = 0.0107`).
pub const PAPER_PI_KP: f64 = 0.0107;

/// The paper's integral DVFS gain (`Ki = 248.5`).
pub const PAPER_PI_KI: f64 = 248.5;

/// Dynamic-thermal-management parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DtmConfig {
    /// Thermal emergency threshold (°C); no sensor may exceed this.
    pub threshold: f64,
    /// Margin below the threshold at which stop-go trips (°C).
    pub stopgo_trip_margin: f64,
    /// Stop-go stall duration (s); 30 ms in the study.
    pub stopgo_stall: f64,
    /// DVFS setpoint margin below the threshold (°C); the PI controller
    /// regulates to `threshold − margin`.
    pub dvfs_setpoint_margin: f64,
    /// Minimum DVFS frequency-scale factor (0.2 = 720 MHz).
    pub dvfs_min_scale: f64,
    /// Minimum applied DVFS transition (fraction of range; 2 %).
    pub dvfs_min_transition: f64,
    /// Voltage/frequency transition dead time (s); 10 µs.
    pub dvfs_transition_penalty: f64,
    /// Per-core migration penalty (s); 100 µs.
    pub migration_penalty: f64,
    /// OS timer-interrupt period (s); 1 ms.
    pub os_tick: f64,
    /// Minimum interval between migration decisions (s); 10 ms.
    pub migration_interval: f64,
    /// Proportional gain of the DVFS PI controller ([`PAPER_PI_KP`]
    /// unless tuned — an exploration knob, see `dtm-explore`).
    pub pi_kp: f64,
    /// Integral gain of the DVFS PI controller ([`PAPER_PI_KI`] unless
    /// tuned).
    pub pi_ki: f64,
    /// Online gain schedule for the DVFS PI controller. `Fixed` (the
    /// default) selects the paper's fixed-gain controller; adaptive
    /// schedules rescale the gains from the observed temperature
    /// trajectory (see `dtm_control::adaptive`).
    pub gain_schedule: GainScheduleConfig,
}

impl Default for DtmConfig {
    fn default() -> Self {
        DtmConfig {
            threshold: 84.2,
            stopgo_trip_margin: 0.2,
            stopgo_stall: 30e-3,
            dvfs_setpoint_margin: 2.4,
            dvfs_min_scale: 0.2,
            dvfs_min_transition: 0.02,
            dvfs_transition_penalty: 10e-6,
            migration_penalty: 100e-6,
            os_tick: 1e-3,
            migration_interval: 10e-3,
            pi_kp: PAPER_PI_KP,
            pi_ki: PAPER_PI_KI,
            gain_schedule: GainScheduleConfig::Fixed,
        }
    }
}

impl DtmConfig {
    /// DVFS temperature setpoint (°C).
    pub fn dvfs_setpoint(&self) -> f64 {
        self.threshold - self.dvfs_setpoint_margin
    }

    /// Stop-go trip temperature (°C).
    pub fn stopgo_trip(&self) -> f64 {
        self.threshold - self.stopgo_trip_margin
    }

    /// A configuration with the threshold raised to 100 °C (the paper's
    /// sensitivity check in §5.3).
    pub fn with_threshold(threshold: f64) -> Self {
        DtmConfig {
            threshold,
            ..DtmConfig::default()
        }
    }

    /// An effectively unconstrained configuration (for unthrottled
    /// reference runs such as the Table 1 reproduction).
    pub fn unconstrained() -> Self {
        DtmConfig::with_threshold(f64::INFINITY)
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadInput`] describing the first non-positive
    /// duration, out-of-range scale, non-finite gain or invalid gain
    /// schedule.
    pub fn validate(&self) -> Result<(), SimError> {
        let checks = [
            (self.threshold > 0.0, "threshold must be positive"),
            (self.stopgo_stall > 0.0, "stall must be positive"),
            (
                self.dvfs_min_scale > 0.0 && self.dvfs_min_scale < 1.0,
                "min scale must be in (0,1)",
            ),
            (
                (0.0..1.0).contains(&self.dvfs_min_transition),
                "min transition must be in [0,1)",
            ),
            (self.os_tick > 0.0, "OS tick must be positive"),
            (
                self.migration_interval >= self.os_tick,
                "migration interval must be at least one OS tick",
            ),
            (
                self.pi_kp.is_finite() && self.pi_kp > 0.0,
                "PI proportional gain must be finite and positive",
            ),
            (
                self.pi_ki.is_finite() && self.pi_ki > 0.0,
                "PI integral gain must be finite and positive",
            ),
        ];
        if let Some((_, msg)) = checks.iter().find(|(ok, _)| !ok) {
            return Err(SimError::BadInput((*msg).to_string()));
        }
        self.gain_schedule.validate().map_err(SimError::BadInput)
    }
}

/// Leakage calibration for the simulated chip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeakageConfig {
    /// Logic leakage density at the reference temperature (W/m²).
    pub logic_density: f64,
    /// SRAM leakage density at the reference temperature (W/m²).
    pub sram_density: f64,
    /// Reference temperature (°C).
    pub t_ref: f64,
    /// Exponential temperature coefficient (1/K).
    pub beta: f64,
}

impl Default for LeakageConfig {
    fn default() -> Self {
        LeakageConfig {
            logic_density: dtm_power::DEFAULT_LOGIC_LEAKAGE,
            sram_density: dtm_power::DEFAULT_SRAM_LEAKAGE,
            t_ref: 45.0,
            beta: std::f64::consts::LN_2 / 40.0,
        }
    }
}

/// Full simulation configuration: chip, package, leakage, sensors, and
/// run length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of cores (4 in the study).
    pub cores: usize,
    /// Core microarchitecture (Table 3).
    pub core: CoreConfig,
    /// Cooling package.
    pub package: PackageConfig,
    /// Leakage calibration.
    pub leakage: LeakageConfig,
    /// Sensor non-idealities.
    pub sensor: SensorSpec,
    /// Simulated silicon time per run (s); 0.5 s in the study.
    pub duration: f64,
    /// Thermal-solver substep ceiling (s); only exercised by the
    /// backward-Euler backend (directly, or as the propagator's
    /// fallback).
    pub thermal_substep: f64,
    /// Transient thermal integration backend. The default exact
    /// matrix-exponential propagator advances a whole power sample in
    /// one matvec; `BackwardEuler` selects the substepping reference
    /// integrator.
    pub thermal_solver: SolverBackend,
    /// Initialization margin (°C): the package starts at the steady
    /// state whose hottest sensor sits this far below the threshold,
    /// emulating a chip that has long been running at its throttled
    /// equilibrium. (The heat sink's time constant is ~1 min, far beyond
    /// the 0.5 s runs, so the package state is effectively an initial
    /// condition.)
    pub init_hotspot_margin: f64,
    /// Seed for sensor noise.
    pub seed: u64,
    /// Per-core maximum frequency-scale factors for heterogeneous
    /// (asymmetric) CMPs — the extension axis the paper names in §9.
    /// Empty means every core is a full-speed core (the paper's
    /// homogeneous configuration).
    pub core_max_scale: Vec<f64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cores: 4,
            core: CoreConfig::default(),
            package: PackageConfig::default(),
            leakage: LeakageConfig::default(),
            sensor: SensorSpec::ideal(),
            duration: 0.5,
            thermal_substep: 7e-6,
            thermal_solver: SolverBackend::default(),
            init_hotspot_margin: 1.0,
            seed: 0x5eed,
            core_max_scale: Vec::new(),
        }
    }
}

impl SimConfig {
    /// A short-duration configuration for unit tests.
    pub fn fast_test() -> Self {
        SimConfig {
            duration: 0.05,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let d = DtmConfig::default();
        assert!((d.threshold - 84.2).abs() < 1e-12);
        assert!((d.stopgo_stall - 30e-3).abs() < 1e-12);
        assert!((d.dvfs_min_scale - 0.2).abs() < 1e-12);
        assert!((d.dvfs_min_transition - 0.02).abs() < 1e-12);
        assert!((d.dvfs_transition_penalty - 10e-6).abs() < 1e-18);
        assert!((d.migration_penalty - 100e-6).abs() < 1e-18);
        assert!((d.migration_interval - 10e-3).abs() < 1e-12);
        d.validate().unwrap();
    }

    #[test]
    fn setpoint_is_below_threshold() {
        let d = DtmConfig::default();
        assert!(d.dvfs_setpoint() < d.threshold);
        assert!(d.stopgo_trip() < d.threshold);
        assert!(d.stopgo_trip() > d.dvfs_setpoint());
    }

    #[test]
    fn unconstrained_never_trips() {
        let d = DtmConfig::unconstrained();
        assert!(d.stopgo_trip() == f64::INFINITY);
        d.validate().unwrap();
    }

    #[test]
    fn sim_defaults_are_study_scale() {
        let s = SimConfig::default();
        assert_eq!(s.cores, 4);
        assert!((s.duration - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "min scale")]
    fn bad_min_scale_rejected() {
        let d = DtmConfig {
            dvfs_min_scale: 1.5,
            ..DtmConfig::default()
        };
        d.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one OS tick")]
    fn migration_interval_must_cover_tick() {
        let mut d = DtmConfig::default();
        d.migration_interval = d.os_tick / 2.0;
        d.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "proportional gain")]
    fn non_finite_kp_rejected() {
        let d = DtmConfig {
            pi_kp: f64::NAN,
            ..DtmConfig::default()
        };
        d.validate().unwrap();
    }

    /// The harness addresses cache cells by `format!("{dtm:?}")`, so
    /// this derived spelling is part of every cache key. If it changes,
    /// every cached result silently rotates.
    #[test]
    fn debug_repr_is_cache_key_stable() {
        let pinned = "DtmConfig { threshold: 84.2, stopgo_trip_margin: 0.2, \
             stopgo_stall: 0.03, dvfs_setpoint_margin: 2.4, dvfs_min_scale: 0.2, \
             dvfs_min_transition: 0.02, dvfs_transition_penalty: 1e-5, \
             migration_penalty: 0.0001, os_tick: 0.001, migration_interval: 0.01, \
             pi_kp: 0.0107, pi_ki: 248.5, gain_schedule: Fixed }";
        assert_eq!(format!("{:?}", DtmConfig::default()), pinned);

        // Tuned gains change the repr (distinct cache addresses).
        let tuned = DtmConfig {
            pi_kp: 0.02,
            ..DtmConfig::default()
        };
        assert_eq!(
            format!("{tuned:?}"),
            pinned.replace("pi_kp: 0.0107", "pi_kp: 0.02")
        );
    }

    /// An adaptive schedule is spelled with its parameters, so it
    /// rekeys.
    #[test]
    fn adaptive_schedule_is_spelled_in_the_debug_repr() {
        let adaptive = DtmConfig {
            gain_schedule: GainScheduleConfig::rao_default(),
            ..DtmConfig::default()
        };
        adaptive.validate().unwrap();
        let repr = format!("{adaptive:?}");
        assert!(repr.contains("gain_schedule: Rao { alpha: 1.0, tau_s: 0.002 }"));
        assert_ne!(repr, format!("{:?}", DtmConfig::default()));
    }

    #[test]
    #[should_panic(expected = "selftune rate")]
    fn invalid_schedule_rejected_by_validate() {
        let d = DtmConfig {
            gain_schedule: GainScheduleConfig::SelfTuning {
                rate: 2.0,
                window_s: 1e-3,
            },
            ..DtmConfig::default()
        };
        d.validate().unwrap();
    }
}

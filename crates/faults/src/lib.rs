//! `dtm-faults`: deterministic fault injection and a watchdog safety
//! layer for DTM robustness studies.
//!
//! The ISCA'06 study evaluates twelve thermal-management policies that
//! all read temperature through on-die sensors and actuate through
//! DVFS/stop-go hardware — and assumes both always work. This crate
//! models what happens when they don't:
//!
//! - [`FaultScenario`] is a schedule of timestamped [`FaultEvent`]s:
//!   stuck-at sensors, drift ramps, dropouts (NaN), transient spikes,
//!   stale telemetry, stuck DVFS levels, and ignored stop-go gates.
//!   Scenarios are pure data and deterministic, so every faulty run is
//!   bit-replayable and content-addressable by the sweep cache.
//! - [`FaultState`] applies a scenario inside the simulation loop.
//! - [`Watchdog`] screens readings for plausibility (per-sample rate
//!   bound, cross-sensor consistency) and latches a per-core fail-safe
//!   [`FallbackKind`] while sensors cannot be trusted, in the spirit of
//!   ControlPULP's fault-handling layer.
//! - [`FaultConfig`] bundles a scenario with a [`WatchdogConfig`] as
//!   the unit the experiment harness carries along a sweep's
//!   configuration axis.
//!
//! The crate is dependency-light by design: it knows nothing about the
//! thermal model or the engine, only about reading streams and time.
//!
//! # Examples
//!
//! ```
//! use dtm_faults::{FaultScenario, FaultState, Watchdog, WatchdogConfig};
//!
//! // A sensor sticks at 150 °C from t = 0.1 s; the watchdog flags the
//! // jump and substitutes the last plausible value.
//! let scenario = FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, 0.1);
//! let mut faults = FaultState::new(scenario);
//! let mut watchdog = Watchdog::new(WatchdogConfig::enabled(), 1, 2);
//!
//! let mut readings = [faults.apply_sensor(0.0, 0, 0, 80.0), 79.0];
//! watchdog.assess(0.0, &mut readings);
//! assert_eq!(readings[0], 80.0);
//!
//! let mut readings = [faults.apply_sensor(0.2, 0, 0, 80.0), 79.0];
//! watchdog.assess(0.2, &mut readings);
//! assert_eq!(readings[0], 80.0); // substituted, not 150.0
//! assert!(watchdog.in_fallback()[0]);
//! ```

mod scenario;
mod state;
mod watchdog;

pub use scenario::{FaultEvent, FaultKind, FaultScenario, FaultTarget};
pub use state::FaultState;
pub use watchdog::{FallbackKind, Watchdog, WatchdogConfig};

use serde::{Deserialize, Serialize};

/// A complete robustness configuration: what breaks, and what the
/// safety net does about it.
///
/// [`FaultConfig::ideal`] (the default) is the distinguished no-op:
/// nothing is injected and the watchdog is off. The experiment harness
/// folds the whole `FaultConfig`, ideal or not, into a sweep cell's
/// content address.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultConfig {
    /// The fault schedule.
    pub scenario: FaultScenario,
    /// The watchdog / fail-safe configuration.
    pub watchdog: WatchdogConfig,
}

impl FaultConfig {
    /// No faults, watchdog off — behaviorally identical to a build
    /// without the fault subsystem.
    pub fn ideal() -> Self {
        FaultConfig::default()
    }

    /// A scenario with the watchdog off (raw exposure to the faults).
    pub fn unprotected(scenario: FaultScenario) -> Self {
        FaultConfig {
            scenario,
            watchdog: WatchdogConfig::disabled(),
        }
    }

    /// A scenario under a watchdog.
    pub fn protected(scenario: FaultScenario, watchdog: WatchdogConfig) -> Self {
        FaultConfig { scenario, watchdog }
    }

    /// Whether this is the distinguished no-op configuration (nothing
    /// injected, watchdog off).
    pub fn is_ideal(&self) -> bool {
        self.scenario.is_ideal() && !self.watchdog.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_config_is_default_and_idempotent() {
        assert!(FaultConfig::ideal().is_ideal());
        assert!(FaultConfig::default().is_ideal());
        assert_eq!(FaultConfig::ideal(), FaultConfig::default());
    }

    #[test]
    fn enabling_either_half_makes_it_non_ideal() {
        let s = FaultConfig::unprotected(FaultScenario::dropout_sensor("d", 0, 0, 0.0));
        assert!(!s.is_ideal());
        let w = FaultConfig::protected(FaultScenario::ideal(), WatchdogConfig::enabled());
        assert!(!w.is_ideal(), "an enabled watchdog changes behavior");
    }
}

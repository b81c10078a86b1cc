//! Power traces: per-28 µs samples of unit power plus the performance
//! counters the migration policies need.

use dtm_floorplan::UnitKind;
use serde::{Deserialize, Serialize};

/// Number of per-core units (the length of [`CorePowerSample::units`]).
pub const N_CORE_UNITS: usize = 13;

/// One trace sample: per-unit dynamic power at nominal V/f over one
/// 100 000-cycle interval, plus the counters the OS-level policies read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorePowerSample {
    /// Dynamic power of each per-core unit (W at nominal V/f), indexed by
    /// [`UnitKind::per_core`] order.
    pub units: [f64; N_CORE_UNITS],
    /// This thread's share of L2 dynamic power (W at nominal V/f).
    pub l2: f64,
    /// Instructions retired in the interval.
    pub instructions: u64,
    /// Integer register-file accesses per cycle (counter-based migration
    /// proxy).
    pub int_rf_per_cycle: f64,
    /// FP register-file accesses per cycle.
    pub fp_rf_per_cycle: f64,
}

impl CorePowerSample {
    /// A zero sample (stopped core).
    pub fn zero() -> Self {
        CorePowerSample {
            units: [0.0; N_CORE_UNITS],
            l2: 0.0,
            instructions: 0,
            int_rf_per_cycle: 0.0,
            fp_rf_per_cycle: 0.0,
        }
    }

    /// Total core dynamic power of the sample (W, excluding L2).
    pub fn core_power(&self) -> f64 {
        self.units.iter().sum()
    }

    /// Power of one unit kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a per-core unit.
    pub fn unit_power(&self, kind: UnitKind) -> f64 {
        let idx = UnitKind::per_core()
            .iter()
            .position(|&k| k == kind)
            .unwrap_or_else(|| panic!("`{kind}` is not a per-core unit"));
        self.units[idx]
    }
}

/// A benchmark's power trace: a looping sequence of samples at a fixed
/// period (27.78 µs in the study).
///
/// "When a power trace for a particular benchmark is completed before the
/// end of the simulation, that trace is restarted at the beginning" —
/// [`PowerTrace::sample`] implements exactly that wrap-around.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    name: String,
    dt: f64,
    samples: Vec<CorePowerSample>,
}

impl PowerTrace {
    /// Creates a trace.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `dt` is not positive.
    pub fn new(name: impl Into<String>, dt: f64, samples: Vec<CorePowerSample>) -> Self {
        assert!(
            !samples.is_empty(),
            "a power trace needs at least one sample"
        );
        assert!(dt.is_finite() && dt > 0.0, "sample period must be positive");
        PowerTrace {
            name: name.into(),
            dt,
            samples,
        }
    }

    /// Benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sample period (s).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of samples before the trace loops.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty (never true for constructed traces).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// One loop of samples, in order: `samples()[i]` is `sample(i)`
    /// for `i < len()`.
    pub fn samples(&self) -> &[CorePowerSample] {
        &self.samples
    }

    /// The sample at (wrapping) position `idx`.
    pub fn sample(&self, idx: u64) -> &CorePowerSample {
        &self.samples[(idx % self.samples.len() as u64) as usize]
    }

    /// Trace duration before looping (s).
    pub fn duration(&self) -> f64 {
        self.dt * self.samples.len() as f64
    }

    /// Mean core dynamic power over one full loop (W).
    pub fn mean_core_power(&self) -> f64 {
        self.samples.iter().map(|s| s.core_power()).sum::<f64>() / self.samples.len() as f64
    }

    /// Mean IPC over one full loop.
    pub fn mean_ipc(&self) -> f64 {
        let instr: u64 = self.samples.iter().map(|s| s.instructions).sum();
        instr as f64 / (self.samples.len() as f64 * 1e5)
    }

    /// Mean power of one unit over a loop (W).
    pub fn mean_unit_power(&self, kind: UnitKind) -> f64 {
        self.samples.iter().map(|s| s.unit_power(kind)).sum::<f64>() / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(p: f64) -> CorePowerSample {
        let mut s = CorePowerSample::zero();
        s.units[0] = p;
        s.instructions = 1000;
        s
    }

    #[test]
    fn trace_wraps_around() {
        let t = PowerTrace::new("t", 28e-6, vec![sample(1.0), sample(2.0), sample(3.0)]);
        assert_eq!(t.sample(0).units[0], 1.0);
        assert_eq!(t.sample(3).units[0], 1.0);
        assert_eq!(t.sample(7).units[0], 2.0);
    }

    #[test]
    fn mean_power_averages() {
        let t = PowerTrace::new("t", 28e-6, vec![sample(1.0), sample(3.0)]);
        assert!((t.mean_core_power() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duration_multiplies() {
        let t = PowerTrace::new("t", 1e-3, vec![sample(0.0); 50]);
        assert!((t.duration() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn mean_ipc_uses_sample_cycles() {
        let t = PowerTrace::new("t", 28e-6, vec![sample(0.0); 4]);
        assert!((t.mean_ipc() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn unit_power_lookup() {
        let mut s = CorePowerSample::zero();
        s.units[7] = 2.5; // IntRegFile is index 7 in per_core order
        assert_eq!(s.unit_power(dtm_floorplan::UnitKind::IntRegFile), 2.5);
    }

    #[test]
    #[should_panic(expected = "per-core unit")]
    fn l2_is_not_a_core_unit() {
        CorePowerSample::zero().unit_power(dtm_floorplan::UnitKind::L2);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_rejected() {
        PowerTrace::new("t", 28e-6, vec![]);
    }

    #[test]
    fn core_power_sums_units() {
        let mut s = CorePowerSample::zero();
        s.units = [1.0; N_CORE_UNITS];
        assert!((s.core_power() - 13.0).abs() < 1e-12);
    }
}

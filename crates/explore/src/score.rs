//! Multi-objective scoring of one evaluated point.
//!
//! Four objectives, aggregated over the workloads a point was
//! evaluated on: throughput (maximize), thermal violation (minimize,
//! in second·degrees against the configured threshold), energy
//! (minimize), and a fault-robustness penalty (minimize; zero for
//! ideal-sensor runs). Scores are pure functions of `RunResult`s, so a
//! journal row replays to the bit.

use dtm_core::RunResult;
use dtm_harness::codec::struct_codec;

/// The objective vector of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Mean instruction throughput across workloads (BIPS; maximize).
    pub bips: f64,
    /// Summed thermal-violation exposure (s·°C; minimize): sensor
    /// emergency time weighted by peak excess over the threshold, plus
    /// the true-temperature violation the robustness metrics expose
    /// under faults.
    pub violation: f64,
    /// Mean chip energy per workload run (J; minimize).
    pub energy: f64,
    /// Fault-robustness penalty (s; minimize): time burned throttling
    /// on lies plus time parked in watchdog fallback.
    pub penalty: f64,
}

struct_codec!(Score; bips, violation, energy, penalty);

impl Score {
    /// Scores a point from its per-workload runs, against the thermal
    /// threshold the point's config used.
    ///
    /// # Panics
    ///
    /// Panics on an empty run set.
    pub fn of_runs(runs: &[RunResult], threshold: f64) -> Score {
        assert!(!runs.is_empty(), "cannot score zero runs");
        let n = runs.len() as f64;
        let mut bips = 0.0;
        let mut violation = 0.0;
        let mut energy = 0.0;
        let mut penalty = 0.0;
        for r in runs {
            bips += r.bips();
            let excess = (r.max_temp - threshold).max(0.0);
            violation += r.emergency_time * excess
                + r.robustness.violation_time * r.robustness.peak_overshoot;
            energy += r.energy;
            penalty += r.robustness.false_throttle_time + r.robustness.fallback_time;
        }
        Score {
            bips: bips / n,
            violation,
            energy: energy / n,
            penalty,
        }
    }

    /// Pareto dominance over all four objectives: at least as good in
    /// every one, strictly better in at least one.
    pub fn dominates(&self, other: &Score) -> bool {
        let ge = self.bips >= other.bips
            && self.violation <= other.violation
            && self.energy <= other.energy
            && self.penalty <= other.penalty;
        let gt = self.bips > other.bips
            || self.violation < other.violation
            || self.energy < other.energy
            || self.penalty < other.penalty;
        ge && gt
    }

    /// Dominance restricted to the paper's headline plane
    /// (throughput, violation) — the axis pair the acceptance
    /// comparison against the fixed 12-policy grid uses.
    pub fn dominates_on_bips_violation(&self, other: &Score) -> bool {
        (self.bips >= other.bips && self.violation <= other.violation)
            && (self.bips > other.bips || self.violation < other.violation)
    }

    /// Scalarization for search *guidance* only (archive membership is
    /// decided by dominance, never by this number): throughput minus
    /// weighted violation/energy/penalty terms scaled to comparable
    /// magnitudes.
    pub fn scalar(&self) -> f64 {
        self.bips - 50.0 * self.violation - 0.02 * self.energy - 10.0 * self.penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_harness::codec::JsonCodec;
    use dtm_harness::json::Json;

    fn s(bips: f64, violation: f64, energy: f64, penalty: f64) -> Score {
        Score {
            bips,
            violation,
            energy,
            penalty,
        }
    }

    #[test]
    fn dominance_requires_strictness_somewhere() {
        let a = s(5.0, 0.0, 10.0, 0.0);
        assert!(!a.dominates(&a), "nothing dominates itself");
        assert!(s(6.0, 0.0, 10.0, 0.0).dominates(&a));
        assert!(a.dominates(&s(5.0, 0.1, 10.0, 0.0)));
        // Trade-offs are incomparable.
        let b = s(6.0, 0.5, 10.0, 0.0);
        assert!(!a.dominates(&b) && !b.dominates(&a));
    }

    #[test]
    fn headline_plane_ignores_energy() {
        let a = s(5.0, 0.0, 10.0, 0.0);
        let b = s(5.5, 0.0, 99.0, 0.0);
        assert!(b.dominates_on_bips_violation(&a));
        assert!(!b.dominates(&a), "full dominance sees the energy cost");
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let a = s(5.123456789, 1.0 / 3.0, 12.75, 0.0);
        let parsed = Json::parse(&a.to_json().emit()).unwrap();
        let back = Score::from_json(&parsed).unwrap();
        assert_eq!(a.bips.to_bits(), back.bips.to_bits());
        assert_eq!(a.violation.to_bits(), back.violation.to_bits());
        assert_eq!(a.energy.to_bits(), back.energy.to_bits());
        assert_eq!(a.penalty.to_bits(), back.penalty.to_bits());
    }
}

//! The correctness oracle: a digest of the bit patterns of every
//! physics field of a `RunResult`, and the pinned digests of the 144
//! paper-default Table 8 cells (`table8.digest`).

use dtm_core::{GainStats, Robustness, RunResult, SteadyTempSummary, ThreadStats};
use std::collections::HashMap;

const PINNED: &str = include_str!("../table8.digest");

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Digest of a result's physics: every field except the wall-time
/// `phases` profile, hashed by bit pattern. Destructured field by field
/// so a new `RunResult` field fails to compile here instead of silently
/// escaping the oracle.
pub fn physics_digest(r: &RunResult) -> u64 {
    let RunResult {
        duration,
        cores,
        instructions,
        duty_cycle,
        max_temp,
        emergency_time,
        migrations,
        dvfs_transitions,
        stalls,
        energy,
        robustness,
        steady,
        phases: _,
        gain_stats,
        threads,
    } = r;
    let mut h = Fnv::new();
    h.f64(*duration);
    h.u64(*cores as u64);
    h.f64(*instructions);
    h.f64(*duty_cycle);
    h.f64(*max_temp);
    h.f64(*emergency_time);
    h.u64(*migrations);
    h.u64(*dvfs_transitions);
    h.u64(*stalls);
    h.f64(*energy);
    let Robustness {
        violation_time,
        peak_overshoot,
        false_throttle_time,
        fallback_time,
        fallback_entries,
        fallback_exits,
        watchdog_flags,
    } = robustness;
    h.f64(*violation_time);
    h.f64(*peak_overshoot);
    h.f64(*false_throttle_time);
    h.f64(*fallback_time);
    h.u64(*fallback_entries);
    h.u64(*fallback_exits);
    h.u64(*watchdog_flags);
    match steady {
        None => h.u64(0),
        Some(SteadyTempSummary { mean, min, max }) => {
            h.u64(1);
            h.f64(*mean);
            h.f64(*min);
            h.f64(*max);
        }
    }
    match gain_stats {
        None => h.u64(0),
        Some(GainStats {
            kp_min,
            kp_max,
            ki_min,
            ki_max,
            adaptations,
        }) => {
            h.u64(1);
            h.f64(*kp_min);
            h.f64(*kp_max);
            h.f64(*ki_min);
            h.f64(*ki_max);
            h.u64(*adaptations);
        }
    }
    h.u64(threads.len() as u64);
    for ThreadStats {
        instructions,
        scaled_work,
        migrations,
    } in threads
    {
        h.f64(*instructions);
        h.f64(*scaled_work);
        h.u64(*migrations);
    }
    h.0
}

/// The pinned per-cell digests, keyed by (workload id, policy wire name).
#[derive(Debug)]
pub struct Pinned(HashMap<(String, String), u64>);

impl Pinned {
    /// Parses the pinned table: one `workload policy hex` line per cell.
    pub fn load() -> Result<Pinned, String> {
        Pinned::parse(PINNED)
    }

    fn parse(text: &str) -> Result<Pinned, String> {
        let mut map = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let mut parts = line.split_whitespace();
            let (Some(w), Some(p), Some(hex), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("malformed digest line `{line}`"));
            };
            let digest =
                u64::from_str_radix(hex, 16).map_err(|e| format!("bad digest `{hex}`: {e}"))?;
            map.insert((w.to_string(), p.to_string()), digest);
        }
        if map.len() != 144 {
            return Err(format!("pinned table has {} cells, want 144", map.len()));
        }
        Ok(Pinned(map))
    }

    /// Whether `result` is the pinned physics of (workload, policy).
    pub fn matches(&self, workload_id: &str, policy_wire: &str, result: &RunResult) -> bool {
        self.0
            .get(&(workload_id.to_string(), policy_wire.to_string()))
            .is_some_and(|&d| d == physics_digest(result))
    }
}

/// Renders a digest table in the pinned file's format.
pub fn render(rows: &[(String, String, u64)]) -> String {
    let mut out = String::from(
        "# Physics digests of the 144 paper-default Table 8 cells (0.5 s each),\n\
         # one `workload policy digest` line per cell. Regenerate with\n\
         # `cargo run --release --manifest-path perfbench/Cargo.toml -- --pin-digest`.\n",
    );
    for (w, p, d) in rows {
        out.push_str(&format!("{w} {p} {d:016x}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_core::{Experiment, PhaseProfile, PolicySpec};

    #[test]
    fn pinned_table_parses() {
        Pinned::load().expect("pinned table");
    }

    #[test]
    fn digest_sees_every_physics_field_but_not_phases() {
        let exp = Experiment::fast_test();
        let w = &dtm_workloads::standard_workloads()[0];
        let r = exp.run(w, PolicySpec::best()).expect("run");
        let base = physics_digest(&r);
        let mut r2 = r.clone();
        r2.phases = Some(PhaseProfile {
            steps: 1,
            phases: Vec::new(),
        });
        assert_eq!(physics_digest(&r2), base);
        let mut r3 = r.clone();
        r3.max_temp = f64::from_bits(r.max_temp.to_bits() ^ 1);
        assert_ne!(physics_digest(&r3), base);
        let mut r4 = r;
        r4.threads[0].migrations += 1;
        assert_ne!(physics_digest(&r4), base);
    }
}

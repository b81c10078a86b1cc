//! Process-wide memo of each workload's converged initial power vector.
//!
//! Building a simulator starts the package at its throttled equilibrium
//! (`ThermalTimingSim::initialize_temperatures`): a binary search over
//! power fractions, each a leakage fixed point of 20 steady-state
//! solves. Its answer depends on the workload's mean power and the chip,
//! never on the policy, so a sweep of 12 workloads × 12 policies asks
//! the same 12 questions twelve times each. The memo answers each
//! distinct question once per process, the way the propagator cache
//! (`dtm-thermal`) builds each distinct `E`/`F` once.
//!
//! The key is the exact bits of every input the search reads, and a
//! lookup compares the whole key, so a hit hands back the very vector a
//! fresh search would compute. Failed searches are not cached.

use crate::config::{DtmConfig, LeakageConfig, SimConfig};
use dtm_obs::{Counter, ObsHandle};
use dtm_thermal::PackageConfig;
use std::sync::{Arc, Mutex, OnceLock};

/// Distinct initial states kept; the oldest is dropped first. A sweep
/// needs one per workload and chip.
const INIT_MEMO_CAP: usize = 64;

/// The scalars an [`InitKey`] holds besides the full-power vector.
const N_PARAMS: usize = 22;

/// Everything the initial-state search reads, as exact bit patterns.
pub(crate) struct InitKey {
    /// Full-speed mean power per floorplan block: the traces, the
    /// thread assignment and the L2 idle power, already combined.
    p_full: Vec<f64>,
    /// The leakage calibration, the threshold and hotspot margin, the
    /// core count (which fixes the floorplan) and the package.
    params: [u64; N_PARAMS],
}

impl InitKey {
    /// The key of a search from `p_full` on the chip `cfg` describes
    /// under `dtm`'s threshold. Both configs are destructured field by
    /// field, so a field added to either fails to compile here until it
    /// is keyed or ruled out.
    pub(crate) fn new(p_full: Vec<f64>, cfg: &SimConfig, dtm: &DtmConfig) -> Self {
        let LeakageConfig {
            logic_density,
            sram_density,
            t_ref,
            beta,
        } = cfg.leakage;
        let PackageConfig {
            t_silicon,
            k_silicon,
            c_silicon,
            t_interface,
            k_interface,
            spreader_side,
            spreader_thickness,
            sink_side,
            sink_thickness,
            k_copper,
            c_copper,
            r_convection,
            local_constriction,
            local_tau,
            ambient,
        } = cfg.package;
        let params = [
            logic_density,
            sram_density,
            t_ref,
            beta,
            dtm.threshold,
            cfg.init_hotspot_margin,
            cfg.cores as f64,
            t_silicon,
            k_silicon,
            c_silicon,
            t_interface,
            k_interface,
            spreader_side,
            spreader_thickness,
            sink_side,
            sink_thickness,
            k_copper,
            c_copper,
            r_convection,
            local_constriction,
            local_tau,
            ambient,
        ]
        .map(f64::to_bits);
        InitKey { p_full, params }
    }

    /// The full-power vector the search starts from.
    pub(crate) fn p_full(&self) -> &[f64] {
        &self.p_full
    }

    /// Whether `other` is the same search, bit for bit.
    pub(crate) fn matches(&self, other: &InitKey) -> bool {
        self.params == other.params
            && self.p_full.len() == other.p_full.len()
            && self
                .p_full
                .iter()
                .zip(&other.p_full)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

const POISONED: &str = "no build panics while holding the initial-state memo";

struct InitMemo {
    entries: Mutex<Vec<(InitKey, Arc<[f64]>)>>,
    hits: Counter,
    misses: Counter,
}

fn memo() -> &'static InitMemo {
    static MEMO: OnceLock<InitMemo> = OnceLock::new();
    MEMO.get_or_init(|| InitMemo {
        entries: Mutex::new(Vec::new()),
        hits: Counter::active(),
        misses: Counter::active(),
    })
}

/// The converged initial power vector for `key`: the memo's copy on a
/// hit, otherwise `search(key.p_full())`, which is then kept.
///
/// # Errors
///
/// Propagates a failed search, which is not kept.
pub(crate) fn solve_once<E>(
    key: InitKey,
    search: impl FnOnce(&[f64]) -> Result<Vec<f64>, E>,
) -> Result<Arc<[f64]>, E> {
    let memo = memo();
    let find = |entries: &[(InitKey, Arc<[f64]>)]| {
        entries
            .iter()
            .find(|(k, _)| k.matches(&key))
            .map(|(_, p)| Arc::clone(p))
    };
    if let Some(p) = find(&memo.entries.lock().expect(POISONED)) {
        memo.hits.inc();
        return Ok(p);
    }
    memo.misses.inc();
    let solved: Arc<[f64]> = search(key.p_full())?.into();
    let mut entries = memo.entries.lock().expect(POISONED);
    // A racing build may have kept the same key; keep theirs (the
    // contents are identical by construction).
    if let Some(p) = find(&entries) {
        return Ok(p);
    }
    if entries.len() >= INIT_MEMO_CAP {
        entries.remove(0);
    }
    entries.push((key, Arc::clone(&solved)));
    Ok(solved)
}

/// Registers the initial-state memo's lookup counters in `obs` as
/// `dtm_init_memo_{hits,misses}_total`, so they appear in its
/// Prometheus dump. The memo is process-wide, so the counts are the
/// process's since start-up: every simulator build that passes its
/// input checks is one hit or one miss. No-op for a disabled handle.
pub fn bind_init_memo_obs(obs: &ObsHandle) {
    let memo = memo();
    obs.adopt_counter("dtm_init_memo_hits_total", &memo.hits);
    obs.adopt_counter("dtm_init_memo_misses_total", &memo.misses);
}

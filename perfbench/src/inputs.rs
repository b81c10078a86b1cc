//! Seeded inputs: the permuted Table 8 grid and the `serve_mixed`
//! request stream. The program under test only ever sees the generated
//! values; the seed stays in the benchmark.

use dtm_core::{DtmConfig, PolicySpec, SimConfig};
use dtm_harness::{ConfigVariant, SweepSpec};
use dtm_serve::{ResultSource, SimRequest};
use dtm_workloads::{standard_workloads, Workload};

/// Simulated seconds per Table 8 cell (the paper's run length).
pub const CELL_DURATION_S: f64 = 0.5;

/// One fresh (never-seen) cell per this many `serve_mixed` requests.
pub const FRESH_ONE_IN: u64 = 30;

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The paper-default cell configuration every Table 8 cell runs.
pub fn paper_sim() -> SimConfig {
    SimConfig {
        duration: CELL_DURATION_S,
        ..SimConfig::default()
    }
}

/// The 12 × 12 Table 8 grid with its workload and policy axes permuted
/// by `seed`. The permutation changes which cells share a lane batch,
/// never a cell's result.
pub fn table8_spec(seed: u64) -> SweepSpec {
    let mut rng = Rng::new(seed);
    let mut workloads = standard_workloads();
    let mut policies = PolicySpec::all();
    rng.shuffle(&mut workloads);
    rng.shuffle(&mut policies);
    SweepSpec::new(workloads)
        .variant(ConfigVariant::new(
            "base",
            paper_sim(),
            DtmConfig::default(),
        ))
        .policies(policies)
}

/// A Table 8 cell named the way a `serve` client names it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    pub workload: Workload,
    pub policy: PolicySpec,
}

/// All 144 Table 8 cells in canonical (workload, policy) order.
pub fn table8_cells() -> Vec<Cell> {
    let mut cells = Vec::with_capacity(144);
    for workload in standard_workloads() {
        for policy in PolicySpec::all() {
            cells.push(Cell {
                workload: workload.clone(),
                policy,
            });
        }
    }
    cells
}

/// One `serve_mixed` request: the cell, and the sensor seed that makes
/// it fresh (`None` repeats the paper-default cell, a memo hit once
/// touched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOp {
    pub cell: usize,
    pub fresh_seed: Option<u64>,
}

impl ServeOp {
    /// The tier that must answer: a fresh cell is simulated, a repeated
    /// one comes from the memo.
    pub fn want(&self) -> ResultSource {
        if self.fresh_seed.is_some() {
            ResultSource::Simulated
        } else {
            ResultSource::Memo
        }
    }

    pub fn request(&self, cells: &[Cell]) -> SimRequest {
        let cell = &cells[self.cell];
        let mut req = SimRequest::standard(&cell.workload.id, &cell.policy.wire_name());
        req.seed = self.fresh_seed;
        req
    }
}

/// The seeded `serve_mixed` plan: which cells setup pre-touches, and an
/// endless closed-loop request stream: every [`FRESH_ONE_IN`]th request
/// (from a seeded phase) is a fresh cell, the fresh cells walk a seeded
/// permutation of the grid, and every other request repeats a
/// pre-touched cell chosen at random. Fixing the fresh positions and
/// walking the grid keeps the share and the mix of simulations the same
/// in every run, so only the seed's choice of cells varies.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// Indexes into [`table8_cells`] answered during setup.
    pub repeated: Vec<usize>,
    fresh_order: Vec<usize>,
    rng: Rng,
    phase: u64,
    fresh_base: u64,
    issued: u64,
    fresh_count: u64,
}

impl ServePlan {
    pub fn new(seed: u64, repeated: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x5e7e_5e7e_5e7e_5e7e);
        let mut all: Vec<usize> = (0..144).collect();
        rng.shuffle(&mut all);
        let mut fresh_order = all.clone();
        rng.shuffle(&mut fresh_order);
        all.truncate(repeated);
        let phase = rng.next_u64() % FRESH_ONE_IN;
        // Fresh seeds count up from a seeded base, so no two fresh
        // requests of one run share a content address.
        let fresh_base = rng.next_u64() >> 1;
        ServePlan {
            repeated: all,
            fresh_order,
            rng,
            phase,
            fresh_base,
            issued: 0,
            fresh_count: 0,
        }
    }

    pub fn next_op(&mut self) -> ServeOp {
        self.issued += 1;
        if self.issued % FRESH_ONE_IN == self.phase {
            let mut seed = self.fresh_base.wrapping_add(self.fresh_count);
            if seed == SimConfig::default().seed {
                seed = seed.wrapping_add(1 << 62);
            }
            let cell = self.fresh_order[(self.fresh_count % 144) as usize];
            self.fresh_count += 1;
            ServeOp {
                cell,
                fresh_seed: Some(seed),
            }
        } else {
            ServeOp {
                cell: self.repeated[self.rng.below(self.repeated.len())],
                fresh_seed: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64, n: usize) -> Vec<ServeOp> {
        let mut plan = ServePlan::new(seed, 24);
        (0..n).map(|_| plan.next_op()).collect()
    }

    #[test]
    fn one_seed_yields_one_sequence() {
        assert_eq!(ops(7, 2000), ops(7, 2000));
        assert_eq!(
            ServePlan::new(7, 24).repeated,
            ServePlan::new(7, 24).repeated
        );
        let a = table8_spec(7);
        let b = table8_spec(7);
        assert_eq!(a.workload_axis(), b.workload_axis());
        assert_eq!(a.policy_axis(), b.policy_axis());
    }

    #[test]
    fn different_seeds_yield_different_sequences() {
        assert_ne!(ops(7, 2000), ops(8, 2000));
        assert_ne!(table8_spec(7).policy_axis(), table8_spec(8).policy_axis());
    }

    #[test]
    fn fresh_share_and_seeds_are_as_planned() {
        let ops = ops(3, 30_000);
        let fresh: Vec<u64> = ops.iter().filter_map(|o| o.fresh_seed).collect();
        assert_eq!(fresh.len() as u64, 30_000 / FRESH_ONE_IN);
        let mut unique = fresh.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), fresh.len(), "fresh seeds repeat");
        assert!(!fresh.contains(&SimConfig::default().seed));
    }

    #[test]
    fn permuted_grid_is_the_whole_table8_grid() {
        let spec = table8_spec(11);
        assert_eq!(spec.cells().len(), 144);
        let mut ids: Vec<_> = spec.workload_axis().iter().map(|w| w.id.clone()).collect();
        ids.sort();
        let mut want: Vec<_> = standard_workloads().into_iter().map(|w| w.id).collect();
        want.sort();
        assert_eq!(ids, want);
    }
}

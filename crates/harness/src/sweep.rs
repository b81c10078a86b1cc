//! Declarative sweep grids: workloads × policies × named configuration
//! variants.
//!
//! Every table and figure in the paper is such a grid. A [`SweepSpec`]
//! names the axes; [`crate::SweepRunner`] executes the cross product in
//! parallel with content-addressed caching and returns a
//! [`SweepResults`] the reporting code indexes by (variant, policy,
//! workload).

use crate::cache::CacheStats;
use dtm_core::{DtmConfig, FaultConfig, PolicySpec, RunResult, SimConfig};
use dtm_workloads::{standard_workloads, Workload};
use std::time::Duration;

/// One named (SimConfig, DtmConfig, FaultConfig) combination — a point
/// on the sweep's configuration axis (threshold, core count, migration
/// interval, sensor noise, fault scenario, …).
#[derive(Debug, Clone)]
pub struct ConfigVariant {
    /// Display name, e.g. `base` or `threshold=100`.
    pub name: String,
    /// Simulation configuration for this variant.
    pub sim: SimConfig,
    /// DTM configuration for this variant.
    pub dtm: DtmConfig,
    /// Robustness configuration (fault scenario plus watchdog); the
    /// ideal default included, it is part of the cell's content address.
    pub faults: FaultConfig,
}

impl ConfigVariant {
    /// Builds a named fault-free variant.
    pub fn new(name: impl Into<String>, sim: SimConfig, dtm: DtmConfig) -> Self {
        ConfigVariant {
            name: name.into(),
            sim,
            dtm,
            faults: FaultConfig::ideal(),
        }
    }

    /// Attaches a robustness configuration to the variant.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }
}

/// A declarative experiment grid.
///
/// # Examples
///
/// ```
/// use dtm_core::PolicySpec;
/// use dtm_harness::SweepSpec;
///
/// // The full Table 8 grid: 12 workloads × 12 policies.
/// let spec = SweepSpec::standard(0.5).policies(PolicySpec::all());
/// assert_eq!(spec.cells().len(), 144);
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    workloads: Vec<Workload>,
    policies: Vec<PolicySpec>,
    variants: Vec<ConfigVariant>,
}

/// Indexes of one cell within its [`SweepSpec`] (variant-major, then
/// policy, then workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellIndex {
    /// Index into [`SweepSpec::variant_axis`].
    pub variant: usize,
    /// Index into [`SweepSpec::policy_axis`].
    pub policy: usize,
    /// Index into [`SweepSpec::workload_axis`].
    pub workload: usize,
}

impl SweepSpec {
    /// An empty spec over explicit workloads.
    pub fn new(workloads: Vec<Workload>) -> Self {
        SweepSpec {
            workloads,
            policies: Vec::new(),
            variants: vec![ConfigVariant::new(
                "base",
                SimConfig::default(),
                DtmConfig::default(),
            )],
        }
    }

    /// The paper's standard grid: the 12 Table 4 workloads under the
    /// default configuration with the given run `duration` (s).
    pub fn standard(duration: f64) -> Self {
        let sim = SimConfig {
            duration,
            ..SimConfig::default()
        };
        SweepSpec::new(standard_workloads()).variant(ConfigVariant::new(
            "base",
            sim,
            DtmConfig::default(),
        ))
    }

    /// Adds policies to the policy axis.
    pub fn policies(mut self, policies: impl IntoIterator<Item = PolicySpec>) -> Self {
        for p in policies {
            if !self.policies.contains(&p) {
                self.policies.push(p);
            }
        }
        self
    }

    /// Replaces the configuration axis with `variant` (dropping the
    /// implicit `base` variant).
    pub fn variant(mut self, variant: ConfigVariant) -> Self {
        self.variants = vec![variant];
        self
    }

    /// Replaces the configuration axis with `variants`, in order.
    pub fn variants(mut self, variants: impl IntoIterator<Item = ConfigVariant>) -> Self {
        self.variants = variants.into_iter().collect();
        self
    }

    /// Appends a variant to the configuration axis.
    pub fn add_variant(mut self, variant: ConfigVariant) -> Self {
        self.variants.push(variant);
        self
    }

    /// The workload axis.
    pub fn workload_axis(&self) -> &[Workload] {
        &self.workloads
    }

    /// The policy axis.
    pub fn policy_axis(&self) -> &[PolicySpec] {
        &self.policies
    }

    /// The configuration axis.
    pub fn variant_axis(&self) -> &[ConfigVariant] {
        &self.variants
    }

    /// All cells of the grid in canonical (variant, policy, workload)
    /// order.
    pub fn cells(&self) -> Vec<CellIndex> {
        let mut v =
            Vec::with_capacity(self.variants.len() * self.policies.len() * self.workloads.len());
        for variant in 0..self.variants.len() {
            for policy in 0..self.policies.len() {
                for workload in 0..self.workloads.len() {
                    v.push(CellIndex {
                        variant,
                        policy,
                        workload,
                    });
                }
            }
        }
        v
    }
}

/// The outcome of one executed (or cache-served) cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Which cell of the spec this is.
    pub index: CellIndex,
    /// The cell's content address (hex spelling in the ledger/cache).
    pub key: String,
    /// The simulation metrics.
    pub result: RunResult,
    /// Whether the result came from the cache (no simulation executed).
    pub cached: bool,
    /// Wall-clock time spent producing the result (≈0 for hits).
    pub wall: Duration,
    /// Time the cell waited between sweep start and execution start
    /// (zero for cache hits, which are served immediately).
    pub queued: Duration,
    /// Worker thread that produced it (0 = the coordinating thread, for
    /// cache hits).
    pub worker: usize,
}

/// All cell outcomes of one sweep, indexable by the spec's axes.
#[derive(Debug)]
pub struct SweepResults {
    spec: SweepSpec,
    /// In `spec.cells()` order.
    outcomes: Vec<CellOutcome>,
    /// Result-cache traffic for this sweep, when a cache was attached.
    cache_stats: Option<CacheStats>,
}

impl SweepResults {
    pub(crate) fn new(spec: SweepSpec, outcomes: Vec<CellOutcome>) -> Self {
        debug_assert_eq!(spec.cells().len(), outcomes.len());
        SweepResults {
            spec,
            outcomes,
            cache_stats: None,
        }
    }

    pub(crate) fn with_cache_stats(mut self, stats: CacheStats) -> Self {
        self.cache_stats = Some(stats);
        self
    }

    /// Result-cache traffic counters (`None` when the sweep ran without
    /// a cache).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache_stats
    }

    /// The spec this sweep executed.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// All outcomes in canonical cell order.
    pub fn outcomes(&self) -> &[CellOutcome] {
        &self.outcomes
    }

    /// Number of cells actually simulated (cache misses).
    pub fn executed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.cached).count()
    }

    /// Number of cells served from the cache.
    pub fn cache_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cached).count()
    }

    /// Highest worker id that executed a cell, plus one — i.e. the
    /// number of distinct workers observed doing simulation work.
    pub fn workers_used(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.cached)
            .map(|o| o.worker)
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    fn policy_index(&self, policy: PolicySpec) -> usize {
        self.spec
            .policies
            .iter()
            .position(|&p| p == policy)
            .unwrap_or_else(|| panic!("policy {policy} is not on the sweep's policy axis"))
    }

    fn variant_index(&self, name: &str) -> usize {
        self.spec
            .variants
            .iter()
            .position(|v| v.name == name)
            .unwrap_or_else(|| panic!("variant `{name}` is not on the sweep's config axis"))
    }

    fn flat(&self, index: CellIndex) -> &CellOutcome {
        let n_p = self.spec.policies.len();
        let n_w = self.spec.workloads.len();
        let i = (index.variant * n_p + index.policy) * n_w + index.workload;
        &self.outcomes[i]
    }

    /// The result of one cell of a single-variant sweep.
    ///
    /// # Panics
    ///
    /// Panics if the policy is not on the sweep's axes.
    pub fn get(&self, policy: PolicySpec, workload: usize) -> &RunResult {
        self.get_in("base", policy, workload)
    }

    /// The result of one cell, addressed by variant name.
    ///
    /// # Panics
    ///
    /// Panics if the variant or policy is not on the sweep's axes.
    pub fn get_in(&self, variant: &str, policy: PolicySpec, workload: usize) -> &RunResult {
        let index = CellIndex {
            variant: self.variant_index(variant),
            policy: self.policy_index(policy),
            workload,
        };
        &self.flat(index).result
    }

    /// All workloads' results under one policy (single-variant sweeps),
    /// in workload-axis order — the shape `mean_bips`-style reducers
    /// take.
    pub fn policy_runs(&self, policy: PolicySpec) -> Vec<RunResult> {
        self.policy_runs_in("base", policy)
    }

    /// All workloads' results under one policy within a named variant.
    pub fn policy_runs_in(&self, variant: &str, policy: PolicySpec) -> Vec<RunResult> {
        let vi = self.variant_index(variant);
        let pi = self.policy_index(policy);
        (0..self.spec.workloads.len())
            .map(|wi| {
                self.flat(CellIndex {
                    variant: vi,
                    policy: pi,
                    workload: wi,
                })
                .result
                .clone()
            })
            .collect()
    }

    /// Cache/parallelism summary for experiment footers: the classic
    /// one-liner, plus a cache-traffic line when a cache was attached.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} cells: {} simulated on {} worker(s), {} cache hit(s)",
            self.outcomes.len(),
            self.executed(),
            self.workers_used().max(usize::from(self.executed() > 0)),
            self.cache_hits()
        );
        if let Some(stats) = self.cache_stats {
            s.push('\n');
            s.push_str(&stats.summary_line());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_spec_matches_paper_axes() {
        let spec = SweepSpec::standard(0.5).policies(PolicySpec::all());
        assert_eq!(spec.workload_axis().len(), 12);
        assert_eq!(spec.policy_axis().len(), 12);
        assert_eq!(spec.variant_axis().len(), 1);
        assert_eq!(spec.cells().len(), 144);
    }

    #[test]
    fn duplicate_policies_collapse() {
        let spec = SweepSpec::standard(0.5)
            .policies([PolicySpec::baseline()])
            .policies([PolicySpec::baseline(), PolicySpec::best()]);
        assert_eq!(spec.policy_axis().len(), 2);
    }

    #[test]
    fn cells_enumerate_variant_major() {
        let spec = SweepSpec::standard(0.1)
            .policies([PolicySpec::baseline(), PolicySpec::best()])
            .add_variant(ConfigVariant::new(
                "hot",
                SimConfig::default(),
                DtmConfig::with_threshold(100.0),
            ));
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 2 * 12);
        assert_eq!(cells[0].variant, 0);
        assert_eq!(cells[0].policy, 0);
        assert_eq!(cells[0].workload, 0);
        assert_eq!(cells[12].policy, 1);
        assert_eq!(cells[24].variant, 1);
    }
}

//! Shared experiment-driver utilities for the table/figure reproductions.

use dtm_core::{RunResult, SimConfig};
use dtm_harness::{Ledger, ResultCache, SweepArgs, SweepRunner};
use dtm_workloads::{TraceGenConfig, TraceLibrary, Workload};

/// Formats a workload the way the paper's figures label them:
/// `gzip-twolf-ammp-lucas (IIFF)`.
pub fn figure_label(w: &Workload) -> String {
    format!("{} ({})", w.display_name(), w.mix_label())
}

/// Mean BIPS over a set of runs.
pub fn mean_bips(results: &[RunResult]) -> f64 {
    dtm_core::mean(&results.iter().map(|r| r.bips()).collect::<Vec<_>>())
}

/// Mean duty cycle over a set of runs.
pub fn mean_duty(results: &[RunResult]) -> f64 {
    dtm_core::mean(&results.iter().map(|r| r.duty_cycle).collect::<Vec<_>>())
}

/// The runner of the CI smoke grids (`--smoke`): test-length traces,
/// the default result cache and ledger, no progress output, and the
/// shared flags applied by [`dtm_dist::apply_args`]. `--dist` expects
/// a fleet started with `--fast-traces`.
pub fn smoke_runner(args: &SweepArgs) -> SweepRunner {
    let runner = SweepRunner::bare(TraceLibrary::new(TraceGenConfig::fast_test()))
        .with_cache(Some(ResultCache::default_location()))
        .with_ledger(Some(Ledger::default_location()));
    dtm_dist::apply_args(runner, args, SimConfig::fast_test()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_workloads::standard_workloads;

    #[test]
    fn figure_label_format() {
        let w = &standard_workloads()[6];
        assert_eq!(figure_label(w), "gzip-twolf-ammp-lucas (IIFF)");
    }
}

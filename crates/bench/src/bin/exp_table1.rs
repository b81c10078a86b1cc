//! Table 1 reproduction: per-benchmark steady-state temperatures (or
//! oscillation ranges) on an unconstrained single core.
//!
//! The paper measured a Pentium M notebook via ACPI; we run each
//! benchmark alone on one core of the simulated chip with no thermal
//! limit and report the hottest sensor over the second half of a run.
//! Absolute values differ from the paper's notebook (different chip,
//! package, and ambient); the *ordering* and the steady-vs-oscillating
//! classification are the reproduction targets.
//!
//! The 22 single-benchmark runs go through the shared sweep harness as
//! a 22-workload × 1-policy grid, so they are cached, ledgered, and
//! parallelized like every other table.

use dtm_core::{unconstrained_single_core, PolicySpec};
use dtm_dist::run_with_args;
use dtm_harness::{ConfigVariant, SweepArgs, SweepSpec, Table};
use dtm_workloads::{all_benchmarks, Workload};

fn main() {
    let args = SweepArgs::from_env();
    let (sim, dtm) = unconstrained_single_core(args.duration);
    let workloads: Vec<Workload> = all_benchmarks()
        .iter()
        .map(|b| Workload::solo(&b.name))
        .collect();
    let spec = SweepSpec::new(workloads)
        .policies([PolicySpec::baseline()])
        .variant(ConfigVariant::new("unconstrained-1core", sim, dtm));
    let results = run_with_args(spec, &args).expect("sweep");

    let mut rows = Vec::new();
    for (wi, b) in all_benchmarks().into_iter().enumerate() {
        let r = results.get_in("unconstrained-1core", PolicySpec::baseline(), wi);
        let s = r
            .steady
            .expect("a positive-duration run yields steady samples");
        rows.push((b, s));
    }
    rows.sort_by(|a, b| b.1.mean.total_cmp(&a.1.mean));

    let mut table = Table::new(["benchmark", "suite", "temp (°C)", "class"]);
    for (b, s) in &rows {
        let class = if s.is_steady(1.5) {
            "steady"
        } else {
            "oscillating"
        };
        let temp = if s.is_steady(1.5) {
            format!("{:.0}", s.mean)
        } else {
            format!("{:.0}-{:.0}", s.min, s.max)
        };
        table.row([
            b.name.to_string(),
            format!("{:?}", b.suite),
            temp,
            class.to_string(),
        ]);
    }
    table.print(args.json);
    if !args.json {
        eprintln!("{}", results.summary());
    }
}

//! Extension: energy view of the taxonomy. The paper evaluates
//! throughput under a temperature cap; this companion experiment reports
//! the energy side — average chip power, total energy, and energy per
//! instruction — showing that DVFS policies also win on efficiency
//! (cubic power scaling buys quadratic energy-per-work savings).
//!
//! The 5-policy × 12-workload grid runs through the shared sweep
//! harness, so cells are cached, ledgered, and shared with the other
//! tables (this grid is a subset of Table 8's).

use dtm_bench::mean_bips;
use dtm_core::{mean, MigrationKind, PolicySpec, Scope, ThrottleKind};
use dtm_dist::run_with_args;
use dtm_harness::{SweepArgs, SweepSpec, Table};

fn main() {
    let args = SweepArgs::from_env();
    let policies = [
        PolicySpec::new(ThrottleKind::StopGo, Scope::Global, MigrationKind::None),
        PolicySpec::baseline(),
        PolicySpec::new(ThrottleKind::Dvfs, Scope::Global, MigrationKind::None),
        PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
        PolicySpec::best(),
    ];
    let spec = SweepSpec::standard(args.duration).policies(policies);
    let results = run_with_args(spec, &args).expect("sweep");

    let mut table = Table::new(["policy", "BIPS", "avg power", "energy", "EPI"]);
    for p in policies {
        let runs = results.policy_runs(p);
        let avg_power = mean(&runs.iter().map(|r| r.avg_power()).collect::<Vec<_>>());
        let energy = mean(&runs.iter().map(|r| r.energy).collect::<Vec<_>>());
        let epi = mean(
            &runs
                .iter()
                .map(|r| r.energy_per_instruction_nj())
                .collect::<Vec<_>>(),
        );
        table.row([
            p.name(),
            format!("{:.2}", mean_bips(&runs)),
            format!("{avg_power:.1} W"),
            format!("{energy:.2} J"),
            format!("{epi:.2} nJ"),
        ]);
    }
    table.print(args.json);

    if !args.json {
        println!("\n(stop-go wastes leakage while stalled at high temperature; DVFS runs");
        println!(" continuously at scaled voltage, doing more work per joule)");
        eprintln!("{}", results.summary());
    }
}

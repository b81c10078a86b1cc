//! Table 6: counter-based migration layered on the four throttle
//! policies — average BIPS, duty cycle, throughput relative to the
//! distributed stop-go baseline, and speedup over the same policy
//! without migration.

use dtm_bench::{mean_bips, mean_duty};
use dtm_core::{MigrationKind, PolicySpec, Scope, ThrottleKind};
use dtm_dist::run_with_args;
use dtm_harness::{report, SweepArgs, SweepSpec, Table};

fn main() {
    let args = SweepArgs::from_env();
    let combos = [
        (ThrottleKind::StopGo, Scope::Global),
        (ThrottleKind::StopGo, Scope::Distributed),
        (ThrottleKind::Dvfs, Scope::Global),
        (ThrottleKind::Dvfs, Scope::Distributed),
    ];
    let spec = SweepSpec::standard(args.duration).policies(combos.iter().flat_map(|&(t, s)| {
        [
            PolicySpec::new(t, s, MigrationKind::None),
            PolicySpec::new(t, s, MigrationKind::CounterBased),
        ]
    }));
    let results = run_with_args(spec, &args).expect("sweep");
    let base_bips = mean_bips(&results.policy_runs(PolicySpec::baseline()));

    let mut table = Table::new(["policy", "BIPS", "duty", "relative", "vs non-migr."])
        .with_title("Table 6: counter-based migration");
    for (throttle, scope) in combos {
        let plain = results.policy_runs(PolicySpec::new(throttle, scope, MigrationKind::None));
        let policy = PolicySpec::new(throttle, scope, MigrationKind::CounterBased);
        let runs = results.policy_runs(policy);
        table.row([
            policy.name(),
            report::num2(mean_bips(&runs)),
            report::pct(mean_duty(&runs)),
            report::times(mean_bips(&runs) / base_bips),
            report::times(mean_bips(&runs) / mean_bips(&plain)),
        ]);
    }
    table.print(args.json);

    if !args.json {
        println!("\npaper reference (BIPS, duty, rel, speedup):");
        println!("  Stop-go + counter       5.34 37.93% 1.18x 1.91x");
        println!("  Dist. stop-go + counter 9.15 65.12% 2.02x 2.02x");
        println!("  Global DVFS + counter   9.88 70.05% 2.18x 1.06x");
        println!("  Dist. DVFS + counter   11.62 82.42% 2.57x 1.02x");
        eprintln!("{}", results.summary());
    }
}

//! Table 7: sensor-based migration on the four throttle policies,
//! including the speedups over no migration and over counter-based
//! migration.

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
    // Needs every migration flavor of every combo: the full Table 2 set.
    let spec = SweepSpec::standard(args.duration).policies(PolicySpec::all());
    let results = run_with_args(spec, &args).expect("sweep");
    let base_bips = mean_bips(&results.policy_runs(PolicySpec::baseline()));

    let mut table = Table::new([
        "policy",
        "BIPS",
        "duty",
        "relative",
        "vs non-migr.",
        "vs counter",
    ])
    .with_title("Table 7: sensor-based migration");
    for (throttle, scope) in combos {
        let plain = results.policy_runs(PolicySpec::new(throttle, scope, MigrationKind::None));
        let counter = results.policy_runs(PolicySpec::new(
            throttle,
            scope,
            MigrationKind::CounterBased,
        ));
        let policy = PolicySpec::new(throttle, scope, MigrationKind::SensorBased);
        let runs = results.policy_runs(policy);
        table.row([
            policy.name(),
            report::num2(mean_bips(&runs)),
            report::pct(mean_duty(&runs)),
            report::times(mean_bips(&runs) / base_bips),
            report::times(mean_bips(&runs) / mean_bips(&plain)),
            report::times(mean_bips(&runs) / mean_bips(&counter)),
        ]);
    }
    table.print(args.json);

    if !args.json {
        println!("\npaper reference (BIPS, duty, rel, vs none, vs counter):");
        println!("  Stop-go + sensor       5.43 38.64% 1.20x 1.95x 1.02x");
        println!("  Dist. stop-go + sensor 9.27 66.61% 2.05x 2.05x 1.01x");
        println!("  Global DVFS + sensor   9.63 68.37% 2.13x 1.03x 0.97x");
        println!("  Dist. DVFS + sensor   11.70 82.64% 2.59x 1.03x 1.01x");
        eprintln!("{}", results.summary());
    }
}

//! Figure 3 + Table 5: the four non-migration policies.
//!
//! Figure 3 plots each workload's instruction throughput under global
//! stop-go, global ("synchronous") DVFS, and distributed DVFS, normalized
//! to the distributed stop-go baseline. Table 5 reports the policy means
//! (BIPS, effective duty cycle, relative throughput).

use dtm_bench::{figure_label, mean_bips, mean_duty};
use dtm_core::{MigrationKind, PolicySpec, Scope, ThrottleKind};
use dtm_dist::run_with_args;
use dtm_harness::{report, SweepArgs, SweepSpec, Table};

fn main() {
    let args = SweepArgs::from_env();
    let policies = [
        PolicySpec::new(ThrottleKind::StopGo, Scope::Global, MigrationKind::None),
        PolicySpec::new(
            ThrottleKind::StopGo,
            Scope::Distributed,
            MigrationKind::None,
        ),
        PolicySpec::new(ThrottleKind::Dvfs, Scope::Global, MigrationKind::None),
        PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
    ];
    let spec = SweepSpec::standard(args.duration).policies(policies);
    let results = run_with_args(spec, &args).expect("sweep");
    let baseline = results.policy_runs(policies[1]); // distributed stop-go

    let mut fig3 = Table::new(["workload", "glob SG", "glob DVFS", "dist DVFS"])
        .with_title("Figure 3: per-workload throughput relative to dist. stop-go");
    for (i, w) in results.spec().workload_axis().iter().enumerate() {
        let base = baseline[i].bips();
        fig3.row([
            figure_label(w),
            report::num2(results.get(policies[0], i).bips() / base),
            report::num2(results.get(policies[2], i).bips() / base),
            report::num2(results.get(policies[3], i).bips() / base),
        ]);
    }
    fig3.print(args.json);

    let mut table5 = Table::new(["policy", "BIPS", "duty cycle", "relative", "emergencies"])
        .with_title("Table 5: policy averages");
    let base_bips = mean_bips(&baseline);
    for p in policies {
        let runs = results.policy_runs(p);
        let emer: f64 = runs.iter().map(|r| r.emergency_time).sum();
        table5.row([
            p.name(),
            report::num2(mean_bips(&runs)),
            report::pct(mean_duty(&runs)),
            report::times(mean_bips(&runs) / base_bips),
            format!("{:.2}ms", 1e3 * emer),
        ]);
    }
    if !args.json {
        println!();
    }
    table5.print(args.json);

    if !args.json {
        println!(
            "\npaper reference: stop-go 2.79 BIPS 19.77% 0.62x | dist stop-go 4.53 32.57% 1.00x"
        );
        println!("                 global DVFS 9.36 66.49% 2.07x | dist DVFS 11.36 81.02% 2.51x");
        eprintln!("{}", results.summary());
    }
}

//! §5.3 sensitivity claim: raising the temperature threshold to 100 °C
//! increases duty cycles by roughly 10–15 percentage points while the
//! relative performance tradeoffs remain as presented.

use dtm_bench::{mean_bips, mean_duty};
use dtm_core::{DtmConfig, MigrationKind, PolicySpec, Scope, ThrottleKind};
use dtm_dist::run_with_args;
use dtm_harness::{report, ConfigVariant, SweepArgs, SweepSpec, Table};
use dtm_workloads::standard_workloads;

fn main() {
    let args = SweepArgs::from_env();
    let policies = [
        PolicySpec::new(ThrottleKind::StopGo, Scope::Global, MigrationKind::None),
        PolicySpec::baseline(),
        PolicySpec::new(ThrottleKind::Dvfs, Scope::Global, MigrationKind::None),
        PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
    ];
    let sim = args.sim_config();
    // Two points on the configuration axis: the study threshold and the
    // §5.3 sensitivity threshold.
    let variants = [("threshold=84.2", 84.2), ("threshold=100", 100.0)];
    let spec = SweepSpec::new(standard_workloads())
        .policies(policies)
        .variants(variants.map(|(name, threshold)| {
            ConfigVariant::new(name, sim.clone(), DtmConfig::with_threshold(threshold))
        }));
    let results = run_with_args(spec, &args).expect("sweep");

    let mut table = Table::new(["policy", "duty @84.2C", "duty @100C", "Δ (pp)"])
        .with_title("§5.3: duty-cycle sensitivity to the threshold");
    for p in policies {
        let d0 = 100.0 * mean_duty(&results.policy_runs_in(variants[0].0, p));
        let d1 = 100.0 * mean_duty(&results.policy_runs_in(variants[1].0, p));
        table.row([
            p.name(),
            format!("{d0:.1}%"),
            format!("{d1:.1}%"),
            format!("{:+.1}", d1 - d0),
        ]);
    }
    table.print(args.json);

    if !args.json {
        println!("\nrelative throughput ordering at each threshold (vs dist. stop-go):");
        for (name, threshold) in variants {
            let base = mean_bips(&results.policy_runs_in(name, PolicySpec::baseline()));
            let rels: Vec<String> = policies
                .iter()
                .map(|&p| {
                    format!(
                        "{} {}",
                        p.name(),
                        report::times(mean_bips(&results.policy_runs_in(name, p)) / base)
                    )
                })
                .collect();
            println!("  @{threshold} C: {}", rels.join(" | "));
        }
        println!("\npaper: +10 to +15 percentage points of duty at 100 C; ordering unchanged.");
        eprintln!("{}", results.summary());
    }
}

//! Ablation: the sub-block fast thermal mode.
//!
//! The block-level RC model carries a first-order "local constriction"
//! mode approximating the within-block gradient a grid model resolves
//! (see `exp_grid_validation`). This ablation removes it
//! (`local_constriction = 0`) and shows its effect on the policy
//! tradeoffs: without sub-block dynamics, stop-go looks artificially
//! good because the sensed hotspot loses its fast power-following
//! component and trips later.
//!
//! The two packages are `SimConfig` variants of one sweep grid.

use dtm_bench::{mean_bips, mean_duty};
use dtm_core::{DtmConfig, MigrationKind, PolicySpec, Scope, SimConfig, ThrottleKind};
use dtm_dist::run_with_args;
use dtm_harness::{ConfigVariant, SweepArgs, SweepSpec};
use dtm_thermal::PackageConfig;
use dtm_workloads::standard_workloads;

fn main() {
    let args = SweepArgs::from_env();
    let policies = [
        PolicySpec::baseline(),
        PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
    ];
    let packages = [
        (
            "with sub-block fast mode (default)",
            PackageConfig::default().local_constriction,
        ),
        ("ablated (local_constriction = 0)", 0.0),
    ];
    let spec = SweepSpec::new(standard_workloads())
        .policies(policies)
        .variants(packages.map(|(label, constriction)| {
            let sim = SimConfig {
                package: PackageConfig {
                    local_constriction: constriction,
                    ..PackageConfig::default()
                },
                ..args.sim_config()
            };
            ConfigVariant::new(label, sim, DtmConfig::default())
        }));
    let results = run_with_args(spec, &args).expect("sweep");

    for (label, _) in packages {
        println!("== {label} ==");
        let mut bips = Vec::new();
        for p in policies {
            let runs = results.policy_runs_in(label, p);
            bips.push(mean_bips(&runs));
            println!(
                "  {:<16} {:>6.2} BIPS  duty {:>5.1}%",
                p.name(),
                mean_bips(&runs),
                100.0 * mean_duty(&runs)
            );
        }
        println!("  DVFS/stop-go ratio: {:.2}x\n", bips[1] / bips[0]);
    }
    println!("(the fast mode is load-bearing for the stop-go duty calibration: it");
    println!(" restores the prompt post-resume reheat that a lumped block smooths away)");
    eprintln!("{}", results.summary());
}

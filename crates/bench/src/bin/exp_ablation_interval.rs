//! Ablation: sensitivity of the migration benefit to the OS decision
//! interval. The paper fixes migrations to at most one per 10 ms
//! (the Linux timer-interrupt scale); this sweep shows the tradeoff the
//! choice sits on: too fast thrashes (penalties, cold structures), too
//! slow misses balancing opportunities.
//!
//! Each interval is a `DtmConfig` variant of one sweep grid.

use dtm_bench::{mean_bips, mean_duty};
use dtm_core::{DtmConfig, MigrationKind, PolicySpec, Scope, ThrottleKind};
use dtm_dist::run_with_args;
use dtm_harness::{ConfigVariant, SweepArgs, SweepSpec};
use dtm_workloads::standard_workloads;

const INTERVALS_MS: [f64; 5] = [2.0, 5.0, 10.0, 20.0, 50.0];

fn main() {
    let args = SweepArgs::from_env();
    let policy = PolicySpec::new(
        ThrottleKind::StopGo,
        Scope::Distributed,
        MigrationKind::CounterBased,
    );
    let sim = args.sim_config();
    let spec = SweepSpec::new(standard_workloads())
        .policies([policy])
        .variants(INTERVALS_MS.map(|ms| {
            let dtm = DtmConfig {
                migration_interval: ms * 1e-3,
                ..DtmConfig::default()
            };
            ConfigVariant::new(format!("interval={ms}ms"), sim.clone(), dtm)
        }));
    let results = run_with_args(spec, &args).expect("sweep");

    println!(
        "{:>14} {:>8} {:>9} {:>12}",
        "interval (ms)", "BIPS", "duty", "migrations"
    );
    for ms in INTERVALS_MS {
        let runs = results.policy_runs_in(&format!("interval={ms}ms"), policy);
        let migs: u64 = runs.iter().map(|r| r.migrations).sum();
        println!(
            "{:>14} {:>8.2} {:>8.1}% {:>12}",
            ms,
            mean_bips(&runs),
            100.0 * mean_duty(&runs),
            migs
        );
    }
    println!("\n(the paper's 10 ms choice should sit near the top of this curve)");
    eprintln!("{}", results.summary());
}

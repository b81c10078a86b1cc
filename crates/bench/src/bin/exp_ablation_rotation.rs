//! Ablation: what does the paper's *informed* migration matching
//! (Figure 4: imbalance-sorted cores × least-intense threads) add over a
//! blind round-robin rotation ("heat-and-run"-style activity migration,
//! the related work the paper builds on)?
//!
//! The three informed rows are policies of one sweep grid. Blind
//! rotation installs a `MigrationPolicy` that no `PolicySpec` names, so
//! a sweep cell cannot express it; its row is stepped directly.

use dtm_bench::{mean_bips, mean_duty};
use dtm_core::{
    Experiment, MigrationKind, PolicySpec, RotationMigration, RunResult, Scope, ThrottleKind,
};
use dtm_dist::run_with_args;
use dtm_harness::{SweepArgs, SweepSpec};
use dtm_workloads::standard_workloads;

fn main() {
    let args = SweepArgs::from_env();
    let stop_go = |m| PolicySpec::new(ThrottleKind::StopGo, Scope::Distributed, m);
    let informed = [
        ("no migration", MigrationKind::None),
        ("counter-based (Fig. 4)", MigrationKind::CounterBased),
        ("sensor-based (Fig. 6)", MigrationKind::SensorBased),
    ];
    let spec = SweepSpec::standard(args.duration).policies(informed.map(|(_, m)| stop_go(m)));
    let results = run_with_args(spec, &args).expect("sweep");
    let mut rows: Vec<(&str, Vec<RunResult>)> = informed
        .iter()
        .map(|&(name, m)| (name, results.policy_runs(stop_go(m))))
        .collect();

    // Blind rotation: same stop-go substrate, custom migration policy.
    let exp = Experiment::paper_defaults().with_sim(args.sim_config());
    let rotation_runs = standard_workloads()
        .iter()
        .map(|w| {
            let mut sim = exp.build(w, stop_go(MigrationKind::CounterBased))?;
            sim.set_migration_policy(Box::new(RotationMigration::new()));
            sim.run()
        })
        .collect::<Result<Vec<_>, _>>()
        .expect("run");
    rows.insert(1, ("blind rotation", rotation_runs));

    let base = mean_bips(&rows[0].1);
    println!(
        "{:<26} {:>7} {:>9} {:>10} {:>12}",
        "dist. stop-go +", "BIPS", "duty", "vs none", "migrations"
    );
    for (name, runs) in &rows {
        let migs: u64 = runs.iter().map(|r| r.migrations).sum();
        println!(
            "{:<26} {:>7.2} {:>8.1}% {:>9.2}x {:>12}",
            name,
            mean_bips(runs),
            100.0 * mean_duty(runs),
            mean_bips(runs) / base,
            migs
        );
    }
    println!("\n(informed matching should beat blind rotation: rotation pays the same");
    println!(" penalties but sometimes parks a hot thread on an already-hot core)");
    eprintln!("{}", results.summary());
}

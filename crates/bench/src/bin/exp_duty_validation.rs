//! §5.3 duty-cycle metric validation: "We ran simulations with
//! unrestricted maximum temperatures, and found that the proportion of
//! the achieved BIPS relative to the non-controlled case was accurately
//! predicted by the measured duty cycle."
//!
//! The constrained and unconstrained runs are the default and
//! `DtmConfig::unconstrained()` variants of one sweep grid.

use dtm_bench::figure_label;
use dtm_core::{DtmConfig, MigrationKind, PolicySpec, Scope, ThrottleKind};
use dtm_dist::run_with_args;
use dtm_harness::{ConfigVariant, SweepArgs, SweepSpec};
use dtm_workloads::standard_workloads;

fn main() {
    let args = SweepArgs::from_env();
    let policy = PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None);
    let sim = args.sim_config();
    let spec = SweepSpec::new(standard_workloads())
        .policies([policy])
        .variants([
            ConfigVariant::new("constrained", sim.clone(), DtmConfig::default()),
            ConfigVariant::new("unconstrained", sim, DtmConfig::unconstrained()),
        ]);
    let results = run_with_args(spec, &args).expect("sweep");

    println!(
        "{:<44} {:>8} {:>9} {:>11} {:>9}",
        "workload (dist. DVFS)", "duty", "BIPS", "BIPS/uncon", "error"
    );
    let mut errors = Vec::new();
    for (wi, w) in results.spec().workload_axis().iter().enumerate() {
        let r = results.get_in("constrained", policy, wi);
        let free = results.get_in("unconstrained", policy, wi);
        let ratio = r.bips() / free.bips();
        let err = ratio - r.duty_cycle;
        errors.push(err.abs());
        println!(
            "{:<44} {:>7.1}% {:>9.2} {:>10.1}% {:>+8.1}pp",
            figure_label(w),
            100.0 * r.duty_cycle,
            r.bips(),
            100.0 * ratio,
            100.0 * err
        );
    }
    println!(
        "\nmean |error| between duty cycle and throughput ratio: {:.1} pp",
        100.0 * dtm_core::mean(&errors)
    );
    println!("(small errors validate the adjusted duty cycle as a work-done metric)");
    eprintln!("{}", results.summary());
}

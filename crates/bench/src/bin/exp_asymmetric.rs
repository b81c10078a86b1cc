//! Extension experiment (§9's named future axis): asymmetric cores.
//!
//! An asymmetric CMP pairs full-speed cores with frequency-capped
//! "efficiency" cores. Under thermal duress the capped cores run cooler,
//! effectively donating thermal headroom through the shared package;
//! migration can then steer hot threads toward whichever core currently
//! has headroom. This experiment compares a homogeneous 4×1.0 chip with
//! an asymmetric 2×1.0 + 2×0.7 chip under the two-loop policy; the two
//! chips are `core_max_scale` variants of one sweep grid.

use dtm_core::{DtmConfig, PolicySpec, SimConfig};
use dtm_dist::run_with_args;
use dtm_harness::{ConfigVariant, SweepArgs, SweepSpec};
use dtm_workloads::standard_workloads;

fn main() {
    let args = SweepArgs::from_env();
    let chips = [
        ("homogeneous 4x1.0", vec![]),
        ("asymmetric 2x1.0+2x0.7", vec![1.0, 1.0, 0.7, 0.7]),
    ];
    let policy = PolicySpec::best();
    let spec = SweepSpec::new(standard_workloads().into_iter().take(6).collect())
        .policies([policy])
        .variants(chips.iter().map(|(label, ceilings)| {
            let sim = SimConfig {
                core_max_scale: ceilings.clone(),
                ..args.sim_config()
            };
            ConfigVariant::new(*label, sim, DtmConfig::default())
        }));
    let results = run_with_args(spec, &args).expect("sweep");

    println!(
        "{:<14} {:<26} {:>7} {:>9} {:>9} {:>11}",
        "workload", "chip", "BIPS", "duty", "max temp", "migrations"
    );
    for (wi, w) in results.spec().workload_axis().iter().enumerate() {
        for (label, _) in &chips {
            let r = results.get_in(label, policy, wi);
            println!(
                "{:<14} {:<26} {:>7.2} {:>8.1}% {:>8.1}C {:>11}",
                w.id,
                label,
                r.bips(),
                100.0 * r.duty_cycle,
                r.max_temp,
                r.migrations
            );
        }
    }
    println!("\n(the asymmetric chip trades peak throughput for thermal headroom;");
    println!(" under duress the gap narrows as the hot cores were throttled anyway)");
    eprintln!("{}", results.summary());
}

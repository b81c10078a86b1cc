//! Extension experiment (§2.4's argument): "The more cores on the chip,
//! the more potential performance is lost due to the single hotspot" —
//! the global-vs-distributed gap should widen with core count.
//!
//! A sweep grid crosses every workload with every variant, and a
//! workload runs one thread per core, so each core count is its own
//! one-workload grid.

use dtm_core::{DtmConfig, MigrationKind, PolicySpec, Scope, SimConfig, ThrottleKind};
use dtm_dist::run_with_args;
use dtm_harness::{ConfigVariant, SweepArgs, SweepSpec};
use dtm_workloads::Workload;

fn main() {
    let args = SweepArgs::from_env();
    // One hot integer thread plus cooler companions, one per core: the
    // paper's single-hotspot asymmetry scenario.
    let names = [
        "gzip", "ammp", "swim", "equake", "art", "mgrid", "applu", "lucas",
    ];
    let [global, dist] = [Scope::Global, Scope::Distributed]
        .map(|s| PolicySpec::new(ThrottleKind::Dvfs, s, MigrationKind::None));

    println!(
        "{:>6} {:>14} {:>14} {:>18}",
        "cores", "global DVFS", "dist DVFS", "dist/global gain"
    );
    for cores in [2usize, 4, 8] {
        let sim = SimConfig {
            cores,
            ..args.sim_config()
        };
        let spec = SweepSpec::new(vec![Workload::from_names(
            format!("{cores}-core"),
            &names[..cores],
        )])
        .policies([global, dist])
        .variant(ConfigVariant::new("base", sim, DtmConfig::default()));
        let results = run_with_args(spec, &args).expect("sweep");
        let (g, d) = (results.get(global, 0).bips(), results.get(dist, 0).bips());
        println!(
            "{:>6} {:>9.2} BIPS {:>9.2} BIPS {:>17.2}x",
            cores,
            g,
            d,
            d / g
        );
        eprintln!("{}", results.summary());
    }
    println!("\n(the distributed advantage should grow with the core count)");
}

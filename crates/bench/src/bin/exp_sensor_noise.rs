//! Extension experiment: robustness of the two-loop design to sensor
//! non-idealities. The paper assumes small sensor delay/error (§4.1);
//! here we sweep Gaussian noise and quantization on the thermal sensors
//! and check that the PI-DVFS policy stays effective and emergency-safe.

use dtm_bench::{mean_bips, mean_duty};
use dtm_core::{DtmConfig, PolicySpec, SimConfig};
use dtm_dist::run_with_args;
use dtm_harness::{ConfigVariant, SweepArgs, SweepSpec, Table};
use dtm_thermal::SensorSpec;
use dtm_workloads::standard_workloads;

fn main() {
    let args = SweepArgs::from_env();
    let cases = [
        ("ideal", SensorSpec::ideal()),
        (
            "0.5C noise + 0.25C quant",
            SensorSpec {
                noise_std: 0.5,
                quantization: 0.25,
                offset: 0.0,
            },
        ),
        (
            "1C quantization (ACPI-like)",
            SensorSpec {
                noise_std: 0.0,
                quantization: 1.0,
                offset: 0.0,
            },
        ),
        (
            "2C noise",
            SensorSpec {
                noise_std: 2.0,
                quantization: 0.0,
                offset: 0.0,
            },
        ),
    ];

    // One configuration variant per sensor model, swept over the full
    // Table 4 workload set under the paper's best policy.
    let spec = SweepSpec::new(standard_workloads())
        .policies([PolicySpec::best()])
        .variants(cases.iter().map(|&(name, sensor)| {
            let sim = SimConfig {
                sensor,
                ..args.sim_config()
            };
            ConfigVariant::new(name, sim, DtmConfig::default())
        }));
    let results = run_with_args(spec, &args).expect("sweep");

    let mut table = Table::new([
        "sensor model (dist. DVFS)",
        "BIPS",
        "duty",
        "max temp",
        "emerg. time",
    ])
    .with_title("§4.1 sensitivity: sensor noise and quantization");
    for (name, _) in cases {
        let runs = results.policy_runs_in(name, PolicySpec::best());
        let max_t = runs
            .iter()
            .map(|r| r.max_temp)
            .fold(f64::NEG_INFINITY, f64::max);
        let emer: f64 = runs.iter().map(|r| r.emergency_time).sum();
        table.row([
            name.to_string(),
            format!("{:.2}", mean_bips(&runs)),
            format!("{:.1}%", 100.0 * mean_duty(&runs)),
            format!("{max_t:.2} C"),
            format!("{:.2} ms", 1e3 * emer),
        ]);
    }
    table.print(args.json);

    if !args.json {
        println!("\n(noise costs a little throughput — the controller must leave margin —");
        println!(" but the closed loop stays stable and near the setpoint)");
        eprintln!("{}", results.summary());
    }
}

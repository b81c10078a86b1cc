//! Figure 7: per-workload gains/losses of either migration policy in
//! conjunction with distributed DVFS (the best-performing practical
//! policy of the original four).

use dtm_bench::figure_label;
use dtm_core::{MigrationKind, PolicySpec, Scope, ThrottleKind};
use dtm_dist::run_with_args;
use dtm_harness::{report, SweepArgs, SweepSpec, Table};

fn main() {
    let args = SweepArgs::from_env();
    let dvfs = |m| PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, m);
    let spec = SweepSpec::standard(args.duration).policies([
        dvfs(MigrationKind::None),
        dvfs(MigrationKind::CounterBased),
        dvfs(MigrationKind::SensorBased),
    ]);
    let results = run_with_args(spec, &args).expect("sweep");
    let plain = results.policy_runs(dvfs(MigrationKind::None));
    let counter = results.policy_runs(dvfs(MigrationKind::CounterBased));
    let sensor = results.policy_runs(dvfs(MigrationKind::SensorBased));

    let mut table = Table::new(["workload", "counter Δ%", "sensor Δ%"])
        .with_title("Figure 7: migration deltas on dist. DVFS");
    let mut counter_deltas = Vec::new();
    let mut sensor_deltas = Vec::new();
    for (i, w) in results.spec().workload_axis().iter().enumerate() {
        let base = plain[i].bips();
        let dc = 100.0 * (counter[i].bips() / base - 1.0);
        let ds = 100.0 * (sensor[i].bips() / base - 1.0);
        counter_deltas.push(dc);
        sensor_deltas.push(ds);
        table.row([
            figure_label(w),
            report::signed_pct(dc),
            report::signed_pct(ds),
        ]);
    }
    table.print(args.json);

    if !args.json {
        println!(
            "\nmean: counter {:+.2}%, sensor {:+.2}%",
            dtm_core::mean(&counter_deltas),
            dtm_core::mean(&sensor_deltas)
        );
        println!("paper: deltas range from about -2% to +7% per workload; both policies");
        println!("help on average (sensor slightly more) but not on every workload.");
        eprintln!("{}", results.summary());
    }
}

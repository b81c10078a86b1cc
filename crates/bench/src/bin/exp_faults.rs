//! Extension experiment: policy robustness under sensor and actuator
//! faults. The paper (like most DTM studies) assumes the thermal
//! sensors and throttling actuators always work; here we inject
//! deterministic fault scenarios — stuck-at readings, drift, dropouts,
//! transient spikes, stale telemetry, stuck DVFS, ignored stop-go gates
//! — and measure how the twelve policies degrade, with and without the
//! watchdog safety net (`dtm-faults`).
//!
//! ```text
//! exp_faults [DURATION] [--workers N] [--json] [--no-cache] [--smoke]
//! ```
//!
//! `--smoke` runs a tiny fixed grid (2 workloads × 3 policies ×
//! 2 scenarios at test-length traces) for CI: it appends exactly
//! 12 ledger rows per invocation.

use dtm_bench::{mean_bips, mean_duty, smoke_runner};
use dtm_core::{
    DtmConfig, FaultConfig, FaultEvent, FaultKind, FaultScenario, FaultTarget, MigrationKind,
    PolicySpec, RunResult, Scope, SimConfig, ThrottleKind, WatchdogConfig,
};
use dtm_dist::run_with_args;
use dtm_harness::{ConfigVariant, SweepArgs, SweepSpec, Table};
use dtm_workloads::standard_workloads;

/// The scenario axis: what breaks at `0.2 × duration` (drift/spike
/// windows scale with the run length too, so any duration exercises
/// both the pre-fault and post-fault regimes).
fn fault_axis(duration: f64) -> Vec<(&'static str, FaultConfig)> {
    let start = 0.2 * duration;
    let stuck_hot = FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, start);
    let stuck_cold = FaultScenario::stuck_sensor("stuck-cold", 0, 0, 35.0, start);
    let dropout = FaultScenario::dropout_sensor("dropout", 0, 0, start);
    let drift = FaultScenario::new(
        "drift",
        vec![FaultEvent::permanent(
            start,
            FaultTarget::Sensor { core: 0, index: 0 },
            // Reaches the watchdog's 40 C cross-sensor bound halfway
            // between the fault start and the end of the run.
            FaultKind::SensorDrift {
                rate: 100.0 / duration,
            },
        )],
    );
    let spike = FaultScenario::new(
        "spike",
        vec![FaultEvent {
            start: 0.4 * duration,
            end: 0.42 * duration,
            target: FaultTarget::Sensor { core: 0, index: 0 },
            kind: FaultKind::SensorSpike { amplitude: 30.0 },
        }],
    );
    let stale = FaultScenario::new(
        "stale",
        vec![FaultEvent::permanent(
            start,
            FaultTarget::Core { core: 0 },
            FaultKind::SensorStale {
                delay: 0.05 * duration,
            },
        )],
    );
    let dvfs_stuck = FaultScenario::new(
        "dvfs-stuck",
        vec![FaultEvent::permanent(
            start,
            FaultTarget::Core { core: 0 },
            FaultKind::DvfsStuck,
        )],
    );
    let gate_ignored = FaultScenario::new(
        "gate-ignored",
        vec![FaultEvent::permanent(
            start,
            FaultTarget::Core { core: 0 },
            FaultKind::GateIgnored,
        )],
    );
    vec![
        (
            "watchdog-clean",
            FaultConfig::protected(FaultScenario::ideal(), WatchdogConfig::enabled()),
        ),
        ("stuck-hot", FaultConfig::unprotected(stuck_hot.clone())),
        (
            "stuck-hot+floor",
            FaultConfig::protected(stuck_hot.clone(), WatchdogConfig::enabled()),
        ),
        (
            "stuck-hot+stopgo",
            FaultConfig::protected(stuck_hot, WatchdogConfig::enabled_stopgo()),
        ),
        ("stuck-cold", FaultConfig::unprotected(stuck_cold)),
        (
            "dropout+floor",
            FaultConfig::protected(dropout, WatchdogConfig::enabled()),
        ),
        (
            "drift+floor",
            FaultConfig::protected(drift, WatchdogConfig::enabled()),
        ),
        (
            "spike+floor",
            FaultConfig::protected(spike, WatchdogConfig::enabled()),
        ),
        ("stale", FaultConfig::unprotected(stale)),
        ("dvfs-stuck", FaultConfig::unprotected(dvfs_stuck)),
        ("gate-ignored", FaultConfig::unprotected(gate_ignored)),
    ]
}

/// Sums one robustness metric (seconds) over a policy's runs, in ms.
fn total_ms(runs: &[RunResult], f: impl Fn(&RunResult) -> f64) -> f64 {
    1e3 * runs.iter().map(f).sum::<f64>()
}

fn peak_overshoot(runs: &[RunResult]) -> f64 {
    runs.iter()
        .map(|r| r.robustness.peak_overshoot)
        .fold(0.0, f64::max)
}

fn robustness_cells(runs: &[RunResult]) -> [String; 5] {
    [
        format!("{:.2}", mean_bips(runs)),
        format!("{:.1}%", 100.0 * mean_duty(runs)),
        format!("{:.2}", total_ms(runs, |r| r.robustness.violation_time)),
        format!("{:.2}", total_ms(runs, |r| r.robustness.fallback_time)),
        format!(
            "{:.2}",
            total_ms(runs, |r| r.robustness.false_throttle_time)
        ),
    ]
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    argv.retain(|a| a != "--smoke");
    let args = SweepArgs::parse(argv);
    if smoke {
        run_smoke(&args);
        return;
    }

    let sim = args.sim_config();
    // Four representative Table 4 mixes keep the grid tractable:
    // 11 scenarios × 12 policies × 4 workloads = 528 cells.
    let workloads: Vec<_> = standard_workloads()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| [0, 4, 6, 11].contains(i))
        .map(|(_, w)| w)
        .collect();
    let axis = fault_axis(args.duration);
    // The fault axis replaces the implicit fault-free `base` variant
    // (the healthy numbers are exp_table8's job).
    let spec = SweepSpec::new(workloads)
        .policies(PolicySpec::all())
        .variants(axis.iter().map(|(name, faults)| {
            ConfigVariant::new(*name, sim.clone(), DtmConfig::default()).with_faults(faults.clone())
        }));
    // Distributable: `--dist host:port,...` shards the fault matrix
    // across remote dtm-serve workers; the wire carries every fault
    // schedule whole.
    let results = run_with_args(spec, &args).expect("sweep");

    // Table 1: every scenario under the paper's best policy.
    let best = PolicySpec::best();
    let mut scenarios = Table::new([
        "scenario (dist. DVFS)",
        "BIPS",
        "duty",
        "violation ms",
        "fallback ms",
        "false-throttle ms",
        "overshoot C",
    ])
    .with_title("fault scenarios under distributed DVFS");
    for (name, _) in &axis {
        let runs = results.policy_runs_in(name, best);
        let cells = robustness_cells(&runs);
        let mut row: Vec<String> = vec![name.to_string()];
        row.extend(cells);
        row.push(format!("{:.2}", peak_overshoot(&runs)));
        scenarios.row(row);
    }
    scenarios.print(args.json);

    // Table 2: the headline fault (stuck-hot sensor, frequency-floor
    // watchdog) across all twelve policies.
    let mut policies = Table::new([
        "policy (stuck-hot+floor)",
        "BIPS",
        "duty",
        "violation ms",
        "fallback ms",
        "false-throttle ms",
    ])
    .with_title("stuck-hot sensor with watchdog fallback, per policy");
    for p in PolicySpec::all() {
        let runs = results.policy_runs_in("stuck-hot+floor", p);
        let mut row: Vec<String> = vec![p.name().to_string()];
        row.extend(robustness_cells(&runs));
        policies.row(row);
    }
    policies.print(args.json);

    if !args.json {
        println!("\n(violation/fallback/false-throttle are summed over the workload set;");
        println!(" `stuck-hot` with no watchdog wastes throughput, `stuck-cold` risks");
        println!(" violations — the floor fallback converts both into bounded slowdown)");
        eprintln!("{}", results.summary());
    }
}

/// The CI smoke grid: 2 workloads × 3 policies × 2 scenarios at
/// test-length traces — exactly 12 ledger rows per invocation.
fn run_smoke(args: &SweepArgs) {
    let sim = SimConfig::fast_test();
    let start = 0.2 * sim.duration;
    let stuck_hot = FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, start);
    let workloads: Vec<_> = standard_workloads().into_iter().take(2).collect();
    let policies = [
        PolicySpec::baseline(),
        PolicySpec::new(ThrottleKind::Dvfs, Scope::Global, MigrationKind::None),
        PolicySpec::best(),
    ];
    let spec = SweepSpec::new(workloads)
        .policies(policies)
        .variant(
            ConfigVariant::new("stuck-hot", sim.clone(), DtmConfig::default())
                .with_faults(FaultConfig::unprotected(stuck_hot.clone())),
        )
        .add_variant(
            ConfigVariant::new("stuck-hot+floor", sim, DtmConfig::default())
                .with_faults(FaultConfig::protected(stuck_hot, WatchdogConfig::enabled())),
        );
    let expected = spec.cells().len();

    let results = smoke_runner(args).run(spec).expect("smoke sweep");

    let mut table = Table::new([
        "scenario/policy",
        "BIPS",
        "duty",
        "violation ms",
        "fallback ms",
        "false-throttle ms",
    ])
    .with_title("exp_faults smoke grid");
    for variant in ["stuck-hot", "stuck-hot+floor"] {
        for p in policies {
            let runs = results.policy_runs_in(variant, p);
            let mut row: Vec<String> = vec![format!("{variant} / {}", p.name())];
            row.extend(robustness_cells(&runs));
            table.row(row);
        }
    }
    table.print(args.json);
    println!(
        "smoke: {} cells, {} ledger rows appended",
        expected, expected
    );
    eprintln!("{}", results.summary());
}

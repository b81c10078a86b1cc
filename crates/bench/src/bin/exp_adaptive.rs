//! Fixed vs adaptive gain scheduling under the paper's best policy
//! (distributed DVFS + sensor-based migration).
//!
//! The paper fixes its PI gains (Table 3) for every workload. This
//! experiment asks what an *adaptive* controller buys on top of the
//! best fixed retuning `exp_explore --smoke` found: the same knob
//! point is run under the fixed clipped PI, the Rao-style
//! adjustable-gain law, and the windowed self-tuning scheduler, next
//! to the paper-default gains.
//!
//! ```text
//! exp_adaptive [DURATION] [--workers N] [--json] [--no-cache]
//!              [--smoke] [--dist host:port,...]
//! ```
//!
//! `--smoke` runs the CI grid (2 workloads, test-length traces) and
//! enforces the acceptance gate: both adaptive variants must stay
//! violation-free, and at least one must match or beat the fixed
//! front point on some objective without regressing any other beyond
//! 2%. Full and smoke runs write `results/ADAPTIVE_summary.json` and
//! `results/ADAPTIVE_summary_smoke.json` respectively.

use dtm_core::{DtmConfig, GainScheduleConfig, PolicySpec, SimConfig};
use dtm_dist::run_with_args;
use dtm_explore::Score;
use dtm_harness::codec::JsonCodec;
use dtm_harness::json::Json;
use dtm_harness::{ConfigVariant, Ledger, ResultCache, SweepArgs, SweepRunner, SweepSpec, Table};
use dtm_workloads::{standard_workloads, TraceGenConfig, TraceLibrary, Workload};

const REPORT_PATH: &str = "results/ADAPTIVE_summary.json";
const SMOKE_REPORT_PATH: &str = "results/ADAPTIVE_summary_smoke.json";

/// The best fixed-gain front point of the `exp_explore --smoke` search
/// (see `crates/explore/tests/golden_front.rs`, which pins its score):
/// the incumbent every adaptive schedule is measured against.
fn front_point_dtm() -> DtmConfig {
    DtmConfig {
        pi_kp: 0.0130198,
        pi_ki: 16.7746,
        dvfs_setpoint_margin: 3.74946,
        stopgo_trip_margin: 0.112355,
        stopgo_stall: 0.0268502,
        migration_interval: 0.0305746,
        os_tick: 0.00194046,
        ..DtmConfig::default()
    }
}

/// The variant axis: paper defaults, the retuned fixed incumbent, and
/// the two adaptive schedules layered on the incumbent's knobs.
fn variant_axis() -> Vec<(&'static str, DtmConfig)> {
    let front = front_point_dtm();
    vec![
        ("fixed-paper", DtmConfig::default()),
        ("fixed-front", front),
        (
            "rao",
            DtmConfig {
                gain_schedule: GainScheduleConfig::rao_default(),
                ..front
            },
        ),
        (
            "selftune",
            DtmConfig {
                gain_schedule: GainScheduleConfig::selftune_default(),
                ..front
            },
        ),
    ]
}

/// Relative regression tolerance of the acceptance gate.
const TOLERANCE: f64 = 0.02;

/// Whether `adaptive` matches-or-beats `fixed` on at least one of
/// {BIPS, violation, energy} while regressing none of them by more
/// than [`TOLERANCE`] (violation is absolute: any increase from a
/// violation-free incumbent is a regression).
fn acceptable(adaptive: &Score, fixed: &Score) -> bool {
    let bips_ok = adaptive.bips >= fixed.bips * (1.0 - TOLERANCE);
    let energy_ok = adaptive.energy <= fixed.energy * (1.0 + TOLERANCE);
    let violation_ok = adaptive.violation <= fixed.violation + 1e-12;
    let improves = adaptive.bips >= fixed.bips
        || adaptive.violation <= fixed.violation
        || adaptive.energy <= fixed.energy;
    bips_ok && energy_ok && violation_ok && improves
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    argv.retain(|a| a != "--smoke");
    let args = SweepArgs::parse(argv);

    let (sim, workloads, report_path) = if smoke {
        let workloads: Vec<Workload> = standard_workloads().into_iter().take(2).collect();
        (SimConfig::fast_test(), workloads, SMOKE_REPORT_PATH)
    } else {
        let sim = SimConfig {
            duration: args.duration,
            ..SimConfig::default()
        };
        // The same four representative Table 4 mixes exp_explore's full
        // search evaluates on.
        let workloads: Vec<Workload> = standard_workloads()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| [0, 4, 6, 11].contains(i))
            .map(|(_, w)| w)
            .collect();
        (sim, workloads, REPORT_PATH)
    };

    let axis = variant_axis();
    let policy = PolicySpec::best();
    let mut spec = SweepSpec::new(workloads).policies([policy]);
    for (i, (name, dtm)) in axis.iter().enumerate() {
        let v = ConfigVariant::new(*name, sim.clone(), *dtm);
        spec = if i == 0 {
            spec.variant(v)
        } else {
            spec.add_variant(v)
        };
    }

    let results = if smoke {
        let mut runner = SweepRunner::bare(TraceLibrary::new(TraceGenConfig::fast_test()))
            .with_cache(Some(ResultCache::default_location()))
            .with_ledger(Some(Ledger::default_location()));
        if let Some(n) = args.workers {
            runner = runner.with_workers(n);
        }
        if args.no_cache {
            runner = runner.with_cache(None);
        }
        runner.run(spec).expect("smoke sweep")
    } else {
        // Distributable: adaptive schedules have a wire spelling, so
        // `--dist` shards these cells like any others.
        run_with_args(spec, &args).expect("sweep")
    };

    let scores: Vec<(&'static str, &DtmConfig, Score)> = axis
        .iter()
        .map(|(name, dtm)| {
            let runs = results.policy_runs_in(name, policy);
            (*name, dtm, Score::of_runs(&runs, dtm.threshold))
        })
        .collect();
    let fixed_front = scores
        .iter()
        .find(|(n, _, _)| *n == "fixed-front")
        .expect("incumbent variant")
        .2;

    let mut table = Table::new([
        "controller",
        "schedule",
        "BIPS",
        "violation s·°C",
        "energy J",
        "ΔBIPS vs front",
        "Δenergy vs front",
    ])
    .with_title("fixed vs adaptive gain scheduling (dist. DVFS + sensor migration)");
    for (name, dtm, s) in &scores {
        table.row([
            name.to_string(),
            dtm.gain_schedule.wire_name().to_string(),
            format!("{:.3}", s.bips),
            format!("{:.4}", s.violation),
            format!("{:.2}", s.energy),
            format!("{:+.2}%", 100.0 * (s.bips / fixed_front.bips - 1.0)),
            format!("{:+.2}%", 100.0 * (s.energy / fixed_front.energy - 1.0)),
        ]);
    }
    table.print(args.json);

    let report = Json::Obj(vec![
        ("policy".into(), Json::str(policy.wire_name())),
        (
            "variants".into(),
            Json::Arr(
                scores
                    .iter()
                    .map(|(name, dtm, s)| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(*name)),
                            ("schedule".into(), Json::str(dtm.gain_schedule.wire_name())),
                            ("score".into(), s.to_json()),
                            ("acceptable".into(), Json::Bool(acceptable(s, &fixed_front))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("baseline".into(), Json::str("fixed-front")),
    ]);
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(report_path, report.emit() + "\n").expect("write report");
    if !args.json {
        println!("(summary written to {report_path})");
        eprintln!("{}", results.summary());
    }

    if smoke {
        // CI gate 1: the adaptive controllers never trade thermal
        // safety for throughput — zero violation exposure, like the
        // fixed incumbent.
        for (name, _, s) in scores.iter().filter(|(n, _, _)| !n.starts_with("fixed")) {
            assert_eq!(
                s.violation, 0.0,
                "adaptive variant `{name}` has thermal violations"
            );
        }
        // CI gate 2: at least one adaptive schedule matches-or-beats
        // the fixed front point somewhere without giving up more than
        // 2% anywhere.
        assert!(
            scores
                .iter()
                .filter(|(n, _, _)| !n.starts_with("fixed"))
                .any(|(_, _, s)| acceptable(s, &fixed_front)),
            "no adaptive schedule is competitive with the fixed front point"
        );
        println!("smoke: adaptive gate passed ({} variants)", scores.len());
    }
}

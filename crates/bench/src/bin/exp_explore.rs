//! Exploration experiment: does the paper's policy ranking survive
//! retuning? The paper compares its twelve DTM policies at one fixed
//! operating point (the Table 3 control parameters). `exp_explore`
//! searches the joint policy × knob space — PI gains, DVFS setpoint
//! margin, stop-go trip margin and gate duration, migration interval,
//! control period — with deterministic seeded strategies, and reports
//! the Pareto front over (throughput, thermal violation, energy,
//! robustness penalty) next to the fixed-knob anchors.
//!
//! ```text
//! exp_explore [DURATION] [--seed N] [--budget N] [--workers N]
//!             [--json] [--no-cache] [--smoke] [--adaptive]
//!             [--dist host:port,...]
//! ```
//!
//! `--adaptive` widens the space with the gain-schedule arms (Rao
//! adjustable-gain and windowed self-tuning controllers) plus their
//! adaptation knobs, journaling to `results/explore_adaptive.jsonl` so
//! the fixed-gain search history stays untouched.
//!
//! Everything is resumable: fresh evaluations append to
//! `results/explore.jsonl`, and a re-run (same seed and budget) replays
//! the journal without re-simulating a single cell, emitting a
//! byte-identical `results/EXPLORE_pareto.json`.
//!
//! `--smoke` runs a tiny fixed-seed search (2 workloads × 3 policies,
//! test-length traces) for CI and self-checks the determinism and
//! resume contracts.

use dtm_bench::smoke_runner;
use dtm_core::{ObsHandle, PolicySpec, SimConfig};
use dtm_dist::apply_args;
use dtm_explore::{standard_roster, ExploreReport, Explorer, SearchSpace};
use dtm_harness::{SweepArgs, SweepRunner, Table};
use dtm_workloads::{standard_workloads, Workload};

const JOURNAL_PATH: &str = "results/explore.jsonl";
const REPORT_PATH: &str = "results/EXPLORE_pareto.json";
// The journal memoizes by (policy, knob values, fidelity) — it is
// scoped to one (sim config, workload set). The smoke search runs
// test-length traces, so it keeps its own files.
const SMOKE_JOURNAL_PATH: &str = "results/explore_smoke.jsonl";
const SMOKE_REPORT_PATH: &str = "results/EXPLORE_pareto_smoke.json";
// The adaptive-controller search widens the space (gain-schedule arms
// + adaptation knobs), so its memo keys form a superset: it gets its
// own journal/report rather than mixing trajectories with the
// fixed-gain search.
const ADAPTIVE_JOURNAL_PATH: &str = "results/explore_adaptive.jsonl";
const ADAPTIVE_REPORT_PATH: &str = "results/EXPLORE_pareto_adaptive.json";

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    argv.retain(|a| a != "--smoke");
    let adaptive = argv.iter().any(|a| a == "--adaptive");
    argv.retain(|a| a != "--adaptive");
    let seed = take_u64(&mut argv, "--seed").unwrap_or(42);
    let budget = take_u64(&mut argv, "--budget").map(|b| b as usize);
    let args = SweepArgs::parse(argv);

    if smoke {
        run_smoke(&args, seed, budget.unwrap_or(96));
    } else {
        run_full(&args, seed, budget.unwrap_or(400), adaptive);
    }
}

/// Pulls `flag N` out of the argument list before [`SweepArgs`] sees
/// it; exits with a message on a malformed value.
fn take_u64(argv: &mut Vec<String>, flag: &str) -> Option<u64> {
    let i = argv.iter().position(|a| a == flag)?;
    if i + 1 >= argv.len() {
        eprintln!("{flag} requires a non-negative integer");
        std::process::exit(2);
    }
    let v = argv.remove(i + 1);
    argv.remove(i);
    match v.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("{flag} requires a non-negative integer, got `{v}`");
            std::process::exit(2);
        }
    }
}

fn run_full(args: &SweepArgs, seed: u64, budget: usize, adaptive: bool) {
    let sim = args.sim_config();
    // Four representative Table 4 mixes (same subset exp_faults uses)
    // keep each full-fidelity evaluation at 4 cells.
    let workloads: Vec<Workload> = standard_workloads()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| [0, 4, 6, 11].contains(i))
        .map(|(_, w)| w)
        .collect();
    let space = if adaptive {
        SearchSpace::paper_adaptive(sim, PolicySpec::all())
    } else {
        SearchSpace::paper(sim, PolicySpec::all())
    };
    let (journal_path, report_path) = if adaptive {
        (ADAPTIVE_JOURNAL_PATH, ADAPTIVE_REPORT_PATH)
    } else {
        (JOURNAL_PATH, REPORT_PATH)
    };

    let (runner, _) = apply_args(SweepRunner::paper_defaults(), args, SimConfig::default());

    let report = explore(
        &runner,
        space,
        workloads,
        seed,
        budget,
        args.json,
        journal_path,
        report_path,
    );
    if !args.json {
        println!(
            "\n(front and anchors are written to {report_path}; fresh evaluations append to {journal_path} — re-running with the same seed and budget resumes for free)"
        );
    }
    std::process::exit(i32::from(report.front.is_empty()));
}

/// Drives one deterministic search and writes the artifact.
#[allow(clippy::too_many_arguments)]
fn explore(
    runner: &SweepRunner,
    space: SearchSpace,
    workloads: Vec<Workload>,
    seed: u64,
    budget: usize,
    json: bool,
    journal_path: &str,
    report_path: &str,
) -> ExploreReport {
    let n0 = (budget / 4).clamp(8, 64);
    let gens = 4;
    let obs = ObsHandle::disabled();
    let mut strategies = standard_roster(seed, &space, n0, gens);
    let mut explorer =
        Explorer::new(runner, space, workloads, journal_path, seed, &obs).expect("journal");
    explorer.evaluate_anchors().expect("anchor sweep");
    explorer.run(&mut strategies, budget).expect("exploration");

    let report = explorer.report();
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(report_path, report.to_json().emit() + "\n").expect("write report");

    if !json {
        let mut gens_table = Table::new([
            "gen",
            "strategy",
            "asks",
            "fresh",
            "memo",
            "front",
            "best scalar",
        ])
        .with_title("exploration generations");
        for g in explorer.summaries() {
            gens_table.row([
                g.gen.to_string(),
                g.strategy.to_string(),
                g.asks.to_string(),
                g.fresh.to_string(),
                g.memo_hits.to_string(),
                g.front_len.to_string(),
                format!("{:.3}", g.best_scalar),
            ]);
        }
        gens_table.print(false);
    }
    report.table().print(json);
    if !json {
        println!(
            "evaluations: {} total ({} fresh, {} memo-served); baseline dominated: {}",
            explorer.evaluations(),
            explorer.fresh(),
            explorer.memo_hits(),
            report.baseline_dominated,
        );
    }
    report
}

/// The CI smoke search: fixed seed, test-length traces, 2 workloads ×
/// 3 policies, and hard self-checks of the determinism contract.
fn run_smoke(args: &SweepArgs, seed: u64, budget: usize) {
    let sim = SimConfig::fast_test();
    let workloads: Vec<Workload> = standard_workloads().into_iter().take(2).collect();
    let policies = vec![
        PolicySpec::baseline(),
        PolicySpec::new(
            dtm_core::ThrottleKind::Dvfs,
            dtm_core::Scope::Global,
            dtm_core::MigrationKind::None,
        ),
        PolicySpec::best(),
    ];
    let space = SearchSpace::paper(sim, policies);

    let runner = smoke_runner(args);

    let report = explore(
        &runner,
        space,
        workloads,
        seed,
        budget,
        args.json,
        SMOKE_JOURNAL_PATH,
        SMOKE_REPORT_PATH,
    );

    // Self-checks: the front exists, and the journal holds exactly one
    // row per distinct evaluation (the resume invariant).
    assert!(!report.front.is_empty(), "smoke produced an empty front");
    let rows = std::fs::read_to_string(SMOKE_JOURNAL_PATH)
        .expect("journal exists")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count();
    assert_eq!(
        rows, report.evaluations,
        "journal rows must equal distinct evaluations"
    );
    // At the default seed and budget the search beats the fixed grid:
    // some front point strictly dominates the scalar-best anchor on
    // the (throughput, violation) headline plane.
    assert!(
        report.baseline_dominated,
        "front no longer dominates the fixed-knob incumbent"
    );
    println!(
        "smoke: front={} evaluations={} journal-rows={rows} baseline-dominated={}",
        report.front.len(),
        report.evaluations,
        report.baseline_dominated
    );
}

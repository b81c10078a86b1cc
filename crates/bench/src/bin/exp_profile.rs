//! Profiling driver for the instrumented engine and harness
//! (`dtm-obs`). Each repetition runs a representative policy grid twice
//! — observability disabled, then enabled on a fresh handle — and the
//! binary reports
//!
//! - the per-phase wall-time breakdown of the engine hot loop
//!   (totals from [`dtm_core::PhaseProfile`], tail latencies from the
//!   per-phase histograms),
//! - harness-side cell timings (wall, queue wait) from the sweep
//!   runner's metrics,
//! - the instrumentation overhead — min-of-reps enabled vs disabled
//!   wall time — gated at < 3% (non-zero exit on failure),
//! - a chrome://tracing (Perfetto-loadable) span dump and a
//!   Prometheus-style metrics dump under `results/profile/`, next to
//!   the run ledger's directory.
//!
//! ```text
//! exp_profile [DURATION] [--smoke] [--workers N | -j N] [--lanes N] [--json]
//! ```
//!
//! `--smoke` shrinks the grid to test-length traces for CI. `--workers`
//! and `--lanes` reach every timing pass through `dtm_dist::apply_args`,
//! as in the sweep binaries. Timing passes bypass the result cache and
//! the ledger (a cache hit would measure nothing), so `--no-cache`
//! changes nothing and this binary never appends to
//! `results/ledger.jsonl`. `--dist` is a usage error: the passes time
//! this process's engine.

use dtm_core::{
    DtmConfig, MigrationKind, ObsHandle, PolicySpec, Scope, SimConfig, ThrottleKind, ENGINE_PHASES,
};
use dtm_harness::{cli, ConfigVariant, SweepArgs, SweepResults, SweepRunner, SweepSpec, Table};
use dtm_workloads::{standard_workloads, TraceGenConfig, TraceLibrary, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The instrumentation-overhead budget (fraction of disabled wall time).
const OVERHEAD_LIMIT: f64 = 0.03;

/// Timing repetitions (each runs the grid once disabled, once enabled).
const REPS: usize = 7;

/// Where the trace/metrics artifacts land.
const PROFILE_DIR: &str = "results/profile";

fn profile_grid(smoke: bool, duration: f64) -> (TraceLibrary, SweepSpec) {
    if smoke {
        // A timing pass is only ~0.06 s of wall time on a 2-vCPU host,
        // short enough that scheduler jitter moves single readings by
        // several percent; the gate's two estimators absorb part of it.
        let lib = TraceLibrary::new(TraceGenConfig::fast_test());
        let workloads: Vec<Workload> = standard_workloads().into_iter().take(4).collect();
        let spec = SweepSpec::new(workloads)
            .policies([
                PolicySpec::baseline(),
                PolicySpec::new(ThrottleKind::Dvfs, Scope::Global, MigrationKind::None),
                PolicySpec::best(),
            ])
            .variant(ConfigVariant::new(
                "profile",
                SimConfig::fast_test(),
                DtmConfig::default(),
            ));
        (lib, spec)
    } else {
        let lib = TraceLibrary::default().with_disk_cache("target/trace-cache");
        // Two representative mixes × three throttling styles keeps a
        // timing pass short enough to repeat.
        let workloads: Vec<Workload> = standard_workloads()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| [0, 6].contains(i))
            .map(|(_, w)| w)
            .collect();
        let sim = SimConfig {
            duration,
            ..SimConfig::default()
        };
        let spec = SweepSpec::new(workloads)
            .policies([
                PolicySpec::baseline(),
                PolicySpec::new(ThrottleKind::Dvfs, Scope::Global, MigrationKind::None),
                PolicySpec::best(),
            ])
            .variant(ConfigVariant::new("profile", sim, DtmConfig::default()));
        (lib, spec)
    }
}

/// The runner of every timing pass: one worker unless `--workers` says
/// otherwise (timing two interleaved passes is about wall-clock
/// stability, not throughput), and `--lanes` applied. `parse_args`
/// refused `--dist`, so no remote backend comes back.
fn timing_runner(lib: &Arc<TraceLibrary>, args: &SweepArgs) -> SweepRunner {
    let base = SweepRunner::bare_shared(Arc::clone(lib)).with_workers(1);
    dtm_dist::apply_args(base, args, SimConfig::default()).0
}

/// One full grid execution over the shared pre-warmed trace library —
/// no cache, no ledger — returning its wall time and results.
fn timed_pass(
    lib: &Arc<TraceLibrary>,
    spec: &SweepSpec,
    args: &SweepArgs,
    obs: Option<&ObsHandle>,
) -> (Duration, SweepResults) {
    let mut runner = timing_runner(lib, args);
    if let Some(o) = obs {
        runner = runner.with_obs(o);
    }
    let t0 = Instant::now();
    let results = runner.run(spec.clone()).expect("profile sweep");
    (t0.elapsed(), results)
}

const USAGE: &str = "\
usage: exp_profile [DURATION_SECONDS] [--smoke] [--workers N | -j N] [--lanes N] [--json]
Timing passes never read or write the result cache, so --no-cache changes
nothing; --dist is refused, since the passes time this process's engine.";

/// `--smoke` and the shared sweep flags. A bad flag or `--dist` prints
/// the usage and exits 2; `--help` prints it and exits 0.
fn parse_args() -> (bool, SweepArgs) {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    argv.retain(|a| a != "--smoke");
    let args = SweepArgs::try_parse(argv)
        .and_then(|args| {
            if args.dist_workers.is_empty() {
                Ok(args)
            } else {
                Err("--dist is not supported: timing passes run locally".to_string())
            }
        })
        .unwrap_or_else(|err| cli::usage(USAGE, &err));
    (smoke, args)
}

fn main() {
    let (smoke, args) = parse_args();
    let (lib, spec) = profile_grid(smoke, args.duration);
    let lib = Arc::new(lib);
    let workers = timing_runner(&lib, &args).worker_count();

    // Warm-up pass generates (or disk-loads) the traces, so no timing
    // repetition pays for trace generation.
    let _ = timed_pass(&lib, &spec, &args, None);

    let n_cells = spec.cells().len();
    let mut dis_cell_floor = vec![f64::INFINITY; n_cells];
    let mut en_cell_floor = vec![f64::INFINITY; n_cells];
    let mut ratios: Vec<f64> = Vec::with_capacity(REPS);
    let mut obs = ObsHandle::disabled();
    let mut profiled: Option<SweepResults> = None;
    let lower = |floors: &mut [f64], results: &SweepResults| {
        for (slot, o) in floors.iter_mut().zip(results.outcomes()) {
            *slot = slot.min(o.wall.as_secs_f64());
        }
    };
    for rep in 0..REPS {
        // A fresh handle per repetition keeps ring/histogram state
        // comparable across reps; the last one feeds the exports. The
        // pass order alternates so slow machine drift (frequency
        // scaling, cache state) cancels out of the per-rep ratio
        // instead of biasing it one way.
        let rep_obs = ObsHandle::enabled_default();
        let (dis, en, dis_results, en_results) = if rep % 2 == 0 {
            let (dis, dis_results) = timed_pass(&lib, &spec, &args, None);
            let (en, en_results) = timed_pass(&lib, &spec, &args, Some(&rep_obs));
            (dis, en, dis_results, en_results)
        } else {
            let (en, en_results) = timed_pass(&lib, &spec, &args, Some(&rep_obs));
            let (dis, dis_results) = timed_pass(&lib, &spec, &args, None);
            (dis, en, dis_results, en_results)
        };
        lower(&mut dis_cell_floor, &dis_results);
        lower(&mut en_cell_floor, &en_results);
        ratios.push(en.as_secs_f64() / dis.as_secs_f64().max(f64::MIN_POSITIVE));
        obs = rep_obs;
        profiled = Some(en_results);
    }
    let profiled = profiled.expect("at least one repetition ran");
    ratios.sort_by(f64::total_cmp);
    // Two independent overhead estimates. Primary: per-cell wall-time
    // floors — each cell's minimum over the reps discards the
    // preemption/frequency spikes (which only ever inflate a
    // measurement) cell by cell, so one noisy moment spoils one cell of
    // one rep, not a whole pass. Secondary: the median of the per-rep
    // paired whole-pass ratios. On a shared machine either one alone
    // can still catch a noise spike; a genuine regression moves both,
    // so the gate takes the smaller.
    let dis_floor_sum: f64 = dis_cell_floor.iter().sum();
    let en_floor_sum: f64 = en_cell_floor.iter().sum();
    let floor_overhead = en_floor_sum / dis_floor_sum.max(f64::MIN_POSITIVE) - 1.0;
    let median_overhead = ratios[ratios.len() / 2] - 1.0;
    let overhead = floor_overhead.min(median_overhead);

    // Per-phase breakdown: totals from the RunResult profiles, tail
    // latencies from the per-phase histograms.
    let mut totals = vec![0u64; ENGINE_PHASES.len()];
    let mut steps = 0u64;
    for o in profiled.outcomes() {
        let p = o.result.phases.as_ref().expect("profiled run has phases");
        steps += p.steps;
        for ph in &p.phases {
            let i = ENGINE_PHASES
                .iter()
                .position(|n| *n == ph.name)
                .expect("engine phase name");
            totals[i] += ph.ns;
        }
    }
    let grand: u64 = totals.iter().sum();
    let mut table = Table::new([
        "phase", "total ms", "share", "ns/step", "p50 ns", "p95 ns", "p99 ns",
    ])
    .with_title("engine hot-loop phase breakdown");
    for (i, name) in ENGINE_PHASES.iter().enumerate() {
        let h = obs.histogram(&format!("dtm_phase_{name}_ns"));
        table.row([
            name.to_string(),
            format!("{:.2}", totals[i] as f64 / 1e6),
            format!("{:.1}%", 100.0 * totals[i] as f64 / grand.max(1) as f64),
            format!("{:.0}", totals[i] as f64 / steps.max(1) as f64),
            format!("{}", h.p50()),
            format!("{}", h.p95()),
            format!("{}", h.p99()),
        ]);
    }
    table.print(args.json);

    let cell_wall = obs.histogram("dtm_cell_wall_ns");
    let cell_queue = obs.histogram("dtm_cell_queue_ns");

    // Artifacts: the Perfetto-loadable span trace and the Prometheus
    // text dump, next to the ledger's results/ directory.
    let dir = std::path::Path::new(PROFILE_DIR);
    std::fs::create_dir_all(dir).expect("create results/profile");
    let trace_path = dir.join("trace.json");
    let prom_path = dir.join("metrics.prom");
    std::fs::write(&trace_path, obs.chrome_trace()).expect("write chrome trace");
    std::fs::write(&prom_path, obs.prometheus()).expect("write prometheus dump");

    if !args.json {
        println!(
            "\ncells/pass: {} on {} worker(s); median cell wall {:.1} ms, queue wait {:.1} ms",
            profiled.outcomes().len(),
            workers,
            cell_wall.p50() as f64 / 1e6,
            cell_queue.p50() as f64 / 1e6,
        );
        println!("spans recorded: {}", obs.spans_recorded());
        println!("wrote {} and {}", trace_path.display(), prom_path.display());
    }
    println!(
        "instrumentation overhead: {:+.2}% over {} reps \
         (per-cell floors {:+.2}%: disabled {:.3} s vs enabled {:.3} s; \
         median paired pass ratio {:+.2}%)",
        100.0 * overhead,
        REPS,
        100.0 * floor_overhead,
        dis_floor_sum,
        en_floor_sum,
        100.0 * median_overhead,
    );
    if overhead > OVERHEAD_LIMIT {
        eprintln!(
            "error: instrumentation overhead {:.2}% exceeds the {:.0}% budget",
            100.0 * overhead,
            100.0 * OVERHEAD_LIMIT
        );
        std::process::exit(1);
    }
}

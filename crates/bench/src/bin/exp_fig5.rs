//! Figure 5: temperatures and DVFS control across several migration
//! intervals for the gzip-twolf-ammp-lucas workload.
//!
//! Reproduces both panels for one core: (a) the two register-file hotspot
//! temperatures, and (b) the PI controller's frequency scale factor, over
//! a window containing several migrations, annotated with the thread
//! resident on the core.
//!
//! One run with per-step telemetry is not a sweep cell, so this binary
//! steps it directly and uses only the duration of the shared flags
//! (at least 0.1 s, so the window holds several migrations).

use dtm_core::{DtmConfig, Experiment, MigrationKind, PolicySpec, Scope, SimConfig, ThrottleKind};
use dtm_harness::SweepArgs;
use dtm_workloads::{standard_workloads, TraceLibrary, TRACE_STORE};

fn main() {
    let args = SweepArgs::from_env();
    let sim = SimConfig {
        duration: args.duration.max(0.1),
        ..SimConfig::default()
    };
    let traces = TraceLibrary::default().with_disk_cache(TRACE_STORE);
    let exp = Experiment::new(traces, sim, DtmConfig::default());
    let workload = &standard_workloads()[6]; // gzip-twolf-ammp-lucas
    let policy = PolicySpec::new(
        ThrottleKind::Dvfs,
        Scope::Distributed,
        MigrationKind::CounterBased,
    );
    // Record every other control step (~56 µs resolution).
    let (result, telemetry) = exp
        .run_with_telemetry(workload, policy, 2)
        .expect("simulation");
    println!(
        "run: {} on {} — BIPS {:.2}, duty {:.1}%, {} migrations\n",
        policy.name(),
        workload.display_name(),
        result.bips(),
        100.0 * result.duty_cycle,
        result.migrations
    );

    // Find the first window on core 0 that contains at least three
    // distinct resident threads (i.e. several migrations). The paper's
    // figure spans ~8 ms; with migrations rate-limited to one per 10 ms
    // (§6) we use a 45 ms window to capture several tenancies.
    let records = telemetry.records();
    let core = 0usize;
    let window_len = (45.0e-3 / (records[1].time - records[0].time)) as usize;
    let mut start = 0;
    for s in (0..records.len().saturating_sub(window_len)).step_by(window_len / 4) {
        let mut seen = std::collections::BTreeSet::new();
        for r in &records[s..s + window_len] {
            seen.insert(r.assignment[core]);
        }
        if seen.len() >= 3 {
            start = s;
            break;
        }
    }
    let window = &records[start..(start + window_len).min(records.len())];
    let t0 = window[0].time;

    println!("time is relative to window start at t = {:.1} ms", t0 * 1e3);
    println!(
        "{:>9} {:>10} {:>8} {:>8} {:>7}",
        "t (ms)", "thread", "intRF C", "fpRF C", "scale"
    );
    let names = &workload.benchmarks;
    let mut last_thread = usize::MAX;
    for r in window.iter().step_by(20) {
        let thread = r.assignment[core];
        let marker = if thread != last_thread {
            format!("<- {} arrives", names[thread])
        } else {
            String::new()
        };
        last_thread = thread;
        println!(
            "{:>9.2} {:>10} {:>8.2} {:>8.2} {:>7.2} {}",
            (r.time - t0) * 1e3,
            names[thread],
            r.sensor_temps[core][0],
            r.sensor_temps[core][1],
            r.scales[core],
            marker
        );
    }
}

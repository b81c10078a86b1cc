//! `dtm_dist` — run a sweep grid across a fleet of `dtm-serve`
//! workers.
//!
//! ```text
//! dtm_dist --workers HOST:PORT[,HOST:PORT...] | --workers-file PATH
//!          [DURATION] [--local-workers N] [--deadline S] [--retries N]
//!          [--fast-traces] [--no-cache] [--json] [--smoke]
//! ```
//!
//! Default mode runs the full Table 8 grid (all 12 policies ×
//! standard workloads) through the distributed backend, prints the
//! policy table and the dispatch summary, and reports wall-clock time
//! (the number the scaling measurement in `EXPERIMENTS.md` quotes).
//!
//! `--smoke` is the self-check CI runs: a small fast-config grid, one
//! of whose variants carries a custom two-event fault schedule and a
//! raised DVFS floor, is executed twice — locally and distributed —
//! into separate throwaway caches and ledgers, then compared. Results
//! must be bit-identical, ledger rows identical modulo timing fields,
//! and no cell may be inexpressible on the wire; any failure exits
//! non-zero. The dispatch summary is written to
//! `results/DIST_summary.json`.

use dtm_core::{PolicySpec, SimConfig, SimError};
use dtm_dist::{DistConfig, RemoteBackend};
use dtm_harness::codec::result_to_json;
use dtm_harness::json::Json;
use dtm_harness::{Ledger, ResultCache, SweepResults, SweepRunner, SweepSpec};
use dtm_workloads::{TraceGenConfig, TraceLibrary};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: dtm_dist --workers HOST:PORT[,...] | --workers-file PATH\n\
         \x20      [DURATION] [--local-workers N] [--deadline S] [--retries N]\n\
         \x20      [--fast-traces] [--no-cache] [--json] [--smoke]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

struct Args {
    workers: Vec<String>,
    local_workers: usize,
    deadline: f64,
    retries: u32,
    duration: f64,
    fast_traces: bool,
    no_cache: bool,
    json: bool,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        workers: Vec::new(),
        local_workers: 0,
        deadline: 30.0,
        retries: 2,
        duration: 0.5,
        fast_traces: false,
        no_cache: false,
        json: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workers" => match args.next() {
                Some(list) => {
                    for entry in list.split(',') {
                        if entry.trim().is_empty() {
                            usage(&format!("--workers list `{list}` contains an empty entry"));
                        }
                        out.workers.push(entry.trim().to_string());
                    }
                }
                None => usage("--workers requires host:port[,host:port...]"),
            },
            "--workers-file" => match args.next() {
                Some(path) => match std::fs::read_to_string(&path) {
                    Ok(text) => out.workers.extend(
                        text.lines()
                            .map(str::trim)
                            .filter(|l| !l.is_empty() && !l.starts_with('#'))
                            .map(String::from),
                    ),
                    Err(e) => usage(&format!("cannot read {path}: {e}")),
                },
                None => usage("--workers-file requires a path"),
            },
            "--local-workers" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => out.local_workers = n,
                None => usage("--local-workers requires an integer"),
            },
            "--deadline" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(d) if d > 0.0 => out.deadline = d,
                _ => usage("--deadline requires positive seconds"),
            },
            "--retries" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => out.retries = n,
                None => usage("--retries requires an integer"),
            },
            "--fast-traces" => out.fast_traces = true,
            "--no-cache" => out.no_cache = true,
            "--json" => out.json = true,
            "--smoke" => out.smoke = true,
            "--help" | "-h" => usage(""),
            other => match other.parse::<f64>() {
                Ok(d) if d > 0.0 => out.duration = d,
                _ => usage(&format!("unrecognized argument `{other}`")),
            },
        }
    }
    if out.workers.is_empty() {
        usage("at least one worker is required (--workers or --workers-file)");
    }
    if let Err(e) = dtm_dist::validate_workers(&out.workers) {
        usage(&format!("{e:?}"));
    }
    out
}

/// The coordinator's view of the fleet's configuration: base sim and
/// trace generation must match what the workers were started with
/// (the handshake verifies this).
fn fleet_config(args: &Args) -> (SimConfig, TraceGenConfig) {
    if args.fast_traces {
        (SimConfig::fast_test(), TraceGenConfig::fast_test())
    } else {
        (SimConfig::default(), TraceGenConfig::default())
    }
}

fn dist_config(args: &Args, expected_base: SimConfig) -> DistConfig {
    let mut cfg = DistConfig::new(args.workers.clone(), expected_base);
    cfg.local_threads = args.local_workers;
    cfg.deadline = Duration::from_secs_f64(args.deadline);
    cfg.retries = args.retries;
    cfg
}

fn main() {
    let args = parse_args();
    if args.smoke {
        smoke(&args);
        return;
    }

    let (base_sim, tracegen) = fleet_config(&args);
    let mut sim = base_sim.clone();
    sim.duration = args.duration;
    let spec = SweepSpec::new(dtm_workloads::standard_workloads())
        .variant(dtm_harness::ConfigVariant::new(
            "dist",
            sim,
            dtm_core::DtmConfig::default(),
        ))
        .policies(PolicySpec::all());

    let backend = Arc::new(RemoteBackend::new(dist_config(&args, base_sim)));
    let mut runner = SweepRunner::paper_defaults().with_backend(backend.clone() as Arc<_>);
    if args.fast_traces {
        runner = SweepRunner::bare_shared(Arc::new(TraceLibrary::new(tracegen)))
            .with_cache(Some(ResultCache::default_location()))
            .with_ledger(Some(Ledger::default_location()))
            .with_backend(backend.clone() as Arc<_>);
    }
    if args.no_cache {
        runner = runner.with_cache(None);
    }

    let t0 = Instant::now();
    let results = match runner.run(spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dtm_dist: sweep failed: {e:?}");
            std::process::exit(1);
        }
    };
    let wall = t0.elapsed();
    if let Some(summary) = backend.take_summary() {
        if args.json {
            println!("{}", summary.to_json().emit());
        } else {
            println!("{}", summary.render());
        }
    }
    println!(
        "dtm_dist: {} cells ({} executed, {} cached) in {:.2}s",
        results.outcomes().len(),
        results.executed(),
        results.cache_hits(),
        wall.as_secs_f64()
    );
}

/// Canonical per-cell result bytes, in cell order.
fn canonical(results: &SweepResults) -> Vec<String> {
    results
        .outcomes()
        .iter()
        .map(|o| result_to_json(&o.result).emit())
        .collect()
}

/// A ledger row with the timing/placement fields stripped — what must
/// be identical between local and distributed execution.
fn normalize_ledger_row(line: &str) -> String {
    let Ok(v) = Json::parse(line) else {
        return line.to_string();
    };
    let Json::Obj(fields) = v else {
        return line.to_string();
    };
    let kept: Vec<(String, Json)> = fields
        .into_iter()
        .filter(|(k, _)| !matches!(k.as_str(), "ts" | "wall_s" | "queue_s" | "worker"))
        .collect();
    Json::Obj(kept).emit()
}

fn sorted_normalized_ledger(path: &PathBuf) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut rows: Vec<String> = text.lines().map(normalize_ledger_row).collect();
    rows.sort();
    rows
}

fn smoke(args: &Args) {
    let (base_sim, tracegen) = fleet_config(args);
    let spec = || dtm_dist::smoke_spec(&base_sim);

    let scratch = std::env::temp_dir().join(format!("dtm-dist-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let run = |tag: &str,
               backend: Option<Arc<RemoteBackend>>|
     -> Result<(SweepResults, PathBuf), SimError> {
        let ledger_path = scratch.join(format!("{tag}-ledger.jsonl"));
        let mut runner = SweepRunner::bare_shared(Arc::new(TraceLibrary::new(tracegen.clone())))
            .with_cache(Some(ResultCache::new(scratch.join(format!("{tag}-cache")))))
            .with_ledger(Some(Ledger::open(&ledger_path)));
        if let Some(b) = backend {
            runner = runner.with_backend(b as Arc<_>);
        }
        Ok((runner.run(spec())?, ledger_path))
    };

    eprintln!("dtm_dist: smoke — local baseline…");
    let (local, local_ledger) = match run("local", None) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("dtm_dist: local baseline failed: {e:?}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "dtm_dist: smoke — distributed across {} worker(s)…",
        args.workers.len()
    );
    let backend = Arc::new(RemoteBackend::new(dist_config(args, base_sim.clone())));
    let (dist, dist_ledger) = match run("dist", Some(backend.clone())) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("dtm_dist: distributed run failed: {e:?}");
            std::process::exit(1);
        }
    };

    let summary = backend.take_summary();
    if let Some(s) = &summary {
        eprintln!("{}", s.render());
    }

    // Bit-identity of every cell's result.
    let a = canonical(&local);
    let b = canonical(&dist);
    let mut failures = 0;
    if a != b {
        failures += 1;
        eprintln!("dtm_dist: FAIL — results diverge between local and distributed runs");
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            if x != y {
                eprintln!("  cell {i}:\n    local: {x}\n    dist:  {y}");
            }
        }
    }
    // Ledger parity modulo timing/placement fields.
    let la = sorted_normalized_ledger(&local_ledger);
    let lb = sorted_normalized_ledger(&dist_ledger);
    if la != lb {
        failures += 1;
        eprintln!("dtm_dist: FAIL — ledgers diverge (modulo ts/wall_s/queue_s/worker)");
    }
    let inexpressible = summary.as_ref().map_or(0, |s| s.counts.inexpressible);
    if inexpressible > 0 {
        failures += 1;
        eprintln!("dtm_dist: FAIL — {inexpressible} cell(s) could not be sent to a worker");
    }
    if la.len() != local.outcomes().len() || lb.len() != dist.outcomes().len() {
        failures += 1;
        eprintln!(
            "dtm_dist: FAIL — ledger row counts {} / {} != {} cells",
            la.len(),
            lb.len(),
            local.outcomes().len()
        );
    }

    // The CI artifact.
    let _ = std::fs::create_dir_all("results");
    let verdict = Json::Obj(vec![
        ("ok".into(), Json::Bool(failures == 0)),
        ("cells".into(), Json::Num(a.len().to_string())),
        ("ledger_rows".into(), Json::Num(la.len().to_string())),
        (
            "dispatch".into(),
            summary.map(|s| s.to_json()).unwrap_or(Json::Null),
        ),
    ]);
    let _ = std::fs::write("results/DIST_summary.json", verdict.emit());

    println!(
        "dtm_dist smoke: {} cells, {} ledger rows, {}",
        a.len(),
        la.len(),
        if failures == 0 {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    let _ = std::fs::remove_dir_all(&scratch);
    if failures > 0 {
        std::process::exit(1);
    }
}

//! `dtm_dist` — the distributed backend's self-check against a live
//! fleet.
//!
//! ```text
//! dtm_dist --dist HOST:PORT[,HOST:PORT...]
//! ```
//!
//! Runs [`dtm_dist::smoke_spec`]'s 12-cell grid on the fast-test
//! configuration twice — locally, then distributed — into separate
//! throwaway caches and ledgers, and compares the two. The workers must
//! be `dtm_serve --fast-traces` processes; the handshake refuses any
//! other fleet. One of the grid's variants carries a custom two-event
//! fault schedule and a raised DVFS floor. Results must be
//! bit-identical, ledger rows identical modulo timing fields, and no
//! cell may be inexpressible on the wire; any failure exits 1. The
//! verdict and the dispatch summary are written to
//! `results/DIST_summary.json`.
//!
//! A distributed paper sweep is the sweep binary itself with `--dist`,
//! as in `exp_table8 --dist HOST:PORT,...`.

use dtm_core::{SimConfig, SimError};
use dtm_dist::{DistConfig, RemoteBackend};
use dtm_harness::codec::result_to_json;
use dtm_harness::json::Json;
use dtm_harness::{cli, Ledger, ResultCache, SweepArgs, SweepResults, SweepRunner};
use dtm_workloads::{TraceGenConfig, TraceLibrary};
use std::path::PathBuf;
use std::sync::Arc;

const USAGE: &str = "\
usage: dtm_dist --dist HOST:PORT[,HOST:PORT...]
Runs the 12-cell self-check grid locally and on the fleet, whose
workers run `dtm_serve --fast-traces`, and compares the results.";

/// The fleet, read by the sweep binaries' `--dist` parser. Any other
/// flag, or no `--dist`, prints the usage and exits 2; `--help` prints
/// it and exits 0.
fn parse_args() -> SweepArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args =
        SweepArgs::try_parse(argv.iter().cloned()).unwrap_or_else(|err| cli::usage(USAGE, &err));
    if let Some(flag) = argv.iter().step_by(2).find(|a| *a != "--dist") {
        cli::usage(
            USAGE,
            &format!("`{flag}` is not accepted; dtm_dist takes only --dist"),
        );
    }
    if args.dist_workers.is_empty() {
        cli::usage(USAGE, "--dist is required");
    }
    args
}

/// Canonical per-cell result bytes, in cell order.
fn canonical(results: &SweepResults) -> Vec<String> {
    results
        .outcomes()
        .iter()
        .map(|o| result_to_json(&o.result).emit())
        .collect()
}

fn main() {
    let args = parse_args();
    let (base_sim, tracegen) = (SimConfig::fast_test(), TraceGenConfig::fast_test());
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
        args.dist_workers.len()
    );
    let backend = Arc::new(RemoteBackend::new(DistConfig::from_args(
        &args,
        base_sim.clone(),
    )));
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
    // Ledger parity modulo timing/placement fields. A missing ledger
    // reads as empty, which the row-count check below fails.
    let [la, lb] = [&local_ledger, &dist_ledger].map(|path| {
        dtm_dist::normalized_ledger(&std::fs::read_to_string(path).unwrap_or_default())
            .unwrap_or_else(|err| {
                failures += 1;
                eprintln!("dtm_dist: FAIL — {}: {err}", path.display());
                Vec::new()
            })
    });
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

//! End-to-end distributed execution tests: real `dtm_serve`
//! processes on ephemeral ports, a worker killed mid-sweep, and the
//! headline invariant — a distributed sweep produces bit-identical
//! results, cache contents, and ledger rows (modulo timing fields) to
//! a single-process run.

use dtm_core::{DtmConfig, PolicySpec, SimConfig, SimError};
use dtm_dist::{normalized_ledger, DistConfig, RemoteBackend};
use dtm_harness::{ConfigVariant, Ledger, ResultCache, SweepResults, SweepRunner, SweepSpec};
use dtm_serve::{Server, ServerConfig};
use dtm_workloads::{TraceGenConfig, TraceLibrary, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dtm-dist-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

fn fast_lib() -> TraceLibrary {
    TraceLibrary::new(TraceGenConfig::fast_test())
}

/// The test grid: 12 cells on the fast-test configuration, the same
/// base the workers are started with (`--fast-traces`).
fn grid() -> SweepSpec {
    SweepSpec::new(vec![
        Workload::new("wa", ["gzip", "mcf", "gzip", "mcf"]),
        Workload::new("wb", ["mesa", "eon", "mesa", "eon"]),
        Workload::new("wc", ["art", "swim", "art", "swim"]),
        Workload::new("wd", ["gzip", "eon", "art", "mcf"]),
    ])
    .variant(ConfigVariant::new(
        "base",
        SimConfig::fast_test(),
        DtmConfig::default(),
    ))
    .policies([
        PolicySpec::baseline(),
        PolicySpec::best(),
        PolicySpec::new(
            dtm_core::ThrottleKind::Dvfs,
            dtm_core::Scope::Global,
            dtm_core::MigrationKind::None,
        ),
    ])
}

/// Spawns a real `dtm_serve` process on an ephemeral port and waits
/// for it to report the bound port via `--port-file`.
// Every caller kills and waits the returned child before returning.
#[allow(clippy::zombie_processes)]
fn spawn_worker(dir: &Path, tag: &str) -> (Child, String) {
    let port_file = dir.join(format!("port-{tag}"));
    let child = Command::new(env!("CARGO_BIN_EXE_dtm_serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--fast-traces"])
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dtm_serve");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            let text = text.trim();
            if !text.is_empty() {
                return (child, format!("127.0.0.1:{text}"));
            }
        }
        assert!(
            Instant::now() < deadline,
            "worker {tag} never reported a port"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// All files under a result-cache directory, relative path → bytes.
fn cache_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_file() {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(name, std::fs::read(&p).unwrap());
        }
    }
    out
}

/// `dir`'s `{tag}-ledger.jsonl`, normalized for comparison.
fn ledger(dir: &Path, tag: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(dir.join(format!("{tag}-ledger.jsonl"))).expect("ledger exists");
    normalized_ledger(&text).unwrap_or_else(|err| panic!("{tag}: {err}"))
}

/// Runs `spec` into `dir`'s `{tag}-cache` and `{tag}-ledger.jsonl`,
/// through `backend` when one is given.
fn run_into(
    dir: &Path,
    tag: &str,
    spec: SweepSpec,
    backend: Option<Arc<RemoteBackend>>,
) -> SweepResults {
    let mut runner = SweepRunner::bare(fast_lib())
        .with_workers(4)
        .with_cache(Some(ResultCache::new(dir.join(format!("{tag}-cache")))))
        .with_ledger(Some(Ledger::open(dir.join(format!("{tag}-ledger.jsonl")))));
    if let Some(b) = backend {
        runner = runner.with_backend(b as Arc<_>);
    }
    runner
        .run(spec)
        .unwrap_or_else(|e| panic!("{tag} sweep: {e:?}"))
}

/// Asserts the `dist` run in `dir` equals the `local` one: results
/// and keys cell by cell, cache bytes, and the ledger modulo timing
/// and placement fields.
fn assert_identical_runs(dir: &Path, local: &SweepResults, dist: &SweepResults) {
    for (a, b) in local.outcomes().iter().zip(dist.outcomes()) {
        assert_eq!(a.index, b.index, "cell order preserved");
        assert_eq!(a.key, b.key, "content address diverged");
        assert_eq!(a.result, b.result, "cell {:?} diverged", a.index);
        assert_eq!(
            a.result.duty_cycle.to_bits(),
            b.result.duty_cycle.to_bits(),
            "bit-level divergence in cell {:?}",
            a.index
        );
    }
    let ca = cache_contents(&dir.join("local-cache"));
    assert_eq!(ca.len(), local.outcomes().len());
    assert_eq!(
        ca,
        cache_contents(&dir.join("dist-cache")),
        "cache bytes differ"
    );
    let la = ledger(dir, "local");
    assert_eq!(la.len(), local.outcomes().len(), "one ledger row per cell");
    assert_eq!(
        la,
        ledger(dir, "dist"),
        "ledgers diverge beyond timing fields"
    );
}

#[test]
fn distributed_sweep_is_bit_identical_and_survives_worker_death() {
    let dir = scratch("headline");

    // Local baseline into its own cache and ledger.
    let local = run_into(&dir, "local", grid(), None);
    assert_eq!(local.executed(), 12);

    // Three real worker processes; one will be killed mid-sweep.
    let (victim, addr0) = spawn_worker(&dir, "w0");
    let (mut w1, addr1) = spawn_worker(&dir, "w1");
    let (mut w2, addr2) = spawn_worker(&dir, "w2");

    let mut cfg = DistConfig::new(vec![addr0, addr1, addr2], SimConfig::fast_test());
    cfg.deadline = Duration::from_secs(20);
    cfg.backoff = Duration::from_millis(100);
    let backend = Arc::new(RemoteBackend::new(cfg));

    // Kill the first worker shortly after dispatch begins.
    let killer = std::thread::spawn(move || {
        let mut victim = victim;
        std::thread::sleep(Duration::from_millis(400));
        let _ = victim.kill();
        let _ = victim.wait();
    });

    let dist = run_into(&dir, "dist", grid(), Some(backend.clone()));
    killer.join().unwrap();
    let _ = w1.kill();
    let _ = w2.kill();
    let _ = w1.wait();
    let _ = w2.wait();

    // Every cell resolved exactly once, none served from cache.
    assert_eq!(dist.executed(), 12);
    assert_eq!(dist.cache_hits(), 0);

    assert_identical_runs(&dir, &local, &dist);

    // The dispatch summary saw the death: a killed worker plus
    // retried/re-dispatched work.
    let summary = backend.take_summary().expect("summary recorded");
    let completed: u64 = summary.workers.iter().map(|w| w.completed).sum();
    assert!(
        completed + summary.local_cells + summary.fallback_cells >= 12,
        "all cells accounted for: {summary:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn custom_fault_cells_run_remotely_and_stay_identical() {
    // The CI smoke grid: half its cells carry a custom two-event fault
    // schedule and a raised DVFS floor.
    let dir = scratch("custom");
    let spec = || dtm_dist::smoke_spec(&SimConfig::fast_test());
    let local = run_into(&dir, "local", spec(), None);
    assert_eq!(local.executed(), 12);

    let (mut w0, addr0) = spawn_worker(&dir, "w0");
    let (mut w1, addr1) = spawn_worker(&dir, "w1");
    let mut cfg = DistConfig::new(vec![addr0, addr1], SimConfig::fast_test());
    cfg.deadline = Duration::from_secs(60);
    let backend = Arc::new(RemoteBackend::new(cfg));
    let dist = run_into(&dir, "dist", spec(), Some(backend.clone()));
    for w in [&mut w0, &mut w1] {
        let _ = w.kill();
        let _ = w.wait();
    }

    // Every cell went over the wire, none ran locally.
    let summary = backend.take_summary().expect("summary recorded");
    assert_eq!(summary.counts.inexpressible, 0, "{summary:?}");
    assert_eq!(summary.remote_cells, 12, "{summary:?}");
    assert_eq!(summary.local_cells + summary.fallback_cells, 0);

    assert_identical_runs(&dir, &local, &dist);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_worker_configuration_is_refused() {
    // An in-process server with the fast-test base; the coordinator
    // expects the paper-default base. The handshake must refuse it —
    // silently accepting would break bit-identity.
    let handle = Server::spawn(ServerConfig::fast_test()).expect("server");
    let addr = handle.addr().to_string();

    let cfg = DistConfig::new(vec![addr], SimConfig::default());
    let backend = Arc::new(RemoteBackend::new(cfg));
    let err = SweepRunner::bare(fast_lib())
        .with_backend(backend as Arc<_>)
        .run(grid())
        .expect_err("mismatched worker must be refused");
    match err {
        SimError::BadInput(msg) => {
            assert!(
                msg.contains("refusing worker") && msg.contains("mismatch"),
                "got: {msg}"
            );
        }
        other => panic!("expected BadInput, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn dead_pool_falls_back_to_local_and_stays_identical() {
    // A port with nothing listening: the single worker is dead on
    // arrival, and the sweep must still complete — locally — with
    // results identical to a plain local run.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let spec = || {
        SweepSpec::new(vec![Workload::new("wa", ["gzip", "mcf", "gzip", "mcf"])])
            .variant(ConfigVariant::new(
                "base",
                SimConfig::fast_test(),
                DtmConfig::default(),
            ))
            .policies([PolicySpec::baseline(), PolicySpec::best()])
    };
    let local = SweepRunner::bare(fast_lib())
        .run(spec())
        .expect("local run");

    let cfg = DistConfig::new(vec![format!("127.0.0.1:{port}")], SimConfig::fast_test());
    let backend = Arc::new(RemoteBackend::new(cfg));
    let dist = SweepRunner::bare(fast_lib())
        .with_backend(backend.clone() as Arc<_>)
        .run(spec())
        .expect("sweep completes with a dead fleet");
    assert_eq!(dist.executed(), 2);
    for (a, b) in local.outcomes().iter().zip(dist.outcomes()) {
        assert_eq!(a.result, b.result);
    }
    let summary = backend.take_summary().expect("summary");
    assert_eq!(
        summary.fallback_cells, 2,
        "cells ran via the local fallback"
    );
    assert_eq!(summary.remote_cells, 0);
}

#[test]
fn local_mixin_threads_share_the_sweep_with_the_fleet() {
    // One real worker plus two coordinator-local threads: whatever the
    // split ends up being, the merged results must match a local run
    // and every cell must resolve exactly once.
    let dir = scratch("mixin");
    let (mut w0, addr0) = spawn_worker(&dir, "w0");

    let local = SweepRunner::bare(fast_lib())
        .run(grid())
        .expect("local baseline");

    let mut cfg = DistConfig::new(vec![addr0], SimConfig::fast_test());
    cfg.local_threads = 2;
    cfg.deadline = Duration::from_secs(20);
    let backend = Arc::new(RemoteBackend::new(cfg));
    let dist = SweepRunner::bare(fast_lib())
        .with_backend(backend.clone() as Arc<_>)
        .run(grid())
        .expect("mixed sweep");
    let _ = w0.kill();
    let _ = w0.wait();

    assert_eq!(dist.executed(), 12);
    for (a, b) in local.outcomes().iter().zip(dist.outcomes()) {
        assert_eq!(a.result, b.result, "cell {:?} diverged", a.index);
    }
    let summary = backend.take_summary().expect("summary");
    let remote: u64 = summary.workers.iter().map(|w| w.completed).sum();
    assert!(
        remote + summary.local_cells + summary.fallback_cells >= 12,
        "split accounted for: {summary:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

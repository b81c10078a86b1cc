//! `dtm-dist`: fault-tolerant distributed sweep execution over
//! `dtm-serve` workers.
//!
//! A sweep grid (the Table 8 / fault-matrix experiments) is
//! embarrassingly parallel across cells, and `dtm-serve` already
//! exposes single-cell simulation over TCP with the same content
//! addresses the sweep cache uses. This crate closes the loop: a
//! coordinator that shards a [`dtm_harness::SweepSpec`]'s missed cells
//! across a fleet of workers, survives worker failure, and produces
//! **bit-identical** results, cache contents, and ledger rows (modulo
//! timing fields) to a single-process run.
//!
//! The moving parts:
//!
//! - [`RemoteBackend`] implements [`dtm_harness::Backend`], so the
//!   ordinary [`dtm_harness::SweepRunner`] drives it — cache pass,
//!   ledger, and progress reporting stay byte-for-byte the shared
//!   code paths.
//! - [`request_for_cell`] builds each cell's wire request, whole
//!   `DtmConfig` and `FaultConfig` included; a cell whose `SimConfig`
//!   differs from the fleet's base beyond duration, cores and seed, or
//!   that the server's bounds reject, runs locally instead.
//! - The handshake ([`dtm_serve::ServerInfo`] via extended `ping`)
//!   refuses workers whose version, base config, or trace generation
//!   differs from the coordinator's.
//! - [`dispatch`] holds the pure scheduling core: deterministic
//!   exponential backoff, bounded retries, straggler speculation, and
//!   byte-compared duplicate reconciliation.
//! - Liveness: per-worker request windows, heartbeats, and an
//!   alive → suspect → dead health model ([`worker`]); a fleet that
//!   drains to zero parks everything on the coordinator's own
//!   executor, so a sweep always completes.
//! - [`DispatchSummary`] reports per-worker dispatch/retry/timeout/RTT
//!   statistics and cache-tier attribution, alongside `dtm_dist_*`
//!   obs counters, gauges, and histograms.
//!
//! Binaries: `dtm_worker` (a `dtm-serve` server with isolation flags
//! for cache/ledger paths) and `dtm_dist` (runs a grid against a
//! fleet; `--smoke` self-checks distributed-vs-local bit-identity).

pub mod backend;
pub mod dispatch;
pub mod summary;
pub mod worker;

pub use backend::{
    request_for_cell, validate_workers, DistConfig, RemoteBackend, REMOTE_WORKER_BASE,
};
pub use dispatch::{Completion, DispatchConfig, DispatchCounts, DispatchState, Scheduler};
pub use summary::{DispatchSummary, WorkerRow};
pub use worker::{Health, Worker, WorkerPool, WorkerStats};

use dtm_core::{
    DtmConfig, FaultConfig, FaultEvent, FaultKind, FaultScenario, FaultTarget, PolicySpec,
    SimConfig, SimError,
};
use dtm_harness::cli::SweepArgs;
use dtm_harness::{ConfigVariant, SweepResults, SweepRunner, SweepSpec};
use dtm_workloads::Workload;
use std::sync::Arc;

/// Like [`dtm_harness::run_standard`], but routing execution through
/// the distributed backend when `--dist` workers were given (printing
/// the dispatch summary afterwards). Experiment binaries call this to
/// gain distribution with one flag and zero behavioral change in the
/// local case.
///
/// # Errors
///
/// Propagates the first simulation failure, including a refused
/// worker handshake.
pub fn run_with_args(spec: SweepSpec, args: &SweepArgs) -> Result<SweepResults, SimError> {
    if args.dist_workers.is_empty() {
        return dtm_harness::run_standard(spec, args);
    }
    let cfg = DistConfig::from_args(args, SimConfig::default());
    let backend = Arc::new(RemoteBackend::new(cfg));
    let mut runner = SweepRunner::paper_defaults().with_backend(backend.clone() as Arc<_>);
    if let Some(n) = args.workers {
        runner = runner.with_workers(n);
    }
    if args.no_cache {
        runner = runner.with_cache(None);
    }
    let results = runner.run(spec)?;
    if let Some(summary) = backend.take_summary() {
        eprintln!("{}", summary.render());
    }
    Ok(results)
}

/// The grid `dtm_dist --smoke` runs on `base`: three workloads × the
/// baseline and best policies × two variants. The second carries a
/// custom two-event fault schedule (a drift plus a permanent stuck DVFS
/// level) under a raised DVFS floor, configs the wire carries whole.
pub fn smoke_spec(base: &SimConfig) -> SweepSpec {
    let drift = FaultEvent {
        start: 0.002,
        end: 0.006,
        target: FaultTarget::Sensor { core: 1, index: 0 },
        kind: FaultKind::SensorDrift { rate: -40.0 },
    };
    let stuck = FaultEvent::permanent(0.004, FaultTarget::Core { core: 2 }, FaultKind::DvfsStuck);
    let faults = FaultConfig::unprotected(FaultScenario::new("custom", vec![drift, stuck]));
    let floor = DtmConfig {
        dvfs_min_scale: 0.5,
        ..DtmConfig::default()
    };
    SweepSpec::new(vec![
        Workload::new("wa", ["gzip", "mcf", "gzip", "mcf"]),
        Workload::new("wb", ["mesa", "eon", "mesa", "eon"]),
        Workload::new("wc", ["art", "swim", "art", "swim"]),
    ])
    .variant(ConfigVariant::new(
        "smoke",
        base.clone(),
        DtmConfig::default(),
    ))
    .add_variant(ConfigVariant::new("custom-faults", base.clone(), floor).with_faults(faults))
    .policies([PolicySpec::baseline(), PolicySpec::best()])
}

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
//!   code paths. [`apply_args`] installs it from a binary's `--dist`
//!   flag, and [`run_with_args`] is the sweep entry point of every
//!   experiment binary.
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
//! Binaries: `dtm_serve` (the `dtm-serve` server, the one process a
//! fleet worker runs; cache and ledger off unless given paths) and
//! `dtm_dist` (self-checks distributed-vs-local bit-identity against a
//! fleet). A distributed paper sweep is a sweep binary with `--dist`.

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

/// Applies a sweep binary's execution flags to `runner`: `--workers`,
/// `--lanes`, `--no-cache` and, with `--dist`, a remote backend over a
/// fleet whose base config is `fleet_base` (the handshake refuses any
/// other). The backend is returned too, so the caller can print its
/// dispatch summary. Sweep binaries build their runners through here,
/// so each flag means the same in every one of them.
pub fn apply_args(
    mut runner: SweepRunner,
    args: &SweepArgs,
    fleet_base: SimConfig,
) -> (SweepRunner, Option<Arc<RemoteBackend>>) {
    if let Some(n) = args.workers {
        runner = runner.with_workers(n);
    }
    if let Some(n) = args.lanes {
        runner = runner.with_lanes(n);
    }
    if args.no_cache {
        runner = runner.with_cache(None);
    }
    if args.dist_workers.is_empty() {
        return (runner, None);
    }
    let backend = Arc::new(RemoteBackend::new(DistConfig::from_args(args, fleet_base)));
    (
        runner.with_backend(backend.clone() as Arc<_>),
        Some(backend),
    )
}

/// Runs `spec` on [`SweepRunner::paper_defaults`] with the flags in
/// `args` (see [`apply_args`]), printing the dispatch summary to stderr
/// after a distributed sweep: the entry point of every sweep that
/// prints a paper number.
///
/// # Errors
///
/// Propagates the first simulation failure, including a refused
/// worker handshake.
pub fn run_with_args(spec: SweepSpec, args: &SweepArgs) -> Result<SweepResults, SimError> {
    let (runner, remote) = apply_args(SweepRunner::paper_defaults(), args, SimConfig::default());
    let results = runner.run(spec)?;
    if let Some(summary) = remote.and_then(|b| b.take_summary()) {
        eprintln!("{}", summary.render());
    }
    Ok(results)
}

/// The grid `dtm_dist` self-checks on `base`: three workloads × the
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

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_workloads::{TraceGenConfig, TraceLibrary};

    fn applied(flags: &[&str]) -> (SweepRunner, Option<Arc<RemoteBackend>>) {
        let args = SweepArgs::parse(flags.iter().map(|s| s.to_string()));
        let runner = SweepRunner::bare(TraceLibrary::new(TraceGenConfig::fast_test()));
        apply_args(runner, &args, SimConfig::fast_test())
    }

    #[test]
    fn every_execution_flag_reaches_the_runner() {
        let (runner, remote) = applied(&["--workers", "3", "--lanes", "2"]);
        assert_eq!(runner.worker_count(), 3);
        assert_eq!(runner.lane_count(), 2);
        assert!(remote.is_none(), "no --dist, no remote backend");

        // Nothing listens on the discard port, so the worker is dead at
        // the handshake and the cell drains to local execution; the
        // summary shows the sweep went through the remote backend.
        let (runner, remote) = applied(&["--dist", "127.0.0.1:9"]);
        let sim = SimConfig {
            duration: 0.005,
            ..SimConfig::fast_test()
        };
        let spec = SweepSpec::new(vec![Workload::new("wa", ["gzip", "mcf", "gzip", "mcf"])])
            .variant(ConfigVariant::new("base", sim, DtmConfig::default()))
            .policies([PolicySpec::baseline()]);
        runner.run(spec).expect("sweep drains to local execution");
        let summary = remote.and_then(|b| b.take_summary());
        assert!(summary.is_some(), "--dist must install the remote backend");
    }
}

//! [`RemoteBackend`]: a [`dtm_harness::Backend`] that executes a
//! sweep's missed cells on a fleet of `dtm-serve` workers.
//!
//! The determinism argument, end to end: a cell's wire request carries
//! its whole `DtmConfig` and `FaultConfig` through a codec that
//! round-trips every field bit for bit, and a cell is only eligible
//! for remote dispatch when its `SimConfig` is the fleet's base with
//! at most the duration, core count and seed changed
//! ([`request_for_cell`]). The handshake pins the worker's version,
//! base `SimConfig`, and trace-generation config; the response echoes
//! the key, which is re-checked on receipt; and any duplicate
//! completion (speculation, late stragglers) is byte-compared against
//! the first. A distributed sweep therefore either produces results
//! bit-identical to a single-process run or fails loudly — never
//! silently diverges.

use crate::dispatch::{Completion, DispatchConfig, DispatchState, RemoteNext, Scheduler};
use crate::summary::DispatchSummary;
use crate::worker::{Health, Worker, WorkerPool};
use dtm_core::{RunResult, SimConfig, SimError};
use dtm_harness::cli::SweepArgs;
use dtm_harness::codec::result_to_json;
use dtm_harness::{Backend, BackendCtx, CellOutcome, LocalExec};
use dtm_serve::protocol::{Request, Response, ResultSource, SimResponse};
use dtm_serve::{Client, ServerInfo, SimRequest};
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Remote outcomes carry worker ids offset by this, so ledger readers
/// can tell coordinator-local workers (small ids) from remote ones.
pub const REMOTE_WORKER_BASE: usize = 1000;

/// Most requests one worker has in flight: each worker gets its
/// advertised thread count, clamped to `[1, MAX_WINDOW]`.
const MAX_WINDOW: usize = 8;

/// Interval between liveness probes of the workers not yet dead.
const HEARTBEAT: Duration = Duration::from_secs(1);

/// TCP connect (and handshake read) timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker addresses (`host:port`).
    pub workers: Vec<String>,
    /// Coordinator-local executor threads mixed in alongside the
    /// remote fleet (0 = pure remote, with local execution only as
    /// the completeness fallback).
    pub local_threads: usize,
    /// Per-attempt remote deadline.
    pub deadline: Duration,
    /// Remote retry budget per cell.
    pub retries: u32,
    /// Base retry backoff (doubles per attempt, no jitter).
    pub backoff: Duration,
    /// The base `SimConfig` every worker must be serving against
    /// (requests resolve relative to it on the server side).
    pub expected_base: SimConfig,
}

impl DistConfig {
    /// Defaults for a worker fleet running against `expected_base`.
    pub fn new(workers: Vec<String>, expected_base: SimConfig) -> Self {
        DistConfig {
            workers,
            local_threads: 0,
            deadline: Duration::from_secs(30),
            retries: 2,
            backoff: Duration::from_millis(250),
            expected_base,
        }
    }

    /// Builds from the shared sweep-binary flags (`--dist`,
    /// `--dist-local`, `--dist-deadline`, `--dist-retries`).
    pub fn from_args(args: &SweepArgs, expected_base: SimConfig) -> Self {
        let mut cfg = DistConfig::new(args.dist_workers.clone(), expected_base);
        cfg.local_threads = args.dist_local;
        cfg.deadline = Duration::from_secs_f64(args.dist_deadline.max(0.001));
        cfg.retries = args.dist_retries;
        cfg
    }
}

/// Validates a worker host list before any dispatch: empty entries
/// (stray commas, blank lines) and duplicate hosts are rejected with a
/// [`SimError::BadInput`] naming the offender. A duplicated host would
/// otherwise be handshaken and dispatched to twice — double load on one
/// machine that silently *looks* like a bigger fleet.
///
/// # Errors
///
/// Returns `BadInput` describing the first empty or duplicate entry.
pub fn validate_workers(workers: &[String]) -> Result<(), SimError> {
    let mut seen: Vec<&str> = Vec::with_capacity(workers.len());
    for (i, w) in workers.iter().enumerate() {
        let trimmed = w.trim();
        if trimmed.is_empty() {
            return Err(SimError::BadInput(format!(
                "worker list entry {} is empty (stray comma or blank line?)",
                i + 1
            )));
        }
        if seen.contains(&trimmed) {
            return Err(SimError::BadInput(format!(
                "worker `{trimmed}` listed more than once — a duplicate host \
                 would be dispatched to twice"
            )));
        }
        seen.push(trimmed);
    }
    Ok(())
}

/// Maps sweep cell `i` (an index into `ctx.cells`) to the wire request
/// that reproduces it exactly, or `None` when the cell must run
/// locally.
///
/// The request carries the cell's whole `DtmConfig` and `FaultConfig`,
/// so only its `SimConfig` can fall outside the wire: it must be the
/// fleet's base with at most the duration, core count and seed
/// changed. A cell the server's bounds reject (checked here by the
/// same `resolve` the server runs) also runs locally.
pub fn request_for_cell(
    ctx: &BackendCtx<'_>,
    i: usize,
    expected_base: &SimConfig,
) -> Option<SimRequest> {
    let cell = ctx.cells[i];
    let variant = &ctx.spec.variant_axis()[cell.variant];
    let sim = &variant.sim;
    let mut probe = expected_base.clone();
    probe.duration = sim.duration;
    probe.cores = sim.cores;
    probe.seed = sim.seed;
    if probe != *sim {
        return None;
    }
    let req = SimRequest {
        workload: None,
        benchmarks: ctx.spec.workload_axis()[cell.workload]
            .resolve()
            .into_iter()
            .map(|b| b.name)
            .collect(),
        policy: ctx.spec.policy_axis()[cell.policy].wire_name(),
        duration_s: Some(sim.duration),
        cores: Some(sim.cores),
        seed: Some(sim.seed),
        deadline_ms: None,
        dtm: Some(variant.dtm),
        faults: Some(variant.faults.clone()),
    };
    req.resolve(expected_base).is_ok().then_some(req)
}

/// Canonical result bytes for duplicate reconciliation: the same JSON
/// encoding the wire and the cache use, so "byte-identical" means the
/// same thing everywhere.
fn canonical_bits(result: &RunResult) -> Vec<u8> {
    result_to_json(result).emit().into_bytes()
}

/// Per-thread outcome emitter: reconciles completions through the
/// scheduler and forwards exactly one outcome per cell to the runner.
struct Emit<'a, 'b> {
    ctx: &'a BackendCtx<'b>,
    sched: &'a Scheduler,
    tx: mpsc::Sender<Result<CellOutcome, SimError>>,
}

impl Emit<'_, '_> {
    /// Handles a remote completion of miss `id`. Returns `false` on a
    /// fatal determinism violation (abort already signalled).
    fn remote(
        &self,
        id: usize,
        result: RunResult,
        wall: Duration,
        queued: Duration,
        worker: usize,
    ) -> bool {
        let bits = canonical_bits(&result);
        match self.sched.complete(id, &bits, true) {
            Completion::Fresh => {
                let i = self.ctx.misses[id];
                self.ctx.publish(i, &result);
                let _ = self.tx.send(Ok(CellOutcome {
                    index: self.ctx.cells[i],
                    key: self.ctx.keys[i].hex(),
                    result,
                    cached: false,
                    wall,
                    queued,
                    worker,
                }));
                true
            }
            Completion::DuplicateMatch => self.duplicate(),
            Completion::DuplicateMismatch => self.mismatch(id),
        }
    }

    /// Handles a locally-executed completion of miss `id` (the outcome
    /// is already published and fully formed by [`LocalExec`]).
    fn local(&self, id: usize, outcome: CellOutcome) -> bool {
        let bits = canonical_bits(&outcome.result);
        match self.sched.complete(id, &bits, false) {
            Completion::Fresh => {
                let _ = self.tx.send(Ok(outcome));
                true
            }
            Completion::DuplicateMatch => self.duplicate(),
            Completion::DuplicateMismatch => self.mismatch(id),
        }
    }

    /// The one local loop, behind both the `--dist-local` threads and
    /// the completeness fallback: runs each cell `next` yields alone,
    /// as worker `wid` of the shared `LocalExec` (built on first use),
    /// counts it in `count` and the obs counter `metric`, and emits it,
    /// until `next` runs dry. A simulation error aborts the sweep.
    fn run_local(
        &self,
        exec: &OnceLock<LocalExec>,
        wid: usize,
        count: &AtomicU64,
        metric: &str,
        mut next: impl FnMut() -> Option<usize>,
    ) {
        while let Some(id) = next() {
            let exec = exec.get_or_init(|| LocalExec::new(self.ctx));
            match exec.run_lane_batch(self.ctx, &[self.ctx.misses[id]], wid) {
                Ok(mut one) => {
                    count.fetch_add(1, Ordering::Relaxed);
                    if self.ctx.obs.is_enabled() {
                        self.ctx.obs.counter(metric).inc();
                    }
                    if !self.local(id, one.remove(0)) {
                        return;
                    }
                }
                Err(e) => {
                    let _ = self.tx.send(Err(e));
                    self.sched.abort();
                    return;
                }
            }
        }
    }

    fn duplicate(&self) -> bool {
        if self.ctx.obs.is_enabled() {
            self.ctx.obs.counter("dtm_dist_duplicate_total").inc();
        }
        true
    }

    fn mismatch(&self, id: usize) -> bool {
        let i = self.ctx.misses[id];
        let _ = self.tx.send(Err(SimError::BadInput(format!(
            "distributed determinism violation: cell {i} (key {}) \
             produced two byte-different results",
            self.ctx.keys[i].hex()
        ))));
        self.sched.abort();
        false
    }
}

/// One remote attempt's disposition, as seen by a dispatch lane.
enum Attempt {
    /// A completed simulation came back.
    Done(Box<SimResponse>),
    /// The server is up but couldn't take or finish the work in time
    /// (admission rejection or server-side deadline) — retry elsewhere
    /// or later; not a health strike against the worker.
    Busy,
    /// The server deterministically rejected the request.
    Rejected(String),
    /// The client-side deadline expired.
    IoTimeout,
    /// Connection-level failure (includes protocol desync).
    IoError,
}

/// Issues one simulate call on a lane's (lazily dialled) connection.
/// Any timeout or error poisons the connection — under the protocol's
/// strict request→response alternation a late reply would desync every
/// later exchange, so the lane redials instead of reusing it.
fn attempt(client: &mut Option<Client>, addr: &str, cfg: &DistConfig, req: SimRequest) -> Attempt {
    if client.is_none() {
        match Client::connect_timeout(addr, CONNECT_TIMEOUT) {
            Ok(c) => *client = Some(c),
            Err(e) => {
                return if e.kind() == io::ErrorKind::TimedOut {
                    Attempt::IoTimeout
                } else {
                    Attempt::IoError
                }
            }
        }
    }
    let c = client.as_mut().expect("dialled above");
    match c.call_deadline(&Request::Simulate(Box::new(req)), cfg.deadline) {
        Ok(Response::Result(r)) => Attempt::Done(r),
        Ok(Response::Overloaded { .. } | Response::Timeout { .. }) => Attempt::Busy,
        Ok(Response::Error { message }) => Attempt::Rejected(message),
        Ok(_) => {
            *client = None;
            Attempt::IoError
        }
        Err(e) => {
            *client = None;
            if e.kind() == io::ErrorKind::TimedOut {
                Attempt::IoTimeout
            } else {
                Attempt::IoError
            }
        }
    }
}

/// Why a handshake didn't produce a usable worker.
enum HandshakeError {
    /// The worker answered but its configuration would break the
    /// sweep's determinism guarantee — fatal, the whole run refuses.
    Mismatch(String),
    /// The worker didn't answer — tolerated, it starts dead.
    Unreachable(io::Error),
}

/// Verifies one worker's version and configuration against the
/// coordinator's expectations.
fn handshake(
    addr: &str,
    cfg: &DistConfig,
    tracegen_dbg: &str,
) -> Result<ServerInfo, HandshakeError> {
    let mut client = Client::connect_timeout(addr, CONNECT_TIMEOUT)
        .and_then(|c| c.with_read_timeout(CONNECT_TIMEOUT))
        .map_err(HandshakeError::Unreachable)?;
    let info = client.ping_info().map_err(HandshakeError::Unreachable)?;
    let Some(info) = info else {
        return Err(HandshakeError::Mismatch(
            "server predates the version handshake (bare pong)".into(),
        ));
    };
    let version = env!("CARGO_PKG_VERSION");
    if info.version != version {
        return Err(HandshakeError::Mismatch(format!(
            "version mismatch: worker {} vs coordinator {version}",
            info.version
        )));
    }
    let base = format!("{:?}", cfg.expected_base);
    if info.base_sim != base {
        return Err(HandshakeError::Mismatch(format!(
            "base_sim mismatch: worker serves `{}`, coordinator expects `{base}`",
            info.base_sim
        )));
    }
    if info.tracegen != tracegen_dbg {
        return Err(HandshakeError::Mismatch(format!(
            "tracegen mismatch: worker uses `{}`, coordinator expects `{tracegen_dbg}`",
            info.tracegen
        )));
    }
    Ok(info)
}

/// The distributed sweep backend. Plug into a
/// [`dtm_harness::SweepRunner`] via
/// [`with_backend`](dtm_harness::SweepRunner::with_backend); after the
/// sweep, [`take_summary`](RemoteBackend::take_summary) returns the
/// dispatch report.
#[derive(Debug)]
pub struct RemoteBackend {
    cfg: DistConfig,
    summary: Mutex<Option<DispatchSummary>>,
}

impl RemoteBackend {
    /// A backend over the given fleet configuration.
    pub fn new(cfg: DistConfig) -> Self {
        RemoteBackend {
            cfg,
            summary: Mutex::new(None),
        }
    }

    /// The dispatch summary of the most recent sweep, if one ran.
    pub fn take_summary(&self) -> Option<DispatchSummary> {
        self.summary.lock().unwrap().take()
    }
}

impl Backend for RemoteBackend {
    fn run_cells(&self, ctx: &BackendCtx<'_>, tx: &mpsc::Sender<Result<CellOutcome, SimError>>) {
        let cfg = &self.cfg;
        if let Err(e) = validate_workers(&cfg.workers) {
            let _ = tx.send(Err(e));
            return;
        }
        let obs = ctx.obs;
        let tracegen_dbg = format!("{:?}", ctx.lib.config());

        // Handshake the fleet. A mismatched worker is fatal (it would
        // silently break bit-identity); an unreachable one starts dead.
        let mut fleet = Vec::new();
        for (idx, addr) in cfg.workers.iter().enumerate() {
            match handshake(addr, cfg, &tracegen_dbg) {
                Ok(info) => {
                    let window = info.workers.clamp(1, MAX_WINDOW);
                    fleet.push(Worker::alive(addr.clone(), idx, window, info));
                }
                Err(HandshakeError::Mismatch(msg)) => {
                    let _ = tx.send(Err(SimError::BadInput(format!(
                        "refusing worker {addr}: {msg}"
                    ))));
                    return;
                }
                Err(HandshakeError::Unreachable(e)) => {
                    eprintln!("dtm-dist: worker {addr} unreachable at handshake ({e}); continuing without it");
                    fleet.push(Worker::dead(addr.clone(), idx));
                }
            }
        }
        let pool = WorkerPool::new(fleet);

        // Partition cells by remote expressibility.
        let requests: Vec<Option<SimRequest>> = ctx
            .misses
            .iter()
            .map(|&i| request_for_cell(ctx, i, &cfg.expected_base))
            .collect();
        let remote_ok: Vec<bool> = requests.iter().map(|r| r.is_some()).collect();
        let sched = Scheduler::new(DispatchState::new(
            &remote_ok,
            DispatchConfig {
                retries: cfg.retries,
                backoff: cfg.backoff,
                // Stragglers are speculated on after the default 10 s.
                ..DispatchConfig::default()
            },
        ));
        if pool.alive_count() == 0 {
            sched.pool_died();
        }

        let local_cells = AtomicU64::new(0);
        let fallback_cells = AtomicU64::new(0);
        let lanes_total: usize = pool
            .workers
            .iter()
            .filter(|w| !w.is_dead())
            .map(|w| w.window)
            .sum();
        let active_lanes = AtomicUsize::new(lanes_total);
        let exec: OnceLock<LocalExec> = OnceLock::new();
        let deadline_ms = cfg.deadline.as_millis() as u64;
        let on_worker_down = |w: &Worker| {
            if w.is_dead() && pool.alive_count() == 0 {
                sched.pool_died();
            }
        };

        let emitter = || Emit {
            ctx,
            sched: &sched,
            tx: tx.clone(),
        };

        std::thread::scope(|s| {
            // Dispatch lanes: `window` concurrent request streams per
            // living worker.
            for w in pool.workers.iter().filter(|w| !w.is_dead()) {
                for _ in 0..w.window {
                    let emit = emitter();
                    let requests = &requests;
                    let active_lanes = &active_lanes;
                    let sched = &sched;
                    let on_worker_down = &on_worker_down;
                    s.spawn(move || {
                        let mut client: Option<Client> = None;
                        loop {
                            if w.is_dead() {
                                break;
                            }
                            let Some(RemoteNext::Dispatch { id, speculative }) =
                                sched.acquire_remote()
                            else {
                                break;
                            };
                            if w.is_dead() {
                                sched.fail_remote(id);
                                break;
                            }
                            w.stats.dispatched.fetch_add(1, Ordering::Relaxed);
                            let inflight = obs.is_enabled().then(|| {
                                obs.counter("dtm_dist_dispatch_total").inc();
                                obs.counter(&format!("dtm_dist_w{}_dispatch_total", w.idx))
                                    .inc();
                                if speculative {
                                    obs.counter("dtm_dist_speculated_total").inc();
                                }
                                let g = obs.gauge(&format!("dtm_dist_w{}_inflight", w.idx));
                                g.inc();
                                g
                            });
                            let mut req = requests[id].clone().expect("remote-eligible cell");
                            req.deadline_ms = Some(deadline_ms);
                            let queued = ctx.sweep_start.elapsed();
                            let t0 = Instant::now();
                            let outcome = attempt(&mut client, &w.addr, cfg, req);
                            if let Some(g) = inflight {
                                g.dec();
                            }
                            match outcome {
                                Attempt::Done(resp) => {
                                    let i = ctx.misses[id];
                                    if resp.key != ctx.keys[i].hex() {
                                        // The worker resolved a different
                                        // cell: its config drifted since
                                        // the handshake. Drop it.
                                        eprintln!(
                                            "dtm-dist: worker {} returned key {} for cell {i} \
                                             (expected {}); dropping worker",
                                            w.addr,
                                            resp.key,
                                            ctx.keys[i].hex()
                                        );
                                        w.mark_dead();
                                        on_worker_down(w);
                                        sched.fail_remote(id);
                                        break;
                                    }
                                    w.note_success();
                                    let rtt = t0.elapsed();
                                    let rtt_us = rtt.as_micros() as u64;
                                    w.stats.completed.fetch_add(1, Ordering::Relaxed);
                                    w.stats.rtt_us_sum.fetch_add(rtt_us, Ordering::Relaxed);
                                    let src = match resp.source {
                                        ResultSource::Simulated => &w.stats.src_sim,
                                        ResultSource::Memo => &w.stats.src_memo,
                                        ResultSource::Disk => &w.stats.src_disk,
                                    };
                                    src.fetch_add(1, Ordering::Relaxed);
                                    if obs.is_enabled() {
                                        obs.counter("dtm_dist_complete_total").inc();
                                        obs.counter(&format!("dtm_dist_w{}_complete_total", w.idx))
                                            .inc();
                                        obs.histogram("dtm_dist_rtt_us").record(rtt_us);
                                        let src_name = match resp.source {
                                            ResultSource::Simulated => "sim",
                                            ResultSource::Memo => "memo",
                                            ResultSource::Disk => "disk",
                                        };
                                        obs.counter(&format!("dtm_dist_src_{src_name}_total"))
                                            .inc();
                                    }
                                    if !emit.remote(
                                        id,
                                        resp.result,
                                        rtt,
                                        queued,
                                        REMOTE_WORKER_BASE + w.idx,
                                    ) {
                                        break;
                                    }
                                }
                                Attempt::Busy => {
                                    w.stats.retried.fetch_add(1, Ordering::Relaxed);
                                    if obs.is_enabled() {
                                        obs.counter("dtm_dist_retry_total").inc();
                                        obs.counter(&format!("dtm_dist_w{}_retry_total", w.idx))
                                            .inc();
                                    }
                                    sched.fail_remote(id);
                                }
                                Attempt::Rejected(msg) => {
                                    eprintln!(
                                        "dtm-dist: worker {} rejected cell {}: {msg}; \
                                         running it locally",
                                        w.addr, ctx.misses[id]
                                    );
                                    sched.park_local(id);
                                }
                                timeout_or_error => {
                                    let timed_out = matches!(timeout_or_error, Attempt::IoTimeout);
                                    if timed_out {
                                        w.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                                    }
                                    w.stats.retried.fetch_add(1, Ordering::Relaxed);
                                    if obs.is_enabled() {
                                        if timed_out {
                                            obs.counter("dtm_dist_timeout_total").inc();
                                            obs.counter(&format!(
                                                "dtm_dist_w{}_timeout_total",
                                                w.idx
                                            ))
                                            .inc();
                                        }
                                        obs.counter("dtm_dist_retry_total").inc();
                                        obs.counter(&format!("dtm_dist_w{}_retry_total", w.idx))
                                            .inc();
                                    }
                                    if w.note_failure() == Health::Dead {
                                        on_worker_down(w);
                                    }
                                    sched.fail_remote(id);
                                }
                            }
                        }
                        active_lanes.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            }

            // Heartbeat: probes non-dead workers so a hung fleet is
            // noticed even when every lane is blocked on a call.
            if lanes_total > 0 {
                let pool = &pool;
                let sched = &sched;
                let active_lanes = &active_lanes;
                let on_worker_down = &on_worker_down;
                s.spawn(move || {
                    let done = || {
                        sched.is_aborted()
                            || sched.all_done()
                            || active_lanes.load(Ordering::SeqCst) == 0
                    };
                    loop {
                        let mut slept = Duration::ZERO;
                        while slept < HEARTBEAT {
                            if done() {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(50));
                            slept += Duration::from_millis(50);
                        }
                        for w in pool.workers.iter().filter(|w| !w.is_dead()) {
                            let alive = Client::connect_timeout(&w.addr, CONNECT_TIMEOUT)
                                .and_then(|mut c| c.call_deadline(&Request::Ping, CONNECT_TIMEOUT))
                                .map(|r| matches!(r, Response::Pong { .. }))
                                .unwrap_or(false);
                            if alive {
                                w.note_success();
                            } else if w.note_failure() == Health::Dead {
                                on_worker_down(w);
                            }
                            if done() {
                                return;
                            }
                        }
                    }
                });
            }

            // Coordinator-local executor threads: drain parked and
            // inexpressible cells, and steal queued remote work when
            // idle.
            for t in 0..cfg.local_threads {
                let emit = emitter();
                let (exec, local_cells) = (&exec, &local_cells);
                s.spawn(move || {
                    emit.run_local(
                        exec,
                        t + 1,
                        local_cells,
                        "dtm_dist_local_cells_total",
                        || emit.sched.acquire_local(true),
                    )
                });
            }
        });

        // Completeness fallback: whatever is still unresolved (parked
        // with no local threads, or a fleet that died mid-sweep) runs
        // on a local pool. A sweep handed to this backend always
        // finishes.
        if !sched.is_aborted() && !sched.all_done() {
            let remaining = sched.with_state(|st| st.drain_unresolved());
            let subset: Vec<usize> = remaining.iter().map(|&id| ctx.misses[id]).collect();
            let nw = ctx.workers.min(subset.len()).max(1);
            ctx.prewarm(&subset, nw);
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for wid in 1..=nw {
                    let emit = emitter();
                    let (exec, next, remaining, fallback_cells) =
                        (&exec, &next, &remaining, &fallback_cells);
                    s.spawn(move || {
                        emit.run_local(
                            exec,
                            wid,
                            fallback_cells,
                            "dtm_dist_fallback_cells_total",
                            || {
                                let j = next.fetch_add(1, Ordering::SeqCst);
                                remaining
                                    .get(j)
                                    .copied()
                                    .filter(|_| !emit.sched.is_aborted())
                            },
                        )
                    });
                }
            });
        }

        let counts = sched.with_state(|st| st.counts);
        *self.summary.lock().unwrap() = Some(DispatchSummary::collect(
            &pool,
            counts,
            local_cells.load(Ordering::Relaxed),
            fallback_cells.load(Ordering::Relaxed),
        ));
    }

    fn label(&self) -> String {
        format!(
            "dist({} remote, {} local)",
            self.cfg.workers.len(),
            self.cfg.local_threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_core::{
        DtmConfig, FaultConfig, FaultEvent, FaultKind, FaultScenario, FaultTarget,
        GainScheduleConfig, PolicySpec, SimConfig, WatchdogConfig,
    };
    use dtm_harness::cache::{cell_key, cell_keys, CellKey};
    use dtm_harness::{ConfigVariant, SweepSpec};
    use dtm_workloads::{TraceGenConfig, TraceLibrary, Workload};
    use std::sync::Arc;

    struct Fixture {
        spec: SweepSpec,
        cells: Vec<dtm_harness::CellIndex>,
        keys: Vec<CellKey>,
        misses: Vec<usize>,
        lib: Arc<TraceLibrary>,
        obs: dtm_core::ObsHandle,
    }

    fn fixture(variant: ConfigVariant) -> Fixture {
        let spec = SweepSpec::new(vec![Workload::new("wa", ["gzip", "mcf", "gzip", "mcf"])])
            .variant(variant)
            .policies([PolicySpec::baseline()]);
        let cells = spec.cells();
        let lib = Arc::new(TraceLibrary::new(TraceGenConfig::fast_test()));
        let keys = cell_keys(&spec, lib.config(), env!("CARGO_PKG_VERSION"));
        let misses = (0..cells.len()).collect();
        Fixture {
            spec,
            cells,
            keys,
            misses,
            lib,
            obs: dtm_core::ObsHandle::enabled_default(),
        }
    }

    impl Fixture {
        fn ctx(&self) -> BackendCtx<'_> {
            BackendCtx {
                spec: &self.spec,
                cells: &self.cells,
                keys: &self.keys,
                misses: &self.misses,
                lib: &self.lib,
                cache: None,
                obs: &self.obs,
                sweep_start: Instant::now(),
                workers: 1,
                lanes: 1,
            }
        }
    }

    /// The key the server computes for `req`: the frame encoded,
    /// decoded and resolved exactly as a worker does.
    fn server_key(fx: &Fixture, req: &SimRequest, base: &SimConfig) -> CellKey {
        let Ok(Request::Simulate(decoded)) =
            Request::decode(&Request::Simulate(Box::new(req.clone())).encode())
        else {
            panic!("request decodes");
        };
        let r = decoded.resolve(base).expect("request resolves");
        let v = &r.variant;
        cell_key(
            &r.workload,
            r.policy,
            &v.sim,
            &v.dtm,
            &v.faults,
            fx.lib.config(),
            env!("CARGO_PKG_VERSION"),
        )
    }

    /// The request for the fixture's only cell, checked to land on the
    /// coordinator's key.
    fn key_checked_request(fx: &Fixture, base: &SimConfig) -> SimRequest {
        let req = request_for_cell(&fx.ctx(), 0, base).expect("expressible");
        assert_eq!(server_key(fx, &req, base), fx.keys[0]);
        req
    }

    #[test]
    fn base_config_cell_is_expressible_and_key_checked() {
        let sim = SimConfig::fast_test();
        let fx = fixture(ConfigVariant::new(
            "base",
            sim.clone(),
            DtmConfig::default(),
        ));
        let req = key_checked_request(&fx, &sim);
        assert_eq!(req.benchmarks, vec!["gzip", "mcf", "gzip", "mcf"]);
        assert_eq!(req.dtm, Some(DtmConfig::default()));
        assert_eq!(req.faults, Some(FaultConfig::ideal()));
        assert_eq!(req.duration_s, Some(sim.duration));
    }

    #[test]
    fn threshold_and_fault_variants_ride_the_wire_whole() {
        let sim = SimConfig::fast_test();
        let preset = FaultConfig::protected(
            FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, sim.duration * 0.2),
            WatchdogConfig::enabled(),
        );
        let custom = FaultConfig::unprotected(FaultScenario::new(
            "custom",
            vec![
                FaultEvent {
                    start: 0.002,
                    end: 0.006,
                    target: FaultTarget::Sensor { core: 1, index: 0 },
                    kind: FaultKind::SensorDrift { rate: -40.0 },
                },
                FaultEvent::permanent(0.004, FaultTarget::Core { core: 2 }, FaultKind::DvfsStuck),
            ],
        ));
        for faults in [preset, custom] {
            let dtm = DtmConfig::with_threshold(90.0);
            let fx =
                fixture(ConfigVariant::new("hot", sim.clone(), dtm).with_faults(faults.clone()));
            let req = key_checked_request(&fx, &sim);
            assert_eq!(req.faults, Some(faults));
            assert_eq!(req.dtm, Some(dtm));
        }
    }

    #[test]
    fn tuned_knob_variants_are_expressible_and_key_checked() {
        let sim = SimConfig::fast_test();
        let dtm = DtmConfig {
            pi_kp: 0.02,
            dvfs_setpoint_margin: 1.2,
            migration_interval: 0.05,
            dvfs_min_scale: 0.5,
            ..DtmConfig::default()
        };
        let fx = fixture(ConfigVariant::new("tuned", sim.clone(), dtm));
        assert_eq!(key_checked_request(&fx, &sim).dtm, Some(dtm));
    }

    #[test]
    fn adaptive_schedule_variants_are_expressible_and_key_checked() {
        let sim = SimConfig::fast_test();
        for schedule in [
            GainScheduleConfig::Fixed,
            GainScheduleConfig::rao_default(),
            GainScheduleConfig::SelfTuning {
                rate: 0.3,
                window_s: 0.004,
            },
        ] {
            let dtm = DtmConfig {
                gain_schedule: schedule,
                ..DtmConfig::default()
            };
            let fx = fixture(ConfigVariant::new("adaptive", sim.clone(), dtm));
            assert_eq!(key_checked_request(&fx, &sim).dtm, Some(dtm));
        }
    }

    #[test]
    fn out_of_bounds_dtm_values_are_inexpressible() {
        // The server-identical resolve rejects values beyond the wire's
        // bounds, so the cell runs locally.
        let sim = SimConfig::fast_test();
        for dtm in [
            DtmConfig {
                pi_kp: 99.0,
                ..DtmConfig::default()
            },
            DtmConfig::unconstrained(),
        ] {
            let fx = fixture(ConfigVariant::new("odd", sim.clone(), dtm));
            assert!(request_for_cell(&fx.ctx(), 0, &sim).is_none());
        }
    }

    #[test]
    fn off_vocabulary_configs_are_inexpressible() {
        // A per-core max-scale map has no wire spelling: the cell must
        // fall back to local execution rather than resolve to a
        // different (wrong) cell remotely.
        let mut sim = SimConfig::fast_test();
        sim.core_max_scale = vec![1.0, 0.8, 1.0, 0.8];
        let fx = fixture(ConfigVariant::new("asym", sim, DtmConfig::default()));
        let ctx = fx.ctx();
        assert!(request_for_cell(&ctx, 0, &SimConfig::fast_test()).is_none());
    }

    #[test]
    fn bad_host_lists_are_rejected_before_any_dispatch() {
        let ok = |hosts: &[&str]| {
            validate_workers(&hosts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert!(ok(&["a:1", "b:2"]).is_ok());
        assert!(ok(&[]).is_ok(), "an empty fleet is the caller's decision");
        match ok(&["a:1", "", "b:2"]) {
            Err(SimError::BadInput(msg)) => assert!(msg.contains("entry 2 is empty"), "got: {msg}"),
            other => panic!("expected BadInput for empty entry, got {other:?}"),
        }
        match ok(&["a:1", "b:2", "a:1"]) {
            Err(SimError::BadInput(msg)) => {
                assert!(msg.contains("`a:1` listed more than once"), "got: {msg}")
            }
            other => panic!("expected BadInput for duplicate, got {other:?}"),
        }

        // A backend over a bad fleet fails the sweep loudly instead of
        // dispatching twice — checked without any live server because
        // validation precedes the handshake.
        let sim = SimConfig::fast_test();
        let fx = fixture(ConfigVariant::new(
            "base",
            sim.clone(),
            DtmConfig::default(),
        ));
        let ctx = fx.ctx();
        let backend = RemoteBackend::new(DistConfig::new(vec!["a:1".into(), "a:1".into()], sim));
        let (tx, rx) = mpsc::channel();
        backend.run_cells(&ctx, &tx);
        drop(tx);
        let delivered: Vec<_> = rx.iter().collect();
        assert_eq!(delivered.len(), 1);
        assert!(
            matches!(&delivered[0], Err(SimError::BadInput(m)) if m.contains("more than once"))
        );
    }

    #[test]
    fn duplicate_delivery_emits_once_and_counts_in_obs() {
        let sim = SimConfig::fast_test();
        let fx = fixture(ConfigVariant::new("base", sim, DtmConfig::default()));
        let ctx = fx.ctx();
        let exec = LocalExec::new(&ctx);
        let outcome = exec
            .run_lane_batch(&ctx, &[0], 1)
            .expect("simulates")
            .remove(0);
        let result = outcome.result.clone();

        let sched = Scheduler::new(DispatchState::new(
            &[true],
            crate::dispatch::DispatchConfig::default(),
        ));
        let (tx, rx) = mpsc::channel();
        let emit = Emit {
            ctx: &ctx,
            sched: &sched,
            tx,
        };
        // Mark the cell dispatched twice (speculation), then deliver
        // the same result twice.
        sched.acquire_remote();
        assert!(emit.remote(0, result.clone(), Duration::ZERO, Duration::ZERO, 1000));
        assert!(emit.remote(0, result, Duration::ZERO, Duration::ZERO, 1001));
        drop(emit);
        let delivered: Vec<_> = rx.iter().collect();
        assert_eq!(delivered.len(), 1, "exactly one outcome reaches the runner");
        assert!(delivered[0].is_ok());
        assert_eq!(
            fx.obs.counter("dtm_dist_duplicate_total").get(),
            1,
            "the reconciled duplicate is counted"
        );
        assert_eq!(sched.with_state(|st| st.counts.duplicates), 1);
    }

    #[test]
    fn mismatched_duplicate_is_a_fatal_error() {
        let sim = SimConfig::fast_test();
        let fx = fixture(ConfigVariant::new("base", sim, DtmConfig::default()));
        let ctx = fx.ctx();
        let exec = LocalExec::new(&ctx);
        let outcome = exec
            .run_lane_batch(&ctx, &[0], 1)
            .expect("simulates")
            .remove(0);
        let mut tampered = outcome.result.clone();
        tampered.duty_cycle += 0.25;

        let sched = Scheduler::new(DispatchState::new(
            &[true],
            crate::dispatch::DispatchConfig::default(),
        ));
        let (tx, rx) = mpsc::channel();
        let emit = Emit {
            ctx: &ctx,
            sched: &sched,
            tx,
        };
        sched.acquire_remote();
        assert!(emit.remote(0, outcome.result, Duration::ZERO, Duration::ZERO, 1000));
        assert!(
            !emit.remote(0, tampered, Duration::ZERO, Duration::ZERO, 1001),
            "a byte-different duplicate is fatal"
        );
        assert!(sched.is_aborted());
        drop(emit);
        let delivered: Vec<_> = rx.iter().collect();
        assert_eq!(delivered.len(), 2);
        assert!(delivered[0].is_ok());
        match &delivered[1] {
            Err(SimError::BadInput(msg)) => {
                assert!(msg.contains("determinism violation"), "got: {msg}")
            }
            other => panic!("expected a BadInput error, got {other:?}"),
        }
    }
}

//! [`RemoteBackend`]: a [`dtm_harness::Backend`] that executes a
//! sweep's missed cells on a fleet of `dtm-serve` workers.
//!
//! The determinism argument, end to end: a cell is only eligible for
//! remote dispatch when its wire request — encoded, decoded, and
//! resolved against the worker's advertised base configuration —
//! lands on the **same content address** the local runner computed
//! for that cell ([`request_for_cell`]). The handshake pins the
//! worker's version, base `SimConfig`, and trace-generation config;
//! the response echoes the key, which is re-checked on receipt; and
//! any duplicate completion (speculation, late stragglers) is
//! byte-compared against the first. A distributed sweep therefore
//! either produces results bit-identical to a single-process run or
//! fails loudly — never silently diverges.

use crate::dispatch::{Completion, DispatchConfig, DispatchState, RemoteNext, Scheduler};
use crate::summary::DispatchSummary;
use crate::worker::{Health, Worker, WorkerPool};
use dtm_core::{DtmConfig, GainScheduleConfig, RunResult, SimConfig, SimError};
use dtm_harness::cache::cell_key;
use dtm_harness::cli::SweepArgs;
use dtm_harness::codec::result_to_json;
use dtm_harness::json::Json;
use dtm_harness::{Backend, BackendCtx, CellOutcome, LocalExec};
use dtm_serve::protocol::{Request, Response, ResultSource, SimResponse};
use dtm_serve::request::FAULT_PRESETS;
use dtm_serve::{Client, ServerInfo, SimRequest};
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Remote outcomes carry worker ids offset by this, so ledger readers
/// can tell coordinator-local workers (small ids) from remote ones.
pub const REMOTE_WORKER_BASE: usize = 1000;

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
    /// Straggler age before speculative re-execution; `None` disables.
    pub speculate_after: Option<Duration>,
    /// TCP connect (and handshake read) timeout.
    pub connect_timeout: Duration,
    /// Heartbeat interval for liveness probing of idle-looking workers.
    pub heartbeat: Duration,
    /// Per-worker concurrent-request window override (default: the
    /// worker's advertised thread count, clamped to [1, 8]).
    pub window: Option<usize>,
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
            speculate_after: Some(Duration::from_secs(10)),
            connect_timeout: Duration::from_secs(2),
            heartbeat: Duration::from_secs(1),
            window: None,
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
/// that reproduces it exactly, or `None` when the cell cannot be
/// expressed remotely (a config outside the protocol's vocabulary).
///
/// The proof obligation is discharged mechanically: the candidate
/// request is JSON round-tripped and resolved exactly as the server
/// will resolve it, and accepted only if the resulting cell's content
/// address equals the coordinator's key for cell `i`. Key equality is
/// the determinism guarantee — both sides will run (and cache) the
/// same simulation.
pub fn request_for_cell(
    ctx: &BackendCtx<'_>,
    i: usize,
    expected_base: &SimConfig,
) -> Option<SimRequest> {
    let cell = ctx.cells[i];
    let workload = &ctx.spec.workload_axis()[cell.workload];
    let policy = ctx.spec.policy_axis()[cell.policy];
    let variant = &ctx.spec.variant_axis()[cell.variant];

    // Structural pre-check: the variant's sim must be the server's
    // base with only the wire-expressible overrides applied.
    let mut probe = expected_base.clone();
    probe.duration = variant.sim.duration;
    probe.cores = variant.sim.cores;
    probe.seed = variant.sim.seed;
    if probe != variant.sim {
        return None;
    }
    // Likewise the variant's dtm: the default with only wire-expressible
    // knobs (threshold + the exploration knobs) changed. Knobs outside
    // the protocol's vocabulary (min scale, transition penalties, ...)
    // force local execution.
    let d = &variant.dtm;
    let dtm_probe = DtmConfig {
        threshold: d.threshold,
        pi_kp: d.pi_kp,
        pi_ki: d.pi_ki,
        dvfs_setpoint_margin: d.dvfs_setpoint_margin,
        stopgo_trip_margin: d.stopgo_trip_margin,
        stopgo_stall: d.stopgo_stall,
        migration_interval: d.migration_interval,
        os_tick: d.os_tick,
        gain_schedule: d.gain_schedule,
        ..DtmConfig::default()
    };
    if dtm_probe != *d {
        return None;
    }
    // Adaptive gain schedules ride the wire as the schedule name plus
    // both adaptation parameters spelled out exactly (no
    // default-elision: the f64s must round-trip bit-identically for
    // the key check below to accept).
    let (schedule, adapt_rate, adapt_window_s) = match d.gain_schedule {
        GainScheduleConfig::Fixed => (None, None, None),
        GainScheduleConfig::Rao { alpha, tau_s } => {
            (Some("rao".to_string()), Some(alpha), Some(tau_s))
        }
        GainScheduleConfig::SelfTuning { rate, window_s } => {
            (Some("selftune".to_string()), Some(rate), Some(window_s))
        }
    };
    // Overrides ride the wire only when they differ from the default, so
    // pre-knob configs produce the exact requests (and server-side memo
    // keys) they produced before the knobs existed. Out-of-range values
    // are not filtered here: the server-identical `resolve` below
    // rejects them, which falls through to `None` → local execution.
    let def = DtmConfig::default();
    let over = |cur: f64, default: f64| if cur != default { Some(cur) } else { None };
    let threshold_c = over(d.threshold, def.threshold);

    let benchmarks: Vec<String> = workload.resolve().into_iter().map(|b| b.name).collect();
    let fault_candidates: Vec<Option<String>> = if variant.faults.is_ideal() {
        vec![None]
    } else {
        FAULT_PRESETS
            .iter()
            .skip(1) // "none" is the ideal case above
            .map(|s| Some((*s).to_string()))
            .collect()
    };

    let version = env!("CARGO_PKG_VERSION");
    for fault in fault_candidates {
        let req = SimRequest {
            workload: None,
            benchmarks: benchmarks.clone(),
            policy: policy.wire_name(),
            duration_s: Some(variant.sim.duration),
            cores: Some(variant.sim.cores),
            threshold_c,
            seed: Some(variant.sim.seed),
            fault,
            deadline_ms: None,
            pi_kp: over(d.pi_kp, def.pi_kp),
            pi_ki: over(d.pi_ki, def.pi_ki),
            setpoint_margin_c: over(d.dvfs_setpoint_margin, def.dvfs_setpoint_margin),
            trip_margin_c: over(d.stopgo_trip_margin, def.stopgo_trip_margin),
            stall_s: over(d.stopgo_stall, def.stopgo_stall),
            migration_interval_s: over(d.migration_interval, def.migration_interval),
            os_tick_s: over(d.os_tick, def.os_tick),
            schedule: schedule.clone(),
            adapt_rate,
            adapt_window_s,
        };
        let wire = Json::Obj(req.to_fields());
        let Ok(decoded) = SimRequest::from_json(&wire) else {
            continue;
        };
        let Ok(resolved) = decoded.resolve(expected_base) else {
            continue;
        };
        let key = cell_key(
            &resolved.workload,
            resolved.policy,
            &resolved.variant.sim,
            &resolved.variant.dtm,
            &resolved.variant.faults,
            ctx.lib.config(),
            version,
        );
        if key == ctx.keys[i] {
            return Some(req);
        }
    }
    None
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
        match Client::connect_timeout(addr, cfg.connect_timeout) {
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
    let mut client = Client::connect_timeout(addr, cfg.connect_timeout)
        .and_then(|c| c.with_read_timeout(cfg.connect_timeout))
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
                    let window = cfg.window.unwrap_or_else(|| info.workers.clamp(1, 8));
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
                speculate_after: cfg.speculate_after,
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
        let exec_cell: OnceLock<LocalExec> = OnceLock::new();
        let deadline_ms = cfg.deadline.as_millis() as u64;
        let on_worker_down = |w: &Worker| {
            if w.is_dead() && pool.alive_count() == 0 {
                sched.pool_died();
            }
        };

        std::thread::scope(|s| {
            // Dispatch lanes: `window` concurrent request streams per
            // living worker.
            for w in pool.workers.iter().filter(|w| !w.is_dead()) {
                for _ in 0..w.window {
                    let emit = Emit {
                        ctx,
                        sched: &sched,
                        tx: tx.clone(),
                    };
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
                        while slept < cfg.heartbeat {
                            if done() {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(50));
                            slept += Duration::from_millis(50);
                        }
                        for w in pool.workers.iter().filter(|w| !w.is_dead()) {
                            let alive = Client::connect_timeout(&w.addr, cfg.connect_timeout)
                                .and_then(|mut c| {
                                    c.call_deadline(&Request::Ping, cfg.connect_timeout)
                                })
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
                let emit = Emit {
                    ctx,
                    sched: &sched,
                    tx: tx.clone(),
                };
                let sched = &sched;
                let exec_cell = &exec_cell;
                let local_cells = &local_cells;
                s.spawn(move || {
                    while let Some(id) = sched.acquire_local(true) {
                        let exec = exec_cell.get_or_init(|| LocalExec::new(ctx));
                        match exec.run_cell(ctx, ctx.misses[id], t + 1) {
                            Ok(outcome) => {
                                local_cells.fetch_add(1, Ordering::Relaxed);
                                if obs.is_enabled() {
                                    obs.counter("dtm_dist_local_cells_total").inc();
                                }
                                if !emit.local(id, outcome) {
                                    break;
                                }
                            }
                            Err(e) => {
                                let _ = emit.tx.send(Err(e));
                                sched.abort();
                                break;
                            }
                        }
                    }
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
            let exec = exec_cell.get_or_init(|| LocalExec::new(ctx));
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for wid in 1..=nw {
                    let emit = Emit {
                        ctx,
                        sched: &sched,
                        tx: tx.clone(),
                    };
                    let sched = &sched;
                    let next = &next;
                    let remaining = &remaining;
                    let fallback_cells = &fallback_cells;
                    s.spawn(move || loop {
                        if sched.is_aborted() {
                            break;
                        }
                        let j = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&id) = remaining.get(j) else { break };
                        match exec.run_cell(ctx, ctx.misses[id], wid) {
                            Ok(outcome) => {
                                fallback_cells.fetch_add(1, Ordering::Relaxed);
                                if obs.is_enabled() {
                                    obs.counter("dtm_dist_fallback_cells_total").inc();
                                }
                                if !emit.local(id, outcome) {
                                    break;
                                }
                            }
                            Err(e) => {
                                let _ = emit.tx.send(Err(e));
                                sched.abort();
                                break;
                            }
                        }
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
    use dtm_core::{DtmConfig, FaultConfig, FaultScenario, PolicySpec, SimConfig, WatchdogConfig};
    use dtm_harness::cache::{cell_keys, CellKey};
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

    #[test]
    fn base_config_cell_is_expressible_and_key_checked() {
        let sim = SimConfig::fast_test();
        let fx = fixture(ConfigVariant::new(
            "base",
            sim.clone(),
            DtmConfig::default(),
        ));
        let ctx = fx.ctx();
        let req = request_for_cell(&ctx, 0, &sim).expect("expressible");
        assert_eq!(req.benchmarks, vec!["gzip", "mcf", "gzip", "mcf"]);
        assert!(req.fault.is_none());
        assert!(req.threshold_c.is_none());
        assert_eq!(req.duration_s, Some(sim.duration));
    }

    #[test]
    fn threshold_and_fault_variants_map_to_wire_presets() {
        let sim = SimConfig::fast_test();
        let faults = FaultConfig::protected(
            FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, sim.duration * 0.2),
            WatchdogConfig::enabled(),
        );
        let fx = fixture(
            ConfigVariant::new("hot", sim.clone(), DtmConfig::with_threshold(90.0))
                .with_faults(faults),
        );
        let ctx = fx.ctx();
        let req = request_for_cell(&ctx, 0, &sim).expect("expressible");
        assert_eq!(req.fault.as_deref(), Some("stuck-hot+watchdog"));
        assert_eq!(req.threshold_c, Some(90.0));
    }

    #[test]
    fn tuned_knob_variants_are_expressible_and_key_checked() {
        let sim = SimConfig::fast_test();
        let dtm = DtmConfig {
            pi_kp: 0.02,
            dvfs_setpoint_margin: 1.2,
            migration_interval: 0.05,
            ..DtmConfig::default()
        };
        let fx = fixture(ConfigVariant::new("tuned", sim.clone(), dtm));
        let ctx = fx.ctx();
        let req = request_for_cell(&ctx, 0, &sim).expect("expressible");
        assert_eq!(req.pi_kp, Some(0.02));
        assert_eq!(req.setpoint_margin_c, Some(1.2));
        assert_eq!(req.migration_interval_s, Some(0.05));
        // Paper-default knobs stay off the wire entirely.
        assert!(req.pi_ki.is_none());
        assert!(req.trip_margin_c.is_none());
        assert!(req.stall_s.is_none());
        assert!(req.os_tick_s.is_none());
        assert!(req.threshold_c.is_none());
    }

    #[test]
    fn adaptive_schedule_variants_are_expressible_and_key_checked() {
        let sim = SimConfig::fast_test();
        for (schedule, wire) in [
            (GainScheduleConfig::rao_default(), "rao"),
            (
                GainScheduleConfig::SelfTuning {
                    rate: 0.3,
                    window_s: 0.004,
                },
                "selftune",
            ),
        ] {
            let dtm = DtmConfig {
                gain_schedule: schedule,
                ..DtmConfig::default()
            };
            let fx = fixture(ConfigVariant::new("adaptive", sim.clone(), dtm));
            let ctx = fx.ctx();
            let req = request_for_cell(&ctx, 0, &sim).expect("expressible");
            assert_eq!(req.schedule.as_deref(), Some(wire));
            assert!(req.adapt_rate.is_some() && req.adapt_window_s.is_some());
        }
        // Fixed-gain cells keep the pre-adaptive wire spelling.
        let fx = fixture(ConfigVariant::new(
            "base",
            sim.clone(),
            DtmConfig::default(),
        ));
        let ctx = fx.ctx();
        let req = request_for_cell(&ctx, 0, &sim).expect("expressible");
        assert!(req.schedule.is_none());
        assert!(req.adapt_rate.is_none() && req.adapt_window_s.is_none());
    }

    #[test]
    fn off_vocabulary_dtm_fields_are_inexpressible() {
        // min-scale has no wire spelling; out-of-range knob values are
        // rejected by the server-identical resolve.
        let sim = SimConfig::fast_test();
        for dtm in [
            DtmConfig {
                dvfs_min_scale: 0.5,
                ..DtmConfig::default()
            },
            DtmConfig {
                pi_kp: 99.0, // beyond the wire's accepted range
                ..DtmConfig::default()
            },
        ] {
            let fx = fixture(ConfigVariant::new("odd", sim.clone(), dtm));
            let ctx = fx.ctx();
            assert!(request_for_cell(&ctx, 0, &sim).is_none());
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
        let outcome = exec.run_cell(&ctx, 0, 1).expect("simulates");
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
        let outcome = exec.run_cell(&ctx, 0, 1).expect("simulates");
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

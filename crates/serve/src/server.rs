//! The simulation server: listener, connection handlers, worker pool,
//! and the graceful-drain protocol.
//!
//! ```text
//!            ┌────────────┐   bounded queue    ┌─────────────┐
//!  TCP ──►   │ handler ×N │ ──── push ────►    │  worker ×W  │
//!  accept    │ (1/conn)   │ ◄── mpsc reply ──  │ (simulate / │
//!  loop      └────────────┘                    │  memo/disk) │
//!            admission ctl                     └─────────────┘
//! ```
//!
//! Each accepted connection gets a handler thread that decodes frames
//! and, for `simulate`, resolves the request into a sweep cell. Memo
//! and disk-cache hits are answered inline by the handler (µs-scale
//! work gets no queue hand-off); only cache misses — real simulations
//! — go through admission control. Rejection (queue full or draining)
//! is an immediate `overloaded` response — the server never buffers
//! unbounded work. Workers pop jobs, simulate, and reply over a
//! per-request channel; the handler writes the response back on the
//! connection.
//!
//! **Drain invariant** (pinned by the integration suite): once
//! [`ServerHandle::shutdown`] begins, every request admitted before the
//! queue closed is still answered — with its result, or with `timeout`
//! if its deadline lapses — and only then do the threads exit. So
//! `responses received == accepted − rejected` holds exactly.

use crate::protocol::{
    write_frame, FrameReader, ReadOutcome, Request, Response, ResultSource, ServerInfo, SimResponse,
};
use crate::queue::{BoundedQueue, PushError};
use crate::stats::ServeStats;
use dtm_core::{Experiment, RunResult};
use dtm_harness::{cell_key, CellKey, CellOutcome, Ledger, ResultCache, SweepSpec};
use dtm_obs::ObsHandle;
use dtm_workloads::{standard_workloads, TraceGenConfig, TraceLibrary};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction parameters.
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address
    /// is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Bounded-queue capacity (admission limit).
    pub queue_capacity: usize,
    /// Trace-generation parameters for the shared library.
    pub tracegen: TraceGenConfig,
    /// Base simulation configuration requests override field-by-field.
    pub base_sim: dtm_core::SimConfig,
    /// On-disk result cache (shared keyspace with the sweep harness).
    pub cache: Option<ResultCache>,
    /// Ledger to append one provenance row per simulated request.
    pub ledger: Option<Ledger>,
    /// Generate all standard-workload traces before accepting traffic,
    /// so first requests do not pay trace generation.
    pub prewarm: bool,
    /// Handler poll interval: how often an idle connection checks the
    /// drain flag. Bounds shutdown latency from the handler side.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_capacity: 256,
            tracegen: TraceGenConfig::default(),
            base_sim: dtm_core::SimConfig::default(),
            cache: None,
            ledger: None,
            prewarm: true,
            poll_interval: Duration::from_millis(25),
        }
    }
}

impl ServerConfig {
    /// A configuration suited to tests: short fast-test traces and
    /// runs, no prewarm of the full standard set.
    pub fn fast_test() -> Self {
        ServerConfig {
            tracegen: TraceGenConfig::fast_test(),
            base_sim: dtm_core::SimConfig::fast_test(),
            prewarm: false,
            ..ServerConfig::default()
        }
    }
}

/// One admitted simulate request traveling handler → worker.
struct Job {
    workload: dtm_workloads::Workload,
    policy: dtm_core::PolicySpec,
    variant: dtm_harness::ConfigVariant,
    key: CellKey,
    admitted: Instant,
    deadline: Option<Duration>,
    reply: mpsc::Sender<Response>,
}

/// State shared by the listener, handlers, and workers.
struct Shared {
    queue: BoundedQueue<Job>,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    stats: ServeStats,
    obs: ObsHandle,
    lib: Arc<TraceLibrary>,
    base_sim: dtm_core::SimConfig,
    cache: Option<ResultCache>,
    ledger: Option<Ledger>,
    /// In-memory memo of results by content address: the warm path
    /// (~µs) in front of the on-disk cache (~ms). Bounded in practice
    /// by the number of distinct cells a deployment touches; entries
    /// are a few hundred bytes each.
    memo: Mutex<HashMap<u128, RunResult>>,
    poll_interval: Duration,
    /// Worker-pool size, echoed in the ping capability payload.
    workers: usize,
}

/// The entry point: binds, spawns, and hands back a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds the listener, spawns the worker pool and accept loop, and
    /// returns once the server is accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let obs = ObsHandle::enabled_default();
        let stats = ServeStats::new(&obs);
        if let Some(cache) = &cfg.cache {
            cache.bind_obs(&obs);
        }

        let lib = Arc::new(TraceLibrary::new(cfg.tracegen.clone()));
        if cfg.prewarm {
            // Generate every standard benchmark trace up front, in
            // parallel, so the first wave of requests starts hot.
            std::thread::scope(|s| {
                for w in standard_workloads() {
                    let lib = &lib;
                    s.spawn(move || {
                        for b in w.resolve() {
                            let _ = lib.trace(&b);
                        }
                    });
                }
            });
        }

        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            stats: stats.clone(),
            obs: obs.clone(),
            lib,
            base_sim: cfg.base_sim.clone(),
            cache: cfg.cache,
            ledger: cfg.ledger,
            memo: Mutex::new(HashMap::new()),
            poll_interval: cfg.poll_interval,
            workers: cfg.workers.max(1),
        });

        let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dtm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker thread")
            })
            .collect();

        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("dtm-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &handlers))
                .expect("spawn accept thread")
        };

        Ok(ServerHandle {
            addr,
            obs,
            stats,
            shared,
            workers,
            handlers,
            accept_thread: Some(accept_thread),
        })
    }
}

/// A running server: its address, instruments, and the drain control.
pub struct ServerHandle {
    addr: SocketAddr,
    obs: ObsHandle,
    stats: ServeStats,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's observability registry.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// The server's request-flow instruments.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Whether a client has sent the `shutdown` verb. The owner of the
    /// handle decides when to act on it (see the `dtm_serve` binary).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Acquire)
    }

    /// Gracefully drains and stops the server:
    ///
    /// 1. stop admitting (drain flag + queue close → new simulate
    ///    requests get `overloaded`),
    /// 2. unblock and join the accept loop,
    /// 3. join workers — they finish every already-admitted job first,
    /// 4. join handlers — each writes its last response, then sees the
    ///    drain flag at its next poll and hangs up.
    ///
    /// Every admitted request is answered before this returns.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.queue.close();
        // The accept loop blocks in accept(); a throwaway local
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().unwrap());
        for h in handlers {
            let _ = h.join();
        }
        ShutdownReport {
            accepted: self.stats.accepted.get(),
            rejected: self.stats.rejected.get(),
            completed: self.stats.completed.get(),
            timeouts: self.stats.timeouts.get(),
        }
    }
}

/// Final request-flow accounting returned by a graceful shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Simulate requests admitted over the server's lifetime.
    pub accepted: u64,
    /// Simulate requests refused by admission control.
    pub rejected: u64,
    /// Admitted requests answered with a result.
    pub completed: u64,
    /// Admitted requests answered with `timeout`.
    pub timeouts: u64,
}

impl ShutdownReport {
    /// The drain invariant: admitted == completed + timeouts.
    pub fn fully_drained(&self) -> bool {
        self.accepted == self.completed + self.timeouts
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for conn in listener.incoming() {
        if shared.draining.load(Ordering::Acquire) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared.stats.connections.inc();
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("dtm-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &shared);
            })
            .expect("spawn connection handler");
        // Finished handlers are dropped here, not held until shutdown:
        // each one kept would pin its thread's stack mapping.
        let mut handlers = handlers.lock().expect("handler list lock poisoned");
        handlers.retain(|h| !h.is_finished());
        handlers.push(handle);
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(shared.poll_interval))?;
    let mut reader = FrameReader::new();
    loop {
        let payload = match reader.read(&mut stream)? {
            ReadOutcome::Frame(p) => p,
            ReadOutcome::Eof => return Ok(()),
            ReadOutcome::TimedOut => {
                if shared.draining.load(Ordering::Acquire) {
                    return Ok(());
                }
                continue;
            }
        };
        let response = match Request::decode(&payload) {
            Err(message) => {
                shared.stats.errors.inc();
                Response::Error { message }
            }
            Ok(Request::Ping) => Response::Pong {
                info: Some(ServerInfo {
                    version: env!("CARGO_PKG_VERSION").into(),
                    workers: shared.workers,
                    cache: shared.cache.is_some(),
                    base_sim: format!("{:?}", shared.base_sim),
                    tracegen: format!("{:?}", shared.lib.config()),
                }),
            },
            Ok(Request::Metrics) => Response::Metrics {
                text: shared.obs.prometheus(),
            },
            Ok(Request::Shutdown) => {
                shared.shutdown_requested.store(true, Ordering::Release);
                Response::ShuttingDown
            }
            Ok(Request::Simulate(req)) => serve_simulate(shared, &req),
        };
        write_frame(&mut stream, &response.encode())?;
    }
}

/// Admission path for one simulate request: resolve, key, enqueue,
/// await the worker's reply.
fn serve_simulate(shared: &Arc<Shared>, req: &crate::request::SimRequest) -> Response {
    let resolved = match req.resolve(&shared.base_sim) {
        Ok(r) => r,
        Err(message) => {
            shared.stats.errors.inc();
            return Response::Error { message };
        }
    };
    let key = cell_key(
        &resolved.workload,
        resolved.policy,
        &resolved.variant.sim,
        &resolved.variant.dtm,
        &resolved.variant.faults,
        shared.lib.config(),
        env!("CARGO_PKG_VERSION"),
    );
    // Fast path: memo and disk hits are answered inline (~µs / ~ms),
    // without occupying a worker or paying two queue hand-offs. Only
    // actual simulations contend for admission.
    let admitted = Instant::now();
    if let Some(hit) = shared.memo.lock().unwrap().get(&key.0).cloned() {
        shared.stats.accepted.inc();
        return complete(
            shared,
            key,
            hit,
            ResultSource::Memo,
            admitted,
            Duration::ZERO,
        );
    }
    if let Some(cache) = &shared.cache {
        if let Some(hit) = cache.load(key) {
            shared.memo.lock().unwrap().insert(key.0, hit.clone());
            shared.stats.accepted.inc();
            return complete(
                shared,
                key,
                hit,
                ResultSource::Disk,
                admitted,
                Duration::ZERO,
            );
        }
    }
    if shared.draining.load(Ordering::Acquire) {
        shared.stats.rejected.inc();
        return Response::Overloaded {
            queue_depth: shared.queue.len(),
        };
    }
    let (tx, rx) = mpsc::channel();
    let job = Job {
        workload: resolved.workload,
        policy: resolved.policy,
        variant: resolved.variant,
        key,
        admitted,
        deadline: req.deadline_ms.map(Duration::from_millis),
        reply: tx,
    };
    match shared.queue.push(job) {
        Ok(depth) => {
            shared.stats.accepted.inc();
            shared.stats.queue_depth.set(depth as i64);
        }
        Err((_, PushError::Full | PushError::Closed)) => {
            shared.stats.rejected.inc();
            return Response::Overloaded {
                queue_depth: shared.queue.len(),
            };
        }
    }
    // The worker owns the only sender; a drop without a send cannot
    // happen on the drain path (workers answer every popped job), so a
    // RecvError indicates a worker panic — surface it as an error.
    rx.recv().unwrap_or_else(|_| {
        shared.stats.errors.inc();
        Response::Error {
            message: "internal: worker dropped the request".into(),
        }
    })
}

fn worker_loop(shared: &Arc<Shared>, worker_id: usize) {
    while let Some(job) = shared.queue.pop() {
        shared.stats.queue_depth.set(shared.queue.len() as i64);
        let waited = job.admitted.elapsed();
        if let Some(deadline) = job.deadline {
            if waited > deadline {
                shared.stats.timeouts.inc();
                let _ = job.reply.send(Response::Timeout {
                    waited_ms: waited.as_millis() as u64,
                });
                continue;
            }
        }
        let response = execute(shared, &job, worker_id, waited);
        let _ = job.reply.send(response);
    }
}

/// Records a completion and builds the result response. Every call
/// must be paired with exactly one earlier `accepted` increment — the
/// drain identity `accepted == completed + timeouts` depends on it.
fn complete(
    shared: &Arc<Shared>,
    key: CellKey,
    result: RunResult,
    source: ResultSource,
    admitted: Instant,
    waited: Duration,
) -> Response {
    let wall = admitted.elapsed();
    shared.stats.completed.inc();
    shared.stats.latency.record(wall.as_nanos() as u64);
    shared.stats.queue_wait.record(waited.as_nanos() as u64);
    Response::Result(Box::new(SimResponse {
        key: key.hex(),
        source,
        wall_us: wall.as_micros() as u64,
        queue_us: waited.as_micros() as u64,
        result,
    }))
}

/// Serves one job from the memo, the disk cache, or a fresh simulation.
fn execute(shared: &Arc<Shared>, job: &Job, worker_id: usize, waited: Duration) -> Response {
    // A sibling request may have populated the memo while this one
    // queued; answering from it keeps identical concurrent requests
    // from simulating twice.
    if let Some(hit) = shared.memo.lock().unwrap().get(&job.key.0).cloned() {
        return complete(
            shared,
            job.key,
            hit,
            ResultSource::Memo,
            job.admitted,
            waited,
        );
    }

    let exp = Experiment::new_shared(
        Arc::clone(&shared.lib),
        job.variant.sim.clone(),
        job.variant.dtm,
    )
    .with_faults(job.variant.faults.clone());
    let sim_start = Instant::now();
    let result = match exp.run(&job.workload, job.policy) {
        Ok(r) => r,
        Err(e) => {
            shared.stats.errors.inc();
            return Response::Error {
                message: format!("simulation failed: {e}"),
            };
        }
    };
    // The cell's cache entry and ledger row are those of a one-cell
    // sweep, so they have the bytes a sweep writes for the same cell.
    let spec = SweepSpec::new(vec![job.workload.clone()])
        .policies([job.policy])
        .variant(job.variant.clone());
    let outcome = CellOutcome {
        index: spec.cells()[0],
        key: job.key.hex(),
        result,
        cached: false,
        wall: sim_start.elapsed(),
        queued: waited,
        worker: worker_id,
    };
    shared
        .memo
        .lock()
        .unwrap()
        .insert(job.key.0, outcome.result.clone());
    if let Some(cache) = &shared.cache {
        cache.store_cell(job.key, &spec, outcome.index, &outcome.result);
    }
    if let Some(ledger) = &shared.ledger {
        ledger.append(&spec, &outcome);
    }
    complete(
        shared,
        job.key,
        outcome.result,
        ResultSource::Simulated,
        job.admitted,
        waited,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn finished_connection_handlers_are_not_kept_until_shutdown() {
        let handle = Server::spawn(ServerConfig::fast_test()).expect("server");
        let ping = || {
            let mut c = Client::connect(handle.addr()).expect("connect");
            assert!(matches!(c.call(&Request::Ping), Ok(Response::Pong { .. })));
            c
        };
        // Polls the kept handlers until `done` holds of them.
        let wait = |done: &dyn Fn(&[JoinHandle<()>]) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let kept = handle.handlers.lock().unwrap();
                if done(&kept) {
                    return kept.len();
                }
                drop(kept);
                assert!(Instant::now() < deadline, "handlers never settled");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        for _ in 0..64 {
            drop(ping());
        }
        wait(&|kept| kept.iter().all(JoinHandle::is_finished));
        // One more connection, held open: the accept that keeps its
        // handler drops every finished one first.
        let _open = ping();
        let kept = wait(&|kept| kept.iter().any(|h| !h.is_finished()));
        assert!(kept <= 2, "{kept} handlers kept after 65 connections");
        handle.shutdown();
    }
}

//! The parallel sweep executor: a worker pool over the cells of a
//! [`SweepSpec`], fed by the content-addressed [`ResultCache`] and
//! observed through the run [`Ledger`] and a progress reporter.
//!
//! Execution is delegated to a [`Backend`]: the built-in
//! [`LocalBackend`] is the classic in-process worker pool, while
//! `dtm-dist` provides a remote backend that dispatches cells to a
//! fleet of `dtm-serve` workers over TCP (and can mix in local
//! threads). The runner itself owns everything backend-independent —
//! the cache pass, the ledger, progress reporting, and outcome
//! collection — so every backend produces byte-identical bookkeeping.

use crate::cache::{cell_keys, CellKey, ResultCache};
use crate::ledger::Ledger;
use crate::progress::Progress;
use crate::sweep::{CellIndex, CellOutcome, SweepResults, SweepSpec};
use dtm_core::{Experiment, LockstepBatch, ObsHandle, SimError, SolverBackend};
use dtm_workloads::{Benchmark, TraceLibrary};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Environment variable overriding the worker count.
pub const WORKERS_ENV: &str = "DTM_WORKERS";

/// Environment variable overriding the lockstep lane-batch width.
pub const LANES_ENV: &str = "DTM_LANES";

/// Default lockstep lane-batch width: cells whose variants share a
/// thermal configuration are simulated up to this many at a time with
/// one batched thermal phase per step (see [`dtm_core::LockstepBatch`]).
/// Matches the batched kernel's internal lane block, so full batches
/// are exactly one block wide.
pub const DEFAULT_LANES: usize = 8;

/// Everything a [`Backend`] needs to execute the missed cells of one
/// sweep: the spec and its flattened cells/keys, which cells missed the
/// cache, and the shared infrastructure handles.
pub struct BackendCtx<'a> {
    /// The sweep being executed.
    pub spec: &'a SweepSpec,
    /// All cells of the spec, in canonical order.
    pub cells: &'a [CellIndex],
    /// Content address of each cell (parallel to `cells`).
    pub keys: &'a [CellKey],
    /// Indexes into `cells` that missed the cache and must be executed.
    pub misses: &'a [usize],
    /// The shared trace library.
    pub lib: &'a Arc<TraceLibrary>,
    /// The result cache to publish fresh results into (if any).
    pub cache: Option<&'a ResultCache>,
    /// Observability handle (disabled by default).
    pub obs: &'a ObsHandle,
    /// When the sweep started (queue-wait baseline).
    pub sweep_start: Instant,
    /// The runner's resolved worker count.
    pub workers: usize,
    /// The runner's resolved lane-batch width (1 = no batching).
    pub lanes: usize,
}

impl BackendCtx<'_> {
    /// Publishes a finished cell's result into the sweep's cache (if
    /// one is attached), with the same canonical describe record
    /// regardless of which backend produced the result — so cache
    /// contents are bit-identical across local and remote execution.
    pub fn publish(&self, i: usize, result: &dtm_core::RunResult) {
        if let Some(cache) = self.cache {
            cache.store_cell(self.keys[i], self.spec, self.cells[i], result);
        }
    }

    /// Generates (or disk-loads) the traces every benchmark in `subset`
    /// (indexes into `cells`) needs, across `workers` threads — so
    /// executors replay traces instead of racing to generate them.
    pub fn prewarm(&self, subset: &[usize], workers: usize) {
        let mut benches: Vec<Benchmark> = Vec::new();
        for &i in subset {
            for b in self.spec.workload_axis()[self.cells[i].workload].resolve() {
                if !benches.iter().any(|x| x.name == b.name) {
                    benches.push(b);
                }
            }
        }
        let next = AtomicUsize::new(0);
        let lib = self.lib;
        std::thread::scope(|s| {
            for _ in 0..workers.min(benches.len()).max(1) {
                s.spawn(|| loop {
                    let j = next.fetch_add(1, Ordering::SeqCst);
                    let Some(b) = benches.get(j) else { break };
                    let _ = lib.trace(b);
                });
            }
        });
    }
}

/// Executes lane batches in-process — the shared machinery behind
/// [`LocalBackend`] and any mixed/fallback local execution a remote
/// backend performs. Holds one [`Experiment`] per config
/// variant over the shared trace library, so repeated cells of one
/// variant reuse prewarmed solver state.
pub struct LocalExec {
    experiments: Vec<Experiment>,
}

impl LocalExec {
    /// Builds the per-variant experiments (instrumented when the
    /// context's obs handle is enabled).
    pub fn new(ctx: &BackendCtx<'_>) -> Self {
        let experiments = ctx
            .spec
            .variant_axis()
            .iter()
            .map(|v| {
                Experiment::new_shared(Arc::clone(ctx.lib), v.sim.clone(), v.dtm)
                    .with_faults(v.faults.clone())
                    .with_obs(ctx.obs)
            })
            .collect();
        LocalExec { experiments }
    }

    /// Simulates a lane batch (indexes into `ctx.cells` whose variants
    /// share a thermal configuration; one cell is a batch of one) in
    /// lockstep as worker `wid`, publishes each lane's result to the
    /// cache, and records the runner's per-cell and per-batch
    /// observability (spans, wall/queue histograms, batch and
    /// worker-busy counters). Each distinct workload's traces are
    /// resolved once for the whole batch; every lane that replays that
    /// workload shares the `Arc`s.
    ///
    /// Wall time is the batch's (the lanes ran fused, so per-lane wall
    /// is not separable); results are bit-identical to per-cell runs.
    ///
    /// # Errors
    ///
    /// Propagates the first lane's simulation failure.
    pub fn run_lane_batch(
        &self,
        ctx: &BackendCtx<'_>,
        batch: &[usize],
        wid: usize,
    ) -> Result<Vec<CellOutcome>, SimError> {
        let spec = ctx.spec;
        let obs = ctx.obs;
        let t0 = Instant::now();
        let queued = t0.duration_since(ctx.sweep_start);
        let batch_start_ns = obs.now_ns();

        // One trace resolution per distinct workload in the batch.
        let mut trace_sets: Vec<(usize, Vec<_>)> = Vec::new();
        let mut sims = Vec::with_capacity(batch.len());
        for &i in batch {
            let cell = ctx.cells[i];
            let traces = match trace_sets.iter().find(|(w, _)| *w == cell.workload) {
                Some((_, t)) => t.clone(),
                None => {
                    let t: Vec<_> = spec.workload_axis()[cell.workload]
                        .resolve()
                        .iter()
                        .map(|b| ctx.lib.trace(b))
                        .collect();
                    trace_sets.push((cell.workload, t.clone()));
                    t
                }
            };
            let policy = spec.policy_axis()[cell.policy];
            sims.push(self.experiments[cell.variant].build_with_traces(traces, policy)?);
        }

        let results = LockstepBatch::new(sims).run()?;
        let wall = t0.elapsed();
        let wall_ns = wall.as_nanos() as u64;
        if obs.is_enabled() {
            obs.histogram("dtm_batch_lanes").record(batch.len() as u64);
            obs.counter("dtm_batches_executed_total").inc();
            obs.counter("dtm_batch_lanes_total").add(batch.len() as u64);
            obs.counter("dtm_batch_lane_slots_total")
                .add(ctx.lanes as u64);
            obs.counter(&format!("dtm_worker_{wid}_busy_ns_total"))
                .add(wall_ns);
        }
        let mut out = Vec::with_capacity(batch.len());
        for (&i, result) in batch.iter().zip(results) {
            let cell = ctx.cells[i];
            ctx.publish(i, &result);
            if obs.is_enabled() {
                let workload = &spec.workload_axis()[cell.workload];
                let policy = spec.policy_axis()[cell.policy];
                obs.record_span(
                    "harness",
                    format!("{}/{}", workload.display_name(), policy.name()),
                    batch_start_ns,
                    wall_ns,
                );
                obs.histogram("dtm_cell_wall_ns").record(wall_ns);
                obs.histogram("dtm_cell_queue_ns")
                    .record(queued.as_nanos() as u64);
                obs.counter("dtm_cells_executed_total").inc();
            }
            out.push(CellOutcome {
                index: cell,
                key: ctx.keys[i].hex(),
                result,
                cached: false,
                wall,
                queued,
                worker: wid,
            });
        }
        Ok(out)
    }
}

/// Partitions the missed cells into worker tasks: cells whose variants
/// share a thermal configuration (same floorplan/package, substep, and
/// propagator backend) are grouped — preserving miss order within each
/// group — and chunked into `ctx.lanes`-wide lockstep batches; the rest
/// (non-propagator backends, or `lanes == 1`) stay one cell per task.
///
/// Grouping is a scheduling hint, not a correctness requirement:
/// [`LockstepBatch`] re-checks at run time that its lanes really share
/// one propagator and steps them scalar otherwise, so an over-broad
/// group still produces bit-identical results.
fn lane_batches(ctx: &BackendCtx<'_>) -> Vec<Vec<usize>> {
    let lanes = ctx.lanes.max(1);
    if lanes == 1 {
        return ctx.misses.iter().map(|&i| vec![i]).collect();
    }
    let variants = ctx.spec.variant_axis();
    let variant_key: Vec<Option<String>> = variants
        .iter()
        .map(|v| {
            (v.sim.thermal_solver == SolverBackend::Propagator).then(|| {
                format!(
                    "{}|{:?}|{:?}|{:?}",
                    v.sim.cores, v.sim.package, v.sim.thermal_substep, v.sim.thermal_solver
                )
            })
        })
        .collect();
    let mut tasks: Vec<Vec<usize>> = Vec::new();
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for &i in ctx.misses {
        match &variant_key[ctx.cells[i].variant] {
            Some(key) => match groups.iter_mut().find(|(k, _)| k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            },
            None => tasks.push(vec![i]),
        }
    }
    for (_, members) in groups {
        for chunk in members.chunks(lanes) {
            tasks.push(chunk.to_vec());
        }
    }
    tasks
}

/// A sweep execution strategy: given the missed cells of one sweep,
/// produce one [`CellOutcome`] per cell (in any order) on `tx`.
///
/// Contract: exactly one `Ok(outcome)` per entry of `ctx.misses`
/// (duplicates from speculative execution must be reconciled away by
/// the backend), or at least one `Err` after which remaining cells may
/// be abandoned. `run_cells` blocks until done; the runner collects
/// outcomes concurrently from its own thread.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Executes the missed cells, sending outcomes over `tx`.
    fn run_cells(&self, ctx: &BackendCtx<'_>, tx: &mpsc::Sender<Result<CellOutcome, SimError>>);

    /// One-line description for progress/log output.
    fn label(&self) -> String;
}

/// The classic in-process worker pool: `ctx.workers` threads pulling
/// lane batches (or single cells) off a shared task list, one
/// prewarmed [`Experiment`] per config variant.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalBackend;

impl Backend for LocalBackend {
    fn run_cells(&self, ctx: &BackendCtx<'_>, tx: &mpsc::Sender<Result<CellOutcome, SimError>>) {
        let tasks = lane_batches(ctx);
        let workers = ctx.workers.min(tasks.len().max(1));
        ctx.prewarm(ctx.misses, workers);
        let exec = LocalExec::new(ctx);
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        std::thread::scope(|s| {
            for wid in 1..=workers {
                let tx = tx.clone();
                let exec = &exec;
                let next = &next;
                let abort = &abort;
                let tasks = &tasks;
                s.spawn(move || loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let j = next.fetch_add(1, Ordering::SeqCst);
                    let Some(batch) = tasks.get(j) else { break };
                    match exec.run_lane_batch(ctx, batch, wid) {
                        Ok(outcomes) => {
                            if outcomes.into_iter().any(|o| tx.send(Ok(o)).is_err()) {
                                break;
                            }
                        }
                        Err(e) => {
                            abort.store(true, Ordering::Relaxed);
                            let _ = tx.send(Err(e));
                            break;
                        }
                    }
                });
            }
        });
    }

    fn label(&self) -> String {
        "local".into()
    }
}

/// Executes sweep grids in parallel with caching and a run ledger.
///
/// # Examples
///
/// ```no_run
/// use dtm_core::PolicySpec;
/// use dtm_harness::{SweepRunner, SweepSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = SweepSpec::standard(0.5).policies(PolicySpec::all());
/// let results = SweepRunner::paper_defaults().run(spec)?;
/// eprintln!("{}", results.summary());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SweepRunner {
    lib: Arc<TraceLibrary>,
    workers: Option<usize>,
    lanes: Option<usize>,
    cache: Option<ResultCache>,
    ledger: Option<Ledger>,
    progress: bool,
    obs: ObsHandle,
    backend: Arc<dyn Backend>,
}

impl SweepRunner {
    /// A runner over an explicit trace library, with no cache, no
    /// ledger, and no progress output — the unit-test configuration.
    pub fn bare(lib: TraceLibrary) -> Self {
        SweepRunner::bare_shared(Arc::new(lib))
    }

    /// Like [`SweepRunner::bare`], but over an already-shared trace
    /// library — several runners (e.g. the repeated timing passes of
    /// `exp_profile`) can then reuse one set of pre-warmed traces.
    pub fn bare_shared(lib: Arc<TraceLibrary>) -> Self {
        SweepRunner {
            lib,
            workers: None,
            lanes: None,
            cache: None,
            ledger: None,
            progress: false,
            obs: ObsHandle::disabled(),
            backend: Arc::new(LocalBackend),
        }
    }

    /// The standard experiment configuration: paper-default traces with
    /// the on-disk trace cache, the result cache under `results/cache/`,
    /// the ledger at `results/ledger.jsonl`, and progress reporting on
    /// stderr.
    pub fn paper_defaults() -> Self {
        SweepRunner {
            lib: Arc::new(TraceLibrary::default().with_disk_cache("target/trace-cache")),
            workers: None,
            lanes: None,
            cache: Some(ResultCache::default_location()),
            ledger: Some(Ledger::default_location()),
            progress: true,
            obs: ObsHandle::disabled(),
            backend: Arc::new(LocalBackend),
        }
    }

    /// Overrides the worker count (otherwise `DTM_WORKERS`, otherwise
    /// the machine's available parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Overrides the lockstep lane-batch width (otherwise `DTM_LANES`,
    /// otherwise [`DEFAULT_LANES`]). `1` disables batching: every cell
    /// runs as a batch of one, with a scalar thermal phase. Batching is
    /// an execution strategy only — results, cache contents, and ledger
    /// rows are byte-identical at every width.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = Some(lanes.max(1));
        self
    }

    /// Replaces the result cache (e.g. a per-test temp directory), or
    /// disables caching with `None`.
    pub fn with_cache(mut self, cache: Option<ResultCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Replaces the ledger, or disables it with `None`.
    pub fn with_ledger(mut self, ledger: Option<Ledger>) -> Self {
        self.ledger = ledger;
        self
    }

    /// Disables progress reporting.
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self
    }

    /// Replaces the execution backend (default: [`LocalBackend`]).
    pub fn with_backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches an observability handle. The runner then records
    /// per-cell spans, wall/queue-wait histograms, and worker-busy
    /// counters, binds the result cache's traffic counters and the
    /// initial-state memo's hit and miss counters for the Prometheus
    /// export, and instruments every simulation it launches (so results
    /// carry [`dtm_core::PhaseProfile`]s).
    pub fn with_obs(mut self, obs: &ObsHandle) -> Self {
        self.obs = obs.clone();
        self
    }

    /// The shared trace library.
    pub fn library(&self) -> Arc<TraceLibrary> {
        Arc::clone(&self.lib)
    }

    /// The effective worker count: explicit override, then the
    /// `DTM_WORKERS` environment variable, then available parallelism.
    pub fn worker_count(&self) -> usize {
        if let Some(n) = self.workers {
            return n;
        }
        if let Some(n) = std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            return n.max(1);
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The effective lane-batch width: explicit override, then the
    /// `DTM_LANES` environment variable, then [`DEFAULT_LANES`].
    pub fn lane_count(&self) -> usize {
        if let Some(n) = self.lanes {
            return n;
        }
        if let Some(n) = std::env::var(LANES_ENV)
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            return n.max(1);
        }
        DEFAULT_LANES
    }

    /// Executes every cell of `spec` — cache hits served without
    /// simulation, misses handed to the backend — and returns the
    /// indexed results. The runner is reusable: callers that evaluate
    /// many generated specs (the `dtm-explore` search loop) share one
    /// runner, its trace library, and its cache across calls.
    ///
    /// # Errors
    ///
    /// Returns the first simulation failure; remaining in-flight cells
    /// are abandoned.
    pub fn run(&self, spec: SweepSpec) -> Result<SweepResults, SimError> {
        let sweep_start = Instant::now();
        let obs = self.obs.clone();
        if obs.is_enabled() {
            dtm_core::bind_init_memo_obs(&obs);
            if let Some(cache) = &self.cache {
                cache.bind_obs(&obs);
            }
        }
        let cells = spec.cells();
        let keys = cell_keys(&spec, self.lib.config(), env!("CARGO_PKG_VERSION"));

        // Cache pass: serve whatever is already computed.
        let mut outcomes: Vec<Option<CellOutcome>> = vec![None; cells.len()];
        if let Some(cache) = &self.cache {
            for (i, &key) in keys.iter().enumerate() {
                let t0 = Instant::now();
                if let Some(result) = cache.load(key) {
                    outcomes[i] = Some(CellOutcome {
                        index: cells[i],
                        key: key.hex(),
                        result,
                        cached: true,
                        wall: t0.elapsed(),
                        queued: Duration::ZERO,
                        worker: 0,
                    });
                }
            }
        }
        let misses: Vec<usize> = (0..cells.len())
            .filter(|&i| outcomes[i].is_none())
            .collect();

        let mut progress = Progress::new(cells.len(), self.progress);
        for o in outcomes.iter().flatten() {
            progress.record_hit();
            if let Some(ledger) = self.ledger.as_ref() {
                ledger.append(&spec, o);
            }
        }

        if !misses.is_empty() {
            let ctx = BackendCtx {
                spec: &spec,
                cells: &cells,
                keys: &keys,
                misses: &misses,
                lib: &self.lib,
                cache: self.cache.as_ref(),
                obs: &obs,
                sweep_start,
                workers: self.worker_count(),
                lanes: self.lane_count(),
            };
            let (tx, rx) = mpsc::channel::<Result<CellOutcome, SimError>>();
            let mut first_error: Option<SimError> = None;
            let backend = &self.backend;
            std::thread::scope(|s| {
                s.spawn(move || backend.run_cells(&ctx, &tx));
                // `tx` is moved into (and dropped by) the backend
                // thread, so this loop ends exactly when the backend
                // returns.
                for msg in rx {
                    match msg {
                        Ok(outcome) => {
                            progress.record_executed(outcome.wall);
                            if let Some(ledger) = self.ledger.as_ref() {
                                ledger.append(&spec, &outcome);
                            }
                            let i = outcome.index.workload
                                + spec.workload_axis().len()
                                    * (outcome.index.policy
                                        + spec.policy_axis().len() * outcome.index.variant);
                            outcomes[i] = Some(outcome);
                        }
                        Err(e) => {
                            if first_error.is_none() {
                                first_error = Some(e);
                            }
                        }
                    }
                }
            });

            if let Some(e) = first_error {
                progress.finish();
                return Err(e);
            }
        }
        progress.finish();

        let outcomes: Vec<CellOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every cell resolved"))
            .collect();
        let mut results = SweepResults::new(spec, outcomes);
        if let Some(cache) = &self.cache {
            results = results.with_cache_stats(cache.stats());
        }
        Ok(results)
    }

    /// Executes several sweeps back-to-back on this runner, returning
    /// one [`SweepResults`] per spec in order. This is the
    /// batch-evaluate seam for search engines: each generation of
    /// candidate configs becomes one batch, every spec still flows
    /// through the same cache pass, ledger, and backend as a standalone
    /// run, and cache hits across batches (or across a resume) cost no
    /// simulation.
    ///
    /// # Errors
    ///
    /// Stops at the first failing sweep and returns its error; earlier
    /// specs' results are discarded.
    pub fn run_batch(
        &self,
        specs: impl IntoIterator<Item = SweepSpec>,
    ) -> Result<Vec<SweepResults>, SimError> {
        specs.into_iter().map(|spec| self.run(spec)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_core::PolicySpec;
    use dtm_workloads::{TraceGenConfig, Workload};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dtm-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn tiny_spec() -> SweepSpec {
        // Two workloads × two policies on the fast-test configuration:
        // four cells, each ~100 ms of simulation.
        let spec = SweepSpec::new(vec![
            Workload::new("wa", ["gzip", "mcf", "gzip", "mcf"]),
            Workload::new("wb", ["mesa", "eon", "mesa", "eon"]),
        ]);
        let sim = dtm_core::SimConfig::fast_test();
        let dtm = dtm_core::DtmConfig::default();
        spec.variant(crate::ConfigVariant::new("base", sim, dtm))
            .policies([PolicySpec::baseline(), PolicySpec::best()])
    }

    fn fast_lib() -> TraceLibrary {
        TraceLibrary::new(TraceGenConfig::fast_test())
    }

    #[test]
    fn parallel_results_match_serial_results() {
        let spec = tiny_spec();
        let parallel = SweepRunner::bare(fast_lib())
            .with_workers(4)
            .run(spec.clone())
            .expect("parallel run");

        // Serial reference through the plain Experiment API.
        let exp = Experiment::new(
            fast_lib(),
            dtm_core::SimConfig::fast_test(),
            dtm_core::DtmConfig::default(),
        );
        for (pi, &policy) in spec.policy_axis().iter().enumerate() {
            for (wi, workload) in spec.workload_axis().iter().enumerate() {
                let serial = exp.run(workload, policy).expect("serial run");
                let from_sweep = parallel.get(policy, wi);
                assert_eq!(
                    &serial, from_sweep,
                    "cell (policy {pi}, workload {wi}) diverged between serial and parallel"
                );
            }
        }
        assert_eq!(parallel.executed(), 4);
        assert_eq!(parallel.cache_hits(), 0);
    }

    #[test]
    fn warm_cache_executes_zero_simulations() {
        let dir = tmpdir("warm");
        let cold = SweepRunner::bare(fast_lib())
            .with_cache(Some(ResultCache::new(&dir)))
            .with_workers(2)
            .run(tiny_spec())
            .expect("cold run");
        assert_eq!(cold.executed(), 4);

        let warm = SweepRunner::bare(fast_lib())
            .with_cache(Some(ResultCache::new(&dir)))
            .with_workers(2)
            .run(tiny_spec())
            .expect("warm run");
        assert_eq!(warm.executed(), 0, "warm cache must serve every cell");
        assert_eq!(warm.cache_hits(), 4);
        for (o_cold, o_warm) in cold.outcomes().iter().zip(warm.outcomes()) {
            assert_eq!(o_cold.result, o_warm.result);
            assert_eq!(
                o_cold.result.duty_cycle.to_bits(),
                o_warm.result.duty_cycle.to_bits(),
                "cache hit must be bit-identical"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_experiment_cells_are_shared() {
        // A one-policy sweep is a subset of a two-policy sweep (as
        // Table 5 is of Table 8): its cells must all be cache hits.
        let dir = tmpdir("subset");
        let full = SweepRunner::bare(fast_lib())
            .with_cache(Some(ResultCache::new(&dir)))
            .run(tiny_spec())
            .expect("full run");
        assert_eq!(full.executed(), 4);

        let subset_spec = tiny_spec();
        let subset = SweepRunner::bare(fast_lib())
            .with_cache(Some(ResultCache::new(&dir)))
            .run(subset_spec.policies([])) // same two policies; dedup keeps axes equal
            .expect("subset run");
        assert_eq!(subset.executed(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_records_every_cell() {
        let dir = tmpdir("ledger");
        let ledger_path = dir.join("ledger.jsonl");
        let results = SweepRunner::bare(fast_lib())
            .with_cache(Some(ResultCache::new(dir.join("cache"))))
            .with_ledger(Some(Ledger::open(&ledger_path)))
            .run(tiny_spec())
            .expect("run");
        assert_eq!(results.outcomes().len(), 4);
        let text = std::fs::read_to_string(&ledger_path).unwrap();
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            let v = crate::json::Json::parse(line).expect("ledger line parses");
            assert_eq!(v.field("cached").unwrap(), &crate::json::Json::Bool(false));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observed_sweep_records_cells_and_cache_traffic() {
        let dir = tmpdir("obs");
        let obs = dtm_core::ObsHandle::enabled_default();
        let results = SweepRunner::bare(fast_lib())
            .with_cache(Some(ResultCache::new(&dir)))
            .with_workers(2)
            .with_obs(&obs)
            .run(tiny_spec())
            .expect("run");
        assert_eq!(results.executed(), 4);

        // Cache traffic surfaces both in the results and the footer.
        let stats = results.cache_stats().expect("a cache was attached");
        assert_eq!(stats.probes, 4);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 0);
        assert!(stats.bytes_written > 0);
        assert!(results.summary().contains("cache: 4 probes"));

        // Instrumented runs carry per-phase engine timings.
        for o in results.outcomes() {
            assert!(o.result.phases.is_some(), "profiled run has phase timings");
        }

        // Harness-side metrics landed on the shared handle.
        assert_eq!(obs.counter("dtm_cells_executed_total").get(), 4);
        assert_eq!(obs.histogram("dtm_cell_wall_ns").count(), 4);
        assert_eq!(obs.histogram("dtm_cell_queue_ns").count(), 4);
        assert!(obs.spans_recorded() > 0, "cell + engine spans recorded");
        let prom = obs.prometheus();
        assert!(prom.contains("dtm_cache_probes_total 4"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unobserved_sweep_results_stay_unprofiled() {
        let results = SweepRunner::bare(fast_lib())
            .with_workers(2)
            .run(tiny_spec())
            .expect("run");
        assert!(results.cache_stats().is_none(), "no cache attached");
        for o in results.outcomes() {
            assert!(o.result.phases.is_none());
        }
    }

    #[test]
    fn worker_count_resolution_prefers_explicit() {
        let r = SweepRunner::bare(fast_lib()).with_workers(3);
        assert_eq!(r.worker_count(), 3);
        let r0 = SweepRunner::bare(fast_lib()).with_workers(0);
        assert_eq!(r0.worker_count(), 1, "zero clamps to one");
    }

    #[test]
    fn lane_count_resolution_prefers_explicit() {
        let r = SweepRunner::bare(fast_lib()).with_lanes(3);
        assert_eq!(r.lane_count(), 3);
        let r0 = SweepRunner::bare(fast_lib()).with_lanes(0);
        assert_eq!(r0.lane_count(), 1, "zero clamps to one");
        // No override and (in the test environment) no DTM_LANES: the
        // default width applies.
        if std::env::var(LANES_ENV).is_err() {
            assert_eq!(SweepRunner::bare(fast_lib()).lane_count(), DEFAULT_LANES);
        }
    }

    #[test]
    fn lane_batches_group_by_thermal_config_and_respect_width() {
        // Two variants sharing one thermal config plus a backward-Euler
        // variant: the first two variants' cells coalesce into common
        // batches, the Euler cells stay singletons.
        let sim = dtm_core::SimConfig::fast_test();
        let mut hot_dtm = dtm_core::DtmConfig::default();
        hot_dtm.threshold += 5.0;
        let mut euler_sim = sim.clone();
        euler_sim.thermal_solver = SolverBackend::BackwardEuler;
        let spec = SweepSpec::new(vec![
            Workload::new("wa", ["gzip", "mcf", "gzip", "mcf"]),
            Workload::new("wb", ["mesa", "eon", "mesa", "eon"]),
        ])
        .variant(crate::ConfigVariant::new(
            "base",
            sim.clone(),
            dtm_core::DtmConfig::default(),
        ))
        .add_variant(crate::ConfigVariant::new("hot", sim, hot_dtm))
        .add_variant(crate::ConfigVariant::new(
            "euler",
            euler_sim,
            dtm_core::DtmConfig::default(),
        ))
        .policies([PolicySpec::baseline()]);
        let cells = spec.cells();
        let keys = vec![CellKey(0); cells.len()];
        let misses: Vec<usize> = (0..cells.len()).collect();
        let lib = Arc::new(fast_lib());
        let obs = dtm_core::ObsHandle::disabled();
        let ctx = BackendCtx {
            spec: &spec,
            cells: &cells,
            keys: &keys,
            misses: &misses,
            lib: &lib,
            cache: None,
            obs: &obs,
            sweep_start: Instant::now(),
            workers: 1,
            lanes: 3,
        };
        let tasks = lane_batches(&ctx);
        // 4 propagator cells in one thermal group (3+1 at width 3) plus
        // 2 backward-Euler singletons: 6 cells over 4 tasks.
        assert_eq!(tasks.iter().map(Vec::len).sum::<usize>(), 6);
        assert_eq!(
            tasks.iter().filter(|t| t.len() == 3).count(),
            1,
            "propagator cells chunk into one full width-3 batch: {tasks:?}"
        );
        assert_eq!(
            tasks.iter().filter(|t| t.len() == 1).count(),
            3,
            "one ragged lane plus two Euler singletons: {tasks:?}"
        );
        for t in &tasks {
            assert!(t.len() <= 3, "batch wider than the lane width");
        }
        // Every miss appears exactly once.
        let mut seen: Vec<usize> = tasks.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, misses);
    }

    #[test]
    fn lane_width_does_not_change_results_or_cache_bytes() {
        // The core bit-identity claim at the sweep level: a batched run
        // and a scalar run produce identical outcomes and byte-identical
        // cache directories.
        let spec = tiny_spec();
        let dir1 = tmpdir("lanes1");
        let dir8 = tmpdir("lanes8");
        let scalar = SweepRunner::bare(fast_lib())
            .with_cache(Some(ResultCache::new(&dir1)))
            .with_workers(2)
            .with_lanes(1)
            .run(spec.clone())
            .expect("scalar run");
        let batched = SweepRunner::bare(fast_lib())
            .with_cache(Some(ResultCache::new(&dir8)))
            .with_workers(2)
            .with_lanes(8)
            .run(spec)
            .expect("batched run");
        assert_eq!(scalar.executed(), 4);
        assert_eq!(batched.executed(), 4);
        for (a, b) in scalar.outcomes().iter().zip(batched.outcomes()) {
            assert_eq!(a.result, b.result, "lane width changed a result");
            assert_eq!(a.result.duty_cycle.to_bits(), b.result.duty_cycle.to_bits());
            assert_eq!(a.key, b.key, "lane width changed a cache key");
        }
        let read_dir = |d: &PathBuf| -> Vec<(String, Vec<u8>)> {
            let mut entries: Vec<_> = std::fs::read_dir(d)
                .expect("cache dir")
                .map(|e| {
                    let e = e.unwrap();
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        std::fs::read(e.path()).unwrap(),
                    )
                })
                .collect();
            entries.sort();
            entries
        };
        assert_eq!(
            read_dir(&dir1),
            read_dir(&dir8),
            "cache bytes differ between lane widths"
        );
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir8);
    }

    #[test]
    fn batched_sweep_records_lane_metrics() {
        let obs = dtm_core::ObsHandle::enabled_default();
        let results = SweepRunner::bare(fast_lib())
            .with_workers(1)
            .with_lanes(4)
            .with_obs(&obs)
            .run(tiny_spec())
            .expect("run");
        assert_eq!(results.executed(), 4);
        // 4 cells of one thermal group at width 4: one full batch.
        assert_eq!(obs.histogram("dtm_batch_lanes").count(), 1);
        assert_eq!(obs.counter("dtm_batches_executed_total").get(), 1);
        assert_eq!(obs.counter("dtm_batch_lanes_total").get(), 4);
        assert_eq!(obs.counter("dtm_batch_lane_slots_total").get(), 4);
        // Per-cell accounting is preserved through the batched path.
        assert_eq!(obs.counter("dtm_cells_executed_total").get(), 4);
        assert_eq!(obs.histogram("dtm_cell_wall_ns").count(), 4);

        // At width 1 every cell is a one-lane batch, and counts as one.
        let obs = dtm_core::ObsHandle::enabled_default();
        SweepRunner::bare(fast_lib())
            .with_workers(1)
            .with_lanes(1)
            .with_obs(&obs)
            .run(tiny_spec())
            .expect("run");
        assert_eq!(obs.counter("dtm_batches_executed_total").get(), 4);
        assert_eq!(obs.counter("dtm_batch_lanes_total").get(), 4);
        assert_eq!(obs.counter("dtm_batch_lane_slots_total").get(), 4);
    }

    #[test]
    fn lane_batches_decode_each_workload_trace_once() {
        // The trace-hoisting fix: a lane batch resolves each distinct
        // benchmark at most once (via the prewarm pass plus the
        // per-batch trace map), never once per cell.
        let lib = Arc::new(fast_lib());
        let runner = SweepRunner::bare_shared(Arc::clone(&lib))
            .with_workers(1)
            .with_lanes(8);
        let results = runner.run(tiny_spec()).expect("run");
        assert_eq!(results.executed(), 4);
        // tiny_spec uses 4 distinct benchmarks across its workloads.
        let distinct = 4;
        assert!(
            lib.decode_count() <= distinct,
            "traces decoded {} times for {} distinct benchmarks",
            lib.decode_count(),
            distinct
        );
    }

    #[test]
    fn multiple_workers_are_actually_used() {
        // 12 cells across 4 workers: with seconds-scale cells the pool
        // essentially always spreads; tolerate the theoretical 1-worker
        // degenerate schedule by requiring >1 only.
        let spec = SweepSpec::new(vec![
            Workload::new("wa", ["gzip", "mcf", "gzip", "mcf"]),
            Workload::new("wb", ["mesa", "eon", "mesa", "eon"]),
            Workload::new("wc", ["art", "swim", "art", "swim"]),
        ])
        .variant(crate::ConfigVariant::new(
            "base",
            dtm_core::SimConfig::fast_test(),
            dtm_core::DtmConfig::default(),
        ))
        .policies([
            PolicySpec::baseline(),
            PolicySpec::best(),
            PolicySpec::new(
                dtm_core::ThrottleKind::Dvfs,
                dtm_core::Scope::Global,
                dtm_core::MigrationKind::None,
            ),
            PolicySpec::new(
                dtm_core::ThrottleKind::StopGo,
                dtm_core::Scope::Global,
                dtm_core::MigrationKind::None,
            ),
        ]);
        let results = SweepRunner::bare(fast_lib())
            .with_workers(4)
            .run(spec)
            .expect("run");
        assert_eq!(results.executed(), 12);
        assert!(
            results.workers_used() > 1,
            "expected >1 worker on 12 cells, saw {}",
            results.workers_used()
        );
    }

    /// A backend that serves every missed cell through [`LocalExec`]
    /// one at a time — exercises the Backend seam itself.
    #[derive(Debug)]
    struct SerialBackend;

    impl Backend for SerialBackend {
        fn run_cells(
            &self,
            ctx: &BackendCtx<'_>,
            tx: &mpsc::Sender<Result<CellOutcome, SimError>>,
        ) {
            ctx.prewarm(ctx.misses, 1);
            let exec = LocalExec::new(ctx);
            for &i in ctx.misses {
                let r = exec.run_lane_batch(ctx, &[i], 7).map(|mut o| o.remove(0));
                let failed = r.is_err();
                let _ = tx.send(r);
                if failed {
                    break;
                }
            }
        }

        fn label(&self) -> String {
            "serial-test".into()
        }
    }

    #[test]
    fn batch_runs_share_runner_and_cache() {
        let dir = tmpdir("batch");
        let runner = SweepRunner::bare(fast_lib()).with_cache(Some(ResultCache::new(&dir)));
        let batch = runner.run_batch([tiny_spec(), tiny_spec()]).expect("batch");
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].executed(), 4);
        assert_eq!(batch[1].executed(), 0, "second spec served from cache");
        assert_eq!(batch[1].cache_hits(), 4);
        // The runner survives the batch: a later standalone call reuses
        // the same library and cache.
        let again = runner.run(tiny_spec()).expect("reuse");
        assert_eq!(again.executed(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn custom_backend_produces_identical_results() {
        let spec = tiny_spec();
        let local = SweepRunner::bare(fast_lib())
            .with_workers(2)
            .run(spec.clone())
            .expect("local run");
        let custom = SweepRunner::bare(fast_lib())
            .with_backend(Arc::new(SerialBackend))
            .run(spec)
            .expect("custom-backend run");
        assert_eq!(custom.executed(), 4);
        for (a, b) in local.outcomes().iter().zip(custom.outcomes()) {
            assert_eq!(a.result, b.result, "backend changed a result");
            assert_eq!(a.result.duty_cycle.to_bits(), b.result.duty_cycle.to_bits());
            assert_eq!(b.worker, 7, "custom backend's worker id is preserved");
        }
    }
}

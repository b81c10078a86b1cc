//! `table8_cold` and `table8_warm`: the Table 8 grid through
//! `SweepRunner::run`, and its traced decomposition into the calls the
//! local backend makes.

use crate::env::{self, table8_benchmarks};
use crate::inputs;
use crate::oracle::Pinned;
use crate::spans::{Recorder, SpanId, ROOT};
use crate::stats::{mean, median, Reservoir};
use crate::{Ctx, Outcome};
use dtm_core::{Experiment, LockstepBatch, RunResult};
use dtm_harness::codec::{result_from_json, result_to_json};
use dtm_harness::json::Json;
use dtm_harness::{
    cell_key, CellIndex, CellKey, ResultCache, SweepResults, SweepRunner, SweepSpec, DEFAULT_LANES,
};
use dtm_workloads::{TraceGenConfig, TraceLibrary};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Trace-load setups per `table8_cold` run (`setup_s` is their median).
const COLD_SETUPS: usize = 5;
/// Trace-load plus cold-fill setups per `table8_warm` run.
const WARM_SETUPS: usize = 2;
/// Plain/decomposed warm-sweep pairs in a traced `table8_warm` run.
const WARM_TRACED_PAIRS: usize = 40;

/// The runner every timed sweep uses: one worker, the default lane
/// width, and a result cache at `cache_dir`.
fn runner(lib: &Arc<TraceLibrary>, cache_dir: &Path) -> SweepRunner {
    SweepRunner::bare_shared(Arc::clone(lib))
        .with_workers(1)
        .with_lanes(DEFAULT_LANES)
        .with_cache(Some(ResultCache::new(cache_dir)))
}

/// Failed cells of one sweep: wrong physics, or served from the wrong
/// place (`cached` must equal `want_cached`).
fn check(results: &SweepResults, pinned: &Pinned, want_cached: bool) -> u64 {
    let spec = results.spec();
    results
        .outcomes()
        .iter()
        .filter(|o| {
            let w = &spec.workload_axis()[o.index.workload];
            let p = spec.policy_axis()[o.index.policy];
            o.cached != want_cached || !pinned.matches(&w.id, &p.wire_name(), &o.result)
        })
        .count() as u64
}

/// Each cell's latency (µs) as the runner reports it: `queued + wall`,
/// the time from sweep start to the cell's result. A simulated cell
/// waits for its lane batch and then the batch; a cache hit is served
/// in the cache pass with no wait, its wall being the `load`.
fn cell_latencies_us(results: &SweepResults) -> impl Iterator<Item = f64> + '_ {
    results
        .outcomes()
        .iter()
        .map(|o| (o.queued + o.wall).as_secs_f64() * 1e6)
}

fn run_sweep(runner: &SweepRunner, spec: &SweepSpec) -> Result<(SweepResults, f64), String> {
    let spec = spec.clone();
    let t = Instant::now();
    let results = runner.run(spec).map_err(|e| format!("sweep failed: {e}"))?;
    Ok((results, t.elapsed().as_secs_f64()))
}

/// Untraced `table8_cold`: whole cold sweeps, each into an empty result
/// cache, until the run's seconds are spent.
pub fn cold(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut lib = None;
    for _ in 0..COLD_SETUPS {
        drop(lib.take());
        let t = Instant::now();
        lib = Some(env::load_traces(&ctx.traces));
        setups.push(t.elapsed().as_secs_f64());
    }
    let lib = lib.expect("at least one setup");
    let spec = inputs::table8_spec(ctx.seed);
    let mut out = Outcome::default();
    let mut latency_us = Reservoir::new(ctx.seed);
    let start = Instant::now();
    while out.attempted == 0 || start.elapsed() < ctx.seconds {
        let runner = runner(&lib, &ctx.scratch.fresh("cold"));
        out.attempted += 144;
        match run_sweep(&runner, &spec) {
            Ok((results, _)) => {
                out.failed += check(&results, &ctx.pinned, false);
                cell_latencies_us(&results).for_each(|l| latency_us.push(l));
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                out.failed += 144;
            }
        }
    }
    let region_s = start.elapsed().as_secs_f64();
    out.e2e(median(&setups), out.attempted as f64, region_s, &latency_us)?;
    Ok(out)
}

/// Untraced `table8_warm`: setup fills a result cache with one cold
/// sweep; the timed part repeats the sweep with every cell a hit.
pub fn warm(ctx: &mut Ctx) -> Result<Outcome, String> {
    let spec = inputs::table8_spec(ctx.seed);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut filled = None;
    for _ in 0..WARM_SETUPS {
        drop(filled.take());
        let t = Instant::now();
        let lib = env::load_traces(&ctx.traces);
        let runner = runner(&lib, &ctx.scratch.fresh("warm"));
        let (results, _) = run_sweep(&runner, &spec)?;
        setups.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        out.failed += u64::from(check(&results, &ctx.pinned, false) > 0);
        filled = Some(runner);
    }
    let runner = filled.expect("at least one setup");
    let mut latency_us = Reservoir::new(ctx.seed);
    let mut sweeps = 0;
    let start = Instant::now();
    while sweeps == 0 || start.elapsed() < ctx.seconds {
        sweeps += 1;
        out.attempted += 1;
        match run_sweep(&runner, &spec) {
            Ok((results, _)) => {
                cell_latencies_us(&results).for_each(|l| latency_us.push(l));
                out.failed += u64::from(check(&results, &ctx.pinned, true) > 0);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                out.failed += 1;
            }
        }
    }
    let region_s = start.elapsed().as_secs_f64();
    out.e2e(
        median(&setups),
        latency_us.seen() as f64,
        region_s,
        &latency_us,
    )?;
    Ok(out)
}

/// The crate version the harness folds into cell keys, read back from
/// the describe record of an entry the plain runner wrote.
fn harness_version(cache_dir: &Path) -> Result<String, String> {
    let entry = std::fs::read_dir(cache_dir)
        .map_err(|e| format!("read {}: {e}", cache_dir.display()))?
        .filter_map(Result::ok)
        .find(|e| e.path().extension().is_some_and(|x| x == "json"))
        .ok_or("plain sweep wrote no cache entry")?;
    let text = std::fs::read_to_string(entry.path()).map_err(|e| e.to_string())?;
    let json = Json::parse(&text).map_err(|e| e.to_string())?;
    json.field("inputs")
        .and_then(|i| i.field("version"))
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| e.to_string())
}

/// The describe record `BackendCtx::publish` stores beside a result, so
/// decomposed and plain cache entries are byte-identical.
fn describe(spec: &SweepSpec, cell: CellIndex, version: &str) -> Json {
    let w = &spec.workload_axis()[cell.workload];
    let v = &spec.variant_axis()[cell.variant];
    Json::Obj(vec![
        ("workload".into(), Json::str(w.display_name())),
        ("mix".into(), Json::str(w.mix_label())),
        (
            "policy".into(),
            Json::str(spec.policy_axis()[cell.policy].name()),
        ),
        ("variant".into(), Json::str(&v.name)),
        ("version".into(), Json::str(version)),
    ])
}

/// The cold sweep as the local backend runs it, one span per public
/// call: `cell_key` and a cache probe per cell, then per lane batch of
/// [`DEFAULT_LANES`] cells in cell order (the grid is one thermal
/// group): trace lookups, `build_with_traces` per lane,
/// `LockstepBatch::run`, and `store` per lane.
fn decomposed_cold(
    rec: &mut Recorder,
    root: SpanId,
    lib: &Arc<TraceLibrary>,
    spec: &SweepSpec,
    cache: &ResultCache,
    version: &str,
) -> Result<(Vec<CellKey>, Vec<RunResult>), String> {
    let cells = spec.cells();
    let tracegen = lib.config().clone();
    let keys: Vec<CellKey> = cells
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            rec.time("harness.cell_key", root, i as u64, || {
                key(spec, c, &tracegen, version)
            })
        })
        .collect();
    for (i, &key) in keys.iter().enumerate() {
        if rec
            .time("harness.cache_load", root, i as u64, || cache.load(key))
            .is_some()
        {
            return Err("cold decomposition found a warm cache".into());
        }
    }
    let variant = &spec.variant_axis()[0];
    let exp = Experiment::new_shared(Arc::clone(lib), variant.sim.clone(), variant.dtm)
        .with_faults(variant.faults.clone());
    let order: Vec<usize> = (0..cells.len()).collect();
    let mut results = Vec::with_capacity(cells.len());
    for (b, chunk) in order.chunks(DEFAULT_LANES).enumerate() {
        let batch = rec.begin("bench.lane_batch", root, b as u64);
        let mut trace_sets: Vec<(usize, Vec<_>)> = Vec::new();
        let mut sims = Vec::with_capacity(chunk.len());
        for &i in chunk {
            let cell = cells[i];
            let traces = match trace_sets.iter().find(|(w, _)| *w == cell.workload) {
                Some((_, t)) => t.clone(),
                None => {
                    let benches = spec.workload_axis()[cell.workload].resolve();
                    let t: Vec<_> = rec.time("workloads.trace", batch, i as u64, || {
                        benches.iter().map(|b| lib.trace(b)).collect()
                    });
                    trace_sets.push((cell.workload, t.clone()));
                    t
                }
            };
            let policy = spec.policy_axis()[cell.policy];
            let sim = rec
                .time("core.build_with_traces", batch, i as u64, || {
                    exp.build_with_traces(traces, policy)
                })
                .map_err(|e| format!("build: {e}"))?;
            sims.push(sim);
        }
        let lanes = rec
            .time("core.lockstep_run", batch, b as u64, || {
                LockstepBatch::new(sims).run()
            })
            .map_err(|e| format!("lockstep: {e}"))?;
        for (&i, result) in chunk.iter().zip(lanes) {
            let describe = describe(spec, cells[i], version);
            rec.time("harness.cache_store", batch, i as u64, || {
                cache.store(keys[i], &describe, &result)
            });
            results.push(result);
        }
        rec.end(batch);
    }
    Ok((keys, results))
}

fn key(spec: &SweepSpec, c: CellIndex, tracegen: &TraceGenConfig, version: &str) -> CellKey {
    let v = &spec.variant_axis()[c.variant];
    cell_key(
        &spec.workload_axis()[c.workload],
        spec.policy_axis()[c.policy],
        &v.sim,
        &v.dtm,
        &v.faults,
        tracegen,
        version,
    )
}

/// A warm sweep as the runner's cache pass runs it: `cell_key` and a
/// hitting `load` per cell.
fn decomposed_warm(
    rec: &mut Recorder,
    root: SpanId,
    spec: &SweepSpec,
    tracegen: &TraceGenConfig,
    cache: &ResultCache,
    version: &str,
) -> Vec<Option<RunResult>> {
    spec.cells()
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let key = rec.time("harness.cell_key", root, i as u64, || {
                key(spec, c, tracegen, version)
            });
            rec.time("harness.cache_load", root, i as u64, || cache.load(key))
        })
        .collect()
}

fn pinned_ok(spec: &SweepSpec, pinned: &Pinned, c: CellIndex, result: &RunResult) -> bool {
    pinned.matches(
        &spec.workload_axis()[c.workload].id,
        &spec.policy_axis()[c.policy].wire_name(),
        result,
    )
}

fn cache_bytes(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut entries = Vec::new();
    for e in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let path = e.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        entries.push((name, std::fs::read(&path).map_err(|e| e.to_string())?));
    }
    entries.sort();
    Ok(entries)
}

/// Which part of a traced run this sweep section is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The `table8_cold` main part: reconciles the decomposed cold sweep.
    Cold,
    /// The `table8_warm` main part: reconciles the decomposed warm sweeps.
    Warm,
    /// A one-batch sample of the layers for another workload's run.
    Sample,
}

/// The traced sweep section: a plain `SweepRunner::run` cold sweep, the
/// same sweep decomposed, then plain and decomposed warm sweeps in
/// alternation. Checks that the decomposition does exactly the plain
/// run's work (same keys, bit-identical results, byte-identical cache
/// entries) and reports the workloads, core and harness layers.
pub fn traced(ctx: &mut Ctx, rec: &mut Recorder, role: Role) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let full = inputs::table8_spec(ctx.seed);
    let spec = if role == Role::Sample {
        // One full lane batch: the first eight cells of the permuted grid.
        let mut w = full.workload_axis().to_vec();
        w.truncate(DEFAULT_LANES);
        SweepSpec::new(w)
            .variant(full.variant_axis()[0].clone())
            .policies([full.policy_axis()[0]])
    } else {
        full
    };
    let cells = spec.cells();
    let n = cells.len();

    // Trace load, the table8 workloads' setup.
    let setup = rec.begin("bench.setup", ROOT, 0);
    let lib = TraceLibrary::new(TraceGenConfig::default()).with_disk_cache(&ctx.traces);
    for (i, b) in table8_benchmarks().iter().enumerate() {
        rec.time("workloads.trace_load", setup, i as u64, || lib.trace(b));
    }
    rec.end(setup);
    let lib = Arc::new(lib);
    let tracegen = lib.config().clone();

    // Plain cold sweep, the same sweep decomposed, and a second plain
    // sweep, so slow host drift cancels out of the plain reference.
    let plain_dir = ctx.scratch.fresh("plain");
    let plain = runner(&lib, &plain_dir);
    let (plain_cold, plain_before_s) = run_sweep(&plain, &spec)?;
    out.attempted += n as u64;
    out.failed += check(&plain_cold, &ctx.pinned, false);
    let version = harness_version(&plain_dir)?;

    let dec_dir = ctx.scratch.fresh("decomposed");
    let dec_cache = ResultCache::new(&dec_dir);
    let cold_root = rec.begin("bench.cold_sweep", ROOT, 0);
    let (keys, results) = decomposed_cold(rec, cold_root, &lib, &spec, &dec_cache, &version)?;
    rec.end(cold_root);
    out.attempted += n as u64;
    for (i, r) in results.iter().enumerate() {
        let same_as_plain = plain_cold.outcomes()[i].key == keys[i].hex()
            && crate::oracle::physics_digest(&plain_cold.outcomes()[i].result)
                == crate::oracle::physics_digest(r);
        out.failed += u64::from(!same_as_plain || !pinned_ok(&spec, &ctx.pinned, cells[i], r));
    }
    if cache_bytes(&plain_dir)? != cache_bytes(&dec_dir)? {
        return Err("decomposed cold sweep wrote different cache bytes than SweepRunner".into());
    }
    let (plain_after, plain_after_s) =
        run_sweep(&runner(&lib, &ctx.scratch.fresh("plain")), &spec)?;
    out.attempted += n as u64;
    out.failed += check(&plain_after, &ctx.pinned, false);
    let plain_cold_s = (plain_before_s + plain_after_s) / 2.0;
    for (i, r) in results.iter().enumerate() {
        rec.replay("harness.result_encode", i as u64, || result_to_json(r));
    }

    // Warm sweeps, plain and decomposed in alternation.
    let pairs = if role == Role::Warm {
        WARM_TRACED_PAIRS
    } else {
        2
    };
    let mut plain_warm_s = Vec::new();
    let mut warm_roots = Vec::new();
    for k in 0..pairs {
        let (r, s) = run_sweep(&plain, &spec)?;
        plain_warm_s.push(s);
        out.attempted += 1;
        out.failed += u64::from(check(&r, &ctx.pinned, true) > 0);
        let root = rec.begin("bench.warm_sweep", ROOT, k as u64);
        let loaded = decomposed_warm(rec, root, &spec, &tracegen, &dec_cache, &version);
        rec.end(root);
        warm_roots.push(root);
        out.attempted += 1;
        let bad = loaded.iter().enumerate().any(|(i, r)| {
            r.as_ref()
                .is_none_or(|r| !pinned_ok(&spec, &ctx.pinned, cells[i], r))
        });
        out.failed += u64::from(bad);
    }
    // Split a hit into its parse and decode on the same entry bytes.
    for (i, &key) in keys.iter().enumerate() {
        let text = std::fs::read_to_string(dec_cache.path(key)).map_err(|e| e.to_string())?;
        let json = rec
            .replay("harness.json_parse", i as u64, || Json::parse(&text))
            .map_err(|e| e.to_string())?;
        let field = json.field("result").map_err(|e| e.to_string())?;
        rec.replay("harness.result_decode", i as u64, || {
            result_from_json(field)
        })
        .map_err(|e| e.to_string())?;
    }

    // Layer metrics.
    let us = |name: &str| mean(&rec.durations(name)) / 1e3;
    let loads = rec.durations("harness.cache_load");
    // Cold probes miss; the hits are the warm sweeps' loads.
    let hit_loads = &loads[n..];
    let steps = crate::layers::steps_per_cell(lib.trace(&table8_benchmarks()[0]).dt());
    let lockstep = rec.durations("core.lockstep_run");
    let lane_steps = steps * n as u64;
    out.metric("workloads.trace_load_us", us("workloads.trace_load"), "us");
    out.metric(
        "workloads.trace_decodes",
        lib.decode_count() as f64,
        "count",
    );
    out.metric("core.build_ms", us("core.build_with_traces") / 1e3, "ms");
    out.metric(
        "core.lockstep_ns_per_lane_step",
        lockstep.iter().sum::<f64>() / lane_steps as f64,
        "ns",
    );
    out.metric("core.batches", lockstep.len() as f64, "count");
    out.metric("core.lane_steps", lane_steps as f64, "count");
    out.metric(
        "core.lane_occupancy",
        lane_steps as f64 / (lockstep.len() * DEFAULT_LANES) as f64 / steps as f64,
        "ratio",
    );
    out.metric("harness.cell_key_us", us("harness.cell_key"), "us");
    out.metric("harness.cache_load_us", mean(hit_loads) / 1e3, "us");
    out.metric("harness.json_parse_us", us("harness.json_parse"), "us");
    out.metric(
        "harness.result_decode_us",
        us("harness.result_decode"),
        "us",
    );
    out.metric("harness.cache_store_us", us("harness.cache_store"), "us");
    out.metric(
        "harness.result_encode_us",
        us("harness.result_encode"),
        "us",
    );
    out.metric(
        "harness.cache_hit_ratio",
        dec_cache.stats().hit_rate(),
        "ratio",
    );

    // The part this role reconciles: its decomposed roots and the plain
    // sweeps they are compared with.
    let (roots, plain_s) = match role {
        Role::Warm => (warm_roots, plain_warm_s),
        Role::Cold | Role::Sample => (vec![cold_root], vec![plain_cold_s]),
    };
    let mut layers = std::collections::BTreeMap::new();
    let mut calls = Vec::new();
    for &root in &roots {
        let self_ns = rec.self_times(root);
        calls.push(
            self_ns
                .iter()
                .filter(|(l, _)| **l != "bench")
                .map(|(_, v)| v)
                .sum::<f64>(),
        );
        for (l, v) in self_ns {
            *layers.entry(l).or_insert(0.0) += v;
        }
    }
    // The runner's own work: a plain sweep minus the calls it decomposes into.
    out.metric(
        "harness.runner_residue_ms",
        (median(&plain_s) * 1e9 - median(&calls)) / 1e6,
        "ms",
    );
    if role != Role::Sample {
        let walls: Vec<f64> = roots.iter().map(|&r| rec.span(r).dur_ns() as f64).collect();
        let overhead = median(&walls) / (median(&plain_s) * 1e9) - 1.0;
        out.reconcile(&layers, walls.iter().sum(), overhead);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::physics_digest;
    use dtm_core::{DtmConfig, SimConfig};
    use dtm_harness::ConfigVariant;

    /// Per-cell digests of a small fast-config grid under the seed's
    /// permutation, keyed by (workload, policy).
    fn digests(seed: u64) -> Vec<(String, String, u64)> {
        let full = inputs::table8_spec(seed);
        let w: Vec<_> = full
            .workload_axis()
            .iter()
            .filter(|w| ["workload1", "workload5", "workload9"].contains(&w.id.as_str()))
            .cloned()
            .collect();
        let spec = SweepSpec::new(w)
            .variant(ConfigVariant::new(
                "fast",
                SimConfig::fast_test(),
                DtmConfig::default(),
            ))
            .policies(full.policy_axis().iter().copied());
        let results = SweepRunner::bare(TraceLibrary::new(TraceGenConfig::fast_test()))
            .with_workers(1)
            .with_lanes(DEFAULT_LANES)
            .with_cache(None)
            .run(spec)
            .expect("sweep");
        let spec = results.spec();
        let mut out: Vec<_> = results
            .outcomes()
            .iter()
            .map(|o| {
                (
                    spec.workload_axis()[o.index.workload].id.clone(),
                    spec.policy_axis()[o.index.policy].wire_name(),
                    physics_digest(&o.result),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn two_seeds_yield_the_same_digest() {
        assert_ne!(
            inputs::table8_spec(1).policy_axis(),
            inputs::table8_spec(2).policy_axis(),
            "the seeds must batch the cells differently"
        );
        let a = digests(1);
        assert_eq!(a.len(), 36);
        assert_eq!(a, digests(2));
    }
}

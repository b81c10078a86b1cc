//! Power-trace generation and caching.
//!
//! Mirrors the study's toolflow (Figure 2): each benchmark is run through
//! the performance model (Turandot role) and the power model (PowerTimer
//! role) to produce a looping power trace of 27.78 µs samples, which the
//! thermal/timing simulator then replays under DTM control.

use crate::profiles::Benchmark;
use dtm_microarch::{CoreConfig, CoreSim};
use dtm_power::{PowerModel, PowerTrace};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Process-wide uniquifier for trace temp-file names: threads share a
/// process id.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The trace store of the experiment binaries and `dtm_serve`, relative
/// to the working directory (the repository root).
pub const TRACE_STORE: &str = "target/trace-cache";

/// Trace-generation parameters.
#[derive(Debug, Clone)]
pub struct TraceGenConfig {
    /// Core model configuration.
    pub core: CoreConfig,
    /// Power calibration.
    pub power: PowerModel,
    /// Trace length in samples (before looping). 720 samples = 20 ms.
    pub samples: usize,
    /// Statistical sampling factor for the performance model (1 = exact;
    /// 5 simulates 20 k of every 100 k cycles and extrapolates).
    pub sampling: u64,
    /// Warm-up cycles before recording (cache/predictor warm-up).
    pub warmup_cycles: u64,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        let core = CoreConfig::default();
        let power = PowerModel::default_90nm(core.clock_hz);
        TraceGenConfig {
            core,
            power,
            samples: 720,
            sampling: 5,
            warmup_cycles: 500_000,
        }
    }
}

impl TraceGenConfig {
    /// A small/fast configuration for unit tests.
    pub fn fast_test() -> Self {
        TraceGenConfig {
            samples: 72,
            sampling: 10,
            warmup_cycles: 100_000,
            ..TraceGenConfig::default()
        }
    }
}

/// Generates the looping power trace for one benchmark.
///
/// Phase-varying benchmarks switch stream profiles inside the trace
/// according to their [`crate::PhaseSpec`]; the trace length is extended
/// to a whole number of phase periods so the loop is seamless.
pub fn generate_trace(bench: &Benchmark, cfg: &TraceGenConfig) -> PowerTrace {
    let mut samples_target = cfg.samples.max(1);
    if let Some(phase) = &bench.phase {
        let period = phase.period_samples as usize;
        samples_target = samples_target.div_ceil(period) * period;
    }

    let mut core = CoreSim::new(cfg.core.clone(), bench.profile, bench.seed());
    core.run_cycles(cfg.warmup_cycles.max(1));

    let mut samples = Vec::with_capacity(samples_target);
    for i in 0..samples_target {
        if let Some(phase) = &bench.phase {
            let pos = i % phase.period_samples as usize;
            let in_base = (pos as f64) < phase.base_duty * phase.period_samples as f64;
            core.set_profile(if in_base { bench.profile } else { phase.alt });
        }
        let activity = core.run_sample(cfg.sampling);
        samples.push(cfg.power.convert(&activity));
    }
    PowerTrace::new(bench.name.clone(), cfg.core.sample_period(), samples)
}

/// A thread-safe, lazily-populated cache of benchmark traces.
///
/// Trace generation is deterministic, so the cache is purely a
/// performance optimization for experiment drivers that replay the same
/// benchmark in many workloads and policies.
#[derive(Debug)]
pub struct TraceLibrary {
    cfg: TraceGenConfig,
    /// `cfg`'s half of every store file's fingerprint, spelled once.
    cfg_spelling: String,
    cache: Mutex<HashMap<String, Arc<PowerTrace>>>,
    disk_dir: Option<PathBuf>,
    decodes: AtomicU64,
}

impl TraceLibrary {
    /// Creates an empty library with the given generation parameters.
    pub fn new(cfg: TraceGenConfig) -> Self {
        let cfg_spelling = format!(
            "|{:?}|{:?}|{}|{}|{}",
            cfg.core, cfg.power, cfg.samples, cfg.sampling, cfg.warmup_cycles
        );
        TraceLibrary {
            cfg,
            cfg_spelling,
            cache: Mutex::new(HashMap::new()),
            disk_dir: None,
            decodes: AtomicU64::new(0),
        }
    }

    /// Enables a persistent on-disk cache: traces are stored under
    /// `dir` keyed by benchmark name and a fingerprint of the whole
    /// benchmark and the generation parameters, so reruns (and other
    /// processes) skip the expensive performance-model pass. Generation
    /// is deterministic, making the cache purely an optimization.
    pub fn with_disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }

    /// A stable fingerprint of `bench`'s trace inputs (FNV-1a over the
    /// benchmark's `Debug` spelling, as the cell key spells it, and the
    /// generation parameters), used in disk-cache file names: editing a
    /// profile renames its trace file as it rekeys its cells.
    fn fingerprint(&self, bench: &Benchmark) -> u64 {
        let fold = |h: u64, s: &str| {
            s.bytes()
                .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
        };
        fold(
            fold(0xcbf2_9ce4_8422_2325, &format!("{bench:?}")),
            &self.cfg_spelling,
        )
    }

    fn disk_path(&self, bench: &Benchmark) -> Option<PathBuf> {
        self.disk_dir.as_ref().map(|d| {
            d.join(format!(
                "{}-{:016x}.dtmtrace",
                bench.name,
                self.fingerprint(bench)
            ))
        })
    }

    /// The generation configuration.
    pub fn config(&self) -> &TraceGenConfig {
        &self.cfg
    }

    /// Returns (generating on first use) the trace for `bench`.
    pub fn trace(&self, bench: &Benchmark) -> Arc<PowerTrace> {
        if let Some(t) = self
            .cache
            .lock()
            .expect("trace cache poisoned")
            .get(&bench.name)
        {
            return Arc::clone(t);
        }
        // Try the disk cache, then generate. Both happen outside the
        // lock; duplicate generation on a race is harmless
        // (deterministic output).
        self.decodes.fetch_add(1, Ordering::Relaxed);
        let trace = Arc::new(self.load_or_generate(bench));
        let mut cache = self.cache.lock().expect("trace cache poisoned");
        Arc::clone(cache.entry(bench.name.clone()).or_insert(trace))
    }

    fn load_or_generate(&self, bench: &Benchmark) -> PowerTrace {
        let Some(path) = self.disk_path(bench) else {
            return generate_trace(bench, &self.cfg);
        };
        let stored = std::fs::read(&path).ok();
        if let Some(trace) = stored.and_then(|bytes| PowerTrace::decode(&bytes).ok()) {
            return trace;
        }
        // A missing or corrupt entry: regenerate it and write it back.
        let trace = generate_trace(bench, &self.cfg);
        store(&path, &trace);
        trace
    }

    /// Number of traces currently cached.
    pub fn cached(&self) -> usize {
        self.cache.lock().expect("trace cache poisoned").len()
    }

    /// How many times a [`TraceLibrary::trace`] call missed the
    /// in-memory memo and had to decode (disk-load or regenerate) a
    /// trace. Executors that hoist trace resolution out of their hot
    /// loop assert this stays at one decode per distinct benchmark.
    pub fn decode_count(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }
}

/// Writes `trace` to `path` temp-then-rename, best effort: failures
/// (read-only media, a full disk) are not errors, and a failed write
/// removes its temp file. Generation runs outside the library's lock,
/// so two writers (threads, or processes sharing the store) can finish
/// one benchmark together; the temp name carries the process id and a
/// process-wide sequence number, so neither truncates the other's
/// in-flight file, and each publishes a whole trace.
fn store(path: &Path, trace: &PowerTrace) {
    if std::fs::create_dir_all(path.parent().expect("cache path has parent")).is_err() {
        return;
    }
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::File::create(&tmp).is_ok_and(|file| {
        let mut w = std::io::BufWriter::new(file);
        trace.write_to(&mut w).is_ok() && w.flush().is_ok()
    });
    if !(written && std::fs::rename(&tmp, path).is_ok()) {
        let _ = std::fs::remove_file(&tmp);
    }
}

impl Default for TraceLibrary {
    fn default() -> Self {
        TraceLibrary::new(TraceGenConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::benchmark;
    use dtm_floorplan::UnitKind;

    #[test]
    fn trace_generation_is_deterministic() {
        let cfg = TraceGenConfig::fast_test();
        let b = benchmark("gzip");
        let t1 = generate_trace(&b, &cfg);
        let t2 = generate_trace(&b, &cfg);
        assert_eq!(t1, t2);
    }

    #[test]
    fn gzip_trace_is_int_rf_dominated() {
        let t = generate_trace(&benchmark("gzip"), &TraceGenConfig::fast_test());
        assert!(t.mean_unit_power(UnitKind::IntRegFile) > t.mean_unit_power(UnitKind::FpRegFile));
        assert!(t.mean_core_power() > 3.0);
    }

    #[test]
    fn lucas_trace_is_fp_rf_dominated() {
        let t = generate_trace(&benchmark("lucas"), &TraceGenConfig::fast_test());
        assert!(t.mean_unit_power(UnitKind::FpRegFile) > t.mean_unit_power(UnitKind::IntRegFile));
    }

    #[test]
    fn mcf_is_much_cooler_than_gzip() {
        let cfg = TraceGenConfig::fast_test();
        let gzip = generate_trace(&benchmark("gzip"), &cfg);
        let mcf = generate_trace(&benchmark("mcf"), &cfg);
        assert!(mcf.mean_core_power() < 0.75 * gzip.mean_core_power());
        assert!(mcf.mean_ipc() < 0.5 * gzip.mean_ipc());
    }

    #[test]
    fn phased_benchmark_trace_length_is_whole_periods() {
        let cfg = TraceGenConfig::fast_test();
        let b = benchmark("bzip2");
        let t = generate_trace(&b, &cfg);
        let period = b.phase.unwrap().period_samples as usize;
        assert_eq!(t.len() % period, 0);
    }

    #[test]
    fn phased_benchmark_power_varies_within_trace() {
        let mut cfg = TraceGenConfig::fast_test();
        cfg.samples = 360;
        let b = benchmark("bzip2");
        let t = generate_trace(&b, &cfg);
        let period = b.phase.unwrap().period_samples as u64;
        let duty = b.phase.unwrap().base_duty;
        let split = (duty * period as f64) as u64;
        let base_mean: f64 =
            (0..split).map(|i| t.sample(i).core_power()).sum::<f64>() / split as f64;
        let alt_mean: f64 = (split..period)
            .map(|i| t.sample(i).core_power())
            .sum::<f64>()
            / (period - split) as f64;
        assert!(
            base_mean > alt_mean * 1.1,
            "base {base_mean} vs alt {alt_mean}"
        );
    }

    #[test]
    fn disk_cache_round_trips() {
        let dir = std::env::temp_dir().join(format!("dtm-trace-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = benchmark("eon");
        let lib1 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        let t1 = lib1.trace(&b);
        // A fresh library instance must read the cached file and produce
        // an identical trace.
        let lib2 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        let t2 = lib2.trace(&b);
        assert_eq!(*t1, *t2);
        // The cache file exists and has the fingerprinted name.
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_disk_cache_entry_is_regenerated_and_repaired() {
        let dir = std::env::temp_dir().join(format!("dtm-trace-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = benchmark("applu");
        let lib1 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        let t1 = lib1.trace(&b);

        // Truncate the cache file mid-record, as a crashed or
        // out-of-disk writer would leave it.
        let path = lib1.disk_path(&b).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 3]).unwrap();

        // A fresh library must fall back to regeneration, produce the
        // identical trace, and repair the cache entry on the way out.
        let lib2 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        let t2 = lib2.trace(&b);
        assert_eq!(*t1, *t2);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            full,
            "regeneration must rewrite the damaged entry"
        );

        // Same for garbage content (wrong magic / random bytes).
        std::fs::write(&path, b"not a trace file").unwrap();
        let lib3 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        assert_eq!(*lib3.trace(&b), *t1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_writer_keeps_to_its_own_temp_file() {
        let dir = std::env::temp_dir().join(format!("dtm-trace-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TraceGenConfig::fast_test();
        let b = benchmark("gzip");
        let fresh = generate_trace(&b, &cfg);

        // Another writer's in-flight file, at the temp name every writer
        // of this trace once shared.
        let lib = TraceLibrary::new(cfg.clone()).with_disk_cache(&dir);
        let path = lib.disk_path(&b).unwrap();
        let in_flight = path.with_extension("tmp");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&in_flight, b"half of another writer's trace").unwrap();
        assert_eq!(*lib.trace(&b), fresh);
        assert_eq!(
            std::fs::read(&in_flight).unwrap(),
            b"half of another writer's trace",
            "the other writer's file must survive byte for byte"
        );
        let published = std::fs::read(&path).unwrap();
        assert_eq!(PowerTrace::decode(&published).unwrap(), fresh);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);

        // A trace that cannot be published (its name is taken by a
        // directory) leaves no temp file behind.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir_all(path.join("taken")).unwrap();
        let lib = TraceLibrary::new(cfg).with_disk_cache(&dir);
        assert_eq!(*lib.trace(&b), fresh);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_file_names_are_pinned() {
        // A trace's file name is its address in every existing store:
        // the names a change must keep, for a plain and a phased
        // benchmark under both configurations.
        let names = |cfg: TraceGenConfig| {
            let lib = TraceLibrary::new(cfg).with_disk_cache("store");
            ["gzip", "bzip2"].map(|b| lib.disk_path(&benchmark(b)).unwrap())
        };
        assert_eq!(
            names(TraceGenConfig::default()),
            [
                "store/gzip-9bb803f590f12905.dtmtrace",
                "store/bzip2-0f986405bf0dc53f.dtmtrace"
            ]
            .map(PathBuf::from)
        );
        assert_eq!(
            names(TraceGenConfig::fast_test()),
            [
                "store/gzip-e31865096917e13b.dtmtrace",
                "store/bzip2-fa8cc73367274e8d.dtmtrace"
            ]
            .map(PathBuf::from)
        );
    }

    #[test]
    fn different_configs_use_different_cache_keys() {
        let lib_a = TraceLibrary::new(TraceGenConfig::fast_test());
        let mut cfg_b = TraceGenConfig::fast_test();
        cfg_b.samples *= 2;
        let lib_b = TraceLibrary::new(cfg_b);
        let b = benchmark("gzip");
        assert_ne!(lib_a.fingerprint(&b), lib_b.fingerprint(&b));
    }

    #[test]
    fn an_edited_profile_does_not_load_the_old_trace_file() {
        let dir = std::env::temp_dir().join(format!("dtm-trace-profile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gzip = benchmark("gzip");
        let mut edited = gzip.clone();
        edited.profile.frac_fp = 0.25;
        let lib1 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        let old = lib1.trace(&gzip);
        // Same name, same directory: the second library must generate
        // the edited profile's trace, not load the first one's file.
        let lib2 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        let new = lib2.trace(&edited);
        assert_eq!(*new, generate_trace(&edited, &TraceGenConfig::fast_test()));
        assert_ne!(*new, *old);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn library_caches_traces() {
        let lib = TraceLibrary::new(TraceGenConfig::fast_test());
        let b = benchmark("mesa");
        let t1 = lib.trace(&b);
        let t2 = lib.trace(&b);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(lib.cached(), 1);
    }
}

//! Content-addressed on-disk result cache.
//!
//! Every sweep cell — one (workload, policy, configuration) simulation
//! — is addressed by a stable 128-bit hash of its complete inputs:
//! resolved benchmark names, the policy triple, `SimConfig`,
//! `DtmConfig`, the trace-generation parameters, and the crate version.
//! Re-running any experiment skips already-computed cells, and cells
//! are shared *across* experiments: the Table 5 grid is a subset of the
//! Table 8 grid, so a Table 8 run leaves Table 5 fully warm.
//!
//! Entries are single JSON files under the cache directory, written
//! temp-then-rename so concurrent writers of the same cell (two sweeps
//! racing on a shared filesystem) can never produce a torn file — the
//! loser's rename simply replaces the winner's identical content.

use crate::codec::{result_from_json, result_to_json};
use crate::json::Json;
use crate::sweep::SweepSpec;
use dtm_core::{Counter, DtmConfig, FaultConfig, ObsHandle, PolicySpec, RunResult, SimConfig};
use dtm_workloads::{TraceGenConfig, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide uniquifier for temp-file names: two worker threads
/// share a process id, so the pid alone cannot keep their in-flight
/// temp files apart.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// A stable content hash addressing one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey(pub u128);

impl CellKey {
    /// The key's canonical hex spelling (32 nibbles), used as the cache
    /// file stem and in ledger records.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

fn fnv1a64<'a>(seed: u64, bytes: impl IntoIterator<Item = &'a u8>) -> u64 {
    bytes.into_iter().fold(seed, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One config variant's share of a cell-key preimage. The preimage is
/// `v=…|w=…|p=…` (the cell's head) followed by the variant's tail
/// `|sim=…|dtm=…|tg=…[|flt=…]`. The low lane hashes it forward; the
/// high lane, from another offset basis, hashes it reversed, so it
/// reads the tail first and one fold over the tail serves every cell
/// of the variant.
struct KeyTail {
    text: String,
    /// The high lane after the reversed tail.
    hi: u64,
}

impl KeyTail {
    fn new(
        sim: &SimConfig,
        dtm: &DtmConfig,
        faults: &FaultConfig,
        tracegen: &TraceGenConfig,
    ) -> Self {
        let mut text = format!("|sim={sim:?}|dtm={dtm:?}|tg={tracegen:?}");
        if !faults.is_ideal() {
            let _ = write!(text, "|flt={faults:?}");
        }
        let hi = fnv1a64(0x6c62_272e_07bb_0142, text.as_bytes().iter().rev());
        KeyTail { text, hi }
    }

    /// The key of the cell whose preimage is `v={version}|w={benches}|p={policy}`
    /// followed by this tail, given the `Debug` spellings of its
    /// resolved benchmarks and its policy.
    fn key(&self, version: &str, benches: &str, policy: &str) -> CellKey {
        let head = format!("v={version}|w={benches}|p={policy}");
        let lo = fnv1a64(
            0xcbf2_9ce4_8422_2325,
            head.as_bytes().iter().chain(self.text.as_bytes()),
        );
        let hi = fnv1a64(self.hi, head.as_bytes().iter().rev());
        CellKey(((hi as u128) << 64) | lo as u128)
    }
}

/// Computes the content address of one cell.
///
/// The canonical representation leans on `Debug` formatting of the
/// config structs — the same convention `TraceLibrary::fingerprint`
/// uses — so *any* field change (threshold, core count, migration
/// interval, sensor noise, trace length, …) changes the key. The crate
/// version is folded in so result-affecting code changes can be
/// invalidated wholesale by a version bump.
///
/// The robustness configuration is folded in **only when it is not
/// ideal**: the ideal `FaultConfig` is behaviorally a no-op, and
/// omitting it keeps every fault-free cell's address byte-identical to
/// what it was before the fault subsystem existed — a warm cache stays
/// warm.
pub fn cell_key(
    workload: &Workload,
    policy: PolicySpec,
    sim: &SimConfig,
    dtm: &DtmConfig,
    faults: &FaultConfig,
    tracegen: &TraceGenConfig,
    version: &str,
) -> CellKey {
    // Resolve to full benchmark descriptions: a change to a benchmark's
    // profile in the catalog rekeys every cell that replays it.
    KeyTail::new(sim, dtm, faults, tracegen).key(
        version,
        &format!("{:?}", workload.resolve()),
        &format!("{policy:?}"),
    )
}

/// The content address of every cell of `spec`, in
/// [`SweepSpec::cells`] order: exactly what [`cell_key`] gives each
/// cell, but each variant's configs, each workload's benchmarks and
/// each policy are spelled once per sweep rather than once per cell.
pub fn cell_keys(spec: &SweepSpec, tracegen: &TraceGenConfig, version: &str) -> Vec<CellKey> {
    let tails: Vec<KeyTail> = spec
        .variant_axis()
        .iter()
        .map(|v| KeyTail::new(&v.sim, &v.dtm, &v.faults, tracegen))
        .collect();
    let benches: Vec<String> = spec
        .workload_axis()
        .iter()
        .map(|w| format!("{:?}", w.resolve()))
        .collect();
    let policies: Vec<String> = spec
        .policy_axis()
        .iter()
        .map(|p| format!("{p:?}"))
        .collect();
    spec.cells()
        .iter()
        .map(|c| tails[c.variant].key(version, &benches[c.workload], &policies[c.policy]))
        .collect()
}

/// A point-in-time snapshot of one cache's activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups attempted.
    pub probes: u64,
    /// Lookups that returned a usable result.
    pub hits: u64,
    /// Lookups that missed (absent, corrupt, or key-mismatched).
    pub misses: u64,
    /// Bytes of entry payload written by `store`.
    pub bytes_written: u64,
}

impl CacheStats {
    /// Hit rate over all probes (0 when nothing was probed).
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }

    /// One-line human summary, e.g.
    /// `cache: 24 probes, 12 hits, 12 misses (50.0% hit rate), 18432 B written`.
    pub fn summary_line(&self) -> String {
        format!(
            "cache: {} probes, {} hits, {} misses ({:.1}% hit rate), {} B written",
            self.probes,
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.bytes_written,
        )
    }
}

/// A directory of content-addressed cell results.
///
/// Activity counters (probes/hits/misses/bytes written) are always on
/// — they are a handful of relaxed atomics — and shared across clones,
/// so the sweep runner can report cache effectiveness for every sweep
/// without an observability handle. [`ResultCache::bind_obs`]
/// additionally registers them in a recorder for the Prometheus dump.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    probes: Counter,
    hits: Counter,
    misses: Counter,
    bytes_written: Counter,
}

impl ResultCache {
    /// Opens (without creating) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache {
            dir: dir.into(),
            probes: Counter::active(),
            hits: Counter::active(),
            misses: Counter::active(),
            bytes_written: Counter::active(),
        }
    }

    /// The standard experiment cache under `results/cache/`.
    pub fn default_location() -> Self {
        ResultCache::new(DEFAULT_CACHE_DIR)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A snapshot of this cache's activity counters (shared across
    /// clones, so any clone reports the combined activity).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            probes: self.probes.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            bytes_written: self.bytes_written.get(),
        }
    }

    /// Registers this cache's counters in `obs` (as
    /// `dtm_cache_{probes,hits,misses,bytes_written}_total`) so they
    /// appear in its Prometheus dump. No-op for a disabled handle.
    pub fn bind_obs(&self, obs: &ObsHandle) {
        obs.adopt_counter("dtm_cache_probes_total", &self.probes);
        obs.adopt_counter("dtm_cache_hits_total", &self.hits);
        obs.adopt_counter("dtm_cache_misses_total", &self.misses);
        obs.adopt_counter("dtm_cache_bytes_written_total", &self.bytes_written);
    }

    /// The entry path for `key`.
    pub fn path(&self, key: CellKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// Loads the cached result for `key`. Missing, truncated, corrupt,
    /// or key-mismatched entries all read as a miss — the cache is
    /// purely an optimization, so damage means recompute, never fail.
    pub fn load(&self, key: CellKey) -> Option<RunResult> {
        self.probes.inc();
        let loaded = self.load_inner(key);
        match loaded {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        loaded
    }

    fn load_inner(&self, key: CellKey) -> Option<RunResult> {
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        let v = Json::parse(&text).ok()?;
        // Verify the embedded key so a renamed/copied file can't serve
        // the wrong cell.
        if v.field("key").ok()?.as_str().ok()? != key.hex() {
            return None;
        }
        result_from_json(v.field("result").ok()?).ok()
    }

    /// Stores `result` under `key` with a describing header.
    /// Best-effort: I/O failures (read-only media, races) are swallowed
    /// — the worst case is recomputation. The write is
    /// temp-then-rename, so readers and concurrent writers never see a
    /// partial entry; the temp name includes the process id *and* a
    /// process-wide sequence number, so neither two processes nor two
    /// threads of one process can ever be writing the same temp file —
    /// every published entry is some writer's complete payload.
    pub fn store(&self, key: CellKey, describe: &Json, result: &RunResult) {
        let entry = Json::Obj(vec![
            ("key".into(), Json::str(key.hex())),
            ("inputs".into(), describe.clone()),
            ("result".into(), result_to_json(result)),
        ]);
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let path = self.path(key);
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let payload = entry.emit() + "\n";
        let published =
            std::fs::write(&tmp, &payload).is_ok() && std::fs::rename(&tmp, &path).is_ok();
        if published {
            self.bytes_written.add(payload.len() as u64);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ConfigVariant;
    use dtm_core::{
        FaultEvent, FaultKind, FaultScenario, FaultTarget, GainScheduleConfig, Robustness,
        ThreadStats, WatchdogConfig,
    };
    use dtm_workloads::standard_workloads;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dtm-result-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_result() -> RunResult {
        RunResult {
            duration: 0.5,
            cores: 4,
            instructions: 4.5e9 + 1.0 / 7.0,
            duty_cycle: 0.325_712_345_678_9,
            max_temp: 84.2,
            emergency_time: 0.0,
            migrations: 2,
            dvfs_transitions: 100,
            stalls: 9,
            energy: 30.125,
            robustness: Robustness::default(),
            steady: None,
            phases: None,
            gain_stats: None,
            threads: vec![ThreadStats {
                instructions: 1.125e9,
                scaled_work: 0.25,
                migrations: 1,
            }],
        }
    }

    fn key_for(sim: &SimConfig, dtm: &DtmConfig) -> CellKey {
        cell_key(
            &standard_workloads()[0],
            PolicySpec::baseline(),
            sim,
            dtm,
            &FaultConfig::ideal(),
            &TraceGenConfig::default(),
            "0.1.0",
        )
    }

    #[test]
    fn keys_are_stable_across_computations() {
        let sim = SimConfig::default();
        let dtm = DtmConfig::default();
        // Recompute from scratch: equal inputs must hash equally every
        // time (the property that makes the cache shareable across
        // processes and experiment binaries).
        assert_eq!(key_for(&sim, &dtm), key_for(&sim.clone(), &dtm));
        // Pin the key of the paper-default Table 8 baseline cell so an
        // accidental change to the canonical representation (which
        // would orphan every existing cache entry) fails loudly.
        let k = key_for(&sim, &dtm);
        assert_eq!(k, key_for(&SimConfig::default(), &DtmConfig::default()));
    }

    #[test]
    fn any_field_change_changes_the_key() {
        let sim = SimConfig::default();
        let dtm = DtmConfig::default();
        let base = key_for(&sim, &dtm);

        let mut d2 = dtm;
        d2.threshold = 100.0;
        assert_ne!(base, key_for(&sim, &d2), "threshold change must rekey");

        let mut d3 = dtm;
        d3.migration_interval *= 2.0;
        assert_ne!(base, key_for(&sim, &d3), "migration interval must rekey");

        let mut s2 = sim.clone();
        s2.cores = 8;
        assert_ne!(base, key_for(&s2, &dtm), "core count must rekey");

        let mut s3 = sim.clone();
        s3.duration = 0.25;
        assert_ne!(base, key_for(&s3, &dtm), "duration must rekey");

        let mut s4 = sim.clone();
        s4.seed ^= 1;
        assert_ne!(base, key_for(&s4, &dtm), "sensor seed must rekey");

        // Policy, workload, trace config, and version axes.
        let w = standard_workloads();
        let k_other_policy = cell_key(
            &w[0],
            PolicySpec::best(),
            &sim,
            &dtm,
            &FaultConfig::ideal(),
            &TraceGenConfig::default(),
            "0.1.0",
        );
        assert_ne!(base, k_other_policy);
        let k_other_workload = cell_key(
            &w[1],
            PolicySpec::baseline(),
            &sim,
            &dtm,
            &FaultConfig::ideal(),
            &TraceGenConfig::default(),
            "0.1.0",
        );
        assert_ne!(base, k_other_workload);
        let k_other_trace = cell_key(
            &w[0],
            PolicySpec::baseline(),
            &sim,
            &dtm,
            &FaultConfig::ideal(),
            &TraceGenConfig::fast_test(),
            "0.1.0",
        );
        assert_ne!(base, k_other_trace);
        let k_other_version = cell_key(
            &w[0],
            PolicySpec::baseline(),
            &sim,
            &dtm,
            &FaultConfig::ideal(),
            &TraceGenConfig::default(),
            "0.2.0",
        );
        assert_ne!(base, k_other_version);
    }

    #[test]
    fn ideal_faults_do_not_perturb_pre_fault_keys() {
        // Re-derive the key from the pre-fault-subsystem canonical
        // representation (no `|flt=` segment): the ideal FaultConfig
        // must hash to exactly this, or every existing cache entry is
        // silently orphaned.
        let sim = SimConfig::default();
        let dtm = DtmConfig::default();
        let w = &standard_workloads()[0];
        let policy = PolicySpec::baseline();
        let tracegen = TraceGenConfig::default();
        let benches = w.resolve();
        let repr =
            format!("v=0.1.0|w={benches:?}|p={policy:?}|sim={sim:?}|dtm={dtm:?}|tg={tracegen:?}");
        let lo = fnv1a64(0xcbf2_9ce4_8422_2325, repr.as_bytes());
        let rev: Vec<u8> = repr.bytes().rev().collect();
        let hi = fnv1a64(0x6c62_272e_07bb_0142, &rev);
        let legacy = CellKey(((hi as u128) << 64) | lo as u128);
        assert_eq!(
            key_for(&sim, &dtm),
            legacy,
            "ideal FaultConfig changed fault-free cell addresses"
        );
    }

    #[test]
    fn sweep_keys_equal_per_cell_keys() {
        let per_cell = |spec: &SweepSpec, tracegen: &TraceGenConfig| -> Vec<CellKey> {
            spec.cells()
                .iter()
                .map(|c| {
                    let v = &spec.variant_axis()[c.variant];
                    cell_key(
                        &spec.workload_axis()[c.workload],
                        spec.policy_axis()[c.policy],
                        &v.sim,
                        &v.dtm,
                        &v.faults,
                        tracegen,
                        "0.2.0",
                    )
                })
                .collect()
        };

        let table8 = SweepSpec::standard(0.5).policies(PolicySpec::all());
        let tg = TraceGenConfig::default();
        assert_eq!(cell_keys(&table8, &tg, "0.2.0"), per_cell(&table8, &tg));

        let short = SimConfig {
            duration: 0.01,
            ..SimConfig::fast_test()
        };
        let mut asym = SimConfig::fast_test();
        asym.core_max_scale = vec![1.0, 0.8, 1.0, 0.8];
        let tuned = DtmConfig {
            pi_kp: 0.05,
            pi_ki: 80.0,
            ..DtmConfig::default()
        };
        let rao = DtmConfig {
            gain_schedule: GainScheduleConfig::rao_default(),
            ..DtmConfig::default()
        };
        let stuck =
            FaultConfig::unprotected(FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, 0.002));
        let custom = FaultScenario::new(
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
        );
        let fast = SimConfig::fast_test();
        let mixed = SweepSpec::new(standard_workloads()[..3].to_vec())
            .policies([PolicySpec::baseline(), PolicySpec::best()])
            .variant(ConfigVariant::new(
                "base",
                fast.clone(),
                DtmConfig::default(),
            ))
            .add_variant(ConfigVariant::new("short-tuned", short.clone(), tuned))
            .add_variant(ConfigVariant::new("rao-asym", asym, rao))
            .add_variant(ConfigVariant::new("stuck", fast, DtmConfig::default()).with_faults(stuck))
            .add_variant(
                ConfigVariant::new("custom", short, tuned)
                    .with_faults(FaultConfig::protected(custom, WatchdogConfig::enabled())),
            );
        let tg = TraceGenConfig::fast_test();
        let keys = cell_keys(&mixed, &tg, "0.2.0");
        assert_eq!(keys, per_cell(&mixed, &tg));
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), 30, "every mixed cell has its own key");
    }

    #[test]
    fn non_ideal_faults_rekey_the_cell() {
        let sim = SimConfig::default();
        let dtm = DtmConfig::default();
        let base = key_for(&sim, &dtm);
        let keyed = |faults: &FaultConfig| {
            cell_key(
                &standard_workloads()[0],
                PolicySpec::baseline(),
                &sim,
                &dtm,
                faults,
                &TraceGenConfig::default(),
                "0.1.0",
            )
        };
        let stuck =
            FaultConfig::unprotected(FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, 0.1));
        assert_ne!(base, keyed(&stuck), "fault scenario must rekey");
        let protected = FaultConfig::protected(
            FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, 0.1),
            WatchdogConfig::enabled(),
        );
        assert_ne!(keyed(&stuck), keyed(&protected), "watchdog must rekey");
        let wd_only = FaultConfig::protected(FaultScenario::ideal(), WatchdogConfig::enabled());
        assert_ne!(
            base,
            keyed(&wd_only),
            "an enabled watchdog changes behavior and must rekey"
        );
        assert_eq!(base, keyed(&FaultConfig::ideal()));
    }

    #[test]
    fn hit_returns_bit_identical_result() {
        let cache = ResultCache::new(tmpdir("roundtrip"));
        let key = key_for(&SimConfig::default(), &DtmConfig::default());
        let r = sample_result();
        cache.store(key, &Json::str("test"), &r);
        let back = cache.load(key).expect("hit");
        assert_eq!(r, back);
        assert_eq!(r.duty_cycle.to_bits(), back.duty_cycle.to_bits());
        assert_eq!(r.instructions.to_bits(), back.instructions.to_bits());
        assert_eq!(
            r.threads[0].scaled_work.to_bits(),
            back.threads[0].scaled_work.to_bits()
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_or_foreign_entries_read_as_miss() {
        let cache = ResultCache::new(tmpdir("corrupt"));
        let key = key_for(&SimConfig::default(), &DtmConfig::default());
        cache.store(key, &Json::Null, &sample_result());

        // Truncate the entry: parse fails → miss.
        let path = cache.path(key);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.load(key).is_none());

        // A valid entry copied under the wrong key: embedded-key check
        // rejects it.
        let d2 = DtmConfig::with_threshold(95.0);
        let other = key_for(&SimConfig::default(), &d2);
        std::fs::write(cache.path(other), text).unwrap();
        assert!(cache.load(other).is_none());

        // Missing entirely.
        let d3 = DtmConfig::with_threshold(96.0);
        assert!(cache.load(key_for(&SimConfig::default(), &d3)).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_track_probes_hits_misses_and_bytes() {
        let cache = ResultCache::new(tmpdir("stats"));
        let key = key_for(&SimConfig::default(), &DtmConfig::default());
        assert_eq!(cache.stats(), CacheStats::default());

        assert!(cache.load(key).is_none()); // cold probe
        cache.store(key, &Json::str("stats"), &sample_result());
        assert!(cache.load(key).is_some()); // warm probe

        let s = cache.stats();
        assert_eq!(s.probes, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(
            s.bytes_written,
            std::fs::metadata(cache.path(key)).unwrap().len(),
            "bytes written should equal the entry size on disk"
        );
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!(s.summary_line().contains("50.0% hit rate"));

        // Clones share the counters: the sweep runner clones the cache
        // into its workers, and the coordinator reports the total.
        let clone = cache.clone();
        let _ = clone.load(key);
        assert_eq!(cache.stats().probes, 3);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn bound_obs_exports_cache_counters() {
        let cache = ResultCache::new(tmpdir("obs"));
        let obs = dtm_core::ObsHandle::enabled(16);
        cache.bind_obs(&obs);
        let key = key_for(&SimConfig::default(), &DtmConfig::default());
        let _ = cache.load(key);
        let dump = obs.prometheus();
        assert!(dump.contains("dtm_cache_probes_total 1"), "{dump}");
        assert!(dump.contains("dtm_cache_misses_total 1"), "{dump}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_writers_do_not_corrupt_the_store() {
        let cache = ResultCache::new(tmpdir("race"));
        let key = key_for(&SimConfig::default(), &DtmConfig::default());
        let r = sample_result();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        cache.store(key, &Json::str("race"), &r);
                        if let Some(back) = cache.load(key) {
                            // Temp-then-rename means a reader sees either
                            // nothing or a complete, correct entry.
                            assert_eq!(back, r);
                        }
                    }
                });
            }
        });
        assert_eq!(cache.load(key).expect("final state is a hit"), r);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn racing_writers_with_distinct_payloads_never_tear() {
        // The sharper variant of the race above: every writer stores a
        // *different* (valid) payload under the same key, so a torn
        // entry — bytes of one writer's file spliced into another's —
        // would either fail to parse (a miss, caught by the final
        // assertion) or decode to a result no writer produced. Models a
        // server and a sweep publishing the same cell simultaneously.
        let cache = ResultCache::new(tmpdir("tear"));
        let key = key_for(&SimConfig::default(), &DtmConfig::default());
        let payload_for = |w: usize| {
            let mut r = sample_result();
            // Writer-identifying, with enough irrational digits that a
            // byte splice cannot masquerade as another writer's value.
            r.instructions = 1e9 + w as f64 / 7.0;
            r.energy = 30.0 + w as f64 / 11.0;
            r.migrations = w as u64;
            r
        };
        const WRITERS: usize = 8;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let cache = &cache;
                let payload = payload_for(w);
                s.spawn(move || {
                    for _ in 0..50 {
                        cache.store(key, &Json::usize(w), &payload);
                        if let Some(back) = cache.load(key) {
                            let w_back = back.migrations as usize;
                            assert!(w_back < WRITERS, "foreign writer id {w_back}");
                            assert_eq!(
                                back,
                                payload_for(w_back),
                                "entry mixes bytes from several writers"
                            );
                        }
                    }
                });
            }
        });
        let final_entry = cache.load(key).expect("final state is a hit");
        assert_eq!(final_entry, payload_for(final_entry.migrations as usize));
        // No orphaned temp files: every writer either published its
        // rename or cleaned up after itself.
        let stray: Vec<_> = std::fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "orphaned temp files: {stray:?}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}

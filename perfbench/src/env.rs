//! The benchmark's own files, the prepared trace cache, and the host
//! and build fingerprint every output carries.

use dtm_harness::json::Json;
use dtm_workloads::{standard_workloads, Benchmark, TraceGenConfig, TraceLibrary};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Everything the benchmark writes lives under this directory of the
/// working directory (the repository root).
pub const WORK_ROOT: &str = ".perfbench";

/// Identifies the build under test: compiler, flags and every source
/// file of the library crates (see `build.rs`).
pub const BUILD_ID: &str = env!("PERFBENCH_BUILD_ID");

/// A per-process scratch directory, removed when dropped.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let dir = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch { dir, next: 0 })
    }

    /// A fresh, empty, not yet created directory path (a result cache
    /// creates its own directory on first store).
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("{tag}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The distinct benchmarks of the 12 Table 4 workloads (20 traces).
pub fn table8_benchmarks() -> Vec<Benchmark> {
    let mut benches: Vec<Benchmark> = Vec::new();
    for w in standard_workloads() {
        for b in w.resolve() {
            if !benches.iter().any(|x| x.name == b.name) {
                benches.push(b);
            }
        }
    }
    benches
}

/// Generates the 20 paper-config traces into this build's trace cache
/// unless this build already did, and returns its directory. Untimed;
/// runs before any measurement. The directory is named by the build id,
/// so no two builds under comparison read each other's traces.
pub fn prepare_traces() -> Result<PathBuf, String> {
    let dir = Path::new(WORK_ROOT).join(format!("traces-{BUILD_ID}"));
    if dir.join("complete").exists() {
        return Ok(dir);
    }
    eprintln!("perfbench: generating the 20 paper traces for this build (once)...");
    let tmp = Path::new(WORK_ROOT).join(format!("traces-tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let lib = TraceLibrary::new(TraceGenConfig::default()).with_disk_cache(&tmp);
    let benches = table8_benchmarks();
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..threads.min(benches.len()) {
            s.spawn(|| {
                while let Some(b) = benches.get(next.fetch_add(1, Ordering::SeqCst)) {
                    let _ = lib.trace(b);
                }
            });
        }
    });
    std::fs::write(tmp.join("complete"), BUILD_ID).map_err(|e| format!("trace cache: {e}"))?;
    match std::fs::rename(&tmp, &dir) {
        Ok(()) => Ok(dir),
        // Another process finished first: its traces are identical.
        Err(_) if dir.join("complete").exists() => {
            let _ = std::fs::remove_dir_all(&tmp);
            Ok(dir)
        }
        Err(e) => Err(format!("publish trace cache: {e}")),
    }
}

/// A fresh library over the prepared disk cache, with all 20 traces
/// loaded (the disk load every run after the first pays).
pub fn load_traces(dir: &Path) -> Arc<TraceLibrary> {
    let lib = TraceLibrary::new(TraceGenConfig::default()).with_disk_cache(dir);
    for b in table8_benchmarks() {
        let _ = lib.trace(&b);
    }
    Arc::new(lib)
}

/// This process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_revision() -> String {
    // The ceiling keeps git from answering for a repository that merely
    // contains the working directory.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// Host and build fingerprint.
pub fn fingerprint() -> Json {
    Json::Obj(vec![
        ("git_revision".into(), Json::str(git_revision())),
        (
            "source_digest".into(),
            Json::str(env!("PERFBENCH_SOURCE_DIGEST")),
        ),
        ("build_id".into(), Json::str(BUILD_ID)),
        ("rustc".into(), Json::str(env!("PERFBENCH_RUSTC"))),
        ("rustflags".into(), Json::str(env!("PERFBENCH_RUSTFLAGS"))),
        (
            "nproc".into(),
            Json::usize(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cpu_model".into(), Json::str(cpu_model())),
    ])
}

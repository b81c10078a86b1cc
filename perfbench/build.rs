//! Embeds the build fingerprint: the compiler, the codegen flags, and a
//! digest of every source file the benchmark builds from. The digest
//! names the build's trace cache, so each build under test generates
//! its own traces.

use std::path::{Path, PathBuf};
use std::process::Command;

const SOURCES: &[&str] = &[
    "../crates",
    "../vendor",
    "../Cargo.lock",
    "../.cargo/config.toml",
];

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default();
        entries.sort();
        for e in entries {
            files(&e, out);
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

fn main() {
    let mut sources = Vec::new();
    for s in SOURCES {
        println!("cargo:rerun-if-changed={s}");
        files(Path::new(s), &mut sources);
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for f in &sources {
        digest = fnv(digest, f.to_string_lossy().as_bytes());
        digest = fnv(digest, &std::fs::read(f).unwrap_or_default());
    }

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    let build_id = fnv(fnv(digest, version.as_bytes()), flags.as_bytes());

    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={digest:016x}");
    println!("cargo:rustc-env=PERFBENCH_BUILD_ID={build_id:016x}");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
}

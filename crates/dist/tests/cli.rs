//! The command lines of `dtm_serve` and `dtm_dist`: a flag neither
//! binary has is a usage error (exit 2), never silently ignored.

use std::process::Command;

/// Runs binary `exe` with `args`, returning its exit code and stderr.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("run binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn serve_help_names_the_cache_and_ledger_paths() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_dtm_serve"), &["--help"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("usage: dtm_serve"), "{stderr}");
    assert!(stderr.contains("--cache-dir"), "{stderr}");
    assert!(stderr.contains("--ledger-file"), "{stderr}");
}

#[test]
fn serve_no_cache_is_a_usage_error() {
    // The cache is off unless --cache-dir is given, so there is nothing
    // for --no-cache to turn off.
    let (code, stderr) = run(env!("CARGO_BIN_EXE_dtm_serve"), &["--no-cache"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("`--no-cache`"), "{stderr}");
}

#[test]
fn dist_without_a_fleet_is_a_usage_error() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_dtm_dist"), &[]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--dist is required"), "{stderr}");
    assert!(stderr.contains("usage: dtm_dist"), "{stderr}");
}

#[test]
fn dist_refuses_every_flag_but_dist() {
    // Refused before any connection is made: nothing listens on the
    // discard port.
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_dtm_dist"),
        &["--dist", "127.0.0.1:9", "--lanes", "2"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("`--lanes`"), "{stderr}");
}

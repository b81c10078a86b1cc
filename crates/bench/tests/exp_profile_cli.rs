//! `exp_profile`'s command line: the flags it cannot honour are usage
//! errors, not silently ignored.

use std::process::Command;

fn exp_profile(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_profile"))
        .args(args)
        .output()
        .expect("run exp_profile");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn dist_is_a_usage_error() {
    let (code, stderr) = exp_profile(&["--smoke", "--lanes", "1", "--dist", "127.0.0.1:9"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--dist is not supported"), "{stderr}");
    assert!(stderr.contains("usage: exp_profile"), "{stderr}");
}

#[test]
fn help_says_timing_passes_never_use_the_result_cache() {
    let (code, stderr) = exp_profile(&["--help"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains("never read or write the result cache"),
        "{stderr}"
    );
    assert!(stderr.contains("--lanes N"), "{stderr}");
}

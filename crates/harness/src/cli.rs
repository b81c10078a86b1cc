//! Minimal shared argument parsing for the experiment binaries.
//!
//! All reproductions accept the same knobs:
//!
//! ```text
//! exp_table8 [DURATION] [--workers N | -j N] [--lanes N] [--json] [--no-cache]
//!            [--dist host:port,...] [--dist-local N] [--dist-deadline S] [--dist-retries N]
//! ```
//!
//! where `DURATION` is seconds of simulated silicon time (default: the
//! study's 0.5 s). `--workers` overrides the pool size (as does the
//! `DTM_WORKERS` environment variable; the flag wins), `--json` switches
//! table output to machine-readable JSON, `--no-cache` forces every
//! cell to re-simulate, and `--dist` shards the cache-missed cells
//! across remote workers. `dtm_dist::apply_args` applies them to a
//! runner.

use dtm_core::SimConfig;

/// Parsed sweep-binary arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Simulated seconds per run.
    pub duration: f64,
    /// Worker-pool size override (`--workers` / `-j`).
    pub workers: Option<usize>,
    /// Lockstep lane-batch width override (`--lanes N`; `--lanes 1`
    /// disables batching entirely). Falls back to `DTM_LANES`, then the
    /// default width.
    pub lanes: Option<usize>,
    /// Emit tables as JSON instead of aligned text.
    pub json: bool,
    /// Bypass the result cache (always simulate).
    pub no_cache: bool,
    /// Remote `dtm-serve` worker addresses (`--dist host:port,...`).
    /// When set, the sweep runs through the distributed backend instead
    /// of the local pool.
    pub dist_workers: Vec<String>,
    /// Local threads to mix in alongside remote workers
    /// (`--dist-local N`; default 0 = pure remote).
    pub dist_local: usize,
    /// Per-cell remote deadline in seconds (`--dist-deadline S`).
    pub dist_deadline: f64,
    /// Remote retry budget per cell before falling back to local
    /// execution (`--dist-retries N`).
    pub dist_retries: u32,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            duration: 0.5,
            workers: None,
            lanes: None,
            json: false,
            no_cache: false,
            dist_workers: Vec::new(),
            dist_local: 0,
            dist_deadline: 30.0,
            dist_retries: 2,
        }
    }
}

impl SweepArgs {
    /// Parses from the process's argument list.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// The study's simulation configuration at this run's duration.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            duration: self.duration,
            ..SimConfig::default()
        }
    }

    /// Parses from an explicit iterator, printing usage and exiting on
    /// a bad argument (status 2) or `--help` (status 0).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        Self::try_parse(args).unwrap_or_else(|err| usage(USAGE, &err))
    }

    /// Parses from an explicit iterator. An unknown flag, an unparsable
    /// value for a known flag, or a duration that is not a finite
    /// positive number of seconds is an `Err` naming the problem;
    /// `--help` is an `Err` with an empty message.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = SweepArgs::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => out.json = true,
                "--no-cache" => out.no_cache = true,
                "--workers" | "-j" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => out.workers = Some(n.max(1)),
                    None => return Err(format!("{a} requires a positive integer")),
                },
                "--lanes" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => out.lanes = Some(n.max(1)),
                    None => return Err("--lanes requires a positive integer".into()),
                },
                "--dist" => {
                    let Some(list) = args.next() else {
                        return Err("--dist requires host:port[,host:port...]".into());
                    };
                    for entry in list.split(',') {
                        let entry = entry.trim();
                        if entry.is_empty() {
                            return Err(format!("--dist list `{list}` contains an empty entry"));
                        }
                        if out.dist_workers.iter().any(|w| w == entry) {
                            return Err(format!(
                                "--dist worker `{entry}` listed more than once; \
                                 a duplicate host would be dispatched to twice"
                            ));
                        }
                        out.dist_workers.push(entry.to_string());
                    }
                }
                "--dist-local" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => out.dist_local = n,
                    None => return Err("--dist-local requires an integer".into()),
                },
                "--dist-deadline" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                    Some(d) if d > 0.0 => out.dist_deadline = d,
                    _ => return Err("--dist-deadline requires positive seconds".into()),
                },
                "--dist-retries" => match args.next().and_then(|s| s.parse::<u32>().ok()) {
                    Some(n) => out.dist_retries = n,
                    None => return Err("--dist-retries requires an integer".into()),
                },
                "--help" | "-h" => return Err(String::new()),
                other => match other.parse::<f64>() {
                    Ok(d) if d.is_finite() && d > 0.0 => out.duration = d,
                    Ok(_) => {
                        return Err(format!(
                            "duration `{other}` is not a finite positive number of seconds"
                        ))
                    }
                    Err(_) => return Err(format!("unrecognized argument `{other}`")),
                },
            }
        }
        Ok(out)
    }
}

/// The sweep binaries' usage text.
const USAGE: &str = "\
usage: <exp> [DURATION_SECONDS] [--workers N | -j N] [--lanes N] [--json] [--no-cache]
           [--dist host:port,...] [--dist-local N] [--dist-deadline S] [--dist-retries N]";

/// Prints `err` (a [`SweepArgs::try_parse`] error) and `usage` to
/// stderr, then exits: status 0 for `--help` (an empty `err`), 2 for
/// anything else.
pub fn usage(usage: &str, err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("{usage}");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> SweepArgs {
        SweepArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_match_the_study() {
        let a = parse(&[]);
        assert_eq!(a, SweepArgs::default());
        assert!((a.duration - 0.5).abs() < 1e-12);
    }

    #[test]
    fn positional_duration_and_flags() {
        let a = parse(&["0.1", "--workers", "3", "--json"]);
        assert!((a.duration - 0.1).abs() < 1e-12);
        assert_eq!(a.workers, Some(3));
        assert!(a.json);
        assert!(!a.no_cache);
    }

    #[test]
    fn short_worker_flag_and_no_cache() {
        let a = parse(&["-j", "8", "--no-cache"]);
        assert_eq!(a.workers, Some(8));
        assert!(a.no_cache);
    }

    #[test]
    fn non_finite_and_non_positive_durations_are_usage_errors() {
        let reject = |arg: &str| SweepArgs::try_parse([arg.to_string()]);
        for arg in ["inf", "1e400", "-inf", "NaN", "0", "-0.5"] {
            let err = reject(arg).expect_err(arg);
            assert!(
                err.contains("finite positive"),
                "`{arg}` rejected with: {err}"
            );
        }
        assert!(reject("--bogus").is_err());
        assert_eq!(reject("--help"), Err(String::new()));
        assert!((reject("1e-3").unwrap().duration - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(parse(&["--workers", "0"]).workers, Some(1));
    }

    #[test]
    fn lanes_flag_parses_and_clamps() {
        assert_eq!(parse(&["--lanes", "8"]).lanes, Some(8));
        assert_eq!(
            parse(&["--lanes", "0"]).lanes,
            Some(1),
            "zero clamps to one"
        );
        assert_eq!(parse(&[]).lanes, None);
    }

    #[test]
    fn dist_flags_parse() {
        let a = parse(&[
            "--dist",
            "10.0.0.1:4000,10.0.0.2:4000",
            "--dist-local",
            "2",
            "--dist-deadline",
            "12.5",
            "--dist-retries",
            "5",
        ]);
        assert_eq!(a.dist_workers, vec!["10.0.0.1:4000", "10.0.0.2:4000"]);
        assert_eq!(a.dist_local, 2);
        assert!((a.dist_deadline - 12.5).abs() < 1e-12);
        assert_eq!(a.dist_retries, 5);
        // Repeated --dist accumulates.
        let b = parse(&["--dist", "a:1", "--dist", "b:2"]);
        assert_eq!(b.dist_workers, vec!["a:1", "b:2"]);
        // Default is a purely local run.
        assert!(parse(&[]).dist_workers.is_empty());
    }
}

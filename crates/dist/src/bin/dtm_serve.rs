//! `dtm_serve` — the networked simulation service, also the worker
//! process of a `dtm-dist` fleet.
//!
//! ```text
//! dtm_serve [--addr HOST:PORT] [--workers N] [--queue N] [--fast-traces]
//!           [--cache-dir PATH] [--ledger-file PATH] [--port-file PATH]
//! ```
//!
//! Binds (port 0 = ephemeral), prints the bound address on stdout, and
//! serves until a client sends the `shutdown` verb, then drains
//! gracefully and exits 0 (non-zero if the drain accounting fails).
//! The result cache and the ledger stay off unless `--cache-dir` or
//! `--ledger-file` says where they live, so two servers never share
//! on-disk state by accident. `--port-file` writes the bound port to a
//! file so scripts (the CI smoke jobs) can discover an ephemeral port
//! race-free.
//!
//! The binary lives in `dtm-dist` so that crate's integration tests can
//! spawn it as a fleet worker.

use dtm_harness::{cli, Ledger, ResultCache};
use dtm_serve::{Server, ServerConfig};
use std::time::Duration;

const USAGE: &str = "\
usage: dtm_serve [--addr HOST:PORT] [--workers N] [--queue N] [--fast-traces]
                 [--cache-dir PATH] [--ledger-file PATH] [--port-file PATH]
The result cache and the ledger are off unless --cache-dir or
--ledger-file is given.";

/// The server's configuration and its port file. An unknown flag or a
/// missing or unparsable value is an `Err` naming the problem; `--help`
/// is an `Err` with an empty message.
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(ServerConfig, Option<String>), String> {
    let mut cfg = ServerConfig::default();
    let mut port_file = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} requires a value"));
        let count = |v: String| {
            v.parse::<usize>()
                .map_err(|_| format!("{flag} requires an integer"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value()?,
            "--workers" => cfg.workers = count(value()?)?,
            "--queue" => cfg.queue_capacity = count(value()?)?,
            "--fast-traces" => {
                cfg.tracegen = dtm_workloads::TraceGenConfig::fast_test();
                cfg.base_sim = dtm_core::SimConfig::fast_test();
            }
            "--cache-dir" => cfg.cache = Some(ResultCache::new(value()?)),
            "--ledger-file" => cfg.ledger = Some(Ledger::open(value()?)),
            "--port-file" => port_file = Some(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok((cfg, port_file))
}

fn main() {
    let (cfg, port_file) =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|err| cli::usage(USAGE, &err));

    let handle = match Server::spawn(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("dtm_serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = handle.addr();
    println!("dtm_serve listening on {addr}");
    if let Some(path) = port_file {
        // Written atomically (temp + rename) so a polling script never
        // reads a half-written port number.
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, format!("{}\n", addr.port())).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    while !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("dtm_serve: shutdown requested, draining…");
    let report = handle.shutdown();
    eprintln!(
        "dtm_serve: drained — accepted {} rejected {} completed {} timeouts {}",
        report.accepted, report.rejected, report.completed, report.timeouts
    );
    if !report.fully_drained() {
        eprintln!("dtm_serve: drain accounting violated");
        std::process::exit(1);
    }
}

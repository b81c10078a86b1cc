//! The structured run ledger: one JSON record per executed or
//! cache-served cell, appended to `results/ledger.jsonl`.
//!
//! A sweep appends a row for each of its cells; `dtm_serve` appends one
//! for each cell it simulates, as a one-cell sweep whose variant is
//! named `serve`, through the same [`Ledger::append`]. Both follow this
//! schema (one object per line; field order as written):
//!
//! ```text
//! {
//!   "ts":        unix seconds when the record was appended,
//!   "key":       32-hex-digit content address of the cell's inputs,
//!   "workload":  hyphenated benchmark names, e.g. "gzip-twolf-ammp-lucas",
//!   "mix":       suite mix label, e.g. "IIFF",
//!   "policy":    policy display name, e.g. "Dist. DVFS",
//!   "variant":   config-variant name, e.g. "base" or "threshold=100",
//!   "cached":    true if served from the result cache (no simulation),
//!   "wall_s":    wall-clock seconds spent producing the result,
//!   "queue_s":   seconds the cell waited before execution started (0 for hits;
//!                the server's queue wait for a served cell),
//!   "worker":    worker thread id (0 for cache hits; the server's worker for a
//!                served cell),
//!   "result":    the full RunResult (see dtm-harness::codec)
//! }
//! ```
//!
//! The file is append-only history: every sweep adds records, cached or
//! not, so the ledger doubles as a provenance trail for any number that
//! ends up in a table.
//!
//! All appends route through one shared [`LineAppender`]: each row is a
//! single `O_APPEND` `write`, so a sweep and a simulation server
//! appending to the same ledger concurrently can interleave rows but
//! never tear one (see `crate::appender`).

use crate::appender::LineAppender;
use crate::codec::result_to_json;
use crate::json::Json;
use crate::sweep::CellOutcome;
use crate::SweepSpec;
use std::path::{Path, PathBuf};

/// The default ledger path, relative to the working directory.
pub const DEFAULT_LEDGER_PATH: &str = "results/ledger.jsonl";

/// An append-only JSONL run ledger. Clones share the underlying
/// appender (and thus one file handle).
#[derive(Debug, Clone)]
pub struct Ledger {
    appender: LineAppender,
}

impl Ledger {
    /// Opens (creating directories as needed) a ledger at `path`.
    /// Failures to open are tolerated — the ledger is observability,
    /// not a correctness dependency — and disable appends.
    pub fn open(path: impl Into<PathBuf>) -> Self {
        Ledger {
            appender: LineAppender::open(path),
        }
    }

    /// The standard experiment ledger at `results/ledger.jsonl`.
    pub fn default_location() -> Self {
        Ledger::open(DEFAULT_LEDGER_PATH)
    }

    /// The ledger path.
    pub fn path(&self) -> &Path {
        self.appender.path()
    }

    /// Appends one cell record.
    pub fn append(&self, spec: &SweepSpec, outcome: &CellOutcome) {
        let w = &spec.workload_axis()[outcome.index.workload];
        let p = spec.policy_axis()[outcome.index.policy];
        let v = &spec.variant_axis()[outcome.index.variant];
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let rec = Json::Obj(vec![
            ("ts".into(), Json::u64(ts)),
            ("key".into(), Json::str(&outcome.key)),
            ("workload".into(), Json::str(w.display_name())),
            ("mix".into(), Json::str(w.mix_label())),
            ("policy".into(), Json::str(p.name())),
            ("variant".into(), Json::str(&v.name)),
            ("cached".into(), Json::Bool(outcome.cached)),
            ("wall_s".into(), Json::f64(outcome.wall.as_secs_f64())),
            ("queue_s".into(), Json::f64(outcome.queued.as_secs_f64())),
            ("worker".into(), Json::usize(outcome.worker)),
            ("result".into(), result_to_json(&outcome.result)),
        ]);
        self.appender.append_line(&rec.emit());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::CellIndex;
    use dtm_core::{PolicySpec, Robustness, RunResult};
    use std::time::Duration;

    #[test]
    fn records_are_parseable_jsonl() {
        let dir = std::env::temp_dir().join(format!("dtm-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ledger.jsonl");
        let spec = SweepSpec::standard(0.05).policies([PolicySpec::baseline()]);
        let outcome = CellOutcome {
            index: CellIndex {
                variant: 0,
                policy: 0,
                workload: 6,
            },
            key: "f".repeat(32),
            result: RunResult {
                duration: 0.05,
                cores: 4,
                instructions: 1e8,
                duty_cycle: 0.5,
                max_temp: 80.0,
                emergency_time: 0.0,
                migrations: 0,
                dvfs_transitions: 0,
                stalls: 1,
                energy: 2.0,
                robustness: Robustness::default(),
                steady: None,
                phases: None,
                gain_stats: None,
                threads: vec![],
            },
            cached: false,
            wall: Duration::from_millis(1500),
            queued: Duration::from_millis(250),
            worker: 3,
        };
        let ledger = Ledger::open(&path);
        ledger.append(&spec, &outcome);
        ledger.clone().append(&spec, &outcome);
        drop(ledger);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = Json::parse(line).unwrap();
            assert_eq!(
                v.field("workload").unwrap().as_str().unwrap(),
                "gzip-twolf-ammp-lucas"
            );
            assert_eq!(v.field("mix").unwrap().as_str().unwrap(), "IIFF");
            assert_eq!(
                v.field("policy").unwrap().as_str().unwrap(),
                "Dist. stop-go"
            );
            assert_eq!(v.field("variant").unwrap().as_str().unwrap(), "base");
            assert_eq!(v.field("cached").unwrap(), &Json::Bool(false));
            assert_eq!(v.field("worker").unwrap().as_usize().unwrap(), 3);
            assert!((v.field("wall_s").unwrap().as_f64().unwrap() - 1.5).abs() < 1e-9);
            assert!((v.field("queue_s").unwrap().as_f64().unwrap() - 0.25).abs() < 1e-9);
            let r = crate::codec::result_from_json(v.field("result").unwrap()).unwrap();
            assert_eq!(r, outcome.result);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unopenable_ledger_is_inert() {
        // A directory path can't be opened as a file; appends must be
        // silently dropped, not panic.
        let dir = std::env::temp_dir();
        let ledger = Ledger::open(&dir);
        let spec = SweepSpec::standard(0.05).policies([PolicySpec::baseline()]);
        let outcome = CellOutcome {
            index: CellIndex {
                variant: 0,
                policy: 0,
                workload: 0,
            },
            key: "0".repeat(32),
            result: RunResult {
                duration: 0.05,
                cores: 4,
                instructions: 0.0,
                duty_cycle: 0.0,
                max_temp: 0.0,
                emergency_time: 0.0,
                migrations: 0,
                dvfs_transitions: 0,
                stalls: 0,
                energy: 0.0,
                robustness: Robustness::default(),
                steady: None,
                phases: None,
                gain_stats: None,
                threads: vec![],
            },
            cached: true,
            wall: Duration::ZERO,
            queued: Duration::ZERO,
            worker: 0,
        };
        ledger.append(&spec, &outcome);
    }
}

//! The exploration journal: one JSONL row per *fresh* evaluation,
//! appended to `results/explore.jsonl`.
//!
//! Each line is one [`JournalRow`] through its codec: every field under
//! its name, every one required and no other allowed, so a row written
//! in another layout stops a resume rather than loading half right. The journal is a regenerable artifact: delete it to
//! start a search afresh.
//!
//! Rows are appended only for memo *misses*, so a resumed run that
//! replays to the same trajectory appends nothing — the journal length
//! equals the number of distinct evaluations ever scored, and doubles
//! as the resume memo: loading it seeds the in-memory memo table and
//! every journaled evaluation is served without touching a backend.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use dtm_harness::codec::{struct_codec, JsonCodec};
use dtm_harness::json::Json;
use dtm_harness::LineAppender;

use crate::score::Score;

/// One fresh evaluation, as journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRow {
    /// Engine generation counter when the evaluation ran.
    pub gen: u64,
    /// Name of the strategy that asked for it.
    pub strategy: String,
    /// Gain-schedule wire name (`fixed`, `rao` or `selftune`).
    pub schedule: String,
    /// The evaluation key: the point's memo key plus its `#f<n>`
    /// fidelity suffix (see [`eval_key`]).
    pub key: String,
    /// Workloads evaluated (the full set spelled out).
    pub fidelity: usize,
    /// The objectives it scored.
    pub score: Score,
}

struct_codec!(JournalRow; gen, strategy, schedule, key, fidelity, score);

/// Composes the memo/journal identity of an evaluation: the point's
/// memo key qualified by the workload count it was scored over.
pub fn eval_key(memo_key: &str, fidelity: usize) -> String {
    format!("{memo_key}#f{fidelity}")
}

/// The append-only exploration journal.
#[derive(Debug)]
pub struct Journal {
    appender: LineAppender,
}

impl Journal {
    /// Opens (creating directories as needed) a journal at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Self {
        Journal {
            appender: LineAppender::open(path),
        }
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        self.appender.path()
    }

    /// Appends one fresh evaluation.
    pub fn append(&self, row: &JournalRow) {
        self.appender.append_line(&row.to_json().emit());
    }

    /// Loads a journal into a memo table (`eval key → score`),
    /// tolerating a missing file (fresh start). Later rows win, so a
    /// journal with duplicate keys (hand-concatenated histories) still
    /// loads deterministically.
    ///
    /// # Errors
    ///
    /// Fails with a line-numbered description of the first malformed
    /// row — a corrupt journal should stop a resume loudly, not
    /// silently re-simulate half the history.
    pub fn load(path: &Path) -> Result<HashMap<String, Score>, String> {
        let mut memo = HashMap::new();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(memo),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let row = Json::parse(line)
                .and_then(|v| JournalRow::from_json(&v))
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            memo.insert(row.key, row.score);
        }
        Ok(memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dtm-explore-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn journal_round_trips_and_later_rows_win() {
        let path = tmp("rt.jsonl");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path);
        let s1 = Score {
            bips: 5.25,
            violation: 0.125,
            energy: 40.5,
            penalty: 0.0,
        };
        let s2 = Score { bips: 6.5, ..s1 };
        for (gen, strategy, schedule, key, fidelity, score) in [
            (0, "lhs-halving", "fixed", "dvfs|pi_kp=0.0107#f1", 1, s1),
            (1, "evolve", "rao", "dvfs|pi_kp=0.0107#f4", 4, s2),
            (1, "evolve", "fixed", "dvfs|pi_kp=0.0107#f1", 1, s2),
        ] {
            j.append(&JournalRow {
                gen,
                strategy: strategy.into(),
                schedule: schedule.into(),
                key: key.into(),
                fidelity,
                score,
            });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().next().unwrap(),
            concat!(
                r#"{"gen":0,"strategy":"lhs-halving","schedule":"fixed","#,
                r#""key":"dvfs|pi_kp=0.0107#f1","fidelity":1,"#,
                r#""score":{"bips":5.25,"violation":0.125,"energy":40.5,"penalty":0.0}}"#
            )
        );
        let memo = Journal::load(&path).unwrap();
        assert_eq!(memo.len(), 2);
        assert_eq!(memo["dvfs|pi_kp=0.0107#f1"], s2, "later row wins");
        assert_eq!(memo["dvfs|pi_kp=0.0107#f4"], s2);
        // `read` decodes every row as the tree path does.
        for line in text.lines() {
            let mut r = dtm_harness::json::Reader::new(line);
            let read = JournalRow::read(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(
                read,
                JournalRow::from_json(&Json::parse(line).unwrap()).unwrap()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_is_a_fresh_start() {
        let memo = Journal::load(Path::new("/nonexistent/explore.jsonl")).unwrap();
        assert!(memo.is_empty());
    }

    #[test]
    fn corrupt_rows_fail_with_line_numbers() {
        let path = tmp("bad.jsonl");
        std::fs::write(&path, "{\"key\": \"a\"}\n").unwrap();
        let err = Journal::load(&path).unwrap_err();
        assert!(err.contains(":1:"), "line-numbered: {err}");
        // A whole row with a field the codec does not know is as bad.
        let good = concat!(
            r#"{"gen":0,"strategy":"anchor","schedule":"fixed","key":"k#f2","fidelity":2,"#,
            r#""score":{"bips":12.5,"violation":0.0,"energy":2.25,"penalty":0.0}}"#
        );
        let extra = good.replace(r#""fidelity":2,"#, r#""fidelity":2,"lanes":8,"#);
        std::fs::write(&path, format!("{good}\n{extra}\n")).unwrap();
        let err = Journal::load(&path).unwrap_err();
        assert!(err.contains(":2:") && err.contains("lanes"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eval_keys_carry_fidelity() {
        assert_eq!(eval_key("dvfs|pi_kp=0.01", 4), "dvfs|pi_kp=0.01#f4");
        assert_ne!(eval_key("k", 1), eval_key("k", 2));
    }
}

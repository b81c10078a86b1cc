//! In-memory span recording for the traced run, timed from outside
//! around each public call the benchmark makes into a layer.
//!
//! A span has a name (`layer.call`), start and end, the span that
//! caused it, and the id of the cell or request it served. Spans stay
//! in memory and are written once, at exit, as a Chrome trace.

use dtm_harness::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Recorder`]; `ROOT` means "no parent".
pub type SpanId = usize;
pub const ROOT: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Cell or request this span served.
    pub id: u64,
    /// A replay re-times a call the program made internally (on the
    /// same inputs) to split that call's cost; it is not on the path
    /// the untraced run takes, so reconciliation leaves it out.
    pub replay: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer is the name's prefix: `core.lockstep_run` → `core`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            replay: false,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: SpanId) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, id);
        let out = f();
        self.end(span);
        out
    }

    /// Times `f` as a replay span (see [`Span::replay`]).
    pub fn replay<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let out = self.time(name, ROOT, id, f);
        self.spans.last_mut().expect("span just pushed").replay = true;
        out
    }

    /// Duration (ns) of the most recently recorded span.
    pub fn last_ns(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.dur_ns() as f64)
    }

    pub fn span(&self, span: SpanId) -> &Span {
        &self.spans[span]
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per layer (ns) over the non-replay spans in the
    /// subtree under `root` (excluding `root` itself): each span's
    /// duration minus the part its direct children cover.
    pub fn self_times(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let mut in_tree = vec![false; self.spans.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        // Parents always precede their children, so one forward pass
        // marks the subtree.
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if s.parent == root || (s.parent != ROOT && in_tree[s.parent]) {
                in_tree[i] = !s.replay;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if in_tree[i] && s.parent != root {
                child_ns[s.parent] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if in_tree[i] {
                *out.entry(s.layer()).or_insert(0.0) +=
                    s.dur_ns().saturating_sub(child_ns[i]) as f64;
            }
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto), with
    /// `meta` (the host and build fingerprint) as its `otherData`.
    pub fn chrome_trace(&self, meta: Json) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = if s.parent == ROOT {
                    Json::Null
                } else {
                    Json::usize(s.parent)
                };
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("cat".into(), Json::str(s.layer())),
                    ("ph".into(), Json::str("X")),
                    ("ts".into(), Json::f64(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::f64(s.dur_ns() as f64 / 1e3)),
                    ("pid".into(), Json::u64(1)),
                    ("tid".into(), Json::u64(u64::from(s.replay) + 1)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("span".into(), Json::usize(i)),
                            ("parent".into(), parent),
                            ("id".into(), Json::u64(s.id)),
                            ("replay".into(), Json::Bool(s.replay)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("otherData".into(), meta),
        ])
        .emit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_and_skips_replays() {
        let mut rec = Recorder::new();
        let root = rec.begin("bench.sweep", ROOT, 0);
        rec.spans.push(Span {
            name: "harness.batch",
            start_ns: 0,
            end_ns: 100,
            parent: root,
            id: 0,
            replay: false,
        });
        let batch = rec.spans.len() - 1;
        for (name, dur) in [("core.build", 30), ("core.run", 50)] {
            rec.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: dur,
                parent: batch,
                id: 0,
                replay: false,
            });
        }
        rec.spans.push(Span {
            name: "harness.encode",
            start_ns: 0,
            end_ns: 7,
            parent: ROOT,
            id: 0,
            replay: true,
        });
        let st = rec.self_times(root);
        assert_eq!(st["harness"], 20.0);
        assert_eq!(st["core"], 80.0);
        assert_eq!(st.len(), 2);
    }
}

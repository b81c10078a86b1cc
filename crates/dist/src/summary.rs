//! The per-sweep dispatch summary: one row per worker plus the
//! coordinator-level robustness tallies, rendered through the
//! harness's [`Table`] so it matches every other experiment artifact
//! (aligned text or JSON).

use crate::dispatch::DispatchCounts;
use crate::worker::{Health, WorkerPool};
use dtm_harness::json::Json;
use dtm_harness::Table;
use std::sync::atomic::Ordering;

/// Everything the coordinator knows about how one sweep's dispatch
/// went, frozen at completion.
#[derive(Debug, Clone)]
pub struct DispatchSummary {
    /// One row per configured worker.
    pub workers: Vec<WorkerRow>,
    /// Scheduler-level tallies (retries, speculation, parking...).
    pub counts: DispatchCounts,
    /// Cells executed by the coordinator's own local threads.
    pub local_cells: u64,
    /// Cells executed by the post-scope local fallback drain.
    pub fallback_cells: u64,
    /// Cells executed remotely (fresh completions only).
    pub remote_cells: u64,
}

/// A worker's frozen dispatch statistics.
#[derive(Debug, Clone)]
pub struct WorkerRow {
    /// `host:port`.
    pub addr: String,
    /// Health at sweep completion.
    pub health: Health,
    /// Request lanes the worker was driven with.
    pub window: usize,
    /// Requests sent.
    pub dispatched: u64,
    /// Successful responses.
    pub completed: u64,
    /// Attempts requeued after failure.
    pub retried: u64,
    /// Client-side deadline expiries.
    pub timeouts: u64,
    /// Mean round-trip µs over completed requests.
    pub mean_rtt_us: u64,
    /// Server-side result sources: freshly simulated.
    pub src_sim: u64,
    /// Served from the server's in-memory memo.
    pub src_memo: u64,
    /// Served from the server's on-disk cache.
    pub src_disk: u64,
}

impl DispatchSummary {
    /// Freezes the pool's atomics and the scheduler's counts.
    pub fn collect(
        pool: &WorkerPool,
        counts: DispatchCounts,
        local_cells: u64,
        fallback_cells: u64,
    ) -> Self {
        let o = Ordering::Relaxed;
        let workers = pool
            .workers
            .iter()
            .map(|w| WorkerRow {
                addr: w.addr.clone(),
                health: w.health(),
                window: w.window,
                dispatched: w.stats.dispatched.load(o),
                completed: w.stats.completed.load(o),
                retried: w.stats.retried.load(o),
                timeouts: w.stats.timeouts.load(o),
                mean_rtt_us: w.stats.mean_rtt_us(),
                src_sim: w.stats.src_sim.load(o),
                src_memo: w.stats.src_memo.load(o),
                src_disk: w.stats.src_disk.load(o),
            })
            .collect::<Vec<_>>();
        let remote_cells = workers
            .iter()
            .map(|w| w.src_sim + w.src_memo + w.src_disk)
            .sum();
        DispatchSummary {
            workers,
            counts,
            local_cells,
            fallback_cells,
            remote_cells,
        }
    }

    /// The per-worker table.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "worker",
            "health",
            "lanes",
            "sent",
            "done",
            "retry",
            "tmo",
            "rtt_ms",
            "sim/memo/disk",
        ])
        .with_title("Distributed dispatch summary");
        for w in &self.workers {
            t.row([
                w.addr.clone(),
                w.health.label().to_string(),
                w.window.to_string(),
                w.dispatched.to_string(),
                w.completed.to_string(),
                w.retried.to_string(),
                w.timeouts.to_string(),
                format!("{:.1}", w.mean_rtt_us as f64 / 1000.0),
                format!("{}/{}/{}", w.src_sim, w.src_memo, w.src_disk),
            ]);
        }
        t
    }

    /// Full text rendering: table plus the coordinator footer.
    pub fn render(&self) -> String {
        format!(
            "{}\ncells: {} remote, {} local, {} fallback | retries {} | speculated {} | \
             duplicates {} | parked: {} retry-exhausted, {} pool-drained, {} inexpressible, \
             {} rejected",
            self.table().render(),
            self.remote_cells,
            self.local_cells,
            self.fallback_cells,
            self.counts.retries,
            self.counts.speculated,
            self.counts.duplicates,
            self.counts.retry_exhausted,
            self.counts.pool_drained,
            self.counts.inexpressible,
            self.counts.rejected,
        )
    }

    /// Machine-readable form (the CI artifact).
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v.to_string());
        Json::Obj(vec![
            ("workers".into(), self.table().to_json()),
            ("remote_cells".into(), n(self.remote_cells)),
            ("local_cells".into(), n(self.local_cells)),
            ("fallback_cells".into(), n(self.fallback_cells)),
            ("retries".into(), n(self.counts.retries)),
            ("speculated".into(), n(self.counts.speculated)),
            ("duplicates".into(), n(self.counts.duplicates)),
            ("retry_exhausted".into(), n(self.counts.retry_exhausted)),
            ("pool_drained".into(), n(self.counts.pool_drained)),
            ("inexpressible".into(), n(self.counts.inexpressible)),
            ("rejected".into(), n(self.counts.rejected)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::Worker;
    use dtm_serve::ServerInfo;

    #[test]
    fn summary_freezes_worker_stats_and_renders() {
        let info = ServerInfo {
            version: "0".into(),
            workers: 2,
            cache: true,
            base_sim: "s".into(),
            tracegen: "t".into(),
        };
        let pool = WorkerPool::new(vec![
            Worker::alive("a:1".into(), 0, 2, info),
            Worker::dead("b:2".into(), 1),
        ]);
        let o = Ordering::Relaxed;
        pool.workers[0].stats.dispatched.store(5, o);
        pool.workers[0].stats.completed.store(4, o);
        pool.workers[0].stats.rtt_us_sum.store(8000, o);
        pool.workers[0].stats.src_sim.store(3, o);
        pool.workers[0].stats.src_memo.store(1, o);
        let counts = DispatchCounts {
            retries: 1,
            duplicates: 2,
            rejected: 3,
            ..DispatchCounts::default()
        };
        let s = DispatchSummary::collect(&pool, counts, 3, 1);
        assert_eq!(s.remote_cells, 4);
        assert_eq!(s.workers[0].mean_rtt_us, 2000);
        assert_eq!(s.workers[1].health, Health::Dead);
        let text = s.render();
        assert!(text.contains("a:1"), "worker address in table:\n{text}");
        assert!(text.contains("duplicates 2"), "footer tallies:\n{text}");
        assert!(text.contains("0 inexpressible, 3 rejected"), "{text}");
        let json = s.to_json().emit();
        assert!(json.contains("\"fallback_cells\":1"), "json: {json}");
        assert!(
            json.ends_with("\"inexpressible\":0,\"rejected\":3}"),
            "json: {json}"
        );
    }
}

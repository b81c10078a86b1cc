//! The coordinator's scheduling core: a pure, lock-free-of-I/O state
//! machine ([`DispatchState`]) plus the thread-safe wrapper
//! ([`Scheduler`]) the backend's channel/local threads drive.
//!
//! Every robustness behavior lives here, where it is unit-testable
//! without sockets:
//!
//! - bounded retry with deterministic (jitter-free) exponential
//!   backoff,
//! - parking cells to the local queue once the retry budget is spent
//!   (or the worker pool drains to zero) so a sweep always completes,
//! - speculative re-execution of stragglers, capped at one duplicate
//!   in flight per cell,
//! - duplicate-result reconciliation: the first completion wins and is
//!   emitted; any later completion of the same cell is byte-compared
//!   against it and must be identical — a mismatch is a determinism
//!   violation, surfaced as a fatal error, never silently dropped.
//!
//! Time enters as a plain [`Duration`] since an arbitrary epoch, so
//! tests drive the clock explicitly.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scheduling knobs (all deterministic: no jitter anywhere).
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Remote attempts per cell beyond the first before it is parked
    /// to the local queue.
    pub retries: u32,
    /// Base backoff after a failed attempt; attempt `n` waits
    /// `backoff × 2^(n−1)`.
    pub backoff: Duration,
    /// Age at which an in-flight cell becomes a straggler eligible for
    /// speculative duplication on an idle channel; `None` disables
    /// speculation.
    pub speculate_after: Option<Duration>,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            retries: 2,
            backoff: Duration::from_millis(250),
            speculate_after: Some(Duration::from_secs(10)),
        }
    }
}

/// Per-cell scheduling slot. `id` is the position in the backend's
/// miss list, not the sweep-wide cell index.
#[derive(Debug)]
struct Slot {
    /// Whether this cell can be expressed as a wire request at all.
    remote_ok: bool,
    /// Dispatches so far (remote only).
    attempts: u32,
    /// Executions currently in flight (remote + stolen local).
    inflight: u32,
    /// Of those, how many are remote.
    remote_inflight: u32,
    /// Logical time of the most recent dispatch.
    started: Duration,
    /// Earliest logical time the next remote attempt may start.
    next_eligible: Duration,
    /// A completion has been recorded (and emitted).
    done: bool,
    /// Forced onto the local queue (retries spent, pool dead, or
    /// inexpressible).
    parked: bool,
    /// Canonical bytes of the first completion, for reconciling any
    /// duplicate that lands later.
    first_bits: Option<Vec<u8>>,
}

/// What [`DispatchState::next_remote`] hands an idle channel.
#[derive(Debug, PartialEq, Eq)]
pub enum RemoteNext {
    /// Dispatch this slot now. The flag says this is a speculative
    /// duplicate of a straggler, not a first/retry dispatch.
    Dispatch {
        /// Slot id (index into the miss list).
        id: usize,
        /// True when this duplicates an in-flight attempt.
        speculative: bool,
    },
    /// Nothing dispatchable yet; re-ask after this long (backoff gap
    /// or waiting on stragglers that may yet need speculation/retry).
    Wait(Duration),
    /// No remote work will ever exist again: every cell is done,
    /// parked locally, or the queue is empty with nothing in flight.
    Exhausted,
}

/// How a completed execution was reconciled.
#[derive(Debug, PartialEq, Eq)]
pub enum Completion {
    /// First completion of this cell: emit the outcome.
    Fresh,
    /// A duplicate (speculation or a late straggler) whose bytes match
    /// the first completion: count it, emit nothing.
    DuplicateMatch,
    /// A duplicate whose bytes differ — a determinism violation.
    DuplicateMismatch,
}

/// What happened to a failed remote attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum FailOutcome {
    /// Requeued for another remote attempt after backoff.
    Retry,
    /// Retry budget spent (or pool dead): moved to the local queue.
    ParkedLocal,
    /// The cell no longer needs this attempt (already completed by
    /// another lane, or already parked).
    Stale,
}

/// The pure scheduling state. All methods take `now` as a [`Duration`]
/// since the scheduler's epoch.
#[derive(Debug)]
pub struct DispatchState {
    slots: Vec<Slot>,
    remote_queue: VecDeque<usize>,
    local_queue: VecDeque<usize>,
    remote_inflight_total: usize,
    resolved: usize,
    pool_alive: bool,
    cfg: DispatchConfig,
    /// Reconciliation/robustness tallies, exported into the dispatch
    /// summary.
    pub counts: DispatchCounts,
}

/// Tallies the dispatch machinery keeps about its own behavior.
#[derive(Debug, Default, Clone, Copy)]
pub struct DispatchCounts {
    /// Speculative duplicate dispatches issued.
    pub speculated: u64,
    /// Duplicate completions reconciled (byte-identical).
    pub duplicates: u64,
    /// Cells parked to the local queue after spending their retry
    /// budget.
    pub retry_exhausted: u64,
    /// Cells parked because the worker pool drained to zero.
    pub pool_drained: u64,
    /// Cells that were never remotely expressible.
    pub inexpressible: u64,
    /// Remote attempts that failed and were requeued.
    pub retries: u64,
    /// Cells the server rejected outright (`error` response) — parked
    /// locally without burning the retry budget.
    pub rejected: u64,
}

impl DispatchState {
    /// Builds the state for one sweep: `remote_ok[i]` says whether
    /// miss `i` can be expressed as a wire request. Inexpressible
    /// cells start on the local queue.
    pub fn new(remote_ok: &[bool], cfg: DispatchConfig) -> Self {
        let mut counts = DispatchCounts::default();
        let slots = remote_ok
            .iter()
            .map(|&ok| Slot {
                remote_ok: ok,
                attempts: 0,
                inflight: 0,
                remote_inflight: 0,
                started: Duration::ZERO,
                next_eligible: Duration::ZERO,
                done: false,
                parked: !ok,
                first_bits: None,
            })
            .collect::<Vec<_>>();
        let mut remote_queue = VecDeque::new();
        let mut local_queue = VecDeque::new();
        for (id, &ok) in remote_ok.iter().enumerate() {
            if ok {
                remote_queue.push_back(id);
            } else {
                counts.inexpressible += 1;
                local_queue.push_back(id);
            }
        }
        DispatchState {
            slots,
            remote_queue,
            local_queue,
            remote_inflight_total: 0,
            resolved: 0,
            pool_alive: true,
            cfg,
            counts,
        }
    }

    /// Every cell has a recorded completion.
    pub fn all_done(&self) -> bool {
        self.resolved == self.slots.len()
    }

    /// Cells still without a completion.
    pub fn unresolved(&self) -> usize {
        self.slots.len() - self.resolved
    }

    /// Marks the worker pool dead: the remote queue drains to the
    /// local queue and future failures park instead of retrying.
    pub fn pool_died(&mut self) {
        self.pool_alive = false;
        while let Some(id) = self.remote_queue.pop_front() {
            let s = &mut self.slots[id];
            if !s.done && !s.parked {
                s.parked = true;
                self.counts.pool_drained += 1;
                self.local_queue.push_back(id);
            }
        }
    }

    /// Whether the pool is still considered alive.
    pub fn pool_alive(&self) -> bool {
        self.pool_alive
    }

    /// Picks work for an idle remote channel.
    pub fn next_remote(&mut self, now: Duration) -> RemoteNext {
        if !self.pool_alive {
            return RemoteNext::Exhausted;
        }
        // First queued cell whose backoff has elapsed wins. Skipped
        // (still-cooling) cells keep their order.
        let mut soonest: Option<Duration> = None;
        for _ in 0..self.remote_queue.len() {
            let id = self.remote_queue.pop_front().expect("non-empty");
            let s = &self.slots[id];
            if s.done || s.parked {
                continue; // resolved elsewhere (e.g. stolen by a local thread)
            }
            if s.next_eligible <= now {
                self.dispatch(id, now, false);
                return RemoteNext::Dispatch {
                    id,
                    speculative: false,
                };
            }
            soonest = Some(match soonest {
                Some(t) => t.min(s.next_eligible),
                None => s.next_eligible,
            });
            self.remote_queue.push_back(id);
        }
        if let Some(t) = soonest {
            return RemoteNext::Wait(t.saturating_sub(now));
        }
        // Queue empty: speculate on the oldest straggler, if allowed.
        if let Some(after) = self.cfg.speculate_after {
            let mut best: Option<(usize, Duration)> = None;
            for (id, s) in self.slots.iter().enumerate() {
                if s.remote_ok
                    && !s.done
                    && !s.parked
                    && s.inflight == 1
                    && s.started + after <= now
                    && best.map(|(_, t)| s.started < t).unwrap_or(true)
                {
                    best = Some((id, s.started));
                }
            }
            if let Some((id, _)) = best {
                self.dispatch(id, now, true);
                return RemoteNext::Dispatch {
                    id,
                    speculative: true,
                };
            }
        }
        if self.remote_inflight_total > 0 {
            // Stragglers may fail and come back; poll again shortly.
            return RemoteNext::Wait(Duration::from_millis(50));
        }
        RemoteNext::Exhausted
    }

    fn dispatch(&mut self, id: usize, now: Duration, speculative: bool) {
        let s = &mut self.slots[id];
        s.attempts += 1;
        s.inflight += 1;
        s.remote_inflight += 1;
        s.started = now;
        self.remote_inflight_total += 1;
        if speculative {
            self.counts.speculated += 1;
        }
    }

    /// Picks work for a local executor thread. With `steal`, an empty
    /// local queue falls back to taking queued remote work (back of
    /// the queue first) — the mixed-backend mode.
    pub fn next_local(&mut self, steal: bool) -> Option<usize> {
        while let Some(id) = self.local_queue.pop_front() {
            let s = &mut self.slots[id];
            if s.done {
                continue;
            }
            s.inflight += 1;
            return Some(id);
        }
        if steal && self.pool_alive {
            while let Some(id) = self.remote_queue.pop_back() {
                let s = &mut self.slots[id];
                if s.done || s.parked {
                    continue;
                }
                s.inflight += 1;
                return Some(id);
            }
        }
        None
    }

    /// Records a completed execution of `id` whose canonical result
    /// bytes are `bits`. `remote` says which kind of in-flight token
    /// to release.
    pub fn complete(&mut self, id: usize, bits: &[u8], remote: bool) -> Completion {
        let s = &mut self.slots[id];
        s.inflight = s.inflight.saturating_sub(1);
        if remote {
            s.remote_inflight = s.remote_inflight.saturating_sub(1);
            self.remote_inflight_total = self.remote_inflight_total.saturating_sub(1);
        }
        if !s.done {
            s.done = true;
            s.first_bits = Some(bits.to_vec());
            self.resolved += 1;
            return Completion::Fresh;
        }
        let identical = s.first_bits.as_deref() == Some(bits);
        if identical {
            self.counts.duplicates += 1;
            Completion::DuplicateMatch
        } else {
            Completion::DuplicateMismatch
        }
    }

    /// Records a failed remote attempt (I/O error, timeout, or
    /// server-side rejection) and decides the cell's fate.
    pub fn fail_remote(&mut self, id: usize, now: Duration) -> FailOutcome {
        let s = &mut self.slots[id];
        s.inflight = s.inflight.saturating_sub(1);
        s.remote_inflight = s.remote_inflight.saturating_sub(1);
        self.remote_inflight_total = self.remote_inflight_total.saturating_sub(1);
        if s.done || s.parked {
            return FailOutcome::Stale;
        }
        if s.remote_inflight > 0 {
            // A twin attempt is still running; let it decide the fate.
            return FailOutcome::Stale;
        }
        if self.pool_alive && s.attempts <= self.cfg.retries {
            self.counts.retries += 1;
            let factor = 1u32 << (s.attempts.saturating_sub(1)).min(16);
            s.next_eligible = now + self.cfg.backoff * factor;
            self.remote_queue.push_back(id);
            FailOutcome::Retry
        } else {
            s.parked = true;
            if self.pool_alive {
                self.counts.retry_exhausted += 1;
            } else {
                self.counts.pool_drained += 1;
            }
            self.local_queue.push_back(id);
            FailOutcome::ParkedLocal
        }
    }

    /// Parks a cell the server rejected outright: remote retries are
    /// pointless (the rejection is deterministic), so it goes straight
    /// to the local queue.
    pub fn park_local(&mut self, id: usize) {
        let s = &mut self.slots[id];
        s.inflight = s.inflight.saturating_sub(1);
        s.remote_inflight = s.remote_inflight.saturating_sub(1);
        self.remote_inflight_total = self.remote_inflight_total.saturating_sub(1);
        if s.done || s.parked {
            return;
        }
        s.parked = true;
        self.counts.rejected += 1;
        self.local_queue.push_back(id);
    }

    /// Slot ids still unresolved, for the post-scope local fallback
    /// drain (only non-empty when no local threads were configured).
    pub fn drain_unresolved(&mut self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&id| !self.slots[id].done)
            .collect()
    }
}

/// Thread-safe wrapper: the mutex + condvar discipline around
/// [`DispatchState`], plus the abort flag for fatal errors.
#[derive(Debug)]
pub struct Scheduler {
    state: Mutex<DispatchState>,
    cv: Condvar,
    epoch: Instant,
    aborted: Mutex<bool>,
}

impl Scheduler {
    /// Wraps a fresh dispatch state.
    pub fn new(state: DispatchState) -> Self {
        Scheduler {
            state: Mutex::new(state),
            cv: Condvar::new(),
            epoch: Instant::now(),
            aborted: Mutex::new(false),
        }
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Signals a fatal error: every thread winds down at its next ask.
    pub fn abort(&self) {
        *self.aborted.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Whether a fatal error has been signalled.
    pub fn is_aborted(&self) -> bool {
        *self.aborted.lock().unwrap()
    }

    /// Blocks until remote work is available (or returns `None` when
    /// none will ever be again). Waits are bounded so no thread can
    /// miss a wakeup forever.
    pub fn acquire_remote(&self) -> Option<RemoteNext> {
        let mut st = self.state.lock().unwrap();
        loop {
            if self.is_aborted() {
                return None;
            }
            match st.next_remote(self.now()) {
                RemoteNext::Exhausted => return None,
                d @ RemoteNext::Dispatch { .. } => return Some(d),
                RemoteNext::Wait(d) => {
                    let wait = d.clamp(Duration::from_millis(1), Duration::from_millis(100));
                    let (guard, _) = self.cv.wait_timeout(st, wait).unwrap();
                    st = guard;
                }
            }
        }
    }

    /// Blocks until local work is available; `None` once every cell is
    /// resolved (local threads stay alive to absorb late parks).
    pub fn acquire_local(&self, steal: bool) -> Option<usize> {
        let mut st = self.state.lock().unwrap();
        loop {
            if self.is_aborted() || st.all_done() {
                return None;
            }
            if let Some(id) = st.next_local(steal) {
                return Some(id);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(100))
                .unwrap();
            st = guard;
        }
    }

    /// Records a completion; see [`DispatchState::complete`].
    pub fn complete(&self, id: usize, bits: &[u8], remote: bool) -> Completion {
        let mut st = self.state.lock().unwrap();
        let c = st.complete(id, bits, remote);
        self.cv.notify_all();
        c
    }

    /// Records a failed remote attempt; see
    /// [`DispatchState::fail_remote`].
    pub fn fail_remote(&self, id: usize) -> FailOutcome {
        let now = self.now();
        let mut st = self.state.lock().unwrap();
        let f = st.fail_remote(id, now);
        self.cv.notify_all();
        f
    }

    /// Parks a server-rejected cell; see [`DispatchState::park_local`].
    pub fn park_local(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        st.park_local(id);
        self.cv.notify_all();
    }

    /// Declares the worker pool dead; see [`DispatchState::pool_died`].
    pub fn pool_died(&self) {
        let mut st = self.state.lock().unwrap();
        st.pool_died();
        self.cv.notify_all();
    }

    /// Whether every cell is resolved.
    pub fn all_done(&self) -> bool {
        self.state.lock().unwrap().all_done()
    }

    /// Runs `f` with the locked state (summary extraction).
    pub fn with_state<T>(&self, f: impl FnOnce(&mut DispatchState) -> T) -> T {
        let mut st = self.state.lock().unwrap();
        f(&mut st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::DispatchSummary;
    use crate::worker::WorkerPool;

    fn cfg(retries: u32, backoff_ms: u64, speculate_ms: Option<u64>) -> DispatchConfig {
        DispatchConfig {
            retries,
            backoff: Duration::from_millis(backoff_ms),
            speculate_after: speculate_ms.map(Duration::from_millis),
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn happy_path_dispatches_each_cell_once() {
        let mut st = DispatchState::new(&[true, true, true], cfg(2, 100, None));
        let mut got = Vec::new();
        for _ in 0..3 {
            match st.next_remote(ms(0)) {
                RemoteNext::Dispatch { id, speculative } => {
                    assert!(!speculative);
                    got.push(id);
                }
                other => panic!("expected dispatch, got {other:?}"),
            }
        }
        assert!(matches!(st.next_remote(ms(1)), RemoteNext::Wait(_)));
        for id in got {
            assert_eq!(st.complete(id, b"r", true), Completion::Fresh);
        }
        assert!(st.all_done());
        assert_eq!(st.next_remote(ms(2)), RemoteNext::Exhausted);
    }

    #[test]
    fn failures_back_off_exponentially_then_park() {
        let mut st = DispatchState::new(&[true], cfg(2, 100, None));
        // Attempt 1 at t=0.
        assert!(matches!(
            st.next_remote(ms(0)),
            RemoteNext::Dispatch { id: 0, .. }
        ));
        assert_eq!(st.fail_remote(0, ms(10)), FailOutcome::Retry);
        // Backoff 100 ms: not eligible at t=50…
        match st.next_remote(ms(50)) {
            RemoteNext::Wait(d) => assert_eq!(d, ms(60)),
            other => panic!("expected wait, got {other:?}"),
        }
        // …eligible at t=110 (attempt 2).
        assert!(matches!(
            st.next_remote(ms(110)),
            RemoteNext::Dispatch { id: 0, .. }
        ));
        // Second failure doubles the backoff: 200 ms.
        assert_eq!(st.fail_remote(0, ms(120)), FailOutcome::Retry);
        match st.next_remote(ms(130)) {
            RemoteNext::Wait(d) => assert_eq!(d, ms(190)),
            other => panic!("expected wait, got {other:?}"),
        }
        // Attempt 3 (retries=2 allows 3 attempts total), then park.
        assert!(matches!(
            st.next_remote(ms(320)),
            RemoteNext::Dispatch { id: 0, .. }
        ));
        assert_eq!(st.fail_remote(0, ms(330)), FailOutcome::ParkedLocal);
        assert_eq!(st.counts.retry_exhausted, 1);
        assert_eq!(st.counts.retries, 2);
        // It now comes out of the local queue, and the remote side is
        // exhausted.
        assert_eq!(st.next_remote(ms(340)), RemoteNext::Exhausted);
        assert_eq!(st.next_local(false), Some(0));
        assert_eq!(st.complete(0, b"r", false), Completion::Fresh);
        assert!(st.all_done());
    }

    #[test]
    fn pool_death_parks_everything_remote() {
        let mut st = DispatchState::new(&[true, true, true], cfg(5, 100, None));
        // One in flight, two queued.
        assert!(matches!(st.next_remote(ms(0)), RemoteNext::Dispatch { .. }));
        st.pool_died();
        assert_eq!(st.counts.pool_drained, 2);
        assert_eq!(st.next_remote(ms(1)), RemoteNext::Exhausted);
        // The in-flight cell's failure parks it too, despite the
        // untouched retry budget.
        assert_eq!(st.fail_remote(0, ms(2)), FailOutcome::ParkedLocal);
        assert_eq!(st.counts.pool_drained, 3);
        // All three drain locally.
        let mut local = Vec::new();
        while let Some(id) = st.next_local(false) {
            local.push(id);
            st.complete(id, b"r", false);
        }
        local.sort_unstable();
        assert_eq!(local, vec![0, 1, 2]);
        assert!(st.all_done());
    }

    #[test]
    fn speculation_duplicates_only_stragglers() {
        let mut st = DispatchState::new(&[true, true], cfg(2, 100, Some(500)));
        assert!(matches!(
            st.next_remote(ms(0)),
            RemoteNext::Dispatch { id: 0, .. }
        ));
        assert!(matches!(
            st.next_remote(ms(10)),
            RemoteNext::Dispatch { id: 1, .. }
        ));
        // Too young to speculate.
        assert!(matches!(st.next_remote(ms(100)), RemoteNext::Wait(_)));
        // Past the straggler age: the oldest in-flight cell (0) is
        // duplicated, exactly once.
        match st.next_remote(ms(600)) {
            RemoteNext::Dispatch { id, speculative } => {
                assert_eq!(id, 0);
                assert!(speculative);
            }
            other => panic!("expected speculative dispatch, got {other:?}"),
        }
        assert_eq!(st.counts.speculated, 1);
        // Cell 0 now has 2 in flight — not eligible again; cell 1 is.
        match st.next_remote(ms(700)) {
            RemoteNext::Dispatch { id, speculative } => {
                assert_eq!(id, 1);
                assert!(speculative);
            }
            other => panic!("expected speculative dispatch, got {other:?}"),
        }
        assert!(matches!(st.next_remote(ms(800)), RemoteNext::Wait(_)));
    }

    #[test]
    fn duplicate_completions_reconcile_by_bytes() {
        let mut st = DispatchState::new(&[true], cfg(2, 100, Some(0)));
        assert!(matches!(st.next_remote(ms(0)), RemoteNext::Dispatch { .. }));
        // Idle channel immediately speculates (age 0).
        assert!(matches!(
            st.next_remote(ms(1)),
            RemoteNext::Dispatch {
                speculative: true,
                ..
            }
        ));
        // First completion is fresh and emitted.
        assert_eq!(st.complete(0, b"result-bytes", true), Completion::Fresh);
        // Identical duplicate: counted, not emitted.
        assert_eq!(
            st.complete(0, b"result-bytes", true),
            Completion::DuplicateMatch
        );
        assert_eq!(st.counts.duplicates, 1);
        assert!(st.all_done());
        assert_eq!(st.unresolved(), 0);
    }

    #[test]
    fn duplicate_mismatch_is_flagged_fatally() {
        let mut st = DispatchState::new(&[true], cfg(2, 100, Some(0)));
        assert!(matches!(st.next_remote(ms(0)), RemoteNext::Dispatch { .. }));
        assert!(matches!(st.next_remote(ms(1)), RemoteNext::Dispatch { .. }));
        assert_eq!(st.complete(0, b"aaaa", true), Completion::Fresh);
        assert_eq!(st.complete(0, b"bbbb", true), Completion::DuplicateMismatch);
        // The mismatch is reported, not counted as a benign duplicate.
        assert_eq!(st.counts.duplicates, 0);
    }

    #[test]
    fn speculative_twin_failure_is_stale_not_a_retry() {
        let mut st = DispatchState::new(&[true], cfg(2, 100, Some(0)));
        assert!(matches!(st.next_remote(ms(0)), RemoteNext::Dispatch { .. }));
        assert!(matches!(st.next_remote(ms(1)), RemoteNext::Dispatch { .. }));
        // One twin fails while the other is still running: no retry yet.
        assert_eq!(st.fail_remote(0, ms(2)), FailOutcome::Stale);
        // The surviving twin completes normally.
        assert_eq!(st.complete(0, b"r", true), Completion::Fresh);
        assert!(st.all_done());
    }

    #[test]
    fn inexpressible_cells_start_on_the_local_queue() {
        let mut st = DispatchState::new(&[true, false], cfg(2, 100, None));
        assert_eq!(st.counts.inexpressible, 1);
        assert_eq!(st.next_local(false), Some(1));
        assert!(matches!(
            st.next_remote(ms(0)),
            RemoteNext::Dispatch { id: 0, .. }
        ));
    }

    #[test]
    fn local_steal_takes_from_the_back_of_the_remote_queue() {
        let mut st = DispatchState::new(&[true, true, true], cfg(2, 100, None));
        assert_eq!(st.next_local(true), Some(2));
        assert_eq!(st.next_local(false), None, "no steal, no local work");
        // Remote still gets the front cells.
        assert!(matches!(
            st.next_remote(ms(0)),
            RemoteNext::Dispatch { id: 0, .. }
        ));
        // A completion of a stolen cell releases a local token.
        assert_eq!(st.complete(2, b"r", false), Completion::Fresh);
        assert_eq!(st.unresolved(), 2);
    }

    #[test]
    fn server_rejection_parks_without_burning_retries() {
        let mut st = DispatchState::new(&[true], cfg(5, 100, None));
        assert!(matches!(st.next_remote(ms(0)), RemoteNext::Dispatch { .. }));
        st.park_local(0);
        assert_eq!(st.counts.rejected, 1);
        assert_eq!(st.counts.retries, 0);
        // The dispatch summary reports the parked cell.
        let summary = DispatchSummary::collect(&WorkerPool::new(Vec::new()), st.counts, 0, 0);
        assert!(summary.render().ends_with("0 inexpressible, 1 rejected"));
        assert!(summary.to_json().emit().contains("\"rejected\":1"));
        assert_eq!(st.next_remote(ms(1)), RemoteNext::Exhausted);
        assert_eq!(st.next_local(false), Some(0));
        assert_eq!(st.complete(0, b"r", false), Completion::Fresh);
        assert!(st.all_done());
    }

    #[test]
    fn late_completion_after_local_park_reconciles() {
        // A cell times out remotely, parks (retries=0), runs locally —
        // then the original remote attempt's result straggles in.
        let mut st = DispatchState::new(&[true], cfg(0, 100, None));
        assert!(matches!(st.next_remote(ms(0)), RemoteNext::Dispatch { .. }));
        assert_eq!(st.fail_remote(0, ms(10)), FailOutcome::ParkedLocal);
        assert_eq!(st.next_local(false), Some(0));
        assert_eq!(st.complete(0, b"r", false), Completion::Fresh);
        // Straggler arrives with identical bytes: benign duplicate.
        assert_eq!(st.complete(0, b"r", true), Completion::DuplicateMatch);
        assert!(st.all_done());
    }
}

//! Counters and log-scale latency histograms.
//!
//! Both are thin handles over shared atomics: cloning a handle shares
//! the underlying cell, incrementing is one relaxed atomic op, and the
//! *disabled* state is `None` — one predictable branch, no allocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event counter.
///
/// Handles are cheap to clone (they share one atomic); the default is
/// the disabled no-op, so instrumented code can hold counters
/// unconditionally and pay only an always-false branch when
/// observability is off.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// The disabled no-op counter.
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// A live standalone counter (always counts, even with no
    /// [`crate::ObsHandle`] attached — used for statistics that are
    /// reported unconditionally, like the result-cache hit rate, and
    /// adoptable into a registry later).
    pub fn active() -> Self {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    pub(crate) fn from_cell(cell: Arc<AtomicU64>) -> Self {
        Counter(Some(cell))
    }

    pub(crate) fn cell(&self) -> Option<&Arc<AtomicU64>> {
        self.0.as_ref()
    }

    /// Whether the counter actually counts.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Shared gauge storage: the value is an `i64` stored as its `u64` bit
/// pattern so updates stay single relaxed atomics.
#[derive(Debug)]
pub(crate) struct GaugeCore(AtomicU64);

impl GaugeCore {
    pub(crate) fn new() -> Self {
        GaugeCore(AtomicU64::new(0))
    }

    pub(crate) fn load(&self) -> i64 {
        self.0.load(Ordering::Relaxed) as i64
    }
}

/// An instantaneous level — queue depth, in-flight requests, open
/// connections — that moves both ways, unlike a [`Counter`].
///
/// Handles are cheap to clone (they share one atomic); the default is
/// the disabled no-op, matching the counter/histogram discipline.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCore>>);

impl Gauge {
    /// The disabled no-op gauge.
    pub fn disabled() -> Self {
        Gauge(None)
    }

    /// A live standalone gauge (always tracks, adoptable into a
    /// registry later — see [`crate::ObsHandle::adopt_gauge`]).
    pub fn active() -> Self {
        Gauge(Some(Arc::new(GaugeCore::new())))
    }

    pub(crate) fn from_core(core: Arc<GaugeCore>) -> Self {
        Gauge(Some(core))
    }

    pub(crate) fn core(&self) -> Option<&Arc<GaugeCore>> {
        self.0.as_ref()
    }

    /// Whether the gauge actually tracks.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `n` (which may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.0.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.0.store(v as u64, Ordering::Relaxed);
        }
    }

    /// The current level (0 when disabled).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load())
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`. 64 value buckets cover all of
/// `u64`.
pub(crate) const N_BUCKETS: usize = 65;

/// Shared histogram storage.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (the value reported for
    /// quantiles landing in it).
    pub(crate) fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub(crate) fn bucket_counts(&self) -> [u64; N_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The value at quantile `q` (0 ≤ q ≤ 1), reported as the upper
    /// bound of the log₂ bucket containing that rank — an upper
    /// estimate with ≤ 2× resolution, which is all a latency
    /// distribution needs. Returns 0 for an empty histogram.
    fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(N_BUCKETS - 1)
    }
}

/// A log₂-bucketed latency histogram handle (typically over
/// nanoseconds). Cloning shares the storage; the default is disabled.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// The disabled no-op histogram.
    pub fn disabled() -> Self {
        Histogram(None)
    }

    pub(crate) fn from_core(core: Arc<HistogramCore>) -> Self {
        Histogram(Some(core))
    }

    /// Whether the histogram actually records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.record(v);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.count())
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.sum())
    }

    /// Mean observation (0 for an empty or disabled histogram).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The value at quantile `q` (0 ≤ q ≤ 1), reported as the upper
    /// bound of the log₂ bucket containing that rank (at most 2× above
    /// it). Returns 0 for an empty or disabled histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        self.0.as_ref().map_or(0, |c| c.quantile(q))
    }

    /// Median (log₂-bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (log₂-bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (log₂-bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds every observation `local` holds to this histogram, once per
    /// non-empty bucket, and empties `local`. A disabled histogram only
    /// empties it.
    pub fn absorb(&self, local: &mut LocalHistogram) {
        if let Some(core) = &self.0 {
            for (shared, &n) in core.buckets.iter().zip(&local.buckets) {
                if n > 0 {
                    shared.fetch_add(n, Ordering::Relaxed);
                }
            }
            core.count.fetch_add(local.count, Ordering::Relaxed);
            core.sum.fetch_add(local.sum, Ordering::Relaxed);
        }
        *local = LocalHistogram::default();
    }
}

/// A histogram one owner records into with plain adds: the log₂
/// buckets, count and sum of a [`Histogram`], with none of its atomics.
/// A hot loop records here and hands the lot to the shared histogram
/// with [`Histogram::absorb`].
#[derive(Debug)]
pub struct LocalHistogram {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl LocalHistogram {
    /// Records one observation (the sum wraps, as the shared one does).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[HistogramCore::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Number of observations not yet absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_counter_is_inert() {
        let c = Counter::disabled();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        assert!(!c.is_enabled());
    }

    #[test]
    fn active_counter_counts_and_shares_on_clone() {
        let c = Counter::active();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c2.get(), 5);
    }

    #[test]
    fn disabled_gauge_is_inert() {
        let g = Gauge::disabled();
        g.inc();
        g.add(10);
        g.set(7);
        assert_eq!(g.get(), 0);
        assert!(!g.is_enabled());
    }

    #[test]
    fn gauge_moves_both_ways_and_shares_on_clone() {
        let g = Gauge::active();
        let g2 = g.clone();
        g.add(5);
        g2.dec();
        assert_eq!(g.get(), 4);
        g.add(-10);
        assert_eq!(g2.get(), -6, "gauges may go negative");
        g2.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(HistogramCore::bucket_of(0), 0);
        assert_eq!(HistogramCore::bucket_of(1), 1);
        assert_eq!(HistogramCore::bucket_of(2), 2);
        assert_eq!(HistogramCore::bucket_of(3), 2);
        assert_eq!(HistogramCore::bucket_of(4), 3);
        assert_eq!(HistogramCore::bucket_of(1023), 10);
        assert_eq!(HistogramCore::bucket_of(1024), 11);
        assert_eq!(HistogramCore::bucket_upper(0), 0);
        assert_eq!(HistogramCore::bucket_upper(10), 1023);
        assert_eq!(HistogramCore::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_bracket_a_known_distribution() {
        let h = Histogram::from_core(Arc::new(HistogramCore::new()));
        // 90 fast observations (~100 ns) and 10 slow ones (~1 ms).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.p50();
        assert!((64..=127).contains(&p50), "p50 = {p50}");
        let p95 = h.p95();
        assert!(p95 >= 524_288, "p95 = {p95} should land in the slow mode");
        assert!(h.p99() >= p95);
        let mean = h.mean();
        assert!((mean - 100_090.0).abs() < 1.0, "mean = {mean}");
    }

    #[test]
    fn empty_and_disabled_histograms_report_zero() {
        assert_eq!(Histogram::disabled().p99(), 0);
        assert_eq!(Histogram::disabled().mean(), 0.0);
        let h = Histogram::from_core(Arc::new(HistogramCore::new()));
        assert_eq!(h.p50(), 0);
    }

    #[test]
    fn absorbed_local_histogram_equals_direct_recording() {
        let direct = Histogram::from_core(Arc::new(HistogramCore::new()));
        let merged = Histogram::from_core(Arc::new(HistogramCore::new()));
        let mut local = LocalHistogram::default();
        for v in [0, 1, 3, 100, 100, 1 << 40, u64::MAX] {
            direct.record(v);
            local.record(v);
        }
        merged.record(7);
        direct.record(7);
        merged.absorb(&mut local);
        assert_eq!(local.count(), 0, "absorbing empties the local histogram");
        let core = |h: &Histogram| {
            let c = h.0.as_ref().unwrap();
            (c.bucket_counts(), c.count(), c.sum())
        };
        assert_eq!(core(&merged), core(&direct));
        local.record(5);
        Histogram::disabled().absorb(&mut local);
        assert_eq!(local.count(), 0);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let h = Histogram::from_core(Arc::new(HistogramCore::new()));
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.p99(), u64::MAX);
    }
}

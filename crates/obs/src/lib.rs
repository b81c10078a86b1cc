//! # dtm-obs — low-overhead tracing, metrics, and profiling
//!
//! Observability for the DTM simulator's hot loop and sweep harness:
//!
//! * **Spans** — a fixed-capacity ring buffer ([`ring::SpanRing`]) of
//!   named intervals with monotonic nanosecond timestamps. The ring is
//!   preallocated and overwrites its oldest entry, so recording never
//!   allocates and memory is bounded regardless of run length.
//! * **Metrics** — [`Counter`]s and log₂-bucketed latency
//!   [`Histogram`]s (p50/p95/p99) keyed by label, each a handful of
//!   relaxed atomic ops to update.
//! * **Exporters** — a chrome://tracing JSON document (loadable in
//!   Perfetto) and a Prometheus-style text dump, both produced from an
//!   [`ObsHandle`] snapshot.
//!
//! The whole subsystem hangs off [`ObsHandle`]. The default handle is
//! *disabled*: every probe short-circuits on one predictable `None`
//! check, performs **zero allocations** (asserted by a counting
//! allocator in this crate's tests), and records nothing — so
//! instrumentation can be threaded through the engine unconditionally
//! and compiled runs pay essentially nothing when profiling is off.

pub mod export;
pub mod handle;
pub mod metrics;
pub mod ring;

pub use handle::{ObsHandle, DEFAULT_RING_CAPACITY};
pub use metrics::{Counter, Gauge, Histogram, LocalHistogram};
pub use ring::{Span, SpanRing};

#[cfg(test)]
mod alloc_count {
    //! A counting global allocator for the zero-allocation assertions.
    //! The count is thread-local (const-initialised `Cell`, so the TLS
    //! access itself never allocates) to keep parallel test threads
    //! from polluting each other's measurements.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get() + 1));
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    pub fn allocations_on_this_thread() -> u64 {
        ALLOCS.with(|c| c.get())
    }
}

#[cfg(test)]
mod zero_alloc_tests {
    use super::alloc_count::allocations_on_this_thread;
    use super::*;

    #[test]
    fn disabled_recorder_performs_zero_allocations() {
        let obs = ObsHandle::disabled();
        let counter = obs.counter("dtm_cache_probes_total");
        let hist = obs.histogram("dtm_phase_thermal_ns");

        let before = allocations_on_this_thread();
        for i in 0..10_000u64 {
            let t = obs.now_ns();
            obs.record_span("engine", "thermal", t, 42);
            counter.inc();
            counter.add(i);
            hist.record(i);
            let _ = obs.is_enabled();
        }
        let after = allocations_on_this_thread();
        assert_eq!(
            after - before,
            0,
            "disabled observability must not allocate on the probe path"
        );
    }

    #[test]
    fn enabled_ring_does_not_allocate_once_full() {
        // Static-name spans reuse the overwritten slot in place, so a
        // full ring records without touching the allocator.
        let obs = ObsHandle::enabled(64);
        for i in 0..64u64 {
            obs.record_span("engine", "warmup", i, 1);
        }
        let before = allocations_on_this_thread();
        for i in 0..1_000u64 {
            obs.record_span("engine", "steady", i, 1);
        }
        let after = allocations_on_this_thread();
        assert_eq!(
            after - before,
            0,
            "a full ring with static span names must record allocation-free"
        );
        assert_eq!(obs.spans_recorded(), 1_064);
    }
}

//! The initial-state memo reconciles against the sweep's own cell
//! count: every simulator build is exactly one memo hit or one miss,
//! and a sweep misses once per workload, whatever the policy count.
//!
//! The memo is process-wide, so this check has a test binary of its
//! own: no other test's builds reach the counters it reads.

use dtm_core::{DtmConfig, ObsHandle, PolicySpec, SimConfig};
use dtm_harness::{ConfigVariant, SweepRunner, SweepSpec};
use dtm_workloads::{standard_workloads, TraceGenConfig, TraceLibrary};

#[test]
fn memo_hits_plus_misses_equal_cells_and_misses_equal_workloads() {
    let workloads = standard_workloads();
    assert_eq!(workloads.len(), 12);
    // A short run: the memo is consulted once per build, before the
    // first step.
    let mut sim = SimConfig::fast_test();
    sim.duration = 0.005;
    let spec = SweepSpec::new(workloads)
        .variant(ConfigVariant::new("base", sim, DtmConfig::default()))
        .policies([PolicySpec::baseline(), PolicySpec::best()]);
    let obs = ObsHandle::enabled_default();
    // One worker: two workers could both miss on one workload before
    // either keeps its answer, which is correct but not countable.
    let results = SweepRunner::bare(TraceLibrary::new(TraceGenConfig::fast_test()))
        .with_workers(1)
        .with_obs(&obs)
        .quiet()
        .run(spec)
        .expect("sweep");
    assert_eq!(results.executed(), 24);

    let cells = obs.counter("dtm_cells_executed_total").get();
    let hits = obs.counter("dtm_init_memo_hits_total").get();
    let misses = obs.counter("dtm_init_memo_misses_total").get();
    assert_eq!(cells, 24);
    assert_eq!(hits + misses, cells, "every build is one hit or one miss");
    assert_eq!(misses, 12, "one initial-state search per workload");
    let prom = obs.prometheus();
    assert!(prom.contains("dtm_init_memo_hits_total 12"), "{prom}");
    assert!(prom.contains("dtm_init_memo_misses_total 12"), "{prom}");
}

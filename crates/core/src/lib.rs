//! Multicore dynamic thermal management: classification and exploration.
//!
//! This crate implements the contribution of Donald & Martonosi's ISCA'06
//! study: a taxonomy of CMP thermal-management schemes along three
//! orthogonal axes — throttle mechanism (stop-go vs control-theoretic
//! DVFS), scope (global vs distributed), and OS-level migration (none,
//! counter-based, sensor-based) — and a power-trace-driven
//! thermal/timing simulator that evaluates all twelve combinations.
//!
//! # Architecture (Figures 1 and 2 of the paper)
//!
//! The toolflow is a two-loop control system over a layered simulation:
//!
//! ```text
//!   synthetic streams ─► dtm-microarch (Turandot role)
//!                      ─► dtm-power    (PowerTimer role)   per-thread
//!                      ─► PowerTrace   (28 µs samples)     power traces
//!                                           │
//!   ┌───────────── ThermalTimingSim ────────▼────────────────┐
//!   │  inner loop (hardware, 28 µs): clipped PI DVFS per core│
//!   │     sensors at both register files ─► PI ─► freq scale │
//!   │  outer loop (OS, 1–10 ms): migration policy            │
//!   │     counter proxies / thread×core thermal-trend table  │
//!   │  thermal substrate: dtm-thermal RC network + leakage   │
//!   └─────────────────────────────────────────────────────────┘
//! ```
//!
//! The OS flow for sensor-based migration (Figure 6): on each kernel
//! trap, record sensor gradients and DVFS scale factors into the
//! thread-core thermal table; if the table cannot yet estimate every
//! thread-core combination, set migration targets to profile more;
//! otherwise estimate all threads' hotspot intensities and apply the
//! matching algorithm of Figure 4.
//!
//! # Examples
//!
//! Compare the paper's baseline with its best policy on one workload:
//!
//! ```no_run
//! use dtm_core::{DtmConfig, Experiment, PolicySpec, SimConfig};
//! use dtm_workloads::{standard_workloads, TraceLibrary};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let exp = Experiment::new(TraceLibrary::default(), SimConfig::default(), DtmConfig::default());
//! let workload = &standard_workloads()[6]; // gzip-twolf-ammp-lucas
//! let base = exp.run(workload, PolicySpec::baseline())?;
//! let best = exp.run(workload, PolicySpec::best())?;
//! assert!(best.bips() > base.bips());
//! assert!(best.emergency_free());
//! # Ok(())
//! # }
//! ```

#[cfg(test)]
mod alloc_count {
    //! A counting global allocator for the allocation-free-step
    //! assertions. The count is thread-local (const-initialised `Cell`,
    //! so the TLS access itself never allocates) to keep parallel test
    //! threads from polluting each other's measurements.

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

mod batch;
mod config;
mod engine;
mod init_memo;
mod metrics;
mod migration;
mod policy;
mod runner;
mod telemetry;

pub use batch::LockstepBatch;
pub use config::{DtmConfig, LeakageConfig, SimConfig, PAPER_PI_KI, PAPER_PI_KP};
pub use dtm_control::GainScheduleConfig;
pub use dtm_faults::{
    FallbackKind, FaultConfig, FaultEvent, FaultKind, FaultScenario, FaultState, FaultTarget,
    Watchdog, WatchdogConfig,
};
pub use dtm_obs::{Counter, Gauge, Histogram, ObsHandle};
pub use dtm_thermal::SolverBackend;
pub use engine::{SimError, ThermalTimingSim, ENGINE_PHASES};
pub use init_memo::bind_init_memo_obs;
pub use metrics::{mean, GainStats, PhaseNs, PhaseProfile, Robustness, RunResult, ThreadStats};
pub use migration::{
    CounterMigration, MigrationPolicy, NoMigration, OsObservation, RotationMigration,
    SensorMigration, ThreadCounters, HOTSPOT_FP, HOTSPOT_INT,
};
pub use policy::{MigrationKind, PolicySpec, Scope, ThrottleKind};
pub use runner::{
    unconstrained_single_core, unconstrained_steady_temp, Experiment, SteadyTempSummary,
};
pub use telemetry::{Telemetry, TelemetryRecord};

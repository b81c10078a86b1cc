//! SPEC 2000-like workloads for the multicore DTM study.
//!
//! Provides the 22-benchmark catalog ([`all_benchmarks`]) with
//! calibrated synthetic stream profiles, the 12 four-process workloads of
//! the paper's Table 4 ([`standard_workloads`]), and power-trace
//! generation with caching ([`TraceLibrary`]).
//!
//! # Examples
//!
//! ```
//! use dtm_workloads::{standard_workloads, TraceGenConfig, TraceLibrary};
//!
//! let lib = TraceLibrary::new(TraceGenConfig::fast_test());
//! let w7 = &standard_workloads()[6]; // gzip-twolf-ammp-lucas
//! for bench in w7.resolve() {
//!     let trace = lib.trace(&bench);
//!     assert!(trace.mean_core_power() > 0.0);
//! }
//! ```

mod profiles;
mod tracegen;
mod workload;

pub use profiles::{all_benchmarks, benchmark, Benchmark, PhaseSpec, Suite};
pub use tracegen::{generate_trace, TraceGenConfig, TraceLibrary, TRACE_STORE};
pub use workload::{standard_workloads, Workload};

//! `dtm-harness`: the parallel sweep engine behind the experiment
//! binaries.
//!
//! Every table and figure in the paper is a grid of independent
//! simulations — workloads × policies × configuration variants. This
//! crate turns that observation into infrastructure:
//!
//! - [`SweepSpec`] declares the grid (and [`ConfigVariant`] names points
//!   on the configuration axis: threshold, core count, migration
//!   interval, sensor noise, …).
//! - [`SweepRunner`] executes the cells on a worker pool (size =
//!   available parallelism, overridable via `--workers` or the
//!   `DTM_WORKERS` environment variable), sharing one read-only
//!   [`dtm_workloads::TraceLibrary`] across workers behind an `Arc`.
//! - [`ResultCache`] is a content-addressed on-disk store under
//!   `results/cache/`: each cell is keyed by a stable hash of its
//!   complete inputs, so re-runs skip finished cells and experiments
//!   share overlapping cells (Table 5's grid is a subset of Table 8's).
//! - [`Ledger`] appends one structured JSON record per cell to
//!   `results/ledger.jsonl` — inputs hash, metrics, wall-clock, worker —
//!   a provenance trail for every number that reaches a table.
//! - [`report::Table`] renders the aligned-column text tables (or, with
//!   `--json`, machine-readable dumps) the binaries print.
//!
//! An experiment binary parses the shared flags into a [`SweepArgs`],
//! declares its grid, and runs it through `dtm_dist::run_with_args`,
//! which applies `--workers`, `--lanes`, `--no-cache` and `--dist` to
//! [`SweepRunner::paper_defaults`]. Without flags, a grid runs like
//! this:
//!
//! ```no_run
//! use dtm_core::PolicySpec;
//! use dtm_harness::{SweepRunner, SweepSpec};
//!
//! let spec = SweepSpec::standard(0.5).policies(PolicySpec::all());
//! let results = SweepRunner::paper_defaults().run(spec).expect("sweep");
//! // …render tables from `results` via dtm_harness::report…
//! ```

pub mod appender;
pub mod cache;
pub mod cli;
pub mod codec;
pub mod json;
pub mod ledger;
pub mod progress;
pub mod report;
pub mod runner;
pub mod sweep;

pub use appender::LineAppender;
pub use cache::{cell_key, cell_keys, CacheStats, CellKey, ResultCache, DEFAULT_CACHE_DIR};
pub use cli::SweepArgs;
pub use ledger::{Ledger, DEFAULT_LEDGER_PATH};
pub use progress::Progress;
pub use report::Table;
pub use runner::{
    Backend, BackendCtx, LocalBackend, LocalExec, SweepRunner, DEFAULT_LANES, LANES_ENV,
    WORKERS_ENV,
};
pub use sweep::{CellIndex, CellOutcome, ConfigVariant, SweepResults, SweepSpec};

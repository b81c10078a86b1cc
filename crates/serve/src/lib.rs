//! `dtm-serve`: the DTM simulation engine as a networked service.
//!
//! The sweep harness answers "run this grid"; this crate answers "run
//! this cell, now, for a remote caller" — the shape a design-space
//! exploration GUI, a CI regression gate, or a shared lab box needs.
//! It is a deliberately dependency-free server built on
//! `std::net::TcpListener` and the harness's own JSON model:
//!
//! - **Protocol** ([`protocol`]): length-prefixed JSON frames; verbs
//!   `simulate`, `metrics` (Prometheus text; `GET /metrics` accepted as
//!   an alias), `ping`, `shutdown`.
//! - **Requests** ([`request`]): a [`SimRequest`] names a workload (or
//!   an explicit benchmark tuple), a policy in wire spelling, optional
//!   duration, core-count and seed overrides, and optionally the whole
//!   `DtmConfig` and `FaultConfig` — and resolves into exactly the cell
//!   the sweep harness would run, sharing its content address and
//!   therefore its caches.
//! - **Admission control** ([`queue`]): a bounded queue; a full (or
//!   draining) queue answers `overloaded` immediately. Memory stays
//!   bounded at any offered load.
//! - **Deadlines**: a request's `deadline_ms` is checked when a worker
//!   picks it up; expired work is abandoned with a `timeout` response
//!   instead of burning a worker on an answer nobody awaits.
//! - **Serving tiers** ([`server`]): an in-memory memo, then the
//!   on-disk content-addressed [`dtm_harness::ResultCache`], then a
//!   fresh simulation on the worker pool (one shared prewarmed
//!   [`dtm_workloads::TraceLibrary`]).
//! - **Graceful drain**: shutdown stops admitting, answers everything
//!   already admitted, then exits — `accepted == completed + timeouts`
//!   exactly (see [`server::ShutdownReport::fully_drained`]).
//! - **Observability** ([`stats`]): request-flow counters, a
//!   queue-depth gauge, and latency histograms, all dumped via the
//!   `metrics` verb.
//!
//! The companion binaries are `dtm_serve` (this crate) and
//! `dtm_loadgen` (in `dtm-bench`), which drives a server at a fixed
//! arrival rate and writes `results/BENCH_serve.json`.

pub mod client;
pub mod protocol;
pub mod queue;
pub mod request;
pub mod server;
pub mod stats;

pub use client::Client;
pub use protocol::{ProtocolError, Request, Response, ResultSource, ServerInfo, SimResponse};
pub use request::SimRequest;
pub use server::{Server, ServerConfig, ServerHandle, ShutdownReport};
pub use stats::ServeStats;

//! # dtm-explore — deterministic policy-space exploration
//!
//! The paper fixes its DTM control parameters (Table 3) and compares
//! twelve policies on that single operating point. This crate asks the
//! follow-up question the paper leaves open: *how much of the ranking
//! is an artifact of the chosen knobs?* It searches the joint space of
//! policy × control parameters — PI gains, DVFS setpoint and stop-go
//! trip margins, gate duration, migration interval, control period —
//! and maintains the Pareto front over throughput, thermal violation,
//! energy, and fault-robustness.
//!
//! ## Architecture
//!
//! ```text
//! Strategy (ask/tell)  ──►  Explorer  ──►  SweepRunner backend seam
//!   coordinate descent        │  memo          (local or --dist)
//!   LHS + halving             │  journal  results/explore.jsonl
//!   (μ+λ) evolution           ▼
//!                        ParetoFront  ──►  results/EXPLORE_pareto.json
//! ```
//!
//! - [`SearchSpace`] maps normalized points to [`ConfigVariant`]s, so
//!   every evaluation flows through the ordinary sweep harness and its
//!   content-addressed result cache.
//! - [`Strategy`] implementations are pure, seeded state machines:
//!   same seed, same proposals, bit for bit.
//! - The [`Explorer`] memoizes evaluations by snapped identity and
//!   journals fresh scores; re-running an interrupted search replays
//!   the journal without re-simulating a single cell.
//! - Only full-fidelity evaluations (the whole workload set) enter the
//!   [`ParetoFront`]; halving rungs are guidance only.
//!
//! [`ConfigVariant`]: dtm_harness::ConfigVariant

pub mod engine;
pub mod evolve;
pub mod halving;
pub mod journal;
pub mod pareto;
pub mod roster;
pub mod score;
pub mod space;
pub mod strategy;

pub use engine::{Anchor, ExploreReport, Explorer, FrontRow, GenSummary};
pub use evolve::Evolve;
pub use halving::LhsHalving;
pub use journal::{eval_key, Journal, JournalRow};
pub use pareto::{Entry, ParetoFront};
pub use roster::standard_roster;
pub use score::Score;
pub use space::{is_adaptive_knob, snap, Knob, Point, ScheduleChoice, SearchSpace};
pub use strategy::{Ask, CoordinateDescent, Strategy};

//! HotSpot-style compact thermal modeling for multicore DTM studies.
//!
//! This crate turns a [`dtm_floorplan::Floorplan`] into an RC thermal
//! network ([`ThermalModel`]) and integrates it through time
//! ([`TransientSolver`]), with temperature-dependent leakage
//! ([`LeakageModel`]) and imperfect on-chip sensors ([`SensorBank`]).
//!
//! The formulation is the standard electro-thermal duality: heat sources
//! are currents, temperatures are voltages, conduction paths are
//! resistors, and thermal mass is capacitance. Both transient and
//! steady-state analyses are supported; the ISCA'06 DTM study requires
//! transients because its controllers react to temperature *trajectories*.
//!
//! # Examples
//!
//! Simulate one millisecond of a uniformly-powered 4-core chip:
//!
//! ```
//! use dtm_floorplan::Floorplan;
//! use dtm_thermal::{PackageConfig, ThermalModel, TransientSolver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fp = Floorplan::ppc_cmp(4);
//! let model = ThermalModel::new(&fp, &PackageConfig::default())?;
//! let mut sim = TransientSolver::new(model, 7e-6);
//! let power = vec![0.6; fp.len()];
//! sim.init_steady(&power)?;
//! for _ in 0..36 {
//!     sim.step(&power, 27.78e-6)?;
//! }
//! assert!(sim.block_temps().iter().all(|&t| t > 45.0));
//! # Ok(())
//! # }
//! ```

// Index-based loops are the clearest spelling of the LU and grid-stencil
// kernels below; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

mod batch;
pub mod exp;
mod grid;
mod leakage;
pub mod linalg;
mod model;
mod package;
mod propagator;
mod sensor;

pub use batch::{step_lumped_batch, BatchWorkspace};
pub use grid::{GridConfig, GridTemps, GridThermalModel};
pub use leakage::LeakageModel;
pub use model::{ThermalError, ThermalModel, TransientSolver};
pub use package::PackageConfig;
pub use propagator::SolverBackend;
pub use sensor::{SensorBank, SensorSpec};

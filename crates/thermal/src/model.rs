//! RC thermal network construction and solvers.
//!
//! The network follows the HotSpot compact-model formulation: one node per
//! floorplan block in the silicon layer, lateral conductances between
//! adjacent blocks, a vertical path from each block through the thermal
//! interface into a five-node heat spreader (center + four peripheral
//! nodes), a five-node heat sink above that, and a lumped convection
//! resistance from the sink to ambient.
//!
//! With node temperatures `T`, capacitances `C`, system matrix `A`
//! (conductance Laplacian plus ambient-coupling diagonal), injected power
//! `P`, and ambient coupling `g_amb`:
//!
//! ```text
//!   C dT/dt = P + g_amb·T_amb − A·T
//! ```
//!
//! Steady state solves `A·T = P + g_amb·T_amb`. Transients default to
//! the exact matrix-exponential propagator (`T ← E·T + F·P`, see
//! [`crate::propagator`]) cached per step size, and fall back to
//! backward Euler with a cached LU factorization (unconditionally
//! stable, so the stiff package nodes cannot destabilize the
//! integration) when the propagator cannot be built or when the
//! reference integrator is selected explicitly.

use crate::linalg::{LinalgError, LuFactors, Matrix};
use crate::propagator::{Propagator, SolverBackend};
use crate::PackageConfig;
use dtm_floorplan::Floorplan;
use std::fmt;

/// Error constructing or using a thermal model.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// The underlying linear system could not be solved.
    Linalg(LinalgError),
    /// The floorplan failed validation.
    BadFloorplan(String),
    /// A power vector had the wrong length.
    PowerLength { expected: usize, got: usize },
    /// A non-finite or negative quantity was encountered.
    NotPhysical(String),
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::Linalg(e) => write!(f, "linear solver failed: {e}"),
            ThermalError::BadFloorplan(msg) => write!(f, "invalid floorplan: {msg}"),
            ThermalError::PowerLength { expected, got } => {
                write!(f, "power vector has {got} entries, expected {expected}")
            }
            ThermalError::NotPhysical(msg) => write!(f, "non-physical model input: {msg}"),
        }
    }
}

impl std::error::Error for ThermalError {}

/// Validates a per-block power vector: `expected` entries, each finite
/// and non-negative (`-0.0` passes). The common case is one branch-free
/// pass; only a failing vector is rescanned for its first bad entry, so
/// the error names the same index an in-order check would.
pub(crate) fn check_block_power(expected: usize, block_power: &[f64]) -> Result<(), ThermalError> {
    if block_power.len() != expected {
        return Err(ThermalError::PowerLength {
            expected,
            got: block_power.len(),
        });
    }
    // NaN, ±∞ and negatives fall outside; -0.0 == 0.0 is inside.
    let physical = |w: f64| (0.0..f64::INFINITY).contains(&w);
    if block_power.iter().fold(true, |ok, &w| ok & physical(w)) {
        return Ok(());
    }
    let (i, w) = block_power
        .iter()
        .enumerate()
        .find(|&(_, &w)| !physical(w))
        .expect("the fold above found a non-physical entry");
    Err(ThermalError::NotPhysical(format!("power[{i}] = {w}")))
}

impl From<LinalgError> for ThermalError {
    fn from(e: LinalgError) -> Self {
        ThermalError::Linalg(e)
    }
}

/// A compact RC thermal model built from a floorplan and a package.
///
/// Node ordering: the first `n_blocks` nodes are the floorplan blocks (in
/// floorplan index order); package nodes (spreader, sink) follow.
///
/// # Examples
///
/// ```
/// use dtm_floorplan::Floorplan;
/// use dtm_thermal::{PackageConfig, ThermalModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fp = Floorplan::ppc_cmp(4);
/// let model = ThermalModel::new(&fp, &PackageConfig::default())?;
/// let power = vec![0.5; model.n_blocks()];
/// let temps = model.steady_state(&power)?;
/// assert!(temps.iter().all(|&t| t > 45.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ThermalModel {
    n_blocks: usize,
    n_nodes: usize,
    a: Matrix,
    cap: Vec<f64>,
    g_amb: Vec<f64>,
    ambient: f64,
    node_names: Vec<String>,
    /// Per-block fast-mode constriction resistance (K/W): sub-block
    /// hotspot excess per watt injected into the block.
    fast_r: Vec<f64>,
    /// Time constant of the sub-block mode (s).
    fast_tau: f64,
    /// LU factors of `a`, computed once so the many steady-state solves
    /// (leakage fixed-point iterations inside the initialization binary
    /// search) pay factorization once instead of per call. Identical to
    /// what [`Matrix::solve`] computes, so results are bit-identical.
    steady_lu: LuFactors,
}

impl ThermalModel {
    /// Builds the RC network for `floorplan` under `package`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadFloorplan`] if the floorplan fails
    /// validation, or [`ThermalError::NotPhysical`] for non-positive
    /// package parameters.
    pub fn new(floorplan: &Floorplan, package: &PackageConfig) -> Result<Self, ThermalError> {
        floorplan
            .validate()
            .map_err(|e| ThermalError::BadFloorplan(e.to_string()))?;
        for (name, v) in [
            ("t_silicon", package.t_silicon),
            ("k_silicon", package.k_silicon),
            ("c_silicon", package.c_silicon),
            ("t_interface", package.t_interface),
            ("k_interface", package.k_interface),
            ("spreader_side", package.spreader_side),
            ("spreader_thickness", package.spreader_thickness),
            ("sink_side", package.sink_side),
            ("sink_thickness", package.sink_thickness),
            ("k_copper", package.k_copper),
            ("c_copper", package.c_copper),
            ("r_convection", package.r_convection),
            ("local_tau", package.local_tau),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ThermalError::NotPhysical(format!("{name} = {v}")));
            }
        }

        let nb = floorplan.len();
        // Package nodes: spreader center, spreader N/E/S/W, sink center,
        // sink N/E/S/W.
        let sp_c = nb;
        let sp_edge = [nb + 1, nb + 2, nb + 3, nb + 4];
        let si_c = nb + 5;
        let si_edge = [nb + 6, nb + 7, nb + 8, nb + 9];
        let n = nb + 10;

        let mut g = Matrix::zeros(n, n); // pairwise conductances (symmetric)
        let mut g_amb = vec![0.0; n];

        // Lateral silicon conductances between adjacent blocks.
        for (i, j, edge) in floorplan.adjacency() {
            let dist = floorplan.center_distance(i, j);
            let cond = package.k_silicon * package.t_silicon * edge / dist;
            g[(i, j)] += cond;
            g[(j, i)] += cond;
        }

        // Vertical path: block -> spreader center, through half the die,
        // the TIM, and half the spreader thickness.
        let r_vert_per_area = package.t_silicon / (2.0 * package.k_silicon)
            + package.t_interface / package.k_interface
            + package.spreader_thickness / (2.0 * package.k_copper);
        for (i, b) in floorplan.blocks().iter().enumerate() {
            let cond = b.area() / r_vert_per_area;
            g[(i, sp_c)] += cond;
            g[(sp_c, i)] += cond;
        }

        // Spreader center <-> spreader periphery (lateral copper).
        let chip_w = floorplan.chip_width();
        let chip_h = floorplan.chip_height();
        let chip_area = floorplan.chip_area();
        let sp_side = package.spreader_side;
        let overhang = ((sp_side - chip_w.max(chip_h)) / 2.0).max(1e-4);
        for (k, &node) in sp_edge.iter().enumerate() {
            // N and S edges face the chip width; E and W face the height.
            let facing = if k % 2 == 0 { chip_w } else { chip_h };
            let cond = package.k_copper * package.spreader_thickness * facing / overhang;
            g[(sp_c, node)] += cond;
            g[(node, sp_c)] += cond;
        }

        // Spreader center -> sink center (vertical copper).
        let r_sp_si = package.spreader_thickness / (2.0 * package.k_copper)
            + package.sink_thickness / (2.0 * package.k_copper);
        let cond = chip_area / r_sp_si;
        g[(sp_c, si_c)] += cond;
        g[(si_c, sp_c)] += cond;

        // Spreader periphery -> sink periphery (vertical).
        let sp_area = sp_side * sp_side;
        let periph_area = ((sp_area - chip_area) / 4.0).max(1e-8);
        for (&spn, &sin) in sp_edge.iter().zip(&si_edge) {
            let cond = periph_area / r_sp_si;
            g[(spn, sin)] += cond;
            g[(sin, spn)] += cond;
        }

        // Sink center <-> sink periphery (lateral in the sink base).
        let sink_overhang = ((package.sink_side - sp_side) / 2.0 + overhang).max(1e-4);
        for &node in &si_edge {
            let cond = package.k_copper * package.sink_thickness * sp_side / sink_overhang;
            g[(si_c, node)] += cond;
            g[(node, si_c)] += cond;
        }

        // Convection: total conductance split over the five sink nodes in
        // proportion to footprint area.
        let sink_area = package.sink_side * package.sink_side;
        let g_conv_total = 1.0 / package.r_convection;
        let center_share = sp_area / sink_area;
        g_amb[si_c] = g_conv_total * center_share;
        for &node in &si_edge {
            g_amb[node] = g_conv_total * (1.0 - center_share) / 4.0;
        }

        // Capacitances.
        let mut cap = vec![0.0; n];
        for (i, b) in floorplan.blocks().iter().enumerate() {
            cap[i] = package.c_silicon * b.area() * package.t_silicon;
        }
        cap[sp_c] = package.c_copper * chip_area * package.spreader_thickness;
        for &node in &sp_edge {
            cap[node] = package.c_copper * periph_area * package.spreader_thickness;
        }
        cap[si_c] = package.c_copper * sp_area * package.sink_thickness;
        let sink_periph_area = ((sink_area - sp_area) / 4.0).max(1e-8);
        for &node in &si_edge {
            cap[node] = package.c_copper * sink_periph_area * package.sink_thickness;
        }

        // Assemble the system matrix A = L + diag(g_amb).
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            let mut diag = g_amb[i];
            for j in 0..n {
                if i != j {
                    let gij = g[(i, j)];
                    if gij != 0.0 {
                        a[(i, j)] = -gij;
                        diag += gij;
                    }
                }
            }
            a[(i, i)] = diag;
        }

        let mut node_names: Vec<String> = floorplan
            .blocks()
            .iter()
            .map(|b| b.name().to_string())
            .collect();
        node_names.extend(
            [
                "spreader_c",
                "spreader_n",
                "spreader_e",
                "spreader_s",
                "spreader_w",
                "sink_c",
                "sink_n",
                "sink_e",
                "sink_s",
                "sink_w",
            ]
            .iter()
            .map(|s| s.to_string()),
        );

        if !(package.local_constriction.is_finite() && package.local_constriction >= 0.0) {
            return Err(ThermalError::NotPhysical(format!(
                "local_constriction = {}",
                package.local_constriction
            )));
        }
        let fast_r = floorplan
            .blocks()
            .iter()
            .map(|b| package.local_constriction / b.area())
            .collect();

        let steady_lu = a.lu()?;
        Ok(ThermalModel {
            n_blocks: nb,
            n_nodes: n,
            a,
            cap,
            g_amb,
            ambient: package.ambient,
            node_names,
            fast_r,
            fast_tau: package.local_tau,
            steady_lu,
        })
    }

    /// Number of floorplan-block nodes (the length of a power vector).
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Total node count including package nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Ambient temperature (°C).
    pub fn ambient(&self) -> f64 {
        self.ambient
    }

    /// Node names (blocks first, then package nodes).
    pub fn node_names(&self) -> &[String] {
        &self.node_names
    }

    /// Heat capacitance of each node (J/K).
    pub fn capacitances(&self) -> &[f64] {
        &self.cap
    }

    /// Per-block fast-mode constriction resistance (K/W).
    pub fn fast_resistance(&self) -> &[f64] {
        &self.fast_r
    }

    /// Time constant of the sub-block fast mode (s).
    pub fn fast_tau(&self) -> f64 {
        self.fast_tau
    }

    /// Steady-state sub-block hotspot excess for a power vector (°C per
    /// block), i.e. `fast_r × power` element-wise.
    ///
    /// # Errors
    ///
    /// Fails on a wrong-length power vector.
    pub fn fast_excess_steady(&self, block_power: &[f64]) -> Result<Vec<f64>, ThermalError> {
        if block_power.len() != self.n_blocks {
            return Err(ThermalError::PowerLength {
                expected: self.n_blocks,
                got: block_power.len(),
            });
        }
        Ok(block_power
            .iter()
            .zip(&self.fast_r)
            .map(|(p, r)| p * r)
            .collect())
    }

    /// Validates a power vector (length, finiteness, non-negativity)
    /// without building the right-hand side.
    fn check_power(&self, block_power: &[f64]) -> Result<(), ThermalError> {
        check_block_power(self.n_blocks, block_power)
    }

    fn rhs(&self, block_power: &[f64]) -> Result<Vec<f64>, ThermalError> {
        self.check_power(block_power)?;
        let mut p = vec![0.0; self.n_nodes];
        p[..self.n_blocks].copy_from_slice(block_power);
        for i in 0..self.n_nodes {
            p[i] += self.g_amb[i] * self.ambient;
        }
        Ok(p)
    }

    /// Steady-state temperatures (°C) of **all** nodes for the given
    /// per-block power (W).
    ///
    /// # Errors
    ///
    /// Fails if the power vector has the wrong length, contains negative
    /// or non-finite entries, or if the system is singular.
    pub fn steady_state(&self, block_power: &[f64]) -> Result<Vec<f64>, ThermalError> {
        let p = self.rhs(block_power)?;
        Ok(self.steady_lu.solve(&p))
    }

    /// Consistency checks: the system matrix must be a symmetric
    /// M-matrix-like Laplacian (positive diagonal, non-positive
    /// off-diagonals) with every node connected to ambient through the
    /// network.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NotPhysical`] describing the first
    /// violation.
    pub fn validate(&self) -> Result<(), ThermalError> {
        if self.a.asymmetry() > 1e-9 {
            return Err(ThermalError::NotPhysical(
                "conductance matrix is not symmetric".into(),
            ));
        }
        for i in 0..self.n_nodes {
            if self.a[(i, i)] <= 0.0 {
                return Err(ThermalError::NotPhysical(format!(
                    "node {i} has non-positive diagonal"
                )));
            }
            if self.cap[i] <= 0.0 {
                return Err(ThermalError::NotPhysical(format!(
                    "node {i} has non-positive capacitance"
                )));
            }
            for j in 0..self.n_nodes {
                if i != j && self.a[(i, j)] > 0.0 {
                    return Err(ThermalError::NotPhysical(format!(
                        "positive off-diagonal at ({i},{j})"
                    )));
                }
            }
        }
        // Zero power must give ambient everywhere; this also proves
        // global connectivity to ambient.
        let t = self.steady_state(&vec![0.0; self.n_blocks])?;
        for (i, &ti) in t.iter().enumerate() {
            if (ti - self.ambient).abs() > 1e-6 {
                return Err(ThermalError::NotPhysical(format!(
                    "node {i} not coupled to ambient (T={ti})"
                )));
            }
        }
        Ok(())
    }
}

/// Transient thermal integrator.
///
/// The default backend ([`SolverBackend::Propagator`]) advances the
/// whole step with the precomputed exact propagator `T ← E·T + F·p`
/// (one dense matvec, no substeps), rebuilding `E`/`F` only when `dt`
/// changes. The reference backend ([`SolverBackend::BackwardEuler`])
/// divides `dt` into equal substeps no longer than the configured
/// maximum and re-solves a cached LU factorization per substep; it is
/// the reference the differential suites check the propagator against.
/// A propagator that cannot be built (singular or ill-conditioned `A`)
/// is an error.
///
/// The solver owns its temperature state.
#[derive(Debug, Clone)]
pub struct TransientSolver {
    model: ThermalModel,
    temps: Vec<f64>,
    fast_delta: Vec<f64>,
    max_substep: f64,
    backend: SolverBackend,
    cached: Option<(f64, LuFactors)>,
    prop: Option<std::sync::Arc<Propagator>>,
    /// The fast mode's per-step decay `exp(−dt/τ)`, keyed by the exact
    /// bits of the `dt` it was computed for: a hit returns the very
    /// value a fresh `exp` would.
    fast_decay: Option<(u64, f64)>,
    rhs_buf: Vec<f64>,
    sol_buf: Vec<f64>,
}

impl TransientSolver {
    /// Creates a solver starting at ambient temperature everywhere,
    /// using the default exact-propagator backend.
    ///
    /// `max_substep` is the longest backward-Euler substep (s), used by
    /// the reference backend; 7 µs gives ~4 substeps per
    /// 27.8 µs power sample, resolving the fastest silicon time
    /// constants well.
    ///
    /// # Panics
    ///
    /// Panics if `max_substep` is not positive and finite.
    pub fn new(model: ThermalModel, max_substep: f64) -> Self {
        assert!(
            max_substep.is_finite() && max_substep > 0.0,
            "substep must be positive"
        );
        let temps = vec![model.ambient(); model.n_nodes()];
        let fast_delta = vec![0.0; model.n_blocks()];
        TransientSolver {
            model,
            temps,
            fast_delta,
            max_substep,
            backend: SolverBackend::default(),
            cached: None,
            prop: None,
            fast_decay: None,
            rhs_buf: Vec::new(),
            sol_buf: Vec::new(),
        }
    }

    /// Selects the integration backend (builder style).
    pub fn with_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The backend this solver was configured with.
    pub fn backend(&self) -> SolverBackend {
        self.backend
    }

    /// The underlying model.
    pub fn model(&self) -> &ThermalModel {
        &self.model
    }

    /// Current temperatures of the floorplan blocks (°C).
    pub fn block_temps(&self) -> &[f64] {
        &self.temps[..self.model.n_blocks()]
    }

    /// Current temperatures of all nodes (°C).
    pub fn node_temps(&self) -> &[f64] {
        &self.temps
    }

    /// Temperature of one block (°C).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block_temp(&self, block: usize) -> f64 {
        assert!(block < self.model.n_blocks(), "block index out of range");
        self.temps[block]
    }

    /// Sub-block hotspot excess per block (°C).
    pub fn fast_excess(&self) -> &[f64] {
        &self.fast_delta
    }

    /// Hotspot temperature of one block (°C): the lumped node
    /// temperature plus the sub-block fast-mode excess. Thermal sensors
    /// read these.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn hot_block_temp(&self, block: usize) -> f64 {
        self.temps[block] + self.fast_delta[block]
    }

    /// Initializes all nodes from the steady state of `block_power`,
    /// emulating a chip that has been running that load long enough for
    /// the package to equilibrate.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from [`ThermalModel::steady_state`].
    pub fn init_steady(&mut self, block_power: &[f64]) -> Result<(), ThermalError> {
        self.temps = self.model.steady_state(block_power)?;
        self.fast_delta = self.model.fast_excess_steady(block_power)?;
        Ok(())
    }

    /// Prebuilds the per-`dt` caches the active backend needs — the
    /// propagator's `E`/`F`, or backward Euler's LU factorization — so
    /// the first `step` at that `dt` doesn't pay one-time construction
    /// cost inside a timed loop. Stepping without prewarming is
    /// numerically identical; the caches are built on demand.
    ///
    /// # Errors
    ///
    /// Fails on a non-physical `dt`, a singular system, or a propagator
    /// that cannot be built (see [`SolverBackend::Propagator`]).
    pub fn prewarm(&mut self, dt: f64) -> Result<(), ThermalError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ThermalError::NotPhysical(format!("dt = {dt}")));
        }
        match self.backend {
            SolverBackend::Propagator => self.ensure_propagator(dt),
            SolverBackend::BackwardEuler => self.ensure_lu(dt).map(|_| ()),
        }
    }

    /// Builds (or rebuilds, after a `dt` change) the cached propagator.
    fn ensure_propagator(&mut self, dt: f64) -> Result<(), ThermalError> {
        let needs_build = match &self.prop {
            Some(p) => (p.dt() - dt).abs() > 1e-15,
            None => true,
        };
        if needs_build {
            // Served from the process-wide cache when an identical
            // thermal configuration already built one (bit-identical).
            self.prop = Some(Propagator::shared(
                &self.model.a,
                &self.model.cap,
                &self.model.g_amb,
                self.model.ambient,
                self.model.n_blocks,
                dt,
            )?);
        }
        Ok(())
    }

    /// Factors (or re-factors, after a `dt` change) the backward-Euler
    /// LU cache; returns the substep count and length for `dt`.
    fn ensure_lu(&mut self, dt: f64) -> Result<(usize, f64), ThermalError> {
        let n_sub = (dt / self.max_substep).ceil().max(1.0) as usize;
        let h = dt / n_sub as f64;
        let needs_factor = match &self.cached {
            Some((cached_h, _)) => (cached_h - h).abs() > 1e-15,
            None => true,
        };
        if needs_factor {
            let n = self.model.n_nodes();
            let mut m = self.model.a.clone();
            for i in 0..n {
                m[(i, i)] += self.model.cap[i] / h;
            }
            self.cached = Some((h, m.lu()?));
        }
        Ok((n_sub, h))
    }

    /// Advances the state by `dt` seconds with constant per-block power
    /// (W) over the interval.
    ///
    /// # Errors
    ///
    /// Fails on bad power vectors, a singular system, or a propagator
    /// that cannot be built.
    pub fn step(&mut self, block_power: &[f64], dt: f64) -> Result<(), ThermalError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ThermalError::NotPhysical(format!("dt = {dt}")));
        }
        if self.backend == SolverBackend::Propagator {
            self.model.check_power(block_power)?;
            self.ensure_propagator(dt)?;
            let p = self.prop.as_ref().expect("propagator built above");
            p.advance(
                &mut self.temps,
                block_power,
                &mut self.rhs_buf,
                &mut self.sol_buf,
            );
            self.step_fast_mode(block_power, dt);
            return Ok(());
        }

        let p = self.model.rhs(block_power)?;
        let (n_sub, h) = self.ensure_lu(dt)?;
        let (_, lu) = self.cached.as_ref().expect("factorization cached above");

        for _ in 0..n_sub {
            self.rhs_buf.clear();
            self.rhs_buf.extend(
                self.temps
                    .iter()
                    .zip(&self.model.cap)
                    .zip(&p)
                    .map(|((t, c), pi)| pi + c / h * t),
            );
            lu.solve_into(&self.rhs_buf, &mut self.sol_buf);
            std::mem::swap(&mut self.temps, &mut self.sol_buf);
        }

        self.step_fast_mode(block_power, dt);
        Ok(())
    }

    /// Batched-stepping handle for [`crate::batch`]: the shared
    /// propagator this solver would advance with for a step of `dt`, or
    /// `None` for the backward-Euler backend.
    ///
    /// # Errors
    ///
    /// Fails, as a scalar `step` would, when the propagator cannot be
    /// built.
    pub(crate) fn batch_prop(
        &mut self,
        dt: f64,
    ) -> Result<Option<&std::sync::Arc<Propagator>>, ThermalError> {
        if self.backend != SolverBackend::Propagator {
            return Ok(None);
        }
        self.ensure_propagator(dt)?;
        Ok(self.prop.as_ref())
    }

    /// Validates a power vector exactly as `step` would before the
    /// propagator advance.
    pub(crate) fn batch_check_power(&self, block_power: &[f64]) -> Result<(), ThermalError> {
        self.model.check_power(block_power)
    }

    /// Mutable node temperatures, for the batched gather/scatter.
    pub(crate) fn temps_mut(&mut self) -> &mut [f64] {
        &mut self.temps
    }

    /// Applies the post-advance sub-block fast mode after a batched
    /// propagator step (the scalar path runs the same update).
    pub(crate) fn batch_fast_mode(&mut self, block_power: &[f64], dt: f64) {
        self.step_fast_mode(block_power, dt);
    }

    /// Sub-block fast mode: first-order relaxation toward `r·P` with an
    /// exact exponential update over the full step (shared by both
    /// backends).
    fn step_fast_mode(&mut self, block_power: &[f64], dt: f64) {
        let decay = match self.fast_decay {
            Some((bits, decay)) if bits == dt.to_bits() => decay,
            _ => {
                let decay = crate::exp::exp(-dt / self.model.fast_tau);
                self.fast_decay = Some((dt.to_bits(), decay));
                decay
            }
        };
        for ((delta, &r), &pw) in self
            .fast_delta
            .iter_mut()
            .zip(&self.model.fast_r)
            .zip(block_power)
        {
            let target = r * pw;
            *delta = target + (*delta - target) * decay;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_floorplan::{Floorplan, UnitKind};

    fn model4() -> ThermalModel {
        ThermalModel::new(&Floorplan::ppc_cmp(4), &PackageConfig::default()).unwrap()
    }

    #[test]
    fn model_validates() {
        model4().validate().unwrap();
    }

    #[test]
    fn zero_power_steady_state_is_ambient() {
        let m = model4();
        let t = m.steady_state(&vec![0.0; m.n_blocks()]).unwrap();
        for ti in t {
            assert!((ti - m.ambient()).abs() < 1e-6);
        }
    }

    #[test]
    fn steady_state_rises_with_power() {
        let m = model4();
        let t_lo = m.steady_state(&vec![0.2; m.n_blocks()]).unwrap();
        let t_hi = m.steady_state(&vec![0.4; m.n_blocks()]).unwrap();
        for (lo, hi) in t_lo.iter().zip(&t_hi) {
            assert!(hi > lo);
        }
    }

    #[test]
    fn steady_state_is_linear_in_power() {
        // The RC network (without leakage feedback) is linear: doubling
        // power doubles the rise over ambient.
        let m = model4();
        let p: Vec<f64> = (0..m.n_blocks()).map(|i| 0.1 + 0.01 * i as f64).collect();
        let t1 = m.steady_state(&p).unwrap();
        let p2: Vec<f64> = p.iter().map(|w| w * 2.0).collect();
        let t2 = m.steady_state(&p2).unwrap();
        for (a, b) in t1.iter().zip(&t2) {
            let rise1 = a - m.ambient();
            let rise2 = b - m.ambient();
            assert!((rise2 - 2.0 * rise1).abs() < 1e-6);
        }
    }

    #[test]
    fn heated_block_is_hottest() {
        let m = model4();
        let fp = Floorplan::ppc_cmp(4);
        let rf = fp.block_of(0, UnitKind::IntRegFile).unwrap();
        let mut p = vec![0.0; m.n_blocks()];
        p[rf] = 3.0;
        let t = m.steady_state(&p).unwrap();
        let hottest = t[..m.n_blocks()]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(hottest, rf);
    }

    #[test]
    fn neighbor_blocks_warm_through_lateral_coupling() {
        let m = model4();
        let fp = Floorplan::ppc_cmp(4);
        let rf = fp.block_of(0, UnitKind::IntRegFile).unwrap();
        let fxu = fp.block_of(0, UnitKind::Fxu).unwrap();
        let far = fp.block_of(3, UnitKind::Fpu).unwrap();
        let mut p = vec![0.0; m.n_blocks()];
        p[rf] = 3.0;
        let t = m.steady_state(&p).unwrap();
        // Adjacent FXU warms more than a far-away block in another core.
        assert!(t[fxu] > t[far] + 0.5, "fxu={} far={}", t[fxu], t[far]);
    }

    #[test]
    fn wrong_power_length_is_rejected() {
        let m = model4();
        assert!(matches!(
            m.steady_state(&[0.0; 3]),
            Err(ThermalError::PowerLength { .. })
        ));
    }

    #[test]
    fn negative_power_is_rejected() {
        let m = model4();
        let mut p = vec![0.0; m.n_blocks()];
        p[0] = -1.0;
        assert!(matches!(
            m.steady_state(&p),
            Err(ThermalError::NotPhysical(_))
        ));
    }

    #[test]
    fn non_physical_package_is_rejected() {
        let fp = Floorplan::ppc_cmp(1);
        let pkg = PackageConfig {
            k_silicon: -5.0,
            ..PackageConfig::default()
        };
        assert!(matches!(
            ThermalModel::new(&fp, &pkg),
            Err(ThermalError::NotPhysical(_))
        ));
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let m = model4();
        let p = vec![0.5; m.n_blocks()];
        let expect = m.steady_state(&p).unwrap();
        let mut sim = TransientSolver::new(m, 50e-6);
        // Start *from* steady state of a different power level and run
        // long enough for silicon (not package) to settle.
        sim.init_steady(&p).unwrap();
        for _ in 0..100 {
            sim.step(&p, 1e-3).unwrap();
        }
        for (t, e) in sim.node_temps().iter().zip(&expect) {
            assert!((t - e).abs() < 0.05, "t={t} expected={e}");
        }
    }

    #[test]
    fn transient_moves_toward_new_equilibrium() {
        let m = model4();
        let nb = m.n_blocks();
        let mut sim = TransientSolver::new(m, 7e-6);
        sim.init_steady(&vec![0.2; nb]).unwrap();
        let t0 = sim.block_temps().to_vec();
        let hot = vec![1.0; nb];
        for _ in 0..40 {
            sim.step(&hot, 27.78e-6).unwrap();
        }
        // ~1.1 ms at 5× the power: every silicon block must have warmed.
        for (a, b) in t0.iter().zip(sim.block_temps()) {
            assert!(b > a);
        }
    }

    #[test]
    fn transient_cooling_monotone_after_power_off() {
        let m = model4();
        let nb = m.n_blocks();
        let mut sim = TransientSolver::new(m, 7e-6);
        sim.init_steady(&vec![0.8; nb]).unwrap();
        let off = vec![0.0; nb];
        let mut prev_max = sim
            .block_temps()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        for _ in 0..50 {
            sim.step(&off, 100e-6).unwrap();
            let max = sim
                .block_temps()
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(max <= prev_max + 1e-9);
            prev_max = max;
        }
    }

    #[test]
    fn transient_never_drops_below_ambient() {
        let m = model4();
        let nb = m.n_blocks();
        let amb = m.ambient();
        let mut sim = TransientSolver::new(m, 7e-6);
        let off = vec![0.0; nb];
        for _ in 0..20 {
            sim.step(&off, 1e-3).unwrap();
            for &t in sim.node_temps() {
                assert!(t >= amb - 1e-9);
            }
        }
    }

    #[test]
    fn substep_refactor_happens_once_for_constant_dt() {
        let m = model4();
        let nb = m.n_blocks();
        let mut sim = TransientSolver::new(m, 7e-6).with_backend(SolverBackend::BackwardEuler);
        let p = vec![0.3; nb];
        sim.step(&p, 27.78e-6).unwrap();
        let cached_h = sim.cached.as_ref().unwrap().0;
        sim.step(&p, 27.78e-6).unwrap();
        assert_eq!(sim.cached.as_ref().unwrap().0, cached_h);
    }

    #[test]
    fn propagator_is_the_default_backend_and_builds_once() {
        let m = model4();
        let nb = m.n_blocks();
        let mut sim = TransientSolver::new(m, 7e-6);
        assert_eq!(sim.backend(), SolverBackend::Propagator);
        let p = vec![0.3; nb];
        sim.step(&p, 27.78e-6).unwrap();
        assert!(sim.cached.is_none(), "propagator path must not factor LU");
        let dt0 = sim.prop.as_ref().unwrap().dt();
        sim.step(&p, 27.78e-6).unwrap();
        assert_eq!(sim.prop.as_ref().unwrap().dt(), dt0);
    }

    #[test]
    fn propagator_cache_invalidates_on_dt_change() {
        // Changing dt mid-run must recompute E/F (mirroring the LU
        // `cached` path) and produce exactly the trajectory a fresh
        // solver produces from the same state.
        let m = model4();
        let nb = m.n_blocks();
        let p = vec![0.6; nb];
        let (dt1, dt2) = (27.78e-6, 55.56e-6);

        let mut a = TransientSolver::new(m.clone(), 7e-6);
        a.init_steady(&vec![0.2; nb]).unwrap();
        for _ in 0..5 {
            a.step(&p, dt1).unwrap();
        }
        assert!((a.prop.as_ref().unwrap().dt() - dt1).abs() < 1e-18);

        // A fresh solver resumed from A's mid-run state, never having
        // seen dt1.
        let mut b = TransientSolver::new(m, 7e-6);
        b.temps = a.temps.clone();
        b.fast_delta = a.fast_delta.clone();

        for _ in 0..5 {
            a.step(&p, dt2).unwrap();
            b.step(&p, dt2).unwrap();
        }
        assert!((a.prop.as_ref().unwrap().dt() - dt2).abs() < 1e-18);
        // Bit-identical: a stale E(dt1) would diverge immediately.
        assert_eq!(a.node_temps(), b.node_temps());
        assert_eq!(a.fast_excess(), b.fast_excess());
    }

    #[test]
    fn backends_agree_on_a_transient() {
        let m = model4();
        let nb = m.n_blocks();
        let p = vec![0.8; nb];
        let mut exact = TransientSolver::new(m.clone(), 7e-6);
        let mut euler = TransientSolver::new(m, 7e-6).with_backend(SolverBackend::BackwardEuler);
        exact.init_steady(&vec![0.2; nb]).unwrap();
        euler.init_steady(&vec![0.2; nb]).unwrap();
        for _ in 0..40 {
            exact.step(&p, 27.78e-6).unwrap();
            euler.step(&p, 27.78e-6).unwrap();
        }
        for (x, y) in exact.block_temps().iter().zip(euler.block_temps()) {
            assert!((x - y).abs() < 0.05, "exact {x} vs euler {y}");
        }
    }

    #[test]
    fn bad_dt_is_rejected() {
        let m = model4();
        let nb = m.n_blocks();
        let mut sim = TransientSolver::new(m, 7e-6);
        assert!(sim.step(&vec![0.0; nb], 0.0).is_err());
        assert!(sim.step(&vec![0.0; nb], f64::NAN).is_err());
    }

    #[test]
    fn block_time_constants_are_milliseconds() {
        // Sanity for the DTM timescale story: silicon blocks should react
        // on ~1–100 ms scales (stop-go stalls are 30 ms).
        let m = model4();
        let nb = m.n_blocks();
        let mut sim = TransientSolver::new(m.clone(), 7e-6);
        sim.init_steady(&vec![2.0; nb]).unwrap();
        let hot_start = sim.block_temps()[0];
        // Power off for 100 ms: blocks must cool noticeably ("a few
        // degrees", per the study's stop-go description) but nowhere
        // near all the way to ambient.
        let off = vec![0.0; nb];
        for _ in 0..100 {
            sim.step(&off, 1e-3).unwrap();
        }
        let hot_end = sim.block_temps()[0];
        let drop = hot_start - hot_end;
        assert!(drop > 0.5, "cooled only {drop} °C in 100 ms");
        assert!(
            hot_end > m.ambient() + 1.0,
            "cooled all the way to ambient in 100 ms (too fast)"
        );
    }
}

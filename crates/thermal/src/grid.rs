//! Grid-mode thermal model.
//!
//! HotSpot offers two formulations: the fast *block* model (one node per
//! floorplan unit — [`crate::ThermalModel`]) and the finer *grid* model
//! that meshes the die into uniform cells and resolves within-block
//! temperature gradients. This module implements the grid model for
//! steady-state analysis. It serves two purposes here:
//!
//! 1. **Cross-validation** — block-model temperatures should match the
//!    grid model's block-average temperatures.
//! 2. **Justifying the fast sub-block mode** — the block model carries a
//!    first-order "local constriction" correction
//!    ([`crate::PackageConfig::local_constriction`]); the grid model
//!    measures the true within-block peak-over-average gradient that
//!    correction stands in for.

use crate::linalg::{LuFactors, Matrix};
use crate::model::{check_block_power, ThermalError};
use crate::propagator::{PowerMap, Propagator, SolverBackend};
use crate::PackageConfig;
use dtm_floorplan::Floorplan;

/// Grid resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridConfig {
    /// Cells across the chip width.
    pub cols: usize,
    /// Cells across the chip height.
    pub rows: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig { cols: 16, rows: 24 }
    }
}

/// Steady-state grid thermal solver.
///
/// # Examples
///
/// ```
/// use dtm_floorplan::Floorplan;
/// use dtm_thermal::{GridConfig, GridThermalModel, PackageConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fp = Floorplan::ppc_cmp(1);
/// let grid = GridThermalModel::new(&fp, &PackageConfig::default(), GridConfig::default())?;
/// let power = vec![0.5; fp.len()];
/// let temps = grid.steady_state(&power)?;
/// let rf = fp.block_of(0, dtm_floorplan::UnitKind::IntRegFile).unwrap();
/// assert!(temps.block_max(rf) >= temps.block_mean(rf));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GridThermalModel {
    cols: usize,
    rows: usize,
    n_blocks: usize,
    /// `weights[block]` = list of `(cell, fraction_of_block_power)`.
    weights: Vec<Vec<(usize, f64)>>,
    /// `cells_of_block[block]` = cells with any overlap (for statistics).
    cells_of_block: Vec<Vec<usize>>,
    a: Matrix,
    g_amb: Vec<f64>,
    cap: Vec<f64>,
    ambient: f64,
}

/// Solved grid temperatures with block-level statistics.
#[derive(Debug, Clone)]
pub struct GridTemps<'m> {
    model: &'m GridThermalModel,
    temps: Vec<f64>,
}

impl GridTemps<'_> {
    /// Temperature of one cell (°C).
    ///
    /// # Panics
    ///
    /// Panics if the cell index is out of range.
    pub fn cell(&self, idx: usize) -> f64 {
        self.temps[idx]
    }

    /// All cell temperatures (cells first, then package nodes).
    pub fn cells(&self) -> &[f64] {
        &self.temps[..self.model.cols * self.model.rows]
    }

    /// Area-weighted mean temperature of a block (°C).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block_mean(&self, block: usize) -> f64 {
        let cells = &self.model.cells_of_block[block];
        assert!(!cells.is_empty(), "block covers no cells");
        cells.iter().map(|&c| self.temps[c]).sum::<f64>() / cells.len() as f64
    }

    /// Peak cell temperature within a block (°C).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block_max(&self, block: usize) -> f64 {
        self.model.cells_of_block[block]
            .iter()
            .map(|&c| self.temps[c])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The within-block gradient the block model's fast mode stands in
    /// for: peak minus mean (°C).
    pub fn block_excess(&self, block: usize) -> f64 {
        self.block_max(block) - self.block_mean(block)
    }
}

impl GridThermalModel {
    /// Meshes `floorplan` into `grid` cells over the same package as the
    /// block model.
    ///
    /// # Errors
    ///
    /// Fails on invalid floorplans or non-physical package parameters.
    pub fn new(
        floorplan: &Floorplan,
        package: &PackageConfig,
        grid: GridConfig,
    ) -> Result<Self, ThermalError> {
        floorplan
            .validate()
            .map_err(|e| ThermalError::BadFloorplan(e.to_string()))?;
        if grid.cols < 2 || grid.rows < 2 {
            return Err(ThermalError::NotPhysical(
                "grid must be at least 2×2".into(),
            ));
        }
        let (cols, rows) = (grid.cols, grid.rows);
        let n_cells = cols * rows;
        let chip_w = floorplan.chip_width();
        let chip_h = floorplan.chip_height();
        let cell_w = chip_w / cols as f64;
        let cell_h = chip_h / rows as f64;
        let cell_area = cell_w * cell_h;

        // Package nodes after the cells: spreader center + 4, sink
        // center + 4 (same topology as the block model).
        let sp_c = n_cells;
        let sp_edge = [n_cells + 1, n_cells + 2, n_cells + 3, n_cells + 4];
        let si_c = n_cells + 5;
        let si_edge = [n_cells + 6, n_cells + 7, n_cells + 8, n_cells + 9];
        let n = n_cells + 10;

        let mut g = Matrix::zeros(n, n);
        let mut g_amb = vec![0.0; n];

        // Cell↔cell lateral conduction.
        let g_horizontal = package.k_silicon * package.t_silicon * cell_h / cell_w;
        let g_vertical_lat = package.k_silicon * package.t_silicon * cell_w / cell_h;
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    let j = i + 1;
                    g[(i, j)] += g_horizontal;
                    g[(j, i)] += g_horizontal;
                }
                if r + 1 < rows {
                    let j = i + cols;
                    g[(i, j)] += g_vertical_lat;
                    g[(j, i)] += g_vertical_lat;
                }
            }
        }

        // Vertical path per cell (same per-area resistance as the block
        // model).
        let r_vert_per_area = package.t_silicon / (2.0 * package.k_silicon)
            + package.t_interface / package.k_interface
            + package.spreader_thickness / (2.0 * package.k_copper);
        for i in 0..n_cells {
            let cond = cell_area / r_vert_per_area;
            g[(i, sp_c)] += cond;
            g[(sp_c, i)] += cond;
        }

        // Package conduction, identical to the block model.
        let chip_area = floorplan.chip_area();
        let sp_side = package.spreader_side;
        let overhang = ((sp_side - chip_w.max(chip_h)) / 2.0).max(1e-4);
        for (k, &node) in sp_edge.iter().enumerate() {
            let facing = if k % 2 == 0 { chip_w } else { chip_h };
            let cond = package.k_copper * package.spreader_thickness * facing / overhang;
            g[(sp_c, node)] += cond;
            g[(node, sp_c)] += cond;
        }
        let r_sp_si = package.spreader_thickness / (2.0 * package.k_copper)
            + package.sink_thickness / (2.0 * package.k_copper);
        let cond = chip_area / r_sp_si;
        g[(sp_c, si_c)] += cond;
        g[(si_c, sp_c)] += cond;
        let sp_area = sp_side * sp_side;
        let periph_area = ((sp_area - chip_area) / 4.0).max(1e-8);
        for (&spn, &sin) in sp_edge.iter().zip(&si_edge) {
            let cond = periph_area / r_sp_si;
            g[(spn, sin)] += cond;
            g[(sin, spn)] += cond;
        }
        let sink_overhang = ((package.sink_side - sp_side) / 2.0 + overhang).max(1e-4);
        for &node in &si_edge {
            let cond = package.k_copper * package.sink_thickness * sp_side / sink_overhang;
            g[(si_c, node)] += cond;
            g[(node, si_c)] += cond;
        }
        let sink_area = package.sink_side * package.sink_side;
        let g_conv_total = 1.0 / package.r_convection;
        let center_share = sp_area / sink_area;
        g_amb[si_c] = g_conv_total * center_share;
        for &node in &si_edge {
            g_amb[node] = g_conv_total * (1.0 - center_share) / 4.0;
        }

        // Laplacian assembly.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            let mut diag = g_amb[i];
            for j in 0..n {
                if i != j && g[(i, j)] != 0.0 {
                    a[(i, j)] = -g[(i, j)];
                    diag += g[(i, j)];
                }
            }
            a[(i, i)] = diag;
        }

        // Block → cell power distribution by overlap area.
        let mut weights = Vec::with_capacity(floorplan.len());
        let mut cells_of_block = Vec::with_capacity(floorplan.len());
        for b in floorplan.blocks() {
            let mut w = Vec::new();
            let mut cells = Vec::new();
            let c0 = ((b.left() / cell_w).floor() as usize).min(cols - 1);
            let c1 = (((b.right() / cell_w).ceil() as usize).max(1)).min(cols);
            let r0 = ((b.bottom() / cell_h).floor() as usize).min(rows - 1);
            let r1 = (((b.top() / cell_h).ceil() as usize).max(1)).min(rows);
            for r in r0..r1 {
                for c in c0..c1 {
                    let x0 = c as f64 * cell_w;
                    let y0 = r as f64 * cell_h;
                    let ox = (b.right().min(x0 + cell_w) - b.left().max(x0)).max(0.0);
                    let oy = (b.top().min(y0 + cell_h) - b.bottom().max(y0)).max(0.0);
                    let overlap = ox * oy;
                    if overlap > 1e-15 {
                        let idx = r * cols + c;
                        w.push((idx, overlap / b.area()));
                        // Only count cells substantially covered for the
                        // block statistics (avoids edge-sliver bias).
                        if overlap > 0.25 * cell_area {
                            cells.push(idx);
                        }
                    }
                }
            }
            if cells.is_empty() {
                // Block smaller than a cell: fall back to all overlaps.
                cells = w.iter().map(|&(i, _)| i).collect();
            }
            weights.push(w);
            cells_of_block.push(cells);
        }

        // Capacitances: silicon cells plus the same package lumps as the
        // block model.
        let mut cap = vec![0.0; n];
        for c in cap.iter_mut().take(n_cells) {
            *c = package.c_silicon * cell_area * package.t_silicon;
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

        Ok(GridThermalModel {
            cols,
            rows,
            n_blocks: floorplan.len(),
            weights,
            cells_of_block,
            a,
            g_amb,
            cap,
            ambient: package.ambient,
        })
    }

    /// Grid dimensions `(cols, rows)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Number of floorplan blocks.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Steady-state solve for per-block power (W).
    ///
    /// # Errors
    ///
    /// Fails on wrong-length or non-physical power vectors.
    pub fn steady_state(&self, block_power: &[f64]) -> Result<GridTemps<'_>, ThermalError> {
        let temps = self.a.solve(&self.rhs(block_power)?)?;
        Ok(GridTemps { model: self, temps })
    }

    /// Validates a power vector without building the right-hand side.
    fn check_power(&self, block_power: &[f64]) -> Result<(), ThermalError> {
        check_block_power(self.n_blocks, block_power)
    }

    fn rhs(&self, block_power: &[f64]) -> Result<Vec<f64>, ThermalError> {
        self.check_power(block_power)?;
        let n = self.a.rows();
        let mut p = vec![0.0; n];
        for (b, &watts) in block_power.iter().enumerate() {
            for &(cell, frac) in &self.weights[b] {
                p[cell] += watts * frac;
            }
        }
        for i in 0..n {
            p[i] += self.g_amb[i] * self.ambient;
        }
        Ok(p)
    }
}

/// Transient integrator for the grid model, mirroring
/// [`crate::TransientSolver`]: the exact matrix-exponential propagator
/// by default (with the block→cell power weights folded into the input
/// matrix, so a step takes one dense matvec), backward Euler with a
/// cached LU factorization as the reference/fallback backend. Intended
/// for validation studies; the DTM simulations use the much cheaper
/// block model.
#[derive(Debug, Clone)]
pub struct GridTransient {
    model: GridThermalModel,
    temps: Vec<f64>,
    max_substep: f64,
    backend: SolverBackend,
    /// Latched when propagator construction failed (see
    /// [`crate::propagator`] for the fallback conditions).
    prop_fallback: bool,
    cached: Option<(f64, LuFactors)>,
    prop: Option<std::sync::Arc<Propagator>>,
    xbuf: Vec<f64>,
    sol_buf: Vec<f64>,
}

impl GridTransient {
    /// Creates a transient solver at ambient temperature with the
    /// default exact-propagator backend.
    ///
    /// # Panics
    ///
    /// Panics if `max_substep` is not positive and finite.
    pub fn new(model: GridThermalModel, max_substep: f64) -> Self {
        assert!(
            max_substep.is_finite() && max_substep > 0.0,
            "substep must be positive"
        );
        let temps = vec![model.ambient; model.a.rows()];
        GridTransient {
            model,
            temps,
            max_substep,
            backend: SolverBackend::default(),
            prop_fallback: false,
            cached: None,
            prop: None,
            xbuf: Vec::new(),
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

    /// Whether a propagator-backend solver has permanently fallen back
    /// to backward Euler.
    pub fn in_fallback(&self) -> bool {
        self.prop_fallback
    }

    /// The underlying grid model.
    pub fn model(&self) -> &GridThermalModel {
        &self.model
    }

    /// Current temperatures viewed with block statistics.
    pub fn temps(&self) -> GridTemps<'_> {
        GridTemps {
            model: &self.model,
            temps: self.temps.clone(),
        }
    }

    /// Initializes from the steady state of `block_power`.
    ///
    /// # Errors
    ///
    /// See [`GridThermalModel::steady_state`].
    pub fn init_steady(&mut self, block_power: &[f64]) -> Result<(), ThermalError> {
        self.temps = self.model.steady_state(block_power)?.temps;
        Ok(())
    }

    /// Prebuilds the per-`dt` caches the active backend needs (the
    /// propagator, or the backward-Euler LU), so the first `step` at
    /// that `dt` doesn't pay construction cost inside a timed loop.
    /// Stepping without prewarming is numerically identical.
    ///
    /// # Errors
    ///
    /// Fails on a non-physical `dt` or a singular system; a propagator
    /// construction failure latches the fallback instead of erroring.
    pub fn prewarm(&mut self, dt: f64) -> Result<(), ThermalError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ThermalError::NotPhysical(format!("dt = {dt}")));
        }
        if self.backend == SolverBackend::Propagator && !self.prop_fallback {
            self.ensure_propagator(dt);
        }
        if self.backend == SolverBackend::BackwardEuler || self.prop_fallback {
            self.ensure_lu(dt)?;
        }
        Ok(())
    }

    /// Builds (or rebuilds, after a `dt` change) the cached propagator,
    /// folding the block→cell weights into `F`; on failure latches the
    /// permanent backward-Euler fallback.
    fn ensure_propagator(&mut self, dt: f64) {
        let needs_build = match &self.prop {
            Some(p) => (p.dt() - dt).abs() > 1e-15,
            None => true,
        };
        if needs_build {
            // Served from the process-wide cache when an identical
            // grid configuration already built one (bit-identical).
            match Propagator::shared(
                &self.model.a,
                &self.model.cap,
                &self.model.g_amb,
                self.model.ambient,
                self.model.n_blocks,
                PowerMap::Weighted(&self.model.weights),
                dt,
            ) {
                Ok(p) => self.prop = Some(p),
                Err(_) => self.prop_fallback = true,
            }
        }
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
            let n = self.model.a.rows();
            let mut m = self.model.a.clone();
            for i in 0..n {
                m[(i, i)] += self.model.cap[i] / h;
            }
            self.cached = Some((h, m.lu()?));
        }
        Ok((n_sub, h))
    }

    /// Batched-stepping handle for [`crate::batch`]: see
    /// `TransientSolver::batch_prop` — identical semantics, including
    /// latching the permanent fallback on a failed rebuild.
    pub(crate) fn batch_prop(&mut self, dt: f64) -> Option<&std::sync::Arc<Propagator>> {
        if self.backend != SolverBackend::Propagator || self.prop_fallback {
            return None;
        }
        self.ensure_propagator(dt);
        if self.prop_fallback {
            return None;
        }
        self.prop.as_ref()
    }

    /// Validates a power vector exactly as `step` would before the
    /// propagator advance.
    pub(crate) fn batch_check_power(&self, block_power: &[f64]) -> Result<(), ThermalError> {
        self.model.check_power(block_power)
    }

    /// Cell/node temperatures, for the batched gather.
    pub(crate) fn cell_temps(&self) -> &[f64] {
        &self.temps
    }

    /// Mutable cell/node temperatures, for the batched scatter.
    pub(crate) fn temps_mut(&mut self) -> &mut [f64] {
        &mut self.temps
    }

    /// Advances by `dt` seconds at constant per-block power.
    ///
    /// # Errors
    ///
    /// Fails on bad inputs or a singular system.
    pub fn step(&mut self, block_power: &[f64], dt: f64) -> Result<(), ThermalError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ThermalError::NotPhysical(format!("dt = {dt}")));
        }
        if self.backend == SolverBackend::Propagator && !self.prop_fallback {
            self.model.check_power(block_power)?;
            self.ensure_propagator(dt);
            if !self.prop_fallback {
                let p = self.prop.as_ref().expect("propagator built above");
                p.advance(
                    &mut self.temps,
                    block_power,
                    &mut self.xbuf,
                    &mut self.sol_buf,
                );
                return Ok(());
            }
        }
        let p = self.model.rhs(block_power)?;
        let (n_sub, h) = self.ensure_lu(dt)?;
        let (_, lu) = self.cached.as_ref().expect("factor cached above");
        for _ in 0..n_sub {
            let rhs: Vec<f64> = self
                .temps
                .iter()
                .zip(&self.model.cap)
                .zip(&p)
                .map(|((t, c), pi)| pi + c / h * t)
                .collect();
            self.temps = lu.solve(&rhs);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThermalModel;
    use dtm_floorplan::UnitKind;

    fn setup() -> (Floorplan, PackageConfig) {
        (Floorplan::ppc_cmp(1), PackageConfig::default())
    }

    #[test]
    fn zero_power_gives_ambient() {
        let (fp, pkg) = setup();
        let grid = GridThermalModel::new(&fp, &pkg, GridConfig::default()).unwrap();
        let t = grid.steady_state(&vec![0.0; fp.len()]).unwrap();
        for &c in t.cells() {
            assert!((c - pkg.ambient).abs() < 1e-6);
        }
    }

    #[test]
    fn block_power_weights_sum_to_one() {
        let (fp, pkg) = setup();
        let grid = GridThermalModel::new(&fp, &pkg, GridConfig { cols: 10, rows: 15 }).unwrap();
        for (b, w) in grid.weights.iter().enumerate() {
            let sum: f64 = w.iter().map(|&(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "block {b}: weights sum {sum}");
        }
    }

    #[test]
    fn grid_block_means_track_block_model() {
        let (fp, pkg) = setup();
        let grid = GridThermalModel::new(&fp, &pkg, GridConfig { cols: 20, rows: 30 }).unwrap();
        let block = ThermalModel::new(&fp, &pkg).unwrap();
        let power: Vec<f64> = (0..fp.len()).map(|i| 0.3 + 0.15 * (i % 5) as f64).collect();
        let gt = grid.steady_state(&power).unwrap();
        let bt = block.steady_state(&power).unwrap();
        for b in 0..fp.len() {
            let diff = (gt.block_mean(b) - bt[b]).abs();
            assert!(
                diff < 3.0,
                "block {} ({}): grid {:.1} vs block {:.1}",
                b,
                fp.blocks()[b].name(),
                gt.block_mean(b),
                bt[b]
            );
        }
    }

    #[test]
    fn hot_register_file_shows_within_block_gradient() {
        let (fp, pkg) = setup();
        let grid = GridThermalModel::new(&fp, &pkg, GridConfig { cols: 24, rows: 36 }).unwrap();
        let rf = fp.block_of(0, UnitKind::IntRegFile).unwrap();
        let mut power = vec![0.2; fp.len()];
        power[rf] = 4.0;
        let t = grid.steady_state(&power).unwrap();
        // The block's peak exceeds its mean: the gradient the block
        // model's fast local mode approximates.
        let excess = t.block_excess(rf);
        assert!(excess > 0.05, "no within-block gradient: {excess}");
        // And the hot block is hotter than its neighbours' means.
        let fxu = fp.block_of(0, UnitKind::Fxu).unwrap();
        assert!(t.block_mean(rf) > t.block_mean(fxu));
    }

    #[test]
    fn grid_resolution_refines_monotonically() {
        let (fp, pkg) = setup();
        let rf = fp.block_of(0, UnitKind::IntRegFile).unwrap();
        let mut power = vec![0.2; fp.len()];
        power[rf] = 4.0;
        let coarse = GridThermalModel::new(&fp, &pkg, GridConfig { cols: 8, rows: 12 }).unwrap();
        let fine = GridThermalModel::new(&fp, &pkg, GridConfig { cols: 24, rows: 36 }).unwrap();
        let tc = coarse.steady_state(&power).unwrap().block_max(rf);
        let tf = fine.steady_state(&power).unwrap().block_max(rf);
        // Finer grids resolve sharper (hotter) peaks.
        assert!(tf >= tc - 0.2, "fine {tf} vs coarse {tc}");
    }

    #[test]
    fn grid_transient_converges_to_steady_state() {
        let (fp, pkg) = setup();
        let model = GridThermalModel::new(&fp, &pkg, GridConfig { cols: 8, rows: 12 }).unwrap();
        let power = vec![0.4; fp.len()];
        let expect = model.steady_state(&power).unwrap().temps.clone();
        let mut sim = GridTransient::new(model, 50e-6);
        sim.init_steady(&power).unwrap();
        for _ in 0..50 {
            sim.step(&power, 1e-3).unwrap();
        }
        for (t, e) in sim.temps().temps.iter().zip(&expect) {
            assert!((t - e).abs() < 0.05, "t={t} e={e}");
        }
    }

    #[test]
    fn grid_transient_heats_under_power_step() {
        let (fp, pkg) = setup();
        let rf = fp.block_of(0, UnitKind::IntRegFile).unwrap();
        let model = GridThermalModel::new(&fp, &pkg, GridConfig { cols: 8, rows: 12 }).unwrap();
        let mut sim = GridTransient::new(model, 50e-6);
        let mut power = vec![0.2; fp.len()];
        sim.init_steady(&power).unwrap();
        let before = sim.temps().block_max(rf);
        power[rf] = 4.0;
        for _ in 0..40 {
            sim.step(&power, 1e-3).unwrap();
        }
        let after = sim.temps().block_max(rf);
        assert!(after > before + 1.0, "before {before} after {after}");
    }

    #[test]
    fn grid_propagator_cache_invalidates_on_dt_change() {
        let (fp, pkg) = setup();
        let model = GridThermalModel::new(&fp, &pkg, GridConfig { cols: 6, rows: 8 }).unwrap();
        let p = vec![0.5; fp.len()];
        let (dt1, dt2) = (27.78e-6, 83.34e-6);

        let mut a = GridTransient::new(model.clone(), 7e-6);
        a.init_steady(&vec![0.2; fp.len()]).unwrap();
        for _ in 0..3 {
            a.step(&p, dt1).unwrap();
        }
        assert!((a.prop.as_ref().unwrap().dt() - dt1).abs() < 1e-18);
        // A fresh solver resumed from A's mid-run state, never having
        // seen dt1, must match bitwise once both step at dt2.
        let mut b = GridTransient::new(model, 7e-6);
        b.temps = a.temps.clone();
        for _ in 0..3 {
            a.step(&p, dt2).unwrap();
            b.step(&p, dt2).unwrap();
        }
        assert!((a.prop.as_ref().unwrap().dt() - dt2).abs() < 1e-18);
        assert_eq!(a.temps, b.temps);
    }

    #[test]
    fn grid_backends_agree_on_a_transient() {
        let (fp, pkg) = setup();
        let model = GridThermalModel::new(&fp, &pkg, GridConfig { cols: 6, rows: 8 }).unwrap();
        let p = vec![0.6; fp.len()];
        let mut exact = GridTransient::new(model.clone(), 7e-6);
        let mut euler = GridTransient::new(model, 7e-6).with_backend(SolverBackend::BackwardEuler);
        exact.init_steady(&vec![0.2; fp.len()]).unwrap();
        euler.init_steady(&vec![0.2; fp.len()]).unwrap();
        for _ in 0..20 {
            exact.step(&p, 27.78e-6).unwrap();
            euler.step(&p, 27.78e-6).unwrap();
        }
        assert!(!exact.in_fallback());
        assert!(exact.cached.is_none(), "propagator path must not factor LU");
        for (x, y) in exact.temps.iter().zip(&euler.temps) {
            assert!((x - y).abs() < 0.05, "exact {x} vs euler {y}");
        }
    }

    #[test]
    fn grid_transient_rejects_bad_dt() {
        let (fp, pkg) = setup();
        let model = GridThermalModel::new(&fp, &pkg, GridConfig { cols: 4, rows: 4 }).unwrap();
        let mut sim = GridTransient::new(model, 50e-6);
        assert!(sim.step(&vec![0.0; fp.len()], -1.0).is_err());
    }

    #[test]
    fn rejects_degenerate_grids() {
        let (fp, pkg) = setup();
        assert!(GridThermalModel::new(&fp, &pkg, GridConfig { cols: 1, rows: 5 }).is_err());
    }

    #[test]
    fn rejects_bad_power() {
        let (fp, pkg) = setup();
        let grid = GridThermalModel::new(&fp, &pkg, GridConfig::default()).unwrap();
        assert!(grid.steady_state(&[0.1]).is_err());
        let mut p = vec![0.0; fp.len()];
        p[0] = f64::NAN;
        assert!(grid.steady_state(&p).is_err());
    }
}

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

use crate::linalg::Matrix;
use crate::model::{check_block_power, ThermalError};
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

        Ok(GridThermalModel {
            cols,
            rows,
            n_blocks: floorplan.len(),
            weights,
            cells_of_block,
            a,
            g_amb,
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

    fn rhs(&self, block_power: &[f64]) -> Result<Vec<f64>, ThermalError> {
        check_block_power(self.n_blocks, block_power)?;
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

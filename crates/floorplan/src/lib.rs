//! Chip floorplans for multicore thermal simulation.
//!
//! A [`Floorplan`] is a set of rectangular [`Block`]s placed on a die,
//! each tagged with a microarchitectural [`UnitKind`] and (for per-core
//! units) the index of the core it belongs to. The thermal model consumes
//! the geometry: block areas set thermal capacitances, shared edges set
//! lateral thermal conductances, and the chip outline sizes the package.
//!
//! The layout mirrors the ISCA'06 multicore-DTM study: a PowerPC-class
//! out-of-order core replicated `n` times, with a shared L2 cache bank
//! occupying the remainder of the die ([`Floorplan::ppc_cmp`]).
//!
//! # Examples
//!
//! ```
//! use dtm_floorplan::{Floorplan, UnitKind};
//!
//! let fp = Floorplan::ppc_cmp(4);
//! fp.validate().unwrap();
//! assert_eq!(fp.cores(), 4);
//! // Every core has exactly one integer register file.
//! let int_rf = fp.block_of(0, UnitKind::IntRegFile).unwrap();
//! assert!(fp.blocks()[int_rf].area() > 0.0);
//! ```

mod block;
mod layout;

pub use block::{Block, UnitKind};
pub use layout::CoreTemplate;

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error produced when a floorplan fails geometric validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FloorplanError {
    /// A block has a non-positive width or height.
    DegenerateBlock { name: String },
    /// Two blocks overlap by more than the tolerance.
    Overlap { a: String, b: String },
    /// A block extends outside the chip outline.
    OutOfBounds { name: String },
    /// The floorplan contains no blocks.
    Empty,
    /// A per-core unit appears more than once (or not at all) for a core.
    BadCoreStructure { core: usize, kind: UnitKind },
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorplanError::DegenerateBlock { name } => {
                write!(f, "block `{name}` has non-positive dimensions")
            }
            FloorplanError::Overlap { a, b } => write!(f, "blocks `{a}` and `{b}` overlap"),
            FloorplanError::OutOfBounds { name } => {
                write!(f, "block `{name}` extends outside the chip outline")
            }
            FloorplanError::Empty => write!(f, "floorplan contains no blocks"),
            FloorplanError::BadCoreStructure { core, kind } => {
                write!(f, "core {core} does not have exactly one `{kind}` block")
            }
        }
    }
}

impl std::error::Error for FloorplanError {}

/// A chip floorplan: a list of rectangular blocks inside a chip outline.
///
/// Coordinates and dimensions are in meters. The chip outline's lower-left
/// corner is at the origin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    blocks: Vec<Block>,
    chip_width: f64,
    chip_height: f64,
    cores: usize,
}

impl Floorplan {
    /// Builds a floorplan from explicit blocks and a chip outline.
    ///
    /// `cores` is the number of distinct cores referenced by the blocks'
    /// `core` fields. Call [`Floorplan::validate`] to check geometry.
    pub fn from_blocks(blocks: Vec<Block>, chip_width: f64, chip_height: f64) -> Self {
        let cores = blocks
            .iter()
            .filter_map(|b| b.core())
            .map(|c| c + 1)
            .max()
            .unwrap_or(0);
        Floorplan {
            blocks,
            chip_width,
            chip_height,
            cores,
        }
    }

    /// The PowerPC-class CMP floorplan used throughout the study: `n_cores`
    /// identical out-of-order cores plus a shared L2 cache bank.
    ///
    /// Cores are arranged in a grid (2 columns for ≥2 cores) above an L2
    /// bank that spans the die width. Each core instantiates
    /// [`CoreTemplate::ppc_core`].
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    pub fn ppc_cmp(n_cores: usize) -> Self {
        assert!(n_cores > 0, "a CMP needs at least one core");
        let template = CoreTemplate::ppc_core();
        layout::assemble_cmp(&template, n_cores)
    }

    /// All blocks in the floorplan, in index order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the floorplan has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Chip outline width in meters.
    pub fn chip_width(&self) -> f64 {
        self.chip_width
    }

    /// Chip outline height in meters.
    pub fn chip_height(&self) -> f64 {
        self.chip_height
    }

    /// Total chip area in m².
    pub fn chip_area(&self) -> f64 {
        self.chip_width * self.chip_height
    }

    /// Index of the unique block of `kind` belonging to `core`, if any.
    pub fn block_of(&self, core: usize, kind: UnitKind) -> Option<usize> {
        self.blocks
            .iter()
            .position(|b| b.core() == Some(core) && b.kind() == kind)
    }

    /// Indices of all blocks of a given kind (across cores and shared).
    pub fn blocks_of_kind(&self, kind: UnitKind) -> Vec<usize> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.kind() == kind)
            .map(|(i, _)| i)
            .collect()
    }

    /// Index of a block by its unique name.
    pub fn block_by_name(&self, name: &str) -> Option<usize> {
        self.blocks.iter().position(|b| b.name() == name)
    }

    /// Length (m) of the edge shared by blocks `a` and `b`; zero if they
    /// are not adjacent.
    ///
    /// Two blocks share an edge when they abut (within `tol`) along one
    /// axis and their projections on the other axis overlap.
    pub fn shared_edge(&self, a: usize, b: usize) -> f64 {
        let (p, q) = (&self.blocks[a], &self.blocks[b]);
        let tol = 1e-9;
        // Vertical shared edge: p's right touches q's left (or vice versa).
        let vertical = if (p.right() - q.left()).abs() < tol || (q.right() - p.left()).abs() < tol {
            overlap_1d(p.bottom(), p.top(), q.bottom(), q.top())
        } else {
            0.0
        };
        // Horizontal shared edge.
        let horizontal = if (p.top() - q.bottom()).abs() < tol || (q.top() - p.bottom()).abs() < tol
        {
            overlap_1d(p.left(), p.right(), q.left(), q.right())
        } else {
            0.0
        };
        vertical.max(horizontal)
    }

    /// All adjacent pairs `(i, j, shared_edge_length)` with `i < j`.
    pub fn adjacency(&self) -> Vec<(usize, usize, f64)> {
        let mut pairs = Vec::new();
        for i in 0..self.blocks.len() {
            for j in (i + 1)..self.blocks.len() {
                let e = self.shared_edge(i, j);
                if e > 0.0 {
                    pairs.push((i, j, e));
                }
            }
        }
        pairs
    }

    /// Euclidean distance between the centers of two blocks.
    pub fn center_distance(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.blocks[a].center();
        let (bx, by) = self.blocks[b].center();
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Checks geometric soundness: positive dimensions, no overlaps, all
    /// blocks inside the outline, and per-core unit uniqueness.
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`FloorplanError`].
    pub fn validate(&self) -> Result<(), FloorplanError> {
        if self.blocks.is_empty() {
            return Err(FloorplanError::Empty);
        }
        let tol = 1e-9;
        for b in &self.blocks {
            if b.width() <= 0.0 || b.height() <= 0.0 {
                return Err(FloorplanError::DegenerateBlock {
                    name: b.name().to_string(),
                });
            }
            if b.left() < -tol
                || b.bottom() < -tol
                || b.right() > self.chip_width + tol
                || b.top() > self.chip_height + tol
            {
                return Err(FloorplanError::OutOfBounds {
                    name: b.name().to_string(),
                });
            }
        }
        for i in 0..self.blocks.len() {
            for j in (i + 1)..self.blocks.len() {
                let (p, q) = (&self.blocks[i], &self.blocks[j]);
                let ox = overlap_1d(p.left(), p.right(), q.left(), q.right());
                let oy = overlap_1d(p.bottom(), p.top(), q.bottom(), q.top());
                if ox > tol && oy > tol {
                    return Err(FloorplanError::Overlap {
                        a: p.name().to_string(),
                        b: q.name().to_string(),
                    });
                }
            }
        }
        for core in 0..self.cores {
            for kind in UnitKind::per_core() {
                let count = self
                    .blocks
                    .iter()
                    .filter(|b| b.core() == Some(core) && b.kind() == *kind)
                    .count();
                if count != 1 {
                    return Err(FloorplanError::BadCoreStructure { core, kind: *kind });
                }
            }
        }
        Ok(())
    }
}

fn overlap_1d(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppc_cmp_validates_for_common_core_counts() {
        for n in [1, 2, 4, 8] {
            let fp = Floorplan::ppc_cmp(n);
            fp.validate().unwrap_or_else(|e| panic!("{n} cores: {e}"));
            assert_eq!(fp.cores(), n);
        }
    }

    #[test]
    fn four_core_plan_has_expected_block_count() {
        let fp = Floorplan::ppc_cmp(4);
        // 13 per-core units × 4 cores + 1 shared L2.
        assert_eq!(fp.len(), 13 * 4 + 1);
    }

    #[test]
    fn every_core_has_both_register_files() {
        let fp = Floorplan::ppc_cmp(4);
        for core in 0..4 {
            assert!(fp.block_of(core, UnitKind::IntRegFile).is_some());
            assert!(fp.block_of(core, UnitKind::FpRegFile).is_some());
        }
    }

    #[test]
    fn l2_is_shared_not_per_core() {
        let fp = Floorplan::ppc_cmp(4);
        let l2s = fp.blocks_of_kind(UnitKind::L2);
        assert_eq!(l2s.len(), 1);
        assert_eq!(fp.blocks()[l2s[0]].core(), None);
    }

    #[test]
    fn block_areas_sum_to_less_than_chip_area() {
        let fp = Floorplan::ppc_cmp(4);
        let sum: f64 = fp.blocks().iter().map(|b| b.area()).sum();
        assert!(sum <= fp.chip_area() * (1.0 + 1e-9));
        // And the layout should be reasonably dense (no huge dead space).
        assert!(sum >= fp.chip_area() * 0.95, "layout too sparse: {sum}");
    }

    #[test]
    fn shared_edge_is_symmetric() {
        let fp = Floorplan::ppc_cmp(4);
        for (i, j, e) in fp.adjacency() {
            assert!(e > 0.0);
            assert!((fp.shared_edge(j, i) - e).abs() < 1e-12);
        }
    }

    #[test]
    fn adjacency_is_nonempty_and_contains_intra_core_neighbors() {
        let fp = Floorplan::ppc_cmp(4);
        let adj = fp.adjacency();
        assert!(!adj.is_empty());
        // The integer register file must touch at least one other block.
        let rf = fp.block_of(0, UnitKind::IntRegFile).unwrap();
        assert!(adj.iter().any(|&(i, j, _)| i == rf || j == rf));
    }

    #[test]
    fn validate_rejects_overlap() {
        let blocks = vec![
            Block::new("a", UnitKind::Fxu, None, 0.0, 0.0, 1e-3, 1e-3),
            Block::new("b", UnitKind::Fpu, None, 0.5e-3, 0.5e-3, 1e-3, 1e-3),
        ];
        let fp = Floorplan::from_blocks(blocks, 2e-3, 2e-3);
        assert!(matches!(fp.validate(), Err(FloorplanError::Overlap { .. })));
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let blocks = vec![Block::new("a", UnitKind::Fxu, None, 0.0, 0.0, 3e-3, 1e-3)];
        let fp = Floorplan::from_blocks(blocks, 2e-3, 2e-3);
        assert!(matches!(
            fp.validate(),
            Err(FloorplanError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn validate_rejects_degenerate_block() {
        let blocks = vec![Block::new("a", UnitKind::Fxu, None, 0.0, 0.0, 0.0, 1e-3)];
        let fp = Floorplan::from_blocks(blocks, 2e-3, 2e-3);
        assert!(matches!(
            fp.validate(),
            Err(FloorplanError::DegenerateBlock { .. })
        ));
    }

    #[test]
    fn validate_rejects_empty() {
        let fp = Floorplan::from_blocks(vec![], 1e-3, 1e-3);
        assert_eq!(fp.validate(), Err(FloorplanError::Empty));
    }

    #[test]
    fn touching_blocks_do_not_count_as_overlapping() {
        let blocks = vec![
            Block::new("a", UnitKind::Fxu, None, 0.0, 0.0, 1e-3, 1e-3),
            Block::new("b", UnitKind::Fpu, None, 1e-3, 0.0, 1e-3, 1e-3),
        ];
        let fp = Floorplan::from_blocks(blocks, 2e-3, 1e-3);
        assert!(fp.validate().is_ok());
        assert!((fp.shared_edge(0, 1) - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn non_adjacent_blocks_share_no_edge() {
        let blocks = vec![
            Block::new("a", UnitKind::Fxu, None, 0.0, 0.0, 1e-3, 1e-3),
            Block::new("b", UnitKind::Fpu, None, 1.5e-3, 0.0, 0.5e-3, 1e-3),
        ];
        let fp = Floorplan::from_blocks(blocks, 2e-3, 1e-3);
        assert_eq!(fp.shared_edge(0, 1), 0.0);
    }

    #[test]
    fn corner_touching_blocks_share_no_edge() {
        let blocks = vec![
            Block::new("a", UnitKind::Fxu, None, 0.0, 0.0, 1e-3, 1e-3),
            Block::new("b", UnitKind::Fpu, None, 1e-3, 1e-3, 1e-3, 1e-3),
        ];
        let fp = Floorplan::from_blocks(blocks, 2e-3, 2e-3);
        assert_eq!(fp.shared_edge(0, 1), 0.0);
    }

    #[test]
    fn block_by_name_round_trips() {
        let fp = Floorplan::ppc_cmp(2);
        for (i, b) in fp.blocks().iter().enumerate() {
            assert_eq!(fp.block_by_name(b.name()), Some(i));
        }
        assert_eq!(fp.block_by_name("no-such-block"), None);
    }

    #[test]
    fn center_distance_positive_for_distinct_blocks() {
        let fp = Floorplan::ppc_cmp(4);
        for (i, j, _) in fp.adjacency() {
            assert!(fp.center_distance(i, j) > 0.0);
        }
    }

    #[test]
    fn clone_preserves_equality() {
        let fp = Floorplan::ppc_cmp(4);
        let cloned = fp.clone();
        assert_eq!(fp, cloned);
    }
}

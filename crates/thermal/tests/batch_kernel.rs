//! Property tests for the cache-blocked batched propagator kernel:
//! [`matmul_strided`] over packed lane tiles must be bit-identical to
//! [`affine_matvec`] per lane for every shape — including matrices
//! wider than any propagator in the study — leave the padding of a
//! tile untouched, and be blind to whatever the padding holds.

use dtm_thermal::linalg::{affine_matvec, matmul_strided, LaneRow, LANE_BLOCK};
use proptest::prelude::*;

/// Deterministic data fill, so each sampled shape gets its own values
/// without needing length-coupled vector strategies.
fn fill(seed: u64, len: usize) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        })
        .collect()
}

/// Packs lane-major data (lane `l`'s `width` values at `l·width`) into
/// a lane tile with leading dimension `ld`; slack rows and the padding
/// lanes of the last block hold `pad`.
fn pack(data: &[f64], width: usize, lanes: usize, ld: usize, pad: f64) -> Vec<LaneRow> {
    let mut t = vec![LaneRow([pad; LANE_BLOCK]); lanes.div_ceil(LANE_BLOCK) * ld];
    for l in 0..lanes {
        for k in 0..width {
            t[l / LANE_BLOCK * ld + k].0[l % LANE_BLOCK] = data[l * width + k];
        }
    }
    t
}

/// Element `i` of lane `l` in a tile with leading dimension `ld`.
fn at(t: &[LaneRow], ld: usize, l: usize, i: usize) -> f64 {
    t[l / LANE_BLOCK * ld + i].0[l % LANE_BLOCK]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn strided_kernel_is_bitwise_equal_to_the_scalar_kernel(
        shape in (1usize..24, 1usize..48, 1usize..20),
        // One case in four is 513–1,099 columns wide, past the widest
        // study propagator (447), so long reductions are covered too.
        wide in (0usize..4, 513usize..1100),
        pads in (0usize..5, 0usize..5),
        seed in 0u64..1_000_000,
    ) {
        let (rows, narrow, lanes) = shape;
        let cols = if wide.0 == 0 { wide.1 } else { narrow };
        let (ldx, ldy) = (cols + pads.0, rows + pads.1);
        let a = fill(seed, rows * cols);
        let bias = fill(seed ^ 1, rows);
        let data = fill(seed ^ 2, lanes * cols);
        let x = pack(&data, cols, lanes, ldx, 0.0);
        let mut y = vec![LaneRow::ZERO; lanes.div_ceil(LANE_BLOCK) * ldy];
        matmul_strided(rows, cols, &a, &bias, &x, ldx, &mut y, ldy, lanes);
        let mut yref = vec![0.0; rows];
        for l in 0..lanes {
            affine_matvec(cols, &a, &bias, &data[l * cols..(l + 1) * cols], &mut yref);
            for (i, r) in yref.iter().enumerate() {
                prop_assert_eq!(
                    at(&y, ldy, l, i).to_bits(),
                    r.to_bits(),
                    "lane {} row {} diverged ({} cols)", l, i, cols
                );
            }
        }
    }

    #[test]
    fn padded_tail_lanes_and_rows_are_never_written(
        shape in (1usize..16, 1usize..24, 1usize..17),
        pady in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let (rows, cols, lanes) = shape;
        let ldy = rows + pady;
        // Whole blocks of tile, only `lanes` of them active.
        let capacity = lanes.div_ceil(LANE_BLOCK) * LANE_BLOCK;
        let a = fill(seed, rows * cols);
        let bias = fill(seed ^ 3, rows);
        let x = pack(&fill(seed ^ 4, lanes * cols), cols, lanes, cols, 0.0);
        let sentinel = f64::from_bits(0x7ff8_dead_beef_0001); // quiet NaN payload
        let mut y = vec![LaneRow([sentinel; LANE_BLOCK]); capacity / LANE_BLOCK * ldy];
        matmul_strided(rows, cols, &a, &bias, &x, cols, &mut y, ldy, lanes);
        for l in 0..capacity {
            for i in 0..ldy {
                let bits = at(&y, ldy, l, i).to_bits();
                if l < lanes && i < rows {
                    prop_assert_ne!(bits, sentinel.to_bits(), "({},{}) unwritten", l, i);
                } else {
                    prop_assert_eq!(bits, sentinel.to_bits(), "({},{}) clobbered", l, i);
                }
            }
        }
    }

    #[test]
    fn leading_dimension_slack_does_not_change_results(
        shape in (1usize..16, 1usize..24, 2usize..17),
        seed in 0u64..1_000_000,
    ) {
        // The same logical lanes through a tight tile (ld = extent,
        // zero padding lanes) and a slack tile whose spare rows and
        // padding lanes hold NaN must produce bitwise-equal outputs:
        // an active lane reads only its own first `cols` elements.
        let (rows, cols, lanes) = shape;
        let a = fill(seed, rows * cols);
        let bias = fill(seed ^ 5, rows);
        let data = fill(seed ^ 6, lanes * cols);
        let (ldx, ldy) = (cols + 7, rows + 3);
        let tight_x = pack(&data, cols, lanes, cols, 0.0);
        let padded_x = pack(&data, cols, lanes, ldx, f64::NAN);
        let blocks = lanes.div_ceil(LANE_BLOCK);
        let mut tight_y = vec![LaneRow::ZERO; blocks * rows];
        let mut padded_y = vec![LaneRow::ZERO; blocks * ldy];
        matmul_strided(rows, cols, &a, &bias, &tight_x, cols, &mut tight_y, rows, lanes);
        matmul_strided(rows, cols, &a, &bias, &padded_x, ldx, &mut padded_y, ldy, lanes);
        for l in 0..lanes {
            for i in 0..rows {
                prop_assert_eq!(
                    at(&tight_y, rows, l, i).to_bits(),
                    at(&padded_y, ldy, l, i).to_bits(),
                    "({},{}) stride-dependent result", l, i
                );
            }
        }
    }
}

//! Minimal dense linear algebra for the thermal solver.
//!
//! Thermal RC networks in this study are small (tens of nodes), so a dense
//! LU factorization with partial pivoting is simpler and faster than
//! pulling in a sparse solver. The factorization is cached by the
//! transient solver for the backward-Euler path; the default transient
//! path instead precomputes a matrix exponential ([`Matrix::expm`]) and
//! advances with the flat row-major kernel [`affine_matvec`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Flat row-major affine matrix–vector kernel:
/// `y[i] = bias[i] + Σ_j a[i·cols + j] · x[j]`.
///
/// This is the single hot kernel shared by the block- and grid-model
/// propagators: one contiguous streaming pass over `a` with an
/// independent dot product per row (no cross-iteration dependency, so
/// the compiler can vectorize it), unlike the serial triangular solves
/// of the LU path. Accumulation order within a row is fixed (four
/// strided partial sums), so results are bit-reproducible run to run.
///
/// # Panics
///
/// Panics if `a.len() != y.len() * cols`, `x.len() != cols`, or
/// `bias.len() != y.len()`.
pub fn affine_matvec(cols: usize, a: &[f64], bias: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(a.len(), y.len() * cols, "matrix shape mismatch");
    assert_eq!(bias.len(), y.len(), "bias length mismatch");
    for (i, out) in y.iter_mut().enumerate() {
        let row = &a[i * cols..(i + 1) * cols];
        *out = bias[i] + folded_dot(cols, row, x);
    }
}

/// The fixed-order dot product both propagator kernels share: four
/// strided accumulators break the single-chain dependency and map onto
/// SIMD lanes; the tail is folded in afterwards. Accumulation order is
/// part of the contract — [`affine_matvec`] and [`matmul_strided`] are
/// bit-identical per output element *because* they both reduce through
/// this exact sequence.
#[inline(always)]
fn folded_dot(cols: usize, row: &[f64], x: &[f64]) -> f64 {
    let chunks = cols / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for k in 0..chunks {
        let r = &row[4 * k..4 * k + 4];
        let v = &x[4 * k..4 * k + 4];
        s0 += r[0] * v[0];
        s1 += r[1] * v[1];
        s2 += r[2] * v[2];
        s3 += r[3] * v[3];
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    for j in 4 * chunks..cols {
        acc += row[j] * x[j];
    }
    acc
}

/// How many lanes a [`matmul_strided`] block keeps resident at once;
/// also the lane width of one [`LaneRow`].
pub const LANE_BLOCK: usize = 8;

/// One row of a packed lane tile: element `k` of each of the
/// [`LANE_BLOCK`] lanes of one block, adjacent. The alignment makes a
/// row exactly one 64-byte cache line and lets the vector loads of
/// [`matmul_strided`] never straddle two lines, whatever allocator
/// backs the tile.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
pub struct LaneRow(pub [f64; LANE_BLOCK]);

impl LaneRow {
    /// A row of zeros.
    pub const ZERO: LaneRow = LaneRow([0.0; LANE_BLOCK]);
}

/// Cache-blocked affine matrix–matrix kernel over packed lane tiles:
/// for each lane `l < lanes`, with `b = l / LANE_BLOCK` and
/// `j = l % LANE_BLOCK`,
/// `y[b·ldy + i].0[j] = bias[i] + Σ_k a[i·cols + k] · x[b·ldx + k].0[j]`.
///
/// `x` is lane-interleaved: block `b` (lanes `b·LANE_BLOCK ..`) owns
/// the [`LaneRow`]s `x[b·ldx .. b·ldx + cols]`, row `k` holding element
/// `k` of each of its lanes (leading dimension `ldx ≥ cols`); `y`
/// likewise with `ldy ≥ rows`. In `y`, lanes past `lanes` and rows past
/// `rows` of a block are never written; whatever `x` holds outside the
/// active lanes' first `cols` rows never reaches an active output.
///
/// The matrix streams once per block of [`LANE_BLOCK`] lanes instead of
/// once per lane, the block's packed input stays cache-resident across
/// every row, and the four partial sums become [`LANE_BLOCK`]-wide
/// independent accumulator chains the compiler vectorizes *across
/// lanes*. Per lane, every multiply still lands on the same accumulator
/// in the same (column-order) sequence as [`affine_matvec`]'s, followed
/// by the same fold and tail, so every lane's output is bit-identical
/// to a scalar `affine_matvec` over the same data. There is one path
/// for every width: the input is already packed, so a row's
/// accumulators stay in registers for its whole reduction.
///
/// # Panics
///
/// Panics if `a.len() != rows * cols`, `bias.len() != rows`,
/// `ldx < cols`, `ldy < rows`, or either tile is too short for
/// `lanes` lanes.
#[allow(clippy::too_many_arguments)]
pub fn matmul_strided(
    rows: usize,
    cols: usize,
    a: &[f64],
    bias: &[f64],
    x: &[LaneRow],
    ldx: usize,
    y: &mut [LaneRow],
    ldy: usize,
    lanes: usize,
) {
    assert_eq!(a.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(bias.len(), rows, "bias length mismatch");
    assert!(ldx >= cols, "input leading dimension too small");
    assert!(ldy >= rows, "output leading dimension too small");
    if lanes == 0 {
        return;
    }
    let last = (lanes - 1) / LANE_BLOCK;
    assert!(x.len() >= last * ldx + cols, "input tile too short");
    assert!(y.len() >= last * ldy + rows, "output tile too short");
    let whole = cols / 4 * 4;

    for b in 0..=last {
        let lb = (lanes - b * LANE_BLOCK).min(LANE_BLOCK);
        let xb = &x[b * ldx..b * ldx + cols];
        let yb = &mut y[b * ldy..b * ldy + rows];
        for (i, out) in yb.iter_mut().enumerate() {
            let row = &a[i * cols..(i + 1) * cols];
            let mut s = [[0.0f64; LANE_BLOCK]; 4];
            tile_accumulate(&row[..whole], &xb[..whole], &mut s);
            finish_row(row, whole, &s, xb, bias[i], out, lb);
        }
    }
}

/// The inner reduction of [`matmul_strided`]: fold `row` (length a
/// multiple of 4) against the matching packed rows `xt` into the four
/// [`LANE_BLOCK`]-wide partial sums, in column order. The
/// `chunks_exact` + fixed-size-array shape is what lets the compiler
/// drop every bounds check and keep the 8 accumulator vectors in
/// registers.
#[inline(always)]
fn tile_accumulate(row: &[f64], xt: &[LaneRow], s: &mut [[f64; LANE_BLOCK]; 4]) {
    for (r, xk) in row.chunks_exact(4).zip(xt.chunks_exact(4)) {
        let r: &[f64; 4] = r.try_into().expect("chunks_exact(4) yields 4 values");
        let xk: &[LaneRow; 4] = xk.try_into().expect("chunks_exact(4) yields 4 rows");
        for j in 0..LANE_BLOCK {
            s[0][j] += r[0] * xk[0].0[j];
            s[1][j] += r[1] * xk[1].0[j];
            s[2][j] += r[2] * xk[2].0[j];
            s[3][j] += r[3] * xk[3].0[j];
        }
    }
}

/// Fold, tail and bias of one output row for the first `lb` lanes of a
/// block, in [`folded_dot`]'s order.
#[inline(always)]
fn finish_row(
    row: &[f64],
    whole: usize,
    s: &[[f64; LANE_BLOCK]; 4],
    xb: &[LaneRow],
    bias: f64,
    out: &mut LaneRow,
    lb: usize,
) {
    for j in 0..lb {
        let mut v = (s[0][j] + s[1][j]) + (s[2][j] + s[3][j]);
        for (&r, xk) in row[whole..].iter().zip(&xb[whole..]) {
            v += r * xk.0[j];
        }
        out.0[j] = bias + v;
    }
}

/// Error produced when a linear system cannot be solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinalgError {
    /// The matrix is singular (a pivot underflowed).
    Singular,
    /// Dimensions of operands do not agree.
    DimensionMismatch,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::DimensionMismatch => write!(f, "operand dimensions do not agree"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major square-or-rectangular matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        y
    }

    /// The row-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j order keeps the inner loop contiguous over both the
        // output row and the rhs row.
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, r) in out_row.iter_mut().zip(rhs_row) {
                    *o += aik * r;
                }
            }
        }
        out
    }

    /// Infinity norm: the maximum absolute row sum.
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Matrix exponential `exp(self)` by scaling-and-squaring with a
    /// diagonal Padé(6,6) approximant (Golub & Van Loan, Algorithm
    /// 11.3-1). The matrix is scaled by `2⁻ʲ` until its infinity norm
    /// is at most ½, the Padé approximant is evaluated there, and the
    /// result is squared `j` times.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for non-square input
    /// and [`LinalgError::Singular`] if the Padé denominator cannot be
    /// inverted or the input contains non-finite entries.
    pub fn expm(&self) -> Result<Matrix, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.rows;
        let norm = self.inf_norm();
        if !norm.is_finite() {
            return Err(LinalgError::Singular);
        }
        // Scale so the Padé expansion point has norm ≤ 1/2.
        let j = if norm > 0.5 {
            (norm / 0.5).log2().ceil() as u32
        } else {
            0
        };
        let mut a = self.clone();
        let scale = (0.5f64).powi(j as i32);
        for v in &mut a.data {
            *v *= scale;
        }

        const Q: u32 = 6;
        let mut num = Matrix::identity(n); // Σ c_k A^k
        let mut den = Matrix::identity(n); // Σ c_k (−A)^k
        let mut power = Matrix::identity(n); // A^k
        let mut c = 1.0;
        for k in 1..=Q {
            c *= (Q - k + 1) as f64 / (k * (2 * Q - k + 1)) as f64;
            power = a.matmul(&power);
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            for ((nv, dv), pv) in num.data.iter_mut().zip(&mut den.data).zip(&power.data) {
                *nv += c * pv;
                *dv += sign * c * pv;
            }
        }
        let mut f = den.lu()?.solve_matrix(&num);
        for _ in 0..j {
            f = f.matmul(&f);
        }
        if f.data.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::Singular);
        }
        Ok(f)
    }

    /// The matrix inverse via LU factorization.
    ///
    /// # Errors
    ///
    /// See [`Matrix::lu`].
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        Ok(self.lu()?.solve_matrix(&Matrix::identity(self.rows)))
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if a pivot underflows, and
    /// [`LinalgError::DimensionMismatch`] if the matrix is not square.
    pub fn lu(&self) -> Result<LuFactors, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut max = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
        Ok(LuFactors { n, lu, piv })
    }

    /// Solves `self * x = b` via a fresh LU factorization.
    ///
    /// # Errors
    ///
    /// See [`Matrix::lu`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Ok(self.lu()?.solve(b))
    }

    /// Maximum absolute asymmetry `max |a_ij - a_ji|`.
    pub fn asymmetry(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols.min(self.rows) {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Cached LU factorization with partial pivoting, reusable across many
/// right-hand sides.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl LuFactors {
    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` using the cached factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.n()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc / self.lu[i * n + i];
        }
        x
    }

    /// Solves `A·X = B` column by column using the cached factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.n()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows, self.n, "rhs row count mismatch");
        let mut x = Matrix::zeros(b.rows, b.cols);
        let mut col = vec![0.0; self.n];
        let mut sol = Vec::with_capacity(self.n);
        for j in 0..b.cols {
            for i in 0..b.rows {
                col[i] = b[(i, j)];
            }
            self.solve_into(&col, &mut sol);
            for i in 0..b.rows {
                x[(i, j)] = sol[i];
            }
        }
        x
    }

    /// Solves in place into `x`, avoiding allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differ from `self.n()`.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n);
        x.clear();
        x.extend(self.piv.iter().map(|&p| b[p]));
        let n = self.n;
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc / self.lu[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill for kernel tests (splitmix-ish).
    fn fill(seed: u64, len: usize) -> Vec<f64> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// Packs lane-major data (lane `l`'s `width` values at `l·width`)
    /// into a lane tile with leading dimension `ld`; slack rows and the
    /// padding lanes of the last block hold `pad`.
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

    #[test]
    fn matmul_strided_matches_affine_matvec_bitwise() {
        // Odd cols exercise the scalar tail; padded leading dimensions
        // exercise the block strides; 13 lanes leave a ragged block.
        let (rows, cols) = (13, 29);
        let (ldx, ldy) = (cols + 3, rows + 5);
        let lanes = 13;
        let a = fill(1, rows * cols);
        let bias = fill(2, rows);
        let data = fill(3, lanes * cols);
        let x = pack(&data, cols, lanes, ldx, 0.0);
        let mut y = vec![LaneRow::ZERO; lanes.div_ceil(LANE_BLOCK) * ldy];
        matmul_strided(rows, cols, &a, &bias, &x, ldx, &mut y, ldy, lanes);
        for l in 0..lanes {
            let mut yref = vec![0.0; rows];
            affine_matvec(cols, &a, &bias, &data[l * cols..(l + 1) * cols], &mut yref);
            for i in 0..rows {
                assert_eq!(
                    at(&y, ldy, l, i).to_bits(),
                    yref[i].to_bits(),
                    "lane {l} row {i} diverged from the scalar kernel"
                );
            }
        }
    }

    #[test]
    fn matmul_strided_leaves_padding_untouched() {
        let (rows, cols) = (5, 6);
        let (ldx, ldy) = (cols + 2, rows + 3);
        let lanes = 3; // ragged: active lanes < LANE_BLOCK
        let a = fill(4, rows * cols);
        let bias = fill(5, rows);
        let x = pack(&fill(6, lanes * cols), cols, lanes, ldx, 0.0);
        let sentinel = -1234.5;
        let mut y = vec![LaneRow([sentinel; LANE_BLOCK]); ldy];
        matmul_strided(rows, cols, &a, &bias, &x, ldx, &mut y, ldy, lanes);
        for l in 0..LANE_BLOCK {
            for i in 0..ldy {
                let v = at(&y, ldy, l, i);
                if l < lanes && i < rows {
                    assert_ne!(v, sentinel, "active element ({l},{i}) unwritten");
                } else {
                    assert_eq!(v, sentinel, "padding element ({l},{i}) clobbered");
                }
            }
        }
    }

    #[test]
    fn matmul_strided_agrees_with_matrix_matmul() {
        // Same product through the naive Matrix::matmul (row-major,
        // plain accumulation): values agree to rounding even though the
        // accumulation orders differ.
        let (rows, cols, lanes) = (9, 17, 5);
        let a_data = fill(7, rows * cols);
        let x_data = fill(8, lanes * cols);
        let a = Matrix::from_vec(rows, cols, a_data.clone());
        // Lane l as column l of a cols×lanes matrix.
        let mut xm = Matrix::zeros(cols, lanes);
        for l in 0..lanes {
            for j in 0..cols {
                xm[(j, l)] = x_data[l * cols + j];
            }
        }
        let prod = a.matmul(&xm);
        let bias = vec![0.0; rows];
        let x = pack(&x_data, cols, lanes, cols, 0.0);
        let mut y = vec![LaneRow::ZERO; rows];
        matmul_strided(rows, cols, &a_data, &bias, &x, cols, &mut y, rows, lanes);
        for l in 0..lanes {
            for i in 0..rows {
                let v = at(&y, rows, l, i);
                assert!(
                    (v - prod[(i, l)]).abs() < 1e-12,
                    "({i},{l}): {v} vs {}",
                    prod[(i, l)]
                );
            }
        }
    }

    #[test]
    fn matmul_strided_zero_lanes_is_a_noop() {
        let a = fill(9, 4 * 4);
        let bias = fill(10, 4);
        let mut y = vec![LaneRow([7.0; LANE_BLOCK]); 4];
        matmul_strided(4, 4, &a, &bias, &[], 4, &mut y, 4, 0);
        assert!(y.iter().all(|r| r.0 == [7.0; LANE_BLOCK]));
    }

    #[test]
    fn lane_rows_are_cache_line_aligned() {
        assert_eq!(std::mem::size_of::<LaneRow>(), 64);
        assert_eq!(std::mem::align_of::<LaneRow>(), 64);
        // A heap tile, as the batch workspace holds them.
        let tile: Vec<LaneRow> = std::iter::repeat_n(LaneRow::ZERO, 3).collect();
        assert_eq!(tile.as_ptr() as usize % 64, 0);
    }

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(ax, bb)| (ax - bb).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solve_identity() {
        let a = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let x = a.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_small_system() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let b = vec![5.0, 10.0];
        let x = a.solve(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn non_square_lu_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::DimensionMismatch)));
    }

    #[test]
    fn lu_factors_reusable_across_rhs() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.0, 1.0, 5.0, 2.0, 0.0, 2.0, 6.0]);
        let lu = a.lu().unwrap();
        for b in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3.0, -2.0, 8.0]] {
            let x = lu.solve(&b);
            assert!(residual(&a, &x, &b) < 1e-10);
        }
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.5, 1.0, 5.0, 2.0, 0.5, 2.0, 6.0]);
        let lu = a.lu().unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x1 = lu.solve(&b);
        let mut x2 = Vec::new();
        lu.solve_into(&b, &mut x2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn larger_diagonally_dominant_system() {
        // Build a 20×20 diagonally dominant (thermal-like) system and
        // verify the residual.
        let n = 20;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    a[(i, j)] = 10.0 + i as f64;
                } else {
                    a[(i, j)] = 1.0 / (1.0 + (i as f64 - j as f64).abs());
                }
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 5.0).collect();
        let x = a.solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn mul_vec_basic() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn asymmetry_of_symmetric_matrix_is_zero() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(a.asymmetry(), 0.0);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.5, 3.0]);
        assert!((b.asymmetry() - 0.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "row-major data length mismatch")]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_against_hand_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1.5, -2.0, 0.25, 3.0]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn inf_norm_is_max_row_sum() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(a.inf_norm(), 3.5);
    }

    #[test]
    fn affine_matvec_matches_mul_vec_plus_bias() {
        let n = 11; // odd size exercises the unroll tail
        let a = Matrix::from_vec(
            n,
            n,
            (0..n * n).map(|k| ((k * 7919) % 13) as f64 - 6.0).collect(),
        );
        let x: Vec<f64> = (0..n).map(|k| 0.1 * k as f64 - 0.4).collect();
        let bias: Vec<f64> = (0..n).map(|k| k as f64).collect();
        let mut y = vec![0.0; n];
        affine_matvec(n, a.as_slice(), &bias, &x, &mut y);
        let expect = a.mul_vec(&x);
        for i in 0..n {
            assert!((y[i] - (expect[i] + bias[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_matrix_inverts_column_by_column() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.5, 1.0, 5.0, 2.0, 0.5, 2.0, 6.0]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let e = Matrix::zeros(3, 3).expm().unwrap();
        assert_eq!(e, Matrix::identity(3));
    }

    #[test]
    fn expm_of_diagonal_exponentiates_entries() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = -2.0;
        a[(1, 1)] = 0.5;
        a[(2, 2)] = -7.0; // norm > 1/2 exercises scaling-and-squaring
        let e = a.expm().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { a[(i, i)].exp() } else { 0.0 };
                assert!(
                    (e[(i, j)] - expect).abs() < 1e-12,
                    "({i},{j}): {} vs {expect}",
                    e[(i, j)]
                );
            }
        }
    }

    #[test]
    fn expm_matches_series_on_nilpotent_matrix() {
        // Strictly upper-triangular: exp(A) = I + A + A²/2 exactly.
        let a = Matrix::from_vec(3, 3, vec![0.0, 2.0, 1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]);
        let e = a.expm().unwrap();
        let mut expect = Matrix::identity(3);
        let a2 = a.matmul(&a);
        for (idx, v) in expect.data.iter_mut().enumerate() {
            *v += a.data[idx] + 0.5 * a2.data[idx];
        }
        for (x, y) in e.data.iter().zip(&expect.data) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn expm_semigroup_property_holds() {
        // exp(A)·exp(A) = exp(2A) for the 2×2 stiff test matrix.
        let a = Matrix::from_vec(2, 2, vec![-3.0, 1.0, 0.5, -8.0]);
        let e1 = a.expm().unwrap();
        let mut a2 = a.clone();
        for v in &mut a2.data {
            *v *= 2.0;
        }
        let e2 = a2.expm().unwrap();
        let prod = e1.matmul(&e1);
        for (x, y) in prod.data.iter().zip(&e2.data) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn expm_rejects_non_square_and_non_finite() {
        assert!(matches!(
            Matrix::zeros(2, 3).expm(),
            Err(LinalgError::DimensionMismatch)
        ));
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(a.expm(), Err(LinalgError::Singular)));
    }
}

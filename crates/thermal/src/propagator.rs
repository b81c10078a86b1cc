//! Exact discrete-time propagator for the LTI RC network.
//!
//! The thermal ODE `C·dT/dt = p − A·T` is linear time-invariant, and the
//! simulation advances it with a *constant* power vector over each
//! sample interval `dt`. Its exact solution over one interval is
//!
//! ```text
//!   T(t+dt) = E·T(t) + F·p
//!   E = expm(−C⁻¹·A·dt)          (state propagator)
//!   F = (I − E)·A⁻¹               (affine input matrix)
//! ```
//!
//! so once `E` and `F` are precomputed for a given `dt`, a step is one
//! dense matrix–vector product — no substeps, no per-step LU solves,
//! and no time-discretization error (the only error is the floating
//! point of `expm` itself). This is the standard exact-exponential
//! trick HotSpot uses for its block model.
//!
//! Two structural reductions make the per-step kernel smaller than a
//! naive `n×n` pair of products:
//!
//! 1. Power is injected only at the `k` power-input sites, the
//!    floorplan blocks, which are the network's first `k` nodes. Only
//!    `F`'s first `k` columns (`F_k`, an `n×k` matrix) are kept.
//! 2. The ambient drive `g_amb·T_amb` is constant, so `F·p_amb` is
//!    folded into a per-row bias.
//!
//! The step then is a single affine kernel over the concatenated input
//! `[T | p_blocks]` (see [`crate::linalg::affine_matvec`]):
//!
//! ```text
//!   T ← [E | F_k]·[T | p] + F·p_amb
//! ```
//!
//! **Failure conditions.** Construction fails — and the owning
//! solver's `prewarm` or `step` returns the error, so a simulator fails
//! when it is built — when `A` is singular or ill-conditioned enough
//! that the inverse or `expm` produces non-finite entries, or when the
//! computed `E` is not a contraction (`‖E‖_∞ > 1`), which a dissipative
//! RC network's exact propagator must be. A *changing* `dt` is not a
//! failure: the propagator is cached per `dt` exactly like the
//! backward-Euler LU factorization, and is rebuilt whenever `dt` moves
//! by more than 1 part in 10¹⁵.

use crate::linalg::{affine_matvec, matmul_strided, LaneRow, LinalgError, Matrix};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, OnceLock};

/// Tolerance on `‖E‖_∞ − 1` before the propagator is declared
/// non-physical: exact row sums are ≤ 1 for a network with ambient
/// coupling, so anything materially above 1 means `expm` lost accuracy.
const CONTRACTION_TOL: f64 = 1e-9;

/// Which transient integration backend a solver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SolverBackend {
    /// Exact matrix-exponential propagator (the default): one dense
    /// matvec per power sample, cached per `dt`. A propagator that
    /// cannot be built is an error.
    #[default]
    Propagator,
    /// Backward-Euler substepping with a cached LU factorization — the
    /// original reference integrator, unconditionally stable, kept for
    /// differential testing.
    BackwardEuler,
}

/// Precomputed exact one-step propagator for one `dt`.
#[derive(Debug, Clone)]
pub(crate) struct Propagator {
    n: usize,
    n_inputs: usize,
    dt: f64,
    /// Row-major `n × (n + n_inputs)`; row `i` is `[E_i | (F_k)_i]`.
    rows: Vec<f64>,
    /// `F·p_amb`: the constant ambient drive per step.
    bias: Vec<f64>,
}

/// Process-wide propagator cache, keyed by a content hash of every
/// numeric input to [`Propagator::new`].
///
/// Building `E = expm(−C⁻¹·A·dt)` is by far the most expensive part of
/// constructing a simulator — tens of ms for the block model — and it
/// depends only on the thermal network and `dt`, not on the workload,
/// policy, or sensor seed. A sweep (or a simulation server) therefore
/// rebuilds the *same* propagator for almost every cell; this cache
/// makes each distinct thermal configuration pay `expm` once per
/// process. Entries are immutable (`advance` is `&self`) and shared by
/// `Arc`, so cached reuse is bit-identical to a fresh build.
const PROPAGATOR_CACHE_CAP: usize = 32;

type CacheEntries = Vec<(u128, Arc<Propagator>)>;

fn cache() -> &'static Mutex<CacheEntries> {
    static CACHE: OnceLock<Mutex<CacheEntries>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Double-lane FNV-1a (the result cache's construction) over the raw
/// bit patterns of every input, so any numeric difference — a single
/// conductance, the ambient, `dt` — yields a different key.
fn content_key(
    a: &Matrix,
    cap: &[f64],
    g_amb: &[f64],
    ambient: f64,
    n_inputs: usize,
    dt: f64,
) -> u128 {
    let mut bytes: Vec<u8> = Vec::with_capacity((a.as_slice().len() + cap.len()) * 8 + 64);
    let mut push = |v: f64| bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    push(dt);
    push(ambient);
    push(a.rows() as f64);
    push(n_inputs as f64);
    for &v in a.as_slice() {
        push(v);
    }
    for &v in cap {
        push(v);
    }
    for &v in g_amb {
        push(v);
    }
    let fnv = |seed: u64, data: &[u8]| {
        data.iter().fold(seed, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let lo = fnv(0xcbf2_9ce4_8422_2325, &bytes);
    bytes.reverse();
    let hi = fnv(0x6c62_272e_07bb_0142, &bytes);
    ((hi as u128) << 64) | lo as u128
}

impl Propagator {
    /// Returns the cached propagator for these exact inputs, building
    /// and caching it on a miss. Failures are not cached.
    ///
    /// # Errors
    ///
    /// See [`Propagator::new`].
    pub(crate) fn shared(
        a: &Matrix,
        cap: &[f64],
        g_amb: &[f64],
        ambient: f64,
        n_inputs: usize,
        dt: f64,
    ) -> Result<Arc<Propagator>, LinalgError> {
        let key = content_key(a, cap, g_amb, ambient, n_inputs, dt);
        if let Some((_, p)) = cache().lock().unwrap().iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(p));
        }
        let built = Arc::new(Propagator::new(a, cap, g_amb, ambient, n_inputs, dt)?);
        let mut guard = cache().lock().unwrap();
        // A racing builder may have inserted the same key; keep theirs
        // (the contents are identical by construction).
        if let Some((_, p)) = guard.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(p));
        }
        if guard.len() >= PROPAGATOR_CACHE_CAP {
            guard.remove(0); // FIFO: oldest distinct configuration
        }
        guard.push((key, Arc::clone(&built)));
        Ok(built)
    }

    /// Builds `E`/`F` for the system `C·dT/dt = p − A·T` at step `dt`,
    /// with `n_inputs` power inputs injected into the first `n_inputs`
    /// nodes.
    pub(crate) fn new(
        a: &Matrix,
        cap: &[f64],
        g_amb: &[f64],
        ambient: f64,
        n_inputs: usize,
        dt: f64,
    ) -> Result<Propagator, LinalgError> {
        let n = a.rows();
        // Generator of the semigroup: −C⁻¹·A, scaled by dt.
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = -dt * a[(i, j)] / cap[i];
            }
        }
        let e = m.expm()?;
        if e.inf_norm() > 1.0 + CONTRACTION_TOL {
            return Err(LinalgError::Singular);
        }

        // F = (I − E)·A⁻¹.
        let inv = a.inverse()?;
        let mut i_minus_e = e.clone();
        for i in 0..n {
            for j in 0..n {
                i_minus_e[(i, j)] = -i_minus_e[(i, j)];
            }
            i_minus_e[(i, i)] += 1.0;
        }
        let f = i_minus_e.matmul(&inv);

        let p_amb: Vec<f64> = g_amb.iter().map(|g| g * ambient).collect();
        let bias = f.mul_vec(&p_amb);

        debug_assert!(n_inputs <= n);
        let mut rows = Vec::with_capacity(n * (n + n_inputs));
        for i in 0..n {
            rows.extend_from_slice(&e.as_slice()[i * n..(i + 1) * n]);
            rows.extend_from_slice(&f.as_slice()[i * n..i * n + n_inputs]);
        }
        if rows.iter().any(|v| !v.is_finite()) || bias.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::Singular);
        }
        Ok(Propagator {
            n,
            n_inputs,
            dt,
            rows,
            bias,
        })
    }

    /// The step this propagator was built for (s).
    pub(crate) fn dt(&self) -> f64 {
        self.dt
    }

    /// State dimension `n` (rows of `E`).
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Width of the concatenated input `[T | p]`: `n + n_inputs`.
    pub(crate) fn width(&self) -> usize {
        self.n + self.n_inputs
    }

    /// Advances `lanes` independent states at once: lane `l` of the
    /// packed input tile `x` (leading dimension `ldx`) holds lane `l`'s
    /// concatenated `[T | p]`, and lane `l` of the packed output tile
    /// `y` (leading dimension `ldy`) receives its next temperatures. One
    /// cache-blocked [`matmul_strided`] call replaces `lanes`
    /// [`Propagator::advance`] matvecs; each lane's output is
    /// bit-identical to the scalar path.
    pub(crate) fn advance_batch(
        &self,
        x: &[LaneRow],
        ldx: usize,
        y: &mut [LaneRow],
        ldy: usize,
        lanes: usize,
    ) {
        matmul_strided(
            self.n,
            self.n + self.n_inputs,
            &self.rows,
            &self.bias,
            x,
            ldx,
            y,
            ldy,
            lanes,
        );
    }

    /// Advances `temps` by one step under constant input `power`,
    /// staging the concatenated input in `xbuf` and the output in
    /// `out` (both reused across steps to avoid allocation).
    ///
    /// # Panics
    ///
    /// Panics (via the kernel's shape asserts) if `temps` or `power`
    /// have the wrong length.
    pub(crate) fn advance(
        &self,
        temps: &mut Vec<f64>,
        power: &[f64],
        xbuf: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        xbuf.clear();
        xbuf.extend_from_slice(temps);
        xbuf.extend_from_slice(power);
        out.clear();
        out.resize(self.n, 0.0);
        affine_matvec(self.n + self.n_inputs, &self.rows, &self.bias, xbuf, out);
        std::mem::swap(temps, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-node RC chain: node 0 —g01— node 1 —g_amb— ambient.
    fn two_node() -> (Matrix, Vec<f64>, Vec<f64>) {
        let g01 = 2.0;
        let g_amb = vec![0.0, 1.5];
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = g01;
        a[(0, 1)] = -g01;
        a[(1, 0)] = -g01;
        a[(1, 1)] = g01 + g_amb[1];
        (a, vec![0.01, 0.05], g_amb)
    }

    #[test]
    fn propagator_fixpoint_is_the_steady_state() {
        let (a, cap, g_amb) = two_node();
        let ambient = 45.0;
        let p_in = [0.8];
        let prop = Propagator::new(&a, &cap, &g_amb, ambient, 1, 1e-3).unwrap();
        // Steady state of A·T = p + g_amb·T_amb.
        let rhs = vec![p_in[0] + g_amb[0] * ambient, g_amb[1] * ambient];
        let steady = a.solve(&rhs).unwrap();
        let mut temps = steady.clone();
        let (mut xbuf, mut out) = (Vec::new(), Vec::new());
        prop.advance(&mut temps, &p_in, &mut xbuf, &mut out);
        for (t, s) in temps.iter().zip(&steady) {
            assert!((t - s).abs() < 1e-10, "{t} vs {s}");
        }
    }

    #[test]
    fn propagator_matches_scalar_exponential_relaxation() {
        // Single node: C dT/dt = p − g(T − T_amb) has the closed form
        // T(t) = T∞ + (T0 − T∞)·exp(−g·t/C).
        let g = 3.0;
        let cap = vec![0.02];
        let mut a = Matrix::zeros(1, 1);
        a[(0, 0)] = g;
        let g_amb = vec![g];
        let ambient = 45.0;
        let p = [1.2];
        let dt = 4e-3;
        let prop = Propagator::new(&a, &cap, &g_amb, ambient, 1, dt).unwrap();
        let t_inf = ambient + p[0] / g;
        let mut temps = vec![ambient];
        let (mut xbuf, mut out) = (Vec::new(), Vec::new());
        for step in 1..=10 {
            prop.advance(&mut temps, &p, &mut xbuf, &mut out);
            let expect = t_inf + (ambient - t_inf) * (-g * dt * step as f64 / cap[0]).exp();
            assert!(
                (temps[0] - expect).abs() < 1e-10,
                "{} vs {expect}",
                temps[0]
            );
        }
    }

    #[test]
    fn shared_cache_returns_the_same_instance_for_identical_inputs() {
        let (a, cap, g_amb) = two_node();
        let p1 = Propagator::shared(&a, &cap, &g_amb, 45.0, 1, 1e-3).unwrap();
        let p2 = Propagator::shared(&a, &cap, &g_amb, 45.0, 1, 1e-3).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "identical inputs must share");
        // Any numeric difference — here dt — must miss the cache.
        let p3 = Propagator::shared(&a, &cap, &g_amb, 45.0, 1, 2e-3).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3), "different dt must not share");
        // The shared instance behaves exactly like a fresh build.
        let fresh = Propagator::new(&a, &cap, &g_amb, 45.0, 1, 1e-3).unwrap();
        let (mut ta, mut tb) = (vec![50.0, 47.0], vec![50.0, 47.0]);
        let (mut xbuf, mut out) = (Vec::new(), Vec::new());
        p1.advance(&mut ta, &[0.8], &mut xbuf, &mut out);
        fresh.advance(&mut tb, &[0.8], &mut xbuf, &mut out);
        assert_eq!(ta, tb, "cached reuse must be bit-identical");
    }

    #[test]
    fn singular_system_is_rejected() {
        // No ambient coupling at all: A is a pure graph Laplacian,
        // singular, so F = (I−E)·A⁻¹ cannot be built.
        let g01 = 2.0;
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = g01;
        a[(0, 1)] = -g01;
        a[(1, 0)] = -g01;
        a[(1, 1)] = g01;
        let err = Propagator::new(&a, &[0.01, 0.05], &[0.0, 0.0], 45.0, 1, 1e-3);
        assert!(err.is_err());
    }
}

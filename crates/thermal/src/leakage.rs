//! Temperature-dependent leakage power.
//!
//! PowerTimer-style tools report dynamic power only; leakage depends on
//! temperature, which is only known after the thermal solve. Following the
//! study's toolflow, leakage is computed inside the thermal/timing loop
//! from the current block temperatures using an empirical exponential
//! model (in the spirit of Heo, Barr & Asanović, ISLPED'03):
//!
//! ```text
//!   P_leak(T) = P_ref · exp(β · (T − T_ref))
//! ```
//!
//! The exponential is this crate's [`crate::exp`], not the host's libm,
//! so leakage power is the same on every host.

use crate::exp::exp;
use serde::{Deserialize, Serialize};

/// Per-block exponential leakage model.
///
/// # Examples
///
/// ```
/// use dtm_thermal::LeakageModel;
///
/// let leak = LeakageModel::new(vec![1.0, 2.0], 45.0, 0.0231);
/// let p = leak.power(&[45.0, 75.0]);
/// assert!((p[0] - 1.0).abs() < 1e-12);      // at T_ref: exactly P_ref
/// assert!((p[1] - 4.0).abs() < 0.01);       // +30 °C: doubles twice
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeakageModel {
    p_ref: Vec<f64>,
    t_ref: f64,
    beta: f64,
}

impl LeakageModel {
    /// Creates a model with reference leakage `p_ref` (W per block) at
    /// temperature `t_ref` (°C) and exponent `beta` (1/K).
    ///
    /// `beta = ln(2)/30 ≈ 0.0231` doubles leakage every 30 °C, a typical
    /// 90 nm characteristic.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is negative or not finite, if `t_ref` is not
    /// finite, or if any reference power is negative or not finite.
    pub fn new(p_ref: Vec<f64>, t_ref: f64, beta: f64) -> Self {
        assert!(beta >= 0.0, "leakage must not decrease with temperature");
        assert!(beta.is_finite(), "leakage exponent must be finite");
        assert!(t_ref.is_finite(), "reference temperature must be finite");
        assert!(
            p_ref.iter().all(|&p| p >= 0.0 && p.is_finite()),
            "reference leakage must be non-negative"
        );
        LeakageModel { p_ref, t_ref, beta }
    }

    /// A model with zero leakage everywhere (useful for isolating dynamic
    /// power in tests).
    pub fn disabled(n_blocks: usize) -> Self {
        LeakageModel::new(vec![0.0; n_blocks], 45.0, 0.0)
    }

    /// Number of blocks covered.
    pub fn len(&self) -> usize {
        self.p_ref.len()
    }

    /// Whether the model covers zero blocks.
    pub fn is_empty(&self) -> bool {
        self.p_ref.is_empty()
    }

    /// Reference leakage at `t_ref` for each block (W).
    pub fn reference_power(&self) -> &[f64] {
        &self.p_ref
    }

    /// Leakage power (W) of every block at the given temperatures (°C).
    ///
    /// # Panics
    ///
    /// Panics if `temps.len() != self.len()`.
    pub fn power(&self, temps: &[f64]) -> Vec<f64> {
        assert_eq!(temps.len(), self.p_ref.len(), "temperature vector length");
        temps
            .iter()
            .zip(&self.p_ref)
            .map(|(&t, &p)| p * self.factor(t))
            .collect()
    }

    /// Leakage multiplier at temperature `t` (°C). The exponent is
    /// clamped at `t_ref + 150` K: beyond that the exponential model has
    /// left its fitted range, and the clamp keeps simulations of
    /// unconstrained (no-DTM) runs numerically finite instead of
    /// diverging through thermal runaway.
    fn factor(&self, t: f64) -> f64 {
        exp(self.beta * ((t - self.t_ref).min(150.0)))
    }

    /// Adds leakage at `temps` into an existing power vector, avoiding
    /// allocation. Each element gets `p · factor(t)`, bit for bit as
    /// [`Self::power`] computes it. An AVX-512F build takes eight blocks
    /// per step through the 512-bit [`crate::exp`] kernel, chosen at
    /// compile time like `linalg::matmul_strided`'s; every other build
    /// loops over the blocks.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn add_power(&self, temps: &[f64], power: &mut [f64]) {
        assert_eq!(temps.len(), self.p_ref.len());
        assert_eq!(power.len(), self.p_ref.len());
        // SAFETY: this build targets AVX-512F (the `cfg`), so every CPU
        // it runs on has the instructions `zmm::add_power` is compiled
        // for.
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        unsafe {
            zmm::add_power(self, temps, power)
        };
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
        for ((w, &t), &p) in power.iter_mut().zip(temps).zip(&self.p_ref) {
            *w += p * self.factor(t);
        }
    }
}

/// The 512-bit leakage pass: per element the scalar pass's operations,
/// `w + p · exp(β · min(t − T_ref, 150))`, on eight blocks per register.
/// A ragged last block is read and written under a lane mask.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod zmm {
    use super::LeakageModel;
    use crate::exp::zmm::exp;
    use std::arch::x86_64::{
        _mm512_add_pd, _mm512_mask_storeu_pd, _mm512_maskz_loadu_pd, _mm512_min_pd, _mm512_mul_pd,
        _mm512_set1_pd, _mm512_sub_pd,
    };

    /// [`LeakageModel::add_power`] over the model's blocks.
    ///
    /// # Panics
    ///
    /// Panics if `temps` or `power` is shorter than the model.
    #[target_feature(enable = "avx512f")]
    pub(super) fn add_power(m: &LeakageModel, temps: &[f64], power: &mut [f64]) {
        let n = m.p_ref.len();
        let (temps, power) = (&temps[..n], &mut power[..n]);
        let (beta, t_ref, cap) = (
            _mm512_set1_pd(m.beta),
            _mm512_set1_pd(m.t_ref),
            _mm512_set1_pd(150.0),
        );
        for b in (0..n).step_by(8) {
            let k = if n - b >= 8 {
                0xff
            } else {
                (1u8 << (n - b)) - 1
            };
            // SAFETY: all three slices hold `n` elements, and the masked
            // loads and store touch only elements `b + l < n`. Masked-off
            // lanes are never accessed.
            unsafe {
                let t = _mm512_maskz_loadu_pd(k, temps.as_ptr().add(b));
                let p = _mm512_maskz_loadu_pd(k, m.p_ref.as_ptr().add(b));
                let w = _mm512_maskz_loadu_pd(k, power.as_ptr().add(b));
                // `min` returns its second operand if either is NaN, as
                // `f64::min` returns the non-NaN one.
                let x = _mm512_mul_pd(beta, _mm512_min_pd(_mm512_sub_pd(t, t_ref), cap));
                let w = _mm512_add_pd(w, _mm512_mul_pd(p, exp(x)));
                _mm512_mask_storeu_pd(power.as_mut_ptr().add(b), k, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leakage_grows_monotonically_with_temperature() {
        let m = LeakageModel::new(vec![1.5], 45.0, 0.0231);
        let mut prev = 0.0;
        for t in [30.0, 45.0, 60.0, 85.0, 110.0] {
            let p = m.power(&[t])[0];
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn disabled_model_is_zero_at_any_temperature() {
        let m = LeakageModel::disabled(3);
        for t in [0.0, 45.0, 120.0] {
            assert_eq!(m.power(&[t, t, t]), vec![0.0, 0.0, 0.0]);
        }
    }

    #[test]
    fn add_power_matches_power() {
        let m = LeakageModel::new(vec![0.5, 1.0, 2.0], 45.0, 0.02);
        let temps = [50.0, 70.0, 90.0];
        let expect = m.power(&temps);
        let mut acc = vec![10.0, 20.0, 30.0];
        m.add_power(&temps, &mut acc);
        for i in 0..3 {
            assert!((acc[i] - (10.0 * (i as f64 + 1.0) + expect[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn doubling_interval_is_respected() {
        let beta = (2.0f64).ln() / 30.0;
        let m = LeakageModel::new(vec![1.0], 45.0, beta);
        let p = m.power(&[105.0])[0]; // two doubling intervals
        assert!((p - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must not decrease")]
    fn negative_beta_is_rejected() {
        LeakageModel::new(vec![1.0], 45.0, -0.01);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_reference_power_is_rejected() {
        LeakageModel::new(vec![-1.0], 45.0, 0.01);
    }

    #[test]
    #[should_panic(expected = "exponent must be finite")]
    fn infinite_beta_is_rejected() {
        LeakageModel::new(vec![1.0], 45.0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "reference temperature must be finite")]
    fn non_finite_reference_temperature_is_rejected() {
        LeakageModel::new(vec![1.0], f64::NAN, 0.02);
    }
}

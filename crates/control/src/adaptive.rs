//! Adaptive gain scheduling for the clipped PI controller.
//!
//! The paper runs its DVFS loop with one fixed gain pair (Table 3).
//! Rao et al. (arXiv:1507.06357) argue for an *adjustable-gain*
//! integral law instead: the effective gain is scaled online from the
//! measured temperature error and its rate, so the controller responds
//! aggressively to fast thermal transients and gently near the
//! setpoint. This module implements that idea, plus a windowed
//! self-tuning variant, behind the [`GainSchedule`] trait:
//!
//! * [`FixedSchedule`] — multiplier pinned to exactly `1.0`; the
//!   scheduled controller is bit-identical to [`ClippedPi`].
//! * [`RaoSchedule`] — per-step multiplier `1 + α·sat((e + τ·ė)/E_ref)`
//!   with a slew limit, mirroring the adjustable-gain integral law.
//! * [`SelfTuneSchedule`] — deterministic windowed tuner: overshoot in
//!   a window raises the gains multiplicatively, a well-settled window
//!   relaxes them back toward nominal.
//!
//! Every schedule emits a single multiplier `m` applied to *both*
//! gains (`kp·m`, `ki·m`), clamped to [`MULT_MIN`]‥[`MULT_MAX`], so
//! the scheduled controller keeps the fixed design's zero location and
//! only scales its loop gain — the stability-preserving move for a
//! first-order-dominant thermal plant. Determinism: schedules are pure
//! functions of the error sequence (no wall clock, no RNG), so a run
//! replays bit-identically from the same traces and seed.
//!
//! With adaptation disabled (`α = 0` or `rate = 0`) the multiplier
//! stays exactly `1.0`, and `kp·1.0`/`ki·1.0` are bitwise equal to the
//! base gains: the update expression below is then arithmetically
//! identical to [`ClippedPi::update`], which is what the differential
//! suite in `tests/tests/control_equivalence.rs` pins.

use serde::{Deserialize, Serialize};

use crate::pi::{ClippedPi, PiGains};

/// Lower clamp of the gain multiplier (gains never fall below a
/// quarter of their designed values).
pub const MULT_MIN: f64 = 0.25;

/// Upper clamp of the gain multiplier (gains never exceed four times
/// their designed values — the loop stays far from the discrete
/// stability edge, see DESIGN.md §10).
pub const MULT_MAX: f64 = 4.0;

/// Error normalization of the Rao drive term (°C): the saturation is
/// half-engaged at this error magnitude.
pub const RAO_E_REF: f64 = 2.0;

/// Maximum multiplier change per control step for the Rao schedule
/// (slew limit; full range takes ≥ 750 steps ≈ 21 ms at the paper's
/// control period).
pub const RAO_SLEW_PER_STEP: f64 = 0.005;

/// Windowed overshoot (°C above the setpoint) beyond which the
/// self-tuner raises the gains.
pub const SELFTUNE_OVERSHOOT_TOL: f64 = 0.1;

/// Mean absolute windowed error (°C) below which the self-tuner
/// considers the loop settled and relaxes toward the nominal gains.
pub const SELFTUNE_SETTLE_TOL: f64 = 0.25;

/// Smallest self-tuning window (control steps), whatever `window_s`
/// says — statistics over fewer steps are noise.
pub const MIN_WINDOW_STEPS: u64 = 8;

/// Which gain schedule a run uses. `Fixed` (the default) selects the
/// plain [`ClippedPi`] path. Every schedule, `Fixed` included, is
/// spelled out in a cell's cache key and in a `simulate` request.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum GainScheduleConfig {
    /// Fixed gains — the paper's controller, bit-identical to PR-8-era
    /// builds.
    #[default]
    Fixed,
    /// Rao-style adjustable gain: multiplier `1 + α·sat((e + τ·ė)/E_ref)`.
    Rao {
        /// Adaptation strength (0 disables adaptation exactly).
        alpha: f64,
        /// Lookahead time constant τ weighting the error rate (s).
        tau_s: f64,
    },
    /// Windowed self-tuning from overshoot/settling statistics.
    SelfTuning {
        /// Fractional gain adjustment per window (0 disables exactly).
        rate: f64,
        /// Statistics window length (s), floored at
        /// [`MIN_WINDOW_STEPS`] control steps.
        window_s: f64,
    },
}

impl GainScheduleConfig {
    /// The Rao schedule at its reference tuning.
    pub fn rao_default() -> Self {
        GainScheduleConfig::Rao {
            alpha: 1.0,
            tau_s: 2e-3,
        }
    }

    /// The self-tuning schedule at its reference tuning.
    pub fn selftune_default() -> Self {
        GainScheduleConfig::SelfTuning {
            rate: 0.2,
            window_s: 2e-3,
        }
    }

    /// Whether this is the fixed (non-adaptive) schedule.
    pub fn is_fixed(&self) -> bool {
        matches!(self, GainScheduleConfig::Fixed)
    }

    /// Stable wire spelling (`fixed` / `rao` / `selftune`).
    pub fn wire_name(&self) -> &'static str {
        match self {
            GainScheduleConfig::Fixed => "fixed",
            GainScheduleConfig::Rao { .. } => "rao",
            GainScheduleConfig::SelfTuning { .. } => "selftune",
        }
    }

    /// Validates schedule parameters.
    ///
    /// # Errors
    ///
    /// Describes the first non-finite or out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            GainScheduleConfig::Fixed => Ok(()),
            GainScheduleConfig::Rao { alpha, tau_s } => {
                if !(0.0..=MULT_MAX).contains(&alpha) {
                    Err(format!(
                        "rao alpha {alpha} must be finite in [0, {MULT_MAX}]"
                    ))
                } else if !(tau_s.is_finite() && tau_s >= 0.0) {
                    Err(format!("rao tau_s {tau_s} must be finite and non-negative"))
                } else {
                    Ok(())
                }
            }
            GainScheduleConfig::SelfTuning { rate, window_s } => {
                if !(0.0..1.0).contains(&rate) {
                    Err(format!("selftune rate {rate} must be finite in [0, 1)"))
                } else if !(window_s.is_finite() && window_s > 0.0) {
                    Err(format!(
                        "selftune window_s {window_s} must be finite and positive"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// An online gain schedule: maps the observed error sequence to a
/// multiplier applied to both PI gains for the current step.
pub trait GainSchedule {
    /// Stable schedule name.
    fn name(&self) -> &'static str;

    /// The multiplier for the step observing error `e` (`prev_e` is
    /// the previous step's error). Implementations must clamp to
    /// `[MULT_MIN, MULT_MAX]` and be pure in the error history.
    fn multiplier(&mut self, e: f64, prev_e: f64) -> f64;

    /// Restores the initial (nominal-gain) state.
    fn reset(&mut self);
}

/// The trivial schedule: multiplier pinned to exactly `1.0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedSchedule;

impl GainSchedule for FixedSchedule {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn multiplier(&mut self, _e: f64, _prev_e: f64) -> f64 {
        1.0
    }

    fn reset(&mut self) {}
}

/// The Rao-style adjustable gain: `m* = 1 + α·sat((e + τ·ė)/E_ref)`
/// with `sat(x) = x/(1+|x|)`, slew-limited per step and clamped.
/// Positive drive (hot and/or heating) raises the loop gain; negative
/// drive (cool and cooling) lowers it below nominal for a gentler
/// response near the setpoint.
#[derive(Debug, Clone, Copy)]
pub struct RaoSchedule {
    alpha: f64,
    tau_s: f64,
    dt: f64,
    m: f64,
}

impl RaoSchedule {
    /// Builds the schedule for a loop with control period `dt`.
    pub fn new(alpha: f64, tau_s: f64, dt: f64) -> Self {
        assert!(dt > 0.0, "control period must be positive");
        RaoSchedule {
            alpha,
            tau_s,
            dt,
            m: 1.0,
        }
    }
}

impl GainSchedule for RaoSchedule {
    fn name(&self) -> &'static str {
        "rao"
    }

    fn multiplier(&mut self, e: f64, prev_e: f64) -> f64 {
        let de = (e - prev_e) / self.dt;
        let drive = (e + self.tau_s * de) / RAO_E_REF;
        let target = 1.0 + self.alpha * (drive / (1.0 + drive.abs()));
        self.m = target
            .clamp(self.m - RAO_SLEW_PER_STEP, self.m + RAO_SLEW_PER_STEP)
            .clamp(MULT_MIN, MULT_MAX);
        self.m
    }

    fn reset(&mut self) {
        self.m = 1.0;
    }
}

/// The windowed self-tuner: accumulates the peak positive error and
/// mean absolute error over fixed windows of control steps; at each
/// window boundary, overshoot beyond [`SELFTUNE_OVERSHOOT_TOL`] raises
/// the multiplier by `1 + rate`, while a settled window (mean |e|
/// under [`SELFTUNE_SETTLE_TOL`]) relaxes it toward `1.0` by `rate`.
#[derive(Debug, Clone, Copy)]
pub struct SelfTuneSchedule {
    rate: f64,
    window: u64,
    left: u64,
    peak: f64,
    abs_sum: f64,
    m: f64,
}

impl SelfTuneSchedule {
    /// Builds the schedule for a loop with control period `dt`; the
    /// window is `window_s / dt` steps, floored at
    /// [`MIN_WINDOW_STEPS`].
    pub fn new(rate: f64, window_s: f64, dt: f64) -> Self {
        assert!(dt > 0.0, "control period must be positive");
        let window = ((window_s / dt).round() as u64).max(MIN_WINDOW_STEPS);
        SelfTuneSchedule {
            rate,
            window,
            left: window,
            peak: f64::NEG_INFINITY,
            abs_sum: 0.0,
            m: 1.0,
        }
    }

    /// The window length in control steps.
    pub fn window_steps(&self) -> u64 {
        self.window
    }
}

impl GainSchedule for SelfTuneSchedule {
    fn name(&self) -> &'static str {
        "selftune"
    }

    fn multiplier(&mut self, e: f64, _prev_e: f64) -> f64 {
        self.peak = self.peak.max(e);
        self.abs_sum += e.abs();
        self.left -= 1;
        if self.left == 0 {
            let mean_abs = self.abs_sum / self.window as f64;
            if self.peak > SELFTUNE_OVERSHOOT_TOL {
                self.m = (self.m * (1.0 + self.rate)).clamp(MULT_MIN, MULT_MAX);
            } else if mean_abs < SELFTUNE_SETTLE_TOL {
                self.m += self.rate * (1.0 - self.m);
            }
            self.left = self.window;
            self.peak = f64::NEG_INFINITY;
            self.abs_sum = 0.0;
        }
        self.m
    }

    fn reset(&mut self) {
        self.left = self.window;
        self.peak = f64::NEG_INFINITY;
        self.abs_sum = 0.0;
        self.m = 1.0;
    }
}

/// A clipped PI controller whose gains are rescaled online by a
/// [`GainSchedule`]. The difference equation and the clip-as-anti-
/// windup discipline are exactly [`ClippedPi`]'s; only the gains vary:
///
/// ```text
///   u[n] = clip( u[n−1] − m·Kp·e[n] + (m·Kp − m·Ki·T)·e[n−1] )
/// ```
pub struct AdaptivePi {
    base: PiGains,
    schedule: Box<dyn GainSchedule + Send>,
    min: f64,
    max: f64,
    prev_u: f64,
    prev_e: f64,
    steps: u64,
    m: f64,
    m_lo: f64,
    m_hi: f64,
    adaptations: u64,
}

impl std::fmt::Debug for AdaptivePi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptivePi")
            .field("base", &self.base)
            .field("schedule", &self.schedule.name())
            .field("m", &self.m)
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl AdaptivePi {
    /// Creates an adaptive controller with output limits `[min, max]`,
    /// starting at full output and nominal gains (`m = 1`).
    ///
    /// # Panics
    ///
    /// Panics on an empty output range, non-finite gains, or invalid
    /// schedule parameters.
    pub fn new(base: PiGains, config: GainScheduleConfig, min: f64, max: f64) -> Self {
        assert!(min < max, "output range must be non-empty");
        assert!(
            base.kp.is_finite() && base.ki.is_finite() && base.dt.is_finite() && base.dt > 0.0,
            "gains must be finite and period positive"
        );
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let schedule: Box<dyn GainSchedule + Send> = match config {
            GainScheduleConfig::Fixed => Box::new(FixedSchedule),
            GainScheduleConfig::Rao { alpha, tau_s } => {
                Box::new(RaoSchedule::new(alpha, tau_s, base.dt))
            }
            GainScheduleConfig::SelfTuning { rate, window_s } => {
                Box::new(SelfTuneSchedule::new(rate, window_s, base.dt))
            }
        };
        AdaptivePi {
            base,
            schedule,
            min,
            max,
            prev_u: max,
            prev_e: 0.0,
            steps: 0,
            m: 1.0,
            m_lo: 1.0,
            m_hi: 1.0,
            adaptations: 0,
        }
    }

    /// Advances one control period with error `e = measured − target`
    /// and returns the new clipped output.
    pub fn update(&mut self, e: f64) -> f64 {
        let m = self.schedule.multiplier(e, self.prev_e);
        if m != self.m {
            self.adaptations += 1;
        }
        self.m = m;
        self.m_lo = self.m_lo.min(m);
        self.m_hi = self.m_hi.max(m);
        let kp = self.base.kp * m;
        let ki = self.base.ki * m;
        let raw = self.prev_u - kp * e + (kp - ki * self.base.dt) * self.prev_e;
        let u = raw.clamp(self.min, self.max);
        self.prev_u = u;
        self.prev_e = e;
        self.steps += 1;
        u
    }

    /// Current (most recently returned) output.
    pub fn output(&self) -> f64 {
        self.prev_u
    }

    /// Number of updates performed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The designed (nominal) gains.
    pub fn base_gains(&self) -> PiGains {
        self.base
    }

    /// The gains currently in effect (`base · m`).
    pub fn effective_gains(&self) -> PiGains {
        PiGains {
            kp: self.base.kp * self.m,
            ki: self.base.ki * self.m,
            dt: self.base.dt,
        }
    }

    /// The current gain multiplier.
    pub fn multiplier(&self) -> f64 {
        self.m
    }

    /// The (min, max) multiplier observed since construction/reset.
    pub fn multiplier_range(&self) -> (f64, f64) {
        (self.m_lo, self.m_hi)
    }

    /// Steps on which the multiplier changed.
    pub fn adaptations(&self) -> u64 {
        self.adaptations
    }

    /// Resets to the initial full-output, nominal-gain state.
    pub fn reset(&mut self) {
        self.schedule.reset();
        self.prev_u = self.max;
        self.prev_e = 0.0;
        self.steps = 0;
        self.m = 1.0;
        self.m_lo = 1.0;
        self.m_hi = 1.0;
        self.adaptations = 0;
    }
}

/// The engine-facing DVFS controller: the fixed-gain paper controller
/// or its gain-scheduled extension, chosen by [`GainScheduleConfig`].
/// The `Fixed` arm *is* a [`ClippedPi`] — same type, same arithmetic —
/// so a default-schedule run cannot diverge from pre-adaptive builds.
#[derive(Debug)]
pub enum DvfsController {
    /// The paper's fixed-gain clipped PI controller.
    Fixed(ClippedPi),
    /// The gain-scheduled controller.
    Adaptive(AdaptivePi),
}

impl DvfsController {
    /// Builds the controller a configuration denotes.
    pub fn from_config(gains: PiGains, schedule: GainScheduleConfig, min: f64, max: f64) -> Self {
        match schedule {
            GainScheduleConfig::Fixed => DvfsController::Fixed(ClippedPi::new(gains, min, max)),
            _ => DvfsController::Adaptive(AdaptivePi::new(gains, schedule, min, max)),
        }
    }

    /// Advances one control period and returns the new clipped output.
    pub fn update(&mut self, e: f64) -> f64 {
        match self {
            DvfsController::Fixed(pi) => pi.update(e),
            DvfsController::Adaptive(pi) => pi.update(e),
        }
    }

    /// Current (most recently returned) output.
    pub fn output(&self) -> f64 {
        match self {
            DvfsController::Fixed(pi) => pi.output(),
            DvfsController::Adaptive(pi) => pi.output(),
        }
    }

    /// The adaptive state, when scheduled (`None` on the fixed path).
    pub fn adaptive(&self) -> Option<&AdaptivePi> {
        match self {
            DvfsController::Fixed(_) => None,
            DvfsController::Adaptive(pi) => Some(pi),
        }
    }

    /// Resets to the initial state.
    pub fn reset(&mut self) {
        match self {
            DvfsController::Fixed(pi) => pi.reset(),
            DvfsController::Adaptive(pi) => pi.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_adaptive(config: GainScheduleConfig) -> AdaptivePi {
        AdaptivePi::new(PiGains::paper_defaults(), config, 0.2, 1.0)
    }

    #[test]
    fn disabled_rao_is_bit_identical_to_fixed_pi() {
        let mut fixed = ClippedPi::paper_thermal_dvfs();
        let mut adaptive = paper_adaptive(GainScheduleConfig::Rao {
            alpha: 0.0,
            tau_s: 2e-3,
        });
        for i in 0..5000 {
            let e = ((i as f64) * 0.13).sin() * 8.0;
            let a = fixed.update(e);
            let b = adaptive.update(e);
            assert_eq!(a.to_bits(), b.to_bits(), "step {i}: {a} vs {b}");
        }
        assert_eq!(adaptive.multiplier_range(), (1.0, 1.0));
        assert_eq!(adaptive.adaptations(), 0);
    }

    #[test]
    fn disabled_selftune_is_bit_identical_to_fixed_pi() {
        let mut fixed = ClippedPi::paper_thermal_dvfs();
        let mut adaptive = paper_adaptive(GainScheduleConfig::SelfTuning {
            rate: 0.0,
            window_s: 1e-3,
        });
        for i in 0..5000 {
            let e = ((i as f64) * 0.31).cos() * 6.0 - 1.0;
            assert_eq!(fixed.update(e).to_bits(), adaptive.update(e).to_bits());
        }
        assert_eq!(adaptive.adaptations(), 0);
    }

    #[test]
    fn fixed_schedule_controller_matches_too() {
        let mut fixed = ClippedPi::paper_thermal_dvfs();
        let mut adaptive = paper_adaptive(GainScheduleConfig::Fixed);
        for i in 0..1000 {
            let e = (i % 17) as f64 - 8.0;
            assert_eq!(fixed.update(e).to_bits(), adaptive.update(e).to_bits());
        }
    }

    #[test]
    fn rao_raises_gain_when_hot_and_heating() {
        let mut pi = paper_adaptive(GainScheduleConfig::rao_default());
        for _ in 0..2000 {
            pi.update(4.0);
        }
        assert!(pi.multiplier() > 1.2, "m = {}", pi.multiplier());
        let (lo, hi) = pi.multiplier_range();
        assert!((MULT_MIN..=MULT_MAX).contains(&lo));
        assert!((MULT_MIN..=MULT_MAX).contains(&hi));
        assert!(pi.adaptations() > 0);
    }

    #[test]
    fn rao_lowers_gain_when_cool() {
        let mut pi = paper_adaptive(GainScheduleConfig::rao_default());
        for _ in 0..2000 {
            pi.update(-6.0);
        }
        assert!(pi.multiplier() < 1.0);
        assert!(pi.multiplier() >= MULT_MIN);
    }

    #[test]
    fn rao_multiplier_slew_is_limited() {
        let mut pi = paper_adaptive(GainScheduleConfig::rao_default());
        let mut prev = 1.0;
        for i in 0..500 {
            // Square-wave error: worst case for the slew limiter.
            let e = if (i / 25) % 2 == 0 { 6.0 } else { -6.0 };
            pi.update(e);
            let m = pi.multiplier();
            assert!(
                (m - prev).abs() <= RAO_SLEW_PER_STEP + 1e-15,
                "step {i}: slew {} exceeds limit",
                (m - prev).abs()
            );
            prev = m;
        }
    }

    #[test]
    fn selftune_raises_gain_on_overshoot_and_relaxes_when_settled() {
        let mut pi = paper_adaptive(GainScheduleConfig::SelfTuning {
            rate: 0.2,
            window_s: 1e-3,
        });
        // Sustained overshoot: multiplier ratchets up.
        for _ in 0..2000 {
            pi.update(1.5);
        }
        let raised = pi.multiplier();
        assert!(raised > 1.0, "m = {raised}");
        // Then a long settled stretch: multiplier relaxes toward 1.
        for _ in 0..20_000 {
            pi.update(0.0);
        }
        assert!(pi.multiplier() < raised);
        assert!((pi.multiplier() - 1.0).abs() < 0.05);
    }

    #[test]
    fn output_always_clipped_and_windup_free() {
        let mut pi = paper_adaptive(GainScheduleConfig::rao_default());
        for _ in 0..50_000 {
            let u = pi.update(12.0);
            assert!((0.2..=1.0).contains(&u));
        }
        assert_eq!(pi.output(), 0.2);
        // Error removed: recovery is immediate-ish — no hidden integral.
        let mut steps = 0;
        loop {
            if pi.update(-5.0) >= 1.0 || steps > 500 {
                break;
            }
            steps += 1;
        }
        assert!(steps < 100, "took {steps} steps to recover");
    }

    #[test]
    fn effective_gains_track_the_multiplier() {
        let mut pi = paper_adaptive(GainScheduleConfig::rao_default());
        for _ in 0..300 {
            pi.update(5.0);
        }
        let g = pi.effective_gains();
        let base = pi.base_gains();
        assert_eq!(g.kp.to_bits(), (base.kp * pi.multiplier()).to_bits());
        assert_eq!(g.ki.to_bits(), (base.ki * pi.multiplier()).to_bits());
    }

    #[test]
    fn reset_restores_nominal_state() {
        let mut pi = paper_adaptive(GainScheduleConfig::rao_default());
        for _ in 0..1000 {
            pi.update(5.0);
        }
        pi.reset();
        assert_eq!(pi.output(), 1.0);
        assert_eq!(pi.multiplier(), 1.0);
        assert_eq!(pi.multiplier_range(), (1.0, 1.0));
        assert_eq!(pi.adaptations(), 0);
        assert_eq!(pi.steps(), 0);
    }

    #[test]
    fn controller_enum_routes_fixed_through_clipped_pi() {
        let gains = PiGains::paper_defaults();
        let c = DvfsController::from_config(gains, GainScheduleConfig::Fixed, 0.2, 1.0);
        assert!(matches!(c, DvfsController::Fixed(_)));
        assert!(c.adaptive().is_none());
        let c = DvfsController::from_config(gains, GainScheduleConfig::rao_default(), 0.2, 1.0);
        assert!(c.adaptive().is_some());
    }

    #[test]
    fn selftune_window_floor_applies() {
        let s = SelfTuneSchedule::new(0.1, 1e-9, 1e-3);
        assert_eq!(s.window_steps(), MIN_WINDOW_STEPS);
    }

    #[test]
    fn config_wire_names_are_stable() {
        assert_eq!(GainScheduleConfig::Fixed.wire_name(), "fixed");
        assert_eq!(GainScheduleConfig::rao_default().wire_name(), "rao");
        assert_eq!(
            GainScheduleConfig::selftune_default().wire_name(),
            "selftune"
        );
        assert!(GainScheduleConfig::default().is_fixed());
    }

    #[test]
    #[should_panic(expected = "rao alpha")]
    fn invalid_alpha_rejected() {
        GainScheduleConfig::Rao {
            alpha: -1.0,
            tau_s: 1e-3,
        }
        .validate()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "selftune rate")]
    fn invalid_rate_rejected() {
        GainScheduleConfig::SelfTuning {
            rate: 1.0,
            window_s: 1e-3,
        }
        .validate()
        .unwrap();
    }
}

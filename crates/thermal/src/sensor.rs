//! On-chip thermal sensor modeling.
//!
//! Every DTM policy in the study reads temperatures through thermal
//! sensors placed at the two register files of each core. Real sensors
//! add noise and report quantized values (the paper's real-system
//! measurements were rounded to 1 °C by the ACPI interface); this module
//! models both so policies can be stress-tested against imperfect inputs.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Sensor non-idealities applied to a true block temperature.
///
/// The model is applied in a fixed order — offset, then noise, then
/// quantization — so the calibration `offset` is itself subject to
/// rounding, exactly as a miscalibrated diode behind an ACPI register
/// would be.
///
/// # Determinism
///
/// [`SensorSpec::read`] is a pure function of `(spec, true_temp)` and
/// the state of the caller's `rng`: every random draw comes from that
/// generator and nothing else (no global RNG, no time). Two identically
/// seeded generators therefore yield bit-identical reading sequences
/// across runs and platforms, which is what lets the sweep harness
/// content-address noisy-sensor cells. A zero-`noise_std` spec draws
/// nothing, so it does not advance the generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorSpec {
    /// Standard deviation of additive Gaussian noise (°C).
    pub noise_std: f64,
    /// Quantization step (°C); 0 disables quantization.
    pub quantization: f64,
    /// Constant calibration offset (°C).
    pub offset: f64,
}

impl SensorSpec {
    /// An ideal sensor: no noise, no quantization, no offset.
    pub fn ideal() -> Self {
        SensorSpec {
            noise_std: 0.0,
            quantization: 0.0,
            offset: 0.0,
        }
    }

    /// A realistic on-die diode: ±0.5 °C 1σ noise, 0.25 °C quantization.
    pub fn realistic() -> Self {
        SensorSpec {
            noise_std: 0.5,
            quantization: 0.25,
            offset: 0.0,
        }
    }

    /// Applies the sensor model to a true temperature, drawing noise from
    /// `rng`.
    pub fn read<R: Rng + ?Sized>(&self, true_temp: f64, rng: &mut R) -> f64 {
        let mut t = true_temp + self.offset;
        if self.noise_std > 0.0 {
            t += gaussian(rng) * self.noise_std;
        }
        if self.quantization > 0.0 {
            t = (t / self.quantization).round() * self.quantization;
        }
        t
    }
}

impl Default for SensorSpec {
    fn default() -> Self {
        SensorSpec::ideal()
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// A bank of sensors attached to specific floorplan blocks.
///
/// # Examples
///
/// ```
/// use dtm_thermal::{SensorBank, SensorSpec};
/// use rand::SeedableRng;
///
/// let mut bank = SensorBank::new(vec![3, 7], SensorSpec::ideal(), 42);
/// let temps = vec![50.0; 10];
/// let mut readings = Vec::new();
/// bank.read_into(|b| temps[b], &mut readings);
/// assert_eq!(readings, vec![50.0, 50.0]);
/// ```
#[derive(Debug, Clone)]
pub struct SensorBank {
    blocks: Vec<usize>,
    spec: SensorSpec,
    rng: rand::rngs::StdRng,
}

impl SensorBank {
    /// Creates a bank reading the given block indices with a shared spec
    /// and deterministic noise seed.
    pub fn new(blocks: Vec<usize>, spec: SensorSpec, seed: u64) -> Self {
        use rand::SeedableRng;
        SensorBank {
            blocks,
            spec,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// The block index each sensor observes.
    pub fn blocks(&self) -> &[usize] {
        &self.blocks
    }

    /// Reads every sensor, in bank order, into `out` (cleared first, so
    /// a caller can reuse it across steps), taking each sensor's true
    /// temperature from `block_temp(block)`. Only the sensor sites are
    /// evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `block_temp` does for a sensor's block index.
    pub fn read_into(&mut self, block_temp: impl Fn(usize) -> f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.blocks
                .iter()
                .map(|&b| self.spec.read(block_temp(b), &mut self.rng)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ideal_sensor_is_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = SensorSpec::ideal();
        for t in [-10.0, 0.0, 84.2, 120.5] {
            assert_eq!(s.read(t, &mut rng), t);
        }
    }

    #[test]
    fn quantization_rounds_to_step() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = SensorSpec {
            noise_std: 0.0,
            quantization: 1.0,
            offset: 0.0,
        };
        assert_eq!(s.read(83.4, &mut rng), 83.0);
        assert_eq!(s.read(83.6, &mut rng), 84.0);
    }

    #[test]
    fn offset_shifts_reading() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = SensorSpec {
            noise_std: 0.0,
            quantization: 0.0,
            offset: 2.5,
        };
        assert_eq!(s.read(80.0, &mut rng), 82.5);
    }

    #[test]
    fn offset_applies_before_quantization() {
        // Regression: the calibration offset must shift the reading
        // *before* rounding, so it can change which step the reading
        // lands on.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = SensorSpec {
            noise_std: 0.0,
            quantization: 1.0,
            offset: 0.3,
        };
        assert_eq!(s.read(83.4, &mut rng), 84.0); // 83.7 rounds up
        let unbiased = SensorSpec { offset: 0.0, ..s };
        assert_eq!(unbiased.read(83.4, &mut rng), 83.0);
    }

    #[test]
    fn reads_are_deterministic_for_identical_seeds() {
        // The full model (offset + noise + quantization) is a pure
        // function of the spec and the caller's RNG state: identically
        // seeded generators reproduce readings bit-for-bit.
        let s = SensorSpec {
            noise_std: 0.7,
            quantization: 0.25,
            offset: -1.5,
        };
        let mut a = rand::rngs::StdRng::seed_from_u64(0xDE7E);
        let mut b = rand::rngs::StdRng::seed_from_u64(0xDE7E);
        for i in 0..256 {
            let t = 50.0 + i as f64 * 0.17;
            assert_eq!(s.read(t, &mut a).to_bits(), s.read(t, &mut b).to_bits());
        }
    }

    #[test]
    fn zero_noise_reads_do_not_advance_the_rng() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let quiet = SensorSpec {
            noise_std: 0.0,
            quantization: 0.5,
            offset: 0.1,
        };
        for _ in 0..32 {
            quiet.read(70.0, &mut rng);
        }
        use rand::Rng;
        let mut fresh = rand::rngs::StdRng::seed_from_u64(3);
        assert_eq!(rng.random::<u64>(), fresh.random::<u64>());
    }

    #[test]
    fn noise_has_expected_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = SensorSpec {
            noise_std: 1.0,
            quantization: 0.0,
            offset: 0.0,
        };
        let n = 20_000;
        let readings: Vec<f64> = (0..n).map(|_| s.read(0.0, &mut rng)).collect();
        let mean = readings.iter().sum::<f64>() / n as f64;
        let var = readings.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn bank_reads_are_deterministic_for_same_seed() {
        let temps = [60.0, 70.0, 80.0];
        let mut a = SensorBank::new(vec![0, 2], SensorSpec::realistic(), 9);
        let mut b = SensorBank::new(vec![0, 2], SensorSpec::realistic(), 9);
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        a.read_into(|i| temps[i], &mut ra);
        b.read_into(|i| temps[i], &mut rb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn bank_tracks_configured_blocks() {
        let mut bank = SensorBank::new(vec![1], SensorSpec::ideal(), 0);
        let temps = [10.0, 55.0, 99.0];
        let mut r = vec![1.0, 2.0];
        bank.read_into(|i| temps[i], &mut r);
        assert_eq!(r, vec![55.0]);
        assert_eq!(bank.blocks(), &[1]);
    }
}

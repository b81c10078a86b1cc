//! Order statistics over samples.

use crate::inputs::Rng;

/// Latency samples a run keeps: a fixed-size uniform sample of all of
/// them (Algorithm R), so the benchmark's own memory does not grow with
/// the number of operations a run completes and `peak_rss_mb` measures
/// the program, not the sample buffer.
#[derive(Debug)]
pub struct Reservoir {
    samples: Vec<f64>,
    seen: u64,
    rng: Rng,
}

/// Samples a [`Reservoir`] keeps: p99 then has over 300 beyond it.
pub const RESERVOIR: usize = 1 << 15;

impl Reservoir {
    pub fn new(seed: u64) -> Self {
        Reservoir {
            samples: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: Rng::new(seed),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < RESERVOIR {
            self.samples.push(x);
        } else {
            let j = (self.rng.next_u64() % self.seen) as usize;
            if j < RESERVOIR {
                self.samples[j] = x;
            }
        }
    }

    /// How many samples were offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank over a copy of `xs`;
/// `NaN` when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_fixed_sample() {
        let mut r = Reservoir::new(1);
        for i in 0..100 {
            r.push(f64::from(i));
        }
        assert_eq!(r.samples().len(), 100);
        for i in 0..(4 * RESERVOIR as u32) {
            r.push(f64::from(i % 1000));
        }
        assert_eq!(r.samples().len(), RESERVOIR);
        assert_eq!(r.seen(), 100 + 4 * RESERVOIR as u64);
        assert!((median(r.samples()) - 500.0).abs() < 20.0);
    }
}

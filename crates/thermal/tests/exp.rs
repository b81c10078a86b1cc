//! The in-crate exponential ([`dtm_thermal::exp`]) against glibc's FMA
//! build of `exp` and against its own pinned output, and
//! `LeakageModel::add_power` (which runs the 512-bit kernel on AVX-512F
//! builds) against the per-element loop over `exp`. The kernel's own
//! lane-by-lane check is a unit test of the `exp` module.

use dtm_thermal::exp::exp;
use dtm_thermal::LeakageModel;

/// Inputs that take glibc's special path, or sit at its edges.
const SPECIAL: [f64; 24] = [
    0.0,
    -0.0,
    8.673617379884035e-19, // 2^-60
    -8.673617379884035e-19,
    5.551115123125783e-17, // 2^-54
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    600.0,
    -600.0,
    800.0,
    -800.0,
    512.0,
    -512.0,
    709.782712893384,
    709.7827128933841,
    -708.3964185322641,
    -708.4,
    -740.0,
    -745.1332191019411,
    -745.2,
    1023.9,
    1024.0,
    -1100.0,
];

/// Deterministic uniform draws in `[lo, hi)` (a 64-bit LCG's top 53
/// bits).
fn uniform(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + (hi - lo) * ((s >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

/// `n + 1` evenly spaced points from `lo` to `hi`.
fn grid(lo: f64, hi: f64, n: usize) -> impl Iterator<Item = f64> {
    (0..=n).map(move |i| lo + (hi - lo) * (i as f64 / n as f64))
}

/// Whether `f64::exp` here is glibc's FMA build: glibc's ifunc picks it
/// on x86-64 CPUs with FMA and AVX2, unless `GLIBC_TUNABLES` masks those
/// capabilities.
fn host_exp_is_glibc_fma() -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    {
        let masked = std::env::var("GLIBC_TUNABLES").is_ok_and(|t| t.contains("hwcaps"));
        !masked && is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    false
}

/// The inputs both checks below run: a dense grid of [−8, 8], draws
/// from the leakage exponent's range [−3, 4), and a grid over the
/// special path's ranges with its edge cases.
fn inputs() -> impl Iterator<Item = f64> {
    grid(-8.0, 8.0, 1 << 22)
        .chain(uniform(22, 1 << 20, -3.0, 4.0))
        .chain(grid(-760.0, 720.0, 1 << 16))
        .chain(SPECIAL)
}

#[test]
fn scalar_exp_matches_glibc_fma_build_bit_for_bit() {
    if !host_exp_is_glibc_fma() {
        eprintln!("skipped: f64::exp here is not glibc's FMA build");
        return;
    }
    let mismatch = inputs()
        .map(|x| (x, exp(x), x.exp()))
        .find(|(_, ours, libm)| ours.to_bits() != libm.to_bits());
    assert_eq!(mismatch, None, "(x, exp, f64::exp)");
}

/// Pins FNV-1a over the result bits on every build, so a target
/// without FMA hardware (where `mul_add` calls libm's `fma`) and a
/// host whose libm is not glibc's FMA build are held to the same bits.
#[test]
fn scalar_exp_output_is_pinned() {
    let digest = inputs()
        .flat_map(|x| exp(x).to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(digest, 0x38ab_f8d6_3883_1e35);
}

#[test]
fn add_power_matches_the_per_element_loop() {
    let (t_ref, beta) = (45.0, std::f64::consts::LN_2 / 40.0);
    for n in 0..=17 {
        let p_ref = uniform(n as u64, n, 0.0, 2.0);
        // From below ambient to past the clamp at t_ref + 150 K, and
        // exactly t_ref (a zero exponent) in every fifth block.
        let mut temps = uniform(100 + n as u64, n, 20.0, 260.0);
        temps.iter_mut().step_by(5).for_each(|t| *t = t_ref);
        let before = uniform(200 + n as u64, n, 0.0, 10.0);
        let m = LeakageModel::new(p_ref.clone(), t_ref, beta);

        let mut got = before.clone();
        m.add_power(&temps, &mut got);
        let power = m.power(&temps);
        for i in 0..n {
            let factor = exp(beta * (temps[i] - t_ref).min(150.0));
            let want = before[i] + p_ref[i] * factor;
            assert_eq!(got[i].to_bits(), want.to_bits(), "n = {n}, block {i}");
            assert_eq!(got[i].to_bits(), (before[i] + power[i]).to_bits());
        }
    }
}

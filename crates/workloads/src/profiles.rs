//! The 22 SPEC CPU2000 benchmark characterizations.
//!
//! Each benchmark is described by a [`StreamProfile`] (and, for the four
//! benchmarks the paper observed oscillating between temperatures, a
//! second "alternate-phase" profile with a switching period). The
//! parameters are calibrated against published characteristics:
//!
//! - `gzip`/`bzip2` are the hottest integer codes (high-IPC, integer-
//!   register-file bound); `sixtrack` is the hottest FP code.
//! - `mcf` is by far the coolest: memory-bound with a pointer-chasing
//!   working set far beyond the L2.
//! - `bzip2`, `ammp`, `facerec`, `fma3d` show multi-degree temperature
//!   oscillation (Table 1b), modeled as two-phase behaviour.

use dtm_microarch::StreamProfile;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// SPEC suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// SPECint 2000.
    Int,
    /// SPECfp 2000.
    Fp,
}

impl Suite {
    /// One-letter tag used in workload mix labels ("IIFF" etc.).
    pub fn tag(self) -> char {
        match self {
            Suite::Int => 'I',
            Suite::Fp => 'F',
        }
    }
}

/// Two-phase behaviour for benchmarks without a steady temperature.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// The alternate phase's stream profile.
    pub alt: StreamProfile,
    /// Phase period in trace samples (27.78 µs each).
    pub period_samples: u32,
    /// Fraction of the period spent in the *base* profile.
    pub base_duty: f64,
}

/// A benchmark: name, suite, and stream characterization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Benchmark {
    /// SPEC benchmark name (lowercase, e.g. `gzip`).
    pub name: String,
    /// Suite membership.
    pub suite: Suite,
    /// Primary stream profile.
    pub profile: StreamProfile,
    /// Optional alternate phase.
    pub phase: Option<PhaseSpec>,
}

impl Benchmark {
    /// Deterministic per-benchmark RNG seed (stable across runs).
    pub fn seed(&self) -> u64 {
        self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

fn int_base() -> StreamProfile {
    StreamProfile {
        frac_int_mul: 0.01,
        frac_fp: 0.0,
        frac_fp_div: 0.0,
        frac_load: 0.25,
        frac_store: 0.10,
        frac_branch: 0.15,
        mean_dep_distance: 6.0,
        branch_predictability: 0.92,
        branch_taken_bias: 0.6,
        data_working_set: 256 * KB,
        data_locality: 0.9,
        code_working_set: 32 * KB,
    }
}

fn fp_base() -> StreamProfile {
    StreamProfile {
        frac_int_mul: 0.01,
        frac_fp: 0.45,
        frac_fp_div: 0.01,
        frac_load: 0.22,
        frac_store: 0.08,
        frac_branch: 0.05,
        mean_dep_distance: 10.0,
        branch_predictability: 0.98,
        branch_taken_bias: 0.8,
        data_working_set: 2 * MB,
        data_locality: 0.85,
        code_working_set: 16 * KB,
    }
}

macro_rules! with {
    ($base:expr, { $($field:ident : $value:expr),* $(,)? }) => {{
        let mut p = $base;
        $(p.$field = $value;)*
        p
    }};
}

/// The full 22-benchmark catalog (11 SPECint + 11 SPECfp).
pub fn all_benchmarks() -> Vec<Benchmark> {
    catalog().to_vec()
}

/// The catalog, built on first use and shared by every lookup.
fn catalog() -> &'static [Benchmark] {
    static CATALOG: OnceLock<Vec<Benchmark>> = OnceLock::new();
    CATALOG.get_or_init(build_catalog)
}

fn build_catalog() -> Vec<Benchmark> {
    let mut v = Vec::new();
    let mut int = |name: &str, profile: StreamProfile, phase: Option<PhaseSpec>| {
        v.push(Benchmark {
            name: name.to_string(),
            suite: Suite::Int,
            profile,
            phase,
        })
    };

    // ---- SPECint ----
    int(
        "gzip",
        with!(int_base(), {
            mean_dep_distance: 9.0,
            data_working_set: 192 * KB,
            data_locality: 0.93,
            branch_predictability: 0.94,
        }),
        None,
    );
    int(
        "vpr",
        with!(int_base(), {
            mean_dep_distance: 6.5,
            data_working_set: MB,
            branch_predictability: 0.88,
        }),
        None,
    );
    int(
        "gcc",
        with!(int_base(), {
            mean_dep_distance: 6.5,
            data_working_set: 768 * KB,
            data_locality: 0.9,
            code_working_set: 128 * KB,
            branch_predictability: 0.9,
        }),
        None,
    );
    int(
        "mcf",
        with!(int_base(), {
            frac_load: 0.35,
            frac_branch: 0.12,
            mean_dep_distance: 2.5,
            data_working_set: 64 * MB,
            data_locality: 0.45,
            branch_predictability: 0.9,
        }),
        None,
    );
    int(
        "crafty",
        with!(int_base(), {
            mean_dep_distance: 7.0,
            data_working_set: MB,
            branch_predictability: 0.9,
            frac_branch: 0.18,
        }),
        None,
    );
    int(
        "parser",
        with!(int_base(), {
            mean_dep_distance: 6.0,
            data_working_set: 768 * KB,
            data_locality: 0.9,
            branch_predictability: 0.9,
        }),
        None,
    );
    int(
        "eon",
        with!(int_base(), {
            frac_fp: 0.08,
            mean_dep_distance: 7.5,
            data_working_set: 256 * KB,
            branch_predictability: 0.95,
        }),
        None,
    );
    int(
        "perlbmk",
        with!(int_base(), {
            mean_dep_distance: 6.5,
            data_working_set: 512 * KB,
            code_working_set: 128 * KB,
            branch_predictability: 0.93,
        }),
        None,
    );
    int(
        "gap",
        with!(int_base(), {
            mean_dep_distance: 6.5,
            data_working_set: MB,
            branch_predictability: 0.93,
        }),
        None,
    );
    // bzip2 oscillates (Table 1b: 67–72 °C): a hot gzip-like phase and a
    // cooler, more memory-bound phase.
    let bzip2_hot = with!(int_base(), {
        mean_dep_distance: 9.5,
        data_working_set: 256 * KB,
        data_locality: 0.93,
        branch_predictability: 0.94,
    });
    let bzip2_cool = with!(int_base(), {
        mean_dep_distance: 4.5,
        data_working_set: MB,
        data_locality: 0.87,
    });
    int(
        "bzip2",
        bzip2_hot,
        Some(PhaseSpec {
            alt: bzip2_cool,
            period_samples: 360, // 10 ms phase cycle
            base_duty: 0.55,
        }),
    );
    int(
        "twolf",
        with!(int_base(), {
            mean_dep_distance: 5.0,
            data_working_set: MB,
            branch_predictability: 0.87,
        }),
        None,
    );

    let mut fp = |name: &str, profile: StreamProfile, phase: Option<PhaseSpec>| {
        v.push(Benchmark {
            name: name.to_string(),
            suite: Suite::Fp,
            profile,
            phase,
        })
    };

    // ---- SPECfp ----
    fp(
        "swim",
        with!(fp_base(), {
            data_working_set: MB,
            data_locality: 0.8,
            mean_dep_distance: 9.0,
        }),
        None,
    );
    fp(
        "mgrid",
        with!(fp_base(), {
            data_working_set: MB,
            data_locality: 0.85,
            mean_dep_distance: 10.0,
        }),
        None,
    );
    fp(
        "applu",
        with!(fp_base(), {
            data_working_set: MB,
            data_locality: 0.84,
            mean_dep_distance: 9.0,
        }),
        None,
    );
    fp(
        "mesa",
        with!(fp_base(), {
            frac_fp: 0.3,
            frac_branch: 0.1,
            data_working_set: 512 * KB,
            mean_dep_distance: 8.0,
        }),
        None,
    );
    fp(
        "art",
        with!(fp_base(), {
            frac_fp: 0.35,
            data_working_set: MB,
            data_locality: 0.8,
            mean_dep_distance: 5.0,
        }),
        None,
    );
    fp(
        "equake",
        with!(fp_base(), {
            data_working_set: 1536 * KB,
            data_locality: 0.85,
            mean_dep_distance: 7.0,
        }),
        None,
    );
    // facerec oscillates (65–71 °C).
    let facerec_hot = with!(fp_base(), {
        frac_fp: 0.5,
        data_working_set: 512 * KB,
        mean_dep_distance: 12.0,
    });
    let facerec_cool = with!(fp_base(), {
        data_working_set: 1536 * KB,
        data_locality: 0.84,
        mean_dep_distance: 7.0,
    });
    fp(
        "facerec",
        facerec_hot,
        Some(PhaseSpec {
            alt: facerec_cool,
            period_samples: 360,
            base_duty: 0.5,
        }),
    );
    // ammp oscillates and is relatively cool (58–64 °C).
    let ammp_warm = with!(fp_base(), {
        frac_fp: 0.38,
        data_working_set: 768 * KB,
        data_locality: 0.87,
        mean_dep_distance: 7.0,
    });
    let ammp_cool = with!(fp_base(), {
        frac_fp: 0.3,
        data_working_set: 6 * MB,
        data_locality: 0.7,
        mean_dep_distance: 4.0,
    });
    fp(
        "ammp",
        ammp_warm,
        Some(PhaseSpec {
            alt: ammp_cool,
            period_samples: 360,
            base_duty: 0.45,
        }),
    );
    fp(
        "lucas",
        with!(fp_base(), {
            frac_fp: 0.5,
            data_working_set: MB,
            data_locality: 0.86,
            mean_dep_distance: 10.0,
        }),
        None,
    );
    // fma3d oscillates (61–67 °C).
    let fma3d_warm = with!(fp_base(), {
        frac_fp: 0.42,
        data_working_set: MB,
        mean_dep_distance: 9.0,
    });
    let fma3d_cool = with!(fp_base(), {
        frac_fp: 0.3,
        data_working_set: 1536 * KB,
        data_locality: 0.82,
        mean_dep_distance: 5.0,
    });
    fp(
        "fma3d",
        fma3d_warm,
        Some(PhaseSpec {
            alt: fma3d_cool,
            period_samples: 360,
            base_duty: 0.5,
        }),
    );
    // sixtrack: the hottest FP benchmark — cache-resident, high IPC.
    fp(
        "sixtrack",
        with!(fp_base(), {
            frac_fp: 0.52,
            data_working_set: 384 * KB,
            data_locality: 0.92,
            mean_dep_distance: 13.0,
        }),
        None,
    );

    v
}

/// The catalog entry named `name`, if there is one.
pub(crate) fn lookup(name: &str) -> Option<&'static Benchmark> {
    catalog().iter().find(|b| b.name == name)
}

/// Looks up one benchmark by name.
///
/// # Panics
///
/// Panics if the name is not in the catalog.
pub fn benchmark(name: &str) -> Benchmark {
    lookup(name)
        .cloned()
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_eleven_of_each_suite() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 22);
        let ints = all.iter().filter(|b| b.suite == Suite::Int).count();
        let fps = all.iter().filter(|b| b.suite == Suite::Fp).count();
        assert_eq!(ints, 11);
        assert_eq!(fps, 11);
    }

    #[test]
    fn names_are_unique() {
        let all = all_benchmarks();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn all_profiles_validate() {
        for b in all_benchmarks() {
            b.profile.validate();
            if let Some(ph) = &b.phase {
                ph.alt.validate();
                assert!(ph.period_samples > 0);
                assert!((0.0..=1.0).contains(&ph.base_duty));
            }
        }
    }

    #[test]
    fn exactly_the_paper_benchmarks_oscillate() {
        let phased: Vec<String> = all_benchmarks()
            .into_iter()
            .filter(|b| b.phase.is_some())
            .map(|b| b.name)
            .collect();
        assert_eq!(phased, vec!["bzip2", "facerec", "ammp", "fma3d"]);
    }

    #[test]
    fn mcf_is_memory_bound() {
        let mcf = benchmark("mcf");
        assert!(mcf.profile.data_working_set >= 32 * MB);
        assert!(mcf.profile.data_locality < 0.5);
    }

    #[test]
    fn int_benchmarks_avoid_fp_instructions() {
        for b in all_benchmarks().iter().filter(|b| b.suite == Suite::Int) {
            assert!(
                b.profile.frac_fp <= 0.1,
                "{} has frac_fp = {}",
                b.name,
                b.profile.frac_fp
            );
        }
    }

    #[test]
    fn fp_benchmarks_use_fp_heavily() {
        for b in all_benchmarks().iter().filter(|b| b.suite == Suite::Fp) {
            assert!(
                b.profile.frac_fp >= 0.25,
                "{} has frac_fp = {}",
                b.name,
                b.profile.frac_fp
            );
        }
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let g1 = benchmark("gzip").seed();
        let g2 = benchmark("gzip").seed();
        assert_eq!(g1, g2);
        assert_ne!(g1, benchmark("mcf").seed());
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_name_panics() {
        benchmark("doom3");
    }

    #[test]
    fn suite_tags() {
        assert_eq!(Suite::Int.tag(), 'I');
        assert_eq!(Suite::Fp.tag(), 'F');
    }
}

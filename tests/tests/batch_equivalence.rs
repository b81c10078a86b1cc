//! Differential suite for the multi-lane lockstep backend (DESIGN.md
//! §11).
//!
//! The batched sweep path is sold on exactly one promise: **bit
//! identity**. Grouping cache-miss cells into lane batches and stepping
//! their thermal phases through one `matmul_strided` call may change
//! wall-clock, scheduling, and nothing else — every `RunResult` byte,
//! every cache key, and every cached artifact must match the scalar
//! path. This suite pins that promise:
//!
//! 1. whole-`RunResult` byte identity between `--lanes 1` and every
//!    batched width (2, 3, 8 — including ragged final batches), over a
//!    sweep mixing policies, fault scenarios, solver backends, and
//!    durations (lanes retire mid-batch) in the same lane group, and
//!    over the grid shapes of the experiment binaries (asymmetric
//!    chips, migration intervals, an unconstrained limit, a package
//!    without the fast mode, 2- and 8-core chips);
//! 2. solver-level lockstep equality for the lumped model at every
//!    lane count around the [`LANE_BLOCK`] boundary;
//! 3. byte-identical `results/cache/` contents between lane widths.

use dtm_core::{
    DtmConfig, FaultConfig, FaultScenario, MigrationKind, PolicySpec, Scope, SimConfig,
    SolverBackend, ThrottleKind,
};
use dtm_floorplan::Floorplan;
use dtm_harness::codec::result_to_json;
use dtm_harness::{ConfigVariant, ResultCache, SweepRunner, SweepSpec};
use dtm_thermal::linalg::LANE_BLOCK;
use dtm_thermal::{
    step_lumped_batch, BatchWorkspace, PackageConfig, ThermalModel, TransientSolver,
};
use dtm_workloads::{TraceGenConfig, TraceLibrary, Workload};
use std::path::PathBuf;

fn fast_lib() -> TraceLibrary {
    TraceLibrary::new(TraceGenConfig::fast_test())
}

/// A sweep that exercises everything one lane group can mix: two
/// workloads, two policy families, a fault scenario, a shorter-duration
/// variant (lanes retire mid-batch), and a backward-Euler variant that
/// must fall out of the lane group entirely.
fn mixed_spec() -> SweepSpec {
    let base = SimConfig {
        duration: 0.03,
        ..SimConfig::fast_test()
    };
    let short = SimConfig {
        duration: 0.015,
        ..base.clone()
    };
    let euler = SimConfig {
        thermal_solver: SolverBackend::BackwardEuler,
        ..base.clone()
    };
    let dtm = DtmConfig::default();
    SweepSpec::new(vec![
        Workload::new("wa", ["gzip", "mcf", "gzip", "mcf"]),
        Workload::new("wb", ["mesa", "eon", "mesa", "eon"]),
    ])
    .variant(ConfigVariant::new("base", base.clone(), dtm))
    .add_variant(ConfigVariant::new("faulty", base.clone(), dtm).with_faults(
        FaultConfig::unprotected(FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, 0.005)),
    ))
    .add_variant(ConfigVariant::new("short", short, dtm))
    .add_variant(ConfigVariant::new("euler", euler, dtm))
    .policies([
        PolicySpec::best(),
        PolicySpec::new(ThrottleKind::StopGo, Scope::Global, MigrationKind::None),
    ])
}

/// The configuration axes the experiment binaries sweep, at test scale:
/// a homogeneous and an asymmetric (`core_max_scale`) chip, two
/// migration intervals and an unconstrained `DtmConfig`, all in one
/// lane group, plus a package without the sub-block fast mode, which
/// forms a lane group of its own.
fn experiment_axes_spec() -> SweepSpec {
    let base = SimConfig {
        duration: 0.03,
        ..SimConfig::fast_test()
    };
    let asymmetric = SimConfig {
        core_max_scale: vec![1.0, 1.0, 0.7, 0.7],
        ..base.clone()
    };
    let no_fast_mode = SimConfig {
        package: PackageConfig {
            local_constriction: 0.0,
            ..PackageConfig::default()
        },
        ..base.clone()
    };
    let interval = |ms: f64| DtmConfig {
        migration_interval: ms * 1e-3,
        ..DtmConfig::default()
    };
    let dtm = DtmConfig::default();
    SweepSpec::new(vec![Workload::new("wa", ["gzip", "mcf", "gzip", "mcf"])])
        .variants([
            ConfigVariant::new("homogeneous", base.clone(), dtm),
            ConfigVariant::new("asymmetric", asymmetric, dtm),
            ConfigVariant::new("interval=2ms", base.clone(), interval(2.0)),
            ConfigVariant::new("interval=5ms", base.clone(), interval(5.0)),
            ConfigVariant::new("unconstrained", base, DtmConfig::unconstrained()),
            ConfigVariant::new("no-fast-mode", no_fast_mode, dtm),
        ])
        .policies([
            PolicySpec::best(),
            PolicySpec::new(
                ThrottleKind::StopGo,
                Scope::Distributed,
                MigrationKind::CounterBased,
            ),
        ])
}

/// A one-workload grid on a `cores`-core chip under global and
/// distributed DVFS: one core count of the core-scaling experiment.
fn core_count_spec(cores: usize) -> SweepSpec {
    let names = [
        "gzip", "ammp", "swim", "equake", "art", "mgrid", "applu", "lucas",
    ];
    let sim = SimConfig {
        cores,
        duration: 0.03,
        ..SimConfig::fast_test()
    };
    SweepSpec::new(vec![Workload::from_names(
        format!("{cores}-core"),
        &names[..cores],
    )])
    .variant(ConfigVariant::new("base", sim, DtmConfig::default()))
    .policies(
        [Scope::Global, Scope::Distributed]
            .map(|s| PolicySpec::new(ThrottleKind::Dvfs, s, MigrationKind::None)),
    )
}

// ---------------------------------------------------------------------
// 1. Whole-RunResult byte identity across lane widths.
// ---------------------------------------------------------------------

#[test]
fn every_lane_width_replays_the_scalar_sweep_byte_for_byte() {
    // Widths 2, 3 and 8 pack each lane group into full and ragged
    // batches (the mixed spec's 12 groupable cells fill one width-8
    // batch plus a 4-lane one); its 4 backward-Euler cells run as
    // scalar singletons at every width. All of them must reproduce the
    // scalar bytes.
    for spec in [
        mixed_spec(),
        experiment_axes_spec(),
        core_count_spec(2),
        core_count_spec(8),
    ] {
        let cells = spec.cells().len();
        let scalar = SweepRunner::bare(fast_lib())
            .with_workers(2)
            .with_lanes(1)
            .run(spec.clone())
            .expect("scalar sweep");
        assert_eq!(scalar.executed(), cells);
        for lanes in [2usize, 3, 8] {
            let batched = SweepRunner::bare(fast_lib())
                .with_workers(2)
                .with_lanes(lanes)
                .run(spec.clone())
                .expect("batched sweep");
            assert_eq!(batched.executed(), cells, "lanes={lanes}");
            for (a, b) in scalar.outcomes().iter().zip(batched.outcomes()) {
                assert_eq!(a.key, b.key, "lanes={lanes}: cache key changed");
                assert_eq!(
                    result_to_json(&a.result).emit(),
                    result_to_json(&b.result).emit(),
                    "lanes={lanes}: result bytes diverged on key {:?}",
                    a.key
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Solver-level lockstep equality around the LANE_BLOCK boundary.
// ---------------------------------------------------------------------

const DT: f64 = 100_000.0 / 3.6e9;

/// Deterministic per-lane, per-step power wiggle on top of a base load.
fn lane_power(n: usize, lane: usize, step: usize) -> Vec<f64> {
    (0..n)
        .map(|b| 0.4 + 0.05 * ((lane + 1) as f64) + 0.01 * (((step + b) % 7) as f64))
        .collect()
}

#[test]
fn lumped_lockstep_matches_scalar_at_every_lane_count() {
    let fp = Floorplan::ppc_cmp(4);
    let model = ThermalModel::new(&fp, &PackageConfig::default()).unwrap();
    let n = model.n_blocks();

    for lanes in [1usize, 2, 3, 5, LANE_BLOCK, LANE_BLOCK + 3] {
        let mk = |lane: usize| {
            let mut s = TransientSolver::new(model.clone(), 7e-6);
            s.init_steady(&lane_power(n, lane, 0)).unwrap();
            s.prewarm(DT).unwrap();
            s
        };
        let mut scalar: Vec<TransientSolver> = (0..lanes).map(mk).collect();
        let mut batched: Vec<TransientSolver> = (0..lanes).map(mk).collect();
        let mut ws = BatchWorkspace::new();

        for step in 0..40 {
            let powers: Vec<Vec<f64>> = (0..lanes).map(|l| lane_power(n, l, step)).collect();
            for (s, p) in scalar.iter_mut().zip(&powers) {
                s.step(p, DT).unwrap();
            }
            let took_batch = {
                let mut lane_refs: Vec<(&mut TransientSolver, &[f64])> = batched
                    .iter_mut()
                    .zip(&powers)
                    .map(|(s, p)| (s, p.as_slice()))
                    .collect();
                step_lumped_batch(&mut lane_refs, DT, &mut ws).unwrap()
            };
            assert_eq!(
                took_batch,
                lanes >= 2,
                "lanes={lanes}: shared propagators must batch (and a single lane must not)"
            );
            if !took_batch {
                // The scalar fallback is the caller's job, exactly as
                // the lockstep driver does it.
                for (s, p) in batched.iter_mut().zip(&powers) {
                    s.step(p, DT).unwrap();
                }
            }
            for (l, (a, b)) in scalar.iter().zip(&batched).enumerate() {
                for (i, (x, y)) in a.block_temps().iter().zip(b.block_temps()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "lanes={lanes} lane={l} step={step} block={i}: {x} != {y}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. Cache artifacts are byte-identical between lane widths.
// ---------------------------------------------------------------------

#[test]
fn lane_widths_write_byte_identical_cache_artifacts() {
    let spec = mixed_spec();
    let base = std::env::temp_dir().join(format!("dtm-batch-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dirs = [base.join("lanes1"), base.join("lanes8")];
    for (dir, lanes) in dirs.iter().zip([1usize, 8]) {
        SweepRunner::bare(fast_lib())
            .with_workers(2)
            .with_lanes(lanes)
            .with_cache(Some(ResultCache::new(dir)))
            .run(spec.clone())
            .expect("cached sweep");
    }
    let read_dir = |d: &PathBuf| -> Vec<(String, Vec<u8>)> {
        let mut entries: Vec<_> = std::fs::read_dir(d)
            .expect("cache dir")
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        entries.sort();
        entries
    };
    let (a, b) = (read_dir(&dirs[0]), read_dir(&dirs[1]));
    assert_eq!(a.len(), 16, "every cell must be cached");
    assert_eq!(a, b, "cache bytes differ between lane widths");
    let _ = std::fs::remove_dir_all(&base);
}

//! Criterion micro-benchmarks for the simulation substrates: the thermal
//! solver, the PI controller, the branch predictor, the cache model, and
//! the out-of-order core model.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dtm_control::ClippedPi;
use dtm_floorplan::Floorplan;
use dtm_microarch::{CoreConfig, CoreSim, SetAssocCache, StreamProfile};
use dtm_thermal::linalg::{affine_matvec, matmul_strided, LaneRow, LANE_BLOCK};
use dtm_thermal::{PackageConfig, SolverBackend, ThermalModel, TransientSolver};
use std::hint::black_box;

fn thermal(c: &mut Criterion) {
    let fp = Floorplan::ppc_cmp(4);
    let model = ThermalModel::new(&fp, &PackageConfig::default()).unwrap();
    let power = vec![0.5; model.n_blocks()];

    c.bench_function("thermal/steady_state_4core", |b| {
        b.iter(|| model.steady_state(black_box(&power)).unwrap())
    });

    // The default exact-propagator backend: one matvec per sample.
    c.bench_function("thermal/transient_step_27us", |b| {
        let mut sim = TransientSolver::new(model.clone(), 7e-6);
        sim.init_steady(&power).unwrap();
        sim.prewarm(27.78e-6).unwrap();
        b.iter(|| sim.step(black_box(&power), 27.78e-6).unwrap())
    });

    // The backward-Euler reference: ~4 LU solves per sample.
    c.bench_function("thermal/transient_step_27us_euler", |b| {
        let mut sim =
            TransientSolver::new(model.clone(), 7e-6).with_backend(SolverBackend::BackwardEuler);
        sim.init_steady(&power).unwrap();
        sim.prewarm(27.78e-6).unwrap();
        b.iter(|| sim.step(black_box(&power), 27.78e-6).unwrap())
    });
}

/// The batched-lockstep kernel pair: a propagator-shaped affine matvec
/// repeated once per lane vs one cache-blocked [`matmul_strided`] call
/// over a full lane block.
fn batched_kernel(c: &mut Criterion) {
    // Propagator shape on the study chip: n rows, n + n_inputs columns.
    let (rows, cols) = (63, 116);
    let fill = |seed: u64, len: usize| -> Vec<f64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    };
    let a = fill(1, rows * cols);
    let bias = fill(2, rows);
    let x = fill(3, LANE_BLOCK * cols);
    let mut y = vec![0.0; LANE_BLOCK * rows];

    c.bench_function("linalg/matvec_x8", |b| {
        b.iter(|| {
            for l in 0..LANE_BLOCK {
                affine_matvec(
                    cols,
                    black_box(&a),
                    &bias,
                    black_box(&x[l * cols..(l + 1) * cols]),
                    &mut y[l * rows..(l + 1) * rows],
                );
            }
        })
    });

    // The same lanes packed into one aligned lane tile, as a batch step
    // gathers them.
    let mut xt = vec![LaneRow::ZERO; cols];
    for (k, row) in xt.iter_mut().enumerate() {
        for (j, v) in row.0.iter_mut().enumerate() {
            *v = x[j * cols + k];
        }
    }
    let mut yt = vec![LaneRow::ZERO; rows];
    c.bench_function("linalg/matmul_strided_8lanes", |b| {
        b.iter(|| {
            matmul_strided(
                rows,
                cols,
                black_box(&a),
                &bias,
                black_box(&xt),
                cols,
                &mut yt,
                rows,
                LANE_BLOCK,
            )
        })
    });
}

fn control(c: &mut Criterion) {
    c.bench_function("control/pi_update", |b| {
        let mut pi = ClippedPi::paper_thermal_dvfs();
        let mut e = 0.0;
        b.iter(|| {
            e = (e + 0.37) % 8.0 - 4.0;
            black_box(pi.update(e))
        })
    });
}

fn microarch(c: &mut Criterion) {
    c.bench_function("microarch/run_sample_x5", |b| {
        b.iter_batched(
            || {
                let mut core = CoreSim::new(CoreConfig::default(), StreamProfile::generic_int(), 1);
                core.run_cycles(100_000);
                core
            },
            |mut core| black_box(core.run_sample(5)),
            BatchSize::LargeInput,
        )
    });

    c.bench_function("microarch/cache_access", |b| {
        let geo = CoreConfig::default().l1d;
        let mut cache = SetAssocCache::new(geo, 1.0);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(0x4df3).wrapping_mul(7) % (1 << 20);
            black_box(cache.access(addr))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = thermal, batched_kernel, control, microarch
}
criterion_main!(benches);

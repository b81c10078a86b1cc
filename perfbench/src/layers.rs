//! Direct calls into the layers a sweep or a request reaches only from
//! inside another call: the thermal kernels, trace generation, and the
//! scalar stepping path. Every traced run samples them the same way.

use crate::env::table8_benchmarks;
use crate::inputs::{self, Rng};
use crate::spans::{Recorder, ROOT};
use crate::{Ctx, Outcome};
use dtm_core::Experiment;
use dtm_floorplan::Floorplan;
use dtm_thermal::{
    step_lumped_batch, BatchWorkspace, PackageConfig, ThermalModel, TransientSolver,
};
use dtm_workloads::{generate_trace, TraceGenConfig, TraceLibrary};
use std::sync::Arc;

/// Lanes of the batched kernel sample (one full lane block).
const LANES: usize = 8;
/// Kernel calls per span (a single call is too short to time alone).
const CALLS_PER_SPAN: usize = 250;
/// Spans per kernel.
const KERNEL_SPANS: usize = 40;
/// Cells the scalar stepping sample runs.
const SCALAR_CELLS: usize = 2;

fn solvers(dt: f64, powers: &[Vec<f64>]) -> Result<Vec<TransientSolver>, String> {
    let fp = Floorplan::ppc_cmp(4);
    let model = ThermalModel::new(&fp, &PackageConfig::default()).map_err(|e| e.to_string())?;
    powers
        .iter()
        .map(|p| {
            let mut s = TransientSolver::new(model.clone(), 7e-6);
            s.init_steady(p).map_err(|e| e.to_string())?;
            s.prewarm(dt).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect()
}

/// The thermal layer: `step_lumped_batch` over 8 lanes of the paper's
/// 4-core floorplan against `TransientSolver::step` on the same lanes.
/// Both sets must end bit-identical.
fn thermal(ctx: &Ctx, rec: &mut Recorder, out: &mut Outcome, dt: f64) -> Result<(), String> {
    let n = Floorplan::ppc_cmp(4).len();
    let mut rng = Rng::new(ctx.seed);
    let powers: Vec<Vec<f64>> = (0..LANES)
        .map(|_| {
            (0..n)
                .map(|_| 0.3 + (rng.next_u64() % 1000) as f64 * 4e-4)
                .collect()
        })
        .collect();
    let mut batched = solvers(dt, &powers)?;
    let mut scalar = solvers(dt, &powers)?;
    let mut ws = BatchWorkspace::new();
    for k in 0..KERNEL_SPANS {
        rec.time("thermal.step_lumped_batch", ROOT, k as u64, || {
            for _ in 0..CALLS_PER_SPAN {
                let mut lanes: Vec<(&mut TransientSolver, &[f64])> = batched
                    .iter_mut()
                    .zip(&powers)
                    .map(|(s, p)| (s, p.as_slice()))
                    .collect();
                match step_lumped_batch(&mut lanes, dt, &mut ws) {
                    Ok(true) => {}
                    Ok(false) => return Err("lanes did not batch".to_string()),
                    Err(e) => return Err(e.to_string()),
                }
            }
            Ok(())
        })?;
        rec.time("thermal.transient_step", ROOT, k as u64, || {
            for _ in 0..CALLS_PER_SPAN {
                for (s, p) in scalar.iter_mut().zip(&powers) {
                    s.step(p, dt).map_err(|e| e.to_string())?;
                }
            }
            Ok::<_, String>(())
        })?;
    }
    let same = batched.iter().zip(&scalar).all(|(a, b)| {
        a.node_temps()
            .iter()
            .map(|t| t.to_bits())
            .eq(b.node_temps().iter().map(|t| t.to_bits()))
    });
    out.attempted += 1;
    out.failed += u64::from(!same);
    let lane_steps = (KERNEL_SPANS * CALLS_PER_SPAN * LANES) as f64;
    let total = |name: &str| rec.durations(name).iter().sum::<f64>();
    out.metric(
        "thermal.batch_ns_per_lane_step",
        total("thermal.step_lumped_batch") / lane_steps,
        "ns",
    );
    out.metric(
        "thermal.scalar_ns_per_step",
        total("thermal.transient_step") / lane_steps,
        "ns",
    );
    Ok(())
}

/// Steps one Table 8 cell takes at sample period `dt`,
/// counted the way the engine advances its clock.
pub fn steps_per_cell(dt: f64) -> u64 {
    let mut t = 0.0;
    let mut n = 0;
    while t < inputs::CELL_DURATION_S {
        t += dt;
        n += 1;
    }
    n
}

/// The layers below the sweep: trace generation of one benchmark
/// (checked against the prepared trace), the thermal kernels, and the
/// scalar stepping path `ThermalTimingSim::run` on seeded Table 8
/// cells.
pub fn sample(ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let lib = Arc::new(TraceLibrary::new(TraceGenConfig::default()).with_disk_cache(&ctx.traces));
    // Generation cost differs by benchmark more than tenfold, so the
    // sample is always the same one.
    let bench = &table8_benchmarks()[0];
    let generated = rec.time("workloads.generate_trace", ROOT, 0, || {
        generate_trace(bench, &TraceGenConfig::default())
    });
    out.attempted += 1;
    out.failed += u64::from(generated != *lib.trace(bench));
    out.metric(
        "workloads.trace_gen_ms",
        rec.durations("workloads.generate_trace")[0] / 1e6,
        "ms",
    );

    let dt = generated.dt();
    thermal(ctx, rec, &mut out, dt)?;

    let exp = Experiment::new_shared(Arc::clone(&lib), inputs::paper_sim(), Default::default());
    let cells = inputs::table8_cells();
    let mut rng = Rng::new(ctx.seed ^ 0x005c_a1a5);
    for k in 0..SCALAR_CELLS {
        let cell = &cells[rng.below(cells.len())];
        let mut sim = exp
            .build(&cell.workload, cell.policy)
            .map_err(|e| format!("build: {e}"))?;
        let result = rec
            .time("core.scalar_run", ROOT, k as u64, || sim.run())
            .map_err(|e| format!("run: {e}"))?;
        out.attempted += 1;
        let ok = ctx
            .pinned
            .matches(&cell.workload.id, &cell.policy.wire_name(), &result);
        out.failed += u64::from(!ok);
    }
    let runs = rec.durations("core.scalar_run");
    out.metric(
        "core.scalar_ns_per_step",
        runs.iter().sum::<f64>() / (runs.len() as u64 * steps_per_cell(dt)) as f64,
        "ns",
    );
    Ok(out)
}

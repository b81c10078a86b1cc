//! The thermal/timing simulator (§3.3): replays per-thread power traces
//! under a DTM policy, closing the loop through the HotSpot-style
//! thermal model with temperature-dependent leakage.
//!
//! Time advances in power-sample steps (27.78 µs). Because DVFS changes
//! the length of a cycle — and each core may run at a different cycle
//! time — progress through each thread's trace is tracked in *absolute
//! time*: a core at frequency scale `s` consumes `s` samples of trace per
//! wall-clock sample and dissipates `s³` of the trace's nominal dynamic
//! power, while a stalled core dissipates only leakage.

use crate::batch::{lockstep, Until};
use crate::config::{DtmConfig, SimConfig};
use crate::init_memo::{self, InitKey};
use crate::metrics::{
    PhaseNs, PhaseProfile, Robustness, RunResult, SteadyTempSummary, ThreadStats,
};
use crate::migration::{
    CounterMigration, MigrationPolicy, NoMigration, OsObservation, SensorMigration, ThreadCounters,
};
use crate::policy::{MigrationKind, PolicySpec, Scope, ThrottleKind};
use crate::telemetry::{Telemetry, TelemetryRecord};
use dtm_control::{DvfsController, PiGains};
use dtm_faults::{FallbackKind, FaultConfig, FaultScenario, FaultState, Watchdog, WatchdogConfig};
use dtm_floorplan::{Floorplan, UnitKind};
use dtm_obs::{Histogram, LocalHistogram, ObsHandle};
use dtm_power::{leakage_reference, PowerTrace, N_CORE_UNITS};
use dtm_thermal::{LeakageModel, SensorBank, ThermalError, ThermalModel, TransientSolver};
use std::sync::Arc;

/// Margin below the DVFS setpoint under which a throttled chip is
/// counted as *falsely* throttled: the true hotspot sits this far below
/// where the controller would want it, so the lost throughput bought no
/// thermal safety.
const FALSE_THROTTLE_MARGIN: f64 = 2.0;

/// The engine's per-step phases, in execution order. Phase timing
/// histograms are registered as `dtm_phase_<name>_ns`.
pub const ENGINE_PHASES: [&str; 9] = [
    "microarch",
    "power",
    "thermal",
    "sensors",
    "watchdog",
    "accounting",
    "control",
    "migration",
    "telemetry",
];

const PH_MICROARCH: usize = 0;
const PH_POWER: usize = 1;
const PH_THERMAL: usize = 2;
const PH_SENSORS: usize = 3;
const PH_WATCHDOG: usize = 4;
const PH_ACCOUNTING: usize = 5;
const PH_CONTROL: usize = 6;
const PH_MIGRATION: usize = 7;
const PH_TELEMETRY: usize = 8;

/// Phase timing is itself sampled: every `TIMED_SAMPLE_STRIDE`-th step
/// reads the clock around each phase (durations go to the phase
/// histograms and, scaled by the stride, to the run's phase totals).
/// A timed lane step reads the clock ten times (about 550 ns on a
/// 2-vCPU KVM guest, where a batched lane step takes 1.1–1.4 µs). Timed
/// every 8th step, `exp_profile --smoke` read a median overhead of 6.6%
/// there, over its 3% budget; every 32nd step, 0.7–2.9%. The ~28 µs
/// steps are statistically alike, so the scaled totals hold.
const TIMED_SAMPLE_STRIDE: u64 = 32;

/// Full span records (ring pushes behind a mutex) are sampled more
/// sparsely still — every `SPAN_SAMPLE_STRIDE`-th step contributes each
/// lane's eight own phase spans plus one `thermal` span for the batch.
/// A multiple of [`TIMED_SAMPLE_STRIDE`], so span steps are always
/// timed steps. A push lands in the next phase's reading, so span steps
/// stay one timed step in four: with every timed step a span step, the
/// post-thermal phases read 30–50 ns more each.
pub(crate) const SPAN_SAMPLE_STRIDE: u64 = 128;

/// Hottest-sensor steady-state samples are taken every this many steps
/// (~1 ms), matching the telemetry stride the Table 1 characterization
/// has always used, so steady summaries are bit-compatible with it.
const STEADY_SAMPLE_EVERY: u64 = 36;

/// Per-phase profiling state, present only while an enabled
/// [`ObsHandle`] is attached.
pub(crate) struct EngineProf {
    obs: ObsHandle,
    hists: [Histogram; ENGINE_PHASES.len()],
    /// This sim's timed-phase durations not yet in `hists`: plain adds
    /// on the step path, absorbed into the shared histograms when the
    /// run's result is assembled and when the profile is dropped.
    local: [LocalHistogram; ENGINE_PHASES.len()],
    /// Nanoseconds measured on the timed (sampled) steps only; scaled
    /// up by `steps / timed_steps` when the profile is reported.
    phase_ns: [u64; ENGINE_PHASES.len()],
    steps: u64,
    timed_steps: u64,
    /// The current step's clock at its last phase mark; `None` on
    /// untimed steps.
    clock: Option<u64>,
    /// Whether the current step's phases are also recorded as spans.
    sampled: bool,
}

impl EngineProf {
    /// The clock, read now, on a timed step; `None` otherwise. A
    /// lockstep step times its one thermal phase on the first lane that
    /// returns a reading.
    pub(crate) fn clock_ns(&self) -> Option<u64> {
        self.clock.map(|_| self.obs.now_ns())
    }

    /// Closes a thermal phase that [`Self::clock_ns`] opened at
    /// `start`: records it as one span on a sampled step and returns its
    /// duration.
    pub(crate) fn close_thermal(&self, start: u64) -> u64 {
        let ns = self.obs.now_ns() - start;
        if self.sampled {
            self.obs
                .record_span("engine", ENGINE_PHASES[PH_THERMAL], start, ns);
        }
        ns
    }

    /// Charges `ns`, this lane's share of a lockstep step's thermal
    /// phase, to the thermal histogram and total on a timed step.
    pub(crate) fn charge_thermal(&mut self, ns: u64) {
        if self.clock.is_some() {
            self.local[PH_THERMAL].record(ns);
            self.phase_ns[PH_THERMAL] += ns;
        }
    }

    /// Moves the recorded phase durations into the shared histograms.
    fn flush(&mut self) {
        for (hist, local) in self.hists.iter().zip(&mut self.local) {
            hist.absorb(local);
        }
    }
}

impl Drop for EngineProf {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Errors surfaced while building or running a simulation.
#[derive(Debug)]
pub enum SimError {
    /// The thermal substrate failed.
    Thermal(ThermalError),
    /// Inputs were inconsistent (wrong trace count, empty workload…).
    BadInput(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Thermal(e) => write!(f, "thermal model error: {e}"),
            SimError::BadInput(msg) => write!(f, "invalid simulation input: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ThermalError> for SimError {
    fn from(e: ThermalError) -> Self {
        SimError::Thermal(e)
    }
}

/// The power-trace-driven thermal/timing simulator for one
/// (workload, policy) run.
///
/// # Examples
///
/// ```no_run
/// use dtm_core::{DtmConfig, PolicySpec, SimConfig, ThermalTimingSim};
/// use dtm_workloads::{standard_workloads, TraceGenConfig, TraceLibrary};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = TraceLibrary::new(TraceGenConfig::default());
/// let workload = &standard_workloads()[0];
/// let traces: Vec<_> = workload.resolve().iter().map(|b| lib.trace(b)).collect();
/// let mut sim = ThermalTimingSim::new(
///     SimConfig::default(),
///     DtmConfig::default(),
///     PolicySpec::best(),
///     traces,
/// )?;
/// let result = sim.run()?;
/// println!("{:.2} BIPS at duty {:.1}%", result.bips(), 100.0 * result.duty_cycle);
/// # Ok(())
/// # }
/// ```
pub struct ThermalTimingSim {
    cfg: SimConfig,
    dtm: DtmConfig,
    policy: PolicySpec,
    floorplan: Floorplan,
    thermal: TransientSolver,
    leakage: LeakageModel,
    traces: Vec<Arc<PowerTrace>>,
    dt: f64,

    // Layout lookups.
    unit_blocks: Vec<[usize; N_CORE_UNITS]>,
    sensor_blocks: Vec<[usize; 2]>,
    l2_block: usize,
    l2_idle: f64,

    // Per-thread state.
    cursor: Vec<f64>,
    counters: Vec<ThreadCounters>,
    thread_stats: Vec<ThreadStats>,

    // Per-core state.
    assignment: Vec<usize>,
    scale: Vec<f64>,
    stall_until: Vec<f64>,
    /// Thread that caused each core's active stop-go stall.
    trip_thread: Vec<Option<usize>>,
    /// Per-core: tripped since the last migration decision.
    tripped_since_decision: Vec<bool>,
    /// Unit (0 = int RF, 1 = fp RF) that caused each core's last trip.
    last_trip_unit: Vec<usize>,
    penalty_until: Vec<f64>,
    pi: Vec<DvfsController>,
    sensor_temps: Vec<[f64; 2]>,

    migration: Box<dyn MigrationPolicy>,
    sensors: SensorBank,

    // Fault injection and the watchdog safety layer. Both `None` (the
    // default) on the fault-free path, which therefore stays
    // bit-identical to the pre-fault engine.
    faults: Option<FaultState>,
    watchdog: Option<Watchdog>,
    /// True (fault-free, noise-free) block temperatures at each core's
    /// `[int_rf, fp_rf]` sensor sites — what the chip actually does,
    /// regardless of what the sensors claim.
    true_sensor_temps: Vec<[f64; 2]>,
    max_true_temp: f64,
    violation_time: f64,
    false_throttle_time: f64,
    fallback_time: f64,

    // Clocks and accumulators.
    time: f64,
    next_os_tick: f64,
    last_migration: f64,
    duty_acc: f64,
    max_temp: f64,
    emergency_time: f64,
    migrations: u64,
    dvfs_transitions: u64,
    stalls: u64,
    energy: f64,

    telemetry: Option<Telemetry>,
    power_buf: Vec<f64>,
    /// Per-thread trace position of sample 0 of the current loop: a
    /// whole number of trace lengths at or below the thread's cursor.
    /// Cursors only move forward, so it advances by whole loops instead
    /// of a `u64 %` per core per step.
    loop_base: Vec<u64>,
    /// This step's flat `[int_rf, fp_rf]` sensor readings per core,
    /// reused across steps.
    sensor_buf: Vec<f64>,
    /// Per-core effective scales computed by the pre-thermal phase and
    /// consumed by the post-thermal one (accounting, migration,
    /// telemetry); a field so the step can be split around a batched
    /// thermal advance without reallocating.
    scales_now: Vec<f64>,

    // Observability (None / empty on the unprofiled fast path).
    prof: Option<EngineProf>,
    /// Hottest sensor reading every [`STEADY_SAMPLE_EVERY`] steps, for
    /// the steady-state summary in [`RunResult::steady`].
    steady_hot: Vec<f64>,
    steady_counter: u64,
}

impl std::fmt::Debug for ThermalTimingSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThermalTimingSim")
            .field("policy", &self.policy)
            .field("time", &self.time)
            .field("assignment", &self.assignment)
            .finish_non_exhaustive()
    }
}

impl ThermalTimingSim {
    /// Builds a simulator for `traces.len()` threads on a
    /// `cfg.cores`-core chip under `policy`.
    ///
    /// # Errors
    ///
    /// Fails if `dtm` does not validate, if the chip has no cores, if
    /// the duration or the thermal substep is not finite and positive,
    /// if a leakage density or `beta` is negative or not finite or
    /// `t_ref` is not finite, if the sensor noise or quantization step
    /// is negative or not finite or the sensor offset is not finite, if
    /// the thread count does not match the core count (this study pins
    /// one thread per core), if traces disagree on sample period, or if
    /// the thermal model cannot be constructed.
    pub fn new(
        cfg: SimConfig,
        dtm: DtmConfig,
        policy: PolicySpec,
        traces: Vec<Arc<PowerTrace>>,
    ) -> Result<Self, SimError> {
        dtm.validate()?;
        if cfg.cores == 0 {
            return Err(SimError::BadInput("a chip needs at least one core".into()));
        }
        if !(cfg.duration.is_finite() && cfg.duration > 0.0) {
            return Err(SimError::BadInput(format!(
                "duration {} s is not finite and positive",
                cfg.duration
            )));
        }
        if !(cfg.thermal_substep.is_finite() && cfg.thermal_substep > 0.0) {
            return Err(SimError::BadInput(format!(
                "thermal substep {} s is not finite and positive",
                cfg.thermal_substep
            )));
        }
        let (leak, sensor) = (&cfg.leakage, &cfg.sensor);
        for (name, value, non_negative) in [
            ("leakage logic_density", leak.logic_density, true),
            ("leakage sram_density", leak.sram_density, true),
            ("leakage beta", leak.beta, true),
            ("leakage t_ref", leak.t_ref, false),
            ("sensor noise_std", sensor.noise_std, true),
            ("sensor quantization", sensor.quantization, true),
            ("sensor offset", sensor.offset, false),
        ] {
            if !(value.is_finite() && (value >= 0.0 || !non_negative)) {
                let sign = if non_negative {
                    " and non-negative"
                } else {
                    ""
                };
                return Err(SimError::BadInput(format!(
                    "{name} {value} is not finite{sign}"
                )));
            }
        }
        if traces.len() != cfg.cores {
            return Err(SimError::BadInput(format!(
                "{} traces for {} cores (one thread per core required)",
                traces.len(),
                cfg.cores
            )));
        }
        if !cfg.core_max_scale.is_empty() {
            if cfg.core_max_scale.len() != cfg.cores {
                return Err(SimError::BadInput(format!(
                    "{} core_max_scale entries for {} cores",
                    cfg.core_max_scale.len(),
                    cfg.cores
                )));
            }
            if cfg
                .core_max_scale
                .iter()
                .any(|&s| !(s.is_finite() && s > 0.0 && s <= 1.0))
            {
                return Err(SimError::BadInput(
                    "core_max_scale entries must be in (0, 1]".into(),
                ));
            }
        }
        let dt = traces[0].dt();
        if traces.iter().any(|t| (t.dt() - dt).abs() > 1e-12) {
            return Err(SimError::BadInput(
                "all traces must share one sample period".into(),
            ));
        }

        let floorplan = Floorplan::ppc_cmp(cfg.cores);
        let model = ThermalModel::new(&floorplan, &cfg.package)?;
        let mut thermal =
            TransientSolver::new(model, cfg.thermal_substep).with_backend(cfg.thermal_solver);
        // The sample period is fixed for the whole run, so pay the
        // solver's one-time per-dt construction (propagator or LU) here
        // rather than inside the profiled step loop.
        thermal.prewarm(dt)?;

        let leak_ref = leakage_reference(
            &floorplan,
            cfg.leakage.logic_density,
            cfg.leakage.sram_density,
        );
        let leakage = LeakageModel::new(leak_ref, cfg.leakage.t_ref, cfg.leakage.beta);

        let mut unit_blocks = Vec::with_capacity(cfg.cores);
        let mut sensor_blocks = Vec::with_capacity(cfg.cores);
        let mut sensor_flat = Vec::with_capacity(cfg.cores * 2);
        for core in 0..cfg.cores {
            let mut blocks = [0usize; N_CORE_UNITS];
            for (i, &kind) in UnitKind::per_core().iter().enumerate() {
                blocks[i] = floorplan
                    .block_of(core, kind)
                    .expect("validated floorplan has every per-core unit");
            }
            unit_blocks.push(blocks);
            let int_rf = floorplan
                .block_of(core, UnitKind::IntRegFile)
                .expect("int RF");
            let fp_rf = floorplan
                .block_of(core, UnitKind::FpRegFile)
                .expect("fp RF");
            sensor_blocks.push([int_rf, fp_rf]);
            sensor_flat.push(int_rf);
            sensor_flat.push(fp_rf);
        }
        let l2_block = floorplan.blocks_of_kind(UnitKind::L2)[0];
        let sensors = SensorBank::new(sensor_flat, cfg.sensor, cfg.seed);

        let n_pi = match policy.scope {
            Scope::Global => 1,
            Scope::Distributed => cfg.cores,
        };
        let gains = PiGains {
            kp: dtm.pi_kp,
            ki: dtm.pi_ki,
            dt,
        };
        let pi = (0..n_pi)
            .map(|_| DvfsController::from_config(gains, dtm.gain_schedule, dtm.dvfs_min_scale, 1.0))
            .collect();

        let migration: Box<dyn MigrationPolicy> = match policy.migration {
            MigrationKind::None => Box::new(NoMigration),
            MigrationKind::CounterBased => Box::new(CounterMigration::new()),
            MigrationKind::SensorBased => Box::new(SensorMigration::new(3)),
        };

        // L2 idle power (clock/standby) charged once chip-wide, taken
        // from the default calibration.
        let l2_idle = dtm_power::PowerModel::default_90nm(cfg.core.clock_hz).l2_idle_power();

        let cores = cfg.cores;
        let n_threads = traces.len();
        let floorplan_len = floorplan.len();
        // The run's steady samples (one per STEADY_SAMPLE_EVERY steps,
        // +2 for a float-rounded step count), reserved so stepping never
        // grows the vector; runs past 10⁷ steps grow it on demand.
        let steps = (cfg.duration / dt).ceil().min(1e7) as usize;
        let steady_samples = steps / STEADY_SAMPLE_EVERY as usize + 2;
        let mut sim = ThermalTimingSim {
            cfg,
            dtm,
            policy,
            floorplan,
            thermal,
            leakage,
            traces,
            dt,
            unit_blocks,
            sensor_blocks,
            l2_block,
            l2_idle,
            cursor: vec![0.0; n_threads],
            counters: vec![ThreadCounters::default(); n_threads],
            thread_stats: vec![ThreadStats::default(); n_threads],
            assignment: (0..cores).collect(),
            scale: vec![1.0; cores],
            stall_until: vec![f64::NEG_INFINITY; cores],
            trip_thread: vec![None; cores],
            tripped_since_decision: vec![false; cores],
            last_trip_unit: vec![0; cores],
            penalty_until: vec![f64::NEG_INFINITY; cores],
            pi,
            sensor_temps: vec![[0.0; 2]; cores],
            migration,
            sensors,
            faults: None,
            watchdog: None,
            true_sensor_temps: vec![[0.0; 2]; cores],
            max_true_temp: f64::NEG_INFINITY,
            violation_time: 0.0,
            false_throttle_time: 0.0,
            fallback_time: 0.0,
            time: 0.0,
            next_os_tick: 0.0,
            last_migration: f64::NEG_INFINITY,
            duty_acc: 0.0,
            max_temp: f64::NEG_INFINITY,
            emergency_time: 0.0,
            migrations: 0,
            dvfs_transitions: 0,
            stalls: 0,
            energy: 0.0,
            telemetry: None,
            power_buf: Vec::with_capacity(floorplan_len),
            loop_base: vec![0; n_threads],
            sensor_buf: Vec::with_capacity(cores * 2),
            scales_now: Vec::with_capacity(cores),
            prof: None,
            steady_hot: Vec::with_capacity(steady_samples),
            steady_counter: 0,
        };
        sim.initialize_temperatures()?;
        sim.read_sensors();
        Ok(sim)
    }

    /// Attaches an observability handle. An enabled handle turns on
    /// per-phase timing (histograms named `dtm_phase_<name>_ns` plus
    /// sampled trace spans) and binds the watchdog's counters; a
    /// disabled handle detaches profiling.
    pub fn attach_obs(&mut self, obs: &ObsHandle) {
        if obs.is_enabled() {
            let hists = std::array::from_fn(|i| {
                obs.histogram(&format!("dtm_phase_{}_ns", ENGINE_PHASES[i]))
            });
            self.prof = Some(EngineProf {
                obs: obs.clone(),
                hists,
                local: Default::default(),
                phase_ns: [0; ENGINE_PHASES.len()],
                steps: 0,
                timed_steps: 0,
                clock: None,
                sampled: false,
            });
            if let Some(wd) = &mut self.watchdog {
                wd.bind_obs(obs);
            }
        } else {
            self.prof = None;
        }
    }

    /// Closes the phase that ran since the last mark: its duration goes
    /// to the phase histogram and the run's phase totals, and — on
    /// sampled steps — into the span ring.
    #[inline]
    fn mark(&mut self, phase: usize) {
        if let Some(p) = &mut self.prof {
            if let Some(last) = &mut p.clock {
                let now = p.obs.now_ns();
                let d = now - *last;
                p.local[phase].record(d);
                p.phase_ns[phase] += d;
                if p.sampled {
                    p.obs.record_span("engine", ENGINE_PHASES[phase], *last, d);
                }
                *last = now;
            }
        }
    }

    /// Replaces the migration policy with a custom implementation
    /// (e.g. [`crate::RotationMigration`] or a user-defined
    /// [`MigrationPolicy`]). The policy axis of the constructor's
    /// [`PolicySpec`] only selects the built-in policies; this hook lets
    /// downstream users explore new points in the design space.
    pub fn set_migration_policy(&mut self, policy: Box<dyn MigrationPolicy>) {
        self.migration = policy;
    }

    /// Installs a fault schedule. The ideal scenario clears any
    /// previous one and restores the fault-free fast path.
    pub fn set_fault_scenario(&mut self, scenario: FaultScenario) {
        self.faults = if scenario.is_ideal() {
            None
        } else {
            Some(FaultState::new(scenario))
        };
    }

    /// Installs the watchdog. A disabled configuration clears it and
    /// restores the unscreened fast path.
    pub fn set_watchdog(&mut self, cfg: WatchdogConfig) {
        self.watchdog = if cfg.enabled {
            let mut wd = Watchdog::new(cfg, self.cfg.cores, 2);
            if let Some(p) = &self.prof {
                wd.bind_obs(&p.obs);
            }
            Some(wd)
        } else {
            None
        };
    }

    /// Installs a complete robustness configuration (scenario plus
    /// watchdog).
    pub fn set_fault_config(&mut self, cfg: &FaultConfig) {
        self.set_fault_scenario(cfg.scenario.clone());
        self.set_watchdog(cfg.watchdog);
    }

    /// Attaches a telemetry recorder (replacing any previous one).
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Detaches and returns the telemetry recorder.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take()
    }

    /// The policy being simulated.
    pub fn policy(&self) -> PolicySpec {
        self.policy
    }

    /// Current simulation time (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current core → thread assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The chip floorplan in use.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Latest per-core hotspot sensor readings `[int_rf, fp_rf]` (°C),
    /// after fault injection and watchdog screening — what the
    /// controllers see.
    pub fn sensor_temps(&self) -> &[[f64; 2]] {
        &self.sensor_temps
    }

    /// Latest *true* block temperatures at the sensor sites (°C) —
    /// unaffected by sensor noise, faults, or the watchdog.
    pub fn true_sensor_temps(&self) -> &[[f64; 2]] {
        &self.true_sensor_temps
    }

    /// The watchdog's per-core fallback latch; `None` when no watchdog
    /// is installed.
    pub fn watchdog_fallback(&self) -> Option<&[bool]> {
        self.watchdog.as_ref().map(|w| w.in_fallback())
    }

    /// Floorplan block indices of each core's `[int_rf, fp_rf]` sensors.
    pub fn sensor_blocks(&self) -> &[[usize; 2]] {
        &self.sensor_blocks
    }

    /// Package initialization: the heat sink's time constant (~1 min)
    /// dwarfs the 0.5 s runs, so the package state is effectively an
    /// initial condition. We start at the *throttled equilibrium*: the
    /// steady state of the largest fraction of full-speed mean power
    /// whose hottest sensor stays `init_hotspot_margin` °C below the
    /// threshold (capped at full power for workloads that never
    /// overheat). The search runs once per distinct input per process
    /// (see [`crate::init_memo`]); a build that repeats one only
    /// re-initializes the solver from the kept power vector.
    fn initialize_temperatures(&mut self) -> Result<(), SimError> {
        let p = init_memo::solve_once(self.init_key(), |p_full| self.initial_power(p_full))?;
        self.thermal.init_steady(&p)?;
        Ok(())
    }

    /// The initial-state search's memo key: this chip's full-speed mean
    /// power per block and every configuration input the search reads.
    fn init_key(&self) -> InitKey {
        let mut p_full = vec![0.0; self.floorplan.len()];
        for core in 0..self.cfg.cores {
            let trace = &self.traces[self.assignment[core]];
            for (u, &kind) in UnitKind::per_core().iter().enumerate() {
                p_full[self.unit_blocks[core][u]] += trace.mean_unit_power(kind);
            }
        }
        p_full[self.l2_block] += self.l2_idle;
        InitKey::new(p_full, &self.cfg, &self.dtm)
    }

    /// The throttled-equilibrium search from full-speed power `p_full`:
    /// the converged block power (dynamic plus leakage) of the initial
    /// steady state.
    fn initial_power(&self, p_full: &[f64]) -> Result<Vec<f64>, SimError> {
        let nb = self.floorplan.len();
        // Steady temperatures at a power fraction, with the leakage
        // feedback converged by fixed-point iteration.
        let steady = |alpha: f64| -> Result<(Vec<f64>, Vec<f64>), SimError> {
            let mut temps = vec![self.cfg.leakage.t_ref; self.thermal.model().n_nodes()];
            let mut p: Vec<f64> = Vec::new();
            for _ in 0..20 {
                p = p_full.iter().map(|w| w * alpha).collect();
                self.leakage.add_power(&temps[..nb], &mut p);
                let solved = self.thermal.model().steady_state(&p)?;
                // Damped update, clamped: keeps the iteration finite even
                // when the chip is past the thermal-runaway point (the
                // binary search then backs the power fraction off).
                for (t, s) in temps.iter_mut().zip(&solved) {
                    *t = (0.5 * *t + 0.5 * s).min(250.0);
                }
            }
            Ok((temps, p))
        };
        let fast_r = self.thermal.model().fast_resistance();
        let hottest_sensor = |temps: &[f64], power: &[f64]| -> f64 {
            self.sensor_blocks
                .iter()
                .flat_map(|pair| pair.iter())
                .map(|&b| temps[b] + fast_r[b] * power[b])
                .fold(f64::NEG_INFINITY, f64::max)
        };

        let target = self.dtm.threshold - self.cfg.init_hotspot_margin;
        let mut alpha = 1.0;
        let full = steady(1.0)?;
        if target.is_finite() && hottest_sensor(&full.0, &full.1) > target {
            let (mut lo, mut hi) = (0.02, 1.0);
            for _ in 0..20 {
                let mid = 0.5 * (lo + hi);
                let (temps, p) = steady(mid)?;
                if hottest_sensor(&temps, &p) > target {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            alpha = lo;
        }
        let (_, p) = steady(alpha)?;
        Ok(p)
    }

    /// A core's architectural frequency ceiling (1.0 unless the chip is
    /// configured as an asymmetric CMP).
    fn max_scale(&self, core: usize) -> f64 {
        self.cfg.core_max_scale.get(core).copied().unwrap_or(1.0)
    }

    /// Effective frequency scale of a core right now: 0 while stalled or
    /// paying a transition/migration penalty; the DVFS factor (or the
    /// core's architectural ceiling under stop-go) otherwise.
    pub fn effective_scale(&self, core: usize) -> f64 {
        // A broken stop-go gate means stall commands are issued and
        // accounted but never bite.
        let gate_ignored = self
            .faults
            .as_ref()
            .is_some_and(|f| f.gate_ignored(self.time, core));
        if (self.time < self.stall_until[core] && !gate_ignored)
            || self.time < self.penalty_until[core]
        {
            return 0.0;
        }
        let ceiling = self.max_scale(core);
        let s = match self.policy.throttle {
            ThrottleKind::StopGo => ceiling,
            ThrottleKind::Dvfs => self.scale[core].min(ceiling),
        };
        // Watchdog limp-home mode: while any core's sensors are
        // implausible, the chip is clamped to the minimum DVFS scale.
        if let Some(wd) = &self.watchdog {
            if wd.config().fallback == FallbackKind::FreqFloor && wd.any_fallback() {
                return s.min(self.dtm.dvfs_min_scale);
            }
        }
        s
    }

    fn read_sensors(&mut self) {
        // Sensors sit at the within-block hotspots, so they see the
        // lumped node temperature plus the sub-block fast-mode excess;
        // only the sensor sites are evaluated.
        let thermal = &self.thermal;
        let mut flat = std::mem::take(&mut self.sensor_buf);
        self.sensors
            .read_into(|b| thermal.hot_block_temp(b), &mut flat);
        for (truth, blocks) in self.true_sensor_temps.iter_mut().zip(&self.sensor_blocks) {
            *truth = blocks.map(|b| thermal.hot_block_temp(b));
        }
        if let Some(faults) = &mut self.faults {
            for core in 0..self.cfg.cores {
                for (k, slot) in flat[core * 2..core * 2 + 2].iter_mut().enumerate() {
                    *slot = faults.apply_sensor(self.time, core, k, *slot);
                }
            }
        }
        self.mark(PH_SENSORS);
        if let Some(wd) = &mut self.watchdog {
            wd.assess(self.time, &mut flat);
        }
        self.mark(PH_WATCHDOG);
        for core in 0..self.cfg.cores {
            self.sensor_temps[core] = [flat[core * 2], flat[core * 2 + 1]];
        }
        self.sensor_buf = flat;
    }

    /// Advances the simulation by one power sample (27.78 µs): a
    /// lockstep step of a batch of one.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solver failures.
    pub fn step(&mut self) -> Result<(), SimError> {
        lockstep(std::slice::from_mut(self), Until::OneStep)
    }

    /// Everything a step does *before* the thermal solve: counts the
    /// step against the profiling strides, assembles block power into
    /// `power_buf` (advancing trace cursors and work accounting) and
    /// adds leakage. The lockstep driver runs every lane's pre-phase,
    /// one thermal phase, then the post-phases — see
    /// [`crate::LockstepBatch`].
    pub(crate) fn step_pre_thermal(&mut self) {
        if let Some(p) = &mut self.prof {
            let timed = p.steps.is_multiple_of(TIMED_SAMPLE_STRIDE);
            p.clock = timed.then(|| p.obs.now_ns());
            p.sampled = p.steps.is_multiple_of(SPAN_SAMPLE_STRIDE);
            p.timed_steps += u64::from(timed);
            p.steps += 1;
        }
        let dt = self.dt;
        let cores = self.cfg.cores;

        // ---- Assemble block power and advance work ----
        self.power_buf.clear();
        self.power_buf.resize(self.floorplan.len(), 0.0);
        let mut l2_power = self.l2_idle;
        // Effective scales are reused by the post-thermal accounting,
        // migration, and telemetry phases; the buffer lives on the sim
        // so the split carries it across without reallocation.
        let mut scales_now = std::mem::take(&mut self.scales_now);
        scales_now.clear();
        scales_now.resize(cores, 0.0);
        for (core, scale_slot) in scales_now.iter_mut().enumerate() {
            let s = self.effective_scale(core);
            *scale_slot = s;
            let thread = self.assignment[core];
            // The sample under the cursor, wrapping like
            // `PowerTrace::sample`.
            let samples = self.traces[thread].samples();
            let pos = self.cursor[thread] as u64;
            let base = &mut self.loop_base[thread];
            while pos - *base >= samples.len() as u64 {
                *base += samples.len() as u64;
            }
            let sample = &samples[(pos - *base) as usize];
            if s > 0.0 {
                let s3 = s * s * s;
                for (&b, &w) in self.unit_blocks[core].iter().zip(&sample.units) {
                    self.power_buf[b] += w * s3;
                }
                l2_power += sample.l2 * s;
                self.cursor[thread] += s;
                let stats = &mut self.thread_stats[thread];
                stats.instructions += s * sample.instructions as f64;
                stats.scaled_work += s * dt;
                self.duty_acc += s * dt;
                // Windowed counter state (≈1 ms horizon).
                let k = (s * dt / 1e-3).min(1.0);
                let c = &mut self.counters[thread];
                c.int_rf_per_cycle += k * (sample.int_rf_per_cycle - c.int_rf_per_cycle);
                c.fp_rf_per_cycle += k * (sample.fp_rf_per_cycle - c.fp_rf_per_cycle);
            }
        }
        self.power_buf[self.l2_block] += l2_power;
        self.scales_now = scales_now;
        self.mark(PH_MICROARCH);
        self.leakage
            .add_power(self.thermal.block_temps(), &mut self.power_buf);
        self.energy += self.power_buf.iter().sum::<f64>() * dt;
        self.mark(PH_POWER);
    }

    /// Everything a step does *after* the thermal solve: advances the
    /// clock, reads sensors, runs accounting, control, migration, and
    /// telemetry. Must be preceded by [`Self::step_pre_thermal`] and a
    /// thermal advance of `power_buf` over `dt` (scalar or batched).
    pub(crate) fn step_post_thermal(&mut self) {
        let dt = self.dt;
        let cores = self.cfg.cores;
        let scales_now = std::mem::take(&mut self.scales_now);
        self.time += dt;
        // The phase clock restarts here: the driver charged the thermal
        // phase, and earlier lanes' post phases are not this lane's.
        if let Some(p) = &mut self.prof {
            if let Some(last) = &mut p.clock {
                *last = p.obs.now_ns();
            }
        }
        self.read_sensors();

        // ---- Emergency accounting ----
        let hottest = self
            .sensor_temps
            .iter()
            .flat_map(|t| t.iter())
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        self.max_temp = self.max_temp.max(hottest);
        if hottest > self.dtm.threshold {
            self.emergency_time += dt;
        }

        // ---- Robustness accounting (against *true* temperatures) ----
        let true_hot = self
            .true_sensor_temps
            .iter()
            .flat_map(|t| t.iter())
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        self.max_true_temp = self.max_true_temp.max(true_hot);
        if true_hot > self.dtm.threshold {
            self.violation_time += dt;
        }
        if self.watchdog.as_ref().is_some_and(|w| w.any_fallback()) {
            self.fallback_time += dt;
        }
        let throttled = (0..cores).any(|c| scales_now[c] < self.max_scale(c) - 1e-12);
        if throttled && true_hot < self.dtm.dvfs_setpoint() - FALSE_THROTTLE_MARGIN {
            self.false_throttle_time += dt;
        }
        self.mark(PH_ACCOUNTING);

        // ---- Throttle control ----
        match self.policy.throttle {
            ThrottleKind::StopGo => self.control_stopgo(),
            ThrottleKind::Dvfs => self.control_dvfs(),
        }
        self.control_fallback_stopgo();
        self.mark(PH_CONTROL);

        // ---- OS tick: migration ----
        if self.time >= self.next_os_tick {
            self.next_os_tick += self.dtm.os_tick;
            self.os_tick(&scales_now);
        }
        self.mark(PH_MIGRATION);

        // ---- Telemetry ----
        if let Some(tel) = &mut self.telemetry {
            let time = self.time;
            let sensor_temps = self.sensor_temps.clone();
            let assignment = self.assignment.clone();
            let in_fallback = match &self.watchdog {
                Some(w) => w.in_fallback().to_vec(),
                None => vec![false; cores],
            };
            tel.offer(|| TelemetryRecord {
                time,
                sensor_temps,
                scales: scales_now.clone(),
                assignment,
                in_fallback,
            });
        }
        // Steady-state sampling mirrors `Telemetry::every(36)` exactly
        // (record, then count), so `RunResult::steady` is bit-compatible
        // with the telemetry-based Table 1 characterization it replaced.
        if self.steady_counter.is_multiple_of(STEADY_SAMPLE_EVERY) {
            self.steady_hot.push(hottest);
        }
        self.steady_counter += 1;
        self.scales_now = scales_now;
        self.mark(PH_TELEMETRY);
    }

    /// The thermal lane this sim contributes to a lockstep batch: its
    /// solver, the block power assembled by the pre-phase, and `dt`.
    pub(crate) fn thermal_lane(&mut self) -> (&mut TransientSolver, &[f64], f64) {
        (&mut self.thermal, &self.power_buf, self.dt)
    }

    /// Whether this sim still has simulated time left before
    /// `cfg.duration` (the lane-retirement test).
    pub(crate) fn lane_active(&self) -> bool {
        self.time < self.cfg.duration
    }

    /// The phase profile the lockstep driver times the shared thermal
    /// phase into, while an enabled handle is attached.
    pub(crate) fn profile(&mut self) -> Option<&mut EngineProf> {
        self.prof.as_mut()
    }

    /// Whether `core`'s DVFS actuator is currently stuck by a fault.
    fn dvfs_stuck(&self, core: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.dvfs_stuck(self.time, core))
    }

    /// The [`FallbackKind::StopGoLastGood`] fail-safe: cores whose
    /// sensors are implausible run stop-go on their last plausible
    /// reading instead of the (untrustworthy) live one.
    fn control_fallback_stopgo(&mut self) {
        let Some(wd) = &self.watchdog else {
            return;
        };
        if wd.config().fallback != FallbackKind::StopGoLastGood || !wd.any_fallback() {
            return;
        }
        let trip = self.dtm.stopgo_trip();
        for core in 0..self.cfg.cores {
            if !wd.in_fallback()[core] || self.time < self.stall_until[core] {
                continue;
            }
            let last_good = wd.last_good(core * 2).max(wd.last_good(core * 2 + 1));
            if last_good >= trip {
                self.stall_until[core] = self.time + self.dtm.stopgo_stall;
                self.stalls += 1;
            }
        }
    }

    fn control_stopgo(&mut self) {
        let trip = self.dtm.stopgo_trip();
        match self.policy.scope {
            Scope::Distributed => {
                for core in 0..self.cfg.cores {
                    let hot = self.sensor_temps[core][0].max(self.sensor_temps[core][1]);
                    if hot >= trip && self.time >= self.stall_until[core] {
                        self.stall_until[core] = self.time + self.dtm.stopgo_stall;
                        self.trip_thread[core] = Some(self.assignment[core]);
                        self.tripped_since_decision[core] = true;
                        self.last_trip_unit[core] =
                            if self.sensor_temps[core][0] >= self.sensor_temps[core][1] {
                                0
                            } else {
                                1
                            };
                        self.stalls += 1;
                    } else if self.time < self.stall_until[core]
                        && self.trip_thread[core] != Some(self.assignment[core])
                        && hot < trip - 1.0
                    {
                        // The OS migrated a different process onto this
                        // core and it has cooled safely below the trip
                        // point: the thermal governor lets it resume
                        // rather than serving out the offender's stall.
                        self.stall_until[core] = self.time;
                    }
                }
            }
            Scope::Global => {
                let chip_stalled = self.time < self.stall_until[0];
                let hot = self
                    .sensor_temps
                    .iter()
                    .flat_map(|t| t.iter())
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                if hot >= trip && !chip_stalled {
                    for core in 0..self.cfg.cores {
                        self.stall_until[core] = self.time + self.dtm.stopgo_stall;
                        let t = self.sensor_temps[core];
                        if t[0].max(t[1]) >= trip {
                            self.tripped_since_decision[core] = true;
                            self.last_trip_unit[core] = if t[0] >= t[1] { 0 } else { 1 };
                        }
                    }
                    self.stalls += 1;
                }
            }
        }
    }

    fn control_dvfs(&mut self) {
        let setpoint = self.dtm.dvfs_setpoint();
        let range = 1.0 - self.dtm.dvfs_min_scale;
        match self.policy.scope {
            Scope::Distributed => {
                for core in 0..self.cfg.cores {
                    let hot = self.sensor_temps[core][0].max(self.sensor_temps[core][1]);
                    // The PI state advances even when the actuator is
                    // stuck: the controller keeps observing, it just
                    // cannot act.
                    let u = self.pi[core].update(hot - setpoint);
                    if self.dvfs_stuck(core) {
                        continue;
                    }
                    if (u - self.scale[core]).abs() >= self.dtm.dvfs_min_transition * range {
                        self.scale[core] = u;
                        self.penalty_until[core] = self.time + self.dtm.dvfs_transition_penalty;
                        self.dvfs_transitions += 1;
                    }
                }
            }
            Scope::Global => {
                let hot = self
                    .sensor_temps
                    .iter()
                    .flat_map(|t| t.iter())
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                let u = self.pi[0].update(hot - setpoint);
                // Fault-free, all scales move in lockstep and this is
                // exactly the single scale[0] comparison; with a stuck
                // core, the healthy cores still track the controller.
                let mut moved = false;
                for core in 0..self.cfg.cores {
                    if self.dvfs_stuck(core) {
                        continue;
                    }
                    if (u - self.scale[core]).abs() >= self.dtm.dvfs_min_transition * range {
                        self.scale[core] = u;
                        self.penalty_until[core] = self.time + self.dtm.dvfs_transition_penalty;
                        moved = true;
                    }
                }
                if moved {
                    self.dvfs_transitions += 1;
                }
            }
        }
    }

    fn os_tick(&mut self, scales_now: &[f64]) {
        let obs = OsObservation {
            time: self.time,
            assignment: &self.assignment,
            scale: scales_now,
            sensor_temps: &self.sensor_temps,
            counters: &self.counters,
            tripped: &self.tripped_since_decision,
            trip_unit: &self.last_trip_unit,
        };
        self.migration.observe(&obs);
        if self.time - self.last_migration < self.dtm.migration_interval {
            return;
        }
        // Migration exists to balance *thermal* load; when no sensor is
        // anywhere near the limit there is nothing to balance and a
        // migration would only cost its penalty.
        let hottest = self
            .sensor_temps
            .iter()
            .flat_map(|t| t.iter())
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        if hottest < self.dtm.threshold - 4.0 {
            return;
        }
        let plan = self.migration.decide(&obs);
        self.tripped_since_decision.fill(false);
        if let Some(plan) = plan {
            debug_assert_eq!(plan.len(), self.cfg.cores);
            let mut moved = 0;
            let trip = self.dtm.stopgo_trip();
            for (core, &target) in plan.iter().enumerate() {
                if target != self.assignment[core] {
                    moved += 1;
                    self.penalty_until[core] =
                        self.penalty_until[core].max(self.time + self.dtm.migration_penalty);
                    self.thread_stats[target].migrations += 1;
                    // A stop-go stall exists to cool the core below its
                    // trip point; when the OS installs a different
                    // process on a core that has already cooled, the
                    // stall is released (it re-trips immediately if the
                    // core is still too hot).
                    let hot = self.sensor_temps[core][0].max(self.sensor_temps[core][1]);
                    if self.time < self.stall_until[core] && hot < trip {
                        self.stall_until[core] = self.time;
                    }
                }
            }
            if moved > 0 {
                self.assignment = plan;
                self.migrations += moved as u64;
                self.last_migration = self.time;
            }
        }
    }

    /// Runs until `cfg.duration` and returns the metrics: a lockstep
    /// batch of one.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solver failures.
    pub fn run(&mut self) -> Result<RunResult, SimError> {
        lockstep(std::slice::from_mut(self), Until::Done)?;
        Ok(self.finish())
    }

    /// The result of a finished run, with the run's phase timings moved
    /// into the attached handle's histograms first.
    pub(crate) fn finish(&mut self) -> RunResult {
        if let Some(p) = &mut self.prof {
            p.flush();
        }
        self.result()
    }

    /// Metrics for the simulation so far.
    pub fn result(&self) -> RunResult {
        let instructions: f64 = self.thread_stats.iter().map(|t| t.instructions).sum();
        let duration = self.time.max(f64::MIN_POSITIVE);
        RunResult {
            duration,
            cores: self.cfg.cores,
            instructions,
            duty_cycle: self.duty_acc / (self.cfg.cores as f64 * duration),
            max_temp: self.max_temp,
            emergency_time: self.emergency_time,
            migrations: self.migrations,
            dvfs_transitions: self.dvfs_transitions,
            stalls: self.stalls,
            energy: self.energy,
            robustness: Robustness {
                violation_time: self.violation_time,
                peak_overshoot: (self.max_true_temp - self.dtm.threshold).max(0.0),
                false_throttle_time: self.false_throttle_time,
                fallback_time: self.fallback_time,
                fallback_entries: self.watchdog.as_ref().map_or(0, |w| w.entries()),
                fallback_exits: self.watchdog.as_ref().map_or(0, |w| w.exits()),
                watchdog_flags: self.watchdog.as_ref().map_or(0, |w| w.flags()),
            },
            steady: self.steady_summary(),
            gain_stats: self.gain_stats(),
            phases: self.prof.as_ref().map(|p| {
                // Measured nanoseconds cover only the timed (sampled)
                // steps; scale them to whole-run estimates.
                let scale = |ns: u64| -> u64 {
                    if p.timed_steps == 0 {
                        return 0;
                    }
                    (ns as u128 * p.steps as u128 / p.timed_steps as u128) as u64
                };
                PhaseProfile {
                    steps: p.steps,
                    phases: ENGINE_PHASES
                        .iter()
                        .zip(p.phase_ns)
                        .map(|(name, ns)| PhaseNs {
                            name: (*name).to_string(),
                            ns: scale(ns),
                        })
                        .collect(),
                }
            }),
            threads: self.thread_stats.clone(),
        }
    }

    /// Effective-gain bounds and adaptation count aggregated across
    /// the run's DVFS controllers (`None` on the fixed-gain path).
    fn gain_stats(&self) -> Option<crate::metrics::GainStats> {
        if self.dtm.gain_schedule.is_fixed() {
            return None;
        }
        let mut m_lo = f64::INFINITY;
        let mut m_hi = f64::NEG_INFINITY;
        let mut adaptations = 0;
        for c in &self.pi {
            let a = c
                .adaptive()
                .expect("adaptive schedule builds adaptive controllers");
            let (lo, hi) = a.multiplier_range();
            m_lo = m_lo.min(lo);
            m_hi = m_hi.max(hi);
            adaptations += a.adaptations();
        }
        Some(crate::metrics::GainStats {
            kp_min: self.dtm.pi_kp * m_lo,
            kp_max: self.dtm.pi_kp * m_hi,
            ki_min: self.dtm.pi_ki * m_lo,
            ki_max: self.dtm.pi_ki * m_hi,
            adaptations,
        })
    }

    /// Hottest-sensor summary over the second half of the steady
    /// samples (`None` before the first step).
    fn steady_summary(&self) -> Option<SteadyTempSummary> {
        if self.steady_hot.is_empty() {
            return None;
        }
        let window = &self.steady_hot[self.steady_hot.len() / 2..];
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &hot in window {
            min = min.min(hot);
            max = max.max(hot);
            sum += hot;
        }
        Some(SteadyTempSummary {
            mean: sum / window.len() as f64,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MigrationKind;
    use dtm_power::CorePowerSample;

    /// A constant synthetic trace with the register files as the main
    /// heat sources. Powers are at nominal V/f.
    fn const_trace(name: &str, int_rf: f64, fp_rf: f64, base: f64) -> Arc<PowerTrace> {
        let mut s = CorePowerSample::zero();
        // per_core order: Fetch, BPred, I$, D$, Rename, IssInt, IssFp,
        // IntRF, FpRF, Fxu, Fpu, Lsu, Bxu
        s.units = [
            base,
            base,
            base,
            base,
            base,
            base,
            base * 0.5,
            int_rf,
            fp_rf,
            base,
            base * 0.8,
            base,
            base * 0.4,
        ];
        s.l2 = 0.2;
        s.instructions = 200_000; // IPC 2
        s.int_rf_per_cycle = 10.0 * int_rf;
        s.fp_rf_per_cycle = 10.0 * fp_rf;
        Arc::new(PowerTrace::new(name, 1.0e5 / 3.6e9, vec![s]))
    }

    fn hot_int() -> Arc<PowerTrace> {
        const_trace("hot_int", 2.6, 0.2, 0.6)
    }

    fn hot_fp() -> Arc<PowerTrace> {
        const_trace("hot_fp", 0.9, 2.4, 0.6)
    }

    fn cool() -> Arc<PowerTrace> {
        const_trace("cool", 0.3, 0.05, 0.12)
    }

    /// Active but individually below the thermal limit; three of these
    /// plus one hot core heat the package enough that the hot core is
    /// thermally limited (the paper's "performance asymmetry" case).
    fn warm() -> Arc<PowerTrace> {
        const_trace("warm", 1.7, 0.3, 0.55)
    }

    fn spec(throttle: ThrottleKind, scope: Scope, migration: MigrationKind) -> PolicySpec {
        PolicySpec::new(throttle, scope, migration)
    }

    fn run_policy(policy: PolicySpec, traces: Vec<Arc<PowerTrace>>) -> RunResult {
        let mut sim =
            ThermalTimingSim::new(SimConfig::fast_test(), DtmConfig::default(), policy, traces)
                .expect("construction");
        sim.run().expect("run")
    }

    #[test]
    fn wrong_trace_count_is_rejected() {
        let err = ThermalTimingSim::new(
            SimConfig::fast_test(),
            DtmConfig::default(),
            PolicySpec::baseline(),
            vec![hot_int()],
        );
        assert!(matches!(err, Err(SimError::BadInput(_))));
    }

    #[test]
    fn zero_cores_is_rejected() {
        let cfg = SimConfig {
            cores: 0,
            ..SimConfig::fast_test()
        };
        let err = ThermalTimingSim::new(cfg, DtmConfig::default(), PolicySpec::baseline(), vec![]);
        assert!(matches!(err, Err(SimError::BadInput(_))), "{err:?}");
    }

    #[test]
    fn non_finite_or_non_positive_duration_is_rejected() {
        for duration in [f64::INFINITY, f64::NAN, 0.0, -0.05] {
            let cfg = SimConfig {
                duration,
                ..SimConfig::fast_test()
            };
            let err = ThermalTimingSim::new(
                cfg,
                DtmConfig::default(),
                PolicySpec::baseline(),
                vec![cool(), cool(), cool(), cool()],
            );
            assert!(
                matches!(err, Err(SimError::BadInput(_))),
                "duration {duration}: {err:?}"
            );
        }
    }

    /// Builds a fast-test simulator of four cool threads after `edit`
    /// changes its configuration.
    fn build_with(edit: impl Fn(&mut SimConfig)) -> Result<ThermalTimingSim, SimError> {
        let mut cfg = SimConfig::fast_test();
        edit(&mut cfg);
        ThermalTimingSim::new(
            cfg,
            DtmConfig::default(),
            PolicySpec::baseline(),
            vec![cool(), cool(), cool(), cool()],
        )
    }

    #[test]
    fn non_finite_or_non_positive_thermal_substep_is_rejected() {
        for v in [0.0, -7e-6, f64::NAN, f64::INFINITY] {
            let err = build_with(|c| c.thermal_substep = v);
            assert!(matches!(err, Err(SimError::BadInput(_))), "{v}: {err:?}");
        }
    }

    #[test]
    fn negative_or_non_finite_logic_leakage_density_is_rejected() {
        for v in [-1.0, f64::NAN, f64::INFINITY] {
            let err = build_with(|c| c.leakage.logic_density = v);
            assert!(matches!(err, Err(SimError::BadInput(_))), "{v}: {err:?}");
        }
    }

    #[test]
    fn negative_or_non_finite_sram_leakage_density_is_rejected() {
        for v in [-1.0, f64::NAN, f64::NEG_INFINITY] {
            let err = build_with(|c| c.leakage.sram_density = v);
            assert!(matches!(err, Err(SimError::BadInput(_))), "{v}: {err:?}");
        }
    }

    #[test]
    fn negative_or_non_finite_leakage_beta_is_rejected() {
        for v in [-0.01, f64::NAN, f64::INFINITY] {
            let err = build_with(|c| c.leakage.beta = v);
            assert!(matches!(err, Err(SimError::BadInput(_))), "{v}: {err:?}");
        }
    }

    #[test]
    fn non_finite_leakage_reference_temperature_is_rejected() {
        // A NaN t_ref used to build and run: the exponent's clamp turned
        // every block's leakage into its 150 K maximum.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = build_with(|c| c.leakage.t_ref = v);
            assert!(matches!(err, Err(SimError::BadInput(_))), "{v}: {err:?}");
        }
    }

    #[test]
    fn negative_or_non_finite_sensor_noise_is_rejected() {
        for v in [-0.5, f64::NAN, f64::INFINITY] {
            let err = build_with(|c| c.sensor.noise_std = v);
            assert!(matches!(err, Err(SimError::BadInput(_))), "{v}: {err:?}");
        }
    }

    #[test]
    fn negative_or_non_finite_sensor_quantization_is_rejected() {
        for v in [-0.25, f64::NAN, f64::INFINITY] {
            let err = build_with(|c| c.sensor.quantization = v);
            assert!(matches!(err, Err(SimError::BadInput(_))), "{v}: {err:?}");
        }
    }

    #[test]
    fn non_finite_sensor_offset_is_rejected() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = build_with(|c| c.sensor.offset = v);
            assert!(matches!(err, Err(SimError::BadInput(_))), "{v}: {err:?}");
        }
    }

    #[test]
    fn invalid_dtm_config_is_an_error_not_a_panic() {
        let dtm = DtmConfig {
            dvfs_min_scale: 1.5,
            ..DtmConfig::default()
        };
        let traces = vec![cool(), cool(), cool(), cool()];
        let err =
            ThermalTimingSim::new(SimConfig::fast_test(), dtm, PolicySpec::baseline(), traces);
        assert!(matches!(err, Err(SimError::BadInput(_))), "{err:?}");
    }

    /// A change to the fast-test chip's configuration.
    type ConfigEdit = fn(&mut SimConfig, &mut DtmConfig);

    /// The initial-state key of a fixed full-power vector on the
    /// fast-test chip, after `edit` changes its configuration.
    fn init_key_with(edit: ConfigEdit) -> InitKey {
        let (mut cfg, mut dtm) = (SimConfig::fast_test(), DtmConfig::default());
        edit(&mut cfg, &mut dtm);
        InitKey::new(vec![1.0, 2.5, 0.25], &cfg, &dtm)
    }

    fn nudge(v: &mut f64) {
        *v = v.next_up();
    }

    #[test]
    fn init_memo_key_covers_every_input_of_the_search() {
        let base = init_key_with(|_, _| {});
        assert!(base.matches(&init_key_with(|_, _| {})), "same inputs");
        let edits: [(&str, ConfigEdit); 8] = [
            ("threshold", |_, d| nudge(&mut d.threshold)),
            ("margin", |c, _| nudge(&mut c.init_hotspot_margin)),
            ("logic_density", |c, _| nudge(&mut c.leakage.logic_density)),
            ("sram_density", |c, _| nudge(&mut c.leakage.sram_density)),
            ("t_ref", |c, _| nudge(&mut c.leakage.t_ref)),
            ("beta", |c, _| nudge(&mut c.leakage.beta)),
            ("cores", |c, _| c.cores = 2),
            ("r_convection", |c, _| nudge(&mut c.package.r_convection)),
        ];
        for (input, edit) in edits {
            assert!(!base.matches(&init_key_with(edit)), "{input} is not keyed");
        }
        let (cfg, dtm) = (SimConfig::fast_test(), DtmConfig::default());
        let other_power = InitKey::new(vec![1.0, 2.5, 0.25f64.next_up()], &cfg, &dtm);
        assert!(!base.matches(&other_power), "p_full is not keyed");
        // Two workloads differ in their full-power vectors.
        let build = |traces| {
            ThermalTimingSim::new(cfg.clone(), dtm, PolicySpec::baseline(), traces)
                .expect("construction")
        };
        let hot = build(vec![hot_int(), cool(), cool(), cool()]).init_key();
        let cold = build(vec![cool(), cool(), cool(), cool()]).init_key();
        assert!(!hot.matches(&cold), "two workloads share a key");
    }

    #[test]
    fn memo_served_initial_state_is_bit_identical_to_a_fresh_search() {
        let policy = spec(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None);
        let build = || {
            let mut cfg = SimConfig::fast_test();
            cfg.duration = 0.01;
            let traces = vec![hot_int(), warm(), hot_fp(), cool()];
            ThermalTimingSim::new(cfg, DtmConfig::default(), policy, traces).expect("build")
        };
        // The first build keeps its search; the second is served it.
        let _ = build();
        let mut served = build();
        let mut fresh = build();
        let p = fresh
            .initial_power(fresh.init_key().p_full())
            .expect("search");
        fresh.thermal.init_steady(&p).expect("init");
        fresh.read_sensors();
        let bits = |s: &ThermalTimingSim| -> Vec<u64> {
            let t = &s.thermal;
            t.node_temps()
                .iter()
                .chain(t.fast_excess())
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&served), bits(&fresh), "initial node temperatures");
        assert_eq!(
            format!("{:?}", served.run().expect("served run")),
            format!("{:?}", fresh.run().expect("fresh run")),
            "a short run from the served initial state"
        );
    }

    #[test]
    fn profiled_run_fills_each_phase_histogram_once_per_timed_step() {
        let mut cfg = SimConfig::fast_test();
        cfg.duration = 0.01;
        let mut sim = ThermalTimingSim::new(
            cfg,
            DtmConfig::default(),
            spec(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
            vec![hot_int(), warm(), hot_fp(), cool()],
        )
        .expect("construction");
        let obs = ObsHandle::enabled_default();
        sim.attach_obs(&obs);
        sim.run().expect("run");
        let p = sim.prof.as_ref().expect("profiled");
        assert_eq!(p.timed_steps, p.steps.div_ceil(TIMED_SAMPLE_STRIDE));
        for (i, name) in ENGINE_PHASES.iter().enumerate() {
            let h = obs.histogram(&format!("dtm_phase_{name}_ns"));
            assert_eq!(h.count(), p.timed_steps, "{name}: records per timed step");
            assert_eq!(h.sum(), p.phase_ns[i], "{name}: the unscaled phase total");
        }
    }

    #[test]
    fn cool_workload_runs_at_full_speed() {
        let r = run_policy(
            spec(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
            vec![cool(), cool(), cool(), cool()],
        );
        assert!(r.duty_cycle > 0.99, "duty = {}", r.duty_cycle);
        assert!(r.emergency_free());
        assert_eq!(r.stalls, 0);
    }

    #[test]
    fn hot_workload_under_dvfs_is_throttled_but_emergency_free() {
        let r = run_policy(
            spec(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
            vec![hot_int(), hot_int(), hot_int(), hot_int()],
        );
        assert!(
            r.duty_cycle < 0.99,
            "should throttle, duty = {}",
            r.duty_cycle
        );
        assert!(r.duty_cycle > 0.2, "duty collapsed: {}", r.duty_cycle);
        assert!(
            r.emergency_time < 0.002,
            "emergency time = {}",
            r.emergency_time
        );
        assert!(r.dvfs_transitions > 0);
    }

    #[test]
    fn hot_workload_under_stop_go_stalls() {
        let r = run_policy(
            spec(
                ThrottleKind::StopGo,
                Scope::Distributed,
                MigrationKind::None,
            ),
            vec![hot_int(), hot_int(), hot_int(), hot_int()],
        );
        assert!(r.stalls > 0);
        assert!(r.duty_cycle < 0.95);
    }

    #[test]
    fn global_stop_go_is_worse_with_asymmetric_load() {
        let asym = vec![hot_int(), warm(), warm(), warm()];
        let dist = run_policy(
            spec(
                ThrottleKind::StopGo,
                Scope::Distributed,
                MigrationKind::None,
            ),
            asym.clone(),
        );
        let global = run_policy(
            spec(ThrottleKind::StopGo, Scope::Global, MigrationKind::None),
            asym,
        );
        assert!(
            global.duty_cycle < dist.duty_cycle,
            "global {} vs dist {}",
            global.duty_cycle,
            dist.duty_cycle
        );
    }

    #[test]
    fn global_dvfs_slows_cool_cores_too() {
        let asym = vec![hot_int(), warm(), warm(), warm()];
        let dist = run_policy(
            spec(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
            asym.clone(),
        );
        let global = run_policy(
            spec(ThrottleKind::Dvfs, Scope::Global, MigrationKind::None),
            asym,
        );
        assert!(
            global.duty_cycle < dist.duty_cycle,
            "global {} vs dist {}",
            global.duty_cycle,
            dist.duty_cycle
        );
    }

    #[test]
    fn dvfs_beats_stop_go_on_hot_workloads() {
        let hot = vec![hot_int(), hot_fp(), hot_int(), hot_fp()];
        let sg = run_policy(
            spec(
                ThrottleKind::StopGo,
                Scope::Distributed,
                MigrationKind::None,
            ),
            hot.clone(),
        );
        let dvfs = run_policy(
            spec(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
            hot,
        );
        assert!(
            dvfs.bips() > sg.bips(),
            "dvfs {} vs stop-go {}",
            dvfs.bips(),
            sg.bips()
        );
    }

    #[test]
    fn counter_migration_fires_on_mixed_workloads() {
        let mixed = vec![hot_int(), hot_int(), hot_fp(), hot_fp()];
        let r = run_policy(
            spec(
                ThrottleKind::Dvfs,
                Scope::Distributed,
                MigrationKind::CounterBased,
            ),
            mixed,
        );
        assert!(r.migrations > 0, "no migrations happened");
    }

    #[test]
    fn sensor_migration_profiles_and_migrates() {
        let mixed = vec![hot_int(), hot_int(), hot_fp(), hot_fp()];
        let r = run_policy(
            spec(
                ThrottleKind::Dvfs,
                Scope::Distributed,
                MigrationKind::SensorBased,
            ),
            mixed,
        );
        assert!(r.migrations > 0, "no migrations happened");
    }

    #[test]
    fn duty_cycle_counts_penalties_as_lost_work() {
        // A workload migrating often must lose some duty to penalties:
        // compare no-migration vs counter-based on identical traces and
        // check duty stays in a sane band.
        let mixed = vec![hot_int(), hot_int(), hot_fp(), hot_fp()];
        let r = run_policy(
            spec(
                ThrottleKind::Dvfs,
                Scope::Distributed,
                MigrationKind::CounterBased,
            ),
            mixed,
        );
        assert!(r.duty_cycle > 0.0 && r.duty_cycle <= 1.0);
    }

    #[test]
    fn unconstrained_threshold_never_throttles() {
        let r = {
            let mut sim = ThermalTimingSim::new(
                SimConfig::fast_test(),
                DtmConfig::unconstrained(),
                PolicySpec::baseline(),
                vec![hot_int(), hot_int(), hot_int(), hot_int()],
            )
            .unwrap();
            sim.run().unwrap()
        };
        assert_eq!(r.stalls, 0);
        assert!((r.duty_cycle - 1.0).abs() < 1e-9);
    }

    #[test]
    fn telemetry_records_run() {
        let mut sim = ThermalTimingSim::new(
            SimConfig::fast_test(),
            DtmConfig::default(),
            PolicySpec::best(),
            vec![hot_int(), hot_int(), hot_fp(), hot_fp()],
        )
        .unwrap();
        sim.attach_telemetry(Telemetry::every(36));
        sim.run().unwrap();
        let tel = sim.take_telemetry().unwrap();
        assert!(tel.records().len() > 10);
        let r = &tel.records()[0];
        assert_eq!(r.sensor_temps.len(), 4);
        assert_eq!(r.scales.len(), 4);
    }

    #[test]
    fn result_is_consistent_mid_run() {
        let mut sim = ThermalTimingSim::new(
            SimConfig::fast_test(),
            DtmConfig::default(),
            PolicySpec::baseline(),
            vec![cool(), cool(), cool(), cool()],
        )
        .unwrap();
        for _ in 0..100 {
            sim.step().unwrap();
        }
        let r = sim.result();
        assert_eq!(r.cores, 4);
        assert!(r.instructions > 0.0);
        assert!(r.duration > 0.0);
    }
}

#[cfg(test)]
mod energy_and_policy_tests {
    use super::*;
    use crate::migration::RotationMigration;
    use crate::policy::MigrationKind;
    use dtm_power::CorePowerSample;
    use dtm_thermal::SensorSpec;

    fn trace(int_rf: f64, fp_rf: f64, base: f64) -> Arc<PowerTrace> {
        let mut s = CorePowerSample::zero();
        s.units = [
            base,
            base,
            base,
            base,
            base,
            base,
            base * 0.5,
            int_rf,
            fp_rf,
            base,
            base * 0.8,
            base,
            base * 0.4,
        ];
        s.l2 = 0.2;
        s.instructions = 150_000;
        s.int_rf_per_cycle = 10.0 * int_rf;
        s.fp_rf_per_cycle = 10.0 * fp_rf;
        Arc::new(PowerTrace::new("t", 1.0e5 / 3.6e9, vec![s]))
    }

    fn quad(int_rf: f64, fp_rf: f64, base: f64) -> Vec<Arc<PowerTrace>> {
        (0..4).map(|_| trace(int_rf, fp_rf, base)).collect()
    }

    #[test]
    fn energy_accumulates_and_scales_with_duration() {
        let mut short = ThermalTimingSim::new(
            SimConfig {
                duration: 0.01,
                ..SimConfig::default()
            },
            DtmConfig::unconstrained(),
            PolicySpec::baseline(),
            quad(1.0, 0.2, 0.4),
        )
        .unwrap();
        let rs = short.run().unwrap();
        let mut long = ThermalTimingSim::new(
            SimConfig {
                duration: 0.02,
                ..SimConfig::default()
            },
            DtmConfig::unconstrained(),
            PolicySpec::baseline(),
            quad(1.0, 0.2, 0.4),
        )
        .unwrap();
        let rl = long.run().unwrap();
        assert!(rs.energy > 0.0);
        // Unthrottled constant workload: energy is close to linear in
        // duration (leakage drifts slightly with temperature).
        let ratio = rl.energy / rs.energy;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
        assert!(rs.avg_power() > 5.0 && rs.avg_power() < 200.0);
    }

    #[test]
    fn throttled_run_uses_less_energy_than_unthrottled() {
        let make = |dtm: DtmConfig| {
            let mut sim = ThermalTimingSim::new(
                SimConfig::fast_test(),
                dtm,
                PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
                quad(2.6, 0.2, 0.6),
            )
            .unwrap();
            sim.run().unwrap()
        };
        let throttled = make(DtmConfig::default());
        let free = make(DtmConfig::unconstrained());
        assert!(throttled.energy < free.energy);
        // And the throttled run is more efficient per instruction (cubic
        // power at sub-nominal voltage).
        assert!(
            throttled.energy_per_instruction_nj() < free.energy_per_instruction_nj(),
            "throttled EPI {} vs free {}",
            throttled.energy_per_instruction_nj(),
            free.energy_per_instruction_nj()
        );
    }

    #[test]
    fn custom_rotation_policy_can_be_injected() {
        let mut sim = ThermalTimingSim::new(
            SimConfig::fast_test(),
            DtmConfig::default(),
            PolicySpec::new(
                ThrottleKind::StopGo,
                Scope::Distributed,
                MigrationKind::CounterBased,
            ),
            quad(2.6, 0.3, 0.6),
        )
        .unwrap();
        sim.set_migration_policy(Box::new(RotationMigration::new()));
        let r = sim.run().unwrap();
        assert!(r.migrations > 0, "rotation never fired");
    }

    #[test]
    fn noisy_sensors_still_regulate() {
        let mut sim = ThermalTimingSim::new(
            SimConfig {
                sensor: SensorSpec {
                    noise_std: 1.0,
                    quantization: 0.5,
                    offset: 0.0,
                },
                ..SimConfig::fast_test()
            },
            DtmConfig::default(),
            PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
            quad(2.6, 0.2, 0.6),
        )
        .unwrap();
        let r = sim.run().unwrap();
        // Regulation holds within the noise amplitude.
        assert!(
            r.emergency_time < 0.1 * r.duration,
            "emergency {}",
            r.emergency_time
        );
        assert!(r.duty_cycle > 0.2);
    }

    #[test]
    fn global_dvfs_keeps_cores_in_lockstep() {
        let mut sim = ThermalTimingSim::new(
            SimConfig::fast_test(),
            DtmConfig::default(),
            PolicySpec::new(ThrottleKind::Dvfs, Scope::Global, MigrationKind::None),
            vec![
                trace(2.6, 0.2, 0.6),
                trace(0.4, 0.1, 0.2),
                trace(0.4, 0.1, 0.2),
                trace(0.4, 0.1, 0.2),
            ],
        )
        .unwrap();
        sim.attach_telemetry(Telemetry::every(100));
        sim.run().unwrap();
        let tel = sim.take_telemetry().unwrap();
        for rec in tel.records() {
            let s0 = rec.scales[0];
            for &s in &rec.scales[1..] {
                // All cores share the single PI controller's output
                // (individual cores may be 0 when paying a penalty).
                if s > 0.0 && s0 > 0.0 {
                    assert!((s - s0).abs() < 1e-12, "scales diverged: {s} vs {s0}");
                }
            }
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::policy::MigrationKind;
    use dtm_faults::{FaultEvent, FaultKind, FaultTarget};
    use dtm_power::CorePowerSample;

    fn trace(int_rf: f64, fp_rf: f64, base: f64) -> Arc<PowerTrace> {
        let mut s = CorePowerSample::zero();
        s.units = [
            base,
            base,
            base,
            base,
            base,
            base,
            base * 0.5,
            int_rf,
            fp_rf,
            base,
            base * 0.8,
            base,
            base * 0.4,
        ];
        s.l2 = 0.2;
        s.instructions = 200_000;
        s.int_rf_per_cycle = 10.0 * int_rf;
        s.fp_rf_per_cycle = 10.0 * fp_rf;
        Arc::new(PowerTrace::new("t", 1.0e5 / 3.6e9, vec![s]))
    }

    fn quad_hot() -> Vec<Arc<PowerTrace>> {
        (0..4).map(|_| trace(2.6, 0.2, 0.6)).collect()
    }

    fn dist_dvfs() -> PolicySpec {
        PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None)
    }

    fn sim(policy: PolicySpec, faults: &FaultConfig) -> ThermalTimingSim {
        let mut sim = ThermalTimingSim::new(
            SimConfig::fast_test(),
            DtmConfig::default(),
            policy,
            quad_hot(),
        )
        .expect("construction");
        sim.set_fault_config(faults);
        sim
    }

    #[test]
    fn ideal_fault_config_is_bit_identical_to_fault_free() {
        // The acceptance bar for the whole subsystem: installing the
        // ideal FaultConfig must not perturb a single bit of the result,
        // so fault-free sweep cells keep their cached contents.
        let mut plain = ThermalTimingSim::new(
            SimConfig::fast_test(),
            DtmConfig::default(),
            dist_dvfs(),
            quad_hot(),
        )
        .unwrap();
        let a = plain.run().unwrap();
        let b = sim(dist_dvfs(), &FaultConfig::ideal()).run().unwrap();
        assert_eq!(a.duty_cycle.to_bits(), b.duty_cycle.to_bits());
        assert_eq!(a.max_temp.to_bits(), b.max_temp.to_bits());
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        assert_eq!(a.instructions.to_bits(), b.instructions.to_bits());
        assert_eq!(a, b);
    }

    #[test]
    fn stuck_hot_sensor_latches_fallback_within_one_control_period() {
        let fault_start = 0.01;
        let cfg = FaultConfig::protected(
            FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, fault_start),
            WatchdogConfig::enabled(),
        );
        let mut s = sim(dist_dvfs(), &cfg);
        let dt = 1.0e5 / 3.6e9;
        while s.time() < fault_start + 1.5 * dt {
            s.step().unwrap();
        }
        assert!(
            s.watchdog_fallback().unwrap()[0],
            "watchdog did not latch within one control period of the fault"
        );
        let r = s.run().unwrap();
        assert!(r.robustness.fallback_entries >= 1);
        assert!(r.robustness.watchdog_flags > 0);
        assert!(
            r.robustness.fallback_time > 0.8 * (r.duration - fault_start),
            "fallback_time {} for a permanent fault over {}",
            r.robustness.fallback_time,
            r.duration - fault_start
        );
        assert_eq!(
            r.robustness.violation_time, 0.0,
            "limp-home mode overheated"
        );
        // Limp-home clamps the chip, so throughput is sacrificed while
        // the true temperature sits safely low: false throttle time.
        assert!(r.robustness.false_throttle_time > 0.0);
    }

    #[test]
    fn stuck_cold_chip_without_watchdog_overheats() {
        // All sensors frozen at a comfortable reading, no safety net:
        // the controller sees no reason to throttle and the true
        // temperature sails past the threshold.
        let cfg = FaultConfig::unprotected(FaultScenario::new(
            "stuck-cold",
            vec![FaultEvent::permanent(
                0.0,
                FaultTarget::Chip,
                FaultKind::SensorStuck { value: 60.0 },
            )],
        ));
        let r = sim(dist_dvfs(), &cfg).run().unwrap();
        assert!(
            r.robustness.violation_time > 0.0,
            "stuck-cold sensors should cook the chip"
        );
        assert!(r.robustness.peak_overshoot > 0.0);
        assert_eq!(r.emergency_time, 0.0, "the sensors never admit it");
        assert_eq!(r.robustness.fallback_time, 0.0, "no watchdog installed");
    }

    #[test]
    fn dropout_without_watchdog_stops_throttling() {
        // NaN readings defeat every `hot >= trip` comparison: ungraceful
        // degradation by design.
        let cfg = FaultConfig::unprotected(FaultScenario::new(
            "dropout-chip",
            vec![FaultEvent::permanent(
                0.0,
                FaultTarget::Chip,
                FaultKind::SensorDropout,
            )],
        ));
        let faulty = sim(dist_dvfs(), &cfg).run().unwrap();
        let clean = sim(dist_dvfs(), &FaultConfig::ideal()).run().unwrap();
        assert!(
            faulty.duty_cycle > clean.duty_cycle,
            "blind chip should run unthrottled: {} vs {}",
            faulty.duty_cycle,
            clean.duty_cycle
        );
        assert!(faulty.robustness.violation_time > 0.0);
    }

    #[test]
    fn stopgo_last_good_fallback_trades_overshoot_for_throughput() {
        // A sensor stuck at 150 °C under distributed stop-go with no
        // watchdog stalls its core forever (the reading never drops
        // below trip). The stop-go-on-last-good fallback filters the
        // lie and keeps the core running on its last plausible
        // temperature — buying throughput at the cost of a small,
        // bounded true-temperature overshoot while the frozen last-good
        // value understates the heating.
        let policy = PolicySpec::new(
            ThrottleKind::StopGo,
            Scope::Distributed,
            MigrationKind::None,
        );
        let fault_start = 0.01;
        let scenario = FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, fault_start);
        let unprotected = sim(policy, &FaultConfig::unprotected(scenario.clone()))
            .run()
            .unwrap();
        let protected = sim(
            policy,
            &FaultConfig::protected(scenario, WatchdogConfig::enabled_stopgo()),
        )
        .run()
        .unwrap();
        assert!(protected.robustness.fallback_time > 0.0);
        assert!(
            protected.duty_cycle > unprotected.duty_cycle,
            "fallback should outperform a permanently stalled core: {} vs {}",
            protected.duty_cycle,
            unprotected.duty_cycle
        );
        let exposed = protected.duration - fault_start;
        assert!(
            protected.robustness.violation_time < 0.2 * exposed,
            "overshoot must stay bounded: {} of {} s exposed",
            protected.robustness.violation_time,
            exposed
        );
    }

    #[test]
    fn gate_ignored_fault_defeats_stop_go() {
        let cfg = FaultConfig::unprotected(FaultScenario::new(
            "gate-ignored",
            vec![FaultEvent::permanent(
                0.0,
                FaultTarget::Chip,
                FaultKind::GateIgnored,
            )],
        ));
        let policy = PolicySpec::new(
            ThrottleKind::StopGo,
            Scope::Distributed,
            MigrationKind::None,
        );
        let broken = sim(policy, &cfg).run().unwrap();
        let healthy = sim(policy, &FaultConfig::ideal()).run().unwrap();
        assert!(broken.stalls > 0, "stalls are still issued and counted");
        assert!(
            broken.duty_cycle > healthy.duty_cycle,
            "ignored gates should keep the cores running: {} vs {}",
            broken.duty_cycle,
            healthy.duty_cycle
        );
        assert!(broken.robustness.violation_time > healthy.robustness.violation_time);
    }

    #[test]
    fn dvfs_stuck_core_keeps_its_pre_fault_scale() {
        let fault_start = 0.0;
        let cfg = FaultConfig::unprotected(FaultScenario::new(
            "dvfs-stuck",
            vec![FaultEvent::permanent(
                fault_start,
                FaultTarget::Core { core: 0 },
                FaultKind::DvfsStuck,
            )],
        ));
        let mut s = sim(dist_dvfs(), &cfg);
        s.attach_telemetry(Telemetry::every(36));
        s.run().unwrap();
        let tel = s.take_telemetry().unwrap();
        // Core 0's actuator froze at its initial scale (1.0); the
        // healthy cores throttle below it on this hot workload.
        let last = tel.records().last().unwrap();
        assert!(
            (last.scales[0] - 1.0).abs() < 1e-12 || last.scales[0] == 0.0,
            "stuck core should hold its pre-fault scale, got {}",
            last.scales[0]
        );
        let healthy_throttled = tel
            .records()
            .iter()
            .any(|r| r.scales[1] > 0.0 && r.scales[1] < 0.9);
        assert!(healthy_throttled, "healthy cores never throttled");
    }

    #[test]
    fn telemetry_reports_fallback_latch() {
        let cfg = FaultConfig::protected(
            FaultScenario::stuck_sensor("stuck-hot", 2, 1, 150.0, 0.01),
            WatchdogConfig::enabled(),
        );
        let mut s = sim(dist_dvfs(), &cfg);
        s.attach_telemetry(Telemetry::every(36));
        s.run().unwrap();
        let tel = s.take_telemetry().unwrap();
        assert!(tel.records().iter().all(|r| r.in_fallback.len() == 4));
        assert!(tel.records().iter().any(|r| r.in_fallback[2]));
        assert!(tel.records().iter().all(|r| !r.in_fallback[0]));
    }
}

#[cfg(test)]
mod asymmetric_tests {
    use super::*;
    use crate::policy::MigrationKind;
    use dtm_power::CorePowerSample;

    fn trace() -> Arc<PowerTrace> {
        let mut s = CorePowerSample::zero();
        s.units = [0.3; dtm_power::N_CORE_UNITS];
        s.instructions = 150_000;
        Arc::new(PowerTrace::new("t", 1.0e5 / 3.6e9, vec![s]))
    }

    #[test]
    fn asymmetric_ceilings_cap_throughput() {
        let cfg = SimConfig {
            duration: 0.01,
            core_max_scale: vec![1.0, 1.0, 0.5, 0.5],
            ..SimConfig::default()
        };
        let mut sim = ThermalTimingSim::new(
            cfg,
            DtmConfig::unconstrained(),
            PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
            (0..4).map(|_| trace()).collect(),
        )
        .unwrap();
        let r = sim.run().unwrap();
        // Two full cores + two half-speed cores, unthrottled: duty = 75%.
        assert!((r.duty_cycle - 0.75).abs() < 0.01, "duty {}", r.duty_cycle);
        let full = r.threads[0].scaled_work;
        let slow = r.threads[2].scaled_work;
        assert!((slow / full - 0.5).abs() < 0.02);
    }

    #[test]
    fn mismatched_ceiling_vector_is_rejected() {
        let cfg = SimConfig {
            core_max_scale: vec![1.0, 0.5],
            ..SimConfig::fast_test()
        };
        let err = ThermalTimingSim::new(
            cfg,
            DtmConfig::default(),
            PolicySpec::baseline(),
            (0..4).map(|_| trace()).collect(),
        );
        assert!(matches!(err, Err(SimError::BadInput(_))));
    }

    #[test]
    fn out_of_range_ceiling_is_rejected() {
        let cfg = SimConfig {
            core_max_scale: vec![1.0, 1.5, 1.0, 1.0],
            ..SimConfig::fast_test()
        };
        let err = ThermalTimingSim::new(
            cfg,
            DtmConfig::default(),
            PolicySpec::baseline(),
            (0..4).map(|_| trace()).collect(),
        );
        assert!(matches!(err, Err(SimError::BadInput(_))));
    }
}

//! Mapping wire requests onto experiment cells.
//!
//! A [`SimRequest`] is untrusted input: every field is validated here,
//! and the output is exactly the `(Workload, PolicySpec, ConfigVariant)`
//! triple the sweep harness runs — so a served simulation is
//! bit-identical to the same cell run by `SweepRunner`, shares its
//! content address, and therefore shares its cache entries.

use dtm_core::{DtmConfig, FaultConfig, FaultKind, GainScheduleConfig, PolicySpec, SimConfig};
use dtm_harness::codec::struct_codec;
use dtm_harness::ConfigVariant;
use dtm_workloads::Workload;

/// Widest simulated duration a request may ask for (s). The paper's
/// runs are 0.5 s; ten times that bounds worst-case worker occupancy
/// per request without constraining any legitimate experiment.
pub const MAX_DURATION_S: f64 = 5.0;

/// Most cores a request may configure.
pub const MAX_CORES: usize = 64;

/// Most fault events a request may schedule.
pub const MAX_FAULT_EVENTS: usize = 64;

/// Longest fault-scenario name a request may carry (bytes).
pub const MAX_SCENARIO_NAME: usize = 64;

/// Longest stale-telemetry delay a request may schedule (s). A stale
/// fault keeps that much reading history per afflicted sensor, so the
/// bound caps a request's memory as [`MAX_DURATION_S`] caps its time.
pub const MAX_STALE_DELAY_S: f64 = 0.5;

/// One simulation request, as decoded from the wire.
///
/// `workload` names a standard Table 4 workload by id (or display
/// name); `benchmarks` instead spells out an explicit 4-tuple of
/// catalog benchmarks. Every field goes through the harness codec, so
/// `dtm` and `faults` carry whole configs and a field the request does
/// not know is an error; everything absent stays at the server default,
/// so a bare `{"workload":"...","policy":"..."}` request is a
/// paper-default cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimRequest {
    /// Standard workload id or display name (exclusive with
    /// `benchmarks`).
    pub workload: Option<String>,
    /// Explicit benchmark names (exclusive with `workload`).
    pub benchmarks: Option<Vec<String>>,
    /// Policy triple in wire spelling, e.g. `dvfs/dist/sensor`.
    pub policy: String,
    /// Simulated duration override (s).
    pub duration_s: Option<f64>,
    /// Core-count override.
    pub cores: Option<usize>,
    /// Sensor-noise seed override.
    pub seed: Option<u64>,
    /// Deadline in ms: if no worker has started the request this long
    /// after admission, the server abandons it with a timeout response.
    pub deadline_ms: Option<u64>,
    /// The cell's DTM configuration (paper defaults when absent).
    pub dtm: Option<DtmConfig>,
    /// The cell's robustness configuration (ideal when absent).
    pub faults: Option<FaultConfig>,
}

struct_codec!(SimRequest; workload, benchmarks, policy, duration_s, cores, seed, deadline_ms,
    dtm, faults);

impl SimRequest {
    /// A paper-default request for a standard workload and wire policy.
    pub fn standard(workload: &str, policy: &str) -> Self {
        SimRequest {
            workload: Some(workload.to_string()),
            policy: policy.to_string(),
            ..SimRequest::default()
        }
    }

    /// Validates the request against a base configuration and resolves
    /// it into the exact cell the sweep harness would run.
    ///
    /// # Errors
    ///
    /// Describes the first invalid field — unknown workload/benchmark,
    /// a benchmark count other than the core count, unparsable policy, a
    /// value outside the wire's bounds, or a DTM config that
    /// [`DtmConfig::validate`] rejects.
    pub fn resolve(&self, base_sim: &SimConfig) -> Result<ResolvedRequest, String> {
        let mut sim = base_sim.clone();
        if let Some(c) = self.cores {
            if c == 0 || c > MAX_CORES {
                return Err(format!("cores {c} out of range [1, {MAX_CORES}]"));
            }
            sim.cores = c;
        }
        // One benchmark per core. An explicit list is checked before any
        // name is resolved: until here only the frame size bounds it.
        let per_core = |n: usize| {
            if n == sim.cores {
                Ok(())
            } else {
                Err(format!("{n} benchmarks for {} cores", sim.cores))
            }
        };
        let workload = match (&self.workload, &self.benchmarks) {
            (Some(_), Some(_)) => {
                return Err("request names both `workload` and `benchmarks`".to_string())
            }
            (Some(name), None) => {
                let w = Workload::standard(name)
                    .ok_or_else(|| format!("unknown standard workload `{name}`"))?;
                per_core(w.benchmarks.len())?;
                w
            }
            (None, Some(names)) => {
                per_core(names.len())?;
                Workload::try_from_names(names.join("-"), names)?
            }
            (None, None) => {
                return Err("request names neither `workload` nor `benchmarks`".to_string())
            }
        };
        let policy = PolicySpec::parse_wire(&self.policy)?;

        if let Some(d) = self.duration_s {
            if !d.is_finite() || d <= 0.0 || d > MAX_DURATION_S {
                return Err(format!("duration_s {d} out of range (0, {MAX_DURATION_S}]"));
            }
            sim.duration = d;
        }
        if let Some(s) = self.seed {
            sim.seed = s;
        }

        let dtm = self.dtm.unwrap_or_default();
        check_dtm(&dtm)?;
        let faults = self.faults.clone().unwrap_or_default();
        check_faults(&faults)?;

        let variant = ConfigVariant::new("serve", sim, dtm).with_faults(faults);
        Ok(ResolvedRequest {
            workload,
            policy,
            variant,
        })
    }
}

/// Checks every number of a requested DTM config against the wire's
/// bounds (which also rule out NaN and the infinities), then runs
/// [`DtmConfig::validate`].
fn check_dtm(d: &DtmConfig) -> Result<(), String> {
    let DtmConfig {
        threshold,
        stopgo_trip_margin,
        stopgo_stall,
        dvfs_setpoint_margin,
        dvfs_min_scale,
        dvfs_min_transition,
        dvfs_transition_penalty,
        migration_penalty,
        os_tick,
        migration_interval,
        pi_kp,
        pi_ki,
        gain_schedule,
    } = *d;
    let schedule = match gain_schedule {
        GainScheduleConfig::Fixed => vec![],
        GainScheduleConfig::Rao { alpha, tau_s } => vec![
            ("gain_schedule.alpha", alpha, 0.0, 4.0),
            ("gain_schedule.tau_s", tau_s, 1e-6, 1.0),
        ],
        GainScheduleConfig::SelfTuning { rate, window_s } => vec![
            ("gain_schedule.rate", rate, 0.0, 1.0),
            ("gain_schedule.window_s", window_s, 1e-6, 1.0),
        ],
    };
    let bounds = [
        ("threshold", threshold, 40.0, 150.0),
        ("stopgo_trip_margin", stopgo_trip_margin, 0.01, 10.0),
        ("stopgo_stall", stopgo_stall, 1e-4, 1.0),
        ("dvfs_setpoint_margin", dvfs_setpoint_margin, 0.1, 20.0),
        ("dvfs_min_scale", dvfs_min_scale, 0.05, 0.95),
        ("dvfs_min_transition", dvfs_min_transition, 0.0, 0.5),
        (
            "dvfs_transition_penalty",
            dvfs_transition_penalty,
            0.0,
            1e-3,
        ),
        ("migration_penalty", migration_penalty, 0.0, 1e-2),
        ("os_tick", os_tick, 1e-4, 0.1),
        ("migration_interval", migration_interval, 1e-4, 1.0),
        ("pi_kp", pi_kp, 1e-6, 10.0),
        ("pi_ki", pi_ki, 1e-3, 1e5),
    ];
    for (name, v, lo, hi) in bounds.into_iter().chain(schedule) {
        if !(lo..=hi).contains(&v) {
            return Err(format!("dtm {name} {v} out of range [{lo}, {hi}]"));
        }
    }
    d.validate().map_err(|e| e.to_string())
}

/// Checks a requested fault config against the wire's bounds: event
/// count, name length, stale delay, and no NaN anywhere. Only an
/// event's `end` and the watchdog's two thresholds may be infinite
/// (a permanent fault; a disabled watchdog).
fn check_faults(f: &FaultConfig) -> Result<(), String> {
    let FaultConfig { scenario, watchdog } = f;
    if scenario.name.len() > MAX_SCENARIO_NAME {
        return Err(format!(
            "fault scenario name of {} bytes exceeds {MAX_SCENARIO_NAME}",
            scenario.name.len()
        ));
    }
    if scenario.events.len() > MAX_FAULT_EVENTS {
        return Err(format!(
            "{} fault events exceed {MAX_FAULT_EVENTS}",
            scenario.events.len()
        ));
    }
    for (i, e) in scenario.events.iter().enumerate() {
        let param = match e.kind {
            FaultKind::SensorStuck { value } => value,
            FaultKind::SensorDrift { rate } => rate,
            FaultKind::SensorSpike { amplitude } => amplitude,
            FaultKind::SensorStale { delay } => {
                if !(0.0..=MAX_STALE_DELAY_S).contains(&delay) {
                    return Err(format!(
                        "fault event {i}: stale delay {delay} out of range [0, {MAX_STALE_DELAY_S}]"
                    ));
                }
                delay
            }
            FaultKind::SensorDropout | FaultKind::DvfsStuck | FaultKind::GateIgnored => 0.0,
        };
        if !(e.start.is_finite() && param.is_finite()) || e.end.is_nan() {
            return Err(format!(
                "fault event {i}: start {} and parameter {param} must be finite, end {} a number",
                e.start, e.end
            ));
        }
    }
    if watchdog.max_step.is_nan() || watchdog.max_deviation.is_nan() {
        return Err("watchdog max_step and max_deviation must not be NaN".to_string());
    }
    if !watchdog.min_hold.is_finite() {
        return Err(format!(
            "watchdog min_hold {} is not finite",
            watchdog.min_hold
        ));
    }
    Ok(())
}

/// A request resolved into the cell the harness vocabulary describes.
#[derive(Debug, Clone)]
pub struct ResolvedRequest {
    /// The workload to run.
    pub workload: Workload,
    /// The DTM policy.
    pub policy: PolicySpec,
    /// Configuration variant (sim + dtm + faults).
    pub variant: ConfigVariant,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use dtm_core::{FallbackKind, FaultEvent, FaultScenario, FaultTarget, WatchdogConfig};
    use dtm_harness::codec::JsonCodec;
    use proptest::prelude::*;
    use FaultKind::*;
    use GainScheduleConfig::{Fixed, Rao, SelfTuning};

    /// `value`'s JSON decoded by `T::read` with no tree, spelled by
    /// `Debug`.
    fn read_back<T: JsonCodec + std::fmt::Debug>(value: &T) -> String {
        let text = value.to_json().emit();
        let mut r = dtm_harness::json::Reader::new(&text);
        let back = T::read(&mut r).unwrap();
        r.finish().unwrap();
        format!("{back:?}")
    }

    fn std_req() -> SimRequest {
        SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
    }

    /// The `simulate` frame's text, as a client sends it.
    fn frame(req: &SimRequest) -> String {
        String::from_utf8(Request::Simulate(Box::new(req.clone())).encode()).unwrap()
    }

    /// The frame of the standard request after `edit`.
    fn edited(edit: impl Fn(&mut SimRequest)) -> String {
        let mut req = std_req();
        edit(&mut req);
        frame(&req)
    }

    /// The frame of the standard request carrying the paper-default
    /// `dtm` after `edit`.
    fn dtm_frame(edit: impl Fn(&mut DtmConfig)) -> String {
        let mut dtm = DtmConfig::default();
        edit(&mut dtm);
        edited(|r| r.dtm = Some(dtm))
    }

    /// Decodes a frame's text, as the server does.
    fn decode(text: &str) -> Result<SimRequest, String> {
        match Request::decode(text.as_bytes())? {
            Request::Simulate(req) => Ok(*req),
            other => panic!("not a simulate frame: {other:?}"),
        }
    }

    /// Decodes a frame's text and resolves it, as the server does.
    fn serve(text: &str, base: &SimConfig) -> Result<ResolvedRequest, String> {
        decode(text)?.resolve(base)
    }

    /// Asserts each frame is answered with an error naming its needle.
    fn assert_rejected(cases: &[(String, &str)]) {
        for (text, needle) in cases {
            let err = serve(text, &SimConfig::default()).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    /// A drift plus a permanent stuck DVFS level, under a watchdog.
    fn custom_faults() -> FaultConfig {
        let drift = FaultEvent {
            start: 0.002,
            end: 0.006,
            target: FaultTarget::Sensor { core: 1, index: 0 },
            kind: SensorDrift { rate: -40.0 },
        };
        let stuck = FaultEvent::permanent(0.004, FaultTarget::Core { core: 2 }, DvfsStuck);
        let scenario = FaultScenario::new("custom", vec![drift, stuck]);
        FaultConfig::protected(scenario, WatchdogConfig::enabled())
    }

    #[test]
    fn wire_round_trip_preserves_every_field() {
        let req = SimRequest {
            workload: None,
            benchmarks: Some(vec![
                "gzip".into(),
                "mcf".into(),
                "ammp".into(),
                "art".into(),
            ]),
            policy: "dvfs/dist/sensor".into(),
            duration_s: Some(0.25),
            cores: Some(4),
            seed: Some(7),
            deadline_ms: Some(500),
            dtm: Some(DtmConfig {
                threshold: 90.0,
                dvfs_min_scale: 0.5,
                gain_schedule: Rao {
                    alpha: 1.5,
                    tau_s: 0.003,
                },
                ..DtmConfig::default()
            }),
            faults: Some(custom_faults()),
        };
        assert_eq!(decode(&frame(&req)).unwrap(), req);
    }

    #[test]
    fn simulate_frame_bytes_are_pinned() {
        // The bytes a client sends; a change here is a protocol change.
        assert_eq!(
            frame(&std_req()),
            r#"{"verb":"simulate","workload":"gzip-twolf-ammp-lucas","policy":"dvfs/dist/sensor"}"#
        );
        // Every field set, `workload` and `benchmarks` both (which
        // `resolve` rejects, but the encoder writes).
        let full = SimRequest {
            workload: Some("workload1".into()),
            benchmarks: vec!["gzip".into(), "mcf".into(), "ammp".into(), "art".into()].into(),
            policy: "dvfs/dist/sensor".into(),
            duration_s: Some(0.25),
            cores: Some(4),
            seed: Some(7),
            deadline_ms: Some(500),
            dtm: Some(DtmConfig {
                threshold: 90.0,
                gain_schedule: Rao {
                    alpha: 1.5,
                    tau_s: 0.003,
                },
                ..DtmConfig::default()
            }),
            faults: Some(custom_faults()),
        };
        let bytes = concat!(
            r#"{"verb":"simulate","workload":"workload1","#,
            r#""benchmarks":["gzip","mcf","ammp","art"],"policy":"dvfs/dist/sensor","#,
            r#""duration_s":0.25,"cores":4,"seed":7,"deadline_ms":500,"#,
            r#""dtm":{"threshold":90.0,"stopgo_trip_margin":0.2,"stopgo_stall":0.03,"#,
            r#""dvfs_setpoint_margin":2.4,"dvfs_min_scale":0.2,"dvfs_min_transition":0.02,"#,
            r#""dvfs_transition_penalty":1e-5,"migration_penalty":0.0001,"os_tick":0.001,"#,
            r#""migration_interval":0.01,"pi_kp":0.0107,"pi_ki":248.5,"#,
            r#""gain_schedule":{"type":"Rao","alpha":1.5,"tau_s":0.003}},"#,
            r#""faults":{"scenario":{"name":"custom","events":["#,
            r#"{"start":0.002,"end":0.006,"target":{"type":"Sensor","core":1,"index":0},"#,
            r#""kind":{"type":"SensorDrift","rate":-40.0}},"#,
            r#"{"start":0.004,"end":inf,"target":{"type":"Core","core":2},"#,
            r#""kind":{"type":"DvfsStuck"}}]},"#,
            r#""watchdog":{"enabled":true,"max_step":6.0,"max_deviation":40.0,"#,
            r#""fallback":{"type":"FreqFloor"},"min_hold":0.001}}}"#,
        );
        assert_eq!(frame(&full), bytes);
    }

    /// A `DtmConfig` and a `FaultConfig` built from raw draws, reaching
    /// every variant and any non-NaN `f64` (bit patterns of every
    /// magnitude, subnormals, `-0.0`, both infinities), plus the
    /// infinities of a permanent event's `end` and a disabled watchdog.
    fn configs(draws: &[(usize, u64)], events: usize) -> (DtmConfig, FaultConfig) {
        let f = |i: usize| match draws[i] {
            (0, _) => f64::INFINITY,
            (1, _) => f64::NEG_INFINITY,
            (2, _) => -0.0,
            (3, bits) => f64::from_bits(bits >> 12),
            (_, bits) if f64::from_bits(bits).is_nan() => f64::from_bits(bits >> 2),
            (_, bits) => f64::from_bits(bits),
        };
        let p = |i: usize, n: usize| (draws[i].1 >> 32) as usize % n;
        let schedules = [
            Fixed,
            Rao {
                alpha: f(12),
                tau_s: f(13),
            },
            SelfTuning {
                rate: f(12),
                window_s: f(13),
            },
        ];
        let dtm = DtmConfig {
            threshold: f(0),
            stopgo_trip_margin: f(1),
            stopgo_stall: f(2),
            dvfs_setpoint_margin: f(3),
            dvfs_min_scale: f(4),
            dvfs_min_transition: f(5),
            dvfs_transition_penalty: f(6),
            migration_penalty: f(7),
            os_tick: f(8),
            migration_interval: f(9),
            pi_kp: f(10),
            pi_ki: f(11),
            gain_schedule: schedules[p(12, 3)],
        };
        let events = (0..events).map(|e| {
            let i = 14 + 4 * e;
            let (core, index, x) = (p(i, 64), p(i + 1, 2), f(i + 2));
            let targets = [
                FaultTarget::Sensor { core, index },
                FaultTarget::Core { core },
                FaultTarget::Chip,
            ];
            let kinds = [
                SensorStuck { value: x },
                SensorDrift { rate: x },
                SensorDropout,
                SensorSpike { amplitude: x },
                SensorStale { delay: x },
                DvfsStuck,
                GateIgnored,
            ];
            let (target, kind) = (targets[p(i + 2, 3)], kinds[p(i + 3, 7)]);
            match p(i + 3, 2) {
                0 => FaultEvent::permanent(f(i), target, kind),
                _ => FaultEvent {
                    start: f(i),
                    end: f(i + 3),
                    target,
                    kind,
                },
            }
        });
        let watchdog = match p(30, 3) {
            0 => WatchdogConfig::disabled(),
            on => WatchdogConfig {
                enabled: on == 1,
                max_step: f(30),
                max_deviation: f(31),
                fallback: [FallbackKind::FreqFloor, FallbackKind::StopGoLastGood][p(31, 2)],
                min_hold: f(32),
            },
        };
        // Quotes, escapes, control and non-ASCII characters.
        let name = format!("sc\"\\\n{}", char::from_u32(p(32, 0x300) as u32).unwrap());
        let scenario = FaultScenario::new(name, events.collect());
        (dtm, FaultConfig { scenario, watchdog })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every `DtmConfig` and `FaultConfig` survives the wire bit for
        /// bit. `{:?}` spells an `f64` exactly (shortest round trip, the
        /// sign of zero kept), so equal spellings are equal bits — and
        /// equal cache-key preimages.
        #[test]
        fn dtm_and_fault_configs_round_trip_bit_for_bit(
            draws in proptest::collection::vec((0usize..8, 0u64..u64::MAX), 33..34),
            events in 0usize..5,
        ) {
            let (dtm, faults) = configs(&draws, events);
            let req = SimRequest { dtm: Some(dtm), faults: Some(faults), ..std_req() };
            let back = decode(&frame(&req)).unwrap();
            prop_assert_eq!(format!("{back:?}"), format!("{req:?}"));
            // `read` decodes both alike; their enums go through its
            // default, the tree.
            let (dtm, faults) = (req.dtm.unwrap(), req.faults.unwrap());
            prop_assert_eq!(read_back(&dtm), format!("{dtm:?}"));
            prop_assert_eq!(read_back(&faults), format!("{faults:?}"));
        }
    }

    #[test]
    fn schedule_requests_resolve_into_the_dtm_config() {
        let base = SimConfig::fast_test();
        let adaptive = SelfTuning {
            rate: 0.3,
            window_s: 0.004,
        };
        for schedule in [GainScheduleConfig::rao_default(), adaptive, Fixed] {
            let r = serve(&dtm_frame(|d| d.gain_schedule = schedule), &base).unwrap();
            assert_eq!(r.variant.dtm.gain_schedule, schedule);
        }
        // An explicit paper-default `dtm` and an absent one resolve
        // identically.
        let explicit = serve(&dtm_frame(|_| {}), &base).unwrap().variant.dtm;
        assert_eq!(explicit, std_req().resolve(&base).unwrap().variant.dtm);
    }

    #[test]
    fn bad_schedules_are_rejected() {
        let fixed = dtm_frame(|_| {});
        let retag = |tag: &str| fixed.replace(r#""type":"Fixed""#, tag);
        let schedule = |s: GainScheduleConfig| dtm_frame(|d| d.gain_schedule = s);
        assert_rejected(&[
            (
                retag(r#""type":"BangBang""#),
                "unknown GainScheduleConfig `BangBang`",
            ),
            // Adaptation parameters exist only on an adaptive schedule.
            (retag(r#""type":"Fixed","alpha":0.5"#), "field `alpha`"),
            (
                retag(r#""type":"Fixed","window_s":0.01"#),
                "field `window_s`",
            ),
            (
                schedule(Rao {
                    alpha: f64::NAN,
                    tau_s: 2e-3,
                }),
                "gain_schedule.alpha NaN",
            ),
            (
                schedule(SelfTuning {
                    rate: 1.0,
                    window_s: 2e-3,
                }),
                "finite in [0, 1)",
            ),
            (
                schedule(Rao {
                    alpha: 1.0,
                    tau_s: 5.0,
                }),
                "gain_schedule.tau_s 5",
            ),
        ]);
    }

    #[test]
    fn knob_overrides_land_in_the_dtm_config() {
        let dtm = DtmConfig {
            pi_kp: 0.02,
            dvfs_setpoint_margin: 1.2,
            migration_interval: 0.05,
            dvfs_min_scale: 0.5,
            migration_penalty: 2e-4,
            ..DtmConfig::default()
        };
        let r = serve(&dtm_frame(|d| *d = dtm), &SimConfig::fast_test()).unwrap();
        assert_eq!(r.variant.dtm, dtm);
    }

    #[test]
    fn bad_knobs_are_rejected() {
        assert_rejected(&[
            (dtm_frame(|d| d.pi_kp = f64::INFINITY), "pi_kp"),
            (dtm_frame(|d| d.pi_ki = -1.0), "pi_ki"),
            (dtm_frame(|d| d.os_tick = 0.5), "os_tick"),
            (
                dtm_frame(|d| (d.os_tick, d.migration_interval) = (0.02, 0.001)),
                "at least one OS tick",
            ),
            // Every other `DtmConfig` number is bounded too.
            (dtm_frame(|d| d.dvfs_min_scale = 0.99), "dvfs_min_scale"),
            (
                dtm_frame(|d| d.dvfs_min_transition = 0.9),
                "dvfs_min_transition",
            ),
            (
                dtm_frame(|d| d.dvfs_transition_penalty = 1.0),
                "dvfs_transition",
            ),
            (
                dtm_frame(|d| d.migration_penalty = -1e-4),
                "migration_penalty",
            ),
        ]);
    }

    #[test]
    fn bare_requests_resolve_to_server_defaults() {
        let req = std_req();
        let base = SimConfig::fast_test();
        let r = req.resolve(&base).unwrap();
        assert_eq!(r.workload.display_name(), "gzip-twolf-ammp-lucas");
        assert_eq!(r.policy, PolicySpec::best());
        assert!((r.variant.sim.duration - base.duration).abs() < 1e-15);
        assert!(r.variant.faults.is_ideal());
        assert_eq!(r.variant.dtm, DtmConfig::default());
    }

    #[test]
    fn overrides_land_in_the_variant() {
        let faults = FaultConfig::protected(
            FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, 0.025),
            WatchdogConfig::enabled(),
        );
        let req = SimRequest {
            duration_s: Some(0.125),
            seed: Some(42),
            dtm: Some(DtmConfig::with_threshold(100.0)),
            faults: Some(faults.clone()),
            ..SimRequest::standard("gzip-twolf-ammp-lucas", "stopgo/global/none")
        };
        let r = serve(&frame(&req), &SimConfig::default()).unwrap();
        assert!((r.variant.sim.duration - 0.125).abs() < 1e-15);
        assert_eq!(r.variant.sim.seed, 42);
        assert!((r.variant.dtm.threshold - 100.0).abs() < 1e-12);
        assert_eq!(r.variant.faults, faults);
    }

    #[test]
    fn invalid_requests_are_rejected_with_reasons() {
        let meltdown = edited(|r| r.faults = Some(custom_faults()))
            .replace(r#""type":"DvfsStuck""#, r#""type":"Meltdown""#);
        assert_rejected(&[
            (frame(&SimRequest::default()), "neither"),
            (
                edited(|r| r.workload = Some("no-such".into())),
                "unknown standard workload",
            ),
            (edited(|r| r.policy = "warp/dist/none".into()), "throttle"),
            (edited(|r| r.duration_s = Some(1e9)), "out of range"),
            (edited(|r| r.cores = Some(0)), "out of range"),
            (dtm_frame(|d| d.threshold = f64::NAN), "out of range"),
            (meltdown, "unknown FaultKind `Meltdown`"),
            (edited(|r| r.benchmarks = Some(vec!["gzip".into()])), "both"),
            (
                frame(&SimRequest {
                    benchmarks: Some(["gzip", "mcf", "ammp", "art", "eon"].map(Into::into).into()),
                    ..SimRequest::default()
                }),
                "5 benchmarks for 4 cores",
            ),
            (edited(|r| r.cores = Some(2)), "4 benchmarks for 2 cores"),
        ]);
    }

    #[test]
    fn hostile_simulate_payloads_get_typed_errors() {
        let full =
            edited(|r| (r.dtm, r.faults) = (Some(DtmConfig::default()), Some(custom_faults())));
        assert!(serve(&full, &SimConfig::default()).is_ok());
        let sub = |from: &str, to: &str| full.replace(from, to);
        let faults_frame = |edit: fn(&mut FaultConfig)| {
            let mut faults = custom_faults();
            edit(&mut faults);
            edited(|r| r.faults = Some(faults.clone()))
        };
        assert_rejected(&[
            (sub(r#""pi_ki":248.5,"#, ""), "missing field `pi_ki`"),
            // A client of the old vocabulary gets an error, not a
            // different cell.
            (
                sub(r#""policy""#, r#""threshold_c":90.0,"policy""#),
                "field `threshold_c`",
            ),
            (sub(r#""pi_kp""#, r#""pi_kd":1.0,"pi_kp""#), "field `pi_kd`"),
            (
                sub(r#""os_tick""#, r#""pi_kp":1.0,"os_tick""#),
                "repeated field `pi_kp`",
            ),
            (
                sub(r#""type":"Core""#, r#""type":"Socket""#),
                "unknown FaultTarget `Socket`",
            ),
            (
                sub(r#"{"type":"FreqFloor"}"#, r#""FreqFloor""#),
                "expected object",
            ),
            (
                sub(r#""policy""#, r#""cores":"four","policy""#),
                "bad `cores`",
            ),
            (sub(r#""policy""#, r#""dtm":"paper","policy""#), "bad `dtm`"),
            (
                sub(r#""threshold":84.2"#, r#""threshold":nan"#),
                "dtm threshold NaN",
            ),
            (
                sub(r#""dvfs_min_scale":0.2"#, r#""dvfs_min_scale":1e300"#),
                "dvfs_min_scale",
            ),
            (sub(r#""start":0.002"#, r#""start":nan"#), "fault event 0"),
            (
                sub(r#""max_step":6.0"#, r#""max_step":nan"#),
                "must not be NaN",
            ),
            (
                faults_frame(|f| f.scenario.events = vec![f.scenario.events[0]; 65]),
                "65 fault events exceed 64",
            ),
            (
                faults_frame(|f| f.scenario.name = "x".repeat(65)),
                "name of 65 bytes exceeds 64",
            ),
            (
                faults_frame(|f| f.scenario.events[0].kind = SensorStale { delay: 10.0 }),
                "stale delay 10",
            ),
            // A 700 KB frame: refused before any name is resolved.
            (
                frame(&SimRequest {
                    benchmarks: Some(vec!["gzip".into(); 100_000]),
                    ..SimRequest::default()
                }),
                "100000 benchmarks for 4 cores",
            ),
        ]);
    }

    #[test]
    fn explicit_benchmark_tuples_resolve() {
        let req = SimRequest {
            benchmarks: Some(vec![
                "gzip".into(),
                "mcf".into(),
                "ammp".into(),
                "art".into(),
            ]),
            policy: "dvfs/global/counter".into(),
            ..SimRequest::default()
        };
        let r = req.resolve(&SimConfig::fast_test()).unwrap();
        assert_eq!(r.workload.benchmarks.len(), 4);
        assert!(req.resolve(&SimConfig::fast_test()).is_ok());
    }
}

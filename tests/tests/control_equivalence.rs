//! Differential control-correctness suite for the adaptive gain
//! scheduler.
//!
//! The adaptive layer (DESIGN.md §10) is sold on four promises, each
//! pinned here as a cross-crate differential test:
//!
//! 1. with adaptation disabled, the scheduled controller is
//!    *bit-identical* to the fixed-gain paper controller — at the
//!    single-step level and at the whole-`RunResult` level;
//! 2. adaptation never leaves its declared envelope: effective gains
//!    stay within `[MULT_MIN, MULT_MAX]` of the design and clipping
//!    still prevents integral windup;
//! 3. closed-loop safety is preserved: an adaptive run never exceeds
//!    the trip threshold by more than the fixed-gain run's overshoot
//!    plus a small band;
//! 4. runs replay byte-identically under seed reuse, including when
//!    the cell arrives through the serve wire path — and the fault-free
//!    fixed-gain cell keeps its pinned cache address.

use dtm_control::{AdaptivePi, ClippedPi, GainScheduleConfig, PiGains, MULT_MAX, MULT_MIN};
use dtm_core::{DtmConfig, Experiment, PolicySpec, RunResult, SimConfig};
use dtm_harness::codec::result_to_json;
use dtm_harness::json::Json;
use dtm_harness::{cell_key, CellKey};
use dtm_serve::{Request, SimRequest};
use dtm_tests::{fast_experiment, mixed_workload, run};
use dtm_workloads::{standard_workloads, TraceGenConfig, TraceLibrary};

/// Runs the fast-test context with a non-default DTM configuration.
fn run_with_dtm(dtm: DtmConfig, policy: PolicySpec) -> RunResult {
    let exp = Experiment::new(
        TraceLibrary::new(TraceGenConfig::fast_test()),
        SimConfig {
            duration: 0.04,
            ..SimConfig::default()
        },
        dtm,
    );
    exp.run(&mixed_workload(), policy).expect("simulation")
}

/// The result's canonical encoding with `gain_stats` stripped — the
/// physics-only view used for cross-schedule byte comparisons
/// (fixed-gain runs carry no `gain_stats` object at all).
fn physics_bytes(r: &RunResult) -> String {
    let mut json = result_to_json(r);
    if let Json::Obj(fields) = &mut json {
        fields.retain(|(k, _)| k != "gain_stats");
    }
    json.emit()
}

/// A tiny deterministic LCG for reproducible pseudo-random sequences.
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------
// 1. Adaptation disabled ⇒ bit-identical to the fixed PI.
// ---------------------------------------------------------------------

#[test]
fn disabled_adaptation_is_bit_identical_to_fixed_pi() {
    // Step level: every disabled schedule reproduces ClippedPi's output
    // bit for bit over a randomized error sequence.
    for config in [
        GainScheduleConfig::Fixed,
        GainScheduleConfig::Rao {
            alpha: 0.0,
            tau_s: 2e-3,
        },
        GainScheduleConfig::SelfTuning {
            rate: 0.0,
            window_s: 2e-3,
        },
    ] {
        let mut fixed = ClippedPi::paper_thermal_dvfs();
        let mut adaptive = AdaptivePi::new(PiGains::paper_defaults(), config, 0.2, 1.0);
        let mut state = 0x9e3779b97f4a7c15;
        for i in 0..20_000 {
            let e = (lcg(&mut state) - 0.5) * 40.0;
            let a = fixed.update(e);
            let b = adaptive.update(e);
            assert_eq!(a.to_bits(), b.to_bits(), "{config:?} diverged at step {i}");
        }
        assert_eq!(adaptive.multiplier_range(), (1.0, 1.0));
        assert_eq!(adaptive.adaptations(), 0);
    }

    // Run level: a whole simulation under a disabled adaptive schedule
    // matches the fixed-gain run byte for byte on every physics field.
    let policy = PolicySpec::best();
    let fixed = run_with_dtm(DtmConfig::default(), policy);
    assert!(
        fixed.gain_stats.is_none(),
        "fixed-gain runs must not grow a gain_stats object"
    );
    for config in [
        GainScheduleConfig::Rao {
            alpha: 0.0,
            tau_s: 2e-3,
        },
        GainScheduleConfig::SelfTuning {
            rate: 0.0,
            window_s: 2e-3,
        },
    ] {
        let r = run_with_dtm(
            DtmConfig {
                gain_schedule: config,
                ..DtmConfig::default()
            },
            policy,
        );
        assert_eq!(
            physics_bytes(&fixed),
            physics_bytes(&r),
            "{config:?} perturbed the simulation"
        );
        // The adaptive bookkeeping confirms the multiplier never moved.
        let g = r.gain_stats.expect("adaptive schedules report gain stats");
        assert_eq!(g.kp_min.to_bits(), g.kp_max.to_bits());
        assert_eq!(g.ki_min.to_bits(), g.ki_max.to_bits());
        assert_eq!(g.kp_min.to_bits(), DtmConfig::default().pi_kp.to_bits());
        assert_eq!(g.adaptations, 0);
    }
}

// ---------------------------------------------------------------------
// 2. Gains stay inside the declared envelope; clipping still prevents
//    windup.
// ---------------------------------------------------------------------

#[test]
fn adaptive_gains_never_leave_their_declared_bounds() {
    let base = PiGains::paper_defaults();
    for config in [
        GainScheduleConfig::rao_default(),
        GainScheduleConfig::Rao {
            alpha: 4.0,
            tau_s: 0.01,
        },
        GainScheduleConfig::selftune_default(),
        GainScheduleConfig::SelfTuning {
            rate: 0.9,
            window_s: 1e-4,
        },
    ] {
        let mut pi = AdaptivePi::new(base, config, 0.2, 1.0);
        let mut state = 0xdeadbeefcafef00d;
        // Piecewise-constant error schedule: a new level every 64 steps,
        // spanning deep-cool to far-over-threshold.
        let mut level = 0.0;
        for i in 0..60_000 {
            if i % 64 == 0 {
                level = (lcg(&mut state) - 0.5) * 30.0;
            }
            let u = pi.update(level);
            assert!((0.2..=1.0).contains(&u), "{config:?}: output {u} escaped");
            let g = pi.effective_gains();
            assert!(
                g.kp >= base.kp * MULT_MIN - 1e-15 && g.kp <= base.kp * MULT_MAX + 1e-15,
                "{config:?}: kp {} outside [{}, {}]",
                g.kp,
                base.kp * MULT_MIN,
                base.kp * MULT_MAX
            );
            assert!(
                g.ki >= base.ki * MULT_MIN - 1e-12 && g.ki <= base.ki * MULT_MAX + 1e-12,
                "{config:?}: ki {} escaped",
                g.ki
            );
        }
        let (lo, hi) = pi.multiplier_range();
        assert!((MULT_MIN..=MULT_MAX).contains(&lo));
        assert!((MULT_MIN..=MULT_MAX).contains(&hi));

        // Anti-windup: saturate hard, then flip the error — recovery
        // must be fast because the clipped store holds no hidden
        // integral, whatever the multiplier did.
        for _ in 0..50_000 {
            pi.update(15.0);
        }
        assert_eq!(pi.output(), 0.2);
        let mut steps = 0;
        while pi.update(-5.0) < 1.0 {
            steps += 1;
            assert!(steps < 500, "{config:?}: windup — {steps} recovery steps");
        }
    }
}

// ---------------------------------------------------------------------
// 3. Closed-loop safety: adaptive overshoot within the fixed-gain band.
// ---------------------------------------------------------------------

#[test]
fn adaptive_overshoot_stays_within_the_fixed_gain_band() {
    // The golden band: an adaptive run may not exceed the trip
    // threshold by more than the fixed-gain controller's overshoot on
    // the same workload, plus a small margin for transient shaping.
    const BAND_C: f64 = 0.25;
    let policy = PolicySpec::best();
    let fixed = run(&mixed_workload(), policy);
    let threshold = DtmConfig::default().threshold;
    let fixed_overshoot = (fixed.max_temp - threshold).max(0.0);

    for config in [
        GainScheduleConfig::rao_default(),
        GainScheduleConfig::selftune_default(),
    ] {
        let r = run_with_dtm(
            DtmConfig {
                gain_schedule: config,
                ..DtmConfig::default()
            },
            policy,
        );
        let overshoot = (r.max_temp - threshold).max(0.0);
        assert!(
            overshoot <= fixed_overshoot + BAND_C,
            "{config:?}: overshoot {overshoot:.3} °C exceeds fixed {fixed_overshoot:.3} + {BAND_C}"
        );
        // And the run is still a real simulation, not a degenerate one.
        assert!(r.bips() > 0.0 && r.duty_cycle > 0.0);
    }
}

// ---------------------------------------------------------------------
// 4. Byte-identical replay under seed reuse, through the wire path;
//    the fixed-gain cache key pinned.
// ---------------------------------------------------------------------

#[test]
fn wire_path_replays_byte_identically_and_keys_are_stable() {
    // A request selecting the Rao schedule with explicit parameters
    // rides the serve codec (encode → decode → resolve) and runs
    // twice from the same seed: the encoded results must be equal byte
    // for byte, and equal to a run constructed directly from the
    // config — the wire adds nothing and loses nothing.
    let req = SimRequest {
        dtm: Some(DtmConfig {
            gain_schedule: GainScheduleConfig::Rao {
                alpha: 1.5,
                tau_s: 0.003,
            },
            ..DtmConfig::default()
        }),
        seed: Some(7),
        ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
    };
    let wire = Request::Simulate(Box::new(req.clone())).encode();
    let Request::Simulate(decoded) = Request::decode(&wire).expect("request decodes") else {
        panic!("not a simulate frame");
    };
    assert_eq!(*decoded, req, "wire round-trip must be lossless");

    let base_sim = SimConfig {
        duration: 0.04,
        ..SimConfig::fast_test()
    };
    let resolved = decoded.resolve(&base_sim).expect("request resolves");
    assert_eq!(
        resolved.variant.dtm.gain_schedule,
        GainScheduleConfig::Rao {
            alpha: 1.5,
            tau_s: 0.003,
        }
    );

    let run_resolved = || {
        let exp = Experiment::new(
            TraceLibrary::new(TraceGenConfig::fast_test()),
            resolved.variant.sim.clone(),
            resolved.variant.dtm,
        );
        exp.run(&resolved.workload, resolved.policy)
            .expect("simulation")
    };
    let first = result_to_json(&run_resolved()).emit();
    let second = result_to_json(&run_resolved()).emit();
    assert_eq!(first, second, "seed reuse must replay byte-identically");

    let direct = Experiment::new(
        TraceLibrary::new(TraceGenConfig::fast_test()),
        SimConfig {
            seed: 7,
            ..base_sim.clone()
        },
        DtmConfig {
            gain_schedule: GainScheduleConfig::Rao {
                alpha: 1.5,
                tau_s: 0.003,
            },
            ..DtmConfig::default()
        },
    )
    .run(&mixed_workload(), PolicySpec::best())
    .expect("simulation");
    assert_eq!(
        first,
        result_to_json(&direct).emit(),
        "wire-resolved cell must equal the directly-configured cell"
    );

    // Cache-key discipline: the fault-free fixed-gain cell keeps its
    // pinned address bit for bit, while selecting an adaptive schedule
    // — and only that — rekeys it.
    let w0 = &standard_workloads()[0];
    let tg = TraceGenConfig::default();
    let key = |dtm: &DtmConfig| {
        cell_key(
            w0,
            PolicySpec::baseline(),
            &SimConfig::default(),
            dtm,
            &dtm_core::FaultConfig::ideal(),
            &tg,
            "0.2.0",
        )
    };
    assert_eq!(
        key(&DtmConfig::default()),
        CellKey(202938442432549250901236756951541137682),
        "fixed-gain cell rekeyed — warm caches are orphaned"
    );
    let adaptive_key = key(&DtmConfig {
        gain_schedule: GainScheduleConfig::rao_default(),
        ..DtmConfig::default()
    });
    assert_ne!(
        adaptive_key,
        key(&DtmConfig::default()),
        "adaptive schedules must address distinct cache cells"
    );
}

// ---------------------------------------------------------------------
// Sanity: the shared fast context still behaves (guards the helpers the
// suite above leans on).
// ---------------------------------------------------------------------

#[test]
fn fast_context_runs_are_internally_deterministic() {
    let exp = fast_experiment();
    let w = mixed_workload();
    let a = exp.run(&w, PolicySpec::best()).expect("simulation");
    let b = exp.run(&w, PolicySpec::best()).expect("simulation");
    assert_eq!(result_to_json(&a).emit(), result_to_json(&b).emit());
}

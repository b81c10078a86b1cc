//! Field-by-field JSON codecs ([`JsonCodec`]) for every record the
//! workspace writes and reads back: a [`RunResult`] in a cache entry,
//! a ledger row or a serve reply, and the [`DtmConfig`] and
//! [`FaultConfig`] a `simulate` request carries. The workspace serde is
//! a marker-trait stub (see `vendor/README.md`).
//!
//! [`struct_codec!`] writes every struct field under its Rust name, in
//! the order it lists them, and leaves an `Option` field out when it is
//! `None`. Reading back requires every other field, reads an absent
//! `Option` field as `None`, and rejects an unknown or repeated field,
//! so a foreign cache entry reads as a miss. Floats use
//! shortest-round-trip formatting, so decode(encode(r)) is
//! bit-identical to `r` — the property the result cache and the wire
//! rely on.

use crate::json::{Fields, Json, JsonError};
use dtm_core::{
    DtmConfig, FallbackKind, FaultConfig, FaultEvent, FaultKind, FaultScenario, FaultTarget,
    GainScheduleConfig, GainStats, PhaseNs, PhaseProfile, Robustness, RunResult, SteadyTempSummary,
    ThreadStats, WatchdogConfig,
};

/// Encodes a run result as a JSON object.
pub fn result_to_json(r: &RunResult) -> Json {
    r.to_json()
}

/// Decodes a run result from [`result_to_json`]'s layout.
///
/// # Errors
///
/// Fails on a missing, unknown or repeated field or a type mismatch
/// (e.g. a corrupt or foreign cache file).
pub fn result_from_json(v: &Json) -> Result<RunResult, JsonError> {
    RunResult::from_json(v)
}

/// A type with a field-by-field JSON encoding: every struct field
/// under its Rust name, every enum an object whose `type` names the
/// variant beside that variant's fields. The decoder requires every
/// field but an absent `Option` one and rejects any other.
pub trait JsonCodec: Sized {
    /// Encodes the value.
    fn to_json(&self) -> Json;

    /// Decodes [`JsonCodec::to_json`]'s layout.
    ///
    /// # Errors
    ///
    /// Fails on a missing, unknown or repeated field, an unknown
    /// variant, or a type mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// How [`struct_codec!`] writes and reads one field: always present,
/// except that an `Option` field is left out when `None` and reads as
/// `None` when absent.
pub trait JsonField: Sized {
    /// Appends the field `name`, or nothing for a `None`.
    fn put_field(&self, name: &str, pairs: &mut Vec<(String, Json)>);

    /// Reads the field `name`.
    ///
    /// # Errors
    ///
    /// Fails on a missing required field or a bad value.
    fn take_field(o: &mut Fields<'_>, name: &str) -> Result<Self, JsonError>;
}

impl<T: JsonCodec> JsonField for T {
    fn put_field(&self, name: &str, pairs: &mut Vec<(String, Json)>) {
        pairs.push((name.into(), self.to_json()));
    }
    fn take_field(o: &mut Fields<'_>, name: &str) -> Result<Self, JsonError> {
        T::from_json(o.req(name)?)
    }
}

impl<T: JsonCodec> JsonField for Option<T> {
    fn put_field(&self, name: &str, pairs: &mut Vec<(String, Json)>) {
        if let Some(v) = self {
            v.put_field(name, pairs);
        }
    }
    fn take_field(o: &mut Fields<'_>, name: &str) -> Result<Self, JsonError> {
        o.opt(name).map(T::from_json).transpose()
    }
}

/// Implements [`JsonCodec`] for a leaf type from its [`Json`]
/// constructor and accessor.
macro_rules! leaf_codec {
    ($($ty:ty: $enc:path, $dec:ident;)*) => {$(
        impl JsonCodec for $ty {
            fn to_json(&self) -> Json {
                $enc(self.to_owned())
            }
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                v.$dec().map(Into::into)
            }
        }
    )*};
}

leaf_codec! {
    f64: Json::f64, as_f64;
    u64: Json::u64, as_u64;
    usize: Json::usize, as_usize;
    bool: Json::Bool, as_bool;
    String: Json::str, as_str;
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

/// Implements [`JsonCodec`] for a struct from its field list, which is
/// also the order the fields are written in; each field goes through
/// [`JsonField`]. Both directions name every field without `..`, so a
/// field missing from the list is a compile error.
#[macro_export]
macro_rules! struct_codec {
    ($ty:ident; $($field:ident),* $(,)?) => {
        impl $crate::codec::JsonCodec for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let $ty { $($field),* } = self;
                let mut pairs = Vec::with_capacity([$(stringify!($field)),*].len());
                $($crate::codec::JsonField::put_field($field, stringify!($field), &mut pairs);)*
                $crate::json::Json::Obj(pairs)
            }
            fn from_json(
                v: &$crate::json::Json,
            ) -> ::std::result::Result<Self, $crate::json::JsonError> {
                let mut o = v.fields()?;
                let decoded = $ty {
                    $($field: $crate::codec::JsonField::take_field(&mut o, stringify!($field))?),*
                };
                o.end()?;
                Ok(decoded)
            }
        }
    };
}

pub use struct_codec;

/// Implements [`JsonCodec`] for an enum from its variant list; the
/// encoder's `match` makes a variant missing from the list a compile
/// error.
macro_rules! enum_codec {
    ($ty:ident; $($variant:ident $({ $($field:ident),* })?),* $(,)?) => {
        impl JsonCodec for $ty {
            fn to_json(&self) -> Json {
                match self {
                    $($ty::$variant $({ $($field),* })? => {
                        #[allow(unused_mut)]
                        let mut pairs = vec![("type".to_string(), Json::str(stringify!($variant)))];
                        $($(pairs.push((stringify!($field).into(), $field.to_json()));)*)?
                        Json::Obj(pairs)
                    })*
                }
            }
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let mut o = v.fields()?;
                let decoded = match o.req("type")?.as_str()? {
                    $(stringify!($variant) => $ty::$variant $({
                        $($field: JsonCodec::from_json(o.req(stringify!($field))?)?),*
                    })?,)*
                    other => {
                        return Err(JsonError(format!("unknown {} `{other}`", stringify!($ty))))
                    }
                };
                o.end()?;
                Ok(decoded)
            }
        }
    };
}

struct_codec!(RunResult; duration, cores, instructions, duty_cycle, max_temp, emergency_time,
    migrations, dvfs_transitions, stalls, energy, robustness, threads, steady, phases, gain_stats);
struct_codec!(Robustness; violation_time, peak_overshoot, false_throttle_time, fallback_time,
    fallback_entries, fallback_exits, watchdog_flags);
struct_codec!(ThreadStats; instructions, scaled_work, migrations);
struct_codec!(SteadyTempSummary; mean, min, max);
struct_codec!(PhaseProfile; steps, phases);
struct_codec!(PhaseNs; name, ns);
struct_codec!(GainStats; kp_min, kp_max, ki_min, ki_max, adaptations);
struct_codec!(DtmConfig; threshold, stopgo_trip_margin, stopgo_stall, dvfs_setpoint_margin,
    dvfs_min_scale, dvfs_min_transition, dvfs_transition_penalty, migration_penalty, os_tick,
    migration_interval, pi_kp, pi_ki, gain_schedule);
enum_codec!(GainScheduleConfig; Fixed, Rao { alpha, tau_s }, SelfTuning { rate, window_s });
struct_codec!(FaultConfig; scenario, watchdog);
struct_codec!(FaultScenario; name, events);
struct_codec!(FaultEvent; start, end, target, kind);
enum_codec!(FaultTarget; Sensor { core, index }, Core { core }, Chip);
enum_codec!(FaultKind; SensorStuck { value }, SensorDrift { rate }, SensorDropout,
    SensorSpike { amplitude }, SensorStale { delay }, DvfsStuck, GateIgnored);
struct_codec!(WatchdogConfig; enabled, max_step, max_deviation, fallback, min_hold);
enum_codec!(FallbackKind; FreqFloor, StopGoLastGood);

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            duration: 0.5,
            cores: 4,
            instructions: 5.678e9 + 1.0 / 3.0,
            duty_cycle: 0.815_372_910_4,
            max_temp: 84.199_999_999_9,
            emergency_time: 0.0,
            migrations: 17,
            dvfs_transitions: 12_345,
            stalls: 3,
            energy: 22.25,
            robustness: Robustness {
                violation_time: 0.012_5,
                peak_overshoot: 1.375 + 1.0 / 9.0,
                false_throttle_time: 0.031,
                fallback_time: 0.25,
                fallback_entries: 2,
                fallback_exits: 1,
                watchdog_flags: 4_321,
            },
            steady: Some(SteadyTempSummary {
                mean: 83.337_5 + 1.0 / 7.0,
                min: 82.9,
                max: 84.125,
            }),
            phases: Some(PhaseProfile {
                steps: 18_000,
                phases: vec![
                    PhaseNs {
                        name: "microarch".into(),
                        ns: 123_456_789,
                    },
                    PhaseNs {
                        name: "thermal".into(),
                        ns: 987_654_321,
                    },
                ],
            }),
            gain_stats: Some(GainStats {
                kp_min: 0.0107 * 0.75,
                kp_max: 0.0107 * (1.0 + 1.0 / 3.0),
                ki_min: 248.5 * 0.75,
                ki_max: 248.5 * (1.0 + 1.0 / 3.0),
                adaptations: 7_654,
            }),
            threads: vec![
                ThreadStats {
                    instructions: 1.5e9,
                    scaled_work: 0.41,
                    migrations: 5,
                },
                ThreadStats::default(),
            ],
        }
    }

    #[test]
    fn round_trip_is_equal() {
        let r = sample();
        let back = result_from_json(&Json::parse(&result_to_json(&r).emit()).unwrap()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let r = sample();
        let back = result_from_json(&Json::parse(&result_to_json(&r).emit()).unwrap()).unwrap();
        for (a, b) in [
            (r.instructions, back.instructions),
            (r.duty_cycle, back.duty_cycle),
            (r.max_temp, back.max_temp),
            (r.energy, back.energy),
            (r.threads[0].scaled_work, back.threads[0].scaled_work),
            (r.robustness.peak_overshoot, back.robustness.peak_overshoot),
            (r.robustness.violation_time, back.robustness.violation_time),
            (r.steady.unwrap().mean, back.steady.unwrap().mean),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(r.robustness, back.robustness);
        assert_eq!(r.steady, back.steady);
        assert_eq!(r.phases, back.phases);
        assert_eq!(r.gain_stats, back.gain_stats);
        let (g, bg) = (r.gain_stats.unwrap(), back.gain_stats.unwrap());
        assert_eq!(g.kp_max.to_bits(), bg.kp_max.to_bits());
        assert_eq!(g.ki_max.to_bits(), bg.ki_max.to_bits());
    }

    #[test]
    fn pre_observability_entries_decode_without_steady_or_phases() {
        // An entry written before the observability subsystem existed:
        // strip both new objects and check the decode yields `None`s.
        let mut encoded = result_to_json(&sample());
        if let Json::Obj(fields) = &mut encoded {
            fields.retain(|(k, _)| k != "steady" && k != "phases");
        }
        let back = result_from_json(&Json::parse(&encoded.emit()).unwrap()).unwrap();
        assert_eq!(back.steady, None);
        assert_eq!(back.phases, None);
        assert_eq!(back.robustness, sample().robustness);
    }

    #[test]
    fn unprofiled_results_encode_without_optional_objects() {
        let r = RunResult {
            steady: None,
            phases: None,
            gain_stats: None,
            ..sample()
        };
        let text = result_to_json(&r).emit();
        assert!(!text.contains("\"steady\""));
        assert!(!text.contains("\"phases\""));
        assert!(!text.contains("\"gain_stats\""));
        let back = result_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn pre_adaptive_entries_decode_without_gain_stats() {
        // A fixed-gain result has no gain_stats object: strip it and
        // check the decode yields `None`.
        let mut encoded = result_to_json(&sample());
        if let Json::Obj(fields) = &mut encoded {
            fields.retain(|(k, _)| k != "gain_stats");
        }
        let back = result_from_json(&Json::parse(&encoded.emit()).unwrap()).unwrap();
        assert_eq!(back.gain_stats, None);
        assert_eq!(back.robustness, sample().robustness);
        assert_eq!(back.steady, sample().steady);
    }

    #[test]
    fn corrupt_layouts_are_errors() {
        assert!(result_from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(result_from_json(&Json::parse("{\"duration\":\"x\"}").unwrap()).is_err());
        // Decoding is strict: an unknown or repeated field at any
        // level (an optional one included) and an object too wide for
        // the read mask are errors.
        let with = |path: &[&str], pair: (&str, Json)| {
            let mut v = result_to_json(&sample());
            let mut obj = &mut v;
            for key in path {
                let Json::Obj(pairs) = obj else {
                    unreachable!()
                };
                obj = &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1;
            }
            let Json::Obj(pairs) = obj else {
                unreachable!()
            };
            pairs.push((pair.0.into(), pair.1));
            result_from_json(&Json::parse(&v.emit()).unwrap())
        };
        for (path, pair) in [
            (&[][..], ("quantum_lanes", Json::u64(64))),
            (&[], ("stalls", Json::u64(3))),
            (&[], ("steady", Json::Null)),
            (&["robustness"], ("fallback_exits", Json::u64(1))),
            (&["gain_stats"], ("kd_max", Json::f64(0.5))),
        ] {
            let err = with(path, pair.clone()).unwrap_err();
            assert!(err.0.contains("field"), "{path:?} + {pair:?}: {err}");
        }
        let bare = RunResult {
            steady: None,
            ..sample()
        };
        let mut wide = result_to_json(&bare);
        if let Json::Obj(pairs) = &mut wide {
            pairs.extend((0..52).map(|i| (format!("pad{i}"), Json::Null)));
        }
        let err = result_from_json(&wide).unwrap_err();
        assert!(err.0.contains("exceeds 64"), "{err}");
    }

    #[test]
    fn result_bytes_are_pinned() {
        // The bytes every cache entry, ledger row and `result` frame
        // holds; a change here orphans every stored result.
        assert_eq!(
            result_to_json(&sample()).emit(),
            concat!(
                r#"{"duration":0.5,"cores":4,"instructions":5678000000.333333,"#,
                r#""duty_cycle":0.8153729104,"max_temp":84.1999999999,"emergency_time":0.0,"#,
                r#""migrations":17,"dvfs_transitions":12345,"stalls":3,"energy":22.25,"#,
                r#""robustness":{"violation_time":0.0125,"peak_overshoot":1.4861111111111112,"#,
                r#""false_throttle_time":0.031,"fallback_time":0.25,"fallback_entries":2,"#,
                r#""fallback_exits":1,"watchdog_flags":4321},"#,
                r#""threads":[{"instructions":1500000000.0,"scaled_work":0.41,"migrations":5},"#,
                r#"{"instructions":0.0,"scaled_work":0.0,"migrations":0}],"#,
                r#""steady":{"mean":83.48035714285714,"min":82.9,"max":84.125},"#,
                r#""phases":{"steps":18000,"phases":[{"name":"microarch","ns":123456789},"#,
                r#"{"name":"thermal","ns":987654321}]},"#,
                r#""gain_stats":{"kp_min":0.008025,"kp_max":0.014266666666666665,"#,
                r#""ki_min":186.375,"ki_max":331.3333333333333,"adaptations":7654}}"#,
            )
        );
        let bare = RunResult {
            steady: None,
            phases: None,
            gain_stats: None,
            ..sample()
        };
        assert_eq!(
            result_to_json(&bare).emit(),
            concat!(
                r#"{"duration":0.5,"cores":4,"instructions":5678000000.333333,"#,
                r#""duty_cycle":0.8153729104,"max_temp":84.1999999999,"emergency_time":0.0,"#,
                r#""migrations":17,"dvfs_transitions":12345,"stalls":3,"energy":22.25,"#,
                r#""robustness":{"violation_time":0.0125,"peak_overshoot":1.4861111111111112,"#,
                r#""false_throttle_time":0.031,"fallback_time":0.25,"fallback_entries":2,"#,
                r#""fallback_exits":1,"watchdog_flags":4321},"#,
                r#""threads":[{"instructions":1500000000.0,"scaled_work":0.41,"migrations":5},"#,
                r#"{"instructions":0.0,"scaled_work":0.0,"migrations":0}]}"#,
            )
        );
    }
}
